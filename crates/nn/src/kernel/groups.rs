//! Lane-parallel quantization of many small groups.
//!
//! A serving flush quantizes every request on its own: one 12-wide input
//! row per edge request, then one 16-wide hidden row per layer. Per row,
//! the per-row quantizer is one chain of dependent
//! steps (max-abs, `max / 127`, `v / scale`, rounding) over a handful of
//! elements, with scalar loops over the elements past the last whole
//! vector, so its time is latency, not work. [`quantize_groups`]
//! quantizes a whole stack of groups instead, 8 (AVX2) or 16 (AVX-512)
//! per pass. A pass takes each group's max-abs with masked vector loads
//! (no scalar remainder), derives the scales of all its groups at once,
//! one group per lane, and then writes each group's codes with masked
//! vector stores. The groups of a pass share no dependency, so their
//! chains run side by side. The pass gathers nothing: on this class of
//! host a gather costs tens of cycles whatever its mask, which made a
//! gather-per-element pass slower than the per-row quantizer for fewer
//! than 3 to 8 groups.
//!
//! Each group sees the same IEEE operations, in the same order, as the
//! per-row quantizer and [`quantize_reference`](super::quantize_reference):
//! the NaN-skipping max-abs (`vmaxps` keeps its second
//! operand when the first is NaN, which is the `>` test the per-row lanes
//! use; a maximum over non-NaN magnitudes does not depend on the order it
//! is taken in), `max / 127` (or 1 for an all-zero group), `v / scale`,
//! and the same clamp-and-round sequence as
//! [`round_clamped`](super::round_clamped). Codes and scales are
//! therefore bit-identical to quantizing each group alone.
//!
//! The path is picked by the batch's shape, as a layer's shape picks its
//! GEMM body: the per-row
//! quantizer keeps the groups left over when fewer than [`MIN_PASS`]
//! remain for a pass, where it wins, and every group on a host without
//! AVX2. Measured per one-row group on an AVX-512 host, in full passes
//! against the per-row quantizer, a pass wins at every width tried:
//!
//! | width | per row, ns | AVX-512 pass | AVX2 pass |
//! |------:|------------:|-------------:|----------:|
//! |    12 |       58–61 |           17 |        26 |
//! |    16 |       32–35 |           19 |        25 |
//! |    21 |       82–91 |           28 |        34 |
//! |    64 |       86–97 |           42 |        66 |
//! |   128 |     143–151 |           72 |       124 |

use crate::simd::Tier;

/// Quantizes a stack of groups of `group_rows[i]` rows of `width`
/// elements each, in order, exactly as
/// [`quantize_reference`](super::quantize_reference) quantizes each group
/// alone: the codes land in `out` and `scales` receives each row's scale
/// (the scale of the row's group).
///
/// # Panics
///
/// Panics if `src` or `out` does not hold exactly the groups' rows.
///
/// # Examples
///
/// ```
/// use nn::kernel::{quantize_groups, quantize_reference};
///
/// let src = [0.5, -1.0, 2.0, 4.0, f32::NAN, -8.0];
/// let (mut codes, mut scales) = ([0i8; 6], Vec::new());
/// quantize_groups(&src, 2, &[1, 2], &mut codes, &mut scales);
/// let mut alone = [0i8; 4];
/// let scale = quantize_reference(&src[2..], &mut alone);
/// assert_eq!(&codes[2..], &alone);
/// assert_eq!(scales[1..], [scale, scale]);
/// ```
pub fn quantize_groups(
    src: &[f32],
    width: usize,
    group_rows: &[usize],
    out: &mut [i8],
    scales: &mut Vec<f32>,
) {
    quantize_groups_on(Tier::detected(), src, width, group_rows, out, scales);
}

/// [`quantize_groups`] on `tier`.
pub(crate) fn quantize_groups_on(
    tier: Tier,
    src: &[f32],
    width: usize,
    group_rows: &[usize],
    out: &mut [i8],
    scales: &mut Vec<f32>,
) {
    let rows: usize = group_rows.iter().sum();
    assert_eq!(src.len(), rows * width, "group shape mismatch");
    assert_eq!(out.len(), src.len(), "quantize length mismatch");
    scales.clear();
    scales.resize(rows, 0.0);
    if group_rows.len() < MIN_PASS || !tier.has_avx2() {
        // Too few groups for a pass to win, or no vector pass at all.
        let (mut start, mut row) = (0, 0);
        for &n in group_rows {
            let span = start..start + n * width;
            if n > 0 {
                let scale = quantize_row(tier, &src[span.clone()], &mut out[span.clone()]);
                scales[row..row + n].fill(scale);
            }
            (start, row) = (span.end, row + n);
        }
        return;
    }
    let lanes = if tier.has_avx512() { 16 } else { 8 };
    let mut pass = Pass::default();
    let (mut start, mut row) = (0, 0);
    for &n in group_rows {
        if n > 0 {
            pass.push(start, n * width, row, n);
            if pass.count == lanes {
                pass.run(tier, src, out, scales);
            }
        }
        start += n * width;
        row += n;
    }
    pass.run(tier, src, out, scales);
}

/// The per-row quantizer on `tier`: the path of groups left out of a
/// pass.
fn quantize_row(tier: Tier, src: &[f32], out: &mut [i8]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier.has_avx2() {
        // SAFETY: an AVX2 or AVX-512 tier is made only on an AVX2 host.
        return unsafe { super::quantize_avx2(src, out) };
    }
    let _ = tier;
    super::quantize_body(src, out)
}

/// Most groups one pass takes: the AVX-512 lane count (AVX2 passes take
/// 8).
const MAX_LANES: usize = 16;

/// Fewest groups a pass takes. A pass pays a fixed latency (the scale
/// vector waits on every group's max-abs), which a lone group does not
/// hide: one 12- or 16-wide group takes about 100 ns in a pass against
/// 45–75 ns on its own, and a pass wins from about 3 (12-wide) or 4
/// (16-wide) groups on AVX-512.
const MIN_PASS: usize = 4;

/// The groups of one pass.
#[derive(Default)]
struct Pass {
    count: usize,
    /// First element and element count of each group.
    spans: [(usize, usize); MAX_LANES],
    /// First row and row count of each group.
    rows: [(usize, usize); MAX_LANES],
}

impl Pass {
    fn push(&mut self, start: usize, len: usize, row: usize, rows: usize) {
        self.spans[self.count] = (start, len);
        self.rows[self.count] = (row, rows);
        self.count += 1;
    }

    /// Quantizes the pass's groups, files their scales, and empties the
    /// pass. Fewer than [`MIN_PASS`] groups go through the per-row
    /// quantizer one by one.
    fn run(&mut self, tier: Tier, src: &[f32], out: &mut [i8], scales: &mut [f32]) {
        let mut lane_scales = [0.0f32; MAX_LANES];
        let spans = &self.spans[..self.count];
        if spans.len() < MIN_PASS {
            for (scale, &(start, len)) in lane_scales.iter_mut().zip(spans) {
                *scale = quantize_row(tier, &src[start..start + len], &mut out[start..start + len]);
            }
        } else {
            #[cfg(target_arch = "x86_64")]
            if tier.has_avx512() {
                // SAFETY: an AVX-512 tier is made only on an AVX-512F
                // host.
                unsafe { pass_avx512(spans, src, out, &mut lane_scales) };
            } else {
                // SAFETY: an AVX2 tier is made only on an AVX2 host.
                unsafe { pass_avx2(spans, src, out, &mut lane_scales) };
            }
        }
        for (&(row, n), &scale) in self.rows[..self.count].iter().zip(&lane_scales) {
            scales[row..row + n].fill(scale);
        }
        self.count = 0;
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// 2²³ and 1.5 · 2²³, as in [`round_clamped`](super::round_clamped).
#[cfg(target_arch = "x86_64")]
const TWO_POW_23: f32 = super::TWO_POW_23;
#[cfg(target_arch = "x86_64")]
const INT_MAGIC: f32 = super::INT_MAGIC;

/// One AVX2 pass of up to 8 groups: the groups at `spans` of `src` are
/// quantized into the same spans of `out`, and group `l`'s scale lands in
/// `scales[l]`.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pass_avx2(
    spans: &[(usize, usize)],
    src: &[f32],
    out: &mut [i8],
    scales: &mut [f32; MAX_LANES],
) {
    debug_assert!(spans.len() <= 8);
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let mut maxes = [0.0f32; 8];
    for (max, &(start, len)) in maxes.iter_mut().zip(spans) {
        let mut max_abs = _mm256_setzero_ps();
        for chunk in src[start..start + len].chunks(8) {
            // SAFETY: the mask covers `chunk` alone, and masked-off lanes
            // are not read.
            let v = unsafe { _mm256_maskload_ps(chunk.as_ptr(), live_avx2(chunk.len())) };
            max_abs = _mm256_max_ps(_mm256_and_ps(v, abs_mask), max_abs);
        }
        *max = max_avx2(max_abs);
    }
    // SAFETY: `maxes` holds 8 lanes.
    let max_abs = unsafe { _mm256_loadu_ps(maxes.as_ptr()) };
    let positive = _mm256_cmp_ps::<_CMP_GT_OQ>(max_abs, _mm256_setzero_ps());
    let scale = _mm256_blendv_ps(
        _mm256_set1_ps(1.0),
        _mm256_div_ps(max_abs, _mm256_set1_ps(127.0)),
        positive,
    );
    // SAFETY: `scales` holds at least 8 lanes.
    unsafe { _mm256_storeu_ps(scales.as_mut_ptr(), scale) };
    for (&scale, &(start, len)) in scales.iter().zip(spans) {
        let scale = _mm256_set1_ps(scale);
        let chunks = src[start..start + len].chunks(8);
        for (chunk, codes) in chunks.zip(out[start..start + len].chunks_mut(8)) {
            // SAFETY: as for the max-abs loads.
            let v = unsafe { _mm256_maskload_ps(chunk.as_ptr(), live_avx2(chunk.len())) };
            let q = round_clamped_avx2(_mm256_div_ps(v, scale));
            // The codes fit in `i8`, so the saturating packs are exact.
            let words =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let bytes = _mm_packs_epi16(words, words);
            if codes.len() == 8 {
                // SAFETY: `codes` holds the 8 bytes the store writes.
                unsafe { _mm_storel_epi64(codes.as_mut_ptr().cast(), bytes) };
            } else {
                let mut lanes = [0i8; 16];
                // SAFETY: `lanes` holds 16 bytes.
                unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), bytes) };
                codes.copy_from_slice(&lanes[..codes.len()]);
            }
        }
    }
}

/// The load mask of the first `n` of 8 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn live_avx2(n: usize) -> __m256i {
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(n as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// The maximum of 8 lanes that hold no NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn max_avx2(v: __m256) -> f32 {
    let x = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
    let x = _mm_max_ps(x, _mm_movehl_ps(x, x));
    let x = _mm_max_ps(x, _mm_shuffle_ps::<0b01>(x, x));
    _mm_cvtss_f32(x)
}
/// [`round_clamped`](super::round_clamped) on 8 lanes, returning each
/// code as an `i32` (its low byte is the `i8` code).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn round_clamped_avx2(x: __m256) -> __m256i {
    let one = _mm256_set1_ps(1.0);
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    // NaN clamps to -127 here and is zeroed at the end.
    let c = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(-127.0)),
        _mm256_set1_ps(127.0),
    );
    let sign = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let a = _mm256_andnot_ps(sign, c);
    let two23 = _mm256_set1_ps(TWO_POW_23);
    let nearest = _mm256_sub_ps(_mm256_add_ps(a, two23), two23);
    let overshot = _mm256_cmp_ps::<_CMP_GT_OQ>(nearest, a);
    let t = _mm256_blendv_ps(nearest, _mm256_sub_ps(nearest, one), overshot);
    let carry = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(a, t), _mm256_set1_ps(0.5));
    let r = _mm256_blendv_ps(t, _mm256_add_ps(t, one), carry);
    // `r ≥ +0.0`, so or-ing in the sign of `c` is `r.copysign(c)`.
    let r = _mm256_andnot_ps(nan, _mm256_or_ps(r, _mm256_and_ps(c, sign)));
    let magic = _mm256_set1_ps(INT_MAGIC);
    _mm256_sub_epi32(
        _mm256_castps_si256(_mm256_add_ps(r, magic)),
        _mm256_castps_si256(magic),
    )
}

/// One AVX-512 pass of up to 16 groups, as [`pass_avx2`] does 8.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pass_avx512(
    spans: &[(usize, usize)],
    src: &[f32],
    out: &mut [i8],
    scales: &mut [f32; MAX_LANES],
) {
    let abs_mask = _mm512_set1_epi32(0x7fff_ffff);
    let mut maxes = [0.0f32; MAX_LANES];
    for (max, &(start, len)) in maxes.iter_mut().zip(spans) {
        let mut max_abs = _mm512_setzero_ps();
        for chunk in src[start..start + len].chunks(16) {
            // SAFETY: the mask covers `chunk` alone, and masked-off lanes
            // are neither read nor faulted on.
            let v = unsafe { _mm512_maskz_loadu_ps(live_avx512(chunk.len()), chunk.as_ptr()) };
            let abs = _mm512_castsi512_ps(_mm512_and_epi32(_mm512_castps_si512(v), abs_mask));
            max_abs = _mm512_max_ps(abs, max_abs);
        }
        *max = max_avx512(max_abs);
    }
    // SAFETY: `maxes` holds 16 lanes.
    let max_abs = unsafe { _mm512_loadu_ps(maxes.as_ptr()) };
    let positive = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(max_abs, _mm512_setzero_ps());
    let scale = _mm512_mask_blend_ps(
        positive,
        _mm512_set1_ps(1.0),
        _mm512_div_ps(max_abs, _mm512_set1_ps(127.0)),
    );
    // SAFETY: `scales` holds 16 lanes.
    unsafe { _mm512_storeu_ps(scales.as_mut_ptr(), scale) };
    for (&scale, &(start, len)) in scales.iter().zip(spans) {
        let scale = _mm512_set1_ps(scale);
        let chunks = src[start..start + len].chunks(16);
        for (chunk, codes) in chunks.zip(out[start..start + len].chunks_mut(16)) {
            let live = live_avx512(chunk.len());
            // SAFETY: as for the max-abs loads.
            let v = unsafe { _mm512_maskz_loadu_ps(live, chunk.as_ptr()) };
            let q = round_clamped_avx512(_mm512_div_ps(v, scale));
            // SAFETY: the mask covers `codes` alone, and masked-off lanes
            // are not written.
            unsafe { _mm512_mask_cvtepi32_storeu_epi8(codes.as_mut_ptr(), live, q) };
        }
    }
}

/// The mask of the first `n` of 16 lanes.
#[cfg(target_arch = "x86_64")]
fn live_avx512(n: usize) -> __mmask16 {
    debug_assert!(n <= 16);
    (1u32 << n).wrapping_sub(1) as __mmask16
}

/// The maximum of 16 lanes that hold no NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn max_avx512(v: __m512) -> f32 {
    let v = _mm512_max_ps(v, _mm512_shuffle_f32x4::<0b11_10_11_10>(v, v));
    let v = _mm512_max_ps(v, _mm512_shuffle_f32x4::<0b01_01_01_01>(v, v));
    let v = _mm512_max_ps(v, _mm512_permute_ps::<0b01_00_11_10>(v));
    let v = _mm512_max_ps(v, _mm512_permute_ps::<0b10_11_00_01>(v));
    _mm512_cvtss_f32(v)
}

/// [`round_clamped`](super::round_clamped) on 16 lanes, returning each
/// code as an `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn round_clamped_avx512(x: __m512) -> __m512i {
    let one = _mm512_set1_ps(1.0);
    let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
    // NaN clamps to -127 here and is zeroed at the end.
    let c = _mm512_min_ps(
        _mm512_max_ps(x, _mm512_set1_ps(-127.0)),
        _mm512_set1_ps(127.0),
    );
    let bits = _mm512_castps_si512(c);
    let sign = _mm512_and_epi32(bits, _mm512_set1_epi32(i32::MIN));
    let a = _mm512_castsi512_ps(_mm512_and_epi32(bits, _mm512_set1_epi32(0x7fff_ffff)));
    let two23 = _mm512_set1_ps(TWO_POW_23);
    let nearest = _mm512_sub_ps(_mm512_add_ps(a, two23), two23);
    let overshot = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(nearest, a);
    let t = _mm512_mask_sub_ps(nearest, overshot, nearest, one);
    let carry = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_sub_ps(a, t), _mm512_set1_ps(0.5));
    let r = _mm512_mask_add_ps(t, carry, t, one);
    // `r ≥ +0.0`, so or-ing in the sign of `c` is `r.copysign(c)`.
    let r = _mm512_or_epi32(_mm512_castps_si512(r), sign);
    let r = _mm512_maskz_mov_epi32(!nan, r);
    let magic = _mm512_set1_ps(INT_MAGIC);
    _mm512_sub_epi32(
        _mm512_castps_si512(_mm512_add_ps(_mm512_castsi512_ps(r), magic)),
        _mm512_castps_si512(magic),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::quantize_reference;

    /// A small xorshift stream, so the cases need no RNG crate.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A value from a mix of ordinary magnitudes and the cases the
        /// quantizer must not mishandle: NaN, ±∞, ±0, subnormals, the
        /// clamp edges, and halfway points between codes.
        fn value(&mut self) -> f32 {
            let unit = (self.next() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
            match self.below(40) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f32::from_bits(1 + self.below(1 << 20) as u32),
                6 => -f32::MIN_POSITIVE * unit.abs(),
                7 => f32::MAX * unit,
                8 => (self.below(255) as f32 - 127.0 + 0.5) / 127.0,
                9 => 1.0e-30 * unit,
                _ => unit * 10f32.powi(self.below(7) as i32 - 3),
            }
        }
    }

    /// Fills `len` elements of one group: ordinary values, an all-zero
    /// group, an all-NaN one, one of mixed signed zeros, or one of exact
    /// halfway points between codes (its maximum makes the scale a power
    /// of two, so every `v / scale` is exactly `k + 0.5`).
    fn group(s: &mut Stream, len: usize, out: &mut Vec<f32>) {
        match s.below(12) {
            0 => out.extend(std::iter::repeat_n(0.0, len)),
            1 => out.extend(std::iter::repeat_n(f32::NAN, len)),
            2 => out.extend((0..len).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })),
            3 => {
                let scale = 2f32.powi(s.below(9) as i32 - 4);
                out.extend((0..len).map(|i| match i {
                    0 => 127.0 * scale,
                    _ => (s.below(254) as f32 - 127.0 + 0.5) * scale,
                }));
            }
            _ => out.extend((0..len).map(|_| s.value())),
        }
    }

    /// Holds the grouped quantizer to the reference on every group:
    /// codes equal, and the bits of every row's scale equal the group's.
    fn check(tier: Tier, src: &[f32], width: usize, group_rows: &[usize], what: &str) {
        let mut codes = vec![0i8; src.len()];
        let mut scales = vec![f32::NAN; 3];
        quantize_groups_on(tier, src, width, group_rows, &mut codes, &mut scales);
        assert_eq!(scales.len(), group_rows.iter().sum::<usize>(), "{what}");
        let (mut start, mut row) = (0, 0);
        for (g, &n) in group_rows.iter().enumerate() {
            let end = start + n * width;
            let mut expected = vec![0i8; n * width];
            let scale = quantize_reference(&src[start..end], &mut expected);
            assert_eq!(
                &codes[start..end],
                &expected[..],
                "{what}: group {g} ({n} rows) codes on {}",
                tier.name()
            );
            for (r, row_scale) in scales[row..row + n].iter().enumerate() {
                assert_eq!(
                    row_scale.to_bits(),
                    scale.to_bits(),
                    "{what}: group {g} row {r} scale on {}",
                    tier.name()
                );
            }
            start = end;
            row += n;
        }
    }

    #[test]
    fn groups_match_the_per_row_quantizer_on_every_tier() {
        let mut s = Stream(0x9e37_79b9_7f4a_7c15);
        for tier in Tier::supported() {
            for width in 1..=130 {
                // Mixed sizes in one batch: 1–40 rows, now and then an
                // empty group, enough groups for partial passes.
                let mut group_rows: Vec<usize> = (0..1 + s.below(20))
                    .map(|_| if s.below(10) == 0 { 0 } else { 1 + s.below(40) })
                    .collect();
                group_rows.push(1);
                let mut src = Vec::new();
                for &n in &group_rows {
                    group(&mut s, n * width, &mut src);
                }
                check(
                    tier,
                    &src,
                    width,
                    &group_rows,
                    &format!("width {width} mixed"),
                );
                // The serving shape: many one-row groups.
                let group_rows = vec![1; 1 + s.below(40)];
                let mut src = Vec::new();
                for _ in &group_rows {
                    group(&mut s, width, &mut src);
                }
                check(
                    tier,
                    &src,
                    width,
                    &group_rows,
                    &format!("width {width} rows"),
                );
            }
            // Every group size from 1 to 40 rows of the edge widths.
            for width in [12, 16, 21] {
                let group_rows: Vec<usize> = (1..=40).collect();
                let mut src = Vec::new();
                for &n in &group_rows {
                    group(&mut s, n * width, &mut src);
                }
                check(
                    tier,
                    &src,
                    width,
                    &group_rows,
                    &format!("width {width} sizes"),
                );
            }
        }
    }

    #[test]
    fn empty_batches_and_groups_quantize_to_nothing() {
        for tier in Tier::supported() {
            let mut scales = vec![1.0];
            quantize_groups_on(tier, &[], 12, &[], &mut [], &mut scales);
            assert!(scales.is_empty());
            quantize_groups_on(tier, &[], 12, &[0, 0], &mut [], &mut scales);
            assert!(scales.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "group shape mismatch")]
    fn a_short_input_is_refused() {
        quantize_groups(&[1.0; 11], 12, &[1], &mut [0; 11], &mut Vec::new());
    }
}
