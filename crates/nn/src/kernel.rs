//! Cache-blocked, explicitly vectorized int8 inference kernel.
//!
//! This module is the numeric hot path of the whole fleet. A compiled
//! model runs each layer as quantize → int8 GEMM → rescale + bias →
//! activation. The quantizing is a separate step, because the first
//! layer's codes double as the policy-cache key:
//!
//! * [`quantize_groups`] quantizes a stack of independently scaled
//!   groups lane-parallel, and [`quantize_reference`] is the same rule
//!   written as the plain libm loop.
//! * [`fused_layer`] runs one layer over prequantized codes, with the
//!   matrix product carried in wide lanes of `i32` partial sums (a
//!   `std::simd`-style abstraction over fixed `[i32; LANES]` bundles).
//!   Two bodies compute the product, chosen by layer shape: a blocked one
//!   that sums each output across lanes, and one that keeps the outputs
//!   in lanes for narrow fan-ins.
//!
//! # Bit-exactness contract
//!
//! Every downstream gate — golden traces, fleet/edge CSV diffs, the chaos
//! storm presets — depends on the fast path producing *byte-identical* outputs
//! to the scalar reference. The kernel earns that by construction:
//!
//! * `i32` addition is associative and commutative, so splitting a dot
//!   product across lanes and summing the lanes in any order yields the
//!   identical accumulator value. Products `|a·w| ≤ 127·127` cannot
//!   overflow `i32` for any layer width this crate supports.
//! * The float epilogue (`acc as f32 * out_scale + bias`, then
//!   `max(0.0)`) is the same IEEE operation sequence in both paths, so
//!   the requantized outputs match bit for bit.
//! * The fast quantizer takes the same IEEE operations, in the same
//!   order, as the reference one, and rounds without libm to the same
//!   codes.
//!
//! [`KernelMode::Scalar`] keeps the naive triple loop and the reference
//! quantizer alive as an executable specification; the unit tests below
//! hold every body, on every instantiation, equal to it, and
//! `tests/kernel_equivalence.rs` holds whole models equal on randomized
//! shapes, scales, groupings and adversarial rounding-boundary inputs.

mod groups;

pub use groups::quantize_groups;

use crate::simd::Tier;

/// Lane width of the wide `i32` accumulator bundles.
///
/// 16 × i32 fills one AVX-512 register, two AVX2 registers, or four SSE2
/// registers; LLVM maps the fixed-width lane loops below onto whichever
/// the target provides.
pub const LANES: usize = 16;

/// How many output neurons one register block computes per sweep over the
/// activation row. Each tile re-uses the loaded activation lanes, so the
/// activation row is read once per `OUT_TILE` outputs instead of once per
/// output.
pub const OUT_TILE: usize = 4;

/// Selects the numeric kernel for int8 inference.
///
/// Both modes produce bit-identical outputs (enforced by the differential
/// harness). `Scalar` is the executable reference specification: every
/// layer it quantizes goes through [`quantize_reference`] and every
/// product through the naive triple loop. It is also a CLI-selectable
/// mode (`experiments fleet --kernel scalar`) for the ci.sh byte-for-byte
/// cross-kernel diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The reference quantizer and the naive triple loop: one scalar
    /// `i32` accumulator per output, in input order.
    Scalar,
    /// [`quantize_groups`] and the wide-lane bodies: cache-blocked with
    /// `OUT_TILE` register blocking, or outputs in lanes, whichever fits
    /// the layer shape.
    #[default]
    Vectorized,
}

impl KernelMode {
    /// Parses a CLI-facing name (`scalar` | `vector`/`vectorized`).
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s {
            "scalar" => Some(KernelMode::Scalar),
            "vector" | "vectorized" => Some(KernelMode::Vectorized),
            _ => None,
        }
    }

    /// The CLI-facing name (`scalar` | `vector`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Vectorized => "vector",
        }
    }
}

/// The reference quantizer: quantizes `src` with one symmetric scale into
/// `out` and returns the scale.
///
/// The scale is the largest non-NaN magnitude over 127 (1.0 for an
/// all-zero or empty buffer), and each code is `v / scale` rounded half
/// away from zero by libm's `round`, clamped to `±127` (NaN maps to 0).
/// [`quantize_groups`] computes the same codes and scales without the
/// libm call; this loop is its specification, the weight quantizer of
/// compiled models, and the activation quantizer of
/// [`KernelMode::Scalar`].
///
/// # Panics
///
/// Panics if `out` and `src` differ in length.
///
/// # Examples
///
/// ```
/// use nn::kernel::quantize_reference;
///
/// let mut codes = [0i8; 3];
/// let scale = quantize_reference(&[2.0, -2.0, 1.0], &mut codes);
/// assert_eq!(scale, 2.0 / 127.0);
/// assert_eq!(codes, [127, -127, 64]); // 63.5 rounds away from zero
/// ```
pub fn quantize_reference(src: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(src.len(), out.len(), "quantize length mismatch");
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    for (q, &v) in out.iter_mut().zip(src) {
        *q = round_reference(v / scale);
    }
    scale
}

/// The code of one scaled value: the libm rounding rule that
/// [`round_clamped`] reproduces without libm.
fn round_reference(x: f32) -> i8 {
    x.round().clamp(-127.0, 127.0) as i8
}

/// The AVX2 instantiation of [`quantize_body`], the per-row quantizer of
/// groups that [`quantize_groups`] leaves out of its passes.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(src: &[f32], out: &mut [i8]) -> f32 {
    quantize_body(src, out)
}

/// Lanes of the max-abs scan.
const MAX_LANES: usize = 8;

/// The per-row fast quantizer: [`quantize_reference`]'s codes and scale.
///
/// The max-abs scan runs lane-parallel: `f32::max` ignores NaN, and a
/// maximum over non-NaN magnitudes (all `≥ +0.0`) does not depend on
/// the order it is taken in, so the lanes reduce to the sequential
/// fold's value. In the lanes, a NaN fails the `>` test and is skipped,
/// which is what `f32::max` does with a NaN operand.
#[inline(always)]
fn quantize_body(src: &[f32], out: &mut [i8]) -> f32 {
    let mut lanes = [0.0f32; MAX_LANES];
    let mut chunks = src.chunks_exact(MAX_LANES);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            let v = v.abs();
            if v > *m {
                *m = v;
            }
        }
    }
    let max_abs = chunks
        .remainder()
        .iter()
        .fold(lanes.into_iter().fold(0.0f32, f32::max), |m, &v| {
            m.max(v.abs())
        });
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let mut codes = out.chunks_exact_mut(MAX_LANES);
    for (q, v) in (&mut codes).zip(src.chunks_exact(MAX_LANES)) {
        let q: &mut [i8; MAX_LANES] = q.try_into().expect("lane chunk");
        let v: &[f32; MAX_LANES] = v.try_into().expect("lane chunk");
        for l in 0..MAX_LANES {
            q[l] = round_clamped(v[l] / scale);
        }
    }
    let rest = src.len() - src.len() % MAX_LANES;
    for (q, &v) in codes.into_remainder().iter_mut().zip(&src[rest..]) {
        *q = round_clamped(v / scale);
    }
    scale
}

/// 2²³: adding and then subtracting it rounds a float in `[0, 2²³)` to
/// the nearest integer (ties to even).
const TWO_POW_23: f32 = 8_388_608.0;
/// 1.5 · 2²³: adding it to an integer-valued float in `±2²²` leaves the
/// integer in the low mantissa bits.
const INT_MAGIC: f32 = 12_582_912.0;

/// [`round_reference`] without the libm call and without a saturating
/// float-to-int cast, so the lanes of the quantizer loop stay in vector
/// registers.
///
/// Clamping to integer bounds commutes with rounding, so the magnitude
/// `a` is clamped first. Round-to-nearest through `2²³` minus one where
/// it overshot gives the integer part `t` (`a ≥ 0`), `a - t` is the
/// exact fractional part, and adding its carry at `0.5` rounds half away
/// from zero exactly as `f32::round`. The integer-valued result is read
/// out of the mantissa of `r + 1.5 · 2²³`. NaN maps to 0 on both paths.
#[inline(always)]
fn round_clamped(x: f32) -> i8 {
    let c = x.clamp(-127.0, 127.0);
    let a = c.abs();
    let nearest = (a + TWO_POW_23) - TWO_POW_23;
    let t = if nearest > a { nearest - 1.0 } else { nearest };
    let r = if a - t >= 0.5 { t + 1.0 } else { t };
    let r = if c.is_nan() { 0.0 } else { r.copysign(c) };
    (r + INT_MAGIC).to_bits().wrapping_sub(INT_MAGIC.to_bits()) as i8
}

/// Which vectorized body computes a layer's products. Chosen from the
/// layer's shape when its weights are packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    /// Inner products over `n_in` in `LANES`-wide bundles, `OUT_TILE`
    /// outputs per sweep, a horizontal sum per output.
    Blocked,
    /// Outputs in lanes: each activation code is broadcast against one
    /// row of the input-major weights, so no horizontal sums and no
    /// scalar tail over `n_in`.
    Lanes,
}

impl Body {
    /// The faster body for a layer shape, as measured on the shapes the
    /// fleet and edge policies serve. A fan-in under `4 · LANES` leaves
    /// the blocked body dominated by its scalar tail and one horizontal
    /// sum per output; the lanes body pays for every padded output lane
    /// instead, so it needs at least half a block of real outputs.
    fn for_shape(n_in: usize, n_out: usize) -> Body {
        if n_in < 4 * LANES && n_out >= LANES / 2 {
            Body::Lanes
        } else {
            Body::Blocked
        }
    }
}

/// A layer's int8 weight codes with one symmetric scale, packed once in
/// the layouts the kernel bodies read.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedWeights {
    n_in: usize,
    n_out: usize,
    scale: f32,
    /// Output-major `n_out × n_in` codes (scalar reference, blocked body).
    codes: Vec<i8>,
    /// Input-major codes, `n_in` rows of `n_out` rounded up to a whole
    /// number of `LANES`, zero past `n_out` (lanes body).
    by_input: Vec<i8>,
    body: Body,
}

impl PackedWeights {
    /// Packs output-major `n_out × n_in` codes with scale `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not `n_out × n_in`.
    pub fn new(codes: Vec<i8>, scale: f32, n_in: usize, n_out: usize) -> Self {
        assert_eq!(codes.len(), n_out * n_in, "weight shape mismatch");
        let stride = n_out.next_multiple_of(LANES);
        let mut by_input = vec![0; n_in * stride];
        for o in 0..n_out {
            for k in 0..n_in {
                by_input[k * stride + o] = codes[o * n_in + k];
            }
        }
        PackedWeights {
            n_in,
            n_out,
            scale,
            codes,
            by_input,
            body: Body::for_shape(n_in, n_out),
        }
    }

    /// Output-major `n_out × n_in` codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }
}

/// The activation scale of each input row of a layer.
#[derive(Debug, Clone, Copy)]
pub enum RowScales<'a> {
    /// One scale for every row: the input was quantized as one group.
    Uniform(f32),
    /// One scale per row: the rows belong to separately quantized groups.
    PerRow(&'a [f32]),
}

/// One layer over quantized activations (`a_q`, `rows × n_in`, with the
/// activation scale of each row): multiply by the prequantized weights in
/// `i32`, rescale with `w_scale · act_scale`, add bias, and apply ReLU if
/// requested — one sweep into `out`, resized to `rows × n_out`, with no
/// intermediate allocations.
///
/// The activations arrive quantized so that a model's first layer can
/// quantize once, probe the policy cache with the int8 rows, and run the
/// product on a miss only. `mode` picks the naive triple loop or the
/// layer's vectorized body; both write the same bits.
///
/// # Panics
///
/// Panics if the buffer shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn fused_layer(
    mode: KernelMode,
    a_q: &[i8],
    act_scales: RowScales,
    rows: usize,
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    let body = mode.body(w);
    run_layer(
        body,
        Tier::detected(),
        a_q,
        act_scales,
        rows,
        w,
        bias,
        relu,
        out,
    );
}

impl KernelMode {
    /// The body that runs `w`'s products in this mode: none (the scalar
    /// reference) for [`KernelMode::Scalar`].
    fn body(self, w: &PackedWeights) -> Option<Body> {
        match self {
            KernelMode::Scalar => None,
            KernelMode::Vectorized => Some(w.body),
        }
    }
}

/// The layer dispatcher: checks shapes, sizes `out`, and runs the scalar
/// reference (`body` is `None`) or a vectorized body, instantiated for
/// `tier`.
#[allow(clippy::too_many_arguments)]
fn run_layer(
    body: Option<Body>,
    tier: Tier,
    a_q: &[i8],
    act_scales: RowScales,
    rows: usize,
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    assert_eq!(a_q.len(), rows * w.n_in, "activation shape mismatch");
    assert_eq!(bias.len(), w.n_out, "bias length mismatch");
    if let RowScales::PerRow(scales) = act_scales {
        assert_eq!(scales.len(), rows, "row scale count mismatch");
    }
    // Every body writes every output, so a reused buffer needs no
    // clearing.
    out.resize(rows * w.n_out, 0.0);
    let epilogue = Epilogue {
        w_scale: w.scale,
        act_scales,
        bias,
        relu,
    };
    #[cfg(target_arch = "x86_64")]
    if tier.has_avx512() {
        // SAFETY: an AVX-512 tier is made only on an AVX-512F host.
        unsafe { gemm_avx512(body, a_q, w, rows, &epilogue, out) };
        return;
    } else if tier.has_avx2() {
        // SAFETY: an AVX2 tier is made only on an AVX2 host.
        unsafe { gemm_avx2(body, a_q, w, rows, &epilogue, out) };
        return;
    }
    let _ = tier;
    gemm(body, a_q, w, rows, &epilogue, out);
}

/// The AVX2 instantiation of [`gemm`]. Integer lane ops and the IEEE
/// float epilogue are value-identical whatever the instruction encoding
/// (Rust emits no fast-math and no FMA contraction), so this picks
/// throughput only, never outputs.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(
    body: Option<Body>,
    a_q: &[i8],
    w: &PackedWeights,
    rows: usize,
    epi: &Epilogue,
    out: &mut [f32],
) {
    gemm(body, a_q, w, rows, epi, out)
}

/// The AVX-512F instantiation of [`gemm`]: a 16-lane bundle of `i32`
/// sums, and the lane-wide epilogue over it, each fill one register.
/// Value-identical to the others, as [`gemm_avx2`] is.
///
/// # Safety
///
/// The host must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(
    body: Option<Body>,
    a_q: &[i8],
    w: &PackedWeights,
    rows: usize,
    epi: &Epilogue,
    out: &mut [f32],
) {
    gemm(body, a_q, w, rows, epi, out)
}

/// The scalar reference (`body` is `None`) or a vectorized body.
#[inline(always)]
fn gemm(
    body: Option<Body>,
    a_q: &[i8],
    w: &PackedWeights,
    rows: usize,
    epi: &Epilogue,
    out: &mut [f32],
) {
    match body {
        None => gemm_scalar(a_q, w, rows, epi, out),
        Some(Body::Blocked) => gemm_blocked(a_q, w, rows, epi, out),
        Some(Body::Lanes) => gemm_lanes(a_q, w, rows, epi, out),
    }
}

/// Rescale + bias + optional ReLU — shared verbatim by every body so the
/// float operation sequence cannot drift between them.
struct Epilogue<'a> {
    w_scale: f32,
    act_scales: RowScales<'a>,
    bias: &'a [f32],
    relu: bool,
}

impl<'a> Epilogue<'a> {
    /// The epilogue of row `r`, rescaling by `w_scale · act_scale`.
    #[inline(always)]
    fn row(&self, r: usize) -> RowEpilogue {
        let act_scale = match self.act_scales {
            RowScales::Uniform(scale) => scale,
            RowScales::PerRow(scales) => scales[r],
        };
        RowEpilogue {
            out_scale: self.w_scale * act_scale,
            relu: self.relu,
        }
    }

    /// The biases of outputs `o..o + LANES`, zero past the last output:
    /// the padded lanes compute a value that is never stored.
    #[inline(always)]
    fn bias_block(&self, o: usize) -> [f32; LANES] {
        let mut block = [0.0; LANES];
        let live = LANES.min(self.bias.len() - o);
        block[..live].copy_from_slice(&self.bias[o..o + live]);
        block
    }
}

/// The epilogue of one row.
struct RowEpilogue {
    out_scale: f32,
    relu: bool,
}

impl RowEpilogue {
    /// `N` outputs at once: `acc as f32 * out_scale + bias`, then
    /// `max(0.0)` — per lane the same IEEE operations in the same order
    /// as every other output, so a whole bundle rescales in vector
    /// registers without changing a bit.
    #[inline(always)]
    fn apply<const N: usize>(&self, acc: &[i32; N], bias: &[f32; N]) -> [f32; N] {
        let mut v = [0.0f32; N];
        for l in 0..N {
            v[l] = acc[l] as f32 * self.out_scale + bias[l];
        }
        if self.relu {
            for x in &mut v {
                *x = x.max(0.0);
            }
        }
        v
    }

    /// One output, through the same lane loop.
    #[inline(always)]
    fn apply_one(&self, acc: i32, bias: f32) -> f32 {
        self.apply(&[acc], &[bias])[0]
    }
}

/// The scalar reference: one `i32` accumulator per output, products added
/// in input order — the executable specification the vectorized bodies
/// are diffed against.
fn gemm_scalar(a_q: &[i8], w: &PackedWeights, rows: usize, epi: &Epilogue, out: &mut [f32]) {
    let (n_in, n_out, bias) = (w.n_in, w.n_out, epi.bias);
    for r in 0..rows {
        let epi = epi.row(r);
        let a_row = &a_q[r * n_in..(r + 1) * n_in];
        for o in 0..n_out {
            let w_row = &w.codes[o * n_in..(o + 1) * n_in];
            let mut acc: i32 = 0;
            for (a, w) in a_row.iter().zip(w_row) {
                acc += *a as i32 * *w as i32;
            }
            out[r * n_out + o] = epi.apply_one(acc, bias[o]);
        }
    }
}

/// A wide bundle of `i32` partial sums — the `std::simd`-style lane
/// abstraction. Operations are written as fixed-count lane loops over the
/// array so LLVM lowers them to the target's integer SIMD; because `i32`
/// addition is associative, the per-lane partial sums reduce to the exact
/// accumulator the scalar loop computes.
#[derive(Debug, Clone, Copy)]
struct I32Lanes([i32; LANES]);

impl I32Lanes {
    const ZERO: I32Lanes = I32Lanes([0; LANES]);

    /// `self[l] += a[l] * w[l]`, per lane. The product is computed in
    /// `i16` — `|i8 · i8| ≤ 127² = 16129 < i16::MAX`, so the narrow
    /// multiply is exact — then sign-extended into the `i32` accumulator.
    /// Value-identical to a full `i32` multiply, but the `i16` form maps
    /// onto the x86 widening-multiply idioms (`vpmovsxbw` +
    /// `vpmaddwd`-class sequences) instead of forcing 32-bit multiplies.
    #[inline(always)]
    fn mul_add(&mut self, a: &[i8; LANES], w: &[i8; LANES]) {
        for l in 0..LANES {
            self.0[l] += (a[l] as i16 * w[l] as i16) as i32;
        }
    }

    /// `self[l] += a * w[l]`, per lane: one activation code broadcast
    /// against `LANES` outputs' weights.
    #[inline(always)]
    fn mul_add_broadcast(&mut self, a: i8, w: &[i8; LANES]) {
        for (acc, &w) in self.0.iter_mut().zip(w) {
            *acc += (a as i16 * w as i16) as i32;
        }
    }

    /// Horizontal reduction. Order-independent by associativity of `i32`
    /// addition, so the lane split never changes the result.
    #[inline(always)]
    fn sum(self) -> i32 {
        let mut s = 0i32;
        for l in 0..LANES {
            s += self.0[l];
        }
        s
    }
}

/// The cache-blocked wide-lane body.
///
/// Blocking scheme: the inner product over `n_in` runs in `LANES`-wide
/// `i32` bundles with a scalar loop for the `n_in % LANES` tail;
/// `OUT_TILE` output neurons share each loaded activation bundle
/// (register blocking), and rows are processed outermost so the weight
/// matrix streams through cache once per row block.
#[inline(always)]
fn gemm_blocked(a_q: &[i8], w: &PackedWeights, rows: usize, epi: &Epilogue, out: &mut [f32]) {
    let (n_in, n_out, w_q, bias) = (w.n_in, w.n_out, &w.codes[..], epi.bias);
    let body = n_in - n_in % LANES;
    for r in 0..rows {
        let epi = epi.row(r);
        let a_row = &a_q[r * n_in..(r + 1) * n_in];
        let out_row = &mut out[r * n_out..(r + 1) * n_out];
        let mut o = 0;
        while o + OUT_TILE <= n_out {
            let mut acc = [I32Lanes::ZERO; OUT_TILE];
            let w_rows: [&[i8]; OUT_TILE] = std::array::from_fn(|t| {
                let base = (o + t) * n_in;
                &w_q[base..base + n_in]
            });
            let mut k = 0;
            while k < body {
                let a: &[i8; LANES] = a_row[k..k + LANES].try_into().expect("lane slice");
                for t in 0..OUT_TILE {
                    let w: &[i8; LANES] = w_rows[t][k..k + LANES].try_into().expect("lane slice");
                    acc[t].mul_add(a, w);
                }
                k += LANES;
            }
            let mut sums = [0i32; OUT_TILE];
            for t in 0..OUT_TILE {
                sums[t] = acc[t].sum();
                // Scalar fallback on the odd tail.
                for k in body..n_in {
                    sums[t] += a_row[k] as i32 * w_rows[t][k] as i32;
                }
            }
            let tile_bias = bias[o..o + OUT_TILE].try_into().expect("tile bias");
            out_row[o..o + OUT_TILE].copy_from_slice(&epi.apply(&sums, tile_bias));
            o += OUT_TILE;
        }
        // Leftover outputs that do not fill a tile.
        while o < n_out {
            let w_row = &w_q[o * n_in..(o + 1) * n_in];
            let mut acc = I32Lanes::ZERO;
            let mut k = 0;
            while k < body {
                let a: &[i8; LANES] = a_row[k..k + LANES].try_into().expect("lane slice");
                let w: &[i8; LANES] = w_row[k..k + LANES].try_into().expect("lane slice");
                acc.mul_add(a, w);
                k += LANES;
            }
            let mut s = acc.sum();
            for k in body..n_in {
                s += a_row[k] as i32 * w_row[k] as i32;
            }
            out_row[o] = epi.apply_one(s, bias[o]);
            o += 1;
        }
    }
}

/// The outputs-in-lanes body: for each block of `LANES` outputs, every
/// activation code is broadcast against that block's slice of one
/// input-major weight row. Each lane accumulates exactly one output's
/// products, in input order, and the zero weights past `n_out` only
/// fill lanes that are never written out. The epilogue rescales the
/// whole bundle against the block's zero-padded biases and stores the
/// real outputs.
#[inline(always)]
fn gemm_lanes(a_q: &[i8], w: &PackedWeights, rows: usize, epi: &Epilogue, out: &mut [f32]) {
    let (n_in, n_out) = (w.n_in, w.n_out);
    let stride = n_out.next_multiple_of(LANES);
    for o in (0..n_out).step_by(LANES) {
        let live = LANES.min(n_out - o);
        let bias = epi.bias_block(o);
        for r in 0..rows {
            let a_row = &a_q[r * n_in..(r + 1) * n_in];
            let mut acc = I32Lanes::ZERO;
            for (k, &a) in a_row.iter().enumerate() {
                let base = k * stride + o;
                let w: &[i8; LANES] = w.by_input[base..base + LANES]
                    .try_into()
                    .expect("lane slice");
                acc.mul_add_broadcast(a, w);
            }
            let v = epi.row(r).apply(&acc.0, &bias);
            out[r * n_out + o..][..live].copy_from_slice(&v[..live]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Quantizes output-major float weights and packs them.
    fn pack(weights: &[f32], n_in: usize, n_out: usize) -> PackedWeights {
        let mut codes = vec![0; weights.len()];
        let scale = quantize_reference(weights, &mut codes);
        PackedWeights::new(codes, scale, n_in, n_out)
    }

    /// The specification of one layer over a stack of groups: each group
    /// quantized alone by the reference quantizer, then the scalar
    /// reference product.
    fn spec_layer(
        input: &[f32],
        group_rows: &[usize],
        w: &PackedWeights,
        bias: &[f32],
        relu: bool,
    ) -> Vec<f32> {
        let rows: usize = group_rows.iter().sum();
        let mut q = vec![0; input.len()];
        let mut scales = Vec::new();
        let mut start = 0;
        for &g in group_rows {
            let end = start + g * w.n_in;
            let scale = quantize_reference(&input[start..end], &mut q[start..end]);
            scales.extend(std::iter::repeat_n(scale, g));
            start = end;
        }
        let mut out = Vec::new();
        let scales = RowScales::PerRow(&scales);
        run_layer(
            None,
            Tier::detected(),
            &q,
            scales,
            rows,
            w,
            bias,
            relu,
            &mut out,
        );
        out
    }

    /// Drives the spec and the fast path (the lane-parallel quantizer,
    /// then the vectorized body) on one group and returns their outputs.
    fn run_both(
        input: &[f32],
        rows: usize,
        n_in: usize,
        w: &[f32],
        n_out: usize,
        bias: &[f32],
        relu: bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let w = pack(w, n_in, n_out);
        let spec = spec_layer(input, &[rows], &w, bias, relu);
        let (mut q, mut scales) = (vec![0; input.len()], Vec::new());
        quantize_groups(input, n_in, &[rows], &mut q, &mut scales);
        let mut fast = Vec::new();
        let scales = RowScales::PerRow(&scales);
        fused_layer(
            KernelMode::Vectorized,
            &q,
            scales,
            rows,
            &w,
            bias,
            relu,
            &mut fast,
        );
        (spec, fast)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The reference quantizer on one buffer, into a fresh code vector.
    fn quantize(src: &[f32]) -> (f32, Vec<i8>) {
        let mut codes = vec![0; src.len()];
        let scale = quantize_reference(src, &mut codes);
        (scale, codes)
    }

    #[test]
    fn reference_quantizer_semantics() {
        let (scale, q) = quantize(&[0.5, -1.0, 0.25, 2.0, -2.0, 1.0, 0.0]);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q[3], 127);
        assert_eq!(q[4], -127);
        assert_eq!(q[5], 64); // 1.0 / (2/127) = 63.5 rounds away from zero
        assert_eq!(q[6], 0);
        // Zero buffer: scale 1.0, all-zero codes, zero round trip.
        let (scale, q) = quantize(&[0.0, 0.0]);
        assert_eq!(scale, 1.0);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(quantize(&[]), (1.0, vec![]));
    }

    #[test]
    fn reference_round_trip_error_is_half_a_step() {
        let data: Vec<f32> = (-100..=100).map(|i| i as f32 * 0.013).collect();
        let (scale, codes) = quantize(&data);
        for (orig, &q) in data.iter().zip(&codes) {
            let rec = q as f32 * scale;
            assert!(
                (orig - rec).abs() <= scale * 0.50005 + 1e-6,
                "error beyond half-step: {orig} vs {rec}"
            );
        }
        // The scale covers the full range.
        assert!((scale - 100.0 * 0.013 / 127.0).abs() < 1e-6);
    }

    /// Values on and around every rounding boundary `k ± 0.5` of the code
    /// grid, both signs, plus signed zeros, subnormals, NaN and the
    /// infinities.
    fn boundary_values() -> Vec<f32> {
        let mut values = vec![
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
        ];
        for k in 0..=128 {
            for half in [k as f32 - 0.5, k as f32 + 0.5, k as f32] {
                for v in [half, half.next_up(), half.next_down()] {
                    values.push(v);
                    values.push(-v);
                }
            }
        }
        values
    }

    #[test]
    fn round_clamped_matches_libm_round_on_every_boundary() {
        for x in boundary_values() {
            let spec = round_reference(x);
            assert_eq!(round_clamped(x), spec, "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    /// The fast quantizer, through its per-row body and as one group of
    /// a lane-parallel pass, matches the reference quantizer bit for bit.
    #[test]
    fn fast_quantizer_matches_the_reference_on_adversarial_buffers() {
        let boundary = boundary_values();
        // Scale 1 puts the boundary values themselves on the code grid; the
        // 127 companions pin the scale at exactly 1.
        let mut grid: Vec<f32> = boundary
            .iter()
            .copied()
            .filter(|v| v.abs() <= 127.0)
            .collect();
        grid.push(127.0);
        let buffers: Vec<Vec<f32>> = vec![
            boundary.clone(),
            grid,
            vec![0.0; 13],
            vec![-0.0; 5],
            vec![],
            vec![f32::NAN; 3],
            vec![f32::NAN, 0.5, -2.0, f32::NAN, 1.0],
            vec![f32::from_bits(1), -f32::from_bits(3), 0.0],
            vec![f32::INFINITY, 1.0, -1.0],
            (0..37).map(|i| (i as f32 - 18.0) * 0.37).collect(),
        ];
        for src in buffers {
            let (scale, codes) = quantize(&src);
            let mut q = vec![0; src.len()];
            let got = quantize_body(&src, &mut q);
            assert_eq!(got.to_bits(), scale.to_bits(), "scale of {src:?}");
            assert_eq!(q, codes, "codes of {src:?}");
            let mut scales = Vec::new();
            quantize_groups(&src, src.len(), &[1], &mut q, &mut scales);
            assert_eq!(q, codes, "grouped codes of {src:?}");
            if !src.is_empty() {
                assert_eq!(scales[0].to_bits(), scale.to_bits(), "grouped scale");
            }
        }
    }

    #[test]
    fn lane_sum_is_order_independent() {
        let mut acc = I32Lanes::ZERO;
        let a: [i8; LANES] = std::array::from_fn(|i| (i as i8) - 7);
        let w: [i8; LANES] = std::array::from_fn(|i| 127 - (i as i8) * 3);
        acc.mul_add(&a, &w);
        let expect: i32 = (0..LANES).map(|i| a[i] as i32 * w[i] as i32).sum();
        assert_eq!(acc.sum(), expect);
    }

    #[test]
    fn odd_tail_shapes_match_bitwise() {
        // Widths straddling the lane boundary exercise the scalar tail and
        // the leftover-output path.
        for n_in in [1, 3, 15, 16, 17, 21, 31, 32, 33, 64] {
            for n_out in [1, 2, 3, 4, 5, 7, 8, 64] {
                let rows = 3;
                let input: Vec<f32> = (0..rows * n_in)
                    .map(|i| ((i * 37 + 11) % 23) as f32 / 23.0 - 0.5)
                    .collect();
                let w: Vec<f32> = (0..n_out * n_in)
                    .map(|i| ((i * 13 + 5) % 19) as f32 / 19.0 - 0.5)
                    .collect();
                let bias: Vec<f32> = (0..n_out).map(|i| i as f32 * 0.1 - 0.2).collect();
                let (scalar, vec) = run_both(&input, rows, n_in, &w, n_out, &bias, true);
                assert_eq!(
                    bits(&scalar),
                    bits(&vec),
                    "kernel mismatch at {n_in}x{n_out}"
                );
            }
        }
    }

    #[test]
    fn saturating_inputs_match_bitwise() {
        // Activations at the clamp boundary quantize to ±127; the kernels
        // must agree on the saturated products too.
        let n_in = 21;
        let n_out = 8;
        let input: Vec<f32> = (0..n_in)
            .map(|i| if i % 2 == 0 { 1e6 } else { -1e6 })
            .collect();
        let w: Vec<f32> = (0..n_out * n_in).map(|i| (i % 5) as f32 - 2.0).collect();
        let bias = vec![0.5; n_out];
        let (scalar, vec) = run_both(&input, 1, n_in, &w, n_out, &bias, false);
        assert_eq!(bits(&scalar), bits(&vec));
    }

    /// A deterministic xorshift stream of adversarial layer inputs.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Exact half-step rounding boundaries (`scale * (k - 127.5)`)
        /// interleaved with saturating magnitudes and plain values.
        fn adversarial(&mut self, scale: f32) -> f32 {
            let r = self.next();
            match r % 4 {
                0 => scale * ((r % 256) as f32 - 127.5),
                1 => scale * 127.0 * if r % 8 < 4 { 4.0 } else { -4.0 },
                2 => scale * ((r % 255) as f32 - 127.0),
                _ => ((r % 2_001) as f32 / 1_000.0 - 1.0) * scale * 64.0,
            }
        }
    }

    /// Every vectorized body, on every instantiation the host runs
    /// (baseline, AVX2, AVX-512F), agrees with the spec on every small
    /// layer shape the shape dispatch chooses between — each fan-in and
    /// fan-out up to one lane block past `LANES`, plus the fleet's 21- and
    /// 64-wide layers — at one row (a GEMV) and at sixteen rows in five
    /// separately quantized groups, each scaled on its own as if it ran
    /// alone.
    #[test]
    fn every_body_agrees_on_the_small_shape_sweep() {
        let mut s = Stream(0x5EED_0F5A_115B_A5E5);
        for n_in in (1..=17).chain([21, 64]) {
            for n_out in (1..=17).chain([64]) {
                let w_q: Vec<i8> = (0..n_out * n_in)
                    .map(|_| ((s.next() % 255) as i64 - 127) as i8)
                    .collect();
                let w = PackedWeights::new(w_q, 0.007_874_016, n_in, n_out);
                let bias: Vec<f32> = (0..n_out)
                    .map(|_| (s.next() % 2_001) as f32 / 1_000.0 - 1.0)
                    .collect();
                for groups in [&[1][..], &[1, 2, 3, 4, 6]] {
                    let rows: usize = groups.iter().sum();
                    let relu = rows == 1;
                    let input: Vec<f32> = (0..rows * n_in).map(|_| s.adversarial(0.0625)).collect();
                    let expect = bits(&spec_layer(&input, groups, &w, &bias, relu));
                    let (mut q, mut scales) = (vec![0; input.len()], Vec::new());
                    quantize_groups(&input, n_in, groups, &mut q, &mut scales);
                    let what = format!("n_in={n_in} n_out={n_out} rows={rows}");
                    check_every_body(&q, &scales, rows, &w, &bias, relu, &expect, &what);
                }
            }
        }
    }

    /// Runs both vectorized bodies on every tier the host supports and
    /// holds each output to `expect` bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn check_every_body(
        q: &[i8],
        scales: &[f32],
        rows: usize,
        w: &PackedWeights,
        bias: &[f32],
        relu: bool,
        expect: &[u32],
        what: &str,
    ) {
        let mut out = Vec::new();
        for body in [Body::Blocked, Body::Lanes] {
            for tier in Tier::supported() {
                let scales = RowScales::PerRow(scales);
                run_layer(Some(body), tier, q, scales, rows, w, bias, relu, &mut out);
                assert_eq!(bits(&out), expect, "{body:?} on {}: {what}", tier.name());
            }
        }
    }

    /// The lane-wide epilogue stores only the real outputs of a partly
    /// filled block or tile: fan-outs that are not a multiple of 16 (or
    /// of the blocked tile), ReLU on and off, biases with signed zeros
    /// and values that cancel the rescaled sum, against the scalar
    /// reference on every tier.
    #[test]
    fn epilogue_tails_match_the_reference() {
        let mut s = Stream(0x7A11_5EED_0BAD_CAFE);
        for n_in in [5, 12, 16, 21] {
            for n_out in [4, 17, 33] {
                let w_q: Vec<i8> = (0..n_out * n_in)
                    .map(|_| ((s.next() % 255) as i64 - 127) as i8)
                    .collect();
                let w = PackedWeights::new(w_q, 0.003_921_569, n_in, n_out);
                let bias: Vec<f32> = (0..n_out)
                    .map(|o| match o % 5 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => (s.next() % 2_001) as f32 / 1_000.0 - 1.0,
                    })
                    .collect();
                for rows in [1, 3, 9] {
                    let input: Vec<f32> = (0..rows * n_in).map(|_| s.adversarial(0.125)).collect();
                    let groups = vec![1; rows];
                    for relu in [false, true] {
                        let expect = bits(&spec_layer(&input, &groups, &w, &bias, relu));
                        let (mut q, mut scales) = (vec![0; input.len()], Vec::new());
                        quantize_groups(&input, n_in, &groups, &mut q, &mut scales);
                        let what = format!("n_in={n_in} n_out={n_out} rows={rows} relu={relu}");
                        check_every_body(&q, &scales, rows, &w, &bias, relu, &expect, &what);
                    }
                }
            }
        }
    }

    /// [`KernelMode::Scalar`] is the whole spec: on every shape it runs
    /// the scalar reference, never a vectorized body (which would write
    /// the same bits and leave the differential gates nothing to check).
    #[test]
    fn scalar_mode_runs_the_reference_on_every_shape() {
        for n_in in (1..=17).chain([21, 64, 65]) {
            for n_out in (1..=17).chain([64]) {
                let w = PackedWeights::new(vec![1; n_in * n_out], 1.0, n_in, n_out);
                assert_eq!(KernelMode::Scalar.body(&w), None, "{n_in}x{n_out}");
                assert_eq!(KernelMode::Vectorized.body(&w), Some(w.body));
            }
        }
    }

    proptest! {
        /// Fused requantize rounding across a scale grid. The fast path
        /// must match the two-step quantize → matmul →
        /// requantize reference on every lane, including saturation at the
        /// int8 extremes — inputs are drawn around exact half-step
        /// rounding boundaries of the quantization grid.
        #[test]
        fn fused_requantize_matches_reference(
            rows in 1usize..5,
            n_in in 1usize..40,
            n_out in 1usize..20,
            relu_bit in 0u8..2,
            scale_exp in -8i32..8,
            seed in 0u64..1_000_000,
        ) {
            let relu = relu_bit == 1;
            let scale = 2.0f32.powi(scale_exp);
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            // Half of the inputs sit exactly on .5 quantization-grid
            // boundaries (worst case for round-half-away-from-zero), the
            // rest are dense in the clamp range with outliers beyond it.
            let mut gen_val = |i: usize| -> f32 {
                let r = next();
                let mag = scale * ((r % 256) as f32 - 127.5);
                match i % 4 {
                    0 => mag,                       // exact half-step boundary
                    1 => scale * ((r % 255) as f32 - 127.0),
                    2 => mag * 4.0,                 // saturates past ±127
                    _ => f32::from_bits((r & 0x3f7f_ffff) | 0x3f00_0000) - 1.0,
                }
            };
            let input: Vec<f32> = (0..rows * n_in).map(&mut gen_val).collect();
            let w: Vec<f32> = (0..n_out * n_in).map(&mut gen_val).collect();
            let bias: Vec<f32> = (0..n_out).map(&mut gen_val).collect();
            let (scalar, vec) = run_both(&input, rows, n_in, &w, n_out, &bias, relu);
            prop_assert_eq!(bits(&scalar), bits(&vec));
        }
    }

    #[test]
    fn kernel_mode_parse_round_trips() {
        assert_eq!(KernelMode::parse("scalar"), Some(KernelMode::Scalar));
        assert_eq!(KernelMode::parse("vector"), Some(KernelMode::Vectorized));
        assert_eq!(
            KernelMode::parse("vectorized"),
            Some(KernelMode::Vectorized)
        );
        assert_eq!(KernelMode::parse("turbo"), None);
        assert_eq!(KernelMode::default(), KernelMode::Vectorized);
        assert_eq!(KernelMode::Scalar.name(), "scalar");
        assert_eq!(KernelMode::Vectorized.name(), "vector");
    }
}
