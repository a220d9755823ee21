//! Runtime instruction-tier dispatch for the f32 training kernels.
//!
//! Each kernel is one `#[inline(always)]` body, generic over the number of
//! output rows one pass computes. [`Tier::run`] instantiates it inside a
//! `#[target_feature]` function for the best tier the host supports
//! (AVX-512F, then AVX2, then the baseline target), picked from CPU
//! feature detection alone: there is no option, flag or environment
//! variable. Only code inlined into an instance is compiled for its
//! tier, so a body and everything it calls must be `#[inline(always)]`.
//!
//! The tier picks the instruction encoding and the register-block shape,
//! never the arithmetic: lanes and rows run across independent outputs,
//! never across one sum, and Rust forms no FMA contraction (AVX-512F
//! implies the FMA feature, but no multiply and add is ever fused unless
//! asked for by name, which the kernels never do).

/// The instruction tier the f32 kernels run on.
///
/// A tier above the baseline is made only after the host reported its
/// features, which is what makes [`Tier::run`] sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tier(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Baseline,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Output rows per pass on the AVX-512 tier: four rows share each load of
/// the right operand and keep four times the independent accumulator
/// chains, in 16 of the 32 vector registers at the widest column block.
const AVX512_ROWS: usize = 4;

/// A kernel body generic over its row-block height, run by [`Tier::run`].
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Output;
    /// Runs the body with `ROWS` output rows per pass.
    fn run<const ROWS: usize>(self) -> Self::Output;
}

/// An element-wise loop as a [`Kernel`]: it has no row blocks, so only
/// the instruction encoding depends on the tier.
pub(crate) struct Elementwise<F>(pub(crate) F);

impl<R, F: FnOnce() -> R> Kernel for Elementwise<F> {
    type Output = R;

    #[inline(always)]
    fn run<const ROWS: usize>(self) -> R {
        (self.0)()
    }
}

impl Tier {
    /// The best tier this host supports, detected on the first call: the
    /// int8 kernel asks on every layer, so later calls read one static
    /// instead of repeating the feature checks.
    pub(crate) fn detected() -> Tier {
        static DETECTED: std::sync::OnceLock<Tier> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if has_avx512() {
                    return Tier(Level::Avx512);
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    return Tier(Level::Avx2);
                }
            }
            Tier(Level::Baseline)
        })
    }

    /// Every tier this host can run, lowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Tier> {
        let mut tiers = vec![Tier(Level::Baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(Tier(Level::Avx2));
            }
            if has_avx512() {
                tiers.push(Tier(Level::Avx512));
            }
        }
        tiers
    }

    /// Whether the tier runs AVX2 code (the AVX2 and AVX-512 tiers).
    pub(crate) fn has_avx2(self) -> bool {
        self.0 != Level::Baseline
    }

    /// Whether the tier runs AVX-512F code.
    pub(crate) fn has_avx512(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return self.0 == Level::Avx512;
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// The tier's name: `avx512f`, `avx2` or `baseline`.
    pub(crate) fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512f",
        }
    }

    /// Runs `kernel` compiled for this tier, with the tier's row block.
    #[inline(always)]
    pub(crate) fn run<K: Kernel>(self, kernel: K) -> K::Output {
        match self.0 {
            Level::Baseline => kernel.run::<1>(),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => {
                /// # Safety
                ///
                /// The host must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2<K: Kernel>(kernel: K) -> K::Output {
                    kernel.run::<1>()
                }
                // SAFETY: an AVX2 `Tier` is made only after
                // `is_x86_feature_detected!("avx2")` held.
                unsafe { avx2(kernel) }
            }
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => {
                /// # Safety
                ///
                /// The host must support AVX-512F and the features it
                /// implies (AVX2, FMA, F16C).
                #[target_feature(enable = "avx512f")]
                unsafe fn avx512<K: Kernel>(kernel: K) -> K::Output {
                    kernel.run::<AVX512_ROWS>()
                }
                // SAFETY: an AVX-512 `Tier` is made only after
                // `has_avx512` saw every feature `avx512` enables.
                unsafe { avx512(kernel) }
            }
        }
    }

    /// Writes `srcᵀ` into `out` for a row-major `rows × cols` `src`. Above
    /// the baseline, full 8 × 8 tiles go through AVX registers (eight
    /// loads, 24 shuffles, eight stores); the edges, and the baseline
    /// tier, use the strided loop. Only data moves, so every tier writes
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `out` is shorter than `rows × cols`.
    pub(crate) fn transpose(self, src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
        let (src, out) = (&src[..rows * cols], &mut out[..rows * cols]);
        let tiled = match self.0 {
            Level::Baseline => (0, 0),
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 | Level::Avx512 => {
                // SAFETY: an AVX2 or AVX-512 `Tier` is made only after
                // `is_x86_feature_detected!("avx2")` held.
                unsafe { transpose_tiles_avx2(src, rows, cols, out) }
            }
        };
        for r in 0..rows {
            let first = if r < tiled.0 { tiled.1 } else { 0 };
            for c in first..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
    }
}

/// The full 8 × 8 tiles of [`Tier::transpose`]; returns the rows and
/// columns they cover (`rows` and `cols` rounded down to multiples of 8).
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose_tiles_avx2(
    src: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) -> (usize, usize) {
    use std::arch::x86_64::*;
    let (full_rows, full_cols) = (rows - rows % 8, cols - cols % 8);
    for r0 in (0..full_rows).step_by(8) {
        for c0 in (0..full_cols).step_by(8) {
            let row: [__m256; 8] = std::array::from_fn(|i| {
                let lanes = &src[(r0 + i) * cols + c0..][..8];
                // SAFETY: `lanes` holds the eight floats the load reads.
                unsafe { _mm256_loadu_ps(lanes.as_ptr()) }
            });
            let pair = |lo: usize| {
                let (a, b) = (row[lo], row[lo + 1]);
                (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b))
            };
            let (t0, t1) = pair(0);
            let (t2, t3) = pair(2);
            let (t4, t5) = pair(4);
            let (t6, t7) = pair(6);
            let u = [
                _mm256_shuffle_ps::<0x44>(t0, t2),
                _mm256_shuffle_ps::<0xEE>(t0, t2),
                _mm256_shuffle_ps::<0x44>(t1, t3),
                _mm256_shuffle_ps::<0xEE>(t1, t3),
                _mm256_shuffle_ps::<0x44>(t4, t6),
                _mm256_shuffle_ps::<0xEE>(t4, t6),
                _mm256_shuffle_ps::<0x44>(t5, t7),
                _mm256_shuffle_ps::<0xEE>(t5, t7),
            ];
            for i in 0..4 {
                let low = _mm256_permute2f128_ps::<0x20>(u[i], u[i + 4]);
                let high = _mm256_permute2f128_ps::<0x31>(u[i], u[i + 4]);
                for (c, column) in [(i, low), (i + 4, high)] {
                    let lanes = &mut out[(c0 + c) * rows + r0..][..8];
                    // SAFETY: `lanes` holds the eight floats the store
                    // writes.
                    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), column) };
                }
            }
        }
    }
    (full_rows, full_cols)
}

/// Whether the host supports AVX-512F and every feature it implies.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
        && std::arch::is_x86_feature_detected!("f16c")
}

/// The f32 kernels' detected instruction tier: `avx512f`, `avx2` or
/// `baseline`, from CPU feature detection. Benchmarks record it beside
/// their timings.
///
/// # Examples
///
/// ```
/// assert!(["avx512f", "avx2", "baseline"].contains(&nn::simd_tier()));
/// ```
pub fn simd_tier() -> &'static str {
    Tier::detected().name()
}
