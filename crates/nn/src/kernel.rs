//! Cache-blocked, explicitly vectorized int8 inference kernel.
//!
//! This module is the numeric hot path of the whole fleet: one fused pass
//! per layer doing quantize → int8 GEMM → rescale + bias → activation,
//! with the matrix product carried in wide lanes of `i32` partial sums
//! (a `std::simd`-style abstraction over fixed `[i32; LANES]` bundles that
//! falls back to scalar accumulation on odd tails).
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
//!
//! [`KernelMode::Scalar`] keeps the naive triple loop alive as an
//! executable specification; `tests/kernel_equivalence.rs` and the
//! proptests below hold the two paths equal on randomized shapes, scales,
//! and adversarial rounding-boundary inputs.

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
/// harness); `Scalar` exists as the executable reference specification and
/// as a CLI-selectable mode (`experiments fleet --kernel scalar`) for the
/// ci.sh byte-for-byte cross-kernel diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Naive triple-loop reference: one scalar `i32` accumulator per
    /// output, in input order.
    Scalar,
    /// Cache-blocked wide-lane kernel with `OUT_TILE` register blocking
    /// and scalar tail handling.
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

/// Quantizes a float buffer with the symmetric per-tensor scheme into a
/// reusable buffer, returning the scale.
///
/// Bit-identical to `npu::QuantizedTensor::quantize` (same max-abs scan,
/// same `(v / scale).round().clamp(-127, 127)` per element; an all-zero
/// or empty buffer gets scale 1.0) — the npu crate's grouped inference and
/// policy-cache key derivation both rely on this producing the exact same
/// int8 row as the reference quantizer.
pub fn quantize_sym(src: &[f32], out: &mut Vec<i8>) -> f32 {
    let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    out.clear();
    out.extend(
        src.iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
    );
    scale
}

/// One fused layer pass: quantize `input`, multiply by the pre-quantized
/// weights in `i32`, rescale with `w_scale · act_scale`, add bias, and
/// apply ReLU if requested — one sweep, no intermediate allocations.
///
/// `input` is `rows × n_in` row-major; `w_q` is `n_out × n_in` row-major.
/// The quantized activations are left in `q` (callers reuse them, e.g. as
/// a policy-cache key for the first layer) and the activations land in
/// `out`, resized to `rows × n_out`.
///
/// # Panics
///
/// Panics if the buffer shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn fused_layer(
    mode: KernelMode,
    input: &[f32],
    rows: usize,
    n_in: usize,
    w_q: &[i8],
    w_scale: f32,
    n_out: usize,
    bias: &[f32],
    relu: bool,
    q: &mut Vec<i8>,
    out: &mut Vec<f32>,
) {
    assert_eq!(input.len(), rows * n_in, "input shape mismatch");
    let act_scale = quantize_sym(input, q);
    fused_layer_prequant(
        mode, q, act_scale, rows, n_in, w_q, w_scale, n_out, bias, relu, out,
    );
}

/// The GEMM + epilogue half of [`fused_layer`], taking activations that
/// are already quantized (`a_q` with scale `act_scale`).
///
/// Split out so the first layer of a cached inference can quantize once,
/// probe the policy cache with the int8 row, and only run the matrix
/// product on a miss.
///
/// # Panics
///
/// Panics if the buffer shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn fused_layer_prequant(
    mode: KernelMode,
    a_q: &[i8],
    act_scale: f32,
    rows: usize,
    n_in: usize,
    w_q: &[i8],
    w_scale: f32,
    n_out: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    assert_eq!(a_q.len(), rows * n_in, "activation shape mismatch");
    assert_eq!(w_q.len(), n_out * n_in, "weight shape mismatch");
    assert_eq!(bias.len(), n_out, "bias length mismatch");
    out.clear();
    out.resize(rows * n_out, 0.0);
    let out_scale = w_scale * act_scale;
    match mode {
        KernelMode::Scalar => gemm_scalar(a_q, w_q, rows, n_in, n_out, out_scale, bias, relu, out),
        KernelMode::Vectorized => gemm_vec(a_q, w_q, rows, n_in, n_out, out_scale, bias, relu, out),
    }
}

/// The scalar reference: one `i32` accumulator per output, products added
/// in input order — the same loop `NpuModel`'s original `infer_layer`
/// runs, kept as the executable specification the vectorized kernel is
/// diffed against.
#[allow(clippy::too_many_arguments)]
fn gemm_scalar(
    a_q: &[i8],
    w_q: &[i8],
    rows: usize,
    n_in: usize,
    n_out: usize,
    out_scale: f32,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    for r in 0..rows {
        let a_row = &a_q[r * n_in..(r + 1) * n_in];
        for o in 0..n_out {
            let w_row = &w_q[o * n_in..(o + 1) * n_in];
            let mut acc: i32 = 0;
            for (a, w) in a_row.iter().zip(w_row) {
                acc += *a as i32 * *w as i32;
            }
            out[r * n_out + o] = epilogue(acc, out_scale, bias[o], relu);
        }
    }
}

/// Rescale + bias + optional ReLU — shared verbatim by both kernels so the
/// float operation sequence cannot drift between them.
#[inline(always)]
fn epilogue(acc: i32, out_scale: f32, bias: f32, relu: bool) -> f32 {
    let v = acc as f32 * out_scale + bias;
    if relu {
        v.max(0.0)
    } else {
        v
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

/// The cache-blocked wide-lane kernel body.
///
/// Blocking scheme: the inner product over `n_in` runs in `LANES`-wide
/// `i32` bundles with a scalar loop for the `n_in % LANES` tail;
/// `OUT_TILE` output neurons share each loaded activation bundle
/// (register blocking), and rows are processed outermost so the weight
/// matrix streams through cache once per row block. Marked
/// `#[inline(always)]` so the x86-64 dispatcher below can instantiate the
/// same body under wider target features without duplicating the source.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_vec_body(
    a_q: &[i8],
    w_q: &[i8],
    rows: usize,
    n_in: usize,
    n_out: usize,
    out_scale: f32,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    let body = n_in - n_in % LANES;
    for r in 0..rows {
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
            for t in 0..OUT_TILE {
                let mut s = acc[t].sum();
                // Scalar fallback on the odd tail.
                for k in body..n_in {
                    s += a_row[k] as i32 * w_rows[t][k] as i32;
                }
                out_row[o + t] = epilogue(s, out_scale, bias[o + t], relu);
            }
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
            out_row[o] = epilogue(s, out_scale, bias[o], relu);
            o += 1;
        }
    }
}

/// AVX2 instantiation of the identical kernel body. Integer lane ops and
/// the IEEE float epilogue are value-identical regardless of the
/// instruction encoding (Rust emits no fast-math and no FMA contraction),
/// so this specialization cannot change outputs — only throughput.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_vec_avx2(
    a_q: &[i8],
    w_q: &[i8],
    rows: usize,
    n_in: usize,
    n_out: usize,
    out_scale: f32,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    gemm_vec_body(a_q, w_q, rows, n_in, n_out, out_scale, bias, relu, out)
}

#[allow(clippy::too_many_arguments)]
fn gemm_vec(
    a_q: &[i8],
    w_q: &[i8],
    rows: usize,
    n_in: usize,
    n_out: usize,
    out_scale: f32,
    bias: &[f32],
    relu: bool,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature check above guarantees AVX2 is available.
            unsafe {
                return gemm_vec_avx2(a_q, w_q, rows, n_in, n_out, out_scale, bias, relu, out);
            }
        }
    }
    gemm_vec_body(a_q, w_q, rows, n_in, n_out, out_scale, bias, relu, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drives both kernels on the same problem and returns their outputs.
    fn run_both(
        input: &[f32],
        rows: usize,
        n_in: usize,
        w: &[f32],
        n_out: usize,
        bias: &[f32],
        relu: bool,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut w_q = Vec::new();
        let w_scale = quantize_sym(w, &mut w_q);
        let mut q = Vec::new();
        let mut scalar = Vec::new();
        let mut vec = Vec::new();
        fused_layer(
            KernelMode::Scalar,
            input,
            rows,
            n_in,
            &w_q,
            w_scale,
            n_out,
            bias,
            relu,
            &mut q,
            &mut scalar,
        );
        fused_layer(
            KernelMode::Vectorized,
            input,
            rows,
            n_in,
            &w_q,
            w_scale,
            n_out,
            bias,
            relu,
            &mut q,
            &mut vec,
        );
        (scalar, vec)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn quantize_sym_matches_reference_semantics() {
        let data = [0.5f32, -1.0, 0.25, 2.0, -2.0, 1.0, 0.0];
        let mut q = Vec::new();
        let scale = quantize_sym(&data, &mut q);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
        assert_eq!(q[3], 127);
        assert_eq!(q[4], -127);
        assert_eq!(q[5], 64); // 1.0 / (2/127) = 63.5 rounds away from zero
                              // Zero buffer: scale 1.0, all-zero codes.
        let scale = quantize_sym(&[0.0, 0.0], &mut q);
        assert_eq!(scale, 1.0);
        assert_eq!(q, vec![0, 0]);
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

    proptest! {
        /// Satellite: fused requantize rounding across a scale grid. The
        /// fused path must match the two-step quantize → matmul →
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

        /// The prequant split (quantize once, GEMM later) is bit-identical
        /// to the fused entry point in both modes.
        #[test]
        fn prequant_split_matches_fused(
            rows in 1usize..4,
            n_in in 1usize..48,
            n_out in 1usize..12,
            seed in 0u64..1_000_000,
        ) {
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut gen_val = || (next() % 2000) as f32 / 1000.0 - 1.0;
            let input: Vec<f32> = (0..rows * n_in).map(|_| gen_val()).collect();
            let w: Vec<f32> = (0..n_out * n_in).map(|_| gen_val()).collect();
            let bias: Vec<f32> = (0..n_out).map(|_| gen_val()).collect();
            let mut w_q = Vec::new();
            let w_scale = quantize_sym(&w, &mut w_q);
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let mut q = Vec::new();
                let mut fused = Vec::new();
                fused_layer(
                    mode, &input, rows, n_in, &w_q, w_scale, n_out, &bias, true,
                    &mut q, &mut fused,
                );
                let mut q2 = Vec::new();
                let act_scale = quantize_sym(&input, &mut q2);
                prop_assert_eq!(&q, &q2);
                let mut split = Vec::new();
                fused_layer_prequant(
                    mode, &q2, act_scale, rows, n_in, &w_q, w_scale, n_out, &bias, true,
                    &mut split,
                );
                prop_assert_eq!(bits(&fused), bits(&split));
            }
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
