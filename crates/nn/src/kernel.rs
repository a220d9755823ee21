//! Cache-blocked, explicitly vectorized int8 inference kernel.
//!
//! This module is the numeric hot path of the whole fleet: one fused pass
//! per layer doing quantize → int8 GEMM → rescale + bias → activation,
//! with the matrix product carried in wide lanes of `i32` partial sums
//! (a `std::simd`-style abstraction over fixed `[i32; LANES]` bundles).
//! Two bodies compute the product, chosen by layer shape: a blocked one
//! that sums each output across lanes, and one that keeps the outputs
//! in lanes for narrow fan-ins.
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

mod groups;

pub use groups::quantize_groups;

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
    /// The wide-lane bodies: cache-blocked with `OUT_TILE` register
    /// blocking, or outputs in lanes, whichever fits the layer shape.
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
/// Bit-identical to `npu::QuantizedTensor::quantize` (same max-abs over
/// the non-NaN magnitudes, same `(v / scale).round().clamp(-127, 127)`
/// per element; an all-zero or empty buffer gets scale 1.0) — the npu
/// crate's grouped inference and policy-cache key derivation both rely
/// on this producing the exact same int8 row as the reference quantizer.
pub fn quantize_sym(src: &[f32], out: &mut Vec<i8>) -> f32 {
    // Every code is overwritten, so a reused buffer needs no clearing.
    out.resize(src.len(), 0);
    quantize_into(src, out)
}

/// [`quantize_sym`] into a slice of exactly `src.len()` codes.
///
/// # Panics
///
/// Panics if `out` and `src` differ in length.
pub fn quantize_into(src: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(src.len(), out.len(), "quantize length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the feature check above guarantees AVX2 is available.
        return unsafe { quantize_avx2(src, out) };
    }
    quantize_body(src, out)
}

/// The AVX2 instantiation of [`quantize_body`].
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

/// The quantizer body.
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

/// `x.round().clamp(-127.0, 127.0) as i8` without the libm call and
/// without a saturating float-to-int cast, so the lanes of the quantizer
/// loop stay in vector registers.
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
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
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

    /// The weight scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.n_out
    }
}

/// One fused layer pass: quantize `input`, multiply by the pre-quantized
/// weights in `i32`, rescale with `w_scale · act_scale`, add bias, and
/// apply ReLU if requested — one sweep, no intermediate allocations.
///
/// `input` is `rows × n_in` row-major. The quantized activations are left
/// in `q` (callers reuse them, e.g. as a policy-cache key for the first
/// layer) and the activations land in `out`, resized to `rows × n_out`.
///
/// # Panics
///
/// Panics if the buffer shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn fused_layer(
    mode: KernelMode,
    input: &[f32],
    rows: usize,
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    q: &mut Vec<i8>,
    out: &mut Vec<f32>,
) {
    assert_eq!(input.len(), rows * w.n_in, "input shape mismatch");
    let act_scale = quantize_sym(input, q);
    fused_layer_prequant(
        mode,
        q,
        RowScales::Uniform(act_scale),
        rows,
        w,
        bias,
        relu,
        out,
    );
}

/// [`fused_layer`] over a stack of independently quantized groups of
/// `group_rows[i]` rows each, in order. Each group's codes and scale are
/// exactly what [`fused_layer`] computes for it alone, and so are its
/// outputs; the product then runs once over all the rows. `scales`
/// receives each row's activation scale.
///
/// # Panics
///
/// Panics if the buffer shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn fused_layer_groups(
    mode: KernelMode,
    input: &[f32],
    group_rows: &[usize],
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    q: &mut Vec<i8>,
    scales: &mut Vec<f32>,
    out: &mut Vec<f32>,
) {
    let rows = group_rows.iter().sum();
    assert_eq!(input.len(), rows * w.n_in, "input shape mismatch");
    q.resize(input.len(), 0);
    quantize_groups(input, w.n_in, group_rows, q, scales);
    let act_scales = match (group_rows, scales.first()) {
        ([_], Some(&scale)) => RowScales::Uniform(scale),
        _ => RowScales::PerRow(scales),
    };
    fused_layer_prequant(mode, q, act_scales, rows, w, bias, relu, out);
}

/// The activation scale of each input row of a layer.
#[derive(Debug, Clone, Copy)]
pub enum RowScales<'a> {
    /// One scale for every row: the input was quantized as one group.
    Uniform(f32),
    /// One scale per row: the rows belong to separately quantized groups.
    PerRow(&'a [f32]),
}

/// The GEMM + epilogue half of [`fused_layer`], taking activations that
/// are already quantized (`a_q`, with the activation scale of each row).
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
    act_scales: RowScales,
    rows: usize,
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    let body = match mode {
        KernelMode::Scalar => None,
        KernelMode::Vectorized => Some(w.body),
    };
    run_layer(body, true, a_q, act_scales, rows, w, bias, relu, out);
}

/// [`fused_layer_prequant`] on a chosen vectorized body, on the baseline
/// instantiation or (`avx2`, when the host has it) the AVX2 one. Exposed
/// for the differential suite, which holds every body equal to the
/// scalar reference on every shape.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn fused_layer_on(
    body: Body,
    avx2: bool,
    a_q: &[i8],
    act_scales: RowScales,
    rows: usize,
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    run_layer(Some(body), avx2, a_q, act_scales, rows, w, bias, relu, out);
}

/// Checks shapes, sizes `out`, and runs the scalar reference (`body` is
/// `None`) or a vectorized body.
#[allow(clippy::too_many_arguments)]
fn run_layer(
    body: Option<Body>,
    avx2: bool,
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
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2;
    #[cfg(target_arch = "x86_64")]
    if avx2 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the feature check above guarantees AVX2 is available.
        unsafe { gemm_avx2(body, a_q, w, rows, &epilogue, out) };
        return;
    }
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
    fn row(&self, r: usize) -> RowEpilogue<'a> {
        let act_scale = match self.act_scales {
            RowScales::Uniform(scale) => scale,
            RowScales::PerRow(scales) => scales[r],
        };
        RowEpilogue {
            out_scale: self.w_scale * act_scale,
            bias: self.bias,
            relu: self.relu,
        }
    }
}

/// The epilogue of one row.
struct RowEpilogue<'a> {
    out_scale: f32,
    bias: &'a [f32],
    relu: bool,
}

impl RowEpilogue<'_> {
    #[inline(always)]
    fn apply(&self, acc: i32, o: usize) -> f32 {
        let v = acc as f32 * self.out_scale + self.bias[o];
        if self.relu {
            v.max(0.0)
        } else {
            v
        }
    }
}

/// The scalar reference: one `i32` accumulator per output, products added
/// in input order — the same loop `NpuModel`'s original `infer_layer`
/// runs, kept as the executable specification the vectorized bodies are
/// diffed against.
fn gemm_scalar(a_q: &[i8], w: &PackedWeights, rows: usize, epi: &Epilogue, out: &mut [f32]) {
    let (n_in, n_out) = (w.n_in, w.n_out);
    for r in 0..rows {
        let epi = epi.row(r);
        let a_row = &a_q[r * n_in..(r + 1) * n_in];
        for o in 0..n_out {
            let w_row = &w.codes[o * n_in..(o + 1) * n_in];
            let mut acc: i32 = 0;
            for (a, w) in a_row.iter().zip(w_row) {
                acc += *a as i32 * *w as i32;
            }
            out[r * n_out + o] = epi.apply(acc, o);
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
    let (n_in, n_out, w_q) = (w.n_in, w.n_out, &w.codes[..]);
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
            for t in 0..OUT_TILE {
                let mut s = acc[t].sum();
                // Scalar fallback on the odd tail.
                for k in body..n_in {
                    s += a_row[k] as i32 * w_rows[t][k] as i32;
                }
                out_row[o + t] = epi.apply(s, o + t);
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
            out_row[o] = epi.apply(s, o);
            o += 1;
        }
    }
}

/// The outputs-in-lanes body: for each block of `LANES` outputs, every
/// activation code is broadcast against that block's slice of one
/// input-major weight row. Each lane accumulates exactly one output's
/// products, in input order, and the zero weights past `n_out` only
/// fill lanes that are never written out.
#[inline(always)]
fn gemm_lanes(a_q: &[i8], w: &PackedWeights, rows: usize, epi: &Epilogue, out: &mut [f32]) {
    let (n_in, n_out) = (w.n_in, w.n_out);
    let stride = n_out.next_multiple_of(LANES);
    for r in 0..rows {
        let epi = epi.row(r);
        let a_row = &a_q[r * n_in..(r + 1) * n_in];
        let out_row = &mut out[r * n_out..(r + 1) * n_out];
        for o in (0..n_out).step_by(LANES) {
            let mut acc = I32Lanes::ZERO;
            for (k, &a) in a_row.iter().enumerate() {
                let base = k * stride + o;
                let w: &[i8; LANES] = w.by_input[base..base + LANES]
                    .try_into()
                    .expect("lane slice");
                acc.mul_add_broadcast(a, w);
            }
            for (l, v) in out_row[o..n_out.min(o + LANES)].iter_mut().enumerate() {
                *v = epi.apply(acc.0[l], o + l);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Quantizes output-major float weights and packs them.
    fn pack(weights: &[f32], n_in: usize, n_out: usize) -> PackedWeights {
        let mut codes = Vec::new();
        let scale = quantize_sym(weights, &mut codes);
        PackedWeights::new(codes, scale, n_in, n_out)
    }

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
        let w = pack(w, n_in, n_out);
        let mut q = Vec::new();
        let mut scalar = Vec::new();
        let mut vec = Vec::new();
        fused_layer(
            KernelMode::Scalar,
            input,
            rows,
            &w,
            bias,
            relu,
            &mut q,
            &mut scalar,
        );
        fused_layer(
            KernelMode::Vectorized,
            input,
            rows,
            &w,
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

    /// The quantizer's specification: the per-element rule of
    /// `npu::QuantizedTensor::quantize`, with the libm rounding call.
    fn quantize_spec(src: &[f32]) -> (f32, Vec<i8>) {
        let max_abs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let codes = src
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        (scale, codes)
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
            let spec = x.round().clamp(-127.0, 127.0) as i8;
            assert_eq!(round_clamped(x), spec, "x = {x:e} ({:#010x})", x.to_bits());
        }
    }

    #[test]
    fn quantize_matches_spec_on_adversarial_buffers() {
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
            let (scale, codes) = quantize_spec(&src);
            let mut q = Vec::new();
            let got = quantize_sym(&src, &mut q);
            assert_eq!(got.to_bits(), scale.to_bits(), "scale of {src:?}");
            assert_eq!(q, codes, "codes of {src:?}");
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
            let w = pack(&w, n_in, n_out);
            for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
                let mut q = Vec::new();
                let mut fused = Vec::new();
                fused_layer(mode, &input, rows, &w, &bias, true, &mut q, &mut fused);
                let mut q2 = Vec::new();
                let act_scale = quantize_sym(&input, &mut q2);
                prop_assert_eq!(&q, &q2);
                let mut split = Vec::new();
                let act_scales = RowScales::Uniform(act_scale);
                fused_layer_prequant(
                    mode, &q2, act_scales, rows, &w, &bias, true, &mut split,
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
