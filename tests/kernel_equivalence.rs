//! Differential harness for the int8 inference path: the scalar spec
//! (the reference quantizer and the naive product loop), the fast path
//! (the lane-parallel quantizer and the vectorized bodies), and the
//! policy-output cache must produce bit-identical results on every shape,
//! weight, scale, grouping and adversarial rounding-boundary input: the
//! scalar spec is the executable specification the fast path is diffed
//! against. The per-body, per-instruction-tier sweep lives beside the
//! private layer dispatcher, in `nn::kernel`'s unit tests.
//!
//! Bit equality here is load-bearing, not cosmetic: the golden-trace
//! fixtures and the fleet/edge CSV diff gates hash policy outputs, so a
//! kernel that is "close enough" in floating point breaks every
//! downstream gate. The kernels are designed to make equality structural
//! (i32 accumulation is associative under any lane split; both paths
//! share one IEEE-754 epilogue), and this suite is the proof.

mod common;

use bench::csv::fleet_csv;
use bench::fleet::{self, FleetConfig};
use common::quick_model;
use nn::kernel::{self, KernelMode, PackedWeights, RowScales};
use nn::{Matrix, Mlp};
use npu::{InferScratch, NpuModel, PolicyCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic xorshift stream for adversarial input generation.
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

    /// A value engineered to stress the quantizer: exact half-step
    /// rounding boundaries (`scale * (k - 127.5)`) interleaved with
    /// saturating magnitudes and plain values.
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|v| v.to_bits()).collect()
}

/// The reference quantizer on one buffer, into a fresh code vector.
fn quantize_reference(src: &[f32]) -> (f32, Vec<i8>) {
    let mut codes = vec![0; src.len()];
    let scale = kernel::quantize_reference(src, &mut codes);
    (scale, codes)
}

/// One layer on the spec: each group of `input` quantized alone by the
/// reference quantizer, then the scalar product. Returns the codes and
/// the outputs.
fn spec_layer(
    input: &[f32],
    groups: &[usize],
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
) -> (Vec<i8>, Vec<f32>) {
    let (mut codes, mut scales) = (Vec::new(), Vec::new());
    let mut start = 0;
    for &g in groups {
        let (scale, q) = quantize_reference(&input[start..start + g * w.n_in()]);
        codes.extend(q);
        scales.extend(std::iter::repeat_n(scale, g));
        start += g * w.n_in();
    }
    let mut out = Vec::new();
    let rows = scales.len();
    let scales = RowScales::PerRow(&scales);
    kernel::fused_layer(
        KernelMode::Scalar,
        &codes,
        scales,
        rows,
        w,
        bias,
        relu,
        &mut out,
    );
    (codes, out)
}

/// One layer on the fast path: the groups quantized lane-parallel, then
/// the vectorized body. Returns the codes and the outputs.
fn fast_layer(
    input: &[f32],
    groups: &[usize],
    w: &PackedWeights,
    bias: &[f32],
    relu: bool,
) -> (Vec<i8>, Vec<f32>) {
    let (mut codes, mut scales) = (vec![0; input.len()], Vec::new());
    kernel::quantize_groups(input, w.n_in(), groups, &mut codes, &mut scales);
    let mut out = Vec::new();
    let rows = scales.len();
    let scales = RowScales::PerRow(&scales);
    kernel::fused_layer(
        KernelMode::Vectorized,
        &codes,
        scales,
        rows,
        w,
        bias,
        relu,
        &mut out,
    );
    (codes, out)
}

/// One layer agrees across the spec and the fast path on randomized
/// shapes — including every lane-tail class (`n_in % 16`) and
/// output-tile remainder (`n_out % 4`) — with rounding-boundary inputs
/// and power-of-two plus irregular scales.
#[test]
fn fused_layer_kernels_agree_on_random_shapes() {
    let mut s = Stream(0x0DDB_1A5E_5BAD_C0DE);
    for case in 0..200 {
        let rows = 1 + (s.next() % 5) as usize;
        let n_in = 1 + (s.next() % 70) as usize;
        let n_out = 1 + (s.next() % 70) as usize;
        let w_scale = [0.25f32, 0.031_25, 1.0, 0.007_874_016][(s.next() % 4) as usize];
        let act_scale = [0.5f32, 0.062_5, 0.011_718_75][(s.next() % 3) as usize];
        let relu = s.next().is_multiple_of(2);

        let input: Vec<f32> = (0..rows * n_in).map(|_| s.adversarial(act_scale)).collect();
        let w_q: Vec<i8> = (0..n_out * n_in)
            .map(|_| ((s.next() % 255) as i64 - 127) as i8)
            .collect();
        let bias: Vec<f32> = (0..n_out)
            .map(|_| (s.next() % 2_001) as f32 / 1_000.0 - 1.0)
            .collect();

        let w = PackedWeights::new(w_q, w_scale, n_in, n_out);
        let (q_s, out_s) = spec_layer(&input, &[rows], &w, &bias, relu);
        let (q_v, out_v) = fast_layer(&input, &[rows], &w, &bias, relu);
        assert_eq!(q_s, q_v, "quantized codes diverged (case {case})");
        assert_eq!(
            bits(&out_s),
            bits(&out_v),
            "case {case}: rows={rows} n_in={n_in} n_out={n_out} relu={relu}"
        );
    }
}

/// The fast path agrees with the spec on every small layer shape the
/// shape dispatch chooses a body for — each fan-in and fan-out up to one
/// lane block past `LANES`, plus the fleet's 21- and 64-wide layers — at
/// one row (a GEMV) and at sixteen rows in five separately quantized
/// groups, each scaled on its own as if it ran alone. (`nn::kernel`'s
/// unit test of the same name runs each body on each instantiation.)
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
                // Each group alone through the spec.
                let mut expect = Vec::new();
                let mut start = 0;
                for &g in groups {
                    let group = &input[start * n_in..(start + g) * n_in];
                    expect.extend(bits(&spec_layer(group, &[g], &w, &bias, relu).1));
                    start += g;
                }
                let (_, got) = fast_layer(&input, groups, &w, &bias, relu);
                assert_eq!(
                    bits(&got),
                    expect,
                    "grouped: n_in={n_in} n_out={n_out} rows={rows}"
                );
            }
        }
    }
}

/// The fast quantizer is bit-identical to the reference quantizer (the
/// libm `round` rule) on rounding boundaries `k ± 0.5` and their float
/// neighbours, signed zeros, subnormals, NaN, the infinities and
/// all-zero rows — each row alone, and all of them stacked as one-row
/// groups of a lane-parallel pass.
#[test]
fn quantizer_matches_the_reference_on_adversarial_rows() {
    let mut boundary = Vec::new();
    for k in 0..=127 {
        let half = k as f32 + 0.5;
        for v in [half, half.next_up(), half.next_down(), k as f32] {
            boundary.push(v);
            boundary.push(-v);
        }
    }
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x0040_0000),
        f32::MIN_POSITIVE,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut rows: Vec<Vec<f32>> = vec![
        // Scale exactly 1: the boundaries land on the code grid itself.
        boundary.iter().copied().chain([127.0]).collect(),
        specials.to_vec(),
        vec![0.0; 21],
        vec![-0.0; 12],
        vec![f32::NAN; 4],
        vec![f32::from_bits(7), -f32::from_bits(2), 0.0],
        vec![f32::INFINITY, 0.25, -3.0],
    ];
    // Mixed: each special value inside a row of boundary values.
    for (i, &v) in specials.iter().enumerate() {
        let mut row: Vec<f32> = boundary.iter().skip(i * 31).take(37).copied().collect();
        row.insert(i * 3, v);
        rows.push(row);
    }
    for row in &rows {
        let (scale, codes) = quantize_reference(row);
        let (mut q, mut scales) = (vec![0; row.len()], Vec::new());
        kernel::quantize_groups(row, row.len(), &[1], &mut q, &mut scales);
        assert_eq!(scales[0].to_bits(), scale.to_bits(), "scale of {row:?}");
        assert_eq!(q, codes, "codes of {row:?}");
    }
    // The 37-wide mixed rows, stacked: enough one-row groups for a pass.
    let mixed = &rows[rows.len() - specials.len()..];
    let stacked: Vec<f32> = mixed.iter().flatten().copied().collect();
    let (mut q, mut scales) = (vec![0; stacked.len()], Vec::new());
    kernel::quantize_groups(&stacked, 38, &vec![1; mixed.len()], &mut q, &mut scales);
    for (r, row) in mixed.iter().enumerate() {
        let (scale, codes) = quantize_reference(row);
        assert_eq!(
            scales[r].to_bits(),
            scale.to_bits(),
            "stacked scale of {row:?}"
        );
        assert_eq!(
            &q[r * 38..(r + 1) * 38],
            &codes[..],
            "stacked codes of {row:?}"
        );
    }
}

/// A random split of `rows` rows into groups: one-row groups (the edge's
/// requests), one whole-batch group, or mixed sizes with now and then an
/// empty group.
fn random_split(s: &mut Stream, rows: usize) -> Vec<usize> {
    match s.below(3) {
        0 => vec![1; rows],
        1 => vec![rows],
        _ => {
            let mut groups = Vec::new();
            let mut left = rows;
            while left > 0 {
                let g = if s.below(8) == 0 {
                    0
                } else {
                    1 + s.below(left)
                };
                groups.push(g);
                left -= g;
            }
            groups
        }
    }
}

/// The first-layer codes and per-row scales of `x`'s groups, as the
/// serving flush makes them.
fn quantize_groups(x: &[f32], width: usize, groups: &[usize]) -> (Vec<i8>, Vec<f32>) {
    let (mut q0, mut scales) = (vec![0; x.len()], Vec::new());
    kernel::quantize_groups(x, width, groups, &mut q0, &mut scales);
    (q0, scales)
}

/// Whole-model differential over randomized topologies and group splits:
/// on every layer count, width (including odd tails), batch size and
/// split into groups, the scalar spec and the fast path agree bit for
/// bit, every group's rows equal that group run alone, and a whole batch
/// run as one group equals the whole-batch convenience on both kernels.
#[test]
fn model_kernels_agree_on_random_topologies() {
    let mut s = Stream(0xFEED_FACE_CAFE_F00D);
    let mut scratch = InferScratch::new();
    for case in 0..24 {
        let inputs = 1 + (s.next() % 40) as usize;
        let layers = 1 + (s.next() % 4) as usize;
        let hidden = 1 + (s.next() % 70) as usize;
        let outputs = 1 + (s.next() % 20) as usize;
        let rows = 1 + (s.next() % 6) as usize;
        let mlp = Mlp::with_topology(
            inputs,
            layers,
            hidden,
            outputs,
            &mut StdRng::seed_from_u64(s.next()),
        );
        let model = NpuModel::compile(&mlp);
        let batch = Matrix::from_rows(
            (0..rows)
                .map(|_| (0..inputs).map(|_| s.adversarial(0.031_25)).collect())
                .collect(),
        );
        let shape = format!("case {case}: {inputs}x{layers}x{hidden}x{outputs}");
        let scalar = model.infer(&batch, KernelMode::Scalar);
        let vectorized = model.infer(&batch, KernelMode::Vectorized);
        assert_eq!(
            bits(scalar.as_slice()),
            bits(vectorized.as_slice()),
            "{shape}: the whole-batch fast path drifted from the spec"
        );
        let (q0, scales) = quantize_groups(batch.as_slice(), inputs, &[rows]);
        let one_group = model.infer_groups(&q0, &scales, &[rows], KernelMode::Scalar, &mut scratch);
        assert_eq!(
            bits(one_group),
            bits(scalar.as_slice()),
            "{shape}: one group diverged from the whole-batch call"
        );
        // Several splits of a taller batch: the edge's one-row groups, one
        // whole-batch group, and mixed sizes.
        let tall = 1 + s.below(24);
        let x: Vec<f32> = (0..tall * inputs)
            .map(|_| s.adversarial(0.031_25))
            .collect();
        for _ in 0..4 {
            let groups = random_split(&mut s, tall);
            let what = format!("{shape}, groups {groups:?}");
            let (q0, scales) = quantize_groups(&x, inputs, &groups);
            let spec = model
                .infer_groups(&q0, &scales, &groups, KernelMode::Scalar, &mut scratch)
                .to_vec();
            let fast =
                model.infer_groups(&q0, &scales, &groups, KernelMode::Vectorized, &mut scratch);
            assert_eq!(
                bits(&spec),
                bits(fast),
                "{what}: the fast path drifted from the spec"
            );
            let mut row = 0;
            for (g, &n) in groups.iter().enumerate() {
                let group = &x[row * inputs..(row + n) * inputs];
                let (q0, scales) = quantize_groups(group, inputs, &[n]);
                let alone =
                    model.infer_groups(&q0, &scales, &[n], KernelMode::Scalar, &mut scratch);
                assert_eq!(
                    bits(&spec[row * outputs..(row + n) * outputs]),
                    bits(alone),
                    "{what}: group {g} differs from running it alone"
                );
                row += n;
            }
        }
    }
}

/// The cached path replays bit-identical outputs through hits, misses,
/// FIFO evictions and re-insertions, on both kernels.
#[test]
fn cached_path_is_bit_identical_to_fresh_inference() {
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(11));
    let model = NpuModel::compile(&mlp);
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        let mut cache = PolicyCache::new(3);
        let mut scratch = InferScratch::new();
        let mut s = Stream(0xA11C_ED1D_EA75_0000 | mode as u64);
        for step in 0..60 {
            let which = (s.next() % 7) as usize;
            let rows = 1 + which % 3;
            let group = Matrix::from_rows(
                (0..rows)
                    .map(|r| {
                        (0..21)
                            .map(|c| ((which * 29 + r * 13 + c * 5) % 19) as f32 / 19.0 - 0.5)
                            .collect()
                    })
                    .collect(),
            );
            let (q, scales) = quantize_groups(group.as_slice(), 21, &[rows]);
            let cached = match cache.probe(&q, scales[0], rows) {
                Ok(out) => out.to_vec(),
                Err(key) => {
                    let out = model
                        .infer_groups(&q, &scales, &[rows], mode, &mut scratch)
                        .to_vec();
                    cache.insert(key, &q, scales[0], rows, &out);
                    out
                }
            };
            let fresh = model.infer(&group, KernelMode::Vectorized);
            assert_eq!(
                bits(&cached),
                bits(fresh.as_slice()),
                "step {step} ({mode:?})"
            );
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "stream must exercise cache hits");
        assert!(stats.evictions > 0, "stream must exercise eviction");
    }
}

/// End-to-end: a fleet run forced onto the scalar kernel produces the
/// exact CSV bytes of the vectorized default — and the policy cache on
/// or off changes counters only, never a single output byte outside the
/// cache rows.
#[test]
fn fleet_csv_is_kernel_and_cache_invariant() {
    let model = quick_model(0);
    let base = FleetConfig {
        boards: 4,
        epochs: 6,
        devices: 2,
        max_batch: 8,
        seed: 5,
        ..FleetConfig::default()
    };
    let run = |kernel: KernelMode, policy_cache: usize| {
        let config = FleetConfig {
            kernel,
            policy_cache,
            ..base
        };
        fleet_csv(&fleet::run_with_model(&model, &config))
    };
    let vectorized = run(KernelMode::Vectorized, base.policy_cache);
    let scalar = run(KernelMode::Scalar, base.policy_cache);
    assert_eq!(
        vectorized, scalar,
        "fleet CSV must not depend on the kernel"
    );
    let uncached = run(KernelMode::Vectorized, 0);
    let strip = |csv: &str| -> String {
        csv.lines()
            .filter(|l| !l.contains(",cache_hits,") && !l.contains(",cache_misses,"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&vectorized),
        strip(&uncached),
        "the cache may change hit counters only, never outputs"
    );
    assert!(
        vectorized.contains("summary,,cache_hits,"),
        "cached run must report its hit counter"
    );
}
