//! Differential harness for the int8 inference kernels: the scalar
//! reference loop, the vectorized fused kernel, and the policy-output
//! cache must produce bit-identical results on every shape, weight,
//! scale, and adversarial rounding-boundary input: the scalar loop is
//! the executable specification the vectorized body is diffed against.
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
use nn::kernel::{self, KernelMode};
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

/// The fused layer agrees with itself across kernels on randomized
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

        let run = |mode: KernelMode| {
            let mut q = Vec::new();
            let mut out = Vec::new();
            kernel::fused_layer(
                mode, &input, rows, n_in, &w_q, w_scale, n_out, &bias, relu, &mut q, &mut out,
            );
            (q, out)
        };
        let (q_s, out_s) = run(KernelMode::Scalar);
        let (q_v, out_v) = run(KernelMode::Vectorized);
        assert_eq!(q_s, q_v, "quantized codes diverged (case {case})");
        let bits_s: Vec<u32> = out_s.iter().map(|v| v.to_bits()).collect();
        let bits_v: Vec<u32> = out_v.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits_s, bits_v,
            "case {case}: rows={rows} n_in={n_in} n_out={n_out} relu={relu}"
        );
    }
}

/// Whole-model differential over randomized topologies: the reference
/// loop, the scalar fused pipeline, and the vectorized fused pipeline
/// agree bit-for-bit on every layer count, width (including odd tails),
/// and batch size.
#[test]
fn model_kernels_agree_on_random_topologies() {
    let mut s = Stream(0xFEED_FACE_CAFE_F00D);
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
        let reference = model.infer_reference(&batch);
        let scalar = model.infer_with(&batch, KernelMode::Scalar);
        let vectorized = model.infer_with(&batch, KernelMode::Vectorized);
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&reference),
            bits(&scalar),
            "case {case}: scalar fused pipeline drifted from the reference loop"
        );
        assert_eq!(
            bits(&reference),
            bits(&vectorized),
            "case {case}: vectorized kernel drifted ({inputs}x{layers}x{hidden}x{outputs})"
        );
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
        let mut q = Vec::new();
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
            let scale = model.quantize_input(group.as_slice(), &mut q);
            let cached = match cache.probe(&q, scale, rows) {
                Some(out) => out.to_vec(),
                None => {
                    let out = model
                        .infer_prequant(&q, scale, rows, mode, &mut scratch)
                        .to_vec();
                    cache.insert(&q, scale, rows, &out);
                    out
                }
            };
            let fresh = model.infer_grouped(&group, &[rows]);
            let cached_bits: Vec<u32> = cached.iter().map(|v| v.to_bits()).collect();
            let fresh_bits: Vec<u32> = fresh.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(cached_bits, fresh_bits, "step {step} ({mode:?})");
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
