//! Property-based tests of quantization and the device cost model.

use hmc_types::SimDuration;
use nn::{Matrix, Mlp};
use npu::{DedicatedNpu, NpuDevice, NpuModel, QuantizedTensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Symmetric int8 quantization error is bounded by half a step.
    #[test]
    fn quantization_error_bounded(values in proptest::collection::vec(-100.0f32..100.0, 1..256)) {
        let q = QuantizedTensor::quantize(&values);
        let back = q.dequantize();
        for (orig, rec) in values.iter().zip(&back) {
            // Half a quantization step, plus a few ULP of slack: the f32
            // division can land exactly on the rounding boundary.
            prop_assert!((orig - rec).abs() <= q.scale() * 0.50005 + 1e-6);
        }
    }

    /// Device latency is monotone in batch size and bounded by driver +
    /// linear terms.
    #[test]
    fn npu_latency_monotone(b1 in 1usize..64, b2 in 1usize..64) {
        let dev = NpuDevice::kirin970();
        let mlp = Mlp::with_topology(21, 2, 32, 8, &mut StdRng::seed_from_u64(0));
        let model = NpuModel::compile(&mlp);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(dev.inference_latency(&model, lo) <= dev.inference_latency(&model, hi));
        prop_assert!(dev.host_cpu_time(lo) <= dev.host_cpu_time(hi));
    }

    /// Quantized inference tracks float inference for random networks and
    /// inputs, in relative terms.
    #[test]
    fn int8_inference_tracks_float(seed in 0u64..200, sample in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::with_topology(8, 2, 16, 4, &mut rng);
        let compiled = NpuModel::compile(&mlp);
        let mut input_rng = StdRng::seed_from_u64(sample);
        let row: Vec<f32> = (0..8)
            .map(|_| rand::RngExt::random_range(&mut input_rng, -1.0f32..1.0))
            .collect();
        let exact = mlp.forward(&row);
        let approx = compiled.infer(&Matrix::from_rows(vec![row]));
        let mag = exact.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(0.5);
        for (j, &e) in exact.iter().enumerate() {
            prop_assert!(
                (e - approx.get(0, j)).abs() < 0.1 * mag,
                "output {j}: {e} vs {}", approx.get(0, j)
            );
        }
    }

    /// A job resolves exactly at the device latency when the deadline
    /// allows it, and exactly at the deadline when it does not.
    #[test]
    fn job_resolves_at_its_latency_or_the_deadline(batch in 1usize..16, deadline_us in 1u64..10_000) {
        let mlp = Mlp::with_topology(21, 2, 16, 8, &mut StdRng::seed_from_u64(1));
        let mut npu = DedicatedNpu::load(NpuDevice::kirin970(), &mlp);
        let input = Matrix::from_rows(vec![vec![0.5; 21]; batch]);
        let latency = NpuDevice::kirin970().inference_latency(&NpuModel::compile(&mlp), batch);
        let deadline = SimDuration::from_micros(deadline_us);
        let job = npu.run(&input, deadline);
        prop_assert!(job.latency > SimDuration::ZERO);
        if latency <= deadline {
            prop_assert_eq!(job.latency, latency);
            prop_assert!(job.output.is_ok());
        } else {
            prop_assert_eq!(job.latency, deadline);
            prop_assert_eq!(job.output, Err(npu::NpuError::Timeout));
        }
    }
}
