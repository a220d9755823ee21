//! Wall-clock timing harness behind `BENCH_fleet.json`.
//!
//! Measures (with `std::time::Instant`, medians over repeated runs) the
//! numeric inference costs the `serving` criterion bench exercises —
//! scalar vs. batched int8 inference, the grouped service path, the
//! float forward pass — plus the *modeled* device latencies that
//! drive the fleet's batching speedup. Prints a JSON document to stdout:
//!
//! ```text
//! cargo run --release -p bench --bin serve-timing > BENCH_fleet.json
//! ```

use std::hint::black_box;
use std::time::Instant;

use nn::{kernel, KernelMode, Matrix, Mlp};
use npu::{InferScratch, NpuDevice, NpuModel, PolicyCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 64;
const SAMPLES: usize = 15;

fn feature_rows(n: usize) -> Matrix {
    Matrix::from_rows(
        (0..n)
            .map(|r| {
                (0..21)
                    .map(|c| ((r * 31 + c * 7) % 13) as f32 / 13.0 - 0.5)
                    .collect()
            })
            .collect(),
    )
}

/// Median wall time of `f` in nanoseconds, over repeated samples with a
/// per-sample inner loop sized by `iters`.
fn median_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(9));
    let model = NpuModel::compile(&mlp);
    let device = NpuDevice::kirin970();

    println!("{{");
    println!("  \"note\": \"wall-clock ns serving 64 feature rows (21 features, 64x8 MLP), medians of {SAMPLES} samples, on the vectorized fused int8 kernel (int8_64rows_scalar_kernel_ns is the bit-identical scalar reference the differential gate diffs against; *_cached_ns is the policy-cache replay path); modeled_* are the virtual Kirin 970 device latencies that set the fleet speedup\",");

    // Numeric cost of serving 64 rows at each coalescing level, on the
    // default (vectorized fused) kernel. Outputs are bit-identical to
    // the scalar reference at every level.
    let mut scalar_ns = 0.0;
    let mut batch64_ns = 0.0;
    for batch in [1usize, 4, 16, 64] {
        let chunk = feature_rows(batch);
        let calls = ROWS / batch;
        let ns = median_ns(200, || {
            for _ in 0..calls {
                black_box(model.infer(black_box(&chunk), KernelMode::Vectorized));
            }
        });
        if batch == 1 {
            scalar_ns = ns;
        }
        if batch == 64 {
            batch64_ns = ns;
        }
        println!("  \"int8_64rows_batch{batch}_ns\": {ns:.0},");
        println!(
            "  \"int8_64rows_batch{batch}_per_row_ns\": {:.0},",
            ns / ROWS as f64
        );
    }

    // The same 64-row batch on the scalar reference kernel: the gap is
    // the vectorization win the kernel gate protects.
    let chunk64 = feature_rows(ROWS);
    let scalar_kernel_ns = median_ns(200, || {
        black_box(model.infer(black_box(&chunk64), KernelMode::Scalar));
    });
    println!("  \"int8_64rows_scalar_kernel_ns\": {scalar_kernel_ns:.0},");
    println!(
        "  \"kernel_speedup_vs_scalar\": {:.2},",
        scalar_kernel_ns / batch64_ns
    );

    let stacked = feature_rows(ROWS);
    let groups = vec![1usize; ROWS];
    let mut iscratch = InferScratch::new();
    let (mut q, mut scales) = (vec![0; stacked.as_slice().len()], Vec::new());
    let grouped_ns = median_ns(200, || {
        kernel::quantize_groups(
            black_box(stacked.as_slice()),
            21,
            &groups,
            &mut q,
            &mut scales,
        );
        let mode = KernelMode::Vectorized;
        black_box(model.infer_groups(&q, &scales, &groups, mode, &mut iscratch)[0]);
    });
    println!("  \"int8_64rows_grouped_ns\": {grouped_ns:.0},");
    println!(
        "  \"numeric_speedup_grouped_vs_scalar\": {:.2},",
        scalar_ns / grouped_ns
    );

    // The steady-state cached service path: 64 one-row requests that all
    // hit the policy cache (quantize + probe + replay, no kernel work).
    let rows: Vec<Matrix> = (0..ROWS).map(|_| feature_rows(1)).collect();
    let mut cache = PolicyCache::new(128);
    let (mut q, mut scales) = (vec![0; 21], Vec::new());
    let cached_ns = median_ns(200, || {
        for row in &rows {
            kernel::quantize_groups(row.as_slice(), 21, &[1], &mut q, &mut scales);
            let out = match cache.probe(&q, scales[0], 1) {
                Ok(out) => out.to_vec(),
                Err(key) => {
                    let mode = KernelMode::Vectorized;
                    let out = model
                        .infer_groups(&q, &scales, &[1], mode, &mut iscratch)
                        .to_vec();
                    cache.insert(key, &q, scales[0], 1, &out);
                    out
                }
            };
            black_box(out);
        }
    });
    println!("  \"int8_64rows_grouped_cached_ns\": {cached_ns:.0},");
    println!(
        "  \"cache_hit_speedup_vs_grouped\": {:.2},",
        grouped_ns / cached_ns
    );

    let row: Vec<f32> = (0..21).map(|c| c as f32 / 21.0 - 0.5).collect();
    let alloc_ns = median_ns(20_000, || {
        black_box(mlp.forward(black_box(&row)));
    });
    println!("  \"forward_alloc_ns\": {alloc_ns:.0},");

    // Modeled device time for 64 one-row requests: dedicated (one driver
    // round-trip each) vs. coalesced into batch-16 calls.
    let solo = device.inference_latency(&model, 1);
    let batched = device.inference_latency(&model, 16);
    let serial_ns = solo.as_nanos() as f64 * ROWS as f64;
    let pooled_ns = batched.as_nanos() as f64 * (ROWS / 16) as f64;
    println!("  \"modeled_serial_64rows_ns\": {serial_ns:.0},");
    println!("  \"modeled_batch16_64rows_ns\": {pooled_ns:.0},");
    println!(
        "  \"modeled_speedup_batch16\": {:.2}",
        serial_ns / pooled_ns
    );
    println!("}}");
}
