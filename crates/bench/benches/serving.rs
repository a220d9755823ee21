//! Scalar-vs-batched inference microbenchmarks for the shared NPU
//! service: the numeric cost of serving 64 feature rows as 64 scalar
//! calls vs. coalesced batches of 4/16/64 — on both the scalar reference
//! kernel and the vectorized fused kernel (bit-identical outputs; see
//! `tests/kernel_equivalence.rs`) — plus the cached service path, the
//! per-request quantization-group path, and the scratch-buffer forward
//! pass used on the per-epoch hot path. Every row reports per-row ns via
//! `Throughput::Elements`, so BENCH_fleet.json deltas are attributable
//! to a specific coalescing level and kernel.
//!
//! (The simulated device latency model — driver round-trips, occupancy —
//! is virtual time and not measured here; `serve-timing` reports it into
//! `BENCH_fleet.json` alongside these numeric costs.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use nn::{kernel, KernelMode, Matrix, Mlp};
use npu::{InferScratch, NpuModel, PolicyCache};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROWS: usize = 64;

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

fn serving_benches(c: &mut Criterion) {
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(9));
    let model = NpuModel::compile(&mlp);
    let mut group = c.benchmark_group("serving");
    group.throughput(Throughput::Elements(ROWS as u64));

    // Serve 64 rows as scalar calls vs. coalesced batches, on each
    // kernel. The two kernels produce bit-identical outputs, so the gap
    // is pure compute.
    for mode in [KernelMode::Scalar, KernelMode::Vectorized] {
        for batch in [1usize, 4, 16, 64] {
            let chunk = feature_rows(batch);
            group.bench_function(format!("int8_64rows_batch{batch}_{}", mode.name()), |b| {
                b.iter(|| {
                    for _ in 0..(ROWS / batch) {
                        black_box(model.infer(black_box(&chunk), mode));
                    }
                });
            });
        }
    }

    // The shared service's path: one stacked call, one quantization
    // group per request (bit-identical to scalar issuance).
    let stacked = feature_rows(ROWS);
    let groups = vec![1usize; ROWS];
    group.bench_function("int8_64rows_grouped", |b| {
        let mut scratch = InferScratch::new();
        let (mut q, mut scales) = (vec![0; stacked.as_slice().len()], Vec::new());
        b.iter(|| {
            kernel::quantize_groups(
                black_box(stacked.as_slice()),
                21,
                &groups,
                &mut q,
                &mut scales,
            );
            let mode = KernelMode::Vectorized;
            black_box(model.infer_groups(&q, &scales, &groups, mode, &mut scratch)[0])
        });
    });

    // The cached service path on a repeating request stream: quantize,
    // probe, replay (the steady state of a fleet whose boards revisit
    // the same thermal/QoS code points).
    group.bench_function("int8_64rows_grouped_cached", |b| {
        let mut cache = PolicyCache::new(128);
        let mut scratch = InferScratch::new();
        let (mut q, mut scales) = (vec![0; 21], Vec::new());
        let rows: Vec<Matrix> = (0..ROWS).map(|_| feature_rows(1)).collect();
        b.iter(|| {
            for row in &rows {
                kernel::quantize_groups(row.as_slice(), 21, &[1], &mut q, &mut scales);
                let out = match cache.probe(&q, scales[0], 1) {
                    Ok(out) => out.to_vec(),
                    Err(key) => {
                        let mode = KernelMode::Vectorized;
                        let out = model
                            .infer_groups(&q, &scales, &[1], mode, &mut scratch)
                            .to_vec();
                        cache.insert(key, &q, scales[0], 1, &out);
                        out
                    }
                };
                black_box(out);
            }
        });
    });

    // Scalar float forward of one row per iteration, so the reported
    // per-element figure IS the per-row cost.
    group.throughput(Throughput::Elements(1));
    let row: Vec<f32> = (0..21).map(|c| c as f32 / 21.0 - 0.5).collect();
    group.bench_function("forward_alloc", |b| {
        b.iter(|| black_box(mlp.forward(black_box(&row))));
    });
    group.finish();
}

criterion_group!(benches, serving_benches);
criterion_main!(benches);
