//! Micro-benchmarks of the simulation substrates: thermal integration,
//! platform ticks, NN inference (float and int8), and oracle collection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hikey_platform::{Platform, PlatformConfig};
use hmc_types::{CoreId, SimDuration, Watts, NUM_CORES};
use nn::{Adam, Matrix, Mlp};
use npu::NpuModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use thermal::{Cooling, SocThermal};
use topil::oracle::{Scenario, TraceCollector};
use workloads::{Benchmark, QosSpec, Workload};

fn thermal_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal");
    let powers = [Watts::new(1.0); NUM_CORES];
    group.bench_function("step_1ms", |b| {
        let mut soc = SocThermal::new(Cooling::fan());
        b.iter(|| {
            soc.step(
                black_box(&powers),
                [Watts::ZERO; 2],
                SimDuration::from_millis(1),
            );
        });
    });
    group.bench_function("steady_state_solve", |b| {
        let soc = SocThermal::new(Cooling::fan());
        b.iter(|| black_box(soc.steady_state_sensor(&powers, [Watts::ZERO; 2])));
    });
    group.finish();
}

fn platform_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform");
    // One sample is a single ~200 ns tick: take enough for a stable min.
    group.sample_size(10_000);
    for apps in [0usize, 1, 8, 16] {
        group.bench_function(format!("tick_{apps}_apps"), |b| {
            let mut platform = Platform::new(PlatformConfig::default());
            let w = Workload::single(Benchmark::Syr2k, QosSpec::FractionOfMaxBig(0.2));
            let mut spec = *w.iter().next().unwrap();
            spec.total_instructions = Some(u64::MAX);
            for i in 0..apps {
                platform.admit(&spec, CoreId::new(i % NUM_CORES));
            }
            b.iter(|| platform.tick());
        });
    }
    group.bench_function("snapshots_8_apps", |b| {
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.2));
        let mut spec = *w.iter().next().unwrap();
        spec.total_instructions = Some(u64::MAX);
        for i in 0..8 {
            platform.admit(&spec, CoreId::new(i));
        }
        platform.tick();
        b.iter(|| black_box(platform.snapshots()));
    });
    group.finish();
}

fn nn_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    // One sample is a single pass of microseconds: take enough for a
    // stable min.
    group.sample_size(2_000);
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(0));
    let single = vec![0.1f32; 21];
    let batch = Matrix::from_rows(vec![vec![0.1; 21]; 16]);
    group.bench_function("forward_single", |b| {
        b.iter(|| black_box(mlp.forward(black_box(&single))));
    });
    group.bench_function("forward_batch16", |b| {
        b.iter(|| black_box(mlp.forward_batch(black_box(&batch))));
    });
    let compiled = NpuModel::compile(&mlp);
    group.bench_function("npu_int8_batch16", |b| {
        b.iter(|| black_box(compiled.infer(black_box(&batch))));
    });
    group.bench_function("backward_batch16", |b| {
        let targets = Matrix::zeros(16, 8);
        b.iter(|| {
            let cache = mlp.forward_cached(&batch);
            let (_, grad) = Mlp::mse_loss(cache.output(), &targets);
            black_box(mlp.backward(&cache, &grad))
        });
    });
    group.bench_function("adam_step", |b| {
        let mut trained = mlp.clone();
        let mut adam = Adam::new(&trained);
        let cache = trained.forward_cached(&batch);
        let (_, grad) = Mlp::mse_loss(cache.output(), &Matrix::zeros(16, 8));
        let grads = trained.backward(&cache, &grad);
        b.iter(|| adam.step(&mut trained, black_box(&grads), 1e-3));
    });
    group.finish();
}

fn oracle_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    let scenario = Scenario::new(
        Benchmark::SeidelTwoD,
        vec![
            (Benchmark::Adi, CoreId::new(0)),
            (Benchmark::Syr2k, CoreId::new(4)),
        ],
    );
    group.bench_function("collect_steady_state_scenario", |b| {
        let collector = TraceCollector::new();
        b.iter(|| black_box(collector.collect(black_box(&scenario))));
    });
    group.bench_function("extract_cases", |b| {
        let collector = TraceCollector::new();
        let traces = collector.collect(&scenario);
        b.iter_batched(
            || traces.clone(),
            |t| black_box(topil::oracle::extract_cases(&t, &Default::default())),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    thermal_benches,
    platform_benches,
    nn_benches,
    oracle_benches
);
criterion_main!(benches);
