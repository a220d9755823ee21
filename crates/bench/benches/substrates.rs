//! Micro-benchmarks of the simulation substrates: thermal integration,
//! platform ticks, NN inference (float and int8), the edge serving path,
//! and oracle collection.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use edge_sim::EdgeConfig;
use hikey_platform::{Platform, PlatformConfig, THERMAL_PERIOD};
use hmc_types::{CoreId, SimDuration, SimTime, Watts, NUM_CORES};
use nn::{kernel, Adam, Dataset, KernelMode, Matrix, Mlp, TrainWorkspace};
use npu::{InferScratch, NpuModel};
use npu_serve::{
    seeded_payload, seeded_payload_into, ClientId, TierOutcome, TierSubmit, TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use thermal::{Cooling, SocThermal};
use topil::dvfs::DvfsControlLoop;
use topil::oracle::{Scenario, TraceCollector};
use topil::training::{IlTrainer, TrainSettings};
use workloads::{Benchmark, QosSpec, Workload};

fn thermal_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal");
    // A min over the default 10 single-call samples of a ~100 ns step
    // swings with timer noise; 10,000 samples settle it.
    group.sample_size(10_000);
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
    group.sample_size(10_000);
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
    // One sample is one thermal period of ticks, starting on a period
    // boundary, so it pays the period's one thermal step and sensor sample
    // (a min over single ticks would see only the cheap ticks). The
    // figure to read is ns per tick.
    let config = PlatformConfig::default();
    let block = THERMAL_PERIOD.as_nanos() / config.tick.as_nanos();
    group.throughput(Throughput::Elements(block));
    for apps in [0usize, 1, 8, 16] {
        group.bench_function(format!("tick_{apps}_apps"), |b| {
            let mut platform = Platform::new(config);
            let w = Workload::single(Benchmark::Syr2k, QosSpec::FractionOfMaxBig(0.2));
            let mut spec = *w.iter().next().unwrap();
            spec.total_instructions = Some(u64::MAX);
            for i in 0..apps {
                platform.admit(&spec, CoreId::new(i % NUM_CORES));
            }
            b.iter(|| {
                for _ in 0..block {
                    platform.tick();
                }
            });
        });
    }
    // Fleet-topil's per-board load: phased PARSEC and steady Polybench
    // apps on both clusters, two of them sharing big core 4, under the
    // TOP-IL DVFS loop every 50 ticks (whose CPU time drains core 0).
    group.bench_function("tick_mixed_4_apps", |b| {
        let mut platform = Platform::new(config);
        for (benchmark, core) in [
            (Benchmark::Dedup, 4),
            (Benchmark::Syr2k, 1),
            (Benchmark::Facesim, 4),
            (Benchmark::Canneal, 6),
        ] {
            let w = Workload::single(benchmark, QosSpec::FractionOfMaxBig(0.3));
            let mut spec = *w.iter().next().unwrap();
            spec.total_instructions = Some(u64::MAX);
            platform.admit(&spec, CoreId::new(core));
        }
        let mut dvfs = DvfsControlLoop::new();
        let mut ticks = 0u64;
        b.iter(|| {
            for _ in 0..block {
                platform.tick();
                ticks += 1;
                if ticks.is_multiple_of(50) {
                    dvfs.run(&mut platform);
                }
            }
        });
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
        b.iter(|| black_box(compiled.infer(black_box(&batch), KernelMode::Vectorized)));
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
    let (fleet_mlp, train, val) = fleet_model_start();
    group.bench_function("train_step_batch64", |b| {
        // One minibatch step as `nn::train` runs it: gather 64 rows, then
        // forward, loss, backward and Adam on reused buffers.
        let mut mlp = fleet_mlp.clone();
        let mut adam = Adam::new(&mlp);
        let mut workspace = TrainWorkspace::new(&mlp);
        let config = nn::TrainConfig::default();
        let batch: Vec<usize> = (0..64).collect();
        b.iter(|| {
            workspace.step(
                &mut mlp,
                &mut adam,
                &train,
                black_box(&batch),
                1e-3,
                &config,
            )
        });
    });
    group.bench_function("forward_batch313", |b| {
        // The epoch's validation forward over all 313 held-out rows.
        b.iter(|| black_box(fleet_mlp.forward_batch(black_box(val.x()))));
    });
    group.finish();
}

/// `fleet::fleet_model(7)`'s training at its start: the initial 21-64x4-8
/// network and its standardized dataset, split as `nn::train` splits it
/// (1,251 training and 313 validation rows).
fn fleet_model_start() -> (Mlp, Dataset, Dataset) {
    let settings = TrainSettings::default();
    let (hidden, width) = (settings.hidden_layers, settings.width);
    let cases = IlTrainer::new(settings).collect_cases(&Scenario::standard_set(8, 0xF1EE7));
    let (data, _) = IlTrainer::build_dataset(&cases);
    let mut rng = StdRng::seed_from_u64(7);
    let (inputs, outputs) = (data.x().cols(), data.y().cols());
    let mlp = Mlp::with_topology(inputs, hidden, width, outputs, &mut rng);
    let (train, val) = data.split(nn::TrainConfig::default().val_fraction, &mut rng);
    (mlp, train, val)
}

/// The edge fleet at 6× load on one rack, as the `edge-overload6`
/// benchmark workload runs it.
fn edge_overload6() -> EdgeConfig {
    EdgeConfig {
        boards: 256,
        users: 25_000,
        epochs: 24,
        load: 6.0,
        regions: 1,
        racks_per_region: 1,
        ..EdgeConfig::default()
    }
}

fn npu_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("npu");
    group.sample_size(2_000);
    let config = edge_overload6();
    let model = NpuModel::compile(&edge_sim::region_policy(&config, 0));
    let row = seeded_payload(1, 1, model.input_size());
    // One edge request as the service computes a cache miss: quantize the
    // 12-wide row, then the 12-16-16-4 int8 forward, on reused buffers.
    group.bench_function("infer_edge_row", |b| {
        let (mut q, mut scales) = (vec![0; row.as_slice().len()], Vec::new());
        let mut scratch = InferScratch::new();
        let width = model.input_size();
        b.iter(|| {
            kernel::quantize_groups(black_box(row.as_slice()), width, &[1], &mut q, &mut scales);
            let out = model.infer_groups(&q, &scales, &[1], KernelMode::Vectorized, &mut scratch);
            black_box(out[0])
        });
    });
    // One nominal-load compute drain: nine one-row requests, each its own
    // quantization group, quantized in one call and run through the
    // layers in one `infer_groups` call.
    group.bench_function("infer_edge_drain", |b| {
        let groups = [1; 9];
        let width = model.input_size();
        let rows = seeded_payload(1, groups.len(), width);
        let (mut q, mut scales) = (vec![0; rows.as_slice().len()], Vec::new());
        let mut scratch = InferScratch::new();
        b.iter(|| {
            let x = black_box(rows.as_slice());
            kernel::quantize_groups(x, width, &groups, &mut q, &mut scales);
            let out =
                model.infer_groups(&q, &scales, &groups, KernelMode::Vectorized, &mut scratch);
            black_box(out[0])
        });
    });
    group.finish();
}

fn serve_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(30);
    let config = edge_overload6();
    // One 6×-load epoch on a one-rack tier: the rack saturates, so the
    // epoch exercises admission, batching, hedging and regional serving.
    group.bench_function("tier_epoch_overload6", |b| {
        let mlp = edge_sim::region_policy(&config, 0);
        let mut tier = TieredService::new(&mlp, edge_sim::tier_config(&config));
        let epoch = config.epoch.as_nanos();
        let deadline = config.qos_deadline - config.network.downlink();
        let per_epoch = 1_870u64;
        let mut base = 0u64;
        let mut tickets = Vec::with_capacity(per_epoch as usize);
        // Payloads and reply outputs go round as in `edge_sim::run`.
        let mut payloads = Vec::new();
        b.iter(|| {
            for i in 0..per_epoch {
                let at = SimTime::from_nanos(base + i * epoch / per_epoch);
                let opts = TierSubmit {
                    rack: 0,
                    client: ClientId::new(i % config.boards as u64),
                    deadline: Some(at + deadline),
                };
                let mut payload = payloads
                    .pop()
                    .unwrap_or_else(|| Matrix::zeros(1, mlp.input_size()));
                seeded_payload_into(base + i, &mut payload);
                tickets.push(tier.submit(payload, at, opts).expect("valid payload"));
            }
            base += epoch;
            tier.flush(SimTime::from_nanos(base));
            for ticket in tickets.drain(..) {
                let (outcome, payload) = tier.take_filed(ticket).expect("flushed");
                if let TierOutcome::Reply(reply) = black_box(outcome) {
                    tier.recycle(reply);
                }
                payloads.push(payload);
            }
        });
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
    npu_benches,
    serve_benches,
    oracle_benches
);
criterion_main!(benches);
