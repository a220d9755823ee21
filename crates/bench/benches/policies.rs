//! Decision-latency benchmarks of the management policies: one DVFS-loop
//! iteration, one migration epoch (NPU vs. CPU inference), one RL epoch,
//! and one GTS balance pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use governors::LinuxGovernor;
use hikey_platform::{Platform, PlatformConfig, Policy};
use hmc_types::CoreId;
use topil::dvfs::DvfsControlLoop;
use topil::migration::InferenceBackend;
use topil::oracle::Scenario;
use topil::training::{IlTrainer, TrainSettings};
use topil::TopIlGovernor;
use toprl::TopRlGovernor;
use workloads::{Benchmark, QosSpec, Workload};

fn loaded_platform(apps: usize) -> Platform {
    let mut platform = Platform::new(PlatformConfig::default());
    let w = Workload::single(Benchmark::Syr2k, QosSpec::FractionOfMaxBig(0.2));
    let mut spec = *w.iter().next().unwrap();
    spec.total_instructions = Some(u64::MAX);
    for i in 0..apps {
        platform.admit(&spec, CoreId::new(i % 8));
    }
    for _ in 0..300 {
        platform.tick();
    }
    platform
}

fn quick_model() -> topil::IlModel {
    let mut settings = TrainSettings::default();
    settings.nn.max_epochs = 30;
    settings.nn.patience = 8;
    IlTrainer::new(settings).train(&Scenario::standard_set(6, 0), 0)
}

fn policy_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("policies");
    group.bench_function("dvfs_loop_8_apps", |b| {
        let mut platform = loaded_platform(8);
        let mut dvfs = DvfsControlLoop::new();
        b.iter(|| black_box(dvfs.run(&mut platform)));
    });

    let model = quick_model();
    for (label, backend) in [
        ("migration_npu_8_apps", InferenceBackend::Npu),
        ("migration_cpu_8_apps", InferenceBackend::Cpu),
    ] {
        group.bench_function(label, |b| {
            let mut platform = loaded_platform(8);
            let mut governor = TopIlGovernor::new(model.clone()).with_backend(backend);
            b.iter(|| black_box(governor.migrate(&mut platform)));
        });
    }

    group.bench_function("rl_epoch_8_apps", |b| {
        let mut platform = loaded_platform(8);
        let mut governor = TopRlGovernor::new(0);
        b.iter(|| {
            governor.on_tick(&mut platform);
            platform.tick();
        });
    });

    group.bench_function("gts_tick_8_apps", |b| {
        let mut platform = loaded_platform(8);
        let mut governor = LinuxGovernor::gts_ondemand();
        b.iter(|| {
            governor.on_tick(&mut platform);
            platform.tick();
        });
    });
    group.finish();
}

criterion_group!(benches, policy_benches);
criterion_main!(benches);
