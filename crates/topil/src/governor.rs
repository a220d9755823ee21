//! The integrated TOP-IL governor (Fig. 6): IL migration every 500 ms +
//! DVFS control loop every 50 ms, with two skipped DVFS iterations around
//! each migration epoch.

use faults::{FaultInjector, FaultPlan};
use hikey_platform::{default_placement, DegradationReport, Platform, Policy};
use hmc_types::AppModel;
use hmc_types::{CoreId, QosTarget, SimDuration};

use crate::dvfs::DvfsControlLoop;
use crate::migration::{
    DedicatedNpuClient, InferenceBackend, MigrationOutcome, MigrationPolicy, RobustnessConfig,
};
use crate::training::IlModel;

/// Migration epoch length (paper: 500 ms).
pub const MIGRATION_PERIOD: SimDuration = SimDuration::from_millis(500);
/// DVFS control-loop period (paper: 50 ms).
pub const DVFS_PERIOD: SimDuration = SimDuration::from_millis(50);

/// Run-time statistics of the governor, used to regenerate the paper's
/// overhead figure (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GovernorStats {
    /// DVFS loop invocations.
    pub dvfs_invocations: u64,
    /// Total CPU time of the DVFS loop.
    pub dvfs_time: SimDuration,
    /// Migration-policy invocations.
    pub migration_invocations: u64,
    /// Total wall time of migration invocations (feature build +
    /// inference latency).
    pub migration_time: SimDuration,
    /// Migrations actually executed.
    pub migrations_executed: u64,
    /// Individual NPU job failures observed by the migration policy.
    pub npu_failures: u64,
    /// Times the NPU circuit breaker opened.
    pub breaker_opens: u64,
    /// Migration epochs served by the CPU inference fallback.
    pub cpu_fallback_epochs: u64,
    /// Migration epochs skipped entirely (inference missed its deadline;
    /// the DVFS loop kept running).
    pub degraded_epochs: u64,
    /// Total time with the CPU fallback active (fallback epochs × epoch
    /// length).
    pub fallback_active_time: SimDuration,
}

/// The TOP-IL governor: implements [`Policy`] for the platform simulator.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct TopIlGovernor {
    dvfs: DvfsControlLoop,
    migration: MigrationPolicy,
    /// The board's own NPU, serving every migration epoch's batch.
    client: DedicatedNpuClient,
    dvfs_skip: u8,
    stats: GovernorStats,
    name: String,
    migration_period: SimDuration,
    dvfs_period: SimDuration,
    skip_after_migration: u8,
    epoch: u64,
}

impl TopIlGovernor {
    /// Creates the governor with a trained model (NPU inference).
    pub fn new(model: IlModel) -> Self {
        TopIlGovernor {
            dvfs: DvfsControlLoop::new(),
            client: DedicatedNpuClient::new(&model),
            migration: MigrationPolicy::new(model),
            dvfs_skip: 0,
            stats: GovernorStats::default(),
            name: "TOP-IL".to_string(),
            migration_period: MIGRATION_PERIOD,
            dvfs_period: DVFS_PERIOD,
            skip_after_migration: 2,
            epoch: 0,
        }
    }

    /// Switches the inference backend (ablation for Fig. 11).
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.client.backend = backend;
        if backend == InferenceBackend::Cpu {
            self.name = "TOP-IL (CPU inference)".to_string();
        }
        self
    }

    /// Overrides the migration epoch length (ablation; the paper uses
    /// 500 ms).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or not a multiple of the DVFS period.
    pub fn with_migration_period(mut self, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "migration period must be positive");
        assert_eq!(
            period.as_nanos() % self.dvfs_period.as_nanos(),
            0,
            "migration period must be a multiple of the DVFS period"
        );
        self.migration_period = period;
        self
    }

    /// Overrides how many DVFS iterations are skipped around a migration
    /// (ablation; the paper skips 2).
    pub fn with_dvfs_skip(mut self, skips: u8) -> Self {
        self.skip_after_migration = skips;
        self
    }

    /// Overrides the migration hysteresis threshold (ablation).
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.migration = self.migration.with_threshold(threshold);
        self
    }

    /// Attaches a fault injector built from `plan` to the NPU client
    /// (robustness experiments). The plan's sensor and DVFS faults are
    /// injected by the platform from independent streams of the same seed.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.client.npu = self.client.npu.with_injector(FaultInjector::new(plan));
        self
    }

    /// Switches the NPU degradation ladder on or off. Resets the circuit
    /// breaker.
    pub fn with_robustness(mut self, config: RobustnessConfig) -> Self {
        self.client.set_robustness(config);
        self
    }

    /// Selects the numeric inference kernel (bit-identical outputs;
    /// `Scalar` forces the reference loop so golden traces can be
    /// re-verified against both paths).
    pub fn with_kernel(mut self, kernel: npu::KernelMode) -> Self {
        self.client.npu = self.client.npu.with_kernel(kernel);
        self
    }

    /// The accumulated run-time statistics.
    pub fn stats(&self) -> GovernorStats {
        self.stats
    }

    /// Runs one migration epoch: prepares the feature batch, serves it on
    /// the board's NPU client, and completes the epoch. A platform with
    /// nothing running is a no-op.
    pub fn migrate(&mut self, platform: &mut Platform) -> MigrationOutcome {
        let Some(prepared) = self.migration.prepare(platform) else {
            return MigrationOutcome {
                migrated: None,
                latency: SimDuration::ZERO,
                cpu_time: SimDuration::ZERO,
                backend: self.client.backend,
                npu_failures: 0,
                fallback_active: false,
                deadline_missed: false,
            };
        };
        let reply = self.client.infer(prepared.batch());
        self.migration.complete(platform, &prepared, reply)
    }
}

impl Policy for TopIlGovernor {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&mut self, platform: &Platform, model: &AppModel, qos: QosTarget) -> CoreId {
        let _ = (model, qos);
        // New arrivals take any free core; the migration policy corrects
        // the mapping within one epoch.
        default_placement(platform)
    }

    fn on_tick(&mut self, platform: &mut Platform) {
        let now = platform.now();
        if now.is_multiple_of(self.migration_period) && platform.app_count() > 0 {
            platform.trace_emit(trace::TraceEvent::EpochTick {
                at: now,
                epoch: self.epoch,
            });
            self.epoch += 1;
            let outcome = self.migrate(platform);
            self.stats.migration_invocations += 1;
            self.stats.migration_time += outcome.latency;
            self.stats.npu_failures += u64::from(outcome.npu_failures);
            self.stats.breaker_opens = self.client.breaker.opens();
            if outcome.migrated.is_some() {
                self.stats.migrations_executed += 1;
            }
            if outcome.fallback_active {
                self.stats.cpu_fallback_epochs += 1;
                self.stats.fallback_active_time += self.migration_period;
            }
            if outcome.deadline_missed {
                // Watchdog: the epoch produced no ratings, so there is no
                // migration to shield — keep the 50 ms DVFS loop running.
                self.stats.degraded_epochs += 1;
            } else {
                // Skip DVFS iterations around the migration: cold-cache
                // transients would corrupt the linear-scaling estimate.
                self.dvfs_skip = self.skip_after_migration;
            }
        }
        if now.is_multiple_of(self.dvfs_period) {
            if self.dvfs_skip > 0 {
                self.dvfs_skip -= 1;
            } else {
                let cost = self.dvfs.run(platform);
                self.stats.dvfs_invocations += 1;
                self.stats.dvfs_time += cost;
            }
        }
    }

    fn degradation(&self) -> Option<DegradationReport> {
        Some(DegradationReport {
            degraded_epochs: self.stats.degraded_epochs,
            cpu_fallback_epochs: self.stats.cpu_fallback_epochs,
            fallback_active_time: self.stats.fallback_active_time,
            npu_failures: self.stats.npu_failures,
            breaker_opens: self.stats.breaker_opens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Scenario;
    use crate::training::{IlTrainer, TrainSettings};
    use hikey_platform::{SimConfig, Simulator};
    use hmc_types::Cluster;
    use nn::TrainConfig;
    use workloads::{Benchmark, QosSpec, Workload};

    fn quick_model(seed: u64) -> IlModel {
        let settings = TrainSettings {
            nn: TrainConfig {
                max_epochs: 60,
                patience: 15,
                ..TrainConfig::default()
            },
            ..TrainSettings::default()
        };
        IlTrainer::new(settings).train(&Scenario::standard_set(10, 33), seed)
    }

    #[test]
    fn governor_meets_qos_on_single_app() {
        let mut governor = TopIlGovernor::new(quick_model(0));
        let config = SimConfig {
            max_duration: SimDuration::from_secs(30),
            ..SimConfig::default()
        };
        let workload = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let report = Simulator::new(config).run(&workload, &mut governor);
        assert_eq!(
            report.metrics.qos_violations(),
            0,
            "adi must meet its target"
        );
        let stats = governor.stats();
        assert!(stats.dvfs_invocations > 0);
        assert!(stats.migration_invocations > 0);
    }

    #[test]
    fn governor_reduces_temperature_vs_max_frequency() {
        // Running adi at boot frequencies (no governor) is hotter than
        // under TOP-IL, which drops to the minimum satisfying level.
        struct NoGovernor;
        impl Policy for NoGovernor {
            fn name(&self) -> &str {
                "none"
            }
            fn on_tick(&mut self, _: &mut Platform) {}
        }
        let config = SimConfig {
            max_duration: SimDuration::from_secs(40),
            stop_when_idle: false,
            ..SimConfig::default()
        };
        let workload = Workload::new(vec![workloads::ArrivalSpec {
            at: hmc_types::SimTime::ZERO,
            benchmark: Benchmark::Syr2k,
            qos: QosSpec::FractionOfMaxBig(0.3),
            total_instructions: Some(u64::MAX),
        }]);
        let baseline = Simulator::new(config).run(&workload, &mut NoGovernor);
        let mut governor = TopIlGovernor::new(quick_model(1));
        let managed = Simulator::new(config).run(&workload, &mut governor);
        assert!(
            managed.metrics.avg_temperature().value()
                < baseline.metrics.avg_temperature().value() - 1.0,
            "TOP-IL {} should beat max-frequency {}",
            managed.metrics.avg_temperature(),
            baseline.metrics.avg_temperature()
        );
    }

    #[test]
    fn dvfs_skipped_around_migrations() {
        // Over exactly one migration epoch the governor runs the DVFS loop
        // (500/50 - 2) = 8 times.
        let mut governor = TopIlGovernor::new(quick_model(2));
        let config = SimConfig {
            max_duration: SimDuration::from_millis(500),
            stop_when_idle: false,
            ..SimConfig::default()
        };
        let workload = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let _ = Simulator::new(config).run(&workload, &mut governor);
        let stats = governor.stats();
        assert_eq!(stats.migration_invocations, 1);
        assert_eq!(stats.dvfs_invocations, 8, "two of ten iterations skipped");
    }

    #[test]
    fn idle_clusters_end_at_lowest_levels() {
        let mut governor = TopIlGovernor::new(quick_model(3));
        let config = SimConfig {
            max_duration: SimDuration::from_secs(5),
            stop_when_idle: false,
            ..SimConfig::default()
        };
        let report = Simulator::new(config).run(&Workload::default(), &mut governor);
        // Idle platform: both clusters at their minimum OPP, temperature
        // close to ambient.
        assert!(report.metrics.avg_temperature().value() < 30.0);
        // Only the governor's own (tiny) overhead may keep core 0 busy.
        let little: f64 = report
            .metrics
            .cpu_time_distribution(Cluster::Little)
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        // The 30 µs DVFS invocation marks one 1 ms tick per 50 ms period
        // as busy, so up to ~2 % shows up in the coarse accounting.
        assert!(
            little < 0.03 * report.metrics.elapsed().as_secs_f64(),
            "idle platform busy {little} s"
        );
    }
}
