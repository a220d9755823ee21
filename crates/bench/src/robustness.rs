//! Robustness extension: fault-rate sweep over NPU failures and thermal
//! sensor dropouts, with the degradation ladder enabled vs. disabled.
//!
//! For every fault point a mixed workload runs twice: once with the full
//! ladder (retry → circuit breaker → CPU fallback, sensor filtering with
//! DTM fail-safe) and once with every mitigation off. The comparison shows
//! that the ladder keeps the governor functional — and the die protected —
//! under fault rates that break the unguarded configuration's QoS.
//!
//! This module measures one point ([`run_point`]) and prints the table
//! ([`RobustnessReport`]); [`crate::sweep::run_sweep`] is the one driver
//! that runs the grid, resumably.

use std::fmt;

use faults::FaultPlan;
use hikey_platform::{SimConfig, Simulator};
use hmc_types::SimDuration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topil::oracle::Scenario;
use topil::training::{IlModel, IlTrainer, TrainSettings};
use topil::{RobustnessConfig, TopIlGovernor};
use workloads::{MixedWorkloadConfig, WorkloadGenerator};

use crate::harness::Effort;
use crate::sweep::GridPoint;

/// What one grid point measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Average die temperature over the run.
    pub avg_temp_c: f64,
    /// Peak die temperature over the run.
    pub peak_temp_c: f64,
    /// Applications that finished with a violated QoS target.
    pub violations: usize,
    /// Applications that finished.
    pub executions: usize,
    /// Migration epochs that produced no decision at all.
    pub degraded_epochs: u64,
    /// Migration epochs served by the CPU inference fallback.
    pub cpu_fallback_epochs: u64,
    /// Individual NPU job failures observed.
    pub npu_failures: u64,
    /// Times the NPU circuit breaker opened.
    pub breaker_opens: u64,
    /// Ticks the DTM fail-safe (sensor lost) events fired.
    pub failsafe_events: u64,
}

/// The finished sweep: each grid point with what it measured, in grid
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Every finished point (each fault combination × ladder on/off).
    pub points: Vec<(GridPoint, RobustnessPoint)>,
}

impl fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Robustness sweep: fault injection vs. the degradation ladder"
        )?;
        writeln!(
            f,
            "  {:>7} {:>7} {:>6} {:>8} {:>8} {:>10} {:>9} {:>9} {:>8} {:>8}",
            "npu",
            "dropout",
            "ladder",
            "avgT(C)",
            "peakT(C)",
            "violations",
            "degraded",
            "fallback",
            "npufail",
            "failsafe"
        )?;
        for (gp, p) in &self.points {
            writeln!(
                f,
                "  {:>7.2} {:>7.2} {:>6} {:>8.2} {:>8.2} {:>6}/{:<3} {:>9} {:>9} {:>8} {:>8}",
                gp.npu_failure_rate,
                gp.sensor_dropout_rate,
                if gp.ladder { "on" } else { "off" },
                p.avg_temp_c,
                p.peak_temp_c,
                p.violations,
                p.executions,
                p.degraded_epochs,
                p.cpu_fallback_epochs,
                p.npu_failures,
                p.failsafe_events
            )?;
        }
        Ok(())
    }
}

/// Runs one grid point under a fresh governor on the mixed workload of
/// `workload_seed`, with full event tracing. Returns the measurement and
/// the trace hash that certifies a resumed sweep reproduced it.
pub fn run_point(
    model: &IlModel,
    gp: GridPoint,
    effort: Effort,
    workload_seed: u64,
) -> (RobustnessPoint, u64) {
    let mut plan = FaultPlan::none(0xFA0175);
    plan.npu.failure_rate = gp.npu_failure_rate;
    plan.sensor.dropout_rate = gp.sensor_dropout_rate;

    let mut governor = TopIlGovernor::new(model.clone()).with_fault_plan(plan);
    if !gp.ladder {
        governor = governor.with_robustness(RobustnessConfig::Disabled);
    }
    let workload_cfg = MixedWorkloadConfig {
        num_apps: 12,
        mean_interarrival: SimDuration::from_secs(6),
        total_instructions: Some(effort.app_instructions()),
        ..MixedWorkloadConfig::default()
    };
    let workload =
        WorkloadGenerator::mixed(&workload_cfg, &mut StdRng::seed_from_u64(workload_seed));
    let sim = SimConfig {
        max_duration: SimDuration::from_secs(1200),
        fault_plan: Some(plan),
        trace: trace::TraceConfig::full(),
        // The unguarded configuration also loses the sensor filter: raw
        // (possibly dropped) samples feed the DTM directly.
        sensor_filter: if gp.ladder {
            SimConfig::default().sensor_filter
        } else {
            None
        },
        ..SimConfig::default()
    };
    let report = Simulator::new(sim).run(&workload, &mut governor);
    let hash = report.events.as_ref().map_or(0, |log| log.hash.value());
    let degradation = report.degradation.unwrap_or_default();
    let point = RobustnessPoint {
        avg_temp_c: report.metrics.avg_temperature().value(),
        peak_temp_c: report.metrics.peak_temperature().value(),
        violations: report.metrics.qos_violations(),
        executions: report.metrics.outcomes().len(),
        degraded_epochs: degradation.degraded_epochs,
        cpu_fallback_epochs: degradation.cpu_fallback_epochs,
        npu_failures: degradation.npu_failures,
        breaker_opens: degradation.breaker_opens,
        failsafe_events: report.metrics.failsafe_events(),
    };
    (point, hash)
}

/// Trains the model the robustness experiments evaluate.
pub fn sweep_model(effort: Effort) -> IlModel {
    let scenarios = Scenario::standard_set(effort.scenario_count().min(20), 0xC0FFEE);
    let settings = TrainSettings {
        nn: effort.train_config(),
        ..TrainSettings::default()
    };
    IlTrainer::new(settings).train(&scenarios, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::TrainConfig;

    fn quick_model() -> IlModel {
        let settings = TrainSettings {
            nn: TrainConfig {
                max_epochs: 60,
                patience: 15,
                ..TrainConfig::default()
            },
            ..TrainSettings::default()
        };
        IlTrainer::new(settings).train(&Scenario::standard_set(10, 33), 0)
    }

    #[test]
    fn ladder_absorbs_total_npu_loss() {
        let model = quick_model();
        let point = |ladder| GridPoint {
            npu_failure_rate: 1.0,
            sensor_dropout_rate: 0.0,
            ladder,
        };
        let (on, _) = run_point(&model, point(true), Effort::Quick, 17);
        let (off, _) = run_point(&model, point(false), Effort::Quick, 17);

        // With the ladder the epochs are served by the CPU fallback.
        assert!(on.npu_failures > 0);
        assert!(on.breaker_opens >= 1);
        assert!(on.cpu_fallback_epochs > 0);
        // Without it every epoch is lost.
        assert!(off.cpu_fallback_epochs == 0);
        assert!(off.degraded_epochs > 0);
        // Both complete without panicking and finish the workload.
        assert!(on.executions > 0);
        assert!(off.executions > 0);
    }

    #[test]
    fn fault_free_point_is_clean() {
        let fault_free = GridPoint {
            npu_failure_rate: 0.0,
            sensor_dropout_rate: 0.0,
            ladder: true,
        };
        let (point, _) = run_point(&quick_model(), fault_free, Effort::Quick, 17);
        assert_eq!(point.npu_failures, 0);
        assert_eq!(point.breaker_opens, 0);
        assert_eq!(point.degraded_epochs, 0);
        assert_eq!(point.cpu_fallback_epochs, 0);
        assert_eq!(point.failsafe_events, 0);
        assert!(point.executions > 0);
    }
}
