//! Robustness extension: fault-rate sweep over NPU failures and thermal
//! sensor dropouts, with the degradation ladder enabled vs. disabled.
//!
//! For every fault point a mixed workload runs twice: once with the full
//! ladder (retry → circuit breaker → CPU fallback, sensor filtering with
//! DTM fail-safe) and once with every mitigation off. The comparison shows
//! that the ladder keeps the governor functional — and the die protected —
//! under fault rates that break the unguarded configuration's QoS.

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

/// One fault point of the sweep, run with the ladder on or off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessPoint {
    /// Per-job NPU failure probability.
    pub npu_failure_rate: f64,
    /// Per-sample thermal-sensor dropout probability.
    pub sensor_dropout_rate: f64,
    /// Whether the degradation ladder was enabled.
    pub ladder: bool,
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

/// The full fault-rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// All sweep points (each fault combination × ladder on/off).
    pub points: Vec<RobustnessPoint>,
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
        for p in &self.points {
            writeln!(
                f,
                "  {:>7.2} {:>7.2} {:>6} {:>8.2} {:>8.2} {:>6}/{:<3} {:>9} {:>9} {:>8} {:>8}",
                p.npu_failure_rate,
                p.sensor_dropout_rate,
                if p.ladder { "on" } else { "off" },
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

/// The fault combinations swept (NPU failure rate, sensor dropout rate).
pub fn sweep_grid() -> Vec<(f64, f64)> {
    vec![
        (0.0, 0.0),
        (0.05, 0.0),
        (0.1, 0.0),
        (0.2, 0.0),
        (0.0, 0.05),
        (0.0, 0.1),
        (0.2, 0.1),
    ]
}

/// Runs one fault point under a fresh governor.
pub fn run_point(
    model: IlModel,
    npu_failure_rate: f64,
    sensor_dropout_rate: f64,
    ladder: bool,
    effort: Effort,
) -> RobustnessPoint {
    run_point_traced(
        model,
        npu_failure_rate,
        sensor_dropout_rate,
        ladder,
        effort,
        17,
        trace::TraceConfig::off(),
    )
    .0
}

/// Runs one fault point with an explicit workload seed and event tracing —
/// the sweep supervisor's entry point, whose trace hash certifies that a
/// resumed sweep reproduces the uninterrupted run bit-for-bit.
pub fn run_point_traced(
    model: IlModel,
    npu_failure_rate: f64,
    sensor_dropout_rate: f64,
    ladder: bool,
    effort: Effort,
    workload_seed: u64,
    trace: trace::TraceConfig,
) -> (RobustnessPoint, Option<trace::TraceHash>) {
    let mut plan = FaultPlan::none(0xFA0175);
    plan.npu.failure_rate = npu_failure_rate;
    plan.sensor.dropout_rate = sensor_dropout_rate;

    let mut governor = TopIlGovernor::new(model).with_fault_plan(plan);
    if !ladder {
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
        trace,
        // The unguarded configuration also loses the sensor filter: raw
        // (possibly dropped) samples feed the DTM directly.
        sensor_filter: if ladder {
            SimConfig::default().sensor_filter
        } else {
            None
        },
        ..SimConfig::default()
    };
    let report = Simulator::new(sim).run(&workload, &mut governor);
    let hash = report.events.as_ref().map(|log| log.hash);
    let degradation = report.degradation.unwrap_or_default();
    let point = RobustnessPoint {
        npu_failure_rate,
        sensor_dropout_rate,
        ladder,
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

/// Regenerates the full sweep (each fault point, ladder on and off).
pub fn run(effort: Effort) -> RobustnessReport {
    let model = sweep_model(effort);

    let mut points = Vec::new();
    for (npu, dropout) in sweep_grid() {
        for ladder in [true, false] {
            points.push(run_point(model.clone(), npu, dropout, ladder, effort));
        }
    }
    RobustnessReport { points }
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
        let on = run_point(model.clone(), 1.0, 0.0, true, Effort::Quick);
        let off = run_point(model, 1.0, 0.0, false, Effort::Quick);

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
        let point = run_point(quick_model(), 0.0, 0.0, true, Effort::Quick);
        assert_eq!(point.npu_failures, 0);
        assert_eq!(point.breaker_opens, 0);
        assert_eq!(point.degraded_epochs, 0);
        assert_eq!(point.cpu_fallback_epochs, 0);
        assert_eq!(point.failsafe_events, 0);
        assert!(point.executions > 0);
    }
}
