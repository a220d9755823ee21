//! The simulation driver: workload arrivals + policy + platform.

use faults::FaultPlan;
use hmc_types::{AppId, Celsius, Cluster, CoreId, Frequency, SimDuration, SimTime};
use thermal::{Cooling, ThermalParams};
use trace::{TraceConfig, TraceLog};
use workloads::Workload;

use crate::metrics::RunMetrics;
use crate::platform::{Platform, PlatformConfig};
use crate::policy::{DegradationReport, Policy};
use crate::sensor::SensorFilterConfig;

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Cooling setup.
    pub cooling: Cooling,
    /// Base timestep.
    pub tick: SimDuration,
    /// Hard cap on simulated time.
    pub max_duration: SimDuration,
    /// Stop as soon as the workload is drained and all applications have
    /// completed (otherwise run until `max_duration`).
    pub stop_when_idle: bool,
    /// Interval between trace samples (`None` disables tracing).
    pub trace_interval: Option<SimDuration>,
    /// Whether DTM throttling is active.
    pub dtm_enabled: bool,
    /// Thermal-model perturbations (sensitivity analysis).
    pub thermal_params: ThermalParams,
    /// Fault-injection plan for sensor and DVFS faults (`None` = pristine
    /// hardware).
    pub fault_plan: Option<FaultPlan>,
    /// Sensor plausibility filtering (`None` disables the degradation
    /// ladder on the sensor path).
    pub sensor_filter: Option<SensorFilterConfig>,
    /// Structured event tracing (granularity, ring capacity, sample
    /// interval). Off by default; never perturbs the simulation.
    pub trace: TraceConfig,
    /// Thread budget available to whoever drives this simulation (sweep
    /// supervisors, fleet runners). The single-board tick loop itself is
    /// sequential; the budget is carried here so one config travels
    /// through every layer. Results are bit-identical at every budget, so
    /// it is never encoded into traces or checkpoints.
    pub budget: par::Budget,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cooling: Cooling::fan(),
            tick: SimDuration::from_millis(1),
            max_duration: SimDuration::from_secs(3600),
            stop_when_idle: true,
            trace_interval: None,
            dtm_enabled: true,
            thermal_params: ThermalParams::default(),
            fault_plan: None,
            sensor_filter: Some(SensorFilterConfig::default()),
            trace: TraceConfig::off(),
            budget: par::Budget::serial(),
        }
    }
}

/// One sample of the run-time trace (for the paper's time-series figures).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Sample time.
    pub at: SimTime,
    /// Thermal-sensor reading.
    pub sensor: Celsius,
    /// Per-cluster frequency (LITTLE, big).
    pub frequency: [Frequency; 2],
    /// Core each running application is pinned to.
    pub app_cores: Vec<(AppId, CoreId)>,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy name.
    pub policy: String,
    /// Aggregated metrics.
    pub metrics: RunMetrics,
    /// Optional time-series trace.
    pub trace: Vec<TraceSample>,
    /// Structured event trace (`None` when `SimConfig::trace` is off).
    pub events: Option<TraceLog>,
    /// Degradation counters reported by the policy (`None` for policies
    /// without a degradation ladder).
    pub degradation: Option<DegradationReport>,
}

/// Drives a [`Platform`] through a [`Workload`] under a [`Policy`].
///
/// # Examples
///
/// ```
/// use hikey_platform::{Platform, Policy, SimConfig, Simulator};
/// use hmc_types::SimDuration;
/// use workloads::{Benchmark, QosSpec, Workload};
///
/// struct DoNothing;
/// impl Policy for DoNothing {
///     fn name(&self) -> &str { "nothing" }
///     fn on_tick(&mut self, _: &mut Platform) {}
/// }
///
/// let config = SimConfig {
///     max_duration: SimDuration::from_secs(2),
///     ..SimConfig::default()
/// };
/// let workload = Workload::single(Benchmark::Swaptions, QosSpec::FractionOfMaxBig(0.2));
/// let report = Simulator::new(config).run(&workload, &mut DoNothing);
/// assert_eq!(report.metrics.outcomes().len(), 1);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// Runs `workload` to completion (or to the time cap) under `policy`,
    /// one fixed timestep at a time.
    pub fn run(&self, workload: &Workload, policy: &mut dyn Policy) -> RunReport {
        let mut platform = Platform::new(PlatformConfig {
            cooling: self.config.cooling,
            tick: self.config.tick,
            dtm_enabled: self.config.dtm_enabled,
            thermal_params: self.config.thermal_params,
            fault_plan: self.config.fault_plan,
            sensor_filter: self.config.sensor_filter,
            trace: self.config.trace,
        });
        policy.on_start(&mut platform);

        let mut arrivals = workload.iter().peekable();
        let mut trace = Vec::new();
        let mut next_trace = SimTime::ZERO;

        loop {
            let now = platform.now();

            // Admit due arrivals; the policy chooses the initial core.
            while let Some(spec) = arrivals.peek() {
                if spec.at > now {
                    break;
                }
                let spec = **arrivals.peek().expect("peeked above");
                arrivals.next();
                let model = spec.benchmark.model();
                let target = spec.qos.resolve(
                    &model,
                    platform.opp_table(Cluster::Little).max_frequency(),
                    platform.opp_table(Cluster::Big).max_frequency(),
                );
                let core = policy.placement(&platform, &model, target);
                platform.admit(&spec, core);
            }

            // Trace sampling.
            if let Some(interval) = self.config.trace_interval {
                if now >= next_trace {
                    trace.push(TraceSample {
                        at: now,
                        sensor: platform.sensor(),
                        frequency: [
                            platform.cluster_frequency(Cluster::Little),
                            platform.cluster_frequency(Cluster::Big),
                        ],
                        app_cores: platform
                            .snapshots()
                            .iter()
                            .map(|s| (s.id, s.core))
                            .collect(),
                    });
                    next_trace = now + interval;
                }
            }

            // Policy acts, then the platform advances.
            policy.on_tick(&mut platform);
            platform.tick();

            let drained = arrivals.peek().is_none();
            if self.config.stop_when_idle && drained && platform.app_count() == 0 {
                break;
            }
            if platform.now().since(SimTime::ZERO).as_nanos() >= self.config.max_duration.as_nanos()
            {
                break;
            }
        }

        let degradation = policy.degradation();
        let (metrics, events) = platform.finish();
        RunReport {
            policy: policy.name().to_string(),
            metrics,
            trace,
            events,
            degradation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{ArrivalSpec, Benchmark, QosSpec};

    struct Idle;
    impl Policy for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn on_tick(&mut self, _: &mut Platform) {}
    }

    fn short_workload() -> Workload {
        Workload::new(vec![
            ArrivalSpec {
                at: SimTime::ZERO,
                benchmark: Benchmark::Swaptions,
                qos: QosSpec::FractionOfMaxBig(0.2),
                total_instructions: Some(2_000_000_000),
            },
            ArrivalSpec {
                at: SimTime::from_millis(200),
                benchmark: Benchmark::Adi,
                qos: QosSpec::FractionOfMaxBig(0.2),
                total_instructions: Some(2_000_000_000),
            },
        ])
    }

    #[test]
    fn runs_workload_to_completion() {
        let report = Simulator::new(SimConfig::default()).run(&short_workload(), &mut Idle);
        assert_eq!(report.metrics.outcomes().len(), 2);
        assert!(report
            .metrics
            .outcomes()
            .iter()
            .all(|o| o.finished_at.is_some()));
        assert_eq!(report.policy, "idle");
    }

    #[test]
    fn respects_max_duration() {
        let config = SimConfig {
            max_duration: SimDuration::from_millis(50),
            ..SimConfig::default()
        };
        let report = Simulator::new(config).run(&short_workload(), &mut Idle);
        assert!(report.metrics.elapsed() <= SimDuration::from_millis(51));
    }

    #[test]
    fn trace_sampling_interval() {
        let config = SimConfig {
            max_duration: SimDuration::from_millis(100),
            stop_when_idle: false,
            trace_interval: Some(SimDuration::from_millis(10)),
            ..SimConfig::default()
        };
        let report = Simulator::new(config).run(&short_workload(), &mut Idle);
        assert!(
            (9..=11).contains(&report.trace.len()),
            "{}",
            report.trace.len()
        );
        assert_eq!(report.trace[0].at, SimTime::ZERO);
    }

    #[test]
    fn late_arrivals_are_admitted_on_time() {
        let config = SimConfig {
            trace_interval: Some(SimDuration::from_millis(50)),
            ..SimConfig::default()
        };
        let report = Simulator::new(config).run(&short_workload(), &mut Idle);
        let early = &report.trace[0];
        assert_eq!(early.app_cores.len(), 1);
        let later: Vec<_> = report
            .trace
            .iter()
            .filter(|s| s.at >= SimTime::from_millis(250))
            .collect();
        assert!(later.iter().any(|s| s.app_cores.len() == 2));
    }
}
