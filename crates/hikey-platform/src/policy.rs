//! The resource-management policy interface.

use hmc_types::AppModel;
use hmc_types::{CoreId, QosTarget, SimDuration};

use crate::Platform;

/// Counters describing how far a policy degraded from its nominal
/// operating mode during a run (retries, fallbacks, skipped epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DegradationReport {
    /// Migration epochs where inference missed its deadline and the
    /// migration step was skipped (DVFS kept running).
    pub degraded_epochs: u64,
    /// Migration epochs served by the CPU inference fallback.
    pub cpu_fallback_epochs: u64,
    /// Total time spent with the CPU fallback active.
    pub fallback_active_time: SimDuration,
    /// Individual NPU job failures observed (before retries).
    pub npu_failures: u64,
    /// Times the NPU circuit breaker opened.
    pub breaker_opens: u64,
}

/// A run-time resource-management policy (scheduler + DVFS governor).
///
/// Policies are driven by the [`Simulator`](crate::Simulator): they receive
/// `on_tick` every platform tick and internally decide their own periods
/// (e.g. TOP-IL runs DVFS every 50 ms and migration every 500 ms). All
/// observation and actuation happens through the [`Platform`] surface,
/// which mirrors what is available on the real board (perf counters,
/// `/proc`, the thermal sensor, `userspace` cpufreq and affinity).
///
/// Policies report their own CPU cost via
/// [`Platform::consume_governor_time`], which slows down core 0 exactly
/// like the paper's single-threaded governor binary.
pub trait Policy {
    /// Short name used in reports ("TOP-IL", "GTS/ondemand", ...).
    fn name(&self) -> &str;

    /// Called once before the simulation starts.
    fn on_start(&mut self, platform: &mut Platform) {
        let _ = platform;
    }

    /// Chooses the initial core for a newly arriving application.
    ///
    /// The default mirrors a load-balancing scheduler: pick a free core
    /// (big first, matching GTS's preference for performance), otherwise
    /// the least-populated core.
    fn placement(&mut self, platform: &Platform, model: &AppModel, qos: QosTarget) -> CoreId {
        let _ = (model, qos);
        default_placement(platform)
    }

    /// Called every platform tick, before the platform advances.
    fn on_tick(&mut self, platform: &mut Platform);

    /// Degradation counters accumulated over the run (`None` for policies
    /// without a degradation ladder).
    fn degradation(&self) -> Option<DegradationReport> {
        None
    }
}

/// Default arrival placement: a free big core, then a free LITTLE core,
/// then the globally least-populated core.
pub fn default_placement(platform: &Platform) -> CoreId {
    let free = platform.free_cores();
    if let Some(&core) = free.iter().find(|c| c.cluster() == hmc_types::Cluster::Big) {
        return core;
    }
    if let Some(&core) = free.first() {
        return core;
    }
    CoreId::all()
        .min_by_key(|&c| platform.apps_on_core(c))
        .unwrap_or_else(|| CoreId::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlatformConfig;
    use hmc_types::Cluster;
    use workloads::{Benchmark, QosSpec, Workload};

    #[test]
    fn default_placement_prefers_free_big() {
        let platform = Platform::new(PlatformConfig::default());
        assert_eq!(default_placement(&platform).cluster(), Cluster::Big);
    }

    #[test]
    fn default_placement_falls_back_to_little_then_least_loaded() {
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.1));
        let spec = w.iter().next().unwrap();
        for core in Cluster::Big.cores() {
            platform.admit(spec, core);
        }
        assert_eq!(default_placement(&platform).cluster(), Cluster::Little);
        for core in Cluster::Little.cores() {
            platform.admit(spec, core);
        }
        // All cores busy: least populated (all equal -> core 0).
        assert_eq!(default_placement(&platform), CoreId::new(0));
        platform.admit(spec, CoreId::new(0));
        assert_ne!(default_placement(&platform), CoreId::new(0));
    }
}
