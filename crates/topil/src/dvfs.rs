//! The per-cluster DVFS control loop (§5.2).
//!
//! Every 50 ms, the loop estimates per application the minimum V/f level
//! that still meets its QoS target by linear scaling from the current
//! operating point (Eq. 1), takes the per-cluster maximum (Eq. 6), and
//! moves each cluster **one OPP step** toward that target (linear scaling
//! is only trustworthy for small changes). Idle clusters run at the lowest
//! level. Iterations overlapping a migration are skipped by the governor
//! to ride out cold-cache transients.

use hikey_platform::Platform;
use hmc_types::{Cluster, SimDuration};

use crate::util::estimate_min_level;

/// Per-invocation base cost of the control loop (bookkeeping).
const BASE_COST: SimDuration = SimDuration::from_micros(30);
/// Per-application cost: reading perf counters dominates (the paper's
/// Fig. 11 shows the loop's overhead growing with the application count).
const PER_APP_COST: SimDuration = SimDuration::from_micros(33);

/// The DVFS control loop.
///
/// # Examples
///
/// ```
/// use hikey_platform::{Platform, PlatformConfig};
/// use topil::dvfs::DvfsControlLoop;
///
/// let mut platform = Platform::new(PlatformConfig::default());
/// let mut dvfs = DvfsControlLoop::new();
/// let cost = dvfs.run(&mut platform);
/// assert!(cost.as_micros() >= 30);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DvfsControlLoop;

impl DvfsControlLoop {
    /// Creates the control loop.
    pub fn new() -> Self {
        DvfsControlLoop
    }

    /// Runs one iteration: steps each cluster one OPP level toward the
    /// minimum that satisfies all its applications' QoS targets. Returns
    /// the CPU cost of the invocation (already charged to the platform).
    pub fn run(&mut self, platform: &mut Platform) -> SimDuration {
        for cluster in Cluster::ALL {
            let table = platform.opp_table(cluster);
            let f_current = platform.cluster_frequency(cluster);
            // Eq. 6: the cluster must satisfy its most demanding app.
            let target_level = platform
                .app_qos()
                .filter(|s| s.core.cluster() == cluster)
                .map(|s| estimate_min_level(s.qos_current, s.qos_target, f_current, table))
                .max();
            let target_level = target_level.unwrap_or(0); // idle -> lowest
            let current = platform.cluster_level(cluster);
            let next = match current.cmp(&target_level) {
                std::cmp::Ordering::Less => current + 1,
                std::cmp::Ordering::Greater => current - 1,
                std::cmp::Ordering::Equal => current,
            };
            if next != current {
                platform.set_cluster_level(cluster, next);
            }
        }
        let cost = BASE_COST + PER_APP_COST * platform.app_count() as u64;
        platform.consume_governor_time(cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hikey_platform::PlatformConfig;
    use hmc_types::CoreId;
    use workloads::{Benchmark, QosSpec, Workload};

    fn platform_with(benchmark: Benchmark, fraction: f64, core: CoreId) -> Platform {
        let mut p = Platform::new(PlatformConfig::default());
        let w = Workload::single(benchmark, QosSpec::FractionOfMaxBig(fraction));
        p.admit(w.iter().next().unwrap(), core);
        p
    }

    fn settle(p: &mut Platform, dvfs: &mut DvfsControlLoop, iterations: usize) {
        for _ in 0..iterations {
            for _ in 0..50 {
                p.tick();
            }
            dvfs.run(p);
        }
    }

    #[test]
    fn idle_clusters_drop_to_lowest_level() {
        let mut p = Platform::new(PlatformConfig::default());
        let mut dvfs = DvfsControlLoop::new();
        settle(&mut p, &mut dvfs, 12);
        assert_eq!(p.cluster_level(Cluster::Little), 0);
        assert_eq!(p.cluster_level(Cluster::Big), 0);
    }

    #[test]
    fn converges_to_minimum_satisfying_level() {
        // adi at 30 % of max big: the big cluster should settle at the
        // lowest OPP (682 MHz) per the motivational example.
        let mut p = platform_with(Benchmark::Adi, 0.3, CoreId::new(5));
        let mut dvfs = DvfsControlLoop::new();
        settle(&mut p, &mut dvfs, 30);
        assert_eq!(
            p.cluster_frequency(Cluster::Big).as_mhz(),
            682,
            "adi@30% on big needs only the lowest OPP"
        );
        // And the QoS target is still met.
        let s = &p.snapshots()[0];
        assert!(
            s.qos_current.meets(s.qos_target.ips()),
            "QoS violated: {} < {}",
            s.qos_current,
            s.qos_target.ips()
        );
    }

    #[test]
    fn steps_one_level_at_a_time() {
        let mut p = platform_with(Benchmark::Adi, 0.3, CoreId::new(5));
        let mut dvfs = DvfsControlLoop::new();
        for _ in 0..100 {
            p.tick();
        }
        let before = p.cluster_level(Cluster::Big);
        dvfs.run(&mut p);
        let after = p.cluster_level(Cluster::Big);
        assert!(before.abs_diff(after) <= 1, "must move at most one step");
    }

    #[test]
    fn demanding_app_raises_level_back_up() {
        let mut p = platform_with(Benchmark::SeidelTwoD, 0.9, CoreId::new(5));
        let mut dvfs = DvfsControlLoop::new();
        // Drop to the lowest level artificially, then let the loop recover.
        p.set_cluster_level(Cluster::Big, 0);
        settle(&mut p, &mut dvfs, 30);
        let s = &p.snapshots()[0];
        assert!(
            s.qos_current.meets(s.qos_target.ips()),
            "loop failed to recover QoS: {} < {}",
            s.qos_current,
            s.qos_target.ips()
        );
        assert!(p.cluster_level(Cluster::Big) > 4);
    }

    #[test]
    fn cluster_follows_most_demanding_app() {
        let mut p = platform_with(Benchmark::Adi, 0.1, CoreId::new(5));
        let w = Workload::single(Benchmark::SeidelTwoD, QosSpec::FractionOfMaxBig(0.8));
        p.admit(w.iter().next().unwrap(), CoreId::new(6));
        let mut dvfs = DvfsControlLoop::new();
        settle(&mut p, &mut dvfs, 40);
        // seidel-2d at 80 % forces a high big level even though adi would
        // be happy at the lowest.
        assert!(p.cluster_level(Cluster::Big) >= 6);
    }

    #[test]
    fn cost_scales_with_app_count() {
        let mut p = Platform::new(PlatformConfig::default());
        let mut dvfs = DvfsControlLoop::new();
        let empty_cost = dvfs.run(&mut p);
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.2));
        for core in [1usize, 2, 5, 6] {
            p.admit(w.iter().next().unwrap(), CoreId::new(core));
        }
        let loaded_cost = dvfs.run(&mut p);
        assert!(loaded_cost > empty_cost);
        assert_eq!(
            (loaded_cost - empty_cost).as_micros(),
            4 * PER_APP_COST.as_micros()
        );
    }
}
