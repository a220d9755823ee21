//! State quantization and RL hyper-parameters.

use hikey_platform::{AppSnapshot, Platform};
use hmc_types::{Cluster, NUM_CORES};

/// Actions: one migration target per core.
pub const NUM_ACTIONS: usize = NUM_CORES;

/// Quantized state-space size. With 8 actions this yields the paper's
/// Q-table of 288 × 8 = 2,304 entries.
pub const NUM_STATES: usize = 2 * 2 * 3 * 4 * 3 * 2;

/// Bins of the L2D access-rate feature (accesses per second).
const L2D_THRESHOLDS: [f64; 2] = [10.0e6, 40.0e6];

/// Q-learning hyper-parameters (taken from the paper / its reference
/// [Lu et al. 2015]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlConfig {
    /// Exploration probability of the ε-greedy policy.
    pub epsilon: f64,
    /// Discount factor γ.
    pub gamma: f32,
    /// Learning rate α.
    pub alpha: f32,
    /// Reward baseline: `r = reward_base − T`.
    pub reward_base: f32,
    /// Reward on any QoS violation (empirically tuned in the paper).
    pub qos_penalty: f32,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            epsilon: 0.1,
            gamma: 0.8,
            alpha: 0.05,
            reward_base: 80.0,
            qos_penalty: -200.0,
        }
    }
}

/// Quantizes an application's observation into a discrete state index.
///
/// Dimensions: AoI cluster (2) × QoS-met (2) × L2D bin (3) × LITTLE V/f
/// bin (4) × big V/f bin (3) × other-cluster-has-free-core (2).
pub fn quantize_state(platform: &Platform, snapshot: &AppSnapshot) -> usize {
    let cluster = snapshot.core.cluster().index(); // 2
    let qos_met = usize::from(snapshot.qos_current.meets(snapshot.qos_target.ips())); // 2
    let l2d = L2D_THRESHOLDS
        .iter()
        .position(|&t| snapshot.l2d_per_sec < t)
        .unwrap_or(L2D_THRESHOLDS.len()); // 3
    let fl_bin = bin_level(
        platform.cluster_level(Cluster::Little),
        platform.opp_table(Cluster::Little).len(),
        4,
    ); // 4
    let fb_bin = bin_level(
        platform.cluster_level(Cluster::Big),
        platform.opp_table(Cluster::Big).len(),
        3,
    ); // 3
    let other_free = usize::from(
        snapshot
            .core
            .cluster()
            .other()
            .cores()
            .any(|c| platform.apps_on_core(c) == 0),
    ); // 2
    let state = ((((cluster * 2 + qos_met) * 3 + l2d) * 4 + fl_bin) * 3 + fb_bin) * 2 + other_free;
    debug_assert!(state < NUM_STATES);
    state
}

/// Maps an OPP index in `0..table_len` onto `0..bins`.
fn bin_level(level: usize, table_len: usize, bins: usize) -> usize {
    (level * bins / table_len).min(bins - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hikey_platform::PlatformConfig;
    use hmc_types::CoreId;
    use workloads::{Benchmark, QosSpec, Workload};

    #[test]
    fn state_space_matches_paper_qtable_size() {
        assert_eq!(NUM_STATES * NUM_ACTIONS, 2304);
    }

    #[test]
    fn bin_level_covers_range() {
        assert_eq!(bin_level(0, 7, 4), 0);
        assert_eq!(bin_level(6, 7, 4), 3);
        assert_eq!(bin_level(8, 9, 3), 2);
        for level in 0..9 {
            assert!(bin_level(level, 9, 3) < 3);
        }
    }

    #[test]
    fn distinct_observations_map_to_distinct_states() {
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let spec = w.iter().next().unwrap();
        platform.admit(spec, CoreId::new(1)); // LITTLE
        platform.admit(spec, CoreId::new(5)); // big
        for _ in 0..200 {
            platform.tick();
        }
        let snaps = platform.snapshots();
        let s0 = quantize_state(&platform, &snaps[0]);
        let s1 = quantize_state(&platform, &snaps[1]);
        assert_ne!(s0, s1, "cluster dimension must separate the two");
        assert!(s0 < NUM_STATES && s1 < NUM_STATES);
    }

    #[test]
    fn frequency_change_changes_state() {
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        platform.admit(w.iter().next().unwrap(), CoreId::new(5));
        for _ in 0..200 {
            platform.tick();
        }
        let hi = quantize_state(&platform, &platform.snapshots()[0]);
        platform.set_cluster_level(Cluster::Big, 0);
        for _ in 0..200 {
            platform.tick();
        }
        let lo = quantize_state(&platform, &platform.snapshots()[0]);
        assert_ne!(hi, lo);
    }
}
