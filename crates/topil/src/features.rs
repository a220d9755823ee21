//! The feature vector of Table 2 (21 features per application-of-interest).
//!
//! | Feature | Count |
//! |---|---|
//! | AoI QoS (current IPS)               | 1 |
//! | AoI L2D accesses per second         | 1 |
//! | AoI current mapping (one-hot)       | 8 |
//! | AoI QoS target                      | 1 |
//! | `f̃_{x∖AoI} / f_x` per cluster      | 2 |
//! | Core utilizations (without the AoI) | 8 |

use hikey_platform::Platform;
use hmc_types::{AppId, Cluster, CoreId, Ips, QosTarget, NUM_CORES};

use crate::util::estimate_min_level;

/// Number of features per application-of-interest.
pub const FEATURE_COUNT: usize = 21;

/// Scale for IPS-valued features (raw IPS → GIPS keeps values O(1)).
const IPS_SCALE: f32 = 1e-9;
/// Scale for the L2D access-rate feature (accesses/s → G/s).
const L2D_SCALE: f32 = 1e-9;

/// The structured feature vector for one AoI (Table 2).
///
/// # Examples
///
/// ```
/// use hmc_types::{CoreId, Ips, QosTarget};
/// use topil::Features;
///
/// let f = Features {
///     qos_current: Ips::from_mips(471.0),
///     l2d_per_sec: 4.0e6,
///     current_core: CoreId::new(3),
///     qos_target: QosTarget::new(Ips::from_mips(400.0)),
///     required_vf_ratio: [0.76, 1.0],
///     core_utilization: [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
/// };
/// let arr = f.to_array();
/// assert_eq!(arr.len(), topil::FEATURE_COUNT);
/// assert_eq!(arr[2 + 3], 1.0); // one-hot of core 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Features {
    /// Current measured performance of the AoI (`q_AoI`).
    pub qos_current: Ips,
    /// Current L2 data-cache access rate of the AoI.
    pub l2d_per_sec: f64,
    /// Core the AoI currently runs on.
    pub current_core: CoreId,
    /// The AoI's QoS target (`Q_AoI`).
    pub qos_target: QosTarget,
    /// Per-cluster ratio `f̃_{x∖AoI} / f_x`: the V/f level the *background*
    /// would require relative to the current level — the potential V/f
    /// saving if the AoI left the cluster (LITTLE, big).
    pub required_vf_ratio: [f64; 2],
    /// Occupancy of each core by applications **other than** the AoI.
    pub core_utilization: [f64; NUM_CORES],
}

impl Features {
    /// Flattens into the network's input layout.
    pub fn to_array(&self) -> [f32; FEATURE_COUNT] {
        let mut out = [0.0f32; FEATURE_COUNT];
        out[0] = self.qos_current.value() as f32 * IPS_SCALE;
        out[1] = self.l2d_per_sec as f32 * L2D_SCALE;
        out[2 + self.current_core.index()] = 1.0;
        out[10] = self.qos_target.ips().value() as f32 * IPS_SCALE;
        out[11] = self.required_vf_ratio[0] as f32;
        out[12] = self.required_vf_ratio[1] as f32;
        for (i, &u) in self.core_utilization.iter().enumerate() {
            out[13 + i] = u as f32;
        }
        out
    }

    /// Extracts the run-time features for `aoi` from the live platform,
    /// using the linear-scaling estimate of Eq. 1 for the background's
    /// required V/f levels.
    ///
    /// Returns `None` if `aoi` is not running.
    pub fn from_platform(platform: &Platform, aoi: AppId) -> Option<Features> {
        let snapshots = platform.snapshots();
        let aoi_snap = snapshots.iter().find(|s| s.id == aoi)?;

        // Background's required V/f level per cluster: the max of the
        // per-application estimates (f̃_{x∖AoI}).
        let mut required = [0usize; 2];
        let mut has_bg = [false; 2];
        for snap in snapshots.iter().filter(|s| s.id != aoi) {
            let cluster = snap.core.cluster();
            let table = platform.opp_table(cluster);
            let level = estimate_min_level(
                snap.qos_current,
                snap.qos_target,
                platform.cluster_frequency(cluster),
                table,
            );
            required[cluster.index()] = required[cluster.index()].max(level);
            has_bg[cluster.index()] = true;
        }
        let mut ratio = [0.0f64; 2];
        for cluster in Cluster::ALL {
            let i = cluster.index();
            let table = platform.opp_table(cluster);
            let f_required = if has_bg[i] {
                table.opp(required[i]).frequency
            } else {
                table.min_frequency()
            };
            ratio[i] = f_required.ratio(platform.cluster_frequency(cluster));
        }

        let mut util = [0.0f64; NUM_CORES];
        for snap in snapshots.iter().filter(|s| s.id != aoi) {
            util[snap.core.index()] = 1.0;
        }

        Some(Features {
            qos_current: aoi_snap.qos_current,
            l2d_per_sec: aoi_snap.l2d_per_sec,
            current_core: aoi_snap.core,
            qos_target: aoi_snap.qos_target,
            required_vf_ratio: ratio,
            core_utilization: util,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hikey_platform::PlatformConfig;
    use workloads::{Benchmark, QosSpec, Workload};

    fn features() -> Features {
        Features {
            qos_current: Ips::from_mips(471.0),
            l2d_per_sec: 4.0e6,
            current_core: CoreId::new(3),
            qos_target: QosTarget::new(Ips::from_mips(400.0)),
            required_vf_ratio: [0.76, 1.0],
            core_utilization: [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0],
        }
    }

    #[test]
    fn layout_matches_table_2() {
        let arr = features().to_array();
        assert!((arr[0] - 0.471).abs() < 1e-6);
        assert!((arr[1] - 0.004).abs() < 1e-6);
        // One-hot for core 3.
        let onehot = &arr[2..10];
        assert_eq!(onehot.iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(onehot[3], 1.0);
        assert!((arr[10] - 0.4).abs() < 1e-6);
        assert!((arr[11] - 0.76).abs() < 1e-6);
        assert!((arr[12] - 1.0).abs() < 1e-6);
        assert_eq!(&arr[13..21], &[1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn from_platform_excludes_aoi_from_utilization() {
        let mut platform = Platform::new(PlatformConfig::default());
        let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let spec = w.iter().next().unwrap();
        let aoi = platform.admit(spec, CoreId::new(3));
        let bg = platform.admit(spec, CoreId::new(6));
        for _ in 0..200 {
            platform.tick();
        }
        let f = Features::from_platform(&platform, aoi).unwrap();
        assert_eq!(f.current_core, CoreId::new(3));
        assert_eq!(f.core_utilization[3], 0.0, "AoI's own core reads 0");
        assert_eq!(f.core_utilization[6], 1.0, "background core reads 1");
        let g = Features::from_platform(&platform, bg).unwrap();
        assert_eq!(g.core_utilization[3], 1.0);
        assert_eq!(g.core_utilization[6], 0.0);
    }

    #[test]
    fn from_platform_ratio_reflects_background_demand() {
        let mut platform = Platform::new(PlatformConfig::default());
        let aoi_spec = *Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3))
            .iter()
            .next()
            .unwrap();
        // A demanding background on the big cluster.
        let bg_spec = *Workload::single(Benchmark::Syr2k, QosSpec::FractionOfMaxBig(0.9))
            .iter()
            .next()
            .unwrap();
        let aoi = platform.admit(&aoi_spec, CoreId::new(0));
        platform.admit(&bg_spec, CoreId::new(5));
        for _ in 0..300 {
            platform.tick();
        }
        let f = Features::from_platform(&platform, aoi).unwrap();
        // Big background needs nearly the full V/f level.
        assert!(
            f.required_vf_ratio[1] > 0.8,
            "got {:?}",
            f.required_vf_ratio
        );
        // No LITTLE background -> lowest LITTLE level relative to current.
        assert!(f.required_vf_ratio[0] < 0.5);
    }

    #[test]
    fn unknown_app_yields_none() {
        let platform = Platform::new(PlatformConfig::default());
        assert!(Features::from_platform(&platform, AppId::new(42)).is_none());
    }
}
