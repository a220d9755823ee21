//! Identifiers for cores, clusters and applications.

use std::fmt;

/// Number of clusters on the modelled platform (LITTLE and big).
pub const NUM_CLUSTERS: usize = 2;

/// Number of cores per cluster on the modelled HiKey 970 (4 + 4).
pub const CORES_PER_CLUSTER: usize = 4;

/// Total number of CPU cores.
pub const NUM_CORES: usize = NUM_CLUSTERS * CORES_PER_CLUSTER;

/// One of the two CPU clusters of the Arm big.LITTLE platform.
///
/// Cores 0–3 belong to [`Cluster::Little`] (Cortex-A53), cores 4–7 to
/// [`Cluster::Big`] (Cortex-A73), matching the HiKey 970 numbering.
///
/// # Examples
///
/// ```
/// use hmc_types::{Cluster, CoreId};
/// assert_eq!(CoreId::new(3).cluster(), Cluster::Little);
/// assert_eq!(CoreId::new(6).cluster(), Cluster::Big);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cluster {
    /// The energy-efficient Cortex-A53 cluster.
    Little,
    /// The high-performance out-of-order Cortex-A73 cluster.
    Big,
}

impl Cluster {
    /// Both clusters, LITTLE first.
    pub const ALL: [Cluster; NUM_CLUSTERS] = [Cluster::Little, Cluster::Big];

    /// Returns a dense index (0 for LITTLE, 1 for big).
    pub const fn index(self) -> usize {
        match self {
            Cluster::Little => 0,
            Cluster::Big => 1,
        }
    }

    /// Returns the cluster with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_CLUSTERS`.
    pub fn from_index(index: usize) -> Cluster {
        match index {
            0 => Cluster::Little,
            1 => Cluster::Big,
            _ => panic!("cluster index {index} out of range"),
        }
    }

    /// Returns the other cluster.
    pub const fn other(self) -> Cluster {
        match self {
            Cluster::Little => Cluster::Big,
            Cluster::Big => Cluster::Little,
        }
    }

    /// Returns an iterator over the cores belonging to this cluster.
    pub fn cores(self) -> impl Iterator<Item = CoreId> {
        let base = self.index() * CORES_PER_CLUSTER;
        (base..base + CORES_PER_CLUSTER).map(CoreId::new)
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cluster::Little => write!(f, "LITTLE"),
            Cluster::Big => write!(f, "big"),
        }
    }
}

/// A CPU core index in `0..NUM_CORES`.
///
/// # Examples
///
/// ```
/// use hmc_types::{Cluster, CoreId};
/// let c = CoreId::new(5);
/// assert_eq!(c.index(), 5);
/// assert_eq!(c.cluster(), Cluster::Big);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u8);

impl CoreId {
    /// Creates a core identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_CORES`.
    pub fn new(index: usize) -> Self {
        assert!(index < NUM_CORES, "core index {index} out of range");
        CoreId(index as u8)
    }

    /// Returns the dense core index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the cluster this core belongs to.
    pub const fn cluster(self) -> Cluster {
        if (self.0 as usize) < CORES_PER_CLUSTER {
            Cluster::Little
        } else {
            Cluster::Big
        }
    }

    /// Returns an iterator over all cores, in index order.
    pub fn all() -> impl Iterator<Item = CoreId> {
        (0..NUM_CORES).map(CoreId::new)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A unique identifier for an application instance within one simulation.
///
/// # Examples
///
/// ```
/// use hmc_types::AppId;
/// let a = AppId::new(7);
/// assert_eq!(a.value(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(u64);

impl AppId {
    /// Creates an application identifier from a raw value.
    pub const fn new(id: u64) -> Self {
        AppId(id)
    }

    /// Returns the raw identifier value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_core_membership() {
        for i in 0..CORES_PER_CLUSTER {
            assert_eq!(CoreId::new(i).cluster(), Cluster::Little);
        }
        for i in CORES_PER_CLUSTER..NUM_CORES {
            assert_eq!(CoreId::new(i).cluster(), Cluster::Big);
        }
    }

    #[test]
    fn cluster_cores_iterator() {
        let little: Vec<usize> = Cluster::Little.cores().map(CoreId::index).collect();
        assert_eq!(little, vec![0, 1, 2, 3]);
        let big: Vec<usize> = Cluster::Big.cores().map(CoreId::index).collect();
        assert_eq!(big, vec![4, 5, 6, 7]);
    }

    #[test]
    fn cluster_index_round_trip() {
        for cluster in Cluster::ALL {
            assert_eq!(Cluster::from_index(cluster.index()), cluster);
        }
        assert_eq!(Cluster::Little.other(), Cluster::Big);
        assert_eq!(Cluster::Big.other(), Cluster::Little);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_id_rejects_out_of_range() {
        let _ = CoreId::new(NUM_CORES);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoreId::new(3).to_string(), "core3");
        assert_eq!(Cluster::Big.to_string(), "big");
        assert_eq!(AppId::new(2).to_string(), "app2");
    }
}
