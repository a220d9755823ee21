//! Operating performance points (V/f levels) of the HiKey 970.

use hmc_types::{Cluster, Frequency, Voltage};

/// One operating performance point: a frequency and its supply voltage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opp {
    /// Clock frequency of this level.
    pub frequency: Frequency,
    /// Supply voltage required at this frequency.
    pub voltage: Voltage,
}

/// The ordered list of V/f levels available to one cluster.
///
/// Levels are sorted ascending by frequency, matching the Linux cpufreq
/// tables of the Kirin 970.
///
/// # Examples
///
/// ```
/// use hmc_types::{Cluster, Frequency};
/// use hikey_platform::OppTable;
///
/// let big = OppTable::hikey970(Cluster::Big);
/// assert_eq!(big.max_frequency(), Frequency::from_mhz(2362));
/// assert_eq!(big.len(), 9);
/// let level = big.index_of(Frequency::from_mhz(1018)).unwrap();
/// assert_eq!(big.opp(level).frequency, Frequency::from_mhz(1018));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OppTable {
    cluster: Cluster,
    opps: Vec<Opp>,
}

/// Kirin 970 LITTLE-cluster (Cortex-A53) frequency/voltage table.
const LITTLE_OPPS: [(u64, u32); 7] = [
    (509, 700),
    (1018, 750),
    (1210, 800),
    (1402, 850),
    (1556, 900),
    (1690, 950),
    (1844, 1000),
];

/// Kirin 970 big-cluster (Cortex-A73) frequency/voltage table.
const BIG_OPPS: [(u64, u32); 9] = [
    (682, 700),
    (1018, 750),
    (1210, 780),
    (1364, 820),
    (1498, 850),
    (1652, 900),
    (1863, 950),
    (2093, 1020),
    (2362, 1100),
];

impl OppTable {
    /// Builds the full HiKey 970 table for `cluster`.
    pub fn hikey970(cluster: Cluster) -> Self {
        let raw: &[(u64, u32)] = match cluster {
            Cluster::Little => &LITTLE_OPPS,
            Cluster::Big => &BIG_OPPS,
        };
        OppTable {
            cluster,
            opps: raw
                .iter()
                .map(|&(mhz, mv)| Opp {
                    frequency: Frequency::from_mhz(mhz),
                    voltage: Voltage::from_millivolts(mv),
                })
                .collect(),
        }
    }

    /// Builds the reduced table used during oracle trace collection (the
    /// paper obtains traces "for a reduced set of V/f levels" to cut the
    /// collection time): every other level, always including the lowest
    /// and highest.
    pub fn hikey970_reduced(cluster: Cluster) -> Self {
        let full = Self::hikey970(cluster);
        let last = full.opps.len() - 1;
        let opps = full
            .opps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i % 2 == 0 || i == last)
            .map(|(_, &opp)| opp)
            .collect();
        OppTable {
            cluster: full.cluster,
            opps,
        }
    }

    /// Builds a table from explicit levels (ascending by frequency).
    ///
    /// # Panics
    ///
    /// Panics if `opps` is empty or not strictly ascending in frequency.
    pub fn from_opps(cluster: Cluster, opps: Vec<Opp>) -> Self {
        assert!(!opps.is_empty(), "OPP table must not be empty");
        assert!(
            opps.windows(2).all(|w| w[0].frequency < w[1].frequency),
            "OPP table must be strictly ascending"
        );
        OppTable { cluster, opps }
    }

    /// Returns the cluster this table belongs to.
    pub fn cluster(&self) -> Cluster {
        self.cluster
    }

    /// Number of V/f levels.
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// Returns `true` if the table has no levels (never the case for the
    /// built-in tables).
    pub fn is_empty(&self) -> bool {
        self.opps.is_empty()
    }

    /// Returns the level at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn opp(&self, index: usize) -> Opp {
        self.opps[index]
    }

    /// Iterates over all levels, lowest frequency first.
    pub fn iter(&self) -> std::slice::Iter<'_, Opp> {
        self.opps.iter()
    }

    /// Returns all frequencies, ascending.
    pub fn frequencies(&self) -> Vec<Frequency> {
        self.opps.iter().map(|o| o.frequency).collect()
    }

    /// The lowest available frequency.
    pub fn min_frequency(&self) -> Frequency {
        self.opps[0].frequency
    }

    /// The highest available frequency.
    pub fn max_frequency(&self) -> Frequency {
        self.opps[self.opps.len() - 1].frequency
    }

    /// Returns the index of an exact frequency, or `None`.
    pub fn index_of(&self, f: Frequency) -> Option<usize> {
        self.opps.iter().position(|o| o.frequency == f)
    }

    /// Returns the lowest level whose frequency is `>= f`, or the highest
    /// level if `f` exceeds the table.
    pub fn ceil_index(&self, f: Frequency) -> usize {
        self.opps
            .iter()
            .position(|o| o.frequency >= f)
            .unwrap_or(self.opps.len() - 1)
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = &'a Opp;
    type IntoIter = std::slice::Iter<'a, Opp>;
    fn into_iter(self) -> Self::IntoIter {
        self.opps.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hikey_tables_match_datasheet() {
        let little = OppTable::hikey970(Cluster::Little);
        let big = OppTable::hikey970(Cluster::Big);
        assert_eq!(little.len(), 7);
        assert_eq!(big.len(), 9);
        assert_eq!(little.min_frequency(), Frequency::from_mhz(509));
        assert_eq!(little.max_frequency(), Frequency::from_mhz(1844));
        assert_eq!(big.min_frequency(), Frequency::from_mhz(682));
        assert_eq!(big.max_frequency(), Frequency::from_mhz(2362));
    }

    #[test]
    fn voltages_rise_with_frequency() {
        for cluster in Cluster::ALL {
            let table = OppTable::hikey970(cluster);
            assert!(table
                .iter()
                .zip(table.iter().skip(1))
                .all(|(a, b)| a.voltage <= b.voltage));
        }
    }

    #[test]
    fn reduced_table_keeps_extremes() {
        for cluster in Cluster::ALL {
            let full = OppTable::hikey970(cluster);
            let reduced = OppTable::hikey970_reduced(cluster);
            assert!(reduced.len() < full.len());
            assert_eq!(reduced.min_frequency(), full.min_frequency());
            assert_eq!(reduced.max_frequency(), full.max_frequency());
        }
    }

    #[test]
    fn ceil_index_behaviour() {
        let big = OppTable::hikey970(Cluster::Big);
        assert_eq!(big.ceil_index(Frequency::from_mhz(1)), 0);
        assert_eq!(big.ceil_index(Frequency::from_mhz(682)), 0);
        assert_eq!(big.ceil_index(Frequency::from_mhz(683)), 1);
        assert_eq!(big.ceil_index(Frequency::from_mhz(9999)), big.len() - 1);
    }

    #[test]
    fn index_of_exact_only() {
        let little = OppTable::hikey970(Cluster::Little);
        assert_eq!(little.index_of(Frequency::from_mhz(1210)), Some(2));
        assert_eq!(little.index_of(Frequency::from_mhz(1211)), None);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_opps_rejects_unsorted() {
        let o = |mhz| Opp {
            frequency: Frequency::from_mhz(mhz),
            voltage: Voltage::from_millivolts(800),
        };
        let _ = OppTable::from_opps(Cluster::Big, vec![o(1000), o(500)]);
    }
}
