//! The benchmark catalog: 8 Polybench kernels + 8 PARSEC applications.

use std::fmt;
use std::str::FromStr;

use hmc_types::{AppModel, Cluster, Phase, TypeError};

/// One of the sixteen benchmarks used in the paper's evaluation.
///
/// The first eight are Polybench kernels (steady-state); the last eight are
/// PARSEC applications (phased). The paper's training set is all Polybench
/// kernels **except** `jacobi-2d`; everything else is unseen.
///
/// # Examples
///
/// ```
/// use workloads::Benchmark;
/// assert_eq!(Benchmark::SeidelTwoD.model().name(), "seidel-2d");
/// assert_eq!("canneal".parse::<Benchmark>().unwrap(), Benchmark::Canneal);
/// assert_eq!(Benchmark::all().len(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    // Polybench
    Adi,
    FdtdTwoD,
    FloydWarshall,
    Gramschmidt,
    HeatThreeD,
    JacobiTwoD,
    SeidelTwoD,
    Syr2k,
    // PARSEC
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Facesim,
    Ferret,
    Fluidanimate,
    Swaptions,
}

impl Benchmark {
    /// All sixteen benchmarks, Polybench first.
    pub const fn all() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            Adi,
            FdtdTwoD,
            FloydWarshall,
            Gramschmidt,
            HeatThreeD,
            JacobiTwoD,
            SeidelTwoD,
            Syr2k,
            Blackscholes,
            Bodytrack,
            Canneal,
            Dedup,
            Facesim,
            Ferret,
            Fluidanimate,
            Swaptions,
        ]
    }

    /// The benchmarks used for oracle trace collection and model training:
    /// all Polybench kernels except `jacobi-2d`.
    pub const fn training_set() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            Adi,
            FdtdTwoD,
            FloydWarshall,
            Gramschmidt,
            HeatThreeD,
            SeidelTwoD,
            Syr2k,
        ]
    }

    /// The benchmarks never shown during training (PARSEC + `jacobi-2d`).
    pub const fn unseen_set() -> &'static [Benchmark] {
        use Benchmark::*;
        &[
            JacobiTwoD,
            Blackscholes,
            Bodytrack,
            Canneal,
            Dedup,
            Facesim,
            Ferret,
            Fluidanimate,
            Swaptions,
        ]
    }

    /// Returns the benchmark's canonical lowercase name.
    pub const fn name(self) -> &'static str {
        use Benchmark::*;
        match self {
            Adi => "adi",
            FdtdTwoD => "fdtd-2d",
            FloydWarshall => "floyd-warshall",
            Gramschmidt => "gramschmidt",
            HeatThreeD => "heat-3d",
            JacobiTwoD => "jacobi-2d",
            SeidelTwoD => "seidel-2d",
            Syr2k => "syr2k",
            Blackscholes => "blackscholes",
            Bodytrack => "bodytrack",
            Canneal => "canneal",
            Dedup => "dedup",
            Facesim => "facesim",
            Ferret => "ferret",
            Fluidanimate => "fluidanimate",
            Swaptions => "swaptions",
        }
    }

    /// Returns `true` if this benchmark is a Polybench kernel (steady-state
    /// performance, no execution phases).
    pub const fn is_polybench(self) -> bool {
        use Benchmark::*;
        matches!(
            self,
            Adi | FdtdTwoD
                | FloydWarshall
                | Gramschmidt
                | HeatThreeD
                | JacobiTwoD
                | SeidelTwoD
                | Syr2k
        )
    }

    /// Builds the calibrated analytic model for this benchmark.
    ///
    /// Parameters `(cpi_big, cpi_little, mem_big_ns, mem_little_ns)` control
    /// the big-cluster benefit and the V/f sensitivity; `l2d` and `activity`
    /// control observability and power.
    pub fn model(self) -> AppModel {
        use Benchmark::*;
        // (cpi_big, cpi_little, mem_big, mem_little, l2d/kinst, activity)
        let (cb, cl, mb, ml, l2d, act) = match self {
            // adi: compute-bound, huge big-cluster benefit. Calibrated so a
            // 30 % QoS target needs 1.844 GHz LITTLE but only 0.682 GHz big.
            Adi => (1.0, 2.7, 0.05, 0.06, 8.0, 1.10),
            FdtdTwoD => (1.4, 2.4, 0.25, 0.30, 35.0, 0.90),
            FloydWarshall => (1.2, 2.6, 0.10, 0.12, 15.0, 1.20),
            Gramschmidt => (1.1, 2.3, 0.15, 0.18, 20.0, 1.00),
            HeatThreeD => (1.5, 2.2, 0.50, 0.60, 50.0, 0.85),
            JacobiTwoD => (1.4, 2.3, 0.35, 0.42, 40.0, 0.90),
            // seidel-2d: small big-cluster benefit. Calibrated so a 30 %
            // QoS target needs 1.210 GHz LITTLE vs 1.018 GHz big, with the
            // LITTLE mapping marginally cooler.
            SeidelTwoD => (2.0, 3.2, 0.02, 0.025, 12.0, 0.95),
            Syr2k => (1.0, 2.2, 0.20, 0.24, 25.0, 1.15),
            Blackscholes => (0.9, 2.0, 0.05, 0.06, 5.0, 1.20),
            Bodytrack => (1.3, 2.5, 0.20, 0.24, 25.0, 1.00),
            // canneal: pointer-chasing, memory-dominated — performance is
            // nearly independent of the CPU V/f level.
            Canneal => (1.2, 1.8, 6.50, 7.00, 120.0, 0.70),
            Dedup => (1.1, 2.1, 0.40, 0.48, 45.0, 0.90),
            Facesim => (1.4, 2.6, 0.30, 0.36, 30.0, 1.05),
            Ferret => (1.2, 2.4, 0.25, 0.30, 28.0, 1.10),
            Fluidanimate => (1.3, 2.2, 0.45, 0.54, 40.0, 0.95),
            Swaptions => (0.85, 1.9, 0.03, 0.04, 4.0, 1.25),
        };
        let mut builder = AppModel::builder(self.name())
            .cpi(Cluster::Big, cb)
            .cpi(Cluster::Little, cl)
            .mem_stall_ns(Cluster::Big, mb)
            .mem_stall_ns(Cluster::Little, ml)
            .l2d_per_kinst(l2d)
            .activity(act)
            .total_instructions(10_000_000_000);
        if let Some(phases) = self.phase_profile() {
            builder = builder.phases(phases).phase_period_insts(2_000_000_000);
        }
        builder.build()
    }

    /// PARSEC applications alternate between compute- and memory-leaning
    /// phases; Polybench kernels are steady (`None`).
    fn phase_profile(self) -> Option<Vec<Phase>> {
        use Benchmark::*;
        if self.is_polybench() {
            return None;
        }
        let profile = match self {
            // dedup and facesim have the strongest phase behaviour (the
            // paper observes negative migration overhead for them).
            Dedup => vec![
                (0.3, 0.85, 0.7, 1.1),
                (0.4, 1.1, 1.15, 0.92),
                (0.3, 1.0, 0.95, 1.0),
            ],
            Facesim => vec![(0.5, 0.85, 0.85, 1.06), (0.5, 1.2, 1.2, 0.95)],
            Bodytrack => vec![(0.6, 0.9, 0.85, 1.05), (0.4, 1.15, 1.25, 0.95)],
            Ferret => vec![(0.5, 0.85, 0.9, 1.05), (0.5, 1.15, 1.1, 0.95)],
            Fluidanimate => vec![(0.7, 0.95, 0.9, 1.0), (0.3, 1.1, 1.3, 1.0)],
            Canneal => vec![(0.8, 1.0, 1.0, 1.0), (0.2, 1.1, 1.2, 0.95)],
            Blackscholes | Swaptions => {
                vec![(0.9, 1.0, 1.0, 1.0), (0.1, 1.05, 1.2, 0.95)]
            }
            _ => unreachable!("all PARSEC benchmarks covered"),
        };
        Some(
            profile
                .into_iter()
                .map(|(w, cpi, mem, actf)| Phase {
                    weight: w,
                    cpi_factor: cpi,
                    mem_factor: mem,
                    activity_factor: actf,
                })
                .collect(),
        )
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Benchmark {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Benchmark::all()
            .iter()
            .copied()
            .find(|b| b.name() == s)
            .ok_or_else(|| TypeError::new(format!("unknown benchmark `{s}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{Frequency, Ips};

    /// The HiKey 970 OPP lists (duplicated from the platform crate on
    /// purpose: the calibration must hold against the real tables).
    const LITTLE_MHZ: [u64; 7] = [509, 1018, 1210, 1402, 1556, 1690, 1844];
    const BIG_MHZ: [u64; 9] = [682, 1018, 1210, 1364, 1498, 1652, 1863, 2093, 2362];

    fn freqs(mhz: &[u64]) -> Vec<Frequency> {
        mhz.iter().map(|&m| Frequency::from_mhz(m)).collect()
    }

    fn qos_30pct(model: &AppModel) -> Ips {
        model
            .ips(Cluster::Big, Frequency::from_mhz(2362), 1.0)
            .scaled(0.3)
    }

    #[test]
    fn catalog_is_complete_and_named_uniquely() {
        let names: std::collections::BTreeSet<&str> =
            Benchmark::all().iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 16);
        assert_eq!(Benchmark::training_set().len(), 7);
        assert_eq!(Benchmark::unseen_set().len(), 9);
    }

    #[test]
    fn training_and_unseen_sets_partition_catalog() {
        for b in Benchmark::all() {
            let in_training = Benchmark::training_set().contains(b);
            let in_unseen = Benchmark::unseen_set().contains(b);
            assert!(in_training ^ in_unseen, "{b} must be in exactly one set");
        }
        assert!(Benchmark::unseen_set().contains(&Benchmark::JacobiTwoD));
    }

    #[test]
    fn parse_round_trip() {
        for b in Benchmark::all() {
            assert_eq!(b.name().parse::<Benchmark>().unwrap(), *b);
        }
        assert!("nonexistent".parse::<Benchmark>().is_err());
    }

    #[test]
    fn polybench_has_no_phases_parsec_does() {
        for b in Benchmark::all() {
            let model = b.model();
            if b.is_polybench() {
                assert!(!model.has_phases(), "{b} should be steady");
            } else {
                assert!(model.has_phases(), "{b} should be phased");
            }
        }
    }

    /// Motivational example (Fig. 1): adi requires the top LITTLE OPP but
    /// only the bottom big OPP for a 30 % QoS target.
    #[test]
    fn adi_motivation_frequencies() {
        let m = Benchmark::Adi.model();
        let q = qos_30pct(&m);
        let f_little = m
            .min_frequency_for(Cluster::Little, q, &freqs(&LITTLE_MHZ))
            .expect("reachable on LITTLE");
        let f_big = m
            .min_frequency_for(Cluster::Big, q, &freqs(&BIG_MHZ))
            .expect("reachable on big");
        assert_eq!(
            f_little,
            Frequency::from_mhz(1844),
            "adi needs max LITTLE OPP"
        );
        assert_eq!(f_big, Frequency::from_mhz(682), "adi needs min big OPP");
    }

    /// Motivational example (Fig. 1): seidel-2d reaches the target at
    /// 1.210 GHz LITTLE and needs 1.018 GHz big.
    #[test]
    fn seidel_motivation_frequencies() {
        let m = Benchmark::SeidelTwoD.model();
        let q = qos_30pct(&m);
        let f_little = m
            .min_frequency_for(Cluster::Little, q, &freqs(&LITTLE_MHZ))
            .expect("reachable on LITTLE");
        let f_big = m
            .min_frequency_for(Cluster::Big, q, &freqs(&BIG_MHZ))
            .expect("reachable on big");
        assert_eq!(f_little, Frequency::from_mhz(1210));
        assert_eq!(f_big, Frequency::from_mhz(1018));
    }

    /// canneal's performance barely depends on the V/f level (the paper's
    /// explanation for why it survives even GTS/powersave).
    #[test]
    fn canneal_is_frequency_insensitive() {
        let m = Benchmark::Canneal.model();
        let lo = m.ips(Cluster::Big, Frequency::from_mhz(682), 1.0);
        let hi = m.ips(Cluster::Big, Frequency::from_mhz(2362), 1.0);
        assert!(
            hi.value() / lo.value() < 1.4,
            "canneal should gain <40 % from 3.5x frequency"
        );
    }

    /// Every benchmark must be able to reach a 30 % QoS target on the big
    /// cluster (otherwise the workload generator could create impossible
    /// targets).
    #[test]
    fn all_benchmarks_reach_30pct_on_big() {
        for b in Benchmark::all() {
            let m = b.model();
            let q = qos_30pct(&m);
            assert!(
                m.min_frequency_for(Cluster::Big, q, &freqs(&BIG_MHZ))
                    .is_some(),
                "{b} cannot reach its own 30 % target"
            );
        }
    }

    /// The big cluster is never slower than LITTLE at equal frequency.
    #[test]
    fn big_dominates_little_at_equal_frequency() {
        let f = Frequency::from_mhz(1018);
        for b in Benchmark::all() {
            let m = b.model();
            assert!(
                m.ips(Cluster::Big, f, 1.0).value() >= m.ips(Cluster::Little, f, 1.0).value(),
                "{b}: big must dominate at equal f"
            );
        }
    }
}
