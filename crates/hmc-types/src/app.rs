//! Application characteristics shared by the workload catalog and the
//! platform simulator.

use std::fmt;

use crate::{Cluster, Ips};

/// A quality-of-service target, expressed in instructions per second like in
/// the paper (`Q_k`).
///
/// # Examples
///
/// ```
/// use hmc_types::{Ips, QosTarget};
/// let target = QosTarget::new(Ips::from_mips(400.0));
/// assert!(!target.is_violated_by(Ips::from_mips(450.0)));
/// assert!(target.is_violated_by(Ips::from_mips(350.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct QosTarget(Ips);

impl QosTarget {
    /// A target of zero (never violated).
    pub const NONE: QosTarget = QosTarget(Ips::ZERO);

    /// Creates a QoS target from a required IPS value.
    pub const fn new(ips: Ips) -> Self {
        QosTarget(ips)
    }

    /// Returns the required IPS.
    pub const fn ips(self) -> Ips {
        self.0
    }

    /// Returns `true` if the measured performance `q` misses this target.
    pub fn is_violated_by(self, q: Ips) -> bool {
        !q.meets(self.0)
    }
}

impl fmt::Display for QosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "≥{}", self.0)
    }
}

/// One execution phase of an application.
///
/// Real applications such as PARSEC benchmarks go through phases with
/// different compute/memory balance. A phase scales the base model
/// parameters by multiplicative factors and covers a fraction of the
/// application's instruction stream. Phases repeat cyclically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Fraction of the phase period covered by this phase, in `(0, 1]`.
    pub weight: f64,
    /// Multiplier on cycles-per-instruction.
    pub cpi_factor: f64,
    /// Multiplier on per-instruction memory stall time.
    pub mem_factor: f64,
    /// Multiplier on the switching-activity (dynamic power) factor.
    pub activity_factor: f64,
}

impl Phase {
    /// A neutral phase that leaves all base parameters unchanged.
    pub const NEUTRAL: Phase = Phase {
        weight: 1.0,
        cpi_factor: 1.0,
        mem_factor: 1.0,
        activity_factor: 1.0,
    };
}

impl Default for Phase {
    fn default() -> Self {
        Phase::NEUTRAL
    }
}

/// The analytic performance/power model of one application.
///
/// The model follows a classic CPU/memory decomposition: executing one
/// instruction on cluster `x` at frequency `f` takes
/// `cpi(x) / f + mem_stall(x)` seconds, where the memory stall term is
/// frequency-independent. This reproduces the paper's central observation
/// that applications benefit to very different degrees from the big cluster
/// and from higher V/f levels.
///
/// # Examples
///
/// ```
/// use hmc_types::{AppModel, Cluster, Frequency};
/// let m = AppModel::builder("adi")
///     .cpi(Cluster::Big, 1.0)
///     .cpi(Cluster::Little, 2.8)
///     .mem_stall_ns(Cluster::Big, 0.05)
///     .mem_stall_ns(Cluster::Little, 0.06)
///     .build();
/// let big = m.ips(Cluster::Big, Frequency::from_mhz(2362), 1.0);
/// let little = m.ips(Cluster::Little, Frequency::from_mhz(2362), 1.0);
/// assert!(big.value() > little.value());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    name: String,
    cpi: [f64; 2],
    mem_stall_ns: [f64; 2],
    l2d_per_kinst: f64,
    activity: f64,
    phases: Vec<Phase>,
    phase_period_insts: u64,
    total_instructions: u64,
}

impl AppModel {
    /// Starts building an application model with the given name.
    pub fn builder(name: impl Into<String>) -> AppModelBuilder {
        AppModelBuilder::new(name)
    }

    /// Returns the application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the average cycles-per-instruction on `cluster`.
    pub fn cpi(&self, cluster: Cluster) -> f64 {
        self.cpi[cluster.index()]
    }

    /// Returns the per-instruction memory stall time on `cluster`, in ns.
    pub fn mem_stall_ns(&self, cluster: Cluster) -> f64 {
        self.mem_stall_ns[cluster.index()]
    }

    /// Returns the number of L2 data-cache accesses per 1000 instructions.
    pub fn l2d_per_kinst(&self) -> f64 {
        self.l2d_per_kinst
    }

    /// Returns the switching-activity factor (dimensionless, ~0.5–1.5).
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Returns the execution phases. Always non-empty.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Returns the number of instructions after which the phase pattern
    /// repeats.
    pub fn phase_period_insts(&self) -> u64 {
        self.phase_period_insts
    }

    /// Returns the total number of instructions the application executes.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Returns `true` if the application has more than one execution phase.
    pub fn has_phases(&self) -> bool {
        self.phases.len() > 1
    }

    /// Returns the phase active after `executed` instructions.
    pub fn phase_at(&self, executed: u64) -> Phase {
        if self.phases.len() == 1 {
            return self.phases[0];
        }
        let pos = (executed % self.phase_period_insts) as f64 / self.phase_period_insts as f64;
        let mut acc = 0.0;
        for phase in &self.phases {
            acc += phase.weight;
            if pos < acc {
                return *phase;
            }
        }
        *self.phases.last().expect("phases is never empty")
    }

    /// Computes the steady-state performance on `cluster` at frequency `f`
    /// when the application receives `share ∈ (0, 1]` of the core's time,
    /// using the base (phase-neutral) parameters.
    pub fn ips(&self, cluster: Cluster, f: crate::Frequency, share: f64) -> Ips {
        self.ips_in_phase(cluster, f, share, Phase::NEUTRAL)
    }

    /// The long-run mean performance across the application's phase
    /// pattern: the instruction-weighted harmonic mean of the per-phase
    /// rates. For phase-free applications this equals [`AppModel::ips`].
    ///
    /// This is what measuring a real application's throughput over a full
    /// run yields, and therefore what QoS targets should be derived from.
    pub fn mean_ips(&self, cluster: Cluster, f: crate::Frequency, share: f64) -> Ips {
        if f.as_khz() == 0 || share <= 0.0 {
            return Ips::ZERO;
        }
        let secs_per_inst: f64 = self
            .phases
            .iter()
            .map(|phase| {
                let cpi = self.cpi[cluster.index()] * phase.cpi_factor;
                let mem_s = self.mem_stall_ns[cluster.index()] * phase.mem_factor * 1e-9;
                phase.weight * (cpi / f.as_hz() + mem_s)
            })
            .sum();
        Ips::new(share.min(1.0) / secs_per_inst)
    }

    /// Like [`AppModel::ips`] but with an explicit execution phase applied.
    pub fn ips_in_phase(
        &self,
        cluster: Cluster,
        f: crate::Frequency,
        share: f64,
        phase: Phase,
    ) -> Ips {
        if f.as_khz() == 0 || share <= 0.0 {
            return Ips::ZERO;
        }
        let cpi = self.cpi[cluster.index()] * phase.cpi_factor;
        let mem_s = self.mem_stall_ns[cluster.index()] * phase.mem_factor * 1e-9;
        let secs_per_inst = cpi / f.as_hz() + mem_s;
        Ips::new(share.min(1.0) / secs_per_inst)
    }

    /// The minimum frequency from `available` (ascending) at which the
    /// application reaches `target` IPS on `cluster` with full core share,
    /// or `None` if even the highest level misses the target.
    pub fn min_frequency_for(
        &self,
        cluster: Cluster,
        target: Ips,
        available: &[crate::Frequency],
    ) -> Option<crate::Frequency> {
        available
            .iter()
            .copied()
            .find(|&f| self.ips(cluster, f, 1.0).meets(target))
    }
}

impl fmt::Display for AppModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Builder for [`AppModel`].
///
/// Defaults: CPI 1.5 on big and 2.2 on LITTLE, 0.2 ns memory stall on both
/// clusters, 20 L2D accesses per kilo-instruction, activity 1.0, a single
/// neutral phase, and 10^10 total instructions (the trace length used in the
/// paper).
#[derive(Debug, Clone)]
pub struct AppModelBuilder {
    model: AppModel,
}

impl AppModelBuilder {
    fn new(name: impl Into<String>) -> Self {
        AppModelBuilder {
            model: AppModel {
                name: name.into(),
                cpi: [2.2, 1.5],
                mem_stall_ns: [0.2, 0.2],
                l2d_per_kinst: 20.0,
                activity: 1.0,
                phases: vec![Phase::NEUTRAL],
                phase_period_insts: 1_000_000_000,
                total_instructions: 10_000_000_000,
            },
        }
    }

    /// Sets the cycles-per-instruction on one cluster.
    pub fn cpi(mut self, cluster: Cluster, cpi: f64) -> Self {
        self.model.cpi[cluster.index()] = cpi;
        self
    }

    /// Sets the per-instruction memory stall time (ns) on one cluster.
    pub fn mem_stall_ns(mut self, cluster: Cluster, ns: f64) -> Self {
        self.model.mem_stall_ns[cluster.index()] = ns;
        self
    }

    /// Sets the L2 data-cache accesses per kilo-instruction.
    pub fn l2d_per_kinst(mut self, v: f64) -> Self {
        self.model.l2d_per_kinst = v;
        self
    }

    /// Sets the switching-activity (dynamic power) factor.
    pub fn activity(mut self, v: f64) -> Self {
        self.model.activity = v;
        self
    }

    /// Replaces the phase list. Weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or any weight is non-positive.
    pub fn phases(mut self, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "phase list must not be empty");
        let total: f64 = phases.iter().map(|p| p.weight).sum();
        assert!(
            phases.iter().all(|p| p.weight > 0.0),
            "phase weights must be positive"
        );
        self.model.phases = phases
            .into_iter()
            .map(|p| Phase {
                weight: p.weight / total,
                ..p
            })
            .collect();
        self
    }

    /// Sets the instruction count after which the phase pattern repeats.
    pub fn phase_period_insts(mut self, insts: u64) -> Self {
        assert!(insts > 0, "phase period must be positive");
        self.model.phase_period_insts = insts;
        self
    }

    /// Sets the total number of instructions the application executes.
    pub fn total_instructions(mut self, insts: u64) -> Self {
        self.model.total_instructions = insts;
        self
    }

    /// Finalizes the model.
    pub fn build(self) -> AppModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Frequency;

    fn sample() -> AppModel {
        AppModel::builder("test")
            .cpi(Cluster::Big, 1.0)
            .cpi(Cluster::Little, 2.0)
            .mem_stall_ns(Cluster::Big, 0.1)
            .mem_stall_ns(Cluster::Little, 0.12)
            .build()
    }

    #[test]
    fn ips_increases_with_frequency() {
        let m = sample();
        let lo = m.ips(Cluster::Big, Frequency::from_mhz(682), 1.0);
        let hi = m.ips(Cluster::Big, Frequency::from_mhz(2362), 1.0);
        assert!(hi.value() > lo.value());
    }

    #[test]
    fn ips_saturates_for_memory_bound() {
        let mem_bound = AppModel::builder("mem")
            .cpi(Cluster::Big, 1.0)
            .mem_stall_ns(Cluster::Big, 5.0)
            .build();
        let lo = mem_bound.ips(Cluster::Big, Frequency::from_mhz(682), 1.0);
        let hi = mem_bound.ips(Cluster::Big, Frequency::from_mhz(2362), 1.0);
        // Less than 25% gain despite 3.5x frequency.
        assert!(hi.value() / lo.value() < 1.25);
    }

    #[test]
    fn ips_scales_with_share() {
        let m = sample();
        let full = m.ips(Cluster::Big, Frequency::from_mhz(1000), 1.0);
        let half = m.ips(Cluster::Big, Frequency::from_mhz(1000), 0.5);
        assert!((half.value() * 2.0 - full.value()).abs() < 1e-6);
    }

    #[test]
    fn ips_zero_cases() {
        let m = sample();
        assert_eq!(m.ips(Cluster::Big, Frequency::ZERO, 1.0), Ips::ZERO);
        assert_eq!(
            m.ips(Cluster::Big, Frequency::from_mhz(1000), 0.0),
            Ips::ZERO
        );
    }

    #[test]
    fn big_cluster_is_faster_for_compute_bound() {
        let m = sample();
        let f = Frequency::from_mhz(1018);
        assert!(m.ips(Cluster::Big, f, 1.0).value() > m.ips(Cluster::Little, f, 1.0).value());
    }

    #[test]
    fn min_frequency_for_target() {
        let m = sample();
        let opps = [
            Frequency::from_mhz(682),
            Frequency::from_mhz(1018),
            Frequency::from_mhz(2362),
        ];
        let max_ips = m.ips(Cluster::Big, opps[2], 1.0);
        let target = max_ips.scaled(0.5);
        let f = m.min_frequency_for(Cluster::Big, target, &opps).unwrap();
        assert!(m.ips(Cluster::Big, f, 1.0).meets(target));
        // An unreachable target yields None.
        assert!(m
            .min_frequency_for(Cluster::Big, max_ips.scaled(2.0), &opps)
            .is_none());
    }

    #[test]
    fn phases_normalize_and_cycle() {
        let m = AppModel::builder("phased")
            .phases(vec![
                Phase {
                    weight: 2.0,
                    cpi_factor: 1.0,
                    mem_factor: 1.0,
                    activity_factor: 1.0,
                },
                Phase {
                    weight: 2.0,
                    cpi_factor: 2.0,
                    mem_factor: 1.0,
                    activity_factor: 1.0,
                },
            ])
            .phase_period_insts(1000)
            .build();
        assert!(m.has_phases());
        assert!((m.phases()[0].weight - 0.5).abs() < 1e-12);
        // First half of the period is phase 0, second half phase 1.
        assert_eq!(m.phase_at(0).cpi_factor, 1.0);
        assert_eq!(m.phase_at(499).cpi_factor, 1.0);
        assert_eq!(m.phase_at(500).cpi_factor, 2.0);
        assert_eq!(m.phase_at(1000).cpi_factor, 1.0); // wrapped
    }

    #[test]
    fn mean_ips_matches_ips_without_phases() {
        let m = sample();
        let f = Frequency::from_mhz(1498);
        assert_eq!(
            m.mean_ips(Cluster::Big, f, 1.0),
            m.ips(Cluster::Big, f, 1.0)
        );
    }

    #[test]
    fn mean_ips_is_between_phase_extremes() {
        let m = AppModel::builder("phased")
            .cpi(Cluster::Big, 1.0)
            .phases(vec![
                Phase {
                    weight: 0.5,
                    cpi_factor: 0.8,
                    mem_factor: 1.0,
                    activity_factor: 1.0,
                },
                Phase {
                    weight: 0.5,
                    cpi_factor: 1.5,
                    mem_factor: 1.0,
                    activity_factor: 1.0,
                },
            ])
            .build();
        let f = Frequency::from_mhz(1000);
        let light = m.ips_in_phase(Cluster::Big, f, 1.0, m.phases()[0]);
        let heavy = m.ips_in_phase(Cluster::Big, f, 1.0, m.phases()[1]);
        let mean = m.mean_ips(Cluster::Big, f, 1.0);
        assert!(heavy.value() < mean.value() && mean.value() < light.value());
    }

    #[test]
    fn qos_target_violation() {
        let t = QosTarget::new(Ips::from_mips(100.0));
        assert!(t.is_violated_by(Ips::from_mips(99.0)));
        assert!(!t.is_violated_by(Ips::from_mips(100.0)));
        assert!(!QosTarget::NONE.is_violated_by(Ips::ZERO));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_phases_rejected() {
        let _ = AppModel::builder("x").phases(vec![]);
    }
}
