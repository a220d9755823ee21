//! Workload generation: arrival schedules and QoS target sampling.

use hmc_types::{AppModel, Cluster, Frequency, Ips, QosTarget, SimDuration, SimTime};
use rand::RngExt;

use crate::Benchmark;

/// How an application's QoS target is specified.
///
/// Targets relative to the application's own peak performance are resolved
/// against the platform's maximum frequencies at admission time, matching
/// how the paper selects targets (e.g. "30 % of the performance reached at
/// the highest V/f level on the big cluster").
///
/// # Examples
///
/// ```
/// use hmc_types::Frequency;
/// use workloads::{Benchmark, QosSpec};
/// let spec = QosSpec::FractionOfMaxBig(0.3);
/// let target = spec.resolve(
///     &Benchmark::Adi.model(),
///     Frequency::from_mhz(1844),
///     Frequency::from_mhz(2362),
/// );
/// assert!(target.ips().value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosSpec {
    /// Fraction of the IPS reached at the highest big-cluster V/f level.
    FractionOfMaxBig(f64),
    /// Fraction of the IPS reached at the highest LITTLE-cluster V/f level.
    FractionOfMaxLittle(f64),
    /// An absolute IPS requirement.
    Absolute(Ips),
}

impl QosSpec {
    /// Resolves this specification into a concrete target for `model`,
    /// given the platform's maximum per-cluster frequencies.
    pub fn resolve(
        &self,
        model: &AppModel,
        little_max: Frequency,
        big_max: Frequency,
    ) -> QosTarget {
        // Fractions are taken of the *measured* (phase-averaged) peak
        // throughput, as the paper's physical procedure would observe.
        let ips = match *self {
            QosSpec::FractionOfMaxBig(fr) => model.mean_ips(Cluster::Big, big_max, 1.0).scaled(fr),
            QosSpec::FractionOfMaxLittle(fr) => {
                model.mean_ips(Cluster::Little, little_max, 1.0).scaled(fr)
            }
            QosSpec::Absolute(ips) => ips,
        };
        QosTarget::new(ips)
    }
}

/// One scheduled application arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// When the application enters the system.
    pub at: SimTime,
    /// Which benchmark arrives.
    pub benchmark: Benchmark,
    /// Its QoS target specification.
    pub qos: QosSpec,
    /// Override for the number of instructions to execute (`None` keeps the
    /// benchmark's default length).
    pub total_instructions: Option<u64>,
}

/// An ordered arrival schedule (an *open system*: applications arrive at a
/// priori unknown times, as in the paper).
///
/// # Examples
///
/// ```
/// use workloads::{Benchmark, QosSpec, Workload};
/// let w = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
/// assert_eq!(w.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    arrivals: Vec<ArrivalSpec>,
}

impl Workload {
    /// Creates a workload from a list of arrivals (sorted by time).
    pub fn new(mut arrivals: Vec<ArrivalSpec>) -> Self {
        arrivals.sort_by_key(|a| a.at);
        Workload { arrivals }
    }

    /// A workload with a single application arriving at time zero.
    pub fn single(benchmark: Benchmark, qos: QosSpec) -> Self {
        Workload {
            arrivals: vec![ArrivalSpec {
                at: SimTime::ZERO,
                benchmark,
                qos,
                total_instructions: None,
            }],
        }
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Returns `true` if no arrivals are scheduled.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates over the arrivals in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, ArrivalSpec> {
        self.arrivals.iter()
    }

    /// Time of the last arrival.
    pub fn last_arrival(&self) -> SimTime {
        self.arrivals.last().map_or(SimTime::ZERO, |a| a.at)
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a ArrivalSpec;
    type IntoIter = std::slice::Iter<'a, ArrivalSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.iter()
    }
}

/// Configuration for the paper's main mixed-workload experiment: 20
/// randomly selected applications with Poisson arrivals and random QoS
/// targets.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedWorkloadConfig {
    /// Number of applications (the paper uses 20).
    pub num_apps: usize,
    /// Mean inter-arrival time of the Poisson process. The paper sweeps
    /// the arrival rate to test different system loads.
    pub mean_interarrival: SimDuration,
    /// Range of the QoS fraction (of per-app max-big performance) sampled
    /// uniformly per application.
    pub qos_fraction_range: (f64, f64),
    /// Pool of benchmarks to sample from (defaults to the full catalog).
    pub benchmarks: Vec<Benchmark>,
    /// Optional per-application instruction-count override, to shorten
    /// simulations.
    pub total_instructions: Option<u64>,
}

impl Default for MixedWorkloadConfig {
    fn default() -> Self {
        MixedWorkloadConfig {
            num_apps: 20,
            mean_interarrival: SimDuration::from_secs(15),
            qos_fraction_range: (0.15, 0.55),
            benchmarks: Benchmark::all().to_vec(),
            total_instructions: None,
        }
    }
}

/// Generates randomized workloads reproducibly from a caller-provided RNG.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use workloads::{MixedWorkloadConfig, WorkloadGenerator};
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let w = WorkloadGenerator::mixed(&MixedWorkloadConfig::default(), &mut rng);
/// assert_eq!(w.len(), 20);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadGenerator;

impl WorkloadGenerator {
    /// Generates the paper's mixed workload: `num_apps` applications drawn
    /// uniformly from the pool, exponential inter-arrival times (Poisson
    /// process), and uniform-random QoS fractions.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark pool is empty or the QoS fraction range is
    /// inverted.
    pub fn mixed<R: RngExt + ?Sized>(config: &MixedWorkloadConfig, rng: &mut R) -> Workload {
        assert!(!config.benchmarks.is_empty(), "benchmark pool is empty");
        let (lo, hi) = config.qos_fraction_range;
        assert!(lo <= hi && lo >= 0.0, "invalid QoS fraction range");
        let mean_s = config.mean_interarrival.as_secs_f64();
        let mut t = SimTime::ZERO;
        let mut arrivals = Vec::with_capacity(config.num_apps);
        for _ in 0..config.num_apps {
            let benchmark = config.benchmarks[rng.random_range(0..config.benchmarks.len())];
            let fraction = if lo == hi {
                lo
            } else {
                rng.random_range(lo..hi)
            };
            arrivals.push(ArrivalSpec {
                at: t,
                benchmark,
                qos: QosSpec::FractionOfMaxBig(fraction),
                total_instructions: config.total_instructions,
            });
            // Exponential inter-arrival time (Poisson arrivals).
            let u: f64 = rng.random();
            let gap = -mean_s * (1.0f64 - u).ln();
            t += SimDuration::from_secs_f64(gap);
        }
        Workload::new(arrivals)
    }

    /// Generates the single-application workloads of the paper's
    /// generalization experiment: each unseen benchmark once, with a QoS
    /// target that is reachable at the highest LITTLE V/f level.
    pub fn single_app_suite(qos_fraction_of_max_little: f64) -> Vec<(Benchmark, Workload)> {
        Benchmark::unseen_set()
            .iter()
            .map(|&b| {
                (
                    b,
                    Workload::single(b, QosSpec::FractionOfMaxLittle(qos_fraction_of_max_little)),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixed_workload_is_reproducible() {
        let cfg = MixedWorkloadConfig::default();
        let a = WorkloadGenerator::mixed(&cfg, &mut StdRng::seed_from_u64(7));
        let b = WorkloadGenerator::mixed(&cfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = WorkloadGenerator::mixed(&cfg, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_time_ordered() {
        let cfg = MixedWorkloadConfig::default();
        let w = WorkloadGenerator::mixed(&cfg, &mut StdRng::seed_from_u64(3));
        let times: Vec<_> = w.iter().map(|a| a.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn higher_arrival_rate_compresses_schedule() {
        let slow_cfg = MixedWorkloadConfig {
            mean_interarrival: SimDuration::from_secs(30),
            ..MixedWorkloadConfig::default()
        };
        let fast_cfg = MixedWorkloadConfig {
            mean_interarrival: SimDuration::from_secs(3),
            ..MixedWorkloadConfig::default()
        };
        let slow = WorkloadGenerator::mixed(&slow_cfg, &mut StdRng::seed_from_u64(5));
        let fast = WorkloadGenerator::mixed(&fast_cfg, &mut StdRng::seed_from_u64(5));
        assert!(fast.last_arrival() < slow.last_arrival());
    }

    #[test]
    fn qos_fractions_fall_in_range() {
        let cfg = MixedWorkloadConfig {
            qos_fraction_range: (0.2, 0.4),
            ..MixedWorkloadConfig::default()
        };
        let w = WorkloadGenerator::mixed(&cfg, &mut StdRng::seed_from_u64(1));
        for arrival in &w {
            match arrival.qos {
                QosSpec::FractionOfMaxBig(f) => assert!((0.2..0.4).contains(&f)),
                other => panic!("unexpected spec {other:?}"),
            }
        }
    }

    #[test]
    fn single_app_suite_covers_unseen_set() {
        let suite = WorkloadGenerator::single_app_suite(0.9);
        assert_eq!(suite.len(), Benchmark::unseen_set().len());
        for (b, w) in &suite {
            assert_eq!(w.len(), 1);
            assert!(Benchmark::unseen_set().contains(b));
        }
    }

    #[test]
    fn qos_spec_resolution() {
        let model = Benchmark::Adi.model();
        let little_max = Frequency::from_mhz(1844);
        let big_max = Frequency::from_mhz(2362);
        let big30 = QosSpec::FractionOfMaxBig(0.3).resolve(&model, little_max, big_max);
        let little90 = QosSpec::FractionOfMaxLittle(0.9).resolve(&model, little_max, big_max);
        let abs = QosSpec::Absolute(Ips::from_mips(100.0)).resolve(&model, little_max, big_max);
        assert!(big30.ips().value() > 0.0);
        // A 90 % of-max-LITTLE target must be reachable on LITTLE.
        assert!(model
            .ips(Cluster::Little, little_max, 1.0)
            .meets(little90.ips()));
        assert!((abs.ips().as_mips() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn workload_new_sorts_arrivals() {
        let w = Workload::new(vec![
            ArrivalSpec {
                at: SimTime::from_secs(10),
                benchmark: Benchmark::Adi,
                qos: QosSpec::FractionOfMaxBig(0.3),
                total_instructions: None,
            },
            ArrivalSpec {
                at: SimTime::from_secs(5),
                benchmark: Benchmark::Canneal,
                qos: QosSpec::FractionOfMaxBig(0.3),
                total_instructions: None,
            },
        ]);
        assert_eq!(w.iter().next().unwrap().benchmark, Benchmark::Canneal);
    }
}
