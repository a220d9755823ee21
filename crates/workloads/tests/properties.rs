//! Property-based tests of workload generation and the benchmark catalog.

use hmc_types::{Cluster, Frequency, Phase, SimDuration};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{Benchmark, MixedWorkloadConfig, QosSpec, WorkloadGenerator};

proptest! {
    /// Generated workloads always have the requested size, ordered
    /// arrivals, and QoS fractions inside the configured range.
    #[test]
    fn mixed_workloads_well_formed(
        seed in 0u64..10_000,
        num_apps in 1usize..40,
        mean_secs in 1u64..60,
        lo in 0.05f64..0.5,
        width in 0.0f64..0.4,
    ) {
        let config = MixedWorkloadConfig {
            num_apps,
            mean_interarrival: SimDuration::from_secs(mean_secs),
            qos_fraction_range: (lo, lo + width),
            ..MixedWorkloadConfig::default()
        };
        let w = WorkloadGenerator::mixed(&config, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(w.len(), num_apps);
        let mut last = None;
        for arrival in &w {
            if let Some(prev) = last {
                prop_assert!(arrival.at >= prev);
            }
            last = Some(arrival.at);
            match arrival.qos {
                QosSpec::FractionOfMaxBig(f) => {
                    prop_assert!(f >= lo && f <= lo + width + 1e-12);
                }
                other => prop_assert!(false, "unexpected spec {:?}", other),
            }
        }
    }

    /// Resolved QoS targets are always positive and achievable at the
    /// maximum big frequency for any benchmark and in-range fraction.
    #[test]
    fn resolved_targets_achievable_on_big(
        bench_idx in 0usize..16,
        fraction in 0.05f64..0.95,
    ) {
        let benchmark = Benchmark::all()[bench_idx];
        let model = benchmark.model();
        let little_max = Frequency::from_mhz(1844);
        let big_max = Frequency::from_mhz(2362);
        let target = QosSpec::FractionOfMaxBig(fraction).resolve(&model, little_max, big_max);
        prop_assert!(target.ips().value() > 0.0);
        // The phase-averaged throughput at max big must meet the target.
        let mean = model.mean_ips(Cluster::Big, big_max, 1.0);
        prop_assert!(mean.meets(target.ips()));
    }

    /// Per-benchmark invariants of the catalog: big dominates LITTLE at
    /// equal frequency, and mean IPS is frequency-monotone.
    #[test]
    fn catalog_models_monotone(bench_idx in 0usize..16, mhz in 500u64..2300) {
        let model = Benchmark::all()[bench_idx].model();
        let f_lo = Frequency::from_mhz(mhz);
        let f_hi = Frequency::from_mhz(mhz + 100);
        for cluster in Cluster::ALL {
            prop_assert!(
                model.mean_ips(cluster, f_hi, 1.0).value()
                    >= model.mean_ips(cluster, f_lo, 1.0).value()
            );
        }
        prop_assert!(
            model.mean_ips(Cluster::Big, f_lo, 1.0).value()
                >= model.mean_ips(Cluster::Little, f_lo, 1.0).value()
        );
    }

    /// Every catalog model's boundary-based phase lookup equals the float
    /// rule that defines phases, at each phase boundary, one instruction
    /// either side of it, and at random counts across many periods.
    #[test]
    fn catalog_phase_lookup_matches_the_float_rule(
        bench_idx in 0usize..16,
        period_index in 0u64..1_000,
        offset in 0u64..u64::MAX,
    ) {
        let model = Benchmark::all()[bench_idx].model();
        let period = model.phase_period_insts();
        let base = period_index * period;
        let mut counts: Vec<u64> = model
            .phase_ends()
            .iter()
            .flat_map(|&end| [end.saturating_sub(1), end, end + 1])
            .map(|offset| base + offset)
            .collect();
        counts.extend([offset, offset % period, base + offset % period]);
        for executed in counts {
            let expected = phase_index_by_weight(model.phases(), period, executed % period);
            prop_assert_eq!(model.phase_span(executed).index, expected);
            prop_assert_eq!(model.phase_at(executed), model.phases()[expected]);
        }
    }
}

/// The float rule that defines phase membership (the specification of
/// `AppModel::phase_at`): the offset into the period as a fraction of it,
/// against the running sum of the phase weights in phase order.
fn phase_index_by_weight(phases: &[Phase], period: u64, offset: u64) -> usize {
    let pos = offset as f64 / period as f64;
    let mut acc = 0.0;
    for (j, phase) in phases.iter().enumerate() {
        acc += phase.weight;
        if pos < acc {
            return j;
        }
    }
    phases.len() - 1
}
