//! The un-memoized platform tick, kept as the specification of
//! [`Platform::tick`] (as `nn::matrix::reference` is of the f32 kernels).
//! Every reference tick looks each application's phase up afresh, prices
//! its rates from the model, converts every core's V/f from the OPP,
//! derives core 0's capacity by division, recounts the applications per
//! core, recomputes the IPS windows and scans every application for
//! completion. Randomized scenarios drive a platform on each tick and
//! require every output to match bit for bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workloads::Benchmark;

use super::*;

impl Platform {
    /// One tick with nothing memoized.
    fn tick_reference(&mut self) {
        let dt = self.config.tick;
        let now = self.now;
        self.apply_due_transitions(now);
        let governor_drain = self.governor_debt.min(dt);
        self.governor_debt -= governor_drain;
        let core0_capacity = 1.0 - governor_drain.as_secs_f64() / dt.as_secs_f64();
        // Count the applications per core afresh.
        let mut per_core = [0usize; NUM_CORES];
        for app in self.apps.values() {
            per_core[app.core.index()] += 1;
        }
        assert_eq!(per_core, self.per_core, "the kept per-core counts drifted");
        let mut core_busy: [bool; NUM_CORES] = std::array::from_fn(|i| per_core[i] > 0);
        let opps = [
            self.opp_tables[0].opp(self.level[0]),
            self.opp_tables[1].opp(self.level[1]),
        ];
        let mut core_activity = [0.0f64; NUM_CORES];
        for app in self.apps.values_mut() {
            let core = app.core.index();
            let capacity = if core == 0 { core0_capacity } else { 1.0 };
            let share = capacity / per_core[core] as f64;
            let cluster = app.core.cluster();
            let opp = opps[cluster.index()];
            let f = opp.frequency;
            let phase = app.phase_uncached();
            let ips = app.model.ips_in_phase(cluster, f, share, phase).value();
            let cpu_s = app.model.cpi(cluster) * phase.cpi_factor / f.as_hz();
            let mem_s = app.model.mem_stall_ns(cluster) * phase.mem_factor * 1e-9;
            let cf = PowerModel::compute_fraction(cpu_s, mem_s);
            let activity = app.model.activity() * phase.activity_factor * cf * share;
            core_activity[core] += activity;
            let v = opp.voltage.as_volts();
            let dyn_w = self.power.dynamic_coefficient(cluster) * activity * v * v * f.as_ghz();
            app.advance_reference(ips, Watts::new(dyn_w).for_duration(dt), dt, now);
        }
        if governor_drain > SimDuration::ZERO {
            core_busy[0] = true;
            core_activity[0] += 0.8 * (1.0 - core0_capacity);
        }
        let mut total_power = 0.0;
        for core in CoreId::all() {
            let cluster = core.cluster();
            let opp = opps[cluster.index()];
            let p = self.power.core_power_with_leakage(
                cluster,
                opp.frequency,
                opp.voltage,
                core_activity[core.index()],
                self.leakage[core.index()],
            );
            self.period_power[core.index()] += p.value();
            total_power += p.value();
        }
        for cluster in Cluster::ALL {
            let opp = opps[cluster.index()];
            let busy = cluster.cores().any(|c| core_busy[c.index()]);
            let p = self
                .power
                .uncore_power(cluster, opp.frequency, opp.voltage, busy);
            self.period_power[NUM_CORES + cluster.index()] += p.value();
            total_power += p.value();
        }
        let thermal_step = (now + dt).is_multiple_of(self.thermal_period);
        self.end_tick(&core_busy, dt.as_secs_f64(), total_power, true);
        assert_eq!(
            self.period_ticks == 0,
            thermal_step,
            "the thermal step must close every period, at {now}"
        );
    }
}

/// How much of each path one scenario exercised.
#[derive(Debug, Default)]
struct Coverage {
    phase_changes: u64,
    stalled_migrations: u64,
    delayed_transitions: u64,
    throttled: bool,
    completions: usize,
}

/// A phased model with a short phase period, so phases turn over within
/// tens of ticks.
fn fast_phased_model(rng: &mut StdRng) -> AppModel {
    let phases = (0..rng.random_range(2..5))
        .map(|_| Phase {
            weight: rng.random_range(0.05..1.0),
            cpi_factor: rng.random_range(0.7..1.6),
            mem_factor: rng.random_range(0.5..2.0),
            activity_factor: rng.random_range(0.8..1.2),
        })
        .collect();
    AppModel::builder("fast-phased")
        .cpi(Cluster::Big, rng.random_range(0.8..2.0))
        .cpi(Cluster::Little, rng.random_range(1.8..3.2))
        .mem_stall_ns(Cluster::Big, rng.random_range(0.02..1.0))
        .mem_stall_ns(Cluster::Little, rng.random_range(0.03..1.2))
        .l2d_per_kinst(rng.random_range(4.0..120.0))
        .activity(rng.random_range(0.7..1.3))
        .phases(phases)
        .phase_period_insts(rng.random_range(1_000_000..60_000_000))
        .build()
}

/// Admits one random application on one of the first `cores` cores.
fn admit_random(p: &mut Platform, rng: &mut StdRng, cores: usize) -> AppId {
    let core = CoreId::new(rng.random_range(0..cores));
    let total = match rng.random_range(0..3) {
        0 => Some(rng.random_range(5_000_000..400_000_000)),
        _ => Some(u64::MAX),
    };
    if rng.random_range(0..2) == 0 {
        let model = fast_phased_model(rng);
        let target = QosTarget::new(Ips::from_mips(rng.random_range(50.0..1500.0)));
        p.admit_model(model, target, core, total)
    } else {
        let benchmark = Benchmark::all()[rng.random_range(0..Benchmark::all().len())];
        let mut spec = *workloads::Workload::single(
            benchmark,
            workloads::QosSpec::FractionOfMaxBig(rng.random_range(0.1..0.6)),
        )
        .iter()
        .next()
        .expect("one arrival");
        spec.total_instructions = total;
        p.admit(&spec, core)
    }
}

/// Asserts that two platforms agree on everything a policy can observe,
/// and that the memoized one's cached windows equal a recomputation.
fn assert_same_observables(memo: &Platform, reference: &Platform) {
    assert_eq!(memo.now(), reference.now());
    assert_eq!(memo.level, reference.level);
    assert_eq!(
        memo.sensor().value().to_bits(),
        reference.sensor().value().to_bits()
    );
    let bits = |p: &Platform| {
        p.apps
            .values()
            .map(|a| {
                (
                    a.id,
                    a.core,
                    a.executed_instructions(),
                    a.current_ips().value().to_bits(),
                    a.l2d_per_sec().to_bits(),
                    a.energy().value().to_bits(),
                    a.violation_time(),
                    a.in_migration_stall(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(memo), bits(reference));
    for app in memo.apps.values() {
        assert_eq!(app.current_ips(), app.current_ips_uncached());
        assert_eq!(
            app.l2d_per_sec().to_bits(),
            app.l2d_per_sec_uncached().to_bits()
        );
    }
    assert_eq!(
        memo.metrics().energy().value().to_bits(),
        reference.metrics().energy().value().to_bits()
    );
}

/// Runs one random scenario on both ticks and returns what it exercised.
fn run_scenario(seed: u64) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = FaultPlan::none(seed);
    plan.dvfs.reject_rate = 0.1;
    plan.dvfs.delay_rate = 0.3;
    plan.dvfs.delay = SimDuration::from_millis(rng.random_range(2..30));
    plan.sensor.spike_rate = 0.2;
    plan.sensor.spike_magnitude = 70.0;
    plan.sensor.dropout_rate = 0.02;
    // Mostly the default tick; also one that divides the thermal period
    // more finely and one that does not divide it.
    let tick = [1_000, 1_000, 500, 3_000][seed as usize % 4];
    let config = PlatformConfig {
        tick: SimDuration::from_micros(tick),
        cooling: if seed.is_multiple_of(2) {
            Cooling::fan()
        } else {
            Cooling::passive()
        },
        fault_plan: Some(plan),
        // Raw samples reach DTM, so the spikes trip it.
        sensor_filter: None,
        ..PlatformConfig::default()
    };
    let mut memo = Platform::new(config);
    let mut reference = Platform::new(config);
    // Few cores, so applications share them.
    let cores = rng.random_range(2..NUM_CORES + 1);
    for _ in 0..rng.random_range(2..7) {
        let mut action_rng = rng.clone();
        admit_random(&mut memo, &mut action_rng, cores);
        admit_random(&mut reference, &mut rng, cores);
    }
    let mut coverage = Coverage::default();
    let mut last_phase: BTreeMap<AppId, Phase> = BTreeMap::new();
    for _ in 0..3_000 {
        // Governor debt on core 0, so its share changes every tick.
        let debt = SimDuration::from_micros(rng.random_range(0..1_400));
        let action = rng.random_range(0..100);
        for (p, rng) in [(&mut memo, &mut rng.clone()), (&mut reference, &mut rng)] {
            p.consume_governor_time(debt);
            match action {
                0..=3 => {
                    let ids: Vec<AppId> = p.apps.keys().copied().collect();
                    if !ids.is_empty() {
                        let id = ids[rng.random_range(0..ids.len())];
                        let core = CoreId::new(rng.random_range(0..NUM_CORES));
                        if p.apps[&id].in_migration_stall() && p.apps[&id].core != core {
                            coverage.stalled_migrations += 1;
                        }
                        p.migrate(id, core);
                    }
                }
                4..=7 => {
                    let cluster = Cluster::ALL[rng.random_range(0..2usize)];
                    let level = rng.random_range(0..p.opp_table(cluster).len());
                    p.set_cluster_level(cluster, level);
                }
                8 => {
                    admit_random(p, rng, cores);
                }
                9 => {
                    if let Some(&id) = p.apps.keys().next() {
                        p.kill(id);
                    }
                }
                _ => {}
            }
        }
        memo.tick();
        reference.tick_reference();
        assert_same_observables(&memo, &reference);
        for app in memo.apps.values() {
            let phase = app.phase_uncached();
            if last_phase
                .insert(app.id, phase)
                .is_some_and(|last| last != phase)
            {
                coverage.phase_changes += 1;
            }
        }
        coverage.throttled |= memo.is_throttling();
    }
    coverage.delayed_transitions = memo.dvfs_delays;
    let (memo, reference) = (memo.into_report(), reference.into_report());
    assert_eq!(format!("{memo:?}"), format!("{reference:?}"));
    coverage.completions = memo
        .outcomes()
        .iter()
        .filter(|o| o.finished_at.is_some())
        .count();
    coverage
}

#[test]
fn memoized_tick_matches_the_reference_bit_for_bit() {
    let mut total = Coverage::default();
    for seed in 0..24 {
        let c = run_scenario(seed);
        total.phase_changes += c.phase_changes;
        total.stalled_migrations += c.stalled_migrations;
        total.delayed_transitions += c.delayed_transitions;
        total.throttled |= c.throttled;
        total.completions += c.completions;
    }
    // The scenarios must reach every path the memo has to get right.
    assert!(total.phase_changes > 100, "{total:?}");
    assert!(total.stalled_migrations > 0, "{total:?}");
    assert!(total.delayed_transitions > 10, "{total:?}");
    assert!(total.throttled, "{total:?}");
    assert!(total.completions > 5, "{total:?}");
}
