//! Runtime state of one executing application.

use hmc_types::AppModel;
use hmc_types::{
    AppId, Cluster, CoreId, Ips, Joules, Phase, PhaseSpan, QosTarget, SimDuration, SimTime,
};

/// Number of buckets in the sliding IPS window.
const WINDOW_BUCKETS: usize = 10;
/// Width of one window bucket.
const BUCKET_WIDTH: SimDuration = SimDuration::from_millis(10);

/// Grace period after arrival or migration during which QoS misses are not
/// counted as violations (cold caches / ramp-up, cf. the paper's skipped
/// DVFS iterations after a migration).
const QOS_GRACE: SimDuration = SimDuration::from_millis(500);

/// Sliding-window IPS estimator (the `q_k` observable of the paper).
#[derive(Debug, Clone)]
struct IpsWindow {
    buckets: [f64; WINDOW_BUCKETS],
    filled: usize,
    current: usize,
    elapsed_in_bucket: SimDuration,
    /// [`estimate`](Self::estimate) as of the last push. Once a bucket is
    /// complete the estimate reads only complete buckets, which change
    /// when the window rotates; before that it reads the filling bucket,
    /// which every push changes.
    cached: Ips,
}

impl IpsWindow {
    fn new() -> Self {
        IpsWindow {
            buckets: [0.0; WINDOW_BUCKETS],
            filled: 0,
            current: 0,
            elapsed_in_bucket: SimDuration::ZERO,
            cached: Ips::ZERO,
        }
    }

    #[inline]
    fn push(&mut self, instructions: f64, dt: SimDuration) {
        self.buckets[self.current] += instructions;
        self.elapsed_in_bucket += dt;
        if self.elapsed_in_bucket >= BUCKET_WIDTH || self.filled == 0 {
            self.rotate_and_refresh();
        }
    }

    /// Rotates past every completed bucket and recomputes the estimate.
    fn rotate_and_refresh(&mut self) {
        while self.elapsed_in_bucket >= BUCKET_WIDTH {
            self.elapsed_in_bucket -= BUCKET_WIDTH;
            self.current = (self.current + 1) % WINDOW_BUCKETS;
            self.filled = (self.filled + 1).min(WINDOW_BUCKETS);
            self.buckets[self.current] = 0.0;
        }
        self.cached = self.estimate();
    }

    /// The windowed rate, as of the last push.
    fn ips(&self) -> Ips {
        self.cached
    }

    fn estimate(&self) -> Ips {
        // Use only completed buckets for a stable estimate (the bucket at
        // `current` is still filling, so at most `WINDOW_BUCKETS - 1` are
        // complete); fall back to the partial bucket right after start.
        let complete = self.filled.min(WINDOW_BUCKETS - 1);
        if complete == 0 {
            let secs = self.elapsed_in_bucket.as_secs_f64();
            if secs <= 0.0 {
                return Ips::ZERO;
            }
            return Ips::new(self.buckets[self.current] / secs);
        }
        let mut sum = 0.0;
        for i in 1..=complete {
            let idx = (self.current + WINDOW_BUCKETS - i) % WINDOW_BUCKETS;
            sum += self.buckets[idx];
        }
        Ips::new(sum / (complete as f64 * BUCKET_WIDTH.as_secs_f64()))
    }
}

/// What one application does at one operating point: its instruction
/// rate and effective activity (switching activity × compute fraction ×
/// core share), and what one whole tick at that point executes and costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AppRates {
    /// Instructions per second.
    pub(crate) ips: f64,
    pub(crate) activity: f64,
    /// Instructions and L2 data-cache accesses of a tick without a
    /// migration stall, and the tick's attributed dynamic energy.
    pub(crate) tick_insts: f64,
    pub(crate) tick_l2d: f64,
    pub(crate) tick_energy: Joules,
}

impl AppRates {
    /// The rates at `ips` instructions per second, `activity` and `dyn_w`
    /// watts of dynamic power, for `model` and ticks of `dt_secs` seconds.
    pub(crate) fn new(model: &AppModel, ips: f64, activity: f64, dyn_w: f64, dt_secs: f64) -> Self {
        let tick_insts = ips * dt_secs;
        AppRates {
            ips,
            activity,
            tick_insts,
            tick_l2d: l2d_accesses(model, tick_insts),
            tick_energy: Joules::new(dyn_w * dt_secs),
        }
    }
}

/// The L2 data-cache accesses of `insts` instructions of `model`.
fn l2d_accesses(model: &AppModel, insts: f64) -> f64 {
    insts * model.l2d_per_kinst() / 1000.0
}

/// The inputs [`AppRates`] depend on besides the application's own fixed
/// model: the cluster, its OPP level (which fixes V and f), the core's
/// capacity (exact bits) and the number of applications sharing it (the
/// share is their quotient), and the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RatesKey {
    pub(crate) cluster: Cluster,
    pub(crate) level: usize,
    pub(crate) capacity_bits: u64,
    pub(crate) sharers: usize,
    pub(crate) phase: usize,
}

/// The mutable execution state of one admitted application.
#[derive(Debug, Clone)]
pub(crate) struct AppInstance {
    pub(crate) id: AppId,
    pub(crate) model: AppModel,
    pub(crate) qos_target: QosTarget,
    pub(crate) core: CoreId,
    pub(crate) arrived_at: SimTime,
    executed: f64,
    total: f64,
    l2d_total: f64,
    window: IpsWindow,
    l2d_window: IpsWindow,
    /// Remaining cold-cache stall after a migration.
    migration_stall: SimDuration,
    /// End of the QoS grace period (after arrival or migration).
    grace_until: SimTime,
    active_time: SimDuration,
    violation_time: SimDuration,
    migrations: u64,
    energy: Joules,
    /// The phase of the last lookup and the executed counts it covers.
    phase_span: PhaseSpan,
    /// The rates of the last tick and the inputs they were computed from.
    rates_memo: Option<(RatesKey, AppRates)>,
}

impl AppInstance {
    pub(crate) fn new(
        id: AppId,
        model: AppModel,
        qos_target: QosTarget,
        core: CoreId,
        now: SimTime,
        total_override: Option<u64>,
    ) -> Self {
        let total = total_override.unwrap_or(model.total_instructions()) as f64;
        AppInstance {
            id,
            qos_target,
            core,
            arrived_at: now,
            executed: 0.0,
            total,
            l2d_total: 0.0,
            window: IpsWindow::new(),
            l2d_window: IpsWindow::new(),
            migration_stall: SimDuration::ZERO,
            grace_until: now + QOS_GRACE,
            active_time: SimDuration::ZERO,
            violation_time: SimDuration::ZERO,
            migrations: 0,
            energy: Joules::ZERO,
            phase_span: model.phase_span(0),
            rates_memo: None,
            model,
        }
    }

    /// Records a migration to `core`: cold caches stall the application for
    /// a model-dependent time (longer for memory/cache-intensive code) and
    /// restart the QoS grace period.
    pub(crate) fn migrate_to(&mut self, core: CoreId, now: SimTime) {
        if core == self.core {
            return;
        }
        self.core = core;
        self.migrations += 1;
        // Cold-cache penalty: a base pipeline drain plus cache refill that
        // scales with the application's L2 footprint proxy.
        let stall_us = 200.0 + 90.0 * self.model.l2d_per_kinst();
        self.migration_stall = SimDuration::from_micros(stall_us as u64);
        self.grace_until = now + QOS_GRACE;
    }

    /// Advances the application by `dt` on its core at `rates` (its
    /// [`rates`](Self::rates) of this tick). Returns the executed
    /// instructions.
    pub(crate) fn advance(&mut self, rates: &AppRates, dt: SimDuration, now: SimTime) -> f64 {
        let (insts, l2d) = if self.migration_stall.is_zero() {
            (rates.tick_insts, rates.tick_l2d)
        } else {
            let effective_dt = if self.migration_stall >= dt {
                self.migration_stall -= dt;
                SimDuration::ZERO
            } else {
                let rest = dt - self.migration_stall;
                self.migration_stall = SimDuration::ZERO;
                rest
            };
            let insts = rates.ips * effective_dt.as_secs_f64();
            (insts, l2d_accesses(&self.model, insts))
        };
        self.executed = (self.executed + insts).min(self.total);
        self.l2d_total += l2d;
        self.window.push(insts, dt);
        self.l2d_window.push(l2d, dt);
        self.active_time += dt;
        if now >= self.grace_until && self.qos_target.is_violated_by(self.window.ips()) {
            self.violation_time += dt;
        }
        self.energy += rates.tick_energy;
        insts
    }

    /// The index of the currently active execution phase. The phase span
    /// of the last lookup answers while the executed count stays in it.
    pub(crate) fn phase_index(&mut self) -> usize {
        let executed = self.executed as u64;
        if !self.phase_span.contains(executed) {
            self.phase_span = self.model.phase_span(executed);
        }
        self.phase_span.index
    }

    /// This tick's rates for `key`: those of the last tick when the key is
    /// the same, else `compute(model, phase)`.
    pub(crate) fn rates(
        &mut self,
        key: RatesKey,
        compute: impl FnOnce(&AppModel, Phase) -> AppRates,
    ) -> AppRates {
        match self.rates_memo {
            Some((memo_key, rates)) if memo_key == key => rates,
            _ => {
                let rates = compute(&self.model, self.model.phases()[key.phase]);
                self.rates_memo = Some((key, rates));
                rates
            }
        }
    }

    /// Windowed performance (the observable `q_k`).
    pub(crate) fn current_ips(&self) -> Ips {
        self.window.ips()
    }

    /// Windowed L2 data-cache access rate (accesses per second).
    pub(crate) fn l2d_per_sec(&self) -> f64 {
        self.l2d_window.ips().value()
    }

    pub(crate) fn executed_instructions(&self) -> u64 {
        self.executed as u64
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.executed >= self.total
    }

    pub(crate) fn mean_ips(&self) -> Ips {
        let secs = self.active_time.as_secs_f64();
        if secs <= 0.0 {
            Ips::ZERO
        } else {
            Ips::new(self.executed / secs)
        }
    }

    pub(crate) fn active_time(&self) -> SimDuration {
        self.active_time
    }

    pub(crate) fn violation_time(&self) -> SimDuration {
        self.violation_time
    }

    pub(crate) fn energy(&self) -> Joules {
        self.energy
    }

    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    pub(crate) fn in_migration_stall(&self) -> bool {
        !self.migration_stall.is_zero()
    }

    /// [`advance`](Self::advance) with every per-tick amount computed
    /// afresh from `ips` and `energy`, the tick's dynamic energy.
    #[cfg(test)]
    pub(crate) fn advance_reference(
        &mut self,
        ips: f64,
        energy: Joules,
        dt: SimDuration,
        now: SimTime,
    ) {
        let mut effective_dt = dt;
        if !self.migration_stall.is_zero() {
            if self.migration_stall >= dt {
                self.migration_stall -= dt;
                effective_dt = SimDuration::ZERO;
            } else {
                effective_dt = dt - self.migration_stall;
                self.migration_stall = SimDuration::ZERO;
            }
        }
        let insts = ips * effective_dt.as_secs_f64();
        self.executed = (self.executed + insts).min(self.total);
        let l2d = insts * self.model.l2d_per_kinst() / 1000.0;
        self.l2d_total += l2d;
        self.window.push(insts, dt);
        self.l2d_window.push(l2d, dt);
        self.active_time += dt;
        if now >= self.grace_until && self.qos_target.is_violated_by(self.window.estimate()) {
            self.violation_time += dt;
        }
        self.energy += energy;
    }

    /// The active phase, looked up afresh (no span kept).
    #[cfg(test)]
    pub(crate) fn phase_uncached(&self) -> Phase {
        self.model.phase_at(self.executed as u64)
    }

    /// Windowed performance recomputed from the buckets.
    #[cfg(test)]
    pub(crate) fn current_ips_uncached(&self) -> Ips {
        self.window.estimate()
    }

    /// Windowed L2 data-cache access rate recomputed from the buckets.
    #[cfg(test)]
    pub(crate) fn l2d_per_sec_uncached(&self) -> f64 {
        self.l2d_window.estimate().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{Frequency, Ips};
    use proptest::prelude::*;

    fn model() -> AppModel {
        AppModel::builder("t")
            .cpi(Cluster::Big, 1.0)
            .cpi(Cluster::Little, 2.0)
            .mem_stall_ns(Cluster::Big, 0.1)
            .mem_stall_ns(Cluster::Little, 0.12)
            .l2d_per_kinst(20.0)
            .total_instructions(1_000_000_000)
            .build()
    }

    /// Advances `app` by `dt` at full share on `cluster` at `f`.
    fn step(
        app: &mut AppInstance,
        cluster: Cluster,
        f: Frequency,
        dt: SimDuration,
        now: SimTime,
    ) -> f64 {
        let index = app.phase_index();
        let phase = app.model.phases()[index];
        let ips = app.model.ips_in_phase(cluster, f, 1.0, phase).value();
        let rates = AppRates::new(&app.model, ips, 0.0, 0.0, dt.as_secs_f64());
        app.advance(&rates, dt, now)
    }

    fn instance() -> AppInstance {
        AppInstance::new(
            AppId::new(1),
            model(),
            QosTarget::new(Ips::from_mips(100.0)),
            CoreId::new(4),
            SimTime::ZERO,
            None,
        )
    }

    #[test]
    fn advances_and_completes() {
        let mut app = instance();
        let f = Frequency::from_mhz(2362);
        let mut now = SimTime::ZERO;
        let dt = SimDuration::from_millis(1);
        let mut iterations = 0u64;
        while !app.is_complete() {
            step(&mut app, Cluster::Big, f, dt, now);
            now += dt;
            iterations += 1;
            assert!(iterations < 10_000_000, "should finish");
        }
        assert_eq!(app.executed_instructions(), 1_000_000_000);
        // ~1.9 GIPS -> roughly half a second of execution.
        assert!(app.active_time() > SimDuration::from_millis(100));
    }

    #[test]
    fn window_ips_tracks_steady_rate() {
        let mut app = instance();
        let f = Frequency::from_mhz(1018);
        let dt = SimDuration::from_millis(1);
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            step(&mut app, Cluster::Big, f, dt, now);
            now += dt;
        }
        let expected = app.model.ips(Cluster::Big, f, 1.0).value();
        let measured = app.current_ips().value();
        assert!(
            (measured - expected).abs() / expected < 0.02,
            "window {measured} vs model {expected}"
        );
        // L2D rate is proportional to IPS.
        let l2d = app.l2d_per_sec();
        assert!((l2d - expected * 0.02).abs() / (expected * 0.02) < 0.05);
    }

    #[test]
    fn migration_stall_pauses_progress() {
        let mut app = instance();
        let f = Frequency::from_mhz(1018);
        let dt = SimDuration::from_millis(1);
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            step(&mut app, Cluster::Big, f, dt, now);
            now += dt;
        }
        let before = app.executed_instructions();
        app.migrate_to(CoreId::new(0), now);
        assert!(app.in_migration_stall());
        let done = step(&mut app, Cluster::Little, f, dt, now);
        assert_eq!(done, 0.0, "stalled tick executes nothing");
        assert_eq!(app.executed_instructions(), before);
        assert_eq!(app.migrations(), 1);
    }

    #[test]
    fn migration_to_same_core_is_noop() {
        let mut app = instance();
        app.migrate_to(CoreId::new(4), SimTime::from_millis(10));
        assert_eq!(app.migrations(), 0);
        assert!(!app.in_migration_stall());
    }

    #[test]
    fn violations_counted_after_grace() {
        // Target far above what the lowest OPP can deliver.
        let mut app = AppInstance::new(
            AppId::new(1),
            model(),
            QosTarget::new(Ips::new(1e12)),
            CoreId::new(4),
            SimTime::ZERO,
            None,
        );
        let f = Frequency::from_mhz(682);
        let dt = SimDuration::from_millis(1);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            step(&mut app, Cluster::Big, f, dt, now);
            now += dt;
        }
        // 1000 ms total, 500 ms grace -> ~500 ms violation time.
        let v = app.violation_time().as_millis();
        assert!((450..=550).contains(&v), "violation time {v} ms");
    }

    #[test]
    fn total_override_shortens_run() {
        let mut app = AppInstance::new(
            AppId::new(2),
            model(),
            QosTarget::NONE,
            CoreId::new(4),
            SimTime::ZERO,
            Some(1_000_000),
        );
        let f = Frequency::from_mhz(2362);
        let dt = SimDuration::from_millis(1);
        step(&mut app, Cluster::Big, f, dt, SimTime::ZERO);
        assert!(
            app.is_complete(),
            "1M instructions fit in one 1ms tick at ~2 GIPS"
        );
    }

    proptest! {
        /// The cached window estimate equals a recomputation from the
        /// buckets after every push, with pushes shorter than, equal to and
        /// longer than a bucket and rates that change every push.
        #[test]
        fn window_cache_equals_a_recomputation(
            steps in proptest::collection::vec(0u64..50_000, 1..400),
        ) {
            let mut window = IpsWindow::new();
            prop_assert_eq!(window.ips(), window.estimate());
            for code in steps {
                let dt = SimDuration::from_micros(1 + code % 25_000);
                let instructions = (code / 25_000) as f64 * 1.3e6 + code as f64;
                window.push(instructions, dt);
                let (cached, fresh) = (window.ips().value(), window.estimate().value());
                prop_assert_eq!(cached.to_bits(), fresh.to_bits());
            }
        }
    }

    #[test]
    fn phase_index_follows_the_phases() {
        let model = AppModel::builder("phased")
            .cpi(Cluster::Big, 1.0)
            .phases(vec![
                Phase::NEUTRAL,
                Phase {
                    cpi_factor: 3.0,
                    ..Phase::NEUTRAL
                },
            ])
            .phase_period_insts(10_000_000)
            .build();
        let mut app = AppInstance::new(
            AppId::new(3),
            model,
            QosTarget::NONE,
            CoreId::new(4),
            SimTime::ZERO,
            None,
        );
        let f = Frequency::from_mhz(682);
        let dt = SimDuration::from_micros(100);
        let mut now = SimTime::ZERO;
        let mut seen = [false; 2];
        for _ in 0..2_000 {
            let index = app.phase_index();
            assert_eq!(app.model.phases()[index], app.phase_uncached());
            seen[index] = true;
            step(&mut app, Cluster::Big, f, dt, now);
            now += dt;
        }
        assert_eq!(seen, [true, true], "both phases must come round");
    }
}
