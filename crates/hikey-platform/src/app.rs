//! Runtime state of one executing application.

use hmc_types::AppModel;
use hmc_types::{AppId, Cluster, CoreId, Frequency, Ips, Phase, QosTarget, SimDuration, SimTime};

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
}

impl IpsWindow {
    fn new() -> Self {
        IpsWindow {
            buckets: [0.0; WINDOW_BUCKETS],
            filled: 0,
            current: 0,
            elapsed_in_bucket: SimDuration::ZERO,
        }
    }

    fn push(&mut self, instructions: f64, dt: SimDuration) {
        self.buckets[self.current] += instructions;
        self.elapsed_in_bucket += dt;
        while self.elapsed_in_bucket >= BUCKET_WIDTH {
            self.elapsed_in_bucket -= BUCKET_WIDTH;
            self.current = (self.current + 1) % WINDOW_BUCKETS;
            self.filled = (self.filled + 1).min(WINDOW_BUCKETS);
            self.buckets[self.current] = 0.0;
        }
    }

    fn ips(&self) -> Ips {
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
    energy: hmc_types::Joules,
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
            model,
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
            energy: hmc_types::Joules::ZERO,
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

    /// Advances the application by `dt` on its core, running on `cluster`
    /// at frequency `f` with core-time share `share`, in `phase` (the
    /// caller's [`phase`](Self::phase) of this tick). Returns the executed
    /// instructions.
    pub(crate) fn advance(
        &mut self,
        cluster: Cluster,
        f: Frequency,
        share: f64,
        dt: SimDuration,
        now: SimTime,
        phase: Phase,
    ) -> f64 {
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
        let ips = self.model.ips_in_phase(cluster, f, share, phase).value();
        let insts = ips * effective_dt.as_secs_f64();
        self.executed = (self.executed + insts).min(self.total);
        let l2d = insts * self.model.l2d_per_kinst() / 1000.0;
        self.l2d_total += l2d;
        self.window.push(insts, dt);
        self.l2d_window.push(l2d, dt);
        self.active_time += dt;
        if now >= self.grace_until && self.qos_target.is_violated_by(self.window.ips()) {
            self.violation_time += dt;
        }
        insts
    }

    /// The currently active execution phase.
    pub(crate) fn phase(&self) -> Phase {
        self.model.phase_at(self.executed as u64)
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

    /// Adds attributed CPU energy (the application's dynamic-power share).
    pub(crate) fn add_energy(&mut self, joules: hmc_types::Joules) {
        self.energy += joules;
    }

    pub(crate) fn energy(&self) -> hmc_types::Joules {
        self.energy
    }

    pub(crate) fn migrations(&self) -> u64 {
        self.migrations
    }

    pub(crate) fn in_migration_stall(&self) -> bool {
        !self.migration_stall.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::Ips;

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
            app.advance(Cluster::Big, f, 1.0, dt, now, app.phase());
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
            app.advance(Cluster::Big, f, 1.0, dt, now, app.phase());
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
            app.advance(Cluster::Big, f, 1.0, dt, now, app.phase());
            now += dt;
        }
        let before = app.executed_instructions();
        app.migrate_to(CoreId::new(0), now);
        assert!(app.in_migration_stall());
        let done = app.advance(Cluster::Little, f, 1.0, dt, now, app.phase());
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
            app.advance(Cluster::Big, f, 1.0, dt, now, app.phase());
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
        app.advance(Cluster::Big, f, 1.0, dt, SimTime::ZERO, app.phase());
        assert!(
            app.is_complete(),
            "1M instructions fit in one 1ms tick at ~2 GIPS"
        );
    }
}
