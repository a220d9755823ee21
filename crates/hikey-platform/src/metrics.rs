//! Run metrics: everything the paper's evaluation figures are built from.

use hmc_types::{AppId, Celsius, Cluster, Ips, Joules, QosTarget, SimDuration, SimTime};

/// The final record of one application's execution.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// The application's identifier.
    pub id: AppId,
    /// Benchmark name.
    pub benchmark: String,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// Completion time (`None` if still running when the run ended).
    pub finished_at: Option<SimTime>,
    /// Mean performance over the whole execution.
    pub mean_ips: Ips,
    /// The QoS target.
    pub qos_target: QosTarget,
    /// Time spent with the windowed IPS below target (outside grace
    /// periods).
    pub violation_time: SimDuration,
    /// Total time the application was admitted.
    pub active_time: SimDuration,
    /// Number of migrations performed on this application.
    pub migrations: u64,
    /// Dynamic CPU energy attributed to this application.
    pub energy: Joules,
}

impl AppOutcome {
    /// Whether this execution counts as a QoS violation: the mean IPS over
    /// the whole execution missed the target — the paper's *global* QoS
    /// criterion ("the QoS may be temporarily violated, potentially
    /// resulting in a global QoS violation among the whole execution").
    /// Transient dips are reported separately via
    /// [`AppOutcome::violation_fraction`].
    pub fn violated_qos(&self) -> bool {
        self.qos_target.is_violated_by(self.mean_ips)
    }

    /// Fraction of active time spent in violation.
    pub fn violation_fraction(&self) -> f64 {
        let active = self.active_time.as_secs_f64();
        if active <= 0.0 {
            0.0
        } else {
            self.violation_time.as_secs_f64() / active
        }
    }
}

/// Aggregated metrics of one simulation run.
///
/// # Examples
///
/// ```
/// use hikey_platform::RunMetrics;
/// let m = RunMetrics::new(7, 9);
/// assert_eq!(m.migrations(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    temp_time_sum: f64,
    peak_temp: f64,
    elapsed: SimDuration,
    /// Busy core-time per cluster per OPP index.
    cpu_time: [Vec<SimDuration>; 2],
    migrations: u64,
    governor_time: SimDuration,
    energy: Joules,
    util_time_sum: f64,
    util_peak: f64,
    throttled_time: SimDuration,
    trip_events: u64,
    outcomes: Vec<AppOutcome>,
    sensor_dropouts: u64,
    failsafe_time: SimDuration,
    failsafe_events: u64,
    dvfs_rejects: u64,
    dvfs_delays: u64,
}

impl RunMetrics {
    /// Creates empty metrics for OPP tables of the given lengths
    /// (LITTLE, big).
    pub fn new(little_levels: usize, big_levels: usize) -> Self {
        RunMetrics {
            temp_time_sum: 0.0,
            peak_temp: f64::NEG_INFINITY,
            elapsed: SimDuration::ZERO,
            cpu_time: [
                vec![SimDuration::ZERO; little_levels],
                vec![SimDuration::ZERO; big_levels],
            ],
            migrations: 0,
            governor_time: SimDuration::ZERO,
            energy: Joules::ZERO,
            util_time_sum: 0.0,
            util_peak: 0.0,
            throttled_time: SimDuration::ZERO,
            trip_events: 0,
            outcomes: Vec::new(),
            sensor_dropouts: 0,
            failsafe_time: SimDuration::ZERO,
            failsafe_events: 0,
            dvfs_rejects: 0,
            dvfs_delays: 0,
        }
    }

    /// Records one tick of length `dt` (`secs` seconds).
    pub(crate) fn record_tick(
        &mut self,
        dt: SimDuration,
        secs: f64,
        sensor: Celsius,
        busy_cores_per_level: &[(Cluster, usize, usize)],
        utilization: f64,
        power: f64,
    ) {
        self.temp_time_sum += sensor.value() * secs;
        self.peak_temp = self.peak_temp.max(sensor.value());
        self.elapsed += dt;
        for &(cluster, level, busy_cores) in busy_cores_per_level {
            self.cpu_time[cluster.index()][level] += dt * busy_cores as u64;
        }
        self.util_time_sum += utilization * secs;
        self.util_peak = self.util_peak.max(utilization);
        self.energy += Joules::new(power * secs);
    }

    pub(crate) fn record_migration(&mut self) {
        self.migrations += 1;
    }

    pub(crate) fn record_governor_time(&mut self, d: SimDuration) {
        self.governor_time += d;
    }

    pub(crate) fn record_outcome(&mut self, outcome: AppOutcome) {
        self.outcomes.push(outcome);
    }

    pub(crate) fn record_dtm(&mut self, throttled_time: SimDuration, trip_events: u64) {
        self.throttled_time = throttled_time;
        self.trip_events = trip_events;
    }

    pub(crate) fn record_sensor_faults(
        &mut self,
        dropouts: u64,
        failsafe_time: SimDuration,
        failsafe_events: u64,
    ) {
        self.sensor_dropouts = dropouts;
        self.failsafe_time = failsafe_time;
        self.failsafe_events = failsafe_events;
    }

    pub(crate) fn record_dvfs_faults(&mut self, rejects: u64, delays: u64) {
        self.dvfs_rejects = rejects;
        self.dvfs_delays = delays;
    }

    /// Total simulated time covered by these metrics.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Time-weighted average sensor temperature.
    pub fn avg_temperature(&self) -> Celsius {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            Celsius::new(0.0)
        } else {
            Celsius::new(self.temp_time_sum / secs)
        }
    }

    /// Peak sensor temperature observed.
    pub fn peak_temperature(&self) -> Celsius {
        Celsius::new(self.peak_temp)
    }

    /// Busy core-time spent on `cluster` at OPP `level`.
    pub fn cpu_time(&self, cluster: Cluster, level: usize) -> SimDuration {
        self.cpu_time[cluster.index()][level]
    }

    /// Busy core-time per OPP level for one cluster.
    pub fn cpu_time_distribution(&self, cluster: Cluster) -> &[SimDuration] {
        &self.cpu_time[cluster.index()]
    }

    /// Total number of application migrations.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// CPU time consumed by the resource-management policy itself.
    pub fn governor_time(&self) -> SimDuration {
        self.governor_time
    }

    /// Total CPU energy.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Time-weighted average system utilization (busy cores / all cores).
    pub fn avg_utilization(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.util_time_sum / secs
        }
    }

    /// Peak system utilization.
    pub fn peak_utilization(&self) -> f64 {
        self.util_peak
    }

    /// Time with DTM throttling engaged.
    pub fn throttled_time(&self) -> SimDuration {
        self.throttled_time
    }

    /// Number of DTM trip events.
    pub fn trip_events(&self) -> u64 {
        self.trip_events
    }

    /// Outcomes of all applications (completed and still-running).
    pub fn outcomes(&self) -> &[AppOutcome] {
        &self.outcomes
    }

    /// Number of applications that violated their QoS target.
    pub fn qos_violations(&self) -> usize {
        self.outcomes.iter().filter(|o| o.violated_qos()).count()
    }

    /// Sensor samples that never arrived (bus dropouts).
    pub fn sensor_dropouts(&self) -> u64 {
        self.sensor_dropouts
    }

    /// Time spent in the sensor-loss fail-safe (lowest OPP on both
    /// clusters).
    pub fn failsafe_time(&self) -> SimDuration {
        self.failsafe_time
    }

    /// Number of times the sensor-loss fail-safe engaged.
    pub fn failsafe_events(&self) -> u64 {
        self.failsafe_events
    }

    /// DVFS transitions rejected by an actuation fault.
    pub fn dvfs_rejects(&self) -> u64 {
        self.dvfs_rejects
    }

    /// DVFS transitions delayed by an actuation fault.
    pub fn dvfs_delays(&self) -> u64 {
        self.dvfs_delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(mean: f64, target: f64, violation_ms: u64, active_ms: u64) -> AppOutcome {
        AppOutcome {
            id: AppId::new(1),
            benchmark: "x".into(),
            arrived_at: SimTime::ZERO,
            finished_at: Some(SimTime::from_secs(1)),
            mean_ips: Ips::from_mips(mean),
            qos_target: QosTarget::new(Ips::from_mips(target)),
            violation_time: SimDuration::from_millis(violation_ms),
            active_time: SimDuration::from_millis(active_ms),
            migrations: 0,
            energy: Joules::ZERO,
        }
    }

    #[test]
    fn violation_by_mean() {
        assert!(outcome(90.0, 100.0, 0, 1000).violated_qos());
        assert!(!outcome(110.0, 100.0, 0, 1000).violated_qos());
    }

    #[test]
    fn transient_dips_reported_but_not_counted() {
        // Global criterion: mean meets the target despite a 20 % dip time.
        assert!(!outcome(110.0, 100.0, 200, 1000).violated_qos());
        assert!((outcome(110.0, 100.0, 200, 1000).violation_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tick_recording_accumulates() {
        let mut m = RunMetrics::new(7, 9);
        m.record_tick(
            SimDuration::from_millis(1),
            1e-3,
            Celsius::new(40.0),
            &[(Cluster::Big, 8, 2)],
            0.25,
            5.0,
        );
        m.record_tick(
            SimDuration::from_millis(1),
            1e-3,
            Celsius::new(50.0),
            &[(Cluster::Big, 8, 2)],
            0.75,
            5.0,
        );
        assert!((m.avg_temperature().value() - 45.0).abs() < 1e-9);
        assert_eq!(m.peak_temperature(), Celsius::new(50.0));
        assert_eq!(m.cpu_time(Cluster::Big, 8), SimDuration::from_millis(4));
        assert!((m.avg_utilization() - 0.5).abs() < 1e-9);
        assert_eq!(m.peak_utilization(), 0.75);
        assert!((m.energy().value() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn qos_violation_count() {
        let mut m = RunMetrics::new(7, 9);
        m.record_outcome(outcome(90.0, 100.0, 0, 1000));
        m.record_outcome(outcome(110.0, 100.0, 0, 1000));
        assert_eq!(m.qos_violations(), 1);
        assert_eq!(m.outcomes().len(), 2);
    }
}
