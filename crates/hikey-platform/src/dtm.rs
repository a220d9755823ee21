//! Dynamic thermal management (throttling).
//!
//! Like the stock HiKey 970 firmware, the platform clamps the maximum
//! allowed V/f level of both clusters when the thermal sensor exceeds a
//! trip temperature, and releases the clamp once the die has cooled below a
//! hysteresis threshold. The paper's oracle traces are collected with a fan
//! precisely to keep DTM from "throttling the V/f levels unpredictably".

use hmc_types::{Celsius, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// DTM trip point (°C) above which throttling engages.
pub const TRIP_CELSIUS: f64 = 85.0;
/// Hysteresis release point (°C) below which throttling relaxes.
pub const RELEASE_CELSIUS: f64 = 80.0;
/// How often the DTM controller re-evaluates.
const PERIOD: SimDuration = SimDuration::from_millis(100);

/// The throttling controller.
///
/// Tracks, per cluster, how many top OPP levels are currently forbidden.
///
/// # Examples
///
/// ```
/// use hmc_types::{Celsius, SimTime};
/// use hikey_platform::Dtm;
///
/// let mut dtm = Dtm::new();
/// dtm.update(SimTime::from_millis(100), Celsius::new(90.0));
/// assert!(dtm.throttled_levels() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Dtm {
    /// Number of top OPP levels currently clamped off.
    throttled_levels: usize,
    last_update: SimTime,
    /// Accumulated time spent with any throttling active.
    throttled_time: SimDuration,
    /// Number of times the trip point was crossed upward.
    trip_events: u64,
    above_trip: bool,
    /// Fail-safe engaged: the thermal sensor is lost, so both clusters are
    /// clamped to their lowest OPP regardless of `throttled_levels`.
    #[serde(default)]
    failsafe: bool,
}

impl Dtm {
    /// Creates an un-throttled controller.
    pub fn new() -> Self {
        Dtm::default()
    }

    /// Re-evaluates throttling given the current sensor temperature.
    ///
    /// Call once per simulation tick; the controller internally rate-limits
    /// itself to its evaluation period.
    pub fn update(&mut self, now: SimTime, sensor: Celsius) {
        if now.since(self.last_update) < PERIOD && now != SimTime::ZERO {
            return;
        }
        let elapsed = now.since(self.last_update);
        if self.throttled_levels > 0 {
            self.throttled_time += elapsed;
        }
        self.last_update = now;
        if sensor.value() >= TRIP_CELSIUS {
            if !self.above_trip {
                self.trip_events += 1;
                self.above_trip = true;
            }
            self.throttled_levels += 1;
        } else if sensor.value() < RELEASE_CELSIUS {
            self.above_trip = false;
            self.throttled_levels = self.throttled_levels.saturating_sub(1);
        } else {
            self.above_trip = false;
        }
    }

    /// Number of top OPP levels currently forbidden.
    pub fn throttled_levels(&self) -> usize {
        self.throttled_levels
    }

    /// Returns the highest allowed OPP index for a table with `table_len`
    /// levels (never below 0). While the fail-safe is engaged only the
    /// lowest OPP is allowed.
    pub fn max_allowed_index(&self, table_len: usize) -> usize {
        if self.failsafe {
            return 0;
        }
        table_len
            .saturating_sub(1)
            .saturating_sub(self.throttled_levels)
    }

    /// Engages or releases the sensor-loss fail-safe. While engaged, the
    /// platform cannot trust its only thermal input, so the safe action is
    /// to run both clusters at their lowest OPP.
    pub fn set_failsafe(&mut self, on: bool) {
        self.failsafe = on;
    }

    /// Whether the sensor-loss fail-safe is engaged.
    pub fn failsafe(&self) -> bool {
        self.failsafe
    }

    /// Total time spent with throttling active.
    pub fn throttled_time(&self) -> SimDuration {
        self.throttled_time
    }

    /// Number of upward trip-point crossings.
    pub fn trip_events(&self) -> u64 {
        self.trip_events
    }

    /// Returns `true` if any level is currently clamped.
    pub fn is_throttling(&self) -> bool {
        self.failsafe || self.throttled_levels > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_idle_below_trip() {
        let mut dtm = Dtm::new();
        for ms in (0..1000).step_by(100) {
            dtm.update(SimTime::from_millis(ms), Celsius::new(70.0));
        }
        assert_eq!(dtm.throttled_levels(), 0);
        assert!(!dtm.is_throttling());
        assert_eq!(dtm.trip_events(), 0);
    }

    #[test]
    fn ramps_down_above_trip_and_recovers() {
        let mut dtm = Dtm::new();
        for step in 1..=3u64 {
            dtm.update(SimTime::from_millis(step * 100), Celsius::new(88.0));
        }
        assert_eq!(dtm.throttled_levels(), 3);
        assert_eq!(dtm.trip_events(), 1);
        // Between release and trip: hold.
        dtm.update(SimTime::from_millis(400), Celsius::new(82.0));
        assert_eq!(dtm.throttled_levels(), 3);
        // Below release: relax one level per period.
        for step in 5..=20u64 {
            dtm.update(SimTime::from_millis(step * 100), Celsius::new(70.0));
        }
        assert_eq!(dtm.throttled_levels(), 0);
    }

    #[test]
    fn rate_limited_between_periods() {
        let mut dtm = Dtm::new();
        dtm.update(SimTime::from_millis(100), Celsius::new(90.0));
        dtm.update(SimTime::from_millis(110), Celsius::new(90.0));
        dtm.update(SimTime::from_millis(120), Celsius::new(90.0));
        assert_eq!(
            dtm.throttled_levels(),
            1,
            "sub-period updates must not stack"
        );
    }

    #[test]
    fn max_allowed_index_clamps() {
        let mut dtm = Dtm::new();
        assert_eq!(dtm.max_allowed_index(9), 8);
        for step in 1..=20u64 {
            dtm.update(SimTime::from_millis(step * 100), Celsius::new(95.0));
        }
        assert_eq!(dtm.max_allowed_index(9), 0, "never throttles below level 0");
    }

    #[test]
    fn failsafe_forces_lowest_opp() {
        let mut dtm = Dtm::new();
        assert_eq!(dtm.max_allowed_index(9), 8);
        dtm.set_failsafe(true);
        assert!(dtm.failsafe());
        assert!(dtm.is_throttling());
        assert_eq!(dtm.max_allowed_index(9), 0);
        dtm.set_failsafe(false);
        assert_eq!(dtm.max_allowed_index(9), 8);
        assert!(!dtm.is_throttling());
    }

    #[test]
    fn accounts_throttled_time() {
        let mut dtm = Dtm::new();
        dtm.update(SimTime::from_millis(100), Celsius::new(90.0));
        dtm.update(SimTime::from_millis(200), Celsius::new(90.0));
        dtm.update(SimTime::from_millis(300), Celsius::new(60.0));
        assert!(dtm.throttled_time() >= SimDuration::from_millis(200));
    }
}
