//! Plausibility filtering of the thermal sensor.
//!
//! The real board exposes a single die sensor over a shared bus; samples
//! can be dropped, latched, or corrupted. The DTM controller must not act
//! on garbage (a +20 K impulse would throttle the whole SoC for nothing),
//! so the platform routes every sample through a [`SensorFilter`]:
//!
//! * **range check** — readings outside the physically plausible band are
//!   rejected,
//! * **rate-of-change check** — the die's thermal mass bounds how fast the
//!   true temperature can move; a faster jump is a glitch,
//! * **median-of-last-k check** — a reading far from the recent median is
//!   rejected, but a *persistent* shift moves the median within k/2
//!   samples, so genuine step changes are tracked,
//! * **hold-last-good** — rejected or missing samples are replaced by the
//!   last accepted value,
//! * **fail-safe** — if no sample passes for longer than a configurable
//!   deadline the filter reports [`SensorReading::Lost`] and the platform
//!   throttles both clusters to their lowest OPP.
//!
//! Accepted samples pass through **unmodified** (no smoothing), so a
//! fault-free run filtered or not is bit-identical.

use hmc_types::{Celsius, SimDuration, SimTime};

/// Configuration of the [`SensorFilter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFilterConfig {
    /// Number of recent raw samples kept for the median check.
    pub window: usize,
    /// Lowest plausible reading (°C).
    pub min_plausible: f64,
    /// Highest plausible reading (°C).
    pub max_plausible: f64,
    /// Maximum plausible rate of change (K/s) relative to the last
    /// accepted sample.
    pub max_rate_c_per_s: f64,
    /// Maximum deviation from the median of the recent window (K).
    pub max_median_deviation: f64,
    /// How long missing/rejected samples are bridged by the last good
    /// value before the sensor is declared lost.
    pub hold_deadline: SimDuration,
}

impl Default for SensorFilterConfig {
    fn default() -> Self {
        SensorFilterConfig {
            window: 5,
            min_plausible: -10.0,
            max_plausible: 125.0,
            max_rate_c_per_s: 200.0,
            max_median_deviation: 10.0,
            hold_deadline: SimDuration::from_millis(500),
        }
    }
}

/// The filter's verdict on one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorReading {
    /// The sample is plausible and passed through unmodified.
    Valid(Celsius),
    /// The sample was missing or rejected; the last good value is held.
    Held(Celsius),
    /// No plausible sample for longer than the hold deadline.
    Lost,
}

/// Median-of-last-k plausibility filter with hold-last-good bridging.
///
/// # Examples
///
/// ```
/// use hikey_platform::{SensorFilter, SensorFilterConfig, SensorReading};
/// use hmc_types::{Celsius, SimTime};
///
/// let mut filter = SensorFilter::new(SensorFilterConfig::default());
/// let t = SimTime::from_millis(1);
/// assert_eq!(
///     filter.ingest(t, Some(Celsius::new(40.0))),
///     SensorReading::Valid(Celsius::new(40.0))
/// );
/// // A +30 K impulse one millisecond later is implausible and held over.
/// let t2 = SimTime::from_millis(2);
/// assert_eq!(
///     filter.ingest(t2, Some(Celsius::new(70.0))),
///     SensorReading::Held(Celsius::new(40.0))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SensorFilter {
    config: SensorFilterConfig,
    /// Ring of the most recent raw (non-missing) samples.
    ring: Vec<f64>,
    ring_pos: usize,
    /// The values of `ring` in `total_cmp` order, kept in step with it
    /// (one removal and one insertion per sample) for the median check.
    sorted: Vec<f64>,
    last_good: Option<(SimTime, f64)>,
    lost: bool,
    held: u64,
    rejected: u64,
    lost_events: u64,
}

impl SensorFilter {
    /// Creates an empty filter.
    pub fn new(config: SensorFilterConfig) -> Self {
        SensorFilter {
            config,
            ring: Vec::with_capacity(config.window.max(1)),
            ring_pos: 0,
            sorted: Vec::with_capacity(config.window.max(1)),
            last_good: None,
            lost: false,
            held: 0,
            rejected: 0,
            lost_events: 0,
        }
    }

    /// Seeds the filter with a known-good reading (the platform boots at
    /// ambient with a working sensor).
    pub fn seed(&mut self, now: SimTime, value: Celsius) {
        self.last_good = Some((now, value.value()));
    }

    /// The filter configuration.
    pub fn config(&self) -> &SensorFilterConfig {
        &self.config
    }

    /// Samples bridged by hold-last-good (missing or rejected).
    pub fn held_samples(&self) -> u64 {
        self.held
    }

    /// Samples rejected by the plausibility checks.
    pub fn rejected_samples(&self) -> u64 {
        self.rejected
    }

    /// Transitions into the lost state.
    pub fn lost_events(&self) -> u64 {
        self.lost_events
    }

    /// Whether the sensor is currently considered lost.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Ingests one sample (`None` = dropout) and returns the verdict.
    pub fn ingest(&mut self, now: SimTime, sample: Option<Celsius>) -> SensorReading {
        let Some(sample) = sample else {
            return self.hold_or_lose(now);
        };
        let value = sample.value();
        let plausible = self.is_plausible(now, value);
        self.push_ring(value);
        if plausible {
            self.last_good = Some((now, value));
            self.lost = false;
            SensorReading::Valid(sample)
        } else {
            self.rejected += 1;
            self.hold_or_lose(now)
        }
    }

    fn is_plausible(&mut self, now: SimTime, value: f64) -> bool {
        if value < self.config.min_plausible || value > self.config.max_plausible {
            return false;
        }
        if let Some((at, good)) = self.last_good {
            let dt = now.since(at).as_secs_f64();
            let jump = (value - good).abs();
            if dt > 0.0 {
                if jump / dt > self.config.max_rate_c_per_s {
                    return false;
                }
            } else if jump > self.config.max_median_deviation {
                return false;
            }
        }
        if self.ring.len() >= self.config.window.max(1) {
            let median = self.median();
            if (value - median).abs() > self.config.max_median_deviation {
                return false;
            }
        }
        true
    }

    /// The middle element of the window in `total_cmp` order. `total_cmp`
    /// is a total order on bit patterns, so `sorted` holds exactly the
    /// bits a fresh sort of the ring would, and this is the same value.
    fn median(&self) -> f64 {
        self.sorted[self.sorted.len() / 2]
    }

    fn push_ring(&mut self, value: f64) {
        let window = self.config.window.max(1);
        if self.ring.len() < window {
            self.ring.push(value);
        } else {
            let evicted = std::mem::replace(&mut self.ring[self.ring_pos], value);
            self.ring_pos = (self.ring_pos + 1) % window;
            let at = self
                .sorted
                .binary_search_by(|v| v.total_cmp(&evicted))
                .expect("every ring value is in the sorted window");
            self.sorted.remove(at);
        }
        let at = self.sorted.partition_point(|v| v.total_cmp(&value).is_lt());
        self.sorted.insert(at, value);
    }

    fn hold_or_lose(&mut self, now: SimTime) -> SensorReading {
        if let Some((at, good)) = self.last_good {
            if now.since(at) <= self.config.hold_deadline {
                self.held += 1;
                return SensorReading::Held(Celsius::new(good));
            }
        }
        if !self.lost {
            self.lost = true;
            self.lost_events += 1;
        }
        SensorReading::Lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter() -> SensorFilter {
        let mut f = SensorFilter::new(SensorFilterConfig::default());
        f.seed(SimTime::ZERO, Celsius::new(25.0));
        f
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn clean_samples_pass_through_exactly() {
        let mut f = filter();
        for i in 1..200u64 {
            let t = Celsius::new(25.0 + i as f64 * 0.05);
            assert_eq!(f.ingest(ms(i), Some(t)), SensorReading::Valid(t));
        }
        assert_eq!(f.held_samples(), 0);
        assert_eq!(f.rejected_samples(), 0);
    }

    #[test]
    fn impulse_spike_is_held_over() {
        let mut f = filter();
        // Warm from the 25 °C seed to 40 °C within the 200 K/s rate bound
        // (100 ms steps).
        for i in 1..10u64 {
            let r = f.ingest(ms(i * 100), Some(Celsius::new(40.0)));
            assert_eq!(r, SensorReading::Valid(Celsius::new(40.0)), "step {i}");
        }
        // A +35 K impulse 100 ms later (350 K/s) is implausible.
        let r = f.ingest(ms(1000), Some(Celsius::new(75.0)));
        assert_eq!(r, SensorReading::Held(Celsius::new(40.0)));
        // Recovery on the next clean sample.
        let r = f.ingest(ms(1100), Some(Celsius::new(40.1)));
        assert_eq!(r, SensorReading::Valid(Celsius::new(40.1)));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut f = filter();
        f.ingest(ms(100), Some(Celsius::new(30.0)));
        assert!(matches!(
            f.ingest(ms(200), Some(Celsius::new(-40.0))),
            SensorReading::Held(_)
        ));
        assert!(matches!(
            f.ingest(ms(300), Some(Celsius::new(300.0))),
            SensorReading::Held(_)
        ));
        assert_eq!(f.rejected_samples(), 2);
    }

    #[test]
    fn dropouts_hold_then_lose_after_deadline() {
        let mut f = filter();
        // 25 °C seed → 50 °C over 200 ms = 125 K/s: plausible.
        assert_eq!(
            f.ingest(ms(200), Some(Celsius::new(50.0))),
            SensorReading::Valid(Celsius::new(50.0))
        );
        // Within the deadline: held.
        for i in 201..=700u64 {
            assert_eq!(
                f.ingest(ms(i), None),
                SensorReading::Held(Celsius::new(50.0))
            );
        }
        // Past the deadline (last good at 200 ms + 500 ms hold): lost.
        assert_eq!(f.ingest(ms(702), None), SensorReading::Lost);
        assert!(f.is_lost());
        assert_eq!(f.lost_events(), 1);
        // A good sample restores service.
        assert_eq!(
            f.ingest(ms(703), Some(Celsius::new(50.2))),
            SensorReading::Valid(Celsius::new(50.2))
        );
        assert!(!f.is_lost());
    }

    /// The incrementally sorted window selects the same median bits as a
    /// clone-and-sort of the ring, over random sequences past the ring's
    /// wrap-around with repeated values, `±0.0` and NaNs.
    #[test]
    fn incremental_median_matches_clone_and_sort() {
        let palette = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            -1.5,
            40.0,
            40.0,
            41.25,
            1e-300,
        ];
        let mut state = 99u64;
        for window in 1..=7 {
            let config = SensorFilterConfig {
                window,
                ..SensorFilterConfig::default()
            };
            let mut f = SensorFilter::new(config);
            for _ in 0..500 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (state >> 33) as usize;
                let value = if r.is_multiple_of(3) {
                    (r % 97) as f64 * 0.25 - 12.0
                } else {
                    palette[r % palette.len()]
                };
                f.push_ring(value);
                let mut reference = f.ring.clone();
                reference.sort_by(|a, b| a.total_cmp(b));
                let want = reference[reference.len() / 2];
                assert_eq!(f.median().to_bits(), want.to_bits(), "window {window}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&f.sorted), bits(&reference), "window {window}");
            }
        }
    }

    /// The median check against a clone-and-sort reference, past the ring
    /// wrap-around, for an even and an odd window.
    #[test]
    fn median_check_matches_clone_and_sort_reference() {
        for window in [4, 5] {
            let config = SensorFilterConfig {
                window,
                min_plausible: -1000.0,
                max_plausible: 1000.0,
                max_rate_c_per_s: f64::MAX,
                max_median_deviation: 4.0,
                hold_deadline: SimDuration::from_secs(10),
            };
            let mut f = SensorFilter::new(config);
            f.seed(SimTime::ZERO, Celsius::new(40.0));
            let mut recent: Vec<f64> = Vec::new();
            let mut last_good = 40.0;
            let (mut valid, mut held) = (0, 0);
            let mut state = 12345u64;
            for i in 1..=300u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                let sample =
                    (!r.is_multiple_of(11)).then(|| Celsius::new(40.0 + (r % 24) as f64 * 0.5));
                let expected = match sample {
                    None => SensorReading::Held(Celsius::new(last_good)),
                    Some(sample) => {
                        let value = sample.value();
                        let plausible = recent.len() < window || {
                            let mut sorted = recent.clone();
                            sorted.sort_by(|a, b| a.total_cmp(b));
                            (value - sorted[sorted.len() / 2]).abs() <= 4.0
                        };
                        recent.push(value);
                        if recent.len() > window {
                            recent.remove(0);
                        }
                        if plausible {
                            last_good = value;
                            SensorReading::Valid(sample)
                        } else {
                            SensorReading::Held(Celsius::new(last_good))
                        }
                    }
                };
                let got = f.ingest(ms(i), sample);
                assert_eq!(got, expected, "window {window}, sample {i}");
                match got {
                    SensorReading::Valid(_) => valid += 1,
                    _ => held += 1,
                }
            }
            assert!(f.rejected_samples() > 0, "window {window}: no rejection");
            assert!(valid > 0 && held > 0, "window {window}: one-sided run");
        }
    }

    #[test]
    fn persistent_step_change_is_eventually_tracked() {
        let mut f = filter();
        for i in 1..=20u64 {
            f.ingest(ms(i), Some(Celsius::new(40.0)));
        }
        // A genuine step (e.g. sensor re-calibration after a glitch): the
        // first samples are rejected, but once the window majority sits at
        // the new level and enough time passed for the rate check, the
        // filter follows.
        let mut accepted_at = None;
        for i in 0..200u64 {
            let now = ms(21 + i);
            if let SensorReading::Valid(_) = f.ingest(now, Some(Celsius::new(52.0))) {
                accepted_at = Some(i);
                break;
            }
        }
        let i = accepted_at.expect("persistent level must be accepted");
        assert!(i >= 2, "a step must not be accepted instantly (got {i})");
        assert!(i < 150, "the filter must re-lock before the deadline");
    }
}
