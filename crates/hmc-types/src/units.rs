//! Physical unit newtypes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A clock frequency, stored with kilohertz resolution (like Linux cpufreq).
///
/// # Examples
///
/// ```
/// use hmc_types::Frequency;
/// let f = Frequency::from_mhz(2362);
/// assert_eq!(f.as_khz(), 2_362_000);
/// assert!((f.as_ghz() - 2.362).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Frequency(u64);

impl Frequency {
    /// Zero frequency (a halted clock).
    pub const ZERO: Frequency = Frequency(0);

    /// Creates a frequency from kilohertz.
    pub const fn from_khz(khz: u64) -> Self {
        Frequency(khz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency(mhz * 1_000)
    }

    /// Creates a frequency from a floating-point gigahertz value.
    ///
    /// The value is rounded to the nearest kilohertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency((ghz * 1e6).round() as u64)
    }

    /// Returns the frequency in kilohertz.
    pub const fn as_khz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in megahertz (truncating below 1 MHz).
    pub const fn as_mhz(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the frequency in hertz.
    pub fn as_hz(self) -> f64 {
        self.0 as f64 * 1e3
    }

    /// Returns the ratio `self / other` as a float.
    ///
    /// Returns 0.0 if `other` is zero.
    pub fn ratio(self, other: Frequency) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} GHz", self.as_ghz())
        } else {
            write!(f, "{} MHz", self.as_mhz())
        }
    }
}

/// A supply voltage in millivolts.
///
/// # Examples
///
/// ```
/// use hmc_types::Voltage;
/// let v = Voltage::from_millivolts(1_050);
/// assert!((v.as_volts() - 1.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Voltage(u32);

impl Voltage {
    /// Creates a voltage from millivolts.
    pub const fn from_millivolts(mv: u32) -> Self {
        Voltage(mv)
    }

    /// Creates a voltage from volts, rounded to the nearest millivolt.
    pub fn from_volts(v: f64) -> Self {
        Voltage((v * 1e3).round() as u32)
    }

    /// Returns the voltage in millivolts.
    pub const fn as_millivolts(self) -> u32 {
        self.0
    }

    /// Returns the voltage in volts.
    pub fn as_volts(self) -> f64 {
        self.0 as f64 / 1e3
    }
}

impl fmt::Display for Voltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.as_volts())
    }
}

/// A temperature in degrees Celsius.
///
/// Temperatures are signed floats; simulation code is expected to keep them
/// in a physically sensible range but the type does not enforce one.
///
/// # Examples
///
/// ```
/// use hmc_types::Celsius;
/// let a = Celsius::new(42.5);
/// let b = Celsius::new(40.0);
/// assert!((a.degrees_above(b) - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a temperature from a Celsius value.
    pub const fn new(deg: f64) -> Self {
        Celsius(deg)
    }

    /// Returns the raw degree value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the (signed) difference `self - other` in kelvin.
    pub fn degrees_above(self, other: Celsius) -> f64 {
        self.0 - other.0
    }

    /// Returns the larger of two temperatures.
    pub fn max(self, other: Celsius) -> Celsius {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two temperatures.
    pub fn min(self, other: Celsius) -> Celsius {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Celsius {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} °C", self.0)
    }
}

impl Add<f64> for Celsius {
    type Output = Celsius;
    fn add(self, rhs: f64) -> Celsius {
        Celsius(self.0 + rhs)
    }
}

impl Sub<f64> for Celsius {
    type Output = Celsius;
    fn sub(self, rhs: f64) -> Celsius {
        Celsius(self.0 - rhs)
    }
}

/// Electrical power in watts.
///
/// # Examples
///
/// ```
/// use hmc_types::Watts;
/// let p = Watts::new(1.5) + Watts::new(0.5);
/// assert_eq!(p, Watts::new(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Creates a power value from watts.
    pub const fn new(w: f64) -> Self {
        Watts(w)
    }

    /// Returns the raw watt value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Neg for Watts {
    type Output = Watts;
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

/// Energy in joules.
///
/// # Examples
///
/// ```
/// use hmc_types::{Joules, Watts};
/// use hmc_types::SimDuration;
/// let e = Watts::new(2.0).for_duration(SimDuration::from_secs(3));
/// assert_eq!(e, Joules::new(6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Creates an energy value from joules.
    pub const fn new(j: f64) -> Self {
        Joules(j)
    }

    /// Returns the raw joule value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

impl Watts {
    /// Integrates this power over a duration, yielding energy.
    pub fn for_duration(self, d: crate::SimDuration) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }
}

/// A performance value in instructions per second (the paper's QoS metric).
///
/// # Examples
///
/// ```
/// use hmc_types::Ips;
/// let q = Ips::from_mips(471.0);
/// assert!((q.as_mips() - 471.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ips(f64);

impl Ips {
    /// Zero performance.
    pub const ZERO: Ips = Ips(0.0);

    /// Creates an IPS value from raw instructions per second.
    pub const fn new(ips: f64) -> Self {
        Ips(ips)
    }

    /// Creates an IPS value from millions of instructions per second.
    pub fn from_mips(mips: f64) -> Self {
        Ips(mips * 1e6)
    }

    /// Returns the raw instructions-per-second value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Returns the value in millions of instructions per second.
    pub fn as_mips(self) -> f64 {
        self.0 / 1e6
    }

    /// Returns `true` if this performance meets or exceeds `target`.
    pub fn meets(self, target: Ips) -> bool {
        self.0 >= target.0
    }

    /// Scales this IPS value by a dimensionless factor (e.g. frequency ratio).
    pub fn scaled(self, factor: f64) -> Ips {
        Ips(self.0 * factor)
    }

    /// Returns the larger of two IPS values.
    pub fn max(self, other: Ips) -> Ips {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Ips {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MIPS", self.as_mips())
    }
}

impl Add for Ips {
    type Output = Ips;
    fn add(self, rhs: Ips) -> Ips {
        Ips(self.0 + rhs.0)
    }
}

impl AddAssign for Ips {
    fn add_assign(&mut self, rhs: Ips) {
        self.0 += rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn frequency_conversions_round_trip() {
        let f = Frequency::from_mhz(1844);
        assert_eq!(f.as_khz(), 1_844_000);
        assert_eq!(f.as_mhz(), 1844);
        assert!((f.as_ghz() - 1.844).abs() < 1e-12);
        assert_eq!(Frequency::from_ghz(1.844), f);
    }

    #[test]
    fn frequency_ratio_handles_zero() {
        assert_eq!(Frequency::from_mhz(100).ratio(Frequency::ZERO), 0.0);
        let r = Frequency::from_mhz(1500).ratio(Frequency::from_mhz(500));
        assert!((r - 3.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_ordering() {
        assert!(Frequency::from_mhz(682) < Frequency::from_mhz(1018));
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_mhz(1844).to_string(), "1.844 GHz");
        assert_eq!(Frequency::from_mhz(509).to_string(), "509 MHz");
    }

    #[test]
    fn voltage_conversions() {
        let v = Voltage::from_volts(0.7);
        assert_eq!(v.as_millivolts(), 700);
        assert!((v.as_volts() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn celsius_arithmetic() {
        let t = Celsius::new(40.0) + 2.5;
        assert!((t.value() - 42.5).abs() < 1e-12);
        assert!((t.degrees_above(Celsius::new(40.0)) - 2.5).abs() < 1e-12);
        assert_eq!(
            Celsius::new(50.0).max(Celsius::new(40.0)),
            Celsius::new(50.0)
        );
        assert_eq!(
            Celsius::new(50.0).min(Celsius::new(40.0)),
            Celsius::new(40.0)
        );
    }

    #[test]
    fn watts_arithmetic() {
        let mut p = Watts::new(1.0);
        p += Watts::new(0.5);
        assert_eq!(p, Watts::new(1.5));
        assert_eq!(p * 2.0, Watts::new(3.0));
        assert_eq!(p / 3.0, Watts::new(0.5));
        let total: Watts = [Watts::new(1.0), Watts::new(2.0)].into_iter().sum();
        assert_eq!(total, Watts::new(3.0));
    }

    #[test]
    fn energy_integration() {
        let e = Watts::new(2.0).for_duration(SimDuration::from_millis(500));
        assert!((e.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ips_meets_target() {
        let q = Ips::from_mips(471.0);
        assert!(q.meets(Ips::from_mips(400.0)));
        assert!(!q.meets(Ips::from_mips(500.0)));
        assert!((q.scaled(2.0).as_mips() - 942.0).abs() < 1e-9);
    }
}
