//! Analytic power model of the Kirin 970 CPU clusters.
//!
//! Per-core power is the sum of
//!
//! * **dynamic** power `k_dyn · a · V² · f`, where the effective activity
//!   `a` combines the application's switching activity with its *compute
//!   fraction* (memory-stalled cycles burn far less power), and
//! * **leakage** `k_leak · V · exp((T − 25 °C)/T₀)`, which grows with die
//!   temperature and closes the thermal feedback loop.
//!
//! The coefficients are calibrated so a fully busy Cortex-A73 at the top
//! OPP draws ≈2 W and a Cortex-A53 ≈0.5 W, in line with published Kirin 970
//! measurements.

use hmc_types::{Celsius, Cluster, Frequency, Voltage, Watts};

/// Per-cluster power model coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClusterCoefficients {
    /// Dynamic power coefficient in W / (V² · GHz) at activity 1.0.
    k_dyn: f64,
    /// Idle dynamic floor as a fraction of the busy coefficient.
    idle_fraction: f64,
    /// Leakage coefficient in W / V at 25 °C.
    k_leak: f64,
    /// Uncore (cache/interconnect) base power when the cluster is active.
    uncore_base: f64,
    /// Uncore frequency-dependent coefficient in W / (V² · GHz).
    uncore_k: f64,
}

const LITTLE_COEFFS: ClusterCoefficients = ClusterCoefficients {
    k_dyn: 0.244,
    idle_fraction: 0.03,
    k_leak: 0.020,
    uncore_base: 0.06,
    uncore_k: 0.05,
};

const BIG_COEFFS: ClusterCoefficients = ClusterCoefficients {
    k_dyn: 0.665,
    idle_fraction: 0.03,
    k_leak: 0.060,
    uncore_base: 0.12,
    uncore_k: 0.10,
};

/// Temperature scale of the exponential leakage term, in kelvin.
const LEAKAGE_T0: f64 = 40.0;

/// The CPU power model.
///
/// # Examples
///
/// ```
/// use hmc_types::{Celsius, Cluster, Frequency, Voltage};
/// use hikey_platform::PowerModel;
///
/// let pm = PowerModel::kirin970();
/// let busy = pm.core_power(
///     Cluster::Big,
///     Frequency::from_mhz(2362),
///     Voltage::from_millivolts(1100),
///     1.0,
///     Celsius::new(50.0),
/// );
/// assert!(busy.value() > 1.5 && busy.value() < 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    coeffs: [ClusterCoefficients; 2],
}

impl PowerModel {
    /// The calibrated Kirin 970 model.
    pub fn kirin970() -> Self {
        PowerModel {
            coeffs: [LITTLE_COEFFS, BIG_COEFFS],
        }
    }

    /// Power of one core.
    ///
    /// `effective_activity` is the product of the application's switching
    /// activity, its compute fraction and its core-time share, summed over
    /// all applications on the core; `0.0` means the core is idle.
    pub fn core_power(
        &self,
        cluster: Cluster,
        f: Frequency,
        v: Voltage,
        effective_activity: f64,
        core_temp: Celsius,
    ) -> Watts {
        let c = &self.coeffs[cluster.index()];
        let v2f = v.as_volts() * v.as_volts() * f.as_ghz();
        let activity = effective_activity.max(c.idle_fraction);
        let dynamic = c.k_dyn * activity * v2f;
        let leakage = c.k_leak * v.as_volts() * ((core_temp.value() - 25.0) / LEAKAGE_T0).exp();
        Watts::new(dynamic + leakage)
    }

    /// Uncore (shared cache / interconnect) power of one cluster.
    ///
    /// `busy` indicates whether any core of the cluster is executing.
    pub fn uncore_power(&self, cluster: Cluster, f: Frequency, v: Voltage, busy: bool) -> Watts {
        let c = &self.coeffs[cluster.index()];
        let v2f = v.as_volts() * v.as_volts() * f.as_ghz();
        let base = if busy {
            c.uncore_base
        } else {
            c.uncore_base * 0.3
        };
        Watts::new(base + if busy { c.uncore_k * v2f } else { 0.0 })
    }

    /// The dynamic-power coefficient of one cluster, in W/(V²·GHz) at
    /// activity 1.0 — used for per-application energy attribution.
    pub fn dynamic_coefficient(&self, cluster: Cluster) -> f64 {
        self.coeffs[cluster.index()].k_dyn
    }

    /// Constant power dissipated in the SoC package outside the CPU
    /// clusters (rails, memory controller, I/O) — keeps the idle die a few
    /// kelvin above ambient like the real board.
    pub fn soc_static_power(&self) -> Watts {
        Watts::new(1.2)
    }

    /// The fraction of core cycles doing useful work (vs. memory stalls)
    /// for an application with the given per-instruction CPU and memory
    /// times. Used to derate dynamic power for memory-bound code.
    pub fn compute_fraction(cpu_seconds_per_inst: f64, mem_seconds_per_inst: f64) -> f64 {
        let total = cpu_seconds_per_inst + mem_seconds_per_inst;
        if total <= 0.0 {
            0.0
        } else {
            cpu_seconds_per_inst / total
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::kirin970()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> PowerModel {
        PowerModel::kirin970()
    }

    #[test]
    fn big_peak_power_calibrated() {
        let p = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(2362),
            Voltage::from_millivolts(1100),
            1.0,
            Celsius::new(60.0),
        );
        assert!(p.value() > 1.7 && p.value() < 2.5, "got {p}");
    }

    #[test]
    fn little_peak_power_calibrated() {
        let p = pm().core_power(
            Cluster::Little,
            Frequency::from_mhz(1844),
            Voltage::from_millivolts(1000),
            1.0,
            Celsius::new(50.0),
        );
        assert!(p.value() > 0.35 && p.value() < 0.8, "got {p}");
    }

    #[test]
    fn idle_power_is_small_but_nonzero() {
        let idle = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(682),
            Voltage::from_millivolts(700),
            0.0,
            Celsius::new(30.0),
        );
        assert!(idle.value() > 0.0 && idle.value() < 0.15, "got {idle}");
    }

    #[test]
    fn power_monotone_in_frequency_and_voltage() {
        let lo = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(682),
            Voltage::from_millivolts(700),
            1.0,
            Celsius::new(40.0),
        );
        let hi = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(2362),
            Voltage::from_millivolts(1100),
            1.0,
            Celsius::new(40.0),
        );
        assert!(hi.value() > 3.0 * lo.value());
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let cold = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(1018),
            Voltage::from_millivolts(750),
            0.5,
            Celsius::new(30.0),
        );
        let hot = pm().core_power(
            Cluster::Big,
            Frequency::from_mhz(1018),
            Voltage::from_millivolts(750),
            0.5,
            Celsius::new(80.0),
        );
        assert!(hot.value() > cold.value());
    }

    #[test]
    fn memory_bound_burns_less_dynamic_power() {
        // compute fraction derates activity.
        let cf_compute = PowerModel::compute_fraction(1.0e-9, 0.05e-9);
        let cf_memory = PowerModel::compute_fraction(0.5e-9, 3.0e-9);
        assert!(cf_compute > 0.9);
        assert!(cf_memory < 0.2);
        assert_eq!(PowerModel::compute_fraction(0.0, 0.0), 0.0);
    }

    #[test]
    fn uncore_power_depends_on_busy() {
        let busy = pm().uncore_power(
            Cluster::Big,
            Frequency::from_mhz(2362),
            Voltage::from_millivolts(1100),
            true,
        );
        let idle = pm().uncore_power(
            Cluster::Big,
            Frequency::from_mhz(2362),
            Voltage::from_millivolts(1100),
            false,
        );
        assert!(busy.value() > idle.value());
    }
}
