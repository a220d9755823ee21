//! Declarative fault plans: seed + per-domain fault rates.

use hmc_types::SimDuration;

use crate::storage::StorageFaultConfig;

/// NPU fault model. All rates are per submitted job, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpuFaultConfig {
    /// Probability that a job fails with a device fault (the device then
    /// needs a reset before it accepts work again).
    pub failure_rate: f64,
    /// Probability that a job hangs inside the driver and never completes.
    pub timeout_rate: f64,
    /// Probability that a job completes but with inflated latency.
    pub latency_spike_rate: f64,
    /// Multiplier applied to the latency of a spiking job.
    pub latency_spike_factor: f64,
}

impl Default for NpuFaultConfig {
    fn default() -> Self {
        NpuFaultConfig {
            failure_rate: 0.0,
            timeout_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_factor: 10.0,
        }
    }
}

/// Serving-path fault model for the shared NPU inference service. All
/// rates are per *dispatched batch*, in `[0, 1]` — the serve path batches
/// many board requests into one device job, so one fault here degrades a
/// whole batch (which then drains to the CPU fallback).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeFaultConfig {
    /// Probability that a dispatched batch fails on the device (counts
    /// toward the device's circuit breaker).
    pub failure_rate: f64,
    /// Probability that a dispatched batch completes slowed down.
    pub slowdown_rate: f64,
    /// Multiplier applied to the device latency of a slowed batch.
    pub slowdown_factor: f64,
}

impl Default for ServeFaultConfig {
    fn default() -> Self {
        ServeFaultConfig {
            failure_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 8.0,
        }
    }
}

/// Thermal-sensor fault model. All rates are per sample, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaultConfig {
    /// Probability that a sample is dropped (no reading available).
    pub dropout_rate: f64,
    /// Probability that the sensor latches its current value (stuck-at).
    pub stuck_rate: f64,
    /// How long a stuck-at episode lasts.
    pub stuck_duration: SimDuration,
    /// Standard deviation of additive noise, in kelvin (0 disables).
    pub noise_std: f64,
    /// Probability of an impulse spike on a sample.
    pub spike_rate: f64,
    /// Magnitude of an impulse spike, in kelvin (sign drawn randomly).
    pub spike_magnitude: f64,
}

impl Default for SensorFaultConfig {
    fn default() -> Self {
        SensorFaultConfig {
            dropout_rate: 0.0,
            stuck_rate: 0.0,
            stuck_duration: SimDuration::from_millis(200),
            noise_std: 0.0,
            spike_rate: 0.0,
            spike_magnitude: 20.0,
        }
    }
}

/// DVFS actuation fault model. All rates are per requested transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsFaultConfig {
    /// Probability that a V/f transition is rejected outright.
    pub reject_rate: f64,
    /// Probability that a transition is applied late.
    pub delay_rate: f64,
    /// How late a delayed transition lands.
    pub delay: SimDuration,
}

impl Default for DvfsFaultConfig {
    fn default() -> Self {
        DvfsFaultConfig {
            reject_rate: 0.0,
            delay_rate: 0.0,
            delay: SimDuration::from_millis(20),
        }
    }
}

/// A complete fault plan: one seed, one config per fault domain.
///
/// The plan is plain serializable data; pass it to
/// [`FaultInjector::new`](crate::FaultInjector::new) to execute it. The
/// same plan (seed included) always reproduces the same fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule. Each domain derives its own stream.
    pub seed: u64,
    /// NPU job faults.
    pub npu: NpuFaultConfig,
    /// Shared-NPU-service batch faults (the serve path).
    pub serve: ServeFaultConfig,
    /// Thermal-sensor faults.
    pub sensor: SensorFaultConfig,
    /// DVFS actuation faults.
    pub dvfs: DvfsFaultConfig,
    /// Storage faults against checkpoint/snapshot writes.
    pub storage: StorageFaultConfig,
}

impl FaultPlan {
    /// A plan with every fault rate at zero: the injector never draws from
    /// its RNGs and never perturbs the run.
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            npu: NpuFaultConfig::default(),
            serve: ServeFaultConfig::default(),
            sensor: SensorFaultConfig::default(),
            dvfs: DvfsFaultConfig::default(),
            storage: StorageFaultConfig::default(),
        }
    }

    /// Whether the plan can produce any fault at all.
    pub fn is_zero(&self) -> bool {
        self.npu.failure_rate == 0.0
            && self.npu.timeout_rate == 0.0
            && self.npu.latency_spike_rate == 0.0
            && self.serve.failure_rate == 0.0
            && self.serve.slowdown_rate == 0.0
            && self.sensor.dropout_rate == 0.0
            && self.sensor.stuck_rate == 0.0
            && self.sensor.noise_std == 0.0
            && self.sensor.spike_rate == 0.0
            && self.dvfs.reject_rate == 0.0
            && self.dvfs.delay_rate == 0.0
            && self.storage.torn_write_rate == 0.0
            && self.storage.bit_flip_rate == 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

/// Deterministic per-task panic injection for worker-pool stress tests.
///
/// Unlike the [`FaultInjector`](crate::FaultInjector) domains, which draw
/// from sequential RNG streams, a worker pool executes tasks from many
/// threads at once, so the fault decision must be a pure function of the
/// task index — any shared mutable RNG would make the schedule depend on
/// thread interleaving. [`TaskFaultPlan::should_panic`] hashes
/// `(seed, task)` through a splitmix64-style finalizer and compares the
/// result against `panic_rate`, giving every thread count the identical
/// fault schedule.
///
/// # Examples
///
/// ```
/// use faults::TaskFaultPlan;
/// let plan = TaskFaultPlan { seed: 7, panic_rate: 0.5 };
/// // Pure per-index decisions: repeatable, order-independent.
/// assert_eq!(plan.should_panic(3), plan.should_panic(3));
/// assert!(!TaskFaultPlan::none(7).should_panic(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskFaultPlan {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability that a task panics, in `[0, 1]`.
    pub panic_rate: f64,
}

impl TaskFaultPlan {
    /// A plan that never injects a panic.
    pub fn none(seed: u64) -> Self {
        TaskFaultPlan {
            seed,
            panic_rate: 0.0,
        }
    }

    /// Whether task number `task` is scheduled to panic.
    pub fn should_panic(&self, task: u64) -> bool {
        if self.panic_rate <= 0.0 {
            return false;
        }
        if self.panic_rate >= 1.0 {
            return true;
        }
        let mut z = self
            .seed
            .wrapping_add(task.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Top 53 bits → uniform in [0, 1).
        let uniform = (z >> 11) as f64 / (1u64 << 53) as f64;
        uniform < self.panic_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        assert!(FaultPlan::none(123).is_zero());
        assert!(FaultPlan::default().is_zero());
    }

    #[test]
    fn task_fault_plan_is_pure_and_rate_faithful() {
        let plan = TaskFaultPlan {
            seed: 99,
            panic_rate: 0.25,
        };
        let first: Vec<bool> = (0..1000).map(|t| plan.should_panic(t)).collect();
        let second: Vec<bool> = (0..1000).map(|t| plan.should_panic(t)).collect();
        assert_eq!(first, second, "decisions must be pure per index");
        let hits = first.iter().filter(|&&b| b).count();
        assert!((150..350).contains(&hits), "rate 0.25 produced {hits}/1000");
        assert!((0..1000).all(|t| !TaskFaultPlan::none(99).should_panic(t)));
        let always = TaskFaultPlan {
            seed: 1,
            panic_rate: 1.0,
        };
        assert!((0..100).all(|t| always.should_panic(t)));
        // Different seeds give different schedules.
        let other = TaskFaultPlan {
            seed: 100,
            panic_rate: 0.25,
        };
        assert_ne!(
            first,
            (0..1000).map(|t| other.should_panic(t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn any_rate_makes_plan_nonzero() {
        let mut plan = FaultPlan::none(0);
        plan.sensor.spike_rate = 0.01;
        assert!(!plan.is_zero());
        let mut plan = FaultPlan::none(0);
        plan.dvfs.reject_rate = 0.5;
        assert!(!plan.is_zero());
        let mut plan = FaultPlan::none(0);
        plan.storage.torn_write_rate = 0.1;
        assert!(!plan.is_zero());
        let mut plan = FaultPlan::none(0);
        plan.serve.slowdown_rate = 0.2;
        assert!(!plan.is_zero());
    }
}
