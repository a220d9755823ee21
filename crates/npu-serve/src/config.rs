//! Service configuration.

use std::fmt;

use hmc_types::SimDuration;
use npu::KernelMode;

/// Tunables of the shared inference service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// NPU devices in the pool.
    pub devices: usize,
    /// Maximum requests coalesced into one batch call; reaching it
    /// dispatches immediately.
    pub max_batch: usize,
    /// Deadline of the dynamic batcher: a pending request is dispatched at
    /// the latest `max_wait` after it is ready, batched with whatever else
    /// is waiting.
    pub max_wait: SimDuration,
    /// Admission control: pending requests beyond this are rejected with a
    /// retry-after hint instead of queued.
    pub queue_capacity: usize,
    /// The back-off hint returned with a queue-full rejection.
    pub retry_after: SimDuration,
    /// Consecutive failures after which a device's circuit breaker opens.
    pub breaker_threshold: u32,
    /// Dispatches a breaker stays open before a half-open probe.
    pub breaker_cooldown: u32,
    /// Safety margin of the deadline-feasibility check: a request whose
    /// absolute deadline is closer than this to its earliest dispatch is
    /// rejected as infeasible instead of admitted-then-expired.
    pub deadline_margin: SimDuration,
    /// Numeric inference kernel used for NPU-path batches. Both modes are
    /// bit-identical; `Scalar` forces the reference loop for differential
    /// runs.
    pub kernel: KernelMode,
    /// Capacity of the policy-output cache keyed on the quantized feature
    /// vector. Zero disables the cache. The cache replays numeric outputs
    /// only — simulated device time, occupancy and batching are untouched.
    pub policy_cache: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 2,
            max_batch: 16,
            // Half the driver round-trip: waiting this long to fill a
            // batch costs less than a second round-trip would.
            max_wait: SimDuration::from_millis(2),
            queue_capacity: 64,
            retry_after: SimDuration::from_millis(1),
            breaker_threshold: 3,
            breaker_cooldown: 8,
            // One driver round-trip: a tighter deadline cannot survive
            // even an empty queue.
            deadline_margin: SimDuration::from_millis(4),
            kernel: KernelMode::default(),
            policy_cache: 0,
        }
    }
}

/// Why a [`ServeConfig`] was rejected by [`ServeConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `devices` was zero.
    ZeroDevices,
    /// `max_batch` was zero.
    ZeroMaxBatch,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// A tier topology had zero racks.
    ZeroRacks,
    /// Heartbeat interval was zero, or the timeout was shorter than the
    /// interval (every rack would look dead).
    InvalidHeartbeat,
    /// Hedge quantile outside `[0, 1]`, or a zero latency window.
    InvalidHedge,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ConfigError::ZeroDevices => "need at least one device",
            ConfigError::ZeroMaxBatch => "batch size must be positive",
            ConfigError::ZeroQueueCapacity => "queue capacity must be positive",
            ConfigError::ZeroRacks => "need at least one rack",
            ConfigError::InvalidHeartbeat => {
                "heartbeat needs a positive interval and timeout >= interval"
            }
            ConfigError::InvalidHedge => {
                "hedge needs a quantile in [0, 1] and a positive latency window"
            }
        };
        f.write_str(text)
    }
}

impl std::error::Error for ConfigError {}

impl ServeConfig {
    /// Validates the configuration, returning the first violated
    /// invariant: non-zero pool, batch and capacity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 {
            return Err(ConfigError::ZeroDevices);
        }
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroMaxBatch);
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_devices_rejected() {
        let config = ServeConfig {
            devices: 0,
            ..ServeConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroDevices));
    }

    #[test]
    fn zero_max_batch_rejected() {
        let config = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroMaxBatch));
    }

    #[test]
    fn zero_queue_capacity_rejected() {
        let config = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroQueueCapacity));
    }

    #[test]
    fn errors_display_the_violated_invariant() {
        assert!(ConfigError::ZeroDevices.to_string().contains("device"));
        assert!(ConfigError::InvalidHedge.to_string().contains("quantile"));
    }
}
