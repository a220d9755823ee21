//! Service configuration.

use std::fmt;

use hmc_types::SimDuration;
use npu::KernelMode;

use crate::limiter::RateLimit;

/// Tunables of the shared inference service.
///
/// The admission fields (`shed_*`, `cpu_degrade_watermark`,
/// `rate_limit`) all default to *disabled*, so under a default
/// configuration admission control is queue capacity alone.
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
    /// The static floor of the back-off hint returned with a rejection
    /// (the shed layer scales the hint up with the backlog).
    pub retry_after: SimDuration,
    /// Consecutive failures after which a device's circuit breaker opens.
    pub breaker_threshold: u32,
    /// Dispatches a breaker stays open before a half-open probe.
    pub breaker_cooldown: u32,
    /// Shed every submission arriving at this queue depth or deeper.
    /// `None` disables the depth watermark.
    pub shed_depth_watermark: Option<usize>,
    /// Shed every submission whose estimated service latency reaches this
    /// mark. `None` disables the latency watermark.
    pub shed_latency_watermark: Option<SimDuration>,
    /// Before shedding: once the estimated service latency reaches this
    /// mark, admit but route to the CPU fallback to spare pool capacity.
    /// `None` disables graceful degrade.
    pub cpu_degrade_watermark: Option<SimDuration>,
    /// Per-client token-bucket rate limit. `None` disables rate limiting.
    pub rate_limit: Option<RateLimit>,
    /// Safety margin of the deadline-feasibility check: a request whose
    /// absolute deadline is closer than this to its earliest dispatch is
    /// rejected as infeasible instead of admitted-then-expired.
    pub deadline_margin: SimDuration,
    /// Upper clamp on a submission's `hold` (slow-loris guard): a client
    /// may delay its payload's readiness at most this long while holding
    /// a queue slot.
    pub max_hold: SimDuration,
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
            shed_depth_watermark: None,
            shed_latency_watermark: None,
            cpu_degrade_watermark: None,
            rate_limit: None,
            // One driver round-trip: a tighter deadline cannot survive
            // even an empty queue.
            deadline_margin: SimDuration::from_millis(4),
            max_hold: SimDuration::from_millis(50),
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
    /// `shed_depth_watermark` was `Some(0)` — that sheds everything.
    ZeroDepthWatermark,
    /// `rate_limit` had a burst below one token or a non-positive refill.
    InvalidRateLimit,
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
            ConfigError::ZeroDepthWatermark => "a zero depth watermark sheds every request",
            ConfigError::InvalidRateLimit => {
                "rate limit needs burst >= 1 and a positive refill rate"
            }
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
    /// invariant: non-zero pool, batch and capacity, a usable
    /// depth watermark and a sane rate limit.
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
        if self.shed_depth_watermark == Some(0) {
            return Err(ConfigError::ZeroDepthWatermark);
        }
        if let Some(limit) = self.rate_limit {
            if !limit.is_valid() {
                return Err(ConfigError::InvalidRateLimit);
            }
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
    fn zero_depth_watermark_rejected() {
        let config = ServeConfig {
            shed_depth_watermark: Some(0),
            ..ServeConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroDepthWatermark));
    }

    #[test]
    fn non_positive_rate_limit_rejected() {
        for limit in [
            RateLimit {
                burst: 0.0,
                refill_per_sec: 10.0,
            },
            RateLimit {
                burst: 4.0,
                refill_per_sec: 0.0,
            },
        ] {
            let config = ServeConfig {
                rate_limit: Some(limit),
                ..ServeConfig::default()
            };
            assert_eq!(config.validate(), Err(ConfigError::InvalidRateLimit));
        }
    }

    #[test]
    fn errors_display_the_violated_invariant() {
        assert!(ConfigError::ZeroDevices.to_string().contains("device"));
        assert!(ConfigError::InvalidRateLimit.to_string().contains("burst"));
    }
}
