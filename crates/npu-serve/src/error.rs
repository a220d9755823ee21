//! Typed error taxonomy of the service layer.

use std::fmt;

use hmc_types::{SimDuration, SimTime};

use crate::limiter::ClientId;
use crate::retry::RetryClass;

/// Why the service shed a submission before queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded submission queue was at hard capacity.
    QueueFull,
    /// Queue depth crossed the load-shedding depth watermark.
    DepthWatermark,
    /// The estimated service latency crossed the latency watermark.
    LatencyWatermark,
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DepthWatermark => "depth_watermark",
            ShedReason::LatencyWatermark => "latency_watermark",
        })
    }
}

/// Why the service turned a submission down (or failed an admitted
/// request fast).
///
/// Every variant carries enough context for the caller to act without
/// parsing strings, and [`ServeError::retry_class`] partitions the
/// taxonomy into retryable conditions (back off and resubmit) and
/// terminal ones (give the request up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeError {
    /// The request's absolute deadline cannot be met: it was infeasible
    /// at admission, or capacity/faults pushed its earliest completion
    /// past the deadline after it was admitted. Terminal — resubmitting
    /// the same deadline would fail again later.
    DeadlineExceeded {
        /// The absolute deadline that cannot be met.
        deadline: SimTime,
        /// When the service detected the miss.
        at: SimTime,
        /// How far past the deadline the earliest completion would land.
        late_by: SimDuration,
    },
    /// Load shedding turned the submission away before queueing it:
    /// the queue was full, or a depth/latency watermark was crossed.
    /// Retryable after `retry_after`.
    Shed {
        /// Which shed condition fired.
        reason: ShedReason,
        /// Queue depth at the decision.
        depth: usize,
        /// Backlog-derived resubmission hint.
        retry_after: SimDuration,
    },
    /// The client exhausted its token bucket. Retryable once the bucket
    /// refills (in virtual time).
    RateLimited {
        /// The throttled client.
        client: ClientId,
        /// Virtual time until one token is available again.
        retry_after: SimDuration,
    },
    /// The submission itself is malformed (empty batch, wrong feature
    /// width). Terminal — retrying identical input cannot succeed.
    InvalidInput {
        /// What was wrong with the input.
        reason: &'static str,
    },
}

impl ServeError {
    /// Whether a client should resubmit after backing off, or give the
    /// request up.
    pub fn retry_class(&self) -> RetryClass {
        match self {
            ServeError::Shed { .. } | ServeError::RateLimited { .. } => RetryClass::Retryable,
            ServeError::DeadlineExceeded { .. } | ServeError::InvalidInput { .. } => {
                RetryClass::Terminal
            }
        }
    }

    /// The service's resubmission hint, when the error carries one.
    pub fn retry_after(&self) -> Option<SimDuration> {
        match self {
            ServeError::Shed { retry_after, .. } | ServeError::RateLimited { retry_after, .. } => {
                Some(*retry_after)
            }
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExceeded {
                deadline, late_by, ..
            } => write!(
                f,
                "deadline {deadline:?} cannot be met (late by {late_by:?})"
            ),
            ServeError::Shed {
                reason,
                depth,
                retry_after,
            } => write!(
                f,
                "shed ({reason}) at queue depth {depth}, retry after {retry_after:?}"
            ),
            ServeError::RateLimited {
                client,
                retry_after,
            } => write!(
                f,
                "client {client} rate limited, retry after {retry_after:?}"
            ),
            ServeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Maps a queue-capacity rejection into the error taxonomy.
pub(crate) fn queue_full_error(depth: usize, retry_after: SimDuration) -> ServeError {
    ServeError::Shed {
        reason: ShedReason::QueueFull,
        depth,
        retry_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_partitions_the_taxonomy() {
        let shed = ServeError::Shed {
            reason: ShedReason::DepthWatermark,
            depth: 10,
            retry_after: SimDuration::from_millis(2),
        };
        let limited = ServeError::RateLimited {
            client: ClientId::new(4),
            retry_after: SimDuration::from_millis(1),
        };
        let late = ServeError::DeadlineExceeded {
            deadline: SimTime::from_millis(5),
            at: SimTime::from_millis(7),
            late_by: SimDuration::from_millis(2),
        };
        let bad = ServeError::InvalidInput { reason: "empty" };
        assert_eq!(shed.retry_class(), RetryClass::Retryable);
        assert_eq!(limited.retry_class(), RetryClass::Retryable);
        assert_eq!(late.retry_class(), RetryClass::Terminal);
        assert_eq!(bad.retry_class(), RetryClass::Terminal);
        assert_eq!(shed.retry_after(), Some(SimDuration::from_millis(2)));
        assert_eq!(limited.retry_after(), Some(SimDuration::from_millis(1)));
        assert_eq!(late.retry_after(), None);
        assert_eq!(bad.retry_after(), None);
    }

    #[test]
    fn displays_are_informative() {
        let shed = ServeError::Shed {
            reason: ShedReason::QueueFull,
            depth: 64,
            retry_after: SimDuration::from_millis(1),
        };
        let text = shed.to_string();
        assert!(text.contains("queue_full"));
        assert!(text.contains("64"));
    }
}
