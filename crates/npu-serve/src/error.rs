//! Typed error taxonomy of the service layer.

use std::fmt;

use hmc_types::{SimDuration, SimTime};

/// Why the service turned a submission down (or failed an admitted
/// request fast).
///
/// Every variant carries enough context for the caller to act without
/// parsing strings. Only [`ServeError::QueueFull`] is worth resubmitting,
/// and [`ServeError::retry_after`] says when.
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
    /// The bounded submission queue was at capacity. Retryable after
    /// `retry_after`.
    QueueFull {
        /// Queue depth at the decision.
        depth: usize,
        /// Resubmission hint.
        retry_after: SimDuration,
    },
    /// The submission itself is malformed (empty batch, wrong feature
    /// width, a rack the tier does not have). Terminal — retrying
    /// identical input cannot succeed.
    InvalidInput {
        /// What was wrong with the input.
        reason: &'static str,
    },
}

impl ServeError {
    /// The service's resubmission hint: `Some` exactly for the retryable
    /// [`ServeError::QueueFull`].
    pub fn retry_after(&self) -> Option<SimDuration> {
        match self {
            ServeError::QueueFull { retry_after, .. } => Some(*retry_after),
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
            ServeError::QueueFull { depth, retry_after } => write!(
                f,
                "queue full at depth {depth}, retry after {retry_after:?}"
            ),
            ServeError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_full_queue_carries_a_retry_hint() {
        let full = ServeError::QueueFull {
            depth: 10,
            retry_after: SimDuration::from_millis(2),
        };
        let late = ServeError::DeadlineExceeded {
            deadline: SimTime::from_millis(5),
            at: SimTime::from_millis(7),
            late_by: SimDuration::from_millis(2),
        };
        let bad = ServeError::InvalidInput { reason: "empty" };
        assert_eq!(full.retry_after(), Some(SimDuration::from_millis(2)));
        assert_eq!(late.retry_after(), None);
        assert_eq!(bad.retry_after(), None);
    }

    #[test]
    fn displays_are_informative() {
        let full = ServeError::QueueFull {
            depth: 64,
            retry_after: SimDuration::from_millis(1),
        };
        let text = full.to_string();
        assert!(text.contains("queue full"));
        assert!(text.contains("64"));
    }
}
