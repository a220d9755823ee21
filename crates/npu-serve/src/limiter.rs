//! Per-client token-bucket rate limiting in virtual time.

use std::collections::HashMap;
use std::fmt;

use hmc_types::{SimDuration, SimTime};

/// Stable identity of a submitting client (a board in the fleet).
///
/// Keys the rate limiter's token buckets. The default id `0` is used by
/// callers that predate client identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClientId(u64);

impl ClientId {
    /// A client id with the given value.
    pub fn new(id: u64) -> Self {
        ClientId(id)
    }

    /// The raw id.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Token-bucket parameters, applied per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Bucket capacity: requests a client may burst before throttling.
    pub burst: f64,
    /// Tokens refilled per virtual second.
    pub refill_per_sec: f64,
}

impl RateLimit {
    /// Validates the parameters (positive burst and refill rate).
    pub(crate) fn is_valid(&self) -> bool {
        self.burst >= 1.0 && self.refill_per_sec > 0.0
    }
}

/// One client's bucket: a fractional token count plus the virtual instant
/// it was last refilled at.
#[derive(Debug, Clone)]
struct TokenBucket {
    tokens: f64,
    last: SimTime,
}

/// Per-client token buckets refilled in virtual time.
///
/// Buckets are keyed by [`ClientId`] and created full on first use.
/// All arithmetic is on virtual timestamps, so admission decisions are
/// bit-identical across runs and thread budgets.
#[derive(Debug, Clone)]
pub(crate) struct RateLimiter {
    limit: RateLimit,
    buckets: HashMap<u64, TokenBucket>,
}

impl RateLimiter {
    pub(crate) fn new(limit: RateLimit) -> Self {
        RateLimiter {
            limit,
            buckets: HashMap::new(),
        }
    }

    /// Takes one token from `client`'s bucket at virtual time `now`, or
    /// returns how long until a token will be available.
    pub(crate) fn try_acquire(
        &mut self,
        client: ClientId,
        now: SimTime,
    ) -> Result<(), SimDuration> {
        let bucket = self.buckets.entry(client.value()).or_insert(TokenBucket {
            tokens: self.limit.burst,
            last: now,
        });
        // `now` never precedes `last`: the service clock is monotone and
        // stamps are clamped to it before admission runs.
        let elapsed = now.since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.limit.refill_per_sec).min(self.limit.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            Err(SimDuration::from_secs_f64(
                deficit / self.limit.refill_per_sec,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn burst_then_throttle_then_refill() {
        let mut limiter = RateLimiter::new(RateLimit {
            burst: 2.0,
            refill_per_sec: 1000.0, // 1 token per ms
        });
        let c = ClientId::new(1);
        assert!(limiter.try_acquire(c, ms(0)).is_ok());
        assert!(limiter.try_acquire(c, ms(0)).is_ok());
        let wait = limiter.try_acquire(c, ms(0)).unwrap_err();
        assert_eq!(wait, SimDuration::from_millis(1));
        // After the advertised wait the token is there.
        assert!(limiter.try_acquire(c, ms(1)).is_ok());
    }

    #[test]
    fn buckets_are_independent_per_client() {
        let mut limiter = RateLimiter::new(RateLimit {
            burst: 1.0,
            refill_per_sec: 1.0,
        });
        assert!(limiter.try_acquire(ClientId::new(1), ms(0)).is_ok());
        assert!(limiter.try_acquire(ClientId::new(1), ms(0)).is_err());
        // A different client still has its full burst.
        assert!(limiter.try_acquire(ClientId::new(2), ms(0)).is_ok());
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut limiter = RateLimiter::new(RateLimit {
            burst: 2.0,
            refill_per_sec: 1000.0,
        });
        let c = ClientId::new(9);
        assert!(limiter.try_acquire(c, ms(0)).is_ok());
        // A long idle period must not accumulate more than `burst`.
        for _ in 0..2 {
            assert!(limiter.try_acquire(c, ms(1000)).is_ok());
        }
        assert!(limiter.try_acquire(c, ms(1000)).is_err());
    }
}
