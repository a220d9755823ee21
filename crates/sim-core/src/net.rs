//! Network-link primitives: per-request transit times over a link.
//!
//! A [`Link`] is the stateless latency/bandwidth model of `dslab-network`
//! style simulators: transit = propagation latency + serialization delay
//! (`bytes / bandwidth`). A [`FifoLink`] adds the one piece of state a
//! shared medium needs — the instant the link frees up — so back-to-back
//! sends queue behind each other instead of overlapping.
//!
//! The structs carry no scheduling of their own: callers compute a
//! delivery instant and hand the payload over when their loop reaches it.
//!
//! # Examples
//!
//! ```
//! use hmc_types::{SimDuration, SimTime};
//! use sim_core::{FifoLink, Link};
//!
//! let link = Link::new(SimDuration::from_millis(2), 125_000_000); // 1 Gbps
//! assert_eq!(link.serialization(125), SimDuration::from_nanos(1_000));
//!
//! let mut fifo = FifoLink::new(link);
//! let a = fifo.send(SimTime::ZERO, 125_000_000); // occupies the wire 1 s
//! let b = fifo.send(SimTime::ZERO, 125_000_000); // queues behind `a`
//! assert_eq!(b.since(a), SimDuration::from_secs(1));
//! ```

use hmc_types::{SimDuration, SimTime};

/// Integer nanoseconds per second, for exact serialization arithmetic.
const NANOS_PER_SEC: u128 = 1_000_000_000;

/// A point-to-point link: fixed propagation latency plus a serialization
/// rate. Stateless — two sends never interact; see [`FifoLink`] for a
/// shared medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Serialization bandwidth in bytes per second. `0` means infinite
    /// (serialization is free), so a pure-latency link is expressible.
    pub bytes_per_sec: u64,
}

impl Link {
    /// A link with the given propagation latency and bandwidth.
    pub const fn new(latency: SimDuration, bytes_per_sec: u64) -> Self {
        Link {
            latency,
            bytes_per_sec,
        }
    }

    /// Time the wire is occupied pushing `bytes` onto it. Exact integer
    /// arithmetic (`ceil(bytes * 1e9 / rate)` nanoseconds), so transit
    /// times are reproducible across platforms.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        if self.bytes_per_sec == 0 || bytes == 0 {
            return SimDuration::ZERO;
        }
        let ns = (u128::from(bytes) * NANOS_PER_SEC).div_ceil(u128::from(self.bytes_per_sec));
        SimDuration::from_nanos(ns.min(u128::from(u64::MAX)) as u64)
    }

    /// End-to-end transit of a `bytes`-sized message on an idle link:
    /// serialization followed by propagation.
    pub fn transit(&self, bytes: u64) -> SimDuration {
        self.latency + self.serialization(bytes)
    }
}

/// A [`Link`] with FIFO occupancy: each send seizes the wire for its
/// serialization time, and later sends queue behind it. Delivery instants
/// are therefore a deterministic function of the send sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoLink {
    /// The underlying latency/bandwidth model.
    pub link: Link,
    busy_until: SimTime,
}

impl FifoLink {
    /// An idle FIFO link over the given model.
    pub const fn new(link: Link) -> Self {
        FifoLink {
            link,
            busy_until: SimTime::ZERO,
        }
    }

    /// The instant the wire next frees up (never before `now` when
    /// queried after a send at `now`).
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Enqueues a `bytes`-sized message at `now` and returns its delivery
    /// instant: serialization starts when the wire frees up, propagation
    /// follows. The payload is delivered at the returned instant.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        self.busy_until = start + self.link.serialization(bytes);
        self.busy_until + self.link.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_exact_and_rounds_up() {
        let link = Link::new(SimDuration::ZERO, 3);
        // 1 byte at 3 B/s = 333_333_333.3 ns, rounded up.
        assert_eq!(link.serialization(1), SimDuration::from_nanos(333_333_334));
        assert_eq!(link.serialization(0), SimDuration::ZERO);
    }

    #[test]
    fn zero_bandwidth_means_free_serialization() {
        let link = Link::new(SimDuration::from_millis(5), 0);
        assert_eq!(link.transit(1 << 40), SimDuration::from_millis(5));
    }

    #[test]
    fn fifo_sends_queue_behind_each_other() {
        let link = Link::new(SimDuration::from_millis(1), 1_000); // 1 kB/s
        let mut fifo = FifoLink::new(link);
        let first = fifo.send(SimTime::ZERO, 500); // 0.5 s on the wire
        assert_eq!(first, SimTime::from_nanos(501_000_000));
        let second = fifo.send(SimTime::ZERO, 500); // waits for the first
        assert_eq!(second, SimTime::from_nanos(1_001_000_000));
        // After the wire drains, a later send sees an idle link again.
        let later = fifo.send(SimTime::from_secs(10), 500);
        assert_eq!(later, SimTime::from_secs(10) + link.transit(500));
    }
}
