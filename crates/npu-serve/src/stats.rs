//! Aggregate service statistics.

use hmc_types::{SimDuration, SimTime};

use crate::quantile::nearest_rank;

/// Counters and distributions the service accumulates while serving.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected: u64,
    /// Requests shed by a watermark (depth or estimated latency).
    pub shed: u64,
    /// Requests refused by the per-client rate limiter.
    pub rate_limited: u64,
    /// Admitted requests whose deadline passed (or became unmeetable)
    /// while queued — failed fast, never computed.
    pub expired: u64,
    /// Submissions refused at admission because their deadline was
    /// infeasible (never admitted, so not part of `expired`).
    pub infeasible: u64,
    /// Requests admitted under the CPU-degrade watermark and routed to
    /// the fallback instead of the pool.
    pub degraded: u64,
    /// Client retries scheduled after retryable errors.
    pub retries: u64,
    /// Replies that would have been delivered after their deadline. The
    /// deadline pipeline exists to keep this at zero; the counter is the
    /// safety net that proves it.
    pub deadline_misses: u64,
    /// Requests served (a reply was produced).
    pub served: u64,
    /// Batches dispatched to the pool (including CPU-fallback batches).
    pub batches: u64,
    /// Total feature rows served across all batches.
    pub rows: u64,
    /// Batches served by the CPU fallback (device failed or every breaker
    /// open).
    pub cpu_fallback_batches: u64,
    /// Batches whose device attempt failed (re-served on the CPU).
    pub failed_batches: u64,
    /// Policy-cache hits: request groups whose quantized feature vector
    /// was resident, replayed without numeric compute. Zero when the
    /// cache is disabled.
    pub cache_hits: u64,
    /// Policy-cache misses: request groups that went through the kernel.
    /// Zero when the cache is disabled.
    pub cache_misses: u64,
    /// Per-request end-to-end latencies (submit → completion), in
    /// nanoseconds, in completion order.
    latencies_ns: Vec<u64>,
    /// Per-request queue waits (submit → dispatch), in nanoseconds, in
    /// dispatch order.
    queue_wait_ns: Vec<u64>,
    /// `batch_hist[n]` counts dispatched batches that coalesced `n`
    /// requests; index 0 is unused.
    batch_hist: Vec<u64>,
}

impl ServeStats {
    pub(crate) fn record_batch(&mut self, requests: usize, rows: usize) {
        self.batches += 1;
        self.rows += rows as u64;
        if self.batch_hist.len() <= requests {
            self.batch_hist.resize(requests + 1, 0);
        }
        self.batch_hist[requests] += 1;
    }

    pub(crate) fn record_reply(&mut self, latency: SimDuration) {
        self.served += 1;
        self.latencies_ns.push(latency.as_nanos());
    }

    pub(crate) fn record_queue_wait(&mut self, wait: SimDuration) {
        self.queue_wait_ns.push(wait.as_nanos());
    }

    /// Requests admitted but neither served nor expired. Zero after a
    /// final flush.
    pub fn dropped(&self) -> u64 {
        self.submitted - self.served - self.expired
    }

    /// The batch-size histogram: entry `n` counts batches that coalesced
    /// `n` requests (entry 0 is always zero).
    pub fn batch_histogram(&self) -> &[u64] {
        &self.batch_hist
    }

    /// Mean requests per dispatched batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let total: u64 = self
            .batch_hist
            .iter()
            .enumerate()
            .map(|(n, &c)| n as u64 * c)
            .sum();
        total as f64 / self.batches as f64
    }

    /// The `q`-quantile (0.0–1.0, [`nearest_rank`]) of the per-request
    /// end-to-end latency. `None` before anything was served.
    pub fn latency_percentile(&self, q: f64) -> Option<SimDuration> {
        quantile_ns(&self.latencies_ns, q)
    }

    /// The `q`-quantile (0.0–1.0, [`nearest_rank`]) of the per-request queue
    /// wait (submit → dispatch). `None` before anything was dispatched.
    pub fn queue_wait_percentile(&self, q: f64) -> Option<SimDuration> {
        quantile_ns(&self.queue_wait_ns, q)
    }
}

/// [`nearest_rank`] over an unsorted nanosecond sample.
fn quantile_ns(samples_ns: &[u64], q: f64) -> Option<SimDuration> {
    let mut sorted = samples_ns.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q).map(SimDuration::from_nanos)
}

/// One epoch of service health, cut by [`crate::NpuService::epoch_metrics`].
///
/// Counters are deltas since the previous snapshot; the queue depth and
/// utilization describe the instant the snapshot was cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Epoch start (previous snapshot, or service start).
    pub from: SimTime,
    /// Epoch end (the instant the snapshot was cut).
    pub to: SimTime,
    /// Requests pending in the queue at `to`.
    pub queue_depth: usize,
    /// Fraction of the pool's device-time spent busy since `from`
    /// (1.0 = every device computed the whole epoch).
    pub utilization: f64,
    /// Sheds (watermark + queue-full + rate-limited) per submission
    /// attempt this epoch; 0.0 when nothing arrived.
    pub shed_rate: f64,
    /// p99 queue wait across all dispatches so far.
    pub p99_queue_wait: Option<SimDuration>,
    /// Requests admitted this epoch.
    pub admitted: u64,
    /// Replies produced this epoch.
    pub served: u64,
    /// Requests shed this epoch (watermark + queue-full + rate-limited).
    pub shed: u64,
    /// Requests failed fast on deadline this epoch.
    pub expired: u64,
    /// Policy-cache hits this epoch (zero when the cache is disabled).
    pub cache_hits: u64,
    /// Policy-cache misses this epoch (zero when the cache is disabled).
    pub cache_misses: u64,
}

impl MetricsSnapshot {
    /// Fraction of cache probes this epoch that hit; 0.0 when the cache
    /// is disabled or nothing was probed.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_and_percentiles() {
        let mut s = ServeStats::default();
        s.record_batch(4, 8);
        s.record_batch(4, 4);
        s.record_batch(1, 1);
        assert_eq!(s.batch_histogram()[4], 2);
        assert_eq!(s.batch_histogram()[1], 1);
        assert!((s.mean_batch_size() - 3.0).abs() < 1e-9);

        for ms in [1u64, 2, 3, 4, 100] {
            s.record_reply(SimDuration::from_millis(ms));
        }
        assert_eq!(s.latency_percentile(0.5), Some(SimDuration::from_millis(3)));
        assert_eq!(
            s.latency_percentile(0.99),
            Some(SimDuration::from_millis(100))
        );
        assert_eq!(
            s.latency_percentile(1.0),
            Some(SimDuration::from_millis(100))
        );
    }

    #[test]
    fn queue_wait_distribution_is_tracked() {
        let mut s = ServeStats::default();
        assert_eq!(s.queue_wait_percentile(0.99), None);
        for ms in [2u64, 1, 5] {
            s.record_queue_wait(SimDuration::from_millis(ms));
        }
        assert_eq!(
            s.queue_wait_percentile(0.5),
            Some(SimDuration::from_millis(2))
        );
        assert_eq!(
            s.queue_wait_percentile(0.99),
            Some(SimDuration::from_millis(5))
        );
    }

    #[test]
    fn dropped_counts_unserved_requests() {
        let mut s = ServeStats {
            submitted: 5,
            expired: 1,
            ..ServeStats::default()
        };
        s.record_reply(SimDuration::from_millis(1));
        assert_eq!(s.dropped(), 3);
    }
}
