//! Aggregate service statistics.

use hmc_types::SimDuration;

use crate::quantile::nearest_rank;

/// Counters and distributions the service accumulates while serving.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected: u64,
    /// Admitted requests whose deadline passed (or became unmeetable)
    /// while queued — failed fast, never computed.
    pub expired: u64,
    /// Submissions refused at admission because their deadline was
    /// infeasible (never admitted, so not part of `expired`).
    pub infeasible: u64,
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
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q).map(SimDuration::from_nanos)
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
