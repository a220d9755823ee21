//! Bounded submission queue with admission control.

use hmc_types::{SimDuration, SimTime};
use nn::Matrix;

/// Admission-control rejection: the queue is at capacity. The caller
/// should retry no earlier than `retry_after` from the rejected submit;
/// `depth` reports how many requests were already waiting, so callers can
/// scale their own back-off with the backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Back-off hint advertised by the service.
    pub retry_after: SimDuration,
    /// Pending requests at the instant of the rejection.
    pub depth: usize,
}

/// One queued inference request.
#[derive(Debug, Clone)]
pub(crate) struct QueuedRequest {
    /// Ticket id.
    pub id: u64,
    /// The request's stacked feature rows.
    pub rows: Matrix,
    /// Virtual submission time.
    pub submitted_at: SimTime,
    /// Latest dispatch time the batcher may delay this request to.
    pub dispatch_deadline: SimTime,
    /// Absolute completion deadline the client asked for, if any. A reply
    /// after this instant is worthless — the service fails the request
    /// fast instead of computing it.
    pub deadline: Option<SimTime>,
}

/// A bounded queue ordered by `(dispatch_deadline, id)` — the dynamic
/// batcher always drains the most urgent requests first, and admission
/// control rejects (rather than queues) once `capacity` requests wait.
///
/// # Examples
///
/// ```
/// use hmc_types::SimDuration;
/// use npu_serve::SubmissionQueue;
///
/// let queue = SubmissionQueue::new(8, SimDuration::from_millis(1));
/// assert_eq!(queue.len(), 0);
/// assert!(queue.next_deadline().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    capacity: usize,
    retry_after: SimDuration,
    /// Kept sorted by `(dispatch_deadline, id)`.
    entries: Vec<QueuedRequest>,
}

impl SubmissionQueue {
    /// An empty queue admitting at most `capacity` pending requests.
    pub fn new(capacity: usize, retry_after: SimDuration) -> Self {
        SubmissionQueue {
            capacity,
            retry_after,
            entries: Vec::new(),
        }
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest dispatch deadline among pending requests.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.first().map(|e| e.dispatch_deadline)
    }

    /// The rejection a push would meet now: `Some` when the queue is at
    /// capacity.
    pub(crate) fn rejection(&self) -> Option<Rejected> {
        (self.entries.len() >= self.capacity).then_some(Rejected {
            retry_after: self.retry_after,
            depth: self.entries.len(),
        })
    }

    /// Admits a request, keeping `(dispatch_deadline, id)` order, or
    /// rejects it with the retry-after hint when the queue is full.
    #[cfg(test)]
    pub(crate) fn try_push(&mut self, request: QueuedRequest) -> Result<(), Rejected> {
        match self.rejection() {
            Some(rejected) => Err(rejected),
            None => {
                self.push(request);
                Ok(())
            }
        }
    }

    /// Admits a request the caller checked [`SubmissionQueue::rejection`]
    /// for, keeping `(dispatch_deadline, id)` order.
    pub(crate) fn push(&mut self, request: QueuedRequest) {
        debug_assert!(self.rejection().is_none(), "push past capacity");
        let key = (request.dispatch_deadline, request.id);
        let before = |e: &QueuedRequest| (e.dispatch_deadline, e.id) <= key;
        // Submissions come in time order behind one batching window, so a
        // request almost always belongs at the back.
        if self.entries.last().is_none_or(before) {
            self.entries.push(request);
        } else {
            let at = self.entries.partition_point(before);
            self.entries.insert(at, request);
        }
    }

    /// Removes and returns the `n` most urgent requests (fewer when less
    /// is pending).
    #[cfg(test)]
    pub(crate) fn take(&mut self, n: usize) -> Vec<QueuedRequest> {
        let mut taken = Vec::new();
        self.take_into(n, &mut taken);
        taken
    }

    /// Moves the `n` most urgent requests (fewer when less is pending)
    /// into `taken`.
    pub(crate) fn take_into(&mut self, n: usize, taken: &mut Vec<QueuedRequest>) {
        let n = n.min(self.entries.len());
        taken.extend(self.entries.drain(..n));
    }

    /// Removes and returns every pending request whose absolute deadline
    /// has already passed at `at` — they can no longer be served on time
    /// and must fail fast instead of burning pool capacity.
    pub(crate) fn take_expired(&mut self, at: SimTime) -> Vec<QueuedRequest> {
        self.entries
            .extract_if(.., |e| e.deadline.is_some_and(|d| d < at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, deadline_ms: u64) -> QueuedRequest {
        QueuedRequest {
            id,
            rows: Matrix::zeros(1, 2),
            submitted_at: SimTime::ZERO,
            dispatch_deadline: SimTime::from_millis(deadline_ms),
            deadline: None,
        }
    }

    #[test]
    fn drains_in_deadline_order() {
        let mut q = SubmissionQueue::new(8, SimDuration::from_millis(1));
        q.try_push(req(0, 30)).unwrap();
        q.try_push(req(1, 10)).unwrap();
        q.try_push(req(2, 20)).unwrap();
        assert_eq!(q.next_deadline(), Some(SimTime::from_millis(10)));
        let taken = q.take(2);
        assert_eq!(taken[0].id, 1);
        assert_eq!(taken[1].id, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn equal_deadlines_keep_submission_order() {
        let mut q = SubmissionQueue::new(8, SimDuration::from_millis(1));
        for id in 0..4 {
            q.try_push(req(id, 10)).unwrap();
        }
        let ids: Vec<u64> = q.take(4).into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rejects_at_capacity_with_retry_hint_and_depth() {
        let mut q = SubmissionQueue::new(2, SimDuration::from_millis(3));
        q.try_push(req(0, 10)).unwrap();
        q.try_push(req(1, 10)).unwrap();
        let err = q.try_push(req(2, 10)).unwrap_err();
        assert_eq!(err.retry_after, SimDuration::from_millis(3));
        assert_eq!(err.depth, 2);
        assert_eq!(q.len(), 2);
        // Draining makes room again.
        q.take(1);
        assert!(q.try_push(req(3, 12)).is_ok());
    }

    proptest! {
        /// Any interleaving of pushes (with heavily duplicated deadlines)
        /// and drains keeps the queue within capacity and drains in
        /// strict `(dispatch_deadline, id)` order — equal deadlines tie-
        /// break by submission order, with no request lost or duplicated.
        #[test]
        fn interleavings_drain_in_strict_key_order_within_capacity(
            // 0 ⇒ drain one; 1..=6 ⇒ push with deadline (op - 1) ms.
            ops in proptest::collection::vec(0u64..7, 1..80),
            capacity in 1usize..12,
        ) {
            let mut q = SubmissionQueue::new(capacity, SimDuration::from_millis(1));
            // Reference model: the multiset of keys still queued.
            let mut model: Vec<(SimTime, u64)> = Vec::new();
            let mut next_id = 0u64;
            for &op in &ops {
                if op == 0 {
                    let taken = q.take(1);
                    if let Some(r) = taken.first() {
                        let min = *model.iter().min().expect("model tracks queue");
                        prop_assert_eq!((r.dispatch_deadline, r.id), min);
                        model.retain(|&k| k != min);
                    } else {
                        prop_assert!(model.is_empty());
                    }
                } else {
                    let deadline_ms = op - 1;
                    match q.try_push(req(next_id, deadline_ms)) {
                        Ok(()) => {
                            model.push((SimTime::from_millis(deadline_ms), next_id));
                            next_id += 1;
                        }
                        Err(rejected) => {
                            prop_assert_eq!(rejected.depth, capacity);
                            prop_assert_eq!(model.len(), capacity);
                        }
                    }
                }
                prop_assert!(q.len() <= capacity, "capacity exceeded");
                prop_assert_eq!(q.len(), model.len());
            }
            // The final drain is strictly increasing: every queued request
            // comes out exactly once, most urgent first.
            let rest = q.take(usize::MAX);
            prop_assert_eq!(rest.len(), model.len());
            let keys: Vec<_> = rest.iter().map(|r| (r.dispatch_deadline, r.id)).collect();
            for pair in keys.windows(2) {
                prop_assert!(pair[0] < pair[1], "drain order not strict: {pair:?}");
            }
        }
    }

    #[test]
    fn expired_deadlines_are_drained_separately() {
        let mut q = SubmissionQueue::new(4, SimDuration::from_millis(1));
        let mut doomed = req(0, 5);
        doomed.deadline = Some(SimTime::from_millis(4));
        q.try_push(doomed).unwrap();
        let mut fine = req(1, 6);
        fine.deadline = Some(SimTime::from_millis(40));
        q.try_push(fine).unwrap();
        q.try_push(req(2, 7)).unwrap();

        let expired = q.take_expired(SimTime::from_millis(10));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 0);
        assert_eq!(q.len(), 2);
        // Nothing else expires — no deadline, or a deadline still ahead.
        assert!(q.take_expired(SimTime::from_millis(10)).is_empty());
    }
}
