//! The shared inference service: admission, dynamic batcher and
//! virtual-time device pool.

use std::sync::Arc;

use faults::{BreakerState, CircuitBreaker, FaultInjector, ServeFault};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu::{CacheKey, CpuInference, InferScratch, NpuDevice, NpuModel, Occupancy, PolicyCache};
use topil::{ClientJob, ClientReply, InferenceBackend};
use trace::TraceBackend;

use crate::config::ConfigError;
use crate::error::{queue_full_error, ServeError};
use crate::limiter::{ClientId, RateLimiter};
use crate::queue::QueuedRequest;
use crate::ring::TicketRing;
use crate::shed::{self, Backlog, ShedDecision};
use crate::stats::MetricsSnapshot;
use crate::{Rejected, ServeConfig, ServeStats, SubmissionQueue};

/// Handle of an admitted request; redeem it with
/// [`NpuService::take_reply`] (or [`NpuService::take_outcome`]) once the
/// service has advanced past the request's completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestTicket(u64);

/// Per-submission options of [`NpuService::submit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmitOptions {
    /// Submitting client (the rate-limit key).
    pub client: ClientId,
    /// Absolute completion deadline. A reply after this instant is
    /// worthless: the service refuses infeasible deadlines at admission
    /// and fails queued requests fast once the deadline cannot be met,
    /// instead of computing-then-discarding.
    pub deadline: Option<SimTime>,
    /// How long after submission the payload becomes batchable (a
    /// slow-loris client holds its bytes back). Clamped to
    /// [`ServeConfig::max_hold`]; the request occupies a queue slot for
    /// the whole hold.
    pub hold: SimDuration,
}

/// One pooled device: its cost model, busy-horizon bookkeeping, and the
/// circuit breaker fencing it off after consecutive failures.
#[derive(Debug, Clone)]
struct DeviceLane {
    device: NpuDevice,
    occupancy: Occupancy,
    breaker: CircuitBreaker,
}

/// A dispatched batch whose output has not been computed yet. Scheduling
/// (device choice, timing, faults, breakers) happens at dispatch;
/// the numeric inference is deferred to the flush, which computes every
/// batch dispatched since the last one.
#[derive(Debug, Clone)]
struct BatchPlan {
    requests: Vec<QueuedRequest>,
    /// Device attempt `(latency, ok)`, when one was made.
    npu: Option<(SimDuration, bool)>,
    /// CPU-fallback latency, when the CPU (also) served the batch.
    fallback: Option<SimDuration>,
    completes_at: SimTime,
    breaker_opened: bool,
}

/// A submission that passed the admission check.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    /// Submission instant on the service clock.
    now: SimTime,
    /// When the payload becomes batchable.
    ready_at: SimTime,
    /// Whether the request routes to the CPU fallback.
    route_cpu: bool,
}

/// Counter values at the last metrics snapshot, for per-epoch deltas.
#[derive(Debug, Clone, Copy, Default)]
struct EpochMark {
    at: SimTime,
    admitted: u64,
    served: u64,
    shed: u64,
    expired: u64,
    attempts: u64,
    busy: SimDuration,
    cache_hits: u64,
    cache_misses: u64,
}

/// One request group of the compute drain: its quantized input codes and,
/// on a policy-cache hit, the replayed output. Groups are quantized and
/// probed in dispatch order *before* any batch of the flush is computed.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Start of the group's codes in [`ComputeScratch::q`].
    q_start: usize,
    scale: f32,
    /// The cache key a missed probe returned, for the insert of the
    /// computed output (`None` on a hit or without a cache).
    key: Option<CacheKey>,
    /// Start of the replayed output in [`ComputeScratch::hits`]; `None`
    /// when the kernel computes the group (a miss, or no cache).
    hit: Option<usize>,
}

/// Buffers of the compute drain, reused across flushes.
#[derive(Debug, Default)]
struct ComputeScratch {
    /// Feature rows of every NPU-path group, back to back.
    x: Vec<f32>,
    /// Rows of each NPU-path group.
    group_rows: Vec<usize>,
    /// Each row's activation scale (its group's).
    row_scales: Vec<f32>,
    /// Quantized input codes of every NPU-path group, back to back.
    q: Vec<i8>,
    /// One entry per request of every NPU-path plan, in dispatch order;
    /// CPU-fallback plans, which run the float model, have none.
    groups: Vec<Group>,
    /// Replayed outputs of the cache hits, back to back.
    hits: Vec<f32>,
    /// The codes, per-row scales and row counts of the drain's misses,
    /// which the kernel computes in one pass.
    miss_q: Vec<i8>,
    miss_scales: Vec<f32>,
    miss_rows: Vec<usize>,
    /// Output rows of the plan being filed.
    out: Vec<f32>,
    infer: InferScratch,
}

/// A request's terminal outcome, filed with the payload it was submitted
/// with: the tier hands that payload to its next rung instead of copying
/// it.
#[derive(Debug)]
struct Filed {
    outcome: Result<ClientReply, ServeError>,
    rows: Matrix,
}

/// The shared NPU inference service.
///
/// The service runs in **virtual time**: `submit`, `run_until` and
/// `flush` carry explicit [`SimTime`] stamps and the service's clock only
/// moves forward. Given the same submission schedule it produces the same
/// batches, latencies and outputs — and because multi-request batches are
/// executed with per-request quantization groups, every reply is
/// bit-identical to serving that request alone on a dedicated device.
///
/// Every submission passes one fixed-order admission check
/// (validation → deadline feasibility → per-client rate limit → load
/// shedding or CPU degrade) before it may occupy a queue slot. With a
/// default [`ServeConfig`] every admission feature is disabled and
/// admission control is queue capacity alone.
#[derive(Debug)]
pub struct NpuService {
    config: ServeConfig,
    /// The compiled int8 model every pooled device executes, shared with
    /// the other services of a tier.
    model: Arc<NpuModel>,
    /// Float model for the CPU fallback path (mirrors the dedicated
    /// client's fallback substrate).
    mlp: Arc<Mlp>,
    /// Cost model of one pool device (the pool is homogeneous).
    device_model: NpuDevice,
    cpu: CpuInference,
    macs: usize,
    lanes: Vec<DeviceLane>,
    injector: Option<FaultInjector>,
    /// Per-client token buckets (`None` without [`ServeConfig::rate_limit`]).
    limiter: Option<RateLimiter>,
    queue: SubmissionQueue,
    /// Dispatched batches awaiting numeric computation.
    inflight: Vec<BatchPlan>,
    /// Emptied request lists of computed plans, reused by the next
    /// dispatches.
    spare: Vec<Vec<QueuedRequest>>,
    /// Reply output buffers the caller handed back
    /// ([`NpuService::recycle_output`]), reused by the next replies. It
    /// only ever holds outputs this service filed, so it is bounded by
    /// the replies in flight.
    spare_outputs: Vec<Vec<f32>>,
    /// Job lists of filed replies, by length (one job, or a failed device
    /// job and its CPU re-serve), that their last holder handed back
    /// ([`NpuService::recycle_jobs`]); rewritten in place for later
    /// batches.
    spare_jobs: [Vec<Arc<[ClientJob]>>; 2],
    compute: ComputeScratch,
    /// Replies and fail-fast errors (deadline passed before compute), by
    /// ticket id.
    outcomes: TicketRing<Filed>,
    stats: ServeStats,
    mark: EpochMark,
    clock: SimTime,
    next_id: u64,
    /// Policy-output cache over quantized feature groups (`None` when
    /// [`ServeConfig::policy_cache`] is zero). Replays numeric outputs
    /// only; device timing and occupancy are charged as if computed.
    cache: Option<PolicyCache>,
}

impl NpuService {
    /// Compiles `mlp` for the pool and starts an idle service.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (see [`ServeConfig::validate`]);
    /// use [`NpuService::try_new`] to handle the error instead.
    pub fn new(mlp: &Mlp, config: ServeConfig) -> Self {
        match Self::try_new(mlp, config) {
            Ok(service) => service,
            Err(err) => panic!("invalid serve configuration: {err}"),
        }
    }

    /// Compiles `mlp` for the pool and starts an idle service, or returns
    /// which configuration invariant was violated.
    pub fn try_new(mlp: &Mlp, config: ServeConfig) -> Result<Self, ConfigError> {
        let model = Arc::new(NpuModel::compile(mlp));
        Self::with_model(model, Arc::new(mlp.clone()), config)
    }

    /// Starts an idle service on an already compiled `model` of `mlp`,
    /// which services of one tier share instead of each compiling its
    /// own.
    pub(crate) fn with_model(
        model: Arc<NpuModel>,
        mlp: Arc<Mlp>,
        config: ServeConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let device_model = NpuDevice::kirin970();
        let lanes = (0..config.devices)
            .map(|_| DeviceLane {
                device: device_model,
                occupancy: Occupancy::new(),
                breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            })
            .collect();
        Ok(NpuService {
            macs: mlp.macs(),
            model,
            mlp,
            device_model,
            cpu: CpuInference::cortex_a73(),
            lanes,
            injector: None,
            limiter: config.rate_limit.map(RateLimiter::new),
            queue: SubmissionQueue::new(config.queue_capacity, config.retry_after),
            inflight: Vec::new(),
            spare: Vec::new(),
            spare_outputs: Vec::new(),
            spare_jobs: Default::default(),
            compute: ComputeScratch::default(),
            outcomes: TicketRing::default(),
            stats: ServeStats::default(),
            mark: EpochMark::default(),
            clock: SimTime::ZERO,
            next_id: 0,
            cache: (config.policy_cache > 0).then(|| PolicyCache::new(config.policy_cache)),
            config,
        })
    }

    /// Attaches a fault injector; its `serve` domain draws one fate per
    /// dispatched batch that reaches a device.
    pub fn with_fault_injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The service's virtual clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Requests waiting in the submission queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Circuit-breaker states of the pool, by device index.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.lanes.iter().map(|l| l.breaker.state()).collect()
    }

    /// Total breaker openings across the pool.
    pub fn breaker_opens(&self) -> u64 {
        self.lanes.iter().map(|l| l.breaker.opens()).sum()
    }

    /// Whether every device is currently fenced off.
    pub fn all_breakers_open(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.breaker.state() == BreakerState::Open)
    }

    /// Per-device busy time accumulated so far, by pool index.
    pub fn device_busy_times(&self) -> Vec<SimDuration> {
        self.lanes.iter().map(|l| l.occupancy.busy_time()).collect()
    }

    /// Submits one request (`rows` feature rows, one board's epoch batch)
    /// at virtual time `now`, with default [`SubmitOptions`] (anonymous
    /// client, no completion deadline, no hold).
    ///
    /// Admission control rejects the request with a retry-after hint when
    /// the queue is at capacity or a shed watermark fires. An admitted
    /// request dispatches once `max_batch` requests wait or its
    /// `max_wait` deadline passes, whichever is first.
    ///
    /// # Panics
    ///
    /// Panics on an empty request or mismatched feature width (use
    /// [`NpuService::submit_with`] for a typed `InvalidInput` error
    /// instead).
    pub fn submit(&mut self, rows: &Matrix, now: SimTime) -> Result<RequestTicket, Rejected> {
        assert!(rows.rows() > 0, "empty request");
        assert_eq!(rows.cols(), self.model.input_size(), "input width mismatch");
        self.submit_with(rows, now, SubmitOptions::default())
            .map_err(|err| Rejected {
                retry_after: err.retry_after().unwrap_or(self.config.retry_after),
                depth: self.queue.len(),
            })
    }

    /// Submits one request with explicit [`SubmitOptions`] at virtual
    /// time `now`.
    ///
    /// The submission passes the admission check first; on failure the
    /// typed [`ServeError`] reports whether a retry can succeed
    /// ([`ServeError::retry_class`]) and how long to back off
    /// ([`ServeError::retry_after`]). Every refusal is counted in
    /// [`ServeStats`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidInput`] — empty request or feature-width
    ///   mismatch (terminal),
    /// * [`ServeError::DeadlineExceeded`] — the deadline cannot be met
    ///   even by the earliest possible completion (terminal),
    /// * [`ServeError::RateLimited`] — the client's token bucket is empty
    ///   (retryable),
    /// * [`ServeError::Shed`] — a shed watermark fired or the queue is at
    ///   capacity (retryable).
    pub fn submit_with(
        &mut self,
        rows: &Matrix,
        now: SimTime,
        opts: SubmitOptions,
    ) -> Result<RequestTicket, ServeError> {
        let admitted = self.admit(rows, now, &opts)?;
        self.enqueue(rows.clone(), admitted, &opts)
            .map_err(|(err, _)| err)
    }

    /// [`NpuService::submit_with`] taking the payload by value: an
    /// admitted payload moves into the queue, and a refused one comes
    /// back with the error.
    pub(crate) fn submit_owned(
        &mut self,
        rows: Matrix,
        now: SimTime,
        opts: SubmitOptions,
    ) -> Result<RequestTicket, (ServeError, Matrix)> {
        match self.admit(&rows, now, &opts) {
            Ok(admitted) => self.enqueue(rows, admitted, &opts),
            Err(err) => Err((err, rows)),
        }
    }

    /// Queues an admitted request, or refuses it when the queue is full;
    /// then dispatches every full batch.
    fn enqueue(
        &mut self,
        rows: Matrix,
        admitted: Admitted,
        opts: &SubmitOptions,
    ) -> Result<RequestTicket, (ServeError, Matrix)> {
        let Admitted {
            now,
            ready_at,
            route_cpu,
        } = admitted;
        if let Some(rejected) = self.queue.rejection() {
            self.stats.rejected += 1;
            let err = queue_full_error(rejected.depth, rejected.retry_after);
            return Err((err, rows));
        }
        let id = self.next_id;
        self.queue.push(QueuedRequest {
            id,
            rows,
            submitted_at: now,
            ready_at,
            dispatch_deadline: ready_at + self.config.max_wait,
            deadline: opts.deadline,
            route_cpu,
        });
        self.next_id += 1;
        self.stats.submitted += 1;
        if route_cpu {
            self.stats.degraded += 1;
        }
        while self.queue.ready_len(now) >= self.config.max_batch {
            self.dispatch_one(now);
        }
        Ok(RequestTicket(id))
    }

    /// Advances virtual time to `now`, dispatching every batch whose
    /// `max_wait` deadline falls at or before it.
    pub fn run_until(&mut self, now: SimTime) {
        loop {
            let next = match self.queue.next_deadline() {
                Some(deadline) if deadline <= now => deadline,
                _ => break,
            };
            let at = self.clock.max(next);
            self.clock = at;
            self.dispatch_one(at);
        }
        self.clock = self.clock.max(now);
    }

    /// Advances to `now` and force-dispatches everything still pending
    /// (end of an epoch or shutdown): afterwards every admitted request
    /// has an outcome — a reply, or a fail-fast deadline error.
    pub fn flush(&mut self, now: SimTime) {
        self.run_until(now);
        while !self.queue.is_empty() {
            let at = self.clock;
            if !self.dispatch_one(at) {
                // Everything left is held back (slow-loris); jump the
                // clock to the earliest readiness instead of spinning.
                match self.queue.earliest_ready() {
                    Some(ready) => self.clock = self.clock.max(ready),
                    None => break,
                }
            }
        }
        self.drain_compute();
    }

    /// Redeems a ticket. Returns `None` while the request is still
    /// pending (advance the clock past its deadline, or `flush`) — and
    /// also for requests that failed fast on their deadline; use
    /// [`NpuService::take_outcome`] to observe those.
    pub fn take_reply(&mut self, ticket: RequestTicket) -> Option<ClientReply> {
        self.drain_compute();
        self.outcomes
            .take_if(ticket.0, |filed| filed.outcome.is_ok())
            .and_then(|filed| filed.outcome.ok())
    }

    /// Redeems a ticket as a typed outcome: `Ok` with the reply, or `Err`
    /// with the terminal error of a request that failed fast (deadline
    /// passed while queued). Returns `None` while the request is still
    /// pending.
    pub fn take_outcome(
        &mut self,
        ticket: RequestTicket,
    ) -> Option<Result<ClientReply, ServeError>> {
        self.take_filed(ticket).map(|(outcome, _)| outcome)
    }

    /// [`NpuService::take_outcome`], handing back the request's payload
    /// with its outcome.
    pub(crate) fn take_filed(
        &mut self,
        ticket: RequestTicket,
    ) -> Option<(Result<ClientReply, ServeError>, Matrix)> {
        self.drain_compute();
        self.outcomes
            .take_if(ticket.0, |_| true)
            .map(|filed| (filed.outcome, filed.rows))
    }

    /// Hands back the output of a reply this service filed, for a later
    /// reply to reuse instead of allocating its own.
    pub(crate) fn recycle_output(&mut self, output: Matrix) {
        self.spare_outputs.push(output.into_flat());
    }

    /// Hands back a filed reply's job list. The copy of a batch's last
    /// holder is kept for a later batch to rewrite; any other is dropped.
    pub(crate) fn recycle_jobs(&mut self, mut jobs: Arc<[ClientJob]>) {
        if Arc::get_mut(&mut jobs).is_some() {
            self.spare_jobs[jobs.len() - 1].push(jobs);
        }
    }

    /// Reply output buffers and job lists waiting for reuse.
    #[cfg(test)]
    pub(crate) fn spare_buffers(&self) -> usize {
        self.spare_outputs.len() + self.spare_jobs.iter().map(Vec::len).sum::<usize>()
    }

    /// Outcome slots the service is holding, redeemed or not (memory
    /// bound of the redemption path).
    #[cfg(test)]
    fn resident_outcomes(&self) -> usize {
        self.outcomes.resident()
    }

    /// Counts a client-side retry decision in [`ServeStats::retries`].
    pub fn record_retry(&mut self) {
        self.stats.retries += 1;
    }

    /// Cuts a per-epoch metrics snapshot at `now`: pool utilization,
    /// queue depth and shed rate since the previous snapshot (or service
    /// start), plus the p99 queue wait across every dispatch so far.
    /// Counters in the snapshot are deltas over that window; the p99 is
    /// cumulative.
    pub fn epoch_metrics(&mut self, now: SimTime) -> MetricsSnapshot {
        let now = self.clock.max(now);
        let busy: SimDuration = self.lanes.iter().map(|l| l.occupancy.busy_time()).sum();
        let shed_total = self.stats.shed + self.stats.rejected + self.stats.rate_limited;
        let attempts = self.stats.submitted + shed_total;
        let window = now.since(self.mark.at).as_secs_f64() * self.lanes.len() as f64;
        let utilization = if window > 0.0 {
            ((busy - self.mark.busy).as_secs_f64() / window).max(0.0)
        } else {
            0.0
        };
        let attempts_delta = attempts - self.mark.attempts;
        let shed_delta = shed_total - self.mark.shed;
        let snapshot = MetricsSnapshot {
            from: self.mark.at,
            to: now,
            queue_depth: self.queue.len(),
            utilization,
            shed_rate: if attempts_delta > 0 {
                shed_delta as f64 / attempts_delta as f64
            } else {
                0.0
            },
            p99_queue_wait: self.stats.queue_wait_percentile(0.99),
            admitted: self.stats.submitted - self.mark.admitted,
            served: self.stats.served - self.mark.served,
            shed: shed_delta,
            expired: self.stats.expired - self.mark.expired,
            cache_hits: self.stats.cache_hits - self.mark.cache_hits,
            cache_misses: self.stats.cache_misses - self.mark.cache_misses,
        };
        self.mark = EpochMark {
            at: now,
            admitted: self.stats.submitted,
            served: self.stats.served,
            shed: shed_total,
            expired: self.stats.expired,
            attempts,
            busy,
            cache_hits: self.stats.cache_hits,
            cache_misses: self.stats.cache_misses,
        };
        snapshot
    }

    /// Snapshot of the backlog for admission decisions at `at`.
    fn backlog(&self, at: SimTime) -> Backlog {
        let healthy = self
            .lanes
            .iter()
            .filter(|l| l.breaker.state() != BreakerState::Open)
            .count();
        let earliest_free = self
            .lanes
            .iter()
            .filter(|l| l.breaker.state() != BreakerState::Open)
            .map(|l| l.occupancy.next_start(at).since(at))
            .min()
            .unwrap_or(SimDuration::ZERO);
        let batch_latency = if healthy > 0 {
            self.device_model
                .inference_latency(&self.model, self.config.max_batch)
        } else {
            self.cpu.latency(self.macs, self.config.max_batch)
        };
        Backlog {
            depth: self.queue.len(),
            healthy_devices: healthy,
            earliest_free,
            batch_latency,
        }
    }

    /// The admission check at `now` (after firing the deadlines that
    /// elapsed before it), in fixed order: validation, deadline
    /// feasibility (before rate limiting, so a doomed request never burns
    /// a token), the per-client rate limit when one is configured, then
    /// load shedding or CPU degrade. The first failure wins and is
    /// counted.
    fn admit(
        &mut self,
        rows: &Matrix,
        now: SimTime,
        opts: &SubmitOptions,
    ) -> Result<Admitted, ServeError> {
        let now = self.clock.max(now);
        // Fire deadlines that elapsed before this arrival.
        self.run_until(now);
        let ready_at = now + opts.hold.min(self.config.max_hold);
        if rows.rows() == 0 {
            return Err(ServeError::InvalidInput {
                reason: "empty request",
            });
        }
        if rows.cols() != self.model.input_size() {
            return Err(ServeError::InvalidInput {
                reason: "input width mismatch",
            });
        }
        if let Some(deadline) = opts.deadline {
            // The earliest possible completion: ready + one batch margin.
            let earliest = ready_at + self.config.deadline_margin;
            if deadline < earliest {
                self.stats.infeasible += 1;
                return Err(ServeError::DeadlineExceeded {
                    deadline,
                    at: now,
                    late_by: earliest.since(deadline),
                });
            }
        }
        if let Some(limiter) = &mut self.limiter {
            if let Err(retry_after) = limiter.try_acquire(opts.client, now) {
                self.stats.rate_limited += 1;
                return Err(ServeError::RateLimited {
                    client: opts.client,
                    retry_after,
                });
            }
        }
        let admitted = |route_cpu| {
            Ok(Admitted {
                now,
                ready_at,
                route_cpu,
            })
        };
        if !shed::enabled(&self.config) {
            return admitted(false);
        }
        let backlog = self.backlog(now);
        match shed::evaluate(&self.config, &backlog) {
            ShedDecision::Admit => admitted(false),
            ShedDecision::DegradeCpu => admitted(true),
            ShedDecision::Shed {
                reason,
                retry_after,
            } => {
                self.stats.shed += 1;
                Err(ServeError::Shed {
                    reason,
                    depth: backlog.depth,
                    retry_after,
                })
            }
        }
    }

    /// Forms one batch from the most urgent ready requests and schedules
    /// it on the pool. Returns whether any progress was made (a batch
    /// dispatched or expired requests failed fast); `false` means every
    /// pending request is still held back.
    fn dispatch_one(&mut self, at: SimTime) -> bool {
        let mut progress = self.fail_expired(at);
        let mut taken = self.spare.pop().unwrap_or_default();
        self.queue.take_ready(self.config.max_batch, at, &mut taken);
        if taken.is_empty() {
            self.spare.push(taken);
            return progress;
        }
        progress = true;
        for request in &taken {
            self.stats.record_queue_wait(at.since(request.submitted_at));
        }
        self.advance_breakers();

        // Graceful-degrade members bypass the pool entirely.
        let mut pooled = taken;
        if pooled.iter().any(|r| r.route_cpu) {
            let mut degraded = self.spare.pop().unwrap_or_default();
            degraded.extend(pooled.extract_if(.., |r| r.route_cpu));
            self.dispatch_cpu(degraded, at);
        }
        if pooled.is_empty() {
            self.spare.push(pooled);
            return progress;
        }

        // Earliest-free healthy device; ties go to the lowest index.
        let lane_idx = self
            .lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.breaker.state() != BreakerState::Open)
            .min_by_key(|(i, l)| (l.occupancy.next_start(at), *i))
            .map(|(i, _)| i);
        match lane_idx {
            None => {
                // Every device fenced off: serve the batch on the host
                // CPU so no request is dropped.
                self.dispatch_cpu(pooled, at);
            }
            Some(i) => {
                let fault = match &mut self.injector {
                    Some(injector) => injector.serve_batch(),
                    None => ServeFault::None,
                };
                self.dispatch_npu(pooled, i, fault, at);
            }
        }
        progress
    }

    /// Advances open breakers' cooldowns one step per dispatch; a breaker
    /// whose cooldown ran out turns half-open.
    fn advance_breakers(&mut self) {
        for lane in &mut self.lanes {
            if lane.breaker.state() == BreakerState::Open {
                lane.breaker.epoch_elapsed();
            }
        }
    }

    /// Schedules a batch on pool device `lane` with the drawn `fault`.
    fn dispatch_npu(
        &mut self,
        mut requests: Vec<QueuedRequest>,
        lane: usize,
        fault: ServeFault,
        at: SimTime,
    ) {
        // Feasibility uses the batch's TRUE completion — device start,
        // fault-stretched latency, and the CPU re-serve after a failure —
        // so an admitted-and-served request can never miss its deadline,
        // even under a fault storm.
        let start = self.lanes[lane].occupancy.next_start(at);
        let rows = total_rows(&requests);
        let estimate =
            start + self.npu_latency(lane, rows, fault) + self.failure_reserve(rows, fault);
        self.fail_infeasible(&mut requests, estimate, at);
        if requests.is_empty() {
            self.spare.push(requests);
            return;
        }
        let rows = total_rows(&requests);
        let latency = self.npu_latency(lane, rows, fault);
        let cpu_latency = self.cpu.latency(self.macs, rows);

        let lane_ref = &mut self.lanes[lane];
        let (_start, end) = lane_ref.occupancy.reserve(at, latency);
        let plan = if matches!(fault, ServeFault::Failure) {
            // The device burned its reservation, the breaker records the
            // failure, and the CPU re-serves the batch afterwards.
            let opens_before = lane_ref.breaker.opens();
            lane_ref.breaker.record_failure();
            let breaker_opened = lane_ref.breaker.opens() > opens_before;
            self.stats.failed_batches += 1;
            self.stats.cpu_fallback_batches += 1;
            BatchPlan {
                requests,
                npu: Some((latency, false)),
                fallback: Some(cpu_latency),
                completes_at: end + cpu_latency,
                breaker_opened,
            }
        } else {
            lane_ref.breaker.record_success();
            BatchPlan {
                requests,
                npu: Some((latency, true)),
                fallback: None,
                completes_at: end,
                breaker_opened: false,
            }
        };
        self.finish_plan(plan, rows);
    }

    /// Schedules a batch directly on the host CPU (graceful degrade, or
    /// every breaker open).
    fn dispatch_cpu(&mut self, mut requests: Vec<QueuedRequest>, at: SimTime) {
        let estimate = at + self.cpu.latency(self.macs, total_rows(&requests));
        self.fail_infeasible(&mut requests, estimate, at);
        if requests.is_empty() {
            self.spare.push(requests);
            return;
        }
        let rows = total_rows(&requests);
        let cpu_latency = self.cpu.latency(self.macs, rows);
        self.stats.cpu_fallback_batches += 1;
        let plan = BatchPlan {
            requests,
            npu: None,
            fallback: Some(cpu_latency),
            completes_at: at + cpu_latency,
            breaker_opened: false,
        };
        self.finish_plan(plan, rows);
    }

    /// Device latency for `rows` on `lane`, with the fault's slowdown
    /// applied.
    fn npu_latency(&self, lane: usize, rows: usize, fault: ServeFault) -> SimDuration {
        let base = self.lanes[lane].device.inference_latency(&self.model, rows);
        match fault {
            ServeFault::Slowdown(factor) => SimDuration::from_secs_f64(base.as_secs_f64() * factor),
            _ => base,
        }
    }

    /// The CPU re-serve time appended to a batch's completion when its
    /// device attempt fails.
    fn failure_reserve(&self, rows: usize, fault: ServeFault) -> SimDuration {
        if matches!(fault, ServeFault::Failure) {
            self.cpu.latency(self.macs, rows)
        } else {
            SimDuration::ZERO
        }
    }

    /// Drops every member whose absolute deadline precedes the batch's
    /// completion estimate, failing it fast with a typed error; the
    /// survivors keep their order.
    fn fail_infeasible(
        &mut self,
        requests: &mut Vec<QueuedRequest>,
        completes_at: SimTime,
        at: SimTime,
    ) {
        let doomed = |r: &QueuedRequest| r.deadline.is_some_and(|d| d < completes_at);
        if !requests.iter().any(doomed) {
            return;
        }
        for request in requests.extract_if(.., |r| doomed(r)) {
            self.fail_deadline(request, at, completes_at);
        }
    }

    /// Fails every queued request whose deadline has already passed.
    /// Returns whether any expired.
    fn fail_expired(&mut self, at: SimTime) -> bool {
        let expired = self.queue.take_expired(at);
        let any = !expired.is_empty();
        for request in expired {
            self.fail_deadline(request, at, at);
        }
        any
    }

    /// Records the fail-fast outcome of one deadline-doomed request.
    fn fail_deadline(&mut self, request: QueuedRequest, at: SimTime, completes_at: SimTime) {
        let deadline = request
            .deadline
            .expect("deadline-failed request carries a deadline");
        let late_by = completes_at.since(deadline);
        self.stats.expired += 1;
        self.outcomes.fill(
            request.id,
            Filed {
                outcome: Err(ServeError::DeadlineExceeded {
                    deadline,
                    at,
                    late_by,
                }),
                rows: request.rows,
            },
        );
    }

    /// Accounts a planned batch and queues it for compute.
    fn finish_plan(&mut self, plan: BatchPlan, rows: usize) {
        self.stats.record_batch(plan.requests.len(), rows);
        self.inflight.push(plan);
    }

    /// Computes every in-flight batch on the calling thread and files the
    /// per-request replies, plan by plan in dispatch order. Every group
    /// is quantized and probed before any miss is inserted, so a batch
    /// never hits on an output computed in the same flush. The kernel
    /// then computes the misses of every NPU-path plan in one pass, each
    /// group with its own scale (bit-identical to dedicated issuance),
    /// and each plan is filed from its slice of that output and the
    /// replayed hits, its misses inserted into the cache in dispatch
    /// order.
    fn drain_compute(&mut self) {
        if self.inflight.is_empty() {
            return;
        }
        let mut plans = std::mem::take(&mut self.inflight);
        let mut scratch = std::mem::take(&mut self.compute);
        let width = self.model.input_size();
        let out_cols = self.model.output_size();
        scratch.x.clear();
        scratch.group_rows.clear();
        for request in plans
            .iter()
            .filter(|p| p.fallback.is_none())
            .flat_map(|p| &p.requests)
        {
            scratch.x.extend_from_slice(request.rows.as_slice());
            scratch.group_rows.push(request.rows.rows());
        }
        probe_groups(self.cache.as_mut(), width, &mut scratch);
        scratch.miss_q.clear();
        scratch.miss_scales.clear();
        scratch.miss_rows.clear();
        for (group, &rows) in scratch.groups.iter().zip(&scratch.group_rows) {
            if group.hit.is_none() {
                let q = &scratch.q[group.q_start..group.q_start + rows * width];
                scratch.miss_q.extend_from_slice(q);
                scratch
                    .miss_scales
                    .extend(std::iter::repeat_n(group.scale, rows));
                scratch.miss_rows.push(rows);
            }
        }
        let mut computed: &[f32] = if scratch.miss_rows.is_empty() {
            &[]
        } else {
            self.model.infer_groups(
                &scratch.miss_q,
                &scratch.miss_scales,
                &scratch.miss_rows,
                self.config.kernel,
                &mut scratch.infer,
            )
        };
        let mut groups = scratch.groups.iter();
        for mut plan in plans.drain(..) {
            if plan.fallback.is_some() {
                let output = cpu_forward(&self.mlp, &plan.requests);
                self.file_replies(&mut plan, output.as_slice(), out_cols);
                self.spare.push(plan.requests);
                continue;
            }
            scratch.out.clear();
            for (request, group) in plan.requests.iter().zip(&mut groups) {
                let rows = request.rows.rows();
                let len = rows * out_cols;
                let out = match group.hit {
                    Some(at) => {
                        self.stats.cache_hits += 1;
                        &scratch.hits[at..at + len]
                    }
                    None => {
                        let (out, rest) = computed.split_at(len);
                        computed = rest;
                        if let Some(cache) = self.cache.as_mut() {
                            self.stats.cache_misses += 1;
                            let q = &scratch.q[group.q_start..group.q_start + rows * width];
                            let key = group.key.expect("a cached service keys every group");
                            cache.insert(key, q, group.scale, rows, out);
                        }
                        out
                    }
                };
                scratch.out.extend_from_slice(out);
            }
            self.file_replies(&mut plan, &scratch.out, out_cols);
            self.spare.push(plan.requests);
        }
        self.inflight = plans;
        self.compute = scratch;
    }

    /// Splits a batch output (`out_cols` wide) back into per-request
    /// replies, draining the plan's requests, each into a recycled output
    /// buffer when one is spare. Every reply shares the plan's job list.
    fn file_replies(&mut self, plan: &mut BatchPlan, output: &[f32], out_cols: usize) {
        let total_rows = total_rows(&plan.requests) as u32;
        let npu_job = plan.npu.map(|(latency, ok)| ClientJob {
            batch: total_rows,
            latency,
            backend: TraceBackend::Npu,
            ok,
        });
        let cpu_job = plan.fallback.map(|latency| ClientJob {
            batch: total_rows,
            latency,
            backend: TraceBackend::Cpu,
            ok: true,
        });
        let jobs = [npu_job, cpu_job];
        let jobs = match self.spare_jobs[jobs.iter().flatten().count() - 1].pop() {
            Some(mut spare) => {
                let slots = Arc::get_mut(&mut spare).expect("a spare job list is unshared");
                for (slot, job) in slots.iter_mut().zip(jobs.into_iter().flatten()) {
                    *slot = job;
                }
                spare
            }
            None => jobs.into_iter().flatten().collect(),
        };
        let backend = if plan.fallback.is_some() {
            InferenceBackend::Cpu
        } else {
            InferenceBackend::Npu
        };
        let npu_failures = u32::from(matches!(plan.npu, Some((_, false))));
        let mut start_row = 0usize;
        for request in plan.requests.drain(..) {
            let n = request.rows.rows();
            let mut flat = self.spare_outputs.pop().unwrap_or_default();
            flat.clear();
            flat.extend_from_slice(&output[start_row * out_cols..(start_row + n) * out_cols]);
            start_row += n;
            let latency = plan.completes_at.since(request.submitted_at);
            // Safety net behind the fail-fast pipeline: a reply delivered
            // past its deadline is a deadline miss. The feasibility checks
            // exist to keep this counter at zero.
            if request.deadline.is_some_and(|d| plan.completes_at > d) {
                self.stats.deadline_misses += 1;
            }
            self.stats.record_reply(latency);
            let reply = ClientReply {
                output: Some(Matrix::from_flat(n, out_cols, flat)),
                latency,
                // The board pays the driver marshalling for its own
                // rows; the batched device time is the service's.
                cpu_time: self.device_model.host_cpu_time(n),
                backend,
                npu_failures,
                fallback_active: plan.fallback.is_some(),
                jobs: Arc::clone(&jobs),
                breaker_opened: plan.breaker_opened,
            };
            self.outcomes.fill(
                request.id,
                Filed {
                    outcome: Ok(reply),
                    rows: request.rows,
                },
            );
        }
    }
}

/// Feature rows across `requests`.
fn total_rows(requests: &[QueuedRequest]) -> usize {
    requests.iter().map(|r| r.rows.rows()).sum()
}

/// Quantizes every group of `scratch.x` exactly as the first inference
/// layer would quantize it alone ([`nn::kernel::quantize_reference`]), all of
/// them in one lane-parallel sweep, then probes the cache with each
/// group's codes in dispatch order: a hit's output is copied to
/// `scratch.hits`. Fills `scratch.groups`.
fn probe_groups(mut cache: Option<&mut PolicyCache>, width: usize, scratch: &mut ComputeScratch) {
    scratch.q.resize(scratch.x.len(), 0);
    nn::kernel::quantize_groups(
        &scratch.x,
        width,
        &scratch.group_rows,
        &mut scratch.q,
        &mut scratch.row_scales,
    );
    scratch.groups.clear();
    scratch.hits.clear();
    let (mut q_start, mut row) = (0, 0);
    for &rows in &scratch.group_rows {
        let q = &scratch.q[q_start..q_start + rows * width];
        // Requests hold at least one row (admission refuses empty ones).
        let scale = scratch.row_scales[row];
        let (hit, key) = match cache
            .as_deref_mut()
            .map(|cache| cache.probe(q, scale, rows))
        {
            Some(Ok(out)) => {
                let at = scratch.hits.len();
                scratch.hits.extend_from_slice(out);
                (Some(at), None)
            }
            Some(Err(key)) => (None, Some(key)),
            None => (None, None),
        };
        scratch.groups.push(Group {
            q_start,
            scale,
            key,
            hit,
        });
        q_start += q.len();
        row += rows;
    }
}

/// Float inference of a CPU-fallback batch, mirroring the dedicated
/// client's fallback substrate. It bypasses the int8 cache.
fn cpu_forward(mlp: &Mlp, requests: &[QueuedRequest]) -> Matrix {
    let cols = requests[0].rows.cols();
    let mut flat = Vec::with_capacity(total_rows(requests) * cols);
    for request in requests {
        flat.extend_from_slice(request.rows.as_slice());
    }
    mlp.forward_batch(&Matrix::from_flat(total_rows(requests), cols, flat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limiter::RateLimit;
    use crate::ShedReason;
    use faults::FaultPlan;
    use npu::KernelMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Mlp {
        Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(3))
    }

    fn request(seed: usize, rows: usize) -> Matrix {
        Matrix::from_rows(
            (0..rows)
                .map(|r| {
                    (0..21)
                        .map(|c| ((seed * 31 + r * 7 + c * 3) % 17) as f32 / 17.0 - 0.5)
                        .collect()
                })
                .collect(),
        )
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn deadline_coalesces_waiting_requests_into_one_batch() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        let tickets: Vec<_> = (0..4)
            .map(|i| service.submit(&request(i, 2), ms(10)).unwrap())
            .collect();
        // Nothing dispatched before the oldest deadline.
        assert_eq!(service.stats().batches, 0);
        service.run_until(ms(13)); // max_wait = 2 ms
        assert_eq!(service.stats().batches, 1);
        assert_eq!(service.stats().batch_histogram()[4], 1);
        for t in tickets {
            let reply = service.take_reply(t).unwrap();
            assert_eq!(reply.output.unwrap().rows(), 2);
            assert!(!reply.fallback_active);
        }
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let net = mlp();
        let config = ServeConfig {
            max_batch: 3,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        for i in 0..3 {
            service.submit(&request(i, 1), ms(5)).unwrap();
        }
        // The third submission filled the batch: dispatched at 5 ms, not
        // at the 7 ms deadline, so nobody waited in the queue.
        assert_eq!(service.stats().batches, 1);
        assert_eq!(service.stats().batch_histogram()[3], 1);
        assert_eq!(service.stats().rows, 3);
        assert_eq!(
            service.stats().queue_wait_percentile(1.0),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn admission_control_rejects_and_recovers() {
        let net = mlp();
        let config = ServeConfig {
            queue_capacity: 2,
            max_batch: 16,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        service.submit(&request(0, 1), ms(1)).unwrap();
        service.submit(&request(1, 1), ms(1)).unwrap();
        let rejected = service.submit(&request(2, 1), ms(1)).unwrap_err();
        assert_eq!(rejected.retry_after, config.retry_after);
        assert_eq!(rejected.depth, 2);
        assert_eq!(service.stats().rejected, 1);
        let err = service
            .submit_with(&request(2, 1), ms(1), SubmitOptions::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Shed {
                reason: ShedReason::QueueFull,
                depth: 2,
                ..
            }
        ));
        assert_eq!(service.stats().rejected, 2);
        // After the deadline drains the queue, the retry is admitted.
        let t = service.submit(&request(2, 1), ms(4)).unwrap();
        service.flush(ms(10));
        assert!(service.take_reply(t).unwrap().output.is_some());
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn batched_replies_bit_identical_to_dedicated_inference() {
        let net = mlp();
        let compiled = NpuModel::compile(&net);
        let mut service = NpuService::new(&net, ServeConfig::default());
        let requests: Vec<Matrix> = (0..5).map(|i| request(i, 1 + i % 3)).collect();
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r, ms(2)).unwrap())
            .collect();
        service.flush(ms(100));
        assert!(service.stats().batches < 5, "requests must coalesce");
        for (r, t) in requests.iter().zip(tickets) {
            let reply = service.take_reply(t).unwrap();
            // Same bits as a dedicated device serving this request alone.
            assert_eq!(
                reply.output.unwrap(),
                compiled.infer(r, KernelMode::default())
            );
        }
    }

    #[test]
    fn occupancy_queues_batches_behind_busy_devices() {
        let net = mlp();
        let config = ServeConfig {
            devices: 1,
            max_batch: 1,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        // Three single-request batches dispatched back to back on one
        // device: each completion is pushed behind the previous one.
        let tickets: Vec<_> = (0..3)
            .map(|i| service.submit(&request(i, 1), ms(1)).unwrap())
            .collect();
        service.flush(ms(1));
        let latencies: Vec<_> = tickets
            .into_iter()
            .map(|t| service.take_reply(t).unwrap().latency)
            .collect();
        assert!(latencies[1] > latencies[0]);
        assert!(latencies[2] > latencies[1]);
        assert_eq!(service.device_busy_times().len(), 1);
        assert!(service.device_busy_times()[0] >= latencies[0] * 2);
    }

    #[test]
    fn device_failures_open_breaker_and_drain_to_cpu() {
        let net = mlp();
        let mut plan = FaultPlan::none(11);
        plan.serve.failure_rate = 1.0;
        let config = ServeConfig {
            devices: 2,
            max_batch: 1,
            breaker_threshold: 2,
            breaker_cooldown: 50,
            ..ServeConfig::default()
        };
        let mut service =
            NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
        let mut replies = Vec::new();
        for i in 0..8 {
            let t = service.submit(&request(i, 1), ms(i as u64)).unwrap();
            service.flush(ms(i as u64));
            replies.push(service.take_reply(t).unwrap());
        }
        // Two failures per device open both breakers...
        assert!(service.all_breakers_open());
        assert_eq!(service.breaker_opens(), 2);
        assert_eq!(service.stats().failed_batches, 4);
        // ...yet every request was answered (failed batches re-served on
        // the CPU, later ones drained directly to the fallback).
        assert_eq!(service.stats().dropped(), 0);
        assert!(replies.iter().all(|r| r.output.is_some()));
        assert!(replies.iter().all(|r| r.fallback_active));
        let last = replies.last().unwrap();
        // Once fenced off, no device attempt is made at all.
        assert_eq!(last.npu_failures, 0);
        assert_eq!(last.jobs.len(), 1);
        assert_eq!(last.jobs[0].backend, TraceBackend::Cpu);
    }

    #[test]
    fn slowdown_faults_stretch_batch_latency() {
        let net = mlp();
        let mut plan = FaultPlan::none(13);
        plan.serve.slowdown_rate = 1.0;
        plan.serve.slowdown_factor = 10.0;
        let config = ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        };
        let mut clean = NpuService::new(&net, config);
        let mut slowed =
            NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
        let tc = clean.submit(&request(0, 2), ms(1)).unwrap();
        let ts = slowed.submit(&request(0, 2), ms(1)).unwrap();
        clean.flush(ms(1));
        slowed.flush(ms(1));
        let fast = clean.take_reply(tc).unwrap();
        let slow = slowed.take_reply(ts).unwrap();
        assert_eq!(fast.output, slow.output, "slowdown must not corrupt data");
        let ratio = slow.latency.as_secs_f64() / fast.latency.as_secs_f64();
        assert!((9.0..11.0).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn virtual_clock_is_monotone_across_out_of_order_submits() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        service.submit(&request(0, 1), ms(10)).unwrap();
        // An earlier stamp is clamped to the service clock, never
        // rewinding it.
        service.submit(&request(1, 1), ms(5)).unwrap();
        assert_eq!(service.now(), ms(10));
        service.flush(ms(20));
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let net = mlp();
        let config = ServeConfig {
            devices: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            NpuService::try_new(&net, config).err(),
            Some(ConfigError::ZeroDevices)
        );
    }

    #[test]
    fn infeasible_deadline_is_refused_at_admission() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        let opts = SubmitOptions {
            deadline: Some(ms(11)), // margin is 4 ms; 10 + 4 > 11
            ..SubmitOptions::default()
        };
        let err = service
            .submit_with(&request(0, 1), ms(10), opts)
            .unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        assert_eq!(service.stats().submitted, 0);
        // Counted as refused at admission, not as an admitted expiry.
        assert_eq!(service.stats().infeasible, 1);
        assert_eq!(service.stats().expired, 0);
    }

    #[test]
    fn admitted_deadlines_are_met_or_failed_fast_never_served_late() {
        let net = mlp();
        let config = ServeConfig {
            devices: 1,
            max_batch: 4,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        // Saturate the single device so completions pile up, with tight
        // (but admissible) deadlines.
        let tickets: Vec<_> = (0..12)
            .map(|i| {
                let opts = SubmitOptions {
                    client: ClientId::new(i as u64),
                    deadline: Some(ms(10)),
                    ..SubmitOptions::default()
                };
                service.submit_with(&request(i, 4), ms(1), opts).unwrap()
            })
            .collect();
        service.flush(ms(200));
        let mut served = 0u64;
        let mut expired = 0u64;
        for t in tickets {
            match service.take_outcome(t).unwrap() {
                Ok(reply) => {
                    served += 1;
                    assert!(reply.output.is_some());
                }
                Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
                Err(other) => panic!("unexpected terminal error: {other}"),
            }
        }
        assert_eq!(served + expired, 12);
        assert!(expired > 0, "the backlog must doom some deadlines");
        assert!(served > 0, "the earliest batches must meet theirs");
        // The invariant the whole pipeline exists for:
        assert_eq!(service.stats().deadline_misses, 0);
        assert_eq!(service.stats().expired, expired);
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn depth_watermark_sheds_with_backlog_scaled_hint() {
        let net = mlp();
        let config = ServeConfig {
            shed_depth_watermark: Some(2),
            max_batch: 16,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        service.submit(&request(0, 1), ms(1)).unwrap();
        service.submit(&request(1, 1), ms(1)).unwrap();
        let err = service
            .submit_with(&request(2, 1), ms(1), SubmitOptions::default())
            .unwrap_err();
        let ServeError::Shed {
            reason,
            depth,
            retry_after,
        } = err
        else {
            panic!("expected a shed, got {err:?}");
        };
        assert_eq!(reason, ShedReason::DepthWatermark);
        assert_eq!(depth, 2);
        assert!(retry_after >= config.retry_after);
        assert_eq!(service.stats().shed, 1);
    }

    #[test]
    fn rate_limiter_is_per_client() {
        let net = mlp();
        let config = ServeConfig {
            rate_limit: Some(RateLimit {
                burst: 2.0,
                refill_per_sec: 10.0,
            }),
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        let hog = SubmitOptions {
            client: ClientId::new(1),
            ..SubmitOptions::default()
        };
        let other = SubmitOptions {
            client: ClientId::new(2),
            ..SubmitOptions::default()
        };
        service.submit_with(&request(0, 1), ms(1), hog).unwrap();
        service.submit_with(&request(1, 1), ms(1), hog).unwrap();
        let err = service.submit_with(&request(2, 1), ms(1), hog).unwrap_err();
        assert!(matches!(
            err,
            ServeError::RateLimited { client, .. } if client == ClientId::new(1)
        ));
        // A different client is unaffected by the hog's empty bucket.
        service.submit_with(&request(3, 1), ms(1), other).unwrap();
        assert_eq!(service.stats().rate_limited, 1);
        // Virtual-time refill: 100 ms at 10 tokens/s is one token.
        service.flush(ms(10));
        service.submit_with(&request(4, 1), ms(101), hog).unwrap();
        service.flush(ms(200));
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn degrade_watermark_routes_to_cpu_before_shedding() {
        let net = mlp();
        let config = ServeConfig {
            cpu_degrade_watermark: Some(SimDuration::ZERO),
            max_batch: 4,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        let t = service
            .submit_with(&request(0, 2), ms(1), SubmitOptions::default())
            .unwrap();
        service.flush(ms(10));
        let reply = service.take_reply(t).unwrap();
        assert!(reply.fallback_active, "degraded requests serve on the CPU");
        assert_eq!(reply.backend, InferenceBackend::Cpu);
        assert_eq!(service.stats().degraded, 1);
        assert_eq!(service.stats().cpu_fallback_batches, 1);
        // The pool never saw the request.
        assert!(service.device_busy_times().iter().all(|d| d.is_zero()));
    }

    #[test]
    fn held_submissions_batch_only_once_ready() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        let held = SubmitOptions {
            hold: SimDuration::from_millis(20),
            ..SubmitOptions::default()
        };
        let slow = service.submit_with(&request(0, 1), ms(1), held).unwrap();
        let fast = service
            .submit_with(&request(1, 1), ms(1), SubmitOptions::default())
            .unwrap();
        // The prompt request dispatches at its own max_wait deadline; the
        // slow-loris request stays queued until its payload arrives.
        service.run_until(ms(10));
        assert!(service.take_reply(fast).is_some());
        assert!(service.take_reply(slow).is_none());
        assert_eq!(service.pending(), 1);
        service.flush(ms(40));
        assert!(service.take_reply(slow).is_some());
        assert_eq!(service.stats().dropped(), 0);
    }

    #[test]
    fn hold_is_clamped_to_max_hold() {
        let net = mlp();
        let config = ServeConfig {
            max_hold: SimDuration::from_millis(5),
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        let loris = SubmitOptions {
            hold: SimDuration::from_secs(3600),
            ..SubmitOptions::default()
        };
        let t = service.submit_with(&request(0, 1), ms(0), loris).unwrap();
        // Ready at 5 ms (clamped), dispatched by 7 ms (max_wait 2 ms).
        service.run_until(ms(8));
        assert!(service.take_reply(t).is_some());
    }

    #[test]
    fn retry_records_are_counted() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        service.record_retry();
        service.record_retry();
        assert_eq!(service.stats().retries, 2);
        assert_eq!(service.stats().submitted, 0);
    }

    /// Admission runs validate → deadline → rate limit → shed/degrade.
    /// Each row arms two checks at once, so only the earlier one may
    /// answer.
    #[test]
    fn admission_checks_run_in_fixed_order() {
        let net = mlp();
        let client = ClientId::new(1);
        let one_token = Some(RateLimit {
            burst: 1.0,
            refill_per_sec: 1.0,
        });
        let outcome = |r: &Result<RequestTicket, ServeError>| match r {
            Ok(_) => "admitted",
            Err(ServeError::InvalidInput { .. }) => "invalid_input",
            Err(ServeError::DeadlineExceeded { .. }) => "deadline_exceeded",
            Err(ServeError::RateLimited { .. }) => "rate_limited",
            Err(ServeError::Shed {
                reason: ShedReason::DepthWatermark,
                ..
            }) => "shed_depth",
            Err(ServeError::Shed { .. }) => "shed_other",
        };
        // Margin is 4 ms: an 11 ms deadline submitted at 10 ms is doomed.
        let doomed = Some(ms(11));
        // (row, config, admitted submissions first, probe, deadline, outcome)
        let rows = [
            (
                "malformed input beats a doomed deadline and an empty bucket",
                ServeConfig {
                    rate_limit: one_token,
                    ..ServeConfig::default()
                },
                1,
                Matrix::from_rows(vec![vec![0.5; 7]]),
                doomed,
                "invalid_input",
            ),
            (
                "a doomed deadline beats the rate limit",
                ServeConfig {
                    rate_limit: one_token,
                    ..ServeConfig::default()
                },
                0,
                request(9, 1),
                doomed,
                "deadline_exceeded",
            ),
            (
                "an empty bucket beats the depth watermark",
                ServeConfig {
                    rate_limit: one_token,
                    shed_depth_watermark: Some(1),
                    ..ServeConfig::default()
                },
                1,
                request(9, 1),
                None,
                "rate_limited",
            ),
            (
                "the depth watermark beats the degrade watermark",
                ServeConfig {
                    shed_depth_watermark: Some(1),
                    cpu_degrade_watermark: Some(SimDuration::ZERO),
                    ..ServeConfig::default()
                },
                1,
                request(9, 1),
                None,
                "shed_depth",
            ),
            (
                "the degrade watermark admits onto the CPU",
                ServeConfig {
                    cpu_degrade_watermark: Some(SimDuration::ZERO),
                    ..ServeConfig::default()
                },
                0,
                request(9, 1),
                None,
                "admitted",
            ),
        ];
        let mut services = Vec::new();
        for (row, config, before, probe, deadline, expected) in rows {
            let mut service = NpuService::new(&net, config);
            let opts = SubmitOptions {
                client,
                ..SubmitOptions::default()
            };
            for i in 0..before {
                service.submit_with(&request(i, 1), ms(10), opts).unwrap();
            }
            let got = service.submit_with(&probe, ms(10), SubmitOptions { deadline, ..opts });
            assert_eq!(outcome(&got), expected, "{row}");
            services.push(service);
        }
        // The doomed deadline left the client's only token in the bucket.
        let doomed_row = &mut services[1];
        assert_eq!(doomed_row.stats().infeasible, 1);
        assert_eq!(doomed_row.stats().rate_limited, 0);
        let opts = SubmitOptions {
            client,
            ..SubmitOptions::default()
        };
        assert!(doomed_row.submit_with(&request(0, 1), ms(10), opts).is_ok());
        assert_eq!(services[2].stats().rate_limited, 1);
        assert_eq!(services[3].stats().shed, 1);
        assert_eq!(services[4].stats().degraded, 1);
    }

    #[test]
    fn epoch_metrics_report_deltas_and_utilization() {
        let net = mlp();
        let config = ServeConfig {
            queue_capacity: 2,
            max_batch: 16,
            ..ServeConfig::default()
        };
        let mut service = NpuService::new(&net, config);
        service.submit(&request(0, 1), ms(1)).unwrap();
        service.submit(&request(1, 1), ms(1)).unwrap();
        let _ = service.submit(&request(2, 1), ms(1)); // queue full: shed
        service.flush(ms(100));
        let m = service.epoch_metrics(ms(100));
        assert_eq!(m.from, SimTime::ZERO);
        assert_eq!(m.to, ms(100));
        assert_eq!(m.admitted, 2);
        assert_eq!(m.served, 2);
        assert_eq!(m.shed, 1);
        assert_eq!(m.expired, 0);
        assert!((m.shed_rate - 1.0 / 3.0).abs() < 1e-9);
        assert!(m.utilization > 0.0, "the pool did work this epoch");
        assert!(m.p99_queue_wait.is_some());
        // The next epoch starts from zero deltas.
        let next = service.epoch_metrics(ms(200));
        assert_eq!(next.from, ms(100));
        assert_eq!(next.admitted, 0);
        assert_eq!(next.shed, 0);
        assert!((next.utilization - 0.0).abs() < 1e-9);
    }

    /// Submits twelve 4-row requests with a 10 ms deadline to a single
    /// device at 1 ms and flushes: the backlog dooms the later batches,
    /// so some tickets end as fast failures and some as replies.
    fn doomed_backlog(service: &mut NpuService) -> Vec<RequestTicket> {
        let tickets = (0..12)
            .map(|i| {
                let opts = SubmitOptions {
                    client: ClientId::new(i as u64),
                    deadline: Some(ms(10)),
                    ..SubmitOptions::default()
                };
                service.submit_with(&request(i, 4), ms(1), opts).unwrap()
            })
            .collect();
        service.flush(ms(200));
        tickets
    }

    fn single_device() -> ServeConfig {
        ServeConfig {
            devices: 1,
            max_batch: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn tickets_redeem_out_of_order_and_exactly_once() {
        let net = mlp();
        let mut service = NpuService::new(&net, ServeConfig::default());
        let tickets: Vec<_> = (0..5)
            .map(|i| service.submit(&request(i, 1), ms(2)).unwrap())
            .collect();
        service.flush(ms(50));
        for &i in &[3usize, 0, 4, 1, 2] {
            let reply = service.take_reply(tickets[i]).expect("resolved");
            assert_eq!(
                reply.output.unwrap(),
                NpuModel::compile(&net).infer(&request(i, 1), KernelMode::default())
            );
        }
        for t in tickets {
            assert!(service.take_reply(t).is_none(), "double take_reply");
            assert!(service.take_outcome(t).is_none(), "double take_outcome");
        }
    }

    #[test]
    fn take_reply_leaves_a_fast_failure_for_take_outcome() {
        let net = mlp();
        let mut service = NpuService::new(&net, single_device());
        let tickets = doomed_backlog(&mut service);
        let mut failures = 0;
        for t in tickets {
            match service.take_reply(t) {
                Some(reply) => assert!(reply.output.is_some()),
                None => {
                    // The failure is still there, exactly once.
                    match service.take_outcome(t) {
                        Some(Err(ServeError::DeadlineExceeded { .. })) => failures += 1,
                        other => panic!("expected the fast failure, got {other:?}"),
                    }
                    assert!(service.take_outcome(t).is_none(), "double take_outcome");
                }
            }
        }
        assert!(failures > 0, "the backlog must doom some deadlines");
        assert_eq!(failures, service.stats().expired);
    }

    #[test]
    fn a_never_redeemed_ticket_does_not_grow_memory() {
        let net = mlp();
        let mut service = NpuService::new(&net, single_device());
        // Redeem only through `take_reply`, as the fleet harness does: the
        // fast failures are never taken.
        let forgotten: Vec<_> = doomed_backlog(&mut service)
            .into_iter()
            .filter(|&t| service.take_reply(t).is_none())
            .collect();
        assert!(!forgotten.is_empty());
        for round in 0..1_000u64 {
            let at = ms(300 + round * 10);
            let tickets: Vec<_> = (0..3)
                .map(|i| service.submit(&request(i, 1), at).unwrap())
                .collect();
            service.flush(at + SimDuration::from_millis(5));
            for t in tickets {
                assert!(service.take_reply(t).is_some());
            }
        }
        assert!(
            service.resident_outcomes() < 100,
            "{} outcome slots resident after 1,000 redeemed flushes",
            service.resident_outcomes()
        );
        // The forgotten failures are still redeemable, once.
        for t in forgotten {
            assert!(matches!(service.take_outcome(t), Some(Err(_))));
            assert!(service.take_outcome(t).is_none());
        }
    }

    /// Regression guard for the policy cache's one safety property: a
    /// cache hit replays the numeric output and NOTHING else. Timing,
    /// fault-injector RNG draws, occupancy, breaker state and every
    /// reply byte must be identical whether the cache is off, warm, or
    /// running on the scalar kernel — only the hit/miss counters may
    /// move. A cache that skipped a device dispatch (and with it an RNG
    /// draw) would desynchronize the fault stream and fail this test on
    /// the first divergent slowdown.
    #[test]
    fn cache_hits_do_not_advance_rng_occupancy_or_timing() {
        let net = mlp();
        let run = |policy_cache: usize, kernel: KernelMode| {
            let mut plan = FaultPlan::none(17);
            plan.serve.slowdown_rate = 0.4;
            plan.serve.slowdown_factor = 3.0;
            plan.serve.failure_rate = 0.15;
            let config = ServeConfig {
                devices: 2,
                max_batch: 4,
                policy_cache,
                kernel,
                ..ServeConfig::default()
            };
            let mut service =
                NpuService::new(&net, config).with_fault_injector(FaultInjector::new(plan));
            let mut replies = Vec::new();
            for step in 0..24usize {
                // A pool of three recurring feature vectors: every
                // revisit after the first probe is a cache hit.
                let t = service
                    .submit(&request(step % 3, 1 + step % 2), ms(step as u64))
                    .unwrap();
                service.flush(ms(step as u64));
                replies.push(service.take_reply(t).unwrap());
            }
            let busy = service.device_busy_times();
            let stats = service.stats().clone();
            (replies, busy, stats)
        };
        let (cold, cold_busy, cold_stats) = run(0, KernelMode::Vectorized);
        let (warm, warm_busy, warm_stats) = run(64, KernelMode::Vectorized);
        let (scalar, scalar_busy, scalar_stats) = run(64, KernelMode::Scalar);

        assert_eq!(cold, warm, "cache hits changed a reply");
        assert_eq!(cold, scalar, "kernel choice changed a reply");
        assert_eq!(cold_busy, warm_busy, "cache hits changed occupancy");
        assert_eq!(cold_busy, scalar_busy, "kernel choice changed occupancy");

        // The warm run actually exercised the cache...
        assert_eq!(cold_stats.cache_hits + cold_stats.cache_misses, 0);
        assert!(warm_stats.cache_hits > 0, "recurring requests must hit");
        assert_eq!(warm_stats, scalar_stats, "counters are kernel-invariant");
        // ...and the hit/miss counters are the ONLY stats that moved.
        let neutral = |s: &ServeStats| {
            let mut s = s.clone();
            s.cache_hits = 0;
            s.cache_misses = 0;
            s
        };
        assert_eq!(neutral(&cold_stats), neutral(&warm_stats));
    }
}
