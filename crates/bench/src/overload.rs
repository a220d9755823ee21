//! Adversarial overload harness for the shared NPU service.
//!
//! Drives `npu-serve` with hostile traffic in virtual time — open-loop
//! burst clients submitting far past pool capacity, slow-loris clients
//! that hold their payloads back while occupying queue slots, and an
//! optional device fault storm — and reports how the production service
//! layer (deadline propagation, per-client rate limiting, watermark load
//! shedding, classified retries) holds up.
//!
//! The invariants the harness exists to demonstrate, checked by the CI
//! overload gate on the emitted CSV:
//!
//! * **no late replies** — every admitted request is either served before
//!   its deadline or failed fast with a typed error
//!   (`deadline_misses == 0`),
//! * **no lost requests** — every admitted request has an outcome after
//!   the final flush (`dropped == 0`),
//! * **bounded, reported shedding** — overload is absorbed by the
//!   admission stack, not by unbounded queueing (`shed_rate < 1`,
//!   `served > 0`),
//! * **determinism** — the CSV is byte-identical at every `--threads`
//!   budget; the run never hangs in virtual or wall-clock time.

use std::collections::BinaryHeap;
use std::fmt;

use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu::{NpuDevice, NpuModel};
use npu_serve::{
    ClientId, MetricsSnapshot, NpuService, RateLimit, RequestTicket, RetryClass, RetryPolicy,
    ServeConfig, SubmitOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Length of one metrics epoch.
const METRIC_EPOCH: SimDuration = SimDuration::from_millis(100);
/// Completion deadline the burst clients attach (past submission).
const BURST_DEADLINE: SimDuration = SimDuration::from_millis(25);
/// How long a slow-loris client withholds its payload.
const LORIS_HOLD: SimDuration = SimDuration::from_millis(30);
/// Completion deadline the slow-loris clients attach (past submission).
const LORIS_DEADLINE: SimDuration = SimDuration::from_millis(80);

/// Configuration of one overload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Open-loop burst clients.
    pub clients: usize,
    /// Slow-loris clients (hold payloads back, occupy queue slots).
    pub loris_clients: usize,
    /// 100 ms metric epochs to simulate.
    pub epochs: u64,
    /// Aggregate arrival rate as a multiple of estimated pool capacity.
    pub overload: f64,
    /// NPU devices in the shared pool.
    pub devices: usize,
    /// Maximum requests coalesced into one device call.
    pub max_batch: usize,
    /// Master seed for the arrival schedule and payloads.
    pub seed: u64,
    /// Inject device failures and slowdowns on top of the overload.
    pub fault_storm: bool,
    /// Host-thread budget for payload generation; the report and CSV are
    /// byte-identical at every budget.
    pub budget: par::Budget,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            clients: 6,
            loris_clients: 2,
            epochs: 15,
            overload: 10.0,
            devices: 2,
            max_batch: 8,
            seed: 7,
            fault_storm: false,
            budget: par::Budget::serial(),
        }
    }
}

/// Aggregate result of an overload run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// The configuration that produced this report.
    pub config: OverloadConfig,
    /// Submission attempts issued, fresh and retried.
    pub attempts: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Admitted requests served with a reply.
    pub served: u64,
    /// Admitted requests failed fast on their deadline.
    pub expired: u64,
    /// Attempts turned away (watermark sheds + queue-full + rate limits).
    pub shed: u64,
    /// Attempts refused by the per-client rate limiter (subset of `shed`).
    pub rate_limited: u64,
    /// Admitted requests routed to the CPU under the degrade watermark.
    pub degraded: u64,
    /// Classified retries the harness scheduled.
    pub retries: u64,
    /// Replies delivered after their deadline (the gate requires zero).
    pub deadline_misses: u64,
    /// Admitted requests with no outcome after the final flush (the gate
    /// requires zero).
    pub dropped: u64,
    /// Sheds per attempt over the whole run.
    pub shed_rate: f64,
    /// p99 queue wait (submit → dispatch) across the run.
    pub p99_queue_wait: SimDuration,
    /// Fraction of pool device-time spent busy over the whole run.
    pub utilization: f64,
    /// Circuit-breaker openings (only under a fault storm).
    pub breaker_opens: u64,
    /// Per-epoch metric snapshots, in order.
    pub epochs: Vec<MetricsSnapshot>,
}

impl fmt::Display for OverloadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Overload: {:.0}x capacity, {} burst + {} loris clients, {} epochs on {} device(s){}",
            self.config.overload,
            self.config.clients,
            self.config.loris_clients,
            self.config.epochs,
            self.config.devices,
            if self.config.fault_storm {
                ", fault storm"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "  attempts: {} -> {} admitted / {} shed ({} rate-limited), shed rate {:.3}",
            self.attempts, self.admitted, self.shed, self.rate_limited, self.shed_rate
        )?;
        writeln!(
            f,
            "  outcomes: {} served, {} expired (fail-fast), {} degraded to CPU, {} retries",
            self.served, self.expired, self.degraded, self.retries
        )?;
        writeln!(
            f,
            "  invariants: {} deadline misses, {} dropped (both must be zero)",
            self.deadline_misses, self.dropped
        )?;
        writeln!(
            f,
            "  pool: {:.1}% utilized, p99 queue wait {}, {} breaker opens",
            self.utilization * 100.0,
            self.p99_queue_wait,
            self.breaker_opens
        )
    }
}

/// One scheduled submission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    at: SimTime,
    /// Tie-break so the heap drains in schedule order.
    seq: u64,
    /// Index into the arrival table.
    arrival: usize,
    /// 0 for a fresh arrival, n for the n-th classified retry.
    retry: u32,
}

impl Ord for Attempt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first draining.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Attempt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One planned arrival (payload generated up front, in parallel).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    client: ClientId,
    rows: usize,
    payload_seed: u64,
    hold: SimDuration,
    deadline: SimDuration,
}

/// Deterministic pseudo-random feature batch.
fn payload(seed: u64, rows: usize) -> Matrix {
    Matrix::from_rows(
        (0..rows)
            .map(|r| {
                (0..21)
                    .map(|c| {
                        let h = sim_core::splitmix64(seed ^ ((r * 31 + c) as u64));
                        (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Runs the overload experiment.
///
/// Attempts drain from one heap ordered on `(at, seq)`. Each attempt
/// carries its heap sequence number, which seeds its retry backoff
/// jitter, so the whole run is a pure function of the config.
///
/// # Panics
///
/// Panics on a zero client, epoch or device count.
pub fn run(config: &OverloadConfig) -> OverloadReport {
    assert!(config.clients > 0, "need at least one burst client");
    assert!(config.epochs > 0, "need at least one epoch");
    assert!(config.devices > 0, "need at least one device");
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(config.seed));
    let compiled = NpuModel::compile(&mlp);
    let device = NpuDevice::kirin970();

    // Pool capacity estimate: full batches back to back on every device.
    let batch_latency = device.inference_latency(&compiled, config.max_batch);
    let capacity_rps =
        config.devices as f64 * config.max_batch as f64 / batch_latency.as_secs_f64();
    let per_client_rps = capacity_rps * config.overload / config.clients as f64;

    let serve = ServeConfig {
        devices: config.devices,
        max_batch: config.max_batch,
        queue_capacity: 64,
        shed_depth_watermark: Some(48),
        shed_latency_watermark: Some(SimDuration::from_millis(80)),
        cpu_degrade_watermark: Some(SimDuration::from_millis(40)),
        // Generous per-client budget: twice the fair share of capacity, so
        // the limiter only catches clients bursting far past their share.
        rate_limit: Some(RateLimit {
            burst: 16.0,
            refill_per_sec: 2.0 * capacity_rps / config.clients as f64,
        }),
        ..ServeConfig::default()
    };
    let serve = if config.fault_storm {
        // Under a storm the breaker must actually cycle: hair-trigger
        // threshold, short cooldown so fenced devices keep probing back.
        ServeConfig {
            breaker_threshold: 2,
            breaker_cooldown: 4,
            ..serve
        }
    } else {
        serve
    };
    let mut service = NpuService::new(&mlp, serve);
    if config.fault_storm {
        let mut plan = faults::FaultPlan::none(config.seed ^ 0x5701);
        plan.serve.failure_rate = 0.30;
        plan.serve.slowdown_rate = 0.10;
        plan.serve.slowdown_factor = 4.0;
        service = service.with_fault_injector(faults::FaultInjector::new(plan));
    }

    // Plan every fresh arrival up front: bursts of ~8 requests at jittered
    // instants per client per epoch, plus the slow-loris drip.
    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut schedule: Vec<(SimTime, usize)> = Vec::new();
    let epoch_ns = METRIC_EPOCH.as_nanos();
    let per_client_epoch = (per_client_rps * METRIC_EPOCH.as_secs_f64()).ceil() as usize;
    let bursts_per_epoch = per_client_epoch.div_ceil(8).max(1);
    for epoch in 0..config.epochs {
        let base = SimTime::from_nanos(epoch * epoch_ns);
        for client in 0..config.clients {
            let stream = sim_core::splitmix64(config.seed ^ (epoch << 20) ^ ((client as u64) << 8));
            let mut left = per_client_epoch;
            for burst in 0..bursts_per_epoch {
                let jitter = sim_core::splitmix64(stream ^ burst as u64) % epoch_ns;
                let burst_at = base + SimDuration::from_nanos(jitter);
                for shot in 0..left.min(8) {
                    let seed = sim_core::splitmix64(stream ^ (burst as u64) << 16 ^ shot as u64);
                    arrivals.push(Arrival {
                        client: ClientId::new(client as u64),
                        rows: 1 + (seed % 3) as usize,
                        payload_seed: seed,
                        hold: SimDuration::ZERO,
                        deadline: BURST_DEADLINE,
                    });
                    // Shots inside a burst land microseconds apart.
                    let at = burst_at + SimDuration::from_nanos(shot as u64 * 25_000);
                    schedule.push((at, arrivals.len() - 1));
                }
                left = left.saturating_sub(8);
            }
        }
        // Each loris client drips one held request per epoch.
        for loris in 0..config.loris_clients {
            let stream = sim_core::splitmix64(config.seed ^ 0xA11C ^ (epoch << 16) ^ loris as u64);
            arrivals.push(Arrival {
                client: ClientId::new(1_000 + loris as u64),
                rows: 1,
                payload_seed: stream,
                hold: LORIS_HOLD,
                deadline: LORIS_DEADLINE,
            });
            let at = base + SimDuration::from_nanos(stream % epoch_ns);
            schedule.push((at, arrivals.len() - 1));
        }
    }
    // The traffic the service sees is time-ordered regardless of how the
    // plan was generated.
    schedule.sort();
    // Payload generation is the embarrassingly parallel part: pure
    // function of the arrival's seed, folded back in plan order.
    let payloads: Vec<Matrix> = par::par_map(&config.budget, &arrivals, |_, a| {
        payload(a.payload_seed, a.rows)
    });

    let policy = RetryPolicy::default();
    let end = SimTime::from_nanos(config.epochs * epoch_ns);
    let drive = Drive {
        arrivals: &arrivals,
        schedule: &schedule,
        payloads: &payloads,
        policy,
        epochs: config.epochs,
        end,
    };
    let DriveState {
        mut service,
        tickets,
        epochs,
        attempts,
        ..
    } = drive_attempts(service, &drive);

    let mut served = 0u64;
    let mut expired = 0u64;
    let mut dropped = 0u64;
    for ticket in tickets {
        match service.take_outcome(ticket) {
            Some(Ok(_)) => served += 1,
            Some(Err(_)) => expired += 1,
            None => dropped += 1,
        }
    }
    let stats = service.stats();
    let busy: SimDuration = service.device_busy_times().into_iter().sum();
    let total = end.since(SimTime::ZERO).as_secs_f64() * config.devices as f64;
    let shed = stats.shed + stats.rejected + stats.rate_limited;
    OverloadReport {
        config: *config,
        attempts,
        admitted: stats.submitted,
        served,
        expired,
        shed,
        rate_limited: stats.rate_limited,
        degraded: stats.degraded,
        retries: stats.retries,
        deadline_misses: stats.deadline_misses,
        dropped,
        shed_rate: if attempts > 0 {
            shed as f64 / attempts as f64
        } else {
            0.0
        },
        p99_queue_wait: stats
            .queue_wait_percentile(0.99)
            .unwrap_or(SimDuration::ZERO),
        utilization: if total > 0.0 {
            busy.as_secs_f64() / total
        } else {
            0.0
        },
        breaker_opens: service.breaker_opens(),
        epochs,
    }
}

/// The borrowed attempt plan of one run.
struct Drive<'a> {
    arrivals: &'a [Arrival],
    schedule: &'a [(SimTime, usize)],
    payloads: &'a [Matrix],
    policy: RetryPolicy,
    epochs: u64,
    end: SimTime,
}

/// Mutable run state threaded through attempt processing.
struct DriveState {
    service: NpuService,
    tickets: Vec<RequestTicket>,
    epochs: Vec<MetricsSnapshot>,
    attempts: u64,
    next_epoch: u64,
    next_seq: u64,
}

impl DriveState {
    fn new(service: NpuService, drive: &Drive) -> Self {
        DriveState {
            service,
            tickets: Vec::new(),
            epochs: Vec::new(),
            attempts: 0,
            next_epoch: 1,
            next_seq: drive.schedule.len() as u64,
        }
    }
}

/// Processes one attempt — cuts the metric epochs the schedule crossed,
/// submits, and on a retryable rejection returns the follow-up attempt
/// to enqueue.
fn process_attempt(drive: &Drive, state: &mut DriveState, attempt: Attempt) -> Option<Attempt> {
    while state.next_epoch <= drive.epochs {
        let boundary = SimTime::from_nanos(state.next_epoch * METRIC_EPOCH.as_nanos());
        if attempt.at < boundary {
            break;
        }
        state.service.run_until(boundary);
        let snapshot = state.service.epoch_metrics(boundary);
        state.epochs.push(snapshot);
        state.next_epoch += 1;
    }
    let arrival = drive.arrivals[attempt.arrival];
    let opts = SubmitOptions {
        client: arrival.client,
        deadline: Some(attempt.at + arrival.deadline),
        hold: arrival.hold,
    };
    state.attempts += 1;
    match state
        .service
        .submit_with(&drive.payloads[attempt.arrival], attempt.at, opts)
    {
        Ok(ticket) => {
            state.tickets.push(ticket);
            None
        }
        Err(err) => {
            if err.retry_class() == RetryClass::Retryable
                && attempt.retry < drive.policy.max_attempts
            {
                let retry = attempt.retry + 1;
                // Seeded from the attempt's own heap sequence number, so
                // simultaneous attempts draw independent jitter.
                let seed = arrival.client.value() ^ attempt.at.as_nanos() ^ attempt.seq;
                let backoff = drive.policy.backoff(retry, err.retry_after(), seed);
                state.service.record_retry();
                let next = Attempt {
                    at: attempt.at + backoff,
                    seq: state.next_seq,
                    arrival: attempt.arrival,
                    retry,
                };
                state.next_seq += 1;
                Some(next)
            } else {
                None
            }
        }
    }
}

/// Final flush plus the trailing epoch cuts past the last attempt. The
/// cut-after-flush order matters for `MetricsSnapshot` equality.
fn finish_epochs(drive: &Drive, state: &mut DriveState) {
    state.service.flush(drive.end);
    while state.next_epoch <= drive.epochs {
        let boundary = SimTime::from_nanos(state.next_epoch * METRIC_EPOCH.as_nanos());
        let snapshot = state.service.epoch_metrics(boundary);
        state.epochs.push(snapshot);
        state.next_epoch += 1;
    }
}

/// Drains the `(at, seq)`-ordered attempt heap, then cuts the trailing
/// epochs.
fn drive_attempts(service: NpuService, drive: &Drive) -> DriveState {
    let mut state = DriveState::new(service, drive);
    let mut queue: BinaryHeap<Attempt> = drive
        .schedule
        .iter()
        .enumerate()
        .map(|(seq, &(at, arrival))| Attempt {
            at,
            seq: seq as u64,
            arrival,
            retry: 0,
        })
        .collect();
    while let Some(attempt) = queue.pop() {
        if let Some(retry) = process_attempt(drive, &mut state, attempt) {
            queue.push(retry);
        }
    }
    finish_epochs(drive, &mut state);
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OverloadConfig {
        OverloadConfig {
            epochs: 5,
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn overload_invariants_hold_at_10x() {
        let report = run(&quick());
        // The service absorbed a 10x storm without losing or serving-late
        // a single admitted request.
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.served + report.expired, report.admitted);
        // Overload is shed, boundedly: plenty turned away, but the pool
        // keeps serving.
        assert!(report.shed > 0, "10x overload must shed");
        assert!(report.shed_rate < 1.0, "shedding everything serves nobody");
        assert!(report.served > 0);
        assert!(report.attempts > report.admitted);
        assert_eq!(report.epochs.len(), 5);
    }

    #[test]
    fn fault_storm_keeps_the_invariants() {
        let config = OverloadConfig {
            fault_storm: true,
            ..quick()
        };
        let report = run(&config);
        assert_eq!(report.deadline_misses, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.served + report.expired, report.admitted);
        assert!(report.served > 0);
        assert!(report.breaker_opens > 0, "a storm must trip the breaker");
    }

    #[test]
    fn report_is_bit_identical_across_budgets() {
        let serial = run(&quick());
        let parallel = run(&OverloadConfig {
            budget: par::Budget::with_threads(4),
            ..quick()
        });
        // Budgets differ in the config, never in the results.
        assert_eq!(serial.attempts, parallel.attempts);
        assert_eq!(serial.admitted, parallel.admitted);
        assert_eq!(serial.served, parallel.served);
        assert_eq!(serial.epochs, parallel.epochs);
        assert_eq!(serial.p99_queue_wait, parallel.p99_queue_wait);
    }
}
