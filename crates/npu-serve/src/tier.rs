//! Hierarchical failover: per-rack services → regional tier → local CPU.
//!
//! A datacenter fleet does not talk to one shared service — each rack
//! runs its own [`NpuService`], and a larger **regional** service backs
//! all racks. [`TieredService`] extends the existing retry → breaker →
//! CPU ladder *across tiers*:
//!
//! 1. **Per-rack primary.** A request is routed to its home rack unless
//!    the rack is partitioned, suspected dead, or its tier breaker is
//!    open — in which case it fails over to the regional tier at submit
//!    time.
//! 2. **Heartbeat failure detector.** Racks emit heartbeats in virtual
//!    time every [`TierConfig::heartbeat_interval`]; a rack silent for
//!    longer than [`TierConfig::heartbeat_timeout`] is *suspected* at the
//!    exact virtual instant `last_beat + timeout`, its tier breaker trips,
//!    and new submissions fail over. The first heartbeat after silence
//!    clears the suspicion and puts the breaker into half-open probation.
//! 3. **Hedged requests.** Every rack-routed request arms a hedge at
//!    `submit + hedge_timeout()`, where the timeout is derived from the
//!    p-quantile ([`TierConfig::hedge_quantile`], default p99) of recent
//!    rack latencies (never below [`TierConfig::hedge_min`]). The window
//!    only changes at a flush, so the timeout is computed once per flush
//!    and every submit reads the stored value. If the rack reply has not
//!    completed by then, a duplicate fires to the regional tier and the
//!    earlier completion wins. Hedge decisions are made retrospectively
//!    at the barrier but use only information available at the hedge
//!    instant, so deciding late never changes a decision.
//! 4. **Per-tier circuit breakers.** One breaker per rack plus one for
//!    the regional tier, above the per-device breakers inside each
//!    service. A suspected rack trips its breaker ([`CircuitBreaker::
//!    trip`]); a recovered rack re-enters through half-open probation.
//! 5. **Local CPU last rung.** When the rack and regional rungs are both
//!    unavailable (or failed), the board computes locally on its CPU.
//!    A reply is only delivered if it meets the deadline; otherwise the
//!    request resolves as a typed failure — the tier never delivers a
//!    late reply.
//!
//! The tier runs in virtual time like the services it owns: `submit`
//! carries explicit timestamps (nondecreasing per tier), and `flush`
//! advances everything to a barrier, after which every submitted request
//! has exactly one outcome (request conservation — checked, with every
//! other tier invariant, by [`crate::TierChecker`]).

use std::sync::Arc;

use faults::{BreakerState, CircuitBreaker, FleetFault};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu::{CpuInference, NpuModel};
use topil::ClientReply;

use crate::limiter::ClientId;
use crate::quantile::nearest_rank;
use crate::ring::TicketRing;
use crate::service::SubmitOptions;
use crate::{ConfigError, NpuService, RequestTicket, ServeConfig, ServeError};

/// Configuration of a [`TieredService`].
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Number of rack-level services.
    pub racks: usize,
    /// Configuration of each rack service.
    pub rack_serve: ServeConfig,
    /// Configuration of the regional service.
    pub regional_serve: ServeConfig,
    /// Virtual-time spacing of rack heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Silence longer than this marks a rack suspected.
    pub heartbeat_timeout: SimDuration,
    /// Floor of the hedge timeout (the p99 estimate never hedges
    /// earlier than this).
    pub hedge_min: SimDuration,
    /// Latency quantile deriving the hedge timeout (e.g. `0.99`).
    pub hedge_quantile: f64,
    /// How many recent rack latencies feed the quantile estimate.
    pub hedge_window: usize,
    /// Consecutive failures opening a tier breaker.
    pub breaker_threshold: u32,
    /// Cooldown (in barriers) of an open tier breaker.
    pub breaker_cooldown: u32,
    /// Round-trip network penalty of reaching the regional tier (the
    /// rack→regional backbone, modelled by the embedder). Added to every
    /// regional completion; hedges and failovers that cannot beat their
    /// deadline across this RTT are routed straight to the CPU rung.
    /// Zero (the default) preserves the network-oblivious behaviour.
    pub regional_rtt: SimDuration,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            racks: 4,
            rack_serve: ServeConfig::default(),
            regional_serve: ServeConfig::default(),
            heartbeat_interval: SimDuration::from_millis(50),
            heartbeat_timeout: SimDuration::from_millis(160),
            hedge_min: SimDuration::from_millis(1),
            hedge_quantile: 0.99,
            hedge_window: 256,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            regional_rtt: SimDuration::ZERO,
        }
    }
}

impl TierConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.racks == 0 {
            return Err(ConfigError::ZeroRacks);
        }
        if self.heartbeat_interval.is_zero() || self.heartbeat_timeout < self.heartbeat_interval {
            return Err(ConfigError::InvalidHeartbeat);
        }
        if !(0.0..=1.0).contains(&self.hedge_quantile) || self.hedge_window == 0 {
            return Err(ConfigError::InvalidHedge);
        }
        self.rack_serve.validate()?;
        self.regional_serve.validate()
    }
}

/// Which rung ultimately served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// The home rack's service.
    Rack(usize),
    /// The regional tier (failover or winning hedge).
    Regional,
    /// The board's own CPU (last rung).
    LocalCpu,
}

/// A reply from the tiered ladder. Never late: `completed_at` is at or
/// before the request deadline whenever one was set.
#[derive(Debug, Clone)]
pub struct TierReply {
    /// Rating matrix.
    pub output: Matrix,
    /// Wall latency from submission to the winning completion.
    pub latency: SimDuration,
    /// When the winning rung completed.
    pub completed_at: SimTime,
    /// The winning rung.
    pub served_by: ServedBy,
    /// Whether a hedge fired for this request.
    pub hedged: bool,
    /// Whether the hedge (not the primary) won the race.
    pub hedge_won: bool,
    /// Whether the request failed over away from its home rack at
    /// submission (partition, suspicion, open breaker, or admission
    /// rejection).
    pub failed_over: bool,
}

/// Terminal outcome of a tier request: a reply, or a typed failure when
/// no rung could meet the deadline.
#[derive(Debug, Clone)]
pub enum TierOutcome {
    /// Served within the deadline.
    Reply(TierReply),
    /// No rung could serve in time; carries the decisive error.
    Failed(ServeError),
}

/// Handle of a tier submission; redeem with
/// [`TieredService::take_outcome`] (or [`TieredService::take_filed`])
/// after a [`TieredService::flush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TierTicket(u64);

/// Per-submission options of [`TieredService::submit`].
#[derive(Debug, Clone, Copy)]
pub struct TierSubmit {
    /// Home rack of the submitting board.
    pub rack: usize,
    /// Submitting client identity (rate-limit key inside the services).
    pub client: ClientId,
    /// Absolute completion deadline.
    pub deadline: Option<SimTime>,
}

/// A breaker scope in the tier topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TierScope {
    /// The breaker guarding rack `0..racks`.
    Rack(usize),
    /// The breaker guarding the regional tier.
    Regional,
}

/// One observed tier-breaker transition, for the [`crate::TierChecker`]
/// (which asserts every transition is an edge of the breaker FSM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierTransition {
    /// Virtual time of the transition. Charge and cooldown moves are
    /// barrier-quantized (outcomes materialize at the flush); detector
    /// trips, recoveries and probation entries carry exact instants. Per
    /// scope, transition times never decrease.
    pub at: SimTime,
    /// Which breaker moved.
    pub scope: TierScope,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// Whether this was a rejoin probation entry (the one legal edge
    /// into half-open that does not come from a cooldown).
    pub probation: bool,
}

/// Counters of the tiered ladder.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierStats {
    /// Requests submitted to the tier.
    pub submitted: u64,
    /// Requests resolved with a reply.
    pub replies: u64,
    /// Requests resolved as typed failures.
    pub failed: u64,
    /// Replies served by the home rack.
    pub rack_served: u64,
    /// Replies served by the regional tier.
    pub regional_served: u64,
    /// Replies served by the local CPU rung.
    pub cpu_served: u64,
    /// Submissions that failed over away from their home rack.
    pub failovers: u64,
    /// Hedges fired to the regional tier.
    pub hedges: u64,
    /// Hedges that won their race.
    pub hedge_wins: u64,
    /// Hedges suppressed because the regional round trip could not beat
    /// the deadline, or the regional tier was down (network-aware
    /// feasibility; zero when [`TierConfig::regional_rtt`] is zero and
    /// no outage is injected).
    pub hedges_infeasible: u64,
    /// Heartbeats emitted by racks.
    pub heartbeats: u64,
    /// Racks declared suspected by the failure detector.
    pub suspects: u64,
    /// Suspicions cleared by a returning heartbeat.
    pub recoveries: u64,
    /// Sum of detection latencies (silence start → suspicion instant).
    pub detection_latency_total: SimDuration,
    /// Largest single detection latency.
    pub detection_latency_max: SimDuration,
}

/// Where a pending request's primary attempt went.
#[derive(Debug, Clone, Copy)]
enum Primary {
    Rack(RequestTicket),
    Regional,
    Cpu,
}

#[derive(Debug)]
struct PendingRequest {
    id: u64,
    rack: usize,
    /// The payload; `None` while a service holds it (it comes back with
    /// that service's outcome).
    rows: Option<Matrix>,
    submit_at: SimTime,
    deadline: Option<SimTime>,
    client: ClientId,
    /// Armed hedge instant (rack-routed requests only).
    hedge_at: Option<SimTime>,
    primary: Primary,
    failed_over: bool,
}

/// A pending request and its walk down the ladder at the next flush.
#[derive(Debug)]
struct Ladder {
    pending: PendingRequest,
    /// Successful rack completion `(output, completed_at)`.
    rack_reply: Option<(Matrix, SimTime)>,
    /// When the rack rung was given up on (hedge instant or submit
    /// instant for direct failovers).
    handover_at: SimTime,
    hedged: bool,
    regional: Option<RequestTicket>,
    /// When the regional submission was made (if any).
    regional_at: SimTime,
}

impl Ladder {
    /// A request that has not been resolved yet.
    fn new(pending: PendingRequest) -> Self {
        Ladder {
            handover_at: pending.submit_at,
            rack_reply: None,
            hedged: false,
            regional: None,
            regional_at: pending.submit_at,
            pending,
        }
    }
}

/// Buffers of [`TieredService::resolve_pending`], empty between flushes.
/// A saturated rack resolves thousands of requests per flush; held by
/// the service, these stay allocated instead of being mapped afresh by
/// every flush.
#[derive(Debug, Default)]
struct ResolveScratch {
    /// Regional submissions `(at, ladder index)`: they must reach the
    /// service in nondecreasing time order, so they are collected,
    /// sorted, submitted, and then flushed once.
    regional_submits: Vec<(SimTime, usize)>,
    /// The latency window in order, for the hedge quantile.
    sorted_window: Vec<SimDuration>,
}

#[derive(Debug)]
struct RackSlot {
    service: NpuService,
    breaker: CircuitBreaker,
    partitioned: bool,
    silent: bool,
    silent_since: SimTime,
    /// When the last silence ended (ticks before this stay suppressed).
    resume_at: SimTime,
    suspected: bool,
    /// Next heartbeat tick to evaluate.
    beat_cursor: SimTime,
    /// Last heartbeat actually heard.
    last_beat: SimTime,
}

/// The two-tier failover ladder. See the module docs for the routing
/// rules.
#[derive(Debug)]
pub struct TieredService {
    config: TierConfig,
    racks: Vec<RackSlot>,
    regional: NpuService,
    regional_breaker: CircuitBreaker,
    mlp: Arc<Mlp>,
    cpu: CpuInference,
    macs: usize,
    /// Regional latency multiplier in thousandths (slow-tier fault).
    slow_milli: u32,
    /// Regional outage fault: the backbone to the regional tier is cut,
    /// so failovers and hedges go straight to the CPU rung.
    regional_down: bool,
    /// Recent successful rack latencies, for the hedge quantile.
    latency_window: Vec<SimDuration>,
    /// Hedge timeout derived from `latency_window` at the last flush.
    hedge_timeout: SimDuration,
    /// Requests submitted since the last flush, in submission order.
    /// The flush resolves them in place and leaves the buffer empty.
    pending: Vec<Ladder>,
    resolve: ResolveScratch,
    /// Each request's outcome, filed with the payload it was submitted
    /// with.
    outcomes: TicketRing<(TierOutcome, Matrix)>,
    transitions: Vec<TierTransition>,
    stats: TierStats,
    clock: SimTime,
    next_id: u64,
}

impl TieredService {
    /// Builds the topology: `config.racks` rack services plus one
    /// regional service, all running one model compiled from `mlp`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`TieredService::try_new`] to handle the error.
    pub fn new(mlp: &Mlp, config: TierConfig) -> Self {
        match Self::try_new(mlp, config) {
            Ok(tier) => tier,
            Err(err) => panic!("invalid tier configuration: {err}"),
        }
    }

    /// Fallible constructor.
    pub fn try_new(mlp: &Mlp, config: TierConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        // One compiled policy serves every service of the tier.
        let model = Arc::new(NpuModel::compile(mlp));
        let mlp = Arc::new(mlp.clone());
        let service = |serve| NpuService::with_model(Arc::clone(&model), Arc::clone(&mlp), serve);
        let racks = (0..config.racks)
            .map(|_| {
                Ok(RackSlot {
                    service: service(config.rack_serve)?,
                    breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
                    partitioned: false,
                    silent: false,
                    silent_since: SimTime::ZERO,
                    resume_at: SimTime::ZERO,
                    suspected: false,
                    beat_cursor: SimTime::ZERO,
                    last_beat: SimTime::ZERO,
                })
            })
            .collect::<Result<_, ConfigError>>()?;
        Ok(TieredService {
            regional: service(config.regional_serve)?,
            regional_breaker: CircuitBreaker::new(
                config.breaker_threshold,
                config.breaker_cooldown,
            ),
            racks,
            macs: mlp.macs(),
            mlp,
            cpu: CpuInference::cortex_a73(),
            slow_milli: 1000,
            regional_down: false,
            latency_window: Vec::new(),
            hedge_timeout: config.hedge_min,
            pending: Vec::new(),
            resolve: ResolveScratch::default(),
            outcomes: TicketRing::default(),
            transitions: Vec::new(),
            stats: TierStats::default(),
            clock: SimTime::ZERO,
            next_id: 0,
            config,
        })
    }

    /// The tier configuration.
    pub fn config(&self) -> &TierConfig {
        &self.config
    }

    /// Tier counters.
    pub fn stats(&self) -> &TierStats {
        &self.stats
    }

    /// Current hedge timeout: `max(hedge_min, q-quantile of the recent
    /// rack latencies)`, as of the last flush (`hedge_min` before the
    /// first).
    pub fn hedge_timeout(&self) -> SimDuration {
        self.hedge_timeout
    }

    /// Trims the latency window to its last `hedge_window` entries and
    /// re-derives the hedge timeout with [`nearest_rank`].
    fn refresh_hedge_timeout(&mut self) {
        let excess = self
            .latency_window
            .len()
            .saturating_sub(self.config.hedge_window);
        self.latency_window.drain(..excess);
        let sorted = &mut self.resolve.sorted_window;
        sorted.clear();
        sorted.extend_from_slice(&self.latency_window);
        sorted.sort_unstable();
        if let Some(quantile) = nearest_rank(sorted, self.config.hedge_quantile) {
            self.hedge_timeout = quantile.max(self.config.hedge_min);
        }
    }

    /// State of a tier breaker.
    pub fn breaker_state(&self, scope: TierScope) -> BreakerState {
        match scope {
            TierScope::Rack(i) => self.racks[i].breaker.state(),
            TierScope::Regional => self.regional_breaker.state(),
        }
    }

    /// Whether the failure detector currently suspects `rack`.
    pub fn suspected(&self, rack: usize) -> bool {
        self.racks[rack].suspected
    }

    /// Drains the observed tier-breaker transitions.
    pub fn drain_transitions(&mut self) -> Vec<TierTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// Sum of breaker opens across every rung (device breakers inside
    /// the services plus the tier breakers).
    pub fn breaker_opens(&self) -> u64 {
        let device: u64 = self
            .racks
            .iter()
            .map(|r| r.service.breaker_opens())
            .sum::<u64>()
            + self.regional.breaker_opens();
        let tier: u64 = self.racks.iter().map(|r| r.breaker.opens()).sum::<u64>()
            + self.regional_breaker.opens();
        device + tier
    }

    // ---- fault hooks (driven by a fleet fault schedule) ----

    /// Partitions (or heals) `rack` from the regional tier. Partitioned
    /// racks are bypassed at submit time.
    pub fn set_partitioned(&mut self, rack: usize, partitioned: bool) {
        self.racks[rack].partitioned = partitioned;
    }

    /// Silences (or restores) `rack`'s heartbeats from `at` on. The
    /// service stays healthy — only the failure detector goes blind.
    pub fn set_heartbeat_silent(&mut self, rack: usize, silent: bool, at: SimTime) {
        let slot = &mut self.racks[rack];
        if silent && !slot.silent {
            slot.silent_since = at;
        }
        if !silent && slot.silent {
            slot.resume_at = at;
        }
        slot.silent = silent;
    }

    /// Multiplies regional-tier latency by `factor_milli / 1000`
    /// (1000 restores nominal speed).
    pub fn set_tier_slowdown(&mut self, factor_milli: u32) {
        self.slow_milli = factor_milli.max(1);
    }

    /// Cuts (or restores) the backbone to the regional tier, as during a
    /// regional outage storm: while down, failovers and hedges skip the
    /// regional rung and go straight to the CPU, without charging the
    /// regional breaker (an unreachable tier is not a failing tier).
    pub fn set_regional_down(&mut self, down: bool) {
        self.regional_down = down;
    }

    /// Whether the backbone to the regional tier is currently cut.
    pub fn regional_down(&self) -> bool {
        self.regional_down
    }

    /// Puts `rack`'s tier breaker into half-open probation, as when its
    /// board rejoins after a crash.
    pub fn begin_rack_probation(&mut self, rack: usize, at: SimTime) {
        let from = self.racks[rack].breaker.state();
        self.racks[rack].breaker.begin_probation();
        self.record_transition(at, TierScope::Rack(rack), from, true);
    }

    /// Applies one scheduled fleet fault at `at`. Boards and racks map
    /// onto this tier's racks modulo its rack count (boards round-robin,
    /// as the harnesses route them); the tier models a single region,
    /// so a regional outage or restore cuts or restores its one
    /// backbone whatever region it names.
    pub fn apply_fault(&mut self, fault: FleetFault, at: SimTime) {
        let racks = self.racks.len();
        match fault {
            // A crashed board simply stops submitting; its rejoin puts
            // the rack breaker on probation.
            FleetFault::BoardCrash { .. } => {}
            FleetFault::BoardRejoin { board } => self.begin_rack_probation(board % racks, at),
            FleetFault::RackPartition { rack } => self.set_partitioned(rack % racks, true),
            FleetFault::RackHeal { rack } => self.set_partitioned(rack % racks, false),
            FleetFault::HeartbeatLoss { rack } => self.set_heartbeat_silent(rack % racks, true, at),
            FleetFault::HeartbeatRestore { rack } => {
                self.set_heartbeat_silent(rack % racks, false, at);
            }
            FleetFault::TierSlow { factor_milli } => self.set_tier_slowdown(factor_milli),
            FleetFault::TierRecover => self.set_tier_slowdown(1_000),
            FleetFault::RegionOutage { .. } => self.set_regional_down(true),
            FleetFault::RegionRestore { .. } => self.set_regional_down(false),
        }
    }

    // ---- request path ----

    /// Submits one request at `now` (nondecreasing across calls between
    /// flushes). Routing happens here; the outcome materializes at the
    /// next [`TieredService::flush`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidInput`] for an empty payload, a payload whose
    /// width is not the policy's input width, or a rack index the tier
    /// does not have.
    pub fn submit(
        &mut self,
        rows: Matrix,
        now: SimTime,
        opts: TierSubmit,
    ) -> Result<TierTicket, ServeError> {
        if rows.rows() == 0 {
            return Err(ServeError::InvalidInput {
                reason: "empty request",
            });
        }
        if rows.cols() != self.mlp.input_size() {
            return Err(ServeError::InvalidInput {
                reason: "input width mismatch",
            });
        }
        if opts.rack >= self.racks.len() {
            return Err(ServeError::InvalidInput {
                reason: "rack index out of range",
            });
        }
        self.clock = self.clock.max(now);
        self.stats.submitted += 1;
        let id = self.next_id;
        self.next_id += 1;

        let rack_usable = {
            let slot = &self.racks[opts.rack];
            !slot.partitioned && !slot.suspected && slot.breaker.state() != BreakerState::Open
        };
        let hedge_timeout = self.hedge_timeout;
        let mut failed_over = false;
        let mut payload = None;
        let primary = if rack_usable {
            let submit = self.racks[opts.rack].service.submit_owned(
                rows,
                now,
                SubmitOptions {
                    client: opts.client,
                    deadline: opts.deadline,
                    hold: SimDuration::ZERO,
                },
            );
            match submit {
                Ok(ticket) => Primary::Rack(ticket),
                // Admission rejection (shed, rate limit, infeasible
                // deadline) is back-pressure, not a rack failure: fail
                // over without charging the tier breaker.
                Err((_, rows)) => {
                    payload = Some(rows);
                    failed_over = true;
                    self.regional_or_cpu(now, opts.deadline)
                }
            }
        } else {
            payload = Some(rows);
            failed_over = true;
            self.regional_or_cpu(now, opts.deadline)
        };
        if failed_over {
            self.stats.failovers += 1;
        }
        let hedge_at = match primary {
            Primary::Rack(_) => Some(now + hedge_timeout),
            _ => None,
        };
        self.pending.push(Ladder::new(PendingRequest {
            id,
            rack: opts.rack,
            rows: payload,
            submit_at: now,
            deadline: opts.deadline,
            client: opts.client,
            hedge_at,
            primary,
            failed_over,
        }));
        Ok(TierTicket(id))
    }

    /// Failover target below the rack rung: the regional tier when it is
    /// reachable and a completion can still cross the backbone before
    /// the deadline, else the local CPU.
    fn regional_or_cpu(&self, now: SimTime, deadline: Option<SimTime>) -> Primary {
        if self.regional_down || self.regional_breaker.state() == BreakerState::Open {
            return Primary::Cpu;
        }
        let rtt = self.config.regional_rtt;
        if !rtt.is_zero() {
            if let Some(deadline) = deadline {
                // Even a zero-service-time regional reply lands at
                // `now + rtt`: past the deadline, the round trip is
                // wasted work and the CPU rung is the only feasible one.
                if now + rtt > deadline {
                    return Primary::Cpu;
                }
            }
        }
        Primary::Regional
    }

    /// Outcome slots the tier is holding, redeemed or not (memory bound
    /// of the redemption path).
    #[cfg(test)]
    fn resident_outcomes(&self) -> usize {
        self.outcomes.resident()
    }

    /// Buffers the tier's services hold for reuse.
    #[cfg(test)]
    fn spare_buffers(&self) -> usize {
        let racks: usize = self.racks.iter().map(|r| r.service.spare_buffers()).sum();
        racks + self.regional.spare_buffers()
    }

    /// Redeems a ticket after a flush.
    pub fn take_outcome(&mut self, ticket: TierTicket) -> Option<TierOutcome> {
        self.take_filed(ticket).map(|(outcome, _)| outcome)
    }

    /// [`TieredService::take_outcome`], handing back the request's
    /// payload with its outcome, so the caller can refill it for a later
    /// request.
    pub fn take_filed(&mut self, ticket: TierTicket) -> Option<(TierOutcome, Matrix)> {
        self.outcomes.take_if(ticket.0, |_| true)
    }

    /// Hands a redeemed reply's output back to the rung that filed it,
    /// for a later reply to reuse instead of allocating its own. Each
    /// service keeps only the outputs it filed, so what it holds is
    /// bounded by its replies in flight; a local-CPU output is dropped.
    pub fn recycle(&mut self, reply: TierReply) {
        match reply.served_by {
            ServedBy::Rack(rack) => self.racks[rack].service.recycle_output(reply.output),
            ServedBy::Regional => self.regional.recycle_output(reply.output),
            ServedBy::LocalCpu => {}
        }
    }

    // ---- barrier advance ----

    /// Advances the tier to `barrier`: heartbeats and the failure
    /// detector, tier-breaker cooldowns, every owned service, hedges and
    /// the CPU last rung. Afterwards every submitted request has exactly
    /// one outcome.
    pub fn flush(&mut self, barrier: SimTime) {
        self.clock = self.clock.max(barrier);
        self.advance_detector(barrier);
        self.advance_breaker_cooldowns(barrier);
        for rack in &mut self.racks {
            rack.service.flush(barrier);
        }
        self.resolve_pending(barrier);
    }

    /// Replays heartbeat ticks up to `now` and updates suspicion.
    fn advance_detector(&mut self, now: SimTime) {
        let interval = self.config.heartbeat_interval;
        let timeout = self.config.heartbeat_timeout;
        for (i, slot) in self.racks.iter_mut().enumerate() {
            while slot.beat_cursor <= now {
                let tick = slot.beat_cursor;
                slot.beat_cursor += interval;
                // Silence applies from its exact start instant, and
                // recovery from its exact end — the flags are set at
                // barriers but the tick replay honors the instants.
                let suppressed = if slot.silent {
                    tick >= slot.silent_since
                } else {
                    tick < slot.resume_at && tick >= slot.silent_since
                };
                if suppressed {
                    continue;
                }
                self.stats.heartbeats += 1;
                slot.last_beat = tick;
                if slot.suspected {
                    // First heartbeat after silence: recover through
                    // half-open probation.
                    slot.suspected = false;
                    self.stats.recoveries += 1;
                    let from = slot.breaker.state();
                    slot.breaker.begin_probation();
                    if from != BreakerState::HalfOpen {
                        self.transitions.push(TierTransition {
                            at: tick,
                            scope: TierScope::Rack(i),
                            from,
                            to: BreakerState::HalfOpen,
                            probation: true,
                        });
                    }
                }
            }
            if !slot.suspected && now.since(slot.last_beat) > timeout {
                // Suspected at the exact instant the timeout elapsed.
                let detected_at = slot.last_beat + timeout;
                slot.suspected = true;
                self.stats.suspects += 1;
                let detection = detected_at.since(slot.silent_since.min(detected_at));
                self.stats.detection_latency_total += detection;
                self.stats.detection_latency_max = self.stats.detection_latency_max.max(detection);
                let from = slot.breaker.state();
                slot.breaker.trip();
                if from != BreakerState::Open {
                    self.transitions.push(TierTransition {
                        at: detected_at,
                        scope: TierScope::Rack(i),
                        from,
                        to: BreakerState::Open,
                        probation: false,
                    });
                }
            }
        }
    }

    fn advance_breaker_cooldowns(&mut self, at: SimTime) {
        for i in 0..self.racks.len() {
            // A suspected rack stays fenced: its breaker reopens on the
            // next detector pass anyway, so skip the cooldown while the
            // detector still suspects it.
            if self.racks[i].suspected {
                continue;
            }
            let from = self.racks[i].breaker.state();
            if self.racks[i].breaker.epoch_elapsed() {
                self.transitions.push(TierTransition {
                    at,
                    scope: TierScope::Rack(i),
                    from,
                    to: BreakerState::HalfOpen,
                    probation: false,
                });
            }
        }
        let from = self.regional_breaker.state();
        if self.regional_breaker.epoch_elapsed() {
            self.transitions.push(TierTransition {
                at,
                scope: TierScope::Regional,
                from,
                to: BreakerState::HalfOpen,
                probation: false,
            });
        }
    }

    fn record_transition(
        &mut self,
        at: SimTime,
        scope: TierScope,
        from: BreakerState,
        probation: bool,
    ) {
        let to = match scope {
            TierScope::Rack(i) => self.racks[i].breaker.state(),
            TierScope::Regional => self.regional_breaker.state(),
        };
        if from != to {
            self.transitions.push(TierTransition {
                at,
                scope,
                from,
                to,
                probation,
            });
        }
    }

    /// Scales a regional latency by the slow-tier factor.
    fn scale_regional(&self, latency: SimDuration) -> SimDuration {
        SimDuration::from_nanos(
            ((latency.as_nanos() as u128 * self.slow_milli as u128) / 1000) as u64,
        )
    }

    /// Resolution of one pending request after the rack rung.
    fn resolve_pending(&mut self, barrier: SimTime) {
        // The flush's buffers are the service's: taken here and handed
        // back empty, so their capacity outlives the flush.
        let mut ladders = std::mem::take(&mut self.pending);
        let mut regional_submits = std::mem::take(&mut self.resolve.regional_submits);
        // Phase 1: rack outcomes, hedge decisions, regional submissions.
        for (idx, ladder) in ladders.iter_mut().enumerate() {
            match ladder.pending.primary {
                Primary::Rack(ticket) => {
                    let hedge_at = ladder.pending.hedge_at.expect("rack primaries arm a hedge");
                    let slot = &mut self.racks[ladder.pending.rack];
                    let (outcome, rows) = slot
                        .service
                        .take_filed(ticket)
                        .expect("a flushed rack resolves every ticket");
                    ladder.pending.rows = Some(rows);
                    let mut rack_failed_at: Option<SimTime> = None;
                    match outcome {
                        Ok(ClientReply {
                            output: Some(output),
                            latency,
                            jobs,
                            ..
                        }) => {
                            slot.service.recycle_jobs(jobs);
                            let completed = ladder.pending.submit_at + latency;
                            self.latency_window.push(latency);
                            // A suspected rack's breaker belongs to the
                            // failure detector: an in-flight success from
                            // before the silence is stale evidence and
                            // must not close it.
                            if !slot.suspected {
                                let from = slot.breaker.state();
                                slot.breaker.record_success();
                                self.record_transition(
                                    barrier,
                                    TierScope::Rack(ladder.pending.rack),
                                    from,
                                    false,
                                );
                            }
                            ladder.rack_reply = Some((output, completed));
                        }
                        Ok(_) | Err(_) => {
                            // A fail-fast error (or a reply with no
                            // output) is a rack-rung failure.
                            let at = match outcome {
                                Err(ServeError::DeadlineExceeded { at, .. }) => at,
                                _ => barrier,
                            };
                            rack_failed_at = Some(at);
                            if !slot.suspected {
                                let from = slot.breaker.state();
                                slot.breaker.record_failure();
                                self.record_transition(
                                    barrier,
                                    TierScope::Rack(ladder.pending.rack),
                                    from,
                                    false,
                                );
                            }
                        }
                    }
                    // Hedge decision: at `hedge_at` the reply had not
                    // arrived (completion later, or it never will).
                    let hedge_needed = match (&ladder.rack_reply, rack_failed_at) {
                        (Some((_, completed)), _) => *completed > hedge_at,
                        (None, _) => true,
                    };
                    if hedge_needed {
                        let rtt = self.config.regional_rtt;
                        // Network-aware hedge feasibility: a duplicate
                        // that cannot cross the backbone and return
                        // before the deadline (or reach a downed
                        // regional tier at all) is never fired.
                        let infeasible = self.regional_down
                            || (!rtt.is_zero()
                                && ladder
                                    .pending
                                    .deadline
                                    .is_some_and(|deadline| hedge_at + rtt > deadline));
                        if infeasible {
                            self.stats.hedges_infeasible += 1;
                            ladder.handover_at = match rack_failed_at {
                                Some(at) => at.max(hedge_at),
                                None => hedge_at,
                            };
                        } else if self.regional_breaker.state() != BreakerState::Open {
                            ladder.hedged = true;
                            ladder.handover_at = hedge_at;
                            self.stats.hedges += 1;
                            regional_submits.push((hedge_at, idx));
                        } else {
                            // Regional rung fenced: hand straight to the
                            // CPU rung at the instant the rack was given
                            // up on.
                            ladder.handover_at = match rack_failed_at {
                                Some(at) => at.max(hedge_at),
                                None => hedge_at,
                            };
                        }
                    }
                }
                Primary::Regional => {
                    regional_submits.push((ladder.pending.submit_at, idx));
                }
                Primary::Cpu => {}
            }
        }
        self.refresh_hedge_timeout();

        // Phase 2: regional rung.
        // The keys are unique, so the unstable sort gives the stable order.
        regional_submits.sort_unstable_by_key(|&(at, idx)| (at, idx));
        for (at, idx) in regional_submits.drain(..) {
            let ladder = &mut ladders[idx];
            let rows = ladder.pending.rows.take().expect("payload is home");
            let submit = self.regional.submit_owned(
                rows,
                at,
                SubmitOptions {
                    client: ladder.pending.client,
                    deadline: ladder.pending.deadline,
                    hold: SimDuration::ZERO,
                },
            );
            match submit {
                Ok(ticket) => {
                    ladder.regional = Some(ticket);
                    ladder.regional_at = at;
                }
                Err((_, rows)) => {
                    // Regional admission rejected: the CPU rung takes
                    // over from the rejection instant.
                    ladder.pending.rows = Some(rows);
                    ladder.handover_at = ladder.handover_at.max(at);
                }
            }
        }
        self.regional.flush(barrier);

        self.resolve.regional_submits = regional_submits;

        // Phase 3: race resolution and the CPU last rung.
        for ladder in ladders.drain(..) {
            let Ladder {
                mut pending,
                rack_reply,
                mut handover_at,
                hedged,
                regional,
                regional_at,
            } = ladder;
            let regional_reply: Option<(Matrix, SimTime)> = regional.and_then(|ticket| {
                let (outcome, rows) = self
                    .regional
                    .take_filed(ticket)
                    .expect("a flushed regional tier resolves every ticket");
                pending.rows = Some(rows);
                match outcome {
                    Ok(ClientReply {
                        output: Some(output),
                        latency,
                        jobs,
                        ..
                    }) => {
                        self.regional.recycle_jobs(jobs);
                        // The backbone round trip rides on every
                        // regional completion, after the slow-tier
                        // scaling (the RTT is wire time, not service
                        // time).
                        let latency = self.scale_regional(latency) + self.config.regional_rtt;
                        let completed = regional_at + latency;
                        // A slow-tier-stretched completion past the
                        // deadline is a failure, never a late reply.
                        let late = pending
                            .deadline
                            .is_some_and(|deadline| completed > deadline);
                        if late {
                            handover_at = handover_at.max(completed);
                            self.regional.recycle_output(output);
                            None
                        } else {
                            Some((output, completed))
                        }
                    }
                    Err(ServeError::DeadlineExceeded { at, .. }) => {
                        handover_at = handover_at.max(at);
                        None
                    }
                    _ => None,
                }
            });
            // Charge the regional breaker once per regional attempt.
            if regional.is_some() {
                let from = self.regional_breaker.state();
                match &regional_reply {
                    Some(_) => self.regional_breaker.record_success(),
                    None => self.regional_breaker.record_failure(),
                }
                self.record_transition(barrier, TierScope::Regional, from, false);
            }

            // The race: earliest completion wins; ties go to the rack.
            // The loser's output goes back to the service that filed it.
            let outcome = match (rack_reply, regional_reply) {
                (Some((reply, rack_done)), Some((hedge, hedge_done))) => {
                    if hedge_done < rack_done {
                        self.stats.hedge_wins += 1;
                        self.racks[pending.rack].service.recycle_output(reply);
                        self.reply(
                            &pending,
                            hedge,
                            hedge_done,
                            ServedBy::Regional,
                            hedged,
                            true,
                        )
                    } else {
                        self.regional.recycle_output(hedge);
                        self.reply(
                            &pending,
                            reply,
                            rack_done,
                            ServedBy::Rack(pending.rack),
                            hedged,
                            false,
                        )
                    }
                }
                (Some((reply, rack_done)), None) => self.reply(
                    &pending,
                    reply,
                    rack_done,
                    ServedBy::Rack(pending.rack),
                    hedged,
                    false,
                ),
                (None, Some((hedge, hedge_done))) => {
                    if hedged {
                        self.stats.hedge_wins += 1;
                    }
                    self.reply(
                        &pending,
                        hedge,
                        hedge_done,
                        ServedBy::Regional,
                        hedged,
                        hedged,
                    )
                }
                (None, None) => self.cpu_rung(&pending, handover_at, hedged),
            };
            match &outcome {
                TierOutcome::Reply(reply) => {
                    self.stats.replies += 1;
                    match reply.served_by {
                        ServedBy::Rack(_) => self.stats.rack_served += 1,
                        ServedBy::Regional => self.stats.regional_served += 1,
                        ServedBy::LocalCpu => self.stats.cpu_served += 1,
                    }
                }
                TierOutcome::Failed(_) => self.stats.failed += 1,
            }
            let rows = pending.rows.expect("payload is home");
            self.outcomes.fill(pending.id, (outcome, rows));
        }
        self.pending = ladders;
    }

    fn reply(
        &self,
        pending: &PendingRequest,
        output: Matrix,
        completed_at: SimTime,
        served_by: ServedBy,
        hedged: bool,
        hedge_won: bool,
    ) -> TierOutcome {
        debug_assert!(
            pending.deadline.is_none_or(|d| completed_at <= d),
            "tier delivered a late reply"
        );
        TierOutcome::Reply(TierReply {
            output,
            latency: completed_at.since(pending.submit_at),
            completed_at,
            served_by,
            hedged,
            hedge_won,
            failed_over: pending.failed_over,
        })
    }

    /// Last rung: local CPU compute from `start`. Delivers only when the
    /// deadline holds; otherwise resolves as a typed failure.
    fn cpu_rung(&self, pending: &PendingRequest, start: SimTime, hedged: bool) -> TierOutcome {
        let rows = pending.rows.as_ref().expect("payload is home");
        let start = start.max(pending.submit_at);
        let latency = self.cpu.latency(self.macs, rows.rows());
        let completed_at = start + latency;
        if let Some(deadline) = pending.deadline {
            if completed_at > deadline {
                return TierOutcome::Failed(ServeError::DeadlineExceeded {
                    deadline,
                    at: completed_at,
                    late_by: completed_at.since(deadline),
                });
            }
        }
        TierOutcome::Reply(TierReply {
            output: self.mlp.forward_batch(rows),
            latency: completed_at.since(pending.submit_at),
            completed_at,
            served_by: ServedBy::LocalCpu,
            hedged,
            hedge_won: false,
            failed_over: pending.failed_over,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Mlp {
        let mut rng = StdRng::seed_from_u64(9);
        Mlp::with_topology(8, 4, 16, 2, &mut rng)
    }

    fn rows(mlp: &Mlp, n: usize) -> Matrix {
        Matrix::from_rows(
            (0..n)
                .map(|i| {
                    (0..mlp.input_size())
                        .map(|j| (i + j) as f32 * 0.1)
                        .collect()
                })
                .collect(),
        )
    }

    fn submit_opts(rack: usize) -> TierSubmit {
        TierSubmit {
            rack,
            client: ClientId::new(7),
            deadline: None,
        }
    }

    #[test]
    fn healthy_tier_serves_from_the_home_rack() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        let ticket = tier
            .submit(rows(&mlp, 2), SimTime::from_millis(1), submit_opts(1))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).expect("resolved") {
            TierOutcome::Reply(reply) => {
                assert_eq!(reply.served_by, ServedBy::Rack(1));
                assert!(!reply.failed_over);
                assert_eq!(reply.output.rows(), 2);
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        assert_eq!(tier.stats().rack_served, 1);
        assert_eq!(tier.stats().failovers, 0);
    }

    #[test]
    fn partitioned_rack_fails_over_to_regional() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        tier.set_partitioned(0, true);
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).expect("resolved") {
            TierOutcome::Reply(reply) => {
                assert_eq!(reply.served_by, ServedBy::Regional);
                assert!(reply.failed_over);
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        assert_eq!(tier.stats().failovers, 1);
    }

    #[test]
    fn silent_rack_is_suspected_at_the_exact_timeout_instant() {
        let mlp = mlp();
        let config = TierConfig::default();
        let timeout = config.heartbeat_timeout;
        let interval = config.heartbeat_interval;
        let mut tier = TieredService::new(&mlp, config);
        let silence = SimTime::from_millis(100);
        tier.set_heartbeat_silent(2, true, silence);
        tier.flush(SimTime::from_secs(1));
        assert!(tier.suspected(2));
        assert_eq!(tier.breaker_state(TierScope::Rack(2)), BreakerState::Open);
        assert_eq!(tier.stats().suspects, 1);
        // Last beat was the interval tick strictly before the silence
        // start (a tick at the silence instant is already silent);
        // detection fires exactly `timeout` later.
        let last_beat = SimTime::from_nanos(
            (silence.as_nanos() - 1) / interval.as_nanos() * interval.as_nanos(),
        );
        let expected = (last_beat + timeout).since(silence);
        assert_eq!(tier.stats().detection_latency_max, expected);
        // Submissions now fail over.
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_secs(1), submit_opts(2))
            .unwrap();
        tier.flush(SimTime::from_millis(1500));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => {
                assert_eq!(reply.served_by, ServedBy::Regional);
                assert!(reply.failed_over);
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        // Heartbeats resume: suspicion clears into half-open probation.
        tier.set_heartbeat_silent(2, false, SimTime::from_millis(1500));
        tier.flush(SimTime::from_secs(2));
        assert!(!tier.suspected(2));
        assert_eq!(
            tier.breaker_state(TierScope::Rack(2)),
            BreakerState::HalfOpen
        );
        assert_eq!(tier.stats().recoveries, 1);
    }

    #[test]
    fn hedge_fires_when_the_rack_is_slower_than_the_timeout() {
        let mlp = mlp();
        // A zero-floor hedge timeout with an empty window hedges
        // everything: the first request races rack vs regional.
        let config = TierConfig {
            hedge_min: SimDuration::ZERO,
            ..TierConfig::default()
        };
        let mut tier = TieredService::new(&mlp, config);
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        assert_eq!(tier.stats().hedges, 1);
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => assert!(reply.hedged),
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        // Later requests learn the observed latency and stop hedging
        // (the p99 of the window now covers the rack's service time).
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(600), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(1100));
        assert_eq!(tier.stats().hedges, 1, "no second hedge");
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => {
                assert!(!reply.hedged);
                assert_eq!(reply.served_by, ServedBy::Rack(0));
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
    }

    #[test]
    fn hedge_timeout_moves_only_at_flushes() {
        let mlp = mlp();
        let hedge_min = SimDuration::from_micros(1);
        let config = TierConfig {
            hedge_min,
            hedge_quantile: 0.75,
            hedge_window: 4,
            ..TierConfig::default()
        };
        let quantile = config.hedge_quantile;
        let mut tier = TieredService::new(&mlp, config);
        // With the regional tier down every hedge is infeasible, so each
        // rack reply is rack-served and its latency is the one the
        // window recorded.
        tier.set_regional_down(true);
        assert_eq!(tier.hedge_timeout(), hedge_min, "before the first flush");
        let mut rack_latencies = Vec::new();
        for flush in 0..6u64 {
            let start = SimTime::from_millis(flush * 100);
            let before = tier.hedge_timeout();
            let mut tickets = Vec::new();
            for i in 0..2 + flush {
                // Spacing and row counts vary per flush, so batching
                // waits (and latencies) differ.
                let at = start + SimDuration::from_micros(i * 700 * (flush + 1));
                let input = rows(&mlp, 1 + (i % 3) as usize);
                tickets.push(tier.submit(input, at, submit_opts(0)).unwrap());
                assert_eq!(tier.hedge_timeout(), before, "a submit moved the timeout");
            }
            tier.flush(start + SimDuration::from_millis(80));
            for ticket in tickets {
                match tier.take_outcome(ticket).unwrap() {
                    TierOutcome::Reply(reply) if reply.served_by == ServedBy::Rack(0) => {
                        rack_latencies.push(reply.latency);
                    }
                    other => panic!("expected a rack-served reply, got {other:?}"),
                }
            }
            let mut window = rack_latencies[rack_latencies.len().saturating_sub(4)..].to_vec();
            window.sort();
            let rank = ((window.len() as f64) * quantile).ceil() as usize;
            let expected = window[rank.clamp(1, window.len()) - 1].max(hedge_min);
            assert_eq!(tier.hedge_timeout(), expected, "after flush {flush}");
        }
        rack_latencies.sort();
        rack_latencies.dedup();
        assert!(rack_latencies.len() > 1, "latencies never varied");
    }

    #[test]
    fn cpu_last_rung_serves_when_both_tiers_are_fenced() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        tier.set_partitioned(3, true);
        // Trip the regional breaker by hand: every regional rung is
        // fenced and the CPU must serve.
        for _ in 0..tier.config.breaker_threshold {
            tier.regional_breaker.record_failure();
        }
        let ticket = tier
            .submit(rows(&mlp, 2), SimTime::from_millis(1), submit_opts(3))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => {
                assert_eq!(reply.served_by, ServedBy::LocalCpu);
                assert!(reply.failed_over);
                // Bit-exact with the float model.
                assert_eq!(reply.output, mlp.forward_batch(&rows(&mlp, 2)));
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        assert_eq!(tier.stats().cpu_served, 1);
    }

    #[test]
    fn impossible_deadline_fails_typed_instead_of_late() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        tier.set_partitioned(0, true);
        for _ in 0..tier.config.breaker_threshold {
            tier.regional_breaker.record_failure();
        }
        let opts = TierSubmit {
            rack: 0,
            client: ClientId::new(1),
            deadline: Some(SimTime::from_millis(1) + SimDuration::from_nanos(10)),
        };
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), opts)
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Failed(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a typed deadline failure, got {other:?}"),
        }
        assert_eq!(tier.stats().failed, 1);
        assert_eq!(tier.stats().replies, 0);
    }

    #[test]
    fn conservation_every_ticket_resolves_exactly_once() {
        let mlp = mlp();
        let config = TierConfig {
            hedge_min: SimDuration::from_nanos(100),
            ..TierConfig::default()
        };
        let mut tier = TieredService::new(&mlp, config);
        tier.set_heartbeat_silent(1, true, SimTime::ZERO);
        let mut tickets = Vec::new();
        for i in 0..40u64 {
            let at = SimTime::from_millis(1 + i * 7);
            let opts = submit_opts((i % 4) as usize);
            tickets.push(tier.submit(rows(&mlp, 1), at, opts).unwrap());
        }
        tier.flush(SimTime::from_millis(600));
        let mut resolved = 0;
        for ticket in &tickets {
            if tier.take_outcome(*ticket).is_some() {
                resolved += 1;
            }
            assert!(tier.take_outcome(*ticket).is_none(), "double resolution");
        }
        assert_eq!(resolved, tickets.len());
        let stats = tier.stats();
        assert_eq!(stats.replies + stats.failed, tickets.len() as u64);
    }

    #[test]
    fn tier_tickets_redeem_out_of_order_and_exactly_once() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        let early = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
            .unwrap();
        let late = tier
            .submit(rows(&mlp, 2), SimTime::from_millis(2), submit_opts(1))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(late).expect("later ticket resolved") {
            TierOutcome::Reply(reply) => assert_eq!(reply.output.rows(), 2),
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        match tier
            .take_outcome(early)
            .expect("earlier ticket still redeemable")
        {
            TierOutcome::Reply(reply) => assert_eq!(reply.output.rows(), 1),
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        assert!(tier.take_outcome(early).is_none(), "double take");
        assert!(tier.take_outcome(late).is_none(), "double take");
    }

    #[test]
    fn a_never_redeemed_tier_ticket_does_not_grow_memory() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        let forgotten = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(10));
        for round in 0..1_000u64 {
            let at = SimTime::from_millis(20 + round * 10);
            let tickets: Vec<_> = (0..3)
                .map(|i| tier.submit(rows(&mlp, 1), at, submit_opts(i)).unwrap())
                .collect();
            tier.flush(at + SimDuration::from_millis(5));
            for t in tickets {
                assert!(tier.take_outcome(t).is_some());
            }
        }
        assert!(
            tier.resident_outcomes() < 100,
            "{} outcome slots resident after 1,000 redeemed flushes",
            tier.resident_outcomes()
        );
        // The forgotten ticket is still redeemable, once.
        assert!(tier.take_outcome(forgotten).is_some());
        assert!(tier.take_outcome(forgotten).is_none());
    }

    #[test]
    fn recycled_buffers_change_no_reply_and_stay_bounded() {
        let mlp = mlp();
        // A zero hedge floor hedges every rack request until the window
        // fills, so race losers come back to both tiers' services.
        let config = TierConfig {
            hedge_min: SimDuration::ZERO,
            ..TierConfig::default()
        };
        // One tier gets every reply's output back, the other none.
        let mut recycling = TieredService::new(&mlp, config.clone());
        let mut plain = TieredService::new(&mlp, config);
        let per_flush = 4;
        let mut most = [0; 2];
        for round in 0..1_000u64 {
            let at = SimTime::from_millis(1 + round * 10);
            let input = |i: usize| rows(&mlp, 1 + (round as usize + i) % 3);
            let tickets: Vec<_> = (0..per_flush)
                .map(|i| {
                    let opts = submit_opts(i);
                    let a = recycling.submit(input(i), at, opts).unwrap();
                    (a, plain.submit(input(i), at, opts).unwrap())
                })
                .collect();
            recycling.flush(at + SimDuration::from_millis(5));
            plain.flush(at + SimDuration::from_millis(5));
            for (a, b) in tickets {
                let (a, b) = (recycling.take_outcome(a), plain.take_outcome(b));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "round {round}");
                if let Some(TierOutcome::Reply(reply)) = a {
                    recycling.recycle(reply);
                }
            }
            most[0] = most[0].max(recycling.spare_buffers());
            most[1] = most[1].max(plain.spare_buffers());
        }
        assert!(plain.stats().hedges > 0, "no race was run");
        // Each request leaves at most its output and its batch's job
        // list with each of the two rungs it was served by.
        assert!(
            most.iter().all(|&n| n <= 4 * per_flush),
            "{most:?} spare buffers held for {per_flush} requests a flush"
        );
    }

    #[test]
    fn regional_rtt_rides_on_regional_completions() {
        let mlp = mlp();
        let rtt = SimDuration::from_millis(8);
        let run = |regional_rtt: SimDuration| {
            let config = TierConfig {
                regional_rtt,
                ..TierConfig::default()
            };
            let mut tier = TieredService::new(&mlp, config);
            tier.set_partitioned(0, true);
            let ticket = tier
                .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
                .unwrap();
            tier.flush(SimTime::from_millis(500));
            match tier.take_outcome(ticket).unwrap() {
                TierOutcome::Reply(reply) => {
                    assert_eq!(reply.served_by, ServedBy::Regional);
                    reply.completed_at
                }
                TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
            }
        };
        let plain = run(SimDuration::ZERO);
        let delayed = run(rtt);
        assert_eq!(delayed.since(plain), rtt);
    }

    #[test]
    fn infeasible_backbone_deadline_fails_over_to_cpu_not_regional() {
        let mlp = mlp();
        let config = TierConfig {
            regional_rtt: SimDuration::from_millis(250),
            ..TierConfig::default()
        };
        let mut tier = TieredService::new(&mlp, config);
        tier.set_partitioned(0, true);
        let opts = TierSubmit {
            rack: 0,
            client: ClientId::new(1),
            // Tighter than the backbone round trip: the regional rung
            // cannot possibly answer in time, the CPU can.
            deadline: Some(SimTime::from_millis(1) + SimDuration::from_millis(100)),
        };
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), opts)
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => {
                assert_eq!(reply.served_by, ServedBy::LocalCpu);
                assert!(reply.failed_over);
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        // The regional tier never saw the request, so its breaker was
        // not charged either way.
        assert_eq!(tier.stats().regional_served, 0);
    }

    #[test]
    fn network_infeasible_hedge_is_suppressed() {
        let mlp = mlp();
        // Zero hedge floor + empty window hedges every rack request —
        // unless the backbone RTT makes the duplicate pointless.
        let config = TierConfig {
            hedge_min: SimDuration::ZERO,
            regional_rtt: SimDuration::from_secs(1),
            ..TierConfig::default()
        };
        let mut tier = TieredService::new(&mlp, config);
        let opts = TierSubmit {
            rack: 0,
            client: ClientId::new(7),
            deadline: Some(SimTime::from_millis(1) + SimDuration::from_millis(400)),
        };
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), opts)
            .unwrap();
        tier.flush(SimTime::from_millis(401));
        assert_eq!(tier.stats().hedges, 0, "hedge cannot beat the deadline");
        assert_eq!(tier.stats().hedges_infeasible, 1);
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => {
                assert!(!reply.hedged);
                assert_eq!(reply.served_by, ServedBy::Rack(0));
            }
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
    }

    #[test]
    fn regional_outage_routes_failovers_to_cpu_and_heals() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        tier.set_partitioned(0, true);
        tier.set_regional_down(true);
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(1), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => assert_eq!(reply.served_by, ServedBy::LocalCpu),
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
        // An unreachable tier is not a failing tier: the breaker stayed
        // closed, so the heal restores regional failover immediately.
        assert_eq!(
            tier.breaker_state(TierScope::Regional),
            BreakerState::Closed
        );
        tier.set_regional_down(false);
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::from_millis(600), submit_opts(0))
            .unwrap();
        tier.flush(SimTime::from_millis(1100));
        match tier.take_outcome(ticket).unwrap() {
            TierOutcome::Reply(reply) => assert_eq!(reply.served_by, ServedBy::Regional),
            TierOutcome::Failed(err) => panic!("unexpected failure: {err}"),
        }
    }

    #[test]
    fn invalid_input_is_rejected_at_the_door() {
        let mlp = mlp();
        let mut tier = TieredService::new(&mlp, TierConfig::default());
        let empty = Matrix::zeros(0, mlp.input_size());
        assert!(matches!(
            tier.submit(empty, SimTime::ZERO, submit_opts(0)),
            Err(ServeError::InvalidInput { .. })
        ));
        let narrow = Matrix::zeros(1, mlp.input_size() + 1);
        assert!(matches!(
            tier.submit(narrow, SimTime::ZERO, submit_opts(0)),
            Err(ServeError::InvalidInput { .. })
        ));
        let racks = tier.config().racks;
        assert_eq!(
            tier.submit(rows(&mlp, 1), SimTime::ZERO, submit_opts(racks))
                .unwrap_err(),
            ServeError::InvalidInput {
                reason: "rack index out of range"
            }
        );
        // A refused request is not counted, and the tier still serves.
        assert_eq!(tier.stats().submitted, 0);
        let ticket = tier
            .submit(rows(&mlp, 1), SimTime::ZERO, submit_opts(racks - 1))
            .unwrap();
        tier.flush(SimTime::from_millis(500));
        assert!(matches!(
            tier.take_outcome(ticket),
            Some(TierOutcome::Reply(_))
        ));
    }

    #[test]
    fn config_validation_rejects_degenerate_topologies() {
        let config = TierConfig {
            racks: 0,
            ..TierConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroRacks));
        let config = TierConfig {
            heartbeat_timeout: SimDuration::from_nanos(1),
            ..TierConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::InvalidHeartbeat));
        let config = TierConfig {
            hedge_quantile: 1.5,
            ..TierConfig::default()
        };
        assert_eq!(config.validate(), Err(ConfigError::InvalidHedge));
    }

    /// Every piece of tier state a fleet fault can touch.
    type FaultState = (
        Vec<(bool, bool, SimTime, SimTime, BreakerState)>,
        u32,
        bool,
        Vec<TierTransition>,
    );

    fn fault_state(tier: &mut TieredService) -> FaultState {
        let racks = tier
            .racks
            .iter()
            .map(|r| {
                let state = r.breaker.state();
                (r.partitioned, r.silent, r.silent_since, r.resume_at, state)
            })
            .collect();
        let transitions = tier.drain_transitions();
        (racks, tier.slow_milli, tier.regional_down(), transitions)
    }

    #[test]
    fn apply_fault_matches_the_direct_setter_for_every_variant() {
        let mlp = mlp();
        let racks = TierConfig::default().racks;
        let at = SimTime::from_millis(300);
        type Setter = fn(&mut TieredService, SimTime);
        let cases: [(FleetFault, Setter); 10] = [
            (FleetFault::BoardCrash { board: 5 }, |_, _| {}),
            (FleetFault::BoardRejoin { board: racks + 2 }, |t, at| {
                t.begin_rack_probation(2, at)
            }),
            (FleetFault::RackPartition { rack: racks + 1 }, |t, _| {
                t.set_partitioned(1, true)
            }),
            (FleetFault::RackHeal { rack: racks + 1 }, |t, _| {
                t.set_partitioned(1, false)
            }),
            (FleetFault::HeartbeatLoss { rack: 3 }, |t, at| {
                t.set_heartbeat_silent(3, true, at)
            }),
            (FleetFault::HeartbeatRestore { rack: 2 * racks }, |t, at| {
                t.set_heartbeat_silent(0, false, at)
            }),
            (
                FleetFault::TierSlow {
                    factor_milli: 2_500,
                },
                |t, _| t.set_tier_slowdown(2_500),
            ),
            (FleetFault::TierRecover, |t, _| t.set_tier_slowdown(1_000)),
            (FleetFault::RegionOutage { region: 3 }, |t, _| {
                t.set_regional_down(true)
            }),
            (FleetFault::RegionRestore { region: 3 }, |t, _| {
                t.set_regional_down(false)
            }),
        ];
        for (fault, setter) in cases {
            // Each fault applies to a tier that is already degraded, so
            // restore/heal/recover variants have something to undo.
            let degraded = || {
                let mut tier = TieredService::new(&mlp, TierConfig::default());
                tier.set_partitioned(1, true);
                tier.set_heartbeat_silent(0, true, SimTime::from_millis(100));
                tier.set_tier_slowdown(3_000);
                tier.set_regional_down(true);
                tier
            };
            let mut applied = degraded();
            applied.apply_fault(fault, at);
            let mut direct = degraded();
            setter(&mut direct, at);
            assert_eq!(
                fault_state(&mut applied),
                fault_state(&mut direct),
                "{fault:?}"
            );
        }

        let mut tier = TieredService::new(&mlp, TierConfig::default());
        tier.apply_fault(FleetFault::RackPartition { rack: racks + 1 }, at);
        assert!(tier.racks[1].partitioned);
        tier.apply_fault(FleetFault::BoardRejoin { board: racks + 2 }, at);
        assert_eq!(
            tier.breaker_state(TierScope::Rack(2)),
            BreakerState::HalfOpen
        );
        assert!(tier.drain_transitions()[0].probation);
        assert!(!tier.regional_down());
        tier.apply_fault(FleetFault::RegionOutage { region: 0 }, at);
        assert!(tier.regional_down());
        tier.apply_fault(FleetFault::RegionRestore { region: 0 }, at);
        assert!(!tier.regional_down());
    }
}
