//! Scale layer: drives the frontier's request schedule through the
//! network model into per-region [`TieredService`] ladders, one barrier
//! epoch at a time.
//!
//! Each region plans its requests one epoch ahead of serving them
//! (arrival → FIFO uplink → delivery instant, all pure functions of the
//! seed), and the regions simulate independently — sharded across host threads by
//! the [`par::Budget`] and merged in region order, so the report is
//! byte-identical at every thread budget. Each region's service ladder
//! carries the backbone round trip as
//! [`npu_serve::TierConfig::regional_rtt`], making hedges and failovers
//! network-aware end to end, and the tier's own [`npu_serve::TierChecker`]
//! watches conservation, late replies, hedge amplification, breaker
//! edges and barrier monotonicity.
//!
//! Boards are deliberately lightweight — a thermal proxy and QoS
//! accounting, not a full `hikey-platform` model — which is what lets
//! a single run sweep 10k–100k boards.

use std::collections::VecDeque;
use std::fmt;

use faults::{FleetFault, FleetSchedule, StormBuilder};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu_serve::quantile::nearest_rank;
use npu_serve::{
    seeded_payload_into, ServeConfig, TierChecker, TierConfig, TierOutcome, TierSubmit, TierTicket,
    TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_core::net::FifoLink;

use crate::frontier::{self, Demand, FlashCrowd};
use crate::storm::StormPreset;
use crate::topology::{region_boards, NetworkConfig};

/// Hedge floor of the per-region tier. Sits just under the typical rack
/// latency, so tail-latency rack requests race the regional tier while
/// the p99-derived timeout takes over once the latency window fills.
const EDGE_HEDGE_MIN: SimDuration = SimDuration::from_millis(5);
/// Ambient temperature of the thermal proxy, °C.
const AMBIENT: f64 = 45.0;
/// Per-epoch exponential decay of a board's excess temperature.
const ALPHA: f64 = 0.8;
/// Temperature added per request homed on a board in one epoch, °C.
const HEAT_PER_REQ: f64 = 2.0;
/// Thermal limit; a board-epoch above it is a violation.
const THERMAL_LIMIT: f64 = 75.0;
/// Stream tag of the per-request uplink jitter draws.
const TAG_NET: u64 = 0x6564_6765_2d6e_6574; // "edge-net"

/// Configuration of one edge-fleet run.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Boards in the fleet, split across the regions.
    pub boards: usize,
    /// Logical users issuing requests (never materialised; a user is an
    /// index into the seeded streams).
    pub users: u64,
    /// Regions the fleet and users are partitioned into.
    pub regions: usize,
    /// Racks per region (boards map round-robin within their region).
    pub racks_per_region: usize,
    /// Barrier epochs to simulate.
    pub epochs: u64,
    /// Length of one barrier epoch.
    pub epoch: SimDuration,
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Mean requests per board per epoch before diurnal/skew/flash
    /// shaping.
    pub load: f64,
    /// Amplitude of the diurnal curve (`0` flattens it).
    pub diurnal_amplitude: f64,
    /// Zipf exponent of the regional demand/user skew (`0` is uniform).
    pub regional_skew: f64,
    /// Optional flash-crowd burst.
    pub flash: Option<FlashCrowd>,
    /// End-to-end QoS deadline a user attaches to each request.
    pub qos_deadline: SimDuration,
    /// Inject a regional backbone outage storm (region 0 goes dark for
    /// a sixth of the run starting at its third).
    pub outage: bool,
    /// Seeded fault storm applied in every region, on top of `outage`.
    /// Users homed on a board the storm has crashed send nothing while
    /// it is down.
    pub storm: Option<StormPreset>,
    /// Where the request schedule comes from.
    pub demand: Demand,
    /// The two-level network model.
    pub network: NetworkConfig,
    /// Host-thread budget sharding the regions; the report is
    /// byte-identical at every budget.
    pub budget: par::Budget,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            boards: 1_000,
            users: 100_000,
            regions: 4,
            racks_per_region: 8,
            epochs: 48,
            epoch: SimDuration::from_millis(100),
            seed: 7,
            load: 1.0,
            diurnal_amplitude: 0.5,
            regional_skew: 0.5,
            flash: Some(FlashCrowd {
                region: 0,
                multiplier: 3.0,
            }),
            qos_deadline: SimDuration::from_millis(100),
            outage: false,
            storm: None,
            demand: Demand::Synthetic,
            network: NetworkConfig::default(),
            budget: par::Budget::serial(),
        }
    }
}

impl EdgeConfig {
    /// The chaos scenario: one region of 12 boards in 3 racks over 40
    /// epochs (seed 11) under `storm`, with flat demand — load 1, no
    /// diurnal curve, no regional skew, no flash crowd. Every other field
    /// keeps its default.
    pub fn chaos(storm: StormPreset) -> EdgeConfig {
        EdgeConfig {
            boards: 12,
            regions: 1,
            racks_per_region: 3,
            epochs: 40,
            seed: 11,
            load: 1.0,
            diurnal_amplitude: 0.0,
            regional_skew: 0.0,
            flash: None,
            storm: Some(storm),
            ..EdgeConfig::default()
        }
    }

    /// The overload scenario: one region with one rack of 128 boards,
    /// 20,000 users at 30 requests per board per epoch over 15 epochs
    /// (seed 7), with flat demand and a 25 ms QoS deadline, under
    /// `storm`. The rack tier saturates, so admission, failover and the
    /// local CPU rung carry the excess. Every other field keeps its
    /// default.
    pub fn overload(storm: Option<StormPreset>) -> EdgeConfig {
        EdgeConfig {
            boards: 128,
            users: 20_000,
            regions: 1,
            racks_per_region: 1,
            epochs: 15,
            seed: 7,
            load: 30.0,
            diurnal_amplitude: 0.0,
            regional_skew: 0.0,
            flash: None,
            qos_deadline: SimDuration::from_millis(25),
            storm,
            ..EdgeConfig::default()
        }
    }

    /// Checks the run sizes: at least one board, region, rack and epoch,
    /// a positive epoch length, no region without a board, and a finite,
    /// positive `load`.
    pub fn validate(&self) -> Result<(), EdgeConfigError> {
        if self.boards == 0 {
            return Err(EdgeConfigError::ZeroBoards);
        }
        if self.regions == 0 {
            return Err(EdgeConfigError::ZeroRegions);
        }
        if self.regions > self.boards {
            return Err(EdgeConfigError::TooFewBoards {
                boards: self.boards,
                regions: self.regions,
            });
        }
        if self.racks_per_region == 0 {
            return Err(EdgeConfigError::ZeroRacks);
        }
        if self.epochs == 0 {
            return Err(EdgeConfigError::ZeroEpochs);
        }
        if self.epoch.is_zero() {
            return Err(EdgeConfigError::ZeroEpochLength);
        }
        if !(self.load.is_finite() && self.load > 0.0) {
            return Err(EdgeConfigError::InvalidLoad(self.load));
        }
        Ok(())
    }
}

/// Why an [`EdgeConfig`] was rejected by [`EdgeConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeConfigError {
    /// `boards` was zero.
    ZeroBoards,
    /// `regions` was zero.
    ZeroRegions,
    /// Fewer boards than regions, so some region would host none.
    TooFewBoards {
        /// Boards in the fleet.
        boards: usize,
        /// Regions they are split across.
        regions: usize,
    },
    /// `racks_per_region` was zero.
    ZeroRacks,
    /// `epochs` was zero.
    ZeroEpochs,
    /// `epoch` had zero length.
    ZeroEpochLength,
    /// `load` was not finite and above zero.
    InvalidLoad(f64),
}

impl fmt::Display for EdgeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeConfigError::ZeroBoards => f.write_str("need at least one board"),
            EdgeConfigError::ZeroRegions => f.write_str("need at least one region"),
            EdgeConfigError::TooFewBoards { boards, regions } => write!(
                f,
                "need at least one board per region, got {boards} for {regions} regions"
            ),
            EdgeConfigError::ZeroRacks => f.write_str("need at least one rack per region"),
            EdgeConfigError::ZeroEpochs => f.write_str("need at least one epoch"),
            EdgeConfigError::ZeroEpochLength => f.write_str("epoch length must be positive"),
            EdgeConfigError::InvalidLoad(load) => {
                write!(f, "load must be finite and above 0, got {load}")
            }
        }
    }
}

impl std::error::Error for EdgeConfigError {}

/// Per-region result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionOutcome {
    /// Region index.
    pub region: usize,
    /// Boards hosted in this region.
    pub boards: usize,
    /// Logical users homed in this region.
    pub users: u64,
    /// Distinct users that issued at least one request.
    pub active_users: u64,
    /// Requests the frontier generated here.
    pub generated: u64,
    /// Generated requests whose network delivery fell past the horizon
    /// (never submitted).
    pub truncated: u64,
    /// Requests submitted to the region's tier.
    pub submitted: u64,
    /// Requests answered with a reply.
    pub replies: u64,
    /// Requests that ended in a typed failure (shed, deadline, …).
    pub failed: u64,
    /// Replies served by the home rack.
    pub rack_served: u64,
    /// Replies served by the regional tier.
    pub regional_served: u64,
    /// Replies served by the local CPU rung.
    pub cpu_served: u64,
    /// Submissions routed past their home rack.
    pub failovers: u64,
    /// Hedges fired to the regional tier.
    pub hedges: u64,
    /// Hedges suppressed as network-infeasible (backbone RTT or outage).
    pub hedges_infeasible: u64,
    /// Tier breaker transitions observed.
    pub breaker_transitions: u64,
    /// Timed fault events the region's storm injected.
    pub storm_events: u64,
    /// Epochs this region's backbone was dark.
    pub outage_epochs: u64,
    /// Median end-to-end QoS delay (arrival at the user → reply back at
    /// the user).
    pub qos_p50: SimDuration,
    /// 99th-percentile end-to-end QoS delay.
    pub qos_p99: SimDuration,
    /// Board-epochs above the thermal limit.
    pub thermal_violations: u64,
    /// Hottest board temperature reached, °C.
    pub peak_temp: f64,
    /// Racks the failure detector declared suspect.
    pub suspects: u64,
    /// Suspected racks that recovered.
    pub recoveries: u64,
    /// Worst failure-detection latency (silence start → suspicion).
    pub detection_latency_max: SimDuration,
    /// Fraction of board-epochs no storm crash had the board down.
    pub availability: f64,
    /// Invariant violations observed in this region.
    pub violations: Vec<String>,
}

/// Fleet-wide result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeReport {
    /// Boards simulated.
    pub boards: usize,
    /// Logical users.
    pub users: u64,
    /// Distinct users that issued at least one request (users are
    /// region-disjoint, so the regional counts sum exactly).
    pub active_users: u64,
    /// Barrier epochs simulated.
    pub epochs: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Requests the frontier generated.
    pub generated: u64,
    /// Requests whose delivery fell past the horizon.
    pub truncated: u64,
    /// Requests submitted across all regions.
    pub submitted: u64,
    /// Requests answered with a reply.
    pub replies: u64,
    /// Requests that ended in a typed failure.
    pub failed: u64,
    /// Replies served by home racks.
    pub rack_served: u64,
    /// Replies served by regional tiers.
    pub regional_served: u64,
    /// Replies served by CPU rungs.
    pub cpu_served: u64,
    /// Submissions routed past their home rack.
    pub failovers: u64,
    /// Hedges fired.
    pub hedges: u64,
    /// Hedges suppressed as network-infeasible.
    pub hedges_infeasible: u64,
    /// Tier breaker transitions observed fleet-wide.
    pub breaker_transitions: u64,
    /// Timed fault events injected fleet-wide.
    pub storm_events: u64,
    /// Region-epochs with a dark backbone.
    pub outage_epochs: u64,
    /// Typed failures per submitted request.
    pub shed_rate: f64,
    /// Hedges per submitted request.
    pub hedge_rate: f64,
    /// Fleet-wide median end-to-end QoS delay.
    pub qos_p50: SimDuration,
    /// Fleet-wide 99th-percentile end-to-end QoS delay.
    pub qos_p99: SimDuration,
    /// Board-epochs above the thermal limit.
    pub thermal_violations: u64,
    /// Thermal violations per board-epoch.
    pub thermal_violation_rate: f64,
    /// Hottest board temperature reached anywhere, °C.
    pub peak_temp: f64,
    /// Racks suspected fleet-wide.
    pub suspects: u64,
    /// Suspected racks that recovered, fleet-wide.
    pub recoveries: u64,
    /// Worst failure-detection latency anywhere.
    pub detection_latency_max: SimDuration,
    /// Fraction of fleet board-epochs no storm crash had the board down.
    pub availability: f64,
    /// Per-region outcomes, in region order.
    pub regions: Vec<RegionOutcome>,
    /// Invariant violations (the CI gate requires none).
    pub violations: Vec<String>,
}

impl fmt::Display for EdgeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Edge fleet: {} boards / {} regions x {} epochs, {} users (seed {})",
            self.boards,
            self.regions.len(),
            self.epochs,
            self.users,
            self.seed
        )?;
        writeln!(
            f,
            "  frontier: {} generated by {} active users -> {} submitted (+{} truncated past horizon)",
            self.generated, self.active_users, self.submitted, self.truncated
        )?;
        writeln!(
            f,
            "  requests: {} replies + {} typed failures (shed rate {:.4}), QoS p50 {} p99 {}",
            self.replies, self.failed, self.shed_rate, self.qos_p50, self.qos_p99
        )?;
        writeln!(
            f,
            "  rungs:    {} rack / {} regional / {} cpu, {} failovers, {} hedges ({} infeasible, rate {:.4})",
            self.rack_served,
            self.regional_served,
            self.cpu_served,
            self.failovers,
            self.hedges,
            self.hedges_infeasible,
            self.hedge_rate
        )?;
        writeln!(
            f,
            "  thermal:  {} violations (rate {:.5}), peak {:.1} C",
            self.thermal_violations, self.thermal_violation_rate, self.peak_temp
        )?;
        writeln!(
            f,
            "  faults:   {} storm events, {} dark region-epochs, {} breaker transitions",
            self.storm_events, self.outage_epochs, self.breaker_transitions
        )?;
        writeln!(
            f,
            "  detector: {} suspects, {} recoveries, detection max {}; availability {:.4}",
            self.suspects, self.recoveries, self.detection_latency_max, self.availability
        )?;
        writeln!(f, "  invariants: {} violations", self.violations.len())?;
        for violation in &self.violations {
            writeln!(f, "    VIOLATION: {violation}")?;
        }
        Ok(())
    }
}

/// One planned request after the network model: where and when it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedRequest {
    /// Region-local home board.
    board: usize,
    /// Arrival instant at the user (before the uplink).
    at: SimTime,
    /// Delivery instant at the rack (uplink FIFO + jitter).
    delivered_at: SimTime,
    /// Deadline handed to the tier: the user deadline minus the reply's
    /// downlink transit.
    deadline_tier: SimTime,
    /// Seed the payload is a pure function of.
    payload_seed: u64,
    /// Plan sequence number. Buckets fill in this order, and it breaks
    /// ties between equal delivery instants.
    seq: u64,
}

/// Distinct users of one region, as a bitset over its user range.
struct UserSet {
    base: u64,
    words: Vec<u64>,
    count: u64,
}

impl UserSet {
    fn new(config: &EdgeConfig, region: usize) -> Self {
        let skew = config.regional_skew;
        let users = frontier::region_users(config.users, config.regions, skew, region);
        UserSet {
            base: frontier::region_user_base(config.users, config.regions, skew, region),
            words: vec![0; users.div_ceil(64) as usize],
            count: 0,
        }
    }

    fn insert(&mut self, user: u64) {
        let bit = user - self.base;
        let word = &mut self.words[(bit / 64) as usize];
        let mask = 1 << (bit % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.count += 1;
        }
    }
}

/// A region's request plan, streamed one delivery epoch at a time:
/// frontier arrivals pushed through the rack uplinks, bucketed by
/// delivery epoch. Users homed on a crashed board send nothing that
/// epoch (they are not `generated` either). Deliveries past the horizon
/// are counted as `truncated` and never submitted.
///
/// A delivery is never earlier than its arrival, so once the arrivals of
/// epochs `..=e` are planned, no later arrival can land in epoch `e`:
/// its bucket is complete. Planning epoch by epoch in arrival order
/// keeps the uplink FIFOs and the jitter sequence exactly as planning the
/// whole run up front does. A bucket fills in plan order, so sorting it
/// stably by delivery instant gives the `(delivered_at, seq)` order.
struct RegionPlan {
    /// Each board's crash spans; `None` when the storm crashes no board.
    down: Option<Vec<Vec<(u64, u64)>>>,
    /// Board-epochs the storm had a board crashed.
    down_board_epochs: u64,
    uplinks: Vec<FifoLink>,
    jitter_ns: u64,
    jitter_stream: u64,
    downlink: SimDuration,
    /// Requests planned so far.
    seq: u64,
    /// The frontier arrivals of the epoch being planned.
    arrivals: Vec<frontier::EdgeArrival>,
    /// Buckets of the delivery epochs from the next one on.
    ahead: VecDeque<Vec<PlannedRequest>>,
    /// Emptied buckets, reused when a delivery lands further ahead.
    spare: Vec<Vec<PlannedRequest>>,
    /// The deliveries of the epoch being served, in delivery order.
    current: Vec<PlannedRequest>,
    users: UserSet,
    generated: u64,
    truncated: u64,
}

impl RegionPlan {
    fn new(config: &EdgeConfig, region: usize, schedule: &FleetSchedule) -> Self {
        let down = board_down_spans(
            schedule,
            region_boards(config.boards, config.regions, region),
        );
        let down_board_epochs = down
            .iter()
            .flatten()
            .flatten()
            .map(|&(from, until)| until - from)
            .sum();
        RegionPlan {
            down,
            down_board_epochs,
            uplinks: vec![FifoLink::new(config.network.edge); config.racks_per_region],
            jitter_ns: config.network.jitter.as_nanos(),
            jitter_stream: jitter_stream(config, region),
            downlink: config.network.downlink(),
            seq: 0,
            arrivals: Vec::new(),
            ahead: VecDeque::new(),
            spare: Vec::new(),
            current: Vec::new(),
            users: UserSet::new(config, region),
            generated: 0,
            truncated: 0,
        }
    }

    /// Plans the arrivals of epoch `epoch` and returns that epoch's
    /// deliveries in delivery order. Epochs are taken in order from 0.
    fn next_epoch(&mut self, config: &EdgeConfig, region: usize, epoch: u64) -> &[PlannedRequest] {
        let epoch_ns = config.epoch.as_nanos();
        let base = SimTime::from_nanos(epoch * epoch_ns);
        let mut arrivals = std::mem::take(&mut self.arrivals);
        frontier::epoch_arrivals(config, region, epoch, &mut arrivals);
        for arrival in &arrivals {
            if self.down.as_ref().is_some_and(|spans| {
                spans[arrival.board]
                    .iter()
                    .any(|&(from, until)| (from..until).contains(&epoch))
            }) {
                continue;
            }
            self.generated += 1;
            self.users.insert(arrival.user);
            let at = base + arrival.offset;
            // The uplink is a shared FIFO medium per rack; sends are
            // issued in arrival order (the frontier sorts each epoch).
            let wire = self.uplinks[arrival.board % config.racks_per_region]
                .send(at, config.network.request_bytes);
            let jitter = SimDuration::from_nanos(if self.jitter_ns == 0 {
                0
            } else {
                sim_core::mix_indexed(self.jitter_stream, self.seq) % (self.jitter_ns + 1)
            });
            self.seq += 1;
            let delivered_at = wire + jitter;
            let delivery_epoch = delivered_at.as_nanos() / epoch_ns;
            if delivery_epoch >= config.epochs {
                self.truncated += 1;
                continue;
            }
            let ahead = (delivery_epoch - epoch) as usize;
            while self.ahead.len() <= ahead {
                self.ahead.push_back(self.spare.pop().unwrap_or_default());
            }
            self.ahead[ahead].push(PlannedRequest {
                board: arrival.board,
                at,
                delivered_at,
                deadline_tier: at + config.qos_deadline - self.downlink,
                payload_seed: arrival.payload_seed,
                seq: self.seq,
            });
        }
        self.arrivals = arrivals;
        let mut served = std::mem::take(&mut self.current);
        served.clear();
        self.spare.push(served);
        self.current = self.ahead.pop_front().unwrap_or_default();
        // The tier clock is nondecreasing between flushes: submit in
        // delivery order. The bucket was filled in plan order, so the
        // stable sort breaks ties by plan sequence.
        self.current.sort_by_key(|request| request.delivered_at);
        &self.current
    }

    /// Distinct logical users that issued at least one request so far.
    fn active_users(&self) -> u64 {
        self.users.count
    }
}

/// Root of the per-request uplink jitter draws of region `region`.
fn jitter_stream(config: &EdgeConfig, region: usize) -> u64 {
    sim_core::mix64(config.seed ^ TAG_NET ^ (region as u64).wrapping_mul(sim_core::GOLDEN_GAMMA))
}

/// Derives the region's fault schedule: the backbone outage, which
/// darkens region 0 from `epochs/3` for `epochs/6` epochs, then the
/// storm preset over this region's boards and racks.
fn storm_schedule(config: &EdgeConfig, region: usize) -> FleetSchedule {
    let boards_r = region_boards(config.boards, config.regions, region).max(1);
    let seed = sim_core::mix_indexed(config.seed, region as u64);
    let mut builder = StormBuilder::new(seed, boards_r, config.epochs);
    if config.outage && region == 0 {
        builder = builder.region_outage(region, config.epochs / 3, (config.epochs / 6).max(1));
    }
    if let Some(storm) = config.storm {
        builder = storm.apply(builder, boards_r, config.racks_per_region, config.epochs);
    }
    builder.build()
}

/// Each board's crash spans `[from, until)`, built once per region;
/// `None` when the schedule crashes no board.
fn board_down_spans(schedule: &FleetSchedule, boards: usize) -> Option<Vec<Vec<(u64, u64)>>> {
    let crashes = schedule
        .events()
        .iter()
        .any(|e| matches!(e.fault, FleetFault::BoardCrash { .. }));
    crashes.then(|| (0..boards).map(|b| schedule.down_spans(b)).collect())
}

/// Mutable per-region state threaded through epoch processing.
struct RegionState {
    service: TieredService,
    checker: TierChecker,
    width: usize,
    /// Tickets of the epoch currently accepting deliveries, with each
    /// request's index in the epoch's deliveries.
    tickets: Vec<(TierTicket, usize)>,
    /// Payloads the tier handed back with their outcomes, refilled for
    /// later deliveries: at most one epoch's requests.
    payloads: Vec<Matrix>,
    /// End-to-end QoS delays of replies, in resolution order.
    qos_delays: Vec<SimDuration>,
    /// Requests homed per board in the current epoch (thermal proxy
    /// input: demand heat at the board, regardless of serving rung).
    heat: Vec<u64>,
    temps: Vec<f64>,
    thermal_violations: u64,
    peak_temp: f64,
    transitions: u64,
    outage_epochs: u64,
}

/// Starts epoch `epoch`: applies the storm's fault events at the epoch
/// base and counts dark epochs.
fn begin_epoch(schedule: &FleetSchedule, config: &EdgeConfig, state: &mut RegionState, epoch: u64) {
    let base = SimTime::from_nanos(epoch * config.epoch.as_nanos());
    for event in schedule.events_at(epoch) {
        state.service.apply_fault(event.fault, base);
    }
    if state.service.regional_down() {
        state.outage_epochs += 1;
    }
}

/// Delivers request `idx` of the epoch's deliveries to the region's tier.
fn deliver(
    config: &EdgeConfig,
    state: &mut RegionState,
    deliveries: &[PlannedRequest],
    idx: usize,
) {
    let request = &deliveries[idx];
    let mut payload = state
        .payloads
        .pop()
        .unwrap_or_else(|| Matrix::zeros(1, state.width));
    seeded_payload_into(request.payload_seed, &mut payload);
    let ticket = state
        .service
        .submit(
            payload,
            request.delivered_at,
            TierSubmit {
                rack: request.board % config.racks_per_region,
                deadline: Some(request.deadline_tier),
            },
        )
        .expect("edge payloads are valid");
    state.checker.observe_submit();
    state.heat[request.board] += 1;
    state.tickets.push((ticket, idx));
}

/// Ends epoch `epoch`: flushes the tier at the barrier, resolves every
/// ticket (handing each reply's output back to the tier and keeping each
/// payload for a later delivery), checks transitions, and steps the
/// thermal proxy.
fn end_epoch(
    config: &EdgeConfig,
    state: &mut RegionState,
    deliveries: &[PlannedRequest],
    epoch: u64,
) {
    let barrier = SimTime::from_nanos((epoch + 1) * config.epoch.as_nanos());
    state.checker.observe_barrier(barrier);
    state.service.flush(barrier);
    let downlink = config.network.downlink();
    for (ticket, idx) in state.tickets.drain(..) {
        let request = &deliveries[idx];
        match state.service.take_filed(ticket) {
            Some((outcome, payload)) => {
                state.checker.observe_outcome(
                    request.delivered_at,
                    request.deadline_tier,
                    &outcome,
                );
                if let TierOutcome::Reply(reply) = outcome {
                    // End-to-end QoS delay: arrival at the user until
                    // the reply lands back at the user.
                    state
                        .qos_delays
                        .push((reply.completed_at + downlink).since(request.at));
                    state.service.recycle(reply);
                }
                state.payloads.push(payload);
            }
            None => state.checker.observe_lost_ticket(request.delivered_at),
        }
    }
    let transitions = state.service.drain_transitions();
    state.transitions += transitions.len() as u64;
    state.checker.observe_transitions(&transitions);

    for (board, temp) in state.temps.iter_mut().enumerate() {
        *temp = AMBIENT + (*temp - AMBIENT) * ALPHA + HEAT_PER_REQ * state.heat[board] as f64;
        if *temp > THERMAL_LIMIT {
            state.thermal_violations += 1;
        }
        if *temp > state.peak_temp {
            state.peak_temp = *temp;
        }
        state.heat[board] = 0;
    }
}

/// The policy every board of `region` serves: 12 features, two hidden
/// layers of 16, 4 outputs, seeded per region.
pub fn region_policy(config: &EdgeConfig, region: usize) -> Mlp {
    Mlp::with_topology(
        12,
        2,
        16,
        4,
        &mut StdRng::seed_from_u64(sim_core::mix_indexed(config.seed, region as u64)),
    )
}

/// The service ladder of one region: `racks_per_region` rack services
/// and one regional service, with the backbone round trip as the
/// regional RTT.
pub fn tier_config(config: &EdgeConfig) -> TierConfig {
    TierConfig {
        racks: config.racks_per_region,
        // Rack and regional pools sized for open-loop fleet volume: the
        // defaults target a single board's closed loop and would shed
        // almost everything at 10k boards. They run without the policy
        // cache: an edge payload is a pure function of its request's
        // unique seed, so no payload repeats and a cache would only miss
        // (0 hits in 38,802 rack and 15,470 regional probes of the
        // perfbench edge-overload6 run, seed 1).
        rack_serve: ServeConfig {
            devices: 4,
            max_batch: 32,
            queue_capacity: 512,
            ..ServeConfig::default()
        },
        regional_serve: ServeConfig {
            devices: 8,
            max_batch: 64,
            queue_capacity: 2_048,
            ..ServeConfig::default()
        },
        hedge_min: EDGE_HEDGE_MIN,
        breaker_threshold: 2,
        breaker_cooldown: 3,
        regional_rtt: config.network.regional_rtt(),
        ..TierConfig::default()
    }
}

/// Simulates one region end to end; returns its outcome, the raw QoS
/// delays for the fleet-wide percentile merge, and its crashed
/// board-epochs for the fleet-wide availability.
fn simulate_region(config: &EdgeConfig, region: usize) -> (RegionOutcome, Vec<SimDuration>, u64) {
    let schedule = storm_schedule(config, region);
    let mut plan = RegionPlan::new(config, region, &schedule);
    let boards_r = region_boards(config.boards, config.regions, region);
    let mlp = region_policy(config, region);
    let mut state = RegionState {
        service: TieredService::new(&mlp, tier_config(config)),
        checker: TierChecker::default(),
        width: mlp.input_size(),
        tickets: Vec::new(),
        payloads: Vec::new(),
        qos_delays: Vec::new(),
        heat: vec![0; boards_r],
        temps: vec![AMBIENT; boards_r],
        thermal_violations: 0,
        peak_temp: AMBIENT,
        transitions: 0,
        outage_epochs: 0,
    };

    for epoch in 0..config.epochs {
        begin_epoch(&schedule, config, &mut state, epoch);
        let deliveries = plan.next_epoch(config, region, epoch);
        for idx in 0..deliveries.len() {
            deliver(config, &mut state, deliveries, idx);
        }
        end_epoch(config, &mut state, deliveries, epoch);
    }

    let RegionState {
        service,
        checker,
        mut qos_delays,
        thermal_violations,
        peak_temp,
        transitions,
        outage_epochs,
        ..
    } = state;
    let stats = *service.stats();
    let violations = checker.finish(&stats);

    qos_delays.sort_unstable();
    let quantile = |q: f64| nearest_rank(&qos_delays, q).unwrap_or(SimDuration::ZERO);
    let outcome = RegionOutcome {
        region,
        boards: boards_r,
        users: frontier::region_users(config.users, config.regions, config.regional_skew, region),
        active_users: plan.active_users(),
        generated: plan.generated,
        truncated: plan.truncated,
        submitted: stats.submitted,
        replies: stats.replies,
        failed: stats.failed,
        rack_served: stats.rack_served,
        regional_served: stats.regional_served,
        cpu_served: stats.cpu_served,
        failovers: stats.failovers,
        hedges: stats.hedges,
        hedges_infeasible: stats.hedges_infeasible,
        breaker_transitions: transitions,
        storm_events: schedule.events().len() as u64,
        outage_epochs,
        qos_p50: quantile(0.50),
        qos_p99: quantile(0.99),
        thermal_violations,
        peak_temp,
        suspects: stats.suspects,
        recoveries: stats.recoveries,
        detection_latency_max: stats.detection_latency_max,
        availability: 1.0
            - plan.down_board_epochs as f64 / (boards_r as u64 * config.epochs) as f64,
        violations,
    };
    (outcome, qos_delays, plan.down_board_epochs)
}

/// Runs the edge fleet. Every thread budget produces an identical
/// report (and therefore byte-identical CSV downstream): regions
/// simulate independently and merge in region order.
///
/// # Panics
///
/// Panics with the [`EdgeConfigError`] when [`EdgeConfig::validate`]
/// rejects `config`.
pub fn run(config: &EdgeConfig) -> EdgeReport {
    if let Err(err) = config.validate() {
        panic!("invalid edge configuration: {err}");
    }

    let regions: Vec<usize> = (0..config.regions).collect();
    let sharded = par::par_map(&config.budget, &regions, |_, &region| {
        simulate_region(config, region)
    });

    let mut outcomes = Vec::with_capacity(config.regions);
    let mut all_delays = Vec::new();
    let mut violations = Vec::new();
    let mut down_board_epochs = 0;
    for (outcome, delays, down) in sharded {
        down_board_epochs += down;
        for violation in &outcome.violations {
            violations.push(format!("region {}: {violation}", outcome.region));
        }
        all_delays.extend(delays);
        outcomes.push(outcome);
    }
    all_delays.sort_unstable();
    let quantile = |q: f64| nearest_rank(&all_delays, q).unwrap_or(SimDuration::ZERO);

    let sum = |f: fn(&RegionOutcome) -> u64| -> u64 { outcomes.iter().map(f).sum() };
    let submitted = sum(|r| r.submitted);
    let failed = sum(|r| r.failed);
    let hedges = sum(|r| r.hedges);
    let thermal_violations = sum(|r| r.thermal_violations);
    let board_epochs = config.boards as f64 * config.epochs as f64;
    let rate = |n: u64| {
        if submitted > 0 {
            n as f64 / submitted as f64
        } else {
            0.0
        }
    };
    EdgeReport {
        boards: config.boards,
        users: config.users,
        active_users: sum(|r| r.active_users),
        epochs: config.epochs,
        seed: config.seed,
        generated: sum(|r| r.generated),
        truncated: sum(|r| r.truncated),
        submitted,
        replies: sum(|r| r.replies),
        failed,
        rack_served: sum(|r| r.rack_served),
        regional_served: sum(|r| r.regional_served),
        cpu_served: sum(|r| r.cpu_served),
        failovers: sum(|r| r.failovers),
        hedges,
        hedges_infeasible: sum(|r| r.hedges_infeasible),
        breaker_transitions: sum(|r| r.breaker_transitions),
        storm_events: sum(|r| r.storm_events),
        outage_epochs: sum(|r| r.outage_epochs),
        shed_rate: rate(failed),
        hedge_rate: rate(hedges),
        qos_p50: quantile(0.50),
        qos_p99: quantile(0.99),
        thermal_violations,
        thermal_violation_rate: thermal_violations as f64 / board_epochs,
        peak_temp: outcomes.iter().map(|r| r.peak_temp).fold(AMBIENT, f64::max),
        suspects: sum(|r| r.suspects),
        recoveries: sum(|r| r.recoveries),
        detection_latency_max: outcomes
            .iter()
            .map(|r| r.detection_latency_max)
            .max()
            .unwrap_or(SimDuration::ZERO),
        availability: 1.0 - down_board_epochs as f64 / board_epochs,
        regions: outcomes,
        violations,
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, QosSpec, Workload};

    fn small() -> EdgeConfig {
        EdgeConfig {
            boards: 32,
            users: 2_000,
            regions: 2,
            racks_per_region: 2,
            epochs: 16,
            ..EdgeConfig::default()
        }
    }

    #[test]
    fn validate_names_each_bad_size() {
        let check = |tweak: fn(&mut EdgeConfig)| {
            let mut config = small();
            tweak(&mut config);
            config.validate()
        };
        assert_eq!(check(|_| {}), Ok(()));
        assert_eq!(check(|c| c.boards = 0), Err(EdgeConfigError::ZeroBoards));
        assert_eq!(check(|c| c.regions = 0), Err(EdgeConfigError::ZeroRegions));
        assert_eq!(
            check(|c| c.boards = 1),
            Err(EdgeConfigError::TooFewBoards {
                boards: 1,
                regions: 2
            })
        );
        assert_eq!(
            check(|c| c.racks_per_region = 0),
            Err(EdgeConfigError::ZeroRacks)
        );
        assert_eq!(check(|c| c.epochs = 0), Err(EdgeConfigError::ZeroEpochs));
        assert_eq!(
            check(|c| c.epoch = SimDuration::ZERO),
            Err(EdgeConfigError::ZeroEpochLength)
        );
        assert_eq!(
            check(|c| c.load = -1.0),
            Err(EdgeConfigError::InvalidLoad(-1.0))
        );
        for load in [0.0, f64::INFINITY, f64::NAN] {
            let config = EdgeConfig { load, ..small() };
            assert!(matches!(
                config.validate(),
                Err(EdgeConfigError::InvalidLoad(_))
            ));
        }
    }

    #[test]
    #[should_panic(expected = "need at least one board per region, got 1 for 2 regions")]
    fn run_panics_with_the_typed_error() {
        run(&EdgeConfig {
            boards: 1,
            ..small()
        });
    }

    #[test]
    fn conserves_every_request_and_holds_invariants() {
        let report = run(&small());
        assert!(report.submitted > 0, "frontier generated nothing");
        assert_eq!(report.replies + report.failed, report.submitted);
        assert_eq!(report.generated, report.submitted + report.truncated);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.qos_p99 >= report.qos_p50);
        // Nearest-rank quantiles bracket under a merge: the fleet CDF is
        // a weighted mean of the region CDFs, so the fleet quantile lies
        // between the smallest and largest region quantile.
        let p50s: Vec<SimDuration> = report.regions.iter().map(|r| r.qos_p50).collect();
        let p99s: Vec<SimDuration> = report.regions.iter().map(|r| r.qos_p99).collect();
        for (q, fleet, regional) in [(0.5, report.qos_p50, p50s), (0.99, report.qos_p99, p99s)] {
            let lo = *regional.iter().min().unwrap();
            let hi = *regional.iter().max().unwrap();
            assert!(
                lo <= fleet && fleet <= hi,
                "q={q}: {fleet} outside [{lo}, {hi}]"
            );
        }
        let per_region: u64 = report.regions.iter().map(|r| r.submitted).sum();
        assert_eq!(per_region, report.submitted);
    }

    #[test]
    fn budgets_are_invisible() {
        let config = small();
        let serial = run(&config);
        let threaded = EdgeConfig {
            budget: par::Budget::with_threads(4),
            ..config
        };
        assert_eq!(run(&threaded), serial, "edge runs must be budget-invariant");
    }

    #[test]
    fn seeds_are_reproducible_and_distinct() {
        let config = small();
        assert_eq!(run(&config), run(&config), "same seed must reproduce");
        let reseeded = EdgeConfig {
            seed: 1234,
            ..config.clone()
        };
        assert_ne!(run(&config), run(&reseeded), "seeds must matter");
    }

    #[test]
    fn flash_crowd_drives_thermal_violations() {
        let config = EdgeConfig {
            flash: Some(FlashCrowd {
                region: 0,
                multiplier: 8.0,
            }),
            ..small()
        };
        let report = run(&config);
        assert!(
            report.thermal_violations > 0,
            "an 8x flash crowd must overheat boards"
        );
        assert!(report.peak_temp > THERMAL_LIMIT);
        // The crowd hits region 0; the other region stays cooler.
        assert!(report.regions[0].peak_temp > report.regions[1].peak_temp);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn backbone_outage_darkens_region_zero_only() {
        let config = EdgeConfig {
            outage: true,
            ..small()
        };
        let report = run(&config);
        assert!(report.outage_epochs > 0, "outage must darken epochs");
        assert_eq!(report.regions[0].outage_epochs, report.outage_epochs);
        assert_eq!(report.regions[1].outage_epochs, 0);
        assert!(report.storm_events >= 2, "outage + restore events");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_ne!(report, run(&small()), "the storm must change the run");
    }

    /// The overload preset, plain and under the full storm: no late reply
    /// and no lost ticket, every request resolved, bounded shedding that
    /// still serves, breakers that cycle under the storm, and the same
    /// report at every thread budget.
    #[test]
    fn overload_presets_hold_the_carried_bounds() {
        for storm in [None, Some(StormPreset::All)] {
            let config = EdgeConfig::overload(storm);
            let report = run(&config);
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            assert_eq!(report.replies + report.failed, report.submitted);
            assert!(report.replies > 0, "the rack served nothing");
            assert!(
                0.0 < report.shed_rate && report.shed_rate < 1.0,
                "shed rate {} unbounded",
                report.shed_rate
            );
            if storm.is_some() {
                assert!(report.breaker_transitions > 0, "the storm never tripped");
            }
            let threaded = EdgeConfig {
                budget: par::Budget::with_threads(4),
                ..config
            };
            assert_eq!(run(&threaded), report, "{storm:?} is budget-variant");
        }
    }

    fn small_storm(storm: StormPreset) -> EdgeConfig {
        EdgeConfig {
            boards: 8,
            racks_per_region: 2,
            epochs: 20,
            seed: 5,
            ..EdgeConfig::chaos(storm)
        }
    }

    /// One row per preset: `(preset, detects and recovers, costs
    /// availability)`. Every storm must hold the invariants, conserve
    /// requests and be independent of the thread budget.
    #[test]
    fn storm_presets_hold_the_invariants() {
        use StormPreset::*;
        let table = [
            (CrashWave, false, true),
            (Partition, false, false),
            (Heartbeat, true, false),
            (SlowTier, false, false),
            (All, true, true),
        ];
        for (storm, detects, costs_availability) in table {
            let config = small_storm(storm);
            let report = run(&config);
            assert!(
                report.violations.is_empty(),
                "storm `{storm}` violated invariants: {:?}",
                report.violations
            );
            assert!(report.submitted > 0, "storm `{storm}` submitted nothing");
            assert_eq!(
                report.replies + report.failed,
                report.submitted,
                "storm `{storm}` lost requests"
            );
            assert_eq!(report.generated, report.submitted + report.truncated);
            assert!(report.storm_events > 0, "storm `{storm}` injected nothing");
            if detects {
                assert!(report.suspects > 0, "`{storm}`: silent rack not suspected");
                assert!(report.recoveries > 0, "`{storm}`: rack never recovered");
                assert!(report.detection_latency_max > SimDuration::ZERO);
            }
            assert_eq!(
                report.availability < 1.0,
                costs_availability,
                "storm `{storm}` availability {}",
                report.availability
            );
            let threaded = EdgeConfig {
                budget: par::Budget::with_threads(4),
                ..config
            };
            assert_eq!(run(&threaded), report, "storm `{storm}` is budget-variant");
        }
    }

    /// Streams region 0 of `config` through every epoch; returns the plan
    /// with its counts.
    fn stream_region(config: &EdgeConfig, mut each: impl FnMut(&PlannedRequest)) -> RegionPlan {
        let schedule = storm_schedule(config, 0);
        let mut plan = RegionPlan::new(config, 0, &schedule);
        for epoch in 0..config.epochs {
            plan.next_epoch(config, 0, epoch).iter().for_each(&mut each);
        }
        plan
    }

    #[test]
    fn crashed_boards_send_nothing_while_down() {
        let config = small_storm(StormPreset::CrashWave);
        let schedule = storm_schedule(&config, 0);
        let spans =
            board_down_spans(&schedule, config.boards).expect("a crash wave crashes boards");
        let epoch_ns = config.epoch.as_nanos();
        let plan = stream_region(&config, |request| {
            let epoch = request.at.as_nanos() / epoch_ns;
            assert!(
                !spans[request.board]
                    .iter()
                    .any(|&(from, until)| (from..until).contains(&epoch)),
                "board {} was down in epoch {epoch} but sent a request",
                request.board
            );
        });
        assert!(plan.down_board_epochs > 0);
        // The same demand without the storm homes requests on those
        // board-epochs, so the filter really removed some.
        let calm = stream_region(
            &EdgeConfig {
                storm: None,
                ..config
            },
            |_| {},
        );
        assert!(calm.generated > plan.generated);
    }

    #[test]
    fn replay_demand_drives_the_fleet() {
        let workload = Workload::new(
            (0..200)
                .map(|i| workloads::ArrivalSpec {
                    at: SimTime::from_millis(i * 7),
                    benchmark: Benchmark::Adi,
                    qos: QosSpec::FractionOfMaxBig(0.3),
                    total_instructions: None,
                })
                .collect(),
        );
        let base = small();
        let replay = workloads::replay::EpochReplay::new(&workload, base.epoch, base.epochs);
        let expected = replay.total() as u64;
        let config = EdgeConfig {
            demand: Demand::Replay(replay),
            ..base
        };
        let report = run(&config);
        assert_eq!(report.generated, expected);
        assert_eq!(report.replies + report.failed, report.submitted);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn network_delays_show_up_in_qos() {
        let config = small();
        let report = run(&config);
        // QoS delay includes uplink + downlink: strictly more than two
        // edge propagation latencies.
        let floor = config.network.edge.latency * 2;
        assert!(
            report.qos_p50 > floor,
            "p50 {} must exceed the network floor {floor}",
            report.qos_p50
        );
    }
}
