//! Chaos harness: seeded fault storms against the two-tier `npu-serve`
//! failover topology, under an always-on invariant checker.
//!
//! Each run drives per-board request streams through a
//! [`npu_serve::TieredService`] (per-rack services, a regional tier, a
//! local-CPU last rung) while a [`faults::FleetSchedule`] storm derived
//! from the seed injects crash waves, rack partitions, heartbeat
//! silence and regional slowdowns at barrier epochs. The tier's own
//! [`npu_serve::TierChecker`] watches every request and breaker
//! transition (conservation, zero late replies, at most one hedge per
//! request, legal breaker edges, virtual-time monotonicity).
//!
//! The run is deterministic: byte-identical CSV at every thread budget —
//! the CI chaos gate diffs exactly that.

use std::fmt;

use faults::{FleetSchedule, StormBuilder};
use hmc_types::{SimDuration, SimTime};
use nn::{Matrix, Mlp};
use npu_serve::quantile::nearest_rank;
use npu_serve::{
    seeded_payload, ClientId, TierChecker, TierConfig, TierOutcome, TierSubmit, TierTicket,
    TieredService,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Length of one chaos barrier epoch.
const CHAOS_EPOCH: SimDuration = SimDuration::from_millis(100);
/// Completion deadline attached to every request (past submission).
const CHAOS_DEADLINE: SimDuration = SimDuration::from_millis(80);
/// Hedge floor. Sits just under the typical rack latency (~6 ms) so
/// tail-latency rack requests genuinely race the regional tier (a few
/// percent of traffic hedges) while the p99-derived timeout takes over
/// once the latency window fills.
const CHAOS_HEDGE_MIN: SimDuration = SimDuration::from_millis(5);

/// The seeded fault storm a chaos run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormPreset {
    /// Two crash waves take boards out and bring them back.
    CrashWave,
    /// A rack is partitioned from the regional tier, then heals.
    Partition,
    /// A rack goes heartbeat-silent; the failure detector must notice.
    Heartbeat,
    /// The regional tier slows down, then recovers.
    SlowTier,
    /// All of the above, overlapped, plus steady board churn.
    All,
}

impl StormPreset {
    /// Every preset, in CLI/reporting order.
    pub const ALL: [StormPreset; 5] = [
        StormPreset::CrashWave,
        StormPreset::Partition,
        StormPreset::Heartbeat,
        StormPreset::SlowTier,
        StormPreset::All,
    ];

    /// The CLI name of this preset.
    pub fn name(&self) -> &'static str {
        match self {
            StormPreset::CrashWave => "crash-wave",
            StormPreset::Partition => "partition",
            StormPreset::Heartbeat => "heartbeat",
            StormPreset::SlowTier => "slow-tier",
            StormPreset::All => "all",
        }
    }

    /// Parses a CLI name; `None` for unknown values (the caller prints
    /// usage and exits 2 — never panics).
    pub fn parse(name: &str) -> Option<StormPreset> {
        StormPreset::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for StormPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Boards generating requests (one per epoch while alive).
    pub boards: usize,
    /// Racks in the tier topology (boards map round-robin).
    pub racks: usize,
    /// 100 ms barrier epochs to simulate.
    pub epochs: u64,
    /// Master seed of the storm schedule and the payloads.
    pub seed: u64,
    /// The fault storm to inject.
    pub storm: StormPreset,
    /// Host-thread budget for payload generation; the report and CSV
    /// are byte-identical at every budget.
    pub budget: par::Budget,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            boards: 12,
            racks: 3,
            epochs: 40,
            seed: 11,
            storm: StormPreset::All,
            budget: par::Budget::serial(),
        }
    }
}

/// Aggregate result of a chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Timed fault events the storm injected.
    pub storm_events: u64,
    /// Requests submitted to the tier.
    pub submitted: u64,
    /// Requests answered with a reply (any rung).
    pub replies: u64,
    /// Requests that ended in a typed failure.
    pub failed: u64,
    /// Replies served by the board's own rack service.
    pub rack_served: u64,
    /// Replies served by the regional tier.
    pub regional_served: u64,
    /// Replies served by the local-CPU last rung.
    pub cpu_served: u64,
    /// Requests routed past their primary rack (crash, partition,
    /// suspicion, open breaker, or admission back-pressure).
    pub failovers: u64,
    /// Hedged requests (regional duplicate fired on the p99 timeout).
    pub hedges: u64,
    /// Hedges that beat the rack reply.
    pub hedge_wins: u64,
    /// Hedges per admitted request.
    pub hedge_overhead: f64,
    /// Heartbeats the failure detector processed.
    pub heartbeats: u64,
    /// Racks the detector declared suspect.
    pub suspects: u64,
    /// Suspected racks that recovered.
    pub recoveries: u64,
    /// Mean failure-detection latency (silence start → suspicion).
    pub detection_latency_avg: SimDuration,
    /// Worst-case failure-detection latency.
    pub detection_latency_max: SimDuration,
    /// Tier breaker transitions observed.
    pub breaker_transitions: u64,
    /// Median reply latency.
    pub p50: SimDuration,
    /// 99th-percentile reply latency.
    pub p99: SimDuration,
    /// Fraction of board-epochs the fleet was up under the storm.
    pub availability: f64,
    /// Invariant violations (the gate requires none).
    pub violations: Vec<String>,
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Chaos `{}`: {} boards / {} racks x {} epochs, {} storm events",
            self.config.storm,
            self.config.boards,
            self.config.racks,
            self.config.epochs,
            self.storm_events
        )?;
        writeln!(
            f,
            "  requests: {} submitted -> {} replies + {} typed failures ({} failovers, availability {:.4})",
            self.submitted, self.replies, self.failed, self.failovers, self.availability
        )?;
        writeln!(
            f,
            "  rungs:    {} rack / {} regional / {} cpu, p50 {} p99 {}",
            self.rack_served, self.regional_served, self.cpu_served, self.p50, self.p99
        )?;
        writeln!(
            f,
            "  hedges:   {} fired ({} won, {:.3} per request)",
            self.hedges, self.hedge_wins, self.hedge_overhead
        )?;
        writeln!(
            f,
            "  detector: {} beats, {} suspects, {} recoveries, detection avg {} max {}",
            self.heartbeats,
            self.suspects,
            self.recoveries,
            self.detection_latency_avg,
            self.detection_latency_max
        )?;
        writeln!(
            f,
            "  invariants: {} violations ({} breaker transitions checked)",
            self.violations.len(),
            self.breaker_transitions
        )?;
        for violation in &self.violations {
            writeln!(f, "    VIOLATION: {violation}")?;
        }
        Ok(())
    }
}

/// Derives the storm schedule from the preset. Epoch anchors scale with
/// the run length so every preset stays meaningful at any `--epochs`.
fn storm_schedule(config: &ChaosConfig) -> FleetSchedule {
    let e = config.epochs;
    let quarter = (e / 4).max(1);
    let builder = StormBuilder::new(config.seed, config.boards, e);
    let builder = match config.storm {
        StormPreset::CrashWave => builder
            .crash_wave(quarter, (config.boards / 3).max(1), quarter)
            .crash_wave(3 * quarter, (config.boards / 4).max(1), quarter),
        StormPreset::Partition => builder.rack_partition(0, quarter, quarter),
        StormPreset::Heartbeat => builder.heartbeat_loss(0, quarter, quarter),
        StormPreset::SlowTier => builder.slow_tier(3.0, quarter, 2 * quarter),
        StormPreset::All => builder
            .crash_wave(quarter, (config.boards / 3).max(1), quarter)
            .rack_partition(0, quarter, quarter)
            .heartbeat_loss(config.racks.saturating_sub(1), 2 * quarter, quarter)
            .slow_tier(3.0, 2 * quarter, quarter)
            .churn(5, 3),
    };
    builder.build()
}

/// One planned request.
struct Arrival {
    board: usize,
    at: SimTime,
    deadline: SimTime,
    payload_seed: u64,
    rows: usize,
}

/// The immutable plan of one run.
struct Plan {
    schedule: FleetSchedule,
    arrivals: Vec<Arrival>,
    payloads: Vec<Matrix>,
    /// Arrival index ranges per epoch (arrivals are stored epoch-major,
    /// time-sorted within each epoch).
    epoch_ranges: Vec<(usize, usize)>,
}

/// Plans the whole run: one request per alive board per epoch (alive is
/// pure schedule data), jittered inside the epoch, time-sorted.
fn plan(config: &ChaosConfig, width: usize) -> Plan {
    let schedule = storm_schedule(config);
    let epoch_ns = CHAOS_EPOCH.as_nanos();
    let mut arrivals = Vec::new();
    let mut epoch_ranges = Vec::with_capacity(config.epochs as usize);
    for epoch in 0..config.epochs {
        let start = arrivals.len();
        let base = SimTime::from_nanos(epoch * epoch_ns);
        let mut batch: Vec<Arrival> = (0..config.boards)
            .filter(|&board| schedule.alive(board, epoch))
            .map(|board| {
                let seed =
                    sim_core::splitmix64(config.seed ^ (epoch << 24) ^ ((board as u64) << 4));
                let at = base + SimDuration::from_nanos(seed % (epoch_ns / 2));
                Arrival {
                    board,
                    at,
                    deadline: at + CHAOS_DEADLINE,
                    payload_seed: seed,
                    rows: 1 + (seed % 2) as usize,
                }
            })
            .collect();
        // The tier clock is nondecreasing between flushes: submit in
        // time order (board index breaks ties deterministically).
        batch.sort_by_key(|a| (a.at, a.board));
        arrivals.extend(batch);
        epoch_ranges.push((start, arrivals.len()));
    }
    let payloads = par::par_map(&config.budget, &arrivals, |_, a| {
        seeded_payload(a.payload_seed, a.rows, width)
    });
    Plan {
        schedule,
        arrivals,
        payloads,
        epoch_ranges,
    }
}

/// Mutable run state threaded through epoch processing.
struct ChaosState {
    service: TieredService,
    checker: TierChecker,
    /// Reply latencies in resolution order (per-epoch, time-sorted).
    latencies: Vec<SimDuration>,
    transitions: u64,
}

/// Processes one barrier epoch — storm events, submissions, the flush,
/// outcome resolution, transition checks.
fn process_epoch(plan: &Plan, config: &ChaosConfig, state: &mut ChaosState, epoch: u64) {
    let base = SimTime::from_nanos(epoch * CHAOS_EPOCH.as_nanos());
    let barrier = base + CHAOS_EPOCH;
    state.checker.observe_barrier(barrier);
    for event in plan.schedule.events_at(epoch) {
        state.service.apply_fault(event.fault, base);
    }

    let (start, end) = plan.epoch_ranges[epoch as usize];
    let mut tickets: Vec<(TierTicket, usize)> = Vec::with_capacity(end - start);
    for idx in start..end {
        let arrival = &plan.arrivals[idx];
        let ticket = state
            .service
            .submit(
                plan.payloads[idx].clone(),
                arrival.at,
                TierSubmit {
                    rack: arrival.board % config.racks,
                    client: ClientId::new(arrival.board as u64),
                    deadline: Some(arrival.deadline),
                },
            )
            .expect("chaos payloads are valid");
        state.checker.observe_submit();
        tickets.push((ticket, idx));
    }
    state.service.flush(barrier);

    for (ticket, idx) in tickets {
        let arrival = &plan.arrivals[idx];
        match state.service.take_outcome(ticket) {
            Some(outcome) => {
                if let TierOutcome::Reply(reply) = &outcome {
                    state.latencies.push(reply.latency);
                }
                state
                    .checker
                    .observe_outcome(arrival.at, arrival.deadline, &outcome);
            }
            None => state.checker.observe_lost_ticket(arrival.at),
        }
    }
    let transitions = state.service.drain_transitions();
    state.transitions += transitions.len() as u64;
    state.checker.observe_transitions(&transitions);
}

/// Runs the chaos experiment, one barrier epoch after another.
///
/// # Panics
///
/// Panics on a zero board, rack or epoch count.
pub fn run(config: &ChaosConfig) -> ChaosReport {
    assert!(config.boards > 0, "need at least one board");
    assert!(config.racks > 0, "need at least one rack");
    assert!(config.epochs > 0, "need at least one epoch");
    let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(config.seed));
    let tier_config = TierConfig {
        racks: config.racks,
        hedge_min: CHAOS_HEDGE_MIN,
        breaker_threshold: 2,
        breaker_cooldown: 3,
        ..TierConfig::default()
    };
    let the_plan = plan(config, mlp.input_size());
    let mut state = ChaosState {
        service: TieredService::new(&mlp, tier_config),
        checker: TierChecker::default(),
        latencies: Vec::new(),
        transitions: 0,
    };

    for epoch in 0..config.epochs {
        process_epoch(&the_plan, config, &mut state, epoch);
    }

    let ChaosState {
        mut service,
        checker,
        mut latencies,
        transitions,
    } = state;
    let stats = *service.stats();
    // Drain the per-service trace streams so a longer pipeline behind
    // the harness can consume them; the chaos report only needs counts.
    let _ = service.drain_service_events();
    let violations = checker.finish(&stats);

    latencies.sort_unstable();
    let quantile = |q: f64| nearest_rank(&latencies, q).unwrap_or(SimDuration::ZERO);

    let down: u64 = (0..config.boards)
        .map(|board| {
            the_plan
                .schedule
                .down_spans(board)
                .into_iter()
                .map(|(from, until)| until.min(config.epochs) - from)
                .sum::<u64>()
        })
        .sum();
    let total = config.boards as u64 * config.epochs;

    ChaosReport {
        config: *config,
        storm_events: the_plan.schedule.events().len() as u64,
        submitted: stats.submitted,
        replies: stats.replies,
        failed: stats.failed,
        rack_served: stats.rack_served,
        regional_served: stats.regional_served,
        cpu_served: stats.cpu_served,
        failovers: stats.failovers,
        hedges: stats.hedges,
        hedge_wins: stats.hedge_wins,
        hedge_overhead: if stats.submitted > 0 {
            stats.hedges as f64 / stats.submitted as f64
        } else {
            0.0
        },
        heartbeats: stats.heartbeats,
        suspects: stats.suspects,
        recoveries: stats.recoveries,
        detection_latency_avg: stats
            .detection_latency_total
            .as_nanos()
            .checked_div(stats.suspects)
            .map(SimDuration::from_nanos)
            .unwrap_or(SimDuration::ZERO),
        detection_latency_max: stats.detection_latency_max,
        breaker_transitions: transitions,
        p50: quantile(0.50),
        p99: quantile(0.99),
        availability: 1.0 - down as f64 / total as f64,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(storm: StormPreset) -> ChaosConfig {
        ChaosConfig {
            boards: 8,
            racks: 2,
            epochs: 20,
            seed: 5,
            storm,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn every_storm_holds_the_invariants() {
        for storm in StormPreset::ALL {
            let report = run(&small(storm));
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
        }
    }

    #[test]
    fn budgets_are_invisible() {
        let config = small(StormPreset::All);
        let serial = run(&config);
        let threaded_cfg = ChaosConfig {
            budget: par::Budget::with_threads(4),
            ..config
        };
        let mut threaded = run(&threaded_cfg);
        threaded.config = config;
        assert_eq!(threaded, serial, "chaos must be budget-invariant");
    }

    #[test]
    fn heartbeat_storm_detects_and_recovers() {
        let report = run(&small(StormPreset::Heartbeat));
        assert!(report.suspects > 0, "silent rack must be suspected");
        assert!(report.recoveries > 0, "restored rack must recover");
        assert!(
            report.detection_latency_max > SimDuration::ZERO,
            "detection latency must be measured"
        );
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn crash_wave_costs_availability_but_conserves_requests() {
        let report = run(&small(StormPreset::CrashWave));
        assert!(report.availability < 1.0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.replies + report.failed, report.submitted);
    }
}
