//! Fleet experiment: N independent simulated boards sharing one
//! `npu-serve` inference service.
//!
//! Every board runs its own platform, workload and TOP-IL migration
//! policy, stepped in lockstep. At each 500 ms migration epoch all boards
//! prepare their feature batches ([`topil::MigrationPolicy::prepare`]),
//! submit them to the shared service with a small per-board jitter, and
//! complete the epoch from the batched replies
//! ([`topil::MigrationPolicy::complete`]). The dynamic batcher coalesces
//! the fleet's requests into a few large device calls, amortizing the
//! Kirin 970's ~3.9 ms driver round-trip that dominates solo inference —
//! while per-request quantization groups keep every reply bit-identical
//! to dedicated-device issuance (verified request-by-request during the
//! run).
//!
//! The whole experiment runs in virtual time and is fully deterministic:
//! the same configuration produces byte-identical CSV output.
//!
//! One lockstep loop executes the run: every alive board is visited at
//! every 500 ms barrier, and boards are stepped between barriers in
//! parallel under the thread budget. A crashed board's platform ticks
//! are replayed on rejoin, in the loop's exact per-tick order.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use checkpoint::CheckpointStore;
use faults::{FleetFault, FleetSchedule, StormBuilder};
use hikey_platform::{default_placement, Platform, PlatformConfig};
use hmc_types::{SimDuration, SimTime};
use npu::{KernelMode, NpuDevice, NpuModel};
use npu_serve::{NpuService, RequestTicket, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use topil::dvfs::DvfsControlLoop;
use topil::governor::{DVFS_PERIOD, MIGRATION_PERIOD};
use topil::oracle::Scenario;
use topil::training::{IlTrainer, TrainSettings};
use topil::{ClientReply, IlModel, InferenceBackend, MigrationPolicy, PreparedEpoch};
use workloads::{ArrivalSpec, MixedWorkloadConfig, WorkloadGenerator};

/// Resubmissions of a board's request after a queue-full rejection,
/// each at the advertised retry-after, before the board goes without a
/// reply this epoch.
const MAX_RESUBMITS: u32 = 3;

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Simulated boards sharing the service.
    pub boards: usize,
    /// Lockstep 500 ms migration epochs to simulate.
    pub epochs: u64,
    /// NPU devices in the shared pool.
    pub devices: usize,
    /// Maximum requests coalesced into one device call.
    pub max_batch: usize,
    /// Master seed (model training and per-board workloads derive from
    /// it).
    pub seed: u64,
    /// Host-thread budget for stepping boards between lockstep barriers.
    /// Boards only interact at migration epochs, so each one is advanced
    /// to the next barrier independently; the report and CSV are
    /// byte-identical at every budget.
    pub budget: par::Budget,
    /// Seeded board churn: boards crash, drain and later rejoin on a
    /// fixed cadence (see [`ChurnSpec`]). `None` runs a stable fleet.
    pub churn: Option<ChurnSpec>,
    /// Numeric inference kernel of the shared service. Both modes are
    /// bit-identical, so the report and CSV do not depend on this; the
    /// kernel CI gate diffs a scalar-forced run against the default to
    /// prove it.
    pub kernel: KernelMode,
    /// Capacity of the service's policy-output cache (0 disables it).
    /// The cache replays numeric outputs for repeated quantized feature
    /// vectors; simulated device time and batching are unaffected.
    pub policy_cache: usize,
}

/// Periodic crash/rejoin churn injected into a fleet run.
///
/// The schedule itself is derived from the fleet seed through the
/// [`faults::StormBuilder`] fleet-fault family, so the same configuration
/// always crashes the same boards at the same epochs. A crashed board's
/// in-flight request is absorbed by its next alive sibling, its running
/// applications are killed (drained at the crash instant), its pending
/// arrivals are rerouted to the sibling, and its policy is checkpointed
/// through the `checkpoint` crate; on rejoin the policy is restored from
/// that checkpoint and the board's deferred platform ticks are replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// A crash is drawn every `period` epochs (the first at `period`).
    pub period: u64,
    /// Epochs a crashed board stays down before rejoining.
    pub down: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            boards: 16,
            epochs: 200,
            devices: 2,
            max_batch: 16,
            seed: 7,
            budget: par::Budget::serial(),
            churn: None,
            kernel: KernelMode::default(),
            policy_cache: 1024,
        }
    }
}

/// Per-board outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardOutcome {
    /// Board index.
    pub board: usize,
    /// Average die temperature over the run.
    pub avg_temp_c: f64,
    /// Peak die temperature over the run.
    pub peak_temp_c: f64,
    /// Applications that finished with a violated QoS target.
    pub violations: usize,
    /// Applications that finished.
    pub executions: usize,
    /// Migrations the board's policy executed.
    pub migrations: u64,
    /// Epochs that produced no decision (reply missing or rejected).
    pub degraded_epochs: u64,
    /// Epochs served by a CPU fallback path.
    pub fallback_epochs: u64,
    /// Times this board crashed out of the fleet.
    pub crashes: u64,
    /// Epochs this board spent down (crashed, not yet rejoined).
    pub down_epochs: u64,
    /// In-flight sibling requests this board absorbed at a crash barrier.
    pub reassigned: u64,
    /// Pending arrivals rerouted to this board from crashed siblings.
    pub adopted_arrivals: u64,
}

/// Aggregate result of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Requests admitted by the service.
    pub submitted: u64,
    /// Submissions bounced by admission control (before retry).
    pub rejected_submissions: u64,
    /// Requests served with a reply.
    pub served: u64,
    /// Requests admitted but never served (must be zero after a run).
    pub dropped: u64,
    /// Device calls dispatched.
    pub batches: u64,
    /// Mean requests per device call.
    pub mean_batch_size: f64,
    /// `histogram[n]` = device calls that coalesced `n` requests.
    pub batch_histogram: Vec<u64>,
    /// Median per-request inference latency (submit → completion).
    pub p50: SimDuration,
    /// 95th-percentile per-request inference latency.
    pub p95: SimDuration,
    /// 99th-percentile per-request inference latency.
    pub p99: SimDuration,
    /// Device time the same requests would cost served solo on dedicated
    /// NPUs (one driver round-trip each).
    pub serial_device_time: SimDuration,
    /// Device time the shared pool actually spent.
    pub pool_device_time: SimDuration,
    /// `serial_device_time / pool_device_time` — the batching speedup.
    pub speedup_vs_serial: f64,
    /// Served requests per second of pool device time.
    pub throughput_rps: f64,
    /// Replies that differed from dedicated-device inference (must be
    /// zero: batching is bit-exact).
    pub mismatches: u64,
    /// Policy-cache hits across the run (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Policy-cache misses across the run (0 when the cache is disabled).
    pub cache_misses: u64,
    /// Timed fleet-fault events in the churn schedule (zero without
    /// churn).
    pub churn_events: u64,
    /// In-flight requests absorbed by a sibling at a crash barrier.
    pub reassigned_inflight: u64,
    /// Policies restored from a crash-time checkpoint on rejoin.
    pub checkpoint_restores: u64,
    /// Fraction of board-epochs the fleet was up:
    /// `1 - down_board_epochs / (boards * epochs)`.
    pub availability: f64,
    /// Per-board QoS/thermal outcomes.
    pub boards: Vec<BoardOutcome>,
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fleet: {} boards x {} epochs on {} shared NPU(s), max batch {}",
            self.config.boards, self.config.epochs, self.config.devices, self.config.max_batch
        )?;
        writeln!(
            f,
            "  requests: {} served / {} submitted ({} rejected submissions, {} dropped)",
            self.served, self.submitted, self.rejected_submissions, self.dropped
        )?;
        writeln!(
            f,
            "  batches:  {} (mean size {:.2}), latency p50/p95/p99 = {} / {} / {}",
            self.batches, self.mean_batch_size, self.p50, self.p95, self.p99
        )?;
        writeln!(
            f,
            "  device time: {} pooled vs {} serial -> {:.2}x speedup, {:.1} req/s, {} mismatches",
            self.pool_device_time,
            self.serial_device_time,
            self.speedup_vs_serial,
            self.throughput_rps,
            self.mismatches
        )?;
        if self.cache_hits + self.cache_misses > 0 {
            writeln!(
                f,
                "  policy cache: {} hits / {} probes ({:.1}% hit rate)",
                self.cache_hits,
                self.cache_hits + self.cache_misses,
                100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64
            )?;
        }
        writeln!(f, "  batch-size histogram:")?;
        for (n, &count) in self.batch_histogram.iter().enumerate() {
            if count > 0 {
                writeln!(f, "    {n:>3} requests: {count}")?;
            }
        }
        if self.churn_events > 0 {
            let crashes: u64 = self.boards.iter().map(|b| b.crashes).sum();
            writeln!(
                f,
                "  churn: {} crashes, availability {:.4}, {} in-flight reassigned, {} checkpoint restores",
                crashes, self.availability, self.reassigned_inflight, self.checkpoint_restores
            )?;
        }
        let violations: usize = self.boards.iter().map(|b| b.violations).sum();
        let executions: usize = self.boards.iter().map(|b| b.executions).sum();
        let degraded: u64 = self.boards.iter().map(|b| b.degraded_epochs).sum();
        writeln!(
            f,
            "  boards: {}/{} QoS violations, {} degraded epochs",
            violations, executions, degraded
        )
    }
}

/// One simulated board: platform, pending arrivals, policy and DVFS loop.
struct Board {
    platform: Platform,
    policy: MigrationPolicy,
    dvfs: DvfsControlLoop,
    arrivals: Vec<ArrivalSpec>,
    next_arrival: usize,
    dvfs_skip: u8,
    /// Submission offset within the epoch, staggering the fleet's
    /// requests across the batching window.
    jitter: SimDuration,
    migrations: u64,
    degraded_epochs: u64,
    fallback_epochs: u64,
    /// False while the board is crashed out of the fleet. Dead boards
    /// take no barriers; their platform ticks replay on rejoin (or at the
    /// final catch-up).
    alive: bool,
    crashes: u64,
    reassigned: u64,
    adopted_arrivals: u64,
}

/// Trains the small IL model the fleet deploys on every board.
pub fn fleet_model(seed: u64) -> IlModel {
    let settings = TrainSettings {
        nn: nn::TrainConfig {
            max_epochs: 60,
            patience: 12,
            ..nn::TrainConfig::default()
        },
        ..TrainSettings::default()
    };
    IlTrainer::new(settings).train(&Scenario::standard_set(8, 0xF1EE7), seed)
}

/// Trains a model and runs the fleet.
pub fn run(config: &FleetConfig) -> FleetReport {
    run_with_model(&fleet_model(config.seed), config)
}

/// The shared-service configuration derived from a fleet config.
fn serve_config(config: &FleetConfig) -> ServeConfig {
    ServeConfig {
        devices: config.devices,
        max_batch: config.max_batch,
        // Admit at least one pending request per board so a full fleet
        // wave is never bounced.
        queue_capacity: config.boards.max(ServeConfig::default().queue_capacity),
        kernel: config.kernel,
        policy_cache: config.policy_cache,
        ..ServeConfig::default()
    }
}

/// Builds the per-board platforms, policies and workloads.
fn make_boards(model: &IlModel, config: &FleetConfig, serve: &ServeConfig) -> Vec<Board> {
    (0..config.boards)
        .map(|i| {
            let workload_cfg = MixedWorkloadConfig {
                num_apps: 4,
                mean_interarrival: SimDuration::from_secs(8),
                total_instructions: Some(12_000_000_000),
                ..MixedWorkloadConfig::default()
            };
            let seed = config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
            let workload =
                WorkloadGenerator::mixed(&workload_cfg, &mut StdRng::seed_from_u64(seed));
            Board {
                platform: Platform::new(PlatformConfig::default()),
                policy: MigrationPolicy::new(model.clone()),
                dvfs: DvfsControlLoop::new(),
                arrivals: workload.iter().copied().collect(),
                next_arrival: 0,
                dvfs_skip: 0,
                jitter: SimDuration::from_nanos(
                    (i as u64).wrapping_mul(997_000) % serve.max_wait.as_nanos(),
                ),
                migrations: 0,
                degraded_epochs: 0,
                fallback_epochs: 0,
                alive: true,
                crashes: 0,
                reassigned: 0,
                adopted_arrivals: 0,
            }
        })
        .collect()
}

/// Uniquifies checkpoint directories across runs within one process.
static CHURN_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runtime state of an active churn schedule.
struct ChurnState {
    schedule: FleetSchedule,
    /// Per-board checkpoint stores live under here; removed at finalize.
    base_dir: PathBuf,
    restores: u64,
}

/// Derives the seeded crash/rejoin schedule from the fleet config.
fn churn_state(config: &FleetConfig) -> Option<ChurnState> {
    let spec = config.churn?;
    let schedule = StormBuilder::new(config.seed, config.boards, config.epochs)
        .churn(spec.period, spec.down)
        .build();
    let base_dir = std::env::temp_dir().join(format!(
        "topil-fleet-churn-{}-{}",
        std::process::id(),
        CHURN_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    Some(ChurnState {
        schedule,
        base_dir,
        restores: 0,
    })
}

/// Serializes a board policy's model for the crash-time checkpoint.
fn policy_snapshot(policy: &MigrationPolicy) -> Vec<u8> {
    let model = policy.model();
    let mut bytes = Vec::new();
    nn::persist::write_standardizer(model.standardizer(), &mut bytes)
        .expect("serialize standardizer");
    nn::persist::write_mlp(model.mlp(), &mut bytes).expect("serialize mlp");
    bytes
}

/// Rebuilds a board policy from a checkpoint payload.
fn restore_policy(bytes: &[u8]) -> MigrationPolicy {
    let mut reader = bytes;
    let standardizer = nn::persist::read_standardizer(&mut reader).expect("restore standardizer");
    let mlp = nn::persist::read_mlp(&mut reader).expect("restore mlp");
    MigrationPolicy::new(IlModel::new(mlp, standardizer))
}

/// First alive board in the cyclic scan after `board` — the schedule's
/// min-alive guarantee ensures one exists at every crash epoch.
fn sibling_of(schedule: &FleetSchedule, epoch: u64, board: usize) -> usize {
    let boards = schedule.boards();
    (1..boards)
        .map(|step| (board + step) % boards)
        .find(|&j| schedule.alive(j, epoch))
        .expect("storm schedule keeps at least one board alive")
}

/// Boards crashing at `epoch`, each paired with the sibling absorbing
/// its in-flight request and rerouted arrivals.
fn crashes_at(schedule: &FleetSchedule, epoch: u64) -> Vec<(usize, usize)> {
    schedule
        .events_at(epoch)
        .filter_map(|event| match event.fault {
            FleetFault::BoardCrash { board } => Some((board, sibling_of(schedule, epoch, board))),
            _ => None,
        })
        .collect()
}

/// The rejoin epoch of the down span starting at `epoch` (clamped to the
/// run length for spans that never close).
fn rejoin_epoch(schedule: &FleetSchedule, board: usize, epoch: u64) -> u64 {
    schedule
        .down_spans(board)
        .into_iter()
        .find(|&(from, _)| from == epoch)
        .map(|(_, until)| until.min(schedule.epochs()))
        .unwrap_or(schedule.epochs())
}

/// Brings every board rejoining at `epoch` back: replays its deferred
/// platform ticks up to the barrier and restores its policy from the
/// crash-time checkpoint (a fresh store open, exactly like a process
/// restart would).
fn apply_rejoins(boards: &mut [Board], churn: &mut ChurnState, epoch: u64, now: SimTime) {
    let rejoining: Vec<usize> = churn
        .schedule
        .events_at(epoch)
        .filter_map(|event| match event.fault {
            FleetFault::BoardRejoin { board } => Some(board),
            _ => None,
        })
        .collect();
    for i in rejoining {
        let board = &mut boards[i];
        debug_assert!(!board.alive, "rejoin of a board that never crashed");
        catch_up(board, now);
        let mut store =
            CheckpointStore::open(churn.base_dir.join(format!("board-{i}")), "fleet-policy", 2)
                .expect("reopen checkpoint store");
        let recovery = store.load_latest().expect("load policy checkpoint");
        let snapshot = recovery
            .snapshot
            .expect("crashed board saved a policy checkpoint");
        board.policy = restore_policy(&snapshot.payload);
        board.alive = true;
        churn.restores += 1;
    }
}

/// Executes the crash half of a barrier, after the epoch's replies were
/// redeemed: checkpoints each dying board's policy, kills its running
/// applications (outcomes recorded at the crash instant), reroutes the
/// arrivals landing inside its down window to the sibling and marks it
/// dead. Deterministic: the order is the schedule's event order.
fn execute_crashes(
    boards: &mut [Board],
    churn: &mut ChurnState,
    crashes: &[(usize, usize)],
    epoch: u64,
) {
    for &(i, sibling) in crashes {
        let bytes = policy_snapshot(&boards[i].policy);
        let mut store =
            CheckpointStore::open(churn.base_dir.join(format!("board-{i}")), "fleet-policy", 2)
                .expect("open checkpoint store");
        store
            .save(&bytes, churn.schedule.seed())
            .expect("save policy checkpoint");

        let rejoin = rejoin_epoch(&churn.schedule, i, epoch);
        let rejoin_time = SimTime::ZERO + MIGRATION_PERIOD * rejoin;
        let dying = &mut boards[i];
        let ids: Vec<_> = dying.platform.snapshots().iter().map(|s| s.id).collect();
        for id in ids {
            dying.platform.kill(id);
        }
        let mut moved = Vec::new();
        while dying
            .arrivals
            .get(dying.next_arrival)
            .is_some_and(|spec| spec.at < rejoin_time)
        {
            moved.push(dying.arrivals.remove(dying.next_arrival));
        }
        dying.alive = false;
        dying.crashes += 1;

        let sib = &mut boards[sibling];
        for spec in moved {
            let pos = sib.arrivals[sib.next_arrival..].partition_point(|a| a.at <= spec.at)
                + sib.next_arrival;
            sib.arrivals.insert(pos, spec);
            sib.adopted_arrivals += 1;
        }
    }
}

/// Runs the fleet with an already-trained model.
///
/// # Panics
///
/// Panics on a zero board or epoch count.
pub fn run_with_model(model: &IlModel, config: &FleetConfig) -> FleetReport {
    assert!(config.boards > 0, "need at least one board");
    assert!(config.epochs > 0, "need at least one epoch");
    let serve = serve_config(config);
    let mut service = NpuService::new(model.mlp(), serve);
    // Reference for the serial baseline and the bit-identity check: one
    // dedicated device per board, each request served alone.
    let dedicated = NpuModel::compile(model.mlp());
    let device = NpuDevice::kirin970();
    let mut boards = make_boards(model, config, &serve);
    let mut churn = churn_state(config);

    let end = SimTime::ZERO + MIGRATION_PERIOD * config.epochs;
    let mut serial_device_time = SimDuration::ZERO;
    let mut mismatches = 0u64;

    // Boards only interact at migration barriers, so the run alternates
    // between a serial barrier (admissions due at the barrier instant,
    // then the shared-service epoch) and a parallel stretch where every
    // board is stepped to the next barrier independently. Each board sees
    // the exact per-tick operation order of the serial loop — admit(t),
    // DVFS(t), tick — so the outcome is bit-identical at every budget.
    let mut now = SimTime::ZERO;
    let mut epoch = 0u64;
    while now < end {
        // Barrier order: rejoins first (so a returning board takes this
        // epoch), then admissions, then the shared-service epoch (a board
        // crashing *this* barrier still submits — its reply is absorbed by
        // the sibling), then the crash drain, then the parallel stretch.
        let crashes = match &mut churn {
            Some(state) => {
                apply_rejoins(&mut boards, state, epoch, now);
                crashes_at(&state.schedule, epoch)
            }
            None => Vec::new(),
        };
        debug_assert!(
            boards.iter().all(|b| !b.alive || b.platform.now() == now),
            "boards left lockstep"
        );
        par::par_for_each_mut(&config.budget, &mut boards, |_, board| {
            if board.alive {
                admit_due(board, now);
            }
        });
        let candidates: Vec<usize> = (0..config.boards).filter(|&i| boards[i].alive).collect();
        fleet_epoch(
            &mut boards,
            &candidates,
            &mut service,
            &dedicated,
            &device,
            now,
            &mut serial_device_time,
            &mut mismatches,
            &crashes,
            &config.budget,
        );
        if let Some(state) = &mut churn {
            execute_crashes(&mut boards, state, &crashes, epoch);
        }
        let next_barrier = now + MIGRATION_PERIOD;
        par::par_for_each_mut(&config.budget, &mut boards, |_, board| {
            if board.alive {
                step_to_barrier(board, now, next_barrier);
            }
        });
        now = next_barrier;
        epoch += 1;
    }
    // Boards dead at the end still owe their deferred cooling ticks.
    par::par_for_each_mut(&config.budget, &mut boards, |_, board| {
        catch_up(board, end);
    });
    finalize(
        config,
        boards,
        service,
        end,
        serial_device_time,
        mismatches,
        churn,
    )
}

/// Flushes the service at `end` and assembles the report (boards must
/// already be stepped to `end`).
fn finalize(
    config: &FleetConfig,
    boards: Vec<Board>,
    mut service: NpuService,
    end: SimTime,
    serial_device_time: SimDuration,
    mismatches: u64,
    churn: Option<ChurnState>,
) -> FleetReport {
    // Churn aggregates come from the pure schedule; the checkpoint
    // directory is gone after this.
    let (churn_events, checkpoint_restores, down_by_board) = match &churn {
        Some(state) => {
            let down: Vec<u64> = (0..config.boards)
                .map(|i| {
                    state
                        .schedule
                        .down_spans(i)
                        .into_iter()
                        .map(|(from, until)| until.min(config.epochs) - from)
                        .sum()
                })
                .collect();
            (state.schedule.events().len() as u64, state.restores, down)
        }
        None => (0, 0, vec![0; config.boards]),
    };
    if let Some(state) = &churn {
        let _ = std::fs::remove_dir_all(&state.base_dir);
    }
    let down_total: u64 = down_by_board.iter().sum();
    let availability = 1.0 - down_total as f64 / (config.boards as u64 * config.epochs) as f64;

    service.flush(end);

    let stats = service.stats().clone();
    let pool_device_time: SimDuration = service.device_busy_times().into_iter().sum();
    let pool_secs = pool_device_time.as_secs_f64();
    let serial_secs = serial_device_time.as_secs_f64();
    let outcomes: Vec<BoardOutcome> = boards
        .into_iter()
        .enumerate()
        .map(|(i, board)| {
            let (metrics, _) = board.platform.finish();
            BoardOutcome {
                board: i,
                avg_temp_c: metrics.avg_temperature().value(),
                peak_temp_c: metrics.peak_temperature().value(),
                violations: metrics.qos_violations(),
                executions: metrics.outcomes().len(),
                migrations: board.migrations,
                degraded_epochs: board.degraded_epochs,
                fallback_epochs: board.fallback_epochs,
                crashes: board.crashes,
                down_epochs: down_by_board[i],
                reassigned: board.reassigned,
                adopted_arrivals: board.adopted_arrivals,
            }
        })
        .collect();
    let reassigned_inflight: u64 = outcomes.iter().map(|b| b.reassigned).sum();
    FleetReport {
        config: *config,
        submitted: stats.submitted,
        rejected_submissions: stats.rejected,
        served: stats.served,
        dropped: stats.dropped(),
        batches: stats.batches,
        mean_batch_size: stats.mean_batch_size(),
        batch_histogram: stats.batch_histogram().to_vec(),
        p50: stats.latency_percentile(0.50).unwrap_or(SimDuration::ZERO),
        p95: stats.latency_percentile(0.95).unwrap_or(SimDuration::ZERO),
        p99: stats.latency_percentile(0.99).unwrap_or(SimDuration::ZERO),
        serial_device_time,
        pool_device_time,
        speedup_vs_serial: if pool_secs > 0.0 {
            serial_secs / pool_secs
        } else {
            0.0
        },
        throughput_rps: if pool_secs > 0.0 {
            stats.served as f64 / pool_secs
        } else {
            0.0
        },
        mismatches,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        churn_events,
        reassigned_inflight,
        checkpoint_restores,
        availability,
        boards: outcomes,
    }
}

/// Replays one board's platform ticks from wherever it last stopped up
/// to `to`, in the barrier loop's exact per-tick order. Admissions at
/// the board's resume instant were already performed when it was last
/// visited, which is precisely `step_to_barrier`'s contract.
fn catch_up(board: &mut Board, to: SimTime) {
    let resumed_at = board.platform.now();
    step_to_barrier(board, resumed_at, to);
}

/// Admits every arrival due at or before `now` on one board.
fn admit_due(board: &mut Board, now: SimTime) {
    while let Some(spec) = board.arrivals.get(board.next_arrival) {
        if spec.at > now {
            break;
        }
        let core = default_placement(&board.platform);
        board.platform.admit(spec, core);
        board.next_arrival += 1;
    }
}

/// Steps one board from the `barrier` instant up to (exclusive)
/// `next_barrier`, replaying the serial loop's per-tick order: admissions
/// (already done at the barrier itself), then DVFS, then the platform
/// tick.
fn step_to_barrier(board: &mut Board, barrier: SimTime, next_barrier: SimTime) {
    loop {
        let t = board.platform.now();
        if t >= next_barrier {
            break;
        }
        if t != barrier {
            admit_due(board, t);
        }
        if t.is_multiple_of(DVFS_PERIOD) {
            if board.dvfs_skip > 0 {
                board.dvfs_skip -= 1;
            } else {
                // `run` charges its own CPU cost to the platform.
                let _ = board.dvfs.run(&mut board.platform);
            }
        }
        board.platform.tick();
    }
}

/// One migration epoch over `candidates`: prepare on every candidate
/// board with running applications, submit jittered, flush, complete
/// from the batched replies. `candidates` are the boards alive at this
/// barrier.
///
/// `reassigned` lists `(dying, sibling)` pairs for boards crashing at
/// this barrier: the dying board's reply is still redeemed (conserving
/// the request and keeping the bit-identity check) but its decision
/// lands nowhere — the sibling absorbs it.
#[allow(clippy::too_many_arguments)]
fn fleet_epoch(
    boards: &mut [Board],
    candidates: &[usize],
    service: &mut NpuService,
    dedicated: &NpuModel,
    device: &NpuDevice,
    now: SimTime,
    serial_device_time: &mut SimDuration,
    mismatches: &mut u64,
    reassigned: &[(usize, usize)],
    budget: &par::Budget,
) {
    // Boards submit in jitter order — the arrival interleaving the shared
    // service actually sees.
    let mut order: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| boards[i].platform.app_count() > 0)
        .collect();
    order.sort_by_key(|&i| (boards[i].jitter, i));

    let mut pending: Vec<(usize, PreparedEpoch, Option<RequestTicket>)> = Vec::new();
    for i in order {
        let board = &mut boards[i];
        let Some(prepared) = board.policy.prepare(&board.platform) else {
            continue;
        };
        *serial_device_time += device.inference_latency(dedicated, prepared.batch().rows());
        let mut at = now + board.jitter;
        let mut ticket = None;
        for _ in 0..=MAX_RESUBMITS {
            match service.submit(prepared.batch(), at) {
                Ok(t) => {
                    ticket = Some(t);
                    break;
                }
                Err(rejected) => at += rejected.retry_after,
            }
        }
        pending.push((i, prepared, ticket));
    }
    // Everything this epoch submitted is served before the next one.
    service.flush(now + MIGRATION_PERIOD);

    // Collect replies serially (the service is shared mutable state) …
    let completed: Vec<(usize, PreparedEpoch, ClientReply)> = pending
        .into_iter()
        .map(|(i, prepared, ticket)| {
            let reply = match ticket.and_then(|t| service.take_reply(t)) {
                Some(reply) => reply,
                // Admission control bounced every retry: the epoch
                // degrades.
                None => ClientReply {
                    output: None,
                    latency: SimDuration::ZERO,
                    cpu_time: SimDuration::ZERO,
                    backend: InferenceBackend::Npu,
                    npu_failures: 0,
                    fallback_active: false,
                    jobs: Default::default(),
                    breaker_opened: false,
                },
            };
            (i, prepared, reply)
        })
        .collect();
    // … then run the dedicated-device bit-identity checks in parallel:
    // each is a pure re-inference of one board's batch, and the flags are
    // folded in submission order.
    let mismatch_flags = par::par_map(budget, &completed, |_, (_, prepared, reply)| {
        reply.output.as_ref().is_some_and(|output| {
            *output != dedicated.infer(prepared.batch(), KernelMode::default())
        })
    });
    *mismatches += mismatch_flags.iter().filter(|&&m| m).count() as u64;

    for (i, prepared, reply) in completed {
        if let Some(&(_, sibling)) = reassigned.iter().find(|&&(dying, _)| dying == i) {
            // The board dies at this barrier; its in-flight reply was
            // redeemed above but completes nowhere.
            let _ = (prepared, reply);
            boards[sibling].reassigned += 1;
            continue;
        }
        let board = &mut boards[i];
        let outcome = board.policy.complete(&mut board.platform, &prepared, reply);
        if outcome.migrated.is_some() {
            board.migrations += 1;
        }
        if outcome.deadline_missed {
            board.degraded_epochs += 1;
        } else {
            // Mirror the governor: skip two DVFS iterations around a
            // completed migration epoch.
            board.dvfs_skip = 2;
        }
        if outcome.fallback_active {
            board.fallback_epochs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            boards: 6,
            epochs: 12,
            devices: 2,
            max_batch: 8,
            seed: 3,
            budget: par::Budget::serial(),
            ..FleetConfig::default()
        }
    }

    fn churn_config() -> FleetConfig {
        // Long outages relative to the 8 s mean interarrival, so crashes
        // reliably catch both in-flight requests and future arrivals.
        FleetConfig {
            boards: 6,
            epochs: 24,
            churn: Some(ChurnSpec { period: 3, down: 8 }),
            ..small_config()
        }
    }

    #[test]
    fn fleet_serves_every_request_and_beats_serial() {
        let model = fleet_model(0);
        let report = run_with_model(&model, &small_config());
        assert!(report.submitted > 0, "boards must issue requests");
        assert_eq!(report.dropped, 0);
        assert_eq!(report.mismatches, 0, "batching must be bit-exact");
        assert!(
            report.speedup_vs_serial >= 3.0,
            "batched speedup {:.2}x below 3x",
            report.speedup_vs_serial
        );
        assert!(report.mean_batch_size > 1.5, "requests must coalesce");
        assert_eq!(report.boards.len(), 6);
        assert!(report.boards.iter().any(|b| b.executions > 0));
        // Histogram counts exactly the dispatched batches.
        let hist_total: u64 = report.batch_histogram.iter().sum();
        assert_eq!(hist_total, report.batches);
    }

    #[test]
    fn fleet_is_deterministic() {
        let model = fleet_model(0);
        let config = FleetConfig {
            boards: 4,
            epochs: 6,
            ..small_config()
        };
        let a = run_with_model(&model, &config);
        let b = run_with_model(&model, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_crashes_drain_and_rejoin_through_checkpoints() {
        let model = fleet_model(0);
        let report = run_with_model(&model, &churn_config());
        assert!(report.churn_events > 0, "churn must schedule events");
        let crashes: u64 = report.boards.iter().map(|b| b.crashes).sum();
        assert!(crashes > 0, "churn must crash at least one board");
        assert!(
            report.availability < 1.0,
            "crashed boards must cost availability"
        );
        assert!(
            report.checkpoint_restores > 0,
            "a rejoining board must restore its policy from a checkpoint"
        );
        assert!(
            report.reassigned_inflight > 0,
            "a crashing board's in-flight request must move to a sibling"
        );
        // Request conservation survives the crashes: nothing admitted is
        // lost, and batching stays bit-exact.
        assert_eq!(report.dropped, 0);
        assert_eq!(report.mismatches, 0);
        // Down spans are bounded by the configured outage length (a crash
        // near the end is clamped to the run).
        let down: u64 = report.boards.iter().map(|b| b.down_epochs).sum();
        let window = churn_config().churn.unwrap().down;
        assert!(down >= crashes, "every crash costs at least one epoch");
        assert!(
            down <= crashes * window,
            "no crash is down beyond its window"
        );
    }

    #[test]
    fn churn_is_budget_invariant() {
        let model = fleet_model(0);
        let config = churn_config();
        let serial = run_with_model(&model, &config);
        let threaded_cfg = FleetConfig {
            budget: par::Budget::with_threads(4),
            ..config
        };
        let mut threaded = run_with_model(&model, &threaded_cfg);
        threaded.config = config;
        assert_eq!(threaded, serial, "churn must be budget-invariant");
    }

    #[test]
    fn rerouted_arrivals_land_on_the_sibling() {
        let model = fleet_model(0);
        let report = run_with_model(&model, &churn_config());
        let adopted: u64 = report.boards.iter().map(|b| b.adopted_arrivals).sum();
        let stable = run_with_model(
            &model,
            &FleetConfig {
                churn: None,
                ..churn_config()
            },
        );
        // The churn run admits work on siblings that the stable run ran
        // on the crashed boards; total executions stay comparable because
        // nothing is silently dropped (killed apps record outcomes too).
        let churn_execs: usize = report.boards.iter().map(|b| b.executions).sum();
        let stable_execs: usize = stable.boards.iter().map(|b| b.executions).sum();
        assert!(adopted > 0, "a crash inside the run must reroute arrivals");
        assert!(
            churn_execs >= stable_execs / 2,
            "churn must not silently lose most executions ({churn_execs} vs {stable_execs})"
        );
    }
}
