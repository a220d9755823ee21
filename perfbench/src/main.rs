//! End-to-end and per-layer benchmark of the repository's simulators.
//!
//! ```text
//! perfbench --workload <edge-nominal|edge-overload6|fleet-topil>
//!           --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One invocation sets its workload up several times (`setup_s` is the
//! median), then runs the workload's scenario back to back on one host
//! thread for `--seconds` of wall-clock time. Every run's report is
//! checked: the simulator's own invariants must hold, and the report must
//! equal the first run's, because a run is a pure function of the seed.
//! The last line of stdout is one JSON object holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! Times are host wall-clock. Simulated statistics repeat exactly for a
//! seed, so they serve as output checks and as per-layer work counts.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::fleet::{self, FleetConfig, FleetReport};
use edge_sim::{EdgeConfig, EdgeReport};

/// Every run count is at least this, however long one run takes.
const MIN_RUNS: usize = 5;
/// Set-up repetitions per invocation; `setup_s` is their median. The
/// edge stand-up takes milliseconds, so it is repeated more often.
const EDGE_SETUP_REPS: usize = 21;
const FLEET_SETUP_REPS: usize = 5;

/// Boards, users and 100 ms epochs of both edge workloads.
const EDGE_BOARDS: usize = 256;
const EDGE_USERS: u64 = 25_000;
const EDGE_EPOCHS: u64 = 24;
/// TOP-IL fleet: boards x 500 ms migration epochs, and the seed of the
/// policy every board deploys (the program, not an input: it stays fixed
/// so that `--seed` varies only the boards' workloads).
const FLEET_BOARDS: usize = 16;
const FLEET_EPOCHS: u64 = 60;
const FLEET_MODEL_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Open-loop user frontier through the network model into the tiered
    /// service at nominal load (4 regions x 8 racks) under the region-0
    /// backbone outage storm: home racks serve nearly every request.
    EdgeNominal,
    /// 6x load on the same boards packed into one region with one rack,
    /// so the rack tier saturates as it does in a 10k-board fleet:
    /// failover, hedging, regional serving and breaker transitions.
    EdgeOverload6,
    /// Full platform models (thermal, DVFS governor, TOP-IL migration
    /// policy) sharing one batched NPU service with the int8 kernel and
    /// the policy-output cache.
    FleetTopil,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "edge-nominal" => Some(Workload::EdgeNominal),
            "edge-overload6" => Some(Workload::EdgeOverload6),
            "fleet-topil" => Some(Workload::FleetTopil),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EdgeNominal => "edge-nominal",
            Workload::EdgeOverload6 => "edge-overload6",
            Workload::FleetTopil => "fleet-topil",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = || format!("flag `{flag}` got a malformed value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
    })
}

fn edge_config(workload: Workload, seed: u64) -> EdgeConfig {
    let fleet = EdgeConfig {
        boards: EDGE_BOARDS,
        users: EDGE_USERS,
        epochs: EDGE_EPOCHS,
        seed,
        ..EdgeConfig::default()
    };
    match workload {
        Workload::EdgeOverload6 => EdgeConfig {
            load: 6.0,
            regions: 1,
            racks_per_region: 1,
            ..fleet
        },
        _ => EdgeConfig {
            outage: true,
            ..fleet
        },
    }
}

fn fleet_config(seed: u64) -> FleetConfig {
    FleetConfig {
        boards: FLEET_BOARDS,
        epochs: FLEET_EPOCHS,
        seed,
        ..FleetConfig::default()
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn check_edge(r: &EdgeReport, config: &EdgeConfig) -> Result<(), String> {
    ensure(r.replies > 0, || "the fleet served nothing".into())?;
    ensure(r.replies + r.failed == r.submitted, || {
        format!(
            "{} replies + {} failures != {} submitted",
            r.replies, r.failed, r.submitted
        )
    })?;
    ensure(r.generated == r.submitted + r.truncated, || {
        format!(
            "{} generated != {} submitted + {} truncated",
            r.generated, r.submitted, r.truncated
        )
    })?;
    ensure(r.violations.is_empty(), || {
        format!("invariant violations: {:?}", r.violations)
    })?;
    // The tier never delivers a late reply, so every QoS delay is within
    // the user deadline.
    ensure(
        r.qos_p50 <= r.qos_p99 && r.qos_p99 <= config.qos_deadline,
        || {
            format!(
                "QoS p50 {} / p99 {} out of order or late",
                r.qos_p50, r.qos_p99
            )
        },
    )?;
    let per_region: u64 = r.regions.iter().map(|g| g.submitted).sum();
    ensure(
        r.regions.len() == config.regions && per_region == r.submitted,
        || "region outcomes do not add up to the fleet".into(),
    )
}

fn check_fleet(r: &FleetReport, config: &FleetConfig) -> Result<(), String> {
    ensure(r.served > 0, || "the fleet served nothing".into())?;
    ensure(r.dropped == 0, || format!("{} requests dropped", r.dropped))?;
    ensure(r.mismatches == 0, || {
        format!(
            "{} batched replies differ from dedicated inference",
            r.mismatches
        )
    })?;
    ensure(r.batch_histogram.iter().sum::<u64>() == r.batches, || {
        "batch histogram does not count every batch".into()
    })?;
    ensure(r.boards.len() == config.boards, || {
        "board outcomes missing".into()
    })
}

/// Per-layer work counts of one scenario run, keyed by metric name.
fn edge_layers(r: &EdgeReport) -> Vec<(&'static str, f64)> {
    vec![
        ("requests", r.submitted as f64),
        ("frontier_generated", r.generated as f64),
        ("frontier_active_users", r.active_users as f64),
        ("net_truncated", r.truncated as f64),
        ("tier_rack_served", r.rack_served as f64),
        ("tier_regional_served", r.regional_served as f64),
        ("tier_cpu_served", r.cpu_served as f64),
        ("tier_failed", r.failed as f64),
        ("tier_failovers", r.failovers as f64),
        ("tier_hedges", r.hedges as f64),
        ("tier_hedges_infeasible", r.hedges_infeasible as f64),
        ("tier_breaker_transitions", r.breaker_transitions as f64),
        ("thermal_violations", r.thermal_violations as f64),
        ("peak_temp_c", r.peak_temp),
    ]
}

fn fleet_layers(r: &FleetReport) -> Vec<(&'static str, f64)> {
    let sum = |f: fn(&fleet::BoardOutcome) -> u64| r.boards.iter().map(f).sum::<u64>() as f64;
    vec![
        ("requests", r.submitted as f64),
        ("serve_rejected", r.rejected_submissions as f64),
        ("serve_batches", r.batches as f64),
        ("serve_mean_batch", r.mean_batch_size),
        ("cache_hits", r.cache_hits as f64),
        ("cache_misses", r.cache_misses as f64),
        ("governor_migrations", sum(|b| b.migrations)),
        ("governor_degraded_epochs", sum(|b| b.degraded_epochs)),
        ("platform_apps_finished", sum(|b| b.executions as u64)),
        ("platform_qos_violations", sum(|b| b.violations as u64)),
        (
            "peak_temp_c",
            r.boards
                .iter()
                .map(|b| b.peak_temp_c)
                .fold(f64::MIN, f64::max),
        ),
    ]
}

/// Every per-layer metric and its unit. Counts are per scenario run; a
/// workload without the layer reports 0 for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("simulate_ms", "ms"),
    ("check_ms", "ms"),
    ("host_us_per_request", "us"),
    ("requests", "count"),
    ("frontier_generated", "count"),
    ("frontier_active_users", "count"),
    ("net_truncated", "count"),
    ("tier_rack_served", "count"),
    ("tier_regional_served", "count"),
    ("tier_cpu_served", "count"),
    ("tier_failed", "count"),
    ("tier_failovers", "count"),
    ("tier_hedges", "count"),
    ("tier_hedges_infeasible", "count"),
    ("tier_breaker_transitions", "count"),
    ("thermal_violations", "count"),
    ("serve_rejected", "count"),
    ("serve_batches", "count"),
    ("serve_mean_batch", "req/batch"),
    ("cache_hits", "count"),
    ("cache_misses", "count"),
    ("governor_migrations", "count"),
    ("governor_degraded_epochs", "count"),
    ("platform_apps_finished", "count"),
    ("platform_qos_violations", "count"),
    ("peak_temp_c", "C"),
];

/// One recorded span: a named interval of one run, relative to the start
/// of the measurement window.
struct Span {
    run: usize,
    name: &'static str,
    parent: Option<&'static str>,
    start: Duration,
    end: Duration,
}

/// What the measurement window produced.
struct Measured {
    runs: usize,
    failed: usize,
    simulate: Vec<Duration>,
    check: Vec<Duration>,
    spans: Vec<Span>,
    layers: Vec<(&'static str, f64)>,
}

/// Runs `simulate` back to back for `seconds` (and at least
/// [`MIN_RUNS`] times), checking each report with `check` and against
/// the first report.
fn measure<R: PartialEq>(
    seconds: f64,
    mut simulate: impl FnMut() -> R,
    check: impl Fn(&R) -> Result<(), String>,
    layers: impl Fn(&R) -> Vec<(&'static str, f64)>,
) -> Measured {
    let window = Duration::from_secs_f64(seconds);
    let origin = Instant::now();
    let mut first: Option<R> = None;
    let mut m = Measured {
        runs: 0,
        failed: 0,
        simulate: Vec::new(),
        check: Vec::new(),
        spans: Vec::new(),
        layers: Vec::new(),
    };
    while m.runs < MIN_RUNS || origin.elapsed() < window {
        let t0 = origin.elapsed();
        let report = std::hint::black_box(simulate());
        let t1 = origin.elapsed();
        let verdict = check(&report).and_then(|()| match &first {
            Some(first) if *first != report => Err("report differs from the first run".into()),
            _ => Ok(()),
        });
        let t2 = origin.elapsed();
        if let Err(why) = verdict {
            eprintln!("perfbench: run {} failed its check: {why}", m.runs);
            m.failed += 1;
        }
        for (name, parent, start, end) in [
            ("run", None, t0, t2),
            ("simulate", Some("run"), t0, t1),
            ("check", Some("run"), t1, t2),
        ] {
            m.spans.push(Span {
                run: m.runs,
                name,
                parent,
                start,
                end,
            });
        }
        m.simulate.push(t1 - t0);
        m.check.push(t2 - t1);
        if first.is_none() {
            m.layers = layers(&report);
            first = Some(report);
        }
        m.runs += 1;
    }
    m
}

/// Median of `samples` in seconds.
fn median_s(samples: &[Duration]) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Times `reps` set-ups and returns the last one's product.
fn time_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut times = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps {
        let start = Instant::now();
        product = Some(std::hint::black_box(setup()));
        times.push(start.elapsed());
    }
    (product.expect("at least one set-up"), times)
}

fn run_workload(args: &Args) -> (Vec<Duration>, Measured) {
    match args.workload {
        Workload::EdgeNominal | Workload::EdgeOverload6 => {
            let config = edge_config(args.workload, args.seed);
            // Standing the fleet up: a one-epoch run of the same fleet,
            // dominated by building every region's rack and regional
            // services.
            let stand_up = EdgeConfig {
                epochs: 1,
                ..config.clone()
            };
            let (_, setup) = time_setup(EDGE_SETUP_REPS, || edge_sim::run(&stand_up));
            let measured = measure(
                args.seconds,
                || edge_sim::run(&config),
                |r| check_edge(r, &config),
                edge_layers,
            );
            (setup, measured)
        }
        Workload::FleetTopil => {
            // Training the IL policy every board deploys.
            let (model, setup) =
                time_setup(FLEET_SETUP_REPS, || fleet::fleet_model(FLEET_MODEL_SEED));
            let config = fleet_config(args.seed);
            let measured = measure(
                args.seconds,
                || fleet::run_with_model(&model, &config),
                |r| check_fleet(r, &config),
                fleet_layers,
            );
            (setup, measured)
        }
    }
}

/// Writes the spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let mut text = String::new();
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"run\": {}, \"span\": \"{}\", \"parent\": {}, \"start_us\": {}, \"end_us\": {}}}",
            s.run,
            s.name,
            s.parent.map_or("null".into(), |p| format!("\"{p}\"")),
            s.start.as_micros(),
            s.end.as_micros()
        );
    }
    let file = format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed);
    std::fs::write(dir.join(file), text)
}

fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "perfbench: {why}\nusage: perfbench --workload \
                 <edge-nominal|edge-overload6|fleet-topil> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };

    let (setup, m) = run_workload(&args);
    let run_s = median_s(&m.simulate);
    let requests = m
        .layers
        .iter()
        .find(|(name, _)| *name == "requests")
        .map_or(0.0, |&(_, v)| v);
    eprintln!(
        "perfbench: {} seed {}: {} runs ({} failed), run {:.3} ms median, \
         {requests} requests/run, setup {:.4} s median of {}",
        args.workload.name(),
        args.seed,
        m.runs,
        m.failed,
        run_s * 1e3,
        median_s(&setup),
        setup.len()
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        if let Err(e) = write_spans(&args, &m.spans) {
            eprintln!("perfbench: could not write spans: {e}");
        }
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "simulate_ms" => run_s * 1e3,
                    "check_ms" => median_s(&m.check) * 1e3,
                    "host_us_per_request" => run_s * 1e6 / requests,
                    _ => m
                        .layers
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        vec![
            ("run_ms", run_s * 1e3, "ms"),
            ("setup_s", median_s(&setup), "s"),
        ]
    };
    let correct = m.failed == 0 && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!("{}", result_json(correct, m.runs, m.failed, &metrics));
    ExitCode::SUCCESS
}
