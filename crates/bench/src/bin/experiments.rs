//! The experiment driver: regenerates every figure and table of the paper.
//!
//! ```text
//! experiments [--full] [fig1|fig3|fig4|fig5|fig7|fig8|fig9|fig10|fig11|model-eval|all]
//! ```
//!
//! By default experiments run at `Quick` effort (reduced training sets and
//! simulation lengths, minutes of wall time); `--full` switches to
//! paper-scale parameters.

use std::path::PathBuf;
use std::time::Instant;

use bench::error::BenchError;
use bench::harness::{train_artifacts, Effort, TrainedArtifacts};
use edge_sim::{EdgeConfig, StormPreset};
use thermal::Cooling;

/// Writes a CSV artifact if an output directory was requested; a failure
/// names the offending file.
fn write_csv(out: &Option<PathBuf>, name: &str, contents: String) -> Result<(), BenchError> {
    let Some(dir) = out else { return Ok(()) };
    bench::error::write_file(&dir.join(name), &contents)
}

/// Reports (but does not abort on) a failed artifact write.
fn report_csv(result: Result<(), BenchError>) {
    if let Err(e) = result {
        eprintln!("warning: {e}");
    }
}

/// Runs one edge-sim scenario — `edge`, `chaos` or `overload` — and writes its
/// CSV to stdout and to `<name>.csv`. The report and the wall-clock
/// throughput go to stderr, so the CSV stays byte-deterministic. Exits 1
/// on an invariant violation.
fn run_edge(name: &str, config: &EdgeConfig, out: &Option<PathBuf>) {
    eprintln!(
        "{name}: {} boards in {} regions x {} racks, {} users x {} epochs, \
         seed {}, {} thread(s){}{}{} ...",
        config.boards,
        config.regions,
        config.racks_per_region,
        config.users,
        config.epochs,
        config.seed,
        config.budget.effective_threads(),
        if config.outage {
            ", backbone outage"
        } else {
            ""
        },
        config
            .storm
            .map_or(String::new(), |storm| format!(", `{storm}` storm")),
        if matches!(config.demand, edge_sim::Demand::Replay(_)) {
            ", replayed demand"
        } else {
            ""
        }
    );
    let started = Instant::now();
    let report = edge_sim::run(config);
    let wall = started.elapsed().as_secs_f64();
    eprintln!("{report}");
    eprintln!(
        "{name}: {:.1} simulated boards/s, {:.0} requests/s ({:.2} s wall)",
        config.boards as f64 / wall,
        report.submitted as f64 / wall,
        wall
    );
    match process_memory() {
        Some((peak_kib, minor_faults)) => eprintln!(
            "{name}: process peak RSS {:.1} MiB (VmHWM), {minor_faults} minor page faults",
            peak_kib as f64 / 1024.0
        ),
        None => eprintln!("{name}: process memory unavailable (no /proc/self)"),
    }
    let csv = bench::csv::edge_csv(&report, config.storm);
    print!("{csv}");
    report_csv(write_csv(out, &format!("{name}.csv"), csv));
    if !report.violations.is_empty() {
        eprintln!(
            "{name}: {} invariant violation(s) — see the `violation` CSV rows",
            report.violations.len()
        );
        std::process::exit(1);
    }
}

/// The process's peak resident set (`VmHWM` of `/proc/self/status`, in
/// KiB) and its minor page faults so far (field 10 of `/proc/self/stat`);
/// `None` where `/proc` is not mounted.
fn process_memory() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let peak_kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesised and may hold spaces;
    // the fields after it are plain. `minflt` is field 10, the eighth
    // after the name.
    let after_name = &stat[stat.rfind(')')? + 1..];
    let minor_faults = after_name.split_whitespace().nth(7)?.parse().ok()?;
    Some((peak_kib, minor_faults))
}

const USAGE: &str = "\
usage: experiments [--full] [--out <dir>] [--state <dir>] [--points <n>]
                   [--boards <n>] [--racks <n>] [--epochs <n>] [--devices <n>]
                   [--threads <n>] [--seed <n>]
                   [--users <n>] [--load <x>] [--replay <file>]
                   [--churn <period>] [--churn-down <epochs>]
                   [--storm [preset]] [--kernel <scalar|vector>]
                   [--policy-cache <n>] [COMMAND ...]

Regenerates the paper's evaluation artifacts. Without a command (or with
`all`) the whole suite runs. `--full` uses paper-scale parameters;
`--out <dir>` additionally writes CSV data series. `--state <dir>` holds
checkpoint snapshots for the resumable commands (`robustness`, `train`);
without it each runs in a fresh directory that it removes when done, so
a rerun starts over. `--points <n>` truncates the robustness grid to its first n points.
`--boards`, `--epochs` and `--devices` size the `fleet` experiment, and
`--churn <period>` adds board churn to it (one seeded crash every
`period` epochs, each lasting `--churn-down` epochs, default 2);
`--boards`, `--racks` (racks per region), `--epochs`, `--seed`,
`--users` (logical users) and `--load <x>` (mean requests per board per
epoch) size the `edge` experiment; `--replay <file>` drives its demand
from a recorded workload CSV instead of the synthetic rate model, a
bare `--storm` injects its regional backbone outage, and
`--storm <preset>` a fault storm in every region (`crash-wave`,
`partition`, `heartbeat`, `slow-tier` or `all`). `chaos` runs the edge
simulator at chaos size (one region, flat demand; default 12 boards in
3 racks x 40 epochs, seed 11) under `--storm <preset>` (default `all`).
`overload` runs it at overload size (one rack of 128 boards, 20k users
at 30 requests per board per epoch, 15 epochs, seed 7, 25 ms deadline)
under `--storm <preset>` (default none). Both are sized by `--boards`,
`--racks`, `--epochs` and `--seed`.
Sizing counts (`--points`, `--boards`, `--racks`, `--epochs`, `--devices`,
`--users`) must be at least 1, and `--load` must be finite and above 0.
`--threads <n>` sets the host-thread budget of `train`, `robustness`, `fleet`,
`overload`, `chaos` and `edge` (default: all available cores). Every
command produces the same bytes at every thread count — the budget
changes wall time only. `--kernel` selects the numeric inference kernel
of the `fleet` experiment (`vector`, the default, or `scalar` — the
reference loop) and `--policy-cache <n>` sizes its memoization cache
(0 disables); both kernels and any cache size produce identical bytes —
the kernel CI gate diffs them.

`--help`, `-h`, `help` and `list` print this usage to stdout and exit 0.
Unknown commands, unknown flags, and malformed flag values print this
usage to stderr and exit with status 2.

Diagnostics go to stderr; stdout carries only reports and CSV data, so
`experiments fleet > fleet.csv` yields a clean machine-readable artifact.

Interrupted `robustness` and `train` runs exit with status 130; with
--state they resume from their newest valid snapshot when rerun with the
same directory. TOPIL_SWEEP_CRASH_AFTER=<n> / TOPIL_TRAIN_CRASH_AFTER=<n>
simulate a crash after n points/epochs (used by the CI crash-recovery
check); a value that is not a count is a usage error.

commands:
  fig1         motivational example (optimal mapping differs per app)
  fig3         NAS grid search over depth x width
  fig4         training-data generation tables
  fig5         worst-case migration overhead per benchmark
  fig7         illustrative IL-vs-RL mapping timelines
  fig8         main mixed-workload experiment (incl. fig9)
  fig9         busy CPU time per cluster x V/f level
  fig10        single-application workloads (all unseen apps)
  fig11        run-time overhead vs. number of applications
  model-eval   isolated model evaluation (within-1-degree fraction)
  ablations    design-choice ablations
  oracle-gap   extension: online oracle vs. the imitating network
  sensitivity  extension: thermal-calibration perturbations
  robustness   extension: resumable fault-rate sweep vs. the degradation
               ladder (table on stdout, sweep.csv via --out, uses --state)
  traces       structured event traces per governor (JSONL/CSV via --out)
  fleet        multi-board fleet sharing one batched NPU inference service
  overload     edge overload preset: one saturated rack (writes overload.csv)
  chaos        edge storm preset on a small flat-demand fleet (writes chaos.csv)
  edge         datacenter-scale edge fleet: user/request frontier + network model
  sweep        the same as robustness
  train        crash-safe IL training (resumable with --state)
  all          everything above except sweep and train
";

/// Every recognized subcommand. `--storm`'s optional value is
/// disambiguated against this list so `edge --storm` keeps working when a
/// command name follows the bare flag.
const COMMANDS: &[&str] = &[
    "fig1",
    "fig3",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "model-eval",
    "ablations",
    "oracle-gap",
    "sensitivity",
    "robustness",
    "traces",
    "fleet",
    "overload",
    "chaos",
    "edge",
    "sweep",
    "train",
    "all",
];

/// Rejects a malformed command line: the message and the usage text go to
/// stderr and the process exits with status 2 (never a panic).
fn usage_error(message: &str) -> ! {
    eprintln!("{message}\n");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Consumes the value of `flag`, or exits 2 if the command line ends first.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.as_str(),
        None => usage_error(&format!("flag `{flag}` needs a value")),
    }
}

/// Consumes and parses the value of `flag`, or exits 2 on a malformed one.
fn flag_number<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    let v = flag_value(args, i, flag);
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("flag `{flag}` got a malformed value `{v}`")))
}

/// Consumes a sizing count, or exits 2 unless it is at least 1.
fn flag_count<T: std::str::FromStr + Default + PartialEq>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> T {
    let n: T = flag_number(args, i, flag);
    if n == T::default() {
        usage_error(&format!("flag `{flag}` must be at least 1"));
    }
    n
}

/// Consumes a rate multiplier, or exits 2 unless it is finite and above 0.
fn flag_rate(args: &[String], i: &mut usize, flag: &str) -> f64 {
    let x: f64 = flag_number(args, i, flag);
    if !(x.is_finite() && x > 0.0) {
        usage_error(&format!(
            "flag `{flag}` must be finite and above 0, got `{}`",
            args[*i]
        ));
    }
    x
}

/// The checkpoint directory of a resumable command and whether it is
/// scratch: `--state`, or else a fresh temporary directory named after
/// `kind`, which the command removes when done. A snapshot's identity
/// does not cover the simulator's code, so resuming is opt-in.
fn state_dir(state: &Option<PathBuf>, kind: &str) -> (PathBuf, bool) {
    match state {
        Some(dir) => (dir.clone(), false),
        None => {
            let dir = std::env::temp_dir().join(format!("topil-{kind}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            (dir, true)
        }
    }
}

/// Reads the simulated-crash count in environment variable `var`: `None`
/// when unset, and exits 2 when it is not a count.
fn crash_after(var: &str) -> Option<usize> {
    let v = std::env::var(var).ok()?;
    Some(v.parse().unwrap_or_else(|_| {
        usage_error(&format!(
            "environment variable `{var}` got a malformed count `{v}`"
        ))
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help" || a == "list")
    {
        print!("{USAGE}");
        return;
    }
    let mut full = false;
    let mut out: Option<PathBuf> = None;
    let mut state: Option<PathBuf> = None;
    let mut points: Option<usize> = None;
    let mut boards: Option<usize> = None;
    let mut racks: Option<usize> = None;
    let mut epochs: Option<u64> = None;
    let mut devices: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut users: Option<u64> = None;
    let mut load: Option<f64> = None;
    let mut replay: Option<PathBuf> = None;
    let mut churn_period: Option<u64> = None;
    let mut churn_down: Option<u64> = None;
    let mut storm = false;
    let mut storm_preset: Option<StormPreset> = None;
    let mut kernel: Option<npu::KernelMode> = None;
    let mut policy_cache: Option<usize> = None;
    let mut commands: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--full" => full = true,
            "--out" => out = Some(PathBuf::from(flag_value(&args, &mut i, arg))),
            "--state" => state = Some(PathBuf::from(flag_value(&args, &mut i, arg))),
            "--points" => points = Some(flag_count(&args, &mut i, arg)),
            "--boards" => boards = Some(flag_count(&args, &mut i, arg)),
            "--racks" => racks = Some(flag_count(&args, &mut i, arg)),
            "--epochs" => epochs = Some(flag_count(&args, &mut i, arg)),
            "--devices" => devices = Some(flag_count(&args, &mut i, arg)),
            "--threads" => threads = Some(flag_number(&args, &mut i, arg)),
            "--seed" => seed = Some(flag_number(&args, &mut i, arg)),
            "--users" => users = Some(flag_count(&args, &mut i, arg)),
            "--load" => load = Some(flag_rate(&args, &mut i, arg)),
            "--replay" => replay = Some(PathBuf::from(flag_value(&args, &mut i, arg))),
            "--churn" => churn_period = Some(flag_number(&args, &mut i, arg)),
            "--churn-down" => churn_down = Some(flag_number(&args, &mut i, arg)),
            "--kernel" => match npu::KernelMode::parse(flag_value(&args, &mut i, arg)) {
                Some(mode) => kernel = Some(mode),
                None => usage_error(&format!(
                    "unknown --kernel `{}` (expected `scalar` or `vector`)",
                    args[i]
                )),
            },
            "--policy-cache" => policy_cache = Some(flag_number(&args, &mut i, arg)),
            "--storm" => match args.get(i + 1).map(String::as_str) {
                // Bare `--storm` arms the edge backbone outage; a value
                // names the storm preset of `chaos`, `overload` and
                // `edge`. A preset name always binds
                // (`all` is both a preset and a command — the preset
                // reading wins); any other following command or flag
                // leaves the flag bare.
                Some(next) if StormPreset::parse(next).is_some() => {
                    i += 1;
                    storm_preset = StormPreset::parse(next);
                }
                Some(next) if !next.starts_with('-') && !COMMANDS.contains(&next) => {
                    usage_error(&format!(
                        "unknown --storm `{next}` (expected `crash-wave`, \
                         `partition`, `heartbeat`, `slow-tier` or `all`)"
                    ))
                }
                _ => storm = true,
            },
            _ if arg.starts_with('-') => usage_error(&format!("unknown flag `{arg}`")),
            _ if COMMANDS.contains(&arg) => commands.push(arg),
            other => usage_error(&format!("unknown experiment `{other}`")),
        }
        i += 1;
    }
    // No --threads means "use every core"; the result is bit-identical
    // either way.
    let budget = threads.map_or_else(par::Budget::auto, par::Budget::with_threads);
    if storm && commands.contains(&"overload") {
        usage_error("a bare `--storm` (the backbone outage) applies to `edge`; `overload` takes `--storm <preset>`");
    }
    let edge_defaults = EdgeConfig::default();
    let edge_config = EdgeConfig {
        boards: boards.unwrap_or(edge_defaults.boards),
        racks_per_region: racks.unwrap_or(edge_defaults.racks_per_region),
        epochs: epochs.unwrap_or(edge_defaults.epochs),
        seed: seed.unwrap_or(edge_defaults.seed),
        users: users.unwrap_or(edge_defaults.users),
        load: load.unwrap_or(edge_defaults.load),
        outage: storm,
        storm: storm_preset,
        budget,
        ..edge_defaults
    };
    if commands.contains(&"edge") {
        if let Err(err) = edge_config.validate() {
            usage_error(&match err {
                // The one size rule no single flag can check on its own.
                edge_sim::EdgeConfigError::TooFewBoards { regions, .. } => {
                    format!("flag `--boards` must be at least {regions} for `edge`: {err}")
                }
                _ => format!("invalid `edge` configuration: {err}"),
            });
        }
    }
    let effort = if full { Effort::Full } else { Effort::Quick };
    let commands: Vec<&str> = if commands.is_empty() || commands.contains(&"all") {
        vec![
            "fig1",
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "fig10",
            "fig11",
            "model-eval",
            "ablations",
            "oracle-gap",
            "sensitivity",
            "robustness",
            "traces",
        ]
    } else {
        commands
    };

    // The crash hooks are read before any run starts, so a malformed
    // count is rejected up front instead of silently ignored.
    let runs = |command: &str| commands.contains(&command);
    let sweep_crash_after = (runs("robustness") || runs("sweep"))
        .then(|| crash_after("TOPIL_SWEEP_CRASH_AFTER"))
        .flatten();
    let train_crash_after = runs("train")
        .then(|| crash_after("TOPIL_TRAIN_CRASH_AFTER"))
        .flatten();

    eprintln!(
        "# TOP-IL experiment suite (effort: {effort:?}, thread budget: {}, f32 SIMD tier: {})\n",
        budget.effective_threads(),
        nn::simd_tier()
    );

    // Train once; share across experiments that need models.
    let needs_models = commands.iter().any(|c| {
        matches!(
            *c,
            "fig7"
                | "fig8"
                | "fig9"
                | "fig10"
                | "fig11"
                | "model-eval"
                | "oracle-gap"
                | "sensitivity"
                | "traces"
        )
    });
    let artifacts: Option<TrainedArtifacts> = if needs_models {
        let t = Instant::now();
        eprintln!("training IL models and pre-training RL tables ...");
        let a = train_artifacts(effort);
        eprintln!("done in {:.1} s\n", t.elapsed().as_secs_f64());
        Some(a)
    } else {
        None
    };

    for command in commands {
        let t = Instant::now();
        match command {
            "fig1" => println!("{}", bench::fig1::run()),
            "fig3" => println!("{}", bench::fig3::run(effort)),
            "fig4" => println!("{}", bench::fig4::run()),
            "fig5" => println!("{}", bench::fig5::run()),
            "fig7" => println!("{}", bench::fig7::run(artifacts.as_ref().expect("trained"))),
            "fig8" => {
                let artifacts = artifacts.as_ref().expect("trained");
                let fan = bench::fig8::run(artifacts, effort, Cooling::fan());
                println!("{fan}");
                report_csv(write_csv(&out, "fig8_fan.csv", bench::csv::fig8_csv(&fan)));
                let nofan = bench::fig8::run(artifacts, effort, Cooling::passive());
                println!("{nofan}");
                report_csv(write_csv(
                    &out,
                    "fig8_nofan.csv",
                    bench::csv::fig8_csv(&nofan),
                ));
                // Fig. 9 is derived from the no-fan runs of Fig. 8.
                let fig9 = bench::fig9::run(&nofan);
                println!("{fig9}");
                report_csv(write_csv(&out, "fig9.csv", bench::csv::fig9_csv(&fig9)));
            }
            "fig9" => {
                let artifacts = artifacts.as_ref().expect("trained");
                let nofan = bench::fig8::run(artifacts, effort, Cooling::passive());
                println!("{}", bench::fig9::run(&nofan));
            }
            "fig10" => {
                let report = bench::fig10::run(artifacts.as_ref().expect("trained"), effort);
                println!("{report}");
                report_csv(write_csv(&out, "fig10.csv", bench::csv::fig10_csv(&report)));
            }
            "fig11" => {
                let report = bench::fig11::run(artifacts.as_ref().expect("trained"));
                println!("{report}");
                report_csv(write_csv(&out, "fig11.csv", bench::csv::fig11_csv(&report)));
            }
            "model-eval" => println!(
                "{}",
                bench::model_eval::run(artifacts.as_ref().expect("trained"), effort)
            ),
            "ablations" => println!("{}", bench::ablations::run(effort)),
            "oracle-gap" => println!(
                "{}",
                bench::oracle_gap::run(artifacts.as_ref().expect("trained"), effort)
            ),
            "sensitivity" => {
                let report = bench::sensitivity::run(artifacts.as_ref().expect("trained"), effort);
                println!("{report}");
                report_csv(write_csv(
                    &out,
                    "sensitivity.csv",
                    bench::csv::sensitivity_csv(&report),
                ));
            }
            "traces" => {
                let report = bench::traces::run(artifacts.as_ref().expect("trained"));
                println!("{report}");
                for dump in &report.dumps {
                    let slug = dump.slug();
                    report_csv(write_csv(
                        &out,
                        &format!("trace_{slug}.jsonl"),
                        dump.jsonl(),
                    ));
                    report_csv(write_csv(&out, &format!("trace_{slug}.csv"), dump.csv()));
                }
            }
            "fleet" => {
                let mut config = bench::fleet::FleetConfig::default();
                if let Some(n) = boards {
                    config.boards = n;
                }
                if let Some(n) = epochs {
                    config.epochs = n;
                }
                if let Some(n) = devices {
                    config.devices = n;
                }
                if let Some(period) = churn_period {
                    config.churn = Some(bench::fleet::ChurnSpec {
                        period,
                        down: churn_down.unwrap_or(2),
                    });
                }
                if let Some(mode) = kernel {
                    config.kernel = mode;
                }
                if let Some(n) = policy_cache {
                    config.policy_cache = n;
                }
                config.budget = budget;
                eprintln!(
                    "fleet: {} boards x {} epochs on {} device(s), {} thread(s), {} kernel ...",
                    config.boards,
                    config.epochs,
                    config.devices,
                    config.budget.effective_threads(),
                    config.kernel.name()
                );
                let report = bench::fleet::run(&config);
                eprintln!("{report}");
                let csv = bench::csv::fleet_csv(&report);
                print!("{csv}");
                report_csv(write_csv(&out, "fleet.csv", csv));
            }
            "chaos" | "overload" => {
                let preset = if command == "chaos" {
                    EdgeConfig::chaos(storm_preset.unwrap_or(StormPreset::All))
                } else {
                    EdgeConfig::overload(storm_preset)
                };
                let config = EdgeConfig {
                    boards: boards.unwrap_or(preset.boards),
                    racks_per_region: racks.unwrap_or(preset.racks_per_region),
                    epochs: epochs.unwrap_or(preset.epochs),
                    seed: seed.unwrap_or(preset.seed),
                    budget,
                    ..preset
                };
                run_edge(command, &config, &out);
            }
            "edge" => {
                let mut config = edge_config.clone();
                if let Some(path) = &replay {
                    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                        usage_error(&format!(
                            "flag `--replay` could not read `{}`: {e}",
                            path.display()
                        ))
                    });
                    let workload = workloads::replay::from_csv(&text).unwrap_or_else(|e| {
                        usage_error(&format!(
                            "flag `--replay` got a malformed workload `{}`: {e}",
                            path.display()
                        ))
                    });
                    config.demand = edge_sim::Demand::Replay(workloads::replay::EpochReplay::new(
                        &workload,
                        config.epoch,
                        config.epochs,
                    ));
                }
                run_edge("edge", &config, &out);
            }
            "robustness" | "sweep" => {
                let (state, scratch) = state_dir(&state, "sweep");
                let model = bench::robustness::sweep_model(effort);
                let mut config = bench::sweep::SweepConfig {
                    effort,
                    budget,
                    crash_after_points: sweep_crash_after,
                    ..bench::sweep::SweepConfig::default()
                };
                if let Some(n) = points {
                    config.grid = Some(bench::sweep::default_grid().into_iter().take(n).collect());
                }
                let outcome = bench::sweep::run_sweep(&model, &config, &state, None);
                if scratch {
                    std::fs::remove_dir_all(&state).ok();
                }
                let outcome = outcome.unwrap_or_else(|e| {
                    eprintln!("sweep failed: {e}");
                    std::process::exit(1);
                });
                if let Some(seq) = outcome.resumed_from_seq {
                    eprintln!("resumed from manifest snapshot {seq}");
                }
                if outcome.corrupt_skipped > 0 {
                    eprintln!(
                        "skipped {} corrupt snapshot(s) during recovery",
                        outcome.corrupt_skipped
                    );
                }
                if let Some(reason) = &outcome.discarded {
                    eprintln!("discarded stale manifest: {reason}");
                }
                eprintln!("ran {} point(s)", outcome.points_run);
                if !outcome.completed {
                    if scratch {
                        eprintln!("sweep interrupted; pass --state <dir> to make it resumable");
                    } else {
                        eprintln!("sweep interrupted; rerun with the same --state to resume");
                    }
                    std::process::exit(130);
                }
                println!("{}", outcome.manifest.report());
                let csv = bench::sweep::sweep_csv(&outcome.manifest);
                report_csv(write_csv(&out, "sweep.csv", csv));
            }
            "train" => {
                let (state, scratch) = state_dir(&state, "train");
                let trainer = bench::harness::il_trainer(effort).with_budget(budget);
                let scenarios = topil::oracle::Scenario::standard_set(
                    effort.scenario_count().min(20),
                    0xC0FFEE,
                );
                let cases = trainer.collect_cases(&scenarios);
                let outcome = trainer.train_checkpointed(
                    &cases,
                    0,
                    &state,
                    &topil::CkptConfig::default(),
                    train_crash_after,
                    None,
                );
                if scratch {
                    std::fs::remove_dir_all(&state).ok();
                }
                match outcome {
                    Ok(outcome) => {
                        if let Some(seq) = outcome.resumed_from_seq {
                            eprintln!("resumed from training snapshot {seq}");
                        }
                        if let Some(reason) = &outcome.discarded {
                            eprintln!("discarded stale snapshot: {reason}");
                        }
                        eprintln!(
                            "{} epoch(s) recorded, {} snapshot(s) written",
                            outcome.report.train_losses.len(),
                            outcome.snapshots_written
                        );
                        if let Some(model) = outcome.model {
                            if let Some(dir) = &out {
                                let path = dir.join("il-model.bin");
                                match std::fs::create_dir_all(dir).and_then(|()| model.save(&path))
                                {
                                    Ok(()) => eprintln!("model written to {}", path.display()),
                                    Err(e) => eprintln!(
                                        "warning: failed to write {}: {e}",
                                        path.display()
                                    ),
                                }
                            }
                        } else {
                            if scratch {
                                eprintln!(
                                    "training interrupted; pass --state <dir> to make it resumable"
                                );
                            } else {
                                eprintln!(
                                    "training interrupted; rerun with the same --state to resume"
                                );
                            }
                            std::process::exit(130);
                        }
                    }
                    Err(e) => {
                        eprintln!("training failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            other => {
                eprintln!("unknown experiment `{other}`\n");
                eprint!("{USAGE}");
                std::process::exit(2);
            }
        }
        eprintln!(
            "[{command} finished in {:.1} s]\n",
            t.elapsed().as_secs_f64()
        );
    }
}
