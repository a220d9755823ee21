//! Bad-input behaviour of the `experiments` binary.
//!
//! Every malformed command line must print the usage text to stderr and
//! exit with status 2 — never panic, never start an experiment. These
//! tests spawn the real binary (Cargo exposes its path at build time), so
//! they exercise the exact code path a user hits.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    experiments_with_env(args, &[])
}

fn experiments_with_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn the experiments binary")
}

/// Asserts the usage-rejection contract: status 2, usage on stderr (with
/// the given diagnostic), and nothing on stdout.
fn assert_rejected(args: &[&str], diagnostic: &str) {
    assert_rejected_with_env(args, &[], diagnostic);
}

fn assert_rejected_with_env(args: &[&str], env: &[(&str, &str)], diagnostic: &str) {
    let out = experiments_with_env(args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(diagnostic),
        "{args:?} stderr should mention {diagnostic:?}, got:\n{stderr}"
    );
    assert!(
        stderr.contains("usage: experiments"),
        "{args:?} should print usage to stderr, got:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not write to stdout on a usage error"
    );
}

#[test]
fn unknown_command_is_rejected() {
    assert_rejected(&["frobnicate"], "unknown experiment `frobnicate`");
}

#[test]
fn unknown_flag_is_rejected_for_every_subcommand() {
    for command in [
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
    ] {
        assert_rejected(&[command, "--bogus"], "unknown flag `--bogus`");
    }
}

#[test]
fn unknown_storm_preset_is_rejected() {
    assert_rejected(&["chaos", "--storm", "bogus"], "unknown --storm `bogus`");
}

#[test]
fn malformed_numeric_values_are_rejected() {
    assert_rejected(&["fleet", "--boards", "eight"], "flag `--boards`");
    assert_rejected(&["fleet", "--epochs", "-3"], "flag `--epochs`");
    assert_rejected(&["overload", "--epochs", "many"], "flag `--epochs`");
    assert_rejected(&["chaos", "--racks", "two"], "flag `--racks`");
    assert_rejected(&["chaos", "--seed", "0x11"], "flag `--seed`");
    assert_rejected(&["sweep", "--points", "1.5"], "flag `--points`");
    assert_rejected(&["train", "--threads", "0.5"], "flag `--threads`");
    assert_rejected(&["fleet", "--churn", "often"], "flag `--churn`");
    assert_rejected(&["fleet", "--churn-down", "-1"], "flag `--churn-down`");
    assert_rejected(&["edge", "--users", "millions"], "flag `--users`");
    assert_rejected(&["edge", "--load", "heavy"], "flag `--load`");
}

/// Run sizes that would panic (or silently serve nothing) deep inside a
/// run are rejected at flag parsing instead.
#[test]
fn bad_run_sizes_are_rejected() {
    let at_least_one = |flag: &str| format!("flag `{flag}` must be at least 1");
    assert_rejected(&["edge", "--racks", "0"], &at_least_one("--racks"));
    assert_rejected(&["edge", "--epochs", "0"], &at_least_one("--epochs"));
    assert_rejected(&["edge", "--users", "0"], &at_least_one("--users"));
    assert_rejected(&["chaos", "--racks", "0"], &at_least_one("--racks"));
    assert_rejected(&["fleet", "--boards", "0"], &at_least_one("--boards"));
    assert_rejected(&["fleet", "--devices", "0"], &at_least_one("--devices"));
    assert_rejected(&["overload", "--boards", "0"], &at_least_one("--boards"));
    assert_rejected(&["sweep", "--points", "0"], &at_least_one("--points"));
    assert_rejected(&["robustness", "--points", "0"], &at_least_one("--points"));
    let positive = |flag: &str| format!("flag `{flag}` must be finite and above 0");
    assert_rejected(&["edge", "--load", "-1"], &positive("--load"));
    assert_rejected(&["edge", "--load", "0"], &positive("--load"));
    assert_rejected(&["edge", "--load", "inf"], &positive("--load"));
    assert_rejected(
        &["edge", "--boards", "3"],
        "flag `--boards` must be at least 4 for `edge`",
    );
}

/// The edge sizes go through `EdgeConfig::validate`, so the usage
/// message carries the simulator's own typed error.
#[test]
fn edge_sizes_are_checked_by_the_typed_config_error() {
    let err = edge_sim::EdgeConfigError::TooFewBoards {
        boards: 2,
        regions: 4,
    };
    assert_rejected(&["edge", "--boards", "2"], &err.to_string());
}

/// The simulated-crash counts are read before any run starts; a value
/// that is not a count is a usage error, not a silently ignored hook.
#[test]
fn malformed_crash_counts_are_rejected() {
    for (command, var) in [
        ("sweep", "TOPIL_SWEEP_CRASH_AFTER"),
        ("robustness", "TOPIL_SWEEP_CRASH_AFTER"),
        ("train", "TOPIL_TRAIN_CRASH_AFTER"),
    ] {
        assert_rejected_with_env(
            &[command, "--points", "1"],
            &[(var, "soon")],
            &format!("environment variable `{var}` got a malformed count `soon`"),
        );
    }
}

#[test]
fn unreadable_replay_file_is_rejected() {
    assert_rejected(
        &["edge", "--replay", "/nonexistent/trace.csv"],
        "flag `--replay` could not read",
    );
}

#[test]
fn flag_missing_its_value_is_rejected() {
    assert_rejected(&["fleet", "--devices"], "flag `--devices` needs a value");
    assert_rejected(&["edge", "--replay"], "flag `--replay` needs a value");
}

#[test]
fn bare_storm_flag_does_not_eat_the_next_flag() {
    // A flag after a bare `--storm` must not be eaten as its value: the
    // diagnostic names the unknown flag, not an unknown storm preset.
    assert_rejected(&["edge", "--storm", "--bogus"], "unknown flag `--bogus`");
}

#[test]
fn overload_rejects_a_bare_storm() {
    // The bare flag is the edge backbone outage; `overload` takes a
    // storm preset, so a bare one is a usage error, not ignored.
    assert_rejected(
        &["overload", "--storm"],
        "a bare `--storm` (the backbone outage) applies to `edge`",
    );
}

/// Runs `experiments` in `dir` and asserts it succeeded; returns stderr.
fn succeed_in(dir: &std::path::Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn the experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{args:?} stderr:\n{stderr}");
    stderr
}

/// Without `--state`, training checkpoints into a temporary directory it
/// removes: a rerun in the same working directory trains again instead
/// of resuming, and nothing is left behind.
#[test]
fn train_without_state_starts_fresh_and_leaves_no_state() {
    let dir = std::env::temp_dir().join(format!("topil-cli-train-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let args = ["train", "--threads", "1"];
    let first = succeed_in(&dir, &args);
    let second = succeed_in(&dir, &args);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read the working directory")
        .map(|entry| entry.expect("a directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    for stderr in [&first, &second] {
        assert!(
            !stderr.contains("resumed from training snapshot"),
            "a run without --state resumed:\n{stderr}"
        );
        assert!(!stderr.contains(" 0 snapshot(s) written"), "{stderr}");
    }
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
}

#[test]
fn overload_subcommand_emits_the_gate_rows() {
    let out = experiments(&["overload", "--storm", "all", "--threads", "1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("section,index,metric,value\n"));
    assert!(stdout.contains("\nsummary,,invariant_violations,0\n"));
    assert!(stdout.contains("\nsummary,,storm,all\n"));
    assert!(stdout.contains("\nsummary,,boards,128\n"));
}

#[test]
fn help_exits_cleanly() {
    // Every help spelling prints the usage to *stdout* and exits 0 —
    // asking for help is not an error.
    for invocation in [
        &["--help"][..],
        &["-h"][..],
        &["help"][..],
        &["list"][..],
        &["edge", "--help"][..],
    ] {
        let out = experiments(invocation);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{invocation:?} should exit 0, stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage: experiments"),
            "{invocation:?} should print usage to stdout"
        );
        assert!(
            out.stderr.is_empty(),
            "{invocation:?} must not write to stderr on a help request"
        );
    }
}

#[test]
fn edge_subcommand_emits_the_gate_row() {
    let out = experiments(&[
        "edge",
        "--boards",
        "16",
        "--racks",
        "2",
        "--epochs",
        "8",
        "--users",
        "500",
        "--seed",
        "3",
        "--threads",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("section,index,metric,value\n"));
    assert!(stdout.contains("\nsummary,,invariant_violations,0\n"));
    assert!(stdout.contains("\nsummary,,boards,16\n"));
    assert!(stdout.contains("\nsummary,,users,500\n"));
    // Wall-clock throughput is diagnostics: stderr, never the CSV.
    assert!(!stdout.contains("boards/s"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("simulated boards/s"));
}

#[test]
fn edge_applies_a_storm_preset() {
    let run = |storm: &[&str]| {
        let mut args = vec![
            "edge",
            "--boards",
            "16",
            "--racks",
            "2",
            "--epochs",
            "8",
            "--users",
            "500",
            "--seed",
            "3",
            "--threads",
            "1",
        ];
        args.extend_from_slice(storm);
        let out = experiments(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let calm = run(&[]);
    let storm = run(&["--storm", "crash-wave"]);
    assert!(calm.contains("\nsummary,,storm,none\n"));
    assert!(calm.contains("\nsummary,,availability,1.000000\n"));
    assert!(storm.contains("\nsummary,,storm,crash-wave\n"));
    assert!(storm.contains("\nsummary,,invariant_violations,0\n"));
    assert!(!storm.contains("\nsummary,,availability,1.000000\n"));
}

#[test]
fn chaos_subcommand_emits_the_gate_row() {
    let out = experiments(&[
        "chaos",
        "--boards",
        "4",
        "--racks",
        "2",
        "--epochs",
        "8",
        "--seed",
        "7",
        "--storm",
        "crash-wave",
        "--threads",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("section,index,metric,value\n"));
    assert!(stdout.contains("\nsummary,,invariant_violations,0\n"));
    assert!(stdout.contains("\nsummary,,storm,crash-wave\n"));
}

#[test]
fn storm_all_binds_as_a_preset_not_the_all_command() {
    // `all` names both a storm preset and a command; after `--storm` the
    // preset reading must win (the run is chaos, not the whole suite).
    let out = experiments(&[
        "chaos",
        "--storm",
        "all",
        "--boards",
        "4",
        "--racks",
        "2",
        "--epochs",
        "6",
        "--seed",
        "7",
        "--threads",
        "1",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\nsummary,,storm,all\n"));
    assert!(!stdout.contains("TOP-IL experiment suite ran figures"));
}
