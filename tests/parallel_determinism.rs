//! Cross-cutting bit-identity proof for the `par` execution engine.
//!
//! Every layer that accepts a [`par::Budget`] — IL trace collection feeding
//! checkpointed training, the resumable robustness sweep and the fleet
//! simulator — must produce
//! *byte-identical* artifacts at every thread count: same model weights,
//! same checkpoint snapshot bytes on disk, same CSV output, same per-point
//! trace hashes. The budgets include 7 (and odd item counts) on purpose:
//! remainders and partial final waves are where order bugs hide.

mod common;

use std::path::{Path, PathBuf};

use bench::sweep::{model_fingerprint, run_sweep, GridPoint, SweepConfig, SWEEP_KIND};
use checkpoint::CheckpointStore;
use par::Budget;
use top_il::prelude::*;
use topil::ckpt::{CkptConfig, IL_TRAIN_KIND};
use topil::oracle::OracleCase;

/// The non-serial budgets every layer is checked against. 2 and 4 divide
/// typical item counts; 7 does not divide anything in sight.
const BUDGETS: [usize; 3] = [2, 4, 7];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("par-determinism-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sorted `(file name, contents)` pairs of every checkpoint snapshot in
/// `dir` — the byte-level identity of a store.
fn snapshot_bytes(dir: &PathBuf, kind: &str) -> Vec<(String, Vec<u8>)> {
    let store = CheckpointStore::open(dir, kind, 16).expect("open store");
    let mut files: Vec<(String, Vec<u8>)> = store
        .snapshot_paths()
        .expect("list snapshots")
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let bytes = std::fs::read(&p).expect("read snapshot");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn tiny_train_settings() -> TrainSettings {
    TrainSettings {
        nn: nn::TrainConfig {
            max_epochs: 9, // odd epoch count: the last batch is a remainder
            ..nn::TrainConfig::default()
        },
        hidden_layers: 1,
        width: 8,
        ..TrainSettings::default()
    }
}

/// Collects the cases under `budget` and trains on them with snapshots:
/// the cases, the model, the loss report and the snapshot bytes must not
/// depend on the budget.
fn checkpointed_training(
    budget: Budget,
    dir: &Path,
) -> (Vec<OracleCase>, IlModel, nn::TrainReport) {
    let trainer = IlTrainer::new(tiny_train_settings()).with_budget(budget);
    // Odd scenario count so `collect_cases`' parallel map has a tail.
    let cases = trainer.collect_cases(&Scenario::standard_set(3, 4));
    let outcome = trainer
        .train_checkpointed(&cases, 11, dir, &CkptConfig::default(), None, None)
        .unwrap();
    assert!(outcome.completed);
    (cases, outcome.model.expect("run completed"), outcome.report)
}

#[test]
fn training_checkpoints_are_bit_identical_across_budgets() {
    let serial_dir = tmp_dir("train-serial");
    let (reference_cases, reference_model, reference_report) =
        checkpointed_training(Budget::serial(), &serial_dir);
    let reference_snapshots = snapshot_bytes(&serial_dir, IL_TRAIN_KIND);
    assert!(!reference_snapshots.is_empty());

    for threads in BUDGETS {
        let dir = tmp_dir(&format!("train-t{threads}"));
        let (cases, model, report) = checkpointed_training(Budget::with_threads(threads), &dir);
        assert_eq!(
            cases, reference_cases,
            "threads={threads}: collected cases diverged"
        );
        assert_eq!(
            model_fingerprint(&model),
            model_fingerprint(&reference_model),
            "threads={threads}: model weights diverged from serial"
        );
        assert_eq!(report, reference_report, "threads={threads}");
        assert_eq!(
            snapshot_bytes(&dir, IL_TRAIN_KIND),
            reference_snapshots,
            "threads={threads}: checkpoint snapshot bytes diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&serial_dir).ok();
}

/// Three grid points: an odd count, so at 2 threads the last wave is a
/// remainder and at 4/7 threads the single wave is under-full.
fn sweep_grid_points() -> Vec<GridPoint> {
    vec![
        GridPoint {
            npu_failure_rate: 0.0,
            sensor_dropout_rate: 0.0,
            ladder: true,
        },
        GridPoint {
            npu_failure_rate: 0.5,
            sensor_dropout_rate: 0.0,
            ladder: true,
        },
        GridPoint {
            npu_failure_rate: 0.0,
            sensor_dropout_rate: 0.3,
            ladder: false,
        },
    ]
}

#[test]
fn sweep_manifest_and_csv_are_bit_identical_across_budgets() {
    let model = common::quick_model(3);

    let serial_dir = tmp_dir("sweep-serial");
    let config = SweepConfig {
        grid: Some(sweep_grid_points()),
        budget: Budget::serial(),
        ..SweepConfig::default()
    };
    let reference = run_sweep(&model, &config, &serial_dir, None).unwrap();
    assert!(reference.completed);
    let reference_csv = bench::sweep::sweep_csv(&reference.manifest);
    let reference_snapshots = snapshot_bytes(&serial_dir, SWEEP_KIND);

    for threads in BUDGETS {
        let dir = tmp_dir(&format!("sweep-t{threads}"));
        let config = SweepConfig {
            budget: Budget::with_threads(threads),
            ..config.clone()
        };
        let outcome = run_sweep(&model, &config, &dir, None).unwrap();
        assert!(outcome.completed, "threads={threads}");
        // Manifest equality covers every per-point trace hash.
        assert_eq!(outcome.manifest, reference.manifest, "threads={threads}");
        assert_eq!(
            bench::sweep::sweep_csv(&outcome.manifest),
            reference_csv,
            "threads={threads}: sweep CSV bytes diverged"
        );
        assert_eq!(
            snapshot_bytes(&dir, SWEEP_KIND),
            reference_snapshots,
            "threads={threads}: manifest snapshot bytes diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&serial_dir).ok();
}

#[test]
fn fleet_csv_is_bit_identical_across_budgets() {
    let model = common::quick_model(5);
    let config = bench::fleet::FleetConfig {
        boards: 5, // odd: chunked board stepping leaves a remainder
        epochs: 6,
        devices: 2,
        max_batch: 8,
        seed: 3,
        budget: Budget::serial(),
        ..bench::fleet::FleetConfig::default()
    };
    let reference = bench::fleet::run_with_model(&model, &config);
    assert_eq!(reference.mismatches, 0);
    let reference_csv = bench::csv::fleet_csv(&reference);

    for threads in BUDGETS {
        let config = bench::fleet::FleetConfig {
            budget: Budget::with_threads(threads),
            ..config
        };
        let report = bench::fleet::run_with_model(&model, &config);
        assert_eq!(
            bench::csv::fleet_csv(&report),
            reference_csv,
            "threads={threads}: fleet CSV bytes diverged"
        );
        // Everything except the budget carried in the config must match.
        assert_eq!(report.boards, reference.boards, "threads={threads}");
        assert_eq!(report.submitted, reference.submitted, "threads={threads}");
        assert_eq!(report.served, reference.served, "threads={threads}");
        assert_eq!(report.batches, reference.batches, "threads={threads}");
        assert_eq!(
            report.batch_histogram, reference.batch_histogram,
            "threads={threads}"
        );
        assert_eq!(report.mismatches, 0, "threads={threads}");
    }
}
