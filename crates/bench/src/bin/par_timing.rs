//! Wall-clock timing harness behind `BENCH_parallel.json`.
//!
//! Measures the serial wall time of two layers that accept a
//! [`par::Budget`] — a robustness-sweep grid and a fleet run — re-runs
//! each at a 4-thread budget, verifies the outputs are bit-identical, and
//! reports a *modeled* 4-worker sweep speedup from the measured serial
//! decomposition (parallelizable work scheduled over four workers plus
//! the measured serial residue). The modeled number is the honest
//! headline on hosts with fewer than four cores, where the measured
//! parallel wall time cannot beat serial. Prints JSON to stdout:
//!
//! ```text
//! cargo run --release -p bench --bin par-timing > BENCH_parallel.json
//! ```
//!
//! Methodology notes:
//!
//! * Sweep points are timed as grid *prefixes* (via the sweep's
//!   simulated-crash count), so each point's cost is measured in grid
//!   context: after the same store open and manifest commits as in a
//!   whole run.

use std::path::PathBuf;
use std::time::Instant;

use bench::fleet::{run_with_model, FleetConfig};
use bench::sweep::{run_sweep, sweep_csv, GridPoint, SweepConfig};
use par::Budget;
use topil::oracle::Scenario;
use topil::training::{IlModel, IlTrainer, TrainSettings};

const SAMPLES: usize = 7;

/// Median wall time of `f` in nanoseconds over [`SAMPLES`] runs.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("par-timing-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn quick_model(seed: u64) -> IlModel {
    let settings = TrainSettings {
        nn: nn::TrainConfig {
            max_epochs: 30,
            ..nn::TrainConfig::default()
        },
        ..TrainSettings::default()
    };
    IlTrainer::new(settings).train(&Scenario::standard_set(6, 9), seed)
}

fn main() {
    println!("{{");
    println!(
        "  \"note\": \"wall-clock ns, medians of {SAMPLES} samples on a {}-core host; \
         measured_t4 re-runs the same work at Budget::with_threads(4), modeled_t4 schedules \
         the measured parallelizable work over 4 workers and adds the measured serial \
         residue (Amdahl); every *identical* flag asserts bit-identical outputs across \
         budgets; sweep points are timed as grid prefixes\",",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // --- Layer 1: a four-point sweep grid ---------------------------------
    let model = quick_model(3);
    let grid: Vec<GridPoint> = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.3, 0.2)]
        .iter()
        .map(|&(npu, drop)| GridPoint {
            npu_failure_rate: npu,
            sensor_dropout_rate: drop,
            ladder: true,
        })
        .collect();
    let sweep_config = |budget: Budget| SweepConfig {
        grid: Some(grid.clone()),
        budget,
        ..SweepConfig::default()
    };
    // Serial prefix times T(k) = store open + first k points + k commits;
    // marginals T(k) - T(k-1) are the per-point costs in grid context.
    let serial_config = sweep_config(Budget::serial());
    let mut prefix_ns = vec![0.0f64; grid.len() + 1];
    for (k, slot) in prefix_ns.iter_mut().enumerate() {
        let prefix_config = SweepConfig {
            crash_after_points: Some(k),
            ..serial_config.clone()
        };
        *slot = median_ns(|| {
            let dir = tmp_dir(&format!("prefix-{k}"));
            run_sweep(&model, &prefix_config, &dir, None).expect("sweep prefix");
            std::fs::remove_dir_all(&dir).ok();
        });
        eprintln!("sweep prefix {k} timed");
    }
    let point_ns: Vec<f64> = prefix_ns
        .windows(2)
        .map(|w| (w[1] - w[0]).max(0.0))
        .collect();
    let mut serial_manifest = None;
    let grid_serial_ns = median_ns(|| {
        let dir = tmp_dir("grid-serial");
        let outcome = run_sweep(&model, &serial_config, &dir, None).expect("sweep");
        serial_manifest = Some(outcome.manifest);
        std::fs::remove_dir_all(&dir).ok();
    });
    let parallel_config = sweep_config(Budget::with_threads(4));
    let mut parallel_manifest = None;
    let grid_t4_ns = median_ns(|| {
        let dir = tmp_dir("grid-t4");
        let outcome = run_sweep(&model, &parallel_config, &dir, None).expect("sweep");
        parallel_manifest = Some(outcome.manifest);
        std::fs::remove_dir_all(&dir).ok();
    });
    let sweep_identical = match (&serial_manifest, &parallel_manifest) {
        (Some(a), Some(b)) => a == b && sweep_csv(a) == sweep_csv(b),
        _ => false,
    };
    // One wave of four points on four workers: wall time is the slowest
    // point plus the serial base (store open) and any unattributed rest.
    let sum_ns: f64 = point_ns.iter().sum();
    let slowest_ns = point_ns.iter().fold(0.0f64, |a, &b| a.max(b));
    let base_ns = prefix_ns[0];
    let unattributed_ns = (grid_serial_ns - base_ns - sum_ns).max(0.0);
    let grid_modeled_t4 = base_ns + slowest_ns + unattributed_ns;
    println!("  \"sweep_grid_points\": {},", grid.len());
    println!("  \"sweep_grid_serial_ns\": {grid_serial_ns:.0},");
    println!("  \"sweep_grid_measured_t4_ns\": {grid_t4_ns:.0},");
    println!("  \"sweep_point_slowest_ns\": {slowest_ns:.0},");
    println!(
        "  \"sweep_grid_serial_residue_ns\": {:.0},",
        base_ns + unattributed_ns
    );
    println!("  \"sweep_grid_modeled_t4_ns\": {grid_modeled_t4:.0},");
    println!(
        "  \"modeled_speedup_sweep_grid_4workers\": {:.2},",
        grid_serial_ns / grid_modeled_t4
    );
    println!("  \"sweep_grid_identical\": {sweep_identical},");
    eprintln!("sweep grid timed");

    // --- Layer 2: a fleet run ---------------------------------------------
    let fleet_config = FleetConfig {
        boards: 8,
        epochs: 8,
        devices: 2,
        max_batch: 8,
        seed: 3,
        budget: Budget::serial(),
        ..FleetConfig::default()
    };
    let mut serial_csv = String::new();
    let fleet_serial_ns = median_ns(|| {
        serial_csv = bench::csv::fleet_csv(&run_with_model(&model, &fleet_config));
    });
    let fleet_t4 = FleetConfig {
        budget: Budget::with_threads(4),
        ..fleet_config
    };
    let mut t4_csv = String::new();
    let fleet_t4_ns = median_ns(|| {
        t4_csv = bench::csv::fleet_csv(&run_with_model(&model, &fleet_t4));
    });
    println!("  \"fleet_boards\": {},", fleet_config.boards);
    println!("  \"fleet_serial_ns\": {fleet_serial_ns:.0},");
    println!("  \"fleet_measured_t4_ns\": {fleet_t4_ns:.0},");
    println!("  \"fleet_csv_identical\": {}", serial_csv == t4_csv);
    println!("}}");
}
