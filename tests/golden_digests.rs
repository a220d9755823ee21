//! Golden CSV digests: every simulator harness runs a small named
//! scenario grid, and the FNV-64 digest of its CSV bytes must match the
//! committed fixture in `tests/golden/digests/`.
//!
//! Each scenario is checked at a one-thread and a four-thread budget
//! against the same fixture, so the digests pin both the behaviour and
//! its budget invariance. One more fixture, `model_fleet0`, pins the
//! trained weight bits the fleet scenarios deploy. Regenerate fixtures after an intentional
//! behaviour change with:
//!
//! ```text
//! BLESS=1 cargo test --test golden_digests
//! ```
//!
//! Every harness seeds `StdRng` (model training, payloads, topologies),
//! so every fixture records the stream fingerprint it was blessed under
//! and is skipped, with a notice, under a different stream.

mod common;

use std::sync::OnceLock;

use bench::csv::{edge_csv, fleet_csv};
use bench::fleet::{self, ChurnSpec, FleetConfig};
use common::{check_golden, quick_model, CsvDigest, ModelDigest};
use edge_sim::{Demand, EdgeConfig, StormPreset};
use top_il::par::Budget;
use top_il::prelude::*;
use top_il::workloads::replay::EpochReplay;
use top_il::workloads::ArrivalSpec;

/// Checks `csv`'s digest against fixture `name` at budgets 1 and 4.
fn check_csv(name: &str, csv: &'static str, run: impl Fn(Budget) -> String) {
    for budget in [Budget::serial(), Budget::with_threads(4)] {
        check_golden(name, true, || CsvDigest {
            csv,
            bytes: run(budget),
        });
    }
}

/// The fleet model, trained once and shared by the fleet scenarios.
fn model() -> &'static IlModel {
    static MODEL: OnceLock<IlModel> = OnceLock::new();
    MODEL.get_or_init(|| fleet::fleet_model(0))
}

/// The trained parameters of the fleet model and of the quick test
/// model, bit for bit: a training drift fails here, at the training
/// layer, instead of first surfacing as a simulator CSV diff.
#[test]
fn model_fleet0() {
    check_golden("model_fleet0", true, || {
        ModelDigest::of(&[
            ("fleet_model_0", model()),
            ("quick_model_0", &quick_model(0)),
        ])
    });
}

fn fleet_digest(name: &str, config: FleetConfig) {
    check_csv(name, "fleet", |budget| {
        fleet_csv(&fleet::run_with_model(
            model(),
            &FleetConfig { budget, ..config },
        ))
    });
}

fn small_fleet() -> FleetConfig {
    FleetConfig {
        boards: 6,
        epochs: 16,
        devices: 2,
        max_batch: 8,
        seed: 11,
        ..FleetConfig::default()
    }
}

#[test]
fn fleet_stable() {
    fleet_digest("fleet_stable", small_fleet());
}

/// 4 boards x 160 epochs: every board's work drains early, leaving a
/// long idle tail of barriers.
#[test]
fn fleet_sparse() {
    fleet_digest(
        "fleet_sparse",
        FleetConfig {
            boards: 4,
            epochs: 160,
            seed: 5,
            ..small_fleet()
        },
    );
}

#[test]
fn fleet_churn() {
    fleet_digest(
        "fleet_churn",
        FleetConfig {
            epochs: 24,
            seed: 3,
            churn: Some(ChurnSpec { period: 3, down: 8 }),
            ..small_fleet()
        },
    );
}

/// The overload preset as `experiments overload` runs it: one saturated
/// rack, plain.
#[test]
fn overload_plain() {
    edge_digest("overload_plain", EdgeConfig::overload(None));
}

/// The overload preset under the full storm.
#[test]
fn overload_storm() {
    edge_digest(
        "overload_storm",
        EdgeConfig::overload(Some(StormPreset::All)),
    );
}

/// The five storm presets in the chaos scenario at the CI chaos gate's
/// size.
#[test]
fn chaos_presets() {
    for storm in StormPreset::ALL {
        edge_digest(
            &format!("chaos_{storm}"),
            EdgeConfig {
                boards: 8,
                racks_per_region: 2,
                epochs: 24,
                seed: 11,
                ..EdgeConfig::chaos(storm)
            },
        );
    }
}

fn edge_digest(name: &str, config: EdgeConfig) {
    check_csv(name, "edge", |budget| {
        let config = EdgeConfig {
            budget,
            ..config.clone()
        };
        edge_csv(&edge_sim::run(&config), config.storm)
    });
}

fn small_edge() -> EdgeConfig {
    EdgeConfig {
        boards: 32,
        users: 2_000,
        regions: 2,
        racks_per_region: 2,
        epochs: 16,
        seed: 11,
        ..EdgeConfig::default()
    }
}

#[test]
fn edge_small() {
    edge_digest("edge_small", small_edge());
}

#[test]
fn edge_outage() {
    edge_digest(
        "edge_outage",
        EdgeConfig {
            outage: true,
            ..small_edge()
        },
    );
}

/// 6x load packed into one region with one rack, so the rack tier
/// saturates and failover, hedging and breakers all engage.
#[test]
fn edge_overload6() {
    edge_digest(
        "edge_overload6",
        EdgeConfig {
            regions: 1,
            racks_per_region: 1,
            load: 6.0,
            ..small_edge()
        },
    );
}

#[test]
fn edge_replay() {
    let base = small_edge();
    let workload = Workload::new(
        (0..200)
            .map(|i| ArrivalSpec {
                at: SimTime::from_millis(i * 7),
                benchmark: Benchmark::Adi,
                qos: QosSpec::FractionOfMaxBig(0.3),
                total_instructions: None,
            })
            .collect(),
    );
    let demand = Demand::Replay(EpochReplay::new(&workload, base.epoch, base.epochs));
    edge_digest("edge_replay", EdgeConfig { demand, ..base });
}
