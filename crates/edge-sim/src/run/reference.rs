//! The materialising region planner, kept as the specification of
//! [`RegionPlan`] (as `platform/reference.rs` is of the platform tick).
//! It plans every request of the run before the first epoch is served:
//! all arrivals through the uplinks into one bucket per delivery epoch,
//! each bucket sorted by `(delivered_at, seq)`, and the users in a hash
//! set. The streamed planner must yield the same deliveries per epoch
//! and the same counts.

use std::collections::HashSet;

use workloads::{ArrivalSpec, Benchmark, QosSpec, Workload};

use super::*;

/// Every request of one region, materialised up front.
struct ReferencePlan {
    /// The deliveries of each epoch, in delivery order.
    epochs: Vec<Vec<PlannedRequest>>,
    generated: u64,
    truncated: u64,
    active_users: u64,
    down_board_epochs: u64,
}

fn plan_region(config: &EdgeConfig, region: usize) -> ReferencePlan {
    let schedule = storm_schedule(config, region);
    let down = board_down_spans(
        &schedule,
        region_boards(config.boards, config.regions, region),
    );
    let epoch_ns = config.epoch.as_nanos();
    let racks = config.racks_per_region;
    let mut uplinks = vec![FifoLink::new(config.network.edge); racks];
    let jitter_ns = config.network.jitter.as_nanos();
    let jitter_stream = jitter_stream(config, region);
    let downlink = config.network.downlink();

    let mut generated = 0u64;
    let mut truncated = 0u64;
    let mut active_users = HashSet::new();
    let mut epochs: Vec<Vec<PlannedRequest>> = vec![Vec::new(); config.epochs as usize];
    let mut seq = 0u64;
    let mut arrivals = Vec::new();
    for epoch in 0..config.epochs {
        let base = SimTime::from_nanos(epoch * epoch_ns);
        frontier::epoch_arrivals(config, region, epoch, &mut arrivals);
        for arrival in &arrivals {
            if down.as_ref().is_some_and(|spans| {
                spans[arrival.board]
                    .iter()
                    .any(|&(from, until)| (from..until).contains(&epoch))
            }) {
                continue;
            }
            generated += 1;
            active_users.insert(arrival.user);
            let at = base + arrival.offset;
            let wire = uplinks[arrival.board % racks].send(at, config.network.request_bytes);
            let jitter = SimDuration::from_nanos(if jitter_ns == 0 {
                0
            } else {
                sim_core::mix_indexed(jitter_stream, seq) % (jitter_ns + 1)
            });
            seq += 1;
            let delivered_at = wire + jitter;
            let delivery_epoch = delivered_at.as_nanos() / epoch_ns;
            if delivery_epoch >= config.epochs {
                truncated += 1;
                continue;
            }
            epochs[delivery_epoch as usize].push(PlannedRequest {
                board: arrival.board,
                at,
                delivered_at,
                deadline_tier: at + config.qos_deadline - downlink,
                payload_seed: arrival.payload_seed,
                seq,
            });
        }
    }
    for bucket in &mut epochs {
        bucket.sort_by_key(|request| (request.delivered_at, request.seq));
    }
    let down_board_epochs = down
        .iter()
        .flatten()
        .flatten()
        .map(|&(from, until)| until - from)
        .sum();
    ReferencePlan {
        epochs,
        generated,
        truncated,
        active_users: active_users.len() as u64,
        down_board_epochs,
    }
}

/// How far the checked deliveries travelled: the largest number of epoch
/// boundaries one crossed, and the requests truncated past the horizon.
#[derive(Default)]
struct Coverage {
    furthest: u64,
    truncated: u64,
}

/// Streams every region of `config` and holds each epoch's deliveries and
/// the final counts equal to the reference plan's.
fn check(name: &str, config: &EdgeConfig, coverage: &mut Coverage) {
    let epoch_ns = config.epoch.as_nanos();
    for region in 0..config.regions {
        let reference = plan_region(config, region);
        let schedule = storm_schedule(config, region);
        let mut plan = RegionPlan::new(config, region, &schedule);
        for epoch in 0..config.epochs {
            let streamed = plan.next_epoch(config, region, epoch);
            let expected = &reference.epochs[epoch as usize];
            assert_eq!(
                streamed, expected,
                "{name}: region {region} epoch {epoch} deliveries differ"
            );
            for request in streamed {
                let crossed = epoch - request.at.as_nanos() / epoch_ns;
                coverage.furthest = coverage.furthest.max(crossed);
            }
        }
        assert_eq!(
            (
                plan.generated,
                plan.truncated,
                plan.active_users(),
                plan.down_board_epochs
            ),
            (
                reference.generated,
                reference.truncated,
                reference.active_users,
                reference.down_board_epochs
            ),
            "{name}: region {region} counts differ"
        );
        coverage.truncated += plan.truncated;
    }
}

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
fn streamed_plan_matches_the_materialising_reference() {
    let mut coverage = Coverage::default();
    check("flash crowd", &small(), &mut coverage);
    check(
        "calm",
        &EdgeConfig {
            flash: None,
            ..small()
        },
        &mut coverage,
    );
    check(
        "outage",
        &EdgeConfig {
            outage: true,
            ..small()
        },
        &mut coverage,
    );
    for storm in [
        StormPreset::CrashWave,
        StormPreset::Partition,
        StormPreset::Heartbeat,
        StormPreset::SlowTier,
        StormPreset::All,
    ] {
        let config = EdgeConfig {
            boards: 8,
            racks_per_region: 2,
            epochs: 20,
            seed: 5,
            ..EdgeConfig::chaos(storm)
        };
        check(&format!("storm {storm}"), &config, &mut coverage);
    }
    check(
        "overload",
        &EdgeConfig {
            load: 6.0,
            regions: 1,
            racks_per_region: 1,
            ..small()
        },
        &mut coverage,
    );
    let workload = Workload::new(
        (0..300)
            .map(|i| ArrivalSpec {
                at: SimTime::from_millis(i * 5),
                benchmark: Benchmark::Adi,
                qos: QosSpec::FractionOfMaxBig(0.3),
                total_instructions: None,
            })
            .collect(),
    );
    let replay = workloads::replay::EpochReplay::new(&workload, small().epoch, small().epochs);
    check(
        "replay",
        &EdgeConfig {
            demand: Demand::Replay(replay),
            ..small()
        },
        &mut coverage,
    );
    // Arrivals four to an instant with no jitter: requests homed on
    // different racks are delivered at the same instant, and their plan
    // sequence orders them.
    let simultaneous = Workload::new(
        (0..800)
            .map(|i| ArrivalSpec {
                at: SimTime::from_millis(i / 4),
                benchmark: Benchmark::Adi,
                qos: QosSpec::FractionOfMaxBig(0.3),
                total_instructions: None,
            })
            .collect(),
    );
    let replay = workloads::replay::EpochReplay::new(&simultaneous, small().epoch, small().epochs);
    check(
        "simultaneous deliveries",
        &EdgeConfig {
            demand: Demand::Replay(replay),
            racks_per_region: 4,
            network: NetworkConfig {
                jitter: SimDuration::ZERO,
                ..NetworkConfig::default()
            },
            ..small()
        },
        &mut coverage,
    );
    // A congested uplink (10 kB/s, 25.6 ms per request, about eight
    // requests per rack and epoch) backs its FIFO up across several
    // epochs and past the horizon.
    let network = NetworkConfig {
        edge: sim_core::net::Link::new(SimDuration::from_millis(2), 10_000),
        ..NetworkConfig::default()
    };
    check(
        "congested uplink",
        &EdgeConfig { network, ..small() },
        &mut coverage,
    );
    assert!(
        coverage.furthest >= 2,
        "no delivery crossed two epoch boundaries (furthest {})",
        coverage.furthest
    );
    assert!(coverage.truncated > 0, "no delivery was truncated");
}

#[test]
fn a_run_plans_every_epoch_in_reused_buckets() {
    let config = EdgeConfig {
        load: 6.0,
        regions: 1,
        racks_per_region: 1,
        ..small()
    };
    let schedule = storm_schedule(&config, 0);
    let mut plan = RegionPlan::new(&config, 0, &schedule);
    for epoch in 0..config.epochs {
        plan.next_epoch(&config, 0, epoch);
        // The bucket being served, the ones ahead and the spares: with
        // deliveries at most one boundary ahead, three buckets serve the
        // whole run.
        assert!(
            1 + plan.ahead.len() + plan.spare.len() <= 3,
            "epoch {epoch}: {} buckets ahead, {} spare",
            plan.ahead.len(),
            plan.spare.len()
        );
    }
}
