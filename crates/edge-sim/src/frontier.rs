//! User/request frontier: seeded open-loop arrival generation.
//!
//! Millions of logical users are partitioned into regions by a Zipf
//! share, and each `(region, epoch)` cell of the schedule draws its
//! request count from a rate model — base load per board, a diurnal
//! curve phase-shifted per region, and an optional flash crowd — then
//! materialises each request from the workspace-shared splitmix64
//! streams ([`sim_core::rng`]). No user state is ever stored: a user is
//! an index, their home board is a pure hash of their identity, and the
//! whole schedule is a pure function of `(seed, region, epoch)`.

use hmc_types::SimDuration;
use sim_core::GOLDEN_GAMMA;
use workloads::replay::EpochReplay;

use crate::run::EdgeConfig;
use crate::topology::region_boards;

/// Simulated epochs per diurnal cycle. The sun rises every 24 barrier
/// epochs of simulated time — a compressed day, so short runs still
/// sweep a full load curve.
pub const EPOCHS_PER_DAY: u64 = 24;

/// Stream tags keeping the frontier's independent draw families apart.
const TAG_REQ: u64 = 0x6564_6765_2d72_6571; // "edge-req"
const TAG_GATE: u64 = 0x6564_6765_2d63_6e74; // "edge-cnt"
const TAG_AFFINITY: u64 = 0x6564_6765_2d61_6666; // "edge-aff"
const TAG_REPLAY: u64 = 0x6564_6765_2d72_7079; // "edge-rpy"

/// Where the request schedule comes from.
#[derive(Debug, Clone, Default)]
pub enum Demand {
    /// The synthetic rate model: load × diurnal × skew × flash.
    #[default]
    Synthetic,
    /// Replay of a recorded [`workloads::Workload`], rebucketed into
    /// epochs and tiled across the horizon; requests are sprayed over
    /// the regions by a seeded hash.
    Replay(EpochReplay),
}

/// A flash-crowd burst: one region's demand is multiplied for a window
/// in the middle of the run (`[epochs/2, epochs/2 + max(epochs/8, 1))`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// The region the crowd descends on.
    pub region: usize,
    /// Demand multiplier while the burst is active.
    pub multiplier: f64,
}

impl FlashCrowd {
    /// Whether the burst is active in `epoch` of an `epochs`-long run.
    pub fn active(&self, epoch: u64, epochs: u64) -> bool {
        let start = epochs / 2;
        let len = (epochs / 8).max(1);
        (start..start + len).contains(&epoch)
    }
}

/// One planned request, before the network model touches it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EdgeArrival {
    /// Arrival instant at the user, as an offset into the epoch.
    pub offset: SimDuration,
    /// Global logical user id.
    pub user: u64,
    /// Region-local board the user's affinity hash pins them to.
    pub board: usize,
    /// Seed the request payload is a pure function of.
    pub payload_seed: u64,
}

/// Zipf weight of region `region` under skew `s`: `(r + 1)^-s`.
fn zipf_weight(region: usize, skew: f64) -> f64 {
    ((region + 1) as f64).powf(-skew)
}

/// Logical users homed in region `region` (Zipf share of the total,
/// remainder users assigned to the lowest regions).
pub(crate) fn region_users(users: u64, regions: usize, skew: f64, region: usize) -> u64 {
    let total: f64 = (0..regions).map(|r| zipf_weight(r, skew)).sum();
    let share = |r: usize| (users as f64 * zipf_weight(r, skew) / total).floor() as u64;
    let assigned: u64 = (0..regions).map(share).sum();
    let leftover = users - assigned;
    share(region) + u64::from((region as u64) < leftover)
}

/// First global user id of region `region`.
pub(crate) fn region_user_base(users: u64, regions: usize, skew: f64, region: usize) -> u64 {
    (0..region)
        .map(|r| region_users(users, regions, skew, r))
        .sum()
}

/// Root of a per-`(tag, region)` stream family.
fn stream(seed: u64, tag: u64, region: usize, epoch: u64) -> u64 {
    let base = sim_core::mix64(seed ^ tag ^ (region as u64).wrapping_mul(GOLDEN_GAMMA));
    sim_core::mix_indexed(base, epoch)
}

/// Expected synthetic request count for one `(region, epoch)` cell:
/// `load × boards_r × skew_factor × diurnal × flash`, where the skew
/// factor renormalises the Zipf weights so the fleet-wide mean stays
/// `load` requests per board per epoch.
pub(crate) fn expected_demand(config: &EdgeConfig, region: usize, epoch: u64) -> f64 {
    let regions = config.regions;
    let boards_r = region_boards(config.boards, regions, region) as f64;
    let total: f64 = (0..regions)
        .map(|r| zipf_weight(r, config.regional_skew))
        .sum();
    let skew_factor = zipf_weight(region, config.regional_skew) * regions as f64 / total;
    let phase = epoch as f64 / EPOCHS_PER_DAY as f64 + region as f64 / regions as f64;
    let diurnal = 1.0 + config.diurnal_amplitude * (std::f64::consts::TAU * phase).sin();
    let flash = match config.flash {
        Some(crowd) if crowd.region == region && crowd.active(epoch, config.epochs) => {
            crowd.multiplier
        }
        _ => 1.0,
    };
    (config.load * boards_r * skew_factor * diurnal * flash).max(0.0)
}

/// Integer request count for one cell: the floor of the expectation
/// plus one seeded Bernoulli draw on the fraction, so the long-run mean
/// matches the rate model without a per-epoch bias.
fn demand_count(config: &EdgeConfig, region: usize, epoch: u64) -> u64 {
    let expected = expected_demand(config, region, epoch);
    let floor = expected.floor();
    let frac = expected - floor;
    let gate = stream(config.seed, TAG_GATE, region, epoch);
    let u01 = (gate >> 11) as f64 / (1u64 << 53) as f64;
    floor as u64 + u64::from(u01 < frac)
}

/// Region-local home board of a global user — a stable affinity hash,
/// so one user always lands on the same board across epochs.
fn home_board(seed: u64, user: u64, boards_r: usize) -> usize {
    (sim_core::mix_indexed(seed ^ TAG_AFFINITY, user) % boards_r as u64) as usize
}

/// Plans every request of one `(region, epoch)` cell into `arrivals`
/// (cleared first), sorted by offset, with ties in draw order.
pub(crate) fn epoch_arrivals(
    config: &EdgeConfig,
    region: usize,
    epoch: u64,
    arrivals: &mut Vec<EdgeArrival>,
) {
    arrivals.clear();
    let boards_r = region_boards(config.boards, config.regions, region);
    let users_r = region_users(config.users, config.regions, config.regional_skew, region);
    if boards_r == 0 || users_r == 0 {
        return;
    }
    let user_base = region_user_base(config.users, config.regions, config.regional_skew, region);
    let epoch_ns = config.epoch.as_nanos();
    match &config.demand {
        Demand::Synthetic => {
            let reqs = stream(config.seed, TAG_REQ, region, epoch);
            for k in 0..demand_count(config, region, epoch) {
                let h = sim_core::mix_indexed(reqs, k);
                let h2 = sim_core::splitmix64(h);
                let user = user_base + h2 % users_r;
                arrivals.push(EdgeArrival {
                    offset: SimDuration::from_nanos(h % epoch_ns),
                    user,
                    board: home_board(config.seed, user, boards_r),
                    payload_seed: sim_core::splitmix64(h2),
                });
            }
        }
        Demand::Replay(replay) => {
            let spray = stream(config.seed, TAG_REPLAY, 0, epoch);
            for (j, &offset) in replay.arrivals_in(epoch).iter().enumerate() {
                let h = sim_core::mix_indexed(spray, j as u64);
                if h % config.regions as u64 != region as u64 {
                    continue;
                }
                let h2 = sim_core::splitmix64(h);
                let user = user_base + h2 % users_r;
                arrivals.push(EdgeArrival {
                    offset: SimDuration::from_nanos(offset.as_nanos().min(epoch_ns - 1)),
                    user,
                    board: home_board(config.seed, user, boards_r),
                    payload_seed: sim_core::splitmix64(h2),
                });
            }
        }
    }
    arrivals.sort_by_key(|a| a.offset);
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, QosSpec, Workload};

    fn arrivals(config: &EdgeConfig, region: usize, epoch: u64) -> Vec<EdgeArrival> {
        let mut arrivals = Vec::new();
        epoch_arrivals(config, region, epoch, &mut arrivals);
        arrivals
    }

    fn config() -> EdgeConfig {
        EdgeConfig {
            boards: 100,
            users: 10_000,
            regions: 4,
            epochs: 48,
            ..EdgeConfig::default()
        }
    }

    #[test]
    fn user_partition_covers_every_user_once() {
        for (users, regions, skew) in [(10_000u64, 4usize, 0.5), (1_000_003, 7, 1.2), (5, 4, 0.0)] {
            let total: u64 = (0..regions)
                .map(|r| region_users(users, regions, skew, r))
                .sum();
            assert_eq!(total, users, "{users} users / {regions} regions");
            let last = regions - 1;
            assert_eq!(
                region_user_base(users, regions, skew, last)
                    + region_users(users, regions, skew, last),
                users
            );
        }
    }

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let config = config();
        for region in 0..config.regions {
            let a = arrivals(&config, region, 7);
            let b = arrivals(&config, region, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(
                    (x.offset, x.user, x.board, x.payload_seed),
                    (y.offset, y.user, y.board, y.payload_seed)
                );
            }
        }
        let reseeded = EdgeConfig {
            seed: 99,
            ..config.clone()
        };
        let a: usize = (0..48).map(|e| arrivals(&config, 0, e).len()).sum();
        let b: usize = (0..48).map(|e| arrivals(&reseeded, 0, e).len()).sum();
        assert_ne!((a, b), (0, 0), "synthetic demand must generate something");
    }

    #[test]
    fn users_keep_their_home_board_across_epochs() {
        let config = config();
        let mut homes = std::collections::BTreeMap::new();
        for epoch in 0..24 {
            for a in arrivals(&config, 1, epoch) {
                let prev = homes.insert(a.user, a.board);
                if let Some(prev) = prev {
                    assert_eq!(prev, a.board, "user {} moved boards", a.user);
                }
            }
        }
    }

    #[test]
    fn flash_crowd_multiplies_its_regions_demand() {
        let config = config();
        let crowd = config.flash.expect("default config has a flash crowd");
        let quiet = expected_demand(&config, crowd.region, 0);
        let burst_epoch = config.epochs / 2;
        assert!(crowd.active(burst_epoch, config.epochs));
        assert!(!crowd.active(0, config.epochs));
        let calm = EdgeConfig {
            flash: None,
            ..config.clone()
        };
        assert!(
            expected_demand(&config, crowd.region, burst_epoch)
                > crowd.multiplier * 0.9 * expected_demand(&calm, crowd.region, burst_epoch)
        );
        assert!(quiet > 0.0);
    }

    #[test]
    fn diurnal_and_skew_shape_the_expectation() {
        let config = EdgeConfig {
            flash: None,
            ..config()
        };
        // Zipf skew: region 0 sees more demand than the last region.
        assert!(expected_demand(&config, 0, 0) > expected_demand(&config, config.regions - 1, 0));
        // The diurnal curve moves the expectation across a day.
        let over_day: Vec<f64> = (0..EPOCHS_PER_DAY)
            .map(|e| expected_demand(&config, 0, e))
            .collect();
        let min = over_day.iter().cloned().fold(f64::MAX, f64::min);
        let max = over_day.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min * 1.5, "diurnal swing too small: {min}..{max}");
    }

    #[test]
    fn replay_sprays_every_arrival_to_exactly_one_region() {
        let workload = Workload::single(Benchmark::Adi, QosSpec::FractionOfMaxBig(0.3));
        let config = config();
        let replay = EpochReplay::new(&workload, config.epoch, config.epochs);
        let total = replay.total();
        let config = EdgeConfig {
            demand: Demand::Replay(replay),
            ..config
        };
        let spread: usize = (0..config.regions)
            .map(|r| {
                (0..config.epochs)
                    .map(|e| arrivals(&config, r, e).len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(spread, total, "each replayed arrival lands in one region");
    }

    #[test]
    fn simultaneous_arrivals_keep_their_draw_order() {
        // A 64 ns epoch: hundreds of draws land on 64 instants, in
        // random order, so offsets tie all the time.
        let config = EdgeConfig {
            epoch: SimDuration::from_nanos(64),
            load: 3.0,
            ..config()
        };
        let mut ties = 0;
        for epoch in 0..config.epochs {
            // Recover each arrival's draw index from its payload seed.
            let reqs = stream(config.seed, TAG_REQ, 0, epoch);
            let draw = |a: &EdgeArrival| {
                (0u64..)
                    .find(|&k| {
                        let h2 = sim_core::splitmix64(sim_core::mix_indexed(reqs, k));
                        sim_core::splitmix64(h2) == a.payload_seed
                    })
                    .expect("every arrival is a draw")
            };
            let arrivals = arrivals(&config, 0, epoch);
            for pair in arrivals.windows(2) {
                assert!(
                    (pair[0].offset, draw(&pair[0])) < (pair[1].offset, draw(&pair[1])),
                    "epoch {epoch}: arrivals out of (offset, draw) order"
                );
                ties += usize::from(pair[0].offset == pair[1].offset);
            }
        }
        assert!(ties > 0, "no two arrivals shared an instant");
    }
}
