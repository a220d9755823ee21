//! Fleet-scale fault family: board churn, rack partitions, heartbeat
//! loss, and tier slowdowns, under one seeded schedule builder.
//!
//! The per-request fault domains ([`crate::FaultPlan`]) model *component*
//! misbehaviour — a batch that fails on the device, a sensor sample that
//! drops. Fleet faults model *topology* misbehaviour: whole boards
//! crashing and rejoining, a rack losing its network partition, the
//! regional tier running slow. They are **timed events**, not rates: a
//! [`FleetFaultEvent`] names the barrier epoch at which the fault fires,
//! so the schedule is plain data and replays identically under any
//! thread budget.
//!
//! [`StormBuilder`] derives every timed event from one seed through a
//! splitmix64 finalizer (pure per-index decisions, no shared RNG stream),
//! then freezes the result into a [`FleetSchedule`].
//!
//! # Examples
//!
//! ```
//! use faults::{FleetFault, StormBuilder};
//!
//! let schedule = StormBuilder::new(42, 8, 40)
//!     .crash_wave(10, 3, 6)
//!     .rack_partition(0, 20, 8)
//!     .build();
//! // Same seed, same schedule.
//! let again = StormBuilder::new(42, 8, 40)
//!     .crash_wave(10, 3, 6)
//!     .rack_partition(0, 20, 8)
//!     .build();
//! assert_eq!(schedule.events(), again.events());
//! assert!(schedule.events().iter().any(|e| matches!(
//!     e.fault,
//!     FleetFault::BoardCrash { .. }
//! )));
//! ```

/// A fleet-topology fault. Paired variants (`BoardCrash`/`BoardRejoin`,
/// `RackPartition`/`RackHeal`, …) bracket an episode; the schedule
/// builder always emits both ends so every episode is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFault {
    /// Board `board` crashes at the epoch boundary: it drains in-flight
    /// work, hands queued arrivals to a sibling, and leaves the fleet.
    BoardCrash {
        /// Index of the crashing board.
        board: usize,
    },
    /// Board `board` rejoins, restoring policy state from its last
    /// checkpoint; its breaker starts half-open (probation).
    BoardRejoin {
        /// Index of the rejoining board.
        board: usize,
    },
    /// Rack `rack` is partitioned from the regional tier: requests routed
    /// to it fail over immediately.
    RackPartition {
        /// Index of the partitioned rack.
        rack: usize,
    },
    /// Rack `rack`'s partition heals.
    RackHeal {
        /// Index of the healed rack.
        rack: usize,
    },
    /// Rack `rack` stops emitting heartbeats (the service itself is
    /// healthy — only the failure detector sees silence).
    HeartbeatLoss {
        /// Index of the silent rack.
        rack: usize,
    },
    /// Rack `rack` resumes heartbeats.
    HeartbeatRestore {
        /// Index of the recovered rack.
        rack: usize,
    },
    /// The regional tier slows down: its device latency is multiplied by
    /// `factor_milli / 1000` (stored in fixed-point so the event is `Eq`
    /// and hashable).
    TierSlow {
        /// Latency multiplier in thousandths (2500 = 2.5x).
        factor_milli: u32,
    },
    /// The regional tier recovers its nominal latency.
    TierRecover,
    /// Region `region` loses its backbone to the regional tier: every
    /// rack in the region fails over straight to the CPU rung (the
    /// regional service is unreachable, not failing).
    RegionOutage {
        /// Index of the darkened region.
        region: usize,
    },
    /// Region `region`'s backbone is restored.
    RegionRestore {
        /// Index of the restored region.
        region: usize,
    },
}

/// A timed fleet fault: `fault` fires at the start of barrier `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFaultEvent {
    /// Barrier epoch at which the fault takes effect.
    pub epoch: u64,
    /// The fault.
    pub fault: FleetFault,
}

/// Splitmix64-style finalizer: hashes `(seed, index)` to a uniform u64.
/// Pure per-index, so schedules never depend on evaluation order.
/// Delegates to the workspace-shared finalizer in `sim_core::rng`.
fn mix(seed: u64, index: u64) -> u64 {
    sim_core::mix_indexed(seed, index)
}

/// Uniform draw in `[0, bound)` from the hash of `(seed, index)`.
fn draw(seed: u64, index: u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    mix(seed, index) % bound
}

/// A frozen fleet fault schedule: the timed [`FleetFaultEvent`]s, sorted
/// by `(epoch, deterministic order)`.
///
/// Built by [`StormBuilder`]; consumed by the fleet and edge drivers, which
/// apply `events_at(epoch)` at each barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSchedule {
    seed: u64,
    boards: usize,
    epochs: u64,
    events: Vec<FleetFaultEvent>,
}

impl FleetSchedule {
    /// The schedule seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of boards the schedule was built for.
    pub fn boards(&self) -> usize {
        self.boards
    }

    /// Horizon, in barrier epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// All timed events, sorted by epoch.
    pub fn events(&self) -> &[FleetFaultEvent] {
        &self.events
    }

    /// The events firing at the start of `epoch`.
    pub fn events_at(&self, epoch: u64) -> impl Iterator<Item = &FleetFaultEvent> {
        self.events.iter().filter(move |e| e.epoch == epoch)
    }

    /// Crash episodes of `board` as `(crash_epoch, rejoin_epoch)` spans:
    /// the board is down for epochs in `[crash, rejoin)`. An episode the
    /// builder never closed rejoins at the horizon.
    pub fn down_spans(&self, board: usize) -> Vec<(u64, u64)> {
        let mut spans = Vec::new();
        let mut open: Option<u64> = None;
        for event in &self.events {
            match event.fault {
                FleetFault::BoardCrash { board: b } if b == board && open.is_none() => {
                    open = Some(event.epoch);
                }
                FleetFault::BoardRejoin { board: b } if b == board && open.is_some() => {
                    spans.push((open.take().expect("guarded"), event.epoch));
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            spans.push((start, self.epochs));
        }
        spans
    }

    /// Whether `board` is alive (not mid-crash) during `epoch`.
    pub fn alive(&self, board: usize, epoch: u64) -> bool {
        self.down_spans(board)
            .iter()
            .all(|&(from, until)| !(from..until).contains(&epoch))
    }

    /// True when the schedule carries no timed event.
    pub fn is_zero(&self) -> bool {
        self.events.is_empty()
    }
}

/// Seeded builder of the timed fleet faults.
///
/// Each preset (`crash_wave`, `churn`, `rack_partition`, …) derives its
/// randomness from `(seed, preset tag, index)` through a splitmix64
/// finalizer, so composing presets never reorders each other's draws.
/// Crash placement guarantees at least one board stays alive at every
/// epoch.
#[derive(Debug, Clone)]
pub struct StormBuilder {
    seed: u64,
    boards: usize,
    epochs: u64,
    events: Vec<FleetFaultEvent>,
    /// `down[board]` holds the spans already committed, for the
    /// min-alive guarantee.
    down: Vec<Vec<(u64, u64)>>,
}

/// Preset tags: domain-separate the splitmix64 streams per preset.
const TAG_CRASH_WAVE: u64 = 0x1000_0000;
const TAG_CHURN: u64 = 0x2000_0000;

impl StormBuilder {
    /// Starts an empty schedule for `boards` boards over `epochs` barrier
    /// epochs.
    pub fn new(seed: u64, boards: usize, epochs: u64) -> Self {
        StormBuilder {
            seed,
            boards,
            epochs,
            events: Vec::new(),
            down: vec![Vec::new(); boards],
        }
    }

    fn board_is_down(&self, board: usize, epoch: u64) -> bool {
        self.down[board]
            .iter()
            .any(|&(from, until)| (from..until).contains(&epoch))
    }

    fn alive_count(&self, epoch: u64) -> usize {
        (0..self.boards)
            .filter(|&b| !self.board_is_down(b, epoch))
            .count()
    }

    /// Commits a crash of `board` over `[from, until)` if the fleet keeps
    /// at least one alive board throughout; returns whether it landed.
    fn try_crash(&mut self, board: usize, from: u64, until: u64) -> bool {
        if board >= self.boards || from >= until || from >= self.epochs {
            return false;
        }
        let until = until.min(self.epochs);
        if self.board_is_down(board, from) || self.board_is_down(board, until.saturating_sub(1)) {
            return false;
        }
        // Min-alive guarantee: every epoch of the span must keep a
        // sibling up to absorb the reassigned work.
        if (from..until).any(|e| self.alive_count(e) <= 1 || self.board_is_down(board, e)) {
            return false;
        }
        self.down[board].push((from, until));
        self.events.push(FleetFaultEvent {
            epoch: from,
            fault: FleetFault::BoardCrash { board },
        });
        if until < self.epochs {
            self.events.push(FleetFaultEvent {
                epoch: until,
                fault: FleetFault::BoardRejoin { board },
            });
        }
        true
    }

    /// A crash wave: at epoch `at`, `count` distinct boards (drawn from
    /// the seed) crash simultaneously and rejoin after `down_epochs`.
    /// Boards that would break the min-alive guarantee are skipped.
    pub fn crash_wave(mut self, at: u64, count: usize, down_epochs: u64) -> Self {
        let mut landed = 0usize;
        let mut index = 0u64;
        // Bounded probing: `4 * boards` draws is enough to visit every
        // board with high probability; determinism matters more than
        // hitting `count` exactly on tiny fleets.
        while landed < count && index < (self.boards as u64) * 4 {
            let board = draw(self.seed ^ TAG_CRASH_WAVE ^ at, index, self.boards as u64) as usize;
            index += 1;
            if self.try_crash(board, at, at + down_epochs.max(1)) {
                landed += 1;
            }
        }
        self
    }

    /// Continuous churn: every `period` epochs one seeded board crashes
    /// for `down_epochs`. Crashes that would break the min-alive
    /// guarantee are skipped.
    pub fn churn(mut self, period: u64, down_epochs: u64) -> Self {
        if period == 0 {
            return self;
        }
        let mut wave = 0u64;
        let mut at = period;
        while at < self.epochs {
            let board = draw(self.seed ^ TAG_CHURN, wave, self.boards as u64) as usize;
            self.try_crash(board, at, at + down_epochs.max(1));
            wave += 1;
            at += period;
        }
        self
    }

    /// Partitions rack `rack` from the regional tier over
    /// `[at, at + heal_after)`.
    pub fn rack_partition(mut self, rack: usize, at: u64, heal_after: u64) -> Self {
        if at >= self.epochs {
            return self;
        }
        self.events.push(FleetFaultEvent {
            epoch: at,
            fault: FleetFault::RackPartition { rack },
        });
        let heal = at + heal_after.max(1);
        if heal < self.epochs {
            self.events.push(FleetFaultEvent {
                epoch: heal,
                fault: FleetFault::RackHeal { rack },
            });
        }
        self
    }

    /// Silences rack `rack`'s heartbeats over `[at, at + restore_after)`.
    pub fn heartbeat_loss(mut self, rack: usize, at: u64, restore_after: u64) -> Self {
        if at >= self.epochs {
            return self;
        }
        self.events.push(FleetFaultEvent {
            epoch: at,
            fault: FleetFault::HeartbeatLoss { rack },
        });
        let restore = at + restore_after.max(1);
        if restore < self.epochs {
            self.events.push(FleetFaultEvent {
                epoch: restore,
                fault: FleetFault::HeartbeatRestore { rack },
            });
        }
        self
    }

    /// Darkens region `region`'s backbone over `[at, at + restore_after)`:
    /// a regional outage storm. While dark, the region's racks cannot
    /// reach their regional tier and every failover lands on the CPU
    /// rung.
    pub fn region_outage(mut self, region: usize, at: u64, restore_after: u64) -> Self {
        if at >= self.epochs {
            return self;
        }
        self.events.push(FleetFaultEvent {
            epoch: at,
            fault: FleetFault::RegionOutage { region },
        });
        let restore = at + restore_after.max(1);
        if restore < self.epochs {
            self.events.push(FleetFaultEvent {
                epoch: restore,
                fault: FleetFault::RegionRestore { region },
            });
        }
        self
    }

    /// Slows the regional tier by `factor` over `[at, at + recover_after)`.
    pub fn slow_tier(mut self, factor: f64, at: u64, recover_after: u64) -> Self {
        if at >= self.epochs {
            return self;
        }
        let factor_milli = (factor.max(1.0) * 1000.0).round() as u32;
        self.events.push(FleetFaultEvent {
            epoch: at,
            fault: FleetFault::TierSlow { factor_milli },
        });
        let recover = at + recover_after.max(1);
        if recover < self.epochs {
            self.events.push(FleetFaultEvent {
                epoch: recover,
                fault: FleetFault::TierRecover,
            });
        }
        self
    }

    /// Freezes the schedule. Events are sorted by `(epoch, insertion
    /// order)` — a stable sort, so composing presets in a fixed order
    /// yields a fixed schedule.
    pub fn build(mut self) -> FleetSchedule {
        self.events.sort_by_key(|e| e.epoch);
        FleetSchedule {
            seed: self.seed,
            boards: self.boards,
            epochs: self.epochs,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let build = || {
            StormBuilder::new(7, 16, 100)
                .crash_wave(10, 4, 8)
                .churn(15, 5)
                .rack_partition(1, 30, 10)
                .heartbeat_loss(0, 50, 6)
                .slow_tier(2.5, 70, 10)
                .build()
        };
        assert_eq!(build(), build());
        assert_ne!(
            build().events(),
            StormBuilder::new(8, 16, 100)
                .crash_wave(10, 4, 8)
                .churn(15, 5)
                .build()
                .events()
        );
    }

    #[test]
    fn crash_wave_brackets_every_episode() {
        let schedule = StormBuilder::new(3, 8, 40).crash_wave(5, 3, 6).build();
        let crashes = schedule
            .events()
            .iter()
            .filter(|e| matches!(e.fault, FleetFault::BoardCrash { .. }))
            .count();
        let rejoins = schedule
            .events()
            .iter()
            .filter(|e| matches!(e.fault, FleetFault::BoardRejoin { .. }))
            .count();
        assert_eq!(crashes, 3);
        assert_eq!(rejoins, 3, "every crash inside the horizon rejoins");
        for board in 0..8 {
            for (from, until) in schedule.down_spans(board) {
                assert!(from < until);
                assert!(!schedule.alive(board, from));
                assert!(schedule.alive(board, until.saturating_sub(from) + from));
            }
        }
    }

    #[test]
    fn min_alive_guarantee_holds_under_heavy_churn() {
        let schedule = StormBuilder::new(11, 3, 60)
            .crash_wave(2, 3, 50)
            .churn(1, 20)
            .build();
        for epoch in 0..60 {
            let alive = (0..3).filter(|&b| schedule.alive(b, epoch)).count();
            assert!(alive >= 1, "epoch {epoch} left zero boards alive");
        }
    }

    #[test]
    fn spans_and_alive_agree() {
        let schedule = StormBuilder::new(5, 4, 30).churn(4, 3).build();
        for board in 0..4 {
            let spans = schedule.down_spans(board);
            for epoch in 0..30 {
                let down = spans.iter().any(|&(f, u)| (f..u).contains(&epoch));
                assert_eq!(schedule.alive(board, epoch), !down);
            }
        }
    }

    #[test]
    fn unclosed_episode_rejoins_at_horizon() {
        // down_epochs pushes the rejoin past the horizon: the span must
        // clamp and no rejoin event is emitted.
        let schedule = StormBuilder::new(1, 4, 10).crash_wave(8, 1, 100).build();
        let board = schedule
            .events()
            .iter()
            .find_map(|e| match e.fault {
                FleetFault::BoardCrash { board } => Some(board),
                _ => None,
            })
            .expect("one crash landed");
        assert_eq!(schedule.down_spans(board), vec![(8, 10)]);
        assert!(!schedule
            .events()
            .iter()
            .any(|e| matches!(e.fault, FleetFault::BoardRejoin { .. })));
    }

    #[test]
    fn region_outage_brackets_the_dark_span() {
        let schedule = StormBuilder::new(4, 8, 40).region_outage(2, 10, 8).build();
        let events: Vec<_> = schedule.events().to_vec();
        assert!(events.contains(&FleetFaultEvent {
            epoch: 10,
            fault: FleetFault::RegionOutage { region: 2 },
        }));
        assert!(events.contains(&FleetFaultEvent {
            epoch: 18,
            fault: FleetFault::RegionRestore { region: 2 },
        }));
        // An outage running past the horizon never emits its restore.
        let open = StormBuilder::new(4, 8, 40)
            .region_outage(2, 35, 100)
            .build();
        assert!(!open
            .events()
            .iter()
            .any(|e| matches!(e.fault, FleetFault::RegionRestore { .. })));
    }

    #[test]
    fn zero_schedule_is_zero() {
        assert!(StormBuilder::new(9, 4, 10).build().is_zero());
        assert!(!StormBuilder::new(9, 4, 10)
            .rack_partition(0, 2, 3)
            .build()
            .is_zero());
    }
}
