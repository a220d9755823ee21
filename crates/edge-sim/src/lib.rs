//! Datacenter-scale edge-fleet simulator: the demand side of the
//! reproduction.
//!
//! The TOP-IL fleet harness (`bench::fleet`) drives boards from a closed
//! loop — one request per board per epoch. Real edge fleets face an
//! **open system**: millions of users issue requests on their own
//! schedule, the load follows the sun, regions are skewed, and flash
//! crowds arrive uninvited. This crate supplies that demand
//! side, in the spirit of the dslab-iaas/dslab-faas trace-replay cloud
//! simulators, and drives it through the existing serving stack at
//! 10k–100k boards:
//!
//! * **user/request frontier** ([`frontier`]) — seeded open-loop arrival
//!   generation for millions of logical users partitioned into regions,
//!   with diurnal load curves, regional (Zipf) skew, a flash-crowd
//!   burst, and optional replay of recorded [`workloads::Workload`]
//!   traces; every draw comes from the workspace-shared splitmix64
//!   streams (`sim_core::rng`), so the schedule is a pure function of
//!   the seed and each user's identity and requests are reproducible
//!   per `(seed, user, epoch)`;
//! * **network model** ([`topology`]) — per-link latency/bandwidth with
//!   serialization delay ([`sim_core::net::Link`]) in a two-level
//!   topology: user→rack edge links (FIFO, jittered) and the
//!   rack→regional backbone, whose round trip feeds the tier's
//!   network-aware hedging ([`npu_serve::TierConfig::regional_rtt`]);
//!   each request is delivered at its planned transit instant;
//! * **scale layer** ([`mod@run`]) — lightweight boards (a thermal proxy
//!   and QoS accounting, not a full platform) behind per-region
//!   [`npu_serve::TieredService`] ladders with admission control end to
//!   end, region-sharded via the [`par::Budget`] with byte-identical
//!   merges, stepped one barrier epoch at a time, and watched by an
//!   always-on invariant checker;
//! * **storm presets** ([`storm`]) — the seeded chaos storms (crash
//!   waves, rack partitions, heartbeat silence, a slow regional tier),
//!   applied in every region; [`EdgeConfig::chaos`] is the small
//!   flat-demand scenario `experiments chaos` runs them in, and
//!   [`EdgeConfig::overload`] the saturated one-rack scenario of
//!   `experiments overload`.
//!
//! # Examples
//!
//! ```
//! use edge_sim::{run, EdgeConfig};
//!
//! let report = run(&EdgeConfig {
//!     boards: 64,
//!     users: 4_000,
//!     epochs: 12,
//!     ..EdgeConfig::default()
//! });
//! assert_eq!(report.replies + report.failed, report.submitted);
//! assert!(report.violations.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod frontier;
pub mod run;
pub mod storm;
pub mod topology;

pub use frontier::{Demand, FlashCrowd};
pub use run::{
    region_policy, run, tier_config, EdgeConfig, EdgeConfigError, EdgeReport, RegionOutcome,
};
pub use storm::StormPreset;
pub use topology::NetworkConfig;
