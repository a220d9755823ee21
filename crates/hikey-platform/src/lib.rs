//! Full-system simulator of the HiKey 970 big.LITTLE platform.
//!
//! The paper evaluates on real hardware; this crate substitutes it with a
//! discrete-time simulator that reproduces the observable surface a
//! resource manager has on the board:
//!
//! * two clusters (4× Cortex-A53, 4× Cortex-A73) with **per-cluster DVFS**
//!   over the real Kirin 970 OPP tables ([`OppTable`]),
//! * an analytic [`PowerModel`] with temperature-dependent leakage,
//! * the [`thermal`] crate's RC network with fan / no-fan cooling,
//! * DTM throttling ([`Dtm`]) at the stock 85 °C trip point,
//! * per-application perf counters (IPS, L2D accesses) and binary core
//!   utilizations — exactly the features the paper's policies consume,
//! * Linux-affinity-style migration and `userspace`-governor-style
//!   frequency control.
//!
//! Policies implement the [`Policy`] trait and are driven by the
//! [`Simulator`], which replays a [`workloads::Workload`] arrival schedule.
//!
//! # Examples
//!
//! ```
//! use hikey_platform::{Platform, Policy, SimConfig, Simulator};
//! use hmc_types::{Cluster, SimDuration};
//! use workloads::{Benchmark, QosSpec, Workload};
//!
//! /// A trivial policy: pin everything at the lowest V/f level.
//! struct Powersave;
//! impl Policy for Powersave {
//!     fn name(&self) -> &str { "powersave" }
//!     fn on_tick(&mut self, platform: &mut Platform) {
//!         for cluster in Cluster::ALL {
//!             platform.set_cluster_level(cluster, 0);
//!         }
//!     }
//! }
//!
//! let config = SimConfig {
//!     max_duration: SimDuration::from_secs(1),
//!     ..SimConfig::default()
//! };
//! let workload = Workload::single(Benchmark::Swaptions, QosSpec::FractionOfMaxBig(0.2));
//! let report = Simulator::new(config).run(&workload, &mut Powersave);
//! assert!(report.metrics.avg_temperature().value() >= 25.0);
//! ```

#![warn(missing_docs)]

mod app;
mod dtm;
mod metrics;
mod opp;
mod platform;
mod policy;
mod power;
mod sensor;
mod sim;

pub use dtm::{Dtm, RELEASE_CELSIUS, TRIP_CELSIUS};
pub use metrics::{AppOutcome, RunMetrics};
pub use opp::{Opp, OppTable};
pub use platform::{AppQos, AppSnapshot, Platform, PlatformConfig, THERMAL_PERIOD};
pub use policy::{default_placement, DegradationReport, Policy};
pub use power::PowerModel;
pub use sensor::{SensorFilter, SensorFilterConfig, SensorReading};
pub use sim::{RunReport, SimConfig, Simulator, TraceSample};
