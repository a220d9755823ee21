//! Shared strong types for the heterogeneous multi-core (HMC) management stack.
//!
//! Every crate in the TOP-IL reproduction communicates through the newtypes
//! defined here: physical units ([`Frequency`], [`Voltage`], [`Celsius`],
//! [`Watts`], [`Ips`]), identifiers ([`CoreId`], [`Cluster`], [`AppId`]), and
//! simulated time ([`SimTime`], [`SimDuration`]).
//!
//! The types are deliberately small `Copy` wrappers so they can flow through
//! hot simulation loops without overhead while still preventing unit mix-ups
//! (e.g. passing a temperature where a power value is expected).
//!
//! # Examples
//!
//! ```
//! use hmc_types::{Frequency, SimDuration, SimTime};
//!
//! let f = Frequency::from_mhz(1844);
//! assert_eq!(f.as_ghz(), 1.844);
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(500);
//! assert_eq!(t.as_millis(), 500);
//! ```

#![warn(missing_docs)]

mod app;
mod error;
mod ids;
mod time;
mod units;

pub use app::{AppModel, AppModelBuilder, Phase, PhaseSpan, QosTarget};
pub use error::TypeError;
pub use ids::{AppId, Cluster, CoreId, CORES_PER_CLUSTER, NUM_CLUSTERS, NUM_CORES};
pub use time::{SimDuration, SimTime};
pub use units::{Celsius, Frequency, Ips, Joules, Voltage, Watts};
