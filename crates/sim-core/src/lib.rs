//! Shared simulation primitives of the TOP-IL stack: seeded RNG streams
//! and a network-link model.
//!
//! Every simulator in the workspace is a fixed-period lockstep loop
//! (TOP-IL migrates every 500 ms and runs DVFS on its own fixed period),
//! so no crate needs an event queue. What they do share lives here:
//!
//! * [`rng`] — the splitmix64 finalizer family every crate uses for
//!   cheap, stateless, seedable hashing (retry jitter, synthetic
//!   payloads, storm schedules, frontier arrivals), plus
//!   [`derive_rng`], whose streams depend only on
//!   `(master seed, stream, index)`;
//! * [`net`] — the propagation-plus-serialization [`Link`] model and the
//!   [`FifoLink`] shared medium the edge simulator routes requests over.
//!
//! # Examples
//!
//! ```
//! use sim_core::{mix_indexed, splitmix64};
//!
//! // Streams are pure functions of their inputs.
//! assert_eq!(mix_indexed(7, 3), mix_indexed(7, 3));
//! assert_ne!(splitmix64(1), splitmix64(2));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod net;
pub mod rng;

pub use net::{FifoLink, Link};
pub use rng::{derive_rng, mix64, mix_indexed, splitmix64, GOLDEN_GAMMA};
