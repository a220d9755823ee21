//! Deterministic parallel execution engine.
//!
//! Everything in this repository that is bit-exact — golden-trace hashes,
//! checkpoint checksums, resumable sweeps — stays bit-exact only if
//! parallelism never changes *what* is computed, only *when*. This crate
//! provides the two primitives the rest of the stack parallelizes with,
//! all built on scoped std threads (no async runtime, no external
//! dependencies):
//!
//! * [`Budget`] — the thread-count configuration threaded through
//!   `SimConfig`, sweep/fleet/edge configs and trace collection. A budget
//!   only chooses how many workers execute the schedule; it never
//!   influences the schedule itself.
//! * [`par_map`] / [`par_for_each_mut`] — order-preserving parallel map:
//!   item `i`'s result lands in slot `i` regardless of which worker ran
//!   it, so the output is byte-identical to a serial loop.
//!
//! Worker panics are contained and re-thrown deterministically: if
//! several tasks panic, the panic of the *lowest-indexed* task is the one
//! propagated, and the pool always drains (joins every worker) first.

mod budget;
mod pool;

pub use budget::Budget;
pub use pool::{par_for_each_mut, par_map};
