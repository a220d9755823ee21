//! Shared NPU inference service with dynamic batching and a
//! production-grade admission check.
//!
//! The paper gives every HiKey 970 board its own NPU. At fleet scale that
//! inverts: the NPU's driver round-trip (~3.9 ms) dominates and is nearly
//! independent of the batch size, so a *pool* of shared devices serving
//! many boards' migration-decision requests through one batched call
//! amortizes the round-trip across the fleet. This crate is that service:
//!
//! * [`SubmissionQueue`] — a bounded queue with admission control: when
//!   the backlog hits capacity, new requests are rejected with a
//!   retry-after hint and the depth at rejection instead of growing the
//!   queue without bound,
//! * **admission** — one fixed-order check every submission passes
//!   before it may occupy a queue slot: input validation, deadline
//!   feasibility ([`SubmitOptions::deadline`] — infeasible deadlines
//!   fail fast with [`ServeError::DeadlineExceeded`] instead of
//!   computing-then-discarding), per-client token-bucket rate limiting
//!   ([`RateLimit`], keyed by [`ClientId`], refilled in virtual time),
//!   and watermark-driven **load shedding** with a backlog-derived
//!   retry-after and a graceful CPU-degrade rung before dropping,
//! * [`NpuService`] — the dynamic batcher and virtual-time device pool:
//!   pending requests coalesce into one batch call once `max_batch`
//!   requests wait or the oldest request hits its `max_wait` deadline
//!   (deadline-aware ordering), the batch lands on the earliest-free
//!   device ([`npu::Occupancy`]), and each request's activations are
//!   quantized in its own group (the groups of
//!   [`npu::NpuModel::infer_groups`]) so results are **bit-identical**
//!   to dedicated-device issuance,
//! * per-device **circuit breakers** (reusing [`faults::CircuitBreaker`])
//!   — a device that keeps failing is taken out of rotation and its
//!   traffic drains to a CPU fallback until the cooldown probe passes,
//! * **counters, not event buffers** — every outcome lands in
//!   [`ServeStats`] and the per-epoch [`MetricsSnapshot`]; the service
//!   keeps no trace-event log. Callers that retry classify errors with
//!   [`ServeError::retry_class`] and back off under a [`RetryPolicy`],
//! * **inline batch compute** — a flush computes its ready batches on
//!   the calling thread, in dispatch order, and spawns no threads. Host
//!   parallelism lives one level up, in `par::Budget`, which shards edge
//!   regions and fleet boards (DESIGN.md §11),
//! * [`TieredService`] — the rack → regional → CPU failover ladder, with
//!   its invariants checked by one [`TierChecker`] and every reported
//!   quantile computed by [`quantile::nearest_rank`].
//!
//! # Examples
//!
//! ```
//! use hmc_types::SimTime;
//! use nn::{Matrix, Mlp};
//! use npu_serve::{NpuService, ServeConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mlp = Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(0));
//! let mut service = NpuService::new(&mlp, ServeConfig::default());
//! let request = Matrix::from_rows(vec![vec![0.1; 21]; 3]);
//! // Admission control may reject instead of queueing without bound:
//! // honor the advertised retry-after rather than unwrapping.
//! match service.submit(&request, SimTime::ZERO) {
//!     Ok(ticket) => {
//!         service.flush(SimTime::ZERO);
//!         let reply = service.take_reply(ticket).unwrap();
//!         assert_eq!(reply.output.unwrap().rows(), 3);
//!     }
//!     Err(rejected) => {
//!         // Back off and resubmit no earlier than this.
//!         let _retry_at = SimTime::ZERO + rejected.retry_after;
//!         assert!(rejected.depth > 0);
//!     }
//! }
//! ```

#![warn(missing_docs)]

mod checker;
mod config;
mod error;
mod limiter;
pub mod quantile;
mod queue;
mod retry;
mod ring;
mod service;
mod shed;
mod stats;
mod tier;

pub use checker::{seeded_payload, seeded_payload_into, TierChecker};
pub use config::{ConfigError, ServeConfig};
pub use error::{ServeError, ShedReason};
pub use limiter::{ClientId, RateLimit};
pub use queue::{Rejected, SubmissionQueue};
pub use retry::{RetryClass, RetryPolicy};
pub use service::{NpuService, RequestTicket, SubmitOptions};
pub use shed::Backlog;
pub use stats::{MetricsSnapshot, ServeStats};
pub use tier::{
    ServedBy, TierConfig, TierOutcome, TierReply, TierScope, TierStats, TierSubmit, TierTicket,
    TierTransition, TieredService,
};
