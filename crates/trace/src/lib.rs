//! Epoch-level tracing for the TOP-IL simulator.
//!
//! The simulator's control stack (migration policies, DVFS loops, DTM,
//! thermal sensing, the NPU inference path) emits a structured
//! [`TraceEvent`] stream into a bounded [`RingBuffer`] via a
//! [`TraceRecorder`]. The recorder maintains a stable 64-bit FNV-1a
//! [`TraceHash`] over the *entire* accepted stream — independent of the
//! ring capacity — which is the backbone of the golden-trace regression
//! suite: two runs are behaviorally identical iff their hashes match.
//!
//! - [`TraceConfig`] selects granularity ([`TraceGranularity::Off`] /
//!   `Decisions` / `Full`) and the ring capacity; `Off` constructs no
//!   recorder at all, so disabled tracing is a single `Option` check on
//!   the hot path.
//! - [`to_jsonl`] / [`to_csv`] export the retained window for offline
//!   analysis.
//! - [`TraceDiff`] reports the first diverging epoch between two runs
//!   when a golden check fails.
//!
//! The crate depends only on `hmc-types`, so every layer of the stack can
//! emit events without cycles.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod diff;
mod event;
mod export;
mod hash;
mod recorder;
mod ring;

pub use diff::{first_diverging_epoch, Divergence, TraceDiff};
pub use event::{CheckpointScope, EventKind, FaultKind, TraceBackend, TraceEvent};
pub use export::{to_csv, to_jsonl, CSV_HEADER};
pub use hash::{Fnv64, TraceHash};
pub use recorder::{TraceConfig, TraceGranularity, TraceLog, TraceRecorder};
pub use ring::RingBuffer;
