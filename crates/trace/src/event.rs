//! The structured trace-event vocabulary.
//!
//! One [`TraceEvent`] is emitted per observable step of the control stack:
//! epoch boundaries, policy decisions (with the raw NN logits that led to
//! them), executed migrations, DVFS transitions, windowed QoS and thermal
//! samples, NPU job lifecycle, and fault/degradation events. Every event
//! carries the simulated instant it was observed at; within one run the
//! stream is monotone in that timestamp.

use std::fmt;

use hmc_types::{AppId, Celsius, Cluster, CoreId, Ips, Joules, SimDuration, SimTime};

use crate::hash::Fnv64;

/// Which compute backend served an inference job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceBackend {
    /// The (simulated) Kirin 970 NPU behind the HiAI DDK.
    Npu,
    /// The CPU cost model (ablation or degradation fallback).
    Cpu,
}

impl fmt::Display for TraceBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceBackend::Npu => write!(f, "npu"),
            TraceBackend::Cpu => write!(f, "cpu"),
        }
    }
}

/// A fault or degradation observed by the platform or a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A thermal-sensor sample never arrived (bus dropout).
    SensorDropout,
    /// A sensor sample was rejected by the plausibility filter.
    SensorRejected,
    /// The sensor-loss fail-safe engaged (lowest OPP on both clusters).
    FailsafeEngaged,
    /// The fail-safe released after a plausible sample returned.
    FailsafeReleased,
    /// A DVFS transition was rejected by an actuation fault.
    DvfsReject,
    /// A DVFS transition was delayed by an actuation fault.
    DvfsDelay,
    /// A single NPU inference job failed (before retries).
    NpuJobFailure,
    /// The NPU circuit breaker opened.
    BreakerOpen,
    /// A migration epoch was served by the CPU inference fallback.
    CpuFallback,
    /// A migration epoch was skipped entirely (inference deadline missed).
    DegradedEpoch,
    /// An NPU circuit breaker moved to half-open (cooldown over, probe
    /// allowed).
    BreakerHalfOpen,
    /// An NPU circuit breaker closed again (successful half-open probe).
    BreakerClosed,
}

impl FaultKind {
    /// Stable lower-snake name used in exports and hashing docs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SensorDropout => "sensor_dropout",
            FaultKind::SensorRejected => "sensor_rejected",
            FaultKind::FailsafeEngaged => "failsafe_engaged",
            FaultKind::FailsafeReleased => "failsafe_released",
            FaultKind::DvfsReject => "dvfs_reject",
            FaultKind::DvfsDelay => "dvfs_delay",
            FaultKind::NpuJobFailure => "npu_job_failure",
            FaultKind::BreakerOpen => "breaker_open",
            FaultKind::CpuFallback => "cpu_fallback",
            FaultKind::DegradedEpoch => "degraded_epoch",
            FaultKind::BreakerHalfOpen => "breaker_half_open",
            FaultKind::BreakerClosed => "breaker_closed",
        }
    }

    fn code(self) -> u8 {
        match self {
            FaultKind::SensorDropout => 0,
            FaultKind::SensorRejected => 1,
            FaultKind::FailsafeEngaged => 2,
            FaultKind::FailsafeReleased => 3,
            FaultKind::DvfsReject => 4,
            FaultKind::DvfsDelay => 5,
            FaultKind::NpuJobFailure => 6,
            FaultKind::BreakerOpen => 7,
            FaultKind::CpuFallback => 8,
            FaultKind::DegradedEpoch => 9,
            FaultKind::BreakerHalfOpen => 10,
            FaultKind::BreakerClosed => 11,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Which layer of the stack a checkpoint snapshot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointScope {
    /// IL training state (MLP weights, Adam moments, aggregation buffer).
    Training,
    /// TOP-RL pretraining state (Q-table, exploration schedule).
    Rl,
    /// A bench sweep supervisor's job manifest.
    Sweep,
}

impl CheckpointScope {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CheckpointScope::Training => "training",
            CheckpointScope::Rl => "rl",
            CheckpointScope::Sweep => "sweep",
        }
    }

    fn code(self) -> u8 {
        match self {
            CheckpointScope::Training => 0,
            CheckpointScope::Rl => 1,
            CheckpointScope::Sweep => 2,
        }
    }
}

impl fmt::Display for CheckpointScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The kind of a [`TraceEvent`], used for granularity filtering and as the
/// `event` column of exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of a policy control epoch.
    EpochTick,
    /// A policy decision (may propose no migration).
    Decision,
    /// An executed application migration.
    Migration,
    /// An applied per-cluster DVFS transition.
    DvfsTransition,
    /// A windowed IPS-vs-target sample for one application.
    QosSample,
    /// A thermal-sensor sample.
    ThermalSample,
    /// One inference job (NPU attempt or CPU execution).
    NpuJob,
    /// A fault or degradation event.
    Fault,
    /// An application was admitted.
    AppAdmitted,
    /// An application retired (completed or terminated with the run).
    AppCompleted,
    /// End-of-run aggregate record.
    RunEnd,
    /// A checkpoint snapshot was written durably.
    CheckpointSaved,
    /// State was restored from a checkpoint snapshot.
    CheckpointRestored,
}

impl EventKind {
    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochTick => "epoch_tick",
            EventKind::Decision => "decision",
            EventKind::Migration => "migration",
            EventKind::DvfsTransition => "dvfs_transition",
            EventKind::QosSample => "qos_sample",
            EventKind::ThermalSample => "thermal_sample",
            EventKind::NpuJob => "npu_job",
            EventKind::Fault => "fault",
            EventKind::AppAdmitted => "app_admitted",
            EventKind::AppCompleted => "app_completed",
            EventKind::RunEnd => "run_end",
            EventKind::CheckpointSaved => "checkpoint_saved",
            EventKind::CheckpointRestored => "checkpoint_restored",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One structured trace event.
///
/// # Examples
///
/// ```
/// use hmc_types::{AppId, CoreId, SimTime};
/// use trace::{EventKind, TraceEvent};
///
/// let e = TraceEvent::Migration {
///     at: SimTime::from_millis(500),
///     app: AppId::new(0),
///     from: CoreId::new(1),
///     to: CoreId::new(5),
/// };
/// assert_eq!(e.kind(), EventKind::Migration);
/// assert_eq!(e.at(), SimTime::from_millis(500));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A policy control epoch began (migration epochs for TOP-IL/TOP-RL and
    /// the oracle, balance epochs for GTS).
    EpochTick {
        /// Observation instant.
        at: SimTime,
        /// Zero-based epoch counter of the emitting policy.
        epoch: u64,
    },
    /// A policy decision, including the evidence it was made on.
    Decision {
        /// Observation instant.
        at: SimTime,
        /// The application chosen for migration (`None`: keep the mapping).
        app: Option<AppId>,
        /// The chosen destination core.
        target: Option<CoreId>,
        /// The decision score (rating improvement, Q-value advantage, or
        /// predicted temperature gain in kelvin, per policy).
        score: f64,
        /// Raw model outputs backing the decision (the chosen AoI's NN
        /// rating row for TOP-IL, the agent's Q-row for TOP-RL; empty for
        /// heuristic policies).
        logits: Vec<f32>,
    },
    /// An application migrated between cores.
    Migration {
        /// Observation instant.
        at: SimTime,
        /// The migrated application.
        app: AppId,
        /// Source core.
        from: CoreId,
        /// Destination core.
        to: CoreId,
    },
    /// A per-cluster DVFS transition took effect.
    DvfsTransition {
        /// Observation instant.
        at: SimTime,
        /// The cluster that changed.
        cluster: Cluster,
        /// OPP index before.
        from_level: u8,
        /// OPP index after.
        to_level: u8,
    },
    /// Windowed measured performance vs. the QoS target of one application.
    QosSample {
        /// Observation instant.
        at: SimTime,
        /// The sampled application.
        app: AppId,
        /// Windowed measured IPS (`q_k`).
        current: Ips,
        /// The QoS target IPS.
        target: Ips,
    },
    /// A software-visible thermal-sensor sample.
    ThermalSample {
        /// Observation instant.
        at: SimTime,
        /// The filtered sensor estimate.
        sensor: Celsius,
        /// Whether DTM is currently clamping V/f levels.
        throttling: bool,
    },
    /// One inference job lifecycle record (one per NPU attempt or CPU
    /// execution).
    NpuJob {
        /// Epoch instant the job belongs to.
        at: SimTime,
        /// Batch size (number of AoI feature rows).
        batch: u32,
        /// End-to-end latency of this job.
        latency: SimDuration,
        /// Backend that executed it.
        backend: TraceBackend,
        /// Whether the job delivered a result.
        ok: bool,
    },
    /// A fault or degradation event.
    Fault {
        /// Observation instant.
        at: SimTime,
        /// What happened.
        kind: FaultKind,
    },
    /// An application was admitted onto a core.
    AppAdmitted {
        /// Observation instant.
        at: SimTime,
        /// The new application.
        app: AppId,
        /// Its initial core.
        core: CoreId,
    },
    /// An application retired.
    AppCompleted {
        /// Observation instant.
        at: SimTime,
        /// The application.
        app: AppId,
        /// `true` if it ran to completion, `false` if it was terminated
        /// (killed or still running when the run ended).
        finished: bool,
        /// Time spent with windowed IPS below target.
        violation_time: SimDuration,
        /// Dynamic CPU energy attributed to it.
        energy: Joules,
        /// Migrations performed on it.
        migrations: u64,
    },
    /// End-of-run aggregates, emitted exactly once when the platform
    /// finalizes.
    RunEnd {
        /// The final simulated instant.
        at: SimTime,
        /// Total CPU energy of the run.
        energy: Joules,
        /// Summed per-application QoS violation time.
        violation_time: SimDuration,
        /// Total executed migrations.
        migrations: u64,
    },
    /// A checkpoint snapshot was written durably (fsynced and renamed
    /// into place).
    CheckpointSaved {
        /// Observation instant.
        at: SimTime,
        /// Which layer snapshotted.
        scope: CheckpointScope,
        /// The snapshot's sequence number.
        seq: u64,
        /// Encoded snapshot size on disk.
        bytes: u64,
    },
    /// State was restored from a checkpoint snapshot (possibly after
    /// falling back past corrupt newer snapshots).
    CheckpointRestored {
        /// Observation instant.
        at: SimTime,
        /// Which layer restored.
        scope: CheckpointScope,
        /// Sequence number of the snapshot that validated.
        seq: u64,
        /// Corrupt newer snapshots skipped to reach it.
        skipped: u32,
    },
}

impl TraceEvent {
    /// The instant the event was observed at.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::EpochTick { at, .. }
            | TraceEvent::Decision { at, .. }
            | TraceEvent::Migration { at, .. }
            | TraceEvent::DvfsTransition { at, .. }
            | TraceEvent::QosSample { at, .. }
            | TraceEvent::ThermalSample { at, .. }
            | TraceEvent::NpuJob { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::AppAdmitted { at, .. }
            | TraceEvent::AppCompleted { at, .. }
            | TraceEvent::RunEnd { at, .. }
            | TraceEvent::CheckpointSaved { at, .. }
            | TraceEvent::CheckpointRestored { at, .. } => at,
        }
    }

    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::EpochTick { .. } => EventKind::EpochTick,
            TraceEvent::Decision { .. } => EventKind::Decision,
            TraceEvent::Migration { .. } => EventKind::Migration,
            TraceEvent::DvfsTransition { .. } => EventKind::DvfsTransition,
            TraceEvent::QosSample { .. } => EventKind::QosSample,
            TraceEvent::ThermalSample { .. } => EventKind::ThermalSample,
            TraceEvent::NpuJob { .. } => EventKind::NpuJob,
            TraceEvent::Fault { .. } => EventKind::Fault,
            TraceEvent::AppAdmitted { .. } => EventKind::AppAdmitted,
            TraceEvent::AppCompleted { .. } => EventKind::AppCompleted,
            TraceEvent::RunEnd { .. } => EventKind::RunEnd,
            TraceEvent::CheckpointSaved { .. } => EventKind::CheckpointSaved,
            TraceEvent::CheckpointRestored { .. } => EventKind::CheckpointRestored,
        }
    }

    /// Feeds the event's canonical encoding into a hasher. The encoding is
    /// part of the golden-fixture contract: changing it invalidates every
    /// committed trace hash (regenerate with `BLESS=1`).
    pub fn hash_into(&self, h: &mut Fnv64) {
        match *self {
            TraceEvent::EpochTick { at, epoch } => {
                h.write_u8(0);
                h.write_u64(at.as_nanos());
                h.write_u64(epoch);
            }
            TraceEvent::Decision {
                at,
                app,
                target,
                score,
                ref logits,
            } => {
                h.write_u8(1);
                h.write_u64(at.as_nanos());
                h.write_opt_u64(app.map(AppId::value));
                h.write_opt_u64(target.map(|c| c.index() as u64));
                h.write_f64(score);
                h.write_u64(logits.len() as u64);
                for &l in logits {
                    h.write_f32(l);
                }
            }
            TraceEvent::Migration { at, app, from, to } => {
                h.write_u8(2);
                h.write_u64(at.as_nanos());
                h.write_u64(app.value());
                h.write_u8(from.index() as u8);
                h.write_u8(to.index() as u8);
            }
            TraceEvent::DvfsTransition {
                at,
                cluster,
                from_level,
                to_level,
            } => {
                h.write_u8(3);
                h.write_u64(at.as_nanos());
                h.write_u8(cluster.index() as u8);
                h.write_u8(from_level);
                h.write_u8(to_level);
            }
            TraceEvent::QosSample {
                at,
                app,
                current,
                target,
            } => {
                h.write_u8(4);
                h.write_u64(at.as_nanos());
                h.write_u64(app.value());
                h.write_f64(current.value());
                h.write_f64(target.value());
            }
            TraceEvent::ThermalSample {
                at,
                sensor,
                throttling,
            } => {
                h.write_u8(5);
                h.write_u64(at.as_nanos());
                h.write_f64(sensor.value());
                h.write_u8(throttling as u8);
            }
            TraceEvent::NpuJob {
                at,
                batch,
                latency,
                backend,
                ok,
            } => {
                h.write_u8(6);
                h.write_u64(at.as_nanos());
                h.write_u64(batch as u64);
                h.write_u64(latency.as_nanos());
                h.write_u8(matches!(backend, TraceBackend::Cpu) as u8);
                h.write_u8(ok as u8);
            }
            TraceEvent::Fault { at, kind } => {
                h.write_u8(7);
                h.write_u64(at.as_nanos());
                h.write_u8(kind.code());
            }
            TraceEvent::AppAdmitted { at, app, core } => {
                h.write_u8(8);
                h.write_u64(at.as_nanos());
                h.write_u64(app.value());
                h.write_u8(core.index() as u8);
            }
            TraceEvent::AppCompleted {
                at,
                app,
                finished,
                violation_time,
                energy,
                migrations,
            } => {
                h.write_u8(9);
                h.write_u64(at.as_nanos());
                h.write_u64(app.value());
                h.write_u8(finished as u8);
                h.write_u64(violation_time.as_nanos());
                h.write_f64(energy.value());
                h.write_u64(migrations);
            }
            TraceEvent::RunEnd {
                at,
                energy,
                violation_time,
                migrations,
            } => {
                h.write_u8(10);
                h.write_u64(at.as_nanos());
                h.write_f64(energy.value());
                h.write_u64(violation_time.as_nanos());
                h.write_u64(migrations);
            }
            TraceEvent::CheckpointSaved {
                at,
                scope,
                seq,
                bytes,
            } => {
                h.write_u8(11);
                h.write_u64(at.as_nanos());
                h.write_u8(scope.code());
                h.write_u64(seq);
                h.write_u64(bytes);
            }
            TraceEvent::CheckpointRestored {
                at,
                scope,
                seq,
                skipped,
            } => {
                h.write_u8(12);
                h.write_u64(at.as_nanos());
                h.write_u8(scope.code());
                h.write_u64(seq);
                h.write_u64(skipped as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_timestamps() {
        let at = SimTime::from_millis(42);
        let events = [
            TraceEvent::EpochTick { at, epoch: 0 },
            TraceEvent::Fault {
                at,
                kind: FaultKind::DvfsReject,
            },
            TraceEvent::RunEnd {
                at,
                energy: Joules::ZERO,
                violation_time: SimDuration::ZERO,
                migrations: 0,
            },
        ];
        for e in &events {
            assert_eq!(e.at(), at);
        }
        assert_eq!(events[0].kind(), EventKind::EpochTick);
        assert_eq!(events[1].kind().name(), "fault");
    }

    #[test]
    fn checkpoint_events_have_stable_names_and_distinct_hashes() {
        let at = SimTime::from_millis(1);
        let saved = TraceEvent::CheckpointSaved {
            at,
            scope: CheckpointScope::Sweep,
            seq: 3,
            bytes: 128,
        };
        let restored = TraceEvent::CheckpointRestored {
            at,
            scope: CheckpointScope::Sweep,
            seq: 3,
            skipped: 1,
        };
        assert_eq!(saved.kind().name(), "checkpoint_saved");
        assert_eq!(restored.kind().name(), "checkpoint_restored");
        assert_eq!(CheckpointScope::Training.name(), "training");
        assert_eq!(CheckpointScope::Rl.name(), "rl");
        let mut hs = Fnv64::new();
        let mut hr = Fnv64::new();
        saved.hash_into(&mut hs);
        restored.hash_into(&mut hr);
        assert_ne!(hs.finish(), hr.finish());
    }

    #[test]
    fn distinct_events_hash_differently() {
        let a = TraceEvent::EpochTick {
            at: SimTime::ZERO,
            epoch: 0,
        };
        let b = TraceEvent::EpochTick {
            at: SimTime::ZERO,
            epoch: 1,
        };
        let mut ha = Fnv64::new();
        let mut hb = Fnv64::new();
        a.hash_into(&mut ha);
        b.hash_into(&mut hb);
        assert_ne!(ha.finish(), hb.finish());
    }
}
