//! Crash-safe segmented pre-training: Q-table + exploration-schedule
//! snapshots.
//!
//! [`TopRlGovernor::pretrain`] runs one long monolithic simulation — a
//! crash near convergence loses hours of learning. [`pretrain_segmented`]
//! instead splits pre-training into fixed-length segments, each driven by
//! RNG streams derived from `(seed, segment)` rather than one sequential
//! RNG, and snapshots the shared [`QTable`], the [`ExplorationSchedule`]
//! and the segment cursor into a [`CheckpointStore`] after every segment.
//! A run interrupted after any segment resumes from the newest valid
//! snapshot and converges to the *same* table an uninterrupted run
//! produces; corrupt snapshots are skipped and quarantined, and snapshots
//! written under a different RNG implementation or schedule are discarded
//! (recorded in the outcome, never a panic).

use std::path::Path;

use checkpoint::{CheckpointError, CheckpointStore, Decoder, Encoder};
use hikey_platform::{SimConfig, Simulator};
use hmc_types::{SimDuration, SimTime};
use rand::RngCore;
use trace::{CheckpointScope, TraceEvent, TraceRecorder};
use workloads::{Benchmark, MixedWorkloadConfig, WorkloadGenerator};

use crate::governor::TopRlGovernor;
use crate::qtable::QTable;

/// Checkpoint kind tag for RL pre-training snapshots.
pub const RL_PRETRAIN_KIND: &str = "rl-pretrain";

/// Stream tag for per-segment workload RNGs.
const WORKLOAD_STREAM: u64 = 0x3A11_0C47_9D2E_5B01;
/// Stream tag for per-segment governor (exploration) RNGs.
const GOVERNOR_STREAM: u64 = 0x7C39_41E8_22B5_D600;

/// A decaying ε-greedy exploration schedule: segment `k` explores with
/// `max(min_epsilon, initial_epsilon · decay^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationSchedule {
    /// ε of the first segment.
    pub initial_epsilon: f64,
    /// Per-segment multiplicative decay.
    pub decay: f64,
    /// Exploration floor.
    pub min_epsilon: f64,
}

impl Default for ExplorationSchedule {
    fn default() -> Self {
        ExplorationSchedule {
            initial_epsilon: 0.2,
            decay: 0.85,
            min_epsilon: 0.02,
        }
    }
}

impl ExplorationSchedule {
    /// ε used in segment `segment`.
    pub fn epsilon_at(&self, segment: u64) -> f64 {
        (self.initial_epsilon * self.decay.powi(segment.min(i32::MAX as u64) as i32))
            .max(self.min_epsilon)
    }
}

/// The persisted pre-training state.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainCheckpoint {
    /// The shared Q-table learned so far.
    pub qtable: QTable,
    /// The schedule the run was started with (a resume under a different
    /// schedule would diverge, so a mismatch discards the snapshot).
    pub schedule: ExplorationSchedule,
    /// The segment the resumed run will execute next.
    pub next_segment: u64,
    /// Q-table updates across all completed segments.
    pub updates: u64,
    /// Cumulative reward across all completed segments.
    pub cumulative_reward: f64,
}

impl PretrainCheckpoint {
    /// Serializes into a checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_f32s(self.qtable.values());
        enc.put_f64(self.schedule.initial_epsilon);
        enc.put_f64(self.schedule.decay);
        enc.put_f64(self.schedule.min_epsilon);
        enc.put_u64(self.next_segment);
        enc.put_u64(self.updates);
        enc.put_f64(self.cumulative_reward);
        enc.finish()
    }

    /// Deserializes a payload produced by [`PretrainCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency; never panics.
    pub fn decode(payload: &[u8]) -> Result<PretrainCheckpoint, String> {
        let err = |e: checkpoint::CodecError| e.to_string();
        let mut dec = Decoder::new(payload);
        let qtable = QTable::from_values(dec.get_f32s().map_err(err)?)?;
        let schedule = ExplorationSchedule {
            initial_epsilon: dec.get_f64().map_err(err)?,
            decay: dec.get_f64().map_err(err)?,
            min_epsilon: dec.get_f64().map_err(err)?,
        };
        let next_segment = dec.get_u64().map_err(err)?;
        let updates = dec.get_u64().map_err(err)?;
        let cumulative_reward = dec.get_f64().map_err(err)?;
        dec.expect_end().map_err(err)?;
        Ok(PretrainCheckpoint {
            qtable,
            schedule,
            next_segment,
            updates,
            cumulative_reward,
        })
    }
}

/// Settings of [`pretrain_segmented`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainConfig {
    /// Total segments to run.
    pub segments: u64,
    /// Simulated time per segment.
    pub segment_time: SimDuration,
    /// Exploration schedule over segments.
    pub schedule: ExplorationSchedule,
    /// Snapshots kept on disk.
    pub retain: usize,
    /// Applications per segment's random training workload.
    pub apps_per_segment: usize,
    /// Thread budget for pre-generating the per-segment workloads. Each
    /// segment's workload derives from `(seed, segment)` independently, so
    /// the generated apps are identical at every budget; the learning loop
    /// itself stays sequential (segment `k+1` starts from segment `k`'s
    /// Q-table). Never persisted in snapshots.
    pub budget: par::Budget,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            segments: 6,
            segment_time: SimDuration::from_secs(120),
            schedule: ExplorationSchedule::default(),
            retain: 3,
            apps_per_segment: 40,
            budget: par::Budget::serial(),
        }
    }
}

/// Outcome of a (possibly resumed) segmented pre-training run.
#[derive(Debug)]
pub struct SegmentedPretrainOutcome {
    /// The learned table — converged when `completed`, partial otherwise.
    pub qtable: QTable,
    /// `false` when interrupted before all segments finished.
    pub completed: bool,
    /// Segments executed in this invocation.
    pub segments_run: u64,
    /// Sequence number of the snapshot the run resumed from.
    pub resumed_from_seq: Option<u64>,
    /// Corrupt snapshots skipped (and quarantined) during recovery.
    pub corrupt_skipped: usize,
    /// Snapshots written by this invocation.
    pub snapshots_written: usize,
    /// Why a structurally valid newest snapshot was discarded.
    pub discarded: Option<String>,
    /// Q-table updates across all segments (including resumed-over ones).
    pub updates: u64,
    /// Cumulative reward across all segments.
    pub cumulative_reward: f64,
}

/// Runs (or resumes) segmented pre-training, snapshotting into `dir` after
/// every segment. `interrupt_after_segments` simulates a crash after that
/// many segments have executed in this invocation.
///
/// # Errors
///
/// Returns [`CheckpointError`] when the store cannot be opened or a
/// snapshot cannot be written. Corrupt snapshots on disk are skipped,
/// quarantined and counted — not errors.
pub fn pretrain_segmented(
    seed: u64,
    config: &PretrainConfig,
    dir: &Path,
    interrupt_after_segments: Option<u64>,
    mut recorder: Option<&mut TraceRecorder>,
) -> Result<SegmentedPretrainOutcome, CheckpointError> {
    let mut store = CheckpointStore::open(dir, RL_PRETRAIN_KIND, config.retain)?;
    let recovery = store.load_latest()?;
    let corrupt_skipped = recovery.skipped.len();
    let fingerprint = nn::rng_stream_fingerprint();

    let mut table = QTable::new();
    let mut start_segment = 0u64;
    let mut updates = 0u64;
    let mut cumulative_reward = 0.0f64;
    let mut resumed_from_seq = None;
    let mut discarded = None;

    if let Some(snapshot) = recovery.snapshot {
        if snapshot.rng_fingerprint != fingerprint {
            discarded = Some(format!(
                "RNG stream fingerprint mismatch: snapshot {:016x}, this build {:016x}",
                snapshot.rng_fingerprint, fingerprint
            ));
        } else {
            match PretrainCheckpoint::decode(&snapshot.payload) {
                Ok(ckpt) if ckpt.schedule == config.schedule => {
                    resumed_from_seq = Some(snapshot.seq);
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.record(TraceEvent::CheckpointRestored {
                            at: SimTime::ZERO,
                            scope: CheckpointScope::Rl,
                            seq: snapshot.seq,
                            skipped: corrupt_skipped as u32,
                        });
                    }
                    table = ckpt.qtable;
                    start_segment = ckpt.next_segment;
                    updates = ckpt.updates;
                    cumulative_reward = ckpt.cumulative_reward;
                }
                Ok(_) => {
                    discarded = Some("snapshot exploration schedule differs from config".into());
                }
                Err(e) => discarded = Some(format!("snapshot payload rejected: {e}")),
            }
        }
    }

    // Segment workloads derive from (seed, WORKLOAD_STREAM, segment)
    // independently of each other and of the learning loop, so they can be
    // pre-generated in parallel; par_map returns them in segment order.
    let workload_cfg = MixedWorkloadConfig {
        num_apps: config.apps_per_segment,
        mean_interarrival: SimDuration::from_secs(8),
        benchmarks: Benchmark::training_set().to_vec(),
        total_instructions: Some(8_000_000_000),
        ..MixedWorkloadConfig::default()
    };
    let pending: Vec<u64> = (start_segment..config.segments).collect();
    let workloads = par::par_map(&config.budget, &pending, |_, &segment| {
        let mut workload_rng = sim_core::derive_rng(seed, WORKLOAD_STREAM, segment);
        WorkloadGenerator::mixed(&workload_cfg, &mut workload_rng)
    });

    let mut segments_run = 0u64;
    let mut snapshots_written = 0usize;
    let mut completed = true;
    for (workload, &segment) in workloads.iter().zip(&pending) {
        let governor_seed = sim_core::derive_rng(seed, GOVERNOR_STREAM, segment).next_u64();
        let mut governor = TopRlGovernor::with_qtable(table, governor_seed)
            .with_epsilon(config.schedule.epsilon_at(segment));
        let sim = SimConfig {
            max_duration: config.segment_time,
            stop_when_idle: false,
            ..SimConfig::default()
        };
        let _ = Simulator::new(sim).run(workload, &mut governor);
        let stats = governor.stats();
        updates += stats.updates;
        cumulative_reward += stats.cumulative_reward;
        table = governor.into_qtable();
        segments_run += 1;

        let payload = PretrainCheckpoint {
            qtable: table.clone(),
            schedule: config.schedule,
            next_segment: segment + 1,
            updates,
            cumulative_reward,
        }
        .encode();
        let saved = store.save(&payload, fingerprint)?;
        snapshots_written += 1;
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(TraceEvent::CheckpointSaved {
                at: SimTime::from_nanos(segment + 1),
                scope: CheckpointScope::Rl,
                seq: saved.seq,
                bytes: saved.bytes,
            });
        }

        if interrupt_after_segments.is_some_and(|n| segments_run >= n)
            && segment + 1 < config.segments
        {
            completed = false;
            break;
        }
    }

    Ok(SegmentedPretrainOutcome {
        qtable: table,
        completed,
        segments_run,
        resumed_from_seq,
        corrupt_skipped,
        snapshots_written,
        discarded,
        updates,
        cumulative_reward,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("toprl-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn quick_config() -> PretrainConfig {
        PretrainConfig {
            segments: 3,
            segment_time: SimDuration::from_secs(5),
            apps_per_segment: 6,
            ..PretrainConfig::default()
        }
    }

    #[test]
    fn schedule_decays_to_floor() {
        let s = ExplorationSchedule::default();
        assert_eq!(s.epsilon_at(0), s.initial_epsilon);
        assert!(s.epsilon_at(1) < s.epsilon_at(0));
        assert_eq!(s.epsilon_at(1000), s.min_epsilon);
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_malformed() {
        let mut qtable = QTable::new();
        qtable.update(3, 1, 0.5);
        qtable.update(100, 7, -2.0);
        let ckpt = PretrainCheckpoint {
            qtable,
            schedule: ExplorationSchedule::default(),
            next_segment: 4,
            updates: 1234,
            cumulative_reward: -56.5,
        };
        let bytes = ckpt.encode();
        assert_eq!(PretrainCheckpoint::decode(&bytes).unwrap(), ckpt);
        for len in [0, 1, 8, bytes.len() - 1] {
            assert!(
                PretrainCheckpoint::decode(&bytes[..len]).is_err(),
                "len={len}"
            );
        }
    }

    #[test]
    fn qtable_from_values_validates() {
        assert!(QTable::from_values(vec![0.0; 3]).is_err());
        let mut v = vec![0.0; crate::NUM_STATES * crate::NUM_ACTIONS];
        v[7] = f32::NAN;
        assert!(QTable::from_values(v).is_err());
        let ok = QTable::from_values(vec![1.5; crate::NUM_STATES * crate::NUM_ACTIONS]).unwrap();
        assert_eq!(ok.value(0, 0), 1.5);
    }

    #[test]
    fn interrupted_resumed_pretraining_matches_uninterrupted() {
        let config = quick_config();

        let ref_dir = tmp_dir("ref");
        let reference = pretrain_segmented(17, &config, &ref_dir, None, None).unwrap();
        assert!(reference.completed);
        assert_eq!(reference.segments_run, 3);
        assert!(reference.qtable.nonzero_entries() > 0);

        let dir = tmp_dir("resume");
        let first = pretrain_segmented(17, &config, &dir, Some(1), None).unwrap();
        assert!(!first.completed);
        assert_eq!(first.segments_run, 1);

        let mut rec = trace::TraceConfig::full().recorder().unwrap();
        let second = pretrain_segmented(17, &config, &dir, None, Some(&mut rec)).unwrap();
        assert!(second.completed);
        assert_eq!(second.resumed_from_seq, Some(0));
        assert_eq!(second.qtable, reference.qtable);
        assert_eq!(second.updates, reference.updates);
        assert!(
            (second.cumulative_reward - reference.cumulative_reward).abs() < 1e-9,
            "reward history must match"
        );
        let log = rec.finish();
        assert!(log
            .events
            .iter()
            .any(|e| e.kind() == trace::EventKind::CheckpointRestored));

        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let config = quick_config();
        let ref_dir = tmp_dir("cref");
        let reference = pretrain_segmented(23, &config, &ref_dir, None, None).unwrap();

        let dir = tmp_dir("corrupt");
        pretrain_segmented(23, &config, &dir, Some(2), None).unwrap();
        let store = CheckpointStore::open(&dir, RL_PRETRAIN_KIND, 3).unwrap();
        let newest = store.snapshot_paths().unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&newest, &bytes).unwrap();

        let resumed = pretrain_segmented(23, &config, &dir, None, None).unwrap();
        assert_eq!(resumed.corrupt_skipped, 1);
        assert_eq!(resumed.resumed_from_seq, Some(0));
        assert_eq!(resumed.segments_run, 2);
        assert_eq!(resumed.qtable, reference.qtable);

        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedule_mismatch_discards_snapshot() {
        let config = quick_config();
        let dir = tmp_dir("sched");
        pretrain_segmented(29, &config, &dir, Some(1), None).unwrap();

        let changed = PretrainConfig {
            schedule: ExplorationSchedule {
                initial_epsilon: 0.5,
                ..ExplorationSchedule::default()
            },
            ..config
        };
        let outcome = pretrain_segmented(29, &changed, &dir, Some(1), None).unwrap();
        assert!(outcome.resumed_from_seq.is_none());
        assert!(outcome.discarded.as_deref().unwrap().contains("schedule"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
