//! Crash-safe IL training: periodic snapshots and deterministic resume.
//!
//! Long DAgger-style training runs restart from zero on process death
//! unless their state survives it. This module snapshots the full training
//! state — MLP weights, Adam moments, the fitted [`Standardizer`] and the
//! [`AggregationBuffer`] of oracle cases — into a [`CheckpointStore`]
//! after every N epochs, and resumes from the newest *valid* snapshot.
//! The underlying loop is [`nn::train_resumable`], the loop of
//! [`nn::train`]: a resumed run replays the completed epochs' shuffles
//! from the seeded RNG, so it produces exactly the model an uninterrupted
//! run — and [`IlTrainer::train_from_cases`] — yields for the same seed.
//!
//! Snapshots that fail their checksum are quarantined and skipped;
//! snapshots written under a different RNG implementation (detected via
//! the stamped [`nn::rng_stream_fingerprint`]) or an incompatible topology
//! are discarded and training starts fresh — recorded in the outcome, not
//! a panic.

use std::path::Path;

use checkpoint::{CheckpointError, CheckpointStore, Decoder, Encoder};
use hmc_types::{Celsius, CoreId, Ips, QosTarget, SimTime, NUM_CORES};
use nn::{Mlp, Standardizer, TrainControl, TrainReport, TrainState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trace::{CheckpointScope, TraceEvent, TraceRecorder};

use crate::features::{Features, FEATURE_COUNT};
use crate::oracle::OracleCase;
use crate::training::{IlModel, IlTrainer};

/// Checkpoint kind tag for IL training snapshots. The older `il-train`
/// snapshots drew each epoch's shuffle from a derived stream and must not
/// resume into the sequential one, so this store never reads them.
pub const IL_TRAIN_KIND: &str = "il-train-seq";

/// Rounds of oracle cases aggregated across data-collection passes — the
/// DAgger-style buffer that rides along in every training snapshot so a
/// resumed process does not have to re-collect traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregationBuffer {
    rounds: Vec<Vec<OracleCase>>,
}

impl AggregationBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        AggregationBuffer::default()
    }

    /// Appends one collection round.
    pub fn push_round(&mut self, cases: Vec<OracleCase>) {
        self.rounds.push(cases);
    }

    /// Number of aggregation rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total cases across all rounds.
    pub fn total_cases(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Returns `true` when no round holds any case.
    pub fn is_empty(&self) -> bool {
        self.total_cases() == 0
    }

    /// All cases, flattened in aggregation order.
    pub fn flattened(&self) -> Vec<OracleCase> {
        self.rounds.iter().flatten().cloned().collect()
    }

    fn encode_into(&self, enc: &mut Encoder) {
        enc.put_usize(self.rounds.len());
        for round in &self.rounds {
            enc.put_usize(round.len());
            for case in round {
                encode_case(enc, case);
            }
        }
    }

    fn decode_from(dec: &mut Decoder<'_>) -> Result<AggregationBuffer, String> {
        let n_rounds = dec.get_usize().map_err(|e| e.to_string())?;
        if n_rounds > MAX_COLLECTION {
            return Err(format!("{n_rounds} aggregation rounds out of range"));
        }
        let mut rounds = Vec::with_capacity(n_rounds);
        for _ in 0..n_rounds {
            let n_cases = dec.get_usize().map_err(|e| e.to_string())?;
            if n_cases > MAX_COLLECTION {
                return Err(format!("{n_cases} cases in one round out of range"));
            }
            let mut round = Vec::with_capacity(n_cases);
            for _ in 0..n_cases {
                round.push(decode_case(dec)?);
            }
            rounds.push(round);
        }
        Ok(AggregationBuffer { rounds })
    }
}

/// Upper bound on decoded collection sizes — rejects absurd counts before
/// allocation when a payload decodes to garbage.
const MAX_COLLECTION: usize = 1 << 24;

fn encode_features(enc: &mut Encoder, f: &Features) {
    enc.put_f64(f.qos_current.value());
    enc.put_f64(f.l2d_per_sec);
    enc.put_usize(f.current_core.index());
    enc.put_f64(f.qos_target.ips().value());
    enc.put_f64(f.required_vf_ratio[0]);
    enc.put_f64(f.required_vf_ratio[1]);
    for u in f.core_utilization {
        enc.put_f64(u);
    }
}

fn decode_features(dec: &mut Decoder<'_>) -> Result<Features, String> {
    let err = |e: checkpoint::CodecError| e.to_string();
    let qos_current = Ips::new(dec.get_f64().map_err(err)?);
    let l2d_per_sec = dec.get_f64().map_err(err)?;
    let core = dec.get_usize().map_err(err)?;
    if core >= NUM_CORES {
        return Err(format!("core index {core} out of range"));
    }
    let qos_target = QosTarget::new(Ips::new(dec.get_f64().map_err(err)?));
    let required_vf_ratio = [dec.get_f64().map_err(err)?, dec.get_f64().map_err(err)?];
    let mut core_utilization = [0.0f64; NUM_CORES];
    for u in &mut core_utilization {
        *u = dec.get_f64().map_err(err)?;
    }
    Ok(Features {
        qos_current,
        l2d_per_sec,
        current_core: CoreId::new(core),
        qos_target,
        required_vf_ratio,
        core_utilization,
    })
}

fn encode_case(enc: &mut Encoder, case: &OracleCase) {
    enc.put_usize(case.sources.len());
    for f in &case.sources {
        encode_features(enc, f);
    }
    for l in case.labels {
        enc.put_f32(l);
    }
    for t in case.temperatures {
        match t {
            Some(c) => {
                enc.put_bool(true);
                enc.put_f64(c.value());
            }
            None => enc.put_bool(false),
        }
    }
}

fn decode_case(dec: &mut Decoder<'_>) -> Result<OracleCase, String> {
    let err = |e: checkpoint::CodecError| e.to_string();
    let n_sources = dec.get_usize().map_err(err)?;
    if n_sources > NUM_CORES {
        return Err(format!("{n_sources} source mappings out of range"));
    }
    let mut sources = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        sources.push(decode_features(dec)?);
    }
    let mut labels = [0.0f32; NUM_CORES];
    for l in &mut labels {
        *l = dec.get_f32().map_err(err)?;
    }
    let mut temperatures = [None; NUM_CORES];
    for t in &mut temperatures {
        if dec.get_bool().map_err(err)? {
            *t = Some(Celsius::new(dec.get_f64().map_err(err)?));
        }
    }
    Ok(OracleCase {
        sources,
        labels,
        temperatures,
    })
}

/// The full persisted training state: aggregation buffer, fitted
/// standardizer and the [`TrainState`] of the underlying loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IlTrainCheckpoint {
    /// Oracle cases aggregated so far.
    pub buffer: AggregationBuffer,
    /// Standardizer fitted on the buffer's dataset.
    pub standardizer: Standardizer,
    /// Epoch-granular state of the training loop.
    pub state: TrainState,
}

impl IlTrainCheckpoint {
    /// Serializes into a checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_payload(&self.buffer, &self.standardizer, &self.state)
    }

    /// Deserializes a payload produced by [`IlTrainCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency; never panics.
    pub fn decode(payload: &[u8]) -> Result<IlTrainCheckpoint, String> {
        let mut dec = Decoder::new(payload);
        let buffer = AggregationBuffer::decode_from(&mut dec)?;
        let mean = dec.get_f32s().map_err(|e| e.to_string())?;
        let std = dec.get_f32s().map_err(|e| e.to_string())?;
        let standardizer = Standardizer::from_parts(mean, std)?;
        let state_bytes = dec.get_bytes().map_err(|e| e.to_string())?;
        let state = TrainState::decode(state_bytes).map_err(|e| e.to_string())?;
        dec.expect_end().map_err(|e| e.to_string())?;
        Ok(IlTrainCheckpoint {
            buffer,
            standardizer,
            state,
        })
    }
}

/// The payload of [`IlTrainCheckpoint::encode`], from borrowed parts, so
/// a training run snapshots without cloning its buffer or state.
fn encode_payload(
    buffer: &AggregationBuffer,
    standardizer: &Standardizer,
    state: &TrainState,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    buffer.encode_into(&mut enc);
    enc.put_f32s(standardizer.mean());
    enc.put_f32s(standardizer.std());
    enc.put_bytes(&state.encode());
    enc.finish()
}

/// Snapshot cadence and retention for [`IlTrainer::train_checkpointed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptConfig {
    /// Write a snapshot after every this many epochs.
    pub every_epochs: usize,
    /// Snapshots kept on disk (older ones are pruned).
    pub retain: usize,
}

impl Default for CkptConfig {
    fn default() -> Self {
        CkptConfig {
            every_epochs: 1,
            retain: 3,
        }
    }
}

/// Outcome of a checkpointed training run.
#[derive(Debug)]
pub struct CheckpointedTrainOutcome {
    /// The trained model — `None` when the run was interrupted.
    pub model: Option<IlModel>,
    /// Loss history over *all* epochs (including pre-resume ones).
    pub report: TrainReport,
    /// `false` when interrupted before finishing.
    pub completed: bool,
    /// Sequence number of the snapshot training resumed from.
    pub resumed_from_seq: Option<u64>,
    /// Corrupt snapshots skipped (and quarantined) while locating a
    /// resume point.
    pub corrupt_skipped: usize,
    /// Snapshots written during this invocation.
    pub snapshots_written: usize,
    /// Why a structurally valid newest snapshot was discarded (RNG
    /// fingerprint or topology mismatch), forcing a fresh start.
    pub discarded: Option<String>,
}

impl IlTrainer {
    /// Trains like [`IlTrainer::train_from_cases`] but crash-safely:
    /// snapshots the full state into `dir` every
    /// [`CkptConfig::every_epochs`] epochs and resumes from the newest
    /// valid snapshot found there.
    ///
    /// On a fresh start, `cases` seed the aggregation buffer; on resume
    /// the buffer persisted in the snapshot is authoritative (the caller
    /// does not need to re-collect traces). `interrupt_after_epochs`
    /// simulates a crash: the run stops (with `completed: false`) after
    /// that many epochs have executed *in this invocation*.
    ///
    /// Uses [`nn::train_resumable`] with the RNG that
    /// [`IlTrainer::train_from_cases`] hands [`nn::train`], so the model
    /// equals `train_from_cases(cases, seed)` bit for bit, whether or not
    /// the run was interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the store cannot be opened or a
    /// snapshot cannot be written. Corrupt snapshots on disk are *not*
    /// errors; they are skipped, quarantined and counted.
    ///
    /// # Panics
    ///
    /// Panics if no training examples can be built from the cases.
    pub fn train_checkpointed(
        &self,
        cases: &[OracleCase],
        seed: u64,
        dir: &Path,
        config: &CkptConfig,
        interrupt_after_epochs: Option<usize>,
        mut recorder: Option<&mut TraceRecorder>,
    ) -> Result<CheckpointedTrainOutcome, CheckpointError> {
        let mut store = CheckpointStore::open(dir, IL_TRAIN_KIND, config.retain)?;
        let recovery = store.load_latest()?;
        let corrupt_skipped = recovery.skipped.len();
        let fingerprint = nn::rng_stream_fingerprint();

        let mut buffer = AggregationBuffer::new();
        let mut resume: Option<TrainState> = None;
        let mut standardizer: Option<Standardizer> = None;
        let mut resumed_from_seq = None;
        let mut discarded = None;

        let settings = self.settings();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::with_topology(
            FEATURE_COUNT,
            settings.hidden_layers,
            settings.width,
            hmc_types::NUM_CORES,
            &mut rng,
        );

        if let Some(snapshot) = recovery.snapshot {
            if snapshot.rng_fingerprint != fingerprint {
                discarded = Some(format!(
                    "RNG stream fingerprint mismatch: snapshot {:016x}, this build {:016x}",
                    snapshot.rng_fingerprint, fingerprint
                ));
            } else {
                match IlTrainCheckpoint::decode(&snapshot.payload) {
                    Ok(ckpt) if ckpt.state.mlp.layer_sizes() == mlp.layer_sizes() => {
                        resumed_from_seq = Some(snapshot.seq);
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.record(TraceEvent::CheckpointRestored {
                                at: SimTime::ZERO,
                                scope: CheckpointScope::Training,
                                seq: snapshot.seq,
                                skipped: corrupt_skipped as u32,
                            });
                        }
                        buffer = ckpt.buffer;
                        standardizer = Some(ckpt.standardizer);
                        resume = Some(ckpt.state);
                    }
                    Ok(_) => {
                        discarded = Some("snapshot topology differs from trainer settings".into());
                    }
                    Err(e) => {
                        discarded = Some(format!("snapshot payload rejected: {e}"));
                    }
                }
            }
        }

        if resume.is_none() {
            buffer = AggregationBuffer::new();
            buffer.push_round(cases.to_vec());
        }
        let flattened = buffer.flattened();
        let (dataset, fitted) = IlTrainer::build_dataset(&flattened);
        let standardizer = standardizer.unwrap_or(fitted);

        let mut save_error: Option<CheckpointError> = None;
        let mut snapshots_written = 0usize;
        let mut epochs_this_run = 0usize;
        let outcome = nn::train_resumable(
            &mut mlp,
            &dataset,
            &settings.nn,
            &mut rng,
            resume,
            &mut |state| {
                epochs_this_run += 1;
                if config.every_epochs > 0 && state.next_epoch % config.every_epochs.max(1) == 0 {
                    let payload = encode_payload(&buffer, &standardizer, state);
                    match store.save(&payload, fingerprint) {
                        Ok(saved) => {
                            snapshots_written += 1;
                            if let Some(rec) = recorder.as_deref_mut() {
                                rec.record(TraceEvent::CheckpointSaved {
                                    at: SimTime::from_nanos(state.next_epoch as u64),
                                    scope: CheckpointScope::Training,
                                    seq: saved.seq,
                                    bytes: saved.bytes,
                                });
                            }
                        }
                        Err(e) => {
                            save_error = Some(e);
                            return TrainControl::Stop;
                        }
                    }
                }
                match interrupt_after_epochs {
                    Some(n) if epochs_this_run >= n => TrainControl::Stop,
                    _ => TrainControl::Continue,
                }
            },
        );
        if let Some(e) = save_error {
            return Err(e);
        }

        let model = outcome.completed.then(|| IlModel::new(mlp, standardizer));
        Ok(CheckpointedTrainOutcome {
            model,
            report: outcome.report,
            completed: outcome.completed,
            resumed_from_seq,
            corrupt_skipped,
            snapshots_written,
            discarded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Scenario;
    use crate::training::TrainSettings;
    use nn::TrainConfig;

    fn tiny_settings() -> TrainSettings {
        TrainSettings {
            nn: TrainConfig {
                max_epochs: 8,
                ..TrainConfig::default()
            },
            hidden_layers: 1,
            width: 8,
            ..TrainSettings::default()
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("topil-ckpt-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cases() -> Vec<OracleCase> {
        let trainer = IlTrainer::new(tiny_settings());
        trainer.collect_cases(&Scenario::standard_set(2, 4))
    }

    #[test]
    fn buffer_and_checkpoint_round_trip() {
        let cases = cases();
        let mut buffer = AggregationBuffer::new();
        buffer.push_round(cases[..cases.len() / 2].to_vec());
        buffer.push_round(cases[cases.len() / 2..].to_vec());
        assert_eq!(buffer.rounds(), 2);
        assert_eq!(buffer.total_cases(), cases.len());
        assert_eq!(buffer.flattened(), cases);

        let (dataset, standardizer) = IlTrainer::build_dataset(&cases);
        let mut mlp = Mlp::new(
            &[FEATURE_COUNT, 8, hmc_types::NUM_CORES],
            &mut StdRng::seed_from_u64(0),
        );
        let mut captured = None;
        nn::train_resumable(
            &mut mlp,
            &dataset,
            &tiny_settings().nn,
            &mut StdRng::seed_from_u64(3),
            None,
            &mut |s| {
                captured = Some(s.clone());
                TrainControl::Stop
            },
        );
        let ckpt = IlTrainCheckpoint {
            buffer,
            standardizer,
            state: captured.unwrap(),
        };
        let decoded = IlTrainCheckpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded, ckpt);
        assert!(IlTrainCheckpoint::decode(&ckpt.encode()[..10]).is_err());
    }

    /// The checkpointed run is `train_from_cases` with snapshots: equal bit
    /// for bit, uninterrupted or resumed after the first, the fifth or the
    /// last epoch (here an early-stopping one).
    #[test]
    fn checkpointed_training_equals_train_from_cases() {
        let settings = TrainSettings {
            nn: TrainConfig {
                max_epochs: 200,
                patience: 1,
                ..TrainConfig::default()
            },
            ..tiny_settings()
        };
        let trainer = IlTrainer::new(settings);
        let cases = cases();
        let expected = trainer.train_from_cases(&cases, 4);

        let dir = tmp_dir("plain-eq");
        let plain = trainer
            .train_checkpointed(&cases, 4, &dir, &CkptConfig::default(), None, None)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(plain.completed);
        assert_eq!(plain.snapshots_written, plain.report.epochs);
        assert_eq!(plain.model.as_ref(), Some(&expected));
        let last = plain.report.epochs;
        assert!(last > 5 && last < 200, "patience must stop the run: {last}");

        for stop_after in [1, 5, last] {
            let dir = tmp_dir(&format!("resume-eq-{stop_after}"));
            let first = trainer
                .train_checkpointed(
                    &cases,
                    4,
                    &dir,
                    &CkptConfig::default(),
                    Some(stop_after),
                    None,
                )
                .unwrap();
            assert!(!first.completed, "stop_after={stop_after}");
            assert!(first.model.is_none());
            let resumed = trainer
                .train_checkpointed(&cases, 4, &dir, &CkptConfig::default(), None, None)
                .unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(resumed.resumed_from_seq, Some(stop_after as u64 - 1));
            assert_eq!(
                resumed.model.as_ref(),
                Some(&expected),
                "stop_after={stop_after}"
            );
            assert_eq!(resumed.report, plain.report, "stop_after={stop_after}");
        }
    }

    /// A snapshot under the retired `il-train` kind is never resumed: the
    /// run starts fresh and ends where a fresh run does.
    #[test]
    fn retired_kind_snapshot_trains_from_scratch() {
        let cases = cases();
        let trainer = IlTrainer::new(tiny_settings());
        let dir = tmp_dir("retired");

        // A genuine mid-run training state, filed under the old tag.
        trainer
            .train_checkpointed(&cases, 6, &dir, &CkptConfig::default(), Some(3), None)
            .unwrap();
        let mut current = CheckpointStore::open(&dir, IL_TRAIN_KIND, 3).unwrap();
        let snapshot = current.load_latest().unwrap().snapshot.unwrap();
        for path in current.snapshot_paths().unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        let mut retired = CheckpointStore::open(&dir, "il-train", 3).unwrap();
        retired
            .save(&snapshot.payload, snapshot.rng_fingerprint)
            .unwrap();

        let outcome = trainer
            .train_checkpointed(&cases, 6, &dir, &CkptConfig::default(), None, None)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(outcome.completed);
        assert_eq!(outcome.resumed_from_seq, None);
        assert_eq!(outcome.corrupt_skipped, 0);
        assert_eq!(outcome.discarded, None);
        assert_eq!(
            outcome.snapshots_written, outcome.report.epochs,
            "every epoch ran in this invocation"
        );
        assert_eq!(outcome.model, Some(trainer.train_from_cases(&cases, 6)));
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_and_still_matches() {
        let cases = cases();
        let trainer = IlTrainer::new(tiny_settings());

        let ref_dir = tmp_dir("cref");
        let reference = trainer
            .train_checkpointed(&cases, 5, &ref_dir, &CkptConfig::default(), None, None)
            .unwrap();

        let dir = tmp_dir("corrupt");
        trainer
            .train_checkpointed(&cases, 5, &dir, &CkptConfig::default(), Some(4), None)
            .unwrap();
        // Flip one byte in the middle of the newest snapshot.
        let store = CheckpointStore::open(&dir, IL_TRAIN_KIND, 3).unwrap();
        let newest = store.snapshot_paths().unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();

        let resumed = trainer
            .train_checkpointed(&cases, 5, &dir, &CkptConfig::default(), None, None)
            .unwrap();
        assert_eq!(resumed.corrupt_skipped, 1);
        assert_eq!(resumed.resumed_from_seq, Some(2));
        assert_eq!(resumed.model, reference.model);

        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let cases = cases();
        let trainer = IlTrainer::new(tiny_settings());
        let dir = tmp_dir("fp");

        trainer
            .train_checkpointed(&cases, 2, &dir, &CkptConfig::default(), Some(2), None)
            .unwrap();
        // Re-stamp the snapshot under a bogus fingerprint.
        let mut store = CheckpointStore::open(&dir, IL_TRAIN_KIND, 3).unwrap();
        let rec = store.load_latest().unwrap();
        let snap = rec.snapshot.unwrap();
        store.save(&snap.payload, snap.rng_fingerprint ^ 1).unwrap();

        let outcome = trainer
            .train_checkpointed(&cases, 2, &dir, &CkptConfig::default(), None, None)
            .unwrap();
        assert!(outcome.resumed_from_seq.is_none());
        assert!(outcome
            .discarded
            .as_deref()
            .unwrap()
            .contains("fingerprint"));
        assert!(outcome.completed);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_events_flow_through_trace() {
        let cases = cases();
        let trainer = IlTrainer::new(tiny_settings());
        let dir = tmp_dir("trace");

        let mut rec = trace::TraceConfig::full().recorder().unwrap();
        trainer
            .train_checkpointed(
                &cases,
                1,
                &dir,
                &CkptConfig::default(),
                Some(2),
                Some(&mut rec),
            )
            .unwrap();
        let mut rec2 = trace::TraceConfig::full().recorder().unwrap();
        trainer
            .train_checkpointed(
                &cases,
                1,
                &dir,
                &CkptConfig::default(),
                None,
                Some(&mut rec2),
            )
            .unwrap();
        let log = rec2.finish();
        let kinds: Vec<_> = log.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&trace::EventKind::CheckpointRestored));
        assert!(kinds.contains(&trace::EventKind::CheckpointSaved));

        std::fs::remove_dir_all(&dir).ok();
    }
}
