//! Crash-safe, resumable robustness sweeps.
//!
//! A full fault-rate sweep at [`Effort::Full`] runs fourteen long
//! simulations; losing the whole grid to a crash on point thirteen is the
//! failure mode this module removes. [`run_sweep`] persists a
//! [`SweepManifest`] — the grid, the per-point status and the trace hash of
//! every finished point — into a [`CheckpointStore`] after each completed
//! point. An interrupted sweep resumes from the newest valid manifest,
//! re-runs only the pending points, and produces a CSV and per-point trace
//! hashes identical to an uninterrupted run with the same seed: every point
//! is driven by its own explicit workload seed, never by where a shared RNG
//! happened to be.
//!
//! Failed points are retried with capped exponential backoff
//! ([`backoff_delay_ms`]); a point that keeps failing is quarantined in the
//! manifest rather than wedging the sweep, so one pathological
//! configuration cannot stall the remaining grid.

use std::path::Path;
use std::time::Duration;

use checkpoint::{CheckpointStore, CodecError, Decoder, Encoder};
use hmc_types::SimTime;
use rand::RngCore;
use topil::training::IlModel;
use trace::{CheckpointScope, TraceEvent, TraceRecorder};

use crate::error::BenchError;
use crate::harness::Effort;
use crate::robustness::{run_point_traced, sweep_grid, RobustnessPoint};

/// Checkpoint kind tag for sweep manifests.
pub const SWEEP_KIND: &str = "sweep-manifest";

/// Upper bound on decoded grid sizes (decode-before-allocate guard).
const MAX_POINTS: usize = 1 << 16;

/// One configuration of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Per-job NPU failure probability.
    pub npu_failure_rate: f64,
    /// Per-sample thermal-sensor dropout probability.
    pub sensor_dropout_rate: f64,
    /// Whether the degradation ladder is enabled.
    pub ladder: bool,
}

/// Progress of one grid point inside the manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum PointStatus {
    /// Not yet attempted (or interrupted before completion).
    Pending,
    /// Finished; the result and its certifying trace hash are recorded.
    Done {
        /// The measured point.
        point: RobustnessPoint,
        /// Hash of the simulation's event trace.
        trace_hash: u64,
        /// Attempts consumed (1 when the first try succeeded).
        attempts: u32,
    },
    /// Exhausted every retry; skipped so the rest of the grid can finish.
    Quarantined {
        /// Attempts consumed before giving up.
        attempts: u32,
        /// The final attempt's error.
        last_error: String,
    },
}

impl PointStatus {
    fn tag(&self) -> u8 {
        match self {
            PointStatus::Pending => 0,
            PointStatus::Done { .. } => 1,
            PointStatus::Quarantined { .. } => 2,
        }
    }
}

/// The persisted sweep state: identity of the run plus per-point progress.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Workload seed every point derives from.
    pub workload_seed: u64,
    /// Whether the sweep ran at [`Effort::Full`].
    pub effort_full: bool,
    /// Fingerprint of the model the sweep evaluates — a resume under a
    /// different model would silently mix incomparable measurements.
    pub model_fingerprint: u64,
    /// The grid, in execution order.
    pub points: Vec<GridPoint>,
    /// Status of each grid point (same indexing as `points`).
    pub status: Vec<PointStatus>,
}

impl SweepManifest {
    /// Indices still pending, in execution order.
    pub fn pending(&self) -> Vec<usize> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, PointStatus::Pending))
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of quarantined points.
    pub fn quarantined(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, PointStatus::Quarantined { .. }))
            .count()
    }

    /// Serializes into a checkpoint payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.workload_seed);
        enc.put_bool(self.effort_full);
        enc.put_u64(self.model_fingerprint);
        enc.put_usize(self.points.len());
        for p in &self.points {
            enc.put_f64(p.npu_failure_rate);
            enc.put_f64(p.sensor_dropout_rate);
            enc.put_bool(p.ladder);
        }
        enc.put_usize(self.status.len());
        for s in &self.status {
            enc.put_u8(s.tag());
            match s {
                PointStatus::Pending => {}
                PointStatus::Done {
                    point,
                    trace_hash,
                    attempts,
                } => {
                    encode_point(&mut enc, point);
                    enc.put_u64(*trace_hash);
                    enc.put_u32(*attempts);
                }
                PointStatus::Quarantined {
                    attempts,
                    last_error,
                } => {
                    enc.put_u32(*attempts);
                    enc.put_str(last_error);
                }
            }
        }
        enc.finish()
    }

    /// Deserializes a payload produced by [`SweepManifest::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency; never panics.
    pub fn decode(payload: &[u8]) -> Result<SweepManifest, String> {
        let err = |e: CodecError| e.to_string();
        let mut dec = Decoder::new(payload);
        let workload_seed = dec.get_u64().map_err(err)?;
        let effort_full = dec.get_bool().map_err(err)?;
        let model_fingerprint = dec.get_u64().map_err(err)?;
        let n = dec.get_usize().map_err(err)?;
        if n > MAX_POINTS {
            return Err(format!("grid of {n} points exceeds limit {MAX_POINTS}"));
        }
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(GridPoint {
                npu_failure_rate: dec.get_f64().map_err(err)?,
                sensor_dropout_rate: dec.get_f64().map_err(err)?,
                ladder: dec.get_bool().map_err(err)?,
            });
        }
        let m = dec.get_usize().map_err(err)?;
        if m != n {
            return Err(format!("{m} status entries for {n} grid points"));
        }
        let mut status = Vec::with_capacity(m);
        for _ in 0..m {
            status.push(match dec.get_u8().map_err(err)? {
                0 => PointStatus::Pending,
                1 => {
                    let point = decode_point(&mut dec).map_err(err)?;
                    let trace_hash = dec.get_u64().map_err(err)?;
                    let attempts = dec.get_u32().map_err(err)?;
                    PointStatus::Done {
                        point,
                        trace_hash,
                        attempts,
                    }
                }
                2 => PointStatus::Quarantined {
                    attempts: dec.get_u32().map_err(err)?,
                    last_error: dec.get_str().map_err(err)?.to_string(),
                },
                t => return Err(format!("unknown point status tag {t}")),
            });
        }
        dec.expect_end().map_err(err)?;
        Ok(SweepManifest {
            workload_seed,
            effort_full,
            model_fingerprint,
            points,
            status,
        })
    }
}

fn encode_point(enc: &mut Encoder, p: &RobustnessPoint) {
    enc.put_f64(p.npu_failure_rate);
    enc.put_f64(p.sensor_dropout_rate);
    enc.put_bool(p.ladder);
    enc.put_f64(p.avg_temp_c);
    enc.put_f64(p.peak_temp_c);
    enc.put_usize(p.violations);
    enc.put_usize(p.executions);
    enc.put_u64(p.degraded_epochs);
    enc.put_u64(p.cpu_fallback_epochs);
    enc.put_u64(p.npu_failures);
    enc.put_u64(p.breaker_opens);
    enc.put_u64(p.failsafe_events);
}

fn decode_point(dec: &mut Decoder<'_>) -> Result<RobustnessPoint, CodecError> {
    Ok(RobustnessPoint {
        npu_failure_rate: dec.get_f64()?,
        sensor_dropout_rate: dec.get_f64()?,
        ladder: dec.get_bool()?,
        avg_temp_c: dec.get_f64()?,
        peak_temp_c: dec.get_f64()?,
        violations: dec.get_usize()?,
        executions: dec.get_usize()?,
        degraded_epochs: dec.get_u64()?,
        cpu_fallback_epochs: dec.get_u64()?,
        npu_failures: dec.get_u64()?,
        breaker_opens: dec.get_u64()?,
        failsafe_events: dec.get_u64()?,
    })
}

/// FNV-64 fingerprint of a model's weights, biases and standardizer — the
/// sweep manifest's identity check against resuming under a different model.
pub fn model_fingerprint(model: &IlModel) -> u64 {
    let mut enc = Encoder::new();
    let mlp = model.mlp();
    let sizes = mlp.layer_sizes();
    enc.put_usize(sizes.len());
    for s in &sizes {
        enc.put_usize(*s);
    }
    for i in 0..sizes.len().saturating_sub(1) {
        enc.put_f32s(mlp.weights(i).as_slice());
        enc.put_f32s(mlp.biases(i));
    }
    enc.put_f32s(model.standardizer().mean());
    enc.put_f32s(model.standardizer().std());
    checkpoint::fnv64(&enc.finish())
}

/// The default sweep grid: every fault combination of
/// [`sweep_grid`], ladder on and off.
pub fn default_grid() -> Vec<GridPoint> {
    let mut grid = Vec::new();
    for (npu, dropout) in sweep_grid() {
        for ladder in [true, false] {
            grid.push(GridPoint {
                npu_failure_rate: npu,
                sensor_dropout_rate: dropout,
                ladder,
            });
        }
    }
    grid
}

/// Settings of [`run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Effort level each point runs at.
    pub effort: Effort,
    /// Workload seed every point derives from.
    pub workload_seed: u64,
    /// Manifest snapshots kept on disk.
    pub retain: usize,
    /// Attempts per point before quarantine.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Grid override; `None` runs [`default_grid`].
    pub grid: Option<Vec<GridPoint>>,
    /// Thread budget: pending points run in waves of this many parallel
    /// simulations. Each point's workload seed derives from its grid
    /// index and results are committed to the manifest in grid order, so
    /// the manifest, snapshots and CSV are byte-identical at every
    /// budget. Not part of the manifest identity — a sweep interrupted
    /// under one budget resumes cleanly under another.
    pub budget: par::Budget,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            effort: Effort::Quick,
            workload_seed: 17,
            retain: 3,
            max_attempts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 4_000,
            grid: None,
            budget: par::Budget::serial(),
        }
    }
}

/// Test seams of the supervisor: simulated crashes and injected attempt
/// failures, so the retry/backoff/quarantine paths are exercised without
/// multi-minute simulations or real fault hardware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepHooks {
    /// Simulate a crash after this many points completed in this
    /// invocation (the process would normally exit here).
    pub crash_after_points: Option<usize>,
    /// `(point_index, failing_attempts)`: the first `failing_attempts`
    /// tries of grid point `point_index` fail before reaching the
    /// simulator.
    pub fail_attempts: Vec<(usize, u32)>,
}

impl SweepHooks {
    fn injected_failures(&self, index: usize) -> u32 {
        self.fail_attempts
            .iter()
            .find(|(i, _)| *i == index)
            .map_or(0, |(_, n)| *n)
    }
}

/// Outcome of a (possibly resumed) sweep run.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The manifest after this invocation.
    pub manifest: SweepManifest,
    /// `false` when interrupted with points still pending.
    pub completed: bool,
    /// Points brought to a terminal status by this invocation.
    pub points_run: usize,
    /// Sequence number of the manifest snapshot the run resumed from.
    pub resumed_from_seq: Option<u64>,
    /// Corrupt snapshots skipped (and quarantined) during recovery.
    pub corrupt_skipped: usize,
    /// Manifest snapshots written by this invocation.
    pub snapshots_written: usize,
    /// Why a structurally valid newest snapshot was discarded.
    pub discarded: Option<String>,
}

/// Delay before retry number `attempt` (1-based): capped exponential,
/// `min(cap, base · 2^(attempt-1))`.
pub fn backoff_delay_ms(attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let shift = (attempt.saturating_sub(1)).min(63);
    base_ms.saturating_mul(1u64 << shift).min(cap_ms)
}

/// Runs (or resumes) a robustness sweep, snapshotting the manifest into
/// `dir` after every completed point.
///
/// # Errors
///
/// Returns [`BenchError`] when the checkpoint store cannot be opened or a
/// manifest snapshot cannot be written. Corrupt snapshots on disk are
/// skipped, quarantined and counted; a manifest for a different grid,
/// seed, effort or model is discarded (recorded in the outcome) and the
/// sweep starts fresh. Neither is an error and nothing panics.
pub fn run_sweep(
    model: &IlModel,
    config: &SweepConfig,
    dir: &Path,
    hooks: &SweepHooks,
    mut recorder: Option<&mut TraceRecorder>,
) -> Result<SweepOutcome, BenchError> {
    let mut store = CheckpointStore::open(dir, SWEEP_KIND, config.retain)?;
    let recovery = store.load_latest()?;
    let corrupt_skipped = recovery.skipped.len();
    let fingerprint = nn::rng_stream_fingerprint();

    let grid = config.grid.clone().unwrap_or_else(default_grid);
    let model_fp = model_fingerprint(model);
    let fresh = || SweepManifest {
        workload_seed: config.workload_seed,
        effort_full: config.effort == Effort::Full,
        model_fingerprint: model_fp,
        points: grid.clone(),
        status: vec![PointStatus::Pending; grid.len()],
    };

    let mut manifest = fresh();
    let mut resumed_from_seq = None;
    let mut discarded = None;
    if let Some(snapshot) = recovery.snapshot {
        if snapshot.rng_fingerprint != fingerprint {
            discarded = Some(format!(
                "RNG stream fingerprint mismatch: snapshot {:016x}, this build {:016x}",
                snapshot.rng_fingerprint, fingerprint
            ));
        } else {
            match SweepManifest::decode(&snapshot.payload) {
                Ok(m) => {
                    if m.points != grid {
                        discarded = Some("manifest grid differs from configured grid".into());
                    } else if m.workload_seed != config.workload_seed {
                        discarded = Some(format!(
                            "manifest workload seed {} differs from configured {}",
                            m.workload_seed, config.workload_seed
                        ));
                    } else if m.effort_full != (config.effort == Effort::Full) {
                        discarded = Some("manifest effort level differs from configured".into());
                    } else if m.model_fingerprint != model_fp {
                        discarded = Some(format!(
                            "manifest model fingerprint {:016x} differs from this model's {:016x}",
                            m.model_fingerprint, model_fp
                        ));
                    } else {
                        resumed_from_seq = Some(snapshot.seq);
                        if let Some(rec) = recorder.as_deref_mut() {
                            rec.record(TraceEvent::CheckpointRestored {
                                at: SimTime::ZERO,
                                scope: CheckpointScope::Sweep,
                                seq: snapshot.seq,
                                skipped: corrupt_skipped as u32,
                            });
                        }
                        manifest = m;
                    }
                }
                Err(e) => discarded = Some(format!("snapshot payload rejected: {e}")),
            }
        }
    }

    let mut points_run = 0usize;
    let mut snapshots_written = 0usize;
    let mut completed = true;
    // Pending points run in waves of `effective_threads` parallel
    // simulations. Every point's seed derives from its grid index and the
    // wave's results are committed (and snapshotted) strictly in grid
    // order, so the manifest history is identical to a serial run; the
    // budget changes wall-clock only. A simulated crash discards the
    // uncommitted tail of the wave — exactly the state a serial crash at
    // the same commit count leaves behind.
    let wave = config.budget.effective_threads().max(1);
    let pending = manifest.pending();
    'waves: for chunk in pending.chunks(wave) {
        if hooks.crash_after_points.is_some_and(|n| points_run >= n) {
            completed = false;
            break;
        }
        let statuses = par::par_map(&config.budget, chunk, |_, &index| {
            run_point_supervised(model, config, hooks, manifest.points[index], index)
        });
        for (&index, status) in chunk.iter().zip(statuses) {
            if hooks.crash_after_points.is_some_and(|n| points_run >= n) {
                completed = false;
                break 'waves;
            }
            manifest.status[index] = status;
            points_run += 1;

            let saved = store.save(&manifest.encode(), fingerprint)?;
            snapshots_written += 1;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(TraceEvent::CheckpointSaved {
                    at: SimTime::from_nanos(index as u64 + 1),
                    scope: CheckpointScope::Sweep,
                    seq: saved.seq,
                    bytes: saved.bytes,
                });
            }
        }
    }
    if completed && hooks.crash_after_points.is_some_and(|n| points_run >= n) {
        // The simulated crash landed exactly on the last pending point.
        completed = manifest.pending().is_empty();
    }

    Ok(SweepOutcome {
        manifest,
        completed,
        points_run,
        resumed_from_seq,
        corrupt_skipped,
        snapshots_written,
        discarded,
    })
}

/// Stream tag for per-point workload seeds.
const WORKLOAD_POINT_STREAM: u64 = 0x5EE9_0B05_7C11_D300;

/// Brings one grid point to a terminal status: derives its workload seed
/// from the grid index, applies the hook-injected attempt failures, and
/// retries with capped exponential backoff until done or quarantined.
/// Pure per-point (no shared state), so waves of points can run in
/// parallel and produce the exact statuses a serial loop produces.
fn run_point_supervised(
    model: &IlModel,
    config: &SweepConfig,
    hooks: &SweepHooks,
    gp: GridPoint,
    index: usize,
) -> PointStatus {
    // Each point gets its own derived workload seed so resumed runs
    // reproduce interrupted ones regardless of execution order.
    let seed =
        sim_core::derive_rng(config.workload_seed, WORKLOAD_POINT_STREAM, index as u64).next_u64();
    let injected = hooks.injected_failures(index);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        if attempts <= injected {
            let last_error = format!("injected failure on attempt {attempts}");
            if attempts >= config.max_attempts {
                return PointStatus::Quarantined {
                    attempts,
                    last_error,
                };
            }
            let delay = backoff_delay_ms(attempts, config.backoff_base_ms, config.backoff_cap_ms);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            continue;
        }
        let (point, hash) = run_point_traced(
            model.clone(),
            gp.npu_failure_rate,
            gp.sensor_dropout_rate,
            gp.ladder,
            config.effort,
            seed,
            trace::TraceConfig::full(),
        );
        return PointStatus::Done {
            point,
            trace_hash: hash.map_or(0, |h| h.value()),
            attempts,
        };
    }
}

/// Renders the manifest as CSV: the robustness columns plus per-point
/// status, attempts and certifying trace hash.
pub fn sweep_csv(manifest: &SweepManifest) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "npu_failure_rate,sensor_dropout_rate,ladder,status,avg_temp_c,peak_temp_c,\
         violations,executions,degraded_epochs,cpu_fallback_epochs,npu_failures,\
         breaker_opens,failsafe_events,attempts,trace_hash\n",
    );
    for (gp, status) in manifest.points.iter().zip(&manifest.status) {
        match status {
            PointStatus::Pending => {
                let _ = writeln!(
                    out,
                    "{},{},{},pending,,,,,,,,,,,",
                    gp.npu_failure_rate, gp.sensor_dropout_rate, gp.ladder
                );
            }
            PointStatus::Done {
                point,
                trace_hash,
                attempts,
            } => {
                let _ = writeln!(
                    out,
                    "{},{},{},done,{:.3},{:.3},{},{},{},{},{},{},{},{},{:016x}",
                    gp.npu_failure_rate,
                    gp.sensor_dropout_rate,
                    gp.ladder,
                    point.avg_temp_c,
                    point.peak_temp_c,
                    point.violations,
                    point.executions,
                    point.degraded_epochs,
                    point.cpu_fallback_epochs,
                    point.npu_failures,
                    point.breaker_opens,
                    point.failsafe_events,
                    attempts,
                    trace_hash
                );
            }
            PointStatus::Quarantined { attempts, .. } => {
                let _ = writeln!(
                    out,
                    "{},{},{},quarantined,,,,,,,,,,{},",
                    gp.npu_failure_rate, gp.sensor_dropout_rate, gp.ladder, attempts
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::TrainConfig;
    use topil::oracle::Scenario;
    use topil::training::{IlTrainer, TrainSettings};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-sweep-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn quick_model() -> IlModel {
        let settings = TrainSettings {
            nn: TrainConfig {
                max_epochs: 40,
                patience: 10,
                ..TrainConfig::default()
            },
            ..TrainSettings::default()
        };
        IlTrainer::new(settings).train(&Scenario::standard_set(6, 33), 0)
    }

    fn tiny_grid() -> Vec<GridPoint> {
        vec![
            GridPoint {
                npu_failure_rate: 0.0,
                sensor_dropout_rate: 0.0,
                ladder: true,
            },
            GridPoint {
                npu_failure_rate: 0.5,
                sensor_dropout_rate: 0.0,
                ladder: true,
            },
        ]
    }

    fn tiny_config(grid: Vec<GridPoint>) -> SweepConfig {
        SweepConfig {
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            grid: Some(grid),
            ..SweepConfig::default()
        }
    }

    #[test]
    fn manifest_round_trips_and_rejects_truncation() {
        let manifest = SweepManifest {
            workload_seed: 99,
            effort_full: false,
            model_fingerprint: 0xDEAD_BEEF,
            points: tiny_grid(),
            status: vec![
                PointStatus::Done {
                    point: RobustnessPoint {
                        npu_failure_rate: 0.0,
                        sensor_dropout_rate: 0.0,
                        ladder: true,
                        avg_temp_c: 31.5,
                        peak_temp_c: 44.0,
                        violations: 1,
                        executions: 12,
                        degraded_epochs: 0,
                        cpu_fallback_epochs: 3,
                        npu_failures: 7,
                        breaker_opens: 1,
                        failsafe_events: 0,
                    },
                    trace_hash: 0x1234,
                    attempts: 2,
                },
                PointStatus::Quarantined {
                    attempts: 3,
                    last_error: "boom".into(),
                },
            ],
        };
        let bytes = manifest.encode();
        assert_eq!(SweepManifest::decode(&bytes).unwrap(), manifest);
        for len in [0, 1, 9, bytes.len() - 1] {
            assert!(SweepManifest::decode(&bytes[..len]).is_err(), "len={len}");
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        assert_eq!(backoff_delay_ms(1, 250, 4_000), 250);
        assert_eq!(backoff_delay_ms(2, 250, 4_000), 500);
        assert_eq!(backoff_delay_ms(3, 250, 4_000), 1_000);
        assert_eq!(backoff_delay_ms(6, 250, 4_000), 4_000);
        assert_eq!(backoff_delay_ms(u32::MAX, 250, 4_000), 4_000);
    }

    #[test]
    fn repeated_failures_quarantine_without_stalling() {
        let dir = tmp_dir("quarantine");
        let model = quick_model();
        let grid = vec![tiny_grid()[0]];
        let config = tiny_config(grid);
        let hooks = SweepHooks {
            fail_attempts: vec![(0, 99)],
            ..SweepHooks::default()
        };
        let outcome = run_sweep(&model, &config, &dir, &hooks, None).unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.manifest.quarantined(), 1);
        match &outcome.manifest.status[0] {
            PointStatus::Quarantined {
                attempts,
                last_error,
            } => {
                assert_eq!(*attempts, config.max_attempts);
                assert!(last_error.contains("injected"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(outcome.snapshots_written, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_failures_retry_and_succeed() {
        let dir = tmp_dir("retry");
        let model = quick_model();
        let config = tiny_config(vec![tiny_grid()[0]]);
        let hooks = SweepHooks {
            fail_attempts: vec![(0, 1)],
            ..SweepHooks::default()
        };
        let outcome = run_sweep(&model, &config, &dir, &hooks, None).unwrap();
        match &outcome.manifest.status[0] {
            PointStatus::Done { attempts, .. } => assert_eq!(*attempts, 2),
            other => panic!("expected done after retry, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_identity_discards_manifest() {
        let dir = tmp_dir("identity");
        let model = quick_model();
        // Quarantine instantly: no simulation runs, but a snapshot lands.
        let config = SweepConfig {
            max_attempts: 1,
            ..tiny_config(vec![tiny_grid()[0]])
        };
        let hooks = SweepHooks {
            fail_attempts: vec![(0, 99)],
            ..SweepHooks::default()
        };
        run_sweep(&model, &config, &dir, &hooks, None).unwrap();

        let reseeded = SweepConfig {
            workload_seed: config.workload_seed + 1,
            ..config.clone()
        };
        // Crash before the first point so the fresh (mismatched) manifest is
        // never snapshotted over the original.
        let crash = SweepHooks {
            crash_after_points: Some(0),
            ..hooks.clone()
        };
        let outcome = run_sweep(&model, &reseeded, &dir, &crash, None).unwrap();
        assert!(outcome.resumed_from_seq.is_none());
        assert!(outcome.discarded.as_deref().unwrap().contains("seed"));
        assert_eq!(outcome.snapshots_written, 0);

        // Matching identity resumes; every point is terminal so nothing runs.
        let outcome = run_sweep(&model, &config, &dir, &hooks, None).unwrap();
        assert!(outcome.resumed_from_seq.is_some());
        assert!(outcome.completed);
        assert_eq!(outcome.points_run, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_resumed_sweep_matches_uninterrupted() {
        let model = quick_model();
        let grid = tiny_grid();
        let config = tiny_config(grid);

        let ref_dir = tmp_dir("ref");
        let reference = run_sweep(&model, &config, &ref_dir, &SweepHooks::default(), None).unwrap();
        assert!(reference.completed);
        assert_eq!(reference.points_run, 2);

        let dir = tmp_dir("resume");
        let crash = SweepHooks {
            crash_after_points: Some(1),
            ..SweepHooks::default()
        };
        let first = run_sweep(&model, &config, &dir, &crash, None).unwrap();
        assert!(!first.completed);
        assert_eq!(first.points_run, 1);

        let mut rec = trace::TraceConfig::full().recorder().unwrap();
        let second = run_sweep(
            &model,
            &config,
            &dir,
            &SweepHooks::default(),
            Some(&mut rec),
        )
        .unwrap();
        assert!(second.completed);
        assert_eq!(second.points_run, 1);
        assert_eq!(second.resumed_from_seq, Some(0));
        assert_eq!(second.manifest, reference.manifest);
        assert_eq!(sweep_csv(&second.manifest), sweep_csv(&reference.manifest));
        let log = rec.finish();
        assert!(log
            .events
            .iter()
            .any(|e| e.kind() == trace::EventKind::CheckpointRestored));

        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_manifest_falls_back() {
        let model = quick_model();
        let config = tiny_config(tiny_grid());
        let dir = tmp_dir("corrupt");
        let full = run_sweep(&model, &config, &dir, &SweepHooks::default(), None).unwrap();
        assert_eq!(full.snapshots_written, 2);

        let store = CheckpointStore::open(&dir, SWEEP_KIND, 3).unwrap();
        let newest = store.snapshot_paths().unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&newest, &bytes).unwrap();

        let resumed = run_sweep(&model, &config, &dir, &SweepHooks::default(), None).unwrap();
        assert_eq!(resumed.corrupt_skipped, 1);
        assert_eq!(resumed.resumed_from_seq, Some(0));
        // The fallback manifest had one point done; the second re-runs and
        // converges to the reference result.
        assert_eq!(resumed.points_run, 1);
        assert_eq!(resumed.manifest, full.manifest);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_covers_every_status() {
        let manifest = SweepManifest {
            workload_seed: 1,
            effort_full: false,
            model_fingerprint: 2,
            points: vec![tiny_grid()[0], tiny_grid()[1], tiny_grid()[0]],
            status: vec![
                PointStatus::Pending,
                PointStatus::Done {
                    point: RobustnessPoint {
                        npu_failure_rate: 0.5,
                        sensor_dropout_rate: 0.0,
                        ladder: true,
                        avg_temp_c: 30.0,
                        peak_temp_c: 40.0,
                        violations: 0,
                        executions: 12,
                        degraded_epochs: 0,
                        cpu_fallback_epochs: 0,
                        npu_failures: 0,
                        breaker_opens: 0,
                        failsafe_events: 0,
                    },
                    trace_hash: 0xAB,
                    attempts: 1,
                },
                PointStatus::Quarantined {
                    attempts: 3,
                    last_error: "x".into(),
                },
            ],
        };
        let csv = sweep_csv(&manifest);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("npu_failure_rate,"));
        assert!(lines[1].contains(",pending,"));
        assert!(lines[2].contains(",done,"));
        assert!(lines[2].ends_with("00000000000000ab"));
        assert!(lines[3].contains(",quarantined,"));
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "row: {line}");
        }
    }
}
