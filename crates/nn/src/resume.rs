//! The carried state of a resumable training run and its codec.
//!
//! [`train_resumable`](crate::train_resumable) keeps everything it carries
//! from one epoch to the next (weights, Adam moments, best-so-far
//! snapshot, loss history, epoch cursor) in one [`TrainState`], which
//! round-trips through the `checkpoint` codec. Its per-epoch hook borrows
//! that state, which is where periodic snapshots are written and where an
//! interruption ([`TrainControl::Stop`]) is injected. A resumed run draws
//! the split again from the caller's RNG and replays the completed epochs'
//! shuffles, so it continues bit for bit where the interrupted run left
//! off.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use checkpoint::{fnv64, CodecError, Decoder, Encoder};

use crate::{Adam, Matrix, Mlp, TrainReport};

/// Fingerprint of the ambient RNG stream: an FNV-64 over the first eight
/// draws of `StdRng::seed_from_u64(0x51D)`. Stamped into checkpoints so a
/// snapshot written under one RNG implementation is never resumed under
/// another (which would silently break replay determinism).
pub fn rng_stream_fingerprint() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x51D);
    let mut bytes = Vec::with_capacity(64);
    for _ in 0..8 {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    fnv64(&bytes)
}

/// Errors decoding a serialized [`TrainState`].
#[derive(Debug)]
pub enum StateDecodeError {
    /// The byte stream itself was malformed.
    Codec(CodecError),
    /// The bytes decoded but describe an inconsistent state.
    Invalid(String),
}

impl std::fmt::Display for StateDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDecodeError::Codec(e) => write!(f, "malformed train state: {e}"),
            StateDecodeError::Invalid(detail) => write!(f, "inconsistent train state: {detail}"),
        }
    }
}

impl std::error::Error for StateDecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateDecodeError::Codec(e) => Some(e),
            StateDecodeError::Invalid(_) => None,
        }
    }
}

impl From<CodecError> for StateDecodeError {
    fn from(e: CodecError) -> Self {
        StateDecodeError::Codec(e)
    }
}

/// Everything [`train_resumable`](crate::train_resumable) carries from one
/// epoch to the next.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// The epoch the resumed loop will run next.
    pub next_epoch: usize,
    /// Current network weights.
    pub mlp: Mlp,
    /// Optimizer moments and step count.
    pub adam: Adam,
    /// Weights of the best validation epoch so far.
    pub best: Mlp,
    /// Best validation loss so far.
    pub best_val_loss: f32,
    /// Epochs since the best validation loss improved.
    pub epochs_since_best: usize,
    /// Training loss per completed epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per completed epoch.
    pub val_losses: Vec<f32>,
}

fn encode_matrix(enc: &mut Encoder, m: &Matrix) {
    enc.put_usize(m.rows());
    enc.put_usize(m.cols());
    enc.put_f32s(m.as_slice());
}

fn decode_matrix(dec: &mut Decoder<'_>) -> Result<Matrix, StateDecodeError> {
    let rows = dec.get_usize()?;
    let cols = dec.get_usize()?;
    let data = dec.get_f32s()?;
    let expected = rows
        .checked_mul(cols)
        .ok_or_else(|| StateDecodeError::Invalid(format!("matrix {rows}x{cols} overflows")))?;
    if data.len() != expected {
        return Err(StateDecodeError::Invalid(format!(
            "matrix {rows}x{cols} carries {} values",
            data.len()
        )));
    }
    Ok(Matrix::from_flat(rows, cols, data))
}

fn encode_mlp(enc: &mut Encoder, mlp: &Mlp) {
    enc.put_usize(mlp.layer_count());
    for i in 0..mlp.layer_count() {
        encode_matrix(enc, mlp.weights(i));
        enc.put_f32s(mlp.biases(i));
    }
}

fn decode_mlp(dec: &mut Decoder<'_>) -> Result<Mlp, StateDecodeError> {
    let layers = dec.get_usize()?;
    if layers == 0 || layers > crate::persist::MAX_LAYERS {
        return Err(StateDecodeError::Invalid(format!(
            "layer count {layers} out of range"
        )));
    }
    let mut parts = Vec::with_capacity(layers);
    for _ in 0..layers {
        let w = decode_matrix(dec)?;
        let b = dec.get_f32s()?;
        parts.push((w, b));
    }
    Mlp::from_layers(parts).map_err(StateDecodeError::Invalid)
}

impl TrainState {
    /// Serializes the state through the checkpoint codec.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(self.next_epoch);
        encode_mlp(&mut enc, &self.mlp);
        encode_mlp(&mut enc, &self.best);
        enc.put_f32(self.best_val_loss);
        enc.put_usize(self.epochs_since_best);
        enc.put_f32s(&self.train_losses);
        enc.put_f32s(&self.val_losses);
        let (beta1, beta2) = self.adam.betas();
        enc.put_f32(beta1);
        enc.put_f32(beta2);
        enc.put_f32(self.adam.epsilon());
        enc.put_u64(self.adam.steps());
        let (m_w, v_w) = self.adam.weight_moments();
        let (m_b, v_b) = self.adam.bias_moments();
        enc.put_usize(m_w.len());
        for i in 0..m_w.len() {
            encode_matrix(&mut enc, &m_w[i]);
            encode_matrix(&mut enc, &v_w[i]);
            enc.put_f32s(&m_b[i]);
            enc.put_f32s(&v_b[i]);
        }
        enc.finish()
    }

    /// Deserializes a state previously produced by [`TrainState::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`StateDecodeError`] when the bytes are malformed or the
    /// decoded tensors are mutually inconsistent. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<TrainState, StateDecodeError> {
        let mut dec = Decoder::new(bytes);
        let next_epoch = dec.get_usize()?;
        let mlp = decode_mlp(&mut dec)?;
        let best = decode_mlp(&mut dec)?;
        let best_val_loss = dec.get_f32()?;
        let epochs_since_best = dec.get_usize()?;
        let train_losses = dec.get_f32s()?;
        let val_losses = dec.get_f32s()?;
        let beta1 = dec.get_f32()?;
        let beta2 = dec.get_f32()?;
        let eps = dec.get_f32()?;
        let t = dec.get_u64()?;
        let layers = dec.get_usize()?;
        if layers > crate::persist::MAX_LAYERS {
            return Err(StateDecodeError::Invalid(format!(
                "Adam layer count {layers} out of range"
            )));
        }
        let mut m_w = Vec::with_capacity(layers);
        let mut v_w = Vec::with_capacity(layers);
        let mut m_b = Vec::with_capacity(layers);
        let mut v_b = Vec::with_capacity(layers);
        for _ in 0..layers {
            m_w.push(decode_matrix(&mut dec)?);
            v_w.push(decode_matrix(&mut dec)?);
            m_b.push(dec.get_f32s()?);
            v_b.push(dec.get_f32s()?);
        }
        dec.expect_end()?;
        if mlp.layer_sizes() != best.layer_sizes() {
            return Err(StateDecodeError::Invalid(
                "current and best network topologies differ".into(),
            ));
        }
        let adam = Adam::from_state(beta1, beta2, eps, t, m_w, v_w, m_b, v_b)
            .map_err(StateDecodeError::Invalid)?;
        Ok(TrainState {
            next_epoch,
            mlp,
            adam,
            best,
            best_val_loss,
            epochs_since_best,
            train_losses,
            val_losses,
        })
    }
}

/// What the per-epoch hook tells the loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainControl {
    /// Keep training.
    Continue,
    /// Interrupt the run; the state passed to the hook is the resume point.
    Stop,
}

/// Outcome of [`train_resumable`](crate::train_resumable).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// Losses and best-epoch summary over all epochs run so far
    /// (including those before a resume).
    pub report: TrainReport,
    /// `false` when the hook stopped the run before it finished; `mlp`
    /// then still holds the in-progress (not best) weights.
    pub completed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_resumable, Dataset, TrainConfig};

    fn toy_dataset() -> Dataset {
        let rows: Vec<Vec<f32>> = (0..240)
            .map(|i| vec![(i % 13) as f32 / 13.0, (i % 7) as f32 / 7.0])
            .collect();
        let y = Matrix::from_rows(
            rows.iter()
                .map(|r| vec![r[0] + r[1], r[0] - r[1]])
                .collect(),
        );
        Dataset::new(Matrix::from_rows(rows), y)
    }

    fn small_config() -> TrainConfig {
        TrainConfig {
            max_epochs: 12,
            ..TrainConfig::default()
        }
    }

    /// A seeded RNG that has drawn a fresh network's weights, as the
    /// callers of the loop hold it.
    fn seeded(seed: u64) -> (Mlp, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[2, 8, 2], &mut rng);
        (mlp, rng)
    }

    /// Runs the loop from a seed until the hook has seen `stop_after`
    /// epochs, and returns the state it saw then.
    fn interrupted_state(config: &TrainConfig, seed: u64, stop_after: usize) -> TrainState {
        let (mut mlp, mut rng) = seeded(seed);
        let mut saved = None;
        let partial = train_resumable(
            &mut mlp,
            &toy_dataset(),
            config,
            &mut rng,
            None,
            &mut |state| {
                if state.next_epoch >= stop_after {
                    saved = Some(state.clone());
                    TrainControl::Stop
                } else {
                    TrainControl::Continue
                }
            },
        );
        assert!(!partial.completed);
        let state = saved.expect("the hook stopped the run");
        assert_eq!(mlp, state.mlp, "a stopped run leaves the current weights");
        state
    }

    #[test]
    fn uninterrupted_run_equals_train() {
        let data = toy_dataset();
        let (mut plain, mut rng) = seeded(3);
        let report = crate::train(&mut plain, &data, &small_config(), &mut rng);
        let (mut hooked, mut rng) = seeded(3);
        let mut epochs_seen = 0;
        let outcome = train_resumable(
            &mut hooked,
            &data,
            &small_config(),
            &mut rng,
            None,
            &mut |state| {
                epochs_seen += 1;
                assert_eq!(state.next_epoch, epochs_seen);
                TrainControl::Continue
            },
        );
        assert!(outcome.completed);
        assert_eq!(outcome.report, report);
        assert_eq!(outcome.report.epochs, 12);
        assert_eq!(epochs_seen, 12);
        assert_eq!(hooked, plain);
    }

    #[test]
    fn interrupt_and_resume_is_bit_identical_to_uninterrupted() {
        let data = toy_dataset();
        // The first config runs to `max_epochs`; the second stops early
        // on the patience rule, so "the last epoch" is its stopping one.
        let early = TrainConfig {
            max_epochs: 400,
            patience: 2,
            ..TrainConfig::default()
        };
        for (config, stops_early) in [(small_config(), false), (early, true)] {
            let (mut reference, mut rng) = seeded(3);
            let ref_report = crate::train(&mut reference, &data, &config, &mut rng);
            assert_eq!(ref_report.epochs < config.max_epochs, stops_early);

            for stop_after in [1, 5, ref_report.epochs] {
                let saved = interrupted_state(&config, 3, stop_after).encode();
                // Resume from the serialized state with a fresh RNG.
                let state = TrainState::decode(&saved).unwrap();
                let (mut resumed, mut rng) = seeded(3);
                let outcome = train_resumable(
                    &mut resumed,
                    &data,
                    &config,
                    &mut rng,
                    Some(state),
                    &mut |_| TrainControl::Continue,
                );
                assert!(outcome.completed);
                assert_eq!(resumed, reference, "stop_after={stop_after}");
                assert_eq!(outcome.report, ref_report, "stop_after={stop_after}");
            }
        }
    }

    #[test]
    fn state_round_trips_through_codec() {
        let state = interrupted_state(&small_config(), 5, 1);
        let decoded = TrainState::decode(&state.encode()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn decode_rejects_truncation_and_garbage_without_panic() {
        let saved = interrupted_state(&small_config(), 5, 1).encode();
        for len in 0..saved.len().min(64) {
            assert!(TrainState::decode(&saved[..len]).is_err(), "len={len}");
        }
        assert!(TrainState::decode(&[0xFF; 40]).is_err());
        // Trailing junk is rejected too.
        let mut padded = saved.clone();
        padded.extend_from_slice(&[0, 0, 0]);
        assert!(TrainState::decode(&padded).is_err());
    }

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(rng_stream_fingerprint(), rng_stream_fingerprint());
        assert_ne!(rng_stream_fingerprint(), 0);
    }
}
