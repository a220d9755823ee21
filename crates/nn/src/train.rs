//! Training loop: minibatch Adam with exponential LR decay and early
//! stopping — the exact recipe of the paper (§4.3) — resumable after any
//! epoch.

use rand::RngExt;

use crate::{Adam, Matrix, Mlp, TrainControl, TrainOutcome, TrainState};

/// A supervised dataset: feature rows `x` and target rows `y`.
///
/// # Examples
///
/// ```
/// use nn::{Dataset, Matrix};
/// let x = Matrix::from_rows(vec![vec![0.0], vec![1.0]]);
/// let y = Matrix::from_rows(vec![vec![1.0], vec![3.0]]);
/// let data = Dataset::new(x, y);
/// assert_eq!(data.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    x: Matrix,
    y: Matrix,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` have different row counts.
    pub fn new(x: Matrix, y: Matrix) -> Self {
        assert_eq!(x.rows(), y.rows(), "x and y must have equal row counts");
        Dataset { x, y }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// Returns `true` if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Feature matrix.
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Target matrix.
    pub fn y(&self) -> &Matrix {
        &self.y
    }

    /// Extracts the examples at `indices` into a new dataset.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: self.y.select_rows(indices),
        }
    }

    /// Splits into `(train, validation)` with `val_fraction` of shuffled
    /// examples in the validation part.
    pub fn split<R: RngExt + ?Sized>(&self, val_fraction: f64, rng: &mut R) -> (Dataset, Dataset) {
        let mut indices: Vec<usize> = (0..self.len()).collect();
        shuffle(&mut indices, rng);
        let n_val = ((self.len() as f64) * val_fraction).round() as usize;
        let n_val = n_val.clamp(1, self.len().saturating_sub(1).max(1));
        let (val_idx, train_idx) = indices.split_at(n_val);
        (self.subset(train_idx), self.subset(val_idx))
    }
}

pub(crate) fn shuffle<R: RngExt + ?Sized>(indices: &mut [usize], rng: &mut R) {
    for i in (1..indices.len()).rev() {
        let j = rng.random_range(0..=i);
        indices.swap(i, j);
    }
}

/// Hyper-parameters of [`train`], defaulting to the paper's values:
/// learning rate `0.01 · 0.95^epoch`, MSE loss, early stopping with a
/// patience of 20 epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Initial learning rate.
    pub initial_lr: f32,
    /// Per-epoch exponential decay factor.
    pub lr_decay: f32,
    /// Upper bound on epochs.
    pub max_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Early-stopping patience, in epochs without validation improvement.
    pub patience: usize,
    /// Fraction of examples held out for validation.
    pub val_fraction: f64,
    /// L2 weight-decay coefficient (0 disables it).
    pub weight_decay: f32,
    /// Global gradient-norm clip (0 disables clipping).
    pub grad_clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            initial_lr: 0.01,
            lr_decay: 0.95,
            max_epochs: 300,
            batch_size: 64,
            patience: 20,
            val_fraction: 0.2,
            weight_decay: 0.0,
            grad_clip: 0.0,
        }
    }
}

/// The result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually run (≤ `max_epochs`, early stopping permitting).
    pub epochs: usize,
    /// Best validation loss reached.
    pub best_val_loss: f32,
    /// Training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch.
    pub val_losses: Vec<f32>,
}

/// Trains `mlp` on `data` with minibatch Adam, exponential LR decay, MSE
/// loss and early stopping. On return `mlp` holds the weights of the best
/// validation epoch.
///
/// This is [`train_resumable`] with no resume point and a hook that never
/// stops the run.
///
/// # Panics
///
/// Panics if the dataset is empty or its dimensions do not match the
/// network.
pub fn train<R: RngExt + ?Sized>(
    mlp: &mut Mlp,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut R,
) -> TrainReport {
    train_resumable(mlp, data, config, rng, None, &mut |_| {
        TrainControl::Continue
    })
    .report
}

/// The training loop behind [`train`], with a resume point and an
/// `on_epoch` hook, so a run can be interrupted after any epoch and later
/// resumed — from the [`TrainState`] the hook saw — to produce exactly the
/// weights an uninterrupted run yields.
///
/// The split and every epoch's shuffle come from `rng` in sequence. A
/// resumed run must be handed an `rng` in the state the interrupted run's
/// was in when this function was called (in practice: the same seed and
/// the same draws before the call). It draws the split again and replays
/// the shuffle of every completed epoch without training on it, so the
/// stream stands where an uninterrupted run's would.
///
/// The hook borrows the loop's carried state after every trained epoch;
/// nothing is cloned unless the hook keeps it. On completion (early
/// stopping or `max_epochs`), `mlp` holds the best validation epoch's
/// weights. When the hook returns [`TrainControl::Stop`], the function
/// returns with `completed: false` and `mlp` at the current epoch's
/// weights.
///
/// # Panics
///
/// Panics if the dataset is empty, its dimensions do not match the
/// network, or `resume` carries a different network topology.
pub fn train_resumable<R: RngExt + ?Sized>(
    mlp: &mut Mlp,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut R,
    resume: Option<TrainState>,
    on_epoch: &mut dyn FnMut(&TrainState) -> TrainControl,
) -> TrainOutcome {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_eq!(data.x().cols(), mlp.input_size(), "feature width mismatch");
    assert_eq!(data.y().cols(), mlp.output_size(), "target width mismatch");

    let (train_set, val_set) = data.split(config.val_fraction, rng);
    let mut state = match resume {
        Some(state) => {
            assert_eq!(
                state.mlp.layer_sizes(),
                mlp.layer_sizes(),
                "resume state topology mismatch"
            );
            state
        }
        None => TrainState {
            next_epoch: 0,
            mlp: mlp.clone(),
            adam: Adam::new(mlp),
            best: mlp.clone(),
            best_val_loss: f32::INFINITY,
            epochs_since_best: 0,
            train_losses: Vec::new(),
            val_losses: Vec::new(),
        },
    };

    let mut order: Vec<usize> = (0..train_set.len()).collect();
    let mut completed = true;
    for epoch in 0..config.max_epochs {
        let replay = epoch < state.next_epoch;
        // Early stopping: checked before the next shuffle, so a run resumed
        // from its stopping epoch ends where the uninterrupted one did.
        if !replay && state.epochs_since_best >= config.patience.max(1) {
            break;
        }
        shuffle(&mut order, rng);
        if replay {
            continue;
        }
        let lr = config.initial_lr * config.lr_decay.powi(epoch as i32);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch = train_set.subset(chunk);
            let cache = state.mlp.forward_cached(batch.x());
            let (loss, grad) = Mlp::mse_loss(cache.output(), batch.y());
            let mut grads = state.mlp.backward(&cache, &grad);
            if config.weight_decay > 0.0 {
                grads.apply_weight_decay(&state.mlp, config.weight_decay);
            }
            if config.grad_clip > 0.0 {
                grads.clip_global_norm(config.grad_clip);
            }
            state.adam.step(&mut state.mlp, &grads, lr);
            epoch_loss += loss;
            batches += 1;
        }
        state.train_losses.push(epoch_loss / batches.max(1) as f32);

        let (val_loss, _) = Mlp::mse_loss(&state.mlp.forward_batch(val_set.x()), val_set.y());
        state.val_losses.push(val_loss);
        if val_loss < state.best_val_loss {
            state.best_val_loss = val_loss;
            state.best = state.mlp.clone();
            state.epochs_since_best = 0;
        } else {
            state.epochs_since_best += 1;
        }
        state.next_epoch = epoch + 1;
        if on_epoch(&state) == TrainControl::Stop {
            completed = false;
            break;
        }
    }

    *mlp = if completed { state.best } else { state.mlp };
    TrainOutcome {
        report: TrainReport {
            epochs: state.val_losses.len(),
            best_val_loss: state.best_val_loss,
            train_losses: state.train_losses,
            val_losses: state.val_losses,
        },
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset() -> Dataset {
        // y0 = x0 + x1, y1 = x0 - x1 — exactly representable.
        let rows: Vec<Vec<f32>> = (0..300)
            .map(|i| vec![(i % 17) as f32 / 17.0, (i % 5) as f32 / 5.0])
            .collect();
        let y = Matrix::from_rows(
            rows.iter()
                .map(|r| vec![r[0] + r[1], r[0] - r[1]])
                .collect(),
        );
        Dataset::new(Matrix::from_rows(rows), y)
    }

    #[test]
    fn learns_linear_map() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut mlp = Mlp::new(&[2, 32, 2], &mut rng);
        let report = train(&mut mlp, &toy_dataset(), &TrainConfig::default(), &mut rng);
        assert!(
            report.best_val_loss < 1e-3,
            "val loss {}",
            report.best_val_loss
        );
        let out = mlp.forward(&[0.5, 0.2]);
        assert!((out[0] - 0.7).abs() < 0.1);
        assert!((out[1] - 0.3).abs() < 0.1);
    }

    #[test]
    fn early_stopping_limits_epochs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[2, 8, 2], &mut rng);
        let config = TrainConfig {
            max_epochs: 1000,
            patience: 5,
            ..TrainConfig::default()
        };
        let report = train(&mut mlp, &toy_dataset(), &config, &mut rng);
        assert!(report.epochs < 1000, "early stopping should trigger");
        assert_eq!(report.train_losses.len(), report.epochs);
    }

    #[test]
    fn training_is_reproducible() {
        let data = toy_dataset();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = Mlp::new(&[2, 8, 2], &mut rng);
            let config = TrainConfig {
                max_epochs: 20,
                ..TrainConfig::default()
            };
            train(&mut mlp, &data, &config, &mut rng);
            mlp
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let data = toy_dataset();
        let weight_norm = |mlp: &Mlp| -> f32 {
            (0..mlp.layer_count())
                .map(|i| mlp.weights(i).as_slice().iter().map(|v| v * v).sum::<f32>())
                .sum::<f32>()
                .sqrt()
        };
        let run = |decay: f32| {
            let mut rng = StdRng::seed_from_u64(4);
            let mut mlp = Mlp::new(&[2, 16, 2], &mut rng);
            let config = TrainConfig {
                max_epochs: 60,
                weight_decay: decay,
                ..TrainConfig::default()
            };
            train(&mut mlp, &data, &config, &mut rng);
            weight_norm(&mlp)
        };
        let plain = run(0.0);
        let decayed = run(0.05);
        assert!(
            decayed < plain,
            "weight decay should shrink weights: {decayed} vs {plain}"
        );
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[2, 8, 2], &mut rng);
        // Huge targets produce huge gradients.
        let x = Matrix::from_rows(vec![vec![1.0, -1.0]]);
        let y = Matrix::from_rows(vec![vec![1e6, -1e6]]);
        let cache = mlp.forward_cached(&x);
        let (_, grad) = Mlp::mse_loss(cache.output(), &y);
        let mut grads = mlp.backward(&cache, &grad);
        assert!(grads.global_norm() > 1.0);
        grads.clip_global_norm(1.0);
        assert!((grads.global_norm() - 1.0).abs() < 1e-3);
        // Clipping an already-small gradient is a no-op.
        let before = grads.clone();
        grads.clip_global_norm(10.0);
        assert_eq!(grads, before);
    }

    #[test]
    fn split_fractions() {
        let data = toy_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let (train_set, val_set) = data.split(0.2, &mut rng);
        assert_eq!(train_set.len() + val_set.len(), data.len());
        assert_eq!(val_set.len(), 60);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn train_validates_dimensions() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(&[3, 4, 2], &mut rng);
        let _ = train(&mut mlp, &toy_dataset(), &TrainConfig::default(), &mut rng);
    }
}
