//! Grid-search neural architecture search over depth × width.
//!
//! The paper determines the IL model topology "by NAS": a grid search over
//! the number of hidden layers and neurons per layer, selecting the
//! configuration with the best validation loss (Fig. 3 — 4 × 64 wins).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{train, Dataset, Mlp, TrainConfig};

/// The outcome of training one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Number of hidden layers.
    pub hidden_layers: usize,
    /// Neurons per hidden layer.
    pub width: usize,
    /// Best validation loss across seeds (mean).
    pub val_loss: f32,
    /// Trainable parameter count of this topology.
    pub params: usize,
}

/// The full result of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Every evaluated grid point.
    pub points: Vec<GridPoint>,
}

impl GridSearchResult {
    /// The grid point with the lowest validation loss.
    ///
    /// # Panics
    ///
    /// Panics if the grid was empty.
    pub fn best(&self) -> &GridPoint {
        self.points
            .iter()
            .min_by(|a, b| a.val_loss.partial_cmp(&b.val_loss).expect("losses finite"))
            .expect("grid search evaluated at least one point")
    }
}

/// Trains one network per `(depth, width)` grid point (averaged over
/// `seeds` random initializations) and reports validation losses.
///
/// # Panics
///
/// Panics if any grid dimension is empty or `seeds` is empty.
pub fn grid_search(
    inputs: usize,
    outputs: usize,
    depths: &[usize],
    widths: &[usize],
    data: &Dataset,
    config: &TrainConfig,
    seeds: &[u64],
) -> GridSearchResult {
    assert!(!depths.is_empty() && !widths.is_empty(), "empty grid");
    assert!(!seeds.is_empty(), "need at least one seed");
    let mut points = Vec::with_capacity(depths.len() * widths.len());
    for &depth in depths {
        for &width in widths {
            let mut loss_sum = 0.0;
            let mut params = 0;
            for &seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut mlp = Mlp::with_topology(inputs, depth, width, outputs, &mut rng);
                params = mlp.num_params();
                let report = train(&mut mlp, data, config, &mut rng);
                loss_sum += report.best_val_loss;
            }
            points.push(GridPoint {
                hidden_layers: depth,
                width,
                val_loss: loss_sum / seeds.len() as f32,
                params,
            });
        }
    }
    GridSearchResult { points }
}

/// Trains the best topology found by [`grid_search`] from scratch with a
/// fresh seed and returns the trained network.
pub fn train_best<R: RngExt + ?Sized>(
    result: &GridSearchResult,
    inputs: usize,
    outputs: usize,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut R,
) -> Mlp {
    let best = result.best();
    let mut mlp = Mlp::with_topology(inputs, best.hidden_layers, best.width, outputs, rng);
    train(&mut mlp, data, config, rng);
    mlp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn nonlinear_dataset() -> Dataset {
        // y = x0 * x1 (needs a hidden layer).
        let rows: Vec<Vec<f32>> = (0..400)
            .map(|i| vec![(i % 21) as f32 / 10.0 - 1.0, (i % 13) as f32 / 6.0 - 1.0])
            .collect();
        let y = Matrix::from_rows(rows.iter().map(|r| vec![r[0] * r[1]]).collect());
        Dataset::new(Matrix::from_rows(rows), y)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            max_epochs: 40,
            patience: 10,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn evaluates_full_grid() {
        let result = grid_search(
            2,
            1,
            &[1, 2],
            &[4, 16],
            &nonlinear_dataset(),
            &quick_config(),
            &[1],
        );
        assert_eq!(result.points.len(), 4);
        let best = result.best();
        assert!(result.points.iter().all(|p| p.val_loss >= best.val_loss));
    }

    #[test]
    fn wider_beats_trivial_on_nonlinear_target() {
        let result = grid_search(
            2,
            1,
            &[1, 2],
            &[2, 24],
            &nonlinear_dataset(),
            &quick_config(),
            &[3],
        );
        let narrow = result
            .points
            .iter()
            .find(|p| p.width == 2 && p.hidden_layers == 1)
            .unwrap();
        let best = result.best();
        assert!(best.val_loss <= narrow.val_loss);
        assert!(best.width > 2 || best.val_loss < 0.05);
    }

    #[test]
    fn train_best_returns_matching_topology() {
        let data = nonlinear_dataset();
        let result = grid_search(2, 1, &[2], &[8], &data, &quick_config(), &[1]);
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = train_best(&result, 2, 1, &data, &quick_config(), &mut rng);
        assert_eq!(mlp.layer_sizes(), vec![2, 8, 8, 1]);
    }
}
