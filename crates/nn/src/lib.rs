//! A from-scratch dense neural-network library.
//!
//! Implements exactly what the paper's IL model needs — and nothing more:
//! fully-connected [`Mlp`]s with ReLU hidden layers and a linear output,
//! mean-squared-error loss, the [`Adam`] optimizer with momentum, an
//! exponentially decaying learning rate, early stopping with patience, and
//! a [`nas::grid_search`] over depth × width (the paper's Fig. 3: "the best
//! topology uses 4 hidden layers with 64 neurons").
//!
//! # Examples
//!
//! Learn `y = 2x₀ − x₁`:
//!
//! ```
//! use nn::{Dataset, Matrix, Mlp, TrainConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let xs: Vec<Vec<f32>> = (0..200)
//!     .map(|i| vec![(i % 20) as f32 / 20.0, (i % 7) as f32 / 7.0])
//!     .collect();
//! let y = Matrix::from_rows(xs.iter().map(|r| vec![2.0 * r[0] - r[1]]).collect());
//! let x = Matrix::from_rows(xs);
//! let data = Dataset::new(x, y);
//!
//! let mut mlp = Mlp::new(&[2, 16, 1], &mut rng);
//! let report = nn::train(&mut mlp, &data, &TrainConfig::default(), &mut rng);
//! assert!(report.best_val_loss < 0.05);
//! ```

#![warn(missing_docs)]

mod adam;
pub mod kernel;
mod matrix;
mod mlp;
pub mod nas;
pub mod persist;
pub mod resume;
mod standardize;
mod train;

pub use adam::Adam;
pub use kernel::KernelMode;
pub use matrix::Matrix;
pub use mlp::{Gradients, Mlp};
pub use resume::{
    rng_stream_fingerprint, StateDecodeError, TrainControl, TrainOutcome, TrainState,
};
pub use standardize::Standardizer;
pub use train::{train, train_resumable, Dataset, TrainConfig, TrainReport};
