//! Feature standardization (zero mean, unit variance).

use crate::Matrix;

/// A per-feature standardizer fitted on training data and applied at
/// inference time (stored alongside the model, like the paper's deployed
/// feature pipeline).
///
/// # Examples
///
/// ```
/// use nn::{Matrix, Standardizer};
/// let data = Matrix::from_rows(vec![vec![1.0, 10.0], vec![3.0, 30.0]]);
/// let s = Standardizer::fit(&data);
/// let t = s.transform_row(&[2.0, 20.0]);
/// assert!(t.iter().all(|v| v.abs() < 1e-6)); // the mean maps to zero
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fits means and standard deviations per column.
    ///
    /// Columns with (near-)zero variance get a unit scale so they pass
    /// through unchanged (minus the mean).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn fit(data: &Matrix) -> Self {
        assert!(data.rows() > 0, "cannot fit on an empty matrix");
        let n = data.rows() as f32;
        let mut mean = vec![0.0f32; data.cols()];
        for r in 0..data.rows() {
            for (m, &v) in mean.iter_mut().zip(data.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; data.cols()];
        for r in 0..data.rows() {
            for (c, &v) in data.row(r).iter().enumerate() {
                let d = v - mean[c];
                var[c] += d * d;
            }
        }
        let std = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-6 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    /// Rebuilds a standardizer from explicit parameters (e.g. when loading
    /// a persisted model).
    ///
    /// # Errors
    ///
    /// Returns a message if the lengths differ or any scale is not
    /// strictly positive.
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Result<Standardizer, String> {
        if mean.len() != std.len() {
            return Err("mean and std lengths differ".to_string());
        }
        if std.iter().any(|&s| s <= 0.0 || !s.is_finite()) {
            return Err("scales must be positive and finite".to_string());
        }
        Ok(Standardizer { mean, std })
    }

    /// Number of features.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// The fitted per-feature means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// The fitted per-feature scales.
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Standardizes a single feature row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn transform_row(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(row.len(), self.mean.len(), "feature width mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Standardizes a whole matrix.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let rows = (0..data.rows())
            .map(|r| self.transform_row(data.row(r)))
            .collect();
        Matrix::from_rows(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_variance() {
        let data = Matrix::from_rows(vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ]);
        let s = Standardizer::fit(&data);
        let t = s.transform(&data);
        for c in 0..2 {
            let mean: f32 = (0..4).map(|r| t.get(r, c)).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|r| t.get(r, c).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-6);
            assert!((var - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_column_passes_through() {
        let data = Matrix::from_rows(vec![vec![5.0], vec![5.0]]);
        let s = Standardizer::fit(&data);
        assert_eq!(s.transform_row(&[5.0]), vec![0.0]);
        assert_eq!(s.transform_row(&[6.0]), vec![1.0]);
    }

    #[test]
    fn width_reported() {
        let data = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0]]);
        assert_eq!(Standardizer::fit(&data).width(), 3);
    }
}
