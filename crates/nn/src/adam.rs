//! The Adam optimizer ("Adam with momentum", as the paper trains with).

use crate::mlp::Gradients;
use crate::{Matrix, Mlp};

/// Adam optimizer state.
///
/// # Examples
///
/// ```
/// use nn::{Adam, Matrix, Mlp};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
/// let mut adam = Adam::new(&mlp);
/// let x = Matrix::from_rows(vec![vec![1.0, 0.0]]);
/// let y = Matrix::from_rows(vec![vec![3.0]]);
/// for _ in 0..200 {
///     let cache = mlp.forward_cached(&x);
///     let (_, grad) = Mlp::mse_loss(cache.output(), &y);
///     let grads = mlp.backward(&cache, &grad);
///     adam.step(&mut mlp, &grads, 0.01);
/// }
/// assert!((mlp.forward(&[1.0, 0.0])[0] - 3.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f32>>,
    v_b: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates optimizer state shaped for `mlp` with the standard momentum
    /// coefficients (β₁ = 0.9, β₂ = 0.999).
    pub fn new(mlp: &Mlp) -> Self {
        Self::with_betas(mlp, 0.9, 0.999)
    }

    /// Creates optimizer state with explicit momentum coefficients.
    pub fn with_betas(mlp: &Mlp, beta1: f32, beta2: f32) -> Self {
        let m_w = mlp
            .layers()
            .iter()
            .map(|l| Matrix::zeros(l.w.rows(), l.w.cols()))
            .collect::<Vec<_>>();
        let v_w = m_w.clone();
        let m_b = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.b.len()])
            .collect::<Vec<_>>();
        let v_b = m_b.clone();
        Adam {
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m_w,
            v_w,
            m_b,
            v_b,
        }
    }

    /// Applies one Adam update with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network the optimizer was
    /// created for.
    pub fn step(&mut self, mlp: &mut Mlp, grads: &Gradients, lr: f32) {
        assert_eq!(
            grads.dw.len(),
            self.m_w.len(),
            "gradient/optimizer shape mismatch"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (rows, cols) = (layer.w.rows(), layer.w.cols());
            for r in 0..rows {
                for c in 0..cols {
                    let g = grads.dw[i].get(r, c);
                    let m = self.beta1 * self.m_w[i].get(r, c) + (1.0 - self.beta1) * g;
                    let v = self.beta2 * self.v_w[i].get(r, c) + (1.0 - self.beta2) * g * g;
                    self.m_w[i].set(r, c, m);
                    self.v_w[i].set(r, c, v);
                    let update = lr * (m / bc1) / ((v / bc2).sqrt() + self.eps);
                    layer.w.set(r, c, layer.w.get(r, c) - update);
                }
            }
            for (j, b) in layer.b.iter_mut().enumerate() {
                let g = grads.db[i][j];
                let m = self.beta1 * self.m_b[i][j] + (1.0 - self.beta1) * g;
                let v = self.beta2 * self.v_b[i][j] + (1.0 - self.beta2) * g * g;
                self.m_b[i][j] = m;
                self.v_b[i][j] = v;
                *b -= lr * (m / bc1) / ((v / bc2).sqrt() + self.eps);
            }
        }
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Momentum coefficients `(β₁, β₂)`.
    pub fn betas(&self) -> (f32, f32) {
        (self.beta1, self.beta2)
    }

    /// Numerical-stability epsilon.
    pub fn epsilon(&self) -> f32 {
        self.eps
    }

    /// First and second weight moments, per layer.
    pub fn weight_moments(&self) -> (&[Matrix], &[Matrix]) {
        (&self.m_w, &self.v_w)
    }

    /// First and second bias moments, per layer.
    pub fn bias_moments(&self) -> (&[Vec<f32>], &[Vec<f32>]) {
        (&self.m_b, &self.v_b)
    }

    /// Reconstructs optimizer state captured via the accessors (the
    /// checkpoint-restore path).
    ///
    /// # Errors
    ///
    /// Returns a message when the moment tensors are mutually
    /// inconsistent (mismatched layer counts or shapes).
    #[allow(clippy::too_many_arguments)]
    pub fn from_state(
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        m_w: Vec<Matrix>,
        v_w: Vec<Matrix>,
        m_b: Vec<Vec<f32>>,
        v_b: Vec<Vec<f32>>,
    ) -> Result<Adam, String> {
        if m_w.len() != v_w.len() || m_w.len() != m_b.len() || m_w.len() != v_b.len() {
            return Err(format!(
                "inconsistent Adam layer counts: {} / {} / {} / {}",
                m_w.len(),
                v_w.len(),
                m_b.len(),
                v_b.len()
            ));
        }
        for i in 0..m_w.len() {
            if m_w[i].rows() != v_w[i].rows() || m_w[i].cols() != v_w[i].cols() {
                return Err(format!("layer {i}: weight moment shape mismatch"));
            }
            if m_b[i].len() != v_b[i].len() || m_b[i].len() != m_w[i].rows() {
                return Err(format!("layer {i}: bias moment shape mismatch"));
            }
        }
        Ok(Adam {
            beta1,
            beta2,
            eps,
            t,
            m_w,
            v_w,
            m_b,
            v_b,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_on_linear_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[1, 8, 1], &mut rng);
        let mut adam = Adam::new(&mlp);
        let x = Matrix::from_rows((0..20).map(|i| vec![i as f32 / 10.0]).collect());
        let y = Matrix::from_rows((0..20).map(|i| vec![2.0 * i as f32 / 10.0 + 1.0]).collect());
        let mut last_loss = f32::INFINITY;
        for _ in 0..500 {
            let cache = mlp.forward_cached(&x);
            let (loss, grad) = Mlp::mse_loss(cache.output(), &y);
            let grads = mlp.backward(&cache, &grad);
            adam.step(&mut mlp, &grads, 0.01);
            last_loss = loss;
        }
        assert!(last_loss < 1e-2, "loss {last_loss}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn step_reduces_loss_initially() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[2, 4, 1], &mut rng);
        let mut adam = Adam::new(&mlp);
        let x = Matrix::from_rows(vec![vec![1.0, -1.0]]);
        let y = Matrix::from_rows(vec![vec![0.7]]);
        let (loss0, _) = Mlp::mse_loss(&mlp.forward_batch(&x), &y);
        for _ in 0..50 {
            let cache = mlp.forward_cached(&x);
            let (_, grad) = Mlp::mse_loss(cache.output(), &y);
            let grads = mlp.backward(&cache, &grad);
            adam.step(&mut mlp, &grads, 0.01);
        }
        let (loss1, _) = Mlp::mse_loss(&mlp.forward_batch(&x), &y);
        assert!(loss1 < loss0);
    }
}
