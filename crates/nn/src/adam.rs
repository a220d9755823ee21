//! The Adam optimizer ("Adam with momentum", as the paper trains with).

use crate::matrix::simd;
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
            .map(|l| Matrix::zeros(l.w().rows(), l.w().cols()))
            .collect::<Vec<_>>();
        let v_w = m_w.clone();
        let m_b = mlp
            .layers()
            .iter()
            .map(|l| vec![0.0; l.w().rows()])
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
        let rule = AdamRule {
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            lr,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for (i, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (m_w, v_w) = (&mut self.m_w[i], &mut self.v_w[i]);
            let (m_b, v_b) = (&mut self.m_b[i], &mut self.v_b[i]);
            layer.update(|w, b| {
                simd(
                    #[inline(always)]
                    || {
                        rule.apply(
                            w.as_mut_slice(),
                            grads.dw[i].as_slice(),
                            m_w.as_mut_slice(),
                            v_w.as_mut_slice(),
                        );
                        rule.apply(b, &grads.db[i], m_b, v_b);
                    },
                )
            });
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

/// The coefficients of one Adam step.
#[derive(Debug, Clone, Copy)]
struct AdamRule {
    beta1: f32,
    beta2: f32,
    eps: f32,
    lr: f32,
    /// Bias corrections `1 − βᵗ`.
    bc1: f32,
    bc2: f32,
}

impl AdamRule {
    /// Updates parameters `p` and their moments `m`, `v` from gradients
    /// `g`, element by element. Each element is independent, so the loop
    /// runs in SIMD lanes without changing any element's arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[inline(always)]
    fn apply(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let n = p.len();
        assert!(
            g.len() == n && m.len() == n && v.len() == n,
            "gradient/optimizer shape mismatch"
        );
        let (g, m, v) = (&g[..n], &mut m[..n], &mut v[..n]);
        for i in 0..n {
            let m_i = self.beta1 * m[i] + (1.0 - self.beta1) * g[i];
            let v_i = self.beta2 * v[i] + (1.0 - self.beta2) * g[i] * g[i];
            m[i] = m_i;
            v[i] = v_i;
            p[i] -= self.lr * (m_i / self.bc1) / ((v_i / self.bc2).sqrt() + self.eps);
        }
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

    /// The element-wise `get`/`set` loop the slice update replaced.
    fn reference_step(adam: &mut Adam, mlp: &mut Mlp, grads: &Gradients, lr: f32) {
        adam.t += 1;
        let bc1 = 1.0 - adam.beta1.powi(adam.t as i32);
        let bc2 = 1.0 - adam.beta2.powi(adam.t as i32);
        let (b1, b2, eps) = (adam.beta1, adam.beta2, adam.eps);
        for (i, layer) in mlp.layers_mut().iter_mut().enumerate() {
            let (m_w, v_w) = (&mut adam.m_w[i], &mut adam.v_w[i]);
            let (m_b, v_b) = (&mut adam.m_b[i], &mut adam.v_b[i]);
            layer.update(|w, bias| {
                for r in 0..w.rows() {
                    for c in 0..w.cols() {
                        let g = grads.dw[i].get(r, c);
                        let m = b1 * m_w.get(r, c) + (1.0 - b1) * g;
                        let v = b2 * v_w.get(r, c) + (1.0 - b2) * g * g;
                        m_w.set(r, c, m);
                        v_w.set(r, c, v);
                        let update = lr * (m / bc1) / ((v / bc2).sqrt() + eps);
                        w.set(r, c, w.get(r, c) - update);
                    }
                }
                for (j, b) in bias.iter_mut().enumerate() {
                    let g = grads.db[i][j];
                    let m = b1 * m_b[j] + (1.0 - b1) * g;
                    let v = b2 * v_b[j] + (1.0 - b2) * g * g;
                    m_b[j] = m;
                    v_b[j] = v;
                    *b -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
                }
            });
        }
    }

    fn param_bits(mlp: &Mlp) -> Vec<u32> {
        (0..mlp.layer_count())
            .flat_map(|i| {
                let w = mlp.weights(i).as_slice().iter();
                w.chain(mlp.biases(i))
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn step_matches_reference_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mlp = Mlp::new(&[21, 17, 8], &mut rng);
        let mut reference = mlp.clone();
        let mut adam = Adam::new(&mlp);
        let mut reference_adam = adam.clone();
        let x = Matrix::from_rows(
            (0..5)
                .map(|r| (0..21).map(|c| ((r * 7 + c) % 9) as f32 - 4.0).collect())
                .collect(),
        );
        let y = Matrix::zeros(5, 8);
        for _ in 0..6 {
            let cache = mlp.forward_cached(&x);
            let (_, grad) = Mlp::mse_loss(cache.output(), &y);
            let grads = mlp.backward(&cache, &grad);
            adam.step(&mut mlp, &grads, 0.01);
            reference_step(&mut reference_adam, &mut reference, &grads, 0.01);
            assert_eq!(param_bits(&mlp), param_bits(&reference));
            assert_eq!(adam.steps(), reference_adam.steps());
            let moments = |a: &Adam| {
                let (m, v) = a.weight_moments();
                let (mb, vb) = a.bias_moments();
                let flat = m.iter().chain(v).flat_map(|x| x.as_slice().to_vec());
                flat.chain(mb.iter().chain(vb).flatten().copied())
                    .map(f32::to_bits)
                    .collect::<Vec<_>>()
            };
            assert_eq!(moments(&adam), moments(&reference_adam));
        }
    }
}
