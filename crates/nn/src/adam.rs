//! The Adam optimizer ("Adam with momentum", as the paper trains with).

use crate::mlp::Gradients;
use crate::simd::{Elementwise, Tier};
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
        self.step_on(Tier::detected(), mlp, grads, lr);
    }

    /// [`Adam::step`] compiled for `tier`.
    pub(crate) fn step_on(&mut self, tier: Tier, mlp: &mut Mlp, grads: &Gradients, lr: f32) {
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
                tier.run(Elementwise(
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
                ))
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

/// `x`, or a zero of its sign when `x` is subnormal.
///
/// A dead ReLU unit's gradient is exactly zero, so its first moment decays
/// by β₁ every step until it turns subnormal, and subnormal arithmetic is
/// slow on x86. Such a moment contributes an update of `lr · m / (√v̂ + ε)`
/// below 1e-32, which no weight of normal magnitude can register, so the
/// flush leaves trained weights unchanged. It is plain software (a compare
/// and a bit mask, no branch), not a floating-point mode such as FTZ, so
/// every host runs it the same way.
#[inline(always)]
fn flush_subnormal(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let bits = x.to_bits();
    // All ones when |x| >= f32::MIN_POSITIVE (NaN included), else 0.
    let normal = u32::from((bits & !SIGN) >= f32::MIN_POSITIVE.to_bits()).wrapping_neg();
    f32::from_bits(bits & (normal | SIGN))
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
    /// runs in SIMD lanes without changing any element's arithmetic. A
    /// subnormal first moment is flushed to zero before it is stored or
    /// used (see [`flush_subnormal`]).
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
            let m_i = flush_subnormal(self.beta1 * m[i] + (1.0 - self.beta1) * g[i]);
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
        for tier in Tier::supported() {
            check_step_against_reference(tier);
        }
    }

    /// Six steps on `tier` against [`reference_step`], bit for bit.
    fn check_step_against_reference(tier: Tier) {
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
            adam.step_on(tier, &mut mlp, &grads, 0.01);
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

    /// The Adam rule without the subnormal flush.
    fn unflushed_apply(rule: &AdamRule, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        for i in 0..p.len() {
            let m_i = rule.beta1 * m[i] + (1.0 - rule.beta1) * g[i];
            let v_i = rule.beta2 * v[i] + (1.0 - rule.beta2) * g[i] * g[i];
            m[i] = m_i;
            v[i] = v_i;
            p[i] -= rule.lr * (m_i / rule.bc1) / ((v_i / rule.bc2).sqrt() + rule.eps);
        }
    }

    /// A dead unit's gradient is zero after a few live steps: its first
    /// moment decays to exactly zero instead of lingering as a subnormal,
    /// and the weights still equal those of the unflushed rule bit for bit.
    #[test]
    fn dead_unit_moments_flush_to_zero_without_moving_weights() {
        let (beta1, beta2, lr) = (0.9f32, 0.999f32, 1e-3f32);
        let weights = [0.731f32, -0.052, 1.9e-3, -2.4, 0.0, -0.0, 3.1e-5, 0.44];
        let live = [0.3f32, -1.2, 4.0e-4, 7.5, -0.02, 0.9, -3.3e-3, 1.0e-6];
        let (mut p, mut m, mut v) = (weights, [0.0f32; 8], [0.0f32; 8]);
        let (mut p_ref, mut m_ref, mut v_ref) = (p, m, v);
        let mut flushed_at = None;
        let mut saw_subnormal = false;
        for t in 1..=2_000 {
            let rule = AdamRule {
                beta1,
                beta2,
                eps: 1e-8,
                lr,
                bc1: 1.0 - beta1.powi(t),
                bc2: 1.0 - beta2.powi(t),
            };
            // Five live steps, then the unit dies.
            let g = if t <= 5 { live } else { [0.0; 8] };
            rule.apply(&mut p, &g, &mut m, &mut v);
            unflushed_apply(&rule, &mut p_ref, &g, &mut m_ref, &mut v_ref);
            let bits = |x: &[f32; 8]| x.map(f32::to_bits);
            assert_eq!(bits(&p), bits(&p_ref), "weights after step {t}");
            assert_eq!(bits(&v), bits(&v_ref), "second moments after step {t}");
            assert!(
                m.iter().all(|x| x.is_normal() || *x == 0.0),
                "step {t}: {m:?}"
            );
            saw_subnormal |= m_ref.iter().any(|x| x.is_subnormal());
            if flushed_at.is_none() && m.iter().all(|&x| x == 0.0) {
                flushed_at = Some(t);
            }
        }
        assert!(
            saw_subnormal,
            "the unflushed moments must pass through subnormals"
        );
        let t = flushed_at.expect("every first moment must reach exactly zero");
        assert!(t > 5 && t < 2_000, "flushed at step {t}");
        assert!(
            m_ref.iter().any(|&x| x != 0.0),
            "the unflushed rule is still decaying"
        );
    }

    #[test]
    fn flush_keeps_normals_and_signs() {
        for x in [
            1.0f32,
            -1.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::INFINITY,
        ] {
            assert_eq!(flush_subnormal(x).to_bits(), x.to_bits());
        }
        assert!(flush_subnormal(f32::NAN).is_nan());
        let tiny = f32::MIN_POSITIVE / 2.0;
        assert_eq!(flush_subnormal(tiny).to_bits(), 0.0f32.to_bits());
        assert_eq!(flush_subnormal(-tiny).to_bits(), (-0.0f32).to_bits());
        assert_eq!(flush_subnormal(-0.0).to_bits(), (-0.0f32).to_bits());
    }
}
