//! Fully-connected multi-layer perceptron with ReLU hidden activations.

use rand::RngExt;

use crate::matrix::{gemm_into, Bias, BiasRelu, GemmScratch, Lhs, ReluMask, Store};
use crate::Matrix;

/// One dense layer: `y = W·x + b` with `W` stored `out × in`.
///
/// The forward pass reads the transpose `wt` (`in × out`), which turns
/// `x · Wᵀ` into an axpy over contiguous rows. `wt` is rebuilt (by 8 × 8
/// register tiles) wherever the weights are written, so it always equals
/// `wᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dense {
    w: Matrix,
    wt: Matrix,
    b: Vec<f32>,
}

impl Dense {
    fn new(w: Matrix, b: Vec<f32>) -> Dense {
        let wt = w.transpose();
        Dense { w, wt, b }
    }

    /// The weights, `out × in`.
    pub(crate) fn w(&self) -> &Matrix {
        &self.w
    }

    /// Writes the weights and biases through `f`, then rebuilds `wt`.
    pub(crate) fn update(&mut self, f: impl FnOnce(&mut Matrix, &mut [f32])) {
        f(&mut self.w, &mut self.b);
        self.w.transpose_into(&mut self.wt);
    }
}

/// A fully-connected network: ReLU on hidden layers, linear output — the
/// topology family the paper searches over ("4 hidden layers with 64
/// neurons" wins).
///
/// # Examples
///
/// ```
/// use nn::Mlp;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mlp = Mlp::new(&[21, 64, 64, 64, 64, 8], &mut rng);
/// assert_eq!(mlp.layer_sizes(), vec![21, 64, 64, 64, 64, 8]);
/// let out = mlp.forward(&[0.0; 21]);
/// assert_eq!(out.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Per-layer parameter gradients produced by [`Mlp::backward`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    pub(crate) dw: Vec<Matrix>,
    pub(crate) db: Vec<Vec<f32>>,
}

impl Gradients {
    /// Adds `decay · w` to the weight gradients (L2 regularization; biases
    /// are conventionally exempt).
    pub fn apply_weight_decay(&mut self, mlp: &Mlp, decay: f32) {
        for (dw, layer) in self.dw.iter_mut().zip(mlp.layers()) {
            let w = layer.w().as_slice();
            let dw = dw.as_mut_slice();
            assert_eq!(dw.len(), w.len(), "gradient shape mismatch");
            for (g, &w) in dw.iter_mut().zip(w) {
                *g += decay * w;
            }
        }
    }

    /// The global L2 norm over all gradient entries.
    pub fn global_norm(&self) -> f32 {
        let mut sum = 0.0f32;
        for dw in &self.dw {
            sum += dw.as_slice().iter().map(|v| v * v).sum::<f32>();
        }
        for db in &self.db {
            sum += db.iter().map(|v| v * v).sum::<f32>();
        }
        sum.sqrt()
    }

    /// Rescales all gradients so the global norm does not exceed
    /// `max_norm` (a no-op when it already does not).
    pub fn clip_global_norm(&mut self, max_norm: f32) {
        let norm = self.global_norm();
        if norm <= max_norm || norm == 0.0 {
            return;
        }
        let scale = max_norm / norm;
        for dw in &mut self.dw {
            dw.map_inplace(|v| v * scale);
        }
        for db in &mut self.db {
            for v in db {
                *v *= scale;
            }
        }
    }
}

/// Cache of forward activations needed for backpropagation.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Post-activation outputs per layer; `activations[0]` is the input.
    activations: Vec<Matrix>,
}

impl ForwardCache {
    /// The network output for this cached forward pass.
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("cache is never empty")
    }
}

impl Mlp {
    /// Creates a network with the given layer sizes (input first, output
    /// last) using He initialization.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new<R: RngExt + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let layers = sizes
            .windows(2)
            .map(|io| {
                let (n_in, n_out) = (io[0], io[1]);
                let scale = (2.0 / n_in as f32).sqrt();
                let mut w = Matrix::zeros(n_out, n_in);
                for r in 0..n_out {
                    for c in 0..n_in {
                        // Approximate normal via sum of uniforms (Irwin–Hall).
                        let u: f32 = (0..4).map(|_| rng.random::<f32>()).sum::<f32>() - 2.0;
                        w.set(r, c, u * scale * 0.8);
                    }
                }
                Dense::new(w, vec![0.0; n_out])
            })
            .collect();
        Mlp { layers }
    }

    /// Builds the topology the paper's NAS selects: `hidden` layers of
    /// `width` neurons between `inputs` and `outputs`.
    pub fn with_topology<R: RngExt + ?Sized>(
        inputs: usize,
        hidden: usize,
        width: usize,
        outputs: usize,
        rng: &mut R,
    ) -> Self {
        let mut sizes = Vec::with_capacity(hidden + 2);
        sizes.push(inputs);
        sizes.extend(std::iter::repeat_n(width, hidden));
        sizes.push(outputs);
        Mlp::new(&sizes, rng)
    }

    /// Rebuilds a network from explicit `(weights, biases)` layers (e.g.
    /// when loading a persisted model).
    ///
    /// # Errors
    ///
    /// Returns a message if the layer shapes do not chain or a bias length
    /// mismatches its weight matrix.
    pub fn from_layers(layers: Vec<(Matrix, Vec<f32>)>) -> Result<Mlp, String> {
        if layers.is_empty() {
            return Err("a network needs at least one layer".to_string());
        }
        for (i, (w, b)) in layers.iter().enumerate() {
            if w.rows() != b.len() {
                return Err(format!(
                    "layer {i}: {} outputs but {} biases",
                    w.rows(),
                    b.len()
                ));
            }
            if i > 0 && layers[i - 1].0.rows() != w.cols() {
                return Err(format!(
                    "layer {i}: expects {} inputs but previous layer outputs {}",
                    w.cols(),
                    layers[i - 1].0.rows()
                ));
            }
        }
        Ok(Mlp {
            layers: layers.into_iter().map(|(w, b)| Dense::new(w, b)).collect(),
        })
    }

    /// Layer sizes, input first.
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.layers[0].w.cols()];
        sizes.extend(self.layers.iter().map(|l| l.w.rows()));
        sizes
    }

    /// Input dimension.
    pub fn input_size(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Output dimension.
    pub fn output_size(&self) -> usize {
        self.layers.last().expect("non-empty").w.rows()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Number of multiply-accumulate operations for one inference.
    pub fn macs(&self) -> usize {
        self.layers.iter().map(|l| l.w.rows() * l.w.cols()).sum()
    }

    pub(crate) fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Number of dense layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The weight matrix of layer `i` (`out × in`), e.g. for compilation to
    /// an accelerator format.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn weights(&self, i: usize) -> &Matrix {
        &self.layers[i].w
    }

    /// The bias vector of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn biases(&self, i: usize) -> &[f32] {
        &self.layers[i].b
    }

    pub(crate) fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Whether every layer's cached transpose equals its weights'
    /// transpose (the invariant [`Dense::update`] keeps).
    #[cfg(test)]
    pub(crate) fn transposes_in_step(&self) -> bool {
        self.layers.iter().all(|l| l.wt == l.w.transpose())
    }

    /// Single-sample inference.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input size.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let input = Matrix::from_rows(vec![x.to_vec()]);
        let out = self.forward_batch(&input);
        out.row(0).to_vec()
    }

    /// Batched inference: each row of `x` is one sample.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut acts = vec![Matrix::zeros(0, 0); self.layers.len()];
        self.forward_into(x, &mut acts, &mut GemmScratch::new());
        acts.pop().expect("a network has at least one layer")
    }

    /// Batched forward pass retaining activations for [`Mlp::backward`].
    pub fn forward_cached(&self, x: &Matrix) -> ForwardCache {
        let mut activations = vec![Matrix::zeros(0, 0); self.layers.len() + 1];
        activations[0] = x.clone();
        let (input, outputs) = activations.split_at_mut(1);
        self.forward_into(&input[0], outputs, &mut GemmScratch::new());
        ForwardCache { activations }
    }

    /// The forward pass of `x` into `acts`, one output per layer, reusing
    /// their buffers. Each layer's bias (and, on hidden layers, ReLU) is
    /// fused into its product's write-back.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s width differs from the input size or `acts` does
    /// not hold one matrix per layer.
    pub(crate) fn forward_into(&self, x: &Matrix, acts: &mut [Matrix], scratch: &mut GemmScratch) {
        assert_eq!(x.cols(), self.input_size(), "input width mismatch");
        assert_eq!(acts.len(), self.layers.len(), "one activation per layer");
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(i);
            let lhs = Lhs::of(if i == 0 { x } else { &done[i - 1] }, false);
            let out = &mut rest[0];
            if i < last {
                gemm_into::<false, _>(lhs, &layer.wt, out, BiasRelu(&layer.b), scratch);
            } else {
                gemm_into::<false, _>(lhs, &layer.wt, out, Bias(&layer.b), scratch);
            }
        }
    }

    /// Backpropagates `d_loss/d_output` through the cached forward pass,
    /// returning parameter gradients (averaged over the batch by the
    /// caller's convention — the gradient is summed here).
    pub fn backward(&self, cache: &ForwardCache, grad_output: &Matrix) -> Gradients {
        let n_layers = self.layers.len();
        assert_eq!(
            cache.activations.len(),
            n_layers + 1,
            "cache does not match network depth"
        );
        let mut grads = Gradients {
            dw: vec![Matrix::zeros(0, 0); n_layers],
            db: vec![Vec::new(); n_layers],
        };
        let mut delta = grad_output.clone();
        let (x, acts) = cache
            .activations
            .split_first()
            .expect("cache is never empty");
        let mut scratch = GemmScratch::new();
        self.backward_into(
            x,
            acts,
            &mut delta,
            &mut Matrix::zeros(0, 0),
            &mut grads,
            &mut scratch,
        );
        grads
    }

    /// Backpropagates the output gradient `delta` through the forward
    /// pass of `x` whose layer outputs are `acts`, writing every layer's
    /// gradients into `grads` and reusing its buffers. `delta` and `prev`
    /// are working buffers for the per-layer deltas; `delta` holds the
    /// output gradient on entry and is left unspecified.
    ///
    /// Layer `i`'s `dW = δᵀ · input` skips δ's zeros (the product copies
    /// δᵀ row-major first), and the next delta `(δ · W) ⊙ relu'(input)`
    /// fuses the ReLU mask into its product's write-back.
    pub(crate) fn backward_into(
        &self,
        x: &Matrix,
        acts: &[Matrix],
        delta: &mut Matrix,
        prev: &mut Matrix,
        grads: &mut Gradients,
        scratch: &mut GemmScratch,
    ) {
        assert_eq!(acts.len(), self.layers.len(), "one activation per layer");
        for i in (0..self.layers.len()).rev() {
            let input = if i == 0 { x } else { &acts[i - 1] };
            let dw = &mut grads.dw[i];
            gemm_into::<true, _>(Lhs::of(delta, true), input, dw, Store, scratch);
            delta.column_sums_into(&mut grads.db[i]);
            if i > 0 {
                let mask = ReluMask(input.as_slice());
                let w = &self.layers[i].w;
                gemm_into::<true, _>(Lhs::of(delta, false), w, prev, mask, scratch);
                std::mem::swap(delta, prev);
            }
        }
    }

    /// Mean-squared-error loss and its output gradient for a batch.
    ///
    /// Returns `(loss, d_loss/d_output)` where the loss is averaged over
    /// all elements.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(predictions: &Matrix, targets: &Matrix) -> (f32, Matrix) {
        let mut grad = Matrix::zeros(0, 0);
        let loss = Mlp::mse_loss_into(predictions, targets, &mut grad);
        (loss, grad)
    }

    /// [`Mlp::mse_loss`], writing the gradient into `grad` and reusing its
    /// buffer.
    pub(crate) fn mse_loss_into(predictions: &Matrix, targets: &Matrix, grad: &mut Matrix) -> f32 {
        let sq_sum = Mlp::sq_error_sum(predictions, targets);
        let n = (predictions.rows() * predictions.cols()) as f32;
        grad.resize(predictions.rows(), predictions.cols());
        let pairs = predictions.as_slice().iter().zip(targets.as_slice());
        for (g, (&p, &t)) in grad.as_mut_slice().iter_mut().zip(pairs) {
            *g = 2.0 * (p - t) / n;
        }
        sq_sum / n
    }

    /// Sum of squared errors over a batch, unaveraged: the loss of
    /// [`Mlp::mse_loss`] times the element count, without its gradient.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sq_error_sum(predictions: &Matrix, targets: &Matrix) -> f32 {
        assert_eq!(
            (predictions.rows(), predictions.cols()),
            (targets.rows(), targets.cols()),
            "shape mismatch"
        );
        let mut sq_sum = 0.0;
        for (&p, &t) in predictions.as_slice().iter().zip(targets.as_slice()) {
            let diff = p - t;
            sq_sum += diff * diff;
        }
        sq_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn shapes_and_param_count() {
        let mlp = Mlp::with_topology(21, 4, 64, 8, &mut rng());
        assert_eq!(mlp.layer_sizes(), vec![21, 64, 64, 64, 64, 8]);
        let expected = 21 * 64 + 64 + 3 * (64 * 64 + 64) + 64 * 8 + 8;
        assert_eq!(mlp.num_params(), expected);
        assert_eq!(mlp.macs(), 21 * 64 + 3 * 64 * 64 + 64 * 8);
    }

    #[test]
    fn forward_batch_matches_single() {
        let mlp = Mlp::new(&[3, 8, 2], &mut rng());
        let a = [0.5, -1.0, 2.0];
        let b = [1.0, 0.0, -0.5];
        let batch = Matrix::from_rows(vec![a.to_vec(), b.to_vec()]);
        let out = mlp.forward_batch(&batch);
        let single_a = mlp.forward(&a);
        let single_b = mlp.forward(&b);
        for c in 0..2 {
            assert!((out.get(0, c) - single_a[c]).abs() < 1e-6);
            assert!((out.get(1, c) - single_b[c]).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Mlp::new(&[4, 8, 2], &mut StdRng::seed_from_u64(7));
        let b = Mlp::new(&[4, 8, 2], &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 8, 2], &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    /// Finite-difference gradient check: backprop must match numerical
    /// gradients to high precision.
    #[test]
    fn gradient_check() {
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng());
        let x = Matrix::from_rows(vec![vec![0.3, -0.7, 1.2], vec![-0.1, 0.4, 0.9]]);
        let y = Matrix::from_rows(vec![vec![1.0, -1.0], vec![0.5, 0.25]]);

        let cache = mlp.forward_cached(&x);
        let (_, grad_out) = Mlp::mse_loss(cache.output(), &y);
        let grads = mlp.backward(&cache, &grad_out);

        let eps = 1e-3f32;
        for layer_idx in 0..2 {
            for r in 0..mlp.layers()[layer_idx].w.rows() {
                for c in 0..mlp.layers()[layer_idx].w.cols() {
                    let orig = mlp.layers()[layer_idx].w.get(r, c);
                    let set = |mlp: &mut Mlp, v| {
                        mlp.layers_mut()[layer_idx].update(|w, _| w.set(r, c, v));
                    };
                    set(&mut mlp, orig + eps);
                    let (lp, _) = Mlp::mse_loss(&mlp.forward_batch(&x), &y);
                    set(&mut mlp, orig - eps);
                    let (lm, _) = Mlp::mse_loss(&mlp.forward_batch(&x), &y);
                    set(&mut mlp, orig);
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = grads.dw[layer_idx].get(r, c);
                    assert!(
                        (numeric - analytic).abs() < 2e-3,
                        "layer {layer_idx} w[{r}][{c}]: numeric {numeric} vs analytic {analytic}"
                    );
                }
            }
        }
    }

    #[test]
    fn relu_only_on_hidden_layers() {
        // With zero weights and a negative output bias, the output must be
        // negative (no ReLU on the last layer).
        let mut mlp = Mlp::new(&[2, 3, 1], &mut rng());
        for layer in mlp.layers_mut() {
            layer.update(|w, _| w.map_inplace(|_| 0.0));
        }
        mlp.layers_mut()[1].update(|_, b| b[0] = -5.0);
        let out = mlp.forward(&[1.0, 1.0]);
        assert_eq!(out[0], -5.0);
    }

    #[test]
    fn mse_loss_known_value() {
        let p = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        let t = Matrix::from_rows(vec![vec![0.0, 0.0]]);
        let (loss, grad) = Mlp::mse_loss(&p, &t);
        assert!((loss - 2.5).abs() < 1e-6); // (1 + 4) / 2
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6); // 2*1/2
        assert!((grad.get(0, 1) - 2.0).abs() < 1e-6); // 2*2/2
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_validates_input_width() {
        let mlp = Mlp::new(&[3, 2], &mut rng());
        let _ = mlp.forward(&[1.0, 2.0]);
    }

    /// Bit patterns, with NaNs compared as a class (Rust does not pin
    /// the payload of a NaN result).
    fn bits(m: &Matrix) -> Vec<u32> {
        let canon = |v: f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        m.as_slice().iter().map(|&v| canon(v)).collect()
    }

    #[test]
    fn transposes_stay_in_step_wherever_weights_are_written() {
        let mut mlp = Mlp::new(&[5, 7, 3], &mut rng());
        assert!(mlp.transposes_in_step(), "Mlp::new");
        let layers = (0..mlp.layer_count())
            .map(|i| (mlp.weights(i).clone(), mlp.biases(i).to_vec()))
            .collect();
        assert!(
            Mlp::from_layers(layers).unwrap().transposes_in_step(),
            "from_layers"
        );

        let mut adam = crate::Adam::new(&mlp);
        let x = Matrix::from_rows(vec![vec![0.5, -1.0, 2.0, 0.0, 1.5]]);
        let cache = mlp.forward_cached(&x);
        let (_, grad) = Mlp::mse_loss(cache.output(), &Matrix::zeros(1, 3));
        let grads = mlp.backward(&cache, &grad);
        adam.step(&mut mlp, &grads, 0.01);
        assert!(mlp.transposes_in_step(), "Adam::step");

        mlp.layers_mut()[0].update(|w, _| w.set(1, 2, 9.0));
        assert!(mlp.transposes_in_step(), "Dense::update");

        let mut text = Vec::new();
        crate::persist::write_mlp(&mlp, &mut text).unwrap();
        let loaded = crate::persist::read_mlp(&text[..]).unwrap();
        assert!(loaded.transposes_in_step(), "persist load");
        assert_eq!(loaded, mlp);

        let state = crate::TrainState {
            next_epoch: 1,
            mlp: mlp.clone(),
            adam,
            best: mlp.clone(),
            best_val_loss: 1.0,
            epochs_since_best: 0,
            train_losses: vec![1.0],
            val_losses: vec![1.0],
        };
        let decoded = crate::TrainState::decode(&state.encode()).unwrap();
        assert!(decoded.mlp.transposes_in_step(), "TrainState decode");
        assert!(decoded.best.transposes_in_step(), "TrainState decode");
    }

    /// The forward and backward passes equal the naive product loops they
    /// replaced (with the cloned `0/1` mask), bit for bit.
    fn check_passes_against_reference(mlp: &Mlp) {
        use crate::matrix::reference;
        let x = Matrix::from_rows(
            (0..9)
                .map(|r| {
                    (0..21)
                        .map(|c| match (r * 21 + c) % 7 {
                            0 => 0.0,
                            1 => -0.0,
                            k => (k as f32 - 3.5) * 0.37,
                        })
                        .collect()
                })
                .collect(),
        );
        let y = Matrix::zeros(9, 8);
        let cache = mlp.forward_cached(&x);
        let (_, grad) = Mlp::mse_loss(cache.output(), &y);
        let grads = mlp.backward(&cache, &grad);

        let mut acts = vec![x.clone()];
        for (i, layer) in mlp.layers().iter().enumerate() {
            let mut z = reference::matmul_transpose_b(&acts[i], layer.w());
            z.add_row_broadcast(mlp.biases(i));
            if i + 1 < mlp.layer_count() {
                z.map_inplace(|v| v.max(0.0));
            }
            acts.push(z);
        }
        for (got, want) in cache.activations.iter().zip(&acts) {
            assert_eq!(bits(got), bits(want));
        }
        let mut delta = grad;
        for i in (0..mlp.layer_count()).rev() {
            let dw = reference::transpose_a_matmul(&delta, &acts[i]);
            assert_eq!(bits(&grads.dw[i]), bits(&dw), "dW of layer {i}");
            let db = Matrix::from_rows(vec![delta.column_sums()]);
            let got_db = Matrix::from_rows(vec![grads.db[i].clone()]);
            assert_eq!(bits(&got_db), bits(&db), "db of layer {i}");
            if i > 0 {
                let mut prev = reference::matmul(&delta, mlp.weights(i));
                let mut mask = acts[i].clone();
                mask.map_inplace(|v| if v > 0.0 { 1.0 } else { 0.0 });
                prev.hadamard_inplace(&mask);
                delta = prev;
            }
        }
    }

    #[test]
    fn passes_match_reference_bitwise() {
        let mut mlp = Mlp::new(&[21, 16, 16, 8], &mut rng());
        check_passes_against_reference(&mlp);
        // An infinite output weight sends ±∞ back into the hidden deltas,
        // where the ReLU mask's `∞ · 0` must stay NaN as in the reference.
        mlp.layers_mut()[2].update(|w, _| w.set(3, 5, f32::INFINITY));
        check_passes_against_reference(&mlp);
    }
}
