//! The "compiled" NPU model: int8 weights executed in integer arithmetic.

use nn::kernel::{self, KernelMode, PackedWeights, RowScales};
use nn::{Matrix, Mlp};

use crate::QuantizedTensor;

/// Reusable buffers for the fused inference path: quantized activations
/// and the two activation planes swapped between layers. Create one per
/// worker and reuse it across calls; every buffer sizes itself on first
/// use and is recycled afterwards.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// First-layer quantized input (kept intact across the forward pass —
    /// it doubles as the policy-cache key material).
    q0: Vec<i8>,
    /// Per-layer quantized activations.
    q: Vec<i8>,
    /// Activation scale of each row, per layer (and of the first layer's
    /// rows for [`NpuModel::infer_grouped`]).
    scales: Vec<f32>,
    cur: Vec<f32>,
    next: Vec<f32>,
}

impl InferScratch {
    /// Empty scratch buffers; they size themselves on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// One compiled layer.
#[derive(Debug, Clone, PartialEq)]
struct NpuLayer {
    /// Quantized weights, `out × in`, packed for the kernel.
    weights: PackedWeights,
    /// Biases stay in float (accumulators are rescaled before adding).
    bias: Vec<f32>,
    relu: bool,
}

/// An offline-compiled network in the NPU's int8 execution format.
///
/// Inference quantizes each layer's input activations on the fly
/// (symmetric per-tensor), runs the matrix product in `i32` accumulators,
/// and rescales to float — the standard int8 NN-accelerator dataflow. The
/// resulting outputs carry realistic quantization error relative to the
/// float [`Mlp`].
///
/// # Examples
///
/// ```
/// use nn::{Matrix, Mlp};
/// use npu::NpuModel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 16, 2], &mut rng);
/// let model = NpuModel::compile(&mlp);
/// let x = [0.3, -0.2, 0.5, 0.0];
/// let exact = mlp.forward(&x);
/// let approx = model.infer(&Matrix::from_rows(vec![x.to_vec()]));
/// assert!((exact[0] - approx.get(0, 0)).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NpuModel {
    layers: Vec<NpuLayer>,
    input_size: usize,
    output_size: usize,
    macs: usize,
}

impl NpuModel {
    /// Compiles a float network into the int8 execution format.
    pub fn compile(mlp: &Mlp) -> Self {
        let n = mlp.layer_count();
        let layers = (0..n)
            .map(|i| {
                let w = mlp.weights(i);
                let q = QuantizedTensor::quantize(w.as_slice());
                NpuLayer {
                    weights: PackedWeights::new(q.values().to_vec(), q.scale(), w.cols(), w.rows()),
                    bias: mlp.biases(i).to_vec(),
                    relu: i + 1 < n,
                }
            })
            .collect();
        NpuModel {
            layers,
            input_size: mlp.input_size(),
            output_size: mlp.output_size(),
            macs: mlp.macs(),
        }
    }

    /// Input feature width.
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.output_size
    }

    /// Multiply-accumulate operations per sample.
    pub fn macs(&self) -> usize {
        self.macs
    }

    /// Weight bytes resident in NPU SRAM (one byte per int8 weight).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weights.codes().len()).sum()
    }

    /// Runs int8 batch inference with the default (vectorized) kernel.
    /// Each row of `x` is one sample.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.infer_with(x, KernelMode::default())
    }

    /// Runs int8 batch inference with an explicit kernel selection.
    ///
    /// Both modes are bit-identical (`tests/kernel_equivalence.rs` holds
    /// them equal); `Scalar` routes through the original triple-loop
    /// reference, kept alive as the executable specification.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match.
    pub fn infer_with(&self, x: &Matrix, mode: KernelMode) -> Matrix {
        match mode {
            KernelMode::Scalar => self.infer_reference(x),
            KernelMode::Vectorized => {
                assert_eq!(x.cols(), self.input_size, "input width mismatch");
                let mut scratch = InferScratch::new();
                let scale = kernel::quantize_sym(x.as_slice(), &mut scratch.q0);
                let q0 = std::mem::take(&mut scratch.q0);
                let out = self
                    .infer_prequant(&q0, scale, x.rows(), mode, &mut scratch)
                    .to_vec();
                Matrix::from_flat(x.rows(), self.output_size, out)
            }
        }
    }

    /// The scalar reference: the naive per-layer loop the vectorized
    /// kernel is differentially tested against. One `i32` accumulator per
    /// output, products added in input order, whole-batch activation
    /// quantization per layer.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match.
    pub fn infer_reference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_size, "input width mismatch");
        let mut activations = x.clone();
        for layer in &self.layers {
            activations = Self::infer_layer(layer, &activations);
        }
        activations
    }

    /// Quantizes a stacked group of feature rows exactly as the first
    /// inference layer would — the int8 row + scale pair is both the fast
    /// path's input and the policy-cache key material.
    pub fn quantize_input(&self, flat: &[f32], q: &mut Vec<i8>) -> f32 {
        kernel::quantize_sym(flat, q)
    }

    /// Runs the fused forward for one group whose first-layer input is
    /// already quantized (`q0` with scale `scale0`, `rows × input_size`).
    ///
    /// Returns the output activations (`rows × output_size`) borrowed from
    /// the scratch buffer. The output is a pure function of
    /// `(q0, scale0, rows)` — the invariant that makes the policy cache
    /// sound.
    ///
    /// # Panics
    ///
    /// Panics if `q0` does not cover `rows` input rows.
    pub fn infer_prequant<'a>(
        &self,
        q0: &[i8],
        scale0: f32,
        rows: usize,
        mode: KernelMode,
        scratch: &'a mut InferScratch,
    ) -> &'a [f32] {
        self.forward(q0, RowScales::Uniform(scale0), &[rows], mode, scratch)
    }

    /// [`NpuModel::infer_prequant`] over a stack of independently
    /// quantized groups of `group_rows[i]` rows each, in order: `q0` holds
    /// every group's first-layer codes and `scales0` each row's scale.
    /// Every group's output rows are bit-identical to running the group
    /// alone, and each layer runs once over all the rows.
    ///
    /// # Panics
    ///
    /// Panics if `q0` or `scales0` does not cover the groups' rows.
    pub fn infer_groups_prequant<'a>(
        &self,
        q0: &[i8],
        scales0: &[f32],
        group_rows: &[usize],
        mode: KernelMode,
        scratch: &'a mut InferScratch,
    ) -> &'a [f32] {
        self.forward(q0, RowScales::PerRow(scales0), group_rows, mode, scratch)
    }

    /// The fused forward over prequantized groups; later layers quantize
    /// each group of their input separately.
    fn forward<'a>(
        &self,
        q0: &[i8],
        scales0: RowScales,
        group_rows: &[usize],
        mode: KernelMode,
        scratch: &'a mut InferScratch,
    ) -> &'a [f32] {
        let rows = group_rows.iter().sum();
        assert_eq!(q0.len(), rows * self.input_size, "input shape mismatch");
        let (first, rest) = self
            .layers
            .split_first()
            .expect("compiled model has layers");
        kernel::fused_layer_prequant(
            mode,
            q0,
            scales0,
            rows,
            &first.weights,
            &first.bias,
            first.relu,
            &mut scratch.cur,
        );
        for layer in rest {
            kernel::fused_layer_groups(
                mode,
                &scratch.cur,
                group_rows,
                &layer.weights,
                &layer.bias,
                layer.relu,
                &mut scratch.q,
                &mut scratch.scales,
                &mut scratch.next,
            );
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }

    /// Runs int8 inference over a batch that coalesces several independent
    /// requests, quantizing each request's activations separately.
    ///
    /// [`NpuModel::infer`] quantizes the whole batch's activations with one
    /// per-tensor scale — correct for a single caller, but a multi-tenant
    /// serving batch must not let one board's activation range perturb
    /// another board's results. This entry point slices the stacked input
    /// into per-request groups (`group_rows[i]` rows each, in order) and
    /// quantizes each group independently, so every request's output is
    /// bit-identical to submitting it alone, while the device still charges
    /// a single batched job for the whole matrix.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match or the group sizes do not
    /// sum to the number of rows.
    pub fn infer_grouped(&self, x: &Matrix, group_rows: &[usize]) -> Matrix {
        self.infer_grouped_with(x, group_rows, KernelMode::default())
    }

    /// [`NpuModel::infer_grouped`] with an explicit kernel selection.
    ///
    /// The vectorized path quantizes each group on its own and runs every
    /// layer once over all the groups
    /// ([`NpuModel::infer_groups_prequant`], as the serving batcher does);
    /// the scalar path keeps the original allocate-per-group reference
    /// loop alive.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match or the group sizes do not
    /// sum to the number of rows.
    pub fn infer_grouped_with(&self, x: &Matrix, group_rows: &[usize], mode: KernelMode) -> Matrix {
        assert_eq!(x.cols(), self.input_size, "input width mismatch");
        assert_eq!(
            group_rows.iter().sum::<usize>(),
            x.rows(),
            "group sizes must cover the batch"
        );
        if mode == KernelMode::Vectorized {
            let mut scratch = InferScratch::new();
            let mut q0 = vec![0; x.as_slice().len()];
            let mut scales = Vec::with_capacity(x.rows());
            let mut start = 0;
            for &rows in group_rows {
                let end = start + rows * self.input_size;
                let scale = kernel::quantize_into(&x.as_slice()[start..end], &mut q0[start..end]);
                scales.extend(std::iter::repeat_n(scale, rows));
                start = end;
            }
            let out = self.infer_groups_prequant(&q0, &scales, group_rows, mode, &mut scratch);
            return Matrix::from_flat(x.rows(), self.output_size, out.to_vec());
        }
        let mut out = Matrix::zeros(x.rows(), self.output_size);
        let mut start = 0usize;
        for &rows in group_rows {
            if rows == 0 {
                continue;
            }
            let flat = &x.as_slice()[start * self.input_size..(start + rows) * self.input_size];
            let group = Matrix::from_flat(rows, self.input_size, flat.to_vec());
            let result = self.infer_reference(&group);
            for r in 0..rows {
                out.row_mut(start + r).copy_from_slice(result.row(r));
            }
            start += rows;
        }
        out
    }

    fn infer_layer(layer: &NpuLayer, input: &Matrix) -> Matrix {
        // Quantize the activations of the whole batch with one scale.
        let act_q = QuantizedTensor::quantize(input.as_slice());
        let w_q = layer.weights.codes();
        let (n_in, n_out) = (layer.weights.n_in(), layer.weights.n_out());
        let out_scale = layer.weights.scale() * act_q.scale();
        let mut out = Matrix::zeros(input.rows(), n_out);
        for r in 0..input.rows() {
            let a_row = &act_q.values()[r * n_in..(r + 1) * n_in];
            for o in 0..n_out {
                let w_row = &w_q[o * n_in..(o + 1) * n_in];
                let mut acc: i32 = 0;
                for (a, w) in a_row.iter().zip(w_row) {
                    acc += *a as i32 * *w as i32;
                }
                let mut v = acc as f32 * out_scale + layer.bias[o];
                if layer.relu {
                    v = v.max(0.0);
                }
                out.set(r, o, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp() -> Mlp {
        Mlp::with_topology(21, 4, 64, 8, &mut StdRng::seed_from_u64(9))
    }

    #[test]
    fn compiled_metadata_matches() {
        let m = mlp();
        let c = NpuModel::compile(&m);
        assert_eq!(c.input_size(), 21);
        assert_eq!(c.output_size(), 8);
        assert_eq!(c.macs(), m.macs());
        assert_eq!(c.weight_bytes(), m.macs()); // one byte per weight
    }

    #[test]
    fn quantized_inference_tracks_float() {
        let m = mlp();
        let c = NpuModel::compile(&m);
        let rows: Vec<Vec<f32>> = (0..16)
            .map(|i| {
                (0..21)
                    .map(|j| ((i * 7 + j * 3) % 11) as f32 / 11.0 - 0.5)
                    .collect()
            })
            .collect();
        let batch = Matrix::from_rows(rows.clone());
        let approx = c.infer(&batch);
        let mut max_err = 0.0f32;
        let mut max_mag = 0.0f32;
        for (i, row) in rows.iter().enumerate() {
            let exact = m.forward(row);
            for (j, &e) in exact.iter().enumerate() {
                max_err = max_err.max((e - approx.get(i, j)).abs());
                max_mag = max_mag.max(e.abs());
            }
        }
        assert!(
            max_err < 0.05 * max_mag.max(1.0),
            "quantization error too large: {max_err} (magnitude {max_mag})"
        );
    }

    #[test]
    fn argmax_decisions_agree_with_float() {
        // The migration policy only needs the argmax structure to survive
        // quantization.
        let m = mlp();
        let c = NpuModel::compile(&m);
        let mut agree = 0;
        let total = 64;
        for i in 0..total {
            let row: Vec<f32> = (0..21)
                .map(|j| (((i * 13 + j * 5) % 17) as f32 / 17.0) - 0.5)
                .collect();
            let exact = m.forward(&row);
            let approx = c.infer(&Matrix::from_rows(vec![row]));
            let am_exact = exact
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            let am_approx = (0..8)
                .max_by(|&a, &b| approx.get(0, a).partial_cmp(&approx.get(0, b)).unwrap())
                .unwrap();
            if am_exact == am_approx {
                agree += 1;
            }
        }
        assert!(
            agree >= total - 3,
            "argmax agreement too low: {agree}/{total}"
        );
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn infer_validates_width() {
        let c = NpuModel::compile(&mlp());
        let _ = c.infer(&Matrix::zeros(1, 3));
    }

    #[test]
    fn grouped_inference_isolates_requests() {
        let c = NpuModel::compile(&mlp());
        // Two requests with very different activation ranges: stacked
        // whole-batch quantization would couple their scales.
        let small: Vec<Vec<f32>> = (0..2).map(|i| vec![0.01 * (i + 1) as f32; 21]).collect();
        let large: Vec<Vec<f32>> = (0..3).map(|i| vec![5.0 + i as f32; 21]).collect();
        let mut stacked = small.clone();
        stacked.extend(large.clone());
        let grouped = c.infer_grouped(&Matrix::from_rows(stacked.clone()), &[2, 3]);
        let alone_small = c.infer(&Matrix::from_rows(small));
        let alone_large = c.infer(&Matrix::from_rows(large));
        for r in 0..2 {
            assert_eq!(grouped.row(r), alone_small.row(r), "request 0 row {r}");
        }
        for r in 0..3 {
            assert_eq!(grouped.row(2 + r), alone_large.row(r), "request 1 row {r}");
        }
        // The naive whole-batch path does NOT have this isolation property
        // (which is exactly why the serve path uses groups).
        let naive = c.infer(&Matrix::from_rows(stacked));
        assert_ne!(naive.row(0), grouped.row(0));
    }

    #[test]
    #[should_panic(expected = "group sizes must cover the batch")]
    fn grouped_inference_validates_group_sizes() {
        let c = NpuModel::compile(&mlp());
        let _ = c.infer_grouped(&Matrix::zeros(4, 21), &[2, 1]);
    }

    fn feature_batch(rows: usize, seed: usize) -> Matrix {
        Matrix::from_rows(
            (0..rows)
                .map(|r| {
                    (0..21)
                        .map(|c| ((seed * 29 + r * 7 + c * 3) % 19) as f32 / 19.0 - 0.5)
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn vectorized_infer_is_bit_identical_to_reference() {
        let c = NpuModel::compile(&mlp());
        for rows in [1, 2, 5, 16] {
            let batch = feature_batch(rows, rows);
            let reference = c.infer_reference(&batch);
            let vectorized = c.infer_with(&batch, KernelMode::Vectorized);
            assert_eq!(reference, vectorized, "batch of {rows}");
            assert_eq!(c.infer(&batch), reference, "default mode, batch of {rows}");
        }
    }

    #[test]
    fn grouped_modes_are_bit_identical() {
        let c = NpuModel::compile(&mlp());
        let batch = feature_batch(9, 4);
        for groups in [vec![9], vec![1; 9], vec![2, 3, 4], vec![4, 0, 5]] {
            let scalar = c.infer_grouped_with(&batch, &groups, KernelMode::Scalar);
            let vectorized = c.infer_grouped_with(&batch, &groups, KernelMode::Vectorized);
            assert_eq!(scalar, vectorized, "groups {groups:?}");
        }
    }

    #[test]
    fn prequant_path_matches_grouped_inference() {
        let c = NpuModel::compile(&mlp());
        let batch = feature_batch(3, 7);
        let grouped = c.infer_grouped(&batch, &[3]);
        let mut q0 = Vec::new();
        let scale = c.quantize_input(batch.as_slice(), &mut q0);
        let mut scratch = InferScratch::new();
        let out = c
            .infer_prequant(&q0, scale, 3, KernelMode::Vectorized, &mut scratch)
            .to_vec();
        assert_eq!(grouped.as_slice(), &out[..]);
        // Scratch reuse across calls must not leak state between groups.
        let other = feature_batch(2, 12);
        let scale2 = c.quantize_input(other.as_slice(), &mut q0);
        let out2 = c
            .infer_prequant(&q0, scale2, 2, KernelMode::Vectorized, &mut scratch)
            .to_vec();
        assert_eq!(c.infer_grouped(&other, &[2]).as_slice(), &out2[..]);
    }
}
