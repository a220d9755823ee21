//! The "compiled" NPU model: int8 weights executed in integer arithmetic.

use nn::kernel::{self, KernelMode, PackedWeights, RowScales};
use nn::{Matrix, Mlp};

/// Reusable buffers of [`NpuModel::infer_groups`]: quantized activations,
/// their per-row scales, and the two activation planes swapped between
/// layers. Create one per worker and reuse it across calls; every buffer
/// sizes itself on first use and is recycled afterwards.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// Per-layer quantized activations.
    q: Vec<i8>,
    /// Activation scale of each row, per layer.
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
/// Inference quantizes each layer's input activations (symmetric, one
/// scale per group of rows), runs the matrix product in `i32`
/// accumulators, and rescales to float — the standard int8
/// NN-accelerator dataflow. The resulting outputs carry realistic
/// quantization error relative to the float [`Mlp`].
///
/// There is one inference path, [`NpuModel::infer_groups`], over groups
/// of rows whose first-layer codes are already quantized; a whole batch
/// is one group ([`NpuModel::infer`]). [`KernelMode`] picks the kernel of
/// every call: the reference quantizer and scalar loop, or the
/// lane-parallel quantizer and vectorized bodies, which write the same
/// bits.
///
/// # Examples
///
/// ```
/// use nn::{KernelMode, Matrix, Mlp};
/// use npu::NpuModel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 16, 2], &mut rng);
/// let model = NpuModel::compile(&mlp);
/// let x = [0.3, -0.2, 0.5, 0.0];
/// let exact = mlp.forward(&x);
/// let approx = model.infer(&Matrix::from_rows(vec![x.to_vec()]), KernelMode::default());
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
    /// Compiles a float network into the int8 execution format, each
    /// layer's weights quantized by [`kernel::quantize_reference`].
    pub fn compile(mlp: &Mlp) -> Self {
        let n = mlp.layer_count();
        let layers = (0..n)
            .map(|i| {
                let w = mlp.weights(i);
                let mut codes = vec![0; w.as_slice().len()];
                let scale = kernel::quantize_reference(w.as_slice(), &mut codes);
                NpuLayer {
                    weights: PackedWeights::new(codes, scale, w.cols(), w.rows()),
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

    /// Runs int8 inference over a whole batch as one group on `mode`'s
    /// kernel: each row of `x` is one sample, and every layer quantizes
    /// the batch's activations with one scale, as a dedicated device
    /// serving one caller does.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match.
    pub fn infer(&self, x: &Matrix, mode: KernelMode) -> Matrix {
        assert_eq!(x.cols(), self.input_size, "input width mismatch");
        let mut scratch = InferScratch::new();
        let mut q0 = Vec::new();
        let group = [x.rows()];
        quantize(
            mode,
            x.as_slice(),
            self.input_size,
            &group,
            &mut q0,
            &mut scratch.scales,
        );
        // An empty batch has no row to scale.
        let scale0 = scratch.scales.first().copied().unwrap_or(1.0);
        self.forward(&q0, RowScales::Uniform(scale0), &group, mode, &mut scratch);
        Matrix::from_flat(x.rows(), self.output_size, scratch.cur)
    }

    /// Runs the int8 forward over a stack of independently quantized
    /// groups of `group_rows[i]` rows each, in order, on `mode`'s kernel.
    /// `q0` holds every group's first-layer codes and `scales0` each row's
    /// scale, as [`kernel::quantize_groups`] writes them; every later
    /// layer quantizes each group of its input on its own.
    ///
    /// Returns the output activations (`rows × output_size`) borrowed from
    /// the scratch buffer. Every group's output rows are bit-identical to
    /// running the group alone, and each layer runs once over all the
    /// rows. A group's output is a pure function of its codes, scale and
    /// row count — the invariant that makes the policy cache sound.
    ///
    /// # Panics
    ///
    /// Panics if `q0` or `scales0` does not cover the groups' rows.
    pub fn infer_groups<'a>(
        &self,
        q0: &[i8],
        scales0: &[f32],
        group_rows: &[usize],
        mode: KernelMode,
        scratch: &'a mut InferScratch,
    ) -> &'a [f32] {
        self.forward(q0, RowScales::PerRow(scales0), group_rows, mode, scratch);
        &scratch.cur
    }

    /// The forward over prequantized groups, into `scratch.cur`; later
    /// layers quantize each group of their input separately.
    fn forward(
        &self,
        q0: &[i8],
        scales0: RowScales,
        group_rows: &[usize],
        mode: KernelMode,
        scratch: &mut InferScratch,
    ) {
        let rows = group_rows.iter().sum();
        assert_eq!(q0.len(), rows * self.input_size, "input shape mismatch");
        let (first, rest) = self
            .layers
            .split_first()
            .expect("compiled model has layers");
        kernel::fused_layer(
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
            let width = layer.weights.n_in();
            let (q, scales) = (&mut scratch.q, &mut scratch.scales);
            quantize(mode, &scratch.cur, width, group_rows, q, scales);
            let act_scales = match (group_rows, scales.first()) {
                ([_], Some(&scale)) => RowScales::Uniform(scale),
                _ => RowScales::PerRow(scales),
            };
            kernel::fused_layer(
                mode,
                q,
                act_scales,
                rows,
                &layer.weights,
                &layer.bias,
                layer.relu,
                &mut scratch.next,
            );
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
    }
}

/// Quantizes each of the groups of `group_rows[i]` rows of `width`
/// elements in `src` on its own into `q`, resized to fit, and files each
/// row's scale in `scales`: by the reference quantizer on
/// [`KernelMode::Scalar`], in lane-parallel passes otherwise.
fn quantize(
    mode: KernelMode,
    src: &[f32],
    width: usize,
    group_rows: &[usize],
    q: &mut Vec<i8>,
    scales: &mut Vec<f32>,
) {
    // Every code is overwritten, so a reused buffer needs no clearing.
    q.resize(src.len(), 0);
    match mode {
        KernelMode::Scalar => {
            scales.clear();
            let mut start = 0;
            for &rows in group_rows {
                let end = start + rows * width;
                let scale = kernel::quantize_reference(&src[start..end], &mut q[start..end]);
                scales.extend(std::iter::repeat_n(scale, rows));
                start = end;
            }
        }
        KernelMode::Vectorized => kernel::quantize_groups(src, width, group_rows, q, scales),
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
        let approx = c.infer(&batch, KernelMode::default());
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
            let approx = c.infer(&Matrix::from_rows(vec![row]), KernelMode::default());
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
        let _ = c.infer(&Matrix::zeros(1, 3), KernelMode::default());
    }

    /// Quantizes each group of `x` on its own, as the serving flush does,
    /// and runs them through [`NpuModel::infer_groups`].
    fn infer_grouped(c: &NpuModel, x: &Matrix, groups: &[usize], mode: KernelMode) -> Matrix {
        let (mut q0, mut scales) = (vec![0; x.as_slice().len()], Vec::new());
        kernel::quantize_groups(x.as_slice(), x.cols(), groups, &mut q0, &mut scales);
        let mut scratch = InferScratch::new();
        let out = c.infer_groups(&q0, &scales, groups, mode, &mut scratch);
        Matrix::from_flat(x.rows(), c.output_size(), out.to_vec())
    }

    #[test]
    fn grouped_inference_isolates_requests() {
        let c = NpuModel::compile(&mlp());
        let infer = |x: Vec<Vec<f32>>| c.infer(&Matrix::from_rows(x), KernelMode::default());
        // Two requests with very different activation ranges: stacked
        // whole-batch quantization would couple their scales.
        let small: Vec<Vec<f32>> = (0..2).map(|i| vec![0.01 * (i + 1) as f32; 21]).collect();
        let large: Vec<Vec<f32>> = (0..3).map(|i| vec![5.0 + i as f32; 21]).collect();
        let mut stacked = small.clone();
        stacked.extend(large.clone());
        let grouped = infer_grouped(
            &c,
            &Matrix::from_rows(stacked.clone()),
            &[2, 3],
            KernelMode::default(),
        );
        let alone_small = infer(small);
        let alone_large = infer(large);
        for r in 0..2 {
            assert_eq!(grouped.row(r), alone_small.row(r), "request 0 row {r}");
        }
        for r in 0..3 {
            assert_eq!(grouped.row(2 + r), alone_large.row(r), "request 1 row {r}");
        }
        // The naive whole-batch path does NOT have this isolation property
        // (which is exactly why the serve path uses groups).
        let naive = infer(stacked);
        assert_ne!(naive.row(0), grouped.row(0));
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn grouped_inference_validates_group_sizes() {
        let c = NpuModel::compile(&mlp());
        let mut scratch = InferScratch::new();
        let _ = c.infer_groups(
            &[0; 4 * 21],
            &[1.0; 4],
            &[2, 1],
            KernelMode::default(),
            &mut scratch,
        );
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
            let reference = c.infer(&batch, KernelMode::Scalar);
            let vectorized = c.infer(&batch, KernelMode::Vectorized);
            assert_eq!(reference, vectorized, "batch of {rows}");
        }
    }

    #[test]
    fn grouped_modes_are_bit_identical() {
        let c = NpuModel::compile(&mlp());
        let batch = feature_batch(9, 4);
        for groups in [vec![9], vec![1; 9], vec![2, 3, 4], vec![4, 0, 5]] {
            let scalar = infer_grouped(&c, &batch, &groups, KernelMode::Scalar);
            let vectorized = infer_grouped(&c, &batch, &groups, KernelMode::Vectorized);
            assert_eq!(scalar, vectorized, "groups {groups:?}");
        }
    }

    #[test]
    fn one_group_matches_whole_batch_inference_with_reused_scratch() {
        let c = NpuModel::compile(&mlp());
        let mut scratch = InferScratch::new();
        let (mut q0, mut scales) = (Vec::new(), Vec::new());
        // Scratch reuse across calls must not leak state between groups.
        for (rows, seed) in [(3, 7), (2, 12), (5, 1)] {
            let batch = feature_batch(rows, seed);
            q0.resize(batch.as_slice().len(), 0);
            kernel::quantize_groups(batch.as_slice(), 21, &[rows], &mut q0, &mut scales);
            let out = c.infer_groups(&q0, &scales, &[rows], KernelMode::Vectorized, &mut scratch);
            let whole = c.infer(&batch, KernelMode::Vectorized);
            assert_eq!(whole.as_slice(), out, "batch of {rows}");
        }
    }
}
