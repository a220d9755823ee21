//! Symmetric int8 quantization.

/// An int8-quantized tensor with a single symmetric scale:
/// `real ≈ scale · q`.
///
/// # Examples
///
/// ```
/// use npu::QuantizedTensor;
/// let q = QuantizedTensor::quantize(&[0.5, -1.0, 0.25]);
/// let back = q.dequantize();
/// assert!((back[1] + 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    scale: f32,
    values: Vec<i8>,
}

impl QuantizedTensor {
    /// Quantizes a float buffer with a symmetric per-tensor scale.
    ///
    /// An all-zero (or empty) buffer gets scale 1.0.
    pub fn quantize(data: &[f32]) -> Self {
        let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let values = data
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedTensor { scale, values }
    }

    /// The scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw int8 values.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reconstructs the float values.
    pub fn dequantize(&self) -> Vec<f32> {
        self.values.iter().map(|&q| q as f32 * self.scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_bounded() {
        let data: Vec<f32> = (-100..=100).map(|i| i as f32 * 0.013).collect();
        let q = QuantizedTensor::quantize(&data);
        let back = q.dequantize();
        let max_abs = 100.0 * 0.013;
        for (orig, rec) in data.iter().zip(&back) {
            assert!(
                (orig - rec).abs() <= q.scale() * 0.50005 + 1e-6,
                "error beyond half-step: {orig} vs {rec}"
            );
        }
        // Scale covers the full range.
        assert!((q.scale() - max_abs / 127.0).abs() < 1e-6);
    }

    #[test]
    fn zero_tensor_is_stable() {
        let q = QuantizedTensor::quantize(&[0.0, 0.0]);
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.dequantize(), vec![0.0, 0.0]);
    }

    #[test]
    fn extremes_map_to_127() {
        let q = QuantizedTensor::quantize(&[2.0, -2.0, 1.0]);
        assert_eq!(q.values()[0], 127);
        assert_eq!(q.values()[1], -127);
        assert_eq!(q.values()[2], 64); // 1.0 / (2/127) = 63.5 -> 64
    }
}
