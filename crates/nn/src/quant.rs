//! 16-bit parameter quantization.
//!
//! The paper's accelerator stores every operand — weights, activations,
//! thresholds — at 16-bit precision (Table IV). This module provides the
//! symmetric linear quantizer used when packing models for "DRAM"
//! deployment, plus helpers for quantizing a whole network in place so
//! the accuracy impact of the paper's precision choice can be measured
//! (see the `quantization` integration test and `examples/quickstart`).

use crate::Sequential;
use mime_tensor::Tensor;

/// A tensor quantized to `i16` with a single symmetric scale.
///
/// `value ≈ q · scale`, with `scale = max|x| / 32767`. Exact zeros stay
/// exactly zero, so quantization never destroys activation sparsity.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTensor {
    dims: Vec<usize>,
    scale: f32,
    values: Vec<i16>,
}

impl QuantizedTensor {
    /// Quantizes a tensor at 16-bit symmetric precision.
    pub fn quantize(t: &Tensor) -> Self {
        let max = t.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if max == 0.0 { 1.0 } else { max / i16::MAX as f32 };
        let values = t
            .as_slice()
            .iter()
            .map(|&x| (x / scale).round().clamp(i16::MIN as f32, i16::MAX as f32) as i16)
            .collect();
        QuantizedTensor { dims: t.dims().to_vec(), scale, values }
    }

    /// Reconstructs the floating-point tensor.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.values.iter().map(|&q| q as f32 * self.scale).collect(),
            &self.dims,
        )
        .expect("dims/values stay consistent by construction")
    }

    /// Tensor shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The raw 16-bit payload.
    pub fn values(&self) -> &[i16] {
        &self.values
    }

    /// Storage footprint in bytes (payload only, 2 bytes per value).
    pub fn payload_bytes(&self) -> usize {
        self.values.len() * 2
    }

    /// Rebuilds from raw parts, such as a deployment image tensor's dims,
    /// scale and words (the unpacker decodes those to `f32` in one pass,
    /// bit-identical to this type's [`dequantize`](Self::dequantize)).
    ///
    /// # Errors
    ///
    /// Returns a length mismatch when `values` does not match `dims`.
    pub fn from_parts(
        dims: Vec<usize>,
        scale: f32,
        values: Vec<i16>,
    ) -> mime_tensor::Result<Self> {
        let expected: usize = dims.iter().product();
        if values.len() != expected {
            return Err(mime_tensor::TensorError::LengthMismatch {
                expected,
                actual: values.len(),
            });
        }
        Ok(QuantizedTensor { dims, scale, values })
    }
}

/// Worst-case absolute rounding error of a 16-bit symmetric quantizer for
/// a tensor with the given max-abs value: half a quantization step.
pub fn quantization_error_bound(max_abs: f32) -> f32 {
    (max_abs / i16::MAX as f32) * 0.5
}

/// Quantize–dequantize every parameter of a network in place, simulating
/// 16-bit parameter storage.
pub fn quantize_network(net: &mut Sequential) {
    for p in net.parameters_mut() {
        p.value = QuantizedTensor::quantize(&p.value).dequantize();
    }
}

/// Symmetric fake-quantization at an arbitrary bit width: rounds every
/// value to the nearest representable level of a signed `bits`-bit code
/// and returns the dequantized tensor. Exact zeros stay zero.
///
/// Used by the precision ablation to ask how far below the paper's
/// 16-bit storage the threshold banks can be pushed.
///
/// # Panics
///
/// Panics unless `2 ≤ bits ≤ 16`.
pub fn fake_quantize(t: &Tensor, bits: u32) -> Tensor {
    assert!((2..=16).contains(&bits), "bits must be in 2..=16");
    let max = t.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max == 0.0 {
        return t.clone();
    }
    let levels = ((1i32 << (bits - 1)) - 1) as f32;
    let scale = max / levels;
    t.map(|x| (x / scale).round().clamp(-levels - 1.0, levels) * scale)
}

/// Storage bytes of `len` values at `bits` bits each (rounded up to whole
/// bytes over the whole payload).
pub fn payload_bytes_at(len: usize, bits: u32) -> usize {
    (len * bits as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_error_within_bound() {
        let t = Tensor::from_fn(&[1000], |i| ((i as f32) * 0.37).sin() * 2.5);
        let q = QuantizedTensor::quantize(&t);
        let back = q.dequantize();
        let bound = quantization_error_bound(2.5) * 1.001;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
        assert_eq!(q.payload_bytes(), 2000);
    }

    #[test]
    fn zeros_stay_exactly_zero() {
        let t = Tensor::from_slice(&[0.0, 1.0, 0.0, -2.0]);
        let back = QuantizedTensor::quantize(&t).dequantize();
        assert_eq!(back.as_slice()[0], 0.0);
        assert_eq!(back.as_slice()[2], 0.0);
        assert_eq!(back.sparsity(), t.sparsity());
    }

    #[test]
    fn all_zero_tensor_is_stable() {
        let t = Tensor::zeros(&[8]);
        let q = QuantizedTensor::quantize(&t);
        assert_eq!(q.dequantize().as_slice(), t.as_slice());
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn extreme_values_saturate_cleanly() {
        let t = Tensor::from_slice(&[f32::MAX / 2.0, -f32::MAX / 2.0, 1.0]);
        let back = QuantizedTensor::quantize(&t).dequantize();
        assert!(back.as_slice().iter().all(|x| x.is_finite()));
        assert_eq!(back.as_slice()[0], -back.as_slice()[1]);
    }

    #[test]
    fn from_parts_validates() {
        assert!(QuantizedTensor::from_parts(vec![3], 1.0, vec![1, 2]).is_err());
        let q = QuantizedTensor::from_parts(vec![2], 0.5, vec![2, -4]).unwrap();
        assert_eq!(q.dequantize().as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn fake_quantize_error_shrinks_with_bits() {
        let t = Tensor::from_fn(&[512], |i| ((i as f32) * 0.13).sin());
        let err = |bits: u32| {
            let q = fake_quantize(&t, bits);
            t.as_slice()
                .iter()
                .zip(q.as_slice())
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0, f64::max)
        };
        assert!(err(4) > err(8));
        assert!(err(8) > err(12));
        assert!(err(16) < 1e-4);
        // zeros preserved at any width
        let z = Tensor::from_slice(&[0.0, 1.0]);
        assert_eq!(fake_quantize(&z, 4).as_slice()[0], 0.0);
        assert_eq!(fake_quantize(&Tensor::zeros(&[3]), 8).as_slice(), &[0.0; 3]);
    }

    #[test]
    fn payload_bytes_rounding() {
        assert_eq!(payload_bytes_at(4, 16), 8);
        assert_eq!(payload_bytes_at(4, 8), 4);
        assert_eq!(payload_bytes_at(3, 4), 2); // 12 bits → 2 bytes
        assert_eq!(payload_bytes_at(0, 8), 0);
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn fake_quantize_rejects_bad_width() {
        let _ = fake_quantize(&Tensor::ones(&[1]), 1);
    }

    #[test]
    fn quantized_network_output_close_to_fp32() {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = build_network(&arch, &mut rng);
        let x = Tensor::from_fn(&[1, 3, 32, 32], |i| ((i % 9) as f32 - 4.0) * 0.1);
        let y_fp = net.forward(&x).unwrap();
        quantize_network(&mut net);
        let y_q = net.forward(&x).unwrap();
        for (a, b) in y_fp.as_slice().iter().zip(y_q.as_slice()) {
            assert!((a - b).abs() < 0.05 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }
}
