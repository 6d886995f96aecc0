//! How the benchmark multiplies a layer's operands through the `numerics`
//! entry points, fast and scalar-reference, and replays their operand
//! quantization stage.

use crate::floor;
use rapid_arch::precision::Precision;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{
    conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int_scalar, conv2d_int_with_simd,
    matmul_emulated_checked, matmul_emulated_scalar, matmul_int_checked, matmul_int_scalar,
    ConvScratch, ConvSpec, GemmStats,
};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{NumericsError, QTensor, SimdMode, Tensor};
use std::time::Instant;

/// MPE accumulation chunk (the dataflow's LRF reload interval).
pub const CHUNK: usize = 64;

/// How a compute layer's operands are multiplied.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Integer FXU pipeline: weights quantized with fixed parameters,
    /// activations with parameters taken from each input's range.
    Int {
        weights: QuantParams,
        act: Signedness,
    },
    /// Floating-point FPU pipeline.
    Float(FmaMode),
}

impl Kernel {
    /// The kernel for a layer at `precision` whose weights are `w`.
    ///
    /// # Errors
    ///
    /// FP32, which the MPE array does not run.
    pub fn for_precision(
        precision: Precision,
        w: &Tensor,
        act: Signedness,
    ) -> Result<Self, String> {
        let int = |f| Kernel::Int {
            weights: QuantParams::from_abs_max(f, Signedness::Signed, w.max_abs()),
            act,
        };
        Ok(match precision {
            Precision::Int4 => int(IntFormat::Int4),
            Precision::Int2 => int(IntFormat::Int2),
            Precision::Fp16 => Kernel::Float(FmaMode::Fp16),
            Precision::Hfp8 => Kernel::Float(FmaMode::hfp8_fwd_default()),
            Precision::Fp32 => return Err("FP32 layers do not run on the MPE array".into()),
        })
    }

    /// Activation parameters for input `x`: taken from its range, as a
    /// dynamic-range quantizer does on every call.
    fn act_params(weights: QuantParams, act: Signedness, x: &Tensor) -> QuantParams {
        QuantParams::from_abs_max(weights.format(), act, x.max_abs())
    }

    /// Conv through the fast entry points.
    pub fn conv(
        &self,
        x: &Tensor,
        w: &Tensor,
        spec: ConvSpec,
        scratch: &mut ConvScratch,
    ) -> Result<(Tensor, GemmStats), NumericsError> {
        let simd = SimdMode::from_env();
        match *self {
            Kernel::Int { weights, act } => conv2d_int_with_simd(
                x,
                w,
                spec,
                Self::act_params(weights, act, x),
                weights,
                CHUNK,
                scratch,
                simd,
            ),
            Kernel::Float(mode) => {
                conv2d_emulated_with_simd(x, w, spec, mode, CHUNK, scratch, simd)
            }
        }
    }

    /// Conv through the scalar references.
    pub fn conv_scalar(&self, x: &Tensor, w: &Tensor, spec: ConvSpec) -> (Tensor, GemmStats) {
        match *self {
            Kernel::Int { weights, act } => conv2d_int_scalar(
                x,
                w,
                spec,
                Self::act_params(weights, act, x),
                weights,
                CHUNK,
            ),
            Kernel::Float(mode) => conv2d_emulated_scalar(x, w, spec, mode, CHUNK),
        }
    }

    /// Matrix multiply through the fast entry points.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<(Tensor, GemmStats), NumericsError> {
        match *self {
            Kernel::Int { weights, act } => {
                matmul_int_checked(a, b, Self::act_params(weights, act, a), weights, CHUNK)
            }
            Kernel::Float(mode) => matmul_emulated_checked(mode, a, b, CHUNK),
        }
    }

    /// Matrix multiply through the scalar references.
    pub fn matmul_scalar(&self, a: &Tensor, b: &Tensor) -> (Tensor, GemmStats) {
        match *self {
            Kernel::Int { weights, act } => {
                matmul_int_scalar(a, b, Self::act_params(weights, act, a), weights, CHUNK)
            }
            Kernel::Float(mode) => matmul_emulated_scalar(mode, a, b, CHUNK),
        }
    }

    /// Replays the kernel's operand quantization: `(weight ns, activation
    /// ns)` for weight operand `w` and activation operand `x` (the im2col
    /// matrix for a conv).
    pub fn replay_quantize(&self, w: &Tensor, x: &Tensor) -> (f64, f64) {
        let time = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        };
        match *self {
            Kernel::Int { weights, act } => {
                let qa = Self::act_params(weights, act, x);
                let mut codes = Vec::new();
                let tw = time(&mut || weights.quantize_slice_into(w.as_slice(), &mut codes));
                (
                    tw,
                    time(&mut || qa.quantize_slice_into(x.as_slice(), &mut codes)),
                )
            }
            Kernel::Float(mode) => {
                let (fa, fb) = mode.operand_formats();
                let tw = time(&mut || drop(std::hint::black_box(QTensor::quantize(w, fb))));
                (
                    tw,
                    time(&mut || drop(std::hint::black_box(QTensor::quantize(x, fa)))),
                )
            }
        }
    }

    /// This kernel with its weight parameters re-derived for weights `w`.
    pub fn for_weights(&self, w: &Tensor) -> Kernel {
        match *self {
            Kernel::Int { weights, act } => Kernel::Int {
                weights: QuantParams::from_abs_max(
                    weights.format(),
                    Signedness::Signed,
                    w.max_abs(),
                ),
                act,
            },
            k @ Kernel::Float(_) => k,
        }
    }

    /// SQNR floor of this kernel's precision.
    pub fn floor(&self) -> f64 {
        match self {
            Kernel::Int { .. } => floor::INT4,
            Kernel::Float(FmaMode::Fp16) => floor::FP16,
            Kernel::Float(_) => floor::HFP8,
        }
    }
}
