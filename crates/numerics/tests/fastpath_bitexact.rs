//! Property tests pinning the fast-path kernels to their scalar references.
//!
//! The contract (see `gemm` module docs) is *bit-exactness*: for any shape,
//! chunk length, format and data, the fast quantizer, GEMM and convolution
//! paths must produce the same output bits and the same `GemmStats` as the
//! scalar accumulator-driven references.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::format::FpFormat;
use rapid_numerics::gemm::{
    conv2d_emulated, conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int,
    conv2d_int_scalar, conv2d_int_with_simd, matmul_emulated, matmul_emulated_scalar,
    matmul_emulated_with_simd, matmul_int, matmul_int_scalar, matmul_int_with_simd, ConvScratch,
    ConvSpec,
};
use rapid_numerics::dispatch::GEMV_MAX_M;
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{SimdMode, Tensor};

/// Random tensor with roughly a third of the entries zeroed, so zero-gating
/// statistics are exercised alongside the numerics.
fn sparse_mat(shape: Vec<usize>, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut t = Tensor::random_uniform(shape, lo, hi, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0.0;
        }
    }
    t
}

fn assert_bits_eq(fast: &Tensor, scalar: &Tensor) {
    assert_eq!(fast.shape(), scalar.shape());
    for (x, y) in fast.as_slice().iter().zip(scalar.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "fast {x} vs scalar {y}");
    }
}

fn mode_from(idx: u8, bias_a: i32, bias_b: i32) -> FmaMode {
    match idx % 4 {
        0 => FmaMode::Fp16,
        1 => FmaMode::hfp8_fwd_default(),
        2 => FmaMode::Hfp8Fwd { bias_a, bias_b },
        _ => FmaMode::Hfp8Bwd { bias_a },
    }
}

fn int_params_from(idx: u8, abs_max: f32) -> QuantParams {
    let (fmt, signedness) = match idx % 4 {
        0 => (IntFormat::Int4, Signedness::Signed),
        1 => (IntFormat::Int4, Signedness::Unsigned),
        2 => (IntFormat::Int2, Signedness::Signed),
        _ => (IntFormat::Int2, Signedness::Unsigned),
    };
    QuantParams::from_abs_max(fmt, signedness, abs_max)
}

/// `sparse_mat` with A row `zero_row` and B row `zero_row` forced to zero
/// (when in range), so the GEMV gating identity sees whole gated steps
/// and whole gated weight rows.
fn gemv_operands(m: usize, k: usize, n: usize, seed: u64, zero_row: usize) -> (Tensor, Tensor) {
    let mut a = sparse_mat(vec![m, k], seed, -2.0, 2.0);
    let mut b = sparse_mat(vec![k, n], seed.wrapping_add(1), -2.0, 2.0);
    if zero_row < m {
        a.as_mut_slice()[zero_row * k..(zero_row + 1) * k].fill(0.0);
    }
    if zero_row < k {
        b.as_mut_slice()[zero_row * n..(zero_row + 1) * n].fill(0.0);
    }
    (a, b)
}

/// Bumps `x` off multiples of 8 (hence of 16 and 64) and of `chunk_len`,
/// so vector tails and a partial final chunk window are always exercised.
fn ragged(x: usize, chunk_len: usize) -> usize {
    let x = if x.is_multiple_of(8) { x + 1 } else { x };
    if chunk_len > 1 && x.is_multiple_of(chunk_len) {
        ragged(x + 1, chunk_len)
    } else {
        x
    }
}

proptest! {
    /// The slice quantizer (whichever body `RAPID_SIMD` selects) agrees
    /// with `QuantParams::quantize` on arbitrary f32 bit patterns — NaN
    /// payloads, infinities, subnormals, both zeros — and on exact
    /// half-code ties, for every format and signedness, at slice lengths
    /// that leave a ragged tail for the 8-wide vector body.
    #[test]
    fn int_quantize_slice_matches_scalar(
        bits in proptest::collection::vec(0u32..=u32::MAX, 0..70),
        (mant, exp) in (1u32..65_536, -30i32..4),
        fmt_idx in 0u8..4,
        len_cut in 0usize..8,
    ) {
        // A scale with ≤ 16 significant bits: `(c + 0.5) · scale` is then
        // exact in f32, so those inputs are true ties of the f64 quotient.
        let scale = mant as f32 * (exp as f32).exp2();
        let q0 = int_params_from(fmt_idx, 1.0);
        let q = QuantParams::with_scale(q0.format(), q0.signedness(), scale).unwrap();
        let mut xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        xs.extend([0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        xs.extend([f32::from_bits(0x7fa0_0001), f32::from_bits(0xffc1_2345)]);
        xs.extend([f32::from_bits(1), f32::from_bits(0x807f_ffff), f32::MIN_POSITIVE]);
        xs.extend((-17..17).map(|c| (c as f32 + 0.5) * scale));
        xs.truncate(xs.len() - len_cut);
        let mut got = vec![0; 5];
        q.quantize_slice_into(&xs, &mut got);
        prop_assert_eq!(got.len(), xs.len());
        for (&x, &c) in xs.iter().zip(&got) {
            let want = q.quantize(x);
            prop_assert_eq!(c, want, "x {:e} ({:#010x}), scale {:e}", x, x.to_bits(), scale);
        }
    }

    /// Row-streaming GEMV path (m ≤ `GEMV_MAX_M`, plus the first m past
    /// it): INT for every format pair and float for every mode, under
    /// `SimdMode::Force` and `Off`, on ragged n and k spanning several
    /// chunk windows with a partial last one, with an all-zero A row and
    /// an all-zero B row — values and `GemmStats` equal the scalar
    /// references.
    #[test]
    fn gemv_bit_exact_across_backends(
        (m, k, n) in (1usize..=GEMV_MAX_M + 1, 1usize..200, 1usize..200),
        (fmt_a, fmt_b) in (0u8..4, 0u8..4),
        (mode_idx, bias_a, bias_b) in (0u8..4, 4i32..=10, 4i32..=10),
        chunk_len in 1usize..80,
        zero_row in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let (k, n) = (ragged(k, chunk_len), ragged(n, 1));
        let (a, b) = gemv_operands(m, k, n, seed, zero_row);
        let qa = int_params_from(fmt_a, a.max_abs());
        let qb = int_params_from(fmt_b, b.max_abs());
        let (iscalar, iscalar_stats) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
        let mode = mode_from(mode_idx, bias_a, bias_b);
        let (fscalar, fscalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let (ifast, ifast_stats) =
                matmul_int_with_simd(&a, &b, qa, qb, chunk_len, simd).unwrap();
            assert_bits_eq(&ifast, &iscalar);
            prop_assert_eq!(ifast_stats, iscalar_stats, "int {:?}", simd);
            let (ffast, ffast_stats) =
                matmul_emulated_with_simd(mode, &a, &b, chunk_len, simd).unwrap();
            assert_bits_eq(&ffast, &fscalar);
            prop_assert_eq!(ffast_stats, fscalar_stats, "{:?} {:?}", mode, simd);
        }
    }

    /// The dispatching quantizer and the f64-arithmetic reference agree to
    /// the bit on arbitrary f32 payloads, for every RaPiD format including
    /// programmable biases.
    #[test]
    fn quantize_matches_reference_on_arbitrary_bits(
        bits in 0u32..=u32::MAX,
        bias in 2i32..=12,
    ) {
        let x = f32::from_bits(bits);
        for fmt in [
            FpFormat::fp16(),
            FpFormat::fp8_e4m3(),
            FpFormat::fp8_e5m2(),
            FpFormat::fp9(),
            FpFormat::fp8_e4m3_with_bias(bias).unwrap(),
        ] {
            let fast = fmt.quantize(x);
            let reference = fmt.quantize_reference(x);
            prop_assert!(
                fast.to_bits() == reference.to_bits() || (fast.is_nan() && reference.is_nan()),
                "{}: quantize({:e}) fast {:e} != reference {:e}", fmt, x, fast, reference
            );
        }
    }

    /// Float GEMM: fast path (LUT or FP16-value kernel, tiled and
    /// register-blocked) is bit-exact against the ChunkAccumulator loop for
    /// every mode, random shapes and chunk lengths.
    #[test]
    fn float_gemm_bit_exact(
        (m, k, n) in (1usize..12, 1usize..40, 1usize..12),
        mode_idx in 0u8..4,
        bias_a in 4i32..=10,
        bias_b in 4i32..=10,
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mode = mode_from(mode_idx, bias_a, bias_b);
        // Span well past every format's saturation point.
        let a = sparse_mat(vec![m, k], seed, -600.0, 600.0);
        let b = sparse_mat(vec![k, n], seed.wrapping_add(1), -600.0, 600.0);
        let (fast, fast_stats) = matmul_emulated(mode, &a, &b, chunk_len);
        let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);
    }

    /// Integer GEMM: packed-nibble fast path (and its saturating-chunk
    /// fallback) is bit-exact against the IntAccumulator loop, including
    /// chunk lengths long enough that INT16 saturation is possible.
    #[test]
    fn int_gemm_bit_exact(
        (m, k, n) in (1usize..10, 1usize..48, 1usize..10),
        fmt_a in 0u8..4,
        fmt_b in 0u8..4,
        chunk_len in 1usize..1500,
        seed in 0u64..1_000_000,
    ) {
        let a = sparse_mat(vec![m, k], seed, -2.0, 2.0);
        let b = sparse_mat(vec![k, n], seed.wrapping_add(1), -2.0, 2.0);
        let qa = int_params_from(fmt_a, a.max_abs());
        let qb = int_params_from(fmt_b, b.max_abs());
        let (fast, fast_stats) = matmul_int(&a, &b, qa, qb, chunk_len);
        let (scalar, scalar_stats) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);
    }

    /// Float GEMM under every explicit backend pin. `SimdMode::Force`
    /// engages the AVX2 kernels even below the auto threshold, so the
    /// column range spans the 64-column wide kernel, the 16-column cleanup
    /// kernel and the scalar column tail in a single shape; `SimdMode::Off`
    /// pins the portable tiled path. All float modes (FP16, HFP8 fwd with
    /// programmable biases, HFP8 bwd), depths away from lane multiples, and
    /// a B operand materialized from a transpose so panel packing sees
    /// transposed data.
    #[test]
    fn float_gemm_bit_exact_across_backends(
        (m, k, n) in (1usize..5, 1usize..70, 1usize..100),
        mode_idx in 0u8..4,
        bias_a in 4i32..=10,
        bias_b in 4i32..=10,
        chunk_len in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mode = mode_from(mode_idx, bias_a, bias_b);
        let a = sparse_mat(vec![m, k], seed, -600.0, 600.0);
        let b = sparse_mat(vec![n, k], seed.wrapping_add(1), -600.0, 600.0).transposed();
        let (scalar, scalar_stats) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let (fast, fast_stats) =
                matmul_emulated_with_simd(mode, &a, &b, chunk_len, simd).unwrap();
            assert_bits_eq(&fast, &scalar);
            prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
        }
    }

    /// Integer GEMM under every explicit backend pin: bit-sliced popcount
    /// (INT2×INT2), widening madd (other pairs) and the tiled windowed
    /// path must all reproduce the IntAccumulator reference, including
    /// chunk lengths long enough that the saturation guard forces the
    /// scalar accumulator regardless of the pin.
    #[test]
    fn int_gemm_bit_exact_across_backends(
        (m, k, n) in (1usize..4, 1usize..80, 1usize..100),
        fmt_a in 0u8..4,
        fmt_b in 0u8..4,
        chunk_len in 1usize..1500,
        seed in 0u64..1_000_000,
    ) {
        let a = sparse_mat(vec![m, k], seed, -2.0, 2.0);
        let b = sparse_mat(vec![n, k], seed.wrapping_add(1), -2.0, 2.0).transposed();
        let qa = int_params_from(fmt_a, a.max_abs());
        let qb = int_params_from(fmt_b, b.max_abs());
        let (scalar, scalar_stats) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let (fast, fast_stats) = matmul_int_with_simd(&a, &b, qa, qb, chunk_len, simd).unwrap();
            assert_bits_eq(&fast, &scalar);
            prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
        }
    }

    /// Convolution under every explicit backend pin: the panel-packed
    /// float and integer convolutions (spatial sizes crossing the 16- and
    /// 64-column kernel widths) match the scalar convolution bit-for-bit
    /// with SIMD forced and with it pinned off.
    #[test]
    fn conv_bit_exact_across_backends(
        (ni, ci, co) in (1usize..3, 1usize..4, 1usize..5),
        (h, w) in (4usize..11, 4usize..11),
        (kh, kw) in (1usize..4, 1usize..4),
        stride in 1usize..3,
        pad in 0usize..2,
        mode_idx in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        let qa = int_params_from(mode_idx, input.max_abs());
        let qw = int_params_from(mode_idx.wrapping_add(1), weight.max_abs());
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let mut scratch = ConvScratch::default();
            let (fast, fast_stats) =
                conv2d_emulated_with_simd(&input, &weight, spec, mode, 16, &mut scratch, simd)
                    .unwrap();
            assert_bits_eq(&fast, &scalar);
            prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
            let (ifast, ifast_stats) =
                conv2d_int_with_simd(&input, &weight, spec, qa, qw, 16, &mut scratch, simd)
                    .unwrap();
            assert_bits_eq(&ifast, &iscalar);
            prop_assert_eq!(ifast_stats, iscalar_stats, "{:?}", simd);
        }
    }

    /// Convolution: im2col scratch reuse + fast GEMM is bit-exact against
    /// the scalar convolution for random geometries, float and int.
    #[test]
    fn conv_bit_exact(
        (ni, ci, co) in (1usize..3, 1usize..4, 1usize..5),
        (h, w) in (3usize..8, 3usize..8),
        (kh, kw) in (1usize..4, 1usize..4),
        stride in 1usize..3,
        pad in 0usize..2,
        mode_idx in 0u8..4,
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let input = sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0);
        let weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let mode = mode_from(mode_idx, 7, 7);
        let (fast, fast_stats) = conv2d_emulated(&input, &weight, spec, mode, 16);
        let (scalar, scalar_stats) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        assert_bits_eq(&fast, &scalar);
        prop_assert_eq!(fast_stats, scalar_stats);

        let qa = int_params_from(mode_idx, input.max_abs());
        let qw = int_params_from(mode_idx.wrapping_add(1), weight.max_abs());
        let (ifast, ifast_stats) = conv2d_int(&input, &weight, spec, qa, qw, 16);
        let (iscalar, iscalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 16);
        assert_bits_eq(&ifast, &iscalar);
        prop_assert_eq!(ifast_stats, iscalar_stats);
    }

    /// Code-domain integer convolution (NHWC codes quantized once, rows
    /// built per tap, the blocked `maddubs` or bit-sliced kernel): values
    /// and `GemmStats` equal the scalar im2col reference under `Force`
    /// and `Off`, for every signedness pair, with channel counts crossing
    /// the 32- and 64-channel pads, output channels crossing the 4-row
    /// block, independent kernel heights and widths, strides and pads
    /// up to and beyond the kernel size, an all-zero input and an
    /// all-zero weight row.
    #[test]
    fn int_conv_code_domain_bit_exact(
        (ni, ci, co) in (1usize..3, 1usize..70, 1usize..10),
        (h, w) in (1usize..9, 1usize..9),
        (kh, kw) in (1usize..4, 1usize..4),
        (stride, pad) in (1usize..4, 0usize..4),
        (fmt_a, fmt_w) in (0u8..4, 0u8..4),
        (zero_input, zero_row) in (0u8..8, 0usize..12),
        seed in 0u64..1_000_000,
    ) {
        let spec = ConvSpec { stride, pad };
        let mut input = sparse_mat(vec![ni, ci, h, w], seed, -2.0, 2.0);
        if zero_input == 0 {
            input.as_mut_slice().fill(0.0);
        }
        let mut weight = sparse_mat(vec![co, ci, kh, kw], seed.wrapping_add(1), -1.0, 1.0);
        let row = ci * kh * kw;
        if zero_row < co {
            weight.as_mut_slice()[zero_row * row..(zero_row + 1) * row].fill(0.0);
        }
        let qa = int_params_from(fmt_a, input.max_abs());
        let qw = int_params_from(fmt_w, weight.max_abs());
        let (scalar, scalar_stats) = conv2d_int_scalar(&input, &weight, spec, qa, qw, 64);
        for simd in [SimdMode::Force, SimdMode::Off] {
            let mut scratch = ConvScratch::default();
            // Twice through one scratch: the second call reuses the
            // bordered buffer, whose border must still be zero.
            for _ in 0..2 {
                let (fast, fast_stats) =
                    conv2d_int_with_simd(&input, &weight, spec, qa, qw, 64, &mut scratch, simd)
                        .unwrap();
                assert_bits_eq(&fast, &scalar);
                prop_assert_eq!(fast_stats, scalar_stats, "{:?}", simd);
            }
        }
    }
}
