//! Row-streaming kernels for small-m matmuls (GEMVs and near-GEMVs).
//!
//! With at most [`dispatch::GEMV_MAX_M`] rows of A, the blocked kernels in
//! [`crate::gemm`] spend almost nothing on MACs: they first transpose all
//! k×n weight codes into column panels, interleave them for the vector
//! kernel and build one zero bitmask per column, and each of those passes
//! touches as much memory as the MACs do. These kernels instead walk B in
//! its natural row-major `[k, n]` layout, one weight row `p` at a time,
//! adding `a[i,p] · B[p,:]` into per-column accumulator lanes:
//!
//! * INT: exact i32 lanes, flushed to i64 at chunk boundaries (the caller's
//!   saturation guard bounds each window sum by `i16::MAX`, so the lanes
//!   cannot overflow, and integer addition is order-free). B arrives as
//!   f32 and is quantized one cache-resident row segment at a time, just
//!   before its MACs, so no k×n code buffer exists either;
//! * FP16: lattice-value lanes holding, per column, the FP16 chunk register
//!   and the outer f32 register of the blocked `dot_fp16_block`;
//! * HFP8: the same float lanes fed FP9 operand values from
//!   [`crate::lut::ProductLut`]'s operand tables — their f32 product *is*
//!   the product-table entry — with zero products remapped to `-0.0`.
//!
//! Each output column sees the blocked kernels' op sequence in the same k
//! order, so results are bit-identical. A step whose A value is zero is
//! skipped: its `-0.0` products would leave every lattice register as it
//! is (see [`crate::simd`]). Columns go in tiles of at most `TILE_LANES`
//! lanes summed over rows, so the lanes stay cache-resident while B
//! streams through once per call.
//!
//! Zero-gating statistics come from per-row zero counts instead of masks:
//! a MAC `(i, p, j)` is gated when `a[i,p]` or `B[p,j]` is zero, so row `i`
//! gates `n · zeros(a_i) + Σ_{p : a[i,p] ≠ 0} zeros(B_p)` — the popcount of
//! the unioned masks, without the masks. `zeros(B_p)` is counted while the
//! row is in cache, and only when some row of the band needs it.
//!
//! `RAPID_SIMD` picks the inner loop, not the layout: the same Rust body
//! is compiled twice, for the baseline target and in an AVX2
//! `#[target_feature]` clone, and [`dispatch::simd_inner`] chooses.

use crate::dispatch::{self, SimdMode};
use crate::gemm::{fp16_round_sum, fp16_round_sum_sel, GemmStats};
use crate::int::QuantParams;
use crate::lut::is_zero_code;
use std::ops::Range;

/// Accumulator lanes per column tile, summed over the band's rows (32 KiB
/// of i32 or f32 lanes). A single-row GEMV up to this wide walks each B
/// row in one sequential pass, which the hardware prefetcher follows;
/// narrower tiles for more rows keep every row's lanes cache-resident.
const TILE_LANES: usize = 8192;

/// Columns per tile for a band of `rows` (≤ `GEMV_MAX_M`) rows.
fn tile_width(rows: usize, n: usize) -> usize {
    (TILE_LANES / rows).min(n)
}

/// The B operand of a row-streamed float matmul, row-major `[k, n]`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatB<'a> {
    /// FP16 lattice values (gated where zero).
    Values(&'a [f32]),
    /// 8-bit codes (gated where the code is zero) with their FP9 operand
    /// values, indexed by code.
    Codes(&'a [u8], &'a [f32; 256]),
}

impl FloatB<'_> {
    /// Gated (zero) elements in `span`.
    #[inline(always)]
    fn zeros(&self, span: Range<usize>) -> u64 {
        match self {
            FloatB::Values(v) => count_zeros(&v[span], |y| y == 0.0),
            FloatB::Codes(c, _) => count_zeros(&c[span], is_zero_code),
        }
    }
}

/// Elements of `xs` that `is_zero` holds for, summed as u8 over runs of
/// 255 so the count vectorizes 32 lanes wide. A plain `filter().count()`
/// widens every lane to u64 and cost as much as the INT MAC loop.
#[inline(always)]
fn count_zeros<T: Copy>(xs: &[T], is_zero: impl Fn(T) -> bool) -> u64 {
    xs.chunks(255)
        .map(|run| u64::from(run.iter().fold(0u8, |z, &x| z + u8::from(is_zero(x)))))
        .sum()
}

/// Fills the row-major `band` (`rows × n`) with the chunk-windowed integer
/// products of the A-code rows `arows` and the f32 matrix `b` quantized by
/// `qb`, scaled by `out_scale`, and returns the band's statistics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn int_rows(
    arows: &[i8],
    b: &[f32],
    qb: QuantParams,
    k: usize,
    n: usize,
    chunk_len: usize,
    out_scale: f32,
    simd: SimdMode,
    band: &mut [f32],
) -> GemmStats {
    #[cfg(target_arch = "x86_64")]
    if dispatch::simd_inner(simd) {
        // SAFETY: `simd_inner` is true only when AVX2 is available.
        return unsafe { int_rows_avx2(arows, b, qb, k, n, chunk_len, out_scale, simd, band) };
    }
    int_tiles(arows, b, qb, k, n, chunk_len, out_scale, simd, band)
}

/// Fills the row-major `band` (`rows × n`) with the chunk-accumulated
/// FP16 products of the A rows — FP9 or lattice values `arows`, gated
/// where `a_zero` — and `b`, and returns the band's statistics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn float_rows(
    arows: &[f32],
    a_zero: &[bool],
    b: FloatB<'_>,
    k: usize,
    n: usize,
    chunk_len: usize,
    simd: SimdMode,
    band: &mut [f32],
) -> GemmStats {
    #[cfg(target_arch = "x86_64")]
    if dispatch::simd_inner(simd) {
        // SAFETY: `simd_inner` is true only when AVX2 is available.
        return unsafe { float_rows_avx2(arows, a_zero, b, k, n, chunk_len, band) };
    }
    float_tiles(arows, a_zero, b, k, n, chunk_len, band)
}

/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn int_rows_avx2(
    arows: &[i8],
    b: &[f32],
    qb: QuantParams,
    k: usize,
    n: usize,
    chunk_len: usize,
    out_scale: f32,
    simd: SimdMode,
    band: &mut [f32],
) -> GemmStats {
    int_tiles(arows, b, qb, k, n, chunk_len, out_scale, simd, band)
}

/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn float_rows_avx2(
    arows: &[f32],
    a_zero: &[bool],
    b: FloatB<'_>,
    k: usize,
    n: usize,
    chunk_len: usize,
    band: &mut [f32],
) -> GemmStats {
    float_tiles(arows, a_zero, b, k, n, chunk_len, band)
}

/// Band statistics: every MAC issued, `gated` of them zero-gated.
fn band_stats(rows: usize, k: usize, n: usize, gated: u64) -> GemmStats {
    GemmStats { macs: (rows * k * n) as u64, zero_gated: gated, saturations: 0, guard_clamps: 0 }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn int_tiles(
    arows: &[i8],
    b: &[f32],
    qb: QuantParams,
    k: usize,
    n: usize,
    chunk_len: usize,
    out_scale: f32,
    simd: SimdMode,
    band: &mut [f32],
) -> GemmStats {
    let rows = band.len() / n;
    let tile = tile_width(rows, n);
    let mut acc = vec![0i32; rows * tile];
    let mut outer = vec![0i64; rows * tile];
    let mut brow = Vec::with_capacity(tile);
    let mut gated = 0u64;
    for j0 in (0..n).step_by(tile) {
        let w = tile.min(n - j0);
        acc.fill(0);
        outer.fill(0);
        let mut in_chunk = 0;
        for p in 0..k {
            let live = (0..rows).filter(|&r| arows[r * k + p] != 0).count();
            gated += ((rows - live) * w) as u64;
            if live > 0 {
                // Weight codes are made here, a cache-resident row segment
                // at a time, and only for steps some row uses.
                qb.quantize_codes_into(&b[p * n + j0..p * n + j0 + w], &mut brow, simd);
                gated += live as u64 * count_zeros(&brow, |y| y == 0);
                for (r, lanes) in acc.chunks_exact_mut(tile).enumerate() {
                    let a = i32::from(arows[r * k + p]);
                    if a != 0 {
                        for (s, &y) in lanes[..w].iter_mut().zip(&brow) {
                            *s += a * i32::from(y);
                        }
                    }
                }
            }
            in_chunk += 1;
            if in_chunk == chunk_len {
                for (o, s) in outer.iter_mut().zip(&mut acc) {
                    *o += i64::from(*s);
                    *s = 0;
                }
                in_chunk = 0;
            }
        }
        for (r, orow) in band.chunks_exact_mut(n).enumerate() {
            let lanes = acc[r * tile..].iter().zip(&outer[r * tile..]);
            for (o, (&s, &t)) in orow[j0..j0 + w].iter_mut().zip(lanes) {
                *o = (t + i64::from(s)) as f32 * out_scale;
            }
        }
    }
    band_stats(rows, k, n, gated)
}

#[inline(always)]
fn float_tiles(
    arows: &[f32],
    a_zero: &[bool],
    b: FloatB<'_>,
    k: usize,
    n: usize,
    chunk_len: usize,
    band: &mut [f32],
) -> GemmStats {
    let rows = band.len() / n;
    let tile = tile_width(rows, n);
    let mut chunk = vec![0.0f32; rows * tile];
    let mut outer = vec![0.0f32; rows * tile];
    let mut decoded = vec![0.0f32; tile];
    let mut gated = 0u64;
    for j0 in (0..n).step_by(tile) {
        let w = tile.min(n - j0);
        chunk.fill(0.0);
        outer.fill(0.0);
        let mut in_chunk = 0;
        for p in 0..k {
            let live = (0..rows).filter(|&r| !a_zero[r * k + p]).count();
            gated += ((rows - live) * w) as u64;
            if live > 0 {
                let span = p * n + j0..p * n + j0 + w;
                gated += live as u64 * b.zeros(span.clone());
                let brow: &[f32] = match b {
                    FloatB::Values(v) => &v[span],
                    FloatB::Codes(codes, operands) => {
                        for (d, &c) in decoded.iter_mut().zip(&codes[span]) {
                            *d = operands[usize::from(c)];
                        }
                        &decoded[..w]
                    }
                };
                for (r, lanes) in chunk.chunks_exact_mut(tile).enumerate() {
                    // Gated rows have x == 0; so may live ones (an FP9
                    // underflow), and either way the step is skipped.
                    let x = arows[r * k + p];
                    if x == 0.0 {
                        continue;
                    }
                    for (c, &y) in lanes[..w].iter_mut().zip(brow) {
                        // Exact-zero products become -0.0, the additive
                        // identity, as in the blocked kernels.
                        let prod = x * y;
                        let zero = f32::from_bits(prod.to_bits() | 0x8000_0000);
                        let prod = if prod == 0.0 { zero } else { prod };
                        *c = fp16_round_sum_sel(*c + prod);
                    }
                }
            }
            in_chunk += 1;
            if in_chunk == chunk_len {
                for (o, c) in outer.iter_mut().zip(&mut chunk) {
                    *o += *c;
                    *c = 0.0;
                }
                in_chunk = 0;
            }
        }
        for (r, orow) in band.chunks_exact_mut(n).enumerate() {
            let lanes = chunk[r * tile..].iter().zip(&outer[r * tile..]);
            for (o, (&c, &t)) in orow[j0..j0 + w].iter_mut().zip(lanes) {
                *o = fp16_round_sum(t + c);
            }
        }
    }
    band_stats(rows, k, n, gated)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fma::FmaMode;
    use crate::gemm::{
        matmul_emulated_scalar, matmul_emulated_with_simd, matmul_int_scalar,
        matmul_int_with_simd,
    };
    use crate::int::Signedness::{Signed, Unsigned};
    use crate::int::{IntFormat, QuantParams};
    use crate::tensor::Tensor;

    /// An empty reduction (k = 0) yields zeros and no gated MACs, as in
    /// the scalar references.
    #[test]
    fn empty_reduction_matches_scalar() {
        for (m, n) in [(1, 5), (3, 2)] {
            let a = Tensor::zeros(vec![m, 0]);
            let b = Tensor::zeros(vec![0, n]);
            let q = QuantParams::from_abs_max(IntFormat::Int4, Signed, 1.0);
            let want = matmul_int_scalar(&a, &b, q, q, 64);
            let fwant = matmul_emulated_scalar(FmaMode::Fp16, &a, &b, 64);
            for simd in [SimdMode::Force, SimdMode::Off] {
                assert_eq!(matmul_int_with_simd(&a, &b, q, q, 64, simd).unwrap(), want);
                let got = matmul_emulated_with_simd(FmaMode::Fp16, &a, &b, 64, simd).unwrap();
                assert_eq!(got, fwant);
            }
        }
    }

    /// Shapes wider than one column tile — for a single row, and for
    /// `GEMV_MAX_M` rows whether they run as one band or are split across
    /// two threads — stay bit-exact, stats included.
    #[test]
    fn multi_tile_rows_match_scalar() {
        let m_max = dispatch::GEMV_MAX_M;
        for (m, k, n) in [(1, 21, TILE_LANES + 9), (m_max, 37, 2 * TILE_LANES / m_max + 5)] {
            assert!(n > tile_width(m.div_ceil(2), n));
            let mut a = Tensor::random_uniform(vec![m, k], -1.0, 1.0, 5);
            a.as_mut_slice().iter_mut().step_by(3).for_each(|v| *v = 0.0);
            let mut b = Tensor::random_uniform(vec![k, n], -1.0, 1.0, 6);
            b.as_mut_slice().iter_mut().step_by(7).for_each(|v| *v = 0.0);
            let qa = QuantParams::from_abs_max(IntFormat::Int4, Unsigned, a.max_abs());
            let qb = QuantParams::from_abs_max(IntFormat::Int4, Signed, b.max_abs());
            let int_ref = matmul_int_scalar(&a, &b, qa, qb, 16);
            let modes = [FmaMode::Fp16, FmaMode::hfp8_bwd_default()];
            let float_refs = modes.map(|mode| matmul_emulated_scalar(mode, &a, &b, 16));
            for simd in [SimdMode::Force, SimdMode::Off] {
                let got = matmul_int_with_simd(&a, &b, qa, qb, 16, simd).unwrap();
                assert_eq!(got.0, int_ref.0, "int {m}x{k}x{n} {simd}");
                assert_eq!(got.1, int_ref.1, "int {m}x{k}x{n} {simd}");
                for (mode, want) in modes.iter().zip(&float_refs) {
                    let got = matmul_emulated_with_simd(*mode, &a, &b, 16, simd).unwrap();
                    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
                    let (got_bits, want_bits): (Vec<u32>, Vec<u32>) = (bits(&got.0), bits(&want.0));
                    assert_eq!(got_bits, want_bits, "{mode:?} {m}x{k}x{n} {simd}");
                    assert_eq!(got.1, want.1, "{mode:?} {m}x{k}x{n} {simd}");
                }
            }
        }
    }
}
