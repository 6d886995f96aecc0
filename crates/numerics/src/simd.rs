//! AVX2 vector kernels for the emulated GEMM fast paths.
//!
//! Two inner-loop families, selected by [`crate::dispatch`]:
//!
//! * [`dot_fp16_groups_wide`] / [`dot_fp16_group16`] — the float MAC loop
//!   over interleaved 16-column B panels: broadcast the A value,
//!   multiply against the contiguous panel, remap exact-zero products to
//!   `-0.0` (the IEEE additive identity the scalar kernel's gate uses),
//!   then run the DLFloat16 chunk rounding entirely in integer lanes.
//!   The same kernel serves both float modes: FP16 runs on lattice
//!   values directly, and the HFP8 LUT path feeds it **pre-decoded FP9
//!   operand values** — `ProductLut::product(ca, cb)` factors bit-exactly
//!   into `a_operands[ca] * b_operands[cb]` (the table entry *is* that
//!   f32 multiply), so one `vmulps` replaces a `vpgatherdps` from the 64K
//!   table. A gather variant was tried first; at ~3 cycles per 8-lane
//!   gather (the per-step index row is only 1 KiB, L1-resident) it was
//!   strictly slower than the multiply it replaces.
//! * [`int_dot_tile`] — exact integer dot products over `i8` codes,
//!   register-blocked 4 lhs rows × 2 rhs rows: `maddubs` multiplies
//!   unsigned by signed bytes into i16 pairs, `madd(·, 1)` widens them
//!   into i32 lanes, and one horizontal-add tree reduces all eight
//!   accumulators of a block. Only called when the chunk guard rules out
//!   INT16 saturation, where the windowed tiled sum equals the plain dot
//!   product exactly (order-independent integer addition), so the result
//!   is bit-identical.
//!
//! The float kernels are **latency-bound**, not throughput-bound: each
//! chunk register advances through `vaddps` + the ~12-op rounding sequence
//! serially per k step (the order is the bit-exactness contract, so it
//! cannot be reassociated). The `_wide` variants therefore walk
//! [`WIDE_GROUPS`] column groups per k sweep — 8 independent accumulation
//! chains — hiding that chain latency behind instruction-level
//! parallelism; the 16-column variants clean up the remainder. k steps
//! whose broadcast A value is exactly zero skip the whole multiply+round
//! sweep: every product would be `-0.0` after the remap, and `round8` is
//! idempotent on its own outputs (a non-saturated input always rounds to
//! magnitude ≤ `MAX_BITS` with zero low-14 bits, and re-rounding such a
//! value — or `0`, `±MIN_NORMAL` — returns it unchanged), so the chunk
//! registers would come back bit-identical. The integer kernels amortize
//! per-call overhead (and the `#[target_feature]` call boundary) by
//! computing a whole output tile per call.
//!
//! Bit-exactness of the float kernels rests on two facts: `vaddps` /
//! `vmulps` are IEEE single ops identical to scalar `f32` arithmetic, and
//! `round8` performs lane-wise exactly the integer-bit computation of
//! the scalar `fp16_round_sum_sel` (unsigned compares emulated by biasing
//! both sides with the sign bit). `vector_rounder_matches_scalar` pins the
//! lane rounder to the scalar one across the magnitude range. Chain count
//! never changes results: each column's accumulator chain is independent
//! in every variant, exactly as in the scalar reference.
//!
//! On non-`x86_64` targets the dispatcher never selects these kernels;
//! the stubs here only satisfy the type checker.

#![allow(clippy::inline_always)] // rounding helpers must fuse into the k-loop

use crate::int::Signedness;

/// Columns per interleaved group — two AVX2 f32 vectors, matching the
/// tiled path's register-block width `JR`.
pub(crate) const GROUP: usize = 16;

/// Codes per step of the integer kernel (one AVX2 vector of bytes);
/// callers pad the reduction axis of both operands to a multiple of it.
pub(crate) const INT_KSTEP: usize = 32;

/// Bytes of rhs rows the integer tile walks per cache block.
const INT_TILE_BYTES: usize = 24 << 10;

/// Which operand of the integer kernel feeds `maddubs`' unsigned side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntSides {
    /// The lhs codes are unsigned (rhs either).
    LhsUnsigned,
    /// The rhs codes are unsigned, the lhs codes signed.
    RhsUnsigned,
    /// Both signed: `|rhs|` on the unsigned side, `lhs · sgn(rhs)` on the
    /// signed one.
    BothSigned,
}

impl IntSides {
    /// The kernel sides for operands of the given signedness.
    pub(crate) fn of(lhs: Signedness, rhs: Signedness) -> Self {
        match (lhs, rhs) {
            (Signedness::Unsigned, _) => IntSides::LhsUnsigned,
            (Signedness::Signed, Signedness::Unsigned) => IntSides::RhsUnsigned,
            (Signedness::Signed, Signedness::Signed) => IntSides::BothSigned,
        }
    }
}

/// Column groups the wide float kernels process per k sweep. Four groups
/// give 8 concurrent add+round chains, enough to saturate the vector
/// ports; more would spill the accumulator registers.
pub(crate) const WIDE_GROUPS: usize = 4;

/// Columns per wide-kernel call.
pub(crate) const WIDE: usize = GROUP * WIDE_GROUPS;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{IntSides, GROUP, INT_KSTEP, INT_TILE_BYTES, WIDE, WIDE_GROUPS};
    use crate::gemm::fp16_round_sum;
    use std::arch::x86_64::*;

    /// `IntSides` as const-generic tags for the integer kernel bodies.
    const LHS_UNSIGNED: u8 = 0;
    const RHS_UNSIGNED: u8 = 1;
    const BOTH_SIGNED: u8 = 2;

    /// Lane-wise `fp16_round_sum_sel` (see `gemm`): DLFloat16 RNE with
    /// underflow-flush and saturation handled by selects on the raw bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn round8(x: __m256) -> __m256 {
        // FP16 (1,6,9), bias 31 — same constants as the scalar rounder.
        const MIN_NORMAL: u32 = ((-30 + 127) as u32) << 23;
        const HALF_MIN: u32 = ((-31 + 127) as u32) << 23;
        const MAX_BITS: u32 = ((32 + 127) as u32) << 23 | (((1u32 << 9) - 1) << 14);
        const SHIFT: i32 = 23 - 9;
        // Unsigned thresholds pre-biased by 0x8000_0000 so the unsigned
        // compares of the scalar rounder become signed `vpcmpgtd`.
        const BIAS: i32 = i32::MIN;
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MIN));
        let mag2 = _mm256_slli_epi32::<1>(bits);
        let mag2b = _mm256_xor_si256(mag2, _mm256_set1_epi32(BIAS));
        // rounded = (bits + (LSB/2 - 1) + odd) & !(LSB - 1), LSB = 1<<14.
        let odd = _mm256_and_si256(_mm256_srli_epi32::<SHIFT>(bits), _mm256_set1_epi32(1));
        let rounded = _mm256_and_si256(
            _mm256_add_epi32(bits, _mm256_add_epi32(_mm256_set1_epi32(0x1FFF), odd)),
            _mm256_set1_epi32(!0x3FFF),
        );
        let rmag = _mm256_and_si256(rounded, _mm256_set1_epi32(0x7fff_ffff));
        // small = (mag2 >u HALF_MIN<<1) ? MIN_NORMAL : 0
        let gt_half =
            _mm256_cmpgt_epi32(mag2b, _mm256_set1_epi32(((HALF_MIN << 1) as i32) ^ BIAS));
        let small = _mm256_and_si256(gt_half, _mm256_set1_epi32(MIN_NORMAL as i32));
        // r = (mag2 <u MIN_NORMAL<<1) ? small : rmag
        let lt_min =
            _mm256_cmpgt_epi32(_mm256_set1_epi32(((MIN_NORMAL << 1) as i32) ^ BIAS), mag2b);
        let r = _mm256_blendv_epi8(rmag, small, lt_min);
        // r = (mag2 >u MAX_BITS<<1) ? MAX_BITS : r   (saturate)
        let gt_max =
            _mm256_cmpgt_epi32(mag2b, _mm256_set1_epi32(((MAX_BITS << 1) as i32) ^ BIAS));
        let r = _mm256_blendv_epi8(r, _mm256_set1_epi32(MAX_BITS as i32), gt_max);
        _mm256_castsi256_ps(_mm256_or_si256(sign, r))
    }

    /// The float MAC loop over `G` interleaved 16-column groups laid out
    /// back to back in `bgroups` (`G * k * 16` values). `2G` independent
    /// accumulation chains advance per k step; each column's chain
    /// performs exactly the scalar kernel's op sequence, so `G` is
    /// performance-only. Steps with a zero A value are skipped whole —
    /// bit-exact by `round8` idempotence (module docs).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `bgroups.len() == G * arow.len() * GROUP`,
    /// `out.len() == G * GROUP`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fp16_groups<const G: usize>(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        out: &mut [f32],
    ) {
        let gsz = arow.len() * GROUP;
        let signbit = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
        let zero = _mm256_setzero_ps();
        let mut outer_lo = [zero; G];
        let mut outer_hi = [zero; G];
        let mut chunk_lo = [zero; G];
        let mut chunk_hi = [zero; G];
        let mut in_chunk = 0usize;
        for (p, &x) in arow.iter().enumerate() {
            // A zero broadcast value makes every product ±0, remapped to
            // -0.0, and `round8(chunk + -0.0) == chunk` (idempotence), so
            // the whole sweep is skipped; only the chunk-boundary
            // bookkeeping below still runs.
            if x != 0.0 {
                let xa = _mm256_set1_ps(x);
                for t in 0..G {
                    let b0 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP));
                    let b1 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP + 8));
                    let mut prod0 = _mm256_mul_ps(xa, b0);
                    let mut prod1 = _mm256_mul_ps(xa, b1);
                    // Exact-zero products (lattice products never underflow)
                    // become -0.0, the additive identity — the scalar gate.
                    let z0 = _mm256_cmp_ps::<_CMP_EQ_OQ>(prod0, zero);
                    let z1 = _mm256_cmp_ps::<_CMP_EQ_OQ>(prod1, zero);
                    prod0 = _mm256_or_ps(prod0, _mm256_and_ps(z0, signbit));
                    prod1 = _mm256_or_ps(prod1, _mm256_and_ps(z1, signbit));
                    chunk_lo[t] = round8(_mm256_add_ps(chunk_lo[t], prod0));
                    chunk_hi[t] = round8(_mm256_add_ps(chunk_hi[t], prod1));
                }
            }
            in_chunk += 1;
            if in_chunk == chunk_len {
                for t in 0..G {
                    outer_lo[t] = _mm256_add_ps(outer_lo[t], chunk_lo[t]);
                    outer_hi[t] = _mm256_add_ps(outer_hi[t], chunk_hi[t]);
                    chunk_lo[t] = zero;
                    chunk_hi[t] = zero;
                }
                in_chunk = 0;
            }
        }
        finish_groups::<G>(&outer_lo, &outer_hi, &chunk_lo, &chunk_hi, out);
    }

    /// Reduces the (outer, chunk) register pairs exactly as the scalar
    /// kernels' epilogue: `fp16_round_sum(outer[t] + chunk[t])` per lane.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `out.len() == G * GROUP`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn finish_groups<const G: usize>(
        outer_lo: &[__m256; G],
        outer_hi: &[__m256; G],
        chunk_lo: &[__m256; G],
        chunk_hi: &[__m256; G],
        out: &mut [f32],
    ) {
        let mut sums = [0.0f32; GROUP];
        for t in 0..G {
            _mm256_storeu_ps(sums.as_mut_ptr(), _mm256_add_ps(outer_lo[t], chunk_lo[t]));
            _mm256_storeu_ps(sums.as_mut_ptr().add(8), _mm256_add_ps(outer_hi[t], chunk_hi[t]));
            for (o, &s) in out[t * GROUP..(t + 1) * GROUP].iter_mut().zip(&sums) {
                *o = fp16_round_sum(s);
            }
        }
    }

    /// Eight exact integer dot products — lhs rows `l[i]` against rhs
    /// rows `r[j]`, in lane `2i + j` — over `kp` codes (a multiple of
    /// [`INT_KSTEP`]). Per 32-code step, `maddubs` multiplies the unsigned
    /// side's bytes by the signed side's and adds adjacent pairs into i16
    /// lanes; `madd(·, 1)` widens the pairs into i32 lanes. When both
    /// operands are signed, `|r|` goes on the unsigned side and
    /// `sign(l, r)` (`l` negated where `r < 0`, zeroed where `r == 0`) on
    /// the signed one: `|r| · l·sgn(r) == l · r`.
    ///
    /// A pair sum is at most `2 · 15 · 15 = 450 < i16::MAX` in magnitude
    /// (the largest INT4/INT2 code magnitude is 15, unsigned INT4), so
    /// `maddubs` never saturates. Every i32 operation wraps, and wrapping
    /// addition is exact modulo 2³²; the caller bounds the whole dot by
    /// `225 · k < 2³¹` (`dispatch::MADD_MAX_K`), so each result is exact.
    ///
    /// # Safety
    ///
    /// Requires AVX2; every pointer must be valid for `kp` reads.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn int_block<const SIDES: u8>(
        l: [*const i8; 4],
        r: [*const i8; 2],
        kp: usize,
    ) -> __m256i {
        let ones = _mm256_set1_epi16(1);
        let mut acc = [_mm256_setzero_si256(); 8];
        let mut p = 0usize;
        while p < kp {
            let mut lv = [_mm256_setzero_si256(); 4];
            for i in 0..4 {
                lv[i] = _mm256_loadu_si256(l[i].add(p).cast());
            }
            for j in 0..2 {
                let rv = _mm256_loadu_si256(r[j].add(p).cast());
                let ru = if SIDES == BOTH_SIGNED { _mm256_abs_epi8(rv) } else { rv };
                for i in 0..4 {
                    let pairs = match SIDES {
                        LHS_UNSIGNED => _mm256_maddubs_epi16(lv[i], rv),
                        RHS_UNSIGNED => _mm256_maddubs_epi16(rv, lv[i]),
                        _ => _mm256_maddubs_epi16(ru, _mm256_sign_epi8(lv[i], rv)),
                    };
                    let wide = _mm256_madd_epi16(pairs, ones);
                    acc[2 * i + j] = _mm256_add_epi32(acc[2 * i + j], wide);
                }
            }
            p += INT_KSTEP;
        }
        // One horizontal-add tree for all eight accumulators: two `hadd`
        // rounds leave each 128-bit half holding four per-half sums, and
        // adding the two halves gives the eight totals in order.
        let h0 = _mm256_hadd_epi32(acc[0], acc[1]);
        let h1 = _mm256_hadd_epi32(acc[2], acc[3]);
        let h2 = _mm256_hadd_epi32(acc[4], acc[5]);
        let h3 = _mm256_hadd_epi32(acc[6], acc[7]);
        let g0 = _mm256_hadd_epi32(h0, h1);
        let g1 = _mm256_hadd_epi32(h2, h3);
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(g0, g1),
            _mm256_permute2x128_si256::<0x31>(g0, g1),
        )
    }

    /// `out[i * ld + j] = dot(lhs row i, rhs row j) as f32 * out_scale`
    /// for `rows × cols` outputs, in 4 × 2 register blocks. The rhs rows
    /// are walked in blocks of about [`INT_TILE_BYTES`] so they stay in
    /// cache while every lhs row quad passes over them. Ragged edges
    /// repeat the last row into the block and drop the repeated results.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `lhs.len() >= rows * kp`, `rhs.len() >= cols * kp`,
    /// `kp` a multiple of [`INT_KSTEP`], `out.len() >= (rows - 1) * ld +
    /// cols` when `rows > 0`, and [`int_block`]'s bound on the dot.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn int_tile<const SIDES: u8>(
        lhs: &[i8],
        rows: usize,
        rhs: &[i8],
        cols: usize,
        kp: usize,
        out_scale: f32,
        out: &mut [f32],
        ld: usize,
    ) {
        let block = (INT_TILE_BYTES / kp.max(1)).max(2) & !1;
        let scale = _mm256_set1_ps(out_scale);
        for c0 in (0..cols).step_by(block) {
            let c1 = (c0 + block).min(cols);
            for r0 in (0..rows).step_by(4) {
                let mut l = [lhs.as_ptr(); 4];
                for (i, li) in l.iter_mut().enumerate() {
                    *li = lhs.as_ptr().add((r0 + i).min(rows - 1) * kp);
                }
                for c in (c0..c1).step_by(2) {
                    let r = [rhs.as_ptr().add(c * kp), rhs.as_ptr().add((c + 1).min(c1 - 1) * kp)];
                    // `cvtepi32_ps` rounds to nearest even like `as f32`,
                    // and `mul_ps` is the scalar f32 multiply.
                    let sums = int_block::<SIDES>(l, r, kp);
                    let vals = _mm256_mul_ps(_mm256_cvtepi32_ps(sums), scale);
                    if r0 + 4 <= rows && c + 2 <= c1 {
                        let lo = _mm256_castps256_ps128(vals);
                        let hi = _mm256_extractf128_ps::<1>(vals);
                        let o = out.as_mut_ptr().add(r0 * ld + c);
                        _mm_storel_epi64(o.cast(), _mm_castps_si128(lo));
                        _mm_storeh_pd(o.add(ld).cast(), _mm_castps_pd(lo));
                        _mm_storel_epi64(o.add(2 * ld).cast(), _mm_castps_si128(hi));
                        _mm_storeh_pd(o.add(3 * ld).cast(), _mm_castps_pd(hi));
                    } else {
                        let mut v = [0.0f32; 8];
                        _mm256_storeu_ps(v.as_mut_ptr(), vals);
                        for i in 0..(rows - r0).min(4) {
                            for j in 0..(c1 - c).min(2) {
                                out[(r0 + i) * ld + c + j] = v[2 * i + j];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Safe wrapper: the scaled `rows × cols` integer dot-product tile of
    /// [`int_tile`] (`lhs` `[rows, kp]` and `rhs` `[cols, kp]` row-major,
    /// output rows `ld` apart).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int_dot_tile(
        sides: IntSides,
        lhs: &[i8],
        rows: usize,
        rhs: &[i8],
        cols: usize,
        kp: usize,
        out_scale: f32,
        out: &mut [f32],
        ld: usize,
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert!(kp.is_multiple_of(INT_KSTEP), "reduction depth {kp} not padded to {INT_KSTEP}");
        assert!(lhs.len() >= rows * kp && rhs.len() >= cols * kp, "operand shorter than its rows");
        assert!(rows == 0 || (cols <= ld && out.len() >= (rows - 1) * ld + cols));
        // SAFETY: AVX2 presence and slice extents asserted above; the
        // dot bound is the caller's `MADD_MAX_K` dispatch contract.
        unsafe {
            match sides {
                IntSides::LhsUnsigned => {
                    int_tile::<LHS_UNSIGNED>(lhs, rows, rhs, cols, kp, out_scale, out, ld);
                }
                IntSides::RhsUnsigned => {
                    int_tile::<RHS_UNSIGNED>(lhs, rows, rhs, cols, kp, out_scale, out, ld);
                }
                IntSides::BothSigned => {
                    int_tile::<BOTH_SIGNED>(lhs, rows, rhs, cols, kp, out_scale, out, ld);
                }
            }
        }
    }

    /// Test-only window into the lane rounder so the unit test can pin it
    /// to the scalar rounder directly.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn round8_for_test(x: __m256) -> __m256 {
        round8(x)
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against [`WIDE_GROUPS`] consecutive interleaved panels.
    pub(crate) fn dot_fp16_groups_wide(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        out: &mut [f32; WIDE],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(bgroups.len(), WIDE_GROUPS * arow.len() * GROUP);
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { fp16_groups::<WIDE_GROUPS>(arow, bgroups, chunk_len, out) }
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against a single 16-column interleaved B panel.
    pub(crate) fn dot_fp16_group16(
        arow: &[f32],
        bgroup: &[f32],
        chunk_len: usize,
        out: &mut [f32; GROUP],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert_eq!(bgroup.len(), arow.len() * GROUP);
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { fp16_groups::<1>(arow, bgroup, chunk_len, out) }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{dot_fp16_group16, dot_fp16_groups_wide, int_dot_tile};

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use super::{IntSides, GROUP, WIDE};

    /// Unreachable on this target: the dispatcher reports
    /// `simd_available() == false` and never selects the AVX2 kernels.
    pub(crate) fn dot_fp16_groups_wide(
        _arow: &[f32],
        _bgroups: &[f32],
        _chunk_len: usize,
        _out: &mut [f32; WIDE],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn dot_fp16_group16(
        _arow: &[f32],
        _bgroup: &[f32],
        _chunk_len: usize,
        _out: &mut [f32; GROUP],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn int_dot_tile(
        _sides: IntSides,
        _lhs: &[i8],
        _rows: usize,
        _rhs: &[i8],
        _cols: usize,
        _kp: usize,
        _out_scale: f32,
        _out: &mut [f32],
        _ld: usize,
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fallback::{dot_fp16_group16, dot_fp16_groups_wide, int_dot_tile};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::gemm::fp16_round_sum_sel;
    use std::arch::x86_64::*;

    /// The vector rounder must agree with the scalar branch-free rounder
    /// on every magnitude band: zeros, flush-to-zero range, round-to-min,
    /// normals (both RNE tie directions), saturation, both signs.
    #[test]
    fn vector_rounder_matches_scalar() {
        if !crate::dispatch::simd_available() {
            return;
        }
        #[target_feature(enable = "avx2")]
        unsafe fn via_round8(vals: &[f32; 8]) -> [f32; 8] {
            // Route through the public kernel path: a 1-element chunk of a
            // single k step with products equal to `vals` would need a LUT;
            // call the rounder via an add with 0.0 instead.
            let v = _mm256_loadu_ps(vals.as_ptr());
            let r = super::avx2::round8_for_test(v);
            let mut out = [0.0f32; 8];
            _mm256_storeu_ps(out.as_mut_ptr(), r);
            out
        }
        let mut cases: Vec<f32> = vec![0.0, -0.0];
        // Dense sweep across the exponent range, both signs, plus tie bits.
        for exp in -40i32..=40 {
            for frac in [0.0f32, 0.25, 0.5, 0.4999, 0.7501, 0.999_999] {
                let v = (1.0 + frac) * (exp as f32).exp2();
                cases.push(v);
                cases.push(-v);
            }
        }
        // Exact grid points and half-LSB ties around the FP16 lattice.
        for bits in (0x3080_0000u32..0x3081_0000).step_by(0x1000) {
            cases.push(f32::from_bits(bits));
            cases.push(f32::from_bits(bits | 0x2000)); // half-LSB tie
        }
        for chunk in cases.chunks(8) {
            let mut vals = [0.0f32; 8];
            vals[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: AVX2 checked at function entry.
            let got = unsafe { via_round8(&vals) };
            for (g, v) in got.iter().zip(vals) {
                let want = fp16_round_sum_sel(v);
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "round8({v:e}): vector {g:e} != scalar {want:e}"
                );
            }
        }
    }

    /// Codes in `lo..=hi` from a fixed stride pattern, with every fifth
    /// one zero.
    fn codes(len: usize, (lo, hi): (i32, i32), salt: usize) -> Vec<i8> {
        let span = (hi - lo + 1) as usize;
        (0..len)
            .map(|i| {
                if (i + salt).is_multiple_of(5) {
                    0
                } else {
                    (lo + ((i * 7 + salt * 13) % span) as i32) as i8
                }
            })
            .collect()
    }

    /// Every kernel side (unsigned lhs, unsigned rhs, the sign trick for
    /// both signed) agrees with a plain i64 dot product at the extreme
    /// codes of each signedness, over depths of 0 to 5 steps and ragged
    /// row and column counts that exercise the repeated-edge blocks.
    #[test]
    fn int_tile_matches_reference_for_every_side() {
        if !crate::dispatch::simd_available() {
            return;
        }
        let signed = (-7, 7);
        let unsigned = (0, 15);
        for (sl, sr, lr, rr) in [
            (Signedness::Unsigned, Signedness::Signed, unsigned, signed),
            (Signedness::Unsigned, Signedness::Unsigned, unsigned, unsigned),
            (Signedness::Signed, Signedness::Unsigned, signed, unsigned),
            (Signedness::Signed, Signedness::Signed, signed, signed),
        ] {
            for kp in [0usize, 32, 64, 160] {
                for (rows, cols) in [(1usize, 1usize), (3, 5), (4, 2), (9, 7)] {
                    let lhs = codes(rows * kp, lr, 1);
                    let rhs = codes(cols * kp, rr, 2);
                    let ld = cols + 3;
                    let mut out = vec![f32::NAN; rows * ld];
                    let scale = 0.375f32;
                    let sides = IntSides::of(sl, sr);
                    int_dot_tile(sides, &lhs, rows, &rhs, cols, kp, scale, &mut out, ld);
                    for i in 0..rows {
                        for j in 0..cols {
                            let want: i64 = (0..kp)
                                .map(|p| i64::from(lhs[i * kp + p]) * i64::from(rhs[j * kp + p]))
                                .sum();
                            let got = out[i * ld + j];
                            let want = want as f32 * scale;
                            let at = format!("{sl:?}×{sr:?} kp {kp} ({i},{j})");
                            assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                        }
                        assert!(out[i * ld + cols].is_nan(), "wrote past the tile's columns");
                    }
                }
            }
        }
    }

    /// The largest magnitudes every side can see, at full depth: the
    /// pair sums stay inside i16 and the totals match exactly.
    #[test]
    fn int_tile_extreme_codes_do_not_saturate() {
        if !crate::dispatch::simd_available() {
            return;
        }
        let kp = 4096;
        for (sides, l, r) in [
            (IntSides::LhsUnsigned, 15i8, 15i8),
            (IntSides::LhsUnsigned, 15, -7),
            (IntSides::RhsUnsigned, -7, 15),
            (IntSides::BothSigned, -7, -7),
            (IntSides::BothSigned, 7, -7),
        ] {
            let lhs = vec![l; 4 * kp];
            let rhs = vec![r; 2 * kp];
            let mut out = vec![0.0f32; 8];
            int_dot_tile(sides, &lhs, 4, &rhs, 2, kp, 1.0, &mut out, 2);
            let want = (i64::from(l) * i64::from(r) * kp as i64) as f32;
            assert!(out.iter().all(|&o| o == want), "{sides:?}: {out:?} vs {want}");
        }
    }
}
