//! Emulated GEMM and convolution kernels for every RaPiD precision.
//!
//! These kernels compute what the MPE array computes — including input
//! quantization, on-the-fly operand conversion, chunked accumulation and
//! zero-gating — and report datapath statistics used by the power model.
//! They are *functional* models; timing lives in `rapid-model` (analytical)
//! and `rapid-sim` (cycle-approximate).
//!
//! # Fast path vs. scalar reference
//!
//! Each emulated kernel exists twice: a fast path (the default entry
//! points) and a scalar reference (`matmul_emulated_scalar`,
//! `matmul_int_scalar`, …) that drives the accumulator structs one FMA at a
//! time. The fast path quantizes operands once ([`crate::qtensor::QTensor`]),
//! replaces the HFP8 pipeline's per-FMA format conversions with exhaustive
//! product tables ([`crate::lut`]), walks B through transposed k-panels,
//! register-blocks columns to overlap the serial FP16 rounding chains, and
//! fans rows out across threads. Matmuls with at most
//! [`dispatch::GEMV_MAX_M`] rows of A skip the panels and stream B in its
//! row-major layout instead (`numerics::gemv`). Every fast path is required
//! to be *bit-exact* against the scalar reference — same output bits, same
//! [`GemmStats`] — which `tests/fastpath_bitexact.rs` verifies
//! property-style; the merge of per-band statistics is deterministic
//! regardless of thread count.

use crate::accumulate::ChunkAccumulator;
use crate::bitslice;
use crate::dispatch::{self, SimdMode};
use crate::fma::FmaMode;
use crate::gemv;
use crate::guard::{saturate_f32, GuardPolicy};
use crate::int::{IntAccumulator, IntFormat, QuantParams, Signedness};
use crate::simd;
use crate::lut::{is_zero_code, product_lut};
use crate::qtensor::QTensor;
use crate::tensor::Tensor;
use crate::NumericsError;
use rapid_fault::FaultPlan;

/// Datapath statistics gathered while executing an emulated kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Total multiply-accumulate operations issued.
    pub macs: u64,
    /// MACs bypassed by the zero-gating logic.
    pub zero_gated: u64,
    /// INT16 chunk-register saturations (integer modes only; zero for
    /// hardware-legal chunk lengths).
    pub saturations: u64,
    /// Accumulators clamped by [`GuardPolicy::Saturate`]: corrupted chunk
    /// values (non-finite floats, out-of-bound integer chunks) replaced at
    /// the guard stage instead of propagating. Zero under every other
    /// policy — the count is how much bounded damage training absorbed.
    pub guard_clamps: u64,
}

impl GemmStats {
    /// Fraction of MACs that were zero-gated.
    pub fn gated_fraction(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_gated as f64 / self.macs as f64
        }
    }

    /// Merges statistics from another kernel invocation.
    pub fn merge(&mut self, other: GemmStats) {
        self.macs += other.macs;
        self.zero_gated += other.zero_gated;
        self.saturations += other.saturations;
        self.guard_clamps += other.guard_clamps;
    }

    /// Accumulates these statistics into a metrics registry under
    /// `<prefix>.{macs, zero_gated, saturations, guard_clamps}` — the
    /// unified-telemetry form of this struct.
    pub fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.macs"), self.macs);
        reg.add(&format!("{prefix}.zero_gated"), self.zero_gated);
        reg.add(&format!("{prefix}.saturations"), self.saturations);
        reg.add(&format!("{prefix}.guard_clamps"), self.guard_clamps);
    }

    /// Reconstructs the struct as a thin view over registry counters
    /// written by [`GemmStats::record_into`] with the same prefix.
    pub fn from_registry(reg: &rapid_telemetry::MetricsRegistry, prefix: &str) -> Self {
        Self {
            macs: reg.counter(&format!("{prefix}.macs")),
            zero_gated: reg.counter(&format!("{prefix}.zero_gated")),
            saturations: reg.counter(&format!("{prefix}.saturations")),
            guard_clamps: reg.counter(&format!("{prefix}.guard_clamps")),
        }
    }
}

fn check_matmul_shapes(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), NumericsError> {
    if a.shape().len() != 2 || b.shape().len() != 2 || a.shape()[1] != b.shape()[0] {
        return Err(NumericsError::ShapeMismatch {
            expected: "a [m,k] × b [k,n]".to_string(),
            actual: format!("a {:?} × b {:?}", a.shape(), b.shape()),
        });
    }
    Ok((a.shape()[0], a.shape()[1], b.shape()[1]))
}

/// Number of worker threads the row-parallel kernels fan out across.
///
/// Reads the `RAPID_THREADS` environment variable (any integer ≥ 1);
/// otherwise uses the machine's available parallelism. Results are
/// bit-identical for every thread count — threading only partitions output
/// rows.
pub fn num_threads() -> usize {
    std::env::var("RAPID_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Kernels stay single-threaded below this many MACs; thread spawn latency
/// would dominate smaller problems.
const PAR_MIN_MACS: usize = 1 << 18;

/// Columns per register block in the float inner kernels. The FP16 chunk
/// update is a serial rounding chain; blocking this many independent output
/// columns per A-row pass lets the chains overlap.
const JR: usize = 16;

/// FP16 (DLFloat) rounding of an in-kernel accumulation sum, specialized
/// for the value domain the dot-product kernels produce: `x` is the f32 sum
/// of an FP16-lattice register and an exact operand product, so it is
/// always finite (far below f32 overflow) and is `-0.0` only when the
/// lattice register already was. That removes the NaN/infinity/signed-zero
/// branches of the general [`fp16_round`]; agreement with it over the whole
/// domain is pinned by `fast_rounder_matches_general_quantizer`.
#[inline(always)]
pub(crate) fn fp16_round_sum(x: f32) -> f32 {
    // FP16 (1,6,9), bias 31: e_min = -30, e_max = 32.
    const MIN_NORMAL: u32 = ((-30 + 127) as u32) << 23;
    const HALF_MIN: u32 = ((-31 + 127) as u32) << 23;
    const MAX_BITS: u32 = ((32 + 127) as u32) << 23 | (((1u32 << 9) - 1) << 14);
    let bits = x.to_bits();
    // `b << 1` orders f32 bit patterns by |x| regardless of sign, so the
    // range checks work on the raw pattern without masking the sign out.
    // One compare fences off both rare cases (underflow-flush, saturate);
    // in-range, RNE can neither overflow `MAX_BITS` (it lies on the 9-bit
    // grid, so rounding overflows it iff the unrounded magnitude does) nor
    // carry into the sign bit.
    let mag2 = bits << 1;
    if mag2.wrapping_sub(MIN_NORMAL << 1) > (MAX_BITS << 1) - (MIN_NORMAL << 1) {
        let sign = bits & 0x8000_0000;
        if mag2 < MIN_NORMAL << 1 {
            // No subnormals: nearest of {0, min_normal}, ties to zero.
            let r = if mag2 > HALF_MIN << 1 { MIN_NORMAL } else { 0 };
            return f32::from_bits(sign | r);
        }
        return f32::from_bits(sign | MAX_BITS); // saturate
    }
    // RNE of the 23-bit mantissa down to 9 bits, on the signed pattern.
    const SHIFT: u32 = 23 - 9;
    const LSB: u32 = 1 << SHIFT;
    f32::from_bits((bits + ((LSB >> 1) - 1 + ((bits >> SHIFT) & 1))) & !(LSB - 1))
}

/// [`fp16_round_sum`] with the rare cases handled by selects instead of
/// branches, for the register-blocked accumulation loops: a branch-free
/// body (together with hoisting the LUT loads into a separate pass) is what
/// lets the compiler vectorize the per-column rounding lanes. Agreement
/// with the general quantizer is pinned by the same test.
#[inline(always)]
pub(crate) fn fp16_round_sum_sel(x: f32) -> f32 {
    const MIN_NORMAL: u32 = ((-30 + 127) as u32) << 23;
    const HALF_MIN: u32 = ((-31 + 127) as u32) << 23;
    const MAX_BITS: u32 = ((32 + 127) as u32) << 23 | (((1u32 << 9) - 1) << 14);
    const SHIFT: u32 = 23 - 9;
    const LSB: u32 = 1 << SHIFT;
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let mag2 = bits << 1;
    let rounded = (bits + ((LSB >> 1) - 1 + ((bits >> SHIFT) & 1))) & !(LSB - 1);
    let small = if mag2 > HALF_MIN << 1 { MIN_NORMAL } else { 0 };
    let r = if mag2 < MIN_NORMAL << 1 { small } else { rounded & 0x7fff_ffff };
    let r = if mag2 > MAX_BITS << 1 { MAX_BITS } else { r };
    f32::from_bits(sign | r)
}

/// Non-zero count of every column of a row-major `[rows, k]` matrix: one
/// compare-and-add pass over the data, which the compiler vectorizes.
fn nonzeros_per_col<T: Copy>(data: &[T], k: usize, nonzero: impl Fn(T) -> bool) -> Vec<u32> {
    let mut counts = vec![0u32; k];
    if k == 0 {
        return counts;
    }
    // Byte-wide partial counts fill a whole vector register per compare;
    // they are flushed before they can wrap.
    let mut partial = vec![0u8; k];
    for rows in data.chunks(k * usize::from(u8::MAX)) {
        for row in rows.chunks_exact(k) {
            for (c, &x) in partial.iter_mut().zip(row) {
                *c += u8::from(nonzero(x));
            }
        }
        for (c, p) in counts.iter_mut().zip(&mut partial) {
            *c += u32::from(std::mem::take(p));
        }
    }
    counts
}

/// Zero-gated MACs of an `[m, k] × [k, n]` product from per-position
/// non-zero counts (`nz_a[p]` over A's column `p`, `nz_b[p]` over B's row
/// `p`). At position `p`, `nz_a[p] · nz_b[p]` of the `m · n` MACs have two
/// non-zero operands and every other one is gated, so
/// `gated = Σ_p (m·n − nz_a[p]·nz_b[p])` — the same count as popcounting
/// the union of every row's and column's zero masks, in `O((m + n)·k)`
/// instead of `O(m·n·k/64)`.
fn zero_gated(m: usize, n: usize, nz_a: &[u32], nz_b: &[u32]) -> u64 {
    let mn = (m * n) as u64;
    nz_a.iter().zip(nz_b).map(|(&a, &b)| mn - u64::from(a) * u64::from(b)).sum()
}

/// Statistics of an `[m, k] × [k, n]` product whose chunk register cannot
/// saturate.
fn product_stats(m: usize, k: usize, n: usize, zero_gated: u64) -> GemmStats {
    GemmStats { macs: (m * n * k) as u64, zero_gated, ..GemmStats::default() }
}

/// Runs `work` over horizontal bands of the row-major `m × n` output in
/// parallel. `work(row0, band)` fills rows `row0 ..` and returns its
/// statistics; bands merge in row order so the total is deterministic.
fn par_rows(
    od: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    work: &(impl Fn(usize, &mut [f32]) -> GemmStats + Sync),
) -> GemmStats {
    let threads = num_threads().min(m);
    if threads <= 1 || m.saturating_mul(n).saturating_mul(k) < PAR_MIN_MACS {
        return work(0, od);
    }
    let rows_per = m.div_ceil(threads);
    let mut stats = GemmStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = od
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(t, band)| s.spawn(move || work(t * rows_per, band)))
            .collect();
        for h in handles {
            #[allow(clippy::expect_used)] // re-raise a worker panic on the caller
            stats.merge(h.join().expect("gemm worker thread panicked"));
        }
    });
    stats
}

/// [`par_rows`] for kernels that only fill values; their statistics are
/// computed once by the caller.
fn par_fill(
    od: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    work: &(impl Fn(usize, &mut [f32]) + Sync),
) {
    par_rows(od, m, n, k, &|row0, band| {
        work(row0, band);
        GemmStats::default()
    });
}

/// Transposes a row-major `[rows, cols]` slice into `[cols, rows]` panels so
/// dot products walk both operands contiguously.
fn transposed_panels<T: Copy + Default>(src: &[T], rows: usize, cols: usize) -> Vec<T> {
    let mut dst = vec![T::default(); src.len()];
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    dst
}

/// Reference FP32 matrix multiply `[m,k] × [k,n] → [m,n]`.
///
/// # Panics
///
/// Panics if the shapes are not compatible rank-2 matrices.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_f32(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_f32_checked(a, b).expect("incompatible matmul shapes")
}

/// Reference FP32 matrix multiply, returning an error on bad shapes.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
pub fn matmul_f32_checked(a: &Tensor, b: &Tensor) -> Result<Tensor, NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    let mut out = Tensor::zeros(vec![m, n]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let ad = a.as_slice();
    let bt = transposed_panels(b.as_slice(), k, n);
    let work = |row0: usize, band: &mut [f32]| -> GemmStats {
        let rows = band.len() / n;
        for r in 0..rows {
            let arow = &ad[(row0 + r) * k..(row0 + r + 1) * k];
            for j in 0..n {
                let bcol = &bt[j * k..(j + 1) * k];
                let mut acc = 0.0f64;
                for (&x, &y) in arow.iter().zip(bcol) {
                    acc += f64::from(x) * f64::from(y);
                }
                band[r * n + j] = acc as f32;
            }
        }
        GemmStats::default()
    };
    par_rows(out.as_mut_slice(), m, n, k, &work);
    Ok(out)
}

/// Emulated floating-point matrix multiply through the MPE FPU pipeline:
/// inputs are quantized to the mode's operand formats, multiplied through
/// the internal representation, and chunk-accumulated.
///
/// `chunk_len` is the MPE-level accumulation chunk (64 matches the
/// dataflow's LRF reload interval).
///
/// # Panics
///
/// Panics if the shapes are not compatible or `chunk_len == 0`.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_emulated(mode: FmaMode, a: &Tensor, b: &Tensor, chunk_len: usize) -> (Tensor, GemmStats) {
    matmul_emulated_checked(mode, a, b, chunk_len).expect("incompatible matmul shapes")
}

/// [`matmul_emulated`], returning an error instead of panicking on
/// incompatible shapes.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_emulated_checked(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
) -> Result<(Tensor, GemmStats), NumericsError> {
    matmul_emulated_with_simd(mode, a, b, chunk_len, SimdMode::from_env())
}

/// [`matmul_emulated_checked`] under an explicit vectorization policy
/// instead of the `RAPID_SIMD` environment knob — the entry point tests
/// and benches use to pin a backend regardless of the environment.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_emulated_with_simd(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let (fa, fb) = mode.operand_formats();
    let qa = QTensor::quantize(a, fa);
    let qb = QTensor::quantize(b, fb);
    let mut out = Tensor::zeros(vec![m, n]);
    if m == 0 || n == 0 {
        return Ok((out, GemmStats::default()));
    }
    if dispatch::row_stream(m) {
        let stats = gemv_emulated(&qa, &qb, (m, k, n), chunk_len, simd_mode, out.as_mut_slice());
        return Ok((out, stats));
    }
    let use_simd = dispatch::float_use_simd(simd_mode, (m * n * k) as u64);
    let gated = match (qa.codes(), qb.codes()) {
        (Some(ac), Some(bc)) => {
            // 8-bit operands: every FP9 conversion and operand product is
            // precomputed in a 64K-entry table indexed by the code pair.
            let lut = product_lut(fa, fb);
            // Rewrite zero products as -0.0: IEEE `x + (-0.0)` is the
            // identity on every f32 (both zero signs included), so the MAC
            // loop can add unconditionally instead of branching on gated
            // products — bit-exactly.
            let products: Vec<f32> =
                lut.products().iter().map(|&p| if p == 0.0 { -0.0 } else { p }).collect();
            let bt = transposed_panels(bc, k, n);
            // The SIMD path decodes both operands to their FP9 values up
            // front: the table factors bit-exactly into the operand tables
            // (`product(ca, cb) == a_operands[ca] * b_operands[cb]`), so
            // the vector kernel's runtime multiply reproduces every table
            // entry and the per-step gather disappears.
            let fdec = (use_simd && n >= simd::GROUP).then(|| {
                let ia = lut.a_operands();
                let ib = lut.b_operands();
                let av: Vec<f32> = ac.iter().map(|&c| ia[usize::from(c)]).collect();
                let btv: Vec<f32> = bt.iter().map(|&c| ib[usize::from(c)]).collect();
                (av, interleave_groups(&btv, k, n))
            });
            par_fill(out.as_mut_slice(), m, n, k, &|row0, band| {
                let fdec = fdec.as_ref().map(|(av, bi)| (av.as_slice(), bi.as_slice()));
                lut_band(ac, &bt, fdec, &products, row0, k, n, chunk_len, band);
            });
            let nonzero = |c: u8| !is_zero_code(c);
            zero_gated(m, n, &nonzeros_per_col(ac, k, nonzero), &nonzeros_per_col(&bt, k, nonzero))
        }
        _ => {
            // FP16 operands: the product of two quantized values is exact in
            // f32, so the kernel works on lattice values directly.
            let bt = transposed_panels(qb.values().as_slice(), k, n);
            let binter =
                (use_simd && n >= simd::GROUP).then(|| interleave_groups(&bt, k, n));
            let av = qa.values().as_slice();
            par_fill(out.as_mut_slice(), m, n, k, &|row0, band| {
                fp16_band(av, &bt, binter.as_deref(), row0, k, n, chunk_len, band);
            });
            let nonzero = |v: f32| v != 0.0;
            zero_gated(m, n, &nonzeros_per_col(av, k, nonzero), &nonzeros_per_col(&bt, k, nonzero))
        }
    };
    Ok((out, product_stats(m, k, n, gated)))
}

/// Small-m float matmul through the row-streaming kernels of
/// [`crate::gemv`], B kept row-major. 8-bit modes gate on zero codes and
/// FP16 on zero lattice values, as the blocked kernels do.
fn gemv_emulated(
    qa: &QTensor,
    qb: &QTensor,
    (m, k, n): (usize, usize, usize),
    chunk_len: usize,
    simd_mode: SimdMode,
    od: &mut [f32],
) -> GemmStats {
    let lut;
    let decoded: Vec<f32>;
    let (av, a_zero, b): (&[f32], Vec<bool>, _) = match (qa.codes(), qb.codes()) {
        (Some(ac), Some(bc)) => {
            lut = product_lut(qa.format(), qb.format());
            let ia = lut.a_operands();
            decoded = ac.iter().map(|&c| ia[usize::from(c)]).collect();
            let a_zero = ac.iter().map(|&c| is_zero_code(c)).collect();
            (&decoded, a_zero, gemv::FloatB::Codes(bc, lut.b_operands()))
        }
        _ => {
            let av = qa.values().as_slice();
            let a_zero = av.iter().map(|&v| v == 0.0).collect();
            (av, a_zero, gemv::FloatB::Values(qb.values().as_slice()))
        }
    };
    let work = |row0: usize, band: &mut [f32]| -> GemmStats {
        let band_a = row0 * k..;
        gemv::float_rows(&av[band_a.clone()], &a_zero[band_a], b, k, n, chunk_len, simd_mode, band)
    };
    par_rows(od, m, n, k, &work)
}

/// Interleaves `[n, k]` column panels into 16-wide groups for the AVX2
/// kernels: group `g` stores, for each k-position `p`, the 16 consecutive
/// column values `bt[(16g + t) * k + p]` contiguously, so each SIMD step
/// is one (or two) straight vector loads instead of 16 strided ones.
/// Trailing columns (`n % 16`) stay on the scalar block path.
fn interleave_groups<T: Copy + Default>(bt: &[T], k: usize, n: usize) -> Vec<T> {
    let groups = n / simd::GROUP;
    let mut out = vec![T::default(); groups * k * simd::GROUP];
    for g in 0..groups {
        let dst = &mut out[g * k * simd::GROUP..(g + 1) * k * simd::GROUP];
        for t in 0..simd::GROUP {
            let col = &bt[(g * simd::GROUP + t) * k..(g * simd::GROUP + t + 1) * k];
            for (p, &v) in col.iter().enumerate() {
                dst[p * simd::GROUP + t] = v;
            }
        }
    }
    out
}

/// Fills one row band of an 8-bit-operand GEMM from the product LUT. The
/// caller counts zero-gating from per-position zero counts
/// ([`zero_gated`]), keeping the MAC loop free of counting.
#[allow(clippy::too_many_arguments)]
fn lut_band(
    ac: &[u8],
    bt: &[u8],
    fdec: Option<(&[f32], &[f32])>,
    products: &[f32],
    row0: usize,
    k: usize,
    n: usize,
    chunk_len: usize,
    band: &mut [f32],
) {
    #[allow(clippy::expect_used)] // LUT size is a construction invariant
    let products: &[f32; 1 << 16] = products.try_into().expect("product LUT is 64K entries");
    let rows = band.len() / n;
    for r in 0..rows {
        let arow = &ac[(row0 + r) * k..(row0 + r + 1) * k];
        let orow = &mut band[r * n..(r + 1) * n];
        let mut j = 0;
        if let Some((av, bi)) = fdec {
            // AVX2 float kernel over the interleaved 16-column groups of
            // pre-decoded FP9 operand values: four groups at a time (8
            // independent accumulation chains to hide the add+round
            // latency), single groups as cleanup. A group starting at
            // column j begins at element j*k. The kernel's multiply
            // reproduces each table entry bit-exactly and its zero-product
            // remap to -0.0 matches the table's gated entries.
            let arv = &av[(row0 + r) * k..(row0 + r + 1) * k];
            let gsz = k * simd::GROUP;
            let mut wres = [0.0f32; simd::WIDE];
            while j + simd::WIDE <= n {
                let bw = &bi[j * k..j * k + simd::WIDE_GROUPS * gsz];
                simd::dot_fp16_groups_wide(arv, bw, chunk_len, &mut wres);
                orow[j..j + simd::WIDE].copy_from_slice(&wres);
                j += simd::WIDE;
            }
            let mut res = [0.0f32; simd::GROUP];
            while j + simd::GROUP <= n {
                simd::dot_fp16_group16(arv, &bi[j * k..j * k + gsz], chunk_len, &mut res);
                orow[j..j + simd::GROUP].copy_from_slice(&res);
                j += simd::GROUP;
            }
        } else {
            while j + JR <= n {
                let bcols = std::array::from_fn(|t| &bt[(j + t) * k..(j + t + 1) * k]);
                let res = dot_lut_block::<JR>(arow, bcols, products, chunk_len);
                orow[j..j + JR].copy_from_slice(&res);
                j += JR;
            }
        }
        while j < n {
            let res = dot_lut_block::<1>(arow, [&bt[j * k..(j + 1) * k]], products, chunk_len);
            orow[j] = res[0];
            j += 1;
        }
    }
}

/// Chunk-accumulated dot products of one A-row of codes against `B`
/// columns, all walking the same k-panel positions so the per-column FP16
/// rounding chains execute independently.
///
/// The chunk update uses a plain f32 add where the scalar reference
/// computes `(f64(acc) + f64(prod)) as f32`: double rounding through f64 is
/// innocuous for the sum of two f32 values (53 ≥ 2·24 + 2), so the results
/// are bit-identical.
#[inline]
fn dot_lut_block<const B: usize>(
    arow: &[u8],
    bcols: [&[u8]; B],
    products: &[f32; 1 << 16],
    chunk_len: usize,
) -> [f32; B] {
    let k = arow.len();
    let bcols: [&[u8]; B] = std::array::from_fn(|t| &bcols[t][..k]);
    let mut outer = [0.0f32; B];
    let mut chunk = [0.0f32; B];
    let mut in_chunk = 0usize;
    let mut prods = [0.0f32; B];
    for (p, &ca) in arow.iter().enumerate() {
        let base = usize::from(ca) << 8;
        #[allow(clippy::expect_used)] // row stride is a construction invariant
        let prow: &[f32; 256] =
            products[base..base + 256].try_into().expect("256-entry LUT row");
        // Zero products (gated, or FP9 underflow under extreme biases) are
        // stored as -0.0 — the IEEE additive identity — so the add and the
        // re-round leave an FP16-lattice chunk register unchanged without a
        // branch. Gathering into a register array first leaves the
        // accumulation pass load- and branch-free, so it vectorizes.
        for t in 0..B {
            prods[t] = prow[usize::from(bcols[t][p])];
        }
        for t in 0..B {
            chunk[t] = fp16_round_sum_sel(chunk[t] + prods[t]);
        }
        in_chunk += 1;
        if in_chunk == chunk_len {
            for t in 0..B {
                outer[t] += chunk[t];
                chunk[t] = 0.0;
            }
            in_chunk = 0;
        }
    }
    std::array::from_fn(|t| fp16_round_sum(outer[t] + chunk[t]))
}

/// Fills one row band of an FP16-operand GEMM on lattice values (gating
/// counted by the caller, as for [`lut_band`]).
#[allow(clippy::too_many_arguments)]
fn fp16_band(
    av: &[f32],
    bt: &[f32],
    binter: Option<&[f32]>,
    row0: usize,
    k: usize,
    n: usize,
    chunk_len: usize,
    band: &mut [f32],
) {
    let rows = band.len() / n;
    for r in 0..rows {
        let arow = &av[(row0 + r) * k..(row0 + r + 1) * k];
        let orow = &mut band[r * n..(r + 1) * n];
        let mut j = 0;
        if let Some(bi) = binter {
            // AVX2 lattice-value kernel over the interleaved groups, wide
            // first then single-group cleanup (see `lut_band`).
            let gsz = k * simd::GROUP;
            let mut wres = [0.0f32; simd::WIDE];
            while j + simd::WIDE <= n {
                let bw = &bi[j * k..j * k + simd::WIDE_GROUPS * gsz];
                simd::dot_fp16_groups_wide(arow, bw, chunk_len, &mut wres);
                orow[j..j + simd::WIDE].copy_from_slice(&wres);
                j += simd::WIDE;
            }
            let mut res = [0.0f32; simd::GROUP];
            while j + simd::GROUP <= n {
                simd::dot_fp16_group16(arow, &bi[j * k..j * k + gsz], chunk_len, &mut res);
                orow[j..j + simd::GROUP].copy_from_slice(&res);
                j += simd::GROUP;
            }
        } else {
            while j + JR <= n {
                let bcols = std::array::from_fn(|t| &bt[(j + t) * k..(j + t + 1) * k]);
                let res = dot_fp16_block::<JR>(arow, bcols, chunk_len);
                orow[j..j + JR].copy_from_slice(&res);
                j += JR;
            }
        }
        while j < n {
            let res = dot_fp16_block::<1>(arow, [&bt[j * k..(j + 1) * k]], chunk_len);
            orow[j] = res[0];
            j += 1;
        }
    }
}

/// FP16-mode analogue of [`dot_lut_block`]: products of two FP16 lattice
/// values are exact in f32 and never underflow, so a product is zero
/// exactly when a gated FMA would have skipped it.
#[inline]
fn dot_fp16_block<const B: usize>(
    arow: &[f32],
    bcols: [&[f32]; B],
    chunk_len: usize,
) -> [f32; B] {
    let k = arow.len();
    let bcols: [&[f32]; B] = std::array::from_fn(|t| &bcols[t][..k]);
    let mut outer = [0.0f32; B];
    let mut chunk = [0.0f32; B];
    let mut in_chunk = 0usize;
    let mut bvals = [0.0f32; B];
    for (p, &x) in arow.iter().enumerate() {
        // Strided column loads first; the accumulation pass is then pure
        // vertical arithmetic and vectorizes. A zero product (operands are
        // lattice values, whose products never underflow) is remapped to
        // -0.0 — the IEEE additive identity — which preserves the chunk
        // register through the re-round exactly like the scalar
        // reference's zero-gate skip.
        for t in 0..B {
            bvals[t] = bcols[t][p];
        }
        for t in 0..B {
            let prod = x * bvals[t];
            let gated = f32::from_bits(prod.to_bits() | 0x8000_0000);
            let prod = if prod == 0.0 { gated } else { prod };
            chunk[t] = fp16_round_sum_sel(chunk[t] + prod);
        }
        in_chunk += 1;
        if in_chunk == chunk_len {
            for t in 0..B {
                outer[t] += chunk[t];
                chunk[t] = 0.0;
            }
            in_chunk = 0;
        }
    }
    std::array::from_fn(|t| fp16_round_sum(outer[t] + chunk[t]))
}

/// Scalar reference for [`matmul_emulated`]: drives a [`ChunkAccumulator`]
/// one FMA at a time, exactly as the MPE datapath model does. The fast path
/// must reproduce its output and statistics bit-for-bit.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_emulated_scalar(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    let (m, k, n) = check_matmul_shapes(a, b).expect("incompatible matmul shapes");
    let (fa, fb) = mode.operand_formats();
    let qa: Vec<f32> = a.as_slice().iter().map(|&x| fa.quantize(x)).collect();
    let qb: Vec<f32> = b.as_slice().iter().map(|&x| fb.quantize(x)).collect();
    let mut out = Tensor::zeros(vec![m, n]);
    let od = out.as_mut_slice();
    let mut stats = GemmStats::default();
    for i in 0..m {
        for j in 0..n {
            let mut acc = ChunkAccumulator::new(mode, chunk_len);
            for p in 0..k {
                acc.mac(qa[i * k + p], qb[p * n + j]);
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            od[i * n + j] = acc.finish();
        }
    }
    (out, stats)
}

/// [`matmul_emulated`] with fault injection and a numeric guard.
///
/// With `faults == None` (or a plan whose MAC injectors are disabled) this
/// delegates to the bit-exact fast path — the hook costs nothing when off.
/// With an active plan it drives the scalar datapath model one FMA at a
/// time, corrupting operands and the chunk register per the plan, and
/// applies `policy` whenever the chunk register goes non-finite.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands, and
/// [`NumericsError::NonFinite`] under [`GuardPolicy::Error`] when a
/// corrupted accumulator is detected.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_emulated_guarded(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
    policy: GuardPolicy,
    faults: Option<&mut FaultPlan>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let plan = faults.filter(|p| p.mac_enabled());
    let Some(plan) = plan else {
        let (out, stats) = matmul_emulated_checked(mode, a, b, chunk_len)?;
        // The clean kernels saturate at FP16 write-back and cannot emit
        // non-finite values; the scan is defense in depth for checking
        // policies and costs O(m·n) only when asked for.
        if policy.checks() {
            let n = out.shape()[1];
            for (idx, &v) in out.as_slice().iter().enumerate() {
                if !v.is_finite() {
                    return Err(NumericsError::NonFinite {
                        row: idx / n,
                        col: idx % n,
                        bits: v.to_bits(),
                    });
                }
            }
        }
        return Ok((out, stats));
    };
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let (fa, fb) = mode.operand_formats();
    let qa: Vec<f32> = a.as_slice().iter().map(|&x| fa.quantize(x)).collect();
    let qb: Vec<f32> = b.as_slice().iter().map(|&x| fb.quantize(x)).collect();
    let mut out = Tensor::zeros(vec![m, n]);
    let od = out.as_mut_slice();
    let mut stats = GemmStats::default();
    for i in 0..m {
        for j in 0..n {
            let mut acc = ChunkAccumulator::new(mode, chunk_len);
            for p in 0..k {
                let x = plan.mac_operand(qa[i * k + p]);
                let y = plan.mac_operand(qb[p * n + j]);
                acc.mac(x, y);
                acc.corrupt_chunk(|v| plan.mac_accumulator(v));
                if policy.checks() && !acc.chunk_value().is_finite() {
                    match policy {
                        GuardPolicy::Saturate => {
                            stats.guard_clamps += 1;
                            acc.corrupt_chunk(saturate_f32);
                        }
                        _ => {
                            return Err(NumericsError::NonFinite {
                                row: i,
                                col: j,
                                bits: acc.chunk_value().to_bits(),
                            })
                        }
                    }
                }
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            let mut v = acc.finish();
            if policy.checks() && !v.is_finite() {
                match policy {
                    GuardPolicy::Saturate => {
                        stats.guard_clamps += 1;
                        v = saturate_f32(v);
                    }
                    _ => {
                        return Err(NumericsError::NonFinite {
                            row: i,
                            col: j,
                            bits: v.to_bits(),
                        })
                    }
                }
            }
            od[i * n + j] = v;
        }
    }
    Ok((out, stats))
}

/// FP16 (DLFloat) matrix multiply with chunked accumulation.
pub fn matmul_fp16(a: &Tensor, b: &Tensor, chunk_len: usize) -> (Tensor, GemmStats) {
    matmul_emulated(FmaMode::Fp16, a, b, chunk_len)
}

/// HFP8 forward-pass matrix multiply: both operands FP8 (1,4,3), default
/// bias.
pub fn matmul_hfp8_fwd(a: &Tensor, b: &Tensor, chunk_len: usize) -> (Tensor, GemmStats) {
    matmul_emulated(FmaMode::hfp8_fwd_default(), a, b, chunk_len)
}

/// HFP8 backward-pass matrix multiply: operand `a` FP8 (1,4,3), operand `b`
/// FP8 (1,5,2).
pub fn matmul_hfp8_bwd(a: &Tensor, b: &Tensor, chunk_len: usize) -> (Tensor, GemmStats) {
    matmul_emulated(FmaMode::hfp8_bwd_default(), a, b, chunk_len)
}

/// Quantized integer matrix multiply through the FXU pipeline: inputs are
/// quantized with the given per-tensor parameters, multiplied as integer
/// codes with INT16-chunk/INT32 accumulation, and the result dequantized by
/// the product of scales.
///
/// # Panics
///
/// Panics if the shapes are not compatible or `chunk_len == 0`.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_int(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    matmul_int_checked(a, b, qa, qb, chunk_len).expect("incompatible matmul shapes")
}

/// [`matmul_int`], returning an error instead of panicking on incompatible
/// shapes.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_int_checked(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
) -> Result<(Tensor, GemmStats), NumericsError> {
    matmul_int_with_simd(a, b, qa, qb, chunk_len, SimdMode::from_env())
}

/// Whether an INT16 chunk register could saturate for these quantization
/// parameters at reduction depth `k`: the worst-case magnitude of a chunk
/// window exceeds `i16::MAX`. When it cannot, the windowed tiled sum
/// equals the plain exact dot product (order-independent integer
/// addition), which is what licenses the whole-k madd and bit-sliced
/// kernels to ignore chunk boundaries while staying bit-exact.
pub(crate) fn int_saturation_possible(
    qa: QuantParams,
    qb: QuantParams,
    k: usize,
    chunk_len: usize,
) -> bool {
    let worst = |p: QuantParams| {
        let (lo, hi) = p.code_range();
        i64::from(lo.unsigned_abs().max(hi.unsigned_abs()))
    };
    let window = chunk_len.min(k.max(1)) as i64;
    window * worst(qa) * worst(qb) > i64::from(i16::MAX)
}

/// [`matmul_int_checked`] under an explicit vectorization policy instead
/// of the `RAPID_SIMD` environment knob.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_int_with_simd(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let mut ca = Vec::new();
    qa.quantize_codes_into(a.as_slice(), &mut ca, simd_mode);
    let out_scale = qa.scale() * qb.scale();
    let mut out = Tensor::zeros(vec![m, n]);
    if m == 0 || n == 0 {
        return Ok((out, GemmStats::default()));
    }
    // The INT16 chunk register cannot saturate when the worst-case chunk
    // magnitude fits; then exact integer sums are bit-exact and the fast
    // paths apply. Otherwise (illegally long chunks) fall back to the
    // saturating scalar accumulator.
    let saturation_possible = int_saturation_possible(qa, qb, k, chunk_len);
    if dispatch::row_stream(m) && !saturation_possible {
        // B is quantized row segment by row segment inside the kernel.
        let work = |row0: usize, band: &mut [f32]| -> GemmStats {
            let arows = &ca[row0 * k..];
            gemv::int_rows(arows, b.as_slice(), qb, k, n, chunk_len, out_scale, simd_mode, band)
        };
        let stats = par_rows(out.as_mut_slice(), m, n, k, &work);
        return Ok((out, stats));
    }
    let mut cb = Vec::new();
    qb.quantize_codes_into(b.as_slice(), &mut cb, simd_mode);
    if saturation_possible {
        let stats =
            matmul_int_codes_scalar(&ca, &cb, m, k, n, chunk_len, out_scale, out.as_mut_slice());
        return Ok((out, stats));
    }
    let macs = (m * n * k) as u64;
    let both_int2 = qa.format() == IntFormat::Int2 && qb.format() == IntFormat::Int2;
    let cbt = transposed_panels(&cb, k, n);
    let od = out.as_mut_slice();
    match dispatch::int_kernel(simd_mode, macs, k, both_int2) {
        dispatch::IntKernel::Tiled => {
            let pa = PackedPanel::pack(&ca, m, k, qa);
            let pb = PackedPanel::pack(&cbt, n, k, qb);
            par_fill(od, m, n, k, &|row0, band| {
                int_band(&pa, &pb, row0, k, n, chunk_len, out_scale, band);
            });
        }
        dispatch::IntKernel::Madd => {
            let kp = k.next_multiple_of(simd::INT_KSTEP);
            let (pa, pb) = (pad_cols(&ca, k, kp), pad_cols(&cbt, k, kp));
            let sides = simd::IntSides::of(qa.signedness(), qb.signedness());
            par_fill(od, m, n, k, &|row0, band| {
                let rows = band.len() / n;
                simd::int_dot_tile(sides, &pa[row0 * kp..], rows, &pb, n, kp, out_scale, band, n);
            });
        }
        dispatch::IntKernel::BitSliced => {
            let pa = bitslice::BitPlanes::pack(&ca, m, k, qa.signedness());
            let pb = bitslice::BitPlanes::pack(&cbt, n, k, qb.signedness());
            par_fill(od, m, n, k, &|row0, band| bitslice_band(&pa, &pb, row0, n, out_scale, band));
        }
    }
    let nonzero = |c: i8| c != 0;
    let (nz_a, nz_b) = (nonzeros_per_col(&ca, k, nonzero), nonzeros_per_col(&cbt, k, nonzero));
    let gated = zero_gated(m, n, &nz_a, &nz_b);
    Ok((out, product_stats(m, k, n, gated)))
}

/// Copies a row-major `[rows, k]` code matrix into `[rows, kp]` with each
/// row's tail zero-filled, the padded layout of the integer SIMD kernel.
fn pad_cols(codes: &[i8], k: usize, kp: usize) -> std::borrow::Cow<'_, [i8]> {
    if k == kp {
        return codes.into();
    }
    let mut out = vec![0i8; codes.len() / k * kp];
    for (dst, src) in out.chunks_exact_mut(kp).zip(codes.chunks_exact(k)) {
        dst[..k].copy_from_slice(src);
    }
    out.into()
}

/// Scalar reference for [`matmul_int`]: drives an [`IntAccumulator`] per
/// output element, including its saturating INT16 chunk register.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_int_scalar(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    let (m, k, n) = check_matmul_shapes(a, b).expect("incompatible matmul shapes");
    let ca: Vec<i8> = a.as_slice().iter().map(|&x| qa.quantize(x)).collect();
    let cb: Vec<i8> = b.as_slice().iter().map(|&x| qb.quantize(x)).collect();
    let mut out = Tensor::zeros(vec![m, n]);
    let out_scale = qa.scale() * qb.scale();
    let stats = matmul_int_codes_scalar(&ca, &cb, m, k, n, chunk_len, out_scale, out.as_mut_slice());
    (out, stats)
}

/// [`matmul_int`] with fault injection and a numeric guard.
///
/// With `faults == None` (or a plan whose MAC injectors are disabled) this
/// delegates to the bit-exact fast path, except that
/// [`GuardPolicy::Error`] forces the scalar datapath model whenever INT16
/// saturation is possible for the requested chunk length, so the first
/// overflow can be located. With an active plan it corrupts integer codes
/// and the chunk register per the plan and applies `policy` when the chunk
/// register saturates or is pushed past the legal worst-case bound.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands, and
/// [`NumericsError::Overflow`] under [`GuardPolicy::Error`] when the chunk
/// register overflows.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_int_guarded(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
    policy: GuardPolicy,
    faults: Option<&mut FaultPlan>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let worst = |p: QuantParams| {
        let (lo, hi) = p.code_range();
        i64::from(lo.unsigned_abs().max(hi.unsigned_abs()))
    };
    let window = chunk_len.min(k.max(1)) as i64;
    let legal_bound = window * worst(qa) * worst(qb);
    let mut plan = faults.filter(|p| p.mac_enabled());
    let saturation_possible = legal_bound > i64::from(i16::MAX);
    if plan.is_none() && !(policy == GuardPolicy::Error && saturation_possible) {
        return matmul_int_checked(a, b, qa, qb, chunk_len);
    }
    let ca: Vec<i8> = a.as_slice().iter().map(|&x| qa.quantize(x)).collect();
    let cb: Vec<i8> = b.as_slice().iter().map(|&x| qb.quantize(x)).collect();
    let out_scale = qa.scale() * qb.scale();
    let bound = legal_bound.min(i64::from(i16::MAX)) as i16;
    let (bits_a, bits_b) = (qa.format().bits(), qb.format().bits());
    let mut out = Tensor::zeros(vec![m, n]);
    let od = out.as_mut_slice();
    let mut stats = GemmStats::default();
    for i in 0..m {
        for j in 0..n {
            let mut acc = IntAccumulator::new(chunk_len);
            let mut sats_seen = 0u64;
            for p in 0..k {
                let (mut x, mut y) = (ca[i * k + p], cb[p * n + j]);
                if let Some(plan) = plan.as_deref_mut() {
                    x = plan.int_code(x, bits_a);
                    y = plan.int_code(y, bits_b);
                }
                acc.mac(x, y);
                if let Some(plan) = plan.as_deref_mut() {
                    acc.corrupt_chunk(|v| plan.int_chunk(v));
                }
                if policy.checks() {
                    let breached = acc.saturations() > sats_seen
                        || acc.chunk_value().unsigned_abs() > bound.unsigned_abs();
                    sats_seen = acc.saturations();
                    if breached {
                        match policy {
                            GuardPolicy::Saturate => {
                                stats.guard_clamps += 1;
                                acc.corrupt_chunk(|v| v.clamp(-bound, bound));
                            }
                            _ => {
                                return Err(NumericsError::Overflow {
                                    row: i,
                                    col: j,
                                    saturations: acc.saturations(),
                                })
                            }
                        }
                    }
                }
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            stats.saturations += acc.saturations();
            od[i * n + j] = acc.finish() as f32 * out_scale;
        }
    }
    Ok((out, stats))
}

#[allow(clippy::too_many_arguments)]
fn matmul_int_codes_scalar(
    ca: &[i8],
    cb: &[i8],
    m: usize,
    k: usize,
    n: usize,
    chunk_len: usize,
    out_scale: f32,
    od: &mut [f32],
) -> GemmStats {
    let mut stats = GemmStats::default();
    for i in 0..m {
        for j in 0..n {
            let mut acc = IntAccumulator::new(chunk_len);
            for p in 0..k {
                acc.mac(ca[i * k + p], cb[p * n + j]);
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            stats.saturations += acc.saturations();
            od[i * n + j] = acc.finish() as f32 * out_scale;
        }
    }
    stats
}

/// Integer codes packed at the format's sub-byte density, row-major with
/// byte-aligned rows (A rows and Bᵀ columns both become contiguous packed
/// k-panels).
struct PackedPanel {
    bytes: Vec<u8>,
    /// Bytes per packed row.
    stride: usize,
    bits: u32,
    /// Codes per byte.
    per: usize,
    signed: bool,
}

impl PackedPanel {
    fn pack(codes: &[i8], rows: usize, cols: usize, params: QuantParams) -> Self {
        let bits = params.format().bits();
        let per = params.format().per_byte();
        let stride = cols.div_ceil(per);
        let mask = (1u16 << bits) - 1;
        let mut bytes = vec![0u8; rows * stride];
        for r in 0..rows {
            for c in 0..cols {
                let code = codes[r * cols + c];
                bytes[r * stride + c / per] |=
                    (((code as u16) & mask) << ((c % per) as u32 * bits)) as u8;
            }
        }
        let signed = params.signedness() == Signedness::Signed;
        Self { bytes, stride, bits, per, signed }
    }

    fn row(&self, r: usize) -> &[u8] {
        &self.bytes[r * self.stride..(r + 1) * self.stride]
    }

    /// Decodes packed row `r` into `out` (length = the panel's column
    /// count), sign- or zero-extending according to the panel's signedness.
    /// Decoding is O(row) and amortized across all the dot products that
    /// reuse the row, so the MAC loops run on plain `i8` codes.
    fn decode_row_into(&self, r: usize, out: &mut [i8]) {
        let row = self.row(r);
        let mask = ((1u16 << self.bits) - 1) as u8;
        let ext = 8 - self.bits;
        let per_shift = self.per.trailing_zeros();
        let per_mask = self.per - 1;
        for (c, o) in out.iter_mut().enumerate() {
            let raw = (row[c >> per_shift] >> ((c & per_mask) as u32 * self.bits)) & mask;
            *o = if self.signed { ((raw << ext) as i8) >> ext } else { raw as i8 };
        }
    }
}

/// Fills one row band of an integer GEMM from packed panels. Only called
/// when the chunk guard in [`matmul_int_checked`] rules out INT16
/// saturation, so i32 window sums match the hardware accumulator exactly.
///
/// The packed B panel is decoded once per band and each packed A row once
/// per row; the dot products then run branch-free over `i8` codes (a gated
/// MAC contributes a zero product, so only the statistics need the gate,
/// and the caller counts those from per-position zero counts).
#[allow(clippy::too_many_arguments)]
fn int_band(
    pa: &PackedPanel,
    pb: &PackedPanel,
    row0: usize,
    k: usize,
    n: usize,
    chunk_len: usize,
    out_scale: f32,
    band: &mut [f32],
) {
    let rows = band.len() / n;
    let mut bdec = vec![0i8; n * k];
    for j in 0..n {
        pb.decode_row_into(j, &mut bdec[j * k..(j + 1) * k]);
    }
    let mut adec = vec![0i8; k];
    for r in 0..rows {
        pa.decode_row_into(row0 + r, &mut adec);
        let orow = &mut band[r * n..(r + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let dot = dot_int_windows(&adec, &bdec[j * k..(j + 1) * k], chunk_len);
            *o = dot as f32 * out_scale;
        }
    }
}

/// Fills one row band of an INT2×INT2 GEMM from packed bit-planes: each
/// dot product is four AND+popcount passes over `u64` words
/// ([`crate::bitslice`]). Only called when the chunk guard rules out INT16
/// saturation, like [`simd::int_dot_tile`].
fn bitslice_band(
    pa: &bitslice::BitPlanes,
    pb: &bitslice::BitPlanes,
    row0: usize,
    n: usize,
    out_scale: f32,
    band: &mut [f32],
) {
    for (r, orow) in band.chunks_exact_mut(n).enumerate() {
        bitslice::dot_planes_row(pa, row0 + r, pb, out_scale, orow);
    }
}

/// Chunk-windowed integer dot product over decoded codes: i32 sums per
/// chunk window (saturation-free by the caller's guard), i64 outer
/// accumulation. The window sums are plain multiply-adds the compiler can
/// vectorize.
#[inline]
fn dot_int_windows(a: &[i8], b: &[i8], chunk_len: usize) -> i64 {
    let mut outer = 0i64;
    let mut p0 = 0usize;
    let k = a.len();
    while p0 < k {
        let len = chunk_len.min(k - p0);
        let sum: i32 = a[p0..p0 + len]
            .iter()
            .zip(&b[p0..p0 + len])
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        outer += i64::from(sum);
        p0 += len;
    }
    outer
}

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub pad: usize,
}

impl ConvSpec {
    /// Unit-stride, zero-pad convolution.
    pub fn unit() -> Self {
        Self { stride: 1, pad: 0 }
    }

    /// Output spatial size for an input of size `h` and kernel `k`.
    pub fn out_dim(&self, h: usize, k: usize) -> usize {
        (h + 2 * self.pad).saturating_sub(k) / self.stride + 1
    }
}

/// Lowers an `[n, ci, h, w]` input into the `[n*ho*wo, ci*kh*kw]` im2col
/// matrix for a `[co, ci, kh, kw]` kernel — the transformation RaPiD's
/// dataflow performs implicitly when streaming H×W innermost (Fig 5).
///
/// # Panics
///
/// Panics if `input` is not rank 4.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
    let mut out = Tensor::default();
    im2col_into(input, kh, kw, spec, &mut out);
    out
}

/// [`im2col`] into a caller-provided tensor, reusing its allocation. `out`
/// is resized and fully overwritten; layer loops can pass the same scratch
/// tensor every iteration to avoid the per-call allocation.
///
/// # Panics
///
/// Panics if `input` is not rank 4.
pub fn im2col_into(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec, out: &mut Tensor) {
    assert_eq!(input.shape().len(), 4, "im2col expects [n, c, h, w]");
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let ho = spec.out_dim(h, kh);
    let wo = spec.out_dim(w, kw);
    let cols = c * kh * kw;
    out.reset(vec![n * ho * wo, cols]);
    let id = input.as_slice();
    let od = out.as_mut_slice();
    for ni in 0..n {
        for oy in 0..ho {
            for ox in 0..wo {
                let rb = ((ni * ho + oy) * wo + ox) * cols;
                for ci in 0..c {
                    for ky in 0..kh {
                        let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue; // padding rows stay zero from reset
                        }
                        let irow = (((ni * c) + ci) * h + iy as usize) * w;
                        let ob = rb + (ci * kh + ky) * kw;
                        for kx in 0..kw {
                            let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                od[ob + kx] = id[irow + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Cache key for one im2col buffer: the full input geometry. Two layers
/// with different shapes hash to different slots, so alternating layers in
/// a network no longer thrash a single buffer's reallocation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConvKey {
    in_shape: [usize; 4],
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
}

/// One geometry's buffers. The float and tiled paths use `cols`; the
/// code-domain integer path uses the byte buffers, reused across calls so
/// that no call pays fresh pages for them.
#[derive(Debug, Default, Clone)]
struct ConvSlot {
    /// The f32 im2col matrix.
    cols: Tensor,
    /// Input codes in the input's own `[n, ci, h, w]` order.
    nchw: Vec<i8>,
    /// Zero-bordered NHWC input codes, channels padded to a multiple of
    /// [`simd::INT_KSTEP`]. Each call rewrites only the interior, so the
    /// border and the padded channels stay zero.
    nhwc: Vec<i8>,
    /// One image's code rows `[ho·wo, kh·kw·cp]`, built from `nhwc`.
    rows: Vec<i8>,
    /// Weight codes in the weight's own `[co, ci, kh, kw]` order.
    wcodes: Vec<i8>,
    /// Weight code rows `[co, kh·kw·cp]`. Only real channels are ever
    /// written, so the padded ones stay zero.
    wrows: Vec<i8>,
}

/// Reusable scratch buffers for the convolution kernels: holds im2col
/// matrices (f32, or integer codes) keyed by input geometry so repeated
/// forward passes (training loops, sweeps, networks with alternating layer
/// shapes) stop paying a fresh allocation per call.
#[derive(Debug, Default, Clone)]
pub struct ConvScratch {
    /// MRU-ordered `(key, buffers)` slots, at most [`Self::MAX_SLOTS`].
    slots: Vec<(ConvKey, ConvSlot)>,
}

impl ConvScratch {
    /// Distinct geometries cached before the least-recently-used buffer is
    /// evicted; generously above any real network's distinct layer shapes.
    const MAX_SLOTS: usize = 16;

    /// Number of distinct conv geometries currently cached.
    pub fn cached_shapes(&self) -> usize {
        self.slots.len()
    }

    /// The buffers for this geometry, moved to the front (MRU). A new,
    /// empty slot is created on first sight; beyond [`Self::MAX_SLOTS`]
    /// the least-recently-used slot is evicted.
    fn slot(&mut self, input: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> &mut ConvSlot {
        let s = input.shape();
        let key = ConvKey {
            in_shape: [s[0], s[1], s[2], s[3]],
            kh,
            kw,
            stride: spec.stride,
            pad: spec.pad,
        };
        if let Some(pos) = self.slots.iter().position(|(k, _)| *k == key) {
            let slot = self.slots.remove(pos);
            self.slots.insert(0, slot);
        } else {
            self.slots.insert(0, (key, ConvSlot::default()));
            self.slots.truncate(Self::MAX_SLOTS);
        }
        &mut self.slots[0].1
    }
}

/// Validated conv operand geometry.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    n: usize,
    ci: usize,
    h: usize,
    w: usize,
    co: usize,
    kh: usize,
    kw: usize,
}

fn check_conv_shapes(input: &Tensor, weight: &Tensor) -> Result<ConvGeom, NumericsError> {
    if input.shape().len() != 4
        || weight.shape().len() != 4
        || input.shape()[1] != weight.shape()[1]
    {
        return Err(NumericsError::ShapeMismatch {
            expected: "input [n,ci,h,w] × weight [co,ci,kh,kw]".to_string(),
            actual: format!("input {:?} × weight {:?}", input.shape(), weight.shape()),
        });
    }
    Ok(ConvGeom {
        n: input.shape()[0],
        ci: input.shape()[1],
        h: input.shape()[2],
        w: input.shape()[3],
        co: weight.shape()[0],
        kh: weight.shape()[2],
        kw: weight.shape()[3],
    })
}

/// Reference FP32 convolution: input `[n, ci, h, w]`, weight
/// `[co, ci, kh, kw]` → output `[n, co, ho, wo]`.
///
/// # Panics
///
/// Panics if the operand ranks or channel counts are inconsistent.
pub fn conv2d_f32(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    conv2d_f32_with_scratch(input, weight, spec, &mut ConvScratch::default())
}

/// [`conv2d_f32`] reusing caller-provided scratch buffers.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_f32_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut ConvScratch,
) -> Tensor {
    conv2d_via_gemm(input, weight, spec, scratch, |cols, wmat| {
        Ok((matmul_f32(cols, wmat), GemmStats::default()))
    })
    .expect("inconsistent conv operand shapes")
    .0
}

/// Emulated floating-point convolution through the FPU pipeline.
pub fn conv2d_emulated(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_emulated_with_scratch(input, weight, spec, mode, chunk_len, &mut ConvScratch::default())
}

/// [`conv2d_emulated`] reusing caller-provided scratch buffers.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_emulated_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
    scratch: &mut ConvScratch,
) -> (Tensor, GemmStats) {
    conv2d_emulated_with_simd(input, weight, spec, mode, chunk_len, scratch, SimdMode::from_env())
        .expect("inconsistent conv operand shapes")
}

/// [`conv2d_emulated_with_scratch`] under an explicit vectorization
/// policy. In the SIMD regime the convolution runs panel-packed: the GEMM
/// is restated per image as `weights [co, ci·kh·kw] × im2col-rowsᵀ`, whose
/// Bᵀ k-panels *are* the im2col rows, and output panels land directly in
/// the `[n, co, ho, wo]` layout — no weight transpose, no column-panel
/// copy, no output rearrange pass. Operand order commutes bit-exactly
/// (the FP9 product table and lattice products are exact f32 values, and
/// the chunked accumulation walks the same k order), which the
/// `fastpath_bitexact` proptests pin against the scalar reference.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on inconsistent operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_emulated_with_simd(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
    scratch: &mut ConvScratch,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let g = check_conv_shapes(input, weight)?;
    let hw = spec.out_dim(g.h, g.kh) * spec.out_dim(g.w, g.kw);
    let macs = (g.n * hw * g.co * g.ci * g.kh * g.kw) as u64;
    if dispatch::float_use_simd(simd_mode, macs) {
        conv2d_panels_emulated(input, weight, spec, mode, chunk_len, scratch, simd_mode)
    } else {
        conv2d_via_gemm(input, weight, spec, scratch, |cols, wmat| {
            matmul_emulated_with_simd(mode, cols, wmat, chunk_len, simd_mode)
        })
    }
}

/// Scalar reference for [`conv2d_emulated`] (scalar GEMM underneath); the
/// fast convolution must match it bit-for-bit.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_emulated_scalar(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_via_gemm(input, weight, spec, &mut ConvScratch::default(), |cols, wmat| {
        Ok(matmul_emulated_scalar(mode, cols, wmat, chunk_len))
    })
    .expect("inconsistent conv operand shapes")
}

/// Emulated integer convolution through the FXU pipeline.
pub fn conv2d_int(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_int_with_scratch(input, weight, spec, qa, qw, chunk_len, &mut ConvScratch::default())
}

/// [`conv2d_int`] reusing caller-provided scratch buffers.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_int_with_scratch(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
    scratch: &mut ConvScratch,
) -> (Tensor, GemmStats) {
    conv2d_int_with_simd(input, weight, spec, qa, qw, chunk_len, scratch, SimdMode::from_env())
        .expect("inconsistent conv operand shapes")
}

/// [`conv2d_int_with_scratch`] under an explicit vectorization policy.
///
/// In the SIMD and bit-sliced regimes the convolution works on codes from
/// the start: the `[n, ci, h, w]` input is quantized once — not the
/// `kh·kw`-times larger im2col matrix — into a zero-bordered NHWC byte
/// buffer with channels padded to a multiple of 32, and the weights are
/// quantized with their reduction axis permuted to (tap, channel) to
/// match. Quantization is elementwise with `quantize(0.0) == 0`, so the
/// codes are exactly the im2col matrix's codes, and integer sums do not
/// depend on order, so the values are bit-identical. A 1×1 stride-1
/// unpadded conv then multiplies the NHWC buffer directly; any other conv
/// builds each image's rows from one `kw·cp`-byte copy per kernel row.
/// The tiled regime (`RAPID_SIMD=off`, or below the `auto` size gate)
/// keeps the f32 im2col GEMM, and so does any chunk length that makes
/// INT16 saturation possible (the saturating accumulator must then be
/// modeled).
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on inconsistent operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_int_with_simd(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
    scratch: &mut ConvScratch,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let g = check_conv_shapes(input, weight)?;
    let hw = spec.out_dim(g.h, g.kh) * spec.out_dim(g.w, g.kw);
    let kcols = g.ci * g.kh * g.kw;
    let macs = (g.n * hw * g.co * kcols) as u64;
    let both_int2 = qa.format() == IntFormat::Int2 && qw.format() == IntFormat::Int2;
    let kernel = if int_saturation_possible(qa, qw, kcols, chunk_len) {
        dispatch::IntKernel::Tiled
    } else {
        dispatch::int_kernel(simd_mode, macs, kcols, both_int2)
    };
    match kernel {
        dispatch::IntKernel::Tiled => conv2d_via_gemm(input, weight, spec, scratch, |cols, wmat| {
            matmul_int_with_simd(cols, wmat, qa, qw, chunk_len, simd_mode)
        }),
        kernel => conv2d_codes_int(input, weight, spec, qa, qw, scratch, kernel, simd_mode),
    }
}

/// Scalar reference for [`conv2d_int`] (scalar GEMM underneath).
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_int_scalar(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_via_gemm(input, weight, spec, &mut ConvScratch::default(), |cols, wmat| {
        Ok(matmul_int_scalar(cols, wmat, qa, qw, chunk_len))
    })
    .expect("inconsistent conv operand shapes")
}

fn conv2d_via_gemm(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    scratch: &mut ConvScratch,
    mm: impl Fn(&Tensor, &Tensor) -> Result<(Tensor, GemmStats), NumericsError>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let g = check_conv_shapes(input, weight)?;
    let (n, ci, co, kh, kw) = (g.n, g.ci, g.co, g.kh, g.kw);
    let ho = spec.out_dim(g.h, kh);
    let wo = spec.out_dim(g.w, kw);
    let cols = &mut scratch.slot(input, kh, kw, spec).cols;
    im2col_into(input, kh, kw, spec, cols);
    #[allow(clippy::expect_used)] // reshape cannot fail: same element count
    let wmat = weight
        .clone()
        .reshape(vec![co, ci * kh * kw])
        .expect("weight reshape is size-preserving")
        .transposed();
    let (flat, stats) = mm(cols, &wmat)?; // [n*ho*wo, co]
    // Rearrange [n*ho*wo, co] -> [n, co, ho, wo] with flat indexing.
    let mut out = Tensor::zeros(vec![n, co, ho, wo]);
    let od = out.as_mut_slice();
    let fd = flat.as_slice();
    let hw = ho * wo;
    for ni in 0..n {
        for c in 0..co {
            let dst = (ni * co + c) * hw;
            let src = ni * hw;
            for s in 0..hw {
                od[dst + s] = fd[(src + s) * co + c];
            }
        }
    }
    Ok((out, stats))
}

/// Panel-packed emulated float convolution (see
/// [`conv2d_emulated_with_simd`]): per image `i`,
/// `out[i] = weights [co, K'] × cols_rows(i)ᵀ` computed band-parallel over
/// output channels, writing straight into the `[n, co, ho, wo]` buffer.
/// The product LUT is built as `(fb, fa)` because the weight code now
/// indexes the high byte; FP9 products commute exactly, so the result is
/// bit-identical to the flat-GEMM orientation.
#[allow(clippy::too_many_arguments)]
fn conv2d_panels_emulated(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
    scratch: &mut ConvScratch,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    assert!(chunk_len > 0, "chunk length must be positive");
    let g = check_conv_shapes(input, weight)?;
    let ho = spec.out_dim(g.h, g.kh);
    let wo = spec.out_dim(g.w, g.kw);
    let hw = ho * wo;
    let kcols = g.ci * g.kh * g.kw;
    let cols = &mut scratch.slot(input, g.kh, g.kw, spec).cols;
    im2col_into(input, g.kh, g.kw, spec, cols);
    let (fa, fb) = mode.operand_formats();
    let wmat = weight.clone().reshape(vec![g.co, kcols])?;
    let qw = QTensor::quantize(&wmat, fb);
    let qc = QTensor::quantize(cols, fa);
    let mut out = Tensor::zeros(vec![g.n, g.co, ho, wo]);
    if out.as_slice().is_empty() {
        return Ok((out, GemmStats::default()));
    }
    let use_simd = dispatch::float_use_simd(simd_mode, (g.n * hw * g.co * kcols) as u64);
    let mut gated = 0u64;
    let od = out.as_mut_slice();
    match (qw.codes(), qc.codes()) {
        (Some(wc), Some(cc)) => {
            let lut = product_lut(fb, fa);
            let products: Vec<f32> =
                lut.products().iter().map(|&p| if p == 0.0 { -0.0 } else { p }).collect();
            // Decoded FP9 weight values for the SIMD kernel (see the GEMM
            // LUT branch); the per-image column panels are decoded inside
            // the loop as they are interleaved.
            let wv: Option<Vec<f32>> = (use_simd && hw >= simd::GROUP).then(|| {
                let ia = lut.a_operands();
                wc.iter().map(|&c| ia[usize::from(c)]).collect()
            });
            let nonzero = |c: u8| !is_zero_code(c);
            let nzw = nonzeros_per_col(wc, kcols, nonzero);
            for i in 0..g.n {
                let bt = &cc[i * hw * kcols..(i + 1) * hw * kcols];
                let binter = wv.as_ref().map(|_| {
                    let ib = lut.b_operands();
                    let btv: Vec<f32> = bt.iter().map(|&c| ib[usize::from(c)]).collect();
                    interleave_groups(&btv, kcols, hw)
                });
                let band_out = &mut od[i * g.co * hw..(i + 1) * g.co * hw];
                par_fill(band_out, g.co, hw, kcols, &|row0, band| {
                    let fdec = wv
                        .as_ref()
                        .zip(binter.as_ref())
                        .map(|(av, bi)| (av.as_slice(), bi.as_slice()));
                    lut_band(wc, bt, fdec, &products, row0, kcols, hw, chunk_len, band);
                });
                gated += zero_gated(g.co, hw, &nzw, &nonzeros_per_col(bt, kcols, nonzero));
            }
        }
        _ => {
            let wv = qw.values().as_slice();
            let cv = qc.values().as_slice();
            let nonzero = |v: f32| v != 0.0;
            let nzw = nonzeros_per_col(wv, kcols, nonzero);
            for i in 0..g.n {
                let bt = &cv[i * hw * kcols..(i + 1) * hw * kcols];
                let binter =
                    (use_simd && hw >= simd::GROUP).then(|| interleave_groups(bt, kcols, hw));
                let band_out = &mut od[i * g.co * hw..(i + 1) * g.co * hw];
                par_fill(band_out, g.co, hw, kcols, &|row0, band| {
                    fp16_band(wv, bt, binter.as_deref(), row0, kcols, hw, chunk_len, band);
                });
                gated += zero_gated(g.co, hw, &nzw, &nonzeros_per_col(bt, kcols, nonzero));
            }
        }
    }
    Ok((out, product_stats(g.n * hw, kcols, g.co, gated)))
}

/// Code-domain integer convolution (see [`conv2d_int_with_simd`]): per
/// image `i`, `out[i] = weights [co, kh·kw·cp] × rows(i)ᵀ` over i8 codes,
/// band-parallel over output channels and written straight into the
/// `[n, co, ho, wo]` buffer. Only called when the chunk guard rules out
/// INT16 saturation, so `kernel` is never [`dispatch::IntKernel::Tiled`].
#[allow(clippy::too_many_arguments)]
fn conv2d_codes_int(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    scratch: &mut ConvScratch,
    kernel: dispatch::IntKernel,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let g = check_conv_shapes(input, weight)?;
    let (ho, wo) = (spec.out_dim(g.h, g.kh), spec.out_dim(g.w, g.kw));
    let (hw, taps) = (ho * wo, g.kh * g.kw);
    let cp = g.ci.next_multiple_of(simd::INT_KSTEP);
    let kp = taps * cp;
    let mut out = Tensor::zeros(vec![g.n, g.co, ho, wo]);
    if out.as_slice().is_empty() || kp == 0 {
        return Ok((out, GemmStats::default()));
    }
    let ConvSlot { nchw, nhwc, rows, wcodes, wrows, .. } = scratch.slot(input, g.kh, g.kw, spec);
    // Weight row `o` holds w[o, c, ky, kx] at (ky·kw + kx)·cp + c: the
    // quantized weights as they are for a 1×1 kernel over a multiple of
    // 32 channels, else permuted into `wrows`.
    qw.quantize_codes_into(weight.as_slice(), wcodes, simd_mode);
    let wq: &[i8] = if taps == 1 && cp == g.ci {
        wcodes
    } else {
        wrows.resize(g.co * kp, 0);
        for (wrow, src) in wrows.chunks_exact_mut(kp).zip(wcodes.chunks_exact(g.ci * taps)) {
            for (t, dst) in wrow.chunks_exact_mut(cp).enumerate() {
                for (c, d) in dst[..g.ci].iter_mut().enumerate() {
                    *d = src[c * taps + t];
                }
            }
        }
        wrows
    };
    // The bordered extent holds every tap of every output position (it
    // exceeds `h + 2·pad` only when the kernel is taller than that).
    let hp = (g.h + 2 * spec.pad).max((ho - 1) * spec.stride + g.kh);
    let wp = (g.w + 2 * spec.pad).max((wo - 1) * spec.stride + g.kw);
    let img_len = hp * wp * cp;
    qa.quantize_codes_into(input.as_slice(), nchw, simd_mode);
    if nhwc.len() != g.n * img_len {
        *nhwc = vec![0; g.n * img_len];
    }
    let plane = g.h * g.w;
    if plane > 0 {
        for (img, src) in nhwc.chunks_exact_mut(img_len).zip(nchw.chunks_exact(g.ci * plane)) {
            for y in 0..g.h {
                let row = &mut img[((y + spec.pad) * wp + spec.pad) * cp..][..g.w * cp];
                for (x, dst) in row.chunks_exact_mut(cp).enumerate() {
                    let at = y * g.w + x;
                    for (c, d) in dst[..g.ci].iter_mut().enumerate() {
                        *d = src[c * plane + at];
                    }
                }
            }
        }
    }
    // Same expression (and f32 rounding) as the flat path's
    // `qa.scale() * qb.scale()` with A = cols, B = weights.
    let out_scale = qa.scale() * qw.scale();
    let nonzero = |c: i8| c != 0;
    // Gating counts the real positions only: spatial padding counts as
    // zeros, as in the im2col matrix; padded channels are skipped.
    let real = |counts: Vec<u32>| -> Vec<u32> {
        counts.chunks_exact(cp).flat_map(|t| &t[..g.ci]).copied().collect()
    };
    let nzw = real(nonzeros_per_col(wq, kp, nonzero));
    let kcols = g.ci * taps;
    let direct = taps == 1 && spec.stride == 1 && spec.pad == 0;
    let planes_w = (kernel == dispatch::IntKernel::BitSliced)
        .then(|| bitslice::BitPlanes::pack(wq, g.co, kp, qw.signedness()));
    let sides = simd::IntSides::of(qw.signedness(), qa.signedness());
    let mut gated = 0u64;
    let od = out.as_mut_slice();
    for (i, img) in nhwc.chunks_exact(img_len).enumerate() {
        let xr: &[i8] = if direct {
            img
        } else {
            im2col_codes(img, wp, cp, (g.kh, g.kw), spec.stride, (ho, wo), rows);
            rows
        };
        gated += zero_gated(g.co, hw, &nzw, &real(nonzeros_per_col(xr, kp, nonzero)));
        let band_out = &mut od[i * g.co * hw..(i + 1) * g.co * hw];
        if let Some(pw) = &planes_w {
            let px = bitslice::BitPlanes::pack(xr, hw, kp, qa.signedness());
            par_fill(band_out, g.co, hw, kcols, &|row0, band| {
                bitslice_band(pw, &px, row0, hw, out_scale, band);
            });
        } else {
            par_fill(band_out, g.co, hw, kcols, &|row0, band| {
                let co = band.len() / hw;
                simd::int_dot_tile(sides, &wq[row0 * kp..], co, xr, hw, kp, out_scale, band, hw);
            });
        }
    }
    Ok((out, product_stats(g.n * hw, kcols, g.co, gated)))
}

/// Lowers one zero-bordered NHWC code image (`wp` positions per row, `cp`
/// bytes per position) into `[ho·wo, kh·kw·cp]` rows. The `kw` taps of a
/// kernel row sit side by side in the image, so each kernel row is one
/// copy.
fn im2col_codes(
    img: &[i8],
    wp: usize,
    cp: usize,
    (kh, kw): (usize, usize),
    stride: usize,
    (ho, wo): (usize, usize),
    rows: &mut Vec<i8>,
) {
    let span = kw * cp;
    rows.resize(ho * wo * kh * span, 0);
    for (pos, row) in rows.chunks_exact_mut(kh * span).enumerate() {
        let (oy, ox) = (pos / wo, pos % wo);
        for (ky, dst) in row.chunks_exact_mut(span).enumerate() {
            let src = ((oy * stride + ky) * wp + ox * stride) * cp;
            dst.copy_from_slice(&img[src..src + span]);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::format::fp16_round;
    use crate::int::IntFormat;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Tensor {
        Tensor::random_uniform(vec![m, n], -1.0, 1.0, seed)
    }

    #[test]
    fn f32_matmul_identity() {
        let a = rand_mat(4, 4, 1);
        let eye = Tensor::from_fn(vec![4, 4], |i| if i % 5 == 0 { 1.0 } else { 0.0 });
        assert_eq!(matmul_f32(&a, &eye), a);
    }

    #[test]
    fn emulated_fp16_close_to_f32() {
        let a = rand_mat(8, 32, 2);
        let b = rand_mat(32, 8, 3);
        let exact = matmul_f32(&a, &b);
        let (got, stats) = matmul_fp16(&a, &b, 64);
        assert_eq!(stats.macs, 8 * 32 * 8);
        assert!(got.max_rel_diff(&exact) < 5e-3, "diff {}", got.max_rel_diff(&exact));
    }

    #[test]
    fn emulated_hfp8_close_to_f32() {
        let a = rand_mat(8, 64, 4);
        let b = rand_mat(64, 8, 5);
        let exact = matmul_f32(&a, &b);
        let (fwd, _) = matmul_hfp8_fwd(&a, &b, 64);
        let (bwd, _) = matmul_hfp8_bwd(&a, &b, 64);
        // 3-bit / 2-bit mantissas: coarse but correlated.
        assert!(fwd.max_rel_diff(&exact) < 0.08, "fwd diff {}", fwd.max_rel_diff(&exact));
        assert!(bwd.max_rel_diff(&exact) < 0.15, "bwd diff {}", bwd.max_rel_diff(&exact));
    }

    #[test]
    fn int4_matmul_close_to_f32_for_uniform_data() {
        let a = rand_mat(8, 64, 6);
        let b = rand_mat(64, 8, 7);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, a.max_abs());
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, b.max_abs());
        let exact = matmul_f32(&a, &b);
        let (got, stats) = matmul_int(&a, &b, qa, qb, 64);
        assert_eq!(stats.saturations, 0);
        assert!(got.max_rel_diff(&exact) < 0.25, "diff {}", got.max_rel_diff(&exact));
    }

    #[test]
    fn zero_gating_stats_reflect_sparsity() {
        let mut a = rand_mat(4, 32, 8);
        // Zero half of A's entries.
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = rand_mat(32, 4, 9);
        let (_, stats) = matmul_fp16(&a, &b, 64);
        let frac = stats.gated_fraction();
        assert!((frac - 0.5).abs() < 0.05, "gated fraction {frac}");
    }

    /// The per-position identity `Σ_p (m·n − nz_a[p]·nz_b[p])` equals the
    /// pairwise count it replaces — the popcount of the union of every A
    /// row's and B column's zero masks — on random masks of several
    /// densities, with depths that leave a partial last 64-bit word.
    #[test]
    fn gating_identity_matches_pairwise_popcount() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let shapes: [(usize, usize, usize); 5] =
            [(1, 1, 1), (3, 63, 5), (7, 65, 4), (9, 130, 11), (2, 200, 17)];
        for (m, k, n) in shapes {
            for density in [0u64, 3, 8, 16] {
                // A [m, k] and B [k, n] zero masks (true = zero), one in
                // 16 entries zero per density step, all zero at 16.
                let mut zero = |_| next() % 16 < density;
                let za: Vec<bool> = (0..m * k).map(&mut zero).collect();
                let zb: Vec<bool> = (0..k * n).map(&mut zero).collect();
                let words = k.div_ceil(64);
                let pack = |bits: &mut dyn Iterator<Item = bool>| -> Vec<u64> {
                    let mut w = vec![0u64; words];
                    for (p, z) in bits.enumerate() {
                        w[p / 64] |= u64::from(z) << (p % 64);
                    }
                    w
                };
                let mut pairwise = 0u64;
                for i in 0..m {
                    let a = pack(&mut (0..k).map(|p| za[i * k + p]));
                    for j in 0..n {
                        let b = pack(&mut (0..k).map(|p| zb[p * n + j]));
                        let union = a.iter().zip(&b).map(|(x, y)| u64::from((x | y).count_ones()));
                        pairwise += union.sum::<u64>();
                    }
                }
                let a_codes: Vec<i8> = za.iter().map(|&z| i8::from(!z)).collect();
                let bt_codes: Vec<i8> =
                    (0..n * k).map(|i| i8::from(!zb[(i % k) * n + i / k])).collect();
                let nz = |c: i8| c != 0;
                let nz_a = nonzeros_per_col(&a_codes, k, nz);
                let nz_b = nonzeros_per_col(&bt_codes, k, nz);
                let identity = zero_gated(m, n, &nz_a, &nz_b);
                assert_eq!(identity, pairwise, "m {m} k {k} n {n} density {density}/16");
            }
        }
    }

    /// The blocked integer GEMM (m past the row-streaming bound, so the
    /// `maddubs` kernel, the bit-sliced kernel or the tiled path runs) on
    /// depths that are not a multiple of the kernel's 32-code step, for
    /// every signedness pair and both backend pins, with an all-zero A
    /// row and an all-zero B column.
    #[test]
    fn blocked_int_gemm_pads_ragged_depths_bit_exactly() {
        for (m, k, n) in [(9usize, 45usize, 11usize), (13, 77, 6), (17, 33, 19)] {
            let mut a = rand_mat(m, k, 40);
            let mut b = rand_mat(k, n, 41);
            a.as_mut_slice()[2 * k..3 * k].fill(0.0);
            for p in 0..k {
                b.as_mut_slice()[p * n + 1] = 0.0;
            }
            for fmt in [IntFormat::Int4, IntFormat::Int2] {
                for (sa, sb) in [
                    (Signedness::Signed, Signedness::Signed),
                    (Signedness::Signed, Signedness::Unsigned),
                    (Signedness::Unsigned, Signedness::Signed),
                    (Signedness::Unsigned, Signedness::Unsigned),
                ] {
                    let qa = QuantParams::from_abs_max(fmt, sa, a.max_abs());
                    let qb = QuantParams::from_abs_max(fmt, sb, b.max_abs());
                    let (scalar, ss) = matmul_int_scalar(&a, &b, qa, qb, 64);
                    for simd in [SimdMode::Force, SimdMode::Off] {
                        let (fast, fs) = matmul_int_with_simd(&a, &b, qa, qb, 64, simd).unwrap();
                        assert_bits_eq(&fast, &scalar);
                        assert_eq!(fs, ss, "{m}×{k}×{n} {fmt:?} {sa:?}×{sb:?} {simd:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn checked_matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 5]);
        assert!(matmul_f32_checked(&a, &b).is_err());
        assert!(matmul_emulated_checked(FmaMode::Fp16, &a, &b, 64).is_err());
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        assert!(matmul_int_checked(&a, &b, q, q, 64).is_err());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn fast_rounder_matches_general_quantizer() {
        // The specialized kernel rounder must agree with FpFormat::fp16()
        // quantization on every finite f32 (its full input domain) —
        // sampled densely across the exponent range plus edge cases.
        let check = |x: f32| {
            let general = fp16_round(x);
            assert_eq!(fp16_round_sum(x).to_bits(), general.to_bits(), "x = {x:e}");
            assert_eq!(fp16_round_sum_sel(x).to_bits(), general.to_bits(), "sel x = {x:e}");
        };
        for exp in 0u32..=254 {
            for man in [0u32, 1, 0x1fff, 0x2000, 0x2001, 0x3fff, 0x7fffff] {
                let bits = (exp << 23) | man;
                check(f32::from_bits(bits));
                check(f32::from_bits(bits | 0x8000_0000));
            }
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = f32::from_bits((state >> 32) as u32);
            if x.is_finite() {
                check(x);
            }
        }
    }

    #[test]
    fn fast_path_matches_scalar_all_float_modes() {
        // Shapes chosen to exercise the JR remainder columns and partial
        // final chunks; sparsity exercises gating counts.
        let mut a = rand_mat(7, 35, 30);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = rand_mat(35, 11, 31);
        for mode in [
            FmaMode::Fp16,
            FmaMode::hfp8_fwd_default(),
            FmaMode::hfp8_bwd_default(),
            FmaMode::Hfp8Fwd { bias_a: 5, bias_b: 9 },
        ] {
            for chunk_len in [1, 3, 35, 64] {
                let (fast, fs) = matmul_emulated(mode, &a, &b, chunk_len);
                let (scalar, ss) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
                assert_bits_eq(&fast, &scalar);
                assert_eq!(fs, ss, "{mode:?} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn fast_int_matches_scalar_across_formats() {
        let a = rand_mat(6, 40, 32);
        let b = rand_mat(40, 9, 33);
        for (fmt, signedness) in [
            (IntFormat::Int4, Signedness::Signed),
            (IntFormat::Int4, Signedness::Unsigned),
            (IntFormat::Int2, Signedness::Signed),
            (IntFormat::Int2, Signedness::Unsigned),
        ] {
            let qa = QuantParams::from_abs_max(fmt, signedness, a.max_abs());
            let qb = QuantParams::from_abs_max(fmt, Signedness::Signed, b.max_abs());
            for chunk_len in [1, 7, 64] {
                let (fast, fs) = matmul_int(&a, &b, qa, qb, chunk_len);
                let (scalar, ss) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
                assert_bits_eq(&fast, &scalar);
                assert_eq!(fs, ss, "{fmt:?} {signedness:?} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn saturating_chunk_lengths_fall_back_to_scalar_semantics() {
        // chunk_len 1024 × worst product 49 exceeds i16::MAX: saturation is
        // possible, so the fast path must defer to the saturating reference.
        let a = Tensor::from_fn(vec![2, 2048], |_| 1.0);
        let b = Tensor::from_fn(vec![2048, 2], |_| 1.0);
        let qa = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 1.0 / 7.0).unwrap();
        let (fast, fs) = matmul_int(&a, &b, qa, qa, 1024);
        let (scalar, ss) = matmul_int_scalar(&a, &b, qa, qa, 1024);
        assert!(ss.saturations > 0, "test should exercise saturation");
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fs, ss);
    }

    #[test]
    fn conv_matches_direct_computation() {
        // 1x1x3x3 input, 1x1x2x2 kernel, stride 1 pad 0.
        let input = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let out = conv2d_f32(&input, &weight, ConvSpec::unit());
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // out[y][x] = in[y][x] + in[y+1][x+1]
        assert_eq!(out.get(&[0, 0, 0, 0]), 1.0 + 5.0);
        assert_eq!(out.get(&[0, 0, 0, 1]), 2.0 + 6.0);
        assert_eq!(out.get(&[0, 0, 1, 0]), 4.0 + 8.0);
        assert_eq!(out.get(&[0, 0, 1, 1]), 5.0 + 9.0);
    }

    #[test]
    fn conv_with_padding_and_stride() {
        let input = Tensor::random_uniform(vec![2, 3, 8, 8], -1.0, 1.0, 10);
        let weight = Tensor::random_uniform(vec![4, 3, 3, 3], -0.5, 0.5, 11);
        let spec = ConvSpec { stride: 2, pad: 1 };
        let out = conv2d_f32(&input, &weight, spec);
        assert_eq!(out.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn emulated_conv_tracks_reference() {
        let input = Tensor::random_uniform(vec![1, 4, 6, 6], -1.0, 1.0, 12);
        let weight = Tensor::random_uniform(vec![8, 4, 3, 3], -0.5, 0.5, 13);
        let exact = conv2d_f32(&input, &weight, ConvSpec::unit());
        let (fp16, stats) = conv2d_emulated(&input, &weight, ConvSpec::unit(), FmaMode::Fp16, 64);
        assert_eq!(stats.macs as usize, 8 * 4 * 4 * 3 * 3 * 4);
        assert!(fp16.max_rel_diff(&exact) < 1e-2);
    }

    #[test]
    fn int_conv_runs_without_saturation() {
        let input = Tensor::random_uniform(vec![1, 8, 6, 6], 0.0, 1.0, 14);
        let weight = Tensor::random_uniform(vec![8, 8, 3, 3], -0.5, 0.5, 15);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 1.0);
        let qw = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 0.5);
        let (out, stats) = conv2d_int(&input, &weight, ConvSpec::unit(), qa, qw, 64);
        assert_eq!(out.shape(), &[1, 8, 4, 4]);
        assert_eq!(stats.saturations, 0);
        let exact = conv2d_f32(&input, &weight, ConvSpec::unit());
        assert!(out.max_rel_diff(&exact) < 0.3);
    }

    #[test]
    fn conv_scratch_reuse_is_bit_exact() {
        let input = Tensor::random_uniform(vec![2, 3, 7, 7], -1.0, 1.0, 40);
        let weight = Tensor::random_uniform(vec![5, 3, 3, 3], -0.5, 0.5, 41);
        let spec = ConvSpec { stride: 2, pad: 1 };
        let mode = FmaMode::hfp8_fwd_default();
        let (fresh, fresh_stats) = conv2d_emulated(&input, &weight, spec, mode, 64);
        let mut scratch = ConvScratch::default();
        // Dirty the scratch with a differently-shaped problem first.
        let small = Tensor::random_uniform(vec![1, 3, 4, 4], -1.0, 1.0, 42);
        let _ = conv2d_emulated_with_scratch(&small, &weight, ConvSpec::unit(), mode, 64, &mut scratch);
        let (reused, reused_stats) =
            conv2d_emulated_with_scratch(&input, &weight, spec, mode, 64, &mut scratch);
        assert_bits_eq(&fresh, &reused);
        assert_eq!(fresh_stats, reused_stats);
    }

    /// Alternating layer geometries each keep their own im2col slot (no
    /// reallocation thrash), and the slot count is bounded by the LRU cap.
    #[test]
    fn conv_scratch_caches_per_shape_and_evicts_lru() {
        let weight = Tensor::random_uniform(vec![2, 3, 3, 3], -0.5, 0.5, 60);
        let mode = FmaMode::Fp16;
        let mut scratch = ConvScratch::default();
        let big = Tensor::random_uniform(vec![1, 3, 8, 8], -1.0, 1.0, 61);
        let small = Tensor::random_uniform(vec![1, 3, 5, 5], -1.0, 1.0, 62);
        for _ in 0..3 {
            let _ = conv2d_emulated_with_scratch(&big, &weight, ConvSpec::unit(), mode, 64, &mut scratch);
            let _ =
                conv2d_emulated_with_scratch(&small, &weight, ConvSpec::unit(), mode, 64, &mut scratch);
        }
        // Two geometries, two slots — revisits hit their cached buffers.
        assert_eq!(scratch.cached_shapes(), 2);
        // A distinct pad makes a distinct key even at the same input shape.
        let _ = conv2d_emulated_with_scratch(
            &small,
            &weight,
            ConvSpec { stride: 1, pad: 1 },
            mode,
            64,
            &mut scratch,
        );
        assert_eq!(scratch.cached_shapes(), 3);
        // Flooding with fresh geometries caps the cache at the LRU bound.
        for h in 0..24 {
            let input = Tensor::random_uniform(vec![1, 3, 9 + h, 9], -1.0, 1.0, 63);
            let _ =
                conv2d_emulated_with_scratch(&input, &weight, ConvSpec::unit(), mode, 64, &mut scratch);
        }
        assert_eq!(scratch.cached_shapes(), ConvScratch::MAX_SLOTS);
    }

    #[test]
    fn fast_conv_matches_scalar_conv() {
        let input = Tensor::random_uniform(vec![1, 3, 6, 6], -1.0, 1.0, 50);
        let weight = Tensor::random_uniform(vec![4, 3, 3, 3], -0.5, 0.5, 51);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let mode = FmaMode::hfp8_bwd_default();
        let (fast, fs) = conv2d_emulated(&input, &weight, spec, mode, 16);
        let (scalar, ss) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fs, ss);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (ifast, ifs) = conv2d_int(&input, &weight, spec, qa, qa, 16);
        let (iscalar, iss) = conv2d_int_scalar(&input, &weight, spec, qa, qa, 16);
        assert_bits_eq(&ifast, &iscalar);
        assert_eq!(ifs, iss);
    }

    #[test]
    fn guarded_kernels_without_active_faults_are_bit_exact() {
        use rapid_fault::FaultPlan;
        let a = rand_mat(5, 33, 70);
        let b = rand_mat(33, 6, 71);
        let mode = FmaMode::hfp8_fwd_default();
        let (base, bs) = matmul_emulated(mode, &a, &b, 64);
        for faults in [None, Some(&mut FaultPlan::disabled())] {
            let (got, gs) =
                matmul_emulated_guarded(mode, &a, &b, 64, GuardPolicy::Error, faults).unwrap();
            assert_bits_eq(&base, &got);
            assert_eq!(bs, gs);
        }
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (bi, bis) = matmul_int(&a, &b, q, q, 64);
        let (gi, gis) =
            matmul_int_guarded(&a, &b, q, q, 64, GuardPolicy::Error, Some(&mut FaultPlan::disabled()))
                .unwrap();
        assert_bits_eq(&bi, &gi);
        assert_eq!(bis, gis);
    }

    #[test]
    fn error_policy_catches_injected_exponent_upsets() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 72);
        let b = rand_mat(256, 4, 73);
        let mut caught = 0;
        for seed in 0..8 {
            let cfg = FaultConfig {
                seed,
                mac_acc_rate: 0.02,
                exponent_share: 1.0,
                ..FaultConfig::default()
            };
            let mut plan = FaultPlan::new(cfg);
            let r = matmul_emulated_guarded(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                GuardPolicy::Error,
                Some(&mut plan),
            );
            if let Err(e) = r {
                assert!(matches!(e, NumericsError::NonFinite { .. }), "unexpected {e:?}");
                caught += 1;
            }
        }
        assert!(caught > 0, "no seed out of 8 produced a non-finite accumulator");
    }

    #[test]
    fn saturate_policy_keeps_faulty_output_finite() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 74);
        let b = rand_mat(256, 4, 75);
        let cfg = FaultConfig {
            seed: 5,
            mac_operand_rate: 0.01,
            mac_acc_rate: 0.01,
            exponent_share: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let (out, _) = matmul_emulated_guarded(
            FmaMode::Fp16,
            &a,
            &b,
            64,
            GuardPolicy::Saturate,
            Some(&mut plan),
        )
        .unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert!(plan.counts().mac_operand_flips + plan.counts().mac_acc_flips > 0);
    }

    #[test]
    fn saturate_policy_counts_every_clamp() {
        // Whatever the Error policy would abort on, Saturate must clamp —
        // and report. Replay the same fault stream under both policies.
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 72);
        let b = rand_mat(256, 4, 73);
        let mut total_clamps = 0u64;
        for seed in 0..8 {
            let cfg = FaultConfig {
                seed,
                mac_acc_rate: 0.02,
                exponent_share: 1.0,
                ..FaultConfig::default()
            };
            let errored = matmul_emulated_guarded(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                GuardPolicy::Error,
                Some(&mut FaultPlan::new(cfg)),
            )
            .is_err();
            let (out, stats) = matmul_emulated_guarded(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                GuardPolicy::Saturate,
                Some(&mut FaultPlan::new(cfg)),
            )
            .unwrap();
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
            if errored {
                assert!(stats.guard_clamps > 0, "seed {seed}: abort implies a clamp");
            }
            total_clamps += stats.guard_clamps;
        }
        assert!(total_clamps > 0, "no seed out of 8 needed a clamp");
    }

    #[test]
    fn int_guard_locates_chunk_overflow() {
        // chunk_len 1024 × worst product 49 exceeds i16::MAX: saturation
        // occurs, and the Error policy pinpoints the first overflow.
        let a = Tensor::from_fn(vec![2, 2048], |_| 1.0);
        let b = Tensor::from_fn(vec![2048, 2], |_| 1.0);
        let qa = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 1.0 / 7.0).unwrap();
        let err = matmul_int_guarded(&a, &b, qa, qa, 1024, GuardPolicy::Error, None).unwrap_err();
        assert!(
            matches!(err, NumericsError::Overflow { row: 0, col: 0, .. }),
            "unexpected {err:?}"
        );
        // Saturate matches the hardware register's native behavior.
        let (sat, stats) =
            matmul_int_guarded(&a, &b, qa, qa, 1024, GuardPolicy::Saturate, None).unwrap();
        let (scalar, _) = matmul_int_scalar(&a, &b, qa, qa, 1024);
        assert!(stats.saturations > 0);
        assert_bits_eq(&sat, &scalar);
    }

    #[test]
    fn same_seed_reproduces_identical_faulty_output() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 64, 76);
        let b = rand_mat(64, 4, 77);
        let cfg = FaultConfig { seed: 9, mac_operand_rate: 0.05, ..FaultConfig::default() };
        let run = || {
            let mut plan = FaultPlan::new(cfg);
            let (out, _) = matmul_emulated_guarded(
                FmaMode::hfp8_fwd_default(),
                &a,
                &b,
                64,
                GuardPolicy::Propagate,
                Some(&mut plan),
            )
            .unwrap();
            (out, plan.trace().to_vec(), plan.counts())
        };
        let (o1, t1, c1) = run();
        let (o2, t2, c2) = run();
        assert_bits_eq(&o1, &o2);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn im2col_into_reuses_allocation() {
        let input = Tensor::random_uniform(vec![1, 2, 5, 5], -1.0, 1.0, 60);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let fresh = im2col(&input, 3, 3, spec);
        let mut scratch = Tensor::zeros(vec![7, 7]); // wrong shape, dirty data
        scratch.map_inplace(|_| 9.0);
        im2col_into(&input, 3, 3, spec, &mut scratch);
        assert_eq!(fresh, scratch);
    }
}
