//! Runtime kernel-backend selection for the emulated GEMM/conv fast paths.
//!
//! PR 1's tiled fast paths are portable scalar Rust; this module decides,
//! per call and per format, whether the explicitly vectorized backends
//! ([`crate::simd`], [`crate::bitslice`]) run instead:
//!
//! * the `RAPID_SIMD` environment knob (`auto` | `force` | `off`) — `auto`
//!   (the default) uses vector kernels only when the CPU supports them and
//!   the problem is large enough to amortize setup; `force` uses them
//!   whenever the CPU supports them; `off` pins the portable tiled paths;
//! * capability detection — the float and INT4 vector kernels need AVX2
//!   (`x86_64` only, checked at runtime); the bit-sliced INT2 kernel is
//!   portable `u64` popcount code and only obeys the knob and size gate;
//! * shape first: a matmul with at most [`GEMV_MAX_M`] rows of A takes
//!   the row-streaming GEMV path (`numerics::gemv`) whatever the knob says
//!   (only an INT matmul whose chunk length makes INT16 saturation
//!   possible keeps the saturating scalar accumulator). There
//!   `RAPID_SIMD` picks the inner loop, not the layout:
//!   `auto` and `force` run the AVX2 clone of the row kernel when the CPU
//!   has AVX2, `off` the portable one. The INT quantizer follows the same
//!   rule (`simd_inner`). That path keeps no zero masks: row `i` gates
//!   `n · zeros(a_i) + Σ_{p : a[i,p] ≠ 0} zeros(B_p)` MACs, the popcount
//!   of the unioned masks, so `GemmStats` are unchanged;
//! * bit-exactness is *not* a selection concern: every backend reproduces
//!   the scalar references bit-for-bit (`tests/fastpath_bitexact.rs` runs
//!   the whole suite under `force` and `off`), so selection is purely a
//!   performance decision.
//!
//! [`kernel_matrix`] reports the decision per RaPiD format, with the
//! reason, for telemetry (`numerics_validation` prints it and stamps it
//! into `rapid-bench-v1` records).

use crate::int::{IntFormat, QuantParams, Signedness};

/// Vectorization policy, normally read from `RAPID_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Vector kernels when supported and the problem is large enough.
    #[default]
    Auto,
    /// Vector kernels whenever the CPU supports them, regardless of size.
    Force,
    /// Portable tiled fast paths only.
    Off,
}

impl SimdMode {
    /// Parses `RAPID_SIMD` (`auto` | `force` | `off`, case-insensitive;
    /// unset or unrecognized values mean `auto`).
    pub fn from_env() -> Self {
        match std::env::var("RAPID_SIMD").ok().as_deref().map(str::trim) {
            Some(s) if s.eq_ignore_ascii_case("force") => SimdMode::Force,
            Some(s) if s.eq_ignore_ascii_case("off") || s == "0" => SimdMode::Off,
            _ => SimdMode::Auto,
        }
    }

    /// The knob value as it would be spelled in the environment.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Force => "force",
            SimdMode::Off => "off",
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the AVX2 vector kernels can run on this machine.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the bit-sliced kernel can use the hardware popcount
/// instruction (it falls back to the portable `count_ones` otherwise).
pub fn popcnt_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Below this many MACs, `auto` keeps the tiled paths: the vector kernels
/// pay for operand interleaving / plane packing, which only amortizes on
/// reasonably sized problems.
pub(crate) const AUTO_MIN_MACS: u64 = 4096;

/// Beyond this reduction depth the integer kernel's i32 sums could
/// overflow, so `auto` and `force` both fall back to the tiled path. A dot
/// product of INT4/INT2 codes is at most `225 · k` in magnitude (|code| ≤
/// 15), and `225 · 2²³ < 2³¹`, so every wrapping i32 lane sum and the
/// reduction tree end exact (`simd::int_dot_tile`). Far beyond any model
/// layer.
pub(crate) const MADD_MAX_K: usize = 1 << 23;

/// Largest row count of A for which a matmul takes the row-streaming GEMV
/// path (`numerics::gemv`), at every precision and under every `RAPID_SIMD`
/// value. Chosen from measurement: whole `matmul_*_with_simd` calls,
/// best of 5, one thread, AVX2 Xeon, m ∈ {1, 8, 16, 32} with each path
/// forced. Row-streaming won every shape up to m = 8 (m = 8: INT4
/// 1500×6000 22 vs 56 ms, FP16 2048×1000 18 vs 43 ms, HFP8 784×512 6.3
/// vs 6.7 ms, INT2 512×512 0.40 vs 1.7 ms). At m = 16 HFP8 784×512 was
/// within run-to-run noise (8.5 vs 8.9 ms in one run, 10.2 vs 9.3 in
/// another), and at m = 32 the blocked path won it, its register blocking
/// starting to pay. Batched training (m ≥ 64) never reaches this path.
pub const GEMV_MAX_M: usize = 8;

/// Whether an `m`-row matmul takes the row-streaming path.
pub(crate) fn row_stream(m: usize) -> bool {
    m <= GEMV_MAX_M
}

/// Whether the layout-free kernels — the row-streaming GEMV bodies, the
/// INT quantizer and the simulator's INT array loop — run their AVX2
/// clone: whenever the CPU has AVX2 and `RAPID_SIMD` is not `off`. There
/// is no size gate: those clones have no set-up cost to amortize.
pub fn simd_inner(mode: SimdMode) -> bool {
    mode != SimdMode::Off && simd_available()
}

/// Whether a float GEMM of `macs` total MACs should take the AVX2 kernels.
pub(crate) fn float_use_simd(mode: SimdMode, macs: u64) -> bool {
    match mode {
        SimdMode::Off => false,
        SimdMode::Force => simd_available(),
        SimdMode::Auto => simd_available() && macs >= AUTO_MIN_MACS,
    }
}

/// Integer kernel choice for a (non-saturating) quantized GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntKernel {
    /// Packed-panel tiled path (PR 1).
    Tiled,
    /// AVX2 register-blocked `maddubs` kernel over i8 codes.
    Madd,
    /// Popcount over packed bit-planes (both operands INT2; portable).
    BitSliced,
}

/// Selects the integer kernel: bit-sliced when both operands are INT2
/// (portable, no feature gate beyond the knob), the AVX2 `maddubs` kernel
/// for wider codes, tiled otherwise.
pub(crate) fn int_kernel(mode: SimdMode, macs: u64, k: usize, both_int2: bool) -> IntKernel {
    let want = match mode {
        SimdMode::Off => false,
        SimdMode::Force => true,
        SimdMode::Auto => macs >= AUTO_MIN_MACS,
    };
    if !want {
        IntKernel::Tiled
    } else if both_int2 {
        IntKernel::BitSliced
    } else if simd_available() && k <= MADD_MAX_K {
        IntKernel::Madd
    } else {
        IntKernel::Tiled
    }
}

/// Which implementation family actually computes a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Accumulator-driven reference loop (selected only when the INT16
    /// chunk guard makes saturation possible, so it must be modeled).
    Scalar,
    /// Portable tiled + register-blocked fast path (PR 1).
    Tiled,
    /// AVX2 vector kernel (16-lane float MAC / blocked `maddubs`).
    Simd,
    /// Popcount over packed INT2 bit-planes.
    BitSliced,
    /// Row-streaming GEMV over row-major B (at most `GEMV_MAX_M` rows of A).
    RowStream,
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Tiled => "tiled",
            KernelBackend::Simd => "simd",
            KernelBackend::BitSliced => "bit-sliced",
            KernelBackend::RowStream => "row-stream",
        })
    }
}

/// One row of the kernel-selection matrix: which backend a format's GEMM
/// takes at a given shape, and why.
#[derive(Debug, Clone)]
pub struct KernelChoice {
    /// Format label (`fp16`, `hfp8_fwd`, `hfp8_bwd`, `int4`, `int2`).
    pub format: &'static str,
    /// Selected backend.
    pub backend: KernelBackend,
    /// Human-readable selection rationale.
    pub reason: String,
}

fn float_choice(format: &'static str, mode: SimdMode, macs: u64) -> KernelChoice {
    let (backend, reason) = if float_use_simd(mode, macs) {
        let how = if format == "fp16" {
            "avx2 16-lane FP16 MAC with vectorized DLFloat rounding"
        } else {
            "avx2 16-lane MAC on LUT-factored FP9 operands, vectorized DLFloat rounding"
        };
        (KernelBackend::Simd, format!("{how} (RAPID_SIMD={mode})"))
    } else {
        (KernelBackend::Tiled, float_fallback_reason(mode))
    };
    KernelChoice { format, backend, reason }
}

fn float_fallback_reason(mode: SimdMode) -> String {
    match mode {
        SimdMode::Off => "RAPID_SIMD=off pins the portable tiled path".to_string(),
        _ if !simd_available() => format!("AVX2 unavailable on this CPU (RAPID_SIMD={mode})"),
        _ => format!("below the {AUTO_MIN_MACS}-MAC auto threshold (RAPID_SIMD={mode})"),
    }
}

fn int_choice(
    format: &'static str,
    fmt: IntFormat,
    mode: SimdMode,
    k: usize,
    chunk_len: usize,
    macs: u64,
) -> KernelChoice {
    let q = QuantParams::from_abs_max(fmt, Signedness::Signed, 1.0);
    if crate::gemm::int_saturation_possible(q, q, k, chunk_len) {
        return KernelChoice {
            format,
            backend: KernelBackend::Scalar,
            reason: format!(
                "chunk_len={chunk_len} makes INT16 saturation possible: saturating scalar accumulator"
            ),
        };
    }
    let (backend, reason) = match int_kernel(mode, macs, k, fmt == IntFormat::Int2) {
        IntKernel::BitSliced => {
            let pop = if popcnt_available() { "hardware popcount" } else { "portable popcount" };
            (
                KernelBackend::BitSliced,
                format!(
                    "bit-sliced planes, {pop}; conv runs on NHWC codes, quantized once \
                     (RAPID_SIMD={mode})"
                ),
            )
        }
        IntKernel::Madd => (
            KernelBackend::Simd,
            format!(
                "avx2 4×2-blocked maddubs u8×i8→i16, madd→i32, one hadd tree per block; \
                 conv runs on NHWC codes, quantized once (RAPID_SIMD={mode})"
            ),
        ),
        IntKernel::Tiled => (KernelBackend::Tiled, float_fallback_reason(mode)),
    };
    KernelChoice { format, backend, reason }
}

/// Kernel-selection matrix at the canonical 128³ / chunk-64 benchmark
/// shape, honoring the current `RAPID_SIMD` environment.
pub fn kernel_matrix() -> Vec<KernelChoice> {
    kernel_matrix_at(SimdMode::from_env(), 128, 64)
}

/// Kernel-selection matrix for a cube GEMM of side `dim` with the given
/// accumulation chunk, under an explicit mode.
pub fn kernel_matrix_at(mode: SimdMode, dim: usize, chunk_len: usize) -> Vec<KernelChoice> {
    let macs = (dim * dim * dim) as u64;
    let mut choices = vec![
        float_choice("fp16", mode, macs),
        float_choice("hfp8_fwd", mode, macs),
        float_choice("hfp8_bwd", mode, macs),
        int_choice("int4", IntFormat::Int4, mode, dim, chunk_len, macs),
        int_choice("int2", IntFormat::Int2, mode, dim, chunk_len, macs),
    ];
    if row_stream(dim) {
        let inner = if simd_inner(mode) { "avx2" } else { "portable" };
        for c in choices.iter_mut().filter(|c| c.backend != KernelBackend::Scalar) {
            c.backend = KernelBackend::RowStream;
            c.reason = format!(
                "m ≤ {GEMV_MAX_M}: row-streaming GEMV over row-major B, {inner} inner loop \
                 (RAPID_SIMD={mode})"
            );
        }
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_pins_tiled() {
        for c in kernel_matrix_at(SimdMode::Off, 128, 64) {
            assert_eq!(c.backend, KernelBackend::Tiled, "{}: {}", c.format, c.reason);
        }
    }

    #[test]
    fn int2_bitsliced_under_force() {
        let m = kernel_matrix_at(SimdMode::Force, 128, 64);
        let int2 = m.iter().find(|c| c.format == "int2");
        assert_eq!(int2.map(|c| c.backend), Some(KernelBackend::BitSliced));
    }

    #[test]
    fn saturating_chunk_reports_scalar() {
        // INT4 signed worst product 49; window 1024 → 50_176 > i16::MAX.
        let m = kernel_matrix_at(SimdMode::Force, 1024, 1024);
        let int4 = m.iter().find(|c| c.format == "int4");
        assert_eq!(int4.map(|c| c.backend), Some(KernelBackend::Scalar));
    }

    #[test]
    fn auto_respects_size_threshold() {
        let m = kernel_matrix_at(SimdMode::Auto, 4, 64);
        for c in m {
            assert_ne!(c.backend, KernelBackend::Simd, "{}: {}", c.format, c.reason);
            assert_ne!(c.backend, KernelBackend::BitSliced, "{}: {}", c.format, c.reason);
        }
    }

    #[test]
    fn small_m_reports_row_stream_under_every_mode() {
        for mode in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
            for c in kernel_matrix_at(mode, GEMV_MAX_M, 64) {
                assert_eq!(c.backend, KernelBackend::RowStream, "{}: {}", c.format, c.reason);
            }
            for c in kernel_matrix_at(mode, GEMV_MAX_M + 1, 64) {
                assert_ne!(c.backend, KernelBackend::RowStream, "{}: {}", c.format, c.reason);
            }
        }
        // Just past the bound, `auto` still keeps tiny GEMMs off the vector
        // kernels (`auto_respects_size_threshold` now sits under the bound).
        assert!((GEMV_MAX_M + 1).pow(3) < AUTO_MIN_MACS as usize);
        for c in kernel_matrix_at(SimdMode::Auto, GEMV_MAX_M + 1, 64) {
            assert_eq!(c.backend, KernelBackend::Tiled, "{}: {}", c.format, c.reason);
        }
    }

    #[test]
    fn mode_parses_roundtrip() {
        assert_eq!(SimdMode::default(), SimdMode::Auto);
        assert_eq!(SimdMode::Force.as_str(), "force");
        assert_eq!(format!("{}", SimdMode::Off), "off");
    }
}
