//! Kernel-backend speed benchmark: times the scalar reference kernels
//! against the portable tiled fast paths (`RAPID_SIMD=off`) and the
//! vector / bit-sliced backends (`RAPID_SIMD=force`) on the canonical
//! 128³ GEMM shape (chunk 64), a representative convolution, a ResNet
//! bottleneck's 1×1 INT4 convolution on post-ReLU activations, and the two
//! paper GEMVs (an LSTM-step INT4 projection and ResNet-50's FP16 FC,
//! which take the row-streaming path with its portable and AVX2 inner
//! loops), checks every fast output bit-for-bit against its scalar
//! reference, and records `<group>.speedup_vs_scalar` — the ratios
//! `repro_all` gates against regressions between runs.
//!
//! Runs single-threaded by default (set `RAPID_THREADS` to override):
//! the metric is per-kernel speedup, not machine throughput, and thread
//! fan-out would only add variance to the ratio.
//!
//! Usage: `kernel_speed [--smoke] [--json PATH]`

use rapid_bench::{compare, section, BenchRecord};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{
    conv2d_emulated_scalar, conv2d_emulated_with_simd, conv2d_int_scalar, conv2d_int_with_simd,
    matmul_emulated_scalar, matmul_emulated_with_simd, matmul_int_scalar, matmul_int_with_simd,
    ConvScratch, ConvSpec, GemmStats,
};
use rapid_numerics::int::Signedness;
use rapid_numerics::{kernel_matrix_at, IntFormat, NumericsError, QuantParams, SimdMode, Tensor};
use std::time::Instant;

const CHUNK: usize = 64;

/// Deterministic pseudo-random tensor in [-1, 1] with ~20% exact zeros so
/// the zero-gating stats paths are exercised by the bit-exact checks.
fn filled(shape: Vec<usize>, seed: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let mut s = seed | 1;
    let data = (0..len)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 5 == 0 {
                0.0
            } else {
                ((s >> 16) & 0xFFFF) as f32 / 32768.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Wall time of one call in milliseconds, with its output.
fn timed<T>(f: &mut impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

type KernelOut = (Tensor, GemmStats);
type FastOut = Result<KernelOut, NumericsError>;

/// Times one group: best-of-`reps` wall time of the scalar reference, the
/// tiled path (`off`) and the vector path (`force`), after one untimed
/// warmup call each. The reps are interleaved — scalar, tiled, simd in
/// every round — so a slow stretch of the host stretches all three
/// alike instead of one ratio's numerator or denominator. Both fast
/// results must match the reference bit-for-bit.
fn time_group(
    name: &'static str,
    reps: usize,
    mut scalar: impl FnMut() -> KernelOut,
    mut tiled: impl FnMut() -> FastOut,
    mut simd: impl FnMut() -> FastOut,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    let (mut reference, mut tiled_out, mut simd_out) = (scalar(), tiled(), simd());
    let (mut scalar_ms, mut tiled_ms, mut simd_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (out, ms) = timed(&mut scalar);
        (reference, scalar_ms) = (out, scalar_ms.min(ms));
        let (out, ms) = timed(&mut tiled);
        (tiled_out, tiled_ms) = (out, tiled_ms.min(ms));
        let (out, ms) = timed(&mut simd);
        (simd_out, simd_ms) = (out, simd_ms.min(ms));
    }
    assert_bitexact(name, "tiled", &tiled_out?, &reference);
    assert_bitexact(name, "simd", &simd_out?, &reference);
    Ok(GroupResult { name, scalar_ms, tiled_ms, simd_ms })
}

/// Asserts two kernel results agree bit-for-bit (values and stats).
fn assert_bitexact(group: &str, backend: &str, r: &(Tensor, GemmStats), s: &(Tensor, GemmStats)) {
    assert_eq!(r.0.shape(), s.0.shape(), "{group}/{backend}: shape mismatch");
    for (i, (a, b)) in r.0.as_slice().iter().zip(s.0.as_slice()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{group}/{backend}: element {i} differs ({a} vs {b})"
        );
    }
    assert_eq!(r.1, s.1, "{group}/{backend}: stats mismatch");
}

struct GroupResult {
    name: &'static str,
    scalar_ms: f64,
    tiled_ms: f64,
    simd_ms: f64,
}

impl GroupResult {
    fn speedup_vs_scalar(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }

    fn report(&self, rec: &mut BenchRecord) {
        compare(
            &format!("{} scalar / tiled / simd", self.name),
            format!(
                "{:.2} / {:.2} / {:.3} ms → {:.1}× vs scalar, {:.1}× vs tiled",
                self.scalar_ms,
                self.tiled_ms,
                self.simd_ms,
                self.speedup_vs_scalar(),
                self.tiled_ms / self.simd_ms
            ),
            "bit-exact across all three",
        );
        rec.metric(&format!("{}.scalar_ms", self.name), self.scalar_ms);
        rec.metric(&format!("{}.tiled_ms", self.name), self.tiled_ms);
        rec.metric(&format!("{}.simd_ms", self.name), self.simd_ms);
        rec.metric(&format!("{}.speedup_vs_scalar", self.name), self.speedup_vs_scalar());
        rec.metric(&format!("{}.speedup_vs_tiled", self.name), self.tiled_ms / self.simd_ms);
    }
}

/// Times one float GEMM group: scalar reference, tiled (`off`), vector
/// (`force`); the fast results must match the reference bit-for-bit.
fn float_group(
    name: &'static str,
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    reps: usize,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    time_group(
        name,
        reps,
        || matmul_emulated_scalar(mode, a, b, CHUNK),
        || matmul_emulated_with_simd(mode, a, b, CHUNK, SimdMode::Off),
        || matmul_emulated_with_simd(mode, a, b, CHUNK, SimdMode::Force),
    )
}

/// Times one integer GEMM group (madd or bit-sliced under `force`).
fn int_group(
    name: &'static str,
    fmt: IntFormat,
    a: &Tensor,
    b: &Tensor,
    reps: usize,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    let q = QuantParams::from_abs_max(fmt, Signedness::Signed, 1.0);
    time_group(
        name,
        reps,
        || matmul_int_scalar(a, b, q, q, CHUNK),
        || matmul_int_with_simd(a, b, q, q, CHUNK, SimdMode::Off),
        || matmul_int_with_simd(a, b, q, q, CHUNK, SimdMode::Force),
    )
}

/// Times one integer convolution group with fresh scratch per call, so
/// every call pays its own buffer set-up.
fn int_conv_group(
    name: &'static str,
    (input, weight, spec): (&Tensor, &Tensor, ConvSpec),
    (qa, qw): (QuantParams, QuantParams),
    reps: usize,
) -> Result<GroupResult, Box<dyn std::error::Error>> {
    let fast = |simd| {
        conv2d_int_with_simd(input, weight, spec, qa, qw, CHUNK, &mut ConvScratch::default(), simd)
    };
    time_group(
        name,
        reps,
        || conv2d_int_scalar(input, weight, spec, qa, qw, CHUNK),
        || fast(SimdMode::Off),
        || fast(SimdMode::Force),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-kernel ratios, not machine throughput: default to one thread so
    // the gated speedup metric is stable across host core counts.
    if std::env::var_os("RAPID_THREADS").is_none() {
        std::env::set_var("RAPID_THREADS", "1");
    }
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => drop(args.next()), // path consumed by BenchRecord::finish
            a if a.starts_with("--json=") => {}
            other => {
                return Err(format!(
                    "unknown argument '{other}' (usage: kernel_speed [--smoke] [--json PATH])"
                )
                .into())
            }
        }
    }
    let mut rec = BenchRecord::new("kernel_speed");
    let (dim, reps) = if smoke { (64, 2) } else { (128, 5) };
    rec.config_str("mode", if smoke { "smoke" } else { "full" });
    rec.config_num("dim", dim as f64);
    rec.config_num("chunk_len", CHUNK as f64);
    rec.config_str("simd", SimdMode::from_env().as_str());

    section(&format!("kernel selection matrix ({dim}³, chunk {CHUNK}, RAPID_SIMD=force)"));
    for c in kernel_matrix_at(SimdMode::Force, dim, CHUNK) {
        compare(&format!("  {}", c.format), format!("{}", c.backend), c.reason.as_str());
        rec.config_str(&format!("kernel.{}", c.format), &format!("{} — {}", c.backend, c.reason));
    }

    section(&format!("GEMM {dim}×{dim}×{dim}, chunk {CHUNK} (best of {reps})"));
    let a = filled(vec![dim, dim], 0x9E37_79B9);
    let b = filled(vec![dim, dim], 0xC2B2_AE35);
    let groups = [
        float_group("gemm_fp16", FmaMode::Fp16, &a, &b, reps)?,
        float_group("gemm_hfp8_fwd", FmaMode::hfp8_fwd_default(), &a, &b, reps)?,
        float_group("gemm_hfp8_bwd", FmaMode::hfp8_bwd_default(), &a, &b, reps)?,
        int_group("gemm_int4", IntFormat::Int4, &a, &b, reps)?,
        int_group("gemm_int2", IntFormat::Int2, &a, &b, reps)?,
    ];
    for g in &groups {
        g.report(&mut rec);
    }

    // A convolution exercises the panel-packed path (im2col rows consumed
    // in place, output written straight into [n, co, ho, wo]).
    let (n, ci, hw_in, co) = if smoke { (2, 4, 14, 8) } else { (4, 8, 28, 16) };
    let spec = ConvSpec { stride: 1, pad: 1 };
    section(&format!(
        "conv {n}×{ci}×{hw_in}×{hw_in} · {co}×{ci}×3×3 stride 1 pad 1 (best of {reps})"
    ));
    let input = filled(vec![n, ci, hw_in, hw_in], 0x1234_5678);
    let weight = filled(vec![co, ci, 3, 3], 0x8765_4321);
    let m = FmaMode::hfp8_fwd_default();
    let float_conv = |simd| {
        let mut scratch = ConvScratch::default();
        conv2d_emulated_with_simd(&input, &weight, spec, m, CHUNK, &mut scratch, simd)
    };
    let signed = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
    let conv_groups = [
        time_group(
            "conv_hfp8",
            reps,
            || conv2d_emulated_scalar(&input, &weight, spec, m, CHUNK),
            || float_conv(SimdMode::Off),
            || float_conv(SimdMode::Force),
        )?,
        // Signed × signed: the code-domain lowering with per-tap rows and
        // the kernel's sign trick.
        int_conv_group("conv_int4", (&input, &weight, spec), (signed, signed), reps)?,
    ];
    for g in &conv_groups {
        g.report(&mut rec);
    }

    // A ResNet bottleneck's 1×1 stride-1 conv on post-ReLU activations:
    // the code-domain lowering without im2col, unsigned activation codes
    // on the kernel's u8 side.
    let (n, ci, hw_in, co) = if smoke { (1, 64, 7, 16) } else { (1, 256, 14, 64) };
    section(&format!(
        "conv {n}×{ci}×{hw_in}×{hw_in} (ReLU) · {co}×{ci}×1×1 stride 1 pad 0 \
         (best of {reps})"
    ));
    let relu = filled(vec![n, ci, hw_in, hw_in], 0x3C6E_F372).map(|x| x.max(0.0));
    let weight = filled(vec![co, ci, 1, 1], 0xA54F_F53A);
    let unsigned = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 1.0);
    int_conv_group("conv_int4_relu", (&relu, &weight, ConvSpec::unit()), (unsigned, signed), reps)?
        .report(&mut rec);

    // m = 1 GEMVs take the row-streaming path under every RAPID_SIMD
    // value; off/force pick its portable or AVX2 inner loop.
    let ((ik, in_), (fk, fn_)) =
        if smoke { ((300, 1200), (512, 250)) } else { ((1500, 6000), (2048, 1000)) };
    section(&format!(
        "GEMV 1×{ik}×{in_} INT4 and 1×{fk}×{fn_} FP16, chunk {CHUNK} (best of {reps})"
    ));
    let gemv_groups = [
        int_group(
            "gemv_int4",
            IntFormat::Int4,
            &filled(vec![1, ik], 0x5851_F42D),
            &filled(vec![ik, in_], 0x4C95_7F2D),
            reps,
        )?,
        float_group(
            "gemv_fp16",
            FmaMode::Fp16,
            &filled(vec![1, fk], 0x2545_F491),
            &filled(vec![fk, fn_], 0x9E6C_63D0),
            reps,
        )?,
    ];
    for g in &gemv_groups {
        g.report(&mut rec);
    }

    section("bit-exactness");
    compare(
        "all fast backends vs scalar references",
        "identical output bits and datapath stats",
        "required (asserted above)",
    );
    rec.finish();
    Ok(())
}
