//! Golden pins for the cycle simulator: for a fixed set of seeded jobs,
//! the output bits (as a hash), every `CoreletReport` field, the fault
//! plan's draw counts and every `sim.*` registry counter are pinned as
//! constants. Any change to what the simulator computes or counts — a
//! cycle, a stall, a moved element, a gated MAC, a corrected or escalated
//! upset — fails here, so host-speed rewrites of the simulator must leave
//! all of them bit-identical.
//!
//! On a mismatch the assertion prints the actual digest in the same text
//! form as the constants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rapid_arch::precision::Precision;
use rapid_fault::{FaultConfig, FaultPlan};
use rapid_numerics::gemm::{im2col, ConvSpec};
use rapid_numerics::Tensor;
use rapid_sim::{try_run_conv, ConvJob, CoreSim, CoreletReport, GemmJob, SimError};
use rapid_telemetry::{Metric, Telemetry};
use std::fmt::Write;

/// FNV-1a over the f32 bit patterns.
fn bits_hash(xs: &[f32]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn gemm_job(m: usize, k: usize, n: usize, p: Precision, seed: u64) -> GemmJob {
    GemmJob {
        a: Tensor::random_uniform(vec![m, k], -1.0, 1.0, seed),
        b: Tensor::random_uniform(vec![k, n], -1.0, 1.0, seed + 1),
        precision: p,
    }
}

fn render_reports(out: &mut String, reports: &[CoreletReport]) {
    for (i, r) in reports.iter().enumerate() {
        writeln!(
            out,
            "c{i} cycles={} phases={:?} macs={} gated={} wstalls={}",
            r.cycles, r.phase_cycles, r.macs, r.zero_gated, r.weight_stalls
        )
        .unwrap();
    }
}

fn render_registry(out: &mut String, tele: &Telemetry) {
    for (name, metric) in tele.registry.iter() {
        if let (true, Metric::Counter(v)) = (name.starts_with("sim."), metric) {
            writeln!(out, "{name}={v}").unwrap();
        }
    }
}

/// Runs `job` instrumented under `plan` and renders everything the run
/// produced or counted.
fn digest(core: &CoreSim, job: &GemmJob, plan: Option<FaultConfig>) -> String {
    let mut plan = plan.map(FaultPlan::new);
    let mut tele = Telemetry::new();
    let r = core.try_run_gemm_instrumented(job, plan.as_mut(), Some(&mut tele));
    let mut out = String::new();
    match r {
        Ok(r) => {
            writeln!(out, "out={:#018x} cycles={}", bits_hash(r.c.as_slice()), r.cycles).unwrap();
            render_reports(&mut out, &r.corelets);
        }
        Err(SimError::EccUncorrectable { cycle, addr }) => {
            writeln!(out, "ecc_uncorrectable cycle={cycle} addr={addr}").unwrap();
        }
        Err(e) => panic!("unexpected simulator error: {e}"),
    }
    if let Some(p) = &plan {
        let c = p.counts();
        writeln!(out, "plan seq_stalls={} spad_flips={}", c.seq_stalls, c.spad_flips).unwrap();
    }
    render_registry(&mut out, &tele);
    out
}

fn check(name: &str, actual: &str, pinned: &str) {
    assert_eq!(actual.trim(), pinned.trim(), "{name}: golden digest changed; actual:\n{actual}");
}

#[test]
fn int4_stride2_padded_conv() {
    let core = CoreSim::rapid();
    let job = ConvJob {
        input: Tensor::random_uniform(vec![1, 64, 7, 7], -1.0, 1.0, 11),
        weight: Tensor::random_uniform(vec![96, 64, 3, 3], -1.0, 1.0, 12),
        spec: ConvSpec { stride: 2, pad: 1 },
        precision: Precision::Int4,
        sfu: None,
    };
    let r = try_run_conv(&core, &job).unwrap();
    let mut actual = String::new();
    writeln!(
        actual,
        "conv out={:#018x} cycles={}",
        bits_hash(r.output.as_slice()),
        r.total_cycles()
    )
    .unwrap();
    render_reports(&mut actual, &r.gemm.corelets);
    // The lowered GEMM, instrumented, for the registry counters.
    let cols = im2col(&job.input, 3, 3, job.spec);
    let wmat = job.weight.clone().reshape(vec![96, 64 * 9]).unwrap().transposed();
    let lowered = GemmJob { a: cols, b: wmat, precision: Precision::Int4 };
    actual.push_str(&digest(&core, &lowered, None));
    check("int4 conv", &actual, INT4_CONV);
}

#[test]
fn int2_gemm() {
    let core = CoreSim::rapid();
    let actual = digest(&core, &gemm_job(12, 1100, 80, Precision::Int2, 21), None);
    check("int2 gemm", &actual, INT2_GEMM);
}

#[test]
fn fp16_gemm_deeper_than_the_lrf() {
    let core = CoreSim::rapid();
    let actual = digest(&core, &gemm_job(6, 300, 140, Precision::Fp16, 31), None);
    check("fp16 gemm", &actual, FP16_GEMM);
}

#[test]
fn hfp8_gemm() {
    let core = CoreSim::rapid();
    let actual = digest(&core, &gemm_job(5, 290, 70, Precision::Hfp8, 41), None);
    check("hfp8 gemm", &actual, HFP8_GEMM);
}

#[test]
fn seq_stall_plan() {
    let core = CoreSim::rapid();
    let cfg = FaultConfig {
        seq_stall_rate: 0.02,
        seq_stall_cycles: 12,
        seed: 5,
        ..FaultConfig::default()
    };
    let actual = digest(&core, &gemm_job(8, 600, 130, Precision::Int4, 51), Some(cfg));
    check("seq stalls", &actual, SEQ_STALL);
}

#[test]
fn spad_flips_with_ecc() {
    let core = CoreSim::rapid();
    let cfg = FaultConfig { spad_flip_rate: 0.05, seed: 3, ..FaultConfig::default() };
    let actual = digest(&core, &gemm_job(16, 200, 64, Precision::Fp16, 61), Some(cfg));
    check("spad flips, ecc on", &actual, SPAD_ECC_ON);
}

#[test]
fn spad_flips_without_ecc() {
    let core = CoreSim::rapid().with_spad_ecc(false);
    let cfg = FaultConfig {
        spad_flip_rate: 1.0,
        seq_stall_rate: 0.05,
        seq_stall_cycles: 16,
        seed: 4,
        ..FaultConfig::default()
    };
    let job = gemm_job(32, 96, 64, Precision::Int4, 62);
    let actual = digest(&core, &job, Some(cfg));
    let clean = format!("out={:#018x}", bits_hash(core.run_gemm(&job).c.as_slice()));
    assert!(!actual.contains(&clean), "the flips must reach the output");
    check("spad flips, ecc off", &actual, SPAD_ECC_OFF);
}

#[test]
fn double_flip_escalation() {
    let core = CoreSim::rapid();
    let cfg = FaultConfig { spad_flip_rate: 1.0, seed: 0, ..FaultConfig::default() };
    let actual = digest(&core, &gemm_job(8, 128, 512, Precision::Fp16, 73), Some(cfg));
    check("double flip", &actual, DOUBLE_FLIP);
    // INT4 streams fast enough that a tile finishes before the escalation,
    // so the partial zero-gated count is live.
    let cfg = FaultConfig { spad_flip_rate: 1.0, seed: 2, ..FaultConfig::default() };
    let actual = digest(&core, &gemm_job(256, 64, 256, Precision::Int4, 74), Some(cfg));
    check("double flip, int4", &actual, DOUBLE_FLIP_INT4);
}

const INT4_CONV: &str = "
conv out=0x9c25d9aba9a4ab6c cycles=320
c0 cycles=320 phases=[144, 32, 144, 0] macs=589824 gated=236685 wstalls=144
c1 cycles=248 phases=[72, 32, 144, 0] macs=294912 gated=119274 wstalls=144
out=0xcf6fff1b52e11310 cycles=320
c0 cycles=320 phases=[144, 32, 144, 0] macs=589824 gated=236685 wstalls=144
c1 cycles=248 phases=[72, 32, 144, 0] macs=294912 gated=119274 wstalls=144
sim.core0.c0.blockload_cycles=144
sim.core0.c0.cycles=320
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=9216
sim.core0.c0.iseq_stall_cycles=157
sim.core0.c0.macs=589824
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=144
sim.core0.c0.wseq_elems=36864
sim.core0.c0.wseq_stall_cycles=144
sim.core0.c0.zero_gated=236685
sim.core0.c1.blockload_cycles=72
sim.core0.c1.cycles=248
sim.core0.c1.fill_cycles=32
sim.core0.c1.iseq_elems=9216
sim.core0.c1.iseq_stall_cycles=85
sim.core0.c1.macs=294912
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=144
sim.core0.c1.wseq_elems=18432
sim.core0.c1.wseq_stall_cycles=144
sim.core0.c1.zero_gated=119274
sim.ecc.ded=0
sim.ecc.sec=0
sim.gemm.runs=1
sim.gemm.wall_cycles=320
sim.macs.int4=884736
sim.macs.zero_gated=355959
";
const INT2_GEMM: &str = "
out=0xa5836689b4996b67 cycles=278
c0 cycles=278 phases=[138, 32, 108, 0] macs=844800 gated=636262 wstalls=112
c1 cycles=175 phases=[35, 32, 108, 0] macs=211200 gated=159263 wstalls=112
sim.core0.c0.blockload_cycles=138
sim.core0.c0.cycles=278
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=13200
sim.core0.c0.iseq_stall_cycles=152
sim.core0.c0.macs=844800
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=108
sim.core0.c0.wseq_elems=70400
sim.core0.c0.wseq_stall_cycles=112
sim.core0.c0.zero_gated=636262
sim.core0.c1.blockload_cycles=35
sim.core0.c1.cycles=175
sim.core0.c1.fill_cycles=32
sim.core0.c1.iseq_elems=13200
sim.core0.c1.iseq_stall_cycles=49
sim.core0.c1.macs=211200
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=108
sim.core0.c1.wseq_elems=17600
sim.core0.c1.wseq_stall_cycles=112
sim.core0.c1.zero_gated=159263
sim.ecc.ded=0
sim.ecc.sec=0
sim.gemm.runs=1
sim.gemm.wall_cycles=278
sim.macs.int2=1056000
sim.macs.zero_gated=795525
";
const FP16_GEMM: &str = "
out=0x12d38564a2823eef cycles=909
c0 cycles=909 phases=[357, 96, 456, 0] macs=136800 gated=0 wstalls=500
c1 cycles=576 phases=[300, 48, 228, 0] macs=115200 gated=0 wstalls=224
sim.core0.c0.blockload_cycles=357
sim.core0.c0.cycles=909
sim.core0.c0.fill_cycles=96
sim.core0.c0.iseq_elems=3600
sim.core0.c0.iseq_stall_cycles=413
sim.core0.c0.macs=136800
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=456
sim.core0.c0.wseq_elems=22800
sim.core0.c0.wseq_stall_cycles=500
sim.core0.c0.zero_gated=0
sim.core0.c1.blockload_cycles=300
sim.core0.c1.cycles=576
sim.core0.c1.fill_cycles=48
sim.core0.c1.iseq_elems=1800
sim.core0.c1.iseq_stall_cycles=273
sim.core0.c1.macs=115200
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=228
sim.core0.c1.wseq_elems=19200
sim.core0.c1.wseq_stall_cycles=224
sim.core0.c1.zero_gated=0
sim.ecc.ded=0
sim.ecc.sec=0
sim.gemm.runs=1
sim.gemm.wall_cycles=909
sim.macs.fp16=252000
sim.macs.zero_gated=0
";
const HFP8_GEMM: &str = "
out=0x38cf7d63f77d58c1 cycles=272
c0 cycles=272 phases=[145, 32, 95, 0] macs=92800 gated=1575 wstalls=96
c1 cycles=141 phases=[14, 32, 95, 0] macs=8700 gated=151 wstalls=96
sim.core0.c0.blockload_cycles=145
sim.core0.c0.cycles=272
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=1450
sim.core0.c0.iseq_stall_cycles=137
sim.core0.c0.macs=92800
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=95
sim.core0.c0.wseq_elems=18560
sim.core0.c0.wseq_stall_cycles=96
sim.core0.c0.zero_gated=1575
sim.core0.c1.blockload_cycles=14
sim.core0.c1.cycles=141
sim.core0.c1.fill_cycles=32
sim.core0.c1.iseq_elems=1450
sim.core0.c1.iseq_stall_cycles=21
sim.core0.c1.macs=8700
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=95
sim.core0.c1.wseq_elems=1740
sim.core0.c1.wseq_stall_cycles=96
sim.core0.c1.zero_gated=151
sim.ecc.ded=0
sim.ecc.sec=0
sim.gemm.runs=1
sim.gemm.wall_cycles=272
sim.macs.hfp8=101500
sim.macs.zero_gated=1726
";
const SEQ_STALL: &str = "
out=0xaa1c7186f229cf56 cycles=415
c0 cycles=415 phases=[191, 64, 160, 0] macs=316800 gated=44486 wstalls=228
c1 cycles=346 phases=[234, 32, 80, 0] macs=307200 gated=42475 wstalls=164
plan seq_stalls=28 spad_flips=0
sim.core0.c0.blockload_cycles=191
sim.core0.c0.cycles=415
sim.core0.c0.fill_cycles=64
sim.core0.c0.iseq_elems=9600
sim.core0.c0.iseq_stall_cycles=279
sim.core0.c0.macs=316800
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=160
sim.core0.c0.wseq_elems=39600
sim.core0.c0.wseq_stall_cycles=228
sim.core0.c0.zero_gated=44486
sim.core0.c1.blockload_cycles=234
sim.core0.c1.cycles=346
sim.core0.c1.fill_cycles=32
sim.core0.c1.iseq_elems=4800
sim.core0.c1.iseq_stall_cycles=241
sim.core0.c1.macs=307200
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=80
sim.core0.c1.wseq_elems=38400
sim.core0.c1.wseq_stall_cycles=164
sim.core0.c1.zero_gated=42475
sim.ecc.ded=0
sim.ecc.sec=0
sim.gemm.runs=1
sim.gemm.wall_cycles=415
sim.macs.int4=624000
sim.macs.zero_gated=86961
";
const SPAD_ECC_ON: &str = "
out=0x9105945efc1a153b cycles=432
c0 cycles=432 phases=[200, 32, 200, 0] macs=102400 gated=0 wstalls=144
c1 cycles=432 phases=[200, 32, 200, 0] macs=102400 gated=0 wstalls=144
plan seq_stalls=0 spad_flips=45
sim.core0.c0.blockload_cycles=200
sim.core0.c0.cycles=432
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=1600
sim.core0.c0.iseq_stall_cycles=129
sim.core0.c0.macs=102400
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=200
sim.core0.c0.wseq_elems=12800
sim.core0.c0.wseq_stall_cycles=144
sim.core0.c0.zero_gated=0
sim.core0.c1.blockload_cycles=200
sim.core0.c1.cycles=432
sim.core0.c1.fill_cycles=32
sim.core0.c1.iseq_elems=1600
sim.core0.c1.iseq_stall_cycles=129
sim.core0.c1.macs=102400
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=200
sim.core0.c1.wseq_elems=12800
sim.core0.c1.wseq_stall_cycles=144
sim.core0.c1.zero_gated=0
sim.ecc.ded=0
sim.ecc.sec=12
sim.gemm.runs=1
sim.gemm.wall_cycles=432
sim.macs.fp16=204800
sim.macs.zero_gated=0
";
const SPAD_ECC_OFF: &str = "
out=0x35c6176075c97274 cycles=88
c0 cycles=88 phases=[40, 16, 32, 0] macs=98304 gated=14878 wstalls=32
c1 cycles=88 phases=[40, 16, 32, 0] macs=98304 gated=13989 wstalls=32
plan seq_stalls=9 spad_flips=176
sim.core0.c0.blockload_cycles=40
sim.core0.c0.cycles=88
sim.core0.c0.fill_cycles=16
sim.core0.c0.iseq_elems=1536
sim.core0.c0.iseq_stall_cycles=76
sim.core0.c0.macs=98304
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=32
sim.core0.c0.wseq_elems=6144
sim.core0.c0.wseq_stall_cycles=32
sim.core0.c0.zero_gated=14878
sim.core0.c1.blockload_cycles=40
sim.core0.c1.cycles=88
sim.core0.c1.fill_cycles=16
sim.core0.c1.iseq_elems=1536
sim.core0.c1.iseq_stall_cycles=69
sim.core0.c1.macs=98304
sim.core0.c1.starved_cycles=0
sim.core0.c1.stream_cycles=32
sim.core0.c1.wseq_elems=6144
sim.core0.c1.wseq_stall_cycles=32
sim.core0.c1.zero_gated=13989
sim.gemm.runs=1
sim.gemm.wall_cycles=88
sim.macs.int4=196608
sim.macs.zero_gated=28867
";
const DOUBLE_FLIP: &str = "
ecc_uncorrectable cycle=589 addr=23868
plan seq_stalls=0 spad_flips=589
sim.core0.c0.blockload_cycles=301
sim.core0.c0.cycles=589
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=3064
sim.core0.c0.iseq_stall_cycles=318
sim.core0.c0.macs=131072
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=256
sim.core0.c0.wseq_elems=19264
sim.core0.c0.wseq_stall_cycles=288
sim.core0.c0.zero_gated=0
sim.ecc.ded=1
sim.ecc.sec=90
sim.ecc.uncorrectable=1
";

const DOUBLE_FLIP_INT4: &str = "
ecc_uncorrectable cycle=359 addr=3434
plan seq_stalls=0 spad_flips=359
sim.core0.c0.blockload_cycles=32
sim.core0.c0.cycles=359
sim.core0.c0.fill_cycles=32
sim.core0.c0.iseq_elems=19840
sim.core0.c0.iseq_stall_cycles=61
sim.core0.c0.macs=1208320
sim.core0.c0.starved_cycles=0
sim.core0.c0.stream_cycles=295
sim.core0.c0.wseq_elems=8192
sim.core0.c0.wseq_stall_cycles=272
sim.core0.c0.zero_gated=139286
sim.ecc.ded=1
sim.ecc.sec=156
sim.ecc.uncorrectable=1
";
