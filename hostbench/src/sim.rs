//! `sim_resnet50_int4`: one pass of the cycle simulator at INT4 over
//! ResNet-50's distinct compute shapes is one item.
//!
//! Spatial dimensions are divided by 4 (never below the kernel): at the
//! simulator's tens of MMAC/s the full-size shapes would take most of a
//! minute per item. Each shape also gets the analytical model's
//! prediction, so the item measures `sim` and `model` host time and the
//! model's error against the simulator in the sim clock.

use crate::stats::{bit_equal, fingerprint, mix, percentile, sqnr_db, FP_SEED};
use crate::tracer::{name, Tracer};
use crate::{floor, shrink, sub_seed, Extra, Gate, ItemOut, Replay, Scale, Workload};
use rapid_arch::precision::Precision;
use rapid_compiler::map_layer;
use rapid_numerics::gemm::{
    conv2d_f32, conv2d_int_with_simd, im2col, matmul_f32, matmul_int_checked, ConvScratch, ConvSpec,
};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{SimdMode, Tensor};
use rapid_sim::{try_run_conv, ConvJob, CoreSim, CoreletReport, GemmJob};
use rapid_workloads::graph::Op;

#[derive(Debug)]
enum Job {
    Conv(ConvJob),
    Gemm(GemmJob),
}

#[derive(Debug)]
struct Shape {
    op: Op,
    job: Job,
}

/// Sim-clock counters of one item, and the model's prediction per shape.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    sim_cycles: Vec<u64>,
    predicted: Vec<f64>,
    corelet_cycles: u64,
    stream: u64,
    starved: u64,
    weight_stalls: u64,
}

impl Counts {
    fn add(&mut self, cycles: u64, predicted: f64, corelets: &[CoreletReport]) {
        self.sim_cycles.push(cycles);
        self.predicted.push(predicted);
        for c in corelets {
            self.corelet_cycles += c.cycles;
            self.stream += c.phase_cycles[2];
            self.starved += c.phase_cycles[3];
            self.weight_stalls += c.weight_stalls;
        }
    }
}

fn int4(x: &Tensor) -> QuantParams {
    QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, x.max_abs())
}

/// The simulator workload.
#[derive(Debug)]
pub struct SimPass {
    core: CoreSim,
    shapes: Vec<Shape>,
    outs: Vec<Tensor>,
    counts: Counts,
}

impl SimPass {
    /// Collects ResNet-50's distinct compute shapes, shrinks them, and
    /// draws each shape's operands from `seed`.
    ///
    /// # Errors
    ///
    /// Shapes the simulator has no path for.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let (spatial, channels) = match scale {
            Scale::Full => (4, 1),
            Scale::Tiny => (16, 8),
        };
        let mut ops: Vec<Op> = Vec::new();
        for l in rapid_workloads::cnn::resnet50()
            .layers
            .iter()
            .filter(|l| l.op.is_compute())
        {
            if !ops.contains(&l.op) {
                ops.push(l.op);
            }
        }
        let mut shapes = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let op = shrink(op, spatial, channels);
            let rnd = |shape: Vec<usize>, role| {
                Tensor::random_uniform(shape, -1.0, 1.0, sub_seed(seed, i, role))
            };
            let job = match op {
                Op::Conv {
                    ci,
                    co,
                    h,
                    w,
                    kh,
                    kw,
                    stride,
                    pad_h,
                    pad_w,
                } if pad_h == pad_w => Job::Conv(ConvJob {
                    input: rnd(vec![1, ci as usize, h as usize, w as usize], 0),
                    weight: rnd(vec![co as usize, ci as usize, kh as usize, kw as usize], 1),
                    spec: ConvSpec {
                        stride: stride as usize,
                        pad: pad_h as usize,
                    },
                    precision: Precision::Int4,
                    sfu: None,
                }),
                Op::Gemm { m, k, n, .. } => Job::Gemm(GemmJob {
                    a: rnd(vec![m as usize, k as usize], 0),
                    b: rnd(vec![k as usize, n as usize], 1),
                    precision: Precision::Int4,
                }),
                other => return Err(format!("no simulator path for {other:?}")),
            };
            shapes.push(Shape { op, job });
        }
        let outs = vec![Tensor::default(); shapes.len()];
        Ok(Self {
            core: CoreSim::rapid(),
            shapes,
            outs,
            counts: Counts::default(),
        })
    }

    /// |model − sim| ÷ sim per shape, for the shapes `keep` selects.
    fn errors(&self, keep: impl Fn(&Op) -> bool) -> Vec<f64> {
        self.shapes
            .iter()
            .zip(self.counts.sim_cycles.iter().zip(&self.counts.predicted))
            .filter(|(s, _)| keep(&s.op))
            .map(|(_, (&sim, &model))| (model - sim as f64).abs() / (sim as f64).max(1.0))
            .collect()
    }
}

impl Workload for SimPass {
    fn item(&mut self, tr: &mut Tracer) -> Result<ItemOut, String> {
        let mut out = ItemOut::default();
        let mut counts = Counts::default();
        let (core, corelets) = (&self.core, self.core.config().corelets);
        let corelet = &self.core.config().corelet;
        for (s, slot) in self.shapes.iter().zip(self.outs.iter_mut()) {
            let predicted = tr.span(name::MODEL_MAP, || {
                map_layer(&s.op, Precision::Int4, 1, corelet, corelets).total_cycles()
            });
            let (span, y, cycles, reports) = match &s.job {
                Job::Conv(j) => {
                    let r = tr
                        .span(name::SIM_CONV, || try_run_conv(core, j))
                        .map_err(|e| format!("{:?}: {e}", s.op))?;
                    let cycles = r.total_cycles();
                    (name::SIM_CONV, r.output, cycles, r.gemm.corelets)
                }
                Job::Gemm(j) => {
                    let r = tr
                        .span(name::SIM_GEMM, || core.try_run_gemm(j))
                        .map_err(|e| format!("{:?}: {e}", s.op))?;
                    (name::SIM_GEMM, r.c, r.cycles, r.corelets)
                }
            };
            *out.macs.entry(span).or_default() += reports.iter().map(|c| c.macs).sum::<u64>();
            out.cycles(span, predicted, cycles);
            counts.add(cycles, predicted, &reports);
            *slot = y;
        }
        self.counts = counts;
        Ok(out)
    }

    fn fingerprint(&self) -> u64 {
        let c = &self.counts;
        let clocks = [c.corelet_cycles, c.stream, c.starved, c.weight_stalls];
        let h = self
            .outs
            .iter()
            .fold(FP_SEED, |h, t| fingerprint(h, t.as_slice()));
        c.sim_cycles
            .iter()
            .chain(&clocks)
            .fold(h, |h, &v| mix(h, v))
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::start();
        let simd = SimdMode::from_env();
        for (i, (s, y)) in self.shapes.iter().zip(&self.outs).enumerate() {
            // The simulator quantizes the lowered operands per tensor, so
            // the numerics kernel gets the im2col matrix's range.
            let (numerics, reference) = match &s.job {
                Job::Conv(j) => {
                    let (kh, kw) = (j.weight.shape()[2], j.weight.shape()[3]);
                    let qa = int4(&im2col(&j.input, kh, kw, j.spec));
                    let fast = conv2d_int_with_simd(
                        &j.input,
                        &j.weight,
                        j.spec,
                        qa,
                        int4(&j.weight),
                        64,
                        &mut ConvScratch::default(),
                        simd,
                    );
                    (fast, conv2d_f32(&j.input, &j.weight, j.spec))
                }
                Job::Gemm(j) => (
                    matmul_int_checked(&j.a, &j.b, int4(&j.a), int4(&j.b), 64),
                    matmul_f32(&j.a, &j.b),
                ),
            };
            let ok = numerics.is_ok_and(|(n, _)| bit_equal(n.as_slice(), y.as_slice()));
            gate.check(ok, || {
                format!("shape {i}: simulator output differs from the numerics kernel")
            });
            gate.sqnr(
                &format!("shape {i}"),
                sqnr_db(reference.as_slice(), y.as_slice()),
                floor::INT4,
            );
        }
        gate
    }

    fn replay(&mut self) -> Replay {
        Replay::default()
    }

    fn extra(&mut self) -> Extra {
        let c = &self.counts;
        let frac = |x: u64| x as f64 / (c.corelet_cycles as f64).max(1.0);
        let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        vec![
            ("sim.stream_frac", frac(c.stream)),
            ("sim.starved_frac", frac(c.starved)),
            ("sim.weight_stalls", c.weight_stalls as f64),
            (
                "model_err.conv.max",
                max(self.errors(|op| matches!(op, Op::Conv { .. }))),
            ),
            (
                "model_err.gemm.max",
                max(self.errors(|op| matches!(op, Op::Gemm { .. }))),
            ),
            ("model_err.p95", percentile(&self.errors(|_| true), 0.95)),
        ]
    }
}
