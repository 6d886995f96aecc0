//! `resnet50_int4`: one batch-1 ResNet-50 forward at 224² is one item.
//!
//! Layer precisions come from the compiler's INT4 plan: quantizable convs
//! run INT4, the first conv and the FC stay FP16. Every layer gets its own
//! seeded input of the graph's shape (the graph holds shapes, not a
//! dataflow), so the item is a sweep of the paper's real layer shapes
//! through the same entry points an executor would call.

use crate::kernel::Kernel;
use crate::stats::{bit_equal, fingerprint, sqnr_db, FP_SEED};
use crate::tracer::{name, Tracer};
use crate::{plan_int4, shrink, sub_seed, Extra, Gate, ItemOut, Replay, Scale, Workload};
use rapid_numerics::gemm::{conv2d_f32, im2col_into, matmul_f32, ConvScratch, ConvSpec};
use rapid_numerics::int::Signedness;
use rapid_numerics::{sfu, NumericsError, Tensor};
use rapid_workloads::graph::{AuxKind, Network, Op};
use std::time::Instant;

/// One executable layer of the graph.
#[derive(Debug)]
enum Exec {
    Conv {
        x: Tensor,
        w: Tensor,
        spec: ConvSpec,
        kernel: Kernel,
    },
    Gemv {
        a: Tensor,
        b: Tensor,
        kernel: Kernel,
    },
    Aux {
        kind: AuxKind,
        x: Tensor,
        y: Tensor,
        window: usize,
        avg: bool,
        affine: (f32, f32),
    },
}

#[derive(Debug)]
struct Layer {
    name: String,
    exec: Exec,
    /// Modeled 4-core chip cycles of a compute layer.
    model_cycles: f64,
}

/// Runs an auxiliary layer on the SFU functions and `Tensor::map`.
fn aux(
    kind: AuxKind,
    x: &Tensor,
    y: &Tensor,
    window: usize,
    avg: bool,
    affine: (f32, f32),
) -> Result<Tensor, String> {
    use sfu::SfuAccuracy::Accurate;
    Ok(match kind {
        AuxKind::Relu => x.map(|v| v.max(0.0)),
        AuxKind::BatchNorm => x.map(|v| v * affine.0 + affine.1),
        AuxKind::EltwiseAdd => {
            Tensor::from_fn(x.shape().to_vec(), |i| x.as_slice()[i] + y.as_slice()[i])
        }
        AuxKind::Pool => {
            let inv = sfu::reciprocal(window as f32, Accurate);
            let pooled = x.as_slice().chunks(window).map(|c| {
                if avg {
                    c.iter().sum::<f32>() * inv
                } else {
                    c.iter().copied().fold(f32::MIN, f32::max)
                }
            });
            Tensor::from_vec(vec![x.len() / window], pooled.collect())
        }
        AuxKind::Softmax => {
            let max = x.as_slice().iter().copied().fold(f32::MIN, f32::max);
            let e = x.map(|v| sfu::exp(v - max, Accurate));
            let inv = sfu::reciprocal(e.as_slice().iter().sum(), Accurate);
            e.map(|v| v * inv)
        }
        other => return Err(format!("auxiliary op {other:?} has no executor here")),
    })
}

fn conv_spec(op: &Op) -> Result<ConvSpec, String> {
    match *op {
        Op::Conv {
            stride,
            pad_h,
            pad_w,
            ..
        } if pad_h == pad_w => Ok(ConvSpec {
            stride: stride as usize,
            pad: pad_h as usize,
        }),
        _ => Err(format!("{op:?} is not a symmetric conv")),
    }
}

/// The ResNet-50 workload.
#[derive(Debug)]
pub struct Resnet {
    layers: Vec<Layer>,
    scratch: ConvScratch,
    outs: Vec<Tensor>,
    seed: u64,
    /// Set-up steps in the host clock and the model's latency.
    model: Extra,
}

impl Resnet {
    /// Builds the graph, compiles and evaluates it, and draws every
    /// layer's operands from `seed`.
    ///
    /// # Errors
    ///
    /// Layers the benchmark cannot execute.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let net = rapid_workloads::cnn::resnet50();
        let net = match scale {
            Scale::Full => net,
            Scale::Tiny => Network {
                layers: net
                    .layers
                    .iter()
                    .map(|l| rapid_workloads::graph::Layer {
                        op: shrink(&l.op, 8, 16),
                        ..l.clone()
                    })
                    .collect(),
                ..net
            },
        };
        let planned = plan_int4(&net);
        let mut layers = Vec::with_capacity(net.layers.len());
        let plans = planned.plan.layers.iter().zip(&planned.layer_cycles);
        for (i, (l, (lp, &model_cycles))) in net.layers.iter().zip(plans).enumerate() {
            let rnd = |shape: Vec<usize>, lo: f32, role: u64| {
                Tensor::random_uniform(shape, lo, 1.0, sub_seed(seed, i, role))
            };
            let exec = match l.op {
                Op::Conv {
                    ci,
                    co,
                    h,
                    w,
                    kh,
                    kw,
                    ..
                } => {
                    let spec = conv_spec(&l.op)?;
                    // Post-ReLU activations, except the image into the first conv.
                    let lo = if i == 0 { -1.0 } else { 0.0 };
                    let act = if lo < 0.0 {
                        Signedness::Signed
                    } else {
                        Signedness::Unsigned
                    };
                    let x = rnd(vec![1, ci as usize, h as usize, w as usize], lo, 0);
                    let wt = rnd(
                        vec![co as usize, ci as usize, kh as usize, kw as usize],
                        -1.0,
                        1,
                    );
                    let kernel = Kernel::for_precision(lp.precision, &wt, act)?;
                    Exec::Conv {
                        x,
                        w: wt,
                        spec,
                        kernel,
                    }
                }
                Op::Gemm { m, k, n, .. } => {
                    let a = rnd(vec![m as usize, k as usize], 0.0, 0);
                    let b = rnd(vec![k as usize, n as usize], -1.0, 1);
                    let kernel = Kernel::for_precision(lp.precision, &b, Signedness::Unsigned)?;
                    Exec::Gemv { a, b, kernel }
                }
                Op::Aux {
                    kind,
                    elems,
                    ops_per_elem,
                } => {
                    let window = ops_per_elem.max(1) as usize;
                    let x = rnd(vec![(elems as usize) * window], -1.0, 0);
                    let y = if kind == AuxKind::EltwiseAdd {
                        rnd(vec![elems as usize], -1.0, 2)
                    } else {
                        Tensor::default()
                    };
                    let g = Tensor::random_uniform(vec![2], 0.5, 1.5, sub_seed(seed, i, 3));
                    let affine = (g.as_slice()[0], g.as_slice()[1] - 1.0);
                    Exec::Aux {
                        kind,
                        x,
                        y,
                        window,
                        avg: l.name.starts_with("gap"),
                        affine,
                    }
                }
                Op::DepthwiseConv { .. } => {
                    return Err(format!("{}: depthwise conv is not measured", l.name))
                }
            };
            layers.push(Layer {
                name: l.name.clone(),
                exec,
                model_cycles,
            });
        }
        let outs = vec![Tensor::default(); layers.len()];
        Ok(Self {
            layers,
            scratch: ConvScratch::default(),
            outs,
            seed,
            model: planned.metrics,
        })
    }
}

impl Workload for Resnet {
    fn item(&mut self, tr: &mut Tracer) -> Result<ItemOut, String> {
        let mut out = ItemOut::default();
        for (l, slot) in self.layers.iter().zip(self.outs.iter_mut()) {
            let err = |e: NumericsError| format!("{}: {e}", l.name);
            *slot = match &l.exec {
                Exec::Conv { x, w, spec, kernel } => {
                    let scratch = &mut self.scratch;
                    let (y, st) = tr
                        .span(name::CONV, || kernel.conv(x, w, *spec, scratch))
                        .map_err(err)?;
                    out.kernel(name::CONV, st.macs, st);
                    out.cycles(name::CONV, l.model_cycles, 0);
                    y
                }
                Exec::Gemv { a, b, kernel } => {
                    let (y, st) = tr.span(name::GEMV, || kernel.matmul(a, b)).map_err(err)?;
                    out.kernel(name::GEMV, st.macs, st);
                    out.cycles(name::GEMV, l.model_cycles, 0);
                    y
                }
                Exec::Aux {
                    kind,
                    x,
                    y,
                    window,
                    avg,
                    affine,
                } => {
                    out.sfu_elems += x.len() as u64;
                    tr.span(name::SFU, || aux(*kind, x, y, *window, *avg, *affine))?
                }
            };
        }
        Ok(out)
    }

    fn fingerprint(&self) -> u64 {
        self.outs
            .iter()
            .fold(FP_SEED, |h, t| fingerprint(h, t.as_slice()))
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::start();
        // SQNR of every compute layer's warm-up output against f32 on the
        // same operands.
        for (l, y) in self.layers.iter().zip(&self.outs) {
            let (reference, kernel) = match &l.exec {
                Exec::Conv { x, w, spec, kernel } => (conv2d_f32(x, w, *spec), kernel),
                Exec::Gemv { a, b, kernel } => (matmul_f32(a, b), kernel),
                Exec::Aux { .. } => continue,
            };
            gate.sqnr(
                &l.name,
                sqnr_db(reference.as_slice(), y.as_slice()),
                kernel.floor(),
            );
        }
        // Bit-exactness of the fast paths against the scalar references
        // on a seeded sample of layers cut down to a small size.
        let compute: Vec<&Layer> = self
            .layers
            .iter()
            .filter(|l| !matches!(l.exec, Exec::Aux { .. }))
            .collect();
        let picks = [
            0,
            1 + (self.seed as usize % (compute.len() - 1)),
            compute.len() - 1,
        ];
        for (n, &p) in picks.iter().enumerate() {
            let l = compute[p];
            let r = |shape: Vec<usize>, lo: f32, role: u64| {
                Tensor::random_uniform(shape, lo, 1.0, sub_seed(self.seed ^ 0xb17, p, role))
            };
            let (fast, slow) = match &l.exec {
                Exec::Conv {
                    w, spec, kernel, ..
                } => {
                    let s = w.shape();
                    let (co, ci) = (s[0].min(24), s[1].min(20));
                    let x = r(
                        vec![1, ci, 9 + s[2], 9 + s[3]],
                        if n == 0 { -1.0 } else { 0.0 },
                        0,
                    );
                    let wt = r(vec![co, ci, s[2], s[3]], -1.0, 1);
                    let kernel = kernel.for_weights(&wt);
                    (
                        kernel.conv(&x, &wt, *spec, &mut ConvScratch::default()),
                        kernel.conv_scalar(&x, &wt, *spec),
                    )
                }
                Exec::Gemv { b, kernel, .. } => {
                    let a = r(vec![1, b.shape()[0].min(200)], 0.0, 0);
                    let bt = r(vec![a.shape()[1], b.shape()[1].min(70)], -1.0, 1);
                    let kernel = kernel.for_weights(&bt);
                    (kernel.matmul(&a, &bt), kernel.matmul_scalar(&a, &bt))
                }
                Exec::Aux { .. } => continue,
            };
            let ok = fast
                .as_ref()
                .is_ok_and(|(y, st)| bit_equal(y.as_slice(), slow.0.as_slice()) && *st == slow.1);
            gate.check(ok, || {
                format!("{}: fast path differs from the scalar reference", l.name)
            });
        }
        gate
    }

    fn replay(&mut self) -> Replay {
        let mut r = Replay::default();
        let mut cols = Tensor::default();
        for l in &self.layers {
            match &l.exec {
                Exec::Conv { x, w, spec, kernel } => {
                    let s = w.shape();
                    let t0 = Instant::now();
                    im2col_into(x, s[2], s[3], *spec, &mut cols);
                    r.im2col_ns += t0.elapsed().as_nanos() as f64;
                    let (tw, ta) = kernel.replay_quantize(w, &cols);
                    r.quantize_w_ns += tw;
                    r.quantize_a_ns += ta;
                }
                Exec::Gemv { a, b, kernel } => {
                    let (tw, ta) = kernel.replay_quantize(b, a);
                    r.quantize_w_ns += tw;
                    r.quantize_a_ns += ta;
                }
                Exec::Aux { .. } => {}
            }
        }
        r
    }

    fn extra(&mut self) -> Extra {
        self.model.clone()
    }
}
