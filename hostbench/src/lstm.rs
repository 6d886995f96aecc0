//! `lstm_step_int4`: one streaming timestep of the PTB 2-layer LSTM
//! (hidden 1500) is one item.
//!
//! Per layer the x- and h-projections are INT4 GEMVs (1×1500×6000), the
//! gates run on the SFU functions, and h and c carry from step to step.
//! The FP16 vocabulary head is left out: it is one FP16 GEMM per step that
//! would only dilute the INT4 GEMVs this workload is here to measure.

use crate::kernel::Kernel;
use crate::stats::{bit_equal, fingerprint, sqnr_db, FP_SEED};
use crate::tracer::{name, Tracer};
use crate::{plan_int4, shrink, sub_seed, Extra, Gate, ItemOut, Replay, Scale, Workload};
use rapid_numerics::gemm::matmul_f32;
use rapid_numerics::int::Signedness;
use rapid_numerics::sfu::{self, SfuAccuracy::Accurate};
use rapid_numerics::Tensor;
use rapid_workloads::graph::{Layer, Network, Op};

/// PTB vocabulary size; token ids are drawn below it.
const VOCAB: u64 = 10_000;

/// One step of the PTB LSTM: the per-timestep share of `lstm_ptb()`'s
/// layers, with the batched input projection turned into a GEMV.
fn step_network(scale: Scale) -> Network {
    let net = rapid_workloads::nlp::lstm_ptb();
    let seq = net
        .layers
        .iter()
        .find_map(|l| match l.op {
            Op::Gemm { m, .. } if l.name.ends_with("_xproj") => Some(m),
            _ => None,
        })
        .unwrap_or(1);
    let layers = net
        .layers
        .iter()
        .filter(|l| l.name.starts_with('l') && l.name.contains('_'))
        .map(|l| {
            let op = match l.op {
                Op::Gemm { k, n, weighted, .. } => Op::Gemm {
                    m: 1,
                    k,
                    n,
                    weighted,
                },
                Op::Aux {
                    kind,
                    elems,
                    ops_per_elem,
                } => Op::Aux {
                    kind,
                    elems: elems / seq,
                    ops_per_elem,
                },
                other => other,
            };
            let op = if scale == Scale::Tiny {
                shrink(&op, 1, 20)
            } else {
                op
            };
            Layer {
                op,
                repeat: 1,
                ..l.clone()
            }
        })
        .collect();
    Network { layers, ..net }
}

#[derive(Debug)]
struct Cell {
    wx: Tensor,
    wh: Tensor,
    kx: Kernel,
    kh: Kernel,
    bias: Vec<f32>,
    /// Modeled 4-core chip cycles of the two projections.
    model_cycles: [f64; 2],
}

/// The LSTM-step workload.
#[derive(Debug)]
pub struct Lstm {
    cells: Vec<Cell>,
    h0: Vec<Tensor>,
    c0: Vec<Tensor>,
    h: Vec<Tensor>,
    c: Vec<Tensor>,
    /// GEMV operands and outputs of the last item: `(x, x·Wx, h, h·Wh)`.
    last: Vec<[Tensor; 4]>,
    step: u64,
    seed: u64,
    /// Set-up steps in the host clock and the model's latency.
    model: Extra,
}

impl Lstm {
    /// Builds the step network, compiles and evaluates it, and draws the
    /// weights and initial state from `seed`.
    ///
    /// # Errors
    ///
    /// A step network whose layers are not the expected projections.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let net = step_network(scale);
        let planned = plan_int4(&net);
        let mut projections = Vec::new();
        let plans = planned.plan.layers.iter().zip(&planned.layer_cycles);
        for (i, (l, (lp, &cycles))) in net.layers.iter().zip(plans).enumerate() {
            if let Op::Gemm { k, n, .. } = l.op {
                let w = Tensor::random_uniform(
                    vec![k as usize, n as usize],
                    -1.0,
                    1.0,
                    sub_seed(seed, i, 1),
                );
                let kernel = Kernel::for_precision(lp.precision, &w, Signedness::Signed)?;
                projections.push((w, kernel, cycles));
            }
        }
        if projections.len() % 2 != 0 {
            return Err("step network must pair x- and h-projections".into());
        }
        let mut cells = Vec::new();
        let (mut h0, mut c0) = (Vec::new(), Vec::new());
        let mut it = projections.into_iter();
        while let (Some((wx, kx, cx)), Some((wh, kh, ch))) = (it.next(), it.next()) {
            let l = cells.len();
            let hidden = wh.shape()[0];
            if wx.shape()[1] != 4 * hidden || wh.shape()[1] != 4 * hidden {
                return Err(format!("layer {l}: projections are not 4×hidden wide"));
            }
            let bias =
                Tensor::random_uniform(vec![4 * hidden], -0.5, 0.5, sub_seed(seed, 100 + l, 2))
                    .into_vec();
            h0.push(Tensor::random_uniform(
                vec![1, hidden],
                -0.5,
                0.5,
                sub_seed(seed, 100 + l, 3),
            ));
            c0.push(Tensor::random_uniform(
                vec![1, hidden],
                -0.5,
                0.5,
                sub_seed(seed, 100 + l, 4),
            ));
            cells.push(Cell {
                wx,
                wh,
                kx,
                kh,
                bias,
                model_cycles: [cx, ch],
            });
        }
        Ok(Self {
            last: vec![Default::default(); cells.len()],
            h: h0.clone(),
            c: c0.clone(),
            cells,
            h0,
            c0,
            step: 0,
            seed,
            model: planned.metrics,
        })
    }

    /// The embedding of this step's seeded token id.
    fn embedding(&self) -> Tensor {
        let token = rapid_telemetry::span::derive_trace_id(self.seed, self.step) % VOCAB;
        let k = self.cells[0].wx.shape()[0];
        Tensor::random_uniform(
            vec![1, k],
            -1.0,
            1.0,
            sub_seed(self.seed, token as usize, 9),
        )
    }
}

/// LSTM cell update from the two projections: returns `(h, c)`.
fn gates(gx: &Tensor, gh: &Tensor, bias: &[f32], c_prev: &Tensor) -> (Tensor, Tensor) {
    let hd = c_prev.len();
    let z: Vec<f32> = gx
        .as_slice()
        .iter()
        .zip(gh.as_slice())
        .zip(bias)
        .map(|((a, b), c)| a + b + c)
        .collect();
    let c = Tensor::from_fn(vec![1, hd], |j| {
        let (i, f, g) = (
            sfu::sigmoid(z[j], Accurate),
            sfu::sigmoid(z[hd + j], Accurate),
            sfu::tanh(z[2 * hd + j], Accurate),
        );
        f * c_prev.as_slice()[j] + i * g
    });
    let h = Tensor::from_fn(vec![1, hd], |j| {
        sfu::sigmoid(z[3 * hd + j], Accurate) * sfu::tanh(c.as_slice()[j], Accurate)
    });
    (h, c)
}

impl Workload for Lstm {
    fn item(&mut self, tr: &mut Tracer) -> Result<ItemOut, String> {
        let mut out = ItemOut::default();
        let mut x = self.embedding();
        for (l, cell) in self.cells.iter().enumerate() {
            let (gx, sx) = tr
                .span(name::GEMV, || cell.kx.matmul(&x, &cell.wx))
                .map_err(|e| format!("l{l} x-proj: {e}"))?;
            out.kernel(name::GEMV, sx.macs, sx);
            out.cycles(name::GEMV, cell.model_cycles[0], 0);
            let (gh, sh) = tr
                .span(name::GEMV, || cell.kh.matmul(&self.h[l], &cell.wh))
                .map_err(|e| format!("l{l} h-proj: {e}"))?;
            out.kernel(name::GEMV, sh.macs, sh);
            out.cycles(name::GEMV, cell.model_cycles[1], 0);
            let (h, c) = tr.span(name::SFU, || gates(&gx, &gh, &cell.bias, &self.c[l]));
            // Add, 3 sigmoids, 2 tanh and 3 products per hidden unit.
            out.sfu_elems += 12 * h.len() as u64;
            let h_prev = std::mem::replace(&mut self.h[l], h);
            self.c[l] = c;
            self.last[l] = [std::mem::replace(&mut x, self.h[l].clone()), gx, h_prev, gh];
        }
        self.step += 1;
        Ok(out)
    }

    fn fingerprint(&self) -> u64 {
        self.h
            .iter()
            .chain(&self.c)
            .fold(FP_SEED, |acc, t| fingerprint(acc, t.as_slice()))
    }

    fn rewind(&mut self) {
        self.h.clone_from(&self.h0);
        self.c.clone_from(&self.c0);
        self.step = 0;
    }

    fn stateful(&self) -> bool {
        true
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::start();
        for (l, (cell, [x, gx, h, gh])) in self.cells.iter().zip(&self.last).enumerate() {
            for (what, a, w, y, k) in [
                ("x", x, &cell.wx, gx, &cell.kx),
                ("h", h, &cell.wh, gh, &cell.kh),
            ] {
                let db = sqnr_db(matmul_f32(a, w).as_slice(), y.as_slice());
                gate.sqnr(&format!("l{l} {what}-proj"), db, k.floor());
            }
            // Bit-exactness against the scalar reference on a seeded
            // slice-sized GEMV with this layer's kernel.
            let k = cell.wx.shape()[0].min(300);
            let a =
                Tensor::random_uniform(vec![1, k], -1.0, 1.0, sub_seed(self.seed ^ 0xb17, l, 0));
            let w =
                Tensor::random_uniform(vec![k, 96], -1.0, 1.0, sub_seed(self.seed ^ 0xb17, l, 1));
            let kernel = cell.kx.for_weights(&w);
            let slow = kernel.matmul_scalar(&a, &w);
            let ok = kernel
                .matmul(&a, &w)
                .is_ok_and(|(y, st)| bit_equal(y.as_slice(), slow.0.as_slice()) && st == slow.1);
            gate.check(ok, || {
                format!("l{l}: INT4 GEMV differs from the scalar reference")
            });
        }
        gate
    }

    fn replay(&mut self) -> Replay {
        let mut r = Replay::default();
        for (cell, [x, _, h, _]) in self.cells.iter().zip(&self.last) {
            for (w, a, k) in [(&cell.wx, x, &cell.kx), (&cell.wh, h, &cell.kh)] {
                let (tw, ta) = k.replay_quantize(w, a);
                r.quantize_w_ns += tw;
                r.quantize_a_ns += ta;
            }
        }
        r
    }

    fn extra(&mut self) -> Extra {
        self.model.clone()
    }
}
