//! `mlp_train_hfp8`: one SGD step of `refnet::Mlp` [784, 512, 512, 10] at
//! batch 64 through `Hfp8Backend` is one item.
//!
//! The same GEMM layer as the inference workloads, used differently: FP8
//! (1,4,3) forward, (1,5,2) backward, and weights rewritten every step.
//! A weight cache that helps inference must show no gain here.

use crate::stats::{bit_equal, fingerprint, sqnr_db, FP_SEED};
use crate::tracer::{name, Tracer};
use crate::{floor, sub_seed, Extra, Gate, ItemOut, Replay, Scale, Workload};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{matmul_emulated_checked, matmul_emulated_scalar, GemmStats};
use rapid_numerics::{NumericsError, QTensor, Tensor};
use rapid_refnet::{
    gaussian_blobs, softmax_cross_entropy, Backend, Dataset, Fp32Backend, Hfp8Backend, Mlp,
    OperandRole,
};
use std::cell::RefCell;
use std::time::Instant;

const LR: f32 = 0.02;
/// Step whose loss is reported as `refnet.loss_final`.
const LOSS_STEP: usize = 50;

/// One recorded backend call: operands, roles and the result.
#[derive(Debug, Clone)]
struct Call {
    a: Tensor,
    b: Tensor,
    roles: (OperandRole, OperandRole),
    out: Tensor,
}

/// A `Backend` that forwards to `Hfp8Backend`, timing each call in a span
/// named after its operand roles and optionally recording it.
struct Probe<'a> {
    tr: RefCell<&'a mut Tracer>,
    item: RefCell<ItemOut>,
    log: Option<RefCell<Vec<Call>>>,
}

fn span_name(roles: (OperandRole, OperandRole)) -> &'static str {
    match roles {
        (OperandRole::Data, OperandRole::Data) => name::REF_FWD,
        (OperandRole::Error, _) => name::REF_BWD_INPUT,
        (OperandRole::Data, OperandRole::Error) => name::REF_BWD_WEIGHT,
    }
}

impl Backend for Probe<'_> {
    fn try_matmul(
        &self,
        a: &Tensor,
        b: &Tensor,
        roles: (OperandRole, OperandRole),
    ) -> Result<Tensor, NumericsError> {
        let span = span_name(roles);
        let mut tr = self.tr.borrow_mut();
        tr.gap(name::REF_OTHER);
        let out = tr.span(span, || Hfp8Backend::default().try_matmul(a, b, roles))?;
        let macs = (a.shape()[0] * a.shape()[1] * b.shape()[1]) as u64;
        self.item
            .borrow_mut()
            .kernel(span, macs, GemmStats::default());
        if let Some(log) = &self.log {
            log.borrow_mut().push(Call {
                a: a.clone(),
                b: b.clone(),
                roles,
                out: out.clone(),
            });
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "hfp8-timed"
    }
}

/// The training workload.
#[derive(Debug, Clone)]
pub struct Train {
    widths: Vec<usize>,
    batch: usize,
    data: Dataset,
    mlp: Mlp,
    seed: u64,
    step: usize,
    losses: Vec<f64>,
    loss_step: usize,
}

impl Train {
    /// Draws the dataset and the initial weights from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (widths, batch, loss_step) = match scale {
            Scale::Full => (vec![784, 512, 512, 10], 64, LOSS_STEP),
            Scale::Tiny => (vec![64, 32, 32, 10], 16, 5),
        };
        // Noise wide enough that step 50 still has a loss well above zero,
        // so a numerics change that hurts training shows in it.
        let data = gaussian_blobs(batch * 32, 10, widths[0], 12.0, sub_seed(seed, 0, 7));
        let mlp = Mlp::new(&widths, sub_seed(seed, 0, 8));
        Self {
            widths,
            batch,
            data,
            mlp,
            seed,
            step: 0,
            losses: Vec::new(),
            loss_step,
        }
    }

    /// One SGD step through `backend`; returns the batch loss.
    fn sgd_step(&mut self, backend: &dyn Backend) -> Result<f64, NumericsError> {
        let batches = self.data.len() / self.batch;
        let start = (self.step % batches) * self.batch;
        let (x, y) = self.data.batch(start, start + self.batch);
        let logits = self.mlp.try_forward(backend, &x)?;
        let (loss, grad) = softmax_cross_entropy(&logits, y);
        self.mlp.try_backward_sgd(backend, &grad, LR)?;
        self.step += 1;
        self.losses.push(loss);
        Ok(loss)
    }

    /// Runs one step from a fresh copy of the initial weights with every
    /// backend call recorded.
    fn recorded_step(&self) -> Vec<Call> {
        let mut fresh = self.clone();
        fresh.rewind();
        let mut off = Tracer::new(false, self.seed);
        let probe = Probe {
            tr: RefCell::new(&mut off),
            item: RefCell::default(),
            log: Some(RefCell::default()),
        };
        let _ = fresh.sgd_step(&probe);
        probe.log.map(RefCell::into_inner).unwrap_or_default()
    }
}

/// The FMA mode and operands `Hfp8Backend` hands the numerics kernel for
/// this call; Error × Data runs as `(bᵀ × aᵀ)ᵀ`.
fn kernel_operands(c: &Call) -> (FmaMode, Tensor, Tensor) {
    match c.roles {
        (OperandRole::Data, OperandRole::Data) => {
            (FmaMode::hfp8_fwd_default(), c.a.clone(), c.b.clone())
        }
        (OperandRole::Error, OperandRole::Data) => (
            FmaMode::hfp8_bwd_default(),
            c.b.transposed(),
            c.a.transposed(),
        ),
        _ => (FmaMode::hfp8_bwd_default(), c.a.clone(), c.b.clone()),
    }
}

impl Workload for Train {
    fn item(&mut self, tr: &mut Tracer) -> Result<ItemOut, String> {
        let probe = Probe {
            tr: RefCell::new(tr),
            item: RefCell::default(),
            log: None,
        };
        self.sgd_step(&probe)
            .map_err(|e| format!("step {}: {e}", self.step))?;
        probe.tr.borrow_mut().gap(name::REF_OTHER);
        Ok(probe.item.into_inner())
    }

    fn fingerprint(&self) -> u64 {
        let mut h = FP_SEED;
        for l in 0..self.mlp.depth() {
            h = fingerprint(h, self.mlp.weights(l).as_slice());
            h = fingerprint(h, self.mlp.biases(l));
        }
        fingerprint(h, &[self.losses.last().copied().unwrap_or(0.0) as f32])
    }

    fn rewind(&mut self) {
        self.mlp = Mlp::new(&self.widths, sub_seed(self.seed, 0, 8));
        self.step = 0;
        self.losses.clear();
    }

    fn stateful(&self) -> bool {
        true
    }

    fn check(&mut self) -> Gate {
        let mut gate = Gate::start();
        for (i, c) in self.recorded_step().iter().enumerate() {
            let reference = Fp32Backend.matmul(&c.a, &c.b, c.roles);
            gate.sqnr(
                &format!("call {i} {}", span_name(c.roles)),
                sqnr_db(reference.as_slice(), c.out.as_slice()),
                floor::HFP8,
            );
        }
        // Bit-exactness of both HFP8 modes on small seeded operands.
        for (j, mode) in [FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default()]
            .into_iter()
            .enumerate()
        {
            let a =
                Tensor::random_uniform(vec![9, 130], -2.0, 2.0, sub_seed(self.seed ^ 0xb17, j, 0));
            let b =
                Tensor::random_uniform(vec![130, 40], -2.0, 2.0, sub_seed(self.seed ^ 0xb17, j, 1));
            let slow = matmul_emulated_scalar(mode, &a, &b, 64);
            let ok = matmul_emulated_checked(mode, &a, &b, 64)
                .is_ok_and(|(y, st)| bit_equal(y.as_slice(), slow.0.as_slice()) && st == slow.1);
            gate.check(ok, || {
                format!("HFP8 mode {j}: fast path differs from the scalar reference")
            });
        }
        gate
    }

    fn replay(&mut self) -> Replay {
        let mut r = Replay::default();
        let mut stats = GemmStats::default();
        let calls = self.recorded_step();
        for c in &calls {
            let (mode, a, b) = kernel_operands(c);
            let (fa, fb) = mode.operand_formats();
            let time = |t: &Tensor, f| {
                let t0 = Instant::now();
                std::hint::black_box(QTensor::quantize(t, f));
                t0.elapsed().as_nanos() as f64
            };
            let (ta, tb) = (time(&a, fa), time(&b, fb));
            // The weight operand: `W` forward, `Wᵀ` for the input
            // gradient (the kernel's left operand after the swap). The
            // weight-gradient GEMM multiplies activations by errors.
            let (w_ns, a_ns) = match c.roles {
                (OperandRole::Data, OperandRole::Data) => (tb, ta),
                (OperandRole::Error, OperandRole::Data) => (ta, tb),
                _ => (0.0, ta + tb),
            };
            r.quantize_w_ns += w_ns;
            r.quantize_a_ns += a_ns;
            if let Ok((_, st)) = matmul_emulated_checked(mode, &a, &b, 64) {
                stats.merge(st);
            }
        }
        r.stats = Some((calls.len() as u64, stats));
        r
    }

    fn extra(&mut self) -> Extra {
        let mut off = Tracer::new(false, self.seed);
        while self.losses.len() < self.loss_step {
            let probe = Probe {
                tr: RefCell::new(&mut off),
                item: RefCell::default(),
                log: None,
            };
            if self.sgd_step(&probe).is_err() {
                return vec![("refnet.loss_final", f64::NAN)];
            }
        }
        vec![("refnet.loss_final", self.losses[self.loss_step - 1])]
    }
}
