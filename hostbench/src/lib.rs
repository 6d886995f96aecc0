//! Host wall-clock benchmark of the RaPiD reproduction on the paper's real
//! layer shapes.
//!
//! Each workload drives the public entry points of the workspace crates
//! from outside — no library code is changed to be measured — and times
//! every call with the host clock. See `README.md` for the metrics, their
//! units and clocks, and why each workload exists.

pub mod kernel;
pub mod lstm;
pub mod resnet;
pub mod sim;
pub mod stats;
pub mod tracer;
pub mod train;

use rapid_arch::geometry::ChipConfig;
use rapid_arch::precision::Precision;
use rapid_compiler::{compile, map_layer, CompileOptions, NetworkPlan};
use rapid_model::cost::total_corelets;
use rapid_model::{evaluate_inference, ModelConfig};
use rapid_numerics::gemm::GemmStats;
use rapid_workloads::graph::{Network, Op};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tracer::{name, Tracer};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "resnet50_int4",
    "lstm_step_int4",
    "mlp_train_hfp8",
    "sim_resnet50_int4",
];

/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

/// Layer shapes: the paper's (`Full`) or a shrunken copy for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's layer shapes.
    Full,
    /// Every dimension cut down so a whole run takes well under a second.
    Tiny,
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every weight, input, token id and dataset is drawn from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Layer shapes.
    pub scale: Scale,
    /// Where the traced run writes its Perfetto trace (`None`: nowhere).
    pub trace_path: Option<std::path::PathBuf>,
}

/// One metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, which also names the clock for times.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Items plus correctness checks attempted.
    pub attempted: u64,
    /// Items or checks that failed.
    pub failed: u64,
    /// Every metric of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Failure descriptions and report tables, for the human reader.
    pub notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Counters one item leaves behind. Two runs of the same item from the
/// same state must produce equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemOut {
    /// Datapath statistics merged over the item's numerics kernel calls.
    pub stats: GemmStats,
    /// Numerics kernel calls (conv, GEMV, GEMM).
    pub calls: u64,
    /// MACs per span name.
    pub macs: BTreeMap<&'static str, u64>,
    /// Element operations done in SFU spans.
    pub sfu_elems: u64,
    /// Modeled chip cycles per span name (model clock).
    pub model_cycles: BTreeMap<&'static str, f64>,
    /// Simulated cycles per span name (sim clock).
    pub sim_cycles: BTreeMap<&'static str, u64>,
}

impl ItemOut {
    /// Counts one kernel call of `macs` MACs under span `span`.
    pub fn kernel(&mut self, span: &'static str, macs: u64, stats: GemmStats) {
        self.calls += 1;
        self.stats.merge(stats);
        *self.macs.entry(span).or_default() += macs;
    }

    /// Adds one layer's cycles in the model and sim clocks under `span`.
    pub fn cycles(&mut self, span: &'static str, model: f64, sim: u64) {
        *self.model_cycles.entry(span).or_default() += model;
        *self.sim_cycles.entry(span).or_default() += sim;
    }

    /// MACs of the whole item.
    pub fn total_macs(&self) -> u64 {
        self.macs.values().sum()
    }
}

/// Host-ns replays of stages the library runs inside one item's kernels.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Quantizing the weight operands.
    pub quantize_w_ns: f64,
    /// Quantizing the activation (and error) operands.
    pub quantize_a_ns: f64,
    /// Lowering conv inputs with `im2col_into`.
    pub im2col_ns: f64,
    /// `GemmStats` of one item when the item's own calls cannot report
    /// them (the refnet backend drops them).
    pub stats: Option<(u64, GemmStats)>,
}

/// The correctness gate's result.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    /// Checks run.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// The worst layer's SQNR against f32 on the same operands.
    pub sqnr_min: f64,
}

impl Gate {
    fn start() -> Self {
        Self {
            sqnr_min: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records one layer's SQNR against its precision's floor.
    pub fn sqnr(&mut self, layer: &str, db: f64, floor: f64) {
        self.sqnr_min = self.sqnr_min.min(db);
        self.check(db.is_finite() && db >= floor, || {
            format!("{layer}: SQNR {db:.2} dB below the {floor} dB floor")
        });
    }
}

/// SQNR floors per precision, in dB against f32 on the same operands.
pub mod floor {
    /// INT4 weights and activations.
    pub const INT4: f64 = 10.0;
    /// HFP8 operands with FP16 accumulation.
    pub const HFP8: f64 = 15.0;
    /// FP16 operands and accumulation.
    pub const FP16: f64 = 40.0;
}

/// Per-layer metrics a workload adds from its own clocks.
pub type Extra = Vec<(&'static str, f64)>;

/// One benchmark workload: set up by its constructor from the seed, then
/// driven item by item by [`run`].
pub trait Workload {
    /// Runs one item, recording layer spans into `tr`.
    ///
    /// # Errors
    ///
    /// A description of the failed library call.
    fn item(&mut self, tr: &mut Tracer) -> Result<ItemOut, String>;

    /// Fingerprint of the last item's outputs (and state, if it carries).
    fn fingerprint(&self) -> u64;

    /// Restores the state the first item starts from. Workloads whose
    /// items carry state (LSTM h and c, trained weights) override this.
    fn rewind(&mut self) {}

    /// Whether items carry state from one to the next.
    fn stateful(&self) -> bool {
        false
    }

    /// Correctness checks on the last item's operands and outputs, run
    /// outside the timed phase.
    fn check(&mut self) -> Gate;

    /// Times, outside any item, the library's internal stages on one
    /// item's operands.
    fn replay(&mut self) -> Replay;

    /// Per-layer metrics in the model and sim clocks, plus set-up steps.
    fn extra(&mut self) -> Extra;
}

/// Builds workload `name` with every input drawn from `seed`.
///
/// # Errors
///
/// Unknown workload names and set-up failures.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "resnet50_int4" => Box::new(resnet::Resnet::new(seed, scale)?),
        "lstm_step_int4" => Box::new(lstm::Lstm::new(seed, scale)?),
        "mlp_train_hfp8" => Box::new(train::Train::new(seed, scale)),
        "sim_resnet50_int4" => Box::new(sim::SimPass::new(seed, scale)?),
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// A network compiled at INT4 for the 4-core chip and evaluated by the
/// performance model.
#[derive(Debug)]
pub struct Planned {
    /// Per-layer plans, in layer order.
    pub plan: NetworkPlan,
    /// Modeled chip cycles of each layer (0 for auxiliary layers).
    pub layer_cycles: Vec<f64>,
    /// Host ms of `compile` and `evaluate_inference`, and the modeled
    /// batch-1 latency in ms.
    pub metrics: Extra,
}

/// Compiles `net` with `for_precision(Int4)` and evaluates it at batch 1,
/// timing both calls.
pub fn plan_int4(net: &Network) -> Planned {
    let chip = ChipConfig::rapid_4core();
    let t0 = Instant::now();
    let plan = compile(net, &chip, &CompileOptions::for_precision(Precision::Int4));
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let eval = evaluate_inference(net, &plan, &chip, 1, &ModelConfig::default());
    let evaluate_ms = t1.elapsed().as_secs_f64() * 1e3;
    let corelets = total_corelets(&chip);
    let layer_cycles = net
        .layers
        .iter()
        .zip(&plan.layers)
        .map(|(l, lp)| {
            if l.op.is_compute() {
                map_layer(&l.op, lp.precision, 1, &chip.core.corelet, corelets).total_cycles()
            } else {
                0.0
            }
        })
        .collect();
    Planned {
        plan,
        layer_cycles,
        metrics: vec![
            ("compiler.compile.ms", compile_ms),
            ("model.evaluate.ms", evaluate_ms),
            ("model.chip_ms", eval.latency_s * 1e3),
        ],
    }
}

/// A seed for one tensor of one layer, mixed from the workload seed.
pub fn sub_seed(seed: u64, layer: usize, role: u64) -> u64 {
    rapid_telemetry::span::derive_trace_id(seed, (layer as u64) << 8 | role)
}

/// `op` with its spatial dimensions divided by `spatial` (never below the
/// kernel) and its channel and GEMM dimensions divided by `channels`
/// (never below 1). Auxiliary ops shrink by both factors. Depthwise convs,
/// which no measured network has, stay as they are.
pub fn shrink(op: &Op, spatial: u64, channels: u64) -> Op {
    let c = |x: u64| (x / channels).max(1);
    match *op {
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
        } => Op::Conv {
            ci: if ci <= 3 { ci } else { c(ci) },
            co: c(co),
            h: (h / spatial).max(kh),
            w: (w / spatial).max(kw),
            kh,
            kw,
            stride,
            pad_h,
            pad_w,
        },
        dw @ Op::DepthwiseConv { .. } => dw,
        Op::Gemm { m, k, n, weighted } => Op::Gemm {
            m,
            k: c(k),
            n: c(n),
            weighted,
        },
        Op::Aux {
            kind,
            elems,
            ops_per_elem,
        } => Op::Aux {
            kind,
            elems: (elems / (spatial * spatial * channels)).max(1),
            ops_per_elem,
        },
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed items of one phase.
#[derive(Debug, Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    /// Output fingerprint and counters of every item that succeeded.
    outs: Vec<(u64, ItemOut)>,
    failures: Vec<String>,
}

impl Phase {
    /// Runs items until `seconds` of item time have elapsed (at least
    /// `min_items`), one caller, each item starting when the last ended.
    fn run(
        w: &mut dyn Workload,
        tr: &mut Tracer,
        first_item: u64,
        seconds: f64,
        min_items: usize,
        class: &str,
    ) -> Self {
        let mut p = Phase::default();
        let budget = Duration::from_secs_f64(seconds);
        let started = Instant::now();
        let mut item = first_item;
        while p.latencies_ms.len() < min_items || started.elapsed() < budget {
            tr.begin_item(item);
            let t0 = Instant::now();
            let r = w.item(tr);
            let dt = t0.elapsed();
            tr.end_item(class);
            match r {
                Ok(out) => {
                    p.latencies_ms.push(dt.as_secs_f64() * 1e3);
                    p.outs.push((w.fingerprint(), out));
                }
                Err(e) => p.failures.push(format!("item {item}: {e}")),
            }
            item += 1;
            if p.failures.len() > 3 {
                break;
            }
        }
        p
    }

    fn attempted(&self) -> u64 {
        (self.latencies_ms.len() + self.failures.len()) as u64
    }
}

impl Report {
    /// Counts one check.
    fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Counts a phase's items and failures.
    fn absorb(&mut self, p: &Phase) {
        self.attempted += p.attempted();
        self.failed += p.failures.len() as u64;
        self.notes.extend(p.failures.iter().cloned());
    }
}

/// Median over items of the summed self time of `names`, in ms.
fn kind_ms(items: &[BTreeMap<&'static str, u64>], names: &[&str]) -> f64 {
    let per: Vec<f64> = items
        .iter()
        .map(|m| {
            names
                .iter()
                .map(|n| m.get(n).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e6
        })
        .collect();
    median(&per)
}

const GEMM_SPANS: [&str; 3] = [name::REF_FWD, name::REF_BWD_INPUT, name::REF_BWD_WEIGHT];

/// `work` per second of `ms`, in units of `per_s_unit`; 0 when nothing ran.
fn rate(work: f64, ms: f64, per_s_unit: f64) -> f64 {
    if ms > 0.0 {
        work / (ms / 1e3) / per_s_unit
    } else {
        0.0
    }
}

/// `part ÷ whole`, 0 when nothing ran.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A workload after set-up, with its warm-up item's fingerprint and
/// counters.
type Warm = (Box<dyn Workload>, Vec<f64>, (u64, ItemOut));

/// Sets the workload up [`SETUPS`] times, each through one warm-up item;
/// keeps the last and returns every set-up time.
fn set_up(cfg: &RunConfig) -> Result<Warm, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let mut w = build(&cfg.workload, cfg.seed, cfg.scale)?;
        let warm = w
            .item(&mut Tracer::new(false, cfg.seed))
            .map_err(|e| format!("warm-up item: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let fp = w.fingerprint();
        kept = Some((w, (fp, warm)));
    }
    let (w, warm) = kept.ok_or("no set-up ran")?;
    Ok((w, setup_s, warm))
}

/// Every repeat must match its reference: the warm-up for stateless
/// workloads; for stateful ones, item 0 must match the warm-up (both start
/// from the initial state) and the first items must repeat when replayed
/// from the rewound state.
fn check_repeats(
    rep: &mut Report,
    w: &mut dyn Workload,
    outs: &[(u64, ItemOut)],
    warm: &(u64, ItemOut),
    seed: u64,
) {
    if !w.stateful() {
        for (i, o) in outs.iter().enumerate() {
            rep.tally(o == warm, || format!("item {i} differs from the warm-up"));
        }
        return;
    }
    if let Some(first) = outs.first() {
        rep.tally(first == warm, || "item 0 differs from its warm-up".into());
    }
    w.rewind();
    for (i, (fp, out)) in outs.iter().take(2).enumerate() {
        let again = w.item(&mut Tracer::new(false, seed));
        let ok = again.is_ok_and(|o| o == *out) && w.fingerprint() == *fp;
        rep.tally(ok, || format!("item {i} does not repeat after rewind"));
    }
}

/// Runs one workload per `cfg` and returns its metrics.
///
/// # Errors
///
/// Set-up failures (unknown workload, a failed warm-up item). Failures
/// after set-up are counted in the report instead.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut rep = Report::default();
    let (mut w, setup_s, warm) = set_up(cfg)?;
    let gate = w.check();
    for f in &gate.failures {
        rep.notes.push(format!("check failed: {f}"));
    }
    rep.attempted += gate.attempted;
    rep.failed += gate.failures.len() as u64;
    w.rewind();

    // A traced run spends half its time untraced, as the baseline for the
    // tracing overhead, and half traced.
    let class = cfg.workload.as_str();
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let min_items = if cfg.scale == Scale::Tiny { 2 } else { 3 };
    let mut off = Tracer::new(false, cfg.seed);
    let base = Phase::run(w.as_mut(), &mut off, 0, seconds, min_items, class);
    let mut tr = Tracer::new(cfg.trace, cfg.seed);
    let traced = if cfg.trace {
        Phase::run(
            w.as_mut(),
            &mut tr,
            base.attempted(),
            seconds,
            min_items,
            class,
        )
    } else {
        Phase::default()
    };
    let extra = w.extra();
    let outs: Vec<(u64, ItemOut)> = base.outs.iter().chain(&traced.outs).cloned().collect();
    check_repeats(&mut rep, w.as_mut(), &outs, &warm, cfg.seed);
    rep.absorb(&base);
    rep.absorb(&traced);

    let lat = &base.latencies_ms;
    if cfg.trace {
        let overhead = median(&traced.latencies_ms) / median(lat) - 1.0;
        per_layer(&mut rep, cfg, w.as_mut(), &tr, &warm, extra);
        rep.put("trace.overhead_frac", overhead, "frac");
    } else {
        rep.put("setup_s", median(&setup_s), "s");
        rep.put("latency_ms.p50", median(lat), "ms");
        // Per median item, not per summed item time: a mean follows the
        // host's slow stretches, which move whole runs on a shared VM.
        rep.put(
            "gmacs_per_s",
            rate(warm.1.total_macs() as f64, median(lat), 1e9),
            "GMAC/s",
        );
        rep.put("peak_rss_mb", peak_rss_mb(), "MB");
        rep.put("sqnr_db.min", gate.sqnr_min, "dB");
        // The tail is printed, not gated: on a shared 2-vCPU VM it moves
        // with host contention far more than the median does.
        rep.notes.push(format!(
            "latency samples: {}, p90 {:.3} ms",
            lat.len(),
            percentile(lat, 0.9)
        ));
    }
    Ok(finish(rep))
}

/// The traced run's per-layer metrics: self time from the spans, a
/// pass at the other thread count, stage replays, and the workload's own clocks.
fn per_layer(
    rep: &mut Report,
    cfg: &RunConfig,
    w: &mut dyn Workload,
    tr: &Tracer,
    warm: &(u64, ItemOut),
    extra: Extra,
) {
    let out = &warm.1;
    rep.tally(
        rapid_telemetry::span::validate_forest(tr.spans()).is_ok(),
        || "span forest is not well nested".into(),
    );
    if tr.dropped() > 0 {
        rep.notes
            .push(format!("{} spans dropped past the sink cap", tr.dropped()));
    }
    if let Some(path) = &cfg.trace_path {
        rep.notes.push(match tr.write_trace(path, &cfg.workload) {
            Ok(()) => format!("perfetto trace: {}", path.display()),
            Err(e) => format!("cannot write trace {}: {e}", path.display()),
        });
    }
    let items = stats::self_time_per_root(tr.spans());
    let conv_ms = kind_ms(&items, &[name::CONV]);
    let gemv_ms = kind_ms(&items, &[name::GEMV]);
    let gemm_ms = kind_ms(&items, &GEMM_SPANS);
    let sfu_ms = kind_ms(&items, &[name::SFU]);
    let m = |s: &str| out.macs.get(s).copied().unwrap_or(0) as f64;
    let gemm_macs: f64 = GEMM_SPANS.iter().map(|s| m(s)).sum();

    // Other-thread pass: the same loop at 2 threads when the run uses 1
    // (at 1 when it uses more), for the 1- vs 2-thread speedup per op kind.
    let threads = std::env::var("RAPID_THREADS").unwrap_or_default();
    let single = threads.trim() == "1";
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let other = if single { nproc.min(2) } else { 1 };
    std::env::set_var("RAPID_THREADS", other.to_string());
    let mut tr_other = Tracer::new(true, cfg.seed ^ 1);
    let pass = Phase::run(
        w,
        &mut tr_other,
        0,
        (cfg.seconds / 10.0).min(2.0),
        1,
        &cfg.workload,
    );
    std::env::set_var("RAPID_THREADS", threads);
    rep.absorb(&pass);
    if !w.stateful() {
        // Thread count only partitions output rows: values must not move.
        for o in &pass.outs {
            rep.tally(o == warm, || {
                format!("{other}-thread item differs from the warm-up")
            });
        }
    }
    let other_items = stats::self_time_per_root(tr_other.spans());
    let speedup = |names: &[&str], run_ms: f64| {
        let other_ms = kind_ms(&other_items, names);
        if single {
            share(run_ms, other_ms)
        } else {
            share(other_ms, run_ms)
        }
    };

    let replays: Vec<Replay> = (0..3).map(|_| w.replay()).collect();
    let rmed = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let op_ns = (conv_ms + gemv_ms + gemm_ms) * 1e6;
    let (calls, stats) = replays[0].stats.unwrap_or((out.calls, out.stats));
    let sim_cycles = out.sim_cycles.values().sum::<u64>() as f64;
    let sim_ms = kind_ms(&items, &[name::SIM_CONV, name::SIM_GEMM]);

    rep.put("numerics.conv.ms", conv_ms, "ms");
    rep.put(
        "numerics.conv.gmacs_per_s",
        rate(m(name::CONV), conv_ms, 1e9),
        "GMAC/s",
    );
    rep.put("numerics.gemv.ms", gemv_ms, "ms");
    rep.put(
        "numerics.gemv.gmacs_per_s",
        rate(m(name::GEMV), gemv_ms, 1e9),
        "GMAC/s",
    );
    rep.put("numerics.gemm.ms", gemm_ms, "ms");
    rep.put(
        "numerics.gemm.gmacs_per_s",
        rate(gemm_macs, gemm_ms, 1e9),
        "GMAC/s",
    );
    rep.put("numerics.sfu.ms", sfu_ms, "ms");
    rep.put(
        "numerics.sfu.melems_per_s",
        rate(out.sfu_elems as f64, sfu_ms, 1e6),
        "Melem/s",
    );
    rep.put(
        "numerics.quantize_w.share",
        share(rmed(|r| r.quantize_w_ns), op_ns),
        "frac",
    );
    rep.put(
        "numerics.quantize_a.share",
        share(rmed(|r| r.quantize_a_ns), op_ns),
        "frac",
    );
    rep.put(
        "numerics.im2col.share",
        share(rmed(|r| r.im2col_ns), conv_ms * 1e6),
        "frac",
    );
    rep.put("numerics.calls", calls as f64, "count");
    rep.put("numerics.macs", stats.macs as f64, "count");
    rep.put("numerics.gated_frac", stats.gated_fraction(), "frac");
    rep.put(
        "numerics.speedup_2t.conv",
        speedup(&[name::CONV], conv_ms),
        "x",
    );
    rep.put(
        "numerics.speedup_2t.gemm",
        speedup(&GEMM_SPANS, gemm_ms),
        "x",
    );
    rep.put(
        "numerics.speedup_2t.gemv",
        speedup(&[name::GEMV], gemv_ms),
        "x",
    );
    rep.put("refnet.fwd.ms", kind_ms(&items, &[name::REF_FWD]), "ms");
    rep.put(
        "refnet.bwd_input.ms",
        kind_ms(&items, &[name::REF_BWD_INPUT]),
        "ms",
    );
    rep.put(
        "refnet.bwd_weight.ms",
        kind_ms(&items, &[name::REF_BWD_WEIGHT]),
        "ms",
    );
    rep.put("refnet.other.ms", kind_ms(&items, &[name::REF_OTHER]), "ms");
    rep.put("sim.conv.ms", kind_ms(&items, &[name::SIM_CONV]), "ms");
    rep.put("sim.gemm.ms", kind_ms(&items, &[name::SIM_GEMM]), "ms");
    rep.put("model.map.ms", kind_ms(&items, &[name::MODEL_MAP]), "ms");
    rep.put(
        "sim.cycles_per_host_s",
        rate(sim_cycles, sim_ms, 1.0),
        "cycles/s",
    );
    rep.put("sim.cycles", sim_cycles, "cycles");
    rep.put("model.cycles", out.model_cycles.values().sum(), "cycles");
    let mut extra: BTreeMap<&str, f64> = extra.into_iter().collect();
    for (key, unit) in EXTRA_KEYS {
        rep.put(key, extra.remove(key).unwrap_or(0.0), unit);
    }
    rep.put("trace.coverage", stats::coverage(tr.spans()), "frac");
    rep.notes.push(three_clock_table(&items, out));
}

/// Per-layer metrics a workload reports through [`Workload::extra`], with
/// units; absent ones read 0 (the layer does not run in that workload).
const EXTRA_KEYS: [(&str, &str); 10] = [
    ("compiler.compile.ms", "ms"),
    ("model.evaluate.ms", "ms"),
    ("model.chip_ms", "ms"),
    ("sim.stream_frac", "frac"),
    ("sim.starved_frac", "frac"),
    ("sim.weight_stalls", "cycles"),
    ("model_err.conv.max", "frac"),
    ("model_err.gemm.max", "frac"),
    ("model_err.p95", "frac"),
    ("refnet.loss_final", "nats"),
];

/// The traced run's per-layer table: host self time per item next to the
/// layer's MACs, modeled chip cycles and simulated cycles per item.
fn three_clock_table(items: &[BTreeMap<&'static str, u64>], warm: &ItemOut) -> String {
    let mut names: Vec<&str> = items.iter().flat_map(|m| m.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut out = format!(
        "per-layer self time per item over {} traced items\n{:<20} {:>12} {:>14} {:>14} {:>12}\n",
        items.len(),
        "layer",
        "host ms",
        "MACs",
        "model cycles",
        "sim cycles"
    );
    for n in names {
        out.push_str(&format!(
            "{n:<20} {:>12.3} {:>14} {:>14.0} {:>12}\n",
            kind_ms(items, &[n]),
            warm.macs.get(n).copied().unwrap_or(0),
            warm.model_cycles.get(n).copied().unwrap_or(0.0),
            warm.sim_cycles.get(n).copied().unwrap_or(0),
        ));
    }
    out
}

/// Counts any non-finite metric as a failure (and reports it as 0).
fn finish(mut rep: Report) -> Report {
    for m in &mut rep.metrics {
        if !m.value.is_finite() {
            rep.notes.push(format!("metric {} is not finite", m.name));
            rep.failed += 1;
            m.value = 0.0;
        }
    }
    rep
}
