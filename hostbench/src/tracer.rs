//! Host-time spans around layer calls, recorded from outside the library.
//!
//! One root span per item (trace id `derive_trace_id(seed, item)`), one
//! child span per layer call, all in host nanoseconds since the run began.
//! When tracing is off no clock is read at all, so the untraced run times
//! the library alone.

use rapid_telemetry::span::{derive_trace_id, SpanContext, SpanRecord, SpanSink};
use rapid_telemetry::trace::TraceSink;
use std::time::Instant;

/// Span names, one per layer the benchmark times.
pub mod name {
    /// `numerics::gemm::conv2d_*`.
    pub const CONV: &str = "numerics.conv";
    /// `numerics::gemm::matmul_*` with one activation row.
    pub const GEMV: &str = "numerics.gemv";
    /// `numerics::sfu::*` and `Tensor::map` element-wise work.
    pub const SFU: &str = "numerics.sfu";
    /// `refnet::Hfp8Backend` forward GEMMs (Data × Data).
    pub const REF_FWD: &str = "refnet.fwd";
    /// `refnet::Hfp8Backend` input-gradient GEMMs (Error × Data).
    pub const REF_BWD_INPUT: &str = "refnet.bwd_input";
    /// `refnet::Hfp8Backend` weight-gradient GEMMs (Data × Error).
    pub const REF_BWD_WEIGHT: &str = "refnet.bwd_weight";
    /// `refnet::Mlp`'s own work between backend calls: bias, ReLU,
    /// transposes, loss and the SGD update.
    pub const REF_OTHER: &str = "refnet.other";
    /// `sim::conv::try_run_conv`.
    pub const SIM_CONV: &str = "sim.conv";
    /// `sim::CoreSim::try_run_gemm`.
    pub const SIM_GEMM: &str = "sim.gemm";
    /// `compiler::mapping::map_layer`.
    pub const MODEL_MAP: &str = "model.map";
    /// The root span of one item.
    pub const ITEM: &str = "item";
}

/// Span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    seed: u64,
    on: bool,
    sink: SpanSink,
    root: Option<(SpanContext, u64)>,
    last_end: u64,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a pass-through.
    pub fn new(on: bool, seed: u64) -> Self {
        Self {
            epoch: Instant::now(),
            seed,
            on,
            sink: SpanSink::new(),
            root: None,
            last_end: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of item `item`.
    pub fn begin_item(&mut self, item: u64) {
        if self.on {
            let ctx = self.sink.open_root(derive_trace_id(self.seed, item));
            self.last_end = self.now();
            self.root = Some((ctx, self.last_end));
        }
    }

    /// Closes the open item root, labelled with the workload name.
    pub fn end_item(&mut self, class: &str) {
        if let Some((ctx, start)) = self.root.take() {
            let end = self.now();
            self.sink.close_root(ctx, name::ITEM, class, start, end);
        }
    }

    /// Runs `f` inside a child span `name` of the open item.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.root {
            Some((ctx, _)) => {
                let start = self.now();
                let out = f();
                self.last_end = self.now();
                self.sink.child(ctx, name, start, self.last_end);
                out
            }
            None => f(),
        }
    }

    /// Records the time since the item's last span ended (or since it
    /// began) as span `name`: work a layer does between the calls that
    /// are timed one by one.
    pub fn gap(&mut self, name: &'static str) {
        if let Some((ctx, _)) = self.root {
            let end = self.now();
            self.sink.child(ctx, name, self.last_end, end);
            self.last_end = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[SpanRecord] {
        self.sink.spans()
    }

    /// Spans the sink refused past its cap.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped
    }

    /// Writes the spans as a Chrome/Perfetto trace, timestamps in µs.
    pub fn write_trace(&self, path: &std::path::Path, process: &str) -> std::io::Result<()> {
        let micros: Vec<SpanRecord> = self
            .spans()
            .iter()
            .map(|s| SpanRecord {
                start: s.start / 1000,
                end: s.end / 1000,
                ..s.clone()
            })
            .collect();
        let mut sink = TraceSink::new();
        rapid_telemetry::span::spans_to_trace(&micros, &mut sink, 1, "host", process);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        sink.write(path)
    }
}
