//! The corelet's systolic MPE array as a functional, cycle-tracked state
//! machine.
//!
//! The array executes the weight-stationary dataflow of Fig 5 one
//! (co-tile, ci-block) stationary block at a time:
//!
//! 1. **BlockLoad** — pull the block's weights from the weight link into
//!    the LRFs (the array is occupied, as with the `BlockLoad` MPE
//!    instruction);
//! 2. **Fill** — systolic pipeline fill (`rows + cols` cycles);
//! 3. **Stream** — consume input positions from the input link at up to
//!    `ci_tile(precision)` elements/cycle, issuing the FMMA work
//!    functionally through the `rapid-numerics` pipelines (chunk-based
//!    accumulation, zero-gating);
//! 4. signal the weight sequencer (token) so the next block may load.
//!
//! The FXU datapath works on codes, as the hardware's LRFs hold them: a
//! block's weights are quantized once when its load completes, each input
//! element once when its position issues, and a position's MACs add
//! `code_a · code_row` into contiguous lanes.
//!
//! Values are checked against reference GEMMs in the driver's tests; the
//! cycle counts are what the calibration experiment (E9) compares with the
//! analytical model.

use crate::error::SimError;
use crate::seq::Link;
use crate::token::TokenFile;
use rapid_arch::geometry::CoreletConfig;
use rapid_arch::precision::Precision;
use rapid_numerics::accumulate::ChunkAccumulator;
use rapid_numerics::dispatch::{simd_inner, SimdMode};
use rapid_numerics::fma::FmaMode;
use rapid_numerics::int::QuantParams;

/// Token the array signals when a stationary block has fully streamed and
/// its LRF may be overwritten.
pub const TOKEN_BLOCK_FREE: u8 = 0;

/// How the array's datapath computes (which pipeline + quantizers).
#[derive(Debug, Clone)]
pub enum Datapath {
    /// FPU pipeline (FP16 or HFP8); operands are already exact members of
    /// the mode's formats.
    Float {
        /// FMA mode (fixes operand formats and sub-SIMD factor).
        mode: FmaMode,
    },
    /// FXU pipeline: INT4/INT2 codes with INT16-chunk accumulation.
    Int {
        /// Input-activation quantization.
        qa: QuantParams,
        /// Weight quantization.
        qb: QuantParams,
    },
}

/// MACs per FXU INT16 chunk register before it flushes into the outer
/// accumulator.
const INT_CHUNK: u64 = 64;

/// One output tile's accumulators.
#[derive(Debug)]
enum AccBank {
    Float(Vec<ChunkAccumulator>),
    Int(IntBank),
}

/// The FXU accumulators of one output tile: one lane per (position,
/// column), row-major by position. `chunk` holds each output's INT16
/// chunk register as an i32 lane and flushes into the i64 `outer` lane
/// every [`INT_CHUNK`] MACs, where the hardware register flushes. The
/// register never saturates: a product of two codes is at most 15·15 =
/// 225 in magnitude, so a chunk sums to at most 64·225 = 14 400 < 32 767,
/// and the i32 lane holds exactly the register's value.
#[derive(Debug)]
struct IntBank {
    chunk: Vec<i32>,
    outer: Vec<i64>,
    /// Zero-gated MACs of this tile so far.
    gated: u64,
    /// Output scale, `scale(a) · scale(b)`.
    scale: f32,
}

/// Phase of the block state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    BlockLoad,
    Fill(u64),
    Stream,
    Done,
}

/// Static description of the GEMM the array runs: `C[M,N] = A[M,K]×B[K,N]`
/// restricted to this corelet's share of output tiles.
#[derive(Debug, Clone)]
pub struct ArrayJob {
    /// Stream positions (rows of A).
    pub m: u64,
    /// Reduction length.
    pub k: u64,
    /// Output-column tiles owned by this corelet: `(col_start, width)`.
    pub tiles: Vec<(u64, u64)>,
    /// Execution precision.
    pub precision: Precision,
}

/// The corelet MPE array simulator.
#[derive(Debug)]
pub struct MpeArray {
    cfg: CoreletConfig,
    job: ArrayJob,
    datapath: Datapath,
    // Iteration state.
    tile_idx: usize,
    block_idx: u64,
    n_blocks: u64,
    phase: Phase,
    // Current stationary block.
    lrf: Vec<f32>, // [ci_b × tile_width], row-major by ci
    lrf_filled: u64,
    // INT datapath: the block's weight codes and zero codes per LRF row.
    lrf_codes: Vec<i8>,
    row_zeros: Vec<u64>,
    // Current streaming position (and its input codes on the INT path).
    pos: u64,
    pos_buf: Vec<f32>,
    pos_codes: Vec<i8>,
    // Vectorization of the INT inner loop (values never depend on it).
    simd: SimdMode,
    // Per-(position, col) accumulators for the current tile.
    acc: Option<AccBank>,
    /// Completed outputs: `(row, col, value)` triples.
    pub outputs: Vec<(u64, u64, f32)>,
    /// Cycles spent per phase: `[blockload, fill, stream, starved]`.
    pub phase_cycles: [u64; 4],
    /// MACs actually issued (zero-gated included).
    pub macs: u64,
    /// Zero-gated MACs.
    pub zero_gated: u64,
}

impl MpeArray {
    /// Creates the array for a job on this corelet.
    ///
    /// # Panics
    ///
    /// Panics if the job has no tiles or a zero reduction. Use
    /// [`MpeArray::try_new`] for a structured error instead.
    // Infallible wrapper: the only failure is the validated job shape.
    #[allow(clippy::expect_used)]
    pub fn new(cfg: CoreletConfig, job: ArrayJob, datapath: Datapath) -> Self {
        Self::try_new(cfg, job, datapath).expect("invalid array job")
    }

    /// [`MpeArray::new`] that rejects structurally invalid jobs (no tiles,
    /// zero reduction, or no stream positions) with
    /// [`SimError::InvalidConfig`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn try_new(
        cfg: CoreletConfig,
        job: ArrayJob,
        datapath: Datapath,
    ) -> Result<Self, SimError> {
        if job.tiles.is_empty() {
            return Err(SimError::InvalidConfig("job must own at least one tile".to_string()));
        }
        if job.k == 0 || job.m == 0 {
            return Err(SimError::InvalidConfig(format!(
                "degenerate GEMM: m = {}, k = {}",
                job.m, job.k
            )));
        }
        let ci_lrf = u64::from(cfg.ci_lrf_max(job.precision));
        let n_blocks = job.k.div_ceil(ci_lrf);
        let mut array = Self {
            cfg,
            job,
            datapath,
            tile_idx: 0,
            block_idx: 0,
            n_blocks,
            phase: Phase::BlockLoad,
            lrf: Vec::new(),
            lrf_filled: 0,
            lrf_codes: Vec::new(),
            row_zeros: Vec::new(),
            pos: 0,
            pos_buf: Vec::new(),
            pos_codes: Vec::new(),
            simd: SimdMode::from_env(),
            acc: None,
            outputs: Vec::new(),
            phase_cycles: [0; 4],
            macs: 0,
            zero_gated: 0,
        };
        array.start_tile();
        Ok(array)
    }

    fn ci_lrf(&self) -> u64 {
        u64::from(self.cfg.ci_lrf_max(self.job.precision))
    }

    /// Reduction depth of the current block.
    fn block_ci(&self) -> u64 {
        let ci_lrf = self.ci_lrf();
        let start = self.block_idx * ci_lrf;
        (self.job.k - start).min(ci_lrf)
    }

    fn tile_width(&self) -> u64 {
        self.job.tiles[self.tile_idx].1
    }

    fn start_tile(&mut self) {
        let w = (self.tile_width() * self.job.m) as usize;
        self.acc = Some(match &self.datapath {
            Datapath::Float { mode } => AccBank::Float(
                (0..w).map(|_| ChunkAccumulator::new(*mode, self.ci_lrf() as usize)).collect(),
            ),
            Datapath::Int { qa, qb } => AccBank::Int(IntBank {
                chunk: vec![0; w],
                outer: vec![0; w],
                gated: 0,
                scale: qa.scale() * qb.scale(),
            }),
        });
        self.block_idx = 0;
        self.begin_block();
    }

    fn begin_block(&mut self) {
        self.lrf.clear();
        self.lrf_filled = 0;
        self.pos = 0;
        self.pos_buf.clear();
        self.phase = Phase::BlockLoad;
    }

    /// Whether the whole job completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Total cycles the array has been ticked.
    pub fn total_cycles(&self) -> u64 {
        self.phase_cycles.iter().sum()
    }

    /// A composite counter that changes whenever the array makes forward
    /// progress, for watchdog change-detection. Deliberately excludes the
    /// block-load and starvation cycle counters, which tick even when the
    /// array is wedged waiting on data that will never arrive.
    pub fn progress_marker(&self) -> u64 {
        self.macs
            .wrapping_add(self.outputs.len() as u64)
            .wrapping_add(self.lrf_filled)
            .wrapping_add(self.pos)
            .wrapping_add(self.pos_buf.len() as u64)
            .wrapping_add(self.block_idx)
            .wrapping_add(self.tile_idx as u64)
            .wrapping_add(self.phase_cycles[1])
            .wrapping_add(self.phase_cycles[2])
    }

    /// One cycle: consumes from the weight/input links per the phase.
    pub fn tick(&mut self, weights: &mut Link, inputs: &mut Link, tokens: &mut TokenFile) {
        match self.phase {
            Phase::Done => {}
            Phase::BlockLoad => {
                self.phase_cycles[0] += 1;
                // The LRF write port absorbs up to one L1 port's worth of
                // weights per cycle; the weight link is already
                // budget-limited, so drain whatever arrived.
                let need = self.block_ci() * self.tile_width();
                let room = (need - self.lrf_filled) as usize;
                self.lrf_filled += weights.pop_into(&mut self.lrf, room) as u64;
                if self.lrf_filled == need {
                    if let Datapath::Int { qb, .. } = &self.datapath {
                        qb.quantize_codes_into(&self.lrf, &mut self.lrf_codes, self.simd);
                        let w = self.tile_width() as usize;
                        self.row_zeros.clear();
                        self.row_zeros.extend(self.lrf_codes.chunks_exact(w).map(count_zero_codes));
                    }
                    self.phase = Phase::Fill(self.cfg.pipeline_fill_cycles());
                }
            }
            Phase::Fill(n) => {
                self.phase_cycles[1] += 1;
                self.phase = if n <= 1 { Phase::Stream } else { Phase::Fill(n - 1) };
            }
            Phase::Stream => {
                // Per cycle the rows accept up to ci_tile input elements.
                let ci_cyc = self.cfg.ci_tile(self.job.precision) as usize;
                let need = self.block_ci() as usize;
                let room = ci_cyc.min(need - self.pos_buf.len());
                let taken = inputs.pop_into(&mut self.pos_buf, room);
                if taken == 0 && self.pos_buf.len() < need {
                    self.phase_cycles[3] += 1; // starved on inputs
                    return;
                }
                self.phase_cycles[2] += 1;
                if self.pos_buf.len() == need {
                    self.issue_position();
                    self.pos_buf.clear();
                    self.pos += 1;
                    if self.pos == self.job.m {
                        self.finish_block(tokens);
                    }
                }
            }
        }
    }

    /// Issues the FMMA work of one completed input position against the
    /// stationary block.
    // The accumulator bank invariantly exists between start_tile and
    // finish_block; a violation is a simulator bug, not a runtime input.
    #[allow(clippy::expect_used)]
    fn issue_position(&mut self) {
        let w = self.tile_width() as usize;
        let base = (self.pos as usize) * w;
        let mac0 = self.block_idx * self.ci_lrf();
        let acc = self.acc.as_mut().expect("tile accumulators exist");
        match (acc, &self.datapath) {
            (AccBank::Float(bank), Datapath::Float { .. }) => {
                for (ci, &a) in self.pos_buf.iter().enumerate() {
                    let row = &self.lrf[ci * w..(ci + 1) * w];
                    for (c, &b) in row.iter().enumerate() {
                        bank[base + c].mac(a, b);
                    }
                }
                self.macs += (self.pos_buf.len() * w) as u64;
            }
            (AccBank::Int(bank), Datapath::Int { qa, .. }) => {
                qa.quantize_codes_into(&self.pos_buf, &mut self.pos_codes, self.simd);
                let step = IntStep {
                    codes: &self.pos_codes,
                    lrf: &self.lrf_codes,
                    row_zeros: &self.row_zeros,
                    mac0,
                };
                let lanes = base..base + w;
                bank.gated += int_position(
                    step,
                    &mut bank.chunk[lanes.clone()],
                    &mut bank.outer[lanes],
                    self.simd,
                );
                self.macs += (self.pos_buf.len() * w) as u64;
            }
            _ => unreachable!("datapath/accumulator banks always match"),
        }
    }

    // Same invariant as issue_position: the bank exists and is m*w long.
    #[allow(clippy::expect_used)]
    fn finish_block(&mut self, tokens: &mut TokenFile) {
        tokens.signal(TOKEN_BLOCK_FREE);
        self.block_idx += 1;
        if self.block_idx < self.n_blocks {
            self.begin_block();
            return;
        }
        // Tile complete: drain accumulators to the output stream.
        let (col_start, w) = self.job.tiles[self.tile_idx];
        let acc = self.acc.take().expect("tile accumulators exist");
        match acc {
            AccBank::Float(bank) => {
                let mut it = bank.into_iter();
                for r in 0..self.job.m {
                    for c in 0..w {
                        let a = it.next().expect("bank sized m*w");
                        // Gating statistics accumulate per tile.
                        self.zero_gated += a.zero_gated();
                        self.outputs.push((r, col_start + c, a.finish()));
                    }
                }
            }
            AccBank::Int(bank) => {
                self.zero_gated += bank.gated;
                let mut it = bank.outer.iter().zip(&bank.chunk);
                for r in 0..self.job.m {
                    for c in 0..w {
                        let (&outer, &chunk) = it.next().expect("bank sized m*w");
                        let v = (outer + i64::from(chunk)) as f32 * bank.scale;
                        self.outputs.push((r, col_start + c, v));
                    }
                }
            }
        }
        self.tile_idx += 1;
        if self.tile_idx == self.job.tiles.len() {
            self.phase = Phase::Done;
        } else {
            self.start_tile();
        }
    }
}

/// Zero codes in one LRF row.
fn count_zero_codes(row: &[i8]) -> u64 {
    row.iter().filter(|&&c| c == 0).count() as u64
}

/// One input position's reduction against the stationary INT block.
#[derive(Debug, Clone, Copy)]
struct IntStep<'a> {
    /// Input codes, one per LRF row.
    codes: &'a [i8],
    /// Weight codes `[rows × w]`, row-major.
    lrf: &'a [i8],
    /// Zero codes per LRF row.
    row_zeros: &'a [u64],
    /// MACs each output of the tile had before this block.
    mac0: u64,
}

/// Adds one position's MACs into its `w` output lanes and returns how many
/// were zero-gated: a MAC is gated when either code is zero, so LRF row
/// `ci` gates all `w` MACs when its input code is zero and `zeros(ci)`
/// otherwise. The lanes flush when each output's MAC count `mac0 + ci + 1`
/// reaches a multiple of [`INT_CHUNK`]. The body is compiled twice —
/// baseline and an AVX2 clone — and `simd` picks one; the sums are exact
/// integers, so both give the same lanes.
fn int_position(step: IntStep<'_>, chunk: &mut [i32], outer: &mut [i64], simd: SimdMode) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if simd_inner(simd) {
        // SAFETY: `simd_inner` is true only when AVX2 is available.
        return unsafe { int_position_avx2(step, chunk, outer) };
    }
    int_position_body(step, chunk, outer)
}

/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int_position_avx2(step: IntStep<'_>, chunk: &mut [i32], outer: &mut [i64]) -> u64 {
    int_position_body(step, chunk, outer)
}

#[inline(always)]
fn int_position_body(step: IntStep<'_>, chunk: &mut [i32], outer: &mut [i64]) -> u64 {
    let w = chunk.len();
    let mut gated = 0;
    for (ci, (&ca, row)) in step.codes.iter().zip(step.lrf.chunks_exact(w)).enumerate() {
        if ca == 0 {
            gated += w as u64;
        } else {
            gated += step.row_zeros[ci];
            let a = i32::from(ca);
            for (s, &b) in chunk.iter_mut().zip(row) {
                *s += a * i32::from(b);
            }
        }
        if (step.mac0 + ci as u64 + 1).is_multiple_of(INT_CHUNK) {
            for (o, s) in outer.iter_mut().zip(chunk.iter_mut()) {
                *o += i64::from(*s);
                *s = 0;
            }
        }
    }
    gated
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn drive(
        array: &mut MpeArray,
        weights: &mut Link,
        inputs: &mut Link,
        feed: impl Fn(u64) -> (Vec<f32>, Vec<f32>),
    ) -> u64 {
        // Test harness: refill links greedily each cycle from the feed
        // closure (cycle -> (weight elems, input elems) to offer).
        let mut tokens = TokenFile::new(2);
        let mut cycle = 0u64;
        while !array.is_done() {
            let (ws, is) = feed(cycle);
            for w in ws {
                let _ = weights.push(w);
            }
            for i in is {
                let _ = inputs.push(i);
            }
            array.tick(weights, inputs, &mut tokens);
            cycle += 1;
            assert!(cycle < 1_000_000, "array did not finish");
        }
        cycle
    }

    #[test]
    fn tiny_fp16_gemm_is_exact() {
        // 2×2 GEMM with one tile of width 2, k=2.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 2, k: 2, tiles: vec![(0, 2)], precision: Precision::Fp16 };
        let a = [[1.0f32, 2.0], [3.0, 4.0]]; // [m][k]
        let b = [[5.0f32, 6.0], [7.0, 8.0]]; // [k][n]
        let mut array = MpeArray::new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 });
        let mut wl = Link::new(1024);
        let mut il = Link::new(1024);
        // Weights stream ci-major: row ci=0 (cols), row ci=1.
        for row in &b {
            for &v in row {
                wl.push(v);
            }
        }
        // Inputs: position 0 (k elems), position 1.
        for row in &a {
            for &v in row {
                il.push(v);
            }
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        let mut c = [[0.0f32; 2]; 2];
        for &(r, cc, v) in &array.outputs {
            c[r as usize][cc as usize] = v;
        }
        assert_eq!(c, [[19.0, 22.0], [43.0, 50.0]]);
        assert_eq!(array.macs, 8);
    }

    #[test]
    fn stream_rate_matches_ci_tile() {
        // k = 64 at FP16: 8 elems/cycle -> 8 stream cycles per position.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 4, k: 64, tiles: vec![(0, 8)], precision: Precision::Fp16 };
        let mut array = MpeArray::new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 });
        let mut wl = Link::new(4096);
        let mut il = Link::new(4096);
        for _ in 0..64 * 8 {
            wl.push(0.5);
        }
        for _ in 0..4 * 64 {
            il.push(1.0);
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        // 4 positions × ceil(64/8) = 32 stream cycles.
        assert_eq!(array.phase_cycles[2], 32);
        for &(_, _, v) in &array.outputs {
            assert_eq!(v, 32.0); // 64 × 0.5
        }
    }

    #[test]
    fn starved_inputs_are_counted() {
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 1, k: 8, tiles: vec![(0, 1)], precision: Precision::Fp16 };
        let mut array = MpeArray::new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 });
        let mut wl = Link::new(64);
        let mut il = Link::new(64);
        for _ in 0..8 {
            wl.push(1.0);
        }
        // Deliver inputs 1 element every fourth cycle — slower than the
        // block-load + fill phases can buffer ahead.
        let cycles = drive(&mut array, &mut wl, &mut il, |c| {
            if c % 4 == 0 {
                (vec![], vec![1.0])
            } else {
                (vec![], vec![])
            }
        });
        assert!(array.phase_cycles[3] > 0, "starvation must be visible");
        assert!(cycles > 8);
        assert_eq!(array.outputs[0].2, 8.0);
    }

    #[test]
    fn int4_datapath_quantizes_and_scales() {
        use rapid_numerics::int::{IntFormat, Signedness};
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 1, k: 4, tiles: vec![(0, 2)], precision: Precision::Int4 };
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 7.0);
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 7.0);
        let mut array = MpeArray::new(cfg, job, Datapath::Int { qa, qb });
        let mut wl = Link::new(64);
        let mut il = Link::new(64);
        // b rows (k=4, n=2): all ones; a: [1, 2, 3, 4].
        for _ in 0..4 {
            wl.push(1.0);
            wl.push(2.0);
        }
        for v in [1.0, 2.0, 3.0, 4.0] {
            il.push(v);
        }
        drive(&mut array, &mut wl, &mut il, |_| (vec![], vec![]));
        // Exact: col0 = 10, col1 = 20 (all values on the integer grid).
        assert_eq!(array.outputs[0].2, 10.0);
        assert_eq!(array.outputs[1].2, 20.0);
    }

    #[test]
    fn multi_block_reduction_signals_tokens() {
        // k = 300 at FP16 (LRF depth 128): 3 blocks -> 3 block-free tokens.
        let cfg = CoreletConfig::default();
        let job = ArrayJob { m: 2, k: 300, tiles: vec![(0, 4)], precision: Precision::Fp16 };
        let mut array = MpeArray::new(cfg, job, Datapath::Float { mode: FmaMode::Fp16 });
        let mut wl = Link::new(8192);
        let mut il = Link::new(8192);
        let mut tokens = TokenFile::new(2);
        for _ in 0..300 * 4 {
            wl.push(0.25);
        }
        for _ in 0..2 * 300 {
            il.push(2.0);
        }
        let mut guard = 0;
        while !array.is_done() {
            array.tick(&mut wl, &mut il, &mut tokens);
            guard += 1;
            assert!(guard < 100_000);
        }
        assert_eq!(tokens.value(TOKEN_BLOCK_FREE), 3);
        // 300 × 0.25 × 2 = 150, exactly representable.
        assert_eq!(array.outputs[0].2, 150.0);
    }
}
