//! Shared mutable execution state: stage bookkeeping, integer-exact rate
//! accumulators, and the single-cycle stepper that every engine drives.
//!
//! [`step_stage`] is the *only* place simulated work happens; the
//! cycle-accurate oracle calls it for every stage on every cycle
//! (through [`EngineState::step_cycle`]) and the event-driven engine for
//! the cycles it cannot prove uneventful. Keeping one stepper is what
//! makes the engines bit-identical by construction: the fast path never
//! re-implements semantics — it only skips provably-repeating spans.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use streamgrid_dataflow::{DataflowGraph, OpKind, Rate};
use streamgrid_optimizer::{EdgeInfo, MultiChunkPlan, Schedule};

use crate::dram::DramModel;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::linebuffer::LineBuffer;

use super::stats::RunReport;
use super::{BufferPolicy, EngineConfig, GlobalLatencyModel};

/// Integer-exact rational rate accumulator: emits `num/den` elements per
/// cycle on average, never fractionally. The rate is kept as
/// `quot + rem/den`, so a step is an add and a compare, not a division;
/// `acc` (always `< den`) is the remainder `k·num mod den` after `k`
/// steps.
#[derive(Debug, Clone)]
struct RateAcc {
    quot: u64,
    rem: u64,
    den: u64,
    acc: u64,
}

impl RateAcc {
    fn new(rate: Rate) -> Self {
        let num = rate.num().max(0) as u64;
        let den = rate.den().max(1) as u64;
        RateAcc {
            quot: num / den,
            rem: num % den,
            den,
            acc: 0,
        }
    }

    fn step(&mut self) -> u64 {
        self.acc += self.rem;
        if self.acc >= self.den {
            self.acc -= self.den;
            self.quot + 1
        } else {
            self.quot
        }
    }

    fn reset(&mut self) {
        self.acc = 0;
    }
}

/// Per-stage execution bookkeeping.
struct StageState {
    kind: OpKind,
    /// Pipeline depth: write-phase gate offset from the chunk issue.
    depth: u64,
    /// First-chunk issue cycle; chunk `c` issues at `start + c · II`.
    start: u64,
    in_edges: Vec<usize>,
    out_edges: Vec<usize>,
    read_acc: RateAcc,
    write_acc: RateAcc,
    /// Current chunk index (`n_chunks` = all chunks streamed).
    chunk: u64,
    /// Remaining elements to read (per in-edge) for the current chunk.
    read_remaining: Vec<u64>,
    /// Remaining elements to write (per out-edge).
    write_remaining: Vec<u64>,
    /// Elements read so far this chunk (max over in-edges).
    read_done: u64,
    /// Total to read this chunk (max over in-edges; 0 for sources).
    read_total: u64,
    /// Slowdown: stage advances only when `slow_acc` rolls over.
    slow_num: u64,
    slow_den: u64,
    slow_acc: u64,
}

impl StageState {
    fn issue(&self, chunk: u64, ii: u64) -> u64 {
        self.start + chunk * ii
    }

    fn active(&self, now: u64, n_chunks: u64, ii: u64) -> bool {
        self.chunk < n_chunks && now >= self.issue(self.chunk, ii)
    }

    fn chunk_done(&self) -> bool {
        self.read_remaining.iter().all(|&r| r == 0) && self.write_remaining.iter().all(|&w| w == 0)
    }

    /// Advances the slowdown accumulator; `true` when the stage may work
    /// this cycle.
    fn tick(&mut self) -> bool {
        self.slow_acc += self.slow_num;
        if self.slow_acc >= self.slow_den {
            self.slow_acc -= self.slow_den;
            true
        } else {
            false
        }
    }
}

/// Outcome of one stepped cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// The cycle completed; `now` advanced.
    Continue,
    /// A strict-mode overflow aborted the run mid-cycle (`now` frozen,
    /// matching the paper semantics of an unschedulable write).
    Overflow,
}

/// Per-cycle side effects a [`step_stage`] sweep accumulates. Flags are
/// per *cycle* (distinct-cycle stall/starve semantics); byte/element
/// tallies are deltas the caller folds into its monotone counters.
#[derive(Debug, Default)]
struct CycleAcct {
    stalled: bool,
    starved: bool,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    /// Source-stage DRAM reads (bytes) this cycle.
    dram_read_bytes: u64,
}

/// Steps one stage for cycle `now`: read phase, depth-gated write phase,
/// and chunk-completion check. The caller has already verified the stage
/// is [`StageState::active`] and [`StageState::tick`]ed. Returns the
/// overflowing edge when a strict-mode write does not fit — the caller
/// aborts the cycle mid-sweep with `now` frozen, dropping this stage's
/// per-stage stall/starve flags exactly as the pre-extraction stepper
/// did.
#[allow(clippy::too_many_arguments)]
fn step_stage(
    stage: &mut StageState,
    buffers: &mut [LineBuffer],
    now: u64,
    n_chunks: u64,
    ii: u64,
    edge_volume: &[u64],
    config: &EngineConfig,
    acct: &mut CycleAcct,
) -> Option<usize> {
    // Read phase.
    let mut stalled = false;
    let mut starved = false;
    if !stage.in_edges.is_empty() {
        let want = stage.read_acc.step();
        let mut max_read = 0u64;
        for slot in 0..stage.in_edges.len() {
            let e = stage.in_edges[slot];
            let need = want.min(stage.read_remaining[slot]);
            if need == 0 {
                continue;
            }
            let got = buffers[e].read(need);
            acct.sram_dynamic_bytes += got * config.bytes_per_element;
            stage.read_remaining[slot] -= got;
            max_read = max_read.max(got);
            // No data at all while work is pending: starvation (the
            // producer is slower or not yet scheduled) — not an on-chip
            // memory stall.
            if got == 0 && need > 0 {
                starved = true;
            }
        }
        stage.read_done += max_read;
    }
    // Sources are driven purely by the write phase below; each accepted
    // element is one DRAM read.
    // Write phase: gated on pipeline depth and read progress.
    if !stage.out_edges.is_empty() && now >= stage.issue(stage.chunk, ii) + stage.depth {
        let allowance = stage.write_acc.step();
        if allowance > 0 {
            // A stage cannot emit results for data it has not read: cap
            // cumulative output at the proportional share of input
            // consumed (sources are uncapped). The share rounds *up*:
            // the ILP's fluid occupancy model assumes writes track τ_out
            // continuously once the stage depth has elapsed, and
            // flooring here silently discards write allowance for
            // fractional-rate stages (e.g. a ×5 reduction emitting 2
            // elements per 5 cycles), delaying chunk completion past the
            // fluid finish time and overflowing exact-sized upstream
            // buffers in later chunks.
            for slot in 0..stage.out_edges.len() {
                let e = stage.out_edges[slot];
                let remaining = stage.write_remaining[slot];
                let want = allowance.min(remaining);
                if want == 0 {
                    continue;
                }
                let cap = if stage.read_total > 0 {
                    let vol = edge_volume[e] as u128;
                    let read_total = stage.read_total as u128;
                    let read_done = stage.read_done as u128;
                    let written = edge_volume[e] - remaining;
                    // ⌈read_done·vol/read_total⌉ ≥ written + want exactly
                    // when read_done·vol > (written + want − 1)·read_total:
                    // the cap does not bind, so skip the division.
                    if read_done * vol > (written + want - 1) as u128 * read_total {
                        want
                    } else {
                        let done_share = (read_done * vol).div_ceil(read_total) as u64;
                        done_share.saturating_sub(written)
                    }
                } else {
                    want
                };
                let n = want.min(cap);
                if n == 0 {
                    continue;
                }
                let space = buffers[e].free();
                let accepted = n.min(space);
                if accepted < n {
                    match config.buffer_policy {
                        BufferPolicy::Strict => return Some(e),
                        BufferPolicy::Elastic => {
                            if accepted == 0 {
                                stalled = true;
                            }
                        }
                    }
                }
                if accepted > 0 {
                    buffers[e].write(accepted).expect("space checked");
                    acct.sram_dynamic_bytes += accepted * config.bytes_per_element;
                    acct.compute_elements += accepted;
                    stage.write_remaining[slot] -= accepted;
                    if matches!(stage.kind, OpKind::Source) {
                        acct.dram_read_bytes += accepted * config.bytes_per_element;
                    }
                }
            }
        }
    }
    if stalled {
        acct.stalled = true;
    }
    if starved {
        acct.starved = true;
    }
    // Chunk completion.
    if stage.chunk_done() && stage.active(now, n_chunks, ii) {
        stage.chunk += 1;
        if stage.chunk < n_chunks {
            for slot in 0..stage.in_edges.len() {
                stage.read_remaining[slot] = edge_volume[stage.in_edges[slot]];
            }
            let write_total = stage
                .out_edges
                .iter()
                .map(|&e| edge_volume[e])
                .max()
                .unwrap_or(0);
            for w in stage.write_remaining.iter_mut() {
                *w = write_total;
            }
            stage.read_done = 0;
            stage.read_acc.reset();
            stage.write_acc.reset();
        }
    }
    None
}

/// Snapshot of everything the stepper's future depends on, with stage
/// chunk indices kept explicit so two snapshots one initiation interval
/// apart can be compared as a *shift*: identical phase state, every
/// chunk index advanced by exactly one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct StateKey {
    stages: Vec<StageSnap>,
    occupancy: Vec<u64>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StageSnap {
    chunk: u64,
    read_acc: u64,
    write_acc: u64,
    read_remaining: Vec<u64>,
    write_remaining: Vec<u64>,
    read_done: u64,
    slow_acc: u64,
}

impl StateKey {
    /// `true` when `cur` is exactly `prev` advanced by one chunk on every
    /// stage with all phase state (accumulators, remaining work, buffer
    /// occupancies) identical — the steady-state periodicity certificate.
    pub(super) fn is_period_shift_of(&self, prev: &StateKey) -> bool {
        self.occupancy == prev.occupancy
            && self.stages.len() == prev.stages.len()
            && self.stages.iter().zip(&prev.stages).all(|(c, p)| {
                c.chunk == p.chunk + 1
                    && c.read_acc == p.read_acc
                    && c.write_acc == p.write_acc
                    && c.read_remaining == p.read_remaining
                    && c.write_remaining == p.write_remaining
                    && c.read_done == p.read_done
                    && c.slow_acc == p.slow_acc
            })
    }
}

/// Monotone counters accumulated by the stepper. Snapshot two of these
/// one period apart and the difference is the per-period work the
/// event-driven engine extrapolates over skipped periods.
#[derive(Debug, Clone)]
pub(super) struct Counters {
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    stall_cycles: u64,
    starved_cycles: u64,
    dram_read_bytes: u64,
    buf_reads: Vec<u64>,
    buf_writes: Vec<u64>,
}

/// The full execution state shared by the cycle oracle and the
/// event-driven engine.
pub(super) struct EngineState {
    stages: Vec<StageState>,
    buffers: Vec<LineBuffer>,
    dram: DramModel,
    /// Stage visit order within a cycle: consumers before producers, so
    /// a same-cycle read frees the space a same-cycle write needs —
    /// matching the fluid simultaneity the ILP occupancy model assumes.
    order: Vec<usize>,
    /// Per-edge chunk volume (`W_P`), indexed like `buffers`.
    edge_volume: Vec<u64>,
    /// Edges draining into sinks (everything they consume goes to DRAM).
    sink_edges: Vec<usize>,
    ii: u64,
    n_chunks: u64,
    pub(super) now: u64,
    stall_cycles: u64,
    starved_cycles: u64,
    overflow_edge: Option<usize>,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
}

impl EngineState {
    /// Builds the initial state from a compiled design.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation or the schedule's dimensions
    /// do not match the graph.
    pub(super) fn new(
        graph: &DataflowGraph,
        edges: &[EdgeInfo],
        schedule: &Schedule,
        plan: &MultiChunkPlan,
        config: &EngineConfig,
    ) -> Self {
        graph.validate().expect("invalid graph");
        assert_eq!(schedule.start_cycles.len(), graph.node_count());
        assert_eq!(schedule.buffer_sizes.len(), edges.len());
        let n_chunks = config.n_chunks.max(1);
        let ii = plan.initiation_interval;

        let buffers: Vec<LineBuffer> = schedule
            .buffer_sizes
            .iter()
            .map(|&s| LineBuffer::new(s))
            .collect();
        let mut rng = match config.global_latency {
            GlobalLatencyModel::Variable { seed, .. } => SmallRng::seed_from_u64(seed),
            GlobalLatencyModel::Deterministic => SmallRng::seed_from_u64(0),
        };

        let mut stages: Vec<StageState> = Vec::with_capacity(graph.node_count());
        for (id, node) in graph.nodes() {
            let in_edges: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.consumer == id)
                .map(|(i, _)| i)
                .collect();
            let out_edges: Vec<usize> = edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.producer == id)
                .map(|(i, _)| i)
                .collect();
            // Rates, depths, and volumes come from the optimizer's
            // per-edge constants ([`EdgeInfo`]) — the engine no longer
            // re-derives them from Tbl. 1 parameters. All in-edges share
            // the consumer's τ_in and all out-edges the producer's τ_out
            // and depth, so the first edge of each list is authoritative.
            let read_rate = in_edges
                .first()
                .map(|&e| edges[e].tau_in_rate)
                .unwrap_or(Rate::ZERO);
            let write_rate = out_edges
                .first()
                .map(|&e| edges[e].tau_out_rate)
                .unwrap_or(Rate::ZERO);
            let depth = out_edges.first().map(|&e| edges[e].depth_p).unwrap_or(0);
            let read_total = in_edges.iter().map(|&e| edges[e].volume).max().unwrap_or(0);
            let write_total = out_edges
                .iter()
                .map(|&e| edges[e].volume)
                .max()
                .unwrap_or(0);
            // Variable latency: global stages run slower by a sampled
            // factor per run (slow_num/slow_den gate active cycles).
            let (slow_num, slow_den) = match (node.kind, config.global_latency) {
                (OpKind::GlobalOp, GlobalLatencyModel::Variable { cv, .. }) => {
                    // Sample factor ≥ 1 with the requested dispersion.
                    let u: f64 = rng.random_range(0.0..1.0);
                    let factor = 1.0 + cv * (-2.0 * (1.0 - u).max(1e-9).ln()).sqrt();
                    ((1000.0 / factor) as u64, 1000u64)
                }
                _ => (1, 1),
            };
            stages.push(StageState {
                kind: node.kind,
                depth,
                start: schedule.start_cycles[id.index()],
                read_acc: RateAcc::new(read_rate),
                write_acc: RateAcc::new(write_rate),
                chunk: 0,
                read_remaining: in_edges.iter().map(|&e| edges[e].volume).collect(),
                write_remaining: vec![write_total; out_edges.len()],
                in_edges,
                out_edges,
                read_done: 0,
                read_total,
                slow_num,
                slow_den,
                slow_acc: 0,
            });
        }

        let mut order: Vec<usize> = graph
            .topo_order()
            .expect("validated")
            .into_iter()
            .map(|id| id.index())
            .collect();
        order.reverse();

        let mut sink_edges = Vec::new();
        for (id, n) in graph.nodes() {
            if matches!(n.kind, OpKind::Sink) {
                for (i, e) in edges.iter().enumerate() {
                    if e.consumer == id {
                        sink_edges.push(i);
                    }
                }
            }
        }

        EngineState {
            stages,
            buffers,
            dram: DramModel::default(),
            order,
            edge_volume: edges.iter().map(|e| e.volume).collect(),
            sink_edges,
            ii,
            n_chunks,
            now: 0,
            stall_cycles: 0,
            starved_cycles: 0,
            overflow_edge: None,
            sram_dynamic_bytes: 0,
            compute_elements: 0,
        }
    }

    /// The plan's initiation interval (the steady-state period).
    pub(super) fn initiation_interval(&self) -> u64 {
        self.ii.max(1)
    }

    /// `true` while any stage still has chunks to stream.
    pub(super) fn any_incomplete(&self) -> bool {
        self.stages.iter().any(|s| s.chunk < self.n_chunks)
    }

    /// Simulates exactly one cycle: every stage (consumers first) runs
    /// its read phase, depth-gated write phase, and chunk-completion
    /// check. Stall/starve accounting is per *cycle*: a cycle in which at
    /// least one stage was write-blocked (resp. read-starved) adds one to
    /// the respective counter, however many stages were affected.
    pub(super) fn step_cycle(&mut self, config: &EngineConfig) -> Step {
        let now = self.now;
        let n_chunks = self.n_chunks;
        let ii = self.ii;
        let mut acct = CycleAcct::default();
        let mut overflow = false;
        let EngineState {
            stages,
            buffers,
            order,
            edge_volume,
            overflow_edge,
            ..
        } = self;
        for &si in order.iter() {
            let stage = &mut stages[si];
            if !stage.active(now, n_chunks, ii) {
                continue;
            }
            if !stage.tick() {
                acct.starved = true;
                continue;
            }
            if let Some(e) = step_stage(
                stage,
                buffers,
                now,
                n_chunks,
                ii,
                edge_volume,
                config,
                &mut acct,
            ) {
                if overflow_edge.is_none() {
                    *overflow_edge = Some(e);
                }
                overflow = true;
                break;
            }
        }
        self.sram_dynamic_bytes += acct.sram_dynamic_bytes;
        self.compute_elements += acct.compute_elements;
        if acct.dram_read_bytes > 0 {
            self.dram.read(acct.dram_read_bytes);
        }
        if acct.stalled {
            self.stall_cycles += 1;
        }
        if acct.starved {
            self.starved_cycles += 1;
        }
        if overflow {
            Step::Overflow
        } else {
            self.now += 1;
            Step::Continue
        }
    }

    /// When *no* stage can act at `now` (every incomplete stage is
    /// waiting for a future chunk issue), returns the earliest cycle one
    /// can. Until then nothing — reads, writes, accumulators, stall or
    /// starve tallies — can change, so `now` may jump straight there.
    pub(super) fn next_event_if_quiescent(&self) -> Option<u64> {
        let mut next = u64::MAX;
        for s in &self.stages {
            if s.chunk >= self.n_chunks {
                continue;
            }
            let issue = s.issue(s.chunk, self.ii);
            if self.now >= issue {
                return None; // this stage is active: the cycle is eventful
            }
            next = next.min(issue);
        }
        (next != u64::MAX).then_some(next)
    }

    /// Snapshot of the stepper's full forward-dependency state.
    pub(super) fn state_key(&self) -> StateKey {
        StateKey {
            stages: self
                .stages
                .iter()
                .map(|s| StageSnap {
                    chunk: s.chunk,
                    read_acc: s.read_acc.acc,
                    write_acc: s.write_acc.acc,
                    read_remaining: s.read_remaining.clone(),
                    write_remaining: s.write_remaining.clone(),
                    read_done: s.read_done,
                    slow_acc: s.slow_acc,
                })
                .collect(),
            occupancy: self.buffers.iter().map(|b| b.occupancy()).collect(),
        }
    }

    /// Snapshot of the monotone counters.
    pub(super) fn counters(&self) -> Counters {
        Counters {
            sram_dynamic_bytes: self.sram_dynamic_bytes,
            compute_elements: self.compute_elements,
            stall_cycles: self.stall_cycles,
            starved_cycles: self.starved_cycles,
            dram_read_bytes: self.dram.read_bytes(),
            buf_reads: self.buffers.iter().map(|b| b.total_reads()).collect(),
            buf_writes: self.buffers.iter().map(|b| b.total_writes()).collect(),
        }
    }

    /// Whole periods that can be skipped from `now` while the
    /// steady-state trace provably repeats: every stage must still have
    /// its current chunk *and* one more ahead of it (the final chunk's
    /// completion breaks the shift symmetry), and the cycle budget must
    /// not be crossed.
    pub(super) fn skippable_periods(&self, max_cycles: u64) -> u64 {
        if self.ii == 0 {
            // A degenerate hand-built plan (plan_multi_chunk never emits
            // II = 0) issues every chunk at once: "periods" do not
            // advance time, so skipping them would desynchronize chunk
            // indices from `now`. Step such runs cycle by cycle.
            return 0;
        }
        let by_chunks = self
            .stages
            .iter()
            .map(|s| (self.n_chunks - 1).saturating_sub(s.chunk))
            .min()
            .unwrap_or(0);
        let by_budget = max_cycles.saturating_sub(self.now) / self.ii;
        by_chunks.min(by_budget)
    }

    /// Advances the state by `periods` whole initiation intervals in
    /// closed form: `now` and every chunk index move forward, and each
    /// monotone counter grows by `periods ×` its observed per-period
    /// delta (`cur - prev`). Valid only when [`StateKey::is_period_shift_of`]
    /// certified that the trace repeats — phase state (accumulators,
    /// occupancies, remaining work) is then provably unchanged across the
    /// skipped span.
    pub(super) fn fast_forward_periods(&mut self, periods: u64, prev: &Counters, cur: &Counters) {
        debug_assert!(self.ii > 0, "skippable_periods gates out II = 0 plans");
        self.now += periods * self.ii;
        for s in &mut self.stages {
            s.chunk += periods;
        }
        self.sram_dynamic_bytes += periods * (cur.sram_dynamic_bytes - prev.sram_dynamic_bytes);
        self.compute_elements += periods * (cur.compute_elements - prev.compute_elements);
        self.stall_cycles += periods * (cur.stall_cycles - prev.stall_cycles);
        self.starved_cycles += periods * (cur.starved_cycles - prev.starved_cycles);
        self.dram
            .read(periods * (cur.dram_read_bytes - prev.dram_read_bytes));
        for (i, b) in self.buffers.iter_mut().enumerate() {
            b.fast_forward(
                periods * (cur.buf_reads[i] - prev.buf_reads[i]),
                periods * (cur.buf_writes[i] - prev.buf_writes[i]),
            );
        }
    }

    /// Assembles the [`RunReport`]: drains sink traffic to DRAM, totals
    /// the energy, and flags truncation (the cycle budget ran out with
    /// chunks still in flight and no overflow to blame).
    pub(super) fn finalize(
        mut self,
        energy_model: &EnergyModel,
        config: &EngineConfig,
    ) -> RunReport {
        let mut sink_bytes = 0u64;
        for &e in &self.sink_edges {
            sink_bytes += self.buffers[e].total_reads() * config.bytes_per_element;
        }
        self.dram.write(sink_bytes);

        let buffer_peaks: Vec<u64> = self.buffers.iter().map(|b| b.max_occupancy()).collect();
        let buffer_capacities: Vec<u64> = self.buffers.iter().map(|b| b.capacity()).collect();
        let total_capacity_bytes: u64 =
            buffer_capacities.iter().sum::<u64>() * config.bytes_per_element;

        let macs = (self.compute_elements as f64 * config.macs_per_element) as u64;
        // Each MAC fetches ~2 operand bytes from on-chip SRAM; this
        // operand traffic is what couples buffer capacity to energy.
        let operand_bytes = macs * 2;
        let energy = EnergyBreakdown {
            sram_pj: energy_model.sram_access_pj(
                self.sram_dynamic_bytes + operand_bytes,
                total_capacity_bytes.max(1024),
            ) + energy_model.sram_leak_pj(total_capacity_bytes, self.now),
            dram_pj: energy_model.dram_pj(self.dram.total_bytes()),
            compute_pj: energy_model.compute_pj(macs, self.compute_elements),
        };

        let truncated = self.any_incomplete() && self.overflow_edge.is_none();
        RunReport {
            cycles: self.now,
            buffer_peaks,
            buffer_capacities,
            overflow_edge: self.overflow_edge,
            truncated,
            stall_cycles: self.stall_cycles,
            starved_cycles: self.starved_cycles,
            dram_read_bytes: self.dram.read_bytes(),
            dram_write_bytes: self.dram.write_bytes(),
            energy,
        }
    }
}
