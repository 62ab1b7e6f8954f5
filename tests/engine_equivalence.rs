//! Equivalence guarantee of the execution layer: under deterministic
//! termination the event-driven engine must reproduce the cycle-accurate
//! oracle's `RunReport` **bit for bit** — on every paper preset, on
//! randomly generated DAG schedules, and under cycle-budget truncation.
//!
//! This is the contract `streamgrid_sim::engine::event` is held to; any divergence here means a fast path changed semantics, not just
//! speed.

use proptest::prelude::*;
use streamgrid_core::framework::{ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::source::{ReplaySource, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::{DataflowGraph, Shape};
use streamgrid_optimizer::{edge_infos, optimize, plan_multi_chunk, OptimizeConfig};
use streamgrid_sim::{run_with, EnergyModel, EngineConfig, EngineMode};

/// Every registry preset, across chunk counts spanning warm-up-only runs
/// (1 chunk) to steady-state-dominated sweeps: both engines, one report.
#[test]
fn registry_presets_equivalent_across_chunk_counts() {
    let registry = PipelineRegistry::with_paper_apps();
    for spec in registry.specs() {
        for n_chunks in [1u64, 2, 4, 9, 16, 48] {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(
                n_chunks as u32,
                2,
            )));
            let compiled = fw
                .compile_spec(spec, n_chunks * 300)
                .expect("preset compiles");
            let oracle = compiled
                .execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate));
            let event = compiled
                .execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::EventDriven));
            assert_eq!(oracle.exec_mode, EngineMode::CycleAccurate);
            assert_eq!(event.exec_mode, EngineMode::EventDriven);
            assert_eq!(
                oracle.run,
                event.run,
                "{} at {} chunks: engines diverged",
                spec.name(),
                n_chunks
            );
            assert!(oracle.is_clean(), "{}: CS+DT must run clean", spec.name());
        }
    }
}

/// The `Auto` default picks the event engine for deterministic designs
/// and reproduces exactly what a stream forced onto the oracle (through
/// `StreamOptions::with_exec`) reports.
#[test]
fn auto_mode_is_equivalent_to_forced_oracle() {
    let registry = PipelineRegistry::with_paper_apps();
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(9, 2)));
    let sizes = [9 * 300];
    for spec in registry.specs() {
        let mut session = fw.session(spec.clone());
        let auto = session
            .stream(ReplaySource::new(&sizes), &StreamOptions::default())
            .expect("streams");
        let forced = StreamOptions::default()
            .with_exec(ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate));
        let oracle = session
            .stream(ReplaySource::new(&sizes), &forced)
            .expect("streams");
        let (auto, oracle) = (&auto.frames[0].report, &oracle.frames[0].report);
        assert_eq!(auto.exec_mode, EngineMode::EventDriven, "{}", spec.name());
        assert_eq!(
            oracle.exec_mode,
            EngineMode::CycleAccurate,
            "{}",
            spec.name()
        );
        assert_eq!(auto.run, oracle.run, "{}", spec.name());
    }
}

/// A random stage descriptor: (kind, points-per-burst, depth, reuse).
#[derive(Debug, Clone)]
enum StageKind {
    Map { shape: u32, depth: u32 },
    Stencil { reuse: u32, depth: u32 },
    Reduction { factor: u32, depth: u32 },
    Global { group: u32, freq: u32, depth: u32 },
}

fn arb_stage() -> impl Strategy<Value = StageKind> {
    prop_oneof![
        (1u32..4, 0u32..8).prop_map(|(shape, depth)| StageKind::Map { shape, depth }),
        (2u32..5, 0u32..6).prop_map(|(reuse, depth)| StageKind::Stencil { reuse, depth }),
        (2u32..8, 0u32..6).prop_map(|(factor, depth)| StageKind::Reduction { factor, depth }),
        (1u32..6, 1u32..8, 1u32..10).prop_map(|(group, freq, depth)| StageKind::Global {
            group,
            freq,
            depth
        }),
    ]
}

/// Builds a pipeline from random stages. `skip_from` (when in range)
/// adds a second consumer edge partway down the chain, turning the
/// pipeline into a genuine DAG: one producer fans out to the next stage
/// *and* to the final pre-sink stage, which then joins two streams of
/// different volumes.
fn build_pipeline(stages: &[StageKind], skip_from: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let attrs = 2u32;
    let mut prev = g.source("src", Shape::new(1, attrs), 1);
    let mut nodes = vec![prev];
    for (i, s) in stages.iter().enumerate() {
        let node = match *s {
            StageKind::Map { shape, depth } => g.map(
                &format!("map{i}"),
                Shape::new(1, attrs),
                Shape::new(shape, attrs),
                depth,
            ),
            StageKind::Stencil { reuse, depth } => g.stencil(
                &format!("stencil{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                (reuse, 1),
            ),
            StageKind::Reduction { factor, depth } => g.reduction(
                &format!("reduce{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                factor,
            ),
            StageKind::Global { group, freq, depth } => g.global_op(
                &format!("global{i}"),
                Shape::new(1, attrs),
                1,
                Shape::new(group, attrs),
                freq,
                (1, 1),
                depth,
            ),
        };
        g.connect(prev, node);
        prev = node;
        nodes.push(node);
    }
    let sink = g.sink("sink", Shape::new(1, attrs), 1);
    g.connect(prev, sink);
    // Optional fan-out: a mid-chain producer also feeds the last stage
    // directly (attrs are uniform, so the shapes always agree).
    if skip_from + 2 < nodes.len() {
        let from = nodes[skip_from];
        let to = *nodes.last().expect("nonempty");
        if !g.contains_edge(from, to) {
            g.connect(from, to);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random valid DAG schedules: whatever the oracle reports — clean,
    /// starved, overflowing, or truncated — the event engine reports the
    /// same bits.
    #[test]
    fn random_dag_schedules_run_identically_on_both_engines(
        stages in prop::collection::vec(arb_stage(), 1..6),
        skip_from in 0usize..6,
        chunk_points in 50u64..400,
        n_chunks in 1u64..13,
        budget_divisor in 1u64..5,
    ) {
        let g = build_pipeline(&stages, skip_from);
        prop_assume!(g.validate().is_ok());
        let elements = chunk_points * 2;
        let edges = edge_infos(&g, elements);
        prop_assume!(edges.iter().all(|e| e.volume > 0));
        let schedule = match optimize(&g, &OptimizeConfig::new(elements)) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("optimize failed: {e}"))),
        };
        let plan = plan_multi_chunk(&g, &edges);
        let energy = EnergyModel::default();
        let full = EngineConfig { n_chunks, ..EngineConfig::default() };
        let oracle = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                              EngineMode::CycleAccurate);
        let event = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                             EngineMode::EventDriven);
        prop_assert_eq!(&oracle, &event, "full-budget divergence");

        // Truncated runs must agree too: slice the budget to a fraction
        // of the observed run length.
        let truncated = EngineConfig {
            n_chunks,
            max_cycles: (oracle.cycles / budget_divisor).max(1),
            ..EngineConfig::default()
        };
        let oracle_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                                EngineMode::CycleAccurate);
        let event_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                               EngineMode::EventDriven);
        prop_assert_eq!(&oracle_t, &event_t, "truncated-budget divergence");
        if budget_divisor > 1 && oracle_t.overflow_edge.is_none() && oracle_t.cycles < oracle.cycles {
            prop_assert!(oracle_t.truncated, "partial run must be flagged");
        }
    }
}
