//! Regression and acceptance tests for the open pipeline API.
//!
//! Two pins from the redesign issue:
//! 1. the four Tbl. 2 presets, now expressed through the
//!    `PipelineBuilder`, must compile to byte-identical summaries vs the
//!    legacy hand-wired `dataflow_graph()` match (reconstructed verbatim
//!    below);
//! 2. an exact-bucketed `Session::stream` must perform exactly one ILP
//!    solve per distinct `(config, chunk_elements)` key, and its frame
//!    reports must equal fresh one-shot compile-then-execute calls.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, ExecutionReport, StreamGrid};
use streamgrid_core::pipeline::{CompileError, PipelineSpec};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::session::Session;
use streamgrid_core::source::{ReplaySource, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::{DataflowGraph, Shape};

/// The pre-redesign `dataflow_graph()` match, reproduced stage for stage
/// and edge for edge. If a preset ever drifts from this construction,
/// the summary comparison below catches it.
fn legacy_graph(domain: AppDomain) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    match domain {
        AppDomain::Classification => {
            let src = g.source("reader", Shape::new(1, 3), 1);
            let scale = g.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
            let rs = g.global_op(
                "range_search",
                Shape::new(1, 3),
                1,
                Shape::new(8, 3),
                8,
                (1, 1),
                8,
            );
            let mlp = g.map("group_mlp", Shape::new(1, 3), Shape::new(1, 16), 4);
            let pool = g.reduction("max_pool", Shape::new(1, 16), Shape::new(1, 16), 2, 8);
            let head = g.map("head_mlp", Shape::new(1, 16), Shape::new(1, 4), 6);
            let sink = g.sink("logits", Shape::new(1, 4), 1);
            g.connect(src, scale);
            g.connect(scale, rs);
            g.connect(rs, mlp);
            g.connect(mlp, pool);
            g.connect(pool, head);
            g.connect(head, sink);
        }
        AppDomain::Segmentation => {
            let src = g.source("reader", Shape::new(1, 3), 1);
            let scale = g.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
            let rs = g.global_op(
                "range_search",
                Shape::new(1, 3),
                1,
                Shape::new(8, 3),
                8,
                (1, 1),
                8,
            );
            let mlp = g.map("group_mlp", Shape::new(1, 3), Shape::new(1, 16), 4);
            let pool = g.reduction("max_pool", Shape::new(1, 16), Shape::new(1, 16), 2, 8);
            let fp = g.stencil(
                "feature_prop",
                Shape::new(1, 16),
                Shape::new(8, 8),
                4,
                (3, 1),
            );
            let head = g.map("point_head", Shape::new(1, 8), Shape::new(1, 4), 4);
            let sink = g.sink("labels", Shape::new(1, 4), 1);
            g.connect(src, scale);
            g.connect(scale, rs);
            g.connect(rs, mlp);
            g.connect(mlp, pool);
            g.connect(pool, fp);
            g.connect(fp, head);
            g.connect(head, sink);
        }
        AppDomain::Registration => {
            let src = g.source("scan_reader", Shape::new(1, 3), 1);
            let curv = g.stencil("curvature", Shape::new(1, 3), Shape::new(1, 4), 4, (11, 1));
            let select = g.reduction("feature_select", Shape::new(1, 4), Shape::new(1, 4), 2, 8);
            let knn = g.global_op(
                "knn_search",
                Shape::new(1, 4),
                1,
                Shape::new(2, 4),
                4,
                (1, 1),
                8,
            );
            let residual = g.map("residual", Shape::new(1, 4), Shape::new(1, 8), 4);
            let gn = g.reduction("gauss_newton", Shape::new(1, 8), Shape::new(6, 8), 8, 64);
            let sink = g.sink("pose", Shape::new(6, 8), 1);
            g.connect(src, curv);
            g.connect(curv, select);
            g.connect(select, knn);
            g.connect(knn, residual);
            g.connect(residual, gn);
            g.connect(gn, sink);
        }
        AppDomain::NeuralRendering => {
            let src = g.source("gaussian_reader", Shape::new(1, 8), 1);
            let project = g.map("project", Shape::new(1, 8), Shape::new(1, 6), 4);
            let sort = g.global_op(
                "depth_sort",
                Shape::new(1, 6),
                1,
                Shape::new(1, 6),
                1,
                (1, 1),
                16,
            );
            let raster = g.stencil("rasterize", Shape::new(1, 6), Shape::new(1, 3), 8, (2, 1));
            let sink = g.sink("framebuffer", Shape::new(1, 3), 1);
            g.connect(src, project);
            g.connect(project, sort);
            g.connect(sort, raster);
            g.connect(raster, sink);
        }
    }
    g
}

#[test]
fn presets_match_legacy_graphs_byte_for_byte() {
    for domain in AppDomain::ALL {
        let preset = domain.spec();
        let legacy = PipelineSpec::from_graph("legacy", legacy_graph(domain)).unwrap();
        // Same stages, parameters, and wiring…
        assert_eq!(
            preset.graph(),
            legacy.graph(),
            "{domain:?}: builder preset drifted from the legacy construction"
        );
        // …and identical compiled summaries under every variant.
        for config in [
            StreamGridConfig::base(),
            StreamGridConfig::cs(SplitConfig::linear(4, 2)),
            StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)),
            StreamGridConfig::cs_dt(SplitConfig::paper_cls()),
        ] {
            let fw = StreamGrid::new(config);
            // 3600 divides every chunking in play (1, 4, and 9 chunks).
            let elements = 3600;
            let new = fw.compile_spec(&preset, elements).unwrap().summary();
            let old = fw.compile_spec(&legacy, elements).unwrap().summary();
            assert_eq!(
                (new.onchip_bytes, new.total_cycles, new.constraints),
                (old.onchip_bytes, old.total_cycles, old.constraints),
                "{domain:?} under {config:?}"
            );
        }
    }
}

#[test]
fn session_batch_solves_once_per_distinct_key() {
    for domain in AppDomain::ALL {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
        let mut session = fw.session(domain.spec());
        // Four cloud sizes, three distinct chunkings (1200 repeats and
        // 1199 rounds up to the same 300-element chunks as 1200).
        let sizes = [4 * 300, 4 * 450, 4 * 600, 4 * 300 - 1];
        let batch = replay(&mut session, &sizes);
        assert_eq!(
            session.solver_invocations(),
            3,
            "{domain:?}: one ILP solve per distinct (config, chunk_elements) key"
        );
        // Batch reports equal fresh one-shot compile-then-execute calls.
        let spec = domain.spec();
        for (&total, report) in sizes.iter().zip(&batch) {
            let fresh = fw
                .compile_spec(&spec, total)
                .unwrap()
                .execute(&ExecuteOptions::for_spec(&spec));
            assert_eq!(report, &fresh, "{domain:?} at {total} elements");
        }
        // Re-running the whole batch performs zero additional solves.
        let again = replay(&mut session, &sizes);
        assert_eq!(batch, again);
        assert_eq!(session.solver_invocations(), 3, "{domain:?}");
    }
}

/// Streams `sizes` in order with exact bucketing; one report per size.
fn replay(session: &mut Session, sizes: &[u64]) -> Vec<ExecutionReport> {
    let stream = session
        .stream(ReplaySource::new(sizes), &StreamOptions::default())
        .unwrap();
    stream.frames.into_iter().map(|f| f.report).collect()
}

#[test]
fn builder_misuse_is_typed_not_panicking() {
    // Cycle.
    let mut b = PipelineSpec::builder("cycle");
    let src = b.source("src", Shape::new(1, 3), 1);
    let a = b.map("a", Shape::new(1, 3), Shape::new(1, 3), 1);
    let c = b.map("c", Shape::new(1, 3), Shape::new(1, 3), 1);
    let sink = b.sink("sink", Shape::new(1, 3), 1);
    b.connect(src, a)
        .connect(a, c)
        .connect(c, a)
        .connect(c, sink);
    assert!(matches!(b.build(), Err(CompileError::Graph(_))));

    // Shape mismatch between connected stages.
    let mut b = PipelineSpec::builder("mismatch");
    let src = b.source("src", Shape::new(1, 3), 1);
    let m = b.map("wide", Shape::new(1, 7), Shape::new(1, 7), 1);
    let sink = b.sink("sink", Shape::new(1, 7), 1);
    b.connect(src, m).connect(m, sink);
    assert!(matches!(b.build(), Err(CompileError::Graph(_))));

    // No source.
    let mut b = PipelineSpec::builder("no_source");
    let m = b.map("m", Shape::new(1, 3), Shape::new(1, 3), 1);
    let sink = b.sink("sink", Shape::new(1, 3), 1);
    b.connect(m, sink);
    assert_eq!(b.build().unwrap_err(), CompileError::NoSource);

    // No sink.
    let mut b = PipelineSpec::builder("no_sink");
    let src = b.source("src", Shape::new(1, 3), 1);
    let m = b.map("m", Shape::new(1, 3), Shape::new(1, 3), 1);
    b.connect(src, m);
    assert_eq!(b.build().unwrap_err(), CompileError::NoSink);

    // Duplicate registry names.
    let mut registry = PipelineRegistry::with_paper_apps();
    let clash = AppDomain::Classification.spec();
    assert_eq!(
        registry.register(clash).unwrap_err(),
        CompileError::DuplicateName("classification".into())
    );
}
