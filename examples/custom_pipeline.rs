//! A pipeline StreamGrid never shipped: voxel downsample → normal
//! estimation → kNN feature grouping, described through the open
//! builder interface, registered next to the paper presets, and
//! executed CS+DT clean over a batch of cloud sizes through one
//! session.
//!
//! Run with:
//! ```text
//! cargo run --example custom_pipeline
//! ```

use streamgrid_core::framework::StreamGrid;
use streamgrid_core::pipeline::{CompileError, PipelineSpec};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::source::{ReplaySource, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::Shape;

/// Voxel downsample (8:1 reduction) → surface-normal estimation (1×9
/// stencil over the voxel stream) → kNN grouping (global op) → feature
/// sink. Not one of the four Tbl. 2 apps — exactly the "any scenario"
/// case the Sec. 6 interface promises.
fn build_spec() -> Result<PipelineSpec, CompileError> {
    let mut b = PipelineSpec::builder("voxel_normals_knn");
    b.macs_per_element(96.0);
    let src = b.source("cloud_reader", Shape::new(1, 3), 1);
    // Keep one representative point per 8-point voxel.
    let voxel = b.reduction("voxel_downsample", Shape::new(1, 3), Shape::new(1, 3), 3, 8);
    // Normals from a 1×9 neighborhood of the voxel stream: xyz → xyz+n.
    let normals = b.stencil(
        "normal_estimation",
        Shape::new(1, 3),
        Shape::new(1, 6),
        5,
        (9, 1),
    );
    // kNN grouping over the normal-augmented stream (global-dependent).
    let knn = b.global_op(
        "knn_group",
        Shape::new(1, 6),
        1,
        Shape::new(4, 6),
        8,
        (1, 1),
        8,
    );
    let sink = b.sink("features", Shape::new(4, 6), 1);
    b.connect(src, voxel)
        .connect(voxel, normals)
        .connect(normals, knn)
        .connect(knn, sink);
    b.build()
}

fn main() {
    let spec = build_spec().expect("the custom pipeline validates");
    let mut registry = PipelineRegistry::with_paper_apps();
    registry
        .register(spec)
        .expect("the custom name is not taken");
    println!(
        "registry now holds {} pipelines: {}\n",
        registry.len(),
        registry.names().collect::<Vec<_>>().join(", ")
    );

    let spec = registry
        .resolve("voxel_normals_knn")
        .expect("just registered")
        .clone();
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(spec);

    // Three cloud sizes over one session: distinct chunkings compile
    // once, the repeated size is a pure cache hit.
    let sizes = [4 * 2048 * 3, 4 * 4096 * 3, 4 * 8192 * 3, 4 * 4096 * 3];
    let stream = session
        .stream(ReplaySource::new(&sizes), &StreamOptions::default())
        .expect("CS+DT compiles and runs");

    println!(
        "{:>14} {:>14} {:>12} {:>11} {:>9}",
        "elements", "on-chip bytes", "cycles", "mem stalls", "starved"
    );
    for frame in &stream.frames {
        let report = &frame.report;
        assert!(report.is_clean(), "CS+DT must run stall- and overflow-free");
        println!(
            "{:>14} {:>14} {:>12} {:>11} {:>9}",
            frame.frame.elements,
            report.onchip_bytes(),
            report.run.cycles,
            report.run.stall_cycles,
            report.run.starved_cycles,
        );
    }
    println!(
        "\n{} executions, {} ILP solves: the session cache amortizes the compile.",
        sizes.len(),
        session.solver_invocations()
    );
    println!("a pipeline the paper never shipped runs CS+DT clean through the open builder API.");
}
