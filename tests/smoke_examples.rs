//! Smoke tests: each `examples/` main path exercised as library calls.
//!
//! Every example must keep working as the workspace grows, but examples
//! are binaries and never run under `cargo test`. These tests replay
//! each example's flow at reduced scale and assert the outputs are
//! finite and non-degenerate, so a regression in any example's path
//! fails the tier-1 suite instead of being discovered by hand.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::pipeline::PipelineSpec;
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::source::{DatasetSource, ReplaySource, SizeBucketing, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::Shape;
use streamgrid_nn::pointnet::ClsNet;
use streamgrid_nn::sampling::SearchMode;
use streamgrid_nn::train::{eval_classifier, train_classifier, ClsSample, TrainConfig};
use streamgrid_pointcloud::datasets::gaussians::{generate, SceneKind};
use streamgrid_pointcloud::datasets::lidar::{trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::datasets::modelnet::{self, ModelNetConfig};
use streamgrid_pointcloud::datasets::stream::LidarStream;
use streamgrid_pointcloud::{GridDims, Point3};
use streamgrid_registration::icp::{CorrespondenceMode, IcpConfig};
use streamgrid_registration::odometry::{run_odometry, trajectory_error, OdometryConfig};
use streamgrid_splat::{psnr, render, Camera, SortMode};

/// `examples/quickstart.rs`: Base vs CS vs CS+DT through one reusable
/// session over the classification preset.
#[test]
fn quickstart_path() {
    let elements = 1024 * 3;
    let options = ExecuteOptions {
        seed: 42,
        ..ExecuteOptions::for_spec(&AppDomain::Classification.spec())
    };
    let mut session =
        StreamGrid::new(StreamGridConfig::base()).session(AppDomain::Classification.spec());
    let mut onchip = Vec::new();
    for config in [
        StreamGridConfig::base(),
        StreamGridConfig::cs(SplitConfig::paper_cls()),
        StreamGridConfig::cs_dt(SplitConfig::paper_cls()),
    ] {
        session.set_config(config);
        let report = session
            .compiled(elements)
            .expect("pipeline compiles")
            .execute(&options);
        assert!(report.run.cycles > 0);
        assert!(report.total_uj().is_finite() && report.total_uj() > 0.0);
        assert!(report.dram_bytes() > 0);
        onchip.push(report.onchip_bytes());
    }
    let (base, csdt) = (onchip[0], onchip[2]);
    assert!(
        csdt < base,
        "CS+DT buffers ({csdt}) must undercut Base ({base})"
    );
    assert_eq!(
        session.solver_invocations(),
        3,
        "one ILP solve per variant config"
    );
}

/// `examples/custom_pipeline.rs`: a non-paper pipeline (voxel downsample
/// → normal estimation → kNN grouping) through builder, registry, and
/// session, CS+DT clean.
#[test]
fn custom_pipeline_path() {
    let mut b = PipelineSpec::builder("voxel_normals_knn");
    b.macs_per_element(96.0);
    let src = b.source("cloud_reader", Shape::new(1, 3), 1);
    let voxel = b.reduction("voxel_downsample", Shape::new(1, 3), Shape::new(1, 3), 3, 8);
    let normals = b.stencil(
        "normal_estimation",
        Shape::new(1, 3),
        Shape::new(1, 6),
        5,
        (9, 1),
    );
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
    let spec = b.build().expect("the custom pipeline validates");

    let mut registry = PipelineRegistry::with_paper_apps();
    registry.register(spec).expect("name is free");
    let spec = registry.resolve("voxel_normals_knn").unwrap().clone();

    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(spec);
    let sizes = [4 * 512 * 3, 4 * 1024 * 3, 4 * 512 * 3];
    let stream = session
        .stream(ReplaySource::new(&sizes), &StreamOptions::default())
        .expect("CS+DT compiles and runs");
    assert_eq!(stream.frame_count(), sizes.len() as u64);
    for (i, frame) in stream.frames.iter().enumerate() {
        let report = &frame.report;
        assert!(report.is_clean(), "cloud {i}: CS+DT must run clean");
        assert!(
            report.run.cycles > 0 && report.total_uj() > 0.0,
            "cloud {i}"
        );
    }
    assert_eq!(
        session.solver_invocations(),
        2,
        "two distinct chunkings, one solve each"
    );
}

fn cls_dataset(per_class: usize, classes: usize, points: usize, seed: u64) -> Vec<ClsSample> {
    let cfg = ModelNetConfig {
        classes: 10,
        points,
        noise: 0.01,
    };
    let mut out = Vec::new();
    for class in 0..classes as u32 {
        for i in 0..per_class {
            let s = modelnet::sample(&cfg, class, seed ^ ((class as u64) << 32) ^ i as u64);
            out.push((s.cloud.points().to_vec(), class));
        }
    }
    out
}

/// `examples/classification.rs`: integrated co-training at toy scale.
#[test]
fn classification_path() {
    let classes = 3;
    let train = cls_dataset(4, classes, 96, 1);
    let test = cls_dataset(3, classes, 96, 999);
    let streaming = SearchMode::paper_cls();
    let mut net = ClsNet::new(classes, 7);
    let stats = train_classifier(
        &mut net,
        &train,
        &TrainConfig {
            epochs: 4,
            lr: 0.003,
            seed: 0,
            mode: streaming.clone(),
            batch: 4,
        },
    );
    assert!(
        stats.epoch_losses.iter().all(|l| l.is_finite()),
        "loss diverged: {:?}",
        stats.epoch_losses
    );
    let acc = eval_classifier(&net, &test, &streaming);
    assert!((0.0..=1.0).contains(&acc), "accuracy {acc} out of range");
    // Non-degenerate: the net must not collapse below chance on the
    // (easy, synthetic) held-out set after training.
    assert!(
        acc >= 1.0 / classes as f64 - 1e-9,
        "accuracy {acc} below chance"
    );
}

/// `examples/lidar_odometry.rs`: exact vs CS+DT correspondence search,
/// then the same sweeps streamed through `Session::stream` on the
/// registration pipeline with quantized compile buckets.
#[test]
fn lidar_odometry_path() {
    let lidar = LidarConfig {
        beams: 6,
        azimuth_steps: 240,
        ..LidarConfig::default()
    };
    let truth = trajectory(4, 0.4, 0.004);
    let scans: Vec<_> =
        LidarStream::new(Scene::urban(11, 30.0, 10, 6), lidar, truth.clone(), 100).collect();
    for mode in [
        CorrespondenceMode::Exact,
        CorrespondenceMode::paper_registration(),
    ] {
        let config = OdometryConfig {
            icp: IcpConfig {
                mode: mode.clone(),
                ..IcpConfig::default()
            },
            ..OdometryConfig::default()
        };
        let poses = run_odometry(&scans, &config);
        assert_eq!(poses.len(), truth.len());
        let err = trajectory_error(&poses, &truth);
        assert!(err.translation_pct.is_finite(), "{mode:?}");
        assert!(err.rotation_deg.is_finite(), "{mode:?}");
        assert!(
            err.endpoint_drift_pct.is_finite() && err.endpoint_drift_pct < 100.0,
            "{mode:?}: drift {}%",
            err.endpoint_drift_pct
        );
    }

    // The execution half of the example: the same sweeps through the
    // registration pipeline via the streaming ingestion surface.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(AppDomain::Registration.spec());
    let report = session
        .stream(
            DatasetSource::new(scans.iter().map(|s| s.cloud.clone())),
            &StreamOptions::bucketed(SizeBucketing::Quantize(1024)),
        )
        .expect("the registration pipeline streams CS+DT clean");
    assert_eq!(report.frame_count(), scans.len() as u64);
    assert!(report.all_clean(), "every streamed frame must run clean");
    assert!(
        report.solver_invocations <= report.frame_count(),
        "bucketing can never pay more solves than frames"
    );
    assert!(report.solver_invocations >= 1);
    assert!(report.total_cycles() > 0 && report.total_uj() > 0.0);
    assert!(report.p50_frame_cycles() <= report.max_frame_cycles());
}

/// `examples/splat_render.rs`: global vs chunked depth sorting.
#[test]
fn splat_render_path() {
    let scene = generate(SceneKind::DeepBlending, 1200, 5);
    let camera = Camera::look_at(
        scene.bounds.center() + Point3::new(0.0, -scene.bounds.extent().y * 1.2, 4.0),
        scene.bounds.center(),
        55.0,
        80,
        60,
    );
    let (reference, ref_stats) = render(&scene, &camera, SortMode::Global);
    assert!(ref_stats.splats_drawn > 0, "reference render drew nothing");
    let dims = GridDims::new(8, 6, 8);
    let (chunked, _) = render(&scene, &camera, SortMode::Chunked { dims });
    let quality = psnr(&reference, &chunked);
    assert!(
        quality.is_finite() && quality > 20.0,
        "chunked sorting degraded PSNR to {quality:.1} dB"
    );
}
