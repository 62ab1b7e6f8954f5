//! Contract tests for the streaming ingestion API: `FrameSource` →
//! `Session::stream` → `StreamReport`, including the acceptance pin —
//! a 64-frame LiDAR stream under quantized bucketing pays strictly
//! fewer ILP solves than it executes frames, with every frame clean.

use std::collections::HashSet;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::source::{
    DatasetSource, FrameSource, ReplaySource, SizeBucketing, StreamOptions, SyntheticSource,
};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_pointcloud::datasets::lidar::{trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::datasets::modelnet::ModelNetConfig;
use streamgrid_pointcloud::datasets::stream::{LidarStream, ModelNetStream, ShapeNetStream};

fn csdt4() -> StreamGrid {
    StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
}

fn small_lidar(frames: usize) -> LidarStream {
    LidarStream::new(
        Scene::urban(11, 30.0, 10, 6),
        LidarConfig {
            beams: 4,
            azimuth_steps: 90,
            ..LidarConfig::default()
        },
        trajectory(frames, 0.4, 0.004),
        100,
    )
}

/// The acceptance pin: 64 LiDAR frames, quantized buckets, strictly
/// fewer solves than frames, all frames clean.
#[test]
fn lidar_stream_64_frames_quantized_amortizes_solves() {
    let mut session = csdt4().session(AppDomain::Registration.spec());
    let source = DatasetSource::new(small_lidar(64));
    let report = session
        .stream(
            source,
            &StreamOptions::bucketed(SizeBucketing::Quantize(256)),
        )
        .expect("the registration pipeline streams CS+DT clean");

    assert_eq!(report.frame_count(), 64);
    assert!(
        report.solver_invocations < 64,
        "bucketing must amortize: {} solves for 64 frames",
        report.solver_invocations
    );
    assert!(report.solver_invocations >= 1, "a fresh session must solve");
    for frame in &report.frames {
        assert!(
            frame.report.is_clean(),
            "frame {}: CS+DT must run overflow-, stall- and truncation-free",
            frame.frame.id
        );
        assert!(frame.scheduled_elements >= frame.frame.elements);
        assert_eq!(
            frame.scheduled_elements,
            SizeBucketing::Quantize(256).bucket(frame.frame.elements)
        );
    }
    // Sweep sizes genuinely drift (otherwise the pin is vacuous) …
    let distinct_sizes: HashSet<u64> = report.frames.iter().map(|f| f.frame.elements).collect();
    assert!(distinct_sizes.len() > 1, "LiDAR sweeps should vary in size");
    // … and the session cache, not per-frame luck, is what amortized.
    assert_eq!(
        session.solver_invocations(),
        report.solver_invocations,
        "a fresh session's stream pays exactly the session's solves"
    );
    assert!(report.frames_per_solve() > 1.0);
}

/// A synthetic fixed-size stream is the degenerate case: one solve,
/// identical frames, identical reports.
#[test]
fn synthetic_stream_solves_once() {
    let mut session = csdt4().session(AppDomain::Classification.spec());
    let report = session
        .stream(SyntheticSource::new(4 * 300, 10), &StreamOptions::default())
        .unwrap();
    assert_eq!(report.frame_count(), 10);
    assert_eq!(report.solver_invocations, 1);
    assert!(report.all_clean());
    let first = &report.frames[0].report;
    assert!(report.frames.iter().all(|f| &f.report == first));
    assert_eq!(report.p50_frame_cycles(), report.max_frame_cycles());
}

/// Every dataset stream drives the session through the DatasetSource
/// bridge: ModelNet and ShapeNet streams execute clean end to end.
#[test]
fn dataset_streams_execute_through_sessions() {
    let mut session = csdt4().session(AppDomain::Classification.spec());
    let modelnet = ModelNetStream::new(
        ModelNetConfig {
            classes: 10,
            points: 200,
            noise: 0.01,
        },
        6,
        3,
    );
    let report = session
        .stream(
            DatasetSource::new(modelnet),
            &StreamOptions::bucketed(SizeBucketing::Pow2),
        )
        .unwrap();
    assert_eq!(report.frame_count(), 6);
    // Fixed 200-point clouds: one bucket, one solve.
    assert_eq!(report.solver_invocations, 1);
    assert!(report.all_clean());
    assert_eq!(report.source_elements(), 6 * 200 * 3);

    let mut session = csdt4().session(AppDomain::Segmentation.spec());
    let report = session
        .stream(
            DatasetSource::new(ShapeNetStream::new(150, 4, 9)),
            &StreamOptions::default(),
        )
        .unwrap();
    assert_eq!(report.frame_count(), 4);
    assert!(report.all_clean());
    for frame in &report.frames {
        assert_eq!(frame.frame.stats.points, 150);
        assert_eq!(frame.frame.elements, 450);
    }
}

/// The source element accounting survives the bridge: frame stats carry
/// the point counts the clouds actually had.
#[test]
fn dataset_source_frames_track_cloud_sizes() {
    let scans: Vec<_> = small_lidar(5).collect();
    let mut source = DatasetSource::new(scans.iter().map(|s| s.cloud.clone()));
    for (i, scan) in scans.iter().enumerate() {
        let frame = source.next_frame().unwrap();
        assert_eq!(frame.id, i as u64);
        assert_eq!(frame.stats.points, scan.cloud.len() as u64);
        assert_eq!(frame.elements, scan.cloud.len() as u64 * 3);
    }
    assert!(source.next_frame().is_none());
}

/// Exact replay through `stream` equals fresh one-shot
/// compile-then-execute calls on the same sizes, report for report, and
/// pays one solve per distinct size.
#[test]
fn exact_replay_matches_one_shot_executes() {
    let sizes: Vec<u64> = (0..6).map(|i| 1200 + 37 * i).collect();
    let fw = csdt4();
    let spec = AppDomain::NeuralRendering.spec();
    let mut session = fw.session(spec.clone());
    let stream = session
        .stream(ReplaySource::new(&sizes), &StreamOptions::default())
        .unwrap();
    assert_eq!(stream.frame_count(), sizes.len() as u64);
    for (frame, &total) in stream.frames.iter().zip(&sizes) {
        assert_eq!(frame.scheduled_elements, total);
        let fresh = fw
            .compile_spec(&spec, total)
            .unwrap()
            .execute(&ExecuteOptions::for_spec(&spec));
        assert_eq!(frame.report, fresh, "diverged at {total} elements");
    }
    assert_eq!(stream.solver_invocations, sizes.len() as u64);
    assert_eq!(stream.source_elements(), sizes.iter().sum::<u64>());
}

/// A `FrameSource` written against the original trait surface — only
/// `next_frame` implemented — keeps its exact pre-existing behavior:
/// `size_hint` defaults to fully-unknown `(0, None)` and the admission
/// hint `remaining_frames` (derived from it) to `None`, so old sources
/// stream unchanged and are simply charged the server's default
/// projection. Library sources expose exact hints.
#[test]
fn frame_source_default_impls_stay_backward_compatible() {
    use streamgrid_core::source::Frame;

    struct MinimalSource(u64);
    impl FrameSource for MinimalSource {
        fn next_frame(&mut self) -> Option<Frame> {
            if self.0 == 0 {
                return None;
            }
            self.0 -= 1;
            Some(Frame::synthetic(self.0, 1200))
        }
    }

    let minimal = MinimalSource(3);
    assert_eq!(minimal.size_hint(), (0, None));
    assert_eq!(minimal.remaining_frames(), None);
    // …and it still streams exactly like a hinted source.
    let mut session = csdt4().session(AppDomain::Classification.spec());
    let report = session
        .stream(MinimalSource(3), &StreamOptions::default())
        .unwrap();
    assert_eq!(report.frame_count(), 3);
    assert!(report.all_clean());

    // Library sources expose exact remaining-frame hints that count
    // down as frames are pulled.
    let mut synthetic = SyntheticSource::new(1200, 4);
    assert_eq!(synthetic.remaining_frames(), Some(4));
    synthetic.next_frame();
    assert_eq!(synthetic.remaining_frames(), Some(3));
    let replay = ReplaySource::new(&[5, 9, 13]);
    assert_eq!(replay.remaining_frames(), Some(3));
}

/// `p99_frame_cycles` joins the p50/p95/max aggregates and orders as a
/// percentile must: p50 ≤ p95 ≤ p99 ≤ max.
#[test]
fn stream_report_p99_orders_between_p95_and_max() {
    let sizes: Vec<u64> = (0..12).map(|i| 1200 + 120 * i).collect();
    let mut session = csdt4().session(AppDomain::Classification.spec());
    let report = session
        .stream(ReplaySource::new(&sizes), &StreamOptions::default())
        .unwrap();
    assert!(report.p50_frame_cycles() <= report.p95_frame_cycles());
    assert!(report.p95_frame_cycles() <= report.p99_frame_cycles());
    assert!(report.p99_frame_cycles() <= report.max_frame_cycles());
    assert!(report.p99_frame_cycles() > 0);
}
