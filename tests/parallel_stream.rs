//! Equivalence tests for overlapped frame execution: `Session::stream`
//! with `StreamOptions::workers(n)` must produce a `StreamReport`
//! bit-identical to the sequential path for every bucketing policy,
//! every worker count, and the truncated (`max_frames`) path — frames
//! are independent once compiled, so threading may only move wall time,
//! never results.

use proptest::prelude::*;
use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::StreamGrid;
use streamgrid_core::source::{
    ReplaySource, SizeBucketing, StreamOptions, StreamReport, SyntheticSource,
};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const POLICIES: [SizeBucketing; 3] = [
    SizeBucketing::Exact,
    SizeBucketing::Pow2,
    SizeBucketing::Quantize(512),
];

fn csdt4() -> StreamGrid {
    StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
}

fn stream_sizes(sizes: &[u64], options: &StreamOptions) -> StreamReport {
    let mut session = csdt4().session(AppDomain::Classification.spec());
    session
        .stream(ReplaySource::new(sizes), options)
        .expect("CS+DT compiles and streams for any positive size")
}

/// The acceptance pin: every `(policy, workers)` combination reproduces
/// the sequential report bit for bit — including `solver_invocations`,
/// per-frame cycles, energy, and exec modes.
#[test]
fn workers_are_bit_identical_across_policies() {
    let sizes: Vec<u64> = (0..12u64).map(|i| 1100 + 173 * i).collect();
    for policy in POLICIES {
        let sequential = stream_sizes(&sizes, &StreamOptions::bucketed(policy));
        assert!(sequential.all_clean());
        for workers in WORKER_COUNTS {
            let parallel = stream_sizes(
                &sizes,
                &StreamOptions::bucketed(policy).with_workers(workers),
            );
            assert_eq!(
                parallel, sequential,
                "{policy:?} with {workers} workers diverged from sequential"
            );
        }
    }
}

/// The truncated path: `max_frames` caps an over-long source the same
/// way under every worker count, and the capped report equals the
/// sequential capped report.
#[test]
fn workers_respect_max_frames_identically() {
    let fw = csdt4();
    let sequential = {
        let mut session = fw.session(AppDomain::Classification.spec());
        session
            .stream(
                SyntheticSource::new(4 * 300, 100),
                &StreamOptions::default().with_max_frames(7),
            )
            .unwrap()
    };
    assert_eq!(sequential.frame_count(), 7);
    for workers in WORKER_COUNTS {
        let mut session = fw.session(AppDomain::Classification.spec());
        let parallel = session
            .stream(
                SyntheticSource::new(4 * 300, 100),
                &StreamOptions::default()
                    .with_max_frames(7)
                    .with_workers(workers),
            )
            .unwrap();
        assert_eq!(parallel, sequential, "{workers} workers broke max_frames");
    }
}

/// More workers than frames (and zero workers, the `Default` value) are
/// both safe: the executor clamps to the job count and to inline
/// execution respectively.
#[test]
fn degenerate_worker_counts_are_safe() {
    let sizes = [4 * 300u64, 4 * 450];
    let sequential = stream_sizes(&sizes, &StreamOptions::default());
    for workers in [0usize, 1, 64] {
        let parallel = stream_sizes(&sizes, &StreamOptions::workers(workers));
        assert_eq!(parallel, sequential, "workers = {workers}");
    }
    // An empty stream with workers requested is fine too.
    let empty = stream_sizes(&[], &StreamOptions::workers(8));
    assert_eq!(empty.frame_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// For any random frame-size sequence, policy, and worker count,
    /// the parallel report equals the sequential one bit for bit.
    #[test]
    fn prop_workers_never_change_reports(
        raw in prop::collection::vec(1u64..40, 1..9),
        policy_idx in 0usize..3,
        workers in 2usize..9,
    ) {
        let sizes: Vec<u64> = raw.iter().map(|s| s * 120).collect();
        let policy = POLICIES[policy_idx];
        let sequential = stream_sizes(&sizes, &StreamOptions::bucketed(policy));
        let parallel = stream_sizes(
            &sizes,
            &StreamOptions::bucketed(policy).with_workers(workers),
        );
        prop_assert_eq!(
            parallel,
            sequential,
            "{:?} with {} workers over {:?}",
            policy,
            workers,
            sizes
        );
    }
}
