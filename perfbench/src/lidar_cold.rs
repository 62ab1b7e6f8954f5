//! `lidar-cold`: one cold `Session::stream` over a LiDAR sweep stream.
//!
//! Why: the solver-heavy path. The stream is the Registration preset
//! under CS+DT `SplitConfig::linear(4, 2)` with `SizeBucketing::Exact`
//! and a fresh private cache, so every distinct sweep size pays an ILP
//! solve (about a third of the frames) while the rest hit. Cold start
//! and warm start of the solver would move it.
//!
//! Set-up builds the LiDAR source (scene synthesis) and opens a session
//! on a fresh cache: microseconds of work, since the source ray-casts
//! lazily, measured so that work moved ahead of the stream shows. The
//! timed region
//! is the one `Session::stream` call with `workers(1)`: pull (ray-cast),
//! bucket, cache lookup or solve, then the event engine's execute.

use std::sync::Arc;
use std::time::{Duration, Instant};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::InMemoryCache;
use streamgrid_core::framework::{CompiledPipeline, ExecuteOptions, StreamGrid};
use streamgrid_core::session::Session;
use streamgrid_core::source::{DatasetSource, SizeBucketing, StreamOptions, StreamReport};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

use crate::common::{
    bucket_metrics, certify_all, check_stream, compile_keys, designs, engine_metrics, hit_us,
    latency_metrics, lidar_stream, lookup_metrics, pull_gaps_us, pull_metrics, pull_ms, run_reps,
    sample_service, secs, sim_counters, sim_metrics, stream_coverage, traced_stream, write_spans,
    Rep, Report, StreamTrace,
};
use crate::probes::{Log, TimedCache};
use crate::stats;
use crate::trace::Tracer;

/// Sweeps per stream.
const FRAMES: usize = 256;

/// Per-frame service-time samples: at least 1000, taken 64 per
/// measured repetition. The tail reported is the p95, fifty samples
/// beyond it; the p99 (ten beyond) goes to the diagnostics, since over
/// four runs on a 2-core VM its per-run values spread 0.16 of their
/// median — it counts the host's millisecond stalls more than the
/// frames' service times.
const LATENCY_SAMPLES: usize = 1000;
const LATENCY_PER_REPETITION: usize = 64;
const LATENCY_QUANTILE: f64 = 0.95;

/// One traced repetition's leftovers for the per-layer metrics.
struct Traced {
    trace: StreamTrace,
    session: Session,
    stream: StreamReport,
    admit_ms: f64,
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Report {
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let spec = AppDomain::Registration.spec();
    let exec = ExecuteOptions::for_spec(&spec);
    let options = StreamOptions::bucketed(SizeBucketing::Exact).with_workers(1);
    let n_chunks = fw.config().chunk_count();
    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let mut report = Report::default();
    let mut baseline: Option<StreamReport> = None;
    let mut last_session = None;
    let (mut gaps, mut hits) = (Vec::new(), Vec::new());
    let mut last_traced: Option<Traced> = None;

    let min_measured = LATENCY_SAMPLES.div_ceil(LATENCY_PER_REPETITION);
    let reps = run_reps(budget, traced, min_measured, |i, trace_this| {
        let label = format!("repetition {i}");
        let t0 = Instant::now();
        let source = DatasetSource::new(lidar_stream(seed, FRAMES));
        if trace_this {
            let lookups = Log::default();
            let t_admit = Instant::now();
            let mut session = fw
                .session_builder(spec.clone())
                .with_cache(TimedCache::new(
                    InMemoryCache::new(),
                    tracer.clone(),
                    Arc::clone(&lookups),
                ))
                .build();
            let admit_ms = secs(t_admit) * 1e3;
            let setup_s = secs(t0);
            let t1 = Instant::now();
            let (result, trace) = traced_stream(&tracer, &mut session, source, &options, &lookups);
            let wall_s = secs(t1);
            let (n, base) = (FRAMES, baseline.as_ref());
            check_stream(&mut report, &label, n, n_chunks, &result, base, None);
            gaps.extend(pull_gaps_us(&trace.pulls));
            hits.extend(hit_us(&trace.lookups));
            last_traced = Some(Traced {
                trace,
                session,
                stream: result.ok()?,
                admit_ms,
            });
            return Some(Rep {
                setup_s,
                wall_s,
                frames: FRAMES,
                ..Rep::default()
            });
        }
        let mut session = fw.session(spec.clone());
        let setup_s = secs(t0);
        let t1 = Instant::now();
        let result = session.stream(source, &options);
        let wall_s = secs(t1);
        let (n, base) = (FRAMES, baseline.as_ref());
        check_stream(&mut report, &label, n, n_chunks, &result, base, None);
        let stream = result.ok()?;
        let mut rep = Rep {
            setup_s,
            wall_s,
            frames: FRAMES,
            ..Rep::default()
        };
        if !traced {
            let first = i * LATENCY_PER_REPETITION;
            let (samples, calib_ms) =
                sample_service(&mut session, &stream, &exec, first, LATENCY_PER_REPETITION);
            (rep.latency_ms, rep.latency_calib_ms) = (samples, Some(calib_ms));
        }
        baseline.get_or_insert(stream);
        last_session = Some(session);
        Some(rep)
    });

    let (Some(stream), Some(mut session)) = (baseline, last_session) else {
        report.check("a stream completed", false);
        return report.finish(traced);
    };
    report.note("frames", FRAMES);
    report.note("compile_keys", compile_keys(&stream, n_chunks).len());
    report.note("solves", stream.solver_invocations);

    if traced {
        let Some(t) = last_traced else {
            report.check("a traced stream completed", false);
            return report.finish(true);
        };
        layer_metrics(&mut report, &tracer, t, &exec, n_chunks, &gaps, &hits);
        reps.overhead(&mut report);
        write_spans("lidar-cold", seed, &tracer, &mut report);
        return report.finish(true);
    }

    reps.end_to_end(&mut report);
    sim_metrics(&mut report, stream.frames.iter());
    // The headline comparison at the largest sweep: Base (no CS, no DT)
    // compiled for the same bucket and executed on the same frame.
    let designs = designs(&mut session, &stream, n_chunks);
    let largest = stream
        .frames
        .iter()
        .map(|f| f.scheduled_elements)
        .max()
        .expect("a stream has frames");
    let csdt = &designs[&largest.div_ceil(n_chunks)];
    let base = StreamGrid::new(StreamGridConfig::base())
        .session(spec.clone())
        .compiled(largest)
        .expect("Base design compiles");
    savings(&mut report, csdt, &base, &exec);
    let latency = reps.pooled_latency();
    latency_metrics(&mut report, &latency, LATENCY_QUANTILE);
    report.note("latency_p99_ms", stats::tail(&latency, 0.99).unwrap_or(0.0));
    report.finish(false)
}

/// CS+DT against Base on one design point, executed once each.
fn savings(
    report: &mut Report,
    csdt: &CompiledPipeline,
    base: &CompiledPipeline,
    exec: &ExecuteOptions,
) {
    let c = csdt.execute(exec);
    let b = base.execute(exec);
    let onchip = 1.0 - c.onchip_bytes() as f64 / b.onchip_bytes() as f64;
    let energy = 1.0 - c.total_uj() / b.total_uj();
    report.check("CS+DT uses less on-chip memory than Base", onchip > 0.0);
    report.check("CS+DT uses less energy than Base", energy > 0.0);
    report.metric("onchip_saving_frac", onchip);
    report.metric("energy_saving_frac", energy);
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    t: Traced,
    exec: &ExecuteOptions,
    n_chunks: u64,
    gaps: &[f64],
    hits: &[f64],
) {
    let Traced {
        trace,
        mut session,
        stream,
        admit_ms,
    } = t;
    let designs = designs(&mut session, &stream, n_chunks);
    pull_metrics(report, pull_ms(&trace.pulls), gaps);
    lookup_metrics(report, &trace.lookups, hits);
    bucket_metrics(report, &[(&stream, n_chunks)]);
    let (certify_ms, accepted) = certify_all(tracer, designs.values());
    report.check("every design's certificate accepts", accepted);
    report.metric("certify.ms", certify_ms);
    let solo = engine_metrics(report, tracer, designs.values().map(|d| (d, *exec)));
    // Σ over frames of their design's solo execute time: what the
    // execute phase would take with nothing around it.
    let solo_sum: f64 = compile_keys(&stream, n_chunks)
        .values()
        .zip(&solo)
        .map(|((_, n), ms)| ms * *n as f64)
        .sum();
    report.metric("exec.inflation", trace.exec_phase_ms / solo_sum);
    sim_counters(report, stream.frames.iter());
    stream_coverage(report, std::slice::from_ref(&trace), solo_sum, 1);
    report.metric("admit.ms", admit_ms);
    report.metric("queue.ms_mean", stats::mean(&trace.queue_ms).unwrap_or(0.0));
    report.metric("shed.frames", 0.0);
    report.metric("degraded.frames", 0.0);
    report.note("exec_phase_ms", trace.exec_phase_ms);
}
