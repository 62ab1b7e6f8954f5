//! `dense-variants`: the paper's three designs over one dense replay.
//!
//! Why: the timed region is almost all `sim`, and it carries the
//! headline comparison as exact counts. The LiDAR trajectory's sweep
//! sizes are scaled 16× (a denser sensor) and replayed through three
//! sessions — Base, CS and CS+DT — at `workers(host threads)`. Base and
//! CS run the cycle oracle under variable latency; CS+DT runs the event
//! engine. Set-up pulls the sweeps and compiles every design
//! (`Quantize(8192)` buckets), so the solver does no timed work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::InMemoryCache;
use streamgrid_core::framework::{CompiledPipeline, ExecuteOptions, StreamGrid};
use streamgrid_core::session::Session;
use streamgrid_core::source::{
    DatasetSource, FrameSource, ReplaySource, SizeBucketing, StreamOptions, StreamReport,
};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

use crate::common::{
    bucket_metrics, certify_all, check_stream, compile_keys, designs, engine_metrics, hit_us,
    host_threads, json_array, latency_metrics, lidar_stream, lookup_metrics, pull_gaps_us,
    pull_metrics, pull_ms, run_reps, sample_service, secs, sim_counters, sim_metrics,
    stream_coverage, traced_stream, write_spans, Rep, Report, StreamTrace,
};
use crate::probes::{drain, Log, Lookup, TimedCache, TimedSource};
use crate::stats;
use crate::trace::Tracer;

/// Sweeps per variant.
const FRAMES: usize = 32;

/// How much denser than the recorded sweeps the replay is.
const DENSITY: u64 = 16;

const BUCKETING: SizeBucketing = SizeBucketing::Quantize(8192);

/// CS+DT per-frame service-time samples: at least 100, so the p90 has
/// ten beyond it, taken 8 per repetition (a dense frame executes for
/// tens of milliseconds).
const LATENCY_SAMPLES: usize = 100;
const LATENCY_PER_REPETITION: usize = 8;
const LATENCY_QUANTILE: f64 = 0.90;

const VARIANTS: [&str; 3] = ["base", "cs", "cs+dt"];

fn configs() -> [StreamGridConfig; 3] {
    let split = SplitConfig::linear(4, 2);
    [
        StreamGridConfig::base(),
        StreamGridConfig::cs(split),
        StreamGridConfig::cs_dt(split),
    ]
}

/// One repetition's set-up: the replayed sizes and a warm session per
/// variant.
struct Setup {
    sizes: Vec<u64>,
    sessions: Vec<Session>,
    lidar_pull_ms: f64,
    admit_ms: f64,
}

fn set_up(seed: u64, tracer: &Tracer, lookups: Option<&Log<Lookup>>) -> Setup {
    let pull_log = Log::default();
    let mut source = TimedSource::new(
        DatasetSource::new(lidar_stream(seed, FRAMES)),
        tracer.clone(),
        Arc::clone(&pull_log),
    );
    let sizes: Vec<u64> = std::iter::from_fn(|| source.next_frame())
        .map(|f| f.elements * DENSITY)
        .collect();
    let spec = AppDomain::Registration.spec();
    let mut admit_ms = 0.0;
    let sessions = configs()
        .into_iter()
        .map(|config| {
            let t0 = Instant::now();
            let builder = StreamGrid::new(config).session_builder(spec.clone());
            let mut session = match lookups {
                Some(log) => builder
                    .with_cache(TimedCache::new(
                        InMemoryCache::new(),
                        tracer.clone(),
                        Arc::clone(log),
                    ))
                    .build(),
                None => builder.build(),
            };
            admit_ms += secs(t0) * 1e3;
            for &size in &sizes {
                session
                    .compiled(BUCKETING.bucket(size))
                    .expect("every variant compiles the dense sweeps");
            }
            session
        })
        .collect();
    Setup {
        sizes,
        sessions,
        lidar_pull_ms: pull_ms(&drain(&pull_log)),
        admit_ms,
    }
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Report {
    let spec = AppDomain::Registration.spec();
    let exec = ExecuteOptions::for_spec(&spec);
    let workers = host_threads();
    let options = StreamOptions::bucketed(BUCKETING).with_workers(workers);
    let chunks: Vec<u64> = configs().iter().map(|c| c.chunk_count()).collect();
    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let untraced = Tracer::off();
    let mut report = Report::default();
    let mut baselines: Option<Vec<StreamReport>> = None;
    let mut last_sessions: Vec<Session> = Vec::new();
    let (mut gaps, mut hits) = (Vec::new(), Vec::new());
    let mut last_traced = None;

    let min_measured = LATENCY_SAMPLES.div_ceil(LATENCY_PER_REPETITION);
    let reps = run_reps(budget, traced, min_measured, |i, trace_this| {
        let lookups: Log<Lookup> = Log::default();
        let t0 = Instant::now();
        let mut setup = set_up(
            seed,
            if trace_this { &tracer } else { &untraced },
            trace_this.then_some(&lookups),
        );
        let setup_s = secs(t0);
        let compile_lookups = drain(&lookups);
        let replay = &setup.sizes;
        let t1 = Instant::now();
        let mut streams = Vec::with_capacity(VARIANTS.len());
        let mut traces = Vec::new();
        for session in &mut setup.sessions {
            if trace_this {
                let source = ReplaySource::new(replay);
                let (result, trace) = traced_stream(&tracer, session, source, &options, &lookups);
                traces.push(trace);
                streams.push(result);
            } else {
                streams.push(session.stream(ReplaySource::new(replay), &options));
            }
        }
        let wall_s = secs(t1);
        for (v, result) in streams.iter().enumerate() {
            let first = baselines.as_ref().map(|b| &b[v]);
            let label = format!("repetition {i} {}", VARIANTS[v]);
            check_stream(
                &mut report,
                &label,
                FRAMES,
                chunks[v],
                result,
                first,
                Some(0),
            );
        }
        let streams: Vec<StreamReport> = streams.into_iter().collect::<Result<_, _>>().ok()?;
        let mut rep = Rep {
            setup_s,
            wall_s,
            frames: FRAMES * VARIANTS.len(),
            ..Rep::default()
        };
        if trace_this {
            for t in &traces {
                gaps.extend(pull_gaps_us(&t.pulls));
                hits.extend(hit_us(&t.lookups));
            }
            last_traced = Some((setup, streams, traces, compile_lookups));
            return Some(rep);
        }
        if !traced {
            let first = i * LATENCY_PER_REPETITION;
            let csdt = &mut setup.sessions[2];
            let (samples, calib_ms) =
                sample_service(csdt, &streams[2], &exec, first, LATENCY_PER_REPETITION);
            (rep.latency_ms, rep.latency_calib_ms) = (samples, Some(calib_ms));
        }
        baselines.get_or_insert(streams);
        last_sessions = setup.sessions;
        Some(rep)
    });

    let Some(streams) = baselines else {
        report.check("every variant's stream completed", false);
        return report.finish(traced);
    };
    report.note("frames_per_variant", FRAMES);
    report.note("workers", workers);
    let mean_onchip: Vec<f64> = streams.iter().map(mean_onchip_bytes).collect();
    report.check(
        "on-chip memory orders CS+DT < CS < Base",
        mean_onchip[2] < mean_onchip[1] && mean_onchip[1] < mean_onchip[0],
    );
    let designs: Vec<Vec<Arc<CompiledPipeline>>> = last_sessions
        .iter_mut()
        .zip(&streams)
        .zip(&chunks)
        .map(|((session, stream), &n)| designs(session, stream, n).into_values().collect())
        .collect();

    if traced {
        let Some((setup, streams, traces, compile_lookups)) = last_traced else {
            report.check("a traced repetition completed", false);
            return report.finish(true);
        };
        layer_metrics(
            &mut report,
            &tracer,
            &exec,
            LayerInput {
                setup,
                streams,
                traces,
                compile_lookups,
                designs,
                chunks,
                workers,
            },
            &gaps,
            &hits,
        );
        reps.overhead(&mut report);
        write_spans("dense-variants", seed, &tracer, &mut report);
        return report.finish(true);
    }

    let (certify_ms, accepted) = certify_all(&Tracer::off(), designs.iter().flatten());
    report.check("every design's certificate accepts", accepted);
    report.note("certify_ms", certify_ms);
    reps.end_to_end(&mut report);
    let (base, csdt) = (&streams[0], &streams[2]);
    sim_metrics(&mut report, csdt.frames.iter());
    report.metric("onchip_saving_frac", 1.0 - mean_onchip[2] / mean_onchip[0]);
    report.metric(
        "energy_saving_frac",
        1.0 - csdt.total_uj() / base.total_uj(),
    );
    let kib: Vec<f64> = mean_onchip.iter().map(|b| b / 1024.0).collect();
    report.note("onchip_kib_per_frame", json_array(&kib));
    let uj: Vec<f64> = streams
        .iter()
        .map(|s| s.total_uj() / s.frame_count().max(1) as f64)
        .collect();
    report.note("energy_uj_per_frame", json_array(&uj));
    latency_metrics(&mut report, &reps.pooled_latency(), LATENCY_QUANTILE);
    report.finish(false)
}

fn mean_onchip_bytes(stream: &StreamReport) -> f64 {
    let total: u64 = stream.frames.iter().map(|f| f.report.onchip_bytes()).sum();
    total as f64 / stream.frame_count().max(1) as f64
}

/// What one traced repetition left for the per-layer metrics.
struct LayerInput {
    setup: Setup,
    streams: Vec<StreamReport>,
    traces: Vec<StreamTrace>,
    compile_lookups: Vec<Lookup>,
    designs: Vec<Vec<Arc<CompiledPipeline>>>,
    chunks: Vec<u64>,
    workers: usize,
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    exec: &ExecuteOptions,
    input: LayerInput,
    gaps: &[f64],
    hits: &[f64],
) {
    let LayerInput {
        setup,
        streams,
        traces,
        compile_lookups,
        designs,
        chunks,
        workers,
    } = input;
    let replay_pull_ms: f64 = traces.iter().map(|t| pull_ms(&t.pulls)).sum();
    pull_metrics(report, setup.lidar_pull_ms + replay_pull_ms, gaps);
    let mut lookups = compile_lookups;
    lookups.extend(traces.iter().flat_map(|t| t.lookups.iter().copied()));
    lookup_metrics(report, &lookups, hits);
    // Bucketing over the three streams together.
    let with_chunks: Vec<_> = streams.iter().zip(chunks.iter().copied()).collect();
    bucket_metrics(report, &with_chunks);
    let (certify_ms, accepted) = certify_all(tracer, designs.iter().flatten());
    report.check("every design's certificate accepts", accepted);
    report.metric("certify.ms", certify_ms);
    let solo = engine_metrics(report, tracer, designs.iter().flatten().map(|d| (d, *exec)));
    // Σ over frames of their design's solo time against the execute
    // phases' wall time × the workers sharing it.
    let mut solo_sum = 0.0;
    let mut offset = 0;
    for (stream, &n) in streams.iter().zip(&chunks) {
        let keys = compile_keys(stream, n);
        for (j, (_, count)) in keys.values().enumerate() {
            solo_sum += solo[offset + j] * *count as f64;
        }
        offset += keys.len();
    }
    let phase_ms: f64 = traces.iter().map(|t| t.exec_phase_ms).sum();
    report.metric(
        "exec.inflation",
        phase_ms * workers.min(FRAMES) as f64 / solo_sum,
    );
    sim_counters(report, streams.iter().flat_map(|s| &s.frames));
    stream_coverage(report, &traces, solo_sum, workers.min(FRAMES));
    report.metric("admit.ms", setup.admit_ms);
    let queue: Vec<f64> = traces.iter().flat_map(|t| t.queue_ms.clone()).collect();
    report.metric("queue.ms_mean", stats::mean(&queue).unwrap_or(0.0));
    report.metric("shed.frames", 0.0);
    report.metric("degraded.frames", 0.0);
    report.note("exec_phase_ms", phase_ms);
}
