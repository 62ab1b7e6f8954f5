//! What the workloads share: the metric catalogue, the report, host
//! diagnostics, input generation and the probes that time single calls.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamgrid_core::framework::{CompiledPipeline, ExecMode, ExecuteOptions, ExecutionReport};
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::session::Session;
use streamgrid_core::source::{FrameReport, FrameSource, StreamOptions, StreamReport};
use streamgrid_pointcloud::datasets::lidar::{trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::datasets::stream::LidarStream;

use crate::calib;
use crate::probes::{drain, Log, Lookup, Pull, TimedSource};
use crate::stats;
use crate::trace::{self, Tracer};

/// End-to-end metrics: every `--trace 0` run reports exactly these.
pub const END_TO_END: [(&str, &str); 11] = [
    ("frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mib", "MiB"),
    ("sim_cycles_per_frame", "cycles"),
    ("energy_uj_per_frame", "uJ"),
    ("onchip_kib", "KiB"),
    ("onchip_saving_frac", "frac"),
    ("energy_saving_frac", "frac"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metrics: every `--trace 1` run reports exactly these.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("source.pull_ms", "ms"),
    ("source.pull_gap_us_p50", "us"),
    ("source.pull_gap_us_p99", "us"),
    ("bucket.distinct_keys", "count"),
    ("bucket.overhead_frac", "frac"),
    ("cache.lookups", "count"),
    ("cache.misses", "count"),
    ("cache.hit_us_p50", "us"),
    ("cache.miss_ms_p50", "ms"),
    ("cache.miss_ms_max", "ms"),
    ("solve.lp_iterations", "count"),
    ("solve.bb_nodes", "count"),
    ("solve.constraints", "count"),
    ("certify.ms", "ms"),
    ("exec.event.ms_p50", "ms"),
    ("exec.event.ms_p99", "ms"),
    ("exec.event.ns_per_sim_cycle", "ns"),
    ("exec.oracle.ms_p50", "ms"),
    ("exec.oracle.ms_p99", "ms"),
    ("exec.oracle.ns_per_sim_cycle", "ns"),
    ("exec.inflation", "ratio"),
    ("sim.stall_cycles", "count"),
    ("sim.starved_cycles", "count"),
    ("sim.dram_bytes_per_frame", "bytes"),
    ("stream.unattributed_ms", "ms"),
    ("admit.ms", "ms"),
    ("queue.ms_mean", "ms"),
    ("shed.frames", "count"),
    ("degraded.frames", "count"),
    ("trace.covered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Frames offered across the measured repetitions.
    pub attempted: u64,
    /// Offered frames not delivered clean, plus every frame of a
    /// repetition whose output check failed; every offered frame once
    /// any check of the run fails.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Diagnostic `key → JSON value` pairs printed before the result.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) -> bool {
        self.checks.push(Check {
            name: name.into(),
            passed,
        });
        passed
    }

    /// Records a metric; its unit comes from the catalogue, and a name
    /// outside the catalogue fails the run.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u);
        match unit {
            Some(unit) => self.metrics.push(Metric { name, value, unit }),
            None => {
                self.check(format!("metric {name} is catalogued"), false);
            }
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Checks the metric set is exactly the catalogue for this mode,
    /// each metric once and finite; then counts every offered frame
    /// failed if any check of the run failed, and sets `ok_frac` (frames
    /// delivered clean ÷ frames offered) of an untraced run.
    pub fn finish(mut self, traced: bool) -> Self {
        if !traced {
            self.metric("ok_frac", 0.0);
        }
        let want: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        got.sort_unstable();
        let mut expected: Vec<&str> = want.iter().map(|(n, _)| *n).collect();
        expected.sort_unstable();
        let complete = got == expected;
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        self.check("every catalogued metric reported once", complete);
        self.check("every metric is finite", finite);
        if !self.checks.iter().all(|c| c.passed) {
            self.failed = self.attempted;
        }
        let ok_frac = (self.attempted - self.failed.min(self.attempted)) as f64
            / self.attempted.max(1) as f64;
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == "ok_frac") {
            m.value = ok_frac;
        }
        // Keep the printed order the catalogue's.
        self.metrics
            .sort_by_key(|m| want.iter().position(|(n, _)| *n == m.name));
        self
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

/// SplitMix64: independent sub-seeds from the one `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, stream)`.
pub fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// The LiDAR source `bench_streaming` uses — 6 beams × 300 azimuth
/// steps through an urban scene — in one fixed city block whose poles,
/// per-frame range noise and trajectory turn rate are drawn from
/// `seed`. The buildings stay put because they set the sweep sizes:
/// drawn per seed, they spread a 256-sweep stream's compile keys (its
/// solves) over 73–117 across seeds 1–20; with them fixed the spread is
/// 89–104, so seeds change the inputs without changing the workload.
pub fn lidar_stream(seed: u64, frames: usize) -> LidarStream {
    let mut scene = Scene::urban(CITY_BLOCK, 40.0, 14, 8);
    scene.poles = Scene::urban(mix(seed, 1), 40.0, 0, 8).poles;
    let turn_rate = 0.003 + 0.002 * unit(seed, 3) as f32;
    LidarStream::new(
        scene,
        LidarConfig {
            beams: 6,
            azimuth_steps: 300,
            ..LidarConfig::default()
        },
        trajectory(frames, 0.4, turn_rate),
        mix(seed, 2),
    )
}

/// Scene seed of the fixed building layout.
const CITY_BLOCK: u64 = 0x5EED_C17E;

pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host-wide steal ticks from `/proc/stat` (`None` where unreadable).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one repetition timed, as measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Set-up before the timed region (s).
    pub setup_s: f64,
    /// The timed region (s).
    pub wall_s: f64,
    /// Frames the timed region delivered.
    pub frames: usize,
    /// Host latencies (ms) the repetition sampled.
    pub latency_ms: Vec<f64>,
    /// A calibration (ms) taken right before the latencies were sampled,
    /// when they were sampled after the timed region: they are then
    /// normalised by it and the calibration that closes the repetition.
    pub latency_calib_ms: Option<f64>,
}

/// A run's host-time samples, one per measured repetition, in
/// reference time (see [`calib`](crate::calib)).
#[derive(Debug, Default)]
pub struct Reps {
    pub setup_s: Vec<f64>,
    pub fps: Vec<f64>,
    pub traced_fps: Vec<f64>,
    /// Each untraced measured repetition's latencies.
    pub latency_ms: Vec<Vec<f64>>,
    /// Each measured repetition's calibration time (ms).
    calib_ms: Vec<f64>,
    /// `fps` and `setup_s` as measured.
    raw_fps: Vec<f64>,
    raw_setup_s: Vec<f64>,
}

/// Runs repetitions of `step` until `budget` has passed and at least
/// `min_measured` untraced repetitions were measured (two traced and
/// two untraced in a traced run). `step(i, trace_this)` sets up, runs
/// the timed region, checks it and returns its timings, or `None` when
/// it did not complete. Repetition 0 is the warm-up: checked, not
/// measured. A traced run alternates untraced and traced repetitions.
/// Each repetition is bracketed by two calibrations, and its times are
/// normalised by their mean.
pub fn run_reps(
    budget: Duration,
    traced: bool,
    min_measured: usize,
    mut step: impl FnMut(usize, bool) -> Option<Rep>,
) -> Reps {
    let min_reps = if traced { 5 } else { 1 + min_measured };
    let mut reps = Reps::default();
    let start = Instant::now();
    let mut i = 0;
    while i < min_reps || start.elapsed() < budget {
        let trace_this = traced && i % 2 == 1;
        let before = calib::calibrate();
        let rep = step(i, trace_this);
        let after = calib::calibrate();
        let calib_ms = (before + after) / 2.0;
        let scale = calib::REFERENCE_MS / calib_ms;
        match rep {
            Some(rep) if trace_this => {
                reps.traced_fps
                    .push(rep.frames as f64 / (rep.wall_s * scale));
            }
            Some(rep) if i > 0 => {
                reps.calib_ms.push(calib_ms);
                reps.raw_fps.push(rep.frames as f64 / rep.wall_s);
                reps.fps.push(rep.frames as f64 / (rep.wall_s * scale));
                reps.setup_s.push(rep.setup_s * scale);
                reps.raw_setup_s.push(rep.setup_s);
                let latency_scale = rep
                    .latency_calib_ms
                    .map_or(scale, |c| 2.0 * calib::REFERENCE_MS / (c + after));
                reps.latency_ms
                    .push(rep.latency_ms.iter().map(|ms| ms * latency_scale).collect());
            }
            _ => {}
        }
        i += 1;
    }
    reps
}

impl Reps {
    /// `frames_per_s` and `setup_s`: medians over the repetitions.
    pub fn end_to_end(&self, report: &mut Report) {
        report.note("repetitions", self.fps.len());
        report.note("reference_ms", calib::REFERENCE_MS);
        report.note("calibration_ms_samples", json_array(&self.calib_ms));
        report.note("raw_frames_per_s_samples", json_array(&self.raw_fps));
        report.note("raw_setup_s_samples", json_array(&self.raw_setup_s));
        report.metric("frames_per_s", stats::median(&self.fps).unwrap_or(0.0));
        report.metric("setup_s", stats::median(&self.setup_s).unwrap_or(0.0));
    }

    /// `trace.overhead_frac`: traced against untraced `frames_per_s`.
    pub fn overhead(&self, report: &mut Report) {
        let untraced = stats::median(&self.fps).unwrap_or(0.0);
        let traced = stats::median(&self.traced_fps).unwrap_or(0.0);
        report.metric("trace.overhead_frac", 1.0 - traced / untraced);
    }

    /// Every repetition's latencies in one sample.
    pub fn pooled_latency(&self) -> Vec<f64> {
        self.latency_ms.concat()
    }
}

/// `values` as a JSON array.
pub fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(", "))
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The engines the per-layer `exec.*` metrics time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Event,
    Oracle,
}

impl Engine {
    fn mode(self) -> ExecMode {
        match self {
            Engine::Event => ExecMode::EventDriven,
            Engine::Oracle => ExecMode::CycleAccurate,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Engine::Event => "sim.execute.event",
            Engine::Oracle => "sim.execute.oracle",
        }
    }
}

/// One solo `CompiledPipeline::execute` on `engine`, timed.
pub fn execute_on(
    tracer: &Tracer,
    design: &CompiledPipeline,
    exec: &ExecuteOptions,
    engine: Engine,
) -> (f64, ExecutionReport) {
    let options = exec.with_exec_mode(engine.mode());
    let _span = tracer.span(engine.span());
    let t0 = Instant::now();
    let report = std::hint::black_box(design.execute(std::hint::black_box(&options)));
    (secs(t0) * 1e3, report)
}

/// Solo execute times (ms) of `count` frames of `stream`, from frame
/// `start` on (wrapping), with a calibration taken right before them:
/// each frame's service time on the simulator. `Session::stream` hands
/// every frame back at once, so a frame's latency to the caller is its
/// place in the batch; the workloads take these samples after each
/// repetition's timed region instead, spread over the whole run.
pub fn sample_service(
    session: &mut Session,
    stream: &StreamReport,
    exec: &ExecuteOptions,
    start: usize,
    count: usize,
) -> (Vec<f64>, f64) {
    let calib_ms = calib::calibrate();
    let frames = &stream.frames;
    if frames.is_empty() {
        return (Vec::new(), calib_ms);
    }
    let samples = (0..count)
        .map(|k| {
            let frame = &frames[(start + k) % frames.len()];
            let design = session
                .compiled(frame.scheduled_elements)
                .expect("streamed design is cached");
            let t0 = Instant::now();
            std::hint::black_box(design.execute(std::hint::black_box(exec)));
            secs(t0) * 1e3
        })
        .collect();
    (samples, calib_ms)
}

/// `exec.<engine>.*` for one engine: per-call p50/p99 (ms) and host ns
/// per simulated cycle, from `(ms, cycles)` samples.
pub fn exec_metrics(report: &mut Report, engine: Engine, samples: &[(f64, u64)]) {
    let ms: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let cycles: u64 = samples.iter().map(|s| s.1).sum();
    let p50 = stats::median(&ms).unwrap_or(0.0);
    let p99 = stats::nearest_rank(&ms, 0.99).unwrap_or(0.0);
    let ns_per_cycle = ms.iter().sum::<f64>() * 1e6 / cycles.max(1) as f64;
    let names = match engine {
        Engine::Event => [
            "exec.event.ms_p50",
            "exec.event.ms_p99",
            "exec.event.ns_per_sim_cycle",
        ],
        Engine::Oracle => [
            "exec.oracle.ms_p50",
            "exec.oracle.ms_p99",
            "exec.oracle.ns_per_sim_cycle",
        ],
    };
    report.metric(names[0], p50);
    report.metric(names[1], p99);
    report.metric(names[2], ns_per_cycle);
}

/// Whether two executions of one design agree on everything simulated
/// (the engine tag aside).
pub fn same_run(a: &ExecutionReport, b: &ExecutionReport) -> bool {
    a.run == b.run && a.compile == b.compile && a.energy == b.energy
}

/// `source.*` from the pulls of one traced repetition, plus the pooled
/// gaps between successive pull starts (the puller's cadence).
pub fn pull_metrics(report: &mut Report, pull_ms: f64, gaps_us: &[f64]) {
    report.metric("source.pull_ms", pull_ms);
    report.metric(
        "source.pull_gap_us_p50",
        stats::median(gaps_us).unwrap_or(0.0),
    );
    report.metric(
        "source.pull_gap_us_p99",
        stats::nearest_rank(gaps_us, 0.99).unwrap_or(0.0),
    );
    report.note("pull_gap_samples", gaps_us.len());
}

/// Gaps (µs) between successive pull starts.
pub fn pull_gaps_us(pulls: &[Pull]) -> Vec<f64> {
    pulls
        .windows(2)
        .map(|w| (w[1].start - w[0].start).as_secs_f64() * 1e6)
        .collect()
}

/// Total pull time (ms).
pub fn pull_ms(pulls: &[Pull]) -> f64 {
    pulls.iter().map(|p| p.ns as f64).sum::<f64>() / 1e6
}

/// `cache.*` and `solve.*` from the lookups of one traced repetition
/// (hit latency pooled across `hits_us`).
pub fn lookup_metrics(report: &mut Report, lookups: &[Lookup], hits_us: &[f64]) {
    let misses: Vec<f64> = lookups
        .iter()
        .filter(|l| l.miss)
        .map(|l| l.ns as f64 / 1e6)
        .collect();
    let sum = |f: fn(&Lookup) -> u64| lookups.iter().map(f).sum::<u64>() as f64;
    report.metric("cache.lookups", lookups.len() as f64);
    report.metric("cache.misses", misses.len() as f64);
    report.metric("cache.hit_us_p50", stats::median(hits_us).unwrap_or(0.0));
    report.metric("cache.miss_ms_p50", stats::median(&misses).unwrap_or(0.0));
    report.metric(
        "cache.miss_ms_max",
        misses.iter().copied().fold(0.0, f64::max),
    );
    report.metric("solve.lp_iterations", sum(|l| l.lp_iterations));
    report.metric("solve.bb_nodes", sum(|l| l.bb_nodes));
    report.metric("solve.constraints", sum(|l| l.constraints));
}

/// Hit latencies (µs) of `lookups`.
pub fn hit_us(lookups: &[Lookup]) -> Vec<f64> {
    lookups
        .iter()
        .filter(|l| !l.miss)
        .map(|l| l.ns as f64 / 1e3)
        .collect()
}

/// Certifies each design once, timed; `(total ms, all accepted)`.
pub fn certify_all<'a>(
    tracer: &Tracer,
    designs: impl IntoIterator<Item = &'a Arc<CompiledPipeline>>,
) -> (f64, bool) {
    let mut ms = 0.0;
    let mut accepted = true;
    for design in designs {
        let _span = tracer.span("verify.certify");
        let t0 = Instant::now();
        let cert = design.certify();
        ms += secs(t0) * 1e3;
        accepted &= cert.accepted();
    }
    (ms, accepted)
}

/// Notes each span name's total self time and writes the run's spans
/// under the build directory of the checkout.
pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer, report: &mut Report) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned());
    let path = std::path::Path::new(&dir)
        .join("perfbench-trace")
        .join(format!("{workload}-seed{seed}.jsonl"));
    let spans = &tracer.spans();
    let self_ns = trace::self_times(spans);
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (span, ns) in spans.iter().zip(self_ns) {
        match by_layer.iter_mut().find(|(n, _)| *n == span.name) {
            Some(entry) => entry.1 += ns,
            None => by_layer.push((span.name, ns)),
        }
    }
    let self_ms: Vec<String> = by_layer
        .iter()
        .map(|(n, ns)| format!("\"{n}\": {}", *ns as f64 / 1e6))
        .collect();
    report.note("self_ms", format!("{{{}}}", self_ms.join(", ")));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => report.note("spans", format!("\"{}\"", path.display())),
        Err(err) => report.note("spans_error", format!("\"{err}\"")),
    }
}

/// What one traced `Session::stream` call showed at its boundaries.
#[derive(Debug, Default)]
pub struct StreamTrace {
    pub wall_ms: f64,
    pub pulls: Vec<Pull>,
    pub lookups: Vec<Lookup>,
    /// From the pull that ended the stream to the call's return: the
    /// window of the execute phase, which `Session::stream` runs after
    /// it has pulled and compiled every frame. The executes inside it
    /// happen past any probe, so the window also holds the phase's own
    /// orchestration (spawning workers, assembling the report).
    pub exec_phase_ms: f64,
    /// Time in the pull and lookup spans.
    pub children_ms: f64,
    /// Per frame: from its compile finishing to the execute phase
    /// starting.
    pub queue_ms: Vec<f64>,
}

/// Runs `session.stream` over `source` with the source timed and the
/// session's timed cache (sharing `lookups`) recording lookups.
pub fn traced_stream<S: FrameSource>(
    tracer: &Tracer,
    session: &mut Session,
    source: S,
    options: &StreamOptions,
    lookups: &Log<Lookup>,
) -> (Result<StreamReport, CompileError>, StreamTrace) {
    let pull_log = Log::default();
    let span = tracer.span("session.stream");
    let t0 = Instant::now();
    let result = session.stream(
        TimedSource::new(source, tracer.clone(), Arc::clone(&pull_log)),
        options,
    );
    let t1 = Instant::now();
    let pulls = drain(&pull_log);
    let lookups = drain(lookups);
    let phase_start = pulls
        .last()
        .map_or(t0, |p| p.start + Duration::from_nanos(p.ns));
    tracer.record("sim.execute_phase", phase_start, t1);
    drop(span);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let wall_ms = ms(t1 - t0);
    let exec_phase_ms = ms(t1.saturating_duration_since(phase_start));
    let children_ms = pull_ms(&pulls) + lookups.iter().map(|l| l.ns as f64).sum::<f64>() / 1e6;
    let trace = StreamTrace {
        wall_ms,
        children_ms,
        exec_phase_ms,
        queue_ms: lookups
            .iter()
            .map(|l| ms(phase_start.saturating_duration_since(l.end)))
            .collect(),
        pulls,
        lookups,
    };
    (result, trace)
}

/// Checks one repetition's stream and returns the frames it delivered
/// clean; a failed check counts every frame of the repetition failed.
pub fn check_stream(
    report: &mut Report,
    label: &str,
    frames: usize,
    n_chunks: u64,
    result: &Result<StreamReport, streamgrid_core::pipeline::CompileError>,
    baseline: Option<&StreamReport>,
    expected_solves: Option<u64>,
) -> u64 {
    report.attempted += frames as u64;
    let Ok(stream) = result else {
        report.check(format!("{label}: stream compiles"), false);
        report.failed += frames as u64;
        return 0;
    };
    let distinct = compile_keys(stream, n_chunks).len() as u64;
    let mut ok = report.check(
        format!("{label}: every frame delivered"),
        stream.frame_count() == frames as u64,
    );
    if let Some(solves) = expected_solves {
        ok &= report.check(
            format!("{label}: solves equal the expected count"),
            stream.solver_invocations == solves,
        );
    } else {
        ok &= report.check(
            format!("{label}: solves equal the distinct compile keys"),
            stream.solver_invocations == distinct,
        );
    }
    if let Some(first) = baseline {
        ok &= report.check(
            format!("{label}: stream report repeats bit for bit"),
            stream.frames == first.frames,
        );
    }
    let clean = if ok {
        stream.frames.iter().filter(|f| f.report.is_clean()).count() as u64
    } else {
        0
    };
    report.failed += frames as u64 - clean.min(frames as u64);
    clean
}

/// The compile keys of `stream` — scheduled sizes that split into the
/// same chunk size (`⌈size / n_chunks⌉`) share one design — each with
/// one scheduled size that maps to it and its frame count.
pub fn compile_keys(stream: &StreamReport, n_chunks: u64) -> BTreeMap<u64, (u64, u64)> {
    let mut keys = BTreeMap::new();
    for f in &stream.frames {
        let size = f.scheduled_elements;
        keys.entry(size.div_ceil(n_chunks)).or_insert((size, 0)).1 += 1;
    }
    keys
}

/// The design `session` compiled for each compile key of `stream`
/// (cache hits).
pub fn designs(
    session: &mut Session,
    stream: &StreamReport,
    n_chunks: u64,
) -> BTreeMap<u64, Arc<CompiledPipeline>> {
    compile_keys(stream, n_chunks)
        .into_iter()
        .map(|(key, (size, _))| {
            let design = session.compiled(size).expect("streamed design is cached");
            (key, design)
        })
        .collect()
}

/// `peak_rss_mib` and the sim metrics over `frames`.
pub fn sim_metrics<'a>(report: &mut Report, frames: impl Iterator<Item = &'a FrameReport>) {
    let (mut n, mut cycles, mut uj, mut onchip) = (0u64, 0u64, 0.0, 0u64);
    for f in frames {
        n += 1;
        cycles += f.report.run.cycles;
        uj += f.report.total_uj();
        onchip = onchip.max(f.report.onchip_bytes());
    }
    let n = n.max(1) as f64;
    report.metric("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
    report.metric("sim_cycles_per_frame", cycles as f64 / n);
    report.metric("energy_uj_per_frame", uj / n);
    report.metric("onchip_kib", onchip as f64 / 1024.0);
}

/// `latency_p50_ms`, and `latency_tail_ms` at the workload's fixed
/// quantile `q`; a sample with fewer than ten beyond `q` fails the run.
pub fn latency_metrics(report: &mut Report, samples_ms: &[f64], q: f64) {
    report.note("latency_samples", samples_ms.len());
    report.note("latency_tail_quantile", q);
    let tail = stats::tail(samples_ms, q);
    report.check("the latency tail has ten samples beyond it", tail.is_some());
    report.metric("latency_p50_ms", stats::median(samples_ms).unwrap_or(0.0));
    report.metric("latency_tail_ms", tail.unwrap_or(0.0));
}

/// `stream.unattributed_ms` and `trace.covered_frac` of traced streams:
/// their wall time less the pull and lookup spans and less the execute
/// time the phase would take with nothing around it — Σ solo execute
/// over the frames, `solo_sum_ms`, spread over `parallel` workers. The
/// executes run inside `Session::stream`, out of a probe's reach, so
/// their share is inferred from solo times, not measured in place: what
/// remains is orchestration plus any slowdown of in-run executes against
/// solo ones (`exec.inflation`).
pub fn stream_coverage(
    report: &mut Report,
    traces: &[StreamTrace],
    solo_sum_ms: f64,
    parallel: usize,
) {
    let wall: f64 = traces.iter().map(|t| t.wall_ms).sum();
    let children: f64 = traces.iter().map(|t| t.children_ms).sum();
    let unattributed = wall - children - solo_sum_ms / parallel.max(1) as f64;
    report.metric("stream.unattributed_ms", unattributed);
    report.metric("trace.covered_frac", 1.0 - unattributed / wall);
    report.note("stream_ms", wall);
}

/// `bucket.*` over `streams`, each with its chunk count.
pub fn bucket_metrics(report: &mut Report, streams: &[(&StreamReport, u64)]) {
    let keys: usize = streams.iter().map(|(s, n)| compile_keys(s, *n).len()).sum();
    let scheduled: u64 = streams.iter().map(|(s, _)| s.scheduled_elements()).sum();
    let source: u64 = streams.iter().map(|(s, _)| s.source_elements()).sum();
    report.metric("bucket.distinct_keys", keys as f64);
    report.metric(
        "bucket.overhead_frac",
        scheduled as f64 / source.max(1) as f64 - 1.0,
    );
}

/// `sim.*` counters over `frames`.
pub fn sim_counters<'a>(report: &mut Report, frames: impl Iterator<Item = &'a FrameReport>) {
    let (mut n, mut stall, mut starved, mut dram) = (0u64, 0u64, 0u64, 0u64);
    for f in frames {
        n += 1;
        stall += f.report.run.stall_cycles;
        starved += f.report.run.starved_cycles;
        dram += f.report.dram_bytes();
    }
    report.metric("sim.stall_cycles", stall as f64);
    report.metric("sim.starved_cycles", starved as f64);
    report.metric("sim.dram_bytes_per_frame", dram as f64 / n.max(1) as f64);
}

/// Executes every design once per engine (spans and `exec.*`) and
/// checks the event engine matches the oracle wherever both are exact
/// (designs with deterministic termination). Returns each design's time
/// (ms) on the engine `ExecMode::Auto` picks for it — what a stream
/// runs.
pub fn engine_metrics<'a>(
    report: &mut Report,
    tracer: &Tracer,
    designs: impl IntoIterator<Item = (&'a Arc<CompiledPipeline>, ExecuteOptions)>,
) -> Vec<f64> {
    let mut event = Vec::new();
    let mut oracle = Vec::new();
    let mut agree = true;
    let mut solo = Vec::new();
    for (design, exec) in designs {
        let exec = &exec;
        let (ms_o, run_o) = execute_on(tracer, design, exec, Engine::Oracle);
        oracle.push((ms_o, run_o.run.cycles));
        if design.config.termination.is_some() {
            let (ms_e, run_e) = execute_on(tracer, design, exec, Engine::Event);
            agree &= same_run(&run_e, &run_o);
            event.push((ms_e, run_e.run.cycles));
            solo.push(ms_e);
        } else {
            solo.push(ms_o);
        }
    }
    report.check("event engine matches the oracle on every design", agree);
    exec_metrics(report, Engine::Event, &event);
    exec_metrics(report, Engine::Oracle, &oracle);
    solo
}
