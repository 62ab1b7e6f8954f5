//! Machine-readable bench reports.
//!
//! The figure harnesses print human-readable tables; this module gives
//! the perf trajectory durable data: a [`BenchReport`] collects one
//! [`RunRecord`] per engine execution (cycles, stalls, energy, wall
//! time, exec mode) and serializes them to `BENCH_engine.json`, and a
//! [`StreamBenchReport`] collects one [`StreamRecord`] per
//! `Session::stream` sweep (frames, solves, latency percentiles) into
//! `BENCH_streaming.json`, and a [`ServerBenchReport`] collects one
//! [`ServerRecord`] per QoS class per multi-tenant server sweep
//! (admissions, sheds, wall-clock latency percentiles) into
//! `BENCH_server.json` — plain hand-rolled JSON, since the offline
//! vendored serde has no format crate behind it.
//!
//! Override the output paths with the `BENCH_ENGINE_JSON` /
//! `BENCH_STREAMING_JSON` / `BENCH_SERVER_JSON` environment variables
//! (the CI smoke job points them into a scratch directory).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use std::{fs, io};

use streamgrid_core::framework::ExecutionReport;
use streamgrid_core::source::StreamReport;

/// Default output file, relative to the working directory.
pub const DEFAULT_PATH: &str = "BENCH_engine.json";

/// Default streaming output file, relative to the working directory.
pub const STREAMING_PATH: &str = "BENCH_streaming.json";

/// Default multi-tenant server output file, relative to the working
/// directory.
pub const SERVER_PATH: &str = "BENCH_server.json";

/// One engine execution's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Pipeline name (registry key).
    pub pipeline: String,
    /// Chunks streamed.
    pub n_chunks: u64,
    /// Source elements for the whole cloud.
    pub total_elements: u64,
    /// Engine that ran (`"CycleAccurate"` / `"EventDriven"`) — the
    /// *effective* engine after `Auto` resolution.
    pub exec_mode: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Distinct stalled cycles.
    pub stall_cycles: u64,
    /// Distinct starved cycles.
    pub starved_cycles: u64,
    /// `true` when the run hit its cycle budget before finishing.
    pub truncated: bool,
    /// Provisioned on-chip buffer bytes.
    pub onchip_bytes: u64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Host wall time of the engine run in milliseconds.
    pub wall_time_ms: f64,
    /// Hardware threads the host offered (`available_parallelism`);
    /// wall times — especially for multi-worker runs — are
    /// uninterpretable without it (a 1-core runner shows ~1× speedups
    /// however many threads a sweep asks for).
    pub host_threads: u64,
    /// Wall time of the full-lattice schedule certification
    /// (`CompiledPipeline::certify`) in milliseconds — the static
    /// verifier's cost next to the run it certifies (0 when the harness
    /// did not certify).
    pub certify_ms: f64,
}

impl RunRecord {
    /// Builds a record from an [`ExecutionReport`], the workload
    /// identity the report cannot recover on its own, and the measured
    /// wall time.
    pub fn from_report(
        pipeline: &str,
        n_chunks: u64,
        total_elements: u64,
        report: &ExecutionReport,
        wall: Duration,
    ) -> Self {
        RunRecord {
            pipeline: pipeline.to_owned(),
            n_chunks,
            total_elements,
            exec_mode: format!("{:?}", report.exec_mode),
            cycles: report.run.cycles,
            stall_cycles: report.run.stall_cycles,
            starved_cycles: report.run.starved_cycles,
            truncated: report.run.truncated,
            onchip_bytes: report.onchip_bytes(),
            dram_bytes: report.dram_bytes(),
            energy_uj: report.total_uj(),
            wall_time_ms: wall.as_secs_f64() * 1e3,
            host_threads: host_threads(),
            certify_ms: 0.0,
        }
    }

    /// Returns the record with the certification wall time attached.
    pub fn with_certify_ms(mut self, certify_ms: f64) -> Self {
        self.certify_ms = certify_ms;
        self
    }
}

/// Hardware threads available to this process, as recorded in every
/// bench record (1 when the host cannot say).
pub fn host_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// A harness's collected records, serializable as one JSON document.
#[derive(Debug, Clone)]
pub struct BenchReport {
    harness: String,
    seed: u64,
    records: Vec<RunRecord>,
}

impl BenchReport {
    /// An empty report for the named harness.
    pub fn new(harness: &str, seed: u64) -> Self {
        BenchReport {
            harness: harness.to_owned(),
            seed,
            records: Vec::new(),
        }
    }

    /// Appends one run's record.
    pub fn push(&mut self, record: RunRecord) {
        self.records.push(record);
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"pipeline\": {}, \"n_chunks\": {}, \"total_elements\": {}, \
                     \"exec_mode\": {}, \"cycles\": {}, \
                     \"stall_cycles\": {}, \"starved_cycles\": {}, \"truncated\": {}, \
                     \"onchip_bytes\": {}, \"dram_bytes\": {}, \"energy_uj\": {}, \
                     \"wall_time_ms\": {}, \"host_threads\": {}, \"certify_ms\": {}}}",
                    json_str(&r.pipeline),
                    r.n_chunks,
                    r.total_elements,
                    json_str(&r.exec_mode),
                    r.cycles,
                    r.stall_cycles,
                    r.starved_cycles,
                    r.truncated,
                    r.onchip_bytes,
                    r.dram_bytes,
                    json_f64(r.energy_uj),
                    json_f64(r.wall_time_ms),
                    r.host_threads,
                    json_f64(r.certify_ms),
                )
            })
            .collect();
        json_document(&self.harness, self.seed, &records)
    }

    /// Writes the JSON document to `BENCH_engine.json` (or the
    /// `BENCH_ENGINE_JSON` override) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        write_env_path("BENCH_ENGINE_JSON", DEFAULT_PATH, &self.to_json())
    }
}

/// One `Session::stream` sweep's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecord {
    /// Pipeline name (registry key).
    pub pipeline: String,
    /// Frame source driving the sweep (e.g. `"lidar"`, `"modelnet"`).
    pub source: String,
    /// Bucketing policy (`"Exact"` / `"Pow2"` / `"Quantize(512)"`).
    pub policy: String,
    /// Frames streamed.
    pub frames: u64,
    /// ILP solves the stream paid.
    pub solver_invocations: u64,
    /// Source elements the frames actually carried.
    pub source_elements: u64,
    /// Elements the schedules provisioned for (bucketing overhead =
    /// `scheduled - source`).
    pub scheduled_elements: u64,
    /// Total simulated cycles across all frames.
    pub total_cycles: u64,
    /// Median per-frame cycles.
    pub p50_frame_cycles: u64,
    /// 95th-percentile per-frame cycles.
    pub p95_frame_cycles: u64,
    /// Worst per-frame cycles.
    pub max_frame_cycles: u64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// `true` when every frame ran overflow-, stall- and
    /// truncation-free.
    pub all_clean: bool,
    /// Host wall time of the whole sweep in milliseconds.
    pub wall_time_ms: f64,
    /// Worker threads the frame executions fanned across (1 =
    /// sequential).
    pub workers: u64,
    /// Schedule-cache tier behind the sweep's session (`"private"` for a
    /// session-local in-memory cache, `"file-cold"` / `"file-warm"` for
    /// a `FileCache` sweep before and after its directory is populated).
    pub cache: String,
    /// Engine selection the sweep streamed under (`"Auto"` unless
    /// overridden — e.g. `"CycleAccurate"` for the oracle baseline).
    /// This is the *requested* selection.
    pub exec: String,
    /// Engine the frames actually executed on after `Auto` resolution
    /// (`"Mixed"` when frames disagree, `"-"` for an empty stream) —
    /// differs from [`StreamRecord::exec`] exactly when the runtime
    /// resolved the request.
    pub exec_effective: String,
    /// Hardware threads the host offered (`available_parallelism`) —
    /// without it, identical wall times across a worker sweep cannot be
    /// told apart from a genuinely absent speedup.
    pub host_threads: u64,
    /// Wall time spent certifying the sweep's compiled schedules
    /// (`CompiledPipeline::certify`) in milliseconds (0 when the
    /// harness did not certify).
    pub certify_ms: f64,
}

impl StreamRecord {
    /// Builds a record from a [`StreamReport`], the workload identity
    /// the report cannot recover on its own, and the measured wall
    /// time. Defaults to `workers = 1` and a `"private"` cache; override
    /// with [`StreamRecord::with_workers`] / [`StreamRecord::with_cache`]
    /// (the report itself is deliberately identical across worker counts
    /// and cache tiers, so it cannot carry them).
    pub fn from_stream_report(
        pipeline: &str,
        source: &str,
        report: &StreamReport,
        wall: Duration,
    ) -> Self {
        let exec_effective = match report.frames.first() {
            None => "-".to_owned(),
            Some(first) => {
                let label = format!("{:?}", first.report.exec_mode);
                if report
                    .frames
                    .iter()
                    .all(|f| format!("{:?}", f.report.exec_mode) == label)
                {
                    label
                } else {
                    "Mixed".to_owned()
                }
            }
        };
        StreamRecord {
            pipeline: pipeline.to_owned(),
            source: source.to_owned(),
            policy: format!("{:?}", report.bucketing),
            frames: report.frame_count(),
            solver_invocations: report.solver_invocations,
            source_elements: report.source_elements(),
            scheduled_elements: report.scheduled_elements(),
            total_cycles: report.total_cycles(),
            p50_frame_cycles: report.p50_frame_cycles(),
            p95_frame_cycles: report.p95_frame_cycles(),
            max_frame_cycles: report.max_frame_cycles(),
            energy_uj: report.total_uj(),
            all_clean: report.all_clean(),
            wall_time_ms: wall.as_secs_f64() * 1e3,
            workers: 1,
            cache: "private".to_owned(),
            exec: "Auto".to_owned(),
            exec_effective,
            host_threads: host_threads(),
            certify_ms: 0.0,
        }
    }

    /// Returns the record with the certification wall time attached.
    pub fn with_certify_ms(mut self, certify_ms: f64) -> Self {
        self.certify_ms = certify_ms;
        self
    }

    /// Returns the record with the executing worker count replaced.
    pub fn with_workers(mut self, workers: u64) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the record with the cache-tier label replaced.
    pub fn with_cache(mut self, cache: &str) -> Self {
        self.cache = cache.to_owned();
        self
    }

    /// Returns the record with the engine-selection label replaced.
    pub fn with_exec(mut self, exec: &str) -> Self {
        self.exec = exec.to_owned();
        self
    }
}

/// A streaming harness's collected records, serializable as one JSON
/// document (`BENCH_streaming.json`).
#[derive(Debug, Clone)]
pub struct StreamBenchReport {
    harness: String,
    seed: u64,
    records: Vec<StreamRecord>,
}

impl StreamBenchReport {
    /// An empty report for the named harness.
    pub fn new(harness: &str, seed: u64) -> Self {
        StreamBenchReport {
            harness: harness.to_owned(),
            seed,
            records: Vec::new(),
        }
    }

    /// Appends one sweep's record.
    pub fn push(&mut self, record: StreamRecord) {
        self.records.push(record);
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"pipeline\": {}, \"source\": {}, \"policy\": {}, \"frames\": {}, \
                     \"solver_invocations\": {}, \"source_elements\": {}, \
                     \"scheduled_elements\": {}, \"total_cycles\": {}, \
                     \"p50_frame_cycles\": {}, \"p95_frame_cycles\": {}, \
                     \"max_frame_cycles\": {}, \"energy_uj\": {}, \"all_clean\": {}, \
                     \"wall_time_ms\": {}, \"workers\": {}, \"cache\": {}, \
                     \"exec\": {}, \"exec_effective\": {}, \"host_threads\": {}, \
                     \"certify_ms\": {}}}",
                    json_str(&r.pipeline),
                    json_str(&r.source),
                    json_str(&r.policy),
                    r.frames,
                    r.solver_invocations,
                    r.source_elements,
                    r.scheduled_elements,
                    r.total_cycles,
                    r.p50_frame_cycles,
                    r.p95_frame_cycles,
                    r.max_frame_cycles,
                    json_f64(r.energy_uj),
                    r.all_clean,
                    json_f64(r.wall_time_ms),
                    r.workers,
                    json_str(&r.cache),
                    json_str(&r.exec),
                    json_str(&r.exec_effective),
                    r.host_threads,
                    json_f64(r.certify_ms),
                )
            })
            .collect();
        json_document(&self.harness, self.seed, &records)
    }

    /// Writes the JSON document to `BENCH_streaming.json` (or the
    /// `BENCH_STREAMING_JSON` override) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        write_env_path("BENCH_STREAMING_JSON", STREAMING_PATH, &self.to_json())
    }
}

/// One QoS class's share of a multi-tenant server sweep (plus one
/// `"direct"` baseline record per single-tenant sweep: the same design
/// point run through `Session::stream` without the server, which must
/// be cycle-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerRecord {
    /// QoS class the record covers (`"interactive"` / `"standard"` /
    /// `"background"`), or `"direct"` for the serverless
    /// `Session::stream` baseline.
    pub qos: String,
    /// Total tenants the sweep submitted (the sweep's x-axis).
    pub sweep_tenants: u64,
    /// Tenants admitted under this class.
    pub tenants: u64,
    /// Tenants the whole sweep admitted.
    pub admitted: u64,
    /// Submissions the whole sweep rejected.
    pub rejected: u64,
    /// Frames this class executed.
    pub frames: u64,
    /// Frames this class shed.
    pub shed: u64,
    /// Frames this class degraded to a coarser bucketing.
    pub degraded: u64,
    /// Simulated cycles across this class's executed frames.
    pub total_cycles: u64,
    /// Median wall-clock frame latency (queue + execute), ms.
    pub p50_ms: f64,
    /// 95th-percentile wall-clock frame latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile wall-clock frame latency, ms.
    pub p99_ms: f64,
    /// Worst wall-clock frame latency, ms.
    pub max_ms: f64,
    /// Mean queue wait, ms.
    pub queue_ms: f64,
    /// Mean execute time, ms.
    pub exec_ms: f64,
    /// ILP solves the whole sweep's shared cache performed.
    pub solver_invocations: u64,
    /// Distinct compile keys the sweep's tenant mix spans — with a
    /// shared cache, `solver_invocations == distinct_keys` is the
    /// sharing contract.
    pub distinct_keys: u64,
    /// Worker threads the server executed on.
    pub workers: u64,
    /// Hardware threads the host offered.
    pub host_threads: u64,
    /// Host wall time of the whole sweep in milliseconds.
    pub wall_time_ms: f64,
    /// `true` when every tenant in the sweep finished cleanly.
    pub all_clean: bool,
}

/// A server harness's collected records, serializable as one JSON
/// document (`BENCH_server.json`).
#[derive(Debug, Clone)]
pub struct ServerBenchReport {
    harness: String,
    seed: u64,
    records: Vec<ServerRecord>,
}

impl ServerBenchReport {
    /// An empty report for the named harness.
    pub fn new(harness: &str, seed: u64) -> Self {
        ServerBenchReport {
            harness: harness.to_owned(),
            seed,
            records: Vec::new(),
        }
    }

    /// Appends one class record.
    pub fn push(&mut self, record: ServerRecord) {
        self.records.push(record);
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let records: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"qos\": {}, \"sweep_tenants\": {}, \"tenants\": {}, \
                     \"admitted\": {}, \"rejected\": {}, \"frames\": {}, \"shed\": {}, \
                     \"degraded\": {}, \"total_cycles\": {}, \"p50_ms\": {}, \
                     \"p95_ms\": {}, \"p99_ms\": {}, \"max_ms\": {}, \"queue_ms\": {}, \
                     \"exec_ms\": {}, \"solver_invocations\": {}, \"distinct_keys\": {}, \
                     \"workers\": {}, \"host_threads\": {}, \"wall_time_ms\": {}, \
                     \"all_clean\": {}}}",
                    json_str(&r.qos),
                    r.sweep_tenants,
                    r.tenants,
                    r.admitted,
                    r.rejected,
                    r.frames,
                    r.shed,
                    r.degraded,
                    r.total_cycles,
                    json_f64(r.p50_ms),
                    json_f64(r.p95_ms),
                    json_f64(r.p99_ms),
                    json_f64(r.max_ms),
                    json_f64(r.queue_ms),
                    json_f64(r.exec_ms),
                    r.solver_invocations,
                    r.distinct_keys,
                    r.workers,
                    r.host_threads,
                    json_f64(r.wall_time_ms),
                    r.all_clean,
                )
            })
            .collect();
        json_document(&self.harness, self.seed, &records)
    }

    /// Writes the JSON document to `BENCH_server.json` (or the
    /// `BENCH_SERVER_JSON` override) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        write_env_path("BENCH_SERVER_JSON", SERVER_PATH, &self.to_json())
    }
}

/// The shared report envelope: `{"harness", "seed", "records": [...]}`
/// over pre-rendered record objects. Both report types serialize
/// through this, so their document shapes cannot drift apart.
fn json_document(harness: &str, seed: u64, records: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"harness\": {},", json_str(harness));
    let _ = writeln!(out, "  \"seed\": {},", seed);
    out.push_str("  \"records\": [\n");
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "    {record}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to the `env_var` override path or `default`, returning
/// the path written.
fn write_env_path(env_var: &str, default: &str, json: &str) -> io::Result<PathBuf> {
    let path = PathBuf::from(std::env::var(env_var).unwrap_or_else(|_| default.to_owned()));
    fs::write(&path, json)?;
    Ok(path)
}

/// JSON string literal with minimal escaping (quotes, backslash,
/// control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; clamp those to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str) -> RunRecord {
        RunRecord {
            pipeline: name.to_owned(),
            n_chunks: 4,
            total_elements: 1200,
            exec_mode: "EventDriven".to_owned(),
            cycles: 1234,
            stall_cycles: 0,
            starved_cycles: 7,
            truncated: false,
            onchip_bytes: 4096,
            dram_bytes: 9600,
            energy_uj: 1.25,
            wall_time_ms: 0.5,
            host_threads: 2,
            certify_ms: 0.125,
        }
    }

    #[test]
    fn json_document_shape() {
        let mut r = BenchReport::new("bench_engine", 1);
        r.push(record("classification"));
        r.push(record("registration"));
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"harness\": \"bench_engine\""));
        assert!(json.contains("\"pipeline\": \"classification\""));
        assert!(json.contains("\"exec_mode\": \"EventDriven\""));
        assert!(json.contains("\"host_threads\": 2"));
        assert!(json.contains("\"certify_ms\": 0.125000"));
        assert!(json.trim_end().ends_with('}'));
        // Two records, exactly one separating comma between them.
        assert_eq!(json.matches("\"pipeline\"").count(), 2);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_are_clamped() {
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert!(json_f64(1.5).starts_with("1.5"));
    }

    #[test]
    fn stream_json_document_shape() {
        let mut r = StreamBenchReport::new("bench_streaming", 1);
        r.push(StreamRecord {
            pipeline: "registration".to_owned(),
            source: "lidar".to_owned(),
            policy: "Quantize(512)".to_owned(),
            frames: 64,
            solver_invocations: 3,
            source_elements: 60000,
            scheduled_elements: 63488,
            total_cycles: 99999,
            p50_frame_cycles: 1500,
            p95_frame_cycles: 1600,
            max_frame_cycles: 1700,
            energy_uj: 2.5,
            all_clean: true,
            wall_time_ms: 12.0,
            workers: 4,
            cache: "file-warm".to_owned(),
            exec: "EventDriven".to_owned(),
            exec_effective: "CycleAccurate".to_owned(),
            host_threads: 8,
            certify_ms: 0.25,
        });
        let json = r.to_json();
        assert!(json.contains("\"harness\": \"bench_streaming\""));
        assert!(json.contains("\"policy\": \"Quantize(512)\""));
        assert!(json.contains("\"solver_invocations\": 3"));
        assert!(json.contains("\"all_clean\": true"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"cache\": \"file-warm\""));
        assert!(json.contains("\"exec\": \"EventDriven\""));
        assert!(json.contains("\"exec_effective\": \"CycleAccurate\""));
        assert!(json.contains("\"host_threads\": 8"));
        assert!(json.contains("\"certify_ms\": 0.250000"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn server_json_document_shape() {
        let mut r = ServerBenchReport::new("bench_server", 1);
        r.push(ServerRecord {
            qos: "interactive".to_owned(),
            sweep_tenants: 64,
            tenants: 13,
            admitted: 64,
            rejected: 0,
            frames: 39,
            shed: 0,
            degraded: 0,
            total_cycles: 123456,
            p50_ms: 1.5,
            p95_ms: 2.5,
            p99_ms: 3.5,
            max_ms: 4.0,
            queue_ms: 0.75,
            exec_ms: 1.25,
            solver_invocations: 6,
            distinct_keys: 6,
            workers: 4,
            host_threads: 1,
            wall_time_ms: 250.0,
            all_clean: true,
        });
        let json = r.to_json();
        assert!(json.contains("\"harness\": \"bench_server\""));
        assert!(json.contains("\"qos\": \"interactive\""));
        assert!(json.contains("\"sweep_tenants\": 64"));
        assert!(json.contains("\"tenants\": 13"));
        assert!(json.contains("\"admitted\": 64"));
        assert!(json.contains("\"shed\": 0"));
        assert!(json.contains("\"p99_ms\": 3.500000"));
        assert!(json.contains("\"queue_ms\": 0.750000"));
        assert!(json.contains("\"solver_invocations\": 6"));
        assert!(json.contains("\"distinct_keys\": 6"));
        assert!(json.contains("\"all_clean\": true"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn stream_record_flattens_stream_report() {
        use std::time::Duration;
        use streamgrid_core::apps::AppDomain;
        use streamgrid_core::framework::StreamGrid;
        use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
        use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
        let mut session = fw.session(AppDomain::Classification.spec());
        let report = session
            .stream(
                ReplaySource::new(&[1200, 1250, 1300]),
                &StreamOptions::bucketed(SizeBucketing::Quantize(400)),
            )
            .unwrap();
        let record = StreamRecord::from_stream_report(
            "classification",
            "replay",
            &report,
            Duration::from_millis(5),
        );
        assert_eq!(record.frames, 3);
        assert_eq!(record.solver_invocations, report.solver_invocations);
        assert_eq!(record.source_elements, 1200 + 1250 + 1300);
        assert!(record.scheduled_elements >= record.source_elements);
        assert!(record.all_clean);
        assert_eq!(record.policy, "Quantize(400)");
        // Defaults, and the builder-style overrides bench sweeps use.
        assert_eq!((record.workers, record.cache.as_str()), (1, "private"));
        assert_eq!(record.exec, "Auto");
        // The effective engine comes off the frames themselves, so it
        // can never stay at the unresolved "Auto" label.
        assert_eq!(
            record.exec_effective,
            format!("{:?}", report.frames[0].report.exec_mode)
        );
        assert_ne!(record.exec_effective, "Auto");
        assert_eq!(record.host_threads, host_threads());
        assert!(record.host_threads >= 1);
        assert_eq!(record.certify_ms, 0.0);
        let tagged = record
            .clone()
            .with_workers(8)
            .with_cache("file-cold")
            .with_exec("CycleAccurate")
            .with_certify_ms(1.5);
        assert_eq!((tagged.workers, tagged.cache.as_str()), (8, "file-cold"));
        assert_eq!(tagged.exec, "CycleAccurate");
        assert_eq!(tagged.certify_ms, 1.5);
    }
}
