//! Engine-loop benchmark: cycle-accurate oracle vs event-driven fast
//! path on the registry presets, across chunk counts.
//!
//! For every `(pipeline, n_chunks)` point both engines execute the same
//! compiled design; the harness asserts their run reports are
//! bit-identical, prints the wall-time speedup, and serializes every run
//! to `BENCH_engine.json` ([`streamgrid_bench::report`]) so the perf
//! trajectory has machine-readable data.
//!
//! `--smoke` runs one tiny sweep (CI's bench-smoke job); the full sweep
//! reaches `n_chunks = 256`, where the event engine's steady-state
//! period skip should deliver well over a 10× engine-loop speedup.
//! `--only <substring>` keeps only the pipelines whose registry name
//! contains the substring (composes with `--smoke`, whose sweep sizes
//! it leaves untouched).

use std::time::{Duration, Instant};

use streamgrid_bench::report::{BenchReport, RunRecord};
use streamgrid_core::framework::{CompiledPipeline, ExecMode, ExecuteOptions, ExecutionReport};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;

/// Elements each chunk streams from the source (paper-scale points×3).
const CHUNK_ELEMENTS: u64 = 300;

fn timed_run(
    compiled: &CompiledPipeline,
    options: ExecuteOptions,
    mode: ExecMode,
) -> (ExecutionReport, Duration) {
    let options = options.with_exec_mode(mode);
    let t0 = Instant::now();
    let report = compiled.execute(&options);
    (report, t0.elapsed())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let selected = |name: &str| only.as_deref().is_none_or(|s| name.contains(s));
    let seed = 1;
    streamgrid_bench::banner(
        "bench_engine — execution-engine loop, oracle vs event-driven",
        "event-driven engine is bit-identical under DT and ≥10x faster at n_chunks ≥ 256",
        seed,
    );
    let chunk_counts: &[u64] = if smoke { &[4, 16] } else { &[4, 16, 64, 256] };
    let registry = PipelineRegistry::with_paper_apps();
    let mut report = BenchReport::new("bench_engine", seed);

    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "pipeline", "chunks", "cycles", "oracle (ms)", "event (ms)", "speedup"
    );
    let mut worst_large_speedup = f64::INFINITY;
    for spec in registry.specs() {
        if !selected(spec.name()) {
            continue;
        }
        for &n in chunk_counts {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(n as u32, 2)));
            let elements = n * CHUNK_ELEMENTS;
            // Compile once up front so the timings isolate the engine
            // loop from the ILP solve.
            let compiled = fw
                .compile_spec(spec, elements)
                .expect("CS+DT design compiles");
            let options = ExecuteOptions::for_spec(spec);
            let t_cert = Instant::now();
            let cert = compiled.certify();
            let certify_ms = t_cert.elapsed().as_secs_f64() * 1e3;
            assert!(
                cert.accepted(),
                "{}/{n}: schedule certificate rejected:\n{}",
                spec.name(),
                cert.render()
            );

            let (oracle, t_oracle) = timed_run(&compiled, options, ExecMode::CycleAccurate);
            let (event, t_event) = timed_run(&compiled, options, ExecMode::EventDriven);
            assert_eq!(
                oracle.run,
                event.run,
                "{}/{n}: engines diverged — the equivalence guarantee is broken",
                spec.name()
            );
            assert!(oracle.is_clean() && event.is_clean());

            let speedup = t_oracle.as_secs_f64() / t_event.as_secs_f64().max(1e-9);
            if n >= 256 {
                worst_large_speedup = worst_large_speedup.min(speedup);
            }
            println!(
                "{:<16} {:>8} {:>10} {:>12.3} {:>12.3} {:>8.1}x",
                spec.name(),
                n,
                oracle.run.cycles,
                t_oracle.as_secs_f64() * 1e3,
                t_event.as_secs_f64() * 1e3,
                speedup
            );
            report.push(
                RunRecord::from_report(spec.name(), n, elements, &oracle, t_oracle)
                    .with_certify_ms(certify_ms),
            );
            report.push(
                RunRecord::from_report(spec.name(), n, elements, &event, t_event)
                    .with_certify_ms(certify_ms),
            );
        }
    }

    let path = report.write_default().expect("report file is writable");
    println!("\nwrote {} records to {}", report.len(), path.display());
    if !smoke && worst_large_speedup.is_finite() {
        println!("worst speedup at n_chunks >= 256: {worst_large_speedup:.1}x (target: >= 10x)");
    }
}
