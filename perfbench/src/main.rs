//! `perfbench` — the StreamGrid frame-path benchmark.
//!
//! ```text
//! perfbench --workload <lidar-cold|dense-variants|server-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. It builds the workload's inputs from
//! `--seed`, repeats the workload's unit of work until `--seconds`
//! have passed (each repetition sets up afresh, then runs the timed
//! region), checks every output, and prints one JSON object as its last
//! line of standard output: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics,
//! measured with no probes in place; with `--trace 1` the run alternates
//! untraced and traced repetitions and reports the per-layer metrics
//! (README.md lists both sets and what each should move).

mod calib;
mod common;
mod dense_variants;
mod lidar_cold;
mod probes;
mod server_mixed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use common::{host_threads, steal_ticks, Report};

/// The benchmark's workloads, by the name `--workload` takes.
const WORKLOADS: [&str; 3] = ["lidar-cold", "dense-variants", "server-mixed"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Every value is printed with all its digits.
fn result_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let steal_before = steal_ticks();
    let report = match args.workload.as_str() {
        "lidar-cold" => lidar_cold::run(args.seed, budget, args.trace),
        "dense-variants" => dense_variants::run(args.seed, budget, args.trace),
        _ => server_mixed::run(args.seed, budget, args.trace),
    };
    // Host diagnostics explain noise; they never select or drop runs.
    let mut diagnostics = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_threads\": {}",
        args.workload,
        args.seed,
        args.trace,
        host_threads()
    );
    if let (Some(before), Some(after)) = (steal_before, steal_ticks()) {
        let _ = write!(
            diagnostics,
            ", \"steal_ticks\": {}",
            after.saturating_sub(before)
        );
    }
    for (key, value) in &report.notes {
        let _ = write!(diagnostics, ", \"{key}\": {value}");
    }
    println!("{{\"diagnostics\": {{{diagnostics}}}}}");
    for check in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("perfbench: check failed: {}", check.name);
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{END_TO_END, PER_LAYER};

    /// The benchmark's declaration at the repository root must name
    /// exactly the workloads and metrics this program reports.
    #[test]
    fn declaration_matches_the_catalogue() {
        let declared = include_str!("../../BENCHMARK.json");
        let compact: String = declared.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} [{unit}] is not declared");
        }
        let declared_metrics = compact.matches("\"unit\":").count();
        assert_eq!(declared_metrics, END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{workload}\",\"why\"")));
        }
        assert_eq!(compact.matches("\"why\":").count(), WORKLOADS.len());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("frames_per_s", 12.5);
        let line = result_line(&report);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"frames_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        report.failed = 1;
        assert!(result_line(&report).starts_with("{\"correct\": false"));
    }

    /// A check that fails after the repetitions (a run-level check)
    /// counts every offered frame failed, so `ok_frac` falls with
    /// `correct`.
    #[test]
    fn a_failed_run_level_check_zeroes_ok_frac() {
        let full = |report: &mut Report| {
            for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "ok_frac") {
                report.metric(name, 1.0);
            }
        };
        let mut clean = Report {
            attempted: 10,
            failed: 2,
            ..Report::default()
        };
        full(&mut clean);
        let clean = clean.finish(false);
        let ok = |r: &Report| {
            r.metrics
                .iter()
                .find(|m| m.name == "ok_frac")
                .unwrap()
                .value
        };
        assert_eq!(clean.failed, 2);
        assert_eq!(ok(&clean), 0.8);

        let mut broken = Report {
            attempted: 10,
            ..Report::default()
        };
        full(&mut broken);
        broken.check("identity against a direct stream", false);
        let broken = broken.finish(false);
        assert!(!broken.correct());
        assert_eq!(broken.failed, 10);
        assert_eq!(ok(&broken), 0.0);
    }
}
