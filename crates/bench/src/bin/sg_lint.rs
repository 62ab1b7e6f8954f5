//! `sg_lint` — the static-verification gate, as a CLI.
//!
//! Default mode lints and certifies every registry preset under each
//! transform variant (Base, CS, CS+DT): the pipeline linter's findings
//! are printed rustc-style, and every compiled schedule's occupancy
//! certificate must accept (the compile path bumps buffers to their
//! certified peaks, so a rejection is a verifier/compiler
//! disagreement). Exits nonzero when any Error-severity lint fires or
//! any certificate rejects — warnings are reported but do not gate.
//!
//! `--mc` instead runs the unified concurrency model checker over
//! every certified protocol in the workspace — the serving layer's
//! work/space dispatch, ledger + FIFO waitlist, and WFQ pick. Each
//! correct protocol must pass exhaustively (within an explicit
//! per-model state budget — a truncated exploration is a failure, not
//! a pass), and every seeded sabotage variant must be *caught* — a
//! sabotage passing means a checker lost its teeth. Any FAIL or MISSED
//! row exits nonzero.

use std::process::ExitCode;
use std::time::Instant;

use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_serve::{
    check_dispatch, check_ledger, check_wfq, DispatchConfig, DispatchVariant, LedgerScenario,
    LedgerVariant, WfqConfig, WfqVariant,
};
use streamgrid_verify::{McConfig, McReport, Severity};

/// Elements each chunk streams from the source (paper-scale points×3).
const CHUNK_ELEMENTS: u64 = 300;

/// Chunks the CS/CS+DT variants split each cloud into.
const N_CHUNKS: u32 = 4;

fn lint_presets() -> ExitCode {
    let variants: [(&str, StreamGridConfig); 3] = [
        ("base", StreamGridConfig::base()),
        ("cs", StreamGridConfig::cs(SplitConfig::linear(N_CHUNKS, 2))),
        (
            "cs_dt",
            StreamGridConfig::cs_dt(SplitConfig::linear(N_CHUNKS, 2)),
        ),
    ];
    let registry = PipelineRegistry::with_paper_apps();
    let elements = u64::from(N_CHUNKS) * CHUNK_ELEMENTS;

    println!(
        "{:<16} {:<8} {:>6} {:>6} {:<10} {:>12}",
        "pipeline", "config", "warn", "error", "cert", "certify (ms)"
    );
    let mut errors = 0u64;
    let mut warnings = 0u64;
    let mut rejected = 0u64;
    let mut findings: Vec<String> = Vec::new();
    for spec in registry.specs() {
        for (label, config) in &variants {
            let mut session = StreamGrid::new(*config).session(spec.clone());
            let compiled = match session.compiled(elements) {
                Ok(c) => c,
                Err(e) => {
                    println!("{:<16} {:<8} compile failed: {e}", spec.name(), label);
                    errors += 1;
                    continue;
                }
            };
            let t0 = Instant::now();
            let cert = compiled.certify();
            let certify_ms = t0.elapsed().as_secs_f64() * 1e3;
            let warn = compiled
                .lints
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count() as u64;
            let err = compiled.lints.len() as u64 - warn;
            warnings += warn;
            errors += err;
            if !cert.accepted() {
                rejected += 1;
            }
            println!(
                "{:<16} {:<8} {:>6} {:>6} {:<10} {:>12.3}",
                spec.name(),
                label,
                warn,
                err,
                if cert.accepted() {
                    "ACCEPTED"
                } else {
                    "REJECTED"
                },
                certify_ms
            );
            findings.extend(
                compiled
                    .lints
                    .iter()
                    .map(|d| format!("{}/{label}: {}", spec.name(), d.render())),
            );
            if !cert.accepted() {
                findings.push(format!("{}/{label}: {}", spec.name(), cert.render()));
            }
        }
    }
    for f in &findings {
        println!("{f}");
    }
    println!("\n{warnings} warning(s), {errors} error(s), {rejected} rejected certificate(s)");
    if errors > 0 || rejected > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Per-model state-count budgets, roughly 4× the exhaustive count the
/// shipped models explore at their largest bounded configuration.
/// Every row runs under its model's budget, and a truncated exploration
/// never passes — so silent state-space growth (a model edit that blows
/// up exploration) fails CI instead of burning it.
const BUDGETS: [(&str, u64); 3] = [
    ("work-space-dispatch", 8_000),
    ("ledger-waitlist", 1_000),
    ("wfq-pick", 2_000),
];

fn budget_for(model: &str) -> u64 {
    BUDGETS
        .iter()
        .find(|(name, _)| *name == model)
        .map(|&(_, b)| b)
        .unwrap_or_else(|| panic!("no state budget for model {model}"))
}

/// Prints one matrix row and returns whether it met `expect_violation`
/// (sabotage rows expect the checker to object; correct rows expect a
/// full clean pass).
fn mc_row(variant: &str, bounds: &str, expect_violation: bool, report: &McReport) -> bool {
    let ok = if expect_violation {
        report.violation.is_some()
    } else {
        report.passed()
    };
    let verdict = match (expect_violation, ok) {
        (false, true) => "PASS",
        (false, false) => "FAIL",
        (true, true) => "CAUGHT",
        (true, false) => "MISSED",
    };
    println!(
        "{:<22} {:<26} {:<12} {:>8} {:>6} {:>8} {:<8}",
        report.model,
        variant,
        bounds,
        report.states_explored,
        report.max_depth,
        budget_for(&report.model),
        verdict
    );
    if let Some(v) = &report.violation {
        println!("  violation: {v}");
    } else if report.truncated {
        println!("  truncated: state budget exhausted before the space was explored");
    }
    ok
}

fn check_mc_matrix() -> ExitCode {
    let mut failed = false;
    println!(
        "{:<22} {:<26} {:<12} {:>8} {:>6} {:>8} {:<8}",
        "model", "variant", "bounds", "states", "depth", "budget", "verdict"
    );
    let mc = |model: &str| McConfig::default().with_max_states(budget_for(model));

    // Serving layer: the scheduler↔worker two-condvar dispatch loop.
    let dispatch_bounds =
        |c: &DispatchConfig| format!("{}w q{} f{}", c.workers, c.queue_depth, c.frames);
    for config in [
        DispatchConfig {
            workers: 1,
            queue_depth: 1,
            frames: 2,
        },
        DispatchConfig {
            workers: 2,
            queue_depth: 1,
            frames: 3,
        },
        DispatchConfig::default(),
    ] {
        let report = check_dispatch(
            &config,
            DispatchVariant::Correct,
            &mc("work-space-dispatch"),
        );
        failed |= !mc_row("correct", &dispatch_bounds(&config), false, &report);
    }
    for (label, variant) in [
        ("skip-work-notify", DispatchVariant::SkipWorkNotify),
        ("skip-space-notify", DispatchVariant::SkipSpaceNotify),
        ("notify-one-on-done", DispatchVariant::NotifyOneOnDone),
        ("pop-without-recheck", DispatchVariant::PopWithoutRecheck),
    ] {
        let config = DispatchConfig::default();
        let report = check_dispatch(&config, variant, &mc("work-space-dispatch"));
        failed |= !mc_row(label, &dispatch_bounds(&config), true, &report);
    }

    // Serving layer: the token ledger + strict-FIFO waitlist, over the
    // default adversarial scenario (a waiting large tenant a small one
    // could bypass, plus an impossible fit).
    let scenario = LedgerScenario::default();
    let ledger_bounds = format!("cap {} x{}", scenario.capacity, scenario.projections.len());
    {
        let report = check_ledger(&scenario, LedgerVariant::Correct, &mc("ledger-waitlist"));
        failed |= !mc_row("correct", &ledger_bounds, false, &report);
    }
    for (label, variant) in [
        ("fifo-bypass", LedgerVariant::FifoBypass),
        ("no-impossible-reject", LedgerVariant::NoImpossibleFitReject),
        ("forget-release", LedgerVariant::ForgetRelease),
    ] {
        let report = check_ledger(&scenario, variant, &mc("ledger-waitlist"));
        failed |= !mc_row(label, &ledger_bounds, true, &report);
    }

    // Serving layer: the WFQ pick, over every bounded arrival order.
    let wfq = WfqConfig::default();
    let wfq_bounds = format!(
        "[{},{},{}] q{}",
        wfq.arrivals[0], wfq.arrivals[1], wfq.arrivals[2], wfq.queue_depth
    );
    {
        let report = check_wfq(&wfq, WfqVariant::Correct, &mc("wfq-pick"));
        failed |= !mc_row("correct", &wfq_bounds, false, &report);
    }
    for (label, variant) in [
        ("strict-priority", WfqVariant::StrictPriority),
        ("forget-served-incr", WfqVariant::ForgetServedIncrement),
    ] {
        let report = check_wfq(&wfq, variant, &mc("wfq-pick"));
        failed |= !mc_row(label, &wfq_bounds, true, &report);
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--mc") {
        check_mc_matrix()
    } else {
        lint_presets()
    }
}
