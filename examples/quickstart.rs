//! Quickstart: compile a point-cloud pipeline through the full
//! StreamGrid flow (Fig. 1) and compare the Base design against CS+DT,
//! using one reusable session over the classification preset.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

fn main() {
    // A cloud of 4096 points × 3 attributes entering the PointNet++
    // classification pipeline.
    let elements = 4096 * 3;

    println!("StreamGrid quickstart — classification pipeline, {elements} source elements\n");
    println!(
        "{:<10} {:>14} {:>12} {:>11} {:>9} {:>12} {:>13}",
        "variant", "on-chip bytes", "cycles", "mem stalls", "starved", "DRAM bytes", "energy (uJ)"
    );

    let options = ExecuteOptions {
        seed: 42,
        ..ExecuteOptions::for_spec(&AppDomain::Classification.spec())
    };
    // One session over the preset spec; each variant is a config switch
    // and the compile cache keeps every solved schedule around.
    let mut session =
        StreamGrid::new(StreamGridConfig::base()).session(AppDomain::Classification.spec());
    for (label, config) in [
        ("Base", StreamGridConfig::base()),
        ("CS", StreamGridConfig::cs(SplitConfig::paper_cls())),
        ("CS+DT", StreamGridConfig::cs_dt(SplitConfig::paper_cls())),
    ] {
        session.set_config(config);
        let report = session
            .compiled(elements)
            .expect("pipeline compiles")
            .execute(&options);
        println!(
            "{:<10} {:>14} {:>12} {:>11} {:>9} {:>12} {:>13.2}",
            label,
            report.onchip_bytes(),
            report.run.cycles,
            report.run.stall_cycles,
            report.run.starved_cycles,
            report.dram_bytes(),
            report.total_uj(),
        );
    }

    println!("\nCS+DT runs stall-free with the smallest buffers: that is the paper's claim.");
}
