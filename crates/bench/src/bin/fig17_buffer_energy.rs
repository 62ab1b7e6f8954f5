//! Fig. 17: on-chip buffer reduction (a) and normalized energy (b) of
//! CS+DT vs the Base line-buffered design, per application domain
//! (paper: 72% average line-buffer reduction, 40.5% energy savings; the
//! 3DGS Base bar is missing because its buffer exceeds 1 GB and could
//! not be synthesized).

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

/// Per-app workload scale (points × attrs) and chunk count.
fn workload(domain: AppDomain) -> (u64, u64) {
    // (total_elements, n_chunks); datapath intensity comes from the
    // preset spec via `ExecuteOptions::for_spec`.
    match domain {
        AppDomain::Classification => (4096 * 3, 4),
        AppDomain::Segmentation => (4096 * 3, 4),
        AppDomain::Registration => (32_768 * 3, 4),
        // The paper partitions 3DGS into thousands of chunks; Base needs
        // >1 GB and is infeasible.
        AppDomain::NeuralRendering => (262_144 * 8, 64),
    }
}

fn main() {
    let seed = 1;
    streamgrid_bench::banner(
        "Fig. 17 — buffer reduction and normalized energy (CS+DT vs Base)",
        "72% avg line-buffer reduction; 40.5% avg energy savings (SRAM sizing)",
        seed,
    );
    println!(
        "{:<18} {:>14} {:>14} {:>11} {:>13}",
        "domain", "Base buf (KB)", "CS+DT buf (KB)", "reduction", "norm. energy"
    );
    let mut reductions = Vec::new();
    let mut energies = Vec::new();
    for domain in AppDomain::ALL {
        let (elements, n_chunks) = workload(domain);
        let csdt_config = StreamGridConfig::cs_dt(SplitConfig::linear(n_chunks as u32, 2));
        // One session per domain: the CS+DT and Base designs share the
        // spec and resolve through the same compile cache.
        let mut session = StreamGrid::new(csdt_config).session(domain.spec());
        let options = ExecuteOptions::for_spec(session.spec());
        let csdt = session
            .compiled(elements)
            .expect("CS+DT compiles")
            .execute(&options);
        assert!(csdt.is_clean(), "{domain:?}: CS+DT must run stall-free");
        // 3DGS Base: infeasible on-chip buffer — report like the paper.
        if matches!(domain, AppDomain::NeuralRendering) {
            // Size the Base buffer analytically (whole scene resident).
            let base_buf_kb = elements as f64 * 4.0 / 1024.0;
            println!(
                "{:<18} {:>13.0}✗ {:>14.0} {:>11} {:>13}",
                format!("{domain:?}"),
                base_buf_kb,
                csdt.onchip_bytes() as f64 / 1024.0,
                "—",
                "—"
            );
            continue;
        }
        session.set_config(StreamGridConfig::base());
        let base = session
            .compiled(elements)
            .expect("Base compiles")
            .execute(&options);
        let reduction = 1.0 - csdt.onchip_bytes() as f64 / base.onchip_bytes() as f64;
        let norm_energy = csdt.energy.total_pj() / base.energy.total_pj();
        reductions.push(reduction);
        energies.push(norm_energy);
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>10.1}% {:>13.2}",
            format!("{domain:?}"),
            base.onchip_bytes() as f64 / 1024.0,
            csdt.onchip_bytes() as f64 / 1024.0,
            reduction * 100.0,
            norm_energy,
        );
    }
    let avg_red = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let avg_energy = 1.0 - energies.iter().sum::<f64>() / energies.len() as f64;
    println!(
        "\naverages: {:.1}% buffer reduction (paper: 72%), {:.1}% energy savings (paper: 40.5%)",
        avg_red * 100.0,
        avg_energy * 100.0
    );
}
