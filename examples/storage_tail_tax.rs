//! Storage tail tax: where does a storage RPC's tail come from?
//!
//! The paper's §3.3 workflow on one service: take the fleet's most
//! popular storage method (Network Disk `Write`), break its completion
//! time into the nine Fig. 9 components, then run the Fig. 15 what-if
//! analysis to see which component substitution cures the most tail RPCs.
//!
//! ```text
//! cargo run --release --example storage_tail_tax
//! ```

use rpclens::core::render::fmt_secs;
use rpclens::core::whatif::what_if_p95;
use rpclens::prelude::*;
use rpclens::rpcstack::component::LatencyComponent;
use rpclens::simcore::stats::{percentile, sorted_finite};

fn main() {
    let run = run_fleet(FleetConfig::at_scale(SimScale::smoke()));

    // Find Network Disk Write.
    let disk = run
        .catalog
        .service_by_name("NetworkDisk")
        .expect("catalog pins NetworkDisk");
    let write = run
        .catalog
        .methods()
        .iter()
        .find(|m| m.service == disk.id && m.name == "Write")
        .expect("catalog pins Write")
        .id;

    // Collect intra-cluster breakdowns.
    let query = MethodQuery {
        intra_cluster_only: true,
        min_samples: 1,
        ..MethodQuery::default()
    };
    let mut breakdowns = Vec::new();
    let mut totals = Vec::new();
    query.for_each(&run.store, write, |_, span| {
        breakdowns.push(span.breakdown());
        totals.push(span.total_latency().as_secs_f64());
    });
    let sorted = sorted_finite(totals);
    println!(
        "NetworkDisk.Write: {} intra-cluster samples, P50 {} / P95 {} / P99 {}",
        breakdowns.len(),
        fmt_secs(percentile(&sorted, 0.5).expect("samples")),
        fmt_secs(percentile(&sorted, 0.95).expect("samples")),
        fmt_secs(percentile(&sorted, 0.99).expect("samples")),
    );

    // Mean per-component breakdown.
    println!("\nmean component breakdown:");
    for c in LatencyComponent::ALL {
        let mean: f64 = breakdowns
            .iter()
            .map(|b| b.get(c).as_secs_f64())
            .sum::<f64>()
            / breakdowns.len().max(1) as f64;
        println!("  {:>28}: {}", c.label(), fmt_secs(mean));
    }

    // What-if: which single component, set to its median, cures the most
    // P95-tail writes?
    let result = what_if_p95(&breakdowns).expect("enough samples");
    println!(
        "\nwhat-if on {} tail writes (P95 = {}):",
        result.tail_count,
        fmt_secs(result.p95_secs)
    );
    for c in LatencyComponent::ALL {
        println!(
            "  fixing {:>28} cures {:>5.1}% of the tail",
            c.label(),
            result.cured(c) * 100.0
        );
    }
    println!("\ndominant tail cause: {}", result.dominant().label());
}
