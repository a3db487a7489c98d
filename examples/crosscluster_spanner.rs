//! Cross-cluster Spanner reads: the Fig. 19 experiment, standalone.
//!
//! Probes a Spanner read from every cluster in the topology against the
//! data-home cluster of that client's working set and prints the median
//! latency per distance class, demonstrating that median cross-cluster
//! latency is wire-dominated while the tail is congestion.
//!
//! ```text
//! cargo run --release --example crosscluster_spanner
//! ```

use rpclens::core::figs::fig19;
use rpclens::core::render::fmt_secs;
use rpclens::netsim::topology::PathClass;
use rpclens::prelude::*;

fn main() {
    let run = run_fleet(FleetConfig::at_scale(SimScale::smoke()));
    let fig = fig19::compute(&run);

    // Group medians per distance class.
    let mut by_class: std::collections::BTreeMap<PathClass, Vec<&fig19::ClientRow>> =
        std::collections::BTreeMap::new();
    for row in &fig.rows {
        by_class.entry(row.class).or_default().push(row);
    }
    println!("Spanner read latency by client distance class:");
    for (class, rows) in &by_class {
        let mean_median: f64 = rows.iter().map(|r| r.median).sum::<f64>() / rows.len() as f64;
        let mean_net: f64 = rows.iter().map(|r| r.median_network).sum::<f64>() / rows.len() as f64;
        let mean_wire: f64 = rows.iter().map(|r| r.wire_rtt).sum::<f64>() / rows.len() as f64;
        println!(
            "  {:>28} ({:>2} clients): median {:>9}, network {:>9}, wire RTT {:>9}",
            class.label(),
            rows.len(),
            fmt_secs(mean_median),
            fmt_secs(mean_net),
            fmt_secs(mean_wire),
        );
    }

    println!("\nper-client rows (sorted by class, then median):");
    println!("{}", fig19::render(&fig));

    let checks = fig19::checks(&fig);
    println!("{checks}");
}
