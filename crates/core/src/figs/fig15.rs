//! Fig. 15: what-if analysis — percent improvement of tail latency when
//! one component of P95-tail RPCs is replaced by its median.
//!
//! Paper anchor: the component that dominates a service's latency in
//! general is also the main cause of its tail (e.g. Server Application
//! for Network Disk/F1/ML, Server Recv Queue for SSD cache, Response
//! Processing for KV-Store).

use crate::check::ExpectationSet;
use crate::render::TextTable;
use crate::whatif::{what_if_p95, WhatIfResult};
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_trace::query::MethodQuery;

/// One service's what-if row.
#[derive(Debug)]
pub struct WhatIfRow {
    /// Service name (Table 1 server).
    pub name: &'static str,
    /// The what-if result.
    pub result: WhatIfResult,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig15 {
    /// One row per Table 1 service with enough samples.
    pub rows: Vec<WhatIfRow>,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig15 {
    let query = MethodQuery {
        intra_cluster_only: true,
        min_samples: 1,
        ..MethodQuery::default()
    };
    let mut rows = Vec::new();
    for entry in run.catalog.table1() {
        let mut breakdowns = Vec::new();
        query.for_each(&run.store, entry.method, |_, span| {
            breakdowns.push(span.breakdown());
        });
        if let Some(result) = what_if_p95(&breakdowns) {
            rows.push(WhatIfRow {
                name: entry.server,
                result,
            });
        }
    }
    Fig15 { rows }
}

/// Renders the matrix (percent of tail RPCs cured per component).
pub fn render(fig: &Fig15) -> String {
    let mut header = vec!["service"];
    for c in LatencyComponent::ALL {
        header.push(c.label());
    }
    let mut t = TextTable::new(&header);
    for row in &fig.rows {
        let mut cells = vec![row.name.to_string()];
        for c in LatencyComponent::ALL {
            cells.push(format!("{:.1}", row.result.cured(c) * 100.0));
        }
        t.row(cells);
    }
    format!(
        "Fig. 15 — Percent of P95-tail RPCs cured by replacing one component with its median\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig15) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig15.rows",
        "all Table 1 services produce a what-if row",
        fig.rows.len() as f64,
        6.0,
        8.0,
    );
    let dominant_of = |name: &str| {
        fig.rows
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.result.dominant())
    };
    // Application-heavy services are cured by fixing the application.
    for name in ["Network Disk", "ML Inference", "F1"] {
        if let Some(d) = dominant_of(name) {
            s.add(
                &format!("fig15.{}_app", name.replace(' ', "_")),
                "tail cured mainly by the Server Application component",
                (d == LatencyComponent::ServerApplication) as u8 as f64,
                1.0,
                1.0,
            );
        }
    }
    // SSD cache: queue-dominated tail.
    if let Some(d) = dominant_of("SSD cache") {
        s.add(
            "fig15.ssd_queue",
            "SSD cache tail cured mainly by the Server Recv Queue",
            (d == LatencyComponent::ServerRecvQueue) as u8 as f64,
            1.0,
            1.0,
        );
    }
    // Every service: at least one component cures a nontrivial share.
    for row in &fig.rows {
        s.add(
            &format!("fig15.{}_curable", row.name.replace(' ', "_")),
            "some single component explains part of the tail",
            row.result.cured(row.result.dominant()),
            0.05,
            1.0,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testrun::shared;

    #[test]
    fn checks_pass_on_test_run() {
        let fig = compute(shared());
        let c = checks(&fig);
        assert!(c.all_passed(), "{c}");
    }

    #[test]
    fn cured_fractions_are_valid() {
        let fig = compute(shared());
        for row in &fig.rows {
            for c in LatencyComponent::ALL {
                let f = row.result.cured(c);
                assert!((0.0..=1.0).contains(&f), "{}: {f}", row.name);
            }
            assert!(row.result.tail_count > 0);
        }
    }

    #[test]
    fn render_is_a_full_matrix() {
        let fig = compute(shared());
        let text = render(&fig);
        assert!(text.contains("Server Application"));
        assert!(text.lines().count() >= fig.rows.len() + 2);
    }
}
