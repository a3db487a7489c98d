//! Fig. 7: per-method response/request size ratio.
//!
//! Paper anchors: a ratio > 1 marks a read-dominant RPC, < 1 a
//! write-dominant one; most methods have a median ratio below 1 (most
//! RPCs write), yet every method serves both directions with heavy tails
//! both ways.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;

/// The computed figure.
#[derive(Debug)]
pub struct Fig07 {
    /// Per-method response/request ratio quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig07 {
    Fig07 {
        heatmap: heatmap(run, Column::ResponseRatio),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig07) -> String {
    let hm = &fig.heatmap;
    let mut t = TextTable::new(&["method#", "P10", "P50", "P90"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            format!("{:.3}", row.summary.p10),
            format!("{:.3}", row.summary.p50),
            format!("{:.3}", row.summary.p90),
        ]);
    }
    format!(
        "Fig. 7 — Per-method response/request ratio ({} methods)\n{}\nCDF of per-method median ratios:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.5), |v| format!("{v:.3}")),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig07) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    s.add(
        "fig7.write_dominant_majority",
        "the median ratio for most methods is below 1 (writes dominate)",
        hm.fraction_where(0.5, |v| v < 1.0),
        0.5,
        1.0,
    );
    // Both read- and write-dominant methods exist.
    s.add(
        "fig7.read_dominant_exist",
        "read-dominant methods (ratio > 1) exist too",
        hm.fraction_where(0.5, |v| v > 1.0),
        0.05,
        0.5,
    );
    // Within-method spread: most methods serve both directions, so the
    // P90/P10 ratio spread is wide.
    let spread = hm
        .rows
        .iter()
        .filter(|r| r.summary.p90 > r.summary.p10 * 5.0)
        .count() as f64
        / hm.rows.len().max(1) as f64;
    s.add(
        "fig7.both_directions",
        "methods serve both small and large responses (heavy two-sided tails)",
        spread,
        0.4,
        1.0,
    );
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
    fn disk_write_is_write_dominant_and_read_is_read_dominant() {
        let run = shared();
        let fig = compute(run);
        let disk = run.catalog.service_by_name("NetworkDisk").unwrap().id;
        let find = |name: &str| {
            let id = run
                .catalog
                .methods()
                .iter()
                .find(|m| m.service == disk && m.name == name)
                .unwrap()
                .id;
            fig.heatmap.rows.iter().find(|r| r.method == id).unwrap()
        };
        assert!(find("Write").summary.p50 < 0.5, "Write should push bytes");
        assert!(find("Read").summary.p50 > 2.0, "Read should pull bytes");
    }

    #[test]
    fn ratios_are_positive() {
        let fig = compute(shared());
        for r in &fig.heatmap.rows {
            assert!(r.summary.p01 > 0.0);
        }
    }
}
