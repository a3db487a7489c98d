//! Fig. 5: per-method number of ancestors (call-tree depth).
//!
//! Paper anchor: half of methods have fewer than 10 ancestors at the 99th
//! percentile — trees are much wider than they are deep.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::percentile;

/// The computed figure: ancestor and descendant heatmaps (the latter for
/// the wider-than-deep comparison).
#[derive(Debug)]
pub struct Fig05 {
    /// Per-method ancestor-count quantiles, sorted by median.
    pub ancestors: MethodHeatmap,
    /// Per-method descendant-count quantiles (for the comparison).
    pub descendants: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig05 {
    Fig05 {
        ancestors: heatmap(run, Column::Ancestors),
        descendants: heatmap(run, Column::Descendants),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig05) -> String {
    let hm = &fig.ancestors;
    let mut t = TextTable::new(&["method#", "P50", "P90", "P99"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            format!("{:.0}", row.summary.p50),
            format!("{:.0}", row.summary.p90),
            format!("{:.0}", row.summary.p99),
        ]);
    }
    format!(
        "Fig. 5 — Per-method ancestors ({} methods)\n{}\nCDF of per-method P99 ancestors:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.99), |v| format!("{v:.0}")),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig05) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let p99s = fig.ancestors.across_methods(0.99);
    s.add(
        "fig5.half_p99_lt_10",
        "half of methods have < 10 ancestors at P99",
        percentile(&p99s, 0.5).unwrap_or(f64::NAN),
        0.0,
        10.0,
    );
    // Wider than deep: median-method P99 descendants well above
    // median-method P99 ancestors.
    let desc_p99 = percentile(&fig.descendants.across_methods(0.99), 0.5).unwrap_or(f64::NAN);
    let anc_p99 = percentile(&p99s, 0.5).unwrap_or(f64::NAN);
    s.add(
        "fig5.wider_than_deep",
        "descendant counts dwarf ancestor counts (trees wider than deep)",
        desc_p99 / anc_p99.max(1.0),
        2.0,
        f64::INFINITY,
    );
    // Depth never exceeds the driver's cap.
    let max_depth = fig
        .ancestors
        .rows
        .iter()
        .map(|r| r.summary.p99)
        .fold(0.0f64, f64::max);
    s.add(
        "fig5.max_depth_bounded",
        "maximum depths in the low tens (Meta reports 9-19)",
        max_depth,
        2.0,
        24.0,
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
    fn root_only_methods_have_zero_ancestors() {
        let fig = compute(shared());
        // At least one method (a pure entry point) sits at depth 0 even
        // at P99.
        assert!(fig.ancestors.rows.iter().any(|r| r.summary.p50 == 0.0));
    }

    #[test]
    fn storage_methods_sit_deeper_than_frontends() {
        let run = shared();
        let fig = compute(run);
        let depth_of = |svc: &str| -> f64 {
            let service = run.catalog.service_by_name(svc).unwrap().id;
            let rows: Vec<f64> = fig
                .ancestors
                .rows
                .iter()
                .filter(|r| run.catalog.method(r.method).service == service)
                .map(|r| r.summary.p50)
                .collect();
            rows.iter().sum::<f64>() / rows.len().max(1) as f64
        };
        assert!(depth_of("NetworkDisk") > depth_of("WebFrontend"));
    }
}
