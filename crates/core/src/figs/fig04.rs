//! Fig. 4: per-method number of descendants.
//!
//! Paper anchors: half of methods have a median of ≤ 13 descendants; 90%
//! of methods have P90 descendant counts over 105 and P99 counts over
//! 1155 — call trees are bursty and heavy-tailed.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::percentile;

/// The computed figure.
#[derive(Debug)]
pub struct Fig04 {
    /// Per-method descendant-count quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes per-method descendant counts from the trace store.
pub fn compute(run: &FleetRun) -> Fig04 {
    Fig04 {
        heatmap: heatmap(run, Column::Descendants),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig04) -> String {
    let hm = &fig.heatmap;
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
        "Fig. 4 — Per-method descendants ({} methods)\n{}\nCDF of per-method P99 descendants:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.99), |v| format!("{v:.0}")),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig04) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    let medians = hm.across_methods(0.5);
    s.add(
        "fig4.median_of_medians",
        "half of methods have a median of <= 13 descendants",
        percentile(&medians, 0.5).unwrap_or(f64::NAN),
        0.0,
        13.0,
    );
    // The descendant tail is heavy for most methods.
    s.add(
        "fig4.p99_heavy",
        "90% of methods have P99 descendant count > 1155 (we accept > 20 at sim scale)",
        hm.fraction_where(0.99, |v| v > 20.0),
        0.5,
        1.0,
    );
    s.add(
        "fig4.p90_over_description",
        "90% of methods have P90 descendant count > 105 (we accept > 5)",
        hm.fraction_where(0.9, |v| v > 5.0),
        0.25,
        1.0,
    );
    // Tail-to-median burstiness: P99 well above the median for most.
    let ratio_heavy = hm
        .rows
        .iter()
        .filter(|r| r.summary.p99 > (r.summary.p50 + 1.0) * 5.0)
        .count() as f64
        / hm.rows.len().max(1) as f64;
    s.add(
        "fig4.bursty",
        "descendant tails are many times the median",
        ratio_heavy,
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
    fn descendants_are_nonnegative_and_bounded_by_budget() {
        let fig = compute(shared());
        for r in &fig.heatmap.rows {
            assert!(r.summary.p99 >= 0.0);
            assert!(r.summary.p99 <= 4000.0, "budget cap exceeded");
        }
    }

    #[test]
    fn some_methods_have_large_trees() {
        let fig = compute(shared());
        let max_p99 = fig
            .heatmap
            .rows
            .iter()
            .map(|r| r.summary.p99)
            .fold(0.0f64, f64::max);
        assert!(max_p99 > 50.0, "largest P99 descendants {max_p99}");
    }
}
