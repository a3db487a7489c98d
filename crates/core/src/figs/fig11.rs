//! Fig. 11: per-method ratio of latency tax to completion time.
//!
//! Paper anchors: the median-method median tax ratio is 8.6%; for the 10%
//! of methods with the highest overheads the median ratio is 38% and the
//! P90 is 96% — at the tail, entire RPCs are tax.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{fmt_pct, sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::stats::percentile;

/// The computed figure.
#[derive(Debug)]
pub struct Fig11 {
    /// Per-method tax-ratio quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig11 {
    Fig11 {
        heatmap: heatmap(run, Column::TaxRatio),
    }
}

/// Renders the figure.
pub fn render(fig: &Fig11) -> String {
    let hm = &fig.heatmap;
    let mut t = TextTable::new(&["method#", "P10", "P50", "P90", "P99"]);
    let step = (hm.len() / 15).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            fmt_pct(row.summary.p10),
            fmt_pct(row.summary.p50),
            fmt_pct(row.summary.p90),
            fmt_pct(row.summary.p99),
        ]);
    }
    format!(
        "Fig. 11 — Per-method RPC-tax / completion-time ratio ({} methods)\n{}\nCDF of per-method median tax ratios:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.5), fmt_pct),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig11) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    let medians = hm.across_methods(0.5);
    s.add(
        "fig11.median_method_ratio",
        "the median-method tax ratio is 8.6%",
        percentile(&medians, 0.5).unwrap_or(f64::NAN),
        0.005,
        0.30,
    );
    // Top decile of methods by overhead: their median ratio is large.
    s.add(
        "fig11.top_decile_median",
        "for the top-10% overhead methods, the median tax is 38%",
        percentile(&medians, 0.9).unwrap_or(f64::NAN),
        0.10,
        1.0,
    );
    // Tail invocations can be almost pure tax for many methods.
    s.add(
        "fig11.p99_near_total",
        "P99 tax ratio approaches 1 for a meaningful share of methods",
        hm.fraction_where(0.99, |v| v > 0.5),
        0.10,
        1.0,
    );
    s.add(
        "fig11.ratios_valid",
        "tax ratios are proper fractions",
        hm.fraction_where(0.99, |v| (0.0..=1.0).contains(&v)),
        1.0,
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
    fn compute_heavy_methods_have_low_tax_ratio() {
        let run = shared();
        let fig = compute(run);
        let ml = run.catalog.service_by_name("MLInference").unwrap().id;
        for row in &fig.heatmap.rows {
            if run.catalog.method(row.method).service == ml {
                assert!(
                    row.summary.p50 < 0.2,
                    "ML method median tax ratio {}",
                    row.summary.p50
                );
            }
        }
    }
}
