//! Fig. 2: per-method RPC completion time (RCT), sorted by median.
//!
//! Paper anchors: for 90% of methods P1 ≤ 657 µs; 90% of methods have a
//! median ≥ 10.7 ms; ≥ 99.5% of methods have P99 ≥ 1 ms; 50% of methods
//! have P99 ≥ 225 ms; the slowest 5% of methods have P1 ≥ 166 ms and
//! P99 ≥ 5 s. The overall message: per-method latency spans µs to
//! seconds, with enormous within-method spread.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column, MethodHeatmap};
use crate::render::{fmt_secs, sketch_cdf, TextTable};
use rpclens_fleet::driver::FleetRun;

/// The computed figure: the per-method latency heatmap.
#[derive(Debug)]
pub struct Fig02 {
    /// Per-method RCT quantiles, sorted by median.
    pub heatmap: MethodHeatmap,
}

/// Computes the figure from a fleet run.
pub fn compute(run: &FleetRun) -> Fig02 {
    Fig02 {
        heatmap: heatmap(run, Column::Latency),
    }
}

/// Renders the heatmap (sampled rows) and the across-method CDFs.
pub fn render(fig: &Fig02) -> String {
    let hm = &fig.heatmap;
    let mut t = TextTable::new(&["method#", "P1", "P10", "P50", "P90", "P99"]);
    let step = (hm.len() / 20).max(1);
    for (i, row) in hm.rows.iter().enumerate().step_by(step) {
        t.row(vec![
            i.to_string(),
            fmt_secs(row.summary.p01),
            fmt_secs(row.summary.p10),
            fmt_secs(row.summary.p50),
            fmt_secs(row.summary.p90),
            fmt_secs(row.summary.p99),
        ]);
    }
    format!(
        "Fig. 2 — Per-method RPC completion time ({} methods, sorted by median)\n{}\n\
         CDF of per-method medians:\n{}\nCDF of per-method P99s:\n{}",
        hm.len(),
        t.render(),
        sketch_cdf(&hm.across_methods(0.5), fmt_secs),
        sketch_cdf(&hm.across_methods(0.99), fmt_secs),
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig02) -> ExpectationSet {
    let hm = &fig.heatmap;
    let mut s = ExpectationSet::new();
    // Fast first percentiles: most methods can complete fast sometimes.
    s.add(
        "fig2.p01_sub_3ms",
        "for 90% of methods, P1 latency is 657us or less",
        hm.fraction_where(0.01, |v| v <= 3e-3),
        0.6,
        1.0,
    );
    // Millisecond medians dominate.
    s.add(
        "fig2.median_ge_5ms",
        "90% of methods have median latency >= 10.7ms",
        hm.fraction_where(0.5, |v| v >= 5e-3),
        0.6,
        1.0,
    );
    s.add(
        "fig2.p99_ge_1ms",
        ">= 99.5% of methods have P99 >= 1ms",
        hm.fraction_where(0.99, |v| v >= 1e-3),
        0.95,
        1.0,
    );
    s.add(
        "fig2.half_p99_ge_50ms",
        "50% of methods have P99 >= 225ms",
        hm.fraction_where(0.99, |v| v >= 50e-3),
        0.35,
        1.0,
    );
    // Slowest 5% of methods: still fast sometimes, very slow at P99.
    let slow_p99 = hm.quantile_of_quantiles(0.99, 0.95).unwrap_or(f64::NAN);
    s.add(
        "fig2.slowest5pct_p99",
        "slowest 5% of methods have P99 >= 5s",
        slow_p99,
        0.5,
        f64::INFINITY,
    );
    // The full dynamic range of medians spans from sub-ms to 100ms+.
    let medians = hm.across_methods(0.5);
    let range =
        medians.last().copied().unwrap_or(f64::NAN) / medians.first().copied().unwrap_or(f64::NAN);
    s.add(
        "fig2.median_dynamic_range",
        "method medians span hundreds of us to seconds",
        range,
        50.0,
        f64::INFINITY,
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
    fn heatmap_has_many_methods_and_is_sorted() {
        let fig = compute(shared());
        assert!(fig.heatmap.len() > 30, "{}", fig.heatmap.len());
        assert!(fig
            .heatmap
            .rows
            .windows(2)
            .all(|w| w[0].summary.p50 <= w[1].summary.p50));
    }

    #[test]
    fn within_method_quantiles_are_ordered() {
        let fig = compute(shared());
        for r in &fig.heatmap.rows {
            assert!(r.summary.p01 <= r.summary.p50);
            assert!(r.summary.p50 <= r.summary.p99);
        }
    }

    #[test]
    fn render_contains_cdf_panels() {
        let fig = compute(shared());
        let text = render(&fig);
        assert!(text.contains("Fig. 2"));
        assert!(text.contains("CDF of per-method P99s"));
    }
}
