//! Fig. 1: normalized RPS per CPU cycle over 700 days.
//!
//! Paper anchors: ~30% annual growth of the RPS/CPU ratio, 64% total over
//! the measurement window, with weekly seasonality visible.

use crate::check::ExpectationSet;
use crate::render::TextTable;
use rpclens_fleet::growth::{GrowthConfig, GrowthModel};
use rpclens_simcore::time::SimDuration;
use rpclens_tsdb::store::TimeSeriesDb;

/// The computed figure.
#[derive(Debug)]
pub struct Fig01 {
    /// `(day, normalized RPS/CPU)` series.
    pub series: Vec<(u32, f64)>,
    /// Total growth over the window (final / initial).
    pub total_growth: f64,
    /// Implied annual growth rate.
    pub annual_rate: f64,
}

/// Computes the figure by generating the growth counters, storing them in
/// a TSDB, and deriving the ratio from TSDB rate queries — the same
/// pipeline a production monitoring system would run.
pub fn compute(config: &GrowthConfig) -> Fig01 {
    let model = GrowthModel::new(config.clone());
    let mut db = TimeSeriesDb::new(SimDuration::from_hours(24));
    model.populate(&mut db);
    let rpc_rates = db.series("fleet/rpc/total").expect("populated").rate();
    let cycle_rates = db.series("fleet/cpu/cycles").expect("populated").rate();
    let mut series = Vec::with_capacity(rpc_rates.len());
    let mut base = None;
    for (i, ((_, r), (_, c))) in rpc_rates.iter().zip(cycle_rates.iter()).enumerate() {
        if *c <= 0.0 {
            continue;
        }
        let ratio = r / c;
        let b = *base.get_or_insert(ratio);
        series.push((i as u32 + 1, ratio / b));
    }
    let total_growth = series.last().map(|&(_, v)| v).unwrap_or(f64::NAN);
    let days = series.last().map(|&(d, _)| d).unwrap_or(1) as f64;
    let annual_rate = total_growth.powf(365.25 / days) - 1.0;
    Fig01 {
        series,
        total_growth,
        annual_rate,
    }
}

/// Renders the figure as a monthly-sampled table.
pub fn render(fig: &Fig01) -> String {
    let mut t = TextTable::new(&["day", "normalized RPS/CPU"]);
    for (d, v) in fig.series.iter().step_by(30) {
        t.row(vec![d.to_string(), format!("{v:.3}")]);
    }
    if let Some(last) = fig.series.last() {
        t.row(vec![last.0.to_string(), format!("{:.3}", last.1)]);
    }
    format!(
        "Fig. 1 — Normalized RPS per CPU cycle over {} days\n{}\ntotal growth {:.2}x, annual rate {:.1}%\n",
        fig.series.len(),
        t.render(),
        fig.total_growth,
        fig.annual_rate * 100.0
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig01) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig1.total_growth",
        "64% total increase over the window",
        fig.total_growth,
        1.45,
        1.85,
    );
    s.add(
        "fig1.annual_rate",
        "~30% annual growth of RPS/CPU",
        fig.annual_rate,
        0.22,
        0.38,
    );
    // Weekly seasonality: consecutive-day ratio must wiggle.
    let wiggle = fig
        .series
        .windows(2)
        .filter(|w| (w[1].1 - w[0].1).abs() / w[0].1 > 0.005)
        .count() as f64
        / fig.series.len().max(1) as f64;
    s.add(
        "fig1.seasonality",
        "weekly seasonality visible in the daily series",
        wiggle,
        0.2,
        1.0,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pass_at_default_config() {
        let fig = compute(&GrowthConfig::default());
        let checks = checks(&fig);
        assert!(checks.all_passed(), "{checks}");
    }

    #[test]
    fn series_is_normalized_to_day_one() {
        let fig = compute(&GrowthConfig::default());
        assert!((fig.series[0].1 - 1.0).abs() < 1e-9);
        assert_eq!(fig.series.len(), 699); // Rates start at day 2.
    }

    #[test]
    fn render_mentions_growth() {
        let fig = compute(&GrowthConfig::default());
        let text = render(&fig);
        assert!(text.contains("Fig. 1"));
        assert!(text.contains("annual rate"));
    }
}
