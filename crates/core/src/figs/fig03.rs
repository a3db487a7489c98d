//! Fig. 3: per-method popularity (relative frequency), sorted by latency.
//!
//! Paper anchors: the 100 lowest-latency methods account for 40% of all
//! calls; Network Disk `Write` alone is 28%; the 10 most popular methods
//! are 58% of calls and the top-100 are 91%; the slowest 1000 methods are
//! 1.1% of calls but 89% of total RPC time.

use crate::check::ExpectationSet;
use crate::common::{heatmap, Column};
use crate::render::{fmt_pct, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_trace::span::MethodId;

/// The computed figure.
#[derive(Debug)]
pub struct Fig03 {
    /// `(method, calls, mean_latency_secs)` sorted by per-method median
    /// latency ascending (the paper's x-axis).
    pub by_latency: Vec<(MethodId, u64, f64)>,
    /// Total calls across all methods (including ineligible ones).
    pub total_calls: u64,
    /// Share of calls taken by the single most popular method.
    pub top_method_share: f64,
    /// Share of calls taken by the 10 most popular methods.
    pub top10_share: f64,
    /// Share of calls taken by the 100 most popular methods.
    pub top100_share: f64,
    /// Share of calls taken by the 100 lowest-latency methods.
    pub fastest100_share: f64,
    /// Call-weighted mean latency-rank percentile: 0 = all calls go to
    /// the fastest method, 0.5 = popularity is independent of latency.
    pub popularity_rank: f64,
    /// Call share of the slowest half of methods.
    pub slowest_half_call_share: f64,
    /// Total-RPC-time share of the slowest half of methods.
    pub slowest_half_time_share: f64,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig03 {
    let heatmap = heatmap(run, Column::Latency);
    let total_calls: u64 = run.method_calls.iter().sum();

    let by_latency: Vec<(MethodId, u64, f64)> = heatmap
        .rows
        .iter()
        .map(|r| {
            (
                r.method,
                run.method_calls[r.method.0 as usize],
                r.summary.mean,
            )
        })
        .collect();

    let mut by_popularity: Vec<u64> = run.method_calls.clone();
    by_popularity.sort_unstable_by(|a, b| b.cmp(a));
    let share =
        |n: usize| by_popularity.iter().take(n).sum::<u64>() as f64 / total_calls.max(1) as f64;

    // Scale-aware: the paper takes the fastest 100 of ~10,000 methods
    // (1%); we take the fastest 1% (min 3) of the eligible population.
    let n_fast = (by_latency.len() / 100).max(3);
    let fastest100: u64 = by_latency.iter().take(n_fast).map(|&(_, c, _)| c).sum();

    // Call-weighted mean latency rank.
    let n = by_latency.len().max(2) as f64;
    let mut rank_acc = 0.0;
    let mut call_acc = 0.0;
    for (i, &(_, c, _)) in by_latency.iter().enumerate() {
        rank_acc += (i as f64 / (n - 1.0)) * c as f64;
        call_acc += c as f64;
    }
    let popularity_rank = rank_acc / call_acc.max(1.0);

    // Slowest half of eligible methods: call share vs total-time share.
    let half = by_latency.len() / 2;
    let slow = &by_latency[half..];
    let slow_calls: u64 = slow.iter().map(|&(_, c, _)| c).sum();
    let time = |rows: &[(MethodId, u64, f64)]| -> f64 {
        rows.iter().map(|&(_, c, mean)| c as f64 * mean).sum()
    };
    let total_time = time(&by_latency);
    let eligible_calls: u64 = by_latency.iter().map(|&(_, c, _)| c).sum();

    Fig03 {
        top_method_share: share(1),
        top10_share: share(10),
        top100_share: share(100),
        fastest100_share: fastest100 as f64 / total_calls.max(1) as f64,
        popularity_rank,
        slowest_half_call_share: slow_calls as f64 / eligible_calls.max(1) as f64,
        slowest_half_time_share: time(slow) / total_time.max(1e-12),
        by_latency,
        total_calls,
    }
}

/// Renders the popularity summary.
pub fn render(fig: &Fig03) -> String {
    let mut t = TextTable::new(&["statistic", "share"]);
    t.row(vec![
        "most popular method".into(),
        fmt_pct(fig.top_method_share),
    ]);
    t.row(vec!["top-10 methods".into(), fmt_pct(fig.top10_share)]);
    t.row(vec!["top-100 methods".into(), fmt_pct(fig.top100_share)]);
    t.row(vec![
        "100 lowest-latency methods".into(),
        fmt_pct(fig.fastest100_share),
    ]);
    t.row(vec![
        "slowest half: call share".into(),
        fmt_pct(fig.slowest_half_call_share),
    ]);
    t.row(vec![
        "slowest half: RPC-time share".into(),
        fmt_pct(fig.slowest_half_time_share),
    ]);
    format!(
        "Fig. 3 — Per-method popularity ({} eligible methods, {} total calls)\n{}",
        fig.by_latency.len(),
        fig.total_calls,
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig03) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig3.top_method",
        "Network Disk Write alone is 28% of all calls",
        fig.top_method_share,
        0.15,
        0.40,
    );
    s.add(
        "fig3.top10",
        "the 10 most popular methods are 58% of calls",
        fig.top10_share,
        0.35,
        0.75,
    );
    s.add(
        "fig3.top100",
        "the top-100 methods are 91% of calls (we reach 50-75% at sim scale)",
        fig.top100_share,
        0.50,
        1.0,
    );
    s.add(
        "fig3.popularity_rank",
        "popularity concentrates on low-latency methods (40% of calls in the fastest 1%)",
        fig.popularity_rank,
        0.0,
        0.42,
    );
    s.add(
        "fig3.slow_half_calls",
        "the slowest methods are a tiny share of calls (1.1% for slowest 1000)",
        fig.slowest_half_call_share,
        0.0,
        0.35,
    );
    s.add(
        "fig3.slow_half_time",
        "...but most of total RPC time (89% for slowest 1000)",
        fig.slowest_half_time_share,
        0.5,
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
    fn shares_are_monotone() {
        let fig = compute(shared());
        assert!(fig.top_method_share <= fig.top10_share);
        assert!(fig.top10_share <= fig.top100_share);
        assert!(fig.top100_share <= 1.0);
    }

    #[test]
    fn most_popular_method_is_network_disk_write() {
        let run = shared();
        let fig = compute(run);
        let (idx, _) = run
            .method_calls
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .unwrap();
        let m = run
            .catalog
            .method(rpclens_trace::span::MethodId(idx as u32));
        assert_eq!(m.name, "Write");
        assert_eq!(run.catalog.service(m.service).name, "NetworkDisk");
        assert!(fig.top_method_share > 0.1);
    }

    #[test]
    fn render_lists_all_statistics() {
        let fig = compute(shared());
        let text = render(&fig);
        assert!(text.contains("top-10"));
        assert!(text.contains("RPC-time share"));
    }
}
