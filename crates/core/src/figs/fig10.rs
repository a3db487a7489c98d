//! Fig. 10: the fleet-wide RPC latency tax.
//!
//! Paper anchors: on average the tax is 2.0% of completion time — network
//! ~1.1%, RPC processing + stack ~0.49%, queueing ~0.43% — but for
//! P95-tail RPCs the tax share grows and skews toward the network.

use crate::check::ExpectationSet;
use crate::common::{column, Column};
use crate::render::{fmt_pct, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::TaxGroup;
use rpclens_simcore::stats::select_percentile;
use rpclens_trace::span::{MethodId, SpanRecord};
use std::collections::HashMap;

/// One tax decomposition: total tax share plus per-group shares of
/// completion time.
#[derive(Debug, Clone, Copy)]
pub struct TaxShares {
    /// Tax as a fraction of completion time.
    pub tax: f64,
    /// Queueing share of completion time.
    pub queue: f64,
    /// Network-wire share of completion time.
    pub network: f64,
    /// Processing + stack share of completion time.
    pub processing: f64,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig10 {
    /// Time-weighted fleet averages over all OK RPCs.
    pub mean: TaxShares,
    /// The same decomposition restricted to P95-tail RPCs.
    pub tail: TaxShares,
    /// The P95 completion-time threshold used, seconds.
    pub p95_secs: f64,
}

fn shares<'a, I: Iterator<Item = &'a SpanRecord>>(spans: I) -> TaxShares {
    let mut total = 0.0;
    let mut tax = 0.0;
    let mut queue = 0.0;
    let mut network = 0.0;
    let mut processing = 0.0;
    for s in spans {
        let b = s.breakdown();
        total += b.total().as_secs_f64();
        tax += b.tax().as_secs_f64();
        queue += b.group(TaxGroup::Queue).as_secs_f64();
        network += b.group(TaxGroup::Network).as_secs_f64();
        processing += b.group(TaxGroup::Processing).as_secs_f64();
    }
    let total = total.max(1e-12);
    TaxShares {
        tax: tax / total,
        queue: queue / total,
        network: network / total,
        processing: processing / total,
    }
}

/// Computes the figure.
///
/// "Tail" RPCs are those above their *own method's* P95 — a tail disk
/// read is a tail disk read even though it is faster than a median
/// analytics query — matching the paper's per-RPC framing.
pub fn compute(run: &FleetRun) -> Fig10 {
    let secs = |s: &SpanRecord| s.total_latency().as_secs_f64();
    let thresholds: HashMap<MethodId, f64> = column(run, Column::Latency)
        .iter()
        .map(|r| (r.method, r.summary.p95))
        .collect();
    // Every OK span, in trace order.
    let ok = || {
        run.store
            .traces()
            .iter()
            .flat_map(|t| &t.spans)
            .filter(|s| s.is_ok())
    };
    let p95 = select_percentile(&mut ok().map(secs).collect::<Vec<_>>(), 0.95).unwrap_or(f64::NAN);
    let tail = ok().filter(|s| thresholds.get(&s.method).is_some_and(|&p| secs(s) > p));
    Fig10 {
        mean: shares(ok()),
        tail: shares(tail),
        p95_secs: p95,
    }
}

/// Renders the figure.
pub fn render(fig: &Fig10) -> String {
    let mut t = TextTable::new(&["population", "tax", "queueing", "network", "proc+stack"]);
    for (name, s) in [("all RPCs", fig.mean), ("P95 tail", fig.tail)] {
        t.row(vec![
            name.to_string(),
            fmt_pct(s.tax),
            fmt_pct(s.queue),
            fmt_pct(s.network),
            fmt_pct(s.processing),
        ]);
    }
    format!(
        "Fig. 10 — RPC latency tax (share of completion time)\n{}\n(P95 threshold {:.2} ms)\n",
        t.render(),
        fig.p95_secs * 1e3
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig10) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig10.mean_tax",
        "the average tax is 2.0% of completion time (we accept < 13%)",
        fig.mean.tax,
        0.005,
        0.13,
    );
    s.add(
        "fig10.groups_sum",
        "queue + network + processing = total tax",
        (fig.mean.queue + fig.mean.network + fig.mean.processing) / fig.mean.tax.max(1e-12),
        0.999,
        1.001,
    );
    s.add(
        "fig10.app_dominates_mean",
        "application processing dominates the average RPC",
        1.0 - fig.mean.tax,
        0.85,
        1.0,
    );
    // Within the tax, the network's share grows at the tail (Fig. 10d
    // skews toward network-induced delay relative to Fig. 10b).
    let mean_net_share = fig.mean.network / fig.mean.tax.max(1e-12);
    let tail_net_share = fig.tail.network / fig.tail.tax.max(1e-12);
    s.add(
        "fig10.tail_network_skew",
        "for tail RPCs the tax skews toward the network",
        tail_net_share / mean_net_share.max(1e-12),
        1.0,
        f64::INFINITY,
    );
    s.add(
        "fig10.tail_network_dominant",
        "network is the dominant component of the tail tax",
        tail_net_share,
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
    fn shares_are_fractions() {
        let fig = compute(shared());
        for s in [fig.mean, fig.tail] {
            assert!((0.0..=1.0).contains(&s.tax));
            assert!(s.queue >= 0.0 && s.network >= 0.0 && s.processing >= 0.0);
        }
        assert!(fig.p95_secs > 0.0);
    }
}
