//! Fig. 16: per-cluster P95 latency breakdown for each studied service.
//!
//! Paper anchors: the dominant component stays the same across clusters,
//! but P95 latency varies 1.24–10x between clusters of the *same*
//! service on the same platform — exogenous cluster state is the cause.

use crate::check::ExpectationSet;
use crate::common::breakdown_row;
use crate::render::{fmt_secs, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_netsim::topology::ClusterId;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite};
use rpclens_trace::query::MethodQuery;

/// One cluster's tail breakdown for one service.
#[derive(Debug)]
pub struct ClusterTail {
    /// The cluster.
    pub cluster: ClusterId,
    /// Sample count.
    pub samples: usize,
    /// P95 completion time, seconds.
    pub p95: f64,
    /// Mean component seconds among tail (>= P90) spans.
    pub tail_components: [f64; 9],
}

/// One service's per-cluster view.
#[derive(Debug)]
pub struct ServiceClusters {
    /// Service name.
    pub name: &'static str,
    /// Per-cluster tails, sorted by P95 ascending.
    pub clusters: Vec<ClusterTail>,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig16 {
    /// One entry per Table 1 service.
    pub services: Vec<ServiceClusters>,
}

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig16 {
    let mut services = Vec::new();
    for entry in run.catalog.table1() {
        let base = MethodQuery {
            intra_cluster_only: true,
            min_samples: 1,
            ..MethodQuery::default()
        };
        // Group samples by server cluster.
        let mut by_cluster: std::collections::HashMap<ClusterId, Vec<(f64, [f64; 9])>> =
            std::collections::HashMap::new();
        base.for_each(&run.store, entry.method, |_, span| {
            by_cluster
                .entry(span.server_cluster)
                .or_default()
                .push(breakdown_row(span));
        });
        let mut clusters = Vec::new();
        for (cluster, mut rows) in by_cluster {
            if rows.len() < 40 {
                continue;
            }
            rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let totals = sorted_finite(rows.iter().map(|r| r.0).collect());
            let p95 = percentile(&totals, 0.95).expect("non-empty");
            let p90 = percentile(&totals, 0.90).expect("non-empty");
            let tail: Vec<&(f64, [f64; 9])> = rows.iter().filter(|(t, _)| *t >= p90).collect();
            let mut tail_components = [0.0f64; 9];
            for (_, comps) in &tail {
                for i in 0..9 {
                    tail_components[i] += comps[i];
                }
            }
            for v in &mut tail_components {
                *v /= tail.len().max(1) as f64;
            }
            clusters.push(ClusterTail {
                cluster,
                samples: rows.len(),
                p95,
                tail_components,
            });
        }
        clusters.sort_by(|a, b| a.p95.partial_cmp(&b.p95).expect("finite"));
        if clusters.len() >= 2 {
            services.push(ServiceClusters {
                name: entry.server,
                clusters,
            });
        }
    }
    Fig16 { services }
}

/// The dominant tail component of a cluster entry.
pub fn dominant(tail: &ClusterTail) -> LatencyComponent {
    let mut best = 0;
    for i in 1..9 {
        if tail.tail_components[i] > tail.tail_components[best] {
            best = i;
        }
    }
    LatencyComponent::ALL[best]
}

/// Renders the figure.
pub fn render(fig: &Fig16) -> String {
    let mut t = TextTable::new(&["service", "clusters", "fastest P95", "slowest P95", "ratio"]);
    for s in &fig.services {
        let lo = s.clusters.first().expect("non-empty").p95;
        let hi = s.clusters.last().expect("non-empty").p95;
        t.row(vec![
            s.name.to_string(),
            s.clusters.len().to_string(),
            fmt_secs(lo),
            fmt_secs(hi),
            format!("{:.2}x", hi / lo.max(1e-12)),
        ]);
    }
    format!(
        "Fig. 16 — P95 latency across clusters per service\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig16) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    s.add(
        "fig16.services",
        "multiple services observed in several clusters each",
        fig.services.len() as f64,
        4.0,
        8.0,
    );
    for svc in &fig.services {
        let lo = svc.clusters.first().expect("non-empty").p95;
        let hi = svc.clusters.last().expect("non-empty").p95;
        s.add(
            &format!("fig16.{}_spread", svc.name.replace(' ', "_")),
            "P95 varies 1.24-10x across clusters",
            hi / lo.max(1e-12),
            1.1,
            60.0,
        );
    }
    // Dominant-component stability: the modal dominant component covers
    // most clusters of each service.
    let mut stable = 0;
    let mut total = 0;
    for svc in &fig.services {
        let mut counts = std::collections::HashMap::new();
        for c in &svc.clusters {
            *counts.entry(dominant(c)).or_insert(0usize) += 1;
        }
        let modal = counts.values().max().copied().unwrap_or(0);
        stable += modal;
        total += svc.clusters.len();
    }
    s.add(
        "fig16.dominance_stable",
        "the dominant component stays largely the same across clusters",
        stable as f64 / total.max(1) as f64,
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
    fn clusters_are_sorted_by_p95() {
        let fig = compute(shared());
        for svc in &fig.services {
            assert!(svc.clusters.windows(2).all(|w| w[0].p95 <= w[1].p95));
            for c in &svc.clusters {
                assert!(c.samples >= 40);
            }
        }
    }
}
