//! Fig. 22: CPU usage across clusters vs machines within a cluster.
//!
//! Paper anchors: the latency-aware balancer leaves CPU usage heavily
//! imbalanced *across clusters* (it never optimizes for CPU), while
//! usage across machines *within* a cluster is much tighter — except for
//! the data-dependent services (Spanner, F1, ML Inference), whose
//! per-machine load is skewed and approaches saturation.

use crate::check::ExpectationSet;
use crate::render::{fmt_pct, TextTable};
use rpclens_fleet::driver::FleetRun;
use rpclens_simcore::time::{SimDuration, SimTime};

/// CPU usage is reported against this allocation headroom: a site running
/// at 72% utilization against a 0.8 allocation reports 90% usage.
pub const ALLOCATION: f64 = 0.8;

/// One service's usage distributions.
#[derive(Debug)]
pub struct ServiceUsage {
    /// Service name.
    pub name: &'static str,
    /// Day-average usage ratio per cluster (sorted ascending).
    pub per_cluster: Vec<f64>,
    /// Usage ratio per machine within the median cluster (sorted).
    pub per_machine: Vec<f64>,
}

impl ServiceUsage {
    /// Spread measure: P90-ish minus P10-ish of a sorted ratio vector.
    fn spread(v: &[f64]) -> f64 {
        if v.len() < 2 {
            return 0.0;
        }
        let lo = v[v.len() / 10];
        let hi = v[v.len() - 1 - v.len() / 10];
        hi - lo
    }

    /// Cross-cluster usage spread.
    pub fn cluster_spread(&self) -> f64 {
        Self::spread(&self.per_cluster)
    }

    /// Intra-cluster (machine) usage spread.
    pub fn machine_spread(&self) -> f64 {
        Self::spread(&self.per_machine)
    }
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig22 {
    /// One entry per Table 1 service.
    pub services: Vec<ServiceUsage>,
}

/// Computes day-average usage ratios from the deployment's exogenous
/// profiles (the same source the monitoring pipeline samples).
pub fn compute(run: &FleetRun) -> Fig22 {
    let day = SimDuration::from_hours(24);
    let mut services = Vec::new();
    for entry in run.catalog.table1() {
        let svc = run.catalog.method(entry.method).service;
        let sites = run.sites_of(svc);
        if sites.is_empty() {
            continue;
        }
        let day_util: Vec<f64> = sites
            .iter()
            .map(|s| s.load.window_average(SimTime::ZERO, day).cpu_util)
            .collect();
        // Median cluster's machines, read before the sort reorders sites.
        let median = sites.len() / 2;
        let (median_site, base) = (sites[median], day_util[median]);
        let mut per_cluster = day_util;
        for u in &mut per_cluster {
            *u /= ALLOCATION;
        }
        per_cluster.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut per_machine: Vec<f64> = median_site
            .machine_offsets
            .iter()
            .map(|off| (base * off).min(0.98) / ALLOCATION)
            .collect();
        per_machine.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        services.push(ServiceUsage {
            name: entry.server,
            per_cluster,
            per_machine,
        });
    }
    Fig22 { services }
}

/// Renders the figure.
pub fn render(fig: &Fig22) -> String {
    let mut t = TextTable::new(&[
        "service",
        "clusters",
        "cluster min..max",
        "cluster spread",
        "machine spread",
    ]);
    for s in &fig.services {
        t.row(vec![
            s.name.to_string(),
            s.per_cluster.len().to_string(),
            format!(
                "{}..{}",
                fmt_pct(*s.per_cluster.first().expect("non-empty")),
                fmt_pct(*s.per_cluster.last().expect("non-empty"))
            ),
            fmt_pct(s.cluster_spread()),
            fmt_pct(s.machine_spread()),
        ]);
    }
    format!(
        "Fig. 22 — CPU usage/allocation across clusters and machines\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig22) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    // Cross-cluster imbalance is large for every service.
    for svc in &fig.services {
        s.add(
            &format!("fig22.{}_cluster_imbalance", svc.name.replace(' ', "_")),
            "load is significantly imbalanced across clusters",
            svc.cluster_spread(),
            0.15,
            1.5,
        );
    }
    // Intra-cluster balance is much tighter for uniform services...
    let spread_of = |name: &str| {
        fig.services
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.machine_spread())
            .unwrap_or(f64::NAN)
    };
    for tight in ["Bigtable", "Network Disk", "Video Metadata"] {
        s.add(
            &format!("fig22.{}_machines_tight", tight.replace(' ', "_")),
            "machine-level usage varies much less within a cluster",
            spread_of(tight),
            0.0,
            0.25,
        );
    }
    // ...but the data-dependent services are skewed per machine too.
    for skewed in ["Spanner", "F1", "ML Inference"] {
        s.add(
            &format!("fig22.{}_machines_skewed", skewed.replace(' ', "_")),
            "Spanner/F1/ML Inference have machines near saturation",
            spread_of(skewed),
            0.15,
            2.0,
        );
    }
    // Tail clusters approach the allocation limit somewhere.
    let max_usage = fig
        .services
        .iter()
        .filter_map(|s| s.per_cluster.last().copied())
        .fold(0.0f64, f64::max);
    s.add(
        "fig22.tail_near_limit",
        "tail utilization approaches the allocation limit",
        max_usage,
        0.85,
        1.5,
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
    fn all_table1_services_present() {
        let fig = compute(shared());
        assert_eq!(fig.services.len(), 8);
        for s in &fig.services {
            assert!(!s.per_cluster.is_empty());
            assert!(!s.per_machine.is_empty());
            assert!(s.per_cluster.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn cross_cluster_spread_exceeds_machine_spread_for_uniform_services() {
        let fig = compute(shared());
        let disk = fig
            .services
            .iter()
            .find(|s| s.name == "Network Disk")
            .expect("disk present");
        assert!(disk.cluster_spread() > disk.machine_spread());
    }
}
