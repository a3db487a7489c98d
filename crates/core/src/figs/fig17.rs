//! Fig. 17: exogenous variables vs per-component latency.
//!
//! For three services (one per category: Bigtable, KV-Store, Video
//! Metadata) and the four Table 2 variables, spans are bucketed by the
//! serving site's exogenous value at the span's timestamp; each bucket
//! reports the average latency of its near-P95 spans. Paper anchors:
//! Bigtable and Video Metadata latency rises with CPU utilization, memory
//! bandwidth, long-wakeup rate, and CPI; KV-Store (reserved cores)
//! responds mainly to CPI.

use crate::check::ExpectationSet;
use crate::common::component_sum_secs;
use crate::render::TextTable;
use rpclens_fleet::driver::FleetRun;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite, spearman};
use rpclens_trace::query::MethodQuery;

/// The exogenous variables of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExoVar {
    /// CPU utilization.
    CpuUtil,
    /// Memory bandwidth (GB/s).
    MemBw,
    /// Long-wakeup rate.
    LongWakeup,
    /// Cycles per instruction.
    Cpi,
}

impl ExoVar {
    /// All variables.
    pub const ALL: [ExoVar; 4] = [
        ExoVar::CpuUtil,
        ExoVar::MemBw,
        ExoVar::LongWakeup,
        ExoVar::Cpi,
    ];

    /// Table 2 label.
    pub fn label(self) -> &'static str {
        match self {
            ExoVar::CpuUtil => "CPU Util (Percent)",
            ExoVar::MemBw => "Memory BW (GB/s)",
            ExoVar::LongWakeup => "Long Wakeup Rate",
            ExoVar::Cpi => "Cycles Per Inst.",
        }
    }
}

/// One (service, variable) relation.
#[derive(Debug)]
pub struct Relation {
    /// Service name.
    pub service: &'static str,
    /// The variable.
    pub var: ExoVar,
    /// `(variable value, mean near-tail latency seconds)` per bucket.
    pub buckets: Vec<(f64, f64)>,
    /// Spearman correlation between the variable and span latency
    /// (bucket-level).
    pub correlation: f64,
    /// Relative latency rise from the lowest to the highest bucket:
    /// `last/first - 1`. Rank correlations saturate at 1.0 once buckets
    /// are monotone; the rise measures *how much* the variable moves
    /// latency.
    pub rise: f64,
    /// The same rise computed on the *server-side* components only
    /// (receive queue, application, send queue, response processing).
    /// The paper's panels are per-component; server-side isolation
    /// removes the confound of co-located callers' client queues, which
    /// share the cluster's diurnal load.
    pub server_rise: f64,
}

/// The computed figure.
#[derive(Debug)]
pub struct Fig17 {
    /// All service x variable relations.
    pub relations: Vec<Relation>,
}

/// The server-side components: receive queue, application, send queue
/// and response processing.
pub const SERVER_SIDE: [LatencyComponent; 4] = [
    LatencyComponent::ServerRecvQueue,
    LatencyComponent::ServerApplication,
    LatencyComponent::ServerSendQueue,
    LatencyComponent::ResponseProcessing,
];

/// The three services the paper picks (one per category).
pub const SERVICES: [&str; 3] = ["Bigtable", "KV-Store", "Video Metadata"];

/// Computes the figure.
pub fn compute(run: &FleetRun) -> Fig17 {
    let query = MethodQuery {
        intra_cluster_only: true,
        min_samples: 1,
        ..MethodQuery::default()
    };
    let mut relations = Vec::new();
    for entry in run.catalog.table1() {
        if !SERVICES.contains(&entry.server) {
            continue;
        }
        // Collect (exo vars, total latency, server-side latency) samples.
        let mut samples: Vec<([f64; 4], f64, f64)> = Vec::new();
        query.for_each(&run.store, entry.method, |trace, span| {
            let svc = run.catalog.method(span.method).service;
            let Some(site) = run.site(svc, span.server_cluster) else {
                return;
            };
            // The serving instant of this span.
            let at = trace.root_start + span.start_offset();
            let vars = site.load.sample(at);
            let server_side = component_sum_secs(span, &SERVER_SIDE);
            samples.push((
                [
                    vars.cpu_util * 100.0,
                    vars.mem_bw_gbps,
                    vars.long_wakeup_rate,
                    vars.cpi,
                ],
                span.total_latency().as_secs_f64(),
                server_side,
            ));
        });
        if samples.len() < 200 {
            continue;
        }
        for (vi, var) in ExoVar::ALL.into_iter().enumerate() {
            let xs: Vec<f64> = samples.iter().map(|(v, _, _)| v[vi]).collect();
            // Bucket by variable octile; report near-tail mean per bucket.
            let sorted_x = sorted_finite(xs.clone());
            let mut buckets = Vec::new();
            let mut server_buckets = Vec::new();
            let near_tail_mean = |values: Vec<f64>| -> Option<f64> {
                let sb = sorted_finite(values);
                if sb.is_empty() {
                    return None;
                }
                // Mean of the samples near the tail, like the paper's
                // P95 +/- 1% selection.
                let p90 = percentile(&sb, 0.90)?;
                let p99 = percentile(&sb, 0.99)?;
                let tail: Vec<f64> = sb
                    .iter()
                    .copied()
                    .filter(|&v| v >= p90 && v <= p99)
                    .collect();
                if tail.is_empty() {
                    return None;
                }
                Some(tail.iter().sum::<f64>() / tail.len() as f64)
            };
            for d in 0..8 {
                let lo = percentile(&sorted_x, d as f64 / 8.0).expect("non-empty");
                let hi = percentile(&sorted_x, (d + 1) as f64 / 8.0).expect("non-empty");
                let in_bucket: Vec<(f64, f64)> = samples
                    .iter()
                    .filter(|(v, _, _)| v[vi] >= lo && v[vi] <= hi)
                    .map(|(_, total, server)| (*total, *server))
                    .collect();
                if in_bucket.len() < 20 {
                    continue;
                }
                let totals: Vec<f64> = in_bucket.iter().map(|p| p.0).collect();
                let servers: Vec<f64> = in_bucket.iter().map(|p| p.1).collect();
                if let (Some(t), Some(sv)) = (near_tail_mean(totals), near_tail_mean(servers)) {
                    buckets.push(((lo + hi) / 2.0, t));
                    server_buckets.push(((lo + hi) / 2.0, sv));
                }
            }
            // Correlate at bucket granularity: the paper's Fig. 17 plots
            // 30-minute-aggregated means, where per-span noise has been
            // averaged away.
            let bx: Vec<f64> = buckets.iter().map(|b| b.0).collect();
            let by: Vec<f64> = buckets.iter().map(|b| b.1).collect();
            let correlation = spearman(&bx, &by).unwrap_or(0.0);
            let rise_of = |b: &[(f64, f64)]| match (b.first(), b.last()) {
                (Some(&(_, f)), Some(&(_, l))) if f > 0.0 => l / f - 1.0,
                _ => f64::NAN,
            };
            let rise = rise_of(&buckets);
            let server_rise = rise_of(&server_buckets);
            relations.push(Relation {
                service: entry.server,
                var,
                buckets,
                correlation,
                rise,
                server_rise,
            });
        }
    }
    Fig17 { relations }
}

/// Renders the correlation matrix.
pub fn render(fig: &Fig17) -> String {
    let mut t = TextTable::new(&["service", "variable", "spearman", "buckets"]);
    for r in &fig.relations {
        t.row(vec![
            r.service.to_string(),
            r.var.label().to_string(),
            format!("{:+.3}", r.correlation),
            r.buckets.len().to_string(),
        ]);
    }
    format!(
        "Fig. 17 — Exogenous variables vs latency (near-tail means)\n{}",
        t.render()
    )
}

/// Paper-vs-measured checks.
pub fn checks(fig: &Fig17) -> ExpectationSet {
    let mut s = ExpectationSet::new();
    let corr = |svc: &str, var: ExoVar| {
        fig.relations
            .iter()
            .find(|r| r.service == svc && r.var == var)
            .map(|r| r.correlation)
            .unwrap_or(f64::NAN)
    };
    // Bigtable couples to the machine state.
    s.add(
        "fig17.bigtable_cpu",
        "Bigtable latency rises with CPU utilization",
        corr("Bigtable", ExoVar::CpuUtil),
        0.2,
        1.0,
    );
    s.add(
        "fig17.bigtable_cpi",
        "Bigtable latency rises with CPI",
        corr("Bigtable", ExoVar::Cpi),
        0.1,
        1.0,
    );
    s.add(
        "fig17.bigtable_wakeup",
        "Bigtable latency rises with the long-wakeup rate",
        corr("Bigtable", ExoVar::LongWakeup),
        0.1,
        1.0,
    );
    // KV-Store (reserved cores) is largely decoupled from utilization:
    // compare how much latency *rises* across the utilization range, not
    // rank correlations (which saturate once buckets are monotone).
    let rise = |svc: &str, var: ExoVar| {
        fig.relations
            .iter()
            .find(|r| r.service == svc && r.var == var)
            .map(|r| r.server_rise)
            .unwrap_or(f64::NAN)
    };
    let kv_rise = rise("KV-Store", ExoVar::CpuUtil).abs();
    let bt_rise = rise("Bigtable", ExoVar::CpuUtil);
    if kv_rise.is_finite() && bt_rise.is_finite() && bt_rise > 0.0 {
        s.add(
            "fig17.kv_decoupled",
            "KV-Store (reserved cores) couples to utilization far less than Bigtable",
            kv_rise / bt_rise,
            0.0,
            0.85,
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
    fn relations_cover_services_and_vars() {
        let fig = compute(shared());
        // At least two services (KV-Store runs on few clusters and may
        // miss the sample gate at tiny scales) x 4 vars.
        assert!(fig.relations.len() >= 8, "{}", fig.relations.len());
        for r in &fig.relations {
            assert!(
                r.correlation.is_finite() && r.correlation.abs() <= 1.0,
                "{}: {}",
                r.service,
                r.correlation
            );
        }
    }

    #[test]
    fn bigtable_buckets_trend_upward_in_cpu() {
        let fig = compute(shared());
        let r = fig
            .relations
            .iter()
            .find(|r| r.service == "Bigtable" && r.var == ExoVar::CpuUtil)
            .expect("relation exists");
        assert!(r.buckets.len() >= 4);
        let first = r.buckets.first().expect("non-empty").1;
        let last = r.buckets.last().expect("non-empty").1;
        assert!(last > first * 0.8, "no upward trend: {first} -> {last}");
    }
}
