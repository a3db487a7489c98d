//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation runs the fleet twice at the same seed and fault
//! scenario — every mechanism on, then one switched off through
//! [`FleetConfig::without`] — and compares the metric that mechanism
//! exists to move:
//!
//! - **hedging**: the tail (P99) latency of hedged storage methods. The
//!   paper attributes the Cancelled error class to hedging (§4.4); the
//!   ablation shows what that wasted work buys.
//! - **congestion**: the P99 of the network-wire components. The paper
//!   finds congestion still bites the WAN tail (§5.1).
//! - **reserved cores**: KV-Store's latency coupling to machine
//!   utilization (§3.3.4: reserved cores sever the coupling).
//! - **retry budget**: retry amplification under `overload-collapse`,
//!   the storm the per-trace token bucket exists to clamp.
//!
//! Every arm also reports the resilience counters ([`RetryArm`]).

use rpclens_core::common::component_sum_secs;
use rpclens_core::figs::fig17::SERVER_SIDE;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, Mechanism, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite};
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::MethodId;
use std::fmt::Write as _;

/// One ablation's row: the metric its mechanism exists to move and the
/// fault scenario both arms run under.
struct Row {
    metric: &'static str,
    faults: fn() -> FaultScenario,
    measure: fn(&FleetRun) -> f64,
}

fn row(mechanism: Mechanism) -> Row {
    match mechanism {
        Mechanism::Hedging => Row {
            metric: "P99 latency of hedged storage methods (s)",
            faults: FaultScenario::none,
            measure: hedged_tail,
        },
        // Here the "mechanism" is congestion itself: with it on, the
        // tail is worse, so improvement() < 1 documents its cost.
        Mechanism::Congestion => Row {
            metric: "fleet P99 network-wire latency (s)",
            faults: FaultScenario::none,
            measure: network_tail,
        },
        Mechanism::ReservedCores => Row {
            metric: "KV-Store server-side latency rise, hot vs cool utilization quartile",
            faults: FaultScenario::none,
            measure: kv_util_coupling,
        },
        Mechanism::RetryBudget => Row {
            metric: "retry amplification (executed attempts per base attempt)",
            faults: FaultScenario::overload_collapse,
            measure: |run| RetryArm::of(run).amplification(),
        },
    }
}

/// One arm of an ablation: the resilience counters the retry budget
/// exists to move.
#[derive(Debug, Clone, Copy)]
pub struct RetryArm {
    /// Retry attempts actually issued.
    pub retries_issued: u64,
    /// Retry attempts denied by the budget (always 0 with the budget off).
    pub retries_denied: u64,
    /// `NoResource` errors shed by overloaded queues.
    pub load_sheds: u64,
    /// Total executed attempts (spans), retries included.
    pub total_spans: u64,
}

impl RetryArm {
    fn of(run: &FleetRun) -> RetryArm {
        let r = &run.telemetry.counters.resilience;
        RetryArm {
            retries_issued: r.retries_issued,
            retries_denied: r.retries_denied,
            load_sheds: r.load_sheds,
            total_spans: run.total_spans,
        }
    }

    /// Retry amplification: executed attempts per attempt that would have
    /// run had no retry fired. 1.0 means no amplification; 1.25 means the
    /// retry loop added 25% extra work on top of the base load.
    pub fn amplification(&self) -> f64 {
        let base = self.total_spans.saturating_sub(self.retries_issued).max(1);
        self.total_spans as f64 / base as f64
    }
}

/// Result of one ablation: the metric and the counters with the
/// mechanism on and off.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// The mechanism switched off.
    pub mechanism: Mechanism,
    /// Metric description (what the numbers are).
    pub metric: &'static str,
    /// The fault scenario both arms ran under.
    pub scenario: &'static str,
    /// Metric with the mechanism on.
    pub with_mechanism: f64,
    /// Metric with the mechanism off.
    pub without_mechanism: f64,
    /// Counters with the mechanism on.
    pub with_counters: RetryArm,
    /// Counters with the mechanism off.
    pub without_counters: RetryArm,
}

impl AblationResult {
    /// Ratio without/with: > 1 means the mechanism was helping.
    pub fn improvement(&self) -> f64 {
        self.without_mechanism / self.with_mechanism.max(1e-12)
    }
}

/// Runs one ablation at the given scale.
pub fn run_ablation(mechanism: Mechanism, scale: &SimScale) -> AblationResult {
    let row = row(mechanism);
    let config = FleetConfig::at_scale(scale.clone()).with_faults((row.faults)());
    let scenario = config.faults.name;
    let on = run_fleet(config.clone());
    let off = run_fleet(FleetConfig {
        without: Some(mechanism),
        ..config
    });
    AblationResult {
        mechanism,
        metric: row.metric,
        scenario,
        with_mechanism: (row.measure)(&on),
        without_mechanism: (row.measure)(&off),
        with_counters: RetryArm::of(&on),
        without_counters: RetryArm::of(&off),
    }
}

/// Renders one ablation as `ablate` prints it: the metric both ways and
/// their ratio, then each arm's counters.
pub fn render(r: &AblationResult) -> String {
    let (name, pad) = (r.mechanism.name(), "");
    let mut out = format!(
        "{name:>14}: {}\n\
         {pad:14}  fault scenario    {}\n\
         {pad:14}  with mechanism    {:.6}\n\
         {pad:14}  without mechanism {:.6}\n\
         {pad:14}  ratio (off/on)    {:.3}\n\
         {pad:24}  {:>14}  {:>14}\n",
        r.metric,
        r.scenario,
        r.with_mechanism,
        r.without_mechanism,
        r.improvement(),
        "mechanism on",
        "mechanism off"
    );
    let (on, off) = (&r.with_counters, &r.without_counters);
    for (label, on, off) in [
        ("retries issued", on.retries_issued, off.retries_issued),
        ("retries denied", on.retries_denied, off.retries_denied),
        ("load sheds", on.load_sheds, off.load_sheds),
        ("total attempts", on.total_spans, off.total_spans),
    ] {
        let _ = writeln!(out, "{label:>24}  {on:>14}  {off:>14}");
    }
    let _ = writeln!(
        out,
        "{:>24}  {:>14.4}  {:>14.4}",
        "retry amplification",
        on.amplification(),
        off.amplification()
    );
    out
}

/// Hedged storage methods' P99 latency, seconds.
fn hedged_tail(run: &FleetRun) -> f64 {
    let query = MethodQuery::default();
    let mut samples = Vec::new();
    for m in run.catalog.methods() {
        if !m.hedge.enabled {
            continue;
        }
        if let Some(mut s) = query.samples(&run.store, m.id, |_, s| s.total_latency().as_secs_f64())
        {
            samples.append(&mut s);
        }
    }
    let sorted = sorted_finite(samples);
    percentile(&sorted, 0.99).unwrap_or(f64::NAN)
}

/// P99 of the summed network-wire components over *same-cluster* spans,
/// seconds. Restricting to same-cluster paths isolates congestion: their
/// propagation floor is microseconds, so any millisecond tail is pure
/// in-network queueing.
fn network_tail(run: &FleetRun) -> f64 {
    let mut samples = Vec::new();
    for trace in run.store.traces() {
        for span in &trace.spans {
            if span.is_ok() && span.client_cluster == span.server_cluster {
                samples.push(
                    span.component(LatencyComponent::RequestNetworkWire)
                        .as_secs_f64()
                        + span
                            .component(LatencyComponent::ResponseNetworkWire)
                            .as_secs_f64(),
                );
            }
        }
    }
    let sorted = sorted_finite(samples);
    percentile(&sorted, 0.99).unwrap_or(f64::NAN)
}

/// KV-Store's server-side latency rise from the coolest to the hottest
/// utilization quartile: mean(server latency | util in top quartile) over
/// mean(server latency | util in bottom quartile), minus one. Server-side
/// components only, so the co-located callers' diurnal client queues do
/// not confound the measurement (same isolation as Fig. 17's panels).
fn kv_util_coupling(run: &FleetRun) -> f64 {
    let kv = match run.catalog.service_by_name("KVStore") {
        Some(s) => s.id,
        None => return f64::NAN,
    };
    let methods: Vec<MethodId> = run
        .catalog
        .methods()
        .iter()
        .filter(|m| m.service == kv)
        .map(|m| m.id)
        .collect();
    let ok = MethodQuery {
        min_samples: 1,
        ..MethodQuery::default()
    };
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    for m in methods {
        ok.for_each(&run.store, m, |trace, span| {
            if let Some(site) = run.site(kv, span.server_cluster) {
                let at = trace.root_start + span.start_offset();
                let server_side = component_sum_secs(span, &SERVER_SIDE);
                pairs.push((site.load.sample(at).cpu_util, server_side));
            }
        });
    }
    if pairs.len() < 200 {
        return f64::NAN;
    }
    let utils = sorted_finite(pairs.iter().map(|p| p.0).collect());
    let q1 = percentile(&utils, 0.25).unwrap_or(f64::NAN);
    let q3 = percentile(&utils, 0.75).unwrap_or(f64::NAN);
    let mean_of = |pred: &dyn Fn(f64) -> bool| -> f64 {
        let v: Vec<f64> = pairs
            .iter()
            .filter(|(u, _)| pred(*u))
            .map(|(_, l)| *l)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let cool = mean_of(&|u| u <= q1);
    let hot = mean_of(&|u| u >= q3);
    (hot / cool.max(1e-12) - 1.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::time::SimDuration;

    fn scale() -> SimScale {
        SimScale {
            name: "ablation-test",
            total_methods: 400,
            roots: 15_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 21,
        }
    }

    #[test]
    fn hedging_reduces_hedged_method_tail() {
        let r = run_ablation(Mechanism::Hedging, &scale());
        assert!(r.with_mechanism.is_finite() && r.without_mechanism.is_finite());
        // Turning hedging off must not make the tail better; it usually
        // makes it noticeably worse.
        assert!(
            r.improvement() > 1.02,
            "hedging off/on tail ratio {:.3} (with {:.4}s, without {:.4}s)",
            r.improvement(),
            r.with_mechanism,
            r.without_mechanism
        );
    }

    #[test]
    fn congestion_inflates_the_network_tail() {
        let r = run_ablation(Mechanism::Congestion, &scale());
        // Without congestion, the network P99 collapses toward wire
        // latency.
        assert!(
            r.improvement() < 0.9,
            "congestion off/on tail ratio {:.3}",
            r.improvement()
        );
    }

    #[test]
    fn retry_budget_clamps_overload_amplification() {
        let r = run_ablation(Mechanism::RetryBudget, &scale());
        assert_eq!(r.scenario, "overload-collapse");
        let (on, off) = (r.with_counters, r.without_counters);
        // The budget denied retries the unbudgeted arm went on to issue.
        assert!(on.retries_denied > 0, "{r:?}");
        assert_eq!(off.retries_denied, 0, "{r:?}");
        assert!(off.retries_issued > on.retries_issued, "{r:?}");
        // And the storm it clamps is visible in the amplification gap.
        assert!(
            off.amplification() > on.amplification(),
            "amplification with {:.4} vs without {:.4}",
            on.amplification(),
            off.amplification()
        );
        assert_eq!(r.with_mechanism, on.amplification());
        assert_eq!(r.without_mechanism, off.amplification());
    }

    #[test]
    fn reserved_cores_decouple_kv_from_utilization() {
        let r = run_ablation(Mechanism::ReservedCores, &scale());
        assert!(
            r.without_mechanism > r.with_mechanism,
            "coupling with reservation {:.3} vs without {:.3}",
            r.with_mechanism,
            r.without_mechanism
        );
    }

    #[test]
    fn render_prints_the_ratio_and_both_arms_counters() {
        let arm = |issued, denied| RetryArm {
            retries_issued: issued,
            retries_denied: denied,
            load_sheds: 7,
            total_spans: 1_000,
        };
        let text = render(&AblationResult {
            mechanism: Mechanism::RetryBudget,
            metric: "m",
            scenario: "overload-collapse",
            with_mechanism: 1.0,
            without_mechanism: 2.0,
            with_counters: arm(10, 4),
            without_counters: arm(20, 0),
        });
        assert!(text.starts_with("  retry-budget: m\n"), "{text}");
        assert!(text.contains("ratio (off/on)    2.000"), "{text}");
        assert!(
            text.contains("fault scenario    overload-collapse"),
            "{text}"
        );
        for row in [
            "          retries issued              10              20",
            "          retries denied               4               0",
            "     retry amplification          1.0101          1.0204",
        ] {
            assert!(text.contains(row), "missing {row:?} in\n{text}");
        }
    }
}
