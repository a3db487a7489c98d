//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation runs the fleet twice — mechanism on vs off — at the same
//! seed and compares the metric that mechanism exists to move:
//!
//! - **hedging**: the tail (P99) latency of hedged storage methods. The
//!   paper attributes the Cancelled error class to hedging (§4.4); the
//!   ablation shows what that wasted work buys.
//! - **congestion**: the P99 of the network-wire components. The paper
//!   finds congestion still bites the WAN tail (§5.1).
//! - **reserved cores**: KV-Store's latency coupling to machine
//!   utilization (§3.3.4: reserved cores sever the coupling).

use rpclens_core::common::component_sum_secs;
use rpclens_core::figs::fig17::SERVER_SIDE;
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::{percentile, sorted_finite};
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::MethodId;

/// The available ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Request hedging on/off.
    Hedging,
    /// Network congestion on/off.
    Congestion,
    /// Reserved-core isolation on/off.
    ReservedCores,
}

impl Ablation {
    /// All ablations.
    pub const ALL: [Ablation; 3] = [
        Ablation::Hedging,
        Ablation::Congestion,
        Ablation::ReservedCores,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Hedging => "hedging",
            Ablation::Congestion => "congestion",
            Ablation::ReservedCores => "reserved-cores",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Ablation> {
        Ablation::ALL
            .iter()
            .copied()
            .find(|a| a.name() == name.to_lowercase())
    }
}

/// Result of one ablation: the metric with the mechanism on and off, and
/// a human description.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Which ablation ran.
    pub ablation: Ablation,
    /// Metric description (what the numbers are).
    pub metric: &'static str,
    /// Metric with the mechanism enabled.
    pub with_mechanism: f64,
    /// Metric with the mechanism disabled.
    pub without_mechanism: f64,
}

impl AblationResult {
    /// Ratio without/with: > 1 means the mechanism was helping.
    pub fn improvement(&self) -> f64 {
        self.without_mechanism / self.with_mechanism.max(1e-12)
    }
}

fn config(scale: &SimScale) -> FleetConfig {
    FleetConfig::at_scale(scale.clone())
}

/// One arm of the retry-budget ablation: the resilience counters that
/// the token bucket exists to move.
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

/// Result of the retry-budget ablation: the same fault scenario run with
/// the [`RetryBudget`] token bucket on and off.
///
/// [`RetryBudget`]: rpclens_rpcstack::retry::RetryBudget
#[derive(Debug, Clone, Copy)]
pub struct RetryBudgetAblation {
    /// The fault scenario both arms ran under.
    pub scenario: &'static str,
    /// Counters with the budget enforcing its ratio.
    pub with_budget: RetryArm,
    /// Counters with retries bounded only by `max_attempts`.
    pub without_budget: RetryArm,
}

/// Runs the retry-budget ablation: the given fault scenario at the given
/// scale, once with the per-trace retry budget enforcing its ratio and
/// once with the budget disabled (retries bounded only by the backoff
/// policy's `max_attempts`). The gap between the two amplification
/// factors is the storm the budget is clamping.
pub fn run_retry_budget_ablation(scale: &SimScale, faults: FaultScenario) -> RetryBudgetAblation {
    let mut on_cfg = config(scale);
    on_cfg.faults = faults;
    let on = run_fleet(on_cfg);
    let mut off_cfg = config(scale);
    off_cfg.faults = faults;
    off_cfg.retry_budget_enabled = false;
    let off = run_fleet(off_cfg);
    RetryBudgetAblation {
        scenario: faults.name,
        with_budget: RetryArm::of(&on),
        without_budget: RetryArm::of(&off),
    }
}

/// Renders the retry-budget ablation as the table `repro --ablate
/// retry-budget` prints.
pub fn render_retry_budget(r: &RetryBudgetAblation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "retry-budget ablation under `{}`:", r.scenario);
    let _ = writeln!(out, "{:>24}  {:>14}  {:>14}", "", "budget on", "budget off");
    let row = |out: &mut String, label: &str, on: u64, off: u64| {
        let _ = writeln!(out, "{label:>24}  {on:>14}  {off:>14}");
    };
    row(
        &mut out,
        "retries issued",
        r.with_budget.retries_issued,
        r.without_budget.retries_issued,
    );
    row(
        &mut out,
        "retries denied",
        r.with_budget.retries_denied,
        r.without_budget.retries_denied,
    );
    row(
        &mut out,
        "load sheds",
        r.with_budget.load_sheds,
        r.without_budget.load_sheds,
    );
    row(
        &mut out,
        "total attempts",
        r.with_budget.total_spans,
        r.without_budget.total_spans,
    );
    let _ = writeln!(
        out,
        "{:>24}  {:>14.4}  {:>14.4}",
        "retry amplification",
        r.with_budget.amplification(),
        r.without_budget.amplification()
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

/// Runs one ablation at the given scale.
pub fn run_ablation(ablation: Ablation, scale: &SimScale) -> AblationResult {
    match ablation {
        Ablation::Hedging => {
            let on = run_fleet(config(scale));
            let mut cfg = config(scale);
            cfg.hedging_enabled = false;
            let off = run_fleet(cfg);
            AblationResult {
                ablation,
                metric: "P99 latency of hedged storage methods (s)",
                with_mechanism: hedged_tail(&on),
                without_mechanism: hedged_tail(&off),
            }
        }
        Ablation::Congestion => {
            let on = run_fleet(config(scale));
            let mut cfg = config(scale);
            cfg.congestion_enabled = false;
            let off = run_fleet(cfg);
            // Here the "mechanism" is congestion itself: with it on, the
            // tail is worse, so improvement() < 1 documents its cost.
            AblationResult {
                ablation,
                metric: "fleet P99 network-wire latency (s)",
                with_mechanism: network_tail(&on),
                without_mechanism: network_tail(&off),
            }
        }
        Ablation::ReservedCores => {
            let on = run_fleet(config(scale));
            let mut cfg = config(scale);
            cfg.reserved_cores_enabled = false;
            let off = run_fleet(cfg);
            AblationResult {
                ablation,
                metric: "KV-Store server-side latency rise, hot vs cool utilization quartile",
                with_mechanism: kv_util_coupling(&on),
                without_mechanism: kv_util_coupling(&off),
            }
        }
    }
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
        let r = run_ablation(Ablation::Hedging, &scale());
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
        let r = run_ablation(Ablation::Congestion, &scale());
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
        let r = run_retry_budget_ablation(&scale(), FaultScenario::overload_collapse());
        // The budget denied retries the unbudgeted arm went on to issue.
        assert!(r.with_budget.retries_denied > 0, "{r:?}");
        assert_eq!(r.without_budget.retries_denied, 0, "{r:?}");
        assert!(
            r.without_budget.retries_issued > r.with_budget.retries_issued,
            "{r:?}"
        );
        // And the storm it clamps is visible in the amplification gap.
        assert!(
            r.without_budget.amplification() > r.with_budget.amplification(),
            "amplification with {:.4} vs without {:.4}",
            r.with_budget.amplification(),
            r.without_budget.amplification()
        );
    }

    #[test]
    fn reserved_cores_decouple_kv_from_utilization() {
        let r = run_ablation(Ablation::ReservedCores, &scale());
        assert!(
            r.without_mechanism > r.with_mechanism,
            "coupling with reservation {:.3} vs without {:.3}",
            r.with_mechanism,
            r.without_mechanism
        );
    }
}
