//! Drill-down queries over exported trace stores and run manifests.
//!
//! The `rpclens-inspect` binary is a thin argument parser around this
//! module; the rendering functions live here so they are unit-testable
//! without spawning a process. All three query types operate on
//! artifacts a previous `repro` run persisted (`--export-store`,
//! `--telemetry`), so drilling down never re-runs the simulation.

use rpclens_fleet::conditions::Environment;
use rpclens_fleet::driver::SimScale;
use rpclens_fleet::faults::FaultScenario;
use rpclens_netsim::topology::Topology;
use rpclens_obs::RunManifest;
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_simcore::stats::nearest_rank;
use rpclens_trace::collector::TraceStore;
use rpclens_trace::critical_path::CriticalPath;
use rpclens_trace::query::MethodQuery;
use rpclens_trace::span::{SpanRecord, TraceData};

/// Resolves a latency component from a CLI spelling.
///
/// Matching is case- and punctuation-insensitive against both the enum
/// variant name and the display label, so `server-application`,
/// `ServerApplication`, and `"Server Application"` all resolve.
pub fn component_by_name(name: &str) -> Option<LatencyComponent> {
    let norm = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let want = norm(name);
    LatencyComponent::ALL
        .iter()
        .copied()
        .find(|&c| norm(c.label()) == want || norm(&format!("{c:?}")) == want)
}

fn fmt_us(secs: f64) -> String {
    format!("{:.1}", secs * 1e6)
}

/// Renders the top-`n` slowest methods by P99 of one latency component
/// (or of total completion time when `component` is `None`).
///
/// Methods need at least `min_samples` non-erroneous spans to be ranked,
/// mirroring the paper's ≥100-sample rule; pass a smaller floor for
/// small stores.
pub fn top_methods(
    store: &TraceStore,
    component: Option<LatencyComponent>,
    n: usize,
    min_samples: usize,
) -> String {
    let query = MethodQuery {
        min_samples,
        ..MethodQuery::default()
    };
    let metric_label = component.map_or("total latency", |c| c.label());
    let metric = |_: &TraceData, s: &SpanRecord| match component {
        Some(c) => s.component(c).as_secs_f64(),
        None => s.total_latency().as_secs_f64(),
    };
    let mut rows: Vec<(u32, usize, f64, f64, f64)> = Vec::new();
    for (method, mut samples) in query.groups(store, metric) {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let at = |q| nearest_rank(&samples, q).expect("groups are non-empty");
        rows.push((method.0, samples.len(), at(0.50), at(0.99), at(1.0)));
    }
    // Rank by P99 descending; method id breaks ties deterministically.
    rows.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite").then(a.0.cmp(&b.0)));
    rows.truncate(n);

    let mut out = format!(
        "Top {} methods by P99 {metric_label} ({} traces, {} spans)\n",
        rows.len(),
        store.len(),
        store.total_spans()
    );
    out.push_str(&format!(
        "{:>8} {:>8} {:>12} {:>12} {:>12}\n",
        "method", "samples", "p50 (us)", "p99 (us)", "max (us)"
    ));
    for (method, count, p50, p99, max) in rows {
        out.push_str(&format!(
            "{:>8} {:>8} {:>12} {:>12} {:>12}\n",
            method,
            count,
            fmt_us(p50),
            fmt_us(p99),
            fmt_us(max)
        ));
    }
    out
}

/// Renders the critical path of the trace at `index` in the store.
///
/// Each hop shows the method, its exclusive (non-overlapped) wall time,
/// and a proportional bar; exclusive times always sum to the root's
/// completion time.
pub fn critical_path_text(store: &TraceStore, index: usize) -> Result<String, String> {
    let trace = store.traces().get(index).ok_or_else(|| {
        format!(
            "trace {index} out of range (store has {} traces)",
            store.len()
        )
    })?;
    let path = CriticalPath::compute(trace);
    let total_us = path.total.as_secs_f64() * 1e6;
    let mut out = format!(
        "Trace {index}: {} spans, root completion {:.1} us, critical path {} hops\n",
        trace.len(),
        total_us,
        path.len()
    );
    out.push_str(&format!(
        "{:>5} {:>8} {:>8} {:>12} {:>6}  {}\n",
        "hop", "span", "method", "excl (us)", "share", "bar"
    ));
    for (depth, hop) in path.hops.iter().enumerate() {
        let excl_us = hop.exclusive.as_secs_f64() * 1e6;
        let share = if total_us > 0.0 {
            excl_us / total_us
        } else {
            0.0
        };
        let bar_len = (share * 40.0).round() as usize;
        out.push_str(&format!(
            "{:>5} {:>8} {:>8} {:>12.1} {:>5.1}%  {}{}\n",
            depth,
            hop.span,
            hop.method.0,
            excl_us,
            share * 100.0,
            "  ".repeat(depth.min(12)),
            "#".repeat(bar_len.max(usize::from(excl_us > 0.0)))
        ));
    }
    out.push_str(&format!(
        "exclusive sum {:.1} us (= root completion)\n",
        path.exclusive_sum().as_secs_f64() * 1e6
    ));
    Ok(out)
}

/// The `rpclens-inspect trace` view of a measured wire-trace capture:
/// trace `index`'s waterfall and critical path, then the per-method
/// measured-vs-modeled deltas priced against the capture's catalog
/// (`seed`, `methods`).
pub fn trace_text(
    store: &TraceStore,
    index: usize,
    seed: u64,
    methods: usize,
) -> Result<String, String> {
    Ok(format!(
        "{}\n{}\n{}",
        crate::wiretrace::waterfall_text(store, index)?,
        critical_path_text(store, index)?,
        crate::wiretrace::method_delta_text(store, seed, methods)
    ))
}

/// Renders a flamegraph-style text breakdown of the cycle tax from a run
/// manifest: one full-width root frame for all cycles, with each
/// category's sub-frame scaled to its share, largest first.
pub fn cycle_tax_text(manifest: &RunManifest) -> String {
    const WIDTH: usize = 60;
    let d = &manifest.deterministic;
    let total = d.cycles_total.max(1);
    let mut out = format!(
        "Cycle tax breakdown (seed {}, scale {}): {} total cycles\n",
        d.seed, d.scale, d.cycles_total
    );
    out.push_str(&format!("{} all\n", "#".repeat(WIDTH)));
    let mut cats: Vec<(&str, u128)> = d
        .cycles_by_category
        .iter()
        .map(|(label, cycles)| (label.as_str(), *cycles))
        .collect();
    cats.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (label, cycles) in cats {
        let share = cycles as f64 / total as f64;
        let bar = ((share * WIDTH as f64).round() as usize).max(usize::from(cycles > 0));
        out.push_str(&format!(
            "{:<width$} {} {:.2}%\n",
            "#".repeat(bar),
            label,
            share * 100.0,
            width = WIDTH
        ));
    }
    out.push_str(&format!(
        "cycle tax: {:.3}% of all cycles outside the application\n",
        d.tax_ppm as f64 / 10_000.0
    ));
    out
}

/// Renders the Fig. 23 error-class breakdown from a run manifest: per
/// class, the error count, its share of all errors, and — when the
/// manifest carries a `robustness` section — its share of wasted cycles,
/// plus the executed resilience-loop counters.
///
/// Manifests from fault-free runs have no `robustness` section; those
/// fall back to the count-only breakdown in the deterministic section so
/// the command still answers, with a note about what is missing.
pub fn errors_text(manifest: &RunManifest) -> String {
    let d = &manifest.deterministic;
    let mut out = format!(
        "Error breakdown (seed {}, scale {}): {} errors / {} spans ({:.3}%)\n",
        d.seed,
        d.scale,
        d.errors_total,
        d.spans,
        if d.spans > 0 {
            d.errors_total as f64 / d.spans as f64 * 100.0
        } else {
            0.0
        }
    );
    match &manifest.robustness {
        Some(r) => {
            out.push_str(&format!("fault scenario: {}\n\n", r.scenario));
            let total_count: u64 = r.errors.iter().map(|(_, c, _)| c).sum();
            let total_cycles: u128 = r.errors.iter().map(|(_, _, cy)| cy).sum();
            out.push_str(&format!(
                "{:<20} {:>10} {:>12} {:>14}\n",
                "error", "count", "count share", "cycle share"
            ));
            let mut rows: Vec<&(String, u64, u128)> = r.errors.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (label, count, cycles) in rows {
                let cs = *count as f64 / total_count.max(1) as f64;
                let cys = *cycles as f64 / total_cycles.max(1) as f64;
                out.push_str(&format!(
                    "{label:<20} {count:>10} {:>11.2}% {:>13.2}%\n",
                    cs * 100.0,
                    cys * 100.0
                ));
            }
            out.push_str(&format!(
                "\nresilience loop: {} retries issued, {} denied by budget, {} failovers\n\
                 causal errors: {} unavailable, {} load-shed, {} deadline-exceeded\n",
                r.retries_issued,
                r.retries_denied,
                r.failovers,
                r.causal_unavailable,
                r.load_sheds,
                r.deadline_exceeded
            ));
            if !r.incidents.is_empty() {
                out.push_str(&format!(
                    "\n{:<20} {:>16} {:>10}\n",
                    "incident", "entities struck", "episodes"
                ));
                for (kind, struck, episodes) in &r.incidents {
                    out.push_str(&format!("{kind:<20} {struck:>16} {episodes:>10}\n"));
                }
            }
            if !r.controllers.is_empty() {
                out.push_str(&format!("\n{:<34} {:>12}\n", "controller", "value"));
                for (name, value) in &r.controllers {
                    out.push_str(&format!("{name:<34} {value:>12}\n"));
                }
            }
        }
        None => {
            out.push_str("fault scenario: none (no robustness section in manifest)\n\n");
            let total: u64 = d.errors_by_kind.iter().map(|(_, c)| c).sum();
            out.push_str(&format!(
                "{:<20} {:>10} {:>12}\n",
                "error", "count", "count share"
            ));
            let mut rows: Vec<&(String, u64)> = d.errors_by_kind.iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (label, count) in rows {
                out.push_str(&format!(
                    "{label:<20} {count:>10} {:>11.2}%\n",
                    *count as f64 / total.max(1) as f64 * 100.0
                ));
            }
            out.push_str(
                "\nwasted-cycle shares need a fault-scenario manifest (repro --faults ...)\n",
            );
        }
    }
    out
}

/// Renders the closed-loop controller timeline for a fault scenario run
/// at `scale` (its seed and duration): one line per aggregation window
/// with the clusters holding autoscaled capacity and the degraded paths
/// the load balancer avoids.
///
/// Controller decisions are pure functions of `(seed, scenario)` — the
/// same trajectories every fleet run at this scale executes — so the
/// timeline reconstructs exactly without re-simulating, the same way
/// the manifest's controller rows do.
pub fn controllers_text(scenario: &str, scale: &SimScale) -> Result<String, String> {
    let faults = FaultScenario::by_name(scenario)
        .ok_or_else(|| format!("unknown fault scenario {scenario}"))?;
    if faults.control.is_none() {
        return Err(format!(
            "scenario `{}` has no control plane; closed-loop presets: incident-smoke",
            faults.name
        ));
    }
    let topology = Topology::default_world(scale.seed);
    let mut out = format!("scenario {} at seed {}\n", faults.name, scale.seed);
    out.push_str(&Environment::new(&faults, scale.seed, &topology).render_timeline(scale.duration));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_netsim::topology::ClusterId;
    use rpclens_rpcstack::component::LatencyBreakdown;
    use rpclens_simcore::time::{SimDuration, SimTime};
    use rpclens_trace::span::{MethodId, ServiceId, SpanBuilder, SpanRecord, TraceData};

    fn span(
        method: u32,
        parent: Option<u32>,
        start_us: u64,
        app_us: u64,
        queue_us: u64,
    ) -> SpanRecord {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_micros(app_us),
        );
        b.set(
            LatencyComponent::ServerRecvQueue,
            SimDuration::from_micros(queue_us),
        );
        let builder = SpanBuilder::new(MethodId(method), ServiceId(0), ClusterId(0), ClusterId(0))
            .start_offset(SimDuration::from_micros(start_us))
            .breakdown(b);
        match parent {
            Some(p) => builder.parent(p),
            None => builder,
        }
        .build()
    }

    fn store() -> TraceStore {
        let mut store = TraceStore::new();
        for i in 0..20u64 {
            store.add(TraceData::new(
                SimTime::from_nanos(i * 1_000),
                vec![
                    // Method 1 is slow, method 2 queues heavily.
                    span(1, None, 0, 5_000 + i, 10),
                    span(2, Some(0), 100, 300, 900 + i),
                ],
            ));
        }
        store
    }

    #[test]
    fn component_names_resolve_flexibly() {
        for c in LatencyComponent::ALL {
            assert_eq!(component_by_name(c.label()), Some(c));
            assert_eq!(component_by_name(&format!("{c:?}")), Some(c));
        }
        assert_eq!(
            component_by_name("server-recv-queue"),
            Some(LatencyComponent::ServerRecvQueue)
        );
        assert_eq!(component_by_name("bogus"), None);
    }

    #[test]
    fn top_methods_ranks_by_chosen_metric() {
        let s = store();
        // By total latency, method 1 dominates.
        let text = top_methods(&s, None, 5, 1);
        let first_row = text.lines().nth(2).expect("a ranked row");
        assert!(first_row.trim_start().starts_with('1'), "{text}");
        // By server queue time, method 2 dominates.
        let text = top_methods(&s, Some(LatencyComponent::ServerRecvQueue), 5, 1);
        let first_row = text.lines().nth(2).expect("a ranked row");
        assert!(first_row.trim_start().starts_with('2'), "{text}");
    }

    #[test]
    fn top_methods_respects_sample_floor() {
        let s = store();
        let text = top_methods(&s, None, 5, 1_000);
        assert!(text.starts_with("Top 0 methods"), "{text}");
    }

    #[test]
    fn top_methods_skips_error_only_methods_without_a_floor() {
        let mut s = store();
        let mut failed = span(3, None, 0, 100, 10);
        failed.error = Some(rpclens_rpcstack::error::ErrorKind::Unavailable);
        s.add(TraceData::new(SimTime::ZERO, vec![failed]));
        let text = top_methods(&s, None, 5, 0);
        assert!(text.starts_with("Top 2 methods"), "{text}");
    }

    #[test]
    fn critical_path_renders_and_bounds_check() {
        let s = store();
        let text = critical_path_text(&s, 0).expect("trace 0 exists");
        assert!(text.contains("critical path 2 hops"), "{text}");
        assert!(text.contains("= root completion"), "{text}");
        assert!(critical_path_text(&s, 999).is_err());
    }

    fn manifest_with_errors() -> RunManifest {
        use rpclens_obs::telemetry::RunTelemetry;
        RunManifest::from_telemetry(
            &RunTelemetry::default(),
            11,
            "test",
            10,
            1_000,
            vec![
                ("Cancelled".to_string(), 45),
                ("Entity not found".to_string(), 20),
                ("Unavailable".to_string(), 0),
            ],
            vec![("Application".to_string(), 1_000)],
            5_000,
        )
    }

    #[test]
    fn errors_text_without_robustness_renders_counts_only() {
        let text = errors_text(&manifest_with_errors());
        assert!(text.contains("fault scenario: none"), "{text}");
        // Largest class first, with its share of the 65 total errors.
        let cancelled = text
            .lines()
            .position(|l| l.starts_with("Cancelled"))
            .unwrap();
        let nf = text
            .lines()
            .position(|l| l.starts_with("Entity not found"))
            .unwrap();
        assert!(cancelled < nf, "{text}");
        assert!(text.contains("69.23%"), "{text}");
        assert!(text.contains("wasted-cycle shares need"), "{text}");
    }

    #[test]
    fn errors_text_renders_robustness_section() {
        use rpclens_obs::RobustnessSection;
        let mut m = manifest_with_errors();
        m.robustness = Some(RobustnessSection {
            scenario: "chaos-smoke".to_string(),
            retries_issued: 7,
            retries_denied: 3,
            failovers: 5,
            causal_unavailable: 2,
            load_sheds: 1,
            deadline_exceeded: 4,
            errors: vec![
                ("Cancelled".to_string(), 45, 900),
                ("Entity not found".to_string(), 20, 100),
            ],
            incidents: vec![("cluster-drain".to_string(), 3, 14)],
            controllers: vec![("lb_shifts".to_string(), 120)],
        });
        let text = errors_text(&m);
        assert!(text.contains("fault scenario: chaos-smoke"), "{text}");
        // Cancelled: 45/65 counts, 900/1000 cycles.
        assert!(text.contains("69.23%"), "{text}");
        assert!(text.contains("90.00%"), "{text}");
        assert!(text.contains("7 retries issued"), "{text}");
        assert!(text.contains("3 denied by budget"), "{text}");
        assert!(text.contains("5 failovers"), "{text}");
        assert!(text.contains("4 deadline-exceeded"), "{text}");
        // Incident and controller tables render when populated.
        assert!(text.contains("cluster-drain"), "{text}");
        assert!(text.contains("lb_shifts"), "{text}");
        assert!(text.contains("120"), "{text}");
    }

    #[test]
    fn controllers_text_reconstructs_the_incident_smoke_timeline() {
        let scale = SimScale {
            seed: 42,
            ..SimScale::smoke()
        };
        let text = controllers_text("incident-smoke", &scale).expect("timeline");
        assert!(
            text.contains("scenario incident-smoke at seed 42"),
            "{text}"
        );
        assert!(text.contains("48 windows"), "{text}");
        // At incident-smoke eligibility something always scales or
        // degrades within a day.
        assert!(
            !text.contains("\n  0 windows with controller activity"),
            "{text}"
        );
        // Open-loop presets have no control plane to render.
        let err = controllers_text("incident-open-loop", &scale).unwrap_err();
        assert!(err.contains("no control plane"), "{err}");
        assert!(controllers_text("nope", &scale).is_err());
    }

    #[test]
    fn cycle_tax_renders_manifest_categories() {
        use rpclens_obs::telemetry::RunTelemetry;
        let manifest = RunManifest::from_telemetry(
            &RunTelemetry::default(),
            7,
            "test",
            10,
            0,
            vec![],
            vec![
                ("Application".to_string(), 930_000),
                ("Networking".to_string(), 50_000),
                ("Serialization".to_string(), 20_000),
            ],
            70_000,
        );
        let text = cycle_tax_text(&manifest);
        assert!(text.contains("Application"), "{text}");
        assert!(text.contains("7.000% of all cycles"), "{text}");
        // Largest category renders first among the sub-frames.
        let app_line = text
            .lines()
            .position(|l| l.contains("Application"))
            .unwrap();
        let net_line = text.lines().position(|l| l.contains("Networking")).unwrap();
        assert!(app_line < net_line, "{text}");
    }
}
