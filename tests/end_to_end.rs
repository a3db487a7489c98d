//! Cross-crate integration: a full simulation exercises every substrate,
//! and the artifacts they produce must agree with each other.

use rpclens::prelude::*;
use rpclens::rpcstack::component::LatencyComponent;
use rpclens::trace::span::ROOT_PARENT;
use std::sync::OnceLock;

fn shared() -> &'static FleetRun {
    static RUN: OnceLock<FleetRun> = OnceLock::new();
    RUN.get_or_init(|| {
        run_fleet(FleetConfig::at_scale(SimScale {
            name: "integration",
            total_methods: 500,
            roots: 12_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 99,
        }))
    })
}

#[test]
fn every_substrate_sees_traffic() {
    let run = shared();
    // Tracer.
    assert!(run.store.len() > 10_000);
    assert!(run.store.total_spans() > 30_000);
    // Profiler.
    assert!(run.profiler.total_cycles() > 0);
    assert!(!run.profiler.methods_with_samples(100).is_empty());
    // Error accounting.
    assert!(run.errors.total_errors() > 0);
    // Monitoring database.
    assert!(run.tsdb.series("driver/rpcs/count").is_some());
    // Deployment.
    assert!(!run.sites.is_empty());
}

#[test]
fn span_counts_agree_across_substrates() {
    let run = shared();
    // Every simulated span is counted once in the popularity counters
    // (sampling rate 1 stores everything).
    assert_eq!(run.total_calls(), run.total_spans);
    assert_eq!(run.store.total_spans() as u64, run.total_spans);
    // Error accounting saw every RPC.
    assert_eq!(run.errors.total_rpcs(), run.total_spans);
    // Stored error spans track the accounting closely. They can differ
    // slightly: a hedge loser that had *also* drawn an injected error is
    // two error events in the accounting (the injected error plus the
    // cancellation) but one failed span.
    let span_errors: u64 = run
        .store
        .traces()
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| !s.is_ok())
        .count() as u64;
    let total = run.errors.total_errors();
    assert!(
        span_errors <= total && span_errors as f64 >= total as f64 * 0.95,
        "span errors {span_errors} vs accounted {total}"
    );
}

#[test]
fn traces_are_structurally_sound() {
    let run = shared();
    for trace in run.store.traces().iter().take(2_000) {
        assert!(!trace.spans.is_empty());
        assert!(trace.spans[0].is_root());
        for (i, span) in trace.spans.iter().enumerate().skip(1) {
            if span.parent != ROOT_PARENT {
                assert!((span.parent as usize) < i, "parent precedes child");
            }
        }
        // Every span's components are self-consistent.
        for span in &trace.spans {
            let total = span.total_latency();
            let sum: SimDuration = LatencyComponent::ALL
                .iter()
                .map(|&c| span.component(c))
                .sum();
            assert_eq!(total, sum);
        }
    }
}

#[test]
fn server_clusters_are_deployed_clusters() {
    let run = shared();
    for trace in run.store.traces().iter().take(2_000) {
        for span in &trace.spans {
            let svc = run.catalog.method(span.method).service;
            assert!(
                run.catalog
                    .service(svc)
                    .clusters
                    .contains(&span.server_cluster),
                "span served from an undeployed cluster"
            );
            assert!(run.site(svc, span.server_cluster).is_some());
        }
    }
}

#[test]
fn method_ids_are_dense_and_consistent() {
    let run = shared();
    assert_eq!(run.method_calls.len(), run.catalog.num_methods());
    for trace in run.store.traces().iter().take(500) {
        for span in &trace.spans {
            let spec = run.catalog.method(span.method);
            assert_eq!(spec.id, span.method);
            assert_eq!(spec.service, span.service);
        }
    }
}

#[test]
fn tsdb_counters_cover_the_simulated_day() {
    let run = shared();
    let rpcs = run.tsdb.series("driver/rpcs/count").expect("rpc lane");
    // 48 half-hour windows per day; roots arrive in most of them.
    assert!(rpcs.len() >= 40, "only {} windows", rpcs.len());
    assert!(rpcs.rate().iter().any(|(_, r)| *r > 0.0));
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let scale = SimScale {
        name: "determinism",
        total_methods: 320,
        roots: 1_500,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 1234,
    };
    let a = run_fleet(FleetConfig::at_scale(scale.clone()));
    let b = run_fleet(FleetConfig::at_scale(scale));
    assert_eq!(a.total_spans, b.total_spans);
    assert_eq!(a.method_calls, b.method_calls);
    assert_eq!(a.profiler.total_cycles(), b.profiler.total_cycles());
    assert_eq!(a.errors.total_errors(), b.errors.total_errors());
    for (ta, tb) in a.store.traces().iter().zip(b.store.traces()) {
        assert_eq!(ta.spans, tb.spans);
    }
}

#[test]
fn different_seeds_produce_different_fleets() {
    let mut scale = SimScale {
        name: "seeds",
        total_methods: 320,
        roots: 1_500,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 1,
    };
    let a = run_fleet(FleetConfig::at_scale(scale.clone()));
    scale.seed = 2;
    let b = run_fleet(FleetConfig::at_scale(scale));
    assert_ne!(a.method_calls, b.method_calls);
}
