//! Substrate interoperability: the measurement tools compose correctly
//! outside the fleet driver too — a user can wire the tracer, TSDB, and
//! profiler to their own workload.

use rpclens::netsim::topology::ClusterId;
use rpclens::prelude::*;
use rpclens::profiler::{CycleProfiler, ErrorAccounting};
use rpclens::rpcstack::component::{LatencyBreakdown, LatencyComponent};
use rpclens::rpcstack::cost::{CycleCategory, CycleCost};
use rpclens::trace::collector::{TraceCollector, TraceStore};
use rpclens::trace::span::{SpanBuilder, SpanRecord, TraceData};
use rpclens::trace::tree::TreeStats;

/// Builds a synthetic three-tier trace by hand: a frontend calling two
/// backends, one of which calls storage.
fn hand_built_trace(seed: u64) -> TraceData {
    let mut rng = Prng::seed_from(seed);
    let mut mk = |method: u32, parent: Option<u32>, app_us: f64| {
        let mut b = LatencyBreakdown::new();
        b.set(
            LatencyComponent::ServerApplication,
            SimDuration::from_micros_f64(app_us),
        );
        b.set(
            LatencyComponent::RequestNetworkWire,
            SimDuration::from_micros_f64(20.0 + rng.next_f64() * 30.0),
        );
        let builder = SpanBuilder::new(
            MethodId(method),
            ServiceId((method % 7) as u16),
            ClusterId(0),
            ClusterId(1),
        )
        .breakdown(b)
        .sizes(256, 1024)
        .cycles(1_000_000);
        match parent {
            Some(p) => builder.parent(p),
            None => builder,
        }
        .build()
    };
    let spans = vec![
        mk(1, None, 5_000.0),
        mk(2, Some(0), 1_000.0),
        mk(3, Some(0), 2_000.0),
        mk(4, Some(2), 300.0),
    ];
    TraceData::new(SimTime::ZERO, spans)
}

#[test]
fn tracer_tsdb_profiler_compose_by_hand() {
    let collector = TraceCollector::new(4);
    let mut store = TraceStore::new();
    let mut profiler = CycleProfiler::new();
    let mut errors = ErrorAccounting::new();
    let mut db = TimeSeriesDb::new(SimDuration::from_mins(30));

    let mut counter = 0u64;
    for trace_id in 0..1_000u64 {
        let trace = hand_built_trace(trace_id);
        counter += trace.len() as u64;
        for (i, span) in trace.spans.iter().enumerate() {
            errors.record_rpc();
            let mut cost = CycleCost::new();
            cost.add(CycleCategory::Application, span.kilocycles as u64 * 1000);
            cost.add(CycleCategory::Serialization, 10_000);
            profiler.record(
                span.service.0,
                span.method.0,
                &cost,
                1.0,
                rpclens_profiler::sample_tag(trace_id, i as u32),
            );
        }
        if collector.should_sample(trace_id) {
            store.add(trace);
        }
        db.write(
            "demo/rpcs",
            SimTime::ZERO + SimDuration::from_secs(trace_id * 60),
            counter,
        );
    }

    // ~1/4 of traces sampled.
    assert!((200..=300).contains(&store.len()), "{}", store.len());
    // Per-method indexing works across hand-built traces.
    assert_eq!(store.spans_of(MethodId(1)).len(), store.len());
    // The profiler counted everything (sampling only affects the tracer).
    assert_eq!(errors.total_rpcs(), 4_000);
    assert!(profiler.total_cycles() > 0);
    assert!(profiler.tax_fraction() > 0.0 && profiler.tax_fraction() < 0.1);
    // The TSDB can answer a rate query over the synthetic counter.
    assert_eq!(db.num_series(), 1);
    let rates = db.series("demo/rpcs").expect("written").rate();
    assert!(!rates.is_empty());
    assert!(rates.iter().all(|(_, r)| *r > 0.0));
}

#[test]
fn tree_stats_work_on_hand_built_traces() {
    let trace = hand_built_trace(7);
    let stats = TreeStats::compute(&trace);
    assert_eq!(stats.descendants[0], 3);
    assert_eq!(stats.ancestors, vec![0, 1, 1, 2]);
    assert_eq!(stats.max_depth, 2);
}

#[test]
fn queries_respect_filters_on_hand_built_traces() {
    let mut store = TraceStore::new();
    for i in 0..200 {
        store.add(hand_built_trace(i));
    }
    let q = MethodQuery {
        min_samples: 100,
        ..MethodQuery::default()
    };
    let latency = |_: &TraceData, s: &SpanRecord| s.total_latency().as_secs_f64();
    let samples = q
        .samples(&store, MethodId(1), latency)
        .expect("root method has 200 samples");
    assert_eq!(samples.len(), 200);
    // All hand-built spans are cross-cluster, so the intra-cluster filter
    // rejects everything.
    let intra = MethodQuery {
        intra_cluster_only: true,
        min_samples: 1,
        ..MethodQuery::default()
    };
    assert!(intra.samples(&store, MethodId(1), latency).is_none());
}
