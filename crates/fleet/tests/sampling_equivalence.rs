//! Trace sampling must be a pure *retention* decision.
//!
//! The paper's aggregate statistics (popularity, cycle accounting, error
//! rates, wire congestion) are computed over every simulated span, while
//! the trace store holds only the head-sampled subset. Raising
//! `trace_sample_rate` therefore may change what is *kept*, never what is
//! *simulated*: every aggregate counter must be bit-identical to a
//! rate-1 run, and the stored traces must be exactly the sampled subset
//! of the rate-1 store.

use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_simcore::time::SimDuration;
use rpclens_trace::collector::TraceCollector;

fn run_at_rate(rate: u64) -> FleetRun {
    let scale = SimScale {
        name: "sampling-equivalence",
        total_methods: 320,
        roots: 4_000,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: rate,
        profiler_sample_cap: 10_000,
        seed: 11,
    };
    run_fleet(FleetConfig::at_scale(scale))
}

#[test]
fn sampling_rate_changes_retention_only() {
    let baseline = run_at_rate(1);
    assert_eq!(
        baseline.store.len() as u64,
        baseline.telemetry.counters.traces_sampled,
        "rate 1 keeps every trace"
    );

    for rate in [2, 3, 7] {
        let sampled = run_at_rate(rate);

        // Every aggregate derived from simulation is identical.
        assert_eq!(sampled.total_spans, baseline.total_spans, "rate {rate}");
        assert_eq!(sampled.method_calls, baseline.method_calls, "rate {rate}");
        assert_eq!(sampled.method_bytes, baseline.method_bytes, "rate {rate}");
        assert_eq!(
            sampled.errors.total_rpcs(),
            baseline.errors.total_rpcs(),
            "rate {rate}"
        );
        assert_eq!(
            sampled.errors.kinds_by_count(),
            baseline.errors.kinds_by_count(),
            "rate {rate}"
        );
        assert_eq!(
            sampled.profiler.total_cycles(),
            baseline.profiler.total_cycles(),
            "rate {rate}"
        );

        // Self-telemetry counters match except the retention counter.
        let (a, b) = (&sampled.telemetry.counters, &baseline.telemetry.counters);
        assert_eq!(a.roots, b.roots, "rate {rate}");
        assert_eq!(a.spans, b.spans, "rate {rate}");
        assert_eq!(a.hedges_issued, b.hedges_issued, "rate {rate}");
        assert_eq!(a.max_depth, b.max_depth, "rate {rate}");
        assert_eq!(a.queue, b.queue, "rate {rate}");
        assert_eq!(a.wire, b.wire, "rate {rate}");
        assert_eq!(
            a.root_latency_us.count(),
            b.root_latency_us.count(),
            "rate {rate}"
        );
        assert!(
            a.traces_sampled < b.traces_sampled,
            "rate {rate} must retain fewer traces ({} vs {})",
            a.traces_sampled,
            b.traces_sampled
        );

        // The store holds exactly the sampled subset of the rate-1 store,
        // span for span: shards fold in root-sequence order, so trace i of
        // the baseline store is root i, and the collector's decision is a
        // pure function of that sequence number.
        let collector = TraceCollector::new(rate);
        let expected: Vec<_> = baseline
            .store
            .traces()
            .iter()
            .enumerate()
            .filter(|(seq, _)| collector.should_sample(*seq as u64))
            .map(|(_, t)| t)
            .collect();
        assert_eq!(sampled.store.len(), expected.len(), "rate {rate}");
        for (got, want) in sampled.store.traces().iter().zip(expected) {
            assert_eq!(got.spans, want.spans, "rate {rate}");
        }
    }
}
