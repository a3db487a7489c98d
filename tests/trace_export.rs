//! Persistence round-trip: a real fleet run's trace store survives
//! export/import bit-exactly, and the characterization analyses produce
//! identical results on the imported store.

use rpclens::core::figs::{fig02, fig11};
use rpclens::prelude::*;
use rpclens::trace::export::{export, import};
use rpclens::trace::span::{SpanRecord, TraceData};

#[test]
fn fleet_traces_roundtrip_and_reanalyse_identically() {
    let run = run_fleet(FleetConfig::at_scale(SimScale {
        name: "export-test",
        total_methods: 320,
        roots: 4_000,
        duration: SimDuration::from_hours(24),
        trace_sample_rate: 1,
        profiler_sample_cap: 10_000,
        seed: 5,
    }));

    let bytes = export(&run.store);
    // Compact: well under 100 bytes per span.
    assert!(
        bytes.len() < run.store.total_spans() * 100,
        "{} bytes for {} spans",
        bytes.len(),
        run.store.total_spans()
    );
    let imported = import(&bytes).expect("valid export");
    assert_eq!(imported.len(), run.store.len());
    assert_eq!(imported.total_spans(), run.store.total_spans());
    for (a, b) in run.store.traces().iter().zip(imported.traces()) {
        assert_eq!(a.root_start, b.root_start);
        assert_eq!(a.spans, b.spans);
    }

    // Analyses over the imported store match the originals exactly.
    let query = MethodQuery::default();
    let latency = |_: &TraceData, s: &SpanRecord| s.total_latency().as_secs_f64();
    assert!(
        query
            .groups(&run.store, latency)
            .eq(query.groups(&imported, latency)),
        "per-method samples differ after roundtrip"
    );
    // Figure-level comparison via a run whose store is the imported one.
    let fig_a = fig02::compute(&run);
    let fig_b_rows = {
        // Rebuild a run view with the imported store.
        let mut run2 = run;
        run2.store = imported;
        let fig = fig02::compute(&run2);
        let tax = fig11::compute(&run2);
        assert!(!tax.heatmap.is_empty());
        fig.heatmap.rows
    };
    assert_eq!(fig_a.heatmap.len(), fig_b_rows.len());
    for (ra, rb) in fig_a.heatmap.rows.iter().zip(&fig_b_rows) {
        assert_eq!(ra.method, rb.method);
        assert_eq!(ra.summary.p50, rb.summary.p50);
        assert_eq!(ra.summary.p99, rb.summary.p99);
    }
}
