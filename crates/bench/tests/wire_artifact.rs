//! Gating integration test for the wire validation harness.
//!
//! The in-memory-link path runs here (no sockets, safe for any CI
//! sandbox); the real UDP loopback smoke is `#[ignore]`d and executed by
//! the non-gating CI job (`cargo test ... -- --ignored`).

use rpclens_bench::wire::{run_over_memlink, run_over_udp, wire_text, WireBenchConfig};
use rpclens_bench::wiretrace::{run_traced_udp, TraceBenchConfig};
use rpclens_obs::json::{parse, Json};
use rpclens_rpcwire::server::Semantics;
use rpclens_trace::export::{export, import};

fn config(semantics: Semantics) -> WireBenchConfig {
    WireBenchConfig {
        requests: 200,
        seed: 11,
        total_methods: 300,
        semantics,
    }
}

#[test]
fn memlink_validation_run_produces_a_complete_artifact() {
    let report = run_over_memlink(&config(Semantics::AtLeastOnce)).unwrap();
    assert_eq!(report.started, 200);
    assert_eq!(report.lost, 0, "no request may be lost");
    assert_eq!(report.executed, 200);

    let artifact = report.to_json();
    let text = artifact.to_pretty();
    let parsed = parse(&text).expect("artifact is valid JSON");

    // Every section the inspect renderer needs is present.
    for section in [
        "config",
        "calls",
        "bytes",
        "measured_ns",
        "modeled_ns",
        "ratio_measured_over_modeled",
        "rtt_ns",
    ] {
        assert!(parsed.get(section).is_some(), "missing section {section}");
    }
    assert_eq!(
        parsed.get("kind").and_then(Json::as_str),
        Some("wire-validation")
    );
    let calls = parsed.get("calls").unwrap();
    assert_eq!(calls.get("lost").and_then(Json::as_u64), Some(0));

    // Modeled numbers are strictly positive — the comparison is real.
    let modeled = parsed.get("modeled_ns").unwrap();
    for key in ["compress_ns", "encode_ns", "server_decode_ns", "transit_ns"] {
        let v = modeled.get(key).and_then(Json::as_f64).unwrap();
        assert!(v > 0.0, "modeled {key} is {v}");
    }

    let rendered = wire_text(&parsed).unwrap();
    assert!(rendered.contains("wire validation: 200 requests"));
    assert!(rendered.contains("transit"));
}

#[test]
fn at_most_once_memlink_run_also_loses_nothing() {
    let report = run_over_memlink(&config(Semantics::AtMostOnce)).unwrap();
    assert_eq!(report.lost, 0);
    // A lossless link never triggers dedup.
    assert_eq!(report.dedup_hits, 0);
}

#[test]
fn workload_bytes_are_reproducible() {
    let a = run_over_memlink(&config(Semantics::AtLeastOnce)).unwrap();
    let b = run_over_memlink(&config(Semantics::AtLeastOnce)).unwrap();
    assert_eq!(a.request_raw_bytes, b.request_raw_bytes);
    assert_eq!(a.response_wire_bytes, b.response_wire_bytes);
    assert_eq!(a.modeled.transit_ns, b.modeled.transit_ns);
}

/// Real-socket smoke: round-trips catalog RPCs over 127.0.0.1. Run by
/// the non-gating CI job; loopback timing varies with machine load (see
/// docs/KNOWN_ISSUES.md), so only loss counts are asserted.
#[test]
#[ignore = "needs UDP loopback sockets; run with --ignored"]
fn udp_loopback_smoke_round_trips_without_loss() {
    let report = run_over_udp(&WireBenchConfig {
        requests: 1_000,
        seed: 3,
        total_methods: 300,
        semantics: Semantics::AtLeastOnce,
    })
    .unwrap();
    assert_eq!(report.started, 1_000);
    assert_eq!(report.lost, 0, "at-least-once must never lose a request");
    assert!(report.measured.transit_ns > 0.0);
}

/// Real-socket traced smoke: every root becomes a single-span trace
/// reconstructed from the wall clock, and the export round-trips.
#[test]
#[ignore = "needs UDP loopback sockets; run with --ignored"]
fn traced_udp_loopback_smoke_captures_single_span_traces() {
    let report = run_traced_udp(&TraceBenchConfig {
        requests: 200,
        seed: 3,
        total_methods: 300,
        ..TraceBenchConfig::default()
    })
    .unwrap();
    assert_eq!(report.transport, "udp-loopback");
    assert_eq!(report.store.len(), 200, "one trace per root call");
    assert!(report.store.traces().iter().all(|t| t.len() == 1));
    let imported = import(&report.export).unwrap();
    assert_eq!(imported.len(), report.store.len());
    assert_eq!(
        export(&imported),
        report.export,
        "import/export is byte-stable"
    );
}
