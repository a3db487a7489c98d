//! The `wire-mem` workload: `rpclens_bench::wire::run_over_memlink`,
//! at-least-once, over the default 400-method catalog. One client with
//! one outstanding call; client and server share one thread.

use crate::spans::Tracer;
use crate::{finish, pipeline, schedule, traced_iteration, Checks, Readings, Report};
use rpclens_bench::wire::{build_table, run_over_memlink, WireBenchConfig, WireReport};
use rpclens_fleet::catalog::{Catalog, CatalogConfig};
use rpclens_fleet::servable::ServableTable;
use rpclens_netsim::topology::Topology;
use rpclens_obs::json::Json;
use std::time::Instant;

/// `WireBenchConfig`'s preset seed.
pub const DEFAULT_SEED: u64 = 42;

/// Calls per iteration: enough for 200 samples beyond the p99.
const REQUESTS: u32 = 20_000;

/// Servable-table builds timed per untraced iteration for `setup_s`.
///
/// One build takes 0.2–0.35 ms. The host's speed switches between
/// states that last seconds, so the builds after one iteration all sit
/// in one state and a median over iterations flips between states from
/// run to run (up to +50% between sets of runs). `setup_s` is therefore
/// the fastest build of the run, which a later change can only move by
/// changing the build's own cost.
const SETUP_REPEATS: usize = 25;

fn config(seed: u64, requests: u32) -> WireBenchConfig {
    WireBenchConfig {
        requests,
        seed,
        ..WireBenchConfig::default()
    }
}

/// The deterministic part of a wire report: call and byte totals.
fn fingerprint(r: &WireReport) -> [(&'static str, u64); 10] {
    [
        ("started", r.started),
        ("completed", r.completed),
        ("lost", r.lost),
        ("retransmissions", r.retransmissions),
        ("executed", r.executed),
        ("dedup_hits", r.dedup_hits),
        ("request_raw_bytes", r.request_raw_bytes),
        ("request_wire_bytes", r.request_wire_bytes),
        ("response_raw_bytes", r.response_raw_bytes),
        ("response_wire_bytes", r.response_wire_bytes),
    ]
}

fn fingerprint_json(r: &WireReport) -> Json {
    Json::obj(fingerprint(r).map(|(name, v)| (name, Json::Uint(u128::from(v)))))
}

fn run(t: &mut Tracer, config: &WireBenchConfig) -> (WireReport, f64) {
    let start = Instant::now();
    let report = t
        .span("bench.wire.run_over_memlink", |_| run_over_memlink(config))
        .unwrap_or_else(|e| panic!("memlink run failed: {e:?}"));
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// Per-call wire readings of one run that took `call_ms`.
fn wire_readings(r: &WireReport, call_ms: f64, out: &mut Readings) {
    let calls = r.completed as f64;
    out.push("bench.wire.run_over_memlink_ms", "ms", call_ms);
    out.push("rpcwire.compress_ns", "ns", r.measured.compress_ns / calls);
    out.push("rpcwire.encode_ns", "ns", r.measured.encode_ns / calls);
    out.push(
        "rpcwire.server_decode_ns",
        "ns",
        r.measured.server_decode_ns / calls,
    );
    out.push("rpcwire.transit_ns", "ns", r.measured.transit_ns / calls);
    out.push("rpcwire.server_exec_ns", "ns", r.server_exec_ns / calls);
    let wire = (r.request_wire_bytes + r.response_wire_bytes) as f64;
    let raw = (r.request_raw_bytes + r.response_raw_bytes) as f64;
    out.push("rpcwire.wire_bytes_ratio", "ratio", wire / raw);
    out.push("rpcwire.retransmissions", "count", r.retransmissions as f64);
    out.push("rpcwire.rpc_p50_us", "us", r.rtt_percentiles_ns.0 / 1e3);
    out.push("rpcwire.rpc_p99_us", "us", r.rtt_percentiles_ns.2 / 1e3);
    out.push("rpcwire.rpcs_per_s", "1/s", calls / (call_ms / 1e3));
    out.push("rpcwire.samples", "count", calls);
}

/// The servable-table build, layer by layer.
fn probe_servable(t: &mut Tracer, config: &WireBenchConfig, out: &mut Readings) {
    let root = t.mark();
    t.span("bench.probe", |t| {
        let topology = t.span("netsim.topology.default_world", |_| {
            Topology::default_world(config.seed)
        });
        let catalog = t.span("fleet.catalog.generate", |_| {
            Catalog::generate(
                &CatalogConfig {
                    total_methods: config.total_methods,
                    seed: config.seed,
                },
                &topology,
            )
        });
        t.span("fleet.servable.build", |_| {
            ServableTable::from_catalog(&catalog)
        });
    });
    let servable = t
        .slice(root..t.mark())
        .iter()
        .find(|s| s.name == "fleet.servable.build");
    out.push(
        "fleet.servable.build_ms",
        "ms",
        servable.expect("servable span").ms(),
    );
}

/// Wire readings for a workload that does not run `rpcwire` itself: one
/// memlink run of `requests` calls and a servable-table build.
pub fn probe(t: &mut Tracer, seed: u64, requests: u32, out: &mut Readings) {
    let config = config(seed, requests);
    let (report, call_ms) = t.span("bench.probe", |t| run(t, &config));
    wire_readings(&report, call_ms, out);
    probe_servable(t, &config, out);
}

pub fn bench(seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> Report {
    let config = config(seed, REQUESTS);
    let mut checks = Checks::default();
    let mut end_to_end = Readings::default();
    let mut per_layer = Readings::default();
    let mut reference: Option<WireReport> = None;
    let (mut untraced, mut traced_n) = (0, 0);
    let mut fastest_setup = f64::INFINITY;
    schedule(seconds, trace, tracer, |t, traced| {
        let root = t.mark();
        let (report, call_ms, wall_ms) = t.span("bench.iteration", |t| {
            let start = Instant::now();
            let (report, call_ms) = run(t, &config);
            t.span("bench.verdict", |_| {
                checks.tally(
                    report.started,
                    std::iter::repeat_n("lost RPC".to_string(), report.lost as usize),
                );
                checks.check(report.completed == report.started, || {
                    format!("{} of {} calls completed", report.completed, report.started)
                });
                checks.check(report.started == u64::from(config.requests), || {
                    format!(
                        "{} calls started, {} configured",
                        report.started, config.requests
                    )
                });
                let reference = reference.get_or_insert_with(|| report.clone());
                checks.check(fingerprint(&report) == fingerprint(reference), || {
                    format!(
                        "call and byte totals differ from the first iteration's: {:?}",
                        fingerprint(&report)
                    )
                });
            });
            (report, call_ms, start.elapsed().as_secs_f64() * 1e3)
        });
        if traced {
            traced_n += 1;
            traced_iteration(t, root, &mut checks, &mut per_layer);
            wire_readings(&report, call_ms, &mut per_layer);
            probe_servable(t, &config, &mut per_layer);
            if traced_n == 1 {
                pipeline::probe_pipeline(t, seed, &mut per_layer);
            }
        } else {
            untraced += 1;
            for _ in 0..SETUP_REPEATS {
                let start = Instant::now();
                std::hint::black_box(build_table(&config));
                fastest_setup = fastest_setup.min(start.elapsed().as_secs_f64());
            }
            end_to_end.push("wall_s", "s", wall_ms / 1e3);
            end_to_end.push("ns_per_rpc", "ns", call_ms * 1e6 / report.completed as f64);
            per_layer.push("bench.wall_ms", "ms", wall_ms);
        }
    });
    end_to_end.push("setup_s", "s", fastest_setup);
    finish(trace, &mut end_to_end, &mut per_layer);
    let reference = reference.expect("at least one iteration ran");
    Report {
        untraced,
        traced: traced_n,
        shards: 1,
        threads: 1,
        checks,
        fingerprint: fingerprint_json(&reference),
        end_to_end,
        per_layer,
    }
}
