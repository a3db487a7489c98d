//! `bench-ceiling` — the gating per-RPC cost check and the gating
//! peak-RSS check.
//!
//! ```text
//! bench-ceiling gate [--baseline PATH] [--runs N]
//! bench-ceiling rss  [--baseline PATH] [--scale fleet|paper|default] [--threads N] [--shards N]
//! ```
//!
//! **`gate`** runs the `smoke` preset sequentially (1 shard, 1 thread)
//! `N` times (default 3), takes the *best* wall clock — best-of-N is
//! far more noise-robust on shared CI runners than the mean — and
//! converts it to nanoseconds per simulated RPC (span). It exits
//! non-zero if that exceeds the committed ceiling in
//! `crates/bench/BENCH_driver.json` (`ceiling.smoke_ns_per_rpc`
//! inflated by `ceiling.regression_tolerance`). The ceiling is
//! deliberately generous — it catches order-of-magnitude regressions
//! (an accidental allocation or hash probe back on the hot path), while
//! honest between-machine variance stays inside the tolerance. When a
//! change intentionally moves driver cost, re-measure with perfbench
//! (`perfbench/run.py`) and move the ceiling in the same change.
//!
//! **`rss`** runs one preset (default `fleet`) once and reads the
//! process peak RSS (`VmHWM`) afterwards. When the baseline carries a
//! `ceiling.{scale}_peak_rss_mb` entry for the measured preset, the
//! check gates: it exits non-zero past the ceiling inflated by
//! `ceiling.rss_tolerance`. The report line also carries the wall
//! clock, roots/sec and simulated spans, so CI logs keep a fleet-scale
//! throughput trend next to the gate. RSS ceilings exist because the streaming
//! window aggregation made fleet-scale peak memory a load-bearing
//! property — a dense per-shard `(service, window)` grid sneaking back
//! in shows up here long before it OOMs a runner. The high-water mark
//! is process-monotone, so this subcommand must own its process: CI
//! invokes the binary fresh, never after another in-process workload.
//! Presets without a committed ceiling report and exit zero.
//!
//! `BENCH_driver.json`'s `baseline` and `current` sections are frozen
//! records of the retired `cargo bench` driver benchmark; this binary
//! reads only `ceiling`.

use rpclens_bench::peak_rss_bytes;
use rpclens_bench::scale_by_name;
use rpclens_fleet::driver::{run_fleet, FleetConfig, SimScale};
use rpclens_obs::json;

/// The committed baseline, resolved at compile time relative to this
/// crate; `--baseline PATH` overrides it.
const DEFAULT_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_driver.json");

fn usage() -> ! {
    eprintln!(
        "usage: bench-ceiling gate [--baseline PATH] [--runs N]\n\
         \x20      bench-ceiling rss  [--baseline PATH] [--scale NAME] [--threads N] [--shards N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut baseline = DEFAULT_BASELINE.to_string();
    let mut runs = 3usize;
    let mut scale: Option<SimScale> = None;
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "gate" | "rss" if mode.is_none() => mode = Some(arg.clone()),
            "--baseline" => {
                let Some(path) = iter.next() else { usage() };
                baseline = path.clone();
            }
            "--runs" => {
                let Some(n) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                runs = n;
            }
            "--scale" => {
                let Some(name) = iter.next() else { usage() };
                let Some(s) = scale_by_name(name) else {
                    eprintln!("unknown scale {name}");
                    usage();
                };
                scale = Some(s);
            }
            "--threads" => {
                let Some(n) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                threads = Some(n);
            }
            "--shards" => {
                let Some(n) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                shards = Some(n);
            }
            _ => usage(),
        }
    }
    let config = || {
        let defaults = FleetConfig::at_scale(scale.clone().unwrap_or_else(SimScale::fleet));
        FleetConfig {
            shards: shards.unwrap_or(defaults.shards),
            threads: threads.unwrap_or(defaults.threads),
            ..defaults
        }
    };
    match mode.as_deref() {
        Some("gate") => gate(&baseline, runs.max(1)),
        Some("rss") => rss(&baseline, config()),
        _ => usage(),
    }
}

/// Best-of-N smoke run against the committed per-RPC ceiling.
fn gate(baseline_path: &str, runs: usize) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let root =
        json::parse(&text).unwrap_or_else(|e| panic!("parse baseline {baseline_path}: {e:?}"));
    let ceiling = root
        .get("ceiling")
        .expect("baseline has a `ceiling` section");
    let ceiling_ns = ceiling
        .get("smoke_ns_per_rpc")
        .and_then(json::Json::as_f64)
        .expect("ceiling.smoke_ns_per_rpc");
    let tolerance = ceiling
        .get("regression_tolerance")
        .and_then(json::Json::as_f64)
        .expect("ceiling.regression_tolerance");
    let limit = ceiling_ns * (1.0 + tolerance);

    let mut best_ns_per_rpc = f64::INFINITY;
    let mut spans = 0u64;
    for i in 0..runs {
        let t0 = std::time::Instant::now();
        let run = run_fleet(FleetConfig {
            shards: 1,
            threads: 1,
            ..FleetConfig::at_scale(SimScale::smoke())
        });
        let wall_ns = t0.elapsed().as_nanos() as f64;
        spans = run.total_spans;
        let ns_per_rpc = wall_ns / run.total_spans.max(1) as f64;
        eprintln!(
            "run {}/{}: {:.0} ns/RPC over {} simulated RPCs",
            i + 1,
            runs,
            ns_per_rpc,
            run.total_spans
        );
        best_ns_per_rpc = best_ns_per_rpc.min(ns_per_rpc);
    }
    println!(
        "bench-ceiling: best {best_ns_per_rpc:.0} ns/RPC ({spans} RPCs/run), \
         ceiling {ceiling_ns:.0} +{:.0}% = {limit:.0} ns/RPC",
        tolerance * 100.0
    );
    if best_ns_per_rpc > limit {
        eprintln!(
            "FAIL: per-RPC cost regressed past the committed ceiling; if the \
             regression is intentional, measure it with perfbench and update \
             `ceiling` in {baseline_path} in the same change"
        );
        std::process::exit(1);
    }
    println!("PASS: within ceiling");
}

/// One run at the given preset, gated on the committed peak-RSS ceiling
/// when the baseline carries one for that preset.
fn rss(baseline_path: &str, config: FleetConfig) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let root =
        json::parse(&text).unwrap_or_else(|e| panic!("parse baseline {baseline_path}: {e:?}"));
    let ceiling = root
        .get("ceiling")
        .expect("baseline has a `ceiling` section");
    let key = format!("{}_peak_rss_mb", config.scale.name);
    let ceiling_mb = ceiling.get(&key).and_then(json::Json::as_f64);
    let tolerance = ceiling
        .get("rss_tolerance")
        .and_then(json::Json::as_f64)
        .unwrap_or(0.25);

    let t0 = std::time::Instant::now();
    let run = run_fleet(config);
    let secs = t0.elapsed().as_secs_f64();
    let measured = format!(
        "scale={} wall={secs:.1}s roots/sec={:.0} spans={}",
        run.config.scale.name,
        run.config.scale.roots as f64 / secs,
        run.total_spans
    );
    let Some(peak) = peak_rss_bytes() else {
        println!("bench-ceiling rss: {measured} — peak RSS unavailable on this platform, skipping");
        return;
    };
    let peak_mb = peak as f64 / (1024.0 * 1024.0);
    match ceiling_mb {
        Some(limit_mb) => {
            let limit = limit_mb * (1.0 + tolerance);
            println!(
                "bench-ceiling rss: {} peak_rss={:.0} MB, \
                 ceiling {:.0} +{:.0}% = {:.0} MB (shards={} threads={})",
                measured,
                peak_mb,
                limit_mb,
                tolerance * 100.0,
                limit,
                run.telemetry.shards_used,
                run.telemetry.threads_used,
            );
            if peak_mb > limit {
                eprintln!(
                    "FAIL: peak RSS regressed past the committed ceiling — bounded \
                     memory is a tracked property (per-window counter rows, \
                     trace sampling, profiler caps); if the growth is intentional, update \
                     `ceiling.{key}` in {baseline_path}"
                );
                std::process::exit(1);
            }
            println!("PASS: within RSS ceiling");
        }
        None => {
            println!(
                "bench-ceiling rss: {measured} peak_rss={peak_mb:.0} MB \
                 (no `ceiling.{key}` committed; non-gating)"
            );
        }
    }
}
