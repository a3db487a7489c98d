//! `rpclens-wire` — execute the modeled RPC stack on a real wire.
//!
//! ```text
//! rpclens-wire bench [--requests N] [--seed S] [--methods M]
//!                    [--semantics at-least-once|at-most-once]
//!                    [--transport udp|mem] [--out FILE]
//!                    [--trace-out FILE] [--hops N] [--fanout K]
//! rpclens-wire serve [--addr HOST:PORT] [--seed S] [--methods M]
//!                    [--semantics ...]
//! ```
//!
//! `bench` round-trips N catalog RPCs (UDP loopback by default, with the
//! server on a thread), measures per-component costs, and writes a
//! wire-validation JSON artifact comparing them against the analytical
//! Fig. 9/20 cost models. It writes the artifact, then exits non-zero
//! if any request was lost — at-least-once must never lose one. `serve`
//! runs a standalone catalog server for cross-process experiments.
//!
//! `--trace-out FILE` additionally runs a *traced* capture and writes
//! the measured causal trees as a checksummed `trace::export` artifact
//! (`rpclens-inspect trace` reads it back). Over `--transport mem` the
//! capture runs a `--hops`-deep multi-hop chain on a virtual clock and
//! is byte-identical for a given seed; over UDP it is a single-hop
//! wall-clock measurement (`--hops`/`--fanout` are ignored).

use rpclens_bench::wire::{
    self, run_over_memlink, run_over_udp, serve_udp_forever, WireBenchConfig,
};
use rpclens_bench::wiretrace::{self, TraceBenchConfig};
use rpclens_rpcwire::server::Semantics;

fn usage() -> ! {
    eprintln!(
        "usage: rpclens-wire <command> [options]\n\
         \n\
         commands:\n\
         \x20 bench  [--requests N] [--seed S] [--methods M] [--semantics SEM]\n\
         \x20        [--transport udp|mem] [--out FILE]\n\
         \x20        [--trace-out FILE] [--hops N] [--fanout K]\n\
         \x20        round-trip N catalog RPCs and emit the measured-vs-modeled artifact;\n\
         \x20        --trace-out also captures measured causal trees (trace::export)\n\
         \x20 serve  [--addr HOST:PORT] [--seed S] [--methods M] [--semantics SEM]\n\
         \x20        stand up a catalog server on UDP (default 127.0.0.1:0)\n\
         \n\
         SEM is `at-least-once` (default) or `at-most-once`."
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("rpclens-wire: {msg}");
    std::process::exit(1);
}

fn next_value<'a>(iter: &mut std::slice::Iter<'a, String>, name: &str) -> &'a str {
    match iter.next() {
        Some(v) => v.as_str(),
        None => fail(&format!("{name} needs a value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    let mut config = WireBenchConfig::default();
    let mut transport = "udp";
    let mut out_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut hops = 2u32;
    let mut fanout = 2u32;
    let mut addr = "127.0.0.1:0".to_string();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--requests" => {
                config.requests = next_value(&mut iter, "--requests")
                    .parse()
                    .unwrap_or_else(|_| fail("--requests needs an integer"));
            }
            "--seed" => {
                config.seed = next_value(&mut iter, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed needs an integer"));
            }
            "--methods" => {
                config.total_methods = next_value(&mut iter, "--methods")
                    .parse()
                    .unwrap_or_else(|_| fail("--methods needs an integer"));
            }
            "--semantics" => {
                config.semantics = match next_value(&mut iter, "--semantics") {
                    "at-least-once" => Semantics::AtLeastOnce,
                    "at-most-once" => Semantics::AtMostOnce,
                    other => fail(&format!("unknown semantics {other}")),
                };
            }
            "--transport" => transport = next_value(&mut iter, "--transport"),
            "--out" => out_path = Some(next_value(&mut iter, "--out").to_string()),
            "--trace-out" => trace_out = Some(next_value(&mut iter, "--trace-out").to_string()),
            "--hops" => {
                hops = next_value(&mut iter, "--hops")
                    .parse()
                    .unwrap_or_else(|_| fail("--hops needs an integer >= 1"));
                if hops == 0 {
                    fail("--hops needs an integer >= 1");
                }
            }
            "--fanout" => {
                fanout = next_value(&mut iter, "--fanout")
                    .parse()
                    .unwrap_or_else(|_| fail("--fanout needs an integer"));
            }
            "--addr" => addr = next_value(&mut iter, "--addr").to_string(),
            other => fail(&format!("unknown option {other}")),
        }
    }

    match command.as_str() {
        "bench" => {
            let result = match transport {
                "udp" => run_over_udp(&config),
                "mem" => run_over_memlink(&config),
                other => fail(&format!("unknown transport {other} (udp|mem)")),
            };
            let report = result.unwrap_or_else(|e| fail(&format!("bench failed: {e}")));
            let artifact = report.to_json();
            if let Some(path) = out_path {
                std::fs::write(&path, artifact.to_pretty())
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                eprintln!("wrote {path}");
            } else {
                println!("{}", artifact.to_pretty());
            }
            eprint!(
                "{}",
                wire::wire_text(&artifact).unwrap_or_else(|e| fail(&e))
            );
            if let Some(path) = trace_out {
                let trace_config = TraceBenchConfig {
                    requests: config.requests,
                    seed: config.seed,
                    total_methods: config.total_methods,
                    hops,
                    fanout,
                };
                let traced = match transport {
                    "udp" => wiretrace::run_traced_udp(&trace_config),
                    "mem" => wiretrace::run_traced_memlink(&trace_config),
                    _ => unreachable!("transport validated above"),
                }
                .unwrap_or_else(|e| fail(&format!("traced capture failed: {e}")));
                std::fs::write(&path, &traced.export)
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                eprintln!("wrote {path}");
                eprint!("{}", wiretrace::trace_summary_text(&traced));
            }
            if report.lost > 0 {
                fail(&format!(
                    "{} of {} requests lost",
                    report.lost, report.started
                ));
            }
        }
        "serve" => {
            serve_udp_forever(&addr, &config)
                .unwrap_or_else(|e| fail(&format!("serve failed: {e}")));
        }
        _ => usage(),
    }
}
