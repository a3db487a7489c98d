//! `rpclens-inspect` — drill into persisted run artifacts without
//! re-simulating.
//!
//! ```text
//! rpclens-inspect top-methods   --store FILE [--component C] [--top N] [--min-samples N]
//! rpclens-inspect critical-path --store FILE --trace N
//! rpclens-inspect cycle-tax     --manifest FILE
//! rpclens-inspect errors        --manifest FILE
//! rpclens-inspect wire          --artifact FILE
//! rpclens-inspect trace         --store FILE [--trace N] [--seed S] [--methods M]
//! rpclens-inspect controllers   --faults PRESET [--scale NAME] [--seed S]
//! ```
//!
//! `--store` takes a binary trace export written by
//! `repro --export-store`; `--manifest` takes a telemetry manifest
//! written by `repro --telemetry`.

use rpclens_bench::inspect;
use rpclens_obs::RunManifest;
use rpclens_trace::collector::TraceStore;

fn usage() -> ! {
    eprintln!(
        "usage: rpclens-inspect <command> [options]\n\
         \n\
         commands:\n\
         \x20 top-methods   --store FILE [--component C] [--top N] [--min-samples N]\n\
         \x20               rank methods by P99 of one latency component (default: total)\n\
         \x20 critical-path --store FILE --trace N\n\
         \x20               render the chain of spans that gated trace N's completion\n\
         \x20 cycle-tax     --manifest FILE\n\
         \x20               flamegraph-style text breakdown of the RPC cycle tax\n\
         \x20 errors        --manifest FILE\n\
         \x20               Fig. 23 error-class / wasted-cycle breakdown and the\n\
         \x20               executed resilience counters (fault-scenario manifests)\n\
         \x20 wire          --artifact FILE\n\
         \x20               measured-vs-modeled RPC stack components from a\n\
         \x20               wire-validation artifact (written by rpclens-wire bench)\n\
         \x20 trace         --store FILE [--trace N] [--seed S] [--methods M]\n\
         \x20               waterfall + critical path + per-method measured-vs-modeled\n\
         \x20               deltas from a measured wire-trace capture\n\
         \x20               (written by rpclens-wire bench --trace-out)\n\
         \x20 controllers   --faults PRESET [--scale smoke|default|paper|fleet] [--seed S]\n\
         \x20               closed-loop controller timeline (autoscaled capacity and\n\
         \x20               avoided paths per window), reconstructed from the seed"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("rpclens-inspect: {msg}");
    std::process::exit(1);
}

fn load_store(path: &str) -> TraceStore {
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read store {path}: {e}")));
    rpclens_trace::export::import(&bytes)
        .unwrap_or_else(|e| fail(&format!("cannot decode store {path}: {e:?}")))
}

fn load_manifest(path: &str) -> RunManifest {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read manifest {path}: {e}")));
    RunManifest::parse(&text).unwrap_or_else(|e| fail(&format!("invalid manifest {path}: {e}")))
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

    let mut store_path: Option<&str> = None;
    let mut manifest_path: Option<&str> = None;
    let mut artifact_path: Option<&str> = None;
    let mut component: Option<&str> = None;
    let mut top = 20usize;
    let mut min_samples = 100usize;
    let mut trace: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut methods = 400usize;
    let mut faults: Option<&str> = None;
    let mut scale_name = "smoke";
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--store" => store_path = Some(next_value(&mut iter, "--store")),
            "--manifest" => manifest_path = Some(next_value(&mut iter, "--manifest")),
            "--artifact" => artifact_path = Some(next_value(&mut iter, "--artifact")),
            "--component" => component = Some(next_value(&mut iter, "--component")),
            "--top" => {
                top = next_value(&mut iter, "--top")
                    .parse()
                    .unwrap_or_else(|_| fail("--top needs an integer"));
            }
            "--min-samples" => {
                min_samples = next_value(&mut iter, "--min-samples")
                    .parse()
                    .unwrap_or_else(|_| fail("--min-samples needs an integer"));
            }
            "--trace" => {
                trace = Some(
                    next_value(&mut iter, "--trace")
                        .parse()
                        .unwrap_or_else(|_| fail("--trace needs an integer")),
                );
            }
            "--seed" => {
                seed = Some(
                    next_value(&mut iter, "--seed")
                        .parse()
                        .unwrap_or_else(|_| fail("--seed needs an integer")),
                );
            }
            "--methods" => {
                methods = next_value(&mut iter, "--methods")
                    .parse()
                    .unwrap_or_else(|_| fail("--methods needs an integer"));
            }
            "--faults" => faults = Some(next_value(&mut iter, "--faults")),
            "--scale" => scale_name = next_value(&mut iter, "--scale"),
            other => fail(&format!("unknown option {other}")),
        }
    }

    match command.as_str() {
        "top-methods" => {
            let Some(path) = store_path else {
                fail("top-methods needs --store FILE")
            };
            let component = component.map(|name| {
                inspect::component_by_name(name)
                    .unwrap_or_else(|| fail(&format!("unknown component {name}")))
            });
            let store = load_store(path);
            print!(
                "{}",
                inspect::top_methods(&store, component, top, min_samples)
            );
        }
        "critical-path" => {
            let (Some(path), Some(index)) = (store_path, trace) else {
                fail("critical-path needs --store FILE and --trace N")
            };
            let store = load_store(path);
            match inspect::critical_path_text(&store, index) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
        }
        "cycle-tax" => {
            let Some(path) = manifest_path else {
                fail("cycle-tax needs --manifest FILE")
            };
            print!("{}", inspect::cycle_tax_text(&load_manifest(path)));
        }
        "errors" => {
            let Some(path) = manifest_path else {
                fail("errors needs --manifest FILE")
            };
            print!("{}", inspect::errors_text(&load_manifest(path)));
        }
        "trace" => {
            let Some(path) = store_path else {
                fail("trace needs --store FILE (a rpclens-wire bench --trace-out artifact)")
            };
            let store = load_store(path);
            let index = trace.unwrap_or(0);
            match rpclens_bench::wiretrace::waterfall_text(&store, index) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
            println!();
            match inspect::critical_path_text(&store, index) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
            println!();
            print!(
                "{}",
                rpclens_bench::wiretrace::method_delta_text(&store, seed.unwrap_or(42), methods)
            );
        }
        "controllers" => {
            let Some(scenario) = faults else {
                fail("controllers needs --faults PRESET (e.g. incident-smoke)")
            };
            let Some(mut scale) = rpclens_bench::scale_by_name(scale_name) else {
                fail(&format!("unknown scale {scale_name}"))
            };
            // As in `repro`: the scale's seed unless `--seed` overrides it.
            if let Some(seed) = seed {
                scale.seed = seed;
            }
            match inspect::controllers_text(scenario, &scale) {
                Ok(text) => print!("{text}"),
                Err(e) => fail(&e),
            }
        }
        "wire" => {
            let Some(path) = artifact_path else {
                fail("wire needs --artifact FILE")
            };
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read artifact {path}: {e}")));
            let artifact = rpclens_obs::json::parse(&text)
                .unwrap_or_else(|e| fail(&format!("invalid artifact {path}: {e:?}")));
            match rpclens_bench::wire::wire_text(&artifact) {
                Ok(rendered) => print!("{rendered}"),
                Err(e) => fail(&e),
            }
        }
        _ => usage(),
    }
}
