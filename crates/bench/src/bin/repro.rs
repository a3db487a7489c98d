//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all [--scale smoke|default|paper|fleet] [--seed N] [--shards N] [--threads N] [--out DIR]
//! repro fig12 fig13 table1 ... [--faults none|chaos-smoke|partition|overload-collapse]
//! repro list
//! ```
//!
//! With `--out DIR`, each artifact's rendered text is also written to
//! `DIR/<artifact>.txt`.
//!
//! Observability outputs (each may be given without any artifact — the
//! fleet still runs once and only these are produced):
//!
//! - `--telemetry FILE` writes the versioned run manifest as JSON; its
//!   `deterministic` section is byte-identical for a given seed+scale
//!   regardless of `--shards`.
//! - `--baseline FILE` reads a manifest from a previous `--telemetry`
//!   run and checks the current tail latency against it.
//! - `--export-store FILE` persists the sampled traces in the binary
//!   trace-export format for later `rpclens-inspect` queries.
//!
//! `--progress` streams per-shard completion lines to stderr (cumulative
//! roots/s and spans/s) while the fleet runs. Progress output never
//! feeds an artifact, so every digest is unaffected.
//!
//! `--shards N` splits the root workload into N deterministic chunks and
//! `--threads N` sets the worker-pool width they execute on (default for
//! both: one per available core). Both are pure wall-clock knobs —
//! every output is bit-identical at any combination. The `fleet` scale
//! (2M roots over the full catalog, 1-in-1024 trace retention) is sized
//! for multi-core runs; see `docs/PERFORMANCE.md`.
//!
//! `--faults PRESET` runs the fleet under a named fault scenario (see
//! `docs/ROBUSTNESS.md`). The default `none` keeps the run byte-identical
//! to a build without the fault plane; any other preset switches the
//! error model to causal injection, adds the `robustness` section to the
//! manifest, and swaps the Fig. 23 checks for their causal
//! reconciliation variant.
//!
//! Each artifact prints its rendered data followed by the
//! paper-vs-measured expectation checks. The process exits non-zero if
//! any check misses, so CI can gate on shape fidelity.

use rpclens_bench::{produce, scale_by_name, Artifact};
use rpclens_fleet::driver::{run_fleet, FleetConfig, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::telemetry::{detector_bands, manifest_for_run, slo_findings};
use rpclens_obs::detect::render_findings;
use rpclens_obs::RunManifest;

fn usage() -> ! {
    eprintln!(
        "usage: repro <artifact>... | all | list  [--scale smoke|default|paper|fleet] [--seed N]\n\
         \x20      [--shards N] [--threads N] [--progress]\n\
         \x20      [--faults {}]\n\
         \x20      [--out DIR] [--telemetry FILE] [--baseline FILE] [--export-store FILE]\n\
         artifacts: {}",
        FaultScenario::PRESETS.join("|"),
        Artifact::ALL
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = SimScale::default_scale();
    let mut faults = FaultScenario::none();
    let mut shards: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut export_path: Option<std::path::PathBuf> = None;
    let mut progress = false;
    let mut artifacts: Vec<Artifact> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(name) = iter.next() else { usage() };
                let Some(s) = scale_by_name(name) else {
                    eprintln!("unknown scale {name}");
                    usage();
                };
                scale = s;
            }
            "--seed" => {
                let Some(seed) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                scale.seed = seed;
            }
            "--shards" => {
                let Some(n) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                shards = Some(n);
            }
            "--threads" => {
                let Some(n) = iter.next().and_then(|s| s.parse().ok()) else {
                    usage()
                };
                threads = Some(n);
            }
            "--faults" => {
                let Some(name) = iter.next() else { usage() };
                let Some(scenario) = FaultScenario::by_name(name) else {
                    eprintln!("unknown fault scenario {name}");
                    usage();
                };
                faults = scenario;
            }
            "--out" => {
                let Some(dir) = iter.next() else { usage() };
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--telemetry" => {
                let Some(path) = iter.next() else { usage() };
                telemetry_path = Some(std::path::PathBuf::from(path));
            }
            "--baseline" => {
                let Some(path) = iter.next() else { usage() };
                baseline_path = Some(std::path::PathBuf::from(path));
            }
            "--export-store" => {
                let Some(path) = iter.next() else { usage() };
                export_path = Some(std::path::PathBuf::from(path));
            }
            "--progress" => progress = true,
            "all" => artifacts.extend(Artifact::ALL),
            "list" => {
                for a in Artifact::ALL {
                    println!("{}", a.name());
                }
                return;
            }
            name => match Artifact::parse(name) {
                Some(a) => artifacts.push(a),
                None => {
                    eprintln!("unknown artifact {name}");
                    usage();
                }
            },
        }
    }
    let observability_only =
        telemetry_path.is_some() || baseline_path.is_some() || export_path.is_some();
    if artifacts.is_empty() && !observability_only {
        usage();
    }

    let baseline: Option<RunManifest> = baseline_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        RunManifest::parse(&text)
            .unwrap_or_else(|e| panic!("invalid baseline {}: {e}", path.display()))
    });

    let needs_run = observability_only || artifacts.iter().any(|a| a.needs_run());
    let run = if needs_run {
        eprintln!(
            "running fleet simulation: scale={} methods={} roots={} seed={} faults={}",
            scale.name, scale.total_methods, scale.roots, scale.seed, faults.name
        );
        let t0 = std::time::Instant::now();
        let defaults = FleetConfig::at_scale(scale).with_faults(faults);
        let run = run_fleet(FleetConfig {
            shards: shards.unwrap_or(defaults.shards),
            threads: threads.unwrap_or(defaults.threads),
            progress,
            ..defaults
        });
        eprintln!(
            "simulated {} spans in {} traces ({:.1}s)",
            run.total_spans,
            run.store.len(),
            t0.elapsed().as_secs_f64()
        );
        Some(run)
    } else {
        None
    };

    let mut total = 0;
    let mut passed = 0;
    if let Some(run) = &run {
        if let Some(path) = &telemetry_path {
            let manifest = manifest_for_run(run);
            std::fs::write(path, manifest.to_json_string())
                .unwrap_or_else(|e| panic!("write telemetry {}: {e}", path.display()));
            eprintln!("wrote run manifest to {}", path.display());
        }
        if let Some(path) = &export_path {
            let bytes = rpclens_trace::export::export(&run.store);
            std::fs::write(path, &bytes)
                .unwrap_or_else(|e| panic!("write trace export {}: {e}", path.display()));
            eprintln!(
                "wrote {} traces ({} bytes) to {}",
                run.store.len(),
                bytes.len(),
                path.display()
            );
        }
        // End-of-run SLO report: error-budget burn always, plus tail
        // regression when a baseline manifest was supplied. Detector
        // bands are scaled to the preset so sparse smoke-scale windows
        // don't page on binomial sampling noise.
        let (slo, tail_tolerance) = detector_bands(&run.config.scale);
        let findings = slo_findings(run, baseline.as_ref(), &slo, tail_tolerance);
        println!("{}", render_findings(&findings));
        // The default chaos scenario must still reconcile with the
        // Fig. 23 taxonomy: the causal variant of the checks gates every
        // such invocation, artifact or not. When Fig. 23 is requested,
        // its own checks are those; otherwise `produce`'s Fig. 23 checks
        // run here without the figure. Stress presets (`partition`,
        // `overload-collapse`) intentionally deviate and are exempt.
        if faults.reconciles_taxonomy() && !artifacts.contains(&Artifact::Fig23) {
            let (_, causal) = produce(Artifact::Fig23, Some(run));
            println!("{causal}");
            total += causal.items.len();
            passed += causal.passed();
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for artifact in artifacts {
        let (text, checks) = produce(artifact, run.as_ref());
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.txt", artifact.name()));
            std::fs::write(
                &path,
                format!(
                    "{text}
{checks}
"
                ),
            )
            .expect("write artifact file");
        }
        println!("{}", "=".repeat(72));
        println!("{text}");
        if !checks.items.is_empty() {
            println!("{checks}");
        }
        total += checks.items.len();
        passed += checks.passed();
    }
    println!("{}", "=".repeat(72));
    println!("TOTAL: {passed}/{total} paper-shape checks passed");
    if passed != total {
        std::process::exit(1);
    }
}
