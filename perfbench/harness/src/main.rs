//! `rpclens-perfbench` — the measuring half of `perfbench/run.py`.
//!
//! ```text
//! rpclens-perfbench --workload repro-default|repro-fleet|repro-incident|wire-mem
//!                   --seconds S --trace 0|1 [--seed N] [--spans FILE]
//! ```
//!
//! One process runs one workload for `S` seconds of closed-loop
//! iterations (each iteration waits for the previous one to finish) and
//! prints one JSON report on stdout: the median of every metric over the
//! iterations, the output fingerprint, and the outcome checks. With
//! `--trace 0` the metrics are the end-to-end set, measured with no span
//! recorder. With `--trace 1` untraced and traced iterations alternate;
//! the metrics are the per-layer set and `--spans` receives every span.
//! See `perfbench/METRICS.md` for what each metric means.

mod pipeline;
mod spans;
mod wire;

use pipeline::ReproSpec;
use rpclens_obs::json::Json;
use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: rpclens-perfbench --workload repro-default|repro-fleet|repro-incident|wire-mem \
                     --seconds S --trace 0|1 [--seed N] [--spans FILE]";

/// Fewest iterations an untraced run reports a median over.
const MIN_ITERATIONS: usize = 3;
/// Fewest iterations of each kind, untraced and traced, in a traced run.
const MIN_TRACED_PAIRS: usize = 2;

/// Per-iteration readings, reduced to their median when the run ends.
#[derive(Default)]
pub struct Readings(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Readings {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        let entry = self
            .0
            .entry(name.to_string())
            .or_insert_with(|| (unit, Vec::new()));
        assert_eq!(entry.0, unit, "metric {name} recorded in two units");
        entry.1.push(value);
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], |(_, v)| v.as_slice())
    }

    /// Every reading, in the order taken.
    fn samples_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, (_, values))| {
                    (
                        name.clone(),
                        Json::Array(values.iter().map(|&v| Json::Float(v)).collect()),
                    )
                })
                .collect(),
        )
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|(name, (unit, values))| {
                    (
                        name.clone(),
                        Json::obj([
                            ("value", Json::Float(median(values))),
                            ("unit", Json::Str((*unit).to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no readings");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Outcome checks made during a run.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `attempted` checks of which `failures` failed.
    pub fn tally(&mut self, attempted: u64, failures: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failures.extend(failures);
    }
}

/// Everything one run reports.
pub struct Report {
    pub untraced: usize,
    pub traced: usize,
    /// (shards, threads) the program actually ran on.
    pub shards: usize,
    pub threads: usize,
    pub checks: Checks,
    /// Deterministic output identity of the workload at this seed.
    pub fingerprint: Json,
    pub end_to_end: Readings,
    pub per_layer: Readings,
}

/// Runs `step` in a closed loop for about `seconds`: untraced steps
/// only, or untraced and traced steps alternating in a traced run. A
/// step is not started when the longest one so far would overrun.
pub fn schedule(
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    mut step: impl FnMut(&mut Tracer, bool),
) {
    let start = Instant::now();
    let min_steps = if trace {
        2 * MIN_TRACED_PAIRS
    } else {
        MIN_ITERATIONS
    };
    let mut longest = 0.0f64;
    for n in 0.. {
        let traced = trace && n % 2 == 1;
        let began = Instant::now();
        tracer.set_enabled(traced);
        step(tracer, traced);
        tracer.set_enabled(false);
        let took = began.elapsed().as_secs_f64();
        eprintln!(
            "iteration {n} ({}): {took:.3} s",
            if traced { "traced" } else { "untraced" }
        );
        longest = longest.max(took);
        if n + 1 >= min_steps && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
}

/// A traced iteration's wall not covered by its top-level spans may not
/// exceed this many milliseconds plus `UNACCOUNTED_SHARE` of the wall.
const UNACCOUNTED_MS: f64 = 2.0;
const UNACCOUNTED_SHARE: f64 = 0.005;

/// Records the traced wall of the iteration span `root` and the part of
/// it no top-level span covers, and checks that part against its band.
pub fn traced_iteration(t: &Tracer, root: usize, checks: &mut Checks, per_layer: &mut Readings) {
    let wall_ms = t.get(root).ms();
    let unaccounted = t.self_ms(root);
    per_layer.push("bench.traced_wall_ms", "ms", wall_ms);
    per_layer.push("bench.unaccounted_ms", "ms", unaccounted);
    let band = UNACCOUNTED_MS + UNACCOUNTED_SHARE * wall_ms;
    checks.check(unaccounted.abs() <= band, || {
        format!("{unaccounted:.3} ms of the traced wall is outside any span (band {band:.3} ms)")
    });
}

/// Readings taken once a run's iterations are done: the process's peak
/// memory, and in a traced run the tracing overhead (median traced wall
/// against median untraced wall).
pub fn finish(trace: bool, end_to_end: &mut Readings, per_layer: &mut Readings) {
    let bytes = rpclens_bench::peak_rss_bytes().expect("VmHWM is readable from /proc/self/status");
    end_to_end.push("peak_rss_mb", "MiB", bytes as f64 / (1024.0 * 1024.0));
    if trace {
        let untraced = median(per_layer.values("bench.wall_ms"));
        let traced = median(per_layer.values("bench.traced_wall_ms"));
        per_layer.push(
            "bench.trace_overhead_pct",
            "%",
            (traced - untraced) / untraced * 100.0,
        );
    }
}

struct Args {
    name: String,
    /// The pipeline to run; `None` for `wire-mem`.
    repro: Option<ReproSpec>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace, mut spans) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let repro = match name.as_str() {
        "wire-mem" => None,
        other => Some(
            ReproSpec::for_workload(other, seed)
                .ok_or_else(|| format!("unknown workload {other}"))?,
        ),
    };
    Ok(Args {
        name,
        repro,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let (seed, report) = match args.repro {
        Some(spec) => (
            spec.scale.seed,
            pipeline::bench(spec, args.seconds, args.trace, &mut tracer),
        ),
        None => {
            let seed = args.seed.unwrap_or(wire::DEFAULT_SEED);
            (
                seed,
                wire::bench(seed, args.seconds, args.trace, &mut tracer),
            )
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_json().to_pretty()) {
            eprintln!("write spans {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let out = Json::obj([
        ("workload", Json::Str(args.name)),
        ("seed", Json::Uint(u128::from(seed))),
        ("trace", Json::Bool(args.trace)),
        ("untraced_iterations", Json::Uint(report.untraced as u128)),
        ("traced_iterations", Json::Uint(report.traced as u128)),
        ("shards", Json::Uint(report.shards as u128)),
        ("threads", Json::Uint(report.threads as u128)),
        ("attempted", Json::Uint(u128::from(report.checks.attempted))),
        (
            "failures",
            Json::Array(report.checks.failures.into_iter().map(Json::Str).collect()),
        ),
        ("fingerprint", report.fingerprint),
        ("metrics", metrics.to_json()),
        ("samples", metrics.samples_json()),
    ]);
    print!("{}", out.to_pretty());
    ExitCode::SUCCESS
}
