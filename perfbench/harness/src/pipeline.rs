//! The `repro all --telemetry` pipeline, called layer by layer: one
//! fleet run, the run manifest, the SLO report and all 25 artifacts,
//! then the verdict.

use crate::spans::Tracer;
use crate::{finish, schedule, traced_iteration, wire, Checks, Readings, Report};
use rpclens_bench::Artifact;
use rpclens_core::check::ExpectationSet;
use rpclens_fleet::catalog::{Catalog, CatalogConfig};
use rpclens_fleet::driver::{run_fleet, FleetConfig, FleetRun, SimScale};
use rpclens_fleet::faults::FaultScenario;
use rpclens_fleet::growth::GrowthConfig;
use rpclens_fleet::telemetry::{detector_bands, manifest_for_run, slo_findings};
use rpclens_fleet::workload::Workload;
use rpclens_netsim::topology::Topology;
use rpclens_obs::detect::render_findings;
use rpclens_obs::json::Json;
use rpclens_obs::manifest::fnv1a;
use rpclens_obs::RunManifest;
use rpclens_trace::query::{MethodQuery, TreeShapeSamples};
use std::time::Instant;

/// Roots of the `repro-fleet` workload: the `fleet` preset's shape
/// (10k methods, 1-in-1024 trace retention, profiler cap 256) at a root
/// count that keeps one pipeline near three seconds on two threads, so
/// a run holds several iterations to take a median over.
const FLEET_ROOTS: u64 = 400_000;

/// Calls a wire probe makes in the traced run of a pipeline workload.
const WIRE_PROBE_REQUESTS: u32 = 2_000;

/// One pipeline configuration.
pub struct ReproSpec {
    pub scale: SimScale,
    pub faults: FaultScenario,
    pub shards: usize,
    pub threads: usize,
}

impl ReproSpec {
    /// The workload named `name`; `seed` overrides the preset seed.
    pub fn for_workload(name: &str, seed: Option<u64>) -> Option<ReproSpec> {
        let mut spec = match name {
            "repro-default" => ReproSpec {
                scale: SimScale::default_scale(),
                faults: FaultScenario::none(),
                shards: 1,
                threads: 1,
            },
            "repro-fleet" => ReproSpec {
                scale: SimScale {
                    roots: FLEET_ROOTS,
                    ..SimScale::fleet()
                },
                faults: FaultScenario::none(),
                shards: 2,
                threads: 2,
            },
            "repro-incident" => ReproSpec {
                scale: SimScale::default_scale(),
                faults: FaultScenario::by_name("incident-smoke")?,
                shards: 4,
                threads: 2,
            },
            // The pipeline probe of the `wire-mem` traced run.
            "smoke" => ReproSpec {
                scale: SimScale::smoke(),
                faults: FaultScenario::none(),
                shards: 1,
                threads: 1,
            },
            _ => return None,
        };
        if let Some(seed) = seed {
            spec.scale.seed = seed;
        }
        Some(spec)
    }

    fn config(&self) -> FleetConfig {
        let mut config = FleetConfig::at_scale(self.scale.clone()).with_faults(self.faults);
        config.shards = self.shards;
        config.threads = self.threads;
        config
    }
}

/// The deterministic identity of one pipeline's outputs. Every iteration
/// of a run, traced or not, must produce the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    manifest_digest: u64,
    artifacts_digest: u64,
    checks: usize,
    misses: Vec<String>,
    spans: u64,
    roots: u64,
    traces_retained: usize,
    queue_samples: u64,
    queue_waits: u64,
    wire_samples: u64,
    wire_congested: u64,
    retries_issued: u64,
    turned_away: u64,
}

impl Fingerprint {
    fn to_json(&self) -> Json {
        Json::obj([
            // Digests as strings: they are u64 and JSON readers that
            // parse numbers as doubles would round them.
            (
                "manifest_digest",
                Json::Str(self.manifest_digest.to_string()),
            ),
            (
                "artifacts_digest",
                Json::Str(self.artifacts_digest.to_string()),
            ),
            ("checks", Json::Uint(self.checks as u128)),
            (
                "misses",
                Json::Array(self.misses.iter().cloned().map(Json::Str).collect()),
            ),
            ("spans", Json::Uint(u128::from(self.spans))),
            ("roots", Json::Uint(u128::from(self.roots))),
            ("traces_retained", Json::Uint(self.traces_retained as u128)),
        ])
    }
}

/// One completed pipeline.
pub struct Iteration {
    pub run: FleetRun,
    fingerprint: Fingerprint,
    manifest_roundtrips: bool,
    manifest_bytes: usize,
    wall_ms: f64,
    run_fleet_ms: f64,
    analysis_ms: f64,
}

impl Iteration {
    /// A program-reported `runtime` phase, in milliseconds.
    fn phase_ms(&self, name: &str) -> f64 {
        self.run
            .telemetry
            .phases
            .phases()
            .iter()
            .find(|(phase, _)| phase == name)
            .map(|(_, ms)| *ms)
            .unwrap_or_else(|| panic!("the run reports no {name} phase"))
    }

    /// World build plus root generation: the `run_fleet` wall less the
    /// program-reported `simulate` and `tsdb` phases (`merge` runs
    /// inside `simulate`, so it is not subtracted again).
    fn setup_ms(&self) -> f64 {
        self.run_fleet_ms - self.phase_ms("simulate") - self.phase_ms("tsdb")
    }
}

/// A pipeline with its span names built once.
pub struct Pipeline {
    spec: ReproSpec,
    /// Per artifact: the span names of the whole artifact and of its
    /// compute, render and checks stages.
    names: Vec<[String; 4]>,
}

impl Pipeline {
    pub fn new(spec: ReproSpec) -> Pipeline {
        let names = Artifact::ALL
            .iter()
            .map(|a| {
                let base = format!("core.figs.{}", a.name());
                [
                    format!("{base}.compute"),
                    format!("{base}.render"),
                    format!("{base}.checks"),
                    base,
                ]
            })
            .collect();
        Pipeline { spec, names }
    }

    /// Runs the pipeline once, start to verdict.
    pub fn iterate(&self, t: &mut Tracer) -> Iteration {
        let start = Instant::now();
        let run = t.span("fleet.driver.run_fleet", |_| run_fleet(self.spec.config()));
        let run_fleet_ms = start.elapsed().as_secs_f64() * 1e3;
        let manifest = t.span("obs.manifest.build", |_| manifest_for_run(&run));
        let manifest_json = t.span("obs.manifest.serialize", |_| manifest.to_json_string());
        let mut rendered = t.span("fleet.telemetry.slo_findings", |_| {
            let (slo, tail_tolerance) = detector_bands(&run.config.scale);
            render_findings(&slo_findings(&run, None, &slo, tail_tolerance))
        });
        let mut checks = ExpectationSet::new();
        t.span("core.figs", |t| {
            for (&artifact, names) in Artifact::ALL.iter().zip(&self.names) {
                let (text, set) = t.span(&names[3], |t| produce(t, artifact, &run, names));
                rendered.push_str(&text);
                rendered.push_str(&set.to_string());
                checks.extend(set);
            }
        });
        let analysis_ms = start.elapsed().as_secs_f64() * 1e3 - run_fleet_ms;
        let (fingerprint, manifest_roundtrips) = t.span("bench.verdict", |_| {
            let digest = manifest.digest();
            let parsed = RunManifest::parse(&manifest_json).map(|m| m.digest());
            let c = &run.telemetry.counters;
            let fingerprint = Fingerprint {
                manifest_digest: digest,
                artifacts_digest: fnv1a(rendered.as_bytes()),
                checks: checks.items.len(),
                misses: checks.failures().into_iter().map(str::to_string).collect(),
                spans: run.total_spans,
                roots: c.roots,
                traces_retained: run.store.len(),
                queue_samples: c.queue.samples,
                queue_waits: c.queue.waits,
                wire_samples: c.wire.samples,
                wire_congested: c.wire.congested,
                retries_issued: c.resilience.retries_issued,
                turned_away: c.control.admission_shed + c.control.admission_abandoned,
            };
            (fingerprint, parsed == Ok(digest))
        });
        Iteration {
            run,
            fingerprint,
            manifest_roundtrips,
            manifest_bytes: manifest_json.len(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            run_fleet_ms,
            analysis_ms,
        }
    }
}

/// One artifact's compute, render and checks, each in its own span.
/// Mirrors `rpclens_bench::produce`, split into stages.
fn produce(
    t: &mut Tracer,
    artifact: Artifact,
    run: &FleetRun,
    names: &[String; 4],
) -> (String, ExpectationSet) {
    use rpclens_core::figs as f;
    let [compute, render, checks, _] = names;
    macro_rules! staged {
        ($fig:expr, $module:ident) => {{
            let fig = t.span(compute, |_| $fig);
            let text = t.span(render, |_| f::$module::render(&fig));
            let set = t.span(checks, |_| f::$module::checks(&fig));
            (text, set)
        }};
    }
    match artifact {
        Artifact::Fig1 => staged!(f::fig01::compute(&GrowthConfig::default()), fig01),
        Artifact::Fig2 => staged!(f::fig02::compute(run), fig02),
        Artifact::Fig3 => staged!(f::fig03::compute(run), fig03),
        Artifact::Fig4 => staged!(f::fig04::compute(run), fig04),
        Artifact::Fig5 => staged!(f::fig05::compute(run), fig05),
        Artifact::Fig6 => staged!(f::fig06::compute(run), fig06),
        Artifact::Fig7 => staged!(f::fig07::compute(run), fig07),
        Artifact::Fig8 => staged!(f::fig08::compute(run), fig08),
        Artifact::Fig10 => staged!(f::fig10::compute(run), fig10),
        Artifact::Fig11 => staged!(f::fig11::compute(run), fig11),
        Artifact::Fig12 => staged!(f::fig12::compute(run), fig12),
        Artifact::Fig13 => staged!(f::fig13::compute(run), fig13),
        Artifact::Fig14 => staged!(f::fig14::compute(run), fig14),
        Artifact::Fig15 => staged!(f::fig15::compute(run), fig15),
        Artifact::Fig16 => staged!(f::fig16::compute(run), fig16),
        Artifact::Fig17 => staged!(f::fig17::compute(run), fig17),
        Artifact::Fig18 => match t.span(compute, |_| f::fig18::compute(run)) {
            Some(fig) => (
                t.span(render, |_| f::fig18::render(&fig)),
                t.span(checks, |_| f::fig18::checks(&fig)),
            ),
            None => (
                "Fig. 18 — not enough Bigtable clusters at this scale\n".to_string(),
                ExpectationSet::new(),
            ),
        },
        Artifact::Fig19 => staged!(f::fig19::compute(run), fig19),
        Artifact::Fig20 => staged!(f::fig20::compute(run), fig20),
        Artifact::Fig21 => staged!(f::fig21::compute(run), fig21),
        Artifact::Fig22 => staged!(f::fig22::compute(run), fig22),
        Artifact::Fig23 => {
            let fig = t.span(compute, |_| f::fig23::compute(run));
            let text = t.span(render, |_| f::fig23::render(&fig));
            // As in `repro`: under a fault scenario other than
            // chaos-smoke (which no workload runs) the static Fig. 23
            // bands do not apply and the figure carries no checks.
            let set = if run.config.faults.name == "none" {
                t.span(checks, |_| f::fig23::checks(&fig))
            } else {
                ExpectationSet::new()
            };
            (text, set)
        }
        Artifact::Table1 => (
            t.span(render, |_| f::table1::render(run)),
            t.span(checks, |_| f::table1::checks(run)),
        ),
        Artifact::Table2 => staged!(f::table2::compute(run), table2),
        Artifact::Compare => staged!(f::compare::compute(run), compare),
    }
}

/// Per-layer readings of one traced iteration whose spans are `root..`.
fn layer_readings(t: &Tracer, root: usize, it: &Iteration, out: &mut Readings) {
    let mut stage_ms = [0.0f64; 3];
    for span in t.slice(root..t.mark()) {
        let name = span.name.as_str();
        if let Some(rest) = name.strip_prefix("core.figs.") {
            match rest.rsplit_once('.') {
                Some((_, "compute")) => stage_ms[0] += span.ms(),
                Some((_, "render")) => stage_ms[1] += span.ms(),
                Some((_, "checks")) => stage_ms[2] += span.ms(),
                _ => out.push(&format!("{name}_ms"), "ms", span.ms()),
            }
        } else if matches!(
            name,
            "fleet.driver.run_fleet"
                | "obs.manifest.build"
                | "obs.manifest.serialize"
                | "fleet.telemetry.slo_findings"
        ) {
            out.push(&format!("{name}_ms"), "ms", span.ms());
        }
    }
    out.push("core.figs.compute_ms", "ms", stage_ms[0]);
    out.push("core.figs.render_ms", "ms", stage_ms[1]);
    out.push("core.check.checks_ms", "ms", stage_ms[2]);

    // Phases the program reports in its manifest `runtime` section. The
    // ordered merge runs inside `simulate` and is exactly 0 with one
    // shard, so it is reported as its share of `simulate`.
    for phase in ["generate", "simulate", "tsdb"] {
        out.push(
            &format!("fleet.driver.{phase}_ms"),
            "ms",
            it.phase_ms(phase),
        );
    }
    out.push(
        "fleet.driver.merge_share",
        "ratio",
        it.phase_ms("merge") / it.phase_ms("simulate"),
    );
    let run_fleet_ms = t
        .slice(root..t.mark())
        .iter()
        .find(|s| s.name == "fleet.driver.run_fleet")
        .map(|s| s.ms())
        .expect("traced run_fleet span");
    out.push(
        "fleet.driver.world_build_ms",
        "ms",
        run_fleet_ms
            - ["generate", "simulate", "tsdb"]
                .iter()
                .map(|p| it.phase_ms(p))
                .sum::<f64>(),
    );
    let walls: Vec<f64> = it
        .run
        .telemetry
        .per_shard
        .iter()
        .map(|r| r.wall_ms)
        .collect();
    let max = walls.iter().copied().fold(0.0, f64::max);
    out.push("fleet.pool.shard_wall_max_ms", "ms", max);
    out.push(
        "fleet.pool.shard_imbalance",
        "ratio",
        max / (walls.iter().sum::<f64>() / walls.len() as f64),
    );

    let fp = &it.fingerprint;
    out.push("fleet.driver.spans", "count", fp.spans as f64);
    out.push(
        "trace.collector.traces_retained",
        "count",
        fp.traces_retained as f64,
    );
    out.push(
        "cluster.mgk.wait_ratio",
        "ratio",
        fp.queue_waits as f64 / fp.queue_samples as f64,
    );
    out.push(
        "netsim.wire.congested_ratio",
        "ratio",
        fp.wire_congested as f64 / fp.wire_samples as f64,
    );
    out.push("rpcstack.retry.issued", "count", fp.retries_issued as f64);
    out.push("fleet.control.turned_away", "count", fp.turned_away as f64);
    out.push("obs.manifest.bytes", "B", it.manifest_bytes as f64);
    out.push("core.check.total", "count", fp.checks as f64);
    out.push("core.check.misses", "count", fp.misses.len() as f64);
}

/// Standalone calls into the layers `run_fleet` and the figures use
/// internally, timed one by one: the world build, root generation and
/// the two trace-store queries the per-method figures repeat.
fn probe_layers(t: &mut Tracer, spec: &ReproSpec, run: &FleetRun, out: &mut Readings) {
    let scale = &spec.scale;
    let root = t.mark();
    t.span("bench.probe", |t| {
        let topology = t.span("netsim.topology.default_world", |_| {
            Topology::default_world(scale.seed)
        });
        let catalog = t.span("fleet.catalog.generate", |_| {
            Catalog::generate(
                &CatalogConfig {
                    total_methods: scale.total_methods,
                    seed: scale.seed,
                },
                &topology,
            )
        });
        // The same generator and seed derivation the driver uses.
        let roots = t.span("fleet.workload.generate", |_| {
            Workload::new(&catalog, &topology, scale.duration, scale.seed ^ 0xAB)
                .generate(scale.roots)
        });
        out.push("fleet.workload.roots", "count", roots.len() as f64);
        t.span("trace.query.eligible_methods", |_| {
            MethodQuery::default().eligible_methods(&run.store)
        });
        t.span("trace.query.tree_shape", |_| {
            TreeShapeSamples::compute(&run.store)
        });
    });
    for span in t.slice(root + 1..t.mark()) {
        out.push(&format!("{}_ms", span.name), "ms", span.ms());
    }
}

/// Per-layer readings of a pipeline the workload itself does not run:
/// one traced `smoke` pipeline plus its layer probes, inside a
/// `bench.probe` span.
pub fn probe_pipeline(t: &mut Tracer, seed: u64, out: &mut Readings) {
    let spec = ReproSpec::for_workload("smoke", Some(seed)).expect("smoke spec");
    let pipeline = Pipeline::new(spec);
    let root = t.mark();
    let it = t.span("bench.probe", |t| pipeline.iterate(t));
    layer_readings(t, root, &it, out);
    probe_layers(t, &pipeline.spec, &it.run, out);
    out.push("bench.analysis_ms", "ms", it.analysis_ms);
}

pub fn bench(spec: ReproSpec, seconds: f64, trace: bool, tracer: &mut Tracer) -> Report {
    let seed = spec.scale.seed;
    let expected_roots = spec.scale.roots;
    let pipeline = Pipeline::new(spec);
    let mut checks = Checks::default();
    let mut end_to_end = Readings::default();
    let mut per_layer = Readings::default();
    let mut reference: Option<Fingerprint> = None;
    let mut shape = (0, 0);
    let (mut untraced, mut traced_n) = (0, 0);
    schedule(seconds, trace, tracer, |t, traced| {
        let root = t.mark();
        let it = t.span("bench.iteration", |t| pipeline.iterate(t));
        shape = (it.run.telemetry.shards_used, it.run.telemetry.threads_used);
        let fp = &it.fingerprint;
        let reference: &Fingerprint = reference.get_or_insert_with(|| fp.clone());
        checks.check(fp.manifest_digest == reference.manifest_digest, || {
            format!(
                "manifest digest {} differs from the first iteration's {}",
                fp.manifest_digest, reference.manifest_digest
            )
        });
        // Rendered artifacts and simulated counts: traced iterations
        // included, so tracing provably leaves the simulation alone.
        checks.check(fp == reference, || {
            format!("outputs differ from the first iteration's: {fp:?}")
        });
        checks.check(it.manifest_roundtrips, || {
            "the manifest does not parse back to its digest".to_string()
        });
        checks.check(fp.roots == expected_roots, || {
            format!("{} roots simulated, {expected_roots} configured", fp.roots)
        });
        // One attempt per paper-shape check: its verdict must repeat.
        let changed = fp
            .misses
            .iter()
            .filter(|m| !reference.misses.contains(m))
            .chain(reference.misses.iter().filter(|m| !fp.misses.contains(m)));
        checks.tally(
            fp.checks as u64,
            changed.map(|m| format!("the verdict of {m} changed between iterations")),
        );
        if traced {
            traced_n += 1;
            traced_iteration(t, root, &mut checks, &mut per_layer);
            layer_readings(t, root, &it, &mut per_layer);
            probe_layers(t, &pipeline.spec, &it.run, &mut per_layer);
            if traced_n == 1 {
                wire::probe(t, seed, WIRE_PROBE_REQUESTS, &mut per_layer);
            }
        } else {
            untraced += 1;
            end_to_end.push("wall_s", "s", it.wall_ms / 1e3);
            end_to_end.push("setup_s", "s", it.setup_ms() / 1e3);
            end_to_end.push(
                "ns_per_rpc",
                "ns",
                it.run_fleet_ms * 1e6 / it.fingerprint.spans as f64,
            );
            per_layer.push("bench.wall_ms", "ms", it.wall_ms);
            per_layer.push("bench.analysis_ms", "ms", it.analysis_ms);
        }
    });
    finish(trace, &mut end_to_end, &mut per_layer);
    let reference = reference.expect("at least one iteration ran");
    Report {
        untraced,
        traced: traced_n,
        shards: shape.0,
        threads: shape.1,
        checks,
        fingerprint: reference.to_json(),
        end_to_end,
        per_layer,
    }
}
