//! Versioned JSON run manifests.
//!
//! A manifest is the durable record of one fleet run. It has up to three
//! top-level sections:
//!
//! - `deterministic` — integers only, a pure function of the master seed.
//!   The rendered bytes of this section are **identical for any shard
//!   count** (enforced by `crates/bench/tests/telemetry_determinism.rs`),
//!   so a manifest doubles as a regression baseline: if the deterministic
//!   bytes differ between two runs with the same seed and scale, the
//!   simulation changed.
//! - `robustness` — present only when a fault scenario was active: the
//!   scenario name, executed-resilience counters (retries, failovers,
//!   causal errors), and the per-error-kind count/wasted-cycle table
//!   behind the Fig. 23 breakdown. Deterministic too, but kept *outside*
//!   [`RunManifest::digest`] so fault-free runs keep their historical
//!   golden digests byte-for-byte.
//! - `runtime` — wall-clock phase timings and per-shard execution shape.
//!   Explicitly non-deterministic; excluded from comparisons.
//!
//! The `deterministic` section carries a trailing FNV-1a `digest` over
//! its own rendered bytes (computed before the digest field is appended),
//! so two manifests can be compared by one integer.
//!
//! Schema evolution: bump [`MANIFEST_SCHEMA_VERSION`] whenever a field is
//! added, removed, or changes meaning. Readers reject other versions
//! rather than guessing.

use crate::json::{self, Json};
use crate::telemetry::{QueueTelemetry, RunTelemetry, WireTelemetry};

/// Current manifest schema version. Bump on any field change.
///
/// History: v1 carried `deterministic` + `runtime`; v2 added the optional
/// `robustness` section for fault-scenario runs; v3 added the optional
/// `incidents` and `controllers` tables inside `robustness` for runs
/// with a correlated-incident layer and closed-loop control plane.
pub const MANIFEST_SCHEMA_VERSION: u32 = 3;

/// Root-latency summary as integer microsecond quantiles (from the
/// driver's `LogHistogram`; ~1.6% bucket resolution).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyQuantiles {
    /// Number of recorded latencies.
    pub count: u64,
    /// Sum of recorded latencies, microseconds.
    pub sum_us: u128,
    /// Minimum, microseconds.
    pub min_us: u64,
    /// Median, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
    /// Maximum, microseconds.
    pub max_us: u64,
}

impl LatencyQuantiles {
    /// Extracts quantiles from a histogram of microsecond values.
    pub fn from_histogram(h: &rpclens_simcore::hist::LogHistogram) -> Self {
        LatencyQuantiles {
            count: h.count(),
            sum_us: h.sum(),
            min_us: h.min().unwrap_or(0),
            p50_us: h.quantile(0.5).unwrap_or(0),
            p90_us: h.quantile(0.9).unwrap_or(0),
            p99_us: h.quantile(0.99).unwrap_or(0),
            p999_us: h.quantile(0.999).unwrap_or(0),
            max_us: h.max().unwrap_or(0),
        }
    }
}

/// The shard-count-invariant section of a manifest. Integers only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeterministicSection {
    /// Master seed the run derived everything from.
    pub seed: u64,
    /// Scale preset name (`smoke`, `default`, `paper`, ...).
    pub scale: String,
    /// Methods in the generated catalog.
    pub total_methods: u64,
    /// Workload roots simulated.
    pub roots: u64,
    /// Spans (RPC calls) simulated, including hedges.
    pub spans: u64,
    /// Roots admitted by the trace sampler.
    pub traces_sampled: u64,
    /// Spans retained in the trace store (budget-capped).
    pub trace_stored_spans: u64,
    /// Total injected errors across all kinds.
    pub errors_total: u64,
    /// Injected errors per kind, in fixed kind order.
    pub errors_by_kind: Vec<(String, u64)>,
    /// Hedge (backup) requests issued.
    pub hedges_issued: u64,
    /// Deepest call tree observed.
    pub max_depth: u64,
    /// Queue-model telemetry.
    pub queue: QueueTelemetry,
    /// Wire congestion telemetry.
    pub wire: WireTelemetry,
    /// End-to-end root latency summary, microseconds.
    pub root_latency: LatencyQuantiles,
    /// Total cycles attributed by the profiler.
    pub cycles_total: u128,
    /// Cycles per category, in fixed category order.
    pub cycles_by_category: Vec<(String, u128)>,
    /// RPC cycle tax in parts-per-million of total cycles (integer so
    /// the section stays float-free).
    pub tax_ppm: u64,
}

/// Wall-clock and execution-shape section. **Not deterministic.**
#[derive(Debug, Clone, Default)]
pub struct RuntimeSection {
    /// Shards the run used.
    pub shards: usize,
    /// Worker-pool threads the shards executed on. `0` when parsing a
    /// manifest written before the pool existed (schema unchanged:
    /// `runtime` fields are additive and never digested).
    pub threads: usize,
    /// Per-shard `(shard, roots, spans, wall_ms)` rows.
    pub per_shard: Vec<(usize, u64, u64, f64)>,
    /// `(phase, wall_ms)` rows in execution order.
    pub phases: Vec<(String, f64)>,
    /// Total wall-clock milliseconds across phases.
    pub total_wall_ms: f64,
}

/// Fault-scenario section: executed-resilience counters and the
/// per-error-kind breakdown. Present only when a fault scenario was
/// active; deterministic but excluded from [`RunManifest::digest`] so
/// fault-free golden digests are stable across schema growth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessSection {
    /// Fault scenario preset name (`chaos-smoke`, `partition`, ...).
    pub scenario: String,
    /// Retry attempts issued by the client resilience loop.
    pub retries_issued: u64,
    /// Retry attempts denied by the retry-budget token bucket.
    pub retries_denied: u64,
    /// Retries redirected to a different replica or cluster.
    pub failovers: u64,
    /// `Unavailable` errors with a causal origin (crash/drain/blackout).
    pub causal_unavailable: u64,
    /// `NoResource` errors from load-shedding queues under overload.
    pub load_sheds: u64,
    /// `DeadlineExceeded` errors from latency crossing a deadline.
    pub deadline_exceeded: u64,
    /// Per-error-kind `(kind, count, wasted_cycles)` rows in fixed kind
    /// order — the Fig. 23 error-class/wasted-work breakdown.
    pub errors: Vec<(String, u64, u128)>,
    /// Correlated-incident rows `(kind, entities_struck, episodes)` in
    /// fixed kind order (`drain`, `wan-cut`, `front`). Empty for runs
    /// without an incident layer; omitted from the rendered JSON then
    /// (schema v3).
    pub incidents: Vec<(String, u64, u64)>,
    /// Controller activity rows `(controller, value)` in fixed order —
    /// autoscaler scaled windows / peak capacity, load-balancer shifts,
    /// admission-queue verdict counts. Empty for open-loop runs; omitted
    /// from the rendered JSON then (schema v3).
    pub controllers: Vec<(String, u64)>,
}

/// A versioned run manifest; see the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Schema version; readers reject mismatches.
    pub schema_version: u32,
    /// Shard-count-invariant counters.
    pub deterministic: DeterministicSection,
    /// Fault-scenario resilience counters; `None` for fault-free runs.
    pub robustness: Option<RobustnessSection>,
    /// Wall-clock execution shape.
    pub runtime: RuntimeSection,
}

/// FNV-1a over bytes; the manifest digest primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn named_u64s<'a>(pairs: impl IntoIterator<Item = &'a (String, u64)>) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.clone(), Json::Uint(u128::from(*v))))
            .collect(),
    )
}

fn named_u128s<'a>(pairs: impl IntoIterator<Item = &'a (String, u128)>) -> Json {
    Json::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.clone(), Json::Uint(*v)))
            .collect(),
    )
}

impl RunManifest {
    /// Builds a manifest from run telemetry plus the fields only the
    /// caller knows (seed/scale identity, store/profiler rollups).
    #[allow(clippy::too_many_arguments)]
    pub fn from_telemetry(
        telemetry: &RunTelemetry,
        seed: u64,
        scale: &str,
        total_methods: u64,
        trace_stored_spans: u64,
        errors_by_kind: Vec<(String, u64)>,
        cycles_by_category: Vec<(String, u128)>,
        tax_ppm: u64,
    ) -> Self {
        let c = &telemetry.counters;
        let deterministic = DeterministicSection {
            seed,
            scale: scale.to_string(),
            total_methods,
            roots: c.roots,
            spans: c.spans,
            traces_sampled: c.traces_sampled,
            trace_stored_spans,
            errors_total: errors_by_kind.iter().map(|(_, n)| n).sum(),
            errors_by_kind,
            hedges_issued: c.hedges_issued,
            max_depth: c.max_depth,
            queue: c.queue.clone(),
            wire: c.wire.clone(),
            root_latency: LatencyQuantiles::from_histogram(&c.root_latency_us),
            cycles_total: cycles_by_category.iter().map(|(_, n)| n).sum(),
            cycles_by_category,
            tax_ppm,
        };
        let runtime = RuntimeSection {
            shards: telemetry.shards_used,
            threads: telemetry.threads_used,
            per_shard: telemetry
                .per_shard
                .iter()
                .map(|s| (s.shard, s.roots, s.spans, s.wall_ms))
                .collect(),
            phases: telemetry.phases.phases().to_vec(),
            total_wall_ms: telemetry.phases.total_ms(),
        };
        RunManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            deterministic,
            robustness: None,
            runtime,
        }
    }

    /// Renders the `robustness` section as a JSON value. The v3
    /// `incidents` and `controllers` tables are appended only when
    /// non-empty, so fault-only (v2-shaped) manifests keep rendering
    /// byte-identically.
    fn robustness_json(r: &RobustnessSection) -> Json {
        let mut body = Json::obj([
            ("scenario", Json::Str(r.scenario.clone())),
            ("retries_issued", Json::Uint(u128::from(r.retries_issued))),
            ("retries_denied", Json::Uint(u128::from(r.retries_denied))),
            ("failovers", Json::Uint(u128::from(r.failovers))),
            (
                "causal_unavailable",
                Json::Uint(u128::from(r.causal_unavailable)),
            ),
            ("load_sheds", Json::Uint(u128::from(r.load_sheds))),
            (
                "deadline_exceeded",
                Json::Uint(u128::from(r.deadline_exceeded)),
            ),
            (
                "errors",
                Json::Array(
                    r.errors
                        .iter()
                        .map(|(kind, count, wasted)| {
                            Json::obj([
                                ("kind", Json::Str(kind.clone())),
                                ("count", Json::Uint(u128::from(*count))),
                                ("wasted_cycles", Json::Uint(*wasted)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let Json::Object(pairs) = &mut body else {
            unreachable!("robustness body is an object");
        };
        if !r.incidents.is_empty() {
            pairs.push((
                "incidents".to_string(),
                Json::Array(
                    r.incidents
                        .iter()
                        .map(|(kind, struck, episodes)| {
                            Json::obj([
                                ("kind", Json::Str(kind.clone())),
                                ("entities_struck", Json::Uint(u128::from(*struck))),
                                ("episodes", Json::Uint(u128::from(*episodes))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if !r.controllers.is_empty() {
            pairs.push((
                "controllers".to_string(),
                Json::Array(
                    r.controllers
                        .iter()
                        .map(|(name, value)| {
                            Json::obj([
                                ("controller", Json::Str(name.clone())),
                                ("value", Json::Uint(u128::from(*value))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        body
    }

    /// Renders the `deterministic` section (without the digest field) as
    /// a JSON value. Field order is fixed; this is the byte-compared
    /// surface of the determinism contract.
    fn deterministic_body(&self) -> Json {
        let d = &self.deterministic;
        Json::obj([
            ("seed", Json::Uint(u128::from(d.seed))),
            ("scale", Json::Str(d.scale.clone())),
            ("total_methods", Json::Uint(u128::from(d.total_methods))),
            ("roots", Json::Uint(u128::from(d.roots))),
            ("spans", Json::Uint(u128::from(d.spans))),
            ("traces_sampled", Json::Uint(u128::from(d.traces_sampled))),
            (
                "trace_stored_spans",
                Json::Uint(u128::from(d.trace_stored_spans)),
            ),
            ("errors_total", Json::Uint(u128::from(d.errors_total))),
            ("errors_by_kind", named_u64s(&d.errors_by_kind)),
            ("hedges_issued", Json::Uint(u128::from(d.hedges_issued))),
            ("max_depth", Json::Uint(u128::from(d.max_depth))),
            (
                "queue",
                Json::obj([
                    ("samples", Json::Uint(u128::from(d.queue.samples))),
                    ("waits", Json::Uint(u128::from(d.queue.waits))),
                    ("total_wait_ns", Json::Uint(d.queue.total_wait_ns)),
                    ("max_wait_ns", Json::Uint(u128::from(d.queue.max_wait_ns))),
                ]),
            ),
            (
                "wire",
                Json::obj([
                    ("samples", Json::Uint(u128::from(d.wire.samples))),
                    ("congested", Json::Uint(u128::from(d.wire.congested))),
                ]),
            ),
            (
                "root_latency",
                Json::obj([
                    ("count", Json::Uint(u128::from(d.root_latency.count))),
                    ("sum_us", Json::Uint(d.root_latency.sum_us)),
                    ("min_us", Json::Uint(u128::from(d.root_latency.min_us))),
                    ("p50_us", Json::Uint(u128::from(d.root_latency.p50_us))),
                    ("p90_us", Json::Uint(u128::from(d.root_latency.p90_us))),
                    ("p99_us", Json::Uint(u128::from(d.root_latency.p99_us))),
                    ("p999_us", Json::Uint(u128::from(d.root_latency.p999_us))),
                    ("max_us", Json::Uint(u128::from(d.root_latency.max_us))),
                ]),
            ),
            ("cycles_total", Json::Uint(d.cycles_total)),
            ("cycles_by_category", named_u128s(&d.cycles_by_category)),
            ("tax_ppm", Json::Uint(u128::from(d.tax_ppm))),
        ])
    }

    /// The FNV-1a digest of the rendered deterministic section. Equal
    /// digests ⇒ equal deterministic behaviour.
    pub fn digest(&self) -> u64 {
        fnv1a(self.deterministic_body().to_pretty().as_bytes())
    }

    /// Renders only the deterministic section (digest included) — the
    /// exact bytes the shard-invariance test compares.
    pub fn deterministic_json(&self) -> String {
        let mut body = self.deterministic_body();
        let digest = self.digest();
        if let Json::Object(pairs) = &mut body {
            pairs.push(("digest".to_string(), Json::Uint(u128::from(digest))));
        }
        body.to_pretty()
    }

    /// Renders the complete manifest, both sections, as pretty JSON.
    pub fn to_json_string(&self) -> String {
        let mut deterministic = self.deterministic_body();
        let digest = self.digest();
        if let Json::Object(pairs) = &mut deterministic {
            pairs.push(("digest".to_string(), Json::Uint(u128::from(digest))));
        }
        let r = &self.runtime;
        let mut sections: Vec<(String, Json)> = vec![
            (
                "schema_version".to_string(),
                Json::Uint(u128::from(self.schema_version)),
            ),
            ("deterministic".to_string(), deterministic),
        ];
        if let Some(rb) = &self.robustness {
            sections.push(("robustness".to_string(), Self::robustness_json(rb)));
        }
        sections.push((
            "runtime".to_string(),
            Json::obj([
                ("shards", Json::Uint(r.shards as u128)),
                ("threads", Json::Uint(r.threads as u128)),
                (
                    "per_shard",
                    Json::Array(
                        r.per_shard
                            .iter()
                            .map(|&(shard, roots, spans, wall_ms)| {
                                Json::obj([
                                    ("shard", Json::Uint(shard as u128)),
                                    ("roots", Json::Uint(u128::from(roots))),
                                    ("spans", Json::Uint(u128::from(spans))),
                                    ("wall_ms", Json::Float(wall_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "phases",
                    Json::Array(
                        r.phases
                            .iter()
                            .map(|(name, ms)| {
                                Json::obj([
                                    ("phase", Json::Str(name.clone())),
                                    ("wall_ms", Json::Float(*ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("total_wall_ms", Json::Float(r.total_wall_ms)),
            ]),
        ));
        Json::Object(sections).to_pretty()
    }

    /// Parses a manifest previously written by [`RunManifest::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a schema-version mismatch, or
    /// a digest that does not match the deterministic fields.
    pub fn parse(text: &str) -> Result<RunManifest, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let version = root
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        // Older versions are strict subsets of newer ones: v1 lacks the
        // `robustness` section, v2 lacks its `incidents`/`controllers`
        // tables. All parse identically with the absent parts defaulted.
        if !(1..=u64::from(MANIFEST_SCHEMA_VERSION)).contains(&version) {
            return Err(format!(
                "unsupported manifest schema version {version} (expected {MANIFEST_SCHEMA_VERSION})"
            ));
        }
        let det = root.get("deterministic").ok_or("missing deterministic")?;
        let need_u64 = |section: &Json, key: &str| -> Result<u64, String> {
            section
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let need_u128 = |section: &Json, key: &str| -> Result<u128, String> {
            section
                .get(key)
                .and_then(Json::as_u128)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let queue = det.get("queue").ok_or("missing queue")?;
        let wire = det.get("wire").ok_or("missing wire")?;
        let lat = det.get("root_latency").ok_or("missing root_latency")?;
        let pairs_u64 = |key: &str| -> Result<Vec<(String, u64)>, String> {
            match det.get(key) {
                Some(Json::Object(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("non-integer value in '{key}'"))
                    })
                    .collect(),
                _ => Err(format!("missing object '{key}'")),
            }
        };
        let pairs_u128 = |key: &str| -> Result<Vec<(String, u128)>, String> {
            match det.get(key) {
                Some(Json::Object(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_u128()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| format!("non-integer value in '{key}'"))
                    })
                    .collect(),
                _ => Err(format!("missing object '{key}'")),
            }
        };
        let deterministic = DeterministicSection {
            seed: need_u64(det, "seed")?,
            scale: det
                .get("scale")
                .and_then(Json::as_str)
                .ok_or("missing scale")?
                .to_string(),
            total_methods: need_u64(det, "total_methods")?,
            roots: need_u64(det, "roots")?,
            spans: need_u64(det, "spans")?,
            traces_sampled: need_u64(det, "traces_sampled")?,
            trace_stored_spans: need_u64(det, "trace_stored_spans")?,
            errors_total: need_u64(det, "errors_total")?,
            errors_by_kind: pairs_u64("errors_by_kind")?,
            hedges_issued: need_u64(det, "hedges_issued")?,
            max_depth: need_u64(det, "max_depth")?,
            queue: QueueTelemetry {
                samples: need_u64(queue, "samples")?,
                waits: need_u64(queue, "waits")?,
                total_wait_ns: need_u128(queue, "total_wait_ns")?,
                max_wait_ns: need_u64(queue, "max_wait_ns")?,
            },
            wire: WireTelemetry {
                samples: need_u64(wire, "samples")?,
                congested: need_u64(wire, "congested")?,
            },
            root_latency: LatencyQuantiles {
                count: need_u64(lat, "count")?,
                sum_us: need_u128(lat, "sum_us")?,
                min_us: need_u64(lat, "min_us")?,
                p50_us: need_u64(lat, "p50_us")?,
                p90_us: need_u64(lat, "p90_us")?,
                p99_us: need_u64(lat, "p99_us")?,
                p999_us: need_u64(lat, "p999_us")?,
                max_us: need_u64(lat, "max_us")?,
            },
            cycles_total: need_u128(det, "cycles_total")?,
            cycles_by_category: pairs_u128("cycles_by_category")?,
            tax_ppm: need_u64(det, "tax_ppm")?,
        };
        let robustness = match root.get("robustness") {
            Some(rb) => Some(RobustnessSection {
                scenario: rb
                    .get("scenario")
                    .and_then(Json::as_str)
                    .ok_or("missing robustness scenario")?
                    .to_string(),
                retries_issued: need_u64(rb, "retries_issued")?,
                retries_denied: need_u64(rb, "retries_denied")?,
                failovers: need_u64(rb, "failovers")?,
                causal_unavailable: need_u64(rb, "causal_unavailable")?,
                load_sheds: need_u64(rb, "load_sheds")?,
                deadline_exceeded: need_u64(rb, "deadline_exceeded")?,
                errors: rb
                    .get("errors")
                    .and_then(Json::as_array)
                    .ok_or("missing robustness errors")?
                    .iter()
                    .map(|row| {
                        Some((
                            row.get("kind")?.as_str()?.to_string(),
                            row.get("count")?.as_u64()?,
                            row.get("wasted_cycles")?.as_u128()?,
                        ))
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or("malformed robustness errors row")?,
                incidents: rb
                    .get("incidents")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|row| {
                        Some((
                            row.get("kind")?.as_str()?.to_string(),
                            row.get("entities_struck")?.as_u64()?,
                            row.get("episodes")?.as_u64()?,
                        ))
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or("malformed robustness incidents row")?,
                controllers: rb
                    .get("controllers")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|row| {
                        Some((
                            row.get("controller")?.as_str()?.to_string(),
                            row.get("value")?.as_u64()?,
                        ))
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or("malformed robustness controllers row")?,
            }),
            None => None,
        };
        let runtime = match root.get("runtime") {
            Some(rt) => RuntimeSection {
                shards: rt.get("shards").and_then(Json::as_u64).unwrap_or(0) as usize,
                threads: rt.get("threads").and_then(Json::as_u64).unwrap_or(0) as usize,
                per_shard: rt
                    .get("per_shard")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|row| {
                        Some((
                            row.get("shard")?.as_u64()? as usize,
                            row.get("roots")?.as_u64()?,
                            row.get("spans")?.as_u64()?,
                            row.get("wall_ms")?.as_f64()?,
                        ))
                    })
                    .collect(),
                phases: rt
                    .get("phases")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|row| {
                        Some((
                            row.get("phase")?.as_str()?.to_string(),
                            row.get("wall_ms")?.as_f64()?,
                        ))
                    })
                    .collect(),
                total_wall_ms: rt
                    .get("total_wall_ms")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            },
            None => RuntimeSection::default(),
        };
        let manifest = RunManifest {
            schema_version: version as u32,
            deterministic,
            robustness,
            runtime,
        };
        if let Some(stored) = det.get("digest").and_then(Json::as_u64) {
            let recomputed = manifest.digest();
            if stored != recomputed {
                return Err(format!(
                    "manifest digest mismatch: stored {stored}, recomputed {recomputed} \
                     (deterministic fields were edited or the file is corrupt)"
                ));
            }
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{PhaseTimings, RunTelemetry, ShardCounters, ShardReport};

    fn sample_manifest() -> RunManifest {
        let mut counters = ShardCounters::new();
        counters.roots = 1000;
        counters.spans = 8200;
        counters.traces_sampled = 31;
        counters.hedges_issued = 7;
        counters.max_depth = 5;
        for i in 0..1000u64 {
            counters.root_latency_us.record(50 + i * 3 % 9000);
            counters.queue.record((i % 4) * 250);
            counters.wire.record(i % 17 == 0);
        }
        let telemetry = RunTelemetry {
            counters,
            per_shard: vec![
                ShardReport {
                    shard: 0,
                    roots: 500,
                    spans: 4100,
                    wall_ms: 1.5,
                },
                ShardReport {
                    shard: 1,
                    roots: 500,
                    spans: 4100,
                    wall_ms: 1.75,
                },
            ],
            phases: {
                let mut p = PhaseTimings::new();
                p.record("generate", 0.5);
                p.record("simulate", 3.25);
                p.record("merge", 0.125);
                p
            },
            shards_used: 2,
            threads_used: 2,
        };
        RunManifest::from_telemetry(
            &telemetry,
            42,
            "smoke",
            320,
            900,
            vec![
                ("deadline".to_string(), 6),
                ("transport".to_string(), 4),
                ("cancelled".to_string(), 2),
            ],
            vec![
                ("app".to_string(), 900_000_000_000u128),
                ("serialization".to_string(), 120_000_000_000u128),
                ("compression".to_string(), 80_000_000_000u128),
            ],
            181_818,
        )
    }

    #[test]
    fn roundtrips_through_json() {
        let m = sample_manifest();
        let text = m.to_json_string();
        let back = RunManifest::parse(&text).expect("parse own output");
        assert_eq!(back.deterministic, m.deterministic);
        assert_eq!(back.runtime.shards, 2);
        assert_eq!(back.runtime.threads, 2);
        assert_eq!(back.runtime.per_shard.len(), 2);
        assert_eq!(back.runtime.phases.len(), 3);
        // Re-render of the parse is byte-identical.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn deterministic_section_excludes_runtime() {
        let m = sample_manifest();
        let det = m.deterministic_json();
        assert!(!det.contains("wall_ms"), "wall clock leaked: {det}");
        assert!(!det.contains("per_shard"));
        assert!(!det.contains("shards"));
        assert!(!det.contains("threads"));
        assert!(det.contains("\"digest\""));
    }

    #[test]
    fn runtime_changes_do_not_move_the_digest() {
        let mut a = sample_manifest();
        let d0 = a.digest();
        a.runtime.per_shard.clear();
        a.runtime.phases.clear();
        a.runtime.shards = 8;
        a.runtime.threads = 8;
        a.runtime.total_wall_ms = 99.0;
        assert_eq!(a.digest(), d0);
        assert_eq!(
            a.deterministic_json(),
            sample_manifest().deterministic_json()
        );
    }

    #[test]
    fn tampered_deterministic_fields_fail_digest_check() {
        let m = sample_manifest();
        let text = m.to_json_string();
        let tampered = text.replacen("\"roots\": 1000", "\"roots\": 1001", 1);
        assert_ne!(tampered, text, "replacement must hit");
        let e = RunManifest::parse(&tampered).unwrap_err();
        assert!(e.contains("digest mismatch"), "{e}");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let m = sample_manifest();
        let text =
            m.to_json_string()
                .replacen("\"schema_version\": 3", "\"schema_version\": 999", 1);
        let e = RunManifest::parse(&text).unwrap_err();
        assert!(e.contains("schema version"), "{e}");
    }

    #[test]
    fn v1_manifests_still_parse() {
        let m = sample_manifest();
        let text = m
            .to_json_string()
            .replacen("\"schema_version\": 3", "\"schema_version\": 1", 1);
        let back = RunManifest::parse(&text).expect("v1 parses");
        assert_eq!(back.deterministic, m.deterministic);
        assert!(back.robustness.is_none());
    }

    #[test]
    fn v2_manifests_still_parse() {
        // A v2 manifest: robustness section present but without the v3
        // incidents/controllers tables (which v2 writers never emitted).
        let mut m = sample_manifest();
        let mut rb = sample_robustness();
        rb.incidents.clear();
        rb.controllers.clear();
        m.robustness = Some(rb);
        let text = m
            .to_json_string()
            .replacen("\"schema_version\": 3", "\"schema_version\": 2", 1);
        let back = RunManifest::parse(&text).expect("v2 parses");
        assert_eq!(back.deterministic, m.deterministic);
        let rb = back.robustness.expect("robustness kept");
        assert_eq!(rb.scenario, "chaos-smoke");
        assert!(rb.incidents.is_empty());
        assert!(rb.controllers.is_empty());
    }

    fn sample_robustness() -> RobustnessSection {
        RobustnessSection {
            scenario: "chaos-smoke".to_string(),
            retries_issued: 40,
            retries_denied: 3,
            failovers: 25,
            causal_unavailable: 18,
            load_sheds: 9,
            deadline_exceeded: 11,
            errors: vec![
                ("unavailable".to_string(), 18, 5_000_000u128),
                ("no_resource".to_string(), 9, 2_000_000u128),
            ],
            incidents: vec![
                ("drain".to_string(), 3, 14),
                ("wan-cut".to_string(), 6, 9),
                ("front".to_string(), 12, 21),
            ],
            controllers: vec![
                ("autoscaler_scaled_windows".to_string(), 37),
                ("lb_shifts".to_string(), 120),
                ("admission_shed".to_string(), 44),
            ],
        }
    }

    #[test]
    fn robustness_section_roundtrips_and_leaves_digest_alone() {
        let mut m = sample_manifest();
        let d0 = m.digest();
        m.robustness = Some(sample_robustness());
        assert_eq!(m.digest(), d0, "robustness must not move the digest");
        let text = m.to_json_string();
        assert!(text.contains("\"robustness\""));
        assert!(text.contains("\"incidents\""));
        assert!(text.contains("\"controllers\""));
        let back = RunManifest::parse(&text).expect("parse own output");
        assert_eq!(back.robustness, m.robustness);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn empty_incident_and_controller_tables_are_omitted() {
        let mut m = sample_manifest();
        let mut rb = sample_robustness();
        rb.incidents.clear();
        rb.controllers.clear();
        m.robustness = Some(rb);
        let text = m.to_json_string();
        assert!(!text.contains("\"incidents\""));
        assert!(!text.contains("\"controllers\""));
        let back = RunManifest::parse(&text).expect("parse own output");
        assert_eq!(back.robustness, m.robustness);
    }

    #[test]
    fn fault_free_manifests_omit_robustness() {
        let m = sample_manifest();
        assert!(!m.to_json_string().contains("robustness"));
    }

    #[test]
    fn errors_total_and_cycles_total_are_sums() {
        let m = sample_manifest();
        assert_eq!(m.deterministic.errors_total, 12);
        assert_eq!(m.deterministic.cycles_total, 1_100_000_000_000u128);
    }
}
