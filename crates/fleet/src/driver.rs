//! The fleet simulation driver.
//!
//! Expands every root RPC into its full call tree through the
//! nine-component pipeline of Fig. 9:
//!
//! ```text
//! client send queue -> request stack processing -> request network wire
//!   -> server recv queue (wakeup + M/G/k wait at the machine's current
//!      utilization) -> handler compute (x machine slowdown) -> nested
//!      fan-out (parallel) -> server send queue -> response stack
//!      processing -> response network wire -> client recv queue
//! ```
//!
//! Server queueing is *analytic*: the traced RPCs are a sampled slice of
//! production traffic, so their waiting time is driven by the background
//! utilization captured in each machine's exogenous profile (see
//! `rpclens-cluster::mgk`). Cross-trace coupling flows through the shared
//! network congestion processes and the shared diurnal load, which is the
//! coupling the paper's analyses actually exercise.
//!
//! Every simulated span feeds the popularity counters; sampled traces are
//! stored in full; cycles flow to the profiler and errors to the error
//! accounting.

use crate::catalog::{Catalog, CatalogConfig, ServiceCategory, ServiceSpec};
use crate::conditions::{Environment, Unavailable};
use crate::control::{admission_verdict, AdmissionVerdict};
use crate::faults::FaultScenario;
use crate::pool;
use crate::workload::{RootArrival, Workload};
use rpclens_cluster::exogenous::{ExogenousProfile, NoiseEdges};
use rpclens_cluster::machine::{Machine, MachineConfig, MachineId};
use rpclens_cluster::mgk::QueueModel;
use rpclens_cluster::site::DensePairMap;
use rpclens_netsim::latency::{Network, NetworkConfig};
use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_obs::telemetry::{PhaseTimings, RunTelemetry, ShardCounters, ShardReport};
use rpclens_obs::WindowSample;
use rpclens_profiler::{CycleProfiler, ErrorAccounting};
use rpclens_rpcstack::component::{LatencyBreakdown, LatencyComponent};
use rpclens_rpcstack::cost::{CycleCategory, CycleCost, StackCostConfig, StackCostModel};
use rpclens_rpcstack::deadline::Deadline;
use rpclens_rpcstack::error::{ErrorKind, ErrorProfile};
use rpclens_rpcstack::hedging::resolve_hedge;
use rpclens_rpcstack::queue::SoftQueue;
use rpclens_rpcstack::retry::{BackoffPolicy, RetryBudget};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::collector::{TraceCollector, TraceStore};
use rpclens_trace::span::{MethodId, ServiceId, SpanBuilder, SpanRecord, TraceData, ROOT_PARENT};
use rpclens_tsdb::store::TimeSeriesDb;
use std::sync::Mutex as StdMutex;
use std::time::Instant;

/// Simulation scale presets.
#[derive(Debug, Clone)]
pub struct SimScale {
    /// Preset name (recorded in EXPERIMENTS.md).
    pub name: &'static str,
    /// Catalog size.
    pub total_methods: usize,
    /// Number of root RPCs to issue.
    pub roots: u64,
    /// Simulated duration (24 h keeps the diurnal analyses meaningful).
    pub duration: SimDuration,
    /// Head-based trace sampling: store 1 in N trees.
    pub trace_sample_rate: u64,
    /// Per-method profiler sample retention: each method keeps at most
    /// this many normalized-cycle samples in its deterministic bottom-k
    /// reservoir (`rpclens_profiler::CycleProfiler`). Like
    /// `trace_sample_rate`, this is a retention decision — every call's
    /// cycles are still counted exactly in the category/service totals;
    /// only the per-method quantile sample set is bounded.
    pub profiler_sample_cap: usize,
    /// Master seed.
    pub seed: u64,
}

impl SimScale {
    /// CI-friendly scale: ~400 methods, 6k roots.
    pub fn smoke() -> Self {
        SimScale {
            name: "smoke",
            total_methods: 400,
            roots: 6_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 7,
        }
    }

    /// Default scale: ~2,000 methods, 60k roots (seconds to run).
    pub fn default_scale() -> Self {
        SimScale {
            name: "default",
            total_methods: 2_000,
            roots: 120_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 7,
        }
    }

    /// Paper scale: the full 10,000-method population.
    pub fn paper() -> Self {
        SimScale {
            name: "paper",
            total_methods: 10_000,
            roots: 700_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 7,
        }
    }

    /// Fleet scale: a simulated day of traffic at cloud scale — two
    /// million root RPCs over the full 10,000-method population.
    ///
    /// Built for the multi-threaded driver: memory stays bounded by
    /// retention, not simulation length — head-sampling keeps 1 in
    /// 1,024 trace trees and the profiler keeps at most 256
    /// normalized-cycle samples per method (both pure retention
    /// decisions: every tree is still simulated and every cycle still
    /// counted; see `docs/PERFORMANCE.md`). Window counters are one
    /// small row per 30-minute window per shard. The measured
    /// budget is documented in `docs/PERFORMANCE.md` and gated by
    /// `bench-ceiling rss` in CI.
    pub fn fleet() -> Self {
        SimScale {
            name: "fleet",
            total_methods: 10_000,
            roots: 2_000_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1_024,
            // 17M spans over 10k methods retain ~1,700 samples/method at
            // the default 10k cap — ~170 MB of reservoir state, the
            // single largest term of a fleet run. 256 keeps every
            // per-method analysis above its >=100-sample floor while
            // bounding the reservoirs to a few tens of MB.
            profiler_sample_cap: 256,
            seed: 7,
        }
    }
}

/// Hard cap on spans per trace (keeps pathological bursts bounded).
const MAX_TRACE_SPANS: usize = 4_000;

/// Hard cap on call depth.
const MAX_DEPTH: u32 = 12;

/// Full driver configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Scale preset.
    pub scale: SimScale,
    /// Fault scenario: failure episode sources plus the client resilience
    /// response (deadlines, budgeted retries with failover). The default
    /// [`FaultScenario::none`] leaves the driver's draw sequence
    /// byte-identical to a build without the fault plane. The error
    /// injection profile follows from it
    /// ([`FaultScenario::error_profile`]).
    pub faults: FaultScenario,
    /// Whether network paths carry congestion state (disable for
    /// ablations: pure wire + transmission latency).
    pub congestion_enabled: bool,
    /// Whether clients hedge slow requests (disable for ablations).
    pub hedging_enabled: bool,
    /// Whether the per-trace [`RetryBudget`] token bucket gates retries
    /// (disable for ablations: retries are then bounded only by
    /// `max_attempts`, which is what lets a retry storm amplify).
    pub retry_budget_enabled: bool,
    /// Whether reserved-core isolation is honoured (disable for
    /// ablations: KV-Store then shares cores like everyone else).
    pub reserved_cores_enabled: bool,
    /// Number of worker shards the root workload is split across.
    ///
    /// Shards are the unit of *determinism*: contiguous root chunks whose
    /// accumulators merge in shard-id order. The run's outputs are
    /// bit-identical for every value (see the "Determinism contract"
    /// section of `docs/ARCHITECTURE.md`). Values are clamped to at
    /// least 1; the default is one shard per available core.
    pub shards: usize,
    /// Number of worker threads the shards execute on.
    ///
    /// Threads are the unit of *execution*: a bounded pool
    /// ([`crate::pool`]) on which workers claim shard ids dynamically.
    /// Like `shards`, this is purely a wall-clock knob — completed
    /// shards stream through an order-restoring merge, so every output
    /// is bit-identical at any thread count. Clamped to `1..=shards`;
    /// the default is one thread per available core.
    pub threads: usize,
    /// Emit per-shard progress lines on stderr as shards complete
    /// (cumulative roots/s and spans/s). Purely observational: progress
    /// goes to stderr only and never touches artifacts or digests.
    pub progress: bool,
}

/// One shard (or worker thread) per available core, falling back to 1
/// when the parallelism of the host cannot be determined.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl FleetConfig {
    /// A configuration at the given scale with fleet-default everything.
    pub fn at_scale(scale: SimScale) -> Self {
        FleetConfig {
            scale,
            faults: FaultScenario::none(),
            congestion_enabled: true,
            hedging_enabled: true,
            retry_budget_enabled: true,
            reserved_cores_enabled: true,
            shards: available_cores(),
            threads: available_cores(),
            progress: false,
        }
    }

    /// The same configuration under a fault scenario.
    pub fn with_faults(mut self, scenario: FaultScenario) -> Self {
        self.faults = scenario;
        self
    }

    /// The network constants every [`Network`] of the run is built with.
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig {
            congestion_enabled: self.congestion_enabled,
            ..NetworkConfig::default()
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::at_scale(SimScale::default_scale())
    }
}

/// One deployment site: a service's presence in one cluster.
#[derive(Debug)]
pub struct ServiceSite {
    /// The service.
    pub service: ServiceId,
    /// The cluster.
    pub cluster: ClusterId,
    /// Cluster-level load profile for this service here.
    pub load: ExogenousProfile,
    /// Machines at this site (each with its own load offset baked into
    /// its profile).
    pub machines: Vec<Machine>,
    /// Static per-machine load multipliers (data-dependence skew).
    pub machine_offsets: Vec<f64>,
    /// Analytic queue model for the site's pools.
    pub queue: QueueModel,
    /// This site's slot in a shard's site noise caches.
    noise_slot: usize,
    /// The slot of machine 0 in a shard's machine noise caches; machine
    /// `mi` uses `machine_noise_slot + mi`.
    machine_noise_slot: usize,
}

impl ServiceSite {
    /// The effective utilization of machine `mi` at instant `t`.
    pub fn machine_util(&self, mi: usize, t: SimTime) -> f64 {
        self.machine_util_with(mi, t, &mut NoiseEdges::default())
    }

    /// [`ServiceSite::machine_util`] reading the site load's noise edges
    /// through `edges`, a cache that only ever serves this site.
    fn machine_util_with(&self, mi: usize, t: SimTime, edges: &mut NoiseEdges<1>) -> f64 {
        (self.load.cpu_util_with(t, edges) * self.machine_offsets[mi]).clamp(0.02, 0.98)
    }
}

/// Everything a completed simulation exposes to the analyses.
#[derive(Debug)]
pub struct FleetRun {
    /// The catalog used.
    pub catalog: Catalog,
    /// The topology used.
    pub topology: Topology,
    /// Sampled traces.
    pub store: TraceStore,
    /// Cycle accounting.
    pub profiler: CycleProfiler,
    /// Error accounting.
    pub errors: ErrorAccounting,
    /// Monitoring database: the per-window `driver/*` counter lanes
    /// ([`WINDOW_LANES`]).
    pub tsdb: TimeSeriesDb,
    /// Per-method total simulated calls (including unsampled traces).
    pub method_calls: Vec<u64>,
    /// Per-method total bytes moved (request + response).
    pub method_bytes: Vec<u64>,
    /// Deployment sites, densely keyed by (service, cluster).
    pub sites: DensePairMap<ServiceSite>,
    /// Total spans simulated.
    pub total_spans: u64,
    /// Self-telemetry of the run: deterministic counters plus labeled
    /// wall-clock execution shape (see `rpclens-obs`).
    pub telemetry: RunTelemetry,
    /// The configuration used.
    pub config: FleetConfig,
}

impl FleetRun {
    /// The site of a service in a cluster, if deployed there.
    pub fn site(&self, service: ServiceId, cluster: ClusterId) -> Option<&ServiceSite> {
        self.sites.get(service.0, cluster.0)
    }

    /// All sites of one service, sorted by cluster id.
    pub fn sites_of(&self, service: ServiceId) -> Vec<&ServiceSite> {
        let mut out: Vec<&ServiceSite> = self
            .sites
            .values()
            .filter(|s| s.service == service)
            .collect();
        out.sort_by_key(|s| s.cluster);
        out
    }

    /// Total simulated calls across all methods.
    pub fn total_calls(&self) -> u64 {
        self.method_calls.iter().sum()
    }
}

/// A counter lane name paired with the [`WindowSample`] field it carries.
pub type WindowLane = (&'static str, fn(&WindowSample) -> u64);

/// The per-window counter lanes the driver writes to the TSDB. Every
/// lane holds one cumulative point per window that saw a root.
pub const WINDOW_LANES: [WindowLane; 4] = [
    ("driver/rpcs/count", |row| row.rpcs),
    ("driver/errors/count", |row| row.errors),
    ("driver/wire/congested", |row| row.congested_wire),
    ("driver/retries/count", |row| row.retries),
];

/// Adds `row` to the last row of the window-ascending `rows` when both
/// cover the same window, and appends it otherwise.
fn add_to_window(rows: &mut Vec<WindowSample>, row: WindowSample) {
    match rows.last_mut() {
        Some(last) if last.window == row.window => {
            last.rpcs += row.rpcs;
            last.errors += row.errors;
            last.congested_wire += row.congested_wire;
            last.retries += row.retries;
        }
        _ => {
            debug_assert!(
                rows.last().is_none_or(|last| last.window < row.window),
                "window rows out of order"
            );
            rows.push(row);
        }
    }
}

/// Draws a uniform index in `0..n` other than `skip` (`n >= 2`,
/// `skip < n`): one `index(n - 1)` draw, shifted past `skip`. Every
/// failover and load-balancer re-pick goes through here.
#[inline]
fn index_except(rng: &mut Prng, n: usize, skip: usize) -> usize {
    let j = rng.index(n - 1);
    if j >= skip {
        j + 1
    } else {
        j
    }
}

/// Runs the fleet simulation.
pub fn run_fleet(config: FleetConfig) -> FleetRun {
    Driver::new(config).run()
}

/// Per-trace expansion context.
struct TraceCtx {
    spans: Vec<SpanRecord>,
    root_start: SimTime,
    budget: usize,
    rng: Prng,
    /// Global sequence number of this trace's root (shard-invariant);
    /// seeds the profiler's deterministic sample tags.
    seq: u64,
    /// Fault-model errors injected while expanding this trace.
    errors: u64,
    /// Wire traversals of this trace that hit a congestion episode.
    congested_wire: u64,
    /// Per-trace retry budget (present only when the scenario retries).
    retry_budget: Option<RetryBudget>,
    /// Retry attempts issued while expanding this trace.
    retries: u64,
}

/// One call to place: everything `place_call`, `place_attempt` and
/// `simulate_call` need to know about it. Retries and hedges copy it
/// with a new `start` (and `avoid`).
#[derive(Clone, Copy)]
struct Call {
    method: MethodId,
    /// The calling service (charged the client-side stack cycles).
    client_service: ServiceId,
    client_cluster: ClusterId,
    /// The client machine's utilization (drives its soft queues).
    client_util: f64,
    /// Span index of the parent, or `ROOT_PARENT`.
    parent: u32,
    start: SimTime,
    depth: u32,
    /// Fire-and-forget: the parent does not wait for this call.
    detached: bool,
    deadline: Option<Deadline>,
    /// Placement a retry steers away from.
    avoid: Option<Avoid>,
}

/// Placement to steer away from on a retry (load-balancer failover).
#[derive(Clone, Copy)]
struct Avoid {
    /// The failed attempt's server cluster.
    cluster: ClusterId,
    /// The failed attempt's machine index within its site.
    machine: usize,
    /// Whether the failure condemned the whole cluster (partition,
    /// drain, overload shed) rather than one machine (crash).
    cluster_level: bool,
}

/// What one `simulate_call` reports to `place_attempt`, and one attempt
/// (primary + optional hedge) to the retry loop: the caller-observed
/// finish plus the error and placement that steer backoff and failover.
struct SimResult {
    finish: SimTime,
    /// Span index, or `None` if the span budget was exhausted.
    span: Option<u32>,
    /// Final error on this call, if any.
    error: Option<ErrorKind>,
    /// Placement `(cluster, machine index)`.
    server: Option<(ClusterId, usize)>,
    /// Whether the error condemned the whole cluster.
    cluster_level: bool,
}

/// The immutable simulation world, shared by reference across shards.
///
/// Everything here is read-only while roots are being expanded: the
/// catalog, topology, deployment sites (machines are stateless — their
/// wakeup jitter comes from the caller's generator), cost model, and the
/// master generator (stream derivation reads seed state without
/// consuming it). All mutable state lives in per-shard [`Shard`]s.
struct Driver {
    config: FleetConfig,
    catalog: Catalog,
    topology: Topology,
    cost: StackCostModel,
    /// Error injection profile: residual semantic classes when the
    /// scenario produces the mechanical ones causally, the full static
    /// fleet profile under `none`.
    errors: ErrorProfile,
    soft_queue: SoftQueue,
    sites: DensePairMap<ServiceSite>,
    /// Precomputed per-service placement state for `choose_cluster`.
    placement: Vec<SvcPlacement>,
    /// Ambient client-side load profile per cluster.
    client_profiles: Vec<ExogenousProfile>,
    /// Per-method root-deadline band `(lo_secs, hi/lo)` when the
    /// scenario uses per-family deadlines: `[q50 × lo_mult, q99 ×
    /// hi_mult]` of the method's own compute distribution, scaled by its
    /// service category and clamped to the scenario's budget bounds.
    /// `None` under global (or no) deadlines.
    deadline_bands: Option<Vec<(f64, f64)>>,
    master_rng: Prng,
}

/// Precomputed cluster-choice state for one service: the deployment
/// membership mask plus the softmax weight row (over the service's
/// deployment list) for every possible client cluster. `rtt_estimate` is a
/// pure function of the topology, so folding the weights at startup leaves
/// `choose_cluster` with table reads only — and the weights are the exact
/// f64s the per-call computation produced, keeping cluster choice
/// bit-identical.
struct SvcPlacement {
    /// Bit `c` is set when cluster `c` is in the deployment list.
    deployed_mask: u64,
    /// Softmax weights, flattened `[client * deployed_len + j]` where `j`
    /// indexes the service's sorted deployment list.
    weights: Vec<f64>,
    /// Per-client-cluster weight totals (summed in row order).
    totals: Vec<f64>,
}

impl Driver {
    fn new(config: FleetConfig) -> Self {
        let seed = config.scale.seed;
        let topology = Topology::default_world(seed);
        let catalog = Catalog::generate(
            &CatalogConfig {
                total_methods: config.scale.total_methods,
                seed,
            },
            &topology,
        );
        let cost = StackCostModel::new(StackCostConfig::default());
        let master_rng = Prng::seed_from(seed).stream(0xD21_4E12);

        // Build deployment sites with per-cluster load diversity: each
        // (service, cluster) pair gets its own base utilization, which is
        // what makes Fig. 16's clusters differ and Fig. 22's cross-cluster
        // CPU usage so spread out. Sites land in a dense (service,
        // cluster)-indexed table, inserted in (service, deployment) order
        // so iteration is deterministic.
        let mut site_entries = Vec::new();
        let mut machine_noise_slots = 0;
        for svc in catalog.services() {
            for (ci, &cluster) in svc.clusters.iter().enumerate() {
                let mut site_rng =
                    master_rng.stream(0x5173_0000 ^ ((svc.id.0 as u64) << 20) ^ cluster.0 as u64);
                let base_util = ((0.25 + 0.55 * site_rng.next_f64()) * svc.util_bias).min(0.92);
                let load = ExogenousProfile {
                    base_util,
                    diurnal_amp: 0.10 + 0.10 * site_rng.next_f64(),
                    peak_hour: 13.0 + 3.0 * site_rng.next_f64(),
                    noise: 0.05,
                    mem_bw_peak_gbps: 120.0,
                    seed: seed ^ ((svc.id.0 as u64) << 32) ^ ((cluster.0 as u64) << 8),
                };
                let n_machines = 3 + site_rng.index(3);
                let mut machines = Vec::with_capacity(n_machines);
                let mut machine_offsets = Vec::with_capacity(n_machines);
                for mi in 0..n_machines {
                    // Data-dependent services have skewed per-machine
                    // load (log-normal around the cluster base); others
                    // are near-uniform.
                    let z = site_rng.next_f64() * 2.0 - 1.0;
                    let offset = (svc.machine_skew * 1.8 * z).exp().clamp(0.4, 2.4);
                    machine_offsets.push(offset);
                    let mprofile = ExogenousProfile {
                        base_util: (base_util * offset).clamp(0.02, 0.95),
                        seed: load.seed ^ ((mi as u64) << 48),
                        ..load
                    };
                    machines.push(Machine::new(
                        MachineId(((svc.id.0 as u32) << 16) | ((ci as u32) << 8) | mi as u32),
                        MachineConfig {
                            speed: 0.85 + 0.3 * site_rng.next_f64(),
                            reserved_cores: svc.reserved_cores && config.reserved_cores_enabled,
                            baseline_cpi: 1.0,
                        },
                        mprofile,
                    ));
                }
                let queue =
                    QueueModel::new(svc.workers, svc.background_service, svc.background_scv);
                let noise_slot = site_entries.len();
                let machine_noise_slot = machine_noise_slots;
                machine_noise_slots += n_machines;
                site_entries.push((
                    (svc.id.0, cluster.0),
                    ServiceSite {
                        service: svc.id,
                        cluster,
                        load,
                        machines,
                        machine_offsets,
                        queue,
                        noise_slot,
                        machine_noise_slot,
                    },
                ));
            }
        }
        let sites = DensePairMap::build(
            catalog.num_services(),
            topology.num_clusters(),
            site_entries,
        );

        // Precompute the latency-aware cluster-choice weights: the
        // softmax over negative RTT is time-invariant, so the per-call
        // work reduces to one row scan. A probe network supplies the
        // same `rtt_estimate` the per-call path used.
        let probe_net = Network::new(topology.clone(), config.network(), seed);
        let n_clusters = topology.num_clusters();
        let mut placement = Vec::with_capacity(catalog.num_services());
        for svc in catalog.services() {
            let mut deployed_mask = 0u64;
            for c in &svc.clusters {
                assert!(
                    (c.0 as usize) < 64,
                    "cluster id {} exceeds the deployment mask width",
                    c.0
                );
                deployed_mask |= 1u64 << c.0;
            }
            let n = svc.clusters.len();
            let mut weights = Vec::with_capacity(n_clusters * n);
            let mut totals = Vec::with_capacity(n_clusters);
            for client in 0..n_clusters {
                let client = ClusterId(client as u16);
                let row_start = weights.len();
                for &c in &svc.clusters {
                    let rtt_ms = probe_net.rtt_estimate(client, c).as_millis_f64();
                    weights.push((-rtt_ms / 1.0).exp().max(1e-12));
                }
                totals.push(weights[row_start..].iter().sum());
            }
            placement.push(SvcPlacement {
                deployed_mask,
                weights,
                totals,
            });
        }

        let client_profiles = topology
            .cluster_ids()
            .iter()
            .map(|c| ExogenousProfile {
                base_util: 0.3 + 0.3 * ((c.0 as f64 * 0.37).sin().abs()),
                ..ExogenousProfile::shared(seed ^ (c.0 as u64) << 17)
            })
            .collect();

        // Per-family deadline bands: a Storage read and a BigQuery scan
        // should not share one global log-uniform budget draw. Each
        // method's band comes from its *own* compute quantiles — callers
        // budget a multiple of the typical (q50) latency at the floor
        // and of the tail (q99) at the ceiling — with the multiplier
        // pair set by the owning service's category (latency-sensitive
        // callers budget tightest, compute-intensive loosest). Still
        // exactly one rng draw per root.
        let deadline_bands = config
            .faults
            .deadlines
            .filter(|ds| ds.per_family)
            .map(|ds| {
                let floor = ds.min_budget.as_secs_f64();
                let ceil = ds.max_budget.as_secs_f64().max(floor);
                catalog
                    .methods()
                    .iter()
                    .map(|m| {
                        let (lo_mult, hi_mult) = match catalog.service(m.service).category {
                            ServiceCategory::Storage => (100.0, 5_000.0),
                            ServiceCategory::ComputeIntensive => (50.0, 10_000.0),
                            ServiceCategory::LatencySensitive => (30.0, 1_000.0),
                            ServiceCategory::Frontend => (100.0, 8_000.0),
                            ServiceCategory::Infra => (100.0, 5_000.0),
                        };
                        let lo = (m.compute.quantile(0.5) * lo_mult).clamp(floor, ceil);
                        let hi = (m.compute.quantile(0.99) * hi_mult).clamp(lo, ceil);
                        (lo, hi / lo)
                    })
                    .collect()
            });

        Driver {
            errors: config.faults.error_profile(),
            config,
            catalog,
            topology,
            cost,
            soft_queue: SoftQueue::default(),
            sites,
            placement,
            client_profiles,
            deadline_bands,
            master_rng,
        }
    }

    /// The site of a deployed (service, cluster) pair.
    #[inline]
    fn site(&self, service: ServiceId, cluster: ClusterId) -> &ServiceSite {
        self.sites
            .get(service.0, cluster.0)
            .expect("call placed on an undeployed site")
    }

    /// Latency-aware cluster choice: stay local when deployed locally and
    /// the data is local; otherwise prefer the nearest deployed cluster.
    ///
    /// Reads only precomputed state (deployment mask, softmax weight
    /// rows); draw-for-draw identical to computing the weights inline.
    fn choose_cluster(
        &self,
        service: &ServiceSpec,
        client: ClusterId,
        rng: &mut Prng,
    ) -> ClusterId {
        let deployed = &service.clusters;
        let placement = &self.placement[service.id.0 as usize];
        let local = placement.deployed_mask >> client.0 & 1 == 1;
        if local && !rng.chance(service.remote_call_prob) {
            return client;
        }
        // A fraction of locality misses land wherever the data lives,
        // however far (Fig. 19's intercontinental clients).
        if rng.chance(service.data_miss_prob) {
            return deployed[rng.index(deployed.len())];
        }
        // Softmax over negative RTT (the production balancer's
        // latency-aware behaviour): strongly prefers nearby clusters.
        let n = deployed.len();
        let row = &placement.weights[client.0 as usize * n..client.0 as usize * n + n];
        let total = placement.totals[client.0 as usize];
        let mut u = rng.next_f64() * total;
        for (i, w) in row.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                return deployed[i];
            }
        }
        *deployed.last().expect("non-empty deployment")
    }

    /// The run's root RPCs, in arrival order.
    fn roots(&self) -> Vec<RootArrival> {
        let scale = &self.config.scale;
        Workload::new(
            &self.catalog,
            &self.topology,
            scale.duration,
            scale.seed ^ 0xAB,
        )
        .generate(scale.roots)
    }

    fn run(self) -> FleetRun {
        let scale = self.config.scale.clone();
        let mut phases = PhaseTimings::new();
        // Roots are generated once, on the main thread, in arrival order;
        // shards receive contiguous chunks of this one sequence so that a
        // shard-ordered merge reproduces the sequential run exactly.
        let roots = phases.time("generate", || self.roots());
        let collector = TraceCollector::new(scale.trace_sample_rate);
        let requested_shards = self.config.shards.clamp(1, roots.len().max(1));
        let chunk = roots.len().div_ceil(requested_shards).max(1);
        // Effective shard count: the number of non-empty root chunks.
        // Only degenerate configs (more shards than roots per chunk
        // rounding can fill) make this smaller than requested.
        let shards = roots.len().div_ceil(chunk).max(1);
        let threads = self.config.threads.clamp(1, shards);

        // Workers claim shard ids from a shared counter and stream each
        // completed shard into an order-restoring fold (`crate::pool`):
        // the accumulator absorbs shard i only after shards 0..i, so the
        // merged result is bit-identical to the sequential run at any
        // thread count — every accumulator either commutes (integer
        // counters, histograms) or is order-sensitive but folded over
        // contiguous partitions in sequence order (the trace store).
        // Folding eagerly also bounds memory: at most ~`threads` shard
        // accumulators are resident at once, not `shards` of them.
        let simulate_start = Instant::now();
        let reports: StdMutex<Vec<ShardReport>> = StdMutex::new(Vec::with_capacity(shards));
        let merge_ms = StdMutex::new(0.0f64);
        let merged = pool::run_shards(
            shards,
            threads,
            |id| {
                let shard_start = Instant::now();
                let mut shard = Shard::new(&self);
                let lo = id * chunk;
                let hi = (lo + chunk).min(roots.len());
                shard.run_roots(&roots[lo..hi], lo, &collector);
                {
                    let mut done = reports.lock().expect("report lock");
                    done.push(ShardReport {
                        shard: id,
                        roots: shard.counters.roots,
                        spans: shard.counters.spans,
                        wall_ms: shard_start.elapsed().as_secs_f64() * 1e3,
                    });
                    // Progress is stderr-only and computed under the
                    // report lock, so lines never interleave; it has no
                    // effect on any artifact or digest.
                    if self.config.progress {
                        let total_roots: u64 = done.iter().map(|r| r.roots).sum();
                        let total_spans: u64 = done.iter().map(|r| r.spans).sum();
                        let elapsed = simulate_start.elapsed().as_secs_f64().max(1e-9);
                        eprintln!(
                            "progress: shard {}/{} done in {:.0} ms | {}/{} roots \
                             ({:.0}/s) | {} spans ({:.0}/s) | {:.1} s elapsed",
                            done.len(),
                            shards,
                            done.last().expect("just pushed").wall_ms,
                            total_roots,
                            roots.len(),
                            total_roots as f64 / elapsed,
                            total_spans,
                            total_spans as f64 / elapsed,
                            elapsed,
                        );
                    }
                }
                shard
            },
            |acc, next| {
                let merge_start = Instant::now();
                acc.absorb(next);
                *merge_ms.lock().expect("merge-time lock") +=
                    merge_start.elapsed().as_secs_f64() * 1e3;
            },
        );
        phases.record("simulate", simulate_start.elapsed().as_secs_f64() * 1e3);
        phases.record("merge", merge_ms.into_inner().expect("merge-time lock"));
        let mut per_shard = reports.into_inner().expect("report lock");
        per_shard.sort_by_key(|r| r.shard);

        let Shard {
            store,
            profiler,
            errors,
            method_calls,
            method_bytes,
            windows,
            counters,
            ..
        } = merged;

        // Write the merged window rows out as cumulative counter lanes:
        // the Monarch idiom the SLO detectors read back per window.
        let tsdb_start = Instant::now();
        let period = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD;
        let mut tsdb = TimeSeriesDb::new(period);
        for (name, field) in WINDOW_LANES {
            let mut reading = 0;
            for row in &windows {
                reading += field(row);
                let at = SimTime::from_nanos(row.window * period.as_nanos());
                tsdb.write(name, at, reading);
            }
        }
        phases.record("tsdb", tsdb_start.elapsed().as_secs_f64() * 1e3);

        let telemetry = RunTelemetry {
            counters,
            per_shard,
            phases,
            shards_used: shards,
            threads_used: threads,
        };

        FleetRun {
            catalog: self.catalog,
            topology: self.topology,
            store,
            profiler,
            errors,
            tsdb,
            method_calls,
            method_bytes,
            sites: self.sites,
            total_spans: telemetry.counters.spans,
            telemetry,
            config: self.config,
        }
    }
}

/// One simulation shard: the mutable half of the driver.
///
/// A shard owns every piece of state that root expansion writes — its own
/// [`Network`] (whose congestion trajectories are seed-derived and hence
/// identical in every shard), trace store, profilers, and counters — plus
/// a shared reference to the immutable [`Driver`] world. Shards never
/// communicate while running; their outputs are folded in shard-id order
/// by [`Shard::absorb`].
struct Shard<'a> {
    world: &'a Driver,
    network: Network,
    store: TraceStore,
    profiler: CycleProfiler,
    errors: ErrorAccounting,
    method_calls: Vec<u64>,
    method_bytes: Vec<u64>,
    /// One counter row per root window, window-ascending: every span,
    /// error, congested wire traversal and retry of a root counts in the
    /// root's window.
    windows: Vec<WindowSample>,
    /// The fault plane: seed-derived fault and incident trajectories and
    /// the controller timeline, identical in every shard (controllers
    /// never read shard-local counters).
    env: Environment,
    /// Exogenous noise-edge caches, one per site (its load's utilization
    /// stream) and one per machine (all four streams), at the slots
    /// `Driver::new` assigned, and one per client cluster (its ambient
    /// load). Successive reads of one profile mostly land in the same
    /// 5-minute noise bucket, so its hashed edge noise is drawn once per
    /// bucket rather than once per read. Sized by the world, never by
    /// simulated time.
    site_noise: Vec<NoiseEdges<1>>,
    machine_noise: Vec<NoiseEdges<4>>,
    client_noise: Vec<NoiseEdges<1>>,
    /// Reusable span buffer: every trace expands into this arena, so tree
    /// expansion reuses capacity across roots. Sampled traces copy the
    /// exact-length spans out; unsampled traces cost no allocation.
    arena: Vec<SpanRecord>,
    /// Deterministic self-telemetry counters.
    counters: ShardCounters,
}

impl<'a> Shard<'a> {
    fn new(world: &'a Driver) -> Self {
        let n_methods = world.catalog.num_methods();
        Shard {
            world,
            network: Network::new(
                world.topology.clone(),
                world.config.network(),
                world.config.scale.seed,
            ),
            store: TraceStore::new(),
            profiler: CycleProfiler::new()
                .with_per_method_cap(world.config.scale.profiler_sample_cap),
            errors: ErrorAccounting::new(),
            method_calls: vec![0; n_methods],
            method_bytes: vec![0; n_methods],
            windows: Vec::new(),
            env: Environment::new(
                &world.config.faults,
                world.config.scale.seed,
                &world.topology,
            ),
            site_noise: vec![NoiseEdges::default(); world.sites.len()],
            machine_noise: vec![
                NoiseEdges::default();
                world.sites.values().map(|s| s.machines.len()).sum()
            ],
            client_noise: vec![NoiseEdges::default(); world.client_profiles.len()],
            arena: Vec::new(),
            counters: ShardCounters::new(),
        }
    }

    /// Expands a contiguous chunk of roots whose global sequence numbers
    /// start at `base_seq`.
    ///
    /// Each trace draws from `master_rng.substream(seq)` with its *global*
    /// sequence number, and the sampling decision also uses `seq`, so a
    /// root produces exactly the same spans no matter which shard runs it.
    fn run_roots(&mut self, roots: &[RootArrival], base_seq: usize, collector: &TraceCollector) {
        let window = rpclens_tsdb::DEFAULT_SAMPLE_PERIOD;
        // Root-deadline constants, hoisted out of the per-root loop: the
        // budget bounds are scenario state, so `lo` and the `hi / lo`
        // ratio are invariant across roots — the same f64s the per-root
        // computation produced, leaving one draw and one `powf` per root.
        let deadline_consts = self.world.config.faults.deadlines.map(|ds| {
            let lo = ds.min_budget.as_secs_f64();
            let hi = ds.max_budget.as_secs_f64().max(lo);
            (lo, hi / lo)
        });
        for (i, root) in roots.iter().enumerate() {
            let seq = base_seq + i;
            // Expand into the shard's reusable arena: capacity carries
            // over from previous traces, so the steady state allocates
            // nothing during tree expansion.
            let mut ctx = TraceCtx {
                spans: std::mem::take(&mut self.arena),
                root_start: root.at,
                budget: MAX_TRACE_SPANS,
                rng: self.world.master_rng.substream(seq as u64),
                seq: seq as u64,
                errors: 0,
                congested_wire: 0,
                retry_budget: self
                    .world
                    .config
                    .faults
                    .retry
                    .filter(|_| self.world.config.retry_budget_enabled)
                    .map(|rs| RetryBudget::new(rs.budget_ratio, rs.budget_cap)),
                retries: 0,
            };
            // Root deadline: log-uniform between the budget bounds —
            // the scenario-wide bounds in global mode (spanning
            // interactive to batch callers), the root method's own
            // family band in `per_family` mode. Drawn only when the
            // scenario has deadlines, so `none` adds no draws; either
            // mode costs exactly one draw per root.
            let deadline = match &self.world.deadline_bands {
                Some(bands) => {
                    let (lo, ratio) = bands[root.method.0 as usize];
                    let budget = lo * ratio.powf(ctx.rng.next_f64());
                    Some(Deadline::after(root.at, SimDuration::from_secs_f64(budget)))
                }
                None => deadline_consts.map(|(lo, ratio)| {
                    let budget = lo * ratio.powf(ctx.rng.next_f64());
                    Deadline::after(root.at, SimDuration::from_secs_f64(budget))
                }),
            };
            let cluster = root.client_cluster.0 as usize;
            let client_util = self.world.client_profiles[cluster]
                .cpu_util_with(root.at, &mut self.client_noise[cluster]);
            let entry_service = self.world.catalog.method(root.method).service;
            let finish = self.place_call(
                &mut ctx,
                Call {
                    method: root.method,
                    client_service: entry_service,
                    client_cluster: root.client_cluster,
                    client_util,
                    parent: ROOT_PARENT,
                    start: root.at,
                    depth: 0,
                    detached: false,
                    deadline,
                    avoid: None,
                },
            );
            self.counters.roots += 1;
            self.counters
                .root_latency_us
                .record(finish.since(root.at).as_nanos() / 1_000);
            // Window accounting for every span, sampled or not: all of a
            // root's counts land in the *root's* window.
            add_to_window(
                &mut self.windows,
                WindowSample {
                    window: root.at.as_nanos() / window.as_nanos(),
                    rpcs: ctx.spans.len() as u64,
                    errors: ctx.errors,
                    congested_wire: ctx.congested_wire,
                    retries: ctx.retries,
                },
            );
            // Retention: sampling decides whether the spans are *kept*,
            // never whether they are simulated. A sampled trace copies
            // the exact-length span list out of the arena.
            let mut spans = std::mem::take(&mut ctx.spans);
            if collector.should_sample(seq as u64) && !spans.is_empty() {
                self.counters.traces_sampled += 1;
                self.store.add(TraceData::new(root.at, spans.clone()));
            }
            spans.clear();
            self.arena = spans;
        }
    }

    /// Folds `other` (the next shard in id order) into this one.
    fn absorb(&mut self, other: Shard<'_>) {
        self.store.merge(other.store);
        self.profiler.merge(other.profiler);
        self.errors.merge(&other.errors);
        for (a, b) in self.method_calls.iter_mut().zip(&other.method_calls) {
            *a += b;
        }
        for (a, b) in self.method_bytes.iter_mut().zip(&other.method_bytes) {
            *a += b;
        }
        // Adjacent shards can share one boundary window; it sums.
        for row in other.windows {
            add_to_window(&mut self.windows, row);
        }
        self.counters.absorb(&other.counters);
    }

    /// Places a call: runs one attempt (primary + optional hedge) and,
    /// when the scenario retries, wraps it in the client resilience loop
    /// — jittered exponential backoff gated by the per-trace
    /// [`RetryBudget`], with load-balancer failover away from the failed
    /// placement. Returns the caller-observed finish (the final attempt's;
    /// earlier failed attempts and backoff waits all precede it in
    /// simulated time).
    fn place_call(&mut self, ctx: &mut TraceCtx, call: Call) -> SimTime {
        let retry_spec = self.world.config.faults.retry;
        let mut attempt_call = call;
        let mut attempt = 0u32;
        loop {
            let res = self.place_attempt(ctx, attempt_call);
            // No retry configuration: the attempt is the call.
            let Some(spec) = retry_spec else {
                return res.finish;
            };
            let Some(err) = res.error else {
                // Success earns the trace's budget a fractional token.
                if let Some(budget) = ctx.retry_budget.as_mut() {
                    budget.on_success();
                }
                return res.finish;
            };
            if !BackoffPolicy::retryable(err) {
                return res.finish;
            }
            let next_attempt = attempt + 1;
            if next_attempt > spec.backoff.max_attempts {
                return res.finish;
            }
            // The token bucket is what stops a retry storm: once failures
            // outpace `ratio` x successes, further retries are denied.
            if let Some(budget) = ctx.retry_budget.as_mut() {
                if !budget.try_spend() {
                    self.counters.resilience.retries_denied += 1;
                    return res.finish;
                }
            }
            let delay = spec
                .backoff
                .delay(next_attempt, &mut ctx.rng)
                .unwrap_or(SimDuration::ZERO);
            let retry_start = res.finish + delay;
            // A retry that would start past the deadline is pointless.
            if let Some(d) = call.deadline {
                if d.expired(retry_start) {
                    return res.finish;
                }
            }
            self.counters.resilience.retries_issued += 1;
            ctx.retries += 1;
            attempt_call = Call {
                start: retry_start,
                avoid: res.server.map(|(cluster, machine)| Avoid {
                    cluster,
                    machine,
                    cluster_level: res.cluster_level,
                }),
                ..call
            };
            attempt = next_attempt;
        }
    }

    /// One attempt of a call, wrapping `simulate_call` with hedging for
    /// eligible leaf methods. Reports the winner's finish, error and
    /// placement so the retry loop can back off and fail over.
    fn place_attempt(&mut self, ctx: &mut TraceCtx, call: Call) -> SimResult {
        let hedge = self.world.catalog.method(call.method).hedge;
        let primary = self.simulate_call(ctx, call);
        let Some(primary_idx) = primary.span else {
            return primary;
        };
        if !hedge.enabled || !self.world.config.hedging_enabled {
            return primary;
        }
        let primary_latency = primary.finish.since(call.start);
        let Some(delay) = hedge.decide(primary_latency, &mut ctx.rng) else {
            return primary;
        };
        // Issue the hedge copy after `delay`.
        self.counters.hedges_issued += 1;
        let hedge_start = call.start + delay;
        let hedged = self.simulate_call(
            ctx,
            Call {
                start: hedge_start,
                ..call
            },
        );
        let Some(hedge_idx) = hedged.span else {
            return primary;
        };
        let hedge_latency = hedged.finish.since(hedge_start);
        let resolution = resolve_hedge(primary_latency, hedge_latency, delay);
        let (loser_idx, winner) = if resolution.hedge_won {
            (primary_idx, hedged)
        } else {
            (hedge_idx, primary)
        };
        // Cancel the loser: mark its span, charge the cycles its *whole
        // subtree* performed before the cancellation (the replication
        // fan-out a cancelled Write already triggered is wasted too —
        // this is what makes cancellations cost more cycles per error
        // than any other class, Fig. 23).
        let loser = &mut ctx.spans[loser_idx as usize];
        loser.error = Some(ErrorKind::Cancelled);
        loser.hedged = true;
        ctx.spans[hedge_idx as usize].hedged = true;
        // Depth-first expansion makes the loser's subtree a contiguous
        // index range: it ends at the first span whose parent precedes
        // the loser (or at another root, for hedged root calls).
        let subtree_start = loser_idx as usize;
        let mut wasted_kilocycles = ctx.spans[subtree_start].kilocycles as u64;
        for span in &ctx.spans[subtree_start + 1..] {
            if span.is_root() || (span.parent as usize) < subtree_start {
                break;
            }
            wasted_kilocycles += span.kilocycles as u64;
        }
        let work_fraction =
            rpclens_rpcstack::error::ErrorProfile::work_fraction(ErrorKind::Cancelled);
        let wasted = (wasted_kilocycles as f64 * 1000.0 * work_fraction) as u64;
        self.errors.record_error(ErrorKind::Cancelled, wasted);
        SimResult {
            finish: call.start + resolution.winner_latency,
            ..winner
        }
    }

    /// Simulates one call (and its subtree). Reports the finish, span
    /// index (`None` if the span budget was exhausted), final error, and
    /// placement.
    fn simulate_call(&mut self, ctx: &mut TraceCtx, call: Call) -> SimResult {
        let Call {
            method,
            client_service,
            client_cluster,
            client_util,
            parent,
            start,
            depth,
            detached,
            deadline,
            avoid,
        } = call;
        if ctx.budget == 0 {
            return SimResult {
                finish: start,
                span: None,
                error: None,
                server: None,
                cluster_level: false,
            };
        }
        ctx.budget -= 1;
        self.counters.spans += 1;
        self.counters.max_depth = self.counters.max_depth.max(u64::from(depth));

        // Borrow the immutable world through its own lifetime so the
        // method, service, edge-slice and site borrows stay live across the
        // `&mut self` recursion below — no clones needed anywhere.
        let world = self.world;
        let spec = world.catalog.method(method);
        let service = world.catalog.service(spec.service);
        self.method_calls[method.0 as usize] += 1;

        // Reserve the span slot so parents precede children.
        let span_idx = ctx.spans.len() as u32;
        ctx.spans
            .push(SpanBuilder::new(method, spec.service, client_cluster, client_cluster).build());

        let mut t = start;
        let mut breakdown = LatencyBreakdown::new();

        // 1. Client send queue.
        let csq = world.soft_queue.delay(client_util, &mut ctx.rng);
        breakdown.set(LatencyComponent::ClientSendQueue, csq);
        t += csq;

        // 2. Request stack processing (client serialize + server parse,
        // pipelined).
        let class = service.class;
        let req_bytes = spec.sample_request_bytes(&mut ctx.rng);
        // Each message's sender and receiver costs are computed once and
        // feed its stack latency, the server charge and the client charge.
        let req_send = world.cost.sender_cost(req_bytes, class);
        let req_recv = world.cost.receiver_cost(req_bytes, class);
        let req_proc = world.cost.stack_latency_of(&req_send, &req_recv, 1.0);
        breakdown.set(LatencyComponent::RequestProcessing, req_proc);
        t += req_proc;

        // 3. Server placement: cluster (latency-aware) then machine. A
        // retry steers away from the failed placement (load-balancer
        // failover); `avoid` is only ever `Some` when a retry scenario is
        // active, so the fault-free draw sequence is unchanged.
        let deployed = &service.clusters;
        let mut server_cluster = world.choose_cluster(service, client_cluster, &mut ctx.rng);
        if let Some(av) = avoid {
            if av.cluster_level && deployed.len() > 1 {
                if let Some(pos) = deployed.iter().position(|&c| c == av.cluster) {
                    server_cluster = deployed[index_except(&mut ctx.rng, deployed.len(), pos)];
                    self.counters.resilience.failovers += 1;
                }
            }
        }
        // Load-balancer weight shift: when the weight-shift controller
        // flagged the chosen path as degraded at this window's boundary,
        // the client re-picks among the remaining deployments — the same
        // `Avoid` failover path a retry takes, but *before* the request is
        // ever sent. Only an active controller draws, so scenarios
        // without one keep their draw sequence.
        if deployed.len() > 1
            && self
                .env
                .path_degraded(&world.topology, client_cluster, server_cluster, t)
        {
            if let Some(pos) = deployed.iter().position(|&c| c == server_cluster) {
                server_cluster = deployed[index_except(&mut ctx.rng, deployed.len(), pos)];
                self.counters.control.lb_shifts += 1;
            }
        }
        let site = world.site(spec.service, server_cluster);
        let mut mi = ctx.rng.index(site.machines.len());
        if let Some(av) = avoid {
            if !av.cluster_level
                && server_cluster == av.cluster
                && av.machine < site.machines.len()
                && site.machines.len() > 1
            {
                mi = index_except(&mut ctx.rng, site.machines.len(), av.machine);
                self.counters.resilience.failovers += 1;
            }
        }

        // 3b. Environment: a WAN blackout on the path, a drained cluster,
        // or a crashed machine makes the target `Unavailable` — the
        // request is sent and bounces with the transport-level error. A
        // brownout instead adds excess latency to both wire crossings,
        // and an overload surge inflates the pool's utilization below.
        let env = self.env.conditions(
            &world.topology,
            client_cluster,
            server_cluster,
            spec.service,
            mi,
            t,
        );
        let mut cluster_level = env.unavailable == Some(Unavailable::Cluster);

        // 4. Request network wire.
        let wire_req = world.cost.wire_bytes(req_bytes, class.compressed);
        let (req_net, req_congested) = self.network.one_way_latency_observed(
            client_cluster,
            server_cluster,
            wire_req,
            t,
            &mut ctx.rng,
        );
        self.counters.wire.record(req_congested);
        ctx.congested_wire += u64::from(req_congested);
        let req_net = req_net + env.brownout;
        breakdown.set(LatencyComponent::RequestNetworkWire, req_net);
        t += req_net;

        // 5. Server receive queue: scheduler wakeup + M/G/k wait at the
        // machine's current utilization.
        let machine = &site.machines[mi];
        let util = site.machine_util_with(mi, t, &mut self.site_noise[site.noise_slot]);
        // One profile sample feeds both wakeup and slowdown (the old
        // path sampled the same (profile, t) twice).
        let machine_vars =
            machine.exogenous_with(t, &mut self.machine_noise[site.machine_noise_slot + mi]);
        let wakeup = machine.wakeup_latency_from(&machine_vars, &mut ctx.rng);
        let slowdown = machine.slowdown_from(&machine_vars);
        let speed = machine.config().speed;
        // Reserved-core pools are isolated from the machine's ambient
        // load; only a residual coupling remains.
        let reserved = service.reserved_cores && world.config.reserved_cores_enabled;
        let mut pool_util = if reserved { util * 0.25 } else { util };
        // An overload surge inflates the pool's ambient utilization,
        // clamped below saturation so the M/G/k wait stays finite. A
        // bounded admission queue enforces its own, tighter utilization
        // cap — the queue refuses to fill past it.
        if let Some(factor) = env.overload {
            let cap = env.admission.map_or(0.98, |a| a.util_cap);
            pool_util = (pool_util * factor).min(cap);
        }
        let queue_wait =
            site.queue
                .sample_wait_observed(pool_util, &mut ctx.rng, &mut self.counters.queue);
        // Ambient load shedding: while surging, waits past the shed
        // threshold are rejected with `NoResource` instead of being
        // served. An explicit admission queue supersedes this rule — its
        // verdict (admit/shed/abandon) is applied at injection below.
        let shed = env.shed_wait.is_some_and(|w| queue_wait > w);
        let srq = wakeup + queue_wait;
        breakdown.set(LatencyComponent::ServerRecvQueue, srq);
        t += srq;
        let handler_start = t;

        // 6. Error injection. Causal errors (unreachable or shedding
        // targets) pre-empt the residual statistical draw; hedging
        // cancellations come from place_attempt. An active admission
        // queue turns the ambient shed rule into explicit verdicts:
        // waits past the shed bound are refused (`NoResource`), waits
        // past the caller's patience are abandoned (`Aborted`), and
        // admitted + shed + abandoned always equals offered.
        let injected = if env.unavailable.is_some() {
            self.counters.resilience.causal_unavailable += 1;
            Some(ErrorKind::Unavailable)
        } else if let Some(spec) = env.admission {
            self.counters.control.admission_offered += 1;
            match admission_verdict(&spec, queue_wait) {
                AdmissionVerdict::Admitted => world.errors.draw(&mut ctx.rng),
                AdmissionVerdict::Shed => {
                    self.counters.control.admission_shed += 1;
                    self.counters.resilience.load_sheds += 1;
                    cluster_level = true;
                    Some(ErrorKind::NoResource)
                }
                AdmissionVerdict::Abandoned => {
                    self.counters.control.admission_abandoned += 1;
                    Some(ErrorKind::Aborted)
                }
            }
        } else if shed {
            self.counters.resilience.load_sheds += 1;
            cluster_level = true;
            Some(ErrorKind::NoResource)
        } else {
            world.errors.draw(&mut ctx.rng)
        };
        if injected.is_some() {
            ctx.errors += 1;
        }

        // 7. Handler compute.
        let (nominal, fast) = spec.sample_compute(&mut ctx.rng);
        let nominal = match injected {
            Some(kind) => nominal.mul_f64(ErrorProfile::work_fraction(kind)),
            None => nominal,
        };
        let compute_wall = nominal.mul_f64(slowdown / speed);
        t += compute_wall;

        // 8. Children: parallel fan-out per firing edge; the handler waits
        // for the slowest child (partition/aggregate). The edge slice
        // lives in the catalog's shared CSR table, so recursion borrows
        // it instead of cloning a `Vec` per span.
        let mut children_end = t;
        // Deadline propagation: children inherit the remaining budget
        // minus the hop margin; when the remainder dips below the policy
        // floor the handler fails fast and skips the fan-out entirely.
        let mut skip_children = false;
        let mut child_deadline = None;
        if let (Some(d), Some(ds)) = (deadline, world.config.faults.deadlines) {
            match ds.policy.child(d, t) {
                Some(cd) => child_deadline = Some(cd),
                None => skip_children = true,
            }
        }
        if injected.is_none() && !fast && !skip_children && depth < MAX_DEPTH {
            for edge in world.catalog.edges(method) {
                if !ctx.rng.chance(edge.prob) {
                    continue;
                }
                let k = edge.fanout.sample(&mut ctx.rng);
                for _ in 0..k {
                    if ctx.budget == 0 {
                        break;
                    }
                    let child_finish = self.place_call(
                        ctx,
                        Call {
                            method: edge.target,
                            client_service: spec.service,
                            client_cluster: server_cluster,
                            client_util: util,
                            parent: span_idx,
                            start: t,
                            depth: depth + 1,
                            detached: !edge.blocking,
                            deadline: child_deadline,
                            avoid: None,
                        },
                    );
                    // Fire-and-forget edges do not extend the parent.
                    if edge.blocking {
                        children_end = children_end.max(child_finish);
                    }
                }
            }
        }
        let app = children_end.since(handler_start);
        breakdown.set(LatencyComponent::ServerApplication, app);
        let mut t = children_end;

        // 9. Response path.
        let resp_bytes = spec.sample_response_bytes(&mut ctx.rng);
        // Reserved-core services run dedicated network threads, so their
        // send queues do not track the machine's overall utilization.
        let send_util = if reserved { util * 0.3 } else { util };
        let ssq = world.soft_queue.delay(send_util, &mut ctx.rng);
        breakdown.set(LatencyComponent::ServerSendQueue, ssq);
        t += ssq;
        let resp_send = world.cost.sender_cost(resp_bytes, class);
        let resp_recv = world.cost.receiver_cost(resp_bytes, class);
        let resp_proc = world
            .cost
            .stack_latency_of(&resp_send, &resp_recv, slowdown);
        breakdown.set(LatencyComponent::ResponseProcessing, resp_proc);
        t += resp_proc;
        let wire_resp = world.cost.wire_bytes(resp_bytes, class.compressed);
        let (resp_net, resp_congested) = self.network.one_way_latency_observed(
            server_cluster,
            client_cluster,
            wire_resp,
            t,
            &mut ctx.rng,
        );
        self.counters.wire.record(resp_congested);
        ctx.congested_wire += u64::from(resp_congested);
        let resp_net = resp_net + env.brownout;
        breakdown.set(LatencyComponent::ResponseNetworkWire, resp_net);
        t += resp_net;
        let crq = world.soft_queue.delay(client_util, &mut ctx.rng);
        breakdown.set(LatencyComponent::ClientRecvQueue, crq);
        t += crq;

        // 9b. Deadline check: the client observes the response only after
        // its deadline fired — the work was all done (and is charged in
        // full below, `work_fraction(DeadlineExceeded) = 1.0`), but the
        // caller sees `DeadlineExceeded`. Causal errors keep precedence.
        let injected = match (injected, deadline) {
            (None, Some(d)) if d.expired(t) => {
                self.counters.resilience.deadline_exceeded += 1;
                ctx.errors += 1;
                Some(ErrorKind::DeadlineExceeded)
            }
            (injected, _) => injected,
        };

        // 10. Cycle accounting: the server burns its application cycles
        // (nominal compute normalized across CPU generations) plus the
        // receive side of the request and the send side of the response;
        // the *client's service* burns the mirror-image stack cycles.
        // This split is why storage services move most of the fleet's
        // bytes yet burn few of its cycles (Fig. 8).
        let mut cost = CycleCost::new();
        let cpu_secs = spec.cpu_work.sample(&mut ctx.rng)
            * match injected {
                Some(kind) => ErrorProfile::work_fraction(kind),
                None => 1.0,
            };
        cost.add(
            CycleCategory::Application,
            (cpu_secs * world.cost.config().clock_hz) as u64,
        );
        cost.merge(&req_recv);
        cost.merge(&resp_send);
        self.profiler.record(
            spec.service.0,
            method.0,
            &cost,
            speed,
            rpclens_profiler::sample_tag(ctx.seq, span_idx),
        );
        let mut client_cost = req_send;
        client_cost.merge(&resp_recv);
        self.profiler
            .record_client_side(client_service.0, &client_cost);
        self.method_bytes[method.0 as usize] += req_bytes + resp_bytes;

        // 11. Error accounting.
        self.errors.record_rpc();
        if let Some(kind) = injected {
            self.errors.record_error(kind, cost.total());
        }

        // 12. Finalize the span record.
        let mut builder = SpanBuilder::new(method, spec.service, client_cluster, server_cluster)
            .parent(parent)
            .start_offset(start.since(ctx.root_start))
            .breakdown(breakdown)
            .sizes(req_bytes, resp_bytes)
            .cycles(cost.total())
            .detached(detached);
        if let Some(kind) = injected {
            builder = builder.error(kind);
        }
        ctx.spans[span_idx as usize] = builder.build();

        SimResult {
            finish: t,
            span: Some(span_idx),
            error: injected,
            server: Some((server_cluster, mi)),
            cluster_level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::stats::{percentile, sorted_finite};
    use rpclens_trace::query::MethodQuery;
    use std::collections::HashMap;

    fn tiny_run() -> FleetRun {
        let scale = SimScale {
            name: "test",
            total_methods: 320,
            roots: 6_000,
            duration: SimDuration::from_hours(24),
            trace_sample_rate: 1,
            profiler_sample_cap: 10_000,
            seed: 11,
        };
        run_fleet(FleetConfig::at_scale(scale))
    }

    /// What a one-shard run at smoke's root rate holds after `days`
    /// simulated days: the site and machine noise-cache lengths, the
    /// per-method reservoir lengths by method id and the window-row
    /// count.
    fn resident_after_days(days: u64, cap: usize) -> (usize, usize, HashMap<u32, usize>, usize) {
        let smoke = SimScale::smoke();
        let mut config = FleetConfig::at_scale(SimScale {
            roots: smoke.roots * days,
            duration: SimDuration::from_hours(24 * days),
            profiler_sample_cap: cap,
            ..smoke
        });
        config.shards = 1;
        config.threads = 1;
        let driver = Driver::new(config);
        let roots = driver.roots();
        let mut shard = Shard::new(&driver);
        shard.run_roots(&roots, 0, &TraceCollector::new(1));
        let reservoirs = shard
            .profiler
            .methods_with_samples(1)
            .into_iter()
            .map(|m| (m, shard.profiler.method_samples(m).len()))
            .collect();
        (
            shard.site_noise.len(),
            shard.machine_noise.len(),
            reservoirs,
            shard.windows.len(),
        )
    }

    #[test]
    fn per_run_structures_do_not_grow_with_simulated_time() {
        // A cap many of smoke's sampled methods fill within a day.
        let cap = 16;
        let (sites, machines, reservoirs, windows) = resident_after_days(1, cap);
        let (sites4, machines4, reservoirs4, windows4) = resident_after_days(4, cap);
        // The noise caches are sized by the world.
        assert_eq!((sites4, machines4), (sites, machines));
        assert!(sites > 0 && machines > sites);
        // Reservoirs: at most one per catalog method, none past the cap,
        // and every reservoir a day filled is the same size four days in.
        for r in [&reservoirs, &reservoirs4] {
            assert!(r.len() <= SimScale::smoke().total_methods);
            assert!(r.values().all(|&n| n <= cap));
        }
        let full: Vec<u32> = reservoirs
            .iter()
            .filter(|&(_, &n)| n == cap)
            .map(|(&m, _)| m)
            .collect();
        assert!(full.len() > reservoirs.len() / 3, "too few reservoirs fill");
        for m in full {
            assert_eq!(reservoirs4[&m], cap, "method {m}");
        }
        // Window rows are the one structure that grows with time: one
        // per 30-minute window.
        assert_eq!(windows, 48);
        assert_eq!(windows4, 4 * windows);
    }

    #[test]
    fn run_produces_traces_and_counters() {
        let run = tiny_run();
        assert!(run.store.len() > 5_000, "{} traces", run.store.len());
        assert!(run.total_spans > 20_000, "{} spans", run.total_spans);
        assert_eq!(run.total_calls(), run.total_spans);
        assert!(run.profiler.total_cycles() > 0);
        assert!(run.errors.total_rpcs() == run.total_spans);
    }

    #[test]
    fn breakdown_components_are_all_exercised() {
        let run = tiny_run();
        let mut totals = [0u64; 9];
        for trace in run.store.traces() {
            for span in &trace.spans {
                for (i, c) in LatencyComponent::ALL.iter().enumerate() {
                    totals[i] += span.component(*c).as_nanos();
                }
            }
        }
        for (i, c) in LatencyComponent::ALL.iter().enumerate() {
            assert!(totals[i] > 0, "component {c:?} never non-zero");
        }
        // Application dominates in aggregate (the paper's 2% mean tax is
        // on completion time; here we just require dominance).
        let app = totals[4];
        let tax: u64 = totals.iter().sum::<u64>() - app;
        assert!(app > tax, "app {app} vs tax {tax}");
    }

    #[test]
    fn parents_wait_for_children() {
        let run = tiny_run();
        let mut checked = 0;
        for trace in run.store.traces() {
            for (i, span) in trace.spans.iter().enumerate().skip(1) {
                if span.is_root() {
                    // Hedge copies of a root call also carry ROOT_PARENT.
                    continue;
                }
                let parent = &trace.spans[span.parent as usize];
                // A child starts after its parent and finishes before the
                // parent's application phase can end.
                assert!(span.start_offset() >= parent.start_offset());
                let parent_end = parent.start_offset() + parent.total_latency();
                let child_end = span.start_offset() + span.total_latency();
                // Children may outlive the parent only when cancelled
                // (hedge loser) — their wall time no longer gates it.
                if span.error.is_none() && !span.detached {
                    assert!(
                        child_end.as_nanos() <= parent_end.as_nanos() + 1000,
                        "child {i} ends {child_end} after parent end {parent_end}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 1_000, "only {checked} child spans checked");
    }

    #[test]
    fn hedging_produces_cancellations() {
        let run = tiny_run();
        let cancelled = run
            .errors
            .kinds_by_count()
            .iter()
            .find(|(k, _)| *k == ErrorKind::Cancelled)
            .map(|(_, c)| *c)
            .unwrap_or(0);
        assert!(cancelled > 0, "no hedging cancellations at all");
        // And cancelled spans exist in the store, flagged hedged.
        let mut found = false;
        for t in run.store.traces() {
            for s in &t.spans {
                if s.error == Some(ErrorKind::Cancelled) {
                    assert!(s.hedged);
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn error_rate_is_in_band() {
        let run = tiny_run();
        let rate = run.errors.error_rate();
        // Paper: 1.9% total. Accept a generous band at tiny scale.
        assert!((0.005..0.05).contains(&rate), "error rate {rate}");
    }

    #[test]
    fn network_disk_is_most_popular_service() {
        let run = tiny_run();
        let mut by_service: HashMap<ServiceId, u64> = HashMap::new();
        for (m, &c) in run.method_calls.iter().enumerate() {
            let svc = run.catalog.method(MethodId(m as u32)).service;
            *by_service.entry(svc).or_insert(0) += c;
        }
        let (&top, _) = by_service.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_eq!(run.catalog.service(top).name, "NetworkDisk");
    }

    #[test]
    fn cross_cluster_calls_exist_and_are_slower() {
        let run = tiny_run();
        let mut local = Vec::new();
        let mut remote = Vec::new();
        for t in run.store.traces() {
            for s in &t.spans {
                if s.error.is_some() {
                    continue;
                }
                let net = s
                    .component(LatencyComponent::RequestNetworkWire)
                    .as_secs_f64();
                if s.client_cluster == s.server_cluster {
                    local.push(net);
                } else {
                    remote.push(net);
                }
            }
        }
        assert!(remote.len() > 50, "only {} remote calls", remote.len());
        let l = sorted_finite(local);
        let r = sorted_finite(remote);
        let lm = percentile(&l, 0.5).unwrap();
        let rm = percentile(&r, 0.5).unwrap();
        assert!(rm > lm * 3.0, "local {lm}, remote {rm}");
    }

    #[test]
    fn determinism_same_seed_same_run() {
        let a = tiny_run();
        let b = tiny_run();
        assert_eq!(a.total_spans, b.total_spans);
        assert_eq!(a.method_calls, b.method_calls);
        assert_eq!(a.store.len(), b.store.len());
        // Spot-check a trace's spans match exactly.
        let ta = &a.store.traces()[7];
        let tb = &b.store.traces()[7];
        assert_eq!(ta.spans, tb.spans);
    }

    #[test]
    fn tsdb_contains_service_counters() {
        let run = tiny_run();
        let rpcs = run.tsdb.series("driver/rpcs/count").expect("rpc lane");
        // 48 half-hour windows over the simulated day.
        assert!(rpcs.len() >= 40, "only {} windows", rpcs.len());
        assert!(rpcs.rate().iter().any(|(_, r)| *r > 0.0));
    }

    #[test]
    fn per_method_latency_is_wide() {
        // Within-method spread: P99/P1 must span orders of magnitude for
        // typical methods (Fig. 2).
        let run = tiny_run();
        let q = MethodQuery::default();
        let mut wide = 0;
        let mut total = 0;
        for (_, samples) in q.groups(&run.store, |_, s| s.total_latency().as_secs_f64()) {
            let sorted = sorted_finite(samples);
            let p01 = percentile(&sorted, 0.01).unwrap();
            let p99 = percentile(&sorted, 0.99).unwrap();
            total += 1;
            if p99 / p01.max(1e-9) > 10.0 {
                wide += 1;
            }
        }
        assert!(total >= 20, "only {total} eligible methods");
        assert!(
            wide as f64 / total as f64 > 0.7,
            "only {wide}/{total} methods have wide spread"
        );
    }
}
