//! The service/method catalog.
//!
//! The fleet runs ~30 named-or-filler services arranged in tiers:
//! frontends (tier 0) call application backends (tier 1), which call data
//! services (tier 2), which call the storage layer (tier 3). Each method
//! carries calibrated distributions for compute time, request/response
//! sizes, and fan-out, plus the call edges that generate nested RPC trees.
//!
//! Calibration anchors (paper §2):
//! - per-method completion-time medians span ~100 µs to ~1 s, with most
//!   filler methods ≥ 10 ms and the popular storage methods sub-ms;
//! - every method has a *fast path* (cache hit / validation short-circuit)
//!   so P1 latencies sit orders of magnitude below medians (Fig. 2);
//! - request sizes centre near ~1.5 KB and responses near ~300 B with
//!   heavy within-method tails (Figs. 6-7);
//! - fan-out is bursty (Pareto), making trees wider than deep (Figs. 4-5).

use rpclens_netsim::topology::{ClusterId, Topology};
use rpclens_rpcstack::cost::MessageClass;
use rpclens_rpcstack::hedging::HedgePolicy;
use rpclens_simcore::dist::LogNormal;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::time::SimDuration;
use rpclens_trace::span::{MethodId, ServiceId};
use serde::{Deserialize, Serialize};

/// The workload category of a service (drives Table 1's grouping and the
/// dominant latency component of Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceCategory {
    /// Persistent/data services (Bigtable, Network Disk, Spanner, ...).
    Storage,
    /// Compute-bound services (F1, ML Inference, BigQuery).
    ComputeIntensive,
    /// In-memory caches on reserved cores (KV-Store).
    LatencySensitive,
    /// User-facing entry points and aggregators.
    Frontend,
    /// Everything else (batch, infra, control).
    Infra,
}

/// Static description of one service.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Dense service id.
    pub id: ServiceId,
    /// Service name (the named Table 1 services use their paper names).
    pub name: String,
    /// Workload category.
    pub category: ServiceCategory,
    /// Call-graph tier (0 = frontend, higher = deeper).
    pub tier: u8,
    /// Clusters this service is deployed in.
    pub clusters: Vec<ClusterId>,
    /// Whether the service holds reserved cores (KV-Store).
    pub reserved_cores: bool,
    /// How the stack treats this service's payloads: compressed and
    /// encrypted structured data by default; storage blocks arrive as
    /// pre-compressed opaque blobs (cheap serialization, no RPC-level
    /// compression benefit).
    pub class: MessageClass,
    /// Workers per server pool.
    pub workers: u32,
    /// Probability a call must leave the client's cluster even when the
    /// service is deployed locally (data-locality miss; drives Fig. 19).
    pub remote_call_prob: f64,
    /// Intra-cluster per-machine load skew (0 = uniform; Spanner/F1/ML
    /// are data-dependent and skewed, Fig. 22).
    pub machine_skew: f64,
    /// Mean service time of the pool's background traffic (queue model).
    pub background_service: SimDuration,
    /// Squared coefficient of variation of background service times.
    pub background_scv: f64,
    /// Multiplier on the per-site base utilization (queueing-heavy
    /// services like SSD cache and Video Metadata run hot, Fig. 14).
    pub util_bias: f64,
    /// Probability that a call must chase data to an arbitrary deployed
    /// cluster, however far (single-homed data). Poor-locality services
    /// are what give the slowest methods their WAN-scale network tails
    /// (Fig. 12) and Fig. 19 its intercontinental clients.
    pub data_miss_prob: f64,
}

/// How many downstream calls an edge issues when it fires.
///
/// Built through [`FanoutDist::fixed`] and [`FanoutDist::pareto`], which
/// fold the inverse-CDF constants once, so a draw is one uniform, one
/// multiply and one `powf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FanoutDist {
    /// Always exactly `n` (≥ 1) parallel calls.
    Fixed(u32),
    /// Bounded-Pareto parallel fan-out on `[1, max]` (partition/aggregate
    /// bursts), with the inverse CDF precomputed.
    Pareto {
        /// Largest fan-out, as a float (the clamp ceiling).
        max: f64,
        /// `1 - 1 / max^alpha` (the uniform-draw coefficient).
        coef: f64,
        /// `-1 / alpha` (the inverse-CDF exponent).
        neg_inv_alpha: f64,
    },
}

impl FanoutDist {
    /// Exactly `n` parallel calls, floored at 1.
    pub fn fixed(n: u32) -> Self {
        FanoutDist::Fixed(n.max(1))
    }

    /// Bounded Pareto on `[1, max]` with tail index `alpha`; smaller
    /// `alpha` is burstier.
    pub fn pareto(max: u32, alpha: f64) -> Self {
        let max = max.max(1) as f64;
        let ha = max.powf(alpha);
        FanoutDist::Pareto {
            max,
            coef: 1.0 - 1.0 / ha,
            neg_inv_alpha: -1.0 / alpha,
        }
    }

    /// Samples a fan-out count (≥ 1).
    #[inline]
    pub fn sample(&self, rng: &mut Prng) -> u32 {
        match *self {
            FanoutDist::Fixed(n) => n,
            FanoutDist::Pareto {
                max,
                coef,
                neg_inv_alpha,
            } => {
                let u = rng.next_f64_open();
                let x = (1.0 - u * coef).powf(neg_inv_alpha);
                (x.min(max)) as u32
            }
        }
    }
}

/// One call edge in the static call graph.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// The method invoked downstream.
    pub target: MethodId,
    /// Probability the edge fires on a given invocation.
    pub prob: f64,
    /// Parallel fan-out when it fires.
    pub fanout: FanoutDist,
    /// Whether the caller blocks on the child (synchronous
    /// partition/aggregate) or fires and forgets (write-behind, cache
    /// fill). Async children still consume resources and appear in
    /// traces, but do not extend the parent's application time.
    pub blocking: bool,
}

/// Static description of one RPC method.
#[derive(Debug, Clone)]
pub struct MethodSpec {
    /// Dense method id.
    pub id: MethodId,
    /// Owning service.
    pub service: ServiceId,
    /// Method name, e.g. `Write`.
    pub name: String,
    /// Main-path CPU work on a baseline machine, seconds.
    pub compute: LogNormal,
    /// Probability of the fast path (cache hit: tiny compute, no
    /// children).
    pub fast_path_prob: f64,
    /// Fast-path CPU work, seconds.
    pub fast_compute: LogNormal,
    /// Request payload size distribution, bytes.
    pub req_size: LogNormal,
    /// Response payload size distribution, bytes.
    pub resp_size: LogNormal,
    /// Weight of this method as a *root* entry point (0 = never a root).
    pub root_weight: f64,
    /// Hedging policy (enabled on popular leaf storage methods).
    pub hedge: HedgePolicy,
    /// The CPU work one invocation burns (seconds on the baseline CPU).
    ///
    /// Crucially this is *not* the handler's wall time: storage handlers
    /// spend most of their wall time waiting on devices, and a handler's
    /// CPU draw is set by its code, not by how long it waited. Sampling
    /// CPU work independently of wall time is what reproduces §4.2's
    /// finding that neither latency nor size predicts CPU cost.
    pub cpu_work: LogNormal,
}

/// Payload sizes are clamped to this range: one cache line (the smallest
/// RPC the paper observed) to 4 MiB.
pub const MIN_PAYLOAD: f64 = 64.0;
/// Upper payload clamp.
pub const MAX_PAYLOAD: f64 = 4.0 * 1024.0 * 1024.0;

impl MethodSpec {
    /// Samples the CPU work of one invocation; returns `(work, fast)`
    /// where `fast` means the fast path fired (no children).
    #[inline]
    pub fn sample_compute(&self, rng: &mut Prng) -> (SimDuration, bool) {
        if rng.chance(self.fast_path_prob) {
            (
                SimDuration::from_secs_f64(self.fast_compute.sample(rng)),
                true,
            )
        } else {
            (SimDuration::from_secs_f64(self.compute.sample(rng)), false)
        }
    }

    /// Samples a request payload size in bytes.
    #[inline]
    pub fn sample_request_bytes(&self, rng: &mut Prng) -> u64 {
        self.req_size.sample(rng).clamp(MIN_PAYLOAD, MAX_PAYLOAD) as u64
    }

    /// Samples a response payload size in bytes.
    #[inline]
    pub fn sample_response_bytes(&self, rng: &mut Prng) -> u64 {
        self.resp_size.sample(rng).clamp(MIN_PAYLOAD, MAX_PAYLOAD) as u64
    }
}

/// Catalog generation parameters.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Total number of methods (named + filler). Must be ≥ 300.
    pub total_methods: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            total_methods: 2_000,
            seed: 0xF1EE7,
        }
    }
}

/// The full catalog: services, methods, and the Table 1 pinned entries.
///
/// Call edges live in one flat compressed-sparse-row table shared by all
/// methods, so the driver's inner loop borrows a method's edges as a
/// slice.
#[derive(Debug, Clone)]
pub struct Catalog {
    services: Vec<ServiceSpec>,
    methods: Vec<MethodSpec>,
    table1: Vec<Table1Entry>,
    /// Flat edge table; method `i` owns
    /// `edge_table[edge_offsets[i]..edge_offsets[i + 1]]`.
    edge_table: Vec<CallEdge>,
    /// CSR row offsets, one more than there are methods.
    edge_offsets: Vec<u32>,
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct Table1Entry {
    /// Category label ("Storage", ...).
    pub category: &'static str,
    /// Server service name.
    pub server: &'static str,
    /// Client service name.
    pub client: &'static str,
    /// Nominal RPC size label from the table.
    pub rpc_size: &'static str,
    /// Method description from the table.
    pub description: &'static str,
    /// The pinned method id in this catalog.
    pub method: MethodId,
}

/// Helper: a log-normal over seconds from a median in microseconds.
fn ln_us(median_us: f64, sigma: f64) -> LogNormal {
    LogNormal::from_median_sigma(median_us * 1e-6, sigma).expect("valid lognormal")
}

/// Helper: a log-normal over bytes from a median in bytes.
fn ln_bytes(median: f64, sigma: f64) -> LogNormal {
    LogNormal::from_median_sigma(median, sigma).expect("valid lognormal")
}

impl Catalog {
    /// Generates a catalog for the given topology.
    ///
    /// # Panics
    ///
    /// Panics if `config.total_methods < 300` (the named services alone
    /// need that many).
    pub fn generate(config: &CatalogConfig, topology: &Topology) -> Catalog {
        assert!(
            config.total_methods >= 300,
            "catalog needs at least 300 methods"
        );
        Builder::new(config, topology).build()
    }

    /// All services.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// All methods.
    pub fn methods(&self) -> &[MethodSpec] {
        &self.methods
    }

    /// Looks up a service.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.0 as usize]
    }

    /// Looks up a method.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn method(&self, id: MethodId) -> &MethodSpec {
        &self.methods[id.0 as usize]
    }

    /// The outgoing call edges of a method (a slice of the shared edge
    /// table).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn edges(&self, id: MethodId) -> &[CallEdge] {
        let i = id.0 as usize;
        &self.edge_table[self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize]
    }

    /// Looks up a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<&ServiceSpec> {
        self.services.iter().find(|s| s.name == name)
    }

    /// The pinned Table 1 rows.
    pub fn table1(&self) -> &[Table1Entry] {
        &self.table1
    }

    /// Number of methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }
}

/// Internal catalog builder.
struct Builder<'a> {
    topology: &'a Topology,
    rng: Prng,
    services: Vec<ServiceSpec>,
    methods: Vec<MethodSpec>,
    /// Outgoing edges per method, parallel to `methods`; flattened into
    /// the catalog's CSR edge table by [`Builder::finish`].
    edges: Vec<Vec<CallEdge>>,
    table1: Vec<Table1Entry>,
    total_methods: usize,
}

impl<'a> Builder<'a> {
    fn new(config: &CatalogConfig, topology: &'a Topology) -> Self {
        Builder {
            topology,
            rng: Prng::seed_from(config.seed).stream(0xCA7A_1076),
            services: Vec::new(),
            methods: Vec::new(),
            edges: Vec::new(),
            table1: Vec::new(),
            total_methods: config.total_methods,
        }
    }

    /// Picks `n` deployment clusters deterministically.
    fn pick_clusters(&mut self, n: usize) -> Vec<ClusterId> {
        let mut ids = self.topology.cluster_ids();
        self.rng.shuffle(&mut ids);
        ids.truncate(n.clamp(1, ids.len()));
        ids.sort();
        ids
    }

    fn add_service(
        &mut self,
        name: &str,
        category: ServiceCategory,
        tier: u8,
        clusters: usize,
        workers: u32,
    ) -> ServiceId {
        let id = ServiceId(self.services.len() as u16);
        let clusters = self.pick_clusters(clusters);
        let (reserved, remote_prob, skew, bg_service, bg_scv) = match category {
            ServiceCategory::Storage => (false, 0.10, 0.05, SimDuration::from_micros(400), 4.0),
            ServiceCategory::ComputeIntensive => {
                (false, 0.05, 0.30, SimDuration::from_millis(5), 6.0)
            }
            ServiceCategory::LatencySensitive => {
                (true, 0.02, 0.25, SimDuration::from_micros(100), 2.0)
            }
            ServiceCategory::Frontend => (false, 0.08, 0.05, SimDuration::from_millis(1), 4.0),
            ServiceCategory::Infra => (false, 0.10, 0.08, SimDuration::from_millis(2), 5.0),
        };
        self.services.push(ServiceSpec {
            id,
            name: name.to_string(),
            category,
            tier,
            clusters,
            reserved_cores: reserved,
            class: MessageClass::structured(),
            workers,
            remote_call_prob: remote_prob,
            machine_skew: skew,
            background_service: bg_service,
            background_scv: bg_scv,
            util_bias: 1.0,
            data_miss_prob: 0.0015,
        });
        id
    }

    /// Marks a service as running hot (queueing-heavy).
    fn bias_utilization(&mut self, service: ServiceId, bias: f64) {
        self.services[service.0 as usize].util_bias = bias;
    }

    /// Marks a service's payloads as pre-compressed opaque blobs.
    fn blob_payloads(&mut self, service: ServiceId) {
        self.services[service.0 as usize].class = MessageClass::blob();
    }

    #[allow(clippy::too_many_arguments)]
    fn add_method(
        &mut self,
        service: ServiceId,
        name: &str,
        compute: LogNormal,
        fast_path_prob: f64,
        req_size: LogNormal,
        resp_size: LogNormal,
        root_weight: f64,
        hedge: HedgePolicy,
    ) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        // The fast path (cache hit / validation short-circuit) is a
        // fraction of the main path, floored at a few microseconds.
        let fast_median_us = (compute.median() * 1e6 * 0.2).clamp(4.0, 120.0);
        // CPU work per invocation. Compute-bound categories burn wall
        // time; storage/infra/frontend handlers mostly wait on devices,
        // so their CPU draw is an *independent* per-method property.
        let cpu_work = match self.services[service.0 as usize].category {
            ServiceCategory::ComputeIntensive => {
                LogNormal::from_median_sigma((compute.median() * 0.40).max(1e-6), compute.sigma())
                    .expect("valid cpu work")
            }
            ServiceCategory::LatencySensitive => {
                LogNormal::from_median_sigma((compute.median() * 0.85).max(1e-6), compute.sigma())
                    .expect("valid cpu work")
            }
            _ => {
                let median_us =
                    (400.0 * (1.1 * self.rng.next_gaussian()).exp()).clamp(20.0, 20_000.0);
                ln_us(median_us, 1.0)
            }
        };
        self.methods.push(MethodSpec {
            id,
            service,
            name: name.to_string(),
            compute,
            fast_path_prob,
            fast_compute: ln_us(fast_median_us, 0.7),
            req_size,
            resp_size,
            root_weight,
            hedge,
            cpu_work,
        });
        self.edges.push(Vec::new());
        id
    }

    /// Adds an edge from every method of `from` service to a random
    /// method of `to` service.
    fn link_services(&mut self, from: ServiceId, to: ServiceId, prob: f64, fanout: FanoutDist) {
        self.link_services_mode(from, to, prob, fanout, true);
    }

    /// Like [`Builder::link_services`], with explicit blocking semantics.
    fn link_services_mode(
        &mut self,
        from: ServiceId,
        to: ServiceId,
        prob: f64,
        fanout: FanoutDist,
        blocking: bool,
    ) {
        let targets: Vec<MethodId> = self
            .methods
            .iter()
            .filter(|m| m.service == to)
            .map(|m| m.id)
            .collect();
        if targets.is_empty() {
            return;
        }
        let sources: Vec<MethodId> = self
            .methods
            .iter()
            .filter(|m| m.service == from)
            .map(|m| m.id)
            .collect();
        for src in sources {
            // Traffic concentrates on each service's flagship method
            // (the first one registered): that is what drives the
            // paper's extreme popularity skew, where the top-10 methods
            // take 58% of all calls.
            let target = if from == to {
                // Self-replication chains re-invoke the same method
                // (a disk Write replicates Writes).
                src
            } else if self.rng.chance(0.6) {
                targets[0]
            } else {
                *self.rng.choose(&targets)
            };
            self.edges[src.0 as usize].push(CallEdge {
                target,
                prob,
                fanout,
                blocking,
            });
        }
    }

    fn build(mut self) -> Catalog {
        let burst = FanoutDist::pareto;

        // ---- Tier 3: the storage layer ----------------------------------
        let network_disk = self.add_service("NetworkDisk", ServiceCategory::Storage, 3, 26, 24);
        self.blob_payloads(network_disk);
        // The single most popular method in the fleet: Network Disk Write
        // (28% of all calls in the paper). Low latency, 32 kB requests,
        // tiny acks, hedged.
        let disk_hedge = HedgePolicy::after(SimDuration::from_millis(5), 0.13);
        let disk_write = self.add_method(
            network_disk,
            "Write",
            ln_us(700.0, 0.9),
            0.10,
            ln_bytes(32.0 * 1024.0, 0.8),
            ln_bytes(96.0, 0.5),
            // Direct root traffic: log writers, batch jobs.
            270.0,
            disk_hedge,
        );
        let disk_read = self.add_method(
            network_disk,
            "Read",
            ln_us(800.0, 1.0),
            0.15,
            ln_bytes(256.0, 0.6),
            ln_bytes(32.0 * 1024.0, 1.0),
            60.0,
            disk_hedge,
        );
        for i in 0..28 {
            self.add_method(
                network_disk,
                &format!("DiskOp{i}"),
                ln_us(500.0 * (1.0 + i as f64 / 4.0), 1.0),
                0.1,
                ln_bytes(2048.0, 1.0),
                ln_bytes(1024.0, 1.2),
                if i < 4 { 4.0 } else { 0.2 },
                HedgePolicy::disabled(),
            );
        }

        let ssd_cache = self.add_service("SSDCache", ServiceCategory::Storage, 3, 23, 6);
        self.bias_utilization(ssd_cache, 1.5);
        let ssd_lookup = self.add_method(
            ssd_cache,
            "Lookup",
            ln_us(220.0, 0.9),
            0.2,
            ln_bytes(400.0, 0.5),
            ln_bytes(1800.0, 1.2),
            15.0,
            HedgePolicy::after(SimDuration::from_millis(6), 0.13),
        );
        for i in 0..9 {
            self.add_method(
                ssd_cache,
                &format!("CacheOp{i}"),
                ln_us(300.0 + 80.0 * i as f64, 0.9),
                0.15,
                ln_bytes(512.0, 0.8),
                ln_bytes(2048.0, 1.2),
                0.2,
                HedgePolicy::disabled(),
            );
        }

        let ml_inference =
            self.add_service("MLInference", ServiceCategory::ComputeIntensive, 3, 45, 8);
        let ml_infer = self.add_method(
            ml_inference,
            "Infer",
            ln_us(28_000.0, 0.8),
            0.03,
            ln_bytes(512.0, 0.6),
            ln_bytes(900.0, 0.8),
            0.0,
            HedgePolicy::disabled(),
        );
        for i in 0..12 {
            self.add_method(
                ml_inference,
                &format!("Model{i}"),
                ln_us(8_000.0 * (1.0 + i as f64), 0.9),
                0.02,
                ln_bytes(768.0, 0.7),
                ln_bytes(1200.0, 0.9),
                0.0,
                HedgePolicy::disabled(),
            );
        }

        // ---- Tier 2: data services ---------------------------------------
        let bigtable = self.add_service("Bigtable", ServiceCategory::Storage, 2, 23, 20);
        let bt_search = self.add_method(
            bigtable,
            "SearchValue",
            ln_us(900.0, 1.0),
            0.25,
            ln_bytes(1024.0, 0.6),
            ln_bytes(1400.0, 1.2),
            25.0,
            HedgePolicy::after(SimDuration::from_millis(12), 0.1),
        );
        for i in 0..22 {
            self.add_method(
                bigtable,
                &format!("TabletOp{i}"),
                ln_us(1200.0 + 300.0 * i as f64, 1.0),
                0.2,
                ln_bytes(1024.0, 0.9),
                ln_bytes(2048.0, 1.3),
                if i < 3 { 3.0 } else { 0.1 },
                HedgePolicy::disabled(),
            );
        }

        let spanner = self.add_service("Spanner", ServiceCategory::Storage, 2, 21, 20);
        self.services[spanner.0 as usize].data_miss_prob = 0.02;
        self.services[spanner.0 as usize].machine_skew = 0.35;
        let sp_read = self.add_method(
            spanner,
            "ReadRows",
            ln_us(1500.0, 1.0),
            0.2,
            ln_bytes(800.0, 0.6),
            ln_bytes(2600.0, 1.3),
            25.0,
            HedgePolicy::after(SimDuration::from_millis(15), 0.1),
        );
        for i in 0..26 {
            self.add_method(
                spanner,
                &format!("TxnOp{i}"),
                ln_us(2000.0 + 500.0 * i as f64, 1.0),
                0.15,
                ln_bytes(900.0, 0.9),
                ln_bytes(1500.0, 1.2),
                if i < 3 { 2.0 } else { 0.1 },
                HedgePolicy::disabled(),
            );
        }

        let video_meta = self.add_service("VideoMetadata", ServiceCategory::Storage, 2, 17, 6);
        self.bias_utilization(video_meta, 1.5);
        let vm_get = self.add_method(
            video_meta,
            "GetMetadata",
            ln_us(600.0, 0.9),
            0.25,
            ln_bytes(32.0 * 1024.0, 0.7),
            ln_bytes(8.0 * 1024.0, 1.1),
            0.0,
            HedgePolicy::disabled(),
        );
        for i in 0..10 {
            self.add_method(
                video_meta,
                &format!("MetaOp{i}"),
                ln_us(800.0 + 200.0 * i as f64, 0.9),
                0.2,
                ln_bytes(4096.0, 0.9),
                ln_bytes(4096.0, 1.2),
                0.0,
                HedgePolicy::disabled(),
            );
        }

        let lock_service = self.add_service("LockService", ServiceCategory::Infra, 2, 13, 8);
        for i in 0..8 {
            self.add_method(
                lock_service,
                &format!("LockOp{i}"),
                ln_us(700.0 + 150.0 * i as f64, 0.8),
                0.3,
                ln_bytes(256.0, 0.5),
                ln_bytes(192.0, 0.6),
                0.3,
                HedgePolicy::disabled(),
            );
        }

        // ---- Tier 1: application backends --------------------------------
        let kv_store = self.add_service("KVStore", ServiceCategory::LatencySensitive, 1, 6, 16);
        let kv_search = self.add_method(
            kv_store,
            "SearchValue",
            ln_us(15.0, 0.6),
            0.35,
            ln_bytes(128.0, 0.4),
            ln_bytes(3000.0, 1.1),
            35.0,
            HedgePolicy::after(SimDuration::from_millis(2), 0.12),
        );
        for i in 0..10 {
            self.add_method(
                kv_store,
                &format!("KvOp{i}"),
                ln_us(18.0 + 6.0 * i as f64, 0.6),
                0.3,
                ln_bytes(128.0, 0.5),
                ln_bytes(512.0, 1.0),
                if i < 2 { 6.0 } else { 0.3 },
                HedgePolicy::after(SimDuration::from_millis(3), 0.1),
            );
        }

        let f1 = self.add_service("F1", ServiceCategory::ComputeIntensive, 1, 45, 12);
        let f1_process = self.add_method(
            f1,
            "ProcessDataPacket",
            // Queries of wildly varying complexity behind one method:
            // very wide main mode (the paper's largest P95/median ratio).
            ln_us(9_000.0, 1.8),
            0.15,
            ln_bytes(75.0, 0.3),
            ln_bytes(2048.0, 1.4),
            15.0,
            HedgePolicy::after(SimDuration::from_millis(80), 0.2),
        );
        for i in 0..17 {
            self.add_method(
                f1,
                &format!("Query{i}"),
                ln_us(6_000.0 * (1.0 + i as f64 / 2.0), 1.5),
                0.1,
                ln_bytes(300.0, 0.8),
                ln_bytes(4096.0, 1.4),
                if i < 3 { 2.0 } else { 0.2 },
                HedgePolicy::disabled(),
            );
        }

        let bigquery = self.add_service("BigQuery", ServiceCategory::ComputeIntensive, 1, 19, 12);
        let bq_query = self.add_method(
            bigquery,
            "RunQuery",
            ln_us(40_000.0, 1.3),
            0.05,
            ln_bytes(1500.0, 0.7),
            ln_bytes(16.0 * 1024.0, 1.5),
            8.0,
            HedgePolicy::disabled(),
        );
        for i in 0..20 {
            self.add_method(
                bigquery,
                &format!("Stage{i}"),
                ln_us(20_000.0 * (1.0 + i as f64 / 3.0), 1.2),
                0.05,
                ln_bytes(2048.0, 0.9),
                ln_bytes(8192.0, 1.4),
                if i < 2 { 1.5 } else { 0.1 },
                HedgePolicy::disabled(),
            );
        }

        // ---- Tier 0: entry points ----------------------------------------
        let web_frontend = self.add_service("WebFrontend", ServiceCategory::Frontend, 0, 14, 16);
        for i in 0..12 {
            self.add_method(
                web_frontend,
                &format!("Handle{i}"),
                ln_us(800.0 + 300.0 * i as f64, 0.9),
                0.15,
                ln_bytes(1800.0, 0.8),
                ln_bytes(512.0, 1.0),
                if i < 4 { 20.0 } else { 4.0 },
                HedgePolicy::disabled(),
            );
        }
        let video_search = self.add_service("VideoSearch", ServiceCategory::Frontend, 0, 12, 16);
        let vs_search = self.add_method(
            video_search,
            "Search",
            ln_us(1500.0, 0.9),
            0.1,
            ln_bytes(900.0, 0.6),
            ln_bytes(6.0 * 1024.0, 1.1),
            18.0,
            HedgePolicy::disabled(),
        );
        let ml_client = self.add_service("MLClient", ServiceCategory::Frontend, 0, 10, 8);
        let mlc_request = self.add_method(
            ml_client,
            "RequestInference",
            ln_us(700.0, 0.8),
            0.05,
            ln_bytes(600.0, 0.6),
            ln_bytes(900.0, 0.8),
            1.2,
            HedgePolicy::disabled(),
        );
        let reco = self.add_service("Recommendation", ServiceCategory::Frontend, 0, 10, 16);
        let reco_serve = self.add_method(
            reco,
            "Recommend",
            ln_us(1200.0, 0.9),
            0.1,
            ln_bytes(700.0, 0.6),
            ln_bytes(3.0 * 1024.0, 1.0),
            16.0,
            HedgePolicy::disabled(),
        );
        let netinfo = self.add_service("NetworkInfoService", ServiceCategory::Frontend, 0, 12, 8);
        let ni_lookup = self.add_method(
            netinfo,
            "LookupRows",
            ln_us(900.0, 0.8),
            0.1,
            ln_bytes(800.0, 0.5),
            ln_bytes(1200.0, 0.9),
            6.0,
            HedgePolicy::disabled(),
        );

        // ---- The pinned call chains of Table 1 ---------------------------
        // Recommendation -> KV-Store -> Bigtable -> Network Disk.
        self.link_services(reco, kv_store, 0.9, burst(24, 0.9));
        self.link_services_mode(kv_store, bigtable, 0.25, FanoutDist::fixed(1), false);
        self.link_services(bigtable, network_disk, 0.8, burst(8, 0.9));
        // BigQuery -> SSD cache (streaming lookups) and the disk.
        self.link_services(bigquery, ssd_cache, 0.9, burst(32, 0.8));
        self.link_services(bigquery, network_disk, 0.6, burst(16, 0.8));
        // Video Search -> Video Metadata -> storage.
        self.link_services(video_search, video_meta, 0.9, burst(16, 0.9));
        self.link_services(video_meta, network_disk, 0.2, burst(3, 1.2));
        // Network info service -> Spanner -> disk.
        self.link_services(netinfo, spanner, 0.95, burst(8, 1.0));
        self.link_services(spanner, network_disk, 0.6, burst(6, 1.0));
        // ML client -> ML inference.
        self.link_services(ml_client, ml_inference, 0.95, burst(4, 1.2));
        // Storage-layer replication: disk writes replicate to peer disk
        // servers, which is what gives even "leaf" storage methods a
        // heavy descendant tail (Fig. 4) and makes Network Disk methods
        // the fleet's most-called RPCs.
        self.link_services(network_disk, network_disk, 0.35, FanoutDist::fixed(2));
        self.link_services_mode(ssd_cache, network_disk, 0.20, FanoutDist::fixed(1), false);
        // F1 -> F1 (one self-hop, per Table 1) and Spanner underneath.
        self.link_services(f1, f1, 0.25, burst(12, 0.9));
        self.link_services(f1, spanner, 0.5, burst(8, 1.0));
        // Frontends spray across the backends.
        self.link_services(web_frontend, kv_store, 0.6, burst(16, 0.9));
        self.link_services(web_frontend, f1, 0.25, burst(4, 1.1));
        self.link_services(web_frontend, bigtable, 0.4, burst(12, 0.9));
        self.link_services(web_frontend, lock_service, 0.1, FanoutDist::fixed(1));

        self.table1 = vec![
            Table1Entry {
                category: "Storage",
                server: "Bigtable",
                client: "KV-Store",
                rpc_size: "1 kB",
                description: "Search value",
                method: bt_search,
            },
            Table1Entry {
                category: "Storage",
                server: "Network Disk",
                client: "Bigtable",
                rpc_size: "32 kB",
                description: "Read from SSD",
                method: disk_read,
            },
            Table1Entry {
                category: "Storage",
                server: "SSD cache",
                client: "BigQuery",
                rpc_size: "400 B",
                description: "Look up streaming data",
                method: ssd_lookup,
            },
            Table1Entry {
                category: "Storage",
                server: "Video Metadata",
                client: "Video Search",
                rpc_size: "32 kB",
                description: "Get metadata",
                method: vm_get,
            },
            Table1Entry {
                category: "Storage",
                server: "Spanner",
                client: "Network information service",
                rpc_size: "800 B",
                description: "Read rows",
                method: sp_read,
            },
            Table1Entry {
                category: "Compute-intensive",
                server: "F1",
                client: "F1",
                rpc_size: "75 B",
                description: "Process data packet",
                method: f1_process,
            },
            Table1Entry {
                category: "Compute-intensive",
                server: "ML Inference",
                client: "ML Client",
                rpc_size: "512 B",
                description: "Perform inference",
                method: ml_infer,
            },
            Table1Entry {
                category: "Latency-sensitive",
                server: "KV-Store",
                client: "Recommendation service",
                rpc_size: "128 B",
                description: "Search value",
                method: kv_search,
            },
        ];
        // Keep references that are pinned but not in Table 1 alive for
        // documentation purposes.
        let _ = (
            disk_write,
            f1_process,
            bq_query,
            vs_search,
            mlc_request,
            reco_serve,
            ni_lookup,
        );

        self.add_filler_services();
        self.wire_filler_edges();
        self.finish()
    }

    /// Flattens the per-method edge lists into the catalog's CSR table.
    fn finish(self) -> Catalog {
        let Builder {
            services,
            methods,
            edges,
            table1,
            ..
        } = self;
        let mut end = 0u32;
        let edge_offsets = std::iter::once(0)
            .chain(edges.iter().map(|m_edges| {
                end += m_edges.len() as u32;
                end
            }))
            .collect();
        Catalog {
            services,
            methods,
            table1,
            edge_table: edges.concat(),
            edge_offsets,
        }
    }

    /// Adds synthetic filler services until the method budget is met.
    ///
    /// Filler root weights are normalised so the whole filler population
    /// contributes a fixed share of root traffic regardless of catalog
    /// size — the popularity skew of Fig. 3 must not dilute at 10,000
    /// methods.
    fn add_filler_services(&mut self) {
        let mut remaining = self.total_methods.saturating_sub(self.methods.len());
        let weight_unit = 70.0 / remaining.max(1) as f64;
        let mut idx = 0usize;
        while remaining > 0 {
            let methods_here = remaining.min(12 + self.rng.index(28));
            // Spread filler across tiers 1-3, weighted toward the deeper
            // tiers (most of the fleet is data processing).
            let tier = match idx % 10 {
                0..=2 => 1,
                3..=5 => 2,
                _ => 3,
            };
            let category = match idx % 5 {
                0 => ServiceCategory::Storage,
                1 => ServiceCategory::ComputeIntensive,
                2 => ServiceCategory::Frontend,
                _ => ServiceCategory::Infra,
            };
            let clusters = 5 + self.rng.index(20);
            let workers = 8 + self.rng.index(16) as u32;
            let service = self.add_service(
                &format!("svc-{tier}-{idx}"),
                category,
                tier,
                clusters,
                workers,
            );
            if self.rng.chance(0.15) {
                // Single-homed data: calls frequently cross the WAN.
                self.services[service.0 as usize].data_miss_prob = 0.08;
            }
            for m in 0..methods_here {
                // Per-method main-path medians: log-normal across methods
                // with median ~25 ms, giving ~10% of methods below ~4 ms
                // (Fig. 2's anchor: 90% of methods have median >= 10.7 ms
                // once the pipeline adds its floor).
                let z = self.rng.next_gaussian();
                let median_us = (14_000.0 * (1.25f64 * z).exp()).clamp(150.0, 2.2e6);
                // Slower methods vary relatively less (Fig. 2's narrow
                // slow tail): sigma shrinks with the median.
                let sigma = (1.55 - 0.11 * (median_us / 1000.0).max(0.1).ln()).clamp(0.6, 1.6);
                let req_med = (2200.0 * (1.1f64 * self.rng.next_gaussian()).exp())
                    .clamp(MIN_PAYLOAD, 256.0 * 1024.0);
                let resp_med = (600.0 * (1.3f64 * self.rng.next_gaussian()).exp())
                    .clamp(MIN_PAYLOAD, 256.0 * 1024.0);
                // Filler methods keep the popularity tail thin but alive:
                // tier-1 leaders take roots; every method sees at least a
                // trickle of direct traffic (internal batch clients), so
                // the per-method analyses have samples beyond the pinned
                // chains.
                let root_weight = weight_unit * if tier == 1 && m < 3 { 6.0 } else { 1.0 };
                let fast_prob = 0.04 + self.rng.next_f64() * 0.2;
                let req_sigma = 0.9 + self.rng.next_f64() * 0.4;
                let resp_sigma = 1.1 + self.rng.next_f64() * 0.5;
                self.add_method(
                    service,
                    &format!("Op{m}"),
                    ln_us(median_us, sigma),
                    fast_prob,
                    ln_bytes(req_med, req_sigma),
                    ln_bytes(resp_med, resp_sigma),
                    root_weight,
                    HedgePolicy::disabled(),
                );
            }
            remaining -= methods_here;
            idx += 1;
        }
    }

    /// Gives filler methods edges into deeper tiers.
    fn wire_filler_edges(&mut self) {
        // Collect candidate targets per tier.
        let mut by_tier: Vec<Vec<MethodId>> = vec![Vec::new(); 5];
        for m in &self.methods {
            let tier = self.services[m.service.0 as usize].tier as usize;
            by_tier[tier].push(m.id);
        }
        let method_count = self.methods.len();
        for i in 0..method_count {
            if !self.edges[i].is_empty() {
                continue; // Named chains already wired.
            }
            let tier = self.services[self.methods[i].service.0 as usize].tier as usize;
            if tier >= 3 {
                // Storage-tier filler methods call peers (replication,
                // repair, secondary lookups): a near-critical branching
                // process — offspring mean just below 1 — whose totals
                // are power-law tailed. That is the mechanism behind the
                // paper's finding that 90% of methods have P99 descendant
                // counts above 1,000 while medians stay small.
                let target = *self.rng.choose(&by_tier[3]);
                let alpha = 1.0 + self.rng.next_f64() * 0.3;
                self.edges[i].push(CallEdge {
                    target,
                    prob: 0.30 + self.rng.next_f64() * 0.15,
                    fanout: FanoutDist::pareto(40, alpha),
                    blocking: true,
                });
                continue;
            }
            // 1-3 edges into strictly deeper tiers.
            let n_edges = 1 + self.rng.index(3);
            for _ in 0..n_edges {
                let deeper = tier + 1 + self.rng.index(3 - tier);
                if by_tier[deeper].is_empty() {
                    continue;
                }
                let target = *self.rng.choose(&by_tier[deeper]);
                let alpha = 0.75 + self.rng.next_f64() * 0.5;
                let max = 8 + self.rng.index(56) as u32;
                self.edges[i].push(CallEdge {
                    target,
                    prob: 0.4 + self.rng.next_f64() * 0.6,
                    fanout: FanoutDist::pareto(max, alpha),
                    blocking: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_netsim::topology::Topology;

    fn catalog(methods: usize) -> Catalog {
        let topo = Topology::default_world(1);
        Catalog::generate(
            &CatalogConfig {
                total_methods: methods,
                seed: 42,
            },
            &topo,
        )
    }

    #[test]
    fn generates_requested_method_count() {
        let c = catalog(800);
        assert!(c.num_methods() >= 800, "{} methods", c.num_methods());
        assert!(c.num_methods() < 850);
        assert!(c.num_services() > 15);
    }

    #[test]
    fn is_deterministic_per_seed() {
        let a = catalog(500);
        let b = catalog(500);
        assert_eq!(a.num_methods(), b.num_methods());
        for (ma, mb) in a.methods().iter().zip(b.methods()) {
            assert_eq!(ma.name, mb.name);
            assert_eq!(a.edges(ma.id).len(), b.edges(mb.id).len());
        }
    }

    #[test]
    fn table1_has_eight_pinned_rows() {
        let c = catalog(400);
        assert_eq!(c.table1().len(), 8);
        for row in c.table1() {
            let m = c.method(row.method);
            let s = c.service(m.service);
            // The pinned method's service matches the row's server name
            // modulo formatting.
            let canon = row.server.replace([' ', '-'], "").to_lowercase();
            let got = s.name.replace([' ', '-'], "").to_lowercase();
            assert!(
                canon.contains(&got) || got.contains(&canon),
                "{} vs {}",
                row.server,
                s.name
            );
        }
    }

    #[test]
    fn kv_store_is_the_only_reserved_core_service() {
        let c = catalog(400);
        let reserved: Vec<&str> = c
            .services()
            .iter()
            .filter(|s| s.reserved_cores)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(reserved, vec!["KVStore"]);
    }

    #[test]
    fn edges_only_point_to_equal_or_deeper_tiers() {
        let c = catalog(1000);
        // The per-method slices walk the shared edge table exactly once.
        let total: usize = c.methods().iter().map(|m| c.edges(m.id).len()).sum();
        assert!(total > 0, "catalog has no edges at all");
        assert_eq!(total, c.edge_table.len());
        let mut rng = Prng::seed_from(3);
        for m in c.methods() {
            let src_tier = c.service(m.service).tier;
            for e in c.edges(m.id) {
                assert!(
                    e.prob > 0.0 && e.prob <= 1.0,
                    "{} edge prob {}",
                    m.name,
                    e.prob
                );
                assert!(e.fanout.sample(&mut rng) >= 1);
                let dst_tier = c.service(c.method(e.target).service).tier;
                assert!(
                    dst_tier >= src_tier,
                    "{} (tier {src_tier}) -> {} (tier {dst_tier})",
                    m.name,
                    c.method(e.target).name
                );
            }
        }
    }

    #[test]
    fn leaf_tier_edges_stay_within_the_storage_layer() {
        // Storage methods may call peers (replication), but never back up
        // the stack, and always with sub-critical firing probability.
        let c = catalog(600);
        for m in c.methods() {
            if c.service(m.service).tier >= 3 {
                for e in c.edges(m.id) {
                    assert!(
                        c.service(c.method(e.target).service).tier >= 3,
                        "{} calls up-stack",
                        m.name
                    );
                    assert!(e.prob <= 0.5, "{} peer edge too hot", m.name);
                }
            }
        }
    }

    #[test]
    fn f1_self_edge_exists() {
        let c = catalog(400);
        let f1 = c.service_by_name("F1").unwrap();
        let has_self = c.methods().iter().filter(|m| m.service == f1.id).any(|m| {
            c.edges(m.id)
                .iter()
                .any(|e| c.method(e.target).service == f1.id)
        });
        assert!(has_self, "F1 must call F1 (Table 1)");
    }

    #[test]
    fn popular_methods_are_fast_methods() {
        // The anticorrelation that drives Fig. 3: compute medians of the
        // heavily-weighted methods sit well below the catalog median.
        let c = catalog(1000);
        let mut weighted: Vec<(f64, f64)> = c
            .methods()
            .iter()
            .map(|m| (m.root_weight, m.compute.median()))
            .collect();
        weighted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let top_median: f64 = weighted[..10].iter().map(|w| w.1).sum::<f64>() / 10.0;
        let all_median: f64 = weighted.iter().map(|w| w.1).sum::<f64>() / weighted.len() as f64;
        assert!(
            top_median < all_median / 3.0,
            "top {top_median}, all {all_median}"
        );
    }

    #[test]
    fn sizes_sample_within_clamps() {
        let c = catalog(400);
        let mut rng = Prng::seed_from(7);
        for m in c.methods().iter().take(50) {
            for _ in 0..100 {
                let req = m.sample_request_bytes(&mut rng);
                let resp = m.sample_response_bytes(&mut rng);
                assert!((64..=4 * 1024 * 1024).contains(&req));
                assert!((64..=4 * 1024 * 1024).contains(&resp));
            }
        }
    }

    #[test]
    fn fast_path_produces_bimodal_compute() {
        let c = catalog(400);
        let mut rng = Prng::seed_from(8);
        // Use a filler method with a known fast-path probability > 0.
        let m = c
            .methods()
            .iter()
            .find(|m| m.fast_path_prob > 0.1 && m.compute.median() > 0.005)
            .unwrap();
        let mut fast = 0;
        let n = 10_000;
        for _ in 0..n {
            let (work, is_fast) = m.sample_compute(&mut rng);
            if is_fast {
                fast += 1;
                assert!(work < SimDuration::from_millis(2), "fast path {work}");
            }
        }
        let rate = fast as f64 / n as f64;
        assert!((rate - m.fast_path_prob).abs() < 0.03, "fast rate {rate}");
    }

    #[test]
    fn fanout_dists_sample_in_bounds() {
        let mut rng = Prng::seed_from(9);
        let f = FanoutDist::pareto(48, 0.8);
        let mut saw_big = false;
        for _ in 0..10_000 {
            let k = f.sample(&mut rng);
            assert!((1..=48).contains(&k));
            if k > 24 {
                saw_big = true;
            }
        }
        assert!(saw_big, "heavy-tail fanout never sampled large");
        assert_eq!(FanoutDist::fixed(3).sample(&mut rng), 3);
        assert_eq!(FanoutDist::fixed(0).sample(&mut rng), 1);
    }

    #[test]
    fn deployments_use_plausible_cluster_counts() {
        // The paper's Fig. 16 spans 5-44 clusters per service.
        let c = catalog(600);
        for s in c.services() {
            assert!(
                (1..=48).contains(&s.clusters.len()),
                "{} on {} clusters",
                s.name,
                s.clusters.len()
            );
        }
        let ml = c.service_by_name("MLInference").unwrap();
        assert!(ml.clusters.len() >= 40, "ML runs on many clusters");
        let kv = c.service_by_name("KVStore").unwrap();
        assert!(kv.clusters.len() <= 8, "KV-Store runs on few clusters");
    }

    #[test]
    #[should_panic(expected = "at least 300")]
    fn tiny_catalog_panics() {
        let _ = catalog(100);
    }
}
