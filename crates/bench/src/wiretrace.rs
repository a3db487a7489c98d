//! Wire-level distributed tracing: measured causal trees from the
//! executable RPC runtime, analysed by the simulator's own pipeline.
//!
//! The fleet simulator *generates* span trees; `rpclens-rpcwire`
//! *executes* RPCs. This harness closes the loop: it runs a multi-hop
//! chain of wire servers over in-memory links, propagates a
//! [`TraceContext`] through every request envelope, and records every
//! [`SpanEvent`] into a recorder that reassembles genuine causal trees
//! as `rpclens-trace` [`TraceData`] — so `critical_path`, `query`, and
//! the checksummed `trace::export` format work unchanged on *measured*
//! traces.
//!
//! **Determinism.** The wire runtime never timestamps events; the sink
//! does (see `rpclens_rpcwire::sink`). Over [`MemLink`] this recorder
//! runs a *virtual* clock: each event advances global time by
//! [`StackCostModel`]-priced charges rounded to the span store's 100 ns
//! tick, so the entire capture — every byte of the export — is a pure
//! function of the seed. `tests/wire_trace_determinism.rs` pins the
//! export digest. Over UDP the recorder uses a wall clock and
//! reconstructs single-hop spans client-side from piggybacked server
//! timings; that capture is honest but not reproducible.
//!
//! **Component mapping (virtual mode).** Lifecycle charges telescope
//! exactly to `end - start` per span:
//!
//! | event        | component charged                                     |
//! |--------------|-------------------------------------------------------|
//! | `ClientSend` | RequestProcessing ← sender serialize+compress+library+alloc |
//! | `ServerRecv` | RequestNetworkWire ← both ends' network; RequestProcessing ← receiver serialize+compress |
//! | `ServerExec` | ServerApplication ← synthetic app charge *plus* all nested children's wall time |
//! | `ServerSend` | ResponseProcessing ← sender serialize+compress+library+alloc (response) |
//! | `ClientRecv` | ResponseNetworkWire ← both ends' network; ClientRecvQueue ← receiver serialize+compress |
//!
//! Queue components stay zero in this uncontended single-threaded
//! harness, so ClientRecvQueue is reused for client-side response
//! decode (documented in `docs/OBSERVABILITY.md`). The application
//! charge is a deterministic proxy (`2 µs + 2 ns/response byte`), not a
//! measurement — virtual mode validates the *pipeline*, UDP mode
//! measures the *wire*. The stage sums are the
//! [`ComponentNanos`](rpclens_rpcstack::cost::ComponentNanos) methods
//! `wire`'s measured-vs-modeled table prices with too.
//!
//! **Detectors** read window rows built straight from the recorder's
//! cumulative counter snapshots, one per completed root; nothing else
//! reads those counters, so no time-series store sits in between. The
//! fleet's `driver/*` lanes keep theirs: `FleetRun::tsdb` is the run's
//! published counter substrate, and its `tsdb` phase is part of what
//! the benchmark harness times.

use crate::wire::{self, run_calls, CatalogHandler, UdpServer, WireBenchConfig, CLIENT_ID_BASE};
use rpclens_fleet::servable::ServableTable;
use rpclens_netsim::topology::ClusterId;
use rpclens_obs::detect::{self, Finding, SloConfig, WindowSample};
use rpclens_obs::manifest::{fnv1a, LatencyQuantiles};
use rpclens_rpcstack::component::{LatencyBreakdown, LatencyComponent};
use rpclens_rpcstack::cost::{MessageClass, StackCostConfig, StackCostModel};
use rpclens_rpcstack::error::ErrorKind;
use rpclens_rpcwire::client::{RetryPolicy, WireClient};
use rpclens_rpcwire::message::{Request, Status, TraceContext, WireError};
use rpclens_rpcwire::server::{Handler, Semantics, WireServer};
use rpclens_rpcwire::sink::{SpanEvent, SpanEventKind, SpanSink};
use rpclens_rpcwire::transport::MemLink;
use rpclens_simcore::rng::Prng;
use rpclens_simcore::stats::nearest_rank;
use rpclens_simcore::time::{SimDuration, SimTime};
use rpclens_trace::collector::TraceStore;
use rpclens_trace::span::{MethodId, ServiceId, SpanBuilder, TraceData};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The span store's quantum; every virtual charge is a multiple so
/// quantization into [`SpanBuilder`] is lossless.
const TICK_NS: u64 = 100;

/// Configuration for one traced run.
#[derive(Debug, Clone, Copy)]
pub struct TraceBenchConfig {
    /// Root RPCs to issue.
    pub requests: u32,
    /// Seed for workload sampling, payloads, and jitter.
    pub seed: u64,
    /// Catalog size (methods).
    pub total_methods: usize,
    /// Server hops in the chain (≥ 1). Hop 0 serves the root client;
    /// each hop below the last fans out to the next.
    pub hops: u32,
    /// Nested calls each non-leaf hop issues per request.
    pub fanout: u32,
}

impl Default for TraceBenchConfig {
    fn default() -> Self {
        TraceBenchConfig {
            requests: 256,
            seed: 42,
            total_methods: 400,
            hops: 2,
            fanout: 2,
        }
    }
}

/// The synthetic application charge of one handler execution, in
/// nanoseconds: a deterministic proxy, not a measurement.
fn app_charge_ns(response_bytes: u64) -> u64 {
    2_000 + 2 * response_bytes
}

/// The message class the recorder prices a method's payloads with.
fn class_of(table: &ServableTable, method: u64) -> MessageClass {
    table
        .by_wire_id(method)
        .map_or_else(MessageClass::structured, |m| m.class)
}

/// How the recorder assigns time (see the module docs).
enum ClockMode {
    /// Deterministic: advance by modeled charges, tick-rounded.
    Virtual,
    /// Wall clock anchored at recorder construction (UDP runs).
    Wall(Instant),
}

/// One span currently in flight.
struct OpenSpan {
    slot: usize,
    method: u64,
    ctx: TraceContext,
    start_ns: u64,
    handler_start_ns: u64,
    /// Per-component nanoseconds in [`LatencyComponent::ALL`] order.
    components: [u64; 9],
    req_raw: u64,
    resp_raw: u64,
    status: Status,
}

/// Running wire counters, snapshotted per completed root.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Root RPCs completed.
    pub roots: u64,
    /// Spans closed (all hops).
    pub spans: u64,
    /// Root RPCs that completed with a non-Ok status.
    pub errors: u64,
    /// Client retransmissions observed (all hops).
    pub retransmissions: u64,
    /// Stale replies discarded (all hops).
    pub stale_replies: u64,
    /// Server dedup-cache replays (all hops).
    pub dedup_hits: u64,
    /// Datagrams dropped on decode (either side).
    pub decode_errors: u64,
}

/// Cumulative counters at one point in (virtual or wall) time.
struct CounterSample {
    at_ns: u64,
    counters: WireCounters,
}

/// The span-sink recorder: assigns time, reassembles causal trees, and
/// snapshots the counters the detectors read. Share it between hops as
/// `Rc<RefCell<WireTraceRecorder>>` (which implements [`SpanSink`]).
pub struct WireTraceRecorder {
    model: StackCostModel,
    table: Arc<ServableTable>,
    mode: ClockMode,
    now_ns: u64,
    /// In-flight spans keyed by `(trace_id, span_id)`.
    open: HashMap<(u64, u64), OpenSpan>,
    /// Current trace's spans, slotted in open order (parents precede
    /// children in the single-threaded schedule).
    slots: Vec<Option<rpclens_trace::span::SpanRecord>>,
    /// span_id → slot for the current trace (parent index lookup).
    slot_of: HashMap<u64, u32>,
    trace_start_ns: u64,
    /// Modeled stack+app nanoseconds accumulated over the current trace.
    modeled_trace_ns: u64,
    span_counter: u64,
    trace_counter: u64,
    store: TraceStore,
    counters: WireCounters,
    samples: Vec<CounterSample>,
    rtts_us: Vec<u64>,
    modeled_rtts_us: Vec<u64>,
}

impl WireTraceRecorder {
    fn new(table: Arc<ServableTable>, mode: ClockMode) -> WireTraceRecorder {
        WireTraceRecorder {
            model: StackCostModel::new(StackCostConfig::default()),
            table,
            mode,
            now_ns: 0,
            open: HashMap::new(),
            slots: Vec::new(),
            slot_of: HashMap::new(),
            trace_start_ns: 0,
            modeled_trace_ns: 0,
            span_counter: 0,
            trace_counter: 0,
            store: TraceStore::new(),
            counters: WireCounters::default(),
            samples: Vec::new(),
            rtts_us: Vec::new(),
            modeled_rtts_us: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        match self.mode {
            ClockMode::Virtual => self.now_ns,
            ClockMode::Wall(anchor) => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
        }
    }

    /// Rounds a modeled charge to the span store's tick so quantization
    /// into the trace substrate is lossless.
    fn tick(ns: f64) -> u64 {
        ((ns.max(0.0) / TICK_NS as f64).round() as u64).max(1) * TICK_NS
    }

    /// Advances the virtual clock, attributing the charge to `component`
    /// of the span keyed `key` (no-op attribution if the span is gone,
    /// e.g. a stale reply after completion). Wall mode ignores charges.
    fn charge(&mut self, key: (u64, u64), component: LatencyComponent, ns: u64) {
        if matches!(self.mode, ClockMode::Wall(_)) {
            return;
        }
        self.now_ns += ns;
        self.modeled_trace_ns += ns;
        if let Some(open) = self.open.get_mut(&key) {
            let idx = LatencyComponent::ALL
                .iter()
                .position(|&c| c == component)
                .expect("component in ALL");
            open.components[idx] += ns;
        }
    }

    /// Starts a fresh trace: hands out its root call's context.
    pub fn begin_trace(&mut self) -> TraceContext {
        self.trace_counter += 1;
        self.span_counter = 1;
        self.slots.clear();
        self.slot_of.clear();
        self.modeled_trace_ns = 0;
        TraceContext {
            trace_id: self.trace_counter,
            span_id: 1,
            parent_span_id: 0,
            sampled: true,
            depth: 0,
        }
    }

    /// Allocates the next span id within the current trace.
    pub fn next_span_id(&mut self) -> u64 {
        self.span_counter += 1;
        self.span_counter
    }

    fn open_span(&mut self, event: &SpanEvent, ctx: TraceContext) {
        let slot = self.slots.len();
        self.slots.push(None);
        self.slot_of.insert(ctx.span_id, slot as u32);
        if ctx.is_root() {
            self.trace_start_ns = self.now();
        }
        self.open.insert(
            (ctx.trace_id, ctx.span_id),
            OpenSpan {
                slot,
                method: event.method,
                ctx,
                start_ns: self.now(),
                handler_start_ns: 0,
                components: [0; 9],
                req_raw: event.raw_bytes as u64,
                resp_raw: 0,
                status: Status::Ok,
            },
        );
    }

    fn close_span(&mut self, key: (u64, u64), event: &SpanEvent) {
        // Wall mode never sees server events; reconstruct the span's
        // components from the piggybacked timings here instead.
        if matches!(self.mode, ClockMode::Wall(_)) {
            let now = self.now();
            if let Some(open) = self.open.get_mut(&key) {
                let rtt = now.saturating_sub(open.start_ns);
                let server = event.server_decode_ns + event.server_exec_ns;
                let residual = rtt.saturating_sub(server);
                let idx = LatencyComponent::index;
                open.components[idx(LatencyComponent::RequestProcessing)] = event.server_decode_ns;
                open.components[idx(LatencyComponent::ServerApplication)] = event.server_exec_ns;
                open.components[idx(LatencyComponent::RequestNetworkWire)] = residual / 2;
                open.components[idx(LatencyComponent::ResponseNetworkWire)] =
                    residual - residual / 2;
            }
        }
        let Some(open) = self.open.remove(&key) else {
            return;
        };
        self.counters.spans += 1;
        let mut breakdown = LatencyBreakdown::new();
        for (i, &c) in LatencyComponent::ALL.iter().enumerate() {
            breakdown.set(c, SimDuration::from_nanos(open.components[i]));
        }
        let status = event.status.unwrap_or(open.status);
        let depth = open.ctx.depth as u16;
        let mut builder = SpanBuilder::new(
            MethodId(open.method as u32),
            self.table
                .by_wire_id(open.method)
                .map_or(ServiceId(0), |m| m.service),
            ClusterId(depth),
            ClusterId(depth + 1),
        )
        .start_offset(SimDuration::from_nanos(
            open.start_ns.saturating_sub(self.trace_start_ns),
        ))
        .breakdown(breakdown)
        .sizes(open.req_raw, event.raw_bytes as u64);
        if !open.ctx.is_root() {
            if let Some(&parent_slot) = self.slot_of.get(&open.ctx.parent_span_id) {
                builder = builder.parent(parent_slot);
            }
        }
        if let Some(kind) = status_to_error(status) {
            builder = builder.error(kind);
        }
        self.slots[open.slot] = Some(builder.build());
        if open.ctx.is_root() {
            self.finish_trace(open.start_ns, status);
        }
    }

    fn finish_trace(&mut self, root_start_ns: u64, root_status: Status) {
        let spans: Vec<_> = self.slots.drain(..).flatten().collect();
        self.slot_of.clear();
        if spans.is_empty() {
            return;
        }
        let total_ns = spans[0].total_latency().as_nanos();
        self.rtts_us.push(total_ns / 1_000);
        self.modeled_rtts_us.push(self.modeled_trace_ns / 1_000);
        self.store
            .add(TraceData::new(SimTime::from_nanos(root_start_ns), spans));
        self.counters.roots += 1;
        if root_status != Status::Ok {
            self.counters.errors += 1;
        }
        self.samples.push(CounterSample {
            at_ns: self.now(),
            counters: self.counters,
        });
    }
}

fn status_to_error(status: Status) -> Option<ErrorKind> {
    match status {
        Status::Ok => None,
        Status::NoSuchMethod => Some(ErrorKind::EntityNotFound),
        Status::BadRequest => Some(ErrorKind::Internal),
        Status::Rejected => Some(ErrorKind::Unavailable),
    }
}

impl SpanSink for WireTraceRecorder {
    fn record(&mut self, event: &SpanEvent) {
        let Some(ctx) = event.context else {
            // Untraced traffic (or an undecodable datagram): count, but
            // no span to attribute to.
            if event.kind == SpanEventKind::ServerDecodeError
                || event.kind == SpanEventKind::ClientDecodeError
            {
                self.counters.decode_errors += 1;
            }
            return;
        };
        let key = (ctx.trace_id, ctx.span_id);
        let class = class_of(&self.table, event.method);
        let req_send = self
            .model
            .sender_component_ns(event.raw_bytes as u64, class);
        match event.kind {
            SpanEventKind::ClientSend => {
                self.open_span(event, ctx);
                let prep = req_send.prep_ns();
                self.charge(key, LatencyComponent::RequestProcessing, Self::tick(prep));
            }
            SpanEventKind::ClientRetransmit => {
                self.counters.retransmissions += 1;
                let net = self
                    .model
                    .sender_component_ns(event.wire_bytes as u64, class)
                    .network_ns;
                self.charge(key, LatencyComponent::RequestNetworkWire, Self::tick(net));
            }
            SpanEventKind::ServerRecv => {
                let req_raw = self
                    .open
                    .get(&key)
                    .map(|o| o.req_raw)
                    .unwrap_or(event.raw_bytes as u64);
                let send = self.model.sender_component_ns(req_raw, class);
                let recv = self.model.receiver_component_ns(req_raw, class);
                self.charge(
                    key,
                    LatencyComponent::RequestNetworkWire,
                    Self::tick(send.wire_ns(&recv)),
                );
                self.charge(
                    key,
                    LatencyComponent::RequestProcessing,
                    Self::tick(recv.decode_ns()),
                );
                let now = self.now();
                if let Some(open) = self.open.get_mut(&key) {
                    open.handler_start_ns = now;
                }
            }
            SpanEventKind::ServerExec => {
                // Synthetic deterministic application charge; nested
                // children's time lands here too via the interval.
                let app = app_charge_ns(event.raw_bytes as u64);
                self.charge(
                    key,
                    LatencyComponent::ServerApplication,
                    Self::tick(app as f64),
                );
                let now = self.now();
                if let Some(open) = self.open.get_mut(&key) {
                    open.resp_raw = event.raw_bytes as u64;
                    open.status = event.status.unwrap_or(Status::Ok);
                    if matches!(self.mode, ClockMode::Virtual) {
                        // Re-point ServerApplication at the whole handler
                        // interval (covers nested calls).
                        let idx = LatencyComponent::ALL
                            .iter()
                            .position(|&c| c == LatencyComponent::ServerApplication)
                            .unwrap();
                        open.components[idx] = now.saturating_sub(open.handler_start_ns);
                    }
                }
            }
            SpanEventKind::ServerSend => {
                let resp_raw = self.open.get(&key).map(|o| o.resp_raw).unwrap_or(0);
                let prep = self.model.sender_component_ns(resp_raw, class).prep_ns();
                self.charge(key, LatencyComponent::ResponseProcessing, Self::tick(prep));
            }
            SpanEventKind::ClientRecv => {
                let resp_raw = event.raw_bytes as u64;
                let send = self.model.sender_component_ns(resp_raw, class);
                let recv = self.model.receiver_component_ns(resp_raw, class);
                self.charge(
                    key,
                    LatencyComponent::ResponseNetworkWire,
                    Self::tick(send.wire_ns(&recv)),
                );
                self.charge(
                    key,
                    LatencyComponent::ClientRecvQueue,
                    Self::tick(recv.decode_ns()),
                );
                self.close_span(key, event);
            }
            SpanEventKind::ClientStale => {
                self.counters.stale_replies += 1;
                self.charge(key, LatencyComponent::ClientRecvQueue, TICK_NS);
            }
            SpanEventKind::ServerDedupHit => {
                self.counters.dedup_hits += 1;
                self.charge(key, LatencyComponent::ServerRecvQueue, TICK_NS);
            }
            SpanEventKind::ClientDecodeError | SpanEventKind::ServerDecodeError => {
                self.counters.decode_errors += 1;
            }
            SpanEventKind::ClientTimeout => {
                // The span never completed; drop it so the trace (if the
                // root survives) stays parent-consistent.
                self.open.remove(&key);
            }
        }
    }
}

/// Shared recorder handle hops clone into their clients and servers.
pub type SharedRecorder = Rc<RefCell<WireTraceRecorder>>;

/// One nested hop owned by the previous hop's handler.
struct NextHop {
    client: WireClient<MemLink, SharedRecorder>,
    server: WireServer<MemLink, HopHandler, SharedRecorder>,
}

/// A hop's handler: serves the catalog through a wrapped
/// [`CatalogHandler`] and, below the last hop, re-propagates the trace
/// context into `fanout` nested calls per request.
pub struct HopHandler {
    catalog: CatalogHandler,
    depth: u32,
    fanout: u32,
    next: Option<Box<NextHop>>,
    recorder: SharedRecorder,
    body: Vec<u8>,
}

impl HopHandler {
    /// Issues one nested, traced call on the next hop through the
    /// in-process server side and settles it like a root call.
    fn call_next(&mut self, ctx: &TraceContext, request_id_salt: u64) -> Result<(), WireError> {
        let next = self.next.as_mut().expect("call_next below the last hop");
        let mut rng = Prng::seed_from(self.catalog.seed ^ u64::from(self.depth))
            .stream(0xFA_0001)
            .substream(request_id_salt);
        let child_ctx = ctx.child(self.recorder.borrow_mut().next_span_id());
        let outcome = wire::call(
            &mut next.client,
            &mut next.server,
            &self.catalog.table,
            &mut rng,
            Some(child_ctx),
            &mut self.body,
        );
        wire::settle(outcome).map(drop)
    }
}

impl Handler for HopHandler {
    fn handle(&mut self, request: &Request) -> (Status, Vec<u8>) {
        if self.catalog.table.by_wire_id(request.method).is_none() {
            return (Status::NoSuchMethod, Vec::new());
        }
        if self.next.is_some() {
            if let Some(ctx) = request.trace {
                for f in 0..self.fanout {
                    let salt = request.request_id ^ (u64::from(f) << 48);
                    if self.call_next(&ctx, salt).is_err() {
                        return (Status::Rejected, Vec::new());
                    }
                }
            }
        }
        self.catalog.handle(request)
    }

    fn compress_response(&self, method: u64) -> bool {
        self.catalog.compress_response(method)
    }
}

/// Builds the hop chain recursively: the returned server serves `link`
/// at `depth` and owns (via its handler) everything below it.
fn build_hop(
    table: &Arc<ServableTable>,
    recorder: &SharedRecorder,
    config: &TraceBenchConfig,
    depth: u32,
    link: MemLink,
) -> WireServer<MemLink, HopHandler, SharedRecorder> {
    let next = if depth + 1 < config.hops {
        let (client_end, server_end) = MemLink::pair();
        let server = build_hop(table, recorder, config, depth + 1, server_end);
        let client = WireClient::new(
            client_end,
            CLIENT_ID_BASE + u64::from(depth) + 1,
            RetryPolicy::default(),
            config.seed ^ u64::from(depth),
        )
        .with_span_sink(recorder.clone());
        Some(Box::new(NextHop { client, server }))
    } else {
        None
    };
    let handler = HopHandler {
        catalog: CatalogHandler::new(table.clone(), config.seed),
        depth,
        fanout: config.fanout,
        next,
        recorder: recorder.clone(),
        body: Vec::new(),
    };
    WireServer::new(link, handler, Semantics::AtMostOnce).with_span_sink(recorder.clone())
}

/// The outcome of a traced run.
pub struct TraceBenchReport {
    /// Config echo.
    pub config: TraceBenchConfig,
    /// Transport label (`"memlink"` or `"udp-loopback"`).
    pub transport: &'static str,
    /// The measured causal trees.
    pub store: TraceStore,
    /// The checksummed `trace::export` bytes of `store`.
    pub export: Vec<u8>,
    /// FNV-1a digest of `export` (the determinism pin).
    pub digest: u64,
    /// Final wire counters.
    pub counters: WireCounters,
    /// Measured root-RPC latency quantiles (virtual or wall ns → µs).
    pub measured: LatencyQuantiles,
    /// Modeled quantiles over the same roots (the detector baseline).
    pub modeled: LatencyQuantiles,
    /// Findings from the error-budget-burn and tail-regression
    /// detectors over the capture's window rows and root latencies.
    pub findings: Vec<Finding>,
}

fn quantiles_from_us(mut us: Vec<u64>) -> LatencyQuantiles {
    us.sort_unstable();
    let pct = |p: f64| nearest_rank(&us, p).unwrap_or(0);
    LatencyQuantiles {
        count: us.len() as u64,
        sum_us: us.iter().map(|&v| v as u128).sum(),
        min_us: us.first().copied().unwrap_or(0),
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        max_us: us.last().copied().unwrap_or(0),
    }
}

/// The detectors' window rows, read straight off the recorder's
/// cumulative samples: 16 tick-aligned windows over the run, each row
/// the window's last sample less the previous row's (the first row's
/// less zero). A window without a sample has no row.
fn window_rows(samples: &[CounterSample]) -> Vec<WindowSample> {
    let total_ns = samples.last().map_or(0, |s| s.at_ns).max(1);
    // Tick-aligned so virtual timestamps land deterministically.
    let period = ((total_ns / 16).max(TICK_NS) / TICK_NS) * TICK_NS;
    let mut prev = WireCounters::default();
    samples
        .chunk_by(|a, b| a.at_ns / period == b.at_ns / period)
        .map(|window| {
            let last = &window[window.len() - 1];
            let row = WindowSample {
                window: last.at_ns / period,
                rpcs: last.counters.roots - prev.roots,
                errors: last.counters.errors - prev.errors,
                congested_wire: 0,
                retries: last.counters.retransmissions - prev.retransmissions,
            };
            prev = last.counters;
            row
        })
        .collect()
}

/// Runs the standing detectors over a capture's window rows and its
/// measured and modeled root latencies.
fn run_detectors(recorder: &WireTraceRecorder, windows: &[WindowSample]) -> Vec<Finding> {
    let mut findings = detect::error_budget_burn(&SloConfig::default(), windows);
    let measured = quantiles_from_us(recorder.rtts_us.clone());
    let modeled = quantiles_from_us(recorder.modeled_rtts_us.clone());
    // Measured vs modeled tails: in virtual mode these agree to
    // quantization, so any finding is a real pipeline bug. Wall-clock
    // captures have no modeled baseline (charges are skipped), so the
    // comparison would be vacuous there.
    if matches!(recorder.mode, ClockMode::Virtual) {
        findings.extend(detect::tail_regression(&measured, &modeled, 0.25));
    }
    findings
}

/// Runs the traced multi-hop bench over in-memory links with the
/// virtual clock: the full capture is a pure function of the config.
pub fn run_traced_memlink(config: &TraceBenchConfig) -> Result<TraceBenchReport, WireError> {
    finish_report(config, "memlink", capture_memlink(config)?)
}

/// The virtual-clock capture behind [`run_traced_memlink`].
fn capture_memlink(config: &TraceBenchConfig) -> Result<SharedRecorder, WireError> {
    assert!(config.hops >= 1, "need at least one hop");
    let (table, recorder) = new_recorder(config, ClockMode::Virtual);
    let (client_end, server_end) = MemLink::pair();
    let mut server = build_hop(&table, &recorder, config, 0, server_end);
    let mut client = WireClient::new(
        client_end,
        CLIENT_ID_BASE,
        RetryPolicy::default(),
        config.seed,
    )
    .with_span_sink(recorder.clone());
    run_calls(
        &mut client,
        &mut server,
        &table,
        config.seed,
        config.requests,
        || Some(recorder.borrow_mut().begin_trace()),
    )?;
    // Release the hop chain's recorder handles before unwrapping.
    drop(client);
    drop(server);
    Ok(recorder)
}

/// Runs a traced single-hop bench over real UDP loopback with a wall
/// clock: spans are reconstructed client-side from piggybacked server
/// timings (`hops` and `fanout` are ignored — the UDP server cannot
/// share the single-threaded recorder).
pub fn run_traced_udp(config: &TraceBenchConfig) -> Result<TraceBenchReport, WireError> {
    let (table, recorder) = new_recorder(config, ClockMode::Wall(Instant::now()));
    let mut server = UdpServer::spawn(table.clone(), config.seed, Semantics::AtMostOnce)?;
    let mut client = WireClient::new(
        server.connect()?,
        CLIENT_ID_BASE,
        RetryPolicy::default(),
        config.seed,
    )
    .with_span_sink(recorder.clone());
    run_calls(
        &mut client,
        &mut server,
        &table,
        config.seed,
        config.requests,
        || Some(recorder.borrow_mut().begin_trace()),
    )?;
    server.join();
    drop(client);
    finish_report(config, "udp-loopback", recorder)
}

/// The servable table of a traced run's catalog and a recorder over it.
fn new_recorder(
    config: &TraceBenchConfig,
    mode: ClockMode,
) -> (Arc<ServableTable>, SharedRecorder) {
    let table = Arc::new(wire::build_table(&WireBenchConfig {
        seed: config.seed,
        total_methods: config.total_methods,
        ..WireBenchConfig::default()
    }));
    let recorder = Rc::new(RefCell::new(WireTraceRecorder::new(table.clone(), mode)));
    (table, recorder)
}

fn finish_report(
    config: &TraceBenchConfig,
    transport: &'static str,
    recorder: SharedRecorder,
) -> Result<TraceBenchReport, WireError> {
    let recorder = Rc::try_unwrap(recorder)
        .map_err(|_| ())
        .expect("all hop handles dropped")
        .into_inner();
    let findings = run_detectors(&recorder, &window_rows(&recorder.samples));
    let export = rpclens_trace::export::export(&recorder.store);
    let digest = fnv1a(&export);
    Ok(TraceBenchReport {
        config: *config,
        transport,
        store: recorder.store,
        export,
        digest,
        counters: recorder.counters,
        measured: quantiles_from_us(recorder.rtts_us),
        modeled: quantiles_from_us(recorder.modeled_rtts_us),
        findings,
    })
}

/// Renders one measured trace as an indented waterfall: each span's
/// bar is positioned by start offset and scaled by duration within the
/// root's interval, indented by tree depth.
pub fn waterfall_text(store: &TraceStore, index: usize) -> Result<String, String> {
    use std::fmt::Write as _;
    let traces = store.traces();
    let trace = traces
        .get(index)
        .ok_or_else(|| format!("trace {index} out of range (store has {})", traces.len()))?;
    let stats = rpclens_trace::tree::TreeStats::compute(trace);
    let total_ns = trace
        .spans
        .iter()
        .map(|s| s.start_offset().as_nanos() + s.total_latency().as_nanos())
        .max()
        .unwrap_or(1)
        .max(1);
    const WIDTH: usize = 48;
    let mut out = String::new();
    writeln!(
        out,
        "trace {index}: {} spans, {} deep, {:.1} us end to end",
        trace.len(),
        stats.max_depth + 1,
        total_ns as f64 / 1_000.0
    )
    .unwrap();
    for (i, span) in trace.spans.iter().enumerate() {
        let start = span.start_offset().as_nanos();
        let dur = span.total_latency().as_nanos();
        let lead = (start as usize * WIDTH) / total_ns as usize;
        let bar = ((dur as usize * WIDTH) / total_ns as usize).max(1);
        let bar = bar.min(WIDTH - lead.min(WIDTH - 1));
        let status = match span.error {
            None => "ok",
            Some(_) => "err",
        };
        writeln!(
            out,
            "  [{: <width$}] {:indent$}m{:<5} svc{:<4} {:>9.1} us {}",
            format!("{}{}", ".".repeat(lead), "#".repeat(bar)),
            "",
            span.method.0,
            span.service.0,
            dur as f64 / 1_000.0,
            status,
            width = WIDTH,
            indent = stats.ancestors[i] as usize * 2,
        )
        .unwrap();
    }
    Ok(out)
}

/// Renders the per-method measured-vs-modeled comparison over a whole
/// measured store: the model re-prices each span's actual request and
/// response bytes through [`StackCostModel`] (plus the deterministic
/// app proxy), so the delta isolates what the wire added beyond the
/// analytical stack.
pub fn method_delta_text(store: &TraceStore, seed: u64, total_methods: usize) -> String {
    use std::fmt::Write as _;
    let table = wire::build_table(&WireBenchConfig {
        seed,
        total_methods,
        ..WireBenchConfig::default()
    });
    let model = StackCostModel::new(StackCostConfig::default());
    // method → (count, measured ns sum, modeled ns sum)
    let mut rows: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    for trace in store.traces() {
        for span in &trace.spans {
            let class = class_of(&table, span.method.0 as u64);
            let req = span.request_bytes as u64;
            let resp = span.response_bytes as u64;
            let s_req = model.sender_component_ns(req, class);
            let r_req = model.receiver_component_ns(req, class);
            let s_resp = model.sender_component_ns(resp, class);
            let r_resp = model.receiver_component_ns(resp, class);
            let stack = s_req.prep_ns()
                + s_req.wire_ns(&r_req)
                + r_req.decode_ns()
                + s_resp.prep_ns()
                + s_resp.wire_ns(&r_resp)
                + r_resp.decode_ns();
            let modeled = stack as u64 + app_charge_ns(resp);
            let row = rows.entry(span.method.0).or_default();
            row.0 += 1;
            row.1 += span.total_latency().as_nanos();
            row.2 += modeled;
        }
    }
    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
    let mut out = String::from(
        "measured vs modeled per method (spans, mean us; delta = measured - modeled)\n",
    );
    writeln!(
        out,
        "  {:>7} {:>7} {:>12} {:>12} {:>9}",
        "method", "spans", "measured", "modeled", "delta%"
    )
    .unwrap();
    for (method, (count, measured_ns, modeled_ns)) in sorted.into_iter().take(20) {
        let measured = measured_ns as f64 / count as f64 / 1_000.0;
        let modeled = modeled_ns as f64 / count as f64 / 1_000.0;
        let delta = if modeled > 0.0 {
            (measured - modeled) / modeled * 100.0
        } else {
            0.0
        };
        writeln!(
            out,
            "  {:>7} {:>7} {:>12.1} {:>12.1} {:>+9.1}",
            method, count, measured, modeled, delta
        )
        .unwrap();
    }
    out
}

/// One-paragraph run summary for the `rpclens-wire bench --trace-out`
/// stderr report.
pub fn trace_summary_text(report: &TraceBenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "wire trace [{}]: {} traces, {} spans, digest {:016x}",
        report.transport,
        report.store.len(),
        report.store.total_spans(),
        report.digest
    )
    .unwrap();
    writeln!(
        out,
        "  counters: {} roots, {} errors, {} retransmissions, {} stale, {} dedup, {} decode errors",
        report.counters.roots,
        report.counters.errors,
        report.counters.retransmissions,
        report.counters.stale_replies,
        report.counters.dedup_hits,
        report.counters.decode_errors
    )
    .unwrap();
    writeln!(
        out,
        "  rtt us: p50 {} p99 {} max {} (modeled p50 {} p99 {})",
        report.measured.p50_us,
        report.measured.p99_us,
        report.measured.max_us,
        report.modeled.p50_us,
        report.modeled.p99_us,
    )
    .unwrap();
    if report.findings.is_empty() {
        writeln!(out, "  detectors: clean").unwrap();
    } else {
        for f in &report.findings {
            writeln!(
                out,
                "  finding[{}] {}: {}",
                f.severity, f.detector, f.subject
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_trace::critical_path::CriticalPath;
    use rpclens_trace::tree::TreeStats;
    use rpclens_tsdb::store::{Series, TimeSeriesDb};

    fn small_config() -> TraceBenchConfig {
        TraceBenchConfig {
            requests: 24,
            seed: 42,
            total_methods: 300,
            hops: 2,
            fanout: 2,
        }
    }

    #[test]
    fn memlink_run_builds_multi_hop_trees() {
        let report = run_traced_memlink(&small_config()).unwrap();
        assert_eq!(report.counters.roots, 24);
        assert_eq!(report.store.len(), 24);
        // Every trace is root + fanout children (hops=2 → one nested
        // layer).
        for trace in report.store.traces() {
            assert_eq!(trace.len(), 3, "root + 2 children");
            let stats = TreeStats::compute(trace);
            assert_eq!(stats.max_depth, 1);
            assert_eq!(stats.fanout[0], 2);
            // Child clusters step with depth.
            assert_eq!(trace.spans[0].client_cluster, ClusterId(0));
            assert_eq!(trace.spans[1].client_cluster, ClusterId(1));
        }
        assert_eq!(report.counters.spans, 24 * 3);
        assert_eq!(report.counters.errors, 0);
    }

    #[test]
    fn children_nest_inside_the_parents_server_time() {
        let report = run_traced_memlink(&small_config()).unwrap();
        for trace in report.store.traces() {
            let root_app = trace.spans[0].component(LatencyComponent::ServerApplication);
            let children_total: u64 = trace.spans[1..]
                .iter()
                .map(|s| s.total_latency().as_nanos())
                .sum();
            assert!(
                root_app.as_nanos() >= children_total,
                "root app {} must cover nested children {}",
                root_app.as_nanos(),
                children_total
            );
            // The causal invariant: children start after the root.
            for child in &trace.spans[1..] {
                assert!(child.start_offset() > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn critical_path_works_unchanged_on_measured_trees() {
        let report = run_traced_memlink(&small_config()).unwrap();
        let trace = &report.store.traces()[0];
        let path = CriticalPath::compute(trace);
        assert!(!path.is_empty());
        // The path starts at the root and its exclusive sum telescopes
        // to the root's total latency.
        assert_eq!(path.exclusive_sum(), trace.root().total_latency());
    }

    #[test]
    fn capture_is_a_pure_function_of_the_seed() {
        let a = run_traced_memlink(&small_config()).unwrap();
        let b = run_traced_memlink(&small_config()).unwrap();
        assert_eq!(a.export, b.export);
        assert_eq!(a.digest, b.digest);
        let mut other = small_config();
        other.seed = 43;
        let c = run_traced_memlink(&other).unwrap();
        assert_ne!(a.digest, c.digest, "different seed, different capture");
    }

    #[test]
    fn export_roundtrips_through_the_checksummed_format() {
        let report = run_traced_memlink(&small_config()).unwrap();
        let imported = rpclens_trace::export::import(&report.export).unwrap();
        assert_eq!(imported.len(), report.store.len());
        assert_eq!(imported.total_spans(), report.store.total_spans());
        assert_eq!(
            rpclens_trace::export::export(&imported),
            report.export,
            "import/export is byte-stable"
        );
    }

    #[test]
    fn virtual_mode_matches_the_model_and_raises_no_findings() {
        let report = run_traced_memlink(&small_config()).unwrap();
        // In virtual mode measured == modeled up to quantization, so the
        // standing detectors stay quiet — any finding is a pipeline bug.
        assert!(
            report.findings.is_empty(),
            "unexpected findings: {:?}",
            report.findings
        );
        assert!(report.measured.p50_us > 0);
    }

    #[test]
    fn renderers_produce_text_from_the_artifact_alone() {
        let report = run_traced_memlink(&small_config()).unwrap();
        // Round-trip through the export first: the inspect path renders
        // from the artifact bytes without re-running anything.
        let store = rpclens_trace::export::import(&report.export).unwrap();
        let waterfall = waterfall_text(&store, 0).unwrap();
        assert!(waterfall.contains("3 spans"));
        assert!(waterfall.contains("#"), "bars rendered");
        assert!(waterfall_text(&store, 9_999).is_err(), "range checked");
        let deltas = method_delta_text(&store, 42, 300);
        assert!(deltas.contains("measured vs modeled"));
        assert!(deltas.lines().count() > 2, "at least one method row");
        let summary = trace_summary_text(&report);
        assert!(summary.contains("digest"));
        assert!(summary.contains("detectors: clean"));
    }

    #[test]
    fn single_hop_capture_draws_the_untraced_runs_calls() {
        let config = TraceBenchConfig {
            hops: 1,
            ..small_config()
        };
        let traced = run_traced_memlink(&config).unwrap();
        let untraced = crate::wire::run_over_memlink(&crate::wire::WireBenchConfig {
            requests: config.requests,
            seed: config.seed,
            total_methods: config.total_methods,
            ..Default::default()
        })
        .unwrap();
        let spans = || traced.store.traces().iter().flat_map(|t| t.spans.iter());
        assert_eq!(spans().count(), config.requests as usize);
        let request: u64 = spans().map(|s| u64::from(s.request_bytes)).sum();
        let response: u64 = spans().map(|s| u64::from(s.response_bytes)).sum();
        assert_eq!(request, untraced.request_raw_bytes);
        assert_eq!(response, untraced.response_raw_bytes);
    }

    /// The reference for [`window_rows`]: the rows as the detectors once
    /// read them, streamed into a tsdb as three `wire/*` lanes and read
    /// back as per-window deltas.
    fn rows_through_a_tsdb(samples: &[CounterSample]) -> Vec<WindowSample> {
        let total_ns = samples.last().map(|s| s.at_ns).unwrap_or(0).max(1);
        let period = SimDuration::from_nanos(((total_ns / 16).max(TICK_NS) / TICK_NS) * TICK_NS);
        let mut db = TimeSeriesDb::new(period);
        let lanes = [
            "wire/rpcs/count",
            "wire/errors/count",
            "wire/retransmissions/count",
        ];
        for sample in samples {
            let at = SimTime::from_nanos(sample.at_ns);
            let c = &sample.counters;
            for (name, reading) in lanes
                .into_iter()
                .zip([c.roots, c.errors, c.retransmissions])
            {
                db.write(name, at, reading);
            }
        }
        let [rpcs, errors, retries] =
            lanes.map(|name| db.series(name).map(Series::deltas).unwrap_or_default());
        assert!(errors.len() == rpcs.len() && retries.len() == rpcs.len());
        rpcs.iter()
            .zip(&errors)
            .zip(&retries)
            .map(|(((t, rpcs), (_, errors)), (_, retries))| WindowSample {
                window: t.as_nanos() / period.as_nanos(),
                rpcs: *rpcs,
                errors: *errors,
                congested_wire: 0,
                retries: *retries,
            })
            .collect()
    }

    #[test]
    fn window_rows_match_the_tsdb_round_trip() {
        // 48 roots spread over all 16 windows; 5 roots leave most empty.
        for requests in [48, 5] {
            let shared = capture_memlink(&TraceBenchConfig {
                requests,
                ..small_config()
            })
            .unwrap();
            let recorder = shared.borrow();
            // The capture itself is error-free; a copy with every third
            // root failed and every other one retried makes the burn
            // detector fire on the same timestamps.
            let failing: Vec<CounterSample> = recorder
                .samples
                .iter()
                .enumerate()
                .map(|(i, s)| CounterSample {
                    at_ns: s.at_ns,
                    counters: WireCounters {
                        errors: (i as u64 + 3) / 3,
                        retransmissions: (i as u64 + 2) / 2,
                        ..s.counters
                    },
                })
                .collect();
            for (samples, burns) in [(&recorder.samples, false), (&failing, true)] {
                let direct = window_rows(samples);
                let reference = rows_through_a_tsdb(samples);
                assert_eq!(direct, reference, "{requests} roots");
                assert!(direct.len() <= requests as usize && direct.len() <= 17);
                let found = run_detectors(&recorder, &direct);
                assert_eq!(found, run_detectors(&recorder, &reference));
                assert_eq!(!found.is_empty(), burns, "{requests} roots: {found:?}");
            }
            if requests == 5 {
                assert!(window_rows(&recorder.samples).len() < 16);
            }
        }
        assert!(window_rows(&[]).is_empty());
        assert!(rows_through_a_tsdb(&[]).is_empty());
    }

    #[test]
    fn deeper_chains_and_wider_fanout_scale_the_tree() {
        let config = TraceBenchConfig {
            requests: 4,
            seed: 7,
            total_methods: 300,
            hops: 3,
            fanout: 2,
        };
        let report = run_traced_memlink(&config).unwrap();
        // hops=3, fanout=2: 1 + 2 + 4 = 7 spans per trace.
        for trace in report.store.traces() {
            assert_eq!(trace.len(), 7);
            assert_eq!(TreeStats::compute(trace).max_depth, 2);
        }
    }
}
