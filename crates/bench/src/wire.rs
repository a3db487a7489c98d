//! Measured-vs-modeled validation of the RPC stack cost models.
//!
//! The simulator *prices* the RPC stack (Fig. 9's per-RPC latency
//! breakdown, Fig. 20's cycle tax) with
//! [`rpclens_rpcstack::cost::StackCostModel`]. This harness *executes*
//! the same per-component work on a real wire — `rpclens-rpcwire`'s
//! client/server over UDP loopback (or an in-memory link) serving the
//! fleet catalog's methods — and reports measured nanoseconds next to the
//! model's predictions.
//!
//! Component mapping (one RPC, client perspective):
//!
//! | measured                      | modeled                                     |
//! |-------------------------------|---------------------------------------------|
//! | request compression           | sender compress (request bytes)              |
//! | request envelope + framing    | sender serialize + library + alloc (`encode_ns`) |
//! | server decode (piggybacked)   | receiver serialize + compress (request, `decode_ns`) |
//! | transit residual (RTT − server)| both ends' network (request, `wire_ns`) + whole response path |
//!
//! Each stage sum is one method of
//! [`ComponentNanos`](rpclens_rpcstack::cost::ComponentNanos), shared
//! with the virtual clock of `wiretrace`.
//!
//! The residual bucket is honest about what loopback can and cannot
//! isolate: the response's serialize/compress happens inside the server's
//! reply path and rides home inside the RTT, so its modeled counterpart
//! is folded into the transit row. `docs/WIRE.md` discusses the expected
//! deltas (loopback UDP vs the modeled datacenter TCP stack).

use rpclens_fleet::catalog::{Catalog, CatalogConfig};
use rpclens_fleet::servable::ServableTable;
use rpclens_netsim::topology::Topology;
use rpclens_obs::json::Json;
use rpclens_rpcstack::cost::{MessageClass, StackCostConfig, StackCostModel};
use rpclens_rpcwire::client::{ClientStats, PendingCall, RetryPolicy, WireClient};
use rpclens_rpcwire::message::{self, Request, Response, Status, TraceContext, WireError};
use rpclens_rpcwire::payload;
use rpclens_rpcwire::server::{Handler, Semantics, ServerStats, WireServer};
use rpclens_rpcwire::sink::SpanSink;
use rpclens_rpcwire::transport::{MemLink, Transport, UdpServerSocket, UdpTransport};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::stats::nearest_rank;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for one validation run.
#[derive(Debug, Clone, Copy)]
pub struct WireBenchConfig {
    /// RPCs to round-trip.
    pub requests: u32,
    /// Seed for workload sampling, payload bytes, and retry jitter.
    pub seed: u64,
    /// Catalog size (methods).
    pub total_methods: usize,
    /// Invocation semantics under test.
    pub semantics: Semantics,
}

impl Default for WireBenchConfig {
    fn default() -> Self {
        WireBenchConfig {
            requests: 10_000,
            seed: 42,
            total_methods: 400,
            semantics: Semantics::AtLeastOnce,
        }
    }
}

/// The catalog-backed request handler: samples a response body from the
/// method's size model, deterministically per `(client, request)` so
/// re-execution under at-least-once reproduces the same reply.
pub struct CatalogHandler {
    pub(crate) table: Arc<ServableTable>,
    pub(crate) seed: u64,
    body: Vec<u8>,
}

impl CatalogHandler {
    /// Creates a handler serving `table`.
    pub fn new(table: Arc<ServableTable>, seed: u64) -> CatalogHandler {
        CatalogHandler {
            table,
            seed,
            body: Vec::new(),
        }
    }
}

impl Handler for CatalogHandler {
    fn handle(&mut self, request: &Request) -> (Status, Vec<u8>) {
        let Some(method) = self.table.by_wire_id(request.method) else {
            return (Status::NoSuchMethod, Vec::new());
        };
        let mut rng = Prng::seed_from(self.seed ^ request.client_id)
            .stream(request.method)
            .substream(request.request_id);
        let resp_len = payload::sample_wire_len(&method.resp_size, &mut rng);
        payload::fill_body(&mut rng, resp_len, &mut self.body);
        (Status::Ok, std::mem::take(&mut self.body))
    }

    fn compress_response(&self, method: u64) -> bool {
        self.table
            .by_wire_id(method)
            .is_some_and(|m| m.class.compressed)
    }
}

/// Per-component measured/modeled nanosecond sums over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComponentSums {
    /// Request compression on the client.
    pub compress_ns: f64,
    /// Request envelope serialization + framing on the client.
    pub encode_ns: f64,
    /// Server-side request decode (piggybacked in responses).
    pub server_decode_ns: f64,
    /// Everything in flight: RTT minus server decode and handler time.
    pub transit_ns: f64,
}

/// The outcome of one validation run.
#[derive(Debug, Clone)]
pub struct WireReport {
    /// Config echo.
    pub config: WireBenchConfig,
    /// Transport label (`"udp-loopback"` or `"memlink"`).
    pub transport: &'static str,
    /// Calls started.
    pub started: u64,
    /// Calls that completed with a decoded response.
    pub completed: u64,
    /// Calls lost (started minus completed) — the acceptance gate.
    pub lost: u64,
    /// Retransmissions across the run.
    pub retransmissions: u64,
    /// Handler executions on the server.
    pub executed: u64,
    /// Dedup-cache hits on the server.
    pub dedup_hits: u64,
    /// Raw request bytes summed.
    pub request_raw_bytes: u64,
    /// Request bytes that crossed the wire (post-compression).
    pub request_wire_bytes: u64,
    /// Raw response bytes summed.
    pub response_raw_bytes: u64,
    /// Response bytes that crossed the wire.
    pub response_wire_bytes: u64,
    /// Server handler time total (excluded from the comparison — it is
    /// application work, not stack tax).
    pub server_exec_ns: f64,
    /// Measured component sums.
    pub measured: ComponentSums,
    /// Modeled component sums for the same payload byte counts.
    pub modeled: ComponentSums,
    /// RTT percentiles in nanoseconds: (p50, p95, p99).
    pub rtt_percentiles_ns: (f64, f64, f64),
}

impl WireReport {
    /// Measured / modeled ratio per component (NaN-free; 0 when the
    /// model predicts 0).
    pub fn ratios(&self) -> ComponentSums {
        fn ratio(measured: f64, modeled: f64) -> f64 {
            if modeled > 0.0 {
                measured / modeled
            } else {
                0.0
            }
        }
        ComponentSums {
            compress_ns: ratio(self.measured.compress_ns, self.modeled.compress_ns),
            encode_ns: ratio(self.measured.encode_ns, self.modeled.encode_ns),
            server_decode_ns: ratio(
                self.measured.server_decode_ns,
                self.modeled.server_decode_ns,
            ),
            transit_ns: ratio(self.measured.transit_ns, self.modeled.transit_ns),
        }
    }

    /// Renders the manifest-style JSON artifact.
    pub fn to_json(&self) -> Json {
        fn components(c: &ComponentSums) -> Json {
            Json::obj([
                ("compress_ns", Json::Float(c.compress_ns)),
                ("encode_ns", Json::Float(c.encode_ns)),
                ("server_decode_ns", Json::Float(c.server_decode_ns)),
                ("transit_ns", Json::Float(c.transit_ns)),
            ])
        }
        let semantics = match self.config.semantics {
            Semantics::AtMostOnce => "at-most-once",
            Semantics::AtLeastOnce => "at-least-once",
        };
        Json::obj([
            ("kind", Json::Str("wire-validation".into())),
            (
                "config",
                Json::obj([
                    ("requests", Json::Uint(self.config.requests as u128)),
                    ("seed", Json::Uint(self.config.seed as u128)),
                    (
                        "total_methods",
                        Json::Uint(self.config.total_methods as u128),
                    ),
                    ("semantics", Json::Str(semantics.into())),
                    ("transport", Json::Str(self.transport.into())),
                ]),
            ),
            (
                "calls",
                Json::obj([
                    ("started", Json::Uint(self.started as u128)),
                    ("completed", Json::Uint(self.completed as u128)),
                    ("lost", Json::Uint(self.lost as u128)),
                    ("retransmissions", Json::Uint(self.retransmissions as u128)),
                    ("executed", Json::Uint(self.executed as u128)),
                    ("dedup_hits", Json::Uint(self.dedup_hits as u128)),
                ]),
            ),
            (
                "bytes",
                Json::obj([
                    ("request_raw", Json::Uint(self.request_raw_bytes as u128)),
                    ("request_wire", Json::Uint(self.request_wire_bytes as u128)),
                    ("response_raw", Json::Uint(self.response_raw_bytes as u128)),
                    (
                        "response_wire",
                        Json::Uint(self.response_wire_bytes as u128),
                    ),
                    (
                        "compression_ratio",
                        Json::Float(
                            (self.request_wire_bytes + self.response_wire_bytes) as f64
                                / (self.request_raw_bytes + self.response_raw_bytes).max(1) as f64,
                        ),
                    ),
                ]),
            ),
            ("measured_ns", components(&self.measured)),
            ("modeled_ns", components(&self.modeled)),
            ("ratio_measured_over_modeled", components(&self.ratios())),
            (
                "rtt_ns",
                Json::obj([
                    ("p50", Json::Float(self.rtt_percentiles_ns.0)),
                    ("p95", Json::Float(self.rtt_percentiles_ns.1)),
                    ("p99", Json::Float(self.rtt_percentiles_ns.2)),
                ]),
            ),
            ("server_exec_ns", Json::Float(self.server_exec_ns)),
        ])
    }
}

/// Builds the servable table for a config's catalog.
pub fn build_table(config: &WireBenchConfig) -> ServableTable {
    let topology = Topology::default_world(config.seed);
    let catalog = Catalog::generate(
        &CatalogConfig {
            total_methods: config.total_methods,
            seed: config.seed,
        },
        &topology,
    );
    ServableTable::from_catalog(&catalog)
}

/// Client id of the root (hop-0) client; nested traced hops use
/// `CLIENT_ID_BASE + depth`.
pub(crate) const CLIENT_ID_BASE: u64 = 0xBE7C;

/// The seed stream every run draws its root calls from.
const WORKLOAD_STREAM: u64 = 0x317E;

/// One prepared, per-stage-timed request.
pub(crate) struct PreparedCall {
    method_class: MessageClass,
    req_raw_len: u64,
    req_wire_len: u64,
    compress_ns: f64,
    encode_ns: f64,
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Where a started call completes: the server one client talks to,
/// driven from the client's side. The two real sides are an in-process
/// [`WireServer`] over a [`MemLink`] and a [`UdpServer`] thread; tests
/// substitute fakes.
pub(crate) trait ServerSide<T: Transport> {
    /// Drives `pending` to its response or error.
    fn complete<K: SpanSink>(
        &mut self,
        client: &mut WireClient<T, K>,
        pending: &mut PendingCall,
    ) -> Result<Response, WireError>;
}

impl<H: Handler, K: SpanSink> ServerSide<MemLink> for WireServer<MemLink, H, K> {
    fn complete<C: SpanSink>(
        &mut self,
        client: &mut WireClient<MemLink, C>,
        pending: &mut PendingCall,
    ) -> Result<Response, WireError> {
        loop {
            self.poll().map_err(WireError::Io)?;
            match client.try_complete(pending, Duration::ZERO)? {
                Some(response) => return Ok(response),
                // The link is lossless, so a missing reply means the
                // serve/complete interleaving raced; just resend.
                None => client.retransmit(pending)?,
            }
        }
    }
}

/// A catalog server on its own thread behind a loopback
/// [`UdpServerSocket`]; the client drives the retry policy with real
/// timers. Dropping it stops and joins the thread.
pub(crate) struct UdpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<ServerStats>>,
}

impl UdpServer {
    /// Binds an ephemeral loopback port and starts serving `table`.
    pub(crate) fn spawn(
        table: Arc<ServableTable>,
        seed: u64,
        semantics: Semantics,
    ) -> Result<UdpServer, WireError> {
        let socket = UdpServerSocket::bind("127.0.0.1:0").map_err(WireError::Io)?;
        let addr = socket.local_addr().map_err(WireError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut server =
                    WireServer::new(socket, CatalogHandler::new(table, seed), semantics);
                server
                    .serve(Duration::from_millis(5), |_| stop.load(Ordering::Relaxed))
                    .expect("wire server failed");
                server.stats()
            })
        };
        Ok(UdpServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// A client transport connected to this server.
    pub(crate) fn connect(&self) -> Result<UdpTransport, WireError> {
        UdpTransport::connect(self.addr).map_err(WireError::Io)
    }

    /// Stops the server and returns its counters.
    pub(crate) fn join(mut self) -> ServerStats {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("joined once");
        thread.join().expect("wire server thread panicked")
    }
}

impl Drop for UdpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // A panic there already failed the run; the join only
            // keeps the thread from outliving it.
            let _ = thread.join();
        }
    }
}

impl ServerSide<UdpTransport> for UdpServer {
    fn complete<K: SpanSink>(
        &mut self,
        client: &mut WireClient<UdpTransport, K>,
        pending: &mut PendingCall,
    ) -> Result<Response, WireError> {
        client.drive(pending)
    }
}

/// The call step every harness RPC goes through: draws a method, a
/// request length and a body from `rng`, encodes and frames the request
/// with each stage timed (carrying `trace` when given), and completes it
/// through `server`. Returns the prepared call, the response and the
/// RTT in nanoseconds.
pub(crate) fn call<T: Transport, K: SpanSink, S: ServerSide<T>>(
    client: &mut WireClient<T, K>,
    server: &mut S,
    table: &ServableTable,
    rng: &mut Prng,
    trace: Option<TraceContext>,
    body: &mut Vec<u8>,
) -> Result<(PreparedCall, Response, f64), WireError> {
    let method = table.sample_root(rng);
    let method_id = u64::from(method.method.0);
    let req_len = payload::sample_wire_len(&method.req_size, rng);
    payload::fill_body(rng, req_len, body);
    let request_id = client.allocate_request_id();

    let compress_started = Instant::now();
    let wire_body = message::encode_body(body, method.class.compressed);
    let compress_ns = elapsed_ns(compress_started);

    let encode_started = Instant::now();
    let payload_bytes = message::serialize_request(&wire_body, trace.as_ref());
    let datagram = message::frame_request(
        method_id,
        client.client_id(),
        request_id,
        payload_bytes,
        wire_body.compressed,
        trace.is_some(),
    );
    let encode_ns = elapsed_ns(encode_started);

    let prepared = PreparedCall {
        method_class: method.class,
        req_raw_len: wire_body.raw_len as u64,
        req_wire_len: wire_body.bytes.len() as u64,
        compress_ns,
        encode_ns,
    };
    let rtt_started = Instant::now();
    let mut pending =
        client.start_prepared(request_id, datagram, method_id, wire_body.raw_len, trace)?;
    let response = server.complete(client, &mut pending)?;
    Ok((prepared, response, elapsed_ns(rtt_started)))
}

/// The outcome policy for a [`call`]: `Some` on a response; `None` when
/// the server answered with an error status (the call completed, and its
/// span records the error) or the call timed out (it was lost, and the
/// run goes on). Any other error aborts the run.
pub(crate) fn settle<R>(outcome: Result<R, WireError>) -> Result<Option<R>, WireError> {
    match outcome {
        Ok(completed) => Ok(Some(completed)),
        Err(WireError::Server(_) | WireError::TimedOut { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The runner: issues `requests` root calls drawn from the seed's
/// workload stream, each carrying the context `begin_trace` supplies,
/// and accumulates every call that completed.
pub(crate) fn run_calls<T: Transport, K: SpanSink, S: ServerSide<T>>(
    client: &mut WireClient<T, K>,
    server: &mut S,
    table: &ServableTable,
    seed: u64,
    requests: u32,
    mut begin_trace: impl FnMut() -> Option<TraceContext>,
) -> Result<Accumulator, WireError> {
    let mut rng = Prng::seed_from(seed).stream(WORKLOAD_STREAM);
    let mut acc = Accumulator::new();
    let mut body = Vec::new();
    for _ in 0..requests {
        let trace = begin_trace();
        let outcome = call(client, server, table, &mut rng, trace, &mut body);
        if let Some((prepared, response, rtt_ns)) = settle(outcome)? {
            acc.record(&prepared, &response, rtt_ns);
        }
    }
    Ok(acc)
}

/// Sums over a run's completed calls.
pub(crate) struct Accumulator {
    model: StackCostModel,
    request_raw_bytes: u64,
    request_wire_bytes: u64,
    response_raw_bytes: u64,
    response_wire_bytes: u64,
    server_exec_ns: f64,
    measured: ComponentSums,
    modeled: ComponentSums,
    rtts: Vec<f64>,
}

impl Accumulator {
    fn new() -> Accumulator {
        Accumulator {
            model: StackCostModel::new(StackCostConfig::default()),
            request_raw_bytes: 0,
            request_wire_bytes: 0,
            response_raw_bytes: 0,
            response_wire_bytes: 0,
            server_exec_ns: 0.0,
            measured: ComponentSums::default(),
            modeled: ComponentSums::default(),
            rtts: Vec::new(),
        }
    }

    fn record(&mut self, prepared: &PreparedCall, response: &Response, rtt_ns: f64) {
        self.request_raw_bytes += prepared.req_raw_len;
        self.request_wire_bytes += prepared.req_wire_len;
        self.response_raw_bytes += response.body.len() as u64;
        self.response_wire_bytes += response.wire_body_len as u64;

        let server_ns = (response.server_decode_ns + response.server_exec_ns) as f64;
        self.measured.compress_ns += prepared.compress_ns;
        self.measured.encode_ns += prepared.encode_ns;
        self.measured.server_decode_ns += response.server_decode_ns as f64;
        self.measured.transit_ns += (rtt_ns - server_ns).max(0.0);
        self.server_exec_ns += response.server_exec_ns as f64;
        self.rtts.push(rtt_ns);

        // Modeled counterparts over the same raw payload byte counts.
        let class = prepared.method_class;
        let req_send = self.model.sender_component_ns(prepared.req_raw_len, class);
        let req_recv = self
            .model
            .receiver_component_ns(prepared.req_raw_len, class);
        let resp_bytes = response.body.len() as u64;
        let resp_send = self.model.sender_component_ns(resp_bytes, class);
        let resp_recv = self.model.receiver_component_ns(resp_bytes, class);
        let m = &mut self.modeled;
        m.compress_ns += req_send.compress_ns;
        m.encode_ns += req_send.encode_ns();
        m.server_decode_ns += req_recv.decode_ns();
        m.transit_ns += req_send.wire_ns(&req_recv) + resp_send.tax_ns + resp_recv.tax_ns;
    }

    fn finish(
        mut self,
        config: WireBenchConfig,
        transport: &'static str,
        client: ClientStats,
        server: ServerStats,
    ) -> WireReport {
        self.rtts.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| nearest_rank(&self.rtts, p).unwrap_or(0.0);
        WireReport {
            config,
            transport,
            started: client.calls,
            completed: client.completed,
            lost: client.calls - client.completed,
            retransmissions: client.retransmissions,
            executed: server.executed,
            dedup_hits: server.dedup_hits,
            request_raw_bytes: self.request_raw_bytes,
            request_wire_bytes: self.request_wire_bytes,
            response_raw_bytes: self.response_raw_bytes,
            response_wire_bytes: self.response_wire_bytes,
            server_exec_ns: self.server_exec_ns,
            measured: self.measured,
            modeled: self.modeled,
            rtt_percentiles_ns: (pct(0.50), pct(0.95), pct(0.99)),
        }
    }
}

/// Runs the validation with client and server in one thread over an
/// in-memory link; no sockets, deterministic apart from wall timings.
pub fn run_over_memlink(config: &WireBenchConfig) -> Result<WireReport, WireError> {
    let table = Arc::new(build_table(config));
    let (client_end, server_end) = MemLink::pair();
    let handler = CatalogHandler::new(table.clone(), config.seed);
    let mut server = WireServer::new(server_end, handler, config.semantics);
    let mut client = WireClient::new(
        client_end,
        CLIENT_ID_BASE,
        RetryPolicy::default(),
        config.seed,
    );
    let acc = run_calls(
        &mut client,
        &mut server,
        &table,
        config.seed,
        config.requests,
        || None,
    )?;
    Ok(acc.finish(*config, "memlink", client.stats(), server.stats()))
}

/// Runs the validation over real UDP loopback: the server on its own
/// thread, the client driving the retry policy with real timers. Lost
/// calls do not fail the run; the report counts them in `lost`.
pub fn run_over_udp(config: &WireBenchConfig) -> Result<WireReport, WireError> {
    let table = Arc::new(build_table(config));
    let mut server = UdpServer::spawn(table.clone(), config.seed, config.semantics)?;
    let mut client = WireClient::new(
        server.connect()?,
        CLIENT_ID_BASE,
        RetryPolicy::default(),
        config.seed,
    );
    let acc = run_calls(
        &mut client,
        &mut server,
        &table,
        config.seed,
        config.requests,
        || None,
    )?;
    let server_stats = server.join();
    Ok(acc.finish(*config, "udp-loopback", client.stats(), server_stats))
}

/// Serves the catalog over UDP until the process is killed (the
/// `rpclens-wire serve` entry point). Prints the bound address on stdout
/// so scripts can discover an OS-assigned port.
pub fn serve_udp_forever(addr: &str, config: &WireBenchConfig) -> Result<(), WireError> {
    let table = Arc::new(build_table(config));
    let server_socket = UdpServerSocket::bind(addr).map_err(WireError::Io)?;
    let bound = server_socket.local_addr().map_err(WireError::Io)?;
    println!("serving {} methods on {bound}", table.len());
    let mut server = WireServer::new(
        server_socket,
        CatalogHandler::new(table, config.seed),
        config.semantics,
    );
    server
        .serve(Duration::from_millis(50), |_| false)
        .map_err(WireError::Io)
}

/// Renders a human-readable measured-vs-modeled table from a
/// wire-validation artifact (the `rpclens-inspect wire` view).
pub fn wire_text(artifact: &Json) -> Result<String, String> {
    use std::fmt::Write as _;
    let kind = artifact.get("kind").and_then(Json::as_str);
    if kind != Some("wire-validation") {
        return Err(format!(
            "not a wire-validation artifact (kind: {})",
            kind.unwrap_or("missing")
        ));
    }
    let section = |name: &str| -> Result<&Json, String> {
        artifact
            .get(name)
            .ok_or_else(|| format!("artifact missing `{name}`"))
    };
    let field =
        |obj: &Json, name: &str| -> f64 { obj.get(name).and_then(Json::as_f64).unwrap_or(0.0) };
    let count =
        |obj: &Json, name: &str| -> u64 { obj.get(name).and_then(Json::as_u64).unwrap_or(0) };

    let config = section("config")?;
    let calls = section("calls")?;
    let bytes = section("bytes")?;
    let measured = section("measured_ns")?;
    let modeled = section("modeled_ns")?;
    let rtt = section("rtt_ns")?;

    let completed = count(calls, "completed").max(1);
    let mut out = String::new();
    writeln!(
        out,
        "wire validation: {} requests over {} ({} semantics, seed {})",
        count(calls, "started"),
        config
            .get("transport")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        config
            .get("semantics")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        count(config, "seed"),
    )
    .unwrap();
    writeln!(
        out,
        "calls: {} completed, {} lost, {} retransmissions, {} executed, {} dedup hits",
        count(calls, "completed"),
        count(calls, "lost"),
        count(calls, "retransmissions"),
        count(calls, "executed"),
        count(calls, "dedup_hits"),
    )
    .unwrap();
    writeln!(
        out,
        "bytes: {} raw -> {} wire (ratio {:.3})",
        count(bytes, "request_raw") + count(bytes, "response_raw"),
        count(bytes, "request_wire") + count(bytes, "response_wire"),
        field(bytes, "compression_ratio"),
    )
    .unwrap();
    writeln!(
        out,
        "rtt: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
        field(rtt, "p50") / 1e3,
        field(rtt, "p95") / 1e3,
        field(rtt, "p99") / 1e3,
    )
    .unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>8}",
        "component", "measured/call", "modeled/call", "ratio"
    )
    .unwrap();
    for key in ["compress_ns", "encode_ns", "server_decode_ns", "transit_ns"] {
        let m = field(measured, key) / completed as f64;
        let p = field(modeled, key) / completed as f64;
        let ratio = if p > 0.0 { m / p } else { 0.0 };
        writeln!(
            out,
            "{:<16} {:>11.1} ns {:>11.1} ns {:>7.2}x",
            key.trim_end_matches("_ns"),
            m,
            p,
            ratio
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> WireBenchConfig {
        WireBenchConfig {
            requests: 50,
            seed: 7,
            total_methods: 300,
            semantics: Semantics::AtLeastOnce,
        }
    }

    #[test]
    fn memlink_run_loses_nothing_and_reports_components() {
        let report = run_over_memlink(&small_config()).unwrap();
        assert_eq!(report.started, 50);
        assert_eq!(report.completed, 50);
        assert_eq!(report.lost, 0);
        assert!(report.request_raw_bytes > 0);
        assert!(report.measured.compress_ns > 0.0);
        assert!(report.modeled.compress_ns > 0.0);
        assert!(report.modeled.transit_ns > 0.0);
        // Compression actually shrinks the wire (catalog defaults are
        // compressed structured payloads).
        assert!(report.request_wire_bytes < report.request_raw_bytes);
    }

    #[test]
    fn report_json_roundtrips_through_the_obs_parser() {
        let report = run_over_memlink(&small_config()).unwrap();
        let text = report.to_json().to_pretty();
        let parsed = rpclens_obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("wire-validation")
        );
        let rendered = wire_text(&parsed).unwrap();
        assert!(rendered.contains("compress"), "{rendered}");
        assert!(rendered.contains("ratio"), "{rendered}");
    }

    /// An in-process server side that reports the chosen calls (1-based)
    /// as timed out without serving them, as a lossy wire would.
    struct LosesCalls {
        server: WireServer<MemLink, CatalogHandler>,
        calls: u64,
        lose: &'static [u64],
    }

    impl ServerSide<MemLink> for LosesCalls {
        fn complete<K: SpanSink>(
            &mut self,
            client: &mut WireClient<MemLink, K>,
            pending: &mut PendingCall,
        ) -> Result<Response, WireError> {
            self.calls += 1;
            if self.lose.contains(&self.calls) {
                return Err(WireError::TimedOut {
                    attempts: pending.attempts,
                });
            }
            self.server.complete(client, pending)
        }
    }

    #[test]
    fn lost_calls_are_reported_not_fatal() {
        let config = small_config();
        let table = Arc::new(build_table(&config));
        let (client_end, server_end) = MemLink::pair();
        let handler = CatalogHandler::new(table.clone(), config.seed);
        let mut server = LosesCalls {
            server: WireServer::new(server_end, handler, config.semantics),
            calls: 0,
            lose: &[3, 17, 50],
        };
        let mut client = WireClient::new(
            client_end,
            CLIENT_ID_BASE,
            RetryPolicy::default(),
            config.seed,
        );
        let acc = run_calls(
            &mut client,
            &mut server,
            &table,
            config.seed,
            config.requests,
            || None,
        )
        .expect("lost calls do not abort the run");
        let report = acc.finish(config, "memlink", client.stats(), server.server.stats());
        assert_eq!(report.started, 50);
        assert_eq!(report.lost, 3);
        assert_eq!(report.completed, 47);
        let artifact = report.to_json();
        let calls = artifact.get("calls").expect("calls section");
        assert_eq!(calls.get("lost").and_then(Json::as_u64), Some(3));
        assert_eq!(calls.get("completed").and_then(Json::as_u64), Some(47));
    }

    #[test]
    fn wire_text_rejects_foreign_artifacts() {
        let other = Json::obj([("kind", Json::Str("telemetry".into()))]);
        assert!(wire_text(&other).is_err());
    }

    #[test]
    fn workload_side_is_deterministic_per_seed() {
        let a = run_over_memlink(&small_config()).unwrap();
        let b = run_over_memlink(&small_config()).unwrap();
        // Timings differ run to run, but every byte count and call count
        // must be identical.
        assert_eq!(a.request_raw_bytes, b.request_raw_bytes);
        assert_eq!(a.request_wire_bytes, b.request_wire_bytes);
        assert_eq!(a.response_raw_bytes, b.response_raw_bytes);
        assert_eq!(a.response_wire_bytes, b.response_wire_bytes);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.modeled.compress_ns, b.modeled.compress_ns);
        assert_eq!(a.modeled.transit_ns, b.modeled.transit_ns);
    }
}
