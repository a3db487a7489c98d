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
//! | request envelope + framing    | sender serialize + library + alloc           |
//! | server decode (piggybacked)   | receiver serialize + compress (request)      |
//! | transit residual (RTT − server)| both ends' network (request) + whole response path |
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
use rpclens_rpcwire::client::{RetryPolicy, WireClient};
use rpclens_rpcwire::message::{self, Request, Status, WireError};
use rpclens_rpcwire::payload;
use rpclens_rpcwire::server::{Handler, Semantics, WireServer};
use rpclens_rpcwire::transport::{MemLink, UdpServerSocket, UdpTransport};
use rpclens_simcore::rng::Prng;
use rpclens_simcore::stats::nearest_rank;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// One prepared, per-stage-timed request.
struct PreparedCall {
    method_class: MessageClass,
    req_raw_len: u64,
    req_wire_len: u64,
    compress_ns: f64,
    encode_ns: f64,
    datagram: bytes::Bytes,
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

fn prepare_call(
    table: &ServableTable,
    rng: &mut Prng,
    client_id: u64,
    request_id: u64,
    body_buf: &mut Vec<u8>,
) -> PreparedCall {
    let method = table.sample_root(rng);
    let req_len = payload::sample_wire_len(&method.req_size, rng);
    payload::fill_body(rng, req_len, body_buf);

    let compress_started = Instant::now();
    let wire_body = message::encode_body(body_buf, method.class.compressed);
    let compress_ns = elapsed_ns(compress_started);

    let encode_started = Instant::now();
    let payload_bytes = message::serialize_request(&wire_body);
    let datagram = message::frame_request(
        method.method.0 as u64,
        client_id,
        request_id,
        payload_bytes,
        wire_body.compressed,
    );
    let encode_ns = elapsed_ns(encode_started);

    PreparedCall {
        method_class: method.class,
        req_raw_len: wire_body.raw_len as u64,
        req_wire_len: wire_body.bytes.len() as u64,
        compress_ns,
        encode_ns,
        datagram,
    }
}

/// Accumulates one completed call into the report under construction.
struct Accumulator {
    model: StackCostModel,
    report: WireReport,
    rtts: Vec<f64>,
}

impl Accumulator {
    fn new(config: WireBenchConfig, transport: &'static str) -> Accumulator {
        Accumulator {
            model: StackCostModel::new(StackCostConfig::default()),
            report: WireReport {
                config,
                transport,
                started: 0,
                completed: 0,
                lost: 0,
                retransmissions: 0,
                executed: 0,
                dedup_hits: 0,
                request_raw_bytes: 0,
                request_wire_bytes: 0,
                response_raw_bytes: 0,
                response_wire_bytes: 0,
                server_exec_ns: 0.0,
                measured: ComponentSums::default(),
                modeled: ComponentSums::default(),
                rtt_percentiles_ns: (0.0, 0.0, 0.0),
            },
            rtts: Vec::new(),
        }
    }

    fn record(&mut self, prepared: &PreparedCall, response: &message::Response, rtt_ns: f64) {
        let r = &mut self.report;
        r.request_raw_bytes += prepared.req_raw_len;
        r.request_wire_bytes += prepared.req_wire_len;
        r.response_raw_bytes += response.body.len() as u64;
        r.response_wire_bytes += response.wire_body_len as u64;

        let server_ns = (response.server_decode_ns + response.server_exec_ns) as f64;
        r.measured.compress_ns += prepared.compress_ns;
        r.measured.encode_ns += prepared.encode_ns;
        r.measured.server_decode_ns += response.server_decode_ns as f64;
        r.measured.transit_ns += (rtt_ns - server_ns).max(0.0);
        r.server_exec_ns += response.server_exec_ns as f64;
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
        r.modeled.compress_ns += req_send.compress_ns;
        r.modeled.encode_ns += req_send.serialize_ns + req_send.library_ns + req_send.alloc_ns;
        r.modeled.server_decode_ns += req_recv.serialize_ns + req_recv.compress_ns;
        r.modeled.transit_ns +=
            req_send.network_ns + req_recv.network_ns + resp_send.tax_ns + resp_recv.tax_ns;
    }

    fn finish(
        mut self,
        started: u64,
        completed: u64,
        retransmissions: u64,
        executed: u64,
        dedup_hits: u64,
    ) -> WireReport {
        self.report.started = started;
        self.report.completed = completed;
        self.report.lost = started - completed;
        self.report.retransmissions = retransmissions;
        self.report.executed = executed;
        self.report.dedup_hits = dedup_hits;
        self.rtts.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| nearest_rank(&self.rtts, p).unwrap_or(0.0);
        self.report.rtt_percentiles_ns = (pct(0.50), pct(0.95), pct(0.99));
        self.report
    }
}

/// Runs the validation with client and server in one thread over an
/// in-memory link; no sockets, deterministic apart from wall timings.
pub fn run_over_memlink(config: &WireBenchConfig) -> Result<WireReport, WireError> {
    let table = Arc::new(build_table(config));
    let (client_end, server_end) = MemLink::pair();
    let mut server = WireServer::new(
        server_end,
        CatalogHandler::new(table.clone(), config.seed),
        config.semantics,
    );
    let mut client = WireClient::new(client_end, 0xBE7C, RetryPolicy::default(), config.seed);
    let mut workload_rng = Prng::seed_from(config.seed).stream(0x317E);
    let mut acc = Accumulator::new(*config, "memlink");
    let mut body_buf = Vec::new();

    for _ in 0..config.requests {
        let request_id = client.allocate_request_id();
        let prepared = prepare_call(
            &table,
            &mut workload_rng,
            client.client_id(),
            request_id,
            &mut body_buf,
        );
        let rtt_started = Instant::now();
        let mut pending = client.start_prepared(request_id, prepared.datagram.clone())?;
        let response = loop {
            server.poll().map_err(WireError::Io)?;
            match client.try_complete(&pending, Duration::ZERO)? {
                Some(resp) => break resp,
                // The link is lossless, so a missing reply means the
                // serve/complete interleaving raced; just resend.
                None => client.retransmit(&mut pending)?,
            }
        };
        let rtt_ns = elapsed_ns(rtt_started);
        acc.record(&prepared, &response, rtt_ns);
    }

    let (cs, ss) = (client.stats(), server.stats());
    Ok(acc.finish(
        cs.calls,
        cs.completed,
        cs.retransmissions,
        ss.executed,
        ss.dedup_hits,
    ))
}

/// Runs the validation over real UDP loopback: the server on its own
/// thread behind a `UdpServerSocket`, the client driving the retry policy
/// with real timers.
pub fn run_over_udp(config: &WireBenchConfig) -> Result<WireReport, WireError> {
    let table = Arc::new(build_table(config));
    let server_socket = UdpServerSocket::bind("127.0.0.1:0").map_err(WireError::Io)?;
    let server_addr = server_socket.local_addr().map_err(WireError::Io)?;
    let stop = Arc::new(AtomicBool::new(false));

    let server_thread = {
        let table = table.clone();
        let stop = stop.clone();
        let seed = config.seed;
        let semantics = config.semantics;
        std::thread::spawn(move || {
            let mut server =
                WireServer::new(server_socket, CatalogHandler::new(table, seed), semantics);
            server
                .serve(Duration::from_millis(5), |_| stop.load(Ordering::Relaxed))
                .expect("wire server failed");
            server.stats()
        })
    };

    let transport = UdpTransport::connect(server_addr).map_err(WireError::Io)?;
    let mut client = WireClient::new(transport, 0xBE7C, RetryPolicy::default(), config.seed);
    let mut workload_rng = Prng::seed_from(config.seed).stream(0x317E);
    let mut acc = Accumulator::new(*config, "udp-loopback");
    let mut body_buf = Vec::new();
    let mut first_error = None;

    for _ in 0..config.requests {
        let request_id = client.allocate_request_id();
        let prepared = prepare_call(
            &table,
            &mut workload_rng,
            client.client_id(),
            request_id,
            &mut body_buf,
        );
        let rtt_started = Instant::now();
        let mut pending = client.start_prepared(request_id, prepared.datagram.clone())?;
        match client.drive(&mut pending) {
            Ok(response) => {
                let rtt_ns = elapsed_ns(rtt_started);
                acc.record(&prepared, &response, rtt_ns);
            }
            Err(e) => {
                // Keep going so the report still captures loss counts; the
                // first error is surfaced alongside.
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }

    stop.store(true, Ordering::Relaxed);
    let server_stats = server_thread.join().expect("server thread panicked");
    let cs = client.stats();
    let report = acc.finish(
        cs.calls,
        cs.completed,
        cs.retransmissions,
        server_stats.executed,
        server_stats.dedup_hits,
    );
    match first_error {
        Some(e) if report.lost > 0 => Err(e),
        _ => Ok(report),
    }
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
