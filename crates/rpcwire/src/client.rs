//! The wire client: request/reply matching plus seeded-jitter
//! retransmission.
//!
//! A [`WireClient`] owns a point-to-point [`Transport`] to one server and
//! a monotonically increasing request-id counter. Each call:
//!
//! 1. serializes, optionally compresses, and frames the request;
//! 2. sends it and waits up to the current retransmission timeout;
//! 3. on expiry, resends the *identical* datagram (same request id — the
//!    server's dedup cache depends on that) with exponential backoff and
//!    seeded jitter, like `rpcstack::retry`'s `BackoffPolicy`;
//! 4. on receipt, matches `(client_id, request_id)` and discards stale
//!    or duplicate replies.
//!
//! The deterministic step API ([`WireClient::start_call`] /
//! [`WireClient::try_complete`] / [`WireClient::retransmit`]) exposes the
//! same state machine without timers, so single-threaded tests can
//! interleave client and server at exact points in a fault schedule.

use crate::message::{self, Message, Response, Status, TraceContext, WireError};
use crate::sink::{NullSink, SpanEvent, SpanEventKind, SpanSink};
use crate::transport::{Transport, MAX_DATAGRAM};
use bytes::Bytes;
use rpclens_simcore::rng::Prng;
use std::time::Duration;

// The retransmission-timer policy: exponential backoff with seeded
// jitter.

/// First-attempt timeout.
const INITIAL_TIMEOUT: Duration = Duration::from_millis(20);
/// Multiplier applied per expiry.
const MULTIPLIER: f64 = 2.0;
/// Cap on any single timeout.
const MAX_TIMEOUT: Duration = Duration::from_millis(500);
/// Jitter fraction: each timeout is scaled by a seeded uniform draw from
/// `[1 - JITTER, 1 + JITTER]`, decorrelating retransmission storms
/// across clients.
const JITTER: f64 = 0.25;
/// Total transmissions allowed (first send plus retransmissions).
const MAX_ATTEMPTS: u32 = 16;

/// The timeout to arm for `attempt` (0-based), drawing jitter from `rng`.
/// Deterministic for a given rng state.
fn timeout_for(attempt: u32, rng: &mut Prng) -> Duration {
    let base = INITIAL_TIMEOUT.as_secs_f64() * MULTIPLIER.powi(attempt.min(24) as i32);
    let capped = base.min(MAX_TIMEOUT.as_secs_f64());
    let scale = 1.0 + JITTER * (2.0 * rng.next_f64() - 1.0);
    Duration::from_secs_f64((capped * scale).max(1e-6))
}

/// Counters for one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls started.
    pub calls: u64,
    /// Calls that completed with a decoded response.
    pub completed: u64,
    /// Retransmissions sent (beyond each call's first datagram).
    pub retransmissions: u64,
    /// Replies discarded as duplicates or stale (matching an old id).
    pub stale_replies: u64,
    /// Received datagrams that failed to decode.
    pub decode_errors: u64,
    /// Calls that exhausted every attempt.
    pub timeouts: u64,
}

/// An in-flight call: the immutable datagram plus matching state.
#[derive(Debug, Clone)]
pub struct PendingCall {
    /// The request id the reply must carry.
    pub request_id: u64,
    /// The exact bytes (re)transmitted.
    pub datagram: Bytes,
    /// Transmissions so far.
    pub attempts: u32,
    /// The catalog method id, carried so span events name the method.
    pub method: u64,
    /// The trace context embedded in the datagram, if any.
    pub context: Option<TraceContext>,
}

/// The wire client. See the module docs.
///
/// The `K` parameter is the [`SpanSink`] receiving span events; it
/// defaults to [`NullSink`] so untraced clients pay nothing.
pub struct WireClient<T: Transport, K: SpanSink = NullSink> {
    transport: T,
    client_id: u64,
    next_request_id: u64,
    rng: Prng,
    stats: ClientStats,
    buf: Vec<u8>,
    sink: K,
}

impl<T: Transport> WireClient<T> {
    /// Creates a client. `client_id` namespaces its request ids on the
    /// server; `seed` drives retransmission jitter.
    pub fn new(transport: T, client_id: u64, seed: u64) -> WireClient<T> {
        WireClient {
            transport,
            client_id,
            next_request_id: 1,
            rng: Prng::seed_from(seed).stream(0x00C1_1E47),
            stats: ClientStats::default(),
            buf: vec![0u8; MAX_DATAGRAM + 4096],
            sink: NullSink,
        }
    }
}

impl<T: Transport, K: SpanSink> WireClient<T, K> {
    /// Rebinds the client to a different span sink, consuming it.
    /// Pending calls remain valid across the rebind.
    pub fn with_span_sink<K2: SpanSink>(self, sink: K2) -> WireClient<T, K2> {
        WireClient {
            transport: self.transport,
            client_id: self.client_id,
            next_request_id: self.next_request_id,
            rng: self.rng,
            stats: self.stats,
            buf: self.buf,
            sink,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// This client's identity.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The underlying transport.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Builds and sends a request datagram, returning the pending call.
    /// Part of the deterministic step API.
    pub fn start_call(
        &mut self,
        method: u64,
        body: &[u8],
        compress: bool,
    ) -> Result<PendingCall, WireError> {
        self.start_call_traced(method, body, compress, None)
    }

    /// [`WireClient::start_call`] with a trace context embedded in the
    /// request envelope; the server re-propagates it to nested calls.
    pub fn start_call_traced(
        &mut self,
        method: u64,
        body: &[u8],
        compress: bool,
        trace: Option<TraceContext>,
    ) -> Result<PendingCall, WireError> {
        let request_id = self.allocate_request_id();
        let datagram = message::encode_request_traced(
            method,
            self.client_id,
            request_id,
            body,
            compress,
            trace.as_ref(),
        );
        self.start_prepared(request_id, datagram, method, body.len(), trace)
    }

    /// Sends a datagram the caller framed itself as a new call (the
    /// validation harness frames requests to time each encoding stage).
    /// The caller declares the method, the raw body length and the trace
    /// context it framed in, so span events carry them (the client does
    /// not re-decode its own frames).
    pub fn start_prepared(
        &mut self,
        request_id: u64,
        datagram: Bytes,
        method: u64,
        raw_len: usize,
        trace: Option<TraceContext>,
    ) -> Result<PendingCall, WireError> {
        self.transport.send(&datagram)?;
        self.stats.calls += 1;
        let mut event = SpanEvent::new(
            SpanEventKind::ClientSend,
            method,
            self.client_id,
            request_id,
        );
        event.context = trace;
        event.wire_bytes = datagram.len();
        event.raw_bytes = raw_len;
        self.sink.record(&event);
        Ok(PendingCall {
            request_id,
            datagram,
            attempts: 1,
            method,
            context: trace,
        })
    }

    /// Allocates the next request id (for externally framed calls).
    pub fn allocate_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Resends the identical datagram. Part of the step API; the
    /// blocking loop calls it on timer expiry.
    pub fn retransmit(&mut self, call: &mut PendingCall) -> Result<(), WireError> {
        self.transport.send(&call.datagram)?;
        call.attempts += 1;
        self.stats.retransmissions += 1;
        let mut event = SpanEvent::new(
            SpanEventKind::ClientRetransmit,
            call.method,
            self.client_id,
            call.request_id,
        );
        event.context = call.context;
        event.wire_bytes = call.datagram.len();
        self.sink.record(&event);
        Ok(())
    }

    /// Drains received datagrams for up to `timeout`, returning the
    /// response matching `call` if one arrives. Stale replies and
    /// undecodable datagrams are counted and discarded.
    pub fn try_complete(
        &mut self,
        call: &PendingCall,
        timeout: Duration,
    ) -> Result<Option<Response>, WireError> {
        loop {
            let mut buf = std::mem::take(&mut self.buf);
            let received = self.transport.recv(&mut buf, timeout);
            self.buf = buf;
            let Some(len) = received? else {
                return Ok(None);
            };
            match message::decode(&self.buf[..len]) {
                Ok(Message::Response(resp))
                    if resp.client_id == self.client_id && resp.request_id == call.request_id =>
                {
                    self.stats.completed += 1;
                    let mut event = SpanEvent::new(
                        SpanEventKind::ClientRecv,
                        call.method,
                        self.client_id,
                        call.request_id,
                    );
                    event.context = call.context;
                    event.wire_bytes = len;
                    event.raw_bytes = resp.body.len();
                    event.status = Some(resp.status);
                    event.server_decode_ns = resp.server_decode_ns;
                    event.server_exec_ns = resp.server_exec_ns;
                    self.sink.record(&event);
                    if resp.status != Status::Ok {
                        return Err(WireError::Server(resp.status));
                    }
                    return Ok(Some(resp));
                }
                Ok(_) => {
                    // A duplicate of an earlier reply, or something
                    // addressed elsewhere: ignore.
                    self.stats.stale_replies += 1;
                    let mut event = SpanEvent::new(
                        SpanEventKind::ClientStale,
                        call.method,
                        self.client_id,
                        call.request_id,
                    );
                    event.context = call.context;
                    event.wire_bytes = len;
                    self.sink.record(&event);
                }
                Err(_) => {
                    self.stats.decode_errors += 1;
                    let mut event = SpanEvent::new(
                        SpanEventKind::ClientDecodeError,
                        call.method,
                        self.client_id,
                        call.request_id,
                    );
                    event.context = call.context;
                    event.wire_bytes = len;
                    self.sink.record(&event);
                }
            }
        }
    }

    /// Drives a pending call to completion under the retry policy.
    pub fn drive(&mut self, pending: &mut PendingCall) -> Result<Response, WireError> {
        loop {
            let timeout = timeout_for(pending.attempts - 1, &mut self.rng);
            if let Some(resp) = self.try_complete(pending, timeout)? {
                return Ok(resp);
            }
            if pending.attempts >= MAX_ATTEMPTS {
                self.stats.timeouts += 1;
                let mut event = SpanEvent::new(
                    SpanEventKind::ClientTimeout,
                    pending.method,
                    self.client_id,
                    pending.request_id,
                );
                event.context = pending.context;
                self.sink.record(&event);
                return Err(WireError::TimedOut {
                    attempts: pending.attempts,
                });
            }
            self.retransmit(pending)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Semantics, WireServer};
    use crate::transport::MemLink;

    #[test]
    fn jittered_timeouts_back_off_and_stay_bounded() {
        let mut rng = Prng::seed_from(5);
        let mut previous_cap = Duration::ZERO;
        for attempt in 0..12 {
            let t = timeout_for(attempt, &mut rng);
            let cap = Duration::from_secs_f64(MAX_TIMEOUT.as_secs_f64() * (1.0 + JITTER));
            assert!(t <= cap, "attempt {attempt}: {t:?} over cap");
            let nominal = Duration::from_secs_f64(
                (INITIAL_TIMEOUT.as_secs_f64() * MULTIPLIER.powi(attempt as i32))
                    .min(MAX_TIMEOUT.as_secs_f64()),
            );
            // Within the jitter band of the nominal value.
            assert!(t.as_secs_f64() >= nominal.as_secs_f64() * (1.0 - JITTER) - 1e-9);
            assert!(t.as_secs_f64() <= nominal.as_secs_f64() * (1.0 + JITTER) + 1e-9);
            previous_cap = previous_cap.max(t);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut rng = Prng::seed_from(seed);
            (0..8).map(|a| timeout_for(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn call_completes_against_a_polled_server() {
        let (client_end, server_end) = MemLink::pair();
        let mut server = WireServer::new(
            server_end,
            |req: &message::Request| (Status::Ok, req.body.to_vec()),
            Semantics::AtMostOnce,
        );
        let mut client = WireClient::new(client_end, 42, 1);
        let mut pending = client.start_call(5, b"hello", true).unwrap();
        // Nothing served yet: zero-timeout completion attempt fails.
        assert!(client
            .try_complete(&pending, Duration::ZERO)
            .unwrap()
            .is_none());
        server.poll().unwrap();
        let resp = client
            .try_complete(&pending, Duration::ZERO)
            .unwrap()
            .expect("reply pending");
        assert_eq!(&resp.body[..], b"hello");
        assert_eq!(resp.request_id, pending.request_id);
        // Retransmit after completion: server dedups, client discards the
        // duplicate reply as stale for the *next* call.
        client.retransmit(&mut pending).unwrap();
        server.poll().unwrap();
        let mut second = client.start_call(5, b"again", true).unwrap();
        server.poll().unwrap();
        let resp2 = client.drive(&mut second).unwrap();
        assert_eq!(&resp2.body[..], b"again");
        assert_eq!(client.stats().stale_replies, 1);
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let (client_end, _server_end) = MemLink::pair();
        let mut client = WireClient::new(client_end, 1, 2);
        let a = client.start_call(1, b"", false).unwrap();
        let b = client.start_call(1, b"", false).unwrap();
        assert!(b.request_id > a.request_id);
    }

    #[test]
    fn span_sink_sees_the_call_lifecycle() {
        use crate::sink::{SpanEventKind, VecSink};
        let (client_end, server_end) = MemLink::pair();
        let mut server = WireServer::new(
            server_end,
            |req: &message::Request| (Status::Ok, req.body.to_vec()),
            Semantics::AtMostOnce,
        );
        let ctx = TraceContext {
            trace_id: 0x90,
            span_id: 1,
            parent_span_id: 0,
            sampled: true,
            depth: 0,
        };
        let mut client = WireClient::new(client_end, 7, 1).with_span_sink(VecSink::default());
        let mut pending = client
            .start_call_traced(3, b"ping", false, Some(ctx))
            .unwrap();
        client.retransmit(&mut pending).unwrap();
        server.poll().unwrap();
        let resp = client
            .try_complete(&pending, Duration::ZERO)
            .unwrap()
            .expect("reply pending");
        assert_eq!(&resp.body[..], b"ping");
        let client = client; // end of mutation: inspect the sink
        let kinds: Vec<SpanEventKind> = client.sink.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanEventKind::ClientSend,
                SpanEventKind::ClientRetransmit,
                SpanEventKind::ClientRecv,
            ]
        );
        for event in &client.sink.events {
            assert_eq!(event.context, Some(ctx));
            assert_eq!(event.method, 3);
            assert_eq!(event.request_id, pending.request_id);
        }
        assert_eq!(client.sink.events[2].status, Some(Status::Ok));
        assert_eq!(client.sink.events[0].raw_bytes, 4);
    }

    #[test]
    fn prepared_calls_report_the_same_send_event_as_framed_calls() {
        use crate::sink::VecSink;
        let ctx = TraceContext {
            trace_id: 0x91,
            span_id: 1,
            parent_span_id: 0,
            sampled: true,
            depth: 0,
        };
        let body = b"prepared or framed, the same request";
        let send_event = |prepared: bool| {
            let (client_end, _server_end) = MemLink::pair();
            let mut client = WireClient::new(client_end, 7, 1).with_span_sink(VecSink::default());
            if prepared {
                let request_id = client.allocate_request_id();
                let datagram =
                    message::encode_request_traced(3, 7, request_id, body, true, Some(&ctx));
                client
                    .start_prepared(request_id, datagram, 3, body.len(), Some(ctx))
                    .unwrap();
            } else {
                client.start_call_traced(3, body, true, Some(ctx)).unwrap();
            }
            client.sink.events[0]
        };
        let prepared = send_event(true);
        assert_eq!(prepared, send_event(false));
        assert_eq!(prepared.kind, SpanEventKind::ClientSend);
        assert_eq!(prepared.raw_bytes, body.len());
    }

    #[test]
    fn server_error_statuses_surface_as_errors() {
        let (client_end, server_end) = MemLink::pair();
        let mut server = WireServer::new(
            server_end,
            |_req: &message::Request| (Status::Rejected, Vec::new()),
            Semantics::AtMostOnce,
        );
        let mut client = WireClient::new(client_end, 42, 1);
        let pending = client.start_call(5, b"load", false).unwrap();
        server.poll().unwrap();
        match client.try_complete(&pending, Duration::ZERO) {
            Err(WireError::Server(Status::Rejected)) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }
}
