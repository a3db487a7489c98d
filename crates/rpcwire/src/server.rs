//! The poll-driven wire server and its invocation semantics.
//!
//! A [`WireServer`] owns a [`ServerTransport`], a [`Handler`], and a
//! [`Semantics`] mode:
//!
//! - **At-most-once**: a bounded dedup cache keyed by
//!   `(client_id, request_id)` stores each request's encoded reply.
//!   Retransmissions hit the cache and are answered without re-executing
//!   the handler, so a request's effects happen at most once even when
//!   the network duplicates datagrams or clients retransmit.
//! - **At-least-once**: every delivered request executes the handler
//!   again (correct only for idempotent methods, as in classic
//!   sun-RPC-style servers); the client's retransmission loop guarantees
//!   execution happens at least once if any datagram ever gets through.
//!
//! `poll` drains pending datagrams without blocking, which keeps the
//! server usable from deterministic single-threaded tests; `serve` wraps
//! `poll` in a blocking loop for the real binary.

use crate::message::{self, Message, Status};
use crate::sink::{NullSink, SpanEvent, SpanEventKind, SpanSink};
use crate::transport::{ServerTransport, MAX_DATAGRAM};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

/// Invocation semantics the server applies to duplicate deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Dedup cache: execute each `(client, request)` at most once and
    /// replay the cached reply for duplicates.
    AtMostOnce,
    /// Re-execute the handler on every delivery.
    AtLeastOnce,
}

/// Application logic invoked per request.
pub trait Handler {
    /// Handles one decoded request, returning the response status and
    /// body.
    fn handle(&mut self, request: &message::Request) -> (Status, Vec<u8>);

    /// Whether this method's response body should attempt compression.
    fn compress_response(&self, method: u64) -> bool {
        let _ = method;
        true
    }
}

impl<F: FnMut(&message::Request) -> (Status, Vec<u8>)> Handler for F {
    fn handle(&mut self, request: &message::Request) -> (Status, Vec<u8>) {
        self(request)
    }
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Datagrams received.
    pub received: u64,
    /// Handler executions.
    pub executed: u64,
    /// Duplicates answered from the dedup cache (at-most-once only).
    pub dedup_hits: u64,
    /// Datagrams that failed frame/envelope decoding (dropped; the
    /// client's retransmission recovers).
    pub decode_errors: u64,
    /// Responses sent (including cache replays).
    pub responses_sent: u64,
    /// Entries evicted from the dedup cache.
    pub evictions: u64,
}

/// A bounded FIFO dedup cache mapping `(client_id, request_id)` to the
/// encoded reply datagram.
#[derive(Debug)]
struct DedupCache {
    map: HashMap<(u64, u64), Bytes>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl DedupCache {
    fn new(capacity: usize) -> DedupCache {
        DedupCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: (u64, u64)) -> Option<&Bytes> {
        self.map.get(&key)
    }

    /// Inserts a reply, evicting the oldest entry at capacity. Returns
    /// how many entries were evicted (0 or 1).
    fn insert(&mut self, key: (u64, u64), reply: Bytes) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            if self.order.len() == self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                    evicted = 1;
                }
            }
            self.order.push_back(key);
        }
        self.map.insert(key, reply);
        evicted
    }
}

/// The wire server. See the module docs for the semantics contract.
///
/// The `K` parameter is the [`SpanSink`] receiving span events; it
/// defaults to [`NullSink`] so untraced servers pay nothing.
pub struct WireServer<S: ServerTransport, H: Handler, K: SpanSink = NullSink> {
    transport: S,
    handler: H,
    semantics: Semantics,
    dedup: DedupCache,
    stats: ServerStats,
    buf: Vec<u8>,
    sink: K,
}

impl<S: ServerTransport, H: Handler> WireServer<S, H> {
    /// Creates a server with the default dedup capacity (64k entries).
    pub fn new(transport: S, handler: H, semantics: Semantics) -> WireServer<S, H> {
        WireServer::with_dedup_capacity(transport, handler, semantics, 64 * 1024)
    }

    /// Creates a server with an explicit dedup cache capacity.
    pub fn with_dedup_capacity(
        transport: S,
        handler: H,
        semantics: Semantics,
        dedup_capacity: usize,
    ) -> WireServer<S, H> {
        WireServer {
            transport,
            handler,
            semantics,
            dedup: DedupCache::new(dedup_capacity),
            stats: ServerStats::default(),
            buf: vec![0u8; MAX_DATAGRAM + 4096],
            sink: NullSink,
        }
    }
}

impl<S: ServerTransport, H: Handler, K: SpanSink> WireServer<S, H, K> {
    /// Rebinds the server to a different span sink, consuming it. The
    /// dedup cache and counters carry over.
    pub fn with_span_sink<K2: SpanSink>(self, sink: K2) -> WireServer<S, H, K2> {
        WireServer {
            transport: self.transport,
            handler: self.handler,
            semantics: self.semantics,
            dedup: self.dedup,
            stats: self.stats,
            buf: self.buf,
            sink,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The underlying transport (e.g. to read a bound address).
    pub fn transport_mut(&mut self) -> &mut S {
        &mut self.transport
    }

    /// Processes one already-received datagram.
    fn process(&mut self, len: usize, peer: S::Peer) -> io::Result<()> {
        self.stats.received += 1;
        let decode_started = Instant::now();
        let request = match message::decode(&self.buf[..len]) {
            Ok(Message::Request(request)) => request,
            // Responses addressed to a server, or undecodable bytes
            // (corruption caught by the CRC): drop and let the client's
            // retransmission timer recover.
            Ok(Message::Response(_)) | Err(_) => {
                self.stats.decode_errors += 1;
                self.sink
                    .record(&SpanEvent::new(SpanEventKind::ServerDecodeError, 0, 0, 0));
                return Ok(());
            }
        };
        let decode_ns = saturating_elapsed_ns(decode_started);
        let mut event = SpanEvent::new(
            SpanEventKind::ServerRecv,
            request.method,
            request.client_id,
            request.request_id,
        );
        event.context = request.trace;
        event.wire_bytes = len;
        event.raw_bytes = request.body.len();
        self.sink.record(&event);
        let key = (request.client_id, request.request_id);
        if self.semantics == Semantics::AtMostOnce {
            if let Some(reply) = self.dedup.get(key) {
                let reply = reply.clone();
                self.stats.dedup_hits += 1;
                self.stats.responses_sent += 1;
                let mut event = event;
                event.kind = SpanEventKind::ServerDedupHit;
                event.wire_bytes = reply.len();
                event.raw_bytes = 0;
                self.sink.record(&event);
                return self.transport.send_to(&reply, peer);
            }
        }
        let exec_started = Instant::now();
        let (status, body) = self.handler.handle(&request);
        let exec_ns = saturating_elapsed_ns(exec_started);
        let mut exec_event = event;
        exec_event.kind = SpanEventKind::ServerExec;
        exec_event.raw_bytes = body.len();
        exec_event.status = Some(status);
        exec_event.server_decode_ns = decode_ns;
        exec_event.server_exec_ns = exec_ns;
        self.sink.record(&exec_event);
        let reply = message::encode_response(
            request.method,
            request.client_id,
            request.request_id,
            status,
            decode_ns,
            exec_ns,
            &body,
            self.handler.compress_response(request.method),
        );
        self.stats.executed += 1;
        if self.semantics == Semantics::AtMostOnce {
            self.stats.evictions += self.dedup.insert(key, reply.clone());
        }
        self.stats.responses_sent += 1;
        let mut send_event = exec_event;
        send_event.kind = SpanEventKind::ServerSend;
        send_event.wire_bytes = reply.len();
        self.sink.record(&send_event);
        self.transport.send_to(&reply, peer)
    }

    /// Drains every pending datagram without blocking; returns how many
    /// were processed. This is the deterministic entry point: tests call
    /// it at chosen points in the schedule.
    pub fn poll(&mut self) -> io::Result<usize> {
        let mut processed = 0;
        loop {
            let mut buf = std::mem::take(&mut self.buf);
            let received = self.transport.recv_from(&mut buf, Duration::ZERO);
            self.buf = buf;
            match received? {
                Some((len, peer)) => {
                    self.process(len, peer)?;
                    processed += 1;
                }
                None => return Ok(processed),
            }
        }
    }

    /// Blocking serve loop: waits up to `idle_timeout` per receive and
    /// returns once `stop` says so (checked between datagrams).
    pub fn serve(
        &mut self,
        idle_timeout: Duration,
        mut stop: impl FnMut(&ServerStats) -> bool,
    ) -> io::Result<()> {
        loop {
            if stop(&self.stats) {
                return Ok(());
            }
            let mut buf = std::mem::take(&mut self.buf);
            let received = self.transport.recv_from(&mut buf, idle_timeout);
            self.buf = buf;
            if let Some((len, peer)) = received? {
                self.process(len, peer)?;
            }
        }
    }
}

fn saturating_elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::encode_request;
    use crate::transport::{MemLink, Transport};

    fn echo_handler() -> impl Handler {
        |request: &message::Request| (Status::Ok, request.body.to_vec())
    }

    fn recv_response(link: &mut MemLink) -> Option<message::Response> {
        let mut buf = [0u8; 65536];
        let n = link.recv(&mut buf, Duration::ZERO).unwrap()?;
        match message::decode(&buf[..n]).unwrap() {
            Message::Response(resp) => Some(resp),
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn serves_an_echo_request() {
        let (mut client, server_end) = MemLink::pair();
        let mut server = WireServer::new(server_end, echo_handler(), Semantics::AtMostOnce);
        client
            .send(&encode_request(3, 10, 1, b"echo me", true))
            .unwrap();
        assert_eq!(server.poll().unwrap(), 1);
        let resp = recv_response(&mut client).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&resp.body[..], b"echo me");
        assert_eq!(resp.request_id, 1);
        assert_eq!(server.stats().executed, 1);
    }

    #[test]
    fn at_most_once_answers_duplicates_from_cache() {
        let (mut client, server_end) = MemLink::pair();
        let mut executions = 0u32;
        let handler = |request: &message::Request| {
            let _ = request;
            (Status::Ok, b"result".to_vec())
        };
        let mut server = WireServer::new(server_end, handler, Semantics::AtMostOnce);
        let datagram = encode_request(3, 10, 7, b"do the thing", true);
        for _ in 0..5 {
            client.send(&datagram).unwrap();
        }
        server.poll().unwrap();
        executions += server.stats().executed as u32;
        assert_eq!(executions, 1, "duplicates must not re-execute");
        assert_eq!(server.stats().dedup_hits, 4);
        // All five deliveries still get answered.
        let mut replies = 0;
        while recv_response(&mut client).is_some() {
            replies += 1;
        }
        assert_eq!(replies, 5);
    }

    #[test]
    fn at_least_once_re_executes_every_delivery() {
        let (mut client, server_end) = MemLink::pair();
        let mut server = WireServer::new(server_end, echo_handler(), Semantics::AtLeastOnce);
        let datagram = encode_request(3, 10, 7, b"idempotent", true);
        for _ in 0..3 {
            client.send(&datagram).unwrap();
        }
        server.poll().unwrap();
        assert_eq!(server.stats().executed, 3);
        assert_eq!(server.stats().dedup_hits, 0);
    }

    #[test]
    fn corrupt_datagrams_are_dropped_not_fatal() {
        let (mut client, server_end) = MemLink::pair();
        let mut server = WireServer::new(server_end, echo_handler(), Semantics::AtMostOnce);
        let mut datagram = encode_request(3, 10, 7, b"payload", true).to_vec();
        datagram[5] ^= 0xFF;
        client.send(&datagram).unwrap();
        assert_eq!(server.poll().unwrap(), 1);
        assert_eq!(server.stats().decode_errors, 1);
        assert_eq!(server.stats().responses_sent, 0);
        assert!(recv_response(&mut client).is_none());
    }

    #[test]
    fn unknown_status_requests_get_error_replies() {
        let (mut client, server_end) = MemLink::pair();
        let handler = |request: &message::Request| {
            if request.method == 999 {
                (Status::NoSuchMethod, Vec::new())
            } else {
                (Status::Ok, request.body.to_vec())
            }
        };
        let mut server = WireServer::new(server_end, handler, Semantics::AtMostOnce);
        client
            .send(&encode_request(999, 10, 1, b"", false))
            .unwrap();
        server.poll().unwrap();
        let resp = recv_response(&mut client).unwrap();
        assert_eq!(resp.status, Status::NoSuchMethod);
    }

    #[test]
    fn span_sink_sees_recv_exec_send_and_dedup() {
        use crate::message::{encode_request_traced, TraceContext};
        use crate::sink::{SpanEventKind, VecSink};
        let (mut client, server_end) = MemLink::pair();
        let mut server = WireServer::new(server_end, echo_handler(), Semantics::AtMostOnce)
            .with_span_sink(VecSink::default());
        let ctx = TraceContext {
            trace_id: 0xABCD,
            span_id: 2,
            parent_span_id: 1,
            sampled: true,
            depth: 1,
        };
        let datagram = encode_request_traced(3, 10, 1, b"echo", false, Some(&ctx));
        client.send(&datagram).unwrap();
        client.send(&datagram).unwrap();
        server.poll().unwrap();
        let kinds: Vec<SpanEventKind> = server.sink.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanEventKind::ServerRecv,
                SpanEventKind::ServerExec,
                SpanEventKind::ServerSend,
                SpanEventKind::ServerRecv,
                SpanEventKind::ServerDedupHit,
            ]
        );
        for event in &server.sink.events {
            assert_eq!(
                event.context,
                Some(ctx),
                "context propagates to {:?}",
                event.kind
            );
            assert_eq!(event.method, 3);
        }
        assert_eq!(server.sink.events[1].status, Some(Status::Ok));
        // Corrupt datagrams surface as anonymous decode-error events.
        let mut corrupt = datagram.to_vec();
        corrupt[5] ^= 0xFF;
        client.send(&corrupt).unwrap();
        server.poll().unwrap();
        assert_eq!(
            server.sink.events.last().unwrap().kind,
            SpanEventKind::ServerDecodeError
        );
    }

    #[test]
    fn dedup_cache_is_bounded_and_evicts_fifo() {
        let (mut client, server_end) = MemLink::pair();
        let mut server =
            WireServer::with_dedup_capacity(server_end, echo_handler(), Semantics::AtMostOnce, 4);
        for request_id in 0..10u64 {
            client
                .send(&encode_request(1, 10, request_id, b"x", false))
                .unwrap();
        }
        server.poll().unwrap();
        assert_eq!(server.dedup.map.len(), 4);
        assert_eq!(server.stats().evictions, 6);
        // An evicted request re-executes (the cost of a bounded cache)...
        client.send(&encode_request(1, 10, 0, b"x", false)).unwrap();
        server.poll().unwrap();
        assert_eq!(server.stats().executed, 11);
        // ...but a cached one does not.
        client.send(&encode_request(1, 10, 9, b"x", false)).unwrap();
        server.poll().unwrap();
        assert_eq!(server.stats().executed, 11);
        assert_eq!(server.stats().dedup_hits, 1);
    }
}
