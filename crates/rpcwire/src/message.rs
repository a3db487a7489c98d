//! The request/response envelope carried inside codec frames.
//!
//! Every datagram is one [`rpclens_rpcstack::codec`] frame (magic,
//! version, varint header fields, CRC32 trailer). This module defines how
//! the runtime uses the frame header for request/reply matching and what
//! the frame payload carries:
//!
//! - `header.method_id` — the catalog method being invoked;
//! - `header.trace_id`  — the client's identity (its matching namespace);
//! - `header.span_id`   — the per-client request id; a retransmission
//!   reuses it byte-for-byte, which is what lets the server's dedup cache
//!   recognise duplicates;
//! - `flags.RESPONSE`   — direction; `flags.COMPRESSED` — the body went
//!   through [`crate::compress`]; `flags.ERROR` — the response carries a
//!   [`Status`] other than [`Status::Ok`].
//!
//! Request payload: `varint(raw_len) ++ body`. Response payload:
//! `varint(status) ++ varint(decode_ns) ++ varint(exec_ns) ++
//! varint(raw_len) ++ body`. `raw_len` is the *uncompressed* body length
//! so the receiver can size (and verify) decompression; the server's
//! `decode_ns`/`exec_ns` ride back to the client so the wire validation
//! can subtract server-side work from measured round trips.
//!
//! **Trace-context extension (v2 frames).** When `flags.TRACED` is set,
//! the request payload instead begins with a length-prefixed, versioned
//! extension block carrying a [`TraceContext`]:
//! `varint(ext_len) ++ ext ++ varint(raw_len) ++ body`, where `ext` is
//! `version:u8 ++ trace_id:u64le ++ span_id:u64le ++ parent_span_id:u64le
//! ++ flags:u8 (bit 0 = sampled) ++ varint(depth)`. Decoders ignore any
//! trailing bytes inside `ext` beyond the fields they know, so future
//! versions can append fields without breaking this decoder; frames with
//! `TRACED` clear carry the v1 payload byte-for-byte, so pre-tracing
//! fixtures keep decoding (see `tests/golden_frames.rs`).

use crate::compress;
use bytes::{Bytes, BytesMut};
use rpclens_rpcstack::codec::{
    self, get_varint, put_varint, DecodeError, Flags, RpcFrame, RpcHeader,
};

/// Response status carried in the response envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The call executed and the body holds the result.
    Ok,
    /// The server has no handler for the requested method.
    NoSuchMethod,
    /// The request envelope or body failed to decode.
    BadRequest,
    /// The server is shedding load and refused to execute.
    Rejected,
}

impl Status {
    /// Wire code for the status.
    pub fn code(self) -> u64 {
        match self {
            Status::Ok => 0,
            Status::NoSuchMethod => 1,
            Status::BadRequest => 2,
            Status::Rejected => 3,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u64) -> Option<Status> {
        match code {
            0 => Some(Status::Ok),
            1 => Some(Status::NoSuchMethod),
            2 => Some(Status::BadRequest),
            3 => Some(Status::Rejected),
            _ => None,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NoSuchMethod => "no-such-method",
            Status::BadRequest => "bad-request",
            Status::Rejected => "rejected",
        }
    }
}

/// Distributed-tracing context carried in a request's extension block.
///
/// The ids are opaque 64-bit values chosen by the tracing layer; `depth`
/// counts hops from the trace root (0 at the root client). The context
/// crosses the wire only on requests — a server re-propagates it into
/// its own nested calls via [`TraceContext::child`], which is what turns
/// a multi-hop topology into one causal tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identity of the whole causal tree.
    pub trace_id: u64,
    /// Identity of this span (one client→server call).
    pub span_id: u64,
    /// The calling span's id, or 0 at the root.
    pub parent_span_id: u64,
    /// Head-sampling decision made at the root; sinks drop unsampled
    /// spans.
    pub sampled: bool,
    /// Hops from the root client (0 = root call).
    pub depth: u32,
}

/// Version byte of the trace-context extension block this module writes.
pub const TRACE_EXT_VERSION: u8 = 1;

/// Fixed-size prefix of the extension block: version byte, three u64
/// ids, and the sampled-flags byte (the varint depth follows).
const TRACE_EXT_FIXED_LEN: usize = 1 + 8 + 8 + 8 + 1;

impl TraceContext {
    /// Derives the context for a nested call made while serving this
    /// span: same trace, this span as parent, one hop deeper.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            parent_span_id: self.span_id,
            sampled: self.sampled,
            depth: self.depth.saturating_add(1),
        }
    }

    /// Whether this is the root span of its trace.
    pub fn is_root(&self) -> bool {
        self.parent_span_id == 0
    }

    fn encode_ext(&self, out: &mut BytesMut) {
        let mut ext = BytesMut::with_capacity(TRACE_EXT_FIXED_LEN + 5);
        ext.extend_from_slice(&[TRACE_EXT_VERSION]);
        ext.extend_from_slice(&self.trace_id.to_le_bytes());
        ext.extend_from_slice(&self.span_id.to_le_bytes());
        ext.extend_from_slice(&self.parent_span_id.to_le_bytes());
        ext.extend_from_slice(&[u8::from(self.sampled)]);
        put_varint(&mut ext, self.depth as u64);
        put_varint(out, ext.len() as u64);
        out.extend_from_slice(&ext);
    }

    fn decode_ext(cursor: &mut &[u8]) -> Result<TraceContext, WireError> {
        let ext_len = get_varint(cursor).map_err(WireError::Frame)? as usize;
        if ext_len > cursor.len() {
            return Err(WireError::Envelope("trace extension truncated"));
        }
        let (mut ext, rest) = cursor.split_at(ext_len);
        *cursor = rest;
        if ext.len() < TRACE_EXT_FIXED_LEN {
            return Err(WireError::Envelope("trace extension too short"));
        }
        let version = ext[0];
        if version == 0 {
            return Err(WireError::Envelope("trace extension version 0"));
        }
        let u64_at =
            |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        let trace_id = u64_at(ext, 1);
        let span_id = u64_at(ext, 9);
        let parent_span_id = u64_at(ext, 17);
        let sampled = ext[25] & 1 != 0;
        ext = &ext[TRACE_EXT_FIXED_LEN..];
        let depth = get_varint(&mut ext).map_err(WireError::Frame)?;
        // Any bytes remaining in `ext` belong to a future extension
        // version; ignoring them is the forward-compatibility contract.
        Ok(TraceContext {
            trace_id,
            span_id,
            parent_span_id,
            sampled,
            depth: u32::try_from(depth)
                .map_err(|_| WireError::Envelope("trace depth implausible"))?,
        })
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Catalog method id.
    pub method: u64,
    /// The calling client's identity.
    pub client_id: u64,
    /// Per-client request id (retransmissions reuse it).
    pub request_id: u64,
    /// Trace context from the extension block, when the frame carried
    /// one (`flags.TRACED`).
    pub trace: Option<TraceContext>,
    /// Decompressed body bytes.
    pub body: Bytes,
    /// Whether the body crossed the wire compressed.
    pub was_compressed: bool,
    /// Body length as it crossed the wire (compressed size when
    /// `was_compressed`).
    pub wire_body_len: usize,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Catalog method id (echoed from the request).
    pub method: u64,
    /// The client the response addresses.
    pub client_id: u64,
    /// The request this responds to.
    pub request_id: u64,
    /// Outcome.
    pub status: Status,
    /// Nanoseconds the server spent decoding the request.
    pub server_decode_ns: u64,
    /// Nanoseconds the server spent executing the handler.
    pub server_exec_ns: u64,
    /// Decompressed body bytes.
    pub body: Bytes,
    /// Whether the body crossed the wire compressed.
    pub was_compressed: bool,
    /// Body length as it crossed the wire.
    pub wire_body_len: usize,
}

/// Errors surfaced by the wire runtime.
#[derive(Debug)]
pub enum WireError {
    /// Frame-level decode failure (bad magic/CRC/truncation).
    Frame(DecodeError),
    /// Envelope-level decode failure.
    Envelope(&'static str),
    /// Body decompression failure.
    Compress(compress::CompressError),
    /// Transport I/O failure.
    Io(std::io::Error),
    /// The call exhausted its retransmission budget.
    TimedOut {
        /// Attempts made (including the first transmission).
        attempts: u32,
    },
    /// The server answered with a non-[`Status::Ok`] status.
    Server(Status),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "frame decode: {e}"),
            WireError::Envelope(what) => write!(f, "envelope decode: {what}"),
            WireError::Compress(e) => write!(f, "decompression: {e}"),
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::TimedOut { attempts } => {
                write!(f, "no reply after {attempts} attempts")
            }
            WireError::Server(s) => write!(f, "server status {}", s.label()),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A body prepared for the wire: possibly compressed, with the metadata
/// the envelope needs. Produced by [`encode_body`].
#[derive(Debug, Clone)]
pub struct WireBody {
    /// The bytes that will cross the wire.
    pub bytes: Vec<u8>,
    /// The uncompressed length (`raw_len` in the envelope).
    pub raw_len: usize,
    /// Whether `bytes` is compressed.
    pub compressed: bool,
}

/// Runs the body through compression if requested, keeping the original
/// whenever compression does not actually shrink it.
pub fn encode_body(body: &[u8], try_compress: bool) -> WireBody {
    if try_compress {
        let packed = compress::compress(body);
        if packed.len() < body.len() {
            return WireBody {
                bytes: packed,
                raw_len: body.len(),
                compressed: true,
            };
        }
    }
    WireBody {
        bytes: body.to_vec(),
        raw_len: body.len(),
        compressed: false,
    }
}

/// Serializes a request envelope (everything but the frame) into payload
/// bytes. With a context, prepends the versioned trace extension block;
/// the caller must then frame with [`frame_request`] and `traced` set so
/// the `TRACED` flag matches the payload layout.
pub fn serialize_request(body: &WireBody, trace: Option<&TraceContext>) -> Bytes {
    let mut payload = BytesMut::with_capacity(body.bytes.len() + 40);
    if let Some(ctx) = trace {
        ctx.encode_ext(&mut payload);
    }
    put_varint(&mut payload, body.raw_len as u64);
    payload.extend_from_slice(&body.bytes);
    payload.freeze()
}

/// Frames a serialized request payload into the final datagram bytes,
/// setting `TRACED` when the payload carries an extension block.
pub fn frame_request(
    method: u64,
    client_id: u64,
    request_id: u64,
    payload: Bytes,
    compressed: bool,
    traced: bool,
) -> Bytes {
    let mut flags = Flags::default();
    if compressed {
        flags = flags.with(Flags::COMPRESSED);
    }
    if traced {
        flags = flags.with(Flags::TRACED);
    }
    codec::encode_frame(&RpcFrame {
        header: RpcHeader {
            method_id: method,
            trace_id: client_id,
            span_id: request_id,
            parent_span_id: 0,
            deadline_ns: 0,
            flags,
        },
        payload,
    })
}

/// Convenience: encode + serialize + frame a request, carrying a trace
/// context when one is supplied.
pub fn encode_request_traced(
    method: u64,
    client_id: u64,
    request_id: u64,
    body: &[u8],
    try_compress: bool,
    trace: Option<&TraceContext>,
) -> Bytes {
    let wire_body = encode_body(body, try_compress);
    let payload = serialize_request(&wire_body, trace);
    frame_request(
        method,
        client_id,
        request_id,
        payload,
        wire_body.compressed,
        trace.is_some(),
    )
}

/// Convenience: encode + serialize + frame a request in one call.
pub fn encode_request(
    method: u64,
    client_id: u64,
    request_id: u64,
    body: &[u8],
    try_compress: bool,
) -> Bytes {
    encode_request_traced(method, client_id, request_id, body, try_compress, None)
}

/// Encodes a response datagram.
#[allow(clippy::too_many_arguments)]
pub fn encode_response(
    method: u64,
    client_id: u64,
    request_id: u64,
    status: Status,
    server_decode_ns: u64,
    server_exec_ns: u64,
    body: &[u8],
    try_compress: bool,
) -> Bytes {
    let wire_body = encode_body(body, try_compress);
    let mut payload = BytesMut::with_capacity(wire_body.bytes.len() + 16);
    put_varint(&mut payload, status.code());
    put_varint(&mut payload, server_decode_ns);
    put_varint(&mut payload, server_exec_ns);
    put_varint(&mut payload, wire_body.raw_len as u64);
    payload.extend_from_slice(&wire_body.bytes);
    let payload = payload.freeze();
    let mut flags = Flags::default().with(Flags::RESPONSE);
    if wire_body.compressed {
        flags = flags.with(Flags::COMPRESSED);
    }
    if status != Status::Ok {
        flags = flags.with(Flags::ERROR);
    }
    codec::encode_frame(&RpcFrame {
        header: RpcHeader {
            method_id: method,
            trace_id: client_id,
            span_id: request_id,
            parent_span_id: 0,
            deadline_ns: 0,
            flags,
        },
        payload,
    })
}

fn decode_wire_body(rest: &[u8], raw_len: u64, compressed: bool) -> Result<Bytes, WireError> {
    if raw_len > 64 * 1024 * 1024 {
        return Err(WireError::Envelope("declared body length implausible"));
    }
    if compressed {
        let raw = compress::decompress(rest, raw_len as usize).map_err(WireError::Compress)?;
        Ok(Bytes::from(raw))
    } else {
        if rest.len() != raw_len as usize {
            return Err(WireError::Envelope("body length mismatch"));
        }
        Ok(Bytes::copy_from_slice(rest))
    }
}

/// The direction a decoded datagram turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A request datagram.
    Request(Request),
    /// A response datagram.
    Response(Response),
}

/// Decodes one datagram: frame (CRC verified) then envelope then body.
pub fn decode(datagram: &[u8]) -> Result<Message, WireError> {
    let frame = codec::decode_frame(datagram).map_err(WireError::Frame)?;
    let compressed = frame.header.flags.contains(Flags::COMPRESSED);
    let mut cursor: &[u8] = &frame.payload;
    if frame.header.flags.contains(Flags::RESPONSE) {
        let status_code = get_varint(&mut cursor).map_err(WireError::Frame)?;
        let status =
            Status::from_code(status_code).ok_or(WireError::Envelope("unknown status code"))?;
        let server_decode_ns = get_varint(&mut cursor).map_err(WireError::Frame)?;
        let server_exec_ns = get_varint(&mut cursor).map_err(WireError::Frame)?;
        let raw_len = get_varint(&mut cursor).map_err(WireError::Frame)?;
        let wire_body_len = cursor.len();
        let body = decode_wire_body(cursor, raw_len, compressed)?;
        Ok(Message::Response(Response {
            method: frame.header.method_id,
            client_id: frame.header.trace_id,
            request_id: frame.header.span_id,
            status,
            server_decode_ns,
            server_exec_ns,
            body,
            was_compressed: compressed,
            wire_body_len,
        }))
    } else {
        let trace = if frame.header.flags.contains(Flags::TRACED) {
            Some(TraceContext::decode_ext(&mut cursor)?)
        } else {
            None
        };
        let raw_len = get_varint(&mut cursor).map_err(WireError::Frame)?;
        let wire_body_len = cursor.len();
        let body = decode_wire_body(cursor, raw_len, compressed)?;
        Ok(Message::Request(Request {
            method: frame.header.method_id,
            client_id: frame.header.trace_id,
            request_id: frame.header.span_id,
            trace,
            body,
            was_compressed: compressed,
            wire_body_len,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    #[test]
    fn request_roundtrips() {
        let body = b"a small structured payload, repeated: payload payload payload";
        let datagram = encode_request(42, 7, 1001, body, true);
        match decode(&datagram).unwrap() {
            Message::Request(req) => {
                assert_eq!(req.method, 42);
                assert_eq!(req.client_id, 7);
                assert_eq!(req.request_id, 1001);
                assert_eq!(&req.body[..], &body[..]);
                assert!(req.was_compressed, "repetitive body should compress");
                assert!(req.wire_body_len < body.len());
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn incompressible_body_is_sent_raw() {
        // High-entropy body: compression cannot shrink it, so the wire
        // carries the original and the COMPRESSED flag stays clear.
        let body: Vec<u8> = (0..=255u8).collect();
        let datagram = encode_request(1, 1, 1, &body, true);
        match decode(&datagram).unwrap() {
            Message::Request(req) => {
                assert!(!req.was_compressed);
                assert_eq!(req.wire_body_len, body.len());
                assert_eq!(&req.body[..], &body[..]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_roundtrips_with_timings_and_status() {
        let body = vec![9u8; 500];
        let datagram = encode_response(3, 8, 55, Status::Ok, 1234, 56789, &body, true);
        match decode(&datagram).unwrap() {
            Message::Response(resp) => {
                assert_eq!(resp.status, Status::Ok);
                assert_eq!(resp.server_decode_ns, 1234);
                assert_eq!(resp.server_exec_ns, 56789);
                assert_eq!(resp.request_id, 55);
                assert_eq!(&resp.body[..], &body[..]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn error_statuses_set_the_error_flag() {
        let datagram = encode_response(3, 8, 55, Status::NoSuchMethod, 0, 0, b"", false);
        let frame = rpclens_rpcstack::codec::decode_frame(&datagram).unwrap();
        assert!(frame.header.flags.contains(Flags::ERROR));
        match decode(&datagram).unwrap() {
            Message::Response(resp) => assert_eq!(resp.status, Status::NoSuchMethod),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let datagram = encode_request(9, 9, 9, b"body bytes body bytes body bytes", true);
        for cut in 0..datagram.len() {
            assert!(decode(&datagram[..cut]).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn corruption_is_rejected_everywhere() {
        let datagram = encode_request(9, 9, 9, &vec![3u8; 300], true);
        for idx in 0..datagram.len() {
            let mut corrupted = datagram.to_vec();
            corrupted[idx] ^= 0x40;
            assert!(decode(&corrupted).is_err(), "flip at {idx} decoded");
        }
    }

    fn ctx() -> TraceContext {
        TraceContext {
            trace_id: 0xDEAD_BEEF_0123_4567,
            span_id: 42,
            parent_span_id: 7,
            sampled: true,
            depth: 3,
        }
    }

    #[test]
    fn traced_requests_roundtrip_the_context() {
        let body = b"traced payload traced payload traced payload";
        let datagram = encode_request_traced(9, 11, 13, body, true, Some(&ctx()));
        match decode(&datagram).unwrap() {
            Message::Request(req) => {
                assert_eq!(req.trace, Some(ctx()));
                assert_eq!(&req.body[..], &body[..]);
                assert_eq!(req.method, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untraced_requests_are_byte_identical_to_v1() {
        // The extension is strictly opt-in: passing no context must
        // produce the exact pre-tracing encoding (the compatibility
        // contract the golden fixture pins).
        let body = b"same bytes as before";
        let v1 = encode_request(4, 5, 6, body, true);
        let v2 = encode_request_traced(4, 5, 6, body, true, None);
        assert_eq!(v1, v2);
        match decode(&v1).unwrap() {
            Message::Request(req) => assert_eq!(req.trace, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn child_context_re_propagates_the_trace() {
        let child = ctx().child(99);
        assert_eq!(child.trace_id, ctx().trace_id);
        assert_eq!(child.span_id, 99);
        assert_eq!(child.parent_span_id, ctx().span_id);
        assert_eq!(child.depth, 4);
        assert!(child.sampled);
        assert!(!child.is_root());
        let root = TraceContext {
            parent_span_id: 0,
            ..ctx()
        };
        assert!(root.is_root());
    }

    #[test]
    fn unknown_trailing_extension_bytes_are_ignored() {
        // A future encoder may append fields to the extension block;
        // this decoder must skip them. Build the payload by hand with
        // three surplus bytes inside the declared ext length.
        let wire_body = encode_body(b"fwd-compat", false);
        let mut payload = BytesMut::new();
        let mut ext = BytesMut::new();
        ext.extend_from_slice(&[2u8]); // a future version
        ext.extend_from_slice(&1u64.to_le_bytes());
        ext.extend_from_slice(&2u64.to_le_bytes());
        ext.extend_from_slice(&3u64.to_le_bytes());
        ext.extend_from_slice(&[1u8]);
        put_varint(&mut ext, 5);
        ext.extend_from_slice(&[0xAA, 0xBB, 0xCC]); // unknown fields
        put_varint(&mut payload, ext.len() as u64);
        payload.extend_from_slice(&ext);
        put_varint(&mut payload, wire_body.raw_len as u64);
        payload.extend_from_slice(&wire_body.bytes);
        let datagram = frame_request(1, 2, 3, payload.freeze(), false, true);
        match decode(&datagram).unwrap() {
            Message::Request(req) => {
                let t = req.trace.expect("context decoded");
                assert_eq!(t.trace_id, 1);
                assert_eq!(t.span_id, 2);
                assert_eq!(t.parent_span_id, 3);
                assert!(t.sampled);
                assert_eq!(t.depth, 5);
                assert_eq!(&req.body[..], b"fwd-compat");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_or_corrupt_traced_frames_are_rejected() {
        let datagram = encode_request_traced(9, 9, 9, &[3u8; 200], true, Some(&ctx()));
        for cut in 0..datagram.len() {
            assert!(decode(&datagram[..cut]).is_err(), "cut {cut} decoded");
        }
        for idx in 0..datagram.len() {
            let mut corrupted = datagram.to_vec();
            corrupted[idx] ^= 0x10;
            assert!(decode(&corrupted).is_err(), "flip at {idx} decoded");
        }
    }

    #[test]
    fn status_codes_roundtrip() {
        for s in [
            Status::Ok,
            Status::NoSuchMethod,
            Status::BadRequest,
            Status::Rejected,
        ] {
            assert_eq!(Status::from_code(s.code()), Some(s));
        }
        assert_eq!(Status::from_code(99), None);
    }

    #[test]
    fn arbitrary_requests_roundtrip() {
        let mut rng = Prng::seed_from(0x3E55_0001);
        let mut cases = vec![
            ([0; 3], false, vec![]),
            ([u64::MAX; 3], true, vec![u8::MAX; 2047]),
        ];
        cases.push(([0; 3], true, vec![0; 2047]));
        cases.resize_with(64, || {
            let body = (0..rng.index(2048)).map(|_| rng.next_u64() as u8).collect();
            (
                std::array::from_fn(|_| rng.next_u64()),
                rng.chance(0.5),
                body,
            )
        });
        for (case, (ids, compress_it, body)) in cases.into_iter().enumerate() {
            let [method, client_id, request_id] = ids;
            let datagram = encode_request(method, client_id, request_id, &body, compress_it);
            let inputs = format!("case {case}: ids {ids:?}, compress {compress_it}");
            match decode(&datagram).unwrap() {
                Message::Request(req) => {
                    assert_eq!(req.method, method, "{inputs}");
                    assert_eq!(req.client_id, client_id, "{inputs}");
                    assert_eq!(req.request_id, request_id, "{inputs}");
                    assert_eq!(&req.body[..], &body[..], "{inputs}");
                }
                other => panic!("expected request, got {other:?}; {inputs}"),
            }
        }
    }

    #[test]
    fn arbitrary_responses_roundtrip() {
        let mut rng = Prng::seed_from(0x3E55_0002);
        let mut cases = vec![([0; 4], 0, false, vec![]), ([0; 4], 3, true, vec![0; 2047])];
        cases.push(([u64::MAX; 4], 3, true, vec![u8::MAX; 2047]));
        cases.resize_with(64, || {
            let body = (0..rng.index(2048)).map(|_| rng.next_u64() as u8).collect();
            let ids = std::array::from_fn(|_| rng.next_u64());
            (ids, rng.next_below(4), rng.chance(0.5), body)
        });
        for (case, (ids, status_code, compress_it, body)) in cases.into_iter().enumerate() {
            let [method, request_id, decode_ns, exec_ns] = ids;
            let status = Status::from_code(status_code).unwrap();
            let datagram = encode_response(
                method,
                77,
                request_id,
                status,
                decode_ns,
                exec_ns,
                &body,
                compress_it,
            );
            let inputs = format!("case {case}: ids {ids:?}, {status:?}, compress {compress_it}");
            match decode(&datagram).unwrap() {
                Message::Response(resp) => {
                    assert_eq!(resp.method, method, "{inputs}");
                    assert_eq!(resp.request_id, request_id, "{inputs}");
                    assert_eq!(resp.status, status, "{inputs}");
                    assert_eq!(resp.server_decode_ns, decode_ns, "{inputs}");
                    assert_eq!(resp.server_exec_ns, exec_ns, "{inputs}");
                    assert_eq!(&resp.body[..], &body[..], "{inputs}");
                }
                other => panic!("expected response, got {other:?}; {inputs}"),
            }
        }
    }

    #[test]
    fn arbitrary_trace_contexts_roundtrip() {
        let mut rng = Prng::seed_from(0x3E55_0003);
        let mut cases = vec![([0; 3], false, 0, vec![])];
        cases.push(([u64::MAX; 3], true, u32::MAX, vec![u8::MAX; 511]));
        cases.resize_with(64, || {
            let body = (0..rng.index(512)).map(|_| rng.next_u64() as u8).collect();
            let ids = std::array::from_fn(|_| rng.next_u64());
            (ids, rng.chance(0.5), rng.next_u64() as u32, body)
        });
        for (case, (ids, sampled, depth, body)) in cases.into_iter().enumerate() {
            let [trace_id, span_id, parent_span_id] = ids;
            let ctx = TraceContext {
                trace_id,
                span_id,
                parent_span_id,
                sampled,
                depth,
            };
            let datagram = encode_request_traced(1, 2, 3, &body, true, Some(&ctx));
            let inputs = format!("case {case}: {ctx:?}, body {body:?}");
            match decode(&datagram).unwrap() {
                Message::Request(req) => {
                    assert_eq!(req.trace, Some(ctx), "{inputs}");
                    assert_eq!(&req.body[..], &body[..], "{inputs}");
                }
                other => panic!("expected request, got {other:?}; {inputs}"),
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_decodes() {
        let mut rng = Prng::seed_from(0x3E55_0004);
        let mut cases = vec![(vec![0], 0, 0), (vec![u8::MAX], usize::MAX, 7)];
        cases.extend([(vec![0; 511], usize::MAX, 0), (vec![u8::MAX; 511], 0, 7)]);
        cases.resize_with(64, || {
            let body = (0..1 + rng.index(511))
                .map(|_| rng.next_u64() as u8)
                .collect();
            (body, rng.next_u64() as usize, rng.index(8))
        });
        for (case, (body, idx, bit)) in cases.into_iter().enumerate() {
            let mut corrupted = encode_request(5, 6, 7, &body, true).to_vec();
            let at = idx % corrupted.len();
            corrupted[at] ^= 1 << bit;
            let inputs = format!("case {case}: bit {bit} of byte {at}, body {body:?}");
            assert!(decode(&corrupted).is_err(), "{inputs}");
        }
    }
}
