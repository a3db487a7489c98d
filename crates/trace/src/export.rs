//! Compact binary export/import of trace stores.
//!
//! Dapper persists sampled traces to a repository for offline analysis;
//! this module gives [`TraceStore`] the same property with a versioned,
//! checksummed binary format built on the workspace's own framing
//! primitives, so a fleet run's traces can be captured once and re-analysed
//! without re-simulating.
//!
//! Layout (all integers little-endian unless varint):
//!
//! ```text
//! magic "RLTR" | version u8 | trace_count varint
//!   per trace: root_start u64 | span_count varint | spans...
//!     per span: method u32 | service u16 | parent u32 | client u16 |
//!               server u16 | start_ticks u32 | components [u32; 9] |
//!               req u32 | resp u32 | kilocycles u32 | flags u8 | error u8
//! crc32 over everything above | u32
//! ```

use crate::collector::TraceStore;
use crate::span::{MethodId, ServiceId, SpanBuilder, SpanRecord, TraceData, ROOT_PARENT};
use bytes::{Buf, BufMut, BytesMut};
use rpclens_netsim::topology::ClusterId;
use rpclens_rpcstack::codec::{crc32, get_varint, put_varint, DecodeError};
use rpclens_rpcstack::component::LatencyComponent;
use rpclens_rpcstack::error::ErrorKind;
use rpclens_simcore::time::SimTime;

/// Export format magic.
pub const MAGIC: &[u8; 4] = b"RLTR";
/// Export format version.
pub const VERSION: u8 = 1;

/// Encoded size of one span: 4+2+4+2+2+4 + 36 + 4+4+4 + 1+1.
const SPAN_BYTES: usize = 68;

fn error_to_byte(e: Option<ErrorKind>) -> u8 {
    match e {
        None => 0,
        Some(kind) => {
            1 + ErrorKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("kind in ALL") as u8
        }
    }
}

fn byte_to_error(b: u8) -> Result<Option<ErrorKind>, DecodeError> {
    match b {
        0 => Ok(None),
        n if (n as usize) <= ErrorKind::ALL.len() => Ok(Some(ErrorKind::ALL[n as usize - 1])),
        _ => Err(DecodeError::BadField),
    }
}

/// Serializes a trace store to bytes.
pub fn export(store: &TraceStore) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + store.total_spans() * 64);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_varint(&mut buf, store.len() as u64);
    for trace in store.traces() {
        buf.put_u64(trace.root_start.as_nanos());
        put_varint(&mut buf, trace.len() as u64);
        for span in &trace.spans {
            buf.put_u32(span.method.0);
            buf.put_u16(span.service.0);
            buf.put_u32(span.parent);
            buf.put_u16(span.client_cluster.0);
            buf.put_u16(span.server_cluster.0);
            // Re-quantize through the public accessors (ticks are private
            // to the span module; 100 ns resolution survives roundtrip).
            buf.put_u32((span.start_offset().as_nanos() / 100) as u32);
            for c in LatencyComponent::ALL {
                buf.put_u32((span.component(c).as_nanos() / 100) as u32);
            }
            buf.put_u32(span.request_bytes);
            buf.put_u32(span.response_bytes);
            buf.put_u32(span.kilocycles);
            let flags = (span.hedged as u8) | ((span.detached as u8) << 1);
            buf.put_u8(flags);
            buf.put_u8(error_to_byte(span.error));
        }
    }
    let crc = crc32(&buf);
    buf.put_u32(crc);
    buf.to_vec()
}

/// Deserializes a trace store from bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, bad magic/version, a CRC
/// mismatch, a span count the input cannot hold ([`DecodeError::BadLength`]),
/// or an out-of-range field: an unknown error byte, a span 0 that is not
/// the root, or a parent that does not precede its child
/// ([`DecodeError::BadField`]).
pub fn import(full: &[u8]) -> Result<TraceStore, DecodeError> {
    if full.len() < 9 {
        return Err(DecodeError::Truncated);
    }
    // Verify the trailer before parsing the body.
    let (mut input, trailer) = full.split_at(full.len() - 4);
    let expected = u32::from_be_bytes(trailer.try_into().map_err(|_| DecodeError::Truncated)?);
    let actual = crc32(input);
    if expected != actual {
        return Err(DecodeError::BadChecksum { expected, actual });
    }

    let mut magic = [0u8; 4];
    input.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = input.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let trace_count = get_varint(&mut input)?;
    let mut store = TraceStore::new();
    for _ in 0..trace_count {
        if input.remaining() < 8 {
            return Err(DecodeError::Truncated);
        }
        let root_start = SimTime::from_nanos(input.get_u64());
        let span_count = get_varint(&mut input)?;
        // Bound the allocation by what the input can actually hold.
        if span_count > (input.remaining() / SPAN_BYTES) as u64 {
            return Err(DecodeError::BadLength);
        }
        let mut spans = Vec::with_capacity(span_count as usize);
        for i in 0..span_count {
            let method = MethodId(input.get_u32());
            let service = ServiceId(input.get_u16());
            let parent = input.get_u32();
            // Span 0 must be the root (no index precedes it); every other
            // span is a root or names an earlier parent.
            if parent != ROOT_PARENT && u64::from(parent) >= i {
                return Err(DecodeError::BadField);
            }
            let client = ClusterId(input.get_u16());
            let server = ClusterId(input.get_u16());
            let start_ticks = input.get_u32();
            let mut breakdown = rpclens_rpcstack::component::LatencyBreakdown::new();
            for c in LatencyComponent::ALL {
                let ticks = input.get_u32();
                breakdown.set(
                    c,
                    rpclens_simcore::time::SimDuration::from_nanos(ticks as u64 * 100),
                );
            }
            let req = input.get_u32();
            let resp = input.get_u32();
            let kilocycles = input.get_u32();
            let flags = input.get_u8();
            let error = byte_to_error(input.get_u8())?;
            let mut builder = SpanBuilder::new(method, service, client, server)
                .parent(parent)
                .start_offset(rpclens_simcore::time::SimDuration::from_nanos(
                    start_ticks as u64 * 100,
                ))
                .breakdown(breakdown)
                .sizes(req as u64, resp as u64)
                .cycles(kilocycles as u64 * 1000)
                .hedged(flags & 1 != 0)
                .detached(flags & 2 != 0);
            if let Some(kind) = error {
                builder = builder.error(kind);
            }
            let span: SpanRecord = builder.build();
            spans.push(span);
        }
        if spans.is_empty() {
            return Err(DecodeError::Truncated);
        }
        store.add(TraceData::new(root_start, spans));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_rpcstack::component::LatencyBreakdown;
    use rpclens_simcore::rng::Prng;
    use rpclens_simcore::time::SimDuration;

    fn random_store(seed: u64, traces: usize) -> TraceStore {
        let mut rng = Prng::seed_from(seed);
        let mut store = TraceStore::new();
        for t in 0..traces {
            let n = 1 + rng.index(20);
            let spans: Vec<SpanRecord> = (0..n)
                .map(|i| {
                    let mut b = LatencyBreakdown::new();
                    b.set(
                        LatencyComponent::ServerApplication,
                        SimDuration::from_nanos(rng.next_below(1_000_000_000) / 100 * 100),
                    );
                    b.set(
                        LatencyComponent::RequestNetworkWire,
                        SimDuration::from_nanos(rng.next_below(10_000_000) / 100 * 100),
                    );
                    let mut builder = SpanBuilder::new(
                        MethodId(rng.next_below(1000) as u32),
                        ServiceId(rng.next_below(40) as u16),
                        ClusterId(rng.next_below(48) as u16),
                        ClusterId(rng.next_below(48) as u16),
                    )
                    .breakdown(b)
                    .sizes(rng.next_below(1 << 20), rng.next_below(1 << 20))
                    .cycles(rng.next_below(1 << 30) / 1000 * 1000)
                    .start_offset(SimDuration::from_nanos(
                        rng.next_below(60_000_000_000) / 100 * 100,
                    ))
                    .hedged(rng.chance(0.05))
                    .detached(rng.chance(0.05));
                    if i > 0 {
                        builder = builder.parent(rng.index(i) as u32);
                    }
                    if rng.chance(0.1) {
                        builder = builder.error(*rng.choose(&ErrorKind::ALL));
                    }
                    builder.build()
                })
                .collect();
            store.add(TraceData::new(
                SimTime::from_nanos(t as u64 * 1_000_000),
                spans,
            ));
        }
        store
    }

    #[test]
    fn roundtrip_preserves_every_span() {
        let store = random_store(1, 200);
        let bytes = export(&store);
        let back = import(&bytes).expect("valid export");
        assert_eq!(back.len(), store.len());
        assert_eq!(back.total_spans(), store.total_spans());
        for (a, b) in store.traces().iter().zip(back.traces()) {
            assert_eq!(a.root_start, b.root_start);
            assert_eq!(a.spans, b.spans);
        }
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = TraceStore::new();
        let bytes = export(&store);
        let back = import(&bytes).expect("valid export");
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let store = random_store(2, 20);
        let mut bytes = export(&store);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match import(&bytes) {
            Err(DecodeError::BadChecksum { .. }) => {}
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let store = random_store(3, 20);
        let bytes = export(&store);
        for cut in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(import(&bytes[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    /// Appends the CRC trailer `export` writes over `body`.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let store = random_store(4, 5);
        let reject_with = |mutate: fn(&mut Vec<u8>)| {
            let mut bytes = export(&store);
            bytes.truncate(bytes.len() - 4);
            mutate(&mut bytes);
            // Re-seal the CRC so only the intended field is wrong.
            import(&seal(bytes))
        };
        assert!(matches!(
            reject_with(|b| b[0] = b'X'),
            Err(DecodeError::BadMagic)
        ));
        assert!(matches!(
            reject_with(|b| b[4] = 9),
            Err(DecodeError::BadVersion(9))
        ));
    }

    #[test]
    fn export_is_compact() {
        // ~70 bytes per span plus headers: far below a naive text dump.
        let store = random_store(5, 100);
        let bytes = export(&store);
        let per_span = bytes.len() as f64 / store.total_spans() as f64;
        assert!(per_span < 90.0, "{per_span:.1} bytes/span");
    }

    /// The header of a one-trace export whose trace declares `span_count`
    /// spans; the caller appends span bodies and seals it.
    fn one_trace_header(span_count: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        put_varint(&mut buf, 1);
        buf.put_u64(0);
        put_varint(&mut buf, span_count);
        buf.to_vec()
    }

    #[test]
    fn huge_span_count_is_rejected_before_allocating() {
        // 24 bytes with a valid CRC declaring 2^40 spans: used to abort
        // the process trying to reserve ~79 TB.
        let bytes = seal(one_trace_header(1 << 40));
        assert_eq!(bytes.len(), 24);
        assert_eq!(import(&bytes).err(), Some(DecodeError::BadLength));
    }

    #[test]
    fn span_trees_must_be_rooted_and_parent_first() {
        let span = |parent: u32| {
            let mut one = TraceStore::new();
            one.add(TraceData::new(
                SimTime::ZERO,
                vec![
                    SpanBuilder::new(MethodId(1), ServiceId(2), ClusterId(0), ClusterId(0)).build(),
                ],
            ));
            // The single span body, with its parent field overwritten.
            let bytes = export(&one);
            let body_at = bytes.len() - 4 - SPAN_BYTES;
            let mut body = bytes[body_at..bytes.len() - 4].to_vec();
            body[6..10].copy_from_slice(&parent.to_be_bytes());
            body
        };
        let build = |parents: &[u32]| {
            let mut bytes = one_trace_header(parents.len() as u64);
            for &p in parents {
                bytes.extend(span(p));
            }
            import(&seal(bytes))
        };
        assert!(build(&[ROOT_PARENT, 0, 1, ROOT_PARENT]).is_ok());
        // Span 0 pointing at itself: used to panic in debug builds.
        assert_eq!(build(&[0]).err(), Some(DecodeError::BadField));
        assert_eq!(build(&[ROOT_PARENT, 1]).err(), Some(DecodeError::BadField));
        assert_eq!(
            build(&[ROOT_PARENT, 0, 7]).err(),
            Some(DecodeError::BadField)
        );
    }

    /// Feeds `cases` mutated, truncated and re-sealed exports to `import`
    /// and checks that it returns (never panics), and that everything it
    /// accepts is a well-formed trace tree.
    fn fuzz_import(seed: u64, cases: usize) {
        let mut rng = Prng::seed_from(seed);
        let bases: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                let bytes = export(&random_store(seed ^ i, i as usize));
                bytes[..bytes.len() - 4].to_vec()
            })
            .collect();
        for case in 0..cases {
            let mut body = rng.choose(&bases).clone();
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(body.len() + 1);
                match rng.index(7) {
                    0 if at < body.len() => body[at] ^= 1 << rng.index(8),
                    1 if at < body.len() => body[at] = *rng.choose(&[0x00, 0x01, 0x7F, 0x80, 0xFF]),
                    2 => body.truncate(at),
                    3 if at + 4 <= body.len() => {
                        let random = rng.next_u64() as u32;
                        let word = *rng.choose(&[0, 1, u32::MAX, random]);
                        body[at..at + 4].copy_from_slice(&word.to_be_bytes());
                    }
                    4 => {
                        let extra: Vec<u8> =
                            (0..rng.index(80)).map(|_| rng.next_u64() as u8).collect();
                        body.splice(at..at, extra);
                    }
                    5 => {
                        let end = (at + rng.index(80)).min(body.len());
                        body.drain(at..end);
                    }
                    _ => {
                        // A varint of random width where a count lives: the
                        // trace count, or the first trace's span count.
                        let mut v = BytesMut::new();
                        put_varint(&mut v, rng.next_u64() >> rng.index(64));
                        let at = *rng.choose(&[5usize, 14]);
                        if at <= body.len() {
                            body.truncate(at);
                            body.extend_from_slice(&v);
                        }
                    }
                }
            }
            let input = if rng.chance(0.9) { seal(body) } else { body };
            let result = std::panic::catch_unwind(|| import(&input));
            match result {
                Err(_) => panic!("import panicked on case {case} (seed {seed}): {input:02x?}"),
                Ok(Err(_)) => {}
                Ok(Ok(store)) => {
                    for trace in store.traces() {
                        assert!(trace.spans[0].is_root(), "case {case}");
                        for (i, span) in trace.spans.iter().enumerate().skip(1) {
                            assert!(span.is_root() || (span.parent as usize) < i, "case {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fuzzed_exports_never_panic() {
        fuzz_import(0xF022, 5_000);
    }

    #[test]
    #[ignore = "long fuzz budget; run with --release -- --ignored"]
    fn fuzzed_exports_never_panic_long() {
        fuzz_import(0xF023, 500_000);
    }
}
