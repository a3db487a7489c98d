//! Seeded fuzz loop over the datagram decoder, `message::decode`.
//!
//! Valid requests (plain, compressed, traced) and responses are mutated,
//! truncated and re-sealed: either the whole datagram with its CRC32
//! trailer recomputed, or the frame payload alone, re-framed by
//! `codec::encode_frame` with some flag bits toggled so the mutation
//! reaches the envelope, trace-context and decompression parsers. Every
//! case must return `Ok` or `Err`, never panic, and no single allocation
//! made while decoding may exceed `MAX_MATCH` times the datagram length:
//! a body cannot decompress past `MAX_MATCH / 2` bytes per input byte,
//! and a growing buffer at most doubles what it holds.

use rpclens_rpcstack::codec::{self, crc32, get_varint, put_varint, Flags};
use rpclens_rpcwire::compress::MAX_MATCH;
use rpclens_rpcwire::message::{self, Status, TraceContext};
use rpclens_rpcwire::payload;
use rpclens_simcore::rng::Prng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation this thread asked for since reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size per thread.
struct Tracking;

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// A valid datagram without its CRC trailer, with the offsets of the
/// length varints a mutation may replace: the frame's payload length,
/// the payload's first varint, and the body's raw length.
struct Base {
    unsealed: Vec<u8>,
    length_fields: Vec<usize>,
}

fn base(datagram: &[u8]) -> Base {
    let unsealed = datagram[..datagram.len() - 4].to_vec();
    let offset = |rest: &[u8]| unsealed.len() - rest.len();
    let mut cursor = &unsealed[4..];
    get_varint(&mut cursor).expect("method id");
    cursor = &cursor[24..];
    get_varint(&mut cursor).expect("deadline");
    let payload_len_at = offset(cursor);
    get_varint(&mut cursor).expect("payload length");
    let payload_at = offset(cursor);
    let flags = Flags(unsealed[3]);
    if flags.contains(Flags::RESPONSE) {
        for _ in 0..3 {
            get_varint(&mut cursor).expect("status and server timings");
        }
    } else if flags.contains(Flags::TRACED) {
        let ext_len = get_varint(&mut cursor).expect("extension length");
        cursor = &cursor[ext_len as usize..];
    }
    let raw_len_at = offset(cursor);
    Base {
        length_fields: vec![payload_len_at, payload_at, raw_len_at],
        unsealed,
    }
}

fn bases() -> Vec<Base> {
    let mut rng = Prng::seed_from(7);
    let mut body = Vec::new();
    payload::fill_body(&mut rng, 600, &mut body);
    let ctx = TraceContext {
        trace_id: 11,
        span_id: 12,
        parent_span_id: 13,
        sampled: true,
        depth: 300,
    };
    [
        message::encode_request(17, 1, 2, &body, true),
        message::encode_request(17, 1, 3, &body[..40], false),
        message::encode_request(4, 1, 4, b"", false),
        message::encode_request_traced(17, 1, 5, &body, true, Some(&ctx)),
        message::encode_request_traced(17, 1, 6, b"traced", false, Some(&ctx)),
        message::encode_response(17, 1, 2, Status::Ok, 1_000, 20_000, &body, true),
        message::encode_response(9, 1, 7, Status::NoSuchMethod, 40, 0, b"", false),
    ]
    .iter()
    .map(|datagram| base(datagram))
    .collect()
}

/// Applies one to four random edits to `bytes`. `length_fields` are
/// offsets where a length varint starts; one edit kind rewrites one of
/// them to a random width or to the top of the range.
fn mutate(rng: &mut Prng, bytes: &mut Vec<u8>, length_fields: &[usize]) {
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(7) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
            1 if at < bytes.len() => bytes[at] = *rng.choose(&[0x00, 0x01, 0x7F, 0x80, 0xFF]),
            2 => bytes.truncate(at),
            3 if at + 8 <= bytes.len() => {
                let random = rng.next_u64();
                let word = *rng.choose(&[0, 1, u64::MAX, random]);
                bytes[at..at + 8].copy_from_slice(&word.to_be_bytes());
            }
            4 => {
                let extra: Vec<u8> = (0..rng.index(40)).map(|_| rng.next_u64() as u8).collect();
                bytes.splice(at..at, extra);
            }
            5 => {
                let end = (at + rng.index(40)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ if !length_fields.is_empty() => {
                let at = *rng.choose(length_fields);
                if at < bytes.len() {
                    let mut rest = &bytes[at..];
                    let _ = get_varint(&mut rest);
                    let rest = rest.to_vec();
                    let len = if rng.chance(0.25) {
                        u64::MAX - rng.index(8) as u64
                    } else {
                        rng.next_u64() >> rng.index(64)
                    };
                    let mut v = bytes::BytesMut::new();
                    put_varint(&mut v, len);
                    bytes.truncate(at);
                    bytes.extend_from_slice(&v);
                    bytes.extend_from_slice(&rest);
                }
            }
            _ => {}
        }
    }
}

fn fuzz_decode(seed: u64, cases: usize) {
    let mut rng = Prng::seed_from(seed);
    let bases = bases();
    for case in 0..cases {
        let base = rng.choose(&bases);
        let input = if rng.chance(0.5) {
            // The whole datagram, usually re-sealed.
            let mut bytes = base.unsealed.clone();
            mutate(&mut rng, &mut bytes, &base.length_fields);
            if rng.chance(0.9) {
                let crc = crc32(&bytes);
                bytes.extend_from_slice(&crc.to_be_bytes());
            }
            bytes
        } else {
            // The payload alone, in a well-formed frame.
            let mut sealed = base.unsealed.clone();
            sealed.extend_from_slice(&crc32(&base.unsealed).to_be_bytes());
            let mut frame = codec::decode_frame(&sealed).expect("base frames decode");
            let payload_at = base.length_fields[1];
            let fields: Vec<usize> = base.length_fields[1..]
                .iter()
                .map(|&at| at - payload_at)
                .collect();
            let mut payload = frame.payload.to_vec();
            mutate(&mut rng, &mut payload, &fields);
            frame.payload = bytes::Bytes::from(payload);
            if rng.chance(0.3) {
                let bit = *rng.choose(&[Flags::COMPRESSED, Flags::RESPONSE, Flags::TRACED]);
                frame.header.flags = Flags(frame.header.flags.0 ^ bit);
            }
            codec::encode_frame(&frame).to_vec()
        };
        LARGEST.with(|largest| largest.set(0));
        let result = std::panic::catch_unwind(|| message::decode(&input));
        let largest = LARGEST.with(Cell::get);
        assert!(
            result.is_ok(),
            "decode panicked on case {case} (seed {seed}): {input:02x?}"
        );
        assert!(
            largest <= MAX_MATCH * input.len(),
            "case {case} (seed {seed}): a {largest}-byte allocation for a {}-byte datagram: \
             {input:02x?}",
            input.len()
        );
    }
}

#[test]
fn fuzzed_datagrams_never_panic() {
    fuzz_decode(0xD47A, 5_000);
}

#[test]
#[ignore = "long fuzz budget; run with --release -- --ignored"]
fn fuzzed_datagrams_never_panic_long() {
    fuzz_decode(0xD47B, 500_000);
}
