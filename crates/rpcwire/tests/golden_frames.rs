//! Golden frame-bytes fixture for the wire format.
//!
//! Encodes a fixed set of requests and responses (with deterministic
//! bodies from [`rpclens_rpcwire::payload`]) and compares the exact
//! datagram bytes against `tests/data/golden_frames.txt`. Any change to
//! the codec layout, the envelope, the compressor, or the payload
//! generator shows up here as a byte-level diff — which is the point:
//! the wire format is a compatibility surface, and drift must be a
//! deliberate, reviewed act (regenerate with
//! `REGEN_WIRE_GOLDEN=1 cargo test -p rpclens-rpcwire --test golden_frames`).

use rpclens_rpcwire::message::{self, Message, Status, TraceContext};
use rpclens_rpcwire::payload;
use rpclens_simcore::rng::Prng;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_frames.txt");

/// The fixed datagrams the fixture pins, as `(name, bytes)`.
fn golden_datagrams() -> Vec<(&'static str, Vec<u8>)> {
    // Compressible request: generator-made body (mixed runs / copies /
    // entropy), exercises the LZ path end to end.
    let mut rng = Prng::seed_from(42).stream(7);
    let mut body = Vec::new();
    payload::fill_body(&mut rng, 256, &mut body);
    let compressed_request = message::encode_request(17, 0x00C0_FFEE, 1, &body, true);

    // Incompressible request: a strictly increasing ramp has no 3-byte
    // repeats, so the wire must carry it raw with COMPRESSED clear.
    let ramp: Vec<u8> = (0..96u8).collect();
    let raw_request = message::encode_request(3, 5, 2, &ramp, true);

    // Empty-body request, compression declined.
    let empty_request = message::encode_request(250, 1, 3, b"", false);

    // Ok response with server timings and a run-heavy compressible body.
    let run_body = vec![0x52u8; 512];
    let ok_response =
        message::encode_response(17, 0x00C0_FFEE, 1, Status::Ok, 1111, 2222, &run_body, true);

    // Error response: NoSuchMethod, empty body, ERROR flag set.
    let error_response =
        message::encode_response(999, 5, 2, Status::NoSuchMethod, 40, 0, b"", false);

    // v2 traced request: TRACED flag set, payload prefixed with the
    // versioned trace-context extension block.
    let trace = TraceContext {
        trace_id: 0x0123_4567_89AB_CDEF,
        span_id: 0x0000_0000_0000_002A,
        parent_span_id: 0x0000_0000_0000_0007,
        sampled: true,
        depth: 2,
    };
    let traced_request =
        message::encode_request_traced(17, 0x00C0_FFEE, 4, b"traced body", false, Some(&trace));

    vec![
        ("compressed_request", compressed_request.to_vec()),
        ("raw_request", raw_request.to_vec()),
        ("empty_request", empty_request.to_vec()),
        ("ok_response", ok_response.to_vec()),
        ("error_response", error_response.to_vec()),
        ("traced_request", traced_request.to_vec()),
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").unwrap();
    }
    s
}

fn from_hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

fn render_fixture(datagrams: &[(&'static str, Vec<u8>)]) -> String {
    let mut out = String::from(
        "# Golden wire datagrams. One `name hex` pair per line.\n\
         # Regenerate: REGEN_WIRE_GOLDEN=1 cargo test -p rpclens-rpcwire --test golden_frames\n",
    );
    for (name, bytes) in datagrams {
        writeln!(out, "{name} {}", to_hex(bytes)).unwrap();
    }
    out
}

#[test]
fn frames_match_the_committed_fixture() {
    let datagrams = golden_datagrams();
    if std::env::var_os("REGEN_WIRE_GOLDEN").is_some() {
        std::fs::write(FIXTURE, render_fixture(&datagrams)).unwrap();
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE)
        .unwrap_or_else(|e| panic!("missing fixture {FIXTURE}: {e}"));
    let mut pinned = std::collections::BTreeMap::new();
    for line in committed.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').expect("fixture line format");
        pinned.insert(name.to_string(), from_hex(hex));
    }
    assert_eq!(
        pinned.len(),
        datagrams.len(),
        "fixture entry count drifted from the test's datagram set"
    );
    for (name, bytes) in &datagrams {
        let want = pinned
            .get(*name)
            .unwrap_or_else(|| panic!("fixture missing entry {name}"));
        assert_eq!(
            &to_hex(bytes),
            &to_hex(want),
            "wire bytes for `{name}` drifted from the golden fixture; if the \
             format change is intentional, regenerate with REGEN_WIRE_GOLDEN=1"
        );
    }
}

#[test]
fn committed_fixture_bytes_still_decode() {
    // The fixture is also a *decoder* compatibility check: datagrams
    // produced by past builds must keep decoding, with the expected
    // identities and statuses.
    if std::env::var_os("REGEN_WIRE_GOLDEN").is_some() {
        // Regeneration runs race fixture rewriting; only the committed
        // file matters here.
        return;
    }
    let committed = std::fs::read_to_string(FIXTURE).unwrap();
    let mut decoded = 0usize;
    for line in committed.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line.split_once(' ').unwrap();
        let bytes = from_hex(hex);
        let msg = message::decode(&bytes)
            .unwrap_or_else(|e| panic!("committed datagram `{name}` no longer decodes: {e}"));
        match (name, msg) {
            ("compressed_request", Message::Request(req)) => {
                assert_eq!(req.method, 17);
                assert_eq!(req.client_id, 0x00C0_FFEE);
                assert_eq!(req.request_id, 1);
                assert!(req.was_compressed);
                assert_eq!(req.body.len(), 256);
            }
            ("raw_request", Message::Request(req)) => {
                assert!(!req.was_compressed);
                assert_eq!(req.body.len(), 96);
            }
            ("empty_request", Message::Request(req)) => {
                assert_eq!(req.method, 250);
                assert!(req.body.is_empty());
            }
            ("ok_response", Message::Response(resp)) => {
                assert_eq!(resp.status, Status::Ok);
                assert_eq!(resp.server_decode_ns, 1111);
                assert_eq!(resp.server_exec_ns, 2222);
                assert_eq!(resp.body.len(), 512);
                assert!(resp.was_compressed);
            }
            ("error_response", Message::Response(resp)) => {
                assert_eq!(resp.status, Status::NoSuchMethod);
                assert_eq!(resp.server_decode_ns, 40);
                assert!(resp.body.is_empty());
            }
            ("traced_request", Message::Request(req)) => {
                assert_eq!(req.method, 17);
                assert_eq!(req.request_id, 4);
                assert_eq!(&req.body[..], b"traced body");
                let trace = req.trace.expect("v2 frame carries a trace context");
                assert_eq!(trace.trace_id, 0x0123_4567_89AB_CDEF);
                assert_eq!(trace.span_id, 0x2A);
                assert_eq!(trace.parent_span_id, 0x07);
                assert!(trace.sampled);
                assert_eq!(trace.depth, 2);
            }
            (name, other) => panic!("unexpected fixture entry {name}: {other:?}"),
        }
        decoded += 1;
    }
    assert_eq!(decoded, 6);
}
