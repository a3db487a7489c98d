//! Seeded fuzz loops over the two JSON decoders that read user-supplied
//! files: `json::parse` and `RunManifest::parse` (`rpclens-inspect` and
//! `repro --baseline` accept manifests from the command line).
//!
//! Valid manifests, with and without a robustness section, are mutated
//! and truncated; mutations splice in JSON tokens, nesting runs past
//! `MAX_DEPTH`, numbers past `u128` and broken escapes. Every case must
//! return `Ok` or `Err`, never panic, and no single allocation made
//! while decoding may exceed `ALLOC_PER_BYTE` times the input length.

use rpclens_obs::json::{self, Json, MAX_DEPTH};
use rpclens_obs::telemetry::{PhaseTimings, RunTelemetry, ShardCounters, ShardReport};
use rpclens_obs::{RobustnessSection, RunManifest};
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

/// Allocation bound per input byte. The largest buffers a parse grows
/// are an array's `Json` items (at least two input bytes each, `1,`)
/// and an object's `(String, Json)` pairs (at least four, `"":1`), and
/// `Vec` growth at most doubles them: both stay under one pair's size
/// per input byte. Strings take at most two bytes per input byte, and
/// the manifest's rendering for its digest check a few. First
/// capacities (four items, eight string bytes) make tiny inputs the
/// worst case, hence the fixed slack in [`bound`].
const ALLOC_PER_BYTE: usize = std::mem::size_of::<(String, Json)>();

fn bound(input_len: usize) -> usize {
    ALLOC_PER_BYTE * (input_len + 64)
}

/// A valid manifest as `RunManifest::to_json_string` writes it, with
/// `rows` error and cycle rows and, if `faulted`, a robustness section.
fn manifest_text(rows: usize, faulted: bool) -> String {
    let mut counters = ShardCounters::new();
    counters.roots = 1000;
    counters.spans = 8200;
    counters.max_depth = 5;
    for i in 0..1000u64 {
        counters.root_latency_us.record(50 + i * 3 % 9000);
        counters.queue.record((i % 4) * 250);
        counters.wire.record(i % 17 == 0);
    }
    let mut phases = PhaseTimings::new();
    phases.record("generate", 0.5);
    phases.record("simulate", 3.25);
    let telemetry = RunTelemetry {
        counters,
        per_shard: (0..2)
            .map(|shard| ShardReport {
                shard,
                roots: 500,
                spans: 4100,
                wall_ms: 1.5,
            })
            .collect(),
        phases,
        shards_used: 2,
        threads_used: 2,
    };
    let mut manifest = RunManifest::from_telemetry(
        &telemetry,
        42,
        "smoke",
        320,
        900,
        (0..rows).map(|k| (format!("kind{k}"), k as u64)).collect(),
        (0..rows)
            .map(|k| (format!("cat\u{e9}{k}"), u128::from(u64::MAX) * k as u128))
            .collect(),
        181_818,
    );
    if faulted {
        manifest.robustness = Some(RobustnessSection {
            scenario: "chaos-smoke".to_string(),
            retries_issued: 17,
            errors: vec![("deadline".to_string(), 3, 99)],
            incidents: vec![("drain".to_string(), 2, 1)],
            controllers: vec![("autoscaler".to_string(), 823)],
            ..RobustnessSection::default()
        });
    }
    manifest.to_json_string()
}

/// Text a mutation may splice in: structure, escapes, literals, and
/// numbers at and past the integer limits.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u00e9",
    "\\u+041",
    "null",
    "true",
    "fals",
    "-",
    "0",
    "-0",
    "1e999999",
    "-1e-999999",
    "1.5e",
    ".",
    "\u{263a}",
    "340282366920938463463374607431768211455",
    "340282366920938463463374607431768211456",
    "-170141183460469231731687303715884105728",
    "-170141183460469231731687303715884105729",
    "99999999999999999999999999999999999999999999999999999999999999999999999999999999",
    "18446744073709551616",
];

fn mutate(rng: &mut Prng, text: &mut Vec<u8>) {
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(text.len() + 1);
        match rng.index(7) {
            0 if at < text.len() => text[at] = *rng.choose(b"{}[]\",:-0123456789.eE\\ x"),
            1 => text.truncate(at),
            2 => {
                let token = rng.choose(TOKENS).as_bytes();
                text.splice(at..at, token.iter().copied());
            }
            3 => {
                let end = (at + rng.index(64)).min(text.len());
                text.drain(at..end);
            }
            4 => {
                // A copy of another stretch of the document.
                let from = rng.index(text.len() + 1);
                let end = (from + rng.index(200)).min(text.len());
                let copy = text[from..end].to_vec();
                text.splice(at..at, copy);
            }
            5 => {
                // A nesting run around the cap, closed or not.
                let depth = MAX_DEPTH - 2 + rng.index(5);
                let (open, close) = *rng.choose(&[("[", "]"), ("{\"k\":", "}")]);
                let mut run = open.repeat(depth);
                if rng.chance(0.5) {
                    run.push('1');
                    run.push_str(&close.repeat(depth));
                }
                text.splice(at..at, run.into_bytes());
            }
            _ => {
                // A digit run widened past u128.
                if let Some(d) = text[at..].iter().position(u8::is_ascii_digit) {
                    let digits: Vec<u8> = (0..20 + rng.index(40)).map(|_| b'9').collect();
                    text.splice(at + d..at + d, digits);
                }
            }
        }
    }
}

/// A decoder under test, reporting whether it accepted its input.
type Decoder = fn(&str) -> bool;

const DECODERS: [(&str, Decoder); 2] = [
    ("json::parse", |s| json::parse(s).is_ok()),
    ("RunManifest::parse", |s| RunManifest::parse(s).is_ok()),
];

fn fuzz_parse(seed: u64, cases: usize) {
    let mut rng = Prng::seed_from(seed);
    let bases: Vec<String> = [(0, false), (3, false), (2, true), (12, true)]
        .iter()
        .map(|&(rows, faulted)| manifest_text(rows, faulted))
        .collect();
    for base in &bases {
        RunManifest::parse(base).expect("base manifests parse");
    }
    for case in 0..cases {
        let mut bytes = rng.choose(&bases).clone().into_bytes();
        mutate(&mut rng, &mut bytes);
        let input = String::from_utf8_lossy(&bytes).into_owned();
        for (decoder, decode) in DECODERS {
            LARGEST.with(|largest| largest.set(0));
            let result = std::panic::catch_unwind(|| decode(&input));
            let largest = LARGEST.with(Cell::get);
            assert!(
                result.is_ok(),
                "{decoder} panicked on case {case} (seed {seed}): {input:?}"
            );
            assert!(
                largest <= bound(input.len()),
                "case {case} (seed {seed}): {decoder} made a {largest}-byte allocation for \
                 {} bytes of input: {input:?}",
                input.len()
            );
        }
    }
}

#[test]
fn fuzzed_manifests_never_panic() {
    fuzz_parse(0x7A50, 2_000);
}

#[test]
#[ignore = "long fuzz budget; run with --release -- --ignored"]
fn fuzzed_manifests_never_panic_long() {
    fuzz_parse(0x7A51, 200_000);
}
