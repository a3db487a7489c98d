//! Pins the wire-trace capture: over `MemLink` with the virtual clock,
//! the full measured-trace export — every byte — must be a pure
//! function of the seed. CI runs this as a gate; a digest change means
//! the capture pipeline (codec, payload generator, cost model, span
//! assembly, or export format) drifted, which must be a deliberate,
//! reviewed act. The digests are the `wire-trace/<seed>` entries of the
//! digest registry, `crates/bench/DIGESTS`; `inspect-trace/42` pins the
//! text `rpclens-inspect trace` renders from the seed-42 capture.

use rpclens_bench::digests;
use rpclens_bench::inspect::trace_text;
use rpclens_bench::wiretrace::{run_traced_memlink, TraceBenchConfig};
use rpclens_obs::manifest::fnv1a;

fn config(seed: u64) -> TraceBenchConfig {
    TraceBenchConfig {
        requests: 48,
        seed,
        total_methods: 300,
        hops: 2,
        fanout: 2,
    }
}

#[test]
fn wire_trace_capture_is_deterministic_and_pinned() {
    for seed in [42, 7] {
        let config = config(seed);
        let a = run_traced_memlink(&config).expect("traced run");
        let b = run_traced_memlink(&config).expect("traced rerun");
        assert_eq!(
            a.export, b.export,
            "seed {seed}: export bytes differ between identical runs"
        );
        assert_eq!(a.digest, b.digest);
        digests::check(&format!("wire-trace/{seed}"), a.digest);
    }
}

/// The `rpclens-inspect trace` text of the seed-42 capture, rendered
/// from its export bytes as the binary renders a `--trace-out` file:
/// trace 0's waterfall and critical path and the per-method deltas,
/// priced against the capture's own catalog.
#[test]
fn inspect_trace_text_is_pinned() {
    let report = run_traced_memlink(&config(42)).expect("traced run");
    let store = rpclens_trace::export::import(&report.export).expect("own export imports");
    let text = trace_text(&store, 0, 42, 300).expect("trace 0 exists");
    digests::check("inspect-trace/42", fnv1a(text.as_bytes()));
}
