//! Pins the wire-trace capture: over `MemLink` with the virtual clock,
//! the full measured-trace export — every byte — must be a pure
//! function of the seed. CI runs this as a gate; a digest change means
//! the capture pipeline (codec, payload generator, cost model, span
//! assembly, or export format) drifted, which must be a deliberate,
//! reviewed act. The digests are the `wire-trace/<seed>` entries of the
//! digest registry, `crates/bench/DIGESTS`.

use rpclens_bench::digests;
use rpclens_bench::wiretrace::{run_traced_memlink, TraceBenchConfig};

#[test]
fn wire_trace_capture_is_deterministic_and_pinned() {
    for seed in [42, 7] {
        let config = TraceBenchConfig {
            requests: 48,
            seed,
            total_methods: 300,
            hops: 2,
            fanout: 2,
        };
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
