//! Deterministic synthetic payload generation.
//!
//! The validation harness serves the fleet catalog's methods, so request
//! and response bodies must follow the catalog's size models
//! (log-normals, clamped like `fleet::catalog`'s payload clamps) while
//! staying cheap to generate and *partially compressible* — real
//! structured RPC payloads compress to roughly half their size (the cost
//! model's default `compression_ratio` is 0.45), and an all-random body
//! would make the executed compression path trivially useless.
//!
//! Bodies are produced block-by-block from a seeded [`Prng`]: each
//! 32-byte block is either a run of one repeated byte, a copy of an
//! earlier block (LZ fodder), or fresh random bytes. The mix is tuned so
//! the LZ-class compressor in [`crate::compress`] lands near the modeled
//! ratio on kilobyte-scale bodies.

use rpclens_simcore::dist::LogNormal;
use rpclens_simcore::rng::Prng;

/// Block granularity of the generator.
const BLOCK: usize = 32;

/// Clamp bounds for sampled body sizes on the wire. The catalog's 4 MiB
/// ceiling cannot ride a single UDP datagram, so the wire clamps at
/// 48 KiB and the validation artifact records that truncation (see
/// `docs/WIRE.md`).
pub const MIN_WIRE_PAYLOAD: u64 = 64;
/// Upper clamp; leaves framing headroom under the 64 KiB datagram limit.
pub const MAX_WIRE_PAYLOAD: u64 = 48 * 1024;

/// Samples a body length from a catalog size model, clamped to the
/// wire's datagram budget.
pub fn sample_wire_len(size_model: &LogNormal, rng: &mut Prng) -> usize {
    (size_model.sample(rng) as u64).clamp(MIN_WIRE_PAYLOAD, MAX_WIRE_PAYLOAD) as usize
}

/// Fills `out` with `len` deterministic, partially compressible bytes.
pub fn fill_body(rng: &mut Prng, len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(len);
    while out.len() < len {
        let take = BLOCK.min(len - out.len());
        let kind = rng.next_f64();
        if kind < 0.40 {
            // A run: one byte repeated (dictionary-friendly).
            let byte = rng.next_u64() as u8;
            out.resize(out.len() + take, byte);
        } else if kind < 0.65 && out.len() >= BLOCK {
            // Repeat an earlier block (back-reference fodder).
            let blocks = out.len() / BLOCK;
            let which = rng.index(blocks);
            let start = which * BLOCK;
            out.extend_from_within(start..start + take);
        } else {
            // Fresh entropy: one draw per byte.
            let at = out.len();
            out.resize(at + take, 0);
            for b in &mut out[at..] {
                *b = rng.next_u64() as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress;

    fn make_body(rng: &mut Prng, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        fill_body(rng, len, &mut out);
        out
    }

    /// The generator `fill_body` replaced: every byte pushed singly.
    fn reference_fill_body(rng: &mut Prng, len: usize, out: &mut Vec<u8>) {
        out.clear();
        while out.len() < len {
            let take = BLOCK.min(len - out.len());
            let kind = rng.next_f64();
            if kind < 0.40 {
                let byte = rng.next_u64() as u8;
                out.extend(std::iter::repeat_n(byte, take));
            } else if kind < 0.65 && out.len() >= BLOCK {
                let start = rng.index(out.len() / BLOCK) * BLOCK;
                for k in 0..take {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                for _ in 0..take {
                    out.push(rng.next_u64() as u8);
                }
            }
        }
    }

    /// Checks `fill_body` against the push loop on `cases` random
    /// lengths up to the wire clamp: the same bytes and the same Prng
    /// position afterwards.
    fn fill_body_matches_push_loop(seed: u64, cases: usize) {
        let mut lens = Prng::seed_from(seed);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for case in 0..cases {
            let len = lens.index(MAX_WIRE_PAYLOAD as usize + 1);
            let mut a = Prng::seed_from(seed).stream(case as u64);
            let mut b = a.clone();
            fill_body(&mut a, len, &mut got);
            reference_fill_body(&mut b, len, &mut want);
            assert!(got == want, "case {case}: bodies of length {len} differ");
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "case {case}: Prng streams diverged"
            );
        }
    }

    #[test]
    fn fill_body_matches_push_loop_generator() {
        fill_body_matches_push_loop(8, 40);
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_fill_body_matches_push_loop_generator() {
        fill_body_matches_push_loop(9, 20_000);
    }

    #[test]
    fn bodies_are_deterministic_per_seed() {
        let a = make_body(&mut Prng::seed_from(77).stream(1), 4096);
        let b = make_body(&mut Prng::seed_from(77).stream(1), 4096);
        assert_eq!(a, b);
        let c = make_body(&mut Prng::seed_from(78).stream(1), 4096);
        assert_ne!(a, c);
    }

    #[test]
    fn bodies_compress_to_roughly_the_modeled_ratio() {
        // The cost model assumes compressed/original ~ 0.45; the
        // generator should land in a broad band around that, neither
        // incompressible nor trivial.
        let mut rng = Prng::seed_from(123);
        let mut total_raw = 0usize;
        let mut total_packed = 0usize;
        for _ in 0..50 {
            let body = make_body(&mut rng, 8192);
            total_raw += body.len();
            total_packed += compress::compress(&body).len().min(body.len());
        }
        let ratio = total_packed as f64 / total_raw as f64;
        assert!(
            (0.25..=0.75).contains(&ratio),
            "compression ratio {ratio:.3} outside plausible band"
        );
    }

    #[test]
    fn sampled_lengths_respect_the_wire_clamp() {
        let huge = LogNormal::from_median_sigma(1024.0 * 1024.0, 1.0).unwrap();
        let tiny = LogNormal::from_median_sigma(4.0, 0.5).unwrap();
        let mut rng = Prng::seed_from(5);
        for _ in 0..1000 {
            let h = sample_wire_len(&huge, &mut rng) as u64;
            let t = sample_wire_len(&tiny, &mut rng) as u64;
            assert!((MIN_WIRE_PAYLOAD..=MAX_WIRE_PAYLOAD).contains(&h));
            assert!((MIN_WIRE_PAYLOAD..=MAX_WIRE_PAYLOAD).contains(&t));
        }
    }

    #[test]
    fn exact_lengths_are_produced() {
        let mut rng = Prng::seed_from(9);
        for len in [0usize, 1, 31, 32, 33, 1000, 48 * 1024] {
            assert_eq!(make_body(&mut rng, len).len(), len);
        }
    }
}
