//! A small LZ-class compressor, executed for real on wire payloads.
//!
//! The cost model ([`rpclens_rpcstack::cost`]) *prices* compression at
//! tens of cycles per byte; this module actually runs an LZSS-style
//! encoder so the wire validation can measure the real thing. The format
//! trades ratio for simplicity and speed, in the spirit of LZ4's fast
//! path:
//!
//! - a token stream of flag bytes, each governing the next 8 items;
//! - flag bit 0: one literal byte follows;
//! - flag bit 1: a 2-byte match follows — 12-bit backward offset
//!   (1..=4095) and 4-bit length code (actual length 3..=18);
//! - matches are found with a single-probe hash table over 3-byte
//!   prefixes, so encoding is one pass, O(n), allocation-light.
//!
//! The encoder is deterministic (no randomness, no time), so identical
//! payloads always compress to identical bytes — the golden frame
//! fixture depends on that.

/// Window size: matches may reach back at most this far (12-bit offset).
pub const WINDOW: usize = 4096;
/// Shortest match worth encoding (a match token costs 2 bytes + flag).
pub const MIN_MATCH: usize = 3;
/// Longest match one token can carry (4-bit length code + MIN_MATCH).
pub const MAX_MATCH: usize = 18;

/// Errors surfaced while decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The stream ended mid-token.
    Truncated,
    /// A match referenced bytes before the start of the output.
    BadOffset,
    /// The decompressed output did not match the declared length.
    LengthMismatch {
        /// Length the caller expected.
        expected: usize,
        /// Length the stream actually produced.
        actual: usize,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Truncated => write!(f, "compressed stream truncated"),
            CompressError::BadOffset => write!(f, "match offset before stream start"),
            CompressError::LengthMismatch { expected, actual } => {
                write!(f, "decompressed {actual} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> 20) as usize & (WINDOW - 1)
}

/// Compresses `input`, appending to a fresh buffer.
///
/// The output is never guaranteed smaller than the input (incompressible
/// data grows by one flag byte per 8 literals); callers should keep the
/// original when `compress(..).len() >= input.len()`, which is exactly
/// what the wire's [`crate::message`] layer does.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = [usize::MAX; WINDOW];
    let mut i = 0usize;
    // Pending token group: position of the current flag byte in `out`
    // and how many of its 8 slots are used.
    let mut flag_pos = usize::MAX;
    let mut flag_used = 8u8;
    let push_item = |out: &mut Vec<u8>,
                     flag_pos: &mut usize,
                     flag_used: &mut u8,
                     is_match: bool,
                     bytes: &[u8]| {
        if *flag_used == 8 {
            *flag_pos = out.len();
            out.push(0);
            *flag_used = 0;
        }
        if is_match {
            out[*flag_pos] |= 1 << *flag_used;
        }
        *flag_used += 1;
        out.extend_from_slice(bytes);
    };
    while i < input.len() {
        let mut emitted = false;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(input, i);
            let candidate = table[h];
            table[h] = i;
            if candidate != usize::MAX && candidate < i && i - candidate < WINDOW {
                // Verify and extend the candidate match.
                let max_len = MAX_MATCH.min(input.len() - i);
                let mut len = 0usize;
                while len < max_len && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    let offset = i - candidate;
                    let code = ((offset >> 8) as u8) << 4 | ((len - MIN_MATCH) as u8);
                    push_item(
                        &mut out,
                        &mut flag_pos,
                        &mut flag_used,
                        true,
                        &[code, (offset & 0xFF) as u8],
                    );
                    i += len;
                    emitted = true;
                }
            }
        }
        if !emitted {
            push_item(&mut out, &mut flag_pos, &mut flag_used, false, &[input[i]]);
            i += 1;
        }
    }
    out
}

/// Decompresses a stream produced by [`compress`] into exactly
/// `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError> {
    // A 2-byte match token carries at most MAX_MATCH bytes, so no stream
    // decompresses past `input.len() / 2 * MAX_MATCH`; a larger declared
    // length is never reserved up front.
    let mut out = Vec::with_capacity(expected_len.min(input.len() / 2 * MAX_MATCH));
    let mut i = 0usize;
    while i < input.len() {
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if i >= input.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                out.push(input[i]);
                i += 1;
            } else {
                if i + 1 >= input.len() {
                    return Err(CompressError::Truncated);
                }
                let code = input[i];
                let offset = (((code >> 4) as usize) << 8) | input[i + 1] as usize;
                let len = (code & 0x0F) as usize + MIN_MATCH;
                i += 2;
                if offset == 0 || offset > out.len() {
                    return Err(CompressError::BadOffset);
                }
                let start = out.len() - offset;
                // Overlapping copies are legal (offset < len repeats).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expected_len {
        return Err(CompressError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpclens_simcore::rng::Prng;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        let restored = decompress(&packed, data.len()).unwrap();
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_and_tiny_inputs_roundtrip() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_input_shrinks_substantially() {
        let data = b"the quick brown fox. ".repeat(200);
        let packed = compress(&data);
        assert!(
            packed.len() * 3 < data.len(),
            "ratio {} / {}",
            packed.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn constant_runs_compress_hard() {
        let data = vec![0x55u8; 10_000];
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 5);
        roundtrip(&data);
    }

    #[test]
    fn random_input_roundtrips_with_bounded_expansion() {
        let mut rng = Prng::seed_from(11);
        let data: Vec<u8> = (0..8192).map(|_| rng.next_u64() as u8).collect();
        let packed = compress(&data);
        // Worst case: one flag byte per 8 literals.
        assert!(packed.len() <= data.len() + data.len() / 8 + 2);
        roundtrip(&data);
    }

    #[test]
    fn overlapping_matches_roundtrip() {
        // "aaaa..." forces offset-1 matches that overlap their own output.
        let data = vec![b'a'; 100];
        roundtrip(&data);
        let mut mixed = Vec::new();
        for i in 0..50 {
            mixed.extend_from_slice(b"xy");
            mixed.extend(std::iter::repeat_n(b'z', i % 7));
        }
        roundtrip(&mixed);
    }

    #[test]
    fn truncated_streams_are_rejected() {
        let data = b"compressible compressible compressible".repeat(10);
        let packed = compress(&data);
        for cut in 1..packed.len() {
            // Every prefix either errors or yields the wrong length.
            assert!(decompress(&packed[..cut], data.len()).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_offsets_are_rejected() {
        // Flag byte with a match token first, but nothing in the output
        // yet: the offset necessarily points before the start.
        let stream = [0b0000_0001u8, 0x10, 0x05];
        assert_eq!(decompress(&stream, 8), Err(CompressError::BadOffset));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let packed = compress(&data);
            let restored = decompress(&packed, data.len()).unwrap();
            prop_assert_eq!(restored, data);
        }

        #[test]
        fn compressible_bytes_roundtrip(
            seed: u64,
            runs in proptest::collection::vec((any::<u8>(), 1usize..64), 1..64),
        ) {
            let _ = seed;
            let mut data = Vec::new();
            for (byte, count) in runs {
                data.extend(std::iter::repeat_n(byte, count));
            }
            let packed = compress(&data);
            let restored = decompress(&packed, data.len()).unwrap();
            prop_assert_eq!(restored, data);
        }
    }
}
