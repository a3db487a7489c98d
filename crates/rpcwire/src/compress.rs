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

/// Table slot of a 3-byte prefix, given as the low 24 bits of `key`.
#[inline]
fn hash_key(key: u32) -> usize {
    ((key & 0xFF_FFFF).wrapping_mul(0x9E37_79B1) >> 20) as usize & (WINDOW - 1)
}

/// Input bytes at the end that [`compress`] leaves to its bytewise
/// loop: from any earlier position the word loop may read three 8-byte
/// words, enough to extend a match to [`MAX_MATCH`].
const WORD_TAIL: usize = 24;

#[inline]
fn load64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(
        *data[at..]
            .first_chunk()
            .expect("word loop stays WORD_TAIL from the end"),
    )
}

/// Length of the common prefix of `input[candidate..]` and
/// `input[i..]`, capped at [`MAX_MATCH`], compared 8 bytes at a time:
/// below [`MIN_MATCH`] exactly when the low 3 bytes of the first words
/// differ. Needs `i + WORD_TAIL <= input.len()`.
#[inline]
fn match_len(input: &[u8], candidate: usize, i: usize) -> usize {
    let mut len = 0;
    while len < MAX_MATCH {
        let diff = load64(input, candidate + len) ^ load64(input, i + len);
        if diff != 0 {
            return (len + diff.trailing_zeros() as usize / 8).min(MAX_MATCH);
        }
        len += 8;
    }
    MAX_MATCH
}

/// The encoder's token stream, written by index into a buffer sized
/// for the worst case (every byte a literal, one flag byte per 8
/// items). The open group's flag byte stays in `flags` until the group
/// closes.
struct Tokens {
    buf: Vec<u8>,
    len: usize,
    flag_pos: usize,
    flags: u8,
    /// Slots used in the open group; 8 when none is open.
    used: u32,
}

impl Tokens {
    fn new(input_len: usize) -> Self {
        Tokens {
            buf: vec![0; input_len + input_len.div_ceil(8)],
            len: 0,
            flag_pos: 0,
            flags: 0,
            used: 8,
        }
    }

    /// Takes the next slot of the open group, opening a new group (and
    /// storing the full one's flag byte) when needed; returns the slot's
    /// flag bit.
    #[inline(always)]
    fn slot(&mut self) -> u8 {
        if self.used == 8 {
            self.buf[self.flag_pos] = self.flags;
            self.flag_pos = self.len;
            self.len += 1;
            self.flags = 0;
            self.used = 0;
        }
        let bit = 1 << self.used;
        self.used += 1;
        bit
    }

    #[inline(always)]
    fn literal(&mut self, byte: u8) {
        self.slot();
        self.buf[self.len] = byte;
        self.len += 1;
    }

    #[inline(always)]
    fn matched(&mut self, offset: usize, len: usize) {
        self.flags |= self.slot();
        self.buf[self.len] = ((offset >> 8) as u8) << 4 | (len - MIN_MATCH) as u8;
        self.buf[self.len + 1] = offset as u8;
        self.len += 2;
    }

    fn finish(mut self) -> Vec<u8> {
        if self.len > 0 {
            self.buf[self.flag_pos] = self.flags;
        }
        self.buf.truncate(self.len);
        self.buf
    }
}

/// Compresses `input`, appending to a fresh buffer.
///
/// The output is never guaranteed smaller than the input (incompressible
/// data grows by one flag byte per 8 literals); callers should keep the
/// original when `compress(..).len() >= input.len()`, which is exactly
/// what the wire's [`crate::message`] layer does.
///
/// One greedy pass: at each position the hash table's single candidate
/// is taken if it is in the window and matches at least [`MIN_MATCH`]
/// bytes, otherwise one literal is emitted. Up to the last
/// `WORD_TAIL` bytes, keys and matches are read a word at a time; the
/// tail runs the same decisions byte by byte.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Tokens::new(n);
    // Last position seen per hash, `u32::MAX` for none. Past 4 GiB the
    // stored positions wrap, fail the window check below and the tail
    // is emitted as literals: still a valid stream.
    let mut table = [u32::MAX; WINDOW];
    let in_window = |candidate: usize, i: usize| {
        candidate != u32::MAX as usize && candidate < i && i - candidate < WINDOW
    };
    let mut i = 0usize;
    while i < n.saturating_sub(WORD_TAIL) {
        let key = u32::from_le_bytes(*input[i..].first_chunk().expect("i + 24 < n"));
        let h = hash_key(key);
        let candidate = table[h] as usize;
        table[h] = i as u32;
        if in_window(candidate, i) {
            let len = match_len(input, candidate, i);
            if len >= MIN_MATCH {
                out.matched(i - candidate, len);
                i += len;
                continue;
            }
        }
        out.literal(input[i]);
        i += 1;
    }
    while i < n {
        if i + MIN_MATCH <= n {
            let key = u32::from_le_bytes([input[i], input[i + 1], input[i + 2], 0]);
            let h = hash_key(key);
            let candidate = table[h] as usize;
            table[h] = i as u32;
            if in_window(candidate, i) {
                let max_len = MAX_MATCH.min(n - i);
                let mut len = 0usize;
                while len < max_len && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    out.matched(i - candidate, len);
                    i += len;
                    continue;
                }
            }
        }
        out.literal(input[i]);
        i += 1;
    }
    out.finish()
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
                if offset >= len {
                    out.extend_from_within(start..start + len);
                } else if offset == 1 {
                    // A run: the last byte, repeated.
                    out.resize(out.len() + len, out[start]);
                } else {
                    // Overlapping copies are legal (offset < len repeats
                    // the last `offset` bytes).
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
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

    /// The decoder `decompress` replaced: every match copied byte by
    /// byte.
    fn reference_decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
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

    /// A token stream of `literals` distinct literal bytes followed by
    /// one match token.
    fn literals_then_match(literals: usize, offset: usize, len: usize) -> Vec<u8> {
        let mut items: Vec<Vec<u8>> = (0..literals).map(|k| vec![k as u8 ^ 0xA5]).collect();
        let code = ((offset >> 8) as u8) << 4 | (len - MIN_MATCH) as u8;
        items.push(vec![code, offset as u8]);
        let mut stream = Vec::new();
        for (group, chunk) in items.chunks(8).enumerate() {
            let mut flags = 0u8;
            for (k, _) in chunk.iter().enumerate() {
                if group * 8 + k == literals {
                    flags |= 1 << k;
                }
            }
            stream.push(flags);
            for item in chunk {
                stream.extend_from_slice(item);
            }
        }
        stream
    }

    #[test]
    fn hand_built_matches_decode_like_the_byte_loop() {
        // Every length at every offset that overlaps its output (1..len)
        // or copies exactly its length, plus a few past it.
        for len in MIN_MATCH..=MAX_MATCH {
            for offset in 1..=len + 3 {
                for literals in [offset, offset + 5] {
                    let stream = literals_then_match(literals, offset, len);
                    let expected = reference_decompress(&stream, literals + len);
                    assert!(expected.is_ok(), "offset {offset}, len {len}");
                    assert_eq!(
                        decompress(&stream, literals + len),
                        expected,
                        "offset {offset}, len {len}, {literals} literals"
                    );
                }
            }
        }
    }

    /// Checks `decompress` against the byte-loop decoder on `cases`
    /// streams: `compress` output of generated wire bodies, and random
    /// token streams (mostly matches, many overlapping, some invalid).
    fn decompress_matches_byte_loop(seed: u64, cases: usize) {
        let mut rng = Prng::seed_from(seed);
        let mut body = Vec::new();
        for case in 0..cases {
            let len = rng.index(16 * 1024);
            crate::payload::fill_body(&mut rng, len, &mut body);
            let packed = compress(&body);
            assert_eq!(
                decompress(&packed, len).as_deref(),
                Ok(&body[..]),
                "case {case}"
            );
            assert_eq!(decompress(&packed, len), reference_decompress(&packed, len));

            let mut stream = Vec::new();
            let mut produced = 0usize;
            for group in 0..rng.index(64) {
                // At least every other item a match; the first is a
                // literal, so the stream starts with output to copy.
                let flags = (rng.next_u64() as u8 | 0xAA) & if group == 0 { !1 } else { !0 };
                stream.push(flags);
                for bit in 0..8 {
                    if flags & (1 << bit) == 0 {
                        stream.push(rng.next_u64() as u8);
                        produced += 1;
                    } else {
                        // One match in fifty reaches before the start.
                        let reach = produced.min(40) + usize::from(rng.chance(0.02)) * produced;
                        let offset = 1 + rng.index(reach);
                        let len = MIN_MATCH + rng.index(MAX_MATCH - MIN_MATCH + 1);
                        stream.push(((offset >> 8) as u8) << 4 | (len - MIN_MATCH) as u8);
                        stream.push(offset as u8);
                        produced += len;
                    }
                }
            }
            if rng.chance(0.1) {
                stream.truncate(rng.index(stream.len() + 1));
            }
            let declared = if rng.chance(0.9) {
                produced
            } else {
                rng.index(produced + 2)
            };
            assert_eq!(
                decompress(&stream, declared),
                reference_decompress(&stream, declared),
                "case {case}: {stream:02x?}"
            );
        }
    }

    #[test]
    fn decompress_matches_byte_loop_decoder() {
        decompress_matches_byte_loop(3, 300);
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_decompress_matches_byte_loop_decoder() {
        for seed in 0..8 {
            decompress_matches_byte_loop(1000 + seed, 8_000);
        }
    }

    /// The encoder `compress` replaced: one byte-at-a-time loop, each
    /// token appended and its flag bit set in the output buffer.
    fn reference_compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut table = [u32::MAX; WINDOW];
        let mut i = 0usize;
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
                let v = (input[i] as u32)
                    | ((input[i + 1] as u32) << 8)
                    | ((input[i + 2] as u32) << 16);
                let h = (v.wrapping_mul(0x9E37_79B1) >> 20) as usize & (WINDOW - 1);
                let candidate = table[h] as usize;
                table[h] = i as u32;
                if candidate != u32::MAX as usize && candidate < i && i - candidate < WINDOW {
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

    fn assert_same_encoding(data: &[u8], what: &str) {
        assert!(
            compress(data) == reference_compress(data),
            "{what}: {} bytes encode differently",
            data.len()
        );
    }

    /// Checks `compress` against the reference encoder on `cases` rounds
    /// of generated inputs: wire bodies (every length `0..=96`, then
    /// random lengths up to 48 KiB), random data over 2- and 4-symbol
    /// alphabets, single-byte runs, data repeating at the window's edge
    /// (distance 4095, 4096, 4097) and one body past 64 KiB.
    fn compress_matches_reference(seed: u64, cases: usize) {
        let mut rng = Prng::seed_from(seed);
        let mut body = Vec::new();
        for len in 0..=96 {
            crate::payload::fill_body(&mut rng, len, &mut body);
            assert_same_encoding(&body, &format!("fill_body len {len}"));
        }
        for case in 0..cases {
            let len = rng.index(48 * 1024 + 1);
            crate::payload::fill_body(&mut rng, len, &mut body);
            assert_same_encoding(&body, &format!("case {case}: fill_body"));

            for symbols in [2, 4] {
                let len = rng.index(8 * 1024);
                let data: Vec<u8> = (0..len).map(|_| b'a' + rng.index(symbols) as u8).collect();
                assert_same_encoding(&data, &format!("case {case}: {symbols} symbols"));
            }

            let mut runs = Vec::new();
            while runs.len() < 4 * 1024 {
                let byte = rng.next_u64() as u8;
                runs.extend(std::iter::repeat_n(byte, 1 + rng.index(300)));
            }
            assert_same_encoding(&runs, &format!("case {case}: runs"));

            for distance in [WINDOW - 1, WINDOW, WINDOW + 1] {
                let unit: Vec<u8> = (0..distance).map(|_| rng.next_u64() as u8).collect();
                let len = distance + rng.index(3 * distance);
                let data: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
                assert_same_encoding(&data, &format!("case {case}: distance {distance}"));
            }
        }
        crate::payload::fill_body(&mut rng, 70 * 1024, &mut body);
        assert_same_encoding(&body, "70 KiB fill_body");
        let mut data = Vec::new();
        while data.len() < 70 * 1024 {
            let len = 1 + rng.index(2 * 1024);
            crate::payload::fill_body(&mut rng, len, &mut body);
            data.extend_from_slice(&body);
        }
        assert_same_encoding(&data, "70 KiB of concatenated bodies");
    }

    #[test]
    fn compress_matches_reference_encoder() {
        compress_matches_reference(5, 12);
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_compress_matches_reference_encoder() {
        for seed in 0..16 {
            compress_matches_reference(2000 + seed, 400);
        }
    }

    #[test]
    fn arbitrary_bytes_roundtrip() {
        let mut rng = Prng::seed_from(0xC0_0001);
        let mut cases = vec![
            vec![],
            vec![0],
            vec![u8::MAX],
            vec![0; 4095],
            vec![u8::MAX; 4095],
        ];
        cases.resize_with(64, || {
            (0..rng.index(4096)).map(|_| rng.next_u64() as u8).collect()
        });
        for (case, data) in cases.into_iter().enumerate() {
            let restored = decompress(&compress(&data), data.len());
            assert_eq!(restored.as_deref(), Ok(&data[..]), "case {case}");
        }
    }

    #[test]
    fn compressible_bytes_roundtrip() {
        let mut rng = Prng::seed_from(0xC0_0002);
        let mut cases = vec![vec![(0, 1)], vec![(u8::MAX, 63)], vec![(0, 63); 63]];
        cases.push(vec![(u8::MAX, 1); 63]);
        cases.resize_with(64, || {
            let runs = 1 + rng.index(63);
            (0..runs)
                .map(|_| (rng.next_u64() as u8, 1 + rng.index(63)))
                .collect()
        });
        for (case, runs) in cases.into_iter().enumerate() {
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|&(b, n)| std::iter::repeat_n(b, n))
                .collect();
            let restored = decompress(&compress(&data), data.len());
            assert_eq!(
                restored.as_deref(),
                Ok(&data[..]),
                "case {case}: runs {runs:?}"
            );
        }
    }
}
