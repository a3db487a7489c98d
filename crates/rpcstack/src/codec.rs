//! The binary wire format for RPC frames.
//!
//! A small, self-describing framing: fixed magic/version, LEB128 varints
//! for variable-size fields, and a CRC32 trailer over the entire frame.
//! The simulator mostly reasons about *sizes*, but the codec is real:
//! `rpclens-rpcwire` carries every datagram in one of these frames, and
//! its executed serialization cost is what the wire validation compares
//! with Fig. 20's modeled serialization tax.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Frame magic: "RL".
pub const MAGIC: u16 = 0x524C;
/// Wire format version implemented by this module.
pub const VERSION: u8 = 1;

/// Frame flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Flags(pub u8);

impl Flags {
    /// Payload is compressed.
    pub const COMPRESSED: u8 = 0b0000_0001;
    /// Frame is a response (vs. a request).
    pub const RESPONSE: u8 = 0b0000_0100;
    /// Frame carries an error status instead of a payload result.
    pub const ERROR: u8 = 0b0000_1000;
    /// Request payload begins with a versioned trace-context extension
    /// block (distributed tracing; see `rpclens-rpcwire`'s envelope).
    pub const TRACED: u8 = 0b0001_0000;

    /// Tests a flag bit.
    pub fn contains(self, bit: u8) -> bool {
        self.0 & bit != 0
    }

    /// Sets a flag bit, returning the new flags.
    pub fn with(self, bit: u8) -> Flags {
        Flags(self.0 | bit)
    }
}

/// The header carried by every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RpcHeader {
    /// Which method is being invoked.
    pub method_id: u64,
    /// Dapper-style trace id shared by the whole RPC tree.
    pub trace_id: u64,
    /// This call's span id.
    pub span_id: u64,
    /// The parent span id (0 for a root call).
    pub parent_span_id: u64,
    /// Absolute deadline in nanoseconds since epoch (0 = none).
    pub deadline_ns: u64,
    /// Frame flags.
    pub flags: Flags,
}

/// A complete frame: header plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcFrame {
    /// Frame header.
    pub header: RpcHeader,
    /// Payload bytes (already serialized application data).
    pub payload: Bytes,
}

/// Errors that can occur while decoding a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the frame was complete.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// The version is not supported.
    BadVersion(u8),
    /// A varint used more than 10 bytes.
    VarintOverflow,
    /// The CRC32 trailer did not match the frame contents.
    BadChecksum {
        /// Checksum carried in the frame.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
    /// The declared payload length exceeds the remaining input.
    BadLength,
    /// A decoded field holds a value outside its domain.
    BadField,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::BadMagic => write!(f, "bad magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame {expected:#x}, computed {actual:#x}"
                )
            }
            DecodeError::BadLength => write!(f, "payload length exceeds input"),
            DecodeError::BadField => write!(f, "field value out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Writes a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut out = 0u64;
    for i in 0..10 {
        if buf.is_empty() {
            return Err(DecodeError::Truncated);
        }
        let byte = buf.get_u8();
        if i == 9 && byte > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        out |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(DecodeError::VarintOverflow)
}

/// Encodes a frame to bytes.
pub fn encode_frame(frame: &RpcFrame) -> Bytes {
    let mut buf = BytesMut::with_capacity(48 + frame.payload.len());
    buf.put_u16(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(frame.header.flags.0);
    put_varint(&mut buf, frame.header.method_id);
    buf.put_u64(frame.header.trace_id);
    buf.put_u64(frame.header.span_id);
    buf.put_u64(frame.header.parent_span_id);
    put_varint(&mut buf, frame.header.deadline_ns);
    put_varint(&mut buf, frame.payload.len() as u64);
    buf.put_slice(&frame.payload);
    let crc = crc32(&buf);
    buf.put_u32(crc);
    buf.freeze()
}

/// Decodes a frame from bytes, verifying the checksum.
pub fn decode_frame(mut input: &[u8]) -> Result<RpcFrame, DecodeError> {
    let full = input;
    if input.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    if input.get_u16() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = input.get_u8();
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let flags = Flags(input.get_u8());
    let method_id = get_varint(&mut input)?;
    if input.len() < 24 {
        return Err(DecodeError::Truncated);
    }
    let trace_id = input.get_u64();
    let span_id = input.get_u64();
    let parent_span_id = input.get_u64();
    let deadline_ns = get_varint(&mut input)?;
    let payload_len = get_varint(&mut input)? as usize;
    // The payload and the 4-byte trailer must fit in what is left. The
    // sum is checked: a declared length near `usize::MAX` must not wrap.
    if payload_len
        .checked_add(4)
        .is_none_or(|needed| input.len() < needed)
    {
        return Err(DecodeError::BadLength);
    }
    let payload = Bytes::copy_from_slice(&input[..payload_len]);
    input.advance(payload_len);
    let expected = input.get_u32();
    let actual = crc32(&full[..full.len() - input.len() - 4]);
    if expected != actual {
        return Err(DecodeError::BadChecksum { expected, actual });
    }
    Ok(RpcFrame {
        header: RpcHeader {
            method_id,
            trace_id,
            span_id,
            parent_span_id,
            deadline_ns,
            flags,
        },
        payload,
    })
}

/// Slicing-by-16 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table, and `CRC_TABLES[k][b]` is the CRC state of byte `b`
/// followed by `k` zero bytes, so sixteen lookups advance the CRC over
/// sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3 polynomial). On x86-64 CPUs with PCLMULQDQ and
/// SSE4.1, inputs of at least 64 bytes are folded 16 bytes at a time by
/// carry-less multiplication; everything else runs the slicing-by-16
/// tables. Both are bit-identical to the one-byte-at-a-time loop.
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() >= FOLD_MIN_LEN {
        if let Some(crc) = crc32_pclmul(data) {
            return crc;
        }
    }
    crc32_portable(data)
}

/// Shortest input [`crc32`] folds: four 16-byte accumulators' worth.
const FOLD_MIN_LEN: usize = 64;

/// CRC32 by the slicing-by-16 tables alone, on any CPU.
fn crc32_portable(data: &[u8]) -> u32 {
    !crc32_tables(!0, data)
}

/// Advances the raw (uninverted) CRC register `crc` over `data` with
/// the slicing-by-16 tables: sixteen bytes per step, then the bytewise
/// table for the tail.
fn crc32_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    for b in blocks {
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 of `data` by carry-less multiplication, or `None` when this
/// CPU lacks the instructions. Inputs shorter than [`FOLD_MIN_LEN`]
/// run the tables.
#[cfg(target_arch = "x86_64")]
fn crc32_pclmul(data: &[u8]) -> Option<u32> {
    if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    // SAFETY: `fold::crc32` enables exactly `pclmulqdq` and `sse4.1`,
    // and both were detected on this CPU just above.
    let crc = unsafe { fold::crc32(!0, data) };
    Some(!crc)
}

/// CRC32 by carry-less multiplication: never available off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn crc32_pclmul(_data: &[u8]) -> Option<u32> {
    None
}

/// CRC32 by folding with PCLMULQDQ, after Intel's "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al.,
/// 2009) for the bit-reflected IEEE polynomial: four 128-bit
/// accumulators fold 64 bytes per step, fold into one, absorb the
/// remaining 16-byte blocks, shrink to 64 bits and finish with a
/// Barrett reduction. Blocks are assembled from byte arrays, so no
/// load reads past the slice whatever its length.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for P(x) = 0x1_04C1_1DB7, bit-reflected and
    // shifted by one: x^(4*128+32) and x^(4*128-32) mod P (K1, K2) fold
    // across 64 bytes, x^(128+32) and x^(128-32) mod P (K3, K4) across
    // 16, x^64 mod P (K5) takes 96 bits to 64.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x), reflected, and the Barrett constant floor(x^64 / P(x)),
    /// reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances the raw CRC register `crc` over `data`; the tail below
    /// 16 bytes, and inputs below 64, run the tables. Callers outside
    /// this module must first detect both enabled features on the CPU.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(crc: u32, data: &[u8]) -> u32 {
        let (quads, rest) = data.as_chunks::<64>();
        let Some((first, quads)) = quads.split_first() else {
            return super::crc32_tables(crc, data);
        };
        let [mut x3, mut x2, mut x1, mut x0] = load4(first);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            let [b3, b2, b1, b0] = load4(quad);
            x3 = fold16(x3, b3, k1k2);
            x2 = fold16(x2, b2, k1k2);
            x1 = fold16(x1, b1, k1k2);
            x0 = fold16(x0, b0, k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(x3, x2, k3k4);
        x = fold16(x, x1, k3k4);
        x = fold16(x, x0, k3k4);
        let (blocks, tail) = rest.as_chunks::<16>();
        for block in blocks {
            x = fold16(x, load(block), k3k4);
        }

        // 128 bits to 96: the low half times K4, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 bits to 64: the low 32 bits times K5, plus the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 bits to the 32-bit remainder, which the
        // reflected order leaves in bits 32..64.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_tables(crc, tail)
    }

    /// `acc` carried 128 bits forward (its halves times the two keys in
    /// `keys`), plus the next block.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold16(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8; 16]) -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load4(quad: &[u8; 64]) -> [__m128i; 4] {
        let (blocks, _) = quad.as_chunks::<16>();
        [
            load(&blocks[0]),
            load(&blocks[1]),
            load(&blocks[2]),
            load(&blocks[3]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpclens_simcore::rng::Prng;

    fn frame(payload: &[u8]) -> RpcFrame {
        RpcFrame {
            header: RpcHeader {
                method_id: 1234,
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                span_id: 7,
                parent_span_id: 3,
                deadline_ns: 5_000_000_000,
                flags: Flags::default()
                    .with(Flags::COMPRESSED)
                    .with(Flags::RESPONSE),
            },
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop `crc32` replaced, with its own table: one
    /// lookup per byte.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Checks both CRC kernels, each called directly, and `crc32`
    /// against the bytewise reference: every length `0..=320` at every
    /// start offset `0..16` of one buffer (the 64-byte fold threshold,
    /// four-block and single-block folds, every tail and alignment),
    /// then `random` buffers of random length up to 64 KiB. The
    /// PCLMULQDQ kernel is checked wherever this CPU has it.
    fn crc32_matches_bytewise(seed: u64, random: usize) {
        let check = |data: &[u8], what: &str| {
            let want = reference_crc32(data);
            assert_eq!(crc32_portable(data), want, "portable, {what}");
            if let Some(hw) = crc32_pclmul(data) {
                assert_eq!(hw, want, "pclmul, {what}");
            }
            assert_eq!(crc32(data), want, "crc32, {what}");
        };
        let mut rng = Prng::seed_from(seed);
        let buf: Vec<u8> = (0..336).map(|_| rng.next_u64() as u8).collect();
        for start in 0..16 {
            for len in 0..=320 {
                let s = &buf[start..start + len];
                check(s, &format!("start {start}, len {len}"));
            }
        }
        for case in 0..random {
            let len = rng.index(64 * 1024 + 1);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            check(&data, &format!("case {case}, len {len}"));
        }
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        crc32_matches_bytewise(1, 24);
    }

    /// Long budget, run by CI's exactness-sweep step.
    #[test]
    #[ignore]
    fn sweep_crc32_matches_bytewise_reference() {
        for seed in 0..16 {
            crc32_matches_bytewise(100 + seed, 1_000);
        }
    }

    /// On an x86-64 CPU with PCLMULQDQ the folding kernel is the one
    /// `crc32` takes, so the exactness checks above cover it there.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn crc32_pclmul_runs_where_detected() {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        assert_eq!(crc32_pclmul(&[0u8; 64]).is_some(), detected);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let f = frame(b"hello rpc world");
        let encoded = encode_frame(&f);
        let decoded = decode_frame(&encoded).unwrap();
        assert_eq!(decoded, f);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = frame(b"");
        assert_eq!(decode_frame(&encode_frame(&f)).unwrap(), f);
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        let bad = [0xFFu8; 11];
        let mut slice = &bad[..];
        assert_eq!(get_varint(&mut slice), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_length() {
        let encoded = encode_frame(&frame(b"some payload data"));
        for cut in 0..encoded.len() {
            let result = decode_frame(&encoded[..cut]);
            assert!(result.is_err(), "decode succeeded at cut {cut}");
        }
    }

    #[test]
    fn corrupted_bytes_fail_checksum() {
        let encoded = encode_frame(&frame(b"payload-to-corrupt"));
        let mut corrupted = encoded.to_vec();
        // Flip a payload byte (past the 4-byte preamble, before the CRC).
        let idx = corrupted.len() - 10;
        corrupted[idx] ^= 0x01;
        match decode_frame(&corrupted) {
            Err(DecodeError::BadChecksum { .. }) | Err(DecodeError::BadLength) => {}
            other => panic!("expected checksum/length failure, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let encoded = encode_frame(&frame(b"x"));
        let mut bad_magic = encoded.to_vec();
        bad_magic[0] = 0x00;
        assert_eq!(decode_frame(&bad_magic), Err(DecodeError::BadMagic));
        let mut bad_version = encoded.to_vec();
        bad_version[2] = 99;
        assert_eq!(decode_frame(&bad_version), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn flags_set_and_test() {
        let f = Flags::default().with(Flags::TRACED).with(Flags::ERROR);
        assert!(f.contains(Flags::TRACED));
        assert!(f.contains(Flags::ERROR));
        assert!(!f.contains(Flags::COMPRESSED));
        assert!(!f.contains(Flags::RESPONSE));
    }

    /// A frame without its CRC trailer, with the offset of its
    /// payload-length varint.
    fn unsealed(frame: &RpcFrame) -> (Vec<u8>, usize) {
        let payload = &frame.payload;
        let encoded = encode_frame(frame);
        let body = encoded[..encoded.len() - 4].to_vec();
        let mut len_varint = BytesMut::new();
        put_varint(&mut len_varint, payload.len() as u64);
        let len_at = body.len() - payload.len() - len_varint.len();
        (body, len_at)
    }

    /// Appends the CRC32 trailer over `body`.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_be_bytes());
        body
    }

    #[test]
    fn max_payload_length_is_rejected_without_overflow() {
        // A 48-byte datagram declaring a u64::MAX-byte payload: the
        // length check used to overflow (a panic in debug builds, a
        // wrapped sum and an out-of-range slice in release).
        let small = RpcFrame {
            header: RpcHeader {
                method_id: 1,
                trace_id: 2,
                span_id: 3,
                parent_span_id: 0,
                deadline_ns: 0,
                flags: Flags::default(),
            },
            payload: Bytes::copy_from_slice(b"data"),
        };
        let (body, len_at) = unsealed(&small);
        let mut bytes = body[..len_at].to_vec();
        bytes.extend_from_slice(&[0xFF; 9]);
        bytes.push(0x01);
        bytes.extend_from_slice(&body[len_at + 1..]);
        let bytes = seal(bytes);
        assert_eq!(bytes.len(), 48);
        assert_eq!(decode_frame(&bytes), Err(DecodeError::BadLength));
    }

    /// Feeds `cases` mutated, truncated and re-sealed frames to
    /// `decode_frame` and checks that it returns (never panics), and that
    /// an accepted frame's payload fits in the input it came from.
    fn fuzz_decode_frame(seed: u64, cases: usize) {
        let mut rng = Prng::seed_from(seed);
        let bases: Vec<(Vec<u8>, usize)> = [0usize, 1, 17, 127, 128, 1500]
            .iter()
            .map(|&len| {
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                unsealed(&frame(&payload))
            })
            .collect();
        for case in 0..cases {
            let (base, len_at) = rng.choose(&bases);
            let mut body = base.clone();
            for _ in 0..1 + rng.index(4) {
                let at = rng.index(body.len() + 1);
                match rng.index(7) {
                    0 if at < body.len() => body[at] ^= 1 << rng.index(8),
                    1 if at < body.len() => body[at] = *rng.choose(&[0x00, 0x01, 0x7F, 0x80, 0xFF]),
                    2 => body.truncate(at),
                    3 if at + 8 <= body.len() => {
                        let random = rng.next_u64();
                        let word = *rng.choose(&[0, 1, u64::MAX, random]);
                        body[at..at + 8].copy_from_slice(&word.to_be_bytes());
                    }
                    4 => {
                        let extra: Vec<u8> =
                            (0..rng.index(40)).map(|_| rng.next_u64() as u8).collect();
                        body.splice(at..at, extra);
                    }
                    5 => {
                        let end = (at + rng.index(40)).min(body.len());
                        body.drain(at..end);
                    }
                    _ if *len_at < body.len() => {
                        // A varint of random width, or one at the top of
                        // the range, in place of the payload length; the
                        // rest of the frame is kept.
                        let mut rest = &body[*len_at..];
                        let _ = get_varint(&mut rest);
                        let rest = rest.to_vec();
                        let len = if rng.chance(0.25) {
                            u64::MAX - rng.index(8) as u64
                        } else {
                            rng.next_u64() >> rng.index(64)
                        };
                        let mut v = BytesMut::new();
                        put_varint(&mut v, len);
                        body.truncate(*len_at);
                        body.extend_from_slice(&v);
                        body.extend_from_slice(&rest);
                    }
                    _ => {}
                }
            }
            let input = if rng.chance(0.9) { seal(body) } else { body };
            match std::panic::catch_unwind(|| decode_frame(&input)) {
                Err(_) => {
                    panic!("decode_frame panicked on case {case} (seed {seed}): {input:02x?}")
                }
                Ok(Err(_)) => {}
                Ok(Ok(decoded)) => assert!(
                    decoded.payload.len() + 4 <= input.len(),
                    "case {case}: {}-byte payload from {} bytes",
                    decoded.payload.len(),
                    input.len()
                ),
            }
        }
    }

    #[test]
    fn fuzzed_frames_never_panic() {
        fuzz_decode_frame(0xC0DE, 5_000);
    }

    #[test]
    #[ignore = "long fuzz budget; run with --release -- --ignored"]
    fn fuzzed_frames_never_panic_long() {
        fuzz_decode_frame(0xC0DF, 500_000);
    }

    #[test]
    fn header_overhead_is_small() {
        // The paper's smallest RPC is a single cache line (64 B); the
        // framing must not dwarf it.
        let f = frame(b"");
        assert!(encode_frame(&f).len() <= 48, "header too large");
    }

    #[test]
    fn roundtrip_arbitrary_frames() {
        let mut rng = Prng::seed_from(0xC0DE_C001);
        let mut cases = vec![
            ([0; 5], 0, vec![]),
            ([u64::MAX; 5], 15, vec![u8::MAX; 2047]),
        ];
        cases.push(([0; 5], 15, vec![0; 2047]));
        cases.resize_with(64, || {
            let payload = (0..rng.index(2048)).map(|_| rng.next_u64() as u8).collect();
            (
                std::array::from_fn(|_| rng.next_u64()),
                rng.index(16) as u8,
                payload,
            )
        });
        for (case, (ids, flag_bits, payload)) in cases.into_iter().enumerate() {
            let [method_id, trace_id, span_id, parent_span_id, deadline_ns] = ids;
            let f = RpcFrame {
                header: RpcHeader {
                    method_id,
                    trace_id,
                    span_id,
                    parent_span_id,
                    deadline_ns,
                    flags: Flags(flag_bits),
                },
                payload: Bytes::from(payload),
            };
            assert_eq!(decode_frame(&encode_frame(&f)), Ok(f), "case {case}");
        }
    }

    #[test]
    fn varint_roundtrips_any_value() {
        let mut rng = Prng::seed_from(0xC0DE_C002);
        // Both ends and the first two-byte encoding first.
        let mut cases = vec![0, u64::MAX, 127, 128];
        cases.resize_with(64, || rng.next_u64());
        for (case, v) in cases.into_iter().enumerate() {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10, "case {case}: v {v}");
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice), Ok(v), "case {case}: v {v}");
        }
    }

    #[test]
    fn crc_detects_single_bit_flips() {
        let mut rng = Prng::seed_from(0xC0DE_C003);
        let mut cases = vec![(vec![0], 0), (vec![u8::MAX], 7), (vec![0; 255], 7)];
        cases.push((vec![u8::MAX; 255], 0));
        cases.resize_with(64, || {
            let payload = (0..1 + rng.index(255)).map(|_| rng.next_u64() as u8);
            (payload.collect(), rng.index(8))
        });
        for (case, (payload, bit)) in cases.into_iter().enumerate() {
            let mut corrupted = encode_frame(&frame(&payload)).to_vec();
            // Flip one bit somewhere in the payload region.
            let idx = 40.min(corrupted.len() - 5);
            corrupted[idx] ^= 1 << bit;
            let inputs = format!("case {case}: bit {bit}, payload {payload:?}");
            assert!(decode_frame(&corrupted).is_err(), "{inputs}");
        }
    }
}
