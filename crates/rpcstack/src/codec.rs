//! The binary wire format for RPC frames.
//!
//! A small, self-describing framing: fixed magic/version, LEB128 varints
//! for variable-size fields, and a CRC32 trailer over the entire frame.
//! The simulator mostly reasons about *sizes*, but the codec is real — the
//! fleet driver round-trips every traced request header through it, and
//! the serialization microbenchmarks (Fig. 20's serialization tax) measure
//! this code.

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
    /// Payload is encrypted.
    pub const ENCRYPTED: u8 = 0b0000_0010;
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
    if input.len() < payload_len + 4 {
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

/// CRC32 (IEEE 802.3 polynomial), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
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
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let f = Flags::default().with(Flags::ENCRYPTED).with(Flags::ERROR);
        assert!(f.contains(Flags::ENCRYPTED));
        assert!(f.contains(Flags::ERROR));
        assert!(!f.contains(Flags::COMPRESSED));
        assert!(!f.contains(Flags::RESPONSE));
    }

    #[test]
    fn header_overhead_is_small() {
        // The paper's smallest RPC is a single cache line (64 B); the
        // framing must not dwarf it.
        let f = frame(b"");
        assert!(encode_frame(&f).len() <= 48, "header too large");
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_frames(
            method_id: u64,
            trace_id: u64,
            span_id: u64,
            parent_span_id: u64,
            deadline_ns: u64,
            flag_bits in 0u8..16,
            payload in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
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
            let decoded = decode_frame(&encode_frame(&f)).unwrap();
            prop_assert_eq!(decoded, f);
        }

        #[test]
        fn varint_roundtrips_any_value(v: u64) {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            let mut slice = &buf[..];
            prop_assert_eq!(get_varint(&mut slice).unwrap(), v);
        }

        #[test]
        fn crc_detects_single_bit_flips(
            payload in proptest::collection::vec(any::<u8>(), 1..256),
            bit in 0usize..8,
        ) {
            let f = frame(&payload);
            let encoded = encode_frame(&f);
            let mut corrupted = encoded.to_vec();
            // Flip one bit somewhere in the payload region.
            let idx = 40.min(corrupted.len() - 5);
            corrupted[idx] ^= 1 << bit;
            prop_assert!(decode_frame(&corrupted).is_err());
        }
    }
}
