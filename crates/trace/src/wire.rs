//! The untrusted-bytes layer: one bounds-checked cursor, one append
//! buffer and one error vocabulary under every byte format in the
//! workspace — canonical jobs (`GSPJ`), results (`GSPR`), disk-cache
//! entries (`GSPC`), TCP frame payloads and kernel traces (`GSPT`).
//!
//! Two families of primitives share the cursor. The service formats
//! are little-endian and fixed-width, with `f64` values travelling as
//! their IEEE-754 bit patterns ([`Writer::put_f64`] / [`Reader::f64`])
//! so a decoded report compares bit-for-bit equal to the one the
//! simulator produced — which is what makes a content-addressed cache
//! sound: a cached result *is* the result. The trace format packs
//! scalars as LEB128 varints (7 payload bits per byte, continuation in
//! the high bit) with signed offsets zigzag-folded first.
//!
//! Every [`Reader`] method goes through one bounds check
//! ([`Reader::take`]) and returns a typed [`CodecError`]; length and
//! count fields are capped before anything is allocated for them, so a
//! corrupted prefix can never request an oversized allocation.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn,
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation
)]
// `assert!` and friends too (clippy.toml `disallowed-macros`), outside tests.
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]

use std::fmt;

/// Hard ceiling on any `u32` length prefix (frames, strings, blobs). A
/// power trace of a long kernel is the largest payload we ship; 64 MiB
/// is two orders of magnitude above anything the suite produces and
/// cheap insurance against a corrupt length field allocating the moon.
pub const MAX_LEN: usize = 64 << 20;

/// A decoding failure. Each variant is terminal: decoders return
/// before constructing any partial value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes do not start with the expected 4-byte magic.
    BadMagic,
    /// The header names a format version this reader does not speak.
    UnsupportedVersion(u16),
    /// The input ended inside the named field.
    Truncated {
        /// Field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A field decoded but violates the format's invariants (bad tag,
    /// non-UTF-8 string, trailing bytes, out-of-domain value, ...).
    Malformed(String),
    /// A length prefix exceeded [`MAX_LEN`].
    TooLarge(usize),
    /// An integrity digest does not match the bytes it covers (bit
    /// flip, or truncation that happened to keep the rest parseable).
    DigestMismatch,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Truncated { what } => write!(f, "truncated while reading {what}"),
            CodecError::Malformed(msg) => write!(f, "malformed input: {msg}"),
            CodecError::TooLarge(n) => write!(f, "length {n} exceeds the {MAX_LEN}-byte limit"),
            CodecError::DigestMismatch => write!(f, "integrity digest mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer with typed put operations.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends the `magic | version: u16 LE` header every format
    /// starts with ([`Reader::header`] checks it).
    pub fn put_header(&mut self, magic: &[u8; 4], version: u16) {
        self.put_raw(magic);
        self.put_u16(version);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a zigzag-folded signed varint.
    pub fn put_varint_i32(&mut self, v: i32) {
        let folded = (v.wrapping_shl(1) ^ (v >> 31)) as u32;
        self.put_varint(folded as u64);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a `u32`-length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.put_raw(b);
    }

    /// Appends a length or element count as a little-endian `u32`. A
    /// value past `u32` range saturates, so the decoder rejects it
    /// (`MAX_LEN` and every count cap sit below `u32::MAX`) instead of
    /// reading a wrapped length that misframes the bytes after it.
    pub fn put_len(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// A cursor over a byte slice with typed, bounds-checked reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Reads exactly `n` raw bytes — the one bounds check every other
    /// read goes through.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Truncated { what })?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated { what })?;
        self.pos = end;
        Ok(out)
    }

    /// Reads a fixed-width field as an array.
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| CodecError::Truncated { what })
    }

    /// Checks the `magic | version: u16 LE` header
    /// ([`Writer::put_header`]).
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), CodecError> {
        if self.array::<4>("magic")? != *magic {
            return Err(CodecError::BadMagic);
        }
        match self.u16("format version")? {
            v if v == version => Ok(()),
            v => Err(CodecError::UnsupportedVersion(v)),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        let [b] = self.array(what)?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads an LEB128 varint (at most 10 bytes; longer is malformed).
    pub fn varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8(what)?;
            let payload = (byte & 0x7f) as u64;
            if i == 9 && payload > 1 {
                return Err(CodecError::Malformed(format!("varint overflow in {what}")));
            }
            #[allow(
                clippy::arithmetic_side_effects,
                reason = "the shift distance is `7 * i` with `i < 10`, at most 63, \
                          so the shift itself cannot overflow; the `i == 9` guard \
                          above already rejects payload bits that would not fit the u64"
            )]
            let shift = 7 * i;
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Malformed(format!(
            "unterminated varint in {what}"
        )))
    }

    /// Reads a varint constrained to u32 range.
    pub fn varint_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let v = self.varint(what)?;
        u32::try_from(v)
            .map_err(|_| CodecError::Malformed(format!("{what} exceeds 32-bit range ({v})")))
    }

    /// Reads a zigzag-folded signed varint.
    pub fn varint_i32(&mut self, what: &'static str) -> Result<i32, CodecError> {
        let folded = self.varint_u32(what)?;
        Ok(((folded >> 1) as i32) ^ ((folded & 1) as i32).wrapping_neg())
    }

    /// Reads a varint element count for a list whose elements occupy
    /// at least `min_elem_bytes` each, capped at `cap`. Tying the
    /// count to the remaining input means a flipped count byte cannot
    /// request a multi-gigabyte allocation.
    pub fn count(
        &mut self,
        cap: usize,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let n = self.varint(what)?;
        let n = usize::try_from(n)
            .map_err(|_| CodecError::Malformed(format!("{what} count does not fit usize")))?;
        if n > cap {
            return Err(CodecError::Malformed(format!(
                "{what} count {n} exceeds the format cap {cap}"
            )));
        }
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated { what });
        }
        Ok(n)
    }

    /// Reads `n` raw bytes as a UTF-8 string.
    pub fn utf8(&mut self, n: usize, what: &'static str) -> Result<String, CodecError> {
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| CodecError::Malformed(format!("{what}: invalid UTF-8")))
    }

    /// Reads a `u32` length prefix, capped at [`MAX_LEN`].
    fn len32(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let len = self.u32(what)? as usize;
        if len > MAX_LEN {
            return Err(CodecError::TooLarge(len));
        }
        Ok(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.len32(what)?;
        self.utf8(len, what)
    }

    /// Reads a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.len32(what)?;
        self.take(len, what)
    }

    /// Asserts the input was consumed exactly; trailing garbage after
    /// a valid prefix is corruption, not padding (and would mean a
    /// digest covered bytes the decoder never looked at).
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Malformed(format!(
                "{what}: {} trailing byte(s)",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VARINTS: [u64; 9] = [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u32::MAX as u64,
        u64::MAX - 1,
        u64::MAX,
    ];
    const ZIGZAGS: [i32; 7] = [0, -1, 1, i32::MIN, i32::MAX, -4096, 4096];

    #[test]
    fn every_primitive_roundtrips_exactly() {
        let mut w = Writer::new();
        w.put_header(b"TEST", 3);
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(0.1 + 0.2); // a value with no short decimal form
        w.put_f64(f64::NEG_INFINITY);
        w.put_str("kernel µ");
        w.put_bytes(&[1, 2, 3]);
        for v in VARINTS {
            w.put_varint(v);
        }
        for v in ZIGZAGS {
            w.put_varint_i32(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.header(b"TEST", 3).unwrap();
        assert_eq!(r.consumed(), 6);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.f64("e").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(r.f64("f").unwrap().is_infinite());
        assert_eq!(r.str("g").unwrap(), "kernel µ");
        assert_eq!(r.bytes("h").unwrap(), &[1, 2, 3]);
        for v in VARINTS {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        for v in ZIGZAGS {
            assert_eq!(r.varint_i32("z").unwrap(), v);
        }
        r.finish("buffer").unwrap();
    }

    #[test]
    fn hostile_bytes_are_typed_errors() {
        let truncated = CodecError::Truncated { what: "field" };
        // A fixed-width field cut short leaves the cursor where it was.
        let mut r = Reader::new(&[42, 0, 0, 0, 0]);
        assert_eq!(r.u64("field"), Err(truncated.clone()));
        assert_eq!(r.remaining(), 5);
        // A lone continuation byte: the next byte never arrives.
        assert_eq!(Reader::new(&[0x80]).varint("field"), Err(truncated.clone()));
        // A count of 1000 one-byte elements with two bytes behind it.
        let mut w = Writer::new();
        w.put_varint(1000);
        w.put_raw(&[0, 0]);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).count(1 << 20, 1, "field"),
            Err(truncated)
        );
        assert!(matches!(
            Reader::new(&bytes).count(999, 1, "field"),
            Err(CodecError::Malformed(_))
        ));
        // Overlong varint, non-UTF-8 string, trailing bytes.
        assert!(matches!(
            Reader::new(&[0xff; 11]).varint("field"),
            Err(CodecError::Malformed(_))
        ));
        assert!(matches!(
            Reader::new(&[1, 0, 0, 0, 0xff]).str("field"),
            Err(CodecError::Malformed(_))
        ));
        let mut r = Reader::new(&[0; 3]);
        r.u8("x").unwrap();
        assert!(matches!(r.finish("message"), Err(CodecError::Malformed(_))));
        // A length prefix above the ceiling is rejected before any read.
        assert_eq!(
            Reader::new(&u32::MAX.to_le_bytes()).bytes("blob"),
            Err(CodecError::TooLarge(u32::MAX as usize))
        );
    }

    #[test]
    fn header_check_names_what_is_wrong() {
        let mut w = Writer::new();
        w.put_header(b"GOOD", 2);
        let bytes = w.into_bytes();
        assert_eq!(
            Reader::new(&bytes).header(b"EVIL", 2),
            Err(CodecError::BadMagic)
        );
        assert_eq!(
            Reader::new(&bytes).header(b"GOOD", 1),
            Err(CodecError::UnsupportedVersion(2))
        );
        assert!(matches!(
            Reader::new(&bytes[..5]).header(b"GOOD", 2),
            Err(CodecError::Truncated { .. })
        ));
    }
}
