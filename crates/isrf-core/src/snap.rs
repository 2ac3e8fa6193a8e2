//! Hand-rolled binary codec for simulator snapshots.
//!
//! The simulator's snapshot/resume machinery (DESIGN.md §12) serializes
//! every piece of dynamic architectural state into a versioned,
//! content-hashed byte stream. This module provides the primitives: a
//! little-endian writer ([`Enc`]) and reader ([`Dec`]), the outer frame
//! (magic + version + payload + trailing FNV-1a hash), and a named-section
//! convention that lets tooling diff two snapshots structurally without
//! knowing every field.
//!
//! The format is deliberately simple — fixed-width little-endian integers,
//! `f64` via its IEEE-754 bit pattern, length-prefixed byte strings — so
//! that re-serializing a decoded snapshot is byte-identical and two
//! snapshots of identical architectural state compare equal as raw bytes.

use std::fmt;

/// Magic bytes opening every snapshot frame.
pub const MAGIC: &[u8; 8] = b"ISRFSNAP";

/// Current snapshot format version. Bump on any layout change; decoders
/// reject other versions with [`SnapError::UnsupportedVersion`].
pub const VERSION: u32 = 1;

/// Errors surfaced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected field.
    UnexpectedEof,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame's version field is not [`VERSION`].
    UnsupportedVersion(
        /// The version found in the frame.
        u32,
    ),
    /// The trailing content hash does not match the payload.
    BadHash,
    /// The snapshot is structurally valid but does not fit the target
    /// machine (wrong configuration, program, or collection length).
    Mismatch(
        /// Human-readable description of what did not fit.
        String,
    ),
    /// Bytes remained after the final field was decoded.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof => write!(f, "snapshot truncated: unexpected end of input"),
            SnapError::BadMagic => write!(f, "not a snapshot: bad magic (expected \"ISRFSNAP\")"),
            SnapError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot version {v} (this build reads version {VERSION})"
            ),
            SnapError::BadHash => write!(f, "snapshot corrupt: content hash mismatch"),
            SnapError::Mismatch(what) => write!(f, "snapshot does not fit this machine: {what}"),
            SnapError::TrailingBytes => write!(f, "snapshot corrupt: trailing bytes after payload"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash, used both as the frame's content hash and as a
/// cheap fingerprint for configurations and programs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Little-endian binary writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consume the encoder, yielding the raw bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write an `f64` via its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write raw bytes with no length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Write a length-prefixed list of `u32` words.
    pub fn words(&mut self, v: &[u32]) {
        self.usize(v.len());
        v.iter().for_each(|&w| self.u32(w));
    }

    /// Write a length-prefixed list of `usize` values.
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        v.iter().for_each(|&w| self.usize(w));
    }
}

/// Little-endian binary reader over a borrowed byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Mismatch(format!("length {v} overflows usize")))
    }

    /// Read a bool encoded as one byte.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        Ok(self.u8()? != 0)
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| SnapError::Mismatch("invalid UTF-8 in string field".into()))
    }

    /// Read a length-prefixed list of `width`-byte elements, refusing a
    /// length the remaining bytes cannot hold before allocating for it.
    fn list<T>(
        &mut self,
        width: usize,
        read: fn(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() / width {
            return Err(SnapError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Read a list written by [`Enc::words`].
    pub fn words(&mut self) -> Result<Vec<u32>, SnapError> {
        self.list(4, Dec::u32)
    }

    /// Read a list written by [`Enc::usizes`].
    pub fn usizes(&mut self) -> Result<Vec<usize>, SnapError> {
        self.list(8, Dec::usize)
    }

    /// Check that every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// Wrap `payload` in the snapshot frame: magic, version, payload, and a
/// trailing FNV-1a 64 content hash over everything before it.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(payload);
    let h = fnv1a(&out);
    out.extend_from_slice(&h.to_le_bytes());
    out
}

/// Validate a snapshot frame and return the payload slice between the
/// header and the trailing hash.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let header = MAGIC.len() + 4;
    if bytes.len() < header + 8 {
        return Err(SnapError::UnexpectedEof);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[MAGIC.len()..header].try_into().unwrap());
    if version != VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let hash_at = bytes.len() - 8;
    let expect = u64::from_le_bytes(bytes[hash_at..].try_into().unwrap());
    if fnv1a(&bytes[..hash_at]) != expect {
        return Err(SnapError::BadHash);
    }
    Ok(&bytes[header..hash_at])
}

/// One named section of a snapshot payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (short printable ASCII, e.g. `"srf"` or `"lane3"`).
    pub name: String,
    /// Raw section payload; may itself be a nested section list.
    pub bytes: Vec<u8>,
}

/// Serialize a list of named sections: a count, then per section its
/// name, payload length, and payload bytes.
pub fn write_sections<N: AsRef<str>, B: AsRef<[u8]>>(e: &mut Enc, sections: &[(N, B)]) {
    e.usize(sections.len());
    for (name, bytes) in sections {
        e.str(name.as_ref());
        e.usize(bytes.as_ref().len());
        e.bytes(bytes.as_ref());
    }
}

/// Parse `bytes` as a section list written by [`write_sections`].
pub fn read_sections(bytes: &[u8]) -> Result<Vec<Section>, SnapError> {
    let mut d = Dec::new(bytes);
    let n = d.usize()?;
    let mut out = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        let name = d.str()?;
        let len = d.usize()?;
        let payload = d.bytes(len)?;
        out.push(Section {
            name,
            bytes: payload.to_vec(),
        });
    }
    d.finish()?;
    Ok(out)
}

/// Heuristically parse `bytes` as a section list: succeeds only when the
/// buffer decodes exactly as [`read_sections`] expects, the count is small
/// (≤ 64), and every name is short printable ASCII. Lets structural diff
/// tooling recurse into nested sections without a schema.
pub fn try_read_sections(bytes: &[u8]) -> Option<Vec<Section>> {
    let mut d = Dec::new(bytes);
    let n = d.usize().ok()?;
    if n > 64 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str().ok()?;
        if name.is_empty() || name.len() > 32 || !name.bytes().all(|b| (0x20..0x7f).contains(&b)) {
            return None;
        }
        let len = d.usize().ok()?;
        let payload = d.bytes(len).ok()?;
        out.push(Section {
            name,
            bytes: payload.to_vec(),
        });
    }
    d.finish().ok()?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.u16(0x1234);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.usize(42);
        e.bool(true);
        e.bool(false);
        e.f64(-1.5);
        e.str("hello");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0x1234);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(d.usize().unwrap(), 42);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), -1.5);
        assert_eq!(d.str().unwrap(), "hello");
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let bytes = [1u8, 2, 3];
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u64(), Err(SnapError::UnexpectedEof));
    }

    #[test]
    fn lists_round_trip_and_refuse_lengths_the_bytes_cannot_hold() {
        let mut e = Enc::new();
        e.words(&[7, 8, 9]);
        e.usizes(&[1, 2]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.words().unwrap(), [7, 8, 9]);
        assert_eq!(d.usizes().unwrap(), [1, 2]);
        d.finish().unwrap();
        // One word too many for the bytes behind it, then lengths whose
        // allocation alone would abort the process or overflow `usize`.
        for len in [4, 1 << 40, 1 << 62] {
            let mut e = Enc::new();
            e.u64(len);
            e.bytes(&[0; 12]);
            let bytes = e.into_bytes();
            assert_eq!(Dec::new(&bytes).words(), Err(SnapError::UnexpectedEof));
            assert_eq!(Dec::new(&bytes).usizes(), Err(SnapError::UnexpectedEof));
        }
    }

    #[test]
    fn frame_round_trips_and_detects_corruption() {
        let payload = b"payload bytes".to_vec();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed).unwrap(), &payload[..]);

        let mut flipped = framed.clone();
        flipped[13] ^= 1; // payload byte: header is magic (8) + version (4)
        assert_eq!(unframe(&flipped), Err(SnapError::BadHash));

        let mut bad_magic = framed.clone();
        bad_magic[0] = b'X';
        assert_eq!(unframe(&bad_magic), Err(SnapError::BadMagic));

        assert_eq!(unframe(&framed[..8]), Err(SnapError::UnexpectedEof));
    }

    #[test]
    fn unknown_version_is_rejected_with_clear_error() {
        let mut framed = frame(b"x");
        framed[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-hash so only the version is wrong.
        let hash_at = framed.len() - 8;
        let h = fnv1a(&framed[..hash_at]);
        framed[hash_at..].copy_from_slice(&h.to_le_bytes());
        let err = unframe(&framed).unwrap_err();
        assert_eq!(err, SnapError::UnsupportedVersion(99));
        assert!(err.to_string().contains("unsupported snapshot version 99"));
    }

    #[test]
    fn sections_round_trip() {
        let mut e = Enc::new();
        write_sections(
            &mut e,
            &[
                ("alpha", vec![1, 2, 3]),
                ("beta", vec![]),
                ("gamma", vec![9]),
            ],
        );
        let bytes = e.into_bytes();
        let secs = read_sections(&bytes).unwrap();
        assert_eq!(secs.len(), 3);
        assert_eq!(secs[0].name, "alpha");
        assert_eq!(secs[0].bytes, vec![1, 2, 3]);
        assert_eq!(secs[1].name, "beta");
        assert!(secs[1].bytes.is_empty());
        assert_eq!(try_read_sections(&bytes).unwrap(), secs);
    }

    #[test]
    fn try_read_sections_rejects_non_section_bytes() {
        assert!(try_read_sections(&[0xff; 16]).is_none());
        // A valid-looking count with garbage names.
        let mut e = Enc::new();
        e.usize(1);
        e.str("\u{1}bad");
        e.usize(0);
        assert!(try_read_sections(&e.into_bytes()).is_none());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
