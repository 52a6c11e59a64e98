//! Versioned binary snapshot codec for warmed simulator state.
//!
//! A *snapshot* captures the mutable state of a simulated system at a
//! mid-run cut cycle so a sweep matrix can fork many cells from one
//! warmed checkpoint instead of re-simulating the shared warmup prefix
//! per cell (DESIGN.md §15). The workspace has no serialization
//! dependency, so the codec here is hand-written:
//! a [`SnapWriter`]/[`SnapReader`] pair over a compact byte format
//! (LEB128 varints, zigzag for signed values, length-prefixed byte
//! strings), plus the [`Snap`] trait that state-bearing types implement
//! in their owning crates.
//!
//! # Identity contract
//!
//! Restoring a snapshot and continuing must be **byte-identical** to the
//! straight-through run: every `RunReport` field, every golden, at any
//! shard count. Implementations therefore serialize state *exactly* —
//! LRU clocks, RNG words, port calendars, event keys — and may omit only
//! state that is provably derived (rebuilt on demand) or invisible to
//! behavior. Iteration over unordered maps must be sorted before
//! emission so the same state always produces the same bytes.
//!
//! # Versioning
//!
//! Every snapshot starts with a four-byte container tag, a format
//! version, and the producer's `CODE_REV`. The format version guards the
//! codec layout; the `CODE_REV` guards the *meaning* of the state (a
//! simulator code change can shift what must be stored without touching
//! the layout). Readers reject both mismatches — a stale checkpoint is
//! recompiled, never reinterpreted.

use std::fmt;

/// Snapshot container tag: "BCSS" (Border Control System Snapshot).
pub const MAGIC: [u8; 4] = *b"BCSS";

/// Snapshot format version. Bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Reasons a snapshot cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value being read.
    Truncated,
    /// The leading container tag was not [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The snapshot was produced by a different simulator revision.
    CodeRevMismatch {
        /// `CODE_REV` recorded in the header.
        found: String,
        /// `CODE_REV` of this build.
        expected: String,
    },
    /// A section tag did not match the structure being restored.
    BadSection {
        /// Tag the reader expected.
        expected: [u8; 4],
        /// Tag actually present.
        found: [u8; 4],
    },
    /// A decoded value was out of range for the field it restores.
    BadValue(&'static str),
    /// A string field held invalid UTF-8.
    Utf8,
    /// Decoding finished with bytes left over — a framing bug.
    TrailingBytes(usize),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapError::CodeRevMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot from code rev {found:?}, this build is {expected:?}"
                )
            }
            SnapError::BadSection { expected, found } => write!(
                f,
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapError::BadValue(what) => write!(f, "snapshot value out of range: {what}"),
            SnapError::Utf8 => write!(f, "snapshot string is not UTF-8"),
            SnapError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Creates a writer pre-loaded with the container header: [`MAGIC`],
    /// [`FORMAT_VERSION`], and the producing simulator's `code_rev`.
    #[must_use]
    pub fn with_header(code_rev: &str) -> Self {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        w.str(code_rev);
        w
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a four-byte section tag. Paired with
    /// [`SnapReader::section`], tags turn misaligned decodes into
    /// immediate [`SnapError::BadSection`] errors instead of garbage
    /// state.
    pub fn section(&mut self, tag: [u8; 4]) {
        self.buf.extend_from_slice(&tag);
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an unsigned value as a LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
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

    /// Writes a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Writes a `u16` as a varint.
    pub fn u16(&mut self, v: u16) {
        self.u64(u64::from(v));
    }

    /// Writes a `usize` as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a signed value zigzag-encoded as a varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a value through its [`Snap`] impl.
    pub fn snap<T: Snap>(&mut self, v: &T) {
        v.save(self);
    }
}

/// Cursor-based snapshot decoder over a borrowed byte buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over raw (header-less) snapshot bytes.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Creates a reader over a buffer produced by
    /// [`SnapWriter::with_header`], validating magic, format version and
    /// `code_rev` before any state is decoded.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::BadVersion`] or
    /// [`SnapError::CodeRevMismatch`] on a stale or foreign buffer.
    pub fn with_header(buf: &'a [u8], code_rev: &str) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(buf);
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let ver = r.take(4)?;
        let found = u32::from_le_bytes([ver[0], ver[1], ver[2], ver[3]]);
        if found != FORMAT_VERSION {
            return Err(SnapError::BadVersion {
                found,
                expected: FORMAT_VERSION,
            });
        }
        let rev = r.string()?;
        if rev != code_rev {
            return Err(SnapError::CodeRevMismatch {
                found: rev,
                expected: code_rev.to_string(),
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks that the buffer was fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] if any bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(SnapError::TrailingBytes(n)),
        }
    }

    /// Reads and checks a four-byte section tag.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadSection`] on a tag mismatch.
    pub fn section(&mut self, tag: [u8; 4]) -> Result<(), SnapError> {
        let got = self.take(4)?;
        if got != tag {
            return Err(SnapError::BadSection {
                expected: tag,
                found: [got[0], got[1], got[2], got[3]],
            });
        }
        Ok(())
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte; anything but 0/1 is malformed.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] on a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue("bool")),
        }
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::BadValue`] on overflow.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(SnapError::BadValue("varint overflow"));
            }
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapError::BadValue("varint overflow"));
            }
        }
    }

    /// Reads a varint that must fit a `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] if the value exceeds `u32::MAX`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        u32::try_from(self.u64()?).map_err(|_| SnapError::BadValue("u32"))
    }

    /// Reads a varint that must fit a `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] if the value exceeds `u16::MAX`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        u16::try_from(self.u64()?).map_err(|_| SnapError::BadValue("u16"))
    }

    /// Reads a varint that must fit a `usize`.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`] if the value exceeds `usize::MAX`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue("usize"))
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates varint decode errors.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if the length outruns the buffer.
    pub fn byte_slice(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Utf8`] on invalid UTF-8.
    pub fn string(&mut self) -> Result<String, SnapError> {
        let b = self.byte_slice()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Utf8)
    }

    /// Reads a value through its [`Snap`] impl.
    ///
    /// # Errors
    ///
    /// Propagates the impl's decode errors.
    pub fn snap<T: Snap>(&mut self) -> Result<T, SnapError> {
        T::load(self)
    }
}

/// A self-describing snapshot codec for a value type. Component crates
/// implement this for their state-bearing structures (in the owning
/// crate, where private fields are reachable); composite state is built
/// from the primitive `SnapWriter`/`SnapReader` calls.
pub trait Snap: Sized {
    /// Appends this value's exact state to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes a value previously written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] raised by malformed or truncated input.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for crate::Cycle {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_u64());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::Cycle::new(r.u64()?))
    }
}

impl Snap for u64 {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for u32 {
    fn save(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u16 {
    fn save(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u16()
    }
}

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.usize()
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut SnapWriter) {
        w.i64(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.i64()
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.string()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.usize()?;
        // Guard against a corrupt length triggering a huge allocation:
        // every element needs at least one byte.
        if n > r.remaining() {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_edges() {
        let mut w = SnapWriter::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        for &v in &values {
            w.u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.u64().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn zigzag_round_trip() {
        let mut w = SnapWriter::new();
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123_456];
        for &v in &values {
            w.i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn composite_round_trip() {
        let mut w = SnapWriter::new();
        w.snap(&Some(42u64));
        w.snap(&None::<u64>);
        w.snap(&vec![(1u64, true), (2, false)]);
        w.snap(&"hello".to_string());
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.snap::<Option<u64>>().unwrap(), Some(42));
        assert_eq!(r.snap::<Option<u64>>().unwrap(), None);
        assert_eq!(
            r.snap::<Vec<(u64, bool)>>().unwrap(),
            vec![(1, true), (2, false)]
        );
        assert_eq!(r.snap::<String>().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn header_rejects_foreign_buffers() {
        let w = SnapWriter::with_header("rev-a");
        let bytes = w.into_bytes();
        assert!(SnapReader::with_header(&bytes, "rev-a").is_ok());
        assert!(matches!(
            SnapReader::with_header(&bytes, "rev-b"),
            Err(SnapError::CodeRevMismatch { .. })
        ));
        assert!(matches!(
            SnapReader::with_header(b"XXXX\x01\x00\x00\x00", "rev-a"),
            Err(SnapError::BadMagic)
        ));
        let mut bad_ver = bytes.clone();
        bad_ver[4] = 99;
        assert!(matches!(
            SnapReader::with_header(&bad_ver, "rev-a"),
            Err(SnapError::BadVersion { found: 99, .. })
        ));
    }

    #[test]
    fn section_tags_catch_misalignment() {
        let mut w = SnapWriter::new();
        w.section(*b"CACH");
        w.u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.section(*b"TLB0"),
            Err(SnapError::BadSection { .. })
        ));
    }

    #[test]
    fn truncated_and_trailing_are_detected() {
        let mut w = SnapWriter::new();
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..2]);
        assert_eq!(r.byte_slice(), Err(SnapError::Truncated));
        let mut r2 = SnapReader::new(&bytes);
        r2.byte_slice().unwrap();
        r2.finish().unwrap();
        let mut r3 = SnapReader::new(&bytes);
        let _ = r3.usize().unwrap();
        assert_eq!(r3.finish(), Err(SnapError::TrailingBytes(3)));
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX >> 1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.snap::<Vec<u64>>(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [7u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.bool(), Err(SnapError::BadValue("bool")));
    }
}
