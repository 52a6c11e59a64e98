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
//! in their owning crates: one description per type, run by a [`Codec`]
//! that either writes the state or reads it back over the machine the
//! restoring side built. A snapshot holds run state only: the
//! configuration that fixed the machine is the caller's, and a restoring
//! caller proves it equal to the writer's once, before any component is
//! read (`bc_system`'s warm key).
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

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Snapshot container tag: "BCSS" (Border Control System Snapshot).
pub const MAGIC: [u8; 4] = *b"BCSS";

/// Snapshot format version. Bump on any layout change. Version 2 carries
/// run state only; version 1 also carried each component's config.
pub const FORMAT_VERSION: u32 = 2;

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
}

/// A component's snapshot description, run in either direction: one
/// function per component, so what is written and what is read cannot
/// drift apart.
///
/// Reading never builds a component. A restoring caller (`bc_system`'s
/// `System::restore`) builds the machine from its trusted configuration
/// first and reads over it: config and geometry come from that skeleton
/// and are not written at all, fixed lengths and optional parts are
/// written and checked against it ([`Codec::each`], [`Codec::built_opt`]),
/// while dynamic contents (queues, maps, pending events) carry counts
/// bounded by the bytes left ([`Codec::count`]).
pub trait Snap {
    /// Writes this value's exact state, or reads it over this value.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] raised by malformed or truncated input, or by
    /// bytes that disagree with the built value.
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError>;
}

/// The direction a [`Snap`] description runs in.
#[derive(Debug)]
pub enum Codec<'a> {
    /// Writes every value it is shown.
    Write(SnapWriter),
    /// Reads every value over the one it is shown.
    Read(SnapReader<'a>),
}

impl Codec<'_> {
    /// Whether this pass reads (restores) rather than writes.
    #[must_use]
    pub fn reading(&self) -> bool {
        matches!(self, Codec::Read(_))
    }

    /// The bytes written (empty for a reader).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Codec::Write(w) => w.into_bytes(),
            Codec::Read(_) => Vec::new(),
        }
    }

    /// Checks that a reader consumed every byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::TrailingBytes`] if any bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        match self {
            Codec::Write(_) => Ok(()),
            Codec::Read(r) => r.finish(),
        }
    }

    /// A four-byte section tag ([`SnapReader::section`]).
    ///
    /// # Errors
    ///
    /// [`SnapError::BadSection`] on a tag mismatch.
    pub fn section(&mut self, tag: [u8; 4]) -> Result<(), SnapError> {
        match self {
            Codec::Write(w) => w.section(tag),
            Codec::Read(r) => r.section(tag)?,
        }
        Ok(())
    }

    /// Describes `v` through its [`Snap`] impl.
    ///
    /// # Errors
    ///
    /// Propagates the impl's errors.
    pub fn snap<T: Snap>(&mut self, v: &mut T) -> Result<(), SnapError> {
        v.snap(self)
    }

    /// A value the build fixed (a length, whether an optional part
    /// exists): written out, or read and refused unless it equals the
    /// built one.
    fn built<T: Snap + Clone + PartialEq>(
        &mut self,
        v: &T,
        what: &'static str,
    ) -> Result<(), SnapError> {
        let mut read = v.clone();
        read.snap(self)?;
        if read == *v {
            Ok(())
        } else {
            Err(SnapError::BadValue(what))
        }
    }

    /// An optional part the build made or left out: its presence is
    /// written, or read and refused unless it matches the build; then its
    /// state is described.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`]`(what)` when the presence read disagrees
    /// with the build, then the part's own errors.
    pub fn built_opt<T: Snap>(
        &mut self,
        v: &mut Option<T>,
        what: &'static str,
    ) -> Result<(), SnapError> {
        self.built(&v.is_some(), what)?;
        v.as_mut().map_or(Ok(()), |v| v.snap(self))
    }

    /// A sequence of the length the build fixed: the length is written,
    /// or read and refused unless it equals the built one; then each
    /// element is described in place.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`]`(what)` when the length read disagrees
    /// with the build, then the elements' own errors.
    pub fn each<T: Snap>(&mut self, v: &mut [T], what: &'static str) -> Result<(), SnapError> {
        self.built(&v.len(), what)?;
        v.iter_mut().try_for_each(|x| x.snap(self))
    }

    /// The length of dynamic contents: written out, or read and bounded
    /// by the bytes left (every element takes at least one byte), so a
    /// corrupt count cannot size an allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the count outruns the buffer.
    pub fn count(&mut self, n: usize) -> Result<usize, SnapError> {
        match self {
            Codec::Write(w) => {
                w.usize(n);
                Ok(n)
            }
            Codec::Read(r) => match r.usize()? {
                n if n > r.remaining() => Err(SnapError::Truncated),
                n => Ok(n),
            },
        }
    }

    /// A length-prefixed byte string whose length the build fixed (a
    /// page, a BCC entry's bits).
    ///
    /// # Errors
    ///
    /// [`SnapError::BadValue`]`(what)` on any other length.
    pub fn bytes(&mut self, v: &mut [u8], what: &'static str) -> Result<(), SnapError> {
        match self {
            Codec::Write(w) => w.bytes(v),
            Codec::Read(r) => {
                let b = r.byte_slice()?;
                if b.len() != v.len() {
                    return Err(SnapError::BadValue(what));
                }
                v.copy_from_slice(b);
            }
        }
        Ok(())
    }
}

/// Writes `v`'s description to a fresh, header-less buffer.
#[must_use]
pub fn to_bytes<T: Snap>(v: &mut T) -> Vec<u8> {
    let mut c = Codec::Write(SnapWriter::new());
    v.snap(&mut c).expect("writing cannot fail");
    c.into_bytes()
}

/// Reads header-less `bytes` over `v`, which must be built as the
/// writer's was, and checks they were all consumed.
///
/// # Errors
///
/// Any [`SnapError`] of `v`'s description, or trailing bytes.
pub fn read_into<T: Snap>(bytes: &[u8], v: &mut T) -> Result<(), SnapError> {
    let mut c = Codec::Read(SnapReader::new(bytes));
    v.snap(&mut c)?;
    c.finish()
}

/// Varints (and bools) straight through the writer's and reader's
/// methods of the same name.
macro_rules! snap_prim {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
                match c {
                    Codec::Write(w) => w.$ty(*self),
                    Codec::Read(r) => *self = r.$ty()?,
                }
                Ok(())
            }
        }
    )*};
}

snap_prim!(u8, u16, u32, u64, usize, i64, bool);

impl Snap for String {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        match c {
            Codec::Write(w) => w.str(self),
            Codec::Read(r) => *self = r.string()?,
        }
        Ok(())
    }
}

impl Snap for crate::Cycle {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        let mut v = self.as_u64();
        c.snap(&mut v)?;
        *self = crate::Cycle::new(v);
        Ok(())
    }
}

/// The value a reader starts from before reading over it: the content
/// of an `Option` read over `None`, an element of a sequence or a map,
/// a field of an enum variant. Every [`Default`] type has one; an enum
/// described by [`snap_enum!`](crate::snap_enum) or a struct described
/// by [`snap_struct!`](crate::snap_struct) gets one from its
/// description, so a placeholder value never joins a type's public API.
#[doc(hidden)]
pub trait Blank {
    /// A value whose every field the reader overwrites.
    fn blank() -> Self;
}

impl<T: Default> Blank for T {
    fn blank() -> Self {
        T::default()
    }
}

/// Presence flag, then the value; reading `Some` over `None` starts
/// from the [`Blank`].
impl<T: Snap + Blank> Snap for Option<T> {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        let mut some = self.is_some();
        c.snap(&mut some)?;
        if !some {
            *self = None;
            return Ok(());
        }
        self.get_or_insert_with(T::blank).snap(c)
    }
}

/// Dynamic contents: a [`Codec::count`], then each element. Reading
/// replaces the contents one element at a time, so a corrupt count runs
/// out of bytes before it allocates more elements than it read.
macro_rules! snap_seq {
    ($($seq:ident),*) => {$(
        impl<T: Snap + Blank> Snap for $seq<T> {
            fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
                let n = c.count(self.len())?;
                if !c.reading() {
                    return self.iter_mut().try_for_each(|x| x.snap(c));
                }
                self.clear();
                for _ in 0..n {
                    let mut x = T::blank();
                    x.snap(c)?;
                    self.extend([x]);
                }
                Ok(())
            }
        }
    )*};
}

snap_seq!(Vec, VecDeque);

/// Entries in key order, encoded as a sequence of `(key, value)` pairs.
/// Writing walks the map in place; reading replaces its entries.
impl<K: Snap + Blank + Ord + Clone, V: Snap + Blank> Snap for BTreeMap<K, V> {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        let n = c.count(self.len())?;
        if !c.reading() {
            return self
                .iter_mut()
                .try_for_each(|(k, v)| c.snap(&mut k.clone()).and_then(|()| c.snap(v)));
        }
        self.clear();
        for _ in 0..n {
            let (mut k, mut v) = (K::blank(), V::blank());
            c.snap(&mut k)?;
            c.snap(&mut v)?;
            self.insert(k, v);
        }
        Ok(())
    }
}

/// Entries in ascending key order, so hash order never reaches the
/// bytes, as a sequence of `(key, value)` pairs. Writing copies the
/// entries out to sort them; reading replaces the map's entries.
impl<K, V> Snap for crate::fxmap::FxHashMap<K, V>
where
    K: Snap + Blank + Ord + Hash + Clone,
    V: Snap + Blank + Clone,
{
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        let n = c.count(self.len())?;
        if !c.reading() {
            let mut entries: Vec<(K, V)> =
                self.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            return entries.iter_mut().try_for_each(|e| c.snap(e));
        }
        self.clear();
        for _ in 0..n {
            let (mut k, mut v) = (K::blank(), V::blank());
            c.snap(&mut k)?;
            c.snap(&mut v)?;
            self.insert(k, v);
        }
        Ok(())
    }
}

/// Fixed-size arrays: each element in place, no length.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|x| x.snap(c))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
        c.snap(&mut self.0)?;
        c.snap(&mut self.1)
    }
}

/// Implements [`Snap`] for a struct as every one of its fields in
/// order, and its [`Blank`] as the struct of blank fields (the field
/// list must name them all).
///
/// ```
/// # use bc_sim::snap_struct;
/// #[derive(Debug, PartialEq)]
/// struct Range { start: u64, len: u32 }
/// snap_struct!(Range: start, len);
///
/// let mut r = Range { start: 7, len: 3 };
/// let bytes = bc_sim::snapshot::to_bytes(&mut r);
/// let mut back = Range { start: 0, len: 0 };
/// bc_sim::snapshot::read_into(&bytes, &mut back).unwrap();
/// assert_eq!(back, r);
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident: $($f:ident),+ $(,)?) => {
        impl $crate::snapshot::Snap for $ty {
            fn snap(
                &mut self,
                c: &mut $crate::snapshot::Codec<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                $(c.snap(&mut self.$f)?;)+
                Ok(())
            }
        }

        impl $crate::snapshot::Blank for $ty {
            fn blank() -> Self {
                $ty { $($f: $crate::snapshot::Blank::blank()),+ }
            }
        }
    };
}

/// Implements [`Snap`] for an enum from one list of `tag => Variant`
/// arms: a one-byte tag, then the variant's fields in order. Reading
/// builds the tagged variant from its fields read over their
/// [`Blank`]s, and refuses an unknown tag as `BadValue($what)`. The
/// enum's own blank is its first arm with blank fields, unless it is
/// written `$ty: Default`: then its `Default` serves.
///
/// ```
/// # use bc_sim::snap_enum;
/// #[derive(Debug, PartialEq)]
/// enum Op { Nop, Load { addr: u64 }, Store(u64, bool) }
/// snap_enum!(Op, "op", 0 => Nop, 1 => Load { addr }, 2 => Store(addr, wide));
///
/// let mut op = Op::Store(7, true);
/// let bytes = bc_sim::snapshot::to_bytes(&mut op);
/// let mut back = Op::Nop;
/// bc_sim::snapshot::read_into(&bytes, &mut back).unwrap();
/// assert_eq!(back, op);
/// ```
#[macro_export]
macro_rules! snap_enum {
    (@blank $f:ident) => {
        $crate::snapshot::Blank::blank()
    };
    (@snap $ty:ident, $what:literal,
     $($tag:literal => $var:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?),+ $(,)?) => {
        impl $crate::snapshot::Snap for $ty {
            fn snap(
                &mut self,
                c: &mut $crate::snapshot::Codec<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                if !c.reading() {
                    match self {
                        $($ty::$var $({ $($f),* })? $(( $($t),* ))? => {
                            let mut tag: u8 = $tag;
                            c.snap(&mut tag)?;
                            $($(c.snap($f)?;)*)?
                            $($(c.snap($t)?;)*)?
                        })+
                    }
                    return Ok(());
                }
                let mut tag = 0u8;
                c.snap(&mut tag)?;
                *self = match tag {
                    $($tag => {
                        $($(let mut $f = $crate::snapshot::Blank::blank(); c.snap(&mut $f)?;)*)?
                        $($(let mut $t = $crate::snapshot::Blank::blank(); c.snap(&mut $t)?;)*)?
                        $ty::$var $({ $($f),* })? $(( $($t),* ))?
                    })+
                    _ => return Err($crate::snapshot::SnapError::BadValue($what)),
                };
                Ok(())
            }
        }
    };
    ($ty:ident: Default, $what:literal, $($arms:tt)+) => {
        $crate::snap_enum!(@snap $ty, $what, $($arms)+);
    };
    ($ty:ident, $what:literal,
     $tag0:literal => $var0:ident $({ $($f0:ident),* })? $(( $($t0:ident),* ))?
     $(, $($rest:tt)*)?) => {
        $crate::snap_enum!(@snap $ty, $what,
            $tag0 => $var0 $({ $($f0),* })? $(( $($t0),* ))? $(, $($rest)*)?);

        impl $crate::snapshot::Blank for $ty {
            fn blank() -> Self {
                $ty::$var0
                    $({ $($f0: $crate::snapshot::Blank::blank()),* })?
                    $(( $($crate::snap_enum!(@blank $t0)),* ))?
            }
        }
    };
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
        let mut w = Codec::Write(SnapWriter::new());
        w.snap(&mut Some(42u64)).unwrap();
        w.snap(&mut None::<u64>).unwrap();
        w.snap(&mut vec![(1u64, true), (2, false)]).unwrap();
        w.snap(&mut "hello".to_string()).unwrap();
        let bytes = w.into_bytes();
        let mut r = Codec::Read(SnapReader::new(&bytes));
        let (mut some, mut none) = (None::<u64>, Some(9u64));
        r.snap(&mut some).unwrap();
        r.snap(&mut none).unwrap();
        assert_eq!(some, Some(42));
        assert_eq!(none, None);
        let mut pairs: Vec<(u64, bool)> = vec![(5, true); 3];
        r.snap(&mut pairs).unwrap();
        assert_eq!(pairs, vec![(1, true), (2, false)]);
        let mut s = String::new();
        r.snap(&mut s).unwrap();
        assert_eq!(s, "hello");
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
        // A later format and the earlier one (whose components also
        // carried their configs) are both refused.
        for found in [99, FORMAT_VERSION - 1] {
            let mut bad_ver = bytes.clone();
            bad_ver[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                SnapReader::with_header(&bad_ver, "rev-a").err(),
                Some(SnapError::BadVersion {
                    found,
                    expected: FORMAT_VERSION
                })
            );
        }
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
        assert_eq!(
            read_into(&bytes, &mut Vec::<u64>::new()),
            Err(SnapError::Truncated)
        );
    }

    #[test]
    fn bad_bool_rejected() {
        let bytes = [7u8];
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.bool(), Err(SnapError::BadValue("bool")));
    }
}
