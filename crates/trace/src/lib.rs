//! Compiled workload traces (DESIGN.md §15).
//!
//! Every sweep cell used to re-synthesize its address stream inline: the
//! `bc_workloads` generators ran *during* simulation, inside the hot
//! event loop, once per cell. This crate runs any generator **offline**
//! instead, compiling its full op sequence into a compact delta-encoded
//! container that cells replay — and because the container is
//! content-addressed by the workload coordinate (via the same
//! [`bc_sim::sha256`] path the `bc-serve` CAS uses), every sweep cell and
//! every `bc-serve` job sharing a coordinate shares one trace file on
//! disk.
//!
//! # Container format (`.bctr`, version 2)
//!
//! All multi-byte integers are LEB128 varints (signed values zigzag)
//! encoded with [`bc_sim::snapshot::SnapWriter`] primitives, except the
//! fixed-width version word and seek offsets:
//!
//! ```text
//! magic   b"BCWT"
//! version u32 LE                      (= 2)
//! meta    workload name: str          (length-prefixed UTF-8)
//!         footprint_bytes: varint     (distinguishes workload sizes)
//!         seed: varint
//!         total_wfs: varint
//!         source: str                 ("compile" | "import")
//! index   per wf in 0..total_wfs:
//!         op_count: varint, seek_count: varint, ops_len: varint
//! payload per wf, concatenated:
//!         seek    seek_count × u32 LE: byte offset of op 32·k within
//!                 the wf's ops, for k in 1..=seek_count
//!                 (seek_count = ⌈op_count / 32⌉ − 1)
//!         ops     ops_len bytes; per op: think: varint
//!                 header: varint      (write_mask << 4 | n_blocks)
//!                 per block: zigzag varint byte delta from previous
//!                            block address (BASE_VA at ops 0, 32, 64, …)
//! ```
//!
//! The per-wavefront index makes opening one wavefront's stream O(1).
//! The seek index makes [`AccessStream::skip`] O(1) too: the address-delta
//! chain restarts at every seek point, so an entry needs no decoder state
//! beyond its offset, and [`TraceStream`] jumps to the last seek point at
//! or below its target and decodes at most [`SEEK_EVERY`] − 1 ops. Both
//! indexes are read in place from the container bytes, so a stream costs
//! a cursor and a previous-address register — no materialized op or
//! offset vectors. [`Trace::parse`] checks the seek index's shape (entry
//! count, increasing offsets inside the payload) and [`verify`] checks
//! every entry against the offset decoding reaches.
//!
//! # Identity contract
//!
//! [`TraceStream`] must be **op-for-op identical** to the live generator
//! it was compiled from: same `think`, same block addresses in the same
//! order, same write flags, same stream length, and a `skip(n)` lands
//! where `n` calls of `next_op` would. Model-based proptests
//! (`tests/replay.rs`) pin this across all seven suite generators ×
//! sizes × seeds, and [`verify`] re-checks any single coordinate (used
//! by CI on the compiled artifacts themselves).

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bc_mem::VirtAddr;
use bc_sim::fxmap::FxHashMap;
use bc_sim::snapshot::{SnapReader, SnapWriter};
use bc_sim::stats::Counter;
use bc_workloads::{AccessStream, BlockAccess, BlockList, StreamSource, WarpOp, Workload, BASE_VA};

/// Trace container tag: "BCWT" (Border Control Workload Trace).
pub const MAGIC: [u8; 4] = *b"BCWT";

/// Container format version. Bump on any layout change; the content
/// address includes it, so old files are simply never looked up again.
pub const FORMAT_VERSION: u32 = 2;

/// File extension compiled traces use inside a [`TraceDir`].
pub const EXTENSION: &str = "bctr";

/// Ops between seek points. Op `k · SEEK_EVERY` of a wavefront starts a
/// new address-delta chain, and for `k ≥ 1` its byte offset is entry
/// `k − 1` of the wavefront's seek index.
pub const SEEK_EVERY: u64 = 32;

/// Seek-index entries a wavefront of `ops` ops has: one per multiple of
/// [`SEEK_EVERY`] above 0 and below `ops`.
fn seek_points(ops: u64) -> u64 {
    if ops == 0 {
        0
    } else {
        (ops - 1) / SEEK_EVERY
    }
}

/// Why a trace container could not be decoded or verified.
#[derive(Debug)]
pub enum TraceError {
    /// Not a trace container (bad magic).
    BadMagic,
    /// Unsupported container version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// Structural decode failure (truncation, bad varint, bad index).
    Malformed(&'static str),
    /// Replay diverged from the live generator during [`verify`].
    Diverged {
        /// Wavefront where the divergence appeared.
        wf: u32,
        /// Op index within that wavefront.
        op: u64,
        /// Human-readable difference.
        detail: String,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a bc-trace container (bad magic)"),
            TraceError::BadVersion { found } => {
                write!(
                    f,
                    "trace container v{found}, this build reads v{FORMAT_VERSION}"
                )
            }
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Diverged { wf, op, detail } => {
                write!(f, "replay diverged at wf {wf} op {op}: {detail}")
            }
            TraceError::Io(e) => write!(f, "trace I/O: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<bc_sim::snapshot::SnapError> for TraceError {
    fn from(_: bc_sim::snapshot::SnapError) -> Self {
        TraceError::Malformed("snap decode")
    }
}

/// Metadata of a trace container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload figure label (`bfs`, `hotspot`, …); free-form for
    /// imported traces.
    pub workload: String,
    /// Footprint in bytes — the size axis of the workload coordinate.
    pub footprint_bytes: u64,
    /// Workload seed the generator ran with (0 for imports).
    pub seed: u64,
    /// Number of wavefront streams in the container.
    pub total_wfs: u32,
    /// Provenance: `"compile"` (generator) or `"import"` (external).
    pub source: String,
}

/// The content-address key material of a workload coordinate, in the
/// same canonical newline-terminated form the `bc-serve` CAS uses for
/// configs. Everything that changes the op sequence is in here; nothing
/// else is.
#[must_use]
pub fn key_material(workload: &str, footprint_bytes: u64, total_wfs: u32, seed: u64) -> String {
    format!(
        "bc-trace v{FORMAT_VERSION}\nworkload={workload}\nfootprint={footprint_bytes}\nwavefronts={total_wfs}\nseed={seed}\n"
    )
}

/// Hex content address of a workload coordinate — the file stem a
/// [`TraceDir`] stores the compiled trace under.
#[must_use]
pub fn content_key(workload: &str, footprint_bytes: u64, total_wfs: u32, seed: u64) -> String {
    bc_sim::sha256::hex_digest(key_material(workload, footprint_bytes, total_wfs, seed).as_bytes())
}

/// Compiles `workload` offline: runs every wavefront's generator stream
/// to exhaustion and encodes the ops into a container.
///
/// # Panics
///
/// Panics if one wavefront's ops encode to 4 GiB or more, past what a
/// seek offset can address.
#[must_use]
pub fn compile(workload: &dyn Workload, total_wfs: u32, seed: u64) -> Vec<u8> {
    let meta = TraceMeta {
        workload: workload.name().to_string(),
        footprint_bytes: workload.footprint_bytes(),
        seed,
        total_wfs,
        source: "compile".to_string(),
    };
    assemble(&meta, encode_streams(workload, total_wfs, seed))
}

fn encode_streams(workload: &dyn Workload, total_wfs: u32, seed: u64) -> Vec<WfPayload> {
    (0..total_wfs)
        .map(|wf| {
            let mut stream = workload.make_stream(wf, total_wfs, seed);
            let mut payload = WfPayload::default();
            while let Some(op) = stream.next_op() {
                payload
                    .push(&op)
                    .expect("a generated wavefront encodes to under 4 GiB");
            }
            payload
        })
        .collect()
}

/// One wavefront's ops under encoding, with their seek index.
#[derive(Debug, Default)]
struct WfPayload {
    ops: u64,
    seek: Vec<u32>,
    w: SnapWriter,
    prev_va: u64,
}

impl WfPayload {
    /// Appends `op`; at a seek point, records its offset and restarts
    /// the address-delta chain.
    fn push(&mut self, op: &WarpOp) -> Result<(), TraceError> {
        if self.ops.is_multiple_of(SEEK_EVERY) {
            if self.ops > 0 {
                let at = u32::try_from(self.w.len())
                    .map_err(|_| TraceError::Malformed("wavefront ops past 4 GiB"))?;
                self.seek.push(at);
            }
            self.prev_va = BASE_VA;
        }
        encode_op(&mut self.w, op, &mut self.prev_va);
        self.ops += 1;
        Ok(())
    }
}

fn encode_op(w: &mut SnapWriter, op: &WarpOp, prev_va: &mut u64) {
    w.u64(op.think);
    let blocks = op.blocks.as_slice();
    debug_assert!(blocks.len() <= 8, "BlockList capacity is 8");
    let mut write_mask = 0u64;
    for (i, b) in blocks.iter().enumerate() {
        if b.write {
            write_mask |= 1 << i;
        }
    }
    w.u64((write_mask << 4) | blocks.len() as u64);
    for b in blocks {
        let va = b.va.as_u64();
        // bc-lint: allow(saturating-counter) — zigzag delta encoding: the
        // address delta wraps by design (decode reverses it exactly).
        w.i64(va.wrapping_sub(*prev_va) as i64);
        *prev_va = va;
    }
}

fn assemble(meta: &TraceMeta, payloads: Vec<WfPayload>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.section(MAGIC);
    // Fixed-width version word so `info` on a future container can still
    // report the version before bailing.
    for byte in FORMAT_VERSION.to_le_bytes() {
        w.u8(byte);
    }
    w.str(&meta.workload);
    w.u64(meta.footprint_bytes);
    w.u64(meta.seed);
    w.u32(meta.total_wfs);
    w.str(&meta.source);
    for p in &payloads {
        w.u64(p.ops);
        w.usize(p.seek.len());
        w.usize(p.w.len());
    }
    let mut bytes = w.into_bytes();
    for p in payloads {
        for at in p.seek {
            bytes.extend_from_slice(&at.to_le_bytes());
        }
        bytes.extend_from_slice(&p.w.into_bytes());
    }
    bytes
}

/// The container bytes every stream of a [`Trace`] decodes from, and the
/// count of ops their skips decoded.
#[derive(Debug)]
struct Shared {
    bytes: Vec<u8>,
    skip_decoded: AtomicU64,
}

/// Where one wavefront lies in the container bytes.
#[derive(Debug, Clone, Copy)]
struct WfSpan {
    /// Start of the seek index.
    seek: usize,
    /// Start of the ops (the seek index's end).
    ops_start: usize,
    /// End of the ops.
    end: usize,
    /// Ops in the wavefront.
    ops: u64,
}

impl WfSpan {
    /// Offset from `ops_start` of op `point`, a seek point in `1..ops`.
    fn seek_offset(&self, bytes: &[u8], point: u64) -> usize {
        debug_assert!(point.is_multiple_of(SEEK_EVERY) && point > 0 && point < self.ops);
        let at = self.seek + 4 * (point / SEEK_EVERY - 1) as usize;
        u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize
    }
}

/// A parsed, shareable trace container. Cheap to clone behind an `Arc`;
/// one parsed trace serves every wavefront stream of every cell that
/// shares the coordinate.
#[derive(Debug)]
pub struct Trace {
    shared: Arc<Shared>,
    meta: TraceMeta,
    wfs: Vec<WfSpan>,
}

impl Trace {
    /// Parses a container from its bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::BadVersion`] or
    /// [`TraceError::Malformed`] on anything but a well-formed v2 file.
    /// A seek index must have one entry per seek point, and its offsets
    /// must increase and stay inside the wavefront's ops, so no skip can
    /// leave its wavefront.
    pub fn parse(bytes: Vec<u8>) -> Result<Self, TraceError> {
        let mut r = SnapReader::new(&bytes);
        if r.section(MAGIC).is_err() {
            return Err(TraceError::BadMagic);
        }
        let ver = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        let found = u32::from_le_bytes(ver);
        if found != FORMAT_VERSION {
            return Err(TraceError::BadVersion { found });
        }
        let meta = TraceMeta {
            workload: r.string()?,
            footprint_bytes: r.u64()?,
            seed: r.u64()?,
            total_wfs: r.u32()?,
            source: r.string()?,
        };
        // Each index entry takes at least three bytes: bounding the
        // capacity by the bytes left keeps a corrupt count from asking for
        // a huge allocation.
        let mut heads = Vec::with_capacity((meta.total_wfs as usize).min(r.remaining()));
        for _ in 0..meta.total_wfs {
            heads.push((r.u64()?, r.u64()?, r.usize()?));
        }
        let mut at = bytes.len() - r.remaining();
        let mut wfs = Vec::with_capacity(heads.len());
        for (ops, seek_count, ops_len) in heads {
            if seek_count != seek_points(ops) {
                return Err(TraceError::Malformed("seek index entry count"));
            }
            let span = usize::try_from(seek_count)
                .ok()
                .and_then(|n| n.checked_mul(4))
                .and_then(|n| at.checked_add(n))
                .and_then(|ops_start| Some((ops_start, ops_start.checked_add(ops_len)?)));
            let Some((ops_start, end)) = span.filter(|&(_, end)| end <= bytes.len()) else {
                return Err(TraceError::Malformed("payload index past end of file"));
            };
            let span = WfSpan {
                seek: at,
                ops_start,
                end,
                ops,
            };
            let mut prev = 0;
            for k in 1..=seek_count {
                let offset = span.seek_offset(&bytes, k * SEEK_EVERY);
                if offset <= prev {
                    return Err(TraceError::Malformed("seek offsets must increase"));
                }
                if offset >= ops_len {
                    return Err(TraceError::Malformed("seek offset past its payload"));
                }
                prev = offset;
            }
            wfs.push(span);
            at = end;
        }
        if at != bytes.len() {
            return Err(TraceError::Malformed("trailing bytes after last payload"));
        }
        Ok(Trace {
            shared: Arc::new(Shared {
                bytes,
                skip_decoded: AtomicU64::new(0),
            }),
            meta,
            wfs,
        })
    }

    /// Reads and parses a container file.
    ///
    /// # Errors
    ///
    /// I/O errors plus everything [`Trace::parse`] rejects.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Trace::parse(bytes)
    }

    /// Container metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Encoded size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.shared.bytes.len()
    }

    /// Total ops across all wavefronts.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.wfs.iter().map(|s| s.ops).sum()
    }

    /// Ops that [`AccessStream::skip`] on this trace's streams has decoded
    /// so far: at most [`SEEK_EVERY`] − 1 per skip.
    fn skip_decoded(&self) -> u64 {
        self.shared.skip_decoded.load(Ordering::Relaxed)
    }

    /// Opens the replay stream for wavefront `wf`.
    ///
    /// # Panics
    ///
    /// Panics if `wf` is out of range — the system asks only for
    /// wavefronts the coordinate (which includes `total_wfs`) declares.
    #[must_use]
    pub fn stream(&self, wf: u32) -> TraceStream {
        let span = self.wfs[wf as usize];
        TraceStream {
            shared: Arc::clone(&self.shared),
            span,
            pos: span.ops_start,
            next: 0,
            prev_va: BASE_VA,
        }
    }
}

/// Replay adapter: decodes one wavefront's ops straight out of the
/// shared container buffer. Proven op-for-op identical to the live
/// generator (see crate docs).
#[derive(Debug)]
pub struct TraceStream {
    shared: Arc<Shared>,
    span: WfSpan,
    /// Byte position of op `next`.
    pos: usize,
    /// Ops decoded or skipped so far.
    next: u64,
    prev_va: u64,
}

impl TraceStream {
    fn var_u64(&mut self) -> u64 {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            debug_assert!(self.pos < self.span.end, "trace payload truncated");
            let byte = self.shared.bytes[self.pos];
            self.pos += 1;
            out |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return out;
            }
            shift += 7;
        }
    }

    fn var_i64(&mut self) -> i64 {
        let z = self.var_u64();
        ((z >> 1) as i64) ^ -((z & 1) as i64)
    }

    /// Offset of the cursor from the start of the wavefront's ops.
    fn ops_offset(&self) -> usize {
        self.pos - self.span.ops_start
    }
}

impl AccessStream for TraceStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        if self.next == self.span.ops {
            return None;
        }
        if self.next.is_multiple_of(SEEK_EVERY) {
            self.prev_va = BASE_VA;
        }
        self.next += 1;
        let think = self.var_u64();
        let header = self.var_u64();
        let n_blocks = (header & 0xf) as usize;
        let write_mask = header >> 4;
        let mut blocks = BlockList::of([]);
        for i in 0..n_blocks {
            let delta = self.var_i64();
            // bc-lint: allow(saturating-counter) — inverse of the zigzag
            // delta encode; wraps by design.
            let va = self.prev_va.wrapping_add(delta as u64);
            self.prev_va = va;
            blocks.push(BlockAccess {
                va: VirtAddr::new(va),
                write: write_mask & (1 << i) != 0,
            });
        }
        Some(WarpOp { think, blocks })
    }

    fn skip(&mut self, n: u64) -> bool {
        let target = match self.next.checked_add(n) {
            Some(target) if target < self.span.ops => target,
            reached => {
                self.next = self.span.ops;
                self.pos = self.span.end;
                return reached == Some(self.span.ops);
            }
        };
        let point = target - target % SEEK_EVERY;
        if point > self.next {
            self.pos = self.span.ops_start + self.span.seek_offset(&self.shared.bytes, point);
            self.next = point;
        }
        let decoded = target - self.next;
        for _ in 0..decoded {
            self.next_op();
        }
        if decoded > 0 {
            self.shared
                .skip_decoded
                .fetch_add(decoded, Ordering::Relaxed);
        }
        true
    }
}

/// Re-runs the live generator for `trace`'s coordinate and checks the
/// container replays op-for-op identically, that every seek-index entry
/// is the offset decoding reaches at its seek point, and that each
/// wavefront's ops end where its payload does. Returns the total op
/// count on success.
///
/// # Errors
///
/// [`TraceError::Diverged`] on the first mismatching op or seek point,
/// or [`TraceError::Malformed`] on bytes past a wavefront's last op.
pub fn verify(trace: &Trace, workload: &dyn Workload) -> Result<u64, TraceError> {
    let mut total = 0u64;
    for wf in 0..trace.meta.total_wfs {
        let mut live = workload.make_stream(wf, trace.meta.total_wfs, trace.meta.seed);
        let mut replay = trace.stream(wf);
        loop {
            let op = replay.next;
            if op.is_multiple_of(SEEK_EVERY) && op > 0 && op < replay.span.ops {
                let indexed = replay.span.seek_offset(&trace.shared.bytes, op);
                if indexed != replay.ops_offset() {
                    return Err(TraceError::Diverged {
                        wf,
                        op,
                        detail: format!(
                            "seek index puts the op at byte {indexed}, decoding reaches byte {}",
                            replay.ops_offset()
                        ),
                    });
                }
            }
            let expect = live.next_op();
            let got = replay.next_op();
            match (expect, got) {
                (None, None) => break,
                (a, b) if a == b => total += 1,
                (a, b) => {
                    return Err(TraceError::Diverged {
                        wf,
                        op,
                        detail: format!("live {a:?} vs replay {b:?}"),
                    })
                }
            }
        }
        if replay.pos != replay.span.end {
            return Err(TraceError::Malformed("bytes after a wavefront's last op"));
        }
    }
    Ok(total)
}

/// Parses the documented external text trace format into a container.
///
/// The format (one directive or op per line, `#` comments ignored):
///
/// ```text
/// workload <name>
/// footprint <bytes>
/// seed <u64>            (optional, default 0)
/// wavefronts <N>
/// <wf> <think> <va>:<r|w> [<va>:<r|w> ...]
/// ```
///
/// Addresses accept decimal or `0x` hex; up to 8 accesses per op (the
/// coalescer width). Op lines for one wavefront replay in file order.
///
/// # Errors
///
/// [`TraceError::Malformed`] with a static description of the first
/// offending construct.
pub fn import(text: &str) -> Result<Vec<u8>, TraceError> {
    let mut workload: Option<String> = None;
    let mut footprint: Option<u64> = None;
    let mut seed = 0u64;
    let mut total_wfs: Option<u32> = None;
    let mut per_wf: Vec<WfPayload> = Vec::new();

    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let first = fields.next().ok_or(TraceError::Malformed("empty line"))?;
        match first {
            "workload" => {
                workload = Some(
                    fields
                        .next()
                        .ok_or(TraceError::Malformed("workload needs a name"))?
                        .to_string(),
                );
            }
            "footprint" => {
                footprint = Some(parse_u64(
                    fields
                        .next()
                        .ok_or(TraceError::Malformed("footprint needs bytes"))?,
                )?);
            }
            "seed" => {
                seed = parse_u64(
                    fields
                        .next()
                        .ok_or(TraceError::Malformed("seed needs a value"))?,
                )?;
            }
            "wavefronts" => {
                let n = parse_u64(
                    fields
                        .next()
                        .ok_or(TraceError::Malformed("wavefronts needs a count"))?,
                )?;
                let n = u32::try_from(n).map_err(|_| TraceError::Malformed("wavefront count"))?;
                total_wfs = Some(n);
                per_wf = (0..n).map(|_| WfPayload::default()).collect();
            }
            wf_str => {
                let wf = parse_u64(wf_str)? as usize;
                let Some(state) = per_wf.get_mut(wf) else {
                    return Err(TraceError::Malformed(
                        "op line names a wavefront >= the declared count (or precedes `wavefronts`)",
                    ));
                };
                let think = parse_u64(
                    fields
                        .next()
                        .ok_or(TraceError::Malformed("op line needs a think time"))?,
                )?;
                let mut blocks = BlockList::of([]);
                for (n, access) in fields.enumerate() {
                    if n >= 8 {
                        return Err(TraceError::Malformed("more than 8 accesses in one op"));
                    }
                    let (va_str, rw) = access
                        .split_once(':')
                        .ok_or(TraceError::Malformed("access must be <va>:<r|w>"))?;
                    let write = match rw {
                        "r" | "R" => false,
                        "w" | "W" => true,
                        _ => return Err(TraceError::Malformed("access flag must be r or w")),
                    };
                    blocks.push(BlockAccess {
                        va: VirtAddr::new(parse_u64(va_str)?),
                        write,
                    });
                }
                state.push(&WarpOp { think, blocks })?;
            }
        }
    }

    let meta = TraceMeta {
        workload: workload.ok_or(TraceError::Malformed("missing `workload` directive"))?,
        footprint_bytes: footprint.ok_or(TraceError::Malformed("missing `footprint` directive"))?,
        seed,
        total_wfs: total_wfs.ok_or(TraceError::Malformed("missing `wavefronts` directive"))?,
        source: "import".to_string(),
    };
    Ok(assemble(&meta, per_wf))
}

fn parse_u64(s: &str) -> Result<u64, TraceError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| TraceError::Malformed("unparseable integer"))
}

/// Counters a [`TraceDir`] keeps about its own behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceDirStats {
    /// Streams served from an already-parsed in-memory trace.
    pub hits: u64,
    /// Traces parsed from an existing on-disk file.
    pub disk_loads: u64,
    /// Traces compiled (and persisted) because no file existed.
    pub compiles: u64,
    /// I/O failures that fell back to live synthesis.
    pub fallbacks: u64,
    /// Ops decoded by [`AccessStream::skip`] on the streams served: at
    /// most [`SEEK_EVERY`] − 1 per skip, whatever its length.
    pub skip_decoded: u64,
}

/// A workload coordinate, `(workload, footprint_bytes, total_wfs, seed)`:
/// everything that determines a compiled trace.
type Coord = (&'static str, u64, u32, u64);

/// A content-addressed directory of compiled traces, usable directly as
/// the system's [`StreamSource`].
///
/// `open_stream` serves the workload coordinate from the in-memory parse
/// cache, which is keyed by the coordinate itself, so a hit hashes no
/// content key. On a miss it loads the file its content key names, else
/// compiles the generator offline and persists the result (via
/// [`bc_sim::store::publish`], so concurrent compilers racing on one
/// coordinate, threads or processes, simply both win). On any I/O failure it falls back to live
/// synthesis — replay is byte-identical to the generator, so the run's
/// outputs are unaffected; only the speedup is lost. Fallbacks are
/// counted, never silent.
#[derive(Debug)]
pub struct TraceDir {
    dir: PathBuf,
    cache: Mutex<(FxHashMap<Coord, Arc<Trace>>, TraceDirStatsInner)>,
}

#[derive(Debug, Default)]
struct TraceDirStatsInner {
    hits: Counter,
    disk_loads: Counter,
    compiles: Counter,
    fallbacks: Counter,
}

impl TraceDir {
    /// Opens (creating if needed) a trace directory.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceDir {
            dir,
            cache: Mutex::new((FxHashMap::default(), TraceDirStatsInner::default())),
        })
    }

    /// The directory backing this store.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// On-disk path a coordinate's trace lives at.
    #[must_use]
    pub fn file_for(
        &self,
        workload: &str,
        footprint_bytes: u64,
        total_wfs: u32,
        seed: u64,
    ) -> PathBuf {
        self.dir
            .join(content_key(workload, footprint_bytes, total_wfs, seed))
            .with_extension(EXTENSION)
    }

    /// Behavior counters so far.
    #[must_use]
    pub fn stats(&self) -> TraceDirStats {
        let guard = self.cache.lock().expect("trace cache lock");
        TraceDirStats {
            hits: guard.1.hits.get(),
            disk_loads: guard.1.disk_loads.get(),
            compiles: guard.1.compiles.get(),
            fallbacks: guard.1.fallbacks.get(),
            skip_decoded: guard.0.values().map(|t| t.skip_decoded()).sum(),
        }
    }

    /// Returns the parsed trace for a coordinate, compiling and
    /// persisting it on first use.
    ///
    /// # Errors
    ///
    /// I/O or container-format failures; callers on the hot path fall
    /// back to live synthesis instead of aborting the run.
    pub fn get_or_compile(
        &self,
        workload: &dyn Workload,
        total_wfs: u32,
        seed: u64,
    ) -> Result<Arc<Trace>, TraceError> {
        let coord = (workload.name(), workload.footprint_bytes(), total_wfs, seed);
        {
            let mut guard = self.cache.lock().expect("trace cache lock");
            if let Some(t) = guard.0.get(&coord).map(Arc::clone) {
                guard.1.hits.inc();
                return Ok(t);
            }
        }
        let path = self.file_for(coord.0, coord.1, coord.2, coord.3);
        let (trace, was_compile) = match Trace::open(&path) {
            Ok(t) => (Arc::new(t), false),
            Err(TraceError::Io(ref e)) if e.kind() == io::ErrorKind::NotFound => {
                let bytes = compile(workload, total_wfs, seed);
                bc_sim::store::publish(&path, &bytes)?;
                (Arc::new(Trace::parse(bytes)?), true)
            }
            Err(e) => return Err(e),
        };
        let mut guard = self.cache.lock().expect("trace cache lock");
        if was_compile {
            guard.1.compiles.inc();
        } else {
            guard.1.disk_loads.inc();
        }
        // A racing thread may have cached the coordinate first; serve its
        // trace so every stream counts its skips in one place.
        Ok(Arc::clone(guard.0.entry(coord).or_insert(trace)))
    }
}

impl StreamSource for TraceDir {
    fn open_stream(
        &self,
        workload: &dyn Workload,
        wf: u32,
        total_wfs: u32,
        seed: u64,
    ) -> Box<dyn AccessStream> {
        match self.get_or_compile(workload, total_wfs, seed) {
            Ok(trace) => Box::new(trace.stream(wf)),
            Err(_) => {
                self.cache
                    .lock()
                    .expect("trace cache lock")
                    .1
                    .fallbacks
                    .inc();
                workload.make_stream(wf, total_wfs, seed)
            }
        }
    }

    fn label(&self) -> &'static str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_workloads::{by_name, WorkloadSize};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bc-trace-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn compile_then_replay_is_op_identical() {
        let w = by_name("bfs", WorkloadSize::Tiny).expect("suite workload");
        let bytes = compile(w.as_ref(), 8, 42);
        let trace = Trace::parse(bytes).expect("well-formed");
        assert_eq!(trace.meta().workload, "bfs");
        assert_eq!(trace.meta().total_wfs, 8);
        let ops = verify(&trace, w.as_ref()).expect("identical");
        assert_eq!(ops, trace.total_ops());
        assert!(ops > 0);
    }

    #[test]
    fn verify_catches_corruption() {
        let w = by_name("nn", WorkloadSize::Tiny).expect("suite workload");
        let mut bytes = compile(w.as_ref(), 4, 7);
        // Flip the low bit of the final byte: the last block delta of the
        // last op changes, so the replayed address must differ. (Arbitrary
        // bit positions can land in a write mask's don't-care bits above
        // `n_blocks`, which decode ignores.)
        let at = bytes.len() - 1;
        bytes[at] ^= 0x01;
        if let Ok(trace) = Trace::parse(bytes) {
            assert!(matches!(
                verify(&trace, w.as_ref()),
                Err(TraceError::Diverged { .. })
            ));
        }
        // (A parse failure is an equally acceptable detection.)
    }

    /// `nw`'s two-wavefront container with its seek indexes edited by
    /// `tamper` before assembly.
    fn tampered(tamper: impl FnOnce(&mut [WfPayload])) -> Vec<u8> {
        let w = by_name("nw", WorkloadSize::Tiny).expect("suite workload");
        let mut payloads = encode_streams(w.as_ref(), 2, 1);
        assert!(
            payloads.iter().all(|p| p.seek.len() >= 2),
            "several seek points"
        );
        tamper(&mut payloads);
        let meta = TraceMeta {
            workload: "nw".to_string(),
            footprint_bytes: w.footprint_bytes(),
            seed: 1,
            total_wfs: 2,
            source: "compile".to_string(),
        };
        assemble(&meta, payloads)
    }

    fn malformed(bytes: Vec<u8>) -> Option<&'static str> {
        match Trace::parse(bytes) {
            Err(TraceError::Malformed(what)) => Some(what),
            _ => None,
        }
    }

    #[test]
    fn parse_rejects_foreign_and_truncated() {
        assert!(matches!(
            Trace::parse(b"NOPE....".to_vec()),
            Err(TraceError::BadMagic)
        ));
        let w = by_name("nw", WorkloadSize::Tiny).expect("suite workload");
        let bytes = compile(w.as_ref(), 2, 1);
        assert_eq!(bytes, tampered(|_| ()));
        let mut bad_ver = bytes.clone();
        bad_ver[4] = 0x7f;
        assert!(matches!(
            Trace::parse(bad_ver),
            Err(TraceError::BadVersion { found: 0x7f })
        ));
        // A v1 container (no seek index) is refused, not misread.
        let mut v1 = bytes.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Trace::parse(v1),
            Err(TraceError::BadVersion { found: 1 })
        ));
        assert!(Trace::parse(bytes[..bytes.len() - 1].to_vec()).is_err());

        assert_eq!(
            malformed(tampered(|p| {
                p[1].seek.pop();
            })),
            Some("seek index entry count")
        );
        assert_eq!(
            malformed(tampered(|p| {
                let at = p[0].seek[0];
                p[0].seek.push(at);
            })),
            Some("seek index entry count")
        );
        assert_eq!(
            malformed(tampered(|p| p[0].seek.swap(0, 1))),
            Some("seek offsets must increase")
        );
        assert_eq!(
            malformed(tampered(|p| p[1].seek[0] = 0)),
            Some("seek offsets must increase")
        );
        assert_eq!(
            malformed(tampered(|p| {
                let end = u32::try_from(p[0].w.len()).expect("small payload");
                *p[0].seek.last_mut().expect("seek points") = end;
            })),
            Some("seek offset past its payload")
        );
    }

    #[test]
    fn verify_checks_every_seek_point_against_decoding() {
        let w = by_name("nw", WorkloadSize::Tiny).expect("suite workload");
        // Still increasing and inside the payload, so it parses; one byte
        // off the op it names.
        let bytes = tampered(|p| p[1].seek[1] += 1);
        let trace = Trace::parse(bytes).expect("shape is valid");
        assert!(matches!(
            verify(&trace, w.as_ref()),
            Err(TraceError::Diverged { wf: 1, op: 64, .. })
        ));
    }

    #[test]
    fn skip_decodes_at_most_one_seek_interval() {
        let w = by_name("bfs", WorkloadSize::Tiny).expect("suite workload");
        let trace = Trace::parse(compile(w.as_ref(), 4, 3)).expect("well-formed");
        let len = trace.wfs[0].ops;
        assert!(len > 3 * SEEK_EVERY, "a few seek points");
        for n in [0, 1, 31, 32, 33, 95, len - 1, len] {
            let before = trace.skip_decoded();
            let mut s = trace.stream(0);
            assert!(s.skip(n));
            let want = if n < len { n % SEEK_EVERY } else { 0 };
            assert_eq!(trace.skip_decoded() - before, want, "skip({n})");
        }
        // From mid-interval, a skip that stays inside it decodes from the
        // cursor rather than seeking back.
        let mut s = trace.stream(0);
        assert!(s.skip(40));
        let before = trace.skip_decoded();
        assert!(s.skip(5));
        assert_eq!(trace.skip_decoded() - before, 5);
        assert!(!s.skip(len));
        assert!(s.next_op().is_none());
    }

    #[test]
    fn content_key_separates_coordinates() {
        let a = content_key("bfs", 1 << 20, 64, 1);
        assert_eq!(a, content_key("bfs", 1 << 20, 64, 1));
        assert_ne!(a, content_key("bfs", 1 << 20, 64, 2));
        assert_ne!(a, content_key("bfs", 2 << 20, 64, 1));
        assert_ne!(a, content_key("bfs", 1 << 20, 32, 1));
        assert_ne!(a, content_key("nn", 1 << 20, 64, 1));
        assert_eq!(a.len(), 64, "hex sha256");
    }

    #[test]
    fn trace_dir_compiles_once_then_serves_cached() {
        let dir = tmpdir("dir");
        let store = TraceDir::open(&dir).expect("create");
        let w = by_name("hotspot", WorkloadSize::Tiny).expect("suite workload");
        let t1 = store.get_or_compile(w.as_ref(), 4, 9).expect("compile");
        assert_eq!(store.stats().compiles, 1);
        let t2 = store.get_or_compile(w.as_ref(), 4, 9).expect("cached");
        assert_eq!(store.stats().hits, 1);
        assert!(Arc::ptr_eq(&t1, &t2));
        // A second store over the same directory loads from disk.
        let store2 = TraceDir::open(&dir).expect("reopen");
        let _t3 = store2.get_or_compile(w.as_ref(), 4, 9).expect("disk");
        assert_eq!(store2.stats().disk_loads, 1);
        assert_eq!(store2.stats().compiles, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_dir_streams_match_live_generator() {
        let dir = tmpdir("streams");
        let store = TraceDir::open(&dir).expect("create");
        let w = by_name("pathfinder", WorkloadSize::Tiny).expect("suite workload");
        for wf in 0..4 {
            let mut live = w.make_stream(wf, 4, 3);
            let mut replay = store.open_stream(w.as_ref(), wf, 4, 3);
            loop {
                let (a, b) = (live.next_op(), replay.next_op());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
        assert_eq!(store.label(), "trace");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_round_trips_documented_format() {
        let text = "\
# fixture: two wavefronts, mixed ops
workload external-dma
footprint 0x10000
seed 5
wavefronts 2
0 3 0x10000000:r 0x10000080:w
0 0 0x10001000:w
1 7 268435456:r
";
        let bytes = import(text).expect("well-formed text");
        let trace = Trace::parse(bytes).expect("container");
        assert_eq!(trace.meta().workload, "external-dma");
        assert_eq!(trace.meta().footprint_bytes, 0x10000);
        assert_eq!(trace.meta().seed, 5);
        assert_eq!(trace.meta().total_wfs, 2);
        assert_eq!(trace.total_ops(), 3);

        let mut s0 = trace.stream(0);
        let op = s0.next_op().expect("first op");
        assert_eq!(op.think, 3);
        assert_eq!(op.blocks.as_slice().len(), 2);
        assert_eq!(op.blocks.as_slice()[0].va.as_u64(), 0x1000_0000);
        assert!(!op.blocks.as_slice()[0].write);
        assert!(op.blocks.as_slice()[1].write);
        let op2 = s0.next_op().expect("second op");
        assert_eq!(op2.think, 0);
        assert_eq!(op2.blocks.as_slice()[0].va.as_u64(), 0x1000_1000);
        assert!(s0.next_op().is_none());

        let mut s1 = trace.stream(1);
        let op = s1.next_op().expect("wf1 op");
        assert_eq!(op.think, 7);
        assert_eq!(op.blocks.as_slice()[0].va.as_u64(), 268_435_456);
        assert!(s1.next_op().is_none());
    }

    #[test]
    fn import_rejects_malformed_lines() {
        assert!(matches!(import(""), Err(TraceError::Malformed(_))));
        assert!(matches!(
            import("workload x\nfootprint 1\nwavefronts 1\n5 0 0x0:r\n"),
            Err(TraceError::Malformed(_))
        ));
        assert!(matches!(
            import("workload x\nfootprint 1\nwavefronts 1\n0 0 0x0:z\n"),
            Err(TraceError::Malformed(_))
        ));
        assert!(matches!(
            import("workload x\nfootprint 1\n0 0 0x0:r\n"),
            Err(TraceError::Malformed(_))
        ));
    }
}
