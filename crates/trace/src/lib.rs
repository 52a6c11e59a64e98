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
//! # Container format (`.bctr`, version 1)
//!
//! All multi-byte integers are LEB128 varints (signed values zigzag)
//! encoded with [`bc_sim::snapshot::SnapWriter`] primitives, except the
//! fixed-width version word:
//!
//! ```text
//! magic   b"BCWT"
//! version u32 LE                      (= 1)
//! meta    workload name: str          (length-prefixed UTF-8)
//!         footprint_bytes: varint     (distinguishes workload sizes)
//!         seed: varint
//!         total_wfs: varint
//!         source: str                 ("compile" | "import")
//! index   per wf in 0..total_wfs:
//!         op_count: varint, payload_len: varint
//! payload per wf, concatenated:
//!         per op: think: varint
//!                 header: varint      (write_mask << 4 | n_blocks)
//!                 per block: zigzag varint byte delta from previous
//!                            block address (initially BASE_VA)
//! ```
//!
//! The per-wavefront index makes opening one wavefront's stream O(1), so
//! the replay adapter ([`TraceStream`]) costs a cursor and a previous-
//! address register — no materialized op vectors.
//!
//! # Identity contract
//!
//! [`TraceStream`] must be **op-for-op identical** to the live generator
//! it was compiled from: same `think`, same block addresses in the same
//! order, same write flags, same stream length. A model-based proptest
//! (`tests/replay.rs`) pins this across all seven suite generators ×
//! sizes × seeds, and [`verify`] re-checks any single coordinate (used
//! by CI on the compiled artifacts themselves).

use std::io::{self, Read};
use std::path::{Path, PathBuf};
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
pub const FORMAT_VERSION: u32 = 1;

/// File extension compiled traces use inside a [`TraceDir`].
pub const EXTENSION: &str = "bctr";

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
#[must_use]
pub fn compile(workload: &dyn Workload, total_wfs: u32, seed: u64) -> Vec<u8> {
    let mut payloads: Vec<(u64, Vec<u8>)> = Vec::with_capacity(total_wfs as usize);
    for wf in 0..total_wfs {
        let mut stream = workload.make_stream(wf, total_wfs, seed);
        let mut ops = 0u64;
        let mut prev_va = BASE_VA;
        let mut w = SnapWriter::new();
        while let Some(op) = stream.next_op() {
            encode_op(&mut w, &op, &mut prev_va);
            ops += 1;
        }
        payloads.push((ops, w.into_bytes()));
    }
    let meta = TraceMeta {
        workload: workload.name().to_string(),
        footprint_bytes: workload.footprint_bytes(),
        seed,
        total_wfs,
        source: "compile".to_string(),
    };
    assemble(&meta, &payloads)
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

fn assemble(meta: &TraceMeta, payloads: &[(u64, Vec<u8>)]) -> Vec<u8> {
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
    for (ops, payload) in payloads {
        w.u64(*ops);
        w.usize(payload.len());
    }
    let mut bytes = w.into_bytes();
    for (_, payload) in payloads {
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// A parsed, shareable trace container. Cheap to clone behind an `Arc`;
/// one parsed trace serves every wavefront stream of every cell that
/// shares the coordinate.
#[derive(Debug)]
pub struct Trace {
    bytes: Arc<Vec<u8>>,
    meta: TraceMeta,
    /// Per-wavefront `(payload_start, payload_end, op_count)`.
    wf_index: Vec<(usize, usize, u64)>,
}

impl Trace {
    /// Parses a container from its bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`], [`TraceError::BadVersion`] or
    /// [`TraceError::Malformed`] on anything but a well-formed v1 file.
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
        let mut lens = Vec::with_capacity(meta.total_wfs as usize);
        for _ in 0..meta.total_wfs {
            lens.push((r.u64()?, r.usize()?));
        }
        let mut at = bytes.len() - r.remaining();
        let mut wf_index = Vec::with_capacity(lens.len());
        for (ops, len) in lens {
            let end = at
                .checked_add(len)
                .ok_or(TraceError::Malformed("index overflow"))?;
            if end > bytes.len() {
                return Err(TraceError::Malformed("payload index past end of file"));
            }
            wf_index.push((at, end, ops));
            at = end;
        }
        if at != bytes.len() {
            return Err(TraceError::Malformed("trailing bytes after last payload"));
        }
        Ok(Trace {
            bytes: Arc::new(bytes),
            meta,
            wf_index,
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
        self.bytes.len()
    }

    /// Total ops across all wavefronts.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.wf_index.iter().map(|&(_, _, n)| n).sum()
    }

    /// Opens the replay stream for wavefront `wf`.
    ///
    /// # Panics
    ///
    /// Panics if `wf` is out of range — the system asks only for
    /// wavefronts the coordinate (which includes `total_wfs`) declares.
    #[must_use]
    pub fn stream(&self, wf: u32) -> TraceStream {
        let (start, end, ops) = self.wf_index[wf as usize];
        TraceStream {
            bytes: Arc::clone(&self.bytes),
            pos: start,
            end,
            remaining_ops: ops,
            prev_va: BASE_VA,
        }
    }
}

/// Replay adapter: decodes one wavefront's ops straight out of the
/// shared container buffer. Proven op-for-op identical to the live
/// generator (see crate docs).
#[derive(Debug)]
pub struct TraceStream {
    bytes: Arc<Vec<u8>>,
    pos: usize,
    end: usize,
    remaining_ops: u64,
    prev_va: u64,
}

impl TraceStream {
    fn var_u64(&mut self) -> u64 {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            debug_assert!(self.pos < self.end, "trace payload truncated");
            let byte = self.bytes[self.pos];
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
}

impl AccessStream for TraceStream {
    fn next_op(&mut self) -> Option<WarpOp> {
        if self.remaining_ops == 0 {
            return None;
        }
        self.remaining_ops -= 1;
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
}

/// Re-runs the live generator for `trace`'s coordinate and checks the
/// container replays op-for-op identically. Returns the total op count
/// on success.
///
/// # Errors
///
/// [`TraceError::Diverged`] on the first mismatching op, or
/// [`TraceError::Malformed`] if the coordinate's workload is unknown.
pub fn verify(trace: &Trace, workload: &dyn Workload) -> Result<u64, TraceError> {
    let mut total = 0u64;
    for wf in 0..trace.meta.total_wfs {
        let mut live = workload.make_stream(wf, trace.meta.total_wfs, trace.meta.seed);
        let mut replay = trace.stream(wf);
        let mut op_idx = 0u64;
        loop {
            let expect = live.next_op();
            let got = replay.next_op();
            match (expect, got) {
                (None, None) => break,
                (a, b) if a == b => total += 1,
                (a, b) => {
                    return Err(TraceError::Diverged {
                        wf,
                        op: op_idx,
                        detail: format!("live {a:?} vs replay {b:?}"),
                    })
                }
            }
            op_idx += 1;
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
    let mut per_wf: Vec<(u64, SnapWriter, u64)> = Vec::new(); // (ops, payload, prev_va)

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
                per_wf = (0..n).map(|_| (0, SnapWriter::new(), BASE_VA)).collect();
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
                let op = WarpOp { think, blocks };
                let (ops, w, prev_va) = state;
                encode_op(w, &op, prev_va);
                *ops += 1;
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
    let payloads: Vec<(u64, Vec<u8>)> = per_wf
        .into_iter()
        .map(|(ops, w, _)| (ops, w.into_bytes()))
        .collect();
    Ok(assemble(&meta, &payloads))
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
}

/// A content-addressed directory of compiled traces, usable directly as
/// the system's [`StreamSource`].
///
/// `open_stream` resolves the workload coordinate to its content key,
/// then: serves from the in-memory parse cache, else loads the file,
/// else compiles the generator offline and persists the result (via
/// [`bc_sim::store::publish`], so concurrent compilers racing on one
/// coordinate, threads or processes, simply both win). On any I/O failure it falls back to live
/// synthesis — replay is byte-identical to the generator, so the run's
/// outputs are unaffected; only the speedup is lost. Fallbacks are
/// counted, never silent.
#[derive(Debug)]
pub struct TraceDir {
    dir: PathBuf,
    cache: Mutex<(FxHashMap<String, Arc<Trace>>, TraceDirStatsInner)>,
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
        let key = content_key(workload.name(), workload.footprint_bytes(), total_wfs, seed);
        {
            let mut guard = self.cache.lock().expect("trace cache lock");
            if let Some(t) = guard.0.get(&key).map(Arc::clone) {
                guard.1.hits.inc();
                return Ok(t);
            }
        }
        let path = self.dir.join(&key).with_extension(EXTENSION);
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
        guard.0.entry(key).or_insert_with(|| Arc::clone(&trace));
        Ok(trace)
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

    #[test]
    fn parse_rejects_foreign_and_truncated() {
        assert!(matches!(
            Trace::parse(b"NOPE....".to_vec()),
            Err(TraceError::BadMagic)
        ));
        let w = by_name("nw", WorkloadSize::Tiny).expect("suite workload");
        let bytes = compile(w.as_ref(), 2, 1);
        let mut bad_ver = bytes.clone();
        bad_ver[4] = 0x7f;
        assert!(matches!(
            Trace::parse(bad_ver),
            Err(TraceError::BadVersion { found: 0x7f })
        ));
        assert!(Trace::parse(bytes[..bytes.len() - 1].to_vec()).is_err());
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
