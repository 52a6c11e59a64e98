//! Synthetic Rodinia-like workload generators.
//!
//! The paper evaluates Border Control with seven Rodinia benchmarks
//! (§5.1): backprop, bfs, hotspot, lud, nn, nw and pathfinder, chosen
//! because they "range from regular memory access patterns (e.g., lud) to
//! irregular, data-dependent accesses (e.g., bfs)". We cannot run CUDA
//! kernels, but Border Control's overhead is a function of the *address
//! stream* the accelerator presents — page locality, read/write mix, and
//! memory intensity — not of the arithmetic. Each generator here produces
//! a per-wavefront stream of coalesced block accesses whose pattern class
//! matches its namesake:
//!
//! | name | pattern | character |
//! |---|---|---|
//! | [`backprop`] | layered neural net sweep | regular, compute-heavy, low intensity |
//! | [`bfs`] | frontier graph traversal | irregular, data-dependent gathers |
//! | [`hotspot`] | 2-D stencil | high spatial locality |
//! | [`lud`] | blocked dense factorization | regular with heavy reuse |
//! | [`nn`] | nearest-neighbour scoring | pure streaming |
//! | [`nw`] | anti-diagonal dynamic programming | diagonal strides |
//! | [`pathfinder`] | row-wise DP with halo | streaming rows |
//!
//! # Example
//!
//! ```
//! use bc_workloads::{rodinia_suite, WorkloadSize};
//!
//! let suite = rodinia_suite(WorkloadSize::Tiny);
//! assert_eq!(suite.len(), 7);
//! let mut stream = suite[0].make_stream(0, 8, 42);
//! let op = stream.next_op().expect("streams are non-empty");
//! assert!(!op.blocks.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generators;

use bc_mem::addr::VirtAddr;

pub use generators::{backprop, bfs, hotspot, lud, nn, nw, pathfinder};

/// One coalesced block access issued by a wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAccess {
    /// Block-aligned virtual address.
    pub va: VirtAddr,
    /// Whether the access is a store.
    pub write: bool,
}

/// A fixed-capacity, inline list of coalesced block accesses.
///
/// Every generator emits at most 5 blocks per op, and ops flow through
/// the event queue millions of times per run; a heap `Vec` here would
/// put a malloc/free (and a clone per [`RepeatStream`] repeat) on the
/// hottest path in the simulator. The inline array keeps [`WarpOp`]
/// `Copy` so event dispatch and repeat streams never allocate.
#[derive(Clone, Copy, Eq)]
pub struct BlockList {
    slots: [BlockAccess; Self::CAPACITY],
    len: u8,
}

impl BlockList {
    /// Maximum blocks per op (generators top out at 5; headroom for a
    /// fully divergent quarter-wavefront).
    pub const CAPACITY: usize = 8;

    const EMPTY_SLOT: BlockAccess = BlockAccess {
        va: VirtAddr::new(0),
        write: false,
    };

    /// An empty list.
    #[must_use]
    pub const fn new() -> Self {
        BlockList {
            slots: [Self::EMPTY_SLOT; Self::CAPACITY],
            len: 0,
        }
    }

    /// Builds a list from up to [`Self::CAPACITY`] accesses.
    ///
    /// # Panics
    /// If the iterator yields more than [`Self::CAPACITY`] items.
    pub fn of(items: impl IntoIterator<Item = BlockAccess>) -> Self {
        let mut list = Self::new();
        for item in items {
            list.push(item);
        }
        list
    }

    /// Appends an access.
    ///
    /// # Panics
    /// If the list is already at [`Self::CAPACITY`].
    pub fn push(&mut self, access: BlockAccess) {
        assert!(
            (self.len as usize) < Self::CAPACITY,
            "BlockList overflow: a generator emitted more than {} blocks in one op",
            Self::CAPACITY
        );
        self.slots[self.len as usize] = access;
        self.len += 1;
    }

    /// The live accesses as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[BlockAccess] {
        &self.slots[..self.len as usize]
    }
}

impl Default for BlockList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for BlockList {
    type Target = [BlockAccess];
    fn deref(&self) -> &[BlockAccess] {
        self.as_slice()
    }
}

impl PartialEq for BlockList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for BlockList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a> IntoIterator for &'a BlockList {
    type Item = &'a BlockAccess;
    type IntoIter = std::slice::Iter<'a, BlockAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<BlockAccess> for BlockList {
    fn from_iter<I: IntoIterator<Item = BlockAccess>>(iter: I) -> Self {
        Self::of(iter)
    }
}

/// One wavefront "instruction": some compute latency followed by a batch
/// of coalesced memory accesses that must all complete before the
/// wavefront can issue its next op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpOp {
    /// Compute cycles consumed before the accesses issue.
    pub think: u64,
    /// Coalesced block accesses (1 for perfectly coalesced, up to 32 for a
    /// fully divergent gather).
    pub blocks: BlockList,
}

/// A per-wavefront access stream.
///
/// `Send` so a wavefront (and the compute unit that owns it) can live on a
/// worker thread of the sharded engine.
pub trait AccessStream: Send {
    /// Produces the next op, or `None` when the wavefront's work is done.
    /// Once it returns `None` it returns `None` for good.
    fn next_op(&mut self) -> Option<WarpOp>;

    /// Moves past the next `n` ops without returning them, exactly as `n`
    /// calls of [`next_op`](Self::next_op) would. Returns `false` if the
    /// stream ran out first; it is then exhausted. A stream that can seek
    /// overrides this to skip without producing every op.
    fn skip(&mut self, n: u64) -> bool {
        (0..n).all(|_| self.next_op().is_some())
    }
}

/// Wraps a stream so each op is issued `factor` times in a row.
///
/// Real kernels sweep the *words* of a cache block across several
/// instructions; a coalesced block-granular generator would otherwise
/// touch each block exactly once and starve every cache of temporal
/// locality. Repeating an op models the within-block word sweep: the
/// first issue fetches the blocks, the repeats hit in the L1.
#[derive(Debug)]
pub struct RepeatStream<S> {
    inner: S,
    factor: u8,
    current: Option<WarpOp>,
    remaining: u8,
}

impl<S: AccessStream> RepeatStream<S> {
    /// Wraps `inner`, repeating each op `factor` times (min 1).
    pub fn new(inner: S, factor: u8) -> Self {
        RepeatStream {
            inner,
            factor: factor.max(1),
            current: None,
            remaining: 0,
        }
    }
}

impl<S: AccessStream> AccessStream for RepeatStream<S> {
    fn next_op(&mut self) -> Option<WarpOp> {
        if self.remaining > 0 {
            self.remaining -= 1;
            return self.current;
        }
        let op = self.inner.next_op()?;
        self.remaining = self.factor - 1;
        self.current = Some(op);
        Some(op)
    }
}

/// A workload: a named generator of per-wavefront access streams over a
/// virtual address footprint starting at [`BASE_VA`].
pub trait Workload {
    /// Rodinia-style short name (figure x-axis label).
    fn name(&self) -> &'static str;

    /// Total bytes of virtual address space the workload touches; the
    /// system maps this as one VMA at `BASE_VA`.
    fn footprint_bytes(&self) -> u64;

    /// Fraction of the footprint that must be writable (the rest is mapped
    /// read-only, exercising R-only Protection Table entries).
    // bc-lint: allow(float) — config-time fraction, converted to
    // fixed-point by the system builder before any event runs.
    fn writable_fraction(&self) -> f64 {
        1.0
    }

    /// Creates the access stream for wavefront `wf` of `total_wfs`.
    fn make_stream(&self, wf: u32, total_wfs: u32, seed: u64) -> Box<dyn AccessStream>;
}

/// Where a simulated system obtains its per-wavefront access streams.
///
/// The default, [`LiveSynthesis`], calls [`Workload::make_stream`] inline
/// — the generator runs during simulation. `bc-trace` supplies an
/// alternative source that replays a compiled trace file instead, and a
/// snapshot restore builds its machine through the same source (then
/// skips each stream to its recorded position) so a warm-started run
/// consumes ops from exactly the stream a straight-through run would have
/// used. Implementations must be
/// deterministic: the same `(workload.name(), wf, total_wfs, seed)`
/// coordinate must always yield a stream producing the same op sequence.
pub trait StreamSource: Send + Sync {
    /// Opens the stream for wavefront `wf` of `total_wfs`, seeded with the
    /// run's workload seed.
    fn open_stream(
        &self,
        workload: &dyn Workload,
        wf: u32,
        total_wfs: u32,
        seed: u64,
    ) -> Box<dyn AccessStream>;

    /// Stable label for reports and diagnostics (`"live"`, `"trace"`).
    fn label(&self) -> &'static str {
        "live"
    }
}

/// The default [`StreamSource`]: inline generator synthesis via
/// [`Workload::make_stream`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveSynthesis;

impl StreamSource for LiveSynthesis {
    fn open_stream(
        &self,
        workload: &dyn Workload,
        wf: u32,
        total_wfs: u32,
        seed: u64,
    ) -> Box<dyn AccessStream> {
        workload.make_stream(wf, total_wfs, seed)
    }
}

/// The base virtual address used by every workload (re-exported for
/// callers that don't name a concrete workload type).
pub const BASE_VA: u64 = 0x1000_0000;

/// Problem scaling, so tests stay fast while experiments run at the
/// reference size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadSize {
    /// A few thousand accesses per wavefront-set; unit/integration tests.
    Tiny,
    /// Tens of thousands of accesses; Criterion benches.
    Small,
    /// The size the experiment harness uses for paper-shape numbers.
    Reference,
}

impl WorkloadSize {
    /// A multiplier applied to iteration counts and footprints.
    #[must_use]
    pub fn scale(self) -> u64 {
        match self {
            WorkloadSize::Tiny => 1,
            WorkloadSize::Small => 4,
            WorkloadSize::Reference => 16,
        }
    }

    /// Stable lower-case label, used by `--size` and the canonical
    /// config schema (`bc_experiments::schema`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkloadSize::Tiny => "tiny",
            WorkloadSize::Small => "small",
            WorkloadSize::Reference => "reference",
        }
    }

    /// Inverse of [`WorkloadSize::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "tiny" => Some(WorkloadSize::Tiny),
            "small" => Some(WorkloadSize::Small),
            "reference" => Some(WorkloadSize::Reference),
            _ => None,
        }
    }
}

/// The seven-benchmark suite of the paper's Figure 4, in figure order.
#[must_use]
pub fn rodinia_suite(size: WorkloadSize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(backprop::Backprop::new(size)),
        Box::new(bfs::Bfs::new(size)),
        Box::new(hotspot::Hotspot::new(size)),
        Box::new(lud::Lud::new(size)),
        Box::new(nn::Nn::new(size)),
        Box::new(nw::Nw::new(size)),
        Box::new(pathfinder::Pathfinder::new(size)),
    ]
}

/// Looks a suite workload up by its figure label.
#[must_use]
pub fn by_name(name: &str, size: WorkloadSize) -> Option<Box<dyn Workload>> {
    rodinia_suite(size).into_iter().find(|w| w.name() == name)
}

/// Snapshot codecs for the op types, so an in-flight [`WarpOp`] parked in
/// a wavefront context can ride along in a simulator snapshot.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{BlockAccess, BlockList, WarpOp};

    impl Snap for BlockAccess {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.va)?;
            c.snap(&mut self.write)
        }
    }

    impl Snap for BlockList {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.len)?;
            let live = self.slots.get_mut(..usize::from(self.len));
            let live = live.ok_or(SnapError::BadValue("block list length"))?;
            live.iter_mut().try_for_each(|a| a.snap(c))
        }
    }

    bc_sim::snap_struct!(WarpOp: think, blocks);
}

#[cfg(test)]
// bc-lint: allow(float) — assertions on page-spread / think-time ratios.
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn suite_has_figure_order() {
        let names: Vec<&str> = rodinia_suite(WorkloadSize::Tiny)
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(
            names,
            vec![
                "backprop",
                "bfs",
                "hotspot",
                "lud",
                "nn",
                "nw",
                "pathfinder"
            ]
        );
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("bfs", WorkloadSize::Tiny).is_some());
        assert!(by_name("doom", WorkloadSize::Tiny).is_none());
    }

    #[test]
    fn streams_stay_inside_footprint() {
        for w in rodinia_suite(WorkloadSize::Tiny) {
            let lo = BASE_VA;
            let hi = BASE_VA + w.footprint_bytes();
            for wf in 0..4u32 {
                let mut s = w.make_stream(wf, 4, 7);
                let mut ops = 0;
                while let Some(op) = s.next_op() {
                    for b in &op.blocks {
                        assert!(
                            b.va.as_u64() >= lo && b.va.as_u64() < hi,
                            "{}: {:#x} outside [{lo:#x}, {hi:#x})",
                            w.name(),
                            b.va.as_u64()
                        );
                        assert_eq!(b.va.as_u64() % 128, 0, "block aligned");
                    }
                    ops += 1;
                    if ops > 200_000 {
                        panic!("{}: stream too long for Tiny", w.name());
                    }
                }
                assert!(ops > 10, "{}: stream too short ({ops})", w.name());
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for w in rodinia_suite(WorkloadSize::Tiny) {
            let collect = |seed| {
                let mut s = w.make_stream(1, 4, seed);
                let mut v = Vec::new();
                while let Some(op) = s.next_op() {
                    v.push(op);
                }
                v
            };
            assert_eq!(collect(5), collect(5), "{} not deterministic", w.name());
        }
    }

    #[test]
    fn wavefronts_cover_distinct_work() {
        for w in rodinia_suite(WorkloadSize::Tiny) {
            let first_blocks = |wf| {
                let mut s = w.make_stream(wf, 8, 3);
                let mut set = BTreeSet::new();
                for _ in 0..50 {
                    match s.next_op() {
                        Some(op) => set.extend(op.blocks.iter().map(|b| b.va.as_u64())),
                        None => break,
                    }
                }
                set
            };
            let a = first_blocks(0);
            let b = first_blocks(7);
            assert_ne!(a, b, "{}: wavefronts should not alias completely", w.name());
        }
    }

    #[test]
    fn bfs_is_more_divergent_than_nn() {
        let count_distinct_pages = |w: &dyn Workload| {
            let mut s = w.make_stream(0, 8, 11);
            let mut pages = BTreeSet::new();
            let mut blocks = 0u64;
            while let Some(op) = s.next_op() {
                for b in &op.blocks {
                    pages.insert(b.va.as_u64() >> 12);
                    blocks += 1;
                }
            }
            (pages.len() as u64, blocks)
        };
        let bfs = bfs::Bfs::new(WorkloadSize::Tiny);
        let nn = nn::Nn::new(WorkloadSize::Tiny);
        let (bfs_pages, bfs_blocks) = count_distinct_pages(&bfs);
        let (nn_pages, nn_blocks) = count_distinct_pages(&nn);
        // bfs touches many more distinct pages per block accessed.
        let bfs_ratio = bfs_pages as f64 / bfs_blocks as f64;
        let nn_ratio = nn_pages as f64 / nn_blocks as f64;
        assert!(
            bfs_ratio > nn_ratio * 2.0,
            "bfs page-spread {bfs_ratio:.4} should far exceed nn {nn_ratio:.4}"
        );
    }

    #[test]
    fn backprop_thinks_longer_than_bfs() {
        let mean_think = |w: &dyn Workload| {
            let mut s = w.make_stream(0, 8, 2);
            let (mut total, mut n) = (0u64, 0u64);
            while let Some(op) = s.next_op() {
                total += op.think;
                n += 1;
            }
            total as f64 / n as f64
        };
        let bp = mean_think(&backprop::Backprop::new(WorkloadSize::Tiny));
        let bf = mean_think(&bfs::Bfs::new(WorkloadSize::Tiny));
        assert!(bp > bf, "backprop think {bp:.1} should exceed bfs {bf:.1}");
    }

    #[test]
    fn sizes_scale_monotonically() {
        for (a, b) in [
            (WorkloadSize::Tiny, WorkloadSize::Small),
            (WorkloadSize::Small, WorkloadSize::Reference),
        ] {
            let ops = |size: WorkloadSize, name: &str| {
                let w = by_name(name, size).unwrap();
                let mut s = w.make_stream(0, 8, 1);
                let mut n = 0u64;
                while s.next_op().is_some() {
                    n += 1;
                    if n > 3_000_000 {
                        break;
                    }
                }
                n
            };
            for name in ["backprop", "bfs", "hotspot", "nn", "pathfinder"] {
                assert!(
                    ops(b, name) > ops(a, name),
                    "{name}: {b:?} should carry more work than {a:?}"
                );
            }
        }
    }

    #[test]
    fn writable_fraction_is_a_fraction() {
        for w in rodinia_suite(WorkloadSize::Tiny) {
            let f = w.writable_fraction();
            assert!((0.0..=1.0).contains(&f), "{}: {f}", w.name());
        }
    }

    #[test]
    fn repeat_stream_repeats_exactly() {
        struct Three(u8);
        impl AccessStream for Three {
            fn next_op(&mut self) -> Option<WarpOp> {
                if self.0 == 0 {
                    return None;
                }
                self.0 -= 1;
                Some(WarpOp {
                    think: self.0 as u64,
                    blocks: BlockList::new(),
                })
            }
        }
        let mut r = RepeatStream::new(Three(2), 3);
        let thinks: Vec<u64> = std::iter::from_fn(|| r.next_op())
            .map(|o| o.think)
            .collect();
        assert_eq!(thinks, vec![1, 1, 1, 0, 0, 0]);
        // Factor 0 is clamped to 1.
        let mut r = RepeatStream::new(Three(1), 0);
        assert_eq!(std::iter::from_fn(|| r.next_op()).count(), 1);
    }

    #[test]
    fn all_workloads_do_some_writes() {
        for w in rodinia_suite(WorkloadSize::Tiny) {
            let mut s = w.make_stream(0, 4, 1);
            let mut wrote = false;
            while let Some(op) = s.next_op() {
                wrote |= op.blocks.iter().any(|b| b.write);
            }
            assert!(wrote, "{} never writes", w.name());
        }
    }
}
