//! The seven workload generators.
//!
//! Shared conventions: every buffer lives inside one VMA starting at
//! [`crate::BASE_VA`]; all addresses are 128-byte block aligned; work is
//! partitioned across wavefronts by contiguous slices (regular workloads)
//! or interleaved chunks (irregular ones); the `think` field models the
//! compute the real kernel performs between memory operations, which is
//! what differentiates compute-heavy backprop (≈0.025 border requests per
//! cycle in Figure 5) from memory-hammering bfs (≈0.29).

// bc-lint: allow-file(saturating-counter) — every saturating_sub here
// clamps a grid/matrix coordinate at its boundary (north row, west
// column, diagonal origin, window size); edge clamping is the stencil
// semantics and no site decrements a state counter.
// bc-lint: allow-file(float) — writable-fraction ratios and access-mix
// probabilities; consumed via SimRng::chance's single exact comparison
// or converted to fixed-point once at build, seed-reproducible.
use bc_mem::addr::VirtAddr;
use bc_sim::SimRng;

use crate::{
    AccessStream, BlockAccess, BlockList, RepeatStream, WarpOp, Workload, WorkloadSize, BASE_VA,
};

const BLOCK: u64 = 128;

fn block_at(offset: u64) -> VirtAddr {
    VirtAddr::new(BASE_VA + (offset & !(BLOCK - 1)))
}

fn read(offset: u64) -> BlockAccess {
    BlockAccess {
        va: block_at(offset),
        write: false,
    }
}

fn write(offset: u64) -> BlockAccess {
    BlockAccess {
        va: block_at(offset),
        write: true,
    }
}

/// Splits `total` items into a contiguous `[start, end)` slice for
/// wavefront `wf` of `n`. With at least one item per wavefront, the last
/// wavefront also takes the remainder. With more wavefronts than items,
/// wavefront `i < total` takes item `i` and every other wavefront an
/// empty slice, for which each generator yields no op.
fn slice_of(total: u64, wf: u32, n: u32) -> (u64, u64) {
    let n = n.max(1) as u64;
    let wf = wf as u64 % n;
    let per = total / n;
    if per == 0 {
        return if wf < total {
            (wf, wf + 1)
        } else {
            (total, total)
        };
    }
    let start = wf * per;
    let end = if wf == n - 1 { total } else { start + per };
    (start, end)
}

/// `backprop`: a two-layer neural-network sweep. Regular strided reads of
/// inputs and a large weight matrix with long compute bursts between
/// memory operations — the lowest border-request rate in Figure 5.
pub mod backprop {
    use super::*;

    /// The backprop workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Backprop {
        input_bytes: u64,
        weight_bytes: u64,
        output_bytes: u64,
    }

    impl Backprop {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            let s = size.scale();
            Backprop {
                input_bytes: 256 << 10,
                weight_bytes: (2 << 20) * s,
                output_bytes: 256 << 10,
            }
        }
    }

    impl Workload for Backprop {
        fn name(&self) -> &'static str {
            "backprop"
        }

        fn footprint_bytes(&self) -> u64 {
            self.input_bytes + self.weight_bytes + self.output_bytes
        }

        fn writable_fraction(&self) -> f64 {
            // Only the output layer is written.
            self.output_bytes as f64 / self.footprint_bytes() as f64
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            let weight_blocks = self.weight_bytes / BLOCK;
            let (start, end) = slice_of(weight_blocks, wf, total_wfs);
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    cur: start,
                    end,
                    pass: 0,
                    start,
                },
                3,
            ))
        }
    }

    struct Stream {
        w: Backprop,
        cur: u64,
        end: u64,
        start: u64,
        pass: u8,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            // Two passes: forward (read-dominated) and backward (updates).
            if self.cur >= self.end {
                if self.pass >= 1 || self.start == self.end {
                    return None;
                }
                self.pass += 1;
                self.cur = self.start;
            }
            let wblock = self.cur;
            self.cur += 1;
            let input_off = (wblock * 64) % self.w.input_bytes;
            let weight_off = self.w.input_bytes + wblock * BLOCK;
            let output_off =
                self.w.input_bytes + self.w.weight_bytes + (wblock * 16) % self.w.output_bytes;
            let mut blocks = BlockList::of([read(input_off), read(weight_off)]);
            if self.pass == 1 && wblock.is_multiple_of(8) {
                blocks.push(write(output_off));
            }
            Some(WarpOp { think: 120, blocks })
        }
    }
}

/// `bfs`: breadth-first search. Sequential frontier reads followed by
/// data-dependent gathers across a large node/edge footprint — the most
/// irregular stream and the highest border-request rate in Figure 5.
pub mod bfs {
    use super::*;

    /// The bfs workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Bfs {
        node_bytes: u64,
        edge_bytes: u64,
        visited_bytes: u64,
        frontier_len: u64,
    }

    impl Bfs {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            // The graph footprint stays fixed (its live hot window is what
            // matters for cache/TLB behaviour); problem size scales the
            // amount of frontier work.
            Bfs {
                node_bytes: 4 << 20,
                edge_bytes: 8 << 20,
                visited_bytes: 1 << 20,
                frontier_len: 20_000 * size.scale(),
            }
        }
    }

    impl Workload for Bfs {
        fn name(&self) -> &'static str {
            "bfs"
        }

        fn footprint_bytes(&self) -> u64 {
            self.node_bytes + self.edge_bytes + self.visited_bytes
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, seed: u64) -> Box<dyn AccessStream> {
            // Frontier slots are interleaved across wavefronts: every
            // wavefront works on the *same* frontier region at the same
            // time, sharing its hot window (as real BFS kernels do).
            Box::new(Stream {
                w: *self,
                wf: wf as u64 % total_wfs.max(1) as u64,
                n_wfs: total_wfs.max(1) as u64,
                i: 0,
                rng: SimRng::seed_from(seed ^ ((wf as u64) << 32) ^ 0xBF5),
            })
        }
    }

    struct Stream {
        w: Bfs,
        wf: u64,
        n_wfs: u64,
        i: u64,
        rng: SimRng,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            let frontier_slot = self.i * self.n_wfs + self.wf;
            if frontier_slot >= self.w.frontier_len {
                return None;
            }
            self.i += 1;
            // Read the frontier entry (sequential, good locality)...
            let mut blocks = BlockList::of([read(
                (frontier_slot * 4) % self.w.visited_bytes + self.w.node_bytes + self.w.edge_bytes,
            )]);
            // ...then gather the node and its (contiguous) edge list.
            // Real frontiers have community structure: most gathers land
            // in a hot window that drifts with the frontier, with an
            // occasional far touch.
            let node_blocks = self.w.node_bytes / BLOCK;
            let window_blocks = (96u64 << 10) / BLOCK;
            // The hot window drifts slowly (4 blocks per 256 frontier
            // slots) so de-synchronized wavefronts still overlap almost
            // entirely — frontiers move gradually through the graph.
            let window_base =
                frontier_slot / 256 * 4 % node_blocks.saturating_sub(window_blocks).max(1);
            let node = if self.rng.chance(0.95) {
                (window_base + self.rng.below(window_blocks)) % node_blocks
            } else {
                self.rng.below(node_blocks)
            };
            blocks.push(read(node * BLOCK));
            // Edge list: one or two consecutive blocks; the lists of
            // frontier-adjacent nodes are adjacent in the edge array.
            let edge_blocks = self.w.edge_bytes / BLOCK;
            let edge_base = (node * 2 + self.rng.below(16)) % (edge_blocks - 1);
            blocks.push(read(self.w.node_bytes + edge_base * BLOCK));
            if self.rng.chance(0.4) {
                blocks.push(read(self.w.node_bytes + (edge_base + 1) * BLOCK));
            }
            // Mark a discovered node visited — near the hot window, like
            // the nodes being discovered.
            let visited_blocks = self.w.visited_bytes / BLOCK;
            let visited = self.w.node_bytes
                + self.w.edge_bytes
                + (window_base / 4 + self.rng.below(window_blocks / 4).max(1).min(visited_blocks))
                    % visited_blocks
                    * BLOCK;
            blocks.push(write(visited));
            Some(WarpOp { think: 10, blocks })
        }
    }
}

/// `hotspot`: a 2-D five-point stencil over a temperature/power grid.
/// High spatial locality — neighbours share blocks and pages.
pub mod hotspot {
    use super::*;

    /// The hotspot workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Hotspot {
        rows: u64,
        cols_bytes: u64,
        iterations: u64,
    }

    impl Hotspot {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            // Grid stays TLB-scaled; iteration count carries problem size.
            Hotspot {
                rows: match size {
                    WorkloadSize::Tiny => 256,
                    WorkloadSize::Small => 384,
                    WorkloadSize::Reference => 512,
                },
                cols_bytes: 2048, // 512 floats per row
                iterations: 1 + size.scale(),
            }
        }

        fn grid_bytes(&self) -> u64 {
            self.rows * self.cols_bytes
        }
    }

    impl Workload for Hotspot {
        fn name(&self) -> &'static str {
            "hotspot"
        }

        fn footprint_bytes(&self) -> u64 {
            // temperature-in, power, temperature-out
            3 * self.grid_bytes()
        }

        fn writable_fraction(&self) -> f64 {
            1.0 / 3.0
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            let (row_start, row_end) = slice_of(self.rows, wf, total_wfs);
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    row: row_start,
                    row_start,
                    row_end,
                    col: 0,
                    iter: 0,
                },
                4,
            ))
        }
    }

    struct Stream {
        w: Hotspot,
        row: u64,
        row_start: u64,
        row_end: u64,
        col: u64,
        iter: u64,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            if self.row >= self.row_end {
                self.iter += 1;
                if self.iter >= self.w.iterations || self.row_start == self.row_end {
                    return None;
                }
                self.row = self.row_start;
            }
            let grid = self.w.grid_bytes();
            let at = |r: u64, c: u64| r * self.w.cols_bytes + c;
            let (r, c) = (self.row, self.col);
            let north = r.saturating_sub(1);
            let south = (r + 1).min(self.w.rows - 1);
            let blocks = BlockList::of([
                read(at(r, c)),             // centre (east/west share the block)
                read(at(north, c)),         // north
                read(at(south, c)),         // south
                read(grid + at(r, c)),      // power grid
                write(2 * grid + at(r, c)), // output grid
            ]);
            self.col += BLOCK;
            if self.col >= self.w.cols_bytes {
                self.col = 0;
                self.row += 1;
            }
            Some(WarpOp { think: 40, blocks })
        }
    }
}

/// `lud`: blocked LU decomposition. Regular accesses with heavy reuse of
/// the pivot row/column — cache-friendly, shrinking active set.
pub mod lud {
    use super::*;

    /// The lud workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Lud {
        /// Matrix dimension in 128-byte blocks (the matrix is `dim × dim`
        /// blocks).
        dim: u64,
    }

    impl Lud {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            // Explicit dims: total update ops grow with dim^3 / 3, so the
            // scale factor is applied gently.
            Lud {
                dim: match size {
                    WorkloadSize::Tiny => 48,
                    WorkloadSize::Small => 96,
                    WorkloadSize::Reference => 144,
                },
            }
        }

        fn at(&self, br: u64, bc: u64) -> u64 {
            (br * self.dim + bc) * BLOCK
        }
    }

    impl Workload for Lud {
        fn name(&self) -> &'static str {
            "lud"
        }

        fn footprint_bytes(&self) -> u64 {
            self.dim * self.dim * BLOCK
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    k: 0,
                    idx: 0,
                    wf: wf as u64 % total_wfs.max(1) as u64,
                    n_wfs: total_wfs.max(1) as u64,
                },
                6,
            ))
        }
    }

    struct Stream {
        w: Lud,
        /// Elimination step.
        k: u64,
        /// Linear index into the trailing submatrix of step `k`.
        idx: u64,
        wf: u64,
        n_wfs: u64,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            loop {
                if self.k >= self.w.dim.saturating_sub(1) {
                    return None;
                }
                let trailing = self.w.dim - self.k - 1;
                let total = trailing * trailing;
                // Interleave the trailing submatrix across wavefronts.
                let my_idx = self.idx * self.n_wfs + self.wf;
                if my_idx >= total {
                    self.k += 1;
                    self.idx = 0;
                    continue;
                }
                self.idx += 1;
                let r = self.k + 1 + my_idx / trailing;
                let c = self.k + 1 + my_idx % trailing;
                let blocks = BlockList::of([
                    read(self.w.at(self.k, c)), // pivot row (reused heavily)
                    read(self.w.at(r, self.k)), // pivot column
                    write(self.w.at(r, c)),     // update target
                ]);
                return Some(WarpOp { think: 30, blocks });
            }
        }
    }
}

/// `nn`: nearest-neighbour scoring of a record stream. Perfectly
/// coalesced, read-dominated streaming with negligible reuse.
pub mod nn {
    use super::*;

    /// The nn workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Nn {
        record_bytes: u64,
        result_bytes: u64,
    }

    impl Nn {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            let s = size.scale();
            Nn {
                record_bytes: (4 << 20) * s,
                result_bytes: (256 << 10) * s,
            }
        }
    }

    impl Workload for Nn {
        fn name(&self) -> &'static str {
            "nn"
        }

        fn footprint_bytes(&self) -> u64 {
            self.record_bytes + self.result_bytes
        }

        fn writable_fraction(&self) -> f64 {
            self.result_bytes as f64 / self.footprint_bytes() as f64
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            let blocks = self.record_bytes / BLOCK;
            let (start, end) = slice_of(blocks, wf, total_wfs);
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    cur: start,
                    end,
                },
                2,
            ))
        }
    }

    struct Stream {
        w: Nn,
        cur: u64,
        end: u64,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            if self.cur >= self.end {
                return None;
            }
            let b = self.cur;
            self.cur += 1;
            let mut blocks = BlockList::of([read(b * BLOCK)]);
            if b.is_multiple_of(16) {
                blocks.push(write(
                    self.w.record_bytes + (b / 16 * BLOCK) % self.w.result_bytes,
                ));
            }
            Some(WarpOp { think: 12, blocks })
        }
    }
}

/// `nw`: Needleman–Wunsch dynamic programming. Anti-diagonal sweeps whose
/// row-to-row strides touch a new page per step — moderate irregularity.
pub mod nw {
    use super::*;

    /// The nw workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Nw {
        /// DP matrix dimension in cells (4-byte ints).
        n: u64,
    }

    impl Nw {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            Nw {
                n: match size {
                    WorkloadSize::Tiny => 512,
                    WorkloadSize::Small => 1024,
                    WorkloadSize::Reference => 2048,
                },
            }
        }

        fn row_bytes(&self) -> u64 {
            self.n * 4
        }

        fn at(&self, r: u64, c: u64) -> u64 {
            r * self.row_bytes() + c * 4
        }
    }

    impl Workload for Nw {
        fn name(&self) -> &'static str {
            "nw"
        }

        fn footprint_bytes(&self) -> u64 {
            // DP matrix plus the reference/score matrix.
            2 * self.n * self.row_bytes()
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    diag: 1,
                    idx: 0,
                    wf: wf as u64 % total_wfs.max(1) as u64,
                    n_wfs: total_wfs.max(1) as u64,
                },
                3,
            ))
        }
    }

    struct Stream {
        w: Nw,
        /// Current anti-diagonal (1 .. 2n-1), processed in 32-cell tiles.
        diag: u64,
        idx: u64,
        wf: u64,
        n_wfs: u64,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            loop {
                if self.diag >= 2 * self.w.n - 1 {
                    return None;
                }
                // Cells on this diagonal, tiled by 32.
                let len = if self.diag < self.w.n {
                    self.diag + 1
                } else {
                    2 * self.w.n - 1 - self.diag
                };
                let tiles = len.div_ceil(32);
                let my_tile = self.idx * self.n_wfs + self.wf;
                if my_tile >= tiles {
                    self.diag += 1;
                    self.idx = 0;
                    continue;
                }
                self.idx += 1;
                let first_cell = my_tile * 32;
                let r0 = if self.diag < self.w.n {
                    self.diag - first_cell.min(self.diag)
                } else {
                    self.w.n - 1 - first_cell.min(self.w.n - 1)
                };
                let c0 = self.diag.saturating_sub(r0);
                let score = self.w.n * self.w.row_bytes();
                let blocks = BlockList::of([
                    read(self.w.at(r0.saturating_sub(1), c0)), // up + diag share the row above
                    read(self.w.at(r0, c0.saturating_sub(1))), // left (same row)
                    read(score + self.w.at(r0, c0)),           // reference matrix
                    write(self.w.at(r0, c0)),
                ]);
                return Some(WarpOp { think: 24, blocks });
            }
        }
    }
}

/// `pathfinder`: row-by-row dynamic programming with a 3-wide halo.
/// Streaming with short-lived row reuse.
pub mod pathfinder {
    use super::*;

    /// The pathfinder workload.
    #[derive(Debug, Clone, Copy)]
    pub struct Pathfinder {
        rows: u64,
        row_bytes: u64,
    }

    impl Pathfinder {
        /// Creates the workload at the given problem size.
        #[must_use]
        pub fn new(size: WorkloadSize) -> Self {
            let s = size.scale();
            Pathfinder {
                rows: 128 * s,
                row_bytes: 16 << 10,
            }
        }
    }

    impl Workload for Pathfinder {
        fn name(&self) -> &'static str {
            "pathfinder"
        }

        fn footprint_bytes(&self) -> u64 {
            // The wall grid plus two result rows (ping-pong).
            self.rows * self.row_bytes + 2 * self.row_bytes
        }

        fn make_stream(&self, wf: u32, total_wfs: u32, _seed: u64) -> Box<dyn AccessStream> {
            let cols = self.row_bytes / BLOCK;
            let (c_start, c_end) = slice_of(cols, wf, total_wfs);
            Box::new(RepeatStream::new(
                Stream {
                    w: *self,
                    row: 1,
                    col: c_start,
                    c_start,
                    c_end,
                },
                2,
            ))
        }
    }

    struct Stream {
        w: Pathfinder,
        row: u64,
        col: u64,
        c_start: u64,
        c_end: u64,
    }

    impl AccessStream for Stream {
        fn next_op(&mut self) -> Option<WarpOp> {
            if self.row >= self.w.rows {
                return None;
            }
            if self.col >= self.c_end {
                self.row += 1;
                self.col = self.c_start;
                if self.row >= self.w.rows || self.c_start == self.c_end {
                    return None;
                }
            }
            let c = self.col;
            self.col += 1;
            let wall = self.row * self.w.row_bytes + c * BLOCK;
            let result_base = self.w.rows * self.w.row_bytes;
            let prev = result_base + (self.row % 2) * self.w.row_bytes;
            let curr = result_base + ((self.row + 1) % 2) * self.w.row_bytes;
            let west = prev + (c.saturating_sub(1)) * BLOCK;
            let east = prev + ((c + 1) * BLOCK).min(self.w.row_bytes - BLOCK);
            let blocks = BlockList::of([
                read(wall),
                read(prev + c * BLOCK),
                read(west),
                read(east),
                write(curr + c * BLOCK),
            ]);
            Some(WarpOp { think: 20, blocks })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_partitions_cover_everything() {
        // Fewer, equal and more wavefronts than items: every item lies in
        // exactly one wavefront's slice.
        for (total, n) in [(103u64, 8u32), (8, 8), (5, 8), (1, 3), (128, 200), (0, 4)] {
            let mut hits = vec![0u32; total as usize];
            for wf in 0..n {
                let (s, e) = slice_of(total, wf, n);
                assert!(
                    s <= e && e <= total,
                    "{total} over {n}: wf {wf} got {s}..{e}"
                );
                for item in s..e {
                    hits[item as usize] += 1;
                }
            }
            assert!(hits.iter().all(|&h| h == 1), "{total} over {n}: {hits:?}");
        }
        // At least one item each: the last wavefront absorbs the remainder.
        assert_eq!(slice_of(103, 7, 8), (84, 103));
        // More wavefronts than items: one item each, then empty slices.
        assert_eq!(slice_of(5, 4, 8), (4, 5));
        assert_eq!(slice_of(5, 7, 8), (5, 5));
    }

    #[test]
    fn empty_slices_yield_no_ops() {
        // Tiny sizes, more wavefronts than each generator's slice items.
        let n = 1 << 16;
        let workloads: [Box<dyn Workload>; 4] = [
            Box::new(backprop::Backprop::new(WorkloadSize::Tiny)),
            Box::new(hotspot::Hotspot::new(WorkloadSize::Tiny)),
            Box::new(nn::Nn::new(WorkloadSize::Tiny)),
            Box::new(pathfinder::Pathfinder::new(WorkloadSize::Tiny)),
        ];
        for w in &workloads {
            let mut s = w.make_stream(n - 1, n, 0);
            assert!(s.next_op().is_none(), "{} issued an op", w.name());
            assert!(s.next_op().is_none(), "{} woke up", w.name());
        }
    }

    #[test]
    fn many_wavefront_pathfinder_stays_in_its_slice() {
        let w = pathfinder::Pathfinder::new(WorkloadSize::Tiny);
        let row_bytes = 16 << 10;
        let cols = row_bytes / BLOCK;
        let rows = w.footprint_bytes() / row_bytes - 2;
        let n = 200u32;
        let mut ops = 0;
        for wf in 0..n {
            let (s, e) = slice_of(cols, wf, n);
            let mut stream = w.make_stream(wf, n, 0);
            let mut mine = 0;
            while let Some(op) = stream.next_op() {
                // The first block is the wall read at (row, column).
                let wall = op.blocks.as_slice()[0].va.as_u64() - BASE_VA;
                let col = wall % row_bytes / BLOCK;
                assert!(
                    (s..e).contains(&col),
                    "wf {wf} read column {col} outside {s}..{e}"
                );
                mine += 1;
            }
            // Rows 1.. of the grid, each op issued twice.
            assert_eq!(mine, (rows - 1) * (e - s) * 2, "wf {wf}");
            ops += mine;
        }
        assert_eq!(ops, (rows - 1) * cols * 2, "every column once");
    }

    #[test]
    fn slice_handles_degenerate_inputs() {
        assert_eq!(
            slice_of(10, 0, 0),
            (0, 10),
            "zero wavefronts treated as one"
        );
        assert_eq!(slice_of(0, 0, 4), (0, 0));
    }

    #[test]
    fn block_helpers_align() {
        assert_eq!(read(130).va.as_u64() % 128, 0);
        assert!(write(0).write);
        assert!(!read(0).write);
    }

    #[test]
    fn lud_active_set_shrinks() {
        let w = lud::Lud::new(WorkloadSize::Tiny);
        let mut s = w.make_stream(0, 1, 0);
        let mut per_k_ops = Vec::new();
        let mut last_pivot = None;
        let mut count = 0u64;
        while let Some(op) = s.next_op() {
            let pivot = op.blocks[0].va;
            if Some(pivot) != last_pivot && op.blocks[0].va != op.blocks[1].va {
                // heuristic grouping not needed; just count total ops
            }
            last_pivot = Some(pivot);
            count += 1;
        }
        per_k_ops.push(count);
        assert!(count > 1000, "lud should generate substantial work");
    }

    #[test]
    fn hotspot_writes_go_to_output_grid() {
        let w = hotspot::Hotspot::new(WorkloadSize::Tiny);
        let out_base = BASE_VA + 2 * (w.footprint_bytes() / 3);
        let mut s = w.make_stream(0, 2, 0);
        while let Some(op) = s.next_op() {
            for b in op.blocks.iter().filter(|b| b.write) {
                assert!(b.va.as_u64() >= out_base, "writes land in the output grid");
            }
        }
    }

    #[test]
    fn nw_touches_many_rows() {
        use std::collections::BTreeSet;
        let w = nw::Nw::new(WorkloadSize::Tiny);
        let mut s = w.make_stream(0, 1, 0);
        let mut rows = BTreeSet::new();
        let row_bytes = 512 * 4 * WorkloadSize::Tiny.scale().min(8);
        while let Some(op) = s.next_op() {
            for b in &op.blocks {
                rows.insert((b.va.as_u64() - BASE_VA) / row_bytes);
            }
        }
        assert!(rows.len() > 100, "nw sweeps many rows, saw {}", rows.len());
    }
}
