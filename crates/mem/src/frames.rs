//! Physical frame allocation.

use std::error::Error;
use std::fmt;

use crate::addr::{Ppn, PAGE_SIZE};

/// Error returned when physical memory is exhausted (or too fragmented for
/// a contiguous request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfFrames {
    /// Number of frames that were requested.
    pub requested: u64,
}

impl fmt::Display for OutOfFrames {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of physical frames (requested {} contiguous)",
            self.requested
        )
    }
}

impl Error for OutOfFrames {}

/// A physical-page allocator over a fixed-size physical address space.
///
/// Single frames are served from a free list (LIFO, so tests get address
/// reuse) topped up from a high-water cursor. Contiguous multi-frame
/// requests — which the OS needs to carve out each accelerator's
/// Protection Table (§3.2.1) — are served from the cursor only, keeping
/// the implementation simple while still modelling a realistic layout:
/// long-lived contiguous tables surrounded by churning single frames.
///
/// # Example
///
/// ```
/// use bc_mem::FrameAllocator;
///
/// let mut fa = FrameAllocator::new(1 << 30); // 1 GiB
/// let a = fa.alloc()?;
/// let b = fa.alloc()?;
/// assert_ne!(a, b);
/// fa.free(a);
/// assert_eq!(fa.alloc()?, a); // LIFO reuse
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total_frames: u64,
    cursor: u64,
    free_list: Vec<Ppn>,
    allocated: u64,
}

impl FrameAllocator {
    /// Creates an allocator over `phys_bytes` of physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `phys_bytes` is smaller than one page.
    #[must_use]
    pub fn new(phys_bytes: u64) -> Self {
        let total_frames = phys_bytes / PAGE_SIZE;
        assert!(total_frames > 0, "physical memory smaller than one page");
        FrameAllocator {
            total_frames,
            // Frame 0 is reserved (null physical page) like most real systems.
            cursor: 1,
            free_list: Vec::new(),
            allocated: 0,
        }
    }

    /// Total physical frames (including reserved frame 0).
    #[must_use]
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Physical memory size in bytes.
    #[must_use]
    pub fn phys_bytes(&self) -> u64 {
        self.total_frames * PAGE_SIZE
    }

    /// Frames currently allocated.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Frames still available.
    #[must_use]
    pub fn available(&self) -> u64 {
        self.total_frames - 1 - self.allocated
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when physical memory is exhausted.
    pub fn alloc(&mut self) -> Result<Ppn, OutOfFrames> {
        if let Some(p) = self.free_list.pop() {
            self.allocated += 1;
            return Ok(p);
        }
        if self.cursor < self.total_frames {
            let p = Ppn::new(self.cursor);
            self.cursor += 1;
            self.allocated += 1;
            Ok(p)
        } else {
            Err(OutOfFrames { requested: 1 })
        }
    }

    /// Allocates `n` physically contiguous frames, returning the first.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when there is no untouched contiguous run of
    /// `n` frames left.
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<Ppn, OutOfFrames> {
        if n == 0 {
            return Err(OutOfFrames { requested: 0 });
        }
        if self.cursor + n <= self.total_frames {
            let p = Ppn::new(self.cursor);
            self.cursor += n;
            self.allocated += n;
            Ok(p)
        } else {
            Err(OutOfFrames { requested: n })
        }
    }

    /// Allocates `n` contiguous frames whose base is `align`-frame
    /// aligned (huge pages need 512-frame alignment). Frames skipped to
    /// reach alignment are returned to the single-frame free list, not
    /// wasted.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfFrames`] when no suitable run exists.
    pub fn alloc_contiguous_aligned(&mut self, n: u64, align: u64) -> Result<Ppn, OutOfFrames> {
        let align = align.max(1);
        let aligned = self.cursor.div_ceil(align) * align;
        if n == 0 || aligned + n > self.total_frames {
            return Err(OutOfFrames { requested: n });
        }
        for skipped in self.cursor..aligned {
            self.free_list.push(Ppn::new(skipped));
        }
        self.cursor = aligned + n;
        self.allocated += n;
        Ok(Ppn::new(aligned))
    }

    /// Returns one frame to the allocator.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the allocator's books go negative, which
    /// indicates a double free.
    pub fn free(&mut self, ppn: Ppn) {
        debug_assert!(self.allocated > 0, "double free of {ppn}");
        self.allocated -= 1;
        self.free_list.push(ppn);
    }

    /// Returns a contiguous run (from [`FrameAllocator::alloc_contiguous`])
    /// to the allocator.
    pub fn free_contiguous(&mut self, base: Ppn, n: u64) {
        for i in 0..n {
            self.free(base.add(i));
        }
    }
}

/// Snapshot codec: the allocator's books are its exact state — cursor,
/// LIFO free list (order preserved: it determines future allocation
/// addresses), and the allocated count. The frame count is config, fixed
/// by the build that is read over.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::FrameAllocator;

    impl Snap for FrameAllocator {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"FRAM")?;
            c.snap(&mut self.cursor)?;
            c.snap(&mut self.free_list)?;
            c.snap(&mut self.allocated)?;
            if self.cursor == 0 || self.cursor > self.total_frames {
                return Err(SnapError::BadValue("frame allocator books"));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_zero_reserved() {
        let mut fa = FrameAllocator::new(1 << 20);
        assert_ne!(fa.alloc().unwrap(), Ppn::new(0));
    }

    #[test]
    fn exhaustion_errors() {
        // 4 frames total, frame 0 reserved -> 3 allocatable.
        let mut fa = FrameAllocator::new(4 * PAGE_SIZE);
        assert_eq!(fa.available(), 3);
        for _ in 0..3 {
            fa.alloc().unwrap();
        }
        assert!(fa.alloc().is_err());
        assert_eq!(fa.available(), 0);
    }

    #[test]
    fn free_then_alloc_reuses() {
        let mut fa = FrameAllocator::new(1 << 20);
        let a = fa.alloc().unwrap();
        let _b = fa.alloc().unwrap();
        fa.free(a);
        assert_eq!(fa.alloc().unwrap(), a);
    }

    #[test]
    fn contiguous_is_contiguous() {
        let mut fa = FrameAllocator::new(1 << 24);
        let base = fa.alloc_contiguous(16).unwrap();
        let next = fa.alloc().unwrap();
        assert_eq!(next.as_u64(), base.as_u64() + 16);
        assert_eq!(fa.allocated(), 17);
        fa.free_contiguous(base, 16);
        assert_eq!(fa.allocated(), 1);
    }

    #[test]
    fn contiguous_exhaustion() {
        let mut fa = FrameAllocator::new(8 * PAGE_SIZE);
        assert!(fa.alloc_contiguous(100).is_err());
        assert!(fa.alloc_contiguous(0).is_err());
        assert!(fa.alloc_contiguous(7).is_ok());
    }

    #[test]
    fn aligned_contiguous_is_aligned_and_wastes_nothing() {
        let mut fa = FrameAllocator::new(64 << 20);
        fa.alloc().unwrap(); // cursor now unaligned
        let base = fa.alloc_contiguous_aligned(512, 512).unwrap();
        assert_eq!(base.as_u64() % 512, 0);
        // The skipped frames are reusable singles.
        let reused = fa.alloc().unwrap();
        assert!(reused.as_u64() < base.as_u64(), "skipped frame recycled");
        assert!(fa.alloc_contiguous_aligned(1 << 20, 512).is_err());
        assert!(fa.alloc_contiguous_aligned(0, 512).is_err());
    }

    #[test]
    fn bookkeeping_consistent() {
        let mut fa = FrameAllocator::new(1 << 20);
        let frames: Vec<_> = (0..10).map(|_| fa.alloc().unwrap()).collect();
        assert_eq!(fa.allocated(), 10);
        for f in frames {
            fa.free(f);
        }
        assert_eq!(fa.allocated(), 0);
        assert_eq!(fa.phys_bytes(), 1 << 20);
    }
}
