//! Miss-status holding registers (MSHRs).
//!
//! MSHRs bound the number of outstanding misses a cache can sustain and
//! merge secondary misses to a block already being fetched. In the timing
//! model this has two effects: duplicate fetches of a hot block cost no
//! extra DRAM bandwidth, and a latency-tolerant GPU eventually *does*
//! stall when every MSHR is busy — which is precisely what throttles the
//! cacheless full-IOMMU configuration.

use std::collections::BTreeMap;

use bc_sim::stats::Counter;
use bc_sim::Cycle;

/// Outcome of registering a miss with the MSHR table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A fresh miss: the caller should issue the fill; the returned slot
    /// must be completed via the completion time passed to
    /// [`MshrTable::fill_issued`].
    NewMiss,
    /// The block is already being fetched; the existing fill completes at
    /// the contained time and no new traffic should be issued.
    MergedWith(Cycle),
    /// All MSHRs are busy until the contained time; the requester must
    /// retry at (or after) that instant.
    StallUntil(Cycle),
}

/// A table of miss-status holding registers keyed by block index.
///
/// # Example
///
/// ```
/// use bc_cache::{MshrTable, MshrOutcome};
/// use bc_sim::Cycle;
///
/// let mut mshr = MshrTable::new(2);
/// assert_eq!(mshr.register(Cycle::ZERO, 0x10), MshrOutcome::NewMiss);
/// mshr.fill_issued(0x10, Cycle::new(100));
/// // A second miss to the same block merges.
/// assert_eq!(
///     mshr.register(Cycle::new(5), 0x10),
///     MshrOutcome::MergedWith(Cycle::new(100)),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct MshrTable {
    capacity: usize,
    // block index -> completion time (None until fill_issued).
    outstanding: BTreeMap<u64, Option<Cycle>>,
    // Completion-time index over the `Some(done)` slots of `outstanding`:
    // one `(done, block)` key per issued fill. Expiry pops the prefix
    // `<= now` instead of scanning every outstanding entry on each
    // register, and a capacity stall reads the earliest completion from
    // the first key instead of a min() sweep.
    by_done: BTreeMap<(Cycle, u64), ()>,
    merges: Counter,
    stalls: Counter,
}

impl MshrTable {
    /// Creates a table with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR table needs at least one register");
        MshrTable {
            capacity,
            outstanding: BTreeMap::new(),
            by_done: BTreeMap::new(),
            merges: Counter::new(),
            stalls: Counter::new(),
        }
    }

    /// Retires every entry whose fill completed at or before `now`.
    /// Unissued fills (`None` completion) never expire here, exactly as
    /// before the index existed — they are waiting on `fill_issued`.
    pub fn expire(&mut self, now: Cycle) {
        while let Some((&(done, block), ())) = self.by_done.first_key_value() {
            if done > now {
                break;
            }
            self.by_done.pop_first();
            self.outstanding.remove(&block);
        }
    }

    /// Registers a miss for `block` observed at `now`.
    pub fn register(&mut self, now: Cycle, block: u64) -> MshrOutcome {
        self.expire(now);
        if let Some(done) = self.outstanding.get(&block) {
            self.merges.inc();
            return match done {
                Some(d) => MshrOutcome::MergedWith(*d),
                // Fill not yet issued this cycle round; treat as merged
                // completing "now" — the caller that registered first will
                // set the real time.
                None => MshrOutcome::MergedWith(now),
            };
        }
        if self.outstanding.len() >= self.capacity {
            self.stalls.inc();
            let earliest = self
                .by_done
                .first_key_value()
                .map(|(&(done, _), ())| done)
                .unwrap_or(now + 1);
            return MshrOutcome::StallUntil(earliest.max(now + 1));
        }
        self.outstanding.insert(block, None);
        MshrOutcome::NewMiss
    }

    /// Records the completion time of the fill for a previously registered
    /// miss.
    pub fn fill_issued(&mut self, block: u64, done: Cycle) {
        if let Some(slot) = self.outstanding.get_mut(&block) {
            if let Some(old) = slot.replace(done) {
                self.by_done.remove(&(old, block));
            }
            self.by_done.insert((done, block), ());
        }
    }

    /// Outstanding (unexpired) misses.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Secondary misses merged into an existing register.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges.get()
    }

    /// Requests that found the table full.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }
}

/// Snapshot codec: the outstanding map (already sorted by block index)
/// is the exact state; the capacity is fixed by the build that is read
/// over, and the completion-time index is derived and rebuilt.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::MshrTable;

    impl Snap for MshrTable {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.section(*b"MSHR")?;
            c.snap(&mut self.outstanding)?;
            c.snap(&mut self.merges)?;
            c.snap(&mut self.stalls)?;
            if c.reading() {
                let issued = self
                    .outstanding
                    .iter()
                    .filter_map(|(&b, d)| Some(((*d)?, b)));
                self.by_done = issued.map(|key| (key, ())).collect();
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_miss_then_merge() {
        let mut m = MshrTable::new(4);
        assert_eq!(m.register(Cycle::ZERO, 7), MshrOutcome::NewMiss);
        m.fill_issued(7, Cycle::new(50));
        assert_eq!(
            m.register(Cycle::new(1), 7),
            MshrOutcome::MergedWith(Cycle::new(50))
        );
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn capacity_stall() {
        let mut m = MshrTable::new(2);
        m.register(Cycle::ZERO, 1);
        m.fill_issued(1, Cycle::new(30));
        m.register(Cycle::ZERO, 2);
        m.fill_issued(2, Cycle::new(60));
        match m.register(Cycle::ZERO, 3) {
            MshrOutcome::StallUntil(t) => assert_eq!(t, Cycle::new(30)),
            other => panic!("expected stall, got {other:?}"),
        }
        assert_eq!(m.stalls(), 1);
    }

    #[test]
    fn expiry_frees_slots() {
        let mut m = MshrTable::new(1);
        m.register(Cycle::ZERO, 1);
        m.fill_issued(1, Cycle::new(10));
        // At cycle 11 the fill is done: slot is free, and a new miss to the
        // same block is a *new* miss (block no longer in flight).
        assert_eq!(m.register(Cycle::new(11), 1), MshrOutcome::NewMiss);
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn merge_before_fill_issued() {
        let mut m = MshrTable::new(4);
        m.register(Cycle::ZERO, 9);
        // Same-cycle second requester before the first issued the fill.
        assert_eq!(
            m.register(Cycle::ZERO, 9),
            MshrOutcome::MergedWith(Cycle::ZERO)
        );
    }

    #[test]
    fn stall_returns_future_time() {
        let mut m = MshrTable::new(1);
        m.register(Cycle::new(5), 1);
        // Fill never issued: stall must still return a time beyond `now`.
        match m.register(Cycle::new(5), 2) {
            MshrOutcome::StallUntil(t) => assert!(t > Cycle::new(5)),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_rejected() {
        let _ = MshrTable::new(0);
    }

    #[test]
    fn reissued_fill_keeps_index_consistent() {
        let mut m = MshrTable::new(2);
        m.register(Cycle::ZERO, 1);
        m.fill_issued(1, Cycle::new(100));
        // Fill time revised (e.g. a replayed issue path): the old index
        // entry must not linger and expire the slot early.
        m.fill_issued(1, Cycle::new(200));
        m.expire(Cycle::new(150));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(
            m.register(Cycle::new(150), 1),
            MshrOutcome::MergedWith(Cycle::new(200))
        );
        m.expire(Cycle::new(201));
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn unissued_fills_survive_expiry_and_full_table_stalls_past_now() {
        let mut m = MshrTable::new(2);
        m.register(Cycle::ZERO, 1);
        m.register(Cycle::ZERO, 2);
        m.fill_issued(2, Cycle::new(40));
        m.expire(Cycle::new(1_000));
        // Block 2 expired; block 1 (no fill yet) must remain.
        assert_eq!(m.in_flight(), 1);
        assert_eq!(
            m.register(Cycle::new(1_000), 1),
            MshrOutcome::MergedWith(Cycle::new(1_000))
        );
    }
}
