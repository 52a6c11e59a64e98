//! MOESI cache-coherence state machine with the border ownership
//! invariant.
//!
//! The paper's simulated system uses "a MOESI cache coherence protocol
//! with a null directory for coherence between the CPU and the GPU"
//! (§5.1). For Border Control to be sound, §3.4.3 adds one invariant:
//!
//! > an untrusted cache should never provide data for a block for which
//! > it does not have write permission
//!
//! which is enforced here by never granting an owning state (E, M, O) to a
//! fill whose page permission is read-only at the requesting cache. The
//! state machine is expressed as a pure transition function so it can be
//! exhaustively unit- and property-tested, then embedded in the timing
//! model.

use std::fmt;

/// The five MOESI states plus Invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceState {
    /// Not present.
    Invalid,
    /// Shared, clean, not owner.
    Shared,
    /// Exclusive, clean, owner.
    Exclusive,
    /// Owned: dirty, shared with others, this cache responds.
    Owned,
    /// Modified: dirty, sole copy.
    Modified,
}

impl CoherenceState {
    /// Whether the cache holding this state may satisfy a local read
    /// without a bus transaction.
    #[must_use]
    pub fn readable(self) -> bool {
        !matches!(self, CoherenceState::Invalid)
    }

    /// Whether the cache holding this state may satisfy a local write
    /// without a bus transaction.
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self, CoherenceState::Exclusive | CoherenceState::Modified)
    }

    /// Whether this state makes the cache the *owner* (the responder for
    /// remote requests, holding possibly-dirty data).
    #[must_use]
    pub fn owns(self) -> bool {
        matches!(
            self,
            CoherenceState::Exclusive | CoherenceState::Owned | CoherenceState::Modified
        )
    }

    /// Whether the block is dirty with respect to memory.
    #[must_use]
    pub fn dirty(self) -> bool {
        matches!(self, CoherenceState::Owned | CoherenceState::Modified)
    }
}

impl fmt::Display for CoherenceState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            CoherenceState::Invalid => 'I',
            CoherenceState::Shared => 'S',
            CoherenceState::Exclusive => 'E',
            CoherenceState::Owned => 'O',
            CoherenceState::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

/// Processor-side events presented to a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuEvent {
    /// Local load.
    Load,
    /// Local store.
    Store,
    /// Local eviction (capacity/conflict).
    Evict,
}

/// Bus/directory-side events observed by a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusEvent {
    /// Another cache requested a shared copy.
    RemoteGetS,
    /// Another cache requested an exclusive copy.
    RemoteGetM,
    /// The directory asked for invalidation (e.g. TLB-shootdown-driven
    /// recall).
    Invalidate,
}

/// Actions the cache controller must perform as a result of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceAction {
    /// No external traffic needed.
    None,
    /// Issue GetS on the bus (read miss).
    IssueGetS,
    /// Issue GetM on the bus (write miss / upgrade).
    IssueGetM,
    /// Write the (dirty) block back to memory.
    WritebackToMemory,
    /// Supply data to the remote requester (owner responsibility).
    SupplyData,
}

/// One cache line's coherence state together with the *fill permission*
/// that governs whether owning states may be granted.
///
/// # Example
///
/// ```
/// use bc_cache::coherence::{MoesiLine, CpuEvent, CoherenceState, CoherenceAction};
///
/// let mut line = MoesiLine::new();
/// // A read miss on a writable page fills Exclusive.
/// let act = line.cpu_event(CpuEvent::Load, true);
/// assert_eq!(act, CoherenceAction::IssueGetS);
/// assert_eq!(line.state(), CoherenceState::Exclusive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoesiLine {
    state: CoherenceState,
}

impl MoesiLine {
    /// A line starting Invalid.
    #[must_use]
    pub fn new() -> Self {
        MoesiLine {
            state: CoherenceState::Invalid,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> CoherenceState {
        self.state
    }

    /// Applies a processor-side event.
    ///
    /// `page_writable` is the permission of the page containing the block
    /// *at the requesting cache*: when `false`, the border ownership
    /// invariant (§3.4.3) forbids granting E (on read fills) because the
    /// directory must remain the owner of non-writable data. Stores to
    /// non-writable pages still transition (the cache model is mechanism,
    /// not policy — Border Control is the component that *blocks* them at
    /// the border; see `bc-core`).
    pub fn cpu_event(&mut self, ev: CpuEvent, page_writable: bool) -> CoherenceAction {
        use CoherenceAction as A;
        use CoherenceState as S;
        match (self.state, ev) {
            // Read miss: fill E when this cache may own the line, else S.
            (S::Invalid, CpuEvent::Load) => {
                self.state = if page_writable {
                    S::Exclusive
                } else {
                    S::Shared
                };
                A::IssueGetS
            }
            // Write miss.
            (S::Invalid, CpuEvent::Store) => {
                self.state = S::Modified;
                A::IssueGetM
            }
            (S::Invalid, CpuEvent::Evict) => A::None,

            (S::Shared, CpuEvent::Load) => A::None,
            // Upgrade.
            (S::Shared, CpuEvent::Store) => {
                self.state = S::Modified;
                A::IssueGetM
            }
            (S::Shared, CpuEvent::Evict) => {
                self.state = S::Invalid;
                A::None
            }

            (S::Exclusive, CpuEvent::Load) => A::None,
            // Silent E->M upgrade.
            (S::Exclusive, CpuEvent::Store) => {
                self.state = S::Modified;
                A::None
            }
            (S::Exclusive, CpuEvent::Evict) => {
                self.state = S::Invalid;
                A::None
            }

            (S::Owned, CpuEvent::Load) => A::None,
            (S::Owned, CpuEvent::Store) => {
                self.state = S::Modified;
                A::IssueGetM
            }
            (S::Owned, CpuEvent::Evict) => {
                self.state = S::Invalid;
                A::WritebackToMemory
            }

            (S::Modified, CpuEvent::Load | CpuEvent::Store) => A::None,
            (S::Modified, CpuEvent::Evict) => {
                self.state = S::Invalid;
                A::WritebackToMemory
            }
        }
    }

    /// Applies a bus-side event observed for this line.
    pub fn bus_event(&mut self, ev: BusEvent) -> CoherenceAction {
        use CoherenceAction as A;
        use CoherenceState as S;
        match (self.state, ev) {
            (S::Invalid, _) => A::None,

            (S::Shared, BusEvent::RemoteGetS) => A::None,
            (S::Shared, BusEvent::RemoteGetM | BusEvent::Invalidate) => {
                self.state = S::Invalid;
                A::None
            }

            (S::Exclusive, BusEvent::RemoteGetS) => {
                self.state = S::Shared;
                A::SupplyData
            }
            (S::Exclusive, BusEvent::RemoteGetM | BusEvent::Invalidate) => {
                self.state = S::Invalid;
                A::SupplyData
            }

            (S::Owned, BusEvent::RemoteGetS) => A::SupplyData,
            (S::Owned, BusEvent::RemoteGetM) => {
                self.state = S::Invalid;
                A::SupplyData
            }
            (S::Owned, BusEvent::Invalidate) => {
                self.state = S::Invalid;
                A::WritebackToMemory
            }

            (S::Modified, BusEvent::RemoteGetS) => {
                self.state = S::Owned;
                A::SupplyData
            }
            (S::Modified, BusEvent::RemoteGetM) => {
                self.state = S::Invalid;
                A::SupplyData
            }
            (S::Modified, BusEvent::Invalidate) => {
                self.state = S::Invalid;
                A::WritebackToMemory
            }
        }
    }
}

impl Default for MoesiLine {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot codec: one byte per line state.
mod snap_impls {
    use bc_sim::snapshot::{Codec, Snap, SnapError};

    use super::{CoherenceState, MoesiLine};

    bc_sim::snap_enum!(CoherenceState, "coherence state",
        0 => Invalid, 1 => Shared, 2 => Exclusive, 3 => Owned, 4 => Modified);

    impl Snap for MoesiLine {
        fn snap(&mut self, c: &mut Codec<'_>) -> Result<(), SnapError> {
            c.snap(&mut self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CoherenceAction as A;
    use CoherenceState as S;

    #[test]
    fn state_predicates() {
        assert!(!S::Invalid.readable());
        assert!(S::Shared.readable() && !S::Shared.writable() && !S::Shared.owns());
        assert!(S::Exclusive.writable() && S::Exclusive.owns() && !S::Exclusive.dirty());
        assert!(S::Owned.owns() && S::Owned.dirty() && !S::Owned.writable());
        assert!(S::Modified.writable() && S::Modified.dirty());
        assert_eq!(S::Modified.to_string(), "M");
    }

    #[test]
    fn read_fill_exclusive_when_writable() {
        let mut l = MoesiLine::new();
        assert_eq!(l.cpu_event(CpuEvent::Load, true), A::IssueGetS);
        assert_eq!(l.state(), S::Exclusive);
        // Silent upgrade on store.
        assert_eq!(l.cpu_event(CpuEvent::Store, true), A::None);
        assert_eq!(l.state(), S::Modified);
    }

    #[test]
    fn border_invariant_read_only_fills_shared() {
        // §3.4.3: a read-only fill must not grant ownership.
        let mut l = MoesiLine::new();
        assert_eq!(l.cpu_event(CpuEvent::Load, false), A::IssueGetS);
        assert_eq!(l.state(), S::Shared);
        assert!(!l.state().owns());
        // Evicting a Shared line is silent: nothing dirty can escape.
        assert_eq!(l.cpu_event(CpuEvent::Evict, false), A::None);
        assert_eq!(l.state(), S::Invalid);
    }

    #[test]
    fn write_miss_goes_modified() {
        let mut l = MoesiLine::new();
        assert_eq!(l.cpu_event(CpuEvent::Store, true), A::IssueGetM);
        assert_eq!(l.state(), S::Modified);
        assert_eq!(l.cpu_event(CpuEvent::Evict, true), A::WritebackToMemory);
        assert_eq!(l.state(), S::Invalid);
    }

    #[test]
    fn shared_upgrade() {
        let mut l = MoesiLine::new();
        l.cpu_event(CpuEvent::Load, false);
        assert_eq!(l.cpu_event(CpuEvent::Store, true), A::IssueGetM);
        assert_eq!(l.state(), S::Modified);
    }

    #[test]
    fn modified_downgrades_to_owned_on_remote_gets() {
        let mut l = MoesiLine::new();
        l.cpu_event(CpuEvent::Store, true);
        assert_eq!(l.bus_event(BusEvent::RemoteGetS), A::SupplyData);
        assert_eq!(l.state(), S::Owned);
        // Owner keeps supplying.
        assert_eq!(l.bus_event(BusEvent::RemoteGetS), A::SupplyData);
        assert_eq!(l.state(), S::Owned);
        // Owned eviction writes back.
        assert_eq!(l.cpu_event(CpuEvent::Evict, true), A::WritebackToMemory);
    }

    #[test]
    fn remote_getm_invalidates_everything() {
        for start in [CpuEvent::Load, CpuEvent::Store] {
            let mut l = MoesiLine::new();
            l.cpu_event(start, true);
            l.bus_event(BusEvent::RemoteGetM);
            assert_eq!(l.state(), S::Invalid);
        }
    }

    #[test]
    fn invalidate_forces_writeback_of_dirty() {
        let mut l = MoesiLine::new();
        l.cpu_event(CpuEvent::Store, true);
        assert_eq!(l.bus_event(BusEvent::Invalidate), A::WritebackToMemory);
        assert_eq!(l.state(), S::Invalid);
        // Clean states invalidate silently (S) or supply (E).
        let mut s = MoesiLine::new();
        s.cpu_event(CpuEvent::Load, false);
        assert_eq!(s.bus_event(BusEvent::Invalidate), A::None);
        assert_eq!(s.state(), S::Invalid);
    }

    #[test]
    fn invalid_ignores_bus_traffic() {
        let mut l = MoesiLine::new();
        assert_eq!(l.bus_event(BusEvent::RemoteGetS), A::None);
        assert_eq!(l.bus_event(BusEvent::RemoteGetM), A::None);
        assert_eq!(l.bus_event(BusEvent::Invalidate), A::None);
        assert_eq!(l.state(), S::Invalid);
    }

    /// Exhaustive sweep: from every state, every event produces a legal
    /// state, and dirty data is never silently dropped.
    #[test]
    fn exhaustive_transitions_never_lose_dirty_data() {
        let states = [S::Invalid, S::Shared, S::Exclusive, S::Owned, S::Modified];
        let mk = |s: S| MoesiLine { state: s };
        for &s in &states {
            for ev in [CpuEvent::Load, CpuEvent::Store, CpuEvent::Evict] {
                for writable in [false, true] {
                    let mut l = mk(s);
                    let a = l.cpu_event(ev, writable);
                    if s.dirty() && l.state() == S::Invalid {
                        assert_eq!(
                            a,
                            A::WritebackToMemory,
                            "dirty {s} lost on {ev:?} without writeback"
                        );
                    }
                }
            }
            for ev in [
                BusEvent::RemoteGetS,
                BusEvent::RemoteGetM,
                BusEvent::Invalidate,
            ] {
                let mut l = mk(s);
                let a = l.bus_event(ev);
                if s.dirty() && l.state() == S::Invalid {
                    assert!(
                        a == A::WritebackToMemory || a == A::SupplyData,
                        "dirty {s} lost on {ev:?}"
                    );
                }
            }
        }
    }
}
