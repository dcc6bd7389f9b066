//! Radix-tree nodes and slot encodings.
//!
//! The tree has [`LEVELS`] levels of 512 slots each (9 bits of virtual
//! page number per level, §3.2). Two node layouts exist:
//!
//! * **Interior nodes** hold one packed [`Atomic64`] per slot:
//!
//!   - `EMPTY` — all pointer/tag bits zero (the lock bit may be set),
//!   - `CHILD` — a weak reference (Refcache-managed) to a child node,
//!   - `FOLDED` — an owned pointer to a boxed value standing for the
//!     whole block of pages the slot covers (the paper's compression of
//!     repeated entries).
//!
//!   The low bits are shared with Refcache's weak-word protocol: bit 0 is
//!   the *slot lock* used for precise range locking (§3.4), bit 1 the
//!   `DYING` bit, bits 2–3 the tag.
//!
//! * **Leaf nodes** hold, per slot, a status word (lock + present bits)
//!   and an inline value — the paper's per-page mapping metadata.
//!
//! Node lifetime is governed by Refcache: a node's reference count is the
//! number of used slots plus the number of in-flight traversals pinning
//! it. The parent's slot *is* the node's weak reference, so Refcache's
//! freeing CAS atomically empties the parent slot.
//!
//! A collapsed leaf's slot array is not handed back to the allocator:
//! it waits on the reviewing core's spare list ([`TreeShared`]) for that
//! core's next leaf (DESIGN.md §7).

use std::cell::UnsafeCell;
use std::sync::Arc;

use rvm_refcache::weak::{DYING_BIT, LOCK_BIT, PTR_MASK, TAG_SHIFT};
use rvm_refcache::{Managed, RcPtr, ReleaseCtx};
use rvm_sync::atomic::Ordering;
use rvm_sync::{
    asan_poison, sharded_stats, sim, Atomic64, Backoff, CoreCells, CoreLock, CoreLocks, PerCore,
};

use crate::tree::HintTags;

/// Bits of VPN consumed per level.
pub const LEVEL_BITS: usize = 9;
/// Slots per node.
pub const FANOUT: usize = 1 << LEVEL_BITS;
/// Levels in the tree (level `LEVELS - 1` holds leaves).
pub const LEVELS: usize = 36 / LEVEL_BITS;

/// Interior slot tag: empty.
pub const TAG_EMPTY: u8 = 0;
/// Interior slot tag: child node pointer (weak reference).
pub const TAG_CHILD: u8 = 1;
/// Interior slot tag: folded value pointer.
pub const TAG_FOLDED: u8 = 2;

/// Leaf status: value present.
pub const LEAF_PRESENT: u64 = 1 << 2;

/// Extracts the tag of an interior slot word.
#[inline]
pub fn slot_tag(word: u64) -> u8 {
    rvm_refcache::weak::tag_bits(word)
}

/// Extracts the pointer of an interior slot word.
#[inline]
pub fn slot_ptr(word: u64) -> usize {
    rvm_refcache::weak::ptr_bits(word)
}

/// Returns true when the word's pointer/tag payload is empty (ignoring
/// lock/dying bits).
#[inline]
pub fn slot_is_empty(word: u64) -> bool {
    word & (PTR_MASK | (0b11 << TAG_SHIFT)) == 0
}

/// Packs a pointer and tag (lock/dying clear).
#[inline]
pub fn pack_slot(ptr: usize, tag: u8) -> u64 {
    rvm_refcache::weak::pack(ptr, tag)
}

/// Pages covered by one slot at `level` (level 0 = root).
#[inline]
pub fn span_at_level(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * (LEVELS - 1 - level))
}

/// Slot index of `vpn` at `level`.
#[inline]
pub fn index_at_level(vpn: u64, level: usize) -> usize {
    let shift = LEVEL_BITS * (LEVELS - 1 - level);
    ((vpn >> shift) as usize) & (FANOUT - 1)
}

sharded_stats! {
    /// A reading of a tree's [`TreeStats`].
    pub struct TreeCounts {
        /// Live interior nodes (root included). Node construction and
        /// drop have no core in scope; nor do the next two.
        interior_nodes: Shared,
        /// Live leaf nodes.
        leaf_nodes: Shared,
        /// Live folded values.
        folded_values: Shared,
        /// Expansions performed (folded or empty slot → child node).
        expansions: Exclusive<CoreLock>,
        /// Nodes freed by Refcache collapse.
        nodes_collapsed: Exclusive<CoreLock>,
        /// Single-page operations served by the per-core leaf hint cache
        /// (the fault fast path: no descent, no per-level pins). Bumped
        /// under the core's hint cell.
        hint_hits: Exclusive<HintTags>,
        /// Single-page operations that fell back to a full descent because
        /// the hint was absent, stale, or covered a different block.
        hint_misses: Exclusive<HintTags>,
        /// Range guards whose unit/pin storage, and `clear`/`replace` calls
        /// whose list of displaced values, spilled from inline capacity to
        /// the heap (only multi-page operations should).
        guard_spills: Exclusive<CoreLock>,
        /// Spin iterations burned waiting for contended slot locks
        /// (interior or leaf): a contended acquirer holds nothing yet.
        /// Zero under the simulator — virtual cores run ops to completion,
        /// so a simulated acquirer never observes a held slot;
        /// real-thread contention shows up here, shaped by the bounded
        /// exponential backoff in [`lock_leaf_slot`].
        slot_spins: Shared,
    }
    /// Live-object statistics shared by a tree and its nodes.
    ///
    /// Every counter is sharded per core: hot-path bumps (hint hits on
    /// every fault) write only the operating core's padded cell, so
    /// disjoint-range operations never contend on statistics lines.
    /// Readers sum the cells — a monotonic total, not a snapshot
    /// (DESIGN.md §6); live counts (nodes, values) are exact whenever
    /// writers are quiescent, e.g. under a test's exclusive access.
    pub struct TreeStats;
}

/// One leaf slot: a status word (lock, present) plus inline storage.
pub struct LeafSlot<V> {
    /// `LOCK_BIT` | `LEAF_PRESENT`.
    pub status: Atomic64,
    /// Value storage; valid iff `LEAF_PRESENT` is set. Accessed only while
    /// the slot lock is held (or by the node's drop).
    pub value: UnsafeCell<Option<V>>,
}

/// A leaf's slot array.
type LeafSlots<V> = Box<[LeafSlot<V>]>;

/// Slot storage of a node.
pub enum Slots<V> {
    /// Interior: packed child / folded words.
    Interior(Box<[Atomic64]>),
    /// Leaf: per-page value slots.
    Leaf(LeafSlots<V>),
}

/// Emptied leaf slot arrays each core keeps for its own next leaf.
///
/// Measured on the repo benchmark's `superpage` workload at 16 virtual
/// cores, whose demotions create and collapse leaves (`radix-leaf` +
/// `heap` remote lines per op, 230 with none kept): a bound of 1 leaves
/// 60, 2 leaves 8.8, 4 leaves 4.5 and 8 leaves 5.5 — Refcache's
/// two-epoch delay keeps two or three of a core's leaves in flight, so
/// four covers them and more only holds memory (40 KiB a leaf for
/// RadixVM's mapping metadata).
pub const SPARE_LEAVES: usize = 4;

/// What a tree shares with every one of its nodes, behind the one `Arc`
/// each node holds: the statistics, and per core the spare leaf arrays.
///
/// A leaf collapses on the core that reviews it, under that core's
/// `CoreLock` ([`ReleaseCtx::with_held`]), which keeps the emptied array
/// in its cell here instead of freeing it, and
/// [`Node::new_leaf`] on that core takes it back before it allocates.
/// Freed to the shared allocator instead, the array's lines go to
/// whichever core allocates next, and every line of it is then a remote
/// transfer for that core. Spare arrays are free memory, not index:
/// [`TreeStats`] does not count them.
pub struct TreeShared<V> {
    /// Live-object statistics.
    pub stats: TreeStats,
    /// Per core, at most [`SPARE_LEAVES`] arrays whose values are all
    /// `None`, in the core's cell of the tree's `CoreLock`s.
    spare: PerCore<Vec<LeafSlots<V>>>,
}

impl<V> TreeShared<V> {
    /// Shared state for a tree serving the cores of `locks`.
    pub fn new(locks: Arc<CoreLocks>) -> Self {
        TreeShared {
            stats: TreeStats::new(locks.ncores()),
            spare: PerCore::new(locks, |_| Vec::with_capacity(SPARE_LEAVES)),
        }
    }

    /// Keeps the emptied leaf array `slots` on the held core's spare
    /// list, leaving an empty array in its place, unless the list is full.
    fn keep_spare(&self, held: &mut CoreCells<'_>, slots: &mut LeafSlots<V>) {
        let spare = self.spare.get(held);
        if spare.len() == SPARE_LEAVES {
            return;
        }
        debug_assert!(
            // SAFETY: the node is being freed; nothing else reaches it.
            slots.iter().all(|s| unsafe { (*s.value.get()).is_none() }),
            "a spare leaf array holds a value"
        );
        sim::unlabel_range(slots.as_ptr() as usize, std::mem::size_of_val(&**slots));
        poison(slots, true);
        spare.push(std::mem::take(slots));
    }

    /// The array the held core emptied last, if it kept one.
    fn take_spare(&self, held: &mut CoreCells<'_>) -> Option<LeafSlots<V>> {
        let slots = self.spare.get(held).pop()?;
        poison(&slots, false);
        Some(slots)
    }

    /// Addresses of the arrays on `core`'s spare list, oldest first.
    #[cfg(test)]
    pub(crate) fn spare_arrays(&self, core: usize) -> Vec<usize> {
        let mut held = self.spare.locks().lock(core);
        let mut cells = held.cells();
        let spare = self.spare.get(&mut cells);
        spare.iter().map(|s| s.as_ptr() as usize).collect()
    }
}

impl<V> Drop for TreeShared<V> {
    fn drop(&mut self) {
        for spare in self.spare.iter_mut() {
            spare.iter().for_each(|slots| poison(slots, false));
        }
    }
}

/// [`asan_poison`] over a spare leaf array: poisoned while it waits, so a
/// stale node pointer that reads it is a reported use-after-free.
fn poison<V>(slots: &[LeafSlot<V>], poisoned: bool) {
    asan_poison(
        slots.as_ptr() as usize,
        std::mem::size_of_val(slots),
        poisoned,
    );
}

/// A radix-tree node (interior or leaf), Refcache-managed.
pub struct Node<V: Send + Sync + 'static> {
    /// Level in the tree (0 = root, `LEVELS - 1` = leaf).
    pub level: u8,
    /// First VPN covered by this node.
    pub base_vpn: u64,
    /// Parent node and our slot index within it (`None` for the root).
    pub parent: Option<(RcPtr<Node<V>>, u16)>,
    /// The tree's statistics and spare leaf arrays.
    pub shared: Arc<TreeShared<V>>,
    /// The slots.
    pub slots: Slots<V>,
}

// SAFETY: leaf values are only accessed under the slot lock (or by the
// node's drop); everything else is atomics.
unsafe impl<V: Send + Sync + 'static> Send for Node<V> {}
// SAFETY: as above.
unsafe impl<V: Send + Sync + 'static> Sync for Node<V> {}

impl<V: Send + Sync + 'static> Node<V> {
    /// Creates an interior node with all slots set to `init_word`.
    pub fn new_interior(
        level: u8,
        base_vpn: u64,
        parent: Option<(RcPtr<Node<V>>, u16)>,
        shared: Arc<TreeShared<V>>,
        init_word: impl Fn(usize) -> u64,
    ) -> Node<V> {
        shared.stats.add_here(TreeCounts::interior_nodes, 1);
        Node {
            level,
            base_vpn,
            parent,
            shared,
            slots: Slots::Interior((0..FANOUT).map(|i| Atomic64::new(init_word(i))).collect()),
        }
    }

    /// Creates a leaf node on the held core whose slots are produced by
    /// `init` (status word, value), in the array that core emptied last
    /// if it kept one ([`TreeShared`]), else in a fresh one. Every slot
    /// of a reused array is built exactly as a fresh array's is.
    pub fn new_leaf(
        held: &mut CoreCells<'_>,
        base_vpn: u64,
        parent: Option<(RcPtr<Node<V>>, u16)>,
        shared: Arc<TreeShared<V>>,
        mut init: impl FnMut(usize) -> (u64, Option<V>),
    ) -> Node<V> {
        shared.stats.add_here(TreeCounts::leaf_nodes, 1);
        let mut slot = |i| {
            let (status, value) = init(i);
            LeafSlot {
                status: Atomic64::new(status),
                value: UnsafeCell::new(value),
            }
        };
        let slots = match shared.take_spare(held) {
            Some(mut slots) => {
                for (i, s) in slots.iter_mut().enumerate() {
                    *s = slot(i);
                }
                slots
            }
            None => (0..FANOUT).map(slot).collect(),
        };
        Node {
            level: (LEVELS - 1) as u8,
            base_vpn,
            parent,
            shared,
            slots: Slots::Leaf(slots),
        }
    }

    /// Returns true if this is a leaf node.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level as usize == LEVELS - 1
    }

    /// Interior slot array.
    ///
    /// # Panics
    ///
    /// Panics on leaf nodes.
    #[inline]
    pub fn interior(&self) -> &[Atomic64] {
        match &self.slots {
            Slots::Interior(s) => s,
            Slots::Leaf(_) => panic!("interior() on leaf node"),
        }
    }

    /// Leaf slot array.
    ///
    /// # Panics
    ///
    /// Panics on interior nodes.
    #[inline]
    pub fn leaf(&self) -> &[LeafSlot<V>] {
        match &self.slots {
            Slots::Leaf(s) => s,
            Slots::Interior(_) => panic!("leaf() on interior node"),
        }
    }

    /// Pages covered by one slot of this node.
    #[inline]
    pub fn slot_span(&self) -> u64 {
        span_at_level(self.level as usize)
    }

    /// Address and size of this node's slot-array storage.
    #[inline]
    fn slot_bytes(&self) -> (usize, usize) {
        match &self.slots {
            Slots::Interior(s) => (s.as_ptr() as usize, std::mem::size_of_val(&**s)),
            Slots::Leaf(s) => (s.as_ptr() as usize, std::mem::size_of_val(&**s)),
        }
    }

    /// Registers this node's slot array with the simulator: interior
    /// arrays are labeled `radix-index` (and, when `replicate_index` is
    /// set, marked as per-node read-only replicas), leaf arrays
    /// `radix-leaf`, so cross-node traffic attribution can tell index
    /// lines from mapping metadata. No-op without an active simulator;
    /// [`Node`]'s `Drop` deregisters.
    pub fn register_sim_lines(&self, replicate_index: bool) {
        let (start, bytes) = self.slot_bytes();
        match &self.slots {
            Slots::Interior(_) => {
                sim::label_range("radix-index", start, bytes);
                if replicate_index {
                    sim::place_replicated(start, bytes);
                }
            }
            Slots::Leaf(_) => sim::label_range("radix-leaf", start, bytes),
        }
    }
}

impl<V: Send + Sync + 'static> Managed for Node<V> {
    fn on_release(&mut self, ctx: &ReleaseCtx<'_>) {
        // Freed by Refcache: all slots are empty and no traversals pin us.
        // The freeing CAS already emptied our parent's slot; surrender the
        // used-slot reference it represented.
        ctx.with_held(|held| {
            self.shared
                .stats
                .add_core(held, TreeCounts::nodes_collapsed, 1);
            if let Some((parent, _idx)) = self.parent {
                ctx.cache.adjust_held(held, parent, -1);
            }
            if let Slots::Leaf(slots) = &mut self.slots {
                self.shared.keep_spare(held, slots);
            }
        });
    }
}

impl<V: Send + Sync + 'static> Drop for Node<V> {
    fn drop(&mut self) {
        // Retire the slot array's simulator registrations before the
        // storage can be reused by an unrelated allocation (a leaf whose
        // array went to a spare list has none left to retire).
        let (start, bytes) = self.slot_bytes();
        if bytes > 0 {
            sim::unlabel_range(start, bytes);
            sim::unplace_range(start, bytes);
        }
        match &mut self.slots {
            Slots::Interior(slots) => {
                self.shared.stats.sub_here(TreeCounts::interior_nodes, 1);
                for s in slots.iter() {
                    let w = s.load(Ordering::Acquire);
                    if slot_tag(w) == TAG_FOLDED {
                        self.shared.stats.sub_here(TreeCounts::folded_values, 1);
                        // SAFETY: FOLDED slots own their boxed value; we
                        // have exclusive access in Drop.
                        unsafe { drop(Box::from_raw(slot_ptr(w) as *mut V)) };
                    }
                    // A child holds a used-slot reference on its node,
                    // so every CHILD slot collapsed before the node did.
                    debug_assert_ne!(
                        slot_tag(w),
                        TAG_CHILD,
                        "node dropped while a child is still linked"
                    );
                }
            }
            // Leaf values drop with the slot array.
            Slots::Leaf(_) => self.shared.stats.sub_here(TreeCounts::leaf_nodes, 1),
        }
    }
}

/// Acquires an interior slot's lock bit by spinning; returns the observed
/// word (lock bit set in the slot, clear in the returned value).
///
/// Contended retries back off exponentially ([`Backoff`]) so a waiter
/// stops hammering the holder's cache line, and the spins burned are
/// charged to [`TreeStats::slot_spins`] in the acquiring `core`'s cell.
#[inline]
pub fn lock_interior_slot(core: usize, slot: &Atomic64, stats: &TreeStats) -> u64 {
    let mut backoff = Backoff::new();
    let mut spins = 0u64;
    loop {
        let v = slot.load(Ordering::Acquire);
        if v & LOCK_BIT == 0
            && slot
                .compare_exchange(v, v | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            if spins > 0 {
                stats.add(core, TreeCounts::slot_spins, spins);
            }
            return v;
        }
        spins += u64::from(backoff.pause());
    }
}

/// Releases an interior slot's lock bit.
#[inline]
pub fn unlock_interior_slot(slot: &Atomic64) {
    slot.fetch_and(!LOCK_BIT, Ordering::AcqRel);
}

/// Acquires a leaf slot's lock bit; returns the observed status (without
/// the lock bit).
///
/// One read-modify-write, `fetch_or(LOCK_BIT)`, and no load before it:
/// a slot another core wrote last costs one exclusive transfer, not a
/// shared fetch and then an upgrade. Only after a failed attempt does
/// the caller poll with loads (which keep the line shared among the
/// waiters), with the backoff and spin accounting of
/// [`lock_interior_slot`]: this is the fault path's lock, so a stampede
/// of faults on one page must degrade into polite polling rather than a
/// coherence storm.
#[inline]
pub fn lock_leaf_slot(core: usize, status: &Atomic64, stats: &TreeStats) -> u64 {
    let mut backoff = Backoff::new();
    let mut spins = 0u64;
    loop {
        let v = status.fetch_or(LOCK_BIT, Ordering::Acquire);
        if v & LOCK_BIT == 0 {
            if spins > 0 {
                stats.add(core, TreeCounts::slot_spins, spins);
            }
            return v;
        }
        // Relaxed: the poll only says when to try again; the `fetch_or`
        // is what acquires.
        loop {
            spins += u64::from(backoff.pause());
            if status.load(Ordering::Relaxed) & LOCK_BIT == 0 {
                break;
            }
        }
    }
}

/// Releases a leaf slot's lock bit.
///
/// A leaf status word changes only at its lock holder's hand while the
/// lock bit is set: an acquirer's `fetch_or` that finds the bit set
/// writes back exactly the value it read, and nothing else writes the
/// word (Refcache's `DYING` protocol works on *interior* words, which is
/// why [`unlock_interior_slot`] must stay an RMW). So the holder releases
/// with a plain load and store ([`Atomic64::and_exclusive`]) and flips
/// `LEAF_PRESENT` with plain stores (see the range guard): a failed
/// acquire landing between the holder's load and store rewrites the
/// value already there, and the store loses nothing. They are `Release`
/// stores, pairing with the `Acquire` `fetch_or` of the next
/// [`lock_leaf_slot`] — the failed attempts between them are
/// read-modify-writes, which continue the release sequence — and with
/// `lookup_present`'s lock-free `Acquire` load of the present bit, so
/// the slot's value written under the lock is visible to whoever sees
/// the word change.
#[inline]
pub fn unlock_leaf_slot(status: &Atomic64) {
    status.and_exclusive(!LOCK_BIT, Ordering::Release);
}

/// Suppress the unused warning for `DYING_BIT` re-export convenience.
const _: u64 = DYING_BIT;

#[cfg(test)]
mod tests {
    use super::*;

    /// The word each counter had as a hand-numbered `F_*` constant up to
    /// PR 20, copied here once. Which word shares a line with which is
    /// simulator-visible: a field may
    /// be added at the end, none may move.
    #[test]
    fn treecounts_cells_keep_their_words() {
        use TreeCounts as S;
        let pinned = [
            ("interior_nodes", S::interior_nodes.index(), 0),
            ("leaf_nodes", S::leaf_nodes.index(), 1),
            ("folded_values", S::folded_values.index(), 2),
            ("expansions", S::expansions.index(), 3),
            ("nodes_collapsed", S::nodes_collapsed.index(), 4),
            ("hint_hits", S::hint_hits.index(), 5),
            ("hint_misses", S::hint_misses.index(), 6),
            ("guard_spills", S::guard_spills.index(), 7),
            ("slot_spins", S::slot_spins.index(), 8),
        ];
        for (name, word, was) in pinned {
            assert_eq!(word, was, "{name}");
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(LEVELS, 4);
        assert_eq!(span_at_level(0), 1 << 27);
        assert_eq!(span_at_level(3), 1);
        assert_eq!(index_at_level(0x123456789, 3), 0x189);
        // VPN bits [35:27] at level 0.
        assert_eq!(index_at_level(1 << 27, 0), 1);
    }

    #[test]
    fn slot_packing() {
        let w = pack_slot(0x7f00_1234_5670, TAG_FOLDED);
        assert_eq!(slot_tag(w), TAG_FOLDED);
        assert_eq!(slot_ptr(w), 0x7f00_1234_5670);
        assert!(!slot_is_empty(w));
        assert!(slot_is_empty(LOCK_BIT));
        assert!(slot_is_empty(0));
    }

    #[test]
    fn interior_slot_locking() {
        let stats = TreeStats::new(1);
        let slot = Atomic64::new(0);
        let v = lock_interior_slot(0, &slot, &stats);
        assert_eq!(v, 0);
        assert_eq!(slot.load(Ordering::Acquire), LOCK_BIT);
        unlock_interior_slot(&slot);
        assert_eq!(slot.load(Ordering::Acquire), 0);
        assert_eq!(stats.slot_spins(), 0);
    }

    #[test]
    fn leaf_slot_locking_preserves_present() {
        let stats = TreeStats::new(1);
        let status = Atomic64::new(LEAF_PRESENT);
        let v = lock_leaf_slot(0, &status, &stats);
        assert_eq!(v, LEAF_PRESENT);
        unlock_leaf_slot(&status);
        assert_eq!(status.load(Ordering::Acquire), LEAF_PRESENT);
    }

    #[test]
    fn contended_slot_lock_accrues_spins() {
        // The waiter is core 1: its spins must land in its own cell, not
        // in core 0's (the line core 0 bumps on every fault).
        let stats = Arc::new(TreeStats::new(2));
        let status = Arc::new(Atomic64::new(0));
        lock_leaf_slot(0, &status, &stats);
        let waiter = {
            let stats = Arc::clone(&stats);
            let status = Arc::clone(&status);
            std::thread::spawn(move || {
                lock_leaf_slot(1, &status, &stats);
                unlock_leaf_slot(&status);
            })
        };
        // Hold long enough that the waiter provably spins at least once.
        std::thread::sleep(std::time::Duration::from_millis(20));
        unlock_leaf_slot(&status);
        waiter.join().unwrap();
        assert!(stats.slot_spins() > 0, "waiter spins were not recorded");
        assert_eq!(
            stats.stripe(0, TreeCounts::slot_spins.index()),
            0,
            "a contended acquire on core 1 wrote core 0's stats line"
        );
    }
}
