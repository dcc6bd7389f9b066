//! The radix tree: precise range locking, folding, and expansion.
//!
//! Concurrency plan (paper §3.4):
//!
//! * Every operation locks the radix-tree slots covering its range
//!   **left-to-right** — leaf slots where leaves exist, otherwise the
//!   covering interior slot. Two operations on overlapping ranges
//!   serialize on the leftmost overlapping slot; operations on disjoint
//!   ranges never touch the same slot.
//! * Expansion (allocating a child under a locked interior slot) creates
//!   the child with the lock bit propagated to **every** entry, then
//!   publishes it with a store that simultaneously unlocks the parent
//!   slot. Releasing the range lock clears the lock bits in newly
//!   allocated children.
//! * Traversal takes no locks: it pins nodes by incrementing their
//!   Refcache count through the parent slot's weak reference (`tryget`),
//!   which also revives nodes that emptied but have not yet been
//!   collapsed.
//!
//! Deadlock freedom: lock *waiting* only ever happens at slot
//! acquisitions performed in ascending VPN order; whole-node locks are
//! born held (created atomically with the node, before it is published),
//! so they add no waiting edges.
//!
//! # Reading and editing locked slots
//!
//! A slot's value is read or changed in one place: `Held`, a leaf page
//! or interior slot whose maker holds its lock for as long as the entry
//! lives. Every [`RangeGuard`] method that reads or edits values
//! iterates the guard's held slots, and the one read walk behind
//! [`RadixTree::get`] and [`RadixTree::collect_range`] makes an entry
//! inside each brief slot lock it takes. That walk pins one node per
//! level and, when a refold severs the leaf it is reading, goes on from
//! the first page it has not reported, in the parent slot's fold.
//! [`RadixTree::lookup_present`], Figure 7's lock-free lookup, keeps a
//! walk of its own that walks hand-over-hand with at most one pin.
//!
//! # The fault fast path (DESIGN.md §5)
//!
//! Single-page operations — the page-fault pattern the paper's Figure 5
//! measures — run allocation-free and descent-cheap:
//!
//! * **Inline guard storage.** [`RangeGuard`] keeps its locked units and
//!   traversal pins in [`InlineVec`]s sized so single-page and
//!   single-block locks never touch the heap; only large multi-block
//!   operations spill (counted in [`TreeStats::guard_spills`]).
//! * **Pin elision.** The root is permanently pinned and never
//!   `tryget`-ed. During descent, a traversal pin on an interior node is
//!   surrendered as soon as the pinned child guarantees the chain stays
//!   live (a linked child holds a used-slot reference on its parent), so
//!   a single-page guard that descended holds exactly one pin: the leaf.
//! * **Per-core leaf hints.** Each core caches the last few leaves it
//!   reached (a small associative set searched by block base, one pinned
//!   reference per way). A repeat fault in any of those 512-page blocks
//!   skips the descent entirely, and the guard it gets *rides the hint's
//!   pin*: it keeps the core's `CoreLock` token until it drops, and
//!   hints can only be replaced or surrendered through that token, so no
//!   Refcache traffic pins the leaf a second time. Correctness never
//!   depends on a hint: a stale or missing one falls back to the full
//!   descent, and
//!   the tree's own ticks ([`RadixTree::maintain`], `expedite`,
//!   `quiesce`) surrender a core's hint pins before the Refcache tick, so
//!   collapse is delayed by at most one tick. See DESIGN.md §5 for the
//!   invariants, and `rvm_sync::corelock` for the lock order.

use std::sync::Arc;

use rvm_refcache::weak::LOCK_BIT;
use rvm_refcache::{RcPtr, Refcache};
use rvm_sync::atomic::Ordering;
use rvm_sync::{
    Atomic64, CoreCells, CoreHeld, InlineVec, PerCore, RangeLock, RangeLockKind, RangeToken,
};

use crate::node::{
    index_at_level, lock_interior_slot, lock_leaf_slot, pack_slot, slot_ptr, slot_tag,
    unlock_interior_slot, unlock_leaf_slot, LeafSlot, Node, Slots, TreeCounts, TreeShared,
    TreeStats, FANOUT, LEAF_PRESENT, LEVELS, TAG_CHILD, TAG_EMPTY, TAG_FOLDED,
};

/// Virtual page number (36 bits used).
pub type Vpn = u64;

/// Exclusive upper bound of VPNs the tree covers.
pub const VPN_LIMIT: Vpn = 1 << 36;

/// Inline capacity of a guard's unit list: a single-page fault through a
/// fully folded path creates at most `LEVELS - 1` whole-node units plus
/// one leaf range.
const UNITS_INLINE: usize = LEVELS + 2;

/// Inline capacity of a guard's pin list: one pin per expanded level plus
/// the leaf.
const PINS_INLINE: usize = LEVELS;

/// Inline capacity of the list [`RangeGuard::clear`] and
/// [`RangeGuard::replace`] return: a single-page `munmap` or in-place
/// re-`mmap` displaces one value and must not touch the heap.
const REMOVED_INLINE: usize = 4;

/// Values storable in the tree.
///
/// A value set over a range is *identical for every page* (the paper
/// designs mapping metadata this way so large mappings fold), hence
/// `Clone` per page on expansion.
pub trait RadixValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> RadixValue for T {}

/// Tree configuration.
#[derive(Clone, Debug)]
pub struct RadixConfig {
    /// Collapse empty nodes through Refcache (the full design, §3.2).
    /// The paper's prototype shipped without collapsing; disable to
    /// reproduce that configuration.
    pub collapse: bool,
    /// Enable the per-core leaf hint cache on the single-page fast path.
    /// Disable to measure the plain descent (ablation).
    pub leaf_hints: bool,
    /// Substrate realizing multi-page `lock_range` acquisitions
    /// ([`RangeLockKind::List`] puts the scalable list-based range lock
    /// in front of the slot locks; [`RangeLockKind::SlotSpin`] is the
    /// original slot-CAS-only baseline). Single-page locks — the fault
    /// path — always go straight to the leaf slot lock.
    pub range_lock: RangeLockKind,
    /// Mark interior slot arrays as per-node read-only replicas in the
    /// simulator (the replicate-read-only placement policy for hot index
    /// nodes): reads hit the local replica, writes pay a broadcast
    /// invalidation to every other node's copy. Traffic attribution
    /// (`radix-index`/`radix-leaf` labels) is recorded regardless.
    pub replicate_index: bool,
}

impl Default for RadixConfig {
    fn default() -> Self {
        RadixConfig {
            collapse: true,
            leaf_hints: true,
            range_lock: RangeLockKind::List,
            replicate_index: false,
        }
    }
}

/// How a range lock treats slots that are not expanded to leaves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Expand empty and folded slots so every page in range has a leaf
    /// slot unless the range covers the whole block (mmap).
    ExpandAll,
    /// Expand folded slots only; lock partially covered empty interior
    /// slots as blocks (munmap, mprotect, the 4 KiB pagefault).
    ExpandFolded,
    /// Like [`LockMode::ExpandFolded`], but a folded slot at one of the
    /// lowest interior levels (spanning [`FANOUT`] pages, or
    /// [`FANOUT`]² one level up) is locked as a block instead of
    /// expanded — the superpage fault path: the fold stays
    /// intact so one block value can govern one superpage PTE.
    ExpandToBlock,
}

/// Interior levels, counted up from the leaves, whose folds
/// [`LockMode::ExpandToBlock`] keeps whole: one per hardware superpage
/// span (`rvm_hw::SPAN_PAGES`; the fault path demotes a fold whose span
/// the page table cannot map, so a drift only costs superpages).
const SUPERPAGE_RUNGS: usize = 2;

/// A value displaced by [`RangeGuard::clear`] / [`RangeGuard::replace`],
/// with the pages it governed: one for a page's own value, the whole
/// span for a folded block's.
#[derive(Debug, PartialEq)]
pub struct Removed<V> {
    /// First VPN the value covered.
    pub start: Vpn,
    /// Pages covered.
    pub pages: u64,
    /// The value.
    pub value: V,
}

/// The values displaced by [`RangeGuard::clear`] / [`RangeGuard::replace`]:
/// inline for small operations, spilling to the heap (charged and counted
/// in [`TreeStats::guard_spills`]) for large ones.
pub type RemovedList<V> = InlineVec<Removed<V>, REMOVED_INLINE>;

/// One locked region recorded by a range lock.
enum Unit<V: Send + Sync + 'static> {
    /// Leaf slots `[first, end)` of `node`, individually locked (`born`
    /// means the locks were born held via whole-node creation).
    LeafRange {
        node: RcPtr<Node<V>>,
        first: usize,
        end: usize,
        born: bool,
    },
    /// One locked interior slot (EMPTY or FOLDED block).
    Block {
        node: RcPtr<Node<V>>,
        idx: usize,
        born: bool,
    },
    /// A node created by this operation with every slot lock born held;
    /// dropping the guard clears all its lock bits.
    WholeNode { node: RcPtr<Node<V>> },
}

impl<V: Send + Sync + 'static> Unit<V> {
    /// The node this unit locked slots of, and which slots.
    fn slots(&self) -> (RcPtr<Node<V>>, std::ops::Range<usize>) {
        match *self {
            Unit::LeafRange {
                node, first, end, ..
            } => (node, first..end),
            Unit::Block { node, idx, .. } => (node, idx..idx + 1),
            Unit::WholeNode { node } => (node, 0..FANOUT),
        }
    }
}

/// Dereferences a tree node pointer.
///
/// SAFETY-CONTRACT: every `RcPtr<Node<V>>` the tree manipulates is kept
/// alive by (a) the permanent root reference, (b) a traversal pin obtained
/// through `tryget` and released at guard drop, (c) a used-slot
/// reference in a parent that is itself pinned, (d) a pinned *descendant*
/// (a linked child holds a used-slot reference on its parent, surrendered
/// only in `on_release`), or (e) one of a core's leaf hints' pinned
/// reference, for as long as that core's `CoreLock` stays held (only
/// its holder replaces or surrenders a hint).
/// See module docs and DESIGN.md §5.
fn nref<'a, V: Send + Sync + 'static>(p: RcPtr<Node<V>>) -> &'a Node<V> {
    // SAFETY: see the contract above; all call sites hold one of the
    // listed references across the borrow.
    unsafe { p.as_ref() }
}

/// One slot its holder has locked: a leaf page, or an interior slot
/// standing for a block (empty or folded). [`RangeGuard::held`] yields
/// one for each slot a guard holds; [`RadixTree::walk`] makes one inside
/// each of its brief slot locks.
///
/// This type is where the file dereferences a slot's value — a page's
/// value cell, or a fold's box — and the argument is the same for both:
/// whoever makes a `Held` holds the slot's lock for all of `'g`. A
/// guard's entries borrow the guard mutably, and the guard unlocks only
/// when it drops; a walk's entry does not outlive its lock. A value
/// changes only under its slot's lock, so the holder is its only reader
/// and writer. Each method loads the slot's word once and never waits.
enum Held<'g, V: Send + Sync + 'static> {
    /// A leaf slot: page `vpn`, with its status word and its value cell
    /// (`Some` iff `LEAF_PRESENT` is set).
    Page {
        vpn: Vpn,
        status: &'g Atomic64,
        value: &'g mut Option<V>,
    },
    /// An interior slot covering `[start, start + pages)`.
    Block {
        start: Vpn,
        pages: u64,
        slot: &'g Atomic64,
    },
}

impl<'g, V: RadixValue> Held<'g, V> {
    /// Slot `idx` of `node`, which the caller holds locked for `'g`.
    fn at(node: RcPtr<Node<V>>, idx: usize) -> Self {
        let n: &'g Node<V> = nref(node);
        match &n.slots {
            Slots::Leaf(slots) => Held::Page {
                vpn: n.base_vpn + idx as u64,
                status: &slots[idx].status,
                // SAFETY: the caller holds the slot's lock for `'g`
                // (type docs).
                value: unsafe { &mut *slots[idx].value.get() },
            },
            Slots::Interior(slots) => Held::Block {
                start: n.base_vpn + idx as u64 * n.slot_span(),
                pages: n.slot_span(),
                slot: &slots[idx],
            },
        }
    }

    /// The pages the slot governs: its first VPN and their count.
    fn span(&self) -> (Vpn, u64) {
        match *self {
            Held::Page { vpn, .. } => (vpn, 1),
            Held::Block { start, pages, .. } => (start, pages),
        }
    }

    /// The box of the fold whose locked slot word is `word`.
    fn fold(word: u64) -> &'g mut V {
        debug_assert!(word & LOCK_BIT != 0, "interior slot not locked");
        // SAFETY: a FOLDED word owns its box, and its slot is locked by
        // this entry's holder for `'g` (type docs).
        unsafe { &mut *(slot_ptr(word) as *mut V) }
    }

    /// The slot's value, if it holds one. Its presence must not change
    /// through this reference ([`Held::take`] and [`Held::put`] do that).
    fn value_mut(self) -> Option<&'g mut V> {
        match self {
            Held::Page { status, value, .. } => {
                let st = status.load(Ordering::Acquire);
                debug_assert!(st & LOCK_BIT != 0, "leaf slot not locked");
                value.as_mut().filter(|_| st & LEAF_PRESENT != 0)
            }
            Held::Block { slot, .. } => {
                let w = slot.load(Ordering::Acquire);
                (slot_tag(w) == TAG_FOLDED).then(|| Self::fold(w))
            }
        }
    }

    /// Empties the slot and returns its value, if it held one.
    fn take(self) -> Option<V> {
        match self {
            Held::Page { status, value, .. } => {
                let st = status.load(Ordering::Acquire);
                debug_assert!(st & LOCK_BIT != 0, "leaf slot not locked");
                if st & LEAF_PRESENT == 0 {
                    return None;
                }
                let taken = value.take();
                status.store(LOCK_BIT, Ordering::Release);
                taken
            }
            Held::Block { slot, .. } => {
                let w = slot.load(Ordering::Acquire);
                debug_assert!(w & LOCK_BIT != 0, "interior slot not locked");
                if slot_tag(w) != TAG_FOLDED {
                    return None;
                }
                // SAFETY: as in `fold`; the store below hands the box
                // from the slot to us.
                let boxed = unsafe { Box::from_raw(slot_ptr(w) as *mut V) };
                slot.store(LOCK_BIT, Ordering::Release);
                Some(*boxed)
            }
        }
    }

    /// Sets the slot's value to a clone of `value` and returns the one it
    /// displaced; `None` when the slot was empty and now holds one more
    /// value. A present value is swapped in place: a page's status and a
    /// fold's box stay as they are.
    fn put(self, value: &V) -> Option<V> {
        match self {
            Held::Page {
                status,
                value: cell,
                ..
            } => {
                let st = status.load(Ordering::Acquire);
                debug_assert!(st & LOCK_BIT != 0, "leaf slot not locked");
                if st & LEAF_PRESENT != 0 {
                    return cell.replace(value.clone());
                }
                *cell = Some(value.clone());
                status.store(LOCK_BIT | LEAF_PRESENT, Ordering::Release);
                None
            }
            Held::Block { slot, .. } => {
                let w = slot.load(Ordering::Acquire);
                if slot_tag(w) == TAG_FOLDED {
                    return Some(std::mem::replace(Self::fold(w), value.clone()));
                }
                debug_assert!(w & LOCK_BIT != 0, "interior slot not locked");
                let boxed = Box::into_raw(Box::new(value.clone())) as usize;
                slot.store(pack_slot(boxed, TAG_FOLDED) | LOCK_BIT, Ordering::Release);
                None
            }
        }
    }
}

/// One cached leaf: a leaf node a core reached on a single-page
/// operation, holding **one pinned reference** to it.
struct LeafHint<V: Send + Sync + 'static> {
    /// The hinted leaf; the hint owns one Refcache reference to it.
    node: RcPtr<Node<V>>,
}

/// Ways in each core's hint set. Eight block tags are one cache line, so
/// a lookup scans exactly one line before it picks a way; and eight leaf
/// blocks (16 MiB of address space) is the order of what hardware keeps
/// in a page-walk cache for the same reason — a thread's faults alternate
/// between a handful of regions (two buffers, a stack and a heap), and
/// with one way every change of region is a descent from the root. A
/// constant, not a knob: more ways would only lengthen the scan and the
/// sweep that releases them at every [`RadixTree::maintain`].
const HINT_WAYS: usize = 8;

/// Tag of an empty way: no block starts there ([`VPN_LIMIT`] is 2³⁶).
const NO_BLOCK: Vpn = Vpn::MAX;

/// The block tags of one core's hint set: the part of the core's hint
/// cell that does not depend on the tree's value type, so the hint
/// counters of [`TreeStats`] can name it as their lock.
pub(crate) type HintTags = [Vpn; HINT_WAYS];

/// One core's cached leaves: a small fully associative set searched by
/// block base, in the core's [`PerCore`] cell.
pub(crate) struct HintSet<V: Send + Sync + 'static> {
    /// First VPN of each way's 512-page block, [`NO_BLOCK`] when the way
    /// is empty: the one line a lookup scans.
    tags: HintTags,
    ways: [Option<LeafHint<V>>; HINT_WAYS],
    /// The way the next install into a full set replaces (round robin).
    victim: usize,
}

impl<V: Send + Sync + 'static> HintSet<V> {
    const EMPTY: Self = HintSet {
        tags: [NO_BLOCK; HINT_WAYS],
        ways: [const { None }; HINT_WAYS],
        victim: 0,
    };

    /// The way caching `block_base`'s leaf, if any.
    #[inline]
    fn find(&self, block_base: Vpn) -> Option<usize> {
        self.tags.iter().position(|&t| t == block_base)
    }

    /// Empties `way`, handing its hint (and the pin it owns) to the caller.
    fn evict(&mut self, way: usize) -> Option<LeafHint<V>> {
        self.tags[way] = NO_BLOCK;
        self.ways[way].take()
    }

    /// Caches `hint` for `block_base`: over the way already holding that
    /// block, else in an empty way, else over the round-robin victim.
    /// Returns the displaced hint, whose pin the caller surrenders.
    fn install(&mut self, block_base: Vpn, hint: LeafHint<V>) -> Option<LeafHint<V>> {
        let way = self
            .find(block_base)
            .or_else(|| self.find(NO_BLOCK))
            .unwrap_or_else(|| {
                let v = self.victim;
                self.victim = (v + 1) % HINT_WAYS;
                v
            });
        self.tags[way] = block_base;
        self.ways[way].replace(hint)
    }
}

/// The RadixVM radix tree.
pub struct RadixTree<V: RadixValue> {
    cache: Arc<Refcache>,
    root: RcPtr<Node<V>>,
    cfg: RadixConfig,
    /// Statistics and spare leaf arrays, shared with every node.
    shared: Arc<TreeShared<V>>,
    /// Per-core leaf hint sets, under the cache's `CoreLock`s (untouched
    /// unless `cfg.leaf_hints`).
    hints: PerCore<HintSet<V>>,
    /// The list-based range lock fronting multi-page acquisitions
    /// (consulted only when `cfg.range_lock` is [`RangeLockKind::List`]).
    /// Overlapping range operations serialize on one descriptor here
    /// instead of CAS-fighting slot by slot; the slot locks below remain
    /// the mutual-exclusion authority (faults never enqueue).
    range_lock: RangeLock,
}

// SAFETY: nodes are Sync; RcPtr is a pointer; all mutation is internally
// synchronized (slot locks + Refcache).
unsafe impl<V: RadixValue> Send for RadixTree<V> {}
// SAFETY: as above.
unsafe impl<V: RadixValue> Sync for RadixTree<V> {}

impl<V: RadixValue> RadixTree<V> {
    /// Creates an empty tree whose node lifetimes are managed by `cache`.
    pub fn new(cache: Arc<Refcache>, cfg: RadixConfig) -> Self {
        let shared = Arc::new(TreeShared::new(cache.locks().clone()));
        // The root is pinned forever with its initial count of 1.
        let root = cache.alloc(1, Node::new_interior(0, 0, None, shared.clone(), |_| 0));
        nref(root).register_sim_lines(cfg.replicate_index);
        let hints = PerCore::new(cache.locks().clone(), |_| HintSet::EMPTY);
        RadixTree {
            cache,
            root,
            cfg,
            shared,
            hints,
            range_lock: RangeLock::new(),
        }
    }

    /// One Refcache tick of `core` as the tree's owner runs it
    /// ([`Refcache::maintain`]): `core`'s leaf hints surrender their pins
    /// first, so the flush applies them and a hint delays a node's
    /// collapse by at most one tick of its core — the property that
    /// keeps the freeing-safety argument intact (DESIGN.md §5). A bare
    /// `Refcache` tick releases no tree's hints.
    ///
    /// Takes `core`'s lock: not on a thread that holds a guard of this
    /// tree on `core` (debug builds panic; release builds would spin).
    pub fn maintain(&self, core: usize) {
        let mut held = self.cache.lock(core);
        self.release_hints(&mut held);
        self.cache.maintain_held(&mut held.cells());
    }

    /// [`RadixTree::maintain`] of the held core with
    /// [`Refcache::expedite`] as the tick.
    pub fn expedite(&self, held: &mut CoreHeld<'_>) {
        self.release_hints(held);
        self.cache.expedite(&mut held.cells());
    }

    /// [`RadixTree::maintain`] for [`Refcache::quiesce`]: every core's
    /// hints, then the sweeps. Drains this tree; another tree on the same
    /// cache keeps its hinted leaves until its own tick or drop.
    pub fn quiesce(&self) {
        for core in 0..self.cache.ncores() {
            self.release_hints(&mut self.cache.lock(core));
        }
        self.cache.quiesce();
    }

    /// Takes every leaf hint of the held core and surrenders their pins:
    /// the first half of each of the tree's ticks above, and of its drop.
    pub(crate) fn release_hints(&self, held: &mut CoreHeld<'_>) {
        if !self.cfg.leaf_hints {
            return;
        }
        let mut cells = held.cells();
        let taken = std::mem::replace(self.hints.get(&mut cells), HintSet::EMPTY);
        for h in taken.ways.into_iter().flatten() {
            self.cache.adjust_held(&mut cells, h.node, -1);
        }
    }

    /// The tree's statistics block.
    pub fn stats(&self) -> &TreeStats {
        &self.shared.stats
    }

    /// The Refcache managing this tree's nodes.
    pub fn cache(&self) -> &Arc<Refcache> {
        &self.cache
    }

    /// Approximate bytes of memory used by the tree's nodes and values
    /// (Table 2 accounting).
    pub fn space_bytes(&self) -> u64 {
        let hdr = 96u64; // node header + Refcache header, rounded
        let interior = self.shared.stats.interior_nodes();
        let leaf = self.shared.stats.leaf_nodes();
        let folded = self.shared.stats.folded_values();
        // The slot as the allocator hands it out: status word, value
        // and the padding the value's alignment asks for.
        let leaf_slot = std::mem::size_of::<LeafSlot<V>>() as u64;
        interior * (FANOUT as u64 * 8 + hdr)
            + leaf * (FANOUT as u64 * leaf_slot + hdr)
            + folded * std::mem::size_of::<V>() as u64
    }

    /// True when `node`'s parent slot still publishes it. A refold
    /// ([`RangeGuard::refold`]) severs a fully populated leaf while
    /// holding **every** leaf slot lock, so any reader that holds one of
    /// a leaf's slot locks and observes it linked is guaranteed the leaf
    /// stays linked (and its values stay put) until that lock drops.
    /// Readers that find a slot *empty* must re-check linkage: an
    /// emptied-and-severed leaf means the pages moved into a folded
    /// block value, and the operation must re-read the parent slot.
    fn leaf_linked(node: RcPtr<Node<V>>) -> bool {
        match nref(node).parent {
            Some((parent, idx)) => {
                let w = nref(parent).interior()[idx as usize].load(Ordering::Acquire);
                slot_tag(w) == TAG_CHILD && slot_ptr(w) == node.addr()
            }
            None => true, // the root is never severed
        }
    }

    /// True when the hinted leaf's parent slot still publishes it (a
    /// refold severs the leaf and replaces it with a folded value, so a
    /// promoted block's stale hint misses here instead of reading the
    /// emptied slots). For [`RadixTree::lookup_present`], which takes no
    /// slot lock to read the linkage under.
    fn hint_valid(h: &LeafHint<V>) -> bool {
        nref(h.node).parent.is_some() && Self::leaf_linked(h.node)
    }

    /// Fault fast path: finds the held core's hinted leaf for `vpn`'s
    /// block and locks `vpn`'s slot in it. Returns the leaf, **with that
    /// slot locked** — pinned by the hint for as long as the caller keeps
    /// the token — or `None` on a miss, with no slot held. Hit/miss counts
    /// land in [`TreeStats`], one bump per lookup.
    ///
    /// The way is picked by block base alone. Whether the leaf is still
    /// linked is read once, under the slot lock, where the answer is
    /// authoritative: a leaf seen linked by the holder of one of its slot
    /// locks stays linked until that lock drops. A leaf that read finds
    /// severed (refolded) is pinned and harmless, but it will never be
    /// linked again, so its way is evicted on the spot and the lookup is
    /// a miss.
    #[inline]
    fn hint_lookup(&self, held: &mut CoreHeld<'_>, vpn: Vpn) -> Option<RcPtr<Node<V>>> {
        if !self.cfg.leaf_hints {
            return None;
        }
        let core = held.core();
        let block_base = vpn & !((FANOUT as u64) - 1);
        let mut cells = held.cells();
        let set = self.hints.get(&mut cells);
        let mut stale = None;
        let hit = set.find(block_base).and_then(|way| {
            let leaf = set.ways[way].as_ref()?.node;
            let status = &nref(leaf).leaf()[(vpn - block_base) as usize].status;
            lock_leaf_slot(core, status, &self.shared.stats);
            if Self::leaf_linked(leaf) {
                return Some(leaf);
            }
            unlock_leaf_slot(status);
            stale = set.evict(way);
            None
        });
        let field = if hit.is_some() {
            TreeCounts::hint_hits
        } else {
            TreeCounts::hint_misses
        };
        self.shared.stats.add_held(core, field, &set.tags, 1);
        if let Some(h) = stale {
            self.cache.adjust_held(&mut cells, h.node, -1);
        }
        hit
    }

    /// Remembers `node` as a leaf hint of the held core, taking one
    /// pinned reference for the hint and surrendering the pin of the
    /// hint it displaces (see [`HintSet::install`]).
    ///
    /// The caller must hold a live reference to `node` (a traversal pin
    /// or a guard pin) across the call.
    fn install_hint(&self, held: &mut CoreHeld<'_>, node: RcPtr<Node<V>>) {
        if !self.cfg.leaf_hints {
            return;
        }
        debug_assert!(nref(node).is_leaf());
        let mut cells = held.cells();
        self.cache.adjust_held(&mut cells, node, 1);
        let prev = self
            .hints
            .get(&mut cells)
            .install(nref(node).base_vpn, LeafHint { node });
        if let Some(h) = prev {
            self.cache.adjust_held(&mut cells, h.node, -1);
        }
    }

    /// The block bases `core`'s hint set caches, in way order.
    #[cfg(test)]
    pub(crate) fn hinted_blocks(&self, core: usize) -> Vec<Vpn> {
        let tags = self.hints.get(&mut self.cache.lock(core).cells()).tags;
        tags.into_iter().filter(|&t| t != NO_BLOCK).collect()
    }

    /// Addresses of the leaf arrays on `core`'s spare list.
    #[cfg(test)]
    pub(crate) fn spare_arrays(&self, core: usize) -> Vec<usize> {
        self.shared.spare_arrays(core)
    }

    /// Address of the slot array of the leaf linked for `vpn`, if any.
    /// Reads the linkage unpinned: only for a test that owns the tree.
    #[cfg(test)]
    pub(crate) fn leaf_array(&self, vpn: Vpn) -> Option<usize> {
        let mut node = nref(self.root);
        while !node.is_leaf() {
            let w =
                node.interior()[index_at_level(vpn, node.level as usize)].load(Ordering::Acquire);
            if slot_tag(w) != TAG_CHILD {
                return None;
            }
            // SAFETY: TAG_CHILD slots hold `Node<V>` pointers, and nothing
            // else runs on the tree to free one.
            node = nref(unsafe { RcPtr::<Node<V>>::from_raw_addr(slot_ptr(w)) });
        }
        Some(node.leaf().as_ptr() as usize)
    }

    /// What keeps the tree's shared state alive, to see it go.
    #[cfg(test)]
    pub(crate) fn shared_weak(&self) -> std::sync::Weak<TreeShared<V>> {
        Arc::downgrade(&self.shared)
    }

    /// Locks `[lo, hi)` left-to-right and returns the guard, which holds
    /// `core`'s lock of the tree's set until it drops: no other call on
    /// this tree and core from this thread while it lives (debug builds
    /// panic; release builds would spin).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds [`VPN_LIMIT`].
    pub fn lock_range(&self, core: usize, lo: Vpn, hi: Vpn, mode: LockMode) -> RangeGuard<'_, V> {
        self.lock_range_held(self.cache.lock(core), lo, hi, mode)
    }

    /// [`RadixTree::lock_range`] on the core `held` is, for a caller that
    /// holds its lock already and lends it (`held.reborrow()`). The guard
    /// keeps the token until it drops, so while it lives the caller can
    /// make no other call that needs the token — a second `lock_range` or
    /// a tick on the same core would wait for its own lock, and does not
    /// compile:
    ///
    /// ```compile_fail,E0499
    /// # use std::sync::Arc;
    /// # use rvm_radix::{LockMode, RadixConfig, RadixTree};
    /// # use rvm_refcache::Refcache;
    /// let tree = RadixTree::<u64>::new(Arc::new(Refcache::new(1)), RadixConfig::default());
    /// let mut held = tree.cache().lock(0);
    /// let page = tree.lock_range_held(held.reborrow(), 7, 8, LockMode::ExpandAll);
    /// let other = tree.lock_range_held(held.reborrow(), 9, 10, LockMode::ExpandAll);
    /// drop(page);
    /// ```
    ///
    /// Nor through the guard: [`RangeGuard::token`] lends the core's cells
    /// (a `CoreCells`), which a tick, a range lock and the leaf hints do
    /// not take, so a guard riding a hint cannot have that hint's pin
    /// surrendered under it:
    ///
    /// ```compile_fail,E0308
    /// # use std::sync::Arc;
    /// # use rvm_radix::{LockMode, RadixConfig, RadixTree};
    /// # use rvm_refcache::Refcache;
    /// let tree = RadixTree::<u64>::new(Arc::new(Refcache::new(1)), RadixConfig::default());
    /// let mut page = tree.lock_range(0, 7, 8, LockMode::ExpandAll);
    /// tree.expedite(&mut page.token());
    /// ```
    pub fn lock_range_held<'t>(
        &'t self,
        held: CoreHeld<'t>,
        lo: Vpn,
        hi: Vpn,
        mode: LockMode,
    ) -> RangeGuard<'t, V> {
        assert!(lo < hi && hi <= VPN_LIMIT, "bad range {lo}..{hi}");
        let core = held.core();
        let mut guard = RangeGuard {
            tree: self,
            held,
            units: InlineVec::new(),
            pins: InlineVec::new(),
            range_token: None,
        };
        // Fault fast path: a single-page lock served by the leaf hint
        // skips the descent entirely (both modes behave identically once
        // a leaf exists) and takes no pin: the guard keeps the core's
        // token, so the hint's own pin cannot go away under it. Single-
        // page locks never enqueue in the range lock either — the leaf
        // slot lock alone excludes them from everything, including
        // list-fronted multi-page holders (which still take every slot
        // lock in their range during descent).
        if hi == lo + 1 {
            if let Some(leaf) = self.hint_lookup(&mut guard.held, lo) {
                let first = (lo - nref(leaf).base_vpn) as usize;
                guard.units.push(Unit::LeafRange {
                    node: leaf,
                    first,
                    end: first + 1,
                    born: false,
                });
                return guard;
            }
        }
        // Multi-page acquisitions under the List substrate serialize on
        // one descriptor before touching any slot, so overlapping range
        // ops contend on a single line instead of CAS-fighting every
        // slot in the intersection. Slot locks stay the mutual-exclusion
        // authority (faults never enqueue here), so this is purely a
        // contention front: descent below proceeds exactly as before.
        if hi > lo + 1 && self.cfg.range_lock == RangeLockKind::List {
            guard.range_token = Some(self.range_lock.acquire(core, lo, hi));
        }
        self.descend(self.root, lo, hi, mode, false, &mut guard);
        // Refresh the hint when the descent ended at a single leaf slot,
        // so the next fault in this block takes the fast path. The leaf
        // is pinned by the guard, satisfying `install_hint`'s contract.
        if hi == lo + 1 && self.cfg.leaf_hints {
            if let Some(&Unit::LeafRange { node, .. }) = guard.units.iter().last() {
                self.install_hint(&mut guard.held, node);
            }
        }
        guard
    }

    /// Recursive locking descent (see module docs for the protocol).
    /// Takes the full lock-plan state; splitting it into a struct would
    /// only rename the arguments.
    ///
    /// Returns `Some(true)` when `node_ptr` itself is referenced by a
    /// pushed unit and must therefore stay pinned by the guard. On
    /// `Some(false)`, every unit pushed below lives in a pinned
    /// descendant, and a pinned descendant transitively keeps this node
    /// alive (each linked child holds a used-slot reference on its
    /// parent) — so the caller surrenders the traversal pin immediately
    /// instead of accumulating one pin per level. Returns `None` (with
    /// nothing pushed for this node) when a concurrent refold severed
    /// the leaf between the caller's slot read and our lock
    /// acquisitions; the caller re-reads its slot and retries.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        node_ptr: RcPtr<Node<V>>,
        lo: Vpn,
        hi: Vpn,
        mode: LockMode,
        born_locked: bool,
        g: &mut RangeGuard<'_, V>,
    ) -> Option<bool> {
        let core = g.held.core();
        let node = nref(node_ptr);
        if node.is_leaf() {
            let first = (lo - node.base_vpn) as usize;
            let end = (hi - node.base_vpn) as usize;
            debug_assert!(end <= FANOUT);
            if !born_locked {
                for slot in &node.leaf()[first..end] {
                    lock_leaf_slot(core, &slot.status, &self.shared.stats);
                }
                if !Self::leaf_linked(node_ptr) {
                    // Refolded under us: the values now live in a folded
                    // parent slot. Unwind and let the caller retry.
                    for slot in &node.leaf()[first..end] {
                        unlock_leaf_slot(&slot.status);
                    }
                    return None;
                }
            }
            g.units.push(Unit::LeafRange {
                node: node_ptr,
                first,
                end,
                born: born_locked,
            });
            return Some(true);
        }
        let span = node.slot_span();
        let level = node.level as usize;
        let first_idx = index_at_level(lo, level);
        let last_idx = index_at_level(hi - 1, level);
        let mut retain = false;
        for idx in first_idx..=last_idx {
            let block_lo = node.base_vpn + idx as u64 * span;
            let block_hi = block_lo + span;
            let sub_lo = lo.max(block_lo);
            let sub_hi = hi.min(block_hi);
            let full = sub_lo == block_lo && sub_hi == block_hi;
            let slot = &node.interior()[idx];
            loop {
                let peek = slot.load(Ordering::Acquire);
                if slot_tag(peek) == TAG_CHILD {
                    // Traversal: pin the child through its weak reference
                    // (no lock required).
                    // SAFETY: TAG_CHILD slots of this tree always hold
                    // `Node<V>` pointers registered with this cache.
                    match unsafe {
                        self.cache
                            .tryget::<Node<V>>(&mut g.held.cells(), slot, TAG_CHILD)
                    } {
                        Some(child) => {
                            match self.descend(child, sub_lo, sub_hi, mode, false, g) {
                                Some(true) => g.pins.push(child),
                                // Pin elision: the child's subtree holds
                                // pinned units that keep it alive.
                                Some(false) => {
                                    self.cache.adjust_held(&mut g.held.cells(), child, -1)
                                }
                                None => {
                                    // Refolded under us: re-read the slot
                                    // (it now holds the folded value).
                                    self.cache.adjust_held(&mut g.held.cells(), child, -1);
                                    continue;
                                }
                            }
                            break;
                        }
                        None => continue, // freed under us; re-read
                    }
                }
                // EMPTY or FOLDED: acquire the slot lock (unless born).
                let v = if born_locked {
                    peek
                } else {
                    let observed = lock_interior_slot(core, slot, &self.shared.stats);
                    if slot_tag(observed) == TAG_CHILD {
                        // Became a child while we were acquiring; the CAS
                        // re-set the lock bit on a child word — undo and
                        // take the traversal path.
                        unlock_interior_slot(slot);
                        continue;
                    }
                    observed
                };
                let tag = slot_tag(v);
                debug_assert_ne!(tag, TAG_CHILD);
                // Under ExpandToBlock a folded slot at one of the
                // superpage levels is locked whole instead of expanded:
                // the fold stays intact so one value governs one
                // superpage PTE (the superpage fault path, every rung).
                let expand = match tag {
                    TAG_FOLDED => {
                        !full
                            && (mode != LockMode::ExpandToBlock
                                || level + SUPERPAGE_RUNGS < LEVELS - 1)
                    }
                    TAG_EMPTY => !full && mode == LockMode::ExpandAll,
                    _ => unreachable!("invalid slot tag"),
                };
                if !expand {
                    g.units.push(Unit::Block {
                        node: node_ptr,
                        idx,
                        born: born_locked,
                    });
                    retain = true;
                    break;
                }
                // Expand under the held slot lock.
                let child = self.expand_slot(&mut g.held.cells(), node_ptr, idx, v, block_lo);
                g.pins.push(child);
                g.units.push(Unit::WholeNode { node: child });
                // The child is already pinned above; the recursion's
                // retain verdict is irrelevant.
                let _ = self.descend(child, sub_lo, sub_hi, mode, true, g);
                break;
            }
        }
        Some(retain)
    }

    /// Replaces a locked EMPTY/FOLDED interior slot with a freshly
    /// allocated child whose every slot lock is born held, publishing the
    /// child with a store that simultaneously unlocks the parent slot
    /// (paper §3.4). Returns the child, pinned for the caller.
    fn expand_slot(
        &self,
        held: &mut CoreCells<'_>,
        parent: RcPtr<Node<V>>,
        idx: usize,
        locked_word: u64,
        block_lo: Vpn,
    ) -> RcPtr<Node<V>> {
        let core = held.core();
        let parent_node = nref(parent);
        let slot = &parent_node.interior()[idx];
        let child_level = parent_node.level as usize + 1;
        let was_folded = slot_tag(locked_word) == TAG_FOLDED;
        // Take ownership of the folded template, if any.
        let template: Option<Box<V>> = if was_folded {
            self.shared.stats.sub(core, TreeCounts::folded_values, 1);
            // SAFETY: FOLDED slots own their boxed value; the slot lock is
            // held, so no one else can free or replace it.
            Some(unsafe { Box::from_raw(slot_ptr(locked_word) as *mut V) })
        } else {
            None
        };
        self.shared.stats.add_core(held, TreeCounts::expansions, 1);
        let permanent = if self.cfg.collapse { 0 } else { 1 };
        let child = if child_level == LEVELS - 1 {
            let node = Node::new_leaf(
                held,
                block_lo,
                Some((parent, idx as u16)),
                self.shared.clone(),
                |_| match &template {
                    Some(t) => (LOCK_BIT | LEAF_PRESENT, Some((**t).clone())),
                    None => (LOCK_BIT, None),
                },
            );
            let used = if template.is_some() { FANOUT as i64 } else { 0 };
            self.cache.alloc(used + 1 + permanent, node)
        } else {
            let node = Node::new_interior(
                child_level as u8,
                block_lo,
                Some((parent, idx as u16)),
                self.shared.clone(),
                |_| match &template {
                    Some(t) => {
                        let boxed = Box::new((**t).clone());
                        pack_slot(Box::into_raw(boxed) as usize, TAG_FOLDED) | LOCK_BIT
                    }
                    None => LOCK_BIT,
                },
            );
            if template.is_some() {
                self.shared
                    .stats
                    .add(core, TreeCounts::folded_values, FANOUT as u64);
            }
            let used = if template.is_some() { FANOUT as i64 } else { 0 };
            self.cache.alloc(used + 1 + permanent, node)
        };
        if !was_folded {
            // EMPTY → CHILD: the parent gains a used slot.
            self.cache.adjust_held(held, parent, 1);
        }
        nref(child).register_sim_lines(self.cfg.replicate_index);
        self.cache.register_weak(child, slot);
        // Publish the child and release the parent slot lock in one store.
        slot.store(pack_slot(child.addr(), TAG_CHILD), Ordering::Release);
        child
    }

    /// Reads (clones) the value governing `vpn`, if any.
    ///
    /// Allocation-free. A leaf-hint hit reads the page under its slot
    /// lock with no pin at all (the core's lock stays held across the
    /// read instead); a miss takes the pinned range walk that
    /// [`RadixTree::collect_range`] takes too, holding one pin per level,
    /// and caches the leaf it reaches as `core`'s hint.
    pub fn get(&self, core: usize, vpn: Vpn) -> Option<V> {
        let held = &mut self.cache.lock(core);
        if let Some(leaf) = self.hint_lookup(held, vpn) {
            // The lookup returned with the slot locked, on a leaf it saw
            // linked under that lock: the read is authoritative.
            let idx = (vpn - nref(leaf).base_vpn) as usize;
            let out = Held::at(leaf, idx).value_mut().cloned();
            unlock_leaf_slot(&nref(leaf).leaf()[idx].status);
            return out;
        }
        let mut out = None;
        self.walk(held, self.root, vpn, vpn + 1, &mut |_, _, v| {
            out = Some(v.clone())
        });
        out
    }

    /// Read-only presence check: returns true if `vpn` has a value,
    /// without taking any slot lock (a traversal over atomic slot words
    /// — the Figure 7 lookup operation). May race with concurrent
    /// mutations; the answer is a linearizable snapshot of the slot word.
    ///
    /// Takes `core`'s lock for the whole call, hints or not: the descent
    /// pins nodes through the core's delta cache. So not on a thread
    /// that holds a lock of the tree's set (debug builds panic; release
    /// builds would spin). On a leaf-hint hit it is pin-free: two loads
    /// under that lock.
    pub fn lookup_present(&self, core: usize, vpn: Vpn) -> bool {
        let held = &mut self.cache.lock(core);
        if self.cfg.leaf_hints {
            let block_base = vpn & !((FANOUT as u64) - 1);
            let mut cells = held.cells();
            let set = self.hints.get(&mut cells);
            let hinted = set.find(block_base);
            if let Some(h) = hinted.and_then(|way| set.ways[way].as_ref()) {
                if Self::hint_valid(h) {
                    let st = nref(h.node).leaf()[(vpn - block_base) as usize]
                        .status
                        .load(Ordering::Acquire);
                    // A present bit is trustworthy even if a refold races
                    // with the load: refold moves present values into a
                    // folded block, so the page stays mapped either way.
                    // An *absent* bit must be re-confirmed: if the leaf
                    // was severed after the validity check, the emptied
                    // slot says nothing — take the descent instead.
                    if st & LEAF_PRESENT != 0 || Self::hint_valid(h) {
                        self.shared
                            .stats
                            .add_held(core, TreeCounts::hint_hits, &set.tags, 1);
                        return st & LEAF_PRESENT != 0;
                    }
                }
            }
            self.shared
                .stats
                .add_held(core, TreeCounts::hint_misses, &set.tags, 1);
        }
        let mut node_ptr = self.root;
        let mut pin: Option<RcPtr<Node<V>>> = None;
        let result = loop {
            let node = nref(node_ptr);
            if node.is_leaf() {
                let idx = (vpn - node.base_vpn) as usize;
                let st = node.leaf()[idx].status.load(Ordering::Acquire);
                if st & LEAF_PRESENT == 0 && !Self::leaf_linked(node_ptr) {
                    // Refolded under us: restart from the root.
                    if let Some(prev) = pin.take() {
                        self.cache.adjust_held(&mut held.cells(), prev, -1);
                    }
                    node_ptr = self.root;
                    continue;
                }
                self.install_hint(held, node_ptr);
                break st & LEAF_PRESENT != 0;
            }
            let idx = index_at_level(vpn, node.level as usize);
            let slot = &node.interior()[idx];
            let peek = slot.load(Ordering::Acquire);
            match slot_tag(peek) {
                TAG_CHILD => {
                    // SAFETY: TAG_CHILD slots hold `Node<V>` pointers.
                    match unsafe {
                        self.cache
                            .tryget::<Node<V>>(&mut held.cells(), slot, TAG_CHILD)
                    } {
                        Some(child) => {
                            if let Some(prev) = pin.replace(child) {
                                self.cache.adjust_held(&mut held.cells(), prev, -1);
                            }
                            node_ptr = child;
                        }
                        None => continue,
                    }
                }
                TAG_FOLDED => break true,
                _ => break false,
            }
        };
        if let Some(p) = pin {
            self.cache.adjust_held(&mut held.cells(), p, -1);
        }
        result
    }

    /// Collects all `(vpn, value)` pairs in `[lo, hi)` (test oracle aid;
    /// clones each page's governing value).
    ///
    /// One pinned range walk, the one [`RadixTree::get`] takes on a hint
    /// miss: each leaf and each folded block in range is visited once,
    /// and each page is reported once even when a refold races the walk.
    pub fn collect_range(&self, core: usize, lo: Vpn, hi: Vpn) -> Vec<(Vpn, V)> {
        assert!(hi <= VPN_LIMIT, "bad range {lo}..{hi}");
        let mut out = Vec::new();
        if lo < hi {
            self.walk(
                &mut self.cache.lock(core),
                self.root,
                lo,
                hi,
                &mut |start, pages, v| {
                    out.extend((start..start + pages).map(|vpn| (vpn, v.clone())))
                },
            );
        }
        out
    }

    /// The pinned range walk behind [`RadixTree::get`] and
    /// [`RadixTree::collect_range`]: calls `f(start, pages, value)` for
    /// each present page and each fold in `[lo, hi)` below `node_ptr`, in
    /// VPN order, a fold clipped to the range, each call under the slot's
    /// lock. Takes no lock on a node; holds one pin per level
    /// ([`Refcache::tryget`]) and allocates nothing.
    ///
    /// A leaf is read page by page, and each page's linkage is read under
    /// its slot lock, where it is authoritative
    /// ([`RadixTree::leaf_linked`]). A refold that severed the leaf moved
    /// its pages into the parent slot's fold: the walk then returns the
    /// first page it has not reported (`None` when it reported them
    /// all), and the parent re-reads its slot from that page on. A
    /// single-page walk that ends at a linked leaf caches it as `core`'s
    /// hint, as a single-page [`RadixTree::lock_range`] does.
    fn walk(
        &self,
        held: &mut CoreHeld<'_>,
        node_ptr: RcPtr<Node<V>>,
        lo: Vpn,
        hi: Vpn,
        f: &mut impl FnMut(Vpn, u64, &V),
    ) -> Option<Vpn> {
        let core = held.core();
        let node = nref(node_ptr);
        let stats = &self.shared.stats;
        if node.is_leaf() {
            for vpn in lo..hi {
                let idx = (vpn - node.base_vpn) as usize;
                let status = &node.leaf()[idx].status;
                lock_leaf_slot(core, status, stats);
                let linked = Self::leaf_linked(node_ptr);
                if let Some(v) = Held::at(node_ptr, idx).value_mut().filter(|_| linked) {
                    f(vpn, 1, v);
                }
                unlock_leaf_slot(status);
                if !linked {
                    return Some(vpn);
                }
            }
            if hi == lo + 1 {
                self.install_hint(held, node_ptr);
            }
            return None;
        }
        let span = node.slot_span();
        let level = node.level as usize;
        let mut at = lo;
        for idx in index_at_level(lo, level)..=index_at_level(hi - 1, level) {
            let end = hi.min(node.base_vpn + (idx as u64 + 1) * span);
            let slot = &node.interior()[idx];
            loop {
                match slot_tag(slot.load(Ordering::Acquire)) {
                    TAG_CHILD => {
                        // SAFETY: TAG_CHILD slots hold `Node<V>` pointers.
                        // SAFETY: as above; the pin is surrendered with the
                        // same token after the closure.
                        let child = unsafe {
                            self.cache
                                .tryget::<Node<V>>(&mut held.cells(), slot, TAG_CHILD)
                        };
                        let walked = child.map(|child| {
                            let out = self.walk(held, child, at, end, f);
                            self.cache.adjust_held(&mut held.cells(), child, -1);
                            out
                        });
                        match walked {
                            Some(None) => break,
                            // Refolded under us: the rest is in the fold.
                            Some(Some(resume)) => at = resume,
                            None => {} // freed under us; re-read
                        }
                    }
                    TAG_FOLDED => {
                        lock_interior_slot(core, slot, stats);
                        let fold = Held::at(node_ptr, idx).value_mut();
                        let found = fold.map(|v| f(at, end - at, v)).is_some();
                        unlock_interior_slot(slot);
                        if found {
                            break;
                        } // changed under us; re-read
                    }
                    _ => break, // EMPTY
                }
            }
            at = end;
        }
        None
    }

    /// Books a fold that appeared (`delta` = 1) or went (-1) in an
    /// interior slot of `node`: the fold count, and the used-slot
    /// reference the fold holds on `node`.
    fn fold_counted(&self, held: &mut CoreCells<'_>, node: RcPtr<Node<V>>, delta: i64) {
        match delta {
            1 => self
                .shared
                .stats
                .add(held.core(), TreeCounts::folded_values, 1),
            _ => self
                .shared
                .stats
                .sub(held.core(), TreeCounts::folded_values, 1),
        }
        self.cache.adjust_held(held, node, delta);
    }

    /// Returns `out`, counting it in [`TreeStats::guard_spills`] if it
    /// spilled to the heap.
    fn spill_counted(&self, held: &CoreCells<'_>, out: RemovedList<V>) -> RemovedList<V> {
        if out.spilled() {
            self.shared
                .stats
                .add_core(held, TreeCounts::guard_spills, 1);
        }
        out
    }

    /// Surrenders the permanent reference a no-collapse tree gives every
    /// node it creates, for each node below `node`, children first.
    fn surrender_permanent(&self, node: RcPtr<Node<V>>) {
        let Slots::Interior(slots) = &nref(node).slots else {
            return;
        };
        for w in slots.iter().map(|s| s.load(Ordering::Acquire)) {
            if slot_tag(w) == TAG_CHILD {
                // SAFETY: TAG_CHILD slots hold `Node<V>` pointers, and a
                // linked child keeps its permanent reference until here.
                let child = unsafe { RcPtr::<Node<V>>::from_raw_addr(slot_ptr(w)) };
                self.surrender_permanent(child);
                self.cache.dec(0, child);
            }
        }
    }
}

impl<V: RadixValue> Drop for RadixTree<V> {
    fn drop(&mut self) {
        // Surrender every hint pin, then give up what the tree itself
        // holds: its values, a no-collapse tree's permanent references
        // and, last, the root's. The nodes then collapse bottom-up
        // through `Node::on_release` as Refcache reviews them, at a later
        // tick or when the cache drops.
        for core in 0..self.cache.ncores() {
            self.release_hints(&mut self.cache.lock(core));
        }
        self.lock_range(0, 0, VPN_LIMIT, LockMode::ExpandFolded)
            .clear();
        if !self.cfg.collapse {
            self.surrender_permanent(self.root);
        }
        self.cache.dec(0, self.root);
    }
}

/// A held range lock over `[lo, hi)`.
///
/// Dropping the guard unlocks every slot (clearing born-held lock bits of
/// newly created nodes, per §3.4) and releases all traversal pins.
///
/// Unit and pin storage is inline ([`InlineVec`]): single-page and
/// single-block guards never allocate.
pub struct RangeGuard<'t, V: RadixValue> {
    tree: &'t RadixTree<V>,
    units: InlineVec<Unit<V>, UNITS_INLINE>,
    pins: InlineVec<RcPtr<Node<V>>, PINS_INLINE>,
    /// Held list-lock descriptor when this is a multi-page acquisition
    /// under [`RangeLockKind::List`]; released last on drop so the
    /// descriptor's hold window covers the whole slot-locked critical
    /// section.
    range_token: Option<RangeToken>,
    /// The core's lock: owned (a bare [`RadixTree::lock_range`]) or lent
    /// ([`RadixTree::lock_range_held`]). When the leaf hint served this
    /// guard, the hint's pin stands in for the guard's own (`pins` is
    /// empty) for as long as this is held. Released last (a field,
    /// dropped after `Drop::drop` unlocked the slots).
    held: CoreHeld<'t>,
}

/// The slots a guard holds locked, unit by unit in the order it locked
/// them: each unit's node and an entry per slot. These are the pages
/// and blocks it locked or, with `expanded`, every slot of the nodes its
/// expansions created (born locked; an interior slot that was expanded
/// further is a published child and yields no value). The entries
/// borrow the guard's units mutably, and the guard unlocks only when it
/// drops ([`Held`]).
fn held_slots<V: RadixValue>(
    units: &mut InlineVec<Unit<V>, UNITS_INLINE>,
    expanded: bool,
) -> impl Iterator<Item = (RcPtr<Node<V>>, impl Iterator<Item = Held<'_, V>>)> {
    let units = units.iter();
    let wanted = units.filter(move |u| matches!(u, Unit::WholeNode { .. }) == expanded);
    wanted.map(|unit| {
        let (node, slots) = unit.slots();
        (node, slots.map(move |idx| Held::at(node, idx)))
    })
}

impl<'t, V: RadixValue> RangeGuard<'t, V> {
    /// The cells of the guard's core, for what the caller does under the
    /// guard on that core's other state (its frames, its counters). Not
    /// the guard's `CoreHeld`: a hint-riding guard relies on nobody
    /// ticking its core or touching its hints until it drops.
    #[inline]
    pub fn token(&mut self) -> CoreCells<'_> {
        self.held.cells()
    }

    /// [`RangeGuard::held_slots`] of this guard's units.
    fn held(
        &mut self,
        expanded: bool,
    ) -> impl Iterator<Item = (RcPtr<Node<V>>, impl Iterator<Item = Held<'_, V>>)> {
        held_slots(&mut self.units, expanded)
    }

    /// Removes every value in the locked range, returning the displaced
    /// pages and blocks.
    ///
    /// This guard is the only mutator of the leaf status words it holds
    /// locked, so `LEAF_PRESENT` flips with plain stores, and the used-
    /// slot references settle once per leaf, not once per page.
    pub fn clear(&mut self) -> RemovedList<V> {
        let (tree, held) = (self.tree, &mut self.held.cells());
        let mut out = RemovedList::new();
        for (node, entries) in held_slots(&mut self.units, false) {
            let mut emptied = 0;
            for e in entries {
                let ((start, pages), fold) = (e.span(), matches!(e, Held::Block { .. }));
                let Some(value) = e.take() else { continue };
                if fold {
                    tree.fold_counted(held, node, -1);
                } else {
                    emptied += 1;
                }
                out.push(Removed {
                    start,
                    pages,
                    value,
                });
            }
            if emptied > 0 {
                tree.cache.adjust_held(held, node, -emptied);
            }
        }
        tree.spill_counted(held, out)
    }

    /// Sets every page (or whole block) in the locked range to a clone of
    /// `value`, returning displaced values. Empty full blocks receive a
    /// folded value; partially covered blocks were expanded at lock time.
    ///
    /// One walk per slot: a present slot swaps its value in place (no
    /// reference-count or status traffic, and folded blocks reuse their
    /// box allocation); only previously empty slots pay the install cost,
    /// settled once per leaf like [`RangeGuard::clear`]'s.
    pub fn replace(&mut self, value: &V) -> RemovedList<V> {
        let (tree, held) = (self.tree, &mut self.held.cells());
        let mut out = RemovedList::new();
        for (node, entries) in held_slots(&mut self.units, false) {
            let mut filled = 0;
            for e in entries {
                let ((start, pages), fold) = (e.span(), matches!(e, Held::Block { .. }));
                match e.put(value) {
                    Some(value) => out.push(Removed {
                        start,
                        pages,
                        value,
                    }),
                    None if fold => tree.fold_counted(held, node, 1),
                    None => filled += 1,
                }
            }
            if filled > 0 {
                tree.cache.adjust_held(held, node, filled);
            }
        }
        tree.spill_counted(held, out)
    }

    /// Applies `f` to every present entry in the locked range with its
    /// location: `f(start_vpn, pages, value)` where `pages` is 1 for leaf
    /// pages and the block span for folded blocks. Used by fork-style
    /// duplication and mprotect.
    pub fn for_each_entry_mut(&mut self, f: impl FnMut(Vpn, u64, &mut V)) {
        self.for_each_held_mut(false, f);
    }

    /// For a single-page guard at leaf granularity, returns mutable access
    /// to the page's value (the pagefault path). Returns `None` if the
    /// page is unmapped or only covered by an empty block.
    ///
    /// The value's *presence* must not change through this reference; use
    /// [`RangeGuard::clear`]/[`RangeGuard::replace`] for that.
    pub fn page_value_mut(&mut self) -> Option<&mut V> {
        self.page_and_token().map(|(v, _)| v)
    }

    /// [`RangeGuard::page_value_mut`], with the guard's
    /// [`RangeGuard::token`] beside it.
    #[inline]
    pub fn page_and_token(&mut self) -> Option<(&mut V, CoreCells<'_>)> {
        let page = held_slots(&mut self.units, false).next()?.1.next();
        let value = page
            .filter(|e| matches!(e, Held::Page { .. }))?
            .value_mut()?;
        Some((value, self.held.cells()))
    }

    /// For a guard holding a locked *folded* block slot (the
    /// [`LockMode::ExpandToBlock`] fault path), returns the block's
    /// first VPN, page span, and mutable access to its single governing
    /// value, with the guard's [`RangeGuard::token`]. Returns `None`
    /// when the range resolved to leaves or an empty block instead.
    ///
    /// The value's presence must not change through this reference.
    #[inline]
    pub fn block_entry_mut(&mut self) -> Option<(Vpn, u64, &mut V, CoreCells<'_>)> {
        let block = held_slots(&mut self.units, false).next()?.1.next();
        let e = block.filter(|e| matches!(e, Held::Block { .. }))?;
        let (start, pages) = e.span();
        Some((start, pages, e.value_mut()?, self.held.cells()))
    }

    /// Applies `f(start_vpn, pages, value)` to every value this lock
    /// operation cloned by expansion: each present page (`pages` = 1) of
    /// every leaf it created, and each *folded* slot (`pages` = the slot
    /// span) of every interior node it created.
    ///
    /// Expanding a folded slot clones its template into **all** 512 slots
    /// of the new node — including slots outside the requested range —
    /// one granularity down, and every slot lock is born held until the
    /// guard drops, so the caller has exclusive access to fix up
    /// clone-sensitive state (the superpage demotion protocol adopts
    /// block references here before any other core can observe the
    /// copies).
    pub fn for_each_expanded_mut(&mut self, f: impl FnMut(Vpn, u64, &mut V)) {
        self.for_each_held_mut(true, f);
    }

    /// [`RangeGuard::for_each_entry_mut`] or, with `expanded`,
    /// [`RangeGuard::for_each_expanded_mut`].
    fn for_each_held_mut(&mut self, expanded: bool, mut f: impl FnMut(Vpn, u64, &mut V)) {
        for (_, entries) in self.held(expanded) {
            for e in entries {
                let (start, pages) = e.span();
                if let Some(v) = e.value_mut() {
                    f(start, pages, v);
                }
            }
        }
    }

    /// Re-folds the locked block into a single folded value — superpage
    /// promotion's metadata step, the inverse of expansion (§7).
    ///
    /// Requires the guard to hold exactly one unit: a full pre-existing
    /// leaf ([`LockMode::ExpandFolded`] over one whole aligned block)
    /// with **every** slot populated. The 512 page values are taken out
    /// and returned, the leaf is severed from its parent slot (its weak
    /// reference unregistered so Refcache frees it cleanly once the
    /// guard's pin and any hint pins drain), and the parent slot is
    /// republished as a FOLDED block holding `folded` — still locked, by
    /// this guard, until it drops: the caller clears and shoots down the
    /// old pages' PTEs and installs the fold's before any other operation
    /// on the block can touch the page tables. Returns `None`,
    /// with the mapping untouched, when the guard's shape does not match
    /// (already folded, partially populated, or freshly expanded).
    ///
    /// Lock order: the parent interior slot is acquired *while holding*
    /// all 512 leaf slot locks. This adds no deadlock edge — descenders
    /// holding an interior slot lock never wait on leaf locks (expansion
    /// publishes and releases before descending), and readers take
    /// interior slot locks only transiently with no leaf lock held.
    pub fn refold(&mut self, folded: V) -> Option<Vec<V>> {
        let (core, tree) = (self.held.core(), self.tree);
        let (cache, stats) = (&tree.cache, &tree.shared.stats);
        let node = match self.units.as_slice() {
            [Unit::LeafRange {
                node,
                first: 0,
                end: FANOUT,
                born: false,
            }] => *node,
            _ => return None,
        };
        let (parent, pidx) = nref(node).parent?;
        if !self
            .held(false)
            .all(|(_, mut pages)| pages.all(|e| e.value_mut().is_some()))
        {
            return None;
        }
        let pslot = &nref(parent).interior()[pidx as usize];
        let w = lock_interior_slot(core, pslot, stats);
        if !(slot_tag(w) == TAG_CHILD && slot_ptr(w) == node.addr()) {
            // Unreachable while we hold every leaf slot lock (only a
            // refold severs a linked leaf, and it needs those locks);
            // unwind defensively rather than corrupt the slot.
            unlock_interior_slot(pslot);
            return None;
        }
        // Take the 512 values; the slots stay locked (and are unlocked,
        // on the now-severed node, at guard drop).
        let mut vals = Vec::with_capacity(FANOUT);
        vals.extend(
            self.held(false)
                .flat_map(|(_, pages)| pages)
                .map(|e| match e {
                    Held::Page { status, value, .. } => {
                        let taken = value.take().expect("present slot lost its value");
                        status.store(LOCK_BIT, Ordering::Release);
                        taken
                    }
                    Held::Block { .. } => unreachable!("a leaf unit holds pages"),
                }),
        );
        // Surrender the used-slot references the values represented; the
        // node frees once the guard's pin (and any hint pins) drain.
        // No-collapse trees give nodes a permanent reference; a severed
        // leaf is unreachable from the tree, so surrender it too or the
        // node would never free.
        let permanent = if tree.cfg.collapse { 0 } else { 1 };
        cache.adjust_held(&mut self.held.cells(), node, -(FANOUT as i64 + permanent));
        // The severed leaf's `on_release` will surrender one used-slot
        // reference on the parent; pre-compensate so CHILD → FOLDED
        // keeps the parent's count balanced at one per occupied slot.
        cache.adjust_held(&mut self.held.cells(), parent, 1);
        // Sever the weak reference *before* republishing the slot, so a
        // later true-zero review of the leaf cannot CAS the folded word.
        cache.unregister_weak(node);
        let boxed = Box::into_raw(Box::new(folded)) as usize;
        // Publish the fold with the parent slot lock still held; the
        // guard releases it at drop.
        pslot.store(pack_slot(boxed, TAG_FOLDED) | LOCK_BIT, Ordering::Release);
        self.units.push(Unit::Block {
            node: parent,
            idx: pidx as usize,
            born: false,
        });
        stats.add(core, TreeCounts::folded_values, 1);
        Some(vals)
    }
}

impl<V: RadixValue> Drop for RangeGuard<'_, V> {
    fn drop(&mut self) {
        for unit in self.units.iter() {
            // A born lock is released with its node's `WholeNode` unit.
            if let Unit::LeafRange { born: true, .. } | Unit::Block { born: true, .. } = unit {
                continue;
            }
            let (node, slots) = unit.slots();
            match &nref(node).slots {
                Slots::Leaf(s) => s[slots].iter().for_each(|s| unlock_leaf_slot(&s.status)),
                Slots::Interior(s) => s[slots].iter().for_each(unlock_interior_slot),
            }
        }
        for pin in self.pins.iter() {
            self.tree
                .cache
                .adjust_held(&mut self.held.cells(), *pin, -1);
        }
        if self.units.spilled() || self.pins.spilled() {
            let stats = &self.tree.shared.stats;
            stats.add_core(&self.held.cells(), TreeCounts::guard_spills, 1);
        }
        let core = self.held.core();
        // Release the list descriptor after every slot lock is down so
        // overlapping waiters observe a fully unlocked range.
        if let Some(token) = self.range_token.take() {
            self.tree.range_lock.release(core, token);
        }
    }
}
