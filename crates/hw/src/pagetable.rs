//! Software x86-64-style page tables.
//!
//! A four-level radix table indexed by 9 bits of virtual page number per
//! level, exactly like the hardware structure the paper's MMU abstraction
//! manages (§4). Interior slots hold child-node pointers; leaf slots hold
//! PTEs. All slots are instrumented atomics: on a *shared* page table,
//! concurrent faults installing PTEs contend on real cache lines, which is
//! part of what Figure 9 measures.
//!
//! # Variable granularity
//!
//! A slot at one of the lower *interior* levels may hold a **superpage
//! PTE** instead of a child pointer — the x86 PS bit: one entry maps the
//! whole aligned span its slot covers to a physically contiguous frame
//! block. [`SPAN_PAGES`] is the granularity table: 512 pages (2 MiB) at
//! the last interior level, 512² (1 GiB) one level higher. The span is a
//! *parameter* of one code path, not a path per rung: the walk stops at a
//! superpage entry ([`PageTable::get`] synthesizes the member frame's
//! translation), [`PageTable::set_span`] installs one at the level its
//! span selects, and [`PageTable::shatter_span`] demotes one in place, one
//! rung at a time, into a node of 512 entries of the next span down (the
//! paper-adjacent demotion path: partial munmap of a superpage must not
//! lose the surviving smaller translations).
//! Encoding: a superpage PTE is distinguished from a child pointer by
//! [`Pte::BLOCK`] (bit 2), which is always clear in an aligned pointer
//! tagged with `CHILD_TAG` (bit 0).
//!
//! # Node lifetime
//!
//! Clearing entries ([`PageTable::clear_range`], [`PageTable::clear`])
//! never frees a node. A node is freed in three places: when the table
//! drops, when [`PageTable::set_span`] displaces a cleared subtree, and
//! in [`PageTable::free_range`], which a `munmap` that removed a mapping
//! calls over its range in every table — tracked or not, since an
//! earlier revoke may have cleared a table's entries and its tracking —
//! so that tables follow what is mapped rather than everything ever
//! mapped. Only nodes whose whole span a `munmap` covers come back: a
//! leaf split between two `munmap`s, and the interior nodes above
//! block-sized ones, stay until the table drops. The last two places
//! need the VA-range lock over the nodes they free. A freed node waits
//! zeroed on the table's spare list
//! ([`SPARE_NODES`]), and the table's next node — a walk's missing
//! interior node or a demotion's 512 entries — is taken from there
//! before the allocator is asked.

use std::sync::atomic::{AtomicU64, Ordering};

use rvm_mem::Pfn;
use rvm_sync::{asan_poison, Atomic64, CachePadded, SpinLock};

use crate::{Vpn, VPN_BITS};

/// Bits of VPN consumed per level.
pub const LEVEL_BITS: usize = 9;
/// Slots per node.
pub const NODE_SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels (36-bit VPN / 9).
pub const LEVELS: usize = VPN_BITS / LEVEL_BITS;

/// Pages covered by one slot at table `level` (level 0 = root).
const fn level_span(level: usize) -> u64 {
    1 << (LEVEL_BITS * (LEVELS - 1 - level))
}

/// The granularity table: the page spans one superpage PTE may cover,
/// ascending — an entry at the last interior level, then one level
/// higher (x86's 2 MiB PD and 1 GiB PDPT superpages). Everything that
/// handles superpages, from PTE encoding to the TLB probe, loops over or
/// is parameterized by these spans.
pub const SPAN_PAGES: [u64; 2] = [level_span(LEVELS - 2), level_span(LEVELS - 3)];

/// The smallest superpage span (2 MiB).
pub const BLOCK_PAGES: u64 = SPAN_PAGES[0];

/// The largest superpage span (1 GiB).
pub const GIANT_PAGES: u64 = SPAN_PAGES[1];

/// The highest table level whose slots may hold a superpage PTE; levels
/// above it only ever hold child pointers and are never peeked.
const FIRST_SPAN_LEVEL: usize = LEVELS - 1 - SPAN_PAGES.len();

// A superpage PTE's frame block must be exactly as large as the page span
// its table slot covers; a drift between the pool's block orders and the
// table fanout would map unrelated frames.
const _: () = assert!(1u64 << rvm_mem::BLOCK_ORDER == SPAN_PAGES[0]);
const _: () = assert!(1u64 << rvm_mem::GIANT_ORDER == SPAN_PAGES[1]);

/// The table level whose slots cover `pages` pages each.
#[inline]
fn span_level(pages: u64) -> usize {
    debug_assert!(pages == 1 || SPAN_PAGES.contains(&pages), "span {pages}");
    LEVELS - 1 - pages.trailing_zeros() as usize / LEVEL_BITS
}

/// A page table entry.
///
/// Encoding: `[pfn:32 | reserved | R | B | W | P]`. `B` ([`Pte::BLOCK`],
/// the x86 PS bit) marks a superpage entry installed at an interior
/// level; `R` is its index in [`SPAN_PAGES`]; its `pfn` is the base of a
/// physically contiguous frame block of that span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte(pub u64);

impl Pte {
    /// The non-present entry.
    pub const EMPTY: Pte = Pte(0);
    const PRESENT: u64 = 1 << 0;
    const WRITABLE: u64 = 1 << 1;
    /// Superpage ("page size") bit: the entry is an interior-level leaf
    /// covering [`Pte::span`] pages. Doubles as the discriminant between
    /// superpage PTEs and `CHILD_TAG`-tagged child pointers in
    /// interior slots (aligned pointers never have bit 2 set).
    pub const BLOCK: u64 = 1 << 2;
    /// Position of the [`SPAN_PAGES`] index of a superpage entry. Only
    /// interpreted on words already known to be superpage PTEs, so it
    /// never ambiguates child pointers.
    const RUNG_SHIFT: u32 = 3;
    const RUNG_MASK: u64 = 0b11;

    /// Builds a present PTE.
    pub fn new(pfn: Pfn, writable: bool) -> Pte {
        Pte(((pfn as u64) << 32) | Self::PRESENT | if writable { Self::WRITABLE } else { 0 })
    }

    /// Builds a present PTE translating `pages` pages — 1, or a
    /// [`SPAN_PAGES`] span whose `pfn` is then the base of a contiguous
    /// frame block of that many frames.
    pub fn new_span(pfn: Pfn, writable: bool, pages: u64) -> Pte {
        let span_bits = match SPAN_PAGES.iter().position(|&s| s == pages) {
            Some(rung) => Self::BLOCK | (rung as u64) << Self::RUNG_SHIFT,
            None => {
                debug_assert_eq!(pages, 1, "not a page-table span");
                0
            }
        };
        Pte(Self::new(pfn, writable).0 | span_bits)
    }

    /// Builds a present [`BLOCK_PAGES`] superpage PTE (the 2 MiB spelling
    /// of [`Pte::new_span`]).
    pub fn new_block(pfn: Pfn, writable: bool) -> Pte {
        Self::new_span(pfn, writable, BLOCK_PAGES)
    }

    /// Returns true if the entry is present.
    #[inline]
    pub fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Returns true if the entry permits writes.
    #[inline]
    pub fn writable(self) -> bool {
        self.0 & Self::WRITABLE != 0
    }

    /// Returns true if the entry is a superpage entry (of any span).
    #[inline]
    pub fn block(self) -> bool {
        self.0 & Self::BLOCK != 0
    }

    /// Pages this entry translates.
    #[inline]
    pub fn span(self) -> u64 {
        if self.block() {
            SPAN_PAGES[((self.0 >> Self::RUNG_SHIFT) & Self::RUNG_MASK) as usize]
        } else {
            1
        }
    }

    /// The mapped frame (a superpage entry's base frame).
    #[inline]
    pub fn pfn(self) -> Pfn {
        (self.0 >> 32) as Pfn
    }
}

/// Returns true when an interior slot word holds a superpage PTE rather
/// than a child pointer.
#[inline]
fn is_block_word(v: u64) -> bool {
    v & Pte::BLOCK != 0
}

/// One 512-slot page-table node.
struct PtNode {
    slots: Box<[Atomic64]>,
}

impl PtNode {
    fn new() -> Box<PtNode> {
        Box::new(PtNode {
            slots: (0..NODE_SLOTS).map(|_| Atomic64::new(0)).collect(),
        })
    }

    /// The node a non-zero, non-superpage interior slot word points at.
    ///
    /// # Safety
    ///
    /// `v` must be such a word read from a live table: those always hold
    /// a child pointer published by `child_or_create`/`shatter_word`, and
    /// children are only freed in three places: `Drop` (which requires
    /// `&mut self`), and `set_span` and `free_range`, which unpublish the
    /// child first and whose callers hold the VA-range lock over its whole
    /// span, so no walk that could read the word runs meanwhile.
    #[inline]
    unsafe fn child<'a>(v: u64) -> &'a PtNode {
        debug_assert!(v & CHILD_TAG != 0 && !is_block_word(v));
        &*((v & !CHILD_TAG) as *const PtNode)
    }

    /// [`asan_poison`] over the node's slots: poisoned while the node
    /// waits on a spare list, so a stale pointer that reads it is a
    /// reported use-after-free.
    fn poison(&self, poisoned: bool) {
        asan_poison(
            self.slots.as_ptr() as usize,
            std::mem::size_of_val(&*self.slots),
            poisoned,
        );
    }
}

/// Freed nodes each table keeps for its own next node.
///
/// Measured on the repo benchmark's `superpage` op stream at 16 virtual
/// cores (`tests/locked_instructions.rs`, `radix-leaf` + heap remote
/// lines per op), whose demotions each build a leaf node that the
/// `munmap` after it frees: with none kept, the freed node went to
/// whichever core demoted next, 21.2 lines/op; one kept gives 4.29, and
/// two, four or eight the same within 0.05 (4.40 before nodes were
/// freed at all). Four, as `rvm_radix::SPARE_LEAVES`, also lets an
/// 8 MiB `munmap`'s four leaves come back to the next map of that size,
/// for at most 16 KiB per table.
pub const SPARE_NODES: usize = 4;

/// A four-level software page table for one (address space, core) pair —
/// or a single shared one, depending on the MMU mode.
pub struct PageTable {
    root: Box<PtNode>,
    /// Number of nodes in the table (root included), for space
    /// accounting; spare nodes are free memory and not counted.
    nodes: AtomicU64,
    /// At most [`SPARE_NODES`] freed nodes, every slot zero. The lock is
    /// innermost in the lock order: nothing is taken while it is held.
    /// Padded, so the per-core tables of one MMU share no line. Boxed
    /// as published, so a node taken back allocates nothing.
    #[allow(clippy::vec_box)]
    spare: CachePadded<SpinLock<Vec<Box<PtNode>>>>,
}

/// Interior slots store `Box<PtNode>` pointers tagged with bit 0.
const CHILD_TAG: u64 = 1;

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> PageTable {
        PageTable {
            root: PtNode::new(),
            nodes: AtomicU64::new(1),
            spare: CachePadded::new(SpinLock::new(Vec::new())),
        }
    }

    /// A node with every slot zero: the one this table freed last, or a
    /// fresh one.
    fn take_node(&self) -> Box<PtNode> {
        // The guard drops at the `;`: nothing allocates under it.
        let spare = self.spare.lock().pop();
        match spare {
            Some(node) => {
                node.poison(false);
                node
            }
            None => PtNode::new(),
        }
    }

    /// Zeroes `node` and keeps it on the spare list, or frees it when the
    /// list is full.
    fn free_node(&self, mut node: Box<PtNode>) {
        // The node is unpublished: plain stores, no instrumented access.
        node.slots.iter_mut().for_each(|s| *s.get_mut() = 0);
        let mut spare = self.spare.lock();
        if spare.len() < SPARE_NODES {
            node.poison(true);
            spare.push(node);
        }
    }

    /// Index of `vpn` at `level` (level 0 = root).
    #[inline]
    fn index(vpn: Vpn, level: usize) -> usize {
        let shift = LEVEL_BITS * (LEVELS - 1 - level);
        ((vpn >> shift) as usize) & (NODE_SLOTS - 1)
    }

    /// Publishes `node` in `slot` if the slot still holds `expect`,
    /// counting it; frees it otherwise. Returns the slot's word after
    /// the attempt (the new pointer word on success).
    fn publish(&self, slot: &Atomic64, expect: u64, node: Box<PtNode>) -> Result<u64, u64> {
        let ptr = Box::into_raw(node) as u64 | CHILD_TAG;
        match slot.compare_exchange(expect, ptr, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                self.nodes.fetch_add(1, Ordering::Relaxed);
                Ok(ptr)
            }
            Err(cur) => {
                // Lost the race; free ours.
                // SAFETY: the pointer came from Box::into_raw just above
                // and was never published.
                self.free_node(unsafe { Box::from_raw((ptr & !CHILD_TAG) as *mut PtNode) });
                Err(cur)
            }
        }
    }

    /// The child published in `slot`, whose word the caller just read as
    /// `v` (not a superpage PTE); allocates one when `v` is empty and
    /// `create` is set.
    fn child_or_create<'a>(
        &'a self,
        slot: &'a Atomic64,
        mut v: u64,
        create: bool,
    ) -> Option<&'a PtNode> {
        if v == 0 {
            if !create {
                return None;
            }
            // Losing the install race means using the winner's node.
            v = self
                .publish(slot, 0, self.take_node())
                .unwrap_or_else(|theirs| theirs);
        }
        // SAFETY: a non-zero word in a slot the walk did not stop at.
        Some(unsafe { PtNode::child(v) })
    }

    /// Walks to the node whose slots sit at `level`, optionally
    /// allocating missing interior nodes. Each slot word on the way is
    /// loaded once and is looked at for a superpage PTE only at the
    /// levels that can hold one: a superpage covering `vpn` above `level`
    /// is shattered one rung at a time when `create` is set (the caller
    /// is about to install something smaller), otherwise the walk reports
    /// `None` — use [`PageTable::get`] for span-aware reads.
    fn walk(&self, vpn: Vpn, level: usize, create: bool) -> Option<&PtNode> {
        let mut node: &PtNode = &self.root;
        for l in 0..level {
            let slot = &node.slots[Self::index(vpn, l)];
            let mut v = slot.load(Ordering::Acquire);
            while l >= FIRST_SPAN_LEVEL && is_block_word(v) {
                if !create {
                    return None;
                }
                self.shatter_word(slot, v, l);
                v = slot.load(Ordering::Acquire);
            }
            node = self.child_or_create(slot, v, create)?;
        }
        Some(node)
    }

    /// Replaces the superpage PTE word `v` in `slot` (at `level`) with a
    /// node holding the 512 equivalent entries one rung down: smaller
    /// superpage PTEs, or 4 KiB PTEs below the last interior level.
    /// Returns true if this call did the shatter (false: someone else
    /// changed the slot first).
    fn shatter_word(&self, slot: &Atomic64, v: u64, level: usize) -> bool {
        debug_assert!(is_block_word(v) && Pte(v).span() == level_span(level));
        let pte = Pte(v);
        let member_span = level_span(level + 1);
        // Members differ only in their frame, `member_span` apart.
        let mut member = Pte::new_span(pte.pfn(), pte.writable(), member_span).0;
        let node = self.take_node();
        for s in node.slots.iter() {
            s.store(member, Ordering::Relaxed);
            member += member_span << 32;
        }
        self.publish(slot, v, node).is_ok()
    }

    /// Installs `pte` for `vpn`, returning the previous entry. A
    /// superpage PTE covering `vpn` is shattered first.
    pub fn set(&self, vpn: Vpn, pte: Pte) -> Pte {
        debug_assert!(!pte.block(), "use set_span for superpage PTEs");
        let leaf = self
            .walk(vpn, LEVELS - 1, true)
            .expect("walk(create) cannot fail");
        let idx = Self::index(vpn, LEVELS - 1);
        Pte(leaf.slots[idx].swap(pte.0, Ordering::AcqRel))
    }

    /// Installs `pte` only if the slot currently holds `expect`.
    pub fn set_if(&self, vpn: Vpn, expect: Pte, pte: Pte) -> Result<(), Pte> {
        let leaf = self
            .walk(vpn, LEVELS - 1, true)
            .expect("walk(create) cannot fail");
        let idx = Self::index(vpn, LEVELS - 1);
        leaf.slots[idx]
            .compare_exchange(expect.0, pte.0, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
            .map_err(Pte)
    }

    /// Installs the superpage PTE `pte` over the aligned [`Pte::span`]
    /// pages containing `vpn`, at the level that span selects. Any
    /// existing subtree for the region (its entries were cleared by the
    /// caller's unmap) is freed.
    ///
    /// Contract: the caller holds the VA-range lock for the whole span,
    /// excluding concurrent walks of this range in shared-table
    /// configurations (the radix slot lock provides exactly this).
    pub fn set_span(&self, vpn: Vpn, pte: Pte) {
        debug_assert!(pte.block(), "use set for 4 KiB PTEs");
        let level = span_level(pte.span());
        let node = self
            .walk(vpn, level, true)
            .expect("walk(create) cannot fail");
        let old = node.slots[Self::index(vpn, level)].swap(pte.0, Ordering::AcqRel);
        if old != 0 && !is_block_word(old) {
            // Displaced a (cleared) subtree: reclaim it.
            // SAFETY: the word held an exclusively owned child pointer;
            // the caller's range lock excludes concurrent walkers.
            unsafe { self.free_subtree((old & !CHILD_TAG) as *mut PtNode, level + 1) };
        }
    }

    /// [`PageTable::set_span`] for a [`BLOCK_PAGES`] PTE.
    pub fn set_block(&self, vpn: Vpn, pte: Pte) {
        debug_assert_eq!(pte.span(), BLOCK_PAGES);
        self.set_span(vpn, pte);
    }

    /// Frees `node` and every descendant; `slots_level` is the level its
    /// slots index ([`LEVELS`]` - 1` slots hold PTE values, so a node
    /// there has no children). Superpage PTE words are values, never
    /// followed.
    ///
    /// # Safety
    ///
    /// `node` must be an exclusively owned, unpublished subtree.
    unsafe fn free_subtree(&self, node: *mut PtNode, slots_level: usize) {
        let boxed = Box::from_raw(node);
        if slots_level < LEVELS - 1 {
            for slot in boxed.slots.iter() {
                let v = slot.load(Ordering::Acquire);
                if v != 0 && !is_block_word(v) {
                    self.free_subtree((v & !CHILD_TAG) as *mut PtNode, slots_level + 1);
                }
            }
        }
        self.nodes.fetch_sub(1, Ordering::Relaxed);
        self.free_node(boxed);
    }

    /// Frees every node whose whole span lies inside `[start, start + n)`
    /// — a `munmap`'s range, so the table follows what is mapped. Nodes
    /// the range covers only in part stay, as do the entries of nodes
    /// above; a range that holds no whole leaf span ([`BLOCK_PAGES`])
    /// returns before touching the table.
    ///
    /// Contract, as for [`PageTable::set_span`]'s displaced subtree: the
    /// caller has cleared every entry of the range and holds the VA-range
    /// lock over all of it, so no walk can be inside a node freed here.
    pub fn free_range(&self, start: Vpn, n: u64) {
        if start.next_multiple_of(BLOCK_PAGES) + BLOCK_PAGES > start + n {
            return;
        }
        self.free_level(&self.root, 0, start, start + n);
    }

    /// [`PageTable::free_range`] over the part of `[lo, hi)` under
    /// `node`, whose slots sit at `level` (above the leaves).
    fn free_level(&self, node: &PtNode, level: usize, lo: Vpn, hi: Vpn) {
        let span = level_span(level);
        let mut vpn = lo;
        while vpn < hi {
            let base = vpn & !(span - 1);
            let stop = (base + span).min(hi);
            let slot = &node.slots[Self::index(vpn, level)];
            let v = slot.load(Ordering::Acquire);
            if v != 0 && !is_block_word(v) {
                if lo <= base && base + span <= hi {
                    // The child's whole span is inside: unpublish it.
                    slot.store(0, Ordering::Release);
                    // SAFETY: the word held a child pointer, now
                    // unpublished; the caller's range lock excludes every
                    // walk that could have read it.
                    unsafe { self.free_subtree((v & !CHILD_TAG) as *mut PtNode, level + 1) };
                } else if level + 2 < LEVELS {
                    // SAFETY: a non-zero, non-superpage interior word.
                    self.free_level(unsafe { PtNode::child(v) }, level + 1, vpn, stop);
                }
            }
            vpn = stop;
        }
    }

    /// Demotes the `pages`-page superpage PTE covering `vpn` one rung, in
    /// place, into a node of 512 entries of the next span down (4 KiB
    /// PTEs below [`BLOCK_PAGES`]). No-op if no superpage entry sits at
    /// that level for `vpn`. Returns true when one was shattered.
    pub fn shatter_span(&self, vpn: Vpn, pages: u64) -> bool {
        let level = span_level(pages);
        let Some(node) = self.walk(vpn, level, false) else {
            return false;
        };
        let slot = &node.slots[Self::index(vpn, level)];
        let v = slot.load(Ordering::Acquire);
        is_block_word(v) && self.shatter_word(slot, v, level)
    }

    /// [`PageTable::shatter_span`] for a [`BLOCK_PAGES`] PTE.
    pub fn shatter_block(&self, vpn: Vpn) -> bool {
        self.shatter_span(vpn, BLOCK_PAGES)
    }

    /// Reads the entry for `vpn` (non-allocating). Under a superpage PTE
    /// the member frame's translation is synthesized, with the span bits
    /// kept set so callers can recognize the granularity.
    pub fn get(&self, vpn: Vpn) -> Pte {
        let mut node: &PtNode = &self.root;
        for level in 0..LEVELS - 1 {
            let v = node.slots[Self::index(vpn, level)].load(Ordering::Acquire);
            if v == 0 {
                return Pte::EMPTY;
            }
            if level >= FIRST_SPAN_LEVEL && is_block_word(v) {
                let off = (vpn & (level_span(level) - 1)) as Pfn;
                return Pte(((Pte(v).pfn() + off) as u64) << 32 | (v & 0xFFFF_FFFF));
            }
            // SAFETY: a non-zero, non-superpage interior word.
            node = unsafe { PtNode::child(v) };
        }
        Pte(node.slots[Self::index(vpn, LEVELS - 1)].load(Ordering::Acquire))
    }

    /// Clears the entry for `vpn`, returning the previous entry. A
    /// superpage PTE covering `vpn` is shattered first (a rung per
    /// retry) so only the one page's translation is removed.
    pub fn clear(&self, vpn: Vpn) -> Pte {
        loop {
            if let Some(leaf) = self.walk(vpn, LEVELS - 1, false) {
                return Pte(leaf.slots[Self::index(vpn, LEVELS - 1)].swap(0, Ordering::AcqRel));
            }
            // Either absent or covered by a superpage PTE.
            if !SPAN_PAGES
                .iter()
                .any(|&pages| self.shatter_span(vpn, pages))
            {
                return Pte::EMPTY;
            }
        }
    }

    /// Clears `[start, start + n)`, invoking `f(vpn, pages, pte)` for
    /// each present entry with the number of pages it spanned — 1 for
    /// leaf PTEs, the [`SPAN_PAGES`] span for superpage PTEs, so
    /// frame-release paths can account whole blocks exactly once.
    ///
    /// A superpage PTE overlapping the range is cleared *whole* and
    /// reported with its full span and base VPN (even when the range
    /// covers only part of it); callers that need surviving smaller
    /// translations must demote first via [`PageTable::shatter_span`].
    pub fn clear_range(&self, start: Vpn, n: u64, mut f: impl FnMut(Vpn, u64, Pte)) {
        self.clear_level(&self.root, 0, start, start + n, &mut f);
    }

    /// [`PageTable::clear_range`] over the part of `[lo, hi)` under
    /// `node`, whose slots sit at `level`.
    fn clear_level<F: FnMut(Vpn, u64, Pte)>(
        &self,
        node: &PtNode,
        level: usize,
        lo: Vpn,
        hi: Vpn,
        f: &mut F,
    ) {
        let span = level_span(level);
        let mut vpn = lo;
        while vpn < hi {
            let base = vpn & !(span - 1);
            let stop = (base + span).min(hi);
            let slot = &node.slots[Self::index(vpn, level)];
            if level == LEVELS - 1 {
                let old = Pte(slot.swap(0, Ordering::AcqRel));
                if old.present() {
                    f(vpn, 1, old);
                }
            } else {
                let v = slot.load(Ordering::Acquire);
                if level >= FIRST_SPAN_LEVEL && is_block_word(v) {
                    if slot
                        .compare_exchange(v, 0, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        f(base, span, Pte(v));
                    }
                    // Changed under us: re-examine the same slot.
                    if slot.load(Ordering::Acquire) != 0 {
                        continue;
                    }
                } else if v != 0 {
                    // SAFETY: a non-zero, non-superpage interior word.
                    self.clear_level(unsafe { PtNode::child(v) }, level + 1, vpn, stop, f);
                }
            }
            vpn = stop;
        }
    }

    /// Bytes of memory consumed by table nodes (4 KB-equivalent per node,
    /// as on hardware).
    pub fn bytes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed) * 4096
    }

    /// Number of allocated nodes.
    pub fn node_count(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for PageTable {
    fn drop(&mut self) {
        for slot in self.root.slots.iter() {
            let v = slot.load(Ordering::Acquire);
            if v != 0 {
                // SAFETY: interior slots hold exclusively owned child
                // boxes; `&mut self` guarantees no concurrent walkers.
                unsafe { self.free_subtree((v & !CHILD_TAG) as *mut PtNode, 1) };
            }
        }
        for node in self.spare.get_mut().iter() {
            node.poison(false);
        }
    }
}

// SAFETY: all mutation goes through atomics; child nodes are immutable
// once published.
unsafe impl Send for PageTable {}
// SAFETY: as above.
unsafe impl Sync for PageTable {}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn pte_encoding() {
        let p = Pte::new(42, true);
        assert!(p.present());
        assert!(p.writable());
        assert_eq!(p.pfn(), 42);
        let r = Pte::new(7, false);
        assert!(!r.writable());
        assert!(!Pte::EMPTY.present());
        // The span is part of the encoding, at every granularity.
        assert_eq!((p.span(), p.block()), (1, false));
        assert_eq!(Pte::new_span(42, true, 1), p);
        for span in SPAN_PAGES {
            let s = Pte::new_span(9, false, span);
            assert!(s.present() && s.block() && !s.writable());
            assert_eq!((s.pfn(), s.span()), (9, span));
        }
        assert_eq!(Pte::new_block(3, true), Pte::new_span(3, true, BLOCK_PAGES));
    }

    #[test]
    fn set_get_clear() {
        let pt = PageTable::new();
        assert!(!pt.get(123).present());
        pt.set(123, Pte::new(5, true));
        assert_eq!(pt.get(123).pfn(), 5);
        let old = pt.clear(123);
        assert_eq!(old.pfn(), 5);
        assert!(!pt.get(123).present());
    }

    #[test]
    fn distant_vpns_use_distinct_subtrees() {
        let pt = PageTable::new();
        let a: Vpn = 0;
        let b: Vpn = (1 << 35) - 1; // far end of the VPN space
        pt.set(a, Pte::new(1, false));
        pt.set(b, Pte::new(2, false));
        assert_eq!(pt.get(a).pfn(), 1);
        assert_eq!(pt.get(b).pfn(), 2);
        assert!(pt.node_count() >= 7, "two full paths plus root");
    }

    #[test]
    fn clear_range_reports_present() {
        let pt = PageTable::new();
        for vpn in 10..20 {
            pt.set(vpn, Pte::new(vpn as Pfn, true));
        }
        let mut seen = Vec::new();
        pt.clear_range(5, 20, |vpn, pages, pte| {
            assert_eq!(pages, 1);
            seen.push((vpn, pte.pfn()));
        });
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[0], (10, 10));
        assert!(!pt.get(15).present());
    }

    /// The span one rung below `span` (1 below [`BLOCK_PAGES`]).
    fn rung_below(span: u64) -> u64 {
        span / NODE_SLOTS as u64
    }

    #[test]
    fn span_pte_roundtrip() {
        for span in SPAN_PAGES {
            let pt = PageTable::new();
            let base: Vpn = span * 3;
            pt.set_span(base + 7, Pte::new_span(1000, true, span));
            // Every member page translates to base + offset.
            for off in [0u64, 1, 100, 511, span / 2 + 3, span - 1] {
                let p = pt.get(base + off);
                assert!(p.present() && p.block(), "span {span} offset {off}");
                assert_eq!(p.pfn(), 1000 + off as Pfn);
                assert_eq!(p.span(), span);
                assert!(p.writable());
            }
            assert!(!pt.get(base - 1).present());
            assert!(!pt.get(base + span).present());
            let mut seen = Vec::new();
            pt.clear_range(base, span, |vpn, pages, pte| seen.push((vpn, pages, pte)));
            assert_eq!(seen, vec![(base, span, Pte::new_span(1000, true, span))]);
            assert!(!pt.get(base).present());
        }
    }

    #[test]
    fn span_install_allocates_no_lower_nodes() {
        // A 4 KiB install needs the full path down to a leaf; a span
        // entry terminates the walk early, one node per rung sooner.
        let pt4k = PageTable::new();
        pt4k.set(0, Pte::new(0, false));
        for (rung, span) in SPAN_PAGES.into_iter().enumerate() {
            let pt = PageTable::new();
            pt.set_span(0, Pte::new_span(0, false, span));
            assert_eq!(pt.node_count(), pt4k.node_count() - 1 - rung as u64);
        }
    }

    #[test]
    fn shatter_preserves_translations_one_rung_at_a_time() {
        for span in SPAN_PAGES {
            let pt = PageTable::new();
            let base: Vpn = span * 5;
            pt.set_span(base, Pte::new_span(2000, true, span));
            let with_span = pt.node_count();
            assert!(pt.shatter_span(base + 3, span));
            assert!(!pt.shatter_span(base, span), "second shatter is a no-op");
            assert_eq!(pt.node_count(), with_span + 1, "one node per rung");
            for off in [0u64, 9, 511, span / 2 + 1, span - 1] {
                let p = pt.get(base + off);
                assert!(p.present(), "span {span} offset {off} lost");
                assert_eq!(p.span(), rung_below(span));
                assert_eq!(p.pfn(), 2000 + off as Pfn);
                assert!(p.writable());
            }
            // Clearing a single page cascades the remaining rungs and
            // leaves every other translation.
            let old = pt.clear(base + 9);
            assert_eq!(old.pfn(), 2009);
            assert_eq!(old.span(), 1);
            assert!(!pt.get(base + 9).present());
            assert_eq!(pt.get(base + 10).pfn(), 2010);
            assert_eq!(pt.get(base + span - 1).pfn(), 2000 + (span - 1) as Pfn);
            // ... also straight from an intact span entry.
            pt.set_span(base + span, Pte::new_span(7_000_000, false, span));
            assert_eq!(pt.clear(base + span + 3).pfn(), 7_000_003);
            assert!(!pt.get(base + span + 3).present());
            assert_eq!(pt.get(base + span + 4).pfn(), 7_000_004);
        }
    }

    #[test]
    fn set_over_span_shatters_implicitly() {
        for span in SPAN_PAGES {
            let pt = PageTable::new();
            let base: Vpn = span * 2;
            pt.set_span(base, Pte::new_span(3000, false, span));
            // A 4 KiB install inside the span demotes it (every rung down
            // to a leaf) rather than corrupting the interior slot.
            let old = pt.set(base + 77, Pte::new(7, true));
            assert_eq!(old.pfn(), 3077, "displaced the synthesized member PTE");
            assert_eq!(pt.get(base + 77).pfn(), 7);
            assert_eq!(pt.get(base + 78).pfn(), 3078);
            assert_eq!(pt.get(base + 78).span(), 1);
            // Only the path to the page was demoted.
            assert_eq!(pt.get(base + span - 1).span(), rung_below(span));
        }
    }

    #[test]
    fn clear_range_reports_span_once() {
        for span in SPAN_PAGES {
            let pt = PageTable::new();
            let base: Vpn = span * 8;
            pt.set_span(base, Pte::new_span(4000, true, span));
            pt.set(base - 1, Pte::new(9, false));
            let mut seen = Vec::new();
            // Range partially overlaps the span: the whole entry is
            // cleared and reported exactly once with its full span.
            pt.clear_range(base - 1, 10, |vpn, pages, pte| {
                seen.push((vpn, pages, pte.pfn()));
            });
            assert_eq!(seen, vec![(base - 1, 1, 9), (base, span, 4000)]);
            assert!(!pt.get(base + 100).present());
            // ... also when the range starts strictly inside it.
            pt.set_span(base, Pte::new_span(4000, true, span));
            seen.clear();
            pt.clear_range(base + 10, 20, |vpn, pages, pte| {
                seen.push((vpn, pages, pte.pfn()));
            });
            assert_eq!(seen, vec![(base, span, 4000)]);
            assert!(!pt.get(base).present());
        }
    }

    #[test]
    fn set_span_reclaims_displaced_subtree() {
        for span in SPAN_PAGES {
            let pt = PageTable::new();
            let base: Vpn = span * 3;
            pt.set_span(base, Pte::new_span(1, true, span));
            pt.clear_range(base, span, |_, _, _| {});
            let path_only = pt.node_count();
            // Build a subtree inside the region out of every smaller
            // granularity, clear the entries (callers unmap first), then
            // install the span entry over it.
            pt.set(base + 5, Pte::new(1, true));
            pt.set(base + span - 3, Pte::new(2, true));
            for lower in SPAN_PAGES.into_iter().filter(|&l| l < span) {
                pt.set_span(base + lower * 9, Pte::new_span(3, true, lower));
            }
            assert!(pt.node_count() > path_only);
            pt.clear_range(base, span, |_, _, _| {});
            pt.set_span(base, Pte::new_span(50_000, true, span));
            assert_eq!(pt.node_count(), path_only, "every displaced node reclaimed");
            assert_eq!(pt.get(base + 5).pfn(), 50_005);
        }
    }

    /// Fills every page of `[start, start + n)` with a 4 KiB PTE.
    fn fill(pt: &PageTable, start: Vpn, n: u64) {
        for vpn in start..start + n {
            pt.set(vpn, Pte::new(vpn as Pfn, true));
        }
    }

    /// Clears `[start, start + n)` and frees what it emptied, as `munmap`
    /// does; returns the nodes freed.
    fn clear_and_free(pt: &PageTable, start: Vpn, n: u64) -> u64 {
        pt.clear_range(start, n, |_, _, _| {});
        let before = pt.node_count();
        pt.free_range(start, n);
        before - pt.node_count()
    }

    #[test]
    fn free_range_frees_only_whole_nodes() {
        // Three leaves side by side under one interior node; the range
        // covers the middle one whole and the outer two in part.
        let base: Vpn = GIANT_PAGES * 3 + BLOCK_PAGES * 8;
        let pt = PageTable::new();
        fill(&pt, base, 3 * BLOCK_PAGES);
        assert_eq!(clear_and_free(&pt, base + 100, 2 * BLOCK_PAGES), 1);
        // The partial leaves and their survivors stay.
        assert_eq!(pt.get(base + 99).pfn(), (base + 99) as Pfn);
        assert_eq!(
            pt.get(base + 2 * BLOCK_PAGES + 100).pfn(),
            (base + 2 * BLOCK_PAGES + 100) as Pfn
        );
        assert!(!pt.get(base + BLOCK_PAGES).present());
        // Whole interior nodes go too, with every leaf under them, while
        // a leaf the range starts inside of stays.
        let giant: Vpn = GIANT_PAGES * 5;
        pt.set(giant - 1, Pte::new(1, true));
        for vpn in [giant, giant + 600, giant + GIANT_PAGES - 1] {
            pt.set(vpn, Pte::new(2, true));
        }
        assert_eq!(clear_and_free(&pt, giant - 1, GIANT_PAGES + 1), 4);
        let nodes = pt.node_count();
        pt.set(giant - 2, Pte::new(3, true));
        assert_eq!(pt.node_count(), nodes, "the leaf before the range stays");
    }

    #[test]
    fn free_range_without_a_whole_leaf_touches_nothing() {
        let _sim = rvm_sync::sim::install(1, rvm_sync::CostModel::default());
        let base: Vpn = BLOCK_PAGES * 40;
        let pt = PageTable::new();
        fill(&pt, base, 2 * BLOCK_PAGES);
        let nodes = pt.node_count();
        let before = rvm_sync::sim::stats();
        // Under a leaf span, and longer than one but straddling two.
        for (start, n) in [
            (base, 1),
            (base + 100, 16),
            (base, BLOCK_PAGES - 1),
            (base + 1, BLOCK_PAGES),
            (base + 100, BLOCK_PAGES + 300),
        ] {
            pt.free_range(start, n);
        }
        let after = rvm_sync::sim::stats();
        assert_eq!(pt.node_count(), nodes);
        assert_eq!(after.clocks, before.clocks, "no instrumented access");
        assert_eq!(pt.get(base + 7).pfn(), (base + 7) as Pfn);
    }

    #[test]
    fn a_block_set_cleared_and_freed_leaves_the_path_only() {
        let base: Vpn = BLOCK_PAGES * 77;
        let pt = PageTable::new();
        pt.set_block(base, Pte::new_block(0, true));
        pt.clear_range(base, BLOCK_PAGES, |_, _, _| {});
        let path_only = pt.node_count();
        // 4 KiB entries, and a demoted superpage: one leaf each, which
        // the free gives back.
        fill(&pt, base + 3, 20);
        assert_eq!(clear_and_free(&pt, base, BLOCK_PAGES), 1);
        assert_eq!(pt.node_count(), path_only);
        pt.set_block(base, Pte::new_block(512, true));
        assert!(pt.shatter_block(base));
        assert_eq!(clear_and_free(&pt, base, BLOCK_PAGES), 1);
        assert_eq!(pt.node_count(), path_only);
    }

    #[test]
    fn the_next_shatter_reuses_the_freed_node() {
        let spare = |pt: &PageTable| -> Vec<usize> {
            let list = pt.spare.lock();
            list.iter().map(|n| n.slots.as_ptr() as usize).collect()
        };
        let leaf = |pt: &PageTable, vpn: Vpn| -> usize {
            let node = pt.walk(vpn, LEVELS - 1, false).expect("a leaf");
            node.slots.as_ptr() as usize
        };
        let base: Vpn = BLOCK_PAGES * 90;
        let pt = PageTable::new();
        pt.set_block(base, Pte::new_block(0, true));
        pt.shatter_block(base);
        let freed = leaf(&pt, base);
        clear_and_free(&pt, base, BLOCK_PAGES);
        assert_eq!(spare(&pt), [freed]);
        // Another block, elsewhere in the table: its demotion takes the
        // freed node, zeroed, and fills it.
        let other = base + 7 * BLOCK_PAGES;
        pt.set_block(other, Pte::new_block(5000, false));
        assert!(pt.shatter_block(other));
        assert_eq!(leaf(&pt, other), freed);
        assert!(spare(&pt).is_empty());
        assert_eq!(pt.get(other + 9).pfn(), 5009);
        assert!(!pt.get(base + 9).present());
    }

    #[test]
    fn spans_freed_on_drop() {
        // Drop must not confuse superpage PTEs with child pointers, at
        // any level, intact or shattered.
        let pt = PageTable::new();
        for (i, span) in SPAN_PAGES.into_iter().enumerate() {
            pt.set_span(span * (2 * i as u64 + 2), Pte::new_span(1, true, span));
            pt.set_span(span * (2 * i as u64 + 3), Pte::new_span(1, true, span));
            pt.shatter_span(span * (2 * i as u64 + 3), span);
        }
        pt.set(512, Pte::new(2, true));
        drop(pt);
    }

    /// SplitMix64: the seeded generator of the model test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Random `set` / `set_span` (either rung) / `shatter_span` / `clear`
    /// / `clear_range` / `clear_range` + `free_range` against a flat
    /// per-page model.
    #[test]
    fn random_ops_match_flat_model() {
        type Model = BTreeMap<Vpn, (Pfn, bool)>;
        // Two giant regions, so ops cross every kind of slot boundary.
        const LO: Vpn = GIANT_PAGES * 6;
        const HI: Vpn = LO + 2 * GIANT_PAGES;

        fn check(pt: &PageTable, model: &Model, vpn: Vpn) {
            let p = pt.get(vpn);
            match model.get(&vpn) {
                Some(&(pfn, w)) => {
                    assert!(p.present(), "vpn {vpn:#x} lost");
                    assert_eq!((p.pfn(), p.writable()), (pfn, w), "vpn {vpn:#x}");
                }
                None => assert!(!p.present(), "vpn {vpn:#x} resurrected"),
            }
        }
        fn displace(model: &mut Model, vpn: Vpn, new: Option<(Pfn, bool)>, old: Pte) {
            let was = match new {
                Some(e) => model.insert(vpn, e),
                None => model.remove(&vpn),
            };
            assert_eq!(
                was,
                old.present().then(|| (old.pfn(), old.writable())),
                "displaced entry at {vpn:#x}"
            );
        }
        /// `clear_range` against the model: every reported entry was
        /// mapped (whole, even beyond the range) and nothing in the
        /// range survives.
        fn clear_range(pt: &PageTable, model: &mut Model, start: Vpn, n: u64) {
            pt.clear_range(start, n, |vpn, pages, pte| {
                assert_eq!(pages, pte.span());
                assert_eq!(vpn % pages, 0, "span base misreported");
                for off in 0..pages {
                    let was = model.remove(&(vpn + off));
                    assert_eq!(was, Some((pte.pfn() + off as Pfn, pte.writable())));
                }
            });
            assert!(model.range(start..start + n).next().is_none());
        }

        for seed in 0..3u64 {
            let mut rng = Rng(seed);
            let pt = PageTable::new();
            let mut model = Model::new();
            // Only the path nodes exist under two covering entries.
            pt.set_span(LO, Pte::new_span(0, true, GIANT_PAGES));
            pt.set_span(LO + GIANT_PAGES, Pte::new_span(0, true, GIANT_PAGES));
            let baseline = pt.node_count();
            pt.clear_range(LO, HI - LO, |_, _, _| {});
            for _ in 0..300 {
                // Cluster half the ops so they collide with earlier ones.
                let vpn = match rng.below(2) {
                    0 => LO + rng.below(HI - LO),
                    _ => LO + GIANT_PAGES - 2048 + rng.below(4096),
                };
                let (pfn, w) = (rng.below(1 << 20) as Pfn, rng.below(2) == 0);
                let span = match rng.below(12) {
                    0 => GIANT_PAGES,
                    _ => BLOCK_PAGES,
                };
                let base = vpn & !(span - 1);
                match rng.below(8) {
                    0 | 1 => {
                        let old = pt.set(vpn, Pte::new(pfn, w));
                        displace(&mut model, vpn, Some((pfn, w)), old);
                    }
                    2 => {
                        pt.set_span(vpn, Pte::new_span(pfn, w, span));
                        for off in 0..span {
                            model.insert(base + off, (pfn + off as Pfn, w));
                        }
                        check(&pt, &model, base);
                        check(&pt, &model, base + span - 1);
                    }
                    3 => {
                        // Demotion never changes a translation.
                        let did = pt.shatter_span(vpn, span);
                        assert!(!did || model.contains_key(&vpn));
                        check(&pt, &model, base);
                        check(&pt, &model, base + span - 1);
                    }
                    4 | 5 => {
                        let old = pt.clear(vpn);
                        displace(&mut model, vpn, None, old);
                    }
                    6 => {
                        let n = (1 + rng.below(3 * BLOCK_PAGES)).min(HI - vpn);
                        clear_range(&pt, &mut model, vpn, n);
                    }
                    _ => {
                        // `munmap`: clear, then free what that emptied.
                        let n = (1 + rng.below(3 * span)).min(HI - vpn);
                        clear_range(&pt, &mut model, vpn, n);
                        pt.free_range(vpn, n);
                    }
                }
                check(&pt, &model, vpn);
                for _ in 0..16 {
                    check(&pt, &model, LO + rng.below(HI - LO));
                }
            }
            // Every page agrees, then a full clear plus covering spans
            // returns the table to its baseline shape.
            for vpn in LO - 1..=HI {
                check(&pt, &model, vpn);
            }
            clear_range(&pt, &mut model, LO, HI - LO);
            assert!(model.is_empty());
            pt.set_span(LO, Pte::new_span(0, true, GIANT_PAGES));
            pt.set_span(LO + GIANT_PAGES, Pte::new_span(0, true, GIANT_PAGES));
            assert_eq!(pt.node_count(), baseline, "seed {seed}");
        }
    }

    #[test]
    fn set_if_races() {
        let pt = PageTable::new();
        assert!(pt.set_if(9, Pte::EMPTY, Pte::new(1, false)).is_ok());
        // Second conditional install must observe the first.
        let err = pt.set_if(9, Pte::EMPTY, Pte::new(2, false)).unwrap_err();
        assert_eq!(err.pfn(), 1);
    }

    #[test]
    fn concurrent_installs() {
        let pt = std::sync::Arc::new(PageTable::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let pt = pt.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    let vpn = t * 1_000_000 + i * 7;
                    pt.set(vpn, Pte::new((t * 10_000 + i) as Pfn, true));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..1_000u64 {
                let vpn = t * 1_000_000 + i * 7;
                assert_eq!(pt.get(vpn).pfn(), (t * 10_000 + i) as Pfn);
            }
        }
    }

    #[test]
    fn bytes_accounting() {
        let pt = PageTable::new();
        let base = pt.bytes();
        pt.set(0, Pte::new(1, false));
        assert!(pt.bytes() > base);
    }
}
