//! Slot-backed Refcache storage: count cells embedded in external tables.
//!
//! Boxed storage ([`crate::RcPtr`]) heap-allocates one `RcBox` per
//! object and frees it when the count is confirmed zero. That is right
//! for objects whose *identity* is an allocation (radix-tree nodes), but
//! wrong for objects that already have a canonical, statically-indexed
//! home — physical frames. The paper's kernel keeps page reference
//! counts in the frame table ("pages_info array", §3.1) precisely so a
//! page fault never allocates or frees count metadata; the per-object
//! heap headers it avoids are the recycled cache lines that show up as
//! residual cross-core traffic once everything else is sharded
//! (DESIGN.md §6/§8).
//!
//! A [`CountSlot`] is the embeddable form of the same machinery: the
//! identical [`Header`] the delta caches, epoch flush, review queues,
//! and dirty-zero protocol already operate on, placed *inside* a table
//! entry instead of at the head of a box. Three things differ from
//! boxed storage, all at the edges:
//!
//! * **Birth**: [`crate::Refcache::activate`] arms a dormant cell with
//!   an initial count — no allocation, no `alloc_ns` charge.
//! * **Death**: when the count is a true zero the cell resets to dormant
//!   and its payload action ([`SlotManaged::on_zero`]) runs — for a
//!   frame slot, the frame returns to the pool. A zero applied by the
//!   cell's only adder (the only core that added references to it since
//!   activation) is true at once: inside the [`crate::Refcache::surrender`]
//!   that gave up the last reference, so a frame comes back inside its
//!   unmap, or at the next review when a flush applied it. Any other zero
//!   is confirmed by review two epochs later, as a boxed object's is. No
//!   memory is freed; the same cell is re-activated when the table
//!   entry's resource is reused.
//! * **No weak references**: table entries are revived by re-activation
//!   (the resource allocator hands them out again), not `tryget`.
//!
//! The freeing-safety argument of the module docs in [`crate`] carries
//! over verbatim — it only ever reasons about header addresses, and a
//! table cell's address is even more stable than a box's (the table
//! outlives every activation) — and its last point is what lets a cell
//! skip the wait. Re-activation after a zero-action is sound for the
//! same reason malloc reusing a freed box's address is: the action only
//! runs when provably no core caches a non-zero delta for the address,
//! and the next activation starts the count, and the adders, from
//! scratch.

use std::ptr::NonNull;
use std::sync::atomic::AtomicUsize;

use rvm_sync::SpinLock;

use crate::obj::{Counted, Header, ObjState, ReleaseCtx};

/// Payload of a table-embedded count cell.
///
/// Unlike [`crate::Managed`], the action takes `&self`: the cell stays
/// embedded in a shared table (no exclusive ownership to reconstruct),
/// so any mutable state the action needs must use interior mutability.
pub trait SlotManaged: Send + Sync + 'static {
    /// The zero-count action, run exactly once per activation when the
    /// cell's true count is confirmed zero. The cell has already been
    /// reset to dormant; the moment this function makes the underlying
    /// resource reallocatable, the cell may be re-activated (possibly
    /// concurrently, by whichever core re-acquires the resource).
    ///
    /// It runs holding `ctx.core`'s `CoreLock`, which it reaches the
    /// core's cells through ([`ReleaseCtx::with_held`]); its own locks
    /// come after that one in the lock order (`rvm_sync::corelock`).
    fn on_zero(&self, ctx: &ReleaseCtx<'_>);
}

/// An embeddable Refcache count cell: the slot-backed analogue of a
/// heap `RcBox`. Lives inside a table entry owned by someone else (the
/// frame table); Refcache manages only the count lifecycle.
///
/// The 16-byte alignment keeps header addresses compatible with the
/// packed-word encodings used elsewhere in the cache.
#[repr(C, align(16))]
pub struct CountSlot<T: SlotManaged> {
    hdr: Header,
    obj: T,
}

impl<T: SlotManaged> CountSlot<T> {
    /// Creates a dormant cell (count zero, no activation outstanding).
    pub fn new(obj: T) -> Self {
        CountSlot {
            hdr: Header {
                state: SpinLock::new(ObjState::new(0)),
                weak: AtomicUsize::new(0),
                drop_fn: slot_drop_impl::<T>,
                slot_backed: true,
            },
            obj,
        }
    }

    /// The embedded payload.
    pub fn get(&self) -> &T {
        &self.obj
    }

    /// A copyable handle to this cell, usable with
    /// [`crate::Refcache::inc`]/[`crate::Refcache::dec`].
    pub fn handle(&self) -> SlotPtr<T> {
        SlotPtr {
            // SAFETY: a reference is never null.
            raw: unsafe { NonNull::new_unchecked(self as *const _ as *mut CountSlot<T>) },
        }
    }
}

/// A typed handle to a table-embedded count cell.
///
/// Like [`crate::RcPtr`], a `SlotPtr` is a plain copyable pointer that
/// does not own a reference by itself; the holder follows the logical
/// reference discipline (each dereference covered by an outstanding
/// activation count or un-decremented `inc`). Unlike `RcPtr`, the
/// pointee's *memory* is always valid — the table outlives the cache —
/// so a stale handle can at worst observe a dormant or re-activated
/// cell, never freed memory.
pub struct SlotPtr<T: SlotManaged> {
    raw: NonNull<CountSlot<T>>,
}

impl<T: SlotManaged> Clone for SlotPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: SlotManaged> Copy for SlotPtr<T> {}

impl<T: SlotManaged> PartialEq for SlotPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<T: SlotManaged> Eq for SlotPtr<T> {}

impl<T: SlotManaged> std::fmt::Debug for SlotPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotPtr({:p})", self.raw)
    }
}

// SAFETY: points into a table whose entries are `Send + Sync` (required
// by `SlotManaged`); the pointer itself may move freely between threads.
unsafe impl<T: SlotManaged> Send for SlotPtr<T> {}
// SAFETY: as above; header mutation goes through its lock.
unsafe impl<T: SlotManaged> Sync for SlotPtr<T> {}

impl<T: SlotManaged> SlotPtr<T> {
    /// Borrows the payload.
    ///
    /// # Safety
    ///
    /// The cell's table must still be live (for handles obtained through
    /// a live table reference this always holds).
    #[inline]
    pub unsafe fn as_ref<'a>(self) -> &'a T {
        &(*self.raw.as_ptr()).obj
    }

    /// Raw cell address (stable for the table's lifetime).
    #[inline]
    pub fn addr(self) -> usize {
        self.raw.as_ptr() as usize
    }
}

impl<T: SlotManaged> Counted for SlotPtr<T> {
    const SLOT_BACKED: bool = true;

    #[inline]
    fn count_addr(self) -> usize {
        // `CountSlot` is `repr(C)` with the header first.
        self.raw.as_ptr() as usize
    }
}

/// Type-erased zero-count action for slot-backed cells: run the payload
/// action. The cell was already reset to dormant, under the state lock
/// its zero was confirmed with (by review, or by the only adder's
/// evict or surrender) — *before* this runs,
/// so that the action (which typically returns a resource to an
/// allocator) publishes a cell that is immediately re-activatable.
///
/// # Safety
///
/// `h` must point to the header of a live `CountSlot<T>` whose true
/// count review confirmed zero.
pub(crate) unsafe fn slot_drop_impl<T: SlotManaged>(h: *mut Header, ctx: &ReleaseCtx<'_>) {
    let slot = &*(h as *const CountSlot<T>);
    // Checked on host threads only: under the simulator the state lock
    // is a line event, and debug and release builds must price alike.
    debug_assert!(
        rvm_sync::sim::active() || {
            let st = slot.hdr.state.lock();
            st.refcnt == 0 && !st.on_review && !st.dirty
        },
        "slot released before review reset it to dormant"
    );
    slot.obj.on_zero(ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Refcache;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Zeroed {
        hits: Arc<AtomicU64>,
    }

    impl SlotManaged for Zeroed {
        fn on_zero(&self, _ctx: &ReleaseCtx<'_>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn cell() -> (Box<CountSlot<Zeroed>>, Arc<AtomicU64>) {
        let hits = Arc::new(AtomicU64::new(0));
        (
            Box::new(CountSlot::new(Zeroed { hits: hits.clone() })),
            hits,
        )
    }

    #[test]
    fn activate_dec_runs_zero_action_lazily() {
        let rc = Refcache::new(1);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.dec(0, slot.handle());
        assert_eq!(hits.load(Ordering::SeqCst), 0, "action must be lazy");
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        let st = rc.stats();
        assert_eq!(st.slot_activates, 1);
        assert_eq!(st.slot_releases, 1);
        assert_eq!(st.allocs, 0, "slot storage must not count as boxed");
        assert_eq!(st.frees, 0);
    }

    #[test]
    fn cell_is_reusable_after_release() {
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        for round in 1..=5u64 {
            rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
            rc.inc(1, slot.handle());
            rc.dec(0, slot.handle());
            rc.quiesce();
            assert_eq!(hits.load(Ordering::SeqCst), round - 1, "held by inc");
            rc.dec(1, slot.handle());
            rc.quiesce();
            assert_eq!(hits.load(Ordering::SeqCst), round);
        }
        assert_eq!(rc.stats().slot_activates, 5);
        assert_eq!(rc.stats().slot_releases, 5);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn false_zero_from_reordered_flushes_does_not_release() {
        // Figure 1's scenario on slot storage: a dec flushes before the
        // matching inc, producing a transient global zero.
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(0, slot.handle());
        rc.dec(1, slot.handle());
        rc.flush(1); // global 1 - 1 = 0 → queued (false zero)
        rc.review(1);
        rc.flush(0); // global back to 1, dirty
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "false zero released");
        rc.dec(0, slot.handle());
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(rc.stats().revivals >= 1, "false zero must revive");
    }

    #[test]
    fn only_adders_first_maintain_releases_the_cell() {
        // Core 1 never ticks, so no epoch passes: only the sole-adder
        // rule can release the cell.
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(0, slot.handle());
        rc.adjust(0, slot.handle(), -2);
        assert_eq!(rc.live_slots(), 1, "nothing before the tick");
        let epoch = rc.epoch();
        rc.maintain(0);
        assert_eq!(rc.epoch(), epoch, "core 1 never flushed");
        assert_eq!(rc.live_slots(), 0);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // A cell nobody added to is released by whichever core applies
        // its zero.
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.dec(1, slot.handle());
        rc.maintain(1);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_sole_adders_surrender_releases_the_cell_before_it_returns() {
        // Core 1 never ticks and nobody flushes: the surrender itself
        // runs the action.
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(0, slot.handle());
        assert!(!rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 1, 1));
        assert_eq!(hits.load(Ordering::SeqCst), 0, "one reference left");
        rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 1, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0, "exact with no tick");
        assert_eq!(rc.stats().flushes, 0);
        // The way the release zeroed applies nothing at the next flush.
        rc.maintain(0);
        assert_eq!(rc.global_count(slot.handle()), 0);
        // A cell nobody added to is released by whichever core's
        // surrender brings it to zero.
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.surrender(&mut rc.lock(1).cells(), slot.handle(), 1, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_foreign_adders_cell_still_waits_for_review_after_a_surrender() {
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(1, slot.handle());
        rc.surrender(&mut rc.lock(1).cells(), slot.handle(), 1, 1);
        // Global 1 plus core 0's -1 is zero, but core 1 added.
        rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 1, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(rc.live_slots(), 1);
        rc.maintain(1);
        let queued = rc.epoch();
        rc.maintain(0); // global zero: on review from here
        for _ in 0..4 {
            rc.maintain(0);
        }
        assert_eq!(rc.epoch(), queued + 1, "core 1 has not flushed again");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "released before two epochs");
        rc.maintain(1);
        rc.maintain(0);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_block_head_surrendering_part_of_its_references_releases_nothing() {
        let rc = Refcache::new(1);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 512);
        rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 16, 16);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(rc.global_count(slot.handle()), 512 - 16);
        rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 512 - 16, 512 - 16);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_reference_added_on_one_core_is_not_released_by_anothers_surrender() {
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        // Cached on core 0: the true count is 2.
        rc.inc(0, slot.handle());
        // Core 1 gives that reference up: global 1 plus its -1 is zero,
        // but core 0, not core 1, added.
        rc.surrender(&mut rc.lock(1).cells(), slot.handle(), 1, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "released a live cell");
        // Core 0's own surrender leaves core 1's -1 cached: no final zero.
        rc.surrender(&mut rc.lock(0).cells(), slot.handle(), 1, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(rc.live_slots(), 1);
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_foreign_adder_keeps_the_cell_on_review_for_two_epochs() {
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(1, slot.handle());
        rc.dec(1, slot.handle());
        rc.dec(0, slot.handle());
        rc.maintain(1); // a net zero delta: nothing applied
        let queued = rc.epoch();
        rc.maintain(0); // global zero, but core 1 added: review
        for _ in 0..4 {
            rc.maintain(0);
        }
        assert_eq!(rc.epoch(), queued + 1, "core 1 has not flushed again");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "released before two epochs");
        rc.maintain(1);
        rc.maintain(0);
        assert_eq!(rc.epoch(), queued + 2);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn a_sweeper_flushing_for_the_adder_releases_the_cell() {
        let rc = Arc::new(Refcache::new(2));
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(0, slot.handle());
        rc.adjust(0, slot.handle(), -2);
        let sweeper = rc.clone();
        std::thread::spawn(move || sweeper.flush(0)).join().unwrap();
        assert_eq!(rc.live_slots(), 0, "decided at the sweeper's flush");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "run at the next review");
        let sweeper = rc.clone();
        std::thread::spawn(move || sweeper.review(0))
            .join()
            .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_conflict_eviction_releases_the_cell_too() {
        let rc = Refcache::with_cache_slots(1, 1);
        let (a, a_hits) = cell();
        let (b, _) = cell();
        rc.activate(&rc.lock(0).cells(), a.handle(), 1);
        rc.activate(&rc.lock(0).cells(), b.handle(), 1);
        rc.dec(0, a.handle());
        rc.inc(0, b.handle()); // evicts a's delta: a true zero
        assert_eq!(rc.live_slots(), 1);
        rc.review(0);
        assert_eq!(a_hits.load(Ordering::SeqCst), 1);
        rc.adjust(0, b.handle(), -2);
        rc.quiesce();
        assert_eq!(rc.live_slots(), 0);
    }

    #[test]
    fn adders_reset_at_reactivation() {
        let rc = Refcache::new(2);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.inc(1, slot.handle());
        rc.dec(1, slot.handle());
        rc.dec(0, slot.handle());
        rc.maintain(0);
        assert_eq!(hits.load(Ordering::SeqCst), 0, "core 1 added");
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The next activation starts with no adders: core 0's tick
        // releases it although core 1 added to the last one.
        rc.activate(&rc.lock(0).cells(), slot.handle(), 1);
        rc.dec(0, slot.handle());
        rc.maintain(0);
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    /// A zero action that takes a reference on another cell through the
    /// lent lock, as a radix node's release adjusts its parent: in a
    /// one-way delta cache that evicts whatever the way held.
    struct TakesAnother {
        another: SlotPtr<Zeroed>,
    }

    impl SlotManaged for TakesAnother {
        fn on_zero(&self, ctx: &ReleaseCtx<'_>) {
            ctx.with_held(|held| ctx.cache.adjust_held(held, self.another, 1));
        }
    }

    #[test]
    fn a_release_queued_during_a_pass_outlives_the_pass() {
        let rc = Refcache::with_cache_slots(1, 1);
        let (other, hits) = cell();
        let (another, _) = cell();
        let first = CountSlot::new(TakesAnother {
            another: another.handle(),
        });
        rc.activate(&rc.lock(0).cells(), first.handle(), 1);
        rc.activate(&rc.lock(0).cells(), other.handle(), 1);
        rc.activate(&rc.lock(0).cells(), another.handle(), 1);
        rc.dec(0, first.handle());
        rc.flush(0); // a final zero: `first` waits for the next review
        rc.dec(0, other.handle()); // cached in the one way

        // The pass runs `first`, whose adjust evicts `other` to its final
        // zero: queued while the pass has its list out.
        rc.review(0);
        assert_eq!(rc.live_slots(), 1, "only `another` is live");
        assert_eq!(hits.load(Ordering::SeqCst), 0, "not run in that pass");
        rc.review(0);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the release was lost");
        rc.dec(0, another.handle());
        rc.dec(0, another.handle());
        rc.quiesce();
    }

    #[test]
    fn init_count_covers_many_references() {
        let rc = Refcache::new(1);
        let (slot, hits) = cell();
        rc.activate(&rc.lock(0).cells(), slot.handle(), 512);
        for _ in 0..511 {
            rc.dec(0, slot.handle());
        }
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        rc.dec(0, slot.handle());
        rc.quiesce();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    /// A recyclable resource cell: the zero action pushes the cell's id
    /// back onto a free list — the same handoff shape as the frame
    /// table, where `on_zero` returns the frame to the pool and only
    /// then may the cell be re-activated.
    struct Recyclable {
        id: usize,
        free: Arc<std::sync::Mutex<Vec<usize>>>,
        hits: Arc<AtomicU64>,
    }

    impl SlotManaged for Recyclable {
        fn on_zero(&self, _ctx: &ReleaseCtx<'_>) {
            self.hits.fetch_add(1, Ordering::SeqCst);
            self.free.lock().unwrap().push(self.id);
        }
    }

    #[test]
    fn stress_slot_churn_real_threads() {
        // Four threads recycle activations of their own cell pools plus
        // shared inc/dec traffic on one cell; every activation must run
        // its zero action exactly once before the cell is reused.
        const CELLS: usize = 8;
        let rc = Arc::new(Refcache::new(4));
        let shared_hits = Arc::new(AtomicU64::new(0));
        let shared = Arc::new(CountSlot::new(Zeroed {
            hits: shared_hits.clone(),
        }));
        rc.activate(&rc.lock(0).cells(), shared.handle(), 1);
        let total_hits = Arc::new(AtomicU64::new(0));
        let total_activations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let rc = rc.clone();
            let shared = shared.clone();
            let total_hits = total_hits.clone();
            let total_activations = total_activations.clone();
            handles.push(std::thread::spawn(move || {
                let free = Arc::new(std::sync::Mutex::new((0..CELLS).collect::<Vec<_>>()));
                let cells: Vec<CountSlot<Recyclable>> = (0..CELLS)
                    .map(|id| {
                        CountSlot::new(Recyclable {
                            id,
                            free: free.clone(),
                            hits: total_hits.clone(),
                        })
                    })
                    .collect();
                let mut activations = 0u64;
                for i in 0..2_000u64 {
                    // Reuse a cell only after its previous activation's
                    // zero action recycled it (the activate contract).
                    let id = free.lock().unwrap().pop();
                    if let Some(id) = id {
                        rc.activate(&rc.lock(core).cells(), cells[id].handle(), 1);
                        activations += 1;
                        rc.inc(core, cells[id].handle());
                        rc.dec(core, cells[id].handle());
                        rc.dec(core, cells[id].handle());
                    }
                    rc.inc(core, shared.handle());
                    rc.dec(core, shared.handle());
                    if i % 16 == 0 {
                        rc.maintain(core);
                    }
                }
                total_activations.fetch_add(activations, Ordering::SeqCst);
                // Drain everything referring to the stack cells before
                // they go out of scope.
                rc.quiesce();
                assert_eq!(free.lock().unwrap().len(), CELLS, "cells leaked");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        rc.quiesce();
        let activations = total_activations.load(Ordering::SeqCst);
        assert!(activations > 0);
        assert_eq!(total_hits.load(Ordering::SeqCst), activations);
        assert_eq!(shared_hits.load(Ordering::SeqCst), 0, "shared still held");
        rc.dec(0, shared.handle());
        rc.quiesce();
        assert_eq!(shared_hits.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_slots(), 0);
    }
}
