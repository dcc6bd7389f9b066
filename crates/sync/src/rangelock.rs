//! A list-based scalable range lock (Kogan, Dice & Issa, *Scalable
//! Range Locks for Scalable Address Spaces and Beyond*).
//!
//! Acquiring `[lo, hi)` enqueues a *range descriptor* into a sorted
//! lock-free linked list; presence in the list **is** ownership of the
//! range. Because holders are mutually disjoint, the list is totally
//! ordered by `lo`. An acquirer walks the list once: descriptors
//! entirely before its range are skipped, the first descriptor at or
//! past it marks the insertion point, and an *overlapping* descriptor
//! is the one thing worth waiting for — the waiter spins (bounded
//! exponential backoff, [`crate::backoff::Backoff`]) on that
//! descriptor alone, not on the list head, so disjoint acquirers never
//! exchange the same cache line.
//!
//! Release marks the descriptor's own `next` word (logical delete — a
//! single-word operation waiters observe directly), physically unlinks
//! it, and recycles it through a per-core cache, so steady-state
//! acquisition touches only the sentinel line plus core-local lines.
//!
//! # Simulator accounting
//!
//! All list words are instrumented atomics, so traversal and insertion
//! pay MESI line costs like any other shared structure. Hold-window
//! serialization cannot come from real spinning (virtual cores run one
//! op at a time, so the list is empty whenever a simulated op begins):
//! instead [`sim::range_lock_acquire`] consults a per-lock history of
//! released intervals and advances the acquirer's clock past the
//! latest *overlapping* release, charging the difference as lock wait.
//! Disjoint ranges never wait — the property the whole design exists
//! to provide — while overlapping ops serialize exactly as a real
//! waiter would.
//!
//! # Invariants
//!
//! * Descriptors in the list are disjoint and sorted by `lo`; the
//!   sentinel head is never marked or removed.
//! * A descriptor's `next` word carries the logical-delete mark
//!   (bit 0), so marking a node atomically invalidates every pending
//!   CAS on it — insertion after a released node cannot succeed.
//! * Only the owner physically unlinks its descriptor (in `release`),
//!   and a descriptor is recycled only after its unlink completed, so
//!   a descriptor reachable from the list is never concurrently
//!   reused-in-place. Traversals that raced a recycle revalidate
//!   neighbors by their `seq` generation and retract on mismatch.
//! * A thread never acquires a range overlapping one it already holds
//!   on the same lock (self-deadlock); `RadixTree` guarantees this by
//!   holding at most one guard per tree per core.

use std::sync::atomic::Ordering::SeqCst;

use crate::atomic::{Atomic64, AtomicPtr64};
use crate::backoff::Backoff;
use crate::lock::SpinLock;
use crate::pad::CachePadded;
use crate::{sim, MAX_CORES};

/// Which substrate realizes `RadixTree::lock_range`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RangeLockKind {
    /// Per-leaf-slot CAS spin locks only (the original substrate): a
    /// k-page range costs k CAS's on k status words, and overlapping
    /// rangers fight slot by slot.
    SlotSpin,
    /// The list-based range lock in front of the slot locks: multi-page
    /// acquisitions serialize on one descriptor per overlap instead of
    /// fighting per slot; disjoint acquisitions share nothing but the
    /// sentinel line.
    #[default]
    List,
}

impl RangeLockKind {
    /// Stable lowercase name (the bench records' substrate keys).
    pub fn name(self) -> &'static str {
        match self {
            RangeLockKind::SlotSpin => "slotspin",
            RangeLockKind::List => "list",
        }
    }
}

/// Logical-delete mark in a descriptor's `next` word.
const MARK: u64 = 1;

/// One range acquisition. Fits one cache line; `next` carries the
/// [`MARK`] bit, `seq` counts reuses so stale traversals can detect a
/// recycled neighbor.
#[repr(align(64))]
#[derive(Default)]
struct Desc {
    lo: Atomic64,
    hi: Atomic64,
    seq: Atomic64,
    next: Atomic64,
}

/// Proof of an acquisition; must be passed back to [`RangeLock::release`].
#[derive(Debug)]
pub struct RangeToken {
    desc: usize,
}

/// The list-based range lock. See the module docs for the protocol.
pub struct RangeLock {
    /// Sentinel: its `next` is the list head; never holds a range.
    head: Box<Desc>,
    /// Per-core single-descriptor recycle slots (0 = empty).
    cache: Vec<CachePadded<AtomicPtr64>>,
    /// Overflow recycle pool (only touched when a core holds two
    /// descriptors at once, which the tree never does).
    spare: SpinLock<Vec<usize>>,
    /// Every descriptor ever allocated, for deallocation on drop.
    all: SpinLock<Vec<usize>>,
}

impl Default for RangeLock {
    fn default() -> Self {
        RangeLock::new()
    }
}

impl RangeLock {
    /// Creates an empty range lock.
    pub fn new() -> Self {
        let mut cache = Vec::with_capacity(MAX_CORES);
        cache.resize_with(MAX_CORES, || CachePadded::new(AtomicPtr64::new(0)));
        RangeLock {
            head: Box::default(),
            cache,
            spare: SpinLock::new(Vec::new()),
            all: SpinLock::new(Vec::new()),
        }
    }

    /// The lock's identity for simulator accounting ([`sim::range_lock_acquire`]).
    #[inline]
    pub fn sim_addr(&self) -> usize {
        &*self.head as *const Desc as usize
    }

    /// Acquires `[lo, hi)`, waiting for any overlapping holder.
    pub fn acquire(&self, core: usize, lo: u64, hi: u64) -> RangeToken {
        let desc = self.prep(core, lo, hi);
        // Virtual-time first: wait out the latest overlapping release,
        // then pay the list's line traffic at the post-wait clock.
        sim::range_lock_acquire(self.sim_addr(), lo, hi);
        self.insert(desc, lo, hi, false);
        RangeToken {
            desc: desc as usize,
        }
    }

    /// Attempts to acquire `[lo, hi)` without waiting; fails on overlap
    /// with a current holder. (Under the simulator a structural overlap
    /// cannot be observed — ops run to completion — so this is
    /// primarily the oracle-testing and opportunistic-caller surface.)
    pub fn try_acquire(&self, core: usize, lo: u64, hi: u64) -> Option<RangeToken> {
        let desc = self.prep(core, lo, hi);
        if self.insert(desc, lo, hi, true) {
            sim::range_lock_acquire(self.sim_addr(), lo, hi);
            Some(RangeToken {
                desc: desc as usize,
            })
        } else {
            self.put_desc(core, desc);
            None
        }
    }

    /// Releases an acquisition: logical delete (mark), physical unlink,
    /// then recycle. Waiters observe the mark and re-traverse.
    pub fn release(&self, core: usize, token: RangeToken) {
        let desc = token.desc as *mut Desc;
        let d = unsafe { &*desc };
        let (lo, hi) = (d.lo.load(SeqCst), d.hi.load(SeqCst));
        let prev = d.next.fetch_or(MARK, SeqCst);
        debug_assert_eq!(prev & MARK, 0, "range descriptor released twice");
        self.unlink(desc);
        sim::range_lock_release(self.sim_addr(), lo, hi);
        self.put_desc(core, desc);
    }

    /// Takes a descriptor for `core` and stamps the range onto it. The
    /// `seq` bump comes *after* the field stores: a traverser that
    /// revalidates `seq` around a decision is then guaranteed to have
    /// seen fields at least as new as the generation it validated.
    fn prep(&self, core: usize, lo: u64, hi: u64) -> *mut Desc {
        debug_assert!(lo < hi, "empty or inverted range [{lo}, {hi})");
        let desc = self.take_desc(core);
        let d = unsafe { &*desc };
        d.lo.store(lo, SeqCst);
        d.hi.store(hi, SeqCst);
        d.seq.fetch_add(1, SeqCst);
        desc
    }

    fn take_desc(&self, core: usize) -> *mut Desc {
        let p = self.cache[core].swap(0, SeqCst);
        if p != 0 {
            return p as *mut Desc;
        }
        if let Some(p) = self.spare.lock().pop() {
            return p as *mut Desc;
        }
        sim::charge_alloc();
        let p = Box::into_raw(Box::<Desc>::default());
        self.all.lock().push(p as usize);
        p
    }

    fn put_desc(&self, core: usize, desc: *mut Desc) {
        if self.cache[core]
            .compare_exchange(0, desc as usize, SeqCst, SeqCst)
            .is_err()
        {
            self.spare.lock().push(desc as usize);
        }
    }

    /// Inserts `desc` at its sorted position once no live descriptor
    /// overlaps `[lo, hi)`. Returns false only in `try_only` mode.
    fn insert(&self, desc: *mut Desc, lo: u64, hi: u64, try_only: bool) -> bool {
        let head = &*self.head as *const Desc;
        let mut backoff = Backoff::new();
        'retry: loop {
            let mut pred = head;
            let mut pred_seq = unsafe { (*pred).seq.load(SeqCst) };
            loop {
                let pnx = unsafe { (*pred).next.load(SeqCst) };
                if pnx & MARK != 0 {
                    // pred was released under us; its position is gone.
                    continue 'retry;
                }
                if pnx == 0 {
                    // Tail: everything in the list ends before `lo`.
                    unsafe { (*desc).next.store(0, SeqCst) };
                    if self.publish(pred, pnx, desc) {
                        if unsafe { (*pred).seq.load(SeqCst) } == pred_seq {
                            return true;
                        }
                        // pred was recycled between our position check
                        // and the CAS (unlink + reuse + reinsert at the
                        // same spot): undo and retry.
                        self.retract(desc);
                    }
                    continue 'retry;
                }
                let cur = pnx as *const Desc;
                let c = unsafe { &*cur };
                let cur_seq = c.seq.load(SeqCst);
                let cnx = c.next.load(SeqCst);
                if cnx & MARK != 0 {
                    // cur is released but not yet unlinked; its owner is
                    // doing that right now inside release().
                    assert!(
                        !sim::active(),
                        "rangelock: marked descriptor visible under the simulator"
                    );
                    backoff.pause();
                    continue 'retry;
                }
                let (cur_lo, cur_hi) = (c.lo.load(SeqCst), c.hi.load(SeqCst));
                if cur_hi <= lo {
                    // Entirely before us: walk past.
                    pred = cur;
                    pred_seq = cur_seq;
                    continue;
                }
                if cur_lo >= hi {
                    // Entirely after us: insert between pred and cur.
                    unsafe { (*desc).next.store(pnx, SeqCst) };
                    if self.publish(pred, pnx, desc) {
                        if unsafe { (*pred).seq.load(SeqCst) } == pred_seq
                            && c.seq.load(SeqCst) == cur_seq
                        {
                            return true;
                        }
                        self.retract(desc);
                    }
                    continue 'retry;
                }
                // Overlap with a live holder.
                if try_only {
                    return false;
                }
                assert!(
                    !sim::active(),
                    "rangelock: waiting on an overlapping holder under the simulator \
                     (simulated ops must release before the next op runs)"
                );
                // Spin on this one descriptor — not the list — until its
                // holder releases (mark) or it is recycled (seq moves).
                loop {
                    if c.next.load(SeqCst) & MARK != 0 || c.seq.load(SeqCst) != cur_seq {
                        break;
                    }
                    backoff.pause();
                }
                continue 'retry;
            }
        }
    }

    /// The insertion CAS. Expects `pnx` unmarked, so it fails if `pred`
    /// was released (mark changes the word) or restructured.
    #[inline]
    fn publish(&self, pred: *const Desc, pnx: u64, desc: *mut Desc) -> bool {
        unsafe {
            (*pred)
                .next
                .compare_exchange(pnx, desc as u64, SeqCst, SeqCst)
        }
        .is_ok()
    }

    /// Undoes an insertion whose neighbor validation failed: mark, then
    /// unlink. A waiter that sampled the transient descriptor sees the
    /// mark and re-traverses.
    fn retract(&self, desc: *mut Desc) {
        unsafe { (*desc).next.fetch_or(MARK, SeqCst) };
        self.unlink(desc);
    }

    /// Physically removes the (already marked) `desc`. Owner-only: no
    /// other thread ever unlinks it, so "not found" can only be a stale
    /// traversal artifact and the walk retries until the splice lands.
    fn unlink(&self, desc: *mut Desc) {
        let target = desc as u64;
        // Our own next is stable while marked: only the owner writes a
        // marked descriptor's next (at the next reuse, after this).
        let splice = unsafe { (*desc).next.load(SeqCst) } & !MARK;
        let head = &*self.head as *const Desc;
        let mut backoff = Backoff::new();
        loop {
            let mut pred = head;
            loop {
                let pnx = unsafe { (*pred).next.load(SeqCst) };
                if pnx & !MARK == target {
                    if pnx & MARK != 0 {
                        // pred is itself being released; it still points
                        // at us after its own unlink, so wait it out.
                        break;
                    }
                    if unsafe {
                        (*pred)
                            .next
                            .compare_exchange(target, splice, SeqCst, SeqCst)
                    }
                    .is_ok()
                    {
                        return;
                    }
                    break;
                }
                if pnx & !MARK == 0 {
                    break;
                }
                pred = (pnx & !MARK) as *const Desc;
            }
            backoff.pause();
        }
    }

    /// Number of live (unmarked) descriptors currently enqueued.
    /// Diagnostics only — the answer is stale by the time it returns.
    pub fn holders(&self) -> usize {
        let mut n = 0;
        let mut p = self.head.next.load(SeqCst);
        while p & !MARK != 0 {
            let d = unsafe { &*((p & !MARK) as *const Desc) };
            let nx = d.next.load(SeqCst);
            if nx & MARK == 0 {
                n += 1;
            }
            p = nx;
        }
        n
    }
}

impl Drop for RangeLock {
    fn drop(&mut self) {
        // All tokens must have been released: tree guards borrow the
        // tree that owns this lock, so the borrow checker enforces it
        // for tree users.
        for &p in self.all.get_mut().iter() {
            drop(unsafe { Box::from_raw(p as *mut Desc) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use std::sync::{Arc, Mutex};

    #[test]
    fn acquire_release_basic() {
        let rl = RangeLock::new();
        let t = rl.acquire(0, 10, 20);
        assert_eq!(rl.holders(), 1);
        rl.release(0, t);
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn try_acquire_respects_overlap() {
        let rl = RangeLock::new();
        let a = rl.acquire(0, 10, 20);
        assert!(rl.try_acquire(1, 15, 25).is_none(), "overlap must fail");
        assert!(rl.try_acquire(1, 0, 10).is_some(), "touching below is fine");
        let c = rl.try_acquire(2, 20, 30).expect("touching above is fine");
        assert_eq!(rl.holders(), 3);
        rl.release(0, a);
        let d = rl
            .try_acquire(0, 10, 20)
            .expect("released range reacquires");
        rl.release(0, d);
        rl.release(2, c);
    }

    #[test]
    fn descriptors_are_recycled_per_core() {
        let rl = RangeLock::new();
        for i in 0..100 {
            let t = rl.acquire(3, i, i + 1);
            rl.release(3, t);
        }
        assert_eq!(rl.all.lock().len(), 1, "one descriptor serves one core");
    }

    #[test]
    fn threaded_stress_mutual_exclusion() {
        const THREADS: usize = 4;
        const OPS: usize = 4_000;
        let rl = Arc::new(RangeLock::new());
        let held: Arc<Mutex<Vec<(usize, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let rl = rl.clone();
            let held = held.clone();
            handles.push(std::thread::spawn(move || {
                let mut state = 0x9E37u64.wrapping_add(tid as u64);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..OPS {
                    let lo = rng() % 64;
                    let hi = lo + 1 + rng() % 8;
                    let tok = match rng() % 4 {
                        0 => match rl.try_acquire(tid, lo, hi) {
                            Some(t) => t,
                            None => continue,
                        },
                        _ => rl.acquire(tid, lo, hi),
                    };
                    {
                        let mut h = held.lock().unwrap();
                        for &(other, olo, ohi) in h.iter() {
                            assert!(
                                ohi <= lo || hi <= olo,
                                "thread {tid} [{lo},{hi}) overlaps thread {other} [{olo},{ohi})"
                            );
                        }
                        h.push((tid, lo, hi));
                    }
                    std::hint::black_box(lo + hi);
                    // Retire the oracle entry before the real release so
                    // a racing acquirer never sees a stale hold.
                    held.lock().unwrap().retain(|&(t, _, _)| t != tid);
                    rl.release(tid, tok);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rl.holders(), 0);
    }

    #[test]
    fn sim_disjoint_acquires_never_wait() {
        let g = sim::install(4, CostModel::default());
        let rl = RangeLock::new();
        for c in 0..4 {
            sim::switch(c);
            let t = rl.acquire(c, (c as u64) * 100, (c as u64) * 100 + 50);
            sim::charge(5_000);
            rl.release(c, t);
        }
        let st = g.finish();
        for c in 0..4 {
            assert_eq!(st.cores[c].lock_wait_ns, 0, "core {c} waited");
        }
    }

    #[test]
    fn sim_overlapping_acquires_serialize() {
        let g = sim::install(4, CostModel::default());
        let rl = RangeLock::new();
        for c in 0..4 {
            sim::switch(c);
            let t = rl.acquire(c, 40, 60);
            sim::charge(5_000);
            rl.release(c, t);
        }
        let st = g.finish();
        assert!(
            st.clocks[3] >= 20_000,
            "hold windows must serialize: clock {}",
            st.clocks[3]
        );
        assert!(st.cores[3].lock_wait_ns >= 14_000);
    }
}
