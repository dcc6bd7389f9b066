//! One lock per core, and the per-core state only its holder reaches.
//!
//! A VM call on core `c` works on `c`'s private state in several layers:
//! the radix tree's leaf hints, Refcache's delta cache, the frame pool's
//! free list and magazine, the statistics stripes. The machine keeps one
//! [`CoreLock`] per core ([`CoreLocks`], shared by `Arc` with every
//! layer); a VM entry point takes its core's once, and foreign actors (a
//! `quiesce`, a sweeper flushing for a core) take the same lock. The
//! layers' per-core state sits in [`PerCore`] cells that only the
//! holder's [`CoreCells`] loan opens (a [`CoreHeld`] lends one), and a
//! counter all of whose bumps hold it needs no locked instruction
//! ([`crate::ShardedStats::add_core`]).
//!
//! Holding the lock is a type: a cell access borrows the loan mutably,
//! so two borrows of per-core state cannot overlap, and a caller that
//! lent its token to a guard (the radix tree's hint-riding `RangeGuard`)
//! cannot make a second call that needs it while the guard lives. What
//! works on the core as a whole takes the [`CoreHeld`] itself, which
//! such a guard keeps and never lends.
//!
//! **Lock order** (the one statement of it; DESIGN.md §5 argues it):
//! `CoreLock` → leaf slot → object state → {TLB lock, reservoir, grow
//! lock}. A thread holds at most one core's lock of a set: debug builds
//! panic on a blocking acquire of a second one, naming both cores
//! (`try_lock` is exempt: it adds no wait edge).
//!
//! In the simulator an acquire is one exclusive line event on the core's
//! lock word, like a [`crate::SpinLock`]'s.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::lock::{SpinLock, SpinLockGuard};
use crate::pad::CachePadded;

/// One core's lock. Only [`CoreLocks`] makes them and nothing hands one
/// out by reference, so a `&CoreLock` is never in a caller's hands: the
/// type names what a statistics field's bumps hold
/// ([`crate::Exclusive`]`<CoreLock>`, [`crate::ShardedStats::add_core`]).
pub struct CoreLock(SpinLock<()>);

/// The machine's per-core locks, one padded line each.
pub struct CoreLocks {
    locks: Box<[CachePadded<CoreLock>]>,
}

impl CoreLocks {
    /// A lock per core for `ncores` cores.
    pub fn new(ncores: usize) -> Arc<CoreLocks> {
        assert!((1..=crate::MAX_CORES).contains(&ncores));
        Arc::new(CoreLocks {
            locks: (0..ncores)
                .map(|_| CachePadded::new(CoreLock(SpinLock::new(()))))
                .collect(),
        })
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.locks.len()
    }

    /// Takes `core`'s lock, waiting for it.
    ///
    /// # Panics
    ///
    /// Debug builds panic when this thread already holds a lock of this
    /// set taken by `lock` — a second core's (an AB-BA deadlock in
    /// waiting) or the same one (which would wait forever).
    #[inline]
    pub fn lock(&self, core: usize) -> CoreHeld<'_> {
        #[cfg(debug_assertions)]
        debug::check(self, core);
        let guard = self.locks[core].0.lock();
        self.held(core, guard)
    }

    /// Takes `core`'s lock if nobody holds it. Exempt from the debug
    /// check: a try adds no wait edge.
    #[inline]
    pub fn try_lock(&self, core: usize) -> Option<CoreHeld<'_>> {
        let guard = self.locks[core].0.try_lock()?;
        Some(self.held(core, guard))
    }

    #[inline]
    fn held<'a>(&'a self, core: usize, guard: SpinLockGuard<'a, ()>) -> CoreHeld<'a> {
        CoreHeld {
            cells: CoreCells::of(self, core),
            _guard: Some(guard),
            #[cfg(debug_assertions)]
            recorded: debug::record(self, core),
        }
    }
}

/// Proof that this thread holds one core's [`CoreLock`]: what a call that
/// works on the core as a whole (a radix tree's tick, range lock or leaf
/// hints) takes. Dropping it unlocks. It lends its [`CoreCells`], the
/// key to the core's [`PerCore`] cells, to everything else.
///
/// A structure that keeps a `CoreHeld` (a hint-riding range guard) hands
/// out only `CoreCells` by value, never `&mut CoreHeld`: two such
/// references could be swapped, and a guard would then keep its slot
/// locks under another core's token while its own lock went free.
pub struct CoreHeld<'a> {
    cells: CoreCells<'a>,
    /// The lock itself; `None` in a [`CoreHeld::reborrow`], which lends
    /// the parent's for a while.
    _guard: Option<SpinLockGuard<'a, ()>>,
    /// Debug builds: this token is the one the thread-local check names.
    #[cfg(debug_assertions)]
    recorded: bool,
}

impl CoreHeld<'_> {
    /// The core whose lock this is.
    #[inline]
    pub fn core(&self) -> usize {
        self.cells.core
    }

    /// Lends this token for as long as the result lives: the lock stays
    /// with `self`, and `self` is unusable meanwhile. What a range guard
    /// made under a caller's hold keeps.
    #[inline]
    pub fn reborrow(&mut self) -> CoreHeld<'_> {
        CoreHeld {
            cells: self.cells.reborrow(),
            _guard: None,
            #[cfg(debug_assertions)]
            recorded: false,
        }
    }

    /// Lends the core's cells for as long as the result lives.
    #[inline]
    pub fn cells(&mut self) -> CoreCells<'_> {
        self.cells.reborrow()
    }
}

/// A loan of one held core's [`PerCore`] cells: its delta cache, its
/// frames, its statistics stripes. Opens nothing that works on the core
/// as a whole ([`CoreHeld`]), so a guard that lends it keeps what it
/// relies on. Neither `Send` nor `Sync`: a loan shared with another
/// thread would let two threads bump one
/// [`crate::ShardedStats::add_core`] cell at once.
pub struct CoreCells<'a> {
    locks: &'a CoreLocks,
    core: usize,
    _this_thread: PhantomData<*const ()>,
}

impl CoreCells<'_> {
    fn of(locks: &CoreLocks, core: usize) -> CoreCells<'_> {
        CoreCells {
            locks,
            core,
            _this_thread: PhantomData,
        }
    }

    /// The core whose cells these are.
    #[inline]
    pub fn core(&self) -> usize {
        self.core
    }

    /// True when these are cells of a lock of `locks`.
    #[inline]
    pub fn is_of(&self, locks: &CoreLocks) -> bool {
        std::ptr::eq(self.locks, locks)
    }

    /// Lends the loan on for as long as the result lives (what a release
    /// context keeps).
    #[inline]
    pub fn reborrow(&mut self) -> CoreCells<'_> {
        CoreCells::of(self.locks, self.core)
    }
}

#[cfg(debug_assertions)]
impl Drop for CoreHeld<'_> {
    fn drop(&mut self) {
        if self.recorded {
            debug::clear();
        }
    }
}

/// Debug builds: the one lock of a set this thread took with a blocking
/// `lock`, in a const-initialised thread-local (no allocation, so the
/// zero-allocation tests hold in debug builds too).
#[cfg(debug_assertions)]
mod debug {
    use std::cell::Cell;

    use super::CoreLocks;

    thread_local! {
        /// `(set address, core)`; the address is 0 when none is held.
        static HELD: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    fn key(locks: &CoreLocks) -> usize {
        locks as *const CoreLocks as usize
    }

    pub(super) fn check(locks: &CoreLocks, core: usize) {
        let (set, held) = HELD.with(Cell::get);
        assert!(
            set != key(locks),
            "blocking acquire of core {core}'s CoreLock while this thread holds core {held}'s"
        );
    }

    /// Records the lock just taken unless one is recorded already (a
    /// `try_lock` under another, or a lock of another set).
    pub(super) fn record(locks: &CoreLocks, core: usize) -> bool {
        HELD.with(|h| {
            let free = h.get().0 == 0;
            if free {
                h.set((key(locks), core));
            }
            free
        })
    }

    pub(super) fn clear() {
        HELD.with(|h| h.set((0, 0)));
    }
}

/// One `T` per core, each reachable only through its core's
/// [`CoreHeld`] of the set the cells were made with.
pub struct PerCore<T> {
    locks: Arc<CoreLocks>,
    cells: Box<[CachePadded<UnsafeCell<T>>]>,
}

// SAFETY: a cell is only reached through its core's held lock
// (`get`) or `&mut self`, so sharing the cells moves `T` between threads
// and never aliases it.
unsafe impl<T: Send> Sync for PerCore<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Send for PerCore<T> {}

impl<T> PerCore<T> {
    /// A cell per core of `locks`, core `c`'s made by `init(c)`.
    pub fn new(locks: Arc<CoreLocks>, init: impl FnMut(usize) -> T) -> Self {
        let cells = (0..locks.ncores())
            .map(init)
            .map(|t| CachePadded::new(UnsafeCell::new(t)))
            .collect();
        PerCore { locks, cells }
    }

    /// The lock set guarding the cells.
    pub fn locks(&self) -> &Arc<CoreLocks> {
        &self.locks
    }

    /// The held core's cell, for as long as the loan stays lent.
    ///
    /// # Panics
    ///
    /// Panics if `held` is a lock of another set.
    #[inline]
    pub fn get<'a>(&'a self, held: &'a mut CoreCells<'_>) -> &'a mut T {
        assert!(held.is_of(&self.locks), "a CoreHeld of another lock set");
        // SAFETY: `held` proves this thread holds the core's lock of the
        // cells' set, and the `&mut` borrow of it lasts as long as the
        // returned reference, so no second reference to the cell exists.
        unsafe { &mut *self.cells[held.core].get() }
    }

    /// Every cell, with no lock: `&mut self` excludes every holder.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.cells.iter_mut().map(|c| c.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;
    use crate::sim;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn an_uncontended_acquire_is_one_rmw_and_one_line_event() {
        let guard = sim::install(1, CostModel::default());
        let locks = CoreLocks::new(1);
        drop(locks.lock(0)); // the first touch is a cold miss
        let before = sim::stats().cores[0];
        let held = locks.lock(0);
        let after = sim::stats().cores[0];
        drop(held);
        let events = |c: &sim::CoreStats| c.local_hits + c.remote_transfers + c.cold_misses;
        assert_eq!(after.rmws - before.rmws, 1);
        assert_eq!(events(&after) - events(&before), 1);
        drop(guard);
    }

    #[test]
    fn a_foreign_lock_waits_for_the_holder() {
        let locks = CoreLocks::new(2);
        let cells = Arc::new(PerCore::new(locks.clone(), |c| c as u64));
        let released = Arc::new(AtomicBool::new(false));
        let mut held = cells.locks().lock(1);
        let foreign = {
            let (cells, released) = (cells.clone(), released.clone());
            std::thread::spawn(move || {
                let mut held = cells.locks().lock(1);
                assert!(released.load(Ordering::Acquire), "entered while held");
                *cells.get(&mut held.cells()) += 10;
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        *cells.get(&mut held.cells()) += 1;
        released.store(true, Ordering::Release);
        drop(held);
        foreign.join().unwrap();
        assert_eq!(*cells.get(&mut cells.locks().lock(1).cells()), 12);
        assert!(locks.try_lock(1).is_some(), "the foreign holder unlocked");
    }

    #[test]
    fn a_reborrow_opens_the_cells_and_keeps_the_lock() {
        let cells = PerCore::new(CoreLocks::new(2), |_| 0u8);
        let mut held = cells.locks().lock(0);
        {
            let mut lent = held.reborrow();
            *cells.get(&mut lent.cells()) = 7;
        }
        assert!(cells.locks().try_lock(0).is_none(), "still held");
        assert_eq!(*cells.get(&mut held.cells()), 7);
        drop(held);
        assert!(cells.locks().try_lock(0).is_some());
    }

    #[test]
    #[should_panic(expected = "a CoreHeld of another lock set")]
    fn a_token_of_another_set_opens_nothing() {
        let cells = PerCore::new(CoreLocks::new(1), |_| 0u8);
        let other = CoreLocks::new(1);
        cells.get(&mut other.lock(0).cells());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "blocking acquire of core 1's CoreLock while this thread holds core 0's"
    )]
    fn a_second_blocking_lock_panics_in_debug_builds() {
        let locks = CoreLocks::new(2);
        let _first = locks.lock(0);
        let _second = locks.lock(1);
    }

    #[test]
    fn try_lock_is_exempt_and_a_release_clears_the_record() {
        let locks = CoreLocks::new(2);
        let first = locks.lock(0);
        let second = locks.try_lock(1).expect("free");
        assert!(locks.try_lock(0).is_none());
        drop(second);
        drop(first);
        // Nothing recorded is left behind: a blocking lock works again.
        let _again = locks.lock(1);
    }

    #[test]
    fn sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<CoreLock>(), 1);
        assert_eq!(size_of::<CachePadded<CoreLock>>(), 64);
        assert_eq!(size_of::<CachePadded<UnsafeCell<u64>>>(), 64);
        assert_eq!(size_of::<CoreCells<'_>>(), 16);
    }
}
