//! Instrumented atomic types.
//!
//! Thin wrappers over `std::sync::atomic` that additionally report each
//! access to the simulator ([`crate::sim`]) when one is installed on the
//! current thread. The wrappers expose the same memory-ordering surface as
//! `std`; in real-thread mode they compile down to the underlying atomic
//! plus one thread-local null check.

pub use std::sync::atomic::Ordering;

use std::sync::atomic::{AtomicU64, AtomicUsize};

use crate::sim;

/// An instrumented 64-bit atomic integer.
#[derive(Default)]
#[repr(transparent)]
pub struct Atomic64 {
    inner: AtomicU64,
}

impl Atomic64 {
    /// Creates a new atomic with the given initial value.
    pub const fn new(v: u64) -> Self {
        Atomic64 {
            inner: AtomicU64::new(v),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Atomically loads the value.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        sim::on_read(self.addr());
        self.inner.load(order)
    }

    /// Atomically stores `v`.
    #[inline]
    pub fn store(&self, v: u64, order: Ordering) {
        sim::on_write(self.addr());
        self.inner.store(v, order)
    }

    /// Atomically swaps in `v`, returning the previous value.
    #[inline]
    pub fn swap(&self, v: u64, order: Ordering) -> u64 {
        sim::on_rmw(self.addr());
        self.inner.swap(v, order)
    }

    /// Atomic compare-exchange. Like hardware `CMPXCHG`, a failed exchange
    /// still dirties the line, so both outcomes charge a write.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        sim::on_rmw(self.addr());
        self.inner.compare_exchange(current, new, success, failure)
    }

    /// Weak compare-exchange (may fail spuriously on some targets).
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        sim::on_rmw(self.addr());
        self.inner
            .compare_exchange_weak(current, new, success, failure)
    }

    /// Atomically adds, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        sim::on_rmw(self.addr());
        self.inner.fetch_add(v, order)
    }

    /// Atomically subtracts, returning the previous value.
    #[inline]
    pub fn fetch_sub(&self, v: u64, order: Ordering) -> u64 {
        sim::on_rmw(self.addr());
        self.inner.fetch_sub(v, order)
    }

    /// Atomically ORs, returning the previous value.
    #[inline]
    pub fn fetch_or(&self, v: u64, order: Ordering) -> u64 {
        sim::on_rmw(self.addr());
        self.inner.fetch_or(v, order)
    }

    /// Atomically ANDs, returning the previous value.
    #[inline]
    pub fn fetch_and(&self, v: u64, order: Ordering) -> u64 {
        sim::on_rmw(self.addr());
        self.inner.fetch_and(v, order)
    }

    /// ANDs `mask` into a word that **only the caller mutates** right
    /// now — a lock word's holder clearing bits, when everyone else only
    /// ever sets the lock bit, so that an attempt on a held word writes
    /// back the value it read — with a plain load and store instead of a
    /// locked read-modify-write. One line event, like the
    /// [`Atomic64::fetch_and`] it stands in for.
    #[inline]
    pub fn and_exclusive(&self, mask: u64, order: Ordering) {
        sim::on_write(self.addr());
        let v = self.inner.load(Ordering::Relaxed);
        self.inner.store(v & mask, order)
    }

    /// Adds `n` (wrapping) to a word that **only the caller mutates**
    /// right now — a statistics cell whose every writer holds the same
    /// lock — with a plain load and store instead of a locked
    /// read-modify-write. One line event, like the
    /// [`Atomic64::fetch_add`] it stands in for. Relaxed: the word
    /// publishes nothing, and lock-free readers only need some recent
    /// whole value.
    ///
    /// A word updated this way must have no `fetch_*` writer at all: an
    /// RMW landing between this load and store is lost.
    #[inline]
    pub fn add_exclusive(&self, n: u64) {
        sim::on_write(self.addr());
        let v = self.inner.load(Ordering::Relaxed);
        self.inner.store(v.wrapping_add(n), Ordering::Relaxed)
    }

    /// Non-atomic read through `&mut` (no synchronization needed).
    #[inline]
    pub fn get_mut(&mut self) -> &mut u64 {
        self.inner.get_mut()
    }

    /// Consumes the atomic and returns the value.
    #[inline]
    pub fn into_inner(self) -> u64 {
        self.inner.into_inner()
    }
}

impl std::fmt::Debug for Atomic64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Atomic64({})", self.inner.load(Ordering::Relaxed))
    }
}

/// An instrumented atomic pointer-sized integer used to store addresses.
///
/// Stored values are plain `usize` bit patterns; callers own the
/// provenance/validity argument for any pointer they reconstruct.
#[derive(Default)]
#[repr(transparent)]
pub struct AtomicPtr64 {
    inner: AtomicUsize,
}

impl AtomicPtr64 {
    /// Creates a new atomic holding `v`.
    pub const fn new(v: usize) -> Self {
        AtomicPtr64 {
            inner: AtomicUsize::new(v),
        }
    }

    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Atomically loads the value.
    #[inline]
    pub fn load(&self, order: Ordering) -> usize {
        sim::on_read(self.addr());
        self.inner.load(order)
    }

    /// Atomically stores `v`.
    #[inline]
    pub fn store(&self, v: usize, order: Ordering) {
        sim::on_write(self.addr());
        self.inner.store(v, order)
    }

    /// Atomically swaps in `v`, returning the previous value.
    #[inline]
    pub fn swap(&self, v: usize, order: Ordering) -> usize {
        sim::on_rmw(self.addr());
        self.inner.swap(v, order)
    }

    /// Atomic compare-exchange; charges a write on either outcome.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: usize,
        new: usize,
        success: Ordering,
        failure: Ordering,
    ) -> Result<usize, usize> {
        sim::on_rmw(self.addr());
        self.inner.compare_exchange(current, new, success, failure)
    }
}

impl std::fmt::Debug for AtomicPtr64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicPtr64({:#x})", self.inner.load(Ordering::Relaxed))
    }
}

/// An atomically updatable [`crate::CoreSet`] (two 64-bit words).
///
/// Reads are not snapshot-atomic across the two words; callers that need a
/// consistent snapshot must hold the lock that protects the containing
/// record (the radix-tree slot lock, in RadixVM's case). Insertion of a
/// single core is atomic.
#[derive(Default)]
pub struct AtomicCoreSet {
    lo: Atomic64,
    hi: Atomic64,
}

impl AtomicCoreSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        AtomicCoreSet {
            lo: Atomic64::new(0),
            hi: Atomic64::new(0),
        }
    }

    /// Atomically inserts `core`.
    ///
    /// Tests membership first: the common already-present case is a
    /// shared read (scales), not an exclusive write of the line. Hot
    /// paths (page faults) call this on every operation.
    #[inline]
    pub fn insert(&self, core: usize) {
        debug_assert!(core < crate::MAX_CORES);
        if self.contains(core) {
            return;
        }
        if core < 64 {
            self.lo.fetch_or(1 << core, Ordering::AcqRel);
        } else {
            self.hi.fetch_or(1 << (core - 64), Ordering::AcqRel);
        }
    }

    /// Returns true if `core` is currently in the set.
    #[inline]
    pub fn contains(&self, core: usize) -> bool {
        if core < 64 {
            self.lo.load(Ordering::Acquire) & (1 << core) != 0
        } else {
            self.hi.load(Ordering::Acquire) & (1 << (core - 64)) != 0
        }
    }

    /// Loads the set (word-by-word; see type docs for atomicity caveats).
    #[inline]
    pub fn load(&self) -> crate::CoreSet {
        let lo = self.lo.load(Ordering::Acquire) as u128;
        let hi = self.hi.load(Ordering::Acquire) as u128;
        crate::CoreSet(lo | (hi << 64))
    }

    /// Clears the set and returns the previous contents.
    #[inline]
    pub fn take(&self) -> crate::CoreSet {
        let lo = self.lo.swap(0, Ordering::AcqRel) as u128;
        let hi = self.hi.swap(0, Ordering::AcqRel) as u128;
        crate::CoreSet(lo | (hi << 64))
    }

    /// Stores `set`, replacing the current contents.
    #[inline]
    pub fn store(&self, set: crate::CoreSet) {
        self.lo.store(set.0 as u64, Ordering::Release);
        self.hi.store((set.0 >> 64) as u64, Ordering::Release);
    }
}

impl std::fmt::Debug for AtomicCoreSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicCoreSet({:?})", self.load())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic64_ops() {
        let a = Atomic64::new(5);
        assert_eq!(a.load(Ordering::Acquire), 5);
        a.store(7, Ordering::Release);
        assert_eq!(a.swap(9, Ordering::AcqRel), 7);
        assert_eq!(a.fetch_add(1, Ordering::AcqRel), 9);
        assert_eq!(a.fetch_sub(2, Ordering::AcqRel), 10);
        assert_eq!(a.fetch_or(0xF0, Ordering::AcqRel), 8);
        assert_eq!(a.fetch_and(0xF0, Ordering::AcqRel), 0xF8);
        assert_eq!(a.load(Ordering::Acquire), 0xF0);
        a.and_exclusive(!0x10, Ordering::Release);
        assert_eq!(a.load(Ordering::Acquire), 0xE0);
        a.add_exclusive(0x11);
        assert_eq!(a.load(Ordering::Acquire), 0xF1);
        a.store(u64::MAX, Ordering::Release);
        a.add_exclusive(0xF1);
        assert_eq!(a.load(Ordering::Acquire), 0xF0, "wraps like fetch_add");
        assert!(a
            .compare_exchange(0xF0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok());
        assert!(a
            .compare_exchange(0xF0, 2, Ordering::AcqRel, Ordering::Acquire)
            .is_err());
    }

    #[test]
    fn atomic_coreset() {
        let s = AtomicCoreSet::new();
        s.insert(3);
        s.insert(100);
        assert!(s.contains(3));
        assert!(s.contains(100));
        assert!(!s.contains(4));
        let set = s.load();
        assert_eq!(set.len(), 2);
        let taken = s.take();
        assert_eq!(taken.len(), 2);
        assert!(s.load().is_empty());
    }

    #[test]
    fn real_threads_increment() {
        let a = std::sync::Arc::new(Atomic64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    a.fetch_add(1, Ordering::AcqRel);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Acquire), 40_000);
    }
}
