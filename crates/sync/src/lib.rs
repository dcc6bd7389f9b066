//! Instrumented synchronization primitives and a deterministic virtual-time
//! multicore simulator.
//!
//! The RadixVM paper ([Clements et al., EuroSys 2013]) evaluates on an
//! 80-core machine, and every one of its results is explained by three
//! hardware-level effects:
//!
//! 1. movement of contended cache lines between cores (and its
//!    serialization at the line's home node),
//! 2. lock hold-time serialization, and
//! 3. the cost of inter-processor interrupts for TLB shootdown.
//!
//! This crate provides drop-in synchronization primitives ([`Atomic64`],
//! [`AtomicPtr64`], [`Mutex`], [`SpinLock`], [`RwLock`]) that behave like
//! their `std` counterparts when used from ordinary threads
//! (the two exclusive locks are a one-RMW spin-then-yield lock, see
//! [`lock`]), but
//! additionally report every access to a thread-local *simulator context*
//! when one is installed (see [`sim`]). The simulator executes a workload
//! for N virtual cores on a single OS thread, maintains a per-virtual-core
//! clock, and charges each instrumented access according to a MESI-style
//! cache-line cost model. Benchmarks then report throughput in virtual
//! time, reproducing the *shape* of the paper's scalability curves
//! deterministically on any host.
//!
//! The two modes share all data-structure code: in real-thread mode the
//! hooks are no-ops, so the crate is also the synchronization layer for the
//! actual concurrent library.
//!
//! [Clements et al., EuroSys 2013]: https://pdos.csail.mit.edu/papers/radixvm:eurosys13.pdf

pub mod atomic;
pub mod backoff;
pub mod corelock;
pub mod failpoint;
pub mod inline_vec;
pub mod lock;
pub mod model;
pub mod pad;
pub mod rangelock;
pub mod shard;
pub mod sim;

pub use atomic::{Atomic64, AtomicPtr64};
pub use backoff::Backoff;
pub use corelock::{CoreCells, CoreHeld, CoreLock, CoreLocks, PerCore};
pub use inline_vec::InlineVec;
pub use lock::{
    Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, SpinLock, SpinLockGuard,
};
pub use model::CostModel;
pub use pad::CachePadded;
pub use rangelock::{RangeLock, RangeLockKind, RangeToken};
pub use shard::{Exclusive, Field, ShardedStats, Shared};
pub use sim::{SimGuard, SimStats};

/// Maximum number of simulated cores supported by bitmask-based core sets.
pub const MAX_CORES: usize = 128;

/// Marks `bytes` bytes at address `start` unaddressable (`poisoned`) or
/// addressable again, for AddressSanitizer. Memory a structure keeps for
/// reuse instead of freeing is invisible to ASan's use-after-free check
/// until it is poisoned here; unpoison it before touching or freeing it.
/// Only builds with `--cfg rvm_asan` (`scripts/sanitize.sh`) call into
/// ASan; in every other build this is nothing.
#[inline]
pub fn asan_poison(start: usize, bytes: usize, poisoned: bool) {
    #[cfg(rvm_asan)]
    {
        extern "C" {
            fn __asan_poison_memory_region(addr: *const u8, size: usize);
            fn __asan_unpoison_memory_region(addr: *const u8, size: usize);
        }
        // SAFETY: ASan's interface only changes its shadow bytes for the
        // range; the caller owns the memory.
        unsafe {
            if poisoned {
                __asan_poison_memory_region(start as *const u8, bytes);
            } else {
                __asan_unpoison_memory_region(start as *const u8, bytes);
            }
        }
    }
    #[cfg(not(rvm_asan))]
    let _ = (start, bytes, poisoned);
}

/// A set of core ids represented as a 128-bit mask.
///
/// Used for TLB core tracking ([RadixVM §3.3]) and for addressing IPI
/// shootdown rounds. The representation is a plain value type; concurrent
/// updates go through [`atomic::AtomicCoreSet`].
///
/// [RadixVM §3.3]: https://pdos.csail.mit.edu/papers/radixvm:eurosys13.pdf
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreSet(pub u128);

impl CoreSet {
    /// The empty core set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// Returns a set containing only `core`.
    #[inline]
    pub fn single(core: usize) -> CoreSet {
        debug_assert!(core < MAX_CORES);
        CoreSet(1u128 << core)
    }

    /// Returns a set containing cores `0..n`.
    #[inline]
    pub fn first_n(n: usize) -> CoreSet {
        debug_assert!(n <= MAX_CORES);
        if n == MAX_CORES {
            CoreSet(u128::MAX)
        } else {
            CoreSet((1u128 << n) - 1)
        }
    }

    /// Returns true if `core` is in the set.
    #[inline]
    pub fn contains(&self, core: usize) -> bool {
        self.0 & (1u128 << core) != 0
    }

    /// Inserts `core` into the set.
    #[inline]
    pub fn insert(&mut self, core: usize) {
        self.0 |= 1u128 << core;
    }

    /// Removes `core` from the set.
    #[inline]
    pub fn remove(&mut self, core: usize) {
        self.0 &= !(1u128 << core);
    }

    /// Returns the union of two sets.
    #[inline]
    pub fn union(&self, other: CoreSet) -> CoreSet {
        CoreSet(self.0 | other.0)
    }

    /// Returns the number of cores in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns true if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the core ids in the set in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(c)
            }
        })
    }
}

impl std::fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coreset_basics() {
        let mut s = CoreSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(5);
        s.insert(127);
        assert_eq!(s.len(), 3);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 127]);
        s.remove(5);
        assert!(!s.contains(5));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn coreset_first_n() {
        assert_eq!(CoreSet::first_n(0), CoreSet::EMPTY);
        assert_eq!(CoreSet::first_n(3).len(), 3);
        assert_eq!(CoreSet::first_n(MAX_CORES).len(), MAX_CORES);
        assert!(CoreSet::first_n(10).contains(9));
        assert!(!CoreSet::first_n(10).contains(10));
    }

    #[test]
    fn coreset_union() {
        let a = CoreSet::single(1);
        let b = CoreSet::single(64);
        let u = a.union(b);
        assert!(u.contains(1) && u.contains(64));
        assert_eq!(u.len(), 2);
    }
}
