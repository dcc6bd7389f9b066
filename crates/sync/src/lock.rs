//! Instrumented mutex, spin lock and reader-writer lock.
//!
//! [`Mutex`] and [`SpinLock`] sit on `HostLock`, a one-RMW host lock:
//! an uncontended acquire is one CAS, a release is one store. An op on
//! the single-page VM path (mmap, fault, munmap) takes a handful of
//! these locks — its core's `CoreLock` once per call, slot and object
//! locks, TLB locks — and almost never contends on one (DESIGN.md §5), so
//! the uncontended round-trip *is* the cost; a futex mutex pays two RMWs
//! and a waiter check for it. What a held lock makes single-mutator — a
//! statistics cell all of whose writers hold the same per-core lock — is
//! then updated with no locked instruction at all
//! ([`crate::Atomic64::add_exclusive`]); the simulator counts both kinds
//! (`sim::CoreStats::rmws`).
//! [`RwLock`] wraps `std::sync::RwLock`, ignoring poison (only baselines
//! and cold registries use it). All three report acquisition and release to
//! the simulator so lock hold times serialize virtual clocks. In sim
//! mode (single OS thread) the real acquisition never blocks; in
//! real-thread mode the hooks are no-ops.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::backoff::Backoff;
use crate::sim::{self, LockKind};

/// The host lock under [`Mutex`] and [`SpinLock`]: a test-and-test-and-
/// set lock with bounded exponential backoff.
///
/// * acquire: one `compare_exchange`; when that fails, waiters poll the
///   flag with plain loads (the line stays shared between them), pausing
///   per [`Backoff`] — a bounded spin, then `yield_now` on every further
///   pause so a descheduled holder gets the CPU on oversubscribed hosts;
/// * release: one store, `Release`, pairing with the next acquirer's
///   `Acquire` CAS so the protected data is visible to it.
///
/// No poisoning: the guard unlocks on unwind like on any other drop, so
/// a panic while the lock is held leaves it usable. Not fair, and not
/// reentrant: a second `lock` on the holding thread spins forever.
struct HostLock<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the flag serializes all access to `data`, so sharing the lock
// only ever moves `T` between threads.
unsafe impl<T: ?Sized + Send> Send for HostLock<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Send> Sync for HostLock<T> {}

/// RAII guard for [`HostLock`]. `!Send` (like the `std` guard), and
/// `Sync` only when `T` is — it hands out `&T`.
struct HostGuard<'a, T: ?Sized> {
    lock: &'a HostLock<T>,
    _not_send: PhantomData<*mut ()>,
}

// SAFETY: a shared guard only exposes `&T`.
unsafe impl<T: ?Sized + Sync> Sync for HostGuard<'_, T> {}

impl<T> HostLock<T> {
    const fn new(value: T) -> Self {
        HostLock {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> HostLock<T> {
    #[inline]
    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn guard(&self) -> HostGuard<'_, T> {
        HostGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    #[inline]
    fn lock(&self) -> HostGuard<'_, T> {
        if !self.try_acquire() {
            self.lock_contended();
        }
        self.guard()
    }

    #[cold]
    fn lock_contended(&self) {
        let mut backoff = Backoff::new();
        loop {
            while self.locked.load(Ordering::Relaxed) {
                backoff.pause();
            }
            if self.try_acquire() {
                return;
            }
        }
    }

    #[inline]
    fn try_lock(&self) -> Option<HostGuard<'_, T>> {
        self.try_acquire().then(|| self.guard())
    }

    #[inline]
    fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for HostGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> std::ops::DerefMut for HostGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock, exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for HostGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

/// An instrumented mutual-exclusion lock.
pub struct Mutex<T: ?Sized> {
    inner: HostLock<T>,
}

/// RAII guard for [`Mutex`]; reports the release on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    addr: usize,
    inner: HostGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: HostLock::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }

    /// Acquires the lock, blocking (real or virtual time) until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let addr = self.addr();
        sim::lock_acquire(addr, LockKind::Exclusive);
        MutexGuard {
            addr,
            inner: self.inner.lock(),
        }
    }

    /// Attempts to acquire the lock without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let addr = self.addr();
        let g = self.inner.try_lock()?;
        // Only charge when the acquisition succeeded.
        sim::lock_acquire(addr, LockKind::Exclusive);
        Some(MutexGuard { addr, inner: g })
    }

    /// Returns a mutable reference to the data (no locking required).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        sim::lock_release(self.addr, LockKind::Exclusive);
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mutex {{ .. }}")
    }
}

/// An instrumented spin lock for *short* critical sections (a few loads
/// and stores), such as per-object reference-count state or per-slot
/// metadata.
///
/// Modeling note: in virtual time, tiny critical sections are represented
/// by their cache-line traffic alone — the acquire charges an exclusive
/// line access (whose `busy_until` window serializes concurrent
/// acquirers at the line's home node), but no hold window is recorded.
/// Hold-window serialization (see [`Mutex`]) is reserved for locks held
/// across real work; applying it to nanosecond-scale holds would let one
/// out-of-order acquisition drag whole virtual timelines (cores execute
/// sequentially in the simulator, so acquisition order is execution
/// order, not virtual-time order).
pub struct SpinLock<T: ?Sized> {
    inner: HostLock<T>,
}

/// RAII guard for [`SpinLock`].
pub struct SpinLockGuard<'a, T: ?Sized> {
    inner: HostGuard<'a, T>,
}

impl<T> SpinLock<T> {
    /// Creates a new spin lock holding `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            inner: HostLock::new(value),
        }
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock.
    #[inline]
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        // The lock word is taken exclusive: one line event.
        sim::on_rmw(self as *const _ as *const () as usize);
        SpinLockGuard {
            inner: self.inner.lock(),
        }
    }

    /// Attempts to acquire the lock without waiting — for holders of
    /// another lock that must not add a wait edge (the radix tree's hint
    /// install under held slot locks, DESIGN.md §5).
    #[inline]
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        // Only charge when the acquisition succeeded.
        sim::on_rmw(self as *const _ as *const () as usize);
        Some(SpinLockGuard { inner })
    }

    /// Returns a mutable reference to the data (no locking required).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> std::ops::Deref for SpinLockGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for SpinLockGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        SpinLock::new(T::default())
    }
}

/// An instrumented reader-writer lock.
///
/// Note that even the read path writes the lock word (reader count), which
/// is exactly why a single address-space `RwLock` does not scale for
/// concurrent page faults — the effect the paper's Linux baseline exhibits.
///
/// Not poisoning: a lock whose holder panicked is treated as unlocked.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// RAII read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    addr: usize,
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// RAII write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    addr: usize,
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    #[inline]
    fn addr(&self) -> usize {
        self as *const _ as *const () as usize
    }

    /// Acquires a shared read lock.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let addr = self.addr();
        sim::lock_acquire(addr, LockKind::Shared);
        RwLockReadGuard {
            addr,
            inner: self.inner.read().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// Acquires an exclusive write lock.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let addr = self.addr();
        sim::lock_acquire(addr, LockKind::Exclusive);
        RwLockWriteGuard {
            addr,
            inner: self.inner.write().unwrap_or_else(|p| p.into_inner()),
        }
    }

    /// Returns a mutable reference to the data (no locking required).
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        sim::lock_release(self.addr, LockKind::Shared);
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        sim::lock_release(self.addr, LockKind::Exclusive);
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CostModel;

    #[test]
    fn mutex_real_threads() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 20_000);
    }

    #[test]
    fn rwlock_real_threads() {
        let l = std::sync::Arc::new(RwLock::new(vec![1, 2, 3]));
        let r = l.read();
        assert_eq!(r.len(), 3);
        drop(r);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn rwlock_ignores_poison() {
        let l = std::sync::Arc::new(RwLock::new(0));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
    }

    #[test]
    fn mutex_serializes_virtual_time() {
        let g = sim::install(4, CostModel::default());
        let m = Mutex::new(());
        for c in 0..4 {
            sim::switch(c);
            let guard = m.lock();
            sim::charge(500);
            drop(guard);
        }
        let st = g.finish();
        assert!(st.clocks[3] >= 2_000, "clock {}", st.clocks[3]);
    }

    #[test]
    fn rwlock_readers_parallel_writers_serial() {
        let g = sim::install(8, CostModel::default());
        let l = RwLock::new(());
        for c in 0..8 {
            sim::switch(c);
            let guard = l.read();
            sim::charge(1_000);
            drop(guard);
        }
        let read_stats = sim::stats();
        // No reader waited on the lock itself.
        assert_eq!(
            read_stats.cores.iter().map(|c| c.lock_wait_ns).sum::<u64>(),
            0
        );
        // But a writer must wait for all readers.
        sim::switch(0);
        let w = l.write();
        drop(w);
        let st = g.finish();
        assert!(st.clocks[0] >= 1_000);
    }

    #[test]
    fn try_lock_behaves() {
        let m = Mutex::new(1);
        let g = m.try_lock();
        assert!(g.is_some());
        // The host lock is not reentrant: a second try fails.
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
        let s = SpinLock::new(1);
        let g = s.try_lock().expect("free");
        assert!(s.try_lock().is_none());
        drop(g);
        *s.try_lock().expect("released") += 1;
        assert_eq!(*s.lock(), 2);
    }

    /// Pins the calling thread to `cpus` (best effort; Linux only).
    fn restrict_to_cpus(cpus: usize) {
        #[cfg(target_os = "linux")]
        {
            extern "C" {
                fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
            }
            let mask = [(1u64 << cpus) - 1; 16];
            // SAFETY: a valid 1024-bit mask for the calling thread; a
            // refusal (restricted cpuset) only loses the oversubscription.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        }
    }

    #[test]
    fn mutual_exclusion_oversubscribed() {
        // 8 threads on (at most) 2 CPUs: most waiters find the holder
        // descheduled, so the saturated-backoff yield path must run for
        // the test to finish at all. A torn read-modify-write of the two
        // halves would show as a mismatch or a lost increment.
        let spin = std::sync::Arc::new(SpinLock::new((0u64, 0u64)));
        let mutex = std::sync::Arc::new(Mutex::new((0u64, 0u64)));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (spin, mutex) = (spin.clone(), mutex.clone());
                std::thread::spawn(move || {
                    restrict_to_cpus(2);
                    let bump = |pair: &mut (u64, u64), i: u64| {
                        assert_eq!(pair.0, pair.1, "lock admitted two holders");
                        pair.0 += 1;
                        if i.is_multiple_of(1024) {
                            // Hold across a reschedule now and then.
                            std::thread::yield_now();
                        }
                        pair.1 += 1;
                    };
                    for i in 0..20_000u64 {
                        bump(&mut spin.lock(), i);
                        bump(&mut mutex.lock(), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*spin.lock(), (160_000, 160_000));
        assert_eq!(*mutex.lock(), (160_000, 160_000));
    }

    #[test]
    fn panic_while_held_leaves_the_lock_usable() {
        let spin = std::sync::Arc::new(SpinLock::new(0));
        let mutex = std::sync::Arc::new(Mutex::new(0));
        let (s2, m2) = (spin.clone(), mutex.clone());
        let died = std::thread::spawn(move || {
            let _s = s2.lock();
            let _m = m2.lock();
            panic!("unwind with both locks held");
        })
        .join();
        assert!(died.is_err());
        // No poisoning: the guards unlocked during the unwind.
        *spin.try_lock().expect("spin lock released by unwind") += 1;
        *mutex.try_lock().expect("mutex released by unwind") += 1;
        assert_eq!((*spin.lock(), *mutex.lock()), (1, 1));
    }
}
