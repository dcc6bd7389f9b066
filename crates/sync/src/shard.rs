//! Sharded (per-core striped) event counters.
//!
//! A single shared counter bumped on every operation is the textbook
//! scalability killer: every increment takes the counter's cache line
//! exclusive, so N cores doing disjoint work still serialize at one
//! line's home node (the effect the paper's Figure 8 quantifies for
//! reference counts, and Kogan et al.'s range-lock work re-measures for
//! incidental statistics). [`ShardedStats`] and [`ShardedCounter`] are the
//! drop-in cure for *statistics* counters: one cache-line-padded cell per
//! core, relaxed increments into the caller's own cell, and a sum over
//! all cells on read.
//!
//! Read semantics (DESIGN.md §6): `sum` folds the cells with wrapping
//! adds while writers keep counting. The result is **monotonic** for
//! counters that only grow and always equals the true total once writers
//! are quiescent, but a concurrent read is *not* a snapshot — it may
//! observe core A's increment and miss an earlier one by core B. Live
//! counts (allocated minus freed) may transiently read a step stale, and
//! individual cells of a net counter may go "negative" (wrap); the
//! wrapping fold still reconciles to the true non-negative total.
//!
//! Cells use the instrumented [`Atomic64`], so the simulator sees the
//! per-core writes — and prices them as local hits, which is the point:
//! sharded statistics are *modeled*, not hidden, and their cost stays
//! O(1) per operation regardless of core count.

use crate::atomic::{Atomic64, Ordering};
use crate::pad::CachePadded;
use crate::sim;

/// A bundle of `K` related counters sharded per core.
///
/// All `K` counters of one core live in the same padded cell (one cache
/// line for `K <= 8`), so a stats block costs one line per core rather
/// than one line per counter per core.
pub struct ShardedStats<const K: usize> {
    cells: Box<[CachePadded<[Atomic64; K]>]>,
    mask: usize,
}

impl<const K: usize> ShardedStats<K> {
    /// Creates a stats block striped for `ncores` cores (rounded up to a
    /// power of two so any core id indexes without a division).
    pub fn new(ncores: usize) -> Self {
        assert!(ncores >= 1);
        let shards = ncores.next_power_of_two();
        ShardedStats {
            cells: (0..shards)
                .map(|_| CachePadded::new(std::array::from_fn(|_| Atomic64::new(0))))
                .collect(),
            mask: shards - 1,
        }
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Adds `n` to counter `field` in `core`'s cell (relaxed; core-local
    /// cache traffic only).
    #[inline]
    pub fn add(&self, core: usize, field: usize, n: u64) {
        self.cells[core & self.mask][field].fetch_add(n, Ordering::Relaxed);
    }

    /// [`ShardedStats::add`] for a counter **all of whose writers hold
    /// the same per-core lock** (the TLB lock for hit/miss counts, the
    /// core's free list for the pool's page counts, …): a plain load and
    /// store ([`Atomic64::add_exclusive`]), no locked instruction, the
    /// same one simulator line event.
    ///
    /// The lock is per *core*, the cell per *stripe*, so `core` must
    /// index its own stripe: two cores folded onto one stripe would hold
    /// different locks. And a field bumped this way must have no
    /// [`ShardedStats::add`]/[`ShardedStats::sub`]/`*_here` call site
    /// left — mixing the two loses updates.
    #[inline]
    pub fn add_exclusive(&self, core: usize, field: usize, n: u64) {
        debug_assert!(core < self.shards(), "core {core} shares a stripe");
        self.cells[core & self.mask][field].add_exclusive(n);
    }

    /// Subtracts `n` from counter `field` in `core`'s cell. The cell may
    /// wrap below zero; [`ShardedStats::sum`] reconciles.
    #[inline]
    pub fn sub(&self, core: usize, field: usize, n: u64) {
        self.cells[core & self.mask][field].fetch_sub(n, Ordering::Relaxed);
    }

    /// Adds `n` to counter `field` in the current simulated core's cell
    /// (stripe 0 outside the simulator). For call sites that have no core
    /// id in scope — object allocation, node teardown — which are off the
    /// steady-state hot path.
    #[inline]
    pub fn add_here(&self, field: usize, n: u64) {
        self.add(sim::current_core(), field, n);
    }

    /// As [`ShardedStats::add_here`], subtracting.
    #[inline]
    pub fn sub_here(&self, field: usize, n: u64) {
        self.sub(sim::current_core(), field, n);
    }

    /// Test-only, not API: counter `field` of `core`'s cell alone, for
    /// tests that assert a bump landed in its own core's line.
    #[doc(hidden)]
    pub fn stripe(&self, core: usize, field: usize) -> u64 {
        self.cells[core & self.mask][field].load(Ordering::Relaxed)
    }

    /// Sums counter `field` across all cells (wrapping fold; see the
    /// module docs for the non-snapshot caveat).
    pub fn sum(&self, field: usize) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| {
            acc.wrapping_add(c[field].load(Ordering::Relaxed))
        })
    }
}

/// A single sharded counter: per-core padded cells, relaxed increments,
/// sum-on-read.
pub struct ShardedCounter {
    stats: ShardedStats<1>,
}

impl ShardedCounter {
    /// Creates a counter striped for `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        ShardedCounter {
            stats: ShardedStats::new(ncores),
        }
    }

    /// Increments `core`'s cell.
    #[inline]
    pub fn inc(&self, core: usize) {
        self.stats.add(core, 0, 1);
    }

    /// Adds `n` to `core`'s cell.
    #[inline]
    pub fn add(&self, core: usize, n: u64) {
        self.stats.add(core, 0, n);
    }

    /// Subtracts `n` from `core`'s cell (net counters; cells may wrap).
    #[inline]
    pub fn sub(&self, core: usize, n: u64) {
        self.stats.sub(core, 0, n);
    }

    /// The summed value (wrapping fold; monotonic but not a snapshot).
    pub fn get(&self) -> u64 {
        self.stats.sum(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn counts_and_sums() {
        let c = ShardedCounter::new(4);
        for core in 0..4 {
            for _ in 0..10 {
                c.inc(core);
            }
        }
        assert_eq!(c.get(), 40);
        c.add(2, 5);
        assert_eq!(c.get(), 45);
    }

    #[test]
    fn net_counter_wraps_per_cell_but_sums_right() {
        // Increment on one core, decrement on another: cell 1 wraps
        // "negative", the fold still reconciles.
        let c = ShardedCounter::new(2);
        c.add(0, 100);
        c.sub(1, 40);
        assert_eq!(c.get(), 60);
        c.sub(1, 60);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bundle_fields_are_independent() {
        let s: ShardedStats<3> = ShardedStats::new(2);
        s.add(0, 0, 1);
        s.add(1, 1, 2);
        s.add(0, 2, 3);
        s.sub(1, 2, 1);
        assert_eq!(s.sum(0), 1);
        assert_eq!(s.sum(1), 2);
        assert_eq!(s.sum(2), 2);
        assert_eq!((s.stripe(0, 2), s.stripe(1, 2)), (3, u64::MAX));
    }

    #[test]
    fn exclusive_adds_are_exact_under_the_cores_lock() {
        // Two threads per core bump one field, each under that core's
        // lock, while a reader sums without it: no update is lost and
        // every read is a whole value.
        use crate::SpinLock;
        use std::sync::Arc;
        const PER_THREAD: u64 = 20_000;
        let stats: Arc<ShardedStats<2>> = Arc::new(ShardedStats::new(2));
        let locks = Arc::new([SpinLock::new(()), SpinLock::new(())]);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (stats, locks) = (stats.clone(), locks.clone());
                std::thread::spawn(move || {
                    let core = t % 2;
                    for _ in 0..PER_THREAD {
                        let _held = locks[core].lock();
                        stats.add_exclusive(core, 1, 3);
                    }
                })
            })
            .collect();
        let mut last = 0;
        while writers.iter().any(|w| !w.is_finished()) {
            let now = stats.sum(1);
            assert!(now >= last && now.is_multiple_of(3), "{last} -> {now}");
            last = now;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(stats.sum(1), 4 * PER_THREAD * 3);
        assert_eq!(stats.sum(0), 0);
    }

    #[test]
    fn exclusive_add_is_one_unlocked_line_event() {
        let guard = sim::install(1, CostModel::default());
        let s: ShardedStats<1> = ShardedStats::new(1);
        s.add(0, 0, 1);
        let before = sim::stats().cores[0];
        s.add_exclusive(0, 0, 1);
        let mid = sim::stats().cores[0];
        s.add(0, 0, 1);
        let after = sim::stats().cores[0];
        assert_eq!(mid.local_hits - before.local_hits, 1);
        assert_eq!(after.local_hits - mid.local_hits, 1, "priced alike");
        assert_eq!(mid.rmws, before.rmws, "no locked instruction");
        assert_eq!(after.rmws, mid.rmws + 1);
        assert_eq!(s.sum(0), 3);
        drop(guard);
    }

    #[test]
    fn any_core_id_maps_to_a_stripe() {
        // Striping must accept core ids beyond the construction count
        // (sum still exact, just shared stripes).
        let c = ShardedCounter::new(3); // rounds to 4 stripes
        assert_eq!(ShardedStats::<1>::new(3).shards(), 4);
        for core in 0..64 {
            c.inc(core);
        }
        assert_eq!(c.get(), 64);
    }

    #[test]
    fn increments_stay_core_local_in_sim() {
        // The whole point: disjoint cores bumping the same logical
        // counter cause no remote cache-line transfers in steady state.
        let guard = sim::install(4, CostModel::default());
        let c = ShardedCounter::new(4);
        // Warm every core's own cell (first touch is a cold miss).
        for core in 0..4 {
            sim::switch(core);
            c.inc(core);
        }
        let before = sim::stats();
        for round in 0..100 {
            for core in 0..4 {
                sim::switch(core);
                c.inc(core);
                let _ = round;
            }
        }
        let after = sim::stats();
        for core in 0..4 {
            assert_eq!(
                after.cores[core].remote_transfers, before.cores[core].remote_transfers,
                "core {core} paid remote traffic for its own stats cell"
            );
        }
        assert_eq!(c.get(), 404);
        drop(guard);
    }

    #[test]
    fn shared_counter_contrast_pays_remote_traffic() {
        // The unsharded baseline the primitive replaces: every core
        // writing one line transfers it on every bump.
        let guard = sim::install(4, CostModel::default());
        let shared = Atomic64::new(0);
        for core in 0..4 {
            sim::switch(core);
            shared.fetch_add(1, Ordering::Relaxed);
        }
        let before = sim::stats();
        for core in 0..4 {
            sim::switch(core);
            shared.fetch_add(1, Ordering::Relaxed);
        }
        let after = sim::stats();
        let delta: u64 = (0..4)
            .map(|c| after.cores[c].remote_transfers - before.cores[c].remote_transfers)
            .sum();
        assert_eq!(delta, 4, "every shared bump is a line transfer");
        drop(guard);
    }
}
