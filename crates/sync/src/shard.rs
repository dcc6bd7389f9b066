//! Sharded (per-core striped) event counters, declared once per set.
//!
//! A single shared counter bumped on every operation is the textbook
//! scalability killer: every increment takes the counter's cache line
//! exclusive, so N cores doing disjoint work still serialize at one
//! line's home node (the effect the paper's Figure 8 quantifies for
//! reference counts, and Kogan et al.'s range-lock work re-measures for
//! incidental statistics). [`ShardedStats`] is the drop-in cure for
//! *statistics* counters: one cache-line-padded cell per core, relaxed
//! increments into the caller's own cell, and a sum over all cells on
//! read.
//!
//! A counter set is one [`sharded_stats!`](crate::sharded_stats)
//! declaration: each field's doc comment, name and *kind*. The kind is
//! the rule for bumping the field, carried in the type of the field's
//! token ([`Field`]), so breaking the rule does not compile:
//!
//! * [`Shared`] — bumped with no per-core lock held (or under different
//!   locks at different sites): every bump is an atomic add
//!   ([`ShardedStats::add`], `sub`, `add_here`, `sub_here`).
//! * [`Exclusive<T>`](Exclusive) — *every* bump of core `c`'s cell
//!   happens while `c`'s lock around a `T` is held, which makes the
//!   holder the cell's only mutator: [`ShardedStats::add_held`] takes a
//!   borrow of the locked `T` and is a plain load and store, no locked
//!   instruction. Such a field has no other writer — an atomic add
//!   landing between that load and store would be lost. With `T` the
//!   core's [`CoreLock`] itself, [`ShardedStats::add_core`] takes the
//!   held token instead.
//! * `Gauge` — not a cell: a value the owner reads at snapshot time (an
//!   epoch, a queue length), declared in the same list so the snapshot
//!   struct has one definition.
//!
//! Read semantics (DESIGN.md §6): a read folds the cells with wrapping
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

use std::marker::PhantomData;

use crate::atomic::{Atomic64, Ordering};
use crate::corelock::{CoreCells, CoreLock};
use crate::pad::CachePadded;
use crate::sim;

/// Kind of a counter whose bumps are atomic adds: some bump holds no
/// per-core lock, so all of them pay the locked instruction.
pub struct Shared;

/// Kind of a counter every bump of which, for core `c`'s cell, happens
/// while `c`'s lock around a `T` is held (the core's `Tlb`, its free
/// list, its delta cache): single-mutator, so a plain load and store.
pub struct Exclusive<T: ?Sized>(PhantomData<fn(&T)>);

/// The token of one cell of the counter set `S`: which word of a core's
/// cell it is and, in `K` ([`Shared`] or [`Exclusive`]), how it may be
/// bumped. [`sharded_stats!`](crate::sharded_stats) declares one per
/// field, as an associated constant of the snapshot struct
/// (`OpStats::mmaps`); nothing else makes them.
pub struct Field<S, K> {
    index: usize,
    _of: PhantomData<fn(&S) -> K>,
}

impl<S, K> Clone for Field<S, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S, K> Copy for Field<S, K> {}

impl<S, K> Field<S, K> {
    /// Macro-only, not API: the token of word `index`.
    #[doc(hidden)]
    pub const fn at(index: usize) -> Self {
        Field {
            index,
            _of: PhantomData,
        }
    }

    /// Which word of a core's cell this field is. Declaration order:
    /// the simulator sees which word shares a line with which.
    pub const fn index(self) -> usize {
        self.index
    }
}

/// The cells of the counter set `S` (`K` words per core), sharded per
/// core.
///
/// All `K` counters of one core live in the same padded cell (one cache
/// line for `K <= 8`), so a stats block costs one line per core rather
/// than one line per counter per core.
pub struct ShardedStats<S, const K: usize> {
    cells: Box<[CachePadded<[Atomic64; K]>]>,
    mask: usize,
    _set: PhantomData<fn() -> S>,
}

impl<S, const K: usize> ShardedStats<S, K> {
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
            _set: PhantomData,
        }
    }

    /// Number of stripes.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Adds `n` to `field` in `core`'s cell (relaxed; core-local cache
    /// traffic only).
    #[inline(always)]
    pub fn add(&self, core: usize, field: Field<S, Shared>, n: u64) {
        self.cells[core & self.mask][field.index].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from `field` in `core`'s cell. The cell may wrap
    /// below zero; the fold on read reconciles.
    #[inline(always)]
    pub fn sub(&self, core: usize, field: Field<S, Shared>, n: u64) {
        self.cells[core & self.mask][field.index].fetch_sub(n, Ordering::Relaxed);
    }

    /// Adds `n` to `field` in the current simulated core's cell (stripe
    /// 0 outside the simulator). For call sites that have no core id in
    /// scope — object allocation, a node's drop — which are off the
    /// steady-state hot path and hold no core's lock: [`Shared`] only.
    #[inline(always)]
    pub fn add_here(&self, field: Field<S, Shared>, n: u64) {
        self.add(sim::current_core(), field, n);
    }

    /// As [`ShardedStats::add_here`], subtracting.
    #[inline(always)]
    pub fn sub_here(&self, field: Field<S, Shared>, n: u64) {
        self.sub(sim::current_core(), field, n);
    }

    /// Adds `n` to `field` in `core`'s cell with a plain load and store
    /// ([`Atomic64::add_exclusive`]): no locked instruction, the same one
    /// simulator line event. `held` is the `T` that `core`'s lock guards,
    /// borrowed through the held guard — the proof that this thread is
    /// the cell's only mutator.
    ///
    /// The lock is per *core*, the cell per *stripe*, so `core` must
    /// index its own stripe: two cores folded onto one stripe would hold
    /// different locks.
    #[inline(always)]
    pub fn add_held<T: ?Sized>(
        &self,
        core: usize,
        field: Field<S, Exclusive<T>>,
        _held: &T,
        n: u64,
    ) {
        debug_assert!(core < self.shards(), "core {core} shares a stripe");
        self.cells[core & self.mask][field.index].add_exclusive(n);
    }

    /// [`ShardedStats::add_held`] for a field all of whose bumps hold
    /// their core's [`CoreLock`]: the stripe is the held core's, so the
    /// token picks it and no core id can disagree with the lock.
    #[inline(always)]
    pub fn add_core(&self, held: &CoreCells<'_>, field: Field<S, Exclusive<CoreLock>>, n: u64) {
        let core = held.core();
        debug_assert!(core < self.shards(), "core {core} shares a stripe");
        self.cells[core & self.mask][field.index].add_exclusive(n);
    }

    /// Macro-only, not API (the cells struct has a reader per field):
    /// word `index` summed across all cells (wrapping fold; see the
    /// module docs for the non-snapshot caveat).
    #[doc(hidden)]
    pub fn sum_at(&self, index: usize) -> u64 {
        self.cells.iter().fold(0u64, |acc, c| {
            acc.wrapping_add(c[index].load(Ordering::Relaxed))
        })
    }

    /// Test-only, not API: word `index` of `core`'s cell alone, for
    /// tests that assert a bump landed in its own core's line.
    #[doc(hidden)]
    pub fn stripe(&self, core: usize, index: usize) -> u64 {
        self.cells[core & self.mask][index].load(Ordering::Relaxed)
    }
}

/// Declares a counter set once: the snapshot struct, the sharded cells,
/// and the rule for bumping each field.
///
/// ```
/// use rvm_sync::{sharded_stats, SpinLock};
///
/// sharded_stats! {
///     /// What a cache did.
///     pub struct CacheStats {
///         /// Lookups that hit, counted under the core's set lock.
///         hits: Exclusive<Vec<u64>>,
///         /// Entries evicted, by whoever notices.
///         evictions: Shared,
///         /// Entries cached now; the owner fills it in.
///         resident: Gauge,
///     }
///     /// The cells behind [`CacheStats`].
///     pub struct CacheCells;
/// }
///
/// let sets = [SpinLock::new(vec![7u64]), SpinLock::new(vec![])];
/// let cells = CacheCells::new(2);
/// {
///     let set = sets[1].lock();
///     cells.add_held(1, CacheStats::hits, &set, 1);
/// }
/// cells.add(0, CacheStats::evictions, 2);
/// let before = cells.snapshot();
/// cells.add(1, CacheStats::evictions, 3);
/// let now = CacheStats { resident: 1, ..cells.snapshot() };
/// assert_eq!((now.hits, now.evictions, cells.evictions()), (1, 5, 5));
/// assert_eq!(now.since(&before), CacheStats { hits: 0, evictions: 3, resident: 0 });
/// let mut names = Vec::new();
/// now.visit(|name, _| names.push(name));
/// assert_eq!(names, ["hits", "evictions", "resident"]);
/// ```
///
/// Per field the macro takes the doc comment, the name and the kind —
/// [`Shared`], [`Exclusive<T>`](Exclusive) or `Gauge` (module docs) — and
/// generates:
///
/// * the snapshot struct (every field a `pub u64`; `Debug`, `Default`,
///   `Clone`, `Copy`, `PartialEq`, `Eq`), with `since(&earlier)` — the
///   counters' difference; gauges zero, a difference has no level — and
///   `visit(|name, value|)` in declaration order;
/// * a [`Field`] token per cell, as an associated constant of the
///   snapshot struct named like the field and as visible as the cells
///   struct: what [`ShardedStats::add`] and its siblings take;
/// * the cells struct: `new(ncores)`, `snapshot()` (gauges zero: the
///   owner fills them with struct update syntax), a `u64` reader per
///   cell named like the field, and `Deref` to the [`ShardedStats`]
///   whose words are the cells **in declaration order**.
///
/// The rule is the type. A single-mutator field cannot be bumped without
/// the locked data:
///
/// ```compile_fail,E0308
/// # rvm_sync::sharded_stats! { pub struct S { hits: Exclusive<Vec<u64>> } pub struct C; }
/// C::new(1).add(0, S::hits, 1); // `add` is the atomic bump: `Shared` only
/// ```
///
/// nor with another lock's data:
///
/// ```compile_fail,E0308
/// # rvm_sync::sharded_stats! { pub struct S { hits: Exclusive<Vec<u64>> } pub struct C; }
/// let other = rvm_sync::SpinLock::new(0u64);
/// C::new(1).add_held(0, S::hits, &other.lock(), 1); // guards a `u64`, not the `Vec<u64>`
/// ```
///
/// nor from a site that does not even know its core:
///
/// ```compile_fail,E0308
/// # rvm_sync::sharded_stats! { pub struct S { hits: Exclusive<Vec<u64>> } pub struct C; }
/// C::new(1).add_here(S::hits, 1); // no core in scope, so no core's lock held
/// ```
#[macro_export]
macro_rules! sharded_stats {
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $Snap:ident {
            $(
                $(#[$field_meta:meta])*
                $field:ident : $kind:ident $(<$held:ty>)?
            ),* $(,)?
        }
        $(#[$cells_meta:meta])*
        $cells_vis:vis struct $Cells:ident;
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        $snap_vis struct $Snap {
            $( $(#[$field_meta])* pub $field: u64, )*
        }

        $(#[$cells_meta])*
        $cells_vis struct $Cells(
            $crate::ShardedStats<$Snap, { 0 $(+ $crate::sharded_stats!(@words $kind))* }>,
        );

        const _: () = {
            // Every field's position in the list, and from it its word:
            // the cells before it.
            #[allow(non_camel_case_types, dead_code)]
            enum Listed { $($field),* }
            const WORDS: &[usize] = &[$($crate::sharded_stats!(@words $kind)),*];
            const fn word(field: Listed) -> usize {
                let (mut before, mut word) = (field as usize, 0);
                while before > 0 {
                    before -= 1;
                    word += WORDS[before];
                }
                word
            }

            #[allow(non_upper_case_globals, dead_code)]
            impl $Snap {
                $($crate::sharded_stats! {
                    @token $kind $(<$held>)?, $cells_vis $field, word(Listed::$field), $Snap
                })*

                /// What was counted since `earlier`: every counter's
                /// (wrapping) difference, every gauge zero.
                $snap_vis fn since(&self, earlier: &Self) -> Self {
                    $Snap {
                        $($field: $crate::sharded_stats!(@words $kind) as u64
                            * self.$field.wrapping_sub(earlier.$field),)*
                    }
                }

                /// Calls `f(name, value)` for every field, in
                /// declaration (cell) order.
                $snap_vis fn visit(&self, mut f: impl FnMut(&'static str, u64)) {
                    $(f(stringify!($field), self.$field);)*
                }
            }

            #[allow(dead_code)]
            impl $Cells {
                /// Creates the cells, striped for `ncores` cores.
                $cells_vis fn new(ncores: usize) -> Self {
                    $Cells($crate::ShardedStats::new(ncores))
                }

                /// Sums the cells into a snapshot (gauges read zero).
                $cells_vis fn snapshot(&self) -> $Snap {
                    $Snap {
                        $($field: $crate::sharded_stats!(@read $kind, self.0, word(Listed::$field)),)*
                    }
                }

                $($crate::sharded_stats! {
                    @reader $kind, $(#[$field_meta])* $cells_vis $field, word(Listed::$field)
                })*
            }

            impl ::std::ops::Deref for $Cells {
                type Target = $crate::ShardedStats<$Snap, { 0 $(+ $crate::sharded_stats!(@words $kind))* }>;
                #[inline(always)]
                fn deref(&self) -> &Self::Target {
                    &self.0
                }
            }
        };
    };

    // Words a field of this kind takes in a core's cell.
    (@words Gauge) => { 0usize };
    (@words Shared) => { 1usize };
    (@words Exclusive) => { 1usize };

    (@token Gauge, $($rest:tt)*) => {};
    (@token $kind:ident $(<$held:ty>)?, $vis:vis $field:ident, $word:expr, $Snap:ident) => {
        /// The cell of the field of this name: what a bump names.
        $vis const $field: $crate::shard::Field<$Snap, $crate::shard::$kind $(<$held>)?> =
            $crate::shard::Field::at($word);
    };

    (@read Gauge, $cells:expr, $word:expr) => { 0 };
    (@read $kind:ident, $cells:expr, $word:expr) => { $cells.sum_at($word) };

    (@reader Gauge, $($rest:tt)*) => {};
    (@reader $kind:ident, $(#[$meta:meta])* $vis:vis $field:ident, $word:expr) => {
        $(#[$meta])*
        $vis fn $field(&self) -> u64 {
            self.0.sum_at($word)
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, SpinLock};

    sharded_stats! {
        /// A set with every kind, gauges between the cells.
        struct Tally {
            /// First word.
            plain: Shared,
            /// No word.
            level: Gauge,
            /// Second word.
            locked: Exclusive<u8>,
            /// No word.
            depth: Gauge,
            /// Third word.
            net: Shared,
        }
        /// Its cells.
        struct TallyCells;
    }

    #[test]
    fn declared_block_matches_the_sum_by_hand() {
        // Tokens number the cells in declaration order, gauges skipped.
        assert_eq!(
            [
                Tally::plain.index(),
                Tally::locked.index(),
                Tally::net.index()
            ],
            [0, 1, 2]
        );
        let c = TallyCells::new(4);
        for core in 0..4 {
            c.add(core, Tally::plain, 10);
            c.add_held(core, Tally::locked, &0u8, core as u64);
        }
        c.add(2, Tally::plain, 5);
        c.add(0, Tally::net, 100);
        c.sub(1, Tally::net, 40);
        let snap = c.snapshot();
        assert_eq!(
            (snap.plain, snap.locked, snap.net),
            (c.sum_at(0), c.sum_at(1), c.sum_at(2))
        );
        assert_eq!((snap.plain, snap.locked, snap.net), (45, 6, 60));
        assert_eq!((c.plain(), c.locked(), c.net()), (45, 6, 60));
        assert_eq!((snap.level, snap.depth), (0, 0), "gauges are the owner's");
        // Cell 1 went "negative" (wrapped); the fold reconciled.
        assert_eq!(
            (c.stripe(0, 2), c.stripe(1, 2)),
            (100, 40u64.wrapping_neg())
        );
        c.sub(1, Tally::net, 60);
        assert_eq!(c.net(), 0);
    }

    #[test]
    fn visit_is_in_cell_order_and_since_subtracts_counters_only() {
        let c = TallyCells::new(1);
        c.add(0, Tally::plain, 3);
        let before = Tally {
            level: 9,
            ..c.snapshot()
        };
        c.add(0, Tally::plain, 4);
        c.add(0, Tally::net, 1);
        let now = Tally {
            level: 2,
            depth: 7,
            ..c.snapshot()
        };
        let mut seen = Vec::new();
        now.since(&before).visit(|name, v| seen.push((name, v)));
        assert_eq!(
            seen,
            [
                ("plain", 4),
                ("level", 0),
                ("locked", 0),
                ("depth", 0),
                ("net", 1)
            ]
        );
    }

    #[test]
    fn exclusive_adds_are_exact_under_the_cores_lock() {
        // Two threads per core bump one field, each under that core's
        // lock, while a reader sums without it: no update is lost and
        // every read is a whole value.
        use std::sync::Arc;
        const PER_THREAD: u64 = 20_000;
        let stats = Arc::new(TallyCells::new(2));
        let locks = Arc::new([SpinLock::new(0u8), SpinLock::new(0u8)]);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let (stats, locks) = (stats.clone(), locks.clone());
                std::thread::spawn(move || {
                    let core = t % 2;
                    for _ in 0..PER_THREAD {
                        let held = locks[core].lock();
                        stats.add_held(core, Tally::locked, &held, 3);
                    }
                })
            })
            .collect();
        let mut last = 0;
        while writers.iter().any(|w| !w.is_finished()) {
            let now = stats.locked();
            assert!(now >= last && now.is_multiple_of(3), "{last} -> {now}");
            last = now;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(stats.locked(), 4 * PER_THREAD * 3);
        assert_eq!(stats.plain(), 0);
    }

    #[test]
    fn exclusive_add_is_one_unlocked_line_event() {
        let guard = sim::install(1, CostModel::default());
        let s = TallyCells::new(1);
        s.add(0, Tally::plain, 1);
        let before = sim::stats().cores[0];
        s.add_held(0, Tally::locked, &0, 1);
        let mid = sim::stats().cores[0];
        s.add(0, Tally::plain, 1);
        let after = sim::stats().cores[0];
        assert_eq!(mid.local_hits - before.local_hits, 1);
        assert_eq!(after.local_hits - mid.local_hits, 1, "priced alike");
        assert_eq!(mid.rmws, before.rmws, "no locked instruction");
        assert_eq!(after.rmws, mid.rmws + 1);
        assert_eq!((s.plain(), s.locked()), (2, 1));
        drop(guard);
    }

    #[test]
    fn any_core_id_maps_to_a_stripe() {
        // Striping must accept core ids beyond the construction count
        // (sum still exact, just shared stripes).
        let c = TallyCells::new(3); // rounds to 4 stripes
        assert_eq!(c.shards(), 4);
        for core in 0..64 {
            c.add(core, Tally::plain, 1);
        }
        assert_eq!(c.plain(), 64);
    }

    #[test]
    fn increments_stay_core_local_in_sim() {
        // The whole point: disjoint cores bumping the same logical
        // counter cause no remote cache-line transfers in steady state.
        let guard = sim::install(4, CostModel::default());
        let c = TallyCells::new(4);
        // Warm every core's own cell (first touch is a cold miss).
        for core in 0..4 {
            sim::switch(core);
            c.add_here(Tally::plain, 1);
        }
        let before = sim::stats();
        for _round in 0..100 {
            for core in 0..4 {
                sim::switch(core);
                c.add_here(Tally::plain, 1);
            }
        }
        let after = sim::stats();
        for core in 0..4 {
            assert_eq!(
                after.cores[core].remote_transfers, before.cores[core].remote_transfers,
                "core {core} paid remote traffic for its own stats cell"
            );
            assert_eq!(c.stripe(core, 0), 101, "`add_here` found core {core}");
        }
        assert_eq!(c.plain(), 404);
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
