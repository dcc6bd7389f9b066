//! Refcache: space-efficient, lazy, scalable reference counting.
//!
//! Implements the reference-counting scheme of RadixVM ([Clements et al.,
//! EuroSys 2013], §3.1). Each object has a *global* reference count, and
//! each core keeps a small fixed-size cache of per-object count *deltas*.
//! `inc`/`dec` touch only the local delta cache, so objects manipulated
//! from one core cause no cache-line movement at all. Deltas are flushed
//! to the global counts once per *epoch*; an object whose global count
//! drops to zero is placed on the detecting core's review queue and freed
//! only after its count has provably remained zero for an entire epoch
//! (re-checked two epoch boundaries later, with *dirty zeros* re-queued).
//! One zero skips the wait: a table-embedded cell's, applied by the only
//! core that ever added to it, which no other core's cache can revive
//! (the last point below) — biased reference counting (Choi et al.,
//! PACT 2018) on the delta caches. [`Refcache::surrender`] decides it on
//! the delta it has just cached, so a frame comes back inside the unmap
//! that gave up its last reference, whether or not any core ticks.
//!
//! Space is proportional to objects **plus** cores, not objects **times**
//! cores — the property that makes per-physical-page reference counting
//! affordable (§3.1).
//!
//! Weak references ([`weak`]) let a data structure (the radix tree) revive
//! an object whose count has reached zero, with a single atomic word per
//! object and a `DYING` bit arbitration between revival and reclamation.
//!
//! The core machinery — delta caches, epoch flush, review/reap, dirty
//! zeros — is generic over *where the count lives* ([`Counted`]): boxed
//! heap objects ([`RcPtr`], freed on zero) and count cells embedded in
//! external tables ([`slot`]: activated in place, zero-count action in
//! place, no allocation on either end — how the frame table owns page
//! reference counts, DESIGN.md §8).
//!
//! # Freeing-safety argument
//!
//! A delta cached on some core refers to its object by raw pointer, so the
//! object must never be freed while *any* core caches a delta for it:
//!
//! * At the moment an object is queued for review (global count reached
//!   zero at epoch `E`), every then-cached delta will be flushed before
//!   the global epoch reaches `E + 2`, because the epoch only advances
//!   when every core has flushed.
//! * Any such flush that changes the count marks the object **dirty** (or
//!   makes the count non-zero), so review re-queues instead of freeing.
//! * New deltas after the queueing instant require a live reference
//!   (which implies a positive cached-sum, hence a dirty flush before any
//!   free decision) or a weak-reference `tryget` (which clears `DYING`,
//!   making the freeing CAS fail).
//! * A `tryget` that read the weak word *before* the queueing instant
//!   (not yet `DYING`) caches its increment in the same critical section
//!   of its core's delta cache, so every flush of that core — by the core
//!   itself or by another thread acting for it, as [`Refcache::quiesce`]
//!   does — either precedes the read or applies the increment. Without
//!   that, a reader preempted between the read and the increment could
//!   sleep through two foreign-driven epochs and wake up holding a freed
//!   object.
//!
//! Hence when review finally frees, no cached delta for the object exists
//! anywhere.
//!
//! * A slot-backed cell records its **adders**, the cores that added
//!   references to it since [`Refcache::activate`], each under the
//!   cell's state lock before its delta enters the core's cache. Let `T`
//!   be the true count and `G` the global one: `T = G + Σ deltas` (cached
//!   or being flushed) and `T ≥ 0`. When `evict` applies core `c`'s
//!   delta and `G` reaches zero while the adders are none or `c` alone,
//!   `c`'s whole delta is applied (a cache holds one way per object),
//!   and no other core holds a positive delta, since its core would be
//!   an adder and `evict` reads the adders under the lock that recorded
//!   them. So `T ≤ 0`, hence `T = 0` and every other delta is zero. A
//!   new reference needs a live one and cells have no `tryget`, so
//!   nothing revives the cell, and no cache keeps a non-zero delta for
//!   an address that may be re-activated: `evict` releases the cell at
//!   once. [`Refcache::surrender`] applies the same test to `G` plus the
//!   delta it has just cached, which is what that `evict` would apply,
//!   and releases the cell under the core lock it holds. Any other zero
//!   — a boxed object's, a cell's with a foreign adder, one already on
//!   review — takes the two-epoch path above.
//!
//! Unit and stress tests exercise these races; see also the proptest
//! model comparing against an exact counter.
//!
//! [Clements et al., EuroSys 2013]: https://pdos.csail.mit.edu/papers/radixvm:eurosys13.pdf

use std::collections::VecDeque;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use rvm_sync::{sharded_stats, sim, Atomic64, CachePadded, Mutex, RwLock, SpinLock};

pub mod counters;
pub mod obj;
pub mod slot;
pub mod weak;

pub use obj::{Counted, Managed, RcPtr, ReleaseCtx};
pub use slot::{CountSlot, SlotManaged, SlotPtr};

use obj::{drop_impl, Header, ObjState, RcBox};

/// Delta-cache slots per core (a power of two). Larger caches lower the
/// conflict/eviction rate at the cost of space — the paper's
/// space/scalability trade-off (§3.1), which
/// `conflicts_fall_as_the_delta_cache_grows` measures at 64, 512 and
/// 4096 slots.
const CACHE_SLOTS: usize = 4096;

/// Epochs an object waits on the review queue before it is examined.
/// Two, and no fewer: a delta cached anywhere when the object was queued
/// at epoch `E` is flushed before the epoch reaches `E + 2` (the epoch
/// advances only once every core has flushed), so only then has a full
/// epoch of flushes passed with the object queued, and a count still
/// clean at zero is a true zero (module docs, DESIGN.md §8).
const REVIEW_DELAY: u64 = 2;

/// One started pass in [`Refcache`]'s `releasing` word: its high half
/// counts passes started, its low half passes running.
const PASS_STARTED: u64 = 1 << 32;

/// One delta-cache way: an object pointer and its locally cached delta.
#[derive(Clone, Copy)]
struct Slot {
    obj: usize,
    delta: i64,
}

const EMPTY_SLOT: Slot = Slot { obj: 0, delta: 0 };

/// 4 KiB pages a core may surrender ([`Refcache::surrender`]) between two
/// flushes of its delta cache before the answer asks its caller for a
/// tick: **one superpage**. A frame only the core added to comes back
/// inside the surrender; anything else it gave up — a frame another core
/// added to, the radix nodes an unmap emptied — is released, or starts
/// its two-epoch clock, only at the core's next flush, so this bounds
/// what a core can sit on with no clock running, whatever its caller's
/// timer does. The pages count either way: the count stays one add under
/// the lock. One superpage because that is the unit a single operation
/// can give up: a workload that unmaps 2 MiB per op ticks once per op,
/// while 4 KiB workloads (128 pages between their own ticks) never reach
/// it and pay nothing. Larger costs the bound in proportion and buys no
/// time back (DESIGN.md §8: two superpages read twice the benchmark's
/// footprint, four read five times). A constant: no caller has a reason
/// for another value.
pub const EXPEDITE_PAGES: u64 = 512;

/// Per-core Refcache state: the delta cache and the review queue.
struct CoreCache {
    slots: Box<[Slot]>,
    /// Indices of the non-empty `slots`, in the order they were first
    /// dirtied since the last flush, so a flush visits what was touched
    /// instead of walking the whole cache. An index enters when its way
    /// goes from empty to occupied (a conflict eviction re-uses the way,
    /// and its index) and the list empties at every flush, so it never
    /// outgrows the capacity of one index per way it is created with.
    occupied: Vec<u32>,
    review: VecDeque<(usize, u64)>,
    /// The objects the next [`Refcache::review`] pass frees (header
    /// addresses, like `review`'s): the cells `evict` released at once,
    /// then what the pass itself confirms. Taken out for the pass (the
    /// frees run with the core unlocked) and put back empty unless a
    /// flush queued more meanwhile, so a tick that frees a hundred frames
    /// grows no fresh list.
    to_free: Vec<usize>,
    local_epoch: u64,
    /// 4 KiB pages of memory behind the references this core has
    /// surrendered ([`Refcache::surrender`]) since its delta cache was
    /// last flushed — by whichever thread. Plain data under this lock,
    /// like the deltas it rides with: no access of its own.
    surrendered: u64,
}

sharded_stats! {
    /// Global counters exposed by [`Refcache::stats`].
    pub struct RefcacheStats {
        /// Objects allocated. `alloc` has no core in scope.
        allocs: Shared,
        /// Objects freed (true-zero confirmed). `free_untracked` has no
        /// core in scope.
        frees: Shared,
        /// Delta-cache conflict evictions (hash collisions), in `adjust`.
        conflicts: Exclusive<CoreCache>,
        /// Cache flushes performed.
        flushes: Exclusive<CoreCache>,
        /// Objects re-queued because of a dirty zero, in `review`.
        dirty_zeros: Exclusive<CoreCache>,
        /// Objects revived through a weak reference after reaching zero,
        /// in `review`.
        revivals: Exclusive<CoreCache>,
        /// Table-embedded cells activated ([`Refcache::activate`]) — the
        /// slot-backed analogue of `allocs`, with no heap allocation
        /// behind it. `activate` takes the object's lock, not the core's.
        slot_activates: Shared,
        /// Table-embedded cells whose zero-count action ran (true-zero
        /// confirmed) — the slot-backed analogue of `frees`. Counted
        /// where the release is decided (in `review`, in the `evict` of
        /// a cell's only adder, or in the `surrender` that made its zero
        /// final), not where it runs after the lock dropped.
        slot_releases: Exclusive<CoreCache>,
        /// Of `flushes`, those of a [`Refcache::expedite`] tick: run by a
        /// [`Refcache::surrender`] caller because of the memory its core
        /// had given up, not by anybody's timer.
        expedited: Exclusive<CoreCache>,
        /// Current global epoch.
        epoch: Gauge,
    }
    /// The cells: `alloc`/`dec`-rate events bump only the operating
    /// core's padded cell (sum-on-read; DESIGN.md §6), most of them under
    /// that core's delta-cache lock and so without a locked instruction.
    struct RefcacheCells;
}

/// A callback invoked at the start of every [`Refcache::flush`], before
/// any delta is applied. Data structures use flush hooks to surrender
/// per-core cached references (for example, the radix tree's leaf-hint
/// pins) so that the epoch barrier never advances past a core that still
/// silently holds an object: a hook-held reference delays reclamation by
/// at most one flush interval.
pub type FlushHook = Box<dyn Fn(&Refcache, usize) + Send + Sync>;

/// The scalable reference-count cache (one per simulated machine).
pub struct Refcache {
    ncores: usize,
    cores: Vec<CachePadded<Mutex<CoreCache>>>,
    /// Global epoch counter; advances when all cores have flushed.
    global_epoch: Atomic64,
    /// Number of cores that have flushed in the current epoch.
    flushed_cores: Atomic64,
    /// Flush hooks, keyed by registration id. Read on every flush (cheap:
    /// almost always shared), written only on register/unregister.
    hooks: RwLock<Vec<(u64, FlushHook)>>,
    /// Number of registered hooks; lets `flush` skip the hook lock
    /// entirely when no data structure registered one (std atomic: not
    /// simulator-instrumented, so the common no-hook case stays free).
    hook_count: AtomicU64,
    next_hook_id: AtomicU64,
    /// [`Refcache::review`] passes that run their frees with the core
    /// unlocked: the low half counts the passes running, the high half
    /// (in units of [`PASS_STARTED`], wrapping) every pass ever started.
    /// [`Refcache::quiesce`] reads both: a pass another thread runs for
    /// a core may hold frees the quiescer's own passes never saw, and
    /// those frees' releases may cache references after the quiescer's
    /// last flush of that core. A pass counts itself under the core lock,
    /// before it unlocks, and its `Release` decrement after the frees
    /// pairs with `quiesce`'s `Acquire` loads, so a zero low half means
    /// those frees are done. Std atomic, like `hook_count`: not
    /// instrumented.
    releasing: AtomicU64,
    stats: RefcacheCells,
}

impl Refcache {
    /// Creates a cache for `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        assert!((1..=rvm_sync::MAX_CORES).contains(&ncores));
        let cores = (0..ncores)
            .map(|_| {
                CachePadded::new(Mutex::new(CoreCache {
                    slots: vec![EMPTY_SLOT; CACHE_SLOTS].into_boxed_slice(),
                    occupied: Vec::with_capacity(CACHE_SLOTS),
                    review: VecDeque::new(),
                    to_free: Vec::new(),
                    local_epoch: 0,
                    surrendered: 0,
                }))
            })
            .collect();
        Refcache {
            ncores,
            cores,
            global_epoch: Atomic64::new(1),
            flushed_cores: Atomic64::new(0),
            hooks: RwLock::new(Vec::new()),
            hook_count: AtomicU64::new(0),
            next_hook_id: AtomicU64::new(1),
            releasing: AtomicU64::new(0),
            stats: RefcacheCells::new(ncores),
        }
    }

    /// [`Refcache::new`] with `slots` delta-cache slots per core instead
    /// of [`CACHE_SLOTS`]: the small caches that make conflict evictions
    /// easy to provoke.
    #[cfg(test)]
    fn with_cache_slots(ncores: usize, slots: usize) -> Self {
        assert!(slots.is_power_of_two());
        let rc = Self::new(ncores);
        for core in &rc.cores {
            let mut cc = core.lock();
            cc.slots = vec![EMPTY_SLOT; slots].into_boxed_slice();
            cc.occupied = Vec::with_capacity(slots);
        }
        rc
    }

    /// Number of cores this cache serves.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// Current global epoch.
    pub fn epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Acquire)
    }

    /// Snapshot of the cache's counters.
    pub fn stats(&self) -> RefcacheStats {
        RefcacheStats {
            epoch: self.epoch(),
            ..self.stats.snapshot()
        }
    }

    /// Number of live managed objects (allocated minus freed).
    pub fn live_objects(&self) -> u64 {
        // Wrapping: a reader racing writers can observe a free before the
        // matching alloc (sharded sums are not snapshots, DESIGN.md §6);
        // the value is exact at quiescence.
        self.stats.allocs().wrapping_sub(self.stats.frees())
    }

    /// Number of live slot activations (activated minus released); exact
    /// at quiescence, like [`Refcache::live_objects`].
    pub fn live_slots(&self) -> u64 {
        self.stats
            .slot_activates()
            .wrapping_sub(self.stats.slot_releases())
    }

    /// Registers a [`FlushHook`] invoked at the start of every flush.
    /// Returns an id for [`Refcache::unregister_flush_hook`].
    pub fn register_flush_hook(
        &self,
        hook: impl Fn(&Refcache, usize) + Send + Sync + 'static,
    ) -> u64 {
        let id = self.next_hook_id.fetch_add(1, Ordering::Relaxed);
        let mut hooks = self.hooks.write();
        hooks.push((id, Box::new(hook)));
        self.hook_count.store(hooks.len() as u64, Ordering::Release);
        id
    }

    /// Removes a previously registered flush hook.
    pub fn unregister_flush_hook(&self, id: u64) {
        let mut hooks = self.hooks.write();
        hooks.retain(|(h, _)| *h != id);
        self.hook_count.store(hooks.len() as u64, Ordering::Release);
    }

    /// Allocates a managed object with an initial reference count.
    ///
    /// The initial count covers the creator's references (for example, a
    /// radix node created by expansion starts with one reference per
    /// pre-filled slot plus one for the installing traversal).
    pub fn alloc<T: Managed>(&self, init_count: i64, obj: T) -> RcPtr<T> {
        sim::charge_alloc();
        let boxed = Box::new(RcBox {
            hdr: Header {
                state: SpinLock::new(ObjState::new(init_count)),
                weak: AtomicUsize::new(0),
                drop_fn: drop_impl::<T>,
                slot_backed: false,
            },
            obj,
        });
        self.stats.add_here(RefcacheStats::allocs, 1);
        let raw = Box::into_raw(boxed);
        // SAFETY: `Box::into_raw` never returns null.
        RcPtr {
            raw: unsafe { NonNull::new_unchecked(raw) },
        }
    }

    /// The way of a `slots`-way delta cache that `obj` hashes to.
    #[inline]
    fn hash_obj(obj: usize, slots: usize) -> usize {
        // Multiplicative hash of the (16-aligned) object address.
        let h = (obj as u64 >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (slots - 1)
    }

    /// Applies `delta` to `core`'s cached count for `obj` (the paper's
    /// `inc`/`dec`, generalised to ±k so a caller settling k references
    /// at once — the radix tree's per-leaf slot bookkeeping — pays one
    /// cache round-trip, not k). Conflicting entries are evicted to the
    /// global count. Generic over where the count lives: boxed objects
    /// ([`RcPtr`]) and table-embedded cells ([`SlotPtr`]) share the
    /// delta cache, keyed by header address.
    ///
    /// A positive `delta` needs the caller to hold a logical reference
    /// to `obj` already (or to have just obtained the pointer via
    /// [`Refcache::tryget`]); a negative one surrenders that many.
    pub fn adjust<P: Counted>(&self, core: usize, obj: P, delta: i64) {
        if P::SLOT_BACKED && delta > 0 {
            // Recorded before the delta enters the cache, so an evict
            // that finds no adder but its own core knows no other cache
            // holds a positive delta for the cell (module docs).
            // SAFETY: the caller holds a reference, so the cell's table
            // is live and `count_addr` points at its header.
            let hdr = unsafe { &*(obj.count_addr() as *const Header) };
            let mut st = hdr.state.lock();
            let me = core as u16 + 1;
            if st.adders != me {
                st.adders = if st.adders == 0 {
                    me
                } else {
                    ObjState::SEVERAL
                };
            }
        }
        let mut cc = self.cores[core].lock();
        self.adjust_locked(&mut cc, core, obj.count_addr(), delta);
    }

    /// [`Refcache::adjust`] on the object whose header is at `key`, with
    /// `core`'s delta cache already locked.
    fn adjust_locked(&self, cc: &mut CoreCache, core: usize, key: usize, delta: i64) {
        let idx = Self::hash_obj(key, cc.slots.len());
        let slot = cc.slots[idx];
        if slot.obj == key {
            cc.slots[idx].delta += delta;
            return;
        }
        if slot.obj == 0 {
            cc.occupied.push(idx as u32);
        } else {
            self.stats.add_held(core, RefcacheStats::conflicts, cc, 1);
            if slot.delta != 0 {
                let epoch = self.epoch();
                // SAFETY: a cached delta implies the object has not been
                // freed (see the module-level freeing-safety argument).
                unsafe { self.evict(cc, core, slot.obj, slot.delta, epoch) };
            }
        }
        cc.slots[idx] = Slot { obj: key, delta };
    }

    /// Surrenders `refs` references to `obj` on `core` —
    /// [`Refcache::adjust`] by `-refs` — that stood for `pages` 4 KiB
    /// pages of memory, and answers whether the core has now surrendered
    /// at least [`EXPEDITE_PAGES`] since its delta cache was last
    /// flushed. The pages are added in the critical section the
    /// adjustment takes anyway (no lock, instrumented access or
    /// allocation of its own) and every [`Refcache::flush`] of the core,
    /// whoever runs it, starts the count again under the same lock, so it
    /// is exact however many threads act for the core.
    ///
    /// A true answer asks the caller for one [`Refcache::expedite`] once
    /// it holds no lock a flush hook takes (DESIGN.md §5: never under a
    /// hint-riding guard). The answer stays true until a flush, so a
    /// caller that cannot tick leaves it to the next one that can.
    ///
    /// A slot-backed cell whose count this surrender makes a final zero
    /// — its global count plus the core's cached delta is zero, it is not
    /// on review, and its adders are none or `core` — is released before
    /// the call returns: the delta is applied and the cell's
    /// [`SlotManaged::on_zero`] runs under the core's lock, so a frame
    /// comes back inside the unmap that gave it up. That is the zero a
    /// flush of the core would find final the moment the lock dropped
    /// (module docs), decided one flush earlier; every other zero waits
    /// for a flush as an `adjust`'s does. The pages count either way.
    pub fn surrender<P: Counted>(&self, core: usize, obj: P, refs: i64, pages: u64) -> bool {
        let key = obj.count_addr();
        let mut cc = self.cores[core].lock();
        self.adjust_locked(&mut cc, core, key, -refs);
        if P::SLOT_BACKED && refs > 0 {
            // SAFETY: the caller held the references it surrenders, so
            // the cell's table is live and `key` is its header.
            unsafe { self.release_if_final(&mut cc, core, key) };
        }
        cc.surrendered += pages;
        cc.surrendered >= EXPEDITE_PAGES
    }

    /// Releases the slot-backed cell whose header is at `key` in place
    /// when `core`'s cached delta brings its global count to a final
    /// zero: the [`Refcache::evict`] of its only adder, run with the
    /// action inside the core's lock instead of at the next review (lock
    /// order: core → object, then the action's own locks). A
    /// [`Refcache::quiesce`], which takes this lock, orders after the
    /// action, so no release pass is counted for it.
    ///
    /// # Safety
    ///
    /// `key` must point to a live `CountSlot`'s header that `cc` holds a
    /// way for (a [`Refcache::adjust_locked`] on it just ran).
    unsafe fn release_if_final(&self, cc: &mut CoreCache, core: usize, key: usize) {
        let idx = Self::hash_obj(key, cc.slots.len());
        debug_assert_eq!(cc.slots[idx].obj, key);
        let hdr = &*(key as *const Header);
        let mut st = hdr.state.lock();
        if st.on_review || !st.only_adder_is(core) || st.refcnt + cc.slots[idx].delta != 0 {
            return;
        }
        st.refcnt = 0;
        st.dirty = false;
        drop(st);
        // The way keeps its key at delta zero, which a flush skips: it
        // stays where `occupied` lists it.
        cc.slots[idx].delta = 0;
        self.stats
            .add_held(core, RefcacheStats::slot_releases, cc, 1);
        let ctx = ReleaseCtx { cache: self, core };
        (hdr.drop_fn)(key as *mut Header, &ctx);
    }

    /// Increments the reference count of `obj` on `core`.
    ///
    /// The caller must hold a logical reference to `obj` (or have just
    /// obtained the pointer via [`Refcache::tryget`]).
    #[inline]
    pub fn inc<P: Counted>(&self, core: usize, obj: P) {
        self.adjust(core, obj, 1);
    }

    /// Decrements the reference count of `obj` on `core`, surrendering one
    /// logical reference. The object is freed — or, for slot-backed
    /// storage, its zero-count action runs — (lazily) when its true
    /// count reaches zero.
    #[inline]
    pub fn dec<P: Counted>(&self, core: usize, obj: P) {
        self.adjust(core, obj, -1);
    }

    /// Activates a dormant table-embedded cell with an initial reference
    /// count — the slot-backed analogue of [`Refcache::alloc`], with no
    /// heap allocation and no allocation charge (the cell's storage
    /// already exists in its table; this is what keeps the 4 KiB fault
    /// path allocation-free, DESIGN.md §8).
    ///
    /// The caller must own the cell's underlying resource exclusively
    /// (e.g. have just allocated the frame), which guarantees the cell
    /// is dormant: its previous activation, if any, completed the full
    /// review protocol before the resource became reallocatable.
    pub fn activate<T: SlotManaged>(&self, core: usize, cell: SlotPtr<T>, init_count: i64) {
        self.stats.add(core, RefcacheStats::slot_activates, 1);
        // SAFETY: the cell's table is live (the caller holds its
        // resource) and `count_addr` points at its header.
        let hdr = unsafe { &*(cell.count_addr() as *const Header) };
        let mut st = hdr.state.lock();
        debug_assert!(!st.on_review, "activated a cell still under review");
        debug_assert_eq!(st.refcnt, 0, "activated a cell with live count");
        st.refcnt = init_count;
        st.dirty = false;
        st.adders = 0;
    }

    /// Applies `core`'s whole cached delta for an object to its global
    /// count (the paper's `evict`). Queues the object for review when the
    /// count reaches zero — or, for a slot-backed cell whose only adder
    /// is `core` (or that has none), releases it at `core`'s next
    /// [`Refcache::review`]: that zero is final (module docs).
    ///
    /// Called with the core lock held; takes the object lock (lock order:
    /// core → object).
    ///
    /// # Safety
    ///
    /// `obj_addr` must point to a live managed object's header.
    unsafe fn evict(
        &self,
        cc: &mut CoreCache,
        core: usize,
        obj_addr: usize,
        delta: i64,
        epoch: u64,
    ) {
        let hdr = &*(obj_addr as *const Header);
        let mut st = hdr.state.lock();
        st.refcnt += delta;
        if st.refcnt == 0 {
            if !st.on_review {
                st.dirty = false;
                if hdr.slot_backed && st.only_adder_is(core) {
                    // No other core ever added: a final zero (module
                    // docs). The cell is dormant from this hold on, as
                    // from review's; its action runs at the core's next
                    // review, with no lock held.
                    drop(st);
                    self.stats
                        .add_held(core, RefcacheStats::slot_releases, cc, 1);
                    cc.to_free.push(obj_addr);
                } else {
                    st.on_review = true;
                    // Mark the weak reference dying so tryget must revive.
                    let weak = hdr.weak.load(Ordering::Acquire);
                    if weak != 0 {
                        // SAFETY: the weak word outlives the object (it is
                        // a slot in a parent structure kept alive by this
                        // child; see `register_weak`).
                        weak::set_dying(&*(weak as *const Atomic64));
                    }
                    drop(st);
                    cc.review.push_back((obj_addr, epoch));
                }
            }
            // Already under review: leave `dirty` as is — an earlier
            // non-zero excursion was recorded there.
        } else {
            // The count changed while (possibly) under review; a zero seen
            // by review is then a dirty zero.
            st.dirty = true;
        }
    }

    /// Flushes `core`'s delta cache and advances the epoch barrier (the
    /// paper's `flush`).
    pub fn flush(&self, core: usize) {
        self.flush_as(core, false);
    }

    /// [`Refcache::flush`]; `expedited` says whether to count it as an
    /// [`Refcache::expedite`] tick's.
    fn flush_as(&self, core: usize, expedited: bool) {
        // Run hooks before taking the core lock: hooks surrender cached
        // references (which re-enters `dec` and needs the core lock), and
        // doing it first guarantees those decs are part of this flush.
        if self.hook_count.load(Ordering::Acquire) != 0 {
            let hooks = self.hooks.read();
            for (_, hook) in hooks.iter() {
                hook(self, core);
            }
        }
        let mut cc = self.cores[core].lock();
        let epoch = self.epoch();
        self.stats.add_held(core, RefcacheStats::flushes, &cc, 1);
        if expedited {
            self.stats.add_held(core, RefcacheStats::expedited, &cc, 1);
        }
        // What the core surrendered is on its way to review from here.
        cc.surrendered = 0;
        // Only what was dirtied since the last flush; the list is taken
        // out for the walk (`evict` borrows the whole core cache) and put
        // back empty, keeping its allocation.
        let mut occupied = std::mem::take(&mut cc.occupied);
        for &i in &occupied {
            let slot = std::mem::replace(&mut cc.slots[i as usize], EMPTY_SLOT);
            if slot.delta != 0 {
                // SAFETY: cached deltas imply liveness (module docs).
                unsafe { self.evict(&mut cc, core, slot.obj, slot.delta, epoch) };
            }
        }
        occupied.clear();
        cc.occupied = occupied;
        // Epoch barrier: the last core to flush in an epoch advances it.
        if cc.local_epoch < epoch {
            cc.local_epoch = epoch;
            let f = self.flushed_cores.fetch_add(1, Ordering::SeqCst) + 1;
            if f as usize == self.ncores {
                self.flushed_cores.store(0, Ordering::SeqCst);
                self.global_epoch.store(epoch + 1, Ordering::SeqCst);
            }
        }
    }

    /// Processes `core`'s review queue (the paper's `review`): frees
    /// objects whose count has provably been zero for a full epoch,
    /// re-queues dirty zeros, and un-marks objects that came back. Runs
    /// the zero-count actions of the cells the core's flushes released
    /// at once as well.
    pub fn review(&self, core: usize) {
        self.review_pass(core);
    }

    /// [`Refcache::review`]; answers whether it ran a release pass (had
    /// anything to free).
    fn review_pass(&self, core: usize) -> bool {
        let mut to_free = {
            let mut cc = self.cores[core].lock();
            let mut to_free = std::mem::take(&mut cc.to_free);
            let epoch = self.epoch();
            let mut remaining = cc.review.len();
            while remaining > 0 {
                remaining -= 1;
                let (obj_addr, objepoch) = match cc.review.front() {
                    Some(&e) => e,
                    None => break,
                };
                if epoch < objepoch + REVIEW_DELAY {
                    break;
                }
                cc.review.pop_front();
                // SAFETY: objects on a review queue are kept alive until
                // this pass decides their fate (only review frees).
                let hdr = unsafe { &*(obj_addr as *const Header) };
                let mut st = hdr.state.lock();
                if st.refcnt != 0 {
                    // Came back to life; clear review state and dying.
                    self.stats.add_held(core, RefcacheStats::revivals, &cc, 1);
                    st.on_review = false;
                    st.dirty = false;
                    let weak = hdr.weak.load(Ordering::Acquire);
                    if weak != 0 {
                        // SAFETY: weak word outlives the object.
                        weak::clear_dying(unsafe { &*(weak as *const Atomic64) });
                    }
                    continue;
                }
                let weak = hdr.weak.load(Ordering::Acquire);
                let clean = !st.dirty && {
                    if weak == 0 {
                        true
                    } else {
                        // SAFETY: weak word outlives the object.
                        let word = unsafe { &*(weak as *const Atomic64) };
                        let cur = word.load(Ordering::Acquire);
                        weak::try_clear_for_free(word, weak::ptr_bits(cur), weak::tag_bits(cur))
                    }
                };
                if clean {
                    // The freeing CAS succeeded (or no weak exists): no
                    // new reference can appear. Defer the actual free
                    // until locks are dropped; count it here, under the
                    // core lock.
                    if hdr.slot_backed {
                        // A cell goes back to dormant under the hold that
                        // confirmed its zero, not under a second one in
                        // its zero action: nothing looks at the cell in
                        // between (no delta for it is cached anywhere and
                        // its resource is not reallocatable until the
                        // action runs).
                        st.on_review = false;
                        self.stats
                            .add_held(core, RefcacheStats::slot_releases, &cc, 1);
                    } else {
                        self.stats.add(core, RefcacheStats::frees, 1);
                    }
                    drop(st);
                    to_free.push(obj_addr);
                } else {
                    // Dirty zero or lost the race with a revive/lock:
                    // examine again two epochs from now.
                    self.stats
                        .add_held(core, RefcacheStats::dirty_zeros, &cc, 1);
                    st.dirty = false;
                    if weak != 0 {
                        // SAFETY: weak word outlives the object.
                        weak::set_dying(unsafe { &*(weak as *const Atomic64) });
                    }
                    drop(st);
                    cc.review.push_back((obj_addr, epoch));
                }
            }
            if to_free.is_empty() {
                // Nothing to free: the list goes straight back.
                cc.to_free = to_free;
                return false;
            }
            // Counted before the core unlocks, so a quiesce that takes the
            // lock after this pass did also sees it started and running.
            self.releasing
                .fetch_add(PASS_STARTED + 1, Ordering::Relaxed);
            to_free
        };
        // Uncounted when the pass ends, also by a panicking action: a
        // count left behind would hang every later quiesce.
        struct Running<'a>(&'a AtomicU64);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::Release);
            }
        }
        let _running = Running(&self.releasing);
        // Perform frees outside the per-core lock: `on_release` may
        // re-enter the cache (e.g. dec of a parent node).
        let ctx = ReleaseCtx { cache: self, core };
        for obj_addr in to_free.drain(..) {
            let hdr = obj_addr as *mut Header;
            // SAFETY: a live header (objects on a review queue or this
            // list stay alive until their action runs); review, or the
            // only adder's evict, confirmed a clean true zero with no
            // weak reference left, so this is the sole owner; `drop_fn`
            // matches the storage's payload type by construction.
            unsafe { ((*hdr).drop_fn)(hdr, &ctx) };
        }
        // Give the (empty) list back for the next pass, unless a flush
        // for this core queued releases in the meantime: those stay.
        let mut cc = self.cores[core].lock();
        if cc.to_free.is_empty() {
            cc.to_free = to_free;
        }
        true
    }

    /// Periodic per-core maintenance: flush then review. Call this
    /// regularly from each core (the kernel uses a 10 ms timer tick; the
    /// benchmarks call it every few hundred operations).
    pub fn maintain(&self, core: usize) {
        self.flush(core);
        self.review(core);
    }

    /// The [`Refcache::maintain`] a true answer from
    /// [`Refcache::surrender`] asks of its caller: the same flush and
    /// review, counted in [`RefcacheStats`]' `expedited` as well, so that
    /// `flushes - expedited` stays what callers' timers issued.
    pub fn expedite(&self, core: usize) {
        self.flush_as(core, true);
        self.review(core);
    }

    /// Runs enough maintenance rounds on all cores to flush every delta
    /// and free every unreferenced object, and returns once no release
    /// pass another thread ran overlapped them. Intended for tests and
    /// orderly shutdown.
    ///
    /// Such a pass may free an object whose release drops a reference
    /// (a radix node's parent) into a core's cache after this thread's
    /// last flush of that core; a caller that then frees the parent by
    /// hand ([`Refcache::free_untracked`]) would leave that delta to a
    /// later flush, which writes into freed memory. So the rounds run
    /// again until one set of them ran with no other pass running at its
    /// start and no pass but its own started during it; while other
    /// threads keep freeing, it keeps sweeping.
    pub fn quiesce(&self) {
        // Each full sweep over all cores advances the epoch at least once;
        // run enough sweeps for queue→review→(dirty requeue)→review.
        let rounds = 4 * REVIEW_DELAY as usize + 4;
        let running = PASS_STARTED - 1;
        loop {
            let before = self.releasing.load(Ordering::Acquire);
            let mut own = 0;
            for _ in 0..rounds {
                for c in 0..self.ncores {
                    self.flush(c);
                    own += u64::from(self.review_pass(c));
                }
            }
            let after = loop {
                let w = self.releasing.load(Ordering::Acquire);
                if w & running == 0 {
                    break w;
                }
                std::thread::yield_now();
            };
            if before & running == 0 && after.wrapping_sub(before) == own * PASS_STARTED {
                return;
            }
        }
    }

    /// Registers `slot` as the weak reference for `obj`.
    ///
    /// The caller must have stored `pack(obj.addr(), tag)` (possibly with
    /// the lock bit) into `slot` and must guarantee that `slot` outlives
    /// the object — in the radix tree, a parent node cannot be freed while
    /// a child holds a used slot in it.
    ///
    /// Each object supports at most one weak reference over its lifetime.
    pub fn register_weak<T>(&self, obj: RcPtr<T>, slot: &Atomic64) {
        let hdr = obj.header();
        // SAFETY: caller holds a reference, so the header is live.
        let prev = unsafe {
            (*hdr.as_ptr())
                .weak
                .swap(slot as *const Atomic64 as usize, Ordering::AcqRel)
        };
        debug_assert_eq!(prev, 0, "object already had a weak reference");
    }

    /// Severs the weak reference of `obj` without touching the slot word:
    /// after this, review's freeing pass treats the object as weak-less
    /// (a confirmed true zero frees it without a slot CAS).
    ///
    /// For callers that *repurpose* the slot word while the object is
    /// still referenced — the radix tree's refold publishes a FOLDED
    /// value into the slot that used to point at the leaf — this is the
    /// step that keeps a later zero-count review from CASing the new
    /// slot contents to zero. The caller must still hold a reference
    /// (the object is live), and must call this *before* surrendering
    /// the references that could take the count to zero: the swap is
    /// then ordered before the decs on this core, and any review that
    /// observes the true zero also observes `weak == 0`.
    pub fn unregister_weak<T>(&self, obj: RcPtr<T>) {
        let hdr = obj.header();
        // SAFETY: caller holds a reference, so the header is live.
        let prev = unsafe { (*hdr.as_ptr()).weak.swap(0, Ordering::AcqRel) };
        debug_assert_ne!(prev, 0, "object had no weak reference to sever");
    }

    /// Attempts to obtain a reference to the object behind a weak word.
    ///
    /// On success the object's count has been incremented on `core` and a
    /// typed pointer is returned; `None` means the object was deleted (or
    /// the slot does not currently hold tag `tag`).
    ///
    /// # Safety
    ///
    /// If `slot` currently holds a pointer under tag `tag`, it must point
    /// to an `RcBox<T>` registered with [`Refcache::register_weak`].
    pub unsafe fn tryget<T>(&self, core: usize, slot: &Atomic64, tag: u8) -> Option<RcPtr<T>> {
        // Read the word (reviving a dying object) and cache the increment
        // in one critical section of the core's delta cache: no flush of
        // this core, by whichever thread, may fall between the two (see
        // the module-level freeing-safety argument).
        let mut cc = self.cores[core].lock();
        match weak::tryget_raw(slot, tag) {
            weak::TrygetOutcome::Absent => None,
            weak::TrygetOutcome::Got(addr) => {
                self.adjust_locked(&mut cc, core, addr, 1);
                Some(RcPtr::<T>::from_header(NonNull::new_unchecked(
                    addr as *mut Header,
                )))
            }
        }
    }

    /// Runs `f` with a pinned reference to the object behind a weak word,
    /// releasing the pin when `f` returns (the scoped companion of
    /// [`Refcache::tryget`]). Returns `None` — without calling `f` — when
    /// the object is gone or the slot holds a different tag.
    ///
    /// Using this instead of manual `tryget`/`dec` pairs guarantees a
    /// traversal holds exactly one pin per nesting level and cannot leak
    /// one on an early return.
    ///
    /// # Safety
    ///
    /// Same contract as [`Refcache::tryget`]: if `slot` currently holds a
    /// pointer under tag `tag`, it must point to an `RcBox<T>` registered
    /// with [`Refcache::register_weak`].
    pub unsafe fn with_pin<T, R>(
        &self,
        core: usize,
        slot: &Atomic64,
        tag: u8,
        f: impl FnOnce(RcPtr<T>) -> R,
    ) -> Option<R> {
        let obj = self.tryget::<T>(core, slot, tag)?;
        let out = f(obj);
        self.dec(core, obj);
        Some(out)
    }

    /// Immediately frees a managed object, bypassing the lazy protocol
    /// and skipping [`Managed::on_release`]. Intended for exclusive
    /// teardown of whole structures (e.g. dropping a radix tree).
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the object: no logical
    /// references, no cached deltas on any core (call
    /// [`Refcache::quiesce`] first), no review-queue entries, and no weak
    /// reference uses can occur afterwards.
    pub unsafe fn free_untracked<T>(&self, obj: RcPtr<T>) {
        debug_assert!(!(*(obj.addr() as *const Header)).slot_backed);
        self.stats.add_here(RefcacheStats::frees, 1);
        drop(Box::from_raw(obj.raw.as_ptr()));
    }

    /// Reads an object's current *global* count (test/debug aid; the true
    /// count additionally includes cached deltas).
    pub fn global_count<P: Counted>(&self, obj: P) -> i64 {
        // SAFETY: caller holds a reference (boxed) or the cell's table is
        // live (slot-backed).
        unsafe { (*(obj.count_addr() as *const Header)).state.lock().refcnt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Arc;

    /// The word each counter had as a hand-numbered `F_*` constant up to
    /// PR 20, copied here once. Which word shares a line with which is
    /// simulator-visible: a field may
    /// be added at the end, none may move.
    #[test]
    fn refcachestats_cells_keep_their_words() {
        use RefcacheStats as S;
        let pinned = [
            ("allocs", S::allocs.index(), 0),
            ("frees", S::frees.index(), 1),
            ("conflicts", S::conflicts.index(), 2),
            ("flushes", S::flushes.index(), 3),
            ("dirty_zeros", S::dirty_zeros.index(), 4),
            ("revivals", S::revivals.index(), 5),
            ("slot_activates", S::slot_activates.index(), 6),
            ("slot_releases", S::slot_releases.index(), 7),
            ("expedited", S::expedited.index(), 8),
        ];
        for (name, word, was) in pinned {
            assert_eq!(word, was, "{name}");
        }
    }

    /// Test payload that counts drops and release callbacks.
    struct Tracked {
        drops: Arc<StdAtomicU64>,
        releases: Arc<StdAtomicU64>,
    }

    impl Managed for Tracked {
        fn on_release(&mut self, _ctx: &ReleaseCtx<'_>) {
            self.releases.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(rc: &Refcache, init: i64) -> (RcPtr<Tracked>, Arc<StdAtomicU64>, Arc<StdAtomicU64>) {
        let drops = Arc::new(StdAtomicU64::new(0));
        let releases = Arc::new(StdAtomicU64::new(0));
        let p = rc.alloc(
            init,
            Tracked {
                drops: drops.clone(),
                releases: releases.clone(),
            },
        );
        (p, drops, releases)
    }

    #[test]
    fn alloc_and_free_single_core() {
        let rc = Refcache::new(1);
        let (p, drops, releases) = tracked(&rc, 1);
        rc.dec(0, p);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "free must be lazy");
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(releases.load(Ordering::SeqCst), 1);
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn free_waits_full_epoch() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        rc.dec(0, p);
        // One maintain flushes the dec (global hits zero, queued at epoch
        // E); review at the same epoch must not free.
        rc.maintain(0);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        // Two more epoch advances reach E+2 and free.
        rc.maintain(0);
        rc.maintain(0);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn inc_dec_balanced_never_frees() {
        let rc = Refcache::new(2);
        let (p, drops, _) = tracked(&rc, 1);
        for _ in 0..100 {
            rc.inc(0, p);
            rc.dec(1, p);
        }
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(rc.global_count(p), 1);
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reorder_between_cores_is_tolerated() {
        // Reproduce the paper's Figure 1 scenario: a dec flushes before the
        // matching inc, producing a transient (false) global zero.
        let rc = Refcache::new(2);
        let (p, drops, _) = tracked(&rc, 1);
        rc.inc(0, p); // +1 cached on core 0
        rc.dec(1, p); // -1 cached on core 1
        rc.flush(1); // global: 1 - 1 = 0 → queued (false zero)
        rc.review(1);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        rc.flush(0); // global back to 1, marks dirty
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "false zero must not free");
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dirty_zero_defers_but_eventually_frees() {
        let rc = Refcache::new(2);
        let (p, drops, _) = tracked(&rc, 1);
        rc.dec(0, p);
        rc.flush(0); // global 0, queued on core 0
                     // Bounce the count 0 → 1 → 0 while under review: dirty zero.
        rc.inc(1, p);
        rc.flush(1); // global 1, dirty
        rc.dec(1, p);
        rc.flush(1); // global 0 again
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert!(rc.stats().dirty_zeros >= 1);
    }

    #[test]
    fn conflict_eviction_applies_delta() {
        // A 1-slot cache forces every distinct object to evict the last.
        let rc = Refcache::with_cache_slots(1, 1);
        let (p1, d1, _) = tracked(&rc, 1);
        let (p2, d2, _) = tracked(&rc, 1);
        rc.dec(0, p1);
        rc.dec(0, p2); // evicts p1's delta immediately
        assert!(rc.stats().conflicts >= 1);
        rc.quiesce();
        assert_eq!(d1.load(Ordering::SeqCst), 1);
        assert_eq!(d2.load(Ordering::SeqCst), 1);
    }

    /// A table cell that counts its zero actions.
    struct Released(StdAtomicU64);

    impl SlotManaged for Released {
        fn on_zero(&self, _ctx: &ReleaseCtx<'_>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The §3.1 space/conflict trade-off: on a 1024-object working set
    /// a small delta cache evicts constantly and a large one rarely.
    ///
    /// The objects are cells of one table, not boxes: conflicts hash
    /// addresses, and the spacing of 1024 boxes is the heap's to choose
    /// (tests running in parallel interleave their allocations), while a
    /// table's is fixed — whatever its base, the counts come out within a
    /// few per cent of one another.
    #[test]
    fn conflicts_fall_as_the_delta_cache_grows() {
        let conflicts: Vec<u64> = [64, 512, 4096]
            .into_iter()
            .map(|slots| {
                let rc = Refcache::with_cache_slots(1, slots);
                let table: Box<[CountSlot<Released>]> = (0..1024)
                    .map(|_| CountSlot::new(Released(StdAtomicU64::new(0))))
                    .collect();
                let cells: Vec<_> = table.iter().map(CountSlot::handle).collect();
                for &c in &cells {
                    rc.activate(0, c, 1);
                }
                for _ in 0..4 {
                    for &c in &cells {
                        rc.inc(0, c);
                        rc.dec(0, c);
                    }
                    rc.maintain(0);
                }
                let conflicts = rc.stats().conflicts;
                for &c in &cells {
                    rc.dec(0, c);
                }
                rc.quiesce();
                assert!(table.iter().all(|c| c.get().0.load(Ordering::SeqCst) == 1));
                assert_eq!(rc.live_slots(), 0);
                conflicts
            })
            .collect();
        assert!(
            conflicts[0] > conflicts[1] && conflicts[1] > conflicts[2],
            "conflicts at 64/512/4096 slots: {conflicts:?}"
        );
    }

    /// A node whose release drops its parent, as a radix node's does;
    /// the release waits until the epoch reaches `until`.
    struct HeldChild {
        parent: RcPtr<Tracked>,
        started: Arc<std::sync::atomic::AtomicBool>,
        until: Arc<StdAtomicU64>,
    }

    impl Managed for HeldChild {
        fn on_release(&mut self, ctx: &ReleaseCtx<'_>) {
            self.started.store(true, Ordering::SeqCst);
            while ctx.cache.epoch() < self.until.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            ctx.cache.dec(ctx.core, self.parent);
        }
    }

    /// Another thread's review pass frees a child while this thread
    /// quiesces, and the child's release drops its parent only after the
    /// quiescer's last sweep. `quiesce` must not return with that
    /// reference still cached: a caller then frees the parent by hand
    /// (`free_untracked`, as a radix tree's teardown does) while a core
    /// still holds a delta for it, and the next flush of that core writes
    /// into freed memory.
    #[test]
    fn quiesce_sweeps_again_after_a_foreign_release_pass() {
        use std::sync::atomic::AtomicBool;
        let rc = Arc::new(Refcache::new(1));
        let (parent, parent_drops, _) = tracked(&rc, 1);
        let (started, until) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(StdAtomicU64::new(u64::MAX)),
        );
        let child = rc.alloc(
            1,
            HeldChild {
                parent,
                started: started.clone(),
                until: until.clone(),
            },
        );
        rc.dec(0, child);
        // Queue the child's zero, then age it a full review delay.
        for _ in 0..=REVIEW_DELAY {
            rc.flush(0);
        }
        let releaser = {
            let rc = rc.clone();
            std::thread::spawn(move || rc.review(0))
        };
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The release proceeds once `quiesce` has run its sweeps: one
        // flush, one epoch, per round on a one-core cache.
        let sweeps = 4 * REVIEW_DELAY + 4;
        until.store(rc.epoch() + sweeps, Ordering::SeqCst);
        rc.quiesce();
        assert_eq!(
            parent_drops.load(Ordering::SeqCst),
            1,
            "quiesce returned with the parent's last reference cached"
        );
        releaser.join().unwrap();
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn weak_tryget_revives() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        let slot = Atomic64::new(weak::pack(p.addr(), 1));
        rc.register_weak(p, &slot);
        rc.dec(0, p);
        rc.flush(0); // global zero; dying set on the slot
        assert!(weak::is_dying(slot.load(Ordering::Acquire)));
        // Revive through the weak reference before review frees it.
        // SAFETY: slot holds `p` under tag 1.
        let got = unsafe { rc.tryget::<Tracked>(0, &slot, 1) };
        assert!(got.is_some());
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0, "revived object freed");
        // Drop the revived reference; now it really dies.
        rc.dec(0, got.unwrap());
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(slot.load(Ordering::Acquire), 0, "free clears the slot");
        // tryget after free reports deletion.
        // SAFETY: slot is empty; tryget handles that case.
        assert!(unsafe { rc.tryget::<Tracked>(0, &slot, 1) }.is_none());
    }

    #[test]
    fn locked_weak_slot_defeats_free() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        let slot = Atomic64::new(weak::pack(p.addr(), 1) | weak::LOCK_BIT);
        rc.register_weak(p, &slot);
        rc.dec(0, p);
        rc.quiesce();
        // The slot lock bit blocks the freeing CAS.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        // Unlock; the object is still queued (re-queued each review pass)
        // and now gets freed.
        slot.fetch_and(!weak::LOCK_BIT, Ordering::AcqRel);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn with_pin_scopes_the_reference() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        let slot = Atomic64::new(weak::pack(p.addr(), 1));
        rc.register_weak(p, &slot);
        // SAFETY: slot holds `p` under tag 1.
        let seen = unsafe { rc.with_pin::<Tracked, _>(0, &slot, 1, |q| q.addr()) };
        assert_eq!(seen, Some(p.addr()));
        // The pin was released inside with_pin: dropping the base
        // reference frees the object.
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // Gone now: the closure must not run.
        // SAFETY: slot is empty; tryget handles that case.
        let ran = unsafe { rc.with_pin::<Tracked, _>(0, &slot, 1, |_| ()) };
        assert!(ran.is_none());
    }

    #[test]
    fn flush_hooks_surrender_cached_references() {
        // A hook-held reference (like the radix tree's leaf hints) delays
        // freeing only until the core's next flush.
        let rc = Arc::new(Refcache::new(2));
        let (p, drops, _) = tracked(&rc, 1);
        let held = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let calls = Arc::new(StdAtomicU64::new(0));
        let id = {
            let held = held.clone();
            let calls = calls.clone();
            rc.register_flush_hook(move |cache, core| {
                calls.fetch_add(1, Ordering::SeqCst);
                if core == 0 && held.swap(false, Ordering::SeqCst) {
                    cache.dec(core, p);
                }
            })
        };
        // The hook still holds the only reference: nothing frees until a
        // flush on core 0 runs the hook.
        rc.flush(1);
        assert!(drops.load(Ordering::SeqCst) == 0);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "hook released the ref");
        assert!(calls.load(Ordering::SeqCst) > 0);
        rc.unregister_flush_hook(id);
        let before = calls.load(Ordering::SeqCst);
        rc.flush(0);
        assert_eq!(calls.load(Ordering::SeqCst), before, "unregistered");
    }

    #[test]
    fn init_count_covers_multiple_slots() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 512);
        for _ in 0..511 {
            rc.dec(0, p);
        }
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn adjust_settles_many_references_at_once() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        rc.adjust(0, p, 511);
        rc.flush(0);
        assert_eq!(rc.global_count(p), 512);
        rc.adjust(0, p, -500);
        rc.adjust(0, p, -11);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(rc.global_count(p), 1);
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn surrender_answers_true_from_one_superpage_until_a_flush() {
        let rc = Refcache::new(2);
        let (p, drops, _) = tracked(&rc, 600);
        // Below the threshold: false, however the pages arrive.
        assert!(!rc.surrender(0, p, 1, EXPEDITE_PAGES - 2));
        assert!(!rc.surrender(0, p, 1, 1));
        // At it, and after it, until the core is flushed.
        assert!(rc.surrender(0, p, 1, 1));
        assert!(rc.surrender(0, p, 1, 0));
        // Per core: core 1 has surrendered nothing yet.
        assert!(!rc.surrender(1, p, 1, 1));
        rc.flush(0);
        assert!(!rc.surrender(0, p, 1, EXPEDITE_PAGES - 1));
        assert!(rc.surrender(0, p, 1, 1));
        // The references went where `adjust` would have put them.
        rc.quiesce();
        assert_eq!(rc.global_count(p), 600 - 7);
        rc.adjust(0, p, -(600 - 7));
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_flush_for_the_core_by_another_thread_restarts_the_count() {
        let rc = Arc::new(Refcache::new(1));
        let (p, _, _) = tracked(&rc, 8);
        assert!(rc.surrender(0, p, 1, EXPEDITE_PAGES));
        let sweeper = rc.clone();
        std::thread::spawn(move || sweeper.flush(0)).join().unwrap();
        assert!(!rc.surrender(0, p, 1, EXPEDITE_PAGES - 1));
        assert!(rc.surrender(0, p, 1, 1));
        let sweeper = rc.clone();
        std::thread::spawn(move || sweeper.quiesce())
            .join()
            .unwrap();
        assert!(!rc.surrender(0, p, 1, 1));
        rc.adjust(0, p, -4);
        rc.quiesce();
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn adjust_inc_and_dec_surrender_no_pages() {
        let rc = Refcache::new(1);
        let (p, _, _) = tracked(&rc, 1);
        assert!(!rc.surrender(0, p, 0, EXPEDITE_PAGES - 1));
        for _ in 0..2 * EXPEDITE_PAGES {
            rc.inc(0, p);
            rc.dec(0, p);
        }
        rc.adjust(0, p, 4096);
        rc.adjust(0, p, -4096);
        // Still one page short.
        assert!(!rc.surrender(0, p, 0, 0));
        assert!(rc.surrender(0, p, 0, 1));
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn expedite_is_maintain_counted_as_expedited() {
        let rc = Refcache::new(1);
        let (p, drops, _) = tracked(&rc, 1);
        assert!(rc.surrender(0, p, 1, EXPEDITE_PAGES));
        rc.expedite(0);
        assert!(!rc.surrender(0, p, 0, 0), "an expedited tick flushes");
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        // And reviews: the second tick frees, as a second `maintain`
        // would (`free_waits_full_epoch`).
        rc.expedite(0);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        rc.maintain(0);
        rc.flush(0);
        let st = rc.stats();
        assert_eq!((st.flushes, st.expedited), (4, 2));
    }

    #[test]
    fn flush_visits_exactly_the_dirtied_ways() {
        // More live objects than a flush interval dirties, a conflict
        // eviction in the middle, and several flushes: every delta must
        // land, and ways dirtied after a flush must be found again.
        let rc = Refcache::with_cache_slots(1, 8);
        let objs: Vec<_> = (0..64).map(|_| tracked(&rc, 1)).collect();
        for round in 0..3 {
            for (p, _, _) in objs.iter().skip(round).step_by(3) {
                rc.inc(0, *p);
            }
            rc.flush(0);
        }
        assert!(rc.stats().conflicts > 0, "8 ways, 64 objects");
        for (p, _, _) in &objs {
            assert_eq!(rc.global_count(*p), 2);
            rc.adjust(0, *p, -2);
        }
        rc.quiesce();
        assert!(objs.iter().all(|(_, d, _)| d.load(Ordering::SeqCst) == 1));
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn epoch_advances_only_when_all_cores_flush() {
        let rc = Refcache::new(3);
        let e0 = rc.epoch();
        rc.flush(0);
        rc.flush(1);
        assert_eq!(rc.epoch(), e0);
        rc.flush(0); // same core again: no double count
        assert_eq!(rc.epoch(), e0);
        rc.flush(2);
        assert_eq!(rc.epoch(), e0 + 1);
    }

    #[test]
    fn single_core_object_no_remote_traffic() {
        // The paper's headline property: an object manipulated from one
        // core causes no per-object cache-line movement. In sim mode the
        // counters prove it.
        let model = rvm_sync::CostModel::default();
        let guard = rvm_sync::sim::install(4, model);
        let rc = Refcache::new(4);
        let (p, _, _) = tracked(&rc, 1);
        // Warm up core 2's structures.
        rvm_sync::sim::switch(2);
        rc.inc(2, p);
        rc.dec(2, p);
        rc.maintain(2);
        let before = rvm_sync::sim::stats();
        for _ in 0..1000 {
            rc.inc(2, p);
            rc.dec(2, p);
        }
        let after = rvm_sync::sim::stats();
        assert_eq!(
            after.cores[2].remote_transfers, before.cores[2].remote_transfers,
            "single-core inc/dec must stay core-local"
        );
        drop(guard);
        rc.dec(0, p);
        rc.quiesce();
    }

    #[test]
    fn stress_real_threads() {
        // 4 real threads hammer inc/dec on a churn of objects.
        let rc = Arc::new(Refcache::new(4));
        let drops = Arc::new(StdAtomicU64::new(0));
        let releases = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let rc = rc.clone();
            let drops = drops.clone();
            let releases = releases.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let p = rc.alloc(
                        1,
                        Tracked {
                            drops: drops.clone(),
                            releases: releases.clone(),
                        },
                    );
                    rc.inc(core, p);
                    rc.dec(core, p);
                    rc.dec(core, p);
                    if i % 64 == 0 {
                        rc.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 8_000);
        assert_eq!(releases.load(Ordering::SeqCst), 8_000);
        assert_eq!(rc.live_objects(), 0);
    }

    #[test]
    fn stress_shared_object_real_threads() {
        // Threads share one object and race inc/dec against maintenance;
        // the object must be freed exactly once, only at the end.
        let rc = Arc::new(Refcache::new(4));
        let (p, drops, _) = tracked(&rc, 1);
        let mut handles = Vec::new();
        for core in 0..4usize {
            let rc = rc.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    rc.inc(core, p);
                    rc.dec(core, p);
                    if i % 97 == 0 {
                        rc.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        rc.dec(0, p);
        rc.quiesce();
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }
}
