//! Simulated physical memory: a frame pool with per-core free lists.
//!
//! Stands in for the kernel page allocator underneath the VM systems.
//! Design points taken from the paper's evaluation environment:
//!
//! * **One lock per core**: a core's free list, its outbound magazine
//!   and its interleave stride are one [`CachePadded`] spin lock, so
//!   frame allocation and free are core-local in the common case and
//!   the allocator itself never becomes the bottleneck being measured.
//!   Every allocation and every free takes its core's lock once, on
//!   every tier, and counts what it did under it: [`PoolStats`] costs
//!   no locked instruction.
//! * **Bounded per-core lists**: a free leaves at most one refill batch
//!   of 16 frames on its core's list (Linux's per-CPU pageset `high`,
//!   set to its `batch`); the free that would leave more moves every
//!   frame but the one it freed to the node's reservoir, where the next
//!   core whose list runs dry takes a batch before anything grows.
//!   Growth is sized apart, 64 fresh frames per trip to the growth
//!   lock, and the growing core keeps the ones it does not hand out
//!   until its next free, which spills them below the reservoir's
//!   freed frames, so a refill reuses a payload before it makes one.
//!   Frames one core frees thus reach the cores that allocate, and the
//!   pool's footprint follows the working set rather than which core
//!   happened to free what.
//! * **Per-node reservoirs + home-node return**: every frame is homed on a
//!   NUMA *node* (see [`PlacementPolicy`]); a frame freed on a core of a
//!   different node is batched back to its home node's reservoir. The
//!   pipeline microbenchmark's cross-socket traffic includes exactly this
//!   "synchronization to return freed pages to their home nodes" (§5.3).
//!   Reservoir invariants are in DESIGN.md §10, the lock order in
//!   `rvm_sync::corelock`.
//! * **One way out, one way back**: pages and blocks leave through one
//!   function (count, charge, unpoison, zero if written) and return
//!   through one (bump generations, poison, count, route) — DESIGN.md
//!   §11.
//! * **Generation tags**: every frame carries a generation counter bumped
//!   on each free. A translation caches the generation it observed; a
//!   later access through a stale (not shot down) TLB entry detects the
//!   mismatch. This makes the unmap/shootdown safety invariant *testable*
//!   — disabling shootdown must produce detectable use-after-free. Under
//!   `scripts/sanitize.sh` a free frame's bytes are also poisoned
//!   ([`rvm_sync::asan_poison`]), so AddressSanitizer reports any access
//!   to them, not only one through a stale TLB entry.
//! * Frames hold real 4 KB buffers, so workloads store and verify real
//!   data through the VM systems. A frame's buffer is allocated, zeroed,
//!   when the frame is first handed out, not when the table grows, so
//!   the pool's payload memory follows the frames ever used (DESIGN.md
//!   §10). A recycled frame's buffer is cleared again only if it was
//!   written since its last hand-out: [`FramePool::write_u64`],
//!   [`FramePool::fill`] and [`FramePool::copy_frame`] mark the frame,
//!   and the hand-out clears the mark with the bytes. The simulator
//!   charges the zeroing of every page either way (DESIGN.md §11).
//!
//! The frame table is a chunked array reachable through atomic pointers:
//! lookups are lock-free and read-mostly (they scale perfectly); only
//! growth takes a lock. A global lock here would serialize every VM
//! system under test and invalidate the scalability experiments.
//!
//! # The frame table as the ownership authority (DESIGN.md §8)
//!
//! Every frame's table slot (`FrameSlot`) embeds a Refcache count cell
//! ([`rvm_refcache::CountSlot`]), so the table — not a per-fault heap
//! object — is where page reference counts live, exactly as in the
//! paper's kernel. A VM system takes the first reference with
//! [`FramePool::retain`] (which arms the cell; no allocation), carries
//! it as a plain [`FrameRef`] handle (pfn + generation + order), and
//! adjusts it through [`FramePool::ref_adjust`] /
//! [`FramePool::ref_surrender`]. When the cell's true count is
//! confirmed zero, the order the cell was armed with decides the
//! release action: order 0 frees one frame, a block head frees the
//! whole contiguous block. Baseline VM systems that count eagerly keep
//! using the separate `mapcount` word.

use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU16, AtomicU32, AtomicU64, AtomicU8, Ordering,
};
use std::sync::Arc;

use rvm_refcache::{CountSlot, Refcache, ReleaseCtx, SlotManaged, SlotPtr};
use rvm_sync::{
    asan_poison, failpoint, model, sharded_stats, sim, Backoff, CachePadded, CoreCells, CoreLocks,
    PerCore, SpinLock,
};

/// Physical memory is exhausted: every tier of the pressure protocol
/// (free list, reservoir, magazine drain, remote steal, growth) came up
/// empty. A survivable condition, not a bug — callers unwind and
/// surface it as `VmError::OutOfMemory` (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("out of physical memory")
    }
}

impl std::error::Error for OutOfMemory {}

/// Size of a physical frame / virtual page in bytes.
pub const FRAME_SIZE: usize = 4096;

/// log2 of the frames in a superpage-backing block (2 MiB / 4 KiB).
pub const BLOCK_ORDER: u8 = 9;

/// Frames in one contiguous block ([`FramePool::try_alloc_block`]).
pub const BLOCK_PAGES: usize = 1 << BLOCK_ORDER;

/// log2 of the frames in a giant-superpage block (1 GiB / 4 KiB): the
/// second granularity rung. Giant blocks flow through the same
/// `try_alloc_block`/`free_block`/`retain` machinery as 2 MiB blocks —
/// only the order differs.
pub const GIANT_ORDER: u8 = 2 * BLOCK_ORDER;

/// Frames in one contiguous giant block.
pub const GIANT_PAGES: usize = 1 << GIANT_ORDER;

/// Physical frame number.
pub type Pfn = u32;

/// Reserved invalid frame number.
pub const NULL_PFN: Pfn = u32::MAX;

/// Frames per table chunk (chunked growth keeps metadata addresses stable).
const CHUNK_FRAMES: usize = 1024;

/// Maximum number of chunks (bounds pool size at 32 M frames = 128 GB).
const MAX_CHUNKS: usize = 32_768;

/// The Refcache payload embedded in every frame-table slot: enough
/// context for the zero-count action to return the frame (or its whole
/// block) to the pool it came from.
pub struct FrameRc {
    /// This slot's frame number (fixed at table growth).
    pfn: Pfn,
    /// log2 of the frames the count covers (set at each
    /// [`FramePool::retain`]): 0 for a page counted on its own, the
    /// block order for the head of a contiguous block whose members are
    /// never counted individually. The zero-count action frees exactly
    /// the frames the retain covered.
    order: AtomicU8,
    /// The owning pool, set at retain time (`retain` takes `&self` on
    /// its final home, so the address is stable). Sound to dereference
    /// at release because the table behind a cell outlives every
    /// Refcache counting it, as `Drop for Refcache` requires: that drop
    /// runs the actions still due, so a pool must not go first (a
    /// `RadixVm` drops its machine last).
    pool: AtomicPtr<FramePool>,
}

impl SlotManaged for FrameRc {
    /// Returns the frame or block to the pool under the core lock the
    /// release runs under — the pool's own set's lock of that core when
    /// the pool and the cache do not share a set — then at most one
    /// reservoir.
    fn on_zero(&self, ctx: &ReleaseCtx<'_>) {
        let pool = self.pool.load(Ordering::Acquire);
        debug_assert!(!pool.is_null(), "released a never-retained frame slot");
        // SAFETY: the pool outlives the cache running this action (see
        // the `pool` field docs).
        let pool = unsafe { &*pool };
        let order = self.order.load(Ordering::Acquire);
        ctx.with_held(|held| match held.is_of(pool.locks()) {
            true => pool.take_back(held, self.pfn, order),
            false => pool.take_back(
                &mut pool.cores.locks().lock(held.core()).cells(),
                self.pfn,
                order,
            ),
        });
    }
}

/// An owning handle to one reference on a frame-table slot: the frame
/// (for block-head slots, the block's base frame) plus the generation
/// observed when the reference was taken. Plain copyable data — the
/// whole point is that holding a frame costs no heap object — but each
/// copy must be covered by exactly one slot reference
/// ([`FramePool::ref_adjust`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameRef {
    /// The referenced frame (block base for block-head slots).
    pub pfn: Pfn,
    /// Generation at acquisition; a mismatch at `ref_adjust` means the
    /// handle outlived its reference (use-after-free bug).
    pub gen: u64,
    /// log2 frames covered by the slot: 0 for page slots, the block
    /// order for block-head slots. Member frames of a block resolve as
    /// `pfn + (offset & ((1 << order) - 1))` — the handle carries the
    /// order so a demoted member reference (which must keep `pfn` at
    /// the block head, where the count cell lives) still knows the
    /// covered span at any rung (2 MiB or 1 GiB).
    pub order: u8,
}

/// One frame's table slot: payload storage, homing/generation
/// bookkeeping, and the embedded reference-count cell.
///
/// Line-aligned so two frames' count state never share a cache line:
/// neighbouring frames can be homed on (and counted by) different
/// cores, and a false-shared slot line would reintroduce exactly the
/// incidental traffic the embedded cell exists to remove. The ~2-3 %
/// per-frame overhead matches a real kernel's `struct page`.
#[repr(align(64))]
struct FrameSlot {
    /// Embedded Refcache count cell (DESIGN.md §8). Instrumented state:
    /// count traffic is real kernel-side sharing.
    rc: CountSlot<FrameRc>,
    /// Heap storage for the frame's 4096 bytes: null until the frame is
    /// first handed out, which allocates it zeroed; the slot owns it from
    /// then on, until the pool drops. Written once, `Release`, and read
    /// `Acquire`, so whoever learns the frame number from its first
    /// owner sees the buffer. Plain (uninstrumented) atomic: the payload
    /// is memory, not kernel state.
    data: AtomicPtr<u8>,
    /// NUMA node whose reservoir this frame returns to when freed on a
    /// core of a different node (plain bookkeeping, uninstrumented).
    home: AtomicU16,
    /// Set by every write to the payload, cleared when a hand-out
    /// re-zeroes it: a payload whose flag is clear is all zero, and a
    /// hand-out leaves it as it is. `Relaxed`, plain (uninstrumented)
    /// atomic, like `gen`: the locks a frame travels through on its
    /// way from a write to the next hand-out order the two
    /// (DESIGN.md §11).
    written: AtomicBool,
    /// Bumped on every free; stale translations detect the change.
    /// Plain (uninstrumented) atomic: generation checks model the MMU
    /// hardware's view of memory, not kernel cache traffic.
    gen: AtomicU64,
    /// Accesses in flight that checked `gen` outside any lock
    /// ([`FramePool::pin`]); a free waits for them to finish. Plain
    /// (uninstrumented) atomic, like `gen`.
    pins: AtomicU32,
    /// Map count for VM systems that use eager, immediate reference
    /// counting (the Linux/Bonsai baselines). Instrumented: this is real
    /// kernel-side shared state.
    mapcount: rvm_sync::Atomic64,
}

// Two cache lines: a third would cost a frame-heavy run 64 bytes a
// frame and move the frame table's simulator-visible layout.
const _: () = assert!(std::mem::size_of::<FrameSlot>() == 128);

impl FrameSlot {
    /// Advances the generation of a frame being freed. The freeing
    /// caller owns the frame exclusively (its count was confirmed zero
    /// and no mapping is left), so nobody else writes the word: a plain
    /// load and `Release` store — pairing with the `Acquire` load in
    /// [`FramePool::generation`] — not a locked read-modify-write.
    #[inline]
    fn bump_generation(&self) {
        let gen = self.gen.load(Ordering::Relaxed);
        self.gen.store(gen.wrapping_add(1), Ordering::Release);
    }

    /// The frame's payload, or null if it was never handed out.
    #[inline]
    fn payload(&self) -> *mut u8 {
        self.data.load(Ordering::Acquire)
    }

    /// Records that the payload may hold a nonzero byte. A load first,
    /// so a frame written again only reads the flag.
    #[inline]
    fn mark_written(&self) {
        if !self.written.load(Ordering::Relaxed) {
            self.written.store(true, Ordering::Relaxed);
        }
    }
}

/// Where frames are placed across NUMA nodes: which node a fresh frame is
/// homed on (and hence which node's reservoir it returns to when freed),
/// and which node an allocation draws from. The paper's evaluation
/// machines are NUMA; this knob models the kernel's page-placement
/// choice. See DESIGN.md §10.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementPolicy {
    /// Frames are homed on the allocating core's node (the kernel's
    /// default local-allocation policy): all allocator work is on-node.
    #[default]
    FirstTouch,
    /// Allocations stride round-robin across nodes via a per-core cursor
    /// kept under the core's own lock, so interleave never adds a shared
    /// line to the allocation path.
    Interleave,
    /// Frame placement as [`PlacementPolicy::FirstTouch`], plus read-
    /// mostly radix *index* nodes are replicated per node in the
    /// simulator's cost model (reads are node-local; a write invalidates
    /// every node's replica and pays the broadcast — see
    /// `rvm_sync::sim::place_replicated`).
    ReplicateReadOnly,
}

sharded_stats! {
    /// Allocation statistics.
    ///
    /// Every counter is exclusive under the acting core's `CoreFrames`
    /// lock: each allocation and each free takes that lock once, on
    /// every tier, and counts what it did before dropping it — no
    /// counter costs a locked instruction.
    pub struct PoolStats {
        /// Fresh frames created by growth.
        fresh: Exclusive<CoreFrames>,
        /// Pages handed out recycled rather than fresh.
        reused: Exclusive<CoreFrames>,
        /// Outbound-magazine flushes (each returns a whole batch of
        /// cross-node frees to their home reservoirs).
        magazine_flushes: Exclusive<CoreFrames>,
        /// Contiguous blocks handed out by [`FramePool::try_alloc_block`].
        block_allocs: Exclusive<CoreFrames>,
        /// Contiguous blocks returned by [`FramePool::free_block`].
        block_frees: Exclusive<CoreFrames>,
        /// Pages handed out, singly or in blocks (leak accounting; see
        /// [`FramePool::outstanding_frames`]).
        alloc_pages: Exclusive<CoreFrames>,
        /// Pages returned, singly or in blocks.
        free_pages: Exclusive<CoreFrames>,
        /// Pages freed on a core of the frame's home node.
        on_node_frees: Exclusive<CoreFrames>,
        /// Pages freed on a core of a different node than the frame's home
        /// (placement-regression signal: surfaced in the bench JSON).
        cross_node_frees: Exclusive<CoreFrames>,
        /// Allocations satisfied by draining the core's own outbound
        /// magazine under pressure (tier 4 of the pressure protocol).
        reclaim_drains: Exclusive<CoreFrames>,
        /// Allocations satisfied by stealing from a remote node's reservoir
        /// under pressure (tier 5; priced at hop cost).
        remote_steals: Exclusive<CoreFrames>,
        /// Frees that moved all but the freed frame from the core's
        /// list to its node's reservoir rather than leave the list
        /// longer than one refill batch.
        spills: Exclusive<CoreFrames>,
    }
    /// The pool's cells (sum-on-read; DESIGN.md §6).
    struct PoolCells;
}

/// Remote frees a core accumulates before flushing its outbound magazine
/// to the home nodes' reservoirs. Large enough to amortize the
/// reservoir's cache-line transfer across a batch, small enough that
/// parked frames are a negligible slice of the pool.
pub const MAGAZINE_SIZE: usize = 64;

/// Fresh frames one growth asks for: one trip to the global growth
/// lock per batch. The growing core keeps the frames it does not hand
/// out on its own list, until its next free spills them.
const GROW_BATCH: usize = 64;

/// The most freed frames a free leaves on a core's list (Linux's
/// per-CPU pageset `high`), and what a dry list takes from its node's
/// reservoir (its `batch`): the on-node free that leaves the list
/// longer moves every frame but the one just freed to the reservoir,
/// so the surplus reaches the cores that allocate (DESIGN.md §10).
/// Smaller than [`GROW_BATCH`] because a freed frame keeps its payload.
const REFILL_BATCH: usize = 16;

/// A free-list of contiguous blocks, as `(order, base)` pairs.
type BlockList = Vec<(u8, Pfn)>;

/// Removes one block of `order` from `list`, if it holds any. Blocks are
/// few and large, so the short linear scan is noise.
fn take_block(list: &mut BlockList, order: u8) -> Option<Pfn> {
    let i = list.iter().position(|&(o, _)| o == order)?;
    Some(list.swap_remove(i).1)
}

/// One core's share of the pool, behind the core's one lock. Holding it
/// makes the holder the only mutator of the core's [`PoolStats`] cells.
struct CoreFrames {
    /// Free frames homed on the core's node: the first allocation tier.
    free: Vec<Pfn>,
    /// The outbound magazine: cross-node frees parked with their home
    /// node until [`MAGAZINE_SIZE`] of them return home in one batch, so
    /// a stream of cross-node frees costs one reservoir cache-line
    /// transfer per batch instead of one per page (§5.3's
    /// "synchronization to return freed pages to their home nodes").
    magazine: Vec<(u16, Pfn)>,
    /// The next [`PlacementPolicy::Interleave`] target, before the
    /// modulo by the node count.
    stride: usize,
}

/// The machine-wide physical frame pool.
pub struct FramePool {
    ncores: usize,
    /// Placement policy for frames (see [`PlacementPolicy`]).
    policy: PlacementPolicy,
    /// Number of NUMA nodes (≥ 1); cores stripe across them
    /// ([`model::node_of`]).
    nnodes: usize,
    /// Per-core frame state, under each core's `CoreLock` (the
    /// machine's, or the pool's own): before a node reservoir, a block
    /// reservoir or the growth lock in the lock order (`rvm_sync::corelock`).
    cores: PerCore<CoreFrames>,
    /// Per-node frame reservoirs: the second allocation tier. A core with
    /// an empty free list pulls a refill batch from its own node's
    /// reservoir; a core's list spills all but its hottest frame here
    /// rather than keep more than one batch after a free, and magazines
    /// flush cross-node frees here by home node.
    /// Any core may lock any node's reservoir (remote pulls under
    /// interleave, magazine flushes), which is exactly the traffic the
    /// simulator prices.
    reservoirs: Vec<CachePadded<SpinLock<Vec<Pfn>>>>,
    /// Per-node reservoirs of contiguous blocks.
    block_reservoirs: Vec<CachePadded<SpinLock<BlockList>>>,
    /// Chunk pointer table: `chunk_ptrs[i]` points at a leaked
    /// `[FrameSlot; CHUNK_FRAMES]` slice, published with `Release` after
    /// initialization and reclaimed in `Drop`.
    chunk_ptrs: Box<[AtomicPtr<FrameSlot>]>,
    /// Serializes growth only (short holds: batch bookkeeping).
    grow_lock: SpinLock<()>,
    /// Number of frames in the table. Pool-internal bookkeeping (not
    /// modeled kernel state): a real kernel's frame table is statically
    /// sized, so this counter is deliberately uninstrumented.
    nframes: AtomicU64,
    /// Upper bound on `nframes` (defaults to the table's hard capacity).
    /// Growth past the limit fails with [`OutOfMemory`]; tests and the
    /// pressure bench lower it to make exhaustion inducible.
    frame_limit: AtomicU64,
    stats: PoolCells,
}

/// Hard capacity of the frame table (chunk table fully populated).
const TABLE_CAPACITY: u64 = (MAX_CHUNKS * CHUNK_FRAMES) as u64;

impl FramePool {
    /// Creates a pool serving `ncores` cores with first-touch placement
    /// on one node (the flat machine).
    pub fn new(ncores: usize) -> Self {
        Self::with_placement(ncores, PlacementPolicy::FirstTouch, 1)
    }

    /// Creates a pool serving `ncores` cores striped across `nnodes`
    /// NUMA nodes, with the given placement policy.
    pub fn with_placement(ncores: usize, policy: PlacementPolicy, nnodes: usize) -> Self {
        Self::with_locks(CoreLocks::new(ncores), policy, nnodes)
    }

    /// [`FramePool::with_placement`] for the cores of `locks`, whose
    /// `CoreLock`s guard the pool's per-core state: a machine shares its
    /// set, so a VM call holding its core's lock allocates and frees
    /// with no lock of the pool's own ([`FramePool::try_alloc_held`]).
    pub fn with_locks(locks: Arc<CoreLocks>, policy: PlacementPolicy, nnodes: usize) -> Self {
        assert!(nnodes >= 1, "FramePool needs at least one NUMA node");
        let ncores = locks.ncores();
        let chunk_ptrs = (0..MAX_CHUNKS)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FramePool {
            ncores,
            policy,
            nnodes,
            cores: PerCore::new(locks, |core| CoreFrames {
                free: Vec::new(),
                magazine: Vec::with_capacity(MAGAZINE_SIZE),
                // Each core's stride starts at its own index, so
                // concurrent interleaved allocators begin on different
                // nodes.
                stride: core,
            }),
            reservoirs: (0..nnodes)
                .map(|_| CachePadded::new(SpinLock::new(Vec::new())))
                .collect(),
            block_reservoirs: (0..nnodes)
                .map(|_| CachePadded::new(SpinLock::new(Vec::new())))
                .collect(),
            chunk_ptrs,
            grow_lock: SpinLock::new(()),
            nframes: AtomicU64::new(0),
            frame_limit: AtomicU64::new(TABLE_CAPACITY),
            stats: PoolCells::new(ncores),
        }
    }

    /// Caps the pool at `frames` total frames: growth past the limit
    /// fails with [`OutOfMemory`] and allocation falls into the
    /// pressure tiers. Lowering the limit below the current table size
    /// only blocks *further* growth — existing frames stay usable.
    /// The limit is always bounded by the table's hard capacity.
    pub fn set_frame_limit(&self, frames: u64) {
        self.frame_limit
            .store(frames.min(TABLE_CAPACITY), Ordering::Release);
    }

    /// Current frame limit (the table's hard capacity by default).
    pub fn frame_limit(&self) -> u64 {
        self.frame_limit.load(Ordering::Acquire)
    }

    /// Number of cores this pool serves.
    pub fn ncores(&self) -> usize {
        self.ncores
    }

    /// The `CoreLock`s guarding the pool's per-core state.
    pub fn locks(&self) -> &Arc<CoreLocks> {
        self.cores.locks()
    }

    /// NUMA node of `core`.
    #[inline]
    pub fn node_of(&self, core: usize) -> usize {
        model::node_of(core, self.nnodes)
    }

    /// The node an allocation on `core` draws from: the core's own, or
    /// under [`PlacementPolicy::Interleave`] the next step of the core's
    /// stride.
    #[inline]
    fn target_node(&self, core: usize, frames: &mut CoreFrames) -> usize {
        if self.policy != PlacementPolicy::Interleave {
            return self.node_of(core);
        }
        let target = frames.stride % self.nnodes;
        frames.stride += 1;
        target
    }

    /// Total frames ever created.
    pub fn total_frames(&self) -> usize {
        self.nframes.load(Ordering::Acquire) as usize
    }

    /// Snapshot of the pool's statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }

    /// Pages currently handed out (allocated minus freed). Wrapping
    /// sum-on-read: exact when allocators are quiescent (after every
    /// backend's `quiesce` + magazine flush), which is where the
    /// frame-leak conformance gate reads it.
    pub fn outstanding_frames(&self) -> u64 {
        self.stats
            .alloc_pages()
            .wrapping_sub(self.stats.free_pages())
    }

    /// Lock-free frame-table slot lookup.
    #[inline]
    fn slot(&self, pfn: Pfn) -> &FrameSlot {
        debug_assert!(pfn != NULL_PFN);
        let idx = pfn as usize;
        debug_assert!(idx < self.total_frames(), "pfn {pfn} out of range");
        let chunk = self.chunk_ptrs[idx / CHUNK_FRAMES].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null());
        // SAFETY: a non-null chunk pointer was published with `Release`
        // after full initialization, is never replaced or freed before
        // `Drop`, and `idx % CHUNK_FRAMES` is in bounds by construction.
        unsafe { &*chunk.add(idx % CHUNK_FRAMES) }
    }

    /// The Refcache count cell of `pfn`'s frame-table slot.
    fn cell(&self, pfn: Pfn) -> SlotPtr<FrameRc> {
        self.slot(pfn).rc.handle()
    }

    /// Arms the frame-table cell of `base` with `init_count` references
    /// through `cache` and returns the owning handle: the first
    /// reference on what the caller has just allocated (exclusive
    /// ownership) — one frame from [`FramePool::try_alloc`] at `order`
    /// 0, or the contiguous block from [`FramePool::try_alloc_block`] at
    /// the same `order`, whose member frames are never counted
    /// individually. The zero-count action frees exactly those
    /// `1 << order` frames. No heap allocation happens — the count
    /// lives in the statically-indexed table (DESIGN.md §8).
    pub fn retain(
        &self,
        cache: &Refcache,
        held: &CoreCells<'_>,
        base: Pfn,
        order: u8,
        init_count: i64,
    ) -> FrameRef {
        assert!(order <= GIANT_ORDER, "unsupported block order {order}");
        let slot = self.slot(base);
        let rc = slot.rc.get();
        debug_assert_eq!(rc.pfn, base);
        rc.order.store(order, Ordering::Release);
        rc.pool.store(
            self as *const FramePool as *mut FramePool,
            Ordering::Release,
        );
        cache.activate(held, slot.rc.handle(), init_count);
        FrameRef {
            pfn: base,
            gen: slot.gen.load(Ordering::Acquire),
            order,
        }
    }

    /// Settles `delta` references on the slot behind `r` at once: takes
    /// `delta` more when positive, surrenders `-delta` when negative —
    /// one trip through the core's delta cache however many handles the
    /// caller is settling (a demotion adopts 511 clones of one block
    /// handle; unmapping a demoted block drops hundreds).
    ///
    /// To take references the caller must already hold a live one
    /// covering `r` (the usual Refcache discipline). When the true count
    /// is confirmed zero the frame (or whole block, per the order the
    /// cell was armed with) returns to the pool.
    #[inline]
    pub fn ref_adjust(&self, cache: &Refcache, held: &mut CoreCells<'_>, r: FrameRef, delta: i64) {
        debug_assert_eq!(self.generation(r.pfn), r.gen, "stale frame handle");
        cache.adjust_held(held, self.cell(r.pfn), delta);
    }

    /// Surrenders `refs` references on the slot behind `r` —
    /// [`FramePool::ref_adjust`] by `-refs` — that stood for `pages`
    /// 4 KiB pages of mapped memory, and passes on
    /// [`Refcache::surrender`]'s answer: whether `core` has given up
    /// enough since its last flush that the caller should run
    /// [`Refcache::expedite`] once it holds no guard.
    #[inline]
    pub fn ref_surrender(
        &self,
        cache: &Refcache,
        held: &mut CoreCells<'_>,
        r: FrameRef,
        refs: i64,
        pages: u64,
    ) -> bool {
        debug_assert_eq!(self.generation(r.pfn), r.gen, "stale frame handle");
        cache.surrender(held, self.cell(r.pfn), refs, pages)
    }

    /// Allocates a zeroed frame on `core`, or returns [`OutOfMemory`]
    /// once every tier of the pressure protocol has come up empty.
    ///
    /// Under first-touch (and replicate-read-only, which places frames
    /// identically) the allocation is node-local: the core's own free
    /// list, then a batch pulled from its node's reservoir (batches other
    /// cores' lists spilled, or magazines returned), then a fresh batch
    /// created under the growth lock and homed on the core's node —
    /// the per-CPU pageset refill pattern of real kernels, which keeps
    /// the growth lock off the steady-state fault path.
    ///
    /// Under interleave, each allocation strides the core's cursor across
    /// nodes; a remote target draws one frame from that node's reservoir
    /// (growing a batch homed there when empty) *without* adopting the
    /// rest locally — adopted remote frames would drift the pool back to
    /// first-touch steady state and hide the placement difference.
    ///
    /// Growth takes whatever the frame limit leaves of a batch. Only when
    /// not one frame can grow (frame limit reached, table full, or an
    /// armed `chunk-grow` failpoint) do the pressure tiers engage
    /// (DESIGN.md §11): drain the core's own outbound magazine, steal
    /// from other nodes' reservoirs in ascending hop distance, and
    /// finally fail. The drain and steal tiers never run while the pool
    /// can grow because they hand out frames homed elsewhere, which
    /// would silently violate the placement policy; [`PoolStats`] counts
    /// them as `reclaim_drains` and `remote_steals`.
    ///
    /// Charges the simulator for zeroing, priced by the hop distance to
    /// the frame's home node.
    pub fn try_alloc(&self, core: usize) -> Result<Pfn, OutOfMemory> {
        self.try_alloc_held(&mut self.cores.locks().lock(core).cells())
    }

    /// [`FramePool::try_alloc`] on the core whose lock `held` is (the
    /// pool's set's): for a caller that holds it already.
    pub fn try_alloc_held(&self, held: &mut CoreCells<'_>) -> Result<Pfn, OutOfMemory> {
        let core = held.core();
        if failpoint::should_fail(failpoint::FRAME_ALLOC, core) {
            return Err(OutOfMemory);
        }
        let frames = self.cores.get(held);
        let target = self.target_node(core, frames);
        let (pfn, reused) = self.take_frame(core, frames, target).ok_or(OutOfMemory)?;
        Ok(self.hand_out(core, frames, pfn, 0, reused))
    }

    /// The tier ladder for one frame homed on `target`, under `core`'s
    /// held lock: the frame and whether it is recycled, or `None` when
    /// every tier came up empty. Every reservoir guard below is a
    /// temporary.
    fn take_frame(
        &self,
        core: usize,
        frames: &mut CoreFrames,
        target: usize,
    ) -> Option<(Pfn, bool)> {
        if target == self.node_of(core) {
            // Tiers 1-2: the own list, refilled with a batch from the
            // node's reservoir when empty.
            if frames.free.is_empty() {
                let mut res = self.reservoirs[target].lock();
                let split = res.len().saturating_sub(REFILL_BATCH);
                frames.free.extend(res.drain(split..));
            }
            if let Some(pfn) = frames.free.pop() {
                return Some((pfn, true));
            }
        } else {
            // A remote target gives one frame and keeps the rest.
            let popped = self.reservoirs[target].lock().pop();
            if let Some(pfn) = popped {
                return Some((pfn, true));
            }
        }
        // Tier 3: a fresh growth batch homed on the target, or whatever
        // the frame limit leaves of one.
        if let Some(pfn) = self.grow(core, frames, target) {
            return Some((pfn, false));
        }
        // Not one frame could grow: the pool is under pressure. Tier 4:
        // the magazine holds cross-node frees parked for batching; take
        // one back and flush the rest home so other cores' steal tier
        // can see them.
        if let Some((_, pfn)) = frames.magazine.pop() {
            self.flush_mag(core, frames);
            self.stats
                .add_held(core, PoolStats::reclaim_drains, frames, 1);
            return Some((pfn, true));
        }
        // Tier 5: steal a single frame from another node's reservoir,
        // nearest node first, priced at hop cost.
        for node in self.other_nodes_nearest_first(target) {
            let popped = self.reservoirs[node].lock().pop();
            if let Some(pfn) = popped {
                self.stats
                    .add_held(core, PoolStats::remote_steals, frames, 1);
                return Some((pfn, true));
            }
        }
        None
    }

    /// Creates up to [`GROW_BATCH`] fresh frames homed on `node`, as
    /// many as the frame limit leaves, and returns the first. The rest
    /// go on `core`'s own list when `node` is the core's node (the
    /// core's next free spills what is left of them), and into `node`'s
    /// reservoir otherwise: a remote target adopts nothing.
    fn grow(&self, core: usize, frames: &mut CoreFrames, node: usize) -> Option<Pfn> {
        let (first, count) = self
            .try_grow_contiguous(core, frames, node, 1..=GROW_BATCH)
            .ok()?;
        // Last first, so the list hands them out in ascending order.
        let rest = (1..count).rev().map(|i| first + i as Pfn);
        if node == self.node_of(core) {
            frames.free.extend(rest);
        } else {
            self.reservoirs[node].lock().extend(rest);
        }
        Some(first)
    }

    /// The one way out, for a frame (`order` 0) or a block: counts the
    /// `1 << order` pages handed out on `core`, then per page charges
    /// the zeroing at the hop distance to the frame's home and either
    /// allocates the payload zeroed (the frame's first hand-out) or
    /// unpoisons the one it had and zeroes it if it was written since.
    /// The simulator is charged for every page alike; the host clears
    /// only written bytes, so a 2 MiB block of which one page was
    /// touched costs one `memset`, not 512. No `memset` or allocation
    /// runs under a lock another core takes: only the core's own.
    fn hand_out(
        &self,
        core: usize,
        frames: &CoreFrames,
        base: Pfn,
        order: u8,
        reused: bool,
    ) -> Pfn {
        let pages = 1u64 << order;
        self.stats
            .add_held(core, PoolStats::alloc_pages, frames, pages);
        if reused {
            self.stats.add_held(core, PoolStats::reused, frames, pages);
        }
        let home = self.home(base);
        for pfn in base..base + pages as Pfn {
            sim::charge_page_work_homed(home);
            let slot = self.slot(pfn);
            let data = slot.payload();
            if data.is_null() {
                let fresh = Box::<[u8; FRAME_SIZE]>::new_zeroed();
                slot.data
                    .store(Box::into_raw(fresh).cast(), Ordering::Release);
            } else {
                asan_poison(data as usize, FRAME_SIZE, false);
                if slot.written.load(Ordering::Relaxed) {
                    // SAFETY: the frame is being handed out (no mapping
                    // references it), so this is the only access.
                    unsafe { std::ptr::write_bytes(data, 0, FRAME_SIZE) };
                    slot.written.store(false, Ordering::Relaxed);
                }
                debug_assert!(
                    // SAFETY: as above; the payload is FRAME_SIZE bytes.
                    unsafe { std::slice::from_raw_parts(data, FRAME_SIZE) } == [0; FRAME_SIZE],
                    "frame {pfn} was written with no mark"
                );
            }
        }
        base
    }

    /// Every node but `node`, nearest first: the order the pressure
    /// tiers visit remote reservoirs in.
    fn other_nodes_nearest_first(&self, node: usize) -> Vec<usize> {
        let mut nodes: Vec<usize> = (0..self.nnodes).filter(|&n| n != node).collect();
        nodes.sort_by_key(|&n| model::hops(node, n));
        nodes
    }

    /// Creates fresh, physically contiguous frames homed on node `home`
    /// — as many of `want` as the frame limit and the table's hard chunk
    /// capacity leave, decided under the growth lock that serializes
    /// growth — and counts them under `core`'s held lock. Returns the
    /// first PFN and the count. Fails when fewer than `want.start()`
    /// fit, or when the `chunk-grow` failpoint is armed.
    fn try_grow_contiguous(
        &self,
        core: usize,
        frames: &CoreFrames,
        home: usize,
        want: std::ops::RangeInclusive<usize>,
    ) -> Result<(Pfn, usize), OutOfMemory> {
        if failpoint::should_fail(failpoint::CHUNK_GROW, core) {
            return Err(OutOfMemory);
        }
        let first;
        let count;
        {
            let _g = self.grow_lock.lock();
            let n = self.nframes.load(Ordering::Acquire) as usize;
            let limit = self.frame_limit.load(Ordering::Acquire).min(TABLE_CAPACITY);
            let room = limit.saturating_sub(n as u64);
            count = (*want.end()).min(room as usize);
            if count < *want.start() {
                return Err(OutOfMemory);
            }
            for i in 0..count {
                let idx = n + i;
                if idx.is_multiple_of(CHUNK_FRAMES) {
                    let chunk_idx = idx / CHUNK_FRAMES;
                    debug_assert!(chunk_idx < MAX_CHUNKS, "limit check bounds the table");
                    let chunk: Vec<FrameSlot> = (0..CHUNK_FRAMES)
                        .map(|j| FrameSlot {
                            rc: CountSlot::new(FrameRc {
                                pfn: (chunk_idx * CHUNK_FRAMES + j) as Pfn,
                                order: AtomicU8::new(0),
                                pool: AtomicPtr::new(std::ptr::null_mut()),
                            }),
                            data: AtomicPtr::new(std::ptr::null_mut()),
                            home: AtomicU16::new(home as u16),
                            written: AtomicBool::new(false),
                            gen: AtomicU64::new(1),
                            pins: AtomicU32::new(0),
                            mapcount: rvm_sync::Atomic64::new(0),
                        })
                        .collect();
                    let leaked = Box::leak(chunk.into_boxed_slice());
                    // Register the chunk for remote-line attribution:
                    // residual-traffic hunts see "frame-table", not an
                    // anonymous heap address (no-op outside simulation).
                    sim::label_range(
                        "frame-table",
                        leaked.as_ptr() as usize,
                        std::mem::size_of_val(&leaked[..]),
                    );
                    self.chunk_ptrs[chunk_idx].store(leaked.as_mut_ptr(), Ordering::Release);
                }
            }
            self.nframes.store((n + count) as u64, Ordering::Release);
            first = n as Pfn;
        }
        self.stats
            .add_held(core, PoolStats::fresh, frames, count as u64);
        for i in 0..count {
            self.slot(first + i as Pfn)
                .home
                .store(home as u16, Ordering::Relaxed);
        }
        Ok((first, count))
    }

    /// Allocates a zeroed, physically contiguous block of `1 << order`
    /// frames on `core`, returning the base PFN. Frames of a live block
    /// are never freed individually; the whole block returns through
    /// [`FramePool::free_block`].
    ///
    /// Prefers the target node's block reservoir (the core's own node,
    /// or the stride target under interleave), then fresh growth homed
    /// on the target node. When growth fails (frame limit, table
    /// capacity, or an armed failpoint) the pressure path steals a
    /// whole block from another node's block reservoir, nearest node
    /// first; only when no node holds a block of the requested order
    /// does the allocation fail — VM fault paths then degrade to
    /// scattered 4 KiB pages. Charges the simulator for zeroing the
    /// block, priced by hop distance to the block's home node.
    pub fn try_alloc_block(&self, core: usize, order: u8) -> Result<Pfn, OutOfMemory> {
        self.try_alloc_block_held(&mut self.cores.locks().lock(core).cells(), order)
    }

    /// [`FramePool::try_alloc_block`] on the core whose lock `held` is.
    pub fn try_alloc_block_held(
        &self,
        held: &mut CoreCells<'_>,
        order: u8,
    ) -> Result<Pfn, OutOfMemory> {
        assert!(order <= GIANT_ORDER, "unsupported block order {order}");
        let core = held.core();
        if failpoint::should_fail(failpoint::BLOCK_ALLOC, core) {
            return Err(OutOfMemory);
        }
        let frames = self.cores.get(held);
        let target = self.target_node(core, frames);
        // The guard drops with its statement: a reservoir is never held
        // while another is locked.
        let recycled = take_block(&mut self.block_reservoirs[target].lock(), order);
        let pages = 1 << order;
        let (base, reused) = match recycled {
            Some(base) => (base, true),
            None => match self.try_grow_contiguous(core, frames, target, pages..=pages) {
                Ok((base, _)) => (base, false),
                Err(_) => (
                    self.steal_remote_block(core, frames, target, order)
                        .ok_or(OutOfMemory)?,
                    true,
                ),
            },
        };
        self.stats
            .add_held(core, PoolStats::block_allocs, frames, 1);
        Ok(self.hand_out(core, frames, base, order, reused))
    }

    /// Pressure path for block allocation: steal a block of `order`
    /// from the nearest other node's block reservoir (a recycled block).
    fn steal_remote_block(
        &self,
        core: usize,
        frames: &CoreFrames,
        node: usize,
        order: u8,
    ) -> Option<Pfn> {
        for other in self.other_nodes_nearest_first(node) {
            let stolen = take_block(&mut self.block_reservoirs[other].lock(), order);
            if stolen.is_some() {
                self.stats
                    .add_held(core, PoolStats::remote_steals, frames, 1);
                return stolen;
            }
        }
        None
    }

    /// Frees the contiguous block at `base` (allocated with the same
    /// `order`) from `core`: every member frame's generation is bumped,
    /// and the block returns whole to its home node's block reservoir.
    pub fn free_block(&self, core: usize, base: Pfn, order: u8) {
        self.take_back(&mut self.cores.locks().lock(core).cells(), base, order);
    }

    /// Frees `pfn` from `core`, bumping its generation so stale
    /// translations become detectable.
    ///
    /// A frame homed on `core`'s node goes straight back to the core's
    /// own list (core-local: it stays on its home node either way); the
    /// free that would leave that list longer than one refill batch
    /// also moves every frame but `pfn` to the node's reservoir, for
    /// the next core that runs dry. A frame homed on a *different node*
    /// parks in `core`'s outbound magazine and returns to its home
    /// node's reservoir when the magazine fills (or at
    /// [`FramePool::flush_magazines`]); the generation was already bumped
    /// and the caller has already completed any required TLB shootdown,
    /// so parking only delays *reuse*, never safety (DESIGN.md §6).
    pub fn free(&self, core: usize, pfn: Pfn) {
        self.take_back(&mut self.cores.locks().lock(core).cells(), pfn, 0);
    }

    /// The one way back, for a frame (`order` 0) or a block: bumps every
    /// member frame's generation, fences once, then waits out each
    /// member's pins and poisons its payload; then, under the held
    /// core's lock, counts the pages and routes them — a block whole to its home
    /// node's block reservoir (already better batched than a magazine),
    /// a page homed on the core's node onto the core's own list, which
    /// spills all but that page to the node's reservoir when it would
    /// hold more than [`REFILL_BATCH`] (the core's lock, then that one
    /// reservoir lock; bare frames below the ones with a payload), any
    /// other page into the core's outbound
    /// magazine, which flushes home once it holds [`MAGAZINE_SIZE`]
    /// frames.
    fn take_back(&self, held: &mut CoreCells<'_>, base: Pfn, order: u8) {
        let core = held.core();
        let pages = 1u64 << order;
        let members = base..base + pages as Pfn;
        for pfn in members.clone() {
            self.slot(pfn).bump_generation();
        }
        // An access pinned under an old generation may still run: a
        // payload is poisoned, and its frame reusable, only once it is
        // done. Every bump precedes this one fence, so each frame keeps
        // its pairing with `pin`'s SeqCst pin-then-load.
        fence(Ordering::SeqCst);
        for pfn in members {
            let slot = self.slot(pfn);
            let mut backoff = Backoff::new();
            while slot.pins.load(Ordering::Acquire) != 0 {
                backoff.pause();
            }
            asan_poison(slot.payload() as usize, FRAME_SIZE, true);
        }
        let home = self.home(base);
        let on_node = home == self.node_of(core);
        let frames = self.cores.get(held);
        self.stats
            .add_held(core, PoolStats::free_pages, frames, pages);
        let placement = match on_node {
            true => PoolStats::on_node_frees,
            false => PoolStats::cross_node_frees,
        };
        self.stats.add_held(core, placement, frames, pages);
        if order > 0 {
            self.stats.add_held(core, PoolStats::block_frees, frames, 1);
            self.block_reservoirs[home].lock().push((order, base));
        } else if on_node {
            frames.free.push(base);
            if frames.free.len() > REFILL_BATCH {
                // All but the frame just freed go to the node's
                // reservoir, where the next core whose list runs dry
                // finds them (tier 2): a full list, or a growth's
                // leftovers.
                self.stats.add_held(core, PoolStats::spills, frames, 1);
                let cold = frames.free.len() - 1;
                let bare = self.bare_first(&mut frames.free[..cold]);
                let mut res = self.reservoirs[home].lock();
                let old = res.len();
                res.extend(frames.free.drain(..cold));
                if bare > 0 {
                    // The bare frames go below every one with a payload,
                    // so a refill, which takes from the top, reuses
                    // payloads before it makes new ones.
                    let below = old - self.payloads_on_top(&res[..old]);
                    res[below..old + bare].rotate_right(bare);
                }
            }
            debug_assert!(frames.free.len() <= REFILL_BATCH, "a free leaves one batch");
        } else {
            frames.magazine.push((home as u16, base));
            if frames.magazine.len() >= MAGAZINE_SIZE {
                self.flush_mag(core, frames);
            }
        }
    }

    /// Reorders `list` in place so its frames without payload memory
    /// ("bare": a growth's leftovers, never handed out) come first, and
    /// returns how many there are.
    fn bare_first(&self, list: &mut [Pfn]) -> usize {
        let mut bare = 0;
        for i in 0..list.len() {
            if self.slot(list[i]).payload().is_null() {
                list.swap(bare, i);
                bare += 1;
            }
        }
        bare
    }

    /// How many frames at the top of `reservoir` have payload memory:
    /// since spills put bare frames below the others, the bare ones
    /// begin where this run ends.
    fn payloads_on_top(&self, reservoir: &[Pfn]) -> usize {
        reservoir
            .iter()
            .rev()
            .take_while(|&&pfn| !self.slot(pfn).payload().is_null())
            .count()
    }

    /// Drains `core`'s held magazine to the home nodes' reservoirs: one
    /// reservoir lock (one contended-line transfer) per run of
    /// same-home frames, instead of one per page. Runs are flushed in
    /// ascending node order — the fixed ordering means two cores
    /// flushing concurrently lock reservoirs in the same sequence
    /// (DESIGN.md §10).
    ///
    /// The `magazine-flush` failpoint *defers* the flush: the frames
    /// stay parked (the magazine may temporarily exceed
    /// [`MAGAZINE_SIZE`]) and return home at the next unvetoed flush.
    /// A parked frame was already counted freed and generation-bumped,
    /// so deferral delays reuse, never safety or accounting.
    fn flush_mag(&self, core: usize, frames: &mut CoreFrames) {
        if frames.magazine.is_empty() || failpoint::should_fail(failpoint::MAGAZINE_FLUSH, core) {
            return;
        }
        self.stats
            .add_held(core, PoolStats::magazine_flushes, frames, 1);
        let mag = &mut frames.magazine;
        mag.sort_unstable_by_key(|&(home, _)| home);
        for run in mag.chunk_by(|a, b| a.0 == b.0) {
            self.reservoirs[run[0].0 as usize]
                .lock()
                .extend(run.iter().map(|&(_, pfn)| pfn));
        }
        mag.clear();
    }

    /// Flushes every core's outbound magazine (quiesce / orderly
    /// shutdown; frame accounting is exact afterwards), making the
    /// parked cross-node frees allocatable on their home nodes.
    pub fn flush_magazines(&self) {
        for core in 0..self.ncores {
            self.flush_mag(
                core,
                self.cores.get(&mut self.cores.locks().lock(core).cells()),
            );
        }
    }

    /// Frames currently parked in `core`'s outbound magazine (tests).
    pub fn magazine_len(&self, core: usize) -> usize {
        self.cores
            .get(&mut self.cores.locks().lock(core).cells())
            .magazine
            .len()
    }

    /// Pins `pfn` for one access if its generation is still `gen`, or
    /// returns `None` if the frame was freed since. A free of the frame
    /// waits until the pin drops, so the access never touches a freed
    /// (poisoned, or already reused) frame. For the one access that runs
    /// outside the TLB lock: the one `Machine::access` completes through
    /// the translation a fault returned, which a foreign flush may free
    /// at any moment.
    #[inline]
    pub fn pin(&self, pfn: Pfn, gen: u64) -> Option<FramePin<'_>> {
        let slot = self.slot(pfn);
        slot.pins.fetch_add(1, Ordering::SeqCst);
        // Either this load sees a free's new generation, or that free's
        // fenced load sees the pin (`take_back`).
        let pin = FramePin(slot);
        (slot.gen.load(Ordering::SeqCst) == gen).then_some(pin)
    }

    /// Current generation of `pfn`.
    #[inline]
    pub fn generation(&self, pfn: Pfn) -> u64 {
        self.slot(pfn).gen.load(Ordering::Acquire)
    }

    /// Home node of `pfn`.
    #[inline]
    pub fn home(&self, pfn: Pfn) -> usize {
        self.slot(pfn).home.load(Ordering::Relaxed) as usize % self.nnodes
    }

    /// Frames currently parked in node `node`'s reservoir (tests/bench).
    pub fn reservoir_len(&self, node: usize) -> usize {
        self.reservoirs[node].lock().len()
    }

    /// Increments the eager map count (baseline VM systems).
    pub fn inc_map(&self, pfn: Pfn) {
        self.slot(pfn).mapcount.fetch_add(1, Ordering::AcqRel);
    }

    /// Decrements the eager map count; returns true when it reaches zero.
    pub fn dec_map(&self, pfn: Pfn) -> bool {
        self.slot(pfn).mapcount.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Current eager map count of `pfn`.
    pub fn map_count(&self, pfn: Pfn) -> u64 {
        self.slot(pfn).mapcount.load(Ordering::Acquire)
    }

    /// Writes `val` at byte offset `off` within the frame.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary.
    #[inline]
    pub fn write_u64(&self, pfn: Pfn, off: usize, val: u64) {
        assert!(off + 8 <= FRAME_SIZE);
        // SAFETY: in-bounds write to the frame payload. Concurrent access
        // to the same offset is a workload-level race (the VM permits
        // shared writable mappings); performed as a volatile word write,
        // as real memory would behave.
        unsafe {
            let p = self.bytes_to_write(pfn).add(off) as *mut u64;
            std::ptr::write_volatile(p, val);
        }
    }

    /// Reads a word at byte offset `off` within the frame.
    #[inline]
    pub fn read_u64(&self, pfn: Pfn, off: usize) -> u64 {
        assert!(off + 8 <= FRAME_SIZE);
        // SAFETY: in-bounds read of the frame payload.
        unsafe {
            let p = self.bytes(pfn).add(off) as *const u64;
            std::ptr::read_volatile(p)
        }
    }

    /// Fills the whole frame with `byte` (workload page-touch helper);
    /// charges the simulator for page work, priced by hop distance to
    /// the frame's home node.
    #[inline]
    pub fn fill(&self, pfn: Pfn, byte: u8) {
        sim::charge_page_work_homed(self.home(pfn));
        // SAFETY: in-bounds write to the frame payload (workload-level
        // races permitted as in `write_u64`).
        unsafe { std::ptr::write_bytes(self.bytes_to_write(pfn), byte, FRAME_SIZE) };
    }

    /// Copies frame `src`'s whole payload over frame `dst`'s (a
    /// copy-on-write break, a promotion's migration). Charges nothing:
    /// the caller prices the copy.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn copy_frame(&self, src: Pfn, dst: Pfn) {
        assert_ne!(src, dst, "a frame copied onto itself");
        // SAFETY: two distinct frames' payloads, FRAME_SIZE bytes each,
        // so the ranges do not overlap (workload-level races permitted
        // as in `write_u64`).
        unsafe {
            std::ptr::copy_nonoverlapping(self.bytes(src), self.bytes_to_write(dst), FRAME_SIZE)
        };
    }

    /// The payload of `pfn`, which has been handed out (as every frame a
    /// caller can name has).
    #[inline]
    fn bytes(&self, pfn: Pfn) -> *mut u8 {
        let data = self.slot(pfn).payload();
        debug_assert!(!data.is_null(), "frame {pfn} was never handed out");
        data
    }

    /// The payload of `pfn` for a write: [`FramePool::bytes`], with the
    /// frame marked written so its next hand-out re-zeroes it.
    #[inline]
    fn bytes_to_write(&self, pfn: Pfn) -> *mut u8 {
        let slot = self.slot(pfn);
        slot.mark_written();
        let data = slot.payload();
        debug_assert!(!data.is_null(), "frame {pfn} was never handed out");
        data
    }
}

/// One access in flight on a frame ([`FramePool::pin`]): the frame is
/// not freed until this drops.
pub struct FramePin<'a>(&'a FrameSlot);

impl Drop for FramePin<'_> {
    fn drop(&mut self) {
        // Release, paired with `take_back`'s Acquire load: the access
        // happens before the free poisons or reuses the payload.
        self.0.pins.fetch_sub(1, Ordering::Release);
    }
}

impl Drop for FramePool {
    fn drop(&mut self) {
        let n = self.total_frames();
        let nchunks = n.div_ceil(CHUNK_FRAMES);
        for i in 0..nchunks {
            let p = self.chunk_ptrs[i].load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: `p` was leaked from a Box<[FrameSlot]> of length
                // CHUNK_FRAMES in `try_grow_contiguous` and is reclaimed
                // exactly once.
                let chunk =
                    unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, CHUNK_FRAMES)) };
                // Exactly the payloads hand-outs allocated. Free frames'
                // are poisoned: addressable again before they go back.
                for data in chunk.iter().map(FrameSlot::payload) {
                    if !data.is_null() {
                        asan_poison(data as usize, FRAME_SIZE, false);
                        // SAFETY: allocated as this box in `hand_out`,
                        // and freed once, here.
                        drop(unsafe { Box::from_raw(data.cast::<[u8; FRAME_SIZE]>()) });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A core's cell of the pool ([`PerCore`]) is one line.
    #[test]
    fn core_frames_size_is_pinned() {
        assert_eq!(std::mem::size_of::<CoreFrames>(), 56);
    }

    /// Which word shares a line with which is simulator-visible (these
    /// twelve span two lines, and the two a page-sized free bumps share
    /// the first): a field may be added at the end, and one that moves
    /// moves the records.
    #[test]
    fn poolstats_cells_keep_their_words() {
        use PoolStats as S;
        let pinned = [
            ("fresh", S::fresh.index(), 0),
            ("reused", S::reused.index(), 1),
            ("magazine_flushes", S::magazine_flushes.index(), 2),
            ("block_allocs", S::block_allocs.index(), 3),
            ("block_frees", S::block_frees.index(), 4),
            ("alloc_pages", S::alloc_pages.index(), 5),
            ("free_pages", S::free_pages.index(), 6),
            ("on_node_frees", S::on_node_frees.index(), 7),
            ("cross_node_frees", S::cross_node_frees.index(), 8),
            ("reclaim_drains", S::reclaim_drains.index(), 9),
            ("remote_steals", S::remote_steals.index(), 10),
            ("spills", S::spills.index(), 11),
        ];
        for (name, word, was) in pinned {
            assert_eq!(word, was, "{name}");
        }
    }

    #[test]
    fn alloc_zeroes_and_stores() {
        let pool = FramePool::new(2);
        let f = pool.try_alloc(0).unwrap();
        assert_eq!(pool.read_u64(f, 0), 0);
        pool.write_u64(f, 8, 0xDEAD_BEEF);
        assert_eq!(pool.read_u64(f, 8), 0xDEAD_BEEF);
        pool.free(0, f);
        let f2 = pool.try_alloc(0).unwrap();
        assert_eq!(f2, f, "free list reuse");
        assert_eq!(pool.read_u64(f2, 8), 0, "reused frame re-zeroed");
    }

    /// The first, a middle and the last word of `pfn` are all zero.
    fn reads_zero(pool: &FramePool, pfn: Pfn) -> bool {
        [0, FRAME_SIZE / 2, FRAME_SIZE - 8]
            .iter()
            .all(|&off| pool.read_u64(pfn, off) == 0)
    }

    #[test]
    fn a_page_written_by_fill_reads_zero_when_handed_out_again() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        pool.fill(f, 0xA5);
        assert!(!reads_zero(&pool, f));
        pool.free(0, f);
        let again = pool.try_alloc(0).unwrap();
        assert_eq!(again, f, "free list reuse");
        assert!(reads_zero(&pool, again), "a filled frame re-zeroed");
    }

    #[test]
    fn a_page_written_by_copy_frame_reads_zero_when_handed_out_again() {
        let pool = FramePool::new(1);
        let src = pool.try_alloc(0).unwrap();
        let dst = pool.try_alloc(0).unwrap();
        pool.fill(src, 0x5A);
        pool.copy_frame(src, dst);
        assert_eq!(pool.read_u64(dst, FRAME_SIZE - 8), 0x5A5A_5A5A_5A5A_5A5A);
        pool.free(0, dst);
        let again = pool.try_alloc(0).unwrap();
        assert_eq!(again, dst, "free list reuse");
        assert!(reads_zero(&pool, again), "a copied-into frame re-zeroed");
        assert!(!reads_zero(&pool, src), "the source keeps its bytes");
    }

    #[test]
    fn a_block_with_two_written_members_reads_zero_in_all_members_when_reused() {
        let pool = FramePool::new(1);
        let base = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        pool.write_u64(base + 3, FRAME_SIZE / 2, 7);
        pool.fill(base + BLOCK_PAGES as Pfn - 1, 0xFF);
        pool.free_block(0, base, BLOCK_ORDER);
        let again = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        assert_eq!(again, base, "the freed block reused whole");
        for i in 0..BLOCK_PAGES as Pfn {
            assert!(reads_zero(&pool, again + i), "member {i} re-zeroed");
        }
    }

    /// Frames of `pool` that have payload memory.
    fn payloads(pool: &FramePool) -> usize {
        (0..pool.total_frames() as Pfn)
            .filter(|&pfn| !pool.slot(pfn).payload().is_null())
            .count()
    }

    #[test]
    fn a_frame_gets_payload_memory_at_its_first_hand_out() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        assert_eq!(pool.total_frames(), GROW_BATCH, "one batch grew");
        assert_eq!(payloads(&pool), 1, "the growth allocated no payload");
        let g = pool.try_alloc(0).unwrap();
        assert_eq!(payloads(&pool), 2);
        pool.free(0, f);
        pool.free(0, g);
        assert_eq!(pool.try_alloc(0).unwrap(), g);
        assert_eq!(payloads(&pool), 2, "a recycled frame keeps its payload");
        let b = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        assert_eq!(payloads(&pool), 2 + BLOCK_PAGES);
        assert_eq!(pool.read_u64(b + BLOCK_PAGES as Pfn - 1, 4088), 0);
    }

    #[test]
    fn generation_bumps_on_free() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        let g0 = pool.generation(f);
        pool.free(0, f);
        assert_eq!(pool.generation(f), g0 + 1);
        let f2 = pool.try_alloc(0).unwrap();
        assert_eq!(f2, f);
        assert_eq!(pool.generation(f2), g0 + 1, "gen stable across realloc");
    }

    /// First-touch pool with cores striped across `nnodes` nodes.
    fn numa_pool(ncores: usize, nnodes: usize) -> FramePool {
        FramePool::with_placement(ncores, PlacementPolicy::FirstTouch, nnodes)
    }

    #[test]
    fn same_node_free_stays_core_local() {
        // On one node every core shares node 0: a free on any core
        // adopts the frame locally instead of parking in a magazine.
        let pool = FramePool::new(2);
        let f = pool.try_alloc(0).unwrap();
        pool.free(1, f);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.stats().on_node_frees, 1);
        assert_eq!(pool.stats().cross_node_frees, 0);
        assert_eq!(
            pool.try_alloc(1).unwrap(),
            f,
            "same-node frame adopted by core 1"
        );
    }

    #[test]
    fn home_return() {
        // Cores 0 and 1 on different nodes: a cross-node free parks in
        // the freeing core's magazine and returns to the home node's
        // reservoir at flush.
        let pool = numa_pool(2, 2);
        let f = pool.try_alloc(0).unwrap(); // homed node 0
        pool.free(1, f);
        assert_eq!(pool.stats().cross_node_frees, 1);
        assert_eq!(pool.stats().cross_node_frees, 1);
        assert_eq!(pool.magazine_len(1), 1);
        let g = pool.try_alloc(1).unwrap();
        assert_ne!(g, f, "node 1 must not see node 0's frame");
        // Once the magazine flushes, the home node's cores reuse it:
        // drain core 0's leftover grow batch until the reservoir frame
        // surfaces.
        pool.flush_magazines();
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.reservoir_len(0), 1);
        let mut drained = 0;
        loop {
            if pool.try_alloc(0).unwrap() == f {
                break;
            }
            drained += 1;
            assert!(
                drained <= GROW_BATCH,
                "home node never reused the frame after flush"
            );
        }
    }

    #[test]
    fn magazine_flushes_at_capacity() {
        let pool = numa_pool(2, 2);
        let frames: Vec<Pfn> = (0..MAGAZINE_SIZE)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        // Cross-node-free one short of the magazine size: all park.
        for &f in &frames[..MAGAZINE_SIZE - 1] {
            pool.free(1, f);
        }
        assert_eq!(pool.magazine_len(1), MAGAZINE_SIZE - 1);
        assert_eq!(pool.stats().magazine_flushes, 0);
        // The filling free flushes the whole batch home.
        pool.free(1, frames[MAGAZINE_SIZE - 1]);
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.stats().magazine_flushes, 1);
        assert_eq!(pool.stats().cross_node_frees, MAGAZINE_SIZE as u64);
        // All frames are allocatable on the home node again.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..MAGAZINE_SIZE {
            seen.insert(pool.try_alloc(0).unwrap());
        }
        for f in frames {
            assert!(seen.contains(&f), "frame {f} not reusable after flush");
        }
    }

    #[test]
    fn magazine_flush_groups_multiple_homes() {
        // 4 cores striped over 4 nodes: frames homed on nodes 1, 2, 3
        // all freed from core 0 park in one magazine and return to their
        // own node's reservoir at flush.
        let pool = numa_pool(4, 4);
        let mut by_home = Vec::new();
        for core in 1..4usize {
            let f = pool.try_alloc(core).unwrap();
            by_home.push((core, f));
        }
        for &(_, f) in &by_home {
            pool.free(0, f);
        }
        assert_eq!(pool.magazine_len(0), 3);
        pool.flush_magazines();
        for (core, f) in by_home {
            assert_eq!(pool.reservoir_len(core), 1, "node {core} reservoir");
            // The home core reaches the frame once its adopted fresh
            // batch drains through its own free list.
            let mut got = false;
            for _ in 0..GROW_BATCH {
                if pool.try_alloc(core).unwrap() == f {
                    got = true;
                    break;
                }
            }
            assert!(got, "node {core} never reused its frame {f}");
        }
    }

    /// Locked instructions (`sim::CoreStats::rmws`) of every path on a
    /// two-node pool, core 0 on node 0 and core 1 on node 1: the acting
    /// core's one lock, plus the shared lock each tier visits (a node
    /// reservoir, a block reservoir, the growth lock). No counter adds
    /// one.
    #[test]
    fn every_path_takes_its_core_lock_once() {
        let _sim = sim::install(2, rvm_sync::CostModel::default());
        let rmws = |core: usize, op: &mut dyn FnMut()| {
            sim::switch(core);
            let before = sim::stats().cores[core].rmws;
            op();
            sim::stats().cores[core].rmws - before
        };
        let mut seen = Vec::new();
        let (mut f, mut g) = (0, 0);

        let pool = numa_pool(2, 2);
        seen.push((
            "fresh growth",
            rmws(0, &mut || f = pool.try_alloc(0).unwrap()),
        ));
        seen.push(("own list", rmws(0, &mut || g = pool.try_alloc(0).unwrap())));
        // The growth's other GROW_BATCH - 2 frames are more than a free
        // leaves on a list: freeing g spills them.
        seen.push(("on-node free + spill", rmws(0, &mut || pool.free(0, g))));
        assert_eq!(pool.reservoir_len(0), GROW_BATCH - 2);
        seen.push(("on-node free", rmws(0, &mut || pool.free(0, f))));
        // Empty core 0's list (g, f) so the next allocation refills.
        pool.try_alloc(0).unwrap();
        pool.try_alloc(0).unwrap();
        seen.push((
            "reservoir refill",
            rmws(0, &mut || f = pool.try_alloc(0).unwrap()),
        ));
        // f and these fill core 1's magazine; all are homed on node 0.
        let batch: Vec<Pfn> = (1..MAGAZINE_SIZE)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        seen.push(("cross-node free", rmws(1, &mut || pool.free(1, f))));
        let (&last, rest) = batch.split_last().unwrap();
        for &b in rest {
            pool.free(1, b);
        }
        seen.push((
            "cross-node free + flush",
            rmws(1, &mut || pool.free(1, last)),
        ));

        // Core 0's stride visits node 0, then node 1, then again.
        let pool = FramePool::with_placement(2, PlacementPolicy::Interleave, 2);
        pool.try_alloc(0).unwrap();
        seen.push((
            "remote draw, growth",
            rmws(0, &mut || f = pool.try_alloc(0).unwrap()),
        ));
        pool.try_alloc(0).unwrap();
        seen.push((
            "remote draw",
            rmws(0, &mut || g = pool.try_alloc(0).unwrap()),
        ));
        assert_eq!((pool.home(f), pool.home(g)), (1, 1));

        let pool = numa_pool(2, 2);
        f = pool.try_alloc(0).unwrap();
        pool.free(1, f);
        pool.set_frame_limit(pool.total_frames() as u64);
        seen.push((
            "tier 4: drain",
            rmws(1, &mut || f = pool.try_alloc(1).unwrap()),
        ));
        pool.free(1, f);
        pool.flush_magazines();
        seen.push((
            "tier 5: steal",
            rmws(1, &mut || f = pool.try_alloc(1).unwrap()),
        ));
        pool.set_frame_limit(pool.total_frames() as u64 + 3);
        seen.push((
            "partial growth",
            rmws(1, &mut || f = pool.try_alloc(1).unwrap()),
        ));
        pool.try_alloc(1).unwrap();
        pool.try_alloc(1).unwrap();
        let mut failed = Ok(0);
        seen.push(("out of memory", rmws(1, &mut || failed = pool.try_alloc(1))));
        assert_eq!(failed, Err(OutOfMemory));

        let pool = numa_pool(2, 2);
        let alloc = |pfn: &mut Pfn| *pfn = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        seen.push(("fresh block", rmws(0, &mut || alloc(&mut f))));
        seen.push((
            "on-node block free",
            rmws(0, &mut || pool.free_block(0, f, BLOCK_ORDER)),
        ));
        seen.push(("recycled block", rmws(0, &mut || alloc(&mut f))));
        seen.push((
            "cross-node block free",
            rmws(1, &mut || pool.free_block(1, f, BLOCK_ORDER)),
        ));

        let pinned = [
            ("fresh growth", 3),
            ("own list", 1),
            ("on-node free + spill", 2),
            ("on-node free", 1),
            ("reservoir refill", 2),
            ("cross-node free", 1),
            ("cross-node free + flush", 2),
            ("remote draw, growth", 4),
            ("remote draw", 2),
            ("tier 4: drain", 3),
            ("tier 5: steal", 4),
            ("partial growth", 3),
            ("out of memory", 4),
            ("fresh block", 3),
            ("on-node block free", 2),
            ("recycled block", 2),
            ("cross-node block free", 2),
        ];
        assert_eq!(seen, pinned);
    }

    #[test]
    fn remote_free_line_traffic_is_batched() {
        // The simulator story: a stream of cross-node frees from one core
        // costs one reservoir transfer per magazine, not one per page.
        // (Flat sim pricing; the pool's own two nodes decide what
        // counts as cross-node.)
        let guard = rvm_sync::sim::install(2, rvm_sync::CostModel::default());
        let pool = numa_pool(2, 2);
        rvm_sync::sim::switch(0);
        let frames: Vec<Pfn> = (0..(2 * MAGAZINE_SIZE))
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        // Warm core 1's magazine structures with one full cycle.
        rvm_sync::sim::switch(1);
        for &f in &frames[..MAGAZINE_SIZE] {
            pool.free(1, f);
        }
        let before = rvm_sync::sim::stats();
        for &f in &frames[MAGAZINE_SIZE..] {
            pool.free(1, f);
        }
        let after = rvm_sync::sim::stats();
        let delta = after.cores[1].remote_transfers - before.cores[1].remote_transfers;
        assert!(
            delta <= 4,
            "one magazine of remote frees cost {delta} line transfers \
             (must be O(1) per batch, not per page)"
        );
        drop(guard);
    }

    #[test]
    fn map_counts() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        pool.inc_map(f);
        pool.inc_map(f);
        assert!(!pool.dec_map(f));
        assert!(pool.dec_map(f));
        assert_eq!(pool.map_count(f), 0);
    }

    #[test]
    fn many_frames_cross_chunk() {
        let pool = FramePool::new(1);
        let mut frames = Vec::new();
        for i in 0..(CHUNK_FRAMES + 10) as u64 {
            let f = pool.try_alloc(0).unwrap();
            pool.write_u64(f, 0, i);
            frames.push(f);
        }
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(pool.read_u64(f, 0), i as u64);
        }
        // Batched growth rounds the table size up to whole batches.
        assert!(pool.total_frames() >= CHUNK_FRAMES + 10);
        assert!(pool.total_frames() < CHUNK_FRAMES + 10 + GROW_BATCH);
    }

    #[test]
    fn concurrent_alloc_free() {
        let pool = Arc::new(FramePool::new(4));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..2_000u64 {
                    let f = pool.try_alloc(core).unwrap();
                    pool.write_u64(f, 0, i);
                    held.push(f);
                    if held.len() > 16 {
                        pool.free(core, held.remove(0));
                    }
                }
                for f in held {
                    pool.free(core, f);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = pool.stats();
        assert!(st.fresh > 0);
        assert!(st.reused > 0);
    }

    #[test]
    fn local_alloc_free_is_core_local() {
        // Steady-state alloc/free on one core causes no remote transfers.
        let guard = rvm_sync::sim::install(4, rvm_sync::CostModel::default());
        let pool = FramePool::new(4);
        rvm_sync::sim::switch(1);
        // Warm up (fresh allocation touches the growth path).
        let f = pool.try_alloc(1).unwrap();
        pool.free(1, f);
        let f = pool.try_alloc(1).unwrap();
        pool.free(1, f);
        let before = rvm_sync::sim::stats();
        for _ in 0..100 {
            let f = pool.try_alloc(1).unwrap();
            pool.free(1, f);
        }
        let after = rvm_sync::sim::stats();
        assert_eq!(
            after.cores[1].remote_transfers,
            before.cores[1].remote_transfers
        );
        drop(guard);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        pool.write_u64(f, FRAME_SIZE - 4, 1);
    }

    #[test]
    fn block_alloc_is_contiguous_zeroed_and_reusable() {
        let pool = FramePool::new(2);
        let base = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        // Contiguous and writable across the whole block.
        for i in 0..BLOCK_PAGES {
            let pfn = base + i as Pfn;
            assert_eq!(pool.read_u64(pfn, 0), 0, "frame {i} not zeroed");
            pool.write_u64(pfn, 0, i as u64);
        }
        let gens: Vec<u64> = (0..BLOCK_PAGES)
            .map(|i| pool.generation(base + i as Pfn))
            .collect();
        pool.free_block(0, base, BLOCK_ORDER);
        // Every member frame's generation bumped (stale block TLB
        // entries become detectable).
        for (i, g) in gens.iter().enumerate() {
            assert_eq!(pool.generation(base + i as Pfn), g + 1, "frame {i}");
        }
        // The block is reused whole, re-zeroed.
        let again = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        assert_eq!(again, base, "home core reuses the freed block");
        assert_eq!(pool.read_u64(again, 0), 0);
        let st = pool.stats();
        assert_eq!(st.block_allocs, 2);
        assert_eq!(st.block_frees, 1);
    }

    #[test]
    fn block_free_returns_home() {
        let pool = numa_pool(2, 2);
        let base = pool.try_alloc_block(0, BLOCK_ORDER).unwrap(); // homed node 0
                                                                  // Freed from core 1 (node 1): returns whole to node 0's block
                                                                  // reservoir.
        pool.free_block(1, base, BLOCK_ORDER);
        assert_eq!(pool.stats().cross_node_frees, BLOCK_PAGES as u64);
        assert_eq!(pool.stats().cross_node_frees, BLOCK_PAGES as u64);
        let other = pool.try_alloc_block(1, BLOCK_ORDER).unwrap();
        assert_ne!(other, base, "node 1 must not see node 0's block");
        assert_eq!(pool.try_alloc_block(0, BLOCK_ORDER).unwrap(), base);
    }

    /// One lifecycle at every granularity — the only thing that differs
    /// is the order `retain` arms the cell with, which the zero action
    /// dispatches on: a page goes back on the freeing core's list, a
    /// block whole into its home node's block reservoir.
    #[test]
    fn retained_frames_return_whole_at_every_order() {
        for order in [0, BLOCK_ORDER, GIANT_ORDER] {
            let pool = FramePool::new(2);
            let cache = Refcache::new(2);
            let pages = 1u64 << order;
            let alloc = |core| match order {
                0 => pool.try_alloc(core).unwrap(),
                _ => pool.try_alloc_block(core, order).unwrap(),
            };
            let freed = || pool.stats().free_pages;
            let base = alloc(0);
            let table = pool.total_frames();
            assert_eq!(pool.outstanding_frames(), pages, "order {order}");
            let r = pool.retain(&cache, &cache.lock(0).cells(), base, order, 1);
            assert_eq!((r.pfn, r.order), (base, order));
            // The demotion lifecycle, handed around two cores: one
            // reference for the fold, 511 adopted in one adjustment on
            // core 1, a hole punch's 16 and an unmap's 495 surrendered
            // as two runs on core 0.
            let k = BLOCK_PAGES as i64 - 1;
            pool.ref_adjust(&cache, &mut cache.lock(1).cells(), r, k);
            pool.ref_surrender(&cache, &mut cache.lock(0).cells(), r, 16, 16);
            pool.ref_surrender(&cache, &mut cache.lock(0).cells(), r, k - 16, k as u64 - 16);
            cache.quiesce();
            assert_eq!(freed(), 0, "order {order}: the last reference holds it");
            assert_eq!(pool.outstanding_frames(), pages);
            pool.ref_surrender(&cache, &mut cache.lock(0).cells(), r, 1, 1);
            cache.quiesce();
            pool.flush_magazines();
            assert_eq!(pool.outstanding_frames(), 0, "order {order}: freed whole");
            assert_eq!(freed(), pages, "order {order}: freed once");
            assert_eq!(pool.stats().block_frees, u64::from(order != 0));
            assert_eq!(cache.stats().slot_activates, 1);
            assert_eq!(cache.stats().slot_releases, 1);
            assert_eq!(cache.stats().allocs, 0, "no heap Refcache object");
            // Core 0 drove the count to zero, so the page is on top of
            // its list and the block in node 0's reservoir: either comes
            // straight back, from a table that did not grow, and its
            // cell re-arms under a newer generation.
            assert_eq!(alloc(0), base, "order {order}");
            assert_eq!(pool.total_frames(), table, "order {order}: recycled");
            let r2 = pool.retain(&cache, &cache.lock(0).cells(), base, order, 1);
            assert!(r2.gen > r.gen, "new incarnation has a newer generation");
            pool.ref_adjust(&cache, &mut cache.lock(0).cells(), r2, -1);
            cache.quiesce();
            assert_eq!(pool.outstanding_frames(), 0);
        }
    }

    #[test]
    fn outstanding_frames_tracks_pages_and_blocks() {
        let pool = FramePool::new(1);
        let a = pool.try_alloc(0).unwrap();
        let b = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        assert_eq!(pool.outstanding_frames(), 1 + BLOCK_PAGES as u64);
        pool.free(0, a);
        assert_eq!(pool.outstanding_frames(), BLOCK_PAGES as u64);
        pool.free_block(0, b, BLOCK_ORDER);
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn frame_slots_do_not_share_count_lines() {
        // Adjacent frames' embedded count cells must live on distinct
        // cache lines, or per-core counting would false-share.
        assert!(std::mem::align_of::<FrameSlot>() >= 64);
        assert!(std::mem::size_of::<FrameSlot>().is_multiple_of(64));
        // Two lines, as before the access pin: the frame table's layout
        // is simulator-visible.
        assert_eq!(std::mem::size_of::<FrameSlot>(), 128);
    }

    /// The schedule `Machine::access` met under a foreign sweeper: a
    /// fault returned a translation, the access checked the frame's
    /// generation, and another thread freed the frame before the access
    /// touched it. With the pin, the free waits for the access.
    #[test]
    fn a_free_waits_for_a_pinned_access() {
        use std::sync::atomic::AtomicBool;
        let pool = FramePool::new(2);
        let f = pool.try_alloc(0).unwrap();
        let gen = pool.generation(f);
        let freed = AtomicBool::new(false);
        std::thread::scope(|s| {
            let pin = pool.pin(f, gen).expect("a live frame pins");
            s.spawn(|| {
                pool.free(1, f);
                freed.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!freed.load(Ordering::SeqCst), "freed under a pin");
            pool.write_u64(f, 0, 1);
            drop(pin);
        });
        assert!(freed.into_inner());
        assert!(pool.pin(f, gen).is_none(), "a freed frame does not pin");
    }

    #[test]
    fn interleave_strides_across_nodes() {
        let pool = FramePool::with_placement(4, PlacementPolicy::Interleave, 4);
        // All allocation happens on core 0; homes must still rotate.
        let mut homes = std::collections::HashSet::new();
        for _ in 0..8 {
            let b = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
            homes.insert(pool.home(b));
        }
        assert_eq!(
            homes.len(),
            4,
            "interleave must cover all nodes, got {homes:?}"
        );
        // Single-page interleave likewise draws from every node.
        let mut homes = std::collections::HashSet::new();
        for _ in 0..8 {
            homes.insert(pool.home(pool.try_alloc(0).unwrap()));
        }
        assert_eq!(homes.len(), 4, "page interleave covers all nodes");
        // First-touch keeps everything on the allocating core's node.
        let ft = numa_pool(4, 4);
        let b = ft.try_alloc_block(2, BLOCK_ORDER).unwrap();
        assert_eq!(ft.home(b), 2);
        assert_eq!(ft.home(ft.try_alloc(3).unwrap()), 3);
    }

    #[test]
    fn interleave_on_one_node_degenerates_to_first_touch() {
        // nnodes = 1: the stride always lands on the local node, so the
        // fast path (own list, batch adoption) is identical to
        // first-touch — this is what keeps single-node numbers unchanged.
        let pool = FramePool::with_placement(2, PlacementPolicy::Interleave, 1);
        let f = pool.try_alloc(0).unwrap();
        pool.free(0, f);
        assert_eq!(pool.try_alloc(0).unwrap(), f, "own free list reused");
        let st = pool.stats();
        assert_eq!(st.cross_node_frees, 0);
        assert_eq!(st.on_node_frees, 1);
    }

    #[test]
    fn interleave_remote_draw_reuses_reservoir() {
        // A remote stride target with a stocked reservoir pops exactly
        // one frame instead of growing fresh ones.
        let pool = FramePool::with_placement(2, PlacementPolicy::Interleave, 2);
        // Stock node 1's reservoir: allocate on core 1 until a frame is
        // homed there, free it cross-node from core 0, flush.
        let f = loop {
            let f = pool.try_alloc(1).unwrap();
            if pool.home(f) == 1 {
                break f;
            }
        };
        pool.free(0, f);
        pool.flush_magazines();
        assert_eq!(pool.reservoir_len(1), 1);
        let fresh_before = pool.stats().fresh;
        // Drive core 0's stride until it targets node 1.
        let mut drawn = None;
        for _ in 0..4 {
            let a = pool.try_alloc(0).unwrap();
            if pool.home(a) == 1 {
                drawn = Some(a);
                break;
            }
        }
        assert_eq!(drawn, Some(f), "reservoir frame drawn, not fresh growth");
        assert_eq!(pool.reservoir_len(1), 0);
        // Growth may have happened for node-0 targets, but the node-1
        // draw itself must not have grown anything beyond one batch.
        assert!(pool.stats().fresh <= fresh_before + GROW_BATCH as u64);
    }

    #[test]
    #[should_panic(expected = "at least one NUMA node")]
    fn a_pool_without_nodes_panics() {
        FramePool::with_placement(2, PlacementPolicy::FirstTouch, 0);
    }

    /// Frames on `core`'s free list.
    fn free_len(pool: &FramePool, core: usize) -> usize {
        pool.cores
            .get(&mut pool.cores.locks().lock(core).cells())
            .free
            .len()
    }

    /// One round of the pattern the spill exists for: core 0 allocates
    /// a frame and core 1, on the same node, frees it.
    fn alloc_on_0_free_on_1(pool: &FramePool) -> Result<(), OutOfMemory> {
        pool.free(1, pool.try_alloc(0)?);
        Ok(())
    }

    #[test]
    fn frames_one_core_frees_reach_a_capped_allocator() {
        let pool = FramePool::new(2);
        pool.set_frame_limit(6 * REFILL_BATCH as u64);
        for round in 0..10_000 {
            alloc_on_0_free_on_1(&pool).unwrap_or_else(|_| {
                panic!(
                    "round {round}: {} frames free on core 1",
                    free_len(&pool, 1)
                )
            });
        }
        assert!(pool.stats().spills > 0);
    }

    #[test]
    fn a_freeing_core_holds_at_most_one_batch() {
        let pool = FramePool::new(2);
        for _ in 0..10_000 {
            alloc_on_0_free_on_1(&pool).unwrap();
            assert!(free_len(&pool, 1) <= REFILL_BATCH);
        }
        let fresh = pool.stats().fresh;
        let bound = (GROW_BATCH + REFILL_BATCH) as u64;
        assert!(fresh <= bound, "{fresh} frames grown");
    }

    #[test]
    fn three_batches_freed_in_a_row_keep_one_on_the_list() {
        let pool = FramePool::new(2);
        let held: Vec<Pfn> = (0..3 * REFILL_BATCH)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        // Empty core 0's list: the growth's other frames stay allocated.
        while free_len(&pool, 0) > 0 {
            pool.try_alloc(0).unwrap();
        }
        for f in held {
            pool.free(1, f);
        }
        assert!(free_len(&pool, 1) <= REFILL_BATCH);
        assert_eq!(
            free_len(&pool, 1) + pool.reservoir_len(0),
            3 * REFILL_BATCH,
            "the rest sit in the reservoir"
        );
        // Core 0 takes the reservoir, core 1 its own list: nothing grows.
        let fresh = pool.stats().fresh;
        let again: Vec<Pfn> = (0..pool.reservoir_len(0))
            .map(|_| pool.try_alloc(0).unwrap())
            .chain((0..free_len(&pool, 1)).map(|_| pool.try_alloc(1).unwrap()))
            .collect();
        assert_eq!(again.len(), 3 * REFILL_BATCH);
        assert_eq!(pool.stats().fresh, fresh, "no frame grown");
    }

    #[test]
    fn a_spill_moves_the_first_freed_frames() {
        let pool = FramePool::new(2);
        let held: Vec<Pfn> = (0..2 * REFILL_BATCH)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        // Empty core 0's list: the growth's other frames stay allocated.
        while free_len(&pool, 0) > 0 {
            pool.try_alloc(0).unwrap();
        }
        for &f in &held {
            pool.free(1, f);
        }
        assert_eq!(pool.stats().spills, 1);
        assert_eq!(pool.reservoir_len(0), REFILL_BATCH);
        assert_eq!(free_len(&pool, 1), REFILL_BATCH);
        // Core 0's list is empty: its next batch is the spilled one.
        assert_eq!(free_len(&pool, 0), 0);
        let fresh = pool.stats().fresh;
        let mut refilled: Vec<Pfn> = (0..REFILL_BATCH)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        refilled.sort_unstable();
        let mut first_freed = held[..REFILL_BATCH].to_vec();
        first_freed.sort_unstable();
        assert_eq!(refilled, first_freed);
        assert_eq!(pool.stats().fresh, fresh, "no frame grown");
    }

    /// `shared_remap`'s pattern at the pool level: sixteen cores, one
    /// of which frees the sixteen frames outstanding each round, while
    /// the next sixteen allocations land on whichever cores fault next.
    /// The freeing core is rarely the one that allocates, so a pool
    /// whose lists hold more than one batch grows far past the live set.
    #[test]
    fn a_remap_stream_grows_the_pool_by_one_batch_per_core() {
        const NCORES: usize = 16;
        const HELD: usize = 16;
        let pool = FramePool::new(NCORES);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_core = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % NCORES as u64) as usize
        };
        let mut held = Vec::with_capacity(HELD);
        for _ in 0..2_000 {
            let freer = next_core();
            for f in held.drain(..) {
                pool.free(freer, f);
            }
            held.extend((0..HELD).map(|_| pool.try_alloc(next_core()).unwrap()));
        }
        let bound = HELD + NCORES * GROW_BATCH + GROW_BATCH;
        assert!(
            pool.total_frames() <= bound,
            "{} frames for {HELD} outstanding (bound {bound})",
            pool.total_frames()
        );
        // A frame keeps its payload once handed out, so the free ones
        // that have one are footprint. A refill takes those before any
        // bare frame, so a payload is made only when the reservoir
        // holds none: the free ones are then on the lists, at most a
        // refill batch each.
        let bound = HELD + NCORES * REFILL_BATCH;
        assert!(
            payloads(&pool) <= bound,
            "{} frames hold payload for {HELD} outstanding (bound {bound})",
            payloads(&pool)
        );
    }

    #[test]
    fn frame_limit_exhaustion_and_recovery() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap(); // grows one GROW_BATCH
        pool.set_frame_limit(pool.total_frames() as u64);
        // Drain the adopted batch; every allocation still succeeds.
        let mut held = vec![f];
        for _ in 1..GROW_BATCH {
            held.push(pool.try_alloc(0).expect("batch frames still free"));
        }
        // Now every tier is empty: typed failure, not an abort.
        assert_eq!(pool.try_alloc(0), Err(OutOfMemory));
        assert_eq!(
            pool.outstanding_frames(),
            GROW_BATCH as u64,
            "failed allocation must not count as handed out"
        );
        // Relief: freeing one frame makes the next allocation succeed.
        pool.free(0, held.pop().unwrap());
        let again = pool.try_alloc(0).expect("recovers after pressure relief");
        held.push(again);
        // Raising the limit re-enables growth.
        pool.set_frame_limit(u64::MAX);
        assert_eq!(pool.frame_limit(), TABLE_CAPACITY);
        held.push(pool.try_alloc(0).expect("growth re-enabled"));
        for f in held {
            pool.free(0, f);
        }
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn pressure_drains_own_magazine() {
        let pool = numa_pool(2, 2);
        let f = pool.try_alloc(0).unwrap(); // homed node 0
        pool.free(1, f); // parks in core 1's magazine
        assert_eq!(pool.magazine_len(1), 1);
        pool.set_frame_limit(pool.total_frames() as u64);
        let got = pool
            .try_alloc(1)
            .expect("drain tier reclaims the parked frame");
        assert_eq!(got, f);
        assert_eq!(pool.magazine_len(1), 0, "remainder flushed home");
        let st = pool.stats();
        assert_eq!((st.reclaim_drains, st.remote_steals), (1, 0));
        pool.free(1, got);
    }

    #[test]
    fn pressure_steals_from_remote_reservoir_nearest_first() {
        let pool = numa_pool(2, 2);
        let f = pool.try_alloc(0).unwrap(); // homed node 0
        pool.free(1, f);
        pool.flush_magazines(); // node 0's reservoir now holds f
        pool.set_frame_limit(pool.total_frames() as u64);
        let got = pool
            .try_alloc(1)
            .expect("steal tier takes the remote frame");
        assert_eq!(got, f);
        let st = pool.stats();
        assert_eq!((st.reclaim_drains, st.remote_steals), (0, 1));
        pool.free(1, got);
    }

    /// Headroom below a batch is still growth: the core gets a fresh
    /// frame homed on its own node, and the cross-node frame parked in
    /// its magazine stays parked rather than being drained out of turn.
    #[test]
    fn partial_growth_comes_before_any_remote_homed_frame() {
        let pool = numa_pool(2, 2);
        let f = pool.try_alloc(0).unwrap(); // homed node 0
        pool.free(1, f); // parks in core 1's magazine
        let total = pool.total_frames();
        pool.set_frame_limit(total as u64 + 3);
        let got = pool.try_alloc(1).expect("three frames of headroom");
        assert_eq!(pool.home(got), 1, "homed on core 1's node");
        assert_eq!(pool.total_frames(), total + 3);
        assert_eq!(pool.magazine_len(1), 1, "the parked frame stays parked");
        let st = pool.stats();
        assert_eq!((st.reclaim_drains, st.remote_steals), (0, 0));
    }

    #[test]
    fn pressure_partial_growth_uses_remaining_headroom() {
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        // Leave headroom for 3 more frames: less than a growth batch.
        pool.set_frame_limit(pool.total_frames() as u64 + 3);
        let mut held = vec![f];
        for _ in 1..GROW_BATCH {
            held.push(pool.try_alloc(0).expect("batch frames"));
        }
        for _ in 0..3 {
            held.push(pool.try_alloc(0).expect("partial growth"));
        }
        assert_eq!(pool.try_alloc(0), Err(OutOfMemory));
        for f in held {
            pool.free(0, f);
        }
        assert_eq!(pool.outstanding_frames(), 0);
    }

    #[test]
    fn block_pressure_steals_remote_block() {
        let pool = numa_pool(2, 2);
        let b = pool.try_alloc_block(0, BLOCK_ORDER).unwrap(); // homed node 0
        pool.free_block(0, b, BLOCK_ORDER); // node 0 block reservoir
        pool.set_frame_limit(pool.total_frames() as u64);
        let got = pool
            .try_alloc_block(1, BLOCK_ORDER)
            .expect("block steal from node 0");
        assert_eq!(got, b);
        assert_eq!(pool.stats().remote_steals, 1);
        pool.free_block(1, got, BLOCK_ORDER);
        // With the reservoir empty too, block allocation fails typed.
        let again = pool.try_alloc_block(1, BLOCK_ORDER).unwrap(); // reuses b via steal? no: node 1 target, steals again
        pool.free_block(1, again, BLOCK_ORDER);
        pool.set_frame_limit(0);
        // Drain both block reservoirs so nothing is stealable.
        while pool.try_alloc_block(0, BLOCK_ORDER).is_ok()
            || pool.try_alloc_block(1, BLOCK_ORDER).is_ok()
        {}
        assert_eq!(pool.try_alloc_block(1, BLOCK_ORDER), Err(OutOfMemory));
    }

    #[test]
    fn failpoints_inject_typed_failures() {
        use rvm_sync::failpoint::{self, Trigger};
        failpoint::disarm_all();
        let pool = FramePool::new(1);
        let f = pool.try_alloc(0).unwrap();
        pool.free(0, f);
        failpoint::arm(failpoint::FRAME_ALLOC, 0, Trigger::Nth(1));
        assert_eq!(
            pool.try_alloc(0),
            Err(OutOfMemory),
            "armed frame-alloc fails even with free frames"
        );
        let f = pool.try_alloc(0).expect("Nth(1) fires once");
        pool.free(0, f);
        // chunk-grow veto on a fresh pool: nothing to recycle → OOM.
        let fresh = FramePool::new(1);
        failpoint::arm(failpoint::CHUNK_GROW, 0, Trigger::EveryK(1));
        assert_eq!(fresh.try_alloc(0), Err(OutOfMemory));
        assert_eq!(fresh.try_alloc_block(0, BLOCK_ORDER), Err(OutOfMemory));
        failpoint::disarm_all();
        assert!(fresh.try_alloc(0).is_ok());
    }

    #[test]
    fn magazine_flush_failpoint_defers_not_fails() {
        use rvm_sync::failpoint::{self, Trigger};
        failpoint::disarm_all();
        let pool = numa_pool(2, 2);
        let frames: Vec<Pfn> = (0..MAGAZINE_SIZE + 4)
            .map(|_| pool.try_alloc(0).unwrap())
            .collect();
        failpoint::arm(failpoint::MAGAZINE_FLUSH, 1, Trigger::EveryK(1));
        for &f in &frames {
            pool.free(1, f);
        }
        // The capacity flush was vetoed: frames stay parked, over size.
        assert_eq!(pool.magazine_len(1), MAGAZINE_SIZE + 4);
        assert_eq!(pool.stats().magazine_flushes, 0);
        failpoint::disarm_all();
        pool.flush_magazines();
        assert_eq!(pool.magazine_len(1), 0);
        assert_eq!(pool.reservoir_len(0), MAGAZINE_SIZE + 4);
        assert_eq!(pool.outstanding_frames(), 0);
    }
}
