//! The virtual-time multicore simulator.
//!
//! A benchmark thread installs a simulator context with [`install`], then
//! alternates between virtual cores with [`switch`], running one workload
//! operation at a time per core. The real data-structure code executes
//! normally (single-threaded, so trivially race-free); every instrumented
//! synchronization access reports here and advances the *current virtual
//! core's clock* according to the prices in [`crate::model`] and a
//! MESI-style table of cache-line states. Lock hold times and IPI rounds
//! serialize virtual clocks the way real hardware serializes cores.
//!
//! Reported throughput is then `operations / max(core clocks)`, which
//! reproduces the shape of multicore scalability curves deterministically
//! on a single-CPU host.
//!
//! # Fidelity notes
//!
//! * Only accesses through [`crate::Atomic64`], [`crate::AtomicPtr64`],
//!   [`crate::Mutex`], [`crate::RwLock`], and explicit [`charge`] calls are
//!   modeled. Private (unshared) computation is folded into
//!   [`crate::model::OP_BASE_NS`] / explicit charges. This is the right
//!   abstraction for the paper's experiments, whose outcomes are entirely
//!   determined by shared-line and IPI behaviour.
//! * Because virtual cores execute sequentially, a CAS/lock never *really*
//!   spins; contention appears as virtual-time waiting (line serialization
//!   and lock `avail_at` windows) rather than retry work.
//! * Line and lock tables are keyed by address; if an allocation is freed
//!   and its address reused, its line state carries over — as it would on
//!   hardware, and it can be a large effect: memory one core frees and
//!   another reuses is a remote transfer per line (DESIGN.md §1). It
//!   never affects correctness. Transfer attribution by label does not
//!   carry over: see [`label_range`].

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::model::{
    hops, node_of, CostModel, ALLOC_NS, COLD_NS, HOP_NS, INVAL_PER_SHARER_NS, IPI_BUS_NS,
    IPI_HANDLE_NS, IPI_SEND_NS, LINE_SERVICE_NS, LOCAL_NS, OP_BASE_NS, PAGE_HOP_NS, PAGE_WORK_NS,
    REMOTE_NS,
};
use crate::CoreSet;

/// Sentinel core id meaning "no exclusive owner" in a line entry.
const NO_OWNER: u32 = u32::MAX;

/// State of one 64-byte cache line.
///
/// Packed to 8-byte alignment: `sharers` alone would align the entry to
/// 16 bytes and pad a `lines` bucket to 64, where 48 hold it. A run's
/// line map is its largest host allocation (8 MiB at 131 072 lines, the
/// 16-core `superpage` run), and the table's doubling holds the old and
/// new arrays at once, so the entry size sets the benchmark's peak
/// resident set there. Fields are only read and written by value.
#[derive(Clone, Copy)]
#[repr(Rust, packed(8))]
struct Line {
    /// Exclusive owner core, or [`NO_OWNER`] when the line is shared.
    owner: u32,
    /// Cores holding a (shared) copy. When `owner` is set this is the
    /// owner's singleton set.
    sharers: u128,
    /// Virtual time until which the line's home node is busy serving a
    /// transfer; transfers queue behind this.
    busy_until: u64,
    /// Remote transfers served by this line (diagnostics; see
    /// [`remote_transfers_by_label`]).
    transfers: u64,
    /// NUMA node holding the line's memory. Shared-source fetches and cold
    /// misses are priced from here (directory/home sourcing); modified
    /// data is priced from the owning core's node. The first toucher's
    /// node (first-touch homing).
    home: u16,
    /// When set, every node holds a local replica: reads never pay
    /// distance, but a write that invalidates sharers pays a broadcast to
    /// every other node. See [`place_replicated`].
    replicated: bool,
}

/// A replicated range, consulted when a line entry is first created
/// (see [`place_replicated`]).
#[derive(Clone, Copy)]
struct PlacedRange {
    /// First cache line of the range (address >> 6).
    lo_line: u64,
    /// One past the last cache line of the range.
    hi_line: u64,
}

/// Looks up (or creates) the entry for cache line `key`, homed on the
/// first toucher's `node` unless a registration replicates it. Free
/// function so callers can keep the borrow field-level (`lines` only)
/// and still read the context's other fields.
fn line_entry<'a>(
    lines: &'a mut AddrMap<Line>,
    placed: &[PlacedRange],
    key: u64,
    node: usize,
) -> &'a mut Line {
    lines.entry(key).or_insert_with(|| Line {
        owner: NO_OWNER,
        sharers: 0,
        busy_until: 0,
        transfers: 0,
        home: node as u16,
        replicated: placed.iter().any(|r| r.lo_line <= key && key < r.hi_line),
    })
}

/// Virtual-time state of one lock (mutex or rwlock).
#[derive(Clone, Copy, Default)]
struct LockState {
    /// Virtual time at which the last exclusive holder released.
    write_avail: u64,
    /// Latest virtual release time among read holders.
    readers_until: u64,
}

/// Which side of a reader-writer lock an acquire/release refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// Exclusive acquisition (mutex, or rwlock write side).
    Exclusive,
    /// Shared acquisition (rwlock read side).
    Shared,
}

/// Per-core event counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct CoreStats {
    /// Instrumented accesses satisfied from the core's own cache.
    pub local_hits: u64,
    /// Cache-line transfers from a remote core or shared fetches.
    pub remote_transfers: u64,
    /// First-touch misses.
    pub cold_misses: u64,
    /// Sharer copies invalidated by this core's writes.
    pub invalidations: u64,
    /// Virtual nanoseconds spent waiting for locks.
    pub lock_wait_ns: u64,
    /// Shootdown IPIs sent by this core.
    pub ipis_sent: u64,
    /// Shootdown IPIs received by this core.
    pub ipis_received: u64,
    /// Explicitly charged work (page zeroing etc.).
    pub charged_ns: u64,
    /// Heap allocations explicitly charged on hot paths.
    pub heap_allocs: u64,
    /// Locked instructions issued: every atomic swap / compare-exchange /
    /// `fetch_*` and every lock acquisition. Counted only — each is
    /// priced as the line write it always was; plain stores and the
    /// single-mutator `*_exclusive` updates are not counted.
    pub rmws: u64,
}

/// A snapshot of the simulator's counters and clocks.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Per-core virtual clocks, ns.
    pub clocks: Vec<u64>,
    /// Per-core event counters.
    pub cores: Vec<CoreStats>,
}

impl SimStats {
    /// The maximum core clock — the virtual wall-clock of the run.
    pub fn max_clock(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Total remote transfers across cores.
    pub fn total_remote(&self) -> u64 {
        self.cores.iter().map(|c| c.remote_transfers).sum()
    }

    /// Total IPIs sent across cores.
    pub fn total_ipis(&self) -> u64 {
        self.cores.iter().map(|c| c.ipis_sent).sum()
    }

    /// Total lock wait time across cores, ns.
    pub fn total_lock_wait_ns(&self) -> u64 {
        self.cores.iter().map(|c| c.lock_wait_ns).sum()
    }
}

/// Trivial multiplicative hasher for `u64`/`usize` keys (addresses).
#[derive(Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback path; only u64/usize keys are used in practice.
        for &b in bytes {
            self.0 = self.0.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A labeled address range: structures register the memory they own so
/// remote-transfer diagnostics can attribute traffic to a named category
/// (e.g. the frame table) instead of "anonymous heap".
#[derive(Clone, Copy)]
struct LabeledRange {
    /// First cache line of the range (address >> 6).
    lo_line: u64,
    /// One past the last cache line of the range.
    hi_line: u64,
    label: &'static str,
}

/// Category name reported for lines no structure claimed.
pub const UNLABELED: &str = "heap";

/// What lines served under one label before their label changed (see
/// [`SimCtx::retire`]).
struct Retired {
    label: &'static str,
    /// Remote transfers.
    transfers: u64,
    /// Cross-node events, a flattened `nnodes × nnodes` matrix.
    cross: Box<[u64]>,
}

/// The simulator context: one per benchmark thread, installed in TLS.
pub struct SimCtx {
    ncores: usize,
    cur: usize,
    clocks: Vec<u64>,
    stats: Vec<CoreStats>,
    lines: AddrMap<Line>,
    locks: AddrMap<LockState>,
    /// Virtual-time state of each *range* lock: its recently released
    /// intervals `(lo, hi, release_time)`, so a later acquisition of an
    /// overlapping range waits for the latest overlapping release while
    /// disjoint ranges pass for free. This is the range-indexed analogue
    /// of [`LockState::write_avail`]: because virtual cores execute
    /// sequentially, the releaser has always recorded its release time
    /// before the next acquirer runs, so the acquirer can compute its
    /// wait exactly instead of spinning. Pruned on release: intervals no
    /// core's clock can still be behind are dropped.
    ranges: AddrMap<Vec<(u64, u64, u64)>>,
    /// Labeled address ranges for transfer attribution (few, scanned
    /// linearly — diagnostics only, never on the modeled hot path).
    labels: Vec<LabeledRange>,
    /// Per label, what its lines served before their label changed:
    /// what a line served under one owner stays with that owner's label.
    retired: Vec<Retired>,
    /// Replicated ranges, consulted at line creation.
    placed: Vec<PlacedRange>,
    /// Number of NUMA nodes.
    nnodes: usize,
    /// Per-line cross-node transfer counts, keyed like `lines`; each value
    /// is a flattened `nnodes × nnodes` source→destination matrix. Only
    /// lines with at least one priced cross-node event have an entry.
    cross: AddrMap<Box<[u64]>>,
    /// Interconnect busy window for IPI delivery.
    apic_busy: u64,
}

impl SimCtx {
    fn new(ncores: usize, model: CostModel) -> Self {
        assert!((1..=crate::MAX_CORES).contains(&ncores));
        SimCtx {
            ncores,
            cur: 0,
            clocks: vec![0; ncores],
            stats: vec![CoreStats::default(); ncores],
            lines: AddrMap::default(),
            locks: AddrMap::default(),
            ranges: AddrMap::default(),
            labels: Vec::new(),
            retired: Vec::new(),
            placed: Vec::new(),
            nnodes: model.nnodes,
            cross: AddrMap::default(),
            apic_busy: 0,
        }
    }

    /// Records one cross-node transfer of line `key` from node `from` to
    /// node `to`.
    fn cross_event(&mut self, key: u64, from: usize, to: usize) {
        let n = self.nnodes;
        let m = self
            .cross
            .entry(key)
            .or_insert_with(|| vec![0u64; n * n].into_boxed_slice());
        m[from * n + to] += 1;
    }

    /// Category of the cache line `line` (address >> 6).
    fn label_of(&self, line: u64) -> &'static str {
        self.labels
            .iter()
            .find(|r| r.lo_line <= line && line < r.hi_line)
            .map(|r| r.label)
            .unwrap_or(UNLABELED)
    }

    /// The retired totals of `label`, created empty on first use.
    fn retired_of(&mut self, label: &'static str) -> &mut Retired {
        let i = match self.retired.iter().position(|r| r.label == label) {
            Some(i) => i,
            None => {
                self.retired.push(Retired {
                    label,
                    transfers: 0,
                    cross: vec![0; self.nnodes * self.nnodes].into_boxed_slice(),
                });
                self.retired.len() - 1
            }
        };
        &mut self.retired[i]
    }

    /// Books what lines `[lo, hi)` have served so far — remote transfers
    /// and cross-node events — to the label each line has now, and
    /// starts them from zero: called just before a range's label
    /// changes, so a line whose memory passes from one structure to
    /// another reports each one's traffic under its own name.
    fn retire(&mut self, lo: u64, hi: u64) {
        for key in lo..hi {
            let transfers = self
                .lines
                .get_mut(&key)
                .map_or(0, |l| std::mem::take(&mut l.transfers));
            let cross = self.cross.remove(&key);
            if transfers == 0 && cross.is_none() {
                continue;
            }
            let label = self.label_of(key);
            let r = self.retired_of(label);
            r.transfers += transfers;
            for (acc, v) in r.cross.iter_mut().zip(cross.iter().flat_map(|m| m.iter())) {
                *acc += v;
            }
        }
    }

    fn on_read(&mut self, addr: usize) {
        let c = self.cur;
        let clock = self.clocks[c];
        let nnodes = self.nnodes;
        let node = node_of(c, nnodes);
        let bit = 1u128 << c;
        let key = addr as u64 >> 6;
        let line = line_entry(&mut self.lines, &self.placed, key, node);
        // Cross-node fetch to record once the line borrow ends:
        // the source node the priced transfer came from.
        let mut cross_from: Option<usize> = None;
        if line.sharers == 0 {
            // First touch: bring the line in from its home node's memory
            // (the local replica when replicated).
            let src = if line.replicated {
                node
            } else {
                line.home as usize
            };
            let d = hops(src, node);
            line.sharers = bit;
            self.clocks[c] = clock + COLD_NS + HOP_NS * d;
            self.stats[c].cold_misses += 1;
            if d > 0 {
                cross_from = Some(src);
            }
        } else if line.owner == c as u32 || (line.owner == NO_OWNER && line.sharers & bit != 0) {
            // Own modified copy, or already a sharer.
            self.clocks[c] = clock + LOCAL_NS;
            self.stats[c].local_hits += 1;
        } else if line.owner != NO_OWNER {
            // Modified elsewhere: downgrade to shared; serialized at the
            // line's home node. Dirty data moves core-to-core, so distance
            // is priced from the owning core's node (replicas are refilled
            // for free on the way: the broadcast was paid by the writer).
            let src = node_of(line.owner as usize, nnodes);
            let d = if line.replicated { 0 } else { hops(src, node) };
            let start = clock.max(line.busy_until);
            line.busy_until = start + LINE_SERVICE_NS;
            line.sharers |= bit;
            line.owner = NO_OWNER;
            line.transfers += 1;
            self.clocks[c] = start + REMOTE_NS + HOP_NS * d;
            self.stats[c].remote_transfers += 1;
            if d > 0 {
                cross_from = Some(src);
            }
        } else {
            // Shared elsewhere: fetch a copy from the home node (directory
            // sourcing — clean data is served from the line's memory home,
            // not the nearest sharer); shared sourcing is served in
            // parallel (no home-node serialization). Replicated lines are
            // served from the local node's replica.
            let src = if line.replicated {
                node
            } else {
                line.home as usize
            };
            let d = hops(src, node);
            line.sharers |= bit;
            line.transfers += 1;
            self.clocks[c] = clock + REMOTE_NS + HOP_NS * d;
            self.stats[c].remote_transfers += 1;
            if d > 0 {
                cross_from = Some(src);
            }
        }
        if let Some(src) = cross_from {
            self.cross_event(key, src, node);
        }
    }

    fn on_write(&mut self, addr: usize) {
        let c = self.cur;
        let clock = self.clocks[c];
        let nnodes = self.nnodes;
        let node = node_of(c, nnodes);
        let bit = 1u128 << c;
        let key = addr as u64 >> 6;
        let line = line_entry(&mut self.lines, &self.placed, key, node);
        let mut cross_from: Option<usize> = None;
        // A write that invalidates sharers of a replicated line must reach
        // every node's replica: record a broadcast after the borrow ends.
        let mut broadcast = false;
        if line.sharers == 0 {
            let src = if line.replicated {
                node
            } else {
                line.home as usize
            };
            let d = hops(src, node);
            line.sharers = bit;
            line.owner = c as u32;
            self.clocks[c] = clock + COLD_NS + HOP_NS * d;
            self.stats[c].cold_misses += 1;
            if d > 0 {
                cross_from = Some(src);
            }
        } else if line.owner == c as u32 {
            self.clocks[c] = clock + LOCAL_NS;
            self.stats[c].local_hits += 1;
        } else if line.owner == NO_OWNER && line.sharers == bit {
            // Sole sharer upgrading to exclusive: silent upgrade.
            line.owner = c as u32;
            self.clocks[c] = clock + LOCAL_NS;
            self.stats[c].local_hits += 1;
        } else {
            // Take the line exclusive: invalidate other copies, serialized
            // at the home node. Non-replicated lines pay distance to the
            // data's source (the owner's node for dirty data, else the
            // home); replicated lines instead pay a broadcast to every
            // other node, the cost of keeping per-node replicas coherent.
            let others = (line.sharers & !bit).count_ones() as u64;
            let start = clock.max(line.busy_until);
            let extra = if line.replicated {
                broadcast = true;
                HOP_NS * (0..nnodes).map(|n| hops(node, n)).sum::<u64>()
            } else {
                let src = if line.owner != NO_OWNER {
                    node_of(line.owner as usize, nnodes)
                } else {
                    line.home as usize
                };
                let d = hops(src, node);
                if d > 0 {
                    cross_from = Some(src);
                }
                HOP_NS * d
            };
            let cost = REMOTE_NS + INVAL_PER_SHARER_NS * others + extra;
            line.busy_until = start + LINE_SERVICE_NS;
            line.owner = c as u32;
            line.sharers = bit;
            line.transfers += 1;
            self.clocks[c] = start + cost;
            self.stats[c].remote_transfers += 1;
            self.stats[c].invalidations += others;
        }
        if broadcast {
            for n in 0..nnodes {
                if n != node {
                    self.cross_event(key, node, n);
                }
            }
        } else if let Some(src) = cross_from {
            self.cross_event(key, src, node);
        }
    }

    /// A locked read-modify-write: priced as a write, counted in
    /// [`CoreStats::rmws`].
    fn on_rmw(&mut self, addr: usize) {
        self.stats[self.cur].rmws += 1;
        self.on_write(addr);
    }

    fn lock_acquire(&mut self, addr: usize, kind: LockKind) {
        let c = self.cur;
        let clock = self.clocks[c];
        let st = self.locks.entry(addr as u64).or_default();
        let start = match kind {
            LockKind::Exclusive => clock.max(st.write_avail).max(st.readers_until),
            LockKind::Shared => clock.max(st.write_avail),
        };
        self.stats[c].lock_wait_ns += start - clock;
        self.clocks[c] = start;
        // The lock word itself is a contended line: both mutex acquire and
        // rwlock reader-count increment write it.
        self.on_rmw(addr);
    }

    fn lock_release(&mut self, addr: usize, kind: LockKind) {
        let c = self.cur;
        let clock = self.clocks[c];
        let st = self.locks.entry(addr as u64).or_default();
        match kind {
            LockKind::Exclusive => st.write_avail = clock,
            LockKind::Shared => st.readers_until = st.readers_until.max(clock),
        }
    }

    fn range_lock_acquire(&mut self, addr: usize, lo: u64, hi: u64) {
        let c = self.cur;
        let clock = self.clocks[c];
        let history = self.ranges.entry(addr as u64).or_default();
        let mut start = clock;
        for &(ilo, ihi, release) in history.iter() {
            if ilo < hi && lo < ihi {
                start = start.max(release);
            }
        }
        self.stats[c].lock_wait_ns += start - clock;
        self.clocks[c] = start;
    }

    fn range_lock_release(&mut self, addr: usize, lo: u64, hi: u64) {
        let c = self.cur;
        let clock = self.clocks[c];
        let min_clock = self.clocks.iter().copied().min().unwrap_or(0);
        let history = self.ranges.entry(addr as u64).or_default();
        // An interval released at or before every core's clock can no
        // longer delay anyone: prune it.
        history.retain(|&(_, _, r)| r > min_clock);
        history.push((lo, hi, clock));
    }

    fn ipi_round(&mut self, targets: CoreSet) {
        let sender = self.cur;
        let mut send_t = self.clocks[sender];
        let mut finish = send_t;
        for tgt in targets.iter() {
            let issue = send_t.max(self.apic_busy);
            send_t = issue + IPI_SEND_NS;
            self.apic_busy = issue + IPI_BUS_NS;
            let arrival = send_t;
            let done = self.clocks[tgt].max(arrival) + IPI_HANDLE_NS;
            if tgt != sender {
                self.clocks[tgt] = done;
                self.stats[tgt].ipis_received += 1;
            }
            finish = finish.max(done);
        }
        self.stats[sender].ipis_sent += targets.len() as u64;
        // The sender waits for all acknowledgements.
        self.clocks[sender] = send_t.max(finish);
    }

    fn snapshot(&self) -> SimStats {
        SimStats {
            clocks: self.clocks.clone(),
            cores: self.stats.clone(),
        }
    }
}

thread_local! {
    static SIM: Cell<*mut SimCtx> = const { Cell::new(std::ptr::null_mut()) };
}

/// Runs `f` with the installed context, or returns `None` when simulation
/// is inactive on this thread.
///
/// All simulator entry points are leaf functions that never re-enter user
/// code, so handing out a unique `&mut SimCtx` here is sound.
#[inline]
fn with_ctx<R>(f: impl FnOnce(&mut SimCtx) -> R) -> Option<R> {
    SIM.with(|c| {
        let p = c.get();
        if p.is_null() {
            None
        } else {
            // SAFETY: `p` was installed by `install` on this thread and is
            // only dereferenced from these leaf entry points, which never
            // nest (no callbacks into user code while borrowed).
            Some(f(unsafe { &mut *p }))
        }
    })
}

/// RAII guard for an installed simulator context.
///
/// Dropping the guard uninstalls and frees the context. Use
/// [`SimGuard::finish`] to retrieve final statistics.
pub struct SimGuard {
    ptr: *mut SimCtx,
}

impl SimGuard {
    /// Consumes the guard, uninstalls the context, and returns final stats.
    pub fn finish(self) -> SimStats {
        // SAFETY: `self.ptr` was produced by `Box::into_raw` in `install`
        // and ownership is unique to this guard; `drop` is skipped via
        // `mem::forget`, so the box is reconstructed exactly once.
        let ctx = unsafe { Box::from_raw(self.ptr) };
        SIM.with(|c| c.set(std::ptr::null_mut()));
        let stats = ctx.snapshot();
        std::mem::forget(self);
        stats
    }
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        SIM.with(|c| c.set(std::ptr::null_mut()));
        // SAFETY: unique ownership as in `finish`; `finish` forgets `self`
        // so we cannot double-free.
        drop(unsafe { Box::from_raw(self.ptr) });
    }
}

/// Installs a simulator context for `ncores` virtual cores on this thread.
///
/// # Panics
///
/// Panics if a context is already installed on this thread.
pub fn install(ncores: usize, model: CostModel) -> SimGuard {
    // Refuse before taking the context apart from its box, which a panic
    // afterwards would leak.
    assert!(!active(), "simulator already installed on this thread");
    let ptr = Box::into_raw(Box::new(SimCtx::new(ncores, model)));
    SIM.with(|c| c.set(ptr));
    SimGuard { ptr }
}

/// Returns true if a simulator context is installed on this thread.
#[inline]
pub fn active() -> bool {
    SIM.with(|c| !c.get().is_null())
}

/// Switches the current virtual core.
#[inline]
pub fn switch(core: usize) {
    with_ctx(|s| {
        debug_assert!(core < s.ncores);
        s.cur = core;
    });
}

/// Returns the current virtual core id (0 when inactive).
#[inline]
pub fn current_core() -> usize {
    with_ctx(|s| s.cur).unwrap_or(0)
}

/// Returns the virtual clock of `core` (0 when inactive).
pub fn clock(core: usize) -> u64 {
    with_ctx(|s| s.clocks[core]).unwrap_or(0)
}

/// Charges `ns` of private work to the current core.
#[inline]
pub fn charge(ns: u64) {
    with_ctx(|s| {
        let c = s.cur;
        s.clocks[c] += ns;
        s.stats[c].charged_ns += ns;
    });
}

/// Charges [`OP_BASE_NS`], the fixed per-operation base cost, to the
/// current core.
#[inline]
pub fn charge_op_base() {
    charge(OP_BASE_NS);
}

/// Charges [`PAGE_WORK_NS`] (zeroing / filling a 4 KB page).
#[inline]
pub fn charge_page_work() {
    charge(PAGE_WORK_NS);
}

/// Charges [`PAGE_WORK_NS`] for a page homed on node `home_node`, plus
/// [`PAGE_HOP_NS`] per hop when the current core sits on a different
/// node. On one node this is [`charge_page_work`].
#[inline]
pub fn charge_page_work_homed(home_node: usize) {
    with_ctx(|s| {
        let c = s.cur;
        let cost = PAGE_WORK_NS + PAGE_HOP_NS * hops(home_node, node_of(c, s.nnodes));
        s.clocks[c] += cost;
        s.stats[c].charged_ns += cost;
    });
}

/// Registers `[start, start + bytes)` as replicated read-only: every node
/// holds a local replica, so reads never pay hop distance, but a write
/// that invalidates sharers pays a broadcast to every other node (and
/// records one cross-node event per remote node). Resolved when a line
/// entry is first created; lines already touched keep their placement,
/// and address reuse carries the registration until [`unplace_range`].
/// Used for hot radix index nodes under the replicate-read-only
/// placement policy. No-op when simulation is inactive.
pub fn place_replicated(start: usize, bytes: usize) {
    with_ctx(|s| {
        s.placed.push(PlacedRange {
            lo_line: start as u64 >> 6,
            hi_line: ((start + bytes) as u64).div_ceil(64),
        });
    });
}

/// Removes placement registrations fully contained in
/// `[start, start + bytes)`. Called by owners on free so address reuse
/// does not inherit stale placement.
pub fn unplace_range(start: usize, bytes: usize) {
    with_ctx(|s| {
        let lo = start as u64 >> 6;
        let hi = ((start + bytes) as u64).div_ceil(64);
        s.placed.retain(|r| !(lo <= r.lo_line && r.hi_line <= hi));
    });
}

/// Removes label registrations fully contained in `[start, start + bytes)`
/// (the inverse of [`label_range`], for owners whose memory is freed and
/// reused while the simulator is active). The transfers the range's
/// lines served so far stay with the label they were served under.
pub fn unlabel_range(start: usize, bytes: usize) {
    with_ctx(|s| {
        let lo = start as u64 >> 6;
        let hi = ((start + bytes) as u64).div_ceil(64);
        s.retire(lo, hi);
        s.labels.retain(|r| !(lo <= r.lo_line && r.hi_line <= hi));
    });
}

/// Charges [`ALLOC_NS`], one heap allocation, to the current core and
/// counts the allocation. Called by hot-path code that allocates
/// (node expansion, Refcache object allocation, `InlineVec` spill) so
/// allocation-free fast paths are rewarded in virtual time.
#[inline]
pub fn charge_alloc() {
    with_ctx(|s| {
        let c = s.cur;
        s.clocks[c] += ALLOC_NS;
        s.stats[c].charged_ns += ALLOC_NS;
        s.stats[c].heap_allocs += 1;
    });
}

/// Advances the current core's clock to at least `t` (idle waiting).
#[inline]
pub fn advance_to(t: u64) {
    with_ctx(|s| {
        let c = s.cur;
        s.clocks[c] = s.clocks[c].max(t);
    });
}

/// Reports a read of the cache line containing `addr`.
#[inline]
pub fn on_read(addr: usize) {
    with_ctx(|s| s.on_read(addr));
}

/// Reports a plain write of the cache line containing `addr`.
#[inline]
pub fn on_write(addr: usize) {
    with_ctx(|s| s.on_write(addr));
}

/// Reports a locked read-modify-write (swap, compare-exchange, `fetch_*`,
/// spin-lock acquire) of the cache line containing `addr`: the same line
/// event as [`on_write`], also counted in [`CoreStats::rmws`].
#[inline]
pub fn on_rmw(addr: usize) {
    with_ctx(|s| s.on_rmw(addr));
}

/// Reports a lock acquisition; blocks the virtual clock until available.
#[inline]
pub fn lock_acquire(addr: usize, kind: LockKind) {
    with_ctx(|s| s.lock_acquire(addr, kind));
}

/// Reports a lock release.
#[inline]
pub fn lock_release(addr: usize, kind: LockKind) {
    with_ctx(|s| s.lock_release(addr, kind));
}

/// Reports acquisition of `[lo, hi)` on the range lock identified by
/// `addr`; advances the virtual clock past the latest release of any
/// overlapping interval (and charges the wait as lock wait time).
/// Disjoint intervals never wait. See [`crate::rangelock`].
#[inline]
pub fn range_lock_acquire(addr: usize, lo: u64, hi: u64) {
    with_ctx(|s| s.range_lock_acquire(addr, lo, hi));
}

/// Reports release of `[lo, hi)` on the range lock identified by `addr`,
/// recording the current clock as the interval's release time.
#[inline]
pub fn range_lock_release(addr: usize, lo: u64, hi: u64) {
    with_ctx(|s| s.range_lock_release(addr, lo, hi));
}

/// Delivers a round of shootdown IPIs from the current core to `targets`,
/// waiting for acknowledgements.
#[inline]
pub fn ipi_round(targets: CoreSet) {
    with_ctx(|s| s.ipi_round(targets));
}

/// Registers `[start, start + bytes)` under a named category for
/// remote-transfer attribution. Ranges are registered once per
/// allocation by the structure that owns the memory (e.g. the frame
/// pool labels each frame-table chunk as `"frame-table"`); unclaimed
/// lines report as [`UNLABELED`]. A transfer counts under the label its
/// line had when it happened: what the range served before this call
/// stays with its old label. No-op when simulation is inactive.
pub fn label_range(label: &'static str, start: usize, bytes: usize) {
    with_ctx(|s| {
        let lo_line = start as u64 >> 6;
        let hi_line = ((start + bytes) as u64).div_ceil(64);
        s.retire(lo_line, hi_line);
        s.labels.push(LabeledRange {
            lo_line,
            hi_line,
            label,
        });
    });
}

/// Total remote transfers per registered category, sorted descending
/// ([`UNLABELED`] collects everything no structure claimed): each
/// transfer under the label its line had when it happened, so a total
/// only ever grows.
pub fn remote_transfers_by_label() -> Vec<(&'static str, u64)> {
    with_ctx(|s| {
        let mut totals: Vec<(&'static str, u64)> = s
            .retired
            .iter()
            .filter(|r| r.transfers > 0)
            .map(|r| (r.label, r.transfers))
            .collect();
        for (addr, l) in s.lines.iter() {
            if l.transfers == 0 {
                continue;
            }
            let label = s.label_of(*addr);
            match totals.iter_mut().find(|(n, _)| *n == label) {
                Some(e) => e.1 += l.transfers,
                None => totals.push((label, l.transfers)),
            }
        }
        totals.sort_by_key(|x| std::cmp::Reverse(x.1));
        totals
    })
    .unwrap_or_default()
}

/// Cross-node transfers per registered category, as a flattened
/// `nnodes × nnodes` source→destination matrix per label, sorted by total
/// descending. Only transfers priced at non-zero hop distance are
/// counted, so the result is empty on a one-node machine — this is
/// the *where does cross-socket traffic live* view of
/// [`remote_transfers_by_label`].
pub fn cross_node_transfers_by_label() -> Vec<(&'static str, Vec<u64>)> {
    with_ctx(|s| {
        let mut totals: Vec<(&'static str, Vec<u64>)> = s
            .retired
            .iter()
            .filter(|r| r.cross.iter().any(|&v| v > 0))
            .map(|r| (r.label, r.cross.to_vec()))
            .collect();
        for (addr, m) in s.cross.iter() {
            let label = s.label_of(*addr);
            match totals.iter_mut().find(|(n, _)| *n == label) {
                Some(e) => {
                    for (acc, v) in e.1.iter_mut().zip(m.iter()) {
                        *acc += v;
                    }
                }
                None => totals.push((label, m.to_vec())),
            }
        }
        totals.sort_by_key(|x| std::cmp::Reverse(x.1.iter().sum::<u64>()));
        totals
    })
    .unwrap_or_default()
}

/// Takes a snapshot of the simulator statistics.
pub fn stats() -> SimStats {
    with_ctx(|s| s.snapshot()).unwrap_or_default()
}

/// Returns the id of the core with the smallest virtual clock; drive this
/// core next for a conservative round-robin schedule.
pub fn min_clock_core() -> usize {
    with_ctx(|s| {
        let mut best = 0;
        for c in 1..s.ncores {
            if s.clocks[c] < s.clocks[best] {
                best = c;
            }
        }
        best
    })
    .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_hooks_are_noops() {
        assert!(!active());
        on_read(0x1000);
        on_write(0x1000);
        charge(10);
        assert_eq!(stats().clocks.len(), 0);
    }

    #[test]
    fn install_and_clock_advance() {
        let g = install(4, CostModel::default());
        switch(2);
        charge(100);
        assert_eq!(clock(2), 100);
        assert_eq!(clock(0), 0);
        let st = g.finish();
        assert_eq!(st.clocks[2], 100);
        assert!(!active());
    }

    #[test]
    #[should_panic(expected = "already installed")]
    fn double_install_panics() {
        let _g = install(1, CostModel::default());
        let _g2 = install(1, CostModel::default());
    }

    #[test]
    fn local_vs_remote_costs() {
        let g = install(2, CostModel::default());
        let addr = 0x4000usize;
        switch(0);
        on_write(addr); // cold
        on_write(addr); // local
        assert_eq!(clock(0), COLD_NS + LOCAL_NS);
        switch(1);
        on_read(addr); // remote transfer from core 0's modified copy
        assert!(clock(1) >= REMOTE_NS);
        let st = g.finish();
        assert_eq!(st.cores[0].cold_misses, 1);
        assert_eq!(st.cores[0].local_hits, 1);
        assert_eq!(st.cores[1].remote_transfers, 1);
    }

    #[test]
    fn read_sharing_is_parallel_but_write_invalidates() {
        let g = install(8, CostModel::default());
        let addr = 0x8000usize;
        switch(0);
        on_write(addr);
        // All cores read: first pays the downgrade, rest fetch shared.
        for c in 1..8 {
            switch(c);
            on_read(addr);
        }
        // Re-reads are local.
        for c in 1..8 {
            switch(c);
            on_read(addr);
        }
        let st_mid = stats();
        for c in 1..8 {
            assert_eq!(st_mid.cores[c].remote_transfers, 1, "core {c}");
            assert_eq!(st_mid.cores[c].local_hits, 1, "core {c}");
        }
        // A write by core 0 invalidates all 7 sharers.
        switch(0);
        on_write(addr);
        let st = g.finish();
        assert_eq!(st.cores[0].invalidations, 7);
    }

    #[test]
    fn line_transfers_serialize() {
        // Many cores writing one line queue behind the home node.
        let n = 8;
        let g = install(n, CostModel::default());
        let addr = 0xC000usize;
        for round in 0..10 {
            for c in 0..n {
                switch(c);
                on_write(addr);
                let _ = round;
            }
        }
        let st = g.finish();
        // 80 serialized transfers must span at least 79 service windows.
        assert!(st.max_clock() >= LINE_SERVICE_NS * 79);
        // Distinct lines would not serialize: compare.
        let g2 = install(n, CostModel::default());
        for _round in 0..10 {
            for c in 0..n {
                switch(c);
                on_write(0x10000 + c * 64); // per-core line, reused each round
            }
        }
        let st2 = g2.finish();
        assert!(st2.max_clock() < st.max_clock() / 4);
    }

    #[test]
    fn exclusive_lock_serializes_virtual_time() {
        let g = install(4, CostModel::default());
        let lock_addr = 0x2000usize;
        for c in 0..4 {
            switch(c);
            lock_acquire(lock_addr, LockKind::Exclusive);
            charge(1_000); // hold for 1 µs of work
            lock_release(lock_addr, LockKind::Exclusive);
        }
        let st = g.finish();
        // Core 3 must have waited behind the three earlier holders.
        assert!(st.clocks[3] >= 4_000);
        assert!(st.cores[3].lock_wait_ns >= 2_900);
    }

    #[test]
    fn shared_lock_does_not_serialize_holders() {
        let g = install(4, CostModel::default());
        let lock_addr = 0x3000usize;
        for c in 0..4 {
            switch(c);
            lock_acquire(lock_addr, LockKind::Shared);
            charge(1_000);
            lock_release(lock_addr, LockKind::Shared);
        }
        let st = g.finish();
        // Readers overlap: no core waited 3 ms. (They still pay for the
        // lock word's cache line, which is the rwlock scaling story.)
        for c in 0..4 {
            assert!(st.cores[c].lock_wait_ns == 0, "core {c} waited");
        }
        // But a subsequent writer waits for the last reader.
        drop(st);
        let g = install(2, CostModel::default());
        switch(0);
        lock_acquire(lock_addr, LockKind::Shared);
        charge(5_000);
        lock_release(lock_addr, LockKind::Shared);
        switch(1);
        lock_acquire(lock_addr, LockKind::Exclusive);
        let st = g.finish();
        assert!(st.clocks[1] >= 5_000);
    }

    #[test]
    fn labeled_ranges_attribute_remote_transfers() {
        let g = install(2, CostModel::default());
        let table_base = 0x10_0000usize;
        label_range("frame-table", table_base, 4096);
        // One transfer inside the labeled range, one outside.
        switch(0);
        on_write(table_base + 128);
        on_write(0x20_0000);
        switch(1);
        on_read(table_base + 128);
        on_read(0x20_0000);
        let by_cat = remote_transfers_by_label();
        assert_eq!(by_cat.len(), 2);
        assert!(by_cat.iter().any(|&(l, t)| l == "frame-table" && t == 1));
        assert!(by_cat.iter().any(|&(l, t)| l == UNLABELED && t == 1));
        drop(g);
        assert!(remote_transfers_by_label().is_empty(), "inactive: empty");
    }

    #[test]
    fn ipi_round_charges_sender_and_targets() {
        let g = install(4, CostModel::default());
        switch(0);
        let mut set = CoreSet::EMPTY;
        set.insert(1);
        set.insert(2);
        ipi_round(set);
        let st = g.finish();
        assert_eq!(st.cores[0].ipis_sent, 2);
        assert_eq!(st.cores[1].ipis_received, 1);
        assert_eq!(st.cores[2].ipis_received, 1);
        assert_eq!(st.cores[3].ipis_received, 0);
        assert!(st.clocks[0] >= 2 * IPI_SEND_NS + IPI_HANDLE_NS);
        assert!(st.clocks[1] >= IPI_SEND_NS + IPI_HANDLE_NS);
    }

    #[test]
    fn range_lock_overlap_serializes_disjoint_does_not() {
        let g = install(3, CostModel::default());
        let addr = 0x5000usize;
        switch(0);
        range_lock_acquire(addr, 0, 100);
        charge(1_000);
        range_lock_release(addr, 0, 100);
        // Core 1 overlaps the released interval: waits until its release.
        switch(1);
        range_lock_acquire(addr, 50, 150);
        assert!(clock(1) >= 1_000, "clock {}", clock(1));
        charge(1_000);
        range_lock_release(addr, 50, 150);
        // Core 2's range is disjoint from both: no wait at all.
        switch(2);
        range_lock_acquire(addr, 200, 300);
        assert_eq!(clock(2), 0);
        range_lock_release(addr, 200, 300);
        let st = g.finish();
        assert!(st.cores[1].lock_wait_ns >= 1_000);
        assert_eq!(st.cores[2].lock_wait_ns, 0);
    }

    #[test]
    fn range_lock_history_is_pruned() {
        let g = install(2, CostModel::default());
        let addr = 0x6000usize;
        // Advance both cores past the release times so old intervals
        // become unreachable and get pruned at the next release.
        for round in 0..100u64 {
            for c in 0..2 {
                switch(c);
                range_lock_acquire(addr, round, round + 1);
                charge(10);
                range_lock_release(addr, round, round + 1);
            }
        }
        let n = with_ctx(|s| s.ranges[&(addr as u64)].len()).unwrap();
        assert!(n < 10, "history grew without bound: {n}");
        drop(g);
    }

    #[test]
    fn empty_ipi_round_is_free() {
        let g = install(2, CostModel::default());
        switch(0);
        ipi_round(CoreSet::EMPTY);
        let st = g.finish();
        assert_eq!(st.clocks[0], 0);
        assert_eq!(st.cores[0].ipis_sent, 0);
    }

    #[test]
    fn flat_topology_records_no_cross_node_events() {
        let g = install(4, CostModel::default());
        let addr = 0x9000usize;
        for c in 0..4 {
            switch(c);
            on_write(addr);
            on_read(addr);
        }
        assert!(cross_node_transfers_by_label().is_empty());
        drop(g);
    }

    #[test]
    fn distance_prices_cross_node_fetches() {
        let g = install(4, CostModel::new(4)); // core c sits on node c
        let addr = 0xA000usize;
        switch(0);
        on_write(addr); // cold at node 0 (first touch homes it there)
        assert_eq!(clock(0), COLD_NS);
        switch(1);
        on_read(addr); // dirty data from core 0: 1 hop
        assert_eq!(clock(1), REMOTE_NS + HOP_NS);
        switch(3);
        on_read(addr); // clean data from home node 0: 3 hops
        assert_eq!(clock(3), REMOTE_NS + 3 * HOP_NS);
        let cross = cross_node_transfers_by_label();
        assert_eq!(cross.len(), 1);
        let (label, matrix) = &cross[0];
        assert_eq!(*label, UNLABELED);
        assert_eq!(matrix[1], 1, "node0 -> node1"); // [0][1]
        assert_eq!(matrix[3], 1, "node0 -> node3"); // [0][3]
        assert_eq!(matrix.iter().sum::<u64>(), 2);
        drop(g);
    }

    #[test]
    fn replicated_lines_read_local_write_broadcast() {
        let g = install(4, CostModel::new(4));
        let addr = 0xC800usize;
        label_range("radix-index", addr, 64);
        place_replicated(addr, 64);
        switch(0);
        on_write(addr); // cold fill, local replica
                        // Readers on remote nodes pay no hop distance.
        switch(1);
        on_read(addr);
        assert_eq!(clock(1), REMOTE_NS);
        switch(3);
        on_read(addr);
        assert_eq!(clock(3), REMOTE_NS);
        assert!(
            cross_node_transfers_by_label().is_empty(),
            "reads are local"
        );
        // An invalidating write broadcasts to every other node.
        switch(0);
        let before = clock(0);
        on_write(addr);
        // 2 sharers invalidated; broadcast = hops to nodes 1,2,3 = 1+2+3.
        assert_eq!(
            clock(0),
            before + REMOTE_NS + 2 * INVAL_PER_SHARER_NS + 6 * HOP_NS
        );
        let cross = cross_node_transfers_by_label();
        assert_eq!(cross.len(), 1);
        let (label, matrix) = &cross[0];
        assert_eq!(*label, "radix-index");
        assert_eq!(matrix.iter().sum::<u64>(), 3, "one event per remote node");
        // The events stay with the label they happened under.
        unlabel_range(addr, 64);
        assert_eq!(cross_node_transfers_by_label(), cross);
        drop(g);
    }

    #[test]
    fn a_transfer_keeps_the_label_its_line_had_when_it_happened() {
        let g = install(2, CostModel::new(2));
        let addr = 0xD000usize;
        let bounce = || {
            for c in [0, 1] {
                switch(c);
                on_write(addr);
            }
        };
        bounce(); // a cold miss, then one transfer: unlabeled
        label_range("radix-leaf", addr, 4096);
        bounce();
        bounce();
        // The memory changes hands.
        unlabel_range(addr, 4096);
        label_range("page-table", addr, 4096);
        bounce();
        let by_label = remote_transfers_by_label();
        assert_eq!(
            by_label,
            [("radix-leaf", 4), ("page-table", 2), (UNLABELED, 1)]
        );
        let cross = cross_node_transfers_by_label();
        let total = |label| {
            cross
                .iter()
                .find(|c| c.0 == label)
                .map(|c| c.1.iter().sum::<u64>())
        };
        assert_eq!(total("radix-leaf"), Some(4));
        assert_eq!(total(UNLABELED), Some(1));
        assert_eq!(total("page-table"), Some(2));
        // The line itself counts from its last relabeling: handing it
        // back moves none of page-table's transfers.
        unlabel_range(addr, 4096);
        label_range("radix-leaf", addr, 4096);
        bounce();
        assert_eq!(
            remote_transfers_by_label(),
            [("radix-leaf", 6), ("page-table", 2), (UNLABELED, 1)]
        );
        drop(g);
    }

    #[test]
    fn page_work_homed_prices_hops() {
        let (pw, ph) = (PAGE_WORK_NS, PAGE_HOP_NS);
        let g = install(2, CostModel::new(2));
        switch(0);
        charge_page_work_homed(0); // on-node
        assert_eq!(clock(0), pw);
        charge_page_work_homed(1); // 1 hop away
        assert_eq!(clock(0), 2 * pw + ph);
        let st = g.finish();
        assert_eq!(st.cores[0].charged_ns, 2 * pw + ph);
    }
}
