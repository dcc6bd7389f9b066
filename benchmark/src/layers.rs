//! The benchmark's API footprint: every call into the repository's
//! crates is in this file, so a later signature change is a one-file
//! fix and README.md can list exactly what the yardstick depends on.
//!
//! Four groups: [`Env`] (one machine + one RadixVM address space, the
//! calls every workload op makes), [`Counters`] (the stats structs read
//! at the same boundaries), [`Sim`] (the virtual-time simulator), and the
//! single-layer probe bodies at the bottom.

use std::hint::black_box;
use std::sync::Arc;

use rvm_backend::{build, BackendKind};
use rvm_core::RadixVm;
use rvm_hw::{Backing, Machine, MapFlags, PageTable, Prot, Pte, VmSystem};
use rvm_mem::{FramePool, BLOCK_ORDER};
use rvm_metis::{Metis, MetisConfig, Step, VmArena};
use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::{Managed, Refcache, ReleaseCtx};
use rvm_sync::{sim, CoreSet, CostModel, RangeLock, SimGuard};

pub use rvm_hw::PAGE_SIZE;
/// Pages per superpage block (2 MiB).
pub const BLOCK_PAGES: u64 = rvm_hw::BLOCK_PAGES;
/// Exclusive upper bound of user virtual addresses.
pub const VA_LIMIT: u64 = rvm_hw::VA_LIMIT;

/// One simulated machine and one RadixVM address space on it
/// (`BackendKind::Radix`, default configuration), every core attached.
pub struct Env {
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    asid: u32,
}

impl Env {
    pub fn new(ncores: usize) -> Env {
        let machine = Machine::new(ncores);
        let vm = build(&machine, BackendKind::Radix);
        for core in 0..ncores {
            vm.attach_core(core);
        }
        let asid = vm.asid();
        Env { machine, vm, asid }
    }

    #[inline]
    pub fn mmap(&self, core: usize, addr: u64, len: u64) -> bool {
        self.vm
            .mmap(core, addr, len, Prot::RW, Backing::Anon)
            .is_ok()
    }

    /// `mmap` with the huge-page hint.
    #[inline]
    pub fn mmap_huge(&self, core: usize, addr: u64, len: u64) -> bool {
        self.vm
            .mmap_flags(core, addr, len, Prot::RW, Backing::Anon, MapFlags::HUGE)
            .is_ok()
    }

    #[inline]
    pub fn munmap(&self, core: usize, addr: u64, len: u64) -> bool {
        self.vm.munmap(core, addr, len).is_ok()
    }

    #[inline]
    pub fn maintain(&self, core: usize) {
        self.vm.maintain(core);
    }

    /// Writes a whole page through the access path.
    #[inline]
    pub fn touch_page(&self, core: usize, addr: u64, byte: u8) -> bool {
        self.machine.touch_page(core, &*self.vm, addr, byte).is_ok()
    }

    #[inline]
    pub fn write_u64(&self, core: usize, addr: u64, val: u64) -> bool {
        self.machine.write_u64(core, &*self.vm, addr, val).is_ok()
    }

    #[inline]
    pub fn read_u64(&self, core: usize, addr: u64) -> Option<u64> {
        self.machine.read_u64(core, &*self.vm, addr).ok()
    }

    /// Drops `core`'s own TLB entry for the page at `addr` (no IPI).
    #[inline]
    pub fn invalidate_local(&self, core: usize, addr: u64) {
        self.machine
            .invalidate_local(core, self.asid, addr / PAGE_SIZE, 1);
    }

    /// Drains deferred reclamation and returns the frames still
    /// allocated; 0 once everything is unmapped.
    pub fn quiesce_outstanding(&self) -> u64 {
        self.vm.quiesce();
        self.machine.pool().outstanding_frames()
    }

    /// Snapshot of every counter the benchmark reads.
    pub fn counters(&self) -> Counters {
        let op = self.vm.op_stats();
        let mach = self.machine.stats();
        let pool = self.machine.pool().stats();
        let radix = self
            .vm
            .as_any()
            .downcast_ref::<RadixVm>()
            .expect("BackendKind::Radix builds a RadixVm");
        let tree = radix.tree_stats();
        let rc = radix.cache().stats();
        Counters {
            mmaps: op.mmaps,
            munmaps: op.munmaps,
            faults_alloc: op.faults_alloc,
            faults_fill: op.faults_fill,
            superpage_installs: op.superpage_installs,
            superpage_demotions: op.superpage_demotions,
            superpage_promotions: op.superpage_promotions,
            block_fallbacks: op.block_fallbacks,
            oom_faults: op.oom_faults,
            hint_hits: tree.hint_hits(),
            hint_misses: tree.hint_misses(),
            slot_spins: tree.slot_spins(),
            guard_spills: tree.guard_spills(),
            tlb_hits: mach.tlb_hits,
            tlb_misses: mach.tlb_misses,
            ipis: mach.shootdown_ipis,
            shootdown_rounds: mach.shootdown_rounds,
            pool_fresh: pool.fresh,
            pool_reused: pool.reused,
            magazine_flushes: pool.magazine_flushes,
            block_allocs: pool.block_allocs,
            rc_flushes: rc.flushes,
            rc_dirty_zeros: rc.dirty_zeros,
            rc_conflicts: rc.conflicts,
        }
    }
}

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters of one [`Env`], flattened from `op_stats()`,
        /// `Machine::stats()`, `tree_stats()`, `FramePool::stats()` and
        /// `Refcache::stats()`.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            /// Counts accumulated since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.wrapping_sub(earlier.$field)),* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field),* }
            }
        }
    };
}

counters!(
    mmaps,
    munmaps,
    faults_alloc,
    faults_fill,
    superpage_installs,
    superpage_demotions,
    superpage_promotions,
    block_fallbacks,
    oom_faults,
    hint_hits,
    hint_misses,
    slot_spins,
    guard_spills,
    tlb_hits,
    tlb_misses,
    ipis,
    shootdown_rounds,
    pool_fresh,
    pool_reused,
    magazine_flushes,
    block_allocs,
    rc_flushes,
    rc_dirty_zeros,
    rc_conflicts,
);

/// Outcome of one Metis scheduling quantum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    Worked,
    Idle,
    Done,
}

/// Totals of a finished Metis job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetisTotals {
    pub pairs: u64,
    pub distinct_words: u64,
    pub outputs: u64,
    pub mmaps: u64,
}

/// A word-position-index MapReduce job over `env`, in the mmap-heavy
/// Figure 4 configuration: 64 KiB allocation unit (`block_pages = 16`).
pub struct MetisJob {
    job: Metis,
}

impl MetisJob {
    /// The engine seeds its own per-worker word streams, so a job's
    /// input depends only on `workers` and `words`.
    pub fn new(env: &Env, workers: usize, words: u64) -> MetisJob {
        let arena = Arc::new(VmArena::new(env.machine.clone(), env.vm.clone(), 16));
        let cfg = MetisConfig {
            workers,
            total_words: words,
            chunk: 512,
            hot_vocab: 1_000,
            cold_vocab: 65_536,
        };
        MetisJob {
            job: Metis::new(arena, cfg),
        }
    }

    #[inline]
    pub fn step(&self, core: usize) -> StepOutcome {
        match self.job.step(core) {
            Step::Worked => StepOutcome::Worked,
            Step::Idle => StepOutcome::Idle,
            Step::Done => StepOutcome::Done,
        }
    }

    pub fn done(&self) -> bool {
        self.job.done()
    }

    pub fn totals(&self) -> MetisTotals {
        let s = self.job.stats();
        MetisTotals {
            pairs: s.pairs,
            distinct_words: s.distinct_words,
            outputs: s.outputs,
            mmaps: s.mmaps,
        }
    }
}

/// Simulator totals since installation.
#[derive(Clone, Debug, Default)]
pub struct SimTotals {
    /// The slowest core's clock: the run's virtual wall-clock, ns.
    pub max_clock: u64,
    /// Sum of all core clocks, ns.
    pub clock_sum: u64,
    pub remote_lines: u64,
    pub ipis: u64,
    pub lock_wait_ns: u64,
    pub heap_allocs: u64,
    /// Remote line transfers per owner label (`"heap"` = unlabelled).
    pub remote_by_label: Vec<(&'static str, u64)>,
}

impl SimTotals {
    pub fn since(&self, earlier: &SimTotals) -> SimTotals {
        let label_before = |l: &str| {
            earlier
                .remote_by_label
                .iter()
                .find(|(n, _)| *n == l)
                .map_or(0, |(_, v)| *v)
        };
        SimTotals {
            max_clock: self.max_clock - earlier.max_clock,
            clock_sum: self.clock_sum - earlier.clock_sum,
            remote_lines: self.remote_lines - earlier.remote_lines,
            ipis: self.ipis - earlier.ipis,
            lock_wait_ns: self.lock_wait_ns - earlier.lock_wait_ns,
            heap_allocs: self.heap_allocs - earlier.heap_allocs,
            remote_by_label: self
                .remote_by_label
                .iter()
                .map(|(l, v)| (*l, v - label_before(l)))
                .collect(),
        }
    }
}

/// The virtual-time simulator, installed on the calling thread with the
/// default cost model until dropped.
pub struct Sim {
    _guard: SimGuard,
    ncores: usize,
}

impl Sim {
    pub fn install(ncores: usize) -> Sim {
        Sim {
            _guard: sim::install(ncores, CostModel::default()),
            ncores,
        }
    }

    /// Makes `core` the virtual core that subsequent calls run on.
    #[inline]
    pub fn switch(&self, core: usize) {
        sim::switch(core);
    }

    #[inline]
    pub fn clock(&self, core: usize) -> u64 {
        sim::clock(core)
    }

    /// Charges `ns` of private work to the current core.
    #[inline]
    pub fn charge(&self, ns: u64) {
        sim::charge(ns);
    }

    /// Brings every core's clock up to the slowest one's, so a measured
    /// section starts from a common instant; returns that instant.
    pub fn align_clocks(&self) -> u64 {
        let t = (0..self.ncores).map(sim::clock).max().unwrap_or(0);
        for core in 0..self.ncores {
            sim::switch(core);
            sim::advance_to(t);
        }
        t
    }

    pub fn totals(&self) -> SimTotals {
        let s = sim::stats();
        SimTotals {
            max_clock: s.max_clock(),
            clock_sum: s.clocks.iter().sum(),
            remote_lines: s.total_remote(),
            ipis: s.total_ipis(),
            lock_wait_ns: s.total_lock_wait_ns(),
            heap_allocs: s.cores.iter().map(|c| c.heap_allocs).sum(),
            remote_by_label: sim::remote_transfers_by_label(),
        }
    }
}

// ---- Layer probes -------------------------------------------------------
//
// Each function sets one layer up and returns the closure the probe
// harness times: one call (or call pair) of that layer's public
// functions, in the pattern the home workload induces. All single-core.

/// A boxed probe body.
pub type Probe = Box<dyn FnMut()>;

const PROBE_VPN: u64 = 0x70_0000_0000 >> 12;

fn probe_tree() -> (Arc<Refcache>, RadixTree<u64>) {
    let cache = Arc::new(Refcache::new(1));
    let tree = RadixTree::<u64>::new(cache.clone(), RadixConfig::default());
    (cache, tree)
}

/// `lock_range(ExpandAll).replace` + `lock_range(ExpandFolded).clear`
/// over `pages` pages, rotating through 64 slots of `pages` pages each
/// (a block-aligned 512-page range folds instead of expanding);
/// `Refcache::maintain` every 128 pairs, as the workloads tick it.
pub fn radix_map_unmap(pages: u64) -> Probe {
    let (cache, tree) = probe_tree();
    let mut i = 0u64;
    Box::new(move || {
        let lo = PROBE_VPN + (i % 64) * pages;
        i += 1;
        black_box(
            tree.lock_range(0, lo, lo + pages, LockMode::ExpandAll)
                .replace(&i),
        );
        black_box(
            tree.lock_range(0, lo, lo + pages, LockMode::ExpandFolded)
                .clear(),
        );
        if i.is_multiple_of(128) {
            cache.maintain(0);
        }
    })
}

/// The fault path's tree step: `lock_range(vpn, vpn + 1, ExpandFolded)`
/// and `page_value_mut` on a mapped page. `same_block` keeps consecutive
/// lookups in one leaf (the per-core leaf hint hits); otherwise they
/// alternate between two leaves (it misses).
pub fn radix_lock_single(same_block: bool) -> Probe {
    let (_cache, tree) = probe_tree();
    for vpn in PROBE_VPN..PROBE_VPN + 2 * BLOCK_PAGES {
        tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandAll)
            .replace(&vpn);
    }
    let mut i = 0u64;
    Box::new(move || {
        i += 1;
        let block = if same_block { 0 } else { i & 1 };
        let vpn = PROBE_VPN + block * BLOCK_PAGES + (i * 7) % BLOCK_PAGES;
        let mut guard = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
        black_box(guard.page_value_mut());
    })
}

struct Obj;

impl Managed for Obj {
    fn on_release(&mut self, _: &ReleaseCtx<'_>) {}
}

/// `Refcache::inc` + `dec` on one live object.
pub fn refcache_inc_dec() -> Probe {
    let cache = Refcache::new(1);
    let obj = cache.alloc(1, Obj);
    Box::new(move || {
        cache.inc(0, obj);
        cache.dec(0, obj);
    })
}

/// `Refcache::maintain` after 128 distinct cells were dirtied. Returns
/// `(dirty, maintain)`: the harness times only the second.
pub fn refcache_maintain() -> (Probe, Probe) {
    let cache = Arc::new(Refcache::new(1));
    let objs: Vec<_> = (0..128).map(|_| cache.alloc(1, Obj)).collect();
    let dirty_cache = cache.clone();
    (
        Box::new(move || {
            for &obj in &objs {
                dirty_cache.inc(0, obj);
                dirty_cache.dec(0, obj);
            }
        }),
        Box::new(move || cache.maintain(0)),
    )
}

/// `FramePool::try_alloc` + `free`.
pub fn mem_alloc_free() -> Probe {
    let pool = FramePool::new(1);
    Box::new(move || {
        let pfn = pool.try_alloc(0).expect("probe pool has no frame limit");
        pool.free(0, black_box(pfn));
    })
}

/// `FramePool::fill` of one 4 KiB frame.
pub fn mem_fill_page() -> Probe {
    let pool = FramePool::new(1);
    let pfn = pool.try_alloc(0).expect("probe pool has no frame limit");
    let mut byte = 0u8;
    Box::new(move || {
        byte = byte.wrapping_add(1);
        pool.fill(pfn, byte);
    })
}

/// `FramePool::try_alloc_block(9)` + `free_block` (512 contiguous frames).
pub fn mem_alloc_block_free() -> Probe {
    let pool = FramePool::new(1);
    Box::new(move || {
        let base = pool
            .try_alloc_block(0, BLOCK_ORDER)
            .expect("probe pool has no frame limit");
        pool.free_block(0, black_box(base), BLOCK_ORDER);
    })
}

/// `PageTable::set` + `clear` of one 4 KiB PTE, rotating through 64 pages.
pub fn pagetable_set_clear() -> Probe {
    let pt = PageTable::new();
    let mut i = 0u64;
    Box::new(move || {
        let vpn = PROBE_VPN + i % 64;
        i += 1;
        pt.set(vpn, Pte::new(i as u32 & 0xFFFF, true));
        black_box(pt.clear(vpn));
    })
}

/// `PageTable::get` over 512 populated PTEs.
pub fn pagetable_get() -> Probe {
    let pt = PageTable::new();
    for p in 0..BLOCK_PAGES {
        pt.set(PROBE_VPN + p, Pte::new(p as u32, true));
    }
    let mut i = 0u64;
    Box::new(move || {
        i += 1;
        black_box(pt.get(PROBE_VPN + (i * 7) % BLOCK_PAGES));
    })
}

/// `PageTable::set_block` + `shatter_block` on one 2 MiB block (the next
/// `set_block` reclaims the leaf the shatter made).
pub fn pagetable_set_block_shatter() -> Probe {
    let pt = PageTable::new();
    Box::new(move || {
        pt.set_block(PROBE_VPN, Pte::new_block(0, true));
        black_box(pt.shatter_block(PROBE_VPN));
    })
}

/// `Machine::invalidate_local` of one page.
pub fn tlb_invalidate() -> Probe {
    let env = Env::new(1);
    let mut i = 0u64;
    Box::new(move || {
        i += 1;
        env.invalidate_local(0, (PROBE_VPN + i % 64) * PAGE_SIZE);
    })
}

/// `Machine::read_u64` through a resident TLB entry.
pub fn tlb_hit() -> Probe {
    let env = Env::new(1);
    let addr = PROBE_VPN * PAGE_SIZE;
    assert!(env.mmap(0, addr, PAGE_SIZE) && env.write_u64(0, addr, 7));
    Box::new(move || {
        black_box(env.read_u64(0, addr));
    })
}

/// `Machine::shootdown` of 16 pages from core 0 to one remote core.
pub fn machine_shootdown() -> Probe {
    let env = Env::new(2);
    Box::new(move || {
        black_box(
            env.machine
                .shootdown(0, env.asid, PROBE_VPN, 16, CoreSet::single(1)),
        );
    })
}

/// `RangeLock::acquire` + `release` of disjoint 16-page ranges.
pub fn rangelock_acquire_release() -> Probe {
    let lock = RangeLock::new();
    let mut i = 0u64;
    Box::new(move || {
        let lo = (i % 64) * 16;
        i += 1;
        let token = lock.acquire(0, lo, lo + 16);
        lock.release(0, token);
    })
}
