//! Simulated multicore hardware: the machine, cores, TLBs, and the access
//! path connecting user memory operations to VM systems.
//!
//! A [`Machine`] bundles the physical [`FramePool`], one software [`Tlb`]
//! per core, ASID allocation, and the shootdown engine. VM systems — the
//! RadixVM core and the Linux/Bonsai baselines — implement [`VmSystem`]
//! and plug in underneath the same access path:
//!
//! ```text
//! workload op ──> Machine::write(core, vm, va)
//!                   │  TLB hit → frame access (generation-checked)
//!                   └─ TLB miss → vm.pagefault() → TLB fill
//! vm.munmap ──> Machine::shootdown(targets) → IPIs + remote TLB clears
//! ```
//!
//! Shootdowns are *sender-executed*: the munmapping core performs the
//! remote TLB invalidations itself while the simulator charges IPI
//! latencies to sender and targets (see DESIGN.md; delivery mechanics are
//! not what the paper measures — the number of cores contacted is). The
//! `rvm_sync::failpoint::SHOOTDOWN` site exists for failure injection:
//! a round it suppresses leaves stale TLB entries behind, and the
//! generation check converts the resulting silent use-after-free into a
//! detectable [`VmError::StaleTranslation`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use rvm_mem::{FramePool, FRAME_SIZE};
use rvm_sync::{
    failpoint, sharded_stats, sim, CachePadded, CoreCells, CoreLock, CoreLocks, CoreSet, SpinLock,
};

pub mod mmu;
pub mod pagetable;
pub mod tlb;

pub use mmu::{Mmu, MmuKind};
pub use pagetable::{PageTable, Pte, BLOCK_PAGES, GIANT_PAGES, SPAN_PAGES};
pub use rvm_mem::{OutOfMemory, Pfn, PlacementPolicy};
pub use tlb::{Tlb, TlbEntry};

/// Virtual address.
pub type Vaddr = u64;
/// Virtual page number.
pub type Vpn = u64;
/// Address-space identifier.
pub type Asid = u32;

/// Virtual address bits (x86-64 canonical user space).
pub const VA_BITS: usize = 48;
/// Virtual page number bits.
pub const VPN_BITS: usize = 36;
/// Page size in bytes (= frame size).
pub const PAGE_SIZE: u64 = FRAME_SIZE as u64;
/// log2(PAGE_SIZE).
pub const PAGE_SHIFT: u32 = 12;
/// Exclusive upper bound of user virtual addresses.
pub const VA_LIMIT: Vaddr = 1 << VA_BITS;

/// Converts an address to its page number.
#[inline]
pub fn vpn_of(va: Vaddr) -> Vpn {
    va >> PAGE_SHIFT
}

/// Validates an mmap/munmap/mprotect operation range: page-aligned,
/// non-empty, no overflow, within the canonical user address space.
/// Returns `(first VPN, page count)`. Shared by every backend so
/// `BadRange` semantics cannot drift between them.
pub fn check_range(addr: Vaddr, len: u64) -> VmResult<(Vpn, u64)> {
    if len == 0
        || !addr.is_multiple_of(PAGE_SIZE)
        || !len.is_multiple_of(PAGE_SIZE)
        || addr.checked_add(len).is_none()
        || addr + len > VA_LIMIT
    {
        return Err(VmError::BadRange);
    }
    Ok((vpn_of(addr), len / PAGE_SIZE))
}

/// Memory protection bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Prot(pub u8);

impl Prot {
    /// No access.
    pub const NONE: Prot = Prot(0);
    /// Readable.
    pub const READ: Prot = Prot(1);
    /// Readable and writable.
    pub const RW: Prot = Prot(3);

    /// Returns true if reads are permitted.
    #[inline]
    pub fn readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns true if writes are permitted.
    #[inline]
    pub fn writable(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether this protection permits an access of `kind`: `Ok`, or
    /// [`VmError::ProtViolation`] as the fault's error. Every backend
    /// checks a fault this way, at whatever granularity it resolves.
    #[inline]
    pub fn check(self, kind: AccessKind) -> VmResult<()> {
        let permitted = match kind {
            AccessKind::Read => self.readable(),
            AccessKind::Write => self.writable(),
        };
        permitted.then_some(()).ok_or(VmError::ProtViolation)
    }
}

/// Mapping flags: advisory hints a [`VmSystem::mmap_flags`] caller may
/// pass. Hints are semantics-preserving — a backend may honor or ignore
/// them; reads, protections, and errors are identical either way.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MapFlags(pub u8);

impl MapFlags {
    /// No hints.
    pub const NONE: MapFlags = MapFlags(0);
    /// Huge-page hint (`MAP_HUGETLB`-style): aligned [`BLOCK_PAGES`]
    /// blocks of the mapping are candidates for one superpage PTE backed
    /// by a physically contiguous frame block.
    pub const HUGE: MapFlags = MapFlags(1);

    /// Returns true if the huge-page hint is set.
    #[inline]
    pub fn huge(self) -> bool {
        self.0 & 1 != 0
    }
}

/// What backs a mapping.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Demand-zero anonymous memory.
    Anon,
    /// A (simulated) file: mapping metadata records `(file, page offset)`.
    File {
        /// File identifier.
        file: u32,
        /// Page offset of the mapping's start within the file.
        offset_pages: u64,
    },
}

impl Backing {
    /// The backing a mapping whose first page is `lo` records: a file
    /// offset re-anchored to VPN 0, so page `vpn` reads file page
    /// `offset_pages + vpn` (wrapping) and every page of the mapping
    /// carries identical metadata, which lets it fold (§3.2). `Anon` is
    /// returned unchanged.
    #[inline]
    pub fn anchored(self, lo: Vpn) -> Backing {
        match self {
            Backing::File { file, offset_pages } => Backing::File {
                file,
                offset_pages: offset_pages.wrapping_sub(lo),
            },
            b => b,
        }
    }
}

/// The kind of memory access being performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Errors surfaced by VM operations and the access path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// Address or length is malformed (unaligned, out of range, zero).
    BadRange,
    /// Access or operation on an unmapped address.
    NoMapping,
    /// Access violates the mapping's protection.
    ProtViolation,
    /// An access went through a stale TLB entry to a reused frame — the
    /// corruption TLB shootdown exists to prevent (failure injection).
    StaleTranslation,
    /// The operation is not supported by this VM system.
    Unsupported,
    /// Physical memory is exhausted: every tier of the frame pool's
    /// pressure protocol failed. The operation unwound exactly (no
    /// frames or locks leaked) and may be retried after memory is freed
    /// (DESIGN.md §11).
    OutOfMemory,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VmError::BadRange => "bad address range",
            VmError::NoMapping => "no mapping",
            VmError::ProtViolation => "protection violation",
            VmError::StaleTranslation => "stale TLB translation (missed shootdown)",
            VmError::Unsupported => "unsupported operation",
            VmError::OutOfMemory => "out of physical memory",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

impl From<rvm_mem::OutOfMemory> for VmError {
    fn from(_: rvm_mem::OutOfMemory) -> Self {
        VmError::OutOfMemory
    }
}

/// Result type for VM operations.
pub type VmResult<T> = Result<T, VmError>;

/// A translation produced by a page-fault handler, ready for TLB fill.
#[derive(Clone, Copy, Debug)]
pub struct Translation {
    /// Target frame.
    pub pfn: Pfn,
    /// Frame generation at mapping time.
    pub gen: u64,
    /// Whether stores are permitted.
    pub writable: bool,
}

/// Space consumed by a VM system's address-space structures (Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct SpaceUsage {
    /// Bytes of index metadata (VMA tree / radix tree, including per-page
    /// mapping metadata).
    pub index_bytes: u64,
    /// Bytes of hardware page tables.
    pub pagetable_bytes: u64,
}

impl SpaceUsage {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.index_bytes + self.pagetable_bytes
    }
}

sharded_stats! {
    /// Operation counters every VM system may report (the paper's §5.2
    /// numbers). Backends that do not track a counter leave it zero.
    pub struct OpStats {
        /// mmap invocations.
        mmaps: Exclusive<CoreLock>,
        /// munmap invocations.
        munmaps: Exclusive<CoreLock>,
        /// Faults that allocated a new physical page.
        faults_alloc: Exclusive<CoreLock>,
        /// Faults that only filled a translation (page already present).
        faults_fill: Exclusive<CoreLock>,
        /// Copy-on-write resolutions.
        faults_cow: Exclusive<CoreLock>,
        /// Superpage (block) PTE installs — faults that populated or filled
        /// a whole block with one entry.
        superpage_installs: Exclusive<CoreLock>,
        /// Superpage demotions (block PTE shattered into 4 KiB PTEs).
        superpage_demotions: Exclusive<CoreLock>,
        /// Frames installed by faults that were homed on the faulting core's
        /// NUMA node (placement hit).
        fault_frames_on_node: Exclusive<CoreLock>,
        /// Frames installed by faults homed on a different node (the access
        /// stream pays cross-node traffic for the page's lifetime).
        fault_frames_cross_node: Exclusive<CoreLock>,
        /// Operations that failed with [`VmError::OutOfMemory`] after the
        /// full pressure protocol came up empty.
        oom_faults: Exclusive<CoreLock>,
        /// Superpage populates that degraded to scattered 4 KiB pages
        /// because no contiguous block was available.
        block_fallbacks: Exclusive<CoreLock>,
        /// Superpage promotions — demoted (or never-folded) 4 KiB runs
        /// opportunistically re-folded into one block PTE (§7's inverse).
        superpage_promotions: Exclusive<CoreLock>,
    }
    /// Per-core sharded operation counters for [`VmSystem::op_stats`].
    ///
    /// Every backend embeds one and bumps it on each operation under the
    /// operating core's `CoreLock` (`ops.add_core(&held, OpStats::mmaps,
    /// 1)`): the bump lands in that core's cache-line-padded cell as a
    /// plain load and store, so counting costs no cross-core traffic and
    /// no locked instruction even when every core runs the op loop flat
    /// out (sum-on-read; DESIGN.md §6). Totals are exact once the address
    /// space is idle — the conformance suite asserts no count is ever
    /// lost.
    pub struct ShardedOpStats;
}

/// A virtual memory system managing one address space.
///
/// Implemented by `rvm_core::RadixVm` and the baselines; constructed
/// exclusively through the backend layer (`rvm_backend::build`). All
/// operations take the executing core explicitly (kernel code runs on a
/// core).
pub trait VmSystem: Send + Sync {
    /// Short human-readable name for harness output.
    fn name(&self) -> &'static str;

    /// This address space's identifier (TLB tag).
    fn asid(&self) -> Asid;

    /// Declares that `core` runs threads of this address space (used for
    /// conservative broadcast shootdown).
    fn attach_core(&self, core: usize);

    /// Maps `[addr, addr + len)` with the given protection and backing.
    /// Returns the mapped address. Fixed-address semantics: existing
    /// mappings in the range are replaced.
    fn mmap(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
    ) -> VmResult<Vaddr>;

    /// [`VmSystem::mmap`] with advisory [`MapFlags`] (huge-page hint).
    /// Hints are semantics-preserving: the default implementation drops
    /// them, so every backend accepts the call; backends with
    /// variable-granularity support override it.
    fn mmap_flags(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
        flags: MapFlags,
    ) -> VmResult<Vaddr> {
        let _ = flags;
        self.mmap(core, addr, len, prot, backing)
    }

    /// Unmaps `[addr, addr + len)`: clears metadata and page tables,
    /// shoots down TLBs, and releases physical pages.
    fn munmap(&self, core: usize, addr: Vaddr, len: u64) -> VmResult<()>;

    /// Handles a page fault at `va` for the given access kind, returning
    /// the translation to cache.
    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation>;

    /// Changes protection on `[addr, addr + len)`.
    fn mprotect(&self, _core: usize, _addr: Vaddr, _len: u64, _prot: Prot) -> VmResult<()> {
        Err(VmError::Unsupported)
    }

    /// Periodic per-core maintenance (Refcache ticks); default no-op.
    fn maintain(&self, _core: usize) {}

    /// Forks this address space copy-on-write, returning the child.
    /// Backends without fork return [`VmError::Unsupported`]; in the
    /// backend layer, the RadixVM kinds are the ones that fork.
    fn fork(&self, _core: usize) -> VmResult<Arc<dyn VmSystem>> {
        Err(VmError::Unsupported)
    }

    /// Snapshot of this address space's operation counters.
    fn op_stats(&self) -> OpStats {
        OpStats::default()
    }

    /// Drains all deferred reclamation (Refcache epochs, RCU grace
    /// periods) so frame accounting is exact; default no-op for backends
    /// that free eagerly.
    fn quiesce(&self) {}

    /// The concrete backend, for white-box tests that need to downcast
    /// (`vm.as_any().downcast_ref::<RadixVm>()`). Production code never
    /// calls this.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Current space consumption of the address-space structures.
    fn space_usage(&self) -> SpaceUsage;
}

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of cores.
    pub ncores: usize,
    /// Frame-placement policy of the machine's pool (NUMA knob).
    pub placement: rvm_mem::PlacementPolicy,
    /// NUMA nodes the cores stripe across ([`rvm_sync::model::node_of`]).
    /// A simulated run prices hops with the node count it gives
    /// [`rvm_sync::CostModel::new`].
    pub nnodes: usize,
}

impl MachineConfig {
    /// Defaults for `ncores` cores: first-touch on one node.
    pub fn new(ncores: usize) -> Self {
        MachineConfig {
            ncores,
            placement: rvm_mem::PlacementPolicy::FirstTouch,
            nnodes: 1,
        }
    }
}

sharded_stats! {
    /// Machine-level event counters.
    pub struct MachineStats {
        /// TLB hits on the access path. Bumped inside the lookup's
        /// critical section.
        tlb_hits: Exclusive<Tlb>,
        /// TLB misses (page faults taken). Counted before the TLB lock
        /// drops, like `tlb_hits`.
        tlb_misses: Exclusive<Tlb>,
        /// Shootdown rounds with at least one remote target. Keyed by the
        /// *sender*, which holds no lock of its own while it walks the
        /// targets' TLBs; so are the next two.
        shootdown_rounds: Shared,
        /// Total remote shootdown IPIs delivered.
        shootdown_ipis: Shared,
        /// Remote targets of rounds suppressed by failure injection (the
        /// `shootdown` failpoint).
        shootdowns_suppressed: Shared,
        /// Stale translations detected (should be zero unless injected).
        /// Bumped on the error path, after the TLB lock dropped.
        stale_detected: Shared,
        /// Times [`Machine::access`] went round again after a fault
        /// returned: the frame was recycled, or the protection changed,
        /// between the fault's return and the access. Never a hit or a
        /// first miss, so `tlb_hits + tlb_misses` is the accesses made
        /// plus these.
        access_retries: Shared,
    }
    /// The machine's cells: the access path bumps TLB hit/miss counts on
    /// *every* user memory access, so these must never share a cache line
    /// across cores (sum-on-read; DESIGN.md §6) — and, being bumped under
    /// the core's TLB lock, need no locked instruction either.
    struct MachineCells;
}

/// Bound on fault-retry iterations in [`Machine::access`] before the
/// machine declares a livelock (indicates a VM-system bug).
const RETRY_LIMIT: usize = 1024;

/// The simulated multicore machine.
pub struct Machine {
    cfg: MachineConfig,
    pool: Arc<FramePool>,
    tlbs: Vec<CachePadded<SpinLock<Tlb>>>,
    next_asid: AtomicU32,
    stats: MachineCells,
}

impl Machine {
    /// Creates a machine with default configuration for `ncores`.
    pub fn new(ncores: usize) -> Arc<Machine> {
        Self::with_config(MachineConfig::new(ncores))
    }

    /// Creates a machine with the given configuration.
    pub fn with_config(cfg: MachineConfig) -> Arc<Machine> {
        assert!(cfg.ncores >= 1 && cfg.ncores <= rvm_sync::MAX_CORES);
        let pool = Arc::new(FramePool::with_locks(
            CoreLocks::new(cfg.ncores),
            cfg.placement,
            cfg.nnodes,
        ));
        let tlbs = (0..cfg.ncores)
            .map(|_| CachePadded::new(SpinLock::new(Tlb::new(tlb::TLB_ENTRIES))))
            .collect();
        Arc::new(Machine {
            stats: MachineCells::new(cfg.ncores),
            cfg,
            pool,
            tlbs,
            next_asid: AtomicU32::new(1),
        })
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cfg.ncores
    }

    /// The machine's physical frame pool.
    pub fn pool(&self) -> &Arc<FramePool> {
        &self.pool
    }

    /// The machine's per-core locks, which its pool's per-core state
    /// sits under and every VM on the machine shares (`rvm_sync::corelock`).
    pub fn locks(&self) -> &Arc<CoreLocks> {
        self.pool.locks()
    }

    /// The machine's frame-placement policy.
    pub fn placement_policy(&self) -> rvm_mem::PlacementPolicy {
        self.cfg.placement
    }

    /// Allocates a fresh address-space identifier.
    pub fn alloc_asid(&self) -> Asid {
        self.next_asid.fetch_add(1, Ordering::Relaxed)
    }

    /// Snapshot of machine counters.
    pub fn stats(&self) -> MachineStats {
        self.stats.snapshot()
    }

    /// Fills `core`'s TLB with the page-table entry `pte` of address
    /// space `asid`, as the fault at `vpn` found or installed it: one
    /// entry translating the [`Pte::span`] pages aligned around `vpn` to
    /// the frames from `pte.pfn()`, tagged with the base frame's
    /// generation. Returns the translation of `vpn` itself: its member
    /// frame and that frame's generation.
    ///
    /// Page-fault handlers must call this *before releasing the lock that
    /// serializes the fault against munmap of the same page*; otherwise a
    /// completed shootdown could be followed by a stale fill. (Real MMUs
    /// make the fill atomic with the faulting access; this is the software
    /// model's equivalent ordering obligation.)
    #[inline]
    pub fn fill_tlb(&self, core: usize, asid: Asid, vpn: Vpn, pte: Pte) -> Translation {
        let span = pte.span();
        let start = vpn & !(span - 1);
        let base = pte.pfn();
        let writable = pte.writable();
        let entry = TlbEntry {
            asid,
            vpn: start,
            pfn: base,
            gen: self.pool.generation(base),
            span,
            writable,
            valid: true,
        };
        self.tlbs[core].lock().insert(entry);
        let pfn = base + (vpn - start) as Pfn;
        Translation {
            pfn,
            gen: self.pool.generation(pfn),
            writable,
        }
    }

    /// One zeroed frame for a fault on the held core. Exhaustion is
    /// counted in `stats` as an [`OpStats::oom_faults`] and becomes the
    /// fault's error; a caller that has installed nothing yet unwinds
    /// exactly (DESIGN.md §11).
    #[inline]
    pub fn fault_frame(&self, held: &mut CoreCells<'_>, stats: &ShardedOpStats) -> VmResult<Pfn> {
        self.pool.try_alloc_held(held).map_err(|e| {
            stats.add_core(held, OpStats::oom_faults, 1);
            e.into()
        })
    }

    /// Performs a user memory access at `va`: translates through `core`'s
    /// TLB (faulting into `vm` on a miss and retrying, as hardware
    /// re-executes the access) and runs `f` on the target frame while the
    /// TLB entry is pinned.
    ///
    /// Running `f` under the TLB lock guarantees that a concurrent
    /// shootdown — which must take the same lock — cannot complete, and
    /// hence the frame cannot be freed, while the access is in flight.
    pub fn access<R>(
        &self,
        core: usize,
        vm: &dyn VmSystem,
        va: Vaddr,
        kind: AccessKind,
        f: impl FnOnce(&FramePool, Pfn, usize) -> R,
    ) -> VmResult<R> {
        if va >= VA_LIMIT {
            return Err(VmError::BadRange);
        }
        let vpn = vpn_of(va);
        let asid = vm.asid();
        let offset = (va % PAGE_SIZE) as usize;
        for _attempt in 0..RETRY_LIMIT {
            {
                let mut tlb = self.tlbs[core].lock();
                if let Some(e) = tlb.lookup(asid, vpn) {
                    if kind == AccessKind::Read || e.writable {
                        // A span entry's gen is the base frame's; block
                        // frames free only as a unit, so it proxies the
                        // whole block. The member frame is the base plus
                        // the page's offset within the span.
                        if self.pool.generation(e.pfn) != e.gen {
                            // Report the use-after-unmap and evict the
                            // poisoned entry so later accesses refault
                            // instead of repeating the report.
                            tlb.invalidate_page(asid, vpn);
                            drop(tlb);
                            self.stats.add(core, MachineStats::stale_detected, 1);
                            return Err(VmError::StaleTranslation);
                        }
                        self.stats.add_held(core, MachineStats::tlb_hits, &tlb, 1);
                        let pfn = e.pfn + (vpn - e.vpn) as Pfn;
                        return Ok(f(&self.pool, pfn, offset));
                    }
                    // Write through a read-only entry: fall through to a
                    // fault (the VM may upgrade, e.g. copy-on-write).
                }
                // Counted before the TLB lock drops: it is what makes
                // this thread the cell's only mutator.
                self.stats.add_held(core, MachineStats::tlb_misses, &tlb, 1);
            }
            let tr = vm.pagefault(core, va, kind)?;
            // Complete the access through the translation the fault
            // handler produced, even if a concurrent munmap has already
            // shot the fresh TLB entry down — the paper's §3.4 semantics:
            // when pagefault wins the metadata lock, the faulting access
            // may complete while munmap is in flight. Frames are freed
            // through Refcache, whose epoch barrier waits for a flush of
            // *this* core's delta cache; the core does not flush
            // mid-access, but any thread may flush *for* it (`quiesce`, a
            // sweeper), so the frame can be freed, and reused, between
            // the fault's return and the access. The pin is the guard: a
            // frame freed by then reads a newer generation and the
            // access faults again, and a free that lands after the check
            // waits for the access to finish (`tests/concurrency.rs`
            // reaches both under a foreign sweeper).
            if kind == AccessKind::Read || tr.writable {
                if let Some(_pin) = self.pool.pin(tr.pfn, tr.gen) {
                    return Ok(f(&self.pool, tr.pfn, offset));
                }
            }
            // Protection changed or frame already recycled: fault again.
            self.stats.add(core, MachineStats::access_retries, 1);
        }
        panic!("translation livelock at va {va:#x} (fault/shootdown loop)");
    }

    /// Writes a word at `va` through the access path.
    pub fn write_u64(&self, core: usize, vm: &dyn VmSystem, va: Vaddr, val: u64) -> VmResult<()> {
        self.access(core, vm, va, AccessKind::Write, |pool, pfn, off| {
            pool.write_u64(pfn, off, val)
        })
    }

    /// Reads a word at `va` through the access path.
    pub fn read_u64(&self, core: usize, vm: &dyn VmSystem, va: Vaddr) -> VmResult<u64> {
        self.access(core, vm, va, AccessKind::Read, |pool, pfn, off| {
            pool.read_u64(pfn, off)
        })
    }

    /// Writes an entire page (workload "touch": one access + page fill).
    pub fn touch_page(&self, core: usize, vm: &dyn VmSystem, va: Vaddr, byte: u8) -> VmResult<()> {
        self.access(core, vm, va, AccessKind::Write, |pool, pfn, _| {
            pool.fill(pfn, byte)
        })
    }

    /// Invalidates `core`'s own TLB for a page range (no IPI).
    pub fn invalidate_local(&self, core: usize, asid: Asid, start_vpn: Vpn, n: u64) {
        self.tlbs[core].lock().invalidate_range(asid, start_vpn, n);
    }

    /// Performs a TLB shootdown round from `sender` to `targets`.
    ///
    /// The sender's own TLB (if in `targets`) is invalidated locally
    /// without an IPI; remote targets each cost an IPI and have the range
    /// cleared from their TLBs. Returns the number of remote IPIs.
    pub fn shootdown(
        &self,
        sender: usize,
        asid: Asid,
        start_vpn: Vpn,
        n: u64,
        targets: CoreSet,
    ) -> usize {
        if targets.contains(sender) {
            self.invalidate_local(sender, asid, start_vpn, n);
        }
        let mut remote = targets;
        remote.remove(sender);
        if remote.is_empty() {
            return 0;
        }
        // Asked only once there is a remote target, so a local round
        // never counts a hit. The registry is thread-local: a test that
        // arms this site must issue its shootdowns from the arming thread.
        if failpoint::should_fail(failpoint::SHOOTDOWN, sender) {
            self.stats.add(
                sender,
                MachineStats::shootdowns_suppressed,
                remote.len() as u64,
            );
            return 0;
        }
        sim::ipi_round(remote);
        for t in remote.iter() {
            self.tlbs[t].lock().invalidate_range(asid, start_vpn, n);
        }
        self.stats.add(sender, MachineStats::shootdown_rounds, 1);
        self.stats
            .add(sender, MachineStats::shootdown_ipis, remote.len() as u64);
        remote.len()
    }

    /// Flushes every core's TLB entries for an address space (used when an
    /// address space is destroyed).
    pub fn flush_asid(&self, asid: Asid) {
        for t in &self.tlbs {
            t.lock().invalidate_asid(asid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word each counter had as a hand-numbered `F_*` constant up to
    /// PR 20, copied here once. Which word shares a line with which is
    /// simulator-visible (these twelve span two lines): a field may be
    /// added at the end, none may change lines.
    #[test]
    fn opstats_cells_keep_their_words() {
        use OpStats as S;
        let pinned = [
            ("mmaps", S::mmaps.index(), 0),
            ("munmaps", S::munmaps.index(), 1),
            ("faults_alloc", S::faults_alloc.index(), 2),
            ("faults_fill", S::faults_fill.index(), 3),
            ("faults_cow", S::faults_cow.index(), 4),
            ("superpage_installs", S::superpage_installs.index(), 5),
            ("superpage_demotions", S::superpage_demotions.index(), 6),
            ("fault_frames_on_node", S::fault_frames_on_node.index(), 7),
            (
                "fault_frames_cross_node",
                S::fault_frames_cross_node.index(),
                8,
            ),
            ("oom_faults", S::oom_faults.index(), 9),
            ("block_fallbacks", S::block_fallbacks.index(), 10),
            ("superpage_promotions", S::superpage_promotions.index(), 11),
        ];
        for (name, word, was) in pinned {
            assert_eq!(word, was, "{name}");
        }
    }

    /// The word each counter had as a hand-numbered `F_*` constant up to
    /// PR 20, copied here once. Which word shares a line with which is
    /// simulator-visible (`access_retries`, new in PR 21,
    /// is the seventh word of the one line): a field may
    /// be added at the end, none may move.
    #[test]
    fn machinestats_cells_keep_their_words() {
        use MachineStats as S;
        let pinned = [
            ("tlb_hits", S::tlb_hits.index(), 0),
            ("tlb_misses", S::tlb_misses.index(), 1),
            ("shootdown_rounds", S::shootdown_rounds.index(), 2),
            ("shootdown_ipis", S::shootdown_ipis.index(), 3),
            ("shootdowns_suppressed", S::shootdowns_suppressed.index(), 4),
            ("stale_detected", S::stale_detected.index(), 5),
            ("access_retries", S::access_retries.index(), 6),
        ];
        for (name, word, was) in pinned {
            assert_eq!(word, was, "{name}");
        }
    }

    /// A trivial VmSystem: identity-ish mapping over a fixed set of pages,
    /// allocating frames on first fault.
    struct ToyVm {
        asid: Asid,
        machine: Arc<Machine>,
        frames: rvm_sync::Mutex<std::collections::HashMap<Vpn, Pfn>>,
        limit_vpn: Vpn,
    }

    impl ToyVm {
        fn new(m: &Arc<Machine>, limit_vpn: Vpn) -> ToyVm {
            ToyVm {
                asid: m.alloc_asid(),
                machine: m.clone(),
                frames: rvm_sync::Mutex::new(std::collections::HashMap::new()),
                limit_vpn,
            }
        }
    }

    impl VmSystem for ToyVm {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn asid(&self) -> Asid {
            self.asid
        }

        fn attach_core(&self, _core: usize) {}

        fn mmap(&self, _c: usize, a: Vaddr, _l: u64, _p: Prot, _b: Backing) -> VmResult<Vaddr> {
            Ok(a)
        }

        fn munmap(&self, _c: usize, _a: Vaddr, _l: u64) -> VmResult<()> {
            Ok(())
        }

        fn pagefault(&self, core: usize, va: Vaddr, _k: AccessKind) -> VmResult<Translation> {
            let vpn = vpn_of(va);
            if vpn >= self.limit_vpn {
                return Err(VmError::NoMapping);
            }
            let pool = self.machine.pool();
            let mut frames = self.frames.lock();
            let pfn = *frames
                .entry(vpn)
                .or_insert_with(|| pool.try_alloc(core).unwrap());
            // Fill while holding the frames lock (serializes vs. unmap).
            Ok(self
                .machine
                .fill_tlb(core, self.asid, vpn, Pte::new(pfn, true)))
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn space_usage(&self) -> SpaceUsage {
            SpaceUsage::default()
        }
    }

    #[test]
    fn access_path_roundtrip() {
        let m = Machine::new(2);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(0, &vm, 0x1000, 0xABCD).unwrap();
        assert_eq!(m.read_u64(0, &vm, 0x1000).unwrap(), 0xABCD);
        // Second access hits the TLB.
        let s0 = m.stats();
        assert_eq!(m.read_u64(0, &vm, 0x1008).unwrap(), 0);
        let s1 = m.stats();
        assert_eq!(s1.tlb_misses, s0.tlb_misses);
        assert!(s1.tlb_hits > s0.tlb_hits);
    }

    #[test]
    fn fault_on_unmapped() {
        let m = Machine::new(1);
        let vm = ToyVm::new(&m, 4);
        assert_eq!(
            m.read_u64(0, &vm, 100 << PAGE_SHIFT),
            Err(VmError::NoMapping)
        );
        assert_eq!(m.read_u64(0, &vm, VA_LIMIT), Err(VmError::BadRange));
    }

    #[test]
    fn shootdown_clears_remote_tlbs() {
        let m = Machine::new(3);
        let vm = ToyVm::new(&m, 100);
        // Cores 1 and 2 cache vpn 1.
        m.write_u64(1, &vm, 0x1000, 7).unwrap();
        m.write_u64(2, &vm, 0x1000, 8).unwrap();
        let mut targets = CoreSet::EMPTY;
        targets.insert(1);
        targets.insert(2);
        let ipis = m.shootdown(1, vm.asid(), 1, 1, targets);
        assert_eq!(ipis, 1, "core 1 is local to the sender; only core 2 IPIs");
        // Next accesses miss again.
        let miss0 = m.stats().tlb_misses;
        m.read_u64(1, &vm, 0x1000).unwrap();
        m.read_u64(2, &vm, 0x1000).unwrap();
        assert_eq!(m.stats().tlb_misses, miss0 + 2);
    }

    #[test]
    fn suppressed_shootdown_leaves_stale_entry_detected() {
        failpoint::disarm_all();
        failpoint::arm(failpoint::SHOOTDOWN, 0, failpoint::Trigger::EveryK(1));
        let m = Machine::new(2);
        let vm = ToyVm::new(&m, 100);
        // Core 1 caches the translation.
        m.write_u64(1, &vm, 0x1000, 7).unwrap();
        let pfn = {
            let frames = vm.frames.lock();
            frames[&1]
        };
        // "Unmap" on core 0: clear VM state, attempt shootdown (suppressed),
        // free the frame.
        vm.frames.lock().remove(&1);
        m.shootdown(0, vm.asid(), 1, 1, CoreSet::single(1));
        m.pool().free(0, pfn);
        // Core 1's stale TLB entry now points at a freed (reusable) frame:
        // the generation check catches it.
        assert_eq!(m.read_u64(1, &vm, 0x1000), Err(VmError::StaleTranslation));
        assert_eq!(m.stats().stale_detected, 1);
        assert_eq!(m.stats().shootdowns_suppressed, 1);
        failpoint::disarm_all();
    }

    /// What a machine-wide switch could not express: of three remote
    /// rounds from one sender, only the second misses. Its targets keep
    /// a stale entry each, the other rounds' entries are gone, and arming
    /// the site again replays exactly that.
    #[test]
    fn suppressed_shootdown_hits_only_the_chosen_round() {
        failpoint::disarm_all();
        let m = Machine::new(3);
        let vm = ToyVm::new(&m, 100);
        let mut targets = CoreSet::single(1);
        targets.insert(2);
        let va = |vpn: Vpn| vpn << PAGE_SHIFT;
        let pass = || {
            failpoint::arm(failpoint::SHOOTDOWN, 0, failpoint::Trigger::Nth(2));
            let before = m.stats();
            for vpn in 1..=3 {
                // Cores 1 and 2 cache the page; core 0 unmaps and frees it.
                m.write_u64(1, &vm, va(vpn), vpn).unwrap();
                m.write_u64(2, &vm, va(vpn), vpn).unwrap();
                let pfn = vm.frames.lock().remove(&vpn).unwrap();
                m.shootdown(0, vm.asid(), vpn, 1, targets);
                m.pool().free(0, pfn);
            }
            let after = m.stats();
            let stale = [m.read_u64(1, &vm, va(2)), m.read_u64(2, &vm, va(2))];
            // Rounds 1 and 3 cleared their targets: every read refaults.
            let misses = m.stats().tlb_misses;
            for core in [1, 2] {
                for vpn in [1, 3] {
                    m.read_u64(core, &vm, va(vpn)).unwrap();
                }
            }
            (
                after.shootdown_rounds - before.shootdown_rounds,
                after.shootdowns_suppressed - before.shootdowns_suppressed,
                stale,
                m.stats().tlb_misses - misses,
            )
        };
        let first = pass();
        let stale = Err(VmError::StaleTranslation);
        assert_eq!(first, (2, targets.len() as u64, [stale, stale], 4));
        assert_eq!(pass(), first, "re-arming replays the schedule");
        failpoint::disarm_all();
    }

    #[test]
    fn local_shootdown_is_free() {
        let m = Machine::new(4);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(2, &vm, 0x1000, 1).unwrap();
        let ipis = m.shootdown(2, vm.asid(), 1, 1, CoreSet::single(2));
        assert_eq!(ipis, 0);
        assert_eq!(m.stats().shootdown_rounds, 0);
    }

    #[test]
    fn flush_asid_clears_everywhere() {
        let m = Machine::new(2);
        let vm = ToyVm::new(&m, 100);
        m.write_u64(0, &vm, 0x1000, 1).unwrap();
        m.write_u64(1, &vm, 0x2000, 2).unwrap();
        m.flush_asid(vm.asid());
        let miss0 = m.stats().tlb_misses;
        m.read_u64(0, &vm, 0x1000).unwrap();
        m.read_u64(1, &vm, 0x2000).unwrap();
        assert_eq!(m.stats().tlb_misses, miss0 + 2);
    }

    /// `fill_tlb` at every granularity: a 4 KiB PTE and a PTE of each
    /// superpage span. The translation it returns is the faulting page's
    /// member frame with that frame's own generation (the member here is
    /// recycled, so it differs from the base's), and the entry it leaves
    /// serves another page of the same span with no fault: the address
    /// space below faults on nothing.
    #[test]
    fn fill_tlb_translates_every_page_of_its_span() {
        let m = Machine::new(1);
        let pool = m.pool();
        let base = pool.try_alloc(0).unwrap();
        let frames: Vec<Pfn> = (0..2).map(|_| pool.try_alloc(0).unwrap()).collect();
        assert_eq!(frames, [base + 1, base + 2], "one fresh batch, ascending");
        pool.free(0, base + 1);
        assert_eq!(pool.try_alloc(0).unwrap(), base + 1);
        assert_ne!(pool.generation(base + 1), pool.generation(base));
        for (off, marker) in [(1, 0xB1), (2, 0xB2)] {
            pool.write_u64(base + off, 0, marker);
        }
        let vm = ToyVm::new(&m, 0);
        // (PTE, faulting page, its frame, another page the entry covers,
        // that page's frame).
        let mut rows = vec![(Pte::new(base + 1, false), 7, base + 1, 7, base + 1)];
        for pages in SPAN_PAGES {
            let start = 5 * pages;
            let pte = Pte::new_span(base, false, pages);
            rows.push((pte, start + 1, base + 1, start + 2, base + 2));
        }
        for (pte, vpn, member, other, other_frame) in rows {
            m.flush_asid(vm.asid());
            let tr = m.fill_tlb(0, vm.asid(), vpn, pte);
            let span = pte.span();
            assert_eq!(tr.pfn, member, "span {span}");
            assert_eq!(tr.gen, pool.generation(member), "span {span}");
            assert!(!tr.writable, "span {span}");
            let before = m.stats();
            let read = m.read_u64(0, &vm, other << PAGE_SHIFT);
            assert_eq!(read, Ok(pool.read_u64(other_frame, 0)), "span {span}");
            assert_eq!(m.stats().tlb_misses, before.tlb_misses, "span {span}");
            assert_eq!(m.stats().tlb_hits, before.tlb_hits + 1, "span {span}");
            // The entry is read-only: a write faults into the VM.
            let write = m.write_u64(0, &vm, other << PAGE_SHIFT, 0);
            assert_eq!(write, Err(VmError::NoMapping), "span {span}");
        }
    }

    #[test]
    fn prot_check_permits_exactly_the_protection_bits() {
        use AccessKind::{Read, Write};
        let (ok, denied) = (Ok(()), Err(VmError::ProtViolation));
        let table = [
            (Prot::NONE, Read, denied),
            (Prot::NONE, Write, denied),
            (Prot::READ, Read, ok),
            (Prot::READ, Write, denied),
            (Prot::RW, Read, ok),
            (Prot::RW, Write, ok),
        ];
        for (prot, kind, want) in table {
            assert_eq!(prot.check(kind), want, "{prot:?} {kind:?}");
        }
    }

    /// Anchored at the mapping's first page `lo`, a file backing gives
    /// page `lo + i` file page `offset + i` (wrapping, as an offset near
    /// the top of the range does), and leaves `Anon` alone.
    #[test]
    fn anchored_backing_gives_each_page_its_own_file_page() {
        let rows: [(Vpn, u64); 4] = [(0, 0), (16, 3), (1 << 30, 7), (5, u64::MAX - 2)];
        for (lo, offset) in rows {
            let file = Backing::File {
                file: 9,
                offset_pages: offset,
            };
            let Backing::File {
                file: id,
                offset_pages: anchor,
            } = file.anchored(lo)
            else {
                panic!("a file backing stays a file backing");
            };
            assert_eq!(id, 9);
            for i in 0..8 {
                let page = anchor.wrapping_add(lo + i);
                assert_eq!(
                    page,
                    offset.wrapping_add(i),
                    "lo {lo} offset {offset} page {i}"
                );
            }
            assert_eq!(Backing::Anon.anchored(lo), Backing::Anon);
        }
    }
}
