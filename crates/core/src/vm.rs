//! The RadixVM address space: scalable mmap / munmap / pagefault.
//!
//! Implements the paper's VM operations (§3.4) over the radix tree:
//!
//! * **mmap** locks the target range (folding whole-block mappings into
//!   interior slots), replaces any existing metadata — unmapping displaced
//!   pages exactly like munmap — and fills in the new mapping metadata.
//!   No physical pages are allocated.
//! * **pagefault** locks the single page's metadata (expanding folded
//!   blocks to leaf granularity so per-page fault state has a home),
//!   allocates the physical page if needed, installs the PTE in the
//!   faulting core's table, records the core in the page's shootdown set,
//!   and fills the TLB *before releasing the slot lock* — serializing
//!   correctly against a concurrent munmap of the same page.
//! * **munmap** locks the range, collects physical pages and the fault
//!   core set from the metadata while clearing it, clears page tables and
//!   shoots down precisely the tracked TLBs, and only then releases the
//!   range lock and drops the page references (Refcache makes the drops
//!   core-local).
//!
//! Extensions beyond the paper's evaluation: `mprotect` (revoke-and-
//! refault) and `fork` with copy-on-write anonymous memory, both built on
//! the same range-locking plan.

use std::sync::Arc;

use rvm_hw::{
    vpn_of, AccessKind, Asid, Backing, Machine, MapFlags, Mmu, MmuKind, OpStats, Prot, Pte,
    ShardedOpStats, SpaceUsage, Translation, Vaddr, VmError, VmResult, VmSystem, Vpn, BLOCK_PAGES,
    SPAN_PAGES, VA_LIMIT,
};
use rvm_mem::{FrameRef, Pfn};
use rvm_radix::{LockMode, RadixConfig, RadixTree, RangeGuard, RemovedList, VPN_LIMIT};
use rvm_refcache::Refcache;
use rvm_sync::atomic::AtomicCoreSet;
use rvm_sync::{failpoint, sim, CoreCells, CoreHeld, CoreSet, InlineVec, PerCore, RangeLockKind};

use crate::meta::{block_member, PageKind, PageMeta};

/// Configuration of a [`RadixVm`] address space.
#[derive(Clone, Debug)]
pub struct RadixVmConfig {
    /// Page-table organization (per-core enables targeted shootdown).
    pub mmu: MmuKind,
    /// Collapse empty radix nodes (the full design; the paper's prototype
    /// shipped without it).
    pub collapse: bool,
    /// Substrate fronting multi-page range locks (DESIGN.md §9).
    /// [`RangeLockKind::List`] is the scalable list-based lock;
    /// [`RangeLockKind::SlotSpin`] is the slot-CAS-only baseline.
    pub range_lock: RangeLockKind,
}

impl Default for RadixVmConfig {
    fn default() -> Self {
        RadixVmConfig {
            mmu: MmuKind::PerCore,
            collapse: true,
            range_lock: RangeLockKind::List,
        }
    }
}

impl RadixVmConfig {
    /// Display name of this variant (matches the paper's figure
    /// legends): the full design, or the one field an ablation changes.
    pub fn name(&self) -> &'static str {
        match (self.mmu, self.collapse, self.range_lock) {
            (MmuKind::Shared, _, _) => "RadixVM/shared-pt",
            (MmuKind::PerCore, false, _) => "RadixVM/no-collapse",
            (MmuKind::PerCore, true, RangeLockKind::SlotSpin) => "RadixVM/slotspin-rl",
            (MmuKind::PerCore, true, RangeLockKind::List) => "RadixVM",
        }
    }
}

/// Contiguous VPN runs `(start, pages)` an operation must clear from the
/// page tables. Inline for the usual one or two runs, so a single-page
/// `munmap` stays off the heap.
type Runs = InlineVec<(Vpn, u64), 4>;

/// Appends `(start, pages)` to a list of contiguous VPN runs, merging
/// with the previous run when adjacent (shootdown/page-table batching;
/// entries may span whole blocks, so runs are page-count-aware).
fn push_run(runs: &mut Runs, start: Vpn, pages: u64) {
    match runs.last_mut() {
        Some((s, l)) if *s + *l == start => *l += pages,
        _ => runs.push((start, pages)),
    }
}

/// Operation counters (the paper reports these for Metis, §5.2).
///
/// An alias of the backend-generic [`rvm_hw::OpStats`], which every
/// [`VmSystem`] reports through the trait's `op_stats` method.
pub type VmOpStats = rvm_hw::OpStats;

/// Ways in each core's direct-mapped promotion-counter table.
const PROMOTE_WAYS: usize = 8;

/// Eligible 4 KiB faults a block must accumulate (per core) before the
/// fault path attempts opportunistic promotion. High enough that short-
/// lived demotions (partial mprotect about to be unmapped) never pay the
/// full-block lock; low enough that a converged block promotes well
/// before its 512 pages have each refaulted.
const PROMOTE_THRESHOLD: u32 = 64;

/// Per-core promotion trigger state: a small direct-mapped table of
/// `(block base, eligible-fault count)` pairs. Fixed storage — ticking a
/// counter never allocates — and per-core, in the core's `CoreLock`
/// cell, so the fault path never contends on it.
struct PromoteCounters {
    slots: [(Vpn, u32); PROMOTE_WAYS],
}

impl PromoteCounters {
    fn new() -> Self {
        PromoteCounters {
            slots: [(Vpn::MAX, 0); PROMOTE_WAYS],
        }
    }

    /// Records one eligible 4 KiB fault in `base`'s block; returns true
    /// when the count crosses the promotion threshold (and resets it, so
    /// a failed attempt retries only after another full accumulation).
    fn tick(&mut self, base: Vpn) -> bool {
        let way = ((base / BLOCK_PAGES) as usize) % PROMOTE_WAYS;
        let slot = &mut self.slots[way];
        if slot.0 != base {
            // Direct-mapped replacement: the conflicting block restarts.
            *slot = (base, 1);
            return false;
        }
        slot.1 += 1;
        if slot.1 >= PROMOTE_THRESHOLD {
            slot.1 = 0;
            true
        } else {
            false
        }
    }
}

/// A RadixVM address space.
pub struct RadixVm {
    cache: Arc<Refcache>,
    tree: RadixTree<PageMeta>,
    mmu: Mmu,
    asid: Asid,
    attached: AtomicCoreSet,
    cfg: RadixVmConfig,
    /// Sharded per-core op counters (one padded cell per core, so the op
    /// path never contends on a statistics line).
    stats: ShardedOpStats,
    /// Per-core promotion fill counters (DESIGN.md §12): opportunistic
    /// superpage promotion is triggered from the fault path, not a
    /// background thread.
    promote: PerCore<PromoteCounters>,
    /// Dropped last: whoever drops the last handle on `cache` drains it,
    /// which runs the frame cells' zero actions in the machine's pool.
    machine: Arc<Machine>,
}

impl RadixVm {
    /// Creates an address space with its own Refcache, under the
    /// machine's `CoreLock`s: each VM call takes its core's once.
    pub fn new(machine: Arc<Machine>, cfg: RadixVmConfig) -> Arc<RadixVm> {
        let cache = Arc::new(Refcache::with_locks(machine.locks().clone()));
        Self::with_cache(machine, cache, cfg)
    }

    /// Creates an address space sharing an existing Refcache (as all
    /// address spaces in one kernel would).
    ///
    /// # Panics
    ///
    /// Panics unless `cache` sits under the machine's `CoreLock`s.
    pub fn with_cache(
        machine: Arc<Machine>,
        cache: Arc<Refcache>,
        cfg: RadixVmConfig,
    ) -> Arc<RadixVm> {
        assert!(
            Arc::ptr_eq(cache.locks(), machine.locks()),
            "the Refcache must share the machine's CoreLocks"
        );
        let mmu = Mmu::new(cfg.mmu, machine.ncores());
        let tree = RadixTree::new(
            cache.clone(),
            RadixConfig {
                collapse: cfg.collapse,
                leaf_hints: true,
                range_lock: cfg.range_lock,
                // Hot read-mostly index nodes become per-node replicas
                // under the machine's replicate-read-only placement.
                replicate_index: machine.placement_policy()
                    == rvm_mem::PlacementPolicy::ReplicateReadOnly,
            },
        );
        Arc::new(RadixVm {
            asid: machine.alloc_asid(),
            stats: ShardedOpStats::new(machine.ncores()),
            promote: PerCore::new(machine.locks().clone(), |_| PromoteCounters::new()),
            machine,
            cache,
            tree,
            mmu,
            attached: AtomicCoreSet::new(),
            cfg,
        })
    }

    /// The machine this address space runs on.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The Refcache managing pages and radix nodes.
    pub fn cache(&self) -> &Arc<Refcache> {
        &self.cache
    }

    /// Operation counters.
    pub fn op_stats(&self) -> VmOpStats {
        self.stats.snapshot()
    }

    /// Counts `frames` fault-installed frames starting at `pfn` as
    /// on-node or cross-node, by the frame's home node vs. the faulting
    /// core's node.
    fn count_fault_placement(&self, held: &CoreCells<'_>, pfn: Pfn, frames: u64) {
        let pool = self.machine.pool();
        let field = match pool.home(pfn) == pool.node_of(held.core()) {
            true => OpStats::fault_frames_on_node,
            false => OpStats::fault_frames_cross_node,
        };
        self.stats.add_core(held, field, frames);
    }

    /// A clone of the metadata governing `vpn`, for white-box tests.
    #[cfg(test)]
    pub(crate) fn meta_at(&self, core: usize, vpn: Vpn) -> Option<PageMeta> {
        self.tree.get(core, vpn)
    }

    /// Radix-tree statistics (node counts, expansions, collapses).
    pub fn tree_stats(&self) -> &rvm_radix::TreeStats {
        self.tree.stats()
    }

    /// The cores whose TLBs may cache a translation the cores of
    /// `tracked` installed: those cores with per-core tables, and every
    /// attached core with a shared one, where any core may have filled
    /// its TLB from another's entry. The per-core configuration does not
    /// load `attached`, a word every core's faults read.
    fn shootdown_set(&self, tracked: CoreSet) -> CoreSet {
        match self.mmu.kind() {
            MmuKind::PerCore => tracked,
            MmuKind::Shared => self.attached.load(),
        }
    }

    /// Clears the page tables over `runs` in every core of `tracked` and
    /// shoots down `lo..lo+n` in the TLBs that cached any of it: one
    /// shootdown round for the whole operation, however many runs.
    fn revoke(&self, core: usize, lo: Vpn, n: u64, runs: &[(Vpn, u64)], tracked: CoreSet) {
        if runs.is_empty() {
            return;
        }
        let targets = self.shootdown_set(tracked);
        for (start, len) in runs {
            self.mmu.unmap_range(*start, *len, tracked);
        }
        self.machine.shootdown(core, self.asid, lo, n, targets);
    }

    /// Clears page tables and shoots down TLBs for displaced metadata.
    /// `lo..lo+n` is the overall operation range (used for TLB
    /// invalidation); page tables are cleared per contiguous run of
    /// removed pages.
    ///
    /// Must be called *before* the range lock is released (the caller
    /// still holds the guard), per the paper's ordering invariant: no
    /// thread may access the pages after munmap returns, and the physical
    /// pages are released ([`RadixVm::release_frames`]) only after every
    /// stale translation is gone.
    fn unmap_tables(&self, core: usize, lo: Vpn, n: u64, removed: &RemovedList<PageMeta>) {
        let mut tracked = CoreSet::EMPTY;
        let mut runs = Runs::new();
        for r in removed {
            let m = &r.value;
            // Folded blocks carry fault state only once a superpage
            // populated them: one block PTE per core in the coreset, one
            // span TLB entry each, one frame block.
            debug_assert!(fold_handle_covers(m, r.pages));
            if m.frame.is_some() || !m.coreset.is_empty() {
                tracked = tracked.union(m.coreset);
                push_run(&mut runs, r.start, r.pages);
            }
        }
        self.revoke(core, lo, n, &runs, tracked);
    }

    /// Drops the frame references displaced metadata owned, after
    /// [`RadixVm::unmap_tables`] and — as in the paper (§3.4) — after the
    /// range lock is released: nothing here needs the slots, and a
    /// 16-page remap otherwise holds its 16 slot locks across 16 trips
    /// through the delta cache. Each value owns at most one handle;
    /// page and block-head references drop through the same frame-table
    /// cells (the order a cell was armed with picks the release action);
    /// a demoted page owns one reference on its backing block, which
    /// frees when the last page drops.
    ///
    /// Each reference weighs the pages its entry mapped — one per page
    /// value, its own frame or a share of a demoted block alike, and a
    /// fold's whole span — and the answer is
    /// [`RadixVm::settle_refs`]'s: whether the caller, which holds no
    /// guard by now, owes the core a [`RadixTree::expedite`].
    fn release_frames(&self, held: &mut CoreCells<'_>, removed: &RemovedList<PageMeta>) -> bool {
        let frames = removed
            .into_iter()
            .filter_map(|r| r.value.frame.map(|f| (f, r.pages)));
        self.settle_refs(held, frames, -1)
    }

    /// Applies `each` (one reference taken, or one surrendered) for every
    /// handle in `frames`, settling each run of equal consecutive handles
    /// in one trip through the delta cache: the pages of a demoted block
    /// all carry the block head's handle, so hundreds of them cost one.
    /// Each handle comes with the 4 KiB pages its reference stands for.
    /// References taken go through [`rvm_mem::FramePool::ref_adjust`];
    /// surrendered ones through [`rvm_mem::FramePool::ref_surrender`],
    /// which accounts their pages to the core, and the result is whether
    /// any of those answered that the core is due a tick — for a caller
    /// under a guard to ignore (the answer stays true until a flush) and
    /// for the tails of `mmap_flags`/`munmap` to act on.
    fn settle_refs(
        &self,
        held: &mut CoreCells<'_>,
        frames: impl IntoIterator<Item = (FrameRef, u64)>,
        each: i64,
    ) -> bool {
        let pool = self.machine.pool();
        let mut due = false;
        let mut settle = |(r, k, pages): (FrameRef, i64, u64)| {
            if k < 0 {
                due |= pool.ref_surrender(&self.cache, held, r, -k, pages);
            } else {
                pool.ref_adjust(&self.cache, held, r, k);
            }
        };
        let mut run: Option<(FrameRef, i64, u64)> = None;
        for (frame, pages) in frames {
            match &mut run {
                Some((r, k, p)) if *r == frame => {
                    *k += each;
                    *p += pages;
                }
                _ => {
                    if let Some(done) = run.replace((frame, each, pages)) {
                        settle(done);
                    }
                }
            }
        }
        if let Some(done) = run {
            settle(done);
        }
        due
    }

    /// Completes superpage demotion after a range lock expanded folded
    /// superpage values (DESIGN.md §7). A fold owned **one** reference on
    /// its block-head frame slot; each rung of expansion cloned the
    /// handle into the 512 slots of a fresh node one granularity down
    /// (page values in a leaf, smaller folds in an interior node), so
    /// per expanded node 511 clones adopt one reference each — one
    /// `+511` through the delta cache, no allocation — legal exactly
    /// here because expansion leaves every slot of the new node
    /// born-locked until this guard drops, so no other core can observe
    /// (or release) an unadopted copy. Clones the same descent expanded
    /// further handed their reference to the node below, which adopts
    /// its own 511, so the total is exactly one reference per extra
    /// handle however deep the cascade went. The superpage PTE is then
    /// shattered one rung in every tracked table and the span TLB
    /// entries are shot down, all under the same guard.
    fn demote_expanded(&self, guard: &mut RangeGuard<'_, PageMeta>) {
        // One entry per expanded superpage `(base, pages)`, keyed by its
        // *virtual* span, not by handle: every chunk of one demoted
        // 1 GiB block carries the same head handle, and merging two
        // chunks would adopt the wrong count and shatter the wrong PTE.
        // A contiguous lock range always leaves at least one clone of
        // each expanded node in place (at most the two edge slots expand
        // further), so every expanded superpage is observed here.
        let fanout = rvm_radix::FANOUT as u64;
        let mut demoted: Vec<(Vpn, u64, FrameRef, CoreSet)> = Vec::new();
        guard.for_each_expanded_mut(|vpn, clone_pages, m| {
            // A clone of a fold's value: its handle, when set, is a
            // block head's (`PageMeta::frame`).
            if let Some(b) = m.frame {
                let pages = clone_pages * fanout;
                let base = vpn & !(pages - 1);
                if !demoted.iter().any(|e| (e.0, e.1) == (base, pages)) {
                    demoted.push((base, pages, b, m.coreset));
                }
            }
        });
        // Largest span first: a table shatters one rung at a time, so a
        // 1 GiB PTE must become 2 MiB PTEs before one of those can
        // become 4 KiB PTEs.
        demoted.sort_by_key(|e| std::cmp::Reverse(e.1));
        let pool = self.machine.pool();
        let held = &mut guard.token();
        let core = held.core();
        for (base, pages, b, tracked) in demoted {
            pool.ref_adjust(&self.cache, held, b, fanout as i64 - 1);
            let targets = self.shootdown_set(tracked);
            self.mmu.demote(base, pages, tracked);
            self.machine
                .shootdown(core, self.asid, base, pages, targets);
            self.stats.add_core(held, OpStats::superpage_demotions, 1);
        }
    }

    /// Forks the address space: the child shares all faulted pages; pages
    /// under writable mappings become copy-on-write in both parent and
    /// child. Returns the child address space (same machine and Refcache).
    pub fn fork(&self, core: usize) -> Arc<RadixVm> {
        sim::charge_op_base();
        let child = RadixVm::with_cache(self.machine.clone(), self.cache.clone(), self.cfg.clone());
        let mut entries: Vec<(Vpn, u64, PageMeta)> = Vec::new();
        let mut revoke_runs = Runs::new();
        let mut revoke_set = CoreSet::EMPTY;
        let mut held = self.cache.lock(core);
        {
            let mut g =
                self.tree
                    .lock_range_held(held.reborrow(), 0, VPN_LIMIT, LockMode::ExpandFolded);
            g.for_each_entry_mut(|vpn, pages, m| {
                if m.frame.is_some() && m.prot.writable() {
                    m.kind = PageKind::Cow;
                }
                if !m.coreset.is_empty() {
                    // Parent translations must be revoked so future parent
                    // writes take the copy-on-write fault.
                    revoke_set = revoke_set.union(m.coreset);
                    m.coreset = CoreSet::EMPTY;
                    push_run(&mut revoke_runs, vpn, pages);
                }
                entries.push((vpn, pages, m.clone()));
            });
            // The child's copy of each entry owns one reference on what
            // the entry's handle references: its page frame, or its block
            // (a folded superpage's one, or a demoted page's share; a
            // write fault in either address space demotes and copies per
            // page).
            // Taken under the guard, while the parent's own references
            // cannot go away.
            let frames = entries
                .iter()
                .filter_map(|(_, pages, m)| m.frame.map(|f| (f, *pages)));
            self.settle_refs(&mut g.token(), frames, 1);
            self.revoke(core, 0, VPN_LIMIT, &revoke_runs, revoke_set);
        }
        for (vpn, pages, meta) in entries {
            let mut g =
                child
                    .tree
                    .lock_range_held(held.reborrow(), vpn, vpn + pages, LockMode::ExpandAll);
            let displaced = g.replace(&meta);
            debug_assert!(displaced.is_empty());
        }
        child
    }

    /// Space used by the radix tree alone (Table 2's "radix tree" column).
    pub fn index_bytes(&self) -> u64 {
        self.tree.space_bytes()
    }
}

impl VmSystem for RadixVm {
    fn name(&self) -> &'static str {
        self.cfg.name()
    }

    fn asid(&self) -> Asid {
        self.asid
    }

    fn attach_core(&self, core: usize) {
        self.attached.insert(core);
    }

    fn mmap(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
    ) -> VmResult<Vaddr> {
        self.mmap_flags(core, addr, len, prot, backing, MapFlags::NONE)
    }

    fn mmap_flags(
        &self,
        core: usize,
        addr: Vaddr,
        len: u64,
        prot: Prot,
        backing: Backing,
        flags: MapFlags,
    ) -> VmResult<Vaddr> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        let mut held = self.cache.lock(core);
        self.stats.add_core(&held.cells(), OpStats::mmaps, 1);
        // Anchor file offsets to the VPN so every page's metadata is
        // identical and the mapping folds (§3.2).
        let mut template = PageMeta::new(backing.anchored(lo), prot);
        // The huge hint is template state: it folds with the mapping and
        // makes aligned folded blocks superpage-eligible at fault time.
        template.huge = flags.huge();
        let mut guard = self
            .tree
            .lock_range_held(held.reborrow(), lo, lo + n, LockMode::ExpandAll);
        // Mapping over part of an existing superpage demotes it first.
        self.demote_expanded(&mut guard);
        let displaced = guard.replace(&template);
        if !displaced.is_empty() {
            self.unmap_tables(core, lo, n, &displaced);
            drop(guard);
            if self.release_frames(&mut held.cells(), &displaced) {
                // As at the tail of `munmap`: only after the guard.
                self.tree.expedite(&mut held);
            }
        }
        Ok(addr)
    }

    fn munmap(&self, core: usize, addr: Vaddr, len: u64) -> VmResult<()> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        let mut held = self.cache.lock(core);
        self.stats.add_core(&held.cells(), OpStats::munmaps, 1);
        let mut guard =
            self.tree
                .lock_range_held(held.reborrow(), lo, lo + n, LockMode::ExpandFolded);
        // Partial unmap of a superpage demotes it (shatter + span
        // shootdown) before the per-page removal below; a full-block
        // unmap keeps the fold and releases the block whole below.
        self.demote_expanded(&mut guard);
        let removed = guard.clear();
        self.unmap_tables(core, lo, n, &removed);
        // The table nodes the range emptied go back too, in every core's
        // table — an earlier revoke may have cleared a core's entries
        // and its tracking — still under the guard. Only when something
        // was unmapped, and only here: an `mmap` over a mapping keeps its
        // nodes for the faults that repopulate it.
        if !removed.is_empty() {
            self.mmu.free_tables(lo, n);
        }
        drop(guard);
        if self.release_frames(&mut held.cells(), &removed) {
            // The core has unmapped a superpage's worth since its last
            // flush: tick now, not at the caller's next tick. A frame
            // only this core added references to already came back in
            // `release_frames`; the rest — frames another core added
            // to, the radix nodes this unmap emptied — starts its
            // two-epoch clock here. After the guard, which borrowed the
            // token a tick takes (DESIGN.md §5, §8).
            self.tree.expedite(&mut held);
        }
        Ok(())
    }

    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation> {
        if va >= VA_LIMIT {
            return Err(VmError::BadRange);
        }
        sim::charge_op_base();
        // Only the shared table ever reads `attached`
        // (`shootdown_set`), and the word is one every core's faults
        // would load, so per-core tables leave it alone. Where it is
        // kept, tracking is read-before-write: `AtomicCoreSet::insert`
        // tests membership first, so a warm fault's attach check is a
        // shared read, never an exclusive store (DESIGN.md §6).
        let shared_table = self.mmu.kind() == MmuKind::Shared;
        if shared_table {
            self.attached.insert(core);
        }
        let vpn = vpn_of(va);
        let mut held = self.cache.lock(core);
        // Fold-preserving lock: if the page lives under an intact folded
        // block, the block's single slot is locked instead of expanding
        // it — the superpage fault path (DESIGN.md §7). Leaf-resolved
        // pages behave exactly as in ExpandFolded mode.
        let mut guard =
            self.tree
                .lock_range_held(held.reborrow(), vpn, vpn + 1, LockMode::ExpandToBlock);
        // Shared-table configuration: a PTE installed by another core is
        // filled by hardware without kernel involvement; model that as a
        // cheap walk that bypasses the metadata entirely.
        if shared_table {
            let pte = self.mmu.table(core).get(vpn);
            if pte.present() && (kind == AccessKind::Read || pte.writable()) {
                self.stats
                    .add_core(&mut guard.token(), OpStats::faults_fill, 1);
                // Fill whatever span the entry maps: when another core
                // populated a superpage, the whole of it, so this core
                // stops faulting on it.
                let span = pte.span();
                let base = pte.pfn() - (vpn & (span - 1)) as Pfn;
                let pte = Pte::new_span(base, pte.writable(), span);
                return Ok(self.machine.fill_tlb(core, self.asid, vpn, pte));
            }
        }
        match self.block_fault(vpn, kind, &mut guard) {
            BlockPath::Resolved(r) => return r,
            BlockPath::Demote => {
                // The fold needs per-page state (not superpage-eligible,
                // or a copy-on-write write): expand it and run the
                // demotion protocol, then fault at 4 KiB granularity.
                drop(guard);
                guard = self.tree.lock_range_held(
                    held.reborrow(),
                    vpn,
                    vpn + 1,
                    LockMode::ExpandFolded,
                );
                self.demote_expanded(&mut guard);
            }
            BlockPath::Leaf => {}
        }
        let (meta, mut cells) = guard.page_and_token().ok_or(VmError::NoMapping)?;
        let token = &mut cells;
        meta.prot.check(kind)?;
        // Copy-on-write resolution for write faults. The shared source
        // is whatever the page's one handle references — its own frame
        // or its member of a (demoted) superpage block; either way the
        // page gets a private 4 KiB copy and the handle is replaced.
        if kind == AccessKind::Write && meta.kind == PageKind::Cow {
            let pool = self.machine.pool();
            // Allocate the private copy BEFORE surrendering the shared
            // reference: on OutOfMemory the metadata still owns its
            // frame, so the fault unwinds exactly — nothing installed,
            // nothing leaked, and the guard drop releases every lock.
            let new_pfn = self.machine.fault_frame(token, &self.stats)?;
            self.stats.add_core(token, OpStats::faults_cow, 1);
            self.count_fault_placement(token, new_pfn, 1);
            if let Some(shared) = meta.frame.take() {
                // Copy the old contents into the private page: both
                // frames are live (the taken reference is not yet
                // surrendered; new was just allocated).
                pool.copy_frame(block_member(shared, vpn), new_pfn);
                sim::charge_page_work();
                // Revoke stale translations to the shared page, then drop
                // our reference to it.
                let tracked = meta.coreset;
                meta.coreset = CoreSet::EMPTY;
                if !tracked.is_empty() {
                    self.revoke(core, vpn, 1, &[(vpn, 1)], tracked);
                }
                // Under the guard: the page is accounted, the tick is
                // left to the core's next `mmap`/`munmap` tail.
                pool.ref_surrender(&self.cache, token, shared, 1, 1);
            }
            meta.frame = Some(pool.retain(&self.cache, token, new_pfn, 0, 1));
            meta.kind = PageKind::Plain;
        }
        let pfn = match meta.frame_for(vpn) {
            Some(pfn) => {
                self.stats.add_core(token, OpStats::faults_fill, 1);
                pfn
            }
            None => {
                // Demand-zero populate: one frame off the core-local free
                // list, one count cell armed in the frame table — zero
                // heap allocation, cold or warm (DESIGN.md §8; gated by
                // tests/alloc_free.rs). On OutOfMemory nothing has been
                // installed yet, so the error propagates with the
                // metadata untouched (exact unwind, DESIGN.md §11).
                let pool = self.machine.pool();
                let pfn = self.machine.fault_frame(token, &self.stats)?;
                self.stats.add_core(token, OpStats::faults_alloc, 1);
                self.count_fault_placement(token, pfn, 1);
                meta.frame = Some(pool.retain(&self.cache, token, pfn, 0, 1));
                pfn
            }
        };
        // Copy-on-write pages map read-only until resolved.
        let writable = meta.prot.writable() && meta.kind != PageKind::Cow;
        // Only a core's *first* fault of the page records it: a repeat
        // fault must not dirty the metadata's cache line (the shootdown
        // set is read under the same slot lock, so the test is exact).
        if !meta.coreset.contains(core) {
            meta.coreset.insert(core);
        }
        // Promotion candidacy (§12): a 4 KiB fault in a demoted block
        // (the page's handle is a block head's) or a hinted-but-never-
        // folded run (block allocation failed under pressure) feeds the
        // fill counter; crossing the threshold attempts re-folding
        // below, after this page's slot lock is released.
        let promote_candidate = meta.backing == Backing::Anon
            && meta.kind == PageKind::Plain
            && (meta.huge || meta.frame.is_some_and(|f| f.order > 0));
        let tr = self.install(core, vpn, pfn, 1, writable);
        if promote_candidate {
            let base = vpn & !(BLOCK_PAGES - 1);
            if self.promote.get(token).tick(base) {
                // Opportunistic promotion, outside the fault's critical
                // section (the full-block lock must not nest inside this
                // page's slot lock). On success the returned translation
                // reflects the promoted mapping — required when the
                // pages migrated into a fresh block.
                drop(guard);
                if let Some(promoted) = self.try_promote(&mut held, vpn, base) {
                    return Ok(promoted);
                }
            }
        }
        Ok(tr)
    }

    fn mprotect(&self, core: usize, addr: Vaddr, len: u64, prot: Prot) -> VmResult<()> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        let mut held = self.cache.lock(core);
        let mut guard =
            self.tree
                .lock_range_held(held.reborrow(), lo, lo + n, LockMode::ExpandFolded);
        // Partial mprotect of a superpage demotes it; a whole-block
        // mprotect keeps the fold (the revoke below clears the block PTE
        // and the next fault re-installs it with the new protection).
        self.demote_expanded(&mut guard);
        let mut tracked = CoreSet::EMPTY;
        let mut runs = Runs::new();
        let mut mapped_pages = 0u64;
        guard.for_each_entry_mut(|vpn, pages, m| {
            mapped_pages += pages;
            m.prot = prot;
            if !m.coreset.is_empty() {
                tracked = tracked.union(m.coreset);
                m.coreset = CoreSet::EMPTY;
                push_run(&mut runs, vpn, pages);
            }
        });
        if mapped_pages == 0 {
            return Err(VmError::NoMapping);
        }
        // Revoke-and-refault: existing translations (either direction of
        // change) are cleared; subsequent accesses fault with the new
        // protection.
        self.revoke(core, lo, n, &runs, tracked);
        Ok(())
    }

    fn maintain(&self, core: usize) {
        self.tree.maintain(core);
    }

    fn fork(&self, core: usize) -> VmResult<Arc<dyn VmSystem>> {
        Ok(RadixVm::fork(self, core))
    }

    fn op_stats(&self) -> VmOpStats {
        RadixVm::op_stats(self)
    }

    fn quiesce(&self) {
        self.tree.quiesce();
        // Refcache's epoch drain above released physical pages into the
        // frame pool's outbound magazines; return them home so frame
        // accounting is exact after quiesce.
        self.machine.pool().flush_magazines();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn space_usage(&self) -> SpaceUsage {
        SpaceUsage {
            index_bytes: self.tree.space_bytes(),
            pagetable_bytes: self.mmu.table_bytes(),
        }
    }
}

/// The frame pool's order for a block of `pages` frames — the one place
/// a page span becomes an order.
fn block_order(pages: u64) -> u8 {
    debug_assert!(pages.is_power_of_two());
    pages.trailing_zeros() as u8
}

/// The invariant of `PageMeta::frame` on a value governing `pages`
/// pages: a fold's handle, when set, references a block at least as
/// large as the fold — never a single page's frame. (A page value's
/// handle may be either.)
fn fold_handle_covers(m: &PageMeta, pages: u64) -> bool {
    pages == 1 || m.frame.is_none_or(|f| 1u64 << f.order >= pages)
}

/// Outcome of the block-granularity stage of a page fault.
enum BlockPath {
    /// The fault completed (or errored) at block granularity.
    Resolved(VmResult<Translation>),
    /// The fold must be expanded and demoted; retry at 4 KiB.
    Demote,
    /// The page resolved to a leaf (or empty block): 4 KiB path.
    Leaf,
}

impl RadixVm {
    /// The last step of a fault at any granularity: installs one PTE
    /// translating the `pages` pages (1, or one of [`SPAN_PAGES`])
    /// around `vpn` to the frames from `base` in `core`'s page table and
    /// TLB, and returns the translation of the faulting `vpn`.
    ///
    /// Must run before the slot lock is released (guard drop): a munmap
    /// racing on the range cannot start its shootdown until we are
    /// done, so the TLB entry cannot be stale.
    fn install(&self, core: usize, vpn: Vpn, base: Pfn, pages: u64, writable: bool) -> Translation {
        let pte = Pte::new_span(base, writable, pages);
        let table = self.mmu.table(core);
        if pte.block() {
            table.set_span(vpn, pte);
        } else {
            table.set(vpn, pte);
        }
        self.machine.fill_tlb(core, self.asid, vpn, pte)
    }

    /// The fold-aware stage of [`RadixVm::pagefault`]: when `guard`
    /// holds an intact folded block, try to serve the fault with **one**
    /// superpage PTE backed by **one** contiguous frame block and **one**
    /// Refcache object.
    ///
    /// Eligibility: the fold spans exactly one hardware superpage (any
    /// of [`SPAN_PAGES`]; the span is carried through as `pages`), the
    /// mapping is anonymous, carries the huge hint (or was already
    /// populated as a superpage), and the access is not a copy-on-write
    /// write. Ineligible folds demote ([`BlockPath::Demote`]).
    fn block_fault(
        &self,
        vpn: Vpn,
        kind: AccessKind,
        guard: &mut RangeGuard<'_, PageMeta>,
    ) -> BlockPath {
        let Some((start, pages, meta, mut cells)) = guard.block_entry_mut() else {
            return BlockPath::Leaf;
        };
        let held = &mut cells;
        let core = held.core();
        if let Err(e) = meta.prot.check(kind) {
            return BlockPath::Resolved(Err(e));
        }
        debug_assert!(fold_handle_covers(meta, pages));
        let eligible = SPAN_PAGES.contains(&pages)
            && (meta.frame.is_some()
                || (meta.huge && meta.kind == PageKind::Plain && meta.backing == Backing::Anon));
        let cow_write = kind == AccessKind::Write && meta.kind == PageKind::Cow;
        if !eligible || cow_write {
            return BlockPath::Demote;
        }
        let pool = self.machine.pool();
        let base = match meta.frame {
            Some(b) => {
                self.stats.add_core(held, OpStats::faults_fill, 1);
                // The handle's pfn is its slot's block head; a chunk
                // demoted out of a larger block keeps that block's head
                // handle, so resolve the chunk base by the virtual
                // offset (spans are virtually aligned).
                block_member(b, start)
            }
            None => {
                // Populate: one contiguous frame block, one block-head
                // count cell for its whole lifetime (vs. one per-page
                // reference per member). When no contiguous block of
                // this order exists, degrade gracefully: demote the fold
                // and serve the fault (and the span's remaining pages,
                // as they fault) at the next granularity down instead of
                // failing the access — a failed 1 GiB populate retries
                // at 2 MiB, a failed 2 MiB populate at 4 KiB.
                let order = block_order(pages);
                let base = match pool.try_alloc_block_held(held, order) {
                    Ok(base) => base,
                    Err(_) => {
                        self.stats.add_core(held, OpStats::block_fallbacks, 1);
                        return BlockPath::Demote;
                    }
                };
                self.stats.add_core(held, OpStats::faults_alloc, 1);
                self.count_fault_placement(held, base, pages);
                meta.frame = Some(pool.retain(&self.cache, held, base, order, 1));
                base
            }
        };
        // Copy-on-write blocks (post-fork) map read-only until a write
        // demotes and copies per page.
        let writable = meta.prot.writable() && meta.kind != PageKind::Cow;
        if !meta.coreset.contains(core) {
            meta.coreset.insert(core);
            self.stats.add_core(held, OpStats::superpage_installs, 1);
        }
        BlockPath::Resolved(Ok(self.install(core, vpn, base, pages, writable)))
    }

    /// Opportunistic superpage promotion — §7's inverse (DESIGN.md §12).
    ///
    /// Locks `base`'s whole block at leaf granularity and, when its 512
    /// page values have converged back to identical templates with
    /// uniform fault state, re-folds them into one block value backed by
    /// one contiguous frame block, reinstalls a single block PTE + span
    /// TLB entry for the promoting core, and shoots down the 4 KiB
    /// entries. Two backing shapes promote:
    ///
    /// * **demoted**: every page's handle is the same block head's
    ///   (`order > 0`; the §7 demotion protocol's state) — the fold
    ///   adopts one reference and the other 511 are surrendered; no
    ///   frame moves, no generation changes;
    /// * **scattered**: every page's handle is its own 4 KiB frame's
    ///   (`order == 0`; a hinted populate that fell back under
    ///   pressure) — the pages migrate
    ///   into a freshly allocated block, and the old frames free (their
    ///   generations bump, so any missed stale translation is detected).
    ///
    /// Every failure — failpoint veto, no contiguous block, racing
    /// mutation, non-converged metadata — leaves the mapping valid at
    /// 4 KiB and returns `None`; promotion is never a user-visible
    /// error. Returns the promoted translation for `vpn` on success.
    fn try_promote(&self, held: &mut CoreHeld<'_>, vpn: Vpn, base: Vpn) -> Option<Translation> {
        let core = held.core();
        if failpoint::should_fail(failpoint::PROMOTE, core) {
            return None;
        }
        let mut guard = self.tree.lock_range_held(
            held.reborrow(),
            base,
            base + BLOCK_PAGES,
            LockMode::ExpandFolded,
        );
        // If this lock itself expanded a populated fold (a racing
        // promotion or giant mapping landed between the tick and the
        // lock), the expansion must run the demotion protocol before the
        // born-held locks release — reference adoption is only legal
        // here. The refold below then bails on the born units.
        self.demote_expanded(&mut guard);
        let mut pages = 0u64;
        let mut tracked = CoreSet::EMPTY;
        let mut tmpl: Option<(Backing, Prot, bool)> = None;
        let mut demoted: Option<FrameRef> = None;
        let mut scattered: Vec<FrameRef> = Vec::new();
        let mut ok = true;
        guard.for_each_entry_mut(|_, n, m| {
            pages += n;
            if n != 1 || m.kind != PageKind::Plain || m.backing != Backing::Anon {
                ok = false;
                return;
            }
            let key = (m.backing, m.prot, m.huge);
            match tmpl {
                None => tmpl = Some(key),
                Some(t) if t == key => {}
                Some(_) => ok = false,
            }
            tracked = tracked.union(m.coreset);
            match m.frame {
                Some(b) if b.order > 0 && scattered.is_empty() => match demoted {
                    None => demoted = Some(b),
                    Some(d) if d == b => {}
                    Some(_) => ok = false,
                },
                Some(p) if p.order == 0 && demoted.is_none() => scattered.push(p),
                _ => ok = false,
            }
        });
        if !ok || pages != BLOCK_PAGES {
            return None;
        }
        let (backing, prot, huge) = tmpl?;
        let writable = prot.writable();
        let pool = self.machine.pool();
        let (block, pte_base) = match demoted {
            Some(b) => {
                // Demoted shape: the fold takes over one of the 512
                // per-page references; the handle stays at whatever head
                // (of this span or a larger one) backs these pages.
                (b, block_member(b, base))
            }
            None => {
                // Scattered shape: migrate into a contiguous block.
                // Allocation failure is the graceful-degradation path —
                // stay at 4 KiB, retry after the next accumulation.
                let order = block_order(BLOCK_PAGES);
                let newbase = pool.try_alloc_block_held(&mut guard.token(), order).ok()?;
                // Copy before any reference is surrendered, under the
                // guard's slot locks: no fault can observe a half-
                // migrated page, and an unwind leaks nothing.
                // Old frames are live (their references are still
                // held), and the new block was just allocated.
                for (i, p) in scattered.iter().enumerate() {
                    pool.copy_frame(p.pfn, newbase + i as Pfn);
                    sim::charge_page_work();
                }
                (
                    pool.retain(&self.cache, &mut guard.token(), newbase, order, 1),
                    newbase,
                )
            }
        };
        let folded = PageMeta {
            backing,
            prot,
            kind: PageKind::Plain,
            frame: Some(block),
            huge,
            coreset: CoreSet::single(core),
        };
        let displaced = match guard.refold(folded) {
            Some(vals) => vals,
            None => {
                if demoted.is_none() {
                    // Unwind the migration: the fresh block frees whole.
                    pool.ref_surrender(&self.cache, &mut guard.token(), block, 1, BLOCK_PAGES);
                }
                return None;
            }
        };
        // Clear the 512 4 KiB PTEs and shoot down every tracked core;
        // the promoting core's own span entry is installed below. Frames
        // do not change (demoted) or stay live until the decs drain
        // through Refcache (scattered), so a racing access through a
        // not-yet-shot-down entry still reads correct memory.
        self.revoke(core, base, BLOCK_PAGES, &[(base, BLOCK_PAGES)], tracked);
        // Demoted shape: 512 references on one block head, of which the
        // folded value's handle adopts the first; scattered: 512 frames.
        let adopted = usize::from(demoted.is_some());
        let old = displaced.iter().filter_map(|m| m.frame).skip(adopted);
        self.settle_refs(&mut guard.token(), old.map(|f| (f, 1)), -1);
        let tr = self.install(core, vpn, pte_base, BLOCK_PAGES, writable);
        self.stats
            .add_core(&mut guard.token(), OpStats::superpage_promotions, 1);
        Some(tr)
    }
}

impl Drop for RadixVm {
    fn drop(&mut self) {
        // Unmap everything so physical pages return to the pool, then let
        // the tree give up its nodes.
        let mut held = self.cache.lock(0);
        let removed = self
            .tree
            .lock_range_held(held.reborrow(), 0, VPN_LIMIT, LockMode::ExpandFolded)
            .clear();
        self.unmap_tables(0, 0, VPN_LIMIT, &removed);
        self.release_frames(&mut held.cells(), &removed);
        self.machine.flush_asid(self.asid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A core's promotion cell ([`PerCore`]) is two lines.
    #[test]
    fn promote_counters_size_is_pinned() {
        assert_eq!(std::mem::size_of::<PromoteCounters>(), 128);
    }
}
