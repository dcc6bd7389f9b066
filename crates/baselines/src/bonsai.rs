//! The Bonsai-style baseline VM (Clements et al., ASPLOS 2012).
//!
//! Bonsai parallelized Linux's *page-fault* path: faults look up the
//! region index lock-free (an RCU-managed balanced tree), while `mmap`
//! and `munmap` still serialize on a single mutation lock. The paper
//! measures exactly this concurrency contract (§2, §5): Bonsai matches
//! RadixVM when the workload is fault-dominated (Metis with 8 MB
//! allocation units) and collapses to Linux-like behaviour when it is
//! mmap-dominated (64 KB units, or the local/pipeline microbenchmarks).
//!
//! Implementation: a persistent treap keyed by region start. Writers
//! (serialized) path-copy the affected `O(log n)` spine, publish the new
//! root with one atomic swap, and retire the old root through
//! crossbeam-epoch — readers walking the old version remain safe until
//! the grace period ends, at which point dropping the old root `Arc`
//! releases exactly the unshared nodes. Page-table-entry installation
//! takes a sharded PTE lock (Linux's per-leaf page-table lock), which
//! also orders fault-time TLB fills before a racing munmap's shootdown.

use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

use crossbeam::epoch::{self, Atomic, Owned};
use rvm_hw::{
    vpn_of, AccessKind, Asid, Backing, Machine, OpStats, PageTable, Prot, Pte, ShardedOpStats,
    SpaceUsage, Translation, Vaddr, VmError, VmResult, VmSystem, Vpn, VA_LIMIT,
};
use rvm_sync::atomic::AtomicCoreSet;
use rvm_sync::{sim, CachePadded, Mutex, SpinLock};

/// Number of sharded PTE locks (one per 512-page leaf group, hashed).
const PTL_SHARDS: usize = 1024;

/// Deterministic treap priority (splitmix64 of the start key).
fn prio(start: Vpn) -> u64 {
    let mut z = start.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A persistent treap node: one mapped region.
struct RNode {
    start: Vpn,
    end: Vpn,
    prot: Prot,
    backing: Backing,
    prio: u64,
    left: Link,
    right: Link,
}

type Link = Option<Arc<RNode>>;

/// One mapped region as `(start, end, prot, backing)`.
type Span = (Vpn, Vpn, Prot, Backing);

/// Reports a node visit to the simulator (readers share these lines;
/// writers' fresh copies force transfers — Bonsai's real cache behaviour).
#[inline]
fn visit(n: &Arc<RNode>) {
    sim::on_read(Arc::as_ptr(n) as usize);
}

fn mk(base: &RNode, left: Link, right: Link) -> Link {
    // Path copying allocates a node per rebuilt level; charged so the
    // comparison with allocation-free paths stays fair.
    sim::charge_alloc();
    Some(Arc::new(RNode {
        start: base.start,
        end: base.end,
        prot: base.prot,
        backing: base.backing,
        prio: base.prio,
        left,
        right,
    }))
}

/// Splits `t` into (starts < key, starts >= key) by path copying.
fn split(t: &Link, key: Vpn) -> (Link, Link) {
    match t {
        None => (None, None),
        Some(n) => {
            visit(n);
            if n.start < key {
                let (l, r) = split(&n.right, key);
                (mk(n, n.left.clone(), l), r)
            } else {
                let (l, r) = split(&n.left, key);
                (l, mk(n, r, n.right.clone()))
            }
        }
    }
}

/// Merges two treaps where every key of `l` precedes every key of `r`.
fn merge(l: Link, r: Link) -> Link {
    match (l, r) {
        (None, r) => r,
        (l, None) => l,
        (Some(a), Some(b)) => {
            visit(&a);
            visit(&b);
            if a.prio >= b.prio {
                let right = merge(a.right.clone(), Some(b));
                mk(&a, a.left.clone(), right)
            } else {
                let left = merge(Some(a), b.left.clone());
                mk(&b, left, b.right.clone())
            }
        }
    }
}

/// Inserts a region node (no overlap with existing keys).
fn insert(t: &Link, node: Arc<RNode>) -> Link {
    let (l, r) = split(t, node.start);
    merge(merge(l, Some(node)), r)
}

/// Finds the region containing `vpn`.
fn lookup(t: &Link, vpn: Vpn) -> Option<Span> {
    let mut cur = t;
    while let Some(n) = cur {
        visit(n);
        if vpn < n.start {
            cur = &n.left;
        } else if vpn >= n.end {
            cur = &n.right;
        } else {
            return Some((n.start, n.end, n.prot, n.backing));
        }
    }
    None
}

/// Collects the regions of `t` in order.
fn collect(t: &Link, out: &mut Vec<Span>) {
    if let Some(n) = t {
        collect(&n.left, out);
        out.push((n.start, n.end, n.prot, n.backing));
        collect(&n.right, out);
    }
}

fn region_node(start: Vpn, end: Vpn, prot: Prot, backing: Backing) -> Arc<RNode> {
    sim::charge_alloc();
    Arc::new(RNode {
        start,
        end,
        prot,
        backing,
        prio: prio(start),
        left: None,
        right: None,
    })
}

/// If a region straddles `key`, splits it into two nodes at `key`.
/// Returns the new tree and whether a split occurred.
fn split_region_at(t: Link, key: Vpn) -> (Link, bool) {
    match lookup(&t, key) {
        Some((start, end, prot, backing)) if start < key && end > key => {
            // Remove the straddler and insert the two halves.
            let (l, rest) = split(&t, start);
            let (_node, r) = split(&rest, start + 1);
            let t = merge(l, r);
            let t = insert(&t, region_node(start, key, prot, backing));
            (insert(&t, region_node(key, end, prot, backing)), true)
        }
        _ => (t, false),
    }
}

/// Removes coverage of `[lo, hi)`; returns the new tree, the removed
/// regions clipped to the range, and the net region-count delta.
fn carve(t: &Link, lo: Vpn, hi: Vpn) -> (Link, Vec<Span>, i64) {
    let (t, s1) = split_region_at(t.clone(), lo);
    let (t, s2) = split_region_at(t, hi);
    let (l, rest) = split(&t, lo);
    let (mid, r) = split(&rest, hi);
    let mut removed = Vec::new();
    collect(&mid, &mut removed);
    let delta = s1 as i64 + s2 as i64 - removed.len() as i64;
    (merge(l, r), removed, delta)
}

/// The epoch-retired root holder.
struct RootBox {
    tree: Link,
}

/// The Bonsai-style baseline address space.
pub struct BonsaiVm {
    machine: Arc<Machine>,
    asid: Asid,
    attached: AtomicCoreSet,
    /// Lock-free-readable root (RCU-style).
    root: Atomic<RootBox>,
    /// Serializes mmap / munmap / mprotect (the Bonsai contract).
    mutate: Mutex<()>,
    /// Sharded PTE locks (Linux page-table locks; short holds).
    ptl: Vec<CachePadded<SpinLock<()>>>,
    table: PageTable,
    regions: AtomicU64,
    /// Sharded per-core op counters.
    stats: ShardedOpStats,
}

impl BonsaiVm {
    /// Creates an empty address space on `machine`.
    pub fn new(machine: Arc<Machine>) -> Arc<BonsaiVm> {
        Arc::new(BonsaiVm {
            asid: machine.alloc_asid(),
            stats: ShardedOpStats::new(machine.ncores()),
            machine,
            attached: AtomicCoreSet::new(),
            root: Atomic::new(RootBox { tree: None }),
            mutate: Mutex::new(()),
            ptl: (0..PTL_SHARDS)
                .map(|_| CachePadded::new(SpinLock::new(())))
                .collect(),
            table: PageTable::new(),
            regions: AtomicU64::new(0),
        })
    }

    fn ptl_for(&self, vpn: Vpn) -> &SpinLock<()> {
        &self.ptl[((vpn >> 9) as usize) & (PTL_SHARDS - 1)]
    }

    /// Lock-free region lookup under an epoch guard.
    fn lookup_region(&self, vpn: Vpn) -> Option<Span> {
        let g = epoch::pin();
        let shared = self.root.load(std::sync::atomic::Ordering::Acquire, &g);
        sim::on_read(&self.root as *const _ as usize);
        // SAFETY: the root box is retired through the same epoch scheme,
        // so it outlives this pinned guard.
        let boxed = unsafe { shared.as_ref() }?;
        lookup(&boxed.tree, vpn)
    }

    /// Replaces the tree under the mutation lock; retires the old root.
    fn publish(&self, new_tree: Link, guard: &epoch::Guard) {
        sim::on_write(&self.root as *const _ as usize);
        let old = self.root.swap(
            Owned::new(RootBox { tree: new_tree }),
            std::sync::atomic::Ordering::AcqRel,
            guard,
        );
        // SAFETY: `old` was the published root; retiring it through the
        // epoch defers the drop (and the cascade of unshared tree nodes)
        // until all current readers unpin.
        unsafe { guard.defer_destroy(old) };
    }

    /// Clears PTEs for removed regions, broadcasts shootdowns, frees
    /// frames. Called after the new tree is published.
    fn cleanup_removed(&self, core: usize, lo: Vpn, n: u64, removed: &[Span]) {
        if removed.is_empty() {
            return;
        }
        let mut freed = Vec::new();
        for (start, end, _, _) in removed {
            for vpn in *start..*end {
                let _ptl = self.ptl_for(vpn).lock();
                let pte = self.table.clear(vpn);
                if pte.present() {
                    freed.push(pte.pfn());
                }
            }
        }
        crate::release_unmapped(&self.machine, core, self.asid, lo, n, &self.attached, freed);
    }
}

impl VmSystem for BonsaiVm {
    fn name(&self) -> &'static str {
        "Bonsai"
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
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        self.stats
            .add_core(&self.machine.locks().lock(core).cells(), OpStats::mmaps, 1);
        let backing = backing.anchored(lo);
        let _m = self.mutate.lock();
        let g = epoch::pin();
        let shared = self.root.load(std::sync::atomic::Ordering::Acquire, &g);
        // SAFETY: root boxes are epoch-retired; we hold a pin.
        let tree = unsafe { shared.as_ref() }.and_then(|b| b.tree.clone());
        let (tree, removed, delta) = carve(&tree, lo, lo + n);
        let tree = insert(&tree, region_node(lo, lo + n, prot, backing));
        self.regions.store(
            (self.regions.load(StdOrdering::Relaxed) as i64 + delta + 1).max(0) as u64,
            StdOrdering::Relaxed,
        );
        self.publish(tree, &g);
        self.cleanup_removed(core, lo, n, &removed);
        Ok(addr)
    }

    fn munmap(&self, core: usize, addr: Vaddr, len: u64) -> VmResult<()> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        self.stats.add_core(
            &self.machine.locks().lock(core).cells(),
            OpStats::munmaps,
            1,
        );
        let _m = self.mutate.lock();
        let g = epoch::pin();
        let shared = self.root.load(std::sync::atomic::Ordering::Acquire, &g);
        // SAFETY: as in `mmap`.
        let tree = unsafe { shared.as_ref() }.and_then(|b| b.tree.clone());
        let (tree, removed, delta) = carve(&tree, lo, lo + n);
        self.regions.store(
            (self.regions.load(StdOrdering::Relaxed) as i64 + delta).max(0) as u64,
            StdOrdering::Relaxed,
        );
        self.publish(tree, &g);
        self.cleanup_removed(core, lo, n, &removed);
        Ok(())
    }

    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation> {
        if va >= VA_LIMIT {
            return Err(VmError::BadRange);
        }
        sim::charge_op_base();
        self.attached.insert(core);
        let vpn = vpn_of(va);
        // Lock-free index lookup: the Bonsai contribution.
        let (_s, _e, prot, _b) = self.lookup_region(vpn).ok_or(VmError::NoMapping)?;
        prot.check(kind)?;
        // PTE install under the sharded page-table lock; revalidate the
        // region under the lock so a concurrent munmap either sees our
        // PTE or already removed the region.
        let ptl = self.ptl_for(vpn).lock();
        if self.lookup_region(vpn).is_none() {
            return Err(VmError::NoMapping);
        }
        let pool = self.machine.pool();
        let writable = prot.writable();
        let table = &self.table;
        let pte = table.get(vpn);
        let mut held = self.machine.locks().lock(core);
        let cells = &mut held.cells();
        let pfn = if pte.present() {
            self.stats.add_core(cells, OpStats::faults_fill, 1);
            pte.pfn()
        } else {
            // Fallible allocation: on OutOfMemory the early return drops
            // the page-table lock with nothing installed (exact unwind).
            let pfn = self.machine.fault_frame(cells, &self.stats)?;
            self.stats.add_core(cells, OpStats::faults_alloc, 1);
            pool.inc_map(pfn);
            table.set(vpn, Pte::new(pfn, writable));
            pfn
        };
        let pte = Pte::new(pfn, writable);
        let tr = self.machine.fill_tlb(core, self.asid, vpn, pte);
        drop(ptl);
        Ok(tr)
    }

    fn mprotect(&self, core: usize, addr: Vaddr, len: u64, prot: Prot) -> VmResult<()> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        let _m = self.mutate.lock();
        let g = epoch::pin();
        let shared = self.root.load(std::sync::atomic::Ordering::Acquire, &g);
        // SAFETY: as in `mmap`.
        let tree = unsafe { shared.as_ref() }.and_then(|b| b.tree.clone());
        let (mut tree, removed, delta) = carve(&tree, lo, lo + n);
        if removed.is_empty() {
            return Err(VmError::NoMapping);
        }
        self.regions.store(
            (self.regions.load(StdOrdering::Relaxed) as i64 + delta + removed.len() as i64).max(0)
                as u64,
            StdOrdering::Relaxed,
        );
        for (start, end, _, backing) in &removed {
            tree = insert(&tree, region_node(*start, *end, prot, *backing));
        }
        self.publish(tree, &g);
        self.cleanup_removed(core, lo, n, &removed);
        Ok(())
    }

    fn op_stats(&self) -> OpStats {
        self.stats.snapshot()
    }

    fn quiesce(&self) {
        // Bonsai frees frames eagerly; only remote frees parked in the
        // pool's outbound magazines remain to return home.
        self.machine.pool().flush_magazines();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn space_usage(&self) -> SpaceUsage {
        let node_bytes = std::mem::size_of::<RNode>() as u64 + 16; // + Arc header
        SpaceUsage {
            index_bytes: self.regions.load(StdOrdering::Relaxed) * node_bytes,
            pagetable_bytes: self.table.bytes(),
        }
    }
}

impl Drop for BonsaiVm {
    fn drop(&mut self) {
        // Free mapped frames.
        let g = epoch::pin();
        let shared = self.root.load(std::sync::atomic::Ordering::Acquire, &g);
        // SAFETY: exclusive access in Drop.
        if let Some(boxed) = unsafe { shared.as_ref() } {
            let mut regions = Vec::new();
            collect(&boxed.tree, &mut regions);
            self.cleanup_removed(0, 0, 0, &regions);
        }
        self.machine.flush_asid(self.asid);
        // Reclaim the final root box directly (no readers remain).
        let old = self.root.swap(
            epoch::Shared::null(),
            std::sync::atomic::Ordering::AcqRel,
            &g,
        );
        if !old.is_null() {
            // SAFETY: exclusive access; no other thread can observe `old`.
            drop(unsafe { old.into_owned() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_hw::PAGE_SIZE;

    const BASE: u64 = 0x30_0000_0000;

    fn setup(ncores: usize) -> (Arc<Machine>, Arc<BonsaiVm>) {
        let m = Machine::new(ncores);
        let vm = BonsaiVm::new(m.clone());
        for c in 0..ncores {
            vm.attach_core(c);
        }
        (m, vm)
    }

    #[test]
    fn treap_carve_and_lookup() {
        let t = insert(&None, region_node(10, 20, Prot::RW, Backing::Anon));
        let t = insert(&t, region_node(30, 40, Prot::RW, Backing::Anon));
        assert!(lookup(&t, 15).is_some());
        assert!(lookup(&t, 25).is_none());
        let (t, removed, _delta) = carve(&t, 15, 35);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].0, 15);
        assert_eq!(removed[0].1, 20);
        assert_eq!(removed[1].0, 30);
        assert_eq!(removed[1].1, 35);
        assert!(lookup(&t, 12).is_some());
        assert!(lookup(&t, 16).is_none());
        assert!(lookup(&t, 37).is_some());
    }

    #[test]
    fn treap_many_regions_balanced() {
        let mut t = None;
        for i in 0..1000u64 {
            t = insert(&t, region_node(i * 10, i * 10 + 5, Prot::RW, Backing::Anon));
        }
        for i in 0..1000u64 {
            assert!(lookup(&t, i * 10 + 2).is_some());
            assert!(lookup(&t, i * 10 + 7).is_none());
        }
    }

    #[test]
    fn map_access_unmap() {
        let (m, vm) = setup(2);
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 5).unwrap();
        assert_eq!(m.read_u64(1, &*vm, BASE).unwrap(), 5);
        vm.munmap(0, BASE, 4 * PAGE_SIZE).unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE), Err(VmError::NoMapping));
    }

    #[test]
    fn broadcast_shootdown_on_unmap() {
        let (m, vm) = setup(4);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.touch_page(0, &*vm, BASE, 1).unwrap();
        vm.munmap(0, BASE, PAGE_SIZE).unwrap();
        assert_eq!(m.stats().shootdown_ipis, 3);
    }

    #[test]
    fn faults_run_alongside_mutations() {
        // Readers fault on a stable region while a writer churns another:
        // the RCU contract (fault never blocks on the mutation lock).
        let (m, vm) = setup(4);
        vm.mmap(0, BASE, 64 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for core in 1..4usize {
            let m = m.clone();
            let vm = vm.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(StdOrdering::Relaxed) {
                    let va = BASE + (i % 64) * PAGE_SIZE;
                    m.write_u64(core, &*vm, va, i).unwrap();
                    i += 1;
                }
            }));
        }
        for i in 0..200u64 {
            let far = BASE + (1 << 30) + (i % 16) * PAGE_SIZE;
            vm.mmap(0, far, PAGE_SIZE, Prot::RW, Backing::Anon).unwrap();
            m.touch_page(0, &*vm, far, 1).unwrap();
            vm.munmap(0, far, PAGE_SIZE).unwrap();
        }
        stop.store(true, StdOrdering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.stats().stale_detected, 0);
    }

    #[test]
    fn overlapping_map_unmap_races() {
        let (m, vm) = setup(4);
        let mut handles = Vec::new();
        for core in 0..4usize {
            let m = m.clone();
            let vm = vm.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..150u64 {
                    let _ = vm.mmap(core, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon);
                    for p in 0..4u64 {
                        match m.write_u64(core, &*vm, BASE + p * PAGE_SIZE, i) {
                            Ok(()) | Err(VmError::NoMapping) => {}
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                    let _ = vm.munmap(core, BASE, 4 * PAGE_SIZE);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.stats().stale_detected, 0);
    }

    #[test]
    fn space_usage_counts_regions() {
        let (_m, vm) = setup(1);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        vm.mmap(0, BASE + (1 << 20), PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        assert!(vm.space_usage().index_bytes > 0);
    }
}
