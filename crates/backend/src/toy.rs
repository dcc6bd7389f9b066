//! The simplest possible correct backend: one mutex, one per-page map.
//!
//! `ToyVm` exists for two reasons. It is the executable specification of
//! the [`VmSystem`] contract — every operation is a few obvious lines, so
//! when a scalable backend and `ToyVm` disagree, the scalable backend is
//! wrong. And it is the conformance suite's baseline: the backend layer
//! promises that *any* `BackendKind` sustains the same
//! mmap→write→read→munmap→fault-after-unmap lifecycle, and `ToyVm` keeps
//! that promise with the least machinery that can.
//!
//! It scales like what it is (a global lock); nothing performance-related
//! should ever be measured against it.

use std::collections::BTreeMap;
use std::sync::Arc;

use rvm_hw::{
    vpn_of, AccessKind, Asid, Backing, Machine, OpStats, Prot, Pte, ShardedOpStats, SpaceUsage,
    Translation, Vaddr, VmError, VmResult, VmSystem, Vpn, VA_LIMIT,
};
use rvm_mem::Pfn;
use rvm_sync::atomic::AtomicCoreSet;
use rvm_sync::{sim, Mutex};

/// Per-page state: protection plus the lazily allocated frame.
#[derive(Clone, Copy)]
struct Page {
    prot: Prot,
    pfn: Option<Pfn>,
}

/// The reference backend (see module docs).
pub struct ToyVm {
    machine: Arc<Machine>,
    asid: Asid,
    attached: AtomicCoreSet,
    pages: Mutex<BTreeMap<Vpn, Page>>,
    /// Sharded per-core op counters.
    stats: ShardedOpStats,
}

impl ToyVm {
    /// Creates an empty address space on `machine`.
    pub fn new(machine: Arc<Machine>) -> Arc<ToyVm> {
        Arc::new(ToyVm {
            asid: machine.alloc_asid(),
            stats: ShardedOpStats::new(machine.ncores()),
            machine,
            attached: AtomicCoreSet::new(),
            pages: Mutex::new(BTreeMap::new()),
        })
    }

    /// Removes `[lo, lo + n)` from the map, shoots the range down on all
    /// attached cores, and frees the displaced frames. Caller holds the
    /// map lock via `pages`.
    fn remove_range(&self, core: usize, pages: &mut BTreeMap<Vpn, Page>, lo: Vpn, n: u64) {
        let mut freed = Vec::new();
        for vpn in lo..lo + n {
            if let Some(page) = pages.remove(&vpn) {
                if let Some(pfn) = page.pfn {
                    freed.push(pfn);
                }
            }
        }
        // Only faulted pages can be in any TLB, so a removal that freed
        // no frames needs no shootdown. When one is needed it broadcasts:
        // the toy backend tracks no fault sets. Holding the map lock
        // across the shootdown orders it against concurrent faults of the
        // same pages, exactly as the contract requires.
        if freed.is_empty() {
            return;
        }
        self.machine
            .shootdown(core, self.asid, lo, n, self.attached.load());
        for pfn in freed {
            self.machine.pool().free(core, pfn);
        }
    }
}

impl VmSystem for ToyVm {
    fn name(&self) -> &'static str {
        "Toy"
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
        let _ = backing; // all backings are demand-zero in the simulation
        let mut pages = self.pages.lock();
        self.remove_range(core, &mut pages, lo, n);
        for vpn in lo..lo + n {
            pages.insert(vpn, Page { prot, pfn: None });
        }
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
        let mut pages = self.pages.lock();
        self.remove_range(core, &mut pages, lo, n);
        Ok(())
    }

    fn pagefault(&self, core: usize, va: Vaddr, kind: AccessKind) -> VmResult<Translation> {
        if va >= VA_LIMIT {
            return Err(VmError::BadRange);
        }
        sim::charge_op_base();
        self.attached.insert(core);
        let vpn = vpn_of(va);
        let mut pages = self.pages.lock();
        let page = pages.get_mut(&vpn).ok_or(VmError::NoMapping)?;
        page.prot.check(kind)?;
        let mut held = self.machine.locks().lock(core);
        let cells = &mut held.cells();
        let pfn = match page.pfn {
            Some(pfn) => {
                self.stats.add_core(cells, OpStats::faults_fill, 1);
                pfn
            }
            None => {
                // Fallible allocation: the early return drops the map
                // lock with the page still unpopulated (exact unwind).
                let pfn = self.machine.fault_frame(cells, &self.stats)?;
                self.stats.add_core(cells, OpStats::faults_alloc, 1);
                page.pfn = Some(pfn);
                pfn
            }
        };
        // Fill while holding the map lock: serializes against munmap's
        // shootdown of the same page.
        let pte = Pte::new(pfn, page.prot.writable());
        Ok(self.machine.fill_tlb(core, self.asid, vpn, pte))
    }

    fn mprotect(&self, core: usize, addr: Vaddr, len: u64, prot: Prot) -> VmResult<()> {
        sim::charge_op_base();
        let (lo, n) = rvm_hw::check_range(addr, len)?;
        let mut pages = self.pages.lock();
        // Same contract as every other backend: update the mapped subset
        // of the range; error only when nothing in the range is mapped.
        let mut updated = 0u64;
        let mut any_faulted = false;
        for vpn in lo..lo + n {
            if let Some(page) = pages.get_mut(&vpn) {
                page.prot = prot;
                updated += 1;
                any_faulted |= page.pfn.is_some();
            }
        }
        if updated == 0 {
            return Err(VmError::NoMapping);
        }
        // Revoke cached translations so downgraded protections take
        // effect; the next access refaults with the new protection. Only
        // faulted pages can have TLB entries.
        if any_faulted {
            self.machine
                .shootdown(core, self.asid, lo, n, self.attached.load());
        }
        Ok(())
    }

    fn op_stats(&self) -> OpStats {
        self.stats.snapshot()
    }

    fn quiesce(&self) {
        // The toy backend frees eagerly; only remote frees parked in the
        // pool's outbound magazines remain to return home.
        self.machine.pool().flush_magazines();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn space_usage(&self) -> SpaceUsage {
        let entries = self.pages.lock().len() as u64;
        SpaceUsage {
            // One BTreeMap entry per page; no separate hardware tables
            // (the TLB is filled straight from the map).
            index_bytes: entries * (std::mem::size_of::<(Vpn, Page)>() as u64 + 16),
            pagetable_bytes: 0,
        }
    }
}

impl Drop for ToyVm {
    fn drop(&mut self) {
        let mut pages = self.pages.lock();
        let frames: Vec<Pfn> = pages.values().filter_map(|p| p.pfn).collect();
        pages.clear();
        drop(pages);
        self.machine.flush_asid(self.asid);
        for pfn in frames {
            self.machine.pool().free(0, pfn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_hw::PAGE_SIZE;

    const BASE: u64 = 0x11_0000_0000;

    #[test]
    fn lifecycle_and_protection() {
        let m = Machine::new(2);
        let vm = ToyVm::new(m.clone());
        vm.attach_core(0);
        vm.attach_core(1);
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 3).unwrap();
        assert_eq!(m.read_u64(1, &*vm, BASE).unwrap(), 3);
        vm.mprotect(0, BASE, 4 * PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(m.write_u64(0, &*vm, BASE, 4), Err(VmError::ProtViolation));
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 3);
        vm.munmap(0, BASE, 4 * PAGE_SIZE).unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE), Err(VmError::NoMapping));
        assert_eq!(m.read_u64(1, &*vm, BASE), Err(VmError::NoMapping));
    }

    #[test]
    fn frames_freed_on_munmap_and_drop() {
        let m = Machine::new(1);
        {
            let vm = ToyVm::new(m.clone());
            vm.attach_core(0);
            vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            for p in 0..4u64 {
                m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
            }
            vm.munmap(0, BASE, 2 * PAGE_SIZE).unwrap();
            let st = m.pool().stats();
            assert_eq!(st.free_pages, 2);
            // Two pages still mapped at drop time.
        }
        let st = m.pool().stats();
        assert_eq!(st.free_pages, 4);
    }

    #[test]
    fn mmap_over_existing_replaces() {
        let m = Machine::new(1);
        let vm = ToyVm::new(m.clone());
        vm.attach_core(0);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 77).unwrap();
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 0, "fresh demand-zero");
    }

    #[test]
    fn bad_ranges_rejected() {
        let m = Machine::new(1);
        let vm = ToyVm::new(m);
        assert_eq!(
            vm.mmap(0, BASE + 1, PAGE_SIZE, Prot::RW, Backing::Anon),
            Err(VmError::BadRange)
        );
        assert_eq!(vm.munmap(0, BASE, 0), Err(VmError::BadRange));
    }
}
