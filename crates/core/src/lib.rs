//! RadixVM: scalable address spaces for multithreaded applications.
//!
//! The core crate of this reproduction of [Clements et al., EuroSys 2013].
//! A [`RadixVm`] address space combines the three mechanisms the paper
//! introduces:
//!
//! 1. a radix tree over virtual page numbers holding per-page mapping
//!    metadata with precise range locking (`rvm_radix`),
//! 2. Refcache for physical pages and radix nodes (`rvm_refcache`), and
//! 3. per-core page tables with targeted TLB shootdown (`rvm_hw`),
//!
//! so that mmap, munmap, and pagefault on non-overlapping regions of a
//! shared address space proceed with **zero contended cache lines** and
//! no unnecessary shootdown IPIs.
//!
//! # Example
//!
//! ```
//! use rvm_core::{RadixVm, RadixVmConfig};
//! use rvm_hw::{Backing, Machine, Prot, VmSystem, PAGE_SIZE};
//!
//! let machine = Machine::new(4);
//! let vm = RadixVm::new(machine.clone(), RadixVmConfig::default());
//! vm.attach_core(0);
//! let addr = 0x7000_0000;
//! vm.mmap(0, addr, 4 * PAGE_SIZE, Prot::RW, Backing::Anon).unwrap();
//! machine.write_u64(0, &*vm, addr, 42).unwrap();
//! assert_eq!(machine.read_u64(0, &*vm, addr).unwrap(), 42);
//! vm.munmap(0, addr, 4 * PAGE_SIZE).unwrap();
//! assert!(machine.read_u64(0, &*vm, addr).is_err());
//! ```
//!
//! [Clements et al., EuroSys 2013]: https://pdos.csail.mit.edu/papers/radixvm:eurosys13.pdf

pub mod meta;
pub mod vm;

pub use meta::{PageKind, PageMeta};
pub use vm::{RadixVm, RadixVmConfig, VmOpStats};

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_hw::{Backing, Machine, MmuKind, Prot, VmError, VmSystem, PAGE_SIZE};
    use std::sync::Arc;

    fn setup(ncores: usize) -> (Arc<Machine>, Arc<RadixVm>) {
        let machine = Machine::new(ncores);
        let vm = RadixVm::new(machine.clone(), RadixVmConfig::default());
        for c in 0..ncores {
            vm.attach_core(c);
        }
        (machine, vm)
    }

    const BASE: u64 = 0x10_0000_0000;

    #[test]
    fn mmap_write_read_munmap() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        for i in 0..8u64 {
            m.write_u64(0, &*vm, BASE + i * PAGE_SIZE, i + 100).unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(m.read_u64(0, &*vm, BASE + i * PAGE_SIZE).unwrap(), i + 100);
        }
        vm.munmap(0, BASE, 8 * PAGE_SIZE).unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE), Err(VmError::NoMapping));
        let st = vm.op_stats();
        assert_eq!(st.mmaps, 1);
        assert_eq!(st.munmaps, 1);
        assert_eq!(st.faults_alloc, 8);
    }

    #[test]
    fn demand_zero_and_lazy_allocation() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, 64 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        // No physical pages yet.
        assert_eq!(vm.op_stats().faults_alloc, 0);
        assert_eq!(m.pool().total_frames(), 0);
        // First read demand-zeroes.
        assert_eq!(m.read_u64(0, &*vm, BASE + 5 * PAGE_SIZE).unwrap(), 0);
        assert_eq!(vm.op_stats().faults_alloc, 1);
    }

    #[test]
    fn frames_freed_after_munmap() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        for i in 0..4u64 {
            m.write_u64(0, &*vm, BASE + i * PAGE_SIZE, 1).unwrap();
        }
        vm.munmap(0, BASE, 4 * PAGE_SIZE).unwrap();
        vm.cache().quiesce();
        let st = m.pool().stats();
        assert_eq!(st.free_pages, 4, "all frames returned");
    }

    #[test]
    fn bad_ranges_rejected() {
        let (_m, vm) = setup(1);
        assert_eq!(
            vm.mmap(0, BASE + 1, PAGE_SIZE, Prot::RW, Backing::Anon),
            Err(VmError::BadRange)
        );
        assert_eq!(
            vm.mmap(0, BASE, PAGE_SIZE + 7, Prot::RW, Backing::Anon),
            Err(VmError::BadRange)
        );
        assert_eq!(
            vm.mmap(0, BASE, 0, Prot::RW, Backing::Anon),
            Err(VmError::BadRange)
        );
        assert_eq!(vm.munmap(0, BASE, 0), Err(VmError::BadRange));
        assert_eq!(
            vm.mmap(
                0,
                (1 << 48) - PAGE_SIZE,
                2 * PAGE_SIZE,
                Prot::RW,
                Backing::Anon
            ),
            Err(VmError::BadRange)
        );
    }

    #[test]
    fn protection_enforced() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::READ, Backing::Anon)
            .unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 0);
        assert_eq!(m.write_u64(0, &*vm, BASE, 1), Err(VmError::ProtViolation));
    }

    #[test]
    fn mprotect_revokes_and_refaults() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, 2 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 7).unwrap();
        vm.mprotect(0, BASE, 2 * PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(m.write_u64(0, &*vm, BASE, 8), Err(VmError::ProtViolation));
        assert_eq!(
            m.read_u64(0, &*vm, BASE).unwrap(),
            7,
            "data survives mprotect"
        );
        vm.mprotect(0, BASE, 2 * PAGE_SIZE, Prot::RW).unwrap();
        m.write_u64(0, &*vm, BASE, 8).unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 8);
        // mprotect of unmapped space fails.
        assert_eq!(
            vm.mprotect(0, BASE + (1 << 30), PAGE_SIZE, Prot::READ),
            Err(VmError::NoMapping)
        );
    }

    #[test]
    fn large_mapping_folds_without_leaves() {
        let (_m, vm) = setup(1);
        // 512 pages, aligned: must fold into one interior slot.
        let aligned = 512 * PAGE_SIZE * 4;
        vm.mmap(0, aligned, 512 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        let ts = vm.tree_stats();
        assert_eq!(ts.leaf_nodes(), 0);
        assert_eq!(ts.folded_values(), 1);
    }

    #[test]
    fn mmap_replaces_existing_mapping() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 111).unwrap();
        // Remap over it: old contents must be gone (fresh demand-zero).
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 0);
        vm.cache().quiesce();
        assert_eq!(m.pool().stats().free_pages, 1, "displaced frame freed");
    }

    #[test]
    fn local_pattern_sends_no_shootdowns() {
        // The paper's headline (§5.3): thread-local mmap/touch/munmap on
        // one core must send zero shootdown IPIs.
        let (m, vm) = setup(4);
        for i in 0..50u64 {
            let addr = BASE + i * PAGE_SIZE;
            vm.mmap(2, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            m.touch_page(2, &*vm, addr, 0xAB).unwrap();
            vm.munmap(2, addr, PAGE_SIZE).unwrap();
            vm.maintain(2);
        }
        assert_eq!(m.stats().shootdown_ipis, 0, "local pattern must not IPI");
        assert_eq!(m.stats().shootdown_rounds, 0);
    }

    #[test]
    fn pipeline_pattern_one_remote_shootdown_per_munmap() {
        // Core 0 maps+touches, core 1 touches then unmaps: exactly one
        // remote IPI per munmap (to core 0).
        let (m, vm) = setup(2);
        let iters = 20u64;
        for i in 0..iters {
            let addr = BASE + i * PAGE_SIZE;
            vm.mmap(0, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            m.touch_page(0, &*vm, addr, 1).unwrap();
            m.touch_page(1, &*vm, addr, 2).unwrap();
            vm.munmap(1, addr, PAGE_SIZE).unwrap();
        }
        assert_eq!(
            m.stats().shootdown_ipis,
            iters,
            "exactly one IPI per munmap"
        );
    }

    /// Whose TLBs a `munmap` shoots down is the address space's choice:
    /// with per-core tables the cores that faulted the page, with a
    /// shared table every attached core (but the sender), faulted or not.
    /// The same holds for the demotion a hole in a superpage takes first:
    /// it keeps every translation, so only this count shows a span
    /// shootdown that missed a core.
    #[test]
    fn munmap_targets_tracked_cores_or_every_attached_one() {
        for (mmu, ipis) in [(MmuKind::PerCore, 1), (MmuKind::Shared, 2)] {
            // Four cores, three attached: core 3 is never a target.
            let machine = Machine::new(4);
            let cfg = RadixVmConfig {
                mmu,
                ..Default::default()
            };
            let vm = RadixVm::new(machine.clone(), cfg);
            for c in 0..3 {
                vm.attach_core(c);
            }
            let block = BASE + BLOCK_BYTES;
            vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            huge_map(&vm, 0, block, 1);
            for va in [BASE, block] {
                machine.write_u64(0, &*vm, va, 1).unwrap();
                if mmu == MmuKind::PerCore {
                    // Tracked: cores 0 and 2, so one IPI (to core 2).
                    machine.read_u64(2, &*vm, va).unwrap();
                }
            }
            let before = machine.stats();
            vm.munmap(0, BASE, PAGE_SIZE).unwrap();
            let after = machine.stats();
            assert_eq!(
                after.shootdown_ipis - before.shootdown_ipis,
                ipis,
                "{mmu:?}"
            );
            // A 16-page hole: one round for the demotion, one for the hole.
            vm.munmap(0, block + 64 * PAGE_SIZE, 16 * PAGE_SIZE)
                .unwrap();
            let holed = machine.stats();
            assert_eq!(vm.op_stats().superpage_demotions, 1, "{mmu:?}");
            assert_eq!(
                holed.shootdown_rounds - after.shootdown_rounds,
                2,
                "{mmu:?}"
            );
            assert_eq!(
                holed.shootdown_ipis - after.shootdown_ipis,
                2 * ipis,
                "{mmu:?}"
            );
        }
    }

    #[test]
    fn shared_pagetable_fill_bypasses_metadata() {
        let machine = Machine::new(2);
        let vm = RadixVm::new(
            machine.clone(),
            RadixVmConfig {
                mmu: MmuKind::Shared,
                collapse: true,
                ..Default::default()
            },
        );
        vm.attach_core(0);
        vm.attach_core(1);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, BASE, 5).unwrap();
        // Core 1's access is a hardware-style fill (PTE already present).
        assert_eq!(machine.read_u64(1, &*vm, BASE).unwrap(), 5);
        let st = vm.op_stats();
        assert_eq!(st.faults_alloc, 1);
        assert_eq!(st.faults_fill, 1);
    }

    #[test]
    fn percore_tables_fill_fault_per_core() {
        let (m, vm) = setup(3);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 9).unwrap();
        assert_eq!(m.read_u64(1, &*vm, BASE).unwrap(), 9);
        assert_eq!(m.read_u64(2, &*vm, BASE).unwrap(), 9);
        let st = vm.op_stats();
        assert_eq!(st.faults_alloc, 1);
        assert_eq!(st.faults_fill, 2, "each core takes its own fill fault");
    }

    #[test]
    fn missed_shootdown_detected_by_generations() {
        // Failure injection: with shootdowns suppressed, a stale TLB entry
        // must be *detected* at the access, not silently corrupt memory.
        failpoint::disarm_all();
        failpoint::arm(failpoint::SHOOTDOWN, 0, Trigger::EveryK(1));
        let machine = Machine::new(2);
        let vm = RadixVm::new(machine.clone(), RadixVmConfig::default());
        vm.attach_core(0);
        vm.attach_core(1);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(1, &*vm, BASE, 7).unwrap(); // core 1 caches it
        vm.munmap(0, BASE, PAGE_SIZE).unwrap(); // shootdown suppressed
        vm.cache().quiesce(); // frame actually freed
        assert_eq!(
            machine.read_u64(1, &*vm, BASE),
            Err(VmError::StaleTranslation)
        );
        assert!(machine.stats().stale_detected >= 1);
        assert!(machine.stats().shootdowns_suppressed >= 1);
        failpoint::disarm_all();
    }

    #[test]
    fn fork_shares_then_isolates() {
        let (m, vm) = setup(2);
        vm.mmap(0, BASE, 2 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 42).unwrap();
        m.write_u64(0, &*vm, BASE + PAGE_SIZE, 43).unwrap();
        let child = vm.fork(0);
        child.attach_core(0);
        child.attach_core(1);
        // Child sees parent's data (shared frames).
        assert_eq!(m.read_u64(1, &*child, BASE).unwrap(), 42);
        assert_eq!(vm.op_stats().faults_alloc, 2);
        // Child write triggers copy-on-write; parent unaffected.
        m.write_u64(1, &*child, BASE, 99).unwrap();
        assert_eq!(child.op_stats().faults_cow, 1);
        assert_eq!(m.read_u64(1, &*child, BASE).unwrap(), 99);
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 42);
        // Parent write to the other page also copies; child keeps 43.
        m.write_u64(0, &*vm, BASE + PAGE_SIZE, 44).unwrap();
        assert_eq!(m.read_u64(0, &*vm, BASE + PAGE_SIZE).unwrap(), 44);
        assert_eq!(m.read_u64(1, &*child, BASE + PAGE_SIZE).unwrap(), 43);
        // Each copier's value holds one handle, on a private order-0
        // frame, and each source lost exactly one reference: not two
        // (nothing frees yet), not none (its other holder's unmap alone
        // frees it).
        let vpn = BASE / PAGE_SIZE;
        for page in 0..2 {
            let ours = vm.meta_at(0, vpn + page).unwrap().frame.unwrap();
            let theirs = child.meta_at(1, vpn + page).unwrap().frame.unwrap();
            assert_eq!((ours.order, theirs.order), (0, 0));
            assert_ne!(ours.pfn, theirs.pfn, "page {page} still shared");
        }
        let freed = || {
            vm.quiesce();
            let st = m.pool().stats();
            st.free_pages
        };
        assert_eq!(freed(), 0, "a source lost more than the copier's one");
        vm.munmap(0, BASE, PAGE_SIZE).unwrap();
        assert_eq!(freed(), 1, "page 0's source: the parent held the last");
        child.munmap(1, BASE + PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(freed(), 2, "page 1's source: the child held the last");
    }

    #[test]
    fn fork_frame_accounting() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.write_u64(0, &*vm, BASE, 1).unwrap();
        let child = vm.fork(0);
        child.attach_core(0);
        // Unmap in both; the shared frame must be freed exactly once.
        vm.munmap(0, BASE, PAGE_SIZE).unwrap();
        child.munmap(0, BASE, PAGE_SIZE).unwrap();
        vm.cache().quiesce();
        let st = m.pool().stats();
        assert_eq!(st.free_pages, 1);
    }

    #[test]
    fn file_backed_mapping_folds_and_reads_zero() {
        let (m, vm) = setup(1);
        vm.mmap(
            0,
            BASE,
            512 * PAGE_SIZE,
            Prot::READ,
            Backing::File {
                file: 3,
                offset_pages: 16,
            },
        )
        .unwrap();
        // File pages are demand-zero in this simulation (no filesystem);
        // what matters is that the per-page metadata is identical and the
        // mapping folds when aligned.
        assert_eq!(m.read_u64(0, &*vm, BASE + 100 * PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn space_usage_reports_both_components() {
        let (m, vm) = setup(2);
        vm.mmap(0, BASE, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.touch_page(0, &*vm, BASE, 1).unwrap();
        m.touch_page(1, &*vm, BASE + PAGE_SIZE, 1).unwrap();
        let u = vm.space_usage();
        assert!(u.index_bytes > 0);
        assert!(u.pagetable_bytes > 0);
        // Per-core tables cost more than one shared table would.
        let shared = RadixVm::new(
            m.clone(),
            RadixVmConfig {
                mmu: MmuKind::Shared,
                collapse: true,
                ..Default::default()
            },
        );
        shared.attach_core(0);
        shared
            .mmap(0, BASE, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        m.touch_page(0, &*shared, BASE, 1).unwrap();
        assert!(shared.space_usage().pagetable_bytes <= u.pagetable_bytes);
    }

    #[test]
    fn concurrent_disjoint_churn() {
        let (m, vm) = setup(4);
        let mut handles = Vec::new();
        for core in 0..4usize {
            let m = m.clone();
            let vm = vm.clone();
            handles.push(std::thread::spawn(move || {
                let base = BASE + core as u64 * (1 << 30);
                for i in 0..300u64 {
                    let addr = base + (i % 7) * 4 * PAGE_SIZE;
                    vm.mmap(core, addr, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
                        .unwrap();
                    for p in 0..4u64 {
                        m.write_u64(core, &*vm, addr + p * PAGE_SIZE, i).unwrap();
                    }
                    for p in 0..4u64 {
                        assert_eq!(m.read_u64(core, &*vm, addr + p * PAGE_SIZE).unwrap(), i);
                    }
                    vm.munmap(core, addr, 4 * PAGE_SIZE).unwrap();
                    if i % 50 == 0 {
                        vm.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No cross-core IPIs: regions were disjoint and accessed locally.
        assert_eq!(m.stats().shootdown_ipis, 0);
        vm.cache().quiesce();
    }

    #[test]
    fn concurrent_overlapping_survives() {
        // All threads fight over the same 8 pages; serialization via the
        // range locks must keep the VM consistent (no panics, no stale
        // translations).
        let (m, vm) = setup(4);
        let mut handles = Vec::new();
        for core in 0..4usize {
            let m = m.clone();
            let vm = vm.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let _ = vm.mmap(core, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon);
                    for p in 0..8u64 {
                        match m.write_u64(core, &*vm, BASE + p * PAGE_SIZE, i) {
                            Ok(()) | Err(VmError::NoMapping) => {}
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    let _ = vm.munmap(core, BASE, 8 * PAGE_SIZE);
                    if i % 50 == 0 {
                        vm.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.stats().stale_detected, 0, "no stale translations ever");
    }

    #[test]
    fn drop_releases_all_frames() {
        let machine = Machine::new(2);
        {
            let vm = RadixVm::new(machine.clone(), RadixVmConfig::default());
            vm.attach_core(0);
            vm.mmap(0, BASE, 32 * PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            for i in 0..32u64 {
                machine.write_u64(0, &*vm, BASE + i * PAGE_SIZE, i).unwrap();
            }
            // Dropped with mappings still live.
        }
        let st = machine.pool().stats();
        assert_eq!(st.free_pages, 32, "drop reclaims frames");
    }

    // --- Superpage (variable-granularity) tests: DESIGN.md §7 ---

    use rvm_hw::{MapFlags, BLOCK_PAGES};

    /// Bytes of one superpage block.
    const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;

    fn huge_map(vm: &RadixVm, core: usize, addr: u64, blocks: u64) {
        vm.mmap_flags(
            core,
            addr,
            blocks * BLOCK_BYTES,
            Prot::RW,
            Backing::Anon,
            MapFlags::HUGE,
        )
        .unwrap();
    }

    #[test]
    fn huge_hint_populates_whole_block_with_one_fault() {
        let (m, vm) = setup(1);
        huge_map(&vm, 0, BASE, 1);
        for p in 0..BLOCK_PAGES {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p + 1).unwrap();
        }
        let st = vm.op_stats();
        assert_eq!(
            st.faults_alloc + st.faults_fill + st.faults_cow,
            1,
            "populating a hinted block must take exactly one fault"
        );
        assert_eq!(st.superpage_installs, 1);
        assert_eq!(st.superpage_demotions, 0);
        // One contiguous frame block, one Refcache object worth of
        // backing — and the mapping metadata stays folded.
        assert_eq!(m.pool().stats().block_allocs, 1);
        assert_eq!(vm.tree_stats().leaf_nodes(), 0, "fold survives faults");
        assert_eq!(vm.tree_stats().folded_values(), 1);
        for p in (0..BLOCK_PAGES).step_by(37) {
            assert_eq!(m.read_u64(0, &*vm, BASE + p * PAGE_SIZE).unwrap(), p + 1);
        }
        // Full-block unmap releases the whole block through Refcache.
        vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
        assert!(m.read_u64(0, &*vm, BASE).is_err());
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 1);
    }

    #[test]
    fn unhinted_folded_mapping_stays_4k() {
        let (m, vm) = setup(1);
        vm.mmap(0, BASE, BLOCK_BYTES, Prot::RW, Backing::Anon)
            .unwrap();
        for p in 0..8 {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
        }
        let st = vm.op_stats();
        assert_eq!(st.superpage_installs, 0, "no hint, no superpage");
        assert_eq!(st.faults_alloc, 8);
    }

    #[test]
    fn partial_munmap_demotes_and_preserves_survivors() {
        let (m, vm) = setup(1);
        huge_map(&vm, 0, BASE, 1);
        for p in 0..BLOCK_PAGES {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0xAA00 + p)
                .unwrap();
        }
        // Unmap the first 64 pages: the superpage must demote, not lose
        // the other 448 translations or their contents.
        vm.munmap(0, BASE, 64 * PAGE_SIZE).unwrap();
        let st = vm.op_stats();
        assert_eq!(st.superpage_demotions, 1);
        for p in 0..64 {
            assert_eq!(
                m.read_u64(0, &*vm, BASE + p * PAGE_SIZE),
                Err(VmError::NoMapping),
                "page {p} survived partial unmap"
            );
        }
        let misses_before = m.stats().tlb_misses;
        for p in 64..BLOCK_PAGES {
            assert_eq!(
                m.read_u64(0, &*vm, BASE + p * PAGE_SIZE).unwrap(),
                0xAA00 + p,
                "page {p} lost by demotion"
            );
        }
        // The span TLB entry was shot down, so each survivor misses
        // exactly once — and refills from the shattered PTE as a fill
        // fault, never a re-allocation.
        assert_eq!(
            m.stats().tlb_misses - misses_before,
            BLOCK_PAGES - 64,
            "survivors must refault exactly once each"
        );
        assert_eq!(
            vm.op_stats().faults_alloc,
            1,
            "no re-allocation after demote"
        );
        // The block cannot free until its last page is unmapped.
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 0);
        vm.munmap(0, BASE + 64 * PAGE_SIZE, BLOCK_BYTES - 64 * PAGE_SIZE)
            .unwrap();
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 1, "block freed exactly once");
        assert_eq!(m.stats().stale_detected, 0);
    }

    #[test]
    fn whole_block_mprotect_keeps_superpage() {
        let (m, vm) = setup(1);
        huge_map(&vm, 0, BASE, 1);
        m.write_u64(0, &*vm, BASE, 5).unwrap();
        vm.mprotect(0, BASE, BLOCK_BYTES, Prot::READ).unwrap();
        assert_eq!(m.write_u64(0, &*vm, BASE, 6), Err(VmError::ProtViolation));
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 5);
        let st = vm.op_stats();
        assert_eq!(st.superpage_demotions, 0, "aligned mprotect keeps the fold");
        // The refault after the revoke re-installed the block PTE.
        assert!(st.superpage_installs >= 1);
        assert_eq!(vm.tree_stats().leaf_nodes(), 0);
    }

    #[test]
    fn fork_cow_demotes_on_write() {
        let (m, vm) = setup(2);
        huge_map(&vm, 0, BASE, 1);
        for p in 0..4 {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0xF0 + p)
                .unwrap();
        }
        let child = RadixVm::fork(&vm, 0);
        child.attach_core(1);
        // Child reads the shared block read-only (superpage fill).
        assert_eq!(m.read_u64(1, &*child, BASE).unwrap(), 0xF0);
        // Child write: demotes the child's fold and copies one page.
        m.write_u64(1, &*child, BASE, 999).unwrap();
        assert_eq!(m.read_u64(1, &*child, BASE).unwrap(), 999);
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 0xF0, "parent intact");
        // The copied page's one handle is its private frame's; its
        // demoted siblings keep their share of the source block.
        let vpn = BASE / PAGE_SIZE;
        let head = vm.meta_at(0, vpn).unwrap().frame.unwrap();
        assert_eq!(head.order, rvm_mem::BLOCK_ORDER);
        let copied = child.meta_at(1, vpn).unwrap().frame.unwrap();
        assert_eq!(copied.order, 0);
        assert_eq!(child.meta_at(1, vpn + 1).unwrap().frame, Some(head));
        // Parent write to another page demotes the parent's fold too;
        // both stay correct.
        m.write_u64(0, &*vm, BASE + PAGE_SIZE, 111).unwrap();
        assert_eq!(m.read_u64(1, &*child, BASE + PAGE_SIZE).unwrap(), 0xF1);
        assert_eq!(m.stats().stale_detected, 0);
        assert!(child.op_stats().faults_cow >= 1);
        // Each copy surrendered exactly one of its space's 512 shares:
        // the block outlives the child's 511 and frees, once, with the
        // parent's 511; the two private copies free on their own.
        let freed = || {
            vm.quiesce();
            let st = m.pool().stats();
            (st.block_frees, st.free_pages)
        };
        assert_eq!(freed(), (0, 0));
        child.munmap(1, BASE, BLOCK_BYTES).unwrap();
        assert_eq!(freed(), (0, 1), "the parent's shares still hold it");
        vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
        assert_eq!(freed(), (1, BLOCK_PAGES + 2));
        assert_eq!(m.pool().outstanding_frames(), 0);
    }

    #[test]
    fn shared_pt_fills_span_from_other_cores_install() {
        let machine = Machine::new(2);
        let vm = RadixVm::new(
            machine.clone(),
            RadixVmConfig {
                mmu: MmuKind::Shared,
                ..Default::default()
            },
        );
        vm.attach_core(0);
        vm.attach_core(1);
        huge_map(&vm, 0, BASE, 1);
        m_touch(&machine, &vm, 0);
        // Core 1's first access hits the shared block PTE: one fill
        // fault covers the whole span.
        let misses_before = machine.stats().tlb_misses;
        for p in 0..16 {
            machine.read_u64(1, &*vm, BASE + p * PAGE_SIZE).unwrap();
        }
        assert_eq!(
            machine.stats().tlb_misses,
            misses_before + 1,
            "span fill must cover the block"
        );
        fn m_touch(m: &Machine, vm: &RadixVm, core: usize) {
            m.write_u64(core, vm, BASE, 1).unwrap();
        }
    }

    #[test]
    fn mmap_over_superpage_replaces_cleanly() {
        let (m, vm) = setup(1);
        huge_map(&vm, 0, BASE, 1);
        m.write_u64(0, &*vm, BASE, 42).unwrap();
        // Re-map a sub-range 4 KiB style over the populated superpage.
        vm.mmap(
            0,
            BASE + 8 * PAGE_SIZE,
            4 * PAGE_SIZE,
            Prot::RW,
            Backing::Anon,
        )
        .unwrap();
        assert_eq!(vm.op_stats().superpage_demotions, 1);
        assert_eq!(m.read_u64(0, &*vm, BASE + 8 * PAGE_SIZE).unwrap(), 0);
        assert_eq!(m.read_u64(0, &*vm, BASE).unwrap(), 42, "outside survives");
        // Unmap everything; the block must still free exactly once.
        vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
        vm.quiesce();
        let st = m.pool().stats();
        assert_eq!(st.block_frees, 1);
        assert_eq!(m.stats().stale_detected, 0);
    }

    // --- 1 GiB rung + opportunistic promotion: DESIGN.md §12 ---

    use rvm_hw::GIANT_PAGES;
    use rvm_sync::failpoint::{self, Trigger};

    /// One combined 1 GiB lifecycle test: populate, demote cascade,
    /// survivor integrity, full reclaim. Kept as a single test because a
    /// populated giant block is ~1 GiB of real host memory — parallel
    /// test threads must not each hold one.
    #[test]
    fn giant_rung_lifecycle() {
        let (m, vm) = setup(1);
        // 1 GiB-aligned virtual base so the mapping folds at the giant
        // rung (level LEVELS-3).
        let gbase: u64 = 0x40_0000_0000;
        vm.mmap_flags(
            0,
            gbase,
            GIANT_PAGES * PAGE_SIZE,
            Prot::RW,
            Backing::Anon,
            MapFlags::HUGE,
        )
        .unwrap();
        assert_eq!(vm.tree_stats().folded_values(), 1, "one giant fold");
        // One fault populates the whole GiB.
        m.write_u64(0, &*vm, gbase, 1).unwrap();
        let st = vm.op_stats();
        assert_eq!(
            st.faults_alloc + st.faults_fill + st.faults_cow,
            1,
            "an aligned hinted GiB must populate with exactly one fault"
        );
        assert_eq!(st.superpage_installs, 1);
        assert_eq!(m.pool().stats().block_allocs, 1);
        // Sampled writes across the GiB all resolve through the one
        // giant span TLB entry — no further faults.
        for p in (0..GIANT_PAGES).step_by(4099) {
            m.write_u64(0, &*vm, gbase + p * PAGE_SIZE, p + 7).unwrap();
        }
        let st = vm.op_stats();
        assert_eq!(st.faults_alloc + st.faults_fill + st.faults_cow, 1);
        // A forked child's write demotes two rungs in the child only and
        // copies one page: that page's one handle is its private
        // frame's, while its leaf siblings and the other 2 MiB chunks
        // keep the giant head's. Dropping the child gives every share
        // back, so the block's lifetime below is the parent's alone.
        {
            let child = RadixVm::fork(&vm, 0);
            child.attach_core(0);
            let vpn = gbase / PAGE_SIZE;
            let head = vm.meta_at(0, vpn).unwrap().frame.unwrap();
            assert_eq!(head.order, rvm_mem::GIANT_ORDER);
            m.write_u64(0, &*child, gbase, 9).unwrap();
            assert_eq!(child.op_stats().superpage_demotions, 2);
            assert_eq!(child.meta_at(0, vpn).unwrap().frame.unwrap().order, 0);
            assert_eq!(child.meta_at(0, vpn + 1).unwrap().frame, Some(head));
            assert_eq!(
                child.meta_at(0, vpn + BLOCK_PAGES).unwrap().frame,
                Some(head)
            );
            assert_eq!(m.read_u64(0, &*child, gbase).unwrap(), 9);
            assert_eq!(m.read_u64(0, &*vm, gbase).unwrap(), 7, "parent intact");
        }
        // Unmap the first 64 pages: a sub-2 MiB hole demotes *two*
        // rungs — giant to 2 MiB folds, then the punctured chunk to
        // 4 KiB pages — with the other 511 chunks untouched.
        vm.munmap(0, gbase, 64 * PAGE_SIZE).unwrap();
        assert_eq!(vm.op_stats().superpage_demotions, 2);
        assert!(m.read_u64(0, &*vm, gbase).is_err());
        for p in (0..GIANT_PAGES).step_by(4099) {
            if p < 64 {
                continue;
            }
            assert_eq!(
                m.read_u64(0, &*vm, gbase + p * PAGE_SIZE).unwrap(),
                p + 7,
                "page {p} lost by the giant demote cascade"
            );
        }
        // No re-allocation happened: survivors refill from the demoted
        // block's member frames.
        assert_eq!(vm.op_stats().faults_alloc, 1);
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 0, "giant pinned by survivors");
        // Full unmap: the giant block frees exactly once, whole.
        vm.munmap(0, gbase + 64 * PAGE_SIZE, (GIANT_PAGES - 64) * PAGE_SIZE)
            .unwrap();
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 1);
        assert_eq!(m.pool().outstanding_frames(), 0);
        assert_eq!(m.stats().stale_detected, 0);
    }

    #[test]
    fn demoted_block_promotes_back() {
        let (m, vm) = setup(1);
        huge_map(&vm, 0, BASE, 1);
        for p in 0..BLOCK_PAGES {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0xC0DE + p)
                .unwrap();
        }
        assert_eq!(vm.op_stats().superpage_installs, 1);
        // Demote via a sub-block protection round-trip (a revoke-and-
        // restore pattern, e.g. a garbage collector's write barrier).
        vm.mprotect(0, BASE, 8 * PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(vm.op_stats().superpage_demotions, 1);
        assert_eq!(vm.tree_stats().leaf_nodes(), 1);
        vm.mprotect(0, BASE, 8 * PAGE_SIZE, Prot::RW).unwrap();
        // Converged again: the fault path's fill counter re-folds the
        // block without any background thread. Every page still carries
        // its reference on the original block head, so the promotion
        // adopts — no frames move, no new allocation.
        for p in 0..BLOCK_PAGES {
            assert_eq!(
                m.read_u64(0, &*vm, BASE + p * PAGE_SIZE).unwrap(),
                0xC0DE + p
            );
        }
        let st = vm.op_stats();
        assert_eq!(st.superpage_promotions, 1, "fill counter must re-fold");
        assert_eq!(
            m.pool().stats().block_allocs,
            1,
            "demoted shape migrates nothing"
        );
        vm.quiesce();
        assert_eq!(vm.tree_stats().leaf_nodes(), 0, "severed leaf reclaimed");
        assert_eq!(vm.tree_stats().folded_values(), 1);
        // Post-promotion the block reads through one span entry again.
        let misses = m.stats().tlb_misses;
        for p in 0..BLOCK_PAGES {
            assert_eq!(
                m.read_u64(0, &*vm, BASE + p * PAGE_SIZE).unwrap(),
                0xC0DE + p
            );
        }
        assert_eq!(m.stats().tlb_misses, misses, "span entry covers the block");
        vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 1);
        assert_eq!(m.pool().outstanding_frames(), 0);
        assert_eq!(m.stats().stale_detected, 0);
    }

    #[test]
    fn scattered_pages_migrate_into_block() {
        let (m, vm) = setup(1);
        failpoint::disarm_all();
        huge_map(&vm, 0, BASE, 1);
        // Veto the populate fault's block allocation: the hinted block
        // degrades to scattered 4 KiB frames (§11's pressure path).
        failpoint::arm(failpoint::BLOCK_ALLOC, 0, Trigger::EveryK(1));
        m.write_u64(0, &*vm, BASE, 0xA0).unwrap();
        failpoint::disarm_all();
        assert_eq!(vm.op_stats().block_fallbacks, 1);
        assert_eq!(vm.op_stats().superpage_installs, 0);
        // Touch every page; the fill counter's crossing at the 512th
        // fault finds all pages present and migrates them into a fresh
        // contiguous block (the promotion returns the *new* translation,
        // so this last write already lands in the block).
        for p in 0..BLOCK_PAGES {
            m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0xBEEF + p)
                .unwrap();
        }
        let st = vm.op_stats();
        assert_eq!(st.superpage_promotions, 1, "scattered pages must migrate");
        assert_eq!(m.pool().stats().block_allocs, 1);
        // Contents survived the copy; the 512 old frames free once the
        // surrendered references drain.
        for p in (0..BLOCK_PAGES).step_by(31) {
            assert_eq!(
                m.read_u64(0, &*vm, BASE + p * PAGE_SIZE).unwrap(),
                0xBEEF + p
            );
        }
        vm.quiesce();
        let fst = m.pool().stats();
        assert_eq!(fst.free_pages, 512, "old frames freed");
        vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
        vm.quiesce();
        assert_eq!(m.pool().stats().block_frees, 1);
        assert_eq!(m.pool().outstanding_frames(), 0);
        assert_eq!(m.stats().stale_detected, 0);
    }

    /// A VM that holds the only handle on its machine drops the machine
    /// last. The fork's share gives every frame a foreign adder, so the
    /// frames wait for a review that only the drop of the last handle on
    /// the cache runs, inside the machine's pool; with `machine` dropped
    /// first, that drain is a use-after-free, which `scripts/sanitize.sh`
    /// reports.
    #[test]
    fn a_vm_that_owns_its_machine_frees_shared_frames_before_it() {
        let parent = RadixVm::new(Machine::new(2), RadixVmConfig::default());
        let machine = Arc::downgrade(parent.machine());
        parent.attach_core(0);
        parent
            .mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        for p in 0..8u64 {
            parent
                .machine()
                .write_u64(0, &*parent, BASE + p * PAGE_SIZE, p)
                .unwrap();
        }
        drop(parent.fork(1));
        drop(parent);
        assert!(machine.upgrade().is_none(), "the VM held the last handle");
    }
}
