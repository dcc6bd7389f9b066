//! Backend conformance: every [`BackendKind`] must sustain the same VM
//! lifecycle — mmap → write → read → munmap → fault-after-unmap — on a
//! single core, across cores, and under real threads.
//!
//! This is the contract the backend layer advertises: code written
//! against `Arc<dyn VmSystem>` behaves identically on RadixVM, its
//! ablations, the baselines, and the toy reference backend; only the
//! performance differs. Each test loops over `BackendKind::ALL`, so a new
//! backend is covered the moment it is added to the enum.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Backing, Machine, MapFlags, Prot, VmError, VmSystem, BLOCK_PAGES, PAGE_SIZE};

const BASE: u64 = 0x50_0000_0000;

/// One full lifecycle on `core`, in its own address range.
fn lifecycle(machine: &Arc<Machine>, vm: &Arc<dyn VmSystem>, core: usize, kind: BackendKind) {
    let base = BASE + core as u64 * (1 << 30);
    let pages = 8u64;
    // mmap
    vm.mmap(core, base, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap_or_else(|e| panic!("{kind}: mmap failed: {e}"));
    // write every page
    for p in 0..pages {
        machine
            .write_u64(core, &**vm, base + p * PAGE_SIZE, 0xC0DE + p)
            .unwrap_or_else(|e| panic!("{kind}: write failed: {e}"));
    }
    // read every page back
    for p in 0..pages {
        let v = machine
            .read_u64(core, &**vm, base + p * PAGE_SIZE)
            .unwrap_or_else(|e| panic!("{kind}: read failed: {e}"));
        assert_eq!(v, 0xC0DE + p, "{kind}: page {p} corrupted");
    }
    // munmap
    vm.munmap(core, base, pages * PAGE_SIZE)
        .unwrap_or_else(|e| panic!("{kind}: munmap failed: {e}"));
    // fault-after-unmap: every page must be gone, not stale
    for p in 0..pages {
        assert_eq!(
            machine.read_u64(core, &**vm, base + p * PAGE_SIZE),
            Err(VmError::NoMapping),
            "{kind}: page {p} survived munmap"
        );
    }
}

#[test]
fn lifecycle_single_core() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        lifecycle(&machine, &vm, 0, kind);
        vm.quiesce();
    }
}

#[test]
fn lifecycle_every_core_in_turn() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(4);
        let vm = build(&machine, kind);
        for c in 0..4 {
            vm.attach_core(c);
        }
        for c in 0..4 {
            lifecycle(&machine, &vm, c, kind);
        }
        vm.quiesce();
    }
}

#[test]
fn lifecycle_multi_core_threaded() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(4);
        let vm = build(&machine, kind);
        for c in 0..4 {
            vm.attach_core(c);
        }
        let mut handles = Vec::new();
        for core in 0..4usize {
            let machine = machine.clone();
            let vm = vm.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    lifecycle(&machine, &vm, core, kind);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            machine.stats().stale_detected,
            0,
            "{kind}: stale translation under threads"
        );
        vm.quiesce();
    }
}

#[test]
fn cross_core_visibility() {
    // A write on core 0 is visible from every other core (per-core-table
    // backends take fill faults; shared-table backends hit the PTE).
    for kind in BackendKind::ALL {
        let machine = Machine::new(4);
        let vm = build(&machine, kind);
        for c in 0..4 {
            vm.attach_core(c);
        }
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, BASE, 31337).unwrap();
        for c in 1..4 {
            assert_eq!(
                machine.read_u64(c, &*vm, BASE).unwrap(),
                31337,
                "{kind}: core {c} sees a different value"
            );
        }
        // Unmap from a core that never wrote: the translation must die
        // everywhere.
        vm.munmap(3, BASE, PAGE_SIZE).unwrap();
        for c in 0..4 {
            assert_eq!(
                machine.read_u64(c, &*vm, BASE),
                Err(VmError::NoMapping),
                "{kind}: core {c} kept a stale view"
            );
        }
        vm.quiesce();
    }
}

#[test]
fn demand_zero_and_protection() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        // Fresh anonymous memory reads zero.
        vm.mmap(0, BASE, 2 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        assert_eq!(machine.read_u64(0, &*vm, BASE).unwrap(), 0, "{kind}");
        // Read-only mappings reject writes.
        vm.mmap(0, BASE + (1 << 24), PAGE_SIZE, Prot::READ, Backing::Anon)
            .unwrap();
        assert_eq!(
            machine.write_u64(0, &*vm, BASE + (1 << 24), 1),
            Err(VmError::ProtViolation),
            "{kind}"
        );
        vm.quiesce();
    }
}

#[test]
fn bad_ranges_rejected() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        for (addr, len) in [
            (BASE + 1, PAGE_SIZE),                     // unaligned base
            (BASE, PAGE_SIZE + 7),                     // unaligned length
            (BASE, 0),                                 // empty
            (u64::MAX - PAGE_SIZE + 1, 2 * PAGE_SIZE), // overflow
        ] {
            assert_eq!(
                vm.mmap(0, addr, len, Prot::RW, Backing::Anon),
                Err(VmError::BadRange),
                "{kind}: accepted bad mmap({addr:#x}, {len})"
            );
        }
        assert_eq!(vm.munmap(0, BASE, 0), Err(VmError::BadRange), "{kind}");
    }
}

#[test]
fn names_consistent() {
    for kind in BackendKind::ALL {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        assert_eq!(vm.name(), kind.name(), "factory/kind name mismatch");
    }
}

#[test]
fn op_stats_exact_under_concurrent_disjoint_ops() {
    // Operation counters are sharded per core (one padded cell each);
    // this is the lost-update check: four cores hammering disjoint
    // ranges in parallel must produce *exact* totals — a counter that
    // dropped or double-counted a relaxed increment would show here.
    const THREADS: u64 = 4;
    const ITERS: u64 = 50;
    const PAGES: u64 = 4;
    for kind in BackendKind::ALL {
        let machine = Machine::new(THREADS as usize);
        let vm = build(&machine, kind);
        for c in 0..THREADS as usize {
            vm.attach_core(c);
        }
        let mut handles = Vec::new();
        for core in 0..THREADS as usize {
            let machine = machine.clone();
            let vm = vm.clone();
            handles.push(std::thread::spawn(move || {
                let base = BASE + core as u64 * (1 << 30);
                for _ in 0..ITERS {
                    vm.mmap(core, base, PAGES * PAGE_SIZE, Prot::RW, Backing::Anon)
                        .unwrap();
                    for p in 0..PAGES {
                        machine
                            .write_u64(core, &*vm, base + p * PAGE_SIZE, p)
                            .unwrap();
                    }
                    vm.munmap(core, base, PAGES * PAGE_SIZE).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = vm.op_stats();
        assert_eq!(st.mmaps, THREADS * ITERS, "{kind}: lost mmap counts");
        assert_eq!(st.munmaps, THREADS * ITERS, "{kind}: lost munmap counts");
        // Disjoint ranges: every touch of a freshly mapped page is
        // exactly one fault (no install races, no retries).
        assert_eq!(
            st.faults_alloc + st.faults_fill + st.faults_cow,
            THREADS * ITERS * PAGES,
            "{kind}: lost fault counts"
        );
        assert_eq!(st.faults_cow, 0, "{kind}: spurious CoW faults");
        vm.quiesce();
    }
}

#[test]
fn huge_hint_is_semantics_preserving() {
    // The MapFlags::HUGE hint is advisory: on every backend — whether it
    // installs superpages, or ignores the hint entirely — reads,
    // protection behavior, partial unmap, and cross-core visibility are
    // identical with and without it. Two aligned regions, one hinted,
    // driven through the same script; every observation must match.
    let hinted_base = 0x60_0000_0000u64; // 2 MiB aligned
    let plain_base = hinted_base + 8 * BLOCK_PAGES * PAGE_SIZE;
    let len = BLOCK_PAGES * PAGE_SIZE;
    for kind in BackendKind::ALL {
        let machine = Machine::new(2);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        vm.attach_core(1);
        vm.mmap_flags(0, hinted_base, len, Prot::RW, Backing::Anon, MapFlags::HUGE)
            .unwrap_or_else(|e| panic!("{kind}: hinted mmap failed: {e}"));
        vm.mmap_flags(0, plain_base, len, Prot::RW, Backing::Anon, MapFlags::NONE)
            .unwrap();
        let script: Vec<u64> = (0..BLOCK_PAGES)
            .step_by(31)
            .chain([BLOCK_PAGES - 1])
            .collect();
        // Demand-zero, then write/read the same pattern on both.
        for &p in &script {
            for (base, tag) in [(hinted_base, 1u64), (plain_base, 2)] {
                let va = base + p * PAGE_SIZE;
                assert_eq!(machine.read_u64(0, &*vm, va).unwrap(), 0, "{kind}");
                machine.write_u64(0, &*vm, va, tag << 32 | p).unwrap();
            }
        }
        // Cross-core visibility matches.
        for &p in &script {
            assert_eq!(
                machine
                    .read_u64(1, &*vm, hinted_base + p * PAGE_SIZE)
                    .unwrap(),
                1 << 32 | p,
                "{kind}: hinted page {p} wrong on core 1"
            );
            assert_eq!(
                machine
                    .read_u64(1, &*vm, plain_base + p * PAGE_SIZE)
                    .unwrap(),
                2 << 32 | p,
                "{kind}: plain page {p} wrong on core 1"
            );
        }
        // Protection downgrades behave identically. (Whether contents
        // survive the revoke is backend policy — the Linux/Bonsai
        // baselines drop them — but the hinted region must do exactly
        // what the plain one does.)
        for base in [hinted_base, plain_base] {
            vm.mprotect(0, base, len, Prot::READ).unwrap();
            assert_eq!(
                machine.write_u64(0, &*vm, base, 9),
                Err(VmError::ProtViolation),
                "{kind}"
            );
        }
        let hinted_v = machine.read_u64(1, &*vm, hinted_base).unwrap();
        let plain_v = machine.read_u64(1, &*vm, plain_base).unwrap();
        assert_eq!(
            hinted_v & 0xFFFF_FFFF,
            plain_v & 0xFFFF_FFFF,
            "{kind}: hinted mprotect diverged from plain"
        );
        assert_eq!(
            hinted_v >> 32 != 0,
            plain_v >> 32 != 0,
            "{kind}: content survival differs with the hint"
        );
        for base in [hinted_base, plain_base] {
            vm.mprotect(0, base, len, Prot::RW).unwrap();
        }
        // Restore the pattern (backends that drop contents on revoke
        // refill demand-zero).
        for &p in &script {
            for (base, tag) in [(hinted_base, 1u64), (plain_base, 2)] {
                machine
                    .write_u64(0, &*vm, base + p * PAGE_SIZE, tag << 32 | p)
                    .unwrap();
            }
        }
        // Partial unmap: identical survivors and holes.
        for base in [hinted_base, plain_base] {
            vm.munmap(0, base + 64 * PAGE_SIZE, 64 * PAGE_SIZE).unwrap();
            assert_eq!(
                machine.read_u64(0, &*vm, base + 64 * PAGE_SIZE),
                Err(VmError::NoMapping),
                "{kind}"
            );
        }
        for &p in &script {
            if (64..128).contains(&p) {
                continue;
            }
            assert_eq!(
                machine
                    .read_u64(0, &*vm, hinted_base + p * PAGE_SIZE)
                    .unwrap(),
                1 << 32 | p,
                "{kind}: hinted page {p} lost after partial unmap"
            );
        }
        vm.munmap(0, hinted_base, len).unwrap();
        vm.munmap(0, plain_base, len).unwrap();
        vm.quiesce();
        assert_eq!(machine.stats().stale_detected, 0, "{kind}");
    }
}

#[test]
fn no_backend_leaks_frames_after_quiesce_and_drop() {
    // The frame table is the single ownership authority: after a mixed
    // workload — 4 KiB and huge mappings, partial unmaps (superpage
    // demotion on backends that install them), CoW-forked address
    // spaces — every backend must end with allocated − freed == 0
    // frames once the VMs quiesce and drop. `outstanding_frames` is the
    // pool's own alloc/free page accounting, so a reference leak
    // anywhere (metadata, demotion adoption, fork duplication, drop
    // paths) shows up as a nonzero residue.
    let base_4k = BASE;
    let huge_base = 0x58_0000_0000u64; // 2 MiB aligned
    for kind in BackendKind::ALL {
        let machine = Machine::new(2);
        {
            let vm = build(&machine, kind);
            vm.attach_core(0);
            vm.attach_core(1);
            // Plain 4 KiB pages, touched from both cores.
            vm.mmap(0, base_4k, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            for p in 0..16 {
                machine
                    .write_u64(0, &*vm, base_4k + p * PAGE_SIZE, p)
                    .unwrap();
            }
            for p in 0..16 {
                machine.read_u64(1, &*vm, base_4k + p * PAGE_SIZE).unwrap();
            }
            // A hinted 2 MiB region, partially unmapped (demotes the
            // superpage where one was installed).
            vm.mmap_flags(
                0,
                huge_base,
                BLOCK_PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
                MapFlags::HUGE,
            )
            .unwrap();
            for p in (0..BLOCK_PAGES).step_by(47) {
                machine
                    .write_u64(0, &*vm, huge_base + p * PAGE_SIZE, p)
                    .unwrap();
            }
            vm.munmap(0, huge_base + 64 * PAGE_SIZE, 64 * PAGE_SIZE)
                .unwrap();
            machine.read_u64(1, &*vm, huge_base).unwrap();
            // Fork + CoW on the backends that support it: both address
            // spaces write (copying shared pages), then the child drops
            // with mappings still live.
            if kind.is_radix() {
                let child = vm.fork(0).unwrap();
                child.attach_core(0);
                child.attach_core(1);
                machine.write_u64(1, &*child, base_4k, 999).unwrap();
                machine
                    .write_u64(0, &*vm, base_4k + PAGE_SIZE, 888)
                    .unwrap();
                machine.write_u64(1, &*child, huge_base, 777).unwrap();
                child.quiesce();
                drop(child);
            }
            // Unmap part of the 4 KiB region explicitly; the VM's drop
            // path must release the rest.
            vm.munmap(0, base_4k, 8 * PAGE_SIZE).unwrap();
            vm.quiesce();
            drop(vm);
        }
        machine.pool().flush_magazines();
        assert_eq!(
            machine.pool().outstanding_frames(),
            0,
            "{kind}: frames leaked (allocated != freed after quiesce + drop)"
        );
        assert_eq!(machine.stats().stale_detected, 0, "{kind}");
    }
}

#[test]
fn frames_return_to_pool_after_unmap() {
    // After a full map/touch/unmap cycle and quiesce, every allocated
    // frame is back in the pool — no backend leaks physical memory.
    for kind in BackendKind::ALL {
        let machine = Machine::new(2);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        vm.attach_core(1);
        let pages = 16u64;
        vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        for p in 0..pages {
            machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
        }
        vm.munmap(0, BASE, pages * PAGE_SIZE).unwrap();
        vm.quiesce();
        let st = machine.pool().stats();
        assert_eq!(st.free_pages, pages, "{kind}: frames leaked after munmap");
    }
}
