//! Deterministic fault-injection sweep: memory exhaustion as a
//! first-class, survivable condition (DESIGN.md §11).
//!
//! Three contracts, on every backend × placement policy:
//!
//! 1. **Typed failure, never a panic**: with allocation failpoints
//!    armed (or the pool capped), faulting ops return
//!    `Err(VmError::OutOfMemory)`.
//! 2. **Exact unwind**: a failed op installs nothing and leaks nothing
//!    — after unmap + quiesce + magazine flush,
//!    `outstanding_frames() == 0`.
//! 3. **Full recovery**: the same op succeeds once pressure lifts
//!    (failpoint disarmed, or frames freed).
//!
//! The failpoint registry is thread-local and every VM op here runs on
//! the test's own thread, so concurrently running tests never observe
//! each other's schedules.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::Machine;
use radixvm::hw::{
    Backing, MachineConfig, MapFlags, PlacementPolicy, Prot, VmError, VmSystem, BLOCK_PAGES,
    PAGE_SIZE,
};
use radixvm::sync::failpoint::{self, Trigger};

const BASE: u64 = 0x61_0000_0000;
const NCORES: usize = 4;

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FirstTouch,
    PlacementPolicy::Interleave,
    PlacementPolicy::ReplicateReadOnly,
];

fn numa_machine(policy: PlacementPolicy) -> Arc<Machine> {
    let mut cfg = MachineConfig::new(NCORES);
    cfg.placement = policy;
    cfg.nnodes = 2;
    Machine::with_config(cfg)
}

fn assert_clean(machine: &Machine, ctx: &str) {
    machine.pool().flush_magazines();
    assert_eq!(
        machine.pool().outstanding_frames(),
        0,
        "{ctx}: frames leaked after unwind"
    );
}

/// Failpoints at the single-frame and chunk-growth sites, each failed
/// in turn: every backend × placement policy surfaces
/// `Err(VmError::OutOfMemory)` (no panic), unwinds exactly, and serves
/// the identical op after disarm.
#[test]
fn injection_sweep_frame_sites_fail_typed_and_recover() {
    // `chunk-grow` only guarantees failure while nothing is recyclable,
    // so each (site, backend, policy) cell gets a fresh machine.
    for site in [failpoint::FRAME_ALLOC, failpoint::CHUNK_GROW] {
        for kind in BackendKind::ALL {
            for policy in POLICIES {
                failpoint::disarm_all();
                let ctx = format!("{site}/{kind}/{policy:?}");
                let machine = numa_machine(policy);
                {
                    let vm: Arc<dyn VmSystem> = build(&machine, kind);
                    for core in 0..NCORES {
                        vm.attach_core(core);
                    }
                    vm.mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
                        .unwrap_or_else(|e| panic!("{ctx}: mmap: {e}"));
                    failpoint::arm_all(site, NCORES, Trigger::EveryK(1));
                    for core in 0..NCORES {
                        assert_eq!(
                            machine.write_u64(core, &*vm, BASE + core as u64 * PAGE_SIZE, 7),
                            Err(VmError::OutOfMemory),
                            "{ctx}: core {core} fault must fail typed"
                        );
                    }
                    // Pressure relief: the exact same accesses succeed.
                    failpoint::disarm_all();
                    for core in 0..NCORES {
                        machine
                            .write_u64(core, &*vm, BASE + core as u64 * PAGE_SIZE, 7)
                            .unwrap_or_else(|e| panic!("{ctx}: post-relief write: {e}"));
                    }
                    let oom = vm.op_stats().oom_faults;
                    assert_eq!(oom, NCORES as u64, "{ctx}: oom_faults miscounted");
                    vm.munmap(0, BASE, 8 * PAGE_SIZE)
                        .unwrap_or_else(|e| panic!("{ctx}: munmap: {e}"));
                    vm.quiesce();
                }
                assert_clean(&machine, &ctx);
            }
        }
    }
    failpoint::disarm_all();
}

/// Capacity exhaustion without failpoints: cap the pool, fault until it
/// runs dry, then free frames and watch the same fault succeed.
#[test]
fn capacity_exhaustion_unwinds_and_recovers_after_relief() {
    for kind in BackendKind::ALL {
        for policy in POLICIES {
            let ctx = format!("{kind}/{policy:?}");
            let machine = numa_machine(policy);
            {
                let vm: Arc<dyn VmSystem> = build(&machine, kind);
                vm.attach_core(0);
                let pages = 96u64;
                vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
                    .unwrap_or_else(|e| panic!("{ctx}: mmap: {e}"));
                machine.pool().set_frame_limit(64);
                // Fault until the pool runs dry; the boundary depends on
                // the policy's placement choices, but the typed failure
                // must appear before the mapping is fully populated.
                let mut failed_at = None;
                for p in 0..pages {
                    match machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p) {
                        Ok(()) => {}
                        Err(VmError::OutOfMemory) => {
                            failed_at = Some(p);
                            break;
                        }
                        Err(e) => panic!("{ctx}: unexpected error {e}"),
                    }
                }
                let failed_at =
                    failed_at.unwrap_or_else(|| panic!("{ctx}: capped pool never ran dry"));
                assert!(
                    vm.op_stats().oom_faults >= 1,
                    "{ctx}: oom_faults not counted"
                );
                // Relief: unmap the first 16 pages to free their frames,
                // then fault a still-mapped, still-unpopulated page (the
                // failed one, unless it fell inside the relieved range).
                vm.munmap(0, BASE, 16 * PAGE_SIZE)
                    .unwrap_or_else(|e| panic!("{ctx}: relief munmap: {e}"));
                vm.quiesce();
                machine.pool().flush_magazines();
                let retry = failed_at.max(16);
                machine
                    .write_u64(0, &*vm, BASE + retry * PAGE_SIZE, retry)
                    .unwrap_or_else(|e| panic!("{ctx}: fault after relief: {e}"));
                assert_eq!(
                    machine.read_u64(0, &*vm, BASE + retry * PAGE_SIZE),
                    Ok(retry),
                    "{ctx}: recovered page lost its data"
                );
                vm.munmap(0, BASE + 16 * PAGE_SIZE, (pages - 16) * PAGE_SIZE)
                    .unwrap_or_else(|e| panic!("{ctx}: final munmap: {e}"));
                vm.quiesce();
            }
            assert_clean(&machine, &ctx);
        }
    }
}

/// Superpage graceful degradation: with the block-allocation site
/// armed, a huge-hinted populate falls back to scattered 4 KiB pages —
/// the access *succeeds*, `block_fallbacks` counts it, and no
/// contiguous block is ever taken.
#[test]
fn block_alloc_failure_degrades_to_scattered_pages() {
    failpoint::disarm_all();
    for policy in POLICIES {
        let ctx = format!("Radix/{policy:?}");
        let machine = numa_machine(policy);
        {
            let vm: Arc<dyn VmSystem> = build(&machine, BackendKind::Radix);
            vm.attach_core(0);
            let len = BLOCK_PAGES * PAGE_SIZE;
            vm.mmap_flags(0, BASE, len, Prot::RW, Backing::Anon, MapFlags::HUGE)
                .unwrap_or_else(|e| panic!("{ctx}: mmap_flags: {e}"));
            failpoint::arm_all(failpoint::BLOCK_ALLOC, NCORES, Trigger::EveryK(1));
            for p in 0..BLOCK_PAGES {
                machine
                    .write_u64(0, &*vm, BASE + p * PAGE_SIZE, p)
                    .unwrap_or_else(|e| panic!("{ctx}: scatter-fallback write: {e}"));
            }
            failpoint::disarm_all();
            let stats = vm.op_stats();
            assert!(
                stats.block_fallbacks >= 1,
                "{ctx}: fallback not counted ({stats:?})"
            );
            assert_eq!(stats.oom_faults, 0, "{ctx}: fallback must not surface OOM");
            assert_eq!(
                stats.superpage_installs, 0,
                "{ctx}: superpage installed despite armed block-alloc"
            );
            assert_eq!(
                machine.pool().stats().block_allocs,
                0,
                "{ctx}: a contiguous block was taken"
            );
            for p in (0..BLOCK_PAGES).step_by(97) {
                assert_eq!(
                    machine.read_u64(0, &*vm, BASE + p * PAGE_SIZE),
                    Ok(p),
                    "{ctx}: scattered page lost its data"
                );
            }
            // With the failpoint gone, a second huge mapping gets a
            // real superpage again.
            let base2 = BASE + 2 * len;
            vm.mmap_flags(0, base2, len, Prot::RW, Backing::Anon, MapFlags::HUGE)
                .unwrap_or_else(|e| panic!("{ctx}: second mmap_flags: {e}"));
            machine
                .write_u64(0, &*vm, base2, 1)
                .unwrap_or_else(|e| panic!("{ctx}: superpage write: {e}"));
            assert!(
                vm.op_stats().superpage_installs >= 1,
                "{ctx}: superpage path did not recover after disarm"
            );
            vm.munmap(0, BASE, len).unwrap();
            vm.munmap(0, base2, len).unwrap();
            vm.quiesce();
        }
        assert_clean(&machine, &ctx);
    }
}

/// Promotion graceful degradation (DESIGN.md §12): with the `promote`
/// site armed, convergence sweeps keep crossing the fill threshold but
/// every promotion attempt aborts before taking any lock — the mapping
/// stays valid at 4 KiB, no block is allocated, no data moves, and no
/// frame leaks. Once disarmed, the very next convergence promotes.
#[test]
fn promotion_failure_leaves_4k_mapping_intact() {
    failpoint::disarm_all();
    let machine = numa_machine(PlacementPolicy::FirstTouch);
    let ctx = "Radix/promote-failpoint";
    {
        let vm: Arc<dyn VmSystem> = build(&machine, BackendKind::Radix);
        vm.attach_core(0);
        let len = BLOCK_PAGES * PAGE_SIZE;
        vm.mmap_flags(0, BASE, len, Prot::RW, Backing::Anon, MapFlags::HUGE)
            .unwrap_or_else(|e| panic!("{ctx}: mmap_flags: {e}"));
        // Populate scattered: armed block-alloc degrades the hinted
        // fill to 4 KiB frames and vetoes migration-promotion too.
        failpoint::arm(failpoint::BLOCK_ALLOC, 0, Trigger::EveryK(1));
        for p in 0..BLOCK_PAGES {
            machine
                .write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0x1000 + p)
                .unwrap_or_else(|e| panic!("{ctx}: scattered populate: {e}"));
        }
        failpoint::disarm_all();
        assert_eq!(vm.op_stats().superpage_promotions, 0, "{ctx}");
        assert_eq!(machine.pool().stats().block_allocs, 0, "{ctx}");

        // Refault sweep with the promote site armed: every threshold
        // crossing attempts promotion, every attempt aborts.
        failpoint::arm(failpoint::PROMOTE, 0, Trigger::EveryK(1));
        vm.mprotect(0, BASE, len, Prot::READ)
            .unwrap_or_else(|e| panic!("{ctx}: mprotect READ: {e}"));
        vm.mprotect(0, BASE, len, Prot::RW)
            .unwrap_or_else(|e| panic!("{ctx}: mprotect RW: {e}"));
        for p in 0..BLOCK_PAGES {
            assert_eq!(
                machine.read_u64(0, &*vm, BASE + p * PAGE_SIZE),
                Ok(0x1000 + p),
                "{ctx}: page {p} lost under aborted promotion"
            );
        }
        let attempts = failpoint::hits(failpoint::PROMOTE, 0);
        assert!(
            attempts >= BLOCK_PAGES / 64,
            "{ctx}: promotion never attempted ({attempts} hits)"
        );
        let stats = vm.op_stats();
        assert_eq!(
            stats.superpage_promotions, 0,
            "{ctx}: promotion succeeded despite armed failpoint"
        );
        assert_eq!(
            machine.pool().stats().block_allocs,
            0,
            "{ctx}: aborted promotion took a block"
        );

        // Relief: the next convergence promotes for real.
        failpoint::disarm_all();
        vm.mprotect(0, BASE, len, Prot::READ)
            .unwrap_or_else(|e| panic!("{ctx}: second mprotect READ: {e}"));
        vm.mprotect(0, BASE, len, Prot::RW)
            .unwrap_or_else(|e| panic!("{ctx}: second mprotect RW: {e}"));
        for p in 0..BLOCK_PAGES {
            assert_eq!(
                machine.read_u64(0, &*vm, BASE + p * PAGE_SIZE),
                Ok(0x1000 + p),
                "{ctx}: page {p} lost across promotion"
            );
        }
        let stats = vm.op_stats();
        assert_eq!(
            stats.superpage_promotions, 1,
            "{ctx}: promotion did not recover after disarm"
        );
        assert_eq!(
            machine.pool().stats().block_allocs,
            1,
            "{ctx}: migration promotion must take exactly one block"
        );
        vm.munmap(0, BASE, len)
            .unwrap_or_else(|e| panic!("{ctx}: munmap: {e}"));
        vm.quiesce();
    }
    assert_clean(&machine, ctx);
}

/// Same seed ⇒ same injection schedule, observed end-to-end through
/// the VM: a random-trigger fault loop replays identically.
#[test]
fn random_injection_schedule_is_deterministic_through_the_vm() {
    failpoint::disarm_all();
    let run = |seed: u64| -> Vec<bool> {
        let machine = Machine::new(1);
        let vm: Arc<dyn VmSystem> = build(&machine, BackendKind::Radix);
        vm.attach_core(0);
        vm.mmap(0, BASE, 64 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        failpoint::arm(
            failpoint::FRAME_ALLOC,
            0,
            Trigger::Random {
                seed,
                num: 1,
                den: 3,
            },
        );
        let outcomes = (0..64)
            .map(|p| machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).is_ok())
            .collect();
        failpoint::disarm_all();
        outcomes
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must replay the same OOM schedule");
    let c = run(8);
    assert_ne!(a, c, "different seeds must diverge");
}
