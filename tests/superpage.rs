//! Superpage (variable-granularity) integration tests: concurrent
//! demotion, promotion, exact frame accounting, and the footprint bound.
//!
//! The demotion protocol (DESIGN.md §7) must hold under real threads:
//! one thread partially unmapping a populated superpage while others
//! fault adjacent 4 KiB pages of the same block must never lose a
//! translation, double-free a frame, or leave the block's reference
//! count wrong. `quiesce` makes frame accounting exact afterwards.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Backing, Machine, MapFlags, Prot, VmError, VmSystem, BLOCK_PAGES, PAGE_SIZE};

const BASE: u64 = 0x70_0000_0000; // 2 MiB aligned
const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;

fn radix(ncores: usize) -> (Arc<Machine>, Arc<dyn VmSystem>) {
    let machine = Machine::new(ncores);
    let vm = build(&machine, BackendKind::Radix);
    for c in 0..ncores {
        vm.attach_core(c);
    }
    (machine, vm)
}

/// A core's live superpages must all stay in its TLB: span entries index
/// by `vpn / span`, so neighbouring blocks take neighbouring slots. (They
/// once indexed by `vpn`, which lands every 2 MiB-aligned base of the
/// default 1024-entry TLB in slot 0 or 512: four blocks read round-robin
/// evicted each other on every access — 0 hits, each miss a full fault.)
#[test]
fn round_robin_over_live_superpages_always_hits() {
    const BLOCKS: u64 = 4;
    const ROUNDS: u64 = 100;
    let (machine, vm) = radix(1);
    vm.mmap_flags(
        0,
        BASE,
        BLOCKS * BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    // First touch: one superpage fault per block.
    for b in 0..BLOCKS {
        machine
            .write_u64(0, &*vm, BASE + b * BLOCK_BYTES, b)
            .unwrap();
    }
    assert_eq!(vm.op_stats().superpage_installs, BLOCKS);
    let before = machine.stats();
    for i in 0..ROUNDS {
        for b in 0..BLOCKS {
            let va = BASE + b * BLOCK_BYTES + (i % BLOCK_PAGES) * PAGE_SIZE;
            let want = if i == 0 { b } else { 0 };
            assert_eq!(machine.read_u64(0, &*vm, va).unwrap(), want);
        }
    }
    let looked_up = machine.stats().since(&before);
    assert_eq!(looked_up.tlb_misses, 0, "a live span was evicted");
    assert_eq!(looked_up.tlb_hits, BLOCKS * ROUNDS);
}

#[test]
fn concurrent_demotion_loses_no_ptes() {
    // One thread repeatedly unmaps/remaps the first 64 pages of a
    // populated superpage (forcing demotion each cycle) while three
    // others hammer reads and writes on the surviving 448 pages.
    let (machine, vm) = radix(4);
    vm.mmap_flags(
        0,
        BASE,
        BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    // Populate as a superpage and stamp every surviving page.
    for p in 64..BLOCK_PAGES {
        machine
            .write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0x5000 + p)
            .unwrap();
    }
    let mut handles = Vec::new();
    {
        let machine = machine.clone();
        let vm = vm.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                vm.munmap(0, BASE, 64 * PAGE_SIZE).unwrap();
                vm.mmap_flags(
                    0,
                    BASE,
                    64 * PAGE_SIZE,
                    Prot::RW,
                    Backing::Anon,
                    MapFlags::NONE,
                )
                .unwrap();
                machine.write_u64(0, &*vm, BASE, 1).unwrap();
            }
        }));
    }
    for core in 1..4usize {
        let machine = machine.clone();
        let vm = vm.clone();
        handles.push(std::thread::spawn(move || {
            let mut x = core as u64;
            for i in 0..400u64 {
                // Surviving pages only: they must never disappear.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                let p = 64 + x % (BLOCK_PAGES - 64);
                let va = BASE + p * PAGE_SIZE;
                let got = machine
                    .read_u64(core, &*vm, va)
                    .unwrap_or_else(|e| panic!("page {p} lost: {e}"));
                assert_eq!(got, 0x5000 + p, "page {p} corrupted");
                if i % 7 == 0 {
                    machine.write_u64(core, &*vm, va, 0x5000 + p).unwrap();
                }
                if i % 64 == 0 {
                    vm.maintain(core);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(machine.stats().stale_detected, 0, "stale translation");
    // Exactly one demotion freed nothing early: the block is still the
    // backing of pages 64..512 plus per-4KiB frames for 0..64.
    vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
    vm.quiesce();
    let st = machine.pool().stats();
    assert_eq!(st.block_frees, 1, "superpage block freed exactly once");
    // Every 4 KiB frame allocated for the low 64 pages came back too:
    // allocations equal frees (fresh frames minus those still on free
    // lists is exactly zero once everything is unmapped).
    let ops = vm.op_stats();
    assert!(ops.superpage_demotions >= 1, "demotion never happened");
    assert_eq!(
        st.free_pages,
        // 512 block member frames (freed in one block) + one 4 KiB frame
        // per alloc-fault on the low pages.
        BLOCK_PAGES + (ops.faults_alloc - 1),
        "frame accounting off after quiesce"
    );
}

#[test]
fn demotion_under_faults_on_every_radix_backend() {
    // The demotion protocol is granularity-correct on the shared-table
    // ablation too (block PTE lives in one table; span shootdown
    // broadcasts).
    for kind in [
        BackendKind::Radix,
        BackendKind::RadixSharedPt,
        BackendKind::RadixNoCollapse,
    ] {
        let machine = Machine::new(2);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        vm.attach_core(1);
        vm.mmap_flags(
            0,
            BASE,
            BLOCK_BYTES,
            Prot::RW,
            Backing::Anon,
            MapFlags::HUGE,
        )
        .unwrap();
        machine
            .write_u64(1, &*vm, BASE + 100 * PAGE_SIZE, 77)
            .unwrap();
        // Partial unmap demotes; survivor keeps its contents on the
        // *other* core.
        vm.munmap(0, BASE, 10 * PAGE_SIZE).unwrap();
        assert_eq!(
            machine.read_u64(1, &*vm, BASE + 100 * PAGE_SIZE).unwrap(),
            77,
            "{kind}: survivor lost"
        );
        assert_eq!(
            machine.read_u64(1, &*vm, BASE),
            Err(VmError::NoMapping),
            "{kind}: unmapped page survived"
        );
        vm.munmap(0, BASE + 10 * PAGE_SIZE, BLOCK_BYTES - 10 * PAGE_SIZE)
            .unwrap();
        vm.quiesce();
        assert_eq!(
            machine.pool().stats().block_frees,
            1,
            "{kind}: block not freed exactly once"
        );
        assert_eq!(machine.stats().stale_detected, 0, "{kind}");
    }
}

#[test]
fn promotion_races_faults_without_leaks() {
    // One thread drives demote/converge cycles — each mprotect
    // round-trip shatters the block and the following sweep's fill
    // counter promotes it back — while three reader cores hammer the
    // same block. Promotion must never lose a translation, corrupt a
    // page, or disturb the block's reference count; afterwards frame
    // accounting is exact.
    let (machine, vm) = radix(4);
    vm.mmap_flags(
        0,
        BASE,
        BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    for p in 0..BLOCK_PAGES {
        machine
            .write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0x9000 + p)
            .unwrap();
    }
    let mut handles = Vec::new();
    {
        let machine = machine.clone();
        let vm = vm.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..20 {
                vm.mprotect(0, BASE, 8 * PAGE_SIZE, Prot::READ).unwrap();
                vm.mprotect(0, BASE, 8 * PAGE_SIZE, Prot::RW).unwrap();
                for p in 0..BLOCK_PAGES {
                    machine
                        .write_u64(0, &*vm, BASE + p * PAGE_SIZE, 0x9000 + p)
                        .unwrap();
                }
                vm.maintain(0);
            }
        }));
    }
    for core in 1..4usize {
        let machine = machine.clone();
        let vm = vm.clone();
        handles.push(std::thread::spawn(move || {
            let mut x = core as u64;
            for i in 0..2000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                let p = x % BLOCK_PAGES;
                let got = machine
                    .read_u64(core, &*vm, BASE + p * PAGE_SIZE)
                    .unwrap_or_else(|e| panic!("page {p} lost mid-promotion: {e}"));
                assert_eq!(got, 0x9000 + p, "page {p} corrupted mid-promotion");
                if i % 64 == 0 {
                    vm.maintain(core);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let ops = vm.op_stats();
    assert!(ops.superpage_demotions >= 1, "cycles never demoted");
    assert!(
        ops.superpage_promotions >= 1,
        "fill counters never promoted under contention"
    );
    assert_eq!(machine.stats().stale_detected, 0, "stale translation");
    vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
    vm.quiesce();
    machine.pool().flush_magazines();
    assert_eq!(
        machine.pool().outstanding_frames(),
        0,
        "promotion cycles leaked frames"
    );
    assert_eq!(
        machine.pool().stats().block_frees,
        1,
        "block freed exactly once despite repeated promote/demote"
    );
}

/// One op of the repo benchmark's `superpage` workload on `core`, at its
/// `i`-th never-reused block: map 2 MiB with the huge hint, write two
/// words 300 pages apart (one block fault), on every fourth op punch a
/// 16-page hole first (a demotion: the rest of the block is then given up
/// as 496 one-page shares), unmap. No `maintain`. Returns the frames
/// outstanding while the block was populated, the op's high-water mark.
fn superpage_op(machine: &Machine, vm: &dyn VmSystem, core: usize, i: u64) -> u64 {
    let addr = BASE + i * BLOCK_BYTES;
    vm.mmap_flags(
        core,
        addr,
        BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    machine.write_u64(core, vm, addr, i).unwrap();
    machine
        .write_u64(core, vm, addr + 300 * PAGE_SIZE, !i)
        .unwrap();
    let populated = machine.pool().outstanding_frames();
    if i % 4 == 3 {
        vm.munmap(core, addr + 100 * PAGE_SIZE, 16 * PAGE_SIZE)
            .unwrap();
        assert_eq!(machine.read_u64(core, vm, addr), Ok(i));
    }
    vm.munmap(core, addr, BLOCK_BYTES).unwrap();
    populated
}

/// The footprint bound (DESIGN.md §8): a block only its own core added
/// references to comes back inside the unmap that gives it up, and a
/// core that unmaps a superpage's worth of memory runs a Refcache tick
/// itself for the rest, so a loop that
/// maps, touches and unmaps 2 MiB per op and **never calls `maintain`**
/// runs for ever in a pool of two blocks — it has each block back before
/// its next op. (With only the caller's timer to start the clock, this
/// loop exhausts the pool at its third op.)
#[test]
fn unmapped_superpages_come_back_without_a_timer() {
    const OPS: u64 = 200;
    let (machine, vm) = radix(1);
    let pool = machine.pool();
    // Two blocks, and one refill batch of 4 KiB frames of slack.
    pool.set_frame_limit(2 * BLOCK_PAGES + 64);
    let peak = (0..OPS)
        .map(|i| superpage_op(&machine, &*vm, 0, i))
        .max()
        .unwrap();
    let st = vm.op_stats();
    assert_eq!(
        (st.superpage_installs, st.block_fallbacks, st.oom_faults),
        (OPS, 0, 0)
    );
    assert!(peak <= BLOCK_PAGES, "{peak} frames outstanding");
    assert_eq!(pool.stats().block_allocs, OPS);
    vm.quiesce();
    assert_eq!(pool.outstanding_frames(), 0);
}

/// Frames do not wait on an idle core: the epoch needs every core, but
/// a block no other core added a reference to is back inside the unmap
/// that gave it up (DESIGN.md §8). So while a second core never ticks,
/// the first holds at most one block after each op, and nothing fails or
/// leaks.
#[test]
fn an_idle_core_holds_back_no_frames_and_loses_nothing() {
    const OPS: u64 = 12;
    let (machine, vm) = radix(2);
    let pool = machine.pool();
    for i in 0..OPS {
        superpage_op(&machine, &*vm, 0, i);
        let left = pool.outstanding_frames();
        assert!(left <= BLOCK_PAGES, "op {i}: {left} frames outstanding");
    }
    let st = vm.op_stats();
    assert_eq!(
        (st.superpage_installs, st.block_fallbacks, st.oom_faults),
        (OPS, 0, 0)
    );
    vm.quiesce();
    assert_eq!(pool.outstanding_frames(), 0);
}

/// What the bound does *not* promise: a block another core added
/// references to — here core 1 punches a hole in core 0's superpage,
/// which demotes it and adopts the clones on core 1 — waits the full two
/// epochs, and those need core 1's ticks. Core 0's own blocks still come
/// back inside its unmaps meanwhile.
#[test]
fn a_block_another_core_added_to_waits_for_that_cores_ticks() {
    let (machine, vm) = radix(2);
    let pool = machine.pool();
    vm.mmap_flags(
        0,
        BASE,
        BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    machine.write_u64(0, &*vm, BASE, 7).unwrap();
    vm.munmap(1, BASE + 100 * PAGE_SIZE, 16 * PAGE_SIZE)
        .unwrap();
    assert_eq!(vm.op_stats().superpage_demotions, 1);
    // Core 1 applies its adoption, and goes idle.
    vm.maintain(1);
    vm.munmap(0, BASE, BLOCK_BYTES).unwrap();
    for i in 1..4 {
        superpage_op(&machine, &*vm, 0, i);
        vm.maintain(0);
        assert_eq!(
            pool.outstanding_frames(),
            BLOCK_PAGES,
            "op {i}: the shared block waits, core 0's own are back"
        );
    }
    // Two epochs, each a flush of core 1 and then one of core 0.
    for _ in 0..2 {
        vm.maintain(1);
        vm.maintain(0);
    }
    assert_eq!(pool.outstanding_frames(), 0, "the shared block is back");
    vm.quiesce();
    assert_eq!(pool.outstanding_frames(), 0);
}
