//! Pins the number of **locked instructions** (atomic read-modify-writes
//! and lock acquisitions, `sim::CoreStats::rmws`) the warm paths execute
//! on one virtual core. Every one of them is on a line no other core
//! shares, so each is pure overhead the host pays on every op; a counter
//! that creeps back to `fetch_add` under a lock its path already holds,
//! or a second lock round-trip, shows up here as a number, not as a
//! few per cent of wall clock lost in run-to-run noise (DESIGN.md §5).
//!
//! The ops are the repo benchmark's (`benchmark/src/workloads.rs`), on a
//! one-core machine under the simulator.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Backing, Machine, Prot, VmSystem, PAGE_SIZE};
use radixvm::sync::{sim, CostModel};

const BASE: u64 = 0x200_0000_0000;
/// Ops between Refcache ticks, as in the benchmark.
const MAINTAIN_EVERY: u64 = 128;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A one-core machine and RadixVM address space under the simulator.
fn one_core() -> (sim::SimGuard, Arc<Machine>, Arc<dyn VmSystem>) {
    let guard = sim::install(1, CostModel::default());
    sim::switch(0);
    let machine = Machine::new(1);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    (guard, machine, vm)
}

/// Locked instructions core 0 executes in `work`.
fn rmws(work: impl FnOnce()) -> u64 {
    let before = sim::stats().cores[0].rmws;
    work();
    sim::stats().cores[0].rmws - before
}

#[test]
fn tlb_hit_is_one_locked_instruction() {
    let (_sim, machine, vm) = one_core();
    vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    machine.write_u64(0, &*vm, BASE, 7).unwrap();
    machine.read_u64(0, &*vm, BASE).unwrap();
    let hits = machine.stats().tlb_hits;
    // The TLB lock's acquire, and nothing else: the hit counter is a
    // single-mutator word under that lock.
    let read = rmws(|| assert_eq!(machine.read_u64(0, &*vm, BASE).unwrap(), 7));
    let write = rmws(|| machine.write_u64(0, &*vm, BASE + 8, 9).unwrap());
    assert_eq!(machine.stats().tlb_hits, hits + 2, "both were hits");
    assert_eq!((read, write), (1, 1));
}

#[test]
fn refault_op_stays_within_seven() {
    let (_sim, machine, vm) = one_core();
    let pages = 512u64;
    vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..pages {
        machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
    }
    // One op: drop a resident page's TLB entry and read it back (a fill
    // fault served by the leaf hint).
    let mut rng = 1;
    let mut op = || {
        rng = splitmix(rng);
        let page = rng % pages;
        machine.invalidate_local(0, vm.asid(), (BASE >> 12) + page, 1);
        assert_eq!(
            machine.read_u64(0, &*vm, BASE + page * PAGE_SIZE).unwrap(),
            page
        );
    };
    for _ in 0..64 {
        op();
    }
    let fills = vm.op_stats().faults_fill;
    const OPS: u64 = 1000;
    let n = rmws(|| (0..OPS).for_each(|_| op()));
    assert_eq!(vm.op_stats().faults_fill, fills + OPS, "every op refaulted");
    assert!(n <= 7 * OPS, "refault op: {} locked instructions", n / OPS);
}

#[test]
fn disjoint_op_with_its_share_of_maintain_stays_within_twenty_six() {
    let (_sim, machine, vm) = one_core();
    // One op: mmap 4 KiB at one of 64 private slots, fill the page,
    // munmap; a Refcache tick every 128 ops.
    let (mut rng, mut i) = (2, 0u64);
    let mut op = || {
        i += 1;
        rng = splitmix(rng);
        let addr = BASE + (rng % 64) * 8 * PAGE_SIZE;
        vm.mmap(0, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.touch_page(0, &*vm, addr, i as u8).unwrap();
        vm.munmap(0, addr, PAGE_SIZE).unwrap();
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(0);
        }
    };
    for _ in 0..8 * MAINTAIN_EVERY {
        op();
    }
    let fresh = machine.pool().stats().fresh;
    const OPS: u64 = 8 * MAINTAIN_EVERY;
    let n = rmws(|| (0..OPS).for_each(|_| op()));
    assert_eq!(machine.pool().stats().fresh, fresh, "warm: no pool growth");
    assert!(
        n <= 26 * OPS,
        "disjoint op: {:.2} locked instructions",
        n as f64 / OPS as f64
    );
}

#[test]
fn one_core_shared_remap_op_stays_within_twenty_two() {
    let (_sim, machine, vm) = one_core();
    let pages = 16u64;
    let map = || {
        vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
    };
    map();
    // One op: touch four pages of the one mapping; every sixteenth op
    // first replaces the mapping in place; a Refcache tick every 128.
    let (mut rng, mut i) = (3, 0u64);
    let mut op = || {
        i += 1;
        rng = splitmix(rng);
        if i.is_multiple_of(16) {
            map();
        }
        for k in 0..4 {
            let page = (rng >> (8 * k)) % pages;
            machine
                .touch_page(0, &*vm, BASE + page * PAGE_SIZE, 1)
                .unwrap();
        }
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(0);
        }
    };
    for _ in 0..8 * MAINTAIN_EVERY {
        op();
    }
    const OPS: u64 = 8 * MAINTAIN_EVERY;
    let n = rmws(|| (0..OPS).for_each(|_| op()));
    assert!(
        n <= 22 * OPS,
        "shared_remap op: {:.2} locked instructions",
        n as f64 / OPS as f64
    );
}
