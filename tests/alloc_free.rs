//! Acceptance test for the fault fast path: after warm-up, single-page
//! fault handling performs **zero heap allocations** — the guard's unit
//! and pin storage is inline, the leaf hint skips the descent, and
//! nothing on the PTE/TLB refill path allocates. The same holds for a
//! warm one-page `munmap`, an in-place re-`mmap`, and the Refcache tick
//! that frees their frames. And a warm superpage demotion, which builds
//! a radix leaf and later frees it, takes the leaf's slot array from the
//! core's spare list, not from the allocator.
//!
//! Lives in its own integration-test binary because it installs a
//! counting global allocator, and contains a single #[test] so no
//! concurrent test can perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use radixvm::backend::{build, BackendKind};
use radixvm::core_vm::PageMeta;
use radixvm::hw::{Backing, Machine, MapFlags, Prot, BLOCK_PAGES, PAGE_SIZE};
use radixvm::radix::node::LeafSlot;
use radixvm::radix::{LockMode, RadixConfig, RadixTree, FANOUT};
use radixvm::refcache::Refcache;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Bytes of one radix leaf's slot array in RadixVM's tree.
const LEAF_BYTES: usize = FANOUT * std::mem::size_of::<LeafSlot<PageMeta>>();

/// Fresh allocations of at least a leaf array's size. A `realloc` is
/// not one: the list of values a 2 MiB `munmap` displaces grows past
/// this size in place.
static LEAF_SIZED: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates to the system allocator; only adds counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LEAF_BYTES {
            LEAF_SIZED.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const BASE: u64 = 0x70_0000_0000;

/// Runs `work` (a 10k-operation loop) in up to five measurement windows
/// and requires at least one window with zero allocations. The counter
/// is process-global, and the libtest harness's main thread may allocate
/// concurrently (printing the test-start event) during the first window;
/// a genuine fault-path allocation would taint *every* window, so one
/// clean window proves the path allocation-free.
fn assert_allocation_free(label: &str, mut work: impl FnMut()) {
    let mut last = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::Relaxed);
        work();
        last = ALLOCS.load(Ordering::Relaxed) - before;
        if last == 0 {
            return;
        }
    }
    panic!("{label}: every window allocated (last saw {last} allocations)");
}

#[test]
fn warm_single_page_fault_path_is_allocation_free() {
    // Phase 1: the radix-tree component alone — single-page range lock +
    // metadata mutation, the tree work of every page fault.
    {
        let cache = std::sync::Arc::new(Refcache::new(1));
        let tree = RadixTree::<u64>::new(cache, RadixConfig::default());
        let base = 512 * 11;
        tree.lock_range(0, base, base + 512, LockMode::ExpandAll)
            .replace(&1);
        // Warm-up: expands the folded block to a leaf, installs the hint.
        for i in 0..16u64 {
            let vpn = base + (i % 8);
            let mut g = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
            *g.page_value_mut().expect("mapped") += 1;
        }
        // Drain warm-up residue from the Refcache delta cache and review
        // queue (a leftover warm-up delta in the hash slot the leaf maps
        // to would otherwise be conflict-evicted — and possibly queued —
        // on the first measured fault), then re-warm the hint.
        tree.cache().quiesce();
        for i in 0..16u64 {
            let vpn = base + (i % 8);
            let mut g = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
            *g.page_value_mut().expect("mapped") += 1;
        }
        assert_allocation_free("tree fault path", || {
            for i in 0..10_000u64 {
                let vpn = base + (i % 8);
                let mut g = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
                *g.page_value_mut().expect("mapped") += 1;
            }
        });
        assert_allocation_free("tree lookup path", || {
            for i in 0..10_000u64 {
                assert!(tree.get(0, base + (i % 8)).is_some());
                assert!(tree.lookup_present(0, base + (i % 8)));
            }
        });
    }

    // Phase 2: the full stack — TLB invalidate + access → pagefault →
    // range lock → PTE install → TLB fill, repeated in one block.
    let machine = Machine::new(1);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..8u64 {
        machine
            .touch_page(0, &*vm, BASE + p * PAGE_SIZE, 1)
            .unwrap();
    }
    // Warm-up: page tables and TLB structures exist, hint installed;
    // then drain warm-up residue (see phase 1) and re-warm the hint.
    for i in 0..64u64 {
        let vpn = (BASE >> 12) + (i % 8);
        machine.invalidate_local(0, vm.asid(), vpn, 1);
        machine
            .read_u64(0, &*vm, BASE + (i % 8) * PAGE_SIZE)
            .unwrap();
    }
    vm.quiesce();
    for i in 0..64u64 {
        let vpn = (BASE >> 12) + (i % 8);
        machine.invalidate_local(0, vm.asid(), vpn, 1);
        machine
            .read_u64(0, &*vm, BASE + (i % 8) * PAGE_SIZE)
            .unwrap();
    }
    assert_allocation_free("full fault path", || {
        for i in 0..10_000u64 {
            let vpn = (BASE >> 12) + (i % 8);
            machine.invalidate_local(0, vm.asid(), vpn, 1);
            machine
                .read_u64(0, &*vm, BASE + (i % 8) * PAGE_SIZE)
                .unwrap();
        }
    });

    // Phase 2b: a warm one-page `munmap`, and an `mmap` over a faulted
    // page (an in-place re-`mmap`, which unmaps what it displaces), are
    // allocation-free too: the displaced values, the frame references
    // to drop and the page-table runs to clear all sit in inline lists
    // (`RemovedList`, DESIGN.md §5). Only those two calls are counted —
    // the loop's periodic `maintain` frees frames through Refcache's
    // review pass, which is not part of either operation.
    const CHURN: u64 = 0x72_0000_0000;
    let churn = |munmap: bool| -> u64 {
        let mut counted = 0;
        for i in 0..4_096u64 {
            let va = CHURN + (i % 8) * PAGE_SIZE;
            vm.mmap(0, va, PAGE_SIZE, Prot::RW, Backing::Anon).unwrap();
            machine.touch_page(0, &*vm, va, 1).unwrap();
            let before = ALLOCS.load(Ordering::Relaxed);
            if munmap {
                vm.munmap(0, va, PAGE_SIZE).unwrap();
            } else {
                vm.mmap(0, va, PAGE_SIZE, Prot::RW, Backing::Anon).unwrap();
            }
            counted += ALLOCS.load(Ordering::Relaxed) - before;
            if i % 128 == 127 {
                vm.maintain(0);
            }
        }
        counted
    };
    churn(true); // warm-up: leaf, page-table nodes, pool lists exist
    for (label, munmap) in [("one-page munmap", true), ("in-place re-mmap", false)] {
        let mut last = u64::MAX;
        for _ in 0..5 {
            let fa0 = vm.op_stats().faults_alloc;
            last = churn(munmap);
            assert_eq!(
                vm.op_stats().faults_alloc - fa0,
                4_096,
                "{label}: every counted call must displace a faulted frame"
            );
            if last == 0 {
                break;
            }
        }
        assert_eq!(last, 0, "{label}: every window allocated");
    }

    // Phase 2c: a warm Refcache tick. After 128 map/touch/unmap ops,
    // `maintain` flushes their deltas and frees the 128 frames queued two
    // ticks earlier. Its review pass collects what it frees in a list the
    // core keeps between ticks, so the tick allocates nothing either.
    let tick = || -> (u64, u64) {
        for i in 0..128u64 {
            let va = CHURN + (i % 8) * PAGE_SIZE;
            vm.mmap(0, va, PAGE_SIZE, Prot::RW, Backing::Anon).unwrap();
            machine.touch_page(0, &*vm, va, 1).unwrap();
            vm.munmap(0, va, PAGE_SIZE).unwrap();
        }
        let freed = machine.pool().stats().free_pages;
        let before = ALLOCS.load(Ordering::Relaxed);
        vm.maintain(0);
        (
            ALLOCS.load(Ordering::Relaxed) - before,
            machine.pool().stats().free_pages - freed,
        )
    };
    for _ in 0..4 {
        tick(); // warm-up: the review queue and the free list have room
    }
    let mut last = u64::MAX;
    for _ in 0..5 {
        let (allocs, freed) = tick();
        assert_eq!(freed, 128, "a warm tick frees one tick's frames");
        last = allocs;
        if last == 0 {
            break;
        }
    }
    assert_eq!(last, 0, "Refcache tick: every window allocated");

    // Phase 2d: a warm demotion cycle — hinted 2 MiB map, one write (a
    // block fault), a 16-page hole punched (the fold becomes a leaf),
    // unmap, tick. The tick reviews the leaf the cycle two ticks earlier
    // emptied, and its slot array goes to the core's spare list, where
    // the next demotion finds it: no allocation of a leaf's size.
    const SUPER: u64 = 0x74_0000_0000;
    const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;
    let demote = |i: u64| {
        let addr = SUPER + (i % 4) * BLOCK_BYTES;
        vm.mmap_flags(
            0,
            addr,
            BLOCK_BYTES,
            Prot::RW,
            Backing::Anon,
            MapFlags::HUGE,
        )
        .unwrap();
        machine.write_u64(0, &*vm, addr, i).unwrap();
        vm.munmap(0, addr + 100 * PAGE_SIZE, 16 * PAGE_SIZE)
            .unwrap();
        vm.munmap(0, addr, BLOCK_BYTES).unwrap();
        vm.maintain(0);
    };
    (0..16).for_each(demote); // warm-up: the block pool and the spare list
    let mut last = u64::MAX;
    for _ in 0..5 {
        let demotions = vm.op_stats().superpage_demotions;
        let before = LEAF_SIZED.load(Ordering::Relaxed);
        (0..64).for_each(demote);
        last = LEAF_SIZED.load(Ordering::Relaxed) - before;
        assert_eq!(vm.op_stats().superpage_demotions - demotions, 64);
        if last == 0 {
            break;
        }
    }
    assert_eq!(last, 0, "demotion cycle: {LEAF_BYTES}-byte allocations");

    // Phase 3: the COLD fault path — demand-zero populating a fresh page
    // (frame off the core-local free list, count cell armed in the frame
    // table, PTE + TLB install) performs zero heap allocations too, now
    // that no per-fault Refcache object exists (DESIGN.md §8). The
    // region's radix leaves, page-table nodes, TLB structures, and pool
    // free lists are pre-built; between windows the mapping is replaced
    // in place (displacing the frames but keeping every leaf populated)
    // and the VM quiesced, so each window's faults are genuinely cold —
    // asserted via the faults_alloc counter — yet allocation-free.
    const COLD_BASE: u64 = 0x71_0000_0000;
    const COLD_PAGES: u64 = 2048;
    vm.mmap(
        0,
        COLD_BASE,
        COLD_PAGES * PAGE_SIZE,
        Prot::RW,
        Backing::Anon,
    )
    .unwrap();
    for p in 0..COLD_PAGES {
        machine
            .touch_page(0, &*vm, COLD_BASE + p * PAGE_SIZE, 1)
            .unwrap();
    }
    let mut clean = false;
    let mut last = u64::MAX;
    for _ in 0..5 {
        // Displace the frames; leaves stay populated (replace swaps
        // values in place), so the next faults re-allocate cold.
        vm.mmap(
            0,
            COLD_BASE,
            COLD_PAGES * PAGE_SIZE,
            Prot::RW,
            Backing::Anon,
        )
        .unwrap();
        vm.quiesce();
        let fa0 = vm.op_stats().faults_alloc;
        let before = ALLOCS.load(Ordering::Relaxed);
        for p in 0..COLD_PAGES {
            machine
                .read_u64(0, &*vm, COLD_BASE + p * PAGE_SIZE)
                .unwrap();
        }
        last = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            vm.op_stats().faults_alloc - fa0,
            COLD_PAGES,
            "window faults must be cold page-allocating faults"
        );
        if last == 0 {
            clean = true;
            break;
        }
    }
    assert!(
        clean,
        "cold fault path: every window allocated (last saw {last} allocations)"
    );
}
