//! Property-based tests: each core data structure against a pure oracle.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use radixvm::backend::{build, BackendKind};
use radixvm::baselines::{SkipList, Vma, VmaMap};
use radixvm::hw::{Backing, Machine, MapFlags, Prot, VmError, BLOCK_PAGES, GIANT_PAGES, PAGE_SIZE};
use radixvm::radix::{LockMode, RadixConfig, RadixTree, Removed};
use radixvm::refcache::{Managed, Refcache, ReleaseCtx, EXPEDITE_PAGES};
use radixvm::sync::failpoint::{self, Trigger};
use radixvm::sync::{RangeLock, RangeLockKind, RangeToken};

/// Operations over a small VPN window.
#[derive(Debug, Clone)]
enum TreeOp {
    Set { lo: u64, len: u64, val: u64 },
    Clear { lo: u64, len: u64 },
    Get { at: u64 },
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0u64..2048, 1u64..600, any::<u64>()).prop_map(|(lo, len, val)| TreeOp::Set {
            lo,
            len,
            val
        }),
        (0u64..2048, 1u64..600).prop_map(|(lo, len)| TreeOp::Clear { lo, len }),
        (0u64..2700).prop_map(|at| TreeOp::Get { at }),
    ]
}

/// VM-level operations over a small window, mixing granularities: maps
/// may be superpage-aligned (and hinted) or arbitrary 4 KiB ranges, and
/// unmaps freely cut across populated superpages (forcing demotion).
#[derive(Debug, Clone)]
enum VmOp {
    /// mmap `pages` pages at `start`; `aligned` snaps both to block
    /// boundaries, `huge` adds the superpage hint.
    Map {
        start: u64,
        pages: u64,
        aligned: bool,
        huge: bool,
    },
    /// munmap `pages` pages at `start` (aligned variant as above).
    Unmap {
        start: u64,
        pages: u64,
        aligned: bool,
    },
    /// Write `val` to page `page` through the access path.
    Write { page: u64, val: u64 },
    /// Read page `page` through the access path.
    Read { page: u64 },
}

/// The mixed-granularity window: 4 superpage blocks.
const VM_WINDOW: u64 = 4 * BLOCK_PAGES;

fn vm_op() -> impl Strategy<Value = VmOp> {
    prop_oneof![
        (0..VM_WINDOW, 1..1100u64, any::<bool>(), any::<bool>()).prop_map(
            |(start, pages, aligned, huge)| VmOp::Map {
                start,
                pages,
                aligned,
                huge
            }
        ),
        (0..VM_WINDOW, 1..1100u64, any::<bool>()).prop_map(|(start, pages, aligned)| {
            VmOp::Unmap {
                start,
                pages,
                aligned,
            }
        }),
        (0..VM_WINDOW, any::<u64>()).prop_map(|(page, val)| VmOp::Write { page, val }),
        (0..VM_WINDOW).prop_map(|page| VmOp::Read { page }),
    ]
}

/// Demote/promote cycle operations over a 2-block window: protection
/// round-trips and hole-punches demote populated superpages, full-block
/// sweeps converge them so the fault path's fill counters promote them
/// back, and a pressure toggle (the block-allocation failpoint) forces
/// hinted populates into scattered 4 KiB pages — whose sweeps then
/// promote by *migration* once pressure lifts.
#[derive(Debug, Clone)]
enum CycleOp {
    /// Map one aligned block, hinted.
    MapHuge {
        block: u64,
    },
    /// Unmap one whole block.
    UnmapBlock {
        block: u64,
    },
    /// Unmap a single page (demotes a populated superpage).
    PunchHole {
        block: u64,
        page: u64,
    },
    /// mprotect READ then RW on a sub-range (demotes; restores RW).
    ProtCycle {
        block: u64,
        pages: u64,
    },
    /// Touch every page of the block with `val + page` (converges; the
    /// crossing promotes when all 512 pages are present and uniform).
    Sweep {
        block: u64,
        val: u64,
    },
    /// Arm or disarm the block-allocation failpoint (§11 pressure).
    Pressure {
        on: bool,
    },
    Write {
        page: u64,
        val: u64,
    },
    Read {
        page: u64,
    },
}

/// The demote/promote window: 2 superpage blocks.
const CYCLE_BLOCKS: u64 = 2;

fn cycle_op() -> impl Strategy<Value = CycleOp> {
    prop_oneof![
        (0..CYCLE_BLOCKS).prop_map(|block| CycleOp::MapHuge { block }),
        (0..CYCLE_BLOCKS).prop_map(|block| CycleOp::UnmapBlock { block }),
        (0..CYCLE_BLOCKS, 0..BLOCK_PAGES)
            .prop_map(|(block, page)| CycleOp::PunchHole { block, page }),
        (0..CYCLE_BLOCKS, 1..32u64).prop_map(|(block, pages)| CycleOp::ProtCycle { block, pages }),
        (0..CYCLE_BLOCKS, any::<u64>()).prop_map(|(block, val)| CycleOp::Sweep { block, val }),
        any::<bool>().prop_map(|on| CycleOp::Pressure { on }),
        (0..CYCLE_BLOCKS * BLOCK_PAGES, any::<u64>())
            .prop_map(|(page, val)| CycleOp::Write { page, val }),
        (0..CYCLE_BLOCKS * BLOCK_PAGES).prop_map(|page| CycleOp::Read { page }),
    ]
}

/// Blocks per giant region.
const GIANT_BLOCKS: u64 = GIANT_PAGES / BLOCK_PAGES;

/// Block-granular operations over two 1 GiB regions, exercising the
/// giant rung purely at the tree level (no frames: a *populated* giant
/// region would cost a real gigabyte of host memory per case).
#[derive(Debug, Clone)]
enum GiantOp {
    /// Set `blks` blocks starting at block `start_blk` to `val`.
    Set { start_blk: u64, blks: u64, val: u64 },
    /// Clear `blks` blocks starting at block `start_blk`.
    Clear { start_blk: u64, blks: u64 },
    /// Sample block `blk` at both edges.
    Probe { blk: u64 },
}

fn giant_op() -> impl Strategy<Value = GiantOp> {
    // Lengths biased so whole-giant ranges (one fold) actually occur.
    fn len() -> impl Strategy<Value = u64> {
        prop_oneof![1..64u64, Just(GIANT_BLOCKS), Just(2 * GIANT_BLOCKS)]
    }
    prop_oneof![
        (0..2 * GIANT_BLOCKS, len(), any::<u64>()).prop_map(|(start_blk, blks, val)| {
            GiantOp::Set {
                start_blk,
                blks,
                val,
            }
        }),
        (0..2 * GIANT_BLOCKS, len())
            .prop_map(|(start_blk, blks)| GiantOp::Clear { start_blk, blks }),
        (0..2 * GIANT_BLOCKS).prop_map(|blk| GiantOp::Probe { blk }),
    ]
}

/// Snaps an op's `(start, pages)` to the window, optionally to block
/// alignment. Returns `None` when nothing is left.
fn clamp(start: u64, pages: u64, aligned: bool) -> Option<(u64, u64)> {
    let (start, pages) = if aligned {
        let s = start & !(BLOCK_PAGES - 1);
        (s, pages.div_ceil(BLOCK_PAGES) * BLOCK_PAGES)
    } else {
        (start, pages)
    };
    let start = start.min(VM_WINDOW);
    let pages = pages.min(VM_WINDOW - start);
    (pages > 0).then_some((start, pages))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full RadixVM address space agrees with a flat per-page oracle
    /// under mixed-granularity op sequences: hinted aligned mappings
    /// (superpage installs), arbitrary 4 KiB mappings over them,
    /// demotion-forcing partial unmaps, and reads/writes through the
    /// machine access path.
    #[test]
    fn radix_vm_mixed_granularity_matches_flat_oracle(
        ops in proptest::collection::vec(vm_op(), 1..60)
    ) {
        let machine = Machine::new(1);
        let vm = build(&machine, BackendKind::Radix);
        vm.attach_core(0);
        let base_va: u64 = 0x80_0000_0000; // superpage aligned
        let va = |p: u64| base_va + p * PAGE_SIZE;
        // page -> current value of mapped pages.
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                VmOp::Map { start, pages, aligned, huge } => {
                    let Some((start, pages)) = clamp(start, pages, aligned) else {
                        continue;
                    };
                    let flags = if huge { MapFlags::HUGE } else { MapFlags::NONE };
                    vm.mmap_flags(0, va(start), pages * PAGE_SIZE, Prot::RW,
                                  Backing::Anon, flags).unwrap();
                    for p in start..start + pages {
                        oracle.insert(p, 0); // demand zero
                    }
                }
                VmOp::Unmap { start, pages, aligned } => {
                    let Some((start, pages)) = clamp(start, pages, aligned) else {
                        continue;
                    };
                    vm.munmap(0, va(start), pages * PAGE_SIZE).unwrap();
                    for p in start..start + pages {
                        oracle.remove(&p);
                    }
                }
                VmOp::Write { page, val } => {
                    let r = machine.write_u64(0, &*vm, va(page), val);
                    match oracle.get_mut(&page) {
                        Some(slot) => {
                            prop_assert_eq!(r, Ok(()), "write to mapped page {}", page);
                            *slot = val;
                        }
                        None => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
                VmOp::Read { page } => {
                    let r = machine.read_u64(0, &*vm, va(page));
                    match oracle.get(&page) {
                        Some(v) => prop_assert_eq!(r, Ok(*v), "read of page {}", page),
                        None => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
            }
        }
        // Final sweep: every page of the window agrees with the oracle.
        for p in 0..VM_WINDOW {
            let r = machine.read_u64(0, &*vm, va(p));
            match oracle.get(&p) {
                Some(v) => prop_assert_eq!(r, Ok(*v), "final sweep page {}", p),
                None => prop_assert_eq!(r, Err(VmError::NoMapping), "page {}", p),
            }
        }
        prop_assert_eq!(machine.stats().stale_detected, 0);
        // Tear down and verify nothing double-frees: every block alloc
        // has at most one block free.
        vm.munmap(0, base_va, VM_WINDOW * PAGE_SIZE).unwrap();
        vm.quiesce();
        let st = machine.pool().stats();
        prop_assert!(st.block_frees <= st.block_allocs);
    }

    /// The oracle under *memory pressure*: the same mixed-granularity op
    /// stream with seeded random OOM injection at the frame and block
    /// allocation sites. Contracts checked at every step:
    ///
    /// - an unmapped access still fails `NoMapping` (injection never
    ///   masks the real error);
    /// - a mapped access either succeeds or fails `OutOfMemory`, and a
    ///   page known to be populated never OOMs (populated accesses do
    ///   not allocate);
    /// - a failed fault installs nothing: once the failpoints are
    ///   disarmed, every page reads back exactly the oracle's value
    ///   (failed writes left no trace), and teardown accounts for every
    ///   frame.
    #[test]
    fn radix_vm_matches_oracle_under_injected_oom(
        (ops, seed) in (proptest::collection::vec(vm_op(), 1..60), any::<u64>())
    ) {
        failpoint::disarm_all();
        let machine = Machine::new(1);
        let vm = build(&machine, BackendKind::Radix);
        vm.attach_core(0);
        let base_va: u64 = 0x80_0000_0000;
        let va = |p: u64| base_va + p * PAGE_SIZE;
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        // Pages we have *observed* populated (successful read or write).
        // A subset of the truly populated pages (a block populate fills
        // 512 at once), which is the sound direction: we only assert
        // "must not OOM" for pages in this set.
        let mut populated: BTreeSet<u64> = BTreeSet::new();
        failpoint::arm(failpoint::FRAME_ALLOC, 0, Trigger::Random { seed, num: 1, den: 3 });
        failpoint::arm(failpoint::BLOCK_ALLOC, 0, Trigger::Random { seed, num: 1, den: 2 });
        let mut oom_seen = 0u64;
        for op in &ops {
            match *op {
                VmOp::Map { start, pages, aligned, huge } => {
                    let Some((start, pages)) = clamp(start, pages, aligned) else {
                        continue;
                    };
                    let flags = if huge { MapFlags::HUGE } else { MapFlags::NONE };
                    vm.mmap_flags(0, va(start), pages * PAGE_SIZE, Prot::RW,
                                  Backing::Anon, flags).unwrap();
                    for p in start..start + pages {
                        oracle.insert(p, 0);
                        populated.remove(&p); // replaced: fresh demand-zero
                    }
                }
                VmOp::Unmap { start, pages, aligned } => {
                    let Some((start, pages)) = clamp(start, pages, aligned) else {
                        continue;
                    };
                    vm.munmap(0, va(start), pages * PAGE_SIZE).unwrap();
                    for p in start..start + pages {
                        oracle.remove(&p);
                        populated.remove(&p);
                    }
                }
                VmOp::Write { page, val } => {
                    let r = machine.write_u64(0, &*vm, va(page), val);
                    match (oracle.get_mut(&page), r) {
                        (Some(slot), Ok(())) => {
                            *slot = val;
                            populated.insert(page);
                        }
                        (Some(_), Err(VmError::OutOfMemory)) => {
                            prop_assert!(
                                !populated.contains(&page),
                                "populated page {} OOMed on write", page
                            );
                            oom_seen += 1;
                        }
                        (Some(_), Err(e)) => {
                            prop_assert!(false, "mapped write page {}: {}", page, e);
                        }
                        (None, r) => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
                VmOp::Read { page } => {
                    let r = machine.read_u64(0, &*vm, va(page));
                    match (oracle.get(&page), r) {
                        (Some(v), Ok(got)) => {
                            prop_assert_eq!(got, *v, "read of page {}", page);
                            populated.insert(page);
                        }
                        (Some(_), Err(VmError::OutOfMemory)) => {
                            prop_assert!(
                                !populated.contains(&page),
                                "populated page {} OOMed on read", page
                            );
                            oom_seen += 1;
                        }
                        (Some(_), Err(e)) => {
                            prop_assert!(false, "mapped read page {}: {}", page, e);
                        }
                        (None, r) => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
            }
        }
        // Injection accounting is visible in the op stats.
        prop_assert_eq!(vm.op_stats().oom_faults, oom_seen);
        // Relief: with the failpoints gone the full window agrees with
        // the oracle — failed faults left neither values nor mappings.
        failpoint::disarm_all();
        for p in 0..VM_WINDOW {
            let r = machine.read_u64(0, &*vm, va(p));
            match oracle.get(&p) {
                Some(v) => prop_assert_eq!(r, Ok(*v), "post-relief page {}", p),
                None => prop_assert_eq!(r, Err(VmError::NoMapping), "page {}", p),
            }
        }
        vm.munmap(0, base_va, VM_WINDOW * PAGE_SIZE).unwrap();
        vm.quiesce();
        machine.pool().flush_magazines();
        prop_assert_eq!(
            machine.pool().outstanding_frames(), 0,
            "frames leaked across injected failures"
        );
    }

    /// Random demote/promote cycles agree with a flat per-page oracle
    /// (DESIGN.md §12). Hole-punches and protection round-trips demote
    /// hinted blocks; full sweeps converge them, letting the fault
    /// path's fill counters promote; the pressure toggle arms the
    /// block-allocation failpoint so hinted populates scatter into
    /// 4 KiB frames (and migration-promotion is vetoed) until relief.
    /// None of it may change what a page reads back as, and teardown
    /// must account for every frame across any number of granularity
    /// transitions.
    #[test]
    fn radix_vm_demote_promote_cycles_match_flat_oracle(
        ops in proptest::collection::vec(cycle_op(), 1..40)
    ) {
        failpoint::disarm_all();
        let machine = Machine::new(1);
        let vm = build(&machine, BackendKind::Radix);
        vm.attach_core(0);
        let base_va: u64 = 0x80_0000_0000; // superpage aligned
        let va = |p: u64| base_va + p * PAGE_SIZE;
        let window = CYCLE_BLOCKS * BLOCK_PAGES;
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                CycleOp::MapHuge { block } => {
                    let start = block * BLOCK_PAGES;
                    vm.mmap_flags(0, va(start), BLOCK_PAGES * PAGE_SIZE, Prot::RW,
                                  Backing::Anon, MapFlags::HUGE).unwrap();
                    for p in start..start + BLOCK_PAGES {
                        oracle.insert(p, 0);
                    }
                }
                CycleOp::UnmapBlock { block } => {
                    let start = block * BLOCK_PAGES;
                    vm.munmap(0, va(start), BLOCK_PAGES * PAGE_SIZE).unwrap();
                    for p in start..start + BLOCK_PAGES {
                        oracle.remove(&p);
                    }
                }
                CycleOp::PunchHole { block, page } => {
                    let p = block * BLOCK_PAGES + page;
                    vm.munmap(0, va(p), PAGE_SIZE).unwrap();
                    oracle.remove(&p);
                }
                CycleOp::ProtCycle { block, pages } => {
                    // Only over fully mapped prefixes: mprotect over a
                    // hole is a different contract than this test's.
                    let start = block * BLOCK_PAGES;
                    if !(start..start + pages).all(|p| oracle.contains_key(&p)) {
                        continue;
                    }
                    vm.mprotect(0, va(start), pages * PAGE_SIZE, Prot::READ).unwrap();
                    vm.mprotect(0, va(start), pages * PAGE_SIZE, Prot::RW).unwrap();
                }
                CycleOp::Sweep { block, val } => {
                    let start = block * BLOCK_PAGES;
                    for p in start..start + BLOCK_PAGES {
                        let r = machine.write_u64(0, &*vm, va(p), val.wrapping_add(p));
                        match oracle.get_mut(&p) {
                            Some(slot) => {
                                prop_assert_eq!(r, Ok(()), "sweep write page {}", p);
                                *slot = val.wrapping_add(p);
                            }
                            None => prop_assert_eq!(r, Err(VmError::NoMapping)),
                        }
                    }
                }
                CycleOp::Pressure { on } => {
                    if on {
                        failpoint::arm(failpoint::BLOCK_ALLOC, 0, Trigger::EveryK(1));
                    } else {
                        failpoint::disarm_all();
                    }
                }
                CycleOp::Write { page, val } => {
                    let r = machine.write_u64(0, &*vm, va(page), val);
                    match oracle.get_mut(&page) {
                        Some(slot) => {
                            prop_assert_eq!(r, Ok(()), "write to mapped page {}", page);
                            *slot = val;
                        }
                        None => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
                CycleOp::Read { page } => {
                    let r = machine.read_u64(0, &*vm, va(page));
                    match oracle.get(&page) {
                        Some(v) => prop_assert_eq!(r, Ok(*v), "read of page {}", page),
                        None => prop_assert_eq!(r, Err(VmError::NoMapping)),
                    }
                }
            }
        }
        failpoint::disarm_all();
        // Whatever granularity each page ended at, it reads the oracle.
        for p in 0..window {
            let r = machine.read_u64(0, &*vm, va(p));
            match oracle.get(&p) {
                Some(v) => prop_assert_eq!(r, Ok(*v), "final sweep page {}", p),
                None => prop_assert_eq!(r, Err(VmError::NoMapping), "page {}", p),
            }
        }
        prop_assert_eq!(machine.stats().stale_detected, 0);
        vm.munmap(0, base_va, window * PAGE_SIZE).unwrap();
        vm.quiesce();
        machine.pool().flush_magazines();
        prop_assert_eq!(
            machine.pool().outstanding_frames(), 0,
            "frames leaked across demote/promote cycles"
        );
    }

    /// The 1 GiB rung behaves exactly like the 2 MiB rung one level up:
    /// a block-granular oracle over two giant regions agrees with the
    /// tree across giant folds, their expansion into 512 block folds,
    /// and collapse back. Pure tree-level (u64 values, no frames), so a
    /// "populated giant" costs nothing; probes sample boundaries instead
    /// of walking 262144 slots.
    #[test]
    fn radix_tree_giant_rung_matches_block_oracle(
        ops in proptest::collection::vec(giant_op(), 1..40)
    ) {
        let cache = Arc::new(Refcache::new(1));
        let tree = RadixTree::<u64>::new(cache.clone(), RadixConfig::default());
        // block index -> value; every op is block-granular, so a
        // per-block oracle is exact.
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let base = GIANT_PAGES * 3; // giant aligned
        let nblocks = GIANT_BLOCKS * 2;
        // Checks one removal set against the oracle and returns the
        // number of blocks it covered.
        let check_removed = |oracle: &BTreeMap<u64, u64>, removed: &[Removed<u64>]| -> u64 {
            let mut blocks = 0u64;
            for d in removed {
                // Block-granular ops never displace loose pages.
                prop_assert!(d.pages != 1, "page-grain removal at {} ({})", d.start, d.value);
                prop_assert_eq!(d.pages % BLOCK_PAGES, 0, "removal not block-granular");
                for b in (d.start - base) / BLOCK_PAGES
                    ..(d.start - base + d.pages) / BLOCK_PAGES {
                    prop_assert_eq!(oracle.get(&b), Some(&d.value), "block {}", b);
                }
                blocks += d.pages / BLOCK_PAGES;
            }
            blocks
        };
        for op in &ops {
            match *op {
                GiantOp::Set { start_blk, blks, val } => {
                    let blks = blks.min(nblocks - start_blk);
                    let (lo, hi) = (base + start_blk * BLOCK_PAGES,
                                    base + (start_blk + blks) * BLOCK_PAGES);
                    // ExpandAll: fully covered empty slots stay whole, so
                    // an exact giant range installs one giant fold.
                    let displaced =
                        tree.lock_range(0, lo, hi, LockMode::ExpandAll).replace(&val);
                    let got = check_removed(&oracle, &displaced);
                    let expected = (start_blk..start_blk + blks)
                        .filter(|b| oracle.contains_key(b)).count() as u64;
                    prop_assert_eq!(got, expected);
                    for b in start_blk..start_blk + blks {
                        oracle.insert(b, val);
                    }
                }
                GiantOp::Clear { start_blk, blks } => {
                    let blks = blks.min(nblocks - start_blk);
                    let (lo, hi) = (base + start_blk * BLOCK_PAGES,
                                    base + (start_blk + blks) * BLOCK_PAGES);
                    let removed =
                        tree.lock_range(0, lo, hi, LockMode::ExpandFolded).clear();
                    let got = check_removed(&oracle, &removed);
                    let expected = (start_blk..start_blk + blks)
                        .filter(|b| oracle.contains_key(b)).count() as u64;
                    prop_assert_eq!(got, expected);
                    for b in start_blk..start_blk + blks {
                        oracle.remove(&b);
                    }
                }
                GiantOp::Probe { blk } => {
                    let blk = blk.min(nblocks - 1);
                    let want = oracle.get(&blk).copied();
                    // First and last page of the block: a giant fold, a
                    // block fold, and absence all answer the same.
                    let lo = base + blk * BLOCK_PAGES;
                    prop_assert_eq!(tree.get(0, lo), want, "block {} head", blk);
                    prop_assert_eq!(tree.get(0, lo + BLOCK_PAGES - 1), want,
                                    "block {} tail", blk);
                }
            }
        }
        // Collapse everything, then sample every block at both edges.
        tree.quiesce();
        for b in 0..nblocks {
            let want = oracle.get(&b).copied();
            let lo = base + b * BLOCK_PAGES;
            prop_assert_eq!(tree.get(0, lo), want, "final block {} head", b);
            prop_assert_eq!(tree.get(0, lo + BLOCK_PAGES - 1), want,
                            "final block {} tail", b);
        }
    }

    /// The radix tree behaves exactly like a BTreeMap of per-page values,
    /// including across folding, expansion, and collapse.
    #[test]
    fn radix_tree_matches_btreemap(ops in proptest::collection::vec(tree_op(), 1..60)) {
        let cache = Arc::new(Refcache::new(1));
        let tree = RadixTree::<u64>::new(cache.clone(), RadixConfig::default());
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        // Offset the window so it straddles a 512-alignment boundary.
        let base = 512 * 7 + 13;
        for op in &ops {
            match *op {
                TreeOp::Set { lo, len, val } => {
                    let (lo, hi) = (base + lo, base + lo + len);
                    let mut g = tree.lock_range(0, lo, hi, LockMode::ExpandAll);
                    let displaced = g.replace(&val);
                    // Displaced values must match the oracle's prior state.
                    let mut displaced_pages = 0;
                    for d in &displaced {
                        for p in d.start..d.start + d.pages {
                            prop_assert_eq!(oracle.get(&p), Some(&d.value));
                        }
                        displaced_pages += d.pages;
                    }
                    let expected: u64 =
                        (lo..hi).filter(|p| oracle.contains_key(p)).count() as u64;
                    prop_assert_eq!(displaced_pages, expected);
                    for p in lo..hi {
                        oracle.insert(p, val);
                    }
                }
                TreeOp::Clear { lo, len } => {
                    let (lo, hi) = (base + lo, base + lo + len);
                    let mut g = tree.lock_range(0, lo, hi, LockMode::ExpandFolded);
                    let removed = g.clear();
                    let mut removed_pages = 0;
                    for d in &removed {
                        for p in d.start..d.start + d.pages {
                            prop_assert_eq!(oracle.get(&p), Some(&d.value));
                        }
                        removed_pages += d.pages;
                    }
                    let expected: u64 =
                        (lo..hi).filter(|p| oracle.contains_key(p)).count() as u64;
                    prop_assert_eq!(removed_pages, expected);
                    for p in lo..hi {
                        oracle.remove(&p);
                    }
                }
                TreeOp::Get { at } => {
                    let at = base + at;
                    prop_assert_eq!(tree.get(0, at), oracle.get(&at).copied());
                    prop_assert_eq!(tree.lookup_present(0, at), oracle.contains_key(&at));
                }
            }
        }
        // Collapse everything and verify the tree still agrees.
        tree.quiesce();
        for (&p, &v) in &oracle {
            prop_assert_eq!(tree.get(0, p), Some(v));
        }
    }

    /// The same oracle with the leaf hint cache force-enabled and
    /// adversarial maintenance interleaved: every read runs twice (the
    /// first may miss and install the hint, the second must hit), and
    /// periodic maintenance surrenders hint pins so collapse/revival
    /// interleave with hinted reads. `collect_range`'s single range walk
    /// is also held to the oracle here.
    #[test]
    fn radix_tree_matches_btreemap_with_hints(
        ops in proptest::collection::vec(tree_op(), 1..60)
    ) {
        let cache = Arc::new(Refcache::new(1));
        let tree = RadixTree::<u64>::new(
            cache.clone(),
            RadixConfig { collapse: true, leaf_hints: true, ..RadixConfig::default() },
        );
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let base = 512 * 7 + 13;
        for (n, op) in ops.iter().enumerate() {
            match *op {
                TreeOp::Set { lo, len, val } => {
                    let (lo, hi) = (base + lo, base + lo + len);
                    tree.lock_range(0, lo, hi, LockMode::ExpandAll).replace(&val);
                    for p in lo..hi {
                        oracle.insert(p, val);
                    }
                }
                TreeOp::Clear { lo, len } => {
                    let (lo, hi) = (base + lo, base + lo + len);
                    tree.lock_range(0, lo, hi, LockMode::ExpandFolded).clear();
                    for p in lo..hi {
                        oracle.remove(&p);
                    }
                }
                TreeOp::Get { at } => {
                    let at = base + at;
                    // Twice: a miss (installing the hint) must agree with
                    // the hit that follows it.
                    prop_assert_eq!(tree.get(0, at), oracle.get(&at).copied());
                    prop_assert_eq!(tree.get(0, at), oracle.get(&at).copied());
                    prop_assert_eq!(tree.lookup_present(0, at), oracle.contains_key(&at));
                }
            }
            if n % 7 == 0 {
                // Surrender hint pins and advance epochs mid-run.
                tree.maintain(0);
            }
        }
        // The single range walk agrees with the oracle wholesale.
        let walked = tree.collect_range(0, base, base + 2700);
        let expected: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(walked, expected);
        tree.quiesce();
        for (&p, &v) in &oracle {
            prop_assert_eq!(tree.get(0, p), Some(v));
        }
    }

    /// Refcache frees an object exactly when a matched inc/dec history
    /// ends at zero, never earlier, regardless of which cores the
    /// operations and flushes land on.
    #[test]
    fn refcache_matches_exact_counter(
        ops in proptest::collection::vec((0usize..4, prop_oneof![Just(1i64), Just(-1i64)], 0usize..5), 0..80)
    ) {
        struct Flag(Arc<std::sync::atomic::AtomicU64>);
        impl Managed for Flag {
            fn on_release(&mut self, _: &ReleaseCtx<'_>) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let rc = Refcache::new(4);
        let freed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let obj = rc.alloc(1, Flag(freed.clone()));
        let mut count = 1i64;
        for (core, delta, flushes) in ops {
            // Keep the true count positive: only apply a dec if it will
            // not take the count to zero mid-run.
            if delta < 0 && count <= 1 {
                continue;
            }
            if delta > 0 {
                rc.inc(core, obj);
            } else {
                rc.dec(core, obj);
            }
            count += delta;
            for f in 0..flushes {
                rc.maintain(f % 4);
            }
            prop_assert_eq!(freed.load(std::sync::atomic::Ordering::SeqCst), 0);
        }
        // Drain the remaining references; the object must free exactly once.
        for _ in 0..count {
            rc.dec(0, obj);
        }
        rc.quiesce();
        prop_assert_eq!(freed.load(std::sync::atomic::Ordering::SeqCst), 1);
        prop_assert_eq!(rc.live_objects(), 0);
    }

    /// `Refcache::surrender`'s answer is a plain per-core page counter
    /// compared with `EXPEDITE_PAGES`, started again by every flush of
    /// that core and by nothing else — whichever entry point runs the
    /// flush, and whatever `inc`/`dec`/`adjust` traffic goes by.
    #[test]
    fn refcache_surrender_matches_plain_counter(
        ops in proptest::collection::vec((0usize..3, 0u8..8, 0u64..400), 0..120)
    ) {
        struct Plain;
        impl Managed for Plain {
            fn on_release(&mut self, _: &ReleaseCtx<'_>) {}
        }
        let rc = Refcache::new(3);
        // References to give up: more than the ops can surrender.
        let obj = rc.alloc(1_000, Plain);
        let mut given_up = 0i64;
        let mut pages = [0u64; 3];
        for (core, what, n) in ops {
            match what {
                0 => { rc.flush(core); pages[core] = 0; }
                1 => { rc.maintain(core); pages[core] = 0; }
                2 => { rc.expedite(&mut rc.lock(core).cells()); pages[core] = 0; }
                3 => { rc.quiesce(); pages = [0; 3]; }
                4 => { rc.inc(core, obj); rc.dec(core, obj); }
                5 => { rc.adjust(core, obj, n as i64); rc.adjust(core, obj, -(n as i64)); }
                _ => {
                    let refs = (n % 3) as i64;
                    pages[core] += n;
                    given_up += refs;
                    prop_assert_eq!(
                        rc.surrender(&mut rc.lock(core).cells(), obj, refs, n),
                        pages[core] >= EXPEDITE_PAGES
                    );
                }
            }
        }
        // The references went where `adjust` would have put them.
        rc.quiesce();
        prop_assert_eq!(rc.global_count(obj), 1_000 - given_up);
        rc.adjust(0, obj, given_up - 1_000);
        rc.quiesce();
        prop_assert_eq!(rc.live_objects(), 0);
    }

    /// The VMA map's carve/insert/merge agrees with a per-page oracle.
    #[test]
    fn vma_map_matches_page_oracle(
        ops in proptest::collection::vec((0u64..400, 1u64..80, any::<bool>()), 1..60)
    ) {
        let mut m = VmaMap::new();
        let mut oracle: BTreeSet<u64> = BTreeSet::new();
        for (lo, len, is_map) in ops {
            let hi = lo + len;
            if is_map {
                m.carve(lo, hi);
                m.insert(Vma { start: lo, end: hi, prot: Prot::RW, backing: Backing::Anon });
                for p in lo..hi {
                    oracle.insert(p);
                }
            } else {
                m.carve(lo, hi);
                for p in lo..hi {
                    oracle.remove(&p);
                }
            }
            // Spot-check membership.
            for probe in [lo, lo + len / 2, hi.saturating_sub(1), hi, lo.saturating_sub(1)] {
                prop_assert_eq!(
                    m.lookup(probe).is_some(),
                    oracle.contains(&probe),
                    "probe {}", probe
                );
            }
        }
        // VMA count is bounded by the number of maximal runs in the oracle.
        let mut runs = 0;
        let mut prev = None;
        for &p in &oracle {
            if prev != Some(p.wrapping_sub(1)) {
                runs += 1;
            }
            prev = Some(p);
        }
        prop_assert_eq!(m.iter().count(), runs, "VMAs must merge into maximal runs");
    }

    /// The list-based range lock agrees with a pure interval oracle
    /// under random overlapping acquire/release sequences: with no
    /// concurrent contender, `try_acquire` must succeed *iff* the range
    /// is disjoint from every held range (mutual exclusion and no
    /// spurious failure), `holders()` must track the held set exactly
    /// (no leaked or lost descriptors), and draining every hold must
    /// leave the list empty (release always unlinks — the no-deadlock /
    /// no-lost-wakeup half lives in the threaded stress tests, which
    /// would hang or assert if a waiter missed a release).
    #[test]
    fn range_lock_matches_interval_oracle(
        ops in proptest::collection::vec(
            (0u64..64, 1u64..9, any::<bool>(), 0usize..8), 1..200
        )
    ) {
        let rl = RangeLock::new();
        let mut held: Vec<(u64, u64, RangeToken)> = Vec::new();
        for (lo, len, acquire, ridx) in ops {
            if acquire {
                let hi = lo + len;
                let free = held.iter().all(|&(l, h, _)| hi <= l || h <= lo);
                match rl.try_acquire(0, lo, hi) {
                    Some(tok) => {
                        prop_assert!(free, "acquired [{},{}) over a held range", lo, hi);
                        held.push((lo, hi, tok));
                    }
                    None => prop_assert!(!free, "refused disjoint [{},{})", lo, hi),
                }
            } else if !held.is_empty() {
                let (_, _, tok) = held.swap_remove(ridx % held.len());
                rl.release(0, tok);
            }
            prop_assert_eq!(rl.holders(), held.len());
        }
        for (_, _, tok) in held.drain(..) {
            rl.release(0, tok);
        }
        prop_assert_eq!(rl.holders(), 0);
    }

    /// Both range-lock substrates produce identical tree contents for
    /// the same op sequence: the list only *fronts* the slot locks, it
    /// never changes what they protect.
    #[test]
    fn radix_tree_agrees_across_range_lock_substrates(
        ops in proptest::collection::vec(tree_op(), 1..40)
    ) {
        let base = 512 * 7 + 13;
        let mut contents: Vec<Vec<(u64, u64)>> = Vec::new();
        for kind in [RangeLockKind::List, RangeLockKind::SlotSpin] {
            let cache = Arc::new(Refcache::new(1));
            let tree = RadixTree::<u64>::new(
                cache.clone(),
                RadixConfig { range_lock: kind, ..RadixConfig::default() },
            );
            for op in &ops {
                match *op {
                    TreeOp::Set { lo, len, val } => {
                        tree.lock_range(0, base + lo, base + lo + len, LockMode::ExpandAll)
                            .replace(&val);
                    }
                    TreeOp::Clear { lo, len } => {
                        tree.lock_range(0, base + lo, base + lo + len, LockMode::ExpandFolded)
                            .clear();
                    }
                    TreeOp::Get { at } => {
                        // Reads are substrate-independent by construction
                        // (they never touch the range lock); still drive
                        // them so hint state diverging would surface.
                        let _ = tree.get(0, base + at);
                    }
                }
            }
            tree.quiesce();
            contents.push(tree.collect_range(0, base, base + 2700));
        }
        prop_assert_eq!(&contents[0], &contents[1], "substrates diverged");
    }

    /// The lock-free skip list agrees with a BTreeSet.
    #[test]
    fn skiplist_matches_btreeset(
        ops in proptest::collection::vec((0u64..300, 0u8..3), 1..300)
    ) {
        let s = SkipList::new();
        let mut oracle = BTreeSet::new();
        for (k, op) in ops {
            match op {
                0 => prop_assert_eq!(s.insert(k), oracle.insert(k)),
                1 => prop_assert_eq!(s.remove(k), oracle.remove(&k)),
                _ => prop_assert_eq!(s.contains(k), oracle.contains(&k)),
            }
        }
    }
}
