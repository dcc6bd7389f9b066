//! Real-thread concurrency stress across the whole stack, plus failure
//! injection: the invariants RadixVM's design guarantees must hold under
//! genuine interleaving, and breaking the mechanism must be *detected*.
//!
//! Every VM is constructed through the backend layer; white-box checks
//! that need the concrete type (Refcache accounting) downcast via
//! `VmSystem::as_any`.

// Only `shared_remap`'s stream runs here.
#[allow(dead_code)]
#[path = "../examples/ops/mod.rs"]
mod ops;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ops::{Kind, Ops};
use radixvm::backend::{build, BackendKind};
use radixvm::core_vm::RadixVm;
use radixvm::hw::{Backing, Machine, MapFlags, Prot, VmError, VmSystem, BLOCK_PAGES, PAGE_SIZE};
use radixvm::radix::{LockMode, RadixConfig, RadixTree};
use radixvm::refcache::Refcache;
use radixvm::sync::failpoint::{self, Trigger};
use radixvm::sync::RangeLockKind;

const BASE: u64 = 0x60_0000_0000;

/// The Refcache of a VM built as [`BackendKind::Radix`].
fn radix_cache(vm: &Arc<dyn VmSystem>) -> Arc<Refcache> {
    let radix = vm.as_any().downcast_ref::<RadixVm>();
    radix.expect("Radix backend is a RadixVm").cache().clone()
}

/// Sets the flag when dropped: a test's open-ended threads stop when its
/// counted work is done, also when that panicked.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The paper's ordering invariant: after munmap returns, no access on any
/// core reaches the old frame — even while other threads are racing
/// faults on the same page. Generation checks would convert any violation
/// into `StaleTranslation`; seeing zero of them proves the shootdown
/// protocol holds under real interleaving.
#[test]
fn munmap_ordering_under_racing_faults() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let machine = Machine::new(4);
    let vm = build(&machine, BackendKind::Radix);
    for c in 0..4 {
        vm.attach_core(c);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let reads: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
    let mut handles = Vec::new();
    // Three reader threads hammer the page.
    for core in 1..4usize {
        let machine = machine.clone();
        let vm = vm.clone();
        let stop = stop.clone();
        let reads = reads.clone();
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match machine.read_u64(core, &*vm, BASE) {
                    Ok(_) | Err(VmError::NoMapping) => reads[core].fetch_add(1, Ordering::Relaxed),
                    Err(e) => panic!("reader saw {e}"),
                };
            }
        }));
    }
    // True once every reader has completed `n` reads beyond `since` (or
    // one has died: stop waiting and let its join report the panic).
    let all_read = |since: &[u64], n: u64| {
        (1..4).all(|c| reads[c].load(Ordering::Relaxed) >= since[c] + n)
            || handles.iter().any(|h| h.is_finished())
    };
    // Start handshake: on a busy host the mapper could otherwise finish
    // before any reader is scheduled, and nothing would have raced.
    while !all_read(&[0; 4], 1) {
        std::thread::yield_now();
    }
    let at_start: Vec<u64> = reads.iter().map(|r| r.load(Ordering::Relaxed)).collect();
    // One mapper thread cycles the mapping: at least 500 times, and until
    // every reader has started and finished a read while it was cycling.
    for i in 0u64.. {
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, BASE, i).unwrap();
        vm.munmap(0, BASE, PAGE_SIZE).unwrap();
        if i % 64 == 0 {
            vm.maintain(0);
        }
        if i >= 499 && all_read(&at_start, 2) {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(machine.stats().stale_detected, 0, "ordering invariant held");
}

/// Concurrent fork + copy-on-write churn: parent and children hammer the
/// same pages; all observed values must be internally consistent and all
/// frames must be reclaimed at the end.
#[test]
fn fork_cow_under_concurrency() {
    let machine = Machine::new(4);
    let parent = build(&machine, BackendKind::Radix);
    for c in 0..4 {
        parent.attach_core(c);
    }
    parent
        .mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..8u64 {
        machine
            .write_u64(0, &*parent, BASE + p * PAGE_SIZE, 1000 + p)
            .unwrap();
    }
    let mut handles = Vec::new();
    for core in 1..4usize {
        let machine = machine.clone();
        let child = parent.fork(0).expect("RadixVM supports fork");
        child.attach_core(core);
        handles.push(std::thread::spawn(move || {
            for i in 0..300u64 {
                let p = i % 8;
                let va = BASE + p * PAGE_SIZE;
                if i % 3 == 0 {
                    machine
                        .write_u64(core, &*child, va, core as u64 * 10_000 + i)
                        .unwrap();
                } else {
                    let v = machine.read_u64(core, &*child, va).unwrap();
                    // A child sees either the pre-fork value or its own
                    // writes — never another child's.
                    assert!(
                        v == 1000 + p || v / 10_000 == core as u64,
                        "core {core} saw foreign value {v}"
                    );
                }
            }
            drop(child);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Parent data untouched by any child.
    for p in 0..8u64 {
        assert_eq!(
            machine.read_u64(0, &*parent, BASE + p * PAGE_SIZE).unwrap(),
            1000 + p
        );
    }
    let cache = radix_cache(&parent);
    drop(parent);
    cache.quiesce();
    assert_eq!(cache.live_objects(), 0, "all pages and nodes reclaimed");
}

/// Failure injection: with core 0's shootdowns suppressed, the same
/// workload that passes above must produce *detected* stale translations
/// rather than silent corruption. Single-threaded: the failpoint registry
/// is per thread.
#[test]
fn suppressed_shootdowns_are_detected_not_silent() {
    failpoint::disarm_all();
    failpoint::arm(failpoint::SHOOTDOWN, 0, Trigger::EveryK(1));
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.attach_core(1);
    let mut detected = 0u64;
    for i in 0..50u64 {
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        // Core 1 caches the translation (a leftover stale entry from the
        // previous round is itself a detection).
        match machine.write_u64(1, &*vm, BASE, i) {
            Ok(()) => {}
            Err(VmError::StaleTranslation) => {
                detected += 1;
                machine.write_u64(1, &*vm, BASE, i).unwrap(); // refaults
            }
            Err(e) => panic!("unexpected {e}"),
        }
        vm.munmap(0, BASE, PAGE_SIZE).unwrap(); // no shootdown!
        vm.maintain(0);
        vm.maintain(1);
        vm.quiesce(); // frame actually freed and reusable
        match machine.read_u64(1, &*vm, BASE) {
            Err(VmError::StaleTranslation) => detected += 1,
            Err(VmError::NoMapping) | Ok(_) => {}
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert!(detected > 0, "injected fault must be observed");
    assert_eq!(machine.stats().stale_detected, detected);
    failpoint::disarm_all();
}

/// Refcache epochs keep up under adversarial maintenance schedules: one
/// core never calls maintain until the end; freeing stalls (bounded
/// memory growth is the documented trade-off) but never double-frees or
/// frees early.
#[test]
fn lagging_core_stalls_but_never_corrupts() {
    let machine = Machine::new(3);
    let vm = build(&machine, BackendKind::Radix);
    for c in 0..3 {
        vm.attach_core(c);
    }
    for i in 0..200u64 {
        let addr = BASE + (i % 16) * PAGE_SIZE;
        vm.mmap(0, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, addr, i).unwrap();
        vm.munmap(0, addr, PAGE_SIZE).unwrap();
        vm.maintain(0); // cores 1 and 2 never tick
    }
    // Nothing freed yet? At least nothing *wrongly* freed: reads of live
    // mappings still work and no stale translations appeared.
    assert_eq!(machine.stats().stale_detected, 0);
    // Once the lagging cores tick, everything drains.
    vm.quiesce();
    let st = machine.pool().stats();
    assert_eq!(st.free_pages, 200);
}

/// The leaf hint cache under adversarial churn: one core faults
/// repeatedly inside a 512-page block while another munmaps and remaps
/// the whole block, with collapse enabled and both cores ticking
/// Refcache so emptied leaves actually die and get reallocated. The
/// hint must never serve a freed node (values read through it are
/// always one of the two generation markers, never garbage) and the
/// structure must still collapse to just the root at the end.
#[test]
fn leaf_hint_never_serves_freed_or_stale_nodes() {
    let cache = Arc::new(Refcache::new(2));
    let tree = Arc::new(RadixTree::<u64>::new(
        cache,
        RadixConfig {
            collapse: true,
            leaf_hints: true,
            ..RadixConfig::default()
        },
    ));
    let block = 512 * 5;
    // A second, stable block the faulter periodically migrates to: the
    // hint follows it there (surrendering the churned leaf's pin), which
    // is what lets the cleared leaf actually die mid-run.
    let stable = 512 * 9;
    tree.lock_range(0, stable, stable + 512, LockMode::ExpandAll)
        .replace(&7);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // While set, the faulter works the stable block instead of the
    // churned one — modeling a thread whose working set moved away, so
    // its hint pin stops protecting the churned leaf and the leaf can
    // actually die (a hint on an actively faulted block legitimately
    // keeps its leaf alive until its core's next tick).
    let quiet = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let faulter = {
        let tree = tree.clone();
        let stop = stop.clone();
        let quiet = quiet.clone();
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let base = if quiet.load(std::sync::atomic::Ordering::Relaxed) {
                    stable
                } else {
                    block
                };
                let vpn = base + (i % 8);
                i += 1;
                let mut g = tree.lock_range(1, vpn, vpn + 1, LockMode::ExpandFolded);
                if let Some(v) = g.page_value_mut() {
                    // Only the mapper's generation markers may ever be
                    // visible; a freed/stale node would surface garbage.
                    assert!(*v == 7 || *v == 9, "hint served stale value {v}");
                }
                drop(g);
                if i.is_multiple_of(32) {
                    tree.maintain(1);
                }
            }
        })
    };
    let rel = std::sync::atomic::Ordering::Relaxed;
    for round in 0..200u64 {
        tree.lock_range(0, block, block + 512, LockMode::ExpandFolded)
            .clear();
        if round % 10 == 0 {
            // Death window: steer the faulter away and keep flushing
            // until the emptied leaf (and its spine) actually collapse —
            // the faulter's own maintenance ticks advance the epoch from
            // its side.
            quiet.store(true, rel);
            let before = tree.stats().nodes_collapsed();
            for _ in 0..500 {
                tree.maintain(0);
                if tree.stats().nodes_collapsed() > before {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
            quiet.store(false, rel);
        }
        let marker = if round % 2 == 0 { 7 } else { 9 };
        tree.lock_range(0, block, block + 512, LockMode::ExpandAll)
            .replace(&marker);
        // Leave the block mapped long enough for the faulter to take
        // repeated (hinted) faults in it before the next churn round.
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    faulter.join().unwrap();
    assert!(tree.stats().hint_hits() > 0, "hints never exercised");
    assert!(
        tree.stats().nodes_collapsed() > 0,
        "no node ever died — the dangerous interleaving was not exercised"
    );
    // Everything still collapses once the hints give up their pins.
    tree.lock_range(0, block, block + 512, LockMode::ExpandFolded)
        .clear();
    tree.lock_range(0, stable, stable + 512, LockMode::ExpandFolded)
        .clear();
    let tree = Arc::try_unwrap(tree).ok().expect("sole owner");
    tree.quiesce();
    assert_eq!(tree.cache().live_objects(), 1, "only the root survives");
}

/// Hint-riding guards (DESIGN.md §5) against everything that wants the
/// same hint slot or the same leaf: one thread takes hinted single-page
/// faults in a block as core 1, holding core 1's hint slot for each
/// guard's lifetime, while another demotes and re-promotes that block
/// (a refold severs the very leaf the hint points at) and calls
/// `quiesce`, which must take core 1's hint slot from a foreign thread
/// to release its hints before the sweeps. Nothing may deadlock, every read must see the
/// oracle's value, and no frame may leak.
#[test]
fn hint_riding_faults_survive_quiesce_and_refolds() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    const HINT_BASE: u64 = 0x62_0000_0000; // 2 MiB aligned
                                           // Fewer than the 64 eligible faults that trigger a promotion.
    const FAULTS_PER_ROUND: u64 = 40;
    let oracle = |p: u64| 0xA000 + p;
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.attach_core(1);
    vm.mmap_flags(
        0,
        HINT_BASE,
        BLOCK_PAGES * PAGE_SIZE,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .unwrap();
    let sweep = |machine: &Machine| {
        for p in 0..BLOCK_PAGES {
            machine
                .write_u64(0, &*vm, HINT_BASE + p * PAGE_SIZE, oracle(p))
                .unwrap();
        }
    };
    sweep(&machine);
    let stop = Arc::new(AtomicBool::new(false));
    // The faulter's completed faults, so the rounds can wait on progress
    // instead of on wall time.
    let faults = Arc::new(AtomicU64::new(0));
    let faulter = {
        let machine = machine.clone();
        let vm = vm.clone();
        let (stop, faults) = (stop.clone(), faults.clone());
        std::thread::spawn(move || {
            let mut x = 1u64;
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(n);
                let p = (x >> 33) % BLOCK_PAGES;
                // Drop the translation so the read is a (fill) fault.
                machine.invalidate_local(1, vm.asid(), (HINT_BASE >> 12) + p, 1);
                let got = machine
                    .read_u64(1, &*vm, HINT_BASE + p * PAGE_SIZE)
                    .unwrap_or_else(|e| panic!("page {p} lost: {e}"));
                assert_eq!(got, oracle(p), "page {p} corrupted");
                n += 1;
                faults.store(n, Ordering::Relaxed);
            }
        })
    };
    let radix = vm
        .as_any()
        .downcast_ref::<RadixVm>()
        .expect("Radix backend is a RadixVm");
    // Waits until `done`, panicking with the state of the race if the
    // faulter died or 30 s pass first.
    let wait_for = |what: &str, done: &mut dyn FnMut() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(
                !faulter.is_finished() && Instant::now() < deadline,
                "{what}: the faulter made {} faults, {} hint hits, {} demotions, {} promotions",
                faults.load(Ordering::Relaxed),
                radix.tree_stats().hint_hits(),
                vm.op_stats().superpage_demotions,
                vm.op_stats().superpage_promotions,
            );
        }
    };
    for round in 0..40u64 {
        // Read before the demotion: the promotion that ends this round
        // may land as soon as the block is demoted, before this thread
        // runs again.
        let promoted = vm.op_stats().superpage_promotions;
        // Demote: a partial mprotect expands the fold to a leaf, which
        // the faulter's hint then caches.
        vm.mprotect(0, HINT_BASE, 8 * PAGE_SIZE, Prot::READ)
            .unwrap();
        vm.mprotect(0, HINT_BASE, 8 * PAGE_SIZE, Prot::RW).unwrap();
        // Let the faulter ride the leaf alone for FAULTS_PER_ROUND
        // faults: nothing else touches core 1's hint slot meanwhile.
        let target = faults.load(Ordering::Relaxed) + FAULTS_PER_ROUND;
        wait_for("the faulter stalled", &mut || {
            std::thread::yield_now();
            faults.load(Ordering::Relaxed) >= target
        });
        // Re-promote: the refold severs the hinted leaf. Every fourth
        // round this thread's sweep fills the promotion counter; in the
        // others the faulter's own hinted faults do, while this thread
        // keeps draining every core's Refcache state under it.
        if round % 4 == 0 {
            sweep(&machine);
        }
        wait_for("block never re-promoted", &mut || {
            vm.quiesce();
            vm.op_stats().superpage_promotions != promoted
        });
    }
    stop.store(true, Ordering::Relaxed);
    faulter.join().unwrap();
    let ops = vm.op_stats();
    assert!(ops.superpage_demotions >= 1, "block never demoted");
    assert!(ops.superpage_promotions >= 1, "block never refolded");
    // Each wait above is FAULTS_PER_ROUND hinted faults but the first.
    // In the rounds that follow one the faulter itself promoted (30 of
    // the 40: all but those after a sweep round), its promotion counter
    // starts from zero, so no refold cuts the wait short: 30 × 39 hits.
    assert!(
        radix.tree_stats().hint_hits() > 1000,
        "too few faults rode a hint"
    );
    assert_eq!(machine.stats().stale_detected, 0, "stale translation");
    for p in 0..BLOCK_PAGES {
        let got = machine.read_u64(0, &*vm, HINT_BASE + p * PAGE_SIZE);
        assert_eq!(got, Ok(oracle(p)), "page {p}");
    }
    vm.munmap(0, HINT_BASE, BLOCK_PAGES * PAGE_SIZE).unwrap();
    vm.quiesce();
    assert_eq!(machine.pool().outstanding_frames(), 0, "frames leaked");
}

/// Statistics bumped as single-mutator words under a per-core lock
/// (`Exclusive` fields: TLB hits and misses under the core's TLB lock, the
/// pool's counters under its per-core lock, Refcache's events under its
/// delta cache, hint hits and misses under its hint slot — DESIGN.md §5)
/// lose no update when several threads act for one core at once. The
/// owner core has four threads of its own (two mappers, a reader, and a
/// churner that takes frames off the core's free list and puts them
/// straight back) — one core, so that on a two-CPU host the two running
/// threads are most often acting for the same one; the mappers move
/// through nine leaf blocks, one more than the core's hint set has ways,
/// so every lap evicts and the sweeper's `quiesce` releases all eight
/// ways live; a sweeper loops
/// `quiesce` + `flush_magazines` + `stats`, acting for *every* core; an
/// unmapper on
/// a core of its own keeps replacing a region the reader touches, so
/// remote shootdowns land on a core that is mid-access. At the end
/// every count must equal what was issued. (Mappers and unmapper run a
/// fixed number of ops, so the frames in flight are bounded even if the
/// sweeper — the only thread that flushes for the unmapper's core, and
/// so the one the epoch waits for — dies or starves.)
#[test]
fn counters_stay_exact_when_foreign_threads_act_for_a_core() {
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;
    const OWNER: usize = 0;
    const UNMAPPER: usize = 1;
    const MAPPERS: u64 = 2;
    const MAPPER_OPS: u64 = 12_000;
    const UNMAPPER_OPS: u64 = 3_000;
    const CHURNER_OPS: u64 = 200_000;
    const SHARED: u64 = BASE + (1 << 30);
    const SHARED_PAGES: u64 = 8;
    const MAINTAIN_EVERY: u64 = 64;
    const OWNER_BLOCKS: u64 = 9;
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    let radix = vm
        .as_any()
        .downcast_ref::<RadixVm>()
        .expect("Radix backend is a RadixVm");
    let private = |core: usize| BASE + core as u64 * (1 << 25);
    for core in [OWNER, UNMAPPER] {
        vm.attach_core(core);
        // The reader's resident page (its first block's page 0; each
        // mapper churns 16 pages of its own in each of the core's leaf
        // blocks in turn).
        vm.mmap(core, private(core), PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine
            .write_u64(core, &*vm, private(core), core as u64)
            .unwrap();
    }
    let f0 = radix.cache().stats().flushes;
    vm.quiesce();
    let flushes_per_quiesce = radix.cache().stats().flushes - f0;
    let (hw0, tree0, rc0) = (machine.stats(), radix.tree_stats(), radix.cache().stats());
    let lookups0 = tree0.hint_hits() + tree0.hint_misses();
    let stop = AtomicBool::new(false);
    // Everything the threads issued, to hold the counters against.
    let accesses = AtomicU64::new(0);
    let one_page_ops = AtomicU64::new(0);
    let maintains = AtomicU64::new(0);
    let quiesces = AtomicU64::new(0);
    // Mappers, churner, reader, unmapper, sweeper.
    let start = Barrier::new(MAPPERS as usize + 4);
    std::thread::scope(|s| {
        let (machine, vm) = (&machine, &*vm);
        let (stop, start) = (&stop, &start);
        let (accesses, one_page_ops) = (&accesses, &one_page_ops);
        let (maintains, quiesces) = (&maintains, &quiesces);
        let mut counted = Vec::new();
        for m in 0..MAPPERS {
            counted.push(s.spawn(move || {
                start.wait();
                for i in 0..MAPPER_OPS {
                    let block = i / 16 % OWNER_BLOCKS;
                    let page = block * BLOCK_PAGES + 1 + 16 * m + i % 16;
                    let va = private(OWNER) + page * PAGE_SIZE;
                    vm.mmap(OWNER, va, PAGE_SIZE, Prot::RW, Backing::Anon)
                        .unwrap();
                    machine.write_u64(OWNER, vm, va, i).unwrap();
                    assert_eq!(machine.read_u64(OWNER, vm, va), Ok(i));
                    vm.munmap(OWNER, va, PAGE_SIZE).unwrap();
                    if i % MAINTAIN_EVERY == 0 {
                        vm.maintain(OWNER);
                        maintains.fetch_add(1, Ordering::Relaxed);
                    }
                }
                accesses.fetch_add(2 * MAPPER_OPS, Ordering::Relaxed);
                one_page_ops.fetch_add(2 * MAPPER_OPS, Ordering::Relaxed);
            }));
        }
        counted.push(s.spawn(move || {
            start.wait();
            for _ in 0..CHURNER_OPS {
                let pfn = machine.pool().try_alloc(OWNER).unwrap();
                machine.pool().free(OWNER, pfn);
            }
        }));
        s.spawn(move || {
            start.wait();
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                let va = SHARED + (n % SHARED_PAGES) * PAGE_SIZE;
                match machine.read_u64(OWNER, vm, va) {
                    Ok(_) | Err(VmError::NoMapping) => {}
                    Err(e) => panic!("the reader saw {e}"),
                }
                assert_eq!(
                    machine.read_u64(OWNER, vm, private(OWNER)),
                    Ok(OWNER as u64)
                );
                n += 2;
            }
            accesses.fetch_add(n, Ordering::Relaxed);
        });
        counted.push(s.spawn(move || {
            start.wait();
            for _ in 0..UNMAPPER_OPS {
                let len = SHARED_PAGES * PAGE_SIZE;
                vm.mmap(UNMAPPER, SHARED, len, Prot::RW, Backing::Anon)
                    .unwrap();
                for p in 0..SHARED_PAGES {
                    machine
                        .write_u64(UNMAPPER, vm, SHARED + p * PAGE_SIZE, p)
                        .unwrap();
                }
                std::thread::yield_now();
                vm.munmap(UNMAPPER, SHARED, len).unwrap();
            }
            accesses.fetch_add(UNMAPPER_OPS * SHARED_PAGES, Ordering::Relaxed);
        }));
        s.spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                vm.quiesce();
                quiesces.fetch_add(1, Ordering::Relaxed);
                machine.pool().flush_magazines();
                let hw = machine.stats();
                assert_eq!(hw.stale_detected, 0);
            }
        });
        let _stop = StopOnDrop(stop);
        for t in counted {
            t.join()
                .expect("a mapper, churner or the unmapper panicked");
        }
    });
    vm.munmap(0, 0, radixvm::hw::VA_LIMIT).unwrap();
    vm.quiesce();
    let quiesces = quiesces.into_inner() + 1;

    // An access is one TLB lookup, or one more for each time it went
    // round again: a fault whose frame the sweeper freed before the
    // access completed (the sweeper flushes for the faulting core, which
    // that core could never do mid-access) is retried and looked up
    // twice, and `access_retries` says how often.
    let (hw, tree) = (machine.stats().since(&hw0), radix.tree_stats());
    let misses = hw.tlb_misses;
    assert_eq!(
        hw.tlb_hits + misses,
        accesses.into_inner() + hw.access_retries,
        "TLB hits + misses != accesses issued + retries"
    );
    // Every single-page mmap, munmap and fault looks the hint up once.
    assert_eq!(
        tree.hint_hits() + tree.hint_misses() - lookups0,
        one_page_ops.into_inner() + misses,
        "hint hits + misses != single-page lookups"
    );
    // Beside the ticks the threads issued, the ones the VM ran itself:
    // the unmapper never calls `maintain`, so whenever the sweeper leaves
    // its core alone for 64 of its 8-page unmaps, the 64th expedites —
    // also when the sweeper's flush gets in between that unmap's
    // surrender and its tick. Each quiesce runs exactly one sweep set.
    let rc = radix.cache().stats();
    let ticked = rc.since(&rc0);
    assert_eq!(
        ticked.flushes,
        maintains.into_inner() + ticked.expedited + flushes_per_quiesce * quiesces,
        "flushes != maintains + expedited + {quiesces} quiesces of {flushes_per_quiesce}"
    );
    assert_eq!(rc.slot_activates, rc.slot_releases, "frame cells");
    let pool = machine.pool().stats();
    assert_eq!(pool.alloc_pages, pool.free_pages, "pages handed out");
    assert_eq!(machine.pool().outstanding_frames(), 0, "frames leaked");
    // One node: every free is on its node.
    assert_eq!(pool.on_node_frees, pool.free_pages);
    // Every allocation that was not a reuse grew the pool by one batch.
    assert_eq!((pool.alloc_pages - pool.reused) * 64, pool.fresh);
}

/// A Radix VM on `machine` with `pages` pages at [`BASE`] written on
/// core 0, page `p` holding `p`.
fn written_parent(machine: &Arc<Machine>, pages: u64) -> Arc<dyn VmSystem> {
    let vm = build(machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..pages {
        machine.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
    }
    vm
}

/// Two forked children dropped at once, on two threads, while a third
/// thread ticks every core: release passes for the children's nodes and
/// frames run beside both drops, and beside each other. Nothing in a
/// drop frees by hand, so no schedule of theirs can free a node a core
/// still caches a delta for; under `scripts/sanitize.sh` any that did
/// would be a reported use-after-free.
#[test]
fn forked_children_drop_concurrently_while_a_third_core_ticks() {
    const ROUNDS: u64 = 40;
    const PAGES: u64 = 16;
    let machine = Machine::new(3);
    let parent = written_parent(&machine, PAGES);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (machine, parent, stop) = (&machine, &parent, &stop);
        let _stop = StopOnDrop(stop);
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                (0..3).for_each(|core| parent.maintain(core));
            }
        });
        for _ in 0..ROUNDS {
            let children = [1, 2].map(|_| parent.fork(0).unwrap());
            let droppers = children.into_iter().zip([1, 2]).map(|(child, core)| {
                s.spawn(move || {
                    child.attach_core(core);
                    // Copy every other page on the child's own core.
                    for p in (core as u64..PAGES).step_by(2) {
                        let va = BASE + p * PAGE_SIZE;
                        machine.write_u64(core, &*child, va, 100 + p).unwrap();
                        assert_eq!(machine.read_u64(core, &*child, va), Ok(100 + p));
                    }
                    drop(child);
                })
            });
            for d in droppers.collect::<Vec<_>>() {
                d.join().expect("a dropper panicked");
            }
        }
    });
    for p in 0..PAGES {
        assert_eq!(machine.read_u64(0, &*parent, BASE + p * PAGE_SIZE), Ok(p));
    }
    let cache = radix_cache(&parent);
    drop(parent);
    cache.quiesce();
    assert_eq!(cache.live_objects(), 0, "nodes left behind");
    assert_eq!(cache.live_slots(), 0, "frames left behind");
}

/// A thousand children forked from a 64-page parent and dropped on core
/// 0, which ticks once per child, while cores 1-3 tick every 50 µs and
/// nobody quiesces: each child's four radix nodes collapse through their
/// counts as the epochs turn, so the live count stays bounded. A drop
/// that left its tree behind would hold at least 4 000.
#[test]
fn dropped_children_collapse_on_ticking_cores_without_quiesce() {
    const CHILDREN: u64 = 1_000;
    const PAGES: u64 = 64;
    let machine = Machine::new(4);
    let parent = written_parent(&machine, PAGES);
    let cache = radix_cache(&parent);
    let stop = AtomicBool::new(false);
    let peak = std::thread::scope(|s| {
        let (parent, stop) = (&parent, &stop);
        let _stop = StopOnDrop(stop);
        for core in 1..4 {
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    parent.maintain(core);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            });
        }
        let live = (0..CHILDREN).map(|_| {
            drop(parent.fork(0).unwrap());
            parent.maintain(0);
            cache.live_objects()
        });
        live.max().unwrap()
    });
    assert!(peak < 1_000, "{peak} live objects over {CHILDREN} children");
    drop(parent);
    cache.quiesce();
    assert_eq!(cache.live_objects(), 0);
}

/// The list-based range lock's precision claim, on real threads: while
/// one thread holds a multi-page range of a VMA, a *disjoint* sub-range
/// of the same VMA is acquired and released immediately (no coarse
/// serialization), while an *overlapping* sub-range blocks until the
/// holder releases — and is never lost (no missed wakeup: the waiter
/// spins on the holder's descriptor and observes its mark).
#[test]
fn disjoint_subranges_progress_under_list_range_lock() {
    let cache = Arc::new(Refcache::new(3));
    let tree = Arc::new(RadixTree::<u64>::new(cache, RadixConfig::default()));
    assert_eq!(RadixConfig::default().range_lock, RangeLockKind::List);
    let base = 512 * 3;
    // Pre-expand the block to a leaf: a freshly expanded node is born
    // with every slot lock held by its creator, which would serialize
    // the two sub-ranges below for a reason unrelated to the range lock.
    tree.lock_range(0, base, base + 16, LockMode::ExpandAll)
        .replace(&0);
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
    let holder = {
        let tree = tree.clone();
        std::thread::spawn(move || {
            let g = tree.lock_range(0, base, base + 8, LockMode::ExpandAll);
            held_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(g);
        })
    };
    held_rx.recv().unwrap();
    // A disjoint sub-range of the same VMA completes while [base, base+8)
    // is held. If this deadlocked, the whole test would hang.
    tree.lock_range(1, base + 8, base + 16, LockMode::ExpandAll)
        .replace(&1);
    // An overlapping sub-range must block until the holder releases.
    let overlapper = {
        let tree = tree.clone();
        std::thread::spawn(move || {
            tree.lock_range(2, base + 4, base + 12, LockMode::ExpandAll)
                .replace(&2);
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        !overlapper.is_finished(),
        "overlapping range acquired while a conflicting range was held"
    );
    release_tx.send(()).unwrap();
    holder.join().unwrap();
    overlapper.join().unwrap();
}

/// Table nodes a `munmap` frees are under no walk: core 0 maps, faults,
/// demotes and unmaps whole 2 MiB blocks while core 1 does the same in
/// the neighbouring block, under the same interior table node. A
/// `munmap` frees in every core's table, so core 0's munmaps free nodes
/// in core 1's per-core table while core 1 walks it, as they do in a
/// shared table. Each core faults the other's block on alternate pairs
/// of ops (one with a demotion, one without), so core 0's munmap finds
/// core 1's table sometimes tracked, holding what core 1 faulted, and
/// sometimes untracked, its interior node walked all the same while
/// core 1 works under it. `PageTable::free_range` frees
/// only nodes whose whole span the munmap covers; freeing the shared
/// interior node too would have core 1 walk a freed node (reported by
/// the sanitizer build, where spare nodes are poisoned) and lose its
/// translations.
#[test]
fn whole_block_munmaps_race_faults_and_demotions_next_door() {
    const OPS: u64 = 1000;
    let blocks = [BASE, BASE + BLOCK_PAGES * PAGE_SIZE];
    for kind in [BackendKind::Radix, BackendKind::RadixSharedPt] {
        let machine = Machine::new(2);
        let vm = build(&machine, kind);
        for core in 0..2 {
            vm.attach_core(core);
        }
        std::thread::scope(|s| {
            for (core, addr) in blocks.into_iter().enumerate() {
                let (machine, vm) = (&machine, &vm);
                let next_door = blocks[1 - core];
                s.spawn(move || {
                    for i in 0..OPS {
                        vm.mmap_flags(
                            core,
                            addr,
                            BLOCK_PAGES * PAGE_SIZE,
                            Prot::RW,
                            Backing::Anon,
                            MapFlags::HUGE,
                        )
                        .unwrap();
                        let page = addr + (i % 64) * PAGE_SIZE;
                        machine.write_u64(core, &**vm, page, i).unwrap();
                        if i % 4 < 2 {
                            match machine.read_u64(core, &**vm, next_door) {
                                Ok(_) | Err(VmError::NoMapping) => {}
                                Err(e) => panic!("{}: reading next door saw {e}", vm.name()),
                            }
                        }
                        if i % 2 == 1 {
                            // A demotion, then 4 KiB faults: table walks.
                            let hole = addr + 100 * PAGE_SIZE;
                            vm.munmap(core, hole, 16 * PAGE_SIZE).unwrap();
                            for p in 200..232 {
                                let va = addr + p * PAGE_SIZE;
                                assert_eq!(machine.read_u64(core, &**vm, va), Ok(0));
                            }
                        }
                        assert_eq!(machine.read_u64(core, &**vm, page), Ok(i), "{}", vm.name());
                        vm.munmap(core, addr, BLOCK_PAGES * PAGE_SIZE).unwrap();
                        if i % 8 == 0 {
                            vm.maintain(core);
                        }
                    }
                });
            }
        });
        assert_eq!(machine.stats().stale_detected, 0, "{}", vm.name());
        vm.quiesce();
        assert_eq!(machine.pool().outstanding_frames(), 0, "{}", vm.name());
    }
}

/// Mixed overlapping traffic on every backend survives and stays
/// stale-free.
#[test]
fn overlapping_stress_all_backends() {
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
                let mut rng = core as u64 + 9;
                for i in 0..250u64 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let lo = rng % 24;
                    let len = 1 + (rng >> 8) % 6;
                    let addr = BASE + lo * PAGE_SIZE;
                    match rng % 3 {
                        0 => {
                            vm.mmap(core, addr, len * PAGE_SIZE, Prot::RW, Backing::Anon)
                                .unwrap();
                        }
                        1 => {
                            vm.munmap(core, addr, len * PAGE_SIZE).unwrap();
                        }
                        _ => match machine.write_u64(core, &*vm, addr, i) {
                            Ok(()) | Err(VmError::NoMapping) => {}
                            Err(e) => panic!("{}: unexpected {e}", vm.name()),
                        },
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
        assert_eq!(
            machine.stats().stale_detected,
            0,
            "{} leaked a stale translation",
            vm.name()
        );
    }
}

/// Frames one core frees reach the core that allocates: two real-thread
/// `shared_remap` streams (the repo benchmark's, `examples/ops/mod.rs`)
/// on one two-core machine, where the frames core 0's remaps fault in
/// come back on whichever core's tick releases them. Each core's free
/// list holds at most one growth batch (64 frames, `rvm_mem`'s
/// `GROW_BATCH`), and a free that would leave more than a refill batch
/// (16) on it spills the rest to the node's reservoir, so over the
/// whole run, warm-up included, the pool holds the live set plus one
/// batch per core and one in the reservoir, however long the streams
/// run. The pool reads 128 frames here, one growth per core; lists
/// that spilled only past four 64-frame batches read 320 (release
/// builds), and a pool that kept every on-node free on the freeing
/// core's list grew by thousands.
#[test]
fn freed_frames_reach_the_allocating_core_under_real_threads() {
    const NCORES: u64 = 2;
    const LIST_MAX: u64 = 64;
    /// Pages of the one `shared_remap` mapping.
    const LIVE: u64 = 16;
    const WARM_OPS: u64 = 20_000;
    const OPS: u64 = 100_000;
    let (machine, vm) = ops::machine(NCORES as usize);
    let mut streams: Vec<Ops> = (0..NCORES as usize)
        .map(|core| Ops::on(machine.clone(), vm.clone(), core, Kind::SharedRemap))
        .collect();
    for _ in 0..WARM_OPS {
        streams.iter_mut().for_each(Ops::op);
    }
    std::thread::scope(|s| {
        for mut o in streams {
            s.spawn(move || (0..OPS).for_each(|_| o.op()));
        }
    });
    let total = machine.pool().total_frames() as u64;
    assert!(
        total <= LIVE + (NCORES + 1) * LIST_MAX,
        "the pool grew to {total} frames for {LIVE} live pages"
    );
}
