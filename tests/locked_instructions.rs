//! Pins the number of **locked instructions** (atomic read-modify-writes
//! and lock acquisitions, `sim::CoreStats::rmws`) the warm paths execute
//! on one virtual core. Every one of them is on a line no other core
//! shares, so each is pure overhead the host pays on every op; a counter
//! that creeps back to `fetch_add` under a lock its path already holds,
//! or a second lock round-trip, shows up here as a number, not as a
//! few per cent of wall clock lost in run-to-run noise (DESIGN.md §5).
//!
//! The ops are the repo benchmark's, from the module
//! `examples/hot_loop.rs` profiles (`examples/ops/mod.rs`), on a one-core
//! machine under the simulator — except the last test, which runs
//! `superpage` on sixteen and counts the lines its cores pass around.

#[path = "../examples/ops/mod.rs"]
mod ops;

use ops::{Kind, Ops, MAINTAIN_EVERY};
use radixvm::hw::{Backing, Prot, PAGE_SIZE};
use radixvm::sync::{sim, CostModel};

/// One virtual core to build the machine and run the ops on.
fn one_core_sim() -> sim::SimGuard {
    let guard = sim::install(1, CostModel::default());
    sim::switch(0);
    guard
}

/// `kind`'s op stream as core 0 of a one-core machine of its own.
fn one_core_ops(kind: Kind) -> Ops {
    let (machine, vm) = ops::machine(1);
    Ops::on(machine, vm, 0, kind)
}

/// Locked instructions core 0 executes in `work`.
fn rmws(work: impl FnOnce()) -> u64 {
    let before = sim::stats().cores[0].rmws;
    work();
    sim::stats().cores[0].rmws - before
}

/// Locked instructions per op over `n` ops.
fn rmws_per_op(o: &mut Ops, n: u64) -> f64 {
    rmws(|| (0..n).for_each(|_| o.op())) as f64 / n as f64
}

#[test]
fn tlb_hit_is_one_locked_instruction() {
    const BASE: u64 = 0x200_0000_0000;
    let _sim = one_core_sim();
    let (machine, vm) = ops::machine(1);
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
fn refault_op_is_six_when_the_leaf_hint_serves_it() {
    let _sim = one_core_sim();
    const OPS: u64 = 1024;
    let mut o = one_core_ops(Kind::Refault);
    rmws_per_op(&mut o, OPS); // warm up
    let fills = o.vm.op_stats().faults_fill;
    let per_op: Vec<u64> = (0..OPS).map(|_| rmws(|| o.op())).collect();
    assert_eq!(
        o.vm.op_stats().faults_fill,
        fills + OPS,
        "every op refaulted"
    );
    // The stream moves between eight leaf blocks, one op in eight, and
    // the core's hint set holds all eight: no op descends from the root
    // (16 when it does).
    let mean = per_op.iter().sum::<u64>() as f64 / OPS as f64;
    assert!(mean <= 6.01, "refault op: {mean:.2} locked instructions");
}

#[test]
fn hinted_refault_op_line_events_are_pinned() {
    // Every instrumented access of the op, locked or not: the TLB lock
    // for the invalidation, again for the lookup that misses, and the
    // miss counter under it (3); the core's lock, which the hint rides,
    // and the hinted slot's lock and unlock (5, pinned in `rvm_radix`)
    // and the present bit read under it (1); the
    // fill counter (1); the page-table walk loading each interior word
    // once (3) and swapping the PTE (1); the TLB lock for the fill (1).
    // A word read twice shows up here, not in `rmws` — as did the attach
    // set, which every fault loaded and only the shared table reads, and
    // the slot lock's load ahead of its CAS.
    const LINE_EVENTS: u64 = 15;
    let _sim = one_core_sim();
    let mut o = one_core_ops(Kind::Refault);
    rmws_per_op(&mut o, 1024); // warm up
    let hits = o.vm.op_stats().faults_fill;
    for _ in 0..64 {
        let before = sim::stats().cores[0];
        o.op();
        let after = sim::stats().cores[0];
        assert_eq!(after.local_hits - before.local_hits, LINE_EVENTS);
        assert_eq!(after.cold_misses, before.cold_misses);
    }
    assert_eq!(o.vm.op_stats().faults_fill, hits + 64);
}

#[test]
fn disjoint_op_with_its_share_of_maintain_stays_within_thirteen_point_one() {
    let _sim = one_core_sim();
    // Whole ticks, so each op carries its 1/128 share of `maintain`.
    const OPS: u64 = 8 * MAINTAIN_EVERY;
    let mut o = one_core_ops(Kind::Disjoint);
    rmws_per_op(&mut o, OPS); // warm up
    let fresh = o.machine.pool().stats().fresh;
    let n = rmws_per_op(&mut o, OPS);
    assert_eq!(
        o.machine.pool().stats().fresh,
        fresh,
        "warm: no pool growth"
    );
    assert!(n <= 13.1, "disjoint op: {n:.2} locked instructions");
}

#[test]
fn one_core_shared_remap_op_stays_within_twelve_point_five() {
    let _sim = one_core_sim();
    const OPS: u64 = 8 * MAINTAIN_EVERY;
    let mut o = one_core_ops(Kind::SharedRemap);
    rmws_per_op(&mut o, OPS); // warm up
    let n = rmws_per_op(&mut o, OPS);
    assert!(n <= 12.5, "shared_remap op: {n:.2} locked instructions");
}

#[test]
fn sixteen_superpage_streams_keep_their_leaves_and_heap_lines_local() {
    // Each core maps, demotes and unmaps its own 2 MiB blocks, so by the
    // paper's premise no line of a radix leaf or of the heap should move
    // between them. What moved them was the allocator: a collapsed leaf's
    // array went back to one shared arena and to whichever core demoted
    // next (~187 lines/op at this length); a core now keeps its own.
    const CORES: usize = 16;
    const OPS: u64 = 32;
    let _sim = sim::install(CORES, CostModel::default());
    let (machine, vm) = ops::machine(CORES);
    let mut streams: Vec<Ops> = (0..CORES)
        .map(|core| {
            sim::switch(core);
            Ops::on(machine.clone(), vm.clone(), core, Kind::Superpage)
        })
        .collect();
    let leaf_and_heap = || -> u64 {
        let by_label = sim::remote_transfers_by_label();
        let lines = by_label
            .iter()
            .filter(|(l, _)| ["radix-leaf", sim::UNLABELED].contains(l));
        lines.map(|(_, n)| n).sum()
    };
    let before = leaf_and_heap();
    // Lowest clock first, as the benchmark's harness steps its cores.
    let mut left = [OPS; CORES];
    while let Some(core) = (0..CORES)
        .filter(|&c| left[c] > 0)
        .min_by_key(|&c| sim::clock(c))
    {
        sim::switch(core);
        streams[core].op();
        left[core] -= 1;
    }
    let per_op = (leaf_and_heap() - before) as f64 / (OPS * CORES as u64) as f64;
    assert!(
        per_op <= 8.0,
        "radix-leaf + heap: {per_op:.2} remote lines/op"
    );
}
