//! Emits the fault-fast-path perf record (`BENCH_fastpath.json`) to
//! stdout: virtual-time cost of repeated same-block faults with and
//! without the leaf hint cache, the hint hit rate, and a real-time
//! single-core fault-fill loop through the full `RadixVm` stack.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_fastpath`
//! (or `scripts/bench_record.sh`, which redirects into the checked-in
//! JSON file so successive PRs have a perf trajectory to compare).

use std::time::Instant;

use rvm_bench::fastpath::{hit_rate, tree_fault_point};
use rvm_bench::json::fixed;
use rvm_bench::{build, obj, BackendKind};
use rvm_core::RadixVm;
use rvm_hw::{Backing, Machine, Prot, PAGE_SIZE};

const BASE: u64 = 0x70_0000_0000;

/// Wall-clock single-core fault loop: every read misses the TLB and runs
/// the fill-fault path (lock page metadata, reinstall PTE + TLB entry).
/// Returns (ops/sec, hint hit rate).
fn real_fault_loop(iters: u64) -> (f64, f64) {
    let machine = Machine::new(1);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.mmap(0, BASE, 8 * PAGE_SIZE, Prot::RW, Backing::Anon)
        .expect("fastpath warm-up mmap failed");
    for p in 0..8u64 {
        machine
            .touch_page(0, &*vm, BASE + p * PAGE_SIZE, 1)
            .expect("fastpath warm-up touch failed");
    }
    let radix = vm
        .as_any()
        .downcast_ref::<RadixVm>()
        .expect("Radix backend is a RadixVm");
    // Warm-up.
    for i in 0..1_000u64 {
        let vpn = (BASE >> 12) + (i % 8);
        machine.invalidate_local(0, vm.asid(), vpn, 1);
        machine
            .read_u64(0, &*vm, BASE + (i % 8) * PAGE_SIZE)
            .expect("fastpath refault read failed");
    }
    let before = radix.tree_stats().snapshot();
    let t0 = Instant::now();
    for i in 0..iters {
        let vpn = (BASE >> 12) + (i % 8);
        machine.invalidate_local(0, vm.asid(), vpn, 1);
        machine
            .read_u64(0, &*vm, BASE + (i % 8) * PAGE_SIZE)
            .expect("fastpath refault read failed");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let looked_up = radix.tree_stats().snapshot().since(&before);
    (
        iters as f64 / elapsed,
        hit_rate(looked_up.hint_hits, looked_up.hint_misses),
    )
}

fn main() {
    let iters = 200_000u64;
    let descent = tree_fault_point(false, iters);
    let fast = tree_fault_point(true, iters);
    let improvement =
        (descent.virt_ns_per_fault - fast.virt_ns_per_fault) / descent.virt_ns_per_fault * 100.0;
    let (ops_per_sec, real_hit_rate) = real_fault_loop(1_000_000);
    let record = obj! {
        "schema" => 1,
        "bench" => "fastpath",
        "sim_single_page_fault" => obj! {
            "descent_ns" => fixed(descent.virt_ns_per_fault, 1),
            "fastpath_ns" => fixed(fast.virt_ns_per_fault, 1),
            "improvement_pct" => fixed(improvement, 1),
            "hint_hit_rate" => fixed(fast.hit_rate(), 4),
            "steady_state_heap_allocs" => fast.heap_allocs + descent.heap_allocs,
        },
        "real_fault_fill_loop_1core" => obj! {
            "ops_per_sec" => fixed(ops_per_sec, 0),
            "ns_per_op" => fixed(1e9 / ops_per_sec, 1),
            "hint_hit_rate" => fixed(real_hit_rate, 4),
        },
        // Fixed reference point: the same benches run against the PR 1
        // tree (Vec-based guards, per-level pins, no hints), with the
        // `pagefault_fill` VPN-invalidation fix applied so both sides
        // measure real faults. Lets any machine see the trajectory even
        // though absolute wall-clock numbers are host-dependent.
        "before_pr2_reference" => obj! {
            "criterion_pagefault_fill_radixvm_ns" => fixed(244.0, 1),
            "criterion_index_lookup_radix_ns" => fixed(109.3, 1),
            "sim_descent_ns" => fixed(44.0, 1),
        },
    };
    println!("{record}");
}
