//! Emits the refcount-ownership record (`BENCH_refcount.json`) to
//! stdout and enforces the zero-allocation fault-lifecycle gate.
//!
//! Measures (deterministic virtual-time simulator):
//! * a cold demand-zero populate and a warm refill loop on RadixVM —
//!   both must perform zero Refcache-object heap allocations (the
//!   frame table owns page reference counts, DESIGN.md §8),
//! * activation/release balance of frame-table cells after teardown,
//! * remote cache-line transfers *by category* for a multicore
//!   disjoint-ops run (frame-table vs anonymous heap).
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_refcount
//! [--quick]` (or `scripts/bench_record.sh`, which redirects into the
//! checked-in JSON). Exits non-zero on gate regression.

use rvm_bench::json::{fixed, object};
use rvm_bench::refcount::{check_gate, run_refcount};
use rvm_bench::{duration_ns, obj, quick, Gate};

fn main() {
    let cores = if quick() { 4 } else { 8 };
    let report = run_refcount(cores, duration_ns());
    let gate = check_gate(&report);
    let record = obj! {
        "schema" => 1,
        "bench" => "refcount",
        "workload" => format!(
            "cold populate + warm refill (1 core), disjoint ops attribution ({cores} cores)"
        ),
        "cold" => obj! {
            "faults" => report.cold_faults,
            "refcache_obj_allocs" => report.cold_refcache_obj_allocs,
            "heap_allocs" => report.cold_heap_allocs,
        },
        "warm" => obj! {
            "faults" => report.warm_faults,
            "heap_allocs" => report.warm_heap_allocs,
        },
        "frame_table" => obj! {
            "slot_activates" => report.slot_activates,
            "slot_releases" => report.slot_releases,
            "balance_after_teardown" => report.slot_balance_after_teardown,
        },
        "remote_transfers_by_category" =>
            object(report.remote_by_label.iter().map(|(label, n)| (label, *n))),
        "frame_table_share_of_remote" => fixed(report.frame_table_share, 4),
        "gate" => obj! {"passed" => gate.passed()},
    };
    println!("{record}");
    Gate::enforce(&[&gate]);
    eprintln!(
        "refcount gate passed: {} cold + {} warm faults with zero Refcache-object \
         allocations; slots balanced; frame-table share of remote lines {:.1}%",
        report.cold_faults,
        report.warm_faults,
        report.frame_table_share * 100.0
    );
}
