//! Figures 5 and 9: throughput of the local, pipeline, and global
//! microbenchmarks (total page writes/sec), from one sweep.
//!
//! Figure 5 compares RadixVM, Bonsai, and Linux. Expected shape (paper
//! §5.3): RadixVM scales linearly on local (zero shootdowns, zero
//! remote traffic), near-linearly on pipeline (exactly one remote
//! shootdown per munmap, IPI delivery cost grows with core count), and
//! well on global (broadcast shootdowns amortized over many faults).
//! Linux and Bonsai stay flat on local/pipeline because every operation
//! takes the address-space lock; they do better on global thanks to its
//! higher fault:mmap ratio.
//!
//! Figure 9 compares RadixVM's per-core page tables with targeted
//! shootdown (the Figure 5 RadixVM series, not a rerun) against a
//! shared page table with broadcast shootdown. Expected shape (paper
//! §5.5): local and pipeline collapse under the shared table — every
//! munmap must broadcast to all cores at hundreds of thousands of cycles
//! per round. Global is closer (it broadcasts under both schemes) but
//! per-core tables still win by eliminating contention on the shared
//! page-table structure.
//!
//! Usage: `fig5_micro [--quick]`; env `RVM_CORES`, `RVM_DUR_MS`.

use rvm_bench::workloads::{global, local, pipeline, PipelineQueues};
use rvm_bench::{
    build, core_counts, duration_ns, point_duration, print_table, run_sim, BackendKind,
};
use rvm_hw::Machine;
use rvm_sync::CostModel;

fn sweep(bench: &str, kind: BackendKind, cores_list: &[usize], dur: u64) -> Vec<(usize, f64)> {
    cores_list
        .iter()
        .map(|&n| {
            let machine = Machine::new(n);
            let vm = build(&machine, kind);
            let queues = PipelineQueues::new(n);
            let point = run_sim(
                n,
                point_duration(dur, n),
                CostModel::default(),
                |c| match bench {
                    "local" => local(machine.clone(), vm.clone(), c),
                    "pipeline" => pipeline(machine.clone(), vm.clone(), queues.clone(), c, n),
                    "global" => global(machine.clone(), vm.clone(), c, n),
                    _ => unreachable!(),
                },
            );
            eprintln!(
                "  {bench:>8} {:>18} {n:>3} cores: {:>12.0} pages/s  (ipis {}, remote xfers {})",
                kind.name(),
                point.per_sec(),
                point.sim.total_ipis(),
                point.sim.total_remote(),
            );
            (n, point.per_sec())
        })
        .collect()
}

fn main() {
    let cores_list = core_counts();
    let dur = duration_ns();
    let benches = ["local", "pipeline", "global"];
    // One sweep per (bench, backend): [Radix, Bonsai, Linux, RadixSharedPt].
    let results: Vec<[Vec<(usize, f64)>; 4]> = benches
        .iter()
        .map(|bench| {
            [
                BackendKind::Radix,
                BackendKind::Bonsai,
                BackendKind::Linux,
                BackendKind::RadixSharedPt,
            ]
            .map(|k| sweep(bench, k, &cores_list, dur))
        })
        .collect();
    for (bench, [radix, bonsai, linux, _]) in benches.iter().zip(&results) {
        print_table(
            &format!("Figure 5 ({bench}): total page writes/sec"),
            &[
                (BackendKind::Radix.name(), radix.clone()),
                (BackendKind::Bonsai.name(), bonsai.clone()),
                (BackendKind::Linux.name(), linux.clone()),
            ],
        );
    }
    for (bench, [radix, _, _, shared]) in benches.iter().zip(&results) {
        print_table(
            &format!("Figure 9 ({bench}): per-core vs shared page tables, page writes/sec"),
            &[("Per-core", radix.clone()), ("Shared", shared.clone())],
        );
    }
}
