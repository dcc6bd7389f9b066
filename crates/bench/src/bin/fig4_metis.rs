//! Figure 4: Metis (MapReduce word position index) scalability on
//! RadixVM, Bonsai, and Linux, with 8 MB and 64 KB allocation units.
//!
//! Expected shape (paper §5.2): RadixVM scales with both unit sizes.
//! Bonsai matches RadixVM at 8 MB (fault-dominated; its faults are
//! lock-free) but falls behind at 64 KB (mmap-dominated; its mmaps
//! serialize). Linux scales poorly in both configurations because faults
//! and mmaps contend for the same address-space lock.
//!
//! Also prints the operation counts the paper reports (mmap invocations,
//! fault breakdown).
//!
//! Usage: `fig4_metis [--quick]`; env `RVM_CORES`, `RVM_METIS_WORDS`.

use std::sync::Arc;

use rvm_bench::{build, core_counts, env_u64, print_table, quick, BackendKind};
use rvm_hw::Machine;
use rvm_metis::{Metis, MetisConfig, Step, VmArena};
use rvm_sync::{sim, CostModel};

/// Runs one Metis job to completion on `n` virtual cores; returns
/// (virtual ns, stats).
fn run_job(
    kind: BackendKind,
    n: usize,
    block_pages: u64,
    words: u64,
) -> (u64, rvm_metis::MetisStats) {
    let machine = Machine::new(n);
    let vm = build(&machine, kind);
    for c in 0..n {
        vm.attach_core(c);
    }
    let arena = Arc::new(VmArena::new(machine.clone(), vm.clone(), block_pages));
    let cfg = MetisConfig {
        workers: n,
        total_words: words,
        chunk: 256,
        hot_vocab: 1_000,
        cold_vocab: 65_536,
    };
    let job = Metis::new(arena, cfg);
    let guard = sim::install(n, CostModel::default());
    let mut stall_guard = 0u64;
    while !job.done() {
        let core = sim::min_clock_core();
        sim::switch(core);
        match job.step(core) {
            Step::Worked => stall_guard = 0,
            Step::Idle => {
                sim::charge(1_000); // barrier poll
                stall_guard += 1;
                assert!(stall_guard < 10_000_000, "job stalled");
            }
            Step::Done => {
                // This worker is finished; let its clock drift forward so
                // the scheduler picks others.
                sim::charge(10_000);
            }
        }
    }
    let stats = guard.finish();
    (stats.max_clock(), job.stats())
}

fn main() {
    let words = env_u64("RVM_METIS_WORDS").unwrap_or(if quick() { 100_000 } else { 400_000 });
    let cores_list = core_counts();
    let systems = [BackendKind::Radix, BackendKind::Bonsai, BackendKind::Linux];
    for (unit_name, block_pages) in [("8 MB", 2048u64), ("64 KB", 16u64)] {
        let series: Vec<(&str, Vec<(usize, f64)>)> = systems
            .iter()
            .map(|&k| {
                let pts = cores_list
                    .iter()
                    .map(|&n| {
                        let (virt_ns, st) = run_job(k, n, block_pages, words);
                        let jobs_per_hour = 3_600e9 / virt_ns as f64;
                        eprintln!(
                            "  {unit_name:>5} {:>8} {n:>3} cores: {jobs_per_hour:>9.1} jobs/h  \
                             ({} mmaps, {} pairs)",
                            k.name(),
                            st.mmaps,
                            st.pairs
                        );
                        (n, jobs_per_hour)
                    })
                    .collect();
                (k.name(), pts)
            })
            .collect();
        print_table(
            &format!("Figure 4 ({unit_name} allocation unit): Metis jobs/hour"),
            &series,
        );
    }
    // The paper's §5.2 operation counts, for the record.
    let n = *cores_list.last().expect("at least one core count");
    for (unit_name, block_pages) in [("8 MB", 2048u64), ("64 KB", 16u64)] {
        let (_t, st) = run_job(BackendKind::Radix, n, block_pages, words);
        println!(
            "# §5.2 counts at {n} cores, {unit_name} unit: {} mmaps, {} pairs, {} distinct words",
            st.mmaps, st.pairs, st.distinct_words
        );
    }
}
