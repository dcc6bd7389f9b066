//! Bare op loops for profiling: the repo benchmark's five workloads
//! (`benchmark/src/workloads.rs`) with nothing else in the process, so a
//! sampling profiler (`scripts/sample_prof.sh`) sees only the op. The four
//! op workloads are `ops::Ops` streams (`examples/ops/mod.rs`, shared with
//! `tests/locked_instructions.rs`): T of them as cores 0..T of one T-core
//! machine, one host thread each — one by default, and two or more to see
//! what the streams cost each other (`shared` is the workload whose
//! streams meet). `metis` is whole one-worker jobs. Beside ops/s it prints
//! every counter of the machine, the address space, the frame pool and
//! Refcache that moved, per op, and
//! the footprint: the frames the pool still has handed out when the
//! streams stop (mapped, or unmapped and waiting out their Refcache
//! epochs), the address space's index and page-table bytes
//! (`VmSystem::space_usage`) and the process's peak resident set.
//!
//! Run with: `cargo run --release --example hot_loop -- <disjoint|refault|shared|superpage|metis> <seconds | Nops> [threads]`
//!
//! The budget is a time (`3`, seconds) or a fixed amount of work
//! (`300000ops`: ops over all streams, or words for `metis`). A fixed
//! count makes what the run leaves behind — page tables, the peak
//! resident set — the same on a fast host as on a slow one.

mod ops;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ops::{Kind, Ops};
use radixvm::core_vm::RadixVm;
use radixvm::hw::{Machine, MachineStats, OpStats, VmSystem};
use radixvm::mem::PoolStats;
use radixvm::metis::{run_to_completion, Metis, MetisConfig, VmArena};
use radixvm::refcache::RefcacheStats;

/// Restricts the calling thread to one CPU, counting down from the last
/// one it is allowed on (best effort; Linux only) — the benchmark's
/// placement, so a profile and a benchmark run see the same neighbours.
fn pin_to_cpu(index: usize) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16;
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a writable buffer of the size passed; pid
        // 0 names the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
            return;
        }
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            return;
        }
        let cpu = cpus[cpus.len() - 1 - index % cpus.len()];
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a readable buffer of the size passed; a
        // refusal only loses the placement.
        unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = index;
}

/// Ops each stream runs before the clock starts, on the main thread like
/// the benchmark's `prepare` (fills the pool's free lists, the radix
/// spine, the Refcache and the TLBs).
fn warm_ops(kind: Kind) -> u64 {
    match kind {
        Kind::Superpage => 64,
        _ => 20_000,
    }
}

/// The process's peak resident set (`VmHWM`), MiB, where there is a
/// procfs to ask.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = hwm.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// How long a run goes on: for a time, or for a number of ops (words,
/// for `metis`).
#[derive(Clone, Copy)]
enum Budget {
    Time(Duration),
    Ops(u64),
}

impl Budget {
    /// `3`, `0.5` (seconds) or `300000ops`.
    fn parse(arg: &str) -> Option<Budget> {
        match arg.strip_suffix("ops") {
            Some(n) => n.parse().ok().filter(|&n| n > 0).map(Budget::Ops),
            None => arg
                .parse()
                .ok()
                .map(Duration::from_secs_f64)
                .map(Budget::Time),
        }
    }
}

/// Every counter of the stack at once: machine, address space, frame
/// pool, Refcache.
fn counters(
    machine: &Machine,
    vm: &dyn VmSystem,
) -> (MachineStats, OpStats, PoolStats, RefcacheStats) {
    let radix = vm.as_any().downcast_ref::<RadixVm>();
    let cache = radix.expect("ops::machine builds a RadixVm").cache();
    (
        machine.stats(),
        vm.op_stats(),
        machine.pool().stats(),
        cache.stats(),
    )
}

/// Runs `threads` streams of `kind`, one pinned host thread each, until
/// `budget` has passed or, for a count, each stream has done its share
/// of it (in whole batches of 256); returns the ops done and the seconds
/// they took, and prints every counter that moved, per op, and what the
/// pool has outstanding and the address space occupies at the end.
fn spin(kind: Kind, budget: Budget, threads: usize) -> (u64, f64) {
    let share = match budget {
        Budget::Ops(n) => n.div_ceil(threads as u64),
        Budget::Time(_) => u64::MAX,
    };
    let (machine, vm) = ops::machine(threads);
    let mut streams: Vec<Ops> = (0..threads)
        .map(|core| Ops::on(machine.clone(), vm.clone(), core, kind))
        .collect();
    for o in &mut streams {
        for _ in 0..warm_ops(kind) {
            o.op();
        }
    }
    let (hw0, vm0, pool0, rc0) = counters(&machine, &*vm);
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let (ops, dt) = std::thread::scope(|s| {
        let running: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(core, mut o)| {
                let (stop, start) = (&stop, &start);
                s.spawn(move || {
                    pin_to_cpu(core);
                    start.wait();
                    let mut n = 0u64;
                    while n < share && !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            o.op();
                        }
                        n += 256;
                    }
                    n
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        if let Budget::Time(t) = budget {
            std::thread::sleep(t);
            stop.store(true, Ordering::Relaxed);
        }
        let ops: u64 = running
            .into_iter()
            .map(|t| t.join().expect("a stream panicked"))
            .sum();
        (ops, t0.elapsed().as_secs_f64())
    });
    let space = vm.space_usage();
    let (hw, vm, pool, rc) = counters(&machine, &*vm);
    println!("per op:");
    let per_op = |layer: &'static str| {
        move |name, n: u64| {
            if n != 0 {
                println!("  {layer}.{name}: {:.3}", n as f64 / ops as f64);
            }
        }
    };
    hw.since(&hw0).visit(per_op("machine"));
    vm.since(&vm0).visit(per_op("vm"));
    pool.since(&pool0).visit(per_op("pool"));
    rc.since(&rc0).visit(per_op("refcache"));
    let outstanding = machine.pool().outstanding_frames();
    println!(
        "at exit: {outstanding} frames outstanding in the pool ({:.1} MiB), \
         {} B of index, {} B of page tables",
        outstanding as f64 * 4096.0 / (1 << 20) as f64,
        space.index_bytes,
        space.pagetable_bytes
    );
    (ops, dt)
}

/// One-worker word-index jobs, 64 KiB allocation unit, each on a fresh
/// machine (the arena never frees), until `budget` has passed or that
/// many words are indexed; returns the words indexed and the seconds
/// they took.
fn metis(budget: Budget) -> (u64, f64) {
    const WORDS: u64 = 1_000_000;
    let t0 = Instant::now();
    let mut words = 0;
    while match budget {
        Budget::Time(t) => t0.elapsed() < t,
        Budget::Ops(n) => words < n,
    } {
        let (m, vm) = ops::machine(1);
        let arena = Arc::new(VmArena::new(m, vm, 16));
        let cfg = MetisConfig {
            total_words: WORDS,
            ..MetisConfig::small(1)
        };
        words += run_to_completion(&Metis::new(arena, cfg), 1).pairs;
    }
    (words, t0.elapsed().as_secs_f64())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: hot_loop <disjoint|refault|shared|superpage|metis> <seconds | Nops> \
                 [threads, not metis]";
    let workload = args.next().expect(usage);
    let budget = args.next().as_deref().and_then(Budget::parse).expect(usage);
    let threads: usize = match args.next() {
        Some(t) => t.parse().ok().filter(|&t| t >= 1).expect(usage),
        None => 1,
    };
    let (ops, dt) = match workload.as_str() {
        "disjoint" => spin(Kind::Disjoint, budget, threads),
        "refault" => spin(Kind::Refault, budget, threads),
        "shared" => spin(Kind::SharedRemap, budget, threads),
        "superpage" => spin(Kind::Superpage, budget, threads),
        "metis" if threads == 1 => metis(budget),
        _ => panic!("{usage}"),
    };
    let unit = if workload == "metis" { "words" } else { "ops" };
    println!(
        "{workload}: {ops} {unit} in {dt:.2} s = {:.0} {unit}/s, {:.1} ns each per thread",
        ops as f64 / dt,
        dt * 1e9 * threads as f64 / ops as f64
    );
    if let Some(mib) = peak_rss_mib() {
        println!("peak RSS (VmHWM): {mib:.1} MiB");
    }
}
