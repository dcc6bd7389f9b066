//! One-thread op loops for profiling: the repo benchmark's five workloads
//! (`benchmark/src/workloads.rs`), each as a bare loop on one host thread
//! with nothing else in the process, so a sampling profiler
//! (`scripts/sample_prof.sh`) sees only the op. The four op workloads are
//! `ops::Ops` (one-core machine; `examples/ops/mod.rs` says why), shared
//! with `tests/locked_instructions.rs`; `metis` is whole jobs.
//!
//! Run with: `cargo run --release --example hot_loop -- <disjoint|refault|shared|superpage|metis> <seconds>`

mod ops;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ops::{Kind, Ops};
use radixvm::metis::{run_to_completion, Metis, MetisConfig, VmArena};

/// Runs `kind`'s ops until `budget` has passed; returns the ops done and
/// the seconds they took.
fn spin(kind: Kind, budget: Duration) -> (u64, f64) {
    let mut ops = Ops::new(kind);
    let t0 = Instant::now();
    let mut n = 0;
    while t0.elapsed() < budget {
        for _ in 0..256 {
            ops.op();
        }
        n += 256;
    }
    (n, t0.elapsed().as_secs_f64())
}

/// One-worker word-index jobs, 64 KiB allocation unit, each on a fresh
/// machine (the arena never frees); returns the words indexed and the
/// seconds they took.
fn metis(budget: Duration) -> (u64, f64) {
    const WORDS: u64 = 1_000_000;
    let t0 = Instant::now();
    let mut words = 0;
    while t0.elapsed() < budget {
        let (m, vm) = ops::one_core_machine();
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
    let usage = "usage: hot_loop <disjoint|refault|shared|superpage|metis> <seconds>";
    let workload = args.next().expect(usage);
    let seconds: f64 = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let budget = Duration::from_secs_f64(seconds);
    let (ops, dt) = match workload.as_str() {
        "disjoint" => spin(Kind::Disjoint, budget),
        "refault" => spin(Kind::Refault, budget),
        "shared" => spin(Kind::SharedRemap, budget),
        "superpage" => spin(Kind::Superpage, budget),
        "metis" => metis(budget),
        _ => panic!("{usage}"),
    };
    let unit = if workload == "metis" { "words" } else { "ops" };
    println!(
        "{workload}: {ops} {unit} in {dt:.2} s = {:.0} {unit}/s, {:.1} ns each",
        ops as f64 / dt,
        dt * 1e9 / ops as f64
    );
}
