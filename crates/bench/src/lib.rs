//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! The host machine has no 80 cores, so scalability experiments run on
//! the deterministic virtual-time simulator of `rvm_sync::sim`: workload
//! closures for N virtual cores are interleaved lowest-clock-first on one
//! OS thread, every instrumented synchronization event advances virtual
//! clocks through a MESI-style cost model, and throughput is computed
//! from virtual time. See DESIGN.md §1 for the fidelity argument.
//!
//! Binaries (one per experiment):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4_metis` | Figure 4 — Metis jobs/hour vs cores |
//! | `fig5_micro` | Figures 5 and 9 — local/pipeline/global microbenchmarks; per-core vs shared page tables |
//! | `fig6_skiplist` | Figure 6 — skip-list lookups under writers |
//! | `fig7_radix` | Figure 7 — radix-tree lookups under writers |
//! | `fig8_refcount` | Figure 8 — Refcache vs SNZI vs shared counter |
//! | `table1_loc` | Table 1 — component sizes |
//! | `table2_memory` | Table 2 — address-space metadata memory |
//!
//! Six more binaries write the checked-in perf records, `BENCH_*.json`
//! at the repository root: `bench_fastpath`, `bench_scale`, `bench_huge`,
//! `bench_refcount`, `bench_numa`, `bench_pressure`. Each measures
//! through its module here, builds the record as one [`json`] value,
//! prints it once, and leaves through [`Gate::enforce`] — non-zero when
//! an acceptance gate failed. `scripts/bench_record.sh` regenerates the
//! files; its `--check` re-runs all six against them instead: fastpath,
//! huge, refcount and pressure value by value (virtual time within
//! 0.1 %), scale and numa — whose values follow the heap layout — by the
//! key paths and types of their scalars. CI runs it, so a refactor that
//! renames, re-nests, re-rounds or moves a number does not pass as one.

use rvm_sync::{sim, CostModel, SimStats, MAX_CORES};

pub mod fastpath;
pub mod huge;
pub mod json;
pub mod layouts;
pub mod numa;
pub mod pressure;
pub mod refcount;
pub mod scale;
pub mod workloads;

// The VM systems under test live behind the backend layer; the harness
// re-exports it so bench code and downstream users construct every VM
// through one seam.
pub use rvm_backend::{build, BackendKind};

/// The verdict of one named acceptance gate: what it found wrong.
#[derive(Clone, Debug)]
pub struct Gate {
    /// What the gate guards, as its failure heading names it.
    pub name: &'static str,
    /// Human-readable failures; empty means the gate passed.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate that has found nothing wrong yet.
    pub fn new(name: &'static str) -> Gate {
        Gate {
            name,
            failures: Vec::new(),
        }
    }

    /// Records one failed condition.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// True when every condition held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one exit path of the `bench_*` binaries, after the record is
    /// printed: lists every failed gate on stderr and exits non-zero, so
    /// a CI smoke step fails loudly.
    pub fn enforce(gates: &[&Gate]) {
        let failed: Vec<_> = gates.iter().filter(|g| !g.passed()).collect();
        for gate in &failed {
            eprintln!("{gate}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
    }
}

/// The failure heading and one indented line per failure (what
/// [`Gate::enforce`] prints, and a test's panic message).
impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} GATE FAILED:", self.name)?;
        self.failures.iter().try_for_each(|x| write!(f, "\n  {x}"))
    }
}

/// One measured point of a scalability sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Virtual cores used.
    pub cores: usize,
    /// Work units completed (workload-defined).
    pub units: u64,
    /// Virtual nanoseconds elapsed (max core clock).
    pub virt_ns: u64,
    /// Simulator statistics.
    pub sim: SimStats,
}

impl SweepPoint {
    /// Units per virtual second.
    pub fn per_sec(&self) -> f64 {
        if self.virt_ns == 0 {
            0.0
        } else {
            self.units as f64 * 1e9 / self.virt_ns as f64
        }
    }
}

/// Runs a workload on `ncores` virtual cores until every core's clock
/// passes `duration_ns`. `make(core)` builds each core's operation
/// closure; the closure returns work units completed (0 is allowed but
/// must still advance the clock to guarantee progress).
pub fn run_sim(
    ncores: usize,
    duration_ns: u64,
    model: CostModel,
    make: impl FnMut(usize) -> Box<dyn FnMut() -> u64>,
) -> SweepPoint {
    run_sim_collect(ncores, duration_ns, model, make, || ()).0
}

/// [`run_sim`] plus a `collect` closure that runs after the workload
/// finishes but *before* the simulator context is torn down, so views
/// that need a live context — label attribution like
/// [`sim::cross_node_transfers_by_label`] — can be captured for the
/// point.
pub fn run_sim_collect<T>(
    ncores: usize,
    duration_ns: u64,
    model: CostModel,
    mut make: impl FnMut(usize) -> Box<dyn FnMut() -> u64>,
    collect: impl FnOnce() -> T,
) -> (SweepPoint, T) {
    let guard = sim::install(ncores, model);
    let mut ops: Vec<Box<dyn FnMut() -> u64>> = (0..ncores).map(&mut make).collect();
    let mut units = 0u64;
    loop {
        // Conservative lowest-clock-first interleaving.
        let core = sim::min_clock_core();
        if sim::clock(core) >= duration_ns {
            break; // every clock has passed the horizon
        }
        sim::switch(core);
        let before = sim::clock(core);
        units += ops[core]();
        if sim::clock(core) == before {
            // Guarantee progress even if the op charged nothing.
            sim::charge(50);
        }
    }
    drop(ops);
    let collected = collect();
    let stats = guard.finish();
    (
        SweepPoint {
            cores: ncores,
            units,
            virt_ns: stats.max_clock(),
            sim: stats,
        },
        collected,
    )
}

/// Parses an `RVM_CORES` value: comma-separated core counts, each in
/// `1..=MAX_CORES` once trimmed. The error names the first bad entry
/// (an empty value is one empty entry).
pub fn parse_cores(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(str::trim)
        .map(|x| match x.parse() {
            Ok(n) if (1..=MAX_CORES).contains(&n) => Ok(n),
            _ => Err(format!("core count {x:?} is not in 1..={MAX_CORES}")),
        })
        .collect()
}

/// A sweep's core counts: `RVM_CORES` when set (a malformed value
/// panics), else `quick_default` under `--quick`, else `full_default`.
pub fn sweep_cores(quick_default: &[usize], full_default: &[usize]) -> Vec<usize> {
    match std::env::var("RVM_CORES") {
        Ok(s) => parse_cores(&s).unwrap_or_else(|e| panic!("RVM_CORES={s:?}: {e}")),
        Err(_) if quick() => quick_default.to_vec(),
        Err(_) => full_default.to_vec(),
    }
}

/// The unsigned integer in environment variable `name`, `None` when
/// unset; a value that does not parse panics, naming it.
pub fn env_u64(name: &str) -> Option<u64> {
    let s = std::env::var(name).ok()?;
    let bad = |_| panic!("{name}={s:?} is not an unsigned integer");
    Some(s.parse().unwrap_or_else(bad))
}

/// Default core counts for sweeps (the paper's x-axis, whole chips of 10
/// cores at a time plus single core, §5.1).
pub fn core_counts() -> Vec<usize> {
    sweep_cores(&[1, 4, 16, 48, 80], &[1, 10, 20, 30, 40, 50, 60, 70, 80])
}

/// Virtual duration per measured point (base value at ≤10 cores).
pub fn duration_ns() -> u64 {
    env_u64("RVM_DUR_MS").unwrap_or(if quick() { 8 } else { 25 }) * 1_000_000
}

/// Scales the virtual duration down at high core counts so the real cost
/// of a point (ops × cores) stays roughly constant; throughput estimates
/// keep a few thousand operations per core either way, and the simulator
/// is deterministic, so shorter windows do not add noise.
pub fn point_duration(base_ns: u64, ncores: usize) -> u64 {
    base_ns * 10 / ncores.max(10) as u64
}

/// True when `--quick` trims the sweep for CI runs.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a CSV table: header then one row per core count, one column
/// per series.
pub fn print_table(title: &str, series: &[(&str, Vec<(usize, f64)>)]) {
    println!("# {title}");
    print!("cores");
    for (name, _) in series {
        print!(",{name}");
    }
    println!();
    let cores: Vec<usize> = series[0].1.iter().map(|(c, _)| *c).collect();
    for (i, c) in cores.iter().enumerate() {
        print!("{c}");
        for (_, points) in series {
            print!(",{:.0}", points[i].1);
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sim_terminates_and_counts() {
        let p = run_sim(4, 1_000_000, CostModel::default(), |_| {
            Box::new(|| {
                sim::charge(1_000);
                1
            })
        });
        assert!(p.units >= 4 * 990);
        assert!(p.virt_ns >= 1_000_000);
        // Perfect scaling: 4 cores do ~4x the work of one in equal time.
        let p1 = run_sim(1, 1_000_000, CostModel::default(), |_| {
            Box::new(|| {
                sim::charge(1_000);
                1
            })
        });
        let ratio = p.per_sec() / p1.per_sec();
        assert!(ratio > 3.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn zero_charge_ops_still_terminate() {
        let p = run_sim(2, 100_000, CostModel::default(), |_| Box::new(|| 0));
        assert_eq!(p.units, 0);
        assert!(p.virt_ns >= 100_000);
    }

    #[test]
    fn parse_cores_accepts_lists_and_names_bad_entries() {
        assert_eq!(parse_cores("1,4,16"), Ok(vec![1, 4, 16]));
        assert_eq!(parse_cores(" 2 , 8 "), Ok(vec![2, 8]));
        // (value, the entry its error must name)
        for (bad, token) in [
            ("", ""),
            ("1;4", "1;4"),
            ("0", "0"),
            ("1,x", "x"),
            ("129", "129"),
        ] {
            let err = parse_cores(bad).unwrap_err();
            assert!(err.contains(&format!("{token:?}")), "{bad:?}: {err}");
        }
    }
}
