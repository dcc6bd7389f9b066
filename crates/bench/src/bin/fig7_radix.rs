//! Figure 7: radix-tree lookup throughput as writers are added.
//!
//! The counterpart of Figure 6 on RadixVM's radix tree: readers look up
//! random present keys while writer cores insert-then-delete random
//! absent keys. Expected shape (paper §5.5): lookup throughput is
//! *unaffected* by writers — initialized interior nodes are never written
//! by operations on unrelated keys — and insert/delete throughput is
//! independent of the number of readers. The paper uses 0/10/40 writers.
//!
//! Usage: `fig7_radix [--quick]`; env `RVM_CORES`, `RVM_DUR_MS`.

use std::sync::Arc;

use rvm_bench::{core_counts, duration_ns, point_duration, print_table, run_sim};
use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::Refcache;
use rvm_sync::{sim, CostModel};

const REGIONS: u64 = 1_000;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Present keys: spread across the VPN space with page-granular spacing
/// (even slots of a 2-page stride within one 2^30-page window).
fn present_key(i: u64) -> u64 {
    i * 2
}

/// One measured point: lookup throughput plus the fast-path counters
/// (leaf-hint hits/misses and guard spills) for the whole run.
struct Point {
    tput: f64,
    hint_hits: u64,
    hint_misses: u64,
    guard_spills: u64,
}

impl Point {
    fn hit_pct(&self) -> f64 {
        rvm_bench::fastpath::hit_rate(self.hint_hits, self.hint_misses) * 100.0
    }
}

fn run(readers: usize, writers: usize, dur: u64) -> Point {
    let total = readers + writers;
    let cache = Arc::new(Refcache::new(total.max(1)));
    let tree = Arc::new(RadixTree::<u64>::new(cache, RadixConfig::default()));
    for i in 0..REGIONS {
        let k = present_key(i);
        tree.lock_range(0, k, k + 1, LockMode::ExpandAll)
            .replace(&i);
    }
    let point = run_sim(
        total,
        point_duration(dur, total),
        CostModel::default(),
        |c| {
            let tree = tree.clone();
            let mut rng = splitmix(c as u64 + 1);
            let mut ops = 0u64;
            if c < readers {
                Box::new(move || {
                    rng = splitmix(rng);
                    let key = present_key(rng % REGIONS);
                    sim::charge(60);
                    ops += 1;
                    if ops.is_multiple_of(256) {
                        tree.maintain(c);
                    }
                    assert!(tree.lookup_present(c, key));
                    1
                })
            } else {
                let mut holding: Option<u64> = None;
                Box::new(move || {
                    sim::charge(60);
                    ops += 1;
                    if ops.is_multiple_of(256) {
                        tree.maintain(c);
                    }
                    match holding.take() {
                        Some(k) => {
                            tree.lock_range(c, k, k + 1, LockMode::ExpandFolded).clear();
                        }
                        None => {
                            // Random key with no locality: nearly every insert
                            // expands a fresh leaf (paper §5.5).
                            rng = splitmix(rng);
                            let k = (1 << 30) + (rng % (1 << 24)) * 2 + 1;
                            tree.lock_range(c, k, k + 1, LockMode::ExpandAll)
                                .replace(&k);
                            holding = Some(k);
                        }
                    }
                    0
                })
            }
        },
    );
    Point {
        tput: point.units as f64 * 1e9 / point.virt_ns as f64,
        hint_hits: tree.stats().hint_hits(),
        hint_misses: tree.stats().hint_misses(),
        guard_spills: tree.stats().guard_spills(),
    }
}

fn main() {
    let dur = duration_ns();
    let reader_counts = core_counts();
    let mut tput_series: Vec<(&str, Vec<(usize, f64)>)> = Vec::new();
    let mut hint_series: Vec<(&str, Vec<(usize, f64)>)> = Vec::new();
    for &(name, w) in &[("0 writers", 0), ("10 writers", 10), ("40 writers", 40)] {
        let mut tputs = Vec::new();
        let mut hints = Vec::new();
        for &r in &reader_counts {
            let p = run(r, w, dur);
            eprintln!(
                "  radix {name:>10} {r:>3} readers: {:>14.0} lookups/s  \
                 (hint hits {}, misses {}, spills {})",
                p.tput, p.hint_hits, p.hint_misses, p.guard_spills
            );
            tputs.push((r, p.tput));
            hints.push((r, p.hit_pct()));
        }
        tput_series.push((name, tputs));
        hint_series.push((name, hints));
    }
    print_table(
        "Figure 7: radix-tree lookups/sec vs reader cores",
        &tput_series,
    );
    print_table(
        "Figure 7b: leaf-hint hit rate (%) vs reader cores",
        &hint_series,
    );
}
