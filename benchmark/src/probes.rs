//! Layer probes: single-thread loops that time one layer's public
//! functions (the bodies are in `layers.rs`). Fixed call counts; the
//! reported figure is nanoseconds per call (or call pair), the median of
//! [`BATCHES`] batches.

use std::time::Instant;

use crate::harness::median;
use crate::layers::{self, Probe};

const BATCHES: usize = 11;

/// Times `calls` calls of `f` per batch; returns median ns per call.
fn time(calls: u64, mut f: Probe) -> f64 {
    for _ in 0..calls {
        f(); // warm
    }
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Like [`time`], but runs the untimed `before` ahead of every timed call.
fn time_after(calls: u64, (mut before, mut f): (Probe, Probe)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut ns = 0u128;
            for _ in 0..calls {
                before();
                let t0 = Instant::now();
                f();
                ns += t0.elapsed().as_nanos();
            }
            ns as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Runs every probe; `(metric name, ns per call)`. The first column of
/// the table in README.md lists each probe's home workload.
pub fn run_all() -> Vec<(&'static str, f64)> {
    vec![
        // disjoint
        (
            "radix.map_unmap_1p_ns",
            time(20_000, layers::radix_map_unmap(1)),
        ),
        (
            "refcache.inc_dec_ns",
            time(200_000, layers::refcache_inc_dec()),
        ),
        (
            "refcache.maintain_ns",
            time_after(200, layers::refcache_maintain()),
        ),
        ("mem.alloc_free_ns", time(200_000, layers::mem_alloc_free())),
        ("mem.fill_page_ns", time(50_000, layers::mem_fill_page())),
        (
            "hw.pagetable.set_clear_ns",
            time(200_000, layers::pagetable_set_clear()),
        ),
        // refault
        (
            "radix.lock_single_hit_ns",
            time(100_000, layers::radix_lock_single(true)),
        ),
        (
            "radix.lock_single_miss_ns",
            time(100_000, layers::radix_lock_single(false)),
        ),
        (
            "hw.pagetable.get_ns",
            time(200_000, layers::pagetable_get()),
        ),
        (
            "hw.tlb.invalidate_ns",
            time(200_000, layers::tlb_invalidate()),
        ),
        // shared_remap
        (
            "sync.rangelock.acquire_release_ns",
            time(100_000, layers::rangelock_acquire_release()),
        ),
        (
            "radix.map_unmap_16p_ns",
            time(5_000, layers::radix_map_unmap(16)),
        ),
        (
            "hw.machine.shootdown_ns",
            time(50_000, layers::machine_shootdown()),
        ),
        // superpage
        (
            "mem.alloc_block_free_ns",
            time(100, layers::mem_alloc_block_free()),
        ),
        (
            "hw.pagetable.set_block_shatter_ns",
            time(5_000, layers::pagetable_set_block_shatter()),
        ),
        (
            "radix.map_unmap_512p_fold_ns",
            time(5_000, layers::radix_map_unmap(layers::BLOCK_PAGES)),
        ),
        // metis
        ("hw.tlb.hit_ns", time(500_000, layers::tlb_hit())),
    ]
}
