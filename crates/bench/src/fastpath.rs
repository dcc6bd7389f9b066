//! Fault-fast-path measurements: the virtual-time cost of repeated
//! same-block single-page faults through the radix tree, with and
//! without the per-core leaf hint cache, plus hint hit-rate accounting.
//!
//! `scripts/bench_record.sh` serializes these numbers into
//! `BENCH_fastpath.json` so successive PRs have a perf trajectory, and a
//! unit test below holds the fast path to its acceptance bar (≥ 25 %
//! fewer virtual cycles per repeated same-block fault than the plain
//! descent).

use std::sync::Arc;

use rvm_radix::{LockMode, RadixConfig, RadixTree};
use rvm_refcache::Refcache;
use rvm_sync::{sim, CostModel};

/// One measured configuration of the single-page fault loop.
#[derive(Clone, Debug)]
pub struct FastpathPoint {
    /// Virtual nanoseconds per repeated same-block single-page fault
    /// (tree component: lock, mutate metadata, unlock).
    pub virt_ns_per_fault: f64,
    /// Leaf-hint hits during the measured loop.
    pub hint_hits: u64,
    /// Leaf-hint misses during the measured loop.
    pub hint_misses: u64,
    /// Heap allocations charged by the simulator during the measured
    /// loop (InlineVec spills, node/object allocation).
    pub heap_allocs: u64,
}

impl FastpathPoint {
    /// Hint hit rate in [0, 1]; 0 when hints were disabled.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hint_hits, self.hint_misses)
    }
}

/// Hit rate of a hit/miss counter pair in [0, 1]; 0 when both are zero.
/// The one definition every fast-path report uses (`fig7_radix`,
/// `bench_fastpath`, this module), so counting or rounding changes
/// cannot skew one report against another.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Runs `iters` single-page fault-pattern operations (lock the page,
/// mutate its metadata, unlock) against pages of one 512-page block on
/// one simulated core, and reports the steady-state virtual-time cost.
///
/// The loop mimics `RadixVm::pagefault`'s tree work exactly: a
/// `LockMode::ExpandFolded` single-page range lock plus a
/// `page_value_mut` mutation. Warm-up faults (which expand the folded
/// block into a leaf) are excluded from the measurement.
pub fn tree_fault_point(leaf_hints: bool, iters: u64) -> FastpathPoint {
    let guard = sim::install(1, CostModel::default());
    let cache = Arc::new(Refcache::new(1));
    let tree = RadixTree::<u64>::new(
        cache,
        RadixConfig {
            collapse: true,
            leaf_hints,
            ..RadixConfig::default()
        },
    );
    let base = 512 * 11;
    sim::switch(0);
    // Map the block (folds into one interior slot), then warm the path:
    // the first fault expands the folded block to a leaf; a few more
    // bring every touched line into the core's cache.
    tree.lock_range(0, base, base + 512, LockMode::ExpandAll)
        .replace(&1);
    for i in 0..16u64 {
        let mut g = tree.lock_range(
            0,
            base + (i % 8),
            base + (i % 8) + 1,
            LockMode::ExpandFolded,
        );
        *g.page_value_mut().expect("mapped") += 1;
    }
    let before = tree.stats().snapshot();
    let allocs0 = sim::stats().cores[0].heap_allocs;
    let t0 = sim::clock(0);
    for i in 0..iters {
        let vpn = base + (i % 8);
        let mut g = tree.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded);
        *g.page_value_mut().expect("mapped") += 1;
    }
    let t1 = sim::clock(0);
    let stats = guard.finish();
    let looked_up = tree.stats().snapshot().since(&before);
    let point = FastpathPoint {
        virt_ns_per_fault: (t1 - t0) as f64 / iters as f64,
        hint_hits: looked_up.hint_hits,
        hint_misses: looked_up.hint_misses,
        heap_allocs: stats.cores[0].heap_allocs - allocs0,
    };
    drop(tree);
    point
}

/// Relative improvement of the hinted fast path over the plain descent:
/// `(off - on) / off`, e.g. `0.4` = 40 % fewer virtual cycles.
pub fn fastpath_improvement(iters: u64) -> f64 {
    let off = tree_fault_point(false, iters);
    let on = tree_fault_point(true, iters);
    (off.virt_ns_per_fault - on.virt_ns_per_fault) / off.virt_ns_per_fault
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_block_faults_meet_the_25_percent_bar() {
        // Acceptance bar: the leaf-hint fast path costs at least
        // 25 % fewer virtual cycles per repeated same-block fault than
        // the full descent. The simulator is deterministic, so this is a
        // stable regression gate, not a flaky perf test.
        let improvement = fastpath_improvement(10_000);
        assert!(
            improvement >= 0.25,
            "fast path improved by only {:.1}% (need ≥ 25%)",
            improvement * 100.0
        );
    }

    #[test]
    fn steady_state_hint_hit_rate_is_high_and_allocation_free() {
        let p = tree_fault_point(true, 10_000);
        assert!(p.hit_rate() > 0.99, "hit rate {:.3}", p.hit_rate());
        assert_eq!(
            p.heap_allocs, 0,
            "steady-state single-page faults must not charge allocations"
        );
        let off = tree_fault_point(false, 10_000);
        assert_eq!(off.hint_hits, 0, "hints disabled must never hit");
        assert_eq!(
            off.heap_allocs, 0,
            "the plain descent is also allocation-free after warm-up"
        );
    }
}
