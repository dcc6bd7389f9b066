//! The RadixVM radix tree (paper §3.2, §3.4).
//!
//! A fixed-depth radix tree over 36-bit virtual page numbers (9 bits per
//! level, mirroring the hardware page-table structure) storing one value
//! per page at the leaves, with:
//!
//! * **Per-slot lock bits** enabling precise left-to-right range locking,
//!   so operations on non-overlapping ranges never contend — the heart of
//!   RadixVM's concurrency plan.
//! * **Folding**: a value covering a whole aligned 512^k-page block whose
//!   child has not been allocated is stored once in the interior slot,
//!   making vast mappings cheap and the unused address space free.
//! * **Expansion**: a partial operation on a folded/empty slot allocates
//!   the child with lock bits propagated to every entry and publishes it
//!   with the store that unlocks the parent slot.
//! * **Refcache-managed node lifetime**: a node's reference count is its
//!   used-slot count plus in-flight traversal pins; empty nodes collapse
//!   after two Refcache epochs, and weak references in the parent slots
//!   let concurrent operations revive a dying node (the collapse feature
//!   the paper's prototype omitted — configurable here).
//!
//! The tree is generic over the per-page value `V`; RadixVM instantiates
//! it with mapping metadata (backing, protection, physical page, TLB core
//! set), and Figure 7's microbenchmark instantiates it with a plain
//! integer.

pub mod node;
pub mod tree;

pub use node::{TreeCounts, TreeStats, FANOUT, LEVELS};
pub use tree::{
    LockMode, RadixConfig, RadixTree, RadixValue, RangeGuard, Removed, RemovedList, Vpn, VPN_LIMIT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_refcache::Refcache;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A core's hint cell ([`rvm_sync::PerCore`]) is three lines: the
    /// tags a lookup scans, the ways, the victim.
    #[test]
    fn hint_set_size_is_pinned() {
        assert_eq!(std::mem::size_of::<tree::HintSet<u64>>(), 136);
    }

    fn tree(ncores: usize) -> RadixTree<u64> {
        RadixTree::new(Arc::new(Refcache::new(ncores)), RadixConfig::default())
    }

    #[test]
    fn empty_tree_lookup() {
        let t = tree(1);
        assert_eq!(t.get(0, 0), None);
        assert_eq!(t.get(0, VPN_LIMIT - 1), None);
    }

    #[test]
    fn single_page_set_get_clear() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 1000, 1001, LockMode::ExpandAll);
            let displaced = g.replace(&42);
            assert!(displaced.is_empty());
        }
        assert_eq!(t.get(0, 1000), Some(42));
        assert_eq!(t.get(0, 1001), None);
        assert_eq!(t.get(0, 999), None);
        {
            let mut g = t.lock_range(0, 1000, 1001, LockMode::ExpandFolded);
            let removed = g.clear();
            assert_eq!(
                removed.as_slice(),
                [Removed {
                    start: 1000,
                    pages: 1,
                    value: 42
                }]
            );
        }
        assert_eq!(t.get(0, 1000), None);
    }

    #[test]
    fn range_set_and_iterate() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 100, 164, LockMode::ExpandAll);
            g.replace(&7);
        }
        for vpn in 100..164 {
            assert_eq!(t.get(0, vpn), Some(7), "vpn {vpn}");
        }
        assert_eq!(t.get(0, 164), None);
        let all = t.collect_range(0, 90, 170);
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn aligned_block_folds() {
        let t = tree(1);
        // A whole 512-page aligned block must fold into one interior slot:
        // no leaf node is allocated.
        let start = 512 * 7;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&9);
        }
        let st = t.stats();
        assert_eq!(
            st.leaf_nodes(),
            0,
            "folded mapping must not allocate leaves"
        );
        assert_eq!(st.folded_values(), 1);
        assert_eq!(t.get(0, start), Some(9));
        assert_eq!(t.get(0, start + 511), Some(9));
        assert_eq!(t.get(0, start + 512), None);
    }

    #[test]
    fn huge_mapping_folds_high() {
        let t = tree(1);
        // 512 * 512 pages aligned: folds at level 1 (one slot).
        let span = 512 * 512;
        {
            let mut g = t.lock_range(0, 0, span, LockMode::ExpandAll);
            g.replace(&1);
        }
        let st = t.stats();
        assert_eq!(
            st.folded_values(),
            1,
            "giant aligned mapping folds into a single slot"
        );
        assert_eq!(t.get(0, span - 1), Some(1));
    }

    #[test]
    fn expand_to_block_preserves_bottom_fold() {
        let t = tree(1);
        let start = 512 * 11;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&8);
        }
        // A single-page lock in ExpandToBlock mode must lock the folded
        // slot whole instead of expanding it.
        {
            let mut g = t.lock_range(0, start + 37, start + 38, LockMode::ExpandToBlock);
            let (lo, pages, v, _) = g.block_entry_mut().expect("fold preserved");
            assert_eq!((lo, pages), (start, 512));
            assert_eq!(*v, 8);
            *v = 9; // fault-time state lands in the single block value
        }
        assert_eq!(t.stats().leaf_nodes(), 0, "no expansion happened");
        assert_eq!(t.get(0, start + 500), Some(9), "all pages see the edit");
        // Once leaves exist, the same mode resolves to the leaf slot.
        {
            let mut g = t.lock_range(0, start + 1, start + 2, LockMode::ExpandFolded);
            g.clear();
        }
        {
            let mut g = t.lock_range(0, start + 37, start + 38, LockMode::ExpandToBlock);
            assert!(g.block_entry_mut().is_none());
            assert_eq!(g.page_value_mut(), Some(&mut 9));
        }
    }

    #[test]
    fn expand_to_block_locks_high_folds_whole() {
        let t = tree(1);
        // Folds at level 1 (512 * 512 pages): ExpandToBlock locks the
        // giant fold whole — the 1 GiB superpage fault path — instead of
        // expanding it.
        let span = 512 * 512;
        {
            let mut g = t.lock_range(0, 0, span, LockMode::ExpandAll);
            g.replace(&3);
        }
        let expansions = t.stats().expansions();
        {
            let mut g = t.lock_range(0, 700, 701, LockMode::ExpandToBlock);
            let (lo, pages, v, _) = g.block_entry_mut().expect("giant fold");
            assert_eq!((lo, pages), (0, span));
            assert_eq!(*v, 3);
        }
        assert_eq!(t.stats().leaf_nodes(), 0);
        assert_eq!(t.stats().expansions(), expansions, "fold left intact");
        // Once the giant is demoted one rung (a partial op cascades it
        // into 512 block folds), the same mode stops at the block fold.
        {
            let mut g = t.lock_range(0, 0, 1, LockMode::ExpandFolded);
            g.clear();
        }
        {
            let mut g = t.lock_range(0, 700, 701, LockMode::ExpandToBlock);
            let (lo, pages, v, _) = g.block_entry_mut().expect("bottom fold");
            assert_eq!((lo, pages), (512, 512));
            assert_eq!(*v, 3);
        }
        // An empty region locks as an empty block: no entry.
        let mut g = t.lock_range(0, span + 5, span + 6, LockMode::ExpandToBlock);
        assert!(g.block_entry_mut().is_none());
        assert!(g.page_value_mut().is_none());
    }

    #[test]
    fn refold_collapses_expanded_leaf() {
        let t = tree(1);
        let start = 512 * 13;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&6);
        }
        // Demote: a partial op expands the fold to a leaf.
        {
            let mut g = t.lock_range(0, start + 3, start + 4, LockMode::ExpandFolded);
            assert_eq!(g.page_value_mut(), Some(&mut 6));
        }
        assert_eq!(t.stats().leaf_nodes(), 1);
        // Promote: refold the fully populated leaf into one folded slot.
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            let vals = g.refold(6).expect("refolds");
            assert_eq!(vals.len(), 512);
            assert!(vals.iter().all(|v| *v == 6));
        }
        t.quiesce();
        assert_eq!(t.stats().leaf_nodes(), 0, "severed leaf collapsed");
        assert_eq!(t.stats().folded_values(), 1);
        for vpn in [start, start + 3, start + 511] {
            assert_eq!(t.get(0, vpn), Some(6), "vpn {vpn}");
        }
        assert_eq!(t.get(0, start + 512), None);
        // A partially populated leaf refuses to refold.
        {
            let mut g = t.lock_range(0, start + 9, start + 10, LockMode::ExpandFolded);
            g.clear();
        }
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            assert!(g.refold(6).is_none(), "hole must veto the refold");
        }
        assert_eq!(t.get(0, start + 8), Some(6));
        assert_eq!(t.get(0, start + 9), None);
    }

    /// A promotion clears the old pages' PTEs after the refold. Once the
    /// refold released the fold's slot, another core's fault could lock
    /// the new fold and install a superpage PTE in a page table the
    /// promoter was still clearing, freeing the table level it walked
    /// (an ASan heap-use-after-free in `PageTable::clear_level`). The
    /// fold now stays locked until the promoting guard drops.
    #[test]
    fn a_refolded_block_stays_locked_until_its_guard_drops() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let t = tree(2);
        let start = 512 * 21;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&6);
        }
        drop(t.lock_range(0, start + 3, start + 4, LockMode::ExpandFolded));
        let locked = AtomicBool::new(false);
        std::thread::scope(|s| {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            g.refold(6).expect("refolds");
            s.spawn(|| {
                let mut fault = t.lock_range(1, start + 7, start + 8, LockMode::ExpandToBlock);
                assert_eq!(fault.block_entry_mut().map(|(_, _, v, _)| *v), Some(6));
                locked.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !locked.load(Ordering::SeqCst),
                "the fold was lockable mid-promotion"
            );
            drop(g);
        });
        assert!(locked.into_inner());
    }

    #[test]
    fn refold_under_no_collapse_frees_the_severed_leaf() {
        let t = RadixTree::new(
            Arc::new(Refcache::new(1)),
            RadixConfig {
                collapse: false,
                ..Default::default()
            },
        );
        let start = 512 * 17;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&4);
        }
        {
            let mut g = t.lock_range(0, start + 1, start + 2, LockMode::ExpandFolded);
            assert_eq!(g.page_value_mut(), Some(&mut 4));
        }
        let live = t.cache().live_objects();
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            assert!(g.refold(4).is_some());
        }
        t.quiesce();
        // The severed leaf is unreachable from the tree, so even the
        // no-collapse configuration must free it (its permanent
        // reference is surrendered by the refold).
        assert_eq!(t.cache().live_objects(), live - 1, "severed leaf leaked");
        assert_eq!(t.get(0, start + 200), Some(4));
    }

    #[test]
    fn expanded_values_visible_before_guard_drop() {
        // At either fold granularity: a one-page lock expands the fold
        // down to a leaf, one rung per level, and every clone it made on
        // the way — 512 pages in the leaf, 511 still-folded siblings in
        // each interior node above it — is editable under the guard.
        for span in [512u64, 512 * 512] {
            let t = tree(1);
            let start = span * 21;
            {
                let mut g = t.lock_range(0, start, start + span, LockMode::ExpandAll);
                g.replace(&4);
            }
            {
                let mut g = t.lock_range(0, start + 5, start + 6, LockMode::ExpandFolded);
                let mut seen = std::collections::BTreeMap::new();
                let (mut lo, mut hi) = (u64::MAX, 0);
                g.for_each_expanded_mut(|vpn, pages, v| {
                    assert_eq!(*v, 4);
                    assert_eq!(vpn % pages, 0);
                    *v += 1;
                    *seen.entry(pages).or_insert(0u64) += 1;
                    lo = lo.min(vpn);
                    hi = hi.max(vpn + pages);
                });
                assert_eq!(seen.remove(&1), Some(512), "every page clone is visited");
                let mut rung = 512;
                while rung < span {
                    assert_eq!(seen.remove(&rung), Some(511), "folded siblings at {rung}");
                    rung *= 512;
                }
                assert!(seen.is_empty());
                assert_eq!((lo, hi), (start, start + span), "in and out of range");
                g.clear();
            }
            assert_eq!(t.get(0, start + 4), Some(5));
            assert_eq!(t.get(0, start + 5), None);
            assert_eq!(t.get(0, start + span - 1), Some(5));
            // A lock that expanded nothing visits nothing.
            let mut g = t.lock_range(0, start + 7, start + 8, LockMode::ExpandFolded);
            let mut seen = 0;
            g.for_each_expanded_mut(|_, _, _| seen += 1);
            assert_eq!(seen, 0);
        }
    }

    #[test]
    fn partial_op_on_folded_expands() {
        let t = tree(1);
        let start = 512 * 3;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&5);
        }
        // Unmap one page in the middle: forces expansion to a leaf.
        {
            let mut g = t.lock_range(0, start + 10, start + 11, LockMode::ExpandFolded);
            let removed = g.clear();
            assert_eq!(
                removed.as_slice(),
                [Removed {
                    start: start + 10,
                    pages: 1,
                    value: 5
                }]
            );
        }
        assert_eq!(t.get(0, start + 9), Some(5));
        assert_eq!(t.get(0, start + 10), None);
        assert_eq!(t.get(0, start + 11), Some(5));
        let st = t.stats();
        assert_eq!(st.leaf_nodes(), 1);
        assert!(st.expansions() >= 1);
    }

    #[test]
    fn clear_folded_block_wholesale() {
        let t = tree(1);
        let start = 512 * 4;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&3);
        }
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            let removed = g.clear();
            assert_eq!(
                removed.as_slice(),
                [Removed {
                    start,
                    pages: 512,
                    value: 3
                }]
            );
        }
        assert_eq!(t.get(0, start), None);
    }

    #[test]
    fn replace_overwrites_existing() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 10, 20, LockMode::ExpandAll);
            g.replace(&1);
        }
        {
            let mut g = t.lock_range(0, 15, 25, LockMode::ExpandAll);
            let displaced = g.replace(&2);
            assert_eq!(displaced.len(), 5, "pages 15..20 displaced");
        }
        assert_eq!(t.get(0, 14), Some(1));
        assert_eq!(t.get(0, 15), Some(2));
        assert_eq!(t.get(0, 24), Some(2));
    }

    #[test]
    fn for_each_entry_mut_updates() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 0, 8, LockMode::ExpandAll);
            g.replace(&10);
        }
        {
            let mut g = t.lock_range(0, 0, 4, LockMode::ExpandFolded);
            g.for_each_entry_mut(|_, _, v| *v += 1);
        }
        assert_eq!(t.get(0, 0), Some(11));
        assert_eq!(t.get(0, 3), Some(11));
        assert_eq!(t.get(0, 4), Some(10));
    }

    #[test]
    fn for_each_entry_mut_on_folded_block() {
        let t = tree(1);
        let start = 512 * 9;
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandAll);
            g.replace(&100);
        }
        {
            let mut g = t.lock_range(0, start, start + 512, LockMode::ExpandFolded);
            g.for_each_entry_mut(|_, _, v| *v = 200);
        }
        assert_eq!(t.get(0, start + 100), Some(200));
    }

    #[test]
    fn page_value_mut_fault_path() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 512, 1024, LockMode::ExpandAll);
            g.replace(&50);
        }
        // Single-page fault-style access forces expansion of the folded
        // block and grants mutable access.
        {
            let mut g = t.lock_range(0, 700, 701, LockMode::ExpandFolded);
            let v = g.page_value_mut().expect("mapped");
            *v = 51;
        }
        assert_eq!(t.get(0, 700), Some(51));
        assert_eq!(t.get(0, 701), Some(50));
        // Unmapped page: no value, and no expansion of empty space.
        {
            let mut g = t.lock_range(0, 9000, 9001, LockMode::ExpandFolded);
            assert!(g.page_value_mut().is_none());
        }
        assert_eq!(t.get(0, 9000), None);
    }

    #[test]
    fn nodes_collapse_after_clear() {
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 100, 110, LockMode::ExpandAll);
            g.replace(&1);
        }
        let live_before = t.cache().live_objects();
        assert!(live_before > 1, "expansion allocated nodes");
        {
            let mut g = t.lock_range(0, 100, 110, LockMode::ExpandFolded);
            g.clear();
        }
        t.quiesce();
        // Only the root should remain.
        assert_eq!(t.cache().live_objects(), 1, "empty nodes collapsed");
        assert!(t.stats().nodes_collapsed() >= 3);
        // The tree still works after collapse.
        {
            let mut g = t.lock_range(0, 100, 110, LockMode::ExpandAll);
            g.replace(&2);
        }
        assert_eq!(t.get(0, 105), Some(2));
    }

    #[test]
    fn no_collapse_when_disabled() {
        let t = RadixTree::new(
            Arc::new(Refcache::new(1)),
            RadixConfig {
                collapse: false,
                ..Default::default()
            },
        );
        {
            let mut g = t.lock_range(0, 100, 110, LockMode::ExpandAll);
            g.replace(&1);
        }
        let live = t.cache().live_objects();
        {
            let mut g = t.lock_range(0, 100, 110, LockMode::ExpandFolded);
            g.clear();
        }
        t.quiesce();
        assert_eq!(t.cache().live_objects(), live, "no nodes freed");
    }

    #[test]
    fn revival_of_emptying_node() {
        // Empty a leaf, then reuse it before Refcache collapses it: the
        // weak reference revives the node.
        let t = tree(1);
        {
            let mut g = t.lock_range(0, 100, 101, LockMode::ExpandAll);
            g.replace(&1);
        }
        {
            let mut g = t.lock_range(0, 100, 101, LockMode::ExpandFolded);
            g.clear();
        }
        // One flush marks the leaf dying (count reached zero)...
        t.maintain(0);
        // ...but a new mmap revives it instead of re-allocating.
        let nodes_before = t.stats().leaf_nodes();
        {
            let mut g = t.lock_range(0, 101, 102, LockMode::ExpandAll);
            g.replace(&2);
        }
        let nodes_after = t.stats().leaf_nodes();
        assert_eq!(nodes_before, nodes_after, "node revived, not reallocated");
        t.quiesce();
        assert_eq!(t.get(0, 101), Some(2));
    }

    #[test]
    fn space_accounting_tracks_structure() {
        let t = tree(1);
        let empty = t.space_bytes();
        {
            let mut g = t.lock_range(0, 0, 64, LockMode::ExpandAll);
            g.replace(&1);
        }
        assert!(t.space_bytes() > empty);
    }

    #[test]
    fn disjoint_ranges_lock_disjoint_slots() {
        // Two guards on disjoint ranges can be held simultaneously, by
        // two threads acting for two cores — the non-overlap concurrency
        // contract.
        let t = tree(2);
        {
            let mut g1 = t.lock_range(0, 0, 512 * 513, LockMode::ExpandAll);
            std::thread::scope(|s| {
                s.spawn(|| {
                    // Range 2 is in a different level-0 subtree.
                    let far = 1 << 30;
                    let mut g2 = t.lock_range(1, far, far + 10, LockMode::ExpandAll);
                    g2.replace(&2);
                });
            });
            g1.replace(&1);
        }
        assert_eq!(t.get(0, 512), Some(1));
        assert_eq!(t.get(0, (1 << 30) + 5), Some(2));
    }

    #[test]
    fn overlapping_ops_serialize_real_threads() {
        // Hammer the same small range from 4 threads; locking must keep
        // every page's value consistent (all-or-nothing per op) and the
        // tree must survive.
        let t = Arc::new(tree(4));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let val = core as u64 * 10_000 + i;
                    {
                        let mut g = t.lock_range(core, 50, 60, LockMode::ExpandAll);
                        g.replace(&val);
                    }
                    {
                        let mut g = t.lock_range(core, 50, 60, LockMode::ExpandFolded);
                        let mut seen = None;
                        g.for_each_entry_mut(|_, _, v| {
                            if let Some(s) = seen {
                                assert_eq!(s, *v, "torn range write observed");
                            }
                            seen = Some(*v);
                        });
                    }
                    if i % 100 == 0 {
                        t.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn disjoint_churn_real_threads() {
        // Each thread owns a disjoint region; constant map/unmap churn
        // must never interfere across threads and must collapse cleanly.
        let t = Arc::new(tree(4));
        let mut handles = Vec::new();
        for core in 0..4usize {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                let base = 1_000_000 * core as u64;
                for i in 0..400u64 {
                    {
                        let mut g = t.lock_range(core, base, base + 16, LockMode::ExpandAll);
                        g.replace(&(core as u64));
                    }
                    assert_eq!(t.get(core, base + 7), Some(core as u64));
                    {
                        let mut g = t.lock_range(core, base, base + 16, LockMode::ExpandFolded);
                        let removed = g.clear();
                        assert_eq!(removed.len(), 16);
                    }
                    if i % 64 == 0 {
                        t.maintain(core);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = Arc::try_unwrap(t).ok().expect("sole owner");
        t.quiesce();
        assert_eq!(t.cache().live_objects(), 1, "everything collapsed");
    }

    #[test]
    fn teardown_frees_everything() {
        let cache = Arc::new(Refcache::new(1));
        {
            let t = RadixTree::new(cache.clone(), RadixConfig::default());
            let mut g = t.lock_range(0, 0, 2000, LockMode::ExpandAll);
            g.replace(&1);
            drop(g);
            // Leave values mapped; Drop must reclaim regardless.
        }
        // The nodes collapse as Refcache reviews them.
        cache.quiesce();
        assert_eq!(cache.live_objects(), 0, "tree teardown leaked nodes");
    }

    #[test]
    fn a_collapsed_leaf_array_stays_with_the_core_that_reviewed_it() {
        use crate::node::SPARE_LEAVES;
        let cache = Arc::new(Refcache::new(2));
        let t = RadixTree::<u64>::new(cache.clone(), RadixConfig::default());
        // One page in the `i`th of a run of blocks: each is a leaf of its own.
        let page = |i: u64| 512 * (100 + i) + 7;
        let map = |core: usize, i: u64| {
            let vpn = page(i);
            t.lock_range(core, vpn, vpn + 1, LockMode::ExpandAll)
                .replace(&i);
        };
        let unmap = |core: usize, i: u64| {
            let vpn = page(i);
            t.lock_range(core, vpn, vpn + 1, LockMode::ExpandFolded)
                .clear();
        };
        // Every delta of a core's leaf is cached on that core, so its
        // zero is queued, and the leaf reviewed, there.
        let settle = || {
            for _ in 0..8 {
                t.maintain(0);
                t.maintain(1);
            }
            for core in 0..2 {
                assert!(t.spare_arrays(core).len() <= SPARE_LEAVES, "core {core}");
            }
        };
        map(0, 0);
        let first = t.leaf_array(page(0)).expect("a leaf");
        unmap(0, 0);
        settle();
        assert_eq!(t.leaf_array(page(0)), None, "collapsed");
        assert_eq!(t.spare_arrays(0), [first]);
        assert!(t.spare_arrays(1).is_empty());
        // Core 1's next leaf does not take core 0's array; core 0's does,
        // rebuilt slot by slot.
        map(1, 1);
        assert_ne!(t.leaf_array(page(1)), Some(first));
        assert_eq!(t.spare_arrays(0), [first]);
        map(0, 2);
        assert_eq!(t.leaf_array(page(2)), Some(first));
        assert!(t.spare_arrays(0).is_empty());
        let lo = page(2) & !511;
        assert_eq!(t.collect_range(0, lo, lo + 512), [(page(2), 2)]);
        // Twice the bound collapses on each core: each keeps SPARE_LEAVES.
        let many = 3..3 + 2 * SPARE_LEAVES as u64;
        for core in 0..2 {
            many.clone().for_each(|i| map(core, i + 100 * core as u64));
            many.clone()
                .for_each(|i| unmap(core, i + 100 * core as u64));
        }
        settle();
        for core in 0..2 {
            assert_eq!(t.spare_arrays(core).len(), SPARE_LEAVES, "core {core}");
        }
        // Dropping the tree with both lists full frees them and leaks
        // nothing (the mapped leaves included) once its nodes collapse.
        let shared = t.shared_weak();
        drop(t);
        cache.quiesce();
        assert!(shared.upgrade().is_none(), "spare lists outlived the tree");
        assert_eq!(cache.live_objects(), 0);
    }

    /// A tree value that counts its copies (`[0]`, the first included)
    /// and its drops (`[1]`).
    struct Tally(Arc<[AtomicU64; 2]>);

    impl Clone for Tally {
        fn clone(&self) -> Self {
            self.0[0].fetch_add(1, Ordering::Relaxed);
            Tally(self.0.clone())
        }
    }

    impl Drop for Tally {
        fn drop(&mut self) {
            self.0[1].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A tree holding the last handle on its cache, dropped with pages,
    /// a fold and hints on two cores still mapped: the cache's own drop
    /// collapses every node, with or without collapse configured.
    #[test]
    fn dropping_the_last_cache_handle_frees_a_mapped_tree() {
        for collapse in [true, false] {
            let counts = Arc::new([AtomicU64::new(1), AtomicU64::new(0)]);
            let v = Tally(counts.clone());
            let cfg = RadixConfig {
                collapse,
                ..RadixConfig::default()
            };
            let t = RadixTree::new(Arc::new(Refcache::new(2)), cfg);
            t.lock_range(0, 1000, 1010, LockMode::ExpandAll).replace(&v);
            t.lock_range(1, 1 << 20, (1 << 20) + 512, LockMode::ExpandAll)
                .replace(&v);
            for core in 0..2 {
                drop(t.lock_range(core, 1000, 1001, LockMode::ExpandFolded));
            }
            drop(v);
            let shared = t.shared_weak();
            drop(t);
            assert!(shared.upgrade().is_none(), "a node outlived its cache");
            let [made, dropped] = [0, 1].map(|i| counts[i].load(Ordering::Relaxed));
            assert_eq!(made, dropped, "collapse {collapse}: values made vs dropped");
        }
    }

    /// A tree with pages `1000..1010` mapped and core 0's hint warm on
    /// their leaf.
    fn hinted_tree(ncores: usize) -> RadixTree<u64> {
        let t = tree(ncores);
        t.lock_range(0, 1000, 1010, LockMode::ExpandAll).replace(&1);
        // The single-page descent installs the hint.
        drop(t.lock_range(0, 1000, 1001, LockMode::ExpandFolded));
        t
    }

    #[test]
    fn hint_riding_guard_coexists_with_other_cores() {
        let t = hinted_tree(2);
        let hits = t.stats().hint_hits();
        let mut riding = t.lock_range(0, 1001, 1002, LockMode::ExpandFolded);
        assert_eq!(t.stats().hint_hits(), hits + 1, "served by the hint");
        assert_eq!(riding.page_value_mut(), Some(&mut 1));
        // Another core's locks use its own lock and hints.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(t.get(1, 1002), Some(1));
                drop(t.lock_range(1, 1003, 1004, LockMode::ExpandFolded));
                t.lock_range(1, 5000, 5010, LockMode::ExpandAll).replace(&2);
            });
        });
        // The guard itself may empty the leaf slot it holds: the hint's
        // pin, not a used-slot reference, keeps the node alive.
        assert_eq!(
            riding.clear().as_slice(),
            [Removed {
                start: 1001,
                pages: 1,
                value: 1
            }]
        );
        drop(riding);
        assert_eq!(t.get(0, 1001), None);
        assert_eq!(t.get(0, 5005), Some(2));
    }

    // A thread that waits for its core's lock, which its own guard
    // holds, would spin forever; debug builds report it (a guard on a
    // token the caller lent it does not compile instead: the
    // `lock_range_held` doctest).

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "blocking acquire of core 0's CoreLock while this thread holds core 0's"
    )]
    fn second_single_page_lock_under_a_hint_riding_guard_is_caught() {
        let t = hinted_tree(1);
        let _riding = t.lock_range(0, 1001, 1002, LockMode::ExpandFolded);
        let _second = t.lock_range(0, 1002, 1003, LockMode::ExpandFolded);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "blocking acquire of core 0's CoreLock while this thread holds core 0's"
    )]
    fn lookup_under_a_hint_riding_guard_is_caught() {
        let t = hinted_tree(1);
        let _riding = t.lock_range(0, 1001, 1002, LockMode::ExpandFolded);
        t.lookup_present(0, 1002);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "blocking acquire of core 0's CoreLock while this thread holds core 0's"
    )]
    fn releasing_hints_under_a_hint_riding_guard_is_caught() {
        let t = hinted_tree(1);
        let _riding = t.lock_range(0, 1001, 1002, LockMode::ExpandFolded);
        t.maintain(0);
    }

    /// A Refcache tick through the guard's token releases no hint: the
    /// hint and its pin stay for the next lock.
    #[test]
    fn a_flush_under_a_hint_riding_guard_leaves_the_hint() {
        let t = hinted_tree(1);
        let mut riding = t.lock_range(0, 1001, 1002, LockMode::ExpandFolded);
        t.cache().maintain_held(&mut riding.token());
        drop(riding);
        assert_eq!(t.hinted_blocks(0), [512]);
        let hits = t.stats().hint_hits();
        assert_eq!(t.get(0, 1002), Some(1));
        assert_eq!(t.stats().hint_hits(), hits + 1, "still served by the hint");
    }

    /// First VPN of test block `b`: leaf blocks far enough apart that no
    /// two share a parent's neighbouring slots by accident.
    fn block(b: u64) -> Vpn {
        (3 + 5 * b) * FANOUT as u64
    }

    /// A tree with pages 7 and 8 of blocks `0..n` mapped (value = block
    /// index) by multi-page locks, which never touch the hints.
    fn blocks_tree(n: u64) -> RadixTree<u64> {
        let t = tree(1);
        for b in 0..n {
            t.lock_range(0, block(b) + 7, block(b) + 9, LockMode::ExpandAll)
                .replace(&b);
        }
        assert!(t.hinted_blocks(0).is_empty());
        t
    }

    /// One single-page lock in each of blocks `0..n`, in turn.
    fn touch_blocks(t: &RadixTree<u64>, n: u64) {
        for b in 0..n {
            let mut g = t.lock_range(0, block(b) + 7, block(b) + 8, LockMode::ExpandFolded);
            assert_eq!(g.page_value_mut(), Some(&mut { b }));
        }
    }

    #[test]
    fn alternating_locks_over_eight_blocks_descend_once_each() {
        let t = blocks_tree(8);
        let misses = t.stats().hint_misses();
        touch_blocks(&t, 8);
        assert_eq!(t.stats().hint_misses(), misses + 8, "first pass descends");
        assert_eq!(t.hinted_blocks(0), (0..8).map(block).collect::<Vec<_>>());
        let hits = t.stats().hint_hits();
        for _ in 0..4 {
            touch_blocks(&t, 8);
        }
        for b in (0..8).rev() {
            assert_eq!(t.get(0, block(b) + 7), Some(b));
            assert!(t.lookup_present(0, block(b) + 7));
        }
        assert_eq!(t.stats().hint_misses(), misses + 8, "never again");
        assert_eq!(t.stats().hint_hits(), hits + 4 * 8 + 2 * 8);
    }

    #[test]
    fn ninth_block_evicts_one_way_and_surrenders_one_pin() {
        let t = blocks_tree(9);
        touch_blocks(&t, 8);
        let misses = t.stats().hint_misses();
        // The set is full: the ninth block takes the round-robin victim.
        touch_blocks(&t, 9);
        assert_eq!(t.stats().hint_misses(), misses + 1, "only the ninth");
        let mut hinted = t.hinted_blocks(0);
        assert_eq!(hinted.len(), 8);
        hinted.sort_unstable();
        assert_eq!(hinted, (1..9).map(block).collect::<Vec<_>>(), "way 0 went");
        // The seven untouched ways still hit; the evicted block descends.
        let hits = t.stats().hint_hits();
        for b in 1..8 {
            assert_eq!(t.get(0, block(b) + 7), Some(b));
        }
        assert_eq!(t.stats().hint_hits(), hits + 7);
        assert_eq!(t.stats().hint_misses(), misses + 1);
        // Exactly one pin went with the way. One too few leaks the leaf
        // (it never collapses below); one too many frees it here, linked
        // and with its page mapped.
        t.quiesce();
        assert_eq!(t.stats().leaf_nodes(), 9);
        for b in 0..9 {
            assert_eq!(t.get(0, block(b) + 7), Some(b), "block {b}");
            t.lock_range(0, block(b) + 7, block(b) + 9, LockMode::ExpandFolded)
                .clear();
        }
        t.quiesce();
        assert_eq!(t.cache().live_objects(), 1, "a hint pin leaked");
    }

    #[test]
    fn release_hints_surrenders_every_occupied_way() {
        let t = blocks_tree(5);
        touch_blocks(&t, 5);
        assert_eq!(t.hinted_blocks(0).len(), 5);
        // Empty the leaves by multi-page locks: only the hints' pins keep
        // them now.
        for b in 0..5 {
            t.lock_range(0, block(b) + 7, block(b) + 9, LockMode::ExpandFolded)
                .clear();
        }
        t.release_hints(&mut t.cache().lock(0));
        assert!(t.hinted_blocks(0).is_empty(), "the release takes all ways");
        t.cache().quiesce();
        assert_eq!(t.cache().live_objects(), 1, "everything collapsed");
        assert_eq!(t.stats().leaf_nodes(), 0);
    }

    /// Two trees on one cache: each tree's hints are its own to release.
    /// A cache flush takes neither tree's ways; `a.quiesce` takes only
    /// `a`'s, so `a`'s emptied leaf collapses there while `b`'s waits for
    /// `b`'s own tick.
    #[test]
    fn each_tree_releases_only_its_own_hints() {
        let cache = Arc::new(Refcache::new(1));
        let [a, b] = [(); 2].map(|_| RadixTree::<u64>::new(cache.clone(), RadixConfig::default()));
        for t in [&a, &b] {
            t.lock_range(0, 1000, 1010, LockMode::ExpandAll).replace(&1);
            drop(t.lock_range(0, 1000, 1001, LockMode::ExpandFolded));
            // Only the hint's pin keeps the leaf now.
            t.lock_range(0, 1000, 1010, LockMode::ExpandFolded).clear();
        }
        cache.flush(0);
        assert_eq!(
            (a.hinted_blocks(0), b.hinted_blocks(0)),
            (vec![512], vec![512])
        );
        a.quiesce();
        assert!(a.hinted_blocks(0).is_empty());
        assert_eq!(b.hinted_blocks(0), [512]);
        assert_eq!(a.stats().leaf_nodes(), 0, "a's leaf collapsed");
        assert_eq!(b.stats().leaf_nodes(), 1, "b's leaf waits for b");
        b.quiesce();
        assert_eq!(b.stats().leaf_nodes(), 0, "b's leaf collapsed");
    }

    #[test]
    fn refolded_leafs_way_is_evicted_by_the_lookup_that_meets_it() {
        let t = tree(1);
        let start = block(2);
        t.lock_range(0, start, start + 512, LockMode::ExpandAll)
            .replace(&6);
        // Demote (the descent installs the hint), then promote: the hint
        // now pins a severed leaf.
        drop(t.lock_range(0, start + 3, start + 4, LockMode::ExpandFolded));
        assert_eq!(t.hinted_blocks(0), [start]);
        t.lock_range(0, start, start + 512, LockMode::ExpandFolded)
            .refold(6)
            .expect("refolds");
        let (hits, misses) = (t.stats().hint_hits(), t.stats().hint_misses());
        let live = t.cache().live_objects();
        // The first lookup finds the way by its tag, reads the linkage
        // under the slot lock, evicts the way and still answers from the
        // fold.
        assert_eq!(t.get(0, start + 3), Some(6));
        assert!(t.hinted_blocks(0).is_empty(), "stale way evicted");
        assert_eq!(
            (t.stats().hint_hits(), t.stats().hint_misses()),
            (hits, misses + 1),
            "one bump, a miss"
        );
        // Same through a lock: the fold is intact, no leaf came back.
        {
            let mut g = t.lock_range(0, start + 9, start + 10, LockMode::ExpandToBlock);
            assert_eq!(
                g.block_entry_mut().map(|(lo, n, v, _)| (lo, n, *v)),
                Some((start, 512, 6))
            );
        }
        assert_eq!(t.stats().leaf_nodes(), 1, "the severed leaf, still queued");
        // The eviction surrendered the last pin: the leaf frees with no
        // `release_hints` (the set is already empty).
        t.cache().quiesce();
        assert_eq!(t.cache().live_objects(), live - 1, "severed leaf freed");
        assert_eq!(t.stats().leaf_nodes(), 0);
    }

    #[test]
    fn a_get_that_misses_installs_the_hint() {
        let t = blocks_tree(2);
        let misses = t.stats().hint_misses();
        assert_eq!(t.get(0, block(0) + 7), Some(0));
        assert_eq!(t.stats().hint_misses(), misses + 1);
        assert_eq!(t.hinted_blocks(0), [block(0)], "the walk cached its leaf");
        let hits = t.stats().hint_hits();
        assert_eq!(t.get(0, block(0) + 8), Some(0));
        assert_eq!(t.stats().hint_hits(), hits + 1, "the next get rides it");
        // A miss that ends at an empty slot caches nothing.
        assert_eq!(t.get(0, block(2) + 7), None);
        assert_eq!(t.hinted_blocks(0), [block(0)]);
    }

    /// A `get` that pinned a leaf which a refold then severs finds the
    /// page in the parent slot's fold: core 1 holds every slot of the
    /// leaf while core 0's `get` pins it and waits at its slot lock, then
    /// refolds the block with a new value.
    #[test]
    fn a_get_that_meets_a_severed_leaf_answers_from_the_fold() {
        let t = tree(2);
        let start = block(4);
        t.lock_range(0, start, start + 512, LockMode::ExpandAll)
            .replace(&0);
        for round in 1..=8u64 {
            // Demote: a partial op expands the fold into a leaf.
            drop(t.lock_range(1, start + 3, start + 4, LockMode::ExpandFolded));
            let mut whole = t.lock_range(1, start, start + 512, LockMode::ExpandFolded);
            std::thread::scope(|s| {
                let reader = s.spawn(|| t.get(0, start + 5));
                // Long enough for the reader to pin the leaf and spin.
                std::thread::sleep(std::time::Duration::from_millis(5));
                whole.refold(round).expect("refolds");
                drop(whole);
                assert_eq!(reader.join().unwrap(), Some(round), "round {round}");
            });
            t.maintain(0);
            t.maintain(1);
        }
        assert!(t.hinted_blocks(0).is_empty(), "no leaf to cache");
        t.quiesce();
        assert_eq!(t.stats().leaf_nodes(), 0, "every severed leaf freed");
    }

    /// Demotions and refolds of one block on core 1 race `collect_range`
    /// over it on core 0. Each refold severs the leaf a walk may be in
    /// the middle of; the walk goes on from the first page it has not
    /// reported, so every page of the mapping comes back exactly once,
    /// in order, with a value it had while the walk ran. Each refold
    /// folds a new value, so a walk that met a sever past the leaf's
    /// first page reports two values: the rounds go on until one has.
    #[test]
    fn collect_range_racing_refolds_reports_each_page_once() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let t = tree(2);
        let start = block(6);
        t.lock_range(0, start, start + 512, LockMode::ExpandAll)
            .replace(&0);
        // The last round whose refold completed, and whether a walk has
        // reported pages from both sides of a sever.
        let (folded, mixed) = (AtomicU64::new(0), AtomicBool::new(false));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut round = 0;
                while round < 100 || !mixed.load(Ordering::Acquire) {
                    if std::time::Instant::now() > deadline {
                        break;
                    }
                    round += 1;
                    drop(t.lock_range(1, start + 3, start + 4, LockMode::ExpandFolded));
                    t.lock_range(1, start, start + 512, LockMode::ExpandFolded)
                        .refold(round)
                        .expect("refolds");
                    folded.store(round, Ordering::Release);
                    t.maintain(1);
                }
                folded.store(u64::MAX, Ordering::Release);
            });
            while folded.load(Ordering::Acquire) != u64::MAX {
                let before = folded.load(Ordering::Acquire);
                let walk = t.collect_range(0, start - 2, start + 514);
                let after = folded.load(Ordering::Acquire);
                let vpns: Vec<Vpn> = walk.iter().map(|&(vpn, _)| vpn).collect();
                assert_eq!(vpns, (start..start + 512).collect::<Vec<_>>());
                assert!(walk.windows(2).all(|w| w[0].1 <= w[1].1), "{walk:?}");
                let (first, last) = (walk[0].1, walk[511].1);
                assert!(before <= first && last <= after.saturating_add(1));
                if first != last {
                    mixed.store(true, Ordering::Release);
                }
                t.maintain(0);
            }
        });
        assert!(
            mixed.load(Ordering::Acquire),
            "no walk met a sever mid-leaf"
        );
        t.quiesce();
        assert_eq!(t.stats().leaf_nodes(), 0, "every severed leaf freed");
    }

    #[test]
    fn warm_hinted_lock_unlock_line_events_are_pinned() {
        // The hinted single-page lock/unlock touches five instrumented
        // lines, all core-local: the core's lock (1 write), the leaf
        // slot lock (1 `fetch_or`), the parent slot that must still
        // publish the leaf, read once under it (1 read), the hit counter
        // (1 write) and the unlock (1 write). A Refcache pin/unpin pair
        // would add more (the delta cache way and the epoch, twice) —
        // the round-trip the hint's pin replaces — and a
        // linkage check ahead of the slot lock one.
        let guard = rvm_sync::sim::install(1, rvm_sync::CostModel::default());
        rvm_sync::sim::switch(0);
        let t = hinted_tree(1);
        for vpn in 1000..1010 {
            drop(t.lock_range(0, vpn, vpn + 1, LockMode::ExpandFolded));
        }
        let hits = t.stats().hint_hits();
        let before = rvm_sync::sim::stats().cores[0];
        drop(t.lock_range(0, 1004, 1005, LockMode::ExpandFolded));
        let after = rvm_sync::sim::stats().cores[0];
        assert_eq!(t.stats().hint_hits(), hits + 1);
        assert_eq!(after.local_hits - before.local_hits, 5);
        assert_eq!(after.cold_misses, before.cold_misses);
        assert_eq!(after.remote_transfers, before.remote_transfers);
        drop(t);
        drop(guard);
    }

    #[test]
    fn lookups_do_not_contend_with_disjoint_writes_sim() {
        // Figure 7's property: steady-state lookups cause no remote
        // transfers even while another core inserts/deletes disjoint keys.
        let guard = rvm_sync::sim::install(2, rvm_sync::CostModel::default());
        let t = tree(2);
        // Prepopulate two disjoint regions.
        rvm_sync::sim::switch(0);
        {
            let mut g = t.lock_range(0, 1000, 1010, LockMode::ExpandAll);
            g.replace(&1);
        }
        rvm_sync::sim::switch(1);
        let far = 1 << 30;
        {
            let mut g = t.lock_range(1, far, far + 10, LockMode::ExpandAll);
            g.replace(&2);
        }
        // Warm both cores' paths.
        rvm_sync::sim::switch(0);
        assert_eq!(t.get(0, 1005), Some(1));
        assert_eq!(t.get(0, 1005), Some(1));
        let before = rvm_sync::sim::stats();
        for _ in 0..200 {
            // Core 0 looks up its region...
            rvm_sync::sim::switch(0);
            assert_eq!(t.get(0, 1005), Some(1));
            // ...while core 1 churns a disjoint region.
            rvm_sync::sim::switch(1);
            let mut g = t.lock_range(1, far, far + 10, LockMode::ExpandAll);
            g.replace(&3);
        }
        let after = rvm_sync::sim::stats();
        assert_eq!(
            after.cores[0].remote_transfers, before.cores[0].remote_transfers,
            "disjoint writers must not disturb readers"
        );
        drop(guard);
    }
}
