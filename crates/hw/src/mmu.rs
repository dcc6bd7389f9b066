//! The MMU abstraction: per-core vs. shared page tables.
//!
//! RadixVM's targeted TLB shootdown (§3.3) relies on per-core page tables:
//! a page is installed only in the tables of cores that actually faulted
//! it, so unmap must shoot down exactly those cores — often none or only
//! the local core. The alternative, a single shared table, must
//! conservatively broadcast shootdowns to every core using the address
//! space. The paper's implementation hides this choice behind an MMU
//! abstraction (§4, Table 1); Figure 9 measures the difference.

use rvm_sync::CoreSet;

use crate::pagetable::{PageTable, Pte};
use crate::Vpn;

/// Which page-table organization an [`Mmu`] implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmuKind {
    /// One page table per core; targeted shootdown.
    PerCore,
    /// One shared page table; broadcast shootdown.
    Shared,
}

/// Hardware page-table operations, independent of the metadata index.
pub trait Mmu: Send + Sync {
    /// The table organization.
    fn kind(&self) -> MmuKind;

    /// Installs a translation visible to `core`.
    fn map(&self, core: usize, vpn: Vpn, pte: Pte);

    /// Installs a superpage translation visible to `core`, covering the
    /// whole aligned [`Pte::span`] pages containing `base_vpn` (`pte` is
    /// built with [`Pte::new_span`]; the span picks the table level).
    fn map_span(&self, core: usize, base_vpn: Vpn, pte: Pte);

    /// Walks the table(s) as `core`'s MMU would.
    fn walk(&self, core: usize, vpn: Vpn) -> Pte;

    /// Clears `[start, start+n)` from the tables and returns the set of
    /// cores whose TLBs must be shot down. `tracked` is the set of cores
    /// the metadata observed faulting pages of the range; `attached` is
    /// every core using the address space. Superpage PTEs overlapping
    /// the range are cleared whole (demote first to keep survivors).
    fn unmap_range(&self, start: Vpn, n: u64, tracked: CoreSet, attached: CoreSet) -> CoreSet;

    /// Demotes the `pages`-page superpage translation covering
    /// `base_vpn` one rung: every table that holds the superpage PTE is
    /// shattered in place into 512 entries of the next span down (4 KiB
    /// PTEs below [`crate::BLOCK_PAGES`]), preserving the translations.
    /// Returns the cores whose span TLB entries must be shot down
    /// (`tracked` for per-core tables, `attached` for a shared one).
    fn demote(&self, base_vpn: Vpn, pages: u64, tracked: CoreSet, attached: CoreSet) -> CoreSet;

    /// Frees the table nodes wholly inside `[start, start+n)`
    /// ([`PageTable::free_range`]) in the tables of `tracked` (per-core)
    /// or in the one shared table. The caller has cleared the range with
    /// [`Mmu::unmap_range`] over the same `tracked` and still holds the
    /// VA-range lock over it.
    fn free_tables(&self, start: Vpn, n: u64, tracked: CoreSet);

    /// Total bytes of page-table memory currently allocated.
    fn table_bytes(&self) -> u64;
}

/// Per-core page tables: the RadixVM configuration.
pub struct PerCoreMmu {
    tables: Vec<PageTable>,
}

impl PerCoreMmu {
    /// Creates per-core tables for `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        PerCoreMmu {
            tables: (0..ncores).map(|_| PageTable::new()).collect(),
        }
    }

    /// Direct access to one core's table (tests and space accounting).
    pub fn table(&self, core: usize) -> &PageTable {
        &self.tables[core]
    }
}

impl Mmu for PerCoreMmu {
    fn kind(&self) -> MmuKind {
        MmuKind::PerCore
    }

    fn map(&self, core: usize, vpn: Vpn, pte: Pte) {
        self.tables[core].set(vpn, pte);
    }

    fn map_span(&self, core: usize, base_vpn: Vpn, pte: Pte) {
        self.tables[core].set_span(base_vpn, pte);
    }

    fn walk(&self, core: usize, vpn: Vpn) -> Pte {
        self.tables[core].get(vpn)
    }

    fn unmap_range(&self, start: Vpn, n: u64, tracked: CoreSet, _attached: CoreSet) -> CoreSet {
        for core in tracked.iter() {
            self.tables[core].clear_range(start, n, |_, _, _| {});
        }
        tracked
    }

    fn demote(&self, base_vpn: Vpn, pages: u64, tracked: CoreSet, _attached: CoreSet) -> CoreSet {
        for core in tracked.iter() {
            self.tables[core].shatter_span(base_vpn, pages);
        }
        tracked
    }

    fn free_tables(&self, start: Vpn, n: u64, tracked: CoreSet) {
        for core in tracked.iter() {
            self.tables[core].free_range(start, n);
        }
    }

    fn table_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.bytes()).sum()
    }
}

/// A single shared page table: the conventional configuration.
pub struct SharedMmu {
    table: PageTable,
}

impl SharedMmu {
    /// Creates the shared table.
    pub fn new() -> Self {
        SharedMmu {
            table: PageTable::new(),
        }
    }

    /// Direct access to the table.
    pub fn table(&self) -> &PageTable {
        &self.table
    }
}

impl Default for SharedMmu {
    fn default() -> Self {
        Self::new()
    }
}

impl Mmu for SharedMmu {
    fn kind(&self) -> MmuKind {
        MmuKind::Shared
    }

    fn map(&self, _core: usize, vpn: Vpn, pte: Pte) {
        self.table.set(vpn, pte);
    }

    fn map_span(&self, _core: usize, base_vpn: Vpn, pte: Pte) {
        self.table.set_span(base_vpn, pte);
    }

    fn walk(&self, _core: usize, vpn: Vpn) -> Pte {
        self.table.get(vpn)
    }

    fn unmap_range(&self, start: Vpn, n: u64, _tracked: CoreSet, attached: CoreSet) -> CoreSet {
        self.table.clear_range(start, n, |_, _, _| {});
        // Without per-core tracking, the kernel must conservatively shoot
        // down every core using the address space.
        attached
    }

    fn demote(&self, base_vpn: Vpn, pages: u64, _tracked: CoreSet, attached: CoreSet) -> CoreSet {
        self.table.shatter_span(base_vpn, pages);
        // Every attached core may hold the span entry.
        attached
    }

    fn free_tables(&self, start: Vpn, n: u64, _tracked: CoreSet) {
        self.table.free_range(start, n);
    }

    fn table_bytes(&self) -> u64 {
        self.table.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percore_maps_are_private() {
        let mmu = PerCoreMmu::new(2);
        mmu.map(0, 100, Pte::new(1, true));
        assert!(mmu.walk(0, 100).present());
        assert!(
            !mmu.walk(1, 100).present(),
            "core 1 must not see core 0's PTE"
        );
    }

    #[test]
    fn percore_unmap_targets_tracked_only() {
        let mmu = PerCoreMmu::new(4);
        mmu.map(0, 100, Pte::new(1, true));
        mmu.map(2, 100, Pte::new(1, true));
        let mut tracked = CoreSet::EMPTY;
        tracked.insert(0);
        tracked.insert(2);
        let targets = mmu.unmap_range(100, 1, tracked, CoreSet::first_n(4));
        assert_eq!(targets, tracked);
        assert!(!mmu.walk(0, 100).present());
        assert!(!mmu.walk(2, 100).present());
    }

    #[test]
    fn shared_maps_are_global_and_unmap_broadcasts() {
        let mmu = SharedMmu::new();
        mmu.map(0, 100, Pte::new(1, true));
        assert!(mmu.walk(3, 100).present(), "shared table is visible to all");
        let targets = mmu.unmap_range(100, 1, CoreSet::single(0), CoreSet::first_n(8));
        assert_eq!(targets.len(), 8, "broadcast to every attached core");
        assert!(!mmu.walk(0, 100).present());
    }

    #[test]
    fn span_map_and_demote_follow_tracking() {
        for span in crate::pagetable::SPAN_PAGES {
            let below = span / crate::pagetable::NODE_SLOTS as u64;
            let mmu = PerCoreMmu::new(4);
            let base = span * 2;
            mmu.map_span(1, base, Pte::new_span(100, true, span));
            assert_eq!(mmu.walk(1, base + 17).pfn(), 117);
            assert_eq!(mmu.walk(1, base + 17).span(), span);
            assert!(!mmu.walk(0, base).present(), "other cores unaffected");
            // Demote shatters only tracked cores' tables and returns them.
            let targets = mmu.demote(base, span, CoreSet::single(1), CoreSet::first_n(4));
            assert_eq!(targets, CoreSet::single(1));
            let p = mmu.walk(1, base + 17);
            assert!(p.present(), "translation preserved one rung down");
            assert_eq!((p.pfn(), p.span()), (117, below));
            // Shared tables demote in place and broadcast.
            let sh = SharedMmu::new();
            sh.map_span(0, base, Pte::new_span(500, false, span));
            assert_eq!(sh.walk(3, base + 3).pfn(), 503);
            let targets = sh.demote(base, span, CoreSet::single(0), CoreSet::first_n(8));
            assert_eq!(targets.len(), 8);
            assert_eq!(sh.walk(2, base + 3).span(), below);
        }
    }

    #[test]
    fn unmap_range_clears_blocks_whole() {
        use crate::pagetable::BLOCK_PAGES;
        let mmu = PerCoreMmu::new(2);
        let base = BLOCK_PAGES * 4;
        mmu.map_span(0, base, Pte::new_block(0, true));
        // Partial unmap clears the whole block entry (callers demote
        // first when survivors matter).
        mmu.unmap_range(base + 10, 5, CoreSet::single(0), CoreSet::first_n(2));
        assert!(!mmu.walk(0, base).present());
    }

    #[test]
    fn free_tables_frees_in_tracked_tables_or_the_shared_one() {
        use crate::pagetable::BLOCK_PAGES;
        let base = BLOCK_PAGES * 6;
        let mmu = PerCoreMmu::new(2);
        for core in 0..2 {
            mmu.map(core, base + 3, Pte::new(1, true));
        }
        let both = CoreSet::first_n(2);
        mmu.unmap_range(base, BLOCK_PAGES, both, both);
        let nodes = |m: &PerCoreMmu| [0, 1].map(|c| m.table(c).node_count());
        let before = nodes(&mmu);
        mmu.free_tables(base, BLOCK_PAGES, CoreSet::single(1));
        assert_eq!(nodes(&mmu), [before[0], before[1] - 1], "core 1's only");
        let sh = SharedMmu::new();
        sh.map(0, base + 3, Pte::new(1, true));
        sh.unmap_range(base, BLOCK_PAGES, CoreSet::single(0), both);
        let before = sh.table().node_count();
        sh.free_tables(base, BLOCK_PAGES, CoreSet::single(0));
        assert_eq!(sh.table().node_count(), before - 1);
    }

    #[test]
    fn table_bytes_grow() {
        let mmu = PerCoreMmu::new(2);
        let b0 = mmu.table_bytes();
        mmu.map(0, 100, Pte::new(1, true));
        assert!(mmu.table_bytes() > b0);
    }
}
