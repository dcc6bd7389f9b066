//! The MMU: per-core or shared page tables behind one API.
//!
//! RadixVM's targeted TLB shootdown (§3.3) relies on per-core page tables:
//! a page is installed only in the tables of cores that actually faulted
//! it, so unmap must shoot down exactly those cores — often none or only
//! the local core. The alternative, a single shared table, must
//! conservatively broadcast shootdowns to every core using the address
//! space. The paper's implementation hides this choice behind an MMU
//! abstraction (§4, Table 1); here that abstraction is [`Mmu`]'s API, and
//! the choice is its [`MmuKind`]: one table per core, or one for all.
//! Which TLBs to shoot down is the caller's choice (Figure 9 measures
//! the difference).

use rvm_sync::CoreSet;

use crate::pagetable::PageTable;
use crate::Vpn;

/// Which page-table organization an [`Mmu`] holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmuKind {
    /// One page table per core; targeted shootdown.
    PerCore,
    /// One shared page table; broadcast shootdown.
    Shared,
}

/// An address space's hardware page tables, independent of the metadata
/// index: `ncores` tables ([`MmuKind::PerCore`]) or one.
pub struct Mmu {
    kind: MmuKind,
    tables: Box<[PageTable]>,
}

impl Mmu {
    /// Creates `kind`'s tables for an `ncores`-core machine.
    pub fn new(kind: MmuKind, ncores: usize) -> Mmu {
        let n = match kind {
            MmuKind::PerCore => ncores,
            MmuKind::Shared => 1,
        };
        Mmu {
            kind,
            tables: (0..n).map(|_| PageTable::new()).collect(),
        }
    }

    /// The table organization.
    pub fn kind(&self) -> MmuKind {
        self.kind
    }

    /// The table `core`'s MMU walks: its own, or the shared one.
    pub fn table(&self, core: usize) -> &PageTable {
        match self.kind {
            MmuKind::PerCore => &self.tables[core],
            MmuKind::Shared => &self.tables[0],
        }
    }

    /// The tables holding translations the cores of `tracked` installed.
    fn holding(&self, tracked: CoreSet) -> impl Iterator<Item = &PageTable> {
        let cores = match self.kind {
            MmuKind::PerCore => tracked,
            MmuKind::Shared => CoreSet::single(0),
        };
        cores.iter().map(|core| &self.tables[core])
    }

    /// Clears `[start, start+n)` from the tables holding `tracked`'s
    /// translations, `tracked` being the cores the metadata observed
    /// faulting pages of the range. Superpage PTEs overlapping the range
    /// are cleared whole (demote first to keep survivors).
    pub fn unmap_range(&self, start: Vpn, n: u64, tracked: CoreSet) {
        for table in self.holding(tracked) {
            table.clear_range(start, n, |_, _, _| {});
        }
    }

    /// Demotes the `pages`-page superpage translation covering
    /// `base_vpn` one rung in the tables holding `tracked`'s
    /// translations: each is shattered in place into 512 entries of the
    /// next span down (4 KiB PTEs below [`crate::BLOCK_PAGES`]),
    /// preserving the translations.
    pub fn demote(&self, base_vpn: Vpn, pages: u64, tracked: CoreSet) {
        for table in self.holding(tracked) {
            table.shatter_span(base_vpn, pages);
        }
    }

    /// Frees the table nodes wholly inside `[start, start+n)`
    /// ([`PageTable::free_range`]) in every table, tracked or not. The
    /// caller has cleared the range and still holds the VA-range lock
    /// over it.
    pub fn free_tables(&self, start: Vpn, n: u64) {
        for table in self.tables.iter() {
            table.free_range(start, n);
        }
    }

    /// Total bytes of page-table memory currently allocated.
    pub fn table_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagetable::Pte;

    #[test]
    fn percore_maps_are_private() {
        let mmu = Mmu::new(MmuKind::PerCore, 2);
        mmu.table(0).set(100, Pte::new(1, true));
        assert!(mmu.table(0).get(100).present());
        assert!(
            !mmu.table(1).get(100).present(),
            "core 1 must not see core 0's PTE"
        );
    }

    #[test]
    fn percore_unmap_clears_tracked_tables_only() {
        let mmu = Mmu::new(MmuKind::PerCore, 4);
        for core in [0, 1, 2] {
            mmu.table(core).set(100, Pte::new(1, true));
        }
        let mut tracked = CoreSet::EMPTY;
        tracked.insert(0);
        tracked.insert(2);
        mmu.unmap_range(100, 1, tracked);
        assert!(!mmu.table(0).get(100).present());
        assert!(mmu.table(1).get(100).present(), "untracked table kept");
        assert!(!mmu.table(2).get(100).present());
    }

    #[test]
    fn shared_maps_are_global_and_unmap_ignores_tracking() {
        let mmu = Mmu::new(MmuKind::Shared, 8);
        mmu.table(0).set(100, Pte::new(1, true));
        assert!(
            mmu.table(3).get(100).present(),
            "shared table is visible to all"
        );
        mmu.unmap_range(100, 1, CoreSet::EMPTY);
        assert!(!mmu.table(0).get(100).present());
    }

    #[test]
    fn span_map_and_demote_follow_tracking() {
        for span in crate::pagetable::SPAN_PAGES {
            let below = span / crate::pagetable::NODE_SLOTS as u64;
            let mmu = Mmu::new(MmuKind::PerCore, 4);
            let base = span * 2;
            mmu.table(1).set_span(base, Pte::new_span(100, true, span));
            assert_eq!(mmu.table(1).get(base + 17).pfn(), 117);
            assert_eq!(mmu.table(1).get(base + 17).span(), span);
            assert!(!mmu.table(0).get(base).present(), "other cores unaffected");
            // Demote shatters only tracked cores' tables.
            mmu.demote(base, span, CoreSet::single(1));
            let p = mmu.table(1).get(base + 17);
            assert!(p.present(), "translation preserved one rung down");
            assert_eq!((p.pfn(), p.span()), (117, below));
            // Shared tables demote in place.
            let sh = Mmu::new(MmuKind::Shared, 8);
            sh.table(0).set_span(base, Pte::new_span(500, false, span));
            assert_eq!(sh.table(3).get(base + 3).pfn(), 503);
            sh.demote(base, span, CoreSet::single(0));
            assert_eq!(sh.table(2).get(base + 3).span(), below);
        }
    }

    #[test]
    fn unmap_range_clears_blocks_whole() {
        use crate::pagetable::BLOCK_PAGES;
        let mmu = Mmu::new(MmuKind::PerCore, 2);
        let base = BLOCK_PAGES * 4;
        mmu.table(0).set_span(base, Pte::new_block(0, true));
        // Partial unmap clears the whole block entry (callers demote
        // first when survivors matter).
        mmu.unmap_range(base + 10, 5, CoreSet::single(0));
        assert!(!mmu.table(0).get(base).present());
    }

    #[test]
    fn free_tables_frees_in_every_table() {
        use crate::pagetable::BLOCK_PAGES;
        let base = BLOCK_PAGES * 6;
        for (kind, tables) in [(MmuKind::PerCore, 2), (MmuKind::Shared, 1)] {
            let mmu = Mmu::new(kind, 2);
            for core in 0..2 {
                mmu.table(core)
                    .set(base + 3 + core as u64, Pte::new(1, true));
            }
            mmu.unmap_range(base, BLOCK_PAGES, CoreSet::first_n(2));
            let before = mmu.table_bytes();
            mmu.free_tables(base, BLOCK_PAGES);
            assert_eq!(mmu.table_bytes(), before - tables * 4096, "{kind:?}");
        }
    }

    #[test]
    fn table_bytes_grow() {
        let mmu = Mmu::new(MmuKind::PerCore, 2);
        let b0 = mmu.table_bytes();
        mmu.table(0).set(100, Pte::new(1, true));
        assert!(mmu.table_bytes() > b0);
    }
}
