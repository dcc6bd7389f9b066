//! Per-core software TLBs.
//!
//! Each core owns a direct-mapped translation cache tagged by (ASID, VPN).
//! Entries record the frame generation observed at fill time, so an access
//! through an entry that survived a missing shootdown — the bug class TLB
//! shootdown exists to prevent — is *detected* rather than silently
//! corrupting reused memory (see `rvm_mem`'s generation tags).

use rvm_mem::Pfn;

use crate::pagetable::SPAN_PAGES;
use crate::{Asid, Vpn};

/// One TLB entry.
///
/// `span` is the number of pages the entry translates: 1 for ordinary
/// fills, one of [`SPAN_PAGES`] for superpage fills (whose `vpn` is the
/// span base and `pfn` the base of the contiguous frame block). A lookup
/// inside the span resolves to `pfn + (vpn - entry.vpn)`.
#[derive(Clone, Copy, Debug)]
pub struct TlbEntry {
    /// Address-space identifier.
    pub asid: Asid,
    /// Virtual page number (full tag; span base for span entries).
    pub vpn: Vpn,
    /// Cached translation target (block base for span entries).
    pub pfn: Pfn,
    /// Frame generation at fill time (the base frame's, for spans; block
    /// frames only ever free as a unit, so the base is a faithful proxy).
    pub gen: u64,
    /// Pages translated (1 or one of [`SPAN_PAGES`]).
    pub span: u64,
    /// Write permission.
    pub writable: bool,
    /// Entry validity.
    pub valid: bool,
}

impl TlbEntry {
    /// True when this entry overlaps `[start, start + n)` of `asid` (with
    /// `n` = 1: translates page `start`).
    #[inline]
    fn overlaps(&self, asid: Asid, start: Vpn, n: u64) -> bool {
        self.valid && self.asid == asid && self.vpn < start + n && self.vpn + self.span > start
    }
}

const INVALID: TlbEntry = TlbEntry {
    asid: 0,
    vpn: 0,
    pfn: 0,
    gen: 0,
    span: 1,
    writable: false,
    valid: false,
};

/// Every page count one entry may translate, in probe order: a constant
/// array so the probe loops unroll into shifts by constants.
const ENTRY_SPANS: [u64; SPAN_PAGES.len() + 1] = {
    let mut spans = [1; SPAN_PAGES.len() + 1];
    let mut i = 0;
    while i < SPAN_PAGES.len() {
        spans[i + 1] = SPAN_PAGES[i];
        i += 1;
    }
    spans
};

/// Slots in each core's TLB (a power of two).
pub(crate) const TLB_ENTRIES: usize = 1024;

/// A direct-mapped software TLB.
pub struct Tlb {
    entries: Box<[TlbEntry]>,
    mask: usize,
}

impl Tlb {
    /// Creates a TLB with `entries` slots (power of two).
    pub fn new(entries: usize) -> Tlb {
        assert!(entries.is_power_of_two());
        Tlb {
            entries: vec![INVALID; entries].into_boxed_slice(),
            mask: entries - 1,
        }
    }

    /// The slot an entry of `span` pages covering `vpn` lives in: indexed
    /// by span number, not by base VPN — aligned bases share their low
    /// bits, so neighbouring superpages would all collide in one slot.
    #[inline]
    fn slot(&self, vpn: Vpn, span: u64) -> usize {
        // `span` is a power of two; the shift keeps a hardware divide off
        // the probe loops.
        ((vpn >> span.trailing_zeros()) as usize) & self.mask
    }

    /// Looks up a translation. Probes the page's own slot first (4 KiB
    /// entries), then the covering base's slot at each superpage span —
    /// the software analogue of hardware's split 4K/2M/1G TLB probe.
    ///
    /// Forced inline: this runs on every user memory access, and left to
    /// its own cost model the compiler emits the unrolled probe as a
    /// call out of `Machine::access`.
    #[inline(always)]
    pub fn lookup(&self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        for span in ENTRY_SPANS {
            let e = self.entries[self.slot(vpn, span)];
            if e.overlaps(asid, vpn, 1) {
                return Some(e);
            }
        }
        None
    }

    /// Fills (or replaces) the entry for `entry.vpn` (span entries are
    /// based at their span-aligned first page).
    #[inline]
    pub fn insert(&mut self, entry: TlbEntry) {
        debug_assert!(entry.span == 1 || entry.vpn.is_multiple_of(entry.span));
        let idx = self.slot(entry.vpn, entry.span);
        self.entries[idx] = TlbEntry {
            valid: true,
            ..entry
        };
    }

    /// Invalidates any entry translating `(asid, vpn)` — a 4 KiB entry
    /// or a span entry covering the page.
    pub fn invalidate_page(&mut self, asid: Asid, vpn: Vpn) {
        self.invalidate_range(asid, vpn, 1);
    }

    /// Invalidates every entry overlapping `[start, start + n)` of an
    /// address space, span entries included.
    pub fn invalidate_range(&mut self, asid: Asid, start: Vpn, n: u64) {
        if n as usize >= self.entries.len() {
            // Cheaper to scan the whole TLB, like a full flush would be.
            for e in self.entries.iter_mut() {
                if e.overlaps(asid, start, n) {
                    e.valid = false;
                }
            }
            return;
        }
        // Entries overlapping the range sit at the slot of their own
        // span's base, which may precede `start`: probe each candidate
        // base at each granularity.
        for span in ENTRY_SPANS {
            let mut base = start & !(span - 1);
            while base < start + n {
                let e = &mut self.entries[self.slot(base, span)];
                if e.overlaps(asid, start, n) {
                    e.valid = false;
                }
                base += span;
            }
        }
    }

    /// Invalidates every entry of an address space.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for e in self.entries.iter_mut() {
            if e.valid && e.asid == asid {
                e.valid = false;
            }
        }
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.entries.fill(INVALID);
    }

    /// Number of currently valid entries (diagnostics).
    pub fn valid_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asid: Asid, vpn: Vpn, pfn: Pfn) -> TlbEntry {
        TlbEntry {
            asid,
            vpn,
            pfn,
            gen: 1,
            span: 1,
            writable: true,
            valid: true,
        }
    }

    use crate::pagetable::BLOCK_PAGES;

    fn span_entry(asid: Asid, base: Vpn, pfn: Pfn) -> TlbEntry {
        TlbEntry {
            span: BLOCK_PAGES,
            ..entry(asid, base, pfn)
        }
    }

    #[test]
    fn fill_and_lookup() {
        let mut t = Tlb::new(64);
        assert!(t.lookup(1, 100).is_none());
        t.insert(entry(1, 100, 7));
        let e = t.lookup(1, 100).unwrap();
        assert_eq!(e.pfn, 7);
        // Different ASID misses.
        assert!(t.lookup(2, 100).is_none());
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut t = Tlb::new(64);
        t.insert(entry(1, 5, 1));
        t.insert(entry(1, 5 + 64, 2)); // same slot
        assert!(t.lookup(1, 5).is_none());
        assert_eq!(t.lookup(1, 5 + 64).unwrap().pfn, 2);
    }

    #[test]
    fn invalidate_page_and_range() {
        let mut t = Tlb::new(64);
        for vpn in 0..10 {
            t.insert(entry(1, vpn, vpn as Pfn));
        }
        t.invalidate_page(1, 3);
        assert!(t.lookup(1, 3).is_none());
        t.invalidate_range(1, 0, 5);
        assert!(t.lookup(1, 4).is_none());
        assert!(t.lookup(1, 7).is_some());
        // Large ranges fall back to the scan path.
        t.invalidate_range(1, 0, 1 << 20);
        assert_eq!(t.valid_count(), 0);
    }

    #[test]
    fn span_entry_covers_whole_block() {
        let mut t = Tlb::new(64);
        let base = BLOCK_PAGES * 3;
        t.insert(span_entry(1, base, 5000));
        // Any page of the block hits, through the base-slot probe.
        for off in [0u64, 1, 63, 64, 100, 511] {
            let e = t
                .lookup(1, base + off)
                .unwrap_or_else(|| panic!("off {off}"));
            assert_eq!(e.pfn + (base + off - e.vpn) as Pfn, 5000 + off as Pfn);
        }
        assert!(t.lookup(1, base - 1).is_none());
        assert!(t.lookup(1, base + BLOCK_PAGES).is_none());
        assert!(t.lookup(2, base + 4).is_none(), "other asid");
        // A 4 KiB entry in a conflicting slot coexists until evicted.
        t.insert(entry(1, base + 7, 9));
        assert_eq!(t.lookup(1, base + 7).unwrap().pfn, 9);
        assert!(t.lookup(1, base + 8).is_some(), "span survives");
    }

    #[test]
    fn adjacent_span_entries_coexist() {
        // Span entries index by `vpn / span`: aligned bases share their
        // low bits, so indexing by `vpn` would land them all in one slot.
        use crate::pagetable::GIANT_PAGES;
        let mut t = Tlb::new(64);
        for span in [BLOCK_PAGES, GIANT_PAGES] {
            for i in 0..4u64 {
                let e = TlbEntry {
                    span,
                    ..entry(1, span * (8 + i), (1000 * i) as Pfn)
                };
                t.insert(e);
            }
            for i in 0..4u64 {
                let e = t
                    .lookup(1, span * (8 + i) + 5)
                    .expect("evicted by a neighbour");
                assert_eq!((e.pfn, e.span), ((1000 * i) as Pfn, span));
            }
            // Both invalidates find them at their new slots.
            t.invalidate_page(1, span * 9 + 7);
            assert!(t.lookup(1, span * 9).is_none());
            t.invalidate_range(1, span * 10 + 3, 2);
            assert!(t.lookup(1, span * 10).is_none());
            assert!(t.lookup(1, span * 8).is_some() && t.lookup(1, span * 11).is_some());
            t.flush();
        }
    }

    #[test]
    fn invalidate_range_kills_overlapping_span() {
        let mut t = Tlb::new(64);
        let base = BLOCK_PAGES * 2;
        t.insert(span_entry(1, base, 1000));
        // Range strictly inside the block, not touching the base page.
        t.invalidate_range(1, base + 100, 4);
        assert!(t.lookup(1, base).is_none(), "span must die on overlap");
        // Disjoint range leaves a fresh span alone.
        t.insert(span_entry(1, base, 1000));
        t.invalidate_range(1, base + BLOCK_PAGES, 16);
        assert!(t.lookup(1, base + 5).is_some());
        // invalidate_page inside the span kills it too.
        t.invalidate_page(1, base + 300);
        assert!(t.lookup(1, base + 5).is_none());
    }

    #[test]
    fn invalidate_asid_spares_others() {
        let mut t = Tlb::new(64);
        t.insert(entry(1, 1, 1));
        t.insert(entry(2, 2, 2));
        t.invalidate_asid(1);
        assert!(t.lookup(1, 1).is_none());
        assert!(t.lookup(2, 2).is_some());
        t.flush();
        assert!(t.lookup(2, 2).is_none());
    }
}
