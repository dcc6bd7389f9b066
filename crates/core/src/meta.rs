//! Per-page mapping metadata over frame-table ownership.
//!
//! Unlike Linux's one-VMA-per-region design, RadixVM stores a *separate
//! copy* of the mapping metadata for each page (§3.2): the metadata is
//! small, copies eliminate the shared object that would otherwise be
//! contended when mappings split or merge, and — crucially — the initial
//! metadata is **identical for every page** of a mapping, so large
//! mappings fold into a handful of radix-tree slots.
//!
//! The metadata also records, per page, the backing physical frame
//! (making the radix tree the canonical owner of physical memory, so
//! hardware page tables are disposable caches) and the set of cores that
//! faulted the page — the basis of targeted TLB shootdown (§3.3).
//!
//! Frame ownership is a plain [`FrameRef`] handle: the reference count
//! lives in the frame table's embedded Refcache cell
//! ([`rvm_mem::FramePool::retain`], DESIGN.md §8), so
//! carrying, duplicating (fork), and dropping a frame reference never
//! touches the heap. There is no per-fault ownership object anymore —
//! the table *is* the authority.

use rvm_hw::{Backing, Prot};
use rvm_mem::{FrameRef, Pfn};
use rvm_sync::CoreSet;

/// How the page's contents are produced and whether writes must copy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageKind {
    /// Ordinary anonymous or file page.
    Plain,
    /// Copy-on-write: shared with another address space; a write fault
    /// copies the frame and drops one reference.
    Cow,
}

/// Per-page mapping metadata: the radix tree's value type.
///
/// Designed to be identical for every page of a mapping at `mmap` time
/// (`file_anchor` is relative to VPN, and `phys`/`coreset` start empty),
/// so fresh mappings fold. Fault-time state (`phys`, `coreset`, `Cow`
/// resolution) is only ever written to *expanded* per-page copies under
/// the page's slot lock — except the folded-block fault state governed
/// by the superpage protocol (DESIGN.md §7).
#[derive(Clone)]
pub struct PageMeta {
    /// What backs the mapping.
    pub backing: Backing,
    /// Protection bits.
    pub prot: Prot,
    /// Plain or copy-on-write.
    pub kind: PageKind,
    /// The page's frame, once faulted at 4 KiB granularity: one owning
    /// reference on the frame table's *page* slot.
    ///
    /// Invariant: folded (block) metadata never has `phys` set — a 4 KiB
    /// fault expands to leaf granularity first — so cloning templates
    /// never duplicates a reference.
    pub phys: Option<FrameRef>,
    /// The contiguous superpage block backing this page, once a
    /// superpage fault populated it: a reference on the frame table's
    /// *block-head* slot (the handle's `pfn` is the block base). On a
    /// *folded* value this is block state: one reference for the whole
    /// block. On an *expanded* (demoted) per-page value it is per-page
    /// state: one reference per page, adopted by the demotion protocol
    /// under the expansion's born-held slot locks (DESIGN.md §7) — the
    /// only place a fold with fault state may legally expand.
    pub block: Option<FrameRef>,
    /// Huge-page hint from `mmap` ([`rvm_hw::MapFlags::HUGE`]): aligned
    /// folded blocks of this mapping may be populated by one superpage
    /// PTE. Template state (identical for every page), so it folds.
    pub huge: bool,
    /// Cores that faulted this page into their per-core page tables (the
    /// targeted-shootdown set). For a folded block value: the cores that
    /// installed the block PTE. Mutated only under the slot lock.
    pub coreset: CoreSet,
}

impl PageMeta {
    /// Fresh metadata for a new mapping (foldable: no fault state).
    pub fn new(backing: Backing, prot: Prot) -> Self {
        PageMeta {
            backing,
            prot,
            kind: PageKind::Plain,
            phys: None,
            block: None,
            huge: false,
            coreset: CoreSet::EMPTY,
        }
    }

    /// The frame backing `vpn` under this metadata, if faulted: the
    /// per-page frame, or the member frame of the superpage block
    /// (blocks are virtually aligned, so the offset is `vpn`'s low
    /// bits, masked by the *handle's* order — a page demoted out of a
    /// 1 GiB block keeps a giant-head handle and still resolves its
    /// member). Pure arithmetic on the handle — no dereference, no
    /// ownership traffic.
    pub fn frame_for(&self, vpn: u64) -> Option<Pfn> {
        if let Some(r) = self.phys {
            return Some(r.pfn);
        }
        self.block.map(|b| block_member(b, vpn))
    }

    /// The frame-table references this metadata owns: its page frame
    /// and its block, whichever are set (one reference each).
    pub fn frames(&self) -> impl Iterator<Item = FrameRef> {
        self.phys.into_iter().chain(self.block)
    }
}

/// The member frame backing `vpn` in the superpage block whose head
/// `block` references (see [`PageMeta::frame_for`]).
pub fn block_member(block: FrameRef, vpn: u64) -> Pfn {
    block.pfn + (vpn & ((1u64 << block.order) - 1)) as Pfn
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_mem::{FramePool, BLOCK_ORDER, BLOCK_PAGES};
    use rvm_refcache::Refcache;

    #[test]
    fn page_reference_returns_frame_on_release() {
        let pool = FramePool::new(1);
        let cache = Refcache::new(1);
        let pfn = pool.alloc(0);
        let r = pool.retain(&cache, 0, pfn, 0, 1);
        pool.ref_adjust(&cache, 0, r, -1);
        cache.quiesce();
        // The frame is back on core 0's free list.
        let again = pool.alloc(0);
        assert_eq!(again, pfn);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn pagemeta_template_is_foldable() {
        let m = PageMeta::new(Backing::Anon, Prot::RW);
        assert!(m.phys.is_none());
        assert!(m.coreset.is_empty());
        let c = m.clone();
        assert!(c.phys.is_none());
        assert_eq!(c.prot, Prot::RW);
    }

    #[test]
    fn frame_for_resolves_block_members_by_offset() {
        let pool = FramePool::new(1);
        let cache = Refcache::new(1);
        let base = pool.alloc_block(0, BLOCK_ORDER);
        let mut m = PageMeta::new(Backing::Anon, Prot::RW);
        m.block = Some(pool.retain(&cache, 0, base, BLOCK_ORDER, 1));
        let vpn_base = 7 * BLOCK_PAGES as u64; // virtually aligned
        assert_eq!(m.frame_for(vpn_base), Some(base));
        assert_eq!(m.frame_for(vpn_base + 17), Some(base + 17));
        pool.ref_adjust(&cache, 0, m.block.take().unwrap(), -1);
        cache.quiesce();
        assert_eq!(pool.outstanding_frames(), 0);
    }
}
