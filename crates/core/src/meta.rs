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
//! Frame ownership is **one** plain [`FrameRef`] handle per value,
//! whatever the granularity: the reference count lives in the frame
//! table's embedded Refcache cell ([`rvm_mem::FramePool::retain`],
//! DESIGN.md §8), and the handle's `order` says what it is a reference
//! on — 0 for the page's own frame, the block order for the head of a
//! superpage block. Carrying, duplicating (fork), and dropping a frame
//! reference never touches the heap, and the value is one cache line.

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
/// (`file_anchor` is relative to VPN, and `frame`/`coreset` start
/// empty), so fresh mappings fold. Fault-time state (`frame`, `coreset`,
/// `Cow` resolution) is only ever written to *expanded* per-page copies
/// under the page's slot lock — except the folded-block fault state
/// governed by the superpage protocol (DESIGN.md §7).
#[derive(Clone)]
pub struct PageMeta {
    /// What backs the mapping.
    pub backing: Backing,
    /// Protection bits.
    pub prot: Prot,
    /// Plain or copy-on-write.
    pub kind: PageKind,
    /// The one frame-table reference this value owns, once faulted; the
    /// handle's `order` says on what.
    ///
    /// * `order == 0`: the page's own 4 KiB frame. Only ever on a page
    ///   value — a 4 KiB fault expands to leaf granularity first — so
    ///   cloning a fold's template never duplicates a page reference.
    /// * `order > 0`: the head of a contiguous superpage block (the
    ///   handle's `pfn` is the block base). On a *folded* value it is
    ///   block state, one reference for the whole span, and the block
    ///   covers at least the fold (`1 << order >=` the fold's pages). On
    ///   an *expanded* (demoted) value it is that value's share, one
    ///   reference per clone, adopted by the demotion protocol under
    ///   the expansion's born-held slot locks (DESIGN.md §7) — the only
    ///   place a fold with fault state may legally expand.
    pub frame: Option<FrameRef>,
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
            frame: None,
            huge: false,
            coreset: CoreSet::EMPTY,
        }
    }

    /// The frame backing `vpn` under this metadata, if faulted: the
    /// page's own frame, or the member frame of the superpage block
    /// (see [`block_member`]; at order 0 the mask is empty and the
    /// member is the frame itself). Pure arithmetic on the handle — no
    /// dereference, no ownership traffic.
    pub fn frame_for(&self, vpn: u64) -> Option<Pfn> {
        self.frame.map(|f| block_member(f, vpn))
    }
}

/// The member frame backing `vpn` in the block whose head `block`
/// references. Blocks are virtually aligned, so the offset is `vpn`'s
/// low bits, masked by the *handle's* order — a page demoted out of a
/// 1 GiB block keeps a giant-head handle and still resolves its member.
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
        let pfn = pool.try_alloc(0).unwrap();
        let r = pool.retain(&cache, &cache.lock(0).cells(), pfn, 0, 1);
        pool.ref_adjust(&cache, &mut cache.lock(0).cells(), r, -1);
        cache.quiesce();
        // The frame is back on core 0's free list.
        let again = pool.try_alloc(0).unwrap();
        assert_eq!(again, pfn);
        assert_eq!(pool.stats().reused, 1);
    }

    /// One handle keeps the value on one cache line and a leaf at
    /// 512 × 80 B = 40 KiB; a second handle (96 / 112 B, a 56 KiB leaf)
    /// fails here.
    #[test]
    fn pagemeta_is_one_cache_line_and_a_leaf_slot_eighty_bytes() {
        assert_eq!(std::mem::size_of::<PageMeta>(), 64);
        assert_eq!(
            std::mem::size_of::<rvm_radix::node::LeafSlot<PageMeta>>(),
            80
        );
    }

    #[test]
    fn pagemeta_template_is_foldable() {
        let m = PageMeta::new(Backing::Anon, Prot::RW);
        assert!(m.frame.is_none());
        assert!(m.coreset.is_empty());
        let c = m.clone();
        assert!(c.frame.is_none());
        assert_eq!(c.prot, Prot::RW);
    }

    #[test]
    fn frame_for_resolves_block_members_by_offset() {
        let pool = FramePool::new(1);
        let cache = Refcache::new(1);
        let base = pool.try_alloc_block(0, BLOCK_ORDER).unwrap();
        let mut m = PageMeta::new(Backing::Anon, Prot::RW);
        m.frame = Some(pool.retain(&cache, &cache.lock(0).cells(), base, BLOCK_ORDER, 1));
        let vpn_base = 7 * BLOCK_PAGES as u64; // virtually aligned
        assert_eq!(m.frame_for(vpn_base), Some(base));
        assert_eq!(m.frame_for(vpn_base + 17), Some(base + 17));
        pool.ref_adjust(
            &cache,
            &mut cache.lock(0).cells(),
            m.frame.take().unwrap(),
            -1,
        );
        cache.quiesce();
        assert_eq!(pool.outstanding_frames(), 0);
    }
}
