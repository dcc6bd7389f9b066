//! Baseline systems the RadixVM paper compares against.
//!
//! * [`LinuxVm`] — the conventional design: a single address-space
//!   read-write lock over a VMA map, one shared page table, broadcast TLB
//!   shootdown (§2).
//! * [`BonsaiVm`] — Bonsai-style concurrent page faults: lock-free region
//!   lookups over an RCU-managed balanced tree; mmap/munmap serialized
//!   (Clements et al., ASPLOS 2012).
//! * [`SkipList`] — the lock-free concurrent skip list of §5.5 (Figure 6),
//!   demonstrating why "lock-free" does not imply "contention-free" for
//!   balanced structures.

pub mod bonsai;
pub mod linux;
pub mod skiplist;
pub mod vma;

pub use bonsai::BonsaiVm;
pub use linux::LinuxVm;
pub use skiplist::SkipList;
pub use vma::{Vma, VmaMap};

use rvm_hw::{Asid, Machine, Pfn, Vpn};
use rvm_sync::atomic::AtomicCoreSet;

/// The tail of an eager unmap, once the page table no longer maps the
/// `freed` frames: one shootdown of `lo..lo+n` broadcast to every core
/// in `attached` (with no per-core tracking, any of them may cache a
/// translation), then each frame whose last mapping this was goes back
/// to the pool. Only mapped pages can be in a TLB, so a removal that
/// freed nothing shoots nothing down.
pub(crate) fn release_unmapped(
    machine: &Machine,
    core: usize,
    asid: Asid,
    lo: Vpn,
    n: u64,
    attached: &AtomicCoreSet,
    freed: Vec<Pfn>,
) {
    if freed.is_empty() {
        return;
    }
    machine.shootdown(core, asid, lo, n, attached.load());
    let pool = machine.pool();
    for pfn in freed {
        if pool.dec_map(pfn) {
            pool.free(core, pfn);
        }
    }
}
