//! Refcache-managed objects.
//!
//! Objects whose lifetime is governed by Refcache are allocated as an
//! [`RcBox`]: a [`Header`] followed by the payload. The header carries the
//! object's *global* reference count (protected by a fine-grained lock, as
//! in the paper's Figure 2), review-queue bookkeeping, the address of the
//! object's (single, optional) weak-reference word, and a type-erased drop
//! function so the cache can free objects of any payload type.

use std::ptr::NonNull;
use std::sync::atomic::AtomicUsize;

use rvm_sync::SpinLock;

use crate::Refcache;

/// A payload type whose lifetime is managed by [`Refcache`].
pub trait Managed: Send + Sync + 'static {
    /// Called exactly once, when the object's true reference count has been
    /// confirmed zero, immediately before deallocation.
    ///
    /// Implementations may perform further Refcache operations through
    /// `ctx` (for example, a radix-tree node decrements its parent here).
    fn on_release(&mut self, ctx: &ReleaseCtx<'_>);
}

/// Context passed to [`Managed::on_release`].
pub struct ReleaseCtx<'a> {
    /// The cache that is freeing the object.
    pub cache: &'a Refcache,
    /// The core on which the release is executing.
    pub core: usize,
}

/// Mutable reference-count state, protected by the per-object lock.
pub(crate) struct ObjState {
    /// The global reference count (sum of all flushed deltas). May be
    /// transiently negative because deltas flush in no particular order.
    pub(crate) refcnt: i64,
    /// Set when the global count changed while the object sat on a review
    /// queue; a dirty zero must be re-reviewed (paper §3.1).
    pub(crate) dirty: bool,
    /// True while the object is on some core's review queue.
    pub(crate) on_review: bool,
    /// The cores that added references to a slot-backed cell since it
    /// was activated: 0 for none, `c + 1` for core `c` alone,
    /// [`ObjState::SEVERAL`] for more than one. A zero a cell's only
    /// adder applies is final (module docs in [`crate`]). Boxed objects
    /// never record.
    pub(crate) adders: u16,
}

impl ObjState {
    /// [`ObjState::adders`] once two cores have added.
    pub(crate) const SEVERAL: u16 = u16::MAX;

    /// Whether no core but `core` has added to the cell since its
    /// activation: a zero it applies is final (module docs in [`crate`]).
    pub(crate) fn only_adder_is(&self, core: usize) -> bool {
        self.adders == 0 || self.adders == core as u16 + 1
    }

    /// A state with count `refcnt`, off review, clean, with no adders.
    pub(crate) const fn new(refcnt: i64) -> Self {
        ObjState {
            refcnt,
            dirty: false,
            on_review: false,
            adders: 0,
        }
    }
}

/// Header shared by all Refcache-counted locations — the storage-
/// independent core every cache operation manipulates. It lives either
/// at the head of a heap [`RcBox`] (boxed storage, freed on zero) or
/// embedded in an external table entry ([`crate::slot::CountSlot`],
/// slot-backed storage: the zero-count action runs in place and the
/// cell returns to the dormant state for reuse).
#[repr(C)]
pub struct Header {
    pub(crate) state: SpinLock<ObjState>,
    /// Address of the external weak-reference word, or 0 if the object has
    /// no weak reference. Written once at registration.
    pub(crate) weak: AtomicUsize,
    /// Type-erased zero-count action. Boxed storage reconstructs and
    /// frees the concrete `Box<RcBox<T>>`; slot-backed storage runs the
    /// payload's action and resets the cell without freeing memory.
    ///
    /// # Safety
    ///
    /// Must only be called with the count confirmed true-zero, at most
    /// once per boxed allocation / per slot activation.
    pub(crate) drop_fn: unsafe fn(*mut Header, &ReleaseCtx<'_>),
    /// True for table-embedded cells (stats attribution and teardown
    /// assertions; the mechanism itself is storage-blind).
    pub(crate) slot_backed: bool,
}

/// A copyable handle to a Refcache-counted location, generic over
/// *where the count lives*: heap-boxed objects ([`RcPtr`]) and
/// table-embedded cells ([`crate::slot::SlotPtr`]) both implement it, so
/// `inc`/`dec` and the whole delta-cache/epoch/review machinery work on
/// either storage.
pub trait Counted: Copy {
    /// Whether the count is a table-embedded cell, whose positive
    /// adjustments record their core (internal plumbing: boxed objects
    /// neither read the header nor take its lock in `adjust`).
    #[doc(hidden)]
    const SLOT_BACKED: bool = false;

    /// Address of the location's count [`Header`] (internal plumbing;
    /// stable for the object's lifetime).
    #[doc(hidden)]
    fn count_addr(self) -> usize;
}

impl<T> Counted for RcPtr<T> {
    #[inline]
    fn count_addr(self) -> usize {
        self.addr()
    }
}

/// A Refcache-managed allocation: header followed by payload.
///
/// The 16-byte alignment guarantees the low four pointer bits are free for
/// the packed weak-word encoding (lock, dying, tag bits; see
/// [`crate::weak`]).
#[repr(C, align(16))]
pub struct RcBox<T> {
    pub(crate) hdr: Header,
    pub(crate) obj: T,
}

/// An untyped handle to a managed object (pointer to its header).
pub(crate) type ObjPtr = NonNull<Header>;

/// A typed handle to a Refcache-managed object.
///
/// `RcPtr` is a plain copyable pointer: it does **not** own a reference by
/// itself. The holder is responsible for the logical reference discipline:
/// each `RcPtr` dereference must be covered by an outstanding reference
/// (an un-decremented `inc`, the initial allocation count, or a successful
/// `tryget`).
pub struct RcPtr<T> {
    pub(crate) raw: NonNull<RcBox<T>>,
}

impl<T> Clone for RcPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for RcPtr<T> {}

impl<T> PartialEq for RcPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<T> Eq for RcPtr<T> {}

impl<T> std::fmt::Debug for RcPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RcPtr({:p})", self.raw)
    }
}

// SAFETY: `RcPtr` is a pointer to a heap allocation whose payload is
// `Send + Sync` (required by `Managed`); the pointer itself may freely move
// between threads.
unsafe impl<T: Send + Sync> Send for RcPtr<T> {}
// SAFETY: as above; all mutation of the header goes through its lock or
// atomics.
unsafe impl<T: Send + Sync> Sync for RcPtr<T> {}

impl<T> RcPtr<T> {
    /// Returns the untyped header pointer.
    #[inline]
    pub(crate) fn header(self) -> ObjPtr {
        // SAFETY: `RcBox` is `repr(C)` with the header first, so the casts
        // preserve the address and the pointer remains non-null.
        unsafe { NonNull::new_unchecked(self.raw.as_ptr() as *mut Header) }
    }

    /// Reconstructs a typed handle from a header pointer.
    ///
    /// # Safety
    ///
    /// `h` must point to the header of an `RcBox<T>` with payload type `T`.
    #[inline]
    pub(crate) unsafe fn from_header(h: ObjPtr) -> Self {
        RcPtr {
            raw: NonNull::new_unchecked(h.as_ptr() as *mut RcBox<T>),
        }
    }

    /// Dereferences the payload.
    ///
    /// # Safety
    ///
    /// The caller must hold a logical reference to the object (see the type
    /// documentation); otherwise the object may already have been freed.
    #[inline]
    pub unsafe fn as_ref<'a>(self) -> &'a T {
        &(*self.raw.as_ptr()).obj
    }

    /// Returns the raw address of the object (stable for its lifetime).
    #[inline]
    pub fn addr(self) -> usize {
        self.raw.as_ptr() as usize
    }

    /// Reconstructs a handle from an address previously produced by
    /// [`RcPtr::addr`] (e.g. one stored in a packed slot word).
    ///
    /// # Safety
    ///
    /// `addr` must be the address of a live `RcBox<T>` allocated by
    /// [`Refcache::alloc`] with payload type `T`.
    #[inline]
    pub unsafe fn from_raw_addr(addr: usize) -> Self {
        RcPtr {
            raw: NonNull::new_unchecked(addr as *mut RcBox<T>),
        }
    }
}

/// Type-erased drop glue for `RcBox<T>`.
///
/// # Safety
///
/// `h` must be the sole remaining pointer to a live `RcBox<T>` allocated by
/// [`Refcache::alloc`]; the allocation is freed.
pub(crate) unsafe fn drop_impl<T: Managed>(h: *mut Header, ctx: &ReleaseCtx<'_>) {
    let mut boxed = Box::from_raw(h as *mut RcBox<T>);
    boxed.obj.on_release(ctx);
    drop(boxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rcbox_layout() {
        // Header must be at offset 0 and the box 16-byte aligned so that
        // packed weak words have four tag bits available.
        assert_eq!(std::mem::align_of::<RcBox<u64>>(), 16);
        let b = RcBox {
            hdr: Header {
                state: SpinLock::new(ObjState::new(0)),
                weak: AtomicUsize::new(0),
                drop_fn: |_, _| (),
                slot_backed: false,
            },
            obj: 42u64,
        };
        let base = &b as *const _ as usize;
        let hdr = &b.hdr as *const _ as usize;
        assert_eq!(base, hdr);
        assert_eq!(base % 16, 0);
        // `adders` sits in what was padding: a header is no bigger.
        assert_eq!(std::mem::size_of::<ObjState>(), 16);
    }
}
