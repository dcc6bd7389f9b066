//! Weak references: packed words with a dying bit (paper §3.1).
//!
//! A weak reference is a single [`Atomic64`] word holding a 16-byte-aligned
//! pointer plus control bits. The word typically *is* a radix-tree slot, so
//! the layout reserves bits for the tree's own use (a lock bit and a
//! two-bit slot kind) which every Refcache operation preserves:
//!
//! ```text
//!  63      48 47                         4  3  2      1      0
//! +----------+----------------------------+----+------+------+
//! |  unused  |     pointer bits [47:4]    |TAG | DYING| LOCK |
//! +----------+----------------------------+----+------+------+
//! ```
//!
//! Protocol (paper §3.1):
//! * When an object's global count first reaches zero, Refcache sets
//!   `DYING` on its weak word.
//! * `tryget` revives a dying object by clearing `DYING` with a CAS, then
//!   incrementing; if the pointer is already gone it reports deletion.
//!   When `DYING` is clear, a plain load plus increment suffices — review
//!   re-checks the global count after a full epoch of flushes, so a racing
//!   increment is always observed before any free decision.
//! * The freeing path CASes the exact word `(ptr | tag | DYING)`, with
//!   `LOCK` clear, to zero. A concurrent revive (cleared `DYING`) or a
//!   held lock makes the CAS fail and the object is re-reviewed two epochs
//!   later. Whoever clears the dying bit first — tryget or free — wins.

use rvm_sync::atomic::Ordering;
use rvm_sync::Atomic64;

/// Slot lock bit; owned by the data structure embedding the weak word and
/// preserved by all Refcache operations.
pub const LOCK_BIT: u64 = 1 << 0;
/// Dying bit; owned by Refcache.
pub const DYING_BIT: u64 = 1 << 1;
/// Mask of the user tag bits (slot kind).
pub const TAG_MASK: u64 = 0b11 << 2;
/// Shift of the user tag within the word.
pub const TAG_SHIFT: u32 = 2;
/// Mask of the pointer bits. Pointers must be 16-byte aligned and within
/// the canonical 48-bit user address range.
pub const PTR_MASK: u64 = 0x0000_FFFF_FFFF_FFF0;

/// Packs a pointer and tag into a weak word (lock and dying bits clear).
#[inline]
pub fn pack(ptr: usize, tag: u8) -> u64 {
    debug_assert_eq!(ptr as u64 & !PTR_MASK, 0, "pointer not packable");
    debug_assert!(tag < 4);
    ptr as u64 | ((tag as u64) << TAG_SHIFT)
}

/// Extracts the pointer bits from a weak word.
#[inline]
pub fn ptr_bits(word: u64) -> usize {
    (word & PTR_MASK) as usize
}

/// Extracts the tag from a weak word.
#[inline]
pub fn tag_bits(word: u64) -> u8 {
    ((word & TAG_MASK) >> TAG_SHIFT) as u8
}

/// Returns true if the word's dying bit is set.
#[inline]
pub fn is_dying(word: u64) -> bool {
    word & DYING_BIT != 0
}

/// Sets the dying bit on a weak word, preserving all other bits.
#[inline]
pub(crate) fn set_dying(word: &Atomic64) {
    word.fetch_or(DYING_BIT, Ordering::AcqRel);
}

/// Clears the dying bit on a weak word, preserving all other bits.
#[inline]
pub(crate) fn clear_dying(word: &Atomic64) {
    word.fetch_and(!DYING_BIT, Ordering::AcqRel);
}

/// Outcome of a low-level tryget attempt on a weak word.
pub(crate) enum TrygetOutcome {
    /// The word holds a live (or revived) pointer with the expected tag.
    Got(usize),
    /// The word does not hold the expected tag / pointer is gone.
    Absent,
}

/// Attempts to obtain the pointer from a weak word, reviving a dying
/// object if necessary. Does **not** increment; the caller does that
/// right after, with its core's lock held across both (see the
/// module docs for why the inc may follow the load on the fast path, and
/// the crate docs for why no flush of the core may come between).
pub(crate) fn tryget_raw(word: &Atomic64, tag: u8) -> TrygetOutcome {
    loop {
        let v = word.load(Ordering::Acquire);
        if tag_bits(v) != tag || v & PTR_MASK == 0 {
            return TrygetOutcome::Absent;
        }
        if !is_dying(v) {
            // Fast path: object is not being reclaimed. Any free decision
            // happens at least two epoch boundaries after DYING was set,
            // by which time our subsequent increment has flushed and the
            // reviewer observes a non-zero count.
            return TrygetOutcome::Got(ptr_bits(v));
        }
        // Revival: clear DYING before the freeing CAS can observe it set.
        if word
            .compare_exchange(v, v & !DYING_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return TrygetOutcome::Got(ptr_bits(v));
        }
        // Lost a race (lock bit flip, concurrent revive, or free); retry
        // from a fresh load.
    }
}

/// Attempts the freeing CAS: `(ptr | tag | DYING, LOCK clear) → 0`.
///
/// Returns true if the word was cleared and the object may be freed.
pub(crate) fn try_clear_for_free(word: &Atomic64, ptr: usize, tag: u8) -> bool {
    let expected = pack(ptr, tag) | DYING_BIT;
    word.compare_exchange(expected, 0, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let p = 0x7f12_3456_7890usize & !0xf;
        let w = pack(p, 2);
        assert_eq!(ptr_bits(w), p);
        assert_eq!(tag_bits(w), 2);
        assert!(!is_dying(w));
    }

    #[test]
    fn dying_set_clear_preserves_bits() {
        let p = 0x1000usize;
        let w = Atomic64::new(pack(p, 1) | LOCK_BIT);
        set_dying(&w);
        let v = w.load(Ordering::Acquire);
        assert!(is_dying(v));
        assert_eq!(v & LOCK_BIT, LOCK_BIT);
        assert_eq!(ptr_bits(v), p);
        clear_dying(&w);
        let v = w.load(Ordering::Acquire);
        assert!(!is_dying(v));
        assert_eq!(v & LOCK_BIT, LOCK_BIT);
    }

    #[test]
    fn tryget_fast_path() {
        let p = 0x2000usize;
        let w = Atomic64::new(pack(p, 1));
        match tryget_raw(&w, 1) {
            TrygetOutcome::Got(q) => assert_eq!(q, p),
            TrygetOutcome::Absent => panic!("expected pointer"),
        }
        // Wrong tag is absent.
        assert!(matches!(tryget_raw(&w, 2), TrygetOutcome::Absent));
        // Empty word is absent.
        let empty = Atomic64::new(0);
        assert!(matches!(tryget_raw(&empty, 0), TrygetOutcome::Absent));
    }

    #[test]
    fn tryget_revives_dying() {
        let p = 0x3000usize;
        let w = Atomic64::new(pack(p, 1) | DYING_BIT);
        match tryget_raw(&w, 1) {
            TrygetOutcome::Got(q) => assert_eq!(q, p),
            TrygetOutcome::Absent => panic!("expected revive"),
        }
        assert!(!is_dying(w.load(Ordering::Acquire)));
    }

    #[test]
    fn free_cas_requires_dying_and_unlocked() {
        let p = 0x4000usize;
        // Not dying: free fails.
        let w = Atomic64::new(pack(p, 1));
        assert!(!try_clear_for_free(&w, p, 1));
        // Dying but locked: free fails.
        let w = Atomic64::new(pack(p, 1) | DYING_BIT | LOCK_BIT);
        assert!(!try_clear_for_free(&w, p, 1));
        // Dying and unlocked: free succeeds and empties the word.
        let w = Atomic64::new(pack(p, 1) | DYING_BIT);
        assert!(try_clear_for_free(&w, p, 1));
        assert_eq!(w.load(Ordering::Acquire), 0);
    }

    #[test]
    fn revive_beats_free() {
        let p = 0x5000usize;
        let w = Atomic64::new(pack(p, 1) | DYING_BIT);
        // tryget clears dying first...
        assert!(matches!(tryget_raw(&w, 1), TrygetOutcome::Got(_)));
        // ...so the free CAS must fail.
        assert!(!try_clear_for_free(&w, p, 1));
    }
}
