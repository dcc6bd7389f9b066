//! A small vector with inline capacity for allocation-free hot paths.
//!
//! The RadixVM fault path must not touch the heap (the paper's whole
//! point is that disjoint faults share nothing, and a malloc is shared
//! state): range-lock guards store their locked units and traversal pins
//! in an [`InlineVec`] sized so single-page and single-block operations
//! never spill. When a large operation does exceed the inline capacity,
//! the vector spills to an ordinary `Vec` — correct, merely slower — and
//! reports the heap allocation to the simulator ([`crate::sim`]) so
//! virtual-time accounting stays faithful.

use std::mem::MaybeUninit;

use crate::sim;

/// A vector storing up to `N` elements inline, spilling to the heap
/// beyond that.
pub struct InlineVec<T, const N: usize> {
    data: Data<T, N>,
}

enum Data<T, const N: usize> {
    Inline {
        len: usize,
        buf: [MaybeUninit<T>; N],
    },
    Heap(Vec<T>),
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> Self {
        InlineVec {
            data: Data::Inline {
                len: 0,
                // SAFETY: an array of `MaybeUninit` needs no initialization.
                buf: unsafe { MaybeUninit::uninit().assume_init() },
            },
        }
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.data {
            Data::Inline { len, .. } => *len,
            Data::Heap(v) => v.len(),
        }
    }

    /// Returns true if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns true if the vector has spilled to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        matches!(self.data, Data::Heap(_))
    }

    /// Appends an element, spilling to the heap when the inline capacity
    /// is exceeded.
    #[inline]
    pub fn push(&mut self, value: T) {
        match &mut self.data {
            Data::Inline { len, buf } => {
                if *len < N {
                    buf[*len].write(value);
                    *len += 1;
                } else {
                    self.spill(value);
                }
            }
            Data::Heap(v) => v.push(value),
        }
    }

    /// Moves the inline elements into a heap vector and appends `value`.
    #[cold]
    fn spill(&mut self, value: T) {
        // The heap allocation is shared-state work the inline capacity
        // exists to avoid; charge it in virtual time.
        sim::charge_alloc();
        let mut v = Vec::with_capacity(2 * N + 1);
        if let Data::Inline { len, buf } = &mut self.data {
            debug_assert_eq!(*len, N);
            for slot in buf.iter().take(*len) {
                // SAFETY: slots `..len` are initialized; ownership moves
                // into the Vec and `len` is reset below so Drop will not
                // touch them again.
                v.push(unsafe { slot.assume_init_read() });
            }
            *len = 0;
        }
        v.push(value);
        self.data = Data::Heap(v);
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.data {
            Data::Inline { len, buf } => {
                // SAFETY: slots `..len` are initialized; `MaybeUninit<T>`
                // has the same layout as `T`.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const T, *len) }
            }
            Data::Heap(v) => v.as_slice(),
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.data {
            Data::Inline { len, buf } => {
                // SAFETY: as in `as_slice`.
                unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut T, *len) }
            }
            Data::Heap(v) => v.as_mut_slice(),
        }
    }

    /// Iterates over the elements.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Drop for InlineVec<T, N> {
    fn drop(&mut self) {
        if let Data::Inline { len, buf } = &mut self.data {
            for slot in buf.iter_mut().take(*len) {
                // SAFETY: slots `..len` are initialized and dropped once.
                unsafe { slot.assume_init_drop() };
            }
        }
        // Heap variant: Vec drops itself.
    }
}

impl<T, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn push_within_capacity_stays_inline() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spill_preserves_order() {
        let mut v: InlineVec<u64, 2> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn mutation_through_slice() {
        let mut v: InlineVec<u64, 3> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.as_mut_slice()[0] = 9;
        assert_eq!(v[0], 9);
        assert_eq!(v.iter().sum::<u64>(), 11);
    }

    #[test]
    fn drops_exactly_once_inline_and_spilled() {
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let mut v: InlineVec<D, 2> = InlineVec::new();
            v.push(D(drops.clone()));
            v.push(D(drops.clone()));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        drops.store(0, Ordering::SeqCst);
        {
            let mut v: InlineVec<D, 2> = InlineVec::new();
            for _ in 0..5 {
                v.push(D(drops.clone()));
            }
            assert_eq!(drops.load(Ordering::SeqCst), 0, "spill must move, not drop");
        }
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn spill_charges_virtual_alloc_cost() {
        let alloc = crate::model::ALLOC_NS;
        let g = sim::install(1, crate::CostModel::default());
        sim::switch(0);
        let mut v: InlineVec<u64, 1> = InlineVec::new();
        v.push(1);
        assert_eq!(sim::clock(0), 0, "inline pushes are free");
        v.push(2);
        assert_eq!(sim::clock(0), alloc, "spill charges one allocation");
        v.push(3);
        assert_eq!(sim::clock(0), alloc, "already spilled: no further charge");
        let st = g.finish();
        assert_eq!(st.cores[0].heap_allocs, 1);
    }
}
