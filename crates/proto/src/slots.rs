//! Fixed-width per-sub-stream arrays that live inline in an arena column.

/// Widest `K` stored without a heap allocation. The deployed system ran
/// `K = 6` (Table I); eight 8-byte slots are one cache line.
pub(crate) const INLINE: usize = 8;

/// One value per sub-stream: inline up to [`INLINE`] sub-streams, one
/// boxed slice above. The width is fixed at construction; reads and
/// writes go through the slice deref.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Slots<T> {
    /// `len ≤ INLINE` live values at the front of the array.
    Inline(usize, [T; INLINE]),
    /// More than [`INLINE`] sub-streams.
    Spill(Box<[T]>),
}

impl<T: Copy + Default> Slots<T> {
    /// `k` default-valued slots.
    pub(crate) fn new(k: usize) -> Self {
        if k <= INLINE {
            Slots::Inline(k, [T::default(); INLINE])
        } else {
            Slots::Spill(vec![T::default(); k].into_boxed_slice())
        }
    }
}

impl<T> std::ops::Deref for Slots<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Slots::Inline(len, a) => &a[..*len],
            Slots::Spill(b) => b,
        }
    }
}

impl<T> std::ops::DerefMut for Slots<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Slots::Inline(len, a) => &mut a[..*len],
            Slots::Spill(b) => b,
        }
    }
}
