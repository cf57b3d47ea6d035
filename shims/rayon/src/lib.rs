//! Offline stand-in for `rayon`: the parallel-iterator entry points
//! this workspace uses (`into_par_iter().map(..).collect()` and
//! friends), executed *sequentially*.
//!
//! The workspace's own tests require that rayon parallelism never
//! changes results (`parallel_sweep_matches_sequential`), so a
//! sequential drop-in is semantically exact — it only gives up the
//! wall-clock speedup, which no test depends on.

#![forbid(unsafe_code)]

/// A "parallel" iterator: a thin wrapper over a sequential one.
pub struct ParIter<I> {
    inner: I,
}

impl<I: Iterator> ParIter<I> {
    /// Transform each item.
    pub fn map<U, F: FnMut(I::Item) -> U>(self, f: F) -> ParIter<core::iter::Map<I, F>> {
        ParIter {
            inner: self.inner.map(f),
        }
    }

    /// Keep items matching the predicate.
    pub fn filter<F: FnMut(&I::Item) -> bool>(self, f: F) -> ParIter<core::iter::Filter<I, F>> {
        ParIter {
            inner: self.inner.filter(f),
        }
    }

    /// Pair each item with its index.
    pub fn enumerate(self) -> ParIter<core::iter::Enumerate<I>> {
        ParIter {
            inner: self.inner.enumerate(),
        }
    }

    /// Collect into any `FromIterator` container.
    pub fn collect<C: FromIterator<I::Item>>(self) -> C {
        self.inner.collect()
    }

    /// Run `f` on every item.
    pub fn for_each<F: FnMut(I::Item)>(self, f: F) {
        self.inner.for_each(f)
    }

    /// Sum the items.
    pub fn sum<S: core::iter::Sum<I::Item>>(self) -> S {
        self.inner.sum()
    }
}

/// Conversion into a [`ParIter`], mirroring rayon's trait of the same
/// name.
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item;
    /// Underlying sequential iterator.
    type Iter: Iterator<Item = Self::Item>;

    /// Convert into a "parallel" iterator.
    fn into_par_iter(self) -> ParIter<Self::Iter>;
}

impl<T: IntoIterator> IntoParallelIterator for T {
    type Item = T::Item;
    type Iter = T::IntoIter;

    fn into_par_iter(self) -> ParIter<T::IntoIter> {
        ParIter {
            inner: self.into_iter(),
        }
    }
}

/// What `use rayon::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn matches_sequential_map_collect() {
        let v: Vec<u32> = (0..10u32).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10u32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_and_sum() {
        let s: usize = vec![10usize, 20, 30]
            .into_par_iter()
            .enumerate()
            .map(|(i, x)| i + x)
            .sum();
        assert_eq!(s, 63);
    }
}
