//! Distribution statistics: exact empirical CDFs and fixed-width
//! histograms — the plotting primitives behind Figs. 6, 7 and 10.

/// An exact empirical CDF over `f64` samples.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.total_cmp(b));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let ix = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[ix])
    }

    /// The median.
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Smallest / largest sample.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// Evaluate the CDF at each of `xs` — one row per plotting point.
    pub fn curve(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter()
            .map(|&x| (x, self.fraction_at_or_below(x)))
            .collect()
    }

    /// A tail-heaviness diagnostic: `q99 / median`. Heavy-tailed data has
    /// large values (the paper calls Figs. 6 and 10a heavy-tailed).
    pub fn tail_ratio(&self) -> Option<f64> {
        let med = self.median()?;
        if med <= 0.0 {
            return None;
        }
        Some(self.quantile(0.99)? / med)
    }
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    /// Samples below `lo` / at-or-above `hi`.
    pub underflow: u64,
    /// Samples at or above the upper edge.
    pub overflow: u64,
}

impl Histogram {
    /// `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let ix = ((x - self.lo) / self.width) as usize;
        if ix >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[ix] += 1;
        }
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total in-range samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(bin_center, count)` rows.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * self.width, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fraction_and_quantiles() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(c.fraction_at_or_below(0.0), 0.0);
        assert_eq!(c.fraction_at_or_below(3.0), 0.6);
        assert_eq!(c.fraction_at_or_below(10.0), 1.0);
        assert_eq!(c.median(), Some(3.0));
        assert_eq!(c.quantile(0.0), Some(1.0));
        assert_eq!(c.quantile(1.0), Some(5.0));
        assert_eq!(c.mean(), Some(3.0));
        assert_eq!(c.min_max(), Some((1.0, 5.0)));
    }

    #[test]
    fn cdf_handles_duplicates_and_nan() {
        let c = Cdf::new(vec![2.0, f64::NAN, 2.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.fraction_at_or_below(2.0), 1.0);
        assert_eq!(c.fraction_at_or_below(1.9), 0.0);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.5), None);
        assert_eq!(c.mean(), None);
        assert_eq!(c.fraction_at_or_below(1.0), 0.0);
        assert_eq!(c.tail_ratio(), None);
    }

    #[test]
    fn tail_ratio_detects_heavy_tail() {
        // Uniform-ish data: tail ratio near 2; Pareto-ish data: large.
        let uniform = Cdf::new((1..=1000).map(|i| i as f64).collect());
        assert!(uniform.tail_ratio().unwrap() < 2.5);
        let heavy = Cdf::new((1..=1000).map(|i| 1.0 / (i as f64 / 1000.0)).collect());
        assert!(heavy.tail_ratio().unwrap() > 20.0);
    }

    #[test]
    fn curve_rows() {
        let c = Cdf::new(vec![1.0, 2.0]);
        let rows = c.curve(&[0.5, 1.5, 2.5]);
        assert_eq!(rows, vec![(0.5, 0.0), (1.5, 0.5), (2.5, 1.0)]);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.9, 9.9, -1.0, 10.0, 42.0] {
            h.add(x);
        }
        // Width 2 bins: [0,2) ← {0.5, 1.5}; [2,4) ← {2.5, 2.9}; [8,10) ← 9.9.
        assert_eq!(h.counts(), &[2, 2, 0, 0, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 5);
        let rows = h.rows();
        assert_eq!(rows[0], (1.0, 2));
        assert_eq!(rows[4], (9.0, 1));
    }
}
