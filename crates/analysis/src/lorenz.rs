//! Contribution-skew analytics: Lorenz curve, Gini coefficient, and
//! top-share — the machinery behind Fig. 3b ("30 % of the peers contribute
//! more than 80 % of the upload bytes").

/// The Lorenz curve of a non-negative contribution vector.
#[derive(Clone, Debug)]
pub struct Lorenz {
    /// Sorted ascending contributions.
    sorted: Vec<f64>,
    total: f64,
}

impl Lorenz {
    /// Build from contributions (negatives and NaNs dropped).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite() && *v >= 0.0);
        values.sort_by(|a, b| a.total_cmp(b));
        let total = values.iter().sum();
        Lorenz {
            sorted: values,
            total,
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Share of the total contributed by the **top** `frac` of the
    /// population (e.g. `top_share(0.3)` → Fig. 3b's 80 %+).
    pub fn top_share(&self, frac: f64) -> f64 {
        if self.sorted.is_empty() || self.total <= 0.0 {
            return 0.0;
        }
        let k = ((self.sorted.len() as f64 * frac).round() as usize).min(self.sorted.len());
        let top: f64 = self.sorted.iter().rev().take(k).sum();
        top / self.total
    }

    /// `(population_fraction, cumulative_contribution_fraction)` points,
    /// from the *poorest* up — the classic Lorenz plot, `points + 1` rows
    /// including the origin.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = vec![(0.0, 0.0)];
        if n == 0 || self.total <= 0.0 || points == 0 {
            return out;
        }
        let mut cumsum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for v in &self.sorted {
            acc += v;
            cumsum.push(acc);
        }
        for p in 1..=points {
            let f = p as f64 / points as f64;
            let k = ((n as f64 * f).round() as usize).clamp(1, n);
            out.push((f, cumsum[k - 1] / self.total));
        }
        out
    }

    /// The Gini coefficient in `[0, 1]` (0 = perfectly even, → 1 =
    /// maximally concentrated).
    pub fn gini(&self) -> f64 {
        let n = self.sorted.len();
        if n == 0 || self.total <= 0.0 {
            return 0.0;
        }
        // G = (2·Σ i·x_i)/(n·Σ x_i) − (n+1)/n  with 1-based ranks over
        // ascending values.
        let weighted: f64 = self
            .sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted / (n as f64 * self.total) - (n as f64 + 1.0) / n as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_contributions_gini_zero() {
        let l = Lorenz::new(vec![5.0; 100]);
        assert!(l.gini() < 1e-9);
        assert!((l.top_share(0.3) - 0.3).abs() < 0.02);
    }

    #[test]
    fn single_contributor_gini_near_one() {
        let mut v = vec![0.0; 99];
        v.push(100.0);
        let l = Lorenz::new(v);
        assert!(l.gini() > 0.98, "gini {}", l.gini());
        assert!((l.top_share(0.01) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_share_matches_hand_computation() {
        // 10 peers: one contributes 82, nine contribute 2 each.
        let mut v = vec![2.0; 9];
        v.push(82.0);
        let l = Lorenz::new(v);
        // Top 30% = 3 peers: 82 + 2 + 2 = 86 of 100.
        assert!((l.top_share(0.3) - 0.86).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone_and_convex_below_diagonal() {
        let l = Lorenz::new((1..=50).map(|i| (i * i) as f64).collect());
        let curve = l.curve(25);
        assert_eq!(curve[0], (0.0, 0.0));
        let last = curve.last().unwrap();
        assert!((last.0 - 1.0).abs() < 1e-9 && (last.1 - 1.0).abs() < 1e-9);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "not monotone");
        }
        // Below the diagonal everywhere (Lorenz property).
        for &(f, share) in &curve {
            assert!(share <= f + 1e-9, "above diagonal at {f}");
        }
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let empty = Lorenz::new(vec![]);
        assert_eq!(empty.gini(), 0.0);
        assert_eq!(empty.top_share(0.5), 0.0);
        assert_eq!(empty.curve(10), vec![(0.0, 0.0)]);

        let zeros = Lorenz::new(vec![0.0; 10]);
        assert_eq!(zeros.gini(), 0.0);

        let junk = Lorenz::new(vec![f64::NAN, -3.0, 1.0]);
        assert_eq!(junk.len(), 1);
    }
}
