//! Time-binned series and concurrency curves (Figs. 5, 8, 9).

use cs_sim::SimTime;

/// Fixed-width time bins accumulating a mean-able quantity.
#[derive(Clone, Debug)]
pub struct TimeBins {
    start: SimTime,
    width: SimTime,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeBins {
    /// Bins of `width` covering `[start, end)`.
    pub fn new(start: SimTime, end: SimTime, width: SimTime) -> Self {
        assert!(end > start && width > SimTime::ZERO);
        let n = (end
            .saturating_sub(start)
            .as_micros()
            .div_ceil(width.as_micros())) as usize;
        TimeBins {
            start,
            width,
            sums: vec![0.0; n],
            counts: vec![0; n],
        }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether there are no bins.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    fn bin_of(&self, t: SimTime) -> Option<usize> {
        if t < self.start {
            return None;
        }
        let ix = (t.saturating_sub(self.start).as_micros() / self.width.as_micros()) as usize;
        (ix < self.sums.len()).then_some(ix)
    }

    /// Record a value at time `t` (out-of-range samples are dropped).
    pub fn add(&mut self, t: SimTime, value: f64) {
        if let Some(ix) = self.bin_of(t) {
            self.sums[ix] += value;
            self.counts[ix] += 1;
        }
    }

    /// `(bin_center_time, mean)` for non-empty bins.
    pub fn means(&self) -> Vec<(SimTime, f64)> {
        self.rows()
            .into_iter()
            .filter(|&(_, _, n)| n > 0)
            .map(|(t, sum, n)| (t, sum / n as f64))
            .collect()
    }

    /// Raw `(bin_center_time, sum, count)` rows.
    pub fn rows(&self) -> Vec<(SimTime, f64, u64)> {
        self.sums
            .iter()
            .zip(&self.counts)
            .enumerate()
            .map(|(i, (&s, &c))| {
                let center = self.start + self.width * i as u64 + self.width / 2;
                (center, s, c)
            })
            .collect()
    }
}

/// The number of concurrent sessions over time from `(join, leave)`
/// intervals (`leave = None` means "still active at `end`"). This is the
/// population curve of Fig. 5.
pub fn concurrency_curve(
    intervals: &[(SimTime, Option<SimTime>)],
    start: SimTime,
    end: SimTime,
    width: SimTime,
) -> Vec<(SimTime, i64)> {
    assert!(end > start && width > SimTime::ZERO);
    let n = (end
        .saturating_sub(start)
        .as_micros()
        .div_ceil(width.as_micros())) as usize;
    // Difference array over bin edges.
    let mut diff = vec![0i64; n + 1];
    let bin_of = |t: SimTime| -> usize {
        if t <= start {
            0
        } else {
            ((t.saturating_sub(start).as_micros() / width.as_micros()) as usize).min(n)
        }
    };
    for &(join, leave) in intervals {
        if join >= end {
            continue;
        }
        let l = leave.unwrap_or(end);
        if l <= start || l <= join {
            continue;
        }
        diff[bin_of(join)] += 1;
        diff[bin_of(l).min(n)] -= 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut acc = 0i64;
    for (i, d) in diff.iter().take(n).enumerate() {
        acc += d;
        let center = start + width * i as u64 + width / 2;
        out.push((center, acc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_means() {
        let mut b = TimeBins::new(
            SimTime::ZERO,
            SimTime::from_secs(100),
            SimTime::from_secs(10),
        );
        assert_eq!(b.len(), 10);
        b.add(SimTime::from_secs(5), 1.0);
        b.add(SimTime::from_secs(7), 3.0);
        b.add(SimTime::from_secs(95), 10.0);
        let means = b.means();
        assert_eq!(means.len(), 2);
        assert_eq!(means[0], (SimTime::from_secs(5), 2.0));
        assert_eq!(means[1], (SimTime::from_secs(95), 10.0));
    }

    #[test]
    fn out_of_range_samples_dropped() {
        let mut b = TimeBins::new(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            SimTime::from_secs(5),
        );
        b.add(SimTime::from_secs(5), 1.0);
        b.add(SimTime::from_secs(25), 1.0);
        assert!(b.means().is_empty());
    }

    #[test]
    fn concurrency_counts_overlaps() {
        let intervals = vec![
            (SimTime::from_secs(0), Some(SimTime::from_secs(50))),
            (SimTime::from_secs(10), Some(SimTime::from_secs(30))),
            (SimTime::from_secs(20), None), // stays until end
        ];
        let curve = concurrency_curve(
            &intervals,
            SimTime::ZERO,
            SimTime::from_secs(60),
            SimTime::from_secs(10),
        );
        let counts: Vec<i64> = curve.iter().map(|(_, c)| *c).collect();
        // Bins: [0,10): 1; [10,20): 2; [20,30): 3; [30,40): 2; [40,50): 2→
        // leave at 50 lands in bin 5; [50,60): 1.
        assert_eq!(counts, vec![1, 2, 3, 2, 2, 1]);
    }

    #[test]
    fn concurrency_ignores_out_of_window_sessions() {
        let intervals = vec![
            (SimTime::from_secs(100), Some(SimTime::from_secs(200))), // after end
            (SimTime::from_secs(0), Some(SimTime::from_secs(0))),     // empty
        ];
        let curve = concurrency_curve(
            &intervals,
            SimTime::ZERO,
            SimTime::from_secs(50),
            SimTime::from_secs(10),
        );
        assert!(curve.iter().all(|(_, c)| *c == 0));
    }
}
