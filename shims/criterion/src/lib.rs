//! Offline stand-in for `criterion` (0.5 API subset).
//!
//! Provides the `Criterion` / `Bencher` surface the workspace's bench
//! targets use — `bench_function`, `iter`, `iter_batched`,
//! `black_box`, the builder knobs, and `final_summary` — backed by a
//! simple median-of-samples wall-clock timer instead of criterion's
//! statistical machinery. Good enough to compare before/after on the
//! same machine, which is all the benches assert.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup; the shim re-runs setup per
/// batch regardless, so this only exists for API compatibility.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small routine output.
    SmallInput,
    /// Large routine output.
    LargeInput,
    /// Fresh setup per iteration.
    PerIteration,
}

/// One benchmark's measurements.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark id as passed to `bench_function`.
    pub name: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Total iterations measured.
    pub iters: u64,
}

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Target total measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before measuring.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// The real criterion parses CLI flags here; the shim accepts and
    /// ignores them so bench mains keep working under `cargo bench`.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            samples: Vec::new(),
            iters: 0,
        };
        f(&mut b);
        let mut samples = b.samples;
        samples.sort_unstable();
        let median = samples
            .get(samples.len() / 2)
            .copied()
            .unwrap_or(Duration::ZERO);
        eprintln!(
            "bench {name:<40} median {:>12.3} µs ({} iters)",
            median.as_secs_f64() * 1e6,
            b.iters
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median,
            iters: b.iters,
        });
        self
    }

    /// Print a footer; the real criterion writes HTML reports here.
    pub fn final_summary(&mut self) {
        eprintln!("completed {} benchmark(s)", self.results.len());
    }
}

/// Times a routine inside `bench_function`.
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    samples: Vec<Duration>,
    iters: u64,
}

impl Bencher {
    /// Time `routine`, called repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: also calibrates iterations per sample.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let budget = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let iters_per_sample = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed / iters_per_sample as u32);
            self.iters += iters_per_sample;
        }
    }

    /// Time `routine` over inputs produced by `setup` (setup excluded
    /// from the timing).
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let deadline = Instant::now() + self.warm_up_time + self.measurement_time;
        for _ in 0..self.sample_size.max(2) {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
            self.iters += 1;
            if Instant::now() > deadline {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_a_result() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .configure_from_args();
        let mut count = 0u64;
        c.bench_function("noop", |b| b.iter(|| count += 1));
        assert_eq!(c.results.len(), 1);
        assert!(c.results[0].iters > 0);
        assert!(count > 0);
        c.final_summary();
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default()
            .sample_size(4)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        assert_eq!(c.results[0].iters as usize, 4);
    }
}
