//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal API-compatible subset: enough for the
//! `oskit-bench` benches to compile and produce useful wall-clock numbers
//! with `cargo bench`.  No plots or baselines — each bench reports the
//! median, the minimum and the interquartile range of its timed samples,
//! since one host-time sample on a shared machine says little.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// The bench context handed to `criterion_group!` targets.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }

    /// Runs a single named benchmark outside any group.
    pub fn bench_function(&mut self, id: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(id, self.sample_size, f);
        self
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many measured samples to take (criterion-compatible knob).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id), self.sample_size, f);
        self
    }

    /// Runs one parameterized benchmark in this group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_bench(&format!("{}/{}", self.name, id.0), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (output is already flushed; kept for compatibility).
    pub fn finish(&mut self) {}
}

/// A benchmark identifier with a parameter, e.g. `read_with_copy/4096`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Builds an id of the form `name/parameter`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{parameter}"))
    }
}

/// Drives one benchmark's timed iterations.
pub struct Bencher {
    samples: usize,
    times: Vec<Duration>,
}

impl Bencher {
    /// Times `f` once per sample, after one warm-up call.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        black_box(f());
        self.times.clear();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            self.times.push(start.elapsed());
        }
    }

    /// The median, minimum and interquartile range of the samples.
    pub fn summary(&self) -> Summary {
        let mut t = self.times.clone();
        t.sort_unstable();
        let at = |q: usize| t.get((t.len().max(1) - 1) * q / 4).copied().unwrap_or_default();
        Summary {
            median: at(2),
            min: at(0),
            iqr: at(3) - at(1),
        }
    }
}

/// Per-iteration statistics over one benchmark's samples (nearest-rank
/// quartiles).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The middle sample.
    pub median: Duration,
    /// The fastest sample.
    pub min: Duration,
    /// Third quartile minus first quartile: the spread.
    pub iqr: Duration,
}

fn run_bench(id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        times: Vec::new(),
    };
    f(&mut b);
    let s = b.summary();
    println!(
        "bench {:50} median {:>12.3?}  min {:>12.3?}  iqr {:>12.3?}  ({} samples)",
        id,
        s.median,
        s.min,
        s.iqr,
        b.times.len()
    );
}

/// Declares a group function running each target benchmark.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_bencher_run() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut ran = 0;
        g.bench_function("noop", |b| {
            b.iter(|| ran += 1);
        });
        g.bench_with_input(BenchmarkId::new("param", 7), &7usize, |b, &n| {
            b.iter(|| black_box(n * 2));
        });
        g.finish();
        assert!(ran >= 3);
    }

    #[test]
    fn summary_orders_min_median_and_spread() {
        let mut b = Bencher {
            samples: 5,
            times: Vec::new(),
        };
        b.iter(|| black_box(1 + 1));
        assert_eq!(b.times.len(), 5);
        let s = b.summary();
        assert!(s.min <= s.median);
        // Fixed samples: nearest-rank quartiles of 1..=5 ms.
        b.times = [5, 1, 4, 2, 3].map(Duration::from_millis).to_vec();
        let s = b.summary();
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.median, Duration::from_millis(3));
        assert_eq!(s.iqr, Duration::from_millis(2));
    }
}
