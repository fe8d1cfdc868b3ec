//! Offline stand-in for `criterion`.
//!
//! Implements the macro/group/bencher surface the bench targets use.
//! Measurement is plain wall-clock sampling (no outlier analysis or
//! bootstrap): each benchmark runs `sample_size` timed iterations after a
//! warm-up run, then reports min/mean/max and writes a criterion-shaped
//! `estimates.json` (nanosecond `point_estimate`s under `mean`/`median`)
//! to `target/criterion/<benchmark-id>/new/` so downstream tooling can
//! scrape every bench target uniformly.
//!
//! Pass `--quick` (or set `CRITERION_QUICK=1`) to run one sample per
//! benchmark, which keeps CI smoke runs fast.

use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark identifier; renders as `name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Top-level driver handed to every `criterion_group!` target.
pub struct Criterion {
    sample_size: usize,
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var_os("CRITERION_QUICK").is_some();
        Criterion {
            sample_size: 10,
            quick,
        }
    }
}

impl Criterion {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let samples = if self.quick { 1 } else { self.sample_size };
        run_benchmark(&id, samples, |b| f(b));
        self
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = Some(n);
        self
    }

    fn samples(&self) -> usize {
        if self.criterion.quick {
            1
        } else {
            self.sample_size.unwrap_or(self.criterion.sample_size)
        }
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.into());
        run_benchmark(&id, self.samples(), |b| f(b));
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, id.id);
        run_benchmark(&id, self.samples(), |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Timing harness passed to benchmark closures.
pub struct Bencher {
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark(id: &str, samples: usize, mut run: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        elapsed: Duration::ZERO,
    };
    run(&mut b); // warm-up (also the measurement when the routine never calls iter)
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        b.elapsed = Duration::ZERO;
        run(&mut b);
        times.push(b.elapsed.as_secs_f64() * 1e9);
    }
    times.sort_by(|a, z| a.partial_cmp(z).unwrap());
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let median = times[times.len() / 2];
    let (min, max) = (times[0], times[times.len() - 1]);
    println!(
        "{id:<50} time: [{} {} {}] ({} samples)",
        format_ns(min),
        format_ns(mean),
        format_ns(max),
        times.len()
    );
    write_estimates(id, mean, median, min, max);
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Criterion-shaped estimates file: `target/criterion/<id>/new/estimates.json`
/// with `mean.point_estimate` / `median.point_estimate` in nanoseconds.
fn write_estimates(id: &str, mean: f64, median: f64, min: f64, max: f64) {
    let sanitized: String = id
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '/' || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let dir = std::path::Path::new("target/criterion")
        .join(sanitized)
        .join("new");
    if std::fs::create_dir_all(&dir).is_err() {
        return; // benches must not fail on read-only targets
    }
    let estimate = |point: f64, lo: f64, hi: f64| {
        format!(
            "{{\"confidence_interval\":{{\"confidence_level\":0.95,\
             \"lower_bound\":{lo},\"upper_bound\":{hi}}},\
             \"point_estimate\":{point},\"standard_error\":0.0}}"
        )
    };
    let json = format!(
        "{{\"mean\":{},\"median\":{}}}",
        estimate(mean, min, max),
        estimate(median, min, max)
    );
    let _ = std::fs::write(dir.join("estimates.json"), json);
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_and_function_run() {
        let mut c = Criterion {
            sample_size: 2,
            quick: false,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(2);
        let mut runs = 0;
        g.bench_function("noop", |b| {
            b.iter(|| black_box(1 + 1));
            runs += 1;
        });
        g.finish();
        assert!(runs >= 2);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion {
            sample_size: 1,
            quick: true,
        };
        let mut g = c.benchmark_group("unit2");
        g.bench_with_input(BenchmarkId::from_parameter("p7"), &7u32, |b, &x| {
            b.iter(|| black_box(x * 2));
            assert_eq!(x, 7);
        });
        g.finish();
    }
}
