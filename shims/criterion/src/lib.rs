//! Offline shim for `criterion`.
//!
//! Implements the macro-compatible subset the workspace's benches use:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `benchmark_group`, `Bencher::iter`/`iter_batched` and `black_box`.
//!
//! Measurement is deliberately simple: each bench warms up briefly, then
//! takes several timed samples and reports the median ns/iter to stdout as
//!
//! ```text
//! bench <name> ... <median> ns/iter (<iters> iters, <samples> samples)
//! ```
//!
//! Set `CRITERION_SAMPLE_MS` to change the per-sample time budget
//! (default 100 ms; CI can lower it).
//!
//! Positional command-line arguments are name filters, as with the real
//! crate: `cargo bench -- fabric_backlog` runs only the benchmarks whose
//! full name (`group/id`) contains `fabric_backlog`. Code a bench target
//! runs beside its benchmarks (a self-timed guard) asks
//! [`Criterion::selected`] with a name of its own.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup (accepted for API compatibility;
/// every batch size runs setup once per iteration here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Timing handle passed to bench closures.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` runs of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `iters` runs of `routine`, excluding `setup` time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn sample_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100u64);
    Duration::from_millis(ms.max(1))
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, mut f: F) {
    let budget = sample_budget();
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };

    // Warmup + calibration: grow the iteration count until one sample
    // costs roughly the budget.
    loop {
        f(&mut b);
        if b.elapsed * 4 >= budget || b.iters >= 1 << 40 {
            break;
        }
        let scale = if b.elapsed.is_zero() {
            16
        } else {
            (budget.as_nanos() / b.elapsed.as_nanos().max(1)).clamp(2, 16) as u64
        };
        b.iters *= scale;
    }

    const SAMPLES: usize = 5;
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            f(&mut b);
            b.elapsed.as_nanos() as f64 / b.iters as f64
        })
        .collect();
    per_iter.sort_by(|a, z| a.total_cmp(z));
    let median = per_iter[SAMPLES / 2];
    println!(
        "bench {name:<48} {median:>12.1} ns/iter ({} iters, {SAMPLES} samples)",
        b.iters
    );
}

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    /// Name filters from the command line; empty selects everything.
    filters: Vec<String>,
}

impl Default for Criterion {
    /// Reads the name filters from the process arguments. Flags (cargo
    /// passes `--bench`) are not filters.
    fn default() -> Self {
        Criterion {
            filters: std::env::args()
                .skip(1)
                .filter(|a| !a.starts_with('-'))
                .collect(),
        }
    }
}

impl Criterion {
    /// Whether the command line selects the benchmark called `name`: no
    /// filter was given, or one of them occurs in the name.
    pub fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Runs a single named benchmark, if selected.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let name = id.into();
        if self.selected(&name) {
            run_bench(&name, f);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            parent: self,
        }
    }
}

/// A group of related benchmarks; names are prefixed with the group name.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group, if selected.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into());
        if self.parent.selected(&name) {
            run_bench(&name, f);
        }
        self
    }

    /// Finishes the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

/// Declares a function running the listed benchmarks in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed benchmark groups.
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

    fn with_filters(filters: &[&str]) -> Criterion {
        Criterion {
            filters: filters.iter().map(|f| (*f).to_owned()).collect(),
        }
    }

    #[test]
    fn filters_select_by_substring_of_the_full_name() {
        let all = with_filters(&[]);
        assert!(all.selected("anything/at_all"));
        let one = with_filters(&["fabric_backlog"]);
        assert!(one.selected("fabric_backlog/backlog_4"));
        assert!(one.selected("fabric_backlog/guard"));
        assert!(!one.selected("sched_round/1_lc_tenants"));
        let two = with_filters(&["header_", "sched"]);
        assert!(two.selected("header_encode_decode"));
        assert!(two.selected("sched_round/guard"));
        assert!(!two.selected("engine_dispatch/typed_heap_64w"));
    }

    #[test]
    fn unselected_benchmarks_do_not_run() {
        let mut c = with_filters(&["wanted"]);
        let mut ran = Vec::new();
        c.bench_function("wanted_one", |b| {
            ran.push("wanted_one");
            b.iter(|| 1 + 1);
        });
        c.bench_function("other", |_| ran.push("other"));
        let mut g = c.benchmark_group("group");
        g.bench_function("wanted_too", |b| b.iter(|| 2 + 2));
        g.bench_function("skipped", |_| panic!("filtered out"));
        g.finish();
        assert!(ran.contains(&"wanted_one") && !ran.contains(&"other"));
    }
}
