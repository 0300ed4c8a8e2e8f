//! A minimal wall-clock benchmark harness.
//!
//! The workspace builds fully offline, so the Criterion dependency is
//! replaced by this self-contained harness: warm up, pick an iteration
//! count targeting a fixed measurement budget, and report mean/min
//! per-iteration times. Benches stay `harness = false` binaries runnable
//! via `cargo bench`.

use nshd_obs::clock;
use std::time::Duration;

/// Target wall-clock budget for one measurement loop.
const BUDGET: Duration = Duration::from_millis(300);
/// Iteration ceiling, so trivially fast closures terminate promptly.
const MAX_ITERS: u32 = 100_000;

/// One measured benchmark: per-iteration mean and minimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Mean time per iteration.
    pub mean: Duration,
    /// Fastest observed iteration (across measurement batches).
    pub min: Duration,
    /// Number of timed iterations.
    pub iters: u32,
}

/// Times `f`, adapting the iteration count to the measurement budget.
pub fn measure<T>(mut f: impl FnMut() -> T) -> Measurement {
    // Warm-up + calibration run.
    let start = clock::now();
    std::hint::black_box(f());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let iters = ((BUDGET.as_nanos() / once.as_nanos()).clamp(1, MAX_ITERS as u128)) as u32;

    // Measure in batches of up to 10 so `min` smooths scheduler noise.
    let batches = iters.min(10);
    let per_batch = iters / batches;
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut counted = 0u32;
    for _ in 0..batches {
        let start = clock::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed / per_batch);
        counted += per_batch;
    }
    Measurement { mean: total / counted.max(1), min, iters: counted }
}

/// A named group of benchmarks, printed as aligned rows.
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group, printing its header.
    pub fn new(name: &str) -> Group {
        println!("\n## {name}");
        Group { name: name.to_string() }
    }

    /// Runs and reports one benchmark in the group.
    pub fn bench<T>(&self, label: &str, f: impl FnMut() -> T) -> Measurement {
        let m = measure(f);
        println!(
            "{}/{label:<24} mean {:>12}  min {:>12}  ({} iters)",
            self.name,
            format_duration(m.mean),
            format_duration(m.min),
            m.iters
        );
        m
    }
}

/// Formats a duration with an appropriate unit.
pub fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn measure_reports_positive_times() {
        // `black_box` on every term keeps the optimiser from folding the
        // sum to a constant, which would time an empty closure at 0 ns.
        let m = measure(|| (0..100).map(|i: u64| black_box(i) * black_box(i)).sum::<u64>());
        assert!(m.mean > Duration::ZERO);
        assert!(m.min <= m.mean * 2);
        assert!(m.iters >= 1);
    }

    #[test]
    fn format_covers_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert!(format_duration(Duration::from_micros(12)).contains("µs"));
        assert!(format_duration(Duration::from_millis(12)).contains("ms"));
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
