//! Order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from here, computed from
//! the raw client-side samples of one phase — never from a histogram's
//! fixed buckets — and travels with the sample count it was taken from.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of samples that are
/// already sorted ascending: the value at fractional rank `q·(n−1)`.
/// Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// A percentile summary of one phase's raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples the figures below were taken from.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p50: percentile_sorted(&sorted, 0.5)?,
            p90: percentile_sorted(&sorted, 0.9)?,
            max: *sorted.last()?,
        })
    }
}

/// Median of any samples (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    Summary::of(samples).map(|s| s.p50)
}

/// Median of per-window rates pooled over several rounds, after
/// dropping the first `warmup` windows of each round, which run while
/// caches refill from the phase before. `None` when no window is left.
pub fn window_median(rounds: &[Vec<f64>], warmup: usize) -> Option<f64> {
    let pooled: Vec<f64> =
        rounds.iter().flat_map(|r| r.get(warmup..).unwrap_or_default()).copied().collect();
    median(&pooled)
}

/// Completion rates over consecutive groups of `chunk` completions:
/// `chunk / (t[k + chunk] − t[k])` for `k = 0, chunk, 2·chunk, …`, from
/// completion times in seconds (any order). Groups spanning no time are
/// skipped.
pub fn chunk_rates(times_s: &[f64], chunk: usize) -> Vec<f64> {
    let mut sorted = times_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let chunk = chunk.max(1);
    (0..sorted.len().saturating_sub(chunk))
        .step_by(chunk)
        .filter_map(|k| {
            let span = sorted[k + chunk] - sorted[k];
            (span > 0.0).then(|| chunk as f64 / span)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&s, 1.0), Some(4.0));
        assert_eq!(percentile_sorted(&s, 0.5), Some(2.5));
        assert_eq!(percentile_sorted(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);
    }

    #[test]
    fn summary_sorts_raw_samples_and_keeps_the_count() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
        assert!((s.p90 - 4.6).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn window_median_drops_each_rounds_warmup_and_pools_the_rest() {
        // The slow first window of every round must not drag the median
        // down; the rest pool into one sample.
        let rounds = vec![vec![10.0, 100.0, 98.0], vec![12.0, 102.0, 99.0]];
        assert_eq!(window_median(&rounds, 1), Some(99.5));
        assert_eq!(window_median(&rounds, 0), Some(98.5));
        assert_eq!(window_median(&rounds, 3), None);
        assert_eq!(window_median(&[vec![5.0]], 9), None);
    }

    #[test]
    fn chunk_rates_time_groups_of_completions() {
        // Completions every 10 ms, then every 20 ms.
        let times = [0.0, 0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10, 0.12];
        let rates = chunk_rates(&times, 4);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 100.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 50.0).abs() < 1e-9, "{rates:?}");
        assert!(chunk_rates(&times[..4], 4).is_empty());
        assert!(chunk_rates(&[1.0, 1.0, 1.0], 1).is_empty());
    }
}
