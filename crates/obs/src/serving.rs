//! Serving-side bookkeeping: per-request latency, queue-wait and execute
//! histograms plus batch-size accounting for the inference runtime.
//!
//! This subsumes the metrics type that used to live inside `nshd-runtime`.
//! Unlike its predecessor, quantiles come from fixed-bucket [`Histogram`]s
//! instead of sorting every raw sample on each snapshot call, so p50 ≤ p95
//! ≤ p99 holds unconditionally and snapshots are O(buckets).

use crate::json::Json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulates serving statistics; the runtime keeps one behind a mutex and
/// feeds it from `submit` / batch-completion events. The replicated serving
/// tier additionally counts shed (admission-rejected) requests and retry
/// attempts, and rolls several per-replica accumulators into one cluster
/// view via [`ServingAccumulator::merge_from`].
#[derive(Debug)]
pub struct ServingAccumulator {
    latency: Histogram,
    queue_wait: Histogram,
    execute: Histogram,
    batch_sizes: BTreeMap<usize, u64>,
    requests: u64,
    batches: u64,
    shed: u64,
    retries: u64,
    bytes_in: u64,
    bytes_out: u64,
    inflight: u64,
    inflight_peak: u64,
    first_submit: Option<Instant>,
    last_complete: Option<Instant>,
}

impl Default for ServingAccumulator {
    fn default() -> Self {
        ServingAccumulator::new()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl ServingAccumulator {
    /// An empty accumulator with microsecond-scale latency buckets.
    #[must_use]
    pub fn new() -> ServingAccumulator {
        ServingAccumulator {
            latency: Histogram::latency_us(),
            queue_wait: Histogram::latency_us(),
            execute: Histogram::latency_us(),
            batch_sizes: BTreeMap::new(),
            requests: 0,
            batches: 0,
            shed: 0,
            retries: 0,
            bytes_in: 0,
            bytes_out: 0,
            inflight: 0,
            inflight_peak: 0,
            first_submit: None,
            last_complete: None,
        }
    }

    /// Records a request submission at `now` (start of the throughput
    /// window).
    pub fn note_submit(&mut self, now: Instant) {
        if self.first_submit.is_none() {
            self.first_submit = Some(now);
        }
    }

    /// Records one completed batch: its size, per-request `(queue_wait,
    /// total_latency)` durations, the batch's execute duration and the
    /// completion instant.
    pub fn note_batch(
        &mut self,
        size: usize,
        request_times: impl IntoIterator<Item = (Duration, Duration)>,
        execute: Duration,
        completed: Instant,
    ) {
        let mut n = 0u64;
        for (wait, latency) in request_times {
            self.queue_wait.observe(us(wait));
            self.latency.observe(us(latency));
            n += 1;
        }
        self.requests += n;
        self.batches += 1;
        *self.batch_sizes.entry(size).or_insert(0) += 1;
        self.execute.observe(us(execute));
        self.last_complete = Some(completed);
    }

    /// Records one request shed by admission control (it never reached a
    /// batcher queue and contributes to no latency histogram).
    pub fn note_shed(&mut self) {
        self.shed += 1;
    }

    /// Records one retry attempt — a request re-dispatched to another
    /// replica after a failure or timeout.
    pub fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Records `n` bytes received from clients (wire payloads in).
    pub fn note_bytes_in(&mut self, n: u64) {
        self.bytes_in += n;
    }

    /// Records `n` bytes sent to clients (wire payloads out).
    pub fn note_bytes_out(&mut self, n: u64) {
        self.bytes_out += n;
    }

    /// Records the number of requests in flight observed at an
    /// admission decision, so queue pressure is visible in every bench
    /// — not just req/s after the fact. The snapshot reports both the
    /// latest observation and the high-water mark.
    pub fn note_inflight(&mut self, n: u64) {
        self.inflight = n;
        self.inflight_peak = self.inflight_peak.max(n);
    }

    /// Folds `other`'s complete history into `self`: histograms merge
    /// bucket-exactly (see [`Histogram::merge_from`]), counters add, and
    /// the throughput window widens to span both accumulators. This is
    /// how per-replica accumulators roll up into one cluster view.
    pub fn merge_from(&mut self, other: &ServingAccumulator) {
        self.latency.merge_from(&other.latency);
        self.queue_wait.merge_from(&other.queue_wait);
        self.execute.merge_from(&other.execute);
        for (&size, &count) in &other.batch_sizes {
            *self.batch_sizes.entry(size).or_insert(0) += count;
        }
        self.requests += other.requests;
        self.batches += other.batches;
        self.shed += other.shed;
        self.retries += other.retries;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        // In-flight gauges don't add across accumulators (the same
        // request would be double-counted); the rollup keeps the
        // highest pressure either side observed.
        self.inflight = self.inflight.max(other.inflight);
        self.inflight_peak = self.inflight_peak.max(other.inflight_peak);
        self.first_submit = match (self.first_submit, other.first_submit) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_complete = match (self.last_complete, other.last_complete) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Handle to the per-request latency histogram (microseconds).
    #[must_use]
    pub fn latency_histogram(&self) -> Histogram {
        self.latency.clone()
    }

    /// Handle to the queue-wait histogram (microseconds).
    #[must_use]
    pub fn queue_wait_histogram(&self) -> Histogram {
        self.queue_wait.clone()
    }

    /// Handle to the batch-execute histogram (microseconds).
    #[must_use]
    pub fn execute_histogram(&self) -> Histogram {
        self.execute.clone()
    }

    /// Frozen summary of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> ServingMetrics {
        let elapsed = match (self.first_submit, self.last_complete) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let lat = self.latency.snapshot();
        ServingMetrics {
            requests: self.requests,
            batches: self.batches,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.requests as f64 / self.batches as f64
            },
            batch_histogram: self.batch_sizes.iter().map(|(&s, &c)| (s, c)).collect(),
            p50_us: lat.p50,
            p95_us: lat.p95,
            p99_us: lat.p99,
            requests_per_sec: if elapsed > 0.0 { self.requests as f64 / elapsed } else { 0.0 },
            shed: self.shed,
            retries: self.retries,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            inflight: self.inflight,
            inflight_peak: self.inflight_peak,
            queue_wait: LatencySummary::from(&self.queue_wait),
            execute: LatencySummary::from(&self.execute),
        }
    }
}

/// Quantile summary of one duration histogram, in microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// 50th percentile.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Mean.
    pub mean_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl From<&Histogram> for LatencySummary {
    fn from(h: &Histogram) -> LatencySummary {
        let s = h.snapshot();
        LatencySummary {
            p50_us: s.p50,
            p95_us: s.p95,
            p99_us: s.p99,
            mean_us: s.mean,
            max_us: s.max,
        }
    }
}

impl LatencySummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("p50", Json::fixed(self.p50_us, 1)),
            ("p95", Json::fixed(self.p95_us, 1)),
            ("p99", Json::fixed(self.p99_us, 1)),
            ("mean", Json::fixed(self.mean_us, 1)),
            ("max", Json::fixed(self.max_us, 1)),
        ])
    }
}

/// Frozen serving metrics: throughput, batch sizes and latency
/// percentiles, with queue-wait and execute-time summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingMetrics {
    /// Total requests completed.
    pub requests: u64,
    /// Total batches executed.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// `(batch_size, count)` pairs, ascending by size.
    pub batch_histogram: Vec<(usize, u64)>,
    /// p50 end-to-end request latency, microseconds.
    pub p50_us: f64,
    /// p95 end-to-end request latency, microseconds.
    pub p95_us: f64,
    /// p99 end-to-end request latency, microseconds.
    pub p99_us: f64,
    /// Completed requests per second over the submit→complete window.
    pub requests_per_sec: f64,
    /// Requests shed by admission control (fail-fast, never queued).
    pub shed: u64,
    /// Retry attempts — requests re-dispatched after a failure/timeout.
    pub retries: u64,
    /// Bytes received from clients over the wire (0 off the network).
    pub bytes_in: u64,
    /// Bytes sent to clients over the wire (0 off the network).
    pub bytes_out: u64,
    /// Requests in flight at the most recent admission decision.
    pub inflight: u64,
    /// High-water mark of in-flight requests (queue pressure).
    pub inflight_peak: u64,
    /// Time requests spent queued before their batch started executing.
    pub queue_wait: LatencySummary,
    /// Per-batch execute (extract + finish) time.
    pub execute: LatencySummary,
}

impl ServingMetrics {
    /// Compact JSON rendering. Keys are stable: the historical
    /// `requests` / `batches` / `mean_batch` / `batch_histogram` /
    /// `latency_us{p50,p95,p99}` / `requests_per_sec` set plus
    /// `queue_wait_us` / `execute_us` summaries, the serving-tier
    /// `shed` / `retries` counters, the wire `bytes_in` / `bytes_out`
    /// counters, and the `inflight{last,peak}` queue-pressure gauge.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("requests", Json::from(self.requests)),
            ("batches", Json::from(self.batches)),
            ("mean_batch", Json::fixed(self.mean_batch, 2)),
            (
                "batch_histogram",
                Json::arr(
                    self.batch_histogram
                        .iter()
                        .map(|&(s, c)| Json::arr([Json::from(s), Json::from(c)])),
                ),
            ),
            (
                "latency_us",
                Json::obj(vec![
                    ("p50", Json::fixed(self.p50_us, 1)),
                    ("p95", Json::fixed(self.p95_us, 1)),
                    ("p99", Json::fixed(self.p99_us, 1)),
                ]),
            ),
            ("queue_wait_us", self.queue_wait.to_json()),
            ("execute_us", self.execute.to_json()),
            ("requests_per_sec", Json::fixed(self.requests_per_sec, 1)),
            ("shed", Json::from(self.shed)),
            ("retries", Json::from(self.retries)),
            ("bytes_in", Json::from(self.bytes_in)),
            ("bytes_out", Json::from(self.bytes_out)),
            (
                "inflight",
                Json::obj(vec![
                    ("last", Json::from(self.inflight)),
                    ("peak", Json::from(self.inflight_peak)),
                ]),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;

    #[test]
    fn accumulates_requests_batches_and_quantiles() {
        let mut acc = ServingAccumulator::new();
        let t0 = clock::now();
        acc.note_submit(t0);
        acc.note_submit(t0); // only the first submit opens the window
        let ms = Duration::from_millis;
        acc.note_batch(3, vec![(ms(1), ms(5)), (ms(2), ms(6)), (ms(2), ms(7))], ms(4), t0 + ms(10));
        acc.note_batch(1, vec![(ms(0), ms(3))], ms(3), t0 + ms(20));
        let m = acc.snapshot();
        assert_eq!(m.requests, 4);
        assert_eq!(m.batches, 2);
        assert!((m.mean_batch - 2.0).abs() < 1e-12);
        assert_eq!(m.batch_histogram, vec![(1, 1), (3, 1)]);
        assert!(m.p50_us <= m.p95_us && m.p95_us <= m.p99_us);
        // 4 requests over a 20 ms window = 200 req/s.
        assert!((m.requests_per_sec - 200.0).abs() < 20.0, "{}", m.requests_per_sec);
        assert!(m.queue_wait.p99_us <= m.p99_us); // waits are part of latency
        assert!(m.execute.max_us > 0.0);
    }

    #[test]
    fn empty_accumulator_snapshots_to_zeroes() {
        let m = ServingAccumulator::new().snapshot();
        assert_eq!(m, ServingMetrics::default());
        assert_eq!(
            m.to_json(),
            "{\"requests\":0,\"batches\":0,\"mean_batch\":0.00,\"batch_histogram\":[],\
             \"latency_us\":{\"p50\":0.0,\"p95\":0.0,\"p99\":0.0},\
             \"queue_wait_us\":{\"p50\":0.0,\"p95\":0.0,\"p99\":0.0,\"mean\":0.0,\"max\":0.0},\
             \"execute_us\":{\"p50\":0.0,\"p95\":0.0,\"p99\":0.0,\"mean\":0.0,\"max\":0.0},\
             \"requests_per_sec\":0.0,\"shed\":0,\"retries\":0,\"bytes_in\":0,\"bytes_out\":0,\
             \"inflight\":{\"last\":0,\"peak\":0}}"
        );
    }

    #[test]
    fn json_has_stable_keys() {
        let mut acc = ServingAccumulator::new();
        let t0 = clock::now();
        acc.note_submit(t0);
        acc.note_batch(
            2,
            vec![
                (Duration::from_micros(10), Duration::from_micros(100)),
                (Duration::from_micros(20), Duration::from_micros(150)),
            ],
            Duration::from_micros(90),
            t0 + Duration::from_micros(200),
        );
        let json = acc.snapshot().to_json();
        for key in [
            "\"requests\":2",
            "\"batches\":1",
            "\"mean_batch\":2.00",
            "\"batch_histogram\":[[2,1]]",
            "\"latency_us\":{\"p50\":",
            "\"queue_wait_us\":{\"p50\":",
            "\"execute_us\":{\"p50\":",
            "\"requests_per_sec\":",
            "\"shed\":0",
            "\"retries\":0",
            "\"bytes_in\":0",
            "\"bytes_out\":0",
            "\"inflight\":{\"last\":0,\"peak\":0}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn shed_and_retry_counters_accumulate_and_render() {
        let mut acc = ServingAccumulator::new();
        acc.note_shed();
        acc.note_shed();
        acc.note_retry();
        let m = acc.snapshot();
        assert_eq!(m.shed, 2);
        assert_eq!(m.retries, 1);
        let json = m.to_json();
        assert!(json.contains("\"shed\":2"), "{json}");
        assert!(json.contains("\"retries\":1"), "{json}");
    }

    #[test]
    fn bytes_and_inflight_pressure_accumulate_and_render() {
        let mut acc = ServingAccumulator::new();
        acc.note_bytes_in(120);
        acc.note_bytes_in(30);
        acc.note_bytes_out(64);
        acc.note_inflight(3);
        acc.note_inflight(9); // high-water mark
        acc.note_inflight(2); // latest observation
        let m = acc.snapshot();
        assert_eq!(m.bytes_in, 150);
        assert_eq!(m.bytes_out, 64);
        assert_eq!(m.inflight, 2);
        assert_eq!(m.inflight_peak, 9);
        let json = m.to_json();
        assert!(json.contains("\"bytes_in\":150"), "{json}");
        assert!(json.contains("\"bytes_out\":64"), "{json}");
        assert!(json.contains("\"inflight\":{\"last\":2,\"peak\":9}"), "{json}");

        // Merge: bytes add, in-flight gauges take the highest pressure.
        let mut other = ServingAccumulator::new();
        other.note_bytes_in(10);
        other.note_inflight(5);
        acc.merge_from(&other);
        let merged = acc.snapshot();
        assert_eq!(merged.bytes_in, 160);
        assert_eq!(merged.inflight, 5);
        assert_eq!(merged.inflight_peak, 9);
    }

    #[test]
    fn merge_rolls_per_replica_accumulators_into_one_view() {
        let ms = Duration::from_millis;
        let t0 = clock::now();
        let mut a = ServingAccumulator::new();
        a.note_submit(t0);
        a.note_batch(2, vec![(ms(1), ms(4)), (ms(1), ms(5))], ms(3), t0 + ms(10));
        a.note_retry();
        let mut b = ServingAccumulator::new();
        b.note_submit(t0 + ms(5));
        b.note_batch(1, vec![(ms(2), ms(9))], ms(7), t0 + ms(30));
        b.note_shed();

        let mut rollup = ServingAccumulator::new();
        rollup.merge_from(&a);
        rollup.merge_from(&b);
        let m = rollup.snapshot();
        assert_eq!(m.requests, 3);
        assert_eq!(m.batches, 2);
        assert_eq!(m.batch_histogram, vec![(1, 1), (2, 1)]);
        assert_eq!(m.shed, 1);
        assert_eq!(m.retries, 1);
        // The throughput window spans the earliest submit to the latest
        // completion: 3 requests over 30 ms = 100 req/s.
        assert!((m.requests_per_sec - 100.0).abs() < 10.0, "{}", m.requests_per_sec);
        // The merged latency histogram holds all three samples; its max
        // quantile sits at the slowest replica's sample.
        assert!(m.p99_us >= 8_000.0, "p99 {} lost the slow sample", m.p99_us);
        // Merging an empty accumulator is a no-op.
        let before = rollup.snapshot();
        rollup.merge_from(&ServingAccumulator::new());
        assert_eq!(rollup.snapshot(), before);
    }
}
