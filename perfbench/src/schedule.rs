//! The open-loop arrival schedule and its lateness accounting.
//!
//! Request `i` of a phase is due at `start + i / rate`, whatever
//! happened to earlier requests. Latency is timed from that due time, so
//! a stall that delays the generator is charged to every request it
//! held back; how late the generator itself ran is reported beside it.

use std::time::{Duration, Instant};

/// A fixed-rate arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: f64,
}

impl Schedule {
    /// `rate` arrivals per second from `start`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be positive, got {rate}");
        Schedule { start, rate }
    }

    /// Arrivals that fall inside a phase of `seconds` (due strictly
    /// before its end), at least one.
    pub fn count(&self, seconds: f64) -> usize {
        ((seconds * self.rate).ceil() as usize).max(1)
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// How late the generator sent against its schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lateness {
    /// Sends recorded.
    pub n: usize,
    /// Sum of lateness over all sends, in seconds.
    pub total_s: f64,
    /// Largest lateness of one send, in seconds.
    pub max_s: f64,
    /// Sends more than [`Lateness::LATE`] behind schedule.
    pub late: usize,
}

impl Lateness {
    /// The threshold past which a send counts as late.
    pub const LATE: Duration = Duration::from_millis(1);

    /// Records one send made at `sent` for a request due at `due`. A send
    /// ahead of schedule counts as on time.
    pub fn record(&mut self, due: Instant, sent: Instant) {
        let behind = sent.saturating_duration_since(due);
        self.n += 1;
        self.total_s += behind.as_secs_f64();
        self.max_s = self.max_s.max(behind.as_secs_f64());
        if behind > Self::LATE {
            self.late += 1;
        }
    }

    /// Folds another phase's lateness into this one.
    pub fn merge(&mut self, other: &Lateness) {
        self.n += other.n;
        self.total_s += other.total_s;
        self.max_s = self.max_s.max(other.max_s);
        self.late += other.late;
    }

    /// Mean lateness per send in seconds (0 with no sends).
    pub fn mean_s(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_s / self.n as f64
        }
    }
}

/// Latency of a reply received at `received` for a request due at
/// `due`, in seconds: the generator's own delay counts against the
/// system.
pub fn latency_from_due(due: Instant, received: Instant) -> f64 {
    received.saturating_duration_since(due).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_evenly_spaced_from_the_start() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 250.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(250), t0 + Duration::from_secs(1));
        assert_eq!(s.due(1) - s.due(0), Duration::from_millis(4));
        assert_eq!(s.count(2.0), 500);
        assert_eq!(s.count(0.001), 1);
        assert_eq!(Schedule::new(t0, 30.0).count(1.01), 31);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn a_zero_rate_is_rejected() {
        let _ = Schedule::new(Instant::now(), 0.0);
    }

    #[test]
    fn lateness_counts_only_time_behind_schedule() {
        let t0 = Instant::now();
        let mut late = Lateness::default();
        late.record(t0 + Duration::from_millis(5), t0); // early
        late.record(t0, t0 + Duration::from_micros(200));
        late.record(t0, t0 + Duration::from_millis(3));
        assert_eq!(late.n, 3);
        assert_eq!(late.late, 1);
        assert!((late.max_s - 0.003).abs() < 1e-9);
        assert!((late.mean_s() - 0.0032 / 3.0).abs() < 1e-9);
        assert_eq!(Lateness::default().mean_s(), 0.0);

        let mut total = Lateness::default();
        total.merge(&late);
        total.merge(&late);
        assert_eq!((total.n, total.late), (6, 2));
        assert_eq!(total.max_s, late.max_s);
        assert!((total.mean_s() - late.mean_s()).abs() < 1e-12);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_held_back() {
        // The generator stalls 10 ms before request 1 at 1000 rps; request
        // 2 goes out right behind it. Timed from the schedule, both carry
        // the stall; timed from the send, neither would.
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0);
        let sent = t0 + Duration::from_millis(11);
        let service = Duration::from_micros(500);
        let lat1 = latency_from_due(s.due(1), sent + service);
        let lat2 = latency_from_due(s.due(2), sent + service);
        assert!((lat1 - 0.0105).abs() < 1e-9, "{lat1}");
        assert!((lat2 - 0.0095).abs() < 1e-9, "{lat2}");
        let mut late = Lateness::default();
        late.record(s.due(1), sent);
        late.record(s.due(2), sent);
        assert_eq!(late.late, 2);
        assert_eq!(latency_from_due(sent, t0), 0.0);
    }
}
