//! The in-process load generator: `nshd-wire/v1` request frames over one
//! loopback TCP connection per phase.
//!
//! Three traffic shapes:
//! - [`closed_loop`]: one request in flight through a [`NetClient`],
//!   with an optional pause between a reply and the next request;
//! - [`open_loop`]: requests due on a fixed-rate [`Schedule`], sent by
//!   this thread while a second thread reads replies, optionally
//!   interleaved with in-process writes on their own fixed cadence;
//! - [`windowed`]: a fixed number of requests kept in flight.
//!
//! Frames are encoded once per case; a send patches the request id into
//! a copy, so the generator's own cost stays small and constant.

use crate::schedule::{latency_from_due, Lateness, Schedule};
use nshd_net::{Frame, NetClient, RequestBody};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a generator waits on a silent server before failing the
/// outstanding requests.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Byte range of the request id inside an encoded frame header.
const ID_BYTES: std::ops::Range<usize> = 8..16;

/// One request payload, with its frame pre-encoded under id 0.
pub struct Case {
    /// The payload as the client builds it.
    pub body: RequestBody,
    frame: Vec<u8>,
}

impl Case {
    /// Encodes `body` once for repeated sends.
    pub fn new(body: RequestBody) -> Case {
        let frame = Frame::Request { id: 0, body: body.clone() }.encode();
        Case { body, frame }
    }

    /// The pre-encoded frame (request id 0).
    pub fn frame(&self) -> &[u8] {
        &self.frame
    }

    /// The encoded request frame carrying `id`.
    pub fn frame_with_id(&self, id: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.frame);
        out[ID_BYTES].copy_from_slice(&id.to_le_bytes());
    }
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A reply frame carrying this prediction.
    Reply(u32),
    /// An error frame, a transport fault or no answer at all.
    Failed(String),
}

/// One request of a phase.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the workload's case list.
    pub case: usize,
    /// When the schedule wanted it sent (the send time in closed loops).
    pub due: Instant,
    /// When it was written to the socket.
    pub sent: Instant,
    /// When its reply was read.
    pub received: Instant,
    /// The reply.
    pub outcome: Outcome,
}

impl Record {
    /// Latency from the due time, in seconds.
    pub fn latency_s(&self) -> f64 {
        latency_from_due(self.due, self.received)
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// One record per request sent, in send order.
    pub records: Vec<Record>,
    /// Wall time from the first send to the last reply, in seconds.
    pub elapsed_s: f64,
    /// The generator's lateness against its schedule (open loop only).
    pub lateness: Lateness,
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// Reads one reply frame: `(request id, outcome)`, or `Err` when the
/// connection can no longer be framed.
fn read_reply(stream: &mut TcpStream) -> Result<(u64, Outcome), String> {
    match Frame::read_from(stream) {
        Ok(Some(Frame::Reply { id, body })) => Ok((id, Outcome::Reply(body.prediction))),
        Ok(Some(Frame::Error { id, body })) => {
            Ok((id, Outcome::Failed(format!("{:?}: {}", body.code, body.detail))))
        }
        Ok(Some(other)) => Err(format!("unexpected frame kind for id {}", other.id())),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Case index for the request with global id `id`.
fn case_of(id: u64, cases: usize) -> usize {
    (id % cases as u64) as usize
}

/// A phase whose connection failed: one failed record.
fn unconnected(case: usize, error: std::io::Error) -> Phase {
    let now = Instant::now();
    let outcome = Outcome::Failed(format!("connect: {error}"));
    let record = Record { case, due: now, sent: now, received: now, outcome };
    Phase { records: vec![record], ..Phase::default() }
}

/// Sends requests strictly one at a time through a [`NetClient`],
/// pausing `think` after each reply, cycling through `cases` from id
/// `first_id`, until `deadline` (at least one request) or the first
/// failure.
pub fn closed_loop(
    addr: SocketAddr,
    cases: &[Case],
    first_id: u64,
    think: Duration,
    deadline: Instant,
) -> Phase {
    let mut client = match NetClient::connect_with_deadlines(addr, REPLY_TIMEOUT, REPLY_TIMEOUT) {
        Ok(c) => c,
        Err(e) => return unconnected(case_of(first_id, cases.len()), e),
    };
    let mut phase = Phase::default();
    let start = Instant::now();
    for id in first_id.. {
        let case = case_of(id, cases.len());
        let sent = Instant::now();
        if sent >= deadline && !phase.records.is_empty() {
            break;
        }
        let outcome = match client.request(cases[case].body.clone()) {
            Ok(reply) => Outcome::Reply(reply.prediction),
            Err(e) => Outcome::Failed(e.to_string()),
        };
        let received = Instant::now();
        let broken = matches!(outcome, Outcome::Failed(_));
        phase.records.push(Record { case, due: sent, sent, received, outcome });
        if broken {
            break;
        }
        std::thread::sleep(think);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// A side task the open-loop sender runs on its own fixed cadence,
/// between sends (the glue scenario's publishes).
pub struct Ticker<'a> {
    /// Ticks per second.
    pub rate: f64,
    /// Called once per tick.
    pub tick: &'a mut dyn FnMut(),
}

/// Open loop: `schedule.count(seconds)` requests, request `i` due at
/// `schedule.due(i)`. This thread sends (and runs the ticker); one
/// scoped thread reads replies, which may arrive out of order.
pub fn open_loop(
    addr: SocketAddr,
    cases: &[Case],
    first_id: u64,
    rate: f64,
    seconds: f64,
    mut ticker: Option<Ticker<'_>>,
) -> Phase {
    let pair = connect(addr).and_then(|s| Ok((s.try_clone()?, s)));
    let (mut reader, mut writer) = match pair {
        Ok(pair) => pair,
        Err(e) => return unconnected(case_of(first_id, cases.len()), e),
    };
    let mut phase = Phase::default();
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = Schedule::new(start, rate);
    let n = schedule.count(seconds);
    let ticks = ticker.as_ref().map(|t| Schedule::new(start, t.rate));

    let (sends, replies) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got: Vec<Option<(Instant, Outcome)>> = vec![None; n];
            let mut received = 0usize;
            while received < n {
                match read_reply(&mut reader) {
                    Ok((id, outcome)) => {
                        let Some(slot) =
                            id.checked_sub(first_id).and_then(|i| got.get_mut(i as usize))
                        else {
                            continue; // not ours; the count check below fails the phase
                        };
                        if slot.is_none() {
                            *slot = Some((Instant::now(), outcome));
                            received += 1;
                        }
                    }
                    Err(_) => break,
                }
            }
            got
        });

        let mut sends: Vec<(Instant, Instant)> = Vec::with_capacity(n);
        let mut buf = Vec::new();
        let mut tick = 0usize;
        for i in 0..n {
            let due = schedule.due(i);
            // Run every tick that falls due before this send.
            if let (Some(t), Some(ticks)) = (ticker.as_mut(), ticks.as_ref()) {
                while ticks.due(tick) <= due {
                    sleep_until(ticks.due(tick));
                    (t.tick)();
                    tick += 1;
                }
            }
            sleep_until(due);
            let id = first_id + i as u64;
            cases[case_of(id, cases.len())].frame_with_id(id, &mut buf);
            let sent = Instant::now();
            if writer.write_all(&buf).is_err() {
                break;
            }
            sends.push((due, sent));
        }
        if sends.len() < n {
            // The socket broke: unblock the reader rather than wait out
            // its timeout for replies that can no longer come.
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        let replies = receiver.join().unwrap_or_else(|_| vec![None; n]);
        (sends, replies)
    });

    let mut last = start;
    for (i, reply) in replies.into_iter().enumerate() {
        let case = case_of(first_id + i as u64, cases.len());
        let (due, sent) = sends.get(i).copied().unwrap_or((schedule.due(i), schedule.due(i)));
        if i < sends.len() {
            phase.lateness.record(due, sent);
        }
        let (received, outcome) = reply.unwrap_or_else(|| {
            (Instant::now(), Outcome::Failed("no reply (connection lost or timed out)".into()))
        });
        last = last.max(received);
        phase.records.push(Record { case, due, sent, received, outcome });
    }
    phase.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    phase
}

/// Keeps `window` requests in flight on one connection for `seconds`,
/// then drains; a single thread sends and reads.
pub fn windowed(
    addr: SocketAddr,
    cases: &[Case],
    first_id: u64,
    window: usize,
    seconds: f64,
) -> Phase {
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => return unconnected(case_of(first_id, cases.len()), e),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut got: Vec<Option<(Instant, Outcome)>> = Vec::new();
    let mut buf = Vec::new();
    let mut outstanding = 0usize;
    'phase: loop {
        // Top the window up while the phase lasts.
        while outstanding < window && (sent_at.is_empty() || Instant::now() < end) {
            let id = first_id + sent_at.len() as u64;
            cases[case_of(id, cases.len())].frame_with_id(id, &mut buf);
            let now = Instant::now();
            if stream.write_all(&buf).is_err() {
                break 'phase;
            }
            sent_at.push(now);
            got.push(None);
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let Ok((id, outcome)) = read_reply(&mut stream) else {
            break;
        };
        if let Some(slot) = id.checked_sub(first_id).and_then(|i| got.get_mut(i as usize)) {
            if slot.is_none() {
                *slot = Some((Instant::now(), outcome));
                outstanding -= 1;
            }
        }
    }
    let mut phase = Phase::default();
    let mut last = start;
    for (i, (sent, reply)) in sent_at.into_iter().zip(got).enumerate() {
        let (received, outcome) = reply.unwrap_or_else(|| {
            (Instant::now(), Outcome::Failed("no reply (connection lost or timed out)".into()))
        });
        last = last.max(received);
        let case = case_of(first_id + i as u64, cases.len());
        phase.records.push(Record { case, due: sent, sent, received, outcome });
    }
    phase.elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    phase
}

/// Sleeps until `when` (returns at once if it has passed).
pub fn sleep_until(when: Instant) {
    let now = Instant::now();
    if when > now {
        std::thread::sleep(when - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patched_frames_decode_with_their_new_id() {
        let case = Case::new(RequestBody::f32_from(&[2, 2], &[1.0, -2.0, 3.5, 0.0]));
        let mut buf = Vec::new();
        case.frame_with_id(0xDEAD_BEEF_0042, &mut buf);
        let (frame, used) = Frame::decode(&buf).expect("patched frame decodes");
        assert_eq!(used, buf.len());
        assert_eq!(frame.id(), 0xDEAD_BEEF_0042);
        match frame {
            Frame::Request { body, .. } => assert_eq!(body, case.body),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn case_ids_cycle_through_the_list() {
        assert_eq!(case_of(0, 3), 0);
        assert_eq!(case_of(7, 3), 1);
        assert_eq!(case_of(u64::MAX, 1), 0);
    }
}
