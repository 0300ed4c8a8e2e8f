//! `nshd-perfbench`: the NSHD serving benchmark.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <image|hd_query> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds one workload from the seed, serves it behind a
//! one-replica `nshd-net` server on loopback, drives `nshd-wire/v1`
//! traffic at it from inside the process, checks every reply against a
//! reference prediction computed in-process, and prints one JSON object
//! as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from a separate run that times every layer's entry
//! point and collects the program's own `nshd-obs` spans. A line before
//! it records the run configuration and every phase's counts.
//!
//! Fixed settings, whatever the environment: `NSHD_THREADS=1`, one
//! replica, one runtime worker, two front-end service threads, one
//! generator connection per phase.

mod alloc;
mod load;
mod procfs;
mod schedule;
mod stats;
mod workloads;

use load::{Outcome, Phase, Ticker};
use nshd_obs::{Json, Recorder, ServingMetrics};
use schedule::Lateness;
use stats::{chunk_rates, median, window_median, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{Traffic, Workload, NAMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Interleaved measurement rounds per end-to-end run.
const ROUNDS: usize = 8;
/// Pause between a reply and the next request of the `idle_p50_ms`
/// phase, so every request finds the server idle.
const IDLE_THINK: Duration = Duration::from_millis(10);
/// Requests kept in flight by the `runtime.peak_rps` phase.
const PEAK_WINDOW: usize = 8;
/// Items per call of the offline batch phase; each call is one window.
const OFFLINE_BATCH: usize = 32;
/// Completions per `runtime.peak_rps` window.
const PEAK_CHUNK: usize = 16;

/// End-to-end metrics: name and unit, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("idle_p50_ms", "ms"),
    ("p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name and unit, in print order. A layer a workload
/// never runs reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("tensor.matmul_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.im2col_us", "us"),
    ("tensor.im2col_bytes", "bytes"),
    ("nn.features_us", "us"),
    ("hdc.encode_us", "us"),
    ("hdc.score_us", "us"),
    ("hdc.score_dense_us", "us"),
    ("hdc.score_int8_us", "us"),
    ("hdc.score_packed_us", "us"),
    ("hdc.score_dense_gops", "GOP/s"),
    ("hdc.score_int8_gops", "GOP/s"),
    ("hdc.score_packed_gops", "GOP/s"),
    ("hdc.compile_int8_us", "us"),
    ("hdc.compile_packed_us", "us"),
    ("core.extract_us", "us"),
    ("core.finish_us", "us"),
    ("core.sign_us", "us"),
    ("core.deploy_score_us", "us"),
    ("core.train_s", "s"),
    ("core.offline_ips", "1/s"),
    ("runtime.self_us", "us"),
    ("runtime.queue_wait_us_mean", "us"),
    ("runtime.execute_us_mean", "us"),
    ("runtime.mean_batch", "count"),
    ("runtime.peak_rps", "1/s"),
    ("runtime.shed", "count"),
    ("runtime.retries", "count"),
    ("net.self_us", "us"),
    ("net.decode_us", "us"),
    ("net.reply_encode_us", "us"),
    ("net.bytes_in_per_req", "bytes"),
    ("net.bytes_out_per_req", "bytes"),
    ("glue.predict_us", "us"),
    ("glue.head_encode_us", "us"),
    ("glue.swap_memory_us", "us"),
    ("glue.set_scoring_us", "us"),
    ("glue.publishes", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("data.synth_s", "s"),
    ("proc.allocs_per_req", "count"),
    ("proc.ctx_switches_per_req", "count"),
    ("proc.steal_pct", "%"),
    ("onion.rtt_us", "us"),
    ("onion.engine_us", "us"),
    ("onion.unattributed_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !NAMES.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}, got {:?}", out.workload));
    }
    Ok(out)
}

/// One named phase's counts, accumulated over the rounds it ran in.
#[derive(Default)]
struct PhaseRow {
    rounds: usize,
    sent: usize,
    failed: usize,
    seconds: f64,
    /// Latencies (seconds) of the correct replies.
    ok: Vec<f64>,
    lateness: Lateness,
}

impl PhaseRow {
    fn to_json(&self, name: &str) -> Json {
        let s = Summary::of(&self.ok);
        let ms = |f: fn(&Summary) -> f64| Json::Num(s.as_ref().map_or(0.0, |s| f(s) * 1e3));
        let mut row = Json::obj(vec![
            ("phase", Json::str(name)),
            ("rounds", Json::from(self.rounds)),
            ("sent", Json::from(self.sent)),
            ("ok", Json::from(self.ok.len())),
            ("failed", Json::from(self.failed)),
            ("seconds", Json::Num(self.seconds)),
            ("n", Json::from(self.ok.len())),
            ("p50_ms", ms(|s| s.p50)),
            ("p90_ms", ms(|s| s.p90)),
            ("max_ms", ms(|s| s.max)),
        ]);
        if self.lateness.n > 0 {
            row.push_field(
                "lateness",
                Json::obj(vec![
                    ("n", Json::from(self.lateness.n)),
                    ("mean_us", Json::Num(self.lateness.mean_s() * 1e6)),
                    ("max_us", Json::Num(self.lateness.max_s * 1e6)),
                    ("over_1ms", Json::from(self.lateness.late)),
                ]),
            );
        }
        row
    }
}

/// Running totals of requests attempted and failed, plus every phase's
/// counts for the configuration record.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    phases: Vec<(&'static str, PhaseRow)>,
}

impl Tally {
    /// Checks every reply of `phase`, adds it to the row `name`, and
    /// returns the latencies (seconds) of the correct replies. A wrong
    /// prediction, an error frame and a missing reply all count as
    /// failed.
    fn check(&mut self, name: &'static str, w: &dyn Traffic, phase: &Phase) -> Vec<f64> {
        let mut ok = Vec::with_capacity(phase.records.len());
        let mut failed = 0usize;
        for r in &phase.records {
            match &r.outcome {
                Outcome::Reply(p) if w.check(r, *p) => ok.push(r.latency_s()),
                other => {
                    if failed == 0 {
                        eprintln!("[perfbench] {name}: case {} failed: {other:?}", r.case);
                    }
                    failed += 1;
                }
            }
        }
        self.attempted += phase.records.len() as u64;
        self.failed += failed as u64;
        let index = match self.phases.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.phases.push((name, PhaseRow::default()));
                self.phases.len() - 1
            }
        };
        let row = &mut self.phases[index].1;
        row.rounds += 1;
        row.sent += phase.records.len();
        row.failed += failed;
        row.seconds += phase.elapsed_s;
        row.ok.extend_from_slice(&ok);
        row.lateness.merge(&phase.lateness);
        ok
    }

    fn phases_json(&self) -> Json {
        Json::arr(self.phases.iter().map(|(name, row)| row.to_json(name)))
    }

    /// Checks one reply outside any phase (the onion's round trips).
    fn check_one(&mut self, w: &dyn Traffic, r: &load::Record) {
        self.attempted += 1;
        if !matches!(r.outcome, Outcome::Reply(p) if w.check(r, p)) {
            eprintln!("[perfbench] onion: case {} failed: {:?}", r.case, r.outcome);
            self.failed += 1;
        }
    }

    /// Counts one in-process `ReplicaSet::predict` call of the onion.
    fn check_onion(&mut self, o: &workloads::Onion) {
        self.attempted += 1;
        if !o.correct {
            eprintln!("[perfbench] onion: ReplicaSet::predict missed its reference");
            self.failed += 1;
        }
    }

    /// Counts an offline batch of `n` items with `wrong` mismatches.
    fn offline(&mut self, n: usize, wrong: usize) {
        self.attempted += n as u64;
        self.failed += wrong as u64;
    }
}

/// Ids advance across phases so every request of a run is distinct.
struct Ids(u64);

impl Ids {
    fn take(&mut self, phase: &Phase) -> u64 {
        let first = self.0;
        self.0 += phase.records.len() as u64 + 1;
        first
    }
}

/// One phase of closed-loop traffic, by duration.
fn closed(w: &dyn Traffic, ids: &mut Ids, think: Duration, seconds: f64) -> Phase {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let phase = load::closed_loop(w.addr(), w.cases(), ids.0, think, deadline);
    ids.take(&phase);
    phase
}

/// One open-loop phase at the workload's fixed rate, with its writes.
fn open(w: &dyn Traffic, ids: &mut Ids, rate: f64, seconds: f64) -> Phase {
    let mut write = || w.write();
    let ticker = w.write_rate().map(|rate| Ticker { rate, tick: &mut write });
    let phase = load::open_loop(w.addr(), w.cases(), ids.0, rate, seconds, ticker);
    ids.take(&phase);
    phase
}

/// Offline throughput: `OFFLINE_BATCH`-item calls of the engine's batch
/// API for `seconds` (at least two); returns items/s per call.
fn offline(w: &dyn Workload, tally: &mut Tally, seconds: f64) -> Vec<f64> {
    let n_cases = w.cases().len();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut windows = Vec::new();
    while windows.len() < 2 || Instant::now() < end {
        let first = windows.len() * OFFLINE_BATCH;
        let batch: Vec<usize> = (first..first + OFFLINE_BATCH).map(|i| i % n_cases).collect();
        let start = Instant::now();
        let wrong = w.offline(&batch);
        windows.push(batch.len() as f64 / start.elapsed().as_secs_f64());
        tally.offline(batch.len(), wrong);
    }
    windows
}

/// Completion rates of a `peak` phase's correct replies, per
/// [`PEAK_CHUNK`] completions.
fn peak_rates(w: &dyn Traffic, phase: &Phase) -> Vec<f64> {
    let Some(t0) = phase.records.first().map(|r| r.sent) else {
        return Vec::new();
    };
    let done: Vec<f64> = phase
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Reply(p) if w.check(r, p)))
        .map(|r| r.received.saturating_duration_since(t0).as_secs_f64())
        .collect();
    chunk_rates(&done, PEAK_CHUNK)
}

/// Metric values by name.
type Values = BTreeMap<&'static str, f64>;

/// Builds workload `name` `reps` times (the previous one is shut down
/// before the next is built) and returns the last, with every set-up's
/// times.
fn build(args: &Args, reps: usize) -> (Box<dyn Workload>, Vec<workloads::SetupTimes>) {
    let mut times = Vec::with_capacity(reps);
    let mut current: Option<Box<dyn Workload>> = None;
    for _ in 0..reps.max(1) {
        if let Some(previous) = current.take() {
            previous.shutdown();
        }
        let (w, t) = workloads::setup(&args.workload, args.seed).expect("a known workload");
        times.push(t);
        current = Some(w);
    }
    (current.expect("at least one set-up"), times)
}

/// The end-to-end run: set-up, then [`ROUNDS`] rounds of the idle and
/// fixed-rate phases. Interleaving spreads every metric's samples over
/// the whole run, so a slow spell on the host touches all of them a
/// little rather than one of them wholly.
fn run_end_to_end(
    args: &Args,
    tally: &mut Tally,
    config: &mut Vec<(&'static str, Json)>,
) -> Values {
    let (w, setups) = build(args, SETUP_REPS);
    let setups: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let rate = workloads::rate(&args.workload);
    let mut ids = Ids(1);
    let warm = closed(&*w, &mut ids, Duration::ZERO, 0.05 * args.seconds);
    tally.check("warmup", &*w, &warm);

    let round = args.seconds / ROUNDS as f64;
    let (mut idle_ok, mut fixed_ok) = (Vec::new(), Vec::new());
    let mut fixed_cpu_s = 0.0;
    for _ in 0..ROUNDS {
        let idle = closed(&*w, &mut ids, IDLE_THINK, 0.4 * round);
        idle_ok.extend(tally.check("idle", &*w, &idle));

        let cpu0 = procfs::read_cpu_seconds();
        let fixed = open(&*w, &mut ids, rate, 0.6 * round);
        let cpu1 = procfs::read_cpu_seconds();
        fixed_ok.extend(tally.check("fixed_rate", &*w, &fixed));
        fixed_cpu_s += cpu1.zip(cpu0).map_or(0.0, |(b, a)| b - a);
    }
    let rss = procfs::read_peak_rss_mb().unwrap_or(0.0);
    config.push(("rounds", Json::from(ROUNDS)));
    config.push(("idle_think_ms", Json::Num(IDLE_THINK.as_secs_f64() * 1e3)));
    config.push(("setup_s_samples", Json::arr(setups.iter().map(|&v| Json::Num(v)))));
    w.shutdown();

    let cpu_per_req =
        if fixed_ok.is_empty() { 0.0 } else { fixed_cpu_s * 1e3 / fixed_ok.len() as f64 };
    Values::from([
        ("setup_s", median(&setups).unwrap_or(0.0)),
        ("idle_p50_ms", median(&idle_ok).unwrap_or(0.0) * 1e3),
        ("p50_ms", median(&fixed_ok).unwrap_or(0.0) * 1e3),
        ("cpu_ms_per_req", cpu_per_req),
        ("peak_rss_mb", rss),
    ])
}

/// Process and server counters at one instant.
struct Counters {
    cpu_s: f64,
    allocs: u64,
    switches: u64,
    rollup: ServingMetrics,
    front: ServingMetrics,
}

impl Counters {
    fn read(w: &dyn Workload) -> Counters {
        Counters {
            cpu_s: procfs::read_cpu_seconds().unwrap_or(0.0),
            allocs: alloc::allocations(),
            switches: procfs::read_context_switches().unwrap_or(0),
            rollup: w.server().rollup(),
            front: w.server().front(),
        }
    }
}

/// Splits an onion measurement: `(net self, runtime self, unattributed)`.
/// By construction `net + runtime + Σleaves + unattributed == rtt`.
fn onion_split(rtt: f64, runtime: f64, engine: f64, leaves: f64) -> (f64, f64, f64) {
    (rtt - runtime, runtime - engine, engine - leaves)
}

/// Span totals over every recorded path whose last segment satisfies
/// `is_span`: `(nanos, bytes)`, plus the FLOPs of those spans and of
/// everything under them.
fn span_totals(
    spans: &BTreeMap<String, nshd_obs::SpanStats>,
    is_span: impl Fn(&str) -> bool,
) -> (u64, u64, u64) {
    let (mut nanos, mut bytes, mut flops) = (0u64, 0u64, 0u64);
    for (path, stats) in spans {
        let last = path.rsplit('/').next().unwrap_or(path);
        if is_span(last) {
            nanos += stats.total_nanos;
            bytes += stats.bytes;
        }
        if path.split('/').any(&is_span) {
            flops += stats.flops;
        }
    }
    (nanos, bytes, flops)
}

/// Median seconds of `f` over repeated calls until `budget` passes (at
/// least `min_reps` samples), each sample averaging `inner` calls.
fn micro(budget: Duration, min_reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < min_reps || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / inner as f64);
    }
    median(&samples).unwrap_or(0.0)
}

/// The traced run: untraced and traced fixed-rate phases, the onion,
/// and per-call timings of every layer.
fn run_traced(args: &Args, tally: &mut Tally, config: &mut Vec<(&'static str, Json)>) -> Values {
    use nshd_hdc::{ScoringBackend, ScoringMode};
    use std::hint::black_box;

    let s = args.seconds;
    let (w, setups) = build(args, 1);
    let setup = setups[0];
    let rate = workloads::rate(&args.workload);
    let mut ids = Ids(1);
    let mut v = Values::new();

    let warm = closed(&*w, &mut ids, Duration::ZERO, 0.05 * s);
    tally.check("warmup", &*w, &warm);

    // Untraced fixed rate: process counters and the batchers' rollup.
    let before = Counters::read(&*w);
    let plain = open(&*w, &mut ids, rate, 0.25 * s);
    let after = Counters::read(&*w);
    let plain_ok = tally.check("fixed_rate", &*w, &plain);
    let sent = plain.records.len().max(1) as f64;
    let completed = plain_ok.len().max(1) as f64;
    v.insert("proc.allocs_per_req", after.allocs.saturating_sub(before.allocs) as f64 / completed);
    v.insert(
        "proc.ctx_switches_per_req",
        after.switches.saturating_sub(before.switches) as f64 / completed,
    );
    let (b, a) = (&before.rollup, &after.rollup);
    let requests = a.requests.saturating_sub(b.requests) as f64;
    let batches = a.batches.saturating_sub(b.batches) as f64;
    if requests > 0.0 && batches > 0.0 {
        let qw =
            a.queue_wait.mean_us * a.requests as f64 - b.queue_wait.mean_us * b.requests as f64;
        let ex = a.execute.mean_us * a.batches as f64 - b.execute.mean_us * b.batches as f64;
        v.insert("runtime.queue_wait_us_mean", qw / requests);
        v.insert("runtime.execute_us_mean", ex / batches);
        v.insert("runtime.mean_batch", requests / batches);
    }
    v.insert("runtime.shed", a.shed.saturating_sub(b.shed) as f64);
    v.insert("runtime.retries", a.retries.saturating_sub(b.retries) as f64);
    v.insert(
        "net.bytes_in_per_req",
        after.front.bytes_in.saturating_sub(before.front.bytes_in) as f64 / sent,
    );
    v.insert(
        "net.bytes_out_per_req",
        after.front.bytes_out.saturating_sub(before.front.bytes_out) as f64 / sent,
    );
    config.push((
        "cpu_ms_per_req_untraced",
        Json::Num((after.cpu_s - before.cpu_s) * 1e3 / completed),
    ));

    // Traced fixed rate: the program's own spans.
    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());
    let traced = open(&*w, &mut ids, rate, 0.25 * s);
    nshd_obs::install(previous);
    let traced_ok = tally.check("fixed_rate_traced", &*w, &traced);
    let spans = recorder.span_stats();
    let per_req = traced_ok.len().max(1) as f64;
    let (mm_ns, _, mm_flops) = span_totals(&spans, |n| n.starts_with("matmul"));
    let (im_ns, im_bytes, _) = span_totals(&spans, |n| n == "im2col");
    v.insert("tensor.matmul_us", mm_ns as f64 / 1e3 / per_req);
    v.insert("tensor.matmul_gflops", if mm_ns > 0 { mm_flops as f64 / mm_ns as f64 } else { 0.0 });
    v.insert("tensor.im2col_us", im_ns as f64 / 1e3 / per_req);
    v.insert("tensor.im2col_bytes", im_bytes as f64 / per_req);
    if let (Some(p), Some(t)) = (median(&plain_ok), median(&traced_ok)) {
        v.insert("obs.trace_overhead_pct", (t / p - 1.0) * 100.0);
    }

    // The onion: one request timed at each layer's entry point, the
    // layers interleaved so drift hits all of them alike.
    let mut client = nshd_net::NetClient::connect(w.addr()).expect("loopback connect");
    let (mut rtt, mut runtime, mut engine) = (Vec::new(), Vec::new(), Vec::new());
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut leaf_names: Vec<&'static str> = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(0.2 * s);
    let n_cases = w.cases().len();
    let mut rep = 0usize;
    while rep < 20 || Instant::now() < end {
        let case = rep % n_cases;
        let t = Instant::now();
        let reply = client.request(w.cases()[case].body.clone());
        rtt.push(t.elapsed().as_secs_f64());
        let now = Instant::now();
        let record = load::Record {
            case,
            due: t,
            sent: t,
            received: now,
            outcome: match reply {
                Ok(r) => Outcome::Reply(r.prediction),
                Err(e) => Outcome::Failed(e.to_string()),
            },
        };
        tally.check_one(&*w, &record);
        let o = w.onion(case);
        tally.check_onion(&o);
        runtime.push(o.runtime);
        engine.push(o.engine);
        leaf_names = o.leaves.iter().map(|(n, _)| *n).collect();
        for (name, secs) in o.leaves.into_iter().chain(o.extra) {
            parts.entry(name).or_default().push(secs);
        }
        rep += 1;
    }
    let us = |xs: &[f64]| median(xs).unwrap_or(0.0) * 1e6;
    for (name, xs) in &parts {
        v.insert(name, us(xs));
    }
    let leaves: f64 = leaf_names.iter().map(|n| v[n]).sum();
    let (rtt_us, runtime_us, engine_us) = (us(&rtt), us(&runtime), us(&engine));
    let (net_self, runtime_self, unattributed) = onion_split(rtt_us, runtime_us, engine_us, leaves);
    v.insert("onion.rtt_us", rtt_us);
    v.insert("onion.engine_us", engine_us);
    v.insert("net.self_us", net_self);
    v.insert("runtime.self_us", runtime_self);
    v.insert("onion.unattributed_us", unattributed);
    config.push(("onion_reps", Json::from(rep)));
    config.push(("onion_leaves", Json::arr(leaf_names.iter().map(|n| Json::str(*n)))));

    // Per-call timings beside the onion.
    let budget = Duration::from_secs_f64(0.02 * s);
    let (memory, query) = w.memory_and_query();
    let ops = (memory.num_classes() * memory.dim()) as f64;
    let queries = std::slice::from_ref(&query);
    for (mode, score, gops, compile) in [
        (ScoringMode::Dense, "hdc.score_dense_us", "hdc.score_dense_gops", None),
        (
            ScoringMode::Int8,
            "hdc.score_int8_us",
            "hdc.score_int8_gops",
            Some("hdc.compile_int8_us"),
        ),
        (
            ScoringMode::Packed,
            "hdc.score_packed_us",
            "hdc.score_packed_gops",
            Some("hdc.compile_packed_us"),
        ),
    ] {
        let backend = ScoringBackend::build(&memory, mode);
        let secs = micro(budget, 10, 8, || {
            black_box(backend.predict_bipolar(&memory, queries));
        });
        v.insert(score, secs * 1e6);
        v.insert(gops, ops / secs / 1e9);
        if let Some(name) = compile {
            let secs = micro(budget, 10, 1, || {
                black_box(ScoringBackend::build(&memory, mode));
            });
            v.insert(name, secs * 1e6);
        }
    }
    let frame = w.cases()[0].frame().to_vec();
    v.insert("net.decode_us", micro(budget, 10, 16, || assert!(w.decode_frame(&frame))) * 1e6);
    let reply = nshd_net::Frame::Reply {
        id: 7,
        body: nshd_net::ReplyBody { prediction: 3, replica: 0, attempts: 1, server_us: 1234 },
    };
    v.insert(
        "net.reply_encode_us",
        micro(budget, 10, 64, || {
            black_box(reply.encode());
        }) * 1e6,
    );

    // Saturation: a fixed window of requests in flight. The first
    // completions fill the window.
    let peak = load::windowed(w.addr(), w.cases(), ids.0, PEAK_WINDOW, 0.1 * s);
    ids.take(&peak);
    tally.check("peak", &*w, &peak);
    v.insert("runtime.peak_rps", window_median(&[peak_rates(&*w, &peak)], 1).unwrap_or(0.0));

    // The engine's batch API alone; the first window runs on caches
    // the serving phases left behind.
    let windows = offline(&*w, tally, 0.1 * s);
    v.insert("core.offline_ips", window_median(&[windows], 1).unwrap_or(0.0));

    if args.workload == "image" {
        glue_scenario(args.seed, 0.15 * s, tally, &mut v);
        config.push(("glue_read_rps", Json::Num(workloads::GLUE_RATE)));
        config.push(("glue_publish_hz", Json::Num(workloads::GLUE_WRITE_RATE)));
    }
    v.insert("data.synth_s", setup.data_s);
    v.insert("core.train_s", setup.train_s);
    config.push(("setup_s", Json::Num(setup.total_s)));
    w.shutdown();
    v
}

/// The hot-swap scenario, part of the `image` traced run: image reads
/// through a fused three-teacher ensemble at a fixed rate while memory
/// and scoring-mode swaps publish between them. Every read is checked
/// against the states live during its flight; the glue layer's call and
/// publish timings are recorded into `v`.
fn glue_scenario(seed: u64, seconds: f64, tally: &mut Tally, v: &mut Values) {
    let glue = workloads::GlueWorkload::setup(seed);
    let w: &dyn Traffic = &glue;
    let mut ids = Ids(1);
    let warm = closed(w, &mut ids, Duration::ZERO, 0.1 * seconds);
    tally.check("glue_warmup", w, &warm);
    let reads = open(w, &mut ids, workloads::GLUE_RATE, 0.7 * seconds);
    tally.check("glue_reads", w, &reads);

    let (mut predict, mut heads) = (Vec::new(), Vec::new());
    let end = Instant::now() + Duration::from_secs_f64(0.2 * seconds);
    while predict.len() < 10 || Instant::now() < end {
        let (p, h) = glue.time_calls(predict.len() % w.cases().len());
        predict.push(p);
        heads.push(h);
    }
    v.insert("glue.predict_us", median(&predict).unwrap_or(0.0) * 1e6);
    v.insert("glue.head_encode_us", median(&heads).unwrap_or(0.0) * 1e6);
    let writes = w.write_stats();
    v.insert("glue.swap_memory_us", median(&writes.swap_memory).unwrap_or(0.0) * 1e6);
    v.insert("glue.set_scoring_us", median(&writes.set_scoring).unwrap_or(0.0) * 1e6);
    v.insert("glue.publishes", writes.count() as f64);
    Box::new(glue).shutdown();
}

fn main() {
    // Fixed for every run, before anything reads it: one kernel thread.
    std::env::set_var("NSHD_THREADS", "1");
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host0 = procfs::read_host_cpu();
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut config: Vec<(&'static str, Json)> = Vec::new();
    let mut values = if args.trace {
        run_traced(&args, &mut tally, &mut config)
    } else {
        run_end_to_end(&args, &mut tally, &mut config)
    };
    let steal = match (host0, procfs::read_host_cpu()) {
        (Some(a), Some(b)) => a.steal_pct_until(&b),
        _ => 0.0,
    };
    if args.trace {
        values.insert("proc.steal_pct", steal);
    }

    let run = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Uint(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("nproc", Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()))),
        ("nshd_threads", Json::from(nshd_tensor::par::threads())),
        ("simd_available", Json::from(nshd_tensor::simd_available())),
        ("simd_enabled", Json::from(nshd_tensor::simd_enabled())),
        ("rate_rps", Json::Num(workloads::rate(&args.workload))),
        ("replicas", Json::from(1usize)),
        ("runtime_workers", Json::from(1usize)),
        ("max_batch", Json::from(workloads::MAX_BATCH)),
        ("max_wait_us", Json::from(workloads::MAX_WAIT.as_micros() as u64)),
        ("service_threads", Json::from(workloads::SERVICE_THREADS)),
        ("generator", Json::str("1 connection per phase, at most 2 threads")),
        ("peak_window", Json::from(PEAK_WINDOW)),
        ("offline_batch", Json::from(OFFLINE_BATCH)),
        ("host_steal_pct", Json::Num(steal)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let mut record = Json::obj(vec![("config", run)]);
    for (k, val) in config {
        record.push_field(k, val);
    }
    record.push_field("phases", tally.phases_json());
    println!("{record}");

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = Json::obj(list.iter().map(|&(name, unit)| {
        let value = values.get(name).copied().unwrap_or(0.0);
        (name, Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]))
    }));
    let finite = list.iter().all(|(name, _)| values.get(name).is_none_or(|v| v.is_finite()));
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let result = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::Uint(tally.attempted)),
        ("failed", Json::Uint(tally.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args(&["--workload", "hd_query", "--seed", "7", "--seconds", "3", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("hd_query", 7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "image", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "image", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "image", "--seed"]).is_err());
        assert!(args(&["--workload", "image", "--bogus", "1"]).is_err());
    }

    #[test]
    fn onion_parts_add_up_to_the_round_trip() {
        let (rtt, runtime, engine, leaves) = (1100.0, 700.0, 400.0, 350.0);
        let (net, rt, rest) = onion_split(rtt, runtime, engine, leaves);
        assert_eq!(net + rt + leaves + rest, rtt);
        assert_eq!((net, rt, rest), (400.0, 300.0, 50.0));
    }

    #[test]
    fn span_totals_match_by_last_segment_and_roll_up_flops() {
        let stat = |nanos, flops, bytes| nshd_obs::SpanStats {
            count: 1,
            total_nanos: nanos,
            min_nanos: nanos,
            max_nanos: nanos,
            flops,
            bytes,
        };
        let spans = BTreeMap::from([
            ("request/extract/matmul".to_string(), stat(100, 2_000, 10)),
            ("request/score/matmul_bt".to_string(), stat(50, 0, 5)),
            ("request/score/matmul_bt/par".to_string(), stat(40, 1_000, 0)),
            ("request/extract/im2col".to_string(), stat(30, 0, 64)),
        ]);
        assert_eq!(span_totals(&spans, |n| n.starts_with("matmul")), (150, 15, 3_000));
        assert_eq!(span_totals(&spans, |n| n == "im2col"), (30, 64, 0));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }
}
