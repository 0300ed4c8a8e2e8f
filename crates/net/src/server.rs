//! The threaded TCP serving front end over a [`ReplicaSet`].
//!
//! Thread topology (all spawned through one named-builder helper so
//! the workspace thread-creation lint has a single site to ledger):
//!
//! ```text
//! acceptor ──┬─ conn 0 reader ─┐                 ┌─► conn 0 writer
//!            ├─ conn 1 reader ─┼─► replica ──────┼─► conn 1 writer
//!            └─ …              │   collectors    └─► …
//!                              │   (completions)
//!                              └╌╌► failover thread: retries + deadlines
//! ```
//!
//! - The **acceptor** owns the listener; each accepted connection gets
//!   a reader and a writer thread plus a per-connection reply channel.
//! - **Readers** parse frames defensively: any [`WireFault`] becomes a
//!   typed `Malformed` error frame (header-level faults additionally
//!   close the connection, since framing is lost). A parsed request is
//!   expanded to the engine's input and handed to the cluster through
//!   [`ReplicaSet::submit_then`] — admission, routing and the first
//!   attempt's enqueue — without waiting for the answer, so a
//!   connection keeps many requests in flight.
//! - The **completion** of each request runs on the replica's
//!   collector thread when its batch finishes: it encodes the reply
//!   frame and pushes it to the owning connection's writer. Replies
//!   therefore complete out of order and are matched by request id.
//! - The **failover thread** runs the cluster's
//!   [`FailoverLoop`](nshd_runtime::FailoverLoop): it retries requests
//!   whose first attempt failed, with backoff, and answers first
//!   attempts still pending at their deadline with a typed
//!   `DeadlineExceeded` frame.
//! - **Writers** serialize whatever reply is ready first; per-connection
//!   read/write socket deadlines bound a stuck peer.
//!
//! A request thus crosses two thread hand-offs, reader → collector →
//! writer, and no timer.
//!
//! [`NetServer::shutdown`] drains gracefully: the listener closes (new
//! connections are refused), readers are unblocked and joined, the
//! failover thread returns once every admitted request is answered,
//! and the writers flush those replies and are joined.

use crate::wire::{ErrorBody, Frame, FrameReadError, ReplyBody, WireFault, WireInput};
use nshd_core::PipelineError;
use nshd_obs::{clock, ServingAccumulator, ServingMetrics};
use nshd_runtime::{BatchEngine, ClusterReply, Failover, ReplicaSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs for the TCP front end.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free loopback port).
    pub addr: String,
    /// No longer read: readers hand requests to the cluster directly
    /// and completions answer them, so there is no service pool. The
    /// field remains only so the `perfbench/` serving benchmark, which
    /// names it, keeps building.
    pub service_threads: usize,
    /// Per-connection socket read deadline. A peer idle past this at a
    /// frame boundary is disconnected; a peer stalled mid-frame is a
    /// truncated frame.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline; a peer not draining its
    /// replies past this is disconnected.
    pub write_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".into(),
            service_threads: 4,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Handles owned per accepted connection, kept for the drain.
struct ConnHandle {
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// Locks the shared accumulator, recovering from poisoning.
fn lock_acc(acc: &Mutex<ServingAccumulator>) -> std::sync::MutexGuard<'_, ServingAccumulator> {
    acc.lock().unwrap_or_else(|p| p.into_inner())
}

/// Spawns a named thread; the single `thread::Builder` site in this
/// crate (ledgered by lint rule NSHD-L006).
fn spawn_named<F>(name: String, f: F) -> io::Result<JoinHandle<()>>
where
    F: FnOnce() + Send + 'static,
{
    std::thread::Builder::new().name(name).spawn(f)
}

/// A running TCP serving front end over an [`Arc<ReplicaSet>`].
///
/// # Examples
///
/// ```no_run
/// use nshd_core::Engine;
/// use nshd_net::{NetClient, NetServer, NetServerConfig, RequestBody};
/// use nshd_runtime::{ClusterConfig, ReplicaSet};
/// use nshd_tensor::Tensor;
/// use std::sync::Arc;
/// # let engine: Engine<Tensor> = unimplemented!();
/// # let image: Tensor = unimplemented!();
/// let set = ReplicaSet::new(vec![Arc::new(engine)], ClusterConfig::default()).unwrap();
/// let server = NetServer::start(Arc::new(set), NetServerConfig::default()).unwrap();
/// let mut client = NetClient::connect(server.local_addr()).unwrap();
/// let body = RequestBody::f32_from(image.dims(), image.as_slice());
/// let reply = client.request(body).unwrap();
/// println!("class {} from replica {}", reply.prediction, reply.replica);
/// server.shutdown();
/// ```
pub struct NetServer<E: BatchEngine<Output = usize>> {
    set: Arc<ReplicaSet<E>>,
    local_addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    failover: Failover<E>,
    failover_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    metrics: Arc<Mutex<ServingAccumulator>>,
}

impl<E: BatchEngine<Output = usize>> NetServer<E>
where
    E::Input: WireInput + Clone,
{
    /// Binds the listener and spawns the acceptor and the failover
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when the address cannot be
    /// bound or threads cannot be spawned.
    pub fn start(
        set: Arc<ReplicaSet<E>>,
        config: NetServerConfig,
    ) -> Result<NetServer<E>, PipelineError> {
        let io_err = |stage: &'static str| {
            move |e: io::Error| PipelineError::Runtime { stage, detail: e.to_string() }
        };
        let listener = TcpListener::bind(&config.addr).map_err(io_err("net-bind"))?;
        let local_addr = listener.local_addr().map_err(io_err("net-bind"))?;

        let shutting_down = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let metrics = Arc::new(Mutex::new(ServingAccumulator::new()));

        let (failover, failover_loop) = set.failover();
        let failover_thread = {
            let set_ref = Arc::clone(&set);
            spawn_named("nshd-net-failover".into(), move || failover_loop.run(&set_ref))
                .map_err(io_err("net-spawn"))?
        };

        let acceptor = {
            let ctx = Arc::new(ReaderContext {
                set: Arc::clone(&set),
                failover: failover.clone(),
                metrics: Arc::clone(&metrics),
            });
            let flag = Arc::clone(&shutting_down);
            let conns_reg = Arc::clone(&conns);
            let cfg = config.clone();
            let spawned = spawn_named("nshd-net-acceptor".into(), move || {
                accept_loop(&listener, &flag, &conns_reg, &ctx, &cfg);
            });
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    stop_failover(&failover, Some(failover_thread));
                    return Err(io_err("net-spawn")(e));
                }
            }
        };

        Ok(NetServer {
            set,
            local_addr,
            shutting_down,
            acceptor: Some(acceptor),
            failover,
            failover_thread: Some(failover_thread),
            conns,
            metrics,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The replica set this front end serves — chaos tests drain and
    /// readmit replicas through it while traffic is live.
    #[must_use]
    pub fn replica_set(&self) -> &Arc<ReplicaSet<E>> {
        &self.set
    }

    /// A point-in-time snapshot of the front end's own accounting:
    /// per-request service latencies, bytes in/out, sheds surfaced as
    /// error frames. (Cluster-level routing/batching metrics live in
    /// [`ReplicaSet::metrics`].)
    #[must_use]
    pub fn metrics(&self) -> ServingMetrics {
        lock_acc(&self.metrics).snapshot()
    }

    /// Graceful drain: refuse new connections, unblock and join the
    /// readers, wait until every admitted request is answered (the
    /// failover thread returns), then let the writers flush those
    /// replies and join them. Returns the front end's final metrics;
    /// the replica set itself stays up (shut it down separately).
    #[must_use = "the final serving metrics are the drain's product"]
    pub fn shutdown(mut self) -> ServingMetrics {
        self.shutting_down.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection; it checks
        // the flag before treating the connection as real.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // The listener is gone: new connections are now refused. Stop
        // the readers (their sockets half-close), which ends the flow
        // of new requests from established connections too.
        let conns = {
            let mut guard = self.conns.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *guard)
        };
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let mut writers = Vec::with_capacity(conns.len());
        for conn in conns {
            let _ = conn.reader.join();
            writers.push(conn.writer);
        }
        // Every reader is gone, so no new requests can arrive; the
        // failover thread returns once every admitted one is answered.
        stop_failover(&self.failover, self.failover_thread.take());
        // Every answered completion has dropped its reply sender, so
        // the writers flush their backlog and exit.
        for handle in writers {
            let _ = handle.join();
        }
        lock_acc(&self.metrics).snapshot()
    }
}

/// Closes the failover queue and joins its thread, which returns once
/// every request admitted so far has been answered.
fn stop_failover<E: BatchEngine>(failover: &Failover<E>, thread: Option<JoinHandle<()>>) {
    failover.close();
    if let Some(handle) = thread {
        let _ = handle.join();
    }
}

/// What every connection reader shares: the cluster, the completion
/// path's failover queue, and the front end's accounting.
struct ReaderContext<E: BatchEngine> {
    set: Arc<ReplicaSet<E>>,
    failover: Failover<E>,
    metrics: Arc<Mutex<ServingAccumulator>>,
}

/// Accepts connections until the shutdown flag flips, spawning a
/// reader/writer pair per connection.
fn accept_loop<E: BatchEngine<Output = usize>>(
    listener: &TcpListener,
    shutting_down: &AtomicBool,
    conns: &Mutex<Vec<ConnHandle>>,
    ctx: &Arc<ReaderContext<E>>,
    config: &NetServerConfig,
) where
    E::Input: WireInput + Clone,
{
    let mut conn_seq: u64 = 0;
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            // Listener failure: nothing to serve anymore.
            return;
        };
        if shutting_down.load(Ordering::Acquire) {
            // The wake-up connection (or a late arrival): refuse it.
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        conn_seq += 1;
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        let _ = stream.set_nodelay(true);

        let (reply_tx, reply_rx) = channel::<Vec<u8>>();
        let reader = {
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            let ctx = Arc::clone(ctx);
            let reply_tx = reply_tx.clone();
            spawn_named(format!("nshd-net-read-{conn_seq}"), move || {
                read_loop(read_half, &ctx, &reply_tx);
            })
        };
        let writer = {
            let Ok(write_half) = stream.try_clone() else {
                continue;
            };
            let acc = Arc::clone(&ctx.metrics);
            spawn_named(format!("nshd-net-write-{conn_seq}"), move || {
                write_loop(write_half, &reply_rx, &acc);
            })
        };
        // reply_tx's original clone drops here; the writer exits once
        // the reader and the completions of this connection's requests
        // in flight drop theirs.
        match (reader, writer) {
            (Ok(reader), Ok(writer)) => {
                conns.lock().unwrap_or_else(|p| p.into_inner()).push(ConnHandle {
                    stream,
                    reader,
                    writer,
                });
            }
            (r, w) => {
                // Spawn failure: close the socket; any half-spawned
                // thread unwinds on its own when the socket dies.
                let _ = stream.shutdown(Shutdown::Both);
                if let Ok(h) = r {
                    let _ = h.join();
                }
                if let Ok(h) = w {
                    let _ = h.join();
                }
            }
        }
    }
}

/// Parses frames off one connection until EOF, error, or idle timeout.
fn read_loop<E: BatchEngine<Output = usize>>(
    mut stream: TcpStream,
    ctx: &ReaderContext<E>,
    reply_tx: &Sender<Vec<u8>>,
) where
    E::Input: WireInput + Clone,
{
    loop {
        match Frame::read_from(&mut stream) {
            Ok(None) => return, // clean EOF at a frame boundary
            Ok(Some(Frame::Request { id, body })) => {
                let received_at = clock::now();
                let frame_len = (crate::wire::HEADER_LEN + body.encoded_payload_len()) as u64;
                {
                    let mut acc = lock_acc(&ctx.metrics);
                    acc.note_bytes_in(frame_len);
                    acc.note_submit(received_at);
                }
                submit(ctx, id, &body, received_at, reply_tx);
            }
            Ok(Some(other)) => {
                // Clients must not send reply/error kinds; answer with
                // a typed protocol error but keep the (still framed)
                // connection.
                let fault = WireFault::BadKind(match other {
                    Frame::Reply { .. } => crate::wire::PayloadKind::Reply.byte(),
                    _ => crate::wire::PayloadKind::Error.byte(),
                });
                let frame = Frame::Error { id: other.id(), body: ErrorBody::from_fault(&fault) };
                if reply_tx.send(frame.encode()).is_err() {
                    return;
                }
            }
            Err(FrameReadError::Payload { header, fault }) => {
                // The declared payload length was consumed, so framing
                // survives: answer this request with a typed error and
                // keep reading.
                let frame =
                    Frame::Error { id: header.request_id, body: ErrorBody::from_fault(&fault) };
                if reply_tx.send(frame.encode()).is_err() {
                    return;
                }
            }
            Err(FrameReadError::Wire(fault)) => {
                // Typed error frame back, then drop the connection:
                // after a malformed header the byte stream can no
                // longer be framed reliably.
                let frame = Frame::Error { id: 0, body: ErrorBody::from_fault(&fault) };
                let _ = reply_tx.send(frame.encode());
                let _ = stream.shutdown(Shutdown::Read);
                return;
            }
            Err(FrameReadError::Io(_)) => {
                // Socket error or idle/read deadline: disconnect.
                return;
            }
        }
    }
}

/// Writes encoded replies in completion order until all senders drop.
fn write_loop(
    mut stream: TcpStream,
    replies: &Receiver<Vec<u8>>,
    metrics: &Arc<Mutex<ServingAccumulator>>,
) {
    while let Ok(bytes) = replies.recv() {
        if io::Write::write_all(&mut stream, &bytes).is_err() {
            // Peer gone or write deadline hit; stop draining so the
            // channel backs up no further.
            return;
        }
        lock_acc(metrics).note_bytes_out(bytes.len() as u64);
    }
}

/// Hands one decoded request to the cluster. Never blocks on the
/// answer and never panics: a payload the engine cannot take and a shed
/// are answered here with typed error frames; everything else is
/// answered by the request's completion. The payload→input mapping is
/// the engine's [`WireInput`] impl — dense expansion for tensor
/// engines, native quantised representations for HD deployments.
fn submit<E: BatchEngine<Output = usize>>(
    ctx: &ReaderContext<E>,
    id: u64,
    body: &crate::wire::RequestBody,
    received_at: Instant,
    reply_tx: &Sender<Vec<u8>>,
) where
    E::Input: WireInput + Clone,
{
    let input = match E::Input::from_body(body) {
        Ok(input) => input,
        Err(fault) => {
            let frame = Frame::Error { id, body: ErrorBody::from_fault(&fault) };
            return answer(&ctx.metrics, reply_tx, frame, received_at);
        }
    };
    let metrics = Arc::clone(&ctx.metrics);
    let replies = reply_tx.clone();
    let submitted = ctx.set.submit_then(input, &ctx.failover, move |outcome| {
        answer(&metrics, &replies, reply_frame(id, outcome, received_at), received_at);
    });
    if let Err(shed) = submitted {
        let frame = Frame::Error { id, body: ErrorBody::from_pipeline(&shed) };
        answer(&ctx.metrics, reply_tx, frame, received_at);
    }
}

/// The reply frame for one request's cluster outcome.
fn reply_frame(
    id: u64,
    outcome: Result<ClusterReply<usize>, PipelineError>,
    received_at: Instant,
) -> Frame {
    match outcome {
        Ok(reply) => Frame::Reply {
            id,
            body: ReplyBody {
                prediction: reply.value as u32,
                replica: reply.replica as u32,
                attempts: reply.attempts,
                server_us: clock::now().saturating_duration_since(received_at).as_micros() as u64,
            },
        },
        Err(e) => Frame::Error { id, body: ErrorBody::from_pipeline(&e) },
    }
}

/// Accounts one answered request and hands its frame to the
/// connection's writer.
fn answer(
    metrics: &Mutex<ServingAccumulator>,
    replies: &Sender<Vec<u8>>,
    frame: Frame,
    received_at: Instant,
) {
    let done = clock::now();
    {
        let mut acc = lock_acc(metrics);
        acc.note_request(done.saturating_duration_since(received_at), done);
        if matches!(&frame, Frame::Error { body, .. } if body.code == crate::wire::ErrorCode::Overloaded)
        {
            acc.note_shed();
        }
    }
    // A dead writer just means the client left before its answer.
    let _ = replies.send(frame.encode());
}
