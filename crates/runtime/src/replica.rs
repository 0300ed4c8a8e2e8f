//! The fault-tolerant replicated serving tier: N independent engine
//! replicas behind one router with health-checked routing, bounded
//! retry, admission control and graceful drain.
//!
//! A [`ReplicaSet`] owns one [`InferenceRuntime`] per engine snapshot.
//! Requests enter through [`ReplicaSet::predict`], which:
//!
//! 1. **admits or sheds** — when the cluster already has `max_inflight`
//!    requests in flight, the request fails fast with
//!    [`PipelineError::Overloaded`] instead of queuing toward a missed
//!    deadline;
//! 2. **routes** — round-robin over replicas whose circuit breaker
//!    admits traffic (closed, or open-past-cool-down taking a half-open
//!    probe);
//! 3. **waits with a deadline** — a replica that fails, stalls past the
//!    remaining budget, or dies feeds the breaker and the request is
//!    **retried with exponential backoff** on the next admissible
//!    replica, up to [`RetryPolicy::max_attempts`] times within
//!    [`RetryPolicy::deadline`];
//! 4. **reports typed outcomes** — exhausted retries return
//!    [`PipelineError::Unavailable`], an expired budget
//!    [`PipelineError::DeadlineExceeded`]; a successful reply names the
//!    replica that served it so chaos tests can assert the survivor
//!    invariant (healthy replicas' answers are bit-identical to a
//!    fault-free run).
//!
//! [`ReplicaSet::predict`] blocks its caller for the whole lifecycle.
//! Front ends that must not block — the `nshd-net` readers — use the
//! **completion path** instead, [`ReplicaSet::submit_then`]: admission
//! and routing run on the caller's thread, the first attempt is queued
//! with a completion, and on success that completion does the breaker
//! and router bookkeeping on the replica's collector thread and answers
//! the caller directly. Only failures leave that path: an engine error
//! or a dead replica hands the request to a [`FailoverLoop`], which runs
//! the same blocking retry loop from attempt 2, and the loop also
//! answers any first attempt still pending at its deadline with
//! [`PipelineError::DeadlineExceeded`].
//!
//! [`ReplicaSet::drain`] removes a replica gracefully: the router stops
//! sending new work, every batch already submitted finishes (their
//! handles all resolve), and the replica's final metrics are folded into
//! the cluster's retired rollup.

use crate::batcher::{
    lock_metrics, worker_gone_error, InferenceRuntime, RuntimeConfig, WaitOutcome,
};
use crate::engine::BatchEngine;
use crate::retry::{Breaker, BreakerConfig, ReplicaState, RetryPolicy};
use nshd_core::PipelineError;
use nshd_obs::{clock, Json, ServingAccumulator, ServingMetrics};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Knobs for the replicated serving tier.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    /// Per-replica batcher configuration (`max_batch`).
    pub runtime: RuntimeConfig,
    /// Retry/backoff/deadline policy applied to every request.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds applied to every replica.
    pub breaker: BreakerConfig,
    /// Admission cap: requests in flight across the cluster beyond
    /// which new arrivals are shed with [`PipelineError::Overloaded`].
    /// `0` picks a default of `replicas * max_batch * 4`.
    pub max_inflight: usize,
}

impl ClusterConfig {
    /// Checks that the configuration can serve at all.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when the per-replica runtime
    /// config is unusable, `retry.max_attempts` is zero, or
    /// `retry.deadline` is zero (no request could ever be answered in
    /// time, and the failover loop's deadline watch would spin).
    pub fn validate(&self) -> Result<(), PipelineError> {
        self.runtime.validate()?;
        if self.retry.max_attempts == 0 {
            return Err(PipelineError::Runtime {
                stage: "config",
                detail: "retry policy needs at least one attempt".into(),
            });
        }
        if self.retry.deadline.is_zero() {
            return Err(PipelineError::Runtime {
                stage: "config",
                detail: "retry policy needs a positive request deadline".into(),
            });
        }
        Ok(())
    }

    fn effective_inflight_cap(&self, replicas: usize) -> usize {
        if self.max_inflight > 0 {
            self.max_inflight
        } else {
            replicas.max(1) * self.runtime.max_batch.max(1) * 4
        }
    }
}

/// A successful reply from the replica set: the output plus where and
/// how it was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReply<T> {
    /// The engine's output for this request.
    pub value: T,
    /// Index of the replica that served the successful attempt.
    pub replica: usize,
    /// Attempts consumed (1 = no retry was needed).
    pub attempts: u32,
}

/// One replica slot: its runtime (absent once drained), the engine it
/// serves (kept so the slot can be re-admitted or hot-swapped), its
/// breaker (shared with the completions of requests routed to it), and
/// the drain flag.
struct Slot<E: BatchEngine> {
    runtime: RwLock<Option<InferenceRuntime<E>>>,
    engine: RwLock<Arc<E>>,
    breaker: Arc<Mutex<Breaker>>,
    draining: AtomicBool,
}

/// Locks a slot mutex, recovering from poisoning (breaker state stays
/// usable even if a panic ever crossed it).
fn lock_breaker(breaker: &Mutex<Breaker>) -> MutexGuard<'_, Breaker> {
    breaker.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fault-tolerant set of engine replicas behind one routing front.
///
/// Every replica is an independent [`BatchEngine`] snapshot served by
/// its own [`InferenceRuntime`]; the set adds health-checked routing
/// (consecutive-failure circuit breaker with half-open probes),
/// deadline-bounded retry with exponential backoff, admission
/// control/load-shedding, and graceful drain. See the module docs for
/// the request lifecycle.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::Engine;
/// use nshd_runtime::{ClusterConfig, ReplicaSet};
/// use nshd_tensor::Tensor;
/// use std::sync::Arc;
/// # let engine: Engine<Tensor> = unimplemented!();
/// # let image: Tensor = unimplemented!();
/// let replicas: Vec<Arc<Engine<Tensor>>> =
///     (0..3).map(|_| Arc::new(engine.clone())).collect();
/// let set = ReplicaSet::new(replicas, ClusterConfig::default()).unwrap();
/// let reply = set.predict(image).unwrap();
/// println!("class {} from replica {}", reply.value, reply.replica);
/// println!("{}", set.shutdown().to_json());
/// ```
pub struct ReplicaSet<E: BatchEngine> {
    slots: Vec<Slot<E>>,
    config: ClusterConfig,
    inflight_cap: usize,
    round_robin: AtomicUsize,
    inflight: Arc<AtomicUsize>,
    /// End-to-end router accounting: per-request latency across all
    /// attempts, plus the shed/retry counters. Shared with completions,
    /// which account successful first attempts on the collector thread.
    router: Arc<Mutex<ServingAccumulator>>,
    /// Rollup of drained replicas' accumulated serving history, so
    /// cluster totals survive replica removal.
    retired: Mutex<ServingAccumulator>,
}

impl<E: BatchEngine> ReplicaSet<E> {
    /// Starts one [`InferenceRuntime`] per engine snapshot after
    /// validating the configuration. Every engine is statically verified
    /// by its runtime before any thread spawns; if any replica fails to
    /// start, the ones already started are drained before the error is
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an empty engine list or an
    /// unusable configuration, and the first failing replica's error
    /// otherwise.
    #[must_use = "the replica set only serves when construction succeeds"]
    pub fn new(engines: Vec<Arc<E>>, config: ClusterConfig) -> Result<Self, PipelineError> {
        config.validate()?;
        if engines.is_empty() {
            return Err(PipelineError::Runtime {
                stage: "config",
                detail: "a replica set needs at least one engine".into(),
            });
        }
        let replicas = engines.len();
        let mut slots = Vec::with_capacity(replicas);
        for engine in engines {
            // A failed replica start drops `slots`, draining the
            // runtimes already spawned.
            let runtime = InferenceRuntime::new(engine.clone(), config.runtime.clone())?;
            slots.push(Slot {
                runtime: RwLock::new(Some(runtime)),
                engine: RwLock::new(engine),
                breaker: Arc::new(Mutex::new(Breaker::new(config.breaker))),
                draining: AtomicBool::new(false),
            });
        }
        let inflight_cap = config.effective_inflight_cap(replicas);
        Ok(ReplicaSet {
            slots,
            config,
            inflight_cap,
            round_robin: AtomicUsize::new(0),
            inflight: Arc::new(AtomicUsize::new(0)),
            router: Arc::new(Mutex::new(ServingAccumulator::new())),
            retired: Mutex::new(ServingAccumulator::new()),
        })
    }

    /// Number of replica slots (drained ones included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the set has no replica slots (never true for a
    /// constructed set).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The admission cap currently in force.
    pub fn inflight_cap(&self) -> usize {
        self.inflight_cap
    }

    /// The health state of replica `index` (out-of-range reads as
    /// [`ReplicaState::Removed`]).
    pub fn replica_state(&self, index: usize) -> ReplicaState {
        let Some(slot) = self.slots.get(index) else {
            return ReplicaState::Removed;
        };
        slot_state(slot, clock::now())
    }

    /// Replicas currently admitting traffic (serving or probing).
    pub fn healthy_count(&self) -> usize {
        let now = clock::now();
        self.slots
            .iter()
            .filter(|s| matches!(slot_state(s, now), ReplicaState::Serving | ReplicaState::Probing))
            .count()
    }

    /// Serves one request through the replica set: admission check,
    /// health-routed dispatch, deadline-bounded wait, bounded retry with
    /// exponential backoff onto surviving replicas.
    ///
    /// Callers that must not block use [`submit_then`](ReplicaSet::submit_then)
    /// instead.
    ///
    /// # Errors
    ///
    /// - [`PipelineError::Overloaded`] — shed at admission (fail fast);
    /// - [`PipelineError::DeadlineExceeded`] — the end-to-end budget ran
    ///   out before any replica answered;
    /// - [`PipelineError::Unavailable`] — every attempt failed; `last`
    ///   carries the final attempt's error.
    pub fn predict(&self, input: E::Input) -> Result<ClusterReply<E::Output>, PipelineError>
    where
        E::Input: Clone,
    {
        // The guard holds the in-flight slot until the reply is in hand.
        let (start, _inflight) = self.admit()?;
        self.settle_admitted(input, start, 1, no_replica_error())
    }

    /// Serves one request without blocking: admission (shedding with
    /// [`PipelineError::Overloaded`] past the cap), health-routed
    /// dispatch of the first attempt, and a completion that answers
    /// `done` from the replica's collector thread once the attempt's
    /// batch has executed — after feeding the replica's breaker and the
    /// router's accounting.
    ///
    /// Only failures leave the collector thread: an engine error, a dead
    /// or removed replica, or no admissible replica hands the request to
    /// `failover`'s [`FailoverLoop`], which retries it from attempt 2
    /// exactly as [`predict`](ReplicaSet::predict) would. A first attempt still
    /// pending at `start + retry.deadline` is answered with
    /// [`PipelineError::DeadlineExceeded`] by that loop; its late result
    /// is dropped. `done` is called exactly once unless the request is
    /// shed, in which case it is dropped and the error returned.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Overloaded`] when the cluster already
    /// has [`inflight_cap`](ReplicaSet::inflight_cap) requests in
    /// flight.
    pub fn submit_then<F>(
        &self,
        input: E::Input,
        failover: &Failover<E>,
        done: F,
    ) -> Result<(), PipelineError>
    where
        E::Input: Clone,
        F: FnOnce(Result<ClusterReply<E::Output>, PipelineError>) + Send + 'static,
    {
        let (start, guard) = self.admit()?;
        let answer = Answer { done: Box::new(done), inflight: guard };
        let Some(index) = self.route(start) else {
            failover.strand(Stranded { answer, input, start, error: no_replica_error() });
            return Ok(());
        };
        let slot = &self.slots[index];
        let ticket = Arc::new(Ticket { answer: Mutex::new(Some(answer)), start, replica: index });
        failover.watch(Arc::clone(&ticket));
        let attempt = FirstAttempt::<E> {
            ticket,
            retry_input: Some(input.clone()),
            breaker: Arc::clone(&slot.breaker),
            router: Arc::clone(&self.router),
            failover: failover.clone(),
        };
        let runtime = slot.runtime.read().unwrap_or_else(|p| p.into_inner());
        match runtime.as_ref() {
            // A refused submit drops the completion, and with it the
            // attempt, whose drop hands the request to the failover loop.
            Some(runtime) => {
                let _ = runtime.submit_then(input, move |result| attempt.complete(result));
            }
            None => attempt.complete(Err(removed_error(index))),
        }
        Ok(())
    }

    /// Opens the completion path's failover queue: the [`Failover`]
    /// handle that [`submit_then`](ReplicaSet::submit_then) callers pass
    /// along, and the [`FailoverLoop`] one dedicated thread must
    /// [`run`](FailoverLoop::run) against this set for as long as
    /// requests are submitted through that handle.
    #[must_use = "requests submitted through the handle need the loop running"]
    pub fn failover(&self) -> (Failover<E>, FailoverLoop<E>) {
        let (tx, rx) = channel();
        let pending = Arc::new(Mutex::new(VecDeque::new()));
        (Failover { tx, pending: Arc::clone(&pending) }, FailoverLoop { rx, pending })
    }

    /// Admission control: sheds instead of queuing past capacity. The
    /// in-flight count is held (and always released) by the returned
    /// guard.
    fn admit(&self) -> Result<(Instant, InflightGuard), PipelineError> {
        let start = clock::now();
        let admitted = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        let guard = InflightGuard { counter: Arc::clone(&self.inflight) };
        if admitted > self.inflight_cap {
            let mut router = lock_metrics(&self.router);
            router.note_shed();
            router.note_inflight(admitted as u64);
            return Err(PipelineError::Overloaded {
                inflight: admitted,
                capacity: self.inflight_cap,
            });
        }
        let mut router = lock_metrics(&self.router);
        router.note_submit(start);
        router.note_inflight(admitted as u64);
        Ok((start, guard))
    }

    /// Requests currently admitted and not yet settled (includes
    /// arrivals that are about to be shed, for at most an instant).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// The retry loop behind [`predict`](ReplicaSet::predict) (from attempt 1)
    /// and the failover loop (from attempt 2, after the completion
    /// path's first attempt failed with `last_error`): health-routed
    /// dispatch, deadline-bounded wait, exponential backoff onto
    /// surviving replicas.
    fn settle_admitted(
        &self,
        input: E::Input,
        start: Instant,
        first_attempt: u32,
        mut last_error: PipelineError,
    ) -> Result<ClusterReply<E::Output>, PipelineError>
    where
        E::Input: Clone,
    {
        let policy = self.config.retry;
        let deadline = start + policy.deadline;
        let budget_ms = policy.deadline.as_millis() as u64;
        for attempt in first_attempt..=policy.max_attempts {
            if attempt > 1 {
                lock_metrics(&self.router).note_retry();
                let pause = policy.backoff(attempt - 1);
                if clock::now() + pause >= deadline {
                    return self.fail(start, PipelineError::DeadlineExceeded { budget_ms });
                }
                std::thread::sleep(pause);
            }
            let now = clock::now();
            if now >= deadline {
                return self.fail(start, PipelineError::DeadlineExceeded { budget_ms });
            }
            let Some(index) = self.route(now) else {
                last_error = no_replica_error();
                continue;
            };
            match self.dispatch(index, input.clone(), deadline) {
                Ok(value) => {
                    lock_breaker(&self.slots[index].breaker).on_success();
                    let done = clock::now();
                    lock_metrics(&self.router)
                        .note_request(done.saturating_duration_since(start), done);
                    return Ok(ClusterReply { value, replica: index, attempts: attempt });
                }
                Err(e) => {
                    lock_breaker(&self.slots[index].breaker).on_failure(clock::now());
                    if matches!(e, PipelineError::DeadlineExceeded { .. }) {
                        // The budget is gone; further attempts cannot
                        // beat it.
                        return self.fail(start, e);
                    }
                    last_error = e;
                }
            }
        }
        self.fail(
            start,
            PipelineError::Unavailable {
                attempts: self.config.retry.max_attempts,
                last: Box::new(last_error),
            },
        )
    }

    /// Round-robin over slots, returning the first one whose breaker
    /// admits traffic and that is not draining. Open breakers past their
    /// cool-down convert to a half-open probe here.
    fn route(&self, now: Instant) -> Option<usize> {
        let n = self.slots.len();
        let offset = self.round_robin.fetch_add(1, Ordering::Relaxed);
        for step in 0..n {
            let index = (offset + step) % n;
            let slot = &self.slots[index];
            if slot.draining.load(Ordering::Acquire) {
                continue;
            }
            if lock_breaker(&slot.breaker).admit(now) {
                return Some(index);
            }
        }
        None
    }

    /// One attempt against one replica: submit, then wait out the
    /// remaining deadline.
    fn dispatch(
        &self,
        index: usize,
        input: E::Input,
        deadline: Instant,
    ) -> Result<E::Output, PipelineError> {
        let handle = {
            let guard = self.slots[index].runtime.read().unwrap_or_else(|p| p.into_inner());
            let Some(runtime) = guard.as_ref() else {
                return Err(removed_error(index));
            };
            runtime.submit(input)?
            // The read lock drops here: waiting must not block a
            // concurrent drain (the replica's own runtime guarantees
            // every submitted request is answered before removal).
        };
        let now = clock::now();
        if now >= deadline {
            return Err(PipelineError::DeadlineExceeded {
                budget_ms: self.config.retry.deadline.as_millis() as u64,
            });
        }
        match handle.wait_timeout(deadline.saturating_duration_since(now)) {
            WaitOutcome::Ready(result) => result,
            WaitOutcome::Timeout => Err(PipelineError::DeadlineExceeded {
                budget_ms: self.config.retry.deadline.as_millis() as u64,
            }),
            WaitOutcome::WorkerGone(e) => Err(e),
        }
    }

    /// Records a failed request's end-to-end latency, then returns the
    /// error.
    fn fail<T>(&self, start: Instant, error: PipelineError) -> Result<T, PipelineError> {
        let done = clock::now();
        lock_metrics(&self.router).note_request(done.saturating_duration_since(start), done);
        Err(error)
    }

    /// Answers a first attempt still pending at its deadline: the
    /// replica's breaker records the failure, the caller gets
    /// [`PipelineError::DeadlineExceeded`], and the attempt's late
    /// result will find the ticket answered and be dropped.
    fn expire(&self, ticket: &Ticket<E::Output>) {
        let Some(answer) = lock_ticket(&ticket.answer).take() else {
            return;
        };
        if let Some(slot) = self.slots.get(ticket.replica) {
            lock_breaker(&slot.breaker).on_failure(clock::now());
        }
        let budget_ms = self.config.retry.deadline.as_millis() as u64;
        answer.send(self.fail(ticket.start, PipelineError::DeadlineExceeded { budget_ms }));
    }

    /// Retries a request whose first attempt failed, from attempt 2,
    /// and answers it.
    fn resume(&self, stranded: Stranded<E>)
    where
        E::Input: Clone,
    {
        let Stranded { answer, input, start, error } = stranded;
        answer.send(self.settle_admitted(input, start, 2, error));
    }

    /// Gracefully drains replica `index`: the router stops routing to it
    /// immediately, every request already submitted to it is executed
    /// (all handles resolve), its threads are joined, and its final
    /// serving metrics are returned after being folded into the
    /// cluster's retired rollup.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `index` is out of range
    /// or the replica was already drained.
    pub fn drain(&self, index: usize) -> Result<ServingMetrics, PipelineError> {
        let slot = self.slots.get(index).ok_or_else(|| PipelineError::Runtime {
            stage: "drain",
            detail: format!("replica index {index} out of range ({} slots)", self.slots.len()),
        })?;
        slot.draining.store(true, Ordering::Release);
        let runtime = {
            let mut guard = slot.runtime.write().unwrap_or_else(|p| p.into_inner());
            guard.take()
        };
        let Some(runtime) = runtime else {
            return Err(PipelineError::Runtime {
                stage: "drain",
                detail: format!("replica {index} already drained"),
            });
        };
        runtime.merge_metrics_into(&mut lock_metrics(&self.retired));
        // Shutdown blocks until every in-flight batch has executed and
        // answered its handles, then joins the replica's threads.
        Ok(runtime.shutdown())
    }

    /// The engine currently installed in slot `index` (still available
    /// after a drain, so a hot-swap can derive the replacement from the
    /// incumbent).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `index` is out of range.
    pub fn engine(&self, index: usize) -> Result<Arc<E>, PipelineError> {
        let slot = self.slots.get(index).ok_or_else(|| PipelineError::Runtime {
            stage: "swap",
            detail: format!("replica index {index} out of range ({} slots)", self.slots.len()),
        })?;
        Ok(slot.engine.read().unwrap_or_else(|p| p.into_inner()).clone())
    }

    /// Re-admits a drained slot with a (possibly new) engine: starts a
    /// fresh [`InferenceRuntime`] around `engine` (statically verifying
    /// it first), resets the slot's circuit breaker, and reopens the
    /// slot to the router. The drained incumbent's serving history stays
    /// in the retired rollup; the new runtime starts counting from zero.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `index` is out of range
    /// or the slot still holds a live runtime (drain it first), and the
    /// engine's own error when verification rejects it — in which case
    /// the slot stays drained.
    pub fn readmit(&self, index: usize, engine: Arc<E>) -> Result<(), PipelineError> {
        let slot = self.slots.get(index).ok_or_else(|| PipelineError::Runtime {
            stage: "swap",
            detail: format!("replica index {index} out of range ({} slots)", self.slots.len()),
        })?;
        let mut guard = slot.runtime.write().unwrap_or_else(|p| p.into_inner());
        if guard.is_some() {
            return Err(PipelineError::Runtime {
                stage: "swap",
                detail: format!("replica {index} still serving; drain it before readmitting"),
            });
        }
        // Verification happens inside the runtime constructor; a
        // rejected engine leaves the slot drained and the set unchanged.
        let runtime = InferenceRuntime::new(engine.clone(), self.config.runtime.clone())?;
        *guard = Some(runtime);
        *slot.engine.write().unwrap_or_else(|p| p.into_inner()) = engine;
        *lock_breaker(&slot.breaker) = Breaker::new(self.config.breaker);
        // Reopen the slot to the router only once the runtime is
        // installed and the breaker is fresh.
        slot.draining.store(false, Ordering::Release);
        nshd_obs::counter("replica.readmits").inc();
        Ok(())
    }

    /// Replaces slot `index`'s engine mid-traffic: gracefully drains the
    /// incumbent (every request already routed to it is answered from
    /// the **old** engine — the per-batch snapshot pin in the batcher
    /// guarantees no batch straddles the swap), then re-admits the slot
    /// around `engine`. Traffic arriving during the swap is routed to
    /// the other replicas by the health-checked router.
    ///
    /// Returns the drained incumbent runtime's final serving metrics.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] when `index` is out of range
    /// or already drained, and the new engine's own error when
    /// verification rejects it (the slot is left drained in that case —
    /// inspect the error and [`readmit`](ReplicaSet::readmit) a good
    /// engine).
    pub fn hot_swap(&self, index: usize, engine: Arc<E>) -> Result<ServingMetrics, PipelineError> {
        let _sp = nshd_obs::span("replica_swap");
        let metrics = self.drain(index)?;
        self.readmit(index, engine)?;
        nshd_obs::counter("replica.hot_swaps").inc();
        Ok(metrics)
    }

    /// A point-in-time snapshot of the cluster's serving statistics.
    pub fn metrics(&self) -> ClusterMetrics {
        let now = clock::now();
        let mut rollup = ServingAccumulator::new();
        rollup.merge_from(&lock_metrics(&self.retired));
        let mut replicas = Vec::with_capacity(self.slots.len());
        for (index, slot) in self.slots.iter().enumerate() {
            let state = slot_state(slot, now);
            let serving = {
                let guard = slot.runtime.read().unwrap_or_else(|p| p.into_inner());
                match guard.as_ref() {
                    Some(runtime) => {
                        runtime.merge_metrics_into(&mut rollup);
                        runtime.metrics()
                    }
                    None => ServingMetrics::default(),
                }
            };
            replicas.push(ReplicaMetrics { replica: index, state, serving });
        }
        ClusterMetrics {
            router: lock_metrics(&self.router).snapshot(),
            rollup: rollup.snapshot(),
            replicas,
        }
    }

    /// Graceful cluster shutdown: drains every remaining replica (all
    /// outstanding handles resolve first) and returns the final
    /// statistics.
    pub fn shutdown(self) -> ClusterMetrics {
        for index in 0..self.slots.len() {
            // Already-drained replicas are fine; everything else drains.
            let _ = self.drain(index);
        }
        self.metrics()
    }
}

/// Combines the breaker's view with the drain flags into one state.
fn slot_state<E: BatchEngine>(slot: &Slot<E>, now: Instant) -> ReplicaState {
    let removed = {
        let guard = slot.runtime.read().unwrap_or_else(|p| p.into_inner());
        guard.is_none()
    };
    if removed {
        ReplicaState::Removed
    } else if slot.draining.load(Ordering::Acquire) {
        ReplicaState::Draining
    } else {
        lock_breaker(&slot.breaker).state(now)
    }
}

/// The typed report for a request no replica admitted.
fn no_replica_error() -> PipelineError {
    PipelineError::Runtime { stage: "route", detail: "no healthy replica available".into() }
}

/// The typed report for a request routed to a replica drained since.
fn removed_error(index: usize) -> PipelineError {
    PipelineError::Runtime { stage: "route", detail: format!("replica {index} already removed") }
}

/// RAII decrement for the cluster in-flight counter.
struct InflightGuard {
    counter: Arc<AtomicUsize>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The caller's side of one request on the completion path: its
/// completion and the in-flight slot it holds until answered.
struct Answer<O> {
    done: Box<dyn FnOnce(Result<ClusterReply<O>, PipelineError>) + Send>,
    inflight: InflightGuard,
}

impl<O> Answer<O> {
    /// Releases the in-flight slot, then calls the completion. A panic
    /// inside the completion is contained, so it can take down neither
    /// a collector nor the failover loop.
    fn send(self, result: Result<ClusterReply<O>, PipelineError>) {
        let Answer { done, inflight } = self;
        drop(inflight);
        let _ = catch_unwind(AssertUnwindSafe(move || done(result)));
    }
}

/// One first attempt on the completion path, shared by its completion
/// and the failover loop's deadline watch. Whichever takes `answer`
/// first answers the request; the other finds `None` and does nothing.
struct Ticket<O> {
    answer: Mutex<Option<Answer<O>>>,
    start: Instant,
    replica: usize,
}

/// Locks a ticket, recovering from poisoning.
fn lock_ticket<O>(answer: &Mutex<Option<Answer<O>>>) -> MutexGuard<'_, Option<Answer<O>>> {
    answer.lock().unwrap_or_else(|p| p.into_inner())
}

impl<O> Ticket<O> {
    fn is_answered(&self) -> bool {
        lock_ticket(&self.answer).is_none()
    }
}

/// A request whose first attempt failed, on its way to the failover
/// loop's blocking retry.
struct Stranded<E: BatchEngine> {
    answer: Answer<E::Output>,
    input: E::Input,
    start: Instant,
    error: PipelineError,
}

enum FailoverMsg<E: BatchEngine> {
    Stranded(Stranded<E>),
    Close,
}

/// The completion queued with a first attempt's batcher request. It is
/// resolved exactly once: by the batch's result, or — when the
/// completion is dropped uncalled because the replica died or refused
/// the request — by a typed worker-gone error.
struct FirstAttempt<E: BatchEngine> {
    ticket: Arc<Ticket<E::Output>>,
    /// A copy of the input for the failover retry; `None` once resolved.
    retry_input: Option<E::Input>,
    breaker: Arc<Mutex<Breaker>>,
    router: Arc<Mutex<ServingAccumulator>>,
    failover: Failover<E>,
}

impl<E: BatchEngine> FirstAttempt<E> {
    fn complete(mut self, result: Result<E::Output, PipelineError>) {
        self.resolve(result);
    }

    fn resolve(&mut self, result: Result<E::Output, PipelineError>) {
        let Some(input) = self.retry_input.take() else {
            return;
        };
        let mut answer_slot = lock_ticket(&self.ticket.answer);
        // `None`: the deadline watch already answered this request (and
        // fed the breaker), so the late result is dropped.
        let Some(answer) = answer_slot.take() else {
            return;
        };
        let start = self.ticket.start;
        match result {
            Ok(value) => {
                drop(answer_slot);
                lock_breaker(&self.breaker).on_success();
                let done = clock::now();
                lock_metrics(&self.router)
                    .note_request(done.saturating_duration_since(start), done);
                answer.send(Ok(ClusterReply { value, replica: self.ticket.replica, attempts: 1 }));
            }
            Err(error) => {
                lock_breaker(&self.breaker).on_failure(clock::now());
                // Sent with the ticket still locked, so a closing loop
                // that sees this ticket answered also sees the message.
                self.failover.strand(Stranded { answer, input, start, error });
            }
        }
    }
}

impl<E: BatchEngine> Drop for FirstAttempt<E> {
    fn drop(&mut self) {
        self.resolve(Err(worker_gone_error()));
    }
}

/// The handle [`ReplicaSet::submit_then`] callers pass along: it queues
/// failed first attempts for the [`FailoverLoop`] and registers every
/// routed first attempt with the loop's deadline watch. Clones share
/// one queue.
pub struct Failover<E: BatchEngine> {
    tx: Sender<FailoverMsg<E>>,
    pending: Arc<Watch<E::Output>>,
}

impl<E: BatchEngine> Clone for Failover<E> {
    fn clone(&self) -> Self {
        Failover { tx: self.tx.clone(), pending: Arc::clone(&self.pending) }
    }
}

/// The deadline watch: routed first attempts in submission order,
/// which is also deadline order.
type Watch<O> = Mutex<VecDeque<Arc<Ticket<O>>>>;

/// Locks the deadline watch's queue, recovering from poisoning.
fn lock_pending<O>(
    pending: &Mutex<VecDeque<Arc<Ticket<O>>>>,
) -> MutexGuard<'_, VecDeque<Arc<Ticket<O>>>> {
    pending.lock().unwrap_or_else(|p| p.into_inner())
}

/// Pops answered tickets off the front of the watch queue.
fn prune<O>(pending: &mut VecDeque<Arc<Ticket<O>>>) {
    while pending.front().is_some_and(|ticket| ticket.is_answered()) {
        pending.pop_front();
    }
}

impl<E: BatchEngine> Failover<E> {
    /// Adds a first attempt to the deadline watch. Every deadline is
    /// `start + retry.deadline`, so the queue is already in deadline
    /// order and a new ticket never needs to wake the loop: it expires
    /// after everything queued before it.
    fn watch(&self, ticket: Arc<Ticket<E::Output>>) {
        let mut pending = lock_pending(&self.pending);
        prune(&mut pending);
        pending.push_back(ticket);
    }

    /// Queues a failed first attempt for the loop's retry. Should the
    /// loop be gone, the single failed attempt is final.
    fn strand(&self, stranded: Stranded<E>) {
        if let Err(refused) = self.tx.send(FailoverMsg::Stranded(stranded)) {
            if let FailoverMsg::Stranded(s) = refused.0 {
                let last = Box::new(s.error);
                s.answer.send(Err(PipelineError::Unavailable { attempts: 1, last }));
            }
        }
    }

    /// Tells the loop no more requests will be submitted: it returns
    /// once every request already submitted has been answered.
    pub fn close(&self) {
        let _ = self.tx.send(FailoverMsg::Close);
    }
}

/// The completion path's failure side, run on one dedicated thread:
/// retries requests whose first attempt failed and answers first
/// attempts still pending at their deadline.
pub struct FailoverLoop<E: BatchEngine> {
    rx: Receiver<FailoverMsg<E>>,
    pending: Arc<Watch<E::Output>>,
}

impl<E: BatchEngine> FailoverLoop<E> {
    /// Serves failovers for `set` until [`Failover::close`] is called
    /// (or every [`Failover`] handle and pending completion is gone) and
    /// every request submitted before that has been answered.
    ///
    /// Each failed first attempt runs the blocking retry loop of
    /// [`ReplicaSet::predict`] from attempt 2, on this thread; deadline
    /// expiries queued behind it wait for it to finish.
    pub fn run(self, set: &ReplicaSet<E>)
    where
        E::Input: Clone,
    {
        let budget = set.config.retry.deadline;
        let mut closing = false;
        loop {
            let now = clock::now();
            let head = {
                let mut pending = lock_pending(&self.pending);
                prune(&mut pending);
                pending.front().map(|ticket| ticket.start + budget)
            };
            let wait = match head {
                Some(deadline) if deadline <= now => {
                    let expired = lock_pending(&self.pending).pop_front();
                    if let Some(ticket) = expired {
                        set.expire(&ticket);
                    }
                    continue;
                }
                Some(deadline) => deadline - now,
                None if closing => match self.rx.try_recv() {
                    Ok(FailoverMsg::Stranded(stranded)) => {
                        set.resume(stranded);
                        continue;
                    }
                    Ok(FailoverMsg::Close) => continue,
                    Err(_) => return,
                },
                // An empty watch: any ticket added from now on expires
                // no earlier than a full budget away.
                None => budget,
            };
            match self.rx.recv_timeout(wait) {
                Ok(FailoverMsg::Stranded(stranded)) => set.resume(stranded),
                Ok(FailoverMsg::Close) => closing = true,
                Err(RecvTimeoutError::Timeout) => {}
                // Every handle and completion is gone, so every request
                // has been answered.
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Per-replica slice of a [`ClusterMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaMetrics {
    /// Replica index within the set.
    pub replica: usize,
    /// Health state at snapshot time.
    pub state: ReplicaState,
    /// The replica runtime's own serving statistics (zeroed once the
    /// replica is drained; its history lives on in the rollup).
    pub serving: ServingMetrics,
}

/// Frozen cluster-level serving statistics: the router's end-to-end
/// view, a rollup of every replica's batching statistics (drained
/// replicas included), and the per-replica breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// End-to-end request accounting at the router: latency across all
    /// attempts, shed and retry counters.
    pub router: ServingMetrics,
    /// Merged per-replica serving statistics (bucket-exact histogram
    /// rollup, including drained replicas' history).
    pub rollup: ServingMetrics,
    /// Per-replica state and statistics.
    pub replicas: Vec<ReplicaMetrics>,
}

impl ClusterMetrics {
    /// Compact JSON rendering: `router` and `rollup` use the
    /// [`ServingMetrics::to_json`] schema; `replicas` adds
    /// `{replica, state, serving}` per slot.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("router", Json::Raw(self.router.to_json())),
            ("rollup", Json::Raw(self.rollup.to_json())),
            (
                "replicas",
                Json::arr(self.replicas.iter().map(|r| {
                    Json::obj(vec![
                        ("replica", Json::from(r.replica)),
                        ("state", Json::str(r.state.label())),
                        ("serving", Json::Raw(r.serving.to_json())),
                    ])
                })),
            ),
        ])
        .to_string()
    }
}
