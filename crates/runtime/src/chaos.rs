//! Deterministic fault injection for the serving tier.
//!
//! [`ChaosEngine`] wraps any [`BatchEngine`] and misbehaves on command:
//! a shared [`ChaosSwitch`] flips the wrapped replica between healthy
//! operation, injected batch stalls or holds, and hard failures
//! — while live traffic is in flight. Combined with `nshd_hdc::FaultScenario`
//! memory corruption (see `Engine::degraded` in `nshd-core`), this
//! gives chaos tests and
//! the `cluster_bench` harness the full fault matrix: slow replicas,
//! failing replicas, and silently-degraded replicas, all injected
//! deterministically so the survivor invariant (healthy replicas'
//! predictions stay bit-identical to a fault-free run) is checkable.
//!
//! Thread-death faults (a panicking engine killing the collector) are
//! exercised from the integration tests instead: library code in this
//! crate is panic-free by construction, so the panicking engine lives
//! with the tests that need it.

use crate::engine::BatchEngine;
use nshd_core::PipelineError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a [`ChaosEngine`] does with the next batch it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Delegate untouched to the wrapped engine.
    Healthy,
    /// Sleep for the given duration, then delegate — a slow replica.
    /// Long stalls surface as deadline timeouts at the router.
    Stall(Duration),
    /// Fail the batch with a typed `chaos` error — a crashing replica
    /// that can later heal (flip the switch back to
    /// [`Healthy`](ChaosMode::Healthy) and half-open probes re-admit
    /// it).
    Fail,
    /// Fail every batch permanently — a dead replica that never heals.
    /// Behaviourally like [`Fail`](ChaosMode::Fail) at the router
    /// (errors feed the breaker), but chaos harnesses treat it as
    /// terminal and never flip the switch back.
    Kill,
    /// Block inside the batch until the switch is set to another mode,
    /// then delegate — a hung replica. Tests hold a collector inside one
    /// batch with it while they queue the next, or hang a replica past
    /// its deadline. A held replica cannot drain: release it before
    /// shutting its runtime down.
    Hold,
}

#[derive(Debug)]
struct SwitchInner {
    mode: Mutex<ChaosMode>,
    /// Signalled on every mode change, waking held batches.
    changed: Condvar,
    injected: AtomicU64,
}

/// Shared control handle for one [`ChaosEngine`]. Clones share state:
/// the test (or bench driver) keeps one clone and flips the mode while
/// the wrapped replica serves traffic through the other.
#[derive(Debug, Clone)]
pub struct ChaosSwitch {
    inner: Arc<SwitchInner>,
}

impl Default for ChaosSwitch {
    fn default() -> Self {
        ChaosSwitch::new()
    }
}

impl ChaosSwitch {
    /// A switch starting in [`ChaosMode::Healthy`].
    #[must_use]
    pub fn new() -> ChaosSwitch {
        ChaosSwitch {
            inner: Arc::new(SwitchInner {
                mode: Mutex::new(ChaosMode::Healthy),
                changed: Condvar::new(),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Flips the fault mode; takes effect on the next batch, and
    /// releases batches held by [`ChaosMode::Hold`].
    pub fn set(&self, mode: ChaosMode) {
        *lock_mode(&self.inner.mode) = mode;
        self.inner.changed.notify_all();
    }

    /// The currently configured fault mode.
    pub fn mode(&self) -> ChaosMode {
        *lock_mode(&self.inner.mode)
    }

    /// How many faults (stalls and failures) have been injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Acquire)
    }

    fn note_injected(&self) {
        self.inner.injected.fetch_add(1, Ordering::AcqRel);
    }

    /// Blocks while the mode is [`ChaosMode::Hold`].
    fn wait_while_held(&self) {
        let mut mode = lock_mode(&self.inner.mode);
        while *mode == ChaosMode::Hold {
            mode = self.inner.changed.wait(mode).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Locks the mode mutex, recovering from poisoning (the switch stays
/// usable even if a panic ever crossed it).
fn lock_mode(mode: &Mutex<ChaosMode>) -> std::sync::MutexGuard<'_, ChaosMode> {
    mode.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A [`BatchEngine`] decorator that injects faults on command.
///
/// Faults hit the top of [`run`](BatchEngine::run), after the runtime
/// has pinned the batch's snapshot, so an injected failure exercises
/// exactly the path a real malformed batch or resource failure would
/// take: the batch's handles all fail with a typed [`PipelineError`],
/// the replica process survives, and the router's circuit breaker sees
/// the failures.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::Engine;
/// use nshd_runtime::{ChaosEngine, ChaosMode, ClusterConfig, ReplicaSet};
/// use nshd_tensor::Tensor;
/// use std::sync::Arc;
/// # let engine: Engine<Tensor> = unimplemented!();
/// let (victim, switch) = ChaosEngine::new(Arc::new(engine.clone()));
/// let replicas = vec![Arc::new(ChaosEngine::passthrough(Arc::new(engine))), Arc::new(victim)];
/// let set = ReplicaSet::new(replicas, ClusterConfig::default()).unwrap();
/// switch.set(ChaosMode::Fail); // replica 1 starts failing mid-traffic
/// ```
pub struct ChaosEngine<E: BatchEngine> {
    inner: Arc<E>,
    switch: ChaosSwitch,
}

impl<E: BatchEngine> ChaosEngine<E> {
    /// Wraps `inner`, returning the engine and the switch that controls
    /// it (initially [`ChaosMode::Healthy`]).
    #[must_use]
    pub fn new(inner: Arc<E>) -> (ChaosEngine<E>, ChaosSwitch) {
        let switch = ChaosSwitch::new();
        let engine = ChaosEngine { inner, switch: switch.clone() };
        (engine, switch)
    }

    /// Wraps `inner` with a switch nobody else holds: a permanently
    /// healthy decorator, so homogeneous replica sets can mix faultable
    /// and non-faultable replicas of one engine type.
    #[must_use]
    pub fn passthrough(inner: Arc<E>) -> ChaosEngine<E> {
        ChaosEngine { inner, switch: ChaosSwitch::new() }
    }

    /// The switch controlling this engine.
    #[must_use]
    pub fn switch(&self) -> ChaosSwitch {
        self.switch.clone()
    }
}

impl<E: BatchEngine> BatchEngine for ChaosEngine<E> {
    type Input = E::Input;
    type Output = E::Output;
    // Snapshot pinning passes straight through: a batch served through a
    // chaos decorator pins the *inner* engine's snapshot, so hot-swap
    // determinism is testable under injected stalls.
    type Snapshot = E::Snapshot;

    fn snapshot(&self) -> Arc<Self::Snapshot> {
        self.inner.snapshot()
    }

    fn run(
        &self,
        snapshot: &Self::Snapshot,
        batch: &[Self::Input],
    ) -> Result<Vec<Self::Output>, PipelineError> {
        match self.switch.mode() {
            ChaosMode::Healthy => self.inner.run(snapshot, batch),
            ChaosMode::Stall(pause) => {
                self.switch.note_injected();
                std::thread::sleep(pause);
                self.inner.run(snapshot, batch)
            }
            ChaosMode::Fail => {
                self.switch.note_injected();
                Err(PipelineError::Runtime {
                    stage: "chaos",
                    detail: "injected transient fault".into(),
                })
            }
            ChaosMode::Kill => {
                self.switch.note_injected();
                Err(PipelineError::Runtime {
                    stage: "chaos",
                    detail: "injected permanent fault (replica killed)".into(),
                })
            }
            ChaosMode::Hold => {
                self.switch.note_injected();
                self.switch.wait_while_held();
                self.inner.run(snapshot, batch)
            }
        }
    }

    fn verify(&self) -> Result<(), PipelineError> {
        self.inner.verify()
    }
}
