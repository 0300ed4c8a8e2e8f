//! # nshd-runtime
//!
//! A batched inference **serving runtime** for NSHD models, built
//! entirely on `std` (a collector thread per runtime + mpsc channels).
//!
//! Individual requests trickle in one image at a time, but the NSHD
//! pipeline is dramatically cheaper per sample when run batched: one
//! NCHW pass through the truncated teacher, one GEMM for HD encoding
//! (against the bit-packed projection basis), one GEMM against the
//! class memory. The runtime bridges that gap with **micro-batching**:
//!
//! 1. [`InferenceRuntime::submit_then`] enqueues a request with a
//!    completion and returns immediately; [`InferenceRuntime::submit`]
//!    wraps it, returning a [`PredictionHandle`] to wait on.
//! 2. A work-conserving collector thread blocks for the first request
//!    of a batch, adds whatever else is already queued (up to
//!    `max_batch`) and runs the batch at once. It never lingers for a
//!    batch to fill: under load, batches form from the requests that
//!    queued while the previous batch ran.
//! 3. The batch runs as one [`BatchEngine::run`] call on the collector
//!    thread, against one pinned engine snapshot; every completion is
//!    then called in submission order. The only parallelism inside a
//!    batch is the engine's `nshd_tensor::par` kernels, as wide as
//!    `par::threads()` read where the runtime was constructed.
//!
//! Serving statistics (requests/s, batch-size histogram, p50/p95/p99
//! latency, queue-wait vs. execute time) are accounted through
//! [`nshd_obs::ServingAccumulator`] and exported as JSON via
//! [`nshd_obs::ServingMetrics::to_json`]. When a global [`nshd_obs`] recorder is
//! installed, every executed batch additionally opens a `request` span
//! under which the engine's extract/encode/score stage spans nest —
//! including spans opened on `nshd_tensor::par` kernel workers.
//!
//! The engine abstraction is [`BatchEngine`]; the NSHD implementation
//! is [`nshd_core::NshdEngine`], whose batched predictions are
//! bit-identical (at the argmax level) to per-sample
//! [`nshd_core::NshdModel::predict`] — see `tests/determinism.rs`.
//!
//! Every failure mode is reported, never panicked: construction
//! statically verifies the engine and configuration (rejecting a
//! misconfigured pipeline before any thread is spawned), and a batch
//! the engine rejects fails only that batch's [`PredictionHandle`]s
//! with a [`nshd_core::PipelineError`].
//!
//! On top of the single-replica runtime sits the **fault-tolerant
//! serving tier**: a [`ReplicaSet`] holds N independent engine
//! snapshots, each behind its own [`InferenceRuntime`], and adds
//! health-checked routing (per-replica circuit breakers with half-open
//! probes), per-request deadlines with bounded retry and exponential
//! backoff ([`RetryPolicy`]), admission control that sheds load with a
//! typed `Overloaded` error instead of queueing to death, and graceful
//! per-replica drain. Its completion path, [`ReplicaSet::submit_then`],
//! serves a request without blocking any thread on it; failures and
//! deadlines go to a [`FailoverLoop`]. [`ChaosEngine`] injects deterministic stalls and
//! failures into any replica for chaos testing — see `tests/chaos.rs`
//! and the `cluster_bench` harness in `nshd-bench`.
//!
//! # Examples
//!
//! ```no_run
//! use nshd_core::{NshdEngine, NshdModel};
//! use nshd_runtime::{InferenceRuntime, RuntimeConfig};
//! use std::sync::Arc;
//!
//! # let model: NshdModel = unimplemented!();
//! # let images: Vec<nshd_tensor::Tensor> = vec![];
//! let engine = Arc::new(NshdEngine::new(&model)?);
//! let runtime = InferenceRuntime::new(
//!     engine,
//!     RuntimeConfig { max_batch: 32, ..RuntimeConfig::default() },
//! )?;
//! let handles: Vec<_> = images
//!     .into_iter()
//!     .map(|img| runtime.submit(img))
//!     .collect::<Result<_, _>>()?;
//! let predictions: Vec<usize> = handles
//!     .into_iter()
//!     .map(|h| h.wait())
//!     .collect::<Result<_, _>>()?;
//! println!("{}", runtime.shutdown().to_json());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batcher;
mod chaos;
mod engine;
mod replica;
mod retry;

pub use batcher::{InferenceRuntime, PredictionHandle, RuntimeConfig, WaitOutcome};
pub use chaos::{ChaosEngine, ChaosMode, ChaosSwitch};
pub use engine::BatchEngine;
pub use replica::{
    ClusterConfig, ClusterMetrics, ClusterReply, Failover, FailoverLoop, ReplicaMetrics, ReplicaSet,
};
pub use retry::{BreakerConfig, ReplicaState, RetryPolicy};
