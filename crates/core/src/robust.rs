//! Graceful degradation for the NSHD pipeline: typed errors and a
//! divergence guard for retraining.
//!
//! The deployment story (§VI) assumes the pipeline keeps producing
//! answers under imperfect conditions — quantised memories, faulty
//! hardware, partial checkpoints. This module supplies the software half
//! of that robustness:
//!
//! - [`PipelineError`]: a typed error covering the ways the pipeline can
//!   fail at runtime (tensor-shape violations, non-finite activations,
//!   empty inputs, corrupt checkpoints) so callers can degrade instead
//!   of unwinding;
//! - [`DivergenceGuard`]: per-epoch snapshot/rollback around
//!   [`NshdTrainer`] retraining. HD retraining is an online update rule
//!   with no loss-based safety net — a fault-injected or numerically
//!   blown-up class memory scores NaN for its poisoned classes and a
//!   collapsed memory silently destroys accuracy. The guard checks state
//!   health *before* an epoch runs, snapshots the best-so-far memory and
//!   manifold, and rolls back when an epoch diverges.
//!
//! # Examples
//!
//! ```no_run
//! use nshd_core::{DivergenceGuard, GuardVerdict, NshdConfig, NshdTrainer};
//! # fn demo(teacher: nshd_nn::Model, train: &nshd_data::ImageDataset) {
//! let mut trainer = NshdTrainer::try_prepare(teacher, train, NshdConfig::new(8)).unwrap();
//! let mut guard = DivergenceGuard::new(0.15);
//! for _ in 0..trainer.config().retrain_epochs {
//!     match trainer.epoch_guarded(&mut guard) {
//!         Ok(GuardVerdict::Advanced { accuracy }) => println!("acc {accuracy:.3}"),
//!         Ok(GuardVerdict::RolledBack { reason, .. }) => println!("rolled back: {reason}"),
//!         Err(e) => panic!("unrecoverable: {e}"),
//!     }
//! }
//! # }
//! ```

use crate::model::{NshdModel, NshdTrainer};
use crate::verify::AnalysisReport;
use nshd_tensor::TensorError;
use std::error::Error;
use std::fmt;

/// Typed runtime failure of the NSHD pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A stage produced (or was handed) NaN/∞ values and no healthy
    /// state exists to fall back to.
    NonFiniteActivation {
        /// The pipeline stage where non-finite values were detected.
        stage: &'static str,
    },
    /// An operation that needs at least one sample received none.
    EmptyBatch,
    /// A persisted model could not be restored.
    CorruptCheckpoint {
        /// Byte offset into the checkpoint where the failure surfaced.
        offset: u64,
        /// What was expected versus what was found.
        detail: String,
    },
    /// Static pipeline verification rejected the model before any work
    /// started.
    Analysis(AnalysisReport),
    /// The serving runtime failed outside the engine itself — a
    /// misconfigured runtime, a dead worker thread, a closed channel.
    Runtime {
        /// The runtime component that failed (`"config"`, `"submit"`,
        /// `"extract"`, …).
        stage: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// Admission control shed the request: accepting it would have
    /// pushed the serving tier past its in-flight capacity, so it
    /// failed fast instead of queuing toward a missed deadline.
    Overloaded {
        /// Requests already in flight when this one arrived.
        inflight: usize,
        /// The admission cap it would have exceeded.
        capacity: usize,
    },
    /// The request's end-to-end deadline expired before any replica
    /// produced a result. The work may still complete in the
    /// background; the answer is simply no longer wanted.
    DeadlineExceeded {
        /// The per-request budget that ran out, in milliseconds.
        budget_ms: u64,
    },
    /// Every admissible replica was tried (with retries and backoff)
    /// and the request still failed; `last` is the final attempt's
    /// error.
    Unavailable {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error that ended the final attempt.
        last: Box<PipelineError>,
    },
}

impl PipelineError {
    /// Stable short name of the variant, for logs, metrics labels and
    /// the `nshd-wire/v1` error-frame mapping. These strings are part
    /// of the wire contract — change them only with a protocol version
    /// bump.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PipelineError::Tensor(_) => "tensor",
            PipelineError::NonFiniteActivation { .. } => "non_finite",
            PipelineError::EmptyBatch => "empty_batch",
            PipelineError::CorruptCheckpoint { .. } => "corrupt_checkpoint",
            PipelineError::Analysis(_) => "analysis",
            PipelineError::Runtime { .. } => "runtime",
            PipelineError::Overloaded { .. } => "overloaded",
            PipelineError::DeadlineExceeded { .. } => "deadline_exceeded",
            PipelineError::Unavailable { .. } => "unavailable",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            PipelineError::NonFiniteActivation { stage } => {
                write!(f, "non-finite values in {stage} with no snapshot to roll back to")
            }
            PipelineError::EmptyBatch => write!(f, "operation requires at least one sample"),
            PipelineError::CorruptCheckpoint { offset, detail } => {
                write!(f, "corrupt checkpoint at byte {offset}: {detail}")
            }
            PipelineError::Analysis(report) => write!(f, "{report}"),
            PipelineError::Runtime { stage, detail } => {
                write!(f, "serving runtime failure in {stage}: {detail}")
            }
            PipelineError::Overloaded { inflight, capacity } => {
                write!(f, "request shed: {inflight} in flight against a capacity of {capacity}")
            }
            PipelineError::DeadlineExceeded { budget_ms } => {
                write!(f, "request deadline of {budget_ms} ms expired before any replica answered")
            }
            PipelineError::Unavailable { attempts, last } => {
                write!(f, "no replica could serve the request after {attempts} attempt(s): {last}")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Tensor(e) => Some(e),
            PipelineError::Analysis(report) => Some(report),
            PipelineError::Unavailable { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<TensorError> for PipelineError {
    fn from(e: TensorError) -> Self {
        PipelineError::Tensor(e)
    }
}

impl From<AnalysisReport> for PipelineError {
    fn from(report: AnalysisReport) -> Self {
        PipelineError::Analysis(report)
    }
}

/// Why a guarded epoch was rolled back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RollbackReason {
    /// The class memory or manifold weights contained NaN/∞.
    NonFiniteState,
    /// Training accuracy fell more than the guard's tolerance below the
    /// best epoch seen.
    AccuracyCollapse {
        /// Best pre-update training accuracy recorded so far.
        best: f32,
        /// Accuracy observed this epoch.
        observed: f32,
    },
}

impl fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackReason::NonFiniteState => write!(f, "non-finite memory or manifold state"),
            RollbackReason::AccuracyCollapse { best, observed } => {
                write!(f, "accuracy collapsed from {best:.3} to {observed:.3}")
            }
        }
    }
}

/// Outcome of one [`NshdTrainer::epoch_guarded`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardVerdict {
    /// The epoch ran and the state was kept.
    Advanced {
        /// Pre-update training accuracy measured by the epoch.
        accuracy: f32,
    },
    /// The epoch (or the state it inherited) diverged; the trainer was
    /// restored to the best snapshot.
    RolledBack {
        /// What triggered the rollback.
        reason: RollbackReason,
        /// Training accuracy of the restored snapshot.
        restored_accuracy: f32,
    },
}

/// Best-so-far snapshot of the mutable training state.
#[derive(Debug, Clone)]
struct Snapshot {
    accuracy: f32,
    memory: Vec<Vec<f32>>,
    manifold: Option<(Vec<f32>, Vec<f32>)>,
}

/// Snapshot/rollback guard around NSHD retraining epochs.
///
/// `tolerance` is the absolute training-accuracy drop (relative to the
/// best epoch seen) that counts as divergence rather than normal
/// epoch-to-epoch noise.
#[derive(Debug, Clone)]
pub struct DivergenceGuard {
    tolerance: f32,
    best: Option<Snapshot>,
}

impl DivergenceGuard {
    /// Creates a guard that tolerates accuracy dips up to `tolerance`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ tolerance ≤ 1`.
    pub fn new(tolerance: f32) -> Self {
        assert!((0.0..=1.0).contains(&tolerance), "tolerance must be in [0, 1], got {tolerance}");
        DivergenceGuard { tolerance, best: None }
    }

    /// Training accuracy of the best snapshot, if one has been taken.
    pub fn best_accuracy(&self) -> Option<f32> {
        self.best.as_ref().map(|s| s.accuracy)
    }

    /// Whether a snapshot is available to roll back to.
    pub fn has_snapshot(&self) -> bool {
        self.best.is_some()
    }

    fn capture(model: &NshdModel, accuracy: f32) -> Snapshot {
        let memory = model.memory();
        Snapshot {
            accuracy,
            memory: (0..memory.num_classes()).map(|c| memory.class(c).to_vec()).collect(),
            manifold: model.manifold_raw(),
        }
    }

    /// Restores the best snapshot into `model`. Returns the snapshot's
    /// accuracy, or `None` when no snapshot exists.
    fn restore(&self, model: &mut NshdModel) -> Option<f32> {
        let snap = self.best.as_ref()?;
        model.set_memory_raw(snap.memory.clone());
        if let Some((weight, bias)) = &snap.manifold {
            model
                .set_manifold_raw(weight.clone(), bias.clone())
                .expect("snapshot taken from this model fits its manifold");
        }
        Some(snap.accuracy)
    }
}

/// Whether the model's mutable training state (class memory and manifold
/// weights) is entirely finite.
fn state_is_finite(model: &NshdModel) -> bool {
    if !model.memory().is_finite() {
        return false;
    }
    match model.manifold_raw() {
        Some((weight, bias)) => {
            weight.iter().all(|v| v.is_finite()) && bias.iter().all(|v| v.is_finite())
        }
        None => true,
    }
}

impl NshdTrainer {
    /// Like [`prepare`](NshdTrainer::prepare), but reports an empty
    /// training set as [`PipelineError::EmptyBatch`] and a misconfigured
    /// teacher/config pair as [`PipelineError::Analysis`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::EmptyBatch`] when `train` has no
    /// samples, or [`PipelineError::Analysis`] when static verification
    /// ([`crate::verify_teacher`]) rejects the pipeline.
    #[must_use = "the trainer is only constructed when verification passes"]
    pub fn try_prepare(
        teacher: nshd_nn::Model,
        train: &nshd_data::ImageDataset,
        config: crate::NshdConfig,
    ) -> Result<Self, PipelineError> {
        if train.is_empty() {
            return Err(PipelineError::EmptyBatch);
        }
        crate::verify::verify_teacher(&teacher, &config)?;
        Ok(Self::prepare(teacher, train, config))
    }

    /// Runs one retraining epoch under a [`DivergenceGuard`].
    ///
    /// The call validates state health *before* the epoch (a non-finite
    /// memory would make `predict` panic mid-epoch), runs the epoch,
    /// snapshots the pre-update state whenever it is the best seen, and
    /// rolls back when the epoch left non-finite state behind or training
    /// accuracy collapsed beyond the guard's tolerance.
    ///
    /// A pre-epoch rollback returns without running the epoch; the caller
    /// simply calls again.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::NonFiniteActivation`] when the state is
    /// non-finite and the guard holds no snapshot to restore.
    pub fn epoch_guarded(
        &mut self,
        guard: &mut DivergenceGuard,
    ) -> Result<GuardVerdict, PipelineError> {
        // Health check first: a poisoned memory (fault injection, a
        // diverged previous epoch) panics inside `epoch`'s predict calls.
        if !state_is_finite(self.model_mut()) {
            return match guard.restore(self.model_mut()) {
                Some(restored_accuracy) => Ok(GuardVerdict::RolledBack {
                    reason: RollbackReason::NonFiniteState,
                    restored_accuracy,
                }),
                None => {
                    Err(PipelineError::NonFiniteActivation { stage: "class memory / manifold" })
                }
            };
        }

        // `epoch` measures accuracy of the *pre-update* state, so capture
        // that state before running and associate it with the measurement.
        let pre = DivergenceGuard::capture(self.model_mut(), 0.0);
        let accuracy = self.epoch();

        if guard.best.as_ref().is_none_or(|s| accuracy >= s.accuracy) {
            guard.best = Some(Snapshot { accuracy, ..pre });
        } else if let Some(best) = guard.best_accuracy() {
            if accuracy + guard.tolerance < best {
                let restored_accuracy =
                    guard.restore(self.model_mut()).expect("guard holds a snapshot");
                return Ok(GuardVerdict::RolledBack {
                    reason: RollbackReason::AccuracyCollapse { best, observed: accuracy },
                    restored_accuracy,
                });
            }
        }

        if !state_is_finite(self.model_mut()) {
            let restored_accuracy =
                guard.restore(self.model_mut()).expect("snapshot recorded above");
            return Ok(GuardVerdict::RolledBack {
                reason: RollbackReason::NonFiniteState,
                restored_accuracy,
            });
        }
        Ok(GuardVerdict::Advanced { accuracy })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NshdConfig;
    use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
    use nshd_nn::{fit, Adam, Architecture, Model, TrainConfig};
    use nshd_tensor::{Rng, Tensor};

    fn setup() -> (Model, ImageDataset) {
        use std::sync::OnceLock;
        static SETUP: OnceLock<(Model, ImageDataset)> = OnceLock::new();
        SETUP
            .get_or_init(|| {
                let (mut train, mut test) = SynthSpec::synth10(77).with_sizes(160, 20).generate();
                normalize_pair(&mut train, &mut test);
                let mut teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(6));
                let mut opt = Adam::new(2e-3, 0.0);
                fit(
                    &mut teacher,
                    train.images(),
                    train.labels(),
                    &mut opt,
                    &TrainConfig { epochs: 5, batch_size: 32, seed: 1, ..TrainConfig::default() },
                );
                (teacher, train)
            })
            .clone()
    }

    fn trainer(seed: u64) -> NshdTrainer {
        let (teacher, train) = setup();
        let cfg = NshdConfig::new(15)
            .with_hv_dim(500)
            .with_manifold_features(30)
            .with_retrain_epochs(4)
            .with_seed(seed);
        NshdTrainer::prepare(teacher, &train, cfg)
    }

    #[test]
    fn empty_dataset_is_reported_not_panicked() {
        let (teacher, _) = setup();
        let empty = ImageDataset::new(Tensor::zeros([0, 3, 32, 32]), Vec::new(), 10);
        let Err(err) = NshdTrainer::try_prepare(teacher, &empty, NshdConfig::new(15)) else {
            panic!("empty dataset accepted");
        };
        assert_eq!(err, PipelineError::EmptyBatch);
        assert!(err.to_string().contains("at least one sample"));
    }

    #[test]
    fn oversized_cut_is_reported_not_panicked() {
        let (teacher, train) = setup();
        let Err(err) = NshdTrainer::try_prepare(teacher, &train, NshdConfig::new(99)) else {
            panic!("oversized cut accepted");
        };
        let PipelineError::Analysis(report) = &err else {
            panic!("expected an analysis report, got {err:?}");
        };
        assert_eq!(report.stage, crate::verify::Stage::Config);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn guarded_epochs_match_plain_epochs_on_healthy_runs() {
        let mut plain = trainer(1);
        let mut guarded = trainer(1);
        let mut guard = DivergenceGuard::new(0.5);
        for _ in 0..3 {
            let a = plain.epoch();
            let b = guarded.epoch_guarded(&mut guard).expect("healthy run");
            assert_eq!(b, GuardVerdict::Advanced { accuracy: a });
        }
        assert!(guard.has_snapshot());
    }

    #[test]
    fn nan_epoch_recovers_via_rollback() {
        let mut trainer = trainer(2);
        let mut guard = DivergenceGuard::new(0.5);
        // One clean epoch records a healthy snapshot.
        let verdict = trainer.epoch_guarded(&mut guard).expect("clean epoch");
        let GuardVerdict::Advanced { accuracy } = verdict else {
            panic!("clean epoch rolled back: {verdict:?}");
        };
        // Inject the fault-model failure: a NaN lands in the class memory.
        trainer.model_mut().memory_mut().class_mut(0)[0] = f32::NAN;
        assert!(!trainer.model_mut().memory_mut().is_finite());
        let verdict = trainer.epoch_guarded(&mut guard).expect("rollback available");
        assert_eq!(
            verdict,
            GuardVerdict::RolledBack {
                reason: RollbackReason::NonFiniteState,
                restored_accuracy: accuracy,
            }
        );
        // The restored state is healthy and training continues normally.
        assert!(trainer.model_mut().memory_mut().is_finite());
        let verdict = trainer.epoch_guarded(&mut guard).expect("post-rollback epoch");
        assert!(matches!(verdict, GuardVerdict::Advanced { .. }), "{verdict:?}");
    }

    #[test]
    fn accuracy_collapse_rolls_back() {
        let mut trainer = trainer(3);
        let mut guard = DivergenceGuard::new(0.1);
        // Retrain a few epochs so the snapshot sits well above chance.
        for _ in 0..5 {
            trainer.epoch_guarded(&mut guard).expect("clean epoch");
        }
        let clean = guard.best_accuracy().expect("snapshot recorded");
        assert!(clean > 0.2, "retrained accuracy {clean} too low for this test");
        // Negate the memory: finite, but argmax becomes argmin, so
        // accuracy collapses to near zero.
        let memory = trainer.model_mut().memory_mut();
        for c in 0..memory.num_classes() {
            for v in memory.class_mut(c) {
                *v = -*v;
            }
        }
        let verdict = trainer.epoch_guarded(&mut guard).expect("rollback available");
        match verdict {
            GuardVerdict::RolledBack {
                reason: RollbackReason::AccuracyCollapse { best, observed },
                restored_accuracy,
            } => {
                assert!(observed < best - 0.1, "collapse {best} -> {observed}");
                assert_eq!(restored_accuracy, clean);
            }
            other => panic!("expected accuracy-collapse rollback, got {other:?}"),
        }
        // Restored memory predicts like the snapshot again.
        let verdict = trainer.epoch_guarded(&mut guard).expect("post-rollback epoch");
        let GuardVerdict::Advanced { accuracy } = verdict else {
            panic!("post-rollback epoch rolled back: {verdict:?}");
        };
        assert!(accuracy > clean - 0.1, "restored accuracy {accuracy} vs clean {clean}");
    }

    #[test]
    fn nonfinite_state_without_snapshot_is_an_error() {
        let mut trainer = trainer(4);
        trainer.model_mut().memory_mut().class_mut(0)[0] = f32::INFINITY;
        let mut guard = DivergenceGuard::new(0.2);
        let err = trainer.epoch_guarded(&mut guard).unwrap_err();
        assert!(matches!(err, PipelineError::NonFiniteActivation { .. }), "{err:?}");
        assert!(err.to_string().contains("no snapshot"));
    }

    #[test]
    fn pipeline_error_display_and_conversion() {
        let e: PipelineError = nshd_tensor::TensorError::EmptyTensor.into();
        assert!(e.to_string().contains("tensor operation failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = PipelineError::CorruptCheckpoint { offset: 42, detail: "bad magic".into() };
        assert_eq!(e.to_string(), "corrupt checkpoint at byte 42: bad magic");
        assert!(PipelineError::EmptyBatch.to_string().contains("sample"));
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn invalid_tolerance_panics() {
        DivergenceGuard::new(1.5);
    }
}
