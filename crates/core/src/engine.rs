//! The one serving engine: zero or more weighted [`Head`]s in front of
//! one [`HdScorer`], published copy-on-write as one [`EngineState`].
//!
//! An [`Engine`] is generic only over its wire input. `Engine<Tensor>`
//! serves CHW images through at least one head: NSHD serving is the
//! one-head case with weight 1.0 ([`Engine::try_from`] a trained
//! [`NshdModel`]), an `nshd-glue` ensemble is N teacher heads. Its batch
//! is one truncated-CNN pass and one sign-operand GEMM encode per head,
//! the heads' weighted [`vote`], and one batch-scoring GEMM.
//! `Engine<HdQuery>` serves hypervectors that arrive already encoded and
//! holds no head (see `serve.rs`). `nshd-runtime` implements its
//! `BatchEngine` once, for every [`AsEngine`].
//!
//! **Publishing.** The current state lives behind one
//! `RwLock<Arc<EngineState>>`. The runtime pins one state per batch by
//! cloning the `Arc` ([`Engine::state`]) and serves the whole batch
//! against it. Every mutator (memory, head and scoring swaps, class
//! growth) builds a new state, verifies it, and only then swaps the
//! pointer, and only if it still points at the state the new one was
//! built from; otherwise it rebuilds, so concurrent mutators never
//! lose each other's updates. A rejected swap never disturbs traffic,
//! and a batch that pinned the old state keeps answering from it
//! bit-exactly.
//!
//! **Determinism.** A head's hypervectors are bit-identical to
//! [`NshdModel::symbolize`] (see [`Symbolizer`]), and one head's vote
//! returns them unchanged. Similarity *scores* may differ from the
//! per-sample path in the last float bits (different dot-product lane
//! structure), so equality is guaranteed at the prediction level.

use crate::head::{vote, Head};
use crate::model::NshdModel;
use crate::robust::PipelineError;
use crate::symbolizer::Symbolizer;
use crate::verify::{self, AnalysisReport, Stage};
use nshd_data::ImageDataset;
use nshd_hdc::{
    AssociativeMemory, BipolarHv, FaultReport, FaultScenario, HdScorer, QueryHv, ScoringMode,
};
use nshd_tensor::Tensor;
use std::marker::PhantomData;
use std::sync::{Arc, PoisonError, RwLock};

/// A wire input an [`Engine`] can serve: how one batch of it becomes
/// sign queries against a state.
pub trait EngineInput: Send + Sized + 'static {
    /// Whether this input reaches hyperspace through the engine's heads
    /// (images need at least one) or arrives encoded (no heads).
    const HEADED: bool;

    /// Turns one batch into one sign query per input, in order.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when an input is malformed.
    fn queries(state: &EngineState, batch: &[Self]) -> Result<Vec<QueryHv>, PipelineError>;
}

/// CHW images: every head encodes the batch, then the heads vote.
impl EngineInput for Tensor {
    const HEADED: bool = true;

    fn queries(state: &EngineState, images: &[Tensor]) -> Result<Vec<QueryHv>, PipelineError> {
        Ok(state.encode(images)?.into_iter().map(QueryHv::Bipolar).collect())
    }
}

/// One immutable generation of an engine: the heads and the scorer one
/// batch is answered against.
///
/// Nothing in a state mutates after publication, so any number of
/// in-flight batches can share one state concurrently and bit-exactly.
/// Cloning is a handful of `Arc` bumps.
#[derive(Clone)]
pub struct EngineState {
    heads: Vec<Arc<Head>>,
    scorer: Arc<HdScorer>,
}

impl std::fmt::Debug for EngineState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let heads: Vec<(&str, f32)> = self.heads.iter().map(|h| (h.name(), h.weight())).collect();
        f.debug_struct("EngineState")
            .field("heads", &heads)
            .field("classes", &self.num_classes())
            .field("dim", &self.memory().dim())
            .field("scoring", &self.scoring_mode().name())
            .finish()
    }
}

impl EngineState {
    /// A state scoring `memory` with `mode` behind `heads` (unverified
    /// until an [`Engine`] serves or publishes it).
    pub fn new(heads: Vec<Arc<Head>>, memory: Arc<AssociativeMemory>, mode: ScoringMode) -> Self {
        EngineState { heads, scorer: Arc::new(HdScorer::new(memory, mode)) }
    }

    /// The heads, in vote order (empty for pre-encoded queries).
    pub fn heads(&self) -> &[Arc<Head>] {
        &self.heads
    }

    /// The class memory this state scores against.
    pub fn memory(&self) -> &AssociativeMemory {
        self.scorer.memory()
    }

    /// Number of classes this state predicts over.
    pub fn num_classes(&self) -> usize {
        self.memory().num_classes()
    }

    /// The scoring mode this state answers batches with.
    pub fn scoring_mode(&self) -> ScoringMode {
        self.scorer.mode()
    }

    /// Statically verifies the state: every head's symbolizer, its width
    /// against the memory and its weight, and the memory's health.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first violated
    /// invariant.
    pub fn verify(&self) -> Result<(), AnalysisReport> {
        verify::verify_engine(&self.heads, self.memory())
    }

    /// Encodes a batch of CHW images: every head encodes it, then the
    /// heads [`vote`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for a state without heads and
    /// the first head's error on malformed or non-finite images.
    pub fn encode(&self, images: &[Tensor]) -> Result<Vec<BipolarHv>, PipelineError> {
        if self.heads.is_empty() {
            return Err(PipelineError::Runtime {
                stage: "glue",
                detail: "an engine without heads cannot encode images".into(),
            });
        }
        let per_head: Vec<Vec<BipolarHv>> =
            self.heads.iter().map(|head| head.encode_batch(images)).collect::<Result<_, _>>()?;
        let _sp = nshd_obs::span("vote");
        Ok(vote(&self.heads, per_head))
    }

    /// One batch-scoring GEMM through this state's [`HdScorer`]: dense
    /// cosine, INT8 accumulation or packed popcount, depending on the
    /// published [`ScoringMode`].
    ///
    /// # Panics
    ///
    /// Panics if a query's dimensionality disagrees with the memory;
    /// [`predict_batch`](EngineState::predict_batch) checks it first.
    pub fn score(&self, queries: Vec<QueryHv>) -> Vec<usize> {
        let _sp = nshd_obs::span("score");
        self.scorer.predict(queries)
    }

    /// Predictions for one batch of wire inputs against this state.
    ///
    /// # Errors
    ///
    /// Returns the input's [`EngineInput::queries`] error on malformed
    /// inputs.
    pub fn predict_batch<I: EngineInput>(&self, batch: &[I]) -> Result<Vec<usize>, PipelineError> {
        Ok(self.score(I::queries(self, batch)?))
    }

    /// Classification accuracy over a labelled dataset, predicted in
    /// chunks through [`predict_batch`](EngineState::predict_batch).
    ///
    /// # Errors
    ///
    /// Returns the first head's error on malformed or non-finite
    /// images.
    pub fn accuracy(&self, dataset: &ImageDataset) -> Result<f32, PipelineError> {
        if dataset.is_empty() {
            return Ok(0.0);
        }
        let mut correct = 0usize;
        for (images, labels) in dataset.batches(64) {
            let preds = self.predict_batch(&images)?;
            correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        }
        Ok(correct as f32 / dataset.len() as f32)
    }

    /// The same heads scoring `memory` with `mode`.
    fn rescored(&self, memory: Arc<AssociativeMemory>, mode: ScoringMode) -> EngineState {
        EngineState::new(self.heads.clone(), memory, mode)
    }
}

/// The serving engine: the current [`EngineState`] behind one
/// `RwLock<Arc<EngineState>>`, with one publish path (build, verify,
/// then swap only over the state the candidate was built from) behind
/// every mutator.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::{Engine, NshdModel};
/// use nshd_hdc::ScoringMode;
/// use nshd_tensor::Tensor;
/// # let model: NshdModel = unimplemented!();
/// # let images: Vec<Tensor> = Vec::new();
/// let engine = Engine::try_from(&model)?;
/// engine.set_scoring(ScoringMode::Packed)?;
/// let predictions = engine.state().predict_batch(&images)?;
/// # Ok::<(), nshd_core::PipelineError>(())
/// ```
pub struct Engine<I> {
    state: RwLock<Arc<EngineState>>,
    input: PhantomData<fn(&I)>,
}

// Replica sets share one engine across worker threads; fail the build
// if a state field ever loses `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine<Tensor>>();
};

impl<I: EngineInput> Engine<I> {
    /// Verifies `state` and serves it.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first violated
    /// invariant, including a head count that does not fit the input
    /// (images need at least one head, pre-encoded queries none).
    #[must_use = "the engine is only constructed when verification passes"]
    pub fn new(state: EngineState) -> Result<Self, AnalysisReport> {
        Self::check(&state)?;
        Ok(Self::serve(state))
    }

    fn serve(state: EngineState) -> Self {
        Engine { state: RwLock::new(Arc::new(state)), input: PhantomData }
    }

    fn check(state: &EngineState) -> Result<(), AnalysisReport> {
        if I::HEADED == state.heads.is_empty() {
            let detail = if I::HEADED {
                "an image engine needs at least one head"
            } else {
                "a pre-encoded query engine takes no heads"
            };
            return Err(AnalysisReport::new(Stage::Ensemble, detail));
        }
        state.verify()
    }

    /// Pins and returns the current state. Callers needing a consistent
    /// view across several operations must call this once and reuse the
    /// returned `Arc`.
    pub fn state(&self) -> Arc<EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Re-verifies the current state; `nshd-runtime` calls this before
    /// spawning its collector thread.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first violated
    /// invariant.
    pub fn verify(&self) -> Result<(), AnalysisReport> {
        Self::check(&self.state())
    }

    /// The one publish path: builds the next state from the current one
    /// with `build`, verifies it, and swaps it in only if the slot still
    /// holds the state it was built from; if a concurrent publish got
    /// there first, it rebuilds from that newer state and tries again,
    /// so no mutator's update is lost. Returns the state it replaced
    /// with `build`'s side result. Batches pinned on the previous state
    /// are unaffected.
    fn publish<T>(
        &self,
        mut build: impl FnMut(&EngineState) -> Result<(EngineState, T), PipelineError>,
    ) -> Result<(Arc<EngineState>, T), PipelineError> {
        let _sp = nshd_obs::span("publish");
        loop {
            let current = self.state();
            let (next, out) = build(&current)?;
            Self::check(&next)?;
            let mut slot = self.state.write().unwrap_or_else(PoisonError::into_inner);
            if Arc::ptr_eq(&slot, &current) {
                nshd_obs::counter("engine.publishes").inc();
                return Ok((std::mem::replace(&mut slot, Arc::new(next)), out));
            }
        }
    }

    /// Hot-swaps the class memory (e.g. after offline retraining),
    /// keeping the heads and scoring mode, and returns the state it
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Analysis`] when the memory disagrees
    /// with the heads or is unhealthy; nothing is published then.
    pub fn swap_memory(
        &self,
        memory: AssociativeMemory,
    ) -> Result<Arc<EngineState>, PipelineError> {
        let memory = Arc::new(memory);
        let (previous, ()) = self.publish(|current| {
            Ok((current.rescored(Arc::clone(&memory), current.scoring_mode()), ()))
        })?;
        Ok(previous)
    }

    /// Hot-swaps head `index` (e.g. a retrained or re-weighted teacher)
    /// and returns the state it replaced.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Runtime`] for an out-of-range index and
    /// [`PipelineError::Analysis`] when the head disagrees with the
    /// memory; nothing is published then.
    pub fn swap_head(&self, index: usize, head: Head) -> Result<Arc<EngineState>, PipelineError> {
        let head = Arc::new(head);
        let (previous, ()) = self.publish(|current| {
            let mut heads = current.heads.clone();
            let Some(slot) = heads.get_mut(index) else {
                return Err(PipelineError::Runtime {
                    stage: "glue",
                    detail: format!("head index {index} out of range for {} heads", heads.len()),
                });
            };
            *slot = Arc::clone(&head);
            // The memory is unchanged, so the scorer is shared as-is.
            Ok((EngineState { heads, scorer: Arc::clone(&current.scorer) }, ()))
        })?;
        Ok(previous)
    }

    /// Recompiles the scorer for `mode` against the current memory and
    /// returns the state it replaced.
    ///
    /// # Errors
    ///
    /// Propagates the publish check, which a previously published
    /// head/memory pair passes.
    pub fn set_scoring(&self, mode: ScoringMode) -> Result<Arc<EngineState>, PipelineError> {
        let (previous, ()) = self.publish(|current| {
            Ok((current.rescored(Arc::clone(current.scorer.memory()), mode), ()))
        })?;
        Ok(previous)
    }

    /// Grows the memory by one zeroed class and returns its index.
    /// In-flight batches keep scoring over the old class set.
    ///
    /// # Panics
    ///
    /// Never: a zeroed row leaves every checked invariant of the served
    /// state as it was, so the publish check passes.
    pub fn add_class(&self) -> usize {
        self.grow(|_| Ok(Vec::new())).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Publishes the current memory grown by one class bundled from the
    /// hypervectors `examples` yields for the state it grows, returning
    /// the new class index.
    fn grow(
        &self,
        examples: impl Fn(&EngineState) -> Result<Vec<BipolarHv>, PipelineError>,
    ) -> Result<usize, PipelineError> {
        let (_, index) = self.publish(|current| {
            let hvs = examples(current)?;
            let mut memory = AssociativeMemory::clone(current.memory());
            let index = memory.add_class();
            for hv in &hvs {
                memory.bundle(index, hv);
            }
            Ok((current.rescored(Arc::new(memory), current.scoring_mode()), index))
        })?;
        Ok(index)
    }

    /// A new engine serving the current state with `scenario`'s faults
    /// injected into its own copy of the memory: the degraded-replica
    /// input for chaos testing the replicated serving tier. This engine
    /// is untouched; the replica shares its heads by `Arc`, and an empty
    /// scenario yields a replica that predicts bit-identically.
    pub fn degraded(&self, scenario: &FaultScenario) -> (Self, FaultReport) {
        let current = self.state();
        let mut memory = AssociativeMemory::clone(current.memory());
        let report = scenario.apply_associative(&mut memory);
        (Self::serve(current.rescored(Arc::new(memory), current.scoring_mode())), report)
    }

    /// Number of classes the current state predicts over.
    pub fn num_classes(&self) -> usize {
        self.state().num_classes()
    }
}

impl Engine<Tensor> {
    /// Teaches a brand-new class from example images mid-traffic:
    /// encodes them against the current heads, bundles them into one
    /// fresh class row, and publishes the grown memory. Returns the new
    /// class index.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::EmptyBatch`] for an empty example list
    /// and the first head's error on malformed or non-finite images.
    pub fn add_class_from(&self, examples: &[Tensor]) -> Result<usize, PipelineError> {
        if examples.is_empty() {
            return Err(PipelineError::EmptyBatch);
        }
        self.grow(|current| current.encode(examples))
    }
}

/// NSHD serving: the model's symbolizer as one head with weight 1.0 in
/// front of its memory, scored densely.
impl TryFrom<&NshdModel> for Engine<Tensor> {
    type Error = AnalysisReport;

    /// Statically verifies the whole pipeline ([`crate::verify_model`],
    /// which also checks the memory's class count against the teacher's)
    /// and snapshots it. The model stays usable; the engine holds its own
    /// copies plus the projection basis laid out as a GEMM sign operand.
    fn try_from(model: &NshdModel) -> Result<Self, AnalysisReport> {
        verify::verify_model(model)?;
        let symbolizer = Symbolizer::new(
            model.teacher().clone(),
            model.config().cut,
            model.scaler().clone(),
            model.manifold().cloned(),
            model.projection(),
        )?;
        let head = Head::new(model.teacher().name.clone(), symbolizer, 1.0);
        let memory = Arc::new(model.memory().clone());
        Self::new(EngineState::new(vec![Arc::new(head)], memory, ScoringMode::Dense))
    }
}

/// A new engine serving this engine's current state; later publishes to
/// either are not seen by the other.
impl<I: EngineInput> Clone for Engine<I> {
    fn clone(&self) -> Self {
        Engine { state: RwLock::new(self.state()), input: PhantomData }
    }
}

impl<I: EngineInput> std::fmt::Debug for Engine<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Engine").field(&self.state()).finish()
    }
}

/// Serving through one [`Engine`]: the engine itself and the forwarding
/// names below. `nshd-runtime` implements `BatchEngine` for every
/// `AsEngine`, so there is one serving implementation.
pub trait AsEngine: Send + Sync + 'static {
    /// The wire input the engine serves.
    type Input: EngineInput;

    /// The engine behind this name.
    fn engine(&self) -> &Engine<Self::Input>;
}

impl<I: EngineInput> AsEngine for Engine<I> {
    type Input = I;

    fn engine(&self) -> &Engine<I> {
        self
    }
}

// The forwarding names below (and `HdDeployEngine` in `serve.rs`,
// `GlueEngine` in `nshd-glue`) exist only because the serving benchmark
// (`perfbench/`) builds against them. They hold no logic of their own;
// ROADMAP item 3 lists them.

/// Benchmark name for a one-head [`Engine<Tensor>`] built from a
/// trained model.
///
/// # Examples
///
/// ```no_run
/// use nshd_core::{NshdEngine, NshdModel};
/// # let model: NshdModel = unimplemented!();
/// let engine = NshdEngine::new(&model)?;
/// assert!(engine.predict_batch(&[]).is_empty());
/// # Ok::<(), nshd_core::AnalysisReport>(())
/// ```
pub struct NshdEngine(Engine<Tensor>);

impl NshdEngine {
    /// [`Engine::try_from`] the model.
    ///
    /// # Errors
    ///
    /// Returns the [`AnalysisReport`] naming the first misconfigured
    /// stage.
    #[must_use = "the engine is only constructed when verification passes"]
    pub fn new(model: &NshdModel) -> Result<Self, AnalysisReport> {
        Engine::try_from(model).map(NshdEngine)
    }

    /// The head's [`Symbolizer::try_embed`].
    ///
    /// # Errors
    ///
    /// See [`Symbolizer::try_embed`].
    pub fn try_extract_values(&self, images: &[Tensor]) -> Result<Vec<Vec<f32>>, PipelineError> {
        self.0.state().heads()[0].symbolizer().try_embed(images)
    }

    /// The rest of the engine's batch after extraction: the head's
    /// [`Symbolizer::try_encode`], the [`vote`], [`EngineState::score`].
    ///
    /// # Errors
    ///
    /// See [`Symbolizer::try_encode`].
    pub fn try_finish_values(&self, values: &[Vec<f32>]) -> Result<Vec<usize>, PipelineError> {
        let state = self.0.state();
        let hvs = state.heads()[0].symbolizer().try_encode(values)?;
        Ok(state.score(vote(state.heads(), vec![hvs]).into_iter().map(QueryHv::Bipolar).collect()))
    }

    /// [`EngineState::encode`], panicking on malformed images.
    pub fn symbolize_batch(&self, images: &[Tensor]) -> Vec<BipolarHv> {
        self.0.state().encode(images).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`EngineState::predict_batch`], panicking on malformed images.
    pub fn predict_batch(&self, images: &[Tensor]) -> Vec<usize> {
        self.0.state().predict_batch(images).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl AsEngine for NshdEngine {
    type Input = Tensor;

    fn engine(&self) -> &Engine<Tensor> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NshdConfig;
    use nshd_data::{normalize_pair, SynthSpec};
    use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
    use nshd_tensor::Rng;

    /// A small untrained teacher — prediction *parity* between the
    /// batched and per-sample paths doesn't need a good model.
    fn tiny_teacher(rng: &mut Rng) -> Model {
        let features = Sequential::new()
            .with(Conv2d::new(3, 4, 3, 1, 1, rng))
            .with(Activation::new(ActKind::Relu))
            .with(MaxPool2d::new(2));
        let classifier =
            Sequential::new().with(Flatten::new()).with(Linear::new(4 * 16 * 16, 10, rng));
        Model {
            name: "tiny".into(),
            features,
            classifier,
            input_shape: vec![3, 32, 32],
            num_classes: 10,
        }
    }

    fn trained_setup(use_manifold: bool) -> (NshdModel, ImageDataset) {
        let (mut train, mut test) = SynthSpec::synth10(17).with_sizes(40, 16).generate();
        normalize_pair(&mut train, &mut test);
        let teacher = tiny_teacher(&mut Rng::new(2));
        let cfg = NshdConfig::new(3)
            .with_hv_dim(512)
            .with_manifold(use_manifold)
            .with_manifold_features(24)
            .with_retrain_epochs(1)
            .with_seed(9);
        (NshdModel::train(teacher, &train, cfg), test)
    }

    #[test]
    fn batched_engine_matches_per_sample_model() {
        for use_manifold in [true, false] {
            let (model, test) = trained_setup(use_manifold);
            let state = Engine::try_from(&model).expect("verifies").state();
            let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
            // Hypervectors are bit-identical to the per-sample path.
            let batched_hvs = state.encode(&images).unwrap();
            for (img, hv) in images.iter().zip(&batched_hvs) {
                assert_eq!(*hv, model.symbolize(img), "manifold={use_manifold}");
            }
            // Predictions agree for every image and any chunking.
            let batched = state.predict_batch(&images).unwrap();
            let sequential: Vec<usize> = images.iter().map(|img| model.predict(img)).collect();
            assert_eq!(batched, sequential, "manifold={use_manifold}");
            for chunk in images.chunks(5) {
                let preds = state.predict_batch(chunk).unwrap();
                for (img, p) in chunk.iter().zip(preds) {
                    assert_eq!(p, state.predict_batch(std::slice::from_ref(img)).unwrap()[0]);
                }
            }
            // And dataset-level accuracy matches the model's.
            assert_eq!(state.accuracy(&test).unwrap(), model.evaluate(&test));
        }
    }

    #[test]
    fn malformed_inputs_are_reported_not_panicked() {
        let (model, _) = trained_setup(false);
        let engine = Engine::try_from(&model).expect("verifies");
        let state = engine.state();
        let symbolizer = state.heads()[0].symbolizer();
        // Wrong image shape: reported, not a deep conv panic.
        let err = symbolizer.try_embed(&[Tensor::zeros([3, 16, 16])]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        assert!(err.to_string().contains("tensor"), "{err}");
        // A poisoned image surfaces as a non-finite-activation report.
        let poisoned = Tensor::from_fn([3, 32, 32], |_| f32::NAN);
        let err = symbolizer.try_embed(&[poisoned]).unwrap_err();
        assert!(matches!(err, PipelineError::NonFiniteActivation { .. }), "{err:?}");
        // Wrong value-row width at the encode stage.
        let err = symbolizer.try_encode(&[vec![0.0; 3]]).unwrap_err();
        assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        // The happy path is unaffected.
        let ok = symbolizer.try_embed(&[Tensor::zeros([3, 32, 32])]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn misconfigured_models_are_rejected_at_construction() {
        use crate::verify::Stage;

        // A healthy model verifies and yields an engine that re-verifies.
        let (model, _) = trained_setup(true);
        let engine = Engine::try_from(&model).expect("healthy model verifies");
        engine.verify().expect("snapshot re-verifies");

        // Memory width torn away from the encoder's D: rejected with a
        // structured report naming the memory stage and both widths.
        let mut torn = model.clone();
        torn.set_memory_raw(vec![vec![0.0f32; 256]; 10]);
        let report = Engine::try_from(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert_eq!(report.expected, vec![512]);
        assert_eq!(report.actual, vec![256]);
        assert!(report.to_string().contains("memory"), "{report}");

        // Scaler fitted on the wrong feature width: scaler stage.
        let mut torn = model.clone();
        let (mean, inv_std) = torn.scaler_raw();
        torn.set_scaler_raw(mean[..mean.len() - 1].to_vec(), inv_std[..inv_std.len() - 1].to_vec())
            .expect("lengths agree with each other");
        let report = Engine::try_from(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Scaler);

        // A poisoned class memory is caught before any thread could be.
        let mut torn = model;
        torn.memory_mut().class_mut(0)[0] = f32::NAN;
        let report = Engine::try_from(&torn).unwrap_err();
        assert_eq!(report.stage, Stage::Memory);
        assert!(report.to_string().contains("non-finite"), "{report}");
    }

    #[test]
    fn degraded_snapshots_corrupt_only_their_own_memory() {
        use nshd_hdc::{FaultPlan, FaultScenario};

        let (model, test) = trained_setup(false);
        let engine = Engine::try_from(&model).expect("verifies");
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
        let predict = |e: &Engine<Tensor>| e.state().predict_batch(&images).unwrap();
        let clean_preds = predict(&engine);

        // An empty scenario is a bit-identical replica.
        let (twin, report) = engine.degraded(&FaultScenario::new());
        assert_eq!(report, nshd_hdc::FaultReport::default());
        let head = |e: &Engine<Tensor>| Arc::clone(&e.state().heads()[0]);
        assert!(Arc::ptr_eq(&head(&twin), &head(&engine)), "symbolizer was copied");
        assert_eq!(predict(&twin), clean_preds);

        // A heavy scenario corrupts the replica's memory — and only the
        // replica's: the original engine still predicts identically.
        let scenario =
            FaultScenario::new().with(FaultPlan::new(61, 0.4), 1).with(FaultPlan::new(62, 0.2), 2);
        let (hurt, report) = engine.degraded(&scenario);
        assert!(report.faults > 0, "heavy scenario landed no faults");
        assert_eq!(predict(&engine), clean_preds, "original engine was mutated");
        // The degraded replica still answers (no panic) with in-range
        // class indices.
        let degraded_preds = predict(&hurt);
        assert!(degraded_preds.iter().all(|&p| p < engine.num_classes()));
    }

    /// A zero-head query engine over `classes` seeded bundled rows.
    fn query_engine(classes: usize, seed: u64) -> Engine<nshd_hdc::HdQuery> {
        let (dim, mut rng) = (256, Rng::new(seed));
        let mut memory = AssociativeMemory::new(classes, dim);
        for c in 0..classes {
            let signs: Vec<f32> = (0..dim).map(|_| rng.bipolar()).collect();
            memory.bundle(c, &BipolarHv::from_signs(&signs));
        }
        Engine::new(EngineState::new(Vec::new(), Arc::new(memory), ScoringMode::Dense))
            .expect("a finite memory verifies")
    }

    /// Runs `jobs` on their own threads, released together by a barrier,
    /// and returns their results in job order.
    fn race<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
        let barrier = std::sync::Barrier::new(jobs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|job| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        job()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("job panicked")).collect()
        })
    }

    #[test]
    fn racing_add_class_calls_get_distinct_indices_and_keep_every_class() {
        const CLASSES: usize = 10;
        const THREADS: usize = 8;
        for round in 0..8 {
            let engine = query_engine(CLASSES, round);
            let jobs = (0..THREADS)
                .map(|_| Box::new(|| engine.add_class()) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let mut indices = race(jobs);
            indices.sort_unstable();
            assert_eq!(indices, (CLASSES..CLASSES + THREADS).collect::<Vec<_>>(), "round {round}");
            assert_eq!(engine.num_classes(), CLASSES + THREADS, "round {round}: a class was lost");
        }
    }

    #[test]
    fn racing_set_scoring_keeps_a_concurrently_swapped_memory() {
        for round in 0..8 {
            let engine = query_engine(10, round);
            let swapped = query_engine(12, 100 + round).state().memory().clone();
            let jobs: Vec<Box<dyn FnOnce() + Send>> = vec![
                Box::new(|| {
                    engine.swap_memory(swapped.clone()).expect("swap publishes");
                }),
                Box::new(|| {
                    engine.set_scoring(ScoringMode::Int8).expect("rescoring publishes");
                }),
            ];
            race(jobs);
            let state = engine.state();
            assert_eq!(state.memory(), &swapped, "round {round}: the swapped memory was lost");
            assert_eq!(state.scoring_mode(), ScoringMode::Int8, "round {round}: the mode was lost");
        }
    }

    #[test]
    fn empty_batches_are_fine() {
        let (model, _) = trained_setup(false);
        let engine = Engine::try_from(&model).expect("verifies");
        let state = engine.state();
        assert!(state.heads()[0].symbolizer().try_embed(&[]).unwrap().is_empty());
        assert!(state.predict_batch::<Tensor>(&[]).unwrap().is_empty());
        assert!(state.encode(&[]).unwrap().is_empty());
        for mode in [ScoringMode::Int8, ScoringMode::Packed] {
            engine.set_scoring(mode).unwrap();
            assert!(engine.state().predict_batch::<Tensor>(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn quantised_scoring_modes_serve_batches() {
        let (model, test) = trained_setup(false);
        let engine = Engine::try_from(&model).expect("verifies");
        assert_eq!(engine.state().scoring_mode(), ScoringMode::Dense);
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
        let predict = |e: &Engine<Tensor>| e.state().predict_batch(&images).unwrap();
        let with_scoring = |mode| {
            let e = engine.clone();
            e.set_scoring(mode).unwrap();
            e
        };
        let dense_preds = predict(&engine);
        let dense_hvs = engine.state().encode(&images).unwrap();

        // Re-selecting Dense is exactly the default engine.
        let redense = with_scoring(ScoringMode::Dense);
        assert_eq!(predict(&redense), dense_preds);

        // Quantised modes serve batches bit-exactly as the compiled
        // backend scoring the same encoded hypervectors — the engine
        // adds no hidden densify-then-round step (§VI-B deployments).
        let quant = nshd_hdc::QuantizedMemory::from_memory(engine.state().memory());
        let packed_mem = nshd_hdc::PackedMemory::from_memory(engine.state().memory());
        let packed_hvs: Vec<_> = dense_hvs.iter().map(nshd_hdc::BipolarHv::to_packed).collect();
        for mode in [ScoringMode::Int8, ScoringMode::Packed] {
            let quantised = with_scoring(mode);
            assert_eq!(quantised.state().scoring_mode(), mode);
            let preds = predict(&quantised);
            let want = match mode {
                ScoringMode::Int8 => quant.predict_batch(&packed_hvs),
                ScoringMode::Packed => packed_mem.predict_batch(&packed_hvs),
                ScoringMode::Dense => unreachable!(),
            };
            assert_eq!(preds, want, "{} engine diverged from its backend", mode.name());
            assert!(preds.iter().all(|&p| p < engine.num_classes()));
            // Malformed rows are still reported, not panicked.
            let err = quantised.state().predict_batch(&[Tensor::zeros([3, 16, 16])]).unwrap_err();
            assert!(matches!(err, PipelineError::Tensor(_)), "{err:?}");
        }

        // A degraded replica of a quantised engine recompiles its
        // backend from the corrupted memory: heavy faults must be able
        // to change quantised predictions too.
        use nshd_hdc::{FaultPlan, FaultScenario};
        let packed_engine = with_scoring(ScoringMode::Packed);
        let clean = predict(&packed_engine);
        let scenario = FaultScenario::new()
            .with(FaultPlan::new(71, 0.45), 0)
            .with(FaultPlan::new(72, 0.45), 1);
        let (hurt, report) = packed_engine.degraded(&scenario);
        assert!(report.faults > 0);
        assert_eq!(hurt.state().scoring_mode(), ScoringMode::Packed);
        let hurt_preds = predict(&hurt);
        assert!(hurt_preds.iter().all(|&p| p < engine.num_classes()));
        assert_ne!(hurt_preds, clean, "45% memory corruption left every prediction intact");
    }
}
