//! In-flight hot-swap determinism: a batch that pinned its snapshot
//! before a swap must be answered **entirely** by that snapshot —
//! bit-identical to a pre-swap baseline — while batches submitted after
//! the swap are answered entirely by the new state. The stall fault of
//! the PR-6 chaos harness holds a batch open in its extract stage so a
//! swap provably lands mid-batch; `NSHD_THREADS`-style parallelism is
//! exercised via `par::with_threads(1)` and `par::with_threads(4)`.

use nshd_core::CnnClassifier;
use nshd_data::{normalize_pair, ImageDataset, SynthSpec};
use nshd_glue::{GlueConfig, GlueEngine, GlueEnsemble};
use nshd_hdc::AssociativeMemory;
use nshd_nn::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d, Model, Sequential};
use nshd_runtime::{ChaosEngine, ChaosMode, InferenceRuntime, RuntimeConfig};
use nshd_tensor::{par, Rng, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// An untrained (randomly initialised) tiny CNN teacher: fusion and
/// hot-swap semantics do not care about accuracy, only determinism.
fn tiny_cnn(name: &str, width: usize, seed: u64) -> CnnClassifier {
    let mut rng = Rng::new(seed);
    let features = Sequential::new()
        .with(Conv2d::new(3, width, 3, 1, 1, &mut rng))
        .with(Activation::new(ActKind::Relu))
        .with(MaxPool2d::new(2));
    let classifier =
        Sequential::new().with(Flatten::new()).with(Linear::new(width * 16 * 16, 10, &mut rng));
    CnnClassifier::new(Model {
        name: name.into(),
        features,
        classifier,
        input_shape: vec![3, 32, 32],
        num_classes: 10,
    })
}

fn fused_fixture() -> (GlueEnsemble, ImageDataset) {
    let (mut train, mut test) = SynthSpec::synth10(21).with_sizes(32, 12).generate();
    normalize_pair(&mut train, &mut test);
    let teachers = [tiny_cnn("a", 3, 5), tiny_cnn("b", 5, 6)];
    let refs: Vec<&dyn nshd_core::EmbeddingClassifier> =
        teachers.iter().map(|t| t as &dyn nshd_core::EmbeddingClassifier).collect();
    let config = GlueConfig {
        hv_dim: 256,
        seed: 7,
        correction_epochs: 2,
        learning_rate: 0.2,
        embed_chunk: 16,
    };
    let ensemble = GlueEnsemble::fuse(&refs, &train, &config).expect("fuse must succeed");
    (ensemble, test)
}

fn runtime_config() -> RuntimeConfig {
    // max_wait is generous so every request submitted in one burst
    // lands in one batch; max_batch comfortably covers the burst.
    RuntimeConfig { workers: 2, max_batch: 16, max_wait: Duration::from_millis(50) }
}

fn spin_until_injected(switch: &nshd_runtime::ChaosSwitch) {
    for _ in 0..5000 {
        if switch.injected() >= 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("the stalled batch never reached its extract stage");
}

/// Drives one mid-traffic swap and checks both sides of the snapshot
/// boundary. `swap` receives the engine once the stalled batch is
/// provably inside extract (fault injected ⇒ snapshot already pinned).
fn assert_swap_is_torn_free(swap: impl FnOnce(&GlueEngine)) {
    let (ensemble, test) = fused_fixture();
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let glue = Arc::new(GlueEngine::new(ensemble));
    let pre = glue.state().predict_batch(&images).expect("baseline predict");

    let (chaos, switch) = ChaosEngine::new(glue.clone());
    let runtime = InferenceRuntime::new(Arc::new(chaos), runtime_config()).expect("runtime starts");

    // Hold the first batch open inside extract, then swap under it.
    switch.set(ChaosMode::Stall(Duration::from_millis(250)));
    let stalled: Vec<_> =
        images.iter().map(|img| runtime.submit(img.clone()).expect("submit")).collect();
    spin_until_injected(&switch);
    swap(&glue);
    switch.set(ChaosMode::Healthy);

    let stalled_replies: Vec<usize> =
        stalled.into_iter().map(|h| h.wait().expect("stalled batch resolves")).collect();
    assert_eq!(
        stalled_replies, pre,
        "a batch pinned before the swap must be answered bit-exactly by the old snapshot"
    );

    // Everything after the swap is answered by the new state.
    let post = glue.state().predict_batch(&images).expect("post-swap baseline");
    let fresh: Vec<_> =
        images.iter().map(|img| runtime.submit(img.clone()).expect("submit")).collect();
    let fresh_replies: Vec<usize> =
        fresh.into_iter().map(|h| h.wait().expect("post-swap batch resolves")).collect();
    assert_eq!(
        fresh_replies, post,
        "a batch submitted after the swap must be answered bit-exactly by the new snapshot"
    );
    runtime.shutdown();
}

/// The swapped-in memory: every class row rotated by one, so the
/// replacement is dimension-compatible but scores differently.
fn rotated_memory(memory: &AssociativeMemory) -> AssociativeMemory {
    let n = memory.num_classes();
    let rows: Vec<Vec<f32>> = (0..n).map(|i| memory.class((i + 1) % n).to_vec()).collect();
    AssociativeMemory::try_from_classes(rows).expect("rotated rows stay rectangular")
}

fn memory_swap_scenario() {
    assert_swap_is_torn_free(|glue| {
        let rotated = rotated_memory(glue.state().memory());
        let marker = rotated.class(0).to_vec();
        let previous = glue.swap_memory(rotated).expect("compatible memory must swap");
        assert_eq!(previous.num_classes(), 10, "swap returns the replaced state");
        assert_eq!(
            glue.state().memory().class(0),
            &marker[..],
            "new loads must observe the swapped memory"
        );
    });
}

fn head_swap_scenario() {
    assert_swap_is_torn_free(|glue| {
        let silenced = glue.state().heads()[0].with_weight(0.0);
        glue.swap_head(0, silenced).expect("re-weighted head must swap");
        assert_eq!(
            glue.state().heads()[0].weight(),
            0.0,
            "new loads must observe the swapped head"
        );
    });
}

#[test]
fn memory_hot_swap_mid_traffic_is_torn_free_single_thread() {
    par::with_threads(1, memory_swap_scenario);
}

#[test]
fn memory_hot_swap_mid_traffic_is_torn_free_four_threads() {
    par::with_threads(4, memory_swap_scenario);
}

#[test]
fn head_hot_swap_mid_traffic_is_torn_free_single_thread() {
    par::with_threads(1, head_swap_scenario);
}

#[test]
fn head_hot_swap_mid_traffic_is_torn_free_four_threads() {
    par::with_threads(4, head_swap_scenario);
}

#[test]
fn scoring_hot_swap_mid_traffic_is_torn_free() {
    use nshd_hdc::ScoringMode;
    par::with_threads(1, || {
        assert_swap_is_torn_free(|glue| {
            let previous =
                glue.set_scoring(ScoringMode::Packed).expect("scoring recompile must publish");
            assert_eq!(previous.scoring_mode(), ScoringMode::Dense);
            assert_eq!(glue.state().scoring_mode(), ScoringMode::Packed);
        });
    });
}

#[test]
fn quantised_scoring_matches_backends_and_survives_swaps() {
    use nshd_hdc::{BipolarHv, PackedMemory, QuantizedMemory, ScoringMode};
    let (ensemble, test) = fused_fixture();
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let glue = GlueEngine::new(ensemble);
    assert_eq!(glue.state().scoring_mode(), ScoringMode::Dense);
    let hvs = glue.state().encode_fused(&images).expect("fused encode");

    // Each quantised mode scores exactly as the backend compiled from
    // the same memory — no hidden densify step in the glue path.
    glue.set_scoring(ScoringMode::Int8).expect("int8 recompile");
    let state = glue.state();
    let quant = QuantizedMemory::from_memory(state.memory());
    let queries: Vec<_> = hvs.iter().map(BipolarHv::to_packed).collect();
    assert_eq!(state.predict_batch(&images).expect("int8 predict"), quant.predict_batch(&queries));

    glue.set_scoring(ScoringMode::Packed).expect("packed recompile");
    let state = glue.state();
    let packed = PackedMemory::from_memory(state.memory());
    assert_eq!(
        state.predict_batch(&images).expect("packed predict"),
        packed.predict_batch(&queries)
    );

    // The selected mode survives every other kind of swap: the new
    // state recompiles its backend from the new memory.
    let rotated = rotated_memory(glue.state().memory());
    glue.swap_memory(rotated).expect("compatible memory must swap");
    assert_eq!(glue.state().scoring_mode(), ScoringMode::Packed);
    let grown = glue.add_class();
    assert_eq!(glue.state().scoring_mode(), ScoringMode::Packed);
    assert_eq!(glue.state().num_classes(), grown + 1);
    let state = glue.state();
    let packed = PackedMemory::from_memory(state.memory());
    assert_eq!(
        state.predict_batch(&images).expect("post-swap packed predict"),
        packed.predict_batch(&queries),
        "the packed backend must be recompiled from the swapped memory"
    );
}

#[test]
fn memory_swap_actually_changes_predictions() {
    // Sanity for the scenarios above: the rotated memory is not a
    // no-op, so the bit-exact assertions separate real states.
    let (ensemble, test) = fused_fixture();
    let images: Vec<Tensor> = (0..test.len()).map(|i| test.sample(i).0).collect();
    let glue = GlueEngine::new(ensemble);
    let pre = glue.state().predict_batch(&images).expect("baseline predict");
    let rotated = rotated_memory(glue.state().memory());
    glue.swap_memory(rotated).expect("compatible memory must swap");
    let post = glue.state().predict_batch(&images).expect("post-swap predict");
    assert_ne!(pre, post, "rotating every class row must move at least one prediction");
}
