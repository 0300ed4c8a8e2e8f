//! Pinned HD-training digests: a 64-bit FNV-1a hash of the exact f32
//! bits of the class memory at each stage of the paper's HD training,
//! at a fixed seed:
//!
//! - after `NshdTrainer::prepare` (bundle-init of the first encodings);
//! - after two epochs of Algorithm 1's distillation retraining with the
//!   manifold layer trained by HD decoding, together with the epochs'
//!   training accuracies and the symbolized held-out images;
//! - after `bundle_init` and one CascadeHD MASS epoch over 100 classes.
//!
//! The model is a seeded, untrained MobileNetV2 analog cut at layer 15,
//! with D = 3000 and F̂ = 100, trained on 100 Synth10 images. Every
//! digest must hold at one and four threads, with the GEMM
//! micro-kernels on and off. A change that moves one changes the
//! training numerics; if that is intended, update the table below (the
//! failure message prints the new one) and say so in the change log.
//!
//! The second test holds the per-sample HD operations the training runs
//! (`encode_raw`, `decode`, `similarities`) to their bit-serial
//! definitions, kept here verbatim as oracles: add or subtract each
//! value by sign bit in ascending order, and one cosine chain per class.

use nshd_core::{NshdConfig, NshdTrainer};
use nshd_data::{normalize_pair, SynthSpec};
use nshd_hdc::{
    bundle_init, cosine_dense_bipolar, AssociativeMemory, BipolarHv, MassTrainer, PackedHv,
    RandomProjection,
};
use nshd_nn::Architecture;
use nshd_tensor::{par, set_simd_enabled, simd_enabled, Rng};

/// `(stage, digest)`, identical at every thread count and SIMD setting.
const PINNED: &[(&str, u64)] = &[
    ("prepare", 0xa5bb0840a83ddd82),
    ("two_epochs", 0xecdf612e88f02e83),
    ("mass", 0xb15fc1661f1eaa3d),
];

const CUT: usize = 15;
const DIM: usize = 3000;
const MANIFOLD: usize = 100;
const MASS_CLASSES: usize = 100;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for word in words {
        h = word.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
    }
    h
}

/// Each class row's length and then its elements' bits.
fn memory_words(memory: &AssociativeMemory) -> Vec<u64> {
    (0..memory.num_classes())
        .flat_map(|c| {
            let row = memory.class(c);
            std::iter::once(row.len() as u64).chain(row.iter().map(|v| v.to_bits() as u64))
        })
        .collect()
}

/// Prepares, digests, runs two epochs, and digests the memory, the
/// epochs' accuracies and the symbolized held-out images.
fn nshd_digests() -> [u64; 2] {
    let (mut train, mut test) = SynthSpec::synth10(0x5eed).with_sizes(100, 16).generate();
    normalize_pair(&mut train, &mut test);
    let teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(0x7ea));
    let config = NshdConfig::new(CUT)
        .with_hv_dim(DIM)
        .with_manifold_features(MANIFOLD)
        .with_retrain_epochs(2)
        .with_seed(0xd15);
    let mut trainer = NshdTrainer::prepare(teacher, &train, config);
    let prepared = fnv(memory_words(trainer.model_mut().memory()));
    let accuracies: Vec<f32> = (0..2).map(|_| trainer.epoch()).collect();
    let model = trainer.finish();
    assert!(model.memory().is_finite(), "the trained memory is finite");
    let symbols = (0..test.len()).flat_map(|i| {
        let hv = model.symbolize(&test.sample(i).0);
        hv.components().iter().map(|&c| c as u64).collect::<Vec<_>>()
    });
    let trained = fnv(memory_words(model.memory())
        .into_iter()
        .chain(accuracies.iter().map(|a| a.to_bits() as u64))
        .chain(symbols));
    [prepared, trained]
}

/// Noisy copies of one random feature prototype per class, encoded by a
/// seeded projection, bundled and retrained for one MASS epoch.
fn mass_digest() -> u64 {
    let features = 64;
    let mut rng = Rng::new(0xa55);
    let prototypes: Vec<Vec<f32>> =
        (0..MASS_CLASSES).map(|_| (0..features).map(|_| rng.normal()).collect()).collect();
    let proj = RandomProjection::new(features, DIM, 0x9e0);
    let samples: Vec<(BipolarHv, usize)> = (0..3 * MASS_CLASSES)
        .map(|i| {
            let class = i % MASS_CLASSES;
            let noisy: Vec<f32> = prototypes[class].iter().map(|v| v + rng.normal()).collect();
            (proj.encode(&noisy), class)
        })
        .collect();
    let mut memory = bundle_init(MASS_CLASSES, DIM, &samples);
    let accuracy = MassTrainer::new(0.2).epoch(&mut memory, &samples);
    fnv(memory_words(&memory).into_iter().chain([accuracy.to_bits() as u64]))
}

/// Runs `body` at 1 and 4 threads with the micro-kernels off and on,
/// restoring the SIMD setting afterwards.
fn for_each_setting(mut body: impl FnMut(usize, bool)) {
    let was_enabled = simd_enabled();
    for threads in [1, 4] {
        for simd in [false, true] {
            set_simd_enabled(simd);
            par::with_threads(threads, || body(threads, simd));
        }
    }
    set_simd_enabled(was_enabled);
}

#[test]
fn training_bits_match_pinned_digests() {
    let mut runs = Vec::new();
    for_each_setting(|threads, simd| {
        let [prepared, trained] = nshd_digests();
        let actual = vec![("prepare", prepared), ("two_epochs", trained), ("mass", mass_digest())];
        runs.push((threads, simd, actual));
    });
    for (threads, simd, actual) in runs {
        let table: String =
            actual.iter().map(|(stage, d)| format!("    (\"{stage}\", 0x{d:016x}),\n")).collect();
        assert!(
            actual.as_slice() == PINNED,
            "training digests moved at {threads} thread(s), SIMD {simd}; if the numeric \
             change is intended, pin:\n{table}"
        );
    }
}

/// The projection basis as `RandomProjection::new` draws it: one bipolar
/// row per feature from the seeded generator, bit-packed.
fn basis(features: usize, dim: usize, seed: u64) -> Vec<PackedHv> {
    let mut rng = Rng::new(seed);
    (0..features)
        .map(|_| {
            let signs: Vec<f32> = (0..dim).map(|_| rng.bipolar()).collect();
            BipolarHv::from_signs(&signs).to_packed()
        })
        .collect()
}

/// Bit-serial `Σ_f v_f ⊗ P_f`: add or subtract each nonzero value by
/// sign bit, 64 dimensions per word.
fn encode_raw_oracle(rows: &[PackedHv], dim: usize, values: &[f32]) -> Vec<f32> {
    let mut acc = vec![0.0f32; dim];
    for (row, &v) in rows.iter().zip(values) {
        if v == 0.0 {
            continue;
        }
        let words = row.words();
        for (w, word) in words.iter().enumerate() {
            let base = w * 64;
            let end = (base + 64).min(dim);
            let mut bits = *word;
            for a in &mut acc[base..end] {
                if bits & 1 == 1 {
                    *a += v;
                } else {
                    *a -= v;
                }
                bits >>= 1;
            }
        }
    }
    acc
}

/// Bit-serial `out_f = ⟨P_f, e⟩ / D`, every component added or
/// subtracted in ascending order.
fn decode_oracle(rows: &[PackedHv], dim: usize, hyper: &[f32]) -> Vec<f32> {
    let inv_d = 1.0 / dim as f32;
    rows.iter()
        .map(|row| {
            let words = row.words();
            let mut s = 0.0;
            for (w, word) in words.iter().enumerate() {
                let base = w * 64;
                let end = (base + 64).min(dim);
                let mut bits = *word;
                for item in &hyper[base..end] {
                    if bits & 1 == 1 {
                        s += item;
                    } else {
                        s -= item;
                    }
                    bits >>= 1;
                }
            }
            s * inv_d
        })
        .collect()
}

/// One cosine chain per class.
fn similarities_oracle(memory: &AssociativeMemory, hv: &BipolarHv) -> Vec<f32> {
    (0..memory.num_classes()).map(|c| cosine_dense_bipolar(memory.class(c), hv)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn per_sample_hd_ops_match_their_bit_serial_oracles() {
    let seed = 0xb17;
    let proj = RandomProjection::new(MANIFOLD, DIM, seed);
    let rows = basis(MANIFOLD, DIM, seed);
    let mut rng = Rng::new(0x0c1e);
    // Exact zeros of both signs are skipped by the encoder and must
    // leave a decode sum exactly as the oracle's `±0.0` terms do; huge
    // values make cancellation to `+0.0` and infinities reachable.
    let mut values: Vec<f32> = (0..MANIFOLD).map(|_| rng.normal()).collect();
    values[3] = 0.0;
    values[4] = -0.0;
    values[7] = 3.0e38;
    values[8] = -3.0e38;
    let mut hyper: Vec<f32> = (0..DIM).map(|_| rng.normal()).collect();
    for d in (0..DIM).step_by(7) {
        hyper[d] = if d % 2 == 0 { 0.0 } else { -0.0 };
    }
    let all_zero = vec![-0.0f32; DIM];
    let mut memory = AssociativeMemory::new(MASS_CLASSES, DIM);
    for c in 0..MASS_CLASSES - 1 {
        for _ in 0..1 + c % 3 {
            let signs: Vec<f32> = (0..DIM).map(|_| rng.bipolar()).collect();
            memory.add_scaled(c, &BipolarHv::from_signs(&signs), rng.normal());
        }
    }
    memory.class_mut(5)[17] = -0.0;
    let query = proj.encode(&values);
    for_each_setting(|threads, simd| {
        let at = format!("{threads} thread(s), SIMD {simd}");
        assert_eq!(
            bits(&proj.encode_raw(&values)),
            bits(&encode_raw_oracle(&rows, DIM, &values)),
            "encode_raw at {at}"
        );
        for e in [&hyper, &all_zero, &proj.encode_raw(&values)] {
            assert_eq!(
                bits(&proj.decode(e)),
                bits(&decode_oracle(&rows, DIM, e)),
                "decode at {at}"
            );
        }
        assert_eq!(
            bits(&memory.similarities(&query)),
            bits(&similarities_oracle(&memory, &query)),
            "similarities at {at}"
        );
    });
}
