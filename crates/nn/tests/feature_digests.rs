//! Pinned feature digests: a 64-bit FNV-1a hash of the exact f32 bits
//! `Model::infer_features_at` produces for every zoo architecture, at
//! every paper cut, for a batch of one and a batch of three.
//!
//! The eval kernels (convolution, depthwise convolution, im2col,
//! activations, normalisation, pooling) promise bit-identical output
//! across rewrites, thread counts and the SIMD kill-switch. This test
//! holds them to it end to end. A change that moves any digest changes
//! the numerics of the extractor; if that is intended, update the table
//! below (the failure message prints the new one) and say so in the
//! change log.

use nshd_nn::{Architecture, Model};
use nshd_tensor::{Rng, Tensor};

/// `(architecture, cut, batch, digest)`, recorded with the per-element
/// scalar loops the eval kernels replaced; identical under every
/// `NSHD_THREADS` and `NSHD_SIMD` setting.
const PINNED: &[(Architecture, usize, usize, u64)] = &[
    (Architecture::MobileNetV2, 15, 1, 0xb3aad9976763c992),
    (Architecture::MobileNetV2, 18, 1, 0x63cd5e65592da5c6),
    (Architecture::MobileNetV2, 15, 3, 0xcc12999b94a4d933),
    (Architecture::MobileNetV2, 18, 3, 0xfae6db5cf192db6a),
    (Architecture::EfficientNetB0, 6, 1, 0x15d3b2ddc1cdc5ad),
    (Architecture::EfficientNetB0, 7, 1, 0xe6961503d87391e0),
    (Architecture::EfficientNetB0, 8, 1, 0x99acc3dd11db5a6a),
    (Architecture::EfficientNetB0, 9, 1, 0x5febb72132654687),
    (Architecture::EfficientNetB0, 6, 3, 0x6ad25aa0d4f0afee),
    (Architecture::EfficientNetB0, 7, 3, 0xdcf6b1a6f6ae6a6e),
    (Architecture::EfficientNetB0, 8, 3, 0xec9ed1910f1dca5d),
    (Architecture::EfficientNetB0, 9, 3, 0x59febe6e7c8ce03d),
    (Architecture::EfficientNetB7, 7, 1, 0x502ce0856c799f0c),
    (Architecture::EfficientNetB7, 8, 1, 0x19f9429559a85758),
    (Architecture::EfficientNetB7, 9, 1, 0xabf16ee3d173626d),
    (Architecture::EfficientNetB7, 7, 3, 0x61d2b3171c80f397),
    (Architecture::EfficientNetB7, 8, 3, 0xfed2a6949e11abac),
    (Architecture::EfficientNetB7, 9, 3, 0x59bcc3d0a9e5841b),
    (Architecture::Vgg16, 28, 1, 0x2b224c6a66bb7923),
    (Architecture::Vgg16, 30, 1, 0x86f4f830f7f3a064),
    (Architecture::Vgg16, 28, 3, 0x8c94f1e0f11f7847),
    (Architecture::Vgg16, 30, 3, 0xac4a2241c4dccd0e),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the output dims and then every element's bit pattern.
fn digest(t: &Tensor) -> u64 {
    let words =
        t.dims().iter().map(|&d| d as u64).chain(t.as_slice().iter().map(|v| v.to_bits() as u64));
    words.fold(FNV_OFFSET, |h, word| {
        word.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    })
}

/// A seeded model whose biases and normalisation affines are non-zero,
/// so the bias paths of every layer reach the digest.
fn seeded_model(arch: Architecture) -> Model {
    let mut model = arch.build(10, &mut Rng::new(0x5eed));
    let mut rng = Rng::new(0xb1a5);
    for p in model.params_mut() {
        if p.value.dims().len() == 1 {
            for v in p.value.as_mut_slice() {
                *v += 0.1 * rng.normal();
            }
        }
    }
    model
}

fn seeded_input(model: &Model, n: usize) -> Tensor {
    let mut rng = Rng::new(0x1397 + n as u64);
    let [c, h, w] = model.input_shape[..] else { panic!("CHW input expected") };
    Tensor::from_fn([n, c, h, w], |_| rng.normal())
}

#[test]
fn extractor_feature_bits_match_pinned_digests() {
    let mut actual = Vec::new();
    for arch in Architecture::ALL {
        let model = seeded_model(arch);
        for n in [1, 3] {
            let input = seeded_input(&model, n);
            for &cut in arch.paper_cuts() {
                actual.push((arch, cut, n, digest(&model.infer_features_at(&input, cut))));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(arch, cut, n, d)| format!("    (Architecture::{arch:?}, {cut}, {n}, 0x{d:016x}),\n"))
        .collect();
    assert!(
        actual.as_slice() == PINNED,
        "feature digests moved; if the numeric change is intended, pin:\n{table}"
    );
}
