//! Pinned trained-weight digests: a 64-bit FNV-1a hash of the exact f32
//! bits of every parameter after a few Adam steps on the MobileNetV2 and
//! EfficientNet-B0 analogs, at a fixed seed.
//!
//! The training forward runs the same eval kernels the extractor serves
//! through (`DepthwiseConv2d::forward` calls its `infer`), so a kernel
//! rewrite that moves a single bit of a training activation moves these
//! digests. They must hold at one and four threads, with the GEMM
//! micro-kernels on and off. A change that moves them changes the
//! training numerics; if that is intended, update the table below (the
//! failure message prints the new one) and say so in the change log.

use nshd_nn::{cross_entropy, Adam, Architecture, Mode, Model, Optimizer};
use nshd_tensor::{par, set_simd_enabled, simd_enabled, Rng, Tensor};

/// `(architecture, digest)` after [`STEPS`] Adam steps.
/// Recorded before the fused eval path landed; identical at every
/// thread count and SIMD setting.
const PINNED: &[(Architecture, u64)] = &[
    (Architecture::MobileNetV2, 0x468e3b4b0c9c070b),
    (Architecture::EfficientNetB0, 0x48700b048596cb4e),
];

const STEPS: usize = 3;
const BATCH: usize = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over every parameter's length and then its elements' bits.
fn digest(model: &mut Model) -> u64 {
    let mut h = FNV_OFFSET;
    for p in model.params_mut() {
        let words = std::iter::once(p.len() as u64)
            .chain(p.value.as_slice().iter().map(|v| v.to_bits() as u64));
        for word in words {
            h = word.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME));
        }
    }
    h
}

/// Builds the seeded model and runs [`STEPS`] training steps on seeded
/// images and labels; returns the parameter digest.
fn train(arch: Architecture) -> u64 {
    let mut model = arch.build(10, &mut Rng::new(0x7a11));
    let mut rng = Rng::new(0xada);
    let [c, h, w] = model.input_shape[..] else { panic!("CHW input expected") };
    let mut adam = Adam::new(1e-2, 1e-4);
    for _ in 0..STEPS {
        let x = Tensor::from_fn([BATCH, c, h, w], |_| rng.normal());
        let labels: Vec<usize> = (0..BATCH).map(|_| rng.below(10)).collect();
        model.zero_grad();
        let logits = model.forward(&x, Mode::Train);
        let loss = cross_entropy(&logits, &labels);
        model.backward(&loss.grad);
        adam.step(&mut model.params_mut());
    }
    digest(&mut model)
}

#[test]
fn trained_parameter_bits_match_pinned_digests() {
    let was_enabled = simd_enabled();
    let mut runs = Vec::new();
    for threads in [1, 4] {
        for simd in [false, true] {
            set_simd_enabled(simd);
            let actual: Vec<(Architecture, u64)> = PINNED
                .iter()
                .map(|&(arch, _)| (arch, par::with_threads(threads, || train(arch))))
                .collect();
            runs.push((threads, simd, actual));
        }
    }
    set_simd_enabled(was_enabled);
    for (threads, simd, actual) in runs {
        let table: String = actual
            .iter()
            .map(|(arch, d)| format!("    (Architecture::{arch:?}, 0x{d:016x}),\n"))
            .collect();
        assert!(
            actual.as_slice() == PINNED,
            "trained digests moved at {threads} thread(s), SIMD {simd}; if the numeric \
             change is intended, pin:\n{table}"
        );
    }
}
