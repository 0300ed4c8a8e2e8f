//! Many-class Similarity Scaling (MASS) retraining, from CascadeHD
//! (paper ref [3]) — the base HD retraining rule NSHD's distillation
//! extends.
//!
//! Per training sample `H` with label `y`:
//!
//! ```text
//! U = one_hot(y) − δ(M, H)
//! M ← M + λ · Uᵀ H
//! ```
//!
//! so misclassified samples produce large corrective updates on every
//! class at once (class-wise similarity differences), not just the
//! predicted and true classes.

use crate::hypervector::BipolarHv;
use crate::memory::{argmax_last, AssociativeMemory};

/// The MASS retraining rule.
#[derive(Debug, Clone, PartialEq)]
pub struct MassTrainer {
    /// Learning rate λ.
    pub learning_rate: f32,
}

impl MassTrainer {
    /// Creates a trainer with learning rate λ.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0`.
    pub fn new(learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        MassTrainer { learning_rate }
    }

    /// Computes the MASS update vector `U = one_hot(y) − δ(M, H)` without
    /// applying it (exposed because the manifold learner consumes `U`).
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or dimensions disagree.
    pub fn update_vector(
        &self,
        memory: &AssociativeMemory,
        hv: &BipolarHv,
        label: usize,
    ) -> Vec<f32> {
        assert!(label < memory.num_classes(), "label {label} out of range");
        mass_update(memory.similarities(hv), label)
    }

    /// Applies one sample's update: `M ← M + λ·Uᵀ H`. Returns the class
    /// the memory predicted before the update (`argmax δ(M, H)`, ties to
    /// the last maximum) and `U`, both from one similarity vector.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or dimensions disagree.
    pub fn step(
        &self,
        memory: &mut AssociativeMemory,
        hv: &BipolarHv,
        label: usize,
    ) -> (usize, Vec<f32>) {
        assert!(label < memory.num_classes(), "label {label} out of range");
        let sims = memory.similarities(hv);
        let predicted = argmax_last(&sims);
        let u = mass_update(sims, label);
        apply_update(memory, hv, &u, self.learning_rate);
        (predicted, u)
    }

    /// One pass over a labelled sample set; returns the pre-update
    /// training accuracy of the pass.
    pub fn epoch(&self, memory: &mut AssociativeMemory, samples: &[(BipolarHv, usize)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct =
            samples.iter().filter(|(hv, label)| self.step(memory, hv, *label).0 == *label).count();
        correct as f32 / samples.len() as f32
    }
}

/// `U = one_hot(y) − δ(M, H)` from the similarities `δ(M, H)`.
fn mass_update(mut sims: Vec<f32>, label: usize) -> Vec<f32> {
    for v in &mut sims {
        *v = -*v;
    }
    sims[label] += 1.0;
    sims
}

/// `M ← M + λ·Uᵀ H`, one scaled bundle per class — the update MASS and
/// distillation retraining share.
pub(crate) fn apply_update(
    memory: &mut AssociativeMemory,
    hv: &BipolarHv,
    u: &[f32],
    learning_rate: f32,
) {
    for (c, &uc) in u.iter().enumerate() {
        memory.add_scaled(c, hv, learning_rate * uc);
    }
}

/// Initialises a memory by bundling every sample into its class — the
/// classic single-pass HD training that retraining then refines.
pub fn bundle_init(
    num_classes: usize,
    dim: usize,
    samples: &[(BipolarHv, usize)],
) -> AssociativeMemory {
    let mut memory = AssociativeMemory::new(num_classes, dim);
    for (hv, label) in samples {
        memory.bundle(*label, hv);
    }
    memory
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    /// Builds a noisy prototype classification task.
    fn noisy_task(
        classes: usize,
        per_class: usize,
        dim: usize,
        flip: f32,
        rng: &mut Rng,
    ) -> Vec<(BipolarHv, usize)> {
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, rng)).collect();
        let mut out = Vec::new();
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..per_class {
                let noisy = BipolarHv::new(
                    proto
                        .components()
                        .iter()
                        .map(|&s| if rng.chance(flip) { -s } else { s })
                        .collect(),
                );
                out.push((noisy, c));
            }
        }
        out
    }

    #[test]
    fn update_vector_rewards_truth_and_penalises_rest() {
        let mut rng = Rng::new(1);
        let dim = 1024;
        let mut mem = AssociativeMemory::new(3, dim);
        let h = random_hv(dim, &mut rng);
        mem.bundle(2, &h); // memory currently favours the wrong class
        let trainer = MassTrainer::new(0.5);
        let u = trainer.update_vector(&mem, &h, 0);
        // True class (empty) gets u ≈ +1; the wrong confident class gets
        // u ≈ −1.
        assert!(u[0] > 0.9, "u = {u:?}");
        assert!(u[2] < -0.9, "u = {u:?}");
        // One step must flip the prediction toward the true class.
        trainer.step(&mut mem, &h, 0);
        let sims = mem.similarities(&h);
        assert!(sims[0] > 0.0);
    }

    #[test]
    fn retraining_improves_over_bundle_init() {
        let dim = 512;
        // High noise makes bundle-init imperfect so retraining has room;
        // train and test share prototypes by drawing from one generator.
        let mut rng = Rng::new(2);
        let both = noisy_task(5, 24, dim, 0.35, &mut rng);
        let (train, test): (Vec<_>, Vec<_>) =
            both.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let train: Vec<_> = train.into_iter().map(|(_, s)| s).collect();
        let test: Vec<_> = test.into_iter().map(|(_, s)| s).collect();

        let mut mem = bundle_init(5, dim, &train);
        let before = mem.accuracy(&test);
        let trainer = MassTrainer::new(0.2);
        for _ in 0..10 {
            trainer.epoch(&mut mem, &train);
        }
        let after = mem.accuracy(&test);
        assert!(after >= before, "retraining must not reduce accuracy: {before} → {after}");
        assert!(after > 0.8, "retrained accuracy {after}");
    }

    #[test]
    fn correctly_classified_confident_samples_update_little() {
        let mut rng = Rng::new(3);
        let dim = 2048;
        let mut mem = AssociativeMemory::new(2, dim);
        let h = random_hv(dim, &mut rng);
        for _ in 0..20 {
            mem.bundle(0, &h);
        }
        let trainer = MassTrainer::new(1.0);
        let u = trainer.update_vector(&mem, &h, 0);
        // Similarity to class 0 is ≈ 1, so u[0] ≈ 0.
        assert!(u[0].abs() < 0.05, "u = {u:?}");
    }

    #[test]
    fn epoch_returns_pre_update_accuracy() {
        let mut rng = Rng::new(4);
        let dim = 256;
        let samples = noisy_task(2, 8, dim, 0.1, &mut rng);
        let mut mem = bundle_init(2, dim, &samples);
        let trainer = MassTrainer::new(0.1);
        let acc = trainer.epoch(&mut mem, &samples);
        assert!(acc > 0.9, "bundle-init training accuracy {acc}");
        assert_eq!(trainer.epoch(&mut AssociativeMemory::new(2, dim), &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_lr_panics() {
        MassTrainer::new(0.0);
    }
}
