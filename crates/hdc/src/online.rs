//! OnlineHD-style adaptive single-pass training — the main alternative
//! to iterative MASS retraining in the HD learning literature, included
//! as a comparison point for the retraining benches.
//!
//! Each sample updates the memory once, weighted by how wrong the model
//! currently is: a correctly-and-confidently classified sample barely
//! moves the memory, a misclassified one moves both the true and the
//! falsely-predicted class strongly.

use crate::hypervector::BipolarHv;
use crate::memory::{argmax_last, AssociativeMemory};

/// Outcome of one online-training pass over a labelled sample set.
///
/// Samples are visited in slice order and each update depends only on
/// the memory state left by the previous sample, so for a fixed memory,
/// sample order, and learning rate the counts are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochReport {
    /// Samples visited in the pass.
    pub samples: usize,
    /// Samples whose *pre-update* prediction was wrong (each triggered
    /// the two-sided error-correcting update).
    pub misclassified: usize,
}

impl EpochReport {
    /// Pre-update accuracy of the pass; `0.0` for an empty epoch.
    pub fn accuracy(&self) -> f32 {
        if self.samples == 0 {
            0.0
        } else {
            (self.samples - self.misclassified) as f32 / self.samples as f32
        }
    }
}

/// The adaptive (OnlineHD-style) trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineTrainer {
    /// Base learning rate.
    pub learning_rate: f32,
}

impl OnlineTrainer {
    /// Creates a trainer with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0`.
    pub fn new(learning_rate: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        OnlineTrainer { learning_rate }
    }

    /// Applies one sample's adaptive update:
    ///
    /// - if predicted correctly: `C_y += λ(1 − δ_y)·H` (gentle pull);
    /// - if predicted as `p ≠ y`: additionally `C_p −= λ(1 − δ_y)·H` —
    ///   both updates scale with how far the sample sits from its true
    ///   class, the OnlineHD rule.
    ///
    /// Returns `true` when the pre-update prediction was correct.
    ///
    /// # Panics
    ///
    /// Panics if `label` is out of range or dimensions disagree.
    pub fn step(&self, memory: &mut AssociativeMemory, hv: &BipolarHv, label: usize) -> bool {
        assert!(label < memory.num_classes(), "label {label} out of range");
        let sims = memory.similarities(hv);
        let predicted = argmax_last(&sims);
        let pull = self.learning_rate * (1.0 - sims[label]);
        memory.add_scaled(label, hv, pull);
        if predicted != label {
            memory.add_scaled(predicted, hv, -pull);
            false
        } else {
            true
        }
    }

    /// One pass over a labelled sample set; returns pre-update accuracy.
    pub fn epoch(&self, memory: &mut AssociativeMemory, samples: &[(BipolarHv, usize)]) -> f32 {
        self.epoch_counts(memory, samples).accuracy()
    }

    /// One pass over a labelled sample set, reporting exact per-epoch
    /// misclassification counts — the deterministic signal the HD-Glue
    /// error-correction loop converges on.
    ///
    /// # Panics
    ///
    /// Panics if any label is out of range or dimensions disagree.
    pub fn epoch_counts(
        &self,
        memory: &mut AssociativeMemory,
        samples: &[(BipolarHv, usize)],
    ) -> EpochReport {
        let misclassified =
            samples.iter().filter(|(hv, label)| !self.step(memory, hv, *label)).count();
        EpochReport { samples: samples.len(), misclassified }
    }

    /// Runs `epochs` error-correcting passes and returns one
    /// [`EpochReport`] per pass, in order. Stops early once a pass sees
    /// zero misclassifications (further passes would still apply gentle
    /// pulls, but the error-correction signal is exhausted).
    pub fn train(
        &self,
        memory: &mut AssociativeMemory,
        samples: &[(BipolarHv, usize)],
        epochs: usize,
    ) -> Vec<EpochReport> {
        let mut reports = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let report = self.epoch_counts(memory, samples);
            let done = report.misclassified == 0;
            reports.push(report);
            if done {
                break;
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mass::{bundle_init, MassTrainer};
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    #[allow(clippy::type_complexity)]
    fn noisy_task(
        classes: usize,
        per_class: usize,
        dim: usize,
        flip: f32,
        rng: &mut Rng,
    ) -> (Vec<(BipolarHv, usize)>, Vec<(BipolarHv, usize)>) {
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, rng)).collect();
        let noisy = |c: usize, rng: &mut Rng| {
            BipolarHv::new(
                prototypes[c]
                    .components()
                    .iter()
                    .map(|&s| if rng.chance(flip) { -s } else { s })
                    .collect(),
            )
        };
        let mut train = Vec::new();
        let mut test = Vec::new();
        for c in 0..classes {
            for _ in 0..per_class {
                train.push((noisy(c, rng), c));
                test.push((noisy(c, rng), c));
            }
        }
        (train, test)
    }

    #[test]
    fn adaptive_training_learns_noisy_prototypes() {
        let mut rng = Rng::new(1);
        let (train, test) = noisy_task(5, 12, 1024, 0.3, &mut rng);
        let mut memory = bundle_init(5, 1024, &train);
        let trainer = OnlineTrainer::new(0.3);
        for _ in 0..6 {
            trainer.epoch(&mut memory, &train);
        }
        let acc = memory.accuracy(&test);
        assert!(acc > 0.85, "OnlineHD-style accuracy {acc}");
    }

    #[test]
    fn confident_correct_samples_barely_move_memory() {
        let mut rng = Rng::new(2);
        let dim = 2048;
        let mut memory = AssociativeMemory::new(2, dim);
        let h = random_hv(dim, &mut rng);
        for _ in 0..20 {
            memory.bundle(0, &h);
        }
        let before: Vec<f32> = memory.class(0).to_vec();
        let trainer = OnlineTrainer::new(1.0);
        assert!(trainer.step(&mut memory, &h, 0));
        let moved: f32 =
            memory.class(0).iter().zip(&before).map(|(a, b)| (a - b).abs()).sum::<f32>()
                / dim as f32;
        assert!(moved < 0.05, "confident sample moved memory by {moved}");
    }

    #[test]
    fn misclassified_samples_push_the_wrong_class_away() {
        let mut rng = Rng::new(3);
        let dim = 1024;
        let mut memory = AssociativeMemory::new(2, dim);
        let h = random_hv(dim, &mut rng);
        memory.bundle(1, &h); // wrongly associated
        let trainer = OnlineTrainer::new(0.8);
        assert!(!trainer.step(&mut memory, &h, 0));
        let sims = memory.similarities(&h);
        assert!(sims[0] > 0.0, "true class not pulled: {sims:?}");
        assert!(sims[1] < 1.0, "wrong class not pushed: {sims:?}");
    }

    #[test]
    fn comparable_to_mass_on_the_same_task() {
        let mut rng = Rng::new(4);
        let (train, test) = noisy_task(4, 10, 512, 0.3, &mut rng);
        let mut online_mem = bundle_init(4, 512, &train);
        let mut mass_mem = online_mem.clone();
        let online = OnlineTrainer::new(0.3);
        let mass = MassTrainer::new(0.3);
        for _ in 0..5 {
            online.epoch(&mut online_mem, &train);
            mass.epoch(&mut mass_mem, &train);
        }
        let a = online_mem.accuracy(&test);
        let b = mass_mem.accuracy(&test);
        assert!((a - b).abs() < 0.2, "online {a} vs mass {b} diverge unreasonably");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_panics() {
        OnlineTrainer::new(0.0);
    }
}
