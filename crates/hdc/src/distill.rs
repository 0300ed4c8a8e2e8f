//! Knowledge-distillation retraining — the paper's Algorithm 1, which
//! extends MASS with soft targets from the uncut CNN teacher.
//!
//! ```text
//! 1: M = [C_0 … C_{k-1}]
//! 2: for hypervector H in training set:
//! 3:     similarity_values = δ(M, H)
//! 4:     soft_pred   = similarity_values / t
//! 5:     soft_labels = softmax(teacher_pred) / t
//! 6:     distilled_updates = soft_labels − soft_pred
//! 7:     U = (1−α) · (one_hot − similarity_values)
//! 8:     U += α · distilled_updates
//! 9:     M ← M + λ Uᵀ H
//! ```

use crate::hypervector::BipolarHv;
use crate::mass::{apply_update, MassTrainer};
use crate::memory::{argmax_last, AssociativeMemory};

/// How the temperature is applied to teacher predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemperatureMode {
    /// The paper's Algorithm 1, literally: `softmax(logits) / t` (line 5)
    /// and `similarities / t` (line 4).
    #[default]
    PaperLiteral,
    /// Classic Hinton distillation: `softmax(logits / t)` with
    /// similarities rescaled into logit range before softening.
    Hinton,
}

/// Hyperparameters of the distillation retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillConfig {
    /// Softening temperature *t* (the paper searches 12–17).
    pub temperature: f32,
    /// Mixing weight α between ground-truth and distilled updates
    /// (the paper searches 0–0.9; α=0 degenerates to MASS).
    pub alpha: f32,
    /// Learning rate λ.
    pub learning_rate: f32,
    /// Temperature application mode.
    pub mode: TemperatureMode,
}

impl Default for DistillConfig {
    fn default() -> Self {
        // The paper's search (§VII-C2) peaks at t ∈ [14, 16], α ∈
        // [0.6, 0.8] — with ImageNet-pretrained teachers far stronger
        // than their students. This reproduction's teachers are trained
        // in-repo and barely out-learn the HD student, so its own sweep
        // (fig9_kd_sweep) favours a milder blend; α defaults to 0.3 and
        // the paper's optimum remains one `with_distill` away.
        DistillConfig {
            temperature: 15.0,
            alpha: 0.3,
            learning_rate: 0.25,
            mode: TemperatureMode::PaperLiteral,
        }
    }
}

/// The distillation retrainer.
#[derive(Debug, Clone, PartialEq)]
pub struct DistillTrainer {
    config: DistillConfig,
    mass: MassTrainer,
}

impl DistillTrainer {
    /// Creates a trainer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`, `alpha ∉ [0, 1]`, or
    /// `learning_rate <= 0`.
    pub fn new(config: DistillConfig) -> Self {
        assert!(config.temperature > 0.0, "temperature must be positive");
        assert!(
            (0.0..=1.0).contains(&config.alpha),
            "alpha must be in [0, 1], got {}",
            config.alpha
        );
        let mass = MassTrainer::new(config.learning_rate);
        DistillTrainer { config, mass }
    }

    /// The active configuration.
    pub fn config(&self) -> &DistillConfig {
        &self.config
    }

    /// Computes the combined update vector `U` of Algorithm 1 lines 3–8
    /// without applying it.
    ///
    /// `teacher_logits` are the uncut CNN's raw prediction-layer outputs
    /// for this sample.
    ///
    /// # Panics
    ///
    /// Panics if `label` or any dimension is out of range, or
    /// `teacher_logits.len() != memory.num_classes()`.
    pub fn update_vector(
        &self,
        memory: &AssociativeMemory,
        hv: &BipolarHv,
        label: usize,
        teacher_logits: &[f32],
    ) -> Vec<f32> {
        let k = memory.num_classes();
        assert_eq!(teacher_logits.len(), k, "teacher logit count mismatch");
        assert!(label < k, "label {label} out of range");
        self.update_from(&memory.similarities(hv), label, teacher_logits)
    }

    /// Lines 4–8 of Algorithm 1 from the similarities `δ(M, H)`.
    fn update_from(&self, sims: &[f32], label: usize, teacher_logits: &[f32]) -> Vec<f32> {
        let k = sims.len();
        let t = self.config.temperature;
        let (soft_labels, soft_pred): (Vec<f32>, Vec<f32>) = match self.config.mode {
            TemperatureMode::PaperLiteral => {
                let sl = softmax(teacher_logits).iter().map(|p| p / t).collect();
                let sp = sims.iter().map(|s| s / t).collect();
                (sl, sp)
            }
            TemperatureMode::Hinton => {
                let scaled: Vec<f32> = teacher_logits.iter().map(|l| l / t).collect();
                let sl = softmax(&scaled);
                // Map similarities ([-1,1]) onto a comparable simplex.
                let sim_scaled: Vec<f32> = sims.iter().map(|s| s * k as f32 / t).collect();
                let sp = softmax(&sim_scaled);
                (sl, sp)
            }
        };
        let mut u = vec![0.0f32; k];
        for c in 0..k {
            let hard = if c == label { 1.0 } else { 0.0 } - sims[c];
            let distilled = soft_labels[c] - soft_pred[c];
            u[c] = (1.0 - self.config.alpha) * hard + self.config.alpha * distilled;
        }
        u
    }

    /// Applies one sample's update (Algorithm 1 line 9). Returns the
    /// class the memory predicted before the update (`argmax δ(M, H)`,
    /// ties to the last maximum) and `U`, both from one similarity
    /// vector.
    ///
    /// # Panics
    ///
    /// Panics if `label` or any dimension is out of range, or
    /// `teacher_logits.len() != memory.num_classes()`.
    pub fn step(
        &self,
        memory: &mut AssociativeMemory,
        hv: &BipolarHv,
        label: usize,
        teacher_logits: &[f32],
    ) -> (usize, Vec<f32>) {
        let k = memory.num_classes();
        assert_eq!(teacher_logits.len(), k, "teacher logit count mismatch");
        assert!(label < k, "label {label} out of range");
        let sims = memory.similarities(hv);
        let u = self.update_from(&sims, label, teacher_logits);
        apply_update(memory, hv, &u, self.config.learning_rate);
        (argmax_last(&sims), u)
    }

    /// One pass over `(hypervector, label, teacher_logits)` triples;
    /// returns the pre-update training accuracy.
    pub fn epoch(
        &self,
        memory: &mut AssociativeMemory,
        samples: &[(BipolarHv, usize, Vec<f32>)],
    ) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(hv, label, logits)| self.step(memory, hv, *label, logits).0 == *label)
            .count();
        correct as f32 / samples.len() as f32
    }
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nshd_tensor::Rng;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
    }

    #[test]
    fn alpha_zero_reduces_to_mass() {
        let mut rng = Rng::new(1);
        let dim = 512;
        let mut mem = AssociativeMemory::new(3, dim);
        let h = random_hv(dim, &mut rng);
        mem.bundle(1, &h);
        let distill = DistillTrainer::new(DistillConfig {
            alpha: 0.0,
            learning_rate: 0.3,
            ..DistillConfig::default()
        });
        let mass = MassTrainer::new(0.3);
        let u_distill = distill.update_vector(&mem, &h, 0, &[5.0, 1.0, 0.0]);
        let u_mass = mass.update_vector(&mem, &h, 0);
        for (a, b) in u_distill.iter().zip(&u_mass) {
            assert!((a - b).abs() < 1e-6, "{u_distill:?} vs {u_mass:?}");
        }
    }

    #[test]
    fn teacher_signal_shifts_update_toward_teacher_distribution() {
        let mut rng = Rng::new(2);
        let dim = 512;
        let mem = AssociativeMemory::new(3, dim);
        let h = random_hv(dim, &mut rng);
        let cfg = DistillConfig { alpha: 1.0, temperature: 2.0, ..DistillConfig::default() };
        let trainer = DistillTrainer::new(cfg);
        // Teacher is confident on class 2: U must favour class 2 over the
        // (ground-truth) class 0 when α = 1.
        let u = trainer.update_vector(&mem, &h, 0, &[0.0, 0.0, 8.0]);
        assert!(u[2] > u[0], "u = {u:?}");
        assert!(u[2] > u[1], "u = {u:?}");
    }

    #[test]
    fn distillation_converges_on_noisy_task() {
        // Teacher logits encode the true label confidently; with α = 0.7
        // retraining must reach high training accuracy.
        let mut rng = Rng::new(3);
        let dim = 1024;
        let classes = 4;
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, &mut rng)).collect();
        let mut samples = Vec::new();
        for c in 0..classes {
            for _ in 0..10 {
                let noisy = BipolarHv::new(
                    prototypes[c]
                        .components()
                        .iter()
                        .map(|&s| if rng.chance(0.3) { -s } else { s })
                        .collect(),
                );
                let mut logits = vec![0.0f32; classes];
                logits[c] = 6.0;
                samples.push((noisy, c, logits));
            }
        }
        let mut mem = AssociativeMemory::new(classes, dim);
        for (hv, label, _) in &samples {
            mem.bundle(*label, hv);
        }
        let trainer = DistillTrainer::new(DistillConfig::default());
        let mut acc = 0.0;
        for _ in 0..8 {
            acc = trainer.epoch(&mut mem, &samples);
        }
        assert!(acc > 0.9, "distillation training accuracy {acc}");
    }

    #[test]
    fn hinton_mode_also_produces_teacher_aligned_updates() {
        let mut rng = Rng::new(4);
        let mem = AssociativeMemory::new(3, 256);
        let h = random_hv(256, &mut rng);
        let trainer = DistillTrainer::new(DistillConfig {
            alpha: 1.0,
            mode: TemperatureMode::Hinton,
            ..DistillConfig::default()
        });
        let u = trainer.update_vector(&mem, &h, 0, &[0.0, 9.0, 0.0]);
        assert!(u[1] > u[0] && u[1] > u[2], "u = {u:?}");
    }

    #[test]
    fn higher_temperature_softens_distilled_updates() {
        let mut rng = Rng::new(5);
        let mem = AssociativeMemory::new(2, 256);
        let h = random_hv(256, &mut rng);
        let make = |t: f32| {
            DistillTrainer::new(DistillConfig {
                alpha: 1.0,
                temperature: t,
                ..DistillConfig::default()
            })
            .update_vector(&mem, &h, 0, &[4.0, -4.0])
        };
        let sharp = make(1.0);
        let soft = make(16.0);
        assert!(soft[0].abs() < sharp[0].abs(), "{soft:?} vs {sharp:?}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        DistillTrainer::new(DistillConfig { alpha: 1.5, ..DistillConfig::default() });
    }

    #[test]
    #[should_panic(expected = "teacher logit count")]
    fn wrong_teacher_width_panics() {
        let mem = AssociativeMemory::new(3, 64);
        let h = BipolarHv::from_signs(&vec![1.0; 64]);
        DistillTrainer::new(DistillConfig::default()).update_vector(&mem, &h, 0, &[1.0, 2.0]);
    }
}
