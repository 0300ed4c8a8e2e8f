//! Seeded fault injection for HD memories and hypervectors.
//!
//! The paper's deployment story leans on HD robustness: the ZCU104 path
//! stores sign-binarised hypervectors and Vitis-AI INT8 class memories
//! "with very minor impacts on the prediction quality" (§VI-B). This
//! module makes that claim testable by modelling the corresponding
//! hardware faults — single-event upsets in packed binary words, bit
//! flips in INT8 weight cells, and stuck-at/saturation faults in f32
//! accumulator memory — as reproducible, seeded perturbations.
//!
//! A [`FaultPlan`] is a value: the same `(seed, rate, stream, target
//! shape)` always injects the same faults, so robustness sweeps are
//! exactly repeatable and individual failures can be replayed.
//!
//! # Examples
//!
//! ```
//! use nshd_hdc::{BipolarHv, FaultPlan};
//!
//! let mut hv = BipolarHv::from_signs(&vec![1.0; 256]).to_packed();
//! let plan = FaultPlan::new(7, 0.05);
//! let report = plan.flip_packed(&mut hv, 0);
//! assert_eq!(report.sites, 256);
//! // Injection is deterministic: the same plan on the same input
//! // produces the same faulted words.
//! let mut again = BipolarHv::from_signs(&vec![1.0; 256]).to_packed();
//! plan.flip_packed(&mut again, 0);
//! assert_eq!(hv, again);
//! ```

use crate::hypervector::{BipolarHv, PackedHv};
use crate::memory::AssociativeMemory;
use crate::quantized::{PackedMemory, QuantizedMemory};
use nshd_tensor::Rng;

/// What one injection pass did: how many candidate sites were visited
/// and how many faults actually landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Candidate fault sites examined (bits or cells).
    pub sites: usize,
    /// Faults injected.
    pub faults: usize,
}

impl FaultReport {
    /// Observed fault rate `faults / sites` (0 for an empty target).
    pub fn rate(&self) -> f64 {
        if self.sites == 0 {
            0.0
        } else {
            self.faults as f64 / self.sites as f64
        }
    }
}

/// How an f32 accumulator cell fails under [`FaultPlan::corrupt_associative`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellFault {
    /// Stuck-at-zero: the component is erased.
    Zero,
    /// Saturated high: the component jumps to +max|memory|.
    SaturateHigh,
    /// Saturated low: the component jumps to −max|memory|.
    SaturateLow,
}

/// A seeded, reproducible fault-injection plan.
///
/// Each `inject` method derives its own random stream from
/// `(seed, stream)`, so one plan can corrupt several targets with
/// independent — yet individually replayable — fault patterns. The
/// `rate` is the per-site fault probability (per bit for binary
/// targets, per cell for INT8/f32 targets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f32,
}

impl FaultPlan {
    /// Creates a plan injecting faults at `rate` per site.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    pub fn new(seed: u64, rate: f32) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1], got {rate}");
        FaultPlan { seed, rate }
    }

    /// The per-site fault probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn rng(&self, stream: u64) -> Rng {
        // Mix the stream into the seed the same way `Rng::fork` separates
        // component streams, without consuming plan state.
        Rng::new(self.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xFA17)
    }

    /// Flips each bit of a packed hypervector with probability `rate` —
    /// the single-event-upset model for the FPGA's bit-packed storage.
    pub fn flip_packed(&self, hv: &mut PackedHv, stream: u64) -> FaultReport {
        let mut rng = self.rng(stream);
        let mut report = FaultReport { sites: hv.dim(), faults: 0 };
        for i in 0..hv.dim() {
            if rng.chance(self.rate) {
                hv.flip_bit(i);
                report.faults += 1;
            }
        }
        report
    }

    /// Flips each component's sign in a dense bipolar hypervector with
    /// probability `rate` — query-side corruption for the unpacked paths.
    pub fn flip_bipolar(&self, hv: &mut BipolarHv, stream: u64) -> FaultReport {
        let mut rng = self.rng(stream);
        let mut report = FaultReport { sites: hv.dim(), faults: 0 };
        for i in 0..hv.dim() {
            if rng.chance(self.rate) {
                hv.flip(i);
                report.faults += 1;
            }
        }
        report
    }

    /// Flips bits across every class of a binary class memory — the
    /// deployed-model analog of [`flip_packed`](Self::flip_packed).
    pub fn flip_binary_memory(&self, memory: &mut PackedMemory, stream: u64) -> FaultReport {
        let mut total = FaultReport::default();
        for c in 0..memory.num_classes() {
            let r = self.flip_packed(memory.class_mut(c), stream.wrapping_add(c as u64 + 1));
            total.sites += r.sites;
            total.faults += r.faults;
        }
        total
    }

    /// Perturbs INT8 cells of a quantised class memory: each cell is hit
    /// with probability `rate`, and a hit flips one uniformly chosen bit
    /// of the two's-complement byte — the Vitis-AI DPU weight-memory
    /// upset model.
    pub fn perturb_quantized(&self, memory: &mut QuantizedMemory, stream: u64) -> FaultReport {
        let mut rng = self.rng(stream);
        let mut report = FaultReport::default();
        for c in 0..memory.num_classes() {
            memory.update_class(c, |cells| {
                for cell in cells {
                    report.sites += 1;
                    if rng.chance(self.rate) {
                        let bit = rng.below(8) as u32;
                        *cell = (*cell as u8 ^ (1u8 << bit)) as i8;
                        report.faults += 1;
                    }
                }
            });
        }
        report
    }

    /// Corrupts f32 accumulator cells of an associative memory: each
    /// component is hit with probability `rate`, and a hit either zeroes
    /// it or saturates it to ±max|memory| — the stuck-at / overwrite
    /// model for accumulator RAM.
    pub fn corrupt_associative(&self, memory: &mut AssociativeMemory, stream: u64) -> FaultReport {
        let mut rng = self.rng(stream);
        // Saturation level: the largest magnitude anywhere in the memory
        // (a blown cell jumps to the rail, not to infinity).
        let mut rail = 0.0f32;
        for c in 0..memory.num_classes() {
            for &v in memory.class(c) {
                rail = rail.max(v.abs());
            }
        }
        if rail == 0.0 {
            rail = 1.0;
        }
        let mut report = FaultReport::default();
        for c in 0..memory.num_classes() {
            for cell in memory.class_mut(c) {
                report.sites += 1;
                if rng.chance(self.rate) {
                    let kind = match rng.below(3) {
                        0 => CellFault::Zero,
                        1 => CellFault::SaturateHigh,
                        _ => CellFault::SaturateLow,
                    };
                    *cell = match kind {
                        CellFault::Zero => 0.0,
                        CellFault::SaturateHigh => rail,
                        CellFault::SaturateLow => -rail,
                    };
                    report.faults += 1;
                }
            }
        }
        report
    }
}

impl FaultReport {
    /// Accumulates another pass's sites and faults into this report.
    fn absorb(&mut self, other: FaultReport) {
        self.sites += other.sites;
        self.faults += other.faults;
    }
}

/// An ordered composition of [`FaultPlan`]s — the building block chaos
/// scenarios are assembled from.
///
/// Each step pairs a plan with the stream it injects on, so a scenario
/// like "a burst of SEUs followed by a stuck-at sweep" is one value that
/// can be applied to any memory format, replayed exactly, and shared
/// between the robustness sweep and the serving-tier chaos harness.
/// Steps apply in insertion order; because later steps perturb the
/// output of earlier ones, order is part of the scenario's identity.
///
/// # Examples
///
/// ```
/// use nshd_hdc::{FaultPlan, FaultScenario};
///
/// let scenario = FaultScenario::new()
///     .with(FaultPlan::new(7, 0.02), 1)
///     .with(FaultPlan::new(8, 0.001), 2);
/// assert_eq!(scenario.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScenario {
    steps: Vec<(FaultPlan, u64)>,
}

impl FaultScenario {
    /// An empty scenario (applying it is the identity).
    pub fn new() -> Self {
        FaultScenario::default()
    }

    /// Appends one `(plan, stream)` injection step.
    #[must_use]
    pub fn with(mut self, plan: FaultPlan, stream: u64) -> Self {
        self.steps.push((plan, stream));
        self
    }

    /// Number of injection steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the scenario has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The composed steps, in application order.
    pub fn steps(&self) -> &[(FaultPlan, u64)] {
        &self.steps
    }

    /// Applies every step's [`FaultPlan::corrupt_associative`] in order,
    /// returning the summed report.
    pub fn apply_associative(&self, memory: &mut AssociativeMemory) -> FaultReport {
        let mut total = FaultReport::default();
        for (plan, stream) in &self.steps {
            total.absorb(plan.corrupt_associative(memory, *stream));
        }
        total
    }

    /// Applies every step's [`FaultPlan::perturb_quantized`] in order,
    /// returning the summed report.
    pub fn apply_quantized(&self, memory: &mut QuantizedMemory) -> FaultReport {
        let mut total = FaultReport::default();
        for (plan, stream) in &self.steps {
            total.absorb(plan.perturb_quantized(memory, *stream));
        }
        total
    }

    /// Applies every step's [`FaultPlan::flip_binary_memory`] in order,
    /// returning the summed report.
    pub fn apply_binary(&self, memory: &mut PackedMemory) -> FaultReport {
        let mut total = FaultReport::default();
        for (plan, stream) in &self.steps {
            total.absorb(plan.flip_binary_memory(memory, *stream));
        }
        total
    }

    /// Applies every step's [`FaultPlan::flip_packed`] in order,
    /// returning the summed report.
    pub fn apply_packed(&self, hv: &mut PackedHv) -> FaultReport {
        let mut total = FaultReport::default();
        for (plan, stream) in &self.steps {
            total.absorb(plan.flip_packed(hv, *stream));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
        BipolarHv::new((0..dim).map(|_| if rng.chance(0.5) { 1 } else { -1 }).collect())
    }

    fn trained_memory(classes: usize, dim: usize, seed: u64) -> AssociativeMemory {
        let mut rng = Rng::new(seed);
        let mut mem = AssociativeMemory::new(classes, dim);
        for c in 0..classes {
            for _ in 0..8 {
                mem.bundle(c, &random_hv(dim, &mut rng));
            }
        }
        mem
    }

    #[test]
    fn zero_rate_is_identity_everywhere() {
        let plan = FaultPlan::new(1, 0.0);
        let mut rng = Rng::new(2);
        let mut packed = random_hv(200, &mut rng).to_packed();
        let orig_packed = packed.clone();
        assert_eq!(plan.flip_packed(&mut packed, 0).faults, 0);
        assert_eq!(packed, orig_packed);

        let mem = trained_memory(3, 128, 3);
        let mut f32_mem = mem.clone();
        assert_eq!(plan.corrupt_associative(&mut f32_mem, 0).faults, 0);
        assert_eq!(f32_mem, mem);

        let mut quant = QuantizedMemory::from_memory(&mem);
        let orig_quant = quant.clone();
        assert_eq!(plan.perturb_quantized(&mut quant, 0).faults, 0);
        assert_eq!(quant, orig_quant);

        let mut binary = PackedMemory::from_memory(&mem);
        let orig_binary = binary.clone();
        assert_eq!(plan.flip_binary_memory(&mut binary, 0).faults, 0);
        assert_eq!(binary, orig_binary);
    }

    #[test]
    fn full_rate_flips_every_bit() {
        let plan = FaultPlan::new(5, 1.0);
        let mut rng = Rng::new(6);
        let hv = random_hv(130, &mut rng);
        let mut packed = hv.to_packed();
        let report = plan.flip_packed(&mut packed, 0);
        assert_eq!(report.faults, 130);
        assert_eq!(report.rate(), 1.0);
        // Every sign inverted.
        for i in 0..130 {
            assert_eq!(packed.sign_at(i), -hv.components()[i]);
        }
    }

    #[test]
    fn injection_is_deterministic_per_stream() {
        let plan = FaultPlan::new(11, 0.2);
        let mem = trained_memory(4, 256, 7);

        let mut a = PackedMemory::from_memory(&mem);
        let mut b = PackedMemory::from_memory(&mem);
        let ra = plan.flip_binary_memory(&mut a, 3);
        let rb = plan.flip_binary_memory(&mut b, 3);
        assert_eq!(ra, rb);
        assert_eq!(a, b);

        // A different stream gives a different (but valid) pattern.
        let mut c = PackedMemory::from_memory(&mem);
        plan.flip_binary_memory(&mut c, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::new(13, 0.1);
        let mem = trained_memory(10, 2_000, 8);
        let mut quant = QuantizedMemory::from_memory(&mem);
        let report = plan.perturb_quantized(&mut quant, 0);
        assert_eq!(report.sites, 20_000);
        let observed = report.rate();
        assert!((observed - 0.1).abs() < 0.02, "observed rate {observed}");
    }

    #[test]
    fn corrupt_associative_saturates_to_rail() {
        let plan = FaultPlan::new(17, 0.5);
        let mut mem = trained_memory(3, 512, 9);
        let rail = mem
            .class(0)
            .iter()
            .chain(mem.class(1))
            .chain(mem.class(2))
            .fold(0.0f32, |m, v| m.max(v.abs()));
        plan.corrupt_associative(&mut mem, 0);
        assert!(mem.is_finite());
        for c in 0..3 {
            for &v in mem.class(c) {
                assert!(v.abs() <= rail, "component {v} beyond rail {rail}");
            }
        }
    }

    #[test]
    fn packed_padding_survives_injection() {
        // dim = 70 leaves 58 padding bits in the last word; the invariant
        // checked by PackedHv::new must hold after heavy injection.
        let plan = FaultPlan::new(19, 0.9);
        let mut rng = Rng::new(10);
        let mut packed = random_hv(70, &mut rng).to_packed();
        plan.flip_packed(&mut packed, 0);
        let _ = PackedHv::new(packed.words().to_vec(), 70);
    }

    #[test]
    fn moderate_faults_degrade_accuracy_gracefully() {
        // A well-trained binary memory keeps most of its accuracy at a 2%
        // bit-flip rate and does not panic even at 30%.
        let mut rng = Rng::new(20);
        let dim = 4_096;
        let classes = 5;
        let prototypes: Vec<BipolarHv> = (0..classes).map(|_| random_hv(dim, &mut rng)).collect();
        let mut mem = AssociativeMemory::new(classes, dim);
        let mut test = Vec::new();
        for (c, proto) in prototypes.iter().enumerate() {
            for _ in 0..6 {
                let noisy = BipolarHv::new(
                    proto
                        .components()
                        .iter()
                        .map(|&s| if rng.chance(0.2) { -s } else { s })
                        .collect(),
                );
                mem.bundle(c, &noisy);
                test.push((noisy, c));
            }
        }
        let clean = PackedMemory::from_memory(&mem);
        let clean_acc = clean.accuracy(&test);
        assert!(clean_acc > 0.9, "clean accuracy {clean_acc}");

        let mut light = clean.clone();
        FaultPlan::new(21, 0.02).flip_binary_memory(&mut light, 0);
        let light_acc = light.accuracy(&test);
        assert!(light_acc > clean_acc - 0.15, "2% flips collapsed accuracy to {light_acc}");

        let mut heavy = clean.clone();
        FaultPlan::new(22, 0.3).flip_binary_memory(&mut heavy, 0);
        let heavy_acc = heavy.accuracy(&test);
        // No panic, and a valid accuracy either way.
        assert!((0.0..=1.0).contains(&heavy_acc));
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn out_of_range_rate_panics() {
        FaultPlan::new(1, 1.5);
    }

    #[test]
    fn empty_scenario_is_identity() {
        let scenario = FaultScenario::new();
        assert!(scenario.is_empty());
        let mut mem = trained_memory(3, 128, 31);
        let orig = mem.clone();
        assert_eq!(scenario.apply_associative(&mut mem), FaultReport::default());
        assert_eq!(mem, orig);
    }

    #[test]
    fn composed_scenario_equals_sequential_application() {
        let p1 = FaultPlan::new(41, 0.05);
        let p2 = FaultPlan::new(42, 0.02);
        let scenario = FaultScenario::new().with(p1, 1).with(p2, 2);
        assert_eq!(scenario.len(), 2);
        assert_eq!(scenario.steps().len(), 2);

        let base = trained_memory(4, 256, 33);
        // By hand, in the same order.
        let mut manual = base.clone();
        let mut expect = p1.corrupt_associative(&mut manual, 1);
        expect.absorb(p2.corrupt_associative(&mut manual, 2));
        // Through the scenario.
        let mut composed = base.clone();
        let report = scenario.apply_associative(&mut composed);
        assert_eq!(report, expect);
        assert_eq!(composed, manual);

        // Deterministic: a replay lands the identical faults.
        let mut replay = base.clone();
        scenario.apply_associative(&mut replay);
        assert_eq!(replay, composed);

        // Order matters and is preserved: the reversed scenario differs.
        let reversed = FaultScenario::new().with(p2, 2).with(p1, 1);
        let mut swapped = base.clone();
        reversed.apply_associative(&mut swapped);
        assert_ne!(swapped, composed);
    }

    #[test]
    fn scenario_covers_every_memory_format() {
        let scenario =
            FaultScenario::new().with(FaultPlan::new(51, 0.1), 1).with(FaultPlan::new(52, 0.05), 2);
        let mem = trained_memory(3, 192, 35);

        let mut quant = QuantizedMemory::from_memory(&mem);
        let qr = scenario.apply_quantized(&mut quant);
        assert_eq!(qr.sites, 2 * 3 * 192);
        assert!(qr.faults > 0);

        let mut binary = PackedMemory::from_memory(&mem);
        let br = scenario.apply_binary(&mut binary);
        assert_eq!(br.sites, 2 * 3 * 192);
        assert!(br.faults > 0);

        let mut packed = random_hv(192, &mut Rng::new(36)).to_packed();
        let pr = scenario.apply_packed(&mut packed);
        assert_eq!(pr.sites, 2 * 192);
        // Padding bits stay clean through composed injection.
        let _ = PackedHv::new(packed.words().to_vec(), 192);
        assert!(pr.faults > 0);
    }
}
