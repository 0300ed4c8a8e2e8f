//! In-memory labelled image datasets and the `Synth10`/`Synth100`
//! generators.

use crate::image::{CHANNELS, IMAGE_SIZE};
use crate::synth::{render_sample, SynthParams};
use nshd_tensor::{Rng, Tensor};

/// A labelled image dataset held in memory as one `N×3×32×32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageDataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl ImageDataset {
    /// Wraps an image tensor and labels.
    ///
    /// # Panics
    ///
    /// Panics if the batch size and label count disagree, or a label is out
    /// of range.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.dims()[0], labels.len(), "image/label count mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        ImageDataset { images, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The image tensor (`N×3×32×32`).
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// Mutable image tensor (used by normalisation).
    pub fn images_mut(&mut self) -> &mut Tensor {
        &mut self.images
    }

    /// The labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One sample as a `3×32×32` tensor plus its label.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn sample(&self, index: usize) -> (Tensor, usize) {
        (self.images.batch_item(index), self.labels[index])
    }

    /// The CHW images in consecutive batches of at most `size`, each
    /// with its labels: the bounded-memory way to push a whole dataset
    /// through a batched inference path.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = (Vec<Tensor>, &[usize])> + '_ {
        (0..self.len()).step_by(size).map(move |start| {
            let end = (start + size).min(self.len());
            ((start..end).map(|i| self.images.batch_item(i)).collect(), &self.labels[start..end])
        })
    }

    /// A new dataset containing only the first `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn take(&self, n: usize) -> ImageDataset {
        assert!(n <= self.len());
        let items: Vec<Tensor> = (0..n).map(|i| self.images.batch_item(i)).collect();
        let images = if n == 0 {
            Tensor::zeros([0, CHANNELS, IMAGE_SIZE, IMAGE_SIZE])
        } else {
            Tensor::stack(&items).expect("non-empty")
        };
        ImageDataset::new(images, self.labels[..n].to_vec(), self.num_classes)
    }
}

/// Configuration for a synthetic dataset pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Number of classes (10 for `Synth10`, 100 for `Synth100`).
    pub num_classes: usize,
    /// Training samples.
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Seed controlling every random choice.
    pub seed: u64,
    /// Rendering parameters.
    pub params: SynthParams,
}

impl SynthSpec {
    /// A `Synth10` spec at the default experiment scale.
    pub fn synth10(seed: u64) -> Self {
        SynthSpec {
            num_classes: 10,
            train_size: 1500,
            test_size: 400,
            seed,
            params: SynthParams::default(),
        }
    }

    /// A `Synth100` spec (more classes, same pixel budget).
    pub fn synth100(seed: u64) -> Self {
        SynthSpec {
            num_classes: 100,
            train_size: 3000,
            test_size: 800,
            seed,
            params: SynthParams::default(),
        }
    }

    /// Returns a copy with different dataset sizes — the knob tests and
    /// benches use to stay fast.
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Generates the `(train, test)` dataset pair.
    ///
    /// Labels are balanced round-robin so every class appears; the test
    /// stream is independent of the training stream.
    pub fn generate(&self) -> (ImageDataset, ImageDataset) {
        let mut rng = Rng::new(self.seed);
        let mut train_rng = rng.fork(1);
        let mut test_rng = rng.fork(2);
        let train = generate_split(self.num_classes, self.train_size, &self.params, &mut train_rng);
        let test = generate_split(self.num_classes, self.test_size, &self.params, &mut test_rng);
        (train, test)
    }
}

fn generate_split(
    num_classes: usize,
    size: usize,
    params: &SynthParams,
    rng: &mut Rng,
) -> ImageDataset {
    let mut images = Tensor::zeros([size, CHANNELS, IMAGE_SIZE, IMAGE_SIZE]);
    let mut labels = Vec::with_capacity(size);
    let plane = CHANNELS * IMAGE_SIZE * IMAGE_SIZE;
    // Round-robin class assignment, then shuffle order.
    let mut order: Vec<usize> = (0..size).collect();
    rng.shuffle(&mut order);
    for (slot, &i) in order.iter().enumerate() {
        let class = i % num_classes;
        let img = render_sample(class, num_classes, params, rng);
        images.write_slice(slot * plane, img.as_slice());
        labels.push(class);
    }
    // labels currently follow `order`; rebuild to match slots.
    let mut slot_labels = vec![0usize; size];
    for (slot, &i) in order.iter().enumerate() {
        slot_labels[slot] = i % num_classes;
    }
    ImageDataset::new(images, slot_labels, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_balanced_classes() {
        let (train, test) = SynthSpec::synth10(1).with_sizes(100, 40).generate();
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 40);
        let mut counts = vec![0usize; 10];
        for &l in train.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SynthSpec::synth10(9).with_sizes(20, 10).generate();
        let b = SynthSpec::synth10(9).with_sizes(20, 10).generate();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        let c = SynthSpec::synth10(10).with_sizes(20, 10).generate();
        assert_ne!(a.0, c.0);
    }

    #[test]
    fn train_and_test_are_different_samples() {
        let (train, test) = SynthSpec::synth10(3).with_sizes(20, 20).generate();
        assert_ne!(train.images().as_slice(), test.images().as_slice());
    }

    #[test]
    fn sample_and_take() {
        let (train, _) = SynthSpec::synth10(4).with_sizes(12, 4).generate();
        let (img, label) = train.sample(3);
        assert_eq!(img.dims(), &[3, 32, 32]);
        assert!(label < 10);
        let head = train.take(5);
        assert_eq!(head.len(), 5);
        assert_eq!(head.labels(), &train.labels()[..5]);
        assert_eq!(head.sample(2).0, train.sample(2).0);
    }

    #[test]
    fn synth100_has_hundred_classes() {
        let (train, _) = SynthSpec::synth100(5).with_sizes(200, 10).generate();
        assert_eq!(train.num_classes(), 100);
        let distinct: std::collections::HashSet<_> = train.labels().iter().collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn label_count_mismatch_panics() {
        ImageDataset::new(Tensor::zeros([2, 3, 32, 32]), vec![0], 10);
    }
}
