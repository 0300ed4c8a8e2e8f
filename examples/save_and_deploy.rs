//! Train once, save, reload, and deploy with a quantised class memory —
//! the workflow a downstream user follows to ship an NSHD model to an
//! edge target (the paper's §VI deployment story, end to end).
//!
//! ```sh
//! cargo run --release --example save_and_deploy
//! ```

use nshd::core::{load_pipeline, NshdConfig, NshdModel};
use nshd::data::{normalize_pair, SynthSpec};
use nshd::hdc::{PackedMemory, QuantizedMemory};
use nshd::nn::{fit, Adam, Architecture, TrainConfig};
use nshd::tensor::Rng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let (mut train, mut test) = SynthSpec::synth10(23).with_sizes(300, 120).generate();
    normalize_pair(&mut train, &mut test);

    // --- Train.
    let mut teacher = Architecture::MobileNetV2.build(10, &mut Rng::new(1));
    let mut opt = Adam::new(2e-3, 1e-5);
    fit(
        &mut teacher,
        train.images(),
        train.labels(),
        &mut opt,
        &TrainConfig { epochs: 8, batch_size: 32, seed: 2, ..TrainConfig::default() },
    );
    let cfg = NshdConfig::new(15).with_retrain_epochs(8).with_seed(3);
    let mut model = NshdModel::train(teacher.clone(), &train, cfg.clone());
    println!("trained accuracy: {:.3}", model.evaluate(&test));

    // --- Save. The random projection is reconstructed from its seed, so
    //     the file holds only teacher weights, scaler, manifold, memory.
    let path = "target/nshd_pipeline.bin";
    let mut file = std::fs::File::create(path)?;
    model.save(&mut file)?;
    drop(file);
    let bytes = std::fs::metadata(path)?.len();
    println!("saved {path} ({bytes} bytes)");

    // --- Reload into a fresh process (simulated by a fresh skeleton).
    let file = std::fs::File::open(path)?;
    let restored = load_pipeline(teacher, &train, cfg, std::io::BufReader::new(file))?;
    println!("restored accuracy: {:.3}", restored.evaluate(&test));

    // --- Deployment quantisation (paper §VI-B: "very minor impacts").
    let samples = restored.symbolize_dataset(&test);
    let f32_acc = restored.memory().accuracy(&samples);
    let int8 = QuantizedMemory::from_memory(restored.memory());
    let binary = PackedMemory::from_memory(restored.memory());
    println!("\nclass-memory deployment options:");
    println!("  f32    {:>8} bytes  accuracy {:.3}", restored.memory().param_count() * 4, f32_acc);
    println!("  int8   {:>8} bytes  accuracy {:.3}", int8.size_bytes(), int8.accuracy(&samples));
    println!(
        "  binary {:>8} bytes  accuracy {:.3}",
        binary.size_bytes(),
        binary.accuracy(&samples)
    );
    Ok(())
}
