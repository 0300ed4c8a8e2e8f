//! Ablation — deployment quantisation of the trained class memory:
//! f32 vs INT8 (the paper's Vitis-AI path, §VI-B: "very minor impacts on
//! the prediction quality") vs fully binary (the GPGPU constant-memory
//! representation).

use nshd_bench::{print_header, print_row, Bench};
use nshd_core::{NshdConfig, NshdModel};
use nshd_hdc::{PackedMemory, QuantizedMemory};
use nshd_nn::Architecture;

fn main() {
    let bench = Bench::synth10(101);
    let arch = Architecture::EfficientNetB0;
    let cut = 8;
    let (teacher, cnn_acc) = bench.train_teacher(arch, 7);
    println!("# Ablation — class-memory quantisation, {} layer {}, Synth10", arch, cut - 1);
    println!("CNN (teacher) accuracy: {cnn_acc:.4}\n");

    let cfg = NshdConfig::new(cut).with_retrain_epochs(bench.scale.retrain_epochs()).with_seed(72);
    let model = NshdModel::train(teacher, &bench.train, cfg);
    let samples = model.symbolize_dataset(&bench.test);

    let f32_acc = model.memory().accuracy(&samples);
    let f32_bytes = (model.memory().param_count() * 4) as u64;
    let quant = QuantizedMemory::from_memory(model.memory());
    let binary = PackedMemory::from_memory(model.memory());

    let widths = [10usize, 10, 12, 10];
    print_header(&["memory", "accuracy", "bytes", "Δacc"], &widths);
    print_row(
        &["f32".into(), format!("{f32_acc:.4}"), format!("{f32_bytes}"), "—".into()],
        &widths,
    );
    print_row(
        &[
            "int8".into(),
            format!("{:.4}", quant.accuracy(&samples)),
            format!("{}", quant.size_bytes()),
            format!("{:+.4}", quant.accuracy(&samples) - f32_acc),
        ],
        &widths,
    );
    print_row(
        &[
            "binary".into(),
            format!("{:.4}", binary.accuracy(&samples)),
            format!("{}", binary.size_bytes()),
            format!("{:+.4}", binary.accuracy(&samples) - f32_acc),
        ],
        &widths,
    );
    println!();
    println!("# Expectation (paper §VI-B): INT8 within noise of f32; binary within a");
    println!("# few points while shrinking the memory 32×.");
}
