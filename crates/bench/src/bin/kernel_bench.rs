//! Kernel-level benchmark: serial vs row-parallel compute kernels.
//!
//! Measures achieved GFLOP/s of every parallelized hot kernel — the
//! GEMM family (`matmul`, `matmul_bt`, `matmul_at`), conv2d forward
//! (im2col + GEMM), the served extractor's depthwise and 1×1 convs at a
//! batch of one, the batched HD encode, and the quantised scoring
//! kernels (`packed_score` XNOR+popcount, `int8_score` mask-and-add
//! GEMM) — once with one thread and once with the full worker set
//! (`par::with_threads`), over a size grid. Every pair of runs is
//! checked **bit-identical** (`to_bits` equality), the determinism
//! contract of `nshd_tensor::par`; the GEMM SIMD micro-kernels are
//! additionally cross-checked bitwise against the scalar reference.
//!
//! Emits one JSON object on stdout with the per-kernel × size grid
//! (serial GFLOP/s, parallel GFLOP/s, speedup, bitwise equality) plus
//! the full `nshd-obs/v1` trace report, and writes the same document to
//! `BENCH_kernels.json` at the repository root.
//!
//! `--smoke` runs a down-sized grid and exits non-zero if any parallel
//! output differs from serial, the report is malformed, or — on a
//! machine with more than one core — no GEMM speedup above 1.0× is
//! measured. On a single-core machine the speedup gate is skipped and
//! the report carries `"single_core_fallback": true` (spawning workers
//! on one core can only time-slice it).
//!
//! Flags: `--threads N` (parallel worker count, default 4),
//! `--smoke`.

use nshd_bench::Scale;
use nshd_hdc::{
    AssociativeMemory, BipolarHv, PackedHv, PackedMemory, QuantizedMemory, RandomProjection,
};
use nshd_nn::{Conv2d, DepthwiseConv2d, Layer};
use nshd_obs::{clock, Json, Recorder};
use nshd_tensor::{matmul, matmul_at, matmul_bt, par, Rng, Tensor};
use std::hint::black_box;
use std::path::Path;

struct Args {
    threads: usize,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args { threads: 4, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .unwrap_or_else(|| panic!("--threads expects a positive number"));
            }
            "--smoke" => args.smoke = true,
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// One measured kernel × size cell.
struct Cell {
    kernel: &'static str,
    shape: String,
    flops: u64,
    serial_gflops: f64,
    parallel_gflops: f64,
    bit_identical: bool,
}

impl Cell {
    fn speedup(&self) -> f64 {
        if self.serial_gflops > 0.0 {
            self.parallel_gflops / self.serial_gflops
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::str(self.kernel)),
            ("shape", Json::str(self.shape.clone())),
            ("flops", Json::from(self.flops)),
            ("serial_gflops", Json::fixed(self.serial_gflops, 3)),
            ("parallel_gflops", Json::fixed(self.parallel_gflops, 3)),
            ("speedup", Json::fixed(self.speedup(), 2)),
            ("bit_identical", Json::from(self.bit_identical)),
        ])
    }
}

/// Times `reps` calls of `f` (after one warm-up call) and returns the
/// achieved GFLOP/s.
fn time_gflops(flops_per_rep: u64, reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and allocator
    let t = clock::now();
    for _ in 0..reps {
        f();
    }
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    (flops_per_rep as f64 * reps as f64) / secs / 1e9
}

/// Repetition count targeting roughly `budget` FLOPs of total work per
/// measured configuration, so small and large sizes get comparable
/// measurement time.
fn reps_for(flops: u64, budget: u64) -> usize {
    ((budget / flops.max(1)).clamp(1, 64)) as usize
}

/// Measures one kernel at one size: serial vs `threads`-wide parallel,
/// with a bitwise comparison of the two outputs.
fn measure(
    kernel: &'static str,
    shape: String,
    flops: u64,
    reps: usize,
    threads: usize,
    run: impl Fn() -> Tensor,
) -> Cell {
    let serial_out = par::with_threads(1, &run);
    let parallel_out = par::with_threads(threads, &run);
    let bit_identical = serial_out.as_slice().len() == parallel_out.as_slice().len()
        && serial_out
            .as_slice()
            .iter()
            .zip(parallel_out.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let serial_gflops = par::with_threads(1, || {
        time_gflops(flops, reps, || {
            black_box(run());
        })
    });
    let parallel_gflops = par::with_threads(threads, || {
        time_gflops(flops, reps, || {
            black_box(run());
        })
    });
    eprintln!(
        "[kernel_bench] {kernel:<9} {shape:<18} serial {serial_gflops:7.3} GFLOP/s | \
         x{threads} {parallel_gflops:7.3} GFLOP/s | bitwise {}",
        if bit_identical { "ok" } else { "MISMATCH" }
    );
    Cell { kernel, shape, flops, serial_gflops, parallel_gflops, bit_identical }
}

fn rand_tensor(shape: [usize; 2], rng: &mut Rng) -> Tensor {
    Tensor::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
}

fn main() {
    let scale = Scale::from_env();
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let single_core_fallback = cores <= 1;

    // Size grids. Smoke stays just past the parallel threshold so the
    // gate is fast; quick/full include the >=256 square sizes the
    // acceptance criteria call for.
    let (gemm_sizes, budget, conv_batch, conv_hw, encode_batch, hv_dim): (
        &[usize],
        u64,
        usize,
        usize,
        usize,
        usize,
    ) = if args.smoke {
        (&[96, 160], 200_000_000, 4, 16, 16, 1_024)
    } else {
        match scale {
            Scale::Quick => (&[128, 256, 384], 600_000_000, 8, 32, 32, 2_048),
            Scale::Full => (&[128, 256, 512], 2_000_000_000, 16, 32, 64, 4_096),
        }
    };

    let recorder = Recorder::new();
    let previous = nshd_obs::install(recorder.clone());
    let mut rng = Rng::new(97);
    let mut cells: Vec<Cell> = Vec::new();

    // GEMM family on square sizes.
    for &s in gemm_sizes {
        let flops = 2 * (s as u64).pow(3);
        let reps = reps_for(flops, budget);
        let a = rand_tensor([s, s], &mut rng);
        let b = rand_tensor([s, s], &mut rng);
        cells.push(measure("matmul", format!("{s}x{s}x{s}"), flops, reps, args.threads, || {
            matmul(&a, &b)
        }));
        cells.push(measure("matmul_bt", format!("{s}x{s}x{s}"), flops, reps, args.threads, || {
            matmul_bt(&a, &b)
        }));
        cells.push(measure("matmul_at", format!("{s}x{s}x{s}"), flops, reps, args.threads, || {
            matmul_at(&a, &b)
        }));
    }

    // Conv2d forward: im2col + GEMM + bias scatter, batched.
    {
        let conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        let x =
            Tensor::from_fn([conv_batch, 3, conv_hw, conv_hw], |i| ((i % 97) as f32 - 48.0) / 48.0);
        let flops = 2 * conv.macs(&[3, conv_hw, conv_hw]) * conv_batch as u64;
        let reps = reps_for(flops, budget / 2);
        let shape = format!("n{conv_batch}c3@{conv_hw}x{conv_hw}");
        cells.push(measure("conv2d", shape, flops, reps, args.threads, || conv.infer(&x)));
    }

    // The served MobileNetV2 analog's eval layers at a batch of one:
    // depthwise 3×3 at its widest stride-1 and stride-2 shapes and a
    // deep stride-1 shape, and an expanding 1×1 conv (the N = 1 lowering
    // that skips the batch interleave).
    for (c, hw, stride) in [(48, 32, 1), (48, 32, 2), (72, 8, 1)] {
        let dw = DepthwiseConv2d::new(c, 3, stride, 1, &mut rng);
        let x = Tensor::from_fn([1, c, hw, hw], |i| ((i % 89) as f32 - 44.0) / 44.0);
        let flops = 2 * dw.macs(&[c, hw, hw]);
        let reps = reps_for(flops, budget / 2);
        let shape = format!("n1c{c}@{hw}x{hw}s{stride}");
        cells.push(measure("dwconv", shape, flops, reps, args.threads, || dw.infer(&x)));
    }
    {
        let conv = Conv2d::new(8, 48, 1, 1, 0, &mut rng);
        let x = Tensor::from_fn([1, 8, 32, 32], |i| ((i % 83) as f32 - 41.0) / 41.0);
        let flops = 2 * conv.macs(&[8, 32, 32]);
        let reps = reps_for(flops, budget / 2);
        cells.push(measure("conv1x1", "n1c8→48@32x32".into(), flops, reps, args.threads, || {
            conv.infer(&x)
        }));
    }

    // Batched HD encode: values · basis GEMM.
    {
        let features = 4 * (conv_hw / 2) * (conv_hw / 2);
        let proj = RandomProjection::new(features, hv_dim, 23);
        let enc = proj.batch_encoder();
        let values = rand_tensor([encode_batch, features], &mut rng);
        let flops = 2 * (encode_batch * features * hv_dim) as u64;
        let reps = reps_for(flops, budget / 2);
        let shape = format!("n{encode_batch}f{features}d{hv_dim}");
        cells.push(measure("hd_encode", shape, flops, reps, args.threads, || {
            enc.encode_raw_batch(&values)
        }));
    }

    // Quantised batch scoring: the XNOR+popcount packed kernel and the
    // mask-and-add INT8 GEMM serving bit-packed wire requests, at a
    // batch shape and at the served `hd_query` shape (one query, 100
    // classes, D=3000). FLOPs are counted as the equivalent dense
    // multiply-accumulates (2·n·k·D), so the packed row's GFLOP/s
    // directly shows the popcount compression win.
    let batch_shape = if args.smoke { (10usize, 64usize, hv_dim) } else { (10, 256, hv_dim) };
    for (classes, n, dim) in [batch_shape, (100, 1, 3_000)] {
        let rand_hv = |rng: &mut Rng| -> BipolarHv {
            BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
        };
        let rows: Vec<Vec<f32>> = (0..classes).map(|_| rand_hv(&mut rng).to_f32()).collect();
        let memory = AssociativeMemory::from_classes(rows);
        let packed_mem = PackedMemory::from_memory(&memory);
        let quant = QuantizedMemory::from_memory(&memory);
        let queries: Vec<PackedHv> = (0..n).map(|_| rand_hv(&mut rng).to_packed()).collect();
        let flops = 2 * (n * classes * dim) as u64;
        let reps = reps_for(flops, budget / 2);
        let shape = format!("n{n}k{classes}d{dim}");
        cells.push(measure("packed_score", shape.clone(), flops, reps, args.threads, || {
            packed_mem.similarities_batch(&queries)
        }));
        cells.push(measure("int8_score", shape, flops, reps, args.threads, || {
            quant.similarities_batch(&queries)
        }));
    }

    // SIMD micro-kernels vs the scalar reference: one whole-matrix
    // cross-check at the largest GEMM size (the tensor crate's
    // conformance suite covers the ragged shape grid; this pins the
    // bench's own sizes and records the result in the report).
    let simd_scalar_bit_identical = {
        let s = *gemm_sizes.last().expect("grid is never empty");
        let a = rand_tensor([s, s], &mut rng);
        let b = rand_tensor([s, s], &mut rng);
        let was_enabled = nshd_tensor::simd_enabled();
        let with_simd = matmul(&a, &b);
        nshd_tensor::set_simd_enabled(false);
        let scalar = matmul(&a, &b);
        nshd_tensor::set_simd_enabled(was_enabled);
        with_simd.as_slice().iter().zip(scalar.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    };

    nshd_obs::install(previous);
    let report = recorder.report();

    let all_bit_identical = cells.iter().all(|c| c.bit_identical);
    let best_gemm_speedup = cells
        .iter()
        .filter(|c| c.kernel.starts_with("matmul"))
        .map(Cell::speedup)
        .fold(0.0f64, f64::max);

    let doc = Json::obj(vec![
        (
            "scale",
            Json::str(match (args.smoke, scale) {
                (true, _) => "smoke",
                (false, Scale::Quick) => "quick",
                (false, Scale::Full) => "full",
            }),
        ),
        ("threads", Json::from(args.threads)),
        ("cores", Json::from(cores)),
        ("single_core_fallback", Json::from(single_core_fallback)),
        ("simd", Json::from(nshd_tensor::simd_enabled())),
        ("simd_scalar_bit_identical", Json::from(simd_scalar_bit_identical)),
        ("all_bit_identical", Json::from(all_bit_identical)),
        ("best_gemm_speedup", Json::fixed(best_gemm_speedup, 2)),
        ("kernels", Json::arr(cells.iter().map(Cell::to_json))),
        ("trace", report.to_json()),
    ]);
    let json = doc.to_string();
    println!("{json}");

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_kernels.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_kernels.json");
    eprintln!("[kernel_bench] wrote {}", out.display());

    assert!(
        all_bit_identical,
        "parallel kernel output diverged bitwise from serial — determinism contract broken"
    );
    assert!(
        simd_scalar_bit_identical,
        "SIMD micro-kernel output diverged bitwise from the scalar reference"
    );
    if args.smoke {
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in
            ["\"kernels\":[", "\"serial_gflops\":", "\"speedup\":", "\"schema\":\"nshd-obs/v1\""]
        {
            assert!(json.contains(key), "smoke report missing {key}");
        }
        // The trace must show per-worker `par` child spans rolling up
        // under the kernel spans (parallel runs record them).
        assert!(
            report.find("matmul/par").is_some(),
            "trace missing matmul/par worker spans — parallel path never engaged"
        );
        if single_core_fallback {
            eprintln!(
                "[kernel_bench] single core available: speedup gate skipped \
                 (parallel == serial correctness still enforced)"
            );
        } else {
            assert!(
                best_gemm_speedup > 1.0,
                "no GEMM speedup on a {cores}-core machine (best {best_gemm_speedup:.2}x)"
            );
        }
        eprintln!("[kernel_bench] smoke OK");
    }
}
