//! Property tests for the quantised batch scoring GEMMs.
//!
//! The claims under test, over seeded bipolar inputs:
//!
//! 1. **Batch == pointwise, bitwise.** `similarities_batch` reproduces
//!    the pointwise `similarities` to `to_bits` equality for both
//!    [`PackedMemory`] (XNOR+popcount tiles) and [`QuantizedMemory`]
//!    (mask-and-add over `i16` blocks with cached norms and row sums,
//!    checked against the plain `i64` reference loop on faulted `-128`
//!    cells, all-zero classes, ragged and many-block `D`), at 1 and 4
//!    threads.
//! 2. **Popcount ranking == dense ranking.** For ±1 class memories, the
//!    packed/INT8/dense batch argmaxes are the same function — including
//!    tie rows, which every backend resolves to the *last* maximum (the
//!    documented tie-break rule).

use nshd_hdc::{
    AssociativeMemory, BipolarHv, FaultPlan, FaultScenario, PackedHv, PackedMemory,
    QuantizedMemory, ScoringBackend, ScoringMode,
};
use nshd_tensor::{par, Rng};

fn random_hv(dim: usize, rng: &mut Rng) -> BipolarHv {
    BipolarHv::new((0..dim).map(|_| if rng.bipolar() > 0.0 { 1 } else { -1 }).collect())
}

/// A ±1 class memory with a deliberate duplicate pair (classes 1 and
/// `k-1`) so max-score ties genuinely occur.
fn bipolar_memory(classes: usize, dim: usize, rng: &mut Rng) -> AssociativeMemory {
    assert!(classes >= 3);
    let mut rows: Vec<Vec<f32>> = (0..classes - 1).map(|_| random_hv(dim, rng).to_f32()).collect();
    rows.push(rows[1].clone());
    AssociativeMemory::from_classes(rows)
}

#[test]
fn packed_batch_scores_match_pointwise_bitwise() {
    let mut rng = Rng::new(7);
    for &(classes, dim, n) in &[(3usize, 64usize, 1usize), (6, 256, 9), (10, 515, 33)] {
        let memory = bipolar_memory(classes, dim, &mut rng);
        let packed = PackedMemory::from_memory(&memory);
        let queries: Vec<PackedHv> = (0..n).map(|_| random_hv(dim, &mut rng).to_packed()).collect();
        for threads in [1usize, 4] {
            let batch = par::with_threads(threads, || packed.similarities_batch(&queries));
            assert_eq!(batch.dims(), &[n, classes]);
            for (i, q) in queries.iter().enumerate() {
                let pointwise = packed.similarities(q);
                for (j, want) in pointwise.iter().enumerate() {
                    let got = batch.as_slice()[i * classes + j];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "query {i} class {j} threads {threads}: {got} vs {want}"
                    );
                }
            }
        }
    }
}

/// Asserts INT8 batch scores equal the pointwise reference loop
/// (`QuantizedMemory::similarities` on the bipolar form) bit for bit,
/// serially and across 4 workers.
fn assert_int8_batch_is_pointwise(quant: &QuantizedMemory, queries: &[PackedHv], case: &str) {
    let classes = quant.num_classes();
    for threads in [1usize, 4] {
        let batch = par::with_threads(threads, || quant.similarities_batch(queries));
        assert_eq!(batch.dims(), &[queries.len(), classes], "{case}");
        for (i, q) in queries.iter().enumerate() {
            let pointwise = quant.similarities(&q.to_bipolar());
            for (j, want) in pointwise.iter().enumerate() {
                let got = batch.as_slice()[i * classes + j];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{case}: query {i} class {j} threads {threads}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn int8_batch_scores_match_pointwise_bitwise() {
    let mut rng = Rng::new(11);
    // Mix ±1 memories with bundled (non-bipolar) ones so the cached
    // norms see non-trivial scales; D = 300 and 3000 are multiples of
    // neither 64 nor the 256-cell block.
    for &(classes, dim, n, bundled) in &[
        (4usize, 128usize, 5usize, false),
        (7, 300, 17, true),
        (3, 96, 2, true),
        (100, 3_000, 3, true),
    ] {
        let mut memory = bipolar_memory(classes, dim, &mut rng);
        if bundled {
            for c in 0..classes {
                let extra = random_hv(dim, &mut rng);
                memory.bundle(c, &extra);
                let extra2 = random_hv(dim, &mut rng);
                memory.bundle(c, &extra2);
            }
        }
        let quant = QuantizedMemory::from_memory(&memory);
        let queries: Vec<PackedHv> = (0..n).map(|_| random_hv(dim, &mut rng).to_packed()).collect();
        assert_int8_batch_is_pointwise(&quant, &queries, &format!("k{classes} d{dim}"));
    }
}

#[test]
fn int8_batch_is_exact_on_faulted_zero_and_many_block_memories() {
    let mut rng = Rng::new(13);
    // D = 10_007: 39 full blocks plus a ragged 23-cell block and a
    // ragged last word (10_007 % 64 = 23).
    for dim in [1usize, 63, 255, 257, 515, 10_007] {
        let mut memory = bipolar_memory(5, dim, &mut rng);
        for c in 0..4 {
            let extra = random_hv(dim, &mut rng);
            memory.bundle(c, &extra);
        }
        // Class 2 stays all zero: scale 1.0, norm 0, score 0.0.
        memory.class_mut(2).fill(0.0);
        let mut quant = QuantizedMemory::from_memory(&memory);
        assert!(quant.class(2).iter().all(|&c| c == 0));
        // Heavy upsets flip sign bits, producing -128 cells the
        // quantiser never writes.
        FaultPlan::new(5, 0.3).perturb_quantized(&mut quant, 1);
        quant.update_class(2, |cells| cells.fill(0));
        // Class 0 hits the extreme block sums: every cell -128, so an
        // all-ones query sums exactly -128 per cell.
        quant.update_class(0, |cells| cells.fill(-128));
        if dim >= 255 {
            let faulted_min = [1, 3, 4].iter().any(|&c| quant.class(c).contains(&-128));
            assert!(faulted_min, "d{dim}: faults must reach -128");
        }
        let mut queries: Vec<PackedHv> =
            (0..6).map(|_| random_hv(dim, &mut rng).to_packed()).collect();
        queries.push(BipolarHv::new(vec![1; dim]).to_packed());
        queries.push(BipolarHv::new(vec![-1; dim]).to_packed());
        assert_int8_batch_is_pointwise(&quant, &queries, &format!("faulted d{dim}"));
        let batch = quant.similarities_batch(&queries);
        assert!(batch.as_slice().chunks(5).all(|row| row[2] == 0.0), "zero class scores 0");
    }
}

#[test]
fn int8_cache_follows_every_class_update() {
    let mut rng = Rng::new(17);
    let dim = 700;
    let memory = bipolar_memory(4, dim, &mut rng);
    let queries: Vec<PackedHv> = (0..5).map(|_| random_hv(dim, &mut rng).to_packed()).collect();
    let mut quant = QuantizedMemory::from_memory(&memory);
    let clean = quant.clone();
    // A zero-rate plan rewrites nothing, and equality ignores the cache.
    FaultPlan::new(9, 0.0).perturb_quantized(&mut quant, 0);
    assert_eq!(quant, clean);
    // Edits through `update_class` move batch scores exactly as they
    // move the pointwise reference, which recomputes norms per call.
    quant.update_class(1, |cells| cells.iter_mut().take(100).for_each(|c| *c = c.wrapping_neg()));
    assert_ne!(quant, clean);
    assert_int8_batch_is_pointwise(&quant, &queries, "after update_class");
    FaultScenario::new().with(FaultPlan::new(3, 0.05), 2).apply_quantized(&mut quant);
    assert_int8_batch_is_pointwise(&quant, &queries, "after a fault scenario");
}

#[test]
fn popcount_ranking_agrees_with_dense_argmax_on_bipolar_memories() {
    let mut rng = Rng::new(23);
    for &(classes, dim, n) in &[(5usize, 256usize, 40usize), (8, 512, 64)] {
        let memory = bipolar_memory(classes, dim, &mut rng);
        let hvs: Vec<BipolarHv> = (0..n).map(|_| random_hv(dim, &mut rng)).collect();
        let queries: Vec<nshd_hdc::QueryHv> =
            hvs.iter().map(|h| nshd_hdc::QueryHv::Bipolar(h.clone())).collect();
        let dense = ScoringBackend::Dense.predict_queries(&memory, &queries);
        // Sanity: the dense batch path matches the dense pointwise path.
        for (hv, &pred) in hvs.iter().zip(&dense) {
            assert_eq!(memory.predict(hv), pred);
        }
        for mode in [ScoringMode::Packed, ScoringMode::Int8] {
            let backend = ScoringBackend::build(&memory, mode);
            let pred = backend.predict_queries(&memory, &queries);
            assert_eq!(pred, dense, "{} ranking diverged from dense", mode.name());
        }
    }
}

#[test]
fn tie_rows_resolve_to_last_maximum_everywhere() {
    let mut rng = Rng::new(41);
    let (classes, dim) = (6usize, 192usize);
    let memory = bipolar_memory(classes, dim, &mut rng);
    // Class 1 and class `classes-1` are identical rows, so a query equal
    // to that shared prototype maximises both similarities with exactly
    // equal scores. The documented rule — last maximum — must pick the
    // higher index in every backend, batch and pointwise alike.
    let proto = BipolarHv::from_signs(memory.class(1));
    assert_eq!(memory.class(1), memory.class(classes - 1), "test premise: duplicate rows");
    let tie_queries = vec![nshd_hdc::QueryHv::Bipolar(proto.clone())];
    assert_eq!(memory.predict(&proto), classes - 1);
    for mode in [ScoringMode::Dense, ScoringMode::Int8, ScoringMode::Packed] {
        let backend = ScoringBackend::build(&memory, mode);
        assert_eq!(
            backend.predict_queries(&memory, &tie_queries),
            vec![classes - 1],
            "{} must resolve the tie to the last maximum",
            mode.name()
        );
    }
    // Pointwise quantised predictors follow the same rule.
    let quant = QuantizedMemory::from_memory(&memory);
    assert_eq!(quant.predict(&proto), classes - 1);
    let packed = PackedMemory::from_memory(&memory);
    assert_eq!(packed.predict(&proto.to_packed()), classes - 1);
}

#[test]
fn empty_batches_and_single_queries_are_well_formed() {
    let mut rng = Rng::new(53);
    let memory = bipolar_memory(3, 128, &mut rng);
    let packed = PackedMemory::from_memory(&memory);
    let quant = QuantizedMemory::from_memory(&memory);
    assert_eq!(packed.similarities_batch(&[]).dims(), &[0, 3]);
    assert_eq!(quant.similarities_batch(&[]).dims(), &[0, 3]);
    assert_eq!(packed.predict_batch(&[]), Vec::<usize>::new());
    assert_eq!(quant.predict_batch(&[]), Vec::<usize>::new());
    let q = random_hv(128, &mut rng);
    assert_eq!(packed.predict_batch(&[q.to_packed()]), vec![packed.predict(&q.to_packed())]);
    assert_eq!(quant.predict_batch(&[q.to_packed()]), vec![quant.predict(&q)]);
}

#[test]
fn non_finite_rows_predict_the_same_pointwise_and_batch() {
    let mut rng = Rng::new(61);
    let mut memory = bipolar_memory(4, 96, &mut rng);
    // A blown-up class row: the dense and INT8 scores for class 1 go
    // NaN, which pointwise and batch predictors must treat alike.
    memory.class_mut(1)[5] = f32::INFINITY;
    let quant = QuantizedMemory::from_memory(&memory);
    let packed = PackedMemory::from_memory(&memory);
    let queries: Vec<BipolarHv> = (0..9).map(|_| random_hv(96, &mut rng)).collect();
    let pointwise: Vec<usize> = queries.iter().map(|q| memory.predict(q)).collect();
    assert_eq!(pointwise, memory.predict_batch(&queries));
    let packed_queries: Vec<PackedHv> = queries.iter().map(BipolarHv::to_packed).collect();
    let pointwise: Vec<usize> = queries.iter().map(|q| quant.predict(q)).collect();
    assert_eq!(pointwise, quant.predict_batch(&packed_queries));
    let pointwise: Vec<usize> = packed_queries.iter().map(|q| packed.predict(q)).collect();
    assert_eq!(pointwise, packed.predict_batch(&packed_queries));
}
