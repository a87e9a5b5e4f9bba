//! The GPU stream pipeline must agree with the CPU reference morphology on
//! arbitrary cubes — this is the core correctness contract of the paper's
//! port ("the desired performance at the quality required").

use hyperspec::amc::cpu;
use hyperspec::amc::fleet::DeviceFleet;
use hyperspec::amc::pipeline::{GpuAmc, KernelMode, PipelineOutput};
use hyperspec::gpu::counters::PassStats;
use hyperspec::prelude::*;

fn pseudo_random_cube(w: usize, h: usize, bands: usize, seed: u64) -> Cube {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / 16_777_216.0
    };
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |_, _, _| {
        25.0 + 175.0 * next()
    })
    .unwrap()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

#[test]
fn gpu_mei_matches_cpu_reference_across_shapes() {
    for (w, h, bands, seed) in [(9, 7, 5, 1u64), (16, 12, 8, 2), (13, 13, 11, 3)] {
        let cube = pseudo_random_cube(w, h, bands, seed);
        let se = StructuringElement::square(3).unwrap();
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let gpu_out = GpuAmc::new(se.clone(), KernelMode::Isa)
            .run(&mut gpu, &cube)
            .unwrap();
        let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
        let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
        assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei");
        assert_eq!(gpu_out.min_index, morph.min_index, "{w}x{h}x{bands}");
        assert_eq!(gpu_out.max_index, morph.max_index);
    }
}

#[test]
fn gpu_matches_cpu_simd4_baseline() {
    let cube = pseudo_random_cube(11, 9, 7, 42);
    let se = StructuringElement::square(3).unwrap();
    let simd = cpu::run_simd4(&cube, &se);
    let mut gpu = Gpu::new(GpuProfile::fx5950_ultra());
    let gpu_out = GpuAmc::new(se, KernelMode::Isa)
        .run(&mut gpu, &cube)
        .unwrap();
    // The SIMD4 CPU baseline uses exactly the GPU's 4-lane arithmetic.
    assert_close(&gpu_out.mei.scores, &simd.mei.scores, 1e-5, "mei");
    assert_eq!(gpu_out.min_index, simd.morph.min_index);
    assert_eq!(gpu_out.max_index, simd.morph.max_index);
}

/// Everything a run must reproduce bit for bit: MEI bits, the min/max
/// index maps, and the labels the CPU tail assigns from that MEI.
#[derive(PartialEq)]
struct Outcome {
    mei_bits: Vec<u32>,
    min_index: Vec<u32>,
    max_index: Vec<u32>,
    labels: Vec<u16>,
}

fn outcome(cube: &Cube, classifier: &AmcClassifier, out: PipelineOutput) -> Outcome {
    let labels = classifier.classify_with_mei(cube, out.mei.clone()).unwrap();
    Outcome {
        mei_bits: out.mei.scores.iter().map(|s| s.to_bits()).collect(),
        min_index: out.min_index,
        max_index: out.max_index,
        labels: labels.labels,
    }
}

#[test]
fn every_execution_config_matches_the_unfused_scalar_oracle() {
    // The production path is the fused, optimized, batched, multi-threaded
    // graph; the oracle is the same pipeline with every layer switched off
    // (raw programs, per-fragment interpreter, one pass per kernel, one
    // thread). Every layer combination, every thread count and a mixed
    // fleet must reproduce the oracle exactly. The chunking leaves a
    // ragged last chunk (20 lines over 6-line bodies).
    let cube = pseudo_random_cube(24, 20, 10, 9);
    let se = StructuringElement::square(3).unwrap();
    let chunking = Chunking::new(6, 1);
    let classifier = AmcClassifier::new(AmcConfig::paper_default(3));
    let g70 = GpuProfile::geforce_7800gtx;
    let run = |opt: bool, batch: bool, fuse: bool, threads: usize| {
        rayon::with_threads(threads, || {
            let mut gpu = Gpu::new(g70());
            gpu.set_optimizer(opt);
            gpu.set_batch_execution(batch);
            let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
            amc.set_fusion(fuse);
            amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap()
        })
    };
    let oracle_out = run(false, false, false, 1);
    assert!(oracle_out.chunks > 1, "the test must chunk");
    let oracle = outcome(&cube, &classifier, oracle_out);

    let many = rayon::max_threads().max(2);
    // (optimizer, fusion) → the PassStats every batch × threads run shares.
    let mut stats: Vec<((bool, bool), PassStats)> = Vec::new();
    for opt in [false, true] {
        for fuse in [false, true] {
            for batch in [false, true] {
                for threads in [1, many] {
                    let label = format!("opt {opt} batch {batch} fuse {fuse} threads {threads}");
                    let out = run(opt, batch, fuse, threads);
                    match stats.iter().find(|(k, _)| *k == (opt, fuse)) {
                        Some((_, s)) => assert_eq!(&out.stats, s, "PassStats: {label}"),
                        None => stats.push(((opt, fuse), out.stats)),
                    }
                    assert!(outcome(&cube, &classifier, out) == oracle, "{label}");
                }
            }
        }
    }

    // A mixed fleet at both thread counts, on the default layer settings.
    let mut amc = GpuAmc::new(se.clone(), KernelMode::Isa);
    amc.set_fusion(true);
    let shape = vec![
        GpuProfile::fx5950_ultra(),
        g70(),
        g70(),
        GpuProfile::fx5950_ultra(),
    ];
    let default_opt = Gpu::new(g70()).optimizer_enabled();
    let (_, single_stats) = stats
        .iter()
        .find(|(k, _)| *k == (default_opt, true))
        .unwrap();
    for threads in [1, many] {
        let out = rayon::with_threads(threads, || {
            DeviceFleet::new(shape.clone())
                .run_with_chunking(&amc, &cube, chunking)
                .unwrap()
        });
        assert_eq!(&out.pipeline.stats, single_stats, "fleet threads {threads}");
        let got = outcome(&cube, &classifier, out.pipeline);
        assert!(got == oracle, "fleet threads {threads}");
    }

    // Both paper profiles at the default configuration.
    for profile in GpuProfile::paper_gpus() {
        let name = profile.name;
        let mut gpu = Gpu::new(profile);
        let out = GpuAmc::new(se.clone(), KernelMode::Isa)
            .run_with_chunking(&mut gpu, &cube, chunking)
            .unwrap();
        assert!(
            outcome(&cube, &classifier, out) == oracle,
            "default on {name}"
        );
    }
}

#[test]
fn scalar_baseline_matches_library_reference_exactly() {
    let cube = pseudo_random_cube(12, 10, 6, 77);
    let se = StructuringElement::square(3).unwrap();
    let scalar = cpu::run_scalar(&cube, &se);
    let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
    assert_eq!(scalar.mei.scores, ref_mei.scores);
    assert_eq!(scalar.morph.min_index, morph.min_index);
    assert_eq!(scalar.morph.max_index, morph.max_index);
}

#[test]
fn five_by_five_se_agrees_too() {
    let cube = pseudo_random_cube(12, 12, 4, 5);
    let se = StructuringElement::square(5).unwrap();
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let gpu_out = GpuAmc::new(se.clone(), KernelMode::Isa)
        .run(&mut gpu, &cube)
        .unwrap();
    let norm = hyperspec::hsi::morphology::normalize_cube(&cube);
    let (ref_mei, morph) = hyperspec::hsi::morphology::mei(&norm, &se, SpectralDistance::Sid);
    assert_close(&gpu_out.mei.scores, &ref_mei.scores, 1e-4, "mei5");
    assert_eq!(gpu_out.min_index, morph.min_index);
    assert_eq!(gpu_out.max_index, morph.max_index);
}
