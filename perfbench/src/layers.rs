//! The traced run: per-layer metrics from the benchmark's own timing of
//! each call into a layer, and from the counters and breakdowns those
//! calls already return. No span is added inside the program.

use crate::run::{mean, modeled_ms, timed, Harness, Metric};
use crate::stats::median;
use crate::workload::{self, SceneRun, TailRun};
use amc_core::fleet::DeviceFleet;
use amc_core::layout;
use amc_core::pipeline::{GpuAmc, KernelMode, StageWall};
use gpu_sim::gpu::Gpu;
use hsi::cube::{Chunking, Cube};
use std::collections::BTreeSet;

/// Repetitions of each side measurement (graph compile, packing, device
/// compile); the median is reported.
const SIDE_REPS: usize = 3;

/// The always-on counters the GPU layer keeps in the metrics registry, by
/// registry name. They count across every device thread, so they cover the
/// fleet's devices too.
const REGISTRY: [&str; 7] = [
    "gpu.verify.runs",
    "gpu.verify.cache_hits",
    "gpu.lower.runs",
    "gpu.lower.cache_hits",
    "gpu.opt.runs",
    "gpu.pool.hits",
    "gpu.pool.allocs",
];

fn registry() -> [u64; 7] {
    let snap = trace::metrics::snapshot();
    REGISTRY.map(|name| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    })
}

/// The timings of one traced scene.
struct Sample {
    scene: usize,
    gpu_phase_s: f64,
    stage_s: [f64; 6],
    shading_ns_per_instruction: f64,
    overhead_s: f64,
    unattributed_frac: f64,
    pack_overlap_frac: f64,
    fleet: Option<[f64; 4]>,
}

impl Sample {
    fn new(scene: usize, run: &SceneRun, pack_overlap_frac: f64) -> Self {
        let w = run.pipeline.stage_wall;
        let stage_s = w.as_named().map(|(_, s)| s);
        let shading_s = w.normalize_s + w.distance_s + w.minmax_s + w.mei_s;
        // The time the layers below the pipeline account for themselves:
        // the stage walls on one device; the dispatch phase on a fleet,
        // whose per-device stage walls overlap in time.
        let layer_s = match &run.fleet {
            Some(f) => f.dispatch_s,
            None => w.total_s(),
        };
        let attributed_s = layer_s + run.tail.as_ref().map_or(0.0, |t| t.wall_s);
        let fleet = run.fleet.as_ref().map(|f| {
            let max = f.device_wall_s.iter().copied().fold(0.0, f64::max);
            let balance = mean(f.device_wall_s.iter().copied()).unwrap_or(0.0) / max;
            [f.dispatch_s, balance, f.steals as f64, f.modeled_makespan_s]
        });
        Self {
            scene,
            gpu_phase_s: run.gpu_phase_s,
            stage_s,
            shading_ns_per_instruction: shading_s * 1e9
                / run.pipeline.stats.instructions.max(1) as f64,
            overhead_s: run.gpu_phase_s - layer_s,
            unattributed_frac: (1.0 - attributed_s / run.wall_s).max(0.0),
            pack_overlap_frac,
            fleet,
        }
    }
}

/// Per distinct scene: the plan's geometry, measured outside the loop.
struct SceneSide {
    graph_compile_s: f64,
    graph_passes: f64,
    pack_s: f64,
    body_frac: f64,
    compile_s: f64,
    /// Modeled seconds one uncontended device needs for the same plan.
    single_device_s: f64,
}

/// Run the traced half of a `--trace 1` run. The first half of `seconds`
/// runs untraced (the overhead baseline), the second half traced.
pub fn traced(harness: &mut Harness, seconds: f64) -> Result<(Vec<Metric>, Vec<String>), String> {
    let untraced = harness.timed_loop(seconds / 2.0, |_, _| {});

    trace::reset();
    trace::enable();
    let n = harness.scenes.len();
    let mut samples = Vec::new();
    let mut counts: Vec<Option<[u64; 7]>> = vec![None; n];
    let mut tail_runs = Vec::new();
    let mut last = registry();
    let traced = harness.timed_loop(seconds / 2.0, |idx, run| {
        let now = registry();
        let delta: [u64; 7] = std::array::from_fn(|i| now[i] - last[i]);
        last = now;
        let analysis = trace::analyze::analyze(&trace::snapshot_events());
        trace::reset();
        let overlap = analysis
            .arms
            .iter()
            .map(|a| a.overlap.pack_overlap_efficiency())
            .fold(1.0, f64::min);
        samples.push(Sample::new(idx, run, overlap));
        tail_runs.extend(run.tail.clone());
        counts[idx].get_or_insert(delta);
    });
    trace::disable();
    trace::reset();
    let tails = harness.finish_check();

    let profile = workload::profile();
    // Per distinct scene, at the plan its first checked run used.
    let mut sides: Vec<Option<SceneSide>> = Vec::new();
    for (scene, first) in harness.scenes.iter().zip(&harness.tally.first) {
        sides.push(match first {
            Some(e) => Some(side_measurements(&scene.cube, e.chunking)?),
            None => None,
        });
    }
    if samples.is_empty() {
        return Err("no traced scene completed".to_owned());
    }

    let med = |f: &dyn Fn(&Sample) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>()).expect("samples is non-empty")
    };
    let side = |f: &dyn Fn(&SceneSide) -> f64| mean(sides.iter().flatten().map(f)).unwrap_or(0.0);
    let first: Vec<_> = harness.tally.first.iter().flatten().collect();
    let exact = |f: &dyn Fn(&gpu_sim::PassStats) -> u64| {
        mean(first.iter().map(|e| f(&e.stages.total()) as f64)).unwrap_or(0.0)
    };
    let reg = |name: &str| {
        let i = REGISTRY
            .iter()
            .position(|&n| n == name)
            .expect("a registry counter the benchmark reads");
        mean(counts.iter().flatten().map(|c| c[i] as f64)).unwrap_or(0.0)
    };
    let frac = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            1.0
        }
    };
    let p50_untraced = median(&untraced).unwrap_or(f64::NAN);
    let p50_traced = median(&traced).unwrap_or(f64::NAN);

    let mut m = vec![
        Metric::new(
            "scene.generate_s",
            median(&harness.generate_s).unwrap_or(0.0),
            "s",
        ),
        Metric::new("gpu.verify_runs", reg("gpu.verify.runs"), "count"),
        Metric::new("gpu.lowerings", reg("gpu.lower.runs"), "count"),
        Metric::new("gpu.opt_runs", reg("gpu.opt.runs"), "count"),
        Metric::new(
            "gpu.compile_hit_frac",
            frac(
                reg("gpu.verify.cache_hits") + reg("gpu.lower.cache_hits"),
                reg("gpu.verify.runs") + reg("gpu.lower.runs"),
            ),
            "ratio",
        ),
        Metric::new("gpu.compile_s", side(&|s| s.compile_s), "s"),
        Metric::new("graph.compile_s", side(&|s| s.graph_compile_s), "s"),
        Metric::new("graph.passes", side(&|s| s.graph_passes), "count"),
        Metric::new("gpu.passes", exact(&|s| s.passes), "count"),
        Metric::new("gpu.fragments", exact(&|s| s.fragments), "count"),
        Metric::new("gpu.instructions", exact(&|s| s.instructions), "count"),
        Metric::new("gpu.texel_fetches", exact(&|s| s.texel_fetches), "count"),
        Metric::new(
            "gpu.texcache_hit_frac",
            frac(exact(&|s| s.cache_hits), exact(&|s| s.cache_misses)),
            "ratio",
        ),
        Metric::new(
            "gpu.ns_per_instruction",
            med(&|s| s.shading_ns_per_instruction),
            "ns",
        ),
    ];
    for (i, (name, _)) in StageWall::default().as_named().iter().enumerate() {
        m.push(Metric::new(
            format!("stage.{name}_s"),
            med(&|s| s.stage_s[i]),
            "s",
        ));
        let stage_ms = mean(first.iter().map(|e| {
            let st = &e.stages;
            let stats = [
                st.upload,
                st.normalize,
                st.distance,
                st.minmax,
                st.mei,
                st.download,
            ];
            modeled_ms(&stats[i], &profile)
        }));
        m.push(Metric::new(
            format!("stage.{name}_modeled_ms"),
            stage_ms.unwrap_or(0.0),
            "model_ms",
        ));
    }
    m.extend([
        Metric::new(
            "gpu.pool_hit_frac",
            frac(reg("gpu.pool.hits"), reg("gpu.pool.allocs")),
            "ratio",
        ),
        Metric::new("gpu.bytes_uploaded", exact(&|s| s.bytes_uploaded), "bytes"),
        Metric::new(
            "gpu.bytes_downloaded",
            exact(&|s| s.bytes_downloaded),
            "bytes",
        ),
        Metric::new("pipeline.gpu_phase_s", med(&|s| s.gpu_phase_s), "s"),
        Metric::new(
            "pipeline.chunks",
            mean(first.iter().map(|e| e.chunks as f64)).unwrap_or(0.0),
            "count",
        ),
        Metric::new("pipeline.body_frac", side(&|s| s.body_frac), "ratio"),
        Metric::new("pipeline.overhead_s", med(&|s| s.overhead_s), "s"),
        Metric::new("layout.pack_s", side(&|s| s.pack_s), "s"),
        Metric::new(
            "layout.pack_overlap_frac",
            med(&|s| s.pack_overlap_frac),
            "ratio",
        ),
    ]);
    // Layers a workload does not run report 0.
    let fleet = |i: usize| med(&|s| s.fleet.map_or(0.0, |f| f[i]));
    let speedup = |s: &Sample| match (&s.fleet, &sides[s.scene]) {
        (Some(f), Some(side)) => side.single_device_s / f[3],
        _ => 0.0,
    };
    m.extend([
        Metric::new("fleet.dispatch_s", fleet(0), "s"),
        Metric::new("fleet.load_balance", fleet(1), "ratio"),
        Metric::new("fleet.steals", fleet(2), "count"),
        Metric::new("fleet.modeled_makespan_ms", fleet(3) * 1e3, "model_ms"),
        Metric::new("fleet.modeled_speedup", med(&speedup), "ratio"),
    ]);
    // The tail runs inside each scene on `hybrid_warm`; on `fleet_pair`
    // these time the untimed accuracy check instead.
    tail_runs.extend(tails);
    let tail = |f: &dyn Fn(&TailRun) -> f64| {
        median(&tail_runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    m.extend([
        Metric::new("tail.wall_s", tail(&|t| t.wall_s), "s"),
        Metric::new("tail.selection_s", tail(&|t| t.breakdown.selection_s), "s"),
        Metric::new("tail.unmix_s", tail(&|t| t.breakdown.unmix_s), "s"),
        Metric::new("tail.classify_s", tail(&|t| t.breakdown.classify_s), "s"),
        Metric::new("tail.argmax_s", tail(&|t| t.breakdown.argmax_s), "s"),
        Metric::new("tail.endmembers", tail(&|t| t.endmembers as f64), "count"),
        Metric::new(
            "trace.overhead_frac",
            (p50_traced - p50_untraced) / p50_untraced,
            "ratio",
        ),
        Metric::new(
            "trace.unattributed_frac",
            med(&|s| s.unattributed_frac),
            "ratio",
        ),
    ]);
    let notes = vec![format!(
        "traced scenes: {} (p50 {p50_traced:.6} s), untraced: {} (p50 {p50_untraced:.6} s)",
        traced.len(),
        untraced.len()
    )];
    Ok((m, notes))
}

/// Measurements taken once per distinct scene, outside the timed loop, at
/// the chunk geometry the workload's plan gives that scene.
fn side_measurements(cube: &Cube, chunking: Chunking) -> Result<SceneSide, String> {
    let err = |e: amc_core::pipeline::AmcError| e.to_string();
    let profile = workload::profile();
    let se = hsi::morphology::StructuringElement::square(3).expect("3x3 SE is valid");
    let amc = GpuAmc::new(se, KernelMode::Isa);
    let chunks: Vec<_> = cube.chunks(chunking).collect();
    let shaded: usize = chunks.iter().map(|c| c.cube.dims().height).sum();
    let body_frac = cube.dims().height as f64 / shaded as f64;

    // Graph compile: each distinct chunk geometry compiles once per run.
    let geometries: BTreeSet<(usize, usize, usize)> = chunks
        .iter()
        .map(|c| {
            let d = c.cube.dims();
            (d.width, d.height, d.bands)
        })
        .collect();
    let mut compile = Vec::new();
    let mut graph_passes = 0.0;
    for _ in 0..SIDE_REPS {
        let (passes, s) = timed("graph.compile", || {
            geometries
                .iter()
                .map(|&(w, h, b)| amc.compile_graph(&profile, w, h, b, amc.fusion()))
                .collect::<Result<Vec<_>, _>>()
        });
        let first = chunks[0].cube.dims();
        let graphs = passes.map_err(err)?;
        let idx = geometries
            .iter()
            .position(|&g| g == (first.width, first.height, first.bands))
            .expect("the first chunk's geometry is in the set");
        graph_passes = graphs[idx].passes.len() as f64;
        compile.push(s);
    }

    // Packing: every chunk's band groups, reusing the buffers as the
    // executor does.
    let mut buf = Vec::new();
    let pack: Vec<f64> = (0..SIDE_REPS)
        .map(|_| {
            timed("layout.pack", || {
                for c in &chunks {
                    layout::pack_cube_into(&c.cube, &mut buf);
                }
            })
            .1
        })
        .collect();

    // Compile cost on one device: the plan's first chunk on a fresh
    // `GpuAmc` and device (verify, optimize, lowering, graph compile and
    // first allocations all miss) minus a warm rerun of the same chunk.
    // A chunk rather than the whole plan keeps the shading in both runs
    // small next to the compile cost being measured.
    let mut compile_s = Vec::new();
    for _ in 0..SIDE_REPS {
        let cold_amc = GpuAmc::new(amc.se().clone(), KernelMode::Isa);
        let mut gpu = Gpu::new(profile.clone());
        let (cold, cold_s) = timed("gpu.cold", || cold_amc.run_chunk(&mut gpu, &chunks[0].cube));
        cold.map_err(err)?;
        let (warm, warm_s) = timed("gpu.warm", || cold_amc.run_chunk(&mut gpu, &chunks[0].cube));
        warm.map_err(err)?;
        compile_s.push(cold_s - warm_s);
    }

    let single_device_s = DeviceFleet::modeled_single_device_s(&amc, cube, chunking, &profile);

    Ok(SceneSide {
        graph_compile_s: median(&compile).expect("SIDE_REPS > 0"),
        graph_passes,
        pack_s: median(&pack).expect("SIDE_REPS > 0"),
        body_frac,
        compile_s: median(&compile_s).expect("SIDE_REPS > 0"),
        single_device_s,
    })
}
