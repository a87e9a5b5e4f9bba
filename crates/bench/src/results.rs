//! Machine-readable benchmark results (`BENCH_results.json`).
//!
//! `tables -- bench [path]` runs the AMC pipeline end to end on the reduced
//! synthetic Indian Pines scene, wall-clocks each phase, and writes a JSON
//! record: host wall-clock seconds for scene generation, the GPU stream
//! pipeline and the CPU classification tail, the six-stage counter,
//! wall-clock and modeled-time breakdown, device cache hit-rates, and a
//! snapshot of the [`trace::metrics`] registry. [`to_json`] builds a
//! [`trace::json::Value`] tree and prints it with the codec's indented
//! writer, and [`from_json`] reads through the same codec, so names are
//! escaped and parsed by the workspace's one JSON implementation. Keys are
//! stable so successive baselines diff cleanly.
//!
//! The document carries a `schema_version` and [`from_json`] refuses any
//! other version, so downstream consumers (the CI bench-smoke comparison)
//! fail loudly on schema drift instead of silently reading defaults.
//! [`from_json`] ∘ [`to_json`] is the identity on the serialized form:
//! derived fields (modeled milliseconds, skew ratios, hit-rates, the
//! optimizer rollup) are recomputed from the parsed inputs, and every
//! input field round-trips bit-stably. Every float is rounded to 6
//! decimals (`r6`, the document's only precision policy) and printed in
//! the codec's shortest round-trip form, so `2.0` prints as `2` and
//! `0.25` as `0.25`; counters print as exact integers (the codec's numbers
//! are `f64`, exact up to 2⁵³, far above any counter this workload
//! produces).
//!
//! Since schema 3 the document also carries an `opt` block: the
//! [`opt_rollup`] of the shader optimizer over the six AMC kernels
//! (per-kernel raw vs optimized instruction counts, dynamically shaded
//! instruction totals, eliminated-op counters, modeled-ms deltas) plus a
//! small measured ISA-mode A/B microbench (`GPU_SIM_OPT=0` vs default).
//!
//! Since schema 5 it carries a `fusion` block: the render-graph compiler's
//! pass-fusion attribution (committed producer→consumer inlines aggregated
//! per kernel pair, eliminated passes, static normalize+distance texel
//! fetches per fragment fused vs unfused) plus a measured unfused-oracle
//! arm (`GPU_SIM_FUSE=0` equivalent) whose stage counters anchor the
//! ≥ 30% fetch-reduction gate CI enforces.
//!
//! Since schema 6 it carries a `fleet` block: the multi-device sharding
//! scaling curve ([`amc_core::fleet::DeviceFleet`]) over a fixed set of
//! fleet shapes (always 1× and 2× GeForce 7800 GTX, plus any `--devices`
//! shape), with per-device rows recording the placement model's initial
//! assignment vs the chunks actually executed, steal counts, and modeled
//! vs measured seconds. The modeled 2×7800GTX speedup over the single
//! device anchors the ≥ 1.8× scaling gate CI enforces. The fleet arms run
//! the same ISA pipeline as the headline, so their walls come from the
//! same code path.

use amc_core::fleet::DeviceFleet;
use amc_core::graph::CompiledGraph;
use amc_core::kernels;
use amc_core::pipeline::{GpuAmc, KernelMode, PipelineOutput, StageStats, StageWall};
use gpu_sim::counters::PassStats;
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use gpu_sim::opt::OptCounters;
use gpu_sim::raster::TexCoordSet;
use gpu_sim::timing;
use hsi::classify::{AmcClassifier, AmcConfig, TailBreakdown};
use hsi_scene::library::indian_pines_classes;
use hsi_scene::scene::{generate, SceneConfig};
use std::time::Instant;
use trace::json::{self, Value};
use trace::metrics::{HistBucket, HistSummary, Snapshot};

/// Version of the `BENCH_results.json` document layout. Bump when keys are
/// added, removed or change meaning; [`from_json`] rejects mismatches.
/// Version 3 added the `opt` block (optimizer rollup + ISA microbench).
/// Version 4 added `kernel_mode` (the headline bench now runs the ISA
/// path) and made `wall_over_modeled` `null` when the modeled time is zero
/// instead of a misleading `0.0`.
/// Version 5 added the `fusion` block (render-graph pass-fusion
/// attribution and the measured unfused-oracle arm).
/// Version 6 added the `fleet` block (multi-device scaling shapes with
/// per-device placement, steal and timing rows).
/// Version 7 added the `analysis` block (the in-process trace analyzer's
/// per-arm critical-path, utilization and overlap summaries) and exported
/// histogram bucket boundaries in the `metrics` block.
pub const SCHEMA_VERSION: u64 = 7;

/// Device-cache effectiveness counters read off the [`Gpu`] after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuCacheCounters {
    /// Full dataflow verifications executed (verification-cache misses).
    pub verify_runs: u64,
    /// Passes whose verification came from the cache.
    pub verify_cache_hits: u64,
    /// Program lowerings executed (lowering-cache misses).
    pub lower_runs: u64,
    /// ISA passes whose lowering came from the cache.
    pub lower_cache_hits: u64,
    /// Texture allocations served from the release pool.
    pub pool_hits: u64,
    /// Real texture allocations performed.
    pub texture_allocs: u64,
}

impl GpuCacheCounters {
    /// Read the counters from a device.
    pub fn from_gpu(gpu: &Gpu) -> Self {
        Self {
            verify_runs: gpu.verifications(),
            verify_cache_hits: gpu.verify_cache_hits(),
            lower_runs: gpu.lowerings(),
            lower_cache_hits: gpu.lower_cache_hits(),
            pool_hits: gpu.pool_hits(),
            texture_allocs: gpu.texture_allocs(),
        }
    }

    fn rate(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Verification-cache hit rate in `[0, 1]`.
    pub fn verify_hit_rate(&self) -> f64 {
        Self::rate(self.verify_cache_hits, self.verify_runs)
    }

    /// Lowering-cache hit rate in `[0, 1]`.
    pub fn lower_hit_rate(&self) -> f64 {
        Self::rate(self.lower_cache_hits, self.lower_runs)
    }

    /// Texture-pool hit rate in `[0, 1]`.
    pub fn pool_hit_rate(&self) -> f64 {
        Self::rate(self.pool_hits, self.texture_allocs)
    }
}

/// One timed benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Scene seed.
    pub seed: u64,
    /// Worker threads the executor used ([`rayon::max_threads`]).
    pub threads: usize,
    /// Scene dimensions `(width, height, bands)`.
    pub dims: (usize, usize, usize),
    /// Wall-clock seconds generating the synthetic scene.
    pub scene_s: f64,
    /// Wall-clock seconds for the GPU stream pipeline (MEI computation).
    pub gpu_pipeline_s: f64,
    /// Wall-clock seconds for the CPU tail (endmembers + classification).
    pub cpu_tail_s: f64,
    /// Stage breakdown of the CPU tail (selection/unmix/classify/argmax).
    pub tail: TailBreakdown,
    /// Chunks the pipeline split the scene into.
    pub chunks: usize,
    /// Endmembers extracted.
    pub endmembers: usize,
    /// Per-stage simulator counters.
    pub stages: StageStats,
    /// Measured host wall-clock per pipeline stage.
    pub stage_wall: StageWall,
    /// Device cache effectiveness counters.
    pub gpu_caches: GpuCacheCounters,
    /// Snapshot of the metrics registry taken after the run.
    pub metrics: Snapshot,
    /// Measured wall seconds of the ISA-mode microbench with the shader
    /// optimizer disabled (`GPU_SIM_OPT=0` path).
    pub opt_wall_raw_s: f64,
    /// Measured wall seconds of the same microbench with the optimizer on
    /// (the default lowering path).
    pub opt_wall_opt_s: f64,
    /// Which kernel implementation the benchmark executed. The headline
    /// bench runs [`KernelMode::Isa`] — the path the verifier, optimizer
    /// and batched executor actually exercise — so the device cache
    /// counters above are meaningful.
    pub kernel_mode: KernelMode,
    /// Render-graph fusion attribution plus the measured unfused arm.
    pub fusion: FusionReport,
    /// Multi-device sharding scaling curve (the schema-6 `fleet` block).
    pub fleet: FleetReport,
    /// Trace-analyzer summaries per bench arm (the schema-7 `analysis`
    /// block): critical path, utilization, pack overlap, fleet balance.
    pub analysis: AnalysisReport,
}

impl BenchRun {
    /// End-to-end wall-clock (scene generation excluded — it is input
    /// preparation, not AMC).
    pub fn amc_wall_s(&self) -> f64 {
        self.gpu_pipeline_s + self.cpu_tail_s
    }
}

// ---------------------------------------------------------------------------
// Optimizer rollup (the `opt` block)
// ---------------------------------------------------------------------------

/// One AMC kernel's row in the optimizer rollup: static instruction counts
/// from [`kernels::stage_cases`] and the optimizer, dynamic pass/fragment
/// counts attributed back from the run's per-stage [`PassStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptKernelRow {
    /// Kernel name (`Program::name`).
    pub name: String,
    /// Assembled (raw, Cg-shaped) instruction count.
    pub raw_instructions: u64,
    /// Instruction count after [`gpu_sim::optimize`].
    pub opt_instructions: u64,
    /// Render passes this kernel executed during the run.
    pub passes: u64,
    /// Fragments this kernel shaded during the run.
    pub fragments: u64,
}

impl OptKernelRow {
    /// Dynamically shaded instructions had the raw program been lowered.
    pub fn dynamic_raw(&self) -> u64 {
        self.fragments * self.raw_instructions
    }

    /// Dynamically shaded instructions under the optimized program.
    pub fn dynamic_opt(&self) -> u64 {
        self.fragments * self.opt_instructions
    }

    /// Percentage of dynamic instructions the optimizer removed.
    pub fn reduction_pct(&self) -> f64 {
        if self.raw_instructions == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.opt_instructions as f64 / self.raw_instructions as f64)
        }
    }
}

/// Per-kernel and summed optimizer effect over the six AMC kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptRollup {
    /// One row per AMC kernel, in pipeline order.
    pub kernels: Vec<OptKernelRow>,
    /// Eliminated-op counters summed over the six static optimizer runs.
    pub counters: OptCounters,
}

impl OptRollup {
    /// Total dynamically shaded instructions without the optimizer.
    pub fn dynamic_raw(&self) -> u64 {
        self.kernels.iter().map(OptKernelRow::dynamic_raw).sum()
    }

    /// Total dynamically shaded instructions with the optimizer.
    pub fn dynamic_opt(&self) -> u64 {
        self.kernels.iter().map(OptKernelRow::dynamic_opt).sum()
    }

    /// Percentage of total dynamic instructions removed (the ≥10% headline).
    pub fn reduction_pct(&self) -> f64 {
        if self.dynamic_raw() == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.dynamic_opt() as f64 / self.dynamic_raw() as f64)
        }
    }
}

/// Build the optimizer rollup for a run.
///
/// Static counts come from optimizing the checked-in kernels under their
/// pipeline bindings. Dynamic pass/fragment counts are attributed from the
/// per-stage counters exactly: the `normalize` stage interleaves `band_sum`
/// and `normalize` with equal pass counts and equal fragments per pass
/// (a 50/50 split); `minmax` runs one `minmax_init` pass per chunk and
/// `p_B − 1` `minmax_update` passes, all over the same chunk quad, so the
/// init share is `1/p_B` with `p_B = minmax.passes / chunks`; `distance`
/// and `mei` each run a single kernel. The attribution is derived — it is
/// recomputed, not parsed, on a [`from_json`] round trip.
pub fn opt_rollup(run: &BenchRun) -> OptRollup {
    let s = &run.stages;
    let chunks = run.chunks as u64;
    let p_b = s.minmax.passes.checked_div(chunks).unwrap_or(0);
    let (init_passes, init_frags) = match s.minmax.fragments.checked_div(p_b) {
        Some(f) => (chunks, f),
        None => (0, 0),
    };
    let splits: [(u64, u64); 6] = [
        (s.normalize.passes / 2, s.normalize.fragments / 2),
        (s.normalize.passes / 2, s.normalize.fragments / 2),
        (s.distance.passes, s.distance.fragments),
        (init_passes, init_frags),
        (
            s.minmax.passes - init_passes,
            s.minmax.fragments - init_frags,
        ),
        (s.mei.passes, s.mei.fragments),
    ];
    let mut counters = OptCounters::default();
    let mut rows = Vec::with_capacity(6);
    for ((program, bindings), (passes, fragments)) in kernels::stage_cases().into_iter().zip(splits)
    {
        let (optimized, report) = gpu_sim::optimize(&program, &bindings);
        counters.add(&report.counters);
        rows.push(OptKernelRow {
            name: program.name.clone(),
            raw_instructions: program.len() as u64,
            opt_instructions: optimized.len() as u64,
            passes,
            fragments,
        });
    }
    OptRollup {
        kernels: rows,
        counters,
    }
}

// ---------------------------------------------------------------------------
// Fusion attribution (the `fusion` block, schema 5)
// ---------------------------------------------------------------------------

/// One aggregated family of committed producer→consumer inlines: every
/// [`amc_core::graph::FusionRecord`] with the same kernel pair and
/// coordinate mode, with sites and per-fragment fetch counts summed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPairRow {
    /// Kernel whose body was inlined.
    pub producer_kernel: String,
    /// Kernel that absorbed it.
    pub consumer_kernel: String,
    /// Coordinate reconciliation (`substitute-site-coord` or
    /// `keep-producer-coords`).
    pub mode: String,
    /// Commits in this family.
    pub count: u64,
    /// `TEX` sites replaced, summed.
    pub sites: u64,
    /// Per-fragment fetches of the separate passes, summed.
    pub fetches_before: u64,
    /// Per-fragment fetches of the fused programs, summed.
    pub fetches_after: u64,
}

/// The schema-5 `fusion` block: static compiler attribution at the scene
/// geometry plus the measured unfused-oracle arm.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionReport {
    /// Whether the headline run executed the fused schedule (`GPU_SIM_FUSE`
    /// unset or non-zero).
    pub enabled: bool,
    /// Committed fusions aggregated per (producer, consumer, mode).
    pub pairs: Vec<FusionPairRow>,
    /// Passes dead-pass elimination removed from the fused schedule.
    pub eliminated_passes: u64,
    /// Scheduled passes in the fused compile.
    pub fused_passes: u64,
    /// Scheduled passes in the unfused compile.
    pub unfused_passes: u64,
    /// Static normalize+distance texel fetches per fragment, fused.
    pub fused_fetches_per_fragment: u64,
    /// Static normalize+distance texel fetches per fragment, unfused.
    pub unfused_fetches_per_fragment: u64,
    /// Pool reuses that skipped their zero fill during the headline run
    /// (the compiler proved every texel overwritten before read).
    pub zero_fill_skips: u64,
    /// Measured normalize-stage texel fetches of the unfused-oracle arm.
    pub unfused_normalize_texel_fetches: u64,
    /// Measured distance-stage texel fetches of the unfused-oracle arm.
    pub unfused_distance_texel_fetches: u64,
    /// Measured distance-stage wall seconds of the unfused-oracle arm.
    pub unfused_distance_wall_s: f64,
}

impl FusionReport {
    fn reduction(fused: u64, unfused: u64) -> f64 {
        if unfused == 0 {
            0.0
        } else {
            100.0 * (1.0 - fused as f64 / unfused as f64)
        }
    }

    /// Percentage of static normalize+distance fetches per fragment that
    /// fusion removed (the ≥ 30% CI gate).
    pub fn static_fetch_reduction_pct(&self) -> f64 {
        Self::reduction(
            self.fused_fetches_per_fragment,
            self.unfused_fetches_per_fragment,
        )
    }

    /// Percentage of measured normalize+distance texel fetches the fused
    /// run saved against the unfused-oracle arm.
    pub fn measured_fetch_reduction_pct(&self, fused_norm_dist_fetches: u64) -> f64 {
        Self::reduction(
            fused_norm_dist_fetches,
            self.unfused_normalize_texel_fetches + self.unfused_distance_texel_fetches,
        )
    }
}

fn norm_dist_fetches(c: &CompiledGraph) -> u64 {
    (c.stage_fetches_per_fragment("normalize") + c.stage_fetches_per_fragment("distance")) as u64
}

/// Build the fusion attribution for a run. The static side compiles the
/// AMC graph at the full scene geometry — the pass/fetch structure depends
/// only on the band count and the structuring element, so it attributes the
/// chunked execution exactly — and the measured side reads the counters of
/// the unfused-oracle arm run alongside the benchmark.
pub fn fusion_report(
    amc: &GpuAmc,
    dims: (usize, usize, usize),
    zero_fill_skips: u64,
    unfused_arm: &PipelineOutput,
) -> FusionReport {
    let profile = GpuProfile::geforce_7800gtx();
    let fused = amc
        .compile_graph(&profile, dims.0, dims.1, dims.2, true)
        .expect("fused AMC graph compiles");
    let unfused = amc
        .compile_graph(&profile, dims.0, dims.1, dims.2, false)
        .expect("unfused AMC graph compiles");
    let mut pairs: Vec<FusionPairRow> = Vec::new();
    for f in &fused.fusions {
        let mode = f.mode.as_str();
        match pairs.iter_mut().find(|p| {
            p.producer_kernel == f.kernels.0 && p.consumer_kernel == f.kernels.1 && p.mode == mode
        }) {
            Some(row) => {
                row.count += 1;
                row.sites += f.sites as u64;
                row.fetches_before += f.fetches_before as u64;
                row.fetches_after += f.fetches_after as u64;
            }
            None => pairs.push(FusionPairRow {
                producer_kernel: f.kernels.0.clone(),
                consumer_kernel: f.kernels.1.clone(),
                mode: mode.to_owned(),
                count: 1,
                sites: f.sites as u64,
                fetches_before: f.fetches_before as u64,
                fetches_after: f.fetches_after as u64,
            }),
        }
    }
    FusionReport {
        enabled: amc.fusion(),
        pairs,
        eliminated_passes: fused.eliminated.len() as u64,
        fused_passes: fused.passes.len() as u64,
        unfused_passes: unfused.passes.len() as u64,
        fused_fetches_per_fragment: norm_dist_fetches(&fused),
        unfused_fetches_per_fragment: norm_dist_fetches(&unfused),
        zero_fill_skips,
        unfused_normalize_texel_fetches: unfused_arm.stages.normalize.texel_fetches,
        unfused_distance_texel_fetches: unfused_arm.stages.distance.texel_fetches,
        unfused_distance_wall_s: unfused_arm.stage_wall.distance_s,
    }
}

// ---------------------------------------------------------------------------
// Fleet scaling (the `fleet` block, schema 6)
// ---------------------------------------------------------------------------

/// One device's row inside a fleet shape run: the placement model's
/// initial assignment vs what the work-stealing dispatcher actually
/// executed, plus modeled and measured seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceRow {
    /// Device short name (`GpuProfile::short_name`).
    pub device: String,
    /// Chunk indices the placement model assigned up front.
    pub planned: Vec<u64>,
    /// Chunk indices executed, in execution order.
    pub executed: Vec<u64>,
    /// Chunks this device stole from other queues.
    pub steals: u64,
    /// Modeled busy seconds for the executed chunks.
    pub modeled_s: f64,
    /// Measured host wall seconds of this device's dispatch loop.
    pub wall_s: f64,
}

/// One fleet shape's run over the shared chunk plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShapeRun {
    /// Shape name: device short names joined with `+`.
    pub name: String,
    /// Per-device rows, in fleet order.
    pub devices: Vec<FleetDeviceRow>,
    /// Chunks in the shared plan.
    pub chunks: u64,
    /// Total chunks that moved between queues.
    pub steals: u64,
    /// Modeled fleet makespan (slowest device's modeled busy time).
    pub modeled_makespan_s: f64,
    /// Measured host wall seconds of the parallel dispatch phase.
    pub wall_s: f64,
}

/// The schema-6 `fleet` block: one shared chunk plan, a single-device
/// modeled baseline, and one [`FleetShapeRun`] per fleet shape.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Body lines per chunk of the shared (fleet-shape-independent) plan.
    pub lines_per_chunk: u64,
    /// Halo lines per chunk side.
    pub halo: u64,
    /// Short name of the baseline device.
    pub baseline_device: String,
    /// Modeled seconds one baseline device needs for the whole plan
    /// (uncontended bus) — the denominator of every shape's speedup.
    pub baseline_modeled_s: f64,
    /// One run per fleet shape, in execution order.
    pub shapes: Vec<FleetShapeRun>,
}

impl FleetShapeRun {
    /// Modeled speedup over the single-baseline-device time. Derived — it
    /// is recomputed, not parsed, on a [`from_json`] round trip.
    pub fn modeled_speedup(&self, baseline_s: f64) -> f64 {
        if self.modeled_makespan_s > 0.0 {
            baseline_s / self.modeled_makespan_s
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------------
// Trace-analyzer summaries (the `analysis` block)
// ---------------------------------------------------------------------------

/// One thread's busy time inside an analysis arm. Utilization is derived
/// (`busy_s / wall_s`) and recomputed, not parsed, on a round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisThread {
    /// Timeline-row name (`main`, `packer`, `device0.7800gtx`, …).
    pub name: String,
    /// Union of root-span time on this thread, seconds.
    pub busy_s: f64,
}

/// One device's load inside an analysis arm's fleet section.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisDevice {
    /// Device ordinal within the fleet.
    pub device: u64,
    /// Timeline-row name of the device thread.
    pub label: String,
    /// Chunks executed.
    pub chunks: u64,
    /// Of those, chunks stolen from other devices' queues.
    pub stolen: u64,
    /// Summed `fleet.chunk` span time, seconds.
    pub busy_s: f64,
}

/// Fleet balance measured off the trace (distinct from the modeled `fleet`
/// block: these are span timings, not placement-model predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisFleet {
    /// First chunk begin → last chunk end across devices, seconds.
    pub makespan_s: f64,
    /// Total stolen chunks.
    pub steals: u64,
    /// Per-device rows, in device order.
    pub devices: Vec<AnalysisDevice>,
}

/// One bench arm's analyzer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisArm {
    /// Arm name (`headline`, `unfused_oracle`, `fleet:<shape>`).
    pub name: String,
    /// Arm wall clock, seconds.
    pub wall_s: f64,
    /// Critical-path length through the chunk/pack DAG, seconds.
    pub critical_path_s: f64,
    /// Spans on the critical path.
    pub critical_path_nodes: u64,
    /// `(bucket, self-seconds)` attribution along the path, sorted by
    /// bucket name (stage names plus `pack` and `other`).
    pub critical_path_stages: Vec<(String, f64)>,
    /// Total pack-span time, seconds.
    pub pack_total_s: f64,
    /// Pack time hidden under concurrent chunk execution, seconds.
    pub pack_hidden_s: f64,
    /// Time with ≥ 1 `gpu.xfer` transfer in flight, seconds.
    pub bus_busy_s: f64,
    /// Time with ≥ 2 transfers in flight (bus contention), seconds.
    pub bus_contended_s: f64,
    /// Per-thread busy rows.
    pub threads: Vec<AnalysisThread>,
    /// Fleet balance, for arms that ran `fleet.chunk` spans.
    pub fleet: Option<AnalysisFleet>,
}

impl AnalysisArm {
    /// Fraction of pack time hidden under shading (`1.0` when nothing was
    /// packed). Derived; recomputed from the rounded operands on re-serialize.
    pub fn pack_overlap_efficiency(&self) -> f64 {
        if self.pack_total_s <= 0.0 {
            1.0
        } else {
            (self.pack_hidden_s / self.pack_total_s).clamp(0.0, 1.0)
        }
    }
}

impl AnalysisFleet {
    /// Mean over max device busy time: `1.0` is perfectly balanced. Derived.
    pub fn load_balance(&self) -> f64 {
        let max = self.devices.iter().map(|d| d.busy_s).fold(0.0f64, f64::max);
        if max <= 0.0 || self.devices.is_empty() {
            return 1.0;
        }
        let mean = self.devices.iter().map(|d| d.busy_s).sum::<f64>() / self.devices.len() as f64;
        (mean / max).clamp(0.0, 1.0)
    }
}

/// The schema-7 `analysis` block: one analyzer summary per bench arm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisReport {
    /// Per-arm summaries, in execution order.
    pub arms: Vec<AnalysisArm>,
}

/// Build the `analysis` block from a captured trace snapshot.
pub fn analysis_report(snap: &trace::TraceSnapshot) -> AnalysisReport {
    let analysis = trace::analyze::analyze(snap);
    AnalysisReport {
        arms: analysis
            .arms
            .iter()
            .map(|arm| AnalysisArm {
                name: arm.name.clone(),
                wall_s: arm.wall_s,
                critical_path_s: arm.critical_path.total_s,
                critical_path_nodes: arm.critical_path.nodes as u64,
                critical_path_stages: arm.critical_path.stages.clone(),
                pack_total_s: arm.overlap.pack_total_s,
                pack_hidden_s: arm.overlap.pack_hidden_s,
                bus_busy_s: arm.overlap.bus_busy_s,
                bus_contended_s: arm.overlap.bus_contended_s,
                threads: arm
                    .threads
                    .iter()
                    .map(|t| AnalysisThread {
                        name: t.name.clone(),
                        busy_s: t.busy_s,
                    })
                    .collect(),
                fleet: arm.fleet.as_ref().map(|f| AnalysisFleet {
                    makespan_s: f.makespan_s,
                    steals: f.steals,
                    devices: f
                        .devices
                        .iter()
                        .map(|d| AnalysisDevice {
                            device: d.device,
                            label: d.label.clone(),
                            chunks: d.chunks,
                            stolen: d.stolen,
                            busy_s: d.busy_s,
                        })
                        .collect(),
                }),
            })
            .collect(),
    }
}

/// Name a fleet shape: device short names joined with `+`.
fn shape_name(profiles: &[GpuProfile]) -> String {
    profiles
        .iter()
        .map(|p| p.short_name())
        .collect::<Vec<_>>()
        .join("+")
}

/// Execute the fleet scaling arms and build the `fleet` block. Always runs
/// 1× and 2× GeForce 7800 GTX (the scaling headline CI gates on), plus
/// `extra` when it names a distinct shape. Every shape shares one chunk
/// plan, so the merged outputs — bit-identical across shapes by the fleet
/// executor's determinism guarantee — are also identical to each other.
pub fn fleet_report(
    cube: &hsi::cube::Cube,
    amc: &GpuAmc,
    extra: Option<&[GpuProfile]>,
) -> FleetReport {
    let baseline = GpuProfile::geforce_7800gtx();
    let mut shapes: Vec<Vec<GpuProfile>> = vec![
        vec![baseline.clone()],
        vec![baseline.clone(), baseline.clone()],
    ];
    if let Some(extra) = extra {
        if !extra.is_empty() && !shapes.iter().any(|s| s.as_slice() == extra) {
            shapes.push(extra.to_vec());
        }
    }
    // One plan for every shape: derived from the union of profiles, whose
    // minimum video memory governs — identical to each shape's own plan
    // whenever the memory sizes agree (they do for the paper's devices).
    let all: Vec<GpuProfile> = shapes.iter().flatten().cloned().collect();
    let chunking = DeviceFleet::new(all)
        .plan_chunking(amc, cube)
        .expect("fleet chunk plan");
    let baseline_modeled_s = DeviceFleet::modeled_single_device_s(amc, cube, chunking, &baseline);
    let runs = shapes
        .into_iter()
        .map(|profiles| {
            let name = shape_name(&profiles);
            eprintln!("[bench] fleet shape {name}...");
            let out = {
                let _arm = trace::span("bench.arm", &format!("fleet:{name}"));
                DeviceFleet::new(profiles).run_with_chunking(amc, cube, chunking)
            }
            .expect("fleet run");
            FleetShapeRun {
                name,
                devices: out
                    .devices
                    .iter()
                    .map(|d| FleetDeviceRow {
                        device: d.profile.short_name().to_owned(),
                        planned: d.planned.iter().map(|&i| i as u64).collect(),
                        executed: d.executed.iter().map(|&i| i as u64).collect(),
                        steals: d.steals,
                        modeled_s: d.modeled_s,
                        wall_s: d.wall_s,
                    })
                    .collect(),
                chunks: out.pipeline.chunks as u64,
                steals: out.steals,
                modeled_makespan_s: out.modeled_makespan_s,
                wall_s: out.wall_s,
            }
        })
        .collect();
    FleetReport {
        lines_per_chunk: chunking.lines_per_chunk as u64,
        halo: chunking.halo as u64,
        baseline_device: baseline.short_name().to_owned(),
        baseline_modeled_s,
        shapes: runs,
    }
}

/// Wall-clock the ISA lowering path with the optimizer off, then on: every
/// AMC kernel shades a 96×96 quad for a few passes on a cold device per
/// arm, so the measured delta is the per-fragment interpreter cost of the
/// instructions the optimizer removes (plus one optimizer run per kernel,
/// amortized across the passes exactly as the lowering cache amortizes it).
fn isa_microbench() -> (f64, f64) {
    const SIZE: usize = 96;
    const REPS: usize = 8;
    let time_arm = |optimize: bool| -> f64 {
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        gpu.set_optimizer(optimize);
        let t = Instant::now();
        for (program, bindings) in kernels::stage_cases() {
            let inputs: Vec<_> = (0..bindings.samplers)
                .map(|_| {
                    let id = gpu.alloc_texture(SIZE, SIZE).expect("microbench input");
                    gpu.upload(id, &vec![0.25f32; SIZE * SIZE * 4])
                        .expect("microbench upload");
                    id
                })
                .collect();
            let target = gpu.alloc_texture(SIZE, SIZE).expect("microbench target");
            let constants: Vec<_> = bindings
                .constants
                .iter()
                .map(|&idx| (idx, [0.5f32, 0.25, 0.75, 1.0]))
                .collect();
            let texcoords = vec![TexCoordSet::identity(); bindings.texcoord_sets];
            for _ in 0..REPS {
                gpu.run_pass(&program, &inputs, &constants, &texcoords, target, None)
                    .expect("microbench pass");
            }
        }
        t.elapsed().as_secs_f64()
    };
    (time_arm(false), time_arm(true))
}

/// Execute the end-to-end benchmark once. The metrics registry is reset
/// first so the emitted `metrics` block covers exactly this run.
pub fn run_benchmark(seed: u64) -> BenchRun {
    run_benchmark_with_devices(seed, None)
}

/// [`run_benchmark`] with an extra fleet shape from `--devices` appended to
/// the standard 1×/2× 7800 GTX scaling arms.
pub fn run_benchmark_with_devices(seed: u64, extra_shape: Option<&[GpuProfile]>) -> BenchRun {
    trace::metrics::reset();
    // The analyzer needs the span stream, so tracing is forced on for the
    // benchmark. The prior state is restored afterwards; the sink is left
    // intact (not drained) so a later `--trace` export still sees the run.
    let was_tracing = trace::enabled();
    trace::enable();
    trace::reset();
    let classes = indian_pines_classes();
    let t = Instant::now();
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(seed));
    let scene_s = t.elapsed().as_secs_f64();
    let dims = scene.cube.dims();

    let config = AmcConfig::paper_default(classes.len());
    // The ISA path is the pipeline's only execution path: it is what the
    // verifier, the optimizer and the batched SoA executor run, and it
    // populates the verify/lower cache counters the document reports.
    let kernel_mode = KernelMode::Isa;
    let amc = GpuAmc::new(config.se.clone(), kernel_mode);
    let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
    let classifier = AmcClassifier::new(config);
    let hybrid = {
        let _arm = trace::span("bench.arm", "headline");
        amc.run_and_classify(&mut gpu, &scene.cube, &classifier)
    }
    .expect("hybrid AMC run");
    // Snapshot before the microbench so the metrics block covers exactly
    // the end-to-end run; the A/B arms below would otherwise pollute it.
    let metrics = trace::metrics::snapshot();
    let zero_fill_skips = gpu.zero_fill_skips();
    let (opt_wall_raw_s, opt_wall_opt_s) = isa_microbench();
    // The unfused-oracle arm (`GPU_SIM_FUSE=0` equivalent): same pipeline,
    // same scene, fresh device, fusion pinned off — its stage counters
    // anchor the measured fetch-reduction attribution.
    let mut amc_unfused = GpuAmc::new(amc.se().clone(), kernel_mode);
    amc_unfused.set_fusion(false);
    let mut gpu_unfused = Gpu::new(GpuProfile::geforce_7800gtx());
    let unfused_arm = {
        let _arm = trace::span("bench.arm", "unfused_oracle");
        amc_unfused.run(&mut gpu_unfused, &scene.cube)
    }
    .expect("unfused oracle run");
    let fusion = fusion_report(
        &amc,
        (dims.width, dims.height, dims.bands),
        zero_fill_skips,
        &unfused_arm,
    );
    // Fleet scaling arms on the headline's pipeline; the speedup gate is
    // on modeled time.
    let fleet = fleet_report(&scene.cube, &amc, extra_shape);

    let analysis = analysis_report(&trace::snapshot_events());
    if !was_tracing {
        trace::disable();
    }

    BenchRun {
        seed,
        threads: rayon::max_threads(),
        dims: (dims.width, dims.height, dims.bands),
        scene_s,
        gpu_pipeline_s: hybrid.gpu_wall_s,
        cpu_tail_s: hybrid.tail_wall_s,
        tail: hybrid.tail,
        chunks: hybrid.pipeline.chunks,
        endmembers: hybrid.classification.class_count(),
        stages: hybrid.pipeline.stages,
        stage_wall: hybrid.pipeline.stage_wall,
        gpu_caches: GpuCacheCounters::from_gpu(&gpu),
        metrics,
        opt_wall_raw_s,
        opt_wall_opt_s,
        kernel_mode,
        fusion,
        fleet,
        analysis,
    }
}

/// Round to the document's 6-decimal precision, exactly as `{:.6}` prints.
/// This is the document's only precision policy: every float is written as
/// `r6(x)` in the codec's shortest round-trip form, and derived values are
/// computed from rounded operands, so the document is a fixed point of
/// parse → re-serialize.
fn r6(x: f64) -> f64 {
    format!("{x:.6}").parse().expect("fixed-precision float")
}

/// A float field at the document's precision.
fn f6(x: f64) -> Value {
    Value::Num(r6(x))
}

fn stage_json(name: &str, s: &PassStats, wall_s: f64, profile: &GpuProfile) -> Value {
    let modeled_ms = timing::gpu_time(s, profile).total_ms();
    let wall_s = r6(wall_s);
    // Measured-over-modeled skew: >1000 means a modeled millisecond costs
    // more than a host second to simulate. Derived, so recomputed (not
    // parsed) on round trip. A stage with no modeled time (e.g. upload or
    // download on configs that skip it) has no meaningful ratio — emit
    // `null`, never a `0.0` that reads as "perfectly modeled".
    let skew = (modeled_ms > 0.0).then(|| f6(wall_s * 1e3 / modeled_ms));
    Value::object([
        ("stage", name.into()),
        ("passes", s.passes.into()),
        ("fragments", s.fragments.into()),
        ("instructions", s.instructions.into()),
        ("texel_fetches", s.texel_fetches.into()),
        ("cache_hits", s.cache_hits.into()),
        ("cache_misses", s.cache_misses.into()),
        ("tiles", s.tiles.into()),
        ("bytes_written", s.bytes_written.into()),
        ("bytes_uploaded", s.bytes_uploaded.into()),
        ("bytes_downloaded", s.bytes_downloaded.into()),
        ("wall_s", wall_s.into()),
        ("modeled_ms", f6(modeled_ms)),
        ("wall_over_modeled", skew.into()),
    ])
}

/// The `opt` block. Per-kernel static counts are constants of the tree,
/// dynamic attributions derive from the stage counters, and only the
/// microbench walls are measured inputs (everything else is recomputed on a
/// parse → re-serialize round trip).
fn opt_json(run: &BenchRun, profile: &GpuProfile) -> Value {
    let rollup = opt_rollup(run);
    let total = run.stages.total();
    // Modeled kernel time had the raw programs been shaded: the run's
    // instruction total plus exactly the instructions the optimizer removed.
    let mut raw_total = total;
    raw_total.instructions = total.instructions + (rollup.dynamic_raw() - rollup.dynamic_opt());
    let kernels = rollup.kernels.iter().map(|k| {
        Value::object([
            ("kernel", k.name.as_str().into()),
            ("raw_instructions", k.raw_instructions.into()),
            ("opt_instructions", k.opt_instructions.into()),
            ("passes", k.passes.into()),
            ("fragments", k.fragments.into()),
            ("dynamic_raw", k.dynamic_raw().into()),
            ("dynamic_opt", k.dynamic_opt().into()),
            ("reduction_pct", f6(k.reduction_pct())),
        ])
    });
    let eliminated = rollup
        .counters
        .entries()
        .map(|(label, n)| (label, n.into()));
    Value::object([
        ("kernels", kernels.collect()),
        ("dynamic_instructions_raw", rollup.dynamic_raw().into()),
        ("dynamic_instructions_opt", rollup.dynamic_opt().into()),
        ("dynamic_reduction_pct", f6(rollup.reduction_pct())),
        ("eliminated", Value::object(eliminated)),
        (
            "modeled_kernel_ms_raw_7800gtx",
            f6(timing::gpu_time(&raw_total, profile).kernel_ms()),
        ),
        (
            "modeled_kernel_ms_opt_7800gtx",
            f6(timing::gpu_time(&total, profile).kernel_ms()),
        ),
        (
            "isa_microbench",
            Value::object([
                ("wall_raw_s", f6(run.opt_wall_raw_s)),
                ("wall_opt_s", f6(run.opt_wall_opt_s)),
            ]),
        ),
    ])
}

/// The `fusion` block. The pairs, pass counts, static per-fragment fetches
/// and the unfused-arm counters are inputs; both reduction percentages are
/// derived and recomputed on a round trip.
fn fusion_json(run: &BenchRun) -> Value {
    let f = &run.fusion;
    let pairs = f.pairs.iter().map(|p| {
        Value::object([
            ("producer_kernel", p.producer_kernel.as_str().into()),
            ("consumer_kernel", p.consumer_kernel.as_str().into()),
            ("mode", p.mode.as_str().into()),
            ("count", p.count.into()),
            ("sites", p.sites.into()),
            ("fetches_before", p.fetches_before.into()),
            ("fetches_after", p.fetches_after.into()),
        ])
    });
    let fused_norm_dist = run.stages.normalize.texel_fetches + run.stages.distance.texel_fetches;
    Value::object([
        ("enabled", f.enabled.into()),
        ("pairs", pairs.collect()),
        ("eliminated_passes", f.eliminated_passes.into()),
        ("fused_passes", f.fused_passes.into()),
        ("unfused_passes", f.unfused_passes.into()),
        (
            "normalize_distance_fetches_per_fragment",
            Value::object([
                ("fused", f.fused_fetches_per_fragment.into()),
                ("unfused", f.unfused_fetches_per_fragment.into()),
            ]),
        ),
        (
            "static_fetch_reduction_pct",
            f6(f.static_fetch_reduction_pct()),
        ),
        ("zero_fill_skips", f.zero_fill_skips.into()),
        (
            "unfused_arm",
            Value::object([
                (
                    "normalize_texel_fetches",
                    f.unfused_normalize_texel_fetches.into(),
                ),
                (
                    "distance_texel_fetches",
                    f.unfused_distance_texel_fetches.into(),
                ),
                ("distance_wall_s", f6(f.unfused_distance_wall_s)),
            ]),
        ),
        (
            "measured_fetch_reduction_pct",
            f6(f.measured_fetch_reduction_pct(fused_norm_dist)),
        ),
    ])
}

/// The `fleet` block. The chunk plan, the single-device modeled baseline
/// and per-shape runs with per-device placement/execution rows are inputs;
/// every `modeled_speedup` is derived from the (rounded) baseline and
/// makespan and recomputed on a round trip.
fn fleet_json(fl: &FleetReport) -> Value {
    let shapes = fl.shapes.iter().map(|shape| {
        let speedup = FleetShapeRun {
            modeled_makespan_s: r6(shape.modeled_makespan_s),
            ..shape.clone()
        }
        .modeled_speedup(r6(fl.baseline_modeled_s));
        let devices = shape.devices.iter().map(|d| {
            Value::object([
                ("device", d.device.as_str().into()),
                ("planned", d.planned.iter().copied().collect()),
                ("executed", d.executed.iter().copied().collect()),
                ("steals", d.steals.into()),
                ("modeled_s", f6(d.modeled_s)),
                ("wall_s", f6(d.wall_s)),
            ])
        });
        Value::object([
            ("name", shape.name.as_str().into()),
            ("chunks", shape.chunks.into()),
            ("steals", shape.steals.into()),
            ("modeled_makespan_s", f6(shape.modeled_makespan_s)),
            ("modeled_speedup", f6(speedup)),
            ("wall_s", f6(shape.wall_s)),
            ("devices", devices.collect()),
        ])
    });
    Value::object([
        (
            "chunking",
            Value::object([
                ("lines_per_chunk", fl.lines_per_chunk.into()),
                ("halo", fl.halo.into()),
            ]),
        ),
        ("baseline_device", fl.baseline_device.as_str().into()),
        ("baseline_modeled_s", f6(fl.baseline_modeled_s)),
        ("shapes", shapes.collect()),
    ])
}

/// One `analysis` arm. Shares, utilizations, the pack overlap efficiency
/// and the load balance are derived from the rounded operands, so they are
/// recomputed (never parsed) on a round trip.
fn analysis_arm_json(arm: &AnalysisArm) -> Value {
    let wall = r6(arm.wall_s);
    let cp = r6(arm.critical_path_s);
    // Share of the arm's wall clock the critical path explains; a zero-wall
    // arm trivially has a full-share path.
    let share = if wall > 0.0 {
        (cp / wall).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let utilization = |busy_s: f64, over: f64| {
        if over > 0.0 {
            (r6(busy_s) / over).clamp(0.0, 1.0)
        } else {
            0.0
        }
    };
    let rounded_arm = AnalysisArm {
        pack_total_s: r6(arm.pack_total_s),
        pack_hidden_s: r6(arm.pack_hidden_s),
        ..arm.clone()
    };
    let cp_stages = arm.critical_path_stages.iter().map(|(stage, self_s)| {
        Value::object([("stage", stage.as_str().into()), ("self_s", f6(*self_s))])
    });
    let threads = arm.threads.iter().map(|t| {
        Value::object([
            ("name", t.name.as_str().into()),
            ("busy_s", f6(t.busy_s)),
            ("utilization", f6(utilization(t.busy_s, wall))),
        ])
    });
    let fleet = arm.fleet.as_ref().map(|f| {
        let makespan = r6(f.makespan_s);
        let rounded_fleet = AnalysisFleet {
            makespan_s: makespan,
            steals: f.steals,
            devices: f
                .devices
                .iter()
                .map(|d| AnalysisDevice {
                    busy_s: r6(d.busy_s),
                    ..d.clone()
                })
                .collect(),
        };
        let devices = f.devices.iter().map(|d| {
            Value::object([
                ("device", d.device.into()),
                ("label", d.label.as_str().into()),
                ("chunks", d.chunks.into()),
                ("stolen", d.stolen.into()),
                ("busy_s", f6(d.busy_s)),
                ("utilization", f6(utilization(d.busy_s, makespan))),
            ])
        });
        Value::object([
            ("makespan_s", f6(f.makespan_s)),
            ("steals", f.steals.into()),
            ("load_balance", f6(rounded_fleet.load_balance())),
            ("devices", devices.collect()),
        ])
    });
    Value::object([
        ("name", arm.name.as_str().into()),
        ("wall_s", f6(arm.wall_s)),
        ("critical_path_s", f6(arm.critical_path_s)),
        ("critical_path_nodes", arm.critical_path_nodes.into()),
        ("critical_path_share", f6(share)),
        ("critical_path_stages", cp_stages.collect()),
        (
            "pack",
            Value::object([
                ("total_s", f6(arm.pack_total_s)),
                ("hidden_s", f6(arm.pack_hidden_s)),
                (
                    "overlap_efficiency",
                    f6(rounded_arm.pack_overlap_efficiency()),
                ),
            ]),
        ),
        (
            "bus",
            Value::object([
                ("busy_s", f6(arm.bus_busy_s)),
                ("contended_s", f6(arm.bus_contended_s)),
            ]),
        ),
        ("threads", threads.collect()),
        ("fleet", fleet.into()),
    ])
}

/// The `metrics` block: the derived cache hit-rates, then the registry
/// snapshot's counters and histograms.
fn metrics_json(run: &BenchRun) -> Value {
    let c = &run.gpu_caches;
    let counters = run.metrics.counters.iter().map(|(name, value)| {
        Value::object([("name", name.as_str().into()), ("value", (*value).into())])
    });
    let histograms = run.metrics.histograms.iter().map(|(name, h)| {
        let buckets = h.buckets.iter().map(|b| {
            Value::object([
                ("lo_ns", b.lo_ns.into()),
                ("hi_ns", b.hi_ns.into()),
                ("count", b.count.into()),
            ])
        });
        Value::object([
            ("name", name.as_str().into()),
            ("count", h.count.into()),
            ("sum_ns", h.sum_ns.into()),
            ("p50_ns", h.p50_ns.into()),
            ("p95_ns", h.p95_ns.into()),
            ("p99_ns", h.p99_ns.into()),
            ("buckets", buckets.collect()),
        ])
    });
    Value::object([
        (
            "cache_hit_rates",
            Value::object([
                ("verify", f6(c.verify_hit_rate())),
                ("lower", f6(c.lower_hit_rate())),
                ("texture_pool", f6(c.pool_hit_rate())),
            ]),
        ),
        ("counters", counters.collect()),
        ("histograms", histograms.collect()),
    ])
}

/// Render a [`BenchRun`] as the `BENCH_results.json` document.
pub fn to_json(run: &BenchRun) -> String {
    let profile = GpuProfile::geforce_7800gtx();
    let stages: [&PassStats; 6] = [
        &run.stages.upload,
        &run.stages.normalize,
        &run.stages.distance,
        &run.stages.minmax,
        &run.stages.mei,
        &run.stages.download,
    ];
    let stages = stages
        .into_iter()
        .zip(run.stage_wall.as_named())
        .map(|(stats, (name, wall_s))| stage_json(name, stats, wall_s, &profile));
    let amc_wall_s = r6(run.gpu_pipeline_s) + r6(run.cpu_tail_s);
    let modeled_ms = timing::gpu_time(&run.stages.total(), &profile).kernel_ms();
    let arms = run.analysis.arms.iter().map(analysis_arm_json);
    let c = &run.gpu_caches;
    Value::object([
        ("schema_version", SCHEMA_VERSION.into()),
        ("benchmark", "amc_end_to_end".into()),
        ("kernel_mode", run.kernel_mode.as_str().into()),
        ("seed", run.seed.into()),
        ("threads", run.threads.into()),
        (
            "scene",
            Value::object([
                ("width", run.dims.0.into()),
                ("height", run.dims.1.into()),
                ("bands", run.dims.2.into()),
            ]),
        ),
        ("scene_generation_s", f6(run.scene_s)),
        ("gpu_pipeline_wall_s", f6(run.gpu_pipeline_s)),
        ("cpu_tail_wall_s", f6(run.cpu_tail_s)),
        // Tail stage breakdown mirroring the GPU `stages` array. selection_s
        // and classify_s are wall clock; unmix_s and argmax_s are
        // worker-summed CPU seconds from the batched kernels (equal to wall
        // at threads=1).
        (
            "cpu_tail_stages",
            Value::object([
                ("selection_s", f6(run.tail.selection_s)),
                ("unmix_s", f6(run.tail.unmix_s)),
                ("classify_s", f6(run.tail.classify_s)),
                ("argmax_s", f6(run.tail.argmax_s)),
            ]),
        ),
        ("amc_wall_s", f6(amc_wall_s)),
        ("chunks", run.chunks.into()),
        ("endmembers", run.endmembers.into()),
        ("modeled_kernel_ms_7800gtx", f6(modeled_ms)),
        ("stages", stages.collect()),
        ("opt", opt_json(run, &profile)),
        ("fusion", fusion_json(run)),
        ("fleet", fleet_json(&run.fleet)),
        ("analysis", Value::object([("arms", arms.collect())])),
        (
            "gpu_caches",
            Value::object([
                ("verify_runs", c.verify_runs.into()),
                ("verify_cache_hits", c.verify_cache_hits.into()),
                ("lower_runs", c.lower_runs.into()),
                ("lower_cache_hits", c.lower_cache_hits.into()),
                ("pool_hits", c.pool_hits.into()),
                ("texture_allocs", c.texture_allocs.into()),
            ]),
        ),
        ("metrics", metrics_json(run)),
    ])
    .to_pretty()
}

// ---------------------------------------------------------------------------
// Parsing (through the `trace::json` codec)
// ---------------------------------------------------------------------------

type ParseResult<T> = std::result::Result<T, String>;

fn field<'a>(v: &'a Value, key: &str) -> ParseResult<&'a Value> {
    v.get(key).ok_or_else(|| format!("missing key \"{key}\""))
}

fn typed<'a, T>(
    v: &'a Value,
    key: &str,
    what: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> ParseResult<T> {
    read(field(v, key)?).ok_or_else(|| format!("key \"{key}\": expected {what}"))
}

fn num(v: &Value, key: &str) -> ParseResult<f64> {
    typed(v, key, "a number", Value::as_f64)
}

fn uint(v: &Value, key: &str) -> ParseResult<u64> {
    typed(v, key, "an unsigned integer", Value::as_u64)
}

fn string(v: &Value, key: &str) -> ParseResult<String> {
    typed(v, key, "a string", |x| x.as_str().map(str::to_owned))
}

fn list<'a>(v: &'a Value, key: &str) -> ParseResult<&'a [Value]> {
    typed(v, key, "an array", Value::as_array)
}

/// The array at `key`, each item read by `row`.
fn rows<T>(v: &Value, key: &str, row: impl Fn(&Value) -> ParseResult<T>) -> ParseResult<Vec<T>> {
    list(v, key)?.iter().map(row).collect()
}

fn uints(v: &Value, key: &str) -> ParseResult<Vec<u64>> {
    typed(v, key, "unsigned integers", |x| {
        x.as_array()?.iter().map(Value::as_u64).collect()
    })
}

fn pass_stats_from(v: &Value) -> ParseResult<PassStats> {
    Ok(PassStats {
        fragments: uint(v, "fragments")?,
        instructions: uint(v, "instructions")?,
        texel_fetches: uint(v, "texel_fetches")?,
        cache_hits: uint(v, "cache_hits")?,
        cache_misses: uint(v, "cache_misses")?,
        bytes_written: uint(v, "bytes_written")?,
        bytes_uploaded: uint(v, "bytes_uploaded")?,
        bytes_downloaded: uint(v, "bytes_downloaded")?,
        passes: uint(v, "passes")?,
        tiles: uint(v, "tiles")?,
    })
}

/// Parse a `BENCH_results.json` document back into a [`BenchRun`].
///
/// Fails with a descriptive error on malformed JSON, a missing key, or a
/// `schema_version` other than [`SCHEMA_VERSION`] — schema drift is a hard
/// error, never a silent default. Derived fields (`amc_wall_s`,
/// `modeled_*`, `wall_over_modeled`, `cache_hit_rates`) are not read; they
/// are recomputed from the parsed inputs on re-serialization.
pub fn from_json(text: &str) -> ParseResult<BenchRun> {
    let doc = &json::parse(text).map_err(|e| e.to_string())?;
    let version = uint(doc, "schema_version")
        .map_err(|e| format!("{e} — document predates schema versioning; regenerate it"))?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}; \
             regenerate the document with this tree's `tables -- bench`"
        ));
    }
    let scene = field(doc, "scene")?;
    let tail_obj = field(doc, "cpu_tail_stages")?;
    let tail = TailBreakdown {
        selection_s: num(tail_obj, "selection_s")?,
        unmix_s: num(tail_obj, "unmix_s")?,
        classify_s: num(tail_obj, "classify_s")?,
        argmax_s: num(tail_obj, "argmax_s")?,
    };
    let mut stages = StageStats::default();
    let mut stage_wall = StageWall::default();
    for entry in list(doc, "stages")? {
        let name = string(entry, "stage")?;
        let stats = pass_stats_from(entry)?;
        let wall = num(entry, "wall_s")?;
        let (slot, wall_slot) = match name.as_str() {
            "upload" => (&mut stages.upload, &mut stage_wall.upload_s),
            "normalize" => (&mut stages.normalize, &mut stage_wall.normalize_s),
            "distance" => (&mut stages.distance, &mut stage_wall.distance_s),
            "minmax" => (&mut stages.minmax, &mut stage_wall.minmax_s),
            "mei" => (&mut stages.mei, &mut stage_wall.mei_s),
            "download" => (&mut stages.download, &mut stage_wall.download_s),
            other => return Err(format!("unknown stage \"{other}\"")),
        };
        *slot = stats;
        *wall_slot = wall;
    }
    let caches = field(doc, "gpu_caches")?;
    // Of the whole `opt` block only the measured microbench walls are
    // inputs; the rollup itself is recomputed by [`to_json`].
    let micro = field(field(doc, "opt")?, "isa_microbench")?;
    let fus = field(doc, "fusion")?;
    let per_frag = field(fus, "normalize_distance_fetches_per_fragment")?;
    let arm = field(fus, "unfused_arm")?;
    let fusion = FusionReport {
        enabled: typed(fus, "enabled", "a boolean", Value::as_bool)?,
        pairs: rows(fus, "pairs", |p| {
            Ok(FusionPairRow {
                producer_kernel: string(p, "producer_kernel")?,
                consumer_kernel: string(p, "consumer_kernel")?,
                mode: string(p, "mode")?,
                count: uint(p, "count")?,
                sites: uint(p, "sites")?,
                fetches_before: uint(p, "fetches_before")?,
                fetches_after: uint(p, "fetches_after")?,
            })
        })?,
        eliminated_passes: uint(fus, "eliminated_passes")?,
        fused_passes: uint(fus, "fused_passes")?,
        unfused_passes: uint(fus, "unfused_passes")?,
        fused_fetches_per_fragment: uint(per_frag, "fused")?,
        unfused_fetches_per_fragment: uint(per_frag, "unfused")?,
        zero_fill_skips: uint(fus, "zero_fill_skips")?,
        unfused_normalize_texel_fetches: uint(arm, "normalize_texel_fetches")?,
        unfused_distance_texel_fetches: uint(arm, "distance_texel_fetches")?,
        unfused_distance_wall_s: num(arm, "distance_wall_s")?,
    };
    let fl = field(doc, "fleet")?;
    let fl_chunking = field(fl, "chunking")?;
    let fleet = FleetReport {
        lines_per_chunk: uint(fl_chunking, "lines_per_chunk")?,
        halo: uint(fl_chunking, "halo")?,
        baseline_device: string(fl, "baseline_device")?,
        baseline_modeled_s: num(fl, "baseline_modeled_s")?,
        shapes: rows(fl, "shapes", |shape| {
            Ok(FleetShapeRun {
                name: string(shape, "name")?,
                devices: rows(shape, "devices", |d| {
                    Ok(FleetDeviceRow {
                        device: string(d, "device")?,
                        planned: uints(d, "planned")?,
                        executed: uints(d, "executed")?,
                        steals: uint(d, "steals")?,
                        modeled_s: num(d, "modeled_s")?,
                        wall_s: num(d, "wall_s")?,
                    })
                })?,
                chunks: uint(shape, "chunks")?,
                steals: uint(shape, "steals")?,
                modeled_makespan_s: num(shape, "modeled_makespan_s")?,
                wall_s: num(shape, "wall_s")?,
            })
        })?,
    };
    let metrics_obj = field(doc, "metrics")?;
    let counters = rows(metrics_obj, "counters", |c| {
        Ok((string(c, "name")?, uint(c, "value")?))
    })?;
    let histograms = rows(metrics_obj, "histograms", |h| {
        let buckets = rows(h, "buckets", |b| {
            Ok(HistBucket {
                lo_ns: uint(b, "lo_ns")?,
                hi_ns: uint(b, "hi_ns")?,
                count: uint(b, "count")?,
            })
        })?;
        let summary = HistSummary {
            count: uint(h, "count")?,
            sum_ns: uint(h, "sum_ns")?,
            p50_ns: uint(h, "p50_ns")?,
            p95_ns: uint(h, "p95_ns")?,
            p99_ns: uint(h, "p99_ns")?,
            buckets,
        };
        Ok((string(h, "name")?, summary))
    })?;
    let arms = rows(field(doc, "analysis")?, "arms", |a| {
        let pack = field(a, "pack")?;
        let bus = field(a, "bus")?;
        let fleet = match field(a, "fleet")? {
            Value::Null => None,
            f => Some(AnalysisFleet {
                makespan_s: num(f, "makespan_s")?,
                steals: uint(f, "steals")?,
                devices: rows(f, "devices", |d| {
                    Ok(AnalysisDevice {
                        device: uint(d, "device")?,
                        label: string(d, "label")?,
                        chunks: uint(d, "chunks")?,
                        stolen: uint(d, "stolen")?,
                        busy_s: num(d, "busy_s")?,
                    })
                })?,
            }),
        };
        Ok(AnalysisArm {
            name: string(a, "name")?,
            wall_s: num(a, "wall_s")?,
            critical_path_s: num(a, "critical_path_s")?,
            critical_path_nodes: uint(a, "critical_path_nodes")?,
            critical_path_stages: rows(a, "critical_path_stages", |st| {
                Ok((string(st, "stage")?, num(st, "self_s")?))
            })?,
            pack_total_s: num(pack, "total_s")?,
            pack_hidden_s: num(pack, "hidden_s")?,
            bus_busy_s: num(bus, "busy_s")?,
            bus_contended_s: num(bus, "contended_s")?,
            threads: rows(a, "threads", |t| {
                Ok(AnalysisThread {
                    name: string(t, "name")?,
                    busy_s: num(t, "busy_s")?,
                })
            })?,
            fleet,
        })
    })?;
    Ok(BenchRun {
        seed: uint(doc, "seed")?,
        threads: uint(doc, "threads")? as usize,
        dims: (
            uint(scene, "width")? as usize,
            uint(scene, "height")? as usize,
            uint(scene, "bands")? as usize,
        ),
        scene_s: num(doc, "scene_generation_s")?,
        gpu_pipeline_s: num(doc, "gpu_pipeline_wall_s")?,
        cpu_tail_s: num(doc, "cpu_tail_wall_s")?,
        tail,
        chunks: uint(doc, "chunks")? as usize,
        endmembers: uint(doc, "endmembers")? as usize,
        stages,
        stage_wall,
        gpu_caches: GpuCacheCounters {
            verify_runs: uint(caches, "verify_runs")?,
            verify_cache_hits: uint(caches, "verify_cache_hits")?,
            lower_runs: uint(caches, "lower_runs")?,
            lower_cache_hits: uint(caches, "lower_cache_hits")?,
            pool_hits: uint(caches, "pool_hits")?,
            texture_allocs: uint(caches, "texture_allocs")?,
        },
        metrics: Snapshot {
            counters,
            histograms,
        },
        opt_wall_raw_s: num(micro, "wall_raw_s")?,
        opt_wall_opt_s: num(micro, "wall_opt_s")?,
        kernel_mode: {
            let name = string(doc, "kernel_mode")?;
            KernelMode::from_name(&name).ok_or_else(|| format!("unknown kernel_mode \"{name}\""))?
        },
        fusion,
        fleet,
        analysis: AnalysisReport { arms },
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A fully-populated fixture shared with the `delta` module's tests.
    pub(crate) fn sample_run() -> BenchRun {
        let mut stages = StageStats::default();
        stages.normalize.passes = 4;
        stages.normalize.fragments = 1024;
        stages.normalize.instructions = 9000;
        stages.normalize.tiles = 8;
        stages.normalize.cache_hits = 700;
        stages.normalize.cache_misses = 44;
        stages.normalize.bytes_written = 1024 * 16;
        stages.upload.bytes_uploaded = 1 << 20;
        BenchRun {
            seed: 7,
            threads: 4,
            dims: (145, 145, 32),
            scene_s: 0.5,
            gpu_pipeline_s: 1.25,
            cpu_tail_s: 0.75,
            tail: TailBreakdown {
                selection_s: 0.4,
                unmix_s: 0.25,
                classify_s: 0.3,
                argmax_s: 0.05,
            },
            chunks: 3,
            endmembers: 30,
            stages,
            stage_wall: StageWall {
                upload_s: 0.011,
                normalize_s: 0.25,
                distance_s: 0.8,
                minmax_s: 0.1,
                mei_s: 0.08,
                download_s: 0.009,
            },
            gpu_caches: GpuCacheCounters {
                verify_runs: 7,
                verify_cache_hits: 1400,
                lower_runs: 7,
                lower_cache_hits: 1400,
                pool_hits: 90,
                texture_allocs: 30,
            },
            metrics: Snapshot {
                counters: vec![
                    ("gpu.pool.hits".into(), 90),
                    ("gpu.verify.cache_hits".into(), 1400),
                ],
                histograms: vec![(
                    "gpu.pass_wall".into(),
                    HistSummary {
                        count: 1407,
                        sum_ns: 2_000_000_000,
                        p50_ns: 1_572_863,
                        p95_ns: 3_145_727,
                        p99_ns: 6_291_455,
                        buckets: vec![
                            HistBucket {
                                lo_ns: 1_048_576,
                                hi_ns: 2_097_151,
                                count: 900,
                            },
                            HistBucket {
                                lo_ns: 4_194_304,
                                hi_ns: 8_388_607,
                                count: 507,
                            },
                        ],
                    },
                )],
            },
            opt_wall_raw_s: 0.041,
            opt_wall_opt_s: 0.034,
            kernel_mode: KernelMode::Isa,
            fusion: FusionReport {
                enabled: true,
                pairs: vec![
                    FusionPairRow {
                        producer_kernel: "normalize".into(),
                        consumer_kernel: "sid_partial".into(),
                        mode: "substitute-site-coord".into(),
                        count: 24,
                        sites: 48,
                        fetches_before: 672,
                        fetches_after: 462,
                    },
                    FusionPairRow {
                        producer_kernel: "band_sum".into(),
                        consumer_kernel: "band_sum".into(),
                        mode: "keep-producer-coords".into(),
                        count: 9,
                        sites: 9,
                        fetches_before: 54,
                        fetches_after: 45,
                    },
                ],
                eliminated_passes: 24,
                fused_passes: 17,
                unfused_passes: 53,
                fused_fetches_per_fragment: 462,
                unfused_fetches_per_fragment: 672,
                zero_fill_skips: 41,
                unfused_normalize_texel_fetches: 19_635,
                unfused_distance_texel_fetches: 52_000,
                unfused_distance_wall_s: 0.31,
            },
            fleet: FleetReport {
                lines_per_chunk: 16,
                halo: 2,
                baseline_device: "7800gtx".into(),
                baseline_modeled_s: 0.024,
                shapes: vec![
                    FleetShapeRun {
                        name: "7800gtx".into(),
                        devices: vec![FleetDeviceRow {
                            device: "7800gtx".into(),
                            planned: vec![0, 1, 2, 3],
                            executed: vec![0, 1, 2, 3],
                            steals: 0,
                            modeled_s: 0.024,
                            wall_s: 1.2,
                        }],
                        chunks: 4,
                        steals: 0,
                        modeled_makespan_s: 0.024,
                        wall_s: 1.2,
                    },
                    FleetShapeRun {
                        name: "7800gtx+7800gtx".into(),
                        devices: vec![
                            FleetDeviceRow {
                                device: "7800gtx".into(),
                                planned: vec![0, 1],
                                executed: vec![0, 1, 3],
                                steals: 1,
                                modeled_s: 0.0075,
                                wall_s: 0.7,
                            },
                            FleetDeviceRow {
                                device: "7800gtx".into(),
                                planned: vec![2, 3],
                                executed: vec![2],
                                steals: 0,
                                modeled_s: 0.005,
                                wall_s: 0.55,
                            },
                        ],
                        chunks: 4,
                        steals: 1,
                        modeled_makespan_s: 0.0125,
                        wall_s: 0.7,
                    },
                ],
            },
            analysis: AnalysisReport {
                arms: vec![
                    AnalysisArm {
                        name: "headline".into(),
                        wall_s: 1.25,
                        critical_path_s: 1.1,
                        critical_path_nodes: 5,
                        critical_path_stages: vec![
                            ("distance".into(), 0.6),
                            ("other".into(), 0.3),
                            ("pack".into(), 0.2),
                        ],
                        pack_total_s: 0.4,
                        pack_hidden_s: 0.3,
                        bus_busy_s: 0.2,
                        bus_contended_s: 0.05,
                        threads: vec![
                            AnalysisThread {
                                name: "main".into(),
                                busy_s: 1.2,
                            },
                            AnalysisThread {
                                name: "packer".into(),
                                busy_s: 0.4,
                            },
                        ],
                        fleet: None,
                    },
                    AnalysisArm {
                        name: "fleet:7800gtx+7800gtx".into(),
                        wall_s: 0.7,
                        critical_path_s: 0.65,
                        critical_path_nodes: 4,
                        critical_path_stages: vec![("other".into(), 0.65)],
                        pack_total_s: 0.1,
                        pack_hidden_s: 0.1,
                        bus_busy_s: 0.0,
                        bus_contended_s: 0.0,
                        threads: vec![
                            AnalysisThread {
                                name: "device0.7800gtx".into(),
                                busy_s: 0.6,
                            },
                            AnalysisThread {
                                name: "device1.7800gtx".into(),
                                busy_s: 0.45,
                            },
                        ],
                        fleet: Some(AnalysisFleet {
                            makespan_s: 0.66,
                            steals: 1,
                            devices: vec![
                                AnalysisDevice {
                                    device: 0,
                                    label: "device0.7800gtx".into(),
                                    chunks: 3,
                                    stolen: 1,
                                    busy_s: 0.6,
                                },
                                AnalysisDevice {
                                    device: 1,
                                    label: "device1.7800gtx".into(),
                                    chunks: 1,
                                    stolen: 0,
                                    busy_s: 0.45,
                                },
                            ],
                        }),
                    },
                ],
            },
        }
    }

    /// [`sample_run`] with a thread name and device labels that need every
    /// kind of escaping, plus non-ASCII text.
    fn hostile_run() -> BenchRun {
        let hostile = "dev \"0\" \\ x\n\u{e9}\u{1F600}";
        let mut run = sample_run();
        run.analysis.arms[0].threads[0].name = format!("main {hostile}");
        let fleet = run.analysis.arms[1].fleet.as_mut().expect("fleet arm");
        fleet.devices[0].label = hostile.to_owned();
        run.fleet.shapes[0].devices[0].device = hostile.to_owned();
        run
    }

    /// The value at a `.`-separated path of object keys and array indices.
    fn at<'a>(doc: &'a Value, path: &str) -> &'a Value {
        path.split('.')
            .fold(doc, |v, step| match step.parse::<usize>() {
                Ok(i) => &v
                    .as_array()
                    .unwrap_or_else(|| panic!("{path}: not an array"))[i],
                Err(_) => v.get(step).unwrap_or_else(|| panic!("{path}: no {step}")),
            })
    }

    fn len(doc: &Value, path: &str) -> usize {
        at(doc, path).as_array().map_or(0, <[Value]>::len)
    }

    #[test]
    fn json_document_is_well_formed_and_complete() {
        let text = to_json(&sample_run());
        let doc = json::parse(&text).expect("the document is JSON");
        // The document is the codec's indented rendering of itself.
        assert_eq!(doc.to_pretty(), text);
        let ints = |v: &[u64]| -> Value { v.iter().copied().collect() };
        let expected: Vec<(&str, Value)> = vec![
            ("schema_version", 7u64.into()),
            ("benchmark", "amc_end_to_end".into()),
            ("kernel_mode", "isa".into()),
            ("threads", 4u64.into()),
            ("amc_wall_s", 2.0.into()),
            ("gpu_pipeline_wall_s", 1.25.into()),
            ("cpu_tail_stages.selection_s", 0.4.into()),
            ("cpu_tail_stages.unmix_s", 0.25.into()),
            ("cpu_tail_stages.classify_s", 0.3.into()),
            ("cpu_tail_stages.argmax_s", 0.05.into()),
            ("stages.0.stage", "upload".into()),
            ("stages.5.stage", "download".into()),
            ("stages.1.tiles", 8u64.into()),
            ("stages.1.cache_hits", 700u64.into()),
            ("stages.1.wall_s", 0.25.into()),
            // Stages with zero modeled time (the zeroed distance stage in
            // this sample) report null skew, not a fake 0.0.
            ("stages.2.wall_over_modeled", Value::Null),
            ("opt.kernels.0.kernel", "band_sum".into()),
            ("opt.kernels.0.raw_instructions", 5u64.into()),
            ("opt.kernels.0.opt_instructions", 4u64.into()),
            ("opt.kernels.5.kernel", "mei_partial".into()),
            ("opt.kernels.5.raw_instructions", 22u64.into()),
            ("opt.kernels.5.opt_instructions", 19u64.into()),
            ("opt.isa_microbench.wall_raw_s", 0.041.into()),
            ("opt.isa_microbench.wall_opt_s", 0.034.into()),
            ("fusion.pairs.0.producer_kernel", "normalize".into()),
            ("fusion.pairs.0.mode", "substitute-site-coord".into()),
            (
                "fusion.normalize_distance_fetches_per_fragment",
                Value::object([("fused", 462u64.into()), ("unfused", 672u64.into())]),
            ),
            ("fusion.static_fetch_reduction_pct", 31.25.into()),
            ("fusion.zero_fill_skips", 41u64.into()),
            ("fusion.unfused_arm.distance_wall_s", 0.31.into()),
            ("fusion.measured_fetch_reduction_pct", 100.0.into()),
            (
                "fleet.chunking",
                Value::object([("lines_per_chunk", 16u64.into()), ("halo", 2u64.into())]),
            ),
            ("fleet.baseline_device", "7800gtx".into()),
            ("fleet.baseline_modeled_s", 0.024.into()),
            ("fleet.shapes.1.name", "7800gtx+7800gtx".into()),
            // 0.024 / 0.0125 — derived from the rounded inputs.
            ("fleet.shapes.1.modeled_speedup", 1.92.into()),
            ("fleet.shapes.1.devices.0.planned", ints(&[0, 1])),
            ("fleet.shapes.1.devices.0.executed", ints(&[0, 1, 3])),
            ("fleet.shapes.1.devices.0.modeled_s", 0.0075.into()),
            ("gpu_caches.verify_runs", 7u64.into()),
            ("metrics.cache_hit_rates.verify", 0.995025.into()),
            ("metrics.histograms.0.name", "gpu.pass_wall".into()),
            ("metrics.histograms.0.count", 1407u64.into()),
            (
                "metrics.histograms.0.buckets",
                Value::Arr(vec![
                    Value::object([
                        ("lo_ns", 1_048_576u64.into()),
                        ("hi_ns", 2_097_151u64.into()),
                        ("count", 900u64.into()),
                    ]),
                    Value::object([
                        ("lo_ns", 4_194_304u64.into()),
                        ("hi_ns", 8_388_607u64.into()),
                        ("count", 507u64.into()),
                    ]),
                ]),
            ),
            ("analysis.arms.0.name", "headline".into()),
            // 1.1 / 1.25 and 0.3 / 0.4 — derived from the rounded inputs.
            ("analysis.arms.0.critical_path_share", 0.88.into()),
            (
                "analysis.arms.0.critical_path_stages.0",
                Value::object([("stage", "distance".into()), ("self_s", 0.6.into())]),
            ),
            (
                "analysis.arms.0.pack",
                Value::object([
                    ("total_s", 0.4.into()),
                    ("hidden_s", 0.3.into()),
                    ("overlap_efficiency", 0.75.into()),
                ]),
            ),
            (
                "analysis.arms.0.bus",
                Value::object([("busy_s", 0.2.into()), ("contended_s", 0.05.into())]),
            ),
            // 1.2 / 1.25 — thread utilization is derived, never parsed.
            (
                "analysis.arms.0.threads.0",
                Value::object([
                    ("name", "main".into()),
                    ("busy_s", 1.2.into()),
                    ("utilization", 0.96.into()),
                ]),
            ),
            ("analysis.arms.0.fleet", Value::Null),
            // mean(0.6, 0.45) / 0.6 — the trace-side balance metric.
            ("analysis.arms.1.fleet.load_balance", 0.875.into()),
            ("analysis.arms.1.fleet.devices.0.device", 0u64.into()),
            (
                "analysis.arms.1.fleet.devices.0.label",
                "device0.7800gtx".into(),
            ),
            ("analysis.arms.1.fleet.devices.0.chunks", 3u64.into()),
            ("analysis.arms.1.fleet.devices.0.stolen", 1u64.into()),
        ];
        for (path, value) in &expected {
            assert_eq!(at(&doc, path), value, "{path} in:\n{text}");
        }
        // Keys present with computed values.
        for path in [
            "stages.1.wall_over_modeled",
            "modeled_kernel_ms_7800gtx",
            "opt.dynamic_instructions_raw",
            "opt.dynamic_reduction_pct",
            "opt.eliminated.consts_folded",
            "opt.modeled_kernel_ms_raw_7800gtx",
            "opt.modeled_kernel_ms_opt_7800gtx",
        ] {
            assert!(at(&doc, path).as_f64().is_some(), "{path} is not a number");
        }
        // 6 pipeline stages, 6 optimizer kernel rows, and the 4
        // critical-path attribution buckets in the sample's analysis arms.
        assert_eq!(len(&doc, "stages"), 6);
        assert_eq!(len(&doc, "opt.kernels"), 6);
        let cp_buckets: usize = (0..len(&doc, "analysis.arms"))
            .map(|i| len(&doc, &format!("analysis.arms.{i}.critical_path_stages")))
            .sum();
        assert_eq!(cp_buckets, 4);
        for i in 0..6 {
            assert_ne!(
                at(&doc, &format!("stages.{i}.wall_over_modeled")),
                &Value::Num(0.0),
                "zero-modeled stages must serialize null skew:\n{text}"
            );
        }
    }

    #[test]
    fn round_trip_is_bit_stable() {
        // Parse → re-serialize must reproduce the document byte for byte;
        // anything less means derived fields drifted from their inputs or a
        // name was not escaped.
        for run in [sample_run(), hostile_run()] {
            let doc = to_json(&run);
            let parsed = from_json(&doc).expect("document parses");
            assert_eq!(to_json(&parsed), doc);
            // And a second round proves the fixed point.
            let doc2 = to_json(&from_json(&to_json(&parsed)).unwrap());
            assert_eq!(doc2, doc);
        }
        let parsed = from_json(&to_json(&hostile_run())).unwrap();
        assert_eq!(
            parsed.analysis.arms[0].threads[0].name,
            hostile_run().analysis.arms[0].threads[0].name
        );
    }

    /// `doc` with its top-level members rewritten by `edit`, re-serialized.
    fn edited(doc: &Value, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let mut doc = doc.clone();
        let Value::Obj(fields) = &mut doc else {
            panic!("the document is an object")
        };
        edit(fields);
        doc.to_pretty()
    }

    #[test]
    fn schema_drift_fails_loudly() {
        let doc = json::parse(&to_json(&sample_run())).unwrap();
        let version = |fields: &[(String, Value)]| {
            let i = fields.iter().position(|(k, _)| k == "schema_version");
            i.expect("versioned document")
        };
        // Wrong version.
        let old = edited(&doc, |f| {
            let i = version(f);
            f[i].1 = 3u64.into();
        });
        let err = from_json(&old).expect_err("version 3 must be rejected");
        assert!(err.contains("schema_version 3"), "{err}");
        // Unversioned document (the pre-observability layout).
        let unversioned = edited(&doc, |f| {
            let i = version(f);
            f.remove(i);
        });
        let err = from_json(&unversioned).expect_err("missing version must be rejected");
        assert!(err.contains("schema_version"), "{err}");
        // A missing input key is an error, not a default.
        let broken = edited(&doc, |f| {
            for (k, _) in f.iter_mut().filter(|(k, _)| k == "cpu_tail_wall_s") {
                *k = "renamed_key".to_owned();
            }
        });
        let err = from_json(&broken).expect_err("missing key must be rejected");
        assert!(err.contains("cpu_tail_wall_s"), "{err}");
    }

    #[test]
    fn opt_rollup_attributes_stage_counters_exactly() {
        // A physically consistent run: 2 chunks, 3 band groups (G=3), 5
        // minmax passes per chunk, 100 fragments per pass, unfused arms
        // counting the optimized per-fragment costs.
        let mut run = sample_run();
        run.chunks = 2;
        let frags = 100u64;
        let s = &mut run.stages;
        s.normalize = PassStats::default();
        s.normalize.passes = 12; // 2 * G * chunks
        s.normalize.fragments = 12 * frags;
        s.normalize.instructions = 6 * frags * (kernels::BAND_SUM_COST + kernels::NORMALIZE_COST);
        s.distance.passes = 8;
        s.distance.fragments = 8 * frags;
        s.distance.instructions = 8 * frags * kernels::SID_PARTIAL_COST;
        s.minmax.passes = 10; // p_B = 5 per chunk
        s.minmax.fragments = 10 * frags;
        s.minmax.instructions =
            2 * frags * kernels::MINMAX_INIT_COST + 8 * frags * kernels::MINMAX_UPDATE_COST;
        s.mei.passes = 6;
        s.mei.fragments = 6 * frags;
        s.mei.instructions = 6 * frags * kernels::MEI_PARTIAL_COST;

        let rollup = opt_rollup(&run);
        let got: Vec<_> = rollup
            .kernels
            .iter()
            .map(|k| {
                (
                    k.name.as_str(),
                    k.raw_instructions,
                    k.opt_instructions,
                    k.passes,
                    k.fragments,
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("band_sum", 5, 4, 6, 600),
                ("normalize", 6, 5, 6, 600),
                ("sid_partial", 14, 12, 8, 800),
                ("minmax_init", 4, 3, 2, 200),
                ("minmax_update", 9, 8, 8, 800),
                ("mei_partial", 22, 19, 6, 600),
            ]
        );
        // The optimized dynamic total reproduces the shaded instruction
        // counters stage for stage — the attribution is exact, not a model.
        let shaded = run.stages.normalize.instructions
            + run.stages.distance.instructions
            + run.stages.minmax.instructions
            + run.stages.mei.instructions;
        assert_eq!(rollup.dynamic_opt(), shaded);
        assert_eq!(rollup.dynamic_raw(), 39_000);
        assert!(
            rollup.reduction_pct() >= 10.0,
            "headline reduction {:.2}% < 10%",
            rollup.reduction_pct()
        );
        // Something must have been eliminated in every category the six
        // kernels exercise.
        assert!(rollup.counters.copies_propagated > 0);
        assert!(rollup.counters.dots_fused > 0);
        assert!(rollup.counters.outputs_coalesced > 0);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        // A foreign writer may escape what this one writes raw (`\/`, `\u`
        // for ASCII and UTF-16 pairs for non-BMP text); the names still
        // decode, seven levels down in the analysis block included.
        let u = |c: u32| format!("\\u{c:04x}");
        let text = to_json(&sample_run())
            .replacen(
                "\"gpu.pool.hits\"",
                &format!("\"gpu\\/pool{}hits\"", u(0x2e)),
                1,
            )
            .replace(
                "\"device1.7800gtx\"",
                &format!("\"device1{}{}\"", u(0xd83d), u(0xde00)),
            );
        let run = from_json(&text).expect("escaped names parse");
        assert_eq!(run.metrics.counters[0].0, "gpu/pool.hits");
        let fleet = run.analysis.arms[1].fleet.as_ref().unwrap();
        assert_eq!(fleet.devices[1].label, "device1\u{1F600}");
    }

    #[test]
    fn every_truncation_of_the_document_is_rejected() {
        let text = to_json(&sample_run());
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            let prefix = &text[..cut];
            if prefix.trim_end() == text.trim_end() {
                continue;
            }
            let err = from_json(prefix).expect_err(prefix);
            assert!(err.contains("at byte"), "{err}");
        }
    }
}
