//! The workloads: their scenes, the state they keep across scenes, and one
//! closed-loop step (one scene, one client) through the public APIs.

use amc_core::fleet::DeviceFleet;
use amc_core::pipeline::{AmcError, GpuAmc, KernelMode, PipelineOutput};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::classify::{AmcClassifier, AmcConfig, TailBreakdown};
use hsi::cube::Chunking;
use hsi_scene::library::indian_pines_classes;
use hsi_scene::scene::{generate, SceneConfig, SyntheticScene};
use std::time::Instant;

/// Endmembers (classes) the classifier extracts: the library's 32 classes.
pub const CLASSES: usize = 32;

/// Distinct reduced scenes every workload cycles through.
pub const SCENES: u64 = 3;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reduced Indian Pines, full `run_and_classify` on one reused 7800GTX.
    HybridWarm,
    /// Same scenes, GPU phase only, through a fleet of two 7800GTX.
    FleetPair,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 2] = [Kind::HybridWarm, Kind::FleetPair];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::HybridWarm => "hybrid_warm",
            Kind::FleetPair => "fleet_pair",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The scene configurations, derived from the workload seed only.
pub fn scene_configs(seed: u64) -> Vec<SceneConfig> {
    (0..SCENES)
        .map(|k| SceneConfig::reduced_indian_pines(derive_seed(seed, k)))
        .collect()
}

/// SplitMix64 of `seed` and the scene ordinal: distinct, reproducible seeds.
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The device every workload runs on and prices its modeled time with.
pub fn profile() -> GpuProfile {
    GpuProfile::geforce_7800gtx()
}

/// Generate one scene from the Indian Pines class library.
pub fn generate_scene(config: &SceneConfig) -> SyntheticScene {
    generate(&indian_pines_classes(), config)
}

/// The classifier configuration every workload uses.
pub fn classifier() -> AmcClassifier {
    AmcClassifier::new(AmcConfig::paper_default(CLASSES))
}

/// What the classification tail returned for one scene.
#[derive(Debug, Clone)]
pub struct TailRun {
    /// Labels per pixel.
    pub labels: Vec<u16>,
    /// Endmembers extracted.
    pub endmembers: usize,
    /// Tail wall seconds as the program reports it.
    pub wall_s: f64,
    /// The tail's own breakdown.
    pub breakdown: TailBreakdown,
}

/// What the fleet returned for one scene, beyond the merged pipeline.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// Wall seconds of the parallel dispatch phase.
    pub dispatch_s: f64,
    /// Wall seconds of each device's dispatch loop.
    pub device_wall_s: Vec<f64>,
    /// Chunks that moved between queues.
    pub steals: u64,
    /// Modeled fleet makespan, seconds.
    pub modeled_makespan_s: f64,
}

/// One scene's result.
#[derive(Debug, Clone)]
pub struct SceneRun {
    /// Wall seconds of the whole scene.
    pub wall_s: f64,
    /// The GPU phase's output.
    pub pipeline: PipelineOutput,
    /// Wall seconds of the GPU phase.
    pub gpu_phase_s: f64,
    /// The chunk plan the GPU phase used.
    pub chunking: Chunking,
    /// The tail's result, on `hybrid_warm`.
    pub tail: Option<TailRun>,
    /// The fleet's accounting, on `fleet_pair`.
    pub fleet: Option<FleetRun>,
}

/// The state a workload keeps across scenes.
pub enum Runner {
    /// One `GpuAmc` and device reused for every scene.
    Hybrid {
        /// The device.
        gpu: Box<Gpu>,
        /// The pipeline (keeps its compiled-graph cache).
        amc: GpuAmc,
    },
    /// A fleet and `GpuAmc` reused for every scene. The fleet builds fresh
    /// devices inside every run.
    Fleet {
        /// The fleet.
        fleet: DeviceFleet,
        /// The pipeline whose configuration every device clones.
        amc: GpuAmc,
    },
}

impl Runner {
    /// Construct the workload's `GpuAmc` and devices.
    pub fn new(kind: Kind) -> Self {
        let amc = GpuAmc::new(classifier().config().se.clone(), KernelMode::Isa);
        match kind {
            Kind::HybridWarm => Runner::Hybrid {
                gpu: Box::new(Gpu::new(profile())),
                amc,
            },
            Kind::FleetPair => Runner::Fleet {
                fleet: DeviceFleet::new(vec![profile(); 2]),
                amc,
            },
        }
    }

    /// Run one scene through the workload's public entry point.
    pub fn run_scene(
        &mut self,
        scene: &SyntheticScene,
        classifier: &AmcClassifier,
    ) -> Result<SceneRun, AmcError> {
        let cube = &scene.cube;
        let start = Instant::now();
        match self {
            Runner::Hybrid { gpu, amc } => {
                let out = amc.run_and_classify(gpu, cube, classifier)?;
                let wall_s = start.elapsed().as_secs_f64();
                // The plan is pure arithmetic, so it is repeated outside the
                // timed region rather than read from inside the run.
                let chunking = amc.plan_chunking(gpu, cube)?;
                Ok(SceneRun {
                    wall_s,
                    gpu_phase_s: out.gpu_wall_s,
                    chunking,
                    tail: Some(TailRun {
                        endmembers: out.classification.class_count(),
                        labels: out.classification.labels,
                        wall_s: out.tail_wall_s,
                        breakdown: out.tail,
                    }),
                    fleet: None,
                    pipeline: out.pipeline,
                })
            }
            Runner::Fleet { fleet, amc } => {
                let out = fleet.run(amc, cube)?;
                let wall_s = start.elapsed().as_secs_f64();
                Ok(SceneRun {
                    wall_s,
                    gpu_phase_s: wall_s,
                    chunking: out.chunking,
                    tail: None,
                    fleet: Some(FleetRun {
                        dispatch_s: out.wall_s,
                        device_wall_s: out.devices.iter().map(|d| d.wall_s).collect(),
                        steals: out.steals,
                        modeled_makespan_s: out.modeled_makespan_s,
                    }),
                    pipeline: out.pipeline,
                })
            }
        }
    }
}
