//! The chunk executor, for one device or a heterogeneous fleet.
//!
//! `execute` is the one chunk loop: [`GpuAmc::run_with_chunking`] calls
//! it with a single device (a fleet of one), and [`DeviceFleet`] calls it
//! with the N simulated [`Gpu`]s of arbitrary mixed profiles it owns,
//! sharding one chunk plan across them:
//!
//! * **Planning** is fleet-shape-independent: the chunking is derived from
//!   the cube, the structuring element and the *smallest* video memory in
//!   the fleet, then refined to expose at least 8 (`TARGET_CHUNKS`)
//!   shardable units. The same shape and inputs always produce the same
//!   chunk list no matter how many devices execute it — the foundation of
//!   the bit-identity guarantee below.
//! * **Placement** uses the analytic perf model
//!   ([`perf::predict_chunk_time_s`]): each chunk is priced per device at
//!   the actual chunk geometry (occupancy, halo overhead, contended bus),
//!   and devices receive contiguous runs of chunks proportional to their
//!   modeled throughput.
//! * **Dispatch** rebalances with work-stealing: a device that drains its
//!   queue steals from the back of the victim with the most remaining
//!   modeled work, so a mispriced device or a ragged tail cannot idle the
//!   fleet. Device 0 runs its dispatch loop on the calling thread; only
//!   devices 1..n get a thread (and a `device<i>.<name>` trace row) each.
//! * **Transfers** overlap shading per device: each device packs the next
//!   chunk at the head of its own queue on a reserved worker while the
//!   current chunk shades (double-buffered upload staging), with the bus
//!   model charging contention when devices share the host link
//!   ([`gpu_sim::bus::BusModel::contended`]).
//!
//! **Compile once.** The fleet owns its [`Gpu`]s for its whole life, so
//! each device's verify, optimizer and lowering caches fill on the first
//! run and hit on every later one; every device's texture pool is drained
//! at the end of each run, whether or not a chunk failed. Devices shade
//! through the caller's one [`GpuAmc`], whose compiled-graph cache is
//! shared and keyed by (profile, chunk geometry): devices of one profile
//! compile each geometry once between them, and a repeat run compiles
//! nothing.
//!
//! **Determinism.** A cached graph or lowering is a pure function of its
//! key, and shading arithmetic is profile-independent in the simulator,
//! so a chunk produces bit-identical texels and [`PassStats`] on every
//! device, cold or warm. Chunk outputs are merged into the global image
//! and the stage counters are folded **in chunk index order** after all
//! devices join — never in completion order — so labels, renders and
//! stats are bit-identical at every fleet shape × thread count × run,
//! extending the tile-order (thread-count) guarantee to device count.
//!
//! [`PassStats`]: gpu_sim::counters::PassStats

use crate::layout;
use crate::perf::{self, PredictConfig};
use crate::pipeline::{ChunkScratch, GpuAmc, PipelineOutput, Result, StageStats, StageWall};
use gpu_sim::device::GpuProfile;
use gpu_sim::gpu::Gpu;
use hsi::cube::{Chunk, Chunking, Cube};
use hsi::morphology::MeiImage;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;
use trace::ArgValue;

/// Structured error for an unrecognized `--devices` entry: carries the
/// offending token and every known short name so the CLI can print an
/// actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownDeviceError {
    /// The token that failed to resolve.
    pub unknown: String,
    /// Every accepted device name, in paper order.
    pub known: &'static [&'static str],
}

impl std::fmt::Display for UnknownDeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown device `{}`; known devices: {}",
            self.unknown,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownDeviceError {}

/// Parse a comma-separated `--devices` list (e.g. `fx5950,7800gtx`) into
/// profiles. Empty tokens and an empty list are rejected like unknown
/// names, so every accepted list yields a runnable fleet.
pub fn parse_device_list(list: &str) -> std::result::Result<Vec<GpuProfile>, UnknownDeviceError> {
    let unknown = |tok: &str| UnknownDeviceError {
        unknown: tok.to_owned(),
        known: GpuProfile::known_device_names(),
    };
    let mut profiles = Vec::new();
    for tok in list.split(',') {
        let tok = tok.trim();
        profiles.push(GpuProfile::by_name(tok).ok_or_else(|| unknown(tok))?);
    }
    if profiles.is_empty() {
        return Err(unknown(list));
    }
    Ok(profiles)
}

/// Minimum chunk count [`DeviceFleet::plan_chunking`] aims for, so a scene
/// that fits one device's memory in a single chunk still yields shardable
/// units. Deliberately independent of the fleet size: the chunk plan — and
/// therefore every counter — must not change with the device count.
const TARGET_CHUNKS: usize = 8;

/// One device's row in the fleet report.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The device's hardware profile.
    pub profile: GpuProfile,
    /// Chunk indices the placement model initially assigned.
    pub planned: Vec<usize>,
    /// Chunk indices actually executed, in execution order.
    pub executed: Vec<usize>,
    /// Chunks this device stole from other queues.
    pub steals: u64,
    /// Modeled busy seconds for the executed chunks (contended bus,
    /// overlapped transfers).
    pub modeled_s: f64,
    /// Measured host wall seconds of this device's dispatch loop.
    pub wall_s: f64,
}

/// Output of one fleet run: the merged pipeline output (bit-identical to a
/// single-device run over the same chunking) plus per-device accounting.
#[derive(Debug, Clone)]
pub struct FleetOutput {
    /// Merged pipeline output, stitched and folded in chunk index order.
    pub pipeline: PipelineOutput,
    /// The chunk plan every device shared.
    pub chunking: Chunking,
    /// Per-device placement, execution and timing rows.
    pub devices: Vec<DeviceReport>,
    /// Total chunks that moved between queues.
    pub steals: u64,
    /// Modeled fleet makespan: the slowest device's modeled busy time.
    pub modeled_makespan_s: f64,
    /// Measured host wall seconds of the parallel dispatch phase.
    pub wall_s: f64,
}

/// What one device's dispatch loop produces: its chunk outputs as
/// `(chunk index, output)` in execution order (the merge re-orders) and
/// its loop wall time.
struct DeviceRun {
    results: Vec<(usize, PipelineOutput)>,
    steals: u64,
    wall_s: f64,
}

/// Shared dispatch state: one deque per device plus the steal log. A
/// single mutex keeps pop-vs-steal atomic; chunk execution dwarfs the
/// lock hold times by orders of magnitude.
struct Dispatch {
    queues: Vec<VecDeque<usize>>,
}

impl Dispatch {
    /// Pop the next chunk for `me`: own queue front first, else steal from
    /// the back of the victim with the most remaining modeled work (its
    /// own-profile pricing), ties broken toward the lower device index.
    fn next(&mut self, me: usize, cost: &[Vec<f64>]) -> Option<(usize, bool)> {
        if let Some(i) = self.queues[me].pop_front() {
            return Some((i, false));
        }
        let victim = (0..self.queues.len())
            .filter(|&v| v != me && !self.queues[v].is_empty())
            .max_by(|&a, &b| {
                let work = |v: usize| self.queues[v].iter().map(|&i| cost[v][i]).sum::<f64>();
                work(a)
                    .partial_cmp(&work(b))
                    .expect("modeled work is finite")
                    // max_by keeps the *last* maximal element; order the tie
                    // so the lower index wins.
                    .then(b.cmp(&a))
            })?;
        let i = self.queues[victim].pop_back().expect("victim is non-empty");
        Some((i, true))
    }

    /// The chunk `me` would pop next, for pack-ahead prefetching.
    fn peek(&self, me: usize) -> Option<usize> {
        self.queues[me].front().copied()
    }
}

/// A fleet of simulated GPUs sharing one host link. The fleet owns its
/// devices, so their compile caches persist from one run to the next.
pub struct DeviceFleet {
    devices: Vec<Gpu>,
}

impl std::fmt::Debug for DeviceFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceFleet")
            .field("profiles", &self.profiles().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl DeviceFleet {
    /// Build a fleet from device profiles (at least one): one [`Gpu`] per
    /// profile, kept for every run.
    pub fn new(profiles: Vec<GpuProfile>) -> Self {
        assert!(!profiles.is_empty(), "a fleet needs at least one device");
        Self {
            devices: profiles.into_iter().map(Gpu::new).collect(),
        }
    }

    /// The device profiles, in fleet order.
    pub fn profiles(&self) -> impl ExactSizeIterator<Item = &GpuProfile> {
        self.devices.iter().map(Gpu::profile)
    }

    /// Plan the shared chunking for a cube: the binary-search planner under
    /// the *smallest* video memory in the fleet (every device must be able
    /// to hold any chunk), refined down so the plan yields at least
    /// `TARGET_CHUNKS` (8) chunks when the image has the lines for it.
    /// Depends on the fleet's *set* of memory sizes only — never on the
    /// device count — so every fleet shape over the same hardware
    /// generation(s) shares one plan.
    pub fn plan_chunking(&self, amc: &GpuAmc, cube: &Cube) -> Result<Chunking> {
        let dims = cube.dims();
        let budget = self
            .profiles()
            .map(GpuProfile::video_memory_bytes)
            .min()
            .expect("fleet is non-empty");
        let planned = amc.plan_chunking_for_budget(budget, dims.width, dims.height, dims.bands)?;
        let target_lines = dims.height.div_ceil(TARGET_CHUNKS);
        Ok(Chunking::new(
            planned.lines_per_chunk.min(target_lines.max(1)),
            planned.halo,
        ))
    }

    /// Run the full pipeline over a cube across the fleet.
    pub fn run(&mut self, amc: &GpuAmc, cube: &Cube) -> Result<FleetOutput> {
        let chunking = self.plan_chunking(amc, cube)?;
        self.run_with_chunking(amc, cube, chunking)
    }

    /// Run with an explicit (fleet-shape-independent) chunking.
    pub fn run_with_chunking(
        &mut self,
        amc: &GpuAmc,
        cube: &Cube,
        chunking: Chunking,
    ) -> Result<FleetOutput> {
        execute(&mut self.devices, amc, cube, chunking)
    }

    /// Modeled seconds a *single* device of `profile` (uncontended bus)
    /// needs for the same chunk list — the baseline of the scaling curve
    /// and the ≥ 1.8× CI gate.
    pub fn modeled_single_device_s(
        amc: &GpuAmc,
        cube: &Cube,
        chunking: Chunking,
        profile: &GpuProfile,
    ) -> f64 {
        let cfg = PredictConfig::default();
        cube.chunks(chunking)
            .map(|c| {
                let d = c.cube.dims();
                perf::predict_chunk_time_s(d.width, d.height, d.bands, amc.se(), profile, 1, &cfg)
            })
            .sum()
    }
}

/// Price every chunk on every device: `cost[d][i]` is the modeled seconds
/// device `d` spends on chunk `i` (exact predicted counters at the chunk
/// geometry, contended bus, overlapped transfers).
fn chunk_costs(devices: &[Gpu], amc: &GpuAmc, chunks: &[Chunk]) -> Vec<Vec<f64>> {
    let cfg = PredictConfig::default();
    devices
        .iter()
        .map(|gpu| {
            chunks
                .iter()
                .map(|c| {
                    let d = c.cube.dims();
                    perf::predict_chunk_time_s(
                        d.width,
                        d.height,
                        d.bands,
                        amc.se(),
                        gpu.profile(),
                        devices.len(),
                        &cfg,
                    )
                })
                .collect()
        })
        .collect()
}

/// Initial placement: contiguous runs of chunks proportional to each
/// device's modeled throughput. The ideal makespan of a perfectly
/// divisible workload is `1 / Σ_d (1/T_d)` where `T_d` is device `d`'s
/// time for the *whole* chunk list; each device takes chunks until its own
/// cost load reaches that ideal, and the last device takes the remainder.
/// Deterministic: pure arithmetic over the cost matrix.
fn place(cost: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n_dev = cost.len();
    let n_chunks = cost[0].len();
    let totals: Vec<f64> = cost.iter().map(|row| row.iter().sum()).collect();
    let ideal = 1.0 / totals.iter().map(|&t| 1.0 / t.max(1e-30)).sum::<f64>();
    let mut placement = vec![Vec::new(); n_dev];
    let (mut d, mut load) = (0usize, 0.0f64);
    // A range loop on purpose: the row `cost[d]` changes as `d` advances
    // mid-walk, so there is no single slice to iterate.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n_chunks {
        // Move on once the device is at (or past) its fair share —
        // charging half the next chunk keeps the boundary chunk with
        // whichever side it overlaps more.
        if d + 1 < n_dev && load + cost[d][i] / 2.0 > ideal {
            d += 1;
            load = 0.0;
        }
        placement[d].push(i);
        load += cost[d][i];
    }
    placement
}

/// Run the six-stage pipeline over every chunk of `cube` on `devices` (at
/// least one): price and place the chunks, run one work-stealing dispatch
/// loop per device, then stitch bodies and fold counters in chunk index
/// order. Device 0's loop runs on the calling thread. Every device's pool
/// is drained before returning, whether or not a chunk failed.
pub(crate) fn execute(
    devices: &mut [Gpu],
    amc: &GpuAmc,
    cube: &Cube,
    chunking: Chunking,
) -> Result<FleetOutput> {
    let dims = cube.dims();
    let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
    let cost = chunk_costs(devices, amc, &chunks);
    let placement = place(&cost);
    let n_dev = devices.len();
    // Wall anchor for the analyzer: brackets dispatch through merge so
    // per-device `fleet.chunk` spans reconstruct into one fleet DAG.
    let _run_span = trace::span_with(
        "fleet.run",
        "run",
        &[
            ("devices", ArgValue::U64(n_dev as u64)),
            ("chunks", ArgValue::U64(chunks.len() as u64)),
        ],
    );

    // Devices 1..n run outside the worker pool: each device gets an equal
    // share of the advertised width, at least one. With more devices than
    // the cap (say 2 devices at a cap of 1) the fleet therefore shades on
    // more threads than a single-device run would. The override is
    // thread-local, so each device thread re-establishes its share.
    let per_device_threads = (rayon::max_threads() / n_dev).max(1);
    let dispatch = Mutex::new(Dispatch {
        queues: placement
            .iter()
            .map(|p| p.iter().copied().collect())
            .collect(),
    });

    let fleet_start = Instant::now();
    let (first, rest) = devices
        .split_first_mut()
        .expect("a fleet needs at least one device");
    let runs: Vec<Result<DeviceRun>> = std::thread::scope(|s| {
        let (chunks, cost, dispatch) = (&chunks, &cost, &dispatch);
        let handles: Vec<_> = (1..)
            .zip(rest.iter_mut())
            .map(|(me, gpu)| {
                s.spawn(move || {
                    if trace::enabled() {
                        // One Perfetto row per extra device: upload/stage/
                        // pass spans emitted while it shades land on it, so
                        // overlap across devices is visible at a glance.
                        let name = gpu.profile().short_name();
                        trace::set_thread_name(&format!("device{me}.{name}"));
                    }
                    rayon::with_threads(per_device_threads, || {
                        dispatch_loop(me, gpu, amc, chunks, cost, dispatch)
                    })
                })
            })
            .collect();
        // Device 0 shades on the calling thread: a one-device run spawns
        // no device thread, and so no per-run thread arena either.
        let mut runs = vec![rayon::with_threads(per_device_threads, || {
            dispatch_loop(0, first, amc, chunks, cost, dispatch)
        })];
        runs.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("device thread panicked")),
        );
        runs
    });
    for gpu in devices.iter_mut() {
        gpu.drain_pool();
    }
    let wall_s = fleet_start.elapsed().as_secs_f64();

    // Deterministic merge: park every chunk result in its slot, then
    // stitch bodies and fold counters in chunk index order.
    let mut slots: Vec<Option<PipelineOutput>> = (0..chunks.len()).map(|_| None).collect();
    let mut reports = Vec::with_capacity(n_dev);
    for (me, (run, planned)) in runs.into_iter().zip(placement).enumerate() {
        let run = run?;
        let executed: Vec<usize> = run.results.iter().map(|&(i, _)| i).collect();
        for (i, out) in run.results {
            debug_assert!(slots[i].is_none(), "chunk executed twice");
            slots[i] = Some(out);
        }
        reports.push(DeviceReport {
            profile: devices[me].profile().clone(),
            modeled_s: executed.iter().map(|&i| cost[me][i]).sum(),
            planned,
            executed,
            steals: run.steals,
            wall_s: run.wall_s,
        });
    }

    let mut mei_scores = vec![0.0f32; dims.pixels()];
    let mut min_index = vec![0u32; dims.pixels()];
    let mut max_index = vec![0u32; dims.pixels()];
    let mut stages = StageStats::default();
    let mut stage_wall = StageWall::default();
    for (chunk, slot) in chunks.iter().zip(slots) {
        let out = slot.expect("every chunk executed");
        let cw = chunk.cube.dims().width;
        for local_y in chunk.body_range() {
            let global_y = chunk.y_start + (local_y - chunk.halo_top);
            let src = local_y * cw;
            let dst = global_y * dims.width;
            mei_scores[dst..dst + cw].copy_from_slice(&out.mei.scores[src..src + cw]);
            min_index[dst..dst + cw].copy_from_slice(&out.min_index[src..src + cw]);
            max_index[dst..dst + cw].copy_from_slice(&out.max_index[src..src + cw]);
        }
        stages.add(&out.stages);
        stage_wall.add(&out.stage_wall);
    }

    Ok(FleetOutput {
        pipeline: PipelineOutput {
            mei: MeiImage {
                width: dims.width,
                height: dims.height,
                scores: mei_scores,
            },
            min_index,
            max_index,
            stats: stages.total(),
            stages,
            stage_wall,
            chunks: chunks.len(),
        },
        chunking,
        steals: reports.iter().map(|d| d.steals).sum(),
        modeled_makespan_s: reports.iter().map(|d| d.modeled_s).fold(0.0f64, f64::max),
        devices: reports,
        wall_s,
    })
}

/// One device's dispatch loop: pop (or steal) chunks until the fleet
/// drains, shading each on this device while a reserved worker packs the
/// next chunk at the head of the own queue.
fn dispatch_loop(
    me: usize,
    gpu: &mut Gpu,
    amc: &GpuAmc,
    chunks: &[Chunk],
    cost: &[Vec<f64>],
    dispatch: &Mutex<Dispatch>,
) -> Result<DeviceRun> {
    let mut scratch = ChunkScratch::default();
    let mut results = Vec::new();
    let mut steals = 0u64;
    // Double-buffered staging: `prepacked` holds the chunk a packer thread
    // prepared while the previous chunk shaded; `spare` is the buffer set
    // the next packer fills.
    let mut prepacked: Option<(usize, Vec<Vec<f32>>)> = None;
    let mut spare: Vec<Vec<f32>> = Vec::new();
    let start = Instant::now();
    loop {
        let Some((i, stolen)) = dispatch.lock().unwrap().next(me, cost) else {
            break;
        };
        steals += stolen as u64;
        let chunk_span = trace::span_with(
            "fleet.chunk",
            "chunk",
            &[
                ("device", ArgValue::U64(me as u64)),
                ("index", ArgValue::U64(i as u64)),
                ("stolen", ArgValue::U64(stolen as u64)),
            ],
        );
        let chunk_start = Instant::now();
        // Use the prefetched buffers when they are for this chunk; the
        // first chunk, or a steal (ours or another device's), has none, so
        // pack synchronously and recycle the buffers.
        let packed = match prepacked.take() {
            Some((j, bufs)) if j == i => bufs,
            other => {
                let mut bufs = other.map(|(_, b)| b).unwrap_or_default();
                layout::pack_cube_into(&chunks[i].cube, &mut bufs);
                bufs
            }
        };
        // Prefetch the next chunk still at the head of the own queue (best
        // effort: it may be stolen before this device pops again).
        let next = dispatch.lock().unwrap().peek(me);
        let cd = chunks[i].cube.dims();
        let (result, next_bufs) = std::thread::scope(|s| {
            let packer = next.map(|j| {
                let mut buf = std::mem::take(&mut spare);
                s.spawn(move || {
                    if trace::enabled() {
                        // One stable row per device: the scope joins each
                        // packer before the next spawns.
                        trace::set_thread_name(&format!("device{me}.packer"));
                    }
                    let _pack = trace::span_with(
                        "fleet.pack",
                        "pack",
                        &[
                            ("device", ArgValue::U64(me as u64)),
                            ("chunk", ArgValue::U64(j as u64)),
                        ],
                    );
                    layout::pack_cube_into(&chunks[j].cube, &mut buf);
                    (j, buf)
                })
            });
            // The packer owns one of this device's workers while it runs,
            // so the device never shades on more threads than its share.
            let _packer_core = packer.as_ref().map(|_| rayon::reserve_thread());
            let result =
                amc.run_chunk_packed(gpu, cd.width, cd.height, cd.bands, &packed, &mut scratch);
            let next_bufs = packer.map(|h| h.join().expect("packer thread panicked"));
            (result, next_bufs)
        });
        results.push((i, result?));
        prepacked = next_bufs;
        spare = packed;
        trace::metrics::observe("fleet.chunk_wall", chunk_start.elapsed());
        drop(chunk_span);
    }
    Ok(DeviceRun {
        results,
        steals,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Merge helper used by the tests: bit-pattern view of an MEI image.
#[cfg(test)]
fn mei_bits(m: &MeiImage) -> Vec<u32> {
    m.scores.iter().map(|s| s.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::KernelMode;
    use hsi::cube::{Cube, CubeDims, Interleave};
    use hsi::morphology::StructuringElement;
    use proptest::prelude::*;

    fn test_cube(w: usize, h: usize, bands: usize) -> Cube {
        Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
            1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
        })
        .unwrap()
    }

    fn fleet_shapes() -> Vec<Vec<GpuProfile>> {
        let fx = GpuProfile::fx5950_ultra;
        let g70 = GpuProfile::geforce_7800gtx;
        vec![
            vec![fx()],
            vec![g70()],
            vec![fx(), g70()],
            vec![g70(), g70()],
            vec![fx(), g70(), g70(), fx()],
        ]
    }

    fn assert_same_pipeline(a: &PipelineOutput, b: &PipelineOutput, label: &str) {
        assert_eq!(mei_bits(&a.mei), mei_bits(&b.mei), "MEI diverged: {label}");
        assert_eq!(a.min_index, b.min_index, "{label}");
        assert_eq!(a.max_index, b.max_index, "{label}");
        assert_eq!(a.stages, b.stages, "{label}");
        assert_eq!(a.stats, b.stats, "{label}");
        assert_eq!(a.chunks, b.chunks, "{label}");
    }

    #[test]
    fn parse_device_list_resolves_and_rejects() {
        let profiles = parse_device_list("fx5950,7800gtx,7800gtx").unwrap();
        assert_eq!(profiles.len(), 3);
        assert_eq!(profiles[0], GpuProfile::fx5950_ultra());
        assert_eq!(profiles[2], GpuProfile::geforce_7800gtx());
        // Whitespace-tolerant.
        assert!(parse_device_list(" 7800gtx , fx5950 ").is_ok());
        let err = parse_device_list("fx5950,riva128").unwrap_err();
        assert_eq!(err.unknown, "riva128");
        assert_eq!(err.known, GpuProfile::known_device_names());
        let msg = err.to_string();
        assert!(msg.contains("riva128") && msg.contains("fx5950") && msg.contains("7800gtx"));
        assert!(parse_device_list("").is_err());
    }

    #[test]
    fn chunk_plan_is_fleet_shape_independent() {
        let cube = test_cube(48, 40, 12);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let plans: Vec<Chunking> = fleet_shapes()
            .into_iter()
            .map(|p| DeviceFleet::new(p).plan_chunking(&amc, &cube).unwrap())
            .collect();
        for plan in &plans {
            assert_eq!(plan, &plans[0], "chunk plan varies with fleet shape");
        }
        // The refined plan actually yields multiple shardable chunks.
        assert!(cube.chunks(plans[0]).count() >= 4);
    }

    #[test]
    fn placement_is_proportional_to_modeled_throughput() {
        let cube = test_cube(64, 48, 8);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let fleet = DeviceFleet::new(vec![
            GpuProfile::fx5950_ultra(),
            GpuProfile::geforce_7800gtx(),
        ]);
        let chunking = fleet.plan_chunking(&amc, &cube).unwrap();
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let cost = chunk_costs(&fleet.devices, &amc, &chunks);
        let placement = place(&cost);
        // Every chunk placed exactly once, contiguously, in order.
        let flat: Vec<usize> = placement.iter().flatten().copied().collect();
        assert_eq!(flat, (0..chunks.len()).collect::<Vec<_>>());
        // The 24-pipe 7800GTX gets at least as many chunks as the FX5950.
        assert!(
            placement[1].len() >= placement[0].len(),
            "placement {placement:?}"
        );
        assert!(!placement[0].is_empty() || chunks.len() == 1);
    }

    #[test]
    fn fleet_output_matches_single_device_chunked_run_bitwise() {
        // The acceptance property at test scale: every fleet shape, both
        // sequential and at the default thread pool, reproduces the
        // single-device chunked executor bit for bit — labels (via MEI),
        // indices and every per-stage counter — including a ragged tail
        // (40 lines over 6-line bodies).
        let cube = test_cube(48, 40, 10);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let chunking = Chunking::new(6, 1);
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let reference = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
        assert!(!cube.dims().height.is_multiple_of(chunking.lines_per_chunk));
        for shape in fleet_shapes() {
            for threads in [1, rayon::max_threads().max(2)] {
                let mut fleet = DeviceFleet::new(shape.clone());
                let out = rayon::with_threads(threads, || {
                    fleet.run_with_chunking(&amc, &cube, chunking).unwrap()
                });
                let label = format!("shape {shape:?} threads {threads}");
                assert_same_pipeline(&out.pipeline, &reference, &label);
                // Accounting invariants: every chunk executed exactly once.
                let mut all: Vec<usize> = out
                    .devices
                    .iter()
                    .flat_map(|d| d.executed.clone())
                    .collect();
                all.sort_unstable();
                assert_eq!(all, (0..reference.chunks).collect::<Vec<_>>(), "{label}");
                assert_eq!(
                    out.steals,
                    out.devices.iter().map(|d| d.steals).sum::<u64>(),
                    "{label}"
                );
            }
        }
    }

    /// Per-device compile counters: (verifications, lowerings, optimizer
    /// runs).
    fn compile_counts(fleet: &DeviceFleet) -> Vec<(u64, u64, u64)> {
        fleet
            .devices
            .iter()
            .map(|g| (g.verifications(), g.lowerings(), g.opt_runs()))
            .collect()
    }

    /// Run until every device has shaded at least one chunk: a device whose
    /// whole queue was stolen before its thread started has compiled
    /// nothing yet. Returns the first run's output.
    fn run_cold(fleet: &mut DeviceFleet, amc: &GpuAmc, cube: &Cube, c: Chunking) -> FleetOutput {
        let first = fleet.run_with_chunking(amc, cube, c).unwrap();
        let mut idle: Vec<bool> = first
            .devices
            .iter()
            .map(|d| d.executed.is_empty())
            .collect();
        while idle.iter().any(|&i| i) {
            let out = fleet.run_with_chunking(amc, cube, c).unwrap();
            for (i, d) in idle.iter_mut().zip(&out.devices) {
                *i &= d.executed.is_empty();
            }
        }
        first
    }

    #[test]
    fn a_reused_fleet_is_bit_identical_and_compiles_nothing_warm() {
        // The fleet keeps its devices: a warm run reproduces the cold run
        // bit for bit without a single verification, lowering or optimizer
        // run, a cube of another geometry in between changes nothing, and
        // every run leaves the devices with no texture allocated or pooled.
        let cube = test_cube(48, 40, 10);
        let other = test_cube(30, 26, 7);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let chunking = Chunking::new(6, 1);
        let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
        let other_reference = amc.run_with_chunking(&mut gpu, &other, chunking).unwrap();
        for shape in fleet_shapes() {
            let mut fleet = DeviceFleet::new(shape.clone());
            let cold = run_cold(&mut fleet, &amc, &cube, chunking);
            let warmed = compile_counts(&fleet);
            // The runs shaded on the fleet's own devices.
            assert!(warmed.iter().all(|&(v, l, _)| v > 0 && l > 0), "{shape:?}");
            let warm = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
            assert_eq!(
                compile_counts(&fleet),
                warmed,
                "warm run compiled: {shape:?}"
            );
            assert_same_pipeline(&warm.pipeline, &cold.pipeline, &format!("warm {shape:?}"));
            let between = fleet.run_with_chunking(&amc, &other, chunking).unwrap();
            assert_same_pipeline(
                &between.pipeline,
                &other_reference,
                &format!("other geometry {shape:?}"),
            );
            let warmed = compile_counts(&fleet);
            let again = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
            assert_eq!(compile_counts(&fleet), warmed, "rerun compiled: {shape:?}");
            assert_same_pipeline(&again.pipeline, &cold.pipeline, &format!("rerun {shape:?}"));
            for g in &fleet.devices {
                assert_eq!((g.allocated_bytes(), g.pooled_bytes()), (0, 0), "{shape:?}");
            }
        }
    }

    #[test]
    fn work_stealing_rebalances_a_skewed_placement() {
        // Force all chunks onto device 0's queue; device 1 must steal to
        // participate, and the merged output must stay correct.
        let cube = test_cube(32, 36, 6);
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let chunking = Chunking::new(4, 1);
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let mut fleet = DeviceFleet::new(vec![
            GpuProfile::geforce_7800gtx(),
            GpuProfile::geforce_7800gtx(),
        ]);
        let cost = chunk_costs(&fleet.devices, &amc, &chunks);
        let mut dispatch = Dispatch {
            queues: vec![(0..chunks.len()).collect(), VecDeque::new()],
        };
        // Device 1 steals from the back of device 0's queue.
        let (i, stolen) = dispatch.next(1, &cost).unwrap();
        assert!(stolen);
        assert_eq!(i, chunks.len() - 1);
        // Device 0 still pops its own front.
        let (i, stolen) = dispatch.next(0, &cost).unwrap();
        assert!(!stolen);
        assert_eq!(i, 0);
        // And the real executor ends with nothing left behind.
        let out = fleet.run_with_chunking(&amc, &cube, chunking).unwrap();
        let executed: usize = out.devices.iter().map(|d| d.executed.len()).sum();
        assert_eq!(executed, chunks.len());
    }

    #[test]
    fn modeled_two_7800gtx_clear_the_scaling_gate_at_bench_geometry() {
        // The CI gate's model-side precondition at the real bench scene
        // geometry (160×128×96): two 7800GTXs on a shared PCIe x16 link
        // must model ≥ 1.8× the single-device throughput under the fleet
        // chunk plan.
        let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
        let cube = test_cube(160, 128, 96);
        let g70 = GpuProfile::geforce_7800gtx();
        let fleet = DeviceFleet::new(vec![g70.clone(), g70.clone()]);
        let chunking = fleet.plan_chunking(&amc, &cube).unwrap();
        let chunks: Vec<Chunk> = cube.chunks(chunking).collect();
        let cost = chunk_costs(&fleet.devices, &amc, &chunks);
        let placement = place(&cost);
        let makespan = placement
            .iter()
            .enumerate()
            .map(|(d, p)| p.iter().map(|&i| cost[d][i]).sum::<f64>())
            .fold(0.0f64, f64::max);
        let single = DeviceFleet::modeled_single_device_s(&amc, &cube, chunking, &g70);
        let speedup = single / makespan;
        assert!(
            speedup >= 1.8,
            "modeled 2x7800GTX speedup {speedup:.3} < 1.8 (single {single:.6}s, makespan {makespan:.6}s)"
        );
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(6))]
        #[test]
        fn fleet_bit_identity_holds_for_random_geometry(
            width in 12usize..40,
            height in 9usize..36,
            bands in 2usize..10,
            lines in 3usize..7,
        ) {
            // Random cube geometry (usually with a ragged last chunk) ×
            // every fleet shape × sequential and pooled threading: the MEI
            // bits, state indices and per-stage counters must match the
            // single-device chunked run exactly.
            let cube = test_cube(width, height, bands);
            let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
            let chunking = Chunking::new(lines, 1);
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            let reference = amc.run_with_chunking(&mut gpu, &cube, chunking).unwrap();
            for shape in fleet_shapes() {
                for threads in [1, rayon::max_threads().max(2)] {
                    let mut fleet = DeviceFleet::new(shape.clone());
                    let out = rayon::with_threads(threads, || {
                        fleet.run_with_chunking(&amc, &cube, chunking).unwrap()
                    });
                    prop_assert_eq!(mei_bits(&out.pipeline.mei), mei_bits(&reference.mei));
                    prop_assert_eq!(&out.pipeline.min_index, &reference.min_index);
                    prop_assert_eq!(&out.pipeline.max_index, &reference.max_index);
                    prop_assert_eq!(&out.pipeline.stages, &reference.stages);
                }
            }
        }
    }
}
