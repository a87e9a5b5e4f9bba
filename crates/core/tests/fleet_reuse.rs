//! A reused fleet compiles nothing, read through the process-global
//! `trace::metrics` counters and the `pipeline.graph_compile` spans.
//!
//! Both are process-wide, so this file holds exactly one test: Cargo runs
//! each integration-test file as its own process, and no other test can
//! shade (and count) while this one reads the registry.

use amc_core::fleet::{DeviceFleet, FleetOutput};
use amc_core::pipeline::{GpuAmc, KernelMode};
use gpu_sim::device::GpuProfile;
use hsi::cube::{Cube, CubeDims, Interleave};
use hsi::morphology::StructuringElement;
use trace::Phase;

fn test_cube(w: usize, h: usize, bands: usize) -> Cube {
    Cube::from_fn(CubeDims::new(w, h, bands), Interleave::Bip, |x, y, b| {
        1.0 + ((x * 31 + y * 17 + b * 7) % 23) as f32
    })
    .unwrap()
}

/// Verify, lowering and optimizer runs counted so far, process-wide.
fn compile_counters() -> [u64; 3] {
    let snap = trace::metrics::snapshot();
    let get = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    [
        get("gpu.verify.runs"),
        get("gpu.lower.runs"),
        get("gpu.opt.runs"),
    ]
}

/// Run the fleet and report the run's output, its compile-counter deltas
/// and how many render graphs it compiled.
fn counted_run(
    fleet: &mut DeviceFleet,
    amc: &GpuAmc,
    cube: &Cube,
) -> (FleetOutput, [u64; 3], usize) {
    let before = compile_counters();
    trace::reset();
    let out = fleet.run(amc, cube).unwrap();
    let after = compile_counters();
    let graph_compiles = trace::drain_events()
        .iter()
        .filter(|e| e.cat == "pipeline.graph_compile" && e.phase == Phase::Begin)
        .count();
    let delta = [0, 1, 2].map(|i| after[i] - before[i]);
    (out, delta, graph_compiles)
}

#[test]
fn a_reused_fleet_verifies_lowers_optimizes_and_compiles_nothing() {
    trace::enable();
    let amc = GpuAmc::new(StructuringElement::square(3).unwrap(), KernelMode::Isa);
    let g70 = GpuProfile::geforce_7800gtx();
    let mut fleet = DeviceFleet::new(vec![g70.clone(), g70]);
    let cube = test_cube(48, 62, 12);
    let other = test_cube(40, 30, 9);

    let (cold, delta, graphs) = counted_run(&mut fleet, &amc, &cube);
    assert!(cold.pipeline.chunks > 2, "the plan must shard the cube");
    assert!(delta.iter().all(|&d| d > 0), "cold run counted {delta:?}");
    assert!(graphs > 0, "cold run compiled no graph");
    // A device whose queue was stolen before its thread started has not
    // compiled yet; rerun until both have shaded, so the next run is warm.
    let mut idle: Vec<bool> = cold.devices.iter().map(|d| d.executed.is_empty()).collect();
    while idle.iter().any(|&i| i) {
        let out = fleet.run(&amc, &cube).unwrap();
        for (i, d) in idle.iter_mut().zip(&out.devices) {
            *i &= d.executed.is_empty();
        }
    }

    let (warm, delta, graphs) = counted_run(&mut fleet, &amc, &cube);
    assert_eq!(delta, [0, 0, 0], "warm run verify/lower/opt runs");
    assert_eq!(graphs, 0, "warm run compiled a render graph");
    let bits = |o: &FleetOutput| -> Vec<u32> {
        o.pipeline.mei.scores.iter().map(|s| s.to_bits()).collect()
    };
    assert_eq!(bits(&warm), bits(&cold));
    assert_eq!(warm.pipeline.min_index, cold.pipeline.min_index);
    assert_eq!(warm.pipeline.max_index, cold.pipeline.max_index);
    assert_eq!(warm.pipeline.stages, cold.pipeline.stages);
    assert_eq!(warm.pipeline.stats, cold.pipeline.stats);

    // Another geometry compiles its own graphs; the first cube's stay
    // cached, so going back costs nothing again.
    let (_, _, graphs) = counted_run(&mut fleet, &amc, &other);
    assert!(graphs > 0, "a new geometry compiled no graph");
    let (again, delta, graphs) = counted_run(&mut fleet, &amc, &cube);
    assert_eq!(delta, [0, 0, 0], "rerun verify/lower/opt runs");
    assert_eq!(graphs, 0, "rerun compiled a render graph");
    assert_eq!(bits(&again), bits(&cold));
    assert_eq!(again.pipeline.stages, cold.pipeline.stages);
}
