//! Multi-device AMC: the GPU stream pipeline sharded across a fleet of
//! simulated devices, with the CPU tail classifying the merged MEI.
//!
//! ```text
//! GPU_SIM_DEVICES=7800gtx,7800gtx cargo run --release --example fleet_classify [seed]
//! ```
//!
//! `GPU_SIM_DEVICES` is a comma-separated device list (default `7800gtx`);
//! unknown names abort with the list of known devices. The renders written
//! to `out/fleet_*.p[gp]m` are byte-identical for every fleet shape — the
//! chunk plan is fleet-shape-independent and the executor merges chunk
//! results in deterministic chunk order — which CI's fleet-parity job
//! checks by diffing runs with different `GPU_SIM_DEVICES`.

use hyperspec::amc::fleet::{parse_device_list, DeviceFleet};
use hyperspec::prelude::*;
use hyperspec::scene::library::indian_pines_classes;
use hyperspec::scene::render;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2026);
    let device_list = std::env::var("GPU_SIM_DEVICES").unwrap_or_else(|_| "7800gtx".to_owned());
    let profiles = match parse_device_list(&device_list) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let classes = indian_pines_classes();
    println!("generating the synthetic Indian Pines analogue (seed {seed})...");
    let scene = generate(&classes, &SceneConfig::reduced_indian_pines(seed));
    let dims = scene.cube.dims();

    let config = AmcConfig::paper_default(classes.len());
    let amc = GpuAmc::new(config.se.clone(), KernelMode::Isa);
    let mut fleet = DeviceFleet::new(profiles);
    println!(
        "running the stream pipeline on {} device(s): {}",
        fleet.profiles().len(),
        fleet
            .profiles()
            .map(|p| p.short_name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let out = fleet.run(&amc, &scene.cube).expect("fleet AMC run");
    println!(
        "fleet processed {} chunks ({} lines + {} halo) in {:.2}s wall, \
         {} steal(s), modeled makespan {:.6}s",
        out.pipeline.chunks,
        out.chunking.lines_per_chunk,
        out.chunking.halo,
        out.wall_s,
        out.steals,
        out.modeled_makespan_s
    );
    for (i, d) in out.devices.iter().enumerate() {
        println!(
            "  dev{} {:<8} planned {:>2} chunk(s) -> executed {:>2} \
             ({} stolen) | modeled {:.6}s | wall {:.3}s",
            i,
            d.profile.short_name(),
            d.planned.len(),
            d.executed.len(),
            d.steals,
            d.modeled_s,
            d.wall_s
        );
    }

    let classifier = AmcClassifier::new(config);
    let classified = classifier
        .classify_with_mei(&scene.cube, out.pipeline.mei.clone())
        .expect("CPU tail");
    println!("{} endmembers extracted", classified.class_count());

    let out_dir = std::path::Path::new("out");
    render::write_file(
        &out_dir.join("fleet_mei.pgm"),
        &render::scores_to_pgm(&out.pipeline.mei.scores, dims.width, dims.height),
    )
    .expect("write MEI render");
    let mapped = hyperspec::hsi::metrics::map_clusters_to_truth(
        &scene.ground_truth,
        &classified.labels,
        classified.class_count(),
        classes.len(),
    )
    .expect("mapping");
    render::write_file(
        &out_dir.join("fleet_classified.ppm"),
        &render::labels_to_ppm(&mapped, dims.width, dims.height),
    )
    .expect("write classification render");
    println!("renders written to out/fleet_mei.pgm, out/fleet_classified.ppm");
}
