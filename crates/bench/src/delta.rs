//! Bench-delta regression gate: compare two `BENCH_results.json` documents
//! and fail on performance regressions or broken quality floors.
//!
//! Two kinds of gate, generalizing the ad-hoc per-metric CI checks this
//! module replaced:
//!
//! * **Relative** — wall-clock regressions of the current run against the
//!   checked-in baseline (`gpu_pipeline_wall_s`, `cpu_tail_wall_s`, every
//!   per-stage wall). Walls below a noise floor are skipped: a 1 ms stage
//!   doubling is scheduler jitter, not a regression.
//! * **Absolute** — floors/ceilings the current run must meet on its own:
//!   distance-stage wall-vs-modeled skew, optimizer dynamic-instruction
//!   reduction, fusion fetch reduction, modeled dual-device fleet speedup,
//!   and the schema-7 `analysis` floors (pack-overlap efficiency of the
//!   headline arm, trace-side load balance of every fleet arm).
//!
//! Driven by `tables -- bench-delta <baseline> <current>`; exit status 1
//! means at least one [`Violation`], 2 means usage/IO/schema error.
//!
//! [`check_trace`] is the bench-smoke trace gate behind `tables --
//! check-trace <bench.json> <trace.json>`: the benchmark's Chrome trace must
//! hold a chunk span per executed chunk, six stage spans per chunk span,
//! and per-device timeline rows.

use crate::results::{opt_rollup, BenchRun};
use gpu_sim::device::GpuProfile;
use gpu_sim::timing;
use std::collections::BTreeSet;
use std::fmt;
use trace::{Phase, TraceSnapshot};

/// Gate thresholds. The defaults encode the repo's CI contract; every field
/// has a matching `--` override on the `bench-delta` subcommand.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Max allowed relative wall-clock growth vs baseline, percent.
    pub max_stage_regress_pct: f64,
    /// Walls where baseline and current both sit below this are not gated
    /// (relative noise on a near-zero wall is meaningless).
    pub min_stage_wall_s: f64,
    /// Ceiling on the distance stage's measured-over-modeled skew.
    pub max_distance_skew: f64,
    /// Floor on the optimizer's dynamic-instruction reduction, percent.
    pub min_opt_reduction_pct: f64,
    /// Floor on fusion's static and measured fetch reduction, percent.
    pub min_fetch_reduction_pct: f64,
    /// Floor on the modeled 2×7800 GTX speedup over 1×.
    pub min_fleet_speedup: f64,
    /// Floor on the headline arm's pack-overlap efficiency. Only enforced
    /// when the arm actually packed (a single-chunk run has no packs).
    pub min_pack_overlap: f64,
    /// Floor on every fleet arm's trace-side load balance (mean/max device
    /// busy time).
    pub min_fleet_load_balance: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            max_stage_regress_pct: 25.0,
            min_stage_wall_s: 0.05,
            max_distance_skew: 150.0,
            min_opt_reduction_pct: 10.0,
            min_fetch_reduction_pct: 30.0,
            min_fleet_speedup: 1.8,
            min_pack_overlap: 0.5,
            min_fleet_load_balance: 0.6,
        }
    }
}

/// One failed gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which gate fired (stable identifier, e.g. `stage.distance.wall_s`).
    pub gate: String,
    /// Human-readable explanation with the numbers involved.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.gate, self.message)
    }
}

fn check_rel(v: &mut Vec<Violation>, thr: &Thresholds, gate: &str, baseline: f64, current: f64) {
    if baseline.max(current) < thr.min_stage_wall_s {
        return;
    }
    let limit = (baseline * (1.0 + thr.max_stage_regress_pct / 100.0)).max(thr.min_stage_wall_s);
    if current > limit {
        v.push(Violation {
            gate: gate.to_owned(),
            message: format!(
                "regressed {baseline:.3}s -> {current:.3}s \
                 (limit {limit:.3}s, +{:.0}% over a {:.3}s noise floor)",
                thr.max_stage_regress_pct, thr.min_stage_wall_s
            ),
        });
    }
}

/// Run every gate of `current` against `baseline`; empty result = pass.
pub fn compare(baseline: &BenchRun, current: &BenchRun, thr: &Thresholds) -> Vec<Violation> {
    let mut v = Vec::new();

    // Relative wall-clock gates.
    check_rel(
        &mut v,
        thr,
        "gpu_pipeline_wall_s",
        baseline.gpu_pipeline_s,
        current.gpu_pipeline_s,
    );
    check_rel(
        &mut v,
        thr,
        "cpu_tail_wall_s",
        baseline.cpu_tail_s,
        current.cpu_tail_s,
    );
    for ((name, base), (_, cur)) in baseline
        .stage_wall
        .as_named()
        .into_iter()
        .zip(current.stage_wall.as_named())
    {
        check_rel(&mut v, thr, &format!("stage.{name}.wall_s"), base, cur);
    }

    // Absolute gates on the current run.
    let device = GpuProfile::geforce_7800gtx();
    let modeled_ms = timing::gpu_time(&current.stages.distance, &device).total_ms();
    if modeled_ms <= 0.0 {
        v.push(Violation {
            gate: "stage.distance.skew".into(),
            message: "distance stage has no modeled time — counters broken?".into(),
        });
    } else {
        let skew = current.stage_wall.distance_s * 1e3 / modeled_ms;
        if skew > thr.max_distance_skew {
            v.push(Violation {
                gate: "stage.distance.skew".into(),
                message: format!(
                    "wall-over-modeled skew {skew:.1} exceeds ceiling {:.1}",
                    thr.max_distance_skew
                ),
            });
        }
    }

    let rollup = opt_rollup(current);
    if rollup.reduction_pct() < thr.min_opt_reduction_pct {
        v.push(Violation {
            gate: "opt.dynamic_reduction_pct".into(),
            message: format!(
                "optimizer removed only {:.2}% < {:.0}% of dynamic instructions",
                rollup.reduction_pct(),
                thr.min_opt_reduction_pct
            ),
        });
    }

    let fus = &current.fusion;
    if !fus.enabled {
        v.push(Violation {
            gate: "fusion.enabled".into(),
            message: "fusion must be on in the benchmarked run".into(),
        });
    } else {
        let fused_fetches =
            current.stages.normalize.texel_fetches + current.stages.distance.texel_fetches;
        for (gate, pct) in [
            (
                "fusion.static_fetch_reduction_pct",
                fus.static_fetch_reduction_pct(),
            ),
            (
                "fusion.measured_fetch_reduction_pct",
                fus.measured_fetch_reduction_pct(fused_fetches),
            ),
        ] {
            if pct < thr.min_fetch_reduction_pct {
                v.push(Violation {
                    gate: gate.into(),
                    message: format!(
                        "fetch reduction {pct:.2}% < {:.0}%",
                        thr.min_fetch_reduction_pct
                    ),
                });
            }
        }
    }

    match current
        .fleet
        .shapes
        .iter()
        .find(|s| s.name == "7800gtx+7800gtx")
    {
        None => v.push(Violation {
            gate: "fleet.scaling".into(),
            message: "no 7800gtx+7800gtx shape in the fleet block".into(),
        }),
        Some(dual) => {
            let speedup = dual.modeled_speedup(current.fleet.baseline_modeled_s);
            if speedup < thr.min_fleet_speedup {
                v.push(Violation {
                    gate: "fleet.scaling".into(),
                    message: format!(
                        "modeled 2x7800gtx speedup {speedup:.3} < {:.2}",
                        thr.min_fleet_speedup
                    ),
                });
            }
        }
    }

    // Analysis-block floors.
    if current.analysis.arms.is_empty() {
        v.push(Violation {
            gate: "analysis.arms".into(),
            message: "analysis block has no arms — tracing was off during the bench?".into(),
        });
    }
    for arm in &current.analysis.arms {
        if arm.name == "headline"
            && arm.pack_total_s > 0.0
            && arm.pack_overlap_efficiency() < thr.min_pack_overlap
        {
            v.push(Violation {
                gate: "analysis.headline.pack_overlap".into(),
                message: format!(
                    "pack-overlap efficiency {:.3} < {:.2} \
                     ({:.3}s of {:.3}s pack time hidden)",
                    arm.pack_overlap_efficiency(),
                    thr.min_pack_overlap,
                    arm.pack_hidden_s,
                    arm.pack_total_s
                ),
            });
        }
        if let Some(fleet) = &arm.fleet {
            if fleet.load_balance() < thr.min_fleet_load_balance {
                v.push(Violation {
                    gate: format!("analysis.{}.load_balance", arm.name),
                    message: format!(
                        "trace-side load balance {:.3} < {:.2} across {} devices",
                        fleet.load_balance(),
                        thr.min_fleet_load_balance,
                        fleet.devices.len()
                    ),
                });
            }
        }
    }

    v
}

/// Render a pass/fail report for the terminal.
pub fn render(violations: &[Violation]) -> String {
    if violations.is_empty() {
        return "bench-delta: all gates passed\n".into();
    }
    let mut s = format!("bench-delta: {} gate(s) FAILED\n", violations.len());
    for v in violations {
        s.push_str(&format!("  {v}\n"));
    }
    s
}

/// Check the Chrome trace of a `tables -- bench --trace` run against its
/// bench document. The benchmark executes the pipeline several times (the
/// headline run, the unfused-oracle arm, the fleet shapes), all through the
/// one chunk executor: every chunk shaded anywhere emits one `fleet.chunk`
/// span — on the calling thread for device 0, on its own
/// `device<i>.<name>` row for devices 1..n — and carries all six
/// `pipeline.stage` spans. Returns a summary line, or the message of every
/// failed check.
pub fn check_trace(run: &BenchRun, snap: &TraceSnapshot) -> Result<String, Vec<String>> {
    let begins = || snap.events.iter().filter(|e| e.phase == Phase::Begin);
    let chunk_spans = begins().filter(|e| e.cat == "fleet.chunk").count();
    let fleet_chunks: u64 = run.fleet.shapes.iter().map(|s| s.chunks).sum();
    let expected = run.chunks as u64 + fleet_chunks;
    let mut failures = Vec::new();
    if (chunk_spans as u64) < expected {
        failures.push(format!(
            "{chunk_spans} fleet.chunk spans < {} headline + {fleet_chunks} fleet-shape chunks",
            run.chunks
        ));
    }
    for (stage, _) in run.stage_wall.as_named() {
        let n = begins()
            .filter(|e| e.cat == "pipeline.stage" && e.name == stage)
            .count();
        if n != chunk_spans {
            failures.push(format!(
                "stage {stage}: {n} spans != {chunk_spans} executed chunks"
            ));
        }
    }
    let rows: BTreeSet<&str> = snap.threads.iter().map(|(_, n)| n.as_str()).collect();
    let devices: Vec<&str> = rows
        .iter()
        .copied()
        .filter(|r| r.starts_with("device") && !r.contains("packer"))
        .collect();
    if devices.is_empty() {
        let rows = Vec::from_iter(rows);
        failures.push(format!("no per-device trace rows in {rows:?}"));
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    Ok(format!(
        "trace OK: {chunk_spans} executed chunks x 6 stage spans \
         (>= {expected} headline + fleet-shape chunks), device rows {devices:?}, \
         {} events total",
        snap.events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::sample_run;

    /// The shared fixture with enough distance-stage counters to carry a
    /// modeled time (the serialization fixture zeroes them to exercise the
    /// null-skew path, which would trip the skew gate here).
    fn gated_run() -> BenchRun {
        let mut run = sample_run();
        run.stages.distance.passes = 8;
        run.stages.distance.fragments = 800_000;
        run.stages.distance.instructions = 8_000_000;
        // Stays under the fixture's unfused-arm fetch counters so the
        // measured fetch reduction clears its floor.
        run.stages.distance.texel_fetches = 20_000;
        run.stages.distance.bytes_written = 1 << 22;
        run.stage_wall.distance_s = 0.05;
        run
    }

    #[test]
    fn identical_runs_pass_every_gate() {
        let run = gated_run();
        let violations = compare(&run, &run, &Thresholds::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn injected_stage_regression_fails() {
        let baseline = gated_run();
        let mut current = gated_run();
        current.cpu_tail_s *= 1.5;
        current.stage_wall.normalize_s *= 1.4;
        let violations = compare(&baseline, &current, &Thresholds::default());
        let gates: Vec<_> = violations.iter().map(|v| v.gate.as_str()).collect();
        assert!(gates.contains(&"cpu_tail_wall_s"), "{gates:?}");
        assert!(gates.contains(&"stage.normalize.wall_s"), "{gates:?}");
    }

    #[test]
    fn sub_noise_floor_walls_are_not_gated() {
        let baseline = gated_run();
        let mut current = gated_run();
        // 0.011s -> 0.02s is an 82% regression but both sit under the
        // 0.05s noise floor: scheduler jitter, not a signal.
        current.stage_wall.upload_s = 0.02;
        let violations = compare(&baseline, &current, &Thresholds::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn crossing_the_noise_floor_is_still_gated() {
        let baseline = gated_run();
        let mut current = gated_run();
        current.stage_wall.upload_s = 0.5;
        let violations = compare(&baseline, &current, &Thresholds::default());
        assert!(
            violations.iter().any(|v| v.gate == "stage.upload.wall_s"),
            "{violations:?}"
        );
    }

    #[test]
    fn absolute_floors_fire_without_a_baseline_change() {
        let baseline = gated_run();
        let mut current = gated_run();
        // Kill the pack overlap on the headline arm and unbalance the
        // fleet arm far below the floor.
        current.analysis.arms[0].pack_hidden_s = 0.0;
        let fleet = current.analysis.arms[1].fleet.as_mut().unwrap();
        fleet.devices[1].busy_s = 0.05;
        let violations = compare(&baseline, &current, &Thresholds::default());
        let gates: Vec<_> = violations.iter().map(|v| v.gate.as_str()).collect();
        assert!(
            gates.contains(&"analysis.headline.pack_overlap"),
            "{gates:?}"
        );
        assert!(
            gates.contains(&"analysis.fleet:7800gtx+7800gtx.load_balance"),
            "{gates:?}"
        );
    }

    #[test]
    fn missing_analysis_and_fleet_shape_fail() {
        let baseline = gated_run();
        let mut current = gated_run();
        current.analysis.arms.clear();
        current.fleet.shapes.retain(|s| s.name != "7800gtx+7800gtx");
        let violations = compare(&baseline, &current, &Thresholds::default());
        let gates: Vec<_> = violations.iter().map(|v| v.gate.as_str()).collect();
        assert!(gates.contains(&"analysis.arms"), "{gates:?}");
        assert!(gates.contains(&"fleet.scaling"), "{gates:?}");
    }

    #[test]
    fn render_reports_pass_and_fail() {
        assert!(render(&[]).contains("all gates passed"));
        let v = vec![Violation {
            gate: "cpu_tail_wall_s".into(),
            message: "regressed".into(),
        }];
        let text = render(&v);
        assert!(text.contains("1 gate(s) FAILED"));
        assert!(text.contains("cpu_tail_wall_s: regressed"));
    }

    /// A trace of `chunks` chunk spans, each with its six stage spans, on
    /// the given timeline rows.
    fn synthetic_trace(chunks: usize, rows: &[&str]) -> TraceSnapshot {
        let begin = |cat: &'static str, name: &str| trace::Event {
            ts_ns: 0,
            tid: 1,
            phase: Phase::Begin,
            cat,
            name: name.to_owned(),
            args: Vec::new(),
        };
        let mut events = Vec::new();
        for _ in 0..chunks {
            events.push(begin("fleet.chunk", "chunk"));
            for (stage, _) in sample_run().stage_wall.as_named() {
                events.push(begin("pipeline.stage", stage));
            }
        }
        TraceSnapshot {
            events,
            threads: (1..).zip(rows.iter().map(|r| r.to_string())).collect(),
        }
    }

    #[test]
    fn check_trace_passes_a_complete_trace_and_names_each_broken_check() {
        // sample_run: 3 headline chunks plus 4 + 4 in the two fleet shapes.
        let run = sample_run();
        let rows = ["main", "device0.packer", "device1.7800gtx"];
        let ok = check_trace(&run, &synthetic_trace(11, &rows)).expect("complete trace");
        assert!(ok.starts_with("trace OK: 11 executed chunks"), "{ok}");
        assert!(ok.contains("[\"device1.7800gtx\"]"), "{ok}");

        let short = check_trace(&run, &synthetic_trace(10, &rows)).unwrap_err();
        assert_eq!(
            short,
            ["10 fleet.chunk spans < 3 headline + 8 fleet-shape chunks"]
        );

        let mut missing_stage = synthetic_trace(11, &rows);
        let last_mei = missing_stage.events.iter().rposition(|e| e.name == "mei");
        missing_stage.events.remove(last_mei.unwrap());
        let err = check_trace(&run, &missing_stage).unwrap_err();
        assert_eq!(err, ["stage mei: 10 spans != 11 executed chunks"]);

        let no_devices = synthetic_trace(11, &["main", "device0.packer"]);
        let err = check_trace(&run, &no_devices).unwrap_err();
        assert_eq!(
            err,
            ["no per-device trace rows in [\"device0.packer\", \"main\"]"]
        );
    }
}
