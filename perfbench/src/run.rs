//! One workload run: set-up, the timed closed loop, the output check, and
//! the end-to-end metrics. The traced run's per-layer metrics are in
//! [`crate::layers`].

use crate::check::{self, Reference};
use crate::stats;
use crate::workload::{self, generate_scene, Kind, Runner, SceneRun, TailRun, CLASSES};
use amc_core::pipeline::{AmcError, StageStats};
use gpu_sim::device::GpuProfile;
use gpu_sim::timing;
use hsi::classify::AmcClassifier;
use hsi::cube::Chunking;
use hsi::morphology::MeiImage;
use hsi_scene::scene::SyntheticScene;
use std::time::Instant;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 3;

/// The timed loop runs at least this many scenes, so the tail percentile
/// always has ten samples beyond it.
pub const MIN_SCENES: usize = 11;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The counts that must repeat exactly every time the same scene runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    /// Per-stage work counters (instructions, fetches, passes, bytes, …).
    pub stages: StageStats,
    /// Chunks the GPU phase ran.
    pub chunks: usize,
    /// The plan those chunks came from.
    pub chunking: Chunking,
    /// Modeled device milliseconds of the merged counters, as bits.
    pub modeled_ms_bits: u64,
}

/// Pass/fail accounting and the per-scene exact figures.
#[derive(Debug)]
pub struct Tally {
    /// Scenes run through the program, warm-up scenes included.
    pub attempted: u64,
    /// Scenes that returned an error or failed a check.
    pub failed: u64,
    /// The exact counts first seen for each distinct scene.
    pub first: Vec<Option<Exact>>,
    /// Overall accuracy of each distinct scene's labels.
    pub accuracy: Vec<Option<f64>>,
    /// GPU-only workloads: the first MEI of each distinct scene, classified
    /// after the timed loop, with the labels expected from it.
    pub kept_mei: Vec<Option<(MeiImage, Vec<u16>)>>,
    /// Failure messages (the first few are printed).
    pub errors: Vec<String>,
}

impl Tally {
    fn new(scenes: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            first: vec![None; scenes],
            accuracy: vec![None; scenes],
            kept_mei: vec![None; scenes],
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Check one scene's result against its reference and the exact counts
    /// first seen for that scene. Returns the run when the program returned
    /// one, whether or not it passed.
    fn record(
        &mut self,
        idx: usize,
        scene: &SyntheticScene,
        reference: &mut Reference,
        classifier: &AmcClassifier,
        result: Result<SceneRun, AmcError>,
    ) -> Option<SceneRun> {
        self.attempted += 1;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.fail(format!("scene {idx}: the program returned an error: {e}"));
                return None;
            }
        };
        if let Err(msg) = self.check(idx, scene, reference, classifier, &run) {
            self.fail(format!("scene {idx}: {msg}"));
        }
        Some(run)
    }

    fn check(
        &mut self,
        idx: usize,
        scene: &SyntheticScene,
        reference: &mut Reference,
        classifier: &AmcClassifier,
        run: &SceneRun,
    ) -> Result<(), String> {
        let expected = reference.expected(&run.pipeline, &scene.cube, classifier)?;
        expected.check_pipeline(&run.pipeline)?;
        if let Some(tail) = &run.tail {
            expected.check_labels(&tail.labels)?;
        }
        let exact = Exact {
            stages: run.pipeline.stages,
            chunks: run.pipeline.chunks,
            chunking: run.chunking,
            modeled_ms_bits: modeled_ms(&run.pipeline.stats, &workload::profile()).to_bits(),
        };
        match &self.first[idx] {
            Some(first) if *first != exact => {
                return Err(format!(
                    "exact counts drifted between repetitions of the same scene: \
                     first {first:?}, now {exact:?}"
                ))
            }
            Some(_) => {}
            None => {
                self.first[idx] = Some(exact);
                match &run.tail {
                    Some(tail) => self.accuracy[idx] = Some(accuracy(scene, tail)?),
                    None => {
                        self.kept_mei[idx] =
                            Some((run.pipeline.mei.clone(), expected.labels.clone()))
                    }
                }
            }
        }
        Ok(())
    }

    /// GPU-only workloads: classify each distinct scene's first GPU MEI
    /// (untimed), check the labels and score them. Returns the tail runs.
    fn classify_kept(
        &mut self,
        scenes: &[SyntheticScene],
        classifier: &AmcClassifier,
    ) -> Vec<TailRun> {
        let mut tails = Vec::new();
        for (idx, scene) in scenes.iter().enumerate() {
            let Some((mei, expected_labels)) = self.kept_mei[idx].take() else {
                continue;
            };
            let start = Instant::now();
            let tail = match classifier.classify_with_mei_timed(&scene.cube, mei) {
                Ok((out, breakdown)) => TailRun {
                    endmembers: out.class_count(),
                    labels: out.labels,
                    wall_s: start.elapsed().as_secs_f64(),
                    breakdown,
                },
                Err(e) => {
                    self.fail(format!("scene {idx}: classifying the GPU MEI failed: {e}"));
                    continue;
                }
            };
            let checked = if tail.labels == expected_labels {
                accuracy(scene, &tail)
            } else {
                Err(check::mismatch("labels", &tail.labels, &expected_labels))
            };
            match checked {
                Ok(acc) => self.accuracy[idx] = Some(acc),
                Err(msg) => self.fail(format!("scene {idx}: {msg}")),
            }
            tails.push(tail);
        }
        tails
    }
}

/// Modeled device milliseconds of a counter set on a profile.
pub fn modeled_ms(stats: &gpu_sim::PassStats, profile: &GpuProfile) -> f64 {
    timing::gpu_time(stats, profile).total_ms()
}

fn accuracy(scene: &SyntheticScene, tail: &TailRun) -> Result<f64, String> {
    hsi::metrics::score_unsupervised(&scene.ground_truth, &tail.labels, tail.endmembers, CLASSES)
        .map(|cm| cm.overall_accuracy())
        .map_err(|e| format!("scoring failed: {e}"))
}

/// A workload in progress.
pub struct Harness {
    /// The classifier every scene uses.
    pub classifier: AmcClassifier,
    /// The distinct scenes, in cycle order.
    pub scenes: Vec<SyntheticScene>,
    /// Their references.
    pub refs: Vec<Reference>,
    /// The workload's pipeline and devices after the last set-up.
    pub runner: Runner,
    /// Wall seconds of each set-up, the references excluded.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each scene generation.
    pub generate_s: Vec<f64>,
    /// Pass/fail accounting.
    pub tally: Tally,
}

impl Harness {
    /// Set the workload up [`SETUP_REPS`] times, each from scratch:
    /// generate the scenes, construct the `GpuAmc` and devices, and run one
    /// untimed warm-up scene. The references are computed once and, like
    /// the output check, kept outside the set-up time.
    pub fn setup(kind: Kind, seed: u64) -> Result<Self, String> {
        let classifier = workload::classifier();
        let configs = workload::scene_configs(seed);
        let mut tally = Tally::new(configs.len());
        let mut refs: Option<Vec<Reference>> = None;
        let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let scenes: Vec<SyntheticScene> = configs
                .iter()
                .map(|c| {
                    let (scene, s) = timed("scene.generate", || generate_scene(c));
                    generate_s.push(s);
                    scene
                })
                .collect();
            let mut excluded_s = 0.0;
            if refs.is_none() {
                let t = Instant::now();
                let se = &classifier.config().se;
                refs = Some(
                    scenes
                        .iter()
                        .map(|s| Reference::compute(&s.cube, se, &classifier))
                        .collect::<Result<_, _>>()?,
                );
                excluded_s = t.elapsed().as_secs_f64();
            }
            let refs = refs.as_mut().expect("computed on the first set-up");
            let (mut runner, _) = timed("device.new", || Runner::new(kind));
            let result = runner.run_scene(&scenes[0], &classifier);
            setup_s.push(start.elapsed().as_secs_f64() - excluded_s);
            tally.record(0, &scenes[0], &mut refs[0], &classifier, result);
            last = Some((scenes, runner));
        }
        let (scenes, runner) = last.expect("SETUP_REPS > 0");
        Ok(Self {
            classifier,
            scenes,
            refs: refs.expect("computed on the first set-up"),
            runner,
            setup_s,
            generate_s,
            tally,
        })
    }

    /// Run scenes in a closed loop, cycling over the distinct scenes, for
    /// `seconds` (and at least [`MIN_SCENES`] scenes). Each run that
    /// returned is checked and handed to `on_run`. Returns the per-scene
    /// walls.
    pub fn timed_loop(
        &mut self,
        seconds: f64,
        mut on_run: impl FnMut(usize, &SceneRun),
    ) -> Vec<f64> {
        let n = self.scenes.len();
        let start = Instant::now();
        let mut walls = Vec::new();
        let mut i = 0;
        while i < MIN_SCENES || start.elapsed().as_secs_f64() < seconds {
            let idx = i % n;
            i += 1;
            let scene = &self.scenes[idx];
            let result = {
                let _span = trace::span("bench", "scene");
                self.runner.run_scene(scene, &self.classifier)
            };
            let reference = &mut self.refs[idx];
            let classifier = &self.classifier;
            if let Some(run) = self.tally.record(idx, scene, reference, classifier, result) {
                walls.push(run.wall_s);
                on_run(idx, &run);
            }
        }
        walls
    }

    /// Finish the output check after the timed loop: GPU-only workloads
    /// classify each distinct scene's GPU MEI. Returns those tail runs.
    pub fn finish_check(&mut self) -> Vec<TailRun> {
        self.tally.classify_kept(&self.scenes, &self.classifier)
    }

    /// Mean modeled device milliseconds over the distinct scenes.
    pub fn modeled_gpu_ms(&self) -> Option<f64> {
        mean(
            self.tally
                .first
                .iter()
                .flatten()
                .map(|e| f64::from_bits(e.modeled_ms_bits)),
        )
    }

    /// Mean overall accuracy over the distinct scenes.
    pub fn overall_accuracy(&self) -> Option<f64> {
        mean(self.tally.accuracy.iter().flatten().copied())
    }
}

/// Time `f` and record a span around it under the benchmark's category.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = trace::span("bench", name);
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    (n > 0).then(|| sum / n as f64)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".to_owned())
}

/// The end-to-end metrics of one untraced run, plus the human-readable
/// lines that go with them.
pub fn end_to_end(harness: &Harness, walls: &[f64]) -> Result<(Vec<Metric>, Vec<String>), String> {
    let missing = |what: &str| format!("no {what}: every scene failed");
    let tail = stats::tail(walls).ok_or_else(|| missing("scene walls"))?;
    let timed_s: f64 = walls.iter().sum();
    let metrics = vec![
        Metric::new(
            "setup_s",
            stats::median(&harness.setup_s).expect("SETUP_REPS > 0"),
            "s",
        ),
        Metric::new("scenes_per_s", walls.len() as f64 / timed_s, "1/s"),
        Metric::new("scene_p50_s", stats::median(walls).expect("non-empty"), "s"),
        Metric::new("scene_tail_s", tail.value, "s"),
        Metric::new(
            "modeled_gpu_ms",
            harness
                .modeled_gpu_ms()
                .ok_or_else(|| missing("modeled time"))?,
            "model_ms",
        ),
        Metric::new(
            "overall_accuracy",
            harness
                .overall_accuracy()
                .ok_or_else(|| missing("accuracy"))?,
            "%",
        ),
        Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ];
    let t = &harness.tally;
    let notes =
        vec![
            format!(
                "scene_tail_s is p{:.1}: {} of {} samples beyond it",
                tail.percentile, tail.beyond, tail.samples
            ),
            format!(
                "failed_frac = {} ({} of {} scenes failed; warm-up scenes included)",
                t.failed as f64 / t.attempted.max(1) as f64,
                t.failed,
                t.attempted
            ),
            format!(
            "pixels with a tied erosion/dilation pick other than the reference's, per scene: {:?}",
            harness.refs.iter().map(Reference::tied_pixels).collect::<Vec<_>>()
        ),
            format!(
                "set-up walls (s): {:?}; timed scenes: {}",
                harness.setup_s,
                walls.len()
            ),
        ];
    Ok((metrics, notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsi::classify::AmcConfig;
    use hsi_scene::scene::SceneConfig;

    #[test]
    fn corrupted_or_drifting_scenes_count_as_failed() {
        let scene = generate_scene(&SceneConfig::tiny(3));
        let classifier = AmcClassifier::new(AmcConfig::paper_default(4));
        let mut reference = Reference::compute(&scene.cube, &classifier.config().se, &classifier)
            .expect("reference");
        let run = Runner::new(Kind::HybridWarm)
            .run_scene(&scene, &classifier)
            .expect("run");
        let mut tally = Tally::new(1);
        tally.record(0, &scene, &mut reference, &classifier, Ok(run.clone()));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.errors
        );
        assert!(tally.accuracy[0].is_some());

        let mut bad = run.clone();
        bad.pipeline.max_index[0] = 99;
        tally.record(0, &scene, &mut reference, &classifier, Ok(bad));
        let mut bad = run.clone();
        bad.tail.as_mut().expect("hybrid runs the tail").labels[0] ^= 1;
        tally.record(0, &scene, &mut reference, &classifier, Ok(bad));
        let mut drift = run.clone();
        drift.pipeline.stages.distance.instructions += 1;
        tally.record(0, &scene, &mut reference, &classifier, Ok(drift));
        let err = AmcError::ChunkingInfeasible {
            width: 1,
            bands: 1,
            required: 2,
            budget: 1,
        };
        tally.record(0, &scene, &mut reference, &classifier, Err(err));
        tally.record(0, &scene, &mut reference, &classifier, Ok(run));
        assert_eq!(
            (tally.attempted, tally.failed),
            (6, 4),
            "{:?}",
            tally.errors
        );
    }
}
