//! The output check: every scene the program returns is compared against a
//! CPU reference computed once per distinct scene during set-up.
//!
//! Erosion and dilation pick the SE neighbour with the smallest and largest
//! cumulative distance. When two neighbours' cumulative distances agree to
//! within `f32` rounding, the device (summing in its own order) and the CPU
//! reference may pick different ones, and the MEI at that pixel follows the
//! pick. Such a pick is accepted only if the two neighbours' reference
//! distances agree within [`TIE_TOLERANCE`]; the MEI and labels are then
//! checked against a reference rebuilt with the device's picks.

use amc_core::pipeline::PipelineOutput;
use hsi::classify::AmcClassifier;
use hsi::cube::Cube;
use hsi::morphology::{
    cumulative_field, mei, neighbour_coords, normalize_cube, MeiImage, StructuringElement,
};
use hsi::spectral::SpectralDistance;

/// Relative MEI tolerance, the same bound the repository's GPU-vs-CPU
/// reference tests apply: `|a − b| ≤ tol · (1 + max(|a|, |b|))`.
pub const MEI_TOLERANCE: f32 = 1e-4;

/// Relative tolerance within which two neighbours' cumulative distances
/// count as tied: `|a − b| ≤ tol · max(|a|, |b|)`. A cumulative distance
/// sums 9 × 96 single-precision SID terms, whose rounding alone reaches a
/// few parts in 10⁶; a tenth of [`MEI_TOLERANCE`].
pub const TIE_TOLERANCE: f32 = 1e-5;

/// What a correct run returns for one scene.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Reference MEI scores (`hsi::morphology::mei`, SID ordering).
    pub mei: Vec<f32>,
    /// Erosion SE-offset index per pixel.
    pub min_index: Vec<u32>,
    /// Dilation SE-offset index per pixel.
    pub max_index: Vec<u32>,
    /// Labels the classifier assigns from the reference MEI.
    pub labels: Vec<u16>,
}

/// The CPU reference for one scene.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The reference itself.
    pub exact: Expected,
    /// The reference cumulative-distance field, for telling ties apart.
    field: Vec<f32>,
    /// The reference rebuilt with the device's picks at tied pixels, once
    /// a run has made such picks.
    tied: Option<Expected>,
}

impl Reference {
    /// Normalize, run the CPU morphology with SID, then classify the
    /// reference MEI with `classifier`.
    pub fn compute(
        cube: &Cube,
        se: &StructuringElement,
        classifier: &AmcClassifier,
    ) -> Result<Self, String> {
        let norm = normalize_cube(cube);
        let (ref_mei, morph) = mei(&norm, se, SpectralDistance::Sid);
        let field = cumulative_field(&norm, se, SpectralDistance::Sid);
        let labels = classify(classifier, cube, ref_mei.clone())?;
        Ok(Self {
            exact: Expected {
                mei: ref_mei.scores,
                min_index: morph.min_index,
                max_index: morph.max_index,
                labels,
            },
            field,
            tied: None,
        })
    }

    /// Pixels at which the runs so far picked a tied neighbour other than
    /// the reference's; 0 when every pick agreed.
    pub fn tied_pixels(&self) -> usize {
        let exact = &self.exact;
        self.tied.as_ref().map_or(0, |t| {
            (0..t.mei.len())
                .filter(|&i| {
                    t.min_index[i] != exact.min_index[i] || t.max_index[i] != exact.max_index[i]
                })
                .count()
        })
    }

    /// The expectation for `out`: the reference itself when `out` picked the
    /// same neighbours everywhere, else the reference rebuilt with `out`'s
    /// picks, provided each differing pick is tied with the reference's.
    /// `cube` is the scene's raw cube and `classifier` the one the reference
    /// was computed with.
    pub fn expected(
        &mut self,
        out: &PipelineOutput,
        cube: &Cube,
        classifier: &AmcClassifier,
    ) -> Result<&Expected, String> {
        let same = |e: &Expected| e.min_index == out.min_index && e.max_index == out.max_index;
        if same(&self.exact) {
            return Ok(&self.exact);
        }
        if !self.tied.as_ref().is_some_and(same) {
            self.tied = Some(self.rebuild_with_ties(out, cube, classifier)?);
        }
        Ok(self.tied.as_ref().expect("set above"))
    }

    fn rebuild_with_ties(
        &self,
        out: &PipelineOutput,
        cube: &Cube,
        classifier: &AmcClassifier,
    ) -> Result<Expected, String> {
        let exact = &self.exact;
        let picks = [
            ("min_index", &out.min_index, &exact.min_index),
            ("max_index", &out.max_index, &exact.max_index),
        ];
        for (what, got, want) in picks {
            if got.len() != want.len() {
                return Err(mismatch(what, got, want));
            }
        }
        let dims = cube.dims();
        let (w, h) = (dims.width, dims.height);
        let offsets = classifier.config().se.offsets();
        let field_at = |i: usize, k: u32| -> Result<f32, String> {
            if k as usize >= offsets.len() {
                return Err(format!("pixel {i}: SE index {k} out of range"));
            }
            let (nx, ny) = neighbour_coords(&offsets, w, h, i % w, i / w, k);
            Ok(self.field[ny * w + nx])
        };
        let mut tied = Vec::new();
        for i in 0..exact.mei.len() {
            let mut differs = false;
            for (what, got, want) in picks {
                if got[i] == want[i] {
                    continue;
                }
                let (a, b) = (field_at(i, got[i])?, field_at(i, want[i])?);
                if (a - b).abs() > TIE_TOLERANCE * a.abs().max(b.abs()) {
                    return Err(format!(
                        "{}; at [{i}] the picked neighbour's cumulative distance {a} is not \
                         tied with the reference's {b}",
                        mismatch(what, got, want)
                    ));
                }
                differs = true;
            }
            if differs {
                tied.push(i);
            }
        }
        let norm = normalize_cube(cube);
        let mut scores = exact.mei.clone();
        for &i in &tied {
            let (x, y) = (i % w, i / w);
            let (minx, miny) = neighbour_coords(&offsets, w, h, x, y, out.min_index[i]);
            let (maxx, maxy) = neighbour_coords(&offsets, w, h, x, y, out.max_index[i]);
            let spectrum = |x, y| norm.pixel_slice(x, y).expect("normalized cube is BIP");
            scores[i] =
                SpectralDistance::Sid.eval_normalized(spectrum(maxx, maxy), spectrum(minx, miny));
        }
        let image = MeiImage {
            width: w,
            height: h,
            scores,
        };
        let labels = classify(classifier, cube, image.clone())?;
        Ok(Expected {
            mei: image.scores,
            min_index: out.min_index.clone(),
            max_index: out.max_index.clone(),
            labels,
        })
    }
}

fn classify(classifier: &AmcClassifier, cube: &Cube, image: MeiImage) -> Result<Vec<u16>, String> {
    classifier
        .classify_with_mei(cube, image)
        .map(|out| out.labels)
        .map_err(|e| format!("reference classification failed: {e}"))
}

impl Expected {
    /// Check the GPU phase's output: min/max indices exactly equal and the
    /// MEI within [`MEI_TOLERANCE`].
    pub fn check_pipeline(&self, out: &PipelineOutput) -> Result<(), String> {
        if out.min_index != self.min_index {
            return Err(mismatch("min_index", &out.min_index, &self.min_index));
        }
        if out.max_index != self.max_index {
            return Err(mismatch("max_index", &out.max_index, &self.max_index));
        }
        let scores = &out.mei.scores;
        if scores.len() != self.mei.len() {
            return Err(format!(
                "MEI has {} pixels, reference {}",
                scores.len(),
                self.mei.len()
            ));
        }
        let bad = scores.iter().zip(&self.mei).position(|(&a, &b)| {
            // Any comparison with a NaN is false, so a NaN on either side
            // fails the check.
            let within = (a - b).abs() <= MEI_TOLERANCE * (1.0 + a.abs().max(b.abs()));
            !within
        });
        match bad {
            Some(i) => Err(format!(
                "MEI[{i}] = {} outside tolerance of reference {}",
                scores[i], self.mei[i]
            )),
            None => Ok(()),
        }
    }

    /// Check the classification tail's labels: exactly equal.
    pub fn check_labels(&self, labels: &[u16]) -> Result<(), String> {
        if labels == self.labels.as_slice() {
            Ok(())
        } else {
            Err(mismatch("labels", labels, &self.labels))
        }
    }
}

/// How `got` differs from `want`: the number of differing entries and the
/// first of them.
pub fn mismatch<T: PartialEq + std::fmt::Debug>(what: &str, got: &[T], want: &[T]) -> String {
    if got.len() != want.len() {
        return format!("{what} has {} entries, reference {}", got.len(), want.len());
    }
    let diffs = got.iter().zip(want).filter(|(a, b)| a != b).count();
    let first = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .expect("a mismatch has a first differing entry");
    format!(
        "{what} differs from the reference at {diffs} pixel(s), first [{first}]: {:?} vs {:?}",
        got[first], want[first]
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_core::pipeline::{GpuAmc, KernelMode};
    use gpu_sim::device::GpuProfile;
    use gpu_sim::gpu::Gpu;
    use hsi::classify::AmcConfig;
    use hsi_scene::library::indian_pines_classes;
    use hsi_scene::scene::{generate, SceneConfig};

    /// A real run of the production path on a tiny scene, with its reference.
    struct TinyRun {
        cube: Cube,
        classifier: AmcClassifier,
        reference: Reference,
        out: PipelineOutput,
        labels: Vec<u16>,
    }

    impl TinyRun {
        fn new() -> Self {
            let scene = generate(&indian_pines_classes(), &SceneConfig::tiny(7));
            let classifier = AmcClassifier::new(AmcConfig::paper_default(4));
            let se = classifier.config().se.clone();
            let reference = Reference::compute(&scene.cube, &se, &classifier).expect("reference");
            let mut gpu = Gpu::new(GpuProfile::geforce_7800gtx());
            let out = GpuAmc::new(se, KernelMode::Isa)
                .run_and_classify(&mut gpu, &scene.cube, &classifier)
                .expect("run");
            Self {
                cube: scene.cube,
                classifier,
                reference,
                out: out.pipeline,
                labels: out.classification.labels,
            }
        }

        fn check(&mut self, out: &PipelineOutput) -> Result<(), String> {
            self.reference
                .expected(out, &self.cube, &self.classifier)?
                .check_pipeline(out)
        }
    }

    #[test]
    fn real_output_passes_and_each_corruption_fails() {
        let mut t = TinyRun::new();
        let out = t.out.clone();
        t.check(&out).expect("uncorrupted MEI and indices pass");
        t.reference
            .exact
            .check_labels(&t.labels)
            .expect("uncorrupted labels pass");
        assert_eq!(t.reference.tied_pixels(), 0);

        // An interior pixel whose erosion pick is moved to its dilation
        // neighbour, whose cumulative distance is clearly larger.
        let w = t.cube.dims().width;
        let offsets = t.classifier.config().se.offsets();
        let h = t.cube.dims().height;
        let field_at = |i: usize, k: u32| {
            let (nx, ny) = neighbour_coords(&offsets, w, h, i % w, i / w, k);
            t.reference.field[ny * w + nx]
        };
        let i = (w + 1..out.min_index.len() - w)
            .find(|&i| {
                let (lo, hi) = (field_at(i, out.min_index[i]), field_at(i, out.max_index[i]));
                i % w != 0 && i % w != w - 1 && hi > lo * 1.001
            })
            .expect("a pixel with distinct erosion and dilation picks");
        let mut bad = out.clone();
        bad.min_index[i] = bad.max_index[i];
        let err = t.check(&bad).expect_err("an untied erosion pick");
        assert!(err.contains("not tied"), "{err}");

        let mut bad = out.clone();
        let last = bad.max_index.len() - 1;
        bad.max_index[last] = offsets.len() as u32;
        assert!(t.check(&bad).is_err(), "an out-of-range dilation pick");

        let mut bad = out.clone();
        bad.mei.scores[3] += 1e-2 * (1.0 + bad.mei.scores[3].abs());
        assert!(t.check(&bad).is_err(), "MEI outside tolerance");

        let mut bad = out.clone();
        bad.mei.scores[0] = f32::NAN;
        assert!(t.check(&bad).is_err(), "NaN MEI");

        let mut near = out;
        near.mei.scores[3] += 1e-6 * (1.0 + near.mei.scores[3].abs());
        t.check(&near).expect("MEI inside tolerance passes");

        let mut bad = t.labels.clone();
        bad[0] = bad[0].wrapping_add(1);
        assert!(
            t.reference.exact.check_labels(&bad).is_err(),
            "one changed label"
        );
        assert!(
            t.reference.exact.check_labels(&t.labels[1..]).is_err(),
            "short labels"
        );
    }

    #[test]
    fn a_tied_pick_is_accepted_and_checked_against_its_own_reference() {
        let mut t = TinyRun::new();
        // In the top row the SE offsets (dx, -1) and (dx, 0) clamp to the
        // same pixel, so indices k and k ± 3 of the 3×3 SE are exactly tied.
        let w = t.cube.dims().width;
        let i = (0..w)
            .find(|&i| t.out.max_index[i] < 6)
            .expect("a top-row dilation pick in the upper two SE rows");
        let mut out = t.out.clone();
        let k = out.max_index[i];
        out.max_index[i] = if k < 3 { k + 3 } else { k - 3 };
        t.check(&out).expect("a tied pick passes");
        assert_eq!(t.reference.tied_pixels(), 1);
        let labels = t.labels.clone();
        t.reference
            .expected(&out, &t.cube, &t.classifier)
            .expect("cached")
            .check_labels(&labels)
            .expect("the same pixel gives the same labels");

        out.mei.scores[i] += 1e-2 * (1.0 + out.mei.scores[i].abs());
        assert!(
            t.check(&out).is_err(),
            "the MEI at a tied pixel is still checked"
        );
    }
}
