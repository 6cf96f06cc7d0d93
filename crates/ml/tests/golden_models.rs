//! Golden fingerprints of fitted models.
//!
//! Each case fits one model on a fixed, generated problem and pins two
//! numbers: a 64-bit FNV-1a digest of `pickle(model)` and the exact delta
//! of the `ml.train.splits_evaluated` counter. Any change to how trees are
//! grown — binning, bootstrap, split scoring, thresholds, node order —
//! moves at least one of them, so a rewrite of the training path that
//! keeps these green produces bit-identical models.
//!
//! One `#[test]` on purpose: the counter is process-global, and a second
//! test fitting models concurrently would pollute the deltas.

use mlcs_ml::dataset::Matrix;
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::tree::{DecisionTreeClassifier, SplitStrategy};
use mlcs_ml::Classifier;
use mlcs_pickle::Pickle;

/// A small deterministic generator (64-bit LCG, high bits).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Integer features with few distinct values each, like Figure 1's
/// voter columns: every feature fits in the default 255 bins.
fn integer_problem(rows: usize, cols: usize, classes: u32) -> (Matrix, Vec<u32>) {
    let mut g = Lcg(5);
    let mut data = Vec::with_capacity(rows * cols);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let cls = (g.next() % classes as u64) as u32;
        y.push(cls);
        for c in 0..cols {
            let noise = (g.next() % 20) as f64;
            data.push(noise + (cls as f64) * (c as f64 + 2.0));
        }
    }
    (Matrix::new(data, rows, cols).expect("shape"), y)
}

/// Continuous features with far more than 255 distinct values, plus a
/// share of exact zeros of both signs.
fn continuous_problem(rows: usize, cols: usize, classes: u32) -> (Matrix, Vec<u32>) {
    let mut g = Lcg(11);
    let mut data = Vec::with_capacity(rows * cols);
    let mut y = Vec::with_capacity(rows);
    for _ in 0..rows {
        let cls = (g.next() % classes as u64) as u32;
        y.push(cls);
        for _ in 0..cols {
            let v = match g.next() % 10 {
                0 => -0.0,
                1 => 0.0,
                _ => (g.next() % 1_000_000) as f64 / 1e5 - 5.0 + cls as f64,
            };
            data.push(v);
        }
    }
    (Matrix::new(data, rows, cols).expect("shape"), y)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// A fitted model's (digest of its pickle, splits evaluated).
type Fingerprint = (u64, u64);

/// Fits `model` and takes its [`Fingerprint`].
fn fingerprint<M: Classifier + Pickle>(
    mut model: M,
    x: &Matrix,
    y: &[u32],
    k: usize,
) -> Fingerprint {
    let splits = mlcs_columnar::metrics::counter("ml.train.splits_evaluated");
    let before = splits.get();
    model.fit(x, y, k).expect("fit");
    let evaluated = splits.get() - before;
    (fnv1a(&mlcs_pickle::pickle(&model)), evaluated)
}

#[test]
fn fitted_models_match_golden_fingerprints() {
    let (xi, yi) = integer_problem(3000, 3, 2);
    let (xc, yc) = continuous_problem(1500, 4, 3);
    let (x3, y3) = integer_problem(2000, 5, 3);

    let cases: Vec<(&str, Fingerprint, Fingerprint)> = vec![
        (
            "figure-1-shaped forest",
            fingerprint(RandomForestClassifier::new(16).with_seed(5), &xi, &yi, 2),
            (0x6f4b9186914d78a2, 51738),
        ),
        (
            "continuous forest with signed zeros",
            fingerprint(RandomForestClassifier::new(8).with_seed(7), &xc, &yc, 3),
            (0xad812778113dc28b, 114552),
        ),
        (
            "3-class forest with max_depth",
            fingerprint(RandomForestClassifier::new(8).with_seed(3).with_max_depth(6), &x3, &y3, 3),
            (0x9ff0183a8527d5da, 8554),
        ),
        (
            "exact-strategy forest",
            fingerprint(
                RandomForestClassifier::new(6)
                    .with_seed(9)
                    .with_split_strategy(SplitStrategy::Exact),
                &xc,
                &yc,
                3,
            ),
            (0x66044e418f02921e, 147858),
        ),
        (
            "single decision tree",
            fingerprint(DecisionTreeClassifier::new().with_seed(1), &xc, &yc, 3),
            (0x0475eb6e3d7507d1, 40022),
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| {
            format!("{name}: got ({:#018x}, {}), want ({:#018x}, {})", got.0, got.1, want.0, want.1)
        })
        .collect();
    assert!(mismatches.is_empty(), "fingerprints moved:\n{}", mismatches.join("\n"));
}
