//! Golden fingerprints of fitted models.
//!
//! Each case fits one model on a fixed, generated problem and pins:
//! - a 64-bit FNV-1a digest of `pickle(model)`;
//! - the exact delta of the `ml.train.splits_evaluated` counter;
//! - the exact delta of the `ml.train.groups` counter: how many distinct
//!   (feature ranks, label) groups the trees grew over;
//! - a digest of `predict_proba` over a fixed probe matrix, bit for bit,
//!   with the fitted node count and depth.
//!
//! Any change to how trees are grown — binning, bootstrap, split scoring,
//! thresholds, node order — moves the first two, so a rewrite of the
//! training path that keeps them green produces bit-identical models. The
//! prediction pins do not depend on the blob format: a new model layout
//! re-pins the pickle digests and must leave these unchanged. The probe
//! holds the training rows plus rows whose values sit on, one ulp below
//! and one ulp above every candidate threshold, and rows holding `±0.0`,
//! `±inf` and NaN.
//!
//! One `#[test]` on purpose: the counters are process-global, and a second
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

/// The float one ulp from `v` towards `+inf` (`up`) or `-inf`.
fn ulp_step(v: f64, up: bool) -> f64 {
    if v == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let bits = v.to_bits();
    f64::from_bits(if (v > 0.0) == up { bits + 1 } else { bits - 1 })
}

/// The training rows, then rows that put one feature of a training row on
/// each candidate threshold (the midpoint of two distinct values: every
/// pair for features with at most 64 values, neighbours otherwise) and one
/// ulp either side, then rows holding `±0.0`, `±inf` and NaN.
fn probe(x: &Matrix) -> Matrix {
    let (rows, cols) = (x.rows(), x.cols());
    let mut data = x.as_slice().to_vec();
    let mut push = |base: usize, f: usize, v: f64| {
        let start = data.len();
        data.extend_from_slice(x.row(base % rows));
        data[start + f] = v;
    };
    let mut base = 0;
    for f in 0..cols {
        let mut distinct: Vec<f64> = (0..rows).map(|r| x.get(r, f)).collect();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        let pairs: Vec<(usize, usize)> = if distinct.len() <= 64 {
            (0..distinct.len()).flat_map(|i| (i + 1..distinct.len()).map(move |j| (i, j))).collect()
        } else {
            (1..distinct.len()).map(|j| (j - 1, j)).collect()
        };
        for (i, j) in pairs {
            let mid = distinct[i] + (distinct[j] - distinct[i]) / 2.0;
            for v in [mid, ulp_step(mid, false), ulp_step(mid, true)] {
                push(base, f, v);
                base += 7;
            }
        }
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            for b in [0, 1] {
                push(b, f, v);
            }
        }
    }
    let n = data.len() / cols;
    Matrix::new(data, n, cols).expect("probe shape")
}

/// A fitted model's (digest of its pickle, splits evaluated).
type Fingerprint = (u64, u64);

/// A fitted model's (digest of its `predict_proba` bits on the probe,
/// node count, depth).
type Prediction = (u64, usize, usize);

/// Fits `model` and takes its [`Fingerprint`], [`Prediction`] and the
/// groups it grew over; `shape` gives the fitted (node count, depth).
fn fingerprint<M: Classifier + Pickle>(
    mut model: M,
    x: &Matrix,
    y: &[u32],
    k: usize,
    shape: impl Fn(&M) -> (usize, usize),
) -> (Fingerprint, Prediction, u64) {
    let splits = mlcs_columnar::metrics::counter("ml.train.splits_evaluated");
    let groups = mlcs_columnar::metrics::counter("ml.train.groups");
    let before = (splits.get(), groups.get());
    model.fit(x, y, k).expect("fit");
    let (evaluated, grouped) = (splits.get() - before.0, groups.get() - before.1);
    let proba = model.predict_proba(&probe(x)).expect("predict");
    let bits: Vec<u8> = proba.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    let (nodes, depth) = shape(&model);
    ((fnv1a(&mlcs_pickle::pickle(&model)), evaluated), (fnv1a(&bits), nodes, depth), grouped)
}

/// A forest's total node count and its deepest tree's depth.
fn forest_shape(m: &RandomForestClassifier) -> (usize, usize) {
    let trees = m.trees();
    (trees.iter().map(|t| t.node_count()).sum(), trees.iter().map(|t| t.depth()).max().unwrap_or(0))
}

fn tree_shape(m: &DecisionTreeClassifier) -> (usize, usize) {
    (m.node_count(), m.depth())
}

#[test]
fn fitted_models_match_golden_fingerprints() {
    let (xi, yi) = integer_problem(3000, 3, 2);
    let (xc, yc) = continuous_problem(1500, 4, 3);
    let (x3, y3) = integer_problem(2000, 5, 3);

    type Case = (&'static str, (Fingerprint, Prediction, u64), Fingerprint, Prediction, u64);
    let cases: Vec<Case> = vec![
        (
            "figure-1-shaped forest",
            fingerprint(RandomForestClassifier::new(16).with_seed(5), &xi, &yi, 2, forest_shape),
            (0x9713a0a356e9028b, 51738),
            (0x2636ff4f56bdb1f6, 19072, 33),
            2718,
        ),
        (
            "continuous forest with signed zeros",
            fingerprint(RandomForestClassifier::new(8).with_seed(7), &xc, &yc, 3, forest_shape),
            (0xf938419a8af0cb61, 114552),
            (0x989f1b79220f753f, 6060, 45),
            1500,
        ),
        (
            "3-class forest with max_depth",
            fingerprint(
                RandomForestClassifier::new(8).with_seed(3).with_max_depth(6),
                &x3,
                &y3,
                3,
                forest_shape,
            ),
            (0x2716ecc655b1c097, 8554),
            (0x9d62507aa96bcfc0, 348, 6),
            2000,
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
                forest_shape,
            ),
            (0xe002d6d7c81f9620, 147858),
            (0x0a6ca9f0c95ed206, 4392, 46),
            1500,
        ),
        (
            "single decision tree",
            fingerprint(DecisionTreeClassifier::new().with_seed(1), &xc, &yc, 3, tree_shape),
            (0xa911c5d6fd205855, 40022),
            (0x2cbf27ba5c9e81b8, 967, 44),
            1500,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, (fp, pred, groups), want_fp, want_pred, want_groups) in &cases {
        if fp != want_fp {
            mismatches.push(format!(
                "{name}: pickle/splits got ({:#018x}, {}), want ({:#018x}, {})",
                fp.0, fp.1, want_fp.0, want_fp.1
            ));
        }
        if pred != want_pred {
            mismatches.push(format!(
                "{name}: predict/nodes/depth got ({:#018x}, {}, {}), want ({:#018x}, {}, {})",
                pred.0, pred.1, pred.2, want_pred.0, want_pred.1, want_pred.2
            ));
        }
        if groups != want_groups {
            mismatches.push(format!("{name}: groups got {groups}, want {want_groups}"));
        }
    }
    assert!(mismatches.is_empty(), "fingerprints moved:\n{}", mismatches.join("\n"));
}
