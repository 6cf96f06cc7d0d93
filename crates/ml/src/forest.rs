//! Random forest: bagged CART trees with feature subsampling, fitted in
//! parallel on the engine's persistent worker pool. This is the model the
//! paper trains inside the database (`RandomForestClassifier(n_estimators)`
//! in Listing 1).
//!
//! Tree-level parallelism shares threads with the relational operators:
//! `n_jobs == 0` follows the pool policy (`MLCS_THREADS`, else core count),
//! and fitting nests safely inside parallel operators (the pool runs nested
//! work inline). Results are bit-identical for any thread count because
//! every tree derives its RNG stream from a per-tree seed and trees are
//! collected in index order.

use crate::dataset::{validate_fit_inputs, Matrix};
use crate::error::{MlError, MlResult};
use crate::tree::{
    add_tree_leaves, check_width, DecisionTreeClassifier, FeatureRanks, MaxFeatures, SplitStrategy,
};
use crate::Classifier;
use mlcs_pickle::{Pickle, PickleError, Reader, Writer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random-forest classifier.
///
/// Each tree is fitted on a bootstrap sample (with replacement) of the
/// training rows, considering `sqrt(n_features)` features per split.
/// Probability predictions average the per-tree leaf distributions
/// (soft voting, like scikit-learn).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestClassifier {
    /// Number of trees.
    pub n_estimators: usize,
    /// Depth bound applied to every tree.
    pub max_depth: Option<usize>,
    /// Minimum samples to split, applied to every tree.
    pub min_samples_split: usize,
    /// Features per split.
    pub max_features: MaxFeatures,
    /// Fit trees on bootstrap samples (true, the default) or the full set.
    pub bootstrap: bool,
    /// Split-finding strategy applied to every tree.
    pub split_strategy: SplitStrategy,
    /// Worker threads for fitting (0 = pool policy: `MLCS_THREADS`, else
    /// available parallelism).
    pub n_jobs: usize,
    seed: u64,
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForestClassifier {
    /// A forest with `n_estimators` trees and library defaults.
    pub fn new(n_estimators: usize) -> Self {
        RandomForestClassifier {
            n_estimators,
            max_depth: None,
            min_samples_split: 2,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            split_strategy: SplitStrategy::default(),
            n_jobs: 0,
            seed: 0,
            trees: Vec::new(),
            n_classes: 0,
            n_features: 0,
        }
    }

    /// Sets the RNG seed for reproducible forests.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bounds every tree's depth.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Sets the worker-thread count (0 = pool policy).
    pub fn with_n_jobs(mut self, jobs: usize) -> Self {
        self.n_jobs = jobs;
        self
    }

    /// Sets the split-finding strategy applied to every tree.
    pub fn with_split_strategy(mut self, s: SplitStrategy) -> Self {
        self.split_strategy = s;
        self
    }

    /// The fitted trees.
    pub fn trees(&self) -> &[DecisionTreeClassifier] {
        &self.trees
    }

    /// Per-row confidence: the probability of the predicted class. This is
    /// what ensemble selection by "highest confidence" (paper §3.3) uses.
    pub fn confidence(&self, x: &Matrix) -> MlResult<Vec<f64>> {
        let p = self.predict_proba(x)?;
        Ok((0..p.rows()).map(|r| p.row(r).iter().cloned().fold(0.0, f64::max)).collect())
    }

    /// Mean split-usage feature importances across trees.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for t in &self.trees {
            for (i, v) in t.feature_importances().iter().enumerate() {
                imp[i] += v;
            }
        }
        crate::tree::normalized(imp)
    }
}

impl Classifier for RandomForestClassifier {
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize) -> MlResult<()> {
        validate_fit_inputs(x, y, n_classes)?;
        if self.n_estimators == 0 {
            return Err(MlError::InvalidParam {
                param: "n_estimators",
                message: "need at least one tree".into(),
            });
        }
        self.n_classes = n_classes;
        self.n_features = x.cols();

        // Derive independent per-tree seeds from the master seed.
        let mut seeder = StdRng::seed_from_u64(self.seed);
        let tree_seeds: Vec<u64> = (0..self.n_estimators).map(|_| seeder.gen()).collect();

        // Rank every feature once; each tree sees the shared ranks through
        // its bootstrap drawn as per-row multiplicities.
        let data = FeatureRanks::new(x, self.split_strategy);
        let n = x.rows();
        let fit_one = |seed: u64| -> MlResult<DecisionTreeClassifier> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = DecisionTreeClassifier::new()
                .with_max_features(self.max_features)
                .with_split_strategy(self.split_strategy)
                .with_seed(rng.gen());
            tree.max_depth = self.max_depth;
            tree.min_samples_split = self.min_samples_split;
            let w = if self.bootstrap {
                let mut w = vec![0u32; n];
                for _ in 0..n {
                    w[rng.gen_range(0..n)] += 1;
                }
                w
            } else {
                vec![1; n]
            };
            tree.fit_weighted(&data, y, &w, n_classes)?;
            Ok(tree)
        };

        // Fit on the shared worker pool: tree i always consumes tree_seeds[i]
        // and results come back in index order, so the forest is bit-identical
        // for any thread count (including fully serial).
        self.trees = mlcs_columnar::parallel::parallel_tasks(
            self.n_estimators,
            self.n_jobs,
            || MlError::Internal("forest fitting worker panicked".into()),
            |i| fit_one(tree_seeds[i]),
        )?;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> MlResult<Vec<u32>> {
        Ok(crate::argmax_rows(&self.predict_proba(x)?))
    }

    fn predict_proba(&self, x: &Matrix) -> MlResult<Matrix> {
        if self.trees.is_empty() {
            return Err(MlError::NotFitted);
        }
        check_width(self.n_features, x)?;
        // Each cell sums its trees in tree order and divides once: the bits
        // of a serial sweep for any morsel split.
        let (nf, nc, k) = (self.n_features, self.n_classes, self.trees.len() as f64);
        crate::parallel::fill_rows_parallel(x.rows(), nc, |m, out| {
            add_tree_leaves(&self.trees, (&x.as_slice()[m.start * nf..], nf), (out, nc));
            out.iter_mut().for_each(|a| *a /= k);
            Ok(())
        })
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.n_features
    }
}

impl Pickle for RandomForestClassifier {
    const CLASS_NAME: &'static str = "RandomForestClassifier";
    fn pickle_body(&self, w: &mut Writer) {
        w.put_varint(self.n_estimators as u64);
        w.put_varint(self.max_depth.map(|d| d as u64 + 1).unwrap_or(0));
        w.put_varint(self.min_samples_split as u64);
        crate::tree::pickle_max_features(w, self.max_features);
        w.put_bool(self.bootstrap);
        crate::tree::pickle_split_strategy(w, self.split_strategy);
        w.put_u64(self.seed);
        w.put_varint(self.n_classes as u64);
        w.put_varint(self.n_features as u64);
        w.put_varint(self.trees.len() as u64);
        for t in &self.trees {
            t.pickle_body(w);
        }
    }

    fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
        let mut forest = RandomForestClassifier::new(r.get_varint()? as usize);
        forest.max_depth = r.get_varint()?.checked_sub(1).map(|d| d as usize);
        forest.min_samples_split = r.get_varint()? as usize;
        forest.max_features = crate::tree::unpickle_max_features(r)?;
        forest.bootstrap = r.get_bool()?;
        forest.split_strategy = crate::tree::unpickle_split_strategy(r)?;
        forest.seed = r.get_u64()?;
        let shape = (r.get_varint()? as usize, r.get_varint()? as usize);
        (forest.n_classes, forest.n_features) = shape;
        for i in 0..r.get_count(8)? {
            let tree = DecisionTreeClassifier::unpickle_body(r)?;
            // predict indexes rows by the forest's shape through every tree.
            if (tree.n_classes(), tree.n_features()) != shape {
                let (nc, nf) = (tree.n_classes(), tree.n_features());
                let msg =
                    format!("tree {i} has {nf} features and {nc} classes, the forest {shape:?}");
                return Err(PickleError::Invalid(msg));
            }
            forest.trees.push(tree);
        }
        Ok(forest)
    }

    fn size_hint(&self) -> usize {
        64 + self.trees.iter().map(Pickle::size_hint).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Two Gaussian-ish blobs, one per class.
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let cls = (i % 2) as u32;
            let center = if cls == 0 { -2.0 } else { 2.0 };
            rows.push([center + rng.gen_range(-1.0..1.0), center + rng.gen_range(-1.0..1.0)]);
            labels.push(cls);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn separable_blobs_classified() {
        let (x, y) = blobs(200, 1);
        let mut rf = RandomForestClassifier::new(16).with_seed(42);
        rf.fit(&x, &y, 2).unwrap();
        let (tx, ty) = blobs(100, 2);
        let pred = rf.predict(&tx).unwrap();
        let acc = crate::metrics::accuracy(&ty, &pred).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed_regardless_of_jobs() {
        let (x, y) = blobs(100, 3);
        let mut a = RandomForestClassifier::new(8).with_seed(7).with_n_jobs(1);
        let mut b = RandomForestClassifier::new(8).with_seed(7).with_n_jobs(4);
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_eq!(a.trees(), b.trees());
    }

    #[test]
    fn pooled_fit_matches_serial_fit() {
        let (x, y) = blobs(100, 8);
        let mut serial = RandomForestClassifier::new(8).with_seed(3).with_n_jobs(1);
        let mut pooled = RandomForestClassifier::new(8).with_seed(3); // n_jobs = 0
        serial.fit(&x, &y, 2).unwrap();
        pooled.fit(&x, &y, 2).unwrap();
        assert_eq!(serial.trees(), pooled.trees());
    }

    #[test]
    fn parallel_predict_bit_identical_to_serial() {
        let (x, y) = blobs(300, 13);
        let mut rf = RandomForestClassifier::new(12).with_seed(21);
        rf.fit(&x, &y, 2).unwrap();
        let serial = crate::parallel::with_threads(1, || rf.predict_proba(&x)).unwrap();
        let pooled = crate::parallel::with_threads(4, || rf.predict_proba(&x)).unwrap();
        assert_eq!(serial, pooled);
    }

    #[test]
    fn exact_strategy_forest_classifies() {
        let (x, y) = blobs(120, 17);
        let mut rf =
            RandomForestClassifier::new(8).with_seed(1).with_split_strategy(SplitStrategy::Exact);
        rf.fit(&x, &y, 2).unwrap();
        let acc = crate::metrics::accuracy(&y, &rf.predict(&x).unwrap()).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = blobs(100, 3);
        let mut a = RandomForestClassifier::new(4).with_seed(1);
        let mut b = RandomForestClassifier::new(4).with_seed(2);
        a.fit(&x, &y, 2).unwrap();
        b.fit(&x, &y, 2).unwrap();
        assert_ne!(a.trees(), b.trees());
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let (x, y) = blobs(60, 4);
        let mut rf = RandomForestClassifier::new(5).with_seed(0);
        rf.fit(&x, &y, 2).unwrap();
        let p = rf.predict_proba(&x).unwrap();
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn confidence_bounded() {
        let (x, y) = blobs(60, 5);
        let mut rf = RandomForestClassifier::new(5).with_seed(0);
        rf.fit(&x, &y, 2).unwrap();
        for c in rf.confidence(&x).unwrap() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn pickle_round_trip_preserves_predictions() {
        let (x, y) = blobs(80, 6);
        let mut rf = RandomForestClassifier::new(6).with_seed(9);
        rf.fit(&x, &y, 2).unwrap();
        let blob = mlcs_pickle::pickle(&rf);
        let back: RandomForestClassifier = mlcs_pickle::unpickle(&blob).unwrap();
        assert_eq!(back.predict(&x).unwrap(), rf.predict(&x).unwrap());
        assert_eq!(back, rf);
    }

    #[test]
    fn trees_must_match_the_forest_shape() {
        let (x, y) = blobs(40, 1);
        let mut rf = RandomForestClassifier::new(2).with_seed(1);
        rf.fit(&x, &y, 2).unwrap();
        let wide = Matrix::new((0..200).map(|i| (i % 7) as f64).collect(), 40, 5).unwrap();
        let (mut five_columns, mut three_classes) =
            (DecisionTreeClassifier::new(), DecisionTreeClassifier::new());
        five_columns.fit(&wide, &y, 2).unwrap();
        three_classes.fit(&x, &y, 3).unwrap();
        for tree in [five_columns, three_classes] {
            let mut forged = rf.clone();
            forged.trees[1] = tree;
            let blob = mlcs_pickle::pickle(&forged);
            let err = mlcs_pickle::unpickle::<RandomForestClassifier>(&blob).unwrap_err();
            assert!(matches!(err, PickleError::Invalid(_)), "{err:?}");
        }
    }

    #[test]
    fn misuse_errors() {
        let rf = RandomForestClassifier::new(4);
        let x = Matrix::from_rows(&[[0.0, 0.0]]).unwrap();
        assert_eq!(rf.predict(&x).unwrap_err(), MlError::NotFitted);
        let mut rf = RandomForestClassifier::new(0);
        let (xx, yy) = blobs(10, 0);
        assert!(matches!(rf.fit(&xx, &yy, 2), Err(MlError::InvalidParam { .. })));
    }

    #[test]
    fn more_trees_monotone_blob_accuracy() {
        // Not a strict law, but on easy data a bigger forest should not be
        // dramatically worse — sanity check the ensemble averaging.
        let (x, y) = blobs(300, 11);
        let (tx, ty) = blobs(200, 12);
        let acc = |n: usize| {
            let mut rf = RandomForestClassifier::new(n).with_seed(5);
            rf.fit(&x, &y, 2).unwrap();
            crate::metrics::accuracy(&ty, &rf.predict(&tx).unwrap()).unwrap()
        };
        assert!(acc(32) + 0.05 >= acc(1));
    }
}
