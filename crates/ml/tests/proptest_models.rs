//! Property-based tests over the ML library: invariants every classifier
//! must satisfy on arbitrary (valid) training data.

use mlcs_ml::dataset::{ClassMap, Matrix};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Classifier, Model};
use proptest::prelude::*;

/// A valid little training problem: 10–60 rows, 1–4 features, 2–3 classes
/// with every class represented.
fn training_problem() -> impl Strategy<Value = (Matrix, Vec<u32>, usize)> {
    (10usize..60, 1usize..5, 2usize..4).prop_flat_map(|(rows, cols, classes)| {
        let data = proptest::collection::vec(-100.0f64..100.0, rows * cols);
        let labels = proptest::collection::vec(0u32..classes as u32, rows);
        (data, labels, Just(rows), Just(cols), Just(classes)).prop_map(
            |(data, mut labels, rows, cols, classes)| {
                // Guarantee every class occurs at least once.
                for c in 0..classes {
                    labels[c % rows] = c as u32;
                }
                (Matrix::new(data, rows, cols).expect("shape"), labels, classes)
            },
        )
    })
}

fn models() -> Vec<Model> {
    vec![
        Model::DecisionTree(DecisionTreeClassifier::new().with_max_depth(6)),
        Model::GaussianNb(GaussianNb::new()),
        Model::Knn(KNearestNeighbors::new(3)),
        Model::RandomForest(RandomForestClassifier::new(4).with_seed(0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// predict() returns labels within range, one per row, and
    /// predict_proba rows are normalized distributions.
    #[test]
    fn predictions_well_formed((x, y, classes) in training_problem()) {
        for mut m in models() {
            m.fit(&x, &y, classes).expect("fit");
            let pred = m.predict(&x).expect("predict");
            prop_assert_eq!(pred.len(), x.rows());
            prop_assert!(pred.iter().all(|&p| (p as usize) < classes));
            let proba = m.predict_proba(&x).expect("proba");
            prop_assert_eq!(proba.rows(), x.rows());
            prop_assert_eq!(proba.cols(), classes);
            for r in 0..proba.rows() {
                let row = proba.row(r);
                let sum: f64 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6, "{} row {r} sums {sum}", m.algorithm());
                prop_assert!(row.iter().all(|&p| (-1e-9..=1.0 + 1e-9).contains(&p)));
            }
        }
    }

    /// Serialization round trip preserves predictions exactly.
    #[test]
    fn blob_round_trip_preserves_behaviour((x, y, classes) in training_problem()) {
        for mut m in models() {
            m.fit(&x, &y, classes).expect("fit");
            let blob = m.to_blob();
            let back = Model::from_blob(&blob).expect("round trip");
            prop_assert_eq!(
                back.predict(&x).expect("predict"),
                m.predict(&x).expect("predict"),
                "{} changed across serialization", m.algorithm()
            );
        }
    }

    /// Prediction is argmax of predict_proba.
    #[test]
    fn predict_is_argmax_of_proba((x, y, classes) in training_problem()) {
        for mut m in models() {
            m.fit(&x, &y, classes).expect("fit");
            let pred = m.predict(&x).expect("predict");
            let proba = m.predict_proba(&x).expect("proba");
            for (r, &p) in pred.iter().enumerate() {
                let row = proba.row(r);
                let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(
                    (row[p as usize] - max).abs() < 1e-12,
                    "{} row {r}: predicted class {p} has {} but max is {max}",
                    m.algorithm(), row[p as usize]
                );
            }
        }
    }

    /// ClassMap encode/decode are inverse bijections on seen labels.
    #[test]
    fn class_map_bijective(labels in proptest::collection::vec(-1000i64..1000, 1..100)) {
        let cm = ClassMap::fit(&labels);
        let encoded = cm.encode(&labels).expect("encode seen labels");
        let decoded = cm.decode(&encoded).expect("decode");
        prop_assert_eq!(decoded, labels);
    }

    /// The class map holds the sorted distinct labels, whether there are a
    /// few of them or more than fit its small vector.
    #[test]
    fn class_map_is_the_sorted_distinct_labels(
        labels in proptest::collection::vec(-1000i64..1000, 1..300),
        few in 1i64..6,
    ) {
        for labels in [labels.iter().map(|l| l.rem_euclid(few)).collect(), labels] {
            let mut want = labels.clone();
            want.sort_unstable();
            want.dedup();
            let cm = ClassMap::fit(&labels);
            let got: Vec<i64> = (0..cm.n_classes() as u32).filter_map(|i| cm.label(i)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// A single-leaf tree (trained on constant labels) predicts that label
    /// everywhere, including far outside the training range.
    #[test]
    fn constant_labels_learned_exactly(
        rows in 5usize..30,
        probe in -1e6f64..1e6,
    ) {
        let x = Matrix::new((0..rows).map(|i| i as f64).collect(), rows, 1).expect("shape");
        let y = vec![1u32; rows];
        let mut t = DecisionTreeClassifier::new();
        t.fit(&x, &y, 2).expect("fit");
        let p = t.predict(&Matrix::new(vec![probe], 1, 1).expect("shape")).expect("predict");
        prop_assert_eq!(p, vec![1]);
    }

    /// Forests are invariant to the fitting thread count.
    #[test]
    fn forest_thread_count_irrelevant((x, y, classes) in training_problem()) {
        let mut a = RandomForestClassifier::new(5).with_seed(3).with_n_jobs(1);
        let mut b = RandomForestClassifier::new(5).with_seed(3).with_n_jobs(4);
        a.fit(&x, &y, classes).expect("fit");
        b.fit(&x, &y, classes).expect("fit");
        prop_assert_eq!(a.trees(), b.trees());
    }

    /// Histogram and exact split finding never disagree on predicted
    /// labels: with at most 60 rows every feature has at most 60 distinct
    /// values, which fit in the default 255 bins, where the histogram
    /// strategy scans exactly the midpoint thresholds the sort-based
    /// strategy does — so the trees partition identically.
    #[test]
    fn split_strategies_agree_on_predictions((x, y, classes) in training_problem()) {
        use mlcs_ml::tree::SplitStrategy;
        let mut exact = DecisionTreeClassifier::new()
            .with_seed(11)
            .with_split_strategy(SplitStrategy::Exact);
        let mut hist = DecisionTreeClassifier::new()
            .with_seed(11)
            .with_split_strategy(SplitStrategy::default());
        exact.fit(&x, &y, classes).expect("fit exact");
        hist.fit(&x, &y, classes).expect("fit histogram");
        prop_assert_eq!(
            exact.predict(&x).expect("predict exact"),
            hist.predict(&x).expect("predict histogram"),
            "tree strategies disagree"
        );

        let mut f_exact = RandomForestClassifier::new(5)
            .with_seed(11)
            .with_split_strategy(SplitStrategy::Exact);
        let mut f_hist = RandomForestClassifier::new(5)
            .with_seed(11)
            .with_split_strategy(SplitStrategy::default());
        f_exact.fit(&x, &y, classes).expect("fit exact forest");
        f_hist.fit(&x, &y, classes).expect("fit histogram forest");
        prop_assert_eq!(
            f_exact.predict(&x).expect("predict exact forest"),
            f_hist.predict(&x).expect("predict histogram forest"),
            "forest strategies disagree"
        );
    }
}
