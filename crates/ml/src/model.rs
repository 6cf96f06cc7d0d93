//! [`Model`]: a type-erased wrapper over every classifier, with
//! class-name-dispatched (de)serialization.
//!
//! The database stores models as BLOBs of unknown concrete type; the
//! pickle envelope's class name tells [`Model::from_blob`] which
//! deserializer to use — the same trick Python's `pickle.loads` plays for
//! MonetDB/Python in the paper. A container (the stored model) writes the
//! class name beside the body with [`Model::pickle_body`] and reads it back
//! with [`Model::unpickle_body`], under its own single envelope.

use crate::dataset::Matrix;
use crate::error::MlResult;
use crate::forest::RandomForestClassifier;
use crate::knn::KNearestNeighbors;
use crate::linear::LogisticRegression;
use crate::naive_bayes::GaussianNb;
use crate::tree::DecisionTreeClassifier;
use crate::Classifier;
use mlcs_pickle::{pickle, Pickle, PickleError, Reader, Writer};

/// Any trained (or trainable) classifier.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// Random forest (the paper's model).
    RandomForest(RandomForestClassifier),
    /// Single CART tree.
    DecisionTree(DecisionTreeClassifier),
    /// Logistic regression.
    LogisticRegression(LogisticRegression),
    /// Gaussian naive Bayes.
    GaussianNb(GaussianNb),
    /// k-nearest neighbors.
    Knn(KNearestNeighbors),
}

impl Model {
    /// A short, stable algorithm name (stored as model metadata).
    pub fn algorithm(&self) -> &'static str {
        match self {
            Model::RandomForest(_) => "random_forest",
            Model::DecisionTree(_) => "decision_tree",
            Model::LogisticRegression(_) => "logistic_regression",
            Model::GaussianNb(_) => "gaussian_nb",
            Model::Knn(_) => "knn",
        }
    }

    /// Serializes to an enveloped pickle blob suitable for a BLOB column.
    pub fn to_blob(&self) -> Vec<u8> {
        match self {
            Model::RandomForest(m) => pickle(m),
            Model::DecisionTree(m) => pickle(m),
            Model::LogisticRegression(m) => pickle(m),
            Model::GaussianNb(m) => pickle(m),
            Model::Knn(m) => pickle(m),
        }
    }

    /// The inner model's [`Pickle::size_hint`]: a buffer size for
    /// [`Model::to_blob`]'s output without encoding it.
    pub fn size_hint(&self) -> usize {
        match self {
            Model::RandomForest(m) => m.size_hint(),
            Model::DecisionTree(m) => m.size_hint(),
            Model::LogisticRegression(m) => m.size_hint(),
            Model::GaussianNb(m) => m.size_hint(),
            Model::Knn(m) => m.size_hint(),
        }
    }

    /// Deserializes any model blob by dispatching on the envelope's class
    /// name. The envelope is opened, and its checksum computed, once.
    pub fn from_blob(blob: &[u8]) -> MlResult<Model> {
        let (class, payload) = mlcs_pickle::open(blob)?;
        let mut r = Reader::new(payload);
        let model = Model::unpickle_body(class, &mut r)?;
        r.expect_exhausted()?;
        Ok(model)
    }

    /// The class name the model's body is pickled under.
    pub fn class_name(&self) -> &'static str {
        match self {
            Model::RandomForest(_) => RandomForestClassifier::CLASS_NAME,
            Model::DecisionTree(_) => DecisionTreeClassifier::CLASS_NAME,
            Model::LogisticRegression(_) => LogisticRegression::CLASS_NAME,
            Model::GaussianNb(_) => GaussianNb::CLASS_NAME,
            Model::Knn(_) => KNearestNeighbors::CLASS_NAME,
        }
    }

    /// Writes the wrapped model's body (no envelope, no class name).
    pub fn pickle_body(&self, w: &mut Writer) {
        match self {
            Model::RandomForest(m) => m.pickle_body(w),
            Model::DecisionTree(m) => m.pickle_body(w),
            Model::LogisticRegression(m) => m.pickle_body(w),
            Model::GaussianNb(m) => m.pickle_body(w),
            Model::Knn(m) => m.pickle_body(w),
        }
    }

    /// Reads the body of a model pickled under `class` (see
    /// [`Model::class_name`]).
    pub fn unpickle_body(class: &str, r: &mut Reader) -> Result<Model, PickleError> {
        Ok(match class {
            RandomForestClassifier::CLASS_NAME => Model::RandomForest(Pickle::unpickle_body(r)?),
            DecisionTreeClassifier::CLASS_NAME => Model::DecisionTree(Pickle::unpickle_body(r)?),
            LogisticRegression::CLASS_NAME => Model::LogisticRegression(Pickle::unpickle_body(r)?),
            GaussianNb::CLASS_NAME => Model::GaussianNb(Pickle::unpickle_body(r)?),
            KNearestNeighbors::CLASS_NAME => Model::Knn(Pickle::unpickle_body(r)?),
            other => {
                return Err(PickleError::Invalid(format!(
                    "blob holds a '{other}', which is not a known model class"
                )))
            }
        })
    }

    /// Per-row confidence: probability of the predicted class.
    pub fn confidence(&self, x: &Matrix) -> MlResult<Vec<f64>> {
        let p = self.predict_proba(x)?;
        Ok((0..p.rows()).map(|r| p.row(r).iter().cloned().fold(0.0, f64::max)).collect())
    }
}

impl Classifier for Model {
    // The `Model` wrapper is the entry point every database-side caller
    // (UDFs, the model store, fig1) goes through, so train/predict wall
    // time and row counts are recorded here in the shared registry.
    fn fit(&mut self, x: &Matrix, y: &[u32], n_classes: usize) -> MlResult<()> {
        mlcs_columnar::metrics::counter("ml.train.rows").add(x.rows() as u64);
        let (result, _) = mlcs_columnar::metrics::time_section("ml.train.time_ns", || match self {
            Model::RandomForest(m) => m.fit(x, y, n_classes),
            Model::DecisionTree(m) => m.fit(x, y, n_classes),
            Model::LogisticRegression(m) => m.fit(x, y, n_classes),
            Model::GaussianNb(m) => m.fit(x, y, n_classes),
            Model::Knn(m) => m.fit(x, y, n_classes),
        });
        result
    }

    fn predict(&self, x: &Matrix) -> MlResult<Vec<u32>> {
        mlcs_columnar::metrics::counter("ml.predict.rows").add(x.rows() as u64);
        let (result, _) =
            mlcs_columnar::metrics::time_section("ml.predict.time_ns", || match self {
                Model::RandomForest(m) => m.predict(x),
                Model::DecisionTree(m) => m.predict(x),
                Model::LogisticRegression(m) => m.predict(x),
                Model::GaussianNb(m) => m.predict(x),
                Model::Knn(m) => m.predict(x),
            });
        result
    }

    fn predict_proba(&self, x: &Matrix) -> MlResult<Matrix> {
        mlcs_columnar::metrics::counter("ml.predict.rows").add(x.rows() as u64);
        let (result, _) =
            mlcs_columnar::metrics::time_section("ml.predict.time_ns", || match self {
                Model::RandomForest(m) => m.predict_proba(x),
                Model::DecisionTree(m) => m.predict_proba(x),
                Model::LogisticRegression(m) => m.predict_proba(x),
                Model::GaussianNb(m) => m.predict_proba(x),
                Model::Knn(m) => m.predict_proba(x),
            });
        result
    }

    fn n_classes(&self) -> usize {
        match self {
            Model::RandomForest(m) => m.n_classes(),
            Model::DecisionTree(m) => m.n_classes(),
            Model::LogisticRegression(m) => m.n_classes(),
            Model::GaussianNb(m) => m.n_classes(),
            Model::Knn(m) => m.n_classes(),
        }
    }

    fn n_features(&self) -> usize {
        match self {
            Model::RandomForest(m) => m.n_features(),
            Model::DecisionTree(m) => m.n_features(),
            Model::LogisticRegression(m) => m.n_features(),
            Model::GaussianNb(m) => m.n_features(),
            Model::Knn(m) => m.n_features(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MlError;

    fn data() -> (Matrix, Vec<u32>) {
        let rows: Vec<[f64; 1]> = (0..20).map(|i| [i as f64]).collect();
        let y: Vec<u32> = (0..20).map(|i| (i >= 10) as u32).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    fn all_models() -> Vec<Model> {
        vec![
            Model::RandomForest(RandomForestClassifier::new(4).with_seed(0)),
            Model::DecisionTree(DecisionTreeClassifier::new()),
            Model::LogisticRegression(LogisticRegression::new().with_epochs(200)),
            Model::GaussianNb(GaussianNb::new()),
            Model::Knn(KNearestNeighbors::new(3)),
        ]
    }

    #[test]
    fn every_model_round_trips_through_blob() {
        let (x, y) = data();
        for mut m in all_models() {
            m.fit(&x, &y, 2).unwrap();
            let blob = m.to_blob();
            let back = Model::from_blob(&blob).unwrap();
            assert_eq!(back.algorithm(), m.algorithm());
            assert_eq!(
                back.predict(&x).unwrap(),
                m.predict(&x).unwrap(),
                "{} predictions changed across serialization",
                m.algorithm()
            );
        }
    }

    #[test]
    fn every_model_learns_the_easy_split() {
        let (x, y) = data();
        for mut m in all_models() {
            m.fit(&x, &y, 2).unwrap();
            let pred = m.predict(&x).unwrap();
            let acc = crate::metrics::accuracy(&y, &pred).unwrap();
            assert!(acc >= 0.9, "{} accuracy {acc}", m.algorithm());
        }
    }

    #[test]
    fn unknown_class_rejected() {
        let blob = mlcs_pickle::pickle(&String::from("not a model"));
        let err = Model::from_blob(&blob).unwrap_err();
        assert!(matches!(err, MlError::Serde(_)));
        assert!(err.to_string().contains("String"));
    }

    #[test]
    fn corrupted_blob_rejected() {
        let (x, y) = data();
        let mut m = Model::GaussianNb(GaussianNb::new());
        m.fit(&x, &y, 2).unwrap();
        let mut blob = m.to_blob();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x55;
        assert!(Model::from_blob(&blob).is_err());
    }

    #[test]
    fn confidence_is_max_probability() {
        let (x, y) = data();
        let mut m = Model::GaussianNb(GaussianNb::new());
        m.fit(&x, &y, 2).unwrap();
        let conf = m.confidence(&x).unwrap();
        let proba = m.predict_proba(&x).unwrap();
        for (r, &c) in conf.iter().enumerate() {
            let max = proba.row(r).iter().cloned().fold(0.0, f64::max);
            assert_eq!(c, max);
            assert!(c >= 0.5 - 1e-12);
        }
    }
}
