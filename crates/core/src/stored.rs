//! [`StoredModel`]: the unit of model persistence — a trained classifier
//! bundled with its label mapping, pickled as one BLOB: one envelope and
//! one checksum around the label map, the model's class name and the
//! model's body.

use mlcs_ml::dataset::ClassMap;
use mlcs_ml::{Classifier, Matrix, MlResult, Model};
use mlcs_pickle::{Pickle, PickleError, Reader, Writer};

/// A trained model plus the mapping between raw labels (as stored in the
/// database, e.g. party ids) and the dense class indices the model uses.
///
/// This is what the paper's `pickle.dumps(clf)` produces in spirit: one
/// opaque byte string that the `predict` UDF can revive and apply.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredModel {
    /// The trained classifier.
    pub model: Model,
    /// Raw-label ↔ class-index mapping.
    pub classes: ClassMap,
}

impl StoredModel {
    /// Trains `model` on features and **raw** labels, fitting the class
    /// map on the way.
    pub fn train(mut model: Model, x: &Matrix, raw_labels: &[i64]) -> MlResult<StoredModel> {
        let classes = ClassMap::fit(raw_labels);
        let y = classes.encode(raw_labels)?;
        model.fit(x, &y, classes.n_classes())?;
        Ok(StoredModel { model, classes })
    }

    /// Predicts **raw** labels for the feature rows.
    pub fn predict(&self, x: &Matrix) -> MlResult<Vec<i64>> {
        let idx = self.model.predict(x)?;
        self.classes.decode(&idx)
    }

    /// Per-row probability of the predicted class.
    pub fn confidence(&self, x: &Matrix) -> MlResult<Vec<f64>> {
        self.model.confidence(x)
    }

    /// Per-row probability of one specific raw label (0.0 for labels the
    /// model never saw).
    pub fn proba_of(&self, x: &Matrix, raw_label: i64) -> MlResult<Vec<f64>> {
        let proba = self.model.predict_proba(x)?;
        Ok(match self.classes.index(raw_label) {
            Some(c) => (0..proba.rows()).map(|r| proba.get(r, c as usize)).collect(),
            None => vec![0.0; proba.rows()],
        })
    }

    /// Serializes into a BLOB for storage in the database.
    ///
    /// Each call feeds the `pickle.serialize.invocations` counter and the
    /// `pickle.serialize.bytes` histogram — `mlcs-pickle` itself is a leaf
    /// crate, so the envelope's byte accounting hooks in here, at the point
    /// where models cross into the engine.
    pub fn to_blob(&self) -> Vec<u8> {
        let blob = mlcs_pickle::pickle(self);
        mlcs_columnar::metrics::counter("pickle.serialize.invocations").incr();
        mlcs_columnar::metrics::record_bytes("pickle.serialize.bytes", blob.len());
        blob
    }

    /// Revives a stored model from a BLOB, feeding the
    /// `pickle.deserialize.*` metrics (see [`StoredModel::to_blob`]).
    ///
    /// This is also the `pickle.decode` fault-injection point: `mlcs-pickle`
    /// is a leaf crate below the injector, so — like the metrics hooks —
    /// decode faults are applied here, where model bytes cross back into
    /// the engine. An injected `flip` exercises the envelope's checksum
    /// path; every other kind fails the decode outright.
    pub fn from_blob(blob: &[u8]) -> MlResult<StoredModel> {
        mlcs_columnar::metrics::counter("pickle.deserialize.invocations").incr();
        mlcs_columnar::metrics::record_bytes("pickle.deserialize.bytes", blob.len());
        match mlcs_columnar::faults::decide("pickle.decode") {
            None => Ok(mlcs_pickle::unpickle(blob)?),
            Some(f) => match f.kind {
                mlcs_columnar::faults::FaultKind::Delay => {
                    std::thread::sleep(mlcs_columnar::faults::DELAY);
                    Ok(mlcs_pickle::unpickle(blob)?)
                }
                mlcs_columnar::faults::FaultKind::Flip => {
                    let mut copy = blob.to_vec();
                    if !copy.is_empty() {
                        let pos = (f.rand as usize) % copy.len();
                        copy[pos] ^= 1 + ((f.rand >> 17) % 255) as u8;
                    }
                    Ok(mlcs_pickle::unpickle(&copy)?)
                }
                _ => Err(PickleError::Invalid("injected fault: pickle.decode".into()).into()),
            },
        }
    }

    /// The algorithm name of the wrapped model.
    pub fn algorithm(&self) -> &'static str {
        self.model.algorithm()
    }
}

impl Pickle for StoredModel {
    const CLASS_NAME: &'static str = "StoredModel";
    fn pickle_body(&self, w: &mut Writer) {
        self.classes.pickle_body(w);
        w.put_str(self.model.class_name());
        self.model.pickle_body(w);
    }
    fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
        let classes = ClassMap::unpickle_body(r)?;
        let class = r.get_str()?;
        let model = Model::unpickle_body(class, r)?;
        Ok(StoredModel { model, classes })
    }
    fn size_hint(&self) -> usize {
        // The label map and the class name fit the 64 bytes in the common
        // case; sizing never encodes the model.
        64 + self.model.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcs_ml::forest::RandomForestClassifier;
    use mlcs_ml::naive_bayes::GaussianNb;

    fn data() -> (Matrix, Vec<i64>) {
        let rows: Vec<[f64; 1]> = (0..20).map(|i| [i as f64]).collect();
        // Raw labels are arbitrary ints (like party ids 100/200).
        let y: Vec<i64> = (0..20).map(|i| if i < 10 { 100 } else { 200 }).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    }

    #[test]
    fn train_predict_with_raw_labels() {
        let (x, y) = data();
        let sm = StoredModel::train(
            Model::RandomForest(RandomForestClassifier::new(8).with_seed(1)),
            &x,
            &y,
        )
        .unwrap();
        let pred = sm.predict(&x).unwrap();
        assert!(pred.iter().all(|&p| p == 100 || p == 200));
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(acc >= 18);
    }

    #[test]
    fn blob_round_trip() {
        let (x, y) = data();
        let sm = StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &y).unwrap();
        let blob = sm.to_blob();
        let back = StoredModel::from_blob(&blob).unwrap();
        assert_eq!(back, sm);
        assert_eq!(back.predict(&x).unwrap(), sm.predict(&x).unwrap());
    }

    #[test]
    fn proba_of_unknown_label_is_zero() {
        let (x, y) = data();
        let sm = StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &y).unwrap();
        let p = sm.proba_of(&x, 999).unwrap();
        assert!(p.iter().all(|&v| v == 0.0));
        let p100 = sm.proba_of(&x, 100).unwrap();
        assert!(p100[0] > 0.5);
    }

    #[test]
    fn corrupted_blob_rejected() {
        let (x, y) = data();
        let sm = StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &y).unwrap();
        let mut blob = sm.to_blob();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        assert!(StoredModel::from_blob(&blob).is_err());
    }

    #[test]
    fn confidence_matches_predicted_class() {
        let (x, y) = data();
        let sm = StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &y).unwrap();
        let conf = sm.confidence(&x).unwrap();
        assert!(conf.iter().all(|&c| (0.5..=1.0).contains(&c)));
    }
}
