//! The paper's vectorized machine-learning UDFs.
//!
//! * [`TrainUdf`] — the one trainer, under two SQL names: `train` is the
//!   paper's Listing 1 (a random forest on whole columns) and
//!   `train_model` takes the algorithm by name (the paper notes swapping
//!   models is trivial; here it is an argument). Either returns the
//!   pickled model plus metadata as a one-row table.
//! * [`PredictUdf`] — Listing 2: a scalar function that revives a model
//!   BLOB and classifies the feature columns morsel-parallel on the worker
//!   pool (the paper's §5.1 future work).
//! * [`PredictConfidenceUdf`] / [`PredictProbaOfUdf`] — probability
//!   outputs enabling the ensemble queries of §3.3.
//! * [`EvaluateUdf`] — scores a stored model against labeled data.
//! * [`CrossValidateUdf`] — k-fold cross-validation of a named algorithm.
//!
//! The four model UDFs resolve their arguments through one helper that
//! revives models via the database's shared [`ModelCache`] — decoded once
//! per distinct BLOB (§5.1) — and applies row `i` with the model in
//! classifier row `i`, so one query can apply every stored model. Each
//! distinct model walks each distinct input once: rows are grouped by
//! classifier bytes, then by their features' dictionary codes. A row
//! with a NULL feature or a NULL classifier has no prediction: the scalar
//! UDFs return NULL for it and `evaluate` rejects it, as `train` rejects
//! NULL features.

use crate::bridge::{labels_from_column, matrix_from_columns};
use crate::cache::{bucket, ModelCache};
use crate::stored::StoredModel;
use mlcs_columnar::{
    Batch, Bitmap, BlobColumn, Column, ColumnData, DataType, Database, DbError, DbResult, Field,
    ScalarUdf, Schema, TableUdf,
};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::linear::LogisticRegression;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Matrix, MlError, MlResult, Model};
use std::collections::HashMap;
use std::sync::Arc;

/// The RNG seed of every model the trainers build. Client-side pipelines
/// that must reproduce the in-database model bit-for-bit (the Figure 1
/// comparison) seed their forests with this value.
pub const DEFAULT_TRAIN_SEED: u64 = 42;

/// The largest tree or epoch count a trainer accepts. Far above any real
/// use, and low enough that what it sizes (one seed per tree, one pass per
/// epoch) is always affordable.
const MAX_MODEL_SIZE: i64 = 10_000;

fn udf_err(function: &str, e: MlError) -> DbError {
    DbError::Udf { function: function.to_owned(), message: e.to_string() }
}

/// The error a UDF reports when called with the wrong arguments.
fn usage(function: &str, usage: &str) -> DbError {
    DbError::Udf { function: function.to_owned(), message: format!("usage: {usage}") }
}

/// The schema every trainer returns: the pickled classifier plus its
/// metadata, ready to be `INSERT INTO models SELECT * FROM train(...)`.
fn train_output_schema() -> DbResult<Arc<Schema>> {
    Ok(Arc::new(Schema::new(vec![
        Field::not_null("classifier", DataType::Blob),
        Field::not_null("algorithm", DataType::Varchar),
        Field::not_null("parameters", DataType::Varchar),
        Field::not_null("n_features", DataType::Int32),
        Field::not_null("train_rows", DataType::Int64),
    ])?))
}

fn train_output(sm: &StoredModel, parameters: String, rows: usize) -> DbResult<Batch> {
    let blob = sm.to_blob();
    Batch::new(
        train_output_schema()?,
        vec![
            Arc::new(Column::from_blobs([blob.as_slice()])),
            Arc::new(Column::from_strings([sm.algorithm()])),
            Arc::new(Column::from_strings([parameters.as_str()])),
            Arc::new(Column::from_i32s(vec![sm.model_n_features() as i32])),
            Arc::new(Column::from_i64s(vec![rows as i64])),
        ],
    )
}

impl StoredModel {
    fn model_n_features(&self) -> usize {
        use mlcs_ml::Classifier;
        self.model.n_features()
    }
}

/// Splits trainer arguments into `(features, labels, integer parameters)`.
///
/// Convention (matching the paper's `train(data, classes, n_estimators)`):
/// the final `n_params` arguments are non-NULL integer scalars, the column
/// before them is the label column, and everything earlier is a feature.
fn split_train_args<'a>(
    function: &str,
    args: &'a [Arc<Column>],
    n_params: usize,
) -> DbResult<(Vec<&'a Column>, &'a Column, Vec<i64>)> {
    if args.len() < 2 + n_params {
        return Err(DbError::Udf {
            function: function.to_owned(),
            message: format!(
                "expected at least {} arguments (features..., labels, {n_params} parameter(s)), got {}",
                2 + n_params,
                args.len()
            ),
        });
    }
    let (rest, params) = args.split_at(args.len() - n_params);
    let params = params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.i64_at(0).filter(|_| p.len() == 1).ok_or_else(|| DbError::Udf {
                function: function.to_owned(),
                message: format!("parameter argument {i} must be a non-NULL integer scalar"),
            })
        })
        .collect::<DbResult<Vec<i64>>>()?;
    let [features @ .., labels] = rest else {
        return Err(usage(function, "features..., labels, parameters"));
    };
    Ok((features.iter().map(|c| c.as_ref()).collect(), labels, params))
}

/// The algorithm name a `train_model` or `cross_validate` call starts with.
fn algorithm_arg(function: &str, args: &[Arc<Column>]) -> DbResult<String> {
    args.first()
        .filter(|c| c.len() == 1)
        .and_then(|c| c.strings())
        .map(|s| s.get(0).to_owned())
        .ok_or_else(|| DbError::Udf {
            function: function.to_owned(),
            message: "the first argument must be the algorithm name as a VARCHAR scalar".into(),
        })
}

/// The untrained model `algorithm` names, configured by `param` — the one
/// place an algorithm name and parameter become a model, for `train`,
/// `train_model` and `cross_validate` alike.
///
/// Algorithms and their `param`: `random_forest` (trees) and
/// `logistic_regression` (epochs), each 1 to [`MAX_MODEL_SIZE`];
/// `decision_tree` (max depth, 0 or below = unbounded); `gaussian_nb`
/// (ignored); `knn` (k, at least 1 and at most the training rows). A
/// parameter out of range is rejected here, before anything it sizes is
/// allocated.
fn model_by_name(function: &str, algorithm: &str, param: i64) -> DbResult<Model> {
    let sized = |name: &str, max: i64| {
        if (1..=max).contains(&param) {
            Ok(param as usize)
        } else {
            Err(DbError::Udf {
                function: function.to_owned(),
                message: format!("{name} must be between 1 and {max}, got {param}"),
            })
        }
    };
    let seed = DEFAULT_TRAIN_SEED;
    Ok(match algorithm {
        "random_forest" => Model::RandomForest(
            RandomForestClassifier::new(sized("n_estimators", MAX_MODEL_SIZE)?).with_seed(seed),
        ),
        "decision_tree" => {
            let mut t = DecisionTreeClassifier::new().with_seed(seed);
            if param > 0 {
                t.max_depth = Some(param as usize);
            }
            Model::DecisionTree(t)
        }
        "logistic_regression" => Model::LogisticRegression(
            LogisticRegression::new().with_seed(seed).with_epochs(sized("epochs", MAX_MODEL_SIZE)?),
        ),
        "gaussian_nb" => Model::GaussianNb(GaussianNb::new()),
        "knn" => Model::Knn(KNearestNeighbors::new(sized("k", i64::MAX)?)),
        other => {
            return Err(DbError::Udf {
                function: function.to_owned(),
                message: format!(
                    "unknown algorithm '{other}' (expected random_forest, decision_tree, \
                     logistic_regression, gaussian_nb, or knn)"
                ),
            })
        }
    })
}

/// The trainer: one table UDF registered under two SQL names.
///
/// * `train(features..., labels, n_estimators)` — the paper's Listing 1,
///   a random forest of `n_estimators` trees; `parameters` reads
///   `n_estimators=n`.
/// * `train_model('algorithm', features..., labels, param)` — any
///   algorithm `model_by_name` knows; `parameters` reads
///   `algorithm=a,param=p`.
///
/// So `train(…, n)` and `train_model('random_forest', …, n)` store the
/// same classifier bytes. Both return `TABLE(classifier BLOB, algorithm
/// VARCHAR, parameters VARCHAR, n_features INTEGER, train_rows BIGINT)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainUdf {
    /// `train(features..., labels, n_estimators)`.
    Forest,
    /// `train_model('algorithm', features..., labels, param)`.
    ByName,
}

impl TableUdf for TrainUdf {
    fn name(&self) -> &str {
        match self {
            TrainUdf::Forest => "train",
            TrainUdf::ByName => "train_model",
        }
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        match (self, arg_types) {
            (TrainUdf::Forest, [_, _, _, ..]) => train_output_schema(),
            (TrainUdf::ByName, [DataType::Varchar, _, _, _, ..]) => train_output_schema(),
            (TrainUdf::Forest, _) => {
                Err(usage("train", "train(features..., labels, n_estimators)"))
            }
            (TrainUdf::ByName, _) => {
                Err(usage("train_model", "train_model('algorithm', features..., labels, param)"))
            }
        }
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        let function = self.name();
        let (algorithm, args) = match self {
            TrainUdf::Forest => ("random_forest".to_owned(), args),
            TrainUdf::ByName => (algorithm_arg(function, args)?, &args[1..]),
        };
        let (features, labels, params) = split_train_args(function, args, 1)?;
        let param = params[0];
        let model = model_by_name(function, &algorithm, param)?;
        let x = matrix_from_columns(&features)?;
        let y = labels_from_column(labels)?;
        mlcs_columnar::metrics::counter("udf.train.rows").add(x.rows() as u64);
        let (sm, _) = mlcs_columnar::metrics::time_section("udf.train.time_ns", || {
            StoredModel::train(model, &x, &y)
        });
        let sm = sm.map_err(|e| udf_err(function, e))?;
        let parameters = match self {
            TrainUdf::Forest => format!("n_estimators={param}"),
            TrainUdf::ByName => format!("algorithm={algorithm},param={param}"),
        };
        train_output(&sm, parameters, x.rows())
    }
}

/// One distinct classifier: its model (`None` for a NULL classifier) and
/// the output rows it classifies (`None` being every row).
type ModelRows = (Option<Arc<StoredModel>>, Option<Vec<usize>>);

/// A model UDF's arguments, resolved: the feature rows each distinct
/// classifier is applied to, and where each output row's answer comes
/// from.
struct ModelArgs {
    /// The output rows.
    rows: usize,
    /// The feature rows the models read: one per distinct feature tuple
    /// when `keys` is set, else one per output row.
    x: Matrix,
    /// Each output row's row of `x`, when the rows were grouped by their
    /// features' dictionary codes.
    keys: Option<Vec<u32>>,
    /// The distinct classifiers, in first appearance.
    models: Vec<ModelRows>,
    /// The rows whose features and classifier are all non-NULL; `None`
    /// when every row's are. The model reads a NULL feature as NaN, so its
    /// answer for such a row is not a prediction.
    valid: Option<Bitmap>,
}

/// Resolves the feature columns and the classifier column of a model UDF —
/// the one path by which `predict`, `predict_confidence`,
/// `predict_proba_of` and `evaluate` revive stored models.
///
/// The output length is the longest argument; length-1 arguments
/// broadcast. Row `i` uses the model in classifier row `i`, so one query
/// can apply every stored model (paper §3.3). The rows are grouped twice,
/// so that each model walks each distinct input once:
/// * by classifier bytes ([`classifier_groups`]), so each distinct model
///   is looked up in the [`ModelCache`] once whatever the row order;
/// * by feature tuple, when every feature that varies is a non-float
///   dictionary whose composite codes fit the aggregate's code array
///   ([`mlcs_columnar::exec::dict_groups`]): the matrix then holds one row
///   per distinct tuple. Other features (floats, plain or RLE columns, a
///   wider code space) give the matrix one row per output row.
///
/// A model's answer is a pure function of the row's feature bits, and rows
/// with equal codes have equal bits, so both groupings give every row the
/// bits its own walk would.
fn resolve(
    function: &str,
    args: &[Arc<Column>],
    classifier: &Column,
    cache: &ModelCache,
) -> DbResult<ModelArgs> {
    let classifier = classifier.decoded();
    let blobs = classifier.blobs().ok_or_else(|| DbError::Udf {
        function: function.to_owned(),
        message: format!("classifier argument must be a BLOB, got {}", classifier.data_type()),
    })?;
    let lens = args.iter().map(|c| c.len()).chain([blobs.len()]);
    let rows = if lens.clone().any(|n| n == 0) { 0 } else { lens.max().unwrap_or(0) };
    let features = args
        .iter()
        .map(|c| match c.len() {
            n if n == rows => Ok(c.clone()),
            1 => Ok(Arc::new(c.broadcast_to(rows)?)),
            n => Err(DbError::Udf {
                function: function.to_owned(),
                message: format!("feature argument has {n} rows, expected {rows} (or 1)"),
            }),
        })
        .collect::<DbResult<Vec<_>>>()?;
    // A NULL classifier row holds no bytes: it has no model, not a
    // broken one.
    let model = |i: u32| -> DbResult<Option<Arc<StoredModel>>> {
        if classifier.is_null(i as usize) {
            Ok(None)
        } else {
            cache.get_or_decode(blobs.get(i as usize)).map(Some)
        }
    };
    let (models, classifier_valid) = match blobs.len() {
        _ if rows == 0 => (Vec::new(), None),
        1 => (vec![(model(0)?, None)], classifier.is_null(0).then(|| Bitmap::filled(rows, false))),
        n if n == rows => {
            let (ids, firsts) = classifier_groups(&classifier, blobs);
            // One classifier classifies every row; several split them.
            let mut members: Vec<Option<Vec<usize>>> = vec![None; firsts.len()];
            if firsts.len() > 1 {
                for (row, &g) in ids.iter().enumerate() {
                    members[g as usize].get_or_insert_with(Vec::new).push(row);
                }
            }
            let models = firsts
                .iter()
                .zip(members)
                .map(|(&first, rows)| Ok((model(first)?, rows)))
                .collect::<DbResult<Vec<_>>>()?;
            (models, classifier.validity().cloned())
        }
        n => {
            return Err(DbError::Udf {
                function: function.to_owned(),
                message: format!("classifier argument has {n} rows, expected {rows} (or 1)"),
            })
        }
    };
    let valid = features
        .iter()
        .filter_map(|c| c.validity())
        .chain(classifier_valid.as_ref())
        .fold(None, |all, v| Some(all.map_or_else(|| v.clone(), |all: Bitmap| all.and(v))));
    // A broadcast feature is one value: only the others tell rows apart.
    let varying: Vec<&Column> = args.iter().filter(|c| c.len() > 1).map(|c| c.as_ref()).collect();
    let grouped = match rows {
        0 => None,
        _ if varying.is_empty() => Some((vec![0; rows], vec![0])),
        _ => mlcs_columnar::exec::dict_groups(&varying),
    };
    let (x, keys) = match grouped {
        Some((ids, firsts)) => {
            let distinct: Vec<Column> = features.iter().map(|c| c.take(&firsts)).collect();
            (matrix_from_columns(&distinct.iter().collect::<Vec<&Column>>())?, Some(ids))
        }
        None => {
            (matrix_from_columns(&features.iter().map(|c| c.as_ref()).collect::<Vec<_>>())?, None)
        }
    };
    Ok(ModelArgs { rows, x, keys, models, valid })
}

/// Numbers the distinct classifiers of a full classifier column by first
/// appearance, returning each row's group and each group's first row. Equal
/// bytes are one group wherever their rows sit: the cache's [`bucket`]
/// names the candidate groups and a byte compare with each one's first blob
/// decides, so a bucket collision opens a group of its own. The NULL rows
/// are one group.
fn classifier_groups(classifier: &Column, blobs: &BlobColumn) -> (Vec<u32>, Vec<u32>) {
    let mut ids: Vec<u32> = Vec::with_capacity(blobs.len());
    let mut firsts: Vec<u32> = Vec::new();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut null = None;
    for row in 0..blobs.len() {
        let bytes = blobs.get(row);
        let holds = |g: u32| Some(g) != null && blobs.get(firsts[g as usize] as usize) == bytes;
        let id = if classifier.is_null(row) {
            *null.get_or_insert(firsts.len() as u32)
        } else if let Some(&g) = ids.last().filter(|&&g| holds(g)) {
            // A run of one classifier (a models-first cross join) skips
            // the hash.
            g
        } else {
            let candidates = buckets.entry(bucket(bytes)).or_default();
            match candidates.iter().copied().find(|&g| holds(g)) {
                Some(g) => g,
                None => {
                    candidates.push(firsts.len() as u32);
                    firsts.len() as u32
                }
            }
        };
        if id as usize == firsts.len() {
            firsts.push(row as u32);
        }
        ids.push(id);
    }
    (ids, firsts)
}

/// Answers to rows of `x`, gathered to the output rows that read them.
trait Gather {
    /// Row `i` of the result is row `keys[i]` of `self`.
    fn gather(self, keys: &[u32]) -> Self;
}

impl<T: Clone> Gather for Vec<T> {
    fn gather(self, keys: &[u32]) -> Self {
        keys.iter().map(|&k| self[k as usize].clone()).collect()
    }
}

impl Gather for Matrix {
    fn gather(self, keys: &[u32]) -> Self {
        self.take_rows(&keys.iter().map(|&k| k as usize).collect::<Vec<_>>())
    }
}

impl<A: Gather, B: Gather> Gather for (A, B) {
    fn gather(self, keys: &[u32]) -> Self {
        (self.0.gather(keys), self.1.gather(keys))
    }
}

impl ModelArgs {
    /// Applies `f` once per distinct classifier, to the rows of `x` its
    /// output rows read (each distinct feature tuple once when the rows
    /// were grouped by code), and gathers the answers into row order. A
    /// row without a model yields `T::default()`, which
    /// [`ModelArgs::output`] masks as NULL.
    fn map<T: Clone + Default>(
        &self,
        function: &str,
        f: impl Fn(&StoredModel, &Matrix) -> MlResult<Vec<T>>,
    ) -> DbResult<Vec<T>> {
        if let [(Some(model), None)] = self.models.as_slice() {
            return self.apply(function, model, &f);
        }
        let mut out = vec![T::default(); self.rows];
        // Each key's index among the current classifier's picks.
        let mut slots = vec![u32::MAX; self.keys.as_ref().map_or(0, |_| self.x.rows())];
        for (model, members) in &self.models {
            let (Some(model), Some(members)) = (model, members) else { continue };
            let Some(keys) = &self.keys else {
                let answers = self.walk(function, model, Some(members), &f)?;
                members.iter().zip(answers).for_each(|(&r, v)| out[r] = v);
                continue;
            };
            let mut picks = Vec::new();
            for &r in members {
                let slot = &mut slots[keys[r] as usize];
                if *slot == u32::MAX {
                    *slot = picks.len() as u32;
                    picks.push(keys[r] as usize);
                }
            }
            let answers = self.walk(function, model, Some(&picks), &f)?;
            for &r in members {
                out[r] = answers[slots[keys[r] as usize] as usize].clone();
            }
            picks.iter().for_each(|&k| slots[k] = u32::MAX);
        }
        Ok(out)
    }

    /// Applies one model to every row of `x` and gathers its answers into
    /// row order.
    fn apply<R: Gather>(
        &self,
        function: &str,
        model: &StoredModel,
        f: impl FnOnce(&StoredModel, &Matrix) -> MlResult<R>,
    ) -> DbResult<R> {
        let answers = self.walk(function, model, None, f)?;
        Ok(match &self.keys {
            None => answers,
            Some(keys) => answers.gather(keys),
        })
    }

    /// Applies `model` to the rows `picks` of `x` (every row for `None`),
    /// counting the rows it evaluates in `udf.predict.distinct_keys`.
    fn walk<R>(
        &self,
        function: &str,
        model: &StoredModel,
        picks: Option<&[usize]>,
        f: impl FnOnce(&StoredModel, &Matrix) -> MlResult<R>,
    ) -> DbResult<R> {
        let part;
        let x = match picks {
            None => &self.x,
            Some(picks) => {
                part = self.x.take_rows(picks);
                &part
            }
        };
        mlcs_columnar::metrics::counter("udf.predict.distinct_keys").add(x.rows() as u64);
        f(model, x).map_err(|e| udf_err(function, e))
    }

    /// A scalar UDF's output: `values`, NULL where a feature is NULL.
    fn output(&self, values: ColumnData) -> DbResult<Column> {
        Column::new(values, self.valid.clone())
    }
}

/// The paper's `predict` function: classify feature columns with a stored
/// model.
///
/// SQL: `SELECT predict(f1, f2, (SELECT classifier FROM models ...)) FROM t`.
/// The classifier is typically a length-1 scalar subquery, but may be a
/// full column — each row then uses its own model. The
/// model comes from the database's shared [`ModelCache`], so repeated calls
/// skip BLOB deserialization — the §5.1 in-memory-snapshot proposal — and
/// the model layer splits rows into morsels on the shared worker pool (the
/// paper's §5.1 parallel-UDF item; nested inside a morsel-parallel
/// projection it runs inline on that worker).
#[derive(Default)]
pub struct PredictUdf {
    /// Decoded models, shared by every model UDF of the database.
    pub cache: Arc<ModelCache>,
}

impl ScalarUdf for PredictUdf {
    fn name(&self) -> &str {
        "predict"
    }

    fn return_type(&self, arg_types: &[DataType]) -> DbResult<DataType> {
        if arg_types.len() < 2 {
            return Err(usage("predict", "predict(features..., classifier)"));
        }
        Ok(DataType::Int64)
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column> {
        let [features @ .., classifier] = args else {
            return Err(usage("predict", "predict(features..., classifier)"));
        };
        let m = resolve("predict", features, classifier, &self.cache)?;
        mlcs_columnar::metrics::counter("udf.predict.rows").add(m.rows as u64);
        m.output(ColumnData::Int64(m.map("predict", StoredModel::predict)?))
    }

    fn parallel_safe(&self) -> bool {
        true
    }

    fn reads_encoded(&self) -> bool {
        true
    }
}

/// `predict_confidence(features..., classifier)` → DOUBLE: probability of
/// the predicted class per row; the quantity "use the model with the
/// highest confidence" (paper §3.3) maximizes.
pub struct PredictConfidenceUdf {
    /// Decoded models, shared by every model UDF of the database.
    pub cache: Arc<ModelCache>,
}

impl ScalarUdf for PredictConfidenceUdf {
    fn name(&self) -> &str {
        "predict_confidence"
    }

    fn return_type(&self, arg_types: &[DataType]) -> DbResult<DataType> {
        if arg_types.len() < 2 {
            return Err(usage(self.name(), "predict_confidence(features..., classifier)"));
        }
        Ok(DataType::Float64)
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column> {
        let [features @ .., classifier] = args else {
            return Err(usage(self.name(), "predict_confidence(features..., classifier)"));
        };
        let m = resolve(self.name(), features, classifier, &self.cache)?;
        m.output(ColumnData::Float64(m.map(self.name(), StoredModel::confidence)?))
    }

    fn parallel_safe(&self) -> bool {
        true
    }

    fn reads_encoded(&self) -> bool {
        true
    }
}

/// `predict_proba_of(features..., classifier, label)` → DOUBLE: the
/// model's probability for one specific raw label. Useful for ensemble
/// SQL that compares class probabilities across models.
pub struct PredictProbaOfUdf {
    /// Decoded models, shared by every model UDF of the database.
    pub cache: Arc<ModelCache>,
}

impl ScalarUdf for PredictProbaOfUdf {
    fn name(&self) -> &str {
        "predict_proba_of"
    }

    fn return_type(&self, arg_types: &[DataType]) -> DbResult<DataType> {
        if arg_types.len() < 3 {
            return Err(usage(self.name(), "predict_proba_of(features..., classifier, label)"));
        }
        Ok(DataType::Float64)
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column> {
        let [features @ .., classifier, label] = args else {
            return Err(usage(self.name(), "predict_proba_of(features..., classifier, label)"));
        };
        let label = label.i64_at(0).filter(|_| label.len() == 1).ok_or_else(|| DbError::Udf {
            function: self.name().to_owned(),
            message: "label must be a non-NULL integer scalar".into(),
        })?;
        let m = resolve(self.name(), features, classifier, &self.cache)?;
        m.output(ColumnData::Float64(m.map(self.name(), |sm, x| sm.proba_of(x, label))?))
    }

    fn parallel_safe(&self) -> bool {
        true
    }

    fn reads_encoded(&self) -> bool {
        true
    }
}

/// `evaluate(features..., labels, classifier)` — a table UDF scoring a
/// stored model against labeled data, the paper's "Testing" stage as one
/// SQL call. Returns `TABLE(accuracy DOUBLE, macro_f1 DOUBLE,
/// log_loss DOUBLE, test_rows BIGINT)`.
pub struct EvaluateUdf {
    /// Decoded models, shared by every model UDF of the database.
    pub cache: Arc<ModelCache>,
}

impl TableUdf for EvaluateUdf {
    fn name(&self) -> &str {
        "evaluate"
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        if arg_types.len() < 3 {
            return Err(usage("evaluate", "evaluate(features..., labels, classifier)"));
        }
        Ok(Arc::new(Schema::new(vec![
            Field::not_null("accuracy", DataType::Float64),
            Field::not_null("macro_f1", DataType::Float64),
            Field::not_null("log_loss", DataType::Float64),
            Field::not_null("test_rows", DataType::Int64),
        ])?))
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        let [features @ .., labels, classifier] = args else {
            return Err(usage("evaluate", "evaluate(features..., labels, classifier)"));
        };
        if classifier.is_empty() || classifier.null_count() > 0 {
            return Err(DbError::Udf {
                function: "evaluate".into(),
                message: "no classifier to score: the classifier argument is empty or NULL".into(),
            });
        }
        let m = resolve("evaluate", features, classifier, &self.cache)?;
        if let Some(valid) = &m.valid {
            return Err(DbError::Udf {
                function: "evaluate".into(),
                message: format!(
                    "{} test rows have a NULL feature (clean NULLs before scoring)",
                    valid.count_zeros()
                ),
            });
        }
        let [(Some(sm), None)] = m.models.as_slice() else {
            return Err(DbError::Udf {
                function: "evaluate".into(),
                message: format!("expected one classifier, got {} different ones", m.models.len()),
            });
        };
        let err = |e| udf_err("evaluate", e);
        let truth = sm.classes.encode(&labels_from_column(labels)?).map_err(err)?;
        let n_classes = sm.classes.n_classes();
        use mlcs_ml::Classifier;
        let (pred_idx, proba) = m.apply("evaluate", sm, |sm, x| {
            Ok((sm.model.predict(x)?, sm.model.predict_proba(x)?))
        })?;
        let accuracy = mlcs_ml::metrics::accuracy(&truth, &pred_idx).map_err(err)?;
        let scores =
            mlcs_ml::metrics::precision_recall_f1(&truth, &pred_idx, n_classes).map_err(err)?;
        let ll = mlcs_ml::metrics::log_loss(&truth, &proba).map_err(err)?;
        Batch::new(
            self.schema(&args.iter().map(|c| c.data_type()).collect::<Vec<_>>())?,
            vec![
                Arc::new(Column::from_f64s(vec![accuracy])),
                Arc::new(Column::from_f64s(vec![scores.macro_f1()])),
                Arc::new(Column::from_f64s(vec![ll])),
                Arc::new(Column::from_i64s(vec![m.rows as i64])),
            ],
        )
    }
}

/// `cross_validate('algorithm', features..., labels, k, param)` — k-fold
/// cross-validation as a table UDF (the paper's §3 "Training and
/// Verification" stage). Returns one row per fold:
/// `TABLE(fold INTEGER, accuracy DOUBLE)`.
pub struct CrossValidateUdf;

impl TableUdf for CrossValidateUdf {
    fn name(&self) -> &str {
        "cross_validate"
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        if arg_types.len() < 5 {
            return Err(usage(
                "cross_validate",
                "cross_validate('algorithm', features..., labels, k, param)",
            ));
        }
        Ok(Arc::new(Schema::new(vec![
            Field::not_null("fold", DataType::Int32),
            Field::not_null("accuracy", DataType::Float64),
        ])?))
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        let algo = algorithm_arg("cross_validate", args)?;
        let (features, labels, params) = split_train_args("cross_validate", &args[1..], 2)?;
        let (k, param) = (params[0], params[1]);
        if k < 2 {
            return Err(DbError::Udf {
                function: "cross_validate".into(),
                message: format!("k must be at least 2, got {k}"),
            });
        }
        let model = model_by_name("cross_validate", &algo, param)?;
        let x = matrix_from_columns(&features)?;
        let raw = labels_from_column(labels)?;
        let classes = mlcs_ml::dataset::ClassMap::fit(&raw);
        let y = classes.encode(&raw).map_err(|e| udf_err("cross_validate", e))?;
        let scores = mlcs_ml::model_selection::cross_validate(
            &x,
            &y,
            classes.n_classes(),
            k as usize,
            DEFAULT_TRAIN_SEED,
            || model.clone(),
        )
        .map_err(|e| udf_err("cross_validate", e))?;
        Batch::new(
            self.schema(&args.iter().map(|c| c.data_type()).collect::<Vec<_>>())?,
            vec![
                Arc::new(Column::from_i32s((0..scores.len() as i32).collect())),
                Arc::new(Column::from_f64s(scores)),
            ],
        )
    }
}

/// Registers the full suite of ML UDFs on a database: `train`,
/// `train_model`, `evaluate`, `cross_validate`, `predict`,
/// `predict_confidence`, and `predict_proba_of`. The four model UDFs share
/// one [`ModelCache`], so a stored model is decoded once per database
/// whichever of them reads it first.
pub fn register_ml_udfs(db: &Database) {
    let cache = Arc::new(ModelCache::default());
    db.register_table_udf(Arc::new(TrainUdf::Forest));
    db.register_table_udf(Arc::new(TrainUdf::ByName));
    db.register_table_udf(Arc::new(CrossValidateUdf));
    db.register_table_udf(Arc::new(EvaluateUdf { cache: cache.clone() }));
    db.register_scalar_udf(Arc::new(PredictUdf { cache: cache.clone() }));
    db.register_scalar_udf(Arc::new(PredictConfidenceUdf { cache: cache.clone() }));
    db.register_scalar_udf(Arc::new(PredictProbaOfUdf { cache }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-blob dataset in SQL, labels 10/20.
    fn db_with_points() -> Database {
        let db = Database::new();
        register_ml_udfs(&db);
        db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
        let mut rows = Vec::new();
        for i in 0..40 {
            let (cx, label) = if i % 2 == 0 { (-3.0, 10) } else { (3.0, 20) };
            let j = (i / 2) as f64 * 0.05;
            rows.push(format!("({}, {}, {label})", cx + j, cx - j));
        }
        db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", "))).unwrap();
        db
    }

    #[test]
    fn listing1_train_from_sql() {
        let db = db_with_points();
        let out = db
            .query("SELECT * FROM train((SELECT x, y FROM pts), (SELECT label FROM pts), 8)")
            .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(
            out.schema().names(),
            vec!["classifier", "algorithm", "parameters", "n_features", "train_rows"]
        );
        assert_eq!(out.row(0)[1], mlcs_columnar::Value::Varchar("random_forest".into()));
        assert_eq!(out.row(0)[4], mlcs_columnar::Value::Int64(40));
        let blob = out.row(0)[0].as_blob().unwrap().to_vec();
        assert!(StoredModel::from_blob(&blob).is_ok());
    }

    #[test]
    fn listing2_predict_from_sql() {
        let db = db_with_points();
        db.execute(
            "CREATE TABLE models AS SELECT * FROM train(
               (SELECT x, y FROM pts), (SELECT label FROM pts), 8)",
        )
        .unwrap();
        let out = db
            .query("SELECT label, predict(x, y, (SELECT classifier FROM models)) AS p FROM pts")
            .unwrap();
        assert_eq!(out.rows(), 40);
        let correct =
            (0..out.rows()).filter(|&r| out.row(r)[0].as_i64() == out.row(r)[1].as_i64()).count();
        assert!(correct >= 38, "only {correct}/40 correct");
    }

    #[test]
    fn train_model_all_algorithms() {
        let db = db_with_points();
        for (algo, param) in [
            ("random_forest", 4),
            ("decision_tree", 0),
            ("logistic_regression", 100),
            ("gaussian_nb", 0),
            ("knn", 3),
        ] {
            let out = db
                .query(&format!(
                    "SELECT algorithm FROM train_model('{algo}',
                       (SELECT x, y FROM pts), (SELECT label FROM pts), {param})"
                ))
                .unwrap();
            assert_eq!(
                out.row(0)[0],
                mlcs_columnar::Value::Varchar(algo.into()),
                "algorithm {algo}"
            );
        }
        assert!(db
            .execute(
                "SELECT * FROM train_model('no_such', (SELECT x FROM pts),
                   (SELECT label FROM pts), 1)"
            )
            .is_err());
    }

    #[test]
    fn confidence_and_proba_udfs() {
        let db = db_with_points();
        db.execute(
            "CREATE TABLE models AS SELECT * FROM train(
               (SELECT x, y FROM pts), (SELECT label FROM pts), 8)",
        )
        .unwrap();
        let out = db
            .query(
                "SELECT predict_confidence(x, y, (SELECT classifier FROM models)) AS c,
                        predict_proba_of(x, y, (SELECT classifier FROM models), 10) AS p10
                 FROM pts",
            )
            .unwrap();
        for r in 0..out.rows() {
            let c = out.row(r)[0].as_f64().unwrap();
            let p = out.row(r)[1].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&c));
            assert!((0.0..=1.0).contains(&p));
            assert!(c >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn cross_validate_udf_in_sql() {
        let db = db_with_points();
        let out = db
            .query(
                "SELECT * FROM cross_validate('gaussian_nb',
                   (SELECT x, y FROM pts), (SELECT label FROM pts), 4, 0)",
            )
            .unwrap();
        assert_eq!(out.rows(), 4);
        assert_eq!(out.schema().names(), vec!["fold", "accuracy"]);
        for i in 0..4 {
            let acc = out.row(i)[1].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&acc));
            assert!(acc > 0.8, "fold {i} accuracy {acc}");
        }
        // Aggregating fold scores with plain SQL.
        let mean = db
            .query_value(
                "SELECT AVG(accuracy) FROM cross_validate('decision_tree',
                   (SELECT x, y FROM pts), (SELECT label FROM pts), 4, 4)",
            )
            .unwrap();
        assert!(mean.as_f64().unwrap() > 0.8);
        // Bad k rejected.
        assert!(db
            .execute(
                "SELECT * FROM cross_validate('knn',
                   (SELECT x FROM pts), (SELECT label FROM pts), 1, 3)"
            )
            .is_err());
    }

    #[test]
    fn evaluate_udf_scores_in_sql() {
        let db = db_with_points();
        db.execute(
            "CREATE TABLE models AS SELECT * FROM train(
               (SELECT x, y FROM pts), (SELECT label FROM pts), 8)",
        )
        .unwrap();
        let out = db
            .query(
                "SELECT * FROM evaluate((SELECT x, y FROM pts),
                                        (SELECT label FROM pts),
                                        (SELECT classifier FROM models))",
            )
            .unwrap();
        assert_eq!(out.rows(), 1);
        assert_eq!(out.schema().names(), vec!["accuracy", "macro_f1", "log_loss", "test_rows"]);
        let acc = out.row(0)[0].as_f64().unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
        assert!(out.row(0)[2].as_f64().unwrap() >= 0.0);
        assert_eq!(out.row(0)[3].as_i64().unwrap(), 40);
        // Misuse: classifier must be a blob.
        assert!(db
            .execute("SELECT * FROM evaluate((SELECT x FROM pts), (SELECT label FROM pts), 3)")
            .is_err());
    }

    #[test]
    fn helpful_errors_on_misuse() {
        let db = db_with_points();
        // Too few arguments.
        assert!(db.execute("SELECT * FROM train((SELECT x FROM pts), 4)").is_err());
        // Non-integer labels.
        assert!(db
            .execute("SELECT * FROM train((SELECT x FROM pts), (SELECT y FROM pts), 4)")
            .is_err());
        // Predict with a non-BLOB classifier.
        assert!(db.execute("SELECT predict(x, y, 5) FROM pts").is_err());
        // Predict with a garbage blob.
        assert!(db.execute("SELECT predict(x, y, x'0011') FROM pts").is_err());
    }

    #[test]
    fn null_features_predict_null() {
        let db = db_with_points();
        db.execute(
            "CREATE TABLE models AS SELECT * FROM train(
               (SELECT x, y FROM pts), (SELECT label FROM pts), 8)",
        )
        .unwrap();
        db.execute("INSERT INTO pts VALUES (NULL, NULL, 10), (NULL, 3.0, 20), (-3.0, NULL, 10)")
            .unwrap();
        let model = "(SELECT classifier FROM models)";
        let out = db
            .query(&format!(
                "SELECT x IS NULL OR y IS NULL, predict(x, y, {model}),
                        predict_confidence(x, y, {model}), predict_proba_of(x, y, {model}, 20)
                 FROM pts"
            ))
            .unwrap();
        assert_eq!(out.rows(), 43);
        for r in 0..out.rows() {
            let row = out.row(r);
            let null_feature = row[0] == mlcs_columnar::Value::Boolean(true);
            for v in &row[1..] {
                assert_eq!(v.is_null(), null_feature, "row {r}: {row:?}");
            }
        }
        // A NaN that is not NULL is still classified (it goes right).
        let nan = db
            .query(&format!("SELECT predict(CAST('NaN' AS DOUBLE), 0.0, {model}) FROM pts LIMIT 1"))
            .unwrap();
        assert!(!nan.row(0)[0].is_null());
        let err = db
            .query(&format!(
                "SELECT * FROM evaluate((SELECT x, y FROM pts), (SELECT label FROM pts), {model})"
            ))
            .unwrap_err();
        assert!(
            matches!(&err, DbError::Udf { function, message }
                if function == "evaluate" && message.contains("NULL")),
            "{err:?}"
        );

        // A NULL classifier has no model: NULL out of every scalar UDF,
        // whether it is a scalar subquery that finds no model, a stored
        // NULL, or one row of a cross join over the models table.
        let nope = "(SELECT classifier FROM models WHERE algorithm = 'nope')";
        let out = db
            .query(&format!(
                "SELECT predict(x, y, {nope}), predict_confidence(x, y, {nope}),
                        predict_proba_of(x, y, {nope}, 20)
                 FROM pts"
            ))
            .unwrap();
        assert_eq!(out.rows(), 43);
        assert!((0..43).all(|r| out.row(r).iter().all(|v| v.is_null())), "{:?}", out.row(0));
        db.execute("CREATE TABLE named (name VARCHAR, classifier BLOB)").unwrap();
        db.execute("INSERT INTO named SELECT 'rf', classifier FROM models").unwrap();
        db.execute("INSERT INTO named VALUES ('none', NULL)").unwrap();
        let out = db
            .query(
                "SELECT n.name, predict(p.x, p.y, n.classifier),
                        predict_confidence(p.x, p.y, n.classifier),
                        predict_proba_of(p.x, p.y, n.classifier, 20)
                 FROM named n CROSS JOIN pts p WHERE p.x IS NOT NULL AND p.y IS NOT NULL",
            )
            .unwrap();
        assert_eq!(out.rows(), 80);
        for r in 0..out.rows() {
            let row = out.row(r);
            let none = row[0] == mlcs_columnar::Value::Varchar("none".into());
            assert!(row[1..].iter().all(|v| v.is_null() == none), "row {r}: {row:?}");
        }
        let out =
            db.query("SELECT predict(-3.0, -3.0, classifier) FROM named ORDER BY name").unwrap();
        assert!(out.row(0)[0].is_null());
        assert_eq!(out.row(1)[0], mlcs_columnar::Value::Int64(10));

        // `evaluate` with no model says so, for zero rows and for NULL.
        for classifier in [
            "(SELECT classifier FROM named WHERE name = 'nope')",
            "(SELECT classifier FROM named WHERE name = 'none')",
        ] {
            let err = db
                .query(&format!(
                    "SELECT * FROM evaluate((SELECT x, y FROM pts WHERE x IS NOT NULL
                                             AND y IS NOT NULL),
                                            (SELECT label FROM pts WHERE x IS NOT NULL
                                             AND y IS NOT NULL), {classifier})"
                ))
                .unwrap_err();
            assert!(
                matches!(&err, DbError::Udf { function, message }
                    if function == "evaluate" && message.contains("no classifier")),
                "{classifier}: {err:?}"
            );
        }
    }

    /// Classifier groups follow bytes, not row order and not buckets: equal
    /// blobs far apart share a group, two blobs in one bucket do not, and
    /// the NULL rows are one group apart from an empty non-NULL blob.
    #[test]
    fn classifiers_group_by_bytes_wherever_they_sit() {
        let a = vec![7u8; 256];
        let mut b = a.clone();
        b[128] ^= 1;
        assert_eq!(bucket(&a), bucket(&b), "same length, ends and bucket");
        let c = vec![9u8; 40];
        let rows: [Option<&[u8]>; 10] = [
            Some(&a),
            Some(&b),
            None,
            Some(&a),
            Some(&c),
            Some(&b),
            None,
            Some(&[]),
            Some(&b),
            None,
        ];
        let blobs = Column::from_blobs(rows.iter().map(|r| r.unwrap_or_default()));
        let valid = Bitmap::from_bools(&rows.map(|r| r.is_some()));
        let col = Column::new(blobs.data().clone(), Some(valid)).unwrap();
        let (ids, firsts) = classifier_groups(&col, col.blobs().unwrap());
        assert_eq!(ids, [0, 1, 2, 0, 3, 1, 2, 4, 1, 2]);
        assert_eq!(firsts, [0, 1, 2, 4, 7]);
    }

    /// Asserts `sql` fails with a `DbError::Udf` from `function` naming
    /// `param`.
    fn assert_param_rejected(db: &Database, sql: &str, function: &str, param: &str) {
        let err = db.query(sql).unwrap_err();
        assert!(
            matches!(&err, DbError::Udf { function: f, message }
                if f == function && message.contains(param)),
            "{sql}: {err:?}"
        );
    }

    // Every out-of-range size below is rejected by `model_by_name` before
    // the feature matrix, the model or anything the size counts exists.

    #[test]
    fn train_rejects_out_of_range_tree_counts() {
        let db = db_with_points();
        for n in ["0", "-1", "10001", "100000000000", "NULL"] {
            let sql = format!(
                "SELECT * FROM train((SELECT x, y FROM pts), (SELECT label FROM pts), {n})"
            );
            let param = if n == "NULL" { "parameter" } else { "n_estimators" };
            assert_param_rejected(&db, &sql, "train", param);
        }
    }

    #[test]
    fn train_model_rejects_out_of_range_sizes() {
        let db = db_with_points();
        for (algo, param, name) in [
            ("random_forest", "0", "n_estimators"),
            ("random_forest", "100000000000", "n_estimators"),
            ("logistic_regression", "0", "epochs"),
            ("logistic_regression", "10001", "epochs"),
            ("knn", "-3", "k"),
            ("knn", "0", "k"),
        ] {
            let sql = format!(
                "SELECT * FROM train_model('{algo}', (SELECT x, y FROM pts),
                   (SELECT label FROM pts), {param})"
            );
            assert_param_rejected(&db, &sql, "train_model", name);
        }
        // k above the training rows keeps its own check; depth 0 still
        // means unbounded and gaussian_nb still ignores its parameter.
        assert_param_rejected(
            &db,
            "SELECT * FROM train_model('knn', (SELECT x, y FROM pts), (SELECT label FROM pts), 41)",
            "train_model",
            "exceeds 40 training rows",
        );
        for (algo, param) in [("decision_tree", 0), ("gaussian_nb", -7), ("random_forest", 1)] {
            db.query(&format!(
                "SELECT * FROM train_model('{algo}', (SELECT x, y FROM pts),
                   (SELECT label FROM pts), {param})"
            ))
            .unwrap();
        }
    }

    #[test]
    fn cross_validate_rejects_out_of_range_sizes() {
        let db = db_with_points();
        for (algo, param, name) in [
            ("random_forest", "100000000000", "n_estimators"),
            ("random_forest", "0", "n_estimators"),
            ("logistic_regression", "100000000000", "epochs"),
            ("knn", "-3", "k"),
        ] {
            let sql = format!(
                "SELECT * FROM cross_validate('{algo}', (SELECT x, y FROM pts),
                   (SELECT label FROM pts), 2, {param})"
            );
            assert_param_rejected(&db, &sql, "cross_validate", name);
        }
    }

    #[test]
    fn trained_model_survives_store_and_reload_via_sql() {
        let db = db_with_points();
        db.execute("CREATE TABLE m2 (name VARCHAR, classifier BLOB)").unwrap();
        db.execute(
            "INSERT INTO m2 SELECT 'rf', classifier FROM train(
               (SELECT x, y FROM pts), (SELECT label FROM pts), 4)",
        )
        .unwrap();
        let out = db
            .query("SELECT predict(x, y, (SELECT classifier FROM m2 WHERE name = 'rf')) FROM pts")
            .unwrap();
        assert_eq!(out.rows(), 40);
    }
}
