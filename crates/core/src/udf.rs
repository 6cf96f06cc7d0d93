//! The paper's vectorized machine-learning UDFs.
//!
//! * [`TrainUdf`] — Listing 1: a table-valued function that trains a
//!   random forest on whole columns and returns the pickled model plus
//!   metadata as a one-row table.
//! * [`TrainModelUdf`] — a generalized trainer selecting the algorithm by
//!   name (the paper notes swapping models is trivial; here it is an
//!   argument).
//! * [`PredictUdf`] — Listing 2: a scalar function that revives a model
//!   BLOB and classifies the feature columns morsel-parallel on the worker
//!   pool (the paper's §5.1 future work).
//! * [`PredictConfidenceUdf`] / [`PredictProbaOfUdf`] — probability
//!   outputs enabling the ensemble queries of §3.3.
//! * [`EvaluateUdf`] — scores a stored model against labeled data.
//!
//! The four model UDFs resolve their arguments through one helper that
//! revives models via the database's shared [`ModelCache`] — decoded once
//! per distinct BLOB (§5.1) — and applies row `i` with the model in
//! classifier row `i`, so one query can apply every stored model. A row
//! with a NULL feature has no prediction: the scalar UDFs return NULL for
//! it and `evaluate` rejects it, as `train` does.

use crate::bridge::{labels_from_column, matrix_from_columns};
use crate::cache::ModelCache;
use crate::stored::StoredModel;
use mlcs_columnar::parallel::hardware_threads;
use mlcs_columnar::{
    Batch, Bitmap, Column, ColumnData, DataType, Database, DbError, DbResult, Field, ScalarUdf,
    Schema, TableUdf,
};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::knn::KNearestNeighbors;
use mlcs_ml::linear::LogisticRegression;
use mlcs_ml::naive_bayes::GaussianNb;
use mlcs_ml::tree::DecisionTreeClassifier;
use mlcs_ml::{Matrix, MlError, MlResult, Model};
use std::sync::Arc;

/// The default RNG seed used by [`TrainUdf`] / [`TrainModelUdf`]. Client-
/// side pipelines that must reproduce the in-database model bit-for-bit
/// (the Figure 1 comparison) seed their forests with this value.
pub const DEFAULT_TRAIN_SEED: u64 = 42;

fn udf_err(function: &str, e: MlError) -> DbError {
    DbError::Udf { function: function.to_owned(), message: e.to_string() }
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

/// Splits trainer arguments into `(features, labels, trailing scalars)`.
///
/// Convention (matching the paper's `train(data, classes, n_estimators)`):
/// the final `n_scalars` arguments are length-1 parameters, the column
/// before them is the label column, and everything earlier is a feature.
fn split_train_args<'a>(
    function: &str,
    args: &'a [Arc<Column>],
    n_scalars: usize,
) -> DbResult<(Vec<&'a Column>, &'a Column, Vec<&'a Column>)> {
    if args.len() < 2 + n_scalars {
        return Err(DbError::Udf {
            function: function.to_owned(),
            message: format!(
                "expected at least {} arguments (features..., labels, {n_scalars} parameter(s)), got {}",
                2 + n_scalars,
                args.len()
            ),
        });
    }
    let scalars: Vec<&Column> = args[args.len() - n_scalars..].iter().map(|c| c.as_ref()).collect();
    for (i, s) in scalars.iter().enumerate() {
        if s.len() != 1 {
            return Err(DbError::Udf {
                function: function.to_owned(),
                message: format!("parameter argument {i} must be a scalar, got {} rows", s.len()),
            });
        }
    }
    let labels = args[args.len() - n_scalars - 1].as_ref();
    let features: Vec<&Column> =
        args[..args.len() - n_scalars - 1].iter().map(|c| c.as_ref()).collect();
    Ok((features, labels, scalars))
}

/// The paper's `train` function: a random-forest trainer as a table UDF.
///
/// SQL: `SELECT * FROM train((SELECT f1, f2 FROM t), (SELECT label FROM t),
/// n_estimators)`. Returns `TABLE(classifier BLOB, algorithm VARCHAR,
/// parameters VARCHAR, n_features INTEGER, train_rows BIGINT)`.
pub struct TrainUdf {
    /// RNG seed for reproducible forests.
    pub seed: u64,
    /// Worker threads for tree fitting (0 = available parallelism).
    pub n_jobs: usize,
}

impl Default for TrainUdf {
    fn default() -> Self {
        TrainUdf { seed: DEFAULT_TRAIN_SEED, n_jobs: 0 }
    }
}

impl TableUdf for TrainUdf {
    fn name(&self) -> &str {
        "train"
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        if arg_types.len() < 3 {
            return Err(DbError::Udf {
                function: "train".into(),
                message: "usage: train(features..., labels, n_estimators)".into(),
            });
        }
        train_output_schema()
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        let (features, labels, scalars) = split_train_args("train", args, 1)?;
        let n_estimators = scalars[0].i64_at(0).ok_or_else(|| DbError::Udf {
            function: "train".into(),
            message: "n_estimators must be a non-NULL integer".into(),
        })?;
        if n_estimators < 1 {
            return Err(DbError::Udf {
                function: "train".into(),
                message: format!("n_estimators must be positive, got {n_estimators}"),
            });
        }
        let x = matrix_from_columns(&features)?;
        let y = labels_from_column(labels)?;
        // `n_jobs == 0` resolves through the shared thread policy, so the
        // MLCS_THREADS override also pins tree-fitting parallelism.
        let jobs = if self.n_jobs == 0 { hardware_threads() } else { self.n_jobs };
        let forest = RandomForestClassifier::new(n_estimators as usize)
            .with_seed(self.seed)
            .with_n_jobs(jobs);
        mlcs_columnar::metrics::counter("udf.train.rows").add(x.rows() as u64);
        let (sm, _) = mlcs_columnar::metrics::time_section("udf.train.time_ns", || {
            StoredModel::train(Model::RandomForest(forest), &x, &y)
        });
        let sm = sm.map_err(|e| udf_err("train", e))?;
        train_output(&sm, format!("n_estimators={n_estimators}"), x.rows())
    }
}

/// The untrained model `algorithm` names, configured by `param` (see
/// [`TrainModelUdf`]); shared by `train_model` and `cross_validate`.
fn model_by_name(function: &str, algorithm: &str, param: i64, seed: u64) -> DbResult<Model> {
    Ok(match algorithm {
        "random_forest" => {
            Model::RandomForest(RandomForestClassifier::new(param.max(1) as usize).with_seed(seed))
        }
        "decision_tree" => {
            let mut t = DecisionTreeClassifier::new().with_seed(seed);
            if param > 0 {
                t.max_depth = Some(param as usize);
            }
            Model::DecisionTree(t)
        }
        "logistic_regression" => Model::LogisticRegression(
            LogisticRegression::new().with_seed(seed).with_epochs(param.max(1) as usize),
        ),
        "gaussian_nb" => Model::GaussianNb(GaussianNb::new()),
        "knn" => Model::Knn(KNearestNeighbors::new(param.max(1) as usize)),
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

/// Generalized trainer: `train_model('algorithm', features..., labels,
/// param)`.
///
/// Algorithms and their `param`: `random_forest` (trees),
/// `decision_tree` (max depth, 0 = unbounded), `logistic_regression`
/// (epochs), `gaussian_nb` (ignored), `knn` (k).
pub struct TrainModelUdf {
    /// RNG seed for stochastic algorithms.
    pub seed: u64,
}

impl Default for TrainModelUdf {
    fn default() -> Self {
        TrainModelUdf { seed: DEFAULT_TRAIN_SEED }
    }
}

impl TableUdf for TrainModelUdf {
    fn name(&self) -> &str {
        "train_model"
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        if arg_types.len() < 4 {
            return Err(DbError::Udf {
                function: "train_model".into(),
                message: "usage: train_model('algorithm', features..., labels, param)".into(),
            });
        }
        if arg_types[0] != DataType::Varchar {
            return Err(DbError::Udf {
                function: "train_model".into(),
                message: format!("first argument must be the algorithm name, got {}", arg_types[0]),
            });
        }
        train_output_schema()
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        if args.is_empty() || args[0].len() != 1 {
            return Err(DbError::Udf {
                function: "train_model".into(),
                message: "algorithm name must be a scalar string".into(),
            });
        }
        let algo = args[0].strings().map(|s| s.get(0).to_owned()).ok_or_else(|| DbError::Udf {
            function: "train_model".into(),
            message: "algorithm name must be a VARCHAR".into(),
        })?;
        let (features, labels, scalars) = split_train_args("train_model", &args[1..], 1)?;
        let param = scalars[0].i64_at(0).unwrap_or(0);
        let model = model_by_name("train_model", &algo, param, self.seed)?;
        let x = matrix_from_columns(&features)?;
        let y = labels_from_column(labels)?;
        let sm = StoredModel::train(model, &x, &y).map_err(|e| udf_err("train_model", e))?;
        train_output(&sm, format!("algorithm={algo},param={param}"), x.rows())
    }
}

/// A model UDF's arguments, resolved: one feature row per output row and
/// the model each row is classified with.
struct ModelArgs {
    /// The feature rows.
    x: Matrix,
    /// `(end, model)` runs in row order: the rows from the previous run's
    /// end up to `end` use `model`.
    runs: Vec<(usize, Arc<StoredModel>)>,
    /// The rows whose features are all non-NULL; `None` when every row's
    /// are. The model reads a NULL as NaN, so its answer for such a row is
    /// not a prediction.
    valid: Option<Bitmap>,
}

/// Resolves the feature columns and the classifier column of a model UDF —
/// the one path by which `predict`, `predict_confidence`,
/// `predict_proba_of` and `evaluate` revive stored models.
///
/// The output length is the longest argument; length-1 arguments
/// broadcast. Row `i` uses the model in classifier row `i`, so one query
/// can apply every stored model (paper §3.3); consecutive rows holding
/// identical bytes share one [`ModelCache`] lookup, which makes the usual
/// scalar-subquery classifier a single run.
fn resolve(
    function: &str,
    features: &[Arc<Column>],
    classifier: &Column,
    cache: &ModelCache,
) -> DbResult<ModelArgs> {
    let blobs = classifier.blobs().ok_or_else(|| DbError::Udf {
        function: function.to_owned(),
        message: format!("classifier argument must be a BLOB, got {}", classifier.data_type()),
    })?;
    let lens = features.iter().map(|c| c.len()).chain([blobs.len()]);
    let rows = if lens.clone().any(|n| n == 0) { 0 } else { lens.max().unwrap_or(0) };
    let features = features
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
    let valid = features
        .iter()
        .filter_map(|c| c.validity())
        .fold(None, |all, v| Some(all.map_or_else(|| v.clone(), |all: Bitmap| all.and(v))));
    let x = matrix_from_columns(&features.iter().map(|c| c.as_ref()).collect::<Vec<&Column>>())?;
    let mut runs: Vec<(usize, Arc<StoredModel>)> = Vec::new();
    match blobs.len() {
        _ if rows == 0 => {}
        1 => runs.push((rows, cache.get_or_decode(blobs.get(0))?)),
        n if n == rows => {
            for i in 0..rows {
                // A run exists only from row 1 on, so `i - 1` is a row.
                match runs.last_mut() {
                    Some((end, _)) if blobs.get(i) == blobs.get(i - 1) => *end = i + 1,
                    _ => runs.push((i + 1, cache.get_or_decode(blobs.get(i))?)),
                }
            }
        }
        n => {
            return Err(DbError::Udf {
                function: function.to_owned(),
                message: format!("classifier argument has {n} rows, expected {rows} (or 1)"),
            })
        }
    }
    Ok(ModelArgs { x, runs, valid })
}

impl ModelArgs {
    /// Applies `f` run by run — each run's rows with that run's model —
    /// and concatenates the outputs in row order.
    fn map<T>(
        &self,
        function: &str,
        f: impl Fn(&StoredModel, &Matrix) -> MlResult<Vec<T>>,
    ) -> DbResult<Vec<T>> {
        if let [(_, model)] = self.runs.as_slice() {
            return f(model, &self.x).map_err(|e| udf_err(function, e));
        }
        let cols = self.x.cols();
        let mut out = Vec::with_capacity(self.x.rows());
        let mut start = 0;
        for (end, model) in &self.runs {
            let part = self.x.as_slice()[start * cols..end * cols].to_vec();
            let part = Matrix::new(part, end - start, cols).map_err(|e| udf_err(function, e))?;
            out.extend(f(model, &part).map_err(|e| udf_err(function, e))?);
            start = *end;
        }
        Ok(out)
    }

    /// A scalar UDF's output: `values`, NULL where a feature is NULL.
    fn output(&self, values: ColumnData) -> DbResult<Column> {
        Column::new(values, self.valid.clone())
    }
}

/// The error a model UDF reports when called with too few arguments.
fn usage(function: &str, usage: &str) -> DbError {
    DbError::Udf { function: function.to_owned(), message: format!("usage: {usage}") }
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
        mlcs_columnar::metrics::counter("udf.predict.rows").add(m.x.rows() as u64);
        m.output(ColumnData::Int64(m.map("predict", StoredModel::predict)?))
    }

    fn parallel_safe(&self) -> bool {
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
        let [(_, sm)] = m.runs.as_slice() else {
            return Err(DbError::Udf {
                function: "evaluate".into(),
                message: format!("expected one classifier, got {} different ones", m.runs.len()),
            });
        };
        let x = &m.x;
        let err = |e| udf_err("evaluate", e);
        let truth = sm.classes.encode(&labels_from_column(labels)?).map_err(err)?;
        let n_classes = sm.classes.n_classes();
        use mlcs_ml::Classifier;
        let pred_idx = sm.model.predict(x).map_err(err)?;
        let proba = sm.model.predict_proba(x).map_err(err)?;
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
                Arc::new(Column::from_i64s(vec![x.rows() as i64])),
            ],
        )
    }
}

/// `cross_validate('algorithm', features..., labels, k, param)` — k-fold
/// cross-validation as a table UDF (the paper's §3 "Training and
/// Verification" stage). Returns one row per fold:
/// `TABLE(fold INTEGER, accuracy DOUBLE)`.
pub struct CrossValidateUdf {
    /// RNG seed for fold shuffling and stochastic models.
    pub seed: u64,
}

impl Default for CrossValidateUdf {
    fn default() -> Self {
        CrossValidateUdf { seed: DEFAULT_TRAIN_SEED }
    }
}

impl TableUdf for CrossValidateUdf {
    fn name(&self) -> &str {
        "cross_validate"
    }

    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>> {
        if arg_types.len() < 5 {
            return Err(DbError::Udf {
                function: "cross_validate".into(),
                message: "usage: cross_validate('algorithm', features..., labels, k, param)".into(),
            });
        }
        Ok(Arc::new(Schema::new(vec![
            Field::not_null("fold", DataType::Int32),
            Field::not_null("accuracy", DataType::Float64),
        ])?))
    }

    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch> {
        if args.len() < 5 || args[0].len() != 1 {
            return Err(DbError::Udf {
                function: "cross_validate".into(),
                message: "usage: cross_validate('algorithm', features..., labels, k, param)".into(),
            });
        }
        let algo = args[0].strings().map(|s| s.get(0).to_owned()).ok_or_else(|| DbError::Udf {
            function: "cross_validate".into(),
            message: "algorithm name must be a VARCHAR".into(),
        })?;
        let (features, labels, scalars) = split_train_args("cross_validate", &args[1..], 2)?;
        let k = scalars[0].i64_at(0).unwrap_or(0);
        if k < 2 {
            return Err(DbError::Udf {
                function: "cross_validate".into(),
                message: format!("k must be at least 2, got {k}"),
            });
        }
        let param = scalars[1].i64_at(0).unwrap_or(0);
        let x = matrix_from_columns(&features)?;
        let raw = labels_from_column(labels)?;
        let classes = mlcs_ml::dataset::ClassMap::fit(&raw);
        let y = classes.encode(&raw).map_err(|e| udf_err("cross_validate", e))?;
        let model = model_by_name("cross_validate", &algo, param, self.seed)?;
        let scores = mlcs_ml::model_selection::cross_validate(
            &x,
            &y,
            classes.n_classes(),
            k as usize,
            self.seed,
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
    db.register_table_udf(Arc::new(TrainUdf::default()));
    db.register_table_udf(Arc::new(TrainModelUdf::default()));
    db.register_table_udf(Arc::new(CrossValidateUdf::default()));
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
