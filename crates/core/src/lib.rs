//! # mlcs-core — deep integration of machine learning into a column store
//!
//! The primary contribution of *Deep Integration of Machine Learning Into
//! Column Stores* (Raasveldt, Holanda, Mühleisen, Manegold — EDBT 2018),
//! reproduced in Rust on top of the `mlcs-columnar` engine and the
//! `mlcs-ml` library:
//!
//! * **Vectorized training UDFs** ([`udf::TrainUdf`]) — callable from SQL as
//!   `SELECT * FROM train((SELECT age, income FROM voters),
//!   (SELECT label FROM voters), 16)`, mirroring the paper's Listing 1. The
//!   UDF receives whole columns zero-copy, trains a random forest, pickles
//!   it, and returns a one-row table with the model BLOB and its metadata.
//! * **Vectorized prediction UDFs** ([`udf::PredictUdf`]) — the paper's
//!   Listing 2: `SELECT predict(age, income, (SELECT classifier FROM models
//!   WHERE ...)) FROM voters`. The model arrives as a length-1 constant
//!   column (or one model per row); features are borrowed slices.
//! * **Model snapshots** ([`cache::ModelCache`]) — the paper's §5.1
//!   proposal: every model UDF revives stored models through one cache per
//!   database keyed by the BLOB's bytes, so a model is decoded once.
//! * **Model storage** ([`modelstore::ModelStore`]) — trained models are
//!   pickled into a `BLOB` column of a regular `models` table together
//!   with their metadata (algorithm, hyperparameters, accuracy), enabling
//!   relational *meta-analysis* of models (paper §3.3).
//! * **Ensemble learning** ([`ensemble`]) — classify with the
//!   highest-confidence model, majority voting, and accuracy-weighted
//!   voting across stored models.
//! * **In-database pipelines** ([`pipeline`]) — preprocessing, train/test
//!   split, training, evaluation, and prediction executed entirely inside
//!   the database, plus a morsel-parallel prediction path (the paper's
//!   §5.1 future work).
//!
//! ## Quick start
//!
//! ```
//! use mlcs_columnar::Database;
//! use mlcs_core::register_ml_udfs;
//!
//! let db = Database::new();
//! register_ml_udfs(&db);
//! db.execute("CREATE TABLE points (x DOUBLE, y DOUBLE, label INTEGER)").unwrap();
//! db.execute(
//!     "INSERT INTO points VALUES (-2.0, -2.0, 0), (-1.5, -1.0, 0),
//!                                (-1.0, -2.5, 0), ( 1.0,  1.5, 1),
//!                                ( 2.0,  1.0, 1), ( 1.5,  2.5, 1)",
//! ).unwrap();
//! // Train inside the database (Listing 1 of the paper) ...
//! db.execute(
//!     "CREATE TABLE models AS SELECT * FROM train(
//!         (SELECT x, y FROM points), (SELECT label FROM points), 8)",
//! ).unwrap();
//! // ... and classify with the stored model (Listing 2).
//! let out = db.query(
//!     "SELECT predict(x, y, (SELECT classifier FROM models)) AS p FROM points",
//! ).unwrap();
//! assert_eq!(out.rows(), 6);
//! ```

#![deny(missing_docs)]

pub mod bridge;
pub mod cache;
pub mod ensemble;
pub mod meta;
pub mod modelstore;
pub mod pipeline;
pub mod stored;
pub mod udf;

pub use bridge::{labels_from_column, matrix_from_columns};
pub use cache::ModelCache;
pub use modelstore::{ModelMeta, ModelStore};
pub use stored::StoredModel;
pub use udf::register_ml_udfs;
