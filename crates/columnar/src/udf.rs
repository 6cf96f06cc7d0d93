//! Vectorized user-defined function hooks.
//!
//! This module defines the engine-side contract for UDFs — the heart of the
//! paper's integration approach. A UDF receives **whole columns** (borrowed,
//! zero-copy) rather than one value at a time:
//!
//! * [`ScalarUdf`] — N input columns → one output column of the same length
//!   (the paper's `predict` function). Usable anywhere an expression is.
//! * [`TableUdf`] — N input columns → a result table (the paper's `train`
//!   function, which returns `TABLE(classifier BLOB, estimators INTEGER)`).
//!   Usable in the `FROM` clause.
//!
//! Implementations of the actual machine-learning UDFs live in `mlcs-core`;
//! this crate only knows how to register and invoke them, mirroring how
//! MonetDB's UDF machinery is agnostic to what the Python code does.

use crate::batch::Batch;
use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::parallel::locks::RwLock;
use crate::schema::Schema;
use crate::types::DataType;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A vectorized scalar function: columns in, one column out.
pub trait ScalarUdf: Send + Sync {
    /// Function name as referenced from SQL (matched case-insensitively).
    fn name(&self) -> &str;

    /// Computes the output type for the given argument types, or an error
    /// describing the expected signature.
    fn return_type(&self, arg_types: &[DataType]) -> DbResult<DataType>;

    /// Invokes the function over whole columns. All argument columns have
    /// the same length; the returned column must match it.
    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column>;

    /// Whether the engine may split the input rows into morsels and invoke
    /// the function on each independently (true for row-wise pure functions
    /// like `predict`; false for functions that need all rows at once).
    fn parallel_safe(&self) -> bool {
        false
    }

    /// Whether `invoke` takes dictionary and RLE argument columns as they
    /// are (true for the model UDFs, which group rows by dictionary code);
    /// otherwise the engine decodes each encoded argument first, so the
    /// function reads plain typed slices.
    fn reads_encoded(&self) -> bool {
        false
    }
}

/// A vectorized table-producing function: columns in, table out.
pub trait TableUdf: Send + Sync {
    /// Function name as referenced from SQL (matched case-insensitively).
    fn name(&self) -> &str;

    /// Computes the output schema for the given argument types.
    fn schema(&self, arg_types: &[DataType]) -> DbResult<Arc<Schema>>;

    /// Invokes the function. Argument columns may have differing lengths
    /// (e.g. a data column of N rows plus a parameter column of 1 row);
    /// the function documents what it requires.
    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Batch>;
}

/// Registry of UDFs attached to a database, keyed by lower-cased name.
#[derive(Default)]
pub struct FunctionRegistry {
    scalar: RwLock<BTreeMap<String, Arc<dyn ScalarUdf>>>,
    table: RwLock<BTreeMap<String, Arc<dyn TableUdf>>>,
    /// Bumped on every registration or drop; part of the plan cache's
    /// invalidation stamp so a replaced UDF never serves a stale plan.
    generation: AtomicU64,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a scalar UDF, replacing any previous function of the same
    /// name (CREATE OR REPLACE semantics).
    pub fn register_scalar(&self, udf: Arc<dyn ScalarUdf>) {
        self.scalar.write().insert(udf.name().to_ascii_lowercase(), udf);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a table UDF, replacing any previous function of the same
    /// name.
    pub fn register_table(&self, udf: Arc<dyn TableUdf>) {
        self.table.write().insert(udf.name().to_ascii_lowercase(), udf);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a scalar UDF.
    pub fn scalar(&self, name: &str) -> DbResult<Arc<dyn ScalarUdf>> {
        self.scalar
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::NotFound { kind: "scalar function", name: name.to_owned() })
    }

    /// Looks up a table UDF.
    pub fn table(&self, name: &str) -> DbResult<Arc<dyn TableUdf>> {
        self.table
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::NotFound { kind: "table function", name: name.to_owned() })
    }

    /// True if a scalar UDF with the name exists.
    pub fn has_scalar(&self, name: &str) -> bool {
        self.scalar.read().contains_key(&name.to_ascii_lowercase())
    }

    /// True if a table UDF with the name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.table.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered functions `(scalar, table)`, sorted.
    pub fn names(&self) -> (Vec<String>, Vec<String>) {
        (self.scalar.read().keys().cloned().collect(), self.table.read().keys().cloned().collect())
    }

    /// Removes a function of either kind; errors if no such function.
    pub fn drop_function(&self, name: &str, if_exists: bool) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        let a = self.scalar.write().remove(&key).is_some();
        let b = self.table.write().remove(&key).is_some();
        if !a && !b && !if_exists {
            return Err(DbError::NotFound { kind: "function", name: name.to_owned() });
        }
        if a || b {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The registry's mutation generation. Two equal readings with no
    /// registrations or drops in between guarantee the function set is
    /// unchanged.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (s, t) = self.names();
        f.debug_struct("FunctionRegistry").field("scalar", &s).field("table", &t).finish()
    }
}

/// Invokes a scalar UDF and, in debug builds, checks the output against the
/// function's declared contract: the column length must equal the common
/// argument length (or 1, the broadcast convention), and the column type
/// must equal what `return_type` declared for these argument types. A
/// violation is reported as a typed [`DbError::Udf`] naming the function,
/// never a panic downstream. Release builds skip the re-check and only pay
/// for the call itself.
///
/// All engine call sites (expression evaluation) route through this wrapper
/// rather than calling [`ScalarUdf::invoke`] directly.
pub fn invoke_scalar_checked(udf: &dyn ScalarUdf, args: &[Arc<Column>]) -> DbResult<Column> {
    crate::metrics::counter(&format!("udf.{}.invocations", udf.name())).incr();
    crate::metrics::counter("udf.scalar.invocations").incr();
    let out = udf.invoke(args)?;
    #[cfg(debug_assertions)]
    {
        let rows = args.iter().map(|c| c.len()).max();
        if let Some(rows) = rows {
            if out.len() != rows && out.len() != 1 {
                return Err(DbError::Udf {
                    function: udf.name().to_owned(),
                    message: format!(
                        "contract violation: returned {} rows for {} input rows \
                         (must be {} or 1)",
                        out.len(),
                        rows,
                        rows
                    ),
                });
            }
        }
        let arg_types: Vec<DataType> = args.iter().map(|c| c.data_type()).collect();
        // Only check when the function accepts these types; a rejection here
        // means the binder never vetted this call, which eval reports itself.
        if let Ok(declared) = udf.return_type(&arg_types) {
            if out.data_type() != declared {
                return Err(DbError::Udf {
                    function: udf.name().to_owned(),
                    message: format!(
                        "contract violation: declared return type {declared} but \
                         returned a {} column",
                        out.data_type()
                    ),
                });
            }
        }
    }
    Ok(out)
}

/// A [`ScalarUdf`] built from a closure, for quick registration without a
/// dedicated type. The closure receives the argument columns.
pub struct ClosureScalarUdf<F> {
    name: String,
    ret: DataType,
    parallel_safe: bool,
    arity: Option<(usize, usize)>,
    f: F,
}

impl<F> ClosureScalarUdf<F>
where
    F: Fn(&[Arc<Column>]) -> DbResult<Column> + Send + Sync,
{
    /// Wraps `f` as a scalar UDF returning `ret`. Until an arity is set
    /// with [`Self::with_arity`], any argument count is accepted.
    pub fn new(name: impl Into<String>, ret: DataType, f: F) -> Self {
        ClosureScalarUdf { name: name.into(), ret, parallel_safe: false, arity: None, f }
    }

    /// Marks the function safe for morsel-parallel invocation.
    pub fn parallel(mut self) -> Self {
        self.parallel_safe = true;
        self
    }

    /// Declares an exact argument count; `return_type` then rejects any
    /// other arity with a typed error (caught by the plan verifier before
    /// execution).
    pub fn with_arity(self, n: usize) -> Self {
        self.with_arity_range(n, n)
    }

    /// Declares an inclusive argument-count range.
    pub fn with_arity_range(mut self, min: usize, max: usize) -> Self {
        self.arity = Some((min, max));
        self
    }
}

impl<F> ScalarUdf for ClosureScalarUdf<F>
where
    F: Fn(&[Arc<Column>]) -> DbResult<Column> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }
    fn return_type(&self, arg_types: &[DataType]) -> DbResult<DataType> {
        if let Some((min, max)) = self.arity {
            if arg_types.len() < min || arg_types.len() > max {
                return Err(DbError::Udf {
                    function: self.name.clone(),
                    message: format!(
                        "expects {} argument(s), got {}",
                        if min == max { min.to_string() } else { format!("{min}..={max}") },
                        arg_types.len()
                    ),
                });
            }
        }
        Ok(self.ret)
    }
    fn invoke(&self, args: &[Arc<Column>]) -> DbResult<Column> {
        (self.f)(args)
    }
    fn parallel_safe(&self) -> bool {
        self.parallel_safe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plus_one() -> Arc<dyn ScalarUdf> {
        Arc::new(ClosureScalarUdf::new("plus_one", DataType::Int64, |args| {
            let xs =
                args[0].i64s().ok_or_else(|| DbError::Type("plus_one expects BIGINT".into()))?;
            Ok(Column::from_i64s(xs.iter().map(|x| x + 1).collect()))
        }))
    }

    #[test]
    fn register_and_invoke() {
        let reg = FunctionRegistry::new();
        reg.register_scalar(plus_one());
        assert!(reg.has_scalar("PLUS_ONE"));
        let f = reg.scalar("Plus_One").unwrap();
        let out = f.invoke(&[Arc::new(Column::from_i64s(vec![1, 2]))]).unwrap();
        assert_eq!(out.i64s().unwrap(), &[2, 3]);
        assert!(reg.scalar("nope").is_err());
    }

    #[test]
    fn replace_semantics() {
        let reg = FunctionRegistry::new();
        reg.register_scalar(plus_one());
        reg.register_scalar(Arc::new(ClosureScalarUdf::new("plus_one", DataType::Int64, |args| {
            let xs = args[0].i64s().unwrap();
            Ok(Column::from_i64s(xs.iter().map(|x| x + 100).collect()))
        })));
        let f = reg.scalar("plus_one").unwrap();
        let out = f.invoke(&[Arc::new(Column::from_i64s(vec![1]))]).unwrap();
        assert_eq!(out.i64s().unwrap(), &[101]);
    }

    #[test]
    fn declared_arity_enforced_in_return_type() {
        let udf = ClosureScalarUdf::new("f", DataType::Int64, |args| Ok(args[0].as_ref().clone()))
            .with_arity(1);
        assert_eq!(udf.return_type(&[DataType::Int64]).unwrap(), DataType::Int64);
        let err = udf.return_type(&[DataType::Int64, DataType::Int64]).unwrap_err();
        match err {
            DbError::Udf { function, message } => {
                assert_eq!(function, "f");
                assert!(message.contains("expects 1 argument(s), got 2"), "{message}");
            }
            other => panic!("expected DbError::Udf, got {other:?}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checked_invoke_rejects_wrong_output_length() {
        // Declares Int64 and honors it, but returns 3 rows for 2 inputs.
        let bad = ClosureScalarUdf::new("bad_len", DataType::Int64, |_| {
            Ok(Column::from_i64s(vec![1, 2, 3]))
        });
        let args = [Arc::new(Column::from_i64s(vec![10, 20]))];
        let err = invoke_scalar_checked(&bad, &args).unwrap_err();
        match err {
            DbError::Udf { function, message } => {
                assert_eq!(function, "bad_len");
                assert!(message.contains("returned 3 rows for 2 input rows"), "{message}");
            }
            other => panic!("expected DbError::Udf, got {other:?}"),
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn checked_invoke_rejects_wrong_output_type() {
        // Declares VARCHAR but returns BIGINT.
        let bad = ClosureScalarUdf::new("bad_type", DataType::Varchar, |args| {
            Ok(args[0].as_ref().clone())
        });
        let args = [Arc::new(Column::from_i64s(vec![1]))];
        let err = invoke_scalar_checked(&bad, &args).unwrap_err();
        match err {
            DbError::Udf { function, message } => {
                assert_eq!(function, "bad_type");
                assert!(message.contains("declared return type VARCHAR"), "{message}");
            }
            other => panic!("expected DbError::Udf, got {other:?}"),
        }
    }

    #[test]
    fn checked_invoke_accepts_broadcast_output() {
        // A length-1 (constant) output for N input rows is the broadcast
        // convention and must pass.
        let constant =
            ClosureScalarUdf::new("constant", DataType::Int64, |_| Ok(Column::from_i64s(vec![42])));
        let args = [Arc::new(Column::from_i64s(vec![1, 2, 3]))];
        let out = invoke_scalar_checked(&constant, &args).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn drop_function_works() {
        let reg = FunctionRegistry::new();
        reg.register_scalar(plus_one());
        reg.drop_function("plus_one", false).unwrap();
        assert!(!reg.has_scalar("plus_one"));
        assert!(reg.drop_function("plus_one", false).is_err());
        reg.drop_function("plus_one", true).unwrap();
    }
}
