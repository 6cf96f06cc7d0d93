//! The [`Database`] facade: catalog + function registry + SQL entry point.
//!
//! - `handle`: the shared handle, its settings and entry points;
//! - `prepare`: parse → bind → optimize → verify, the plan cache, and the
//!   run of a prepared plan;
//! - `commit`: every statement that changes a table or the catalog, and
//!   the durable log it commits through;
//! - `explain`: `EXPLAIN` and `EXPLAIN ANALYZE`.

mod commit;
mod explain;
mod handle;
mod prepare;

pub use handle::{Database, QueryResult, StatementKind};

#[cfg(test)]
mod tests;
