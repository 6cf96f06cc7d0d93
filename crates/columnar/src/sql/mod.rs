//! The SQL front-end: lexer → parser → binder → executor.
//!
//! The dialect is a practical subset modeled on MonetDB's:
//!
//! * `CREATE TABLE [IF NOT EXISTS] t (col TYPE [NOT NULL], …)`
//! * `CREATE TABLE t AS SELECT …`
//! * `DROP TABLE [IF EXISTS] t`, `DROP FUNCTION [IF EXISTS] f`
//! * `INSERT INTO t [(cols)] VALUES (…), …` and `INSERT INTO t SELECT …`
//! * `DELETE FROM t [WHERE …]`, `UPDATE t SET c = e, … [WHERE …]`
//! * `SELECT [DISTINCT] … FROM … [JOIN … ON/USING …] [WHERE …]
//!    [GROUP BY …] [HAVING …] [UNION ALL …] [ORDER BY …] [LIMIT/OFFSET]`
//! * Derived tables `(SELECT …) alias`, scalar subqueries, and
//!   **table-valued UDF calls** in `FROM` — `SELECT * FROM train((SELECT …), 16)`
//!   — the hook the ML integration uses.
//! * `SHOW TABLES`, `SHOW FUNCTIONS`

pub mod ast;
pub mod binder;
pub mod estimate;
pub mod execute;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod plan_cache;
pub mod token;

pub use binder::bind;
pub use execute::{execute_plan, execute_plan_with, ExecOptions, DEFAULT_PARALLEL_THRESHOLD};
pub use optimizer::optimize;
pub use parser::{parse, parse_many};
pub use plan::{BoundStatement, LogicalPlan};
pub use plan_cache::{CacheStamp, CachedQuery, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
