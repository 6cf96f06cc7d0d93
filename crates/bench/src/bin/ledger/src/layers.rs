//! Per-layer numbers every workload can report: counter deltas of the
//! metrics registry over the timed phase, turned into ratios and per-op
//! counts so they do not depend on how long the phase ran.

use crate::report::{ratio, Report};
use crate::trace::Tracer;
use mlcs_columnar::metrics::{self, Snapshot};
use mlcs_columnar::sql::{bind, optimize, parse, BoundStatement};
use mlcs_columnar::Database;

/// Registry state at the start of a measured phase.
pub struct Phase {
    before: Snapshot,
}

impl Phase {
    pub fn start() -> Phase {
        Phase { before: metrics::snapshot() }
    }

    /// What the registry counted since [`Phase::start`].
    pub fn delta(&self) -> Snapshot {
        metrics::snapshot().since(&self.before)
    }
}

/// Fills the registry-derived per-layer metrics for a phase of `ops`
/// operations that took `wall_ns` with `threads` pool workers.
pub fn registry_metrics(
    report: &mut Report,
    delta: &Snapshot,
    ops: u64,
    wall_ns: u64,
    threads: usize,
) {
    let c = |name: &str| delta.counter(name) as f64;
    let per_op = |name: &str| ratio(c(name), ops as f64);
    let hit_ratio = |hits: &str, misses: &str| ratio(c(hits), c(hits) + c(misses));

    report.set(
        "core.model_cache_hit_ratio",
        hit_ratio("modelstore.cache.hits", "modelstore.cache.misses"),
    );
    report.set(
        "core.matrix_cache_hit_ratio",
        hit_ratio("ml.matrix_cache.hits", "ml.matrix_cache.misses"),
    );
    report.set("udf.scalar_invocations", per_op("udf.scalar.invocations"));
    report.set("udf.table_invocations", per_op("udf.table.invocations"));
    report.set("exec.scan_rows", per_op("exec.scan.rows"));
    report.set("parallel.morsels", per_op("pool.morsels"));
    // A histogram's sum is exact; only its percentiles are bucketed.
    let busy_ns = delta.duration_sum("pool.busy_time_ns").as_nanos() as f64;
    report.set("parallel.pool_busy_share", ratio(busy_ns, wall_ns as f64 * threads as f64));
    report
        .set("sql.plan_cache_hit_ratio", hit_ratio("sql.plan_cache.hits", "sql.plan_cache.misses"));
    report.set("sql.plan_cache_evictions", per_op("sql.plan_cache.evictions"));
    report.set("netproto.shed", c("netproto.evloop.shed"));
    report.set("netproto.retries", c("netproto.retries"));
    report.set("netproto.timeouts", c("netproto.timeouts"));
    report.set("stats.answered_aggregates", per_op("sql.stats.answered_aggregates"));
    report.set("wal.bytes_per_commit", ratio(c("wal.bytes"), c("wal.appends")));
    report.set("wal.fsyncs_per_commit", ratio(c("wal.fsyncs"), c("wal.appends")));
}

/// Runs the SQL front-end on `sql` by its three public functions, one
/// span each under `parent`, and returns `[parse, bind, optimize]` in
/// nanoseconds. The statement must be a query.
pub fn front_end(
    db: &Database,
    sql: &str,
    tracer: &mut Tracer,
    op_id: u64,
    parent: Option<usize>,
) -> Result<[u64; 3], String> {
    let (stmt, parse_ns) = tracer.span("sql.parse", op_id, parent, || parse(sql));
    let stmt = stmt.map_err(|e| format!("parse `{sql}`: {e}"))?;
    let (bound, bind_ns) =
        tracer.span("sql.bind", op_id, parent, || bind(stmt, db.catalog(), db.functions()));
    let BoundStatement::Query { plan, .. } = bound.map_err(|e| format!("bind `{sql}`: {e}"))?
    else {
        return Err(format!("`{sql}` did not bind to a query"));
    };
    let (plan, optimize_ns) = tracer.span("sql.optimize", op_id, parent, || optimize(plan));
    plan.map_err(|e| format!("optimize `{sql}`: {e}"))?;
    Ok([parse_ns, bind_ns, optimize_ns])
}
