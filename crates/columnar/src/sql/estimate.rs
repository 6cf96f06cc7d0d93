//! Cardinality estimation over live column statistics.
//!
//! Walks a bound [`LogicalPlan`] bottom-up, seeding each [`Scan`] leaf
//! from the catalog's per-table [`TableStats`] and propagating estimated
//! row counts (and, where column identity survives, per-column
//! [`ColumnStats`]) through the operators above. The cost-based passes in
//! [`crate::sql::optimizer`] consume [`estimate_rows`] to pick join
//! build sides and orders; `EXPLAIN ANALYZE` consumes [`estimate_map`]
//! to print `est=N` next to actual rows so estimation error is visible.
//!
//! Estimates are heuristic and deliberately cheap — no sampling, no
//! histograms. Unknown quantities surface as `None` rather than a made-up
//! number, and callers treat `None` as "large" so a missing estimate can
//! never *cause* a rewrite.
//!
//! [`Scan`]: LogicalPlan::Scan
//! [`TableStats`]: crate::stats::TableStats

use crate::catalog::Catalog;
use crate::exec::JoinType;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::sql::plan::LogicalPlan;
use crate::stats::ColumnStats;
use crate::types::Value;
use std::collections::HashMap;

/// Default selectivity for predicates the heuristics don't recognize.
const DEFAULT_SELECTIVITY: f64 = 0.25;
/// Default selectivity for an equality against an unknown-NDV column.
const DEFAULT_EQ_SELECTIVITY: f64 = 0.1;
/// Default selectivity for range comparisons without usable min/max.
const DEFAULT_RANGE_SELECTIVITY: f64 = 1.0 / 3.0;
/// Assumed group count divisor for group keys without NDV stats.
const DEFAULT_GROUP_DIVISOR: u64 = 10;

/// The estimate propagated for one plan node: an output row count (when
/// derivable) and, for nodes that preserve column identity, the column
/// statistics of each output column (`None` for computed columns).
struct NodeEst {
    rows: Option<u64>,
    cols: Vec<Option<ColumnStats>>,
}

impl NodeEst {
    fn unknown(width: usize) -> NodeEst {
        NodeEst { rows: None, cols: vec![None; width] }
    }
}

/// Estimated output rows for every node of `plan`, keyed by node address
/// (the same key [`crate::sql::execute::PlanTrace`] uses). Nodes without
/// a derivable estimate are absent.
pub fn estimate_map(plan: &LogicalPlan, catalog: &Catalog) -> HashMap<usize, u64> {
    let mut out = HashMap::new();
    estimate_node(plan, catalog, &mut out);
    out
}

/// Estimated output rows for `plan`'s root, if derivable from stats.
pub fn estimate_rows(plan: &LogicalPlan, catalog: &Catalog) -> Option<u64> {
    let mut scratch = HashMap::new();
    estimate_node(plan, catalog, &mut scratch).rows
}

/// Collects the names of every table `plan` scans (with duplicates, in
/// plan order) — the plan cache stamps cached entries with these tables'
/// current row counts to detect growth drift.
pub fn scan_tables(plan: &LogicalPlan, out: &mut Vec<String>) {
    if let LogicalPlan::Scan { table, .. } = plan {
        out.push(table.clone());
    }
    for child in plan.children() {
        scan_tables(child, out);
    }
}

fn key_of(plan: &LogicalPlan) -> usize {
    plan as *const LogicalPlan as usize
}

/// The recursive estimator. Records every node's estimate into `map` as a
/// side effect and returns the node's [`NodeEst`] for the parent.
fn estimate_node(plan: &LogicalPlan, catalog: &Catalog, map: &mut HashMap<usize, u64>) -> NodeEst {
    let est = match plan {
        LogicalPlan::Scan { table, schema } => match catalog.table(table) {
            Ok(t) => {
                let guard = t.read();
                let stats = guard.stats();
                let cols: Vec<Option<ColumnStats>> =
                    (0..schema.len()).map(|i| stats.column(i).cloned()).collect();
                NodeEst { rows: Some(stats.rows()), cols }
            }
            Err(_) => NodeEst::unknown(schema.len()),
        },
        LogicalPlan::UnitRow => NodeEst { rows: Some(1), cols: Vec::new() },
        LogicalPlan::TableFunction { schema, .. } => {
            // Output size is up to the UDF; still recurse into plan-valued
            // arguments so their nodes land in the map.
            for child in plan.children() {
                estimate_node(child, catalog, map);
            }
            NodeEst::unknown(schema.len())
        }
        LogicalPlan::Filter { input, predicate } => {
            let inp = estimate_node(input, catalog, map);
            let rows = inp.rows.map(|r| apply_selectivity(r, selectivity(predicate, &inp.cols)));
            // Column stats survive a filter structurally (same columns),
            // but min/max/NDV may now overstate; that is the standard
            // conservative choice.
            NodeEst { rows, cols: inp.cols }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let inp = estimate_node(input, catalog, map);
            let cols = exprs
                .iter()
                .map(|e| match e {
                    Expr::Column(i) => inp.cols.get(*i).cloned().flatten(),
                    _ => None,
                })
                .collect();
            NodeEst { rows: inp.rows, cols }
        }
        LogicalPlan::Join { left, right, join_type, left_keys, right_keys, .. } => {
            let l = estimate_node(left, catalog, map);
            let r = estimate_node(right, catalog, map);
            let rows = join_rows(&l, &r, *join_type, left_keys, right_keys);
            let mut cols = l.cols;
            cols.extend(r.cols);
            NodeEst { rows, cols }
        }
        LogicalPlan::Aggregate { input, group, aggs: _, schema } => {
            let inp = estimate_node(input, catalog, map);
            let rows = if group.is_empty() {
                Some(1)
            } else {
                let key = |g: &Expr| match g {
                    Expr::Column(i) => Some(*i),
                    _ => None,
                };
                groups(&inp, group.iter().map(key))
            };
            NodeEst { rows, cols: vec![None; schema.len()] }
        }
        LogicalPlan::Sort { input, .. } => estimate_node(input, catalog, map),
        LogicalPlan::Limit { input, limit, offset } => {
            let inp = estimate_node(input, catalog, map);
            let rows = inp.rows.map(|r| {
                let after_offset = r.saturating_sub(*offset as u64);
                match limit {
                    Some(l) => after_offset.min(*l as u64),
                    None => after_offset,
                }
            });
            NodeEst { rows, cols: inp.cols }
        }
        LogicalPlan::Distinct { input } => {
            // DISTINCT groups by every column, and keeps each one's stats.
            let inp = estimate_node(input, catalog, map);
            let rows = groups(&inp, (0..inp.cols.len()).map(Some));
            NodeEst { rows, cols: inp.cols }
        }
        LogicalPlan::UnionAll { inputs, schema } => {
            let mut total: Option<u64> = Some(0);
            for p in inputs {
                let e = estimate_node(p, catalog, map);
                total = match (total, e.rows) {
                    (Some(t), Some(r)) => Some(t.saturating_add(r)),
                    _ => None,
                };
            }
            NodeEst { rows: total, cols: vec![None; schema.len()] }
        }
    };
    if let Some(r) = est.rows {
        map.insert(key_of(plan), r);
    }
    est
}

/// The groups of a `GROUP BY` (or DISTINCT) over `inp`: the product of the
/// keys' NDVs, capped by the input rows. `keys` are input columns, `None`
/// for a computed key, whose NDV is taken as a tenth of the rows.
fn groups(inp: &NodeEst, keys: impl Iterator<Item = Option<usize>>) -> Option<u64> {
    let r = inp.rows?;
    let mut groups: u64 = 1;
    for key in keys {
        let ndv = key.and_then(|i| inp.cols.get(i)).and_then(|c| c.as_ref()).map(|c| c.ndv());
        let per_key = ndv.unwrap_or_else(|| (r / DEFAULT_GROUP_DIVISOR).max(1)).max(1);
        groups = groups.saturating_mul(per_key);
    }
    Some(groups.min(r.max(1)))
}

/// Join output estimate. Equi-joins use the textbook independence
/// formula `|L|·|R| / max(ndv_L, ndv_R)` per key pair; LEFT join output
/// is at least the left input; cross joins are the full product.
fn join_rows(
    l: &NodeEst,
    r: &NodeEst,
    join_type: JoinType,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Option<u64> {
    let lr = l.rows?;
    let rr = r.rows?;
    if join_type == JoinType::Cross || left_keys.is_empty() {
        return Some(lr.saturating_mul(rr));
    }
    let mut denom: u128 = 1;
    let mut any_ndv = false;
    for (lk, rk) in left_keys.iter().zip(right_keys) {
        let ln = l.cols.get(*lk).and_then(|c| c.as_ref()).map(|c| c.ndv());
        let rn = r.cols.get(*rk).and_then(|c| c.as_ref()).map(|c| c.ndv());
        let d = match (ln, rn) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => continue,
        };
        any_ndv = true;
        denom = denom.saturating_mul(u128::from(d.max(1)));
    }
    let mut est = if any_ndv {
        let product = u128::from(lr) * u128::from(rr);
        u64::try_from(product / denom.max(1)).unwrap_or(u64::MAX)
    } else {
        // No key stats on either side: assume a key-foreign-key join and
        // take the larger input as the estimate.
        lr.max(rr)
    };
    if join_type == JoinType::Left {
        est = est.max(lr);
    }
    Some(est)
}

/// Applies a selectivity fraction to a row count, keeping at least one
/// row for non-empty inputs so downstream estimates never divide by zero.
fn apply_selectivity(rows: u64, sel: f64) -> u64 {
    if rows == 0 {
        return 0;
    }
    let est = (rows as f64 * sel.clamp(0.0, 1.0)).round() as u64;
    est.clamp(1, rows)
}

/// Heuristic selectivity of `predicate` over columns with stats `cols`.
/// Always in `[0, 1]`; unrecognized shapes fall back to
/// [`DEFAULT_SELECTIVITY`].
pub(crate) fn selectivity(predicate: &Expr, cols: &[Option<ColumnStats>]) -> f64 {
    match predicate {
        Expr::Literal(Value::Boolean(true)) => 1.0,
        Expr::Literal(Value::Boolean(false)) | Expr::Literal(Value::Null) => 0.0,
        Expr::Binary { op: BinaryOp::And, left, right } => {
            // Independence assumption.
            selectivity(left, cols) * selectivity(right, cols)
        }
        Expr::Binary { op: BinaryOp::Or, left, right } => {
            let a = selectivity(left, cols);
            let b = selectivity(right, cols);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Binary { op, left, right } if is_comparison(*op) => {
            comparison_selectivity(*op, left, right, cols)
        }
        Expr::Unary { op: UnaryOp::Not, expr } => 1.0 - selectivity(expr, cols),
        Expr::IsNull { expr, negated } => match column_stats(expr, cols) {
            Some(st) => {
                let f = st.null_fraction();
                if *negated {
                    1.0 - f
                } else {
                    f
                }
            }
            None => DEFAULT_EQ_SELECTIVITY,
        },
        Expr::Between { expr, low, high, negated } => {
            let inside = between_selectivity(expr, low, high, cols);
            if *negated {
                (1.0 - inside).clamp(0.0, 1.0)
            } else {
                inside
            }
        }
        Expr::InList { expr, list, negated } => {
            let n = list.len() as f64;
            let inside = match column_stats(expr, cols) {
                Some(st) if st.ndv() > 0 => (n / st.ndv() as f64).min(1.0),
                _ => (n * DEFAULT_EQ_SELECTIVITY).min(1.0),
            };
            if *negated {
                (1.0 - inside).clamp(0.0, 1.0)
            } else {
                inside
            }
        }
        _ => DEFAULT_SELECTIVITY,
    }
}

fn is_comparison(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
    )
}

/// Stats for a bare column reference, when the expression is one.
fn column_stats<'a>(expr: &Expr, cols: &'a [Option<ColumnStats>]) -> Option<&'a ColumnStats> {
    match expr {
        Expr::Column(i) => cols.get(*i).and_then(|c| c.as_ref()),
        _ => None,
    }
}

/// A literal value, when the expression is one.
fn literal(expr: &Expr) -> Option<&Value> {
    match expr {
        Expr::Literal(v) if !v.is_null() => Some(v),
        _ => None,
    }
}

/// Selectivity of `col <op> lit` (either operand order) from min/max
/// range position and NDV.
fn comparison_selectivity(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    cols: &[Option<ColumnStats>],
) -> f64 {
    // Normalize to column-on-the-left; mirror the operator when the
    // literal is on the left instead.
    let (st, lit, op) = match (column_stats(left, cols), literal(right)) {
        (Some(st), Some(v)) => (Some(st), Some(v), op),
        _ => match (literal(left), column_stats(right, cols)) {
            (Some(v), Some(st)) => (Some(st), Some(v), mirror(op)),
            _ => (None, None, op),
        },
    };
    let (st, lit) = match (st, lit) {
        (Some(s), Some(v)) => (s, v),
        _ => {
            return match op {
                BinaryOp::Eq => DEFAULT_EQ_SELECTIVITY,
                BinaryOp::NotEq => 1.0 - DEFAULT_EQ_SELECTIVITY,
                _ => DEFAULT_RANGE_SELECTIVITY,
            }
        }
    };
    match op {
        BinaryOp::Eq => match st.min_max() {
            // A literal outside the observed range matches nothing.
            Some((min, max)) if out_of_range(lit, min, max) => 0.0,
            _ => {
                if st.ndv() > 0 {
                    (1.0 / st.ndv() as f64).min(1.0)
                } else {
                    0.0
                }
            }
        },
        BinaryOp::NotEq => {
            if st.ndv() > 0 {
                (1.0 - 1.0 / st.ndv() as f64).clamp(0.0, 1.0)
            } else {
                0.0
            }
        }
        BinaryOp::Lt | BinaryOp::LtEq => range_fraction(st, lit, true),
        BinaryOp::Gt | BinaryOp::GtEq => range_fraction(st, lit, false),
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Whether `lit` falls strictly outside `[min, max]` under SQL ordering.
/// Incomparable pairs (cross-type) return false (no conclusion).
fn out_of_range(lit: &Value, min: &Value, max: &Value) -> bool {
    let below = matches!(lit.sql_cmp(min), Some(std::cmp::Ordering::Less));
    let above = matches!(lit.sql_cmp(max), Some(std::cmp::Ordering::Greater));
    below || above
}

/// The fraction of the column's `[min, max]` numeric span below (or
/// above) `lit`, assuming a uniform distribution. Non-numeric or
/// degenerate ranges fall back to [`DEFAULT_RANGE_SELECTIVITY`].
fn range_fraction(st: &ColumnStats, lit: &Value, below: bool) -> f64 {
    let (min, max) = match st.min_max() {
        Some(mm) => mm,
        None => return DEFAULT_RANGE_SELECTIVITY,
    };
    let (min_f, max_f, lit_f) = match (min.as_f64(), max.as_f64(), lit.as_f64()) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => return DEFAULT_RANGE_SELECTIVITY,
    };
    if !min_f.is_finite() || !max_f.is_finite() || !lit_f.is_finite() {
        return DEFAULT_RANGE_SELECTIVITY;
    }
    if lit_f <= min_f {
        return if below { 0.0 } else { 1.0 };
    }
    if lit_f >= max_f {
        return if below { 1.0 } else { 0.0 };
    }
    let span = max_f - min_f;
    if span <= 0.0 {
        return DEFAULT_RANGE_SELECTIVITY;
    }
    let frac = (lit_f - min_f) / span;
    if below {
        frac
    } else {
        1.0 - frac
    }
}

/// Selectivity of `expr BETWEEN low AND high` as the overlap of the
/// literal range with the column's observed range.
fn between_selectivity(expr: &Expr, low: &Expr, high: &Expr, cols: &[Option<ColumnStats>]) -> f64 {
    let st = match column_stats(expr, cols) {
        Some(s) => s,
        None => return DEFAULT_RANGE_SELECTIVITY,
    };
    match (literal(low), literal(high)) {
        (Some(lo), Some(hi)) => {
            // `x BETWEEN lo AND hi` == `x >= lo AND x <= hi`; multiply the
            // complement-free fractions via the range positions.
            let below_hi = range_fraction(st, hi, true);
            let below_lo = range_fraction(st, lo, true);
            (below_hi - below_lo).clamp(0.0, 1.0)
        }
        _ => DEFAULT_RANGE_SELECTIVITY,
    }
}

/// Mirrors a comparison for operand swap (`lit < col` → `col > lit`).
fn mirror(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::exec::AggFunc;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;
    use std::sync::Arc;

    fn catalog_with(name: &str, cols: Vec<(&str, Column)>) -> Catalog {
        let catalog = Catalog::new();
        let schema = Arc::new(Schema::new_unchecked(
            cols.iter().map(|(n, c)| Field::new(*n, c.data_type())).collect(),
        ));
        catalog.create_table(name, schema).unwrap();
        let batch = crate::batch::Batch::from_columns(cols).unwrap();
        catalog.table(name).unwrap().write().append_batch(&batch).unwrap();
        catalog
    }

    fn scan(catalog: &Catalog, name: &str) -> LogicalPlan {
        let schema = catalog.table(name).unwrap().read().schema().clone();
        LogicalPlan::Scan { table: name.to_owned(), schema }
    }

    #[test]
    fn scan_estimate_is_exact_row_count() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s((0..100).collect()))]);
        let plan = scan(&catalog, "t");
        assert_eq!(estimate_rows(&plan, &catalog), Some(100));
    }

    #[test]
    fn equality_filter_uses_ndv() {
        let catalog =
            catalog_with("t", vec![("x", Column::from_i32s((0..1000).map(|i| i % 10).collect()))]);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&catalog, "t")),
            predicate: Expr::binary(BinaryOp::Eq, Expr::col(0), Expr::lit(3i32)),
        };
        // 10 distinct values over 1000 rows → ~100 rows.
        let est = estimate_rows(&plan, &catalog).unwrap();
        assert!((80..=120).contains(&est), "est {est} not near 100");
    }

    #[test]
    fn out_of_range_equality_estimates_zero_survivors_floor_one() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s((0..100).collect()))]);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&catalog, "t")),
            predicate: Expr::binary(BinaryOp::Eq, Expr::col(0), Expr::lit(100_000i32)),
        };
        // Selectivity 0 floors at one row for non-empty inputs.
        assert_eq!(estimate_rows(&plan, &catalog), Some(1));
    }

    #[test]
    fn range_filter_tracks_fraction() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s((0..1000).collect()))]);
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&catalog, "t")),
            predicate: Expr::binary(BinaryOp::Lt, Expr::col(0), Expr::lit(250i32)),
        };
        let est = estimate_rows(&plan, &catalog).unwrap();
        assert!((200..=300).contains(&est), "est {est} not near 250");
    }

    #[test]
    fn ungrouped_aggregate_estimates_one_row() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s((0..50).collect()))]);
        let schema = Arc::new(Schema::new_unchecked(vec![Field::new("n", DataType::Int64)]));
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan(&catalog, "t")),
            group: vec![],
            aggs: vec![crate::sql::plan::PlanAgg {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
            schema,
        };
        assert_eq!(estimate_rows(&plan, &catalog), Some(1));
    }

    #[test]
    fn distinct_estimates_the_product_of_key_ndvs() {
        // SELECT DISTINCT k, cat over 100 × 16 dictionary values.
        let cats: Vec<String> = (0..8000).map(|i| format!("c{:02}", (i + i / 100) % 16)).collect();
        let catalog = catalog_with(
            "t",
            vec![
                ("k", Column::from_i32s((0..8000).map(|i| i % 100).collect())),
                ("cat", Column::from_strings(cats.iter().map(String::as_str))),
            ],
        );
        let table = catalog.table("t").unwrap();
        let encodings =
            table.read().scan().columns().iter().map(|c| c.encoding()).collect::<Vec<_>>();
        assert_eq!(encodings, [crate::column::Encoding::Dict; 2]);
        let plan = LogicalPlan::Distinct { input: Box::new(scan(&catalog, "t")) };
        assert_eq!(estimate_rows(&plan, &catalog), Some(1600));
    }

    #[test]
    fn join_estimate_divides_by_key_ndv() {
        let catalog = Catalog::new();
        let dim_schema = Arc::new(Schema::new_unchecked(vec![Field::new("id", DataType::Int32)]));
        let fact_schema = Arc::new(Schema::new_unchecked(vec![Field::new("fk", DataType::Int32)]));
        catalog.create_table("dim", dim_schema.clone()).unwrap();
        catalog.create_table("fact", fact_schema.clone()).unwrap();
        let dim =
            crate::batch::Batch::from_columns(vec![("id", Column::from_i32s((0..10).collect()))])
                .unwrap();
        let fact = crate::batch::Batch::from_columns(vec![(
            "fk",
            Column::from_i32s((0..1000).map(|i| i % 10).collect()),
        )])
        .unwrap();
        catalog.table("dim").unwrap().write().append_batch(&dim).unwrap();
        catalog.table("fact").unwrap().write().append_batch(&fact).unwrap();
        let out_schema = Arc::new(Schema::new_unchecked(vec![
            Field::new("id", DataType::Int32),
            Field::new("fk", DataType::Int32),
        ]));
        let plan = LogicalPlan::Join {
            left: Box::new(scan(&catalog, "dim")),
            right: Box::new(scan(&catalog, "fact")),
            join_type: JoinType::Inner,
            left_keys: vec![0],
            right_keys: vec![0],
            residual: None,
            build_left: false,
            schema: out_schema,
        };
        // 10 · 1000 / max(10, 10) = 1000.
        let est = estimate_rows(&plan, &catalog).unwrap();
        assert!((800..=1200).contains(&est), "est {est} not near 1000");
    }

    #[test]
    fn estimate_map_covers_all_nodes_and_missing_table_is_absent() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s((0..10).collect()))]);
        let inner = scan(&catalog, "t");
        let plan = LogicalPlan::Limit { input: Box::new(inner), limit: Some(3), offset: 0 };
        let map = estimate_map(&plan, &catalog);
        assert_eq!(map.get(&(&plan as *const LogicalPlan as usize)), Some(&3));
        assert_eq!(map.len(), 2);

        let ghost = LogicalPlan::Scan {
            table: "missing".to_owned(),
            schema: Arc::new(Schema::new_unchecked(vec![])),
        };
        assert!(estimate_map(&ghost, &catalog).is_empty());
    }

    #[test]
    fn scan_tables_collects_in_plan_order() {
        let catalog = catalog_with("t", vec![("x", Column::from_i32s(vec![1]))]);
        let plan = LogicalPlan::UnionAll {
            inputs: vec![scan(&catalog, "t"), scan(&catalog, "t")],
            schema: Arc::new(Schema::new_unchecked(vec![Field::new("x", DataType::Int32)])),
        };
        let mut names = Vec::new();
        scan_tables(&plan, &mut names);
        assert_eq!(names, vec!["t".to_owned(), "t".to_owned()]);
    }
}
