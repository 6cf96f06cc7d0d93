//! Hash-join build sides, chosen by estimated cardinality.

use super::map_inputs;
use crate::catalog::Catalog;
use crate::exec::JoinType;
use crate::metrics;
use crate::sql::estimate;
use crate::sql::plan::LogicalPlan;

/// Pass 4: build-side selection. A hash join builds on its right input by
/// default; when the left input is estimated at **half the right's
/// cardinality or less** (`est(left) * 2 <= est(right)`), flip
/// `build_left` so the hash table is built on the smaller side. The
/// executor's swapped kernels restore canonical row order, so this never
/// changes results. Inner/Left equi-joins only; missing estimates never
/// trigger a swap. Ticks `sql.cost.build_side_swaps` per flipped join.
pub(super) fn choose_build_sides(plan: LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let plan = map_inputs(plan, &mut |c| choose_build_sides(c, catalog));
    match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type: join_type @ (JoinType::Inner | JoinType::Left),
            left_keys,
            right_keys,
            residual,
            build_left: false,
            schema,
        } => {
            let swap = !left_keys.is_empty()
                && match (
                    estimate::estimate_rows(&left, catalog),
                    estimate::estimate_rows(&right, catalog),
                ) {
                    (Some(l), Some(r)) => l.saturating_mul(2) <= r,
                    _ => false,
                };
            if swap {
                metrics::counter("sql.cost.build_side_swaps").incr();
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                left_keys,
                right_keys,
                residual,
                build_left: swap,
                schema,
            }
        }
        other => other,
    }
}
