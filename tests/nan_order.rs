//! One float order for ORDER BY, MIN/MAX and GREATEST/LEAST: NaN sorts
//! above every number, all NaNs are equal, and `-0.0` equals `0.0`. Checked
//! through SQL at one worker and with the parallel path forced, and at the
//! operators with one-row morsels (so sort runs merge and ungrouped
//! partials combine), over plain and dictionary columns.

use mlcs::columnar::exec::{self, AggCall, AggFunc, Parallelism, SortKey};
use mlcs::columnar::table::Table;
use mlcs::columnar::{Batch, Column, Database, Encoding, Value};

/// `t(k, x)`: `x` is `[1.0, NaN, -2.0, 0.5]`, `k` splits it in two groups.
fn batch(enc: Encoding) -> Batch {
    Batch::from_columns(vec![
        ("k", Column::from_i32s(vec![1, 1, 2, 2])),
        ("x", Column::from_f64s(vec![1.0, f64::NAN, -2.0, 0.5]).encode(enc)),
    ])
    .unwrap()
}

fn database(enc: Encoding, threads: usize) -> Database {
    let db = Database::new();
    db.set_threads(threads);
    db.set_parallel_threshold(1);
    db.catalog().put_table(Table::from_batch("t", batch(Encoding::Plain)), false).unwrap();
    db.catalog().table("t").unwrap().write().set_column_encoding(1, enc).unwrap();
    db
}

/// A result's cells, floats as text so that NaN equals NaN.
fn cells(b: &Batch) -> Vec<Vec<String>> {
    (0..b.rows()).map(|i| b.row(i).iter().map(|v| format!("{v:?}")).collect()).collect()
}

fn floats(xs: &[f64]) -> Vec<Vec<String>> {
    xs.iter().map(|&x| vec![format!("{:?}", Value::Float64(x))]).collect()
}

const ENCODINGS: [Encoding; 2] = [Encoding::Plain, Encoding::Dict];

fn forced() -> Parallelism {
    Parallelism { threads: 4, threshold: 1, morsel_rows: 1, deadline: None }
}

#[test]
fn order_by_puts_nan_above_every_number() {
    for enc in ENCODINGS {
        for threads in [1, 4] {
            let db = database(enc, threads);
            let asc = db.query("SELECT x FROM t ORDER BY x").unwrap();
            assert_eq!(cells(&asc), floats(&[-2.0, 0.5, 1.0, f64::NAN]), "{enc:?} {threads}");
            let desc = db.query("SELECT x FROM t ORDER BY x DESC").unwrap();
            assert_eq!(cells(&desc), floats(&[f64::NAN, 1.0, 0.5, -2.0]), "{enc:?} {threads}");
        }
        for par in [Parallelism::serial(), forced()] {
            let (out, _) = exec::sort(&batch(enc), &[SortKey::asc(1)], par).unwrap();
            let xs: Vec<String> = (0..4).map(|i| format!("{:?}", out.row(i)[1])).collect();
            assert_eq!(xs, floats(&[-2.0, 0.5, 1.0, f64::NAN]).concat(), "{enc:?} {par:?}");
        }
    }
}

#[test]
fn min_and_max_order_nan_above_every_number() {
    for enc in ENCODINGS {
        for threads in [1, 4] {
            let db = database(enc, threads);
            let all = db.query("SELECT MIN(x), MAX(x) FROM t").unwrap();
            let want = vec![vec![
                format!("{:?}", Value::Float64(-2.0)),
                format!("{:?}", Value::Float64(f64::NAN)),
            ]];
            assert_eq!(cells(&all), want, "{enc:?} {threads}");
            let grouped =
                db.query("SELECT k, MIN(x), MAX(x) FROM t GROUP BY k ORDER BY k").unwrap();
            let row = |k: i32, lo: f64, hi: f64| {
                vec![
                    format!("{:?}", Value::Int32(k)),
                    format!("{:?}", Value::Float64(lo)),
                    format!("{:?}", Value::Float64(hi)),
                ]
            };
            assert_eq!(cells(&grouped), vec![row(1, 1.0, f64::NAN), row(2, -2.0, 0.5)]);
        }
        let calls = [
            AggCall { func: AggFunc::Min, arg: Some(1), distinct: false },
            AggCall { func: AggFunc::Max, arg: Some(1), distinct: false },
        ];
        for par in [Parallelism::serial(), forced()] {
            let (out, _) = exec::hash_aggregate(&batch(enc), &[], &calls, par).unwrap();
            assert_eq!(out.row(0)[0], Value::Float64(-2.0), "{enc:?} {par:?}");
            assert!(matches!(out.row(0)[1], Value::Float64(x) if x.is_nan()), "{enc:?} {par:?}");
        }
    }
}

#[test]
fn greatest_and_least_ignore_argument_order() {
    for enc in ENCODINGS {
        for threads in [1, 4] {
            let db = database(enc, threads);
            let sql = "SELECT GREATEST(x, 1.0), GREATEST(1.0, x), LEAST(x, 1.0), LEAST(1.0, x) \
                       FROM t WHERE k = 1";
            let out = db.query(sql).unwrap();
            let nan = format!("{:?}", Value::Float64(f64::NAN));
            let one = format!("{:?}", Value::Float64(1.0));
            // Row 0 is x = 1.0, row 1 is x = NaN.
            assert_eq!(cells(&out)[1], vec![nan.clone(), nan, one.clone(), one], "{enc:?}");
        }
    }
}

#[test]
fn signed_zeros_stay_equal() {
    let b =
        Batch::from_columns(vec![("x", Column::from_f64s(vec![-0.0, 0.0, 0.0, -0.0]))]).unwrap();
    let (sorted, _) = exec::sort(&b, &[SortKey::asc(0)], forced()).unwrap();
    let bits: Vec<u64> = (0..4).map(|i| sorted.column(0).f64_at(i).unwrap().to_bits()).collect();
    assert_eq!(bits, [(-0.0f64).to_bits(), 0, 0, (-0.0f64).to_bits()], "a stable sort of equals");
    let calls = [
        AggCall { func: AggFunc::Min, arg: Some(0), distinct: false },
        AggCall { func: AggFunc::Max, arg: Some(0), distinct: false },
    ];
    let (out, _) = exec::hash_aggregate(&b, &[], &calls, forced()).unwrap();
    // The first of equal values wins both.
    assert_eq!(out.column(0).f64_at(0).unwrap().to_bits(), (-0.0f64).to_bits());
    assert_eq!(out.column(1).f64_at(0).unwrap().to_bits(), (-0.0f64).to_bits());
}
