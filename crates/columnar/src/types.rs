//! Logical data types and scalar values.

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;

/// The logical type of a column.
///
/// The engine is a classic analytical column store: a small closed set of
/// fixed-width numeric types plus variable-length strings and BLOBs (the
/// latter being how serialized machine-learning models are stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 1-byte boolean.
    Boolean,
    /// 8-bit signed integer (`TINYINT`).
    Int8,
    /// 16-bit signed integer (`SMALLINT`).
    Int16,
    /// 32-bit signed integer (`INTEGER`).
    Int32,
    /// 64-bit signed integer (`BIGINT`).
    Int64,
    /// 32-bit IEEE float (`REAL`).
    Float32,
    /// 64-bit IEEE float (`DOUBLE`).
    Float64,
    /// UTF-8 string (`VARCHAR` / `TEXT`).
    Varchar,
    /// Arbitrary bytes (`BLOB`); used to store pickled models.
    Blob,
}

impl DataType {
    /// True for the integer types.
    pub fn is_integer(self) -> bool {
        matches!(self, DataType::Int8 | DataType::Int16 | DataType::Int32 | DataType::Int64)
    }

    /// True for the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::Float32 | DataType::Float64)
    }

    /// True for any numeric type (integer or float).
    pub fn is_numeric(self) -> bool {
        self.is_integer() || self.is_float()
    }

    /// The SQL spelling of the type, as used by `CREATE TABLE`.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Boolean => "BOOLEAN",
            DataType::Int8 => "TINYINT",
            DataType::Int16 => "SMALLINT",
            DataType::Int32 => "INTEGER",
            DataType::Int64 => "BIGINT",
            DataType::Float32 => "REAL",
            DataType::Float64 => "DOUBLE",
            DataType::Varchar => "VARCHAR",
            DataType::Blob => "BLOB",
        }
    }

    /// Parses a SQL type name (case-insensitive, with common aliases).
    pub fn from_sql_name(name: &str) -> Option<DataType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "BOOLEAN" | "BOOL" => DataType::Boolean,
            "TINYINT" | "INT1" => DataType::Int8,
            "SMALLINT" | "INT2" => DataType::Int16,
            "INTEGER" | "INT" | "INT4" => DataType::Int32,
            "BIGINT" | "INT8" | "LONG" => DataType::Int64,
            "REAL" | "FLOAT4" | "FLOAT" => DataType::Float32,
            "DOUBLE" | "FLOAT8" => DataType::Float64,
            "VARCHAR" | "TEXT" | "STRING" | "CHAR" => DataType::Varchar,
            "BLOB" | "BYTEA" | "BINARY" => DataType::Blob,
            _ => return None,
        })
    }

    /// The widest common type two numeric types can be combined at, per
    /// standard numeric promotion (any float ⇒ `Float64`; otherwise the
    /// wider integer). Returns `None` for non-numeric inputs that differ.
    pub fn common_numeric(a: DataType, b: DataType) -> Option<DataType> {
        if a == b {
            return Some(a);
        }
        if !a.is_numeric() || !b.is_numeric() {
            return None;
        }
        if a.is_float() || b.is_float() {
            return Some(DataType::Float64);
        }
        let rank = |t: DataType| match t {
            DataType::Int8 => 1,
            DataType::Int16 => 2,
            DataType::Int32 => 3,
            DataType::Int64 => 4,
            _ => 0,
        };
        Some(if rank(a) >= rank(b) { a } else { b })
    }

    /// A stable one-byte tag used by the persistence layer.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Boolean => 0,
            DataType::Int8 => 1,
            DataType::Int16 => 2,
            DataType::Int32 => 3,
            DataType::Int64 => 4,
            DataType::Float32 => 5,
            DataType::Float64 => 6,
            DataType::Varchar => 7,
            DataType::Blob => 8,
        }
    }

    /// Inverse of [`DataType::tag`].
    pub fn from_tag(tag: u8) -> Option<DataType> {
        Some(match tag {
            0 => DataType::Boolean,
            1 => DataType::Int8,
            2 => DataType::Int16,
            3 => DataType::Int32,
            4 => DataType::Int64,
            5 => DataType::Float32,
            6 => DataType::Float64,
            7 => DataType::Varchar,
            8 => DataType::Blob,
            _ => return None,
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single scalar value, possibly NULL.
///
/// `Value` is the *row-oriented* currency of the engine: literals in
/// expressions, `INSERT` payloads, and row extraction from results. Bulk
/// data lives in [`crate::column::Column`]s and never materializes as
/// `Value`s on the fast path.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL (untyped; coerces to any column type).
    Null,
    /// Boolean value.
    Boolean(bool),
    /// 8-bit integer.
    Int8(i8),
    /// 16-bit integer.
    Int16(i16),
    /// 32-bit integer.
    Int32(i32),
    /// 64-bit integer.
    Int64(i64),
    /// 32-bit float.
    Float32(f32),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Varchar(String),
    /// Byte string.
    Blob(Vec<u8>),
}

impl Value {
    /// The value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(_) => DataType::Boolean,
            Value::Int8(_) => DataType::Int8,
            Value::Int16(_) => DataType::Int16,
            Value::Int32(_) => DataType::Int32,
            Value::Int64(_) => DataType::Int64,
            Value::Float32(_) => DataType::Float32,
            Value::Float64(_) => DataType::Float64,
            Value::Varchar(_) => DataType::Varchar,
            Value::Blob(_) => DataType::Blob,
        })
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as `i64`, if the value is an integer or boolean.
    pub fn as_i64(&self) -> Option<i64> {
        Some(match self {
            Value::Boolean(b) => *b as i64,
            Value::Int8(v) => *v as i64,
            Value::Int16(v) => *v as i64,
            Value::Int32(v) => *v as i64,
            Value::Int64(v) => *v,
            _ => return None,
        })
    }

    /// Numeric view as `f64`, if the value is numeric or boolean.
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self {
            Value::Float32(v) => *v as f64,
            Value::Float64(v) => *v,
            other => other.as_i64()? as f64,
        })
    }

    /// String view, if the value is a VARCHAR.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Blob view, if the value is a BLOB.
    pub fn as_blob(&self) -> Option<&[u8]> {
        match self {
            Value::Blob(b) => Some(b),
            _ => None,
        }
    }

    /// Boolean view, if the value is a BOOLEAN.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Casts the value to `target`, following SQL cast semantics
    /// (numeric widening/narrowing with range check, string parse, etc.).
    /// NULL casts to NULL of any type.
    pub fn cast(&self, target: DataType) -> DbResult<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        if self.data_type() == Some(target) {
            return Ok(self.clone());
        }
        let fail = || {
            DbError::Type(format!(
                "cannot cast {} to {}",
                self.data_type().map(|t| t.sql_name()).unwrap_or("NULL"),
                target.sql_name()
            ))
        };
        let out_of_range = |v: &dyn fmt::Display| {
            DbError::Arithmetic(format!("value {v} out of range for {}", target.sql_name()))
        };
        match target {
            DataType::Boolean => match self {
                Value::Varchar(s) => match s.to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Ok(Value::Boolean(true)),
                    "false" | "f" | "0" => Ok(Value::Boolean(false)),
                    _ => Err(fail()),
                },
                v => v.as_i64().map(|i| Value::Boolean(i != 0)).ok_or_else(fail),
            },
            DataType::Int8 | DataType::Int16 | DataType::Int32 | DataType::Int64 => {
                let i: i64 = match self {
                    Value::Varchar(s) => s.trim().parse::<i64>().map_err(|_| fail())?,
                    Value::Float32(f) => {
                        let t = f.trunc();
                        if !t.is_finite() || t < i64::MIN as f32 || t > i64::MAX as f32 {
                            return Err(out_of_range(f));
                        }
                        t as i64
                    }
                    Value::Float64(f) => {
                        let t = f.trunc();
                        if !t.is_finite() || t < i64::MIN as f64 || t >= i64::MAX as f64 {
                            return Err(out_of_range(f));
                        }
                        t as i64
                    }
                    v => v.as_i64().ok_or_else(fail)?,
                };
                match target {
                    DataType::Int8 => {
                        i8::try_from(i).map(Value::Int8).map_err(|_| out_of_range(&i))
                    }
                    DataType::Int16 => {
                        i16::try_from(i).map(Value::Int16).map_err(|_| out_of_range(&i))
                    }
                    DataType::Int32 => {
                        i32::try_from(i).map(Value::Int32).map_err(|_| out_of_range(&i))
                    }
                    _ => Ok(Value::Int64(i)),
                }
            }
            DataType::Float32 => match self {
                Value::Varchar(s) => {
                    s.trim().parse::<f32>().map(Value::Float32).map_err(|_| fail())
                }
                v => v.as_f64().map(|f| Value::Float32(f as f32)).ok_or_else(fail),
            },
            DataType::Float64 => match self {
                Value::Varchar(s) => {
                    s.trim().parse::<f64>().map(Value::Float64).map_err(|_| fail())
                }
                v => v.as_f64().map(Value::Float64).ok_or_else(fail),
            },
            DataType::Varchar => Ok(Value::Varchar(self.render())),
            DataType::Blob => match self {
                Value::Varchar(s) => Ok(Value::Blob(s.clone().into_bytes())),
                _ => Err(fail()),
            },
        }
    }

    /// Renders the value the way the result printer and CSV writer do.
    /// NULL renders as the empty string here; printers that need an explicit
    /// marker handle NULL before calling this.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Boolean(b) => b.to_string(),
            Value::Int8(v) => v.to_string(),
            Value::Int16(v) => v.to_string(),
            Value::Int32(v) => v.to_string(),
            Value::Int64(v) => v.to_string(),
            Value::Float32(v) => format_float(*v as f64).to_string(),
            Value::Float64(v) => format_float(*v).to_string(),
            Value::Varchar(s) => s.clone(),
            Value::Blob(b) => {
                let mut s = String::with_capacity(2 + b.len() * 2);
                s.push_str("\\x");
                for byte in b {
                    s.push_str(&format!("{byte:02x}"));
                }
                s
            }
        }
    }

    /// SQL comparison: NULL compares as unknown (`None`); otherwise values
    /// of comparable types order naturally, with cross-numeric comparison
    /// done at f64.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Varchar(a), Value::Varchar(b)) => Some(a.cmp(b)),
            (Value::Blob(a), Value::Blob(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            (a, b) => {
                if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
                    Some(x.cmp(&y))
                } else {
                    let (x, y) = (a.as_f64()?, b.as_f64()?);
                    x.partial_cmp(&y)
                }
            }
        }
    }

    /// The order ORDER BY, MIN/MAX and GREATEST/LEAST share:
    /// [`Value::sql_cmp`], except that NaN sorts above every number and
    /// equals every NaN (`-0.0` still equals `0.0`). `None` only for NULL
    /// or values of incomparable types.
    pub fn sql_order(&self, other: &Value) -> Option<Ordering> {
        match (self.as_f64(), other.as_f64()) {
            (Some(x), Some(y)) if x.is_nan() || y.is_nan() => Some(x.is_nan().cmp(&y.is_nan())),
            _ => self.sql_cmp(other),
        }
    }
}

/// Formats a float the way SQL shells conventionally do: integral floats
/// keep one decimal (`3.0`), others use the shortest round-trip form.
/// [`Value::render`] and the wire's text rows both write through it, so a
/// float renders to the same bytes on every path.
pub fn format_float(v: f64) -> impl fmt::Display {
    struct SqlFloat(f64);
    impl fmt::Display for SqlFloat {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let v = self.0;
            if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
                write!(f, "{v:.1}")
            } else {
                write!(f, "{v}")
            }
        }
    }
    SqlFloat(v)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            f.write_str("NULL")
        } else {
            f.write_str(&self.render())
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_name_round_trip() {
        for t in [
            DataType::Boolean,
            DataType::Int8,
            DataType::Int16,
            DataType::Int32,
            DataType::Int64,
            DataType::Float32,
            DataType::Float64,
            DataType::Varchar,
            DataType::Blob,
        ] {
            assert_eq!(DataType::from_sql_name(t.sql_name()), Some(t));
            assert_eq!(DataType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(DataType::from_sql_name("int"), Some(DataType::Int32));
        assert_eq!(DataType::from_sql_name("noSuchType"), None);
        assert_eq!(DataType::from_tag(200), None);
    }

    #[test]
    fn numeric_promotion() {
        use DataType::*;
        assert_eq!(DataType::common_numeric(Int8, Int64), Some(Int64));
        assert_eq!(DataType::common_numeric(Int32, Float32), Some(Float64));
        assert_eq!(DataType::common_numeric(Float32, Float32), Some(Float32));
        assert_eq!(DataType::common_numeric(Varchar, Int32), None);
        assert_eq!(DataType::common_numeric(Varchar, Varchar), Some(Varchar));
    }

    #[test]
    fn casts_widen_and_narrow() {
        assert_eq!(Value::Int32(7).cast(DataType::Int64).unwrap(), Value::Int64(7));
        assert_eq!(Value::Int64(300).cast(DataType::Int16).unwrap(), Value::Int16(300));
        assert!(Value::Int64(40_000).cast(DataType::Int16).is_err());
        assert_eq!(Value::Float64(3.9).cast(DataType::Int32).unwrap(), Value::Int32(3));
        assert_eq!(Value::Varchar(" 42 ".into()).cast(DataType::Int32).unwrap(), Value::Int32(42));
        assert_eq!(Value::Int32(5).cast(DataType::Varchar).unwrap(), Value::Varchar("5".into()));
        assert!(Value::Float64(f64::NAN).cast(DataType::Int64).is_err());
        assert_eq!(Value::Null.cast(DataType::Blob).unwrap(), Value::Null);
    }

    #[test]
    fn bool_casts() {
        assert_eq!(
            Value::Varchar("true".into()).cast(DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(Value::Int32(0).cast(DataType::Boolean).unwrap(), Value::Boolean(false));
        assert!(Value::Varchar("maybe".into()).cast(DataType::Boolean).is_err());
    }

    #[test]
    fn comparison_follows_sql_semantics() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int32(1)), None);
        assert_eq!(Value::Int32(1).sql_cmp(&Value::Int64(2)), Some(Ordering::Less));
        assert_eq!(Value::Float64(1.5).sql_cmp(&Value::Int32(1)), Some(Ordering::Greater));
        assert_eq!(
            Value::Varchar("a".into()).sql_cmp(&Value::Varchar("b".into())),
            Some(Ordering::Less)
        );
        // i64 values that lose precision at f64 still compare exactly.
        let big = (1i64 << 60) + 1;
        assert_eq!(Value::Int64(big).sql_cmp(&Value::Int64(big - 1)), Some(Ordering::Greater));
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Float64(3.0).render(), "3.0");
        assert_eq!(Value::Float64(3.25).render(), "3.25");
        assert_eq!(Value::Blob(vec![0xDE, 0xAD]).render(), "\\xdead");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
