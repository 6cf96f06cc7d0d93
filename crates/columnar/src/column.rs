//! Typed columns: the engine's bulk data representation.
//!
//! A [`Column`] is a contiguous typed vector plus an optional validity
//! bitmap. The common all-valid case carries no bitmap. Operators work on
//! whole columns at a time (MonetDB's operator-at-a-time model) through the
//! typed slice accessors ([`Column::i32s`] etc.), which is also exactly how
//! vectorized UDFs receive their inputs — as borrowed slices, zero-copy.
//!
//! ## Compressed representations
//!
//! A column may additionally carry a compressed representation
//! ([`Encoding`]): dictionary (`codes` into a vector of distinct values) or
//! run-length (`run_ends` over one stored value per run). Encodings are
//! transparent to the scalar accessors (`value`, `f64_at`, `i64_at`) which
//! resolve through [`Column::physical_index`]; the typed *slice* accessors
//! return `None` for encoded columns so vectorized fast paths either handle
//! the encoding explicitly or fall back after [`Column::decode`]. Encoding
//! covers the *raw physical* values only — NULL placeholder slots encode
//! like any other value and the validity bitmap stays logical-length — so
//! `encode` ∘ `decode` reproduces the original column bit for bit.

use crate::bitmap::Bitmap;
use crate::error::{DbError, DbResult};
use crate::strings::{BlobColumn, StringColumn};
use crate::types::{DataType, Value};
use std::borrow::Cow;
use std::fmt;

/// The typed payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Boolean values.
    Boolean(Vec<bool>),
    /// 8-bit integers.
    Int8(Vec<i8>),
    /// 16-bit integers.
    Int16(Vec<i16>),
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 32-bit floats.
    Float32(Vec<f32>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// UTF-8 strings.
    Varchar(StringColumn),
    /// Byte strings (pickled models live here).
    Blob(BlobColumn),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Boolean(v) => v.len(),
            ColumnData::Int8(v) => v.len(),
            ColumnData::Int16(v) => v.len(),
            ColumnData::Int32(v) => v.len(),
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float32(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Varchar(v) => v.len(),
            ColumnData::Blob(v) => v.len(),
        }
    }

    /// True when the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Boolean(_) => DataType::Boolean,
            ColumnData::Int8(_) => DataType::Int8,
            ColumnData::Int16(_) => DataType::Int16,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float32(_) => DataType::Float32,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Varchar(_) => DataType::Varchar,
            ColumnData::Blob(_) => DataType::Blob,
        }
    }

    /// An empty payload of the given type.
    pub fn empty(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Boolean => ColumnData::Boolean(Vec::new()),
            DataType::Int8 => ColumnData::Int8(Vec::new()),
            DataType::Int16 => ColumnData::Int16(Vec::new()),
            DataType::Int32 => ColumnData::Int32(Vec::new()),
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float32 => ColumnData::Float32(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Varchar => ColumnData::Varchar(StringColumn::new()),
            DataType::Blob => ColumnData::Blob(BlobColumn::new()),
        }
    }
}

/// Gathers `data[indices[k]]` into a new payload of the same type.
pub(crate) fn take_data(data: &ColumnData, indices: &[u32]) -> ColumnData {
    match data {
        ColumnData::Boolean(v) => {
            ColumnData::Boolean(indices.iter().map(|&i| v[i as usize]).collect())
        }
        ColumnData::Int8(v) => ColumnData::Int8(indices.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Int16(v) => ColumnData::Int16(indices.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Int32(v) => ColumnData::Int32(indices.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Int64(v) => ColumnData::Int64(indices.iter().map(|&i| v[i as usize]).collect()),
        ColumnData::Float32(v) => {
            ColumnData::Float32(indices.iter().map(|&i| v[i as usize]).collect())
        }
        ColumnData::Float64(v) => {
            ColumnData::Float64(indices.iter().map(|&i| v[i as usize]).collect())
        }
        ColumnData::Varchar(v) => ColumnData::Varchar(v.take(indices)),
        ColumnData::Blob(v) => ColumnData::Blob(v.take(indices)),
    }
}

/// Physical representation of a column's payload.
///
/// `Plain` stores one value per row. `Dict` stores each distinct value once
/// plus a per-row code. `Rle` stores one value per run plus the exclusive
/// end offset of each run. See the module docs for the accessor contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One value per row (the default).
    Plain,
    /// Distinct values plus per-row codes.
    Dict,
    /// Run values plus exclusive run ends.
    Rle,
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Encoding::Plain => "plain",
            Encoding::Dict => "dict",
            Encoding::Rle => "rle",
        })
    }
}

/// Private per-column representation state. For `Dict`, `data` holds the
/// dictionary of distinct values and `codes[i]` indexes it; for `Rle`,
/// `data` holds one value per run and `run_ends[r]` is the exclusive
/// logical end of run `r` (strictly increasing; the last entry is the
/// logical length).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Repr {
    Plain,
    Dict { codes: Vec<u32> },
    Rle { run_ends: Vec<u32> },
}

/// A column: typed data plus optional validity bitmap.
///
/// Invariant: if a validity bitmap is present it has exactly `len()` bits
/// (the *logical* length, regardless of encoding). NULL slots still hold a
/// placeholder value in the data vector (zero / empty string) so the typed
/// slices are always fully populated.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    validity: Option<Bitmap>,
    repr: Repr,
}

impl PartialEq for Column {
    /// Logical equality: the same type, length and NULL rows, and equal
    /// values at every valid row, whatever the encodings. A NULL slot's
    /// placeholder is not part of the value: a dictionary's NULL row points
    /// at some entry, a plain one holds zero, and both are the same NULL.
    /// Code that needs the physical payload bit for bit (the encoding
    /// oracles, the placeholder checks below) compares [`Column::data`].
    fn eq(&self, other: &Self) -> bool {
        if self.data_type() != other.data_type() || self.len() != other.len() {
            return false;
        }
        fn nulls(c: &Column) -> Option<&Bitmap> {
            c.validity.as_ref().filter(|bm| !bm.all_set())
        }
        let valid = match (nulls(self), nulls(other)) {
            (None, None) => None,
            (Some(a), Some(b)) if a == b => Some(a),
            _ => return false,
        };
        let (a, b) = (self.decoded(), other.decoded());
        match valid {
            None => a.data == b.data,
            Some(valid) => valid_slots_equal(&a.data, &b.data, valid),
        }
    }
}

/// True when two plain payloads of one type agree at every set bit of
/// `valid`.
fn valid_slots_equal(a: &ColumnData, b: &ColumnData, valid: &Bitmap) -> bool {
    fn each(valid: &Bitmap, eq: impl Fn(usize) -> bool) -> bool {
        valid.iter().enumerate().all(|(i, v)| !v || eq(i))
    }
    use ColumnData as D;
    match (a, b) {
        (D::Boolean(x), D::Boolean(y)) => each(valid, |i| x[i] == y[i]),
        (D::Int8(x), D::Int8(y)) => each(valid, |i| x[i] == y[i]),
        (D::Int16(x), D::Int16(y)) => each(valid, |i| x[i] == y[i]),
        (D::Int32(x), D::Int32(y)) => each(valid, |i| x[i] == y[i]),
        (D::Int64(x), D::Int64(y)) => each(valid, |i| x[i] == y[i]),
        (D::Float32(x), D::Float32(y)) => each(valid, |i| x[i] == y[i]),
        (D::Float64(x), D::Float64(y)) => each(valid, |i| x[i] == y[i]),
        (D::Varchar(x), D::Varchar(y)) => each(valid, |i| x.get_bytes(i) == y.get_bytes(i)),
        (D::Blob(x), D::Blob(y)) => each(valid, |i| x.get(i) == y.get(i)),
        _ => false,
    }
}

macro_rules! from_native {
    ($fn_name:ident, $opt_fn:ident, $native:ty, $variant:ident, $default:expr) => {
        /// Builds an all-valid column from native values.
        pub fn $fn_name(values: Vec<$native>) -> Column {
            Column { data: ColumnData::$variant(values.into()), validity: None, repr: Repr::Plain }
        }

        /// Builds a nullable column from optional native values.
        pub fn $opt_fn(values: Vec<Option<$native>>) -> Column {
            let mut validity = Bitmap::new();
            let mut data = Vec::with_capacity(values.len());
            let mut any_null = false;
            for v in values {
                match v {
                    Some(x) => {
                        validity.push(true);
                        data.push(x);
                    }
                    None => {
                        any_null = true;
                        validity.push(false);
                        data.push($default);
                    }
                }
            }
            Column {
                data: ColumnData::$variant(data.into()),
                validity: if any_null { Some(validity) } else { None },
                repr: Repr::Plain,
            }
        }
    };
}

macro_rules! slice_accessor {
    ($name:ident, $native:ty, $variant:ident) => {
        /// Borrowed typed slice, or `None` if the column has another type
        /// or a non-plain encoding (decode first, or handle the encoding).
        pub fn $name(&self) -> Option<&[$native]> {
            if self.repr != Repr::Plain {
                return None;
            }
            match &self.data {
                ColumnData::$variant(v) => Some(v),
                _ => None,
            }
        }
    };
}

impl Column {
    /// Wraps raw parts into a plain column, checking the bitmap length
    /// invariant.
    pub fn new(data: ColumnData, validity: Option<Bitmap>) -> DbResult<Column> {
        if let Some(bm) = &validity {
            if bm.len() != data.len() {
                return Err(DbError::Shape(format!(
                    "validity bitmap has {} bits but column has {} rows",
                    bm.len(),
                    data.len()
                )));
            }
            if bm.all_set() {
                return Ok(Column { data, validity: None, repr: Repr::Plain });
            }
        }
        Ok(Column { data, validity, repr: Repr::Plain })
    }

    /// Internal constructor: normalizes an all-set bitmap away, trusting
    /// the caller on lengths (which are correct by construction at every
    /// call site — gathers and slices preserve shape).
    pub(crate) fn with_repr(data: ColumnData, validity: Option<Bitmap>, repr: Repr) -> Column {
        let validity = validity.filter(|bm| !bm.all_set());
        Column { data, validity, repr }
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Column {
        Column { data: ColumnData::empty(dtype), validity: None, repr: Repr::Plain }
    }

    /// A column of `len` NULLs of the given type.
    pub fn nulls(dtype: DataType, len: usize) -> Column {
        let mut data = ColumnData::empty(dtype);
        match &mut data {
            ColumnData::Boolean(v) => v.resize(len, false),
            ColumnData::Int8(v) => v.resize(len, 0),
            ColumnData::Int16(v) => v.resize(len, 0),
            ColumnData::Int32(v) => v.resize(len, 0),
            ColumnData::Int64(v) => v.resize(len, 0),
            ColumnData::Float32(v) => v.resize(len, 0.0),
            ColumnData::Float64(v) => v.resize(len, 0.0),
            ColumnData::Varchar(v) => {
                for _ in 0..len {
                    v.push("");
                }
            }
            ColumnData::Blob(v) => {
                for _ in 0..len {
                    v.push(&[]);
                }
            }
        }
        Column { data, validity: Some(Bitmap::filled(len, false)), repr: Repr::Plain }
    }

    from_native!(from_bools, from_opt_bools, bool, Boolean, false);
    from_native!(from_i8s, from_opt_i8s, i8, Int8, 0);
    from_native!(from_i16s, from_opt_i16s, i16, Int16, 0);
    from_native!(from_i32s, from_opt_i32s, i32, Int32, 0);
    from_native!(from_i64s, from_opt_i64s, i64, Int64, 0);
    from_native!(from_f32s, from_opt_f32s, f32, Float32, 0.0);
    from_native!(from_f64s, from_opt_f64s, f64, Float64, 0.0);

    /// Builds an all-valid VARCHAR column.
    pub fn from_strings<'a>(values: impl IntoIterator<Item = &'a str>) -> Column {
        Column {
            data: ColumnData::Varchar(StringColumn::from_strs(values)),
            validity: None,
            repr: Repr::Plain,
        }
    }

    /// Builds an all-valid BLOB column.
    pub fn from_blobs<'a>(values: impl IntoIterator<Item = &'a [u8]>) -> Column {
        Column {
            data: ColumnData::Blob(BlobColumn::from_slices(values)),
            validity: None,
            repr: Repr::Plain,
        }
    }

    /// Builds a column of type `dtype` from scalar [`Value`]s, casting each
    /// value to `dtype` (so integer literals fill FLOAT columns, etc.).
    pub fn from_values(dtype: DataType, values: &[Value]) -> DbResult<Column> {
        let mut b = ColumnBuilder::new(dtype);
        for v in values {
            b.push_value(v)?;
        }
        Ok(b.finish())
    }

    /// Number of (logical) rows.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Plain => self.data.len(),
            Repr::Dict { codes } => codes.len(),
            Repr::Rle { run_ends } => run_ends.last().map_or(0, |&e| e as usize),
        }
    }

    /// True when the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// The *physical* payload: per-row values for plain columns, the
    /// dictionary for dict columns, per-run values for RLE columns. Callers
    /// indexing rows directly must hold a plain column (see the typed slice
    /// accessors) or resolve through [`Column::physical_index`].
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The column's physical representation.
    pub fn encoding(&self) -> Encoding {
        match &self.repr {
            Repr::Plain => Encoding::Plain,
            Repr::Dict { .. } => Encoding::Dict,
            Repr::Rle { .. } => Encoding::Rle,
        }
    }

    /// True when one physical value is stored per row.
    pub fn is_plain(&self) -> bool {
        self.repr == Repr::Plain
    }

    /// Maps a logical row to its physical index in [`Column::data`].
    #[inline]
    pub fn physical_index(&self, i: usize) -> usize {
        match &self.repr {
            Repr::Plain => i,
            Repr::Dict { codes } => codes[i] as usize,
            Repr::Rle { run_ends } => run_ends.partition_point(|&e| e as usize <= i),
        }
    }

    /// Dictionary codes and values, if dict-encoded.
    pub(crate) fn dict_parts(&self) -> Option<(&[u32], &ColumnData)> {
        match &self.repr {
            Repr::Dict { codes } => Some((codes, &self.data)),
            _ => None,
        }
    }

    /// Run ends and per-run values, if RLE-encoded.
    pub(crate) fn rle_parts(&self) -> Option<(&[u32], &ColumnData)> {
        match &self.repr {
            Repr::Rle { run_ends } => Some((run_ends, &self.data)),
            _ => None,
        }
    }

    /// Where rows `start..end` live in [`Column::data`], for a reader that
    /// walks a row range of any encoding with one typed loop: `None` when
    /// the column is plain (row `i` is physical value `i`), the range's
    /// codes for a dictionary, and for RLE each row's run, expanded into
    /// `scratch`.
    pub fn physical_rows<'a>(
        &'a self,
        start: usize,
        end: usize,
        scratch: &'a mut Vec<u32>,
    ) -> Option<&'a [u32]> {
        match &self.repr {
            Repr::Plain => None,
            Repr::Dict { codes } => Some(&codes[start..end]),
            Repr::Rle { run_ends } => {
                scratch.clear();
                let mut run = run_ends.partition_point(|&e| e as usize <= start);
                let mut row = start;
                while row < end {
                    let run_end = (run_ends[run] as usize).min(end);
                    scratch.extend(std::iter::repeat_n(run as u32, run_end - row));
                    row = run_end;
                    run += 1;
                }
                Some(scratch)
            }
        }
    }

    /// Materializes a plain copy (identity clone when already plain). The
    /// raw data — including NULL placeholder slots — round-trips exactly.
    pub fn decode(&self) -> Column {
        match &self.repr {
            Repr::Plain => self.clone(),
            Repr::Dict { codes } => Column {
                data: take_data(&self.data, codes),
                validity: self.validity.clone(),
                repr: Repr::Plain,
            },
            Repr::Rle { run_ends } => {
                let mut phys: Vec<u32> = Vec::with_capacity(self.len());
                let mut start = 0u32;
                for (run, &end) in run_ends.iter().enumerate() {
                    for _ in start..end {
                        phys.push(run as u32);
                    }
                    start = end;
                }
                Column {
                    data: take_data(&self.data, &phys),
                    validity: self.validity.clone(),
                    repr: Repr::Plain,
                }
            }
        }
    }

    /// Borrows plain columns, decodes encoded ones.
    pub fn decoded(&self) -> Cow<'_, Column> {
        if self.is_plain() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.decode())
        }
    }

    /// Re-encodes into the requested representation (decoding first if
    /// already encoded). Unconditional: ignores the auto-selection
    /// heuristic, so callers can force a dictionary on all-distinct data.
    pub fn encode(&self, enc: Encoding) -> Column {
        crate::encoding::encode(self, enc)
    }

    /// Validates the encoding invariants: dict codes in range, run ends
    /// strictly increasing, validity bitmap logical-length. Plain columns
    /// always pass. Used by the plan verifier and tests.
    pub fn check_encoding(&self) -> DbResult<()> {
        if let Some(bm) = &self.validity {
            if bm.len() != self.len() {
                return Err(DbError::internal(format!(
                    "validity bitmap has {} bits but column has {} logical rows",
                    bm.len(),
                    self.len()
                )));
            }
        }
        match &self.repr {
            Repr::Plain => Ok(()),
            Repr::Dict { codes } => {
                let nd = self.data.len();
                for &c in codes {
                    if c as usize >= nd {
                        return Err(DbError::internal(format!(
                            "dict code {c} out of range for dictionary of {nd}"
                        )));
                    }
                }
                Ok(())
            }
            Repr::Rle { run_ends } => {
                if run_ends.len() != self.data.len() {
                    return Err(DbError::internal(format!(
                        "{} run ends for {} run values",
                        run_ends.len(),
                        self.data.len()
                    )));
                }
                let mut prev = 0u32;
                for (r, &end) in run_ends.iter().enumerate() {
                    if end <= prev {
                        return Err(DbError::internal(format!(
                            "run {r} ends at {end}, not after {prev}"
                        )));
                    }
                    prev = end;
                }
                Ok(())
            }
        }
    }

    /// The validity bitmap, if any rows are NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.validity {
            Some(bm) => !bm.get(i),
            None => false,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, Bitmap::count_zeros)
    }

    slice_accessor!(bools, bool, Boolean);
    slice_accessor!(i8s, i8, Int8);
    slice_accessor!(i16s, i16, Int16);
    slice_accessor!(i32s, i32, Int32);
    slice_accessor!(i64s, i64, Int64);
    slice_accessor!(f32s, f32, Float32);
    slice_accessor!(f64s, f64, Float64);

    /// The string payload, if this is a plain VARCHAR column.
    pub fn strings(&self) -> Option<&StringColumn> {
        if self.repr != Repr::Plain {
            return None;
        }
        match &self.data {
            ColumnData::Varchar(v) => Some(v),
            _ => None,
        }
    }

    /// The blob payload, if this is a plain BLOB column.
    pub fn blobs(&self) -> Option<&BlobColumn> {
        if self.repr != Repr::Plain {
            return None;
        }
        match &self.data {
            ColumnData::Blob(v) => Some(v),
            _ => None,
        }
    }

    /// Extracts row `i` as a scalar [`Value`] (slow path; result printing,
    /// row-protocol serialization and tests only).
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        let p = self.physical_index(i);
        match &self.data {
            ColumnData::Boolean(v) => Value::Boolean(v[p]),
            ColumnData::Int8(v) => Value::Int8(v[p]),
            ColumnData::Int16(v) => Value::Int16(v[p]),
            ColumnData::Int32(v) => Value::Int32(v[p]),
            ColumnData::Int64(v) => Value::Int64(v[p]),
            ColumnData::Float32(v) => Value::Float32(v[p]),
            ColumnData::Float64(v) => Value::Float64(v[p]),
            ColumnData::Varchar(v) => Value::Varchar(v.get(p).to_owned()),
            ColumnData::Blob(v) => Value::Blob(v.get(p).to_vec()),
        }
    }

    /// Row `i` as f64, if numeric/boolean and non-NULL.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        let p = self.physical_index(i);
        Some(match &self.data {
            ColumnData::Boolean(v) => v[p] as u8 as f64,
            ColumnData::Int8(v) => v[p] as f64,
            ColumnData::Int16(v) => v[p] as f64,
            ColumnData::Int32(v) => v[p] as f64,
            ColumnData::Int64(v) => v[p] as f64,
            ColumnData::Float32(v) => v[p] as f64,
            ColumnData::Float64(v) => v[p],
            _ => return None,
        })
    }

    /// Row `i` as i64, if integer/boolean and non-NULL.
    #[inline]
    pub fn i64_at(&self, i: usize) -> Option<i64> {
        if self.is_null(i) {
            return None;
        }
        let p = self.physical_index(i);
        Some(match &self.data {
            ColumnData::Boolean(v) => v[p] as i64,
            ColumnData::Int8(v) => v[p] as i64,
            ColumnData::Int16(v) => v[p] as i64,
            ColumnData::Int32(v) => v[p] as i64,
            ColumnData::Int64(v) => v[p],
            _ => return None,
        })
    }

    /// Materializes the whole numeric column as `f64`s; NULLs become NaN.
    /// This is the bridge into the ML library, which trains on f64 matrices.
    pub fn to_f64_vec(&self) -> DbResult<Vec<f64>> {
        if !self.is_plain() {
            return self.decode().to_f64_vec();
        }
        let n = self.len();
        let mut out: Vec<f64> = Vec::with_capacity(n);
        match &self.data {
            ColumnData::Boolean(v) => out.extend(v.iter().map(|&b| b as u8 as f64)),
            ColumnData::Int8(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Int16(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Int32(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Int64(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Float32(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::Float64(v) => out.extend_from_slice(v),
            other => {
                return Err(DbError::Type(format!(
                    "cannot view {} column as f64",
                    other.data_type()
                )))
            }
        }
        if let Some(bm) = &self.validity {
            for (i, valid) in bm.iter().enumerate() {
                if !valid {
                    out[i] = f64::NAN;
                }
            }
        }
        Ok(out)
    }

    /// Gathers rows by index into a new column (`out[k] = self[indices[k]]`).
    ///
    /// Dict columns stay dict (codes are gathered, the dictionary is
    /// shared-by-copy) — the late-materialization fast path. RLE columns
    /// materialize plain, since an arbitrary gather destroys runs.
    pub fn take(&self, indices: &[u32]) -> Column {
        let validity = self.validity.as_ref().map(|bm| bm.take(indices));
        match &self.repr {
            Repr::Plain => Column::with_repr(take_data(&self.data, indices), validity, Repr::Plain),
            Repr::Dict { codes } => {
                let gathered: Vec<u32> = indices.iter().map(|&i| codes[i as usize]).collect();
                Column::with_repr(self.data.clone(), validity, Repr::Dict { codes: gathered })
            }
            Repr::Rle { .. } => {
                let phys: Vec<u32> =
                    indices.iter().map(|&i| self.physical_index(i as usize) as u32).collect();
                Column::with_repr(take_data(&self.data, &phys), validity, Repr::Plain)
            }
        }
    }

    /// Gathers rows by optional index: `None` produces a NULL row. Used by
    /// outer joins to pad the unmatched side. A typed gather like
    /// [`Column::take`]: dict columns stay dict (a padded row points at code
    /// 0 under its NULL), RLE columns materialize plain, and a plain padded
    /// row holds the zero placeholder.
    pub fn take_opt(&self, indices: &[Option<u32>]) -> Column {
        if self.is_empty() && !indices.is_empty() {
            // Every index is `None`: there is no row to point at.
            return Column::nulls(self.data_type(), indices.len());
        }
        let mut validity = Bitmap::filled(indices.len(), true);
        for (k, idx) in indices.iter().enumerate() {
            if idx.is_none_or(|i| self.is_null(i as usize)) {
                validity.set(k, false);
            }
        }
        match &self.repr {
            Repr::Plain => {
                Column::with_repr(take_data_opt(&self.data, indices), Some(validity), Repr::Plain)
            }
            Repr::Dict { codes } => {
                let gathered = indices.iter().map(|i| i.map_or(0, |i| codes[i as usize])).collect();
                Column::with_repr(self.data.clone(), Some(validity), Repr::Dict { codes: gathered })
            }
            Repr::Rle { .. } => {
                let phys: Vec<Option<u32>> = indices
                    .iter()
                    .map(|i| i.map(|i| self.physical_index(i as usize) as u32))
                    .collect();
                Column::with_repr(take_data_opt(&self.data, &phys), Some(validity), Repr::Plain)
            }
        }
    }

    /// Expands a length-1 constant column to `n` identical rows; returns a
    /// clone when the column is already `n` long.
    pub fn broadcast_to(&self, n: usize) -> DbResult<Column> {
        if self.len() == n {
            return Ok(self.clone());
        }
        if self.len() != 1 {
            return Err(DbError::Shape(format!(
                "cannot broadcast column of {} rows to {n}",
                self.len()
            )));
        }
        let indices = vec![0u32; n];
        Ok(self.take(&indices))
    }

    /// Copies rows `offset..offset+len` into a new column. Encodings are
    /// preserved (runs are clipped, codes are sliced) so morsel slices of
    /// encoded columns stay encoded.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        let validity = self.validity.as_ref().map(|bm| bm.slice(offset, len));
        match &self.repr {
            Repr::Plain => {
                let data = match &self.data {
                    ColumnData::Boolean(v) => ColumnData::Boolean(v[offset..offset + len].to_vec()),
                    ColumnData::Int8(v) => ColumnData::Int8(v[offset..offset + len].to_vec()),
                    ColumnData::Int16(v) => ColumnData::Int16(v[offset..offset + len].to_vec()),
                    ColumnData::Int32(v) => ColumnData::Int32(v[offset..offset + len].to_vec()),
                    ColumnData::Int64(v) => ColumnData::Int64(v[offset..offset + len].to_vec()),
                    ColumnData::Float32(v) => ColumnData::Float32(v[offset..offset + len].to_vec()),
                    ColumnData::Float64(v) => ColumnData::Float64(v[offset..offset + len].to_vec()),
                    ColumnData::Varchar(v) => ColumnData::Varchar(v.slice(offset, len)),
                    ColumnData::Blob(v) => ColumnData::Blob(v.slice(offset, len)),
                };
                Column::with_repr(data, validity, Repr::Plain)
            }
            Repr::Dict { codes } => Column::with_repr(
                self.data.clone(),
                validity,
                Repr::Dict { codes: codes[offset..offset + len].to_vec() },
            ),
            Repr::Rle { run_ends } => {
                if len == 0 {
                    return Column::empty(self.data_type());
                }
                let first = run_ends.partition_point(|&e| e as usize <= offset);
                let mut new_ends: Vec<u32> = Vec::new();
                let mut phys: Vec<u32> = Vec::new();
                let mut run = first;
                while run < run_ends.len() {
                    let end = run_ends[run] as usize;
                    new_ends.push((end.min(offset + len) - offset) as u32);
                    phys.push(run as u32);
                    if end >= offset + len {
                        break;
                    }
                    run += 1;
                }
                Column::with_repr(
                    take_data(&self.data, &phys),
                    validity,
                    Repr::Rle { run_ends: new_ends },
                )
            }
        }
    }

    /// Appends all rows of `other`, which must have the same data type.
    /// Either side being encoded decodes first; tables re-encode on their
    /// own growth schedule.
    pub fn extend(&mut self, other: &Column) -> DbResult<()> {
        if self.data_type() != other.data_type() {
            return Err(DbError::Type(format!(
                "cannot append {} rows to {} column",
                other.data_type(),
                self.data_type()
            )));
        }
        if !self.is_plain() {
            *self = self.decode();
        }
        let other = other.decoded();
        let other: &Column = &other;
        // Materialize a bitmap on either side having NULLs.
        if self.validity.is_none() && other.validity.is_some() {
            self.validity = Some(Bitmap::filled(self.len(), true));
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Boolean(a), ColumnData::Boolean(b)) => a.extend_from_slice(b),
            (ColumnData::Int8(a), ColumnData::Int8(b)) => a.extend_from_slice(b),
            (ColumnData::Int16(a), ColumnData::Int16(b)) => a.extend_from_slice(b),
            (ColumnData::Int32(a), ColumnData::Int32(b)) => a.extend_from_slice(b),
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
            (ColumnData::Float32(a), ColumnData::Float32(b)) => a.extend_from_slice(b),
            (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
            (ColumnData::Varchar(a), ColumnData::Varchar(b)) => a.extend(b),
            (ColumnData::Blob(a), ColumnData::Blob(b)) => a.extend(b),
            _ => unreachable!("type equality checked above"),
        }
        if let Some(bm) = &mut self.validity {
            match &other.validity {
                Some(ob) => bm.extend(ob),
                None => bm.extend_fill(other.len(), true),
            }
        }
        Ok(())
    }

    /// Vectorized cast of the whole column to `target`.
    pub fn cast(&self, target: DataType) -> DbResult<Column> {
        if self.data_type() == target {
            return Ok(self.clone());
        }
        if let Some(widened) = self.widen(target) {
            return Ok(widened);
        }
        // Everything else goes through scalar casts.
        let n = self.len();
        let mut b = ColumnBuilder::new(target);
        for i in 0..n {
            b.push_value(&self.value(i))?;
        }
        Ok(b.finish())
    }

    /// The exact numeric casts as typed loops: an integer to a wider
    /// integer, an integer or FLOAT to DOUBLE. NULL slots hold the zero
    /// placeholder, as the scalar path leaves them. `None` for any other
    /// cast.
    fn widen(&self, target: DataType) -> Option<Column> {
        fn each<S: Copy, T: Copy + Default>(
            v: &[S],
            validity: Option<&Bitmap>,
            f: impl Fn(S) -> T,
        ) -> Vec<T> {
            match validity {
                None => v.iter().map(|&x| f(x)).collect(),
                Some(bm) => v
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| if bm.get(i) { f(x) } else { T::default() })
                    .collect(),
            }
        }
        use ColumnData as D;
        use DataType as T;
        let c = self.decoded();
        let bm = c.validity();
        let data = match (&c.data, target) {
            (D::Int8(v), T::Int16) => D::Int16(each(v, bm, i16::from)),
            (D::Int8(v), T::Int32) => D::Int32(each(v, bm, i32::from)),
            (D::Int8(v), T::Int64) => D::Int64(each(v, bm, i64::from)),
            (D::Int16(v), T::Int32) => D::Int32(each(v, bm, i32::from)),
            (D::Int16(v), T::Int64) => D::Int64(each(v, bm, i64::from)),
            (D::Int32(v), T::Int64) => D::Int64(each(v, bm, i64::from)),
            (D::Int8(v), T::Float64) => D::Float64(each(v, bm, f64::from)),
            (D::Int16(v), T::Float64) => D::Float64(each(v, bm, f64::from)),
            (D::Int32(v), T::Float64) => D::Float64(each(v, bm, f64::from)),
            (D::Int64(v), T::Float64) => D::Float64(each(v, bm, |x| x as f64)),
            (D::Float32(v), T::Float64) => D::Float64(each(v, bm, f64::from)),
            _ => return None,
        };
        Some(Column::with_repr(data, bm.cloned(), Repr::Plain))
    }
}

/// Gathers `data[indices[k]]`, or the type's zero placeholder where the
/// index is `None`.
fn take_data_opt(data: &ColumnData, indices: &[Option<u32>]) -> ColumnData {
    fn gather<T: Copy + Default>(v: &[T], indices: &[Option<u32>]) -> Vec<T> {
        indices.iter().map(|i| i.map_or(T::default(), |i| v[i as usize])).collect()
    }
    match data {
        ColumnData::Boolean(v) => ColumnData::Boolean(gather(v, indices)),
        ColumnData::Int8(v) => ColumnData::Int8(gather(v, indices)),
        ColumnData::Int16(v) => ColumnData::Int16(gather(v, indices)),
        ColumnData::Int32(v) => ColumnData::Int32(gather(v, indices)),
        ColumnData::Int64(v) => ColumnData::Int64(gather(v, indices)),
        ColumnData::Float32(v) => ColumnData::Float32(gather(v, indices)),
        ColumnData::Float64(v) => ColumnData::Float64(gather(v, indices)),
        ColumnData::Varchar(v) => ColumnData::Varchar(StringColumn::from_strs(
            indices.iter().map(|i| i.map_or("", |i| v.get(i as usize))),
        )),
        ColumnData::Blob(v) => ColumnData::Blob(BlobColumn::from_slices(
            indices.iter().map(|i| i.map_or(&[][..], |i| v.get(i as usize))),
        )),
    }
}

/// A fixed-width native type a [`ColumnBuilder`] appends without a
/// [`Value`]: `bool`, the integers and the floats.
pub trait Native: Copy + sealed::Sealed {
    /// The column type that stores it.
    const DTYPE: DataType;
    /// The payload's typed vector, when `data` stores this type.
    #[doc(hidden)]
    fn values(data: &mut ColumnData) -> Option<&mut Vec<Self>>;
}

mod sealed {
    pub trait Sealed {}
}

macro_rules! native {
    ($t:ty, $variant:ident) => {
        impl sealed::Sealed for $t {}
        impl Native for $t {
            const DTYPE: DataType = DataType::$variant;
            #[inline]
            fn values(data: &mut ColumnData) -> Option<&mut Vec<$t>> {
                match data {
                    ColumnData::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

native!(bool, Boolean);
native!(i8, Int8);
native!(i16, Int16);
native!(i32, Int32);
native!(i64, Int64);
native!(f32, Float32);
native!(f64, Float64);

/// Incremental column builder targeting a fixed data type: the one builder
/// behind `INSERT`, result assembly, the CSV reader and both wire decoders.
///
/// The typed appends ([`ColumnBuilder::push`], [`ColumnBuilder::push_str`],
/// [`ColumnBuilder::push_bytes`]) write straight into the typed payload;
/// they are what a decoder that already knows each column's type calls,
/// one cell at a time, with no [`Value`] in between.
/// [`ColumnBuilder::push_value`] casts a scalar first, for literals and the
/// row cursor. The validity bitmap is created at the first NULL, so an
/// all-valid column never pays for it.
#[derive(Debug)]
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Option<Bitmap>,
}

impl ColumnBuilder {
    /// A builder producing a column of type `dtype`.
    pub fn new(dtype: DataType) -> Self {
        ColumnBuilder { data: ColumnData::empty(dtype), validity: None }
    }

    /// Target data type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a NULL.
    pub fn push_null(&mut self) {
        let len = self.data.len();
        self.validity.get_or_insert_with(|| Bitmap::filled(len, true)).push(false);
        match &mut self.data {
            ColumnData::Boolean(v) => v.push(false),
            ColumnData::Int8(v) => v.push(0),
            ColumnData::Int16(v) => v.push(0),
            ColumnData::Int32(v) => v.push(0),
            ColumnData::Int64(v) => v.push(0),
            ColumnData::Float32(v) => v.push(0.0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Varchar(v) => v.push(""),
            ColumnData::Blob(v) => v.push(&[]),
        }
    }

    /// Marks the row just appended valid.
    #[inline]
    fn push_valid(&mut self) {
        if let Some(bm) = &mut self.validity {
            bm.push(true);
        }
    }

    fn mismatch(&self, what: DataType) -> DbError {
        DbError::Type(format!("cannot append a {what} value to a {} column", self.data_type()))
    }

    /// Appends a native value of exactly the builder's type.
    #[inline]
    pub fn push<T: Native>(&mut self, value: T) -> DbResult<()> {
        match T::values(&mut self.data) {
            Some(v) => v.push(value),
            None => return Err(self.mismatch(T::DTYPE)),
        }
        self.push_valid();
        Ok(())
    }

    /// Appends a string to a VARCHAR builder.
    pub fn push_str(&mut self, value: &str) -> DbResult<()> {
        match &mut self.data {
            ColumnData::Varchar(v) => v.push(value),
            _ => return Err(self.mismatch(DataType::Varchar)),
        }
        self.push_valid();
        Ok(())
    }

    /// Appends a byte string to a BLOB builder.
    pub fn push_bytes(&mut self, value: &[u8]) -> DbResult<()> {
        match &mut self.data {
            ColumnData::Blob(v) => v.push(value),
            _ => return Err(self.mismatch(DataType::Blob)),
        }
        self.push_valid();
        Ok(())
    }

    /// Appends a value, casting it to the builder's type as needed.
    pub fn push_value(&mut self, value: &Value) -> DbResult<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        let cast;
        let v = if value.data_type() == Some(self.data_type()) {
            value
        } else {
            cast = value.cast(self.data_type())?;
            &cast
        };
        match v {
            Value::Boolean(x) => self.push(*x),
            Value::Int8(x) => self.push(*x),
            Value::Int16(x) => self.push(*x),
            Value::Int32(x) => self.push(*x),
            Value::Int64(x) => self.push(*x),
            Value::Float32(x) => self.push(*x),
            Value::Float64(x) => self.push(*x),
            Value::Varchar(x) => self.push_str(x),
            Value::Blob(x) => self.push_bytes(x),
            Value::Null => unreachable!("NULL handled above"),
        }
    }

    /// Finishes the column.
    pub fn finish(self) -> Column {
        Column { data: self.data, validity: self.validity, repr: Repr::Plain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let c = Column::from_i32s(vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.data_type(), DataType::Int32);
        assert_eq!(c.i32s().unwrap(), &[1, 2, 3]);
        assert_eq!(c.null_count(), 0);
        assert_eq!(c.value(1), Value::Int32(2));
        assert!(c.i64s().is_none());
    }

    #[test]
    fn nullable_build() {
        let c = Column::from_opt_i64s(vec![Some(5), None, Some(7)]);
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null(1));
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int64(7));
        // All-Some input carries no bitmap.
        let c = Column::from_opt_i64s(vec![Some(1), Some(2)]);
        assert!(c.validity().is_none());
    }

    #[test]
    fn new_normalizes_all_valid_bitmap() {
        let c = Column::new(ColumnData::Int32(vec![1, 2]), Some(Bitmap::filled(2, true))).unwrap();
        assert!(c.validity().is_none());
        let err = Column::new(ColumnData::Int32(vec![1, 2]), Some(Bitmap::filled(3, true)));
        assert!(err.is_err());
    }

    #[test]
    fn nulls_column() {
        let c = Column::nulls(DataType::Varchar, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 4);
        assert_eq!(c.value(0), Value::Null);
    }

    #[test]
    fn take_gathers_with_nulls() {
        let c = Column::from_opt_f64s(vec![Some(1.0), None, Some(3.0)]);
        let t = c.take(&[2, 1, 0, 2]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.value(0), Value::Float64(3.0));
        assert_eq!(t.value(1), Value::Null);
        assert_eq!(t.value(3), Value::Float64(3.0));
    }

    #[test]
    fn slice_copies_range() {
        let c = Column::from_strings(["a", "b", "c", "d"]);
        let s = c.slice(1, 2);
        assert_eq!(s.strings().unwrap().iter().collect::<Vec<_>>(), vec!["b", "c"]);
    }

    #[test]
    fn extend_merges_validity() {
        let mut a = Column::from_i32s(vec![1, 2]);
        let b = Column::from_opt_i32s(vec![None, Some(4)]);
        a.extend(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert!(!a.is_null(0));
        assert!(a.is_null(2));
        assert_eq!(a.value(3), Value::Int32(4));
        // Type mismatch rejected.
        let c = Column::from_f64s(vec![1.0]);
        assert!(a.extend(&c).is_err());
    }

    #[test]
    fn cast_column() {
        let c = Column::from_i32s(vec![1, 2, 3]);
        let f = c.cast(DataType::Float64).unwrap();
        assert_eq!(f.f64s().unwrap(), &[1.0, 2.0, 3.0]);
        let s = c.cast(DataType::Varchar).unwrap();
        assert_eq!(s.strings().unwrap().get(2), "3");
        // Overflow fails loudly.
        let big = Column::from_i64s(vec![1 << 40]);
        assert!(big.cast(DataType::Int16).is_err());
        // NULLs survive casts.
        let n = Column::from_opt_i32s(vec![Some(1), None]).cast(DataType::Int64).unwrap();
        assert!(n.is_null(1));
    }

    #[test]
    fn to_f64_vec_marks_nulls_as_nan() {
        let c = Column::from_opt_i32s(vec![Some(1), None, Some(3)]);
        let v = c.to_f64_vec().unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
        assert_eq!(v[2], 3.0);
        assert!(Column::from_strings(["x"]).to_f64_vec().is_err());
    }

    #[test]
    fn builder_casts_values() {
        let mut b = ColumnBuilder::new(DataType::Float32);
        b.push_value(&Value::Int32(2)).unwrap();
        b.push_null();
        b.push_value(&Value::Float64(1.5)).unwrap();
        let c = b.finish();
        assert_eq!(c.data_type(), DataType::Float32);
        assert_eq!(c.f32s().unwrap()[2], 1.5);
        assert!(c.is_null(1));
    }

    #[test]
    fn from_values_rejects_uncastable() {
        let err = Column::from_values(DataType::Int32, &[Value::Varchar("zzz".into())]);
        assert!(err.is_err());
        let ok = Column::from_values(DataType::Int32, &[Value::Varchar("12".into()), Value::Null])
            .unwrap();
        assert_eq!(ok.value(0), Value::Int32(12));
        assert!(ok.is_null(1));
    }

    #[test]
    fn f64_at_and_i64_at() {
        let c = Column::from_opt_i16s(vec![Some(3), None]);
        assert_eq!(c.f64_at(0), Some(3.0));
        assert_eq!(c.f64_at(1), None);
        assert_eq!(c.i64_at(0), Some(3));
        let s = Column::from_strings(["x"]);
        assert_eq!(s.f64_at(0), None);
    }

    #[test]
    fn dict_round_trip_is_bit_identical() {
        let c = Column::from_opt_i32s(vec![Some(2), None, Some(2), Some(5), None, Some(5)]);
        let d = c.encode(Encoding::Dict);
        assert_eq!(d.encoding(), Encoding::Dict);
        assert_eq!(d.len(), 6);
        assert!(d.i32s().is_none(), "typed slices refuse encoded columns");
        assert_eq!(d.value(3), Value::Int32(5));
        assert_eq!(d.value(1), Value::Null);
        assert_eq!(d.i64_at(5), Some(5));
        let back = d.decode();
        assert!(back.is_plain());
        assert_eq!(back.data(), c.data(), "placeholder slots round-trip too");
        assert_eq!(back, c);
        assert_eq!(d, c, "logical equality across encodings");
        d.check_encoding().unwrap();
    }

    #[test]
    fn rle_round_trip_and_slice() {
        let c = Column::from_i64s(vec![7, 7, 7, 3, 3, 9]);
        let r = c.encode(Encoding::Rle);
        assert_eq!(r.encoding(), Encoding::Rle);
        assert_eq!(r.len(), 6);
        assert_eq!(r.data().len(), 3, "three runs stored");
        assert_eq!(r.value(2), Value::Int64(7));
        assert_eq!(r.value(4), Value::Int64(3));
        assert_eq!(r.decode(), c);
        r.check_encoding().unwrap();
        // Slicing clips runs and stays RLE.
        let s = r.slice(1, 4);
        assert_eq!(s.encoding(), Encoding::Rle);
        assert_eq!(s, c.slice(1, 4));
        s.check_encoding().unwrap();
    }

    #[test]
    fn dict_take_stays_dict() {
        let c = Column::from_strings(["a", "b", "a", "b", "c"]);
        let d = c.encode(Encoding::Dict);
        let t = d.take(&[4, 0, 2]);
        assert_eq!(t.encoding(), Encoding::Dict);
        assert_eq!(t, c.take(&[4, 0, 2]));
        // RLE gathers materialize plain.
        let r = c.encode(Encoding::Rle);
        let t = r.take(&[4, 0, 2]);
        assert!(t.is_plain());
        assert_eq!(t, c.take(&[4, 0, 2]));
    }

    #[test]
    fn encoded_extend_decodes() {
        let mut d = Column::from_i32s(vec![1, 1, 2]).encode(Encoding::Dict);
        d.extend(&Column::from_i32s(vec![3]).encode(Encoding::Rle)).unwrap();
        assert!(d.is_plain());
        assert_eq!(d.i32s().unwrap(), &[1, 1, 2, 3]);
    }

    #[test]
    fn encode_plain_decodes() {
        let c = Column::from_i32s(vec![4, 4, 4]);
        let r = c.encode(Encoding::Rle);
        assert_eq!(r.encode(Encoding::Plain), c);
        // Dict over all-distinct data still works when forced.
        let u = Column::from_i32s(vec![1, 2, 3]);
        assert_eq!(u.encode(Encoding::Dict), u);
    }

    const ALL_TYPES: [DataType; 9] = [
        DataType::Boolean,
        DataType::Int8,
        DataType::Int16,
        DataType::Int32,
        DataType::Int64,
        DataType::Float32,
        DataType::Float64,
        DataType::Varchar,
        DataType::Blob,
    ];

    /// A value of `dtype` drawn from a small domain, so dictionaries and
    /// runs form; `Int64` spans past 2^53 so DOUBLE rounding shows.
    fn value_of(dtype: DataType, x: i8) -> Value {
        let i = i64::from(x);
        match dtype {
            DataType::Boolean => Value::Boolean(x % 2 == 0),
            DataType::Int8 => Value::Int8(x),
            DataType::Int16 => Value::Int16(i16::from(x) * 300),
            DataType::Int32 => Value::Int32(i32::from(x) * 70_000),
            DataType::Int64 => Value::Int64(i * 1_000_000_000_000_007),
            DataType::Float32 => Value::Float32(f32::from(x) / 3.0),
            DataType::Float64 => Value::Float64(f64::from(x) / 7.0),
            DataType::Varchar => Value::Varchar(format!("s{x}")),
            DataType::Blob => Value::Blob(vec![x as u8; (x % 4).unsigned_abs() as usize]),
        }
    }

    /// The per-cell reference both typed paths replaced: every row read
    /// as a [`Value`] and pushed through a builder.
    fn by_values(
        c: &Column,
        rows: impl Iterator<Item = Option<usize>>,
        to: DataType,
    ) -> DbResult<Column> {
        let mut b = ColumnBuilder::new(to);
        for row in rows {
            match row {
                Some(i) => b.push_value(&c.value(i))?,
                None => b.push_null(),
            }
        }
        Ok(b.finish())
    }

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    proptest::proptest! {
        /// `take_opt` and `cast` equal the per-`Value` path for every type,
        /// with NULLs, over plain, dictionary and RLE inputs. A dictionary
        /// stays a dictionary under `take_opt`; plain results match the
        /// reference bit for bit, placeholders included.
        #[test]
        fn typed_take_opt_and_cast_match_the_value_path(
            ty in 0usize..9,
            cells in proptest::collection::vec(proptest::option::of(-6i8..6), 0..40),
            picks in proptest::collection::vec(proptest::option::of(0u32..1000), 0..40),
        ) {
            let dtype = ALL_TYPES[ty];
            let vals: Vec<Value> =
                cells.iter().map(|c| c.map_or(Value::Null, |x| value_of(dtype, x))).collect();
            let plain = Column::from_values(dtype, &vals).unwrap();
            let n = plain.len() as u32;
            let idx: Vec<Option<u32>> =
                picks.iter().map(|p| p.and_then(|p| (n > 0).then(|| p % n))).collect();
            for enc in [Encoding::Plain, Encoding::Dict, Encoding::Rle] {
                let col = plain.encode(enc);
                let want = by_values(&col, idx.iter().map(|i| i.map(|i| i as usize)), dtype).unwrap();
                let got = col.take_opt(&idx);
                proptest::prop_assert_eq!(values(&got), values(&want), "take_opt over {:?}", enc);
                if enc == Encoding::Plain {
                    proptest::prop_assert_eq!(&got, &want);
                    proptest::prop_assert_eq!(got.data(), want.data(), "placeholders too");
                }
                if col.encoding() == Encoding::Dict && !col.is_empty() && !idx.is_empty() {
                    proptest::prop_assert_eq!(got.encoding(), Encoding::Dict);
                }
                got.check_encoding().unwrap();
                for to in ALL_TYPES {
                    let want = by_values(&col, (0..col.len()).map(Some), to);
                    match (col.cast(to), want) {
                        (Ok(got), Ok(want)) => {
                            proptest::prop_assert_eq!(got.decode().data(), want.data(), "{} -> {} over {:?}", dtype, to, enc);
                            proptest::prop_assert_eq!(got, want, "{} -> {} over {:?}", dtype, to, enc)
                        }
                        (Err(_), Err(_)) => {}
                        (got, want) => proptest::prop_assert!(
                            false,
                            "{} -> {} over {:?}: {:?} vs {:?}",
                            dtype, to, enc, got.map(|c| values(&c)), want.map(|c| values(&c))
                        ),
                    }
                }
            }
        }
    }
}
