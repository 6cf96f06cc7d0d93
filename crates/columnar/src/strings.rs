//! Variable-length column storage: strings and blobs.
//!
//! Both use the classic offsets-plus-bytes layout: a single contiguous byte
//! buffer and an `offsets` array of `n + 1` positions, so element `i` lives
//! at `bytes[offsets[i]..offsets[i+1]]`. This keeps variable-length columns
//! cache-friendly and makes slicing / gathering cheap.

/// A column of UTF-8 strings in offsets-plus-bytes layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StringColumn {
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl StringColumn {
    /// An empty string column.
    pub fn new() -> Self {
        StringColumn { offsets: vec![0], bytes: Vec::new() }
    }

    /// An empty column with room for `rows` strings of ~`avg_len` bytes.
    pub fn with_capacity(rows: usize, avg_len: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StringColumn { offsets, bytes: Vec::with_capacity(rows * avg_len) }
    }

    /// Builds from an iterator of `&str`.
    pub fn from_strs<'a>(it: impl IntoIterator<Item = &'a str>) -> Self {
        let mut col = StringColumn::new();
        for s in it {
            col.push(s);
        }
        col
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the column holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of string payload.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends a string.
    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u64);
    }

    /// Returns string `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let (a, b) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        // SAFETY-free: contents were pushed as &str and the persistence
        // layer validates UTF-8 on load, so this cannot fail.
        std::str::from_utf8(&self.bytes[a..b]).expect("string column holds valid UTF-8")
    }

    /// String `i`'s bytes, without re-checking UTF-8 (hashing and key
    /// encoding only need the bytes).
    pub(crate) fn get_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates all strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Gathers `self[i]` for each `i` in `indices` into a new column.
    pub fn take(&self, indices: &[u32]) -> StringColumn {
        let mut total = 0usize;
        for &i in indices {
            let i = i as usize;
            total += (self.offsets[i + 1] - self.offsets[i]) as usize;
        }
        let mut out = StringColumn::with_capacity(indices.len(), 0);
        out.bytes.reserve(total);
        for &i in indices {
            out.push(self.get(i as usize));
        }
        out
    }

    /// Copies strings `offset..offset+len` into a new column.
    pub fn slice(&self, offset: usize, len: usize) -> StringColumn {
        let mut out = StringColumn::with_capacity(len, 0);
        for i in offset..offset + len {
            out.push(self.get(i));
        }
        out
    }

    /// Appends every string of `other`.
    pub fn extend(&mut self, other: &StringColumn) {
        self.bytes.extend_from_slice(&other.bytes);
        let base = *self.offsets.last().expect("offsets never empty");
        self.offsets.extend(other.offsets.iter().skip(1).map(|o| o + base));
    }

    /// Raw parts for the persistence layer: `(offsets, bytes)`.
    pub fn raw_parts(&self) -> (&[u64], &[u8]) {
        (&self.offsets, &self.bytes)
    }

    /// Reassembles from raw parts, validating shape and UTF-8.
    pub fn from_raw_parts(offsets: Vec<u64>, bytes: Vec<u8>) -> Result<Self, String> {
        validate_offsets(&offsets, bytes.len())?;
        std::str::from_utf8(&bytes).map_err(|e| format!("invalid UTF-8 in string column: {e}"))?;
        Ok(StringColumn { offsets, bytes })
    }
}

/// A column of byte strings (BLOBs) in offsets-plus-bytes layout.
///
/// This is where pickled models live when stored in the database.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlobColumn {
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl BlobColumn {
    /// An empty blob column.
    pub fn new() -> Self {
        BlobColumn { offsets: vec![0], bytes: Vec::new() }
    }

    /// Builds from an iterator of byte slices.
    pub fn from_slices<'a>(it: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut col = BlobColumn::new();
        for b in it {
            col.push(b);
        }
        col
    }

    /// Number of blobs.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the column holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends a blob.
    pub fn push(&mut self, b: &[u8]) {
        self.bytes.extend_from_slice(b);
        self.offsets.push(self.bytes.len() as u64);
    }

    /// Returns blob `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates all blobs.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Gathers `self[i]` for each `i` in `indices`.
    pub fn take(&self, indices: &[u32]) -> BlobColumn {
        let mut out = BlobColumn::new();
        for &i in indices {
            out.push(self.get(i as usize));
        }
        out
    }

    /// Copies blobs `offset..offset+len`.
    pub fn slice(&self, offset: usize, len: usize) -> BlobColumn {
        let mut out = BlobColumn::new();
        for i in offset..offset + len {
            out.push(self.get(i));
        }
        out
    }

    /// Appends every blob of `other`.
    pub fn extend(&mut self, other: &BlobColumn) {
        self.bytes.extend_from_slice(&other.bytes);
        let base = *self.offsets.last().expect("offsets never empty");
        self.offsets.extend(other.offsets.iter().skip(1).map(|o| o + base));
    }

    /// Raw parts for the persistence layer: `(offsets, bytes)`.
    pub fn raw_parts(&self) -> (&[u64], &[u8]) {
        (&self.offsets, &self.bytes)
    }

    /// Reassembles from raw parts, validating offset monotonicity.
    pub fn from_raw_parts(offsets: Vec<u64>, bytes: Vec<u8>) -> Result<Self, String> {
        validate_offsets(&offsets, bytes.len())?;
        Ok(BlobColumn { offsets, bytes })
    }
}

fn validate_offsets(offsets: &[u64], byte_len: usize) -> Result<(), String> {
    if offsets.is_empty() {
        return Err("offsets array must hold at least one entry".into());
    }
    if offsets[0] != 0 {
        return Err(format!("offsets must start at 0, found {}", offsets[0]));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err("offsets must be non-decreasing".into());
    }
    let last = *offsets.last().expect("nonempty");
    if last != byte_len as u64 {
        return Err(format!("final offset {last} != byte buffer length {byte_len}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_push_get_iter() {
        let mut c = StringColumn::new();
        c.push("hello");
        c.push("");
        c.push("wörld");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), "hello");
        assert_eq!(c.get(1), "");
        assert_eq!(c.get(2), "wörld");
        assert_eq!(c.iter().collect::<Vec<_>>(), vec!["hello", "", "wörld"]);
    }

    #[test]
    fn string_take_and_slice() {
        let c = StringColumn::from_strs(["a", "bb", "ccc", "dddd"]);
        let t = c.take(&[3, 0]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec!["dddd", "a"]);
        let s = c.slice(1, 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec!["bb", "ccc"]);
    }

    #[test]
    fn string_extend() {
        let mut a = StringColumn::from_strs(["x"]);
        let b = StringColumn::from_strs(["y", "zz"]);
        a.extend(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec!["x", "y", "zz"]);
    }

    #[test]
    fn string_raw_parts_round_trip() {
        let c = StringColumn::from_strs(["ab", "c"]);
        let (off, bytes) = c.raw_parts();
        let c2 = StringColumn::from_raw_parts(off.to_vec(), bytes.to_vec()).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn invalid_raw_parts_rejected() {
        assert!(StringColumn::from_raw_parts(vec![], vec![]).is_err());
        assert!(StringColumn::from_raw_parts(vec![1, 2], vec![0, 0]).is_err());
        assert!(StringColumn::from_raw_parts(vec![0, 3], vec![0]).is_err());
        assert!(StringColumn::from_raw_parts(vec![0, 2, 1], vec![0, 0]).is_err());
        // invalid UTF-8
        assert!(StringColumn::from_raw_parts(vec![0, 2], vec![0xFF, 0xFE]).is_err());
        // Blob column accepts arbitrary bytes
        assert!(BlobColumn::from_raw_parts(vec![0, 2], vec![0xFF, 0xFE]).is_ok());
    }

    #[test]
    fn blob_operations() {
        let mut c = BlobColumn::new();
        c.push(&[1, 2, 3]);
        c.push(&[]);
        c.push(&[0xFF]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), &[1, 2, 3]);
        assert_eq!(c.get(1), &[] as &[u8]);
        let t = c.take(&[2, 2]);
        assert_eq!(t.get(0), &[0xFF]);
        assert_eq!(t.get(1), &[0xFF]);
        let mut a = BlobColumn::from_slices([&[9u8][..]]);
        a.extend(&c);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(1), &[1, 2, 3]);
    }
}
