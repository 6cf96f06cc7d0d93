//! Model snapshot cache — the paper's §5.1 future-work item, implemented.
//!
//! > "Whenever a model is stored in the database, we are serializing it to
//! > a BLOB. Before it can be used again, it must be deserialized. For
//! > larger models, this can have a performance impact. The database
//! > system could be extended to directly store snapshots of the in-memory
//! > representation of the models to avoid this (de)serialization
//! > overhead."
//!
//! [`ModelCache`] keeps deserialized [`StoredModel`]s addressed by their
//! BLOB bytes, so repeated calls of any model UDF against the same stored
//! model skip unpickling entirely — the in-memory snapshot the paper asks
//! for, without changing the durable representation. A model is a value:
//! equal bytes are the same model, so an `UPDATE` of the models table needs
//! no invalidation — the new bytes simply miss. One cache per database is
//! shared by every model UDF (see [`crate::udf::register_ml_udfs`]), and
//! [`ModelCache::get_or_decode`] is the only place those UDFs reach
//! [`StoredModel::from_blob`].

use crate::stored::StoredModel;
use mlcs_columnar::{Column, DbError, DbResult};
use mlcs_ml::Matrix;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// Bytes hashed from each end of a blob to pick its bucket.
const KEY_SPAN: usize = 64;

/// The bucket of a blob: its length and its first and last [`KEY_SPAN`]
/// bytes (a pickle envelope ends in its payload's CRC-32). Cheap for
/// multi-megabyte forests; the exact byte compare on lookup is what makes a
/// hit correct, so a collision costs a decode, never a wrong model.
fn bucket(blob: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    blob.len().hash(&mut h);
    blob[..blob.len().min(KEY_SPAN)].hash(&mut h);
    blob[blob.len().saturating_sub(KEY_SPAN)..].hash(&mut h);
    h.finish()
}

/// A cached model and the exact bytes it was decoded from.
type ModelEntry = (Arc<[u8]>, Arc<StoredModel>);

/// A bounded cache of deserialized models, keyed by their exact bytes.
pub struct ModelCache {
    entries: Mutex<HashMap<u64, ModelEntry>>,
    capacity: usize,
}

impl ModelCache {
    /// A cache holding at most `capacity` models (≥ 1).
    pub fn new(capacity: usize) -> ModelCache {
        ModelCache { entries: Mutex::new(HashMap::new()), capacity: capacity.max(1) }
    }

    /// Returns the in-memory model for exactly these bytes, deserializing
    /// and inserting on first sight. A hit means the same bytes were
    /// checksum-verified and decoded once already; a blob that fails to
    /// decode is never cached. When full, an arbitrary entry is evicted
    /// (models are immutable, so eviction only costs a future re-decode).
    pub fn get_or_decode(&self, blob: &[u8]) -> DbResult<Arc<StoredModel>> {
        let key = bucket(blob);
        // Compare outside the lock: a multi-megabyte memcmp must not
        // serialize concurrent lookups.
        let entry = self.entries.lock().get(&key).cloned();
        if let Some((_, model)) = entry.filter(|(bytes, _)| **bytes == *blob) {
            mlcs_columnar::metrics::counter("modelstore.cache.hits").incr();
            return Ok(model);
        }
        mlcs_columnar::metrics::counter("modelstore.cache.misses").incr();
        let model = Arc::new(StoredModel::from_blob(blob).map_err(|e| DbError::Udf {
            function: "model cache".into(),
            message: e.to_string(),
        })?);
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            if let Some(&victim) = entries.keys().next() {
                entries.remove(&victim);
            }
        }
        entries.insert(key, (blob.into(), model.clone()));
        Ok(model)
    }

    /// Number of models currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new(64)
    }
}

/// A bounded cache of row-major feature matrices, keyed by the identity of
/// the column buffers they were built from.
///
/// Repeated predictions over the same stored columns (the common shape of
/// the paper's Figure 1 loop: one trained model, many `predict` calls)
/// re-run the column→matrix transpose every time. Since [`Column`]s are
/// immutable and shared via [`Arc`], the pointer identity of the argument
/// columns is a sound cache key — and each entry retains its `Arc`s, so a
/// key can never be reused by a freed-and-reallocated column while the
/// entry lives.
pub struct MatrixCache {
    #[allow(clippy::type_complexity)]
    entries: Mutex<HashMap<Vec<usize>, (Vec<Arc<Column>>, Arc<Matrix>)>>,
    capacity: usize,
}

impl MatrixCache {
    /// A cache holding at most `capacity` matrices (≥ 1).
    pub fn new(capacity: usize) -> MatrixCache {
        MatrixCache { entries: Mutex::new(HashMap::new()), capacity: capacity.max(1) }
    }

    /// Returns the cached matrix for exactly these column buffers, building
    /// and inserting it on first sight. When full, an arbitrary entry is
    /// evicted (matrices are immutable, so eviction only costs a rebuild).
    pub fn get_or_build(&self, cols: &[Arc<Column>]) -> DbResult<Arc<Matrix>> {
        let key: Vec<usize> = cols.iter().map(|c| Arc::as_ptr(c) as usize).collect();
        if let Some((_, hit)) = self.entries.lock().get(&key).cloned() {
            mlcs_columnar::metrics::counter("ml.matrix_cache.hits").incr();
            return Ok(hit);
        }
        mlcs_columnar::metrics::counter("ml.matrix_cache.misses").incr();
        let refs: Vec<&Column> = cols.iter().map(|c| c.as_ref()).collect();
        let matrix = Arc::new(crate::bridge::matrix_from_columns(&refs)?);
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity {
            if let Some(victim) = entries.keys().next().cloned() {
                entries.remove(&victim);
            }
        }
        entries.insert(key, (cols.to_vec(), matrix.clone()));
        Ok(matrix)
    }

    /// Number of matrices currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MatrixCache {
    fn default() -> Self {
        MatrixCache::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcs_ml::naive_bayes::GaussianNb;
    use mlcs_ml::{Matrix, Model};

    fn blob(seed: f64) -> Vec<u8> {
        let x = Matrix::from_rows(&[[seed], [seed + 1.0], [seed + 10.0], [seed + 11.0]]).unwrap();
        StoredModel::train(Model::GaussianNb(GaussianNb::new()), &x, &[1, 1, 2, 2])
            .unwrap()
            .to_blob()
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ModelCache::new(8);
        let b = blob(0.0);
        let a1 = cache.get_or_decode(&b).unwrap();
        let a2 = cache.get_or_decode(&b).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "same in-memory snapshot expected");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_blobs_distinct_entries() {
        let cache = ModelCache::new(8);
        let m1 = cache.get_or_decode(&blob(0.0)).unwrap();
        let m2 = cache.get_or_decode(&blob(100.0)).unwrap();
        assert!(!Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn bucket_collision_is_a_miss_not_a_wrong_model() {
        // Two blobs that share a bucket: same length, same first and last
        // KEY_SPAN bytes, one differing byte in between.
        let a = vec![7u8; 4 * KEY_SPAN];
        let mut b = a.clone();
        b[2 * KEY_SPAN] ^= 1;
        assert_eq!(bucket(&a), bucket(&b));
        let cache = ModelCache::new(8);
        let good = blob(0.0);
        let model = cache.get_or_decode(&good).unwrap();
        // Plant `good`'s model under `a`'s bucket, as a colliding entry would.
        cache.entries.lock().insert(bucket(&a), (a.clone().into(), model.clone()));
        assert!(cache.get_or_decode(&a).is_ok(), "exact bytes hit");
        assert!(cache.get_or_decode(&b).is_err(), "colliding bytes must decode, not hit");
    }

    #[test]
    fn capacity_bounds_entries() {
        let cache = ModelCache::new(2);
        for i in 0..5 {
            cache.get_or_decode(&blob(i as f64 * 50.0)).unwrap();
        }
        assert!(cache.len() <= 2);
    }

    #[test]
    fn garbage_blob_not_cached() {
        let cache = ModelCache::new(2);
        assert!(cache.get_or_decode(&[1, 2, 3]).is_err());
        assert!(cache.get_or_decode(&[]).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn matrix_cache_reuses_layout_for_same_columns() {
        let cache = MatrixCache::new(4);
        let a = Arc::new(mlcs_columnar::Column::from_f64s(vec![1.0, 2.0]));
        let b = Arc::new(mlcs_columnar::Column::from_i32s(vec![3, 4]));
        let m1 = cache.get_or_build(&[a.clone(), b.clone()]).unwrap();
        let m2 = cache.get_or_build(&[a.clone(), b.clone()]).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2), "same layout expected on the second call");
        assert_eq!(m1.row(0), &[1.0, 3.0]);
        assert_eq!(cache.len(), 1);
        // A different column order is a different matrix.
        let m3 = cache.get_or_build(&[b.clone(), a.clone()]).unwrap();
        assert!(!Arc::ptr_eq(&m1, &m3));
        assert_eq!(m3.row(0), &[3.0, 1.0]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn matrix_cache_capacity_bounded() {
        let cache = MatrixCache::new(2);
        let cols: Vec<_> =
            (0..5).map(|i| Arc::new(mlcs_columnar::Column::from_f64s(vec![i as f64]))).collect();
        for c in &cols {
            cache.get_or_build(std::slice::from_ref(c)).unwrap();
        }
        assert!(cache.len() <= 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(ModelCache::new(4));
        let b = Arc::new(blob(0.0));
        let first = cache.get_or_decode(&b).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let b = b.clone();
                let first = first.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        assert!(Arc::ptr_eq(&cache.get_or_decode(&b).unwrap(), &first));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 1);
    }
}
