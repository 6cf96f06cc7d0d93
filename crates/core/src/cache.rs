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
use mlcs_columnar::{DbError, DbResult};
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
