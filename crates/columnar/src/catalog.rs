//! The catalog: named tables, guarded for concurrent use.

use crate::error::{DbError, DbResult};
use crate::parallel::locks::RwLock;
use crate::schema::Schema;
use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A collection of named tables. Names are case-insensitive (stored
/// lower-cased, as in most SQL systems).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<RwLock<Table>>>>,
    /// Bumped on every DDL mutation (create/put/drop). The plan
    /// cache stamps cached plans with this so schema changes invalidate
    /// them; DML does not bump it because plans resolve tables by name
    /// at execution time.
    generation: AtomicU64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table, failing if the name is taken.
    pub fn create_table(&self, name: &str, schema: Arc<Schema>) -> DbResult<()> {
        self.put_table(Table::new(name.to_ascii_lowercase(), schema), false)
    }

    /// Registers a fully-built table (used by `CREATE TABLE AS` and loads).
    pub fn put_table(&self, table: Table, if_not_exists: bool) -> DbResult<()> {
        let key = table.name().to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(DbError::AlreadyExists { kind: "table", name: key });
        }
        tables.insert(key, Arc::new(RwLock::new(table)));
        drop(tables);
        self.generation.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops a table by name.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        let removed = self.tables.write().remove(&key);
        if removed.is_none() && !if_exists {
            return Err(DbError::NotFound { kind: "table", name: name.to_owned() });
        }
        if removed.is_some() {
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Looks up a table handle.
    pub fn table(&self, name: &str) -> DbResult<Arc<RwLock<Table>>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| DbError::NotFound { kind: "table", name: name.to_owned() })
    }

    /// True if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// The catalog's DDL generation. Two equal readings with no DDL in
    /// between guarantee the set of tables and their schemas is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![Field::new("x", DataType::Int32)]).unwrap())
    }

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        cat.create_table("T1", schema()).unwrap();
        assert!(cat.has_table("t1"));
        assert!(cat.has_table("T1"));
        assert!(cat.table("t1").is_ok());
        let err = cat.create_table("t1", schema());
        assert!(matches!(err, Err(DbError::AlreadyExists { .. })));
        cat.drop_table("T1", false).unwrap();
        assert!(!cat.has_table("t1"));
        assert!(cat.drop_table("t1", false).is_err());
        cat.drop_table("t1", true).unwrap();
    }

    #[test]
    fn table_names_sorted() {
        let cat = Catalog::new();
        cat.create_table("b", schema()).unwrap();
        cat.create_table("a", schema()).unwrap();
        assert_eq!(cat.table_names(), vec!["a", "b"]);
    }

    #[test]
    fn concurrent_access() {
        let cat = Arc::new(Catalog::new());
        cat.create_table("t", schema()).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cat = cat.clone();
                std::thread::spawn(move || {
                    let t = cat.table("t").unwrap();
                    let mut guard = t.write();
                    guard.append_rows(&[vec![crate::types::Value::Int32(i)]]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cat.table("t").unwrap().read().rows(), 8);
    }
}
