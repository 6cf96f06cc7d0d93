//! The columns an expression may name while it binds.

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::types::DataType;

/// One visible column during binding: optional qualifier, name, type.
#[derive(Debug, Clone)]
pub(super) struct ScopeCol {
    pub(super) qualifier: Option<String>,
    pub(super) name: String,
    pub(super) dtype: DataType,
}

/// The set of columns visible to expressions, in input-batch order.
#[derive(Debug, Clone, Default)]
pub(super) struct Scope {
    pub(super) cols: Vec<ScopeCol>,
}

impl Scope {
    pub(super) fn from_schema(qualifier: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.map(str::to_owned),
                    name: f.name.to_ascii_lowercase(),
                    dtype: f.dtype,
                })
                .collect(),
        }
    }

    pub(super) fn concat(mut self, other: Scope) -> Scope {
        self.cols.extend(other.cols);
        self
    }

    /// Resolves a bare identifier; ambiguity is an error.
    pub(super) fn resolve(&self, name: &str) -> DbResult<usize> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if c.name == name {
                if found.is_some() {
                    return Err(DbError::bind(format!("column '{name}' is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DbError::NotFound { kind: "column", name: name.to_owned() })
    }

    /// Resolves `qualifier.name`.
    pub(super) fn resolve_qualified(&self, qualifier: &str, name: &str) -> DbResult<usize> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if c.name == name && c.qualifier.as_deref() == Some(qualifier) {
                if found.is_some() {
                    return Err(DbError::bind(format!("column '{qualifier}.{name}' is ambiguous")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| DbError::NotFound {
            kind: "column",
            name: format!("{qualifier}.{name}"),
        })
    }
}
