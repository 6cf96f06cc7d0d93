//! # mlcs-pickle — binary object serialization
//!
//! A small, self-contained binary serialization library playing the role that
//! Python's `pickle` module plays in the paper: trained machine-learning
//! models are *pickled* into a byte string, stored in a `BLOB` column inside
//! the database, and *unpickled* back into an in-memory object before use.
//!
//! The format is deliberately simple and fully specified:
//!
//! * Every pickled object is wrapped in an [`envelope`] carrying a magic
//!   number, a format version, the class name of the serialized object, the
//!   payload length, and a CRC-32 checksum of the payload. Deserialization
//!   validates all of these, so a corrupted or mislabeled BLOB is rejected
//!   with a descriptive [`PickleError`] instead of producing garbage.
//! * Scalars are fixed-width little-endian; lengths and collection sizes are
//!   LEB128 varints; strings are UTF-8 with a varint length prefix.
//! * Types opt in by implementing the [`Pickle`] trait. Implementations for
//!   all primitive types, `String`, `Option<T>`, `Vec<T>` and small tuples
//!   are provided.
//!
//! ## Example
//!
//! ```
//! use mlcs_pickle::{pickle, unpickle, Pickle, Reader, Writer, PickleError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: f64, y: f64 }
//!
//! impl Pickle for Point {
//!     const CLASS_NAME: &'static str = "Point";
//!     fn pickle_body(&self, w: &mut Writer) {
//!         w.put_f64(self.x);
//!         w.put_f64(self.y);
//!     }
//!     fn unpickle_body(r: &mut Reader) -> Result<Self, PickleError> {
//!         Ok(Point { x: r.get_f64()?, y: r.get_f64()? })
//!     }
//! }
//!
//! let p = Point { x: 1.5, y: -2.0 };
//! let blob = pickle(&p);
//! let q: Point = unpickle(&blob).unwrap();
//! assert_eq!(p, q);
//! ```

pub mod crc;
pub mod envelope;
pub mod error;
pub mod reader;
pub mod traits;
pub mod writer;

pub use envelope::{open, pickle, unpickle, FORMAT_VERSION, MAGIC};
pub use error::PickleError;
pub use reader::Reader;
pub use traits::Pickle;
pub use writer::Writer;
