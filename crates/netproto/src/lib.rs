//! # mlcs-netproto — database client-protocol baselines
//!
//! The "database socket connection" alternatives of the paper's Figure 1:
//! a TCP server exposing an `mlcs-columnar` database, plus clients that
//! pull query results over the wire in two encodings, and an in-process
//! row-cursor API.
//!
//! * [`textproto::TextClient`] — row-oriented **text** serialization
//!   (every value rendered to text and parsed back), the cost profile of
//!   PostgreSQL's classic protocol.
//! * [`binproto::BinaryClient`] — row-oriented **binary** serialization
//!   (fixed-width little-endian values with null markers), the cost
//!   profile of MySQL's binary protocol.
//! * [`embedded::RowCursor`] — no socket at all, but a row-at-a-time
//!   `step()/get()` API over a materialized result, the cost profile of
//!   using SQLite from a script.
//!
//! All three end by rebuilding *columns* on the client side — exactly the
//! redundant rows→columns round trip the paper's in-database UDFs avoid.
//!
//! The server side is an epoll **reactor**: it multiplexes thousands of
//! connections onto a few event-loop threads and runs queries on the
//! shared morsel pool, with admission-control load shedding.

#![deny(missing_docs)]

pub mod binproto;
pub(crate) mod client;
pub mod codec;
pub mod config;
pub mod embedded;
mod epoll;
pub mod framing;
mod reactor;
pub mod server;
pub mod textproto;

pub use binproto::BinaryClient;
pub use config::NetConfig;
pub use embedded::RowCursor;
pub use server::Server;
pub use textproto::TextClient;
