//! # fv-data — row-format tables, schemas, and table images
//!
//! Farview stores base tables in disaggregated memory in **row format**
//! ("We assume that all data is stored in row format", paper §5 fn. 1)
//! with fixed-length attributes; the evaluation's default table is "8
//! attributes, where each attribute is 8 bytes long" (§6.2). This crate
//! defines that physical layout and is shared by every other crate:
//!
//! * [`ColumnType`] / [`Value`] — fixed-width column types and their
//!   little-endian wire encoding.
//! * [`Schema`] — ordered, named, fixed-width columns with byte offsets.
//! * [`Table`] — an owned byte buffer plus its schema; the unit that is
//!   written into the disaggregated buffer pool.
//! * [`RowView`] — zero-copy access to one tuple inside a byte slice,
//!   used by both the FPGA-side operators and the CPU baselines so both
//!   engines parse the exact same bytes.
//! * [`RowImage`] — the versioned table image the tiered storage stack
//!   persists: a 64-byte header followed by the table's rows in the
//!   same row format, opened in place (validated once, nothing
//!   decoded). [`ColumnImage`] is its former name.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod colimage;
mod row;
mod schema;
mod table;
mod value;

pub use colimage::{schema_fingerprint, CodecError, ColumnImage, RowImage};
pub use row::{iter_rows, Row, RowView};
pub use schema::{Column, Schema};
pub use table::{Table, TableBuilder};
pub use value::{ColumnType, Value, ValueError};
