//! Owned tables: a schema plus a packed row-format byte buffer.

use crate::row::{iter_rows, Row, RowView};
use crate::schema::Schema;

/// An owned table in Farview's physical row format.
///
/// This is what a compute node hands to `QPair::table_write` to populate
/// the disaggregated buffer pool, and what the CPU baselines scan
/// directly — both sides operate on the identical byte image.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    data: Vec<u8>,
}

impl Table {
    /// Wrap an existing byte image.
    ///
    /// # Panics
    /// Panics if `data` is not a whole number of rows.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: images hold whole rows"
    )]
    pub fn from_bytes(schema: Schema, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len() % schema.row_bytes(),
            0,
            "table image of {} bytes is not a whole number of {}-byte rows",
            data.len(),
            schema.row_bytes()
        );
        Table { schema, data }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The packed row-format image.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Total size in bytes (the x-axis of most figures in the paper).
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.data.len() / self.schema.row_bytes()
    }

    /// Zero-copy view of row `idx`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`idx < row_count()`, like a slice index"
    )]
    pub fn row(&self, idx: usize) -> RowView<'_> {
        let rb = self.schema.row_bytes();
        RowView::new(&self.schema, &self.data[idx * rb..(idx + 1) * rb])
    }

    /// Iterate over all rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowView<'_>> {
        iter_rows(&self.schema, &self.data)
    }
}

/// Incremental table construction.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    data: Vec<u8>,
    rows: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: Schema) -> Self {
        TableBuilder {
            schema,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// Pre-allocate space for `rows` rows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let cap = rows * schema.row_bytes();
        TableBuilder {
            schema,
            data: Vec::with_capacity(cap),
            rows: 0,
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row does not match the schema.
    pub fn push(&mut self, row: &Row) -> &mut Self {
        let encoded = row.encode(&self.schema);
        self.data.extend_from_slice(&encoded);
        self.rows += 1;
        self
    }

    /// Append one row given as values.
    pub fn push_values(&mut self, values: Vec<crate::Value>) -> &mut Self {
        self.push(&Row(values))
    }

    /// Rows appended so far.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Finish, yielding the immutable table.
    pub fn build(self) -> Table {
        Table {
            schema: self.schema,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn build_and_read_back() {
        let schema = Schema::uniform_u64(8);
        let mut b = TableBuilder::with_capacity(schema, 100);
        for i in 0..100u64 {
            b.push_values((0..8).map(|c| Value::U64(i * 10 + c)).collect());
        }
        let t = b.build();
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.byte_len(), 100 * 64);
        assert_eq!(t.row(42).value(3), Value::U64(423));
        assert_eq!(t.rows().len(), 100);
    }

    #[test]
    fn from_bytes_roundtrip() {
        let schema = Schema::uniform_u64(2);
        let mut b = TableBuilder::new(schema.clone());
        b.push_values(vec![Value::U64(1), Value::U64(2)]);
        let t1 = b.build();
        let t2 = Table::from_bytes(schema, t1.bytes().to_vec());
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_image_rejected() {
        Table::from_bytes(Schema::uniform_u64(1), vec![0u8; 9]);
    }

    #[test]
    fn empty_table_is_fine() {
        let t = TableBuilder::new(Schema::uniform_u64(4)).build();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.byte_len(), 0);
        assert_eq!(t.rows().count(), 0);
    }
}
