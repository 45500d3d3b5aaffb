//! Row access: owned rows and zero-copy row views.

use crate::schema::Schema;
use crate::value::Value;

/// An owned, decoded row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the row has no values.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Value at `idx`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`idx` is a column of the row's schema, like a slice index"
    )]
    pub fn value(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Encode into the physical layout of `schema`.
    ///
    /// # Panics
    /// Panics if the arity or any value type mismatches the schema.
    #[expect(
        clippy::disallowed_macros,
        clippy::panic,
        reason = "the documented contract: rows are built against their schema"
    )]
    pub fn encode(&self, schema: &Schema) -> Vec<u8> {
        assert_eq!(
            self.0.len(),
            schema.column_count(),
            "row arity {} vs schema arity {}",
            self.0.len(),
            schema.column_count()
        );
        let mut out = Vec::with_capacity(schema.row_bytes());
        for (v, c) in self.0.iter().zip(schema.columns()) {
            v.try_encode_into(c.ty, &mut out)
                .unwrap_or_else(|e| panic!("row does not encode as {schema:?}: {e}"));
        }
        out
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

/// A zero-copy view of one encoded tuple inside a byte slice.
///
/// Both the operator stack and the CPU baselines parse tuples through this
/// type, guaranteeing that the two engines agree on the physical format —
/// the cross-validation tests in `tests/` rely on that.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    schema: &'a Schema,
    raw: &'a [u8],
}

impl<'a> RowView<'a> {
    /// Wrap `raw` (exactly one row) with its schema.
    ///
    /// # Panics
    /// Panics if `raw.len() != schema.row_bytes()`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented: `raw` is one schema-sized row"
    )]
    pub fn new(schema: &'a Schema, raw: &'a [u8]) -> Self {
        assert_eq!(
            raw.len(),
            schema.row_bytes(),
            "row view over {} bytes, schema says {}",
            raw.len(),
            schema.row_bytes()
        );
        RowView { schema, raw }
    }

    /// The whole encoded row.
    pub fn raw(&self) -> &'a [u8] {
        self.raw
    }

    /// The schema this view parses with.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// Raw bytes of column `idx`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`raw` is one row of `schema`, so every column range lies inside it"
    )]
    pub fn col_raw(&self, idx: usize) -> &'a [u8] {
        &self.raw[self.schema.column_range(idx)]
    }

    /// Decoded value of column `idx`.
    pub fn value(&self, idx: usize) -> Value {
        self.schema.column(idx).ty.decode(self.col_raw(idx))
    }

    /// Decode the whole row.
    pub fn to_row(&self) -> Row {
        Row((0..self.schema.column_count())
            .map(|i| self.value(i))
            .collect())
    }
}

/// Iterate over the rows of a packed row-format byte buffer.
///
/// # Panics
/// Panics if `data` is not a whole number of rows.
#[expect(
    clippy::disallowed_macros,
    reason = "documented: buffers hold whole rows"
)]
pub fn iter_rows<'a>(
    schema: &'a Schema,
    data: &'a [u8],
) -> impl ExactSizeIterator<Item = RowView<'a>> + 'a {
    let rb = schema.row_bytes();
    assert_eq!(
        data.len() % rb,
        0,
        "buffer of {} bytes is not a whole number of {}-byte rows",
        data.len(),
        rb
    );
    data.chunks_exact(rb)
        .map(move |raw| RowView { schema, raw })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;
    use crate::Column;

    fn schema() -> Schema {
        Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "price".into(),
                ty: ColumnType::F64,
            },
            Column {
                name: "tag".into(),
                ty: ColumnType::Bytes(4),
            },
        ])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = schema();
        let row = Row(vec![
            Value::U64(7),
            Value::F64(1.5),
            Value::Bytes(b"ab\0\0".to_vec()),
        ]);
        let bytes = row.encode(&s);
        assert_eq!(bytes.len(), s.row_bytes());
        let view = RowView::new(&s, &bytes);
        assert_eq!(view.to_row(), row);
        assert_eq!(view.value(0), Value::U64(7));
        assert_eq!(view.col_raw(2), b"ab\0\0");
    }

    #[test]
    fn iter_rows_walks_buffer() {
        let s = schema();
        let mut buf = Vec::new();
        for i in 0..5u64 {
            buf.extend(
                Row(vec![
                    Value::U64(i),
                    Value::F64(i as f64),
                    Value::Bytes(vec![b'x'; 4]),
                ])
                .encode(&s),
            );
        }
        let ids: Vec<u64> = iter_rows(&s, &buf).map(|r| r.value(0).as_u64()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(iter_rows(&s, &buf).len(), 5);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_buffer_rejected() {
        let s = schema();
        let buf = vec![0u8; s.row_bytes() + 1];
        let _ = iter_rows(&s, &buf).count();
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_rejected() {
        Row(vec![Value::U64(1)]).encode(&schema());
    }
}
