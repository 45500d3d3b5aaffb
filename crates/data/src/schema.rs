//! Table schemas: ordered fixed-width columns with precomputed offsets.

use crate::value::ColumnType;

/// One named column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (e.g. `"a"`; the paper's queries use single-letter
    /// attribute names like `S.a`, `S.b`).
    pub name: String,
    /// Physical type.
    pub ty: ColumnType,
}

/// An ordered list of fixed-width columns.
///
/// Offsets are precomputed at construction: the FPGA projection operator
/// and the MMU's smart-addressing mode both need static byte offsets per
/// column (§5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    offsets: Vec<usize>,
    row_bytes: usize,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names, empty schemas, or zero-width
    /// byte columns.
    #[expect(
        clippy::disallowed_macros,
        reason = "the documented contract: schemas are declared by the harness, not read off the wire"
    )]
    pub fn new(columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "schema needs at least one column");
        let mut offsets = Vec::with_capacity(columns.len());
        let mut off = 0usize;
        for (i, c) in columns.iter().enumerate() {
            assert!(c.ty.width() > 0, "column {:?} has zero width", c.name);
            assert!(
                !columns.iter().take(i).any(|p| p.name == c.name),
                "duplicate column name {:?}",
                c.name
            );
            offsets.push(off);
            off += c.ty.width();
        }
        Schema {
            columns,
            offsets,
            row_bytes: off,
        }
    }

    /// The paper's default evaluation schema: `n` unsigned 8-byte columns
    /// named `c0..c{n-1}` ("our base tables consist of 8 attributes, where
    /// each attribute is 8 bytes long", §6.2).
    pub fn uniform_u64(n: usize) -> Self {
        Schema::new(
            (0..n)
                .map(|i| Column {
                    name: format!("c{i}"),
                    ty: ColumnType::U64,
                })
                .collect(),
        )
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column descriptor by index.
    #[expect(clippy::indexing_slicing, reason = "`idx` is a column of this schema")]
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Byte offset of column `idx` inside a row.
    #[expect(clippy::indexing_slicing, reason = "`idx` is a column of this schema")]
    pub fn offset(&self, idx: usize) -> usize {
        self.offsets[idx]
    }

    /// Physical width of one row in bytes.
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The byte range of column `idx` within a row.
    pub fn column_range(&self, idx: usize) -> std::ops::Range<usize> {
        let start = self.offset(idx);
        start..start + self.column(idx).ty.width()
    }

    /// Schema obtained by projecting the given columns (in the given
    /// order). Used to describe operator-pipeline output tuples.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented: plans project columns of this schema"
    )]
    pub fn project(&self, cols: &[usize]) -> Schema {
        Schema::new(cols.iter().map(|&i| self.columns[i].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_u64_matches_paper_default() {
        let s = Schema::uniform_u64(8);
        assert_eq!(s.column_count(), 8);
        assert_eq!(s.row_bytes(), 64);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(7), 56);
    }

    #[test]
    fn mixed_widths_and_ranges() {
        let s = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "name".into(),
                ty: ColumnType::Bytes(24),
            },
            Column {
                name: "price".into(),
                ty: ColumnType::F64,
            },
        ]);
        assert_eq!(s.row_bytes(), 40);
        assert_eq!(s.column_range(1), 8..32);
        assert_eq!(s.column_range(2), 32..40);
    }

    #[test]
    fn projection_schema() {
        let s = Schema::uniform_u64(8);
        let p = s.project(&[2, 0]);
        assert_eq!(p.column_count(), 2);
        assert_eq!(p.column(0).name, "c2");
        assert_eq!(p.column(1).name, "c0");
        assert_eq!(p.row_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicates_rejected() {
        Schema::new(vec![
            Column {
                name: "a".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "a".into(),
                ty: ColumnType::F64,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_rejected() {
        Schema::new(vec![]);
    }
}
