//! Selection predicates.
//!
//! "We choose to hardwire the selection predicate as an actual matching
//! circuit ... It also permits complex predicates defined over different
//! tuple columns" (§5.3). A [`PredicateExpr`] is that circuit's
//! description: comparisons against constants combined with AND/OR/NOT.

use fv_data::{ColumnType, RowView, Schema, Value};

use crate::pipeline::field;

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl CmpOp {
    fn eval_ordering(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }

    /// [`CmpOp::eval_ordering`] as a bitmask: bit 0 set when `Less`
    /// passes, bit 1 `Equal`, bit 2 `Greater`.
    fn pass_mask(self) -> u32 {
        use std::cmp::Ordering::*;
        [Less, Equal, Greater]
            .into_iter()
            .enumerate()
            .fold(0, |m, (bit, ord)| {
                m | u32::from(self.eval_ordering(ord)) << bit
            })
    }
}

/// A predicate over one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum PredicateExpr {
    /// `column <op> constant`.
    Cmp {
        /// Column index in the *base table* schema.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// All sub-predicates hold.
    And(Vec<PredicateExpr>),
    /// Any sub-predicate holds.
    Or(Vec<PredicateExpr>),
    /// The sub-predicate does not hold.
    Not(Box<PredicateExpr>),
    /// Always true (100 % selectivity — `SELECT * FROM S`).
    True,
}

/// A predicate validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicateError {
    /// Column index out of range.
    UnknownColumn {
        /// The offending index.
        col: usize,
        /// Columns available.
        arity: usize,
    },
    /// Constant type does not match the column type.
    TypeMismatch {
        /// The offending column.
        col: usize,
        /// Its declared type.
        column_type: ColumnType,
    },
}

impl std::fmt::Display for PredicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredicateError::UnknownColumn { col, arity } => {
                write!(f, "predicate references column {col}, table has {arity}")
            }
            PredicateError::TypeMismatch { col, column_type } => {
                write!(
                    f,
                    "predicate constant does not match column {col} of type {column_type:?}"
                )
            }
        }
    }
}

impl std::error::Error for PredicateError {}

impl PredicateExpr {
    /// `col < value`.
    pub fn lt(col: usize, value: impl Into<Value>) -> Self {
        PredicateExpr::Cmp {
            col,
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// `col > value`.
    pub fn gt(col: usize, value: impl Into<Value>) -> Self {
        PredicateExpr::Cmp {
            col,
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// `col = value`.
    pub fn eq(col: usize, value: impl Into<Value>) -> Self {
        PredicateExpr::Cmp {
            col,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// Conjunction helper: `self AND other`.
    pub fn and(self, other: PredicateExpr) -> Self {
        match self {
            PredicateExpr::And(mut v) => {
                v.push(other);
                PredicateExpr::And(v)
            }
            first => PredicateExpr::And(vec![first, other]),
        }
    }

    /// Disjunction helper: `self OR other`.
    pub fn or(self, other: PredicateExpr) -> Self {
        match self {
            PredicateExpr::Or(mut v) => {
                v.push(other);
                PredicateExpr::Or(v)
            }
            first => PredicateExpr::Or(vec![first, other]),
        }
    }

    /// Check the predicate against a schema (column existence + types).
    pub fn validate(&self, schema: &Schema) -> Result<(), PredicateError> {
        match self {
            PredicateExpr::True => Ok(()),
            PredicateExpr::Not(inner) => inner.validate(schema),
            PredicateExpr::And(xs) | PredicateExpr::Or(xs) => {
                xs.iter().try_for_each(|x| x.validate(schema))
            }
            PredicateExpr::Cmp { col, value, .. } => {
                if *col >= schema.column_count() {
                    return Err(PredicateError::UnknownColumn {
                        col: *col,
                        arity: schema.column_count(),
                    });
                }
                let ty = schema.column(*col).ty;
                let ok = matches!(
                    (ty, value),
                    (ColumnType::U64, Value::U64(_))
                        | (ColumnType::I64, Value::I64(_))
                        | (ColumnType::F64, Value::F64(_))
                        | (ColumnType::Bytes(_), Value::Bytes(_))
                );
                if ok {
                    Ok(())
                } else {
                    Err(PredicateError::TypeMismatch {
                        col: *col,
                        column_type: ty,
                    })
                }
            }
        }
    }

    /// Evaluate against one tuple.
    #[expect(
        clippy::unreachable,
        reason = "`validate` type-checks every comparison"
    )]
    pub fn eval(&self, row: &RowView<'_>) -> bool {
        match self {
            PredicateExpr::True => true,
            PredicateExpr::Not(inner) => !inner.eval(row),
            PredicateExpr::And(xs) => xs.iter().all(|x| x.eval(row)),
            PredicateExpr::Or(xs) => xs.iter().any(|x| x.eval(row)),
            PredicateExpr::Cmp { col, op, value } => {
                let actual = row.value(*col);
                let ord = match (&actual, value) {
                    (Value::U64(a), Value::U64(b)) => a.cmp(b),
                    (Value::I64(a), Value::I64(b)) => a.cmp(b),
                    (Value::F64(a), Value::F64(b)) => {
                        // Hardware comparators give NaN a total order at
                        // the top; mirror that for determinism.
                        a.partial_cmp(b).unwrap_or_else(|| {
                            b.is_nan().cmp(&a.is_nan()).then(std::cmp::Ordering::Equal)
                        })
                    }
                    (Value::Bytes(a), Value::Bytes(b)) => a.as_slice().cmp(b.as_slice()),
                    _ => unreachable!("validated predicate saw mismatched types"),
                };
                op.eval_ordering(ord)
            }
        }
    }

    /// Resolve the predicate against `schema` into a
    /// [`CompiledPredicate`]: column offsets and widths baked in,
    /// constants unboxed, so evaluation reads tuple bytes directly —
    /// the block datapath's "hardwired matching circuit".
    ///
    /// # Errors
    /// The same errors as [`PredicateExpr::validate`] (compilation *is*
    /// validation plus layout resolution).
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate, PredicateError> {
        Ok(match self {
            PredicateExpr::True => CompiledPredicate::True,
            PredicateExpr::Not(inner) => CompiledPredicate::Not(Box::new(inner.compile(schema)?)),
            PredicateExpr::And(xs) => CompiledPredicate::And(
                xs.iter()
                    .map(|x| x.compile(schema))
                    .collect::<Result<_, _>>()?,
            ),
            PredicateExpr::Or(xs) => CompiledPredicate::Or(
                xs.iter()
                    .map(|x| x.compile(schema))
                    .collect::<Result<_, _>>()?,
            ),
            PredicateExpr::Cmp { col, op, value } => {
                if *col >= schema.column_count() {
                    return Err(PredicateError::UnknownColumn {
                        col: *col,
                        arity: schema.column_count(),
                    });
                }
                let ty = schema.column(*col).ty;
                let off = schema.offset(*col);
                match (ty, value) {
                    (ColumnType::U64, Value::U64(v)) => CompiledPredicate::U64 {
                        off,
                        op: *op,
                        rhs: *v,
                    },
                    (ColumnType::I64, Value::I64(v)) => CompiledPredicate::I64 {
                        off,
                        op: *op,
                        rhs: *v,
                    },
                    (ColumnType::F64, Value::F64(v)) => CompiledPredicate::F64 {
                        off,
                        op: *op,
                        rhs: *v,
                    },
                    (ColumnType::Bytes(width), Value::Bytes(b)) => CompiledPredicate::Bytes {
                        off,
                        width,
                        op: *op,
                        rhs: b.clone(),
                    },
                    _ => {
                        return Err(PredicateError::TypeMismatch {
                            col: *col,
                            column_type: ty,
                        })
                    }
                }
            }
        })
    }
}

/// A predicate resolved against one schema: every comparison carries its
/// column's byte offset (and width, for strings) plus the unboxed
/// constant, so [`CompiledPredicate::eval`] is direct `from_le_bytes`
/// loads and native comparisons over the raw tuple — no [`Value`]
/// materialization, no schema walk. This is what the vectorized block
/// datapath evaluates per tuple; it is byte-for-byte equivalent to
/// [`PredicateExpr::eval`] over a `RowView` (including the hardware
/// comparators' NaN-at-the-top total order for `F64`).
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledPredicate {
    /// Always true.
    True,
    /// `u64` column at `off` compared against `rhs`.
    U64 {
        /// Byte offset of the column inside a tuple.
        off: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        rhs: u64,
    },
    /// `i64` column at `off` compared against `rhs`.
    I64 {
        /// Byte offset of the column inside a tuple.
        off: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        rhs: i64,
    },
    /// `f64` column at `off` compared against `rhs`.
    F64 {
        /// Byte offset of the column inside a tuple.
        off: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Constant operand.
        rhs: f64,
    },
    /// Fixed-width byte-string column compared lexicographically.
    Bytes {
        /// Byte offset of the column inside a tuple.
        off: usize,
        /// Column width (the full zero-padded field takes part in the
        /// comparison, exactly as the decoded `Value::Bytes` would).
        width: usize,
        /// Constant operand (any length).
        rhs: Vec<u8>,
        /// Comparison operator.
        op: CmpOp,
    },
    /// All sub-predicates hold.
    And(Vec<CompiledPredicate>),
    /// Any sub-predicate holds.
    Or(Vec<CompiledPredicate>),
    /// The sub-predicate does not hold.
    Not(Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Evaluate against one raw encoded tuple.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        clippy::expect_used,
        reason = "offsets and widths are compiled from the tuple's schema"
    )]
    pub fn eval(&self, tuple: &[u8]) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::Not(inner) => !inner.eval(tuple),
            CompiledPredicate::And(xs) => xs.iter().all(|x| x.eval(tuple)),
            CompiledPredicate::Or(xs) => xs.iter().any(|x| x.eval(tuple)),
            CompiledPredicate::U64 { off, op, rhs } => {
                let v = u64::from_le_bytes(tuple[*off..*off + 8].try_into().expect("8 bytes"));
                op.eval_ordering(v.cmp(rhs))
            }
            CompiledPredicate::I64 { off, op, rhs } => {
                let v = i64::from_le_bytes(tuple[*off..*off + 8].try_into().expect("8 bytes"));
                op.eval_ordering(v.cmp(rhs))
            }
            CompiledPredicate::F64 { off, op, rhs } => {
                let v = f64::from_le_bytes(tuple[*off..*off + 8].try_into().expect("8 bytes"));
                // Same NaN-at-the-top total order as PredicateExpr::eval.
                let ord = v.partial_cmp(rhs).unwrap_or_else(|| {
                    rhs.is_nan()
                        .cmp(&v.is_nan())
                        .then(std::cmp::Ordering::Equal)
                });
                op.eval_ordering(ord)
            }
            CompiledPredicate::Bytes {
                off,
                width,
                rhs,
                op,
            } => {
                let field = &tuple[*off..*off + *width];
                op.eval_ordering(field.cmp(rhs.as_slice()))
            }
        }
    }
}

impl CompiledPredicate {
    /// Select a **whole** block by one word comparison, without a
    /// branch on the outcome: every tuple's index is written to `sel`
    /// and the write position advances by the comparison result, so a
    /// 50 % selectivity costs what 0 % does. `sel` must be the identity
    /// selection of `tuples` (it is compacted in place — survivor `k` is
    /// never ahead of tuple `k`).
    ///
    /// Returns `false`, `sel` untouched, for everything that is not a
    /// single `U64` / `I64` / `F64` comparison: those go through
    /// [`CompiledPredicate::eval`].
    pub(crate) fn select_identity(
        &self,
        tuples: &[u8],
        tuple_bytes: usize,
        sel: &mut Vec<u32>,
    ) -> bool {
        // The comparison as an index into the operator's pass mask:
        // 0 = Less, 1 = Equal, 2 = Greater.
        fn compact(
            tuples: &[u8],
            tuple_bytes: usize,
            off: usize,
            mask: u32,
            sel: &mut Vec<u32>,
            ordering: impl Fn([u8; 8]) -> u32,
        ) {
            let mut kept = 0usize;
            for (i, tuple) in (0u32..).zip(tuples.chunks_exact(tuple_bytes)) {
                let word = field(tuple, off, 8).first_chunk::<8>();
                if let (Some(slot), Some(&word)) = (sel.get_mut(kept), word) {
                    *slot = i;
                    kept += (mask >> ordering(word) & 1) as usize;
                }
            }
            sel.truncate(kept);
        }
        match *self {
            CompiledPredicate::U64 { off, op, rhs } => {
                compact(tuples, tuple_bytes, off, op.pass_mask(), sel, |w| {
                    let v = u64::from_le_bytes(w);
                    u32::from(v > rhs) + u32::from(v >= rhs)
                });
            }
            CompiledPredicate::I64 { off, op, rhs } => {
                compact(tuples, tuple_bytes, off, op.pass_mask(), sel, |w| {
                    let v = i64::from_le_bytes(w);
                    u32::from(v > rhs) + u32::from(v >= rhs)
                });
            }
            // `eval`'s total order for F64: where `partial_cmp` has no
            // answer, a NaN value is Less than a number, a number is
            // Greater than a NaN constant, and two NaNs are Equal.
            // Against a number both tests below are false for a NaN
            // value — Less, as required — so only a NaN constant needs
            // its own loop.
            CompiledPredicate::F64 { off, op, rhs } if rhs.is_nan() => {
                compact(tuples, tuple_bytes, off, op.pass_mask(), sel, |w| {
                    2 - u32::from(f64::from_le_bytes(w).is_nan())
                });
            }
            CompiledPredicate::F64 { off, op, rhs } => {
                compact(tuples, tuple_bytes, off, op.pass_mask(), sel, |w| {
                    let v = f64::from_le_bytes(w);
                    u32::from(v > rhs) + u32::from(v >= rhs)
                });
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_data::{Row, Schema};

    fn row_bytes(vals: &[u64]) -> (Schema, Vec<u8>) {
        let schema = Schema::uniform_u64(vals.len());
        let bytes = Row(vals.iter().map(|&v| Value::U64(v)).collect()).encode(&schema);
        (schema, bytes)
    }

    #[test]
    fn comparisons() {
        let (schema, bytes) = row_bytes(&[10, 20]);
        let row = RowView::new(&schema, &bytes);
        assert!(PredicateExpr::lt(0, 11u64).eval(&row));
        assert!(!PredicateExpr::lt(0, 10u64).eval(&row));
        assert!(PredicateExpr::gt(1, 19u64).eval(&row));
        assert!(PredicateExpr::eq(1, 20u64).eval(&row));
        let ne = PredicateExpr::Cmp {
            col: 1,
            op: CmpOp::Ne,
            value: 21u64.into(),
        };
        assert!(ne.eval(&row));
    }

    #[test]
    fn paper_two_predicate_and() {
        // SELECT * FROM S WHERE S.a < X AND S.b < Y (§6.4)
        let (schema, bytes) = row_bytes(&[5, 7, 0, 0, 0, 0, 0, 0]);
        let row = RowView::new(&schema, &bytes);
        let p = PredicateExpr::lt(0, 10u64).and(PredicateExpr::lt(1, 10u64));
        assert!(p.eval(&row));
        let p = PredicateExpr::lt(0, 10u64).and(PredicateExpr::lt(1, 7u64));
        assert!(!p.eval(&row));
        assert!(p.validate(&schema).is_ok());
    }

    #[test]
    fn or_and_not() {
        let (schema, bytes) = row_bytes(&[5, 7]);
        let row = RowView::new(&schema, &bytes);
        let p = PredicateExpr::eq(0, 9u64).or(PredicateExpr::eq(1, 7u64));
        assert!(p.eval(&row));
        assert!(!PredicateExpr::Not(Box::new(p)).eval(&row));
        assert!(PredicateExpr::True.eval(&row));
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14 is the paper's own example predicate
    fn float_predicate_like_paper_example() {
        // SELECT S.a FROM S WHERE S.c > 3.14 (§4.2)
        let schema = Schema::new(vec![
            fv_data::Column {
                name: "a".into(),
                ty: ColumnType::U64,
            },
            fv_data::Column {
                name: "c".into(),
                ty: ColumnType::F64,
            },
        ]);
        let bytes = Row(vec![Value::U64(1), Value::F64(3.15)]).encode(&schema);
        let row = RowView::new(&schema, &bytes);
        assert!(PredicateExpr::gt(1, 3.14f64).eval(&row));
        assert!(!PredicateExpr::gt(1, 3.15f64).eval(&row));
    }

    #[test]
    fn validation_errors() {
        let schema = Schema::uniform_u64(2);
        assert!(matches!(
            PredicateExpr::lt(5, 1u64).validate(&schema),
            Err(PredicateError::UnknownColumn { col: 5, .. })
        ));
        assert!(matches!(
            PredicateExpr::lt(0, 1.5f64).validate(&schema),
            Err(PredicateError::TypeMismatch { col: 0, .. })
        ));
    }

    #[test]
    fn compiled_predicate_agrees_with_interpreted() {
        use fv_data::Column;
        let schema = Schema::new(vec![
            Column {
                name: "u".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "i".into(),
                ty: ColumnType::I64,
            },
            Column {
                name: "f".into(),
                ty: ColumnType::F64,
            },
            Column {
                name: "s".into(),
                ty: ColumnType::Bytes(8),
            },
        ]);
        let rows = [
            (5u64, -3i64, 1.5f64, "abc"),
            (10, 3, f64::NAN, "abd"),
            (0, i64::MIN, -0.0, ""),
            (u64::MAX, i64::MAX, f64::INFINITY, "abcdefgh"),
        ];
        let preds = [
            PredicateExpr::lt(0, 10u64),
            PredicateExpr::Cmp {
                col: 1,
                op: CmpOp::Ne,
                value: 3i64.into(),
            },
            PredicateExpr::gt(2, 0.0f64),
            PredicateExpr::eq(2, f64::NAN), // NaN total-ordered at the top
            PredicateExpr::Cmp {
                col: 3,
                op: CmpOp::Ge,
                value: Value::Bytes(b"abc".to_vec()),
            },
            PredicateExpr::lt(0, 6u64).and(PredicateExpr::gt(1, -10i64)),
            PredicateExpr::eq(3, Value::Bytes(b"abd\0\0\0\0\0".to_vec()))
                .or(PredicateExpr::Not(Box::new(PredicateExpr::lt(0, 1u64)))),
        ];
        for (u, i, f, s) in rows {
            let bytes = Row(vec![
                Value::U64(u),
                Value::I64(i),
                Value::F64(f),
                Value::from(s),
            ])
            .encode(&schema);
            let row = RowView::new(&schema, &bytes);
            for p in &preds {
                let compiled = p.compile(&schema).expect("valid predicate");
                assert_eq!(
                    compiled.eval(&bytes),
                    p.eval(&row),
                    "compiled vs interpreted disagree on {p:?} over {u},{i},{f},{s:?}"
                );
            }
        }
        // Compilation rejects what validation rejects.
        assert!(PredicateExpr::lt(9, 1u64).compile(&schema).is_err());
        assert!(PredicateExpr::lt(0, 1.5f64).compile(&schema).is_err());
    }
}
