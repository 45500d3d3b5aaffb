//! Column types and values with their physical (little-endian) encoding.

use std::fmt;

/// A value/column type or width mismatch in the physical codec.
///
/// The fallible codec ([`Value::try_encode_into`]) reports this; the
/// panicking [`ColumnType::decode`] and [`Row::encode`](crate::Row::encode)
/// serve paths whose inputs are already validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// The value's variant does not match the declared column type.
    TypeMismatch {
        /// The declared column type.
        column: ColumnType,
        /// The value variant actually supplied ("U64", "Bytes", ...).
        value_kind: &'static str,
    },
    /// A raw slice's length does not match the column width.
    WidthMismatch {
        /// Bytes supplied.
        got: usize,
        /// Bytes the column type occupies.
        want: usize,
    },
    /// A byte string longer than its declared column width.
    Oversize {
        /// The string's length.
        len: usize,
        /// The declared column width.
        width: usize,
    },
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { column, value_kind } => {
                write!(f, "{value_kind} value does not match column {column:?}")
            }
            ValueError::WidthMismatch { got, want } => {
                write!(f, "{got} bytes supplied for a {want}-byte column")
            }
            ValueError::Oversize { len, width } => {
                write!(
                    f,
                    "byte string of {len} bytes does not fit column of width {width}"
                )
            }
        }
    }
}

impl std::error::Error for ValueError {}

/// The type of one fixed-width column.
///
/// Everything in Farview's datapath is fixed-width: the FPGA projection
/// operator "parses the incoming data stream based on query parameters
/// describing the tuples and their size" (§5.2), which requires static
/// offsets. Variable-length data is carried in fixed-size `Bytes(n)`
/// fields (zero-padded), as in the regex experiments' string columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Unsigned 64-bit integer, 8 bytes LE.
    U64,
    /// Signed 64-bit integer, 8 bytes LE (two's complement).
    I64,
    /// IEEE-754 double, 8 bytes LE. Selection predicates on reals are the
    /// paper's running example (`SELECT S.a FROM S WHERE S.c > 3.14`).
    F64,
    /// Fixed-width byte string of the given length, zero-padded.
    Bytes(usize),
}

impl ColumnType {
    /// Physical width in bytes.
    pub fn width(self) -> usize {
        match self {
            ColumnType::U64 | ColumnType::I64 | ColumnType::F64 => 8,
            ColumnType::Bytes(n) => n,
        }
    }

    /// Decode a value of this type from exactly `width()` bytes.
    ///
    /// # Errors
    /// [`ValueError::WidthMismatch`] when `raw.len() != self.width()`.
    pub(crate) fn try_decode(self, raw: &[u8]) -> Result<Value, ValueError> {
        if raw.len() != self.width() {
            return Err(ValueError::WidthMismatch {
                got: raw.len(),
                want: self.width(),
            });
        }
        let word = || {
            <[u8; 8]>::try_from(raw).map_err(|_| ValueError::WidthMismatch {
                got: raw.len(),
                want: 8,
            })
        };
        Ok(match self {
            ColumnType::U64 => Value::U64(u64::from_le_bytes(word()?)),
            ColumnType::I64 => Value::I64(i64::from_le_bytes(word()?)),
            ColumnType::F64 => Value::F64(f64::from_le_bytes(word()?)),
            ColumnType::Bytes(_) => Value::Bytes(raw.to_vec()),
        })
    }

    /// Decode a value of this type from exactly `width()` bytes
    /// (internal paths with schema-derived slices).
    ///
    /// # Panics
    /// Panics if `raw.len() != self.width()`.
    #[expect(
        clippy::panic,
        reason = "documented: `raw` is a schema-derived column slice"
    )]
    pub fn decode(self, raw: &[u8]) -> Value {
        self.try_decode(raw)
            .unwrap_or_else(|e| panic!("decode {self:?}: {e}"))
    }
}

/// One column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Double-precision float.
    F64(f64),
    /// Byte string (length must match the column's declared width when
    /// encoded; shorter strings are zero-padded by
    /// [`Value::try_encode_into`]).
    Bytes(Vec<u8>),
}

impl Value {
    /// The column type this value naturally encodes as, given a declared
    /// byte-string width for `Bytes`.
    pub fn column_type(&self, bytes_width: usize) -> ColumnType {
        match self {
            Value::U64(_) => ColumnType::U64,
            Value::I64(_) => ColumnType::I64,
            Value::F64(_) => ColumnType::F64,
            Value::Bytes(_) => ColumnType::Bytes(bytes_width),
        }
    }

    /// The variant's name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::U64(_) => "U64",
            Value::I64(_) => "I64",
            Value::F64(_) => "F64",
            Value::Bytes(_) => "Bytes",
        }
    }

    /// Append the physical encoding of this value as column type `ty`.
    ///
    /// # Errors
    /// [`ValueError::TypeMismatch`] when the variant does not match the
    /// column type, [`ValueError::Oversize`] when a byte string exceeds
    /// the declared width — the fallible boundary for values of external
    /// origin (client rows, user-supplied specs).
    pub fn try_encode_into(&self, ty: ColumnType, out: &mut Vec<u8>) -> Result<(), ValueError> {
        match (self, ty) {
            (Value::U64(x), ColumnType::U64) => out.extend_from_slice(&x.to_le_bytes()),
            (Value::I64(x), ColumnType::I64) => out.extend_from_slice(&x.to_le_bytes()),
            (Value::F64(x), ColumnType::F64) => out.extend_from_slice(&x.to_le_bytes()),
            (Value::Bytes(b), ColumnType::Bytes(n)) => {
                if b.len() > n {
                    return Err(ValueError::Oversize {
                        len: b.len(),
                        width: n,
                    });
                }
                out.extend_from_slice(b);
                out.resize(out.len() + (n - b.len()), 0);
            }
            (v, column) => {
                return Err(ValueError::TypeMismatch {
                    column,
                    value_kind: v.kind(),
                })
            }
        }
        Ok(())
    }

    /// The one panic of the `as_*` accessors below.
    #[expect(clippy::panic, reason = "the `as_*` accessors document it")]
    fn wrong_kind(&self, want: &str) -> ! {
        panic!("expected {want}, got {self:?}")
    }

    /// Unwrap as `u64`.
    ///
    /// # Panics
    /// Panics if the variant is not `U64`.
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(x) => *x,
            other => other.wrong_kind("U64"),
        }
    }

    /// Unwrap as `f64`.
    ///
    /// # Panics
    /// Panics if the variant is not `F64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(x) => *x,
            other => other.wrong_kind("F64"),
        }
    }

    /// Unwrap as bytes.
    ///
    /// # Panics
    /// Panics if the variant is not `Bytes`.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Value::Bytes(b) => b,
            other => other.wrong_kind("Bytes"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Bytes(b) => write!(f, "{:?}", String::from_utf8_lossy(b)),
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::U64(x)
    }
}
impl From<i64> for Value {
    fn from(x: i64) -> Self {
        Value::I64(x)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::F64(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Bytes(s.as_bytes().to_vec())
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(ColumnType::U64.width(), 8);
        assert_eq!(ColumnType::I64.width(), 8);
        assert_eq!(ColumnType::F64.width(), 8);
        assert_eq!(ColumnType::Bytes(17).width(), 17);
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14 is the paper's own example predicate
    fn roundtrip_numeric() {
        for v in [
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-12345),
            Value::F64(3.14),
            Value::F64(-0.0),
        ] {
            let ty = v.column_type(0);
            let mut buf = Vec::new();
            v.try_encode_into(ty, &mut buf).unwrap();
            assert_eq!(buf.len(), ty.width());
            assert_eq!(ty.decode(&buf), v);
        }
    }

    #[test]
    fn bytes_are_padded_and_roundtrip() {
        let v = Value::Bytes(b"car".to_vec());
        let ty = ColumnType::Bytes(8);
        let mut buf = Vec::new();
        v.try_encode_into(ty, &mut buf).unwrap();
        assert_eq!(buf, b"car\0\0\0\0\0");
        assert_eq!(ty.decode(&buf), Value::Bytes(b"car\0\0\0\0\0".to_vec()));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_bytes_rejected() {
        let schema = crate::Schema::new(vec![crate::Column {
            name: "s".into(),
            ty: ColumnType::Bytes(8),
        }]);
        crate::Row(vec![Value::Bytes(vec![0; 9])]).encode(&schema);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn type_mismatch_rejected() {
        let schema = crate::Schema::new(vec![crate::Column {
            name: "x".into(),
            ty: ColumnType::F64,
        }]);
        crate::Row(vec![Value::U64(1)]).encode(&schema);
    }

    #[test]
    fn fallible_codec_returns_typed_errors() {
        let mut buf = Vec::new();
        assert_eq!(
            Value::U64(1).try_encode_into(ColumnType::F64, &mut buf),
            Err(ValueError::TypeMismatch {
                column: ColumnType::F64,
                value_kind: "U64"
            })
        );
        assert_eq!(
            Value::Bytes(vec![0; 9]).try_encode_into(ColumnType::Bytes(8), &mut buf),
            Err(ValueError::Oversize { len: 9, width: 8 })
        );
        assert!(buf.is_empty(), "failed encodes must not emit bytes");
        assert_eq!(
            ColumnType::U64.try_decode(&[0u8; 4]),
            Err(ValueError::WidthMismatch { got: 4, want: 8 })
        );
        assert_eq!(
            ColumnType::U64.try_decode(&7u64.to_le_bytes()),
            Ok(Value::U64(7))
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5u64).as_u64(), 5);
        assert_eq!(Value::from(2.5f64).as_f64(), 2.5);
        assert_eq!(Value::from("hi").as_bytes(), b"hi");
    }
}
