//! The versioned columnar table image: Farview's persistent table
//! format.
//!
//! A [`ColumnImage`] is a single byte buffer holding one table in
//! column-major order, after the style of memory-mapped slice formats:
//! a fixed 64-byte header, a slice directory, then one contiguous slice
//! per column. The layout is designed so a consumer can *open* an image
//! without decoding any rows — [`ColumnImage::open`] validates the
//! header, directory, and per-slice bounds exactly once and then hands
//! out borrowed [`ColumnSlice`] views straight into the buffer. Images
//! are the storage format only: the operator datapath is row-major, so
//! a consumer turns the row range it needs back into rows with
//! [`ColumnImage::write_rows_into`] — the same tiled transpose
//! [`ColumnImage::encode`] runs in the other direction.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "FVCOLIM1"
//! 8       4     format version (1)
//! 12      4     column count
//! 16      8     row count
//! 24      8     schema fingerprint (must match the opening schema)
//! 32      8     payload checksum (header excluded)
//! 40      8     total image length in bytes
//! 48      16    reserved (zero)
//! 64      16*C  slice directory: (byte offset, byte length) per column
//! ...           column slices, contiguous, in schema order
//! ```
//!
//! All integers are little-endian. Slices are canonical: column `i`'s
//! slice starts where column `i-1`'s ended, the first right after the
//! directory, and each is exactly `rows * width(i)` bytes.

use std::fmt;

use crate::column::ColumnSlice;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::ColumnType;

/// Magic bytes opening every columnar table image.
pub const COLIMAGE_MAGIC: [u8; 8] = *b"FVCOLIM1";
/// Current format version.
pub const COLIMAGE_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const COLIMAGE_HEADER_LEN: usize = 64;
/// Directory entry length in bytes (offset + length, both `u64`).
pub const COLIMAGE_DIR_ENTRY_LEN: usize = 16;

/// A malformed, truncated, or mismatched columnar image.
///
/// [`ColumnImage::open`] returns these instead of panicking: image
/// bytes arrive from storage and the wire, which makes `open` a
/// validation boundary for data of external origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the structure it must hold.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The magic bytes are not [`COLIMAGE_MAGIC`].
    BadMagic,
    /// An unsupported format version.
    BadVersion {
        /// Version found in the header.
        got: u32,
    },
    /// The header's schema fingerprint does not match the schema the
    /// image was opened with.
    SchemaMismatch {
        /// Fingerprint the opening schema hashes to.
        want: u64,
        /// Fingerprint recorded in the header.
        got: u64,
    },
    /// The header's column count does not match the opening schema.
    ColumnCountMismatch {
        /// Columns in the opening schema.
        want: usize,
        /// Columns recorded in the header.
        got: usize,
    },
    /// The header's total-length field disagrees with the buffer.
    LengthMismatch {
        /// Length recorded in the header.
        declared: u64,
        /// Actual buffer length.
        got: usize,
    },
    /// A directory entry is out of bounds, out of order, or the wrong
    /// size for its column.
    BadDirectory {
        /// Index of the offending column.
        column: usize,
    },
    /// The payload checksum does not match the directory + slices.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        want: u64,
        /// Checksum of the payload as found.
        got: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, got } => {
                write!(f, "image truncated: need {need} bytes, got {got}")
            }
            CodecError::BadMagic => write!(f, "not a columnar table image (bad magic)"),
            CodecError::BadVersion { got } => {
                write!(
                    f,
                    "unsupported image version {got} (expected {COLIMAGE_VERSION})"
                )
            }
            CodecError::SchemaMismatch { want, got } => write!(
                f,
                "schema fingerprint mismatch: image {got:#018x}, opening schema {want:#018x}"
            ),
            CodecError::ColumnCountMismatch { want, got } => {
                write!(f, "image has {got} columns, opening schema has {want}")
            }
            CodecError::LengthMismatch { declared, got } => {
                write!(f, "header declares {declared} bytes, buffer holds {got}")
            }
            CodecError::BadDirectory { column } => {
                write!(f, "directory entry for column {column} is invalid")
            }
            CodecError::ChecksumMismatch { want, got } => {
                write!(f, "payload checksum {got:#018x} != recorded {want:#018x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Four-lane word-at-a-time FNV-1a over a byte buffer — the image's
/// payload checksum. A single FNV chain is latency-bound (every word
/// waits on the previous multiply, ~4–5 cycles per 8 bytes, which made
/// validation the dominant cost of a cold zero-copy open); four
/// independent lanes over interleaved words run the multiplies in
/// parallel and fold at the end, so the scan is memory-bound instead.
/// Any single-bit flip still lands in exactly one lane and perturbs the
/// folded digest.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [
        OFFSET ^ (bytes.len() as u64),
        OFFSET.rotate_left(17),
        OFFSET.rotate_left(34),
        OFFSET.rotate_left(51),
    ];
    let (groups, rest) = bytes.as_chunks::<32>();
    for g in groups {
        let (words, _) = g.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ u64::from_le_bytes(*w)).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// A stable structural hash of a schema: column names, types, and
/// widths. Recorded in every image header so `open` can reject an image
/// whose layout disagrees with the schema the caller believes it has.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    mix(&(schema.column_count() as u64).to_le_bytes());
    for c in schema.columns() {
        mix(&(c.name.len() as u64).to_le_bytes());
        mix(c.name.as_bytes());
        let (tag, width) = match c.ty {
            ColumnType::U64 => (0u8, 8usize),
            ColumnType::I64 => (1, 8),
            ColumnType::F64 => (2, 8),
            ColumnType::Bytes(n) => (3, n),
        };
        mix(&[tag]);
        mix(&(width as u64).to_le_bytes());
    }
    h
}

/// Total encoded length of an image for `schema` × `rows`.
pub fn encoded_len(schema: &Schema, rows: usize) -> usize {
    COLIMAGE_HEADER_LEN + COLIMAGE_DIR_ENTRY_LEN * schema.column_count() + rows * schema.row_bytes()
}

/// Bytes column `col` occupies in an image of `rows` rows.
fn slice_len(schema: &Schema, rows: usize, col: usize) -> usize {
    rows * schema.column(col).ty.width()
}

/// Read the little-endian `u64` at `off`. Caller has bounds-checked.
fn word_at(bytes: &[u8], off: usize) -> u64 {
    let mut w = [0u8; 8];
    // fv:allow(panic): callers check the enclosing structure's bound first
    w.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(w)
}

/// Rows per transpose tile, both directions. 128 rows of the paper's
/// 64-byte tuple are 8 KiB and their column runs another 8 KiB, so both
/// sides of the transpose stay in L1 while each column makes its pass.
const TILE_ROWS: usize = 128;

/// Slices → rows: copy `run` (one column's consecutive `width`-byte
/// values) into the field at byte `offset` of the tile's consecutive
/// rows. `tile` is whole rows, so every chunk is exactly `row_bytes`
/// long and the two field cuts are loop-invariant. Word columns (every
/// column of the paper's schema) get their own loop: a copy of constant
/// length is one load and one store, a `width`-byte one a `memcpy` call
/// per value — 5× slower when measured on the 8 × u64 table.
fn scatter_run(run: &[u8], width: usize, tile: &mut [u8], row_bytes: usize, offset: usize) {
    if width == 8 {
        let (words, _) = run.as_chunks::<8>();
        for (row, word) in tile.chunks_exact_mut(row_bytes).zip(words) {
            let field = row.split_at_mut(offset).1.split_at_mut(8).0;
            field.copy_from_slice(word);
        }
    } else {
        for (row, value) in tile
            .chunks_exact_mut(row_bytes)
            .zip(run.chunks_exact(width))
        {
            let field = row.split_at_mut(offset).1.split_at_mut(width).0;
            field.copy_from_slice(value);
        }
    }
}

/// Rows → slices: the mirror image of [`scatter_run`].
fn gather_run(tile: &[u8], row_bytes: usize, offset: usize, run: &mut [u8], width: usize) {
    if width == 8 {
        let (words, _) = run.as_chunks_mut::<8>();
        for (row, word) in tile.chunks_exact(row_bytes).zip(words) {
            word.copy_from_slice(row.split_at(offset).1.split_at(8).0);
        }
    } else {
        for (row, value) in tile
            .chunks_exact(row_bytes)
            .zip(run.chunks_exact_mut(width))
        {
            value.copy_from_slice(row.split_at(offset).1.split_at(width).0);
        }
    }
}

/// A validated, zero-copy view of a columnar table image.
///
/// Produced by [`ColumnImage::open`]; holds borrowed [`ColumnSlice`]
/// views into the underlying buffer. No row is ever decoded — opening
/// an image is a header/directory/checksum validation pass and nothing
/// else.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnImage<'a> {
    schema: &'a Schema,
    rows: usize,
    slices: Vec<ColumnSlice<'a>>,
}

impl<'a> ColumnImage<'a> {
    /// Encode a row-format table into a columnar image (the transpose;
    /// the one place rows are walked).
    pub fn encode(table: &Table) -> Vec<u8> {
        let schema = table.schema();
        let rows = table.row_count();
        let cols = schema.column_count();
        let total = encoded_len(schema, rows);
        let dir_len = COLIMAGE_DIR_ENTRY_LEN * cols;

        let mut out = Vec::with_capacity(total);
        // Header, checksum patched in after the payload is laid down.
        out.extend_from_slice(&COLIMAGE_MAGIC);
        out.extend_from_slice(&COLIMAGE_VERSION.to_le_bytes());
        out.extend_from_slice(&(cols as u32).to_le_bytes());
        out.extend_from_slice(&(rows as u64).to_le_bytes());
        out.extend_from_slice(&schema_fingerprint(schema).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // checksum placeholder
        out.extend_from_slice(&(total as u64).to_le_bytes());
        out.extend_from_slice(&[0u8; 16]);

        // Directory: canonical contiguous slices after the directory.
        let mut off = COLIMAGE_HEADER_LEN + dir_len;
        for c in 0..cols {
            let len = slice_len(schema, rows, c);
            out.extend_from_slice(&(off as u64).to_le_bytes());
            out.extend_from_slice(&(len as u64).to_le_bytes());
            off += len;
        }

        // Slices: the tiled transpose. Cut the payload into its
        // per-column slices once, then walk the rows a tile at a time;
        // each column takes its run of the tile off the front of what
        // is left of its slice.
        let row_bytes = schema.row_bytes();
        let widths: Vec<usize> = schema.columns().iter().map(|c| c.ty.width()).collect();
        out.resize(total, 0);
        let mut payload = out.split_at_mut(COLIMAGE_HEADER_LEN + dir_len).1;
        let mut slices: Vec<&mut [u8]> = Vec::with_capacity(cols);
        for &w in &widths {
            let (slice, rest) = payload.split_at_mut(rows * w);
            slices.push(slice);
            payload = rest;
        }
        for tile in table.bytes().chunks(TILE_ROWS * row_bytes) {
            let tile_rows = tile.len() / row_bytes;
            let mut offset = 0;
            for (slice, &w) in slices.iter_mut().zip(&widths) {
                let (run, rest) = std::mem::take(slice).split_at_mut(tile_rows * w);
                gather_run(tile, row_bytes, offset, run, w);
                *slice = rest;
                offset += w;
            }
        }

        let sum = checksum64(&out[COLIMAGE_HEADER_LEN..]);
        out[32..40].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Open an image zero-copy: validate the header, directory,
    /// checksum, and every slice bound once, then borrow the buffer.
    ///
    /// # Errors
    /// A [`CodecError`] naming the first malformation found. Nothing in
    /// this crate panics on a corrupt image.
    pub fn open(bytes: &'a [u8], schema: &'a Schema) -> Result<ColumnImage<'a>, CodecError> {
        if bytes.len() < COLIMAGE_HEADER_LEN {
            return Err(CodecError::Truncated {
                need: COLIMAGE_HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[..8] != COLIMAGE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = word_at(bytes, 8) as u32;
        if version != COLIMAGE_VERSION {
            return Err(CodecError::BadVersion { got: version });
        }
        let cols = (word_at(bytes, 8) >> 32) as usize;
        if cols != schema.column_count() {
            return Err(CodecError::ColumnCountMismatch {
                want: schema.column_count(),
                got: cols,
            });
        }
        let rows = word_at(bytes, 16);
        let fp = word_at(bytes, 24);
        let want_fp = schema_fingerprint(schema);
        if fp != want_fp {
            return Err(CodecError::SchemaMismatch {
                want: want_fp,
                got: fp,
            });
        }
        let declared = word_at(bytes, 40);
        if declared != bytes.len() as u64 {
            return Err(CodecError::LengthMismatch {
                declared,
                got: bytes.len(),
            });
        }
        let rows = usize::try_from(rows).map_err(|_| CodecError::BadDirectory { column: 0 })?;
        let need = encoded_len(schema, rows);
        if bytes.len() != need {
            return Err(CodecError::Truncated {
                need,
                got: bytes.len(),
            });
        }

        let recorded = word_at(bytes, 32);
        let actual = checksum64(&bytes[COLIMAGE_HEADER_LEN..]);
        if recorded != actual {
            return Err(CodecError::ChecksumMismatch {
                want: recorded,
                got: actual,
            });
        }

        // Directory: every slice canonical, in bounds, exactly
        // rows × width. After this loop no slice access can be out of
        // bounds — the `ColumnSlice` views are cut right here.
        let mut slices = Vec::with_capacity(cols);
        let mut expect_off = COLIMAGE_HEADER_LEN + COLIMAGE_DIR_ENTRY_LEN * cols;
        for c in 0..cols {
            let entry = COLIMAGE_HEADER_LEN + COLIMAGE_DIR_ENTRY_LEN * c;
            let off = word_at(bytes, entry) as usize;
            let len = word_at(bytes, entry + 8) as usize;
            if off != expect_off || len != slice_len(schema, rows, c) {
                return Err(CodecError::BadDirectory { column: c });
            }
            let slice = bytes
                .get(off..off + len)
                .ok_or(CodecError::BadDirectory { column: c })?;
            slices.push(ColumnSlice::new(slice, schema.column(c).ty));
            expect_off += len;
        }

        Ok(ColumnImage {
            schema,
            rows,
            slices,
        })
    }

    /// The schema this image was opened with.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// The validated slice for column `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range for the schema.
    pub fn col(&self, idx: usize) -> ColumnSlice<'a> {
        // fv:allow(panic): one slice per schema column by construction
        self.slices[idx]
    }

    /// Append the row-major re-materialization of rows
    /// `lo..hi` to `out` (the inverse transpose, for consumers that
    /// need row format — every consumer today).
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > row_count()`.
    pub fn write_rows_into(&self, lo: usize, hi: usize, out: &mut Vec<u8>) {
        assert!(lo <= hi && hi <= self.rows, "row range out of bounds");
        let row_bytes = self.schema.row_bytes();
        out.reserve((hi - lo) * row_bytes);
        for lo in (lo..hi).step_by(TILE_ROWS) {
            let tile_rows = TILE_ROWS.min(hi - lo);
            let start = out.len();
            out.resize(start + tile_rows * row_bytes, 0);
            let tile = out.split_at_mut(start).1;
            let mut offset = 0;
            for s in &self.slices {
                let run = s.run(lo, lo + tile_rows);
                scatter_run(run, s.width(), tile, row_bytes, offset);
                offset += s.width();
            }
        }
    }

    /// Re-materialize the whole image as an owned row-format [`Table`].
    pub fn to_table(&self) -> Table {
        let mut data = Vec::new();
        self.write_rows_into(0, self.rows, &mut data);
        Table::from_bytes(self.schema.clone(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn mixed_table(rows: usize) -> Table {
        let schema = Schema::new(vec![
            Column {
                name: "id".into(),
                ty: ColumnType::U64,
            },
            Column {
                name: "bal".into(),
                ty: ColumnType::I64,
            },
            Column {
                name: "price".into(),
                ty: ColumnType::F64,
            },
            Column {
                name: "tag".into(),
                ty: ColumnType::Bytes(5),
            },
        ]);
        let mut b = TableBuilder::with_capacity(schema, rows);
        for i in 0..rows {
            b.push_values(vec![
                Value::U64(i as u64),
                Value::I64(-(i as i64) * 3),
                Value::F64(i as f64 * 0.5),
                Value::Bytes(vec![b'a' + (i % 26) as u8; 5]),
            ]);
        }
        b.build()
    }

    #[test]
    fn encode_open_roundtrip() {
        let t = mixed_table(37);
        let img = ColumnImage::encode(&t);
        assert_eq!(img.len(), encoded_len(t.schema(), 37));
        let open = ColumnImage::open(&img, t.schema()).unwrap();
        assert_eq!(open.row_count(), 37);
        assert_eq!(open.to_table(), t);
        // Column slices decode the same values rows do.
        let ids = open.col(0).bytes().chunks_exact(8);
        let tags = open.col(3).bytes().chunks_exact(5);
        for (r, (id, tag)) in ids.zip(tags).enumerate() {
            assert_eq!(id, (r as u64).to_le_bytes());
            assert_eq!(tag, t.row(r).col_raw(3));
        }
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = TableBuilder::new(Schema::uniform_u64(3)).build();
        let img = ColumnImage::encode(&t);
        let open = ColumnImage::open(&img, t.schema()).unwrap();
        assert_eq!(open.row_count(), 0);
        assert_eq!(open.to_table(), t);
    }

    #[test]
    fn corruption_is_typed_not_a_panic() {
        let t = mixed_table(8);
        let schema = t.schema().clone();
        let img = ColumnImage::encode(&t);

        assert_eq!(
            ColumnImage::open(&img[..40], &schema),
            Err(CodecError::Truncated { need: 64, got: 40 })
        );

        let mut bad = img.clone();
        bad[0] = b'X';
        assert_eq!(ColumnImage::open(&bad, &schema), Err(CodecError::BadMagic));

        let mut bad = img.clone();
        bad[8] = 9;
        assert_eq!(
            ColumnImage::open(&bad, &schema),
            Err(CodecError::BadVersion { got: 9 })
        );

        // Truncated payload: the declared length no longer matches.
        let bad = &img[..img.len() - 3];
        assert!(matches!(
            ColumnImage::open(bad, &schema),
            Err(CodecError::LengthMismatch { .. })
        ));

        // One payload byte flipped: checksum catches it.
        let mut bad = img.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            ColumnImage::open(&bad, &schema),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // Opened with the wrong schema: fingerprint mismatch.
        let other = Schema::uniform_u64(4);
        assert!(matches!(
            ColumnImage::open(&img, &other),
            Err(CodecError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn directory_tampering_is_rejected() {
        let t = mixed_table(4);
        let schema = t.schema().clone();
        let mut img = ColumnImage::encode(&t);
        // Point column 0's slice somewhere else and re-seal the
        // checksum so only the directory check can catch it.
        let dir = COLIMAGE_HEADER_LEN;
        img[dir..dir + 8].copy_from_slice(&(COLIMAGE_HEADER_LEN as u64 + 1).to_le_bytes());
        let sum = checksum64(&img[COLIMAGE_HEADER_LEN..]);
        img[32..40].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            ColumnImage::open(&img, &schema),
            Err(CodecError::BadDirectory { column: 0 })
        );
    }

    #[test]
    fn fingerprint_tracks_names_types_and_widths() {
        let a = Schema::uniform_u64(8);
        assert_eq!(schema_fingerprint(&a), schema_fingerprint(&a));
        assert_ne!(
            schema_fingerprint(&a),
            schema_fingerprint(&Schema::uniform_u64(7))
        );
        let renamed = Schema::new(
            (0..8)
                .map(|i| Column {
                    name: format!("d{i}"),
                    ty: ColumnType::U64,
                })
                .collect(),
        );
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&renamed));
        let retyped = Schema::new(
            (0..8)
                .map(|i| Column {
                    name: format!("c{i}"),
                    ty: if i == 0 {
                        ColumnType::I64
                    } else {
                        ColumnType::U64
                    },
                })
                .collect(),
        );
        assert_ne!(schema_fingerprint(&a), schema_fingerprint(&retyped));
    }

    #[test]
    fn partial_rematerialization_matches_rows() {
        let t = mixed_table(20);
        let img = ColumnImage::encode(&t);
        let open = ColumnImage::open(&img, t.schema()).unwrap();
        let mut buf = Vec::new();
        open.write_rows_into(5, 12, &mut buf);
        let rb = t.schema().row_bytes();
        assert_eq!(buf, &t.bytes()[5 * rb..12 * rb]);
    }
}
