//! The versioned table image: Farview's persistent table format.
//!
//! A [`RowImage`] is a single byte buffer holding one table: a fixed
//! 64-byte header followed by the table's rows, in the same row format
//! the buffer pool and the operators use. [`RowImage::open`] validates
//! the header and the checksum once and then lends out the rows in
//! place ([`RowImage::rows`]): turning an image back into a table is no
//! decode at all.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "FVROWIM1"
//! 8       4     format version (2)
//! 12      4     reserved (zero)
//! 16      8     row count
//! 24      8     schema fingerprint (must match the opening schema)
//! 32      8     checksum of every other byte of the image
//! 40      8     total image length in bytes
//! 48      16    reserved (zero)
//! 64      R*B   the rows, R rows of the schema's B bytes each
//! ```
//!
//! All integers are little-endian. The checksum covers the header as
//! well as the rows, so a flip anywhere in an image fails its `open`.
//! The rows are checksummed a [`IMAGE_PAGE_BYTES`] page at a time, so
//! an image kept as its header and separate row pages — as the tiered
//! store keeps it — is validated where it lies
//! ([`RowImage::check_pages`]).

use std::fmt;

use crate::schema::Schema;
use crate::table::Table;
use crate::value::ColumnType;

/// Magic bytes opening every table image.
pub const IMAGE_MAGIC: [u8; 8] = *b"FVROWIM1";
/// Current format version.
pub const IMAGE_VERSION: u32 = 2;
/// Fixed header length in bytes.
pub const IMAGE_HEADER_LEN: usize = 64;
/// Rows are checksummed in pages of this many bytes: the 2 MB page of
/// the buffer pool.
pub const IMAGE_PAGE_BYTES: usize = 2 << 20;

/// A malformed, truncated, or mismatched table image.
///
/// [`RowImage::open`] returns these instead of panicking: image bytes
/// arrive from storage and the wire, which makes `open` a validation
/// boundary for data of external origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer is shorter than the header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The magic bytes are not [`IMAGE_MAGIC`].
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
    /// The header's total-length field disagrees with the buffer.
    LengthMismatch {
        /// Length recorded in the header.
        declared: u64,
        /// Actual buffer length.
        got: usize,
    },
    /// The header's row count does not fill the bytes after the header
    /// with whole rows of the opening schema.
    RowCountMismatch {
        /// Rows recorded in the header.
        rows: u64,
        /// Bytes after the header.
        payload: usize,
    },
    /// The checksum does not match the image.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        want: u64,
        /// Checksum of the image as found.
        got: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, got } => write!(f, "truncated: {got} of {need} bytes"),
            CodecError::BadMagic => write!(f, "not a table image (bad magic)"),
            CodecError::BadVersion { got } => write!(f, "unsupported image version {got}"),
            CodecError::SchemaMismatch { want, got } => {
                write!(f, "schema fingerprint {got:#018x}, opened as {want:#018x}")
            }
            CodecError::LengthMismatch { declared, got } => {
                write!(f, "header declares {declared} bytes, buffer holds {got}")
            }
            CodecError::RowCountMismatch { rows, payload } => {
                write!(f, "header declares {rows} rows, {payload} row bytes follow")
            }
            CodecError::ChecksumMismatch { want, got } => {
                write!(f, "image checksum {got:#018x} != recorded {want:#018x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Four-lane word-at-a-time FNV-1a over a byte buffer — the scan under
/// the image checksum. A single FNV chain is latency-bound (every word
/// waits on the previous multiply, ~4–5 cycles per 8 bytes); four
/// independent lanes over interleaved words run the multiplies in
/// parallel and fold at the end, so the scan is memory-bound instead.
/// Any single-bit flip still lands in exactly one lane and perturbs the
/// folded digest.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET ^ (bytes.len() as u64),
        FNV_OFFSET.rotate_left(17),
        FNV_OFFSET.rotate_left(34),
        FNV_OFFSET.rotate_left(51),
    ];
    let (groups, rest) = bytes.as_chunks::<32>();
    for g in groups {
        let (words, _) = g.as_chunks::<8>();
        for (lane, w) in lanes.iter_mut().zip(words) {
            *lane = (*lane ^ u64::from_le_bytes(*w)).wrapping_mul(FNV_PRIME);
        }
    }
    let [first, rest_lanes @ ..] = lanes;
    let mut h = first;
    for lane in rest_lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        h = (h ^ u64::from_le_bytes(*w)).wrapping_mul(FNV_PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The header as its eight little-endian words: magic, version (low
/// half; the high half is reserved), row count, schema fingerprint,
/// checksum, total length, and two reserved words.
type Header = [u64; IMAGE_HEADER_LEN / 8];

/// Which [`Header`] word holds the checksum.
const CHECKSUM_WORD: usize = 4;

/// The checksum an image records: [`checksum64`] of each row page,
/// then every header word but the checksum's own, folded FNV-style in
/// that order. Each fold is a bijection of the running digest, so a
/// change to any one page digest or header word changes the result.
fn image_checksum<'p>(header: &Header, pages: impl Iterator<Item = &'p [u8]>) -> u64 {
    let others = header
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != CHECKSUM_WORD);
    let words = pages.map(checksum64).chain(others.map(|(_, &w)| w));
    words.fold(FNV_OFFSET, |h, w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// `Ok` when `ok`, else `err`.
fn check(ok: bool, err: CodecError) -> Result<(), CodecError> {
    if ok {
        Ok(())
    } else {
        Err(err)
    }
}

/// A stable structural hash of a schema: column names, types, and
/// widths. Recorded in every image header so `open` can reject an image
/// whose layout disagrees with the schema the caller believes it has.
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
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

/// A validated view of a table image: its schema, its row count, and
/// its rows borrowed in place from the buffer it was opened over.
#[derive(Debug, Clone, PartialEq)]
pub struct RowImage<'a> {
    schema: &'a Schema,
    rows: &'a [u8],
}

/// The name [`RowImage`] had while images were column-major; callers
/// written against it (`ColumnImage::{encode, open, row_count}`) still
/// compile unchanged.
pub type ColumnImage<'a> = RowImage<'a>;

impl<'a> RowImage<'a> {
    /// Encode a table as an image: the header, then its rows as they
    /// are.
    pub fn encode(table: &Table) -> Vec<u8> {
        let (magic, version) = (u64::from_le_bytes(IMAGE_MAGIC), u64::from(IMAGE_VERSION));
        let (rows, fp) = (table.row_count() as u64, schema_fingerprint(table.schema()));
        let len = IMAGE_HEADER_LEN + table.byte_len();
        let header = |sum| [magic, version, rows, fp, sum, len as u64, 0, 0];
        let mut out = Vec::with_capacity(len);
        let pages = table.bytes().chunks(IMAGE_PAGE_BYTES);
        for word in header(image_checksum(&header(0), pages)) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(table.bytes());
        out
    }

    /// Open an image in place: validate the header and the checksum
    /// once, then borrow the rows.
    ///
    /// # Errors
    /// A [`CodecError`] naming the first malformation found. Nothing in
    /// this crate panics on a corrupt image.
    pub fn open(bytes: &'a [u8], schema: &'a Schema) -> Result<RowImage<'a>, CodecError> {
        let (head, rows) = bytes.split_at(IMAGE_HEADER_LEN.min(bytes.len()));
        Self::check_pages(head, rows.chunks(IMAGE_PAGE_BYTES), schema)?;
        Ok(RowImage { schema, rows })
    }

    /// Validate an image kept as its header and its rows cut into
    /// [`IMAGE_PAGE_BYTES`] pages, the last one short, reading each part
    /// where it lies; returns the row count.
    ///
    /// # Errors
    /// As [`RowImage::open`] on the same bytes joined.
    pub fn check_pages<'p>(
        head: &[u8],
        pages: impl Iterator<Item = &'p [u8]> + Clone,
        schema: &Schema,
    ) -> Result<usize, CodecError> {
        let Ok(head) = <&[u8; IMAGE_HEADER_LEN]>::try_from(head) else {
            return Err(CodecError::Truncated {
                need: IMAGE_HEADER_LEN,
                got: head.len(),
            });
        };
        let mut header: Header = [0; IMAGE_HEADER_LEN / 8];
        for (word, b) in header.iter_mut().zip(head.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(*b);
        }
        let [magic, version, rows, fingerprint, sum, declared, ..] = header;
        let bad_magic = magic != u64::from_le_bytes(IMAGE_MAGIC);
        check(!bad_magic, CodecError::BadMagic)?;
        let got = version as u32;
        check(got == IMAGE_VERSION, CodecError::BadVersion { got })?;
        let (want, got) = (schema_fingerprint(schema), fingerprint);
        check(got == want, CodecError::SchemaMismatch { want, got })?;
        let payload: usize = pages.clone().map(<[u8]>::len).sum();
        let got = IMAGE_HEADER_LEN + payload;
        check(
            declared == got as u64,
            CodecError::LengthMismatch { declared, got },
        )?;
        let need = rows.checked_mul(schema.row_bytes() as u64);
        check(
            need == Some(payload as u64),
            CodecError::RowCountMismatch { rows, payload },
        )?;
        let got = image_checksum(&header, pages);
        check(got == sum, CodecError::ChecksumMismatch { want: sum, got })?;
        Ok(payload / schema.row_bytes().max(1))
    }

    /// The schema this image was opened with.
    pub fn schema(&self) -> &'a Schema {
        self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len() / self.schema.row_bytes().max(1)
    }

    /// The table's rows, borrowed from the image.
    pub fn rows(&self) -> &'a [u8] {
        self.rows
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
        let img = RowImage::encode(&t);
        assert_eq!(img.len(), IMAGE_HEADER_LEN + 37 * t.schema().row_bytes());
        let open = RowImage::open(&img, t.schema()).unwrap();
        assert_eq!(open.row_count(), 37);
        assert_eq!(open.rows(), t.bytes());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = TableBuilder::new(Schema::uniform_u64(3)).build();
        let img = RowImage::encode(&t);
        let open = RowImage::open(&img, t.schema()).unwrap();
        assert_eq!(open.row_count(), 0);
        assert!(open.rows().is_empty());
    }

    #[test]
    fn corruption_is_typed_not_a_panic() {
        let t = mixed_table(8);
        let schema = t.schema().clone();
        let img = RowImage::encode(&t);

        assert_eq!(
            RowImage::open(&img[..40], &schema),
            Err(CodecError::Truncated { need: 64, got: 40 })
        );

        let mut bad = img.clone();
        bad[0] = b'X';
        assert_eq!(RowImage::open(&bad, &schema), Err(CodecError::BadMagic));

        let mut bad = img.clone();
        bad[8] = 9;
        assert_eq!(
            RowImage::open(&bad, &schema),
            Err(CodecError::BadVersion { got: 9 })
        );

        // Truncated payload: the declared length no longer matches.
        let bad = &img[..img.len() - 3];
        assert!(matches!(
            RowImage::open(bad, &schema),
            Err(CodecError::LengthMismatch { .. })
        ));

        // One payload byte flipped: checksum catches it.
        let mut bad = img.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            RowImage::open(&bad, &schema),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // Opened with the wrong schema: fingerprint mismatch.
        let other = Schema::uniform_u64(4);
        assert!(matches!(
            RowImage::open(&img, &other),
            Err(CodecError::SchemaMismatch { .. })
        ));
    }

    /// Header fields the structural checks do not reach — the reserved
    /// words — and a row count re-sealed under a fresh checksum are both
    /// rejected: the first by the checksum, the second by the length it
    /// implies.
    #[test]
    fn header_tampering_is_rejected() {
        let t = mixed_table(4);
        let schema = t.schema().clone();
        let img = RowImage::encode(&t);
        for at in [12, 48, 63] {
            let mut bad = img.clone();
            bad[at] ^= 1;
            assert!(
                matches!(
                    RowImage::open(&bad, &schema),
                    Err(CodecError::ChecksumMismatch { .. })
                ),
                "reserved byte {at}"
            );
        }
        let mut bad = img.clone();
        bad[16..24].copy_from_slice(&5u64.to_le_bytes());
        let (head, rows) = bad.split_at_mut(IMAGE_HEADER_LEN);
        let header: Header =
            std::array::from_fn(|i| u64::from_le_bytes(head[i * 8..i * 8 + 8].try_into().unwrap()));
        head[32..40]
            .copy_from_slice(&image_checksum(&header, [&rows[..]].into_iter()).to_le_bytes());
        assert_eq!(
            RowImage::open(&bad, &schema),
            Err(CodecError::RowCountMismatch {
                rows: 5,
                payload: 4 * schema.row_bytes()
            })
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

    /// `rows` lends the image's own bytes: opening copies nothing.
    #[test]
    fn rows_are_borrowed_from_the_image() {
        let t = mixed_table(20);
        let img = RowImage::encode(&t);
        let open = RowImage::open(&img, t.schema()).unwrap();
        assert_eq!(open.rows().as_ptr(), img[IMAGE_HEADER_LEN..].as_ptr());
        assert_eq!(open.rows().len(), 20 * t.schema().row_bytes());
    }

    /// An image kept as its header and separate row pages validates
    /// exactly as the joined bytes open: the same row count, and a flip
    /// in any page, or rows cut anywhere but at the page size, fails.
    #[test]
    fn paged_images_check_as_they_open() {
        let rows = (2 * IMAGE_PAGE_BYTES + 800) / 8;
        let bytes = (0..rows as u64).flat_map(u64::to_le_bytes).collect();
        let t = Table::from_bytes(Schema::uniform_u64(1), bytes);
        let img = RowImage::encode(&t);
        let (head, body) = img.split_at(IMAGE_HEADER_LEN);
        let check = |pages: Vec<&[u8]>| RowImage::check_pages(head, pages.into_iter(), t.schema());
        assert_eq!(check(body.chunks(IMAGE_PAGE_BYTES).collect()), Ok(rows));
        assert_eq!(RowImage::open(&img, t.schema()).unwrap().row_count(), rows);
        assert!(matches!(
            check(body.chunks(IMAGE_PAGE_BYTES / 2).collect()),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        let mut flipped = body.to_vec();
        flipped[IMAGE_PAGE_BYTES + 3] ^= 4;
        assert!(matches!(
            check(flipped.chunks(IMAGE_PAGE_BYTES).collect()),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            RowImage::check_pages(&head[..10], std::iter::empty(), t.schema()),
            Err(CodecError::Truncated { need: 64, got: 10 })
        );
    }
}
