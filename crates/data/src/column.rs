//! Zero-copy views over one column slice of a [`ColumnImage`].
//!
//! [`ColumnImage`]: crate::ColumnImage

use crate::value::ColumnType;

/// A borrowed, validated view of one column's contiguous slice inside a
/// columnar table image.
///
/// The slice is cut and bounds-checked **once**, when
/// [`ColumnImage::open`](crate::ColumnImage::open) validates the image;
/// every accessor here operates on a slice whose length is known to be
/// exactly `rows * width`, so per-row accesses need no further
/// validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnSlice<'a> {
    bytes: &'a [u8],
    width: usize,
    ty: ColumnType,
}

impl<'a> ColumnSlice<'a> {
    /// Wrap a validated slice. Internal: only
    /// [`ColumnImage::open`](crate::ColumnImage::open) (which proves
    /// `bytes.len() == rows * width`) and tests construct these.
    pub(crate) fn new(bytes: &'a [u8], ty: ColumnType) -> Self {
        ColumnSlice {
            bytes,
            width: ty.width(),
            ty,
        }
    }

    /// The column's physical type.
    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    /// Width of one value in bytes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows in the slice.
    pub fn rows(&self) -> usize {
        self.bytes.len() / self.width
    }

    /// The whole slice, column-major (all of row 0's value, then row
    /// 1's, ...).
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The contiguous values of rows `lo..hi` (half-open) — the unit
    /// the transpose kernel moves.
    ///
    /// # Panics
    /// Panics when `lo > hi` or `hi > rows()`.
    pub(crate) fn run(&self, lo: usize, hi: usize) -> &'a [u8] {
        // fv:allow(panic): slice length proven rows*width at open; only the row bound remains
        &self.bytes[lo * self.width..hi * self.width]
    }
}
