//! Compression system-support operator (§5.5).
//!
//! "Similarly one could provide additional system support operators such
//! as compression, decompression, etc." — this module provides that
//! operator: a from-scratch LZ77-style codec applied to the packed
//! result stream before transmission, reducing network usage for
//! redundant results the same way packing reduces it for sparse ones.
//!
//! ## Format
//!
//! The stream is a sequence of self-delimiting frames:
//!
//! ```text
//! frame := u32 raw_len (LE) | u32 comp_len (LE) | comp_len bytes
//! ```
//!
//! `comp_len == raw_len` marks a *stored* frame (incompressible data is
//! passed through, never expanded by more than the 8-byte header). The
//! token stream inside a compressed frame:
//!
//! ```text
//! token := lit_ctrl  byte{n}      -- lit_ctrl in 0x00..=0x7F: n = ctrl+1 literals
//!        | match_ctrl u16 dist    -- ctrl in 0x80..=0xFF: len = (ctrl&0x7F)+MIN_MATCH,
//!                                    copy from `dist` bytes back (may overlap)
//! ```

use std::collections::HashMap;

/// Minimum match length worth encoding (a match token costs 3 bytes).
const MIN_MATCH: usize = 4;

/// Maximum match length encodable in one token.
const MAX_MATCH: usize = 0x7F + MIN_MATCH;

/// Sliding-window size (matches must be within this distance).
const WINDOW: usize = 65_535;

/// Frame granularity of the streaming compressor.
pub(crate) const FRAME_BYTES: usize = 16 * 1024;

/// Codec errors (decode, and the one encode-side limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A frame's raw or compressed length does not fit the 4-byte
    /// header. Encoding rejects such frames instead of silently
    /// truncating the length to 32 bits.
    FrameTooLarge {
        /// The offending length in bytes.
        bytes: u64,
    },
    /// Stream ended inside a header or token.
    Truncated,
    /// A match referenced data before the start of the frame.
    BadDistance {
        /// The offending distance.
        dist: usize,
        /// Bytes available behind the cursor.
        have: usize,
    },
    /// Frame decoded to a different length than its header declared.
    LengthMismatch {
        /// Declared raw length.
        declared: usize,
        /// Actually decoded length.
        got: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::FrameTooLarge { bytes } => {
                write!(f, "frame of {bytes} bytes exceeds the 4 GiB header limit")
            }
            CodecError::Truncated => write!(f, "compressed stream truncated"),
            CodecError::BadDistance { dist, have } => {
                write!(f, "match distance {dist} exceeds available history {have}")
            }
            CodecError::LengthMismatch { declared, got } => {
                write!(f, "frame declared {declared} bytes, decoded {got}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Compress one frame body (no header). Returns `None` when the result
/// would not be smaller than the input (caller stores it raw).
fn compress_frame(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() / 2);
    // Hash of the next MIN_MATCH bytes -> most recent position.
    let mut heads: HashMap<u32, usize> = HashMap::new();
    let hash_at = |i: usize| -> u32 {
        let w = data.get(i..).and_then(<[u8]>::first_chunk::<4>);
        w.map_or(0, |w| u32::from_le_bytes(*w))
            .wrapping_mul(0x9E37_79B1)
            >> 12
    };

    let mut lit_start = 0usize;
    let mut i = 0usize;
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        for run in data.get(from..to).unwrap_or_default().chunks(128) {
            out.push((run.len() - 1) as u8);
            out.extend_from_slice(run);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash_at(i);
        let candidate = heads.insert(h, i);
        let m = candidate.and_then(|c| {
            let dist = u16::try_from(i - c)
                .ok()
                .filter(|&d| usize::from(d) <= WINDOW)?;
            // Verify and extend the match.
            let (earlier, here) = (data.get(c..)?, data.get(i..)?);
            let len = earlier
                .iter()
                .zip(here)
                .take(MAX_MATCH)
                .take_while(|(a, b)| a == b)
                .count();
            (len >= MIN_MATCH).then_some((dist, len))
        });
        match m {
            Some((dist, len)) => {
                flush_literals(&mut out, lit_start, i);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                out.extend_from_slice(&dist.to_le_bytes());
                // Index a few positions inside the match so later matches
                // can anchor there (cheap approximation of full chaining).
                let step = (len / 4).max(1);
                let mut j = i + 1;
                while j + MIN_MATCH <= data.len() && j < i + len {
                    heads.insert(hash_at(j), j);
                    j += step;
                }
                i += len;
                lit_start = i;
            }
            None => i += 1,
        }
    }
    flush_literals(&mut out, lit_start, data.len());
    (out.len() < data.len()).then_some(out)
}

/// Decompress one frame body into `out`.
fn decompress_frame(body: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
    let frame_start = out.len();
    let mut i = 0usize;
    while let Some(&ctrl) = body.get(i) {
        i += 1;
        if ctrl < 0x80 {
            let n = ctrl as usize + 1;
            let lits = body.get(i..i + n).ok_or(CodecError::Truncated)?;
            out.extend_from_slice(lits);
            i += n;
        } else {
            let len = (ctrl & 0x7F) as usize + MIN_MATCH;
            let d = body.get(i..).and_then(<[u8]>::first_chunk::<2>);
            let dist = usize::from(u16::from_le_bytes(*d.ok_or(CodecError::Truncated)?));
            i += 2;
            let have = out.len() - frame_start;
            if dist == 0 || dist > have {
                return Err(CodecError::BadDistance { dist, have });
            }
            // Byte-by-byte copy: overlapping matches (RLE) are legal.
            for _ in 0..len {
                let b = out.get(out.len() - dist).copied();
                out.push(b.ok_or(CodecError::BadDistance { dist, have })?);
            }
        }
    }
    let got = out.len() - frame_start;
    if got != raw_len {
        return Err(CodecError::LengthMismatch {
            declared: raw_len,
            got,
        });
    }
    Ok(())
}

// The streaming paths chunk at FRAME_BYTES, so their frames always fit
// the header; this guards the constant against being raised past it.
#[expect(clippy::disallowed_macros, reason = "evaluated at compile time")]
const _: () = assert!(FRAME_BYTES as u64 <= u32::MAX as u64);

/// Compress a whole buffer into the framed format (frames of 16 KiB,
/// `FRAME_BYTES`, which always fit the 4-byte length header).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in data.chunks(FRAME_BYTES) {
        emit_small_frame(frame, &mut out);
    }
    out
}

/// Compress a whole buffer with a caller-chosen frame granularity.
///
/// # Errors
/// [`CodecError::FrameTooLarge`] when a frame's raw or compressed length
/// would not fit the 4-byte header (≥ 4 GiB) — rejected instead of
/// silently truncating the length and corrupting the stream.
#[cfg(test)]
fn compress_framed(data: &[u8], frame_bytes: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    for frame in data.chunks(frame_bytes) {
        emit_frame(frame, &mut out)?;
    }
    Ok(out)
}

/// Encode one frame's header: `u32 raw_len | u32 comp_len`, checked.
fn frame_header(raw_len: usize, comp_len: usize) -> Result<[u8; 8], CodecError> {
    let raw = u32::try_from(raw_len).map_err(|_| CodecError::FrameTooLarge {
        bytes: raw_len as u64,
    })?;
    let comp = u32::try_from(comp_len).map_err(|_| CodecError::FrameTooLarge {
        bytes: comp_len as u64,
    })?;
    // Little-endian: the low word's bytes come first.
    Ok((u64::from(comp) << 32 | u64::from(raw)).to_le_bytes())
}

/// [`emit_frame`] for a frame of at most `FRAME_BYTES`, the only size
/// the streaming paths make.
#[expect(
    clippy::expect_used,
    reason = "a frame of at most FRAME_BYTES fits the header (const-asserted above)"
)]
fn emit_small_frame(frame: &[u8], out: &mut Vec<u8>) {
    emit_frame(frame, out).expect("FRAME_BYTES fits the length header");
}

fn emit_frame(frame: &[u8], out: &mut Vec<u8>) -> Result<(), CodecError> {
    match compress_frame(frame) {
        Some(body) => {
            out.extend_from_slice(&frame_header(frame.len(), body.len())?);
            out.extend_from_slice(&body);
        }
        None => {
            out.extend_from_slice(&frame_header(frame.len(), frame.len())?);
            out.extend_from_slice(frame);
        }
    }
    Ok(())
}

/// Decompress a framed stream.
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < stream.len() {
        let hdr = stream.get(i..).and_then(<[u8]>::first_chunk::<8>);
        let [r0, r1, r2, r3, c0, c1, c2, c3] = *hdr.ok_or(CodecError::Truncated)?;
        let raw_len = u32::from_le_bytes([r0, r1, r2, r3]) as usize;
        let comp_len = u32::from_le_bytes([c0, c1, c2, c3]) as usize;
        i += 8;
        let body = stream.get(i..i + comp_len).ok_or(CodecError::Truncated)?;
        i += comp_len;
        if comp_len == raw_len {
            out.extend_from_slice(body); // stored frame
        } else {
            decompress_frame(body, raw_len, &mut out)?;
        }
    }
    Ok(out)
}

/// The longest stream [`StreamCompressor`] can make of `raw` bytes:
/// every frame stored raw behind its 8-byte header.
pub(crate) fn max_stream_len(raw: usize) -> usize {
    raw.saturating_add(8 * raw.div_ceil(FRAME_BYTES))
}

/// Streaming compressor for the pipeline's output path: buffers packed
/// bytes, emits whole frames, flushes the tail at end of stream.
#[derive(Debug, Default)]
pub struct StreamCompressor {
    pending: Vec<u8>,
    raw_in: u64,
    compressed_out: u64,
}

impl StreamCompressor {
    /// Fresh compressor.
    pub fn new() -> Self {
        StreamCompressor::default()
    }

    /// Feed packed output; returns any completed compressed frames.
    pub fn push(&mut self, data: &[u8]) -> Vec<u8> {
        self.raw_in += data.len() as u64;
        self.pending.extend_from_slice(data);
        let mut out = Vec::new();
        while self.pending.len() >= FRAME_BYTES {
            let frame: Vec<u8> = self.pending.drain(..FRAME_BYTES).collect();
            emit_small_frame(&frame, &mut out);
        }
        self.compressed_out += out.len() as u64;
        out
    }

    /// End of stream: compress the remaining tail.
    pub fn finish(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        if !self.pending.is_empty() {
            // The tail is < FRAME_BYTES by construction of `push`.
            let tail = std::mem::take(&mut self.pending);
            emit_small_frame(&tail, &mut out);
        }
        self.compressed_out += out.len() as u64;
        out
    }

    /// `(raw bytes in, compressed bytes out)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.raw_in, self.compressed_out)
    }

    /// Drop the pending tail and zero the totals.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.raw_in = 0;
        self.compressed_out = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_repetitive_data() {
        let data: Vec<u8> = b"farview".iter().copied().cycle().take(10_000).collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "repetitive data must compress well"
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_is_stored_with_bounded_overhead() {
        // A pseudo-random byte stream (xorshift) has no 4-byte repeats to
        // speak of.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        let frames = data.len().div_ceil(FRAME_BYTES);
        assert!(
            c.len() <= data.len() + frames * 8,
            "expansion beyond headers"
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_via_overlapping_matches() {
        let data = vec![0xABu8; 5_000];
        let c = compress(&data);
        assert!(c.len() < 200, "constant data must collapse: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
        for n in 1..20 {
            let data: Vec<u8> = (0..n as u8).collect();
            assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..60_000u32).map(|i| (i / 100) as u8).collect();
        let mut s = StreamCompressor::new();
        let mut streamed = Vec::new();
        for chunk in data.chunks(777) {
            streamed.extend(s.push(chunk));
        }
        streamed.extend(s.finish());
        assert_eq!(decompress(&streamed).unwrap(), data);
        let (raw, comp) = s.totals();
        assert_eq!(raw, 60_000);
        assert_eq!(comp as usize, streamed.len());
        assert!(comp < raw / 4, "smooth data must compress");
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let data = vec![7u8; 1000];
        let mut c = compress(&data);
        // Truncate mid-frame.
        c.truncate(c.len() - 3);
        assert!(matches!(
            decompress(&c),
            Err(CodecError::Truncated) | Err(CodecError::LengthMismatch { .. })
        ));
        // Header claiming more than available.
        let bogus = [0xFFu8, 0xFF, 0, 0, 10, 0, 0, 0];
        assert!(decompress(&bogus).is_err());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_not_truncated() {
        // The header encoder itself: lengths past u32::MAX must error.
        assert!(frame_header(16, 8).is_ok());
        assert_eq!(
            frame_header(5_000_000_000usize, 8),
            Err(CodecError::FrameTooLarge {
                bytes: 5_000_000_000
            })
        );
        assert_eq!(
            frame_header(16, 5_000_000_000usize),
            Err(CodecError::FrameTooLarge {
                bytes: 5_000_000_000
            })
        );
        // And the framed entry point propagates (tiny data, so only the
        // Ok path is exercisable without a 4 GiB allocation; the header
        // check above covers the Err path).
        let data = vec![1u8; 64];
        assert_eq!(
            compress_framed(&data, 16).unwrap(),
            compress_framed(&data, 16).unwrap()
        );
        assert_eq!(
            decompress(&compress_framed(&data, 16).unwrap()).unwrap(),
            data
        );
    }

    #[test]
    fn table_images_compress() {
        // A row-format table with low-cardinality columns — the realistic
        // case for result compression.
        let mut data = Vec::new();
        for i in 0..4096u64 {
            data.extend_from_slice(&(i % 16).to_le_bytes());
            data.extend_from_slice(&(i % 3).to_le_bytes());
        }
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 2,
            "got {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }
}
