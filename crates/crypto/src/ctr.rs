//! NIST SP 800-38A counter mode over [`Aes128`].
//!
//! The keystream block for index `i` is `E_K(counter0 + i)` where the
//! counter block is treated as one 128-bit big-endian integer (SP 800-38A
//! Appendix B.1 standard incrementing function) — a `u128` wrapping add.
//! Seeking to an arbitrary byte offset is O(1), which is what lets the
//! FPGA operator decrypt a table region independently of where the read
//! starts.
//!
//! [`AesCtr::apply`] works in strides of [`STRIDE_BLOCKS`] keystream
//! blocks generated by one call and XORed in 16-byte words; only the
//! bytes before the first block boundary and after the last whole stride
//! go block by block. Where a chunk is cut changes nothing but which of
//! the two loops produces a byte.

use crate::aes::Aes128;

/// Keystream blocks generated together (64 bytes per stride).
const STRIDE_BLOCKS: usize = 4;
const BLOCK_BYTES: usize = 16;

/// A seekable AES-128-CTR keystream applier.
#[derive(Debug, Clone)]
pub struct AesCtr {
    cipher: Aes128,
    /// The initial counter block as a big-endian integer.
    counter0: u128,
    /// Current absolute byte offset in the stream.
    offset: u64,
}

impl AesCtr {
    /// Create a CTR stream with the given initial counter block.
    pub fn new(cipher: Aes128, iv: [u8; 16]) -> Self {
        AesCtr {
            cipher,
            counter0: u128::from_be_bytes(iv),
            offset: 0,
        }
    }

    /// Position the stream at an absolute byte offset.
    pub fn seek(&mut self, byte_offset: u64) {
        self.offset = byte_offset;
    }

    /// Current absolute byte offset.
    pub fn position(&self) -> u64 {
        self.offset
    }

    /// The `N` keystream blocks starting at the block the stream is in.
    #[inline]
    fn keystream<const N: usize>(&self) -> [u128; N] {
        let first = self
            .counter0
            .wrapping_add(u128::from(self.offset / BLOCK_BYTES as u64));
        // `i < N`, a handful: the cast cannot truncate.
        self.cipher
            .encrypt_blocks(std::array::from_fn(|i| first.wrapping_add(i as u128)))
    }

    /// XOR the keystream into `data` one block at a time, from any offset
    /// within a block.
    fn apply_bytes(&mut self, mut data: &mut [u8]) {
        while !data.is_empty() {
            let [block] = self.keystream::<1>();
            let in_block = (self.offset % BLOCK_BYTES as u64) as usize;
            let take = (BLOCK_BYTES - in_block).min(data.len());
            let (now, later) = data.split_at_mut(take);
            for (d, k) in now
                .iter_mut()
                .zip(block.to_be_bytes().iter().skip(in_block))
            {
                *d ^= k;
            }
            self.offset += take as u64;
            data = later;
        }
    }

    /// XOR the keystream into `data`, advancing the stream position.
    /// Encryption and decryption are the same operation.
    pub fn apply(&mut self, data: &mut [u8]) {
        // Bytes up to the next block boundary: `-offset mod 16`.
        let to_boundary = self.offset.wrapping_neg() % BLOCK_BYTES as u64;
        let (head, aligned) = data.split_at_mut((to_boundary as usize).min(data.len()));
        self.apply_bytes(head);
        let (strides, tail) = aligned.as_chunks_mut::<{ STRIDE_BLOCKS * BLOCK_BYTES }>();
        for stride in strides {
            let keystream = self.keystream::<STRIDE_BLOCKS>();
            let (words, _) = stride.as_chunks_mut::<BLOCK_BYTES>();
            for (word, k) in words.iter_mut().zip(keystream) {
                *word = (u128::from_be_bytes(*word) ^ k).to_be_bytes();
            }
            self.offset += (STRIDE_BLOCKS * BLOCK_BYTES) as u64;
        }
        self.apply_bytes(tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::{self, random_block, splitmix};

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks.
    #[test]
    fn sp800_38a_f51() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let mut ctr = AesCtr::new(Aes128::new(&key), iv);
        ctr.apply(&mut data);
        assert_eq!(
            data,
            hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            ))
        );
        assert_eq!(ctr.position(), 64);
    }

    /// The block-at-a-time reference: byte-wise big-endian counter add
    /// (SP 800-38A B.1 as written), byte-wise AES, one keystream byte
    /// per data byte.
    fn counter_block(iv: &[u8; 16], block_index: u64) -> [u8; 16] {
        let mut block = *iv;
        let mut carry = block_index;
        for byte in block.iter_mut().rev() {
            let sum = u64::from(*byte) + (carry & 0xff);
            *byte = (sum & 0xff) as u8;
            carry = (carry >> 8) + (sum >> 8);
        }
        block
    }

    fn reference_apply(key: &[u8; 16], iv: &[u8; 16], seek: u64, data: &mut [u8]) {
        for (abs, byte) in (seek..).zip(data) {
            let keystream = reference::encrypt(key, &counter_block(iv, abs / 16));
            *byte ^= keystream[(abs % 16) as usize];
        }
    }

    /// Counter increment must carry across bytes (big-endian 128-bit add).
    #[test]
    fn counter_carry_propagates() {
        let iv = [0xffu8; 16];
        assert_eq!(
            counter_block(&iv, 1),
            [0u8; 16],
            "all-ones + 1 must wrap to zero"
        );
        let mut expect = [0u8; 16];
        expect[15] = 1;
        assert_eq!(counter_block(&iv, 2), expect);
        // The stream's `u128` add is the same function.
        let ctr = AesCtr::new(Aes128::new(&[0u8; 16]), iv);
        assert_eq!(ctr.counter0.wrapping_add(2).to_be_bytes(), expect);
    }

    /// The carry out of the low 32, 64 and 128 counter bits must land
    /// *inside* one four-block stride, on both sides of the boundary.
    #[test]
    fn counter_carries_inside_a_stride() {
        let key = [0x5au8; 16];
        for low_ones in [4usize, 8, 16] {
            for last in [0xfeu8, 0xff] {
                let mut iv = [0x11u8; 16];
                iv[16 - low_ones..].fill(0xff);
                iv[15] = last;
                let mut got = vec![0u8; 3 * 64];
                AesCtr::new(Aes128::new(&key), iv).apply(&mut got);
                let mut want = vec![0u8; 3 * 64];
                reference_apply(&key, &iv, 0, &mut want);
                assert_eq!(got, want, "{low_ones} low 0xff bytes ending {last:#x}");
            }
        }
    }

    /// For random `(seek, len, chunking)` the stride path produces the
    /// reference's bytes and lands on the reference's position.
    #[test]
    fn strides_match_block_at_a_time_reference() {
        let mut rng = 0x5eed_c7a5u64;
        for _ in 0..300 {
            let key = random_block(&mut rng);
            let iv = random_block(&mut rng);
            let seek = splitmix(&mut rng) % 200;
            let len = (splitmix(&mut rng) % 600) as usize;
            let plain: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();

            let mut want = plain.clone();
            reference_apply(&key, &iv, seek, &mut want);

            let mut got = plain;
            let mut ctr = AesCtr::new(Aes128::new(&key), iv);
            ctr.seek(seek);
            let mut rest = got.as_mut_slice();
            while !rest.is_empty() {
                let cut = (splitmix(&mut rng) % 150) as usize;
                let (chunk, later) = rest.split_at_mut(cut.min(rest.len()));
                ctr.apply(chunk);
                rest = later;
            }
            assert_eq!(got, want, "seek {seek} len {len}");
            assert_eq!(ctr.position(), seek + len as u64);
        }
    }

    /// Applying in arbitrary chunk sizes must equal one-shot application.
    #[test]
    fn chunked_equals_oneshot() {
        let key = [5u8; 16];
        let iv = [6u8; 16];
        let plain: Vec<u8> = (0u16..513).map(|i| (i % 251) as u8).collect();

        let mut oneshot = plain.clone();
        AesCtr::new(Aes128::new(&key), iv).apply(&mut oneshot);

        let mut chunked = plain.clone();
        let mut ctr = AesCtr::new(Aes128::new(&key), iv);
        let mut pos = 0;
        for size in [1usize, 3, 16, 15, 17, 64, 128, 269] {
            let end = (pos + size).min(chunked.len());
            ctr.apply(&mut chunked[pos..end]);
            pos = end;
        }
        ctr.apply(&mut chunked[pos..]);
        assert_eq!(chunked, oneshot);
    }

    /// Unaligned seek must produce the same bytes as streaming past them.
    #[test]
    fn seek_mid_block() {
        let key = [9u8; 16];
        let iv = [1u8; 16];
        let mut stream = vec![0u8; 100];
        AesCtr::new(Aes128::new(&key), iv).apply(&mut stream);

        let mut tail = vec![0u8; 37];
        let mut ctr = AesCtr::new(Aes128::new(&key), iv);
        ctr.seek(63);
        ctr.apply(&mut tail);
        assert_eq!(&tail[..], &stream[63..100]);
    }
}
