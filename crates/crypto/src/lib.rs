//! # fv-crypto — AES-128 in counter mode, from scratch
//!
//! Farview's system-support encryption operator is "128-bit AES in counter
//! mode" (§5.5): data rests encrypted in disaggregated memory (Cypherbase
//! style) and the FPGA de/encrypts at line rate on the stream. The CPU
//! baselines use "the same encryption/decryption scheme through the
//! Cryptopp library" (§6.7).
//!
//! This crate is the shared functional implementation for both sides: a
//! from-scratch, table-driven FIPS-197 AES-128 block cipher ([`Aes128`]
//! — safe Rust, not constant-time, a simulation substrate rather than a
//! production cipher) and NIST SP 800-38A counter mode ([`AesCtr`],
//! keystream in 64-byte strides). The *timing* difference between the
//! FPGA operator (free, hidden behind the stream) and the CPU baseline
//! (bounded by `fv_sim::calib::CPU_AES_BW`) is charged by the respective
//! engines, not here.
//!
//! CTR mode means encryption and decryption are the same keystream XOR,
//! random access is cheap (seek by block index), and the operator is
//! fully parallel — exactly the properties the paper's hardware exploits.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod aes;
mod ctr;

pub use aes::Aes128;
pub use ctr::AesCtr;

/// Convenience: encrypt (or decrypt — CTR is symmetric) `data` in place
/// with the given key and initial counter block, starting at stream
/// offset `byte_offset`.
pub fn ctr_apply_at(key: &[u8; 16], iv: &[u8; 16], byte_offset: u64, data: &mut [u8]) {
    let mut ctr = AesCtr::new(Aes128::new(key), *iv);
    ctr.seek(byte_offset);
    ctr.apply(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctr_apply_at_is_an_involution() {
        let key = [7u8; 16];
        let iv = [9u8; 16];
        let original: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut buf = original.clone();
        ctr_apply_at(&key, &iv, 0, &mut buf);
        assert_ne!(buf, original, "ciphertext must differ");
        ctr_apply_at(&key, &iv, 0, &mut buf);
        assert_eq!(buf, original, "CTR twice must be identity");
    }

    #[test]
    fn seeking_matches_full_stream() {
        let key = [1u8; 16];
        let iv = [2u8; 16];
        let mut whole = vec![0u8; 256];
        ctr_apply_at(&key, &iv, 0, &mut whole);

        // Decrypting only the tail with the right offset must agree.
        let mut tail = whole[100..].to_vec();
        ctr_apply_at(&key, &iv, 100, &mut tail);
        assert!(tail.iter().all(|&b| b == 0));
    }
}
