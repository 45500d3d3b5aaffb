//! The encryption/decryption system-support operator (§5.5).
//!
//! "We have implemented encryption as an operator using 128-bit AES in
//! counter mode. Since the AES module is fully parallelized and
//! pipelined, it can operate at full network bandwidth." Functionally it
//! is a seekable CTR keystream XOR over the byte stream; the zero
//! throughput cost is charged (or rather, *not* charged) by the region's
//! timing model, reproducing Figure 11(b).

use crate::spec::CryptoSpec;
use fv_crypto::{Aes128, AesCtr};

/// A streaming CTR cipher positioned at the current stream offset.
#[derive(Debug, Clone)]
pub struct StreamCrypto {
    ctr: AesCtr,
}

impl StreamCrypto {
    /// Build from key material.
    pub fn new(spec: &CryptoSpec) -> Self {
        StreamCrypto {
            ctr: AesCtr::new(Aes128::new(&spec.key), spec.iv),
        }
    }

    /// XOR the keystream into `data`, advancing the stream offset.
    pub fn apply(&mut self, data: &mut [u8]) {
        self.ctr.apply(data);
    }

    /// Rewind to stream offset 0.
    pub fn reset(&mut self) {
        self.ctr.seek(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CryptoSpec {
        CryptoSpec {
            key: [0x2b; 16],
            iv: [0xf0; 16],
        }
    }

    #[test]
    fn decrypt_of_encrypt_is_identity_across_chunks() {
        let plain: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();

        // Encrypt in one pass.
        let mut enc = StreamCrypto::new(&spec());
        let mut cipher = plain.clone();
        enc.apply(&mut cipher);
        assert_ne!(cipher, plain);

        // Decrypt in uneven chunks, as bursts arrive.
        let mut dec = StreamCrypto::new(&spec());
        let mut recovered = cipher.clone();
        let mut pos = 0;
        for sz in [64usize, 129, 7, 300] {
            let end = (pos + sz).min(recovered.len());
            dec.apply(&mut recovered[pos..end]);
            pos = end;
        }
        dec.apply(&mut recovered[pos..]);
        assert_eq!(recovered, plain);
    }

    #[test]
    fn different_keys_differ() {
        let mut a = StreamCrypto::new(&spec());
        let mut b = StreamCrypto::new(&CryptoSpec {
            key: [0x2c; 16],
            iv: [0xf0; 16],
        });
        let mut x = vec![0u8; 64];
        let mut y = vec![0u8; 64];
        a.apply(&mut x);
        b.apply(&mut y);
        assert_ne!(x, y);
    }
}
