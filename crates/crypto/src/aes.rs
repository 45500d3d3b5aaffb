//! FIPS-197 AES-128 block cipher, table-driven.
//!
//! The cipher state is four big-endian column words (FIPS-197 §3.4:
//! byte `4c + r` of a block is row `r` of column `c`). A middle round is
//! sixteen lookups into four 256-entry `u32` tables that fuse SubBytes,
//! ShiftRows and MixColumns — `TE0[x]` is the MixColumns image of a
//! column holding `S[x]` in row 0, and `TE1..TE3` are the same word
//! rotated for rows 1..3 — and the last round, which has no MixColumns,
//! goes through the S-box alone. The tables are computed from the S-box
//! at compile time (4 KiB of read-only data) and the key schedule runs
//! on the same words. Counter mode asks for several blocks per call
//! ([`Aes128::encrypt_blocks`]); they are encrypted one after another —
//! their rounds are independent, so the core overlaps them by itself,
//! whereas stepping four states abreast measured a third slower (sixteen
//! live state words do not fit the register file).
//!
//! **Not constant-time.** Table indices depend on key and data, so the
//! cipher leaks through cache timing — the same class of leak as the
//! S-box lookups of the byte-wise cipher this replaces, only wider. This
//! is the functional substrate of a simulator (the simulated FPGA
//! charges line-rate timing regardless, the CPU baseline a calibrated
//! software rate), not a production cipher; `#![forbid(unsafe_code)]`
//! rules out AES-NI.
//!
//! Only encryption is implemented: counter mode never runs the inverse
//! cipher (decryption XORs the same keystream). The textbook byte-wise
//! rounds survive as `reference`, compiled for tests only, where they
//! are the oracle the tables are checked against.

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (if b & 0x80 != 0 { 0x1b } else { 0 })
}

/// The round table for row `row`: entry `x` is the MixColumns column
/// `({02}·S[x], S[x], S[x], {03}·S[x])` rotated down by `row` rows.
#[expect(
    clippy::indexing_slicing,
    reason = "the loop runs `x` over 0..256, the table length"
)]
const fn round_table(row: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        table[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]).rotate_right(8 * row);
        x += 1;
    }
    table
}

static TE0: [u32; 256] = round_table(0);
static TE1: [u32; 256] = round_table(1);
static TE2: [u32; 256] = round_table(2);
static TE3: [u32; 256] = round_table(3);

/// The one place a round table is indexed: a `u8` cannot be out of
/// bounds of 256 entries, so this compiles to a bare load.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "a `u8` index cannot leave a 256-entry table"
)]
fn lut(t: &[u32; 256], b: u8) -> u32 {
    t[usize::from(b)]
}

#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "a `u8` index cannot leave a 256-entry table"
)]
fn sub_byte(b: u8) -> u8 {
    SBOX[usize::from(b)]
}

/// Cipher state and round key: four big-endian column words.
type Block = [u32; 4];

#[inline]
fn to_words(block: u128) -> Block {
    [
        (block >> 96) as u32,
        (block >> 64) as u32,
        (block >> 32) as u32,
        block as u32,
    ]
}

#[inline]
fn from_words([a, b, c, d]: Block) -> u128 {
    (u128::from(a) << 96) | (u128::from(b) << 64) | (u128::from(c) << 32) | u128::from(d)
}

#[inline]
fn add_round_key([a, b, c, d]: Block, [k0, k1, k2, k3]: &Block) -> Block {
    [a ^ k0, b ^ k1, c ^ k2, d ^ k3]
}

/// ShiftRows, by selection: the four bytes that land in each output
/// column (row `r` of column `c` comes from column `c + r`).
#[inline]
fn shift_rows([a, b, c, d]: Block) -> [[u8; 4]; 4] {
    let column = |r0: u32, r1: u32, r2: u32, r3: u32| {
        [
            (r0 >> 24) as u8,
            (r1 >> 16) as u8,
            (r2 >> 8) as u8,
            r3 as u8,
        ]
    };
    [
        column(a, b, c, d),
        column(b, c, d, a),
        column(c, d, a, b),
        column(d, a, b, c),
    ]
}

/// One middle round: SubBytes, ShiftRows, MixColumns, AddRoundKey.
#[inline]
fn round(state: Block, rk: &Block) -> Block {
    let mixed = shift_rows(state)
        .map(|[r0, r1, r2, r3]| lut(&TE0, r0) ^ lut(&TE1, r1) ^ lut(&TE2, r2) ^ lut(&TE3, r3));
    add_round_key(mixed, rk)
}

/// The last round: SubBytes, ShiftRows, AddRoundKey (no MixColumns).
#[inline]
fn final_round(state: Block, rk: &Block) -> Block {
    let substituted = shift_rows(state).map(|column| u32::from_be_bytes(column.map(sub_byte)));
    add_round_key(substituted, rk)
}

/// An expanded AES-128 key (11 round keys of four column words).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [Block; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Aes128 {{ .. }}")
    }
}

impl Aes128 {
    /// Expand a 128-bit cipher key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = to_words(u128::from_be_bytes(*key));
        let mut round_keys = [rk; 11];
        for (slot, rcon) in round_keys.iter_mut().skip(1).zip(RCON) {
            let [w0, w1, w2, w3] = rk;
            // RotWord + SubWord + Rcon on the previous key's last word;
            // each word then chains off the one before it.
            let t = u32::from_be_bytes(w3.rotate_left(8).to_be_bytes().map(sub_byte))
                ^ (u32::from(rcon) << 24);
            let n0 = w0 ^ t;
            let n1 = w1 ^ n0;
            let n2 = w2 ^ n1;
            rk = [n0, n1, n2, w3 ^ n2];
            *slot = rk;
        }
        Aes128 { round_keys }
    }

    /// Encrypt `N` independent blocks, each a big-endian 128-bit integer
    /// (`u128::from_be_bytes` of the block's bytes).
    #[inline]
    pub(crate) fn encrypt_blocks<const N: usize>(&self, blocks: [u128; N]) -> [u128; N] {
        let [first, middle @ .., last] = &self.round_keys;
        blocks.map(|b| {
            let mut state = add_round_key(to_words(b), first);
            for rk in middle {
                state = round(state, rk);
            }
            from_words(final_round(state, last))
        })
    }

    /// Encrypt a copy of `block`.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let [out] = self.encrypt_blocks([u128::from_be_bytes(*block)]);
        out.to_be_bytes()
    }
}

/// The byte-wise FIPS-197 cipher — S-box substitution, row shifts,
/// GF(2^8) column mixing, byte key schedule — exactly as the standard
/// writes it. Tests only: the differential oracle for the tables above.
#[cfg(test)]
pub(crate) mod reference {
    use super::{xtime, RCON, SBOX};

    /// SplitMix64: the seeded stream the differential properties draw
    /// keys, blocks and lengths from.
    pub(crate) fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Sixteen bytes of [`splitmix`].
    pub(crate) fn random_block(state: &mut u64) -> [u8; 16] {
        let wide = (u128::from(splitmix(state)) << 64) | u128::from(splitmix(state));
        wide.to_be_bytes()
    }

    /// Expand `key` into 11 round keys of 16 bytes.
    pub(crate) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon.
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        round_keys
    }

    /// Encrypt one block under `key`.
    pub(crate) fn encrypt(key: &[u8; 16], block: &[u8; 16]) -> [u8; 16] {
        let round_keys = expand_key(key);
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[10]);
        state
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major (FIPS-197 §3.4): byte `state[4c + r]` is row
    /// r, column c. ShiftRows rotates row r left by r.
    pub(crate) fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: left rotate by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: left rotate by 2 (two swaps).
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: left rotate by 3 (= right rotate by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let a0 = col[0];
            let a1 = col[1];
            let a2 = col[2];
            let a3 = col[3];
            let all = a0 ^ a1 ^ a2 ^ a3;
            col[0] = a0 ^ all ^ xtime(a0 ^ a1);
            col[1] = a1 ^ all ^ xtime(a1 ^ a2);
            col[2] = a2 ^ all ^ xtime(a2 ^ a3);
            col[3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::random_block;
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// FIPS-197 Appendix B / C.1 example vector.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt(&pt);
        assert_eq!(ct.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(reference::encrypt(&key, &pt), ct);
    }

    /// FIPS-197 Appendix B vector (the worked example).
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let pt: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            aes.encrypt(&pt).to_vec(),
            hex("3925841d02dc09fbdc118597196a0b32")
        );
    }

    /// Key schedule spot check: last round key of the FIPS-197 Appendix A
    /// key expansion, as column words — and every round key against the
    /// byte-wise schedule.
    #[test]
    fn key_schedule_last_round_key() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            aes.round_keys[10],
            [0xd014_f9a8, 0xc9ee_2589, 0xe13f_0cc8, 0xb663_0ca6]
        );
        for (words, bytes) in aes.round_keys.iter().zip(reference::expand_key(&key)) {
            assert_eq!(from_words(*words).to_be_bytes(), bytes);
        }
    }

    /// The tables against the textbook rounds: one random key per 50
    /// random blocks, 1 000 blocks in all, one at a time and four abreast.
    #[test]
    fn tables_match_bytewise_reference() {
        let mut rng = 0xfa27_1e77u64;
        for _ in 0..20 {
            let key = random_block(&mut rng);
            let aes = Aes128::new(&key);
            let blocks: Vec<[u8; 16]> = (0..50).map(|_| random_block(&mut rng)).collect();
            for block in &blocks {
                assert_eq!(aes.encrypt(block), reference::encrypt(&key, block));
            }
            for four in blocks.chunks_exact(4) {
                let abreast =
                    aes.encrypt_blocks::<4>(std::array::from_fn(|i| u128::from_be_bytes(four[i])));
                for (out, block) in abreast.iter().zip(four) {
                    assert_eq!(out.to_be_bytes(), reference::encrypt(&key, block));
                }
            }
        }
    }

    /// Each round table is the first rotated down one more row, and its
    /// entries are the MixColumns column of the S-box output.
    #[test]
    fn round_tables_are_rotations_of_the_first() {
        for x in 0..=255u8 {
            let s = SBOX[usize::from(x)];
            let [r0, r1, r2, r3] = lut(&TE0, x).to_be_bytes();
            assert_eq!([r0, r1, r2, r3], [xtime(s), s, s, xtime(s) ^ s]);
            assert_eq!(lut(&TE1, x), lut(&TE0, x).rotate_right(8));
            assert_eq!(lut(&TE2, x), lut(&TE0, x).rotate_right(16));
            assert_eq!(lut(&TE3, x), lut(&TE0, x).rotate_right(24));
        }
    }

    #[test]
    fn xtime_known_values() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x47), 0x8e);
        assert_eq!(xtime(0x8e), 0x07);
    }

    #[test]
    fn shift_rows_permutation() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        reference::shift_rows(&mut s);
        // Column-major: row r of column c was s[4c+r]. After ShiftRows,
        // state'[4c+r] = s[4*((c+r) mod 4) + r].
        let expected: [u8; 16] = core::array::from_fn(|i| {
            let (c, r) = (i / 4, i % 4);
            (4 * ((c + r) % 4) + r) as u8
        });
        assert_eq!(s, expected);
        // The word form selects the same bytes.
        let identity = to_words(u128::from_be_bytes(core::array::from_fn(|i| i as u8)));
        assert_eq!(shift_rows(identity).concat(), expected);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0u8; 16]);
        assert_eq!(format!("{aes:?}"), "Aes128 {{ .. }}");
    }

    #[test]
    fn encryption_is_injective_on_distinct_blocks() {
        let aes = Aes128::new(&[3u8; 16]);
        let mut outs = std::collections::HashSet::new();
        for i in 0..64u8 {
            let mut block = [0u8; 16];
            block[0] = i;
            assert!(outs.insert(aes.encrypt(&block)), "collision at {i}");
        }
    }
}
