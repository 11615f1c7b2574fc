//! AES-128 block cipher (FIPS-197) with ECB block primitives and CTR mode.
//!
//! MILENAGE (TS 35.206) is defined directly over the AES-128 block
//! operation, the SUCI ECIES Profile A uses AES-128 in CTR mode, and the
//! HMEE simulator encrypts Enclave Page Cache pages and sim-TLS records with
//! CTR as well — so this module is the workhorse of the whole workspace.
//!
//! # Implementation
//!
//! There is one key schedule, held as big-endian column words
//! (`[[u32; 4]; 11]`, built by the word-oriented FIPS-197 expansion), and
//! one forward core behind [`Aes128::encrypt_block`] and
//! [`Aes128::ctr_apply`]. The state is four `u32` columns and a round is
//! sixteen lookups in four 256-entry tables — table `r` does
//! `SubBytes`/`MixColumns` for a row-`r` byte, so no lookup is rotated —
//! with the last round read from the same tables under byte masks. The
//! tables are computed at compile time from `SBOX`, so the S-box stays
//! the only hand-typed table.
//!
//! CTR mode caches what consecutive counters share (Bernstein–Schwabe,
//! *New AES software speed records*, INDOCRYPT 2008). Counter blocks that
//! differ only in their last byte — a *run*: all 256 blocks of an EPC
//! page, whose nonce is `version ‖ 0⁶⁴` — agree after round 0 in fifteen
//! bytes, after round 1 in three columns and in twelve of round 2's
//! sixteen lookups. A run computes those once; each of its blocks then
//! costs 1 + 4 + 7·16 + 16 = 133 lookups instead of 160. A run ends where
//! the low counter byte wraps, so any 128-bit initial counter block gives
//! the bytes of the plain block-by-block definition.
//!
//! Nothing in the workspace decrypts a block (CTR and MILENAGE run the
//! cipher forwards only), so the inverse cipher lives with the tests: a
//! byte-wise transcription of FIPS-197 that shares only the S-box and the
//! key schedule with the forward core, which makes the encrypt/decrypt
//! round-trip tests a differential check of one against the other.
//!
//! The code favours clarity over side-channel hardening: the S-box and the
//! 4 KiB of round tables are indexed by secret bytes, so neither direction
//! is constant-time with respect to the cache. The workspace's threat
//! model excludes side channels (DESIGN.md, "Boundaries and assets").
//!
//! # Example
//!
//! ```rust
//! use shield5g_crypto::aes::Aes128;
//!
//! let key = [0u8; 16];
//! let cipher = Aes128::new(&key);
//! let mut block = *b"sixteen byte blk";
//! let original = block;
//! cipher.encrypt_block(&mut block);
//! assert_ne!(block, original);
//! assert_eq!(block, cipher.encrypt_block_copy(&original));
//! ```

use crate::secret::{wipes_through, Secret, SecretBytes, ZeroizeOnDrop};

/// The AES S-box (FIPS-197 figure 7).
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

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication in GF(2^8) with the AES reduction polynomial `x^8 + x^4 + x^3 + x + 1`.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut bit = 0;
    while bit < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        bit += 1;
    }
    p
}

/// The forward round tables. `TABLES[0][x]` is the `MixColumns`
/// contribution of a row-0 byte `x` after `SubBytes`, i.e. the column
/// `(2·S[x], S[x], S[x], 3·S[x])` packed big-endian; `TABLES[r][x]` is the
/// same for a row-`r` byte, the entry rotated right by `8·r` bits.
static TABLES: [[u32; 256]; 4] = {
    let mut tables = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let column = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        let mut r = 0;
        while r < 4 {
            tables[r][x] = column.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    tables
};

/// An expanded AES-128 key.
///
/// Construction performs the full key schedule once; the per-block
/// operations then only read the schedule, a [`Secret`]: redacted in
/// `Debug`, wiped on drop.
#[derive(Clone, Debug)]
pub struct Aes128 {
    /// 11 round keys, each four big-endian column words.
    schedule: Secret<[[u32; 4]; 11]>,
}

/// Holders in other crates register through an `Aes128` field.
impl crate::secret::sealed::Sealed for Aes128 {}
impl ZeroizeOnDrop for Aes128 {}
const _: () = wipes_through(|a: &Aes128| &a.schedule);

impl Aes128 {
    /// Expands `key` into the 11-round AES-128 key schedule.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut schedule = [columns(u128::from_be_bytes(*key)); 11];
        for round in 1..11 {
            let previous = schedule[round - 1];
            // RotWord + SubWord + Rcon on the previous key's last word.
            let rotated = previous[3].rotate_left(8).to_be_bytes();
            let mut word = u32::from_be_bytes(rotated.map(|b| SBOX[b as usize]))
                ^ (u32::from(RCON[round - 1]) << 24);
            for c in 0..4 {
                word ^= previous[c];
                schedule[round][c] = word;
            }
        }
        Aes128 {
            schedule: Secret::new(schedule),
        }
    }

    /// Rounds `from..=10` of the forward cipher on column words: the full
    /// rounds up to 9, then the last, which has no `MixColumns` and takes
    /// the plain `S[x]` from whichever byte of a table entry holds it.
    /// Inlined so that `from` is a constant where the rounds run and the
    /// state stays in registers between them.
    #[inline(always)]
    fn finish(&self, from: usize, mut s: [u32; 4]) -> [u32; 4] {
        let schedule = self.schedule.expose();
        for round_key in &schedule[from..10] {
            s = round(s, round_key);
        }
        let mut t = schedule[10];
        for c in 0..4 {
            t[c] ^= (TABLES[2][(s[c] >> 24) as usize] & 0xff00_0000)
                ^ (TABLES[3][(s[(c + 1) % 4] >> 16) as u8 as usize] & 0x00ff_0000)
                ^ (TABLES[0][(s[(c + 2) % 4] >> 8) as u8 as usize] & 0x0000_ff00)
                ^ (TABLES[1][s[(c + 3) % 4] as u8 as usize] & 0x0000_00ff);
        }
        t
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// FIPS-197 stores the state column-major; a flat byte buffer in
    /// transmission order *is* that layout, so each column is one
    /// big-endian word of the block.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(test)]
        tests::count_block();
        let state = xor(
            columns(u128::from_be_bytes(*block)),
            self.schedule.expose()[0],
        );
        *block = join(self.finish(1, state)).to_be_bytes();
    }

    /// Encrypts a copy of `block` and returns it, leaving the input intact.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Applies AES-CTR keystream to `data` in place (encrypt == decrypt).
    ///
    /// `icb` is the initial counter block; the full 128-bit counter is
    /// incremented big-endian per block, as required by SP 800-38A and the
    /// SUCI Profile A key data layout (TS 33.501 C.3.4).
    ///
    /// The data is processed in runs of blocks whose counters differ only
    /// in the last byte. Rounds 0–2 are computed in full for a run's first
    /// counter; the lookups that byte reaches — one in round 1, through
    /// column 0 of its output four in round 2 — are XORed out of that
    /// state once and back in per block (the round is linear in its
    /// lookups).
    pub fn ctr_apply(&self, icb: &[u8; 16], data: &mut [u8]) {
        let schedule = self.schedule.expose();
        let mut counter = u128::from_be_bytes(*icb);
        let mut rest = data;
        while !rest.is_empty() {
            let run_bytes = 16 * (256 - usize::from(counter as u8));
            let (run, tail) = rest.split_at_mut(rest.len().min(run_bytes));
            rest = tail;
            let s = xor(columns(counter), schedule[0]);
            let mut t = round(s, &schedule[1]);
            t[0] ^= TABLES[3][s[3] as u8 as usize];
            let u = xor(round(t, &schedule[2]), column_0_lookups(t[0]));
            for chunk in run.chunks_mut(16) {
                #[cfg(test)]
                tests::count_block();
                let low = counter as u8 ^ schedule[0][3] as u8;
                let t0 = t[0] ^ TABLES[3][low as usize];
                let keystream = join(self.finish(3, xor(u, column_0_lookups(t0))));
                match <&mut [u8; 16]>::try_from(&mut *chunk) {
                    Ok(block) => *block = (u128::from_be_bytes(*block) ^ keystream).to_be_bytes(),
                    Err(_) => {
                        for (d, k) in chunk.iter_mut().zip(keystream.to_be_bytes()) {
                            *d ^= k;
                        }
                    }
                }
                counter = counter.wrapping_add(1);
            }
        }
    }
}

/// The schedule of a key held as a secret (a NAS ciphering key), with no
/// copy of its bytes outside the container.
impl From<&SecretBytes<16>> for Aes128 {
    fn from(key: &SecretBytes<16>) -> Self {
        Aes128::new(key.expose())
    }
}

/// One full round on column words. Column `c` of the output takes its
/// row-`r` byte from column `c + r` of the input (`ShiftRows`); the table
/// lookup does `SubBytes` and `MixColumns`.
fn round(s: [u32; 4], round_key: &[u32; 4]) -> [u32; 4] {
    let mut t = *round_key;
    for c in 0..4 {
        t[c] ^= TABLES[0][(s[c] >> 24) as usize]
            ^ TABLES[1][(s[(c + 1) % 4] >> 16) as u8 as usize]
            ^ TABLES[2][(s[(c + 2) % 4] >> 8) as u8 as usize]
            ^ TABLES[3][s[(c + 3) % 4] as u8 as usize];
    }
    t
}

/// What [`round`] looks up for the four bytes of input column 0, placed
/// in the output columns they reach.
fn column_0_lookups(s0: u32) -> [u32; 4] {
    [
        TABLES[0][(s0 >> 24) as usize],
        TABLES[3][s0 as u8 as usize],
        TABLES[2][(s0 >> 8) as u8 as usize],
        TABLES[1][(s0 >> 16) as u8 as usize],
    ]
}

/// Column-wise XOR of two states.
fn xor(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// Splits a block, read as one big-endian integer, into its four column
/// words.
fn columns(block: u128) -> [u32; 4] {
    [
        (block >> 96) as u32,
        (block >> 64) as u32,
        (block >> 32) as u32,
        block as u32,
    ]
}

/// Joins four column words back into a block.
fn join(columns: [u32; 4]) -> u128 {
    columns
        .iter()
        .fold(0, |block, &column| (block << 32) | u128::from(column))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;
    use std::cell::Cell;
    use std::sync::OnceLock;

    thread_local! {
        static BLOCKS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count_block() {
        BLOCKS.with(|c| c.set(c.get() + 1));
    }

    /// The blocks `f` encrypts on this thread, one per ECB block or CTR
    /// keystream block.
    pub(crate) fn blocks<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = BLOCKS.with(Cell::get);
        let out = f();
        (out, BLOCKS.with(Cell::get) - before)
    }

    #[test]
    fn the_counter_sees_every_block() {
        let cipher = Aes128::new(&[7; 16]);
        assert_eq!(blocks(|| cipher.encrypt_block_copy(&[0; 16])).1, 1);
        // 33 bytes of CTR are three keystream blocks, across a run end.
        let mut data = [0u8; 33];
        let icb = [0xff; 16];
        assert_eq!(blocks(|| cipher.ctr_apply(&icb, &mut data)).1, 3);
        assert_eq!(blocks(|| Aes128::new(&[7; 16])).1, 0);
    }

    /// The inverse S-box, derived from [`SBOX`] on first use so that no
    /// hand-transcribed second table can disagree with the first.
    fn inv_sbox() -> &'static [u8; 256] {
        static INV: OnceLock<[u8; 256]> = OnceLock::new();
        INV.get_or_init(|| {
            let mut inv = [0u8; 256];
            for (i, &s) in SBOX.iter().enumerate() {
                inv[s as usize] = i as u8;
            }
            inv
        })
    }

    /// The inverse cipher, FIPS-197 step by step: the forward core's
    /// differential reference.
    impl Aes128 {
        fn add_round_key(state: &mut [u8; 16], round_key: &[u32; 4]) {
            *state = (u128::from_be_bytes(*state) ^ join(*round_key)).to_be_bytes();
        }

        fn inv_sub_bytes(state: &mut [u8; 16]) {
            let inv = inv_sbox();
            for s in state.iter_mut() {
                *s = inv[*s as usize];
            }
        }

        /// State layout follows FIPS-197: byte `i` of the block sits at row
        /// `i % 4`, column `i / 4`; `InvShiftRows` rotates row `r` right by `r`.
        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
                }
            }
        }

        fn inv_mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = gmul(col[0], 0x0e)
                    ^ gmul(col[1], 0x0b)
                    ^ gmul(col[2], 0x0d)
                    ^ gmul(col[3], 0x09);
                state[4 * c + 1] = gmul(col[0], 0x09)
                    ^ gmul(col[1], 0x0e)
                    ^ gmul(col[2], 0x0b)
                    ^ gmul(col[3], 0x0d);
                state[4 * c + 2] = gmul(col[0], 0x0d)
                    ^ gmul(col[1], 0x09)
                    ^ gmul(col[2], 0x0e)
                    ^ gmul(col[3], 0x0b);
                state[4 * c + 3] = gmul(col[0], 0x0b)
                    ^ gmul(col[1], 0x0d)
                    ^ gmul(col[2], 0x09)
                    ^ gmul(col[3], 0x0e);
            }
        }

        /// Decrypts one 16-byte block in place.
        fn decrypt_block(&self, block: &mut [u8; 16]) {
            Self::add_round_key(block, &self.schedule.expose()[10]);
            for round in (1..10).rev() {
                Self::inv_shift_rows(block);
                Self::inv_sub_bytes(block);
                Self::add_round_key(block, &self.schedule.expose()[round]);
                Self::inv_mix_columns(block);
            }
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.schedule.expose()[0]);
        }
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        let key = hex::decode_array::<16>("000102030405060708090a0b0c0d0e0f").unwrap();
        let mut block = hex::decode_array::<16>("00112233445566778899aabbccddeeff").unwrap();
        let cipher = Aes128::new(&key);
        cipher.encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        cipher.decrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn nist_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, block 1.
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let mut block = hex::decode_array::<16>("6bc1bee22e409f96e93d7e117393172a").unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(hex::encode(&block), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    #[test]
    fn nist_ctr_vector() {
        // SP 800-38A F.5.1 CTR-AES128.Encrypt, blocks 1-4.
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let icb = hex::decode_array::<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").unwrap();
        let mut data = hex::decode(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ))
        .unwrap();
        Aes128::new(&key).ctr_apply(&icb, &mut data);
        assert_eq!(
            hex::encode(&data),
            concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            )
        );
    }

    #[test]
    fn ctr_round_trip_partial_block() {
        let cipher = Aes128::new(&[7u8; 16]);
        let icb = [9u8; 16];
        let mut data = b"nineteen byte input".to_vec();
        let original = data.clone();
        cipher.ctr_apply(&icb, &mut data);
        assert_ne!(data, original);
        cipher.ctr_apply(&icb, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn ctr_counter_wraps_across_byte_boundary() {
        // The counter is one 128-bit big-endian integer: the carry out of
        // the low 8, 32 and 64 bits propagates, the carry out of all 128
        // wraps to zero. Expected counters are incremented by hand.
        let cipher = Aes128::new(&[1u8; 16]);
        for (icb, next) in [
            (
                "000000000000000000000000000000ff",
                "00000000000000000000000000000100",
            ),
            (
                "000102030405060708090a0bffffffff",
                "000102030405060708090a0c00000000",
            ),
            (
                "0001020304050607ffffffffffffffff",
                "00010203040506080000000000000000",
            ),
            (
                "ffffffffffffffffffffffffffffffff",
                "00000000000000000000000000000000",
            ),
        ] {
            let icb = hex::decode_array::<16>(icb).unwrap();
            let next = hex::decode_array::<16>(next).unwrap();
            let mut data = [0u8; 32];
            cipher.ctr_apply(&icb, &mut data);
            assert_eq!(data[..16], cipher.encrypt_block_copy(&icb));
            assert_eq!(data[16..], cipher.encrypt_block_copy(&next));
        }
    }

    #[test]
    fn key_schedule_first_words_match_fips197_appendix_a() {
        let key = hex::decode_array::<16>("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let cipher = Aes128::new(&key);
        // w[0..44] of FIPS-197 Appendix A.1, four words per round key.
        let expected = [
            "2b7e151628aed2a6abf7158809cf4f3c",
            "a0fafe1788542cb123a339392a6c7605",
            "f2c295f27a96b9435935807a7359f67f",
            "3d80477d4716fe3e1e237e446d7a883b",
            "ef44a541a8525b7fb671253bdb0bad00",
            "d4d1c6f87c839d87caf2b8bc11f915bc",
            "6d88a37a110b3efddbf98641ca0093fd",
            "4e54f70e5f5fc9f384a64fb24ea6dc4f",
            "ead27321b58dbad2312bf5607f8d292f",
            "ac7766f319fadc2128d12941575c006e",
            "d014f9a8c9ee2589e13f0cc8b6630ca6",
        ];
        for (round, (round_key, expected)) in
            cipher.schedule.expose().iter().zip(expected).enumerate()
        {
            let bytes = join(*round_key).to_be_bytes();
            assert_eq!(hex::encode(&bytes), expected, "round key {round}");
        }
    }

    #[test]
    fn inverse_sbox_is_consistent() {
        let inv = inv_sbox();
        for i in 0..=255u8 {
            assert_eq!(inv[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn debug_redacts_key_material() {
        let s = format!("{:?}", Aes128::new(&[0x42; 16]));
        assert!(s.contains("redacted"));
        assert!(!s.contains("42, 42"));
    }

    #[test]
    fn gmul_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 section 4.2 example).
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    proptest::proptest! {
        #[test]
        fn encrypt_then_decrypt_is_identity(key in proptest::array::uniform16(0u8..), pt in proptest::array::uniform16(0u8..)) {
            let cipher = Aes128::new(&key);
            let mut block = pt;
            cipher.encrypt_block(&mut block);
            cipher.decrypt_block(&mut block);
            proptest::prop_assert_eq!(block, pt);
        }

        #[test]
        fn ctr_is_an_involution(key in proptest::array::uniform16(0u8..), icb in proptest::array::uniform16(0u8..), data in proptest::collection::vec(0u8.., 0..200)) {
            let cipher = Aes128::new(&key);
            let mut buf = data.clone();
            cipher.ctr_apply(&icb, &mut buf);
            cipher.ctr_apply(&icb, &mut buf);
            proptest::prop_assert_eq!(buf, data);
        }

        #[test]
        fn ctr_over_a_prefix_is_the_prefix_of_ctr_over_the_whole(key in proptest::array::uniform16(0u8..), icb in proptest::array::uniform16(0u8..), data in proptest::collection::vec(0u8.., 0..200), cut in 0usize..200) {
            // The keystream is seekable from the start: the EPC vault
            // decrypts only the bytes of a page that hold the value.
            let cipher = Aes128::new(&key);
            let cut = cut % (data.len() + 1);
            let mut whole = data.clone();
            cipher.ctr_apply(&icb, &mut whole);
            let mut prefix = data[..cut].to_vec();
            cipher.ctr_apply(&icb, &mut prefix);
            proptest::prop_assert_eq!(&prefix[..], &whole[..cut]);
        }

        #[test]
        fn ctr_is_the_block_by_block_definition(
            key in proptest::array::uniform16(0u8..),
            icb in proptest::array::uniform16(0u8..),
            low in 0xf0u8..=0xff,
            saturated in 0usize..5,
            data in proptest::collection::vec(0u8.., 0..=9000),
        ) {
            // The reference knows nothing of runs: one `encrypt_block_copy`
            // per counter. The ICB is biased so that the low byte wraps
            // within sixteen blocks and the carry then crosses 8, 32, 64 or
            // all 128 bits (0, 3, 7 or 15 bytes of 0xff above it), with one
            // case in five left uniform; 9000 bytes span up to two more
            // run boundaries.
            let mut icb = icb;
            if let Some(&ones) = [0, 3, 7, 15].get(saturated) {
                icb[15 - ones..15].fill(0xff);
                icb[15] = low;
            }
            let cipher = Aes128::new(&key);
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(16).enumerate() {
                let counter = u128::from_be_bytes(icb).wrapping_add(i as u128);
                let keystream = cipher.encrypt_block_copy(&counter.to_be_bytes());
                for (d, k) in chunk.iter_mut().zip(keystream) {
                    *d ^= k;
                }
            }
            let mut actual = data;
            cipher.ctr_apply(&icb, &mut actual);
            proptest::prop_assert_eq!(actual, expected);
        }
    }
}
