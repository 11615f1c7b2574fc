//! SHA-256 (FIPS 180-4).
//!
//! Used by the 3GPP KDF (TS 33.220), HXRES* derivation (TS 33.501 A.5),
//! SUCI Profile A key derivation, enclave measurement (MRENCLAVE analogue)
//! and trusted-file hashing in the LibOS.
//!
//! # Implementation
//!
//! Every hash in the workspace — one-shot digests, streaming updates and
//! the HMAC pads' chaining states, hence HMAC, both KDFs, NAS MACs,
//! sim-TLS records, ECIES and the measurements — runs through one block
//! function, `compress`, in safe portable Rust. It expands the 16
//! big-endian message words to the 64-word schedule and adds `K[i]` in
//! once, then runs the 64 rounds straight-line, eight per step of a
//! `macro_rules!` round that rotates the register *names* instead of
//! moving eight values. A round computes `Σ1(e)` as
//! `((e ⋙ 14 ⊕ e) ⋙ 5 ⊕ e) ⋙ 6` and `Σ0(a)` as
//! `((a ⋙ 9 ⊕ a) ⋙ 11 ⊕ a) ⋙ 2` (three rotations each, two of them
//! sharing a term), `Ch` as `g ⊕ (e ∧ (f ⊕ g))` and `Maj` as
//! `b ⊕ ((a ⊕ b) ∧ (b ⊕ c))`, carrying `a ⊕ b` forward as the next
//! round's `b ⊕ c`. [`Sha256::update`] compresses the full blocks of its
//! input where they lie and buffers only a partial one.
//!
//! FIPS 180-4 §6.2.2 as written, one round per loop iteration, lives with
//! the tests as the differential reference: a property checks `compress`
//! against it on random `(state, block)` pairs, and the reference itself
//! hashes the NIST `"abc"` vector.
//!
//! ```rust
//! use shield5g_crypto::sha256::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(shield5g_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
//! ```

/// First 32 bits of the fractional parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Supports streaming input via [`Sha256::update`]; [`Sha256::digest`] is a
/// convenience for one-shot hashing.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl std::fmt::Debug for Sha256 {
    // The chaining state may be keyed (HMAC inner hash): redact it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("len", &self.len)
            .field("state", &"<redacted>")
            .finish()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// The chaining state after absorbing `block` alone (an HMAC pad).
    pub(crate) fn block_state(block: &[u8; 64]) -> [u32; 8] {
        let mut h = Self::new();
        h.update(block);
        h.state
    }

    /// A hasher past the one block whose [`Sha256::block_state`] is `state`.
    pub(crate) fn resume(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            len: 64,
            ..Self::new()
        }
    }

    /// Absorbs `data` into the hash state. Full blocks of `data` are
    /// compressed where they lie; only a partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len * 8;
        // Padding: 0x80, zeros up to 56 mod 64, 64-bit big-endian bit
        // length — at most 64 + 8 bytes, absorbed in one step.
        let zeros_end = if self.buf_len < 56 { 56 } else { 120 } - self.buf_len;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..zeros_end + 8]);
        debug_assert_eq!(self.buf_len, 0, "padding ends on a block boundary");
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 round over registers named in rotated order: the round
/// writes its new `a` into `$h` and its new `e` into `$d`, so the next
/// round takes the same names shifted by one instead of eight moves.
/// `$bc` holds `b ^ c` on entry and `a ^ b`, the next round's, on exit.
/// The module docs give the refactored `Σ1`, `Σ0`, `Ch` and `Maj`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $bc:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add((($e.rotate_right(14) ^ $e).rotate_right(5) ^ $e).rotate_right(6))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        let ab = $a ^ $b;
        let t2 = (($a.rotate_right(9) ^ $a).rotate_right(11) ^ $a)
            .rotate_right(2)
            .wrapping_add($b ^ (ab & $bc));
        $bc = ab;
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Compresses one block into `state`: the message schedule with `K`
/// folded in, then the 64 rounds eight at a time, straight-line.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    tests::count_compression();
    let mut w = [0u32; 64];
    for (w, c) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let mut kw = [0u32; 64];
    for ((kw, w), k) in kw.iter_mut().zip(w).zip(K) {
        *kw = w.wrapping_add(k);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut bc = b ^ c;
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, bc, kw[i]);
        round!(h, a, b, c, d, e, f, g, bc, kw[i + 1]);
        round!(g, h, a, b, c, d, e, f, bc, kw[i + 2]);
        round!(f, g, h, a, b, c, d, e, bc, kw[i + 3]);
        round!(e, f, g, h, a, b, c, d, bc, kw[i + 4]);
        round!(d, e, f, g, h, a, b, c, bc, kw[i + 5]);
        round!(c, d, e, f, g, h, a, b, bc, kw[i + 6]);
        round!(b, c, d, e, f, g, h, a, bc, kw[i + 7]);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;
    use std::cell::Cell;

    thread_local! {
        static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn count_compression() {
        COMPRESSIONS.with(|c| c.set(c.get() + 1));
    }

    /// The block compressions `f` performs on this thread.
    pub(crate) fn compressions<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = COMPRESSIONS.with(Cell::get);
        let out = f();
        (out, COMPRESSIONS.with(Cell::get) - before)
    }

    /// FIPS 180-4 §6.2.2 as written, one round per iteration: the
    /// differential oracle for [`compress`].
    fn reference_compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    #[test]
    fn the_reference_hashes_abc() {
        // "abc" padded by hand into its one block.
        let mut block = [0u8; 64];
        block[..4].copy_from_slice(b"abc\x80");
        block[63] = 24;
        let mut state = H0;
        reference_compress(&mut state, &block);
        let digest: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        assert_eq!(
            hex::encode(&digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn the_counter_sees_every_block() {
        // 55 bytes pad into one block, 56 into two; 64 + padding is two.
        for (len, blocks) in [(0, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            assert_eq!(compressions(|| Sha256::digest(&vec![7; len])).1, blocks);
        }
    }

    #[test]
    fn resume_continues_after_the_block() {
        let block = [0x36u8; 64];
        let mut h = Sha256::resume(Sha256::block_state(&block));
        h.update(b"tail");
        let mut whole = block.to_vec();
        whole.extend_from_slice(b"tail");
        assert_eq!(h.finalize(), Sha256::digest(&whole));
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex::encode(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        assert_eq!(
            hex::encode(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn exactly_block_sized_inputs() {
        // 55/56/64-byte inputs exercise every padding branch.
        for n in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; n];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "length {n}");
        }
    }

    proptest::proptest! {
        #[test]
        fn compress_is_the_reference(
            state in proptest::array::uniform8(0u32..),
            block in proptest::collection::vec(0u8.., 64),
        ) {
            let block: [u8; 64] = block.try_into().unwrap();
            let (mut fast, mut slow) = (state, state);
            compress(&mut fast, &block);
            reference_compress(&mut slow, &block);
            proptest::prop_assert_eq!(fast, slow);
        }

        #[test]
        fn chunked_update_is_equivalent(data in proptest::collection::vec(0u8.., 0..300), cuts in proptest::collection::vec(0usize..300, 0..5)) {
            let mut cuts = cuts.into_iter().map(|c| c % (data.len() + 1)).collect::<Vec<_>>();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut prev = 0;
            for c in cuts {
                h.update(&data[prev..c]);
                prev = c;
            }
            h.update(&data[prev..]);
            proptest::prop_assert_eq!(h.finalize(), Sha256::digest(&data));
        }
    }
}
