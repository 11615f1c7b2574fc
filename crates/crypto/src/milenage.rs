//! The MILENAGE algorithm set (3GPP TS 35.205/35.206): the example
//! authentication and key-generation functions f1, f1*, f2, f3, f4, f5 and
//! f5* used by the 5G-AKA procedure.
//!
//! These are exactly the functions the paper loads into the eUDM P-AKA
//! enclave (Table I lists "f1, f2345" as the derivations executed inside),
//! and that the COTS UE's USIM evaluates on its side of the mutual
//! authentication.
//!
//! Every function of one RAND starts from the same block,
//! `TEMP = E_K(RAND ⊕ OPc)`. The public functions compute it per call;
//! the crate's challenge paths ([`crate::keys::generate_he_av`] and
//! [`crate::keys::ue_process_challenge`], which need f1 and f2345 of one
//! RAND) compute it once and pass it to both, so a challenge costs five
//! AES blocks (TEMP, OUT1..OUT4), not six. TEMP is held as a
//! [`SecretBytes`] and wiped when dropped.
//!
//! Validated against Test Set 1 of TS 35.207/35.208.
//!
//! ```rust
//! use shield5g_crypto::milenage::Milenage;
//! let mil = Milenage::with_op(&[0x46; 16], &[0xcd; 16]);
//! let out = mil.f2345(&[0x23; 16]);
//! assert_eq!(out.res.len(), 8);
//! // CK and IK are 16-byte secrets: comparable, never printable.
//! assert_ne!(out.ck, out.ik);
//! assert_eq!(format!("{:?}", out.ck), "<redacted>");
//! ```

use crate::aes::Aes128;
use crate::secret::{wipes_through, SecretBytes, Zeroize, ZeroizeOnDrop};

/// MILENAGE rotation amounts in bytes (`r1..r5` = 64, 0, 32, 64, 96 bits).
const ROT: [usize; 5] = [8, 0, 4, 8, 12];

/// MILENAGE additive constants `c1..c5`: `c_i` has bit `i-1` of the last
/// byte set (c1 = 0, c2 = 1, c3 = 2, c4 = 4, c5 = 8).
const C_LAST_BYTE: [u8; 5] = [0, 1, 2, 4, 8];

/// Output of the combined `f2`/`f3`/`f4`/`f5` computation.
///
/// TS 35.206 computes all four from the same intermediate `TEMP` block, so
/// they are returned together (the paper's Table I "f2345" entry).
#[derive(Clone, PartialEq, Eq)]
pub struct F2345Output {
    /// `f2`: the 64-bit signed response RES.
    pub res: [u8; 8],
    /// `f3`: the 128-bit cipher key CK (zeroizes on drop).
    pub ck: SecretBytes<16>,
    /// `f4`: the 128-bit integrity key IK (zeroizes on drop).
    pub ik: SecretBytes<16>,
    /// `f5`: the 48-bit anonymity key AK (zeroizes on drop).
    pub ak: SecretBytes<6>,
}

impl core::fmt::Debug for F2345Output {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("F2345Output")
            .field("keys", &"<redacted>")
            .finish()
    }
}

/// A MILENAGE instance bound to a subscriber key `K` and operator constant.
#[derive(Clone, Debug)]
pub struct Milenage {
    aes: Aes128,
    opc: SecretBytes<16>,
}

/// Holders in other crates register through a `Milenage` field.
impl crate::secret::sealed::Sealed for Milenage {}
impl ZeroizeOnDrop for Milenage {}
const _: () = wipes_through(|m: &Milenage| &m.opc);

impl Milenage {
    /// Builds an instance from the subscriber key and the operator variant
    /// algorithm configuration field `OP`, deriving `OPc = E_K(OP) ⊕ OP`.
    /// Public for `tests/hostile_input.rs`.
    #[must_use]
    pub fn with_op(k: &[u8; 16], op: &[u8; 16]) -> Self {
        let aes = Aes128::new(k);
        let mut opc = aes.encrypt_block_copy(op);
        for (o, p) in opc.iter_mut().zip(op.iter()) {
            *o ^= p;
        }
        Milenage {
            aes,
            opc: SecretBytes::new(opc),
        }
    }

    /// Builds an instance from the subscriber key and a pre-computed `OPc`.
    ///
    /// This is the form credential stores hold (the UDR never stores raw
    /// `OP`), and the form the paper sends into the eUDM enclave (Table I
    /// input parameter `OPc`, 16 bytes).
    #[must_use]
    pub fn with_opc(k: &[u8; 16], opc: &[u8; 16]) -> Self {
        Milenage {
            aes: Aes128::new(k),
            opc: SecretBytes::new(*opc),
        }
    }

    /// [`Milenage::with_opc`] over a `K` and `OPc` held as secrets: the
    /// form a network function or P-AKA module keys it from.
    #[must_use]
    pub fn new(k: &SecretBytes<16>, opc: &SecretBytes<16>) -> Self {
        Self::with_opc(k.expose(), opc.expose())
    }

    /// `TEMP = E_K(RAND ⊕ OPc)`, the block every function of one RAND
    /// starts from. Held as a secret, so it is wiped when dropped.
    pub(crate) fn temp(&self, rand: &[u8; 16]) -> SecretBytes<16> {
        let mut t = *rand;
        for (b, o) in t.iter_mut().zip(self.opc.expose().iter()) {
            *b ^= o;
        }
        let temp = SecretBytes::new(self.aes.encrypt_block_copy(&t));
        t.zeroize();
        temp
    }

    /// `OUT_i = E_K(rot(TEMP ⊕ OPc, r_i) ⊕ c_i) ⊕ OPc` for i in 2..=5.
    fn out_i(&self, temp: &SecretBytes<16>, i: usize) -> [u8; 16] {
        debug_assert!((2..=5).contains(&i));
        let (temp, opc) = (temp.expose(), self.opc.expose());
        let mut x = [0u8; 16];
        let rot = ROT[i - 1];
        for j in 0..16 {
            x[j] = temp[(j + rot) % 16] ^ opc[(j + rot) % 16];
        }
        x[15] ^= C_LAST_BYTE[i - 1];
        let mut out = self.aes.encrypt_block_copy(&x);
        for (o, p) in out.iter_mut().zip(opc.iter()) {
            *o ^= p;
        }
        out
    }

    /// `OUT1` shared by f1 and f1*.
    fn out1(&self, temp: &SecretBytes<16>, sqn: &[u8; 6], amf: &[u8; 2]) -> [u8; 16] {
        let mut in1 = [0u8; 16];
        in1[0..6].copy_from_slice(sqn);
        in1[6..8].copy_from_slice(amf);
        in1[8..14].copy_from_slice(sqn);
        in1[14..16].copy_from_slice(amf);
        // rot(IN1 ⊕ OPc, r1) with r1 = 64 bits = 8 bytes.
        let opc = self.opc.expose();
        let mut x = [0u8; 16];
        for j in 0..16 {
            x[j] = in1[(j + ROT[0]) % 16] ^ opc[(j + ROT[0]) % 16];
        }
        // c1 = 0, so only XOR TEMP in.
        for (b, t) in x.iter_mut().zip(temp.expose().iter()) {
            *b ^= t;
        }
        let mut out = self.aes.encrypt_block_copy(&x);
        for (o, p) in out.iter_mut().zip(opc.iter()) {
            *o ^= p;
        }
        out
    }

    /// `f1`: network authentication code MAC-A (64 bits), from the RAND's
    /// [`Milenage::temp`].
    pub(crate) fn f1_of(&self, temp: &SecretBytes<16>, sqn: &[u8; 6], amf: &[u8; 2]) -> [u8; 8] {
        let mut mac_a = [0u8; 8];
        mac_a.copy_from_slice(&self.out1(temp, sqn, amf)[0..8]);
        mac_a
    }

    /// `f1*`: re-synchronisation message authentication code MAC-S (64 bits).
    #[must_use]
    pub(crate) fn f1_star(&self, rand: &[u8; 16], sqn: &[u8; 6], amf: &[u8; 2]) -> [u8; 8] {
        let mut mac_s = [0u8; 8];
        mac_s.copy_from_slice(&self.out1(&self.temp(rand), sqn, amf)[8..16]);
        mac_s
    }

    /// `f2`, `f3`, `f4`, `f5` computed together from one RAND.
    #[must_use]
    pub fn f2345(&self, rand: &[u8; 16]) -> F2345Output {
        self.f2345_of(&self.temp(rand))
    }

    /// [`Milenage::f2345`] from the RAND's [`Milenage::temp`].
    pub(crate) fn f2345_of(&self, temp: &SecretBytes<16>) -> F2345Output {
        let out2 = self.out_i(temp, 2);
        let out3 = self.out_i(temp, 3);
        let out4 = self.out_i(temp, 4);
        let mut res = [0u8; 8];
        res.copy_from_slice(&out2[8..16]);
        let mut ak = [0u8; 6];
        ak.copy_from_slice(&out2[0..6]);
        F2345Output {
            res,
            ck: SecretBytes::new(out3),
            ik: SecretBytes::new(out4),
            ak: SecretBytes::new(ak),
        }
    }

    /// `f5*`: the re-synchronisation anonymity key AK (48 bits).
    #[must_use]
    pub(crate) fn f5_star(&self, rand: &[u8; 16]) -> [u8; 6] {
        let mut ak = [0u8; 6];
        ak.copy_from_slice(&self.out_i(&self.temp(rand), 5)[0..6]);
        ak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// TS 35.207 / 35.208 Test Set 1.
    fn test_set_1() -> (Milenage, [u8; 16], [u8; 6], [u8; 2]) {
        let k = hex::decode_array::<16>("465b5ce8b199b49faa5f0a2ee238a6bc").unwrap();
        let op = hex::decode_array::<16>("cdc202d5123e20f62b6d676ac72cb318").unwrap();
        let rand = hex::decode_array::<16>("23553cbe9637a89d218ae64dae47bf35").unwrap();
        let sqn = hex::decode_array::<6>("ff9bb4d0b607").unwrap();
        let amf = hex::decode_array::<2>("b9b9").unwrap();
        (Milenage::with_op(&k, &op), rand, sqn, amf)
    }

    #[test]
    fn test_set_1_opc() {
        let (mil, _, _, _) = test_set_1();
        assert_eq!(
            hex::encode(mil.opc.expose()),
            "cd63cb71954a9f4e48a5994e37a02baf"
        );
    }

    #[test]
    fn test_set_1_f1_and_f1_star() {
        let (mil, rand, sqn, amf) = test_set_1();
        assert_eq!(
            hex::encode(&mil.f1_of(&mil.temp(&rand), &sqn, &amf)),
            "4a9ffac354dfafb3"
        );
        assert_eq!(
            hex::encode(&mil.f1_star(&rand, &sqn, &amf)),
            "01cfaf9ec4e871e9"
        );
    }

    #[test]
    fn test_set_1_f2345() {
        let (mil, rand, _, _) = test_set_1();
        let out = mil.f2345(&rand);
        assert_eq!(hex::encode(&out.res), "a54211d5e3ba50bf");
        assert_eq!(
            hex::encode(out.ck.expose()),
            "b40ba9a3c58b2a05bbf0d987b21bf8cb"
        );
        assert_eq!(
            hex::encode(out.ik.expose()),
            "f769bcd751044604127672711c6d3441"
        );
        assert_eq!(hex::encode(out.ak.expose()), "aa689c648370");
    }

    #[test]
    fn test_set_1_f5_star() {
        let (mil, rand, _, _) = test_set_1();
        assert_eq!(hex::encode(&mil.f5_star(&rand)), "451e8beca43b");
    }

    #[test]
    fn with_opc_matches_with_op() {
        let (mil, rand, sqn, amf) = test_set_1();
        let k = hex::decode_array::<16>("465b5ce8b199b49faa5f0a2ee238a6bc").unwrap();
        let opc = *mil.opc.expose();
        let mil2 = Milenage::with_opc(&k, &opc);
        assert_eq!(
            mil.f1_of(&mil.temp(&rand), &sqn, &amf),
            mil2.f1_of(&mil2.temp(&rand), &sqn, &amf)
        );
        assert_eq!(mil.f2345(&rand).res, mil2.f2345(&rand).res);
    }

    #[test]
    fn mac_a_differs_from_mac_s() {
        let (mil, rand, sqn, amf) = test_set_1();
        assert_ne!(
            mil.f1_of(&mil.temp(&rand), &sqn, &amf),
            mil.f1_star(&rand, &sqn, &amf)
        );
    }

    #[test]
    fn sqn_changes_mac_but_not_res() {
        let (mil, rand, sqn, amf) = test_set_1();
        let mut sqn2 = sqn;
        sqn2[5] ^= 1;
        assert_ne!(
            mil.f1_of(&mil.temp(&rand), &sqn, &amf),
            mil.f1_of(&mil.temp(&rand), &sqn2, &amf)
        );
        // f2..f5 do not depend on SQN at all.
        assert_eq!(mil.f2345(&rand).res, mil.f2345(&rand).res);
    }

    #[test]
    fn debug_output_redacts_secrets() {
        let (mil, rand, _, _) = test_set_1();
        assert!(format!("{mil:?}").contains("redacted"));
        assert!(format!("{:?}", mil.f2345(&rand)).contains("redacted"));
    }

    proptest::proptest! {
        #[test]
        fn distinct_rand_gives_distinct_vectors(
            k in proptest::array::uniform16(0u8..),
            op in proptest::array::uniform16(0u8..),
            r1 in proptest::array::uniform16(0u8..),
            r2 in proptest::array::uniform16(0u8..),
        ) {
            proptest::prop_assume!(r1 != r2);
            let mil = Milenage::with_op(&k, &op);
            // RES collision over distinct RANDs would mean AES is broken.
            proptest::prop_assert_ne!(mil.f2345(&r1).ck, mil.f2345(&r2).ck);
        }

        #[test]
        fn f2345_is_deterministic(k in proptest::array::uniform16(0u8..), op in proptest::array::uniform16(0u8..), rand in proptest::array::uniform16(0u8..)) {
            let mil = Milenage::with_op(&k, &op);
            let a = mil.f2345(&rand);
            let b = mil.f2345(&rand);
            proptest::prop_assert_eq!(a, b);
        }
    }
}
