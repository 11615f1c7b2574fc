//! The 5G key-derivation hierarchy and authentication vectors
//! (TS 33.501 Annex A).
//!
//! These are precisely the computations the paper moves into enclaves
//! (Table I):
//!
//! * eUDM P-AKA: `f1`, `f2345`, K_AUSF, AUTN → the HE AV,
//! * eAUSF P-AKA: HXRES*, K_SEAF → the SE AV,
//! * eAMF P-AKA: K_AMF.
//!
//! The UE-side mirror ([`ue_process_challenge`]) verifies AUTN and derives
//! RES*/K_AUSF/K_SEAF like a USIM + ME would, which the OTA feasibility
//! test exercises end to end.
//!
//! The [`ServingNetworkName`] they bind is an inline 32-byte value, built
//! by network functions and the UE from a validated PLMN
//! ([`ServingNetworkName::of`]), by tests from literal codes (`new`).

use crate::hmac::HmacKey;
use crate::ident::Plmn;
use crate::kdf::kdf_3gpp;
use crate::milenage::Milenage;
use crate::secret::{SecretBytes, Zeroize};
use crate::sha256::Sha256;
use crate::{ct_eq, CryptoError};

/// FC values from TS 33.501 Annex A.
mod fc {
    pub(crate) const KAUSF: u8 = 0x6A;
    pub(crate) const RES_STAR: u8 = 0x6B;
    pub(crate) const KSEAF: u8 = 0x6C;
    pub(crate) const KAMF: u8 = 0x6D;
    pub(crate) const NAS_ALG: u8 = 0x69;
}

/// The Serving Network Name: `5G:mnc<MNC>.mcc<MCC>.3gppnetwork.org`
/// with the MNC zero-padded to three digits (TS 24.501 §9.12.1), held
/// inline: always exactly 32 bytes (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServingNetworkName([u8; 32]);

impl ServingNetworkName {
    /// The SNN of a serving PLMN: what every network function and UE binds
    /// its keys to.
    #[must_use]
    pub fn of(plmn: &Plmn) -> Self {
        let mnc = plmn.mnc().as_bytes();
        let mut name = *b"5G:mnc000.mcc000.3gppnetwork.org";
        name[9 - mnc.len()..9].copy_from_slice(mnc);
        name[13..16].copy_from_slice(plmn.mcc().as_bytes());
        ServingNetworkName(name)
    }

    /// The SNN of literal MCC/MNC codes. Codes that are not a PLMN give
    /// `5G:mnc???.mcc???.3gppnetwork.org`, a name no PLMN has and no
    /// decoder accepts.
    #[must_use]
    pub fn new(mcc: &str, mnc: &str) -> Self {
        let nowhere = ServingNetworkName(*b"5G:mnc???.mcc???.3gppnetwork.org");
        Plmn::new(mcc, mnc).map_or(nowhere, |plmn| Self::of(&plmn))
    }

    /// The SNN as the byte string fed into key derivations.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for ServingNetworkName {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = core::str::from_utf8(&self.0).unwrap_or_default();
        write!(f, "ServingNetworkName({name:?})")
    }
}

impl core::fmt::Display for ServingNetworkName {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(core::str::from_utf8(&self.0).unwrap_or_default())
    }
}

/// The Home Environment Authentication Vector generated by the UDM
/// (paper Figure 5 / Table I eUDM outputs).
#[derive(Clone, PartialEq, Eq)]
pub struct HeAv {
    /// Network challenge.
    pub rand: [u8; 16],
    /// Authentication token `SQN⊕AK || AMF || MAC-A`.
    pub autn: [u8; 16],
    /// Expected response (zeroizes on drop: the AUSF holds it until the
    /// UE answers).
    pub xres_star: SecretBytes<16>,
    /// Key shared between UDM and AUSF (zeroizes on drop; wire encoding
    /// goes through `shield5g_nf::wire::Wire`).
    pub kausf: SecretBytes<32>,
}

impl core::fmt::Debug for HeAv {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HeAv")
            .field("rand", &crate::hex::encode(&self.rand))
            .field("autn", &crate::hex::encode(&self.autn))
            .field("xres_star", &"<redacted>")
            .field("kausf", &"<redacted>")
            .finish()
    }
}

/// The Security Edge AV the AUSF hands the AMF (Figure 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeAv {
    /// Network challenge (forwarded).
    pub rand: [u8; 16],
    /// Authentication token (forwarded).
    pub autn: [u8; 16],
    /// Hashed expected response.
    pub hxres_star: [u8; 16],
}

/// `CK||IK`, the key of both K_AUSF and RES*, prepared once for the two.
fn ck_ik_key(ck: &[u8; 16], ik: &[u8; 16]) -> HmacKey {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(ck);
    key[16..].copy_from_slice(ik);
    let prepared = HmacKey::new(&key);
    key.zeroize();
    prepared
}

/// K_AUSF (TS 33.501 A.2): `KDF(CK||IK, 0x6A, SNN, SQN⊕AK)`, under
/// `CK||IK` prepared once.
#[must_use]
pub(crate) fn derive_kausf(
    ck_ik: &HmacKey,
    snn: &ServingNetworkName,
    sqn_xor_ak: &[u8; 6],
) -> [u8; 32] {
    kdf_3gpp(ck_ik, fc::KAUSF, &[snn.as_bytes(), sqn_xor_ak])
}

/// RES*/XRES* (TS 33.501 A.4): the 128 least-significant bits of
/// `KDF(CK||IK, 0x6B, SNN, RAND, RES)`, under `CK||IK` prepared once.
#[must_use]
pub(crate) fn derive_res_star(
    ck_ik: &HmacKey,
    snn: &ServingNetworkName,
    rand: &[u8; 16],
    res: &[u8; 8],
) -> [u8; 16] {
    let out = kdf_3gpp(ck_ik, fc::RES_STAR, &[snn.as_bytes(), rand, res]);
    core::array::from_fn(|i| out[16 + i])
}

/// HXRES* (TS 33.501 A.5): the 128 most-significant bits of
/// `SHA-256(RAND || XRES*)`. The SEAF hashes the UE's RES* the same way.
#[must_use]
pub fn derive_hxres_star(rand: &[u8; 16], xres_star: &SecretBytes<16>) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(rand);
    h.update(xres_star.expose());
    let digest = h.finalize();
    core::array::from_fn(|i| digest[i])
}

/// K_SEAF (TS 33.501 A.6): `KDF(K_AUSF, 0x6C, SNN)`.
#[must_use]
pub fn derive_kseaf(kausf: &SecretBytes<32>, snn: &ServingNetworkName) -> SecretBytes<32> {
    SecretBytes::new(kdf_3gpp(
        &HmacKey::from(kausf),
        fc::KSEAF,
        &[snn.as_bytes()],
    ))
}

/// K_AMF (TS 33.501 A.7): `KDF(K_SEAF, 0x6D, SUPI, ABBA)`.
#[must_use]
pub fn derive_kamf(kseaf: &SecretBytes<32>, supi: &str, abba: &[u8; 2]) -> SecretBytes<32> {
    SecretBytes::new(kdf_3gpp(
        &HmacKey::from(kseaf),
        fc::KAMF,
        &[supi.as_bytes(), abba],
    ))
}

/// NAS algorithm key (TS 33.501 A.8): 128 LSBs of
/// `KDF(K_AMF, 0x69, algorithm type distinguisher, algorithm identity)`.
///
/// `alg_type` is 0x01 for NAS encryption and 0x02 for NAS integrity; the
/// two share K_AMF, prepared once.
#[must_use]
pub fn derive_nas_key(kamf: &HmacKey, alg_type: u8, alg_id: u8) -> SecretBytes<16> {
    let out = kdf_3gpp(kamf, fc::NAS_ALG, &[&[alg_type], &[alg_id]]);
    SecretBytes::new(core::array::from_fn(|i| out[16 + i]))
}

/// Assembles AUTN = `(SQN ⊕ AK) || AMF || MAC-A` (TS 33.102 §6.3.2).
#[must_use]
pub(crate) fn build_autn(sqn: &[u8; 6], ak: &[u8; 6], amf: &[u8; 2], mac_a: &[u8; 8]) -> [u8; 16] {
    let mut autn = [0u8; 16];
    for i in 0..6 {
        autn[i] = sqn[i] ^ ak[i];
    }
    autn[6..8].copy_from_slice(amf);
    autn[8..].copy_from_slice(mac_a);
    autn
}

/// Splits an AUTN into `(SQN⊕AK, AMF, MAC-A)`.
#[must_use]
pub(crate) fn split_autn(autn: &[u8; 16]) -> ([u8; 6], [u8; 2], [u8; 8]) {
    (
        core::array::from_fn(|i| autn[i]),
        [autn[6], autn[7]],
        core::array::from_fn(|i| autn[8 + i]),
    )
}

/// The full HE-AV generation the paper's eUDM P-AKA module performs from
/// the Table I inputs `(OPc via mil, RAND, SQN, AMF)`.
#[must_use]
pub fn generate_he_av(
    mil: &Milenage,
    rand: &[u8; 16],
    sqn: &[u8; 6],
    amf: &[u8; 2],
    snn: &ServingNetworkName,
) -> HeAv {
    let temp = mil.temp(rand);
    let mac_a = mil.f1_of(&temp, sqn, amf);
    let out = mil.f2345_of(&temp);
    drop(temp);
    let ak = out.ak.expose();
    let autn = build_autn(sqn, ak, amf, &mac_a);
    let mut sqn_xor_ak = [0u8; 6];
    for i in 0..6 {
        sqn_xor_ak[i] = sqn[i] ^ ak[i];
    }
    let ck_ik = ck_ik_key(out.ck.expose(), out.ik.expose());
    HeAv {
        rand: *rand,
        autn,
        xres_star: SecretBytes::new(derive_res_star(&ck_ik, snn, rand, &out.res)),
        kausf: SecretBytes::new(derive_kausf(&ck_ik, snn, &sqn_xor_ak)),
    }
}

/// What the UE derives from a successful challenge.
#[derive(Clone, PartialEq, Eq)]
pub struct UeChallengeResult {
    /// The sequence number recovered from AUTN (pre-window-check).
    pub sqn: [u8; 6],
    /// The response RES* the UE returns to the network.
    pub res_star: [u8; 16],
    /// UE-side K_AUSF (zeroizes on drop).
    pub kausf: SecretBytes<32>,
    /// UE-side K_SEAF (zeroizes on drop).
    pub kseaf: SecretBytes<32>,
}

impl core::fmt::Debug for UeChallengeResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("UeChallengeResult")
            .field("keys", &"<redacted>")
            .finish()
    }
}

/// UE-side processing of an authentication challenge (TS 33.501 §6.1.3.2):
/// recover SQN, verify MAC-A, derive RES* and the key hierarchy.
///
/// The SQN freshness *window* check is the caller's job (it needs the
/// USIM's [`crate::sqn::SqnVerifier`] state); this function performs the
/// cryptographic verification only.
///
/// # Errors
///
/// Returns [`CryptoError::MacMismatch`] when MAC-A fails, meaning the
/// challenge was not produced by the home network for this RAND/SQN.
pub fn ue_process_challenge(
    mil: &Milenage,
    rand: &[u8; 16],
    autn: &[u8; 16],
    snn: &ServingNetworkName,
) -> Result<UeChallengeResult, CryptoError> {
    let (sqn_xor_ak, amf, mac_a) = split_autn(autn);
    let temp = mil.temp(rand);
    let out = mil.f2345_of(&temp);
    let ak = out.ak.expose();
    let mut sqn = [0u8; 6];
    for i in 0..6 {
        sqn[i] = sqn_xor_ak[i] ^ ak[i];
    }
    let expected_mac = mil.f1_of(&temp, &sqn, &amf);
    drop(temp);
    if !ct_eq(&expected_mac, &mac_a) {
        return Err(CryptoError::MacMismatch);
    }
    let ck_ik = ck_ik_key(out.ck.expose(), out.ik.expose());
    let kausf = SecretBytes::new(derive_kausf(&ck_ik, snn, &sqn_xor_ak));
    Ok(UeChallengeResult {
        sqn,
        res_star: derive_res_star(&ck_ik, snn, rand, &out.res),
        kseaf: derive_kseaf(&kausf, snn),
        kausf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mil() -> Milenage {
        Milenage::with_op(&[0x46; 16], &[0xcd; 16])
    }

    fn snn() -> ServingNetworkName {
        ServingNetworkName::new("001", "01")
    }

    #[test]
    fn snn_format_pads_mnc() {
        assert_eq!(snn().to_string(), "5G:mnc001.mcc001.3gppnetwork.org");
        assert_eq!(
            ServingNetworkName::new("310", "260").to_string(),
            "5G:mnc260.mcc310.3gppnetwork.org"
        );
    }

    #[test]
    fn codes_that_are_no_plmn_name_no_network() {
        for (mcc, mnc) in [("!!", "01"), ("0001", "01"), ("001", "1")] {
            assert_eq!(
                ServingNetworkName::new(mcc, mnc).to_string(),
                "5G:mnc???.mcc???.3gppnetwork.org"
            );
        }
        let plmn = Plmn::new("310", "260").unwrap();
        assert_eq!(
            ServingNetworkName::of(&plmn),
            ServingNetworkName::new("310", "260")
        );
    }

    #[test]
    fn autn_round_trip() {
        let autn = build_autn(&[1; 6], &[2; 6], &[0x80, 0], &[9; 8]);
        let (sqn_xor_ak, amf, mac) = split_autn(&autn);
        assert_eq!(sqn_xor_ak, [3; 6]);
        assert_eq!(amf, [0x80, 0]);
        assert_eq!(mac, [9; 8]);
    }

    #[test]
    fn he_av_and_ue_agree_end_to_end() {
        // The core 5G-AKA property: honest UDM and honest UE derive
        // identical RES*/XRES* and K_AUSF/K_SEAF.
        let mil = mil();
        let rand = [0x23; 16];
        let sqn = [0, 0, 0, 0, 1, 7];
        let amf = [0x80, 0x00];
        let av = generate_he_av(&mil, &rand, &sqn, &amf, &snn());
        let ue = ue_process_challenge(&mil, &rand, &av.autn, &snn()).unwrap();
        assert_eq!(ue.sqn, sqn);
        assert_eq!(ue.res_star, av.xres_star);
        assert_eq!(ue.kausf, av.kausf);
        assert_eq!(ue.kseaf, derive_kseaf(&av.kausf, &snn()));
    }

    #[test]
    fn hxres_matches_on_both_sides() {
        let mil = mil();
        let rand = [0x23; 16];
        let av = generate_he_av(&mil, &rand, &[0; 6], &[0x80, 0], &snn());
        let ue = ue_process_challenge(&mil, &rand, &av.autn, &snn()).unwrap();
        // SEAF verifies HXRES* = SHA-256(RAND || RES*)[0..16].
        assert_eq!(
            derive_hxres_star(&rand, &av.xres_star),
            derive_hxres_star(&rand, &SecretBytes::new(ue.res_star))
        );
    }

    #[test]
    fn tampered_autn_rejected_by_ue() {
        let mil = mil();
        let rand = [0x23; 16];
        let mut av = generate_he_av(&mil, &rand, &[0; 6], &[0x80, 0], &snn());
        av.autn[9] ^= 0x40; // corrupt MAC-A
        assert_eq!(
            ue_process_challenge(&mil, &rand, &av.autn, &snn()),
            Err(CryptoError::MacMismatch)
        );
    }

    #[test]
    fn wrong_subscriber_key_rejected() {
        let mil = mil();
        let impostor = Milenage::with_op(&[0x47; 16], &[0xcd; 16]);
        let rand = [0x23; 16];
        let av = generate_he_av(&mil, &rand, &[0; 6], &[0x80, 0], &snn());
        assert!(ue_process_challenge(&impostor, &rand, &av.autn, &snn()).is_err());
    }

    #[test]
    fn serving_network_binds_keys() {
        // Same AV material under a different SNN yields different keys —
        // the anti-bidding-down property of 5G-AKA.
        let mil = mil();
        let rand = [0x23; 16];
        let snn_a = ServingNetworkName::new("001", "01");
        let snn_b = ServingNetworkName::new("310", "260");
        let av_a = generate_he_av(&mil, &rand, &[0; 6], &[0x80, 0], &snn_a);
        let av_b = generate_he_av(&mil, &rand, &[0; 6], &[0x80, 0], &snn_b);
        assert_ne!(av_a.kausf, av_b.kausf);
        assert_ne!(av_a.xres_star, av_b.xres_star);
    }

    #[test]
    fn kamf_depends_on_supi_and_abba() {
        let kseaf = SecretBytes::new([0x11; 32]);
        let k1 = derive_kamf(&kseaf, "imsi-001010000000001", &[0, 0]);
        let k2 = derive_kamf(&kseaf, "imsi-001010000000002", &[0, 0]);
        let k3 = derive_kamf(&kseaf, "imsi-001010000000001", &[0, 1]);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn nas_keys_are_distinct_per_type_and_alg() {
        let kamf = HmacKey::new(&[0x22; 32]);
        let enc = derive_nas_key(&kamf, 0x01, 2);
        let int = derive_nas_key(&kamf, 0x02, 2);
        let enc_alg1 = derive_nas_key(&kamf, 0x01, 1);
        assert_ne!(enc, int);
        assert_ne!(enc, enc_alg1);
    }

    /// The AES blocks and SHA-256 compressions `f` performs.
    fn work<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        let ((out, compressions), blocks) =
            crate::aes::tests::blocks(|| crate::sha256::tests::compressions(f));
        (out, blocks, compressions)
    }

    #[test]
    fn an_he_av_costs_five_blocks_and_seven_compressions() {
        // MILENAGE: TEMP, OUT1 and OUT2..OUT4. SHA-256: CK||IK keyed once
        // (2), RES* (3: a 63-byte S string), K_AUSF (2).
        let mil = mil();
        let (_, blocks, compressions) =
            work(|| generate_he_av(&mil, &[0x23; 16], &[0; 6], &[0x80, 0], &snn()));
        assert_eq!((blocks, compressions), (5, 7));
    }

    #[test]
    fn a_ue_challenge_costs_five_blocks_and_eleven_compressions() {
        // The five blocks of the HE AV, and its seven compressions plus
        // K_SEAF: K_AUSF keyed (2) and a 35-byte S string (2).
        let mil = mil();
        let (rand, snn) = ([0x23; 16], snn());
        let av = generate_he_av(&mil, &rand, &[0, 0, 0, 0, 0, 1], &[0x80, 0], &snn);
        let (ue, blocks, compressions) = work(|| ue_process_challenge(&mil, &rand, &av.autn, &snn));
        assert_eq!(ue.unwrap().res_star, av.xres_star);
        assert_eq!((blocks, compressions), (5, 11));
    }

    #[test]
    fn derivations_match_the_written_out_kdf() {
        // Each derivation is HMAC-SHA-256 over its S string, whether the
        // key was prepared by the caller or inside the helper.
        let (ck, ik) = ([0x01; 16], [0x02; 16]);
        let mut ck_ik = ck.to_vec();
        ck_ik.extend_from_slice(&ik);
        let snn = snn();
        let s = |fc: u8, params: &[&[u8]]| {
            let mut s = vec![fc];
            for p in params {
                s.extend_from_slice(p);
                s.extend_from_slice(&(p.len() as u16).to_be_bytes());
            }
            s
        };
        let hmac = crate::hmac::hmac_sha256;
        let key = ck_ik_key(&ck, &ik);
        assert_eq!(
            derive_kausf(&key, &snn, &[3; 6]),
            hmac(&ck_ik, &s(0x6A, &[snn.as_bytes(), &[3; 6]]))
        );
        assert_eq!(
            derive_res_star(&key, &snn, &[4; 16], &[5; 8])[..],
            hmac(&ck_ik, &s(0x6B, &[snn.as_bytes(), &[4; 16], &[5; 8]]))[16..]
        );
        assert_eq!(
            derive_kseaf(&SecretBytes::new([6; 32]), &snn),
            hmac(&[6; 32], &s(0x6C, &[snn.as_bytes()]))
        );
        assert_eq!(
            derive_kamf(&SecretBytes::new([7; 32]), "imsi-001010000000001", &[0, 0]),
            hmac(&[7; 32], &s(0x6D, &[b"imsi-001010000000001", &[0, 0]]))
        );
        assert_eq!(
            derive_nas_key(&HmacKey::new(&[8; 32]), 0x02, 2).expose()[..],
            hmac(&[8; 32], &s(0x69, &[&[0x02], &[2]]))[16..]
        );
    }

    proptest::proptest! {
        #[test]
        fn av_generation_is_deterministic(rand in proptest::array::uniform16(0u8..), sqn in proptest::array::uniform6(0u8..), amf in proptest::array::uniform2(0u8..)) {
            let sqn: [u8; 6] = sqn;
            let mil = mil();
            let a = generate_he_av(&mil, &rand, &sqn, &amf, &snn());
            let b = generate_he_av(&mil, &rand, &sqn, &amf, &snn());
            proptest::prop_assert_eq!(a, b);
        }

        #[test]
        fn ue_always_accepts_honest_av(rand in proptest::array::uniform16(0u8..), sqn in proptest::array::uniform6(0u8..)) {
            let sqn: [u8; 6] = sqn;
            let mil = mil();
            let av = generate_he_av(&mil, &rand, &sqn, &[0x80, 0], &snn());
            let ue = ue_process_challenge(&mil, &rand, &av.autn, &snn()).unwrap();
            proptest::prop_assert_eq!(ue.sqn, sqn);
            proptest::prop_assert_eq!(ue.res_star, av.xres_star);
        }
    }
}
