//! Untrusted input into the home network's SUCI and AUTS paths.
//!
//! A SUCI's `scheme output` and an AUTS both arrive from the radio side,
//! so any byte string can reach `EciesCiphertext::from_bytes`,
//! `HomeNetworkKeyPair::deconceal` and `Auts::verify`. Each must answer
//! with a typed `CryptoError`, never a panic, and a refused input must
//! not disturb the key that refused it.

use proptest::prelude::*;
use shield5g_crypto::ecies::{conceal, EciesCiphertext, HomeNetworkKeyPair, MAC_LEN};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::sqn::Auts;
use shield5g_crypto::CryptoError;

/// A BCD-packed MSIN, as a SUCI conceals it.
const MSIN: [u8; 5] = [0x00, 0x00, 0x00, 0x00, 0x10];

fn home() -> HomeNetworkKeyPair {
    HomeNetworkKeyPair::from_private(1, [0x42; 32])
}

fn honest(hn: &HomeNetworkKeyPair) -> Vec<u8> {
    conceal(&MSIN, hn.public(), &[0x99; 32]).to_bytes()
}

/// What the home network does with a scheme output: parse, then open.
fn open(hn: &HomeNetworkKeyPair, bytes: &[u8]) -> Result<Vec<u8>, CryptoError> {
    EciesCiphertext::from_bytes(bytes).and_then(|ct| hn.deconceal(&ct))
}

#[test]
fn every_bit_flip_of_an_honest_ciphertext_is_refused() {
    let hn = home();
    let bytes = honest(&hn);
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        // Same length, so it parses; the opening must fail.
        let refused = open(&hn, &flipped);
        assert!(
            matches!(
                refused,
                Err(CryptoError::MacMismatch | CryptoError::LowOrderPoint)
            ),
            "bit {bit}: {refused:?}"
        );
    }
    // The refusals left the key pair as it was.
    assert_eq!(open(&hn, &bytes), Ok(MSIN.to_vec()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_scheme_output_is_refused_with_a_typed_error(
        bytes in proptest::collection::vec(0u8.., 0..96usize),
    ) {
        let hn = home();
        match EciesCiphertext::from_bytes(&bytes) {
            Ok(ct) => {
                prop_assert!(bytes.len() >= 32 + MAC_LEN);
                prop_assert_eq!(ct.to_bytes(), bytes);
                let refused = hn.deconceal(&ct);
                prop_assert!(
                    matches!(refused, Err(CryptoError::MacMismatch | CryptoError::LowOrderPoint)),
                    "{:?}", refused
                );
            }
            Err(e) => {
                prop_assert!(bytes.len() < 32 + MAC_LEN);
                let is_length_error = matches!(e, CryptoError::InvalidLength { .. });
                prop_assert!(is_length_error, "{:?}", e);
            }
        }
        prop_assert_eq!(open(&hn, &honest(&hn)), Ok(MSIN.to_vec()));
    }

    #[test]
    fn random_auts_is_a_mac_mismatch(
        sqn_ms_xor_ak in proptest::array::uniform6(0u8..),
        mac_s in proptest::array::uniform8(0u8..),
        rand in proptest::array::uniform16(0u8..),
    ) {
        let mil = Milenage::with_op(&[0x46; 16], &[0xcd; 16]);
        let auts = Auts { sqn_ms_xor_ak, mac_s };
        prop_assert_eq!(auts.verify(&mil, &rand), Err(CryptoError::MacMismatch));
    }
}
