//! Secret sealing.
//!
//! Paper §VI, KI 27: "Instead of storing plaintext secrets in the image,
//! an encrypted secret can be provisioned to the NF image, which can only
//! be unsealed when the enclave environment can be verified." Sealing
//! binds ciphertext to enclave identity: `MRENCLAVE` policy restricts to
//! the exact build, `MRSIGNER` policy to any enclave from the same vendor
//! on the same platform.

use crate::enclave::Enclave;
use crate::HmeeError;
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::hmac::hmac_sha256;
use shield5g_sim::Env;

/// Key-binding policy for sealed data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealPolicy {
    /// Bind to the exact enclave measurement.
    MrEnclave,
    /// Bind to the signing identity (survives enclave upgrades).
    MrSigner,
}

/// A sealed blob, safe to store in an untrusted container image or volume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBlob {
    /// The policy the data was sealed under.
    pub policy: SealPolicy,
    /// Random nonce for the cipher.
    pub nonce: [u8; 16],
    /// AES-CTR ciphertext.
    pub ciphertext: Vec<u8>,
    /// Integrity tag.
    pub tag: [u8; 32],
}

fn seal_key(enclave: &Enclave, policy: SealPolicy) -> ([u8; 16], [u8; 32]) {
    // The platform derives seal_base from MRSIGNER; an MRENCLAVE policy
    // additionally mixes in the measurement, so different builds diverge.
    let context: &[u8] = match policy {
        SealPolicy::MrEnclave => enclave.mrenclave(),
        SealPolicy::MrSigner => b"signer-scope",
    };
    let key_material = hmac_sha256(enclave.seal_base(), context);
    let mut enc = [0u8; 16];
    enc.copy_from_slice(&key_material[..16]);
    let mac = hmac_sha256(&key_material, b"mac");
    (enc, mac)
}

/// Seals `plaintext` to `enclave`'s identity under `policy`.
#[must_use]
pub fn seal(env: &mut Env, enclave: &Enclave, policy: SealPolicy, plaintext: &[u8]) -> SealedBlob {
    let (enc_key, mac_key) = seal_key(enclave, policy);
    let nonce: [u8; 16] = env.rng.bytes();
    let mut ciphertext = plaintext.to_vec();
    Aes128::new(&enc_key).ctr_apply(&nonce, &mut ciphertext);
    let mut mac_input = nonce.to_vec();
    mac_input.push(match policy {
        SealPolicy::MrEnclave => 0,
        SealPolicy::MrSigner => 1,
    });
    mac_input.extend_from_slice(&ciphertext);
    let tag = hmac_sha256(&mac_key, &mac_input);
    SealedBlob {
        policy,
        nonce,
        ciphertext,
        tag,
    }
}

/// Unseals a blob inside `enclave`.
///
/// # Errors
///
/// Returns [`HmeeError::UnsealDenied`] when the enclave identity does not
/// match the sealing policy, or the blob was tampered with.
pub fn unseal(enclave: &Enclave, blob: &SealedBlob) -> Result<Vec<u8>, HmeeError> {
    let (enc_key, mac_key) = seal_key(enclave, blob.policy);
    let mut mac_input = blob.nonce.to_vec();
    mac_input.push(match blob.policy {
        SealPolicy::MrEnclave => 0,
        SealPolicy::MrSigner => 1,
    });
    mac_input.extend_from_slice(&blob.ciphertext);
    let expected = hmac_sha256(&mac_key, &mac_input);
    if !shield5g_crypto::ct_eq(&expected, &blob.tag) {
        return Err(HmeeError::UnsealDenied(
            "seal key mismatch (wrong enclave identity) or tampered blob".into(),
        ));
    }
    let mut plaintext = blob.ciphertext.clone();
    Aes128::new(&enc_key).ctr_apply(&blob.nonce, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;
    use crate::platform::SgxPlatform;

    fn setup() -> (Env, SgxPlatform) {
        let mut env = Env::new(31);
        let platform = SgxPlatform::new(&mut env);
        (env, platform)
    }

    #[test]
    fn seal_unseal_round_trip_mrenclave() {
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("a")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let blob = seal(&mut env, &e, SealPolicy::MrEnclave, b"tls-private-key");
        assert_ne!(blob.ciphertext, b"tls-private-key");
        assert_eq!(unseal(&e, &blob).unwrap(), b"tls-private-key");
    }

    #[test]
    fn mrenclave_policy_rejects_different_build() {
        let (mut env, platform) = setup();
        let a = EnclaveBuilder::new("a")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let b = EnclaveBuilder::new("b")
            .heap_bytes(8192)
            .build(&mut env, &platform)
            .unwrap();
        assert_ne!(a.mrenclave(), b.mrenclave());
        let blob = seal(&mut env, &a, SealPolicy::MrEnclave, b"secret");
        assert!(matches!(unseal(&b, &blob), Err(HmeeError::UnsealDenied(_))));
    }

    #[test]
    fn mrsigner_policy_survives_upgrade() {
        let (mut env, platform) = setup();
        let v1 = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .signer([3; 32])
            .build(&mut env, &platform)
            .unwrap();
        let v2 = EnclaveBuilder::new("svc")
            .heap_bytes(8192) // upgraded build, same vendor
            .signer([3; 32])
            .build(&mut env, &platform)
            .unwrap();
        let blob = seal(&mut env, &v1, SealPolicy::MrSigner, b"subscriber-db-key");
        assert_eq!(unseal(&v2, &blob).unwrap(), b"subscriber-db-key");
    }

    #[test]
    fn mrsigner_policy_rejects_other_vendor() {
        let (mut env, platform) = setup();
        let ours = EnclaveBuilder::new("svc")
            .signer([3; 32])
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let theirs = EnclaveBuilder::new("svc")
            .signer([4; 32])
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let blob = seal(&mut env, &ours, SealPolicy::MrSigner, b"secret");
        assert!(unseal(&theirs, &blob).is_err());
    }

    #[test]
    fn sealed_blob_does_not_unseal_on_other_platform() {
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let blob = seal(&mut env, &e, SealPolicy::MrEnclave, b"secret");
        let other_platform = SgxPlatform::new(&mut env);
        // Same build on a different host: platform root differs.
        let clone = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &other_platform)
            .unwrap();
        assert_eq!(e.mrenclave(), clone.mrenclave());
        assert!(unseal(&clone, &blob).is_err());
    }

    #[test]
    fn tampered_blob_rejected() {
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let mut blob = seal(&mut env, &e, SealPolicy::MrEnclave, b"secret");
        blob.ciphertext[0] ^= 1;
        assert!(unseal(&e, &blob).is_err());
    }

    #[test]
    fn policy_confusion_rejected() {
        // Re-labelling an MRENCLAVE blob as MRSIGNER must not open it.
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let mut blob = seal(&mut env, &e, SealPolicy::MrEnclave, b"secret");
        blob.policy = SealPolicy::MrSigner;
        assert!(unseal(&e, &blob).is_err());
    }

    #[test]
    fn distinct_nonces_randomise_ciphertext() {
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let b1 = seal(&mut env, &e, SealPolicy::MrEnclave, b"same");
        let b2 = seal(&mut env, &e, SealPolicy::MrEnclave, b"same");
        assert_ne!(b1.ciphertext, b2.ciphertext);
    }

    #[test]
    fn empty_plaintext_seals() {
        let (mut env, platform) = setup();
        let e = EnclaveBuilder::new("svc")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let blob = seal(&mut env, &e, SealPolicy::MrEnclave, b"");
        assert_eq!(unseal(&e, &blob).unwrap(), Vec::<u8>::new());
    }
}
