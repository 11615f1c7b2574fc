//! From-scratch cryptographic substrate for the shield5g reproduction of
//! *"Towards Shielding 5G Control Plane Functions"* (DSN 2024).
//!
//! The paper's P-AKA modules execute the 5G Authentication and Key Agreement
//! primitives inside SGX enclaves. This crate provides every primitive that
//! flow needs, implemented from first principles (the offline dependency set
//! carries no cipher crates) and validated against the published test
//! vectors:
//!
//! * [`aes`] — AES-128 (FIPS-197) with ECB block operations and CTR mode.
//! * [`sha256`] — SHA-256 (FIPS 180-4).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / RFC 4231 vectors).
//! * [`kdf`] — the 3GPP generic KDF (TS 33.220 Annex B) and ANSI X9.63 KDF.
//! * [`milenage`] — the MILENAGE algorithm set f1–f5* (TS 35.206, validated
//!   against the TS 35.207/35.208 conformance test sets).
//! * [`poly1305`] — the Poly1305 Carter–Wegman MAC (RFC 8439 §2.5), pad
//!   supplied by the caller (Poly1305-AES for EPC pages).
//! * [`x25519`] — Curve25519 Diffie–Hellman (RFC 7748).
//! * [`ecies`] — SUCI ECIES protection scheme Profile A (TS 33.501 Annex C).
//! * [`ident`] — SUPI / SUCI / 5G-GUTI subscriber identifiers.
//! * [`sqn`] — sequence-number management and re-synchronisation
//!   (TS 33.102 Annex C).
//! * [`keys`] — the 5G key hierarchy: K_AUSF, K_SEAF, K_AMF, RES*/XRES*,
//!   HXRES* and the HE/SE authentication vectors (TS 33.501 Annex A).
//! * [`secret`] — [`SecretBytes`]/[`Secret`] containers for key material:
//!   redacted `Debug`, constant-time equality, zeroize-on-drop.
//!
//! # Example
//!
//! Generating a home-environment authentication vector exactly as the
//! paper's eUDM P-AKA module does (Table I):
//!
//! ```rust
//! use shield5g_crypto::milenage::Milenage;
//! use shield5g_crypto::keys::{self, ServingNetworkName};
//!
//! # fn main() {
//! let k = [0x46u8; 16];
//! let op = [0xcd; 16];
//! let mil = Milenage::with_op(&k, &op);
//! let rand = [0x23; 16];
//! let sqn = [0, 0, 0, 0, 0, 1];
//! let amf = [0x80, 0x00];
//! let snn = ServingNetworkName::new("001", "01");
//! let av = keys::generate_he_av(&mil, &rand, &sqn, &amf, &snn);
//! assert_eq!(av.autn.len(), 16);
//! // K_AUSF is a 32-byte secret: comparable, never printable.
//! let kseaf = keys::derive_kseaf(&av.kausf, &snn);
//! assert_ne!(kseaf, av.kausf);
//! assert_eq!(format!("{:?}", av.kausf), "<redacted>");
//! # }
//! ```
//!
//! # Security note
//!
//! These implementations favour clarity over side-channel hardening: the
//! crate backs a *simulator* whose threat model (paper §III) explicitly
//! excludes side channels. Do not reuse it as a production cipher library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ecies;
pub mod hex;
pub mod hmac;
pub mod ident;
pub mod kdf;
pub mod keys;
pub mod milenage;
pub mod poly1305;
pub mod secret;
pub mod sha256;
pub mod sqn;
pub mod x25519;

pub use secret::{Secret, SecretBytes, Zeroize};

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An input had a length the algorithm cannot accept.
    InvalidLength {
        /// What was being parsed or processed.
        what: &'static str,
        /// The number of bytes the algorithm expected.
        expected: usize,
        /// The number of bytes actually supplied.
        actual: usize,
    },
    /// A message authentication code did not verify.
    MacMismatch,
    /// A key agreement produced the all-zero shared secret: the peer's
    /// public key is a low-order point (RFC 7748 §6.1), so the secret does
    /// not depend on our private key.
    LowOrderPoint,
    /// A received sequence number was outside the acceptable window
    /// (triggers re-synchronisation, TS 33.102 C.2).
    SqnOutOfRange {
        /// The SQN received from the network.
        received: u64,
        /// The highest SQN previously accepted by the peer.
        highest_accepted: u64,
    },
    /// The SUCI protection scheme identifier is not supported.
    UnknownScheme(u8),
    /// The home-network public key identifier is not provisioned.
    UnknownKeyId(u8),
    /// A subscriber identifier string failed to parse.
    MalformedIdentifier(String),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::InvalidLength { what, expected, actual } => {
                write!(f, "invalid length for {what}: expected {expected} bytes, got {actual}")
            }
            CryptoError::MacMismatch => write!(f, "message authentication code mismatch"),
            CryptoError::LowOrderPoint => write!(f, "low-order public key in key agreement"),
            CryptoError::SqnOutOfRange { received, highest_accepted } => write!(
                f,
                "sequence number {received} outside acceptance window (highest accepted {highest_accepted})"
            ),
            CryptoError::UnknownScheme(s) => write!(f, "unknown SUCI protection scheme {s:#04x}"),
            CryptoError::UnknownKeyId(id) => write!(f, "unknown home network key identifier {id}"),
            CryptoError::MalformedIdentifier(s) => write!(f, "malformed subscriber identifier: {s}"),
        }
    }
}

impl Error for CryptoError {}

/// Constant-time byte-slice equality.
///
/// Used wherever a MAC or tag is verified so that the simulator's shielded
/// code mirrors the comparison discipline real enclave code must follow.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_equal_slices() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_rejects_unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"a", b""));
    }

    #[test]
    fn error_display_is_lowercase_and_informative() {
        let e = CryptoError::InvalidLength {
            what: "RAND",
            expected: 16,
            actual: 3,
        };
        let s = e.to_string();
        assert!(s.contains("RAND"));
        assert!(s.contains("16"));
        assert!(s.contains('3'));
        assert!(CryptoError::MacMismatch.to_string().starts_with('m'));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
