//! Secret-material containers: zeroize-on-drop, redacted `Debug`,
//! constant-time comparison, and no way to read the bytes from outside
//! this crate.
//!
//! The paper's threat model (§III) assumes an attacker who can read VNF
//! memory and logs; the enclave split keeps long-lived keys out of both.
//! On the simulation side the equivalent discipline is *type-level*:
//! every struct field that stores key material (K, OPc, K_AUSF, K_SEAF,
//! K_AMF, CK/IK, NAS keys, HMAC key blocks, ECIES private scalars) holds
//! a [`SecretBytes`] instead of a bare array, so
//!
//! * `{:?}`/`{}` formatting can never print the bytes (no accidental
//!   log/trace leak — the failure mode 5Greplay-style fuzzing surfaces),
//! * equality is constant-time (via [`crate::ct_eq`]),
//! * the bytes are wiped when the value is dropped, and
//! * code outside this crate cannot hold them as a `&[u8; N]`: read
//!   access (`expose`) is crate-private, and every primitive a network
//!   function keys — Milenage, AES, HMAC, the K_SEAF/K_AMF/NAS
//!   derivations — takes the container itself.
//!
//! The compiler enforces the last point. Formatting a key's raw bytes
//! from another crate does not build:
//!
//! ```compile_fail,E0624
//! use shield5g_crypto::secret::SecretBytes;
//! let key = SecretBytes::new([0x46u8; 16]);
//! assert_eq!(format!("{:?}", key.expose()), "<redacted>");
//! ```
//!
//! while its twin without the `expose` call does, and prints nothing:
//!
//! ```
//! use shield5g_crypto::secret::SecretBytes;
//! let key = SecretBytes::new([0x46u8; 16]);
//! assert_eq!(format!("{:?}", key), "<redacted>");
//! ```
//!
//! Key bytes still have to leave the container in exactly two places,
//! and both go through one [`KeySink`] call, [`SecretBytes::write_to`]:
//! a wire encoder (`shield5g_sim::codec::Writer`), which carries K_AUSF,
//! K_SEAF and K_AMF between a network function and its P-AKA module
//! (Table I counts those bytes), and a P-AKA module's
//! working memory (the EPC vault, or a container's plain memory), where
//! the module leaves the key it derived. Anything else that needs the
//! bytes is a crypto primitive and lives here.
//!
//! What the types cannot see, `shield5g-lint` still polices: SH001–SH003
//! check that each registered key-bearing struct redacts its
//! `Debug`/`Display` output, stores no raw key array without
//! one, and zeroizes on drop.

use alloc::vec::Vec;
use core::fmt;

/// Types that can wipe their own memory.
///
/// The zeroing write is followed by [`core::hint::black_box`], which keeps
/// the store observable to the optimiser so it cannot be elided as a
/// dead write (the crate forbids `unsafe`, ruling out `write_volatile`).
pub trait Zeroize {
    /// Overwrites the contents with zeros.
    fn zeroize(&mut self);
}

impl Zeroize for u8 {
    fn zeroize(&mut self) {
        *self = 0;
    }
}

impl Zeroize for i8 {
    fn zeroize(&mut self) {
        *self = 0;
    }
}

impl Zeroize for u32 {
    fn zeroize(&mut self) {
        *self = 0;
    }
}

impl Zeroize for u64 {
    fn zeroize(&mut self) {
        *self = 0;
    }
}

impl<T: Zeroize, const N: usize> Zeroize for [T; N] {
    fn zeroize(&mut self) {
        for v in self.iter_mut() {
            v.zeroize();
        }
        core::hint::black_box(&mut *self);
    }
}

impl<T: Zeroize> Zeroize for Vec<T> {
    fn zeroize(&mut self) {
        for v in self.iter_mut() {
            v.zeroize();
        }
        core::hint::black_box(&mut *self);
        self.clear();
    }
}

/// A fixed-size block of secret bytes.
///
/// Construction is explicit ([`SecretBytes::new`] / `From<[u8; N]>`);
/// the bytes leave only into a crypto primitive of this crate or, through
/// [`SecretBytes::write_to`], a [`KeySink`]. `Debug` prints `<redacted>`,
/// `PartialEq` is constant-time, and `Drop` zeroizes.
#[derive(Clone)]
pub struct SecretBytes<const N: usize>([u8; N]);

impl<const N: usize> SecretBytes<N> {
    /// Wraps `bytes` as secret material.
    #[must_use]
    pub fn new(bytes: [u8; N]) -> Self {
        SecretBytes(bytes)
    }

    /// Read access for this crate's primitives.
    #[must_use]
    pub(crate) fn expose(&self) -> &[u8; N] {
        &self.0
    }

    /// Copies the key into `sink`: the one way its bytes leave this crate.
    pub fn write_to(&self, sink: &mut impl KeySink) {
        sink.put_key(&self.0);
    }
}

/// A place key bytes may be written in the clear. There are two (see the
/// module docs): the wire encoder `shield5g_sim::codec::Writer`, and a
/// P-AKA module's working memory in `shield5g-core`. Each implements this
/// trait once; a third implementation is a third exit and needs the same
/// justification.
pub trait KeySink {
    /// Takes a copy of a key's bytes.
    fn put_key(&mut self, key: &[u8]);
}

impl<const N: usize> From<[u8; N]> for SecretBytes<N> {
    fn from(bytes: [u8; N]) -> Self {
        SecretBytes(bytes)
    }
}

impl<const N: usize> fmt::Debug for SecretBytes<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<redacted>")
    }
}

impl<const N: usize> PartialEq for SecretBytes<N> {
    fn eq(&self, other: &Self) -> bool {
        crate::ct_eq(&self.0, &other.0)
    }
}

impl<const N: usize> Eq for SecretBytes<N> {}

impl<const N: usize> PartialEq<[u8; N]> for SecretBytes<N> {
    fn eq(&self, other: &[u8; N]) -> bool {
        crate::ct_eq(&self.0, other)
    }
}

impl<const N: usize> PartialEq<SecretBytes<N>> for [u8; N] {
    fn eq(&self, other: &SecretBytes<N>) -> bool {
        crate::ct_eq(self, &other.0)
    }
}

impl<const N: usize> Drop for SecretBytes<N> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

impl<const N: usize> Zeroize for SecretBytes<N> {
    fn zeroize(&mut self) {
        self.0.zeroize();
    }
}

/// A generic secret container for non-array material (e.g. expanded key
/// schedules): redacted `Debug`, zeroize-on-drop.
pub struct Secret<T: Zeroize>(T);

impl<T: Zeroize> Secret<T> {
    /// Wraps `value` as secret material.
    #[must_use]
    pub fn new(value: T) -> Self {
        Secret(value)
    }

    /// Read access for this crate's primitives.
    #[must_use]
    pub(crate) fn expose(&self) -> &T {
        &self.0
    }
}

impl<T: Zeroize + Clone> Clone for Secret<T> {
    fn clone(&self) -> Self {
        Secret(self.0.clone())
    }
}

impl<T: Zeroize> From<T> for Secret<T> {
    fn from(value: T) -> Self {
        Secret(value)
    }
}

impl<T: Zeroize> fmt::Debug for Secret<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<redacted>")
    }
}

impl<T: Zeroize> Drop for Secret<T> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_is_redacted() {
        let s = SecretBytes::new([0xAB; 16]);
        assert_eq!(format!("{s:?}"), "<redacted>");
        let g = Secret::new(vec![1u8, 2, 3]);
        assert_eq!(format!("{g:?}"), "<redacted>");
    }

    #[test]
    fn equality_against_self_and_arrays() {
        let a = SecretBytes::new([7; 32]);
        let b = SecretBytes::new([7; 32]);
        let c = SecretBytes::new([8; 32]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, [7; 32]);
        assert_eq!([7; 32], a);
        assert_ne!(a, [0; 32]);
    }

    #[test]
    fn clone_preserves_bytes() {
        let a = SecretBytes::new([3; 16]);
        let b = a.clone();
        assert_eq!(b.expose(), &[3; 16]);
    }

    #[test]
    fn zeroize_clears_in_place() {
        let mut k = [0xFFu8; 16];
        k.zeroize();
        assert_eq!(k, [0; 16]);
        let mut v = vec![9u8; 8];
        v.zeroize();
        assert!(v.is_empty());
        let mut s = SecretBytes::new([5; 4]);
        s.zeroize();
        assert_eq!(s.expose(), &[0; 4]);
    }

    #[test]
    fn secret_generic_round_trip() {
        let g = Secret::new(vec![1u8, 2, 3, 4]);
        assert_eq!(g.expose().as_slice(), &[1, 2, 3, 4]);
        let h = g.clone();
        assert_eq!(h.expose(), g.expose());
    }

    #[test]
    fn write_to_appends_the_key_to_its_sink() {
        struct Collect(Vec<u8>);
        impl KeySink for Collect {
            fn put_key(&mut self, key: &[u8]) {
                self.0.extend_from_slice(key);
            }
        }
        let mut sink = Collect(vec![0xEE]);
        SecretBytes::new([1, 2, 3]).write_to(&mut sink);
        assert_eq!(sink.0, [0xEE, 1, 2, 3]);
    }
}
