//! Secret-material containers: zeroize-on-drop, redacted `Debug`,
//! constant-time comparison.
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
//! * equality is constant-time (via [`crate::ct_eq`]), and
//! * the bytes are wiped when the value is dropped.
//!
//! `shield5g-lint`'s secret-hygiene rules (SH001–SH003) enforce that the
//! registered secret-bearing types actually use these wrappers.

use std::fmt;

/// Types that can wipe their own memory.
///
/// The zeroing write is followed by [`std::hint::black_box`], which keeps
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
        std::hint::black_box(&mut *self);
    }
}

impl<T: Zeroize> Zeroize for Vec<T> {
    fn zeroize(&mut self) {
        for v in self.iter_mut() {
            v.zeroize();
        }
        std::hint::black_box(&mut *self);
        self.clear();
    }
}

/// A fixed-size block of secret bytes.
///
/// Construction is explicit ([`SecretBytes::new`] / `From<[u8; N]>`);
/// read access is explicit ([`SecretBytes::expose`]) so key uses are
/// grep-able. `Debug` prints `<redacted>`, `PartialEq` is constant-time,
/// and `Drop` zeroizes.
#[derive(Clone)]
pub struct SecretBytes<const N: usize>([u8; N]);

impl<const N: usize> SecretBytes<N> {
    /// Wraps `bytes` as secret material.
    #[must_use]
    pub fn new(bytes: [u8; N]) -> Self {
        SecretBytes(bytes)
    }

    /// Explicit read access to the wrapped bytes.
    #[must_use]
    pub fn expose(&self) -> &[u8; N] {
        &self.0
    }
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

    /// Explicit read access to the wrapped value.
    #[must_use]
    pub fn expose(&self) -> &T {
        &self.0
    }

    /// Explicit mutable access to the wrapped value.
    #[must_use]
    pub fn expose_mut(&mut self) -> &mut T {
        &mut self.0
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
        let mut g = Secret::new(vec![1u8, 2, 3]);
        g.expose_mut().push(4);
        assert_eq!(g.expose().as_slice(), &[1, 2, 3, 4]);
        let h = g.clone();
        assert_eq!(h.expose(), g.expose());
    }
}
