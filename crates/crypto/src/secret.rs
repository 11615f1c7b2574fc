//! Secret-material containers: zeroize-on-drop, redacted `Debug`,
//! constant-time comparison, and no way to read the bytes from outside
//! this crate.
//!
//! The paper's threat model (§III) assumes an attacker who can read VNF
//! memory and logs; the enclave split keeps long-lived keys out of both.
//! On the simulation side the equivalent discipline is *type-level*:
//! every struct field that stores key material (K, OPc, K_AUSF, K_SEAF,
//! K_AMF, CK/IK, AK, XRES*, NAS keys, HMAC key blocks, ECIES and sim-TLS
//! private scalars) holds
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
//! What a key-bearing struct prints and whether it wipes are held the same
//! way. A [`SecretBytes`] or [`Secret`] field renders as `<redacted>` and
//! zeroizes on drop, so a derived `Debug` and the drop glue are safe by
//! construction. Each crate that declares such a struct keeps one registry
//! test beside its types: [`redacts`] renders every registered type built
//! from a canary and from its complement and requires the two `{:?}`
//! strings to be byte-equal, and [`wipes_through`] names the field each
//! zeroizing type wipes through, which builds only when that field is
//! [`ZeroizeOnDrop`].

use alloc::format;
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

    /// The `M` bytes at `AT`, as a secret of their own: how key data
    /// splits into keys. A range past the end fails to build.
    #[must_use]
    pub fn part<const AT: usize, const M: usize>(&self) -> SecretBytes<M> {
        const { assert!(AT + M <= N) };
        let mut out = [0; M];
        out.copy_from_slice(&self.0[AT..AT + M]);
        SecretBytes(out)
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

/// Types whose drop wipes their key material: [`SecretBytes`], [`Secret`],
/// and the three composites other crates hold (`Aes128`, `HmacKey`,
/// `Milenage`), each implemented beside the [`wipes_through`] entry that
/// names its wiping field.
///
/// The trait is sealed: only this crate decides what wipes, so a holder in
/// another crate cannot declare its own type wiping and register through
/// it. That fails to build:
///
/// ```compile_fail,E0277
/// use shield5g_crypto::secret::{wipes_through, ZeroizeOnDrop};
/// struct KeyedHasher {
///     state: [u32; 8],
/// }
/// impl ZeroizeOnDrop for KeyedHasher {}
/// struct IntegrityContext {
///     inner: KeyedHasher,
/// }
/// wipes_through(|c: &IntegrityContext| &c.inner);
/// ```
///
/// while its twin, registering through a [`Secret`] field, builds (the
/// second example on [`wipes_through`]).
pub trait ZeroizeOnDrop: sealed::Sealed {}

/// The seal on [`ZeroizeOnDrop`]: nameable in this crate only.
pub(crate) mod sealed {
    /// Implemented beside each [`super::ZeroizeOnDrop`] impl.
    pub trait Sealed {}
}

impl<const N: usize> sealed::Sealed for SecretBytes<N> {}
impl<const N: usize> ZeroizeOnDrop for SecretBytes<N> {}

impl<T: Zeroize> sealed::Sealed for Secret<T> {}
impl<T: Zeroize> ZeroizeOnDrop for Secret<T> {}

/// A registry entry: `T` wipes its key material on drop through the field
/// `field` reads. It builds only when that field is [`ZeroizeOnDrop`];
/// `field` is type-checked, never called. A field whose type hides its
/// state from `Debug` but never wipes it does not count:
///
/// ```compile_fail,E0277
/// use shield5g_crypto::secret::wipes_through;
/// struct KeyedHasher {
///     state: [u32; 8],
/// }
/// impl core::fmt::Debug for KeyedHasher {
///     fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
///         f.write_str("KeyedHasher(<redacted>)")
///     }
/// }
/// struct IntegrityContext {
///     inner: KeyedHasher,
/// }
/// wipes_through(|c: &IntegrityContext| &c.inner);
/// ```
///
/// while its twin, whose state is a [`Secret`], builds:
///
/// ```
/// use shield5g_crypto::secret::{wipes_through, Secret};
/// #[derive(Debug)]
/// struct KeyedHasher {
///     state: Secret<[u32; 8]>,
/// }
/// struct IntegrityContext {
///     inner: KeyedHasher,
/// }
/// wipes_through(|h: &KeyedHasher| &h.state);
/// wipes_through(|c: &IntegrityContext| &c.inner.state);
/// ```
pub const fn wipes_through<T, F: ZeroizeOnDrop>(_field: fn(&T) -> &F) {}

/// A registry's `Debug` check: a value `build` fills with a canary byte and
/// its twin filled with the complement render byte-equal under `{:?}`, so no
/// hex, decimal or byte-list rendering of the filled fields reaches the
/// output. `build` fills only the secret fields; public ones stay fixed.
#[must_use]
pub fn redacts<T: fmt::Debug>(build: impl Fn(u8) -> T) -> bool {
    const CANARY: u8 = 0x5a;
    format!("{:?}", build(CANARY)) == format!("{:?}", build(!CANARY))
}

/// A generic secret container for non-array material (e.g. expanded key
/// schedules): redacted `Debug`, zeroize-on-drop.
pub struct Secret<T: Zeroize>(T);

impl<T: Zeroize> Secret<T> {
    /// Wraps `value` as secret material.
    #[must_use]
    pub(crate) fn new(value: T) -> Self {
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

    /// This crate's registry. `Aes128`, `HmacKey` and `Milenage` name the
    /// field they wipe through beside their marker impls.
    #[test]
    fn every_registered_type_redacts_and_wipes() {
        use crate::aes::Aes128;
        use crate::ecies::{HomeNetworkKeyPair, KeyData};
        use crate::hmac::{HmacKey, HmacSha256};
        use crate::keys::{HeAv, UeChallengeResult};
        use crate::milenage::{F2345Output, Milenage};
        use crate::poly1305::Poly1305;
        use crate::sha256::Sha256;
        use crate::x25519::comb::{Digits, Niels, Point};
        use crate::x25519::Fe;

        let hn = HomeNetworkKeyPair::from_private(1, [7; 32]);
        assert!(redacts(|c| HeAv {
            rand: [1; 16],
            autn: [2; 16],
            xres_star: SecretBytes::new([c; 16]),
            kausf: SecretBytes::new([c; 32]),
        }));
        assert!(redacts(|c| UeChallengeResult {
            sqn: [c; 6],
            res_star: [c; 16],
            kausf: SecretBytes::new([c; 32]),
            kseaf: SecretBytes::new([c; 32]),
        }));
        assert!(redacts(|c| Milenage::with_opc(&[c; 16], &[c; 16])));
        assert!(redacts(|c| F2345Output {
            res: [c; 8],
            ck: SecretBytes::new([c; 16]),
            ik: SecretBytes::new([c; 16]),
            ak: SecretBytes::new([c; 6]),
        }));
        assert!(redacts(|c| HmacKey::new(&[c; 32])));
        assert!(redacts(|c| HmacSha256::new(&[c; 32])));
        assert!(redacts(|c| HomeNetworkKeyPair {
            id: hn.id,
            private: SecretBytes::new([c; 32]),
            public: hn.public.clone(),
        }));
        assert!(redacts(|c| Aes128::new(&[c; 16])));
        assert!(redacts(|c| Poly1305::new(&[c; 16])));
        assert!(redacts(|c| Digits(Secret::new([c as i8; 64]))));
        // Redact-only: `Copy` for the arithmetic, or moved out of by
        // `finalize`, so nothing can wipe them on drop.
        let fe = |c: u8| Fe([u64::from_ne_bytes([c; 8]); 5]);
        assert!(redacts(fe));
        assert!(redacts(|c| Point {
            x: fe(c),
            y: fe(c),
            z: fe(c),
            t: fe(c),
        }));
        assert!(redacts(|c| Niels {
            y_plus_x: fe(c),
            y_minus_x: fe(c),
            t2d: fe(c),
        }));
        assert!(redacts(|c| Sha256::resume([u32::from_ne_bytes([c; 4]); 8])));

        wipes_through(|av: &HeAv| &av.kausf);
        wipes_through(|av: &HeAv| &av.xres_star);
        wipes_through(|result: &UeChallengeResult| &result.kausf);
        wipes_through(|out: &F2345Output| &out.ck);
        wipes_through(|out: &F2345Output| &out.ak);
        wipes_through(|mac: &HmacSha256| &mac.key);
        wipes_through(|pair: &HomeNetworkKeyPair| &pair.private);
        wipes_through(|keys: &KeyData| &keys.aes_key);
        wipes_through(|digits: &Digits| &digits.0);
        wipes_through(|mac: &Poly1305| &mac.r);
    }

    #[test]
    fn a_derived_debug_over_raw_key_bytes_fails_the_registry() {
        #[derive(Debug)]
        #[expect(dead_code, reason = "only the derived Debug reads it: the leak")]
        struct LeakyKey {
            k: [u8; 16],
        }
        assert!(!redacts(|c| LeakyKey { k: [c; 16] }));
    }

    #[test]
    fn a_derived_debug_over_secret_bytes_passes_the_registry() {
        #[derive(Debug)]
        struct ShieldedKey {
            k: SecretBytes<16>,
        }
        assert!(redacts(|c| ShieldedKey {
            k: SecretBytes::new([c; 16]),
        }));
        wipes_through(|key: &ShieldedKey| &key.k);
    }

    #[test]
    fn a_holder_registers_through_a_composite_with_a_secret_field() {
        #[derive(Debug)]
        struct PreparedKey(Secret<[u32; 8]>);
        impl sealed::Sealed for PreparedKey {}
        impl ZeroizeOnDrop for PreparedKey {}
        wipes_through(|key: &PreparedKey| &key.0);
        #[derive(Debug)]
        struct IntegrityContext {
            key: PreparedKey,
        }
        assert!(redacts(|c| IntegrityContext {
            key: PreparedKey(Secret::new([u32::from_ne_bytes([c; 4]); 8])),
        }));
        wipes_through(|context: &IntegrityContext| &context.key);
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
