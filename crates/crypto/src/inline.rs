//! Byte strings of bounded length, held inline.
//!
//! A SUCI's scheme output, the ECIES ciphertext inside it and the BCD
//! MSIN that ciphertext hides each have a length fixed by the protocol
//! (at most 45, 5 and 5 bytes), so they are values: copying or decoding
//! one never touches the heap, and a longer one cannot be built.

use crate::CryptoError;
use core::fmt;
use core::ops::{Deref, DerefMut};

/// At most `N` bytes (`N` ≤ 255), held inline. Equality and `Debug` are
/// the byte slice's.
#[derive(Clone, Copy)]
pub struct InlineBytes<const N: usize> {
    /// The bytes, zero past `len`.
    bytes: [u8; N],
    len: u8,
}

impl<const N: usize> InlineBytes<N> {
    /// Copies `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when `bytes` is longer than
    /// `N`.
    pub fn new(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() > N {
            return Err(CryptoError::InvalidLength {
                what: "bounded byte string (at most `expected`)",
                expected: N,
                actual: bytes.len(),
            });
        }
        Ok(Self::concat(&[bytes]))
    }

    /// `parts`, one after the other, cut at `N` bytes: for callers that
    /// know the parts fit.
    pub(crate) fn concat(parts: &[&[u8]]) -> Self {
        const { assert!(N <= u8::MAX as usize) };
        let mut out = InlineBytes {
            bytes: [0; N],
            len: 0,
        };
        for part in parts {
            let at = usize::from(out.len);
            let n = part.len().min(N - at);
            out.bytes[at..at + n].copy_from_slice(&part[..n]);
            out.len += n as u8;
        }
        out
    }
}

impl<const N: usize> Deref for InlineBytes<N> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl<const N: usize> DerefMut for InlineBytes<N> {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..usize::from(self.len)]
    }
}

impl<const N: usize> PartialEq for InlineBytes<N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> Eq for InlineBytes<N> {}

impl<const N: usize> fmt::Debug for InlineBytes<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_up_to_n_bytes_and_refuses_more() {
        let five = InlineBytes::<5>::new(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(&*five, &[1, 2, 3, 4, 5]);
        assert_eq!(
            InlineBytes::<5>::new(&[0; 6]),
            Err(CryptoError::InvalidLength {
                what: "bounded byte string (at most `expected`)",
                expected: 5,
                actual: 6,
            })
        );
        assert!(InlineBytes::<5>::new(&[]).unwrap().is_empty());
    }

    #[test]
    fn equality_and_debug_are_the_slices() {
        let a = InlineBytes::<8>::new(&[7, 8]).unwrap();
        assert_eq!(a, InlineBytes::concat(&[&[7], &[8]]));
        assert_ne!(a, InlineBytes::new(&[7, 8, 0]).unwrap());
        assert_eq!(format!("{a:?}"), format!("{:?}", vec![7u8, 8]));
    }

    #[test]
    fn concat_cuts_at_n() {
        let cut = InlineBytes::<3>::concat(&[&[1, 2], &[3, 4]]);
        assert_eq!(&*cut, &[1, 2, 3]);
    }
}
