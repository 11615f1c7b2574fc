//! Minimal hexadecimal encoding/decoding used by tests, examples and
//! human-readable reports throughout the workspace.

use crate::CryptoError;
use alloc::{format, string::String, vec::Vec};

/// Encodes `bytes` as a lowercase hexadecimal string.
///
/// ```rust
/// assert_eq!(shield5g_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
#[must_use]
pub fn encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// Decodes a hexadecimal string (upper- or lowercase) into bytes.
///
/// # Errors
///
/// Returns [`CryptoError::MalformedIdentifier`] if the string has odd length
/// or contains a non-hex character.
///
/// ```rust
/// # fn main() -> Result<(), shield5g_crypto::CryptoError> {
/// assert_eq!(shield5g_crypto::hex::decode("DEad")?, vec![0xde, 0xad]);
/// # Ok(())
/// # }
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::MalformedIdentifier(format!(
            "odd-length hex string: {s:?}"
        )));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or_else(|| {
            CryptoError::MalformedIdentifier(format!("non-hex character in {s:?}"))
        })?;
        let lo = (pair[1] as char).to_digit(16).ok_or_else(|| {
            CryptoError::MalformedIdentifier(format!("non-hex character in {s:?}"))
        })?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

/// Decodes a hex string into a fixed-size array.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] when the decoded length is not `N`,
/// or a decode error from [`decode`].
pub fn decode_array<const N: usize>(s: &str) -> Result<[u8; N], CryptoError> {
    let v = decode(s)?;
    let actual = v.len();
    v.try_into().map_err(|_| CryptoError::InvalidLength {
        what: "hex array",
        expected: N,
        actual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let data = [0x00, 0x01, 0x7f, 0x80, 0xff];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn accepts_mixed_case() {
        assert_eq!(decode("AbCd").unwrap(), vec![0xab, 0xcd]);
    }

    #[test]
    fn rejects_odd_length() {
        assert!(decode("abc").is_err());
    }

    #[test]
    fn rejects_non_hex() {
        assert!(decode("zz").is_err());
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn decode_array_enforces_length() {
        assert_eq!(decode_array::<2>("dead").unwrap(), [0xde, 0xad]);
        assert!(decode_array::<3>("dead").is_err());
    }
}
