//! Subscriber identifiers: PLMN, SUPI, SUCI and 5G-GUTI.
//!
//! The registration flow of the paper's Figure 5 begins with the UE sending
//! its SUCI (the ECIES-concealed SUPI) or a previously assigned GUTI. The
//! OTA feasibility test (§V-B6) additionally depends on the PLMN: the COTS
//! UE only attaches when the SIM is programmed with the test network
//! `001/01`, which this module models.
//!
//! [`Plmn`] and [`Supi`] are inline `Copy` values: naming a subscriber or
//! a network never allocates, and no constructor builds a malformed one.

use crate::ecies::{self, EciesCiphertext, HomeNetworkKeyPair, HomeNetworkPublicKey};
use crate::CryptoError;
use alloc::{format, vec::Vec};

/// A Public Land Mobile Network identity: MCC (3 digits) + MNC (2–3 digits),
/// held inline as ASCII digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plmn {
    /// The MCC, then the MNC; a 2-digit MNC leaves the last byte zero.
    digits: [u8; 6],
    /// 2 or 3.
    mnc_len: u8,
}

impl Plmn {
    /// The test PLMN `001/01` used by the paper's OTA setup (Table IV).
    #[must_use]
    pub fn test_network() -> Self {
        Plmn {
            digits: *b"00101\0",
            mnc_len: 2,
        }
    }

    /// Creates a PLMN from its mobile country and network codes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] unless the MCC is
    /// exactly 3 digits and the MNC is 2 or 3 digits.
    pub fn new(mcc: &str, mnc: &str) -> Result<Self, CryptoError> {
        let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
        if mcc.len() != 3 || !digits(mcc) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MCC must be 3 digits: {mcc:?}"
            )));
        }
        if !(2..=3).contains(&mnc.len()) || !digits(mnc) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MNC must be 2-3 digits: {mnc:?}"
            )));
        }
        let mut digits = [0; 6];
        digits[..3].copy_from_slice(mcc.as_bytes());
        digits[3..3 + mnc.len()].copy_from_slice(mnc.as_bytes());
        Ok(Plmn {
            digits,
            mnc_len: mnc.len() as u8,
        })
    }

    /// The mobile country code.
    #[must_use]
    pub fn mcc(&self) -> &str {
        ascii(&self.digits[..3])
    }

    /// The mobile network code.
    #[must_use]
    pub fn mnc(&self) -> &str {
        ascii(&self.digits[3..3 + usize::from(self.mnc_len)])
    }
}

/// Digits this module validated, as text.
fn ascii(digits: &[u8]) -> &str {
    core::str::from_utf8(digits).unwrap_or_default()
}

impl core::fmt::Debug for Plmn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Plmn({}/{})", self.mcc(), self.mnc())
    }
}

impl core::fmt::Display for Plmn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}{}", self.mcc(), self.mnc())
    }
}

/// Subscription Permanent Identifier in IMSI format: PLMN + MSIN, held
/// inline as its `imsi-<digits>` text. Equality, order and hash are the
/// text's.
#[derive(Clone, Copy)]
pub struct Supi {
    /// `imsi-<MCC><MNC><MSIN>`: at most 5 + 3 + 3 + 10 bytes, zero past
    /// `len`.
    text: [u8; 21],
    len: u8,
    mnc_len: u8,
}

impl Supi {
    /// Creates a SUPI from a PLMN and an MSIN of up to 10 digits.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] for a non-digit or
    /// over-long MSIN.
    pub fn new(plmn: Plmn, msin: &str) -> Result<Self, CryptoError> {
        if msin.is_empty() || msin.len() > 10 || !msin.bytes().all(|b| b.is_ascii_digit()) {
            return Err(CryptoError::MalformedIdentifier(format!(
                "MSIN must be 1-10 digits: {msin:?}"
            )));
        }
        Ok(Self::assemble(plmn, msin.as_bytes()))
    }

    /// The SUPI whose MSIN is `n` in decimal, zero-padded to `digits`
    /// places and cut to its last `digits` (test subscriber populations).
    /// `digits` outside 1–10 is taken as the nearer bound.
    #[must_use]
    pub fn numbered(plmn: Plmn, n: u64, digits: usize) -> Self {
        let mut msin = [b'0'; 10];
        let msin = &mut msin[..digits.clamp(1, 10)];
        let mut rest = n;
        for digit in msin.iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        Self::assemble(plmn, msin)
    }

    /// `imsi-`, the PLMN's digits and `msin`, which the caller validated.
    fn assemble(plmn: Plmn, msin: &[u8]) -> Self {
        let home = 8 + usize::from(plmn.mnc_len);
        let len = home + msin.len();
        let mut text = [0; 21];
        text[..5].copy_from_slice(b"imsi-");
        text[5..home].copy_from_slice(&plmn.digits[..home - 5]);
        text[home..len].copy_from_slice(msin);
        Supi {
            text,
            len: len as u8,
            mnc_len: plmn.mnc_len,
        }
    }

    /// Parses the `imsi-<digits>` URI form used on service-based interfaces:
    /// exactly the text `Display` writes for some SUPI.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedIdentifier`] unless `s` is `imsi-`
    /// and 6–16 digits. The MNC is taken as 2 digits, matching the paper's
    /// test PLMN, unless that would leave an MSIN longer than 10.
    pub fn parse(s: &str) -> Result<Self, CryptoError> {
        let digits = s
            .strip_prefix("imsi-")
            .filter(|d| (6..=16).contains(&d.len()) && d.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| {
                CryptoError::MalformedIdentifier(format!("not imsi- and 6-16 digits: {s:?}"))
            })?;
        let mnc_end = if digits.len() == 16 { 6 } else { 5 };
        Supi::new(
            Plmn::new(&digits[..3], &digits[3..mnc_end])?,
            &digits[mnc_end..],
        )
    }

    /// The `imsi-<digits>` text, as `Display` writes it.
    #[must_use]
    pub fn as_str(&self) -> &str {
        ascii(&self.text[..usize::from(self.len)])
    }

    /// The home PLMN.
    #[must_use]
    pub fn plmn(&self) -> Plmn {
        let mut digits = [0; 6];
        let n = 3 + usize::from(self.mnc_len);
        digits[..n].copy_from_slice(&self.text[5..5 + n]);
        Plmn {
            digits,
            mnc_len: self.mnc_len,
        }
    }

    /// The mobile subscriber identification number.
    #[must_use]
    pub fn msin(&self) -> &str {
        ascii(&self.text[8 + usize::from(self.mnc_len)..usize::from(self.len)])
    }

    /// Conceals this SUPI into a SUCI with the null scheme (MSIN in clear).
    ///
    /// 3GPP permits the null scheme for unauthenticated emergency sessions;
    /// the simulator uses it to demonstrate what an eavesdropper gains when
    /// concealment is off.
    #[must_use]
    pub fn conceal_null(&self) -> Suci {
        Suci {
            plmn: self.plmn(),
            routing_indicator: 0,
            hn_key_id: 0,
            scheme: ProtectionScheme::Null,
            scheme_output: bcd_encode(self.msin()),
        }
    }

    /// Conceals this SUPI with ECIES Profile A against `hn_public`.
    ///
    /// `ephemeral_private` must be fresh per call (the USIM model draws it
    /// from the deterministic simulation RNG).
    #[must_use]
    pub fn conceal_profile_a(
        &self,
        hn_key_id: u8,
        hn_public: &HomeNetworkPublicKey,
        ephemeral_private: &[u8; 32],
    ) -> Suci {
        let ct = ecies::conceal(&bcd_encode(self.msin()), hn_public, ephemeral_private);
        Suci {
            plmn: self.plmn(),
            routing_indicator: 0,
            hn_key_id,
            scheme: ProtectionScheme::ProfileA,
            scheme_output: ct.to_bytes(),
        }
    }
}

// The text is zero-padded and never holds a zero byte, so comparing the
// whole arrays compares the texts: equal, or ordered as `str` orders them.
impl PartialEq for Supi {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for Supi {}

impl PartialOrd for Supi {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Supi {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.text.cmp(&other.text)
    }
}

impl core::hash::Hash for Supi {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl core::fmt::Debug for Supi {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Supi({:?})", self.as_str())
    }
}

impl core::fmt::Display for Supi {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// SUCI protection scheme identifiers (TS 33.501 Annex C.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtectionScheme {
    /// Null scheme: the MSIN travels in clear BCD.
    Null,
    /// ECIES Profile A (Curve25519).
    ProfileA,
}

impl ProtectionScheme {
    /// The 3GPP scheme identifier octet.
    #[must_use]
    pub fn id(self) -> u8 {
        match self {
            ProtectionScheme::Null => 0x0,
            ProtectionScheme::ProfileA => 0x1,
        }
    }

    /// Parses a scheme identifier octet.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownScheme`] for identifiers other than
    /// null (0) and Profile A (1).
    pub fn from_id(id: u8) -> Result<Self, CryptoError> {
        match id {
            0x0 => Ok(ProtectionScheme::Null),
            0x1 => Ok(ProtectionScheme::ProfileA),
            other => Err(CryptoError::UnknownScheme(other)),
        }
    }
}

/// Subscription Concealed Identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suci {
    /// Home network PLMN (always in clear; routing needs it).
    pub plmn: Plmn,
    /// Routing indicator for the home-network UDM selection.
    pub routing_indicator: u16,
    /// Home-network public-key identifier.
    pub hn_key_id: u8,
    /// Protection scheme in use.
    pub scheme: ProtectionScheme,
    /// Scheme output: clear BCD for null, `ephemeral || ct || mac` for
    /// Profile A.
    pub scheme_output: Vec<u8>,
}

impl Suci {
    /// Recovers the SUPI, de-concealing with `hn_key` when Profile A is in
    /// use (the SIDF role inside the UDM).
    ///
    /// # Errors
    ///
    /// * [`CryptoError::UnknownKeyId`] when the SUCI references a key this
    ///   home network does not hold.
    /// * [`CryptoError::MacMismatch`] for tampered ciphertexts.
    /// * [`CryptoError::LowOrderPoint`] for a low-order ephemeral key.
    /// * [`CryptoError::MalformedIdentifier`] if the decrypted MSIN is not
    ///   valid BCD digits.
    pub fn deconceal(&self, hn_key: &HomeNetworkKeyPair) -> Result<Supi, CryptoError> {
        let opened;
        let msin_bcd = match self.scheme {
            ProtectionScheme::Null => &self.scheme_output,
            ProtectionScheme::ProfileA => {
                if self.hn_key_id != hn_key.id() {
                    return Err(CryptoError::UnknownKeyId(self.hn_key_id));
                }
                let ct = EciesCiphertext::from_bytes(&self.scheme_output)?;
                opened = hn_key.deconceal(&ct)?;
                &opened
            }
        };
        // The digits unpack straight into the SUPI; eleven are already too
        // many for an MSIN.
        let mut msin = [0; 11];
        let mut len = 0;
        for (slot, digit) in msin.iter_mut().zip(bcd_digits(msin_bcd)) {
            *slot = digit?;
            len += 1;
        }
        Supi::new(self.plmn, ascii(&msin[..len]))
    }
}

impl core::fmt::Display for Suci {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "suci-0-{}-{}-{}-{}-{}-{}",
            self.plmn.mcc(),
            self.plmn.mnc(),
            self.routing_indicator,
            self.scheme.id(),
            self.hn_key_id,
            crate::hex::encode(&self.scheme_output)
        )
    }
}

/// 5G Globally Unique Temporary Identity (TS 23.003 §2.10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Guti {
    /// AMF region identifier.
    pub amf_region_id: u8,
    /// AMF set identifier (10 bits).
    pub amf_set_id: u16,
    /// AMF pointer (6 bits).
    pub amf_pointer: u8,
    /// 5G-TMSI.
    pub tmsi: u32,
}

impl Guti {
    /// Creates a GUTI, masking the set id and pointer to their field widths.
    #[must_use]
    pub fn new(amf_region_id: u8, amf_set_id: u16, amf_pointer: u8, tmsi: u32) -> Self {
        Guti {
            amf_region_id,
            amf_set_id: amf_set_id & 0x03ff,
            amf_pointer: amf_pointer & 0x3f,
            tmsi,
        }
    }
}

impl core::fmt::Display for Guti {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "5g-guti-{:02x}{:03x}{:02x}-{:08x}",
            self.amf_region_id, self.amf_set_id, self.amf_pointer, self.tmsi
        )
    }
}

/// Packs decimal digits into BCD, low nibble first, padding odd lengths
/// with `0xF` (TS 24.501 conventions).
#[must_use]
pub fn bcd_encode(digits: &str) -> Vec<u8> {
    digits
        .as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = pair.get(1).map_or(0xF, |d| d - b'0');
            (pair[0] - b'0') | (hi << 4)
        })
        .collect()
}

/// The ASCII digits of a BCD string, low nibble first, up to a `0xF`
/// filler nibble; a nibble that is neither is an error.
fn bcd_digits(bcd: &[u8]) -> impl Iterator<Item = Result<u8, CryptoError>> + '_ {
    bcd.iter()
        .flat_map(|&byte| [byte & 0xF, byte >> 4])
        .take_while(|&nibble| nibble != 0xF)
        .map(|nibble| match nibble {
            0..=9 => Ok(b'0' + nibble),
            _ => Err(CryptoError::MalformedIdentifier(format!(
                "invalid BCD nibble {nibble:#x}"
            ))),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bcd_decode(bcd: &[u8]) -> Result<String, CryptoError> {
        bcd_digits(bcd).map(|d| d.map(char::from)).collect()
    }

    fn test_supi() -> Supi {
        Supi::new(Plmn::test_network(), "0000000001").unwrap()
    }

    #[test]
    fn plmn_validation() {
        assert!(Plmn::new("001", "01").is_ok());
        assert!(Plmn::new("001", "001").is_ok());
        assert!(Plmn::new("01", "01").is_err());
        assert!(Plmn::new("0012", "01").is_err());
        assert!(Plmn::new("001", "1").is_err());
        assert!(Plmn::new("00a", "01").is_err());
        assert_eq!(Plmn::test_network().to_string(), "00101");
    }

    #[test]
    fn supi_display_and_parse_round_trip() {
        let supi = test_supi();
        assert_eq!(supi.to_string(), "imsi-001010000000001");
        assert_eq!(Supi::parse("imsi-001010000000001").unwrap(), supi);
    }

    #[test]
    fn supi_parse_rejects_garbage() {
        assert!(Supi::parse("001010000000001").is_err());
        assert!(Supi::parse("imsi-1").is_err());
        assert!(Supi::parse("imsi-00101abc").is_err());
    }

    #[test]
    fn null_scheme_round_trip() {
        let supi = test_supi();
        let suci = supi.conceal_null();
        let hn = HomeNetworkKeyPair::from_private(1, [7; 32]);
        assert_eq!(suci.deconceal(&hn).unwrap(), supi);
    }

    #[test]
    fn null_scheme_exposes_msin() {
        // The property the paper's concealment protects against.
        let suci = test_supi().conceal_null();
        assert_eq!(bcd_decode(&suci.scheme_output).unwrap(), "0000000001");
    }

    #[test]
    fn profile_a_round_trip() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(3, hn.public(), &[0x55; 32]);
        assert_eq!(suci.scheme, ProtectionScheme::ProfileA);
        assert_eq!(suci.deconceal(&hn).unwrap(), supi);
    }

    #[test]
    fn profile_a_hides_msin() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(3, hn.public(), &[0x55; 32]);
        // The clear BCD must not appear in the scheme output.
        let clear = bcd_encode("0000000001");
        assert!(!suci
            .scheme_output
            .windows(clear.len())
            .any(|w| w == clear.as_slice()));
    }

    #[test]
    fn profile_a_wrong_key_id_rejected() {
        let supi = test_supi();
        let hn = HomeNetworkKeyPair::from_private(3, [9; 32]);
        let suci = supi.conceal_profile_a(4, hn.public(), &[0x55; 32]);
        assert_eq!(suci.deconceal(&hn), Err(CryptoError::UnknownKeyId(4)));
    }

    #[test]
    fn scheme_ids_round_trip() {
        for scheme in [ProtectionScheme::Null, ProtectionScheme::ProfileA] {
            assert_eq!(ProtectionScheme::from_id(scheme.id()).unwrap(), scheme);
        }
        assert!(ProtectionScheme::from_id(9).is_err());
    }

    #[test]
    fn bcd_round_trips_even_and_odd() {
        for digits in ["", "1", "12", "123", "0000000001", "9876543210"] {
            assert_eq!(bcd_decode(&bcd_encode(digits)).unwrap(), digits);
        }
    }

    #[test]
    fn bcd_rejects_invalid_nibble() {
        assert!(bcd_decode(&[0xAB]).is_err());
    }

    #[test]
    fn guti_masks_field_widths() {
        let guti = Guti::new(1, 0xffff, 0xff, 42);
        assert_eq!(guti.amf_set_id, 0x03ff);
        assert_eq!(guti.amf_pointer, 0x3f);
        assert!(guti.to_string().starts_with("5g-guti-"));
    }

    #[test]
    fn suci_display_mentions_scheme() {
        let suci = test_supi().conceal_null();
        let s = suci.to_string();
        assert!(s.starts_with("suci-0-001-01-0-0-0-"));
    }

    proptest::proptest! {
        #[test]
        fn bcd_round_trip_property(digits in "[0-9]{0,20}") {
            proptest::prop_assert_eq!(bcd_decode(&bcd_encode(&digits)).unwrap(), digits);
        }
    }
}
