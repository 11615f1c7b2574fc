//! One wire codec for every message: the [`Wire`] trait, its leaf impls,
//! and the `wire!` macro that gives a message its codec from one field
//! list.
//!
//! Every NAS, NGAP, SBI and P-AKA message of the registration flow (paper
//! Fig. 5) is serialised with [`shield5g_sim::codec`] so that it has a
//! definite size: Table I counts the bytes that cross each enclave
//! boundary, and the latency model charges per byte. A message states
//! its fields once, in wire order, and each field's own [`Wire`] impl
//! makes the [`Writer`] / [`Reader`] calls:
//!
//! ```text
//! wire!(ConfirmRequest { auth_ctx_id, res_star });
//! wire!(UdmAuthGetResponse { supi, #[nested] he_av });   // length-prefixed
//! wire!(enum UeIdentity { 0 => Suci(suci), 1 => Guti(guti) });
//! ```
//!
//! The leaf impls are the integers, `bool`, length-prefixed text and bytes
//! (`String`, `Vec<u8>`), unframed arrays and keys (`[u8; N]`,
//! `SecretBytes<N>`) and the identifiers (`Supi`, `Option<Supi>`, `Suci`,
//! `Guti`, `ServingNetworkName`, `NfType`). An MCC or MNC is a
//! `&'static str`: it decodes to the text [`code`] returns, a slice of one
//! static table, so a serving PLMN crosses a hop without a copy. Of these
//! leaves, `String` (a resolved SUPI, an NF address) and `Vec<u8>` (a
//! carried PDU) decode onto the heap.
//!
//! An enum leads with a one-byte tag per variant. `wire!(impl ..)` writes
//! only the trait impl (for the crypto types); the plain form also gives
//! the message inherent `encode` / `decode` that forward to the trait, so
//! callers need not import it.
//!
//! One error convention: a framing violation (truncation, a false length,
//! trailing bytes) is [`NfError::Sim`], implausible contents (an unknown
//! tag, a bad PLMN) are [`NfError::Protocol`]. Whatever a decoder accepts
//! re-encodes to exactly the bytes it was given.

use crate::{NfError, NfType};
use shield5g_crypto::ident::{code, Guti, Plmn, ProtectionScheme, Suci, Supi};
use shield5g_crypto::inline::InlineBytes;
use shield5g_crypto::keys::{HeAv, SeAv, ServingNetworkName};
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_crypto::CryptoError;
use shield5g_sim::codec::{Body, Reader, Writer};

/// The wire form of a message or of one of its fields.
pub trait Wire: Sized {
    /// Writes the wire form into `w`.
    fn encode_into(&self, w: &mut Writer);

    /// Reads the wire form from `r`, leaving whatever follows it.
    ///
    /// # Errors
    ///
    /// [`NfError::Sim`] on a framing violation, [`NfError::Protocol`] on
    /// implausible contents.
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError>;

    /// The wire bytes, in a recycled buffer.
    #[must_use]
    fn encode(&self) -> Body {
        Writer::build(|w| self.encode_into(w))
    }

    /// The wire bytes, taking the message: a type that holds its own
    /// wire bytes hands its buffer over instead of copying it.
    #[must_use]
    fn into_body(self) -> Body {
        self.encode()
    }

    /// Decodes a whole message: bytes left over are a framing violation.
    ///
    /// # Errors
    ///
    /// As [`Wire::decode_from`].
    fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let msg = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Implausible contents: an identifier the crypto layer refuses.
pub(crate) fn implausible(e: CryptoError) -> NfError {
    NfError::Protocol(e.to_string())
}

/// Gives a message its [`Wire`] codec from its field list, in wire order
/// (see the module docs for the forms).
macro_rules! wire {
    (@put $w:ident, $v:expr) => {
        $crate::wire::Wire::encode_into($v, $w)
    };
    (@put $w:ident, $v:expr, nested) => {
        $w.put_nested(|w| $crate::wire::Wire::encode_into($v, w))
    };
    (@get $r:ident) => {
        $crate::wire::Wire::decode_from($r)?
    };
    (@get $r:ident, nested) => {
        $crate::wire::Wire::decode($r.bytes_ref()?)?
    };
    (impl $ty:ident { $($(#[$mode:ident])? $field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode_into(&self, w: &mut ::shield5g_sim::codec::Writer) {
                $( $crate::wire::wire!(@put w, &self.$field $(, $mode)?); )*
            }

            fn decode_from(
                r: &mut ::shield5g_sim::codec::Reader<'_>,
            ) -> Result<Self, $crate::NfError> {
                Ok(Self { $( $field: $crate::wire::wire!(@get r $(, $mode)?), )* })
            }
        }
    };
    (impl enum $ty:ident {
        $($tag:literal => $var:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn encode_into(&self, w: &mut ::shield5g_sim::codec::Writer) {
                match self {
                    $(Self::$var $({ $($f),* })? $(( $($t),* ))? => {
                        w.put_u8($tag);
                        $($( $crate::wire::Wire::encode_into($f, w); )*)?
                        $($( $crate::wire::Wire::encode_into($t, w); )*)?
                    })*
                }
            }

            fn decode_from(
                r: &mut ::shield5g_sim::codec::Reader<'_>,
            ) -> Result<Self, $crate::NfError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($( let $f = $crate::wire::Wire::decode_from(r)?; )*)?
                        $($( let $t = $crate::wire::Wire::decode_from(r)?; )*)?
                        Self::$var $({ $($f),* })? $(( $($t),* ))?
                    })*
                    tag => {
                        let why = format!("unknown {} tag {tag:#x}", stringify!($ty));
                        return Err($crate::NfError::Protocol(why));
                    }
                })
            }
        }
    };
    (enum $ty:ident $body:tt) => {
        $crate::wire::wire!(impl enum $ty $body);
        $crate::wire::wire!(@inherent $ty);
    };
    ($ty:ident $body:tt) => {
        $crate::wire::wire!(impl $ty $body);
        $crate::wire::wire!(@inherent $ty);
    };
    (@inherent $ty:ident) => {
        impl $ty {
            /// The wire bytes ([`Wire::encode`](crate::wire::Wire::encode)).
            #[must_use]
            pub fn encode(&self) -> ::shield5g_sim::codec::Body {
                $crate::wire::Wire::encode(self)
            }

            /// Decodes a whole message
            /// ([`Wire::decode`](crate::wire::Wire::decode)).
            ///
            /// # Errors
            ///
            /// [`NfError::Sim`](crate::NfError::Sim) on a framing
            /// violation, [`NfError::Protocol`](crate::NfError::Protocol)
            /// on implausible contents.
            pub fn decode(bytes: &[u8]) -> Result<Self, $crate::NfError> {
                $crate::wire::Wire::decode(bytes)
            }
        }
    };
}
pub(crate) use wire;

macro_rules! ints {
    ($($ty:ident: $put:ident),*) => {$(
        impl Wire for $ty {
            fn encode_into(&self, w: &mut Writer) {
                w.$put(*self);
            }

            fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
                Ok(r.$ty()?)
            }
        }
    )*};
}
ints!(u8: put_u8, u16: put_u16, u32: put_u32, u64: put_u64);

/// One byte, 0 or 1: any other value would re-encode differently.
impl Wire for bool {
    fn encode_into(&self, w: &mut Writer) {
        w.put_bool(*self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NfError::Protocol(format!("boolean byte {other}"))),
        }
    }
}

/// A length-prefixed UTF-8 string.
impl Wire for String {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Ok(r.str()?)
    }
}

/// An MCC or MNC: exactly 2 or 3 ASCII digits, borrowed while checked and
/// decoded to its static text.
impl Wire for &'static str {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        let s = r.str_ref()?;
        code(s).ok_or_else(|| NfError::Protocol(format!("not a 2-3 digit code: {s:?}")))
    }
}

/// Length-prefixed opaque bytes (a carried NAS PDU, a user-plane payload).
impl Wire for Vec<u8> {
    fn encode_into(&self, w: &mut Writer) {
        w.put_bytes(self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Ok(r.bytes()?)
    }
}

/// A fixed-size field, unframed.
impl<const N: usize> Wire for [u8; N] {
    fn encode_into(&self, w: &mut Writer) {
        w.put_array(self);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Ok(r.array()?)
    }
}

/// A fixed-size key, unframed.
impl<const N: usize> Wire for SecretBytes<N> {
    fn encode_into(&self, w: &mut Writer) {
        self.write_to(w);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Ok(SecretBytes::new(r.array()?))
    }
}

wire!(impl Auts { sqn_ms_xor_ak, mac_s });
wire!(impl SeAv { rand, autn, hxres_star });
wire!(impl HeAv { rand, autn, xres_star, kausf });

/// A 5G-GUTI; a set id or pointer wider than its field is refused, as
/// [`Guti::new`] would mask it.
impl Wire for Guti {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u8(self.amf_region_id)
            .put_u16(self.amf_set_id)
            .put_u8(self.amf_pointer)
            .put_u32(self.tmsi);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        let (region, set, pointer, tmsi) = (r.u8()?, r.u16()?, r.u8()?, r.u32()?);
        let guti = Guti::new(region, set, pointer, tmsi);
        if (guti.amf_set_id, guti.amf_pointer) != (set, pointer) {
            return Err(NfError::Protocol(format!(
                "GUTI set {set} / pointer {pointer}"
            )));
        }
        Ok(guti)
    }
}

/// A SUCI, for NAS (registration request, identity response) and the SBI
/// bodies that forward it. A scheme output longer than a Profile A one
/// around a 10-digit MSIN is implausible.
impl Wire for Suci {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(self.plmn.mcc())
            .put_str(self.plmn.mnc())
            .put_u16(self.routing_indicator)
            .put_u8(self.scheme.id())
            .put_u8(self.hn_key_id)
            .put_bytes(&self.scheme_output);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        // The digit strings are only parsed: borrowed, not copied out.
        let (mcc, mnc) = (r.str_ref()?, r.str_ref()?);
        let routing_indicator = r.u16()?;
        let scheme = ProtectionScheme::from_id(r.u8()?).map_err(implausible)?;
        let hn_key_id = r.u8()?;
        let scheme_output = InlineBytes::new(r.bytes_ref()?).map_err(implausible)?;
        Ok(Suci {
            plmn: Plmn::new(mcc, mnc).map_err(implausible)?,
            routing_indicator,
            hn_key_id,
            scheme,
            scheme_output,
        })
    }
}

/// The serving network name as the string the key derivations bind:
/// exactly `5G:mnc<3 digits>.mcc<3 digits>.3gppnetwork.org`, so the
/// enclave binds K_SEAF / XRES* to the bytes it was sent.
impl Wire for ServingNetworkName {
    fn encode_into(&self, w: &mut Writer) {
        w.put_bytes(self.as_bytes());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        // The codes sit at fixed offsets: the name is rebuilt from them and
        // must be the bytes that were sent.
        let s = r.str_ref()?;
        let code = |at: usize| s.get(at..at + 3).unwrap_or_default();
        let snn = ServingNetworkName::of(&Plmn::new(code(13), code(6)).map_err(implausible)?);
        if snn.as_bytes() != s.as_bytes() {
            return Err(NfError::Protocol(format!("bad serving network name {s:?}")));
        }
        Ok(snn)
    }
}

/// A SUPI as its `imsi-` text. Only text a SUPI displays as is accepted,
/// borrowed while it is checked.
impl Wire for Supi {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(self.as_str());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Supi::parse(r.str_ref()?).map_err(implausible)
    }
}

/// A SUPI that is released only on success: absent is the empty string.
impl Wire for Option<Supi> {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(self.as_ref().map_or("", Supi::as_str));
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        let s = r.str_ref()?;
        (!s.is_empty())
            .then(|| Supi::parse(s))
            .transpose()
            .map_err(implausible)
    }
}

/// An NF type by name (NRF profiles).
impl Wire for NfType {
    fn encode_into(&self, w: &mut Writer) {
        w.put_str(&self.to_string());
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        use NfType::{AMF, AUSF, NRF, SMF, UDM, UDR, UPF};
        let name = r.str_ref()?;
        [NRF, UDR, UDM, AUSF, AMF, SMF, UPF]
            .into_iter()
            .find(|t| t.to_string() == name)
            .ok_or_else(|| NfError::Protocol(format!("unknown NF type {name:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn copy<T: Copy>() {}

    #[test]
    fn identifiers_are_inline_copy_values() {
        copy::<Plmn>();
        copy::<Supi>();
        copy::<ServingNetworkName>();
        assert!(std::mem::size_of::<Supi>() <= 24);
    }

    proptest! {
        #[test]
        fn identifiers_are_exact_values(
            mcc in "[0-9]{3}",
            mnc in "[0-9]{2,3}",
            msin in "[0-9]{1,10}",
            peer_mcc in "[0-9]{3}",
            peer_mnc in "[0-9]{2,3}",
            peer_msin in "[0-9]{1,10}",
        ) {
            let plmn = Plmn::new(&mcc, &mnc).unwrap();
            let supi = Supi::new(plmn, &msin).unwrap();
            // The text the String-backed SUPI formatted, and its wire bytes.
            let text = format!("imsi-{mcc}{mnc}{msin}");
            prop_assert_eq!(supi.as_str(), text.as_str());
            prop_assert_eq!(supi.to_string(), text.clone());
            prop_assert_eq!(supi.encode(), text.encode());
            prop_assert_eq!(Supi::decode(&supi.encode()), Ok(supi));

            let peer = Supi::new(Plmn::new(&peer_mcc, &peer_mnc).unwrap(), &peer_msin).unwrap();
            prop_assert_eq!(supi.cmp(&peer), text.cmp(&peer.to_string()));
            prop_assert_eq!(supi.as_bytes().cmp(peer.as_bytes()), supi.cmp(&peer));
            prop_assert_eq!(supi == peer, text == peer.to_string());

            let snn = format!("5G:mnc{mnc:0>3}.mcc{mcc}.3gppnetwork.org");
            let of = ServingNetworkName::of(&plmn);
            prop_assert_eq!(of.as_bytes(), snn.as_bytes());
            prop_assert_eq!(ServingNetworkName::new(&mcc, &mnc), of);
        }
    }
}
