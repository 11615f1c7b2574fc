//! NAS and NGAP message types with explicit wire encodings.
//!
//! NAS (Non-Access Stratum) messages travel UE ↔ AMF through the gNB;
//! NGAP wraps them on the N2 interface. Encodings use the byte codec so
//! every message has a definite wire size — the radio and backhaul
//! latency models charge per byte.

use crate::NfError;
use shield5g_crypto::ident::{Guti, Plmn, ProtectionScheme, Suci};
use shield5g_crypto::sqn::Auts;
use shield5g_sim::codec::{Reader, Writer};
use shield5g_sim::SimError;

/// How the UE identifies itself in a registration request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UeIdentity {
    /// Concealed permanent identifier (initial registration).
    Suci(Suci),
    /// Temporary identifier from a previous registration.
    Guti(Guti),
}

/// NAS uplink messages (UE → AMF).
#[derive(Clone, Debug, PartialEq)]
pub enum NasUplink {
    /// Registration request with the UE's identity.
    RegistrationRequest {
        /// SUCI or GUTI.
        identity: UeIdentity,
    },
    /// RES* answer to an authentication challenge.
    AuthenticationResponse {
        /// The UE-computed RES*.
        res_star: [u8; 16],
    },
    /// Authentication failure indication.
    AuthenticationFailure {
        /// Why the UE rejected the challenge.
        cause: AuthFailureCause,
    },
    /// Acknowledgement of the security mode command (integrity protected).
    SecurityModeComplete,
    /// Final registration acknowledgement.
    RegistrationComplete,
    /// Request for a data session.
    PduSessionEstablishmentRequest {
        /// UE-chosen session identity (1..15).
        pdu_session_id: u8,
    },
    /// Identity response: the concealed permanent identity, sent when the
    /// network cannot resolve a temporary one (TS 24.501 §5.4.3).
    IdentityResponse {
        /// Fresh SUCI.
        suci: Suci,
    },
    /// UE-initiated deregistration (TS 24.501 §5.5.2).
    DeregistrationRequest {
        /// True when the UE is powering off (no accept expected OTA; the
        /// simulator still responds for its synchronous exchange).
        switch_off: bool,
    },
}

/// Why a UE refused an authentication challenge (TS 24.501 §9.11.3.14).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuthFailureCause {
    /// MAC-A verification failed: the network is not genuine.
    MacFailure,
    /// SQN out of range: re-synchronisation required, AUTS attached.
    SynchFailure(Auts),
}

/// NAS downlink messages (AMF → UE).
#[derive(Clone, Debug, PartialEq)]
pub enum NasDownlink {
    /// The 5G-AKA challenge.
    AuthenticationRequest {
        /// Network challenge.
        rand: [u8; 16],
        /// Authentication token.
        autn: [u8; 16],
        /// Anti-bidding-down byte string.
        abba: [u8; 2],
        /// Key set identifier.
        ngksi: u8,
    },
    /// Authentication rejected by the network.
    AuthenticationReject,
    /// Activate NAS security (integrity protected with the new context).
    SecurityModeCommand {
        /// Selected integrity algorithm identifier.
        integrity_alg: u8,
        /// Selected ciphering algorithm identifier.
        ciphering_alg: u8,
    },
    /// Registration accepted; carries the assigned GUTI.
    RegistrationAccept {
        /// The temporary identity for subsequent contacts.
        guti: Guti,
    },
    /// Registration rejected.
    RegistrationReject {
        /// 5GMM cause value.
        cause: u8,
    },
    /// Data session accepted.
    PduSessionEstablishmentAccept {
        /// Session identity echoed back.
        pdu_session_id: u8,
        /// Assigned UE IPv4 address.
        ue_ip: [u8; 4],
    },
    /// Deregistration acknowledged; the GUTI is invalid from here on.
    DeregistrationAccept,
    /// The network asks the UE for its (concealed) permanent identity.
    IdentityRequest,
}

/// A SUCI on the wire — its one field list, for NAS (registration
/// request, identity response) and the SBI bodies that forward it.
fn put_suci(w: &mut Writer, suci: &Suci) {
    w.put_str(suci.plmn.mcc())
        .put_str(suci.plmn.mnc())
        .put_u16(suci.routing_indicator)
        .put_u8(suci.scheme.id())
        .put_u8(suci.hn_key_id)
        .put_bytes(&suci.scheme_output);
}

fn get_suci(r: &mut Reader<'_>) -> Result<Suci, NfError> {
    // The digit strings are only parsed: borrowed, not copied out.
    let (mcc, mnc) = (r.str_ref()?, r.str_ref()?);
    let routing_indicator = r.u16()?;
    let scheme = ProtectionScheme::from_id(r.u8()?)?;
    let hn_key_id = r.u8()?;
    let scheme_output = r.bytes()?;
    Ok(Suci {
        plmn: Plmn::new(mcc, mnc)?,
        routing_indicator,
        hn_key_id,
        scheme,
        scheme_output,
    })
}

fn put_guti(w: &mut Writer, guti: &Guti) {
    w.put_u8(guti.amf_region_id)
        .put_u16(guti.amf_set_id)
        .put_u8(guti.amf_pointer)
        .put_u32(guti.tmsi);
}

fn get_guti(r: &mut Reader<'_>) -> Result<Guti, SimError> {
    Ok(Guti::new(r.u8()?, r.u16()?, r.u8()?, r.u32()?))
}

/// A UE identity on the wire: a discriminant, then the SUCI or GUTI.
pub(crate) fn put_ue_identity(w: &mut Writer, id: &UeIdentity) {
    match id {
        UeIdentity::Suci(suci) => put_suci(w.put_u8(0), suci),
        UeIdentity::Guti(guti) => put_guti(w.put_u8(1), guti),
    }
}

pub(crate) fn get_ue_identity(r: &mut Reader<'_>) -> Result<UeIdentity, NfError> {
    match r.u8()? {
        0 => Ok(UeIdentity::Suci(get_suci(r)?)),
        1 => Ok(UeIdentity::Guti(get_guti(r)?)),
        other => Err(NfError::Protocol(format!(
            "bad identity discriminant {other}"
        ))),
    }
}

/// NAS decoders report every violation as a framing error, in the words
/// of its cause.
fn framing(e: NfError) -> SimError {
    match e {
        NfError::Sim(e) => e,
        NfError::Crypto(e) => SimError::MalformedHttp(e.to_string()),
        NfError::Protocol(why) => SimError::MalformedHttp(why),
        e => SimError::MalformedHttp(e.to_string()),
    }
}

impl NasUplink {
    /// Encodes to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        Writer::build(|w| self.encode_into(w))
    }

    /// Writes the wire bytes into `w` (a protected PDU being built).
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            NasUplink::RegistrationRequest { identity } => {
                put_ue_identity(w.put_u8(0x41), identity);
            }
            NasUplink::AuthenticationResponse { res_star } => {
                w.put_u8(0x57);
                w.put_array(res_star);
            }
            NasUplink::AuthenticationFailure { cause } => {
                w.put_u8(0x59);
                match cause {
                    AuthFailureCause::MacFailure => {
                        w.put_u8(20);
                    }
                    AuthFailureCause::SynchFailure(auts) => {
                        w.put_u8(21);
                        w.put_array(&auts.sqn_ms_xor_ak);
                        w.put_array(&auts.mac_s);
                    }
                }
            }
            NasUplink::SecurityModeComplete => {
                w.put_u8(0x5e);
            }
            NasUplink::RegistrationComplete => {
                w.put_u8(0x43);
            }
            NasUplink::PduSessionEstablishmentRequest { pdu_session_id } => {
                w.put_u8(0xc1);
                w.put_u8(*pdu_session_id);
            }
            NasUplink::DeregistrationRequest { switch_off } => {
                w.put_u8(0x45);
                w.put_bool(*switch_off);
            }
            NasUplink::IdentityResponse { suci } => put_suci(w.put_u8(0x5c), suci),
        }
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations or an
    /// unknown message type.
    pub fn decode(bytes: &[u8]) -> Result<Self, SimError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            0x41 => NasUplink::RegistrationRequest {
                identity: get_ue_identity(&mut r).map_err(framing)?,
            },
            0x57 => NasUplink::AuthenticationResponse {
                res_star: r.array()?,
            },
            0x59 => match r.u8()? {
                20 => NasUplink::AuthenticationFailure {
                    cause: AuthFailureCause::MacFailure,
                },
                21 => NasUplink::AuthenticationFailure {
                    cause: AuthFailureCause::SynchFailure(Auts {
                        sqn_ms_xor_ak: r.array()?,
                        mac_s: r.array()?,
                    }),
                },
                other => {
                    return Err(SimError::MalformedHttp(format!(
                        "bad failure cause {other}"
                    )))
                }
            },
            0x5e => NasUplink::SecurityModeComplete,
            0x43 => NasUplink::RegistrationComplete,
            0xc1 => NasUplink::PduSessionEstablishmentRequest {
                pdu_session_id: r.u8()?,
            },
            0x45 => NasUplink::DeregistrationRequest {
                switch_off: r.bool()?,
            },
            0x5c => NasUplink::IdentityResponse {
                suci: get_suci(&mut r).map_err(framing)?,
            },
            other => {
                return Err(SimError::MalformedHttp(format!(
                    "unknown NAS uplink type {other:#x}"
                )))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

impl NasDownlink {
    /// Encodes to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        Writer::build(|w| self.encode_into(w))
    }

    /// Writes the wire bytes into `w` (a protected PDU being built).
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            NasDownlink::AuthenticationRequest {
                rand,
                autn,
                abba,
                ngksi,
            } => {
                w.put_u8(0x56);
                w.put_array(rand);
                w.put_array(autn);
                w.put_array(abba);
                w.put_u8(*ngksi);
            }
            NasDownlink::AuthenticationReject => {
                w.put_u8(0x58);
            }
            NasDownlink::SecurityModeCommand {
                integrity_alg,
                ciphering_alg,
            } => {
                w.put_u8(0x5d);
                w.put_u8(*integrity_alg);
                w.put_u8(*ciphering_alg);
            }
            NasDownlink::RegistrationAccept { guti } => put_guti(w.put_u8(0x42), guti),
            NasDownlink::RegistrationReject { cause } => {
                w.put_u8(0x44);
                w.put_u8(*cause);
            }
            NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id,
                ue_ip,
            } => {
                w.put_u8(0xc2);
                w.put_u8(*pdu_session_id);
                w.put_array(ue_ip);
            }
            NasDownlink::DeregistrationAccept => {
                w.put_u8(0x46);
            }
            NasDownlink::IdentityRequest => {
                w.put_u8(0x5b);
            }
        }
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations or an
    /// unknown message type.
    pub fn decode(bytes: &[u8]) -> Result<Self, SimError> {
        let mut r = Reader::new(bytes);
        let msg = match r.u8()? {
            0x56 => NasDownlink::AuthenticationRequest {
                rand: r.array()?,
                autn: r.array()?,
                abba: r.array()?,
                ngksi: r.u8()?,
            },
            0x58 => NasDownlink::AuthenticationReject,
            0x5d => NasDownlink::SecurityModeCommand {
                integrity_alg: r.u8()?,
                ciphering_alg: r.u8()?,
            },
            0x42 => NasDownlink::RegistrationAccept {
                guti: get_guti(&mut r)?,
            },
            0x44 => NasDownlink::RegistrationReject { cause: r.u8()? },
            0xc2 => NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id: r.u8()?,
                ue_ip: r.array()?,
            },
            0x46 => NasDownlink::DeregistrationAccept,
            0x5b => NasDownlink::IdentityRequest,
            other => {
                return Err(SimError::MalformedHttp(format!(
                    "unknown NAS downlink type {other:#x}"
                )))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// NGAP messages on N2 (gNB ↔ AMF). NAS payloads are carried opaque —
/// and, after security mode, ciphered — exactly as real NGAP does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ngap {
    /// First uplink NAS from a UE: establishes the UE-association.
    InitialUeMessage {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded (possibly protected) NAS payload.
        nas: Vec<u8>,
    },
    /// Subsequent uplink NAS.
    UplinkNasTransport {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: Vec<u8>,
    },
    /// Downlink NAS to the UE.
    DownlinkNasTransport {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: Vec<u8>,
    },
    /// Context setup carrying user-plane tunnel information alongside a
    /// NAS payload (PDU session resource setup).
    InitialContextSetup {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: Vec<u8>,
        /// UPF tunnel endpoint for the session (0 when none).
        teid: u32,
    },
}

impl Ngap {
    /// Encodes to wire bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let (tag, ran_ue_id, nas, teid) = match self {
            Ngap::InitialUeMessage { ran_ue_id, nas } => (1u8, ran_ue_id, nas, 0),
            Ngap::UplinkNasTransport { ran_ue_id, nas } => (2, ran_ue_id, nas, 0),
            Ngap::DownlinkNasTransport { ran_ue_id, nas } => (3, ran_ue_id, nas, 0),
            Ngap::InitialContextSetup {
                ran_ue_id,
                nas,
                teid,
            } => (4, ran_ue_id, nas, *teid),
        };
        w.put_u8(tag).put_u64(*ran_ue_id).put_bytes(nas);
        if tag == 4 {
            w.put_u32(teid);
        }
        w.into_bytes()
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedHttp`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, SimError> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let ran_ue_id = r.u64()?;
        let nas = r.bytes()?;
        let msg = match tag {
            1 => Ngap::InitialUeMessage { ran_ue_id, nas },
            2 => Ngap::UplinkNasTransport { ran_ue_id, nas },
            3 => Ngap::DownlinkNasTransport { ran_ue_id, nas },
            4 => Ngap::InitialContextSetup {
                ran_ue_id,
                nas,
                teid: r.u32()?,
            },
            other => return Err(SimError::MalformedHttp(format!("unknown NGAP tag {other}"))),
        };
        r.finish()?;
        Ok(msg)
    }

    /// The carried NAS payload.
    #[must_use]
    pub fn nas(&self) -> &[u8] {
        match self {
            Ngap::InitialUeMessage { nas, .. }
            | Ngap::UplinkNasTransport { nas, .. }
            | Ngap::DownlinkNasTransport { nas, .. }
            | Ngap::InitialContextSetup { nas, .. } => nas,
        }
    }

    /// The carried NAS payload, moved out (the gNB hands it to the UE).
    #[must_use]
    pub fn into_nas(self) -> Vec<u8> {
        match self {
            Ngap::InitialUeMessage { nas, .. }
            | Ngap::UplinkNasTransport { nas, .. }
            | Ngap::DownlinkNasTransport { nas, .. }
            | Ngap::InitialContextSetup { nas, .. } => nas,
        }
    }

    /// The RAN UE identifier.
    #[must_use]
    pub fn ran_ue_id(&self) -> u64 {
        match self {
            Ngap::InitialUeMessage { ran_ue_id, .. }
            | Ngap::UplinkNasTransport { ran_ue_id, .. }
            | Ngap::DownlinkNasTransport { ran_ue_id, .. }
            | Ngap::InitialContextSetup { ran_ue_id, .. } => *ran_ue_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::ident::Supi;

    fn suci() -> Suci {
        Supi::new(Plmn::test_network(), "0000000001")
            .unwrap()
            .conceal_null()
    }

    #[test]
    fn registration_request_suci_round_trip() {
        let msg = NasUplink::RegistrationRequest {
            identity: UeIdentity::Suci(suci()),
        };
        assert_eq!(NasUplink::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn registration_request_guti_round_trip() {
        let msg = NasUplink::RegistrationRequest {
            identity: UeIdentity::Guti(Guti::new(1, 0x2ff, 0x3f, 0xdeadbeef)),
        };
        assert_eq!(NasUplink::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn all_uplink_messages_round_trip() {
        let auts = Auts {
            sqn_ms_xor_ak: [1; 6],
            mac_s: [2; 8],
        };
        let messages = vec![
            NasUplink::AuthenticationResponse { res_star: [7; 16] },
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::MacFailure,
            },
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::SynchFailure(auts),
            },
            NasUplink::SecurityModeComplete,
            NasUplink::RegistrationComplete,
            NasUplink::PduSessionEstablishmentRequest { pdu_session_id: 5 },
            NasUplink::DeregistrationRequest { switch_off: false },
            NasUplink::DeregistrationRequest { switch_off: true },
            NasUplink::IdentityResponse { suci: suci() },
        ];
        for msg in messages {
            assert_eq!(NasUplink::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn all_downlink_messages_round_trip() {
        let messages = vec![
            NasDownlink::AuthenticationRequest {
                rand: [1; 16],
                autn: [2; 16],
                abba: [0, 0],
                ngksi: 3,
            },
            NasDownlink::AuthenticationReject,
            NasDownlink::SecurityModeCommand {
                integrity_alg: 2,
                ciphering_alg: 0,
            },
            NasDownlink::RegistrationAccept {
                guti: Guti::new(9, 1, 2, 42),
            },
            NasDownlink::RegistrationReject { cause: 111 },
            NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id: 5,
                ue_ip: [10, 0, 0, 2],
            },
            NasDownlink::DeregistrationAccept,
            NasDownlink::IdentityRequest,
        ];
        for msg in messages {
            assert_eq!(NasDownlink::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn ngap_round_trip_all_variants() {
        let nas = NasUplink::SecurityModeComplete.encode();
        let messages = vec![
            Ngap::InitialUeMessage {
                ran_ue_id: 7,
                nas: nas.clone(),
            },
            Ngap::UplinkNasTransport {
                ran_ue_id: 7,
                nas: nas.clone(),
            },
            Ngap::DownlinkNasTransport {
                ran_ue_id: 7,
                nas: nas.clone(),
            },
            Ngap::InitialContextSetup {
                ran_ue_id: 7,
                nas,
                teid: 42,
            },
        ];
        for msg in messages {
            let decoded = Ngap::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(decoded.ran_ue_id(), 7);
        }
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(NasUplink::decode(&[0xFF, 0, 0]).is_err());
        assert!(NasDownlink::decode(&[0xFF]).is_err());
        assert!(Ngap::decode(&[9]).is_err());
        assert!(NasUplink::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = NasUplink::SecurityModeComplete.encode();
        bytes.push(0);
        assert!(NasUplink::decode(&bytes).is_err());
    }

    #[test]
    fn suci_scheme_output_size_flows_to_wire() {
        // Profile A output (32 eph + 5 ct + 8 mac) is larger than null (5).
        let supi = Supi::new(Plmn::test_network(), "0000000001").unwrap();
        let hn = shield5g_crypto::ecies::HomeNetworkKeyPair::from_private(1, [5; 32]);
        let null_len = NasUplink::RegistrationRequest {
            identity: UeIdentity::Suci(supi.conceal_null()),
        }
        .encode()
        .len();
        let prof_a = supi.conceal_profile_a(1, hn.public(), &[9; 32]);
        let a_len = NasUplink::RegistrationRequest {
            identity: UeIdentity::Suci(prof_a),
        }
        .encode()
        .len();
        assert!(a_len > null_len + 30);
    }

    proptest::proptest! {
        #[test]
        fn nas_decoder_never_panics(bytes in proptest::collection::vec(0u8.., 0..64)) {
            let _ = NasUplink::decode(&bytes);
            let _ = NasDownlink::decode(&bytes);
            let _ = Ngap::decode(&bytes);
        }
    }
}
