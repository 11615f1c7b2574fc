//! NAS and NGAP message types and their tagged field lists.
//!
//! NAS (Non-Access Stratum) messages travel UE ↔ AMF through the gNB;
//! NGAP wraps them on the N2 interface. Each message's codec comes from
//! its field list ([`crate::wire`]), so every message has a definite wire
//! size — the radio and backhaul latency models charge per byte.

use crate::wire::{wire, Wire};
use crate::NfError;
use shield5g_crypto::ident::{Guti, Suci};
use shield5g_crypto::sqn::Auts;
use shield5g_sim::codec::{Body, Reader, Writer};

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

wire!(enum UeIdentity {
    0 => Suci(suci),
    1 => Guti(guti),
});

wire!(enum AuthFailureCause {
    20 => MacFailure,
    21 => SynchFailure(auts),
});

wire!(enum NasUplink {
    0x41 => RegistrationRequest { identity },
    0x57 => AuthenticationResponse { res_star },
    0x59 => AuthenticationFailure { cause },
    0x5e => SecurityModeComplete,
    0x43 => RegistrationComplete,
    0xc1 => PduSessionEstablishmentRequest { pdu_session_id },
    0x5c => IdentityResponse { suci },
    0x45 => DeregistrationRequest { switch_off },
});

wire!(enum NasDownlink {
    0x56 => AuthenticationRequest { rand, autn, abba, ngksi },
    0x58 => AuthenticationReject,
    0x5d => SecurityModeCommand { integrity_alg, ciphering_alg },
    0x42 => RegistrationAccept { guti },
    0x44 => RegistrationReject { cause },
    0xc2 => PduSessionEstablishmentAccept { pdu_session_id, ue_ip },
    0x46 => DeregistrationAccept,
    0x5b => IdentityRequest,
});

/// NGAP messages on N2 (gNB ↔ AMF). NAS payloads are carried opaque —
/// and, after security mode, ciphered — exactly as real NGAP does: owned
/// (`Vec<u8>`, any other byte buffer) or borrowed from the wire bytes
/// (`&[u8]`, [`Ngap::borrow`]), so a relay reads the NAS PDU where the
/// NGAP message carried it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ngap<B = Vec<u8>> {
    /// First uplink NAS from a UE: establishes the UE-association.
    InitialUeMessage {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded (possibly protected) NAS payload.
        nas: B,
    },
    /// Subsequent uplink NAS.
    UplinkNasTransport {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: B,
    },
    /// Downlink NAS to the UE.
    DownlinkNasTransport {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: B,
    },
    /// Context setup carrying user-plane tunnel information alongside a
    /// NAS payload (PDU session resource setup).
    InitialContextSetup {
        /// gNB-assigned RAN UE identifier.
        ran_ue_id: u64,
        /// Encoded NAS payload.
        nas: B,
        /// UPF tunnel endpoint for the session (0 when none).
        teid: u32,
    },
}

// Wire form: the tag, `ran_ue_id`, the length-prefixed NAS, and for
// `InitialContextSetup` the tunnel endpoint after it. Written by hand
// rather than by `wire!`, which knows no borrowed field.
impl<B: AsRef<[u8]>> Ngap<B> {
    /// Writes the wire form into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        let tag = match self {
            Ngap::InitialUeMessage { .. } => 1,
            Ngap::UplinkNasTransport { .. } => 2,
            Ngap::DownlinkNasTransport { .. } => 3,
            Ngap::InitialContextSetup { .. } => 4,
        };
        w.put_u8(tag)
            .put_u64(self.ran_ue_id())
            .put_bytes(self.nas());
        if let Ngap::InitialContextSetup { teid, .. } = self {
            w.put_u32(*teid);
        }
    }

    /// The wire bytes.
    #[must_use]
    pub fn encode(&self) -> Body {
        Writer::build(|w| self.encode_into(w))
    }

    /// The carried NAS payload.
    #[must_use]
    pub fn nas(&self) -> &[u8] {
        match self {
            Ngap::InitialUeMessage { nas, .. }
            | Ngap::UplinkNasTransport { nas, .. }
            | Ngap::DownlinkNasTransport { nas, .. }
            | Ngap::InitialContextSetup { nas, .. } => nas.as_ref(),
        }
    }
}

impl<B> Ngap<B> {
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

    /// The same message with its NAS payload mapped by `f`.
    #[must_use]
    pub fn map<C>(self, f: impl FnOnce(B) -> C) -> Ngap<C> {
        match self {
            Ngap::InitialUeMessage { ran_ue_id, nas } => Ngap::InitialUeMessage {
                ran_ue_id,
                nas: f(nas),
            },
            Ngap::UplinkNasTransport { ran_ue_id, nas } => Ngap::UplinkNasTransport {
                ran_ue_id,
                nas: f(nas),
            },
            Ngap::DownlinkNasTransport { ran_ue_id, nas } => Ngap::DownlinkNasTransport {
                ran_ue_id,
                nas: f(nas),
            },
            Ngap::InitialContextSetup {
                ran_ue_id,
                nas,
                teid,
            } => Ngap::InitialContextSetup {
                ran_ue_id,
                nas: f(nas),
                teid,
            },
        }
    }
}

impl<'a> Ngap<&'a [u8]> {
    /// Decodes wire bytes, the NAS payload left where it is: the
    /// zero-copy form of [`Ngap::decode`], which accepts and refuses the
    /// same bytes.
    ///
    /// # Errors
    ///
    /// [`NfError::Sim`] on a framing violation, [`NfError::Protocol`] on
    /// an unknown tag.
    pub fn borrow(bytes: &'a [u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let msg = Self::read(&mut r)?;
        r.finish()?;
        Ok(msg)
    }

    fn read(r: &mut Reader<'a>) -> Result<Self, NfError> {
        let tag = r.u8()?;
        if !(1..=4).contains(&tag) {
            return Err(NfError::Protocol(format!("unknown Ngap tag {tag:#x}")));
        }
        let (ran_ue_id, nas) = (r.u64()?, r.bytes_ref()?);
        Ok(match tag {
            1 => Ngap::InitialUeMessage { ran_ue_id, nas },
            2 => Ngap::UplinkNasTransport { ran_ue_id, nas },
            3 => Ngap::DownlinkNasTransport { ran_ue_id, nas },
            _ => Ngap::InitialContextSetup {
                ran_ue_id,
                nas,
                teid: r.u32()?,
            },
        })
    }
}

impl Wire for Ngap {
    fn encode_into(&self, w: &mut Writer) {
        Ngap::encode_into(self, w);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        Ok(Ngap::read(r)?.map(<[u8]>::to_vec))
    }
}

impl Ngap {
    /// Decodes a whole message into an owned one
    /// ([`Wire::decode`]).
    ///
    /// # Errors
    ///
    /// As [`Ngap::borrow`].
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        Wire::decode(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::ident::{Plmn, Supi};

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
        let nas = NasUplink::SecurityModeComplete.encode().to_vec();
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
        let mut bytes = NasUplink::SecurityModeComplete.encode().to_vec();
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
}
