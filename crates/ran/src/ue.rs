//! The COTS UE: a full-stack, spec-conformant user equipment model.
//!
//! Unlike a gNBSIM shortcut, this UE really runs its side of 5G-AKA:
//! SUCI concealment with a fresh ECIES ephemeral, AUTN verification on
//! the USIM with SQN window handling (including AUTS re-synchronisation),
//! RES* computation, the full key hierarchy, NAS security-mode
//! verification, GUTI storage and PDU-session establishment. That is
//! what makes the OTA test meaningful: the isolated AKA functions face a
//! real protocol peer.

use crate::gnb::Gnb;
use crate::usim::{ChallengeOutcome, Usim};
use crate::RanError;
use shield5g_crypto::ident::Guti;
use shield5g_crypto::keys::{derive_kamf, ServingNetworkName};
use shield5g_nf::messages::{AuthFailureCause, NasDownlink, NasUplink, UeIdentity};
use shield5g_nf::nas_security::{NasSecurityContext, ProtectedNas};
use shield5g_nf::wire::Wire;
use shield5g_obs::hub as obs;
use shield5g_obs::hub::StageSpan;
use shield5g_sim::codec::{Body, Writer};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::borrow::Cow;

/// Modem/AP processing per NAS message on a phone-class SoC.
const UE_NAS_PROC_NANOS: u64 = 450_000;
/// SUCI concealment (ECIES X25519 on the UE).
const UE_SUCI_NANOS: u64 = 800_000;
/// USIM challenge evaluation (MILENAGE on the secure element).
const UE_USIM_NANOS: u64 = 350_000;
/// The OS build the OTA testbed validated (Table IV).
pub(crate) const VALIDATED_ONEPLUS8_BUILD: &str = "Oxygen 11.0.11.11.IN21DA";

/// Result of a successful registration.
#[derive(Clone, Debug)]
pub struct RegistrationReport {
    /// End-to-end session setup time (RRC start → registration complete).
    pub setup_time: SimDuration,
    /// Assigned temporary identity.
    pub guti: Guti,
    /// SQN re-synchronisations performed along the way.
    pub resyncs: u8,
}

/// UE registration state.
#[derive(Debug, PartialEq, Eq)]
enum UeState {
    Deregistered,
    Registered,
}

/// A user equipment instance.
pub struct CotsUe {
    usim: Usim,
    model: &'static str,
    os_build: Cow<'static, str>,
    build_validated: bool,
    state: UeState,
    sec: Option<NasSecurityContext>,
    guti: Option<Guti>,
    ran_ue_id: Option<u64>,
    ue_ip: Option<[u8; 4]>,
}

impl std::fmt::Debug for CotsUe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CotsUe")
            .field("model", &self.model)
            .field("os_build", &self.os_build)
            .field("state", &self.state)
            .finish()
    }
}

impl CotsUe {
    /// The OTA testbed's OnePlus 8 with the validated Oxygen build.
    #[must_use]
    pub fn oneplus8(usim: Usim) -> Self {
        CotsUe {
            usim,
            model: "OnePlus 8",
            os_build: Cow::Borrowed(VALIDATED_ONEPLUS8_BUILD),
            build_validated: true,
            state: UeState::Deregistered,
            sec: None,
            guti: None,
            ran_ue_id: None,
            ue_ip: None,
        }
    }

    /// A gNBSIM-internal UE (no COTS build constraints).
    #[must_use]
    pub fn sim_ue(usim: Usim) -> Self {
        CotsUe {
            usim,
            model: "gnbsim-ue",
            os_build: Cow::Borrowed("n/a"),
            build_validated: false,
            state: UeState::Deregistered,
            sec: None,
            guti: None,
            ran_ue_id: None,
            ue_ip: None,
        }
    }

    /// The SIM in the device.
    #[must_use]
    pub fn usim(&self) -> &Usim {
        &self.usim
    }

    /// Whether the UE completed registration.
    #[must_use]
    pub fn is_registered(&self) -> bool {
        self.state == UeState::Registered
    }

    /// The GUTI assigned at registration.
    #[must_use]
    pub fn guti(&self) -> Option<Guti> {
        self.guti
    }

    /// The gNB's id for the UE's RRC connection, once it has one.
    #[must_use]
    pub fn ran_ue_id(&self) -> Option<u64> {
        self.ran_ue_id
    }

    fn serving_network(&self, gnb: &Gnb) -> ServingNetworkName {
        ServingNetworkName::of(gnb.broadcast_plmn())
    }

    fn charge(env: &mut Env, nanos: u64) {
        env.clock.advance(SimDuration::from_nanos(nanos));
    }

    /// Registers with the network through `gnb` (TS 23.502 §4.2.2 from
    /// the UE's seat).
    ///
    /// # Errors
    ///
    /// * [`RanError::IncompatibleUeBuild`] for unvalidated COTS builds.
    /// * [`RanError::NetworkNotFound`] on PLMN mismatch.
    /// * [`RanError::NetworkAuthenticationFailed`] when AUTN fails.
    /// * [`RanError::Rejected`] when the network refuses the UE.
    pub fn register(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
    ) -> Result<RegistrationReport, RanError> {
        // Initial registration always conceals the permanent identity.
        Self::charge(env, UE_SUCI_NANOS);
        let suci = self.usim.conceal_identity(env);
        self.register_with_identity(env, gnb, UeIdentity::Suci(suci))
    }

    /// Re-registers using the GUTI from a previous registration (mobility
    /// registration update): the permanent identity stays off the air and
    /// the AMF resolves the SUPI from its GUTI map.
    ///
    /// # Errors
    ///
    /// As [`CotsUe::register`]; additionally [`RanError::Protocol`] when
    /// no GUTI is stored yet.
    pub fn re_register_with_guti(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
    ) -> Result<RegistrationReport, RanError> {
        let guti = self
            .guti
            .ok_or_else(|| RanError::Protocol("no GUTI stored; register first".into()))?;
        self.register_with_identity(env, gnb, UeIdentity::Guti(guti))
    }

    fn register_with_identity(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
        identity: UeIdentity,
    ) -> Result<RegistrationReport, RanError> {
        if self.build_validated && self.os_build != VALIDATED_ONEPLUS8_BUILD {
            return Err(RanError::IncompatibleUeBuild(self.os_build.to_string()));
        }
        // A (re-)registration starts from a clean NAS state.
        self.state = UeState::Deregistered;
        self.sec = None;
        self.guti = None;
        let t0 = env.clock.now();
        // Roots the registration's trace: every SBI hop and enclave
        // transition below nests under this stage span, so the flame dump
        // decomposes `setup_time` exactly. Dropped (abandoned) on the
        // error returns below.
        let stage = StageSpan::open("ue", "registration", t0.as_nanos());
        let ran_ue_id = gnb.rrc_connect(env, &self.usim.plmn())?;
        self.ran_ue_id = Some(ran_ue_id);
        let snn = self.serving_network(gnb);

        let nas = NasUplink::RegistrationRequest { identity }.encode();
        let mut downlink = gnb.nas_exchange(env, ran_ue_id, &nas, true)?;
        let mut resyncs: u8 = 0;
        let mut complete_sent = false;

        loop {
            Self::charge(env, UE_NAS_PROC_NANOS);
            let msg = self.decode_downlink(&downlink)?;
            let uplink: NasUplink = match msg {
                NasDownlink::AuthenticationRequest {
                    rand, autn, abba, ..
                } => {
                    Self::charge(env, UE_USIM_NANOS);
                    match self.usim.evaluate_challenge(&rand, &autn, &snn) {
                        ChallengeOutcome::Success(result) => {
                            // Stash keys for the security-mode step.
                            let kamf = derive_kamf(&result.kseaf, self.usim.supi().as_str(), &abba);
                            self.sec = Some(NasSecurityContext::new(&kamf, true));
                            NasUplink::AuthenticationResponse {
                                res_star: result.res_star,
                            }
                        }
                        ChallengeOutcome::SyncFailure(auts) => {
                            resyncs += 1;
                            if resyncs > 2 {
                                return Err(RanError::Protocol("resynchronisation loop".into()));
                            }
                            NasUplink::AuthenticationFailure {
                                cause: AuthFailureCause::SynchFailure(auts),
                            }
                        }
                        ChallengeOutcome::MacFailure => {
                            // Report and abort: the network is not genuine.
                            let nas = NasUplink::AuthenticationFailure {
                                cause: AuthFailureCause::MacFailure,
                            }
                            .encode();
                            let _ = gnb.nas_exchange(env, ran_ue_id, &nas, false);
                            return Err(RanError::NetworkAuthenticationFailed(
                                "AUTN MAC verification failed".into(),
                            ));
                        }
                    }
                }
                NasDownlink::IdentityRequest => {
                    // The network could not resolve our temporary identity:
                    // answer with a freshly concealed SUCI.
                    Self::charge(env, UE_SUCI_NANOS);
                    let suci = self.usim.conceal_identity(env);
                    NasUplink::IdentityResponse { suci }
                }
                NasDownlink::SecurityModeCommand {
                    integrity_alg,
                    ciphering_alg,
                } => {
                    // TS 33.501 §6.7.2: the UE checks the selected
                    // algorithms are ones it supports before replaying
                    // its capabilities back under the new context.
                    if integrity_alg != shield5g_nf::nas_security::INTEGRITY_ALG_HMAC
                        || ciphering_alg != shield5g_nf::nas_security::CIPHER_ALG_AES
                    {
                        return Err(RanError::Rejected {
                            stage: "security-mode",
                            cause: format!(
                                "unsupported algorithms int={integrity_alg} enc={ciphering_alg}"
                            ),
                        });
                    }
                    NasUplink::SecurityModeComplete
                }
                NasDownlink::RegistrationAccept { guti } => {
                    self.guti = Some(guti);
                    if complete_sent {
                        // Echo after RegistrationComplete: we are done.
                        self.state = UeState::Registered;
                        break;
                    }
                    complete_sent = true;
                    NasUplink::RegistrationComplete
                }
                NasDownlink::AuthenticationReject => {
                    return Err(RanError::Rejected {
                        stage: "authentication",
                        cause: "reject".into(),
                    })
                }
                NasDownlink::RegistrationReject { cause } => {
                    return Err(RanError::Rejected {
                        stage: "registration",
                        cause: cause.to_string(),
                    })
                }
                other => return Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
            };
            let protected = self.encode_uplink(&uplink);
            downlink = gnb.nas_exchange(env, ran_ue_id, &protected, false)?;
        }

        stage.close(env.clock.now().as_nanos());
        obs::count("ue", "registration", "completed", 1);
        obs::count("ue", "registration", "resyncs", u64::from(resyncs));
        obs::observe(
            "ue",
            "registration",
            "setup_time_ns",
            (env.clock.now() - t0).as_nanos(),
        );
        #[expect(clippy::expect_used, reason = "only Accept sets it and ends the loop")]
        let guti = self.guti.expect("registered");
        Ok(RegistrationReport {
            setup_time: env.clock.now() - t0,
            guti,
            resyncs,
        })
    }

    /// Establishes a PDU session (the "data session" of §V-B6).
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] when called before registration or
    /// on unexpected responses.
    pub fn establish_session(&mut self, env: &mut Env, gnb: &mut Gnb) -> Result<[u8; 4], RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .ok_or_else(|| RanError::Protocol("PDU session before registration".into()))?;
        if self.state != UeState::Registered {
            return Err(RanError::Protocol("PDU session before registration".into()));
        }
        Self::charge(env, UE_NAS_PROC_NANOS);
        let nas =
            self.encode_uplink(&NasUplink::PduSessionEstablishmentRequest { pdu_session_id: 5 });
        let downlink = gnb.nas_exchange(env, ran_ue_id, &nas, false)?;
        Self::charge(env, UE_NAS_PROC_NANOS);
        match self.decode_downlink(&downlink)? {
            NasDownlink::PduSessionEstablishmentAccept { ue_ip, .. } => {
                self.ue_ip = Some(ue_ip);
                Ok(ue_ip)
            }
            other => Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
        }
    }

    /// Deregisters from the network (TS 24.501 §5.5.2): the GUTI, the NAS
    /// security context on both sides and the gNB connection are released.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] when not registered or on an
    /// unexpected response.
    pub fn deregister(&mut self, env: &mut Env, gnb: &mut Gnb) -> Result<(), RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .ok_or_else(|| RanError::Protocol("deregister before registration".into()))?;
        if self.state != UeState::Registered {
            return Err(RanError::Protocol("deregister before registration".into()));
        }
        Self::charge(env, UE_NAS_PROC_NANOS);
        let nas = self.encode_uplink(&NasUplink::DeregistrationRequest { switch_off: false });
        let downlink = gnb.nas_exchange(env, ran_ue_id, &nas, false)?;
        match self.decode_downlink(&downlink)? {
            NasDownlink::DeregistrationAccept => {
                gnb.release(ran_ue_id);
                self.ran_ue_id = None;
                self.state = UeState::Deregistered;
                self.sec = None;
                self.guti = None;
                self.ue_ip = None;
                Ok(())
            }
            other => Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
        }
    }

    /// Sends a user-plane payload through the established session and
    /// returns the N6-side echo.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] without a session, and transport
    /// errors from the tunnel.
    pub fn send_data(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
        payload: &[u8],
    ) -> Result<Body, RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .filter(|_| self.ue_ip.is_some())
            .ok_or_else(|| RanError::Protocol("no PDU session".into()))?;
        gnb.gtp_uplink(env, ran_ue_id, payload)
    }

    fn encode_uplink(&mut self, msg: &NasUplink) -> Body {
        Writer::build(|w| match (&mut self.sec, msg) {
            // Everything from SecurityModeComplete onwards is protected,
            // where it is written.
            (Some(sec), NasUplink::SecurityModeComplete)
            | (Some(sec), NasUplink::RegistrationComplete)
            | (Some(sec), NasUplink::PduSessionEstablishmentRequest { .. })
            | (Some(sec), NasUplink::DeregistrationRequest { .. }) => {
                sec.protect_into(w, |w| msg.encode_into(w));
            }
            _ => msg.encode_into(w),
        })
    }

    /// Reads a downlink NAS message by the UE's state (TS 24.501
    /// §4.4.4.2): with a security context it must be protected, unless it
    /// is one the spec lets arrive plain.
    fn decode_downlink(&mut self, bytes: &[u8]) -> Result<NasDownlink, RanError> {
        let Some(sec) = self.sec.as_mut() else {
            return Ok(NasDownlink::decode(bytes)?);
        };
        if let Ok(pdu) = ProtectedNas::borrow(bytes) {
            let plain = sec.unprotect(&pdu).map_err(|e| {
                RanError::NetworkAuthenticationFailed(format!("NAS integrity: {e}"))
            })?;
            return Ok(NasDownlink::decode(&plain)?);
        }
        match NasDownlink::decode(bytes)? {
            msg @ (NasDownlink::AuthenticationRequest { .. }
            | NasDownlink::AuthenticationReject
            | NasDownlink::IdentityRequest
            | NasDownlink::RegistrationReject { .. }
            | NasDownlink::DeregistrationAccept) => Ok(msg),
            other => Err(RanError::Protocol(format!("unprotected {other:?}"))),
        }
    }
}

#[cfg(test)]
impl CotsUe {
    /// Overrides the OS build (to reproduce the §V-B6 finding that other
    /// builds fail to complete the end-to-end connection).
    #[must_use]
    pub(crate) fn with_os_build(mut self, build: impl Into<Cow<'static, str>>) -> Self {
        self.os_build = build.into();
        self
    }
}

#[cfg(test)]
mod tests {
    // The UE is exercised end-to-end in `gnbsim`/`ota` tests and the
    // workspace integration tests; here we cover the guards.
    use super::*;
    use shield5g_crypto::ecies::HomeNetworkPublicKey;
    use shield5g_crypto::ident::{Plmn, Supi};

    fn usim() -> Usim {
        Usim::program(
            Supi::new(Plmn::test_network(), "0000000001").unwrap(),
            [0x46; 16],
            [0xcd; 16],
            1,
            HomeNetworkPublicKey::from_bytes([9; 32]).unwrap(),
        )
    }

    #[test]
    fn wrong_os_build_cannot_register() {
        let mut env = Env::new(1);
        let engine = std::rc::Rc::new(std::cell::RefCell::new(shield5g_sim::engine::Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let mut ue = CotsUe::oneplus8(usim()).with_os_build("Oxygen 10.0.1");
        assert!(matches!(
            ue.register(&mut env, &mut gnb),
            Err(RanError::IncompatibleUeBuild(_))
        ));
    }

    #[test]
    fn pdu_session_requires_registration() {
        let mut env = Env::new(2);
        let engine = std::rc::Rc::new(std::cell::RefCell::new(shield5g_sim::engine::Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let mut ue = CotsUe::oneplus8(usim());
        assert!(ue.establish_session(&mut env, &mut gnb).is_err());
        assert!(ue.send_data(&mut env, &mut gnb, b"ping").is_err());
    }

    #[test]
    fn under_a_security_context_only_the_listed_messages_arrive_plain() {
        use shield5g_nf::nas_security::{CIPHER_ALG_AES, INTEGRITY_ALG_HMAC};
        let kamf = [0x42; 32];
        let mut amf = NasSecurityContext::from_kamf(&kamf, false);
        let refused = [
            NasDownlink::RegistrationAccept {
                guti: Guti::new(1, 1, 1, 7),
            },
            NasDownlink::SecurityModeCommand {
                integrity_alg: INTEGRITY_ALG_HMAC,
                ciphering_alg: CIPHER_ALG_AES,
            },
            NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id: 5,
                ue_ip: [10, 0, 0, 2],
            },
        ];
        // TS 24.501 §4.4.4.2.
        let allowed = [
            NasDownlink::AuthenticationRequest {
                rand: [1; 16],
                autn: [2; 16],
                abba: [0, 0],
                ngksi: 0,
            },
            NasDownlink::AuthenticationReject,
            NasDownlink::IdentityRequest,
            NasDownlink::RegistrationReject { cause: 111 },
            NasDownlink::DeregistrationAccept,
        ];
        let mut ue = CotsUe::sim_ue(usim());
        for msg in refused.iter().chain(&allowed) {
            assert_eq!(&ue.decode_downlink(&msg.encode()).unwrap(), msg);
        }
        ue.sec = Some(NasSecurityContext::from_kamf(&kamf, true));
        for msg in &refused {
            assert!(
                matches!(
                    ue.decode_downlink(&msg.encode()),
                    Err(RanError::Protocol(_))
                ),
                "{msg:?} accepted plain"
            );
        }
        for msg in &allowed {
            assert_eq!(&ue.decode_downlink(&msg.encode()).unwrap(), msg);
        }
        for msg in refused.iter().chain(&allowed) {
            let protected = amf.protect(&msg.encode()).encode();
            assert_eq!(&ue.decode_downlink(&protected).unwrap(), msg);
        }
    }

    #[test]
    fn fresh_ue_is_deregistered() {
        let ue = CotsUe::oneplus8(usim());
        assert!(!ue.is_registered());
        assert!(ue.guti().is_none());
        assert!(ue.ue_ip.is_none());
    }
}
