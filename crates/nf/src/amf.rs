//! The Access and Mobility Management Function (with the SEAF role).
//!
//! Terminates NAS from the gNB (paper Fig. 2: "forwards Non-Access
//! Stratum signaling messages between the Access Network and the core"),
//! drives 5G-AKA against the AUSF, performs the SEAF's HRES*/HXRES*
//! check, activates NAS security, allocates GUTIs and anchors PDU-session
//! requests to the SMF. Its K_AMF derivation is delegated to an
//! [`AkaBackend`] for [`DeriveKamf`] (the eAMF P-AKA module in the paper's
//! deployments).

use crate::backend::{AkaBackend, AmfAkaRequest, BackendOp, CallToken, DeriveKamf};
use crate::messages::{AuthFailureCause, NasDownlink, NasUplink, Ngap, UeIdentity};
use crate::nas_security::{NasSecurityContext, ProtectedNas, CIPHER_ALG_AES, INTEGRITY_ALG_HMAC};
use crate::sbi::{
    AuthenticateRequest, AuthenticateResponse, ConfirmRequest, ConfirmResponse,
    CreateSessionRequest, CreateSessionResponse, ResyncRequest, SbiClient,
};
use crate::wire::Wire;
use crate::NfError;
use shield5g_crypto::ident::{Guti, Supi};
use shield5g_crypto::keys::derive_hxres_star;
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_sim::codec::{Body, Writer};
use shield5g_sim::engine::{EngineService, LegMeta, Parked, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// NAS decode/validate/route overhead per message on the OAI C++ path.
const AMF_NAS_HANDLER_NANOS: u64 = 62_000;

/// The ABBA parameter (TS 33.501: all zeros pending feature sets).
pub const ABBA: [u8; 2] = [0, 0];

/// Registration progress for one UE association.
enum UeState {
    /// Challenge sent; waiting for the RES*.
    AuthPending {
        identity: UeIdentity,
        auth_ctx_id: u64,
        rand: [u8; 16],
        hxres_star: [u8; 16],
        /// Re-synchronisation attempts so far (loop guard).
        resync_attempts: u8,
    },
    /// Security mode command sent; NAS context live.
    SecurityMode { supi: Supi, sec: NasSecurityContext },
    /// Registration accepted; waiting for complete.
    AcceptSent {
        supi: Supi,
        sec: NasSecurityContext,
        guti: Guti,
    },
    /// Fully registered.
    Registered {
        supi: Supi,
        sec: NasSecurityContext,
        guti: Guti,
    },
    /// Identity request sent; waiting for the SUCI.
    AwaitingIdentity,
}

/// The AMF service.
pub struct AmfService {
    client: SbiClient,
    ausf_addr: Rc<str>,
    smf_addr: Rc<str>,
    backend: Box<dyn AkaBackend<DeriveKamf>>,
    serving_mcc: String,
    serving_mnc: String,
    contexts: BTreeMap<u64, UeState>,
    pending_teid: BTreeMap<u64, u32>,
    pending_teardown: BTreeSet<u64>,
    guti_to_supi: BTreeMap<u32, Supi>,
    next_tmsi: u32,
    registrations_completed: u64,
    deregistrations: u64,
    flows: Parked<AmfFlow>,
}

impl std::fmt::Debug for AmfService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmfService")
            .field("active_contexts", &self.contexts.len())
            .field("registrations_completed", &self.registrations_completed)
            .finish()
    }
}

impl AmfService {
    /// Creates an AMF for the serving PLMN `mcc`/`mnc`.
    #[must_use]
    pub fn new(
        client: SbiClient,
        ausf_addr: impl Into<Rc<str>>,
        smf_addr: impl Into<Rc<str>>,
        backend: Box<dyn AkaBackend<DeriveKamf>>,
        mcc: &str,
        mnc: &str,
    ) -> Self {
        AmfService {
            client,
            ausf_addr: ausf_addr.into(),
            smf_addr: smf_addr.into(),
            backend,
            serving_mcc: mcc.to_owned(),
            serving_mnc: mnc.to_owned(),
            contexts: BTreeMap::new(),
            pending_teid: BTreeMap::new(),
            pending_teardown: BTreeSet::new(),
            guti_to_supi: BTreeMap::new(),
            next_tmsi: 0x0100_0000,
            registrations_completed: 0,
            deregistrations: 0,
            flows: Parked::new(),
        }
    }

    /// Completed registrations (diagnostics / experiments).
    #[must_use]
    pub fn registrations_completed(&self) -> u64 {
        self.registrations_completed
    }

    /// Charges the SBI send cost, parks `flow` under the serving leg and
    /// yields the call to the engine. The NF does not retransmit: a failed
    /// call resumes `flow` with the error. The slice's stack (obs →
    /// breaker → fault) installs no `shield5g_mw::RetryLayer`, and the
    /// open-loop driver retransmits whole requests on its own.
    fn call_out(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        dest: Rc<str>,
        path: &str,
        body: Body,
        flow: AmfFlow,
    ) -> Step {
        let req = self.client.send(env, path, body);
        self.flows.call_out(leg, dest, req, flow)
    }

    /// Flows parked across a call-out; 0 whenever no request is in flight.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.flows.len()
    }

    /// Completed deregistrations.
    #[must_use]
    pub fn deregistrations(&self) -> u64 {
        self.deregistrations
    }

    /// UE associations holding a context, in any state (diagnostics).
    #[must_use]
    pub fn active_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Whether the UE association is in the `Registered` state.
    #[must_use]
    pub fn is_registered(&self, ran_ue_id: u64) -> bool {
        matches!(
            self.contexts.get(&ran_ue_id),
            Some(UeState::Registered { .. })
        )
    }

    /// Error mapping of the NGAP handler path.
    fn ngap_error(e: NfError) -> HttpResponse {
        match e {
            NfError::AuthenticationRejected(why) => HttpResponse::error(403, why),
            NfError::Sim(shield5g_sim::SimError::ServiceFailure { status, .. }) => {
                HttpResponse::error(status, "upstream failure")
            }
            e => HttpResponse::error(400, e.to_string()),
        }
    }

    fn start_authentication(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ran_ue_id: u64,
        identity: UeIdentity,
        resync_attempts: u8,
    ) -> Result<Step, NfError> {
        // A known GUTI maps to a SUPI carried in the SBI `known_supi`
        // field; unknown GUTIs would require an Identity Request (we
        // reject, forcing the UE to fall back to SUCI).
        let known_supi = match &identity {
            UeIdentity::Suci(_) => String::new(),
            UeIdentity::Guti(guti) => match self.guti_to_supi.get(&guti.tmsi) {
                Some(supi) => supi.to_string(),
                None => {
                    // TS 23.502 §4.2.2.2.2: the AMF cannot resolve the 5G-GUTI
                    // and asks the UE for its (concealed) permanent identity.
                    self.contexts.insert(ran_ue_id, UeState::AwaitingIdentity);
                    return Ok(self.finish_ngap(ran_ue_id, &NasDownlink::IdentityRequest));
                }
            },
        };
        let req = AuthenticateRequest {
            identity: identity.clone(),
            known_supi,
            snn_mcc: self.serving_mcc.clone(),
            snn_mnc: self.serving_mnc.clone(),
        };
        Ok(self.call_out(
            env,
            leg,
            self.ausf_addr.clone(),
            "/nausf-auth/authenticate",
            req.encode(),
            AmfFlow::AwaitAusfAuth {
                ran_ue_id,
                identity,
                resync_attempts,
            },
        ))
    }

    fn handle_auth_response(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ran_ue_id: u64,
        res_star: [u8; 16],
    ) -> Result<Step, NfError> {
        let Some(UeState::AuthPending {
            auth_ctx_id,
            rand,
            hxres_star,
            ..
        }) = self.contexts.get(&ran_ue_id)
        else {
            return Err(NfError::Protocol(
                "authentication response without pending auth".into(),
            ));
        };
        let (auth_ctx_id, rand, hxres_star) = (*auth_ctx_id, *rand, *hxres_star);

        // SEAF check: HRES* against HXRES* (TS 33.501 §6.1.3.2 step 9).
        let hres_star = derive_hxres_star(&rand, &res_star);
        if !shield5g_crypto::ct_eq(&hres_star, &hxres_star) {
            self.contexts.remove(&ran_ue_id);
            env.log.record(
                env.clock.now(),
                "aka",
                format_args!("SEAF HRES* check failed"),
            );
            return Ok(self.finish_ngap(ran_ue_id, &NasDownlink::AuthenticationReject));
        }

        // AUSF confirmation releases K_SEAF and the SUPI.
        let confirm = ConfirmRequest {
            auth_ctx_id,
            res_star,
        };
        Ok(self.call_out(
            env,
            leg,
            self.ausf_addr.clone(),
            "/nausf-auth/confirm",
            confirm.encode(),
            AmfFlow::AwaitConfirm { ran_ue_id },
        ))
    }

    /// With K_AMF in hand: activate NAS security and command the UE.
    fn enter_security_mode(&mut self, ran_ue_id: u64, supi: Supi, kamf: &SecretBytes<32>) -> Step {
        let sec = NasSecurityContext::new(kamf, false);
        self.contexts
            .insert(ran_ue_id, UeState::SecurityMode { supi, sec });
        self.finish_ngap(
            ran_ue_id,
            &NasDownlink::SecurityModeCommand {
                integrity_alg: INTEGRITY_ALG_HMAC,
                ciphering_alg: CIPHER_ALG_AES,
            },
        )
    }

    fn handle_auth_failure(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ran_ue_id: u64,
        cause: AuthFailureCause,
    ) -> Result<Step, NfError> {
        let Some(UeState::AuthPending {
            identity,
            rand,
            resync_attempts,
            ..
        }) = self.contexts.remove(&ran_ue_id)
        else {
            return Err(NfError::Protocol(
                "authentication failure without pending auth".into(),
            ));
        };
        match cause {
            AuthFailureCause::MacFailure => {
                env.log.record(
                    env.clock.now(),
                    "aka",
                    format_args!("UE reported MAC failure"),
                );
                Ok(self.finish_ngap(
                    ran_ue_id,
                    &NasDownlink::RegistrationReject {
                        cause: 3, /* illegal network */
                    },
                ))
            }
            AuthFailureCause::SynchFailure(auts) => {
                if resync_attempts >= 2 {
                    return Ok(self
                        .finish_ngap(ran_ue_id, &NasDownlink::RegistrationReject { cause: 111 }));
                }
                // Recover the SUPI for the resync. A known GUTI resolves
                // locally; a SUCI must be de-concealed by the UDM/SIDF, so
                // the AMF runs the identity through a `generate-auth-data`
                // round first (which also returns the SUPI).
                let supi = match &identity {
                    UeIdentity::Suci(_) => None,
                    UeIdentity::Guti(guti) => self.guti_to_supi.get(&guti.tmsi).copied(),
                };
                let Some(supi) = supi else {
                    let req = crate::sbi::UdmAuthGetRequest {
                        identity: identity.clone(),
                        known_supi: String::new(),
                        snn_mcc: self.serving_mcc.clone(),
                        snn_mnc: self.serving_mnc.clone(),
                    };
                    return Ok(self.call_out(
                        env,
                        leg,
                        crate::addr::UDM.into(),
                        "/nudm-ueau/generate-auth-data",
                        req.encode(),
                        AmfFlow::AwaitSupiResolve {
                            ran_ue_id,
                            identity,
                            rand,
                            auts,
                            resync_attempts,
                        },
                    ));
                };
                self.send_resync(
                    env,
                    leg,
                    ran_ue_id,
                    identity,
                    supi,
                    rand,
                    &auts,
                    resync_attempts,
                )
            }
        }
    }

    /// Pushes the AUTS to the AUSF resync endpoint.
    #[expect(clippy::too_many_arguments, reason = "resync inputs arrive unbundled")]
    fn send_resync(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ran_ue_id: u64,
        identity: UeIdentity,
        supi: Supi,
        rand: [u8; 16],
        auts: &Auts,
        resync_attempts: u8,
    ) -> Result<Step, NfError> {
        let resync = ResyncRequest {
            supi,
            rand,
            auts: auts.clone(),
        };
        Ok(self.call_out(
            env,
            leg,
            self.ausf_addr.clone(),
            "/nausf-auth/resync",
            resync.encode(),
            AmfFlow::AwaitResync {
                ran_ue_id,
                identity,
                resync_attempts,
            },
        ))
    }

    fn allocate_guti(&mut self, ran_ue_id: u64, supi: Supi) -> Guti {
        let tmsi = self.next_tmsi;
        self.next_tmsi += 1;
        // A subscriber holds exactly one valid 5G-GUTI: allocating a new
        // one invalidates any earlier mapping (GUTI hygiene — a superseded
        // temporary identity must not keep resolving), and with it the
        // registration it named: one `Registered` context per subscriber.
        self.guti_to_supi.retain(|_, s| *s != supi);
        self.contexts.retain(|&id, state| {
            id == ran_ue_id || !matches!(state, UeState::Registered { supi: s, .. } if *s == supi)
        });
        self.guti_to_supi.insert(tmsi, supi);
        Guti::new(1, 1, 1, tmsi)
    }

    fn handle_secured_uplink(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ran_ue_id: u64,
        pdu: &ProtectedNas<&[u8]>,
    ) -> Result<Step, NfError> {
        let state = self
            .contexts
            .remove(&ran_ue_id)
            .ok_or_else(|| NfError::Protocol("secured NAS without context".into()))?;
        match state {
            UeState::SecurityMode { supi, mut sec } => {
                let plain = sec.unprotect(pdu)?;
                match NasUplink::decode(&plain)? {
                    NasUplink::SecurityModeComplete => {
                        let guti = self.allocate_guti(ran_ue_id, supi);
                        self.contexts
                            .insert(ran_ue_id, UeState::AcceptSent { supi, sec, guti });
                        Ok(self.finish_ngap(ran_ue_id, &NasDownlink::RegistrationAccept { guti }))
                    }
                    other => Err(NfError::Protocol(format!(
                        "expected SecurityModeComplete, got {other:?}"
                    ))),
                }
            }
            UeState::AcceptSent {
                supi,
                mut sec,
                guti,
            } => {
                let plain = sec.unprotect(pdu)?;
                match NasUplink::decode(&plain)? {
                    NasUplink::RegistrationComplete => {
                        self.registrations_completed += 1;
                        shield5g_obs::hub::count(
                            "amf",
                            "/ngap",
                            shield5g_obs::labels::REGISTRATIONS_COMPLETED,
                            1,
                        );
                        env.log.record(
                            env.clock.now(),
                            "aka",
                            format_args!("{supi} registered as {guti}"),
                        );
                        self.contexts
                            .insert(ran_ue_id, UeState::Registered { supi, sec, guti });
                        // No downlink NAS needed; answer with a harmless
                        // context-setup echo (the gNB consumes it).
                        Ok(self.finish_ngap(ran_ue_id, &NasDownlink::RegistrationAccept { guti }))
                    }
                    other => Err(NfError::Protocol(format!(
                        "expected RegistrationComplete, got {other:?}"
                    ))),
                }
            }
            UeState::Registered {
                supi,
                mut sec,
                guti,
            } => {
                let plain = sec.unprotect(pdu)?;
                match NasUplink::decode(&plain)? {
                    NasUplink::DeregistrationRequest { switch_off } => {
                        // Invalidate the GUTI and drop the context; the
                        // accept still rides the (dying) security context,
                        // which `encode_downlink` picks up from the
                        // tombstone before `finish_ngap` clears it.
                        self.guti_to_supi.remove(&guti.tmsi);
                        self.deregistrations += 1;
                        shield5g_obs::hub::count(
                            "amf",
                            "/ngap",
                            shield5g_obs::labels::DEREGISTRATIONS,
                            1,
                        );
                        self.pending_teardown.insert(ran_ue_id);
                        env.log.record(
                            env.clock.now(),
                            "aka",
                            format_args!("{supi} deregistered (switch_off={switch_off})"),
                        );
                        self.contexts
                            .insert(ran_ue_id, UeState::Registered { supi, sec, guti });
                        Ok(self.finish_ngap(ran_ue_id, &NasDownlink::DeregistrationAccept))
                    }
                    NasUplink::PduSessionEstablishmentRequest { pdu_session_id } => {
                        // Re-arm the context before yielding so the resumed
                        // flow finds the security context for the downlink.
                        self.contexts
                            .insert(ran_ue_id, UeState::Registered { supi, sec, guti });
                        Ok(self.call_out(
                            env,
                            leg,
                            self.smf_addr.clone(),
                            "/nsmf-pdusession/create",
                            CreateSessionRequest {
                                supi,
                                pdu_session_id,
                            }
                            .encode(),
                            AmfFlow::AwaitSmf {
                                ran_ue_id,
                                pdu_session_id,
                            },
                        ))
                    }
                    other => Err(NfError::Protocol(format!(
                        "unexpected NAS in registered state: {other:?}"
                    ))),
                }
            }
            UeState::AuthPending { .. } | UeState::AwaitingIdentity => Err(NfError::Protocol(
                "secured NAS during authentication".into(),
            )),
        }
    }

    /// Encodes a downlink NAS message, protected where it is written when
    /// a security context exists for the association (post security-mode
    /// messages are protected).
    fn encode_downlink(&mut self, ran_ue_id: u64, msg: &NasDownlink) -> Body {
        Writer::build(|w| match self.contexts.get_mut(&ran_ue_id) {
            // The SecurityModeCommand itself and everything after travel
            // under the new context.
            Some(
                UeState::SecurityMode { sec, .. }
                | UeState::AcceptSent { sec, .. }
                | UeState::Registered { sec, .. },
            ) => sec.protect_into(w, |w| msg.encode_into(w)),
            _ => msg.encode_into(w),
        })
    }

    /// Wraps a downlink NAS message into the NGAP reply: protect under the
    /// association's security context, apply any pending teardown, and
    /// choose the NGAP frame (a freshly anchored PDU session rides down in
    /// an `InitialContextSetup` so the gNB learns the GTP tunnel endpoint).
    fn finish_ngap(&mut self, ran_ue_id: u64, msg: &NasDownlink) -> Step {
        let nas = self.encode_downlink(ran_ue_id, msg);
        // A deregistration tears the context down after the (protected)
        // accept has been encoded.
        if self.pending_teardown.remove(&ran_ue_id) {
            self.contexts.remove(&ran_ue_id);
        }
        let nas = &nas[..];
        let ngap = if let Some(teid) = self.pending_teid.remove(&ran_ue_id) {
            Ngap::InitialContextSetup {
                ran_ue_id,
                nas,
                teid,
            }
        } else {
            Ngap::DownlinkNasTransport { ran_ue_id, nas }
        };
        Step::Reply(HttpResponse::ok(ngap.encode()))
    }

    fn process_ngap(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        ngap: &Ngap<&[u8]>,
    ) -> Result<Step, NfError> {
        env.clock
            .advance(SimDuration::from_nanos(AMF_NAS_HANDLER_NANOS));
        let ran_ue_id = ngap.ran_ue_id();
        let nas_bytes = ngap.nas();

        // Secured PDUs only exist once a context is past SecurityMode.
        let has_sec_context = matches!(
            self.contexts.get(&ran_ue_id),
            Some(
                UeState::SecurityMode { .. }
                    | UeState::AcceptSent { .. }
                    | UeState::Registered { .. }
            )
        );
        if has_sec_context {
            let pdu = ProtectedNas::borrow(nas_bytes)?;
            self.handle_secured_uplink(env, leg, ran_ue_id, &pdu)
        } else {
            match NasUplink::decode(nas_bytes)? {
                NasUplink::RegistrationRequest { identity } => {
                    self.start_authentication(env, leg, ran_ue_id, identity, 0)
                }
                NasUplink::AuthenticationResponse { res_star } => {
                    self.handle_auth_response(env, leg, ran_ue_id, res_star)
                }
                NasUplink::AuthenticationFailure { cause } => {
                    self.handle_auth_failure(env, leg, ran_ue_id, cause)
                }
                NasUplink::IdentityResponse { suci } => {
                    if !matches!(
                        self.contexts.get(&ran_ue_id),
                        Some(UeState::AwaitingIdentity)
                    ) {
                        return Err(NfError::Protocol("unsolicited identity response".into()));
                    }
                    self.contexts.remove(&ran_ue_id);
                    self.start_authentication(env, leg, ran_ue_id, UeIdentity::Suci(suci), 0)
                }
                other => Err(NfError::Protocol(format!(
                    "unexpected plain NAS: {other:?}"
                ))),
            }
        }
    }

    /// Drives one resumed continuation after a downstream response event.
    fn resume_flow(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        flow: AmfFlow,
        resp: HttpResponse,
    ) -> Result<Step, NfError> {
        match flow {
            AmfFlow::AwaitAusfAuth {
                ran_ue_id,
                identity,
                resync_attempts,
            } => {
                let body = self.client.receive(env, &self.ausf_addr, resp)?;
                let auth = AuthenticateResponse::decode(&body)?;
                self.contexts.insert(
                    ran_ue_id,
                    UeState::AuthPending {
                        identity,
                        auth_ctx_id: auth.auth_ctx_id,
                        rand: auth.se_av.rand,
                        hxres_star: auth.se_av.hxres_star,
                        resync_attempts,
                    },
                );
                Ok(self.finish_ngap(
                    ran_ue_id,
                    &NasDownlink::AuthenticationRequest {
                        rand: auth.se_av.rand,
                        autn: auth.se_av.autn,
                        abba: ABBA,
                        ngksi: 0,
                    },
                ))
            }
            AmfFlow::AwaitConfirm { ran_ue_id } => {
                let body = self.client.receive(env, &self.ausf_addr, resp)?;
                let confirm = ConfirmResponse::decode(&body)?;
                let Some(supi) = confirm.supi.filter(|_| confirm.success) else {
                    self.contexts.remove(&ran_ue_id);
                    return Ok(self.finish_ngap(ran_ue_id, &NasDownlink::AuthenticationReject));
                };
                // K_AMF via the (possibly enclave-hosted) backend.
                let req = AmfAkaRequest {
                    kseaf: confirm.kseaf,
                    supi,
                    abba: ABBA,
                };
                match self.backend.begin(env, &req) {
                    BackendOp::Done(kamf) => Ok(self.enter_security_mode(ran_ue_id, supi, &kamf?)),
                    BackendOp::Call { dest, req, token } => {
                        let flow = AmfFlow::AwaitKamf {
                            ran_ue_id,
                            supi,
                            token,
                        };
                        Ok(self.flows.call_out(leg, dest, req, flow))
                    }
                }
            }
            AmfFlow::AwaitKamf {
                ran_ue_id,
                supi,
                token,
            } => {
                let kamf = self.backend.finish(env, token, resp)?;
                Ok(self.enter_security_mode(ran_ue_id, supi, &kamf))
            }
            AmfFlow::AwaitSupiResolve {
                ran_ue_id,
                identity,
                rand,
                auts,
                resync_attempts,
            } => {
                let body = self.client.receive(env, crate::addr::UDM, resp)?;
                let supi = crate::sbi::UdmAuthGetResponse::decode(&body)?.supi;
                self.send_resync(
                    env,
                    leg,
                    ran_ue_id,
                    identity,
                    supi,
                    rand,
                    &auts,
                    resync_attempts,
                )
            }
            AmfFlow::AwaitResync {
                ran_ue_id,
                identity,
                resync_attempts,
            } => {
                self.client.receive(env, &self.ausf_addr, resp)?;
                env.log.record(
                    env.clock.now(),
                    "aka",
                    format_args!("SQN re-synchronised; restarting AKA"),
                );
                self.start_authentication(env, leg, ran_ue_id, identity, resync_attempts + 1)
            }
            AmfFlow::AwaitSmf {
                ran_ue_id,
                pdu_session_id,
            } => {
                let body = self.client.receive(env, &self.smf_addr, resp)?;
                let created = CreateSessionResponse::decode(&body)?;
                self.pending_teid.insert(ran_ue_id, created.upf_teid);
                Ok(self.finish_ngap(
                    ran_ue_id,
                    &NasDownlink::PduSessionEstablishmentAccept {
                        pdu_session_id,
                        ue_ip: created.ue_ip,
                    },
                ))
            }
        }
    }
}

/// Continuation state across the AMF's outbound SBI round trips, parked
/// under the serving leg's id while its call is out.
#[expect(clippy::enum_variant_names, reason = "variants await distinct peers")]
enum AmfFlow {
    /// Waiting for the AUSF's SE AV (authenticate).
    AwaitAusfAuth {
        ran_ue_id: u64,
        identity: UeIdentity,
        resync_attempts: u8,
    },
    /// Waiting for the AUSF's confirmation (K_SEAF release).
    AwaitConfirm { ran_ue_id: u64 },
    /// Waiting for the eAMF module's K_AMF derivation.
    AwaitKamf {
        ran_ue_id: u64,
        supi: Supi,
        token: CallToken,
    },
    /// Waiting for a UDM round that de-conceals the SUCI for a resync.
    AwaitSupiResolve {
        ran_ue_id: u64,
        identity: UeIdentity,
        rand: [u8; 16],
        auts: Auts,
        resync_attempts: u8,
    },
    /// Waiting for the AUSF resync acknowledgement.
    AwaitResync {
        ran_ue_id: u64,
        identity: UeIdentity,
        resync_attempts: u8,
    },
    /// Waiting for the SMF's PDU-session anchor.
    AwaitSmf { ran_ue_id: u64, pdu_session_id: u8 },
}

impl EngineService for AmfService {
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        if &*req.path != "/ngap" {
            return Step::Reply(HttpResponse::error(
                404,
                format!("no handler for {}", req.path),
            ));
        }
        match Ngap::borrow(&req.body).and_then(|ngap| self.process_ngap(env, leg, &ngap)) {
            Ok(step) => step,
            Err(e) => Step::Reply(Self::ngap_error(e)),
        }
    }

    fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
        let Some(flow) = self.flows.take(leg.id) else {
            return Step::Reply(HttpResponse::error(500, "amf: no parked flow"));
        };
        match self.resume_flow(env, leg, flow, resp) {
            Ok(step) => step,
            Err(e) => Step::Reply(Self::ngap_error(e)),
        }
    }

    fn delivered(&mut self, leg: &LegMeta) {
        self.flows.take(leg.id);
    }
}

#[cfg(test)]
mod tests {
    // The AMF's behaviour is exercised end-to-end (with a real UE model)
    // in the `shield5g-ran` crate and the workspace integration tests;
    // unit tests here cover the plumbing edges.
    use super::*;
    use crate::backend::LocalAka;
    use shield5g_sim::engine::Engine;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn amf() -> AmfService {
        AmfService::new(
            SbiClient::new(),
            crate::addr::AUSF,
            crate::addr::SMF,
            Box::new(LocalAka::default()),
            "001",
            "01",
        )
    }

    fn leg() -> LegMeta {
        LegMeta {
            id: 0,
            dest: "amf.oai".into(),
            path: "/ngap".into(),
            submitted: shield5g_sim::time::SimTime::from_nanos(0),
            arrived: shield5g_sim::time::SimTime::from_nanos(0),
            root: true,
            class: shield5g_sim::engine::PriorityClass::Normal,
        }
    }

    /// Runs a request straight into the service (no engine) and expects it
    /// to finish without yielding a downstream call.
    fn reply(amf: &mut AmfService, env: &mut Env, req: HttpRequest) -> HttpResponse {
        match amf.start(env, &leg(), req) {
            Step::Reply(resp) => resp,
            Step::CallOut { dest, .. } => panic!("expected a reply, got a call to {dest}"),
        }
    }

    #[test]
    fn non_ngap_path_is_404() {
        let mut env = Env::new(1);
        let mut amf = amf();
        assert_eq!(
            reply(&mut amf, &mut env, HttpRequest::get("/other")).status,
            404
        );
    }

    #[test]
    fn garbage_ngap_is_400() {
        let mut env = Env::new(1);
        let mut amf = amf();
        let resp = reply(
            &mut amf,
            &mut env,
            HttpRequest::post("/ngap", vec![0xff, 0xff]),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn auth_response_without_pending_auth_is_400() {
        let mut env = Env::new(1);
        let mut amf = amf();
        let nas = NasUplink::AuthenticationResponse { res_star: [0; 16] }.encode();
        let ngap = Ngap::UplinkNasTransport { ran_ue_id: 9, nas }.encode();
        let resp = reply(&mut amf, &mut env, HttpRequest::post("/ngap", ngap));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn registration_to_unreachable_ausf_fails_cleanly() {
        // The AMF is registered on an engine with no AUSF endpoint: the
        // engine synthesizes a 502 for the callout and the AMF maps the
        // failure to a clean client-side error.
        let mut env = Env::new(1);
        let mut engine = Engine::new();
        let amf = Rc::new(RefCell::new(amf()));
        engine.register(crate::addr::AMF, 4, amf.clone());
        let suci = shield5g_crypto::ident::Supi::parse("imsi-001010000000001")
            .unwrap()
            .conceal_null();
        let nas = NasUplink::RegistrationRequest {
            identity: UeIdentity::Suci(suci),
        }
        .encode();
        let ngap = Ngap::InitialUeMessage { ran_ue_id: 1, nas }.encode();
        let resp = engine
            .dispatch(&mut env, crate::addr::AMF, HttpRequest::post("/ngap", ngap))
            .unwrap();
        assert_eq!(resp.status, 400);
        assert!(!amf.borrow().is_registered(1));
    }

    #[test]
    fn unknown_guti_triggers_identity_request() {
        let mut env = Env::new(1);
        let mut amf = amf();
        let nas = NasUplink::RegistrationRequest {
            identity: UeIdentity::Guti(Guti::new(1, 1, 1, 0xdead)),
        }
        .encode();
        let ngap = Ngap::InitialUeMessage { ran_ue_id: 1, nas }.encode();
        let resp = reply(&mut amf, &mut env, HttpRequest::post("/ngap", ngap));
        assert!(resp.is_success());
        let downlink = Ngap::decode(&resp.body).unwrap();
        assert_eq!(
            crate::messages::NasDownlink::decode(downlink.nas()).unwrap(),
            crate::messages::NasDownlink::IdentityRequest
        );
    }

    #[test]
    fn a_new_guti_retires_the_subscribers_old_context() {
        // The subscriber is registered under ran_ue_id 1 and completes
        // security mode again under ran_ue_id 2.
        let supi = Supi::parse("imsi-001010000000001").unwrap();
        let kamf = [0x42; 32];
        let mut env = Env::new(1);
        let mut amf = amf();
        let guti = amf.allocate_guti(1, supi);
        let sec = NasSecurityContext::from_kamf(&kamf, false);
        let (old, new) = (
            UeState::Registered {
                supi,
                sec: sec.clone(),
                guti,
            },
            UeState::SecurityMode { supi, sec },
        );
        amf.contexts.extend([(1, old), (2, new)]);
        let mut ue = NasSecurityContext::from_kamf(&kamf, true);
        let complete = ue
            .protect(&NasUplink::SecurityModeComplete.encode())
            .encode();
        let pdu = ProtectedNas::borrow(&complete).unwrap();
        amf.handle_secured_uplink(&mut env, &leg(), 2, &pdu)
            .unwrap();
        assert_eq!(amf.active_contexts(), 1);
        assert!(!amf.is_registered(1));
        // The superseded association's next secured uplink finds nothing.
        let nas = ue
            .protect(&NasUplink::DeregistrationRequest { switch_off: false }.encode())
            .encode();
        let Err(NfError::Protocol(why)) =
            amf.handle_secured_uplink(&mut env, &leg(), 1, &ProtectedNas::borrow(&nas).unwrap())
        else {
            panic!("expected the typed protocol error");
        };
        assert_eq!(why, "secured NAS without context");
        let ngap = Ngap::UplinkNasTransport { ran_ue_id: 1, nas }.encode();
        let resp = reply(&mut amf, &mut env, HttpRequest::post("/ngap", ngap));
        assert_eq!(resp.status, 400);
        assert_eq!(amf.active_contexts(), 1);
    }

    #[test]
    fn a_response_with_no_parked_flow_is_500() {
        crate::tests::assert_no_parked_flow(&mut amf(), "amf");
    }

    #[test]
    fn unsolicited_identity_response_rejected() {
        let mut env = Env::new(1);
        let mut amf = amf();
        let suci = shield5g_crypto::ident::Supi::parse("imsi-001010000000001")
            .unwrap()
            .conceal_null();
        let nas = NasUplink::IdentityResponse { suci }.encode();
        let ngap = Ngap::UplinkNasTransport { ran_ue_id: 9, nas }.encode();
        let resp = reply(&mut amf, &mut env, HttpRequest::post("/ngap", ngap));
        assert_eq!(resp.status, 400);
    }
}
