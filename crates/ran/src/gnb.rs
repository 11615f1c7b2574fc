//! The gNB: radio-side attach, RRC connection establishment, and the
//! N2/NGAP relay into the AMF.

use crate::RanError;
use shield5g_crypto::ident::Plmn;
use shield5g_nf::addr;
use shield5g_nf::messages::Ngap;
use shield5g_nf::upf::GtpPacket;
use shield5g_sim::codec::Body;
use shield5g_sim::engine::Engine;
use shield5g_sim::http::HttpRequest;
use shield5g_sim::latency::LinkProfile;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// RRC messages exchanged during connection establishment (RACH preamble,
/// RAR, RRCSetupRequest, RRCSetup, RRCSetupComplete).
const RRC_SETUP_MESSAGES: [usize; 5] = [14, 36, 62, 210, 96];

/// Probability that a radio transfer needs one HARQ retransmission
/// (block-error-rate target of NR link adaptation is ~10%; half of those
/// recover on the first retransmission in this model).
const HARQ_RETX_PROB: f64 = 0.05;

/// A gNB instance.
pub struct Gnb {
    engine: Rc<RefCell<Engine>>,
    radio: LinkProfile,
    backhaul: LinkProfile,
    broadcast_plmn: Plmn,
    next_ran_ue_id: u64,
    tunnels: BTreeMap<u64, u32>,
    /// The N2 request path, shared by every NGAP request and its leg.
    ngap_path: Rc<str>,
}

impl std::fmt::Debug for Gnb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gnb")
            .field("plmn", &self.broadcast_plmn.to_string())
            .finish()
    }
}

impl Gnb {
    /// A USRP-backed OAI gNB broadcasting `plmn` (the OTA radio profile).
    #[must_use]
    pub fn usrp(engine: Rc<RefCell<Engine>>, plmn: Plmn) -> Self {
        Gnb {
            engine,
            radio: LinkProfile::radio_5g(),
            backhaul: LinkProfile::backhaul(),
            broadcast_plmn: plmn,
            next_ran_ue_id: 1,
            tunnels: BTreeMap::new(),
            ngap_path: "/ngap".into(),
        }
    }

    /// A gNBSIM-style RAN entity: co-located with the core, no radio
    /// (what the paper's mass experiments use).
    #[must_use]
    pub fn simulated(engine: Rc<RefCell<Engine>>, plmn: Plmn) -> Self {
        Gnb {
            engine,
            radio: LinkProfile::instant(),
            backhaul: LinkProfile::loopback(),
            broadcast_plmn: plmn,
            next_ran_ue_id: 1,
            tunnels: BTreeMap::new(),
            ngap_path: "/ngap".into(),
        }
    }

    /// The PLMN this cell broadcasts in SIB1.
    #[must_use]
    pub fn broadcast_plmn(&self) -> &Plmn {
        &self.broadcast_plmn
    }

    /// Cell search + RRC connection establishment for a UE whose SIM is
    /// programmed for `sim_plmn`.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::NetworkNotFound`] when the PLMNs differ — the
    /// §V-B6 observation that "if custom mobile country or network codes
    /// were used, the device would be unable to detect the OAI gNB".
    pub fn rrc_connect(&mut self, env: &mut Env, sim_plmn: &Plmn) -> Result<u64, RanError> {
        if sim_plmn != &self.broadcast_plmn {
            return Err(RanError::NetworkNotFound {
                sim_plmn: sim_plmn.to_string(),
                broadcast_plmn: self.broadcast_plmn.to_string(),
            });
        }
        for bytes in RRC_SETUP_MESSAGES {
            self.radio.transfer(env, bytes);
        }
        let id = self.next_ran_ue_id;
        self.next_ran_ue_id += 1;
        env.log.record(
            env.clock.now(),
            "ran",
            format_args!("RRC connected (ran_ue_id {id})"),
        );
        Ok(id)
    }

    /// RRC release of connection `ran_ue_id`: its GTP tunnel goes with it.
    pub fn release(&mut self, ran_ue_id: u64) {
        self.tunnels.remove(&ran_ue_id);
    }

    /// GTP tunnels of the connections not yet released.
    #[must_use]
    pub fn tunnel_count(&self) -> usize {
        self.tunnels.len()
    }

    /// One radio transfer with HARQ: a fraction of transport blocks fail
    /// the first decode and are retransmitted, adding a latency tail.
    fn radio_transfer(&self, env: &mut Env, bytes: usize) {
        self.radio.transfer(env, bytes);
        if self.radio.base_ns > 0 && env.rng.chance(HARQ_RETX_PROB) {
            self.radio.transfer(env, bytes);
        }
    }

    /// Carries one uplink NAS PDU to the AMF and returns the downlink NAS
    /// from the response (synchronous N2 exchange). Both PDUs are relayed
    /// as bytes: written straight into the NGAP request, and read straight
    /// out of the NGAP response.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Rejected`] for AMF-level rejections and
    /// [`RanError::Transport`] for bus failures.
    pub fn nas_exchange(
        &mut self,
        env: &mut Env,
        ran_ue_id: u64,
        nas: &[u8],
        initial: bool,
    ) -> Result<Body, RanError> {
        // Uplink over the air.
        self.radio_transfer(env, nas.len());
        let ngap = if initial {
            Ngap::InitialUeMessage { ran_ue_id, nas }
        } else {
            Ngap::UplinkNasTransport { ran_ue_id, nas }
        };
        let body = ngap.encode();
        self.backhaul.transfer(env, body.len());
        let req = HttpRequest::post(self.ngap_path.clone(), body);
        let resp = self.engine.borrow_mut().dispatch(env, addr::AMF, req)?;
        if !resp.is_success() {
            return Err(RanError::Rejected {
                stage: "ngap",
                cause: String::from_utf8_lossy(&resp.body).into_owned(),
            });
        }
        self.backhaul.transfer(env, resp.body.len());
        let downlink = Ngap::borrow(&resp.body)?;
        if let Ngap::InitialContextSetup { teid, .. } = &downlink {
            // PDU session resource setup: remember the GTP tunnel.
            self.tunnels.insert(ran_ue_id, *teid);
        }
        let nas = Body::from(downlink.nas());
        // Downlink over the air.
        self.radio_transfer(env, nas.len());
        Ok(nas)
    }

    /// Forwards one uplink user-plane packet through the UE's GTP tunnel
    /// and returns the echoed payload.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] when no tunnel exists for the UE and
    /// [`RanError::Rejected`] when the UPF refuses the packet.
    pub fn gtp_uplink(
        &mut self,
        env: &mut Env,
        ran_ue_id: u64,
        payload: &[u8],
    ) -> Result<Body, RanError> {
        let teid = *self.tunnels.get(&ran_ue_id).ok_or_else(|| {
            RanError::Protocol(format!("no GTP tunnel for ran_ue_id {ran_ue_id}"))
        })?;
        self.radio_transfer(env, payload.len());
        let pkt = GtpPacket {
            teid,
            payload: payload.to_vec(),
        }
        .encode();
        self.backhaul.transfer(env, pkt.len());
        let resp = self.engine.borrow_mut().dispatch(
            env,
            addr::UPF,
            HttpRequest::post("/gtp/uplink", pkt),
        )?;
        if !resp.is_success() {
            return Err(RanError::Rejected {
                stage: "gtp",
                cause: String::from_utf8_lossy(&resp.body).into_owned(),
            });
        }
        self.backhaul.transfer(env, resp.body.len());
        self.radio_transfer(env, resp.body.len());
        Ok(resp.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plmn_mismatch_blocks_attach() {
        let mut env = Env::new(1);
        let engine = Rc::new(RefCell::new(Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let foreign = Plmn::new("310", "260").unwrap();
        let err = gnb.rrc_connect(&mut env, &foreign).unwrap_err();
        assert!(matches!(err, RanError::NetworkNotFound { .. }));
    }

    #[test]
    fn rrc_connect_allocates_ids_and_takes_time() {
        let mut env = Env::new(2);
        let engine = Rc::new(RefCell::new(Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let t0 = env.clock.now();
        let id1 = gnb.rrc_connect(&mut env, &Plmn::test_network()).unwrap();
        let id2 = gnb.rrc_connect(&mut env, &Plmn::test_network()).unwrap();
        assert_ne!(id1, id2);
        // 5 radio messages at ~2.5 ms each.
        let spent = env.clock.now() - t0;
        assert!(
            spent > shield5g_sim::time::SimDuration::from_millis(15),
            "{spent}"
        );
    }

    #[test]
    fn simulated_gnb_is_fast() {
        let mut env = Env::new(3);
        let engine = Rc::new(RefCell::new(Engine::new()));
        let mut gnb = Gnb::simulated(engine, Plmn::test_network());
        let t0 = env.clock.now();
        gnb.rrc_connect(&mut env, &Plmn::test_network()).unwrap();
        let spent = env.clock.now() - t0;
        assert!(
            spent < shield5g_sim::time::SimDuration::from_micros(10),
            "{spent}"
        );
    }

    #[test]
    fn nas_to_unreachable_amf_fails() {
        let mut env = Env::new(4);
        let engine = Rc::new(RefCell::new(Engine::new()));
        let mut gnb = Gnb::simulated(engine, Plmn::test_network());
        let id = gnb.rrc_connect(&mut env, &Plmn::test_network()).unwrap();
        assert!(gnb.nas_exchange(&mut env, id, &[1, 2], true).is_err());
    }
}
