//! The User Plane Function: GTP-U anchor for established sessions.
//!
//! Enough user plane to prove the OTA claim end to end: after
//! registration and PDU-session establishment, the UE can push a packet
//! through its tunnel and get the N6-side echo back (the "data session"
//! of paper §V-B6).

use crate::smf::N4Establish;
use crate::wire::wire;
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::Service;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::BTreeMap;

/// Per-packet forwarding cost (GTP decap + route + N6 handoff).
const FORWARD_NANOS: u64 = 9_000;

/// An uplink user-plane packet in its GTP-U tunnel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GtpPacket {
    /// Tunnel endpoint identifier.
    pub teid: u32,
    /// Inner payload.
    pub payload: Vec<u8>,
}

wire!(GtpPacket { teid, payload });

/// The UPF service.
#[derive(Debug, Default)]
pub struct UpfService {
    sessions: BTreeMap<u32, [u8; 4]>,
    packets_forwarded: u64,
}

impl UpfService {
    /// An empty UPF.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Established tunnel count.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Total user-plane packets forwarded.
    #[must_use]
    pub fn packets_forwarded(&self) -> u64 {
        self.packets_forwarded
    }
}

impl Service for UpfService {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        match &*req.path {
            "/n4/establish" => match N4Establish::decode(&req.body) {
                Ok(msg) => {
                    env.clock.advance(SimDuration::from_micros(40));
                    self.sessions.insert(msg.teid, msg.ue_ip);
                    HttpResponse::ok(Vec::new())
                }
                Err(e) => HttpResponse::error(400, e.to_string()),
            },
            "/gtp/uplink" => match GtpPacket::decode(&req.body) {
                Ok(pkt) => match self.sessions.get(&pkt.teid) {
                    Some(_ue_ip) => {
                        env.clock.advance(SimDuration::from_nanos(FORWARD_NANOS));
                        self.packets_forwarded += 1;
                        // N6 echo: the payload comes straight back (a
                        // stand-in for the internet-side ping target).
                        HttpResponse::ok(pkt.payload)
                    }
                    None => HttpResponse::error(404, format!("no tunnel {}", pkt.teid)),
                },
                Err(e) => HttpResponse::error(400, e.to_string()),
            },
            other => HttpResponse::error(404, format!("no handler for {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_then_forward() {
        let mut env = Env::new(1);
        let mut upf = UpfService::new();
        let est = N4Establish {
            teid: 7,
            ue_ip: [10, 0, 0, 2],
        }
        .encode();
        assert!(upf
            .handle(&mut env, HttpRequest::post("/n4/establish", est))
            .is_success());
        assert_eq!(upf.session_count(), 1);
        let pkt = GtpPacket {
            teid: 7,
            payload: b"ping".to_vec(),
        }
        .encode();
        let resp = upf.handle(&mut env, HttpRequest::post("/gtp/uplink", pkt));
        assert!(resp.is_success());
        assert_eq!(resp.body, b"ping");
        assert_eq!(upf.packets_forwarded(), 1);
    }

    #[test]
    fn unknown_tunnel_dropped() {
        let mut env = Env::new(1);
        let mut upf = UpfService::new();
        let pkt = GtpPacket {
            teid: 99,
            payload: b"x".to_vec(),
        }
        .encode();
        assert_eq!(
            upf.handle(&mut env, HttpRequest::post("/gtp/uplink", pkt))
                .status,
            404
        );
        assert_eq!(upf.packets_forwarded(), 0);
    }

    #[test]
    fn gtp_wire_round_trip() {
        let pkt = GtpPacket {
            teid: 1,
            payload: vec![1, 2, 3],
        };
        assert_eq!(GtpPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn malformed_bodies_rejected() {
        let mut env = Env::new(1);
        let mut upf = UpfService::new();
        assert_eq!(
            upf.handle(&mut env, HttpRequest::post("/n4/establish", vec![1]))
                .status,
            400
        );
        assert_eq!(
            upf.handle(&mut env, HttpRequest::post("/gtp/uplink", vec![1]))
                .status,
            400
        );
    }
}
