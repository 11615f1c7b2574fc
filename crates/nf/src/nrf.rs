//! The Network Repository Function: NF profile registry and discovery
//! (paper Fig. 2: "stores metadata for each VNF and orchestrates mutual
//! discovery procedures between them").

use crate::wire::wire;
use crate::NfType;
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::Service;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::BTreeMap;

/// A registered NF profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NfProfile {
    /// The function type.
    pub nf_type: NfType,
    /// Bus address of the instance.
    pub addr: String,
}

wire!(NfProfile { nf_type, addr });

/// The NRF service.
#[derive(Debug, Default)]
pub struct NrfService {
    profiles: BTreeMap<String, NfProfile>,
}

impl NrfService {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// First registered instance of `nf_type`.
    #[must_use]
    pub fn discover(&self, nf_type: NfType) -> Option<&NfProfile> {
        self.profiles.values().find(|p| p.nf_type == nf_type)
    }
}

impl Service for NrfService {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        env.clock.advance(SimDuration::from_micros(18)); // registry lookup path
        match &*req.path {
            "/nnrf-nfm/register" => match NfProfile::decode(&req.body) {
                Ok(profile) => {
                    self.profiles.insert(profile.addr.clone(), profile);
                    HttpResponse::ok(Vec::new())
                }
                Err(e) => HttpResponse::error(400, e),
            },
            "/nnrf-disc/search" => {
                let wanted = String::from_utf8_lossy(&req.body).to_string();
                match self
                    .profiles
                    .values()
                    .find(|p| p.nf_type.to_string() == wanted)
                {
                    Some(p) => HttpResponse::ok(p.addr.clone().into_bytes()),
                    None => HttpResponse::error(404, format_args!("no {wanted} registered")),
                }
            }
            other => HttpResponse::error(404, format_args!("no handler for {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_then_discover() {
        let mut env = Env::new(1);
        let mut nrf = NrfService::new();
        let profile = NfProfile {
            nf_type: NfType::AUSF,
            addr: "ausf.oai".into(),
        };
        let resp = nrf.handle(
            &mut env,
            HttpRequest::post("/nnrf-nfm/register", profile.encode()),
        );
        assert!(resp.is_success());
        let resp = nrf.handle(
            &mut env,
            HttpRequest::post("/nnrf-disc/search", b"AUSF".to_vec()),
        );
        assert_eq!(resp.body, b"ausf.oai");
        assert_eq!(nrf.discover(NfType::AUSF).unwrap().addr, "ausf.oai");
    }

    #[test]
    fn discovery_miss_is_404() {
        let mut env = Env::new(1);
        let mut nrf = NrfService::new();
        let resp = nrf.handle(
            &mut env,
            HttpRequest::post("/nnrf-disc/search", b"UDM".to_vec()),
        );
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn malformed_registration_is_400() {
        let mut env = Env::new(1);
        let mut nrf = NrfService::new();
        let resp = nrf.handle(
            &mut env,
            HttpRequest::post("/nnrf-nfm/register", vec![0xff]),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn profile_round_trip_all_types() {
        for t in [
            NfType::NRF,
            NfType::UDR,
            NfType::UDM,
            NfType::AUSF,
            NfType::AMF,
            NfType::SMF,
            NfType::UPF,
        ] {
            let p = NfProfile {
                nf_type: t,
                addr: format!("{t}.oai").to_lowercase(),
            };
            assert_eq!(NfProfile::decode(&p.encode()).unwrap(), p);
        }
    }

    #[test]
    fn unknown_path_is_404() {
        let mut env = Env::new(1);
        let mut nrf = NrfService::new();
        assert_eq!(nrf.handle(&mut env, HttpRequest::get("/nope")).status, 404);
    }
}
