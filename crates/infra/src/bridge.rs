//! The OAI docker bridge with an attacker-accessible tap.
//!
//! Paper §IV-A: "The containers communicate over TLS using REST APIs via
//! the OAI Docker bridge." A privileged attacker on the host can capture
//! every frame on the bridge; whether that yields anything depends on the
//! TLS layer above — which the attack-lab example demonstrates.

use shield5g_sim::latency::LinkProfile;
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;

/// One captured frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedFrame {
    /// Capture instant.
    pub at: SimTime,
    /// Source endpoint.
    pub from: String,
    /// Destination endpoint.
    pub to: String,
    /// The raw bytes on the wire.
    pub payload: Vec<u8>,
}

/// A virtual bridge network.
#[derive(Clone, Debug)]
pub struct BridgeNetwork {
    name: String,
    profile: LinkProfile,
    tap_enabled: bool,
    tap: Vec<CapturedFrame>,
}

impl BridgeNetwork {
    /// Creates a bridge with the docker-bridge latency profile.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        BridgeNetwork {
            name: name.into(),
            profile: LinkProfile::docker_bridge(),
            tap_enabled: false,
            tap: Vec::new(),
        }
    }

    /// The bridge name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enables frame capture (the attacker's `tcpdump -i br-oai`).
    pub fn enable_tap(&mut self) {
        self.tap_enabled = true;
    }

    /// Carries `payload` one way between endpoints, charging the clock and
    /// recording the frame if the tap is on. Returns the sampled delay.
    pub fn carry(&mut self, env: &mut Env, from: &str, to: &str, payload: &[u8]) -> SimDuration {
        let delay = self.profile.transfer(env, payload.len());
        if self.tap_enabled {
            self.tap.push(CapturedFrame {
                at: env.clock.now(),
                from: from.to_owned(),
                to: to.to_owned(),
                payload: payload.to_vec(),
            });
        }
        delay
    }

    /// Frames captured so far.
    #[must_use]
    pub fn captured(&self) -> &[CapturedFrame] {
        &self.tap
    }

    /// Whether any captured frame contains `needle` in the clear.
    #[must_use]
    pub fn captured_contains(&self, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .tap
                .iter()
                .any(|f| f.payload.windows(needle.len()).any(|w| w == needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carry_charges_latency() {
        let mut env = Env::new(1);
        let mut bridge = BridgeNetwork::new("br-oai");
        let t0 = env.clock.now();
        let d = bridge.carry(&mut env, "udm", "eudm-paka", b"hello");
        assert_eq!(env.clock.now() - t0, d);
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn tap_off_records_nothing() {
        let mut env = Env::new(2);
        let mut bridge = BridgeNetwork::new("br-oai");
        bridge.carry(&mut env, "a", "b", b"payload");
        assert!(bridge.captured().is_empty());
    }

    #[test]
    fn tap_on_captures_frames() {
        let mut env = Env::new(3);
        let mut bridge = BridgeNetwork::new("br-oai");
        bridge.enable_tap();
        bridge.carry(&mut env, "udm", "eudm-paka", b"OPc=secret");
        assert_eq!(bridge.captured().len(), 1);
        assert_eq!(bridge.captured()[0].from, "udm");
        assert!(bridge.captured_contains(b"OPc=secret"));
        assert!(!bridge.captured_contains(b"other"));
        assert!(!bridge.captured_contains(b""));
    }
}
