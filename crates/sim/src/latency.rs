//! Network link profiles.
//!
//! Each profile models one hop type in the paper's testbed: the OAI docker
//! bridge between VNFs and P-AKA modules, the host loopback, the N2/N3
//! backhaul between gNB and core, and the 5G radio link to the UE. A
//! profile charges the virtual clock for propagation plus per-byte
//! serialisation, with triangular jitter.

use crate::service::Env;
use crate::time::SimDuration;

/// A one-way link cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// One-way propagation + stack traversal latency.
    pub base_ns: u64,
    /// Serialisation cost per byte carried.
    pub per_byte_ns: u64,
    /// Relative jitter (triangular spread around the mean).
    pub jitter: f64,
}

impl LinkProfile {
    /// The OAI docker bridge between co-located containers (§IV-A).
    ///
    /// Calibrated so a small-message round trip costs ~25 µs, consistent
    /// with veth-pair forwarding between containers on one host.
    #[must_use]
    pub fn docker_bridge() -> Self {
        LinkProfile {
            base_ns: 11_000,
            per_byte_ns: 4,
            jitter: 0.10,
        }
    }

    /// Host loopback (monolithic deployment baseline, §V-B3 notes the
    /// difference from the bridge is negligible).
    #[must_use]
    pub fn loopback() -> Self {
        LinkProfile {
            base_ns: 9_000,
            per_byte_ns: 3,
            jitter: 0.08,
        }
    }

    /// The N2/N3 backhaul between the gNB host and the core server.
    #[must_use]
    pub fn backhaul() -> Self {
        LinkProfile {
            base_ns: 180_000,
            per_byte_ns: 8,
            jitter: 0.12,
        }
    }

    /// The 5G NR radio link (USRP x310 ↔ OnePlus 8 in the OTA test);
    /// dominated by frame alignment, scheduling grants and HARQ, hence
    /// the ~3.3 ms base (calibrated against the paper's 62.38 ms session
    /// setup, §V-B4).
    #[must_use]
    pub fn radio_5g() -> Self {
        LinkProfile {
            base_ns: 3_480_000,
            per_byte_ns: 40,
            jitter: 0.15,
        }
    }

    /// A zero-cost link for unit tests.
    #[must_use]
    pub fn instant() -> Self {
        LinkProfile {
            base_ns: 0,
            per_byte_ns: 0,
            jitter: 0.0,
        }
    }

    /// Charges the clock for carrying `bytes` one way and returns the
    /// sampled delay.
    pub fn transfer(&self, env: &mut Env, bytes: usize) -> SimDuration {
        let nominal = self.base_ns + self.per_byte_ns * bytes as u64;
        let sampled = if self.jitter > 0.0 {
            env.rng.jitter(nominal, self.jitter)
        } else {
            nominal
        };
        let d = SimDuration::from_nanos(sampled);
        env.clock.advance(d);
        d
    }
}

#[cfg(test)]
impl LinkProfile {
    /// Mean one-way delay for `bytes` (no sampling, no clock).
    #[must_use]
    pub(crate) fn mean_delay(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.base_ns + self.per_byte_ns * bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Env;

    #[test]
    fn transfer_advances_clock() {
        let mut env = Env::new(1);
        let before = env.clock.now();
        let d = LinkProfile::docker_bridge().transfer(&mut env, 100);
        assert_eq!(env.clock.now() - before, d);
        assert!(d > SimDuration::ZERO);
    }

    #[test]
    fn per_byte_cost_scales() {
        let p = LinkProfile {
            base_ns: 100,
            per_byte_ns: 10,
            jitter: 0.0,
        };
        assert_eq!(p.mean_delay(0), SimDuration::from_nanos(100));
        assert_eq!(p.mean_delay(50), SimDuration::from_nanos(600));
    }

    #[test]
    fn jitter_free_profile_is_exact() {
        let mut env = Env::new(2);
        let p = LinkProfile {
            base_ns: 777,
            per_byte_ns: 1,
            jitter: 0.0,
        };
        assert_eq!(p.transfer(&mut env, 23), SimDuration::from_nanos(800));
    }

    #[test]
    fn instant_profile_is_free() {
        let mut env = Env::new(3);
        assert_eq!(
            LinkProfile::instant().transfer(&mut env, 10_000),
            SimDuration::ZERO
        );
    }

    #[test]
    fn profiles_are_ordered_by_cost() {
        let small = 64;
        assert!(
            LinkProfile::loopback().mean_delay(small)
                < LinkProfile::docker_bridge().mean_delay(small)
        );
        assert!(
            LinkProfile::docker_bridge().mean_delay(small)
                < LinkProfile::backhaul().mean_delay(small)
        );
        assert!(
            LinkProfile::backhaul().mean_delay(small) < LinkProfile::radio_5g().mean_delay(small)
        );
    }

    #[test]
    fn jitter_sampling_is_deterministic_per_seed() {
        let mut env1 = Env::new(42);
        let mut env2 = Env::new(42);
        let p = LinkProfile::docker_bridge();
        for _ in 0..10 {
            assert_eq!(p.transfer(&mut env1, 200), p.transfer(&mut env2, 200));
        }
    }
}
