//! The USIM: subscriber credentials, MILENAGE, SQN window, SUCI
//! concealment — programmed OpenCells-style with a PLMN (§V-B6: "An
//! OpenCells SIM card is programmed to the test Public Land Mobile
//! Network (PLMN) 00101").

use shield5g_crypto::ecies::HomeNetworkPublicKey;
use shield5g_crypto::ident::{Plmn, Suci, Supi};
use shield5g_crypto::keys::{self, ServingNetworkName, UeChallengeResult};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::sqn::{Auts, SqnVerifier};
use shield5g_crypto::{SecretBytes, Zeroize};
use shield5g_sim::Env;

/// The outcome of a USIM challenge evaluation (TS 33.501 §6.1.3.2).
#[derive(Debug)]
pub enum ChallengeOutcome {
    /// Challenge accepted; RES* and keys derived (held inline: the
    /// outcome is a value the UE matches on once).
    Success(UeChallengeResult),
    /// MAC-A failed: the network is not genuine.
    MacFailure,
    /// MAC verified but SQN out of window: re-synchronise.
    SyncFailure(Auts),
}

/// A programmed SIM card + USIM application.
pub struct Usim {
    supi: Supi,
    mil: Milenage,
    sqn: SqnVerifier,
    hn_key_id: u8,
    hn_public: HomeNetworkPublicKey,
}

impl std::fmt::Debug for Usim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Usim")
            .field("supi", &self.supi.as_str())
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl Usim {
    /// Programs a SIM with subscriber credentials and the home-network
    /// public key (a clone of the operator's handle, which shares its
    /// multiplication table).
    #[must_use]
    pub fn program(
        supi: Supi,
        k: impl Into<SecretBytes<16>>,
        opc: impl Into<SecretBytes<16>>,
        hn_key_id: u8,
        hn_public: HomeNetworkPublicKey,
    ) -> Self {
        Usim {
            supi,
            mil: Milenage::new(&k.into(), &opc.into()),
            sqn: SqnVerifier::new(),
            hn_key_id,
            hn_public,
        }
    }

    /// The home PLMN the SIM is programmed for.
    #[must_use]
    pub(crate) fn plmn(&self) -> Plmn {
        self.supi.plmn()
    }

    /// The permanent identity (never leaves the UE unconcealed).
    #[must_use]
    pub(crate) fn supi(&self) -> &Supi {
        &self.supi
    }

    /// The highest SQN accepted so far (`SQN_MS`, as an AUTS reports it).
    #[must_use]
    pub fn sqn_ms(&self) -> [u8; 6] {
        self.sqn.sqn_ms()
    }

    /// Conceals the SUPI into a fresh SUCI (new ECIES ephemeral per call,
    /// so successive registrations are unlinkable).
    #[must_use]
    pub fn conceal_identity(&self, env: &mut Env) -> Suci {
        let mut eph: [u8; 32] = env.rng.bytes();
        let suci = self
            .supi
            .conceal_profile_a(self.hn_key_id, &self.hn_public, &eph);
        eph.zeroize();
        suci
    }

    /// Evaluates an authentication challenge: MAC check, SQN window,
    /// RES*/key derivation.
    #[must_use]
    pub fn evaluate_challenge(
        &mut self,
        rand: &[u8; 16],
        autn: &[u8; 16],
        snn: &ServingNetworkName,
    ) -> ChallengeOutcome {
        match keys::ue_process_challenge(&self.mil, rand, autn, snn) {
            Err(_) => ChallengeOutcome::MacFailure,
            Ok(result) => match self.sqn.accept(&result.sqn) {
                Ok(()) => ChallengeOutcome::Success(result),
                Err(_) => ChallengeOutcome::SyncFailure(Auts::generate(
                    &self.mil,
                    rand,
                    &self.sqn.sqn_ms(),
                )),
            },
        }
    }
}

#[cfg(test)]
impl Usim {
    /// The home-network public key the SIM conceals under.
    #[must_use]
    pub(crate) fn hn_public(&self) -> &HomeNetworkPublicKey {
        &self.hn_public
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::ecies::HomeNetworkKeyPair;
    use shield5g_crypto::keys::generate_he_av;
    use shield5g_crypto::sqn::SqnGenerator;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];

    fn usim() -> Usim {
        let hn = HomeNetworkKeyPair::from_private(1, [9; 32]);
        let supi = Supi::new(Plmn::test_network(), "0000000001").unwrap();
        Usim::program(supi, K, OPC, 1, hn.public().clone())
    }

    fn snn() -> ServingNetworkName {
        ServingNetworkName::new("001", "01")
    }

    /// This crate's registry of key-bearing types
    /// (`shield5g_crypto::secret`): the USIM renders the same `{:?}` for a
    /// canary and its complement, and wipes through its MILENAGE instance.
    #[test]
    fn every_registered_type_redacts_and_wipes() {
        use shield5g_crypto::secret::{redacts, wipes_through};
        let hn = HomeNetworkKeyPair::from_private(1, [9; 32]);
        let supi = Supi::new(Plmn::test_network(), "0000000001").unwrap();
        assert!(redacts(|c| Usim::program(
            supi,
            [c; 16],
            [c; 16],
            1,
            hn.public().clone()
        )));
        wipes_through(|usim: &Usim| &usim.mil);
    }

    #[test]
    fn accepts_genuine_challenge() {
        let mut usim = usim();
        let mil = Milenage::with_opc(&K, &OPC);
        let mut gen = SqnGenerator::new();
        let av = generate_he_av(&mil, &[7; 16], &gen.next_sqn(), &[0x80, 0], &snn());
        match usim.evaluate_challenge(&av.rand, &av.autn, &snn()) {
            ChallengeOutcome::Success(r) => assert_eq!(r.res_star, av.xres_star),
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn rejects_forged_challenge() {
        let mut usim = usim();
        let impostor = Milenage::with_opc(&[0x47; 16], &OPC);
        let av = generate_he_av(&impostor, &[7; 16], &[0; 6], &[0x80, 0], &snn());
        assert!(matches!(
            usim.evaluate_challenge(&av.rand, &av.autn, &snn()),
            ChallengeOutcome::MacFailure
        ));
    }

    #[test]
    fn replayed_challenge_triggers_resync() {
        let mut usim = usim();
        let mil = Milenage::with_opc(&K, &OPC);
        let mut gen = SqnGenerator::new();
        let av = generate_he_av(&mil, &[7; 16], &gen.next_sqn(), &[0x80, 0], &snn());
        assert!(matches!(
            usim.evaluate_challenge(&av.rand, &av.autn, &snn()),
            ChallengeOutcome::Success(_)
        ));
        // Replay: same SQN again.
        match usim.evaluate_challenge(&av.rand, &av.autn, &snn()) {
            ChallengeOutcome::SyncFailure(auts) => {
                // The AUTS must verify at the home network.
                assert!(auts.verify(&mil, &av.rand).is_ok());
            }
            other => panic!("expected sync failure, got {other:?}"),
        }
    }

    #[test]
    fn successive_sucis_are_unlinkable() {
        let usim = usim();
        let mut env = Env::new(5);
        let s1 = usim.conceal_identity(&mut env);
        let s2 = usim.conceal_identity(&mut env);
        assert_ne!(s1.scheme_output, s2.scheme_output);
    }

    #[test]
    fn plmn_reflects_programming() {
        assert_eq!(usim().plmn().to_string(), "00101");
    }
}
