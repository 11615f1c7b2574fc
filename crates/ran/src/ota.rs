//! The §V-B6 over-the-air feasibility test and the §V-B4 end-to-end
//! session-setup measurement.
//!
//! "Despite the overheads introduced by the use of HMEE, the OnePlus 8
//! COTS mobile phone successfully establishes a data session with the
//! gNB after registering with 5G core network utilizing P-AKA modules."
//! This module assembles exactly that testbed — SDR gNB over a realistic
//! radio link, OnePlus 8 with an OpenCells SIM programmed to PLMN 00101 —
//! and runs the full stack: SUCI, 5G-AKA through the enclaves, NAS
//! security, GUTI, PDU session, and a user-plane echo.

use crate::gnb::Gnb;
use crate::ue::CotsUe;
use crate::usim::Usim;
use crate::RanError;
use shield5g_core::paka::PakaKind;
use shield5g_core::slice::{build_slice, AkaDeployment, Slice, SliceConfig};
use shield5g_crypto::ident::Plmn;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// Report from the OTA run.
#[derive(Clone, Debug)]
pub struct OtaReport {
    /// Whether the UE registered through the (shielded) AKA path.
    pub registered: bool,
    /// Whether a PDU session came up.
    pub session_established: bool,
    /// Whether a user-plane packet echoed end to end.
    pub data_echoed: bool,
    /// End-to-end session setup time (registration + PDU session).
    pub session_setup: SimDuration,
    /// Cumulative time spent in P-AKA module round trips during setup.
    pub paka_time: SimDuration,
    /// The UE's assigned IP.
    pub ue_ip: [u8; 4],
}

impl OtaReport {
    /// The SGX share of setup: paka time over total (§V-B4 reports 5.58 %
    /// for the *added* SGX cost; [`sgx_share_of_setup`] computes that
    /// differential figure).
    #[must_use]
    pub fn paka_fraction(&self) -> f64 {
        self.paka_time.as_nanos() as f64 / self.session_setup.as_nanos() as f64
    }
}

/// The assembled OTA testbed.
pub struct OtaTestbed {
    env: Env,
    slice: Slice,
    gnb: Gnb,
    ue: CotsUe,
}

impl std::fmt::Debug for OtaTestbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OtaTestbed")
            .field("slice", &self.slice)
            .finish()
    }
}

impl OtaTestbed {
    /// Builds the §V-B6 testbed: SGX slice, USRP gNB on PLMN 00101, and a
    /// OnePlus 8 with a programmed OpenCells SIM.
    ///
    /// # Panics
    ///
    /// Panics if the slice cannot deploy (harness-controlled inputs).
    #[must_use]
    pub fn assemble(seed: u64, deployment: AkaDeployment) -> Self {
        let mut env = Env::new(seed);
        env.log.disable();
        #[expect(clippy::expect_used, reason = "the fixed slice config always deploys")]
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 2,
            },
        )
        .expect("slice deploys");
        let gnb = Gnb::usrp(slice.engine.clone(), Plmn::test_network());
        let sub = &slice.subscribers[0];
        let usim = Usim::program(
            sub.supi,
            sub.k,
            sub.opc,
            slice.hn_key_id,
            slice.hn_public.clone(),
        );
        let ue = CotsUe::oneplus8(usim);
        OtaTestbed {
            env,
            slice,
            gnb,
            ue,
        }
    }

    /// Replaces the UE (e.g. to test an incompatible OS build).
    pub fn swap_ue(&mut self, ue: CotsUe) {
        self.ue = ue;
    }

    /// Access to the world's environment (for inspection after a run).
    #[must_use]
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The deployed slice.
    #[must_use]
    pub fn slice(&self) -> &Slice {
        &self.slice
    }

    /// Runs the OTA sequence: register → PDU session → data echo.
    ///
    /// # Errors
    ///
    /// Propagates the first attach/registration/session failure.
    pub fn run(&mut self) -> Result<OtaReport, RanError> {
        let paka_before = self.total_paka_time();
        let t0 = self.env.clock.now();
        let _report = self.ue.register(&mut self.env, &mut self.gnb)?;
        let ue_ip = self.ue.establish_session(&mut self.env, &mut self.gnb)?;
        let session_setup = self.env.clock.now() - t0;
        let echo = self
            .ue
            .send_data(&mut self.env, &mut self.gnb, b"icmp-echo-request")?;
        Ok(OtaReport {
            registered: self.ue.is_registered(),
            session_established: true,
            data_echoed: echo == b"icmp-echo-request",
            session_setup,
            paka_time: self.total_paka_time() - paka_before,
            ue_ip,
        })
    }

    /// Sum of module round-trip times recorded by the slice's backends.
    fn total_paka_time(&self) -> SimDuration {
        PakaKind::all()
            .iter()
            .filter_map(|&k| self.slice.backend_metrics(k))
            .map(|m| {
                m.borrow()
                    .response_times
                    .iter()
                    .copied()
                    .sum::<SimDuration>()
            })
            .sum()
    }
}

/// §V-B4: the *added* cost of SGX as a share of session setup. Runs the
/// same registration + session sequence against an SGX slice and a
/// container slice (identical seeds) and compares.
#[derive(Clone, Debug)]
pub struct SessionSetupComparison {
    /// End-to-end setup time through SGX P-AKA modules.
    pub sgx_setup: SimDuration,
    /// End-to-end setup time through container modules.
    pub container_setup: SimDuration,
    /// The SGX-added delay.
    pub sgx_delta: SimDuration,
}

impl SessionSetupComparison {
    /// SGX-added delay as a fraction of the SGX setup time (the paper's
    /// 5.58 % figure).
    #[must_use]
    pub fn sgx_share_of_setup(&self) -> f64 {
        self.sgx_delta.as_nanos() as f64 / self.sgx_setup.as_nanos() as f64
    }
}

/// Measures the session-setup comparison of §V-B4 (median over `reps`
/// runs; the modules are warmed first so the stable — not initial —
/// response times are compared, as the paper does).
///
/// The SGX-added delay is computed the way the paper frames it: as the
/// difference in *cumulative P-AKA module round-trip time* between the
/// two deployments. Differencing the total setup times instead would
/// bury the ~2–3 ms module delta under several milliseconds of radio
/// jitter.
#[must_use]
pub fn session_setup_comparison(seed: u64, reps: u32) -> SessionSetupComparison {
    let measure = |deployment: AkaDeployment, seed: u64| -> (SimDuration, SimDuration) {
        let mut testbed = OtaTestbed::assemble(seed, deployment);
        // Warm the modules (the paper measures steady-state setup).
        #[expect(clippy::expect_used, reason = "an honest, provisioned UE completes")]
        let _ = testbed.run().expect("warmup run");
        let mut setups = Vec::new();
        let mut paka = Vec::new();
        for _ in 0..reps {
            #[expect(clippy::expect_used, reason = "an honest, provisioned UE completes")]
            let report = testbed.run().expect("measured run");
            setups.push(report.session_setup);
            paka.push(report.paka_time);
        }
        (
            shield5g_core::stats::Summary::of(&setups).median,
            shield5g_core::stats::Summary::of(&paka).median,
        )
    };
    let (sgx_setup, sgx_paka) = measure(
        AkaDeployment::Sgx(shield5g_core::paka::SgxConfig::default()),
        seed,
    );
    let (container_setup, container_paka) = measure(AkaDeployment::Container, seed);
    SessionSetupComparison {
        sgx_setup,
        container_setup,
        sgx_delta: sgx_paka.saturating_sub(container_paka),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_core::paka::SgxConfig;

    #[test]
    fn ota_succeeds_through_sgx_paka() {
        let mut testbed = OtaTestbed::assemble(51, AkaDeployment::Sgx(SgxConfig::default()));
        let cold = testbed.run().unwrap();
        assert!(
            cold.registered,
            "UE must register through the enclave AKA path"
        );
        assert!(cold.session_established);
        assert!(cold.data_echoed, "user-plane echo must come back");
        assert_eq!(cold.ue_ip[0], 10);
        // The very first registration pays the modules' initial-response
        // penalty (R_I ≈ 20 × R_S per module, §V-B4).
        assert!(
            cold.session_setup > SimDuration::from_millis(95),
            "{}",
            cold.session_setup
        );
        // Steady state: the paper's 62.38 ms band.
        let warm = testbed.run().unwrap();
        assert!(warm.registered && warm.data_echoed);
        assert!(
            warm.session_setup > SimDuration::from_millis(45),
            "{}",
            warm.session_setup
        );
        assert!(
            warm.session_setup < SimDuration::from_millis(85),
            "{}",
            warm.session_setup
        );
    }

    #[test]
    fn wrong_plmn_prevents_detection() {
        // §V-B6: custom MCC/MNC → the device cannot detect the gNB.
        let mut testbed = OtaTestbed::assemble(52, AkaDeployment::Sgx(SgxConfig::default()));
        let sub = testbed.slice().subscribers[1].clone();
        // Program a SIM for a non-test PLMN: the SUPI's PLMN is the SIM's
        // home network; simulate by swapping the gNB... simpler: build a
        // foreign-PLMN USIM.
        let foreign_supi =
            shield5g_crypto::ident::Supi::new(Plmn::new("310", "260").unwrap(), "0000000001")
                .unwrap();
        let usim = Usim::program(
            foreign_supi,
            sub.k,
            sub.opc,
            1,
            testbed.slice().hn_public.clone(),
        );
        testbed.swap_ue(CotsUe::oneplus8(usim));
        match testbed.run() {
            Err(RanError::NetworkNotFound { .. }) => {}
            other => panic!("expected NetworkNotFound, got {other:?}"),
        }
    }

    #[test]
    fn wrong_os_build_fails_e2e() {
        let mut testbed = OtaTestbed::assemble(53, AkaDeployment::Sgx(SgxConfig::default()));
        let sub = testbed.slice().subscribers[0].clone();
        let usim = Usim::program(
            sub.supi,
            sub.k,
            sub.opc,
            testbed.slice().hn_key_id,
            testbed.slice().hn_public.clone(),
        );
        testbed.swap_ue(CotsUe::oneplus8(usim).with_os_build("Oxygen 12.1"));
        assert!(matches!(
            testbed.run(),
            Err(RanError::IncompatibleUeBuild(_))
        ));
    }

    #[test]
    fn sgx_share_of_session_setup_is_small() {
        let cmp = session_setup_comparison(54, 3);
        let share = cmp.sgx_share_of_setup();
        // Paper: 5.58% — the claim is that SGX is a small fraction.
        assert!(share > 0.005 && share < 0.12, "SGX share {share:.3}");
        assert!(cmp.sgx_setup > cmp.container_setup);
        // Total in the right decade.
        assert!(cmp.sgx_setup > SimDuration::from_millis(40));
        assert!(cmp.sgx_setup < SimDuration::from_millis(90));
    }
}
