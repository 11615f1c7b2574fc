//! The §V-B6 OTA feasibility test, step by step: a OnePlus 8 with an
//! OpenCells SIM attaches to a USRP-backed gNB and registers through
//! enclave-shielded AKA — including the two failure modes the paper had
//! to work around (wrong PLMN, wrong OS build).
//!
//! ```sh
//! cargo run --release --example ota_registration
//! ```

use shield5g::core::paka::SgxConfig;
use shield5g::core::slice::AkaDeployment;
use shield5g::core::testbed::TestbedConfig;
use shield5g::crypto::ident::{Plmn, Supi};
use shield5g::ran::ota::{session_setup_comparison, OtaTestbed};
use shield5g::ran::ue::CotsUe;
use shield5g::ran::usim::Usim;
use shield5g::ran::RanError;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = TestbedConfig::paper();
    println!("== OTA feasibility test (paper §V-B6) ==");
    println!(
        "   gNB: {} @ {} GHz, {} PRBs",
        cfg.gnb_radio, cfg.frequency_ghz, cfg.prbs
    );
    println!("   UE:  {} ({})", cfg.ue_model, cfg.ue_os_build);
    println!("   SIM: OpenCells, PLMN {}\n", cfg.plmn_string());

    // Failure mode 1: custom PLMN — the phone never detects the cell.
    let mut testbed = OtaTestbed::assemble(60, AkaDeployment::Sgx(SgxConfig::default()));
    let sub = testbed.slice().subscribers[0].clone();
    let foreign = Supi::new(Plmn::new("310", "260")?, "0000000001")?;
    testbed.swap_ue(CotsUe::oneplus8(Usim::program(
        foreign,
        sub.k,
        sub.opc,
        testbed.slice().hn_key_id,
        testbed.slice().hn_public.clone(),
    )));
    match testbed.run() {
        Err(RanError::NetworkNotFound {
            sim_plmn,
            broadcast_plmn,
        }) => {
            println!("[1] SIM for PLMN {sim_plmn}: cannot detect gNB broadcasting {broadcast_plmn} (as in the paper)");
        }
        other => println!("[1] unexpected: {other:?}"),
    }

    // Failure mode 2: wrong OS build — no end-to-end connection.
    let mut testbed = OtaTestbed::assemble(61, AkaDeployment::Sgx(SgxConfig::default()));
    let sub = testbed.slice().subscribers[0].clone();
    let usim = Usim::program(
        sub.supi,
        sub.k,
        sub.opc,
        testbed.slice().hn_key_id,
        testbed.slice().hn_public.clone(),
    );
    testbed.swap_ue(CotsUe::oneplus8(usim).with_os_build("Oxygen 12.1"));
    match testbed.run() {
        Err(RanError::IncompatibleUeBuild(build)) => {
            println!(
                "[2] OS build {build:?}: end-to-end connection fails (paper required {:?})",
                cfg.ue_os_build
            );
        }
        other => println!("[2] unexpected: {other:?}"),
    }

    // The successful run: Test1-1 → OpenAirInterface.
    let mut testbed = OtaTestbed::assemble(62, AkaDeployment::Sgx(SgxConfig::default()));
    let report = testbed.run()?;
    println!("\n[3] validated configuration:");
    println!(
        "    registered through P-AKA enclaves: {}",
        report.registered
    );
    println!("    PDU session up, UE IP 10.0.0.{}", report.ue_ip[3]);
    println!("    user-plane echo: {}", report.data_echoed);
    println!(
        "    first session setup: {} (includes enclave cold start)",
        report.session_setup
    );
    let warm = testbed.run()?;
    println!(
        "    steady-state setup:  {} (paper: 62.38 ms)",
        warm.session_setup
    );

    // §V-B4: the added cost of SGX as a share of session setup.
    println!("\nMeasuring the SGX share of session setup (5 runs per deployment)...");
    let cmp = session_setup_comparison(63, 5);
    println!(
        "    container setup {} | sgx setup {} | sgx delta {} = {:.2}% of setup (paper: 3.48 ms, 5.58%)",
        cmp.container_setup,
        cmp.sgx_setup,
        cmp.sgx_delta,
        cmp.sgx_share_of_setup() * 100.0
    );
    Ok(())
}
