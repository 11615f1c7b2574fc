//! Slice migration: move the eUDM P-AKA enclave to another HMEE-capable
//! host with attestation-gated key transfer (paper §V-B1's migration
//! remark + §VI KI 5/11/12).
//!
//! ```sh
//! cargo run --release --example slice_migration
//! ```

use shield5g::core::harness::standard_request;
use shield5g::core::migration::migrate_module;
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::hmee::attest::AttestationService;
use shield5g::hmee::platform::SgxPlatform;
use shield5g::infra::host::Host;
use shield5g::sim::Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== slice migration: eUDM enclave, host r450 -> r451 ==\n");
    let mut env = Env::new(4321);
    env.log.disable();
    let mut slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 5,
        },
    )?;

    let mut client = slice
        .client_for(PakaKind::EUdm, "udm.oai")
        .ok_or("slice has an eUDM module")?;
    let req = standard_request(PakaKind::EUdm);
    let before = client.call(&mut env, &req.path, req.body.clone())?;
    println!(
        "pre-migration:  eUDM serving on r450 (AV generated, {} bytes)",
        before.len()
    );

    // A rogue host whose platform Intel never provisioned: refused.
    let rogue_platform = SgxPlatform::new(&mut env);
    let mut rogue = Host::with_sgx("rogue-host", rogue_platform);
    let empty_service = AttestationService::new();
    match migrate_module(
        &mut env,
        &mut slice,
        PakaKind::EUdm,
        &mut rogue,
        &empty_service,
        SgxConfig::default(),
    ) {
        Err(e) => println!("rogue target:   refused before any key left the enclave ({e})"),
        Ok(_) => println!("rogue target:   UNEXPECTEDLY accepted"),
    }

    // A genuine registered host: migration succeeds.
    let platform = SgxPlatform::new(&mut env);
    let mut service = AttestationService::new();
    service.register_platform(&platform);
    let mut target = Host::with_sgx("r451", platform);
    let report = migrate_module(
        &mut env,
        &mut slice,
        PakaKind::EUdm,
        &mut target,
        &service,
        SgxConfig::default(),
    )?;
    println!(
        "migration:      attested={} keys={} enclave load {} total {}",
        report.attested, report.keys_transferred, report.target_load_time, report.total_time
    );

    let after = client.call(&mut env, &req.path, req.body.clone())?;
    println!(
        "post-migration: same client handle, identical AV bytes: {}",
        before == after
    );
    println!(
        "old container removed from r450: {}",
        !slice
            .host
            .container_names()
            .iter()
            .any(|n| n == PakaKind::EUdm.endpoint())
    );
    println!("\nMigration cost is dominated by the Fig. 7 enclave load — exactly");
    println!("why the paper flags load time as the metric for slice migration.");
    Ok(())
}
