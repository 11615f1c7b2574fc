//! Attack lab: run the paper's §III threat model against each deployment
//! and watch what the attacker gets.
//!
//! A malicious co-tenant gains co-residency, escapes the container
//! engine, and then (1) sweeps memory for the subscriber's long-term key,
//! (2) tampers with AKA state, (3) sniffs the OAI bridge, and (4) pulls
//! secrets out of container images. The contrast between the container
//! and SGX columns is Table V in action.
//!
//! ```sh
//! cargo run --release --example attack_lab
//! ```

use shield5g::core::harness::standard_request;
use shield5g::core::ki::{demonstrate, table5, Resolution};
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::hmee::seal::{seal, SealPolicy};
use shield5g::infra::attacker::Attacker;
use shield5g::infra::image::ContainerImage;
use shield5g::libos::gsc::ImageSpec;
use shield5g::sim::Env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== attack lab: the §III co-residency attacker ==\n");

    for deployment in [
        AkaDeployment::Container,
        AkaDeployment::Sgx(SgxConfig::default()),
    ] {
        println!("--- target: {} deployment ---", deployment.label());
        let mut env = Env::new(1337);
        let mut slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 2,
            },
        )?;

        // Drive one AKA round so derived keys (K_AUSF/K_SEAF/K_AMF) are
        // resident in module memory.
        let mut client = slice
            .client_for(PakaKind::EUdm, "udm.oai")
            .ok_or("slice has an eUDM module")?;
        let req = standard_request(PakaKind::EUdm);
        client.call(&mut env, &req.path, req.body.clone())?;

        // Tap the bridge and push one more request across it.
        slice.bridge.borrow_mut().enable_tap();
        client.call(&mut env, &req.path, req.body.clone())?;
        let opc_on_wire = slice
            .bridge
            .borrow()
            .captured_contains(&slice.subscribers[0].opc);
        println!(
            "  bridge tap:       {} frames captured, OPc visible in clear: {}",
            slice.bridge.borrow().captured().len(),
            opc_on_wire
        );

        // The demonstrated KI claims.
        for demo in demonstrate(&mut env, &mut slice) {
            println!(
                "  KI {:2}: {:55} upheld={} ({})",
                demo.ki, demo.claim, demo.upheld, demo.evidence
            );
        }
        println!();
    }

    // KI 27: secrets in images, plaintext vs sealed.
    println!("--- KI 27: secrets in NF container images ---");
    let mut env = Env::new(4242);
    let platform = shield5g::hmee::platform::SgxPlatform::new(&mut env);
    let enclave = shield5g::hmee::enclave::EnclaveBuilder::new("amf")
        .heap_bytes(64 * 1024 * 1024)
        .build(&mut env, &platform)?;
    let blob = seal(
        &mut env,
        &enclave,
        SealPolicy::MrEnclave,
        b"PEM-TLS-PRIVATE-KEY",
    );
    let naive = ContainerImage::new(ImageSpec::synthetic("oai/amf-naive", "/bin/amf", 1_000, 2))
        .with_plaintext_secret("tls-key", b"PEM-TLS-PRIVATE-KEY".to_vec());
    let hardened =
        ContainerImage::new(ImageSpec::synthetic("oai/amf-sealed", "/bin/amf", 1_000, 2))
            .with_sealed_secret("tls-key", blob);
    let attacker = Attacker::new("mallory");
    for image in [&naive, &hardened] {
        for (name, leaked) in attacker.extract_image_secrets(image) {
            println!(
                "  image {:16} secret {:8}: {}",
                image.name(),
                name,
                match leaked {
                    Some(bytes) => format!("LEAKED ({} bytes of plaintext)", bytes.len()),
                    None => "sealed blob only — useless off-platform".to_owned(),
                }
            );
        }
    }

    // The full Table V matrix.
    println!("\n--- Table V: Key Issues summary ---");
    for ki in table5() {
        println!(
            "  KI {:2} {} {:45} via {}",
            ki.number,
            match (ki.hmee_flagged_by_3gpp, ki.resolution) {
                (true, Resolution::Full) => "[3GPP/full]   ",
                (true, Resolution::Partial) => "[3GPP/partial]",
                (false, Resolution::Full) => "[ours/full]   ",
                (false, Resolution::Partial) => "[ours/partial]",
            },
            ki.description,
            ki.mechanism
        );
    }
    Ok(())
}
