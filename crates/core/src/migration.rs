//! Slice migration: relocating a P-AKA module, enclave or container, to
//! another HMEE-capable host.
//!
//! §V-B1 notes enclave load time "is important to take into account when
//! considering slice creation or migration time", and §VI's KI 11/12
//! require that functions only land on hosts whose security posture is
//! *verified* — "the deployment of NFs should be preceded by a validation
//! process utilizing secure hardware-backed attestation". This module
//! implements that flow:
//!
//! 1. deploy a fresh enclave module on the target host (pays the Fig. 7
//!    load time),
//! 2. remote-attest it (quote over MRENCLAVE/MRSIGNER, verified against
//!    the registered platform),
//! 3. transfer the subscriber keys over an attested secure channel, read
//!    through the old module from wherever it keeps them (its enclave
//!    vault, or a container's plain memory),
//! 4. swap the live traffic to the new instance and retire the old one
//!    (wiping its resources — the KI 5 lifecycle requirement).

use crate::paka::{ModuleDeployment, PakaKind, PakaModule, SgxConfig};
use crate::slice::Slice;
use crate::CoreError;
use shield5g_hmee::attest::{AttestationService, QuotePolicy, Report};
use shield5g_hmee::enclave::Enclave;
use shield5g_infra::host::Host;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// Per-key transfer cost over the attested TLS channel (ECDH-wrapped key
/// blob plus acknowledgement).
const KEY_TRANSFER_NANOS: u64 = 160_000;

/// Outcome of a module migration.
#[derive(Clone, Copy, Debug)]
pub struct MigrationReport {
    /// Time to bring the target enclave up (the Fig. 7 load time plus
    /// server init).
    pub target_load_time: SimDuration,
    /// Whether the target enclave passed attestation before receiving
    /// any key material.
    pub attested: bool,
    /// Subscriber keys re-provisioned.
    pub keys_transferred: usize,
    /// Wall time of the whole migration (deploy + attest + transfer +
    /// swap).
    pub total_time: SimDuration,
}

/// Attests a deployed module's enclave against the vendor policy.
///
/// # Errors
///
/// Returns [`CoreError::Hmee`] when the quote fails verification (wrong
/// platform, forged measurement, or an unregistered host).
pub(crate) fn attest_module(
    module: &PakaModule,
    host: &Host,
    service: &AttestationService,
) -> Result<(), CoreError> {
    let platform = host.platform();
    let container = module.container();
    let container = container.borrow();
    let enclave: &Enclave = container.shielded.as_ref().map(|l| l.enclave()).ok_or(
        shield5g_hmee::HmeeError::AttestationFailed("module is not enclave-shielded".into()),
    )?;
    let report = Report::create(enclave, [0u8; 64]);
    let quote = platform.quote(&report).map_err(CoreError::Hmee)?;
    // Vendor policy: any build signed with the P-AKA signing identity;
    // debug allowed because the paper's stats builds are debug-mode.
    let mut policy = QuotePolicy::signer(*enclave.mrsigner());
    policy.allow_debug = true;
    service.verify(&quote, &policy).map_err(CoreError::Hmee)
}

/// Migrates the `kind` module of `slice` onto `target` host.
///
/// On success the slice's module handle points at the new instance (all
/// wired backends follow automatically) and the old container is removed
/// with its plain memory wiped.
///
/// # Errors
///
/// * [`CoreError::Libos`] when the target cannot boot the enclave.
/// * [`CoreError::Hmee`] when attestation fails — in that case **no key
///   material is transferred** and the old module keeps serving.
/// * [`CoreError::Module`] when the slice has no such module (monolithic
///   deployment).
/// * [`CoreError::Nf`] when a stored key does not read back.
pub fn migrate_module(
    env: &mut Env,
    slice: &mut Slice,
    kind: PakaKind,
    target: &mut Host,
    service: &AttestationService,
    cfg: SgxConfig,
) -> Result<MigrationReport, CoreError> {
    let module_handle = slice.module(kind).ok_or_else(|| CoreError::Module {
        module: kind.name().to_owned(),
        status: 404,
        detail: "slice has no extracted module (monolithic deployment)".into(),
    })?;
    let t0 = env.clock.now();

    // 1. Deploy on the target (pays enclave load).
    let mut new_module = PakaModule::deploy(
        env,
        target,
        &slice.registry,
        kind,
        ModuleDeployment::Sgx(cfg),
    )?;
    #[expect(clippy::expect_used, reason = "SGX deployments record a boot report")]
    let target_load_time = new_module
        .boot_report()
        .expect("sgx deployment has boot report")
        .load_time;

    // 2. Attest before any secret leaves the old module (KI 11/12).
    attest_module(&new_module, target, service)?;

    // 3. Transfer subscriber keys over the attested channel, read from
    //    whichever memory the old module keeps them in.
    let keys = module_handle.borrow_mut().subscriber_keys(env)?;
    let keys_transferred = keys.len();
    for (supi, k) in keys {
        env.clock
            .advance(SimDuration::from_nanos(KEY_TRANSFER_NANOS));
        new_module.provision_subscriber_key(env, supi.as_str(), k);
    }

    // 4. Swap live traffic to the new instance; retire and wipe the old.
    let old_module = std::mem::replace(&mut *module_handle.borrow_mut(), new_module);
    let old_container_name = old_module.container().borrow().name.clone();
    drop(old_module);
    slice.host.remove_container(&old_container_name, true).ok();

    Ok(MigrationReport {
        target_load_time,
        attested: true,
        keys_transferred,
        total_time: env.clock.now() - t0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::standard_request;
    use crate::slice::{build_slice, AkaDeployment, SliceConfig};
    use shield5g_hmee::platform::SgxPlatform;

    fn sgx_slice(seed: u64) -> (Env, Slice) {
        let mut env = Env::new(seed);
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Sgx(SgxConfig::default()),
                subscriber_count: 3,
            },
        )
        .unwrap();
        (env, slice)
    }

    #[test]
    fn migration_preserves_service() {
        let (mut env, mut slice) = sgx_slice(61);
        // Serve one request pre-migration.
        let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
        let req = standard_request(PakaKind::EUdm);
        let before = client.call(&mut env, &req.path, req.body.clone()).unwrap();

        // Migrate to a fresh host with a registered platform.
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
        )
        .unwrap();
        assert!(report.attested);
        assert_eq!(report.keys_transferred, 3);
        assert!(report.target_load_time > SimDuration::from_secs(50));
        assert!(report.total_time >= report.target_load_time);

        // The same client handle keeps working and produces identical
        // crypto (same subscriber key, same request → same AV).
        let after = client.call(&mut env, &req.path, req.body.clone()).unwrap();
        assert_eq!(before, after);
        // Old container is gone from the source host.
        assert!(!slice
            .host
            .container_names()
            .contains(&PakaKind::EUdm.endpoint().to_owned()));
    }

    /// A container-deployed source has no vault: its keys sit in plain
    /// memory, and they move all the same.
    #[test]
    fn a_container_module_migrates_with_its_keys() {
        let mut env = Env::new(65);
        let mut slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Container,
                subscriber_count: 3,
            },
        )
        .unwrap();
        let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
        let req = standard_request(PakaKind::EUdm);
        let before = client.call(&mut env, &req.path, req.body.clone()).unwrap();

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
        )
        .unwrap();
        assert_eq!(report.keys_transferred, 3);
        let after = client.call(&mut env, &req.path, req.body.clone()).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn unattested_target_receives_no_keys() {
        let (mut env, mut slice) = sgx_slice(62);
        let platform = SgxPlatform::new(&mut env);
        let mut target = Host::with_sgx("rogue", platform);
        // The attestation service does NOT know the target platform.
        let service = AttestationService::new();
        let err = migrate_module(
            &mut env,
            &mut slice,
            PakaKind::EUdm,
            &mut target,
            &service,
            SgxConfig::default(),
        );
        assert!(matches!(err, Err(CoreError::Hmee(_))), "{err:?}");
        // The old module keeps serving.
        let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
        let req = standard_request(PakaKind::EUdm);
        client.call(&mut env, &req.path, req.body.clone()).unwrap();
    }

    #[test]
    fn monolithic_slice_has_nothing_to_migrate() {
        let mut env = Env::new(63);
        let mut slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Monolithic,
                subscriber_count: 1,
            },
        )
        .unwrap();
        let platform = SgxPlatform::new(&mut env);
        let mut service = AttestationService::new();
        service.register_platform(&platform);
        let mut target = Host::with_sgx("r451", platform);
        assert!(matches!(
            migrate_module(
                &mut env,
                &mut slice,
                PakaKind::EUdm,
                &mut target,
                &service,
                SgxConfig::default()
            ),
            Err(CoreError::Module { status: 404, .. })
        ));
    }

    #[test]
    fn attest_module_rejects_container_deployment() {
        let mut env = Env::new(64);
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Container,
                subscriber_count: 1,
            },
        )
        .unwrap();
        let module = slice.module(PakaKind::EUdm).unwrap();
        let service = AttestationService::new();
        assert!(attest_module(&module.borrow(), &slice.host, &service).is_err());
    }
}
