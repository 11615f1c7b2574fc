//! The §III attacker: a malicious third-party application on shared NFV
//! infrastructure.
//!
//! The paper's attack chain: "the attacker utilizes a vulnerability in
//! the underlying container engine or VM monitor to gain root privileges
//! or orchestrate a VM escape ①… it can move horizontally to other VMs or
//! containers sharing the same virtualization infrastructure ②, thus
//! compromising the confidentiality and integrity of the critical 5G-AKA
//! functions and keys ③." Each primitive here mirrors one step; whether
//! step ③ yields anything is decided by where the secrets live —
//! container memory (plaintext) or enclave EPC (ciphertext).

use crate::host::Host;
use crate::InfraError;
use shield5g_sim::Env;

/// Probability of achieving co-residency with the target on a public
/// cloud ("over 90% success rate", paper §III-B citing \[35\]).
pub(crate) const CO_RESIDENCY_SUCCESS: f64 = 0.9;

/// Attack-chain milestones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttackStep {
    /// Deployed next to the target tenant.
    CoResident,
    /// Escaped the container/VM boundary with root privileges.
    EscalatedToHost,
}

/// What a memory sweep recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IntrospectionFinding {
    /// Container the bytes came from.
    pub container: String,
    /// Whether the needle was found in plaintext.
    pub found_plaintext: bool,
    /// Whether the container was enclave-shielded.
    pub shielded: bool,
    /// Bytes of memory examined.
    pub bytes_scanned: usize,
}

/// A malicious co-tenant working through the §III chain.
#[derive(Clone, Debug, Default)]
pub struct Attacker {
    progress: Vec<AttackStep>,
}

impl Attacker {
    fn achieved(&self, step: AttackStep) -> bool {
        self.progress.contains(&step)
    }

    /// Step ①a: land a tenant next to the target.
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::AttackFailed`] when the host is single-tenant
    /// or the probabilistic placement misses.
    pub fn gain_co_residency(&mut self, env: &mut Env, host: &Host) -> Result<(), InfraError> {
        if !host.multi_tenant {
            return Err(InfraError::AttackFailed {
                step: "co-residency",
                reason: format!("host {} is single-tenant", host.name()),
            });
        }
        if !env.rng.chance(CO_RESIDENCY_SUCCESS) {
            return Err(InfraError::AttackFailed {
                step: "co-residency",
                reason: "placement missed the target host".into(),
            });
        }
        self.progress.push(AttackStep::CoResident);
        Ok(())
    }

    /// Step ①b: exploit the engine/hypervisor to get host root.
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::AttackFailed`] without prior co-residency or
    /// on a patched engine.
    pub fn escape_to_host(&mut self, host: &Host) -> Result<(), InfraError> {
        if !self.achieved(AttackStep::CoResident) {
            return Err(InfraError::AttackFailed {
                step: "engine-escape",
                reason: "no co-residency foothold".into(),
            });
        }
        if !host.engine_vulnerable {
            return Err(InfraError::AttackFailed {
                step: "engine-escape",
                reason: format!("engine on {} is patched", host.name()),
            });
        }
        self.progress.push(AttackStep::EscalatedToHost);
        Ok(())
    }

    /// Step ②+③: sweep every container's memory for `needle` (KI 7/15
    /// memory introspection). Plain containers expose process memory;
    /// shielded containers expose only EPC ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::AttackFailed`] without host-root privileges.
    pub fn introspect_memory(
        &self,
        host: &Host,
        needle: &[u8],
    ) -> Result<Vec<IntrospectionFinding>, InfraError> {
        self.require_root()?;
        let mut findings = Vec::new();
        for handle in host.containers() {
            let container = handle.borrow();
            let (found, scanned) = if let Some(libos) = &container.shielded {
                let snap = libos.enclave().epc_snapshot();
                (snap.contains_plaintext(needle), snap.total_bytes())
            } else {
                (container.plain_memory.contains(needle), 0)
            };
            findings.push(IntrospectionFinding {
                container: container.name.clone(),
                found_plaintext: found,
                shielded: container.is_shielded(),
                bytes_scanned: scanned,
            });
        }
        Ok(findings)
    }

    /// Step ③ (integrity): flip bytes in a container's sensitive state.
    /// Against plain memory this silently succeeds; against an enclave it
    /// corrupts ciphertext that the enclave will *detect* on next access.
    ///
    /// Returns whether the write landed (not whether it goes undetected).
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::AttackFailed`] without host-root privileges
    /// or [`InfraError::UnknownContainer`].
    pub fn tamper_container(
        &self,
        host: &Host,
        container_name: &str,
        slot_or_page: &str,
    ) -> Result<bool, InfraError> {
        self.require_root()?;
        let handle = host
            .container(container_name)
            .ok_or_else(|| InfraError::UnknownContainer(container_name.to_owned()))?;
        let mut container = handle.borrow_mut();
        if let Some(libos) = &mut container.shielded {
            // Attack the first page of EPC ciphertext.
            let _ = slot_or_page;
            Ok(libos.enclave_mut().epc_tamper(0, 0))
        } else {
            Ok(container.plain_memory.tamper(slot_or_page, 0, 0xFF))
        }
    }

    fn require_root(&self) -> Result<(), InfraError> {
        if self.achieved(AttackStep::EscalatedToHost) {
            Ok(())
        } else {
            Err(InfraError::AttackFailed {
                step: "lateral-movement",
                reason: "attacker has not escaped to the host".into(),
            })
        }
    }
}

#[cfg(test)]
impl Attacker {
    /// KI 27: pull an image from the registry and extract its secrets.
    /// Plaintext secrets leak immediately; sealed ones are opaque bytes.
    #[must_use]
    pub(crate) fn extract_image_secrets(
        &self,
        image: &crate::image::ContainerImage,
    ) -> Vec<(String, Option<Vec<u8>>)> {
        use crate::image::ProvisionedSecret;
        image
            .secrets
            .iter()
            .map(|(name, secret)| {
                let leaked = match secret {
                    ProvisionedSecret::Plaintext(bytes) => Some(bytes.clone()),
                    ProvisionedSecret::Sealed(_) => None,
                };
                (name.clone(), leaked)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ContainerImage, Registry};
    use shield5g_hmee::platform::SgxPlatform;
    use shield5g_libos::gsc::ImageSpec;
    use shield5g_libos::manifest::Manifest;

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.push(ContainerImage::new(ImageSpec::synthetic(
            "oai/udm", "/bin/udm", 10_000_000, 10,
        )));
        reg
    }

    fn co_resident_root(env: &mut Env, host: &Host) -> Attacker {
        let mut attacker = Attacker::default();
        // Retry the probabilistic step until it lands (deterministic seed).
        while attacker.gain_co_residency(env, host).is_err() {}
        attacker.escape_to_host(host).unwrap();
        attacker
    }

    #[test]
    fn chain_requires_prerequisites() {
        let mut env = Env::new(1);
        let host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let mut attacker = Attacker::default();
        // Escape before co-residency fails.
        assert!(attacker.escape_to_host(&host).is_err());
        // Introspection before escape fails.
        assert!(attacker.introspect_memory(&host, b"x").is_err());
    }

    #[test]
    fn single_tenant_host_blocks_co_residency() {
        let mut env = Env::new(2);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        host.multi_tenant = false;
        let mut attacker = Attacker::default();
        assert!(attacker.gain_co_residency(&mut env, &host).is_err());
    }

    #[test]
    fn patched_engine_blocks_escape() {
        let mut env = Env::new(3);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        host.engine_vulnerable = false;
        let mut attacker = Attacker::default();
        while attacker.gain_co_residency(&mut env, &host).is_err() {}
        assert!(attacker.escape_to_host(&host).is_err());
    }

    #[test]
    fn plain_container_leaks_secrets() {
        let mut env = Env::new(4);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let c = host
            .run_plain(&mut env, &registry(), "oai/udm", "udm-1")
            .unwrap();
        c.borrow_mut()
            .plain_memory
            .write("kausf", b"super-secret-kausf");
        let attacker = co_resident_root(&mut env, &host);
        let findings = attacker
            .introspect_memory(&host, b"super-secret-kausf")
            .unwrap();
        assert!(findings.iter().any(|f| f.found_plaintext && !f.shielded));
    }

    #[test]
    fn shielded_container_yields_ciphertext_only() {
        let mut env = Env::new(5);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let c = host
            .run_shielded(
                &mut env,
                &registry(),
                "oai/udm",
                "udm-1",
                Manifest::paka_default("x"),
                &[1; 32],
            )
            .unwrap();
        c.borrow_mut()
            .shielded
            .as_mut()
            .unwrap()
            .enclave_mut()
            .vault_write(&mut env, "kausf", b"super-secret-kausf");
        let attacker = co_resident_root(&mut env, &host);
        let findings = attacker
            .introspect_memory(&host, b"super-secret-kausf")
            .unwrap();
        let f = &findings[0];
        assert!(f.shielded);
        assert!(!f.found_plaintext, "enclave memory must not leak plaintext");
        assert!(f.bytes_scanned > 0, "attacker does see (encrypted) bytes");
    }

    #[test]
    fn tampering_enclave_is_detected_on_next_access() {
        let mut env = Env::new(6);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let c = host
            .run_shielded(
                &mut env,
                &registry(),
                "oai/udm",
                "udm-1",
                Manifest::paka_default("x"),
                &[1; 32],
            )
            .unwrap();
        c.borrow_mut()
            .shielded
            .as_mut()
            .unwrap()
            .enclave_mut()
            .vault_write(&mut env, "kausf", b"key-material");
        let attacker = co_resident_root(&mut env, &host);
        assert!(attacker.tamper_container(&host, "udm-1", "kausf").unwrap());
        let mut container = c.borrow_mut();
        let libos = container.shielded.as_mut().unwrap();
        assert!(libos.enclave_mut().vault_read(&mut env, "kausf").is_err());
    }

    #[test]
    fn tampering_plain_memory_is_silent() {
        let mut env = Env::new(7);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let c = host
            .run_plain(&mut env, &registry(), "oai/udm", "udm-1")
            .unwrap();
        c.borrow_mut().plain_memory.write("kausf", b"key-material");
        let attacker = co_resident_root(&mut env, &host);
        assert!(attacker.tamper_container(&host, "udm-1", "kausf").unwrap());
        // The corrupted value reads back without any error: silent integrity loss.
        assert_eq!(c.borrow().plain_memory.read("kausf").unwrap()[0], 0xFF);
    }

    #[test]
    fn image_secret_extraction_ki27() {
        let img = ContainerImage::new(ImageSpec::synthetic("oai/amf", "/bin/amf", 1_000, 2))
            .with_plaintext_secret("tls-key", b"PEM-PRIVATE-KEY".to_vec());
        let attacker = Attacker::default();
        let secrets = attacker.extract_image_secrets(&img);
        assert_eq!(secrets.len(), 1);
        assert_eq!(secrets[0].1.as_deref(), Some(&b"PEM-PRIVATE-KEY"[..]));
    }

    #[test]
    fn sealed_image_secret_not_extractable() {
        let mut env = Env::new(8);
        let platform = SgxPlatform::new(&mut env);
        let enclave = shield5g_hmee::enclave::EnclaveBuilder::new("amf")
            .heap_bytes(64 * 1024 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        let blob = shield5g_hmee::seal::seal(
            &mut env,
            &enclave,
            shield5g_hmee::seal::SealPolicy::MrEnclave,
            b"PEM-PRIVATE-KEY",
        );
        let img = ContainerImage::new(ImageSpec::synthetic("oai/amf", "/bin/amf", 1_000, 2))
            .with_sealed_secret("tls-key", blob);
        let attacker = Attacker::default();
        let secrets = attacker.extract_image_secrets(&img);
        assert_eq!(secrets[0].1, None, "sealed secret must not leak");
    }
}
