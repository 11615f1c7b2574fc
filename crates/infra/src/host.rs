//! Physical hosts.
//!
//! Paper §VI (end): "3GPP assesses the trustworthiness of an NFVI based
//! on its HMEE capabilities." Every host here is the paper's HMEE-capable
//! PowerEdge R450: it combines an SGX platform, a container runtime, a
//! tenancy model and a patch level — the knobs the attacker model keys
//! on. Whether a module runs shielded is the deployment's choice
//! (`run_plain` or `run_shielded`), not the host's.

use crate::container::Container;
use crate::image::Registry;
use crate::InfraError;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_libos::gsc::{self, ShieldedImage};
use shield5g_libos::libos::GramineLibos;
use shield5g_libos::manifest::Manifest;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A shared handle to a container.
pub type ContainerHandle = Rc<RefCell<Container>>;

/// A physical host in the NFVI.
pub struct Host {
    name: String,
    platform: SgxPlatform,
    containers: BTreeMap<String, ContainerHandle>,
    /// Whether the container engine / hypervisor has unpatched isolation
    /// CVEs (the §III escape prerequisite).
    pub engine_vulnerable: bool,
    /// Whether third-party tenants share this host (co-residency surface).
    pub multi_tenant: bool,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("name", &self.name)
            .field("containers", &self.container_names())
            .finish()
    }
}

impl Host {
    /// An SGX-capable host (the paper's PowerEdge R450).
    #[must_use]
    pub fn with_sgx(name: impl Into<String>, platform: SgxPlatform) -> Self {
        Host {
            name: name.into(),
            platform,
            containers: BTreeMap::new(),
            engine_vulnerable: true,
            multi_tenant: true,
        }
    }

    /// The host name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The host's SGX platform.
    #[must_use]
    pub fn platform(&self) -> &SgxPlatform {
        &self.platform
    }

    /// Runs a plain container from the registry (`docker run`).
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::UnknownImage`] when the image is not in the
    /// registry.
    pub fn run_plain(
        &mut self,
        env: &mut Env,
        registry: &Registry,
        image: &str,
        name: impl Into<String>,
    ) -> Result<ContainerHandle, InfraError> {
        registry
            .pull(image)
            .ok_or_else(|| InfraError::UnknownImage(image.to_owned()))?;
        let name = name.into();
        // containerd startup: namespace + cgroup + rootfs mount.
        env.clock.advance(SimDuration::from_millis(380));
        let mut container = Container::plain(name.clone(), image);
        container.start();
        let handle = Rc::new(RefCell::new(container));
        self.containers.insert(name, handle.clone());
        env.log.record(
            env.clock.now(),
            "infra",
            format_args!("{}: started plain container {image}", self.name),
        );
        Ok(handle)
    }

    /// Runs a GSC-shielded container: transforms the image, boots Gramine,
    /// and wraps it (`docker run gsc-<image>`).
    ///
    /// # Errors
    ///
    /// [`shield5g_libos::LibosError::ManifestInvalid`] when the image is
    /// missing; GSC transform and boot errors as they come.
    pub fn run_shielded(
        &mut self,
        env: &mut Env,
        registry: &Registry,
        image: &str,
        name: impl Into<String>,
        manifest: Manifest,
        signing_key: &[u8; 32],
    ) -> Result<ContainerHandle, shield5g_libos::LibosError> {
        let img = registry.pull(image).ok_or_else(|| {
            shield5g_libos::LibosError::ManifestInvalid(format!("unknown image {image:?}"))
        })?;
        let shielded: ShieldedImage = gsc::transform(&img.spec, manifest, signing_key)?;
        env.clock.advance(SimDuration::from_millis(420)); // gsc container start
        let libos = GramineLibos::boot(env, &shielded, &self.platform)?;
        let name = name.into();
        let mut container = Container::shielded(name.clone(), image, libos);
        container.start();
        let handle = Rc::new(RefCell::new(container));
        self.containers.insert(name, handle.clone());
        env.log.record(
            env.clock.now(),
            "infra",
            format_args!("{}: started shielded container {image}", self.name),
        );
        Ok(handle)
    }

    /// Looks up a container by name.
    #[must_use]
    pub fn container(&self, name: &str) -> Option<ContainerHandle> {
        self.containers.get(name).cloned()
    }

    /// Container names, sorted.
    #[must_use]
    pub fn container_names(&self) -> Vec<String> {
        self.containers.keys().cloned().collect()
    }

    /// All containers (for iteration by the attacker).
    #[must_use]
    pub(crate) fn containers(&self) -> Vec<ContainerHandle> {
        self.containers.values().cloned().collect()
    }

    /// Stops and removes a container; a compliant runtime wipes its plain
    /// memory (KI 5 requirement: "resources used by a VNF to be cleared").
    ///
    /// # Errors
    ///
    /// Returns [`InfraError::UnknownContainer`] when absent.
    pub fn remove_container(&mut self, name: &str, wipe: bool) -> Result<(), InfraError> {
        let handle = self
            .containers
            .remove(name)
            .ok_or_else(|| InfraError::UnknownContainer(name.to_owned()))?;
        let mut c = handle.borrow_mut();
        c.stop();
        if wipe {
            c.plain_memory.wipe();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerState;
    use crate::image::ContainerImage;
    use shield5g_libos::gsc::ImageSpec;

    fn registry() -> Registry {
        let mut reg = Registry::new();
        reg.push(ContainerImage::new(ImageSpec::synthetic(
            "oai/udm", "/bin/udm", 50_000_000, 20,
        )));
        reg
    }

    #[test]
    fn run_plain_container() {
        let mut env = Env::new(2);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let c = host
            .run_plain(&mut env, &registry(), "oai/udm", "udm-1")
            .unwrap();
        assert_eq!(c.borrow().state, ContainerState::Running);
        assert!(host.container("udm-1").is_some());
        assert!(host.run_plain(&mut env, &registry(), "ghost", "x").is_err());
    }

    #[test]
    fn run_shielded_boots_gramine() {
        let mut env = Env::new(4);
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
        assert!(c.borrow().is_shielded());
    }

    #[test]
    fn remove_with_wipe_clears_memory() {
        let mut env = Env::new(5);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let c = host
            .run_plain(&mut env, &registry(), "oai/udm", "udm-1")
            .unwrap();
        c.borrow_mut().plain_memory.write("k", b"leak");
        host.remove_container("udm-1", true).unwrap();
        assert!(!c.borrow().plain_memory.contains(b"leak"));
        assert!(host.remove_container("udm-1", true).is_err());
    }

    #[test]
    fn remove_without_wipe_leaves_residue() {
        // KI 5: storage reuse without clearing leaks privacy-sensitive data.
        let mut env = Env::new(6);
        let mut host = Host::with_sgx("h1", SgxPlatform::new(&mut env));
        let c = host
            .run_plain(&mut env, &registry(), "oai/udm", "udm-1")
            .unwrap();
        c.borrow_mut().plain_memory.write("k", b"leak");
        host.remove_container("udm-1", false).unwrap();
        assert!(c.borrow().plain_memory.contains(b"leak"));
    }
}
