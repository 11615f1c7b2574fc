//! Container images and the registry.
//!
//! Images wrap a [`shield5g_libos::gsc::ImageSpec`] (so GSC can transform
//! them directly) and may carry *embedded secrets* — credentials baked
//! into the image, the anti-pattern behind the paper's KI 27: "attackers
//! can gain copies of these images and extract or manipulate the secrets".
//! The secure alternative is storing a [`shield5g_hmee::seal::SealedBlob`]
//! instead, which only the attested enclave can open.

use shield5g_hmee::seal::SealedBlob;
use shield5g_libos::gsc::ImageSpec;
use std::collections::BTreeMap;

/// A secret provisioned into a container image.
#[derive(Clone, Debug, PartialEq)]
pub enum ProvisionedSecret {
    /// Plaintext credential in the image filesystem (KI 27 anti-pattern).
    Plaintext(Vec<u8>),
    /// A sealed blob: opaque to anyone but the target enclave (KI 27 fix).
    Sealed(SealedBlob),
}

/// A container image.
#[derive(Clone, Debug, PartialEq)]
pub struct ContainerImage {
    /// The root-FS spec GSC operates on.
    pub spec: ImageSpec,
    /// Environment variables baked into the image.
    pub env_vars: BTreeMap<String, String>,
    /// Secrets provisioned into the image, by name.
    pub secrets: BTreeMap<String, ProvisionedSecret>,
}

impl ContainerImage {
    /// Wraps an [`ImageSpec`] with no env vars or secrets.
    #[must_use]
    pub fn new(spec: ImageSpec) -> Self {
        ContainerImage {
            spec,
            env_vars: BTreeMap::new(),
            secrets: BTreeMap::new(),
        }
    }

    /// The image name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Adds an environment variable (builder style).
    #[must_use]
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env_vars.insert(key.into(), value.into());
        self
    }

    /// Embeds a plaintext secret (builder style; deliberately insecure —
    /// used to demonstrate KI 27).
    #[must_use]
    pub fn with_plaintext_secret(mut self, name: impl Into<String>, value: Vec<u8>) -> Self {
        self.secrets
            .insert(name.into(), ProvisionedSecret::Plaintext(value));
        self
    }

    /// Embeds a sealed secret (builder style; the KI 27 mitigation).
    #[must_use]
    pub fn with_sealed_secret(mut self, name: impl Into<String>, blob: SealedBlob) -> Self {
        self.secrets
            .insert(name.into(), ProvisionedSecret::Sealed(blob));
        self
    }
}

/// An image registry (the attacker can pull from it too — that is the
/// point of KI 27).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    images: BTreeMap<String, ContainerImage>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an image (replaces an existing tag).
    pub fn push(&mut self, image: ContainerImage) {
        self.images.insert(image.name().to_owned(), image);
    }

    /// Pulls an image by name.
    #[must_use]
    pub fn pull(&self, name: &str) -> Option<&ContainerImage> {
        self.images.get(name)
    }

    /// All image names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.images.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ContainerImage {
        ContainerImage::new(ImageSpec::synthetic("oai/udm", "/bin/udm", 1_000_000, 10))
            .with_env("PLMN", "00101")
            .with_plaintext_secret("tls-key", b"INSECURE".to_vec())
    }

    #[test]
    fn builder_collects_fields() {
        let img = image();
        assert_eq!(img.name(), "oai/udm");
        assert_eq!(img.env_vars.get("PLMN").unwrap(), "00101");
        assert!(matches!(
            img.secrets.get("tls-key"),
            Some(ProvisionedSecret::Plaintext(_))
        ));
    }

    #[test]
    fn registry_push_pull() {
        let mut reg = Registry::new();
        reg.push(image());
        assert!(reg.pull("oai/udm").is_some());
        assert!(reg.pull("ghost").is_none());
        assert_eq!(reg.names(), vec!["oai/udm".to_owned()]);
    }

    #[test]
    fn registry_replaces_same_tag() {
        let mut reg = Registry::new();
        reg.push(image());
        let updated = image().with_env("VERSION", "2");
        reg.push(updated);
        assert_eq!(
            reg.pull("oai/udm")
                .unwrap()
                .env_vars
                .get("VERSION")
                .unwrap(),
            "2"
        );
    }
}
