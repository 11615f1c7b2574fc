//! The SGX-capable platform: CPU package keys, EPC capacity, and the
//! quoting enclave.
//!
//! A platform models one physical host (the paper's Dell PowerEdge R450
//! with two SGXv2 Xeon Silver 4314 CPUs and 8 GB of usable EPC per CPU).
//! All key material descends from a per-platform root that never leaves
//! the simulated CPU package.

use crate::attest::{Quote, Report};
use crate::cost::{CostModel, PAGE_SIZE};
use crate::HmeeError;
use shield5g_crypto::hmac::hmac_sha256;
use shield5g_sim::Env;

/// Usable EPC per CPU in the paper's testbed (§V-B2: "8GB, maximum for a
/// single CPU in our experimental setup").
pub(crate) const DEFAULT_EPC_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// A physical SGX-capable host.
#[derive(Clone)]
pub struct SgxPlatform {
    id: u64,
    root_key: [u8; 32],
    epc_pages: u64,
    cost: CostModel,
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxPlatform")
            .field("id", &self.id)
            .field("epc_pages", &self.epc_pages)
            .field("root_key", &"<fused in cpu>")
            .finish()
    }
}

impl SgxPlatform {
    /// Creates a platform with the default EPC size and cost model, fusing
    /// a fresh root key from the world's RNG.
    #[must_use]
    pub fn new(env: &mut Env) -> Self {
        SgxPlatform {
            id: env.rng.next_u64(),
            root_key: env.rng.bytes(),
            epc_pages: DEFAULT_EPC_BYTES / PAGE_SIZE as u64,
            cost: CostModel::default(),
        }
    }

    /// Overrides the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// A stable platform identifier (used to key attestation registries).
    #[must_use]
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Physical EPC capacity in pages.
    #[must_use]
    pub(crate) fn epc_pages(&self) -> u64 {
        self.epc_pages
    }

    /// The platform cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Derives a platform-bound key: `HMAC(root, label || context)`.
    ///
    /// This models the SGX `EGETKEY` hierarchy: all enclave keys descend
    /// from fused hardware secrets plus enclave identity.
    #[must_use]
    pub(crate) fn derive_key(&self, label: &str, context: &[u8]) -> [u8; 32] {
        let mut input = Vec::with_capacity(label.len() + 1 + context.len());
        input.extend_from_slice(label.as_bytes());
        input.push(0);
        input.extend_from_slice(context);
        hmac_sha256(&self.root_key, &input)
    }

    /// The platform-wide report key (shared by all enclaves on this host;
    /// the basis of *local* attestation).
    #[must_use]
    pub(crate) fn report_key(&self) -> [u8; 32] {
        self.derive_key("report", &[])
    }

    /// The quoting enclave's signing secret.
    pub(crate) fn qe_key(&self) -> [u8; 32] {
        self.derive_key("quoting-enclave", &[])
    }

    /// The quoting enclave: verifies a local report and converts it into a
    /// remotely verifiable [`Quote`].
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::AttestationFailed`] when the report's MAC does
    /// not verify under this platform's report key (the report was made on
    /// a different host or tampered with).
    pub fn quote(&self, report: &Report) -> Result<Quote, HmeeError> {
        report.verify(&self.report_key())?;
        Ok(Quote::sign(self.id, &self.qe_key(), report))
    }
}

#[cfg(test)]
impl SgxPlatform {
    /// Overrides the usable EPC size.
    #[must_use]
    pub(crate) fn with_epc_bytes(mut self, bytes: u64) -> Self {
        self.epc_pages = bytes / PAGE_SIZE as u64;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platforms_have_distinct_roots() {
        let mut env = Env::new(1);
        let a = SgxPlatform::new(&mut env);
        let b = SgxPlatform::new(&mut env);
        assert_ne!(a.derive_key("x", b"ctx"), b.derive_key("x", b"ctx"));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn derive_key_separates_labels_and_contexts() {
        let mut env = Env::new(2);
        let p = SgxPlatform::new(&mut env);
        assert_ne!(p.derive_key("seal", b"m"), p.derive_key("report", b"m"));
        assert_ne!(p.derive_key("seal", b"m1"), p.derive_key("seal", b"m2"));
        // Label/context boundary: ("ab", "c") != ("a", "bc").
        assert_ne!(p.derive_key("ab", b"c"), p.derive_key("a", b"bc"));
    }

    #[test]
    fn default_epc_is_8gb() {
        let mut env = Env::new(3);
        let p = SgxPlatform::new(&mut env);
        assert_eq!(p.epc_pages() * PAGE_SIZE as u64, 8 * 1024 * 1024 * 1024);
    }

    #[test]
    fn epc_override() {
        let mut env = Env::new(4);
        let p = SgxPlatform::new(&mut env).with_epc_bytes(512 * 1024 * 1024);
        assert_eq!(p.epc_pages(), 131_072);
    }

    #[test]
    fn debug_hides_root_key() {
        let mut env = Env::new(5);
        let p = SgxPlatform::new(&mut env);
        assert!(format!("{p:?}").contains("fused"));
    }
}
