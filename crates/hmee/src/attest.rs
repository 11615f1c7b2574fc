//! Local and remote attestation.
//!
//! The paper's §VI argues HMEE attestation resolves KI 11/12/13: NFs can
//! verify "the security posture of the hosting environment" before
//! deployment, with reports "that span from the hardware to the 3GPP
//! function level". The model:
//!
//! * **Local report** ([`Report`]): MACed under the platform-wide report
//!   key, verifiable by any enclave on the *same* host.
//! * **Quote** ([`Quote`]): the platform's quoting enclave converts a
//!   verified report into a token checkable by a remote
//!   [`AttestationService`] that knows the platform's provisioned key
//!   (the IAS/DCAP role).

use crate::enclave::Enclave;
use crate::platform::SgxPlatform;
use crate::HmeeError;
use shield5g_crypto::hmac::hmac_sha256;
use std::collections::HashMap;

/// User data bound into a report (e.g. a TLS key hash), 64 bytes like SGX.
pub type ReportData = [u8; 64];

/// A local attestation report (`EREPORT` analogue).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Report {
    /// Measurement of the reporting enclave.
    pub mrenclave: [u8; 32],
    /// Signer identity of the reporting enclave.
    pub mrsigner: [u8; 32],
    /// Whether the enclave runs in debug mode (verifiers must reject
    /// debug enclaves in production policies).
    pub debug: bool,
    /// Caller-chosen payload bound into the report.
    pub report_data: ReportData,
    mac: [u8; 32],
}

impl Report {
    /// Creates a report for `enclave` binding `report_data`.
    #[must_use]
    pub fn create(enclave: &Enclave, report_data: ReportData) -> Self {
        let mut r = Report {
            mrenclave: *enclave.mrenclave(),
            mrsigner: *enclave.mrsigner(),
            debug: enclave.is_debug(),
            report_data,
            mac: [0; 32],
        };
        r.mac = r.compute_mac(enclave.report_key());
        r
    }

    fn body(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32 + 32 + 1 + 64);
        b.extend_from_slice(&self.mrenclave);
        b.extend_from_slice(&self.mrsigner);
        b.push(u8::from(self.debug));
        b.extend_from_slice(&self.report_data);
        b
    }

    fn compute_mac(&self, report_key: &[u8; 32]) -> [u8; 32] {
        hmac_sha256(report_key, &self.body())
    }

    /// Verifies the report under a platform report key (local attestation:
    /// the verifying enclave obtains the same key via `EGETKEY`).
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::AttestationFailed`] on MAC mismatch.
    pub(crate) fn verify(&self, report_key: &[u8; 32]) -> Result<(), HmeeError> {
        if shield5g_crypto::ct_eq(&self.compute_mac(report_key), &self.mac) {
            Ok(())
        } else {
            Err(HmeeError::AttestationFailed("report MAC mismatch".into()))
        }
    }
}

/// A remotely verifiable quote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Quote {
    /// The platform that produced the quote.
    pub platform_id: u64,
    /// Quoted measurement.
    pub mrenclave: [u8; 32],
    /// Quoted signer.
    pub mrsigner: [u8; 32],
    /// Debug flag of the quoted enclave.
    pub debug: bool,
    /// Report data carried through from the local report.
    pub report_data: ReportData,
    signature: [u8; 32],
}

impl Quote {
    pub(crate) fn sign(platform_id: u64, qe_key: &[u8; 32], report: &Report) -> Self {
        let mut q = Quote {
            platform_id,
            mrenclave: report.mrenclave,
            mrsigner: report.mrsigner,
            debug: report.debug,
            report_data: report.report_data,
            signature: [0; 32],
        };
        q.signature = q.compute_signature(qe_key);
        q
    }

    fn compute_signature(&self, qe_key: &[u8; 32]) -> [u8; 32] {
        let mut b = Vec::with_capacity(8 + 32 + 32 + 1 + 64);
        b.extend_from_slice(&self.platform_id.to_be_bytes());
        b.extend_from_slice(&self.mrenclave);
        b.extend_from_slice(&self.mrsigner);
        b.push(u8::from(self.debug));
        b.extend_from_slice(&self.report_data);
        hmac_sha256(qe_key, &b)
    }
}

/// Expected identity for quote appraisal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuotePolicy {
    /// Required MRENCLAVE, if pinned.
    pub mrenclave: Option<[u8; 32]>,
    /// Required MRSIGNER, if pinned.
    pub mrsigner: Option<[u8; 32]>,
    /// Whether debug-mode enclaves are acceptable.
    pub allow_debug: bool,
}

impl QuotePolicy {
    /// A production policy pinning an exact measurement.
    #[must_use]
    pub fn exact(mrenclave: [u8; 32]) -> Self {
        QuotePolicy {
            mrenclave: Some(mrenclave),
            mrsigner: None,
            allow_debug: false,
        }
    }

    /// A vendor policy pinning the signer only (allows upgrades).
    #[must_use]
    pub fn signer(mrsigner: [u8; 32]) -> Self {
        QuotePolicy {
            mrenclave: None,
            mrsigner: Some(mrsigner),
            allow_debug: false,
        }
    }
}

/// The remote verification authority (IAS/DCAP stand-in): knows each
/// registered platform's quoting key.
#[derive(Clone, Debug, Default)]
pub struct AttestationService {
    platforms: HashMap<u64, [u8; 32]>,
}

impl AttestationService {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a platform (models Intel provisioning).
    pub fn register_platform(&mut self, platform: &SgxPlatform) {
        self.platforms.insert(platform.id(), platform.qe_key());
    }

    /// Verifies a quote's signature and appraises it against `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::AttestationFailed`] for unknown platforms, bad
    /// signatures, or policy violations (wrong measurement/signer, debug
    /// enclave under a production policy).
    pub fn verify(&self, quote: &Quote, policy: &QuotePolicy) -> Result<(), HmeeError> {
        let qe_key = self
            .platforms
            .get(&quote.platform_id)
            .ok_or_else(|| HmeeError::AttestationFailed("unknown platform".into()))?;
        if !shield5g_crypto::ct_eq(&quote.compute_signature(qe_key), &quote.signature) {
            return Err(HmeeError::AttestationFailed(
                "quote signature mismatch".into(),
            ));
        }
        if let Some(required) = &policy.mrenclave {
            if required != &quote.mrenclave {
                return Err(HmeeError::AttestationFailed(
                    "MRENCLAVE not in policy".into(),
                ));
            }
        }
        if let Some(required) = &policy.mrsigner {
            if required != &quote.mrsigner {
                return Err(HmeeError::AttestationFailed(
                    "MRSIGNER not in policy".into(),
                ));
            }
        }
        if quote.debug && !policy.allow_debug {
            return Err(HmeeError::AttestationFailed(
                "debug enclave rejected by policy".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;
    use shield5g_sim::Env;

    fn setup() -> (Env, SgxPlatform, Enclave) {
        let mut env = Env::new(21);
        let platform = SgxPlatform::new(&mut env);
        let enclave = EnclaveBuilder::new("paka")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        (env, platform, enclave)
    }

    #[test]
    fn local_report_verifies_on_same_platform() {
        let (mut env, platform, enclave) = setup();
        let verifier = EnclaveBuilder::new("peer")
            .heap_bytes(4096)
            .build(&mut env, &platform)
            .unwrap();
        let report = Report::create(&enclave, [7; 64]);
        report.verify(verifier.report_key()).unwrap();
    }

    #[test]
    fn local_report_fails_cross_platform() {
        let (mut env, _platform, enclave) = setup();
        let other_platform = SgxPlatform::new(&mut env);
        let other = EnclaveBuilder::new("peer")
            .heap_bytes(4096)
            .build(&mut env, &other_platform)
            .unwrap();
        let report = Report::create(&enclave, [7; 64]);
        assert!(report.verify(other.report_key()).is_err());
    }

    #[test]
    fn tampered_report_rejected() {
        let (_env, platform, enclave) = setup();
        let mut report = Report::create(&enclave, [7; 64]);
        report.report_data[0] ^= 1;
        assert!(report.verify(&platform.report_key()).is_err());
    }

    #[test]
    fn quote_round_trip() {
        let (_env, platform, enclave) = setup();
        let report = Report::create(&enclave, [9; 64]);
        let quote = platform.quote(&report).unwrap();
        let mut svc = AttestationService::new();
        svc.register_platform(&platform);
        svc.verify(&quote, &QuotePolicy::exact(*enclave.mrenclave()))
            .unwrap();
        svc.verify(&quote, &QuotePolicy::signer(*enclave.mrsigner()))
            .unwrap();
    }

    #[test]
    fn quote_from_unregistered_platform_rejected() {
        let (_env, platform, enclave) = setup();
        let quote = platform.quote(&Report::create(&enclave, [0; 64])).unwrap();
        let svc = AttestationService::new();
        assert!(svc
            .verify(&quote, &QuotePolicy::exact(*enclave.mrenclave()))
            .is_err());
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (_env, platform, enclave) = setup();
        let quote = platform.quote(&Report::create(&enclave, [0; 64])).unwrap();
        let mut svc = AttestationService::new();
        svc.register_platform(&platform);
        assert!(svc.verify(&quote, &QuotePolicy::exact([0xAA; 32])).is_err());
        assert!(svc
            .verify(&quote, &QuotePolicy::signer([0xBB; 32]))
            .is_err());
    }

    #[test]
    fn debug_enclave_rejected_by_production_policy() {
        let mut env = Env::new(23);
        let platform = SgxPlatform::new(&mut env);
        let enclave = EnclaveBuilder::new("dbg")
            .heap_bytes(4096)
            .debug(true)
            .build(&mut env, &platform)
            .unwrap();
        let quote = platform.quote(&Report::create(&enclave, [0; 64])).unwrap();
        let mut svc = AttestationService::new();
        svc.register_platform(&platform);
        let mut policy = QuotePolicy::exact(*enclave.mrenclave());
        assert!(svc.verify(&quote, &policy).is_err());
        policy.allow_debug = true;
        svc.verify(&quote, &policy).unwrap();
    }

    #[test]
    fn quoting_requires_valid_report() {
        let (_env, platform, enclave) = setup();
        let mut report = Report::create(&enclave, [0; 64]);
        report.mrenclave[0] ^= 1;
        assert!(platform.quote(&report).is_err());
    }

    #[test]
    fn forged_quote_signature_rejected() {
        let (_env, platform, enclave) = setup();
        let mut quote = platform.quote(&Report::create(&enclave, [0; 64])).unwrap();
        quote.mrenclave[0] ^= 1; // attacker edits the measurement
        let mut svc = AttestationService::new();
        svc.register_platform(&platform);
        assert!(svc
            .verify(&quote, &QuotePolicy::exact(quote.mrenclave))
            .is_err());
    }
}
