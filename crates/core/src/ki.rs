//! The §VI Key-Issue analysis (Table V).
//!
//! 3GPP TR 33.848 lists Key Issues arising from virtualisation; the paper
//! marks four as HMEE-applicable per 3GPP (KI 6, 7, 15, 25) and argues
//! HMEE fully or partially mitigates nine more. This module encodes that
//! matrix *and substantiates it*: [`demonstrate`] runs the §III attacker
//! against a deployed slice and checks that each demonstrable claim
//! actually holds in the simulation (plaintext harvest succeeds against
//! containers, fails against enclaves; tampering is detected; sealed
//! image secrets stay sealed; attestation distinguishes hosts).

use crate::paka::PakaKind;
use crate::slice::{AkaDeployment, Slice, Subscriber};
use shield5g_hmee::attest::{AttestationService, QuotePolicy, Report};
use shield5g_infra::attacker::Attacker;
use shield5g_sim::Env;

/// How far HMEE goes on a Key Issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Fully mitigated by HMEE properties (Table V "+").
    Full,
    /// Partially mitigated (Table V "half moon").
    Partial,
}

/// One row of Table V.
#[derive(Clone, Debug)]
pub struct KeyIssue {
    /// TR 33.848 Key Issue number.
    pub number: u8,
    /// Short description (Table V wording).
    pub description: &'static str,
    /// Whether 3GPP itself lists HMEE as a solution (Table V "●").
    pub hmee_flagged_by_3gpp: bool,
    /// The paper's assessed resolution.
    pub resolution: Resolution,
    /// Which SGX attribute carries the mitigation.
    pub mechanism: &'static str,
}

/// The full Table V matrix.
#[must_use]
pub fn table5() -> Vec<KeyIssue> {
    vec![
        KeyIssue {
            number: 2,
            description: "Confidentiality of sensitive data",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Full,
            mechanism: "EPC encryption of data in use",
        },
        KeyIssue {
            number: 5,
            description: "Data location and lifecycle",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "encryption at rest in EPC; cache flush on teardown",
        },
        KeyIssue {
            number: 6,
            description: "Function isolation",
            hmee_flagged_by_3gpp: true,
            resolution: Resolution::Full,
            mechanism: "hardware memory isolation between enclaves",
        },
        KeyIssue {
            number: 7,
            description: "Memory introspection",
            hmee_flagged_by_3gpp: true,
            resolution: Resolution::Full,
            mechanism: "EPC readable only inside the CPU package",
        },
        KeyIssue {
            number: 11,
            description: "Where are my keys and confidential data",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "attested in-enclave key storage",
        },
        KeyIssue {
            number: 12,
            description: "Where is my function",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "host posture verified via attestation before deployment",
        },
        KeyIssue {
            number: 13,
            description: "Attestation at 3GPP function level",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Full,
            mechanism: "hardware-rooted quotes over MRENCLAVE",
        },
        KeyIssue {
            number: 15,
            description: "Encrypted data processing",
            hmee_flagged_by_3gpp: true,
            resolution: Resolution::Full,
            mechanism: "data in use stays encrypted outside the LLC",
        },
        KeyIssue {
            number: 20,
            description: "3rd party hosting environments",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "confidentiality on untrusted hosts, verified by quotes",
        },
        KeyIssue {
            number: 21,
            description: "VM and hypervisor breakout",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "breach impact limited: enclave contents stay protected",
        },
        KeyIssue {
            number: 25,
            description: "Container security",
            hmee_flagged_by_3gpp: true,
            resolution: Resolution::Full,
            mechanism: "hardware isolation for containerised functions (GSC)",
        },
        KeyIssue {
            number: 26,
            description: "Container breakout",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Partial,
            mechanism: "escaped attacker still reads only EPC ciphertext",
        },
        KeyIssue {
            number: 27,
            description: "Secrets in NF container images",
            hmee_flagged_by_3gpp: false,
            resolution: Resolution::Full,
            mechanism: "secret sealing bound to enclave identity",
        },
    ]
}

/// Outcome of one demonstrated claim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Demonstration {
    /// Key Issue the claim supports.
    pub ki: u8,
    /// What was attempted.
    pub claim: &'static str,
    /// Whether the simulation upheld the paper's argument.
    pub upheld: bool,
    /// One-line evidence.
    pub evidence: String,
}

/// Runs the §III attack chain against a deployed slice and reports which
/// Table V claims the simulation substantiates.
///
/// The attacker gains co-residency and host root (the §III premise), then
/// attempts the KI 7/15 memory sweep, the KI 21/26 tamper, and the KI 13
/// attestation forgery. Against an SGX slice every attempt must fail;
/// against container/monolithic slices the sweep must *succeed* — that
/// contrast is Table V's content.
#[must_use]
pub fn demonstrate(env: &mut Env, slice: &mut Slice) -> Vec<Demonstration> {
    let mut out = Vec::new();
    let mut attacker = Attacker::default();
    // The §III premise (≈90% success; retry until placed).
    while attacker.gain_co_residency(env, &slice.host).is_err() {}
    #[expect(clippy::expect_used, reason = "co-resident, on a vulnerable engine")]
    attacker
        .escape_to_host(&slice.host)
        .expect("vulnerable engine");

    // KI 7/15: memory introspection for the subscriber's long-term key
    // (the slice's first subscriber is test subscriber 0).
    let (k, _) = Subscriber::test_credentials(0);
    #[expect(clippy::expect_used, reason = "root can always read host memory")]
    let findings = attacker
        .introspect_memory(&slice.host, &k)
        .expect("root attacker can introspect");
    let leaked = findings.iter().any(|f| f.found_plaintext);
    let shielded = matches!(slice.deployment, AkaDeployment::Sgx(_));
    out.push(Demonstration {
        ki: 7,
        claim: "memory introspection recovers the long-term key K",
        upheld: if shielded { !leaked } else { leaked },
        evidence: format!(
            "{} deployment: K {} in a memory sweep of {} containers",
            slice.deployment.label(),
            if leaked { "recovered" } else { "not recovered" },
            findings.len()
        ),
    });

    // KI 21/26: integrity attack on the AKA state.
    let (tampered, detected) = match slice.module(PakaKind::EUdm) {
        Some(module) => {
            let landed = attacker
                .tamper_container(
                    &slice.host,
                    PakaKind::EUdm.endpoint(),
                    "k:imsi-001010000000001",
                )
                .unwrap_or(false);
            // Detection: the module fails closed on next key use.
            let mut m = module.borrow_mut();
            let req = crate::harness::standard_request(PakaKind::EUdm);
            let (resp, _) = m.serve(env, req);
            (landed, !resp.is_success())
        }
        None => {
            let landed = attacker
                .tamper_container(&slice.host, "udm.oai", "k:imsi-001010000000001")
                .unwrap_or(false);
            (landed, false) // plain memory: corruption goes unnoticed
        }
    };
    out.push(Demonstration {
        ki: 26,
        claim: "post-breakout tampering with AKA state goes undetected",
        upheld: if shielded {
            tampered && detected
        } else {
            tampered && !detected
        },
        evidence: format!(
            "tamper {}, {}",
            if tampered { "landed" } else { "blocked" },
            if detected {
                "detected on next access"
            } else {
                "silent"
            }
        ),
    });

    // KI 13: attestation cannot be forged from outside the platform.
    let platform = slice.host.platform();
    let mut svc = AttestationService::new();
    svc.register_platform(platform);
    if let Some(module) = slice.module(PakaKind::EUdm) {
        let m = module.borrow();
        let c = m.container();
        let c = c.borrow();
        let enclave = c.shielded.as_ref().map(|l| l.enclave());
        if let Some(enclave) = enclave {
            let report = Report::create(enclave, [0x42; 64]);
            #[expect(clippy::expect_used, reason = "quotes a report of its own enclave")]
            let quote = platform.quote(&report).expect("honest quote");
            let mut policy = QuotePolicy::exact(*enclave.mrenclave());
            policy.allow_debug = true; // stats builds are debug-mode
            let genuine_ok = svc.verify(&quote, &policy).is_ok();
            let mut forged = quote.clone();
            forged.mrenclave[0] ^= 1;
            let forgery_rejected = svc
                .verify(
                    &forged,
                    &QuotePolicy {
                        mrenclave: Some(forged.mrenclave),
                        mrsigner: None,
                        allow_debug: true,
                    },
                )
                .is_err();
            out.push(Demonstration {
                ki: 13,
                claim: "function-level attestation verifies and resists forgery",
                upheld: genuine_ok && forgery_rejected,
                evidence: format!(
                    "genuine quote ok={genuine_ok}, forged quote rejected={forgery_rejected}"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paka::SgxConfig;
    use crate::slice::{build_slice, SliceConfig};

    fn run(deployment: AkaDeployment) -> Vec<Demonstration> {
        let mut env = Env::new(37);
        let mut slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 2,
            },
        )
        .unwrap();
        // Exercise the slice so derived keys exist in module memory.
        if slice.module(PakaKind::EUdm).is_some() {
            let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
            let req = crate::harness::standard_request(PakaKind::EUdm);
            client.call(&mut env, &req.path, req.body.clone()).unwrap();
        }
        demonstrate(&mut env, &mut slice)
    }

    #[test]
    fn matrix_matches_table5() {
        let m = table5();
        assert_eq!(m.len(), 13);
        // The four KIs 3GPP itself marks HMEE-applicable.
        let flagged: Vec<u8> = m
            .iter()
            .filter(|k| k.hmee_flagged_by_3gpp)
            .map(|k| k.number)
            .collect();
        assert_eq!(flagged, vec![6, 7, 15, 25]);
        // Full vs partial split per Table V.
        let full: Vec<u8> = m
            .iter()
            .filter(|k| k.resolution == Resolution::Full)
            .map(|k| k.number)
            .collect();
        assert_eq!(full, vec![2, 6, 7, 13, 15, 25, 27]);
        let partial = m.len() - full.len();
        assert_eq!(partial, 6);
    }

    #[test]
    fn sgx_slice_upholds_all_claims() {
        let demos = run(AkaDeployment::Sgx(SgxConfig::default()));
        assert!(demos.len() >= 3);
        for d in &demos {
            assert!(d.upheld, "KI {} claim not upheld: {}", d.ki, d.evidence);
        }
    }

    #[test]
    fn container_slice_shows_the_vulnerabilities() {
        let demos = run(AkaDeployment::Container);
        let ki7 = demos.iter().find(|d| d.ki == 7).unwrap();
        assert!(
            ki7.upheld,
            "container deployment must leak the key: {}",
            ki7.evidence
        );
        let ki26 = demos.iter().find(|d| d.ki == 26).unwrap();
        assert!(
            ki26.upheld,
            "container tampering must be silent: {}",
            ki26.evidence
        );
    }

    #[test]
    fn monolithic_slice_leaks_from_the_vnf() {
        let demos = run(AkaDeployment::Monolithic);
        let ki7 = demos.iter().find(|d| d.ki == 7).unwrap();
        assert!(
            ki7.upheld,
            "monolithic UDM must leak the key: {}",
            ki7.evidence
        );
    }
}
