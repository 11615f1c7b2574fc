//! The lint's knowledge of the repository: which types carry secrets,
//! which files are enclave-side or constant-time, and which crates are
//! NF service code. The determinism perimeter is not here: it is the
//! root `clippy.toml`.

/// A registered secret-bearing type.
#[derive(Clone, Debug)]
pub struct SecretType {
    /// Path suffix of the file declaring the type (e.g. `crypto/src/keys.rs`).
    pub path_suffix: String,
    /// The type name as written at its `struct` declaration.
    pub name: String,
    /// Whether the type must zeroize its key material on drop (via
    /// `SecretBytes`/`Secret` fields, fields of another registered type
    /// that must zeroize, or an explicit `Drop` impl). Types
    /// that must stay `Copy` (field-element arithmetic) opt out and are
    /// only held to the redacted-`Debug` rule.
    pub require_zeroize: bool,
}

/// Full lint configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Registered secret-bearing types (secret-hygiene rules SH001-003).
    pub secret_types: Vec<SecretType>,
    /// Path suffixes of enclave-side modules (rule EB001): code that the
    /// paper runs inside an SGX enclave, where direct `std::fs`/`net`/
    /// `time` calls would bypass the LibOS shim layer. The `crypto`
    /// crate runs enclave-side too but is not listed: it is `no_std`, so
    /// those paths do not resolve there.
    pub enclave_files: Vec<String>,
    /// Path prefixes of NF service crates (rule MW001): code here must
    /// not construct retriers, consult fault injectors, or manage
    /// admission queues — those concerns live in the middleware stack
    /// (`shield5g-mw`) composed at slice/pool construction.
    pub mw_boundary_dirs: Vec<String>,
    /// Path suffixes of files that must be straight-line outside
    /// `cfg(test)` (rule CT001): arithmetic on secret-derived values,
    /// where a branch would make timing depend on the key.
    pub constant_time_files: Vec<String>,
}

fn s(v: &str) -> String {
    v.to_owned()
}

impl Config {
    /// The registry for this repository.
    #[must_use]
    pub fn repo_default() -> Self {
        let secret = |suffix: &str, name: &str, require_zeroize: bool| SecretType {
            path_suffix: s(suffix),
            name: s(name),
            require_zeroize,
        };
        Config {
            secret_types: vec![
                // crypto: the key hierarchy itself.
                secret("crypto/src/keys.rs", "HeAv", true),
                secret("crypto/src/keys.rs", "UeChallengeResult", true),
                secret("crypto/src/milenage.rs", "Milenage", true),
                secret("crypto/src/milenage.rs", "F2345Output", true),
                secret("crypto/src/hmac.rs", "HmacKey", true),
                secret("crypto/src/hmac.rs", "HmacSha256", true),
                secret("crypto/src/ecies.rs", "HomeNetworkKeyPair", true),
                secret("crypto/src/ecies.rs", "KeyData", true),
                secret("crypto/src/x25519/comb.rs", "Digits", true),
                secret("crypto/src/aes.rs", "Aes128", true),
                secret("crypto/src/poly1305.rs", "Poly1305", true),
                // Redact-only: Fe and the comb's points must stay Copy
                // for the x25519 arithmetic; Sha256's chaining state may
                // be HMAC-keyed but the struct is moved-out by `finalize`.
                secret("crypto/src/x25519.rs", "Fe", false),
                secret("crypto/src/x25519/comb.rs", "Point", false),
                secret("crypto/src/x25519/comb.rs", "Niels", false),
                secret("crypto/src/sha256.rs", "Sha256", false),
                // nf: key material crossing the SBI / module wire.
                secret("nf/src/backend.rs", "UdmAkaRequest", true),
                secret("nf/src/backend.rs", "UdmAkaBatchRequest", true),
                secret("nf/src/backend.rs", "AusfAkaRequest", true),
                secret("nf/src/backend.rs", "AusfAkaResponse", true),
                secret("nf/src/backend.rs", "AmfAkaRequest", true),
                secret("nf/src/backend.rs", "UdmAkaResyncRequest", true),
                secret("nf/src/backend.rs", "LocalAka", true),
                secret("nf/src/ausf.rs", "AuthContext", true),
                secret("nf/src/sbi.rs", "ConfirmResponse", true),
                secret("nf/src/sbi.rs", "UdrAuthDataResponse", true),
                secret("nf/src/nas_security.rs", "NasSecurityContext", true),
                secret("nf/src/udr.rs", "SubscriberEntry", true),
            ],
            enclave_files: vec![
                // The P-AKA module dispatch runs inside the enclave.
                s("core/src/paka.rs"),
                // The HMEE model: enclave-side runtime, sealing, EPC and
                // attestation logic.
                s("hmee/src/enclave.rs"),
                s("hmee/src/seal.rs"),
                s("hmee/src/attest.rs"),
                s("hmee/src/epc.rs"),
            ],
            mw_boundary_dirs: vec![s("crates/nf/src")],
            constant_time_files: vec![
                s("crates/crypto/src/x25519.rs"),
                s("crates/crypto/src/x25519/comb.rs"),
                s("crates/crypto/src/poly1305.rs"),
            ],
        }
    }
}
