//! The lint's knowledge of the repository: which files are enclave-side
//! or constant-time. The determinism perimeter is not here: it is the
//! root `clippy.toml`.

/// Full lint configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Path suffixes of enclave-side modules (rule EB001): code that the
    /// paper runs inside an SGX enclave, where direct `std::fs`/`net`/
    /// `time` calls would bypass the LibOS shim layer. The `crypto`
    /// crate runs enclave-side too but is not listed: it is `no_std`, so
    /// those paths do not resolve there.
    pub enclave_files: Vec<String>,
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
    /// Public for `tests/lint_tests.rs`.
    #[must_use]
    pub fn repo_default() -> Self {
        Config {
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
            constant_time_files: vec![
                s("crates/crypto/src/x25519.rs"),
                s("crates/crypto/src/x25519/comb.rs"),
                s("crates/crypto/src/poly1305.rs"),
            ],
        }
    }
}
