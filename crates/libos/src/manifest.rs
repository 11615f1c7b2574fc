//! The Gramine manifest.
//!
//! Paper §IV-C: "The manifest file is a JSON file that specifies
//! configurations of the LibOS and other SGX-related settings and
//! features, dependencies, and trusted files." The paper's P-AKA builds
//! use `sgx.preheat_enclave = true`, `sgx.max_threads = 4`, 512 MB EPC,
//! with `stats` and `debug` enabled for metric collection.

use crate::LibosError;

/// One measured (trusted) file: the LibOS verifies its hash before any
/// read reaches the enclave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustedFile {
    /// Path inside the image.
    pub path: String,
    /// Size in bytes (drives verification time).
    pub size: u64,
    /// Expected SHA-256 of the content.
    pub sha256: [u8; 32],
}

/// The manifest controlling one shielded workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Entrypoint binary path.
    pub entrypoint: String,
    /// `sgx.max_threads`: TCS slots the enclave may use.
    pub max_threads: u32,
    /// `sgx.enclave_size`: heap/EPC reservation in bytes.
    pub enclave_size_bytes: u64,
    /// `sgx.preheat_enclave`: pre-fault all heap pages during init.
    pub preheat_enclave: bool,
    /// `sgx.debug`: debug-mode enclave (required for stats).
    pub debug: bool,
    /// Collect SGX statistics (EENTER/EEXIT/AEX counts).
    pub stats: bool,
    /// Offload OCALLs to untrusted helper threads (`exitless`); the paper
    /// notes it is "insecure for production usage as of now" (§V-B7).
    pub exitless: bool,
    /// Files measured into the enclave identity.
    pub trusted_files: Vec<TrustedFile>,
    /// Paths readable without measurement (config, /etc alike).
    pub allowed_paths: Vec<String>,
}

impl Manifest {
    /// The paper's P-AKA configuration: 4 threads, 512 MB, preheat on,
    /// stats+debug on (§IV-C).
    #[must_use]
    pub fn paka_default(entrypoint: impl Into<String>) -> Self {
        Manifest {
            entrypoint: entrypoint.into(),
            max_threads: 4,
            enclave_size_bytes: 512 * 1024 * 1024,
            preheat_enclave: true,
            debug: true,
            stats: true,
            exitless: false,
            trusted_files: Vec::new(),
            allowed_paths: Vec::new(),
        }
    }

    /// Overrides the TCS count (builder style).
    #[must_use]
    pub fn with_max_threads(mut self, threads: u32) -> Self {
        self.max_threads = threads;
        self
    }

    /// Overrides the enclave size (builder style).
    #[must_use]
    pub fn with_enclave_size(mut self, bytes: u64) -> Self {
        self.enclave_size_bytes = bytes;
        self
    }

    /// Enables/disables preheating (builder style).
    #[must_use]
    pub fn with_preheat(mut self, preheat: bool) -> Self {
        self.preheat_enclave = preheat;
        self
    }

    /// Enables/disables exitless OCALLs (builder style).
    #[must_use]
    pub fn with_exitless(mut self, exitless: bool) -> Self {
        self.exitless = exitless;
        self
    }

    /// Total bytes of trusted files (verification workload at boot).
    #[must_use]
    pub fn trusted_bytes(&self) -> u64 {
        self.trusted_files.iter().map(|f| f.size).sum()
    }

    /// Validates the manifest.
    ///
    /// Gramine needs 3 helper threads (IPC, timers/async events, TLS pipe
    /// handshakes) plus at least one application thread, so fewer than 4
    /// TCS slots makes a server behave inconsistently (paper §V-B2) — we
    /// reject it outright rather than simulate flakiness.
    ///
    /// # Errors
    ///
    /// Returns [`LibosError::ManifestInvalid`] for `max_threads < 4`, a
    /// zero-sized enclave, stats without debug, or an empty entrypoint.
    pub fn validate(&self) -> Result<(), LibosError> {
        if self.entrypoint.is_empty() {
            return Err(LibosError::ManifestInvalid("empty entrypoint".into()));
        }
        if self.max_threads < 4 {
            return Err(LibosError::ManifestInvalid(format!(
                "max_threads = {} but Gramine needs 3 helper threads + 1 app thread",
                self.max_threads
            )));
        }
        if self.enclave_size_bytes < 64 * 1024 * 1024 {
            return Err(LibosError::ManifestInvalid(format!(
                "enclave_size = {} bytes; P-AKA modules need at least 64 MiB",
                self.enclave_size_bytes
            )));
        }
        if self.stats && !self.debug {
            return Err(LibosError::ManifestInvalid(
                "sgx statistics require a debug-mode enclave".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paka_default_matches_paper() {
        let m = Manifest::paka_default("/usr/bin/paka-server");
        assert_eq!(m.max_threads, 4);
        assert_eq!(m.enclave_size_bytes, 512 * 1024 * 1024);
        assert!(m.preheat_enclave);
        assert!(m.stats);
        assert!(m.debug);
        assert!(!m.exitless);
        m.validate().unwrap();
    }

    #[test]
    fn too_few_threads_rejected() {
        let m = Manifest::paka_default("/bin/x").with_max_threads(3);
        assert!(matches!(m.validate(), Err(LibosError::ManifestInvalid(_))));
    }

    #[test]
    fn tiny_enclave_rejected() {
        let m = Manifest::paka_default("/bin/x").with_enclave_size(1024);
        assert!(m.validate().is_err());
    }

    #[test]
    fn stats_require_debug() {
        let mut m = Manifest::paka_default("/bin/x");
        m.debug = false;
        assert!(m.validate().is_err());
        m.stats = false;
        m.validate().unwrap();
    }

    #[test]
    fn empty_entrypoint_rejected() {
        assert!(Manifest::paka_default("").validate().is_err());
    }

    #[test]
    fn trusted_bytes_sums_sizes() {
        let mut m = Manifest::paka_default("/bin/x");
        m.trusted_files.push(TrustedFile {
            path: "/lib/a".into(),
            size: 100,
            sha256: [0; 32],
        });
        m.trusted_files.push(TrustedFile {
            path: "/lib/b".into(),
            size: 250,
            sha256: [1; 32],
        });
        assert_eq!(m.trusted_bytes(), 350);
    }

    #[test]
    fn builder_overrides() {
        let m = Manifest::paka_default("/bin/x")
            .with_max_threads(50)
            .with_enclave_size(8 * 1024 * 1024 * 1024)
            .with_preheat(false)
            .with_exitless(true);
        assert_eq!(m.max_threads, 50);
        assert_eq!(m.enclave_size_bytes, 8 * 1024 * 1024 * 1024);
        assert!(!m.preheat_enclave);
        assert!(m.exitless);
    }
}
