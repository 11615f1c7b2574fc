//! Gramine Shielded Containers (GSC): transforming a container image into
//! a shielded image.
//!
//! Paper §IV-C: "GSC CLI tool transforms regular Docker images to run
//! inside SGX enclaves using Gramine LibOS … The GSC signer tool is used
//! to sign the image with a user-provided key." And §V-B1: GSC "appends
//! the majority of the root directory files (excluding some
//! platform-specific directories e.g., /boot, /dev, /etc/mtab, /proc,
//! /sys) to the trusted list", which is why enclave load takes close to a
//! minute.

use crate::manifest::{Manifest, TrustedFile};
use crate::LibosError;
use shield5g_crypto::hmac::hmac_sha256;
use shield5g_crypto::sha256::Sha256;
use std::fmt::Write as _;
use std::rc::Rc;

/// Directories GSC excludes from the trusted list (platform-specific).
pub(crate) const EXCLUDED_PREFIXES: &[&str] = &["/boot", "/dev", "/etc/mtab", "/proc", "/sys"];

/// Transport protocols a containerised workload may require.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP — shielded via OCALL-delegated sockets.
    Tcp,
    /// UDP — shielded via OCALL-delegated sockets.
    Udp,
    /// SCTP — **not** supported by the Gramine abstraction layer
    /// (paper §IV-A); images requiring it cannot be shielded.
    Sctp,
}

impl Protocol {
    /// Whether the LibOS can shield this protocol.
    #[must_use]
    pub(crate) fn is_shieldable(self) -> bool {
        !matches!(self, Protocol::Sctp)
    }
}

/// One file in a container image (content optional; size always known).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageFile {
    /// Absolute path inside the image, shared with the [`TrustedFile`]
    /// entry of every manifest [`transform`] builds from the image.
    pub path: Rc<str>,
    /// File size in bytes.
    pub size: u64,
    /// Stable content fingerprint (hash input when real bytes are not
    /// materialised — images are gigabytes, so content is virtual).
    pub fingerprint: u64,
}

/// A container image as GSC sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImageSpec {
    /// Image name, e.g. `oai/eudm-paka:v1.5.0`.
    pub name: String,
    /// Entrypoint binary.
    pub entrypoint: String,
    /// All files in the image root FS. Never mutated, so every clone of
    /// an image shares this one table.
    pub files: Rc<[ImageFile]>,
    /// Protocols the workload requires at runtime.
    pub required_protocols: Vec<Protocol>,
    /// Bytes of code/data the workload touches at boot (drives demand
    /// page-faults, hence the boot AEX count beyond preheating).
    pub working_set_bytes: u64,
}

impl ImageSpec {
    /// A synthetic root FS of `total_bytes` spread over `file_count` files
    /// plus the named entrypoint — convenient for building realistic GSC
    /// images without materialising gigabytes.
    #[must_use]
    pub fn synthetic(
        name: impl Into<String>,
        entrypoint: impl Into<String>,
        total_bytes: u64,
        file_count: u32,
    ) -> Self {
        let name = name.into();
        let entrypoint = entrypoint.into();
        let mut files = Vec::with_capacity(file_count as usize + 4);
        let per_file = total_bytes / u64::from(file_count.max(1));
        let mut path = String::new();
        for i in 0..file_count {
            path.clear();
            let _ = write!(path, "/usr/lib/{name}/lib{i:04}.so");
            files.push(ImageFile {
                path: Rc::from(path.as_str()),
                size: per_file,
                fingerprint: u64::from(i) ^ 0x5134_7a5e,
            });
        }
        files.push(ImageFile {
            path: Rc::from(entrypoint.as_str()),
            size: 4 * 1024 * 1024,
            fingerprint: 0xE47,
        });
        // Platform-specific files that GSC will exclude.
        files.push(ImageFile {
            path: "/proc/cpuinfo".into(),
            size: 4096,
            fingerprint: 1,
        });
        files.push(ImageFile {
            path: "/sys/devices/x".into(),
            size: 4096,
            fingerprint: 2,
        });
        files.push(ImageFile {
            path: "/dev/urandom".into(),
            size: 0,
            fingerprint: 3,
        });
        ImageSpec {
            name,
            entrypoint,
            files: files.into(),
            required_protocols: vec![Protocol::Tcp],
            working_set_bytes: 34 * 1024 * 1024,
        }
    }

    /// Overrides the boot-time working set (builder style).
    #[must_use]
    pub fn with_working_set(mut self, bytes: u64) -> Self {
        self.working_set_bytes = bytes;
        self
    }

    /// Total image size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }
}

/// A GSC-transformed, signed image ready to boot under the LibOS.
#[derive(Clone, Debug, PartialEq)]
pub struct ShieldedImage {
    /// The source image name.
    pub image_name: String,
    /// The generated manifest (trusted files appended).
    pub manifest: Manifest,
    /// MRSIGNER source: the signer's public identity.
    pub signer: [u8; 32],
    /// Signature over the manifest (user-provided key, §IV-C).
    pub signature: [u8; 32],
    /// Boot-time working set carried from the source image.
    pub working_set_bytes: u64,
}

/// The `gsc build` + `gsc sign-image` pipeline.
///
/// Appends every non-excluded file to the manifest's trusted list, merges
/// the caller's SGX settings, and signs the result.
///
/// # Errors
///
/// Returns [`LibosError::UnsupportedProtocol`] when the image requires a
/// protocol Gramine cannot shield (the reason the paper extracts AKA
/// functions *without* SCTP dependencies), and propagates manifest
/// validation failures.
pub fn transform(
    image: &ImageSpec,
    mut manifest: Manifest,
    signing_key: &[u8; 32],
) -> Result<ShieldedImage, LibosError> {
    for proto in &image.required_protocols {
        if !proto.is_shieldable() {
            return Err(LibosError::UnsupportedProtocol {
                protocol: format!("{proto:?}").to_uppercase(),
                image: image.name.clone(),
            });
        }
    }
    manifest.entrypoint = image.entrypoint.clone();
    manifest.trusted_files.reserve(image.files.len());
    for file in image.files.iter() {
        if EXCLUDED_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        // Hash of the virtual content: path + fingerprint + size.
        let mut h = Sha256::new();
        h.update(file.path.as_bytes());
        h.update(&file.fingerprint.to_be_bytes());
        h.update(&file.size.to_be_bytes());
        manifest.trusted_files.push(TrustedFile {
            path: file.path.clone(),
            size: file.size,
            sha256: h.finalize(),
        });
    }
    manifest.validate()?;
    let signer = Sha256::digest(signing_key);
    let signature = sign_manifest(signing_key, &manifest);
    Ok(ShieldedImage {
        image_name: image.name.clone(),
        manifest,
        signer,
        signature,
        working_set_bytes: image.working_set_bytes,
    })
}

/// Verifies a shielded image's signature against the signer key.
///
/// # Errors
///
/// Returns [`LibosError::SignatureInvalid`] on mismatch (tampered manifest
/// or wrong key).
pub fn verify(image: &ShieldedImage, signing_key: &[u8; 32]) -> Result<(), LibosError> {
    let expected = sign_manifest(signing_key, &image.manifest);
    if shield5g_crypto::ct_eq(&expected, &image.signature) {
        Ok(())
    } else {
        Err(LibosError::SignatureInvalid(format!(
            "image {}",
            image.image_name
        )))
    }
}

fn sign_manifest(key: &[u8; 32], manifest: &Manifest) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(manifest.entrypoint.as_bytes());
    h.update(&manifest.max_threads.to_be_bytes());
    h.update(&manifest.enclave_size_bytes.to_be_bytes());
    h.update(&[
        u8::from(manifest.preheat_enclave),
        u8::from(manifest.debug),
        u8::from(manifest.stats),
        u8::from(manifest.exitless),
    ]);
    for f in &manifest.trusted_files {
        h.update(f.path.as_bytes());
        h.update(&f.sha256);
    }
    hmac_sha256(key, &h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> ImageSpec {
        ImageSpec::synthetic("oai/eudm-paka", "/usr/bin/paka", 2_000_000_000, 200)
    }

    #[test]
    fn transform_appends_trusted_files_excluding_platform_dirs() {
        let shielded = transform(&image(), Manifest::paka_default("x"), &[7; 32]).unwrap();
        let paths: Vec<&str> = shielded
            .manifest
            .trusted_files
            .iter()
            .map(|f| &*f.path)
            .collect();
        assert!(paths.iter().any(|p| p.starts_with("/usr/lib/")));
        assert!(!paths.iter().any(|p| p.starts_with("/proc")));
        assert!(!paths.iter().any(|p| p.starts_with("/sys")));
        assert!(!paths.iter().any(|p| p.starts_with("/dev")));
        // 200 libs + entrypoint.
        assert_eq!(shielded.manifest.trusted_files.len(), 201);
        assert_eq!(shielded.manifest.entrypoint, "/usr/bin/paka");
    }

    #[test]
    fn a_clone_shares_its_file_table_and_transforms_alike() {
        let img = image();
        let copy = img.clone();
        assert!(Rc::ptr_eq(&img.files, &copy.files));
        let a = transform(&img, Manifest::paka_default("x"), &[7; 32]).unwrap();
        let b = transform(&copy, Manifest::paka_default("x"), &[7; 32]).unwrap();
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn sctp_workload_rejected() {
        // §IV-A: "some specific protocol libraries (e.g., SCTP) are not
        // supported by the Gramine abstraction layer" — the reason the
        // AMF's AKA piece is extracted without its NGAP/SCTP stack.
        let mut img = image();
        img.required_protocols.push(Protocol::Sctp);
        let err = transform(&img, Manifest::paka_default("x"), &[7; 32]).unwrap_err();
        assert!(matches!(err, LibosError::UnsupportedProtocol { .. }));
        assert!(err.to_string().contains("SCTP"));
    }

    #[test]
    fn signature_round_trip() {
        let shielded = transform(&image(), Manifest::paka_default("x"), &[7; 32]).unwrap();
        verify(&shielded, &[7; 32]).unwrap();
        assert!(verify(&shielded, &[8; 32]).is_err());
    }

    #[test]
    fn tampered_manifest_fails_verification() {
        let mut shielded = transform(&image(), Manifest::paka_default("x"), &[7; 32]).unwrap();
        shielded.manifest.trusted_files[0].sha256[0] ^= 1;
        assert!(verify(&shielded, &[7; 32]).is_err());
    }

    #[test]
    fn synthetic_image_total_bytes() {
        let img = image();
        // 200 × 10 MB + entrypoint 4 MiB + platform stubs.
        assert!(img.total_bytes() > 2_000_000_000);
        assert!(img.total_bytes() < 2_010_000_000);
    }

    #[test]
    fn protocol_shieldability() {
        assert!(Protocol::Tcp.is_shieldable());
        assert!(Protocol::Udp.is_shieldable());
        assert!(!Protocol::Sctp.is_shieldable());
    }

    #[test]
    fn invalid_manifest_propagates() {
        let m = Manifest::paka_default("x").with_max_threads(1);
        assert!(transform(&image(), m, &[7; 32]).is_err());
    }

    #[test]
    fn distinct_content_distinct_hashes() {
        let shielded = transform(&image(), Manifest::paka_default("x"), &[7; 32]).unwrap();
        let h0 = shielded.manifest.trusted_files[0].sha256;
        let h1 = shielded.manifest.trusted_files[1].sha256;
        assert_ne!(h0, h1);
    }
}
