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
//!
//! A synthetic image's listing is virtual until GSC reads it: the first
//! [`transform`] of any clone of an [`ImageSpec`] spells its file table.

use crate::manifest::{Manifest, TrustedFile};
use crate::LibosError;
use shield5g_crypto::hmac::hmac_sha256;
use shield5g_crypto::sha256::Sha256;
use std::cell::OnceCell;
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
pub(crate) struct ImageFile {
    /// Absolute path inside the image, shared with the [`TrustedFile`]
    /// entry of every manifest [`transform`] builds from the image.
    pub path: Rc<str>,
    /// File size in bytes.
    pub size: u64,
    /// Stable content fingerprint (hash input when real bytes are not
    /// materialised — images are gigabytes, so content is virtual).
    pub fingerprint: u64,
}

/// Size of a synthetic image's entrypoint binary.
const ENTRYPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// The platform-specific files of every synthetic image, which GSC
/// excludes: path, size and fingerprint.
const PLATFORM_FILES: [(&str, u64, u64); 3] = [
    ("/proc/cpuinfo", 4096, 1),
    ("/sys/devices/x", 4096, 2),
    ("/dev/urandom", 0, 3),
];

/// A container image as GSC sees it.
///
/// Its listing is virtual until GSC reads it: the spec records the
/// listing's shape, and the first [`transform`] spells the file table
/// into one cell every clone of the spec shares.
#[derive(Clone, Debug)]
pub struct ImageSpec {
    /// Image name, e.g. `oai/eudm-paka:v1.5.0`.
    name: String,
    /// Entrypoint binary.
    entrypoint: String,
    /// The root FS, shared by every clone.
    listing: Rc<Listing>,
    /// Protocols the workload requires at runtime.
    pub required_protocols: Vec<Protocol>,
    /// Bytes of code/data the workload touches at boot (drives demand
    /// page-faults, hence the boot AEX count beyond preheating).
    pub working_set_bytes: u64,
}

/// A synthetic root FS: `file_count` libraries of `per_file` bytes, the
/// entrypoint and [`PLATFORM_FILES`].
#[derive(Debug)]
struct Listing {
    file_count: u32,
    per_file: u64,
    files: OnceCell<Box<[ImageFile]>>,
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
        ImageSpec {
            name: name.into(),
            entrypoint: entrypoint.into(),
            listing: Rc::new(Listing {
                file_count,
                per_file: total_bytes.checked_div(u64::from(file_count)).unwrap_or(0),
                files: OnceCell::new(),
            }),
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

    /// The image name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total image size in bytes, from the listing's shape: the file
    /// table is not spelt.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        let platform: u64 = PLATFORM_FILES.iter().map(|&(_, size, _)| size).sum();
        u64::from(self.listing.file_count) * self.listing.per_file + ENTRYPOINT_BYTES + platform
    }

    /// Whether `self` and `other` are handles on one file table (clones
    /// of one spec), not merely equal specs. Spells no table.
    #[must_use]
    pub fn shares_files_with(&self, other: &ImageSpec) -> bool {
        Rc::ptr_eq(&self.listing, &other.listing)
    }

    /// All files in the root FS, spelt on the first read of any clone.
    fn files(&self) -> &[ImageFile] {
        self.listing.files.get_or_init(|| {
            #[cfg(test)]
            tests::count_fill();
            let (file_count, per_file) = (self.listing.file_count, self.listing.per_file);
            let mut files = Vec::with_capacity(file_count as usize + 1 + PLATFORM_FILES.len());
            let mut path = String::new();
            for i in 0..file_count {
                path.clear();
                let _ = write!(path, "/usr/lib/{}/lib{i:04}.so", self.name);
                files.push(ImageFile {
                    path: Rc::from(path.as_str()),
                    size: per_file,
                    fingerprint: u64::from(i) ^ 0x5134_7a5e,
                });
            }
            files.push(ImageFile {
                path: Rc::from(self.entrypoint.as_str()),
                size: ENTRYPOINT_BYTES,
                fingerprint: 0xE47,
            });
            files.extend(PLATFORM_FILES.map(|(path, size, fingerprint)| ImageFile {
                path: path.into(),
                size,
                fingerprint,
            }));
            files.into_boxed_slice()
        })
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
    let files = image.files();
    manifest.trusted_files.reserve(files.len());
    for file in files {
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
    use std::cell::Cell;

    thread_local! {
        static FILLS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn count_fill() {
        FILLS.with(|c| c.set(c.get() + 1));
    }

    /// The file tables `f` spells on this thread.
    fn fills<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = FILLS.with(Cell::get);
        let out = f();
        (out, FILLS.with(Cell::get) - before)
    }

    fn image() -> ImageSpec {
        ImageSpec::synthetic("oai/eudm-paka", "/usr/bin/paka", 2_000_000_000, 200)
    }

    /// `ImageSpec::synthetic`'s table as it was spelt when the spec was
    /// made, before the listing went lazy: the oracle for [`ImageSpec::files`].
    fn eager_files(
        name: &str,
        entrypoint: &str,
        total_bytes: u64,
        file_count: u32,
    ) -> Vec<ImageFile> {
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
            path: Rc::from(entrypoint),
            size: 4 * 1024 * 1024,
            fingerprint: 0xE47,
        });
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
        files
    }

    #[test]
    fn the_lazy_table_is_the_eager_one() {
        for file_count in [0, 1, 120, 200, 209, 210] {
            let (name, entry, total) = ("oai/eausf-paka", "/usr/bin/eausf", 1_900_000_007);
            let lazy = ImageSpec::synthetic(name, entry, total, file_count);
            let files = eager_files(name, entry, total, file_count);
            let eager = ImageSpec {
                listing: Rc::new(Listing {
                    file_count,
                    per_file: lazy.listing.per_file,
                    files: OnceCell::from(files.clone().into_boxed_slice()),
                }),
                ..lazy.clone()
            };
            let eager_total: u64 = files.iter().map(|f| f.size).sum();
            assert_eq!(lazy.total_bytes(), eager_total, "{file_count} files");
            assert_eq!(lazy.files(), files.as_slice(), "{file_count} files");
            let a = transform(&lazy, Manifest::paka_default("x"), &[7; 32]).unwrap();
            let b = transform(&eager, Manifest::paka_default("x"), &[7; 32]).unwrap();
            assert_eq!(a.manifest, b.manifest, "{file_count} files");
            assert_eq!(a.signature, b.signature, "{file_count} files");
        }
    }

    #[test]
    fn only_the_first_transform_spells_the_file_table() {
        let ((img, copy, total), made) = fills(|| {
            let img = image();
            let copy = img.clone();
            let total = copy.total_bytes();
            (img, copy, total)
        });
        assert_eq!(
            (made, total),
            (0, 200 * 10_000_000 + 4 * 1024 * 1024 + 8192)
        );
        let (first, filled) = fills(|| transform(&img, Manifest::paka_default("x"), &[7; 32]));
        assert_eq!(filled, 1);
        let (again, refilled) = fills(|| transform(&copy, Manifest::paka_default("x"), &[7; 32]));
        assert_eq!(refilled, 0);
        assert_eq!(first.unwrap().manifest, again.unwrap().manifest);
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
        assert!(img.shares_files_with(&copy));
        assert!(!img.shares_files_with(&image()), "equal, not shared");
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
