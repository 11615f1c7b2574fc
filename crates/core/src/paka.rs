//! The P-AKA modules: eUDM-AKA, eAUSF-AKA and eAMF-AKA.
//!
//! Each module is "an HTTPs server … The modules expose REST API
//! endpoints where each AKA function is mapped to an endpoint handler"
//! (paper §IV-A). The server loop is modelled syscall-by-syscall: a fresh
//! TLS connection per request costs 91 syscalls (matching the paper's
//! §V-B5 finding of "around 90" EENTER/EEXIT pairs per UE registration),
//! of which only a handful fall between request receipt and response
//! dispatch — which is why SGX's total-latency overhead (L_T) is much
//! smaller than its response-time overhead (R_S).
//!
//! Deployed in a container, syscalls are native and secrets sit in plain
//! process memory; deployed under GSC (**P-AKA** proper), every syscall is
//! an OCALL and secrets live in the encrypted enclave vault.

use crate::CoreError;
use shield5g_crypto::ident::Supi;
use shield5g_crypto::secret::{KeySink, SecretBytes, Zeroize};
use shield5g_hmee::counters::SgxCounters;
use shield5g_infra::host::{ContainerHandle, Host};
use shield5g_infra::image::{ContainerImage, Registry};
use shield5g_libos::gsc::ImageSpec;
use shield5g_libos::libos::BootReport;
use shield5g_libos::manifest::Manifest;
use shield5g_libos::syscalls::{NativeSyscalls, Syscall, SyscallInterface};
use shield5g_nf::backend::{
    error_reply, AkaOp, DeriveKamf, DeriveSe, GenerateAv, GenerateAvBatch, Resync,
};
use shield5g_nf::wire::Wire;
use shield5g_nf::NfError;
use shield5g_sim::codec::Body;
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::tls::TlsIdentity;
use shield5g_sim::Env;
use std::borrow::Cow;
use std::cell::RefCell;
use std::iter::repeat_n;

/// Non-crypto handler work per request outside the AKA function itself
/// (HTTP parsing, routing, response assembly) — identical code on both
/// deployments.
const PARSE_NANOS: u64 = 17_000;
/// Server-side TLS handshake cryptography (X25519 + KDF + transcript MACs).
const TLS_HANDSHAKE_CRYPTO_NANOS: u64 = 72_000;
/// Per-direction TLS record protection within the request window.
const TLS_RECORD_NANOS: u64 = 4_000;
/// Container-mode first-request lazy initialisation (allocator warmup,
/// OpenSSL context creation).
const CONTAINER_COLD_INIT_NANOS: u64 = 2_000_000;

/// The three extracted modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PakaKind {
    /// eUDM-AKA: HE AV generation (f1, f2345, K_AUSF, AUTN).
    EUdm,
    /// eAUSF-AKA: HXRES* and K_SEAF derivation.
    EAusf,
    /// eAMF-AKA: K_AMF derivation.
    EAmf,
}

impl PakaKind {
    /// Human-readable module name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PakaKind::EUdm => "eUDM",
            PakaKind::EAusf => "eAUSF",
            PakaKind::EAmf => "eAMF",
        }
    }

    /// All three modules in paper order.
    #[must_use]
    pub fn all() -> [PakaKind; 3] {
        [PakaKind::EUdm, PakaKind::EAusf, PakaKind::EAmf]
    }

    /// Container image name.
    #[must_use]
    pub(crate) fn image_name(self) -> &'static str {
        match self {
            PakaKind::EUdm => "oai/eudm-paka:v1.5.0",
            PakaKind::EAusf => "oai/eausf-paka:v1.5.0",
            PakaKind::EAmf => "oai/eamf-paka:v1.5.0",
        }
    }

    /// Bus/bridge endpoint name.
    #[must_use]
    pub fn endpoint(self) -> &'static str {
        match self {
            PakaKind::EUdm => "eudm-paka.oai",
            PakaKind::EAusf => "eausf-paka.oai",
            PakaKind::EAmf => "eamf-paka.oai",
        }
    }

    /// Native execution time of the module's AKA function (container-mode
    /// L_F, from `shield5g-nf`'s calibrated constants).
    #[must_use]
    pub(crate) fn func_nanos(self) -> u64 {
        match self {
            PakaKind::EUdm => shield5g_nf::backend::UDM_FUNC_NANOS,
            PakaKind::EAusf => shield5g_nf::backend::AUSF_FUNC_NANOS,
            PakaKind::EAmf => shield5g_nf::backend::AMF_FUNC_NANOS,
        }
    }

    /// Additive in-enclave execution overhead beyond the MEE factor
    /// (LLC/TLB pressure on the module's access pattern). Calibrated so
    /// the L_F ratios land in the paper's 1.2/1.3/1.5 bands (Table II).
    fn sgx_func_extra_nanos(self) -> u64 {
        match self {
            PakaKind::EUdm => 8_000,
            PakaKind::EAusf => 10_000,
            PakaKind::EAmf => 14_000,
        }
    }

    /// First-enclave-request lazy-initialisation compute (dynamic linking,
    /// OpenSSL/NSS init under the LibOS), the cause of R_I ≈ 20 × R_S.
    fn cold_init_nanos(self) -> u64 {
        match self {
            PakaKind::EUdm => 20_600_000,
            PakaKind::EAusf => 20_900_000,
            PakaKind::EAmf => 21_300_000,
        }
    }

    /// Extra OCALLs on the first enclave request (dynamic loading of
    /// NSS/TLS dependencies, §V-B4: "the initial request … invokes
    /// several OCALLs and ECALLs to load drivers and other network stack
    /// dependencies").
    fn cold_extra_ocalls(self) -> u32 {
        match self {
            PakaKind::EUdm => 20,
            PakaKind::EAusf => 21,
            PakaKind::EAmf => 22,
        }
    }

    /// Cold code pages faulted on the first request.
    fn cold_pages(self) -> u64 {
        match self {
            PakaKind::EUdm => 288,
            PakaKind::EAusf => 314,
            PakaKind::EAmf => 348,
        }
    }

    /// (total image bytes, shared-library file count, boot working set):
    /// eUDM carries the largest root FS (highest enclave load time,
    /// Fig. 7) while eAUSF/eAMF have slightly more files (their higher
    /// boot OCALL counts in Table III).
    fn image_params(self) -> (u64, u32, u64) {
        match self {
            PakaKind::EUdm => (2_130_000_000, 200, 9_000 * 4096),
            PakaKind::EAusf => (2_080_000_000, 210, 9_100 * 4096),
            PakaKind::EAmf => (2_050_000_000, 209, 9_200 * 4096),
        }
    }
}

/// SGX deployment options (the paper's manifest knobs, §IV-C / §V-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SgxConfig {
    /// `sgx.max_threads`.
    pub max_threads: u32,
    /// Enclave (EPC reservation) size in bytes.
    pub enclave_size_bytes: u64,
    /// `sgx.preheat_enclave`.
    pub preheat: bool,
    /// Gramine exitless OCALLs (§V-B7 ablation).
    pub exitless: bool,
}

impl Default for SgxConfig {
    /// The paper's chosen configuration: 4 threads, 512 MB, preheat on.
    fn default() -> Self {
        SgxConfig {
            max_threads: 4,
            enclave_size_bytes: 512 * 1024 * 1024,
            preheat: true,
            exitless: false,
        }
    }
}

/// Per-request latency metrics as the module reports them (§V-A2
/// experiment 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeMetrics {
    /// L_F: execution time of the AKA function.
    pub functional: SimDuration,
    /// L_T: request receipt → response dispatched (L_F + network I/O).
    pub total: SimDuration,
    /// EPC pages paged in/out during the request (8 GB EPC pathology).
    pub paged: u64,
}

/// A deployed AKA module (container or SGX).
pub struct PakaModule {
    kind: PakaKind,
    shielded: bool,
    container: ContainerHandle,
    native_sys: NativeSyscalls,
    max_threads: u32,
    warm: bool,
    requests_served: u64,
    boot_report: Option<BootReport>,
    userspace_net: bool,
    tls_identity: TlsIdentity,
    crash_recoveries: u64,
    /// Where a key slot name `k:{supi}` is spelled ([`key_slot`]), so
    /// neither serving nor provisioning formats one per subscriber.
    key_slot: String,
}

impl std::fmt::Debug for PakaModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PakaModule")
            .field("kind", &self.kind.name())
            .field("shielded", &self.shielded)
            .field("requests_served", &self.requests_served)
            .finish()
    }
}

/// A module's working memory, where a subscriber's K is provisioned and a
/// row leaves the key it derived: the EPC vault when shielded, the
/// container's plain memory otherwise. One of the two places a
/// `SecretBytes` may copy its bytes to (see `shield5g_crypto::secret`);
/// only [`write_key`] builds one.
struct Scratch<'a> {
    container: &'a ContainerHandle,
    env: &'a mut Env,
    slot: &'a str,
}

/// Leaves `key` in `container`'s working memory under `slot`.
pub(crate) fn write_key<const N: usize>(
    container: &ContainerHandle,
    env: &mut Env,
    slot: &str,
    key: &SecretBytes<N>,
) {
    key.write_to(&mut Scratch {
        container,
        env,
        slot,
    });
}

impl KeySink for Scratch<'_> {
    fn put_key(&mut self, key: &[u8]) {
        let mut c = self.container.borrow_mut();
        if let Some(libos) = c.shielded.as_mut() {
            libos.enclave_mut().vault_write(self.env, self.slot, key);
        } else {
            c.plain_memory.write(self.slot, key);
        }
    }
}

/// Spells `k:{supi}`, the slot of subscriber `supi`'s K, into `buf`.
fn key_slot<'a>(buf: &'a mut String, supi: &str) -> &'a str {
    buf.clear();
    buf.push_str("k:");
    buf.push_str(supi);
    buf
}

/// The OAI VNFs whose images a slice's registry holds beside the modules'.
const VNFS: [&str; 7] = ["udm", "ausf", "amf", "udr", "smf", "upf", "nrf"];

thread_local! {
    /// Every synthetic image, built the first time it is asked for: the
    /// modules' at `kind as usize`, then the VNFs' in `VNFS` order. The
    /// worlds of a thread deploy the same ten images, so they share one
    /// file table per image instead of each spelling its paths afresh.
    /// Only an image that GSC transforms spells its table: the VNFs' and
    /// a container deployment's modules' stay virtual.
    static IMAGES: RefCell<[Option<ContainerImage>; 10]> = const { RefCell::new([const { None }; 10]) };
}

/// A copy of the thread's image at `at` in `IMAGES`, sharing its file
/// table.
fn cached_image(at: usize) -> ContainerImage {
    IMAGES.with_borrow_mut(|images| images[at].get_or_insert_with(|| build_image(at)).clone())
}

/// The module's container image for the registry: a copy of the kind's
/// one image, sharing its file table.
#[must_use]
pub fn paka_image(kind: PakaKind) -> ContainerImage {
    cached_image(kind as usize)
}

/// Builds the image at `at` in `IMAGES`: a module's, or a VNF's for the
/// host's container view (the attack surface of the monolithic
/// deployment).
fn build_image(at: usize) -> ContainerImage {
    let Some(&kind) = PakaKind::all().get(at) else {
        let name = VNFS[at - PakaKind::all().len()];
        return ContainerImage::new(ImageSpec::synthetic(
            format!("oai/{name}:v1.5.0"),
            format!("/usr/bin/oai-{name}"),
            900_000_000,
            120,
        ));
    };
    let (bytes, files, working_set) = kind.image_params();
    let spec = ImageSpec::synthetic(
        kind.image_name(),
        format!("/usr/bin/{}-aka-server", kind.name().to_lowercase()),
        bytes,
        files,
    )
    .with_working_set(working_set);
    ContainerImage::new(spec).with_env("PAKA_MODULE", kind.name())
}

/// Pushes the ten synthetic images into a registry.
pub(crate) fn populate_registry(registry: &mut Registry) {
    for at in 0..PakaKind::all().len() + VNFS.len() {
        registry.push(cached_image(at));
    }
}

impl PakaModule {
    /// Deploys the module as an unprotected container (the paper's
    /// baseline for every overhead figure).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Infra`] when the image is missing or the host
    /// refuses the container.
    pub(crate) fn deploy_container(
        env: &mut Env,
        host: &mut Host,
        registry: &Registry,
        kind: PakaKind,
    ) -> Result<Self, CoreError> {
        let container = host.run_plain(env, registry, kind.image_name(), kind.endpoint())?;
        let cost = host.platform().cost().clone();
        Ok(PakaModule {
            kind,
            shielded: false,
            container,
            native_sys: NativeSyscalls::new(cost),
            max_threads: 4,
            warm: false,
            requests_served: 0,
            boot_report: None,
            userspace_net: false,
            tls_identity: TlsIdentity::new(kind.endpoint(), env.rng.bytes()),
            crash_recoveries: 0,
            key_slot: String::new(),
        })
    }

    /// Deploys the module inside an SGX enclave via GSC (a **P-AKA**
    /// module proper).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Libos`] for manifest/boot failures (including
    /// hosts without SGX).
    pub fn deploy_sgx(
        env: &mut Env,
        host: &mut Host,
        registry: &Registry,
        kind: PakaKind,
        cfg: SgxConfig,
    ) -> Result<Self, CoreError> {
        let manifest = Manifest::paka_default(format!(
            "/usr/bin/{}-aka-server",
            kind.name().to_lowercase()
        ))
        .with_max_threads(cfg.max_threads)
        .with_enclave_size(cfg.enclave_size_bytes)
        .with_preheat(cfg.preheat)
        .with_exitless(cfg.exitless);
        let container = host.run_shielded(
            env,
            registry,
            kind.image_name(),
            kind.endpoint(),
            manifest,
            &Self::signing_key(),
        )?;
        // Pistache server init inside the enclave: ~650 extra transitions
        // (paper §V-B5: "deploying the Pistache server inside an SGX
        // enclave contributes to around 650 EENTER and EEXIT
        // instructions") plus a few timer-thread event injections.
        let boot_report = {
            let mut c = container.borrow_mut();
            #[expect(clippy::expect_used, reason = "a GSC container is built with a LibOS")]
            let libos = c.shielded.as_mut().expect("gsc container has libos");
            let server_init_start = env.clock.now();
            libos.enclave_mut().ocalls(env, repeat_n((64, 0), 650));
            for _ in 0..12 {
                libos.inject_event(env);
            }
            // "Enclave load time … for the P-AKA modules to become
            // operational" (§V-B1) covers GSC boot plus server startup.
            let report = BootReport {
                load_time: libos.boot_report().load_time + (env.clock.now() - server_init_start),
                counters: libos.sgx_stats(),
            };
            Some(report)
        };
        let cost = host.platform().cost().clone();
        Ok(PakaModule {
            kind,
            shielded: true,
            container,
            native_sys: NativeSyscalls::new(cost),
            max_threads: cfg.max_threads,
            warm: false,
            requests_served: 0,
            boot_report,
            userspace_net: false,
            tls_identity: TlsIdentity::new(kind.endpoint(), env.rng.bytes()),
            crash_recoveries: 0,
            key_slot: String::new(),
        })
    }

    /// The module kind.
    #[must_use]
    pub(crate) fn kind(&self) -> PakaKind {
        self.kind
    }

    /// Worker threads available to serve requests. `sgx.max_threads`
    /// budgets the whole Gramine TCS pool; three slots go to the runtime
    /// (IPC helper, async helper, main), leaving the rest for request
    /// handlers — the count the engine uses for the module's endpoint, so
    /// the Fig. 8 thread sweep changes concurrency mechanistically.
    #[must_use]
    pub fn app_threads(&self) -> u32 {
        self.max_threads.saturating_sub(3).max(1)
    }

    /// Requests served so far.
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// The underlying container handle (attack-surface access).
    #[must_use]
    pub fn container(&self) -> ContainerHandle {
        self.container.clone()
    }

    /// The module's TLS server identity (what clients pin; in the SGX
    /// deployment its key hash is bound into attestation quotes).
    #[must_use]
    pub(crate) fn tls_identity(&self) -> &TlsIdentity {
        &self.tls_identity
    }

    /// Produces an attestation quote binding this module's TLS public key
    /// (report_data = SHA-256(tls_pub) ‖ 0³²) — the §VII pattern of
    /// verifying module integrity before provisioning keys or opening TLS
    /// sessions to it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`] for container deployments (no
    /// enclave, nothing to quote) and [`CoreError::Hmee`] when the
    /// platform refuses the report.
    pub(crate) fn quote_tls_binding(
        &self,
        platform: &shield5g_hmee::platform::SgxPlatform,
    ) -> Result<shield5g_hmee::attest::Quote, CoreError> {
        let c = self.container.borrow();
        let Some(libos) = c.shielded.as_ref() else {
            return Err(CoreError::Module {
                module: self.kind.name().to_owned(),
                status: 501,
                detail: "container deployment cannot produce attestation quotes".into(),
            });
        };
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&shield5g_crypto::sha256::Sha256::digest(
            self.tls_identity.public(),
        ));
        let report = shield5g_hmee::attest::Report::create(libos.enclave(), report_data);
        platform.quote(&report).map_err(CoreError::Hmee)
    }

    /// GSC boot metrics (None for container deployments).
    #[must_use]
    pub fn boot_report(&self) -> Option<BootReport> {
        self.boot_report
    }

    /// SGX transition counters (None for container deployments).
    #[must_use]
    pub fn sgx_stats(&self) -> Option<SgxCounters> {
        let c = self.container.borrow();
        c.shielded.as_ref().map(|l| l.sgx_stats())
    }

    /// Provisions a subscriber key delivered as a **sealed blob** — the
    /// KI 27 flow of paper §VI: "an encrypted secret can be provisioned
    /// to the NF image, which can only be unsealed when the enclave
    /// environment can be verified". Only a shielded module holding the
    /// matching identity can open it; container deployments have no seal
    /// key at all.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Module`] when the module is not enclave-shielded.
    /// * [`CoreError::Hmee`] when the blob does not unseal under this
    ///   enclave's identity (wrong signer/build/platform or tampering).
    pub fn provision_sealed_key(
        &mut self,
        env: &mut Env,
        supi: &str,
        blob: &shield5g_hmee::seal::SealedBlob,
    ) -> Result<(), CoreError> {
        let mut c = self.container.borrow_mut();
        let Some(libos) = c.shielded.as_mut() else {
            return Err(CoreError::Module {
                module: self.kind.name().to_owned(),
                status: 501,
                detail: "container deployment holds no sealing key; cannot unseal".into(),
            });
        };
        let mut k = shield5g_hmee::seal::unseal(libos.enclave(), blob)?;
        libos
            .enclave_mut()
            .vault_write(env, key_slot(&mut self.key_slot, supi), &k);
        k.zeroize();
        Ok(())
    }

    /// The signing identity under which P-AKA modules are built (the
    /// MRSIGNER source for GSC signing and KI 27 sealed provisioning).
    #[must_use]
    pub fn signing_key() -> [u8; 32] {
        [0x5A; 32]
    }

    /// The MRSIGNER value of P-AKA enclaves: GSC derives the signer
    /// identity as SHA-256(signing key), and the enclave measurement
    /// hashes that identity again.
    #[must_use]
    pub(crate) fn expected_mrsigner() -> [u8; 32] {
        let signer = shield5g_crypto::sha256::Sha256::digest(&Self::signing_key());
        shield5g_crypto::sha256::Sha256::digest(&signer)
    }

    /// Provisions a subscriber's long-term key into the module's secret
    /// store (enclave vault when shielded; plain memory otherwise).
    pub fn provision_subscriber_key(
        &mut self,
        env: &mut Env,
        supi: &str,
        k: impl Into<SecretBytes<16>>,
    ) {
        let slot = key_slot(&mut self.key_slot, supi);
        write_key(&self.container, env, slot, &k.into());
    }

    /// Provisions `keys` in order, as [`Self::provision_subscriber_key`]
    /// does, once a shielded module's vault has made room for all of them
    /// and for the key serving leaves in scratch: the batch grows the
    /// vault by one step, not one per key, and its first request none.
    pub fn provision_subscriber_keys(&mut self, env: &mut Env, keys: &[(Supi, SecretBytes<16>)]) {
        // A replica spawned before any key was provisioned makes no room.
        if keys.is_empty() {
            return;
        }
        if let Some(libos) = self.container.borrow_mut().shielded.as_mut() {
            // K and the derived scratch key (at most 32 bytes) are one
            // page each.
            libos.enclave_mut().vault_reserve(keys.len() + 1, 32);
        }
        for (supi, k) in keys {
            self.provision_subscriber_key(env, supi.as_str(), k.clone());
        }
    }

    /// Reads subscriber `supi`'s K straight into its secret: the enclave
    /// decrypts into a local array, the container copies out of plain
    /// memory, and the local is zeroized once wrapped, so no plaintext
    /// copy of K is left in freed memory in either deployment.
    fn load_subscriber_key(
        &mut self,
        env: &mut Env,
        supi: Supi,
    ) -> Result<SecretBytes<16>, NfError> {
        let slot = key_slot(&mut self.key_slot, supi.as_str());
        let wrong_length = || NfError::Backend("stored key has wrong length".into());
        let mut k = [0u8; 16];
        let mut c = self.container.borrow_mut();
        if let Some(libos) = c.shielded.as_mut() {
            libos
                .enclave_mut()
                .vault_read_into(env, slot, &mut k)
                .map_err(|e| match e {
                    shield5g_hmee::HmeeError::UnknownSlot(_) => NfError::SubscriberUnknown(supi),
                    shield5g_hmee::HmeeError::ValueLength { .. } => wrong_length(),
                    other => NfError::Backend(other.to_string()),
                })?;
        } else {
            let stored = c
                .plain_memory
                .read(slot)
                .ok_or(NfError::SubscriberUnknown(supi))?;
            if stored.len() != k.len() {
                return Err(wrong_length());
            }
            k.copy_from_slice(stored);
        }
        let key = SecretBytes::new(k);
        k.zeroize();
        Ok(key)
    }

    /// Runs one row of the operation table with `K` from this module's
    /// secret store, leaving the row's derived key (if any) in the
    /// module's working memory under `scratch`.
    fn run<O: AkaOp>(
        &mut self,
        env: &mut Env,
        body: &[u8],
        scratch: impl FnOnce(&O::Response) -> Option<(&'static str, Cow<'_, SecretBytes<32>>)>,
    ) -> Result<Body, NfError> {
        let req = O::Request::decode(body)?;
        let resp = O::compute(&req, |supi| self.load_subscriber_key(env, supi))?;
        // `serve` charges one AKA-function execution after dispatch; the
        // remaining batch members are extra in-window compute.
        for _ in 1..O::executions(&req) {
            let extra = env.rng.jitter(self.kind.func_nanos(), 0.05);
            self.charge_compute(env, extra);
        }
        if let Some((slot, key)) = scratch(&resp) {
            write_key(&self.container, env, slot, &key);
        }
        Ok(resp.into_body())
    }

    /// The AKA endpoint handlers (the code "inside" the module): which
    /// rows of the operation table this module kind hosts.
    fn dispatch(&mut self, env: &mut Env, path: &str, body: &[u8]) -> Result<Body, NfError> {
        match (self.kind, path) {
            (PakaKind::EUdm, GenerateAv::PATH) => self.run::<GenerateAv>(env, body, |av| {
                Some(("scratch:kausf", Cow::Borrowed(&av.kausf)))
            }),
            (PakaKind::EUdm, GenerateAvBatch::PATH) => {
                self.run::<GenerateAvBatch>(env, body, |batch| {
                    batch
                        .last_kausf()
                        .map(|kausf| ("scratch:kausf", Cow::Owned(kausf)))
                })
            }
            (PakaKind::EUdm, Resync::PATH) => self.run::<Resync>(env, body, |_| None),
            (PakaKind::EAusf, DeriveSe::PATH) => self.run::<DeriveSe>(env, body, |se| {
                Some(("scratch:kseaf", Cow::Borrowed(&se.kseaf)))
            }),
            (PakaKind::EAmf, DeriveKamf::PATH) => self.run::<DeriveKamf>(env, body, |kamf| {
                Some(("scratch:kamf", Cow::Borrowed(kamf)))
            }),
            _ => Err(NfError::Protocol(format!(
                "module {} has no handler for {path}",
                self.kind.name()
            ))),
        }
    }

    /// **Fault interface**: crashes the enclave instance (host reboot /
    /// OS-issued `EREMOVE`). The next request pays the measured enclave
    /// load time before it can be served ([`PakaModule::serve`] performs
    /// the reload). Returns `false` for container deployments, which have
    /// no enclave to lose at this layer.
    pub fn inject_crash(&mut self) -> bool {
        let mut c = self.container.borrow_mut();
        let Some(libos) = c.shielded.as_mut() else {
            return false;
        };
        libos.enclave_mut().mark_lost();
        true
    }

    /// **Fault interface**: delivers a burst of asynchronous exits to the
    /// enclave (interrupt storm). No-op for container deployments.
    pub fn inject_aex_storm(&mut self, env: &mut Env, count: u64) {
        let mut c = self.container.borrow_mut();
        if let Some(libos) = c.shielded.as_mut() {
            libos.enclave_mut().aex_storm(env, count);
        }
    }

    /// **Fault interface**: imposes external EPC occupancy (co-resident
    /// enclaves) so requests incur paging; `0` lifts the pressure. No-op
    /// for container deployments.
    pub fn set_epc_thrash(&mut self, pages: u64) {
        let mut c = self.container.borrow_mut();
        if let Some(libos) = c.shielded.as_mut() {
            libos.enclave_mut().set_thrash_pages(pages);
        }
    }

    /// Whether the enclave instance is currently lost (crashed, reload
    /// pending). Always `false` for container deployments.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        let c = self.container.borrow();
        c.shielded.as_ref().is_some_and(|l| l.enclave().is_lost())
    }

    /// How many times the module reloaded its enclave after a crash.
    #[must_use]
    pub fn crash_recoveries(&self) -> u64 {
        self.crash_recoveries
    }

    /// Reloads a lost enclave at the measured load-time cost, restoring
    /// sealed state. Called from [`PakaModule::serve`] so the first request
    /// after a crash pays the recovery; harnesses may also call it
    /// directly to model supervised restarts.
    pub(crate) fn recover_from_crash(&mut self, env: &mut Env) -> bool {
        let load_time = self
            .boot_report
            .map_or_else(|| SimDuration::from_secs(60), |r| r.load_time);
        let mut c = self.container.borrow_mut();
        let Some(libos) = c.shielded.as_mut() else {
            return false;
        };
        if !libos.enclave().is_lost() {
            return false;
        }
        libos.enclave_mut().reload(env, load_time);
        drop(c);
        self.crash_recoveries += 1;
        // The rebuilt instance starts cold: first request re-pays warmup.
        self.warm = false;
        true
    }

    /// Serves one HTTPS request end to end, charging the full syscall
    /// choreography, and returns the response plus the module-side
    /// latency metrics.
    pub fn serve(&mut self, env: &mut Env, request: HttpRequest) -> (HttpResponse, ServeMetrics) {
        if self.shielded && self.is_crashed() {
            self.recover_from_crash(env);
        }
        let req_bytes = request.wire_len();
        self.requests_served += 1;
        let first_request = !self.warm;
        self.warm = true;

        // --- Connection phase: accept + TLS handshake + reactor upkeep.
        self.run_syscalls(env, &SETUP_SYSCALLS);
        let handshake = env.rng.jitter(TLS_HANDSHAKE_CRYPTO_NANOS, 0.05);
        self.charge_compute(env, handshake);
        if first_request {
            self.cold_start(env);
        }

        // --- L_T window opens: request arrives.
        let t_total_start = env.clock.now();
        self.run_syscalls(env, &read_syscalls(req_bytes));
        let parse = env.rng.jitter(TLS_RECORD_NANOS + PARSE_NANOS, 0.06);
        self.charge_compute(env, parse);

        // --- L_F window: the AKA function itself.
        let t_func_start = env.clock.now();
        let mut paged = 0;
        let result = self.dispatch(env, &request.path, &request.body);
        // Handler execution time varies a few percent run to run
        // (allocator, branch history, cache state).
        let func = env.rng.jitter(self.kind.func_nanos(), 0.05);
        self.charge_compute(env, func);
        paged += self.functional_window_effects(env);
        let functional = env.clock.now() - t_func_start;

        // --- Response out; L_T window closes.
        let response = result.map_or_else(|e| error_reply(&e), HttpResponse::ok);
        self.charge_compute(env, TLS_RECORD_NANOS);
        self.run_syscalls(env, &write_syscalls(response.wire_len()));
        let total = env.clock.now() - t_total_start;

        // --- Teardown (outside the measured windows).
        self.run_syscalls(env, &TEARDOWN_SYSCALLS);

        (
            response,
            ServeMetrics {
                functional,
                total,
                paged,
            },
        )
    }

    /// In-enclave side effects charged inside the functional window: MEE
    /// slowdown extras, EPC paging under over-commit, and timer AEX noise
    /// that grows with the configured thread count (Fig. 8).
    fn functional_window_effects(&mut self, env: &mut Env) -> u64 {
        if !self.shielded {
            return 0;
        }
        let mut c = self.container.borrow_mut();
        #[expect(clippy::expect_used, reason = "`shielded` means a LibOS container")]
        let libos = c.shielded.as_mut().expect("shielded module");
        let enclave = libos.enclave_mut();
        enclave.compute(
            env,
            SimDuration::from_nanos(self.kind.sgx_func_extra_nanos()),
        );
        let paged = enclave.maybe_page(env);
        // Helper/timer threads interrupt enclave execution occasionally;
        // more TCS slots → more timer bookkeeping → more AEX. The rate is
        // calibrated so AEX-hit requests stay under the paper's "<5%
        // outliers" observation (§V-A2) — runtime AEX is rare, the bulk
        // of the Table III AEX total comes from boot.
        let draws = (self.max_threads / 4).max(1);
        for _ in 0..draws {
            if env.rng.chance(0.03) {
                enclave.aex(env);
            }
        }
        paged
    }

    fn cold_start(&mut self, env: &mut Env) {
        if self.shielded {
            let kind = self.kind;
            let mut c = self.container.borrow_mut();
            #[expect(clippy::expect_used, reason = "`shielded` means a LibOS container")]
            let libos = c.shielded.as_mut().expect("shielded module");
            let extra = kind.cold_extra_ocalls() as usize;
            libos.enclave_mut().ocalls(env, repeat_n((256, 0), extra));
            libos.enclave_mut().demand_fault(env, kind.cold_pages());
            let cold = SimDuration::from_nanos(kind.cold_init_nanos());
            libos.enclave_mut().compute(env, cold);
        } else {
            env.clock
                .advance(SimDuration::from_nanos(CONTAINER_COLD_INIT_NANOS));
        }
    }

    /// Enables the §V-B7 user-level network stack ablation: the socket
    /// choreography runs inside the enclave (mTCP-style), so syscalls
    /// become in-enclave work instead of OCALLs.
    pub fn set_userspace_net(&mut self, enabled: bool) {
        self.userspace_net = enabled;
    }

    fn run_syscalls(&mut self, env: &mut Env, calls: &[Syscall]) {
        if self.userspace_net {
            // mTCP/DPDK path: packet processing stays in-process; each
            // former syscall costs a few hundred ns of (enclave) compute.
            let work = SimDuration::from_nanos(260 * calls.len() as u64);
            self.charge_compute(env, work.as_nanos());
            return;
        }
        if self.shielded {
            let mut c = self.container.borrow_mut();
            #[expect(clippy::expect_used, reason = "`shielded` means a LibOS container")]
            let libos = c.shielded.as_mut().expect("shielded module");
            libos.run(env, calls);
        } else {
            self.native_sys.run(env, calls);
        }
    }

    /// Charges compute either natively or through the enclave (MEE factor).
    fn charge_compute(&mut self, env: &mut Env, nanos: u64) {
        if self.shielded {
            let mut c = self.container.borrow_mut();
            #[expect(clippy::expect_used, reason = "`shielded` means a LibOS container")]
            let libos = c.shielded.as_mut().expect("shielded module");
            libos
                .enclave_mut()
                .compute(env, SimDuration::from_nanos(nanos));
        } else {
            env.clock.advance(SimDuration::from_nanos(nanos));
        }
    }
}

/// Expands `(syscall, repeat)` runs into a fixed choreography at compile
/// time; a run list that does not total `N` fails the build.
const fn choreography<const N: usize>(runs: &[(Syscall, usize)]) -> [Syscall; N] {
    let mut calls = [Syscall::Close; N];
    let (mut n, mut run) = (0, 0);
    while run < runs.len() {
        let mut repeat = 0;
        while repeat < runs[run].1 {
            calls[n] = runs[run].0;
            n += 1;
            repeat += 1;
        }
        run += 1;
    }
    assert!(n == N, "runs must total N syscalls");
    calls
}

/// Connection setup: accept, socket options, TLS handshake I/O, Pistache
/// reactor/timer upkeep — 61 syscalls.
const SETUP_SYSCALLS: [Syscall; 61] = choreography(&[
    (Syscall::Accept, 1),
    (Syscall::Fcntl, 2),
    (Syscall::Setsockopt, 3),
    (Syscall::Getpeername, 1),
    (Syscall::EpollCtl, 2),
    // TLS handshake I/O.
    (Syscall::EpollWait, 4),
    (Syscall::Read { bytes: 620 }, 3),
    (Syscall::Write { bytes: 810 }, 2),
    (Syscall::GetRandom, 2),
    (Syscall::ClockGettime, 8),
    (Syscall::Futex, 2),
    // Pistache timer maintenance.
    (Syscall::ClockGettime, 12),
    (Syscall::EpollWait, 4),
    (Syscall::Futex, 3),
    // Reactor bookkeeping.
    (Syscall::ClockGettime, 8),
    (Syscall::Futex, 2),
    (Syscall::EpollCtl, 2),
]);

/// Request-receipt window: 5 syscalls.
const fn read_syscalls(req_bytes: usize) -> [Syscall; 5] {
    [
        Syscall::EpollWait,
        Syscall::Read { bytes: req_bytes },
        Syscall::Read { bytes: 0 },
        Syscall::ClockGettime,
        Syscall::ClockGettime,
    ]
}

/// Response-dispatch window: 4 syscalls.
const fn write_syscalls(resp_bytes: usize) -> [Syscall; 4] {
    [
        Syscall::Write { bytes: resp_bytes },
        Syscall::ClockGettime,
        Syscall::ClockGettime,
        Syscall::EpollWait,
    ]
}

/// Connection teardown: close-notify exchange, epoll cleanup, timers —
/// 21 syscalls (91 total per request).
const TEARDOWN_SYSCALLS: [Syscall; 21] = choreography(&[
    (Syscall::Read { bytes: 24 }, 1),
    (Syscall::Write { bytes: 24 }, 1),
    (Syscall::Close, 1),
    (Syscall::EpollCtl, 2),
    (Syscall::ClockGettime, 11),
    (Syscall::EpollWait, 3),
    (Syscall::Futex, 2),
]);

#[cfg(test)]
impl PakaModule {
    /// Whether this deployment is enclave-shielded.
    #[must_use]
    pub(crate) fn is_shielded(&self) -> bool {
        self.shielded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shield5g_crypto::keys::{HeAv, ServingNetworkName};
    use shield5g_crypto::milenage::Milenage;
    use shield5g_crypto::sqn::Auts;
    use shield5g_hmee::platform::SgxPlatform;
    use shield5g_nf::backend::{
        AmfAkaRequest, AusfAkaRequest, AusfAkaResponse, AvBatch, UdmAkaBatchRequest, UdmAkaRequest,
        UdmAkaResyncRequest, MAX_AV_BATCH,
    };
    use shield5g_sim::http::SharedPaths;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];
    const SUPI: &str = "imsi-001010000000001";

    fn imsi(text: &str) -> shield5g_crypto::ident::Supi {
        shield5g_crypto::ident::Supi::parse(text).unwrap()
    }

    fn registry() -> Registry {
        let mut reg = Registry::new();
        populate_registry(&mut reg);
        reg
    }

    fn deploy(shielded: bool, kind: PakaKind) -> (Env, PakaModule) {
        let mut env = Env::new(17);
        let reg = registry();
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let mut module = if shielded {
            PakaModule::deploy_sgx(&mut env, &mut host, &reg, kind, SgxConfig::default()).unwrap()
        } else {
            PakaModule::deploy_container(&mut env, &mut host, &reg, kind).unwrap()
        };
        if kind == PakaKind::EUdm {
            module.provision_subscriber_key(&mut env, SUPI, K);
        }
        (env, module)
    }

    fn udm_request() -> HttpRequest {
        GenerateAv::request(
            &mut SharedPaths::default(),
            &UdmAkaRequest {
                supi: imsi(SUPI),
                opc: OPC.into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 9],
                amf_field: [0x80, 0],
                snn: ServingNetworkName::new("001", "01"),
            },
        )
    }

    #[test]
    fn choreography_totals_91_syscalls() {
        // What drives the per-registration EENTER/EEXIT delta of ~91
        // in Table III.
        let total = SETUP_SYSCALLS.len()
            + read_syscalls(0).len()
            + write_syscalls(0).len()
            + TEARDOWN_SYSCALLS.len();
        assert_eq!(total, 91);
    }

    /// One warm eUDM serve, captured at the commit before the one-pass
    /// charge: a price that drifts fails here by name, not through a digest.
    #[test]
    fn a_warm_serve_is_pinned_to_the_nanosecond() {
        let ocalls = SgxCounters {
            ocalls: 91,
            eexit: 91,
            eenter: 91,
            ..SgxCounters::new()
        };
        // (shielded, functional, total, whole serve, clock afterwards, delta)
        for (shielded, functional, total, whole, now, delta) in [
            (true, 58_771, 164_566, 971_425, 59_693_659_548, Some(ocalls)),
            (false, 46_954, 76_913, 199_622, 382_398_439, None),
        ] {
            let (mut env, mut module) = deploy(shielded, PakaKind::EUdm);
            let _ = module.serve(&mut env, udm_request()); // cold
            let (before, t0) = (module.sgx_stats(), env.clock.now());
            let (_, m) = module.serve(&mut env, udm_request());
            assert_eq!(
                (m.functional.as_nanos(), m.total.as_nanos(), m.paged),
                (functional, total, 0),
                "shielded: {shielded}"
            );
            assert_eq!((env.clock.now() - t0).as_nanos(), whole);
            assert_eq!(env.clock.now().as_nanos(), now);
            let moved = module
                .sgx_stats()
                .zip(before)
                .map(|(after, before)| after.delta_since(&before));
            assert_eq!(moved, delta);
        }
    }

    /// With a hub installed, one run over the request choreography leaves
    /// the span log (ids, parents, names, instants, attributes, order),
    /// the `sgx` counts and the clock where 91 single calls leave them.
    #[test]
    fn a_traced_run_is_its_91_traced_calls() {
        let calls = [
            &SETUP_SYSCALLS[..],
            &read_syscalls(311),
            &write_syscalls(157),
            &TEARDOWN_SYSCALLS,
        ]
        .concat();
        assert_eq!(calls.len(), 91);
        let record = |drive: &dyn Fn(&mut dyn SyscallInterface, &mut Env)| {
            let (mut env, module) = deploy(true, PakaKind::EUdm);
            let hub = shield5g_obs::hub::ObsHandle::new();
            let t0 = env.clock.now().as_nanos();
            {
                let _scope = shield5g_obs::hub::scoped(&hub);
                let container = module.container();
                let mut c = container.borrow_mut();
                drive(c.shielded.as_mut().unwrap(), &mut env);
            }
            hub.with(|o| {
                let counts: Vec<_> = o.registry.counters().map(|(k, n)| (k.clone(), n)).collect();
                (
                    o.spans.finished().to_vec(),
                    counts,
                    t0,
                    env.clock.now().as_nanos(),
                )
            })
        };
        let run = record(&|sys, env| sys.run(env, &calls));
        let singles = record(&|sys, env| calls.iter().for_each(|c| sys.syscall(env, *c)));
        assert_eq!(run.0.len(), 91);
        assert!(run
            .0
            .iter()
            .all(|s| s.name == "ocall" && s.attr("eenter") == Some(1)));
        // A span covers the OCALL; the host's work follows it, outside.
        let mut at = run.2;
        for (span, call) in run.0.iter().zip(&calls) {
            let back = at + 8_550 + call.boundary_bytes() as u64;
            assert_eq!((span.start_ns, span.end_ns), (at, back), "{call:?}");
            at = back + call.host_ns();
        }
        assert_eq!(run.3, at);
        assert_eq!(run.1.iter().map(|(_, n)| n).sum::<u64>(), 3 * 91);
        assert_eq!(run, singles);
    }

    #[test]
    fn container_module_serves_valid_av() {
        let (mut env, mut module) = deploy(false, PakaKind::EUdm);
        let (resp, metrics) = module.serve(&mut env, udm_request());
        assert!(
            resp.is_success(),
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
        let av = HeAv::decode(&resp.body).unwrap();
        // A real USIM accepts the AV.
        let mil = Milenage::with_opc(&K, &OPC);
        let snn = ServingNetworkName::new("001", "01");
        let ue =
            shield5g_crypto::keys::ue_process_challenge(&mil, &av.rand, &av.autn, &snn).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
        // Within jitter of the nominal functional time.
        assert!(
            metrics.functional >= SimDuration::from_nanos(PakaKind::EUdm.func_nanos() * 9 / 10)
        );
        assert!(metrics.total > metrics.functional);
    }

    #[test]
    fn sgx_module_serves_identical_av() {
        let (mut env_c, mut container) = deploy(false, PakaKind::EUdm);
        let (mut env_s, mut sgx) = deploy(true, PakaKind::EUdm);
        let (rc, _) = container.serve(&mut env_c, udm_request());
        let (rs, _) = sgx.serve(&mut env_s, udm_request());
        // Identical inputs → identical AV bytes, regardless of deployment.
        assert_eq!(rc.body, rs.body);
    }

    #[test]
    fn first_request_is_much_slower_in_sgx() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let t0 = env.clock.now();
        let _ = module.serve(&mut env, udm_request());
        let first = env.clock.now() - t0;
        let t1 = env.clock.now();
        let _ = module.serve(&mut env, udm_request());
        let second = env.clock.now() - t1;
        let ratio = first.as_nanos() as f64 / second.as_nanos() as f64;
        assert!(ratio > 10.0, "initial/stable ratio {ratio:.1}");
    }

    #[test]
    fn shielded_secrets_invisible_to_introspection() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let _ = module.serve(&mut env, udm_request());
        let c = module.container();
        let c = c.borrow();
        let snap = c.shielded.as_ref().unwrap().enclave().epc_snapshot();
        assert!(!snap.contains_plaintext(&K));
        assert!(!c.plain_memory.contains(&K));
    }

    #[test]
    fn container_secrets_visible_to_introspection() {
        let (mut env, mut module) = deploy(false, PakaKind::EUdm);
        let (resp, _) = module.serve(&mut env, udm_request());
        assert!(resp.is_success());
        let c = module.container();
        let c = c.borrow();
        assert!(c.plain_memory.contains(&K), "long-term key in plain memory");
        assert!(
            c.plain_memory.read("scratch:kausf").is_some(),
            "derived key in plain memory"
        );
    }

    /// Both deployments read K the same way: the stored key, or
    /// `SubscriberUnknown` for a SUPI with no slot, or a backend error
    /// for a slot that does not hold 16 bytes.
    #[test]
    fn both_deployments_load_the_same_key_and_the_same_errors() {
        const LONG: &str = "imsi-001010000000002";
        const ABSENT: &str = "imsi-001010000000003";
        let outcomes = [false, true].map(|shielded| {
            let (mut env, mut module) = deploy(shielded, PakaKind::EUdm);
            {
                let slot = format!("k:{LONG}");
                let mut c = module.container.borrow_mut();
                match c.shielded.as_mut() {
                    Some(libos) => libos.enclave_mut().vault_write(&mut env, &slot, &[7; 17]),
                    None => c.plain_memory.write(&slot, &[7; 17]),
                }
            }
            let key = module.load_subscriber_key(&mut env, imsi(SUPI)).unwrap();
            assert!(key == K, "shielded: {shielded}");
            let mut load = |supi| module.load_subscriber_key(&mut env, imsi(supi)).map(|_| ());
            (load(ABSENT), load(LONG))
        });
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(
            outcomes[0],
            (
                Err(NfError::SubscriberUnknown(imsi(ABSENT))),
                Err(NfError::Backend("stored key has wrong length".into()))
            )
        );
    }

    #[test]
    fn unknown_subscriber_404() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let req = UdmAkaRequest {
            supi: imsi("imsi-001010000000777"),
            opc: OPC.into(),
            rand: [0; 16],
            sqn: [0; 6],
            amf_field: [0x80, 0],
            snn: ServingNetworkName::new("001", "01"),
        };
        let (resp, _) = module.serve(
            &mut env,
            GenerateAv::request(&mut SharedPaths::default(), &req),
        );
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, b"unknown subscriber imsi-001010000000777");
    }

    #[test]
    fn wrong_endpoint_400() {
        let (mut env, mut module) = deploy(false, PakaKind::EAmf);
        let (resp, _) = module.serve(&mut env, HttpRequest::post(GenerateAv::PATH, vec![]));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn eausf_serves_se_parameters() {
        let (mut env, mut module) = deploy(true, PakaKind::EAusf);
        let req = AusfAkaRequest {
            rand: [1; 16],
            xres_star: [2; 16].into(),
            kausf: [3; 32].into(),
            snn: ServingNetworkName::new("001", "01"),
        };
        let (resp, _) = module.serve(
            &mut env,
            DeriveSe::request(&mut SharedPaths::default(), &req),
        );
        assert!(resp.is_success());
        let se = AusfAkaResponse::decode(&resp.body).unwrap();
        assert_eq!(
            se.hxres_star,
            shield5g_crypto::keys::derive_hxres_star(&[1; 16], &SecretBytes::new([2; 16]))
        );
    }

    #[test]
    fn eamf_serves_kamf() {
        let (mut env, mut module) = deploy(false, PakaKind::EAmf);
        let req = AmfAkaRequest {
            kseaf: [4; 32].into(),
            supi: imsi(SUPI),
            abba: [0, 0],
        };
        let (resp, _) = module.serve(
            &mut env,
            DeriveKamf::request(&mut SharedPaths::default(), &req),
        );
        assert!(resp.is_success());
        assert_eq!(
            resp.body,
            shield5g_crypto::keys::derive_kamf(&[4; 32].into(), SUPI, &[0, 0]).encode()
        );
    }

    #[test]
    fn eudm_batch_serves_verifiable_avs_for_one_choreography() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let _ = module.serve(&mut env, udm_request()); // warm
        let req = UdmAkaBatchRequest {
            supi: imsi(SUPI),
            opc: OPC.into(),
            rand_seed: [0x77; 16],
            sqn_start: [0, 0, 0, 0, 1, 0],
            amf_field: [0x80, 0],
            snn: ServingNetworkName::new("001", "01"),
            count: 8,
        };
        let before = module.sgx_stats().unwrap();
        let (resp, metrics) = module.serve(
            &mut env,
            GenerateAvBatch::request(&mut SharedPaths::default(), &req),
        );
        assert!(resp.is_success());
        let avs = AvBatch::decode(&resp.body).unwrap();
        assert_eq!(avs.len(), 8);
        // Every AV in the batch passes USIM verification.
        let mil = Milenage::with_opc(&K, &OPC);
        let snn = ServingNetworkName::new("001", "01");
        for av in avs.iter() {
            let ue = shield5g_crypto::keys::ue_process_challenge(&mil, &av.rand, &av.autn, &snn)
                .unwrap();
            assert_eq!(ue.res_star, av.xres_star);
        }
        // The batch still costs a single connection choreography...
        let delta = module.sgx_stats().unwrap().delta_since(&before);
        assert!((91..=96).contains(&delta.ocalls), "{}", delta.ocalls);
        // ...while functional time scales with the batch size.
        assert!(metrics.functional > SimDuration::from_nanos(PakaKind::EUdm.func_nanos() * 6));
    }

    #[test]
    fn eudm_batch_count_bounds_enforced() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        for count in [0, MAX_AV_BATCH + 1] {
            let req = UdmAkaBatchRequest {
                supi: imsi(SUPI),
                opc: OPC.into(),
                rand_seed: [0; 16],
                sqn_start: [0; 6],
                amf_field: [0x80, 0],
                snn: ServingNetworkName::new("001", "01"),
                count,
            };
            let (resp, _) = module.serve(
                &mut env,
                GenerateAvBatch::request(&mut SharedPaths::default(), &req),
            );
            assert_eq!(resp.status, 400, "count {count}");
        }
    }

    #[test]
    fn eudm_resync_verifies_auts() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let mil = Milenage::with_opc(&K, &OPC);
        let rand = [0x23; 16];
        let sqn_ms = [0, 0, 0, 0, 2, 5];
        let auts = Auts::generate(&mil, &rand, &sqn_ms);
        let req = UdmAkaResyncRequest {
            supi: imsi(SUPI),
            opc: OPC.into(),
            rand,
            auts,
        };
        let (resp, _) = module.serve(&mut env, Resync::request(&mut SharedPaths::default(), &req));
        assert!(resp.is_success());
        assert_eq!(resp.body, sqn_ms.to_vec());
    }

    #[test]
    fn crash_forces_reload_at_load_time_cost() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        // Warm the module so the recovery delta is not confused with
        // first-request cold start.
        let (resp, _) = module.serve(&mut env, udm_request());
        assert!(resp.is_success());
        let load = module.boot_report().unwrap().load_time;

        assert!(module.inject_crash());
        assert!(module.is_crashed());
        let t0 = env.clock.now();
        let (resp, _) = module.serve(&mut env, udm_request());
        assert!(
            resp.is_success(),
            "post-crash request must succeed after reload: {:?}",
            String::from_utf8_lossy(&resp.body)
        );
        assert!(!module.is_crashed());
        assert_eq!(module.crash_recoveries(), 1);
        assert!(
            env.clock.now() - t0 >= load,
            "first post-crash request pays at least the enclave load time"
        );
    }

    #[test]
    fn crash_is_a_noop_for_container_deployments() {
        let (mut env, mut module) = deploy(false, PakaKind::EUdm);
        assert!(!module.inject_crash());
        assert!(!module.is_crashed());
        assert!(!module.recover_from_crash(&mut env));
        let (resp, _) = module.serve(&mut env, udm_request());
        assert!(resp.is_success());
        assert_eq!(module.crash_recoveries(), 0);
    }

    #[test]
    fn aex_storm_and_epc_thrash_degrade_without_breaking() {
        let (mut env, mut module) = deploy(true, PakaKind::EUdm);
        let (resp, baseline) = module.serve(&mut env, udm_request());
        assert!(resp.is_success());
        assert_eq!(baseline.paged, 0, "no paging without pressure");

        let before = module.sgx_stats().unwrap();
        module.inject_aex_storm(&mut env, 1000);
        assert_eq!(module.sgx_stats().unwrap().aex, before.aex + 1000);

        // 512 MiB heap on a default platform: thrash well past physical.
        module.set_epc_thrash(4 * 1024 * 1024);
        let mut paged = 0;
        for _ in 0..20 {
            let (resp, m) = module.serve(&mut env, udm_request());
            assert!(resp.is_success(), "thrashed module still serves");
            paged += m.paged;
        }
        assert!(paged > 0, "EPC thrash must surface as paging");
        module.set_epc_thrash(0);
        let (resp, after) = module.serve(&mut env, udm_request());
        assert!(resp.is_success());
        assert_eq!(after.paged, 0, "lifting thrash restores residence");
    }

    /// A hostile rewrite of a valid request body, after 5Greplay's
    /// mutation catalogue: truncate, flip one bit, lie in the length
    /// prefix at `len_at`, or splice with another row's encoding. The flag
    /// says whether the result can still be a well-formed request.
    fn mutate(valid: &[u8], other: &[u8], len_at: usize, word: u64) -> (Vec<u8>, bool) {
        let at = (word >> 8) as usize % valid.len();
        let mut body = valid.to_vec();
        match word % 4 {
            0 => body.truncate(at),
            1 => body[at] ^= 1 << ((word >> 4) % 8),
            2 => {
                let field: &mut [u8; 4] = (&mut body[len_at..len_at + 4]).try_into().unwrap();
                let lie = (word >> 8) as u32 % u32::MAX + 1;
                *field = u32::from_be_bytes(*field).wrapping_add(lie).to_be_bytes();
            }
            _ => {
                body.truncate(at);
                body.extend_from_slice(&other[(word >> 32) as usize % other.len()..]);
            }
        }
        (body, word % 4 == 1 || word % 4 == 3)
    }

    /// Serves every hostile body on a container and an SGX module hosting
    /// row `O`: a typed 4xx (or 200 where the body may still be
    /// well-formed), no lost enclave, and the next valid request is served.
    fn survives<O: AkaOp>(
        modules: &mut [(Env, PakaModule)],
        valid: &O::Request,
        hostile: impl Iterator<Item = (Vec<u8>, bool)>,
    ) -> Result<(), TestCaseError> {
        for (body, maybe_valid) in hostile {
            for (env, module) in modules.iter_mut() {
                let (resp, _) = module.serve(env, HttpRequest::post(O::PATH, body.clone()));
                let cause = String::from_utf8_lossy(&resp.body).into_owned();
                prop_assert!(
                    matches!(resp.status, 400 | 403 | 404) || (maybe_valid && resp.is_success()),
                    "{} answered {} {cause:?} to {body:02x?}",
                    O::PATH,
                    resp.status
                );
                prop_assert!(resp.is_success() || !cause.is_empty());
                prop_assert!(!module.is_crashed());
                let (resp, _) = module.serve(env, O::request(&mut SharedPaths::default(), valid));
                prop_assert!(resp.is_success(), "{} no longer serves", O::PATH);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn hostile_bodies_get_a_typed_4xx_and_leave_the_module_serving(
            script in proptest::collection::vec(0u64.., 16..=16),
        ) {
            let snn = ServingNetworkName::new("001", "01");
            let av = UdmAkaRequest {
                supi: imsi(SUPI),
                opc: OPC.into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 9],
                amf_field: [0x80, 0],
                snn,
            };
            let batch = |count| UdmAkaBatchRequest {
                supi: imsi(SUPI),
                opc: OPC.into(),
                rand_seed: [0x77; 16],
                sqn_start: [0, 0, 0, 0, 1, 0],
                amf_field: [0x80, 0],
                snn,
                count,
            };
            let rand = [0x23; 16];
            let resync = UdmAkaResyncRequest {
                supi: imsi(SUPI),
                opc: OPC.into(),
                rand,
                auts: Auts::generate(&Milenage::with_opc(&K, &OPC), &rand, &[0, 0, 0, 0, 2, 5]),
            };
            let se = AusfAkaRequest {
                rand: [1; 16],
                xres_star: [2; 16].into(),
                kausf: [3; 32].into(),
                snn,
            };
            let kamf = AmfAkaRequest {
                kseaf: [4; 32].into(),
                supi: imsi(SUPI),
                abba: [0, 0],
            };
            // Each row's length-prefixed field: the SUPI leads the eUDM
            // requests, follows K_SEAF in eAMF's; the SNN ends eAUSF's.
            let (av_b, batch_b, resync_b) = (av.encode(), batch(2).encode(), resync.encode());
            let (se_b, kamf_b) = (se.encode(), kamf.encode());
            let hostile = |valid: &[u8], other: &[u8], len_at: usize| {
                let (valid, other) = (valid.to_vec(), other.to_vec());
                script.clone().into_iter().map(move |w| mutate(&valid, &other, len_at, w))
            };
            let modules = |kind| [deploy(false, kind), deploy(true, kind)];

            let mut eudm = modules(PakaKind::EUdm);
            survives::<GenerateAv>(&mut eudm, &av, hostile(&av_b, &batch_b, 0))?;
            let counts = [0, MAX_AV_BATCH + 1].map(|count| (batch(count).encode().to_vec(), false));
            let bodies = hostile(&batch_b, &av_b, 0).chain(counts);
            survives::<GenerateAvBatch>(&mut eudm, &batch(2), bodies)?;
            survives::<Resync>(&mut eudm, &resync, hostile(&resync_b, &av_b, 0))?;
            let mut eausf = modules(PakaKind::EAusf);
            survives::<DeriveSe>(&mut eausf, &se, hostile(&se_b, &kamf_b, 64))?;
            let mut eamf = modules(PakaKind::EAmf);
            survives::<DeriveKamf>(&mut eamf, &kamf, hostile(&kamf_b, &se_b, 32))?;
        }
    }
}
