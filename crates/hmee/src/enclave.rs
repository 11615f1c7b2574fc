//! Enclave lifecycle, execution costs, and the protected vault.
//!
//! An [`Enclave`] is built with [`EnclaveBuilder`] (modelling
//! `ECREATE`/`EADD`/`EEXTEND`/`EINIT`), after which shielded code "runs
//! inside" it: the owning component calls [`Enclave::ocall`],
//! [`Enclave::compute`], [`Enclave::prefault_heap`] and the vault methods,
//! each of which charges the virtual clock and increments the
//! [`SgxCounters`] exactly as the corresponding hardware events would.
//!
//! What a transition costs is fixed when the enclave is built: `build`
//! turns the platform's [`CostModel`] into nanosecond [`Prices`], each term
//! truncated where the model's getter truncates it, so a charge is integer
//! addition and a run of OCALLs ([`Enclave::ocalls`]) is priced in one pass
//! to the nanosecond of the same calls made one by one.
//!
//! Vault pages are AES-CTR ciphertext under a Poly1305-AES tag, kept for
//! the 64-byte lines a value occupies (the construction, its nonce rule,
//! what is materialised and the parallel with SGX's Memory Encryption
//! Engine are in the [`crate::epc`] module docs). The enclave
//! holds the three per-instance keys and the one version counter that
//! keeps every `(key, version)` pair unique.

use crate::cost::{CostModel, PAGE_SIZE};
use crate::counters::SgxCounters;
use crate::epc::{EncryptedPage, EpcRegion, EpcSnapshot};
use crate::platform::SgxPlatform;
use crate::HmeeError;
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::poly1305::Poly1305;
use shield5g_crypto::sha256::Sha256;
use shield5g_obs::hub as obs;
use shield5g_obs::span::SpanKind;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::HashMap;

/// Hard ceiling on enclave virtual size (64 GiB), mirroring practical
/// SGXv2 limits; requests beyond it fail at build time.
const MAX_ENCLAVE_PAGES: u64 = (64u64 * 1024 * 1024 * 1024) / PAGE_SIZE as u64;

/// An enclave's transition prices, derived once from its [`CostModel`].
struct Prices {
    eenter: SimDuration,
    eexit: SimDuration,
    /// `AEX` + `ERESUME`, each truncated on its own.
    aex_resume: SimDuration,
    /// `EEXIT` + `EENTER` + marshalling: an OCALL round trip before the
    /// per-byte copy of its payload.
    ocall: SimDuration,
    ewb: SimDuration,
    eldu: SimDuration,
    /// `EWB` + `ELDU` of one page, truncated on the cycle sum.
    paging: SimDuration,
}

/// Configures and builds an [`Enclave`] (`ECREATE` → `EADD`/`EEXTEND` →
/// `EINIT`).
#[derive(Clone, Debug)]
pub struct EnclaveBuilder {
    name: String,
    heap_bytes: u64,
    max_threads: u32,
    debug: bool,
    signer: [u8; 32],
    measured_content: Vec<(String, u64)>,
}

impl EnclaveBuilder {
    /// Starts a builder for an enclave named `name` with Gramine-like
    /// defaults (512 MiB heap, 4 threads, production mode).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        EnclaveBuilder {
            name: name.into(),
            heap_bytes: 512 * 1024 * 1024,
            max_threads: 4,
            debug: false,
            signer: [0x51; 32],
            measured_content: Vec::new(),
        }
    }

    /// Sets the enclave heap ("EPC size" in the paper's manifest terms).
    #[must_use]
    pub fn heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Sets the TCS count (`sgx.max_threads`).
    #[must_use]
    pub fn max_threads(mut self, threads: u32) -> Self {
        self.max_threads = threads;
        self
    }

    /// Enables debug mode (required for Gramine's stats collection,
    /// paper §IV-C — and a real-world confidentiality caveat surfaced by
    /// the attacker model).
    #[must_use]
    pub fn debug(mut self, debug: bool) -> Self {
        self.debug = debug;
        self
    }

    /// Sets the signing identity (MRSIGNER source).
    #[must_use]
    pub fn signer(mut self, signer: [u8; 32]) -> Self {
        self.signer = signer;
        self
    }

    /// Adds measured initial content (code/data that is `EADD`ed and
    /// `EEXTEND`ed, contributing to MRENCLAVE and to build time).
    #[must_use]
    pub fn measured_content(mut self, label: impl Into<String>, bytes: u64) -> Self {
        self.measured_content.push((label.into(), bytes));
        self
    }

    /// Builds the enclave, charging `EADD`/`EEXTEND` per initial page and
    /// a fixed `EINIT` cost.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::EpcExhausted`] when the requested virtual size
    /// exceeds the platform's maximum mappable enclave size, and
    /// [`HmeeError::InvalidCostModel`] when the platform's cost model
    /// cannot price a transition.
    pub fn build(self, env: &mut Env, platform: &SgxPlatform) -> Result<Enclave, HmeeError> {
        let cost = platform.cost().clone();
        cost.validate()?;
        let price = Prices {
            eenter: cost.eenter(),
            eexit: cost.eexit(),
            aex_resume: cost.aex() + cost.eresume(),
            ocall: cost.ocall_round_trip(0),
            ewb: cost.cycles(cost.ewb_cycles),
            eldu: cost.cycles(cost.eldu_cycles),
            paging: cost.paging_round_trip(),
        };
        let heap_pages = self.heap_bytes.div_ceil(PAGE_SIZE as u64);
        let content_pages: u64 = self
            .measured_content
            .iter()
            .map(|(_, bytes)| bytes.div_ceil(PAGE_SIZE as u64))
            .sum();
        let total_pages = heap_pages + content_pages;
        if total_pages > MAX_ENCLAVE_PAGES {
            return Err(HmeeError::EpcExhausted {
                requested_pages: total_pages,
                available_pages: MAX_ENCLAVE_PAGES,
            });
        }

        // MRENCLAVE: hash of the build configuration and measured content,
        // in EADD order (a faithful simplification of the EEXTEND chain).
        let mut m = Sha256::new();
        m.update(b"ecreate");
        m.update(&self.heap_bytes.to_be_bytes());
        m.update(&self.max_threads.to_be_bytes());
        m.update(&[u8::from(self.debug)]);
        for (label, bytes) in &self.measured_content {
            m.update(b"eadd");
            m.update(label.as_bytes());
            m.update(&bytes.to_be_bytes());
        }
        let mrenclave = m.finalize();
        let mrsigner = Sha256::digest(&self.signer);

        // Charge EADD+EEXTEND for initial content pages and EINIT.
        env.clock
            .advance(SimDuration::from_nanos(cost.eadd_page_ns * content_pages));
        env.clock.advance(SimDuration::from_micros(50)); // EINIT + launch token

        // EPC protection is bound to the enclave *instance* (EPCM
        // ownership + per-boot MEE keys), not the measurement: two
        // enclaves built from the same image must still be mutually
        // opaque. Mix a fresh instance nonce into the key derivation.
        let instance_nonce: [u8; 16] = env.rng.bytes();
        let mut epc_context = Vec::with_capacity(48);
        epc_context.extend_from_slice(&mrenclave);
        epc_context.extend_from_slice(&instance_nonce);
        let epc_enc = platform.derive_key("epc-enc", &epc_context);
        let mut enc_key = [0u8; 16];
        enc_key.copy_from_slice(&epc_enc[..16]);
        // Poly1305-AES key `r ‖ k`: its own derivation, so the pad key is
        // never the page-cipher key.
        let epc_mac = platform.derive_key("epc-mac", &epc_context);
        let (mut mac_r, mut pad_key) = ([0u8; 16], [0u8; 16]);
        mac_r.copy_from_slice(&epc_mac[..16]);
        pad_key.copy_from_slice(&epc_mac[16..]);

        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!(
                "EINIT {} ({} content pages, {} heap pages)",
                self.name, content_pages, heap_pages
            ),
        );

        Ok(Enclave {
            name: self.name,
            mrenclave,
            mrsigner,
            debug: self.debug,
            epc_cipher: Aes128::new(&enc_key),
            epc_mac: Poly1305::new(&mac_r),
            epc_pad: Aes128::new(&pad_key),
            report_key: platform.report_key(),
            seal_base: platform.derive_key("seal-base", &mrsigner),
            cost,
            price,
            counters: SgxCounters::new(),
            epc: EpcRegion::new(),
            vault: HashMap::new(),
            heap_pages,
            max_threads: self.max_threads,
            threads_inside: 0,
            physical_epc_pages: platform.epc_pages(),
            version_counter: 0,
            evicted_versions: HashMap::new(),
            lost: false,
            thrash_pages: 0,
        })
    }
}

/// Metadata for one named vault slot.
#[derive(Debug, Default)]
struct SlotMeta {
    page_indices: Vec<usize>,
    len: usize,
}

/// A running enclave.
pub struct Enclave {
    name: String,
    mrenclave: [u8; 32],
    mrsigner: [u8; 32],
    debug: bool,
    epc_cipher: Aes128,
    epc_mac: Poly1305,
    epc_pad: Aes128,
    report_key: [u8; 32],
    seal_base: [u8; 32],
    cost: CostModel,
    price: Prices,
    counters: SgxCounters,
    epc: EpcRegion,
    vault: HashMap<String, SlotMeta>,
    heap_pages: u64,
    max_threads: u32,
    threads_inside: u32,
    physical_epc_pages: u64,
    version_counter: u64,
    /// Expected versions of evicted pages (the SGX version-tree analogue:
    /// kept inside the trusted boundary, so stale blobs cannot be
    /// replayed).
    evicted_versions: HashMap<usize, u64>,
    /// Set when the enclave instance was destroyed from outside (host
    /// crash / `EREMOVE`); entry points fail closed until
    /// [`Enclave::reload`].
    lost: bool,
    /// Extra EPC occupancy imposed by co-resident enclaves competing for
    /// the same physical EPC (fault-injection pressure knob).
    thrash_pages: u64,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("name", &self.name)
            .field(
                "mrenclave",
                &shield5g_crypto::hex::encode(&self.mrenclave[..8]),
            )
            .field("debug", &self.debug)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Enclave {
    /// The enclave's name (for logs and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// MRENCLAVE: the build measurement.
    #[must_use]
    pub fn mrenclave(&self) -> &[u8; 32] {
        &self.mrenclave
    }

    /// MRSIGNER: hash of the signing identity.
    #[must_use]
    pub fn mrsigner(&self) -> &[u8; 32] {
        &self.mrsigner
    }

    /// Whether the enclave runs in debug mode.
    #[must_use]
    pub fn is_debug(&self) -> bool {
        self.debug
    }

    /// The platform report key (crate-internal: local attestation).
    pub(crate) fn report_key(&self) -> &[u8; 32] {
        &self.report_key
    }

    /// The signer-bound sealing root (crate-internal).
    pub(crate) fn seal_base(&self) -> &[u8; 32] {
        &self.seal_base
    }

    /// The cost model in force.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// A copy of the transition counters.
    #[must_use]
    pub fn counters(&self) -> SgxCounters {
        self.counters
    }

    /// Configured TCS count.
    #[must_use]
    pub fn max_threads(&self) -> u32 {
        self.max_threads
    }

    /// Emits one [`SpanKind::Enclave`] span covering a transition charge
    /// (`start_ns` → now) and mirrors its hardware-event counts into the
    /// ambient metrics registry under `(enclave-name, "sgx", event)`.
    /// A no-op when no observability hub is installed.
    fn record_transition(
        &self,
        env: &Env,
        name: &str,
        start_ns: u64,
        events: &[(&'static str, u64)],
    ) {
        if obs::is_active() {
            self.emit_transition(name, start_ns, env.clock.now().as_nanos(), events);
        }
    }

    /// [`Enclave::record_transition`] with the hub known to be installed
    /// and the end instant given.
    fn emit_transition(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        events: &[(&'static str, u64)],
    ) {
        obs::record_span(
            SpanKind::Enclave,
            &self.name,
            name,
            start_ns,
            end_ns,
            events,
        );
        for &(event, n) in events {
            obs::count(&self.name, "sgx", event, n);
        }
    }

    /// Enters the enclave on a new thread (`ECALL`).
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::ThreadLimit`] when all TCS slots are busy and
    /// [`HmeeError::EnclaveLost`] after a crash (until [`Enclave::reload`]).
    pub fn ecall_enter(&mut self, env: &mut Env) -> Result<(), HmeeError> {
        if self.lost {
            return Err(HmeeError::EnclaveLost(self.name.clone()));
        }
        if self.threads_inside >= self.max_threads {
            return Err(HmeeError::ThreadLimit {
                max_threads: self.max_threads,
            });
        }
        let t0 = env.clock.now().as_nanos();
        self.threads_inside += 1;
        self.counters.record_ecall();
        env.clock.advance(self.price.eenter);
        self.record_transition(env, "eenter", t0, &[("eenter", 1)]);
        Ok(())
    }

    /// Returns from the outermost ECALL on one thread (`EEXIT`).
    pub fn ecall_return(&mut self, env: &mut Env) {
        debug_assert!(
            self.threads_inside > 0,
            "ecall_return without matching enter"
        );
        let t0 = env.clock.now().as_nanos();
        self.threads_inside = self.threads_inside.saturating_sub(1);
        self.counters.record_ecall_return();
        env.clock.advance(self.price.eexit);
        self.record_transition(env, "eexit", t0, &[("eexit", 1)]);
    }

    /// Performs an OCALL round trip carrying `bytes` across the boundary
    /// (syscall delegation). The *host-side* work is charged by the caller;
    /// this charges transition + marshalling costs only.
    pub fn ocall(&mut self, env: &mut Env, bytes: usize) {
        self.ocalls(env, [(bytes, 0)]);
    }

    /// Performs a run of OCALL round trips, one per `(boundary bytes, host
    /// ns spent outside)`: walks them on a local instant, counts them and
    /// advances the clock once by their sum. With an observability hub
    /// installed (asked once per run) each call emits the `ocall` span and
    /// `sgx` counts it would emit alone.
    pub fn ocalls(&mut self, env: &mut Env, calls: impl IntoIterator<Item = (usize, u64)>) {
        let start = env.clock.now().as_nanos();
        let fixed = self.price.ocall.as_nanos();
        let per_byte = self.cost.boundary_copy_ns_per_byte;
        let traced = obs::is_active();
        let events = [("ocalls", 1), ("eexit", 1), ("eenter", 1)];
        let (mut now, mut n) = (start, 0);
        for (bytes, host_ns) in calls {
            let back = now + fixed + per_byte * bytes as u64;
            if traced {
                self.emit_transition("ocall", now, back, &events);
            }
            now = back + host_ns;
            n += 1;
        }
        self.counters.record_ocalls(n);
        env.clock.advance(SimDuration::from_nanos(now - start));
    }

    /// Records a one-way event injection: the host enters the enclave at a
    /// dedicated handler TCS (signal/timer delivery) and the handler parks
    /// without a matching synchronous `EEXIT`. This is the mechanism behind
    /// EENTER totals exceeding EEXIT totals in Gramine stats (paper
    /// Table III).
    pub fn inject_event_entry(&mut self) {
        self.counters.eenter += 1;
    }

    /// Services an asynchronous exit (interrupt/fault) and resumption.
    pub fn aex(&mut self, env: &mut Env) {
        let t0 = env.clock.now().as_nanos();
        self.counters.record_aex_resume();
        env.clock.advance(self.price.aex_resume);
        self.record_transition(env, "aex", t0, &[("aex", 1), ("eresume", 1)]);
    }

    /// Pre-faults the entire heap (`sgx.preheat_enclave = true`): each page
    /// costs an `EAUG`-style fault, which raises an AEX.
    pub fn prefault_heap(&mut self, env: &mut Env) {
        let t0 = env.clock.now().as_nanos();
        let pages = self.heap_pages;
        self.epc.account_pages(pages);
        self.counters.aex += pages;
        self.counters.eresume += pages;
        env.clock
            .advance(SimDuration::from_nanos(self.cost.heap_fault_ns * pages));
        self.record_transition(
            env,
            "prefault_heap",
            t0,
            &[("aex", pages), ("eresume", pages)],
        );
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: preheated {pages} heap pages", self.name),
        );
    }

    /// Demand-faults `pages` heap pages lazily (preheat disabled).
    pub fn demand_fault(&mut self, env: &mut Env, pages: u64) {
        let t0 = env.clock.now().as_nanos();
        self.epc.account_pages(pages);
        self.counters.aex += pages;
        self.counters.eresume += pages;
        env.clock
            .advance(SimDuration::from_nanos(self.cost.heap_fault_ns * pages));
        self.record_transition(
            env,
            "demand_fault",
            t0,
            &[("aex", pages), ("eresume", pages)],
        );
    }

    /// EPC pressure: accounted occupancy (plus any externally imposed
    /// thrash pages) over physical capacity. Above 1.0 the enclave's
    /// working set cannot be fully resident and requests may incur paging
    /// ([`Enclave::maybe_page`]).
    #[must_use]
    pub fn epc_pressure(&self) -> f64 {
        (self.epc.accounted_pages() + self.thrash_pages) as f64 / self.physical_epc_pages as f64
    }

    /// **Fault interface**: destroys the enclave instance, as a host crash
    /// or OS-issued `EREMOVE` would. All EPC state becomes unreachable (the
    /// per-boot MEE keys die with the instance) and every entry point fails
    /// closed with [`HmeeError::EnclaveLost`] until [`Enclave::reload`].
    pub fn mark_lost(&mut self, env: &mut Env) {
        if self.lost {
            return;
        }
        self.lost = true;
        self.threads_inside = 0;
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: instance lost (crash injected)", self.name),
        );
    }

    /// Whether the enclave instance was destroyed and awaits reload.
    #[must_use]
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Rebuilds a lost enclave instance, charging `load_time` — the
    /// measured GSC boot + server-init cost (paper §V-B1: "enclave load
    /// time … for the P-AKA modules to become operational"). Sealed state
    /// re-provisioning restores the vault, so contents survive; only the
    /// time is lost.
    pub fn reload(&mut self, env: &mut Env, load_time: SimDuration) {
        if !self.lost {
            return;
        }
        let t0 = env.clock.now().as_nanos();
        self.lost = false;
        env.clock.advance(load_time);
        self.record_transition(env, "reload", t0, &[("reloads", 1)]);
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!(
                "{}: reloaded after crash ({} ms load time)",
                self.name,
                load_time.as_nanos() / 1_000_000
            ),
        );
    }

    /// **Fault interface**: services a burst of `count` asynchronous exits
    /// (interrupt storm / single-stepping pressure), charging
    /// `count × (AEX + ERESUME)`.
    pub fn aex_storm(&mut self, env: &mut Env, count: u64) {
        let t0 = env.clock.now().as_nanos();
        self.counters.aex += count;
        self.counters.eresume += count;
        env.clock.advance(self.price.aex_resume * count);
        self.record_transition(env, "aex_storm", t0, &[("aex", count), ("eresume", count)]);
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: AEX storm ({count} exits)", self.name),
        );
    }

    /// **Fault interface**: imposes `pages` of external EPC occupancy
    /// (co-resident enclaves competing for physical EPC), raising
    /// [`Enclave::epc_pressure`] and with it the [`Enclave::maybe_page`]
    /// miss probability. Pass `0` to lift the pressure.
    pub fn set_thrash_pages(&mut self, pages: u64) {
        self.thrash_pages = pages;
    }

    /// Currently imposed external EPC occupancy in pages.
    #[must_use]
    pub fn thrash_pages(&self) -> u64 {
        self.thrash_pages
    }

    /// Possibly incurs `EWB`/`ELDU` paging for one request, with
    /// probability growing with EPC over-commit. Returns the pages paged.
    pub fn maybe_page(&mut self, env: &mut Env) -> u64 {
        let pressure = self.epc_pressure();
        if pressure <= 1.0 {
            return 0;
        }
        // Over-commit fraction of the working set misses per request.
        let miss_prob = (1.0 - 1.0 / pressure).clamp(0.0, 0.9);
        let t0 = env.clock.now().as_nanos();
        let mut paged = 0;
        // Sample a handful of hot-page accesses per request.
        for _ in 0..4 {
            if env.rng.chance(miss_prob) {
                self.counters.record_paging();
                env.clock.advance(self.price.paging);
                paged += 1;
            }
        }
        if paged > 0 {
            self.record_transition(env, "paging", t0, &[("ewb", paged), ("eldu", paged)]);
        }
        paged
    }

    /// Evicts a data page to untrusted main memory (`EWB`): the caller
    /// (the OS / a test) receives the encrypted blob, and the enclave
    /// records the expected version so a stale copy cannot be replayed.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::UnknownSlot`] when the page does not exist or
    /// is already evicted.
    pub fn evict_page(&mut self, env: &mut Env, index: usize) -> Result<EncryptedPage, HmeeError> {
        let page = self
            .epc
            .take_page(index)
            .ok_or_else(|| HmeeError::UnknownSlot(format!("page {index} not resident")))?;
        self.evicted_versions.insert(index, page.version);
        let t0 = env.clock.now().as_nanos();
        self.counters.ewb += 1;
        env.clock.advance(self.price.ewb);
        self.record_transition(env, "ewb", t0, &[("ewb", 1)]);
        Ok(page)
    }

    /// Reloads an evicted page (`ELDU`), verifying both the integrity tag
    /// and the anti-replay version against the trusted record. The blob's
    /// length is the OS's to choose, so its shape is checked first; a
    /// well-formed image that lost or gained lines fails the tag.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::IntegrityViolation`] for a stale (rolled-back),
    /// tampered or malformed blob — the eviction stays pending — and
    /// [`HmeeError::UnknownSlot`] when no eviction is pending for `index`.
    pub fn reload_page(
        &mut self,
        env: &mut Env,
        index: usize,
        page: EncryptedPage,
    ) -> Result<(), HmeeError> {
        let expected_version = *self.evicted_versions.get(&index).ok_or_else(|| {
            HmeeError::UnknownSlot(format!("no eviction pending for page {index}"))
        })?;
        if page.version != expected_version {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} version {} does not match the version tree ({expected_version}) — rollback attempt",
                page.version
            )));
        }
        if !page.is_well_formed() {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} reloaded with a {}-byte image: not 1..=64 whole lines",
                page.ciphertext.len()
            )));
        }
        let expected_tag = self.page_tag(page.version, &page.ciphertext);
        if !shield5g_crypto::ct_eq(&expected_tag, &page.tag) {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} failed MAC on reload"
            )));
        }
        self.evicted_versions.remove(&index);
        if !self.epc.restore_page(index, page) {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} slot not empty"
            )));
        }
        let t0 = env.clock.now().as_nanos();
        self.counters.eldu += 1;
        env.clock.advance(self.price.eldu);
        self.record_transition(env, "eldu", t0, &[("eldu", 1)]);
        Ok(())
    }

    /// Runs in-enclave computation that would take `native` outside,
    /// charging the MEE slowdown.
    pub fn compute(&mut self, env: &mut Env, native: SimDuration) -> SimDuration {
        let t0 = env.clock.now().as_nanos();
        let t = self.cost.enclave_compute(native);
        env.clock.advance(t);
        self.record_transition(env, "compute", t0, &[]);
        t
    }

    /// Writes `plaintext` into the named vault slot, encrypting it into
    /// EPC pages for real. Each page materialises the lines its chunk
    /// occupies ([`crate::epc`], *What is materialised*) and is accounted
    /// and charged as a whole page.
    ///
    /// A rewrite re-encrypts the slot's pages where they are: page `i` of
    /// the new value lands on the slot's `i`-th page index under a fresh
    /// version (so a fresh nonce and tag) as a whole new image — no line
    /// of the old one survives, a shorter chunk drops the surplus lines —
    /// and EPC occupancy does not move. A longer value appends fresh pages
    /// for the excess; a shorter one releases the slot's surplus pages,
    /// whose indices are retired.
    ///
    /// A page that is evicted when its slot is rewritten is re-created
    /// resident, and its version-tree record moves to the new version:
    /// the blob still in untrusted memory is stale from then on and
    /// [`Enclave::reload_page`] rejects it as a rollback.
    pub fn vault_write(&mut self, env: &mut Env, slot: &str, plaintext: &[u8]) {
        let (name, mut meta) = self
            .vault
            .remove_entry(slot)
            .unwrap_or_else(|| (slot.to_owned(), SlotMeta::default()));
        let indices = &mut meta.page_indices;
        // Zero-length writes still occupy one page (one all-padding line).
        let pages = plaintext.len().div_ceil(PAGE_SIZE).max(1);
        let mut chunks = plaintext.chunks(PAGE_SIZE);
        for i in 0..pages {
            let chunk = chunks.next().unwrap_or_default();
            match indices.get(i) {
                Some(&idx) => {
                    let buf = self.epc.take_page(idx).map(|old| old.ciphertext);
                    let page = self.seal_page(chunk, buf.unwrap_or_default());
                    if let Some(expected) = self.evicted_versions.get_mut(&idx) {
                        *expected = page.version;
                    }
                    self.epc.replace_page(idx, page);
                }
                None => {
                    let page = self.seal_page(chunk, Vec::new());
                    indices.push(self.epc.push_page(page));
                }
            }
        }
        for idx in indices.drain(pages..) {
            self.epc.release_page(idx);
            self.evicted_versions.remove(&idx);
        }
        meta.len = plaintext.len();
        self.vault.insert(name, meta);
        env.clock.advance(self.cost.mee_transfer(pages as u64));
    }

    /// Encrypts `chunk`, zero-padded to [`EncryptedPage::image_len`] — whole lines,
    /// not the whole page — into `buf` under the next version. The version
    /// is both the CTR nonce and the input of the tag's pad, and the
    /// counter only ever moves forward, so neither key ever meets a
    /// version twice — the rule the cipher *and* the Carter–Wegman tag
    /// stand on. The tag covers every materialised line and, through the
    /// pad, the version.
    fn seal_page(&mut self, chunk: &[u8], mut buf: Vec<u8>) -> EncryptedPage {
        self.version_counter += 1;
        let version = self.version_counter;
        let len = EncryptedPage::image_len(chunk.len());
        buf.clear();
        buf.reserve_exact(len);
        buf.extend_from_slice(chunk);
        buf.resize(len, 0);
        self.epc_cipher
            .ctr_apply(&Self::page_nonce(version), &mut buf);
        let tag = self.page_tag(version, &buf);
        EncryptedPage {
            ciphertext: buf,
            tag,
            version,
        }
    }

    /// Reads and decrypts a vault slot into a fresh buffer of the value's
    /// length: [`Enclave::vault_read_into`] a `vec![0; len]`.
    ///
    /// # Errors
    ///
    /// As [`Enclave::vault_read_into`], which cannot refuse the buffer.
    pub fn vault_read(&mut self, env: &mut Env, slot: &str) -> Result<Vec<u8>, HmeeError> {
        // An unknown slot gets an empty buffer, which allocates nothing.
        let len = self.vault.get(slot).map_or(0, |meta| meta.len);
        let mut out = vec![0; len];
        self.vault_read_into(env, slot, &mut out)?;
        Ok(out)
    }

    /// Reads and decrypts a vault slot into `out`, verifying integrity:
    /// every page's image must have the length the slot's trusted record
    /// implies and is MAC-checked whole — every materialised line — before
    /// any of it is trusted; then only the bytes the value occupies are
    /// decrypted (CTR is seekable from the start of a page, and the line
    /// padding is never returned). The caller owns where the plaintext
    /// lands: a fixed-size key read into its secret leaves no copy in
    /// freed heap.
    ///
    /// # Errors
    ///
    /// * [`HmeeError::UnknownSlot`] when nothing was written under `slot`.
    /// * [`HmeeError::IntegrityViolation`] when the EPC ciphertext was
    ///   altered from outside (wrong image length or tag mismatch); `out`
    ///   may then hold the pages decrypted before the failing one.
    /// * [`HmeeError::EnclaveLost`] after a crash (until
    ///   [`Enclave::reload`]).
    /// * [`HmeeError::ValueLength`] when `out` is not exactly the value's
    ///   length; nothing is read or charged.
    pub fn vault_read_into(
        &mut self,
        env: &mut Env,
        slot: &str,
        out: &mut [u8],
    ) -> Result<(), HmeeError> {
        if self.lost {
            return Err(HmeeError::EnclaveLost(self.name.clone()));
        }
        let meta = self
            .vault
            .get(slot)
            .ok_or_else(|| HmeeError::UnknownSlot(slot.to_owned()))?;
        if out.len() != meta.len {
            return Err(HmeeError::ValueLength {
                stored: meta.len,
                buffer: out.len(),
            });
        }
        let mut start = 0;
        for &idx in &meta.page_indices {
            let page = self
                .epc
                .page(idx)
                .ok_or_else(|| HmeeError::IntegrityViolation("page vanished".into()))?;
            let take = (meta.len - start).min(PAGE_SIZE);
            if page.ciphertext.len() != EncryptedPage::image_len(take) {
                return Err(HmeeError::IntegrityViolation(format!(
                    "slot {slot:?} page {idx} holds a {}-byte image for {take} value bytes",
                    page.ciphertext.len()
                )));
            }
            let expected = self.page_tag(page.version, &page.ciphertext);
            if !shield5g_crypto::ct_eq(&expected, &page.tag) {
                return Err(HmeeError::IntegrityViolation(format!(
                    "slot {slot:?} page {idx} failed EPCM verification"
                )));
            }
            let dst = &mut out[start..start + take];
            dst.copy_from_slice(&page.ciphertext[..take]);
            self.epc_cipher
                .ctr_apply(&Self::page_nonce(page.version), dst);
            start += take;
        }
        let pages = meta.page_indices.len() as u64;
        env.clock.advance(self.cost.mee_transfer(pages));
        Ok(())
    }

    /// Lists vault slot names (sorted).
    #[must_use]
    pub fn vault_slots(&self) -> Vec<String> {
        let mut v: Vec<String> = self.vault.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The per-version block `version ‖ 0⁶⁴`: the CTR initial counter block
    /// under the page-cipher key, the pad input under the pad key.
    fn page_nonce(version: u64) -> [u8; 16] {
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&version.to_be_bytes());
        nonce
    }

    /// The Poly1305-AES tag of a page: `(Poly1305_r(ciphertext) +
    /// AES_k(version ‖ 0⁶⁴)) mod 2¹²⁸`. The version is bound through the
    /// pad, so the same ciphertext under another version has an unrelated
    /// tag.
    fn page_tag(&self, version: u64, ciphertext: &[u8]) -> [u8; 16] {
        let pad = self.epc_pad.encrypt_block_copy(&Self::page_nonce(version));
        self.epc_mac.tag(ciphertext, &pad)
    }

    /// **Attacker interface**: what memory introspection sees.
    #[must_use]
    pub fn epc_snapshot(&self) -> EpcSnapshot {
        self.epc.snapshot()
    }

    /// **Attacker interface**: corrupt EPC ciphertext from outside.
    /// Returns whether the targeted byte existed — `false` past a page's
    /// materialised lines.
    pub fn epc_tamper(&mut self, page_index: usize, byte_index: usize) -> bool {
        self.epc.tamper(page_index, byte_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LINE_SIZE;

    fn world() -> (Env, SgxPlatform) {
        let mut env = Env::new(11);
        let platform = SgxPlatform::new(&mut env);
        (env, platform)
    }

    fn small_enclave(env: &mut Env, platform: &SgxPlatform) -> Enclave {
        EnclaveBuilder::new("test")
            .heap_bytes(1024 * 1024)
            .measured_content("libos", 256 * 1024)
            .build(env, platform)
            .unwrap()
    }

    #[test]
    fn build_produces_measurement() {
        let (mut env, platform) = world();
        let e1 = small_enclave(&mut env, &platform);
        let e2 = small_enclave(&mut env, &platform);
        assert_eq!(
            e1.mrenclave(),
            e2.mrenclave(),
            "same build, same measurement"
        );
        let e3 = EnclaveBuilder::new("test")
            .heap_bytes(2 * 1024 * 1024)
            .measured_content("libos", 256 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        assert_ne!(
            e1.mrenclave(),
            e3.mrenclave(),
            "config change changes measurement"
        );
    }

    #[test]
    fn oversized_enclave_rejected() {
        let (mut env, platform) = world();
        let result = EnclaveBuilder::new("huge")
            .heap_bytes(65 * 1024 * 1024 * 1024 * 1024)
            .build(&mut env, &platform);
        assert!(matches!(result, Err(HmeeError::EpcExhausted { .. })));
    }

    #[test]
    fn an_unusable_cost_model_is_refused_by_field() {
        let fields = ["cpu_ghz", "epc_compute_factor", "hash_bytes_per_ns"];
        let unusable = [0.0, -2.4, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let cases = fields.iter().flat_map(|f| unusable.map(|bad| (*f, bad)));
        // The MEE factor is a slowdown: below 1.0 is out of range too.
        for (field, bad) in cases.chain([("epc_compute_factor", 0.99)]) {
            let mut cost = CostModel::default();
            match field {
                "cpu_ghz" => cost.cpu_ghz = bad,
                "epc_compute_factor" => cost.epc_compute_factor = bad,
                _ => cost.hash_bytes_per_ns = bad,
            }
            let mut env = Env::new(11);
            let platform = SgxPlatform::new(&mut env).with_cost(cost);
            let refused = EnclaveBuilder::new("bad").build(&mut env, &platform).err();
            assert_eq!(
                refused,
                Some(HmeeError::InvalidCostModel { field }),
                "{bad}"
            );
            assert_eq!(env.clock.now().as_nanos(), 0, "{field} = {bad} was charged");
        }
    }

    #[test]
    fn transitions_charge_the_models_getters_truncated_per_term() {
        let faster = CostModel {
            cpu_ghz: 2.3,
            ..CostModel::default()
        };
        // eenter, eexit, aex + eresume, ocall of 32 B, ewb, eldu
        for (cost, pinned) in [
            (
                CostModel::default(),
                [4_000, 3_500, 2_916 + 1_458, 8_582, 16_666, 16_666],
            ),
            (faster, [4_173, 3_652, 3_043 + 1_521, 8_907, 17_391, 17_391]),
        ] {
            let mut env = Env::new(11);
            let platform = SgxPlatform::new(&mut env).with_cost(cost.clone());
            let mut e = small_enclave(&mut env, &platform);
            e.vault_write(&mut env, "k", b"v");
            let mut at = Vec::new();
            let mut mark = |env: &Env| at.push(env.clock.now().as_nanos());
            mark(&env);
            e.ecall_enter(&mut env).unwrap();
            mark(&env);
            e.ecall_return(&mut env);
            mark(&env);
            e.aex(&mut env);
            mark(&env);
            e.ocall(&mut env, 32);
            mark(&env);
            let blob = e.evict_page(&mut env, 0).unwrap();
            mark(&env);
            e.reload_page(&mut env, 0, blob).unwrap();
            mark(&env);
            let spent: Vec<u64> = at.windows(2).map(|w| w[1] - w[0]).collect();
            assert_eq!(spent, pinned, "{} GHz", cost.cpu_ghz);
            let getters = [
                cost.eenter(),
                cost.eexit(),
                cost.aex() + cost.eresume(),
                cost.ocall_round_trip(32),
                cost.cycles(cost.ewb_cycles),
                cost.cycles(cost.eldu_cycles),
            ];
            assert_eq!(spent, getters.map(SimDuration::as_nanos));
            e.aex_storm(&mut env, 7);
            assert_eq!(env.clock.now().as_nanos() - at[6], 7 * pinned[2]);
        }
    }

    #[test]
    fn a_run_of_ocalls_is_each_ocall_then_its_host_time() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let t0 = env.clock.now();
        e.ocalls(&mut env, [(32, 654), (0, 0), (4096, 962)]);
        let spent = (env.clock.now() - t0).as_nanos();
        assert_eq!(spent, (8_582 + 654) + 8_550 + (8_550 + 4_096 + 962));
        assert_eq!(e.counters().ocalls, 3);
        e.ocalls(&mut env, []);
        assert_eq!((env.clock.now() - t0).as_nanos(), spent);
        assert_eq!(e.counters().eenter, 3);
    }

    #[test]
    fn vault_round_trip_and_ciphertext_only_outside() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let secret = b"K = 465b5ce8b199b49faa5f0a2ee238a6bc";
        e.vault_write(&mut env, "k", secret);
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), secret);
        assert!(!e.epc_snapshot().contains_plaintext(secret));
        assert_eq!(e.epc_snapshot().total_bytes(), LINE_SIZE);
    }

    #[test]
    fn vault_multi_page_values() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let big: Vec<u8> = (0..3 * PAGE_SIZE + 17).map(|i| (i % 251) as u8).collect();
        e.vault_write(&mut env, "big", &big);
        assert_eq!(e.vault_read(&mut env, "big").unwrap(), big);
    }

    #[test]
    fn vault_empty_value() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "empty", b"");
        assert_eq!(e.vault_read(&mut env, "empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn vault_overwrite_updates() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "s", b"v1");
        e.vault_write(&mut env, "s", b"v2");
        assert_eq!(e.vault_read(&mut env, "s").unwrap(), b"v2");
        assert_eq!(e.vault_slots(), vec!["s".to_owned()]);
    }

    #[test]
    fn unknown_slot_errors() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        assert!(matches!(
            e.vault_read(&mut env, "ghost"),
            Err(HmeeError::UnknownSlot(_))
        ));
    }

    #[test]
    fn tampering_detected_on_read() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        assert!(e.epc_tamper(0, 3));
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn identical_plaintext_pages_have_distinct_ciphertext() {
        // Version-based nonces: writing the same value twice must not leak
        // equality through the ciphertext (anti-replay/versioning).
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "a", b"same-bytes");
        e.vault_write(&mut env, "b", b"same-bytes");
        let snap = e.epc_snapshot();
        assert_ne!(snap.pages[0], snap.pages[1]);
    }

    #[test]
    fn ocall_advances_clock_and_counters() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let t0 = env.clock.now();
        e.ocall(&mut env, 128);
        assert_eq!(e.counters().ocalls, 1);
        assert_eq!(e.counters().eenter, 1);
        assert_eq!(e.counters().eexit, 1);
        assert!(env.clock.now() > t0);
    }

    #[test]
    fn thread_limit_enforced() {
        let (mut env, platform) = world();
        let mut e = EnclaveBuilder::new("t2")
            .heap_bytes(4096)
            .max_threads(2)
            .build(&mut env, &platform)
            .unwrap();
        e.ecall_enter(&mut env).unwrap();
        e.ecall_enter(&mut env).unwrap();
        assert!(matches!(
            e.ecall_enter(&mut env),
            Err(HmeeError::ThreadLimit { max_threads: 2 })
        ));
        e.ecall_return(&mut env);
        e.ecall_enter(&mut env).unwrap();
    }

    #[test]
    fn prefault_counts_aex_per_page() {
        let (mut env, platform) = world();
        let mut e = EnclaveBuilder::new("ph")
            .heap_bytes(512 * 1024 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        let t0 = env.clock.now();
        e.prefault_heap(&mut env);
        assert_eq!(e.counters().aex, 131_072);
        assert!(env.clock.now() > t0);
    }

    #[test]
    fn epc_pressure_and_paging() {
        let (mut env, platform) = world();
        // Platform with only 1 MiB of physical EPC.
        let platform = platform.with_epc_bytes(1024 * 1024);
        let mut e = EnclaveBuilder::new("big-heap")
            .heap_bytes(8 * 1024 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() > 1.0);
        let mut paged_total = 0;
        for _ in 0..50 {
            paged_total += e.maybe_page(&mut env);
        }
        assert!(paged_total > 0, "over-committed enclave must page");
        assert_eq!(e.counters().ewb, e.counters().eldu);
    }

    #[test]
    fn no_paging_under_capacity() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
    }

    #[test]
    fn evict_reload_round_trip() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"evictable secret");
        let blob = e.evict_page(&mut env, 0).unwrap();
        // While evicted, reads fail closed.
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::IntegrityViolation(_))
        ));
        e.reload_page(&mut env, 0, blob).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"evictable secret");
        assert_eq!(e.counters().ewb, 1);
        assert_eq!(e.counters().eldu, 1);
    }

    #[test]
    fn rollback_replay_rejected() {
        // The attacker captures an old version of a page and replays it
        // after the enclave updated the value in place — same page index,
        // valid MAC, and still the version tree catches it.
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"value v1");
        let stale = e.evict_page(&mut env, 0).unwrap();
        e.reload_page(&mut env, 0, stale.clone()).unwrap();
        // Enclave overwrites the slot (new version, same page index).
        e.vault_write(&mut env, "k", b"value v2");
        assert_eq!(e.epc_snapshot().pages.len(), 1);
        // Evict the rewritten page and replay the *old* blob into its slot.
        let fresh = e.evict_page(&mut env, 0).unwrap();
        assert_ne!(fresh.version, stale.version);
        let err = e.reload_page(&mut env, 0, stale).unwrap_err();
        assert!(matches!(err, HmeeError::IntegrityViolation(_)), "{err}");
        assert!(err.to_string().contains("rollback"));
        // The genuine blob still reloads.
        e.reload_page(&mut env, 0, fresh).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"value v2");
    }

    #[test]
    fn rewrites_leave_epc_occupancy_where_the_first_write_put_it() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "scratch:kausf", &[0x11; 32]);
        let pressure = e.epc_pressure();
        let accounted = e.epc.accounted_pages();
        let slots = e.epc.data_page_count();
        for i in 0..10_000u32 {
            let mut value = [0x22u8; 32];
            value[..4].copy_from_slice(&i.to_be_bytes());
            e.vault_write(&mut env, "scratch:kausf", &value);
        }
        assert_eq!(e.epc_pressure(), pressure);
        assert_eq!(e.epc.accounted_pages(), accounted);
        assert_eq!(e.epc.data_page_count(), slots);
        let last = e.vault_read(&mut env, "scratch:kausf").unwrap();
        assert_eq!(last[..4], 9_999u32.to_be_bytes());
    }

    #[test]
    fn rewrite_across_page_counts_reuses_then_releases() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "other", b"neighbour");
        e.vault_write(&mut env, "s", &[0x33; 32]);
        let one_page = e.epc.accounted_pages();
        // Growing keeps the first page's index and appends one fresh page.
        let big: Vec<u8> = (0..PAGE_SIZE + 9).map(|i| (i % 251) as u8).collect();
        e.vault_write(&mut env, "s", &big);
        assert_eq!(e.vault_read(&mut env, "s").unwrap(), big);
        assert_eq!(e.epc.accounted_pages(), one_page + 1);
        assert_eq!(e.epc.data_page_count(), 3);
        // Shrinking rewrites the first page in place and releases the
        // second: its occupancy is returned and its index retired.
        e.vault_write(&mut env, "s", &[0x44; 32]);
        assert_eq!(e.vault_read(&mut env, "s").unwrap(), [0x44; 32]);
        assert_eq!(e.epc.accounted_pages(), one_page);
        assert_eq!(e.epc.data_page_count(), 3);
        assert!(e.epc.page(2).is_none(), "surplus page released");
        assert_eq!(e.epc_snapshot().pages.len(), 2);
        assert!(matches!(
            e.evict_page(&mut env, 2),
            Err(HmeeError::UnknownSlot(_))
        ));
        assert_eq!(e.vault_read(&mut env, "other").unwrap(), b"neighbour");
    }

    #[test]
    fn write_to_evicted_page_supersedes_the_eviction() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"value v1");
        let stale = e.evict_page(&mut env, 0).unwrap();
        // The slot is rewritten while its page sits in untrusted memory.
        e.vault_write(&mut env, "k", b"value v2");
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"value v2");
        assert!(e.epc.page(0).is_some(), "page re-created resident");
        assert_eq!(e.epc.data_page_count(), 1);
        assert_eq!(e.epc.accounted_pages(), 1);
        // The blob evicted before the rewrite must not come back.
        let err = e.reload_page(&mut env, 0, stale).unwrap_err();
        assert!(matches!(err, HmeeError::IntegrityViolation(_)), "{err}");
        assert!(err.to_string().contains("rollback"));
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"value v2");
        // The page still evicts and reloads normally afterwards.
        let fresh = e.evict_page(&mut env, 0).unwrap();
        e.reload_page(&mut env, 0, fresh).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"value v2");
    }

    #[test]
    fn rewriting_the_same_plaintext_uses_a_fresh_nonce() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "s", b"same-bytes");
        let first = e.epc.page(0).unwrap().clone();
        e.vault_write(&mut env, "s", b"same-bytes");
        let second = e.epc.page(0).unwrap();
        assert_ne!(first.version, second.version);
        assert_ne!(first.ciphertext, second.ciphertext);
        assert_ne!(first.tag, second.tag);
    }

    #[test]
    fn a_rewrite_re_encrypts_every_page_byte_under_the_fresh_version() {
        // The page rule: the resident image is `(value ‖ 0-pad to the next
        // line, at least one line) ⊕ keystream(new version)`, sealed
        // whole. A rewrite that kept any block of the old image — line
        // padding included — or left a longer predecessor's surplus lines
        // behind would fail below.
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "s", &[0x5a; 48]);
        let rewrites = [
            (0xa5u8, 48),
            (0x3c, 16),
            (0, 0),
            (0x77, 200),
            (0x99, PAGE_SIZE),
            (0x11, 32),
        ];
        for (fill, len) in rewrites {
            let value = vec![fill; len];
            let previous = e.epc.page(0).unwrap().clone();
            e.vault_write(&mut env, "s", &value);
            let page = e.epc.page(0).unwrap().clone();
            assert!(page.version > previous.version);
            let icb = u128::from_be_bytes(Enclave::page_nonce(page.version));
            let mut expected = value.clone();
            expected.resize(len.div_ceil(LINE_SIZE).max(1) * LINE_SIZE, 0);
            for (i, block) in expected.chunks_mut(16).enumerate() {
                let counter = (icb + i as u128).to_be_bytes();
                let keystream = e.epc_cipher.encrypt_block_copy(&counter);
                for (b, k) in block.iter_mut().zip(keystream) {
                    *b ^= k;
                }
            }
            assert_eq!(page.ciphertext, expected);
            // Nothing else is resident: a longer predecessor's surplus
            // lines are gone, not merely unread.
            assert_eq!(e.epc_snapshot().pages, [expected]);
            let blocks = page
                .ciphertext
                .chunks(16)
                .zip(previous.ciphertext.chunks(16));
            for (i, (new, old)) in blocks.enumerate() {
                assert_ne!(new, old, "block {i} kept its old ciphertext");
            }
            assert_eq!(e.page_tag(page.version, &page.ciphertext), page.tag);
            assert_eq!(e.vault_read(&mut env, "s").unwrap(), value);
        }
    }

    #[test]
    fn tampering_beyond_the_value_is_detected() {
        // Reads decrypt only the value's prefix of the image, but the tag
        // covers every materialised line: a flipped padding byte must not
        // go unnoticed. Past the lines there is nothing to flip.
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", &[0x46; 16]);
        assert!(!e.epc_tamper(0, LINE_SIZE));
        assert!(!e.epc_tamper(0, 4000));
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), [0x46; 16]);
        assert!(e.epc_tamper(0, LINE_SIZE - 1));
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn reloaded_blobs_of_the_wrong_length_are_rejected() {
        // The blob's length is whatever the OS hands back.
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let value = [0x6b; 100];
        e.vault_write(&mut env, "k", &value);
        let blob = e.evict_page(&mut env, 0).unwrap();
        assert_eq!(blob.ciphertext.len(), 2 * LINE_SIZE);
        let resized = |len: usize| {
            let mut forged = blob.clone();
            forged.ciphertext.resize(len, 0);
            forged
        };
        for len in [0, 63, 65, PAGE_SIZE + LINE_SIZE] {
            let err = e.reload_page(&mut env, 0, resized(len)).unwrap_err();
            assert!(matches!(err, HmeeError::IntegrityViolation(_)), "{err}");
            assert!(err.to_string().contains("whole lines"), "{len}: {err}");
        }
        // Well-formed, but a line short or a (zero) line long: the tag.
        for len in [LINE_SIZE, 3 * LINE_SIZE] {
            let err = e.reload_page(&mut env, 0, resized(len)).unwrap_err();
            assert!(err.to_string().contains("failed MAC"), "{len}: {err}");
        }
        // Rejections leave the eviction pending for the genuine blob.
        e.reload_page(&mut env, 0, blob).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), value);
    }

    #[test]
    fn a_resident_page_cut_to_its_first_line_fails_closed() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "other", b"neighbour");
        let value = [0x6b; 200];
        e.vault_write(&mut env, "k", &value);
        let genuine = e.epc.page(1).unwrap().clone();
        assert_eq!(genuine.ciphertext.len(), 4 * LINE_SIZE);
        let mut cut = genuine.clone();
        cut.ciphertext.truncate(LINE_SIZE);
        e.epc.replace_page(1, cut);
        let err = e.vault_read(&mut env, "k").unwrap_err();
        assert!(matches!(err, HmeeError::IntegrityViolation(_)), "{err}");
        assert_eq!(e.vault_read(&mut env, "other").unwrap(), b"neighbour");
        e.epc.replace_page(1, genuine);
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), value);
    }

    #[test]
    fn overwrite_leaves_neither_value_visible() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let old = b"K_AUSF of the previous request..";
        let new = b"K_AUSF of the current request...";
        e.vault_write(&mut env, "scratch:kausf", old);
        e.vault_write(&mut env, "scratch:kausf", new);
        let snap = e.epc_snapshot();
        assert!(!snap.contains_plaintext(old));
        assert!(!snap.contains_plaintext(new));
        assert_eq!(snap.total_bytes(), LINE_SIZE);
    }

    #[test]
    fn tampered_evicted_blob_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let mut blob = e.evict_page(&mut env, 0).unwrap();
        blob.ciphertext[10] ^= 1;
        assert!(matches!(
            e.reload_page(&mut env, 0, blob),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn tag_bit_flips_in_an_evicted_blob_are_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let blob = e.evict_page(&mut env, 0).unwrap();
        for bit in 0..128 {
            let mut forged = blob.clone();
            forged.tag[bit / 8] ^= 1 << (bit % 8);
            let err = e.reload_page(&mut env, 0, forged).unwrap_err();
            assert!(err.to_string().contains("failed MAC"), "bit {bit}: {err}");
        }
        // Rejections leave the eviction pending for the genuine blob.
        e.reload_page(&mut env, 0, blob).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"secret");
    }

    #[test]
    fn the_tag_binds_the_version() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let blob = e.evict_page(&mut env, 0).unwrap();
        // Same ciphertext, another version: another pad, another tag.
        assert_eq!(e.page_tag(blob.version, &blob.ciphertext), blob.tag);
        assert_ne!(e.page_tag(blob.version + 1, &blob.ciphertext), blob.tag);
        // An edited version field trips the version tree ...
        let mut edited = blob.clone();
        edited.version += 1;
        let err = e.reload_page(&mut env, 0, edited.clone()).unwrap_err();
        assert!(err.to_string().contains("rollback"), "{err}");
        // ... and were the tree to agree with it, the tag would not.
        e.evicted_versions.insert(0, edited.version);
        let err = e.reload_page(&mut env, 0, edited).unwrap_err();
        assert!(err.to_string().contains("failed MAC"), "{err}");
        e.evicted_versions.insert(0, blob.version);
        e.reload_page(&mut env, 0, blob).unwrap();
    }

    #[test]
    fn ciphertext_spliced_between_resident_pages_is_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "a", b"same-bytes");
        e.vault_write(&mut env, "b", b"same-bytes");
        let a = e.epc.page(0).unwrap().clone();
        let b = e.epc.page(1).unwrap().clone();
        // A's ciphertext under B's tag and version, then with A's tag too.
        for tag in [b.tag, a.tag] {
            let spliced = EncryptedPage {
                ciphertext: a.ciphertext.clone(),
                tag,
                version: b.version,
            };
            e.epc.replace_page(1, spliced);
            assert!(matches!(
                e.vault_read(&mut env, "b"),
                Err(HmeeError::IntegrityViolation(_))
            ));
        }
        e.epc.replace_page(1, b);
        assert_eq!(e.vault_read(&mut env, "b").unwrap(), b"same-bytes");
        assert_eq!(e.vault_read(&mut env, "a").unwrap(), b"same-bytes");
    }

    #[test]
    fn reload_without_eviction_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let page = EncryptedPage {
            ciphertext: vec![0; PAGE_SIZE],
            tag: [0; 16],
            version: 0,
        };
        assert!(matches!(
            e.reload_page(&mut env, 0, page),
            Err(HmeeError::UnknownSlot(_))
        ));
        assert!(matches!(
            e.evict_page(&mut env, 99),
            Err(HmeeError::UnknownSlot(_))
        ));
    }

    #[test]
    fn enclaves_on_one_platform_are_mutually_opaque() {
        // KI 6 (function isolation): two enclaves sharing the host derive
        // distinct EPC keys from their measurements, so identical
        // plaintext produces unrelated ciphertext and neither can be
        // confused for the other.
        let (mut env, platform) = world();
        let mut a = EnclaveBuilder::new("tenant-a")
            .heap_bytes(8192)
            .build(&mut env, &platform)
            .unwrap();
        let mut b = EnclaveBuilder::new("tenant-b")
            .heap_bytes(8192)
            .build(&mut env, &platform)
            .unwrap();
        // Same image → same measurement; protection is nevertheless
        // per-instance.
        assert_eq!(a.mrenclave(), b.mrenclave());
        a.vault_write(&mut env, "s", b"shared plaintext");
        b.vault_write(&mut env, "s", b"shared plaintext");
        let pa = a.epc_snapshot().pages[0].clone();
        let pb = b.epc_snapshot().pages[0].clone();
        assert_ne!(pa, pb, "per-enclave EPC keys must differ");
        // A page lifted from B cannot be reloaded into A.
        let blob = b.evict_page(&mut env, 0).unwrap();
        let _ = a.evict_page(&mut env, 0).unwrap();
        assert!(matches!(
            a.reload_page(&mut env, 0, blob),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn lost_enclave_fails_closed_until_reload() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        e.mark_lost(&mut env);
        assert!(e.is_lost());
        assert!(matches!(
            e.ecall_enter(&mut env),
            Err(HmeeError::EnclaveLost(_))
        ));
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::EnclaveLost(_))
        ));
        // Re-marking a lost enclave is a no-op (no double log/cost).
        e.mark_lost(&mut env);
        let t0 = env.clock.now();
        let load = SimDuration::from_secs(60);
        e.reload(&mut env, load);
        assert_eq!(env.clock.now() - t0, load, "reload charges load time");
        assert!(!e.is_lost());
        // Sealed-state restore: vault contents survive the reload.
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"secret");
        e.ecall_enter(&mut env).unwrap();
        // Reloading a healthy enclave charges nothing.
        let t1 = env.clock.now();
        e.reload(&mut env, load);
        assert_eq!(env.clock.now(), t1);
    }

    #[test]
    fn aex_storm_charges_per_exit() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let before = e.counters();
        let t0 = env.clock.now();
        e.aex_storm(&mut env, 500);
        assert_eq!(e.counters().aex, before.aex + 500);
        assert_eq!(e.counters().eresume, before.eresume + 500);
        let storm = env.clock.now() - t0;
        let t1 = env.clock.now();
        e.aex(&mut env);
        let single = env.clock.now() - t1;
        assert_eq!(storm.as_nanos(), single.as_nanos() * 500);
    }

    #[test]
    fn thrash_pages_raise_pressure_and_force_paging() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
        // Impose co-resident pressure far beyond physical EPC.
        e.set_thrash_pages(platform.epc_pages() * 4);
        assert!(e.epc_pressure() > 1.0);
        let mut paged = 0;
        for _ in 0..50 {
            paged += e.maybe_page(&mut env);
        }
        assert!(paged > 0, "thrash pressure must cause paging");
        // Lifting the pressure restores residence.
        e.set_thrash_pages(0);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
    }

    #[test]
    fn compute_charges_mee_factor() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let native = SimDuration::from_micros(100);
        let charged = e.compute(&mut env, native);
        assert!(charged >= native);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        /// The page cipher and the Carter–Wegman tag are both only as
        /// good as this: whatever the vault is put through, no version is
        /// ever handed to `seal_page` twice.
        #[test]
        fn no_version_is_ever_sealed_twice(
            ops in proptest::collection::vec(proptest::array::uniform3(0u16..), 1..64),
        ) {
            use std::collections::{BTreeMap, HashSet};
            let (mut env, platform) = world();
            let mut e = small_enclave(&mut env, &platform);
            // Blobs sitting in untrusted memory, what was last seen at each
            // page index, every version seen, and the pages written.
            let mut outside: BTreeMap<usize, EncryptedPage> = BTreeMap::new();
            let mut current: HashMap<usize, (u64, [u8; 16])> = HashMap::new();
            let mut seen = HashSet::new();
            let mut sealed = 0u64;
            for [kind, slot, arg] in ops {
                let arg = usize::from(arg);
                match kind % 6 {
                    // Zero to three pages: rewrites grow, shrink, stay,
                    // repeat a value, and land on evicted pages.
                    0..=2 => {
                        let value = vec![arg as u8; arg * 5 % (2 * PAGE_SIZE + 64)];
                        e.vault_write(&mut env, &format!("slot{}", slot % 3), &value);
                        sealed += value.len().div_ceil(PAGE_SIZE).max(1) as u64;
                    }
                    3 => {
                        let index = arg % e.epc.data_page_count().max(1);
                        if let Ok(blob) = e.evict_page(&mut env, index) {
                            // A blob carries what was resident, nothing new.
                            proptest::prop_assert_eq!(current[&index], (blob.version, blob.tag));
                            outside.insert(index, blob);
                        }
                    }
                    // Possibly stale by now, and then rightly refused.
                    4 => {
                        let index = outside.keys().nth(arg % outside.len().max(1)).copied();
                        if let Some((index, blob)) = index.and_then(|i| outside.remove_entry(&i)) {
                            let _ = e.reload_page(&mut env, index, blob);
                        }
                    }
                    _ => {
                        e.mark_lost(&mut env);
                        e.reload(&mut env, SimDuration::from_secs(1));
                    }
                }
                // Every seal leaves a resident page that differs from what
                // its index held before, in version or in tag.
                for index in 0..e.epc.data_page_count() {
                    let Some(page) = e.epc.page(index) else { continue };
                    let state = (page.version, page.tag);
                    if current.insert(index, state) != Some(state) {
                        proptest::prop_assert!(
                            seen.insert(page.version),
                            "version {} sealed twice",
                            page.version
                        );
                    }
                }
            }
            proptest::prop_assert_eq!(seen.len() as u64, sealed);
            proptest::prop_assert_eq!(e.version_counter, sealed);
        }

        /// The line rule over arbitrary write sequences: what is resident
        /// is exactly the lines the last values occupy, all of it
        /// ciphertext under the tag, none of it shared between slots.
        #[test]
        fn every_image_is_the_lines_its_value_occupies(
            writes in proptest::collection::vec(proptest::array::uniform3(0u64..), 1..10),
            flip in 0usize..,
        ) {
            use std::collections::{BTreeMap, HashSet};
            let (mut env, platform) = world();
            let mut e = small_enclave(&mut env, &platform);
            let mut last: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            let mut written = Vec::new();
            let mut newest = 0;
            for [slot, len, seed] in writes {
                // Half the lengths sit around the first line boundaries,
                // where every value this tree stores lives.
                let bound = if len & 1 == 0 { 3 * LINE_SIZE } else { 2 * PAGE_SIZE + 18 };
                let len = (len >> 1) as usize % bound;
                // High-entropy bytes: a keystream under the drawn seed.
                let mut value = vec![0u8; len];
                Aes128::new(&u128::from(seed).to_be_bytes()).ctr_apply(&[0; 16], &mut value);
                let slot = format!("slot{}", slot % 3);
                e.vault_write(&mut env, &slot, &value);
                for &idx in &e.vault[&slot].page_indices {
                    let version = e.epc.page(idx).unwrap().version;
                    proptest::prop_assert!(version > newest, "version {version} after {newest}");
                    newest = version;
                }
                written.push(value.clone());
                last.insert(slot, value);
            }
            let mut pages = 0;
            for (slot, value) in &last {
                proptest::prop_assert_eq!(&e.vault_read(&mut env, slot).unwrap(), value);
                let indices = &e.vault[slot].page_indices;
                proptest::prop_assert_eq!(indices.len(), value.len().div_ceil(PAGE_SIZE).max(1));
                let mut chunks = value.chunks(PAGE_SIZE);
                for &idx in indices {
                    let lines = chunks.next().unwrap_or_default().len().div_ceil(LINE_SIZE).max(1);
                    proptest::prop_assert_eq!(e.epc.page(idx).unwrap().ciphertext.len(), lines * LINE_SIZE);
                }
                pages += indices.len();
            }
            // Accounting counts whole pages, as it did when they were whole.
            proptest::prop_assert_eq!(e.epc.accounted_pages(), pages as u64);
            let snap = e.epc_snapshot();
            proptest::prop_assert_eq!(snap.pages.len(), pages);
            let visible: HashSet<&[u8]> = snap.pages.iter().flat_map(|p| p.windows(16)).collect();
            for value in &written {
                proptest::prop_assert!(!value.windows(16).any(|w| visible.contains(w)));
            }
            // One flipped byte, anywhere that exists: its slot alone fails.
            let (mut page, mut byte) = (0, flip % snap.total_bytes());
            let image_len = loop {
                // Released indices hold nothing.
                let len = e.epc.page(page).map_or(0, |p| p.ciphertext.len());
                if byte < len {
                    break len;
                }
                byte -= len;
                page += 1;
            };
            proptest::prop_assert!(!e.epc_tamper(page, image_len), "nothing past the lines");
            proptest::prop_assert!(e.epc_tamper(page, byte));
            for (slot, value) in &last {
                let read = e.vault_read(&mut env, slot);
                if e.vault[slot].page_indices.contains(&page) {
                    proptest::prop_assert!(matches!(read, Err(HmeeError::IntegrityViolation(_))));
                } else {
                    proptest::prop_assert_eq!(&read.unwrap(), value);
                }
            }
        }

        /// `vault_read_into` is `vault_read` without the allocation: the
        /// same bytes or the same error, and the same charge, whatever
        /// was done to the slot's pages; a buffer of another length is
        /// refused before anything is read or charged.
        #[test]
        fn vault_read_into_is_vault_read(
            len in 0usize..3 * PAGE_SIZE,
            fill in 0u8..,
            attack in 0u8..5,
            at in 0usize..,
        ) {
            let (mut env, platform) = world();
            let mut e = small_enclave(&mut env, &platform);
            let value: Vec<u8> = (0..len).map(|i| fill ^ i as u8).collect();
            e.vault_write(&mut env, "k", b"an older value");
            e.vault_write(&mut env, "k", &value);
            let pages = e.vault["k"].page_indices.clone();
            let page = pages[at % pages.len()];
            match attack {
                1 => {
                    let image = e.epc.page(page).unwrap().ciphertext.len();
                    proptest::prop_assert!(e.epc_tamper(page, at % image));
                }
                2 => {
                    e.evict_page(&mut env, page).unwrap();
                }
                3 => {
                    // The stale blob is refused and the page stays out.
                    let stale = e.evict_page(&mut env, page).unwrap();
                    e.reload_page(&mut env, page, stale.clone()).unwrap();
                    e.vault_write(&mut env, "k", &value);
                    e.evict_page(&mut env, page).unwrap();
                    proptest::prop_assert!(e.reload_page(&mut env, page, stale).is_err());
                }
                4 => e.mark_lost(&mut env),
                _ => {}
            }
            for slot in ["k", "absent"] {
                let t0 = env.clock.now();
                let owned = e.vault_read(&mut env, slot);
                let t1 = env.clock.now();
                let mut out = vec![0; owned.as_ref().map_or(len, Vec::len)];
                let filled = e.vault_read_into(&mut env, slot, &mut out).map(|()| out);
                proptest::prop_assert_eq!(env.clock.now() - t1, t1 - t0);
                proptest::prop_assert_eq!(filled, owned);
            }
            let mut wrong = vec![0; len + 1];
            let t0 = env.clock.now();
            let refused = e.vault_read_into(&mut env, "k", &mut wrong);
            proptest::prop_assert_eq!(env.clock.now(), t0);
            proptest::prop_assert_eq!(wrong, vec![0; len + 1]);
            let expected = if attack == 4 {
                HmeeError::EnclaveLost("test".into())
            } else {
                HmeeError::ValueLength {
                    stored: len,
                    buffer: len + 1,
                }
            };
            proptest::prop_assert_eq!(refused, Err(expected));
        }
    }
}
