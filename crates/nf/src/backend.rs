//! The P-AKA operation table: the offload seam of paper §IV-A, Table I and
//! Fig. 5, written once.
//!
//! "The monolithic OAI VNFs (UDM, AUSF, AMF) are modified so that during
//! UE registration, the VNFs offload the sensitive functionality to their
//! respective external AKA modules." Each operation that crosses that seam
//! is one [`AkaOp`] row of this file: its REST path, its typed
//! request/response with their [`Wire`] codec, and the function itself
//! over a source of the long-term key `K`; [`error_reply`] and
//! [`reply_error`] map `NfError` to HTTP status and back for all rows.
//! Everything else is a caller. The monolithic VNFs run a row through
//! [`LocalAka`] (`K` in process memory); the container and SGX modules of
//! `shield5g-core` run the same row from their request dispatcher (`K` in
//! container memory / the EPC vault) on their own calibrated clock; the
//! VNF side of the split reaches them through `shield5g-core`'s
//! `PakaClient`, the one remote [`AkaBackend`].
//!
//! The VNF-facing interface is two-phase only: under the discrete-event
//! engine an NF cannot block on a module round trip, so
//! [`AkaBackend::begin`] either completes in place ([`BackendOp::Done`])
//! or returns the sealed request to yield as a `Step::CallOut`
//! ([`BackendOp::Call`]), and [`AkaBackend::finish`] takes the module's
//! response event.

use crate::wire::{wire, Wire};
use crate::NfError;
use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::{
    self, derive_hxres_star, derive_kamf, derive_kseaf, HeAv, ServingNetworkName,
};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_crypto::CryptoError;
use shield5g_sim::codec::{Body, Reader, Writer};
use shield5g_sim::http::{HttpRequest, HttpResponse, SharedPaths};
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::{Env, SimError};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Native execution time of the UDM AKA function (AV generation) in the
/// OAI C++ handler path — the paper's container-mode L_F median for eUDM
/// (Fig. 9a, ~47 µs).
pub const UDM_FUNC_NANOS: u64 = 47_000;
/// Native execution time of the AUSF AKA function (HXRES* + K_SEAF),
/// container-mode L_F median for eAUSF (~38 µs).
pub const AUSF_FUNC_NANOS: u64 = 38_000;
/// Native execution time of the AMF AKA function (K_AMF), container-mode
/// L_F median for eAMF (~31 µs).
pub const AMF_FUNC_NANOS: u64 = 31_000;

/// Inputs to the UDM AKA computation — exactly the paper's Table I eUDM
/// enclave inputs (OPc 16 B, RAND 16 B, SQN 6 B, AMF field 2 B) plus the
/// subscriber/serving-network identifiers needed to select the long-term
/// key `K`, which never leaves the secure module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmAkaRequest {
    /// Subscriber identity (selects `K` inside the module).
    pub supi: Supi,
    /// Operator variant constant (secret subscriber data; zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// Challenge randomness (generated by the UDM, forwarded in).
    pub rand: [u8; 16],
    /// Fresh sequence number from the UDR.
    pub sqn: [u8; 6],
    /// Authentication management field.
    pub amf_field: [u8; 2],
    /// Serving network name (binds K_AUSF and XRES*).
    pub snn: ServingNetworkName,
}

wire!(UdmAkaRequest {
    supi,
    opc,
    rand,
    sqn,
    amf_field,
    snn
});

/// Inputs to the batched UDM AV pre-generation endpoint.
///
/// One enclave round trip pays the full 91-syscall connection
/// choreography; amortising it across a batch of AVs is what makes AV
/// pre-generation worthwhile. The request carries a start SQN and a RAND
/// seed; the module derives per-AV values itself so successive AVs stay
/// unlinkable on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmAkaBatchRequest {
    /// Subscriber identity (selects `K` inside the module).
    pub supi: Supi,
    /// Operator variant constant (secret subscriber data; zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// Seed for the per-AV challenge randomness (see `batch_rand`).
    pub rand_seed: [u8; 16],
    /// SQN of the first AV; AV `i` uses `sqn_start + i`.
    pub sqn_start: [u8; 6],
    /// Authentication management field.
    pub amf_field: [u8; 2],
    /// Serving network name.
    pub snn: ServingNetworkName,
    /// Number of AVs to generate (1..=[`MAX_AV_BATCH`]).
    pub count: u32,
}

/// Upper bound on a pre-generation batch — keeps a single request's
/// in-enclave compute bounded.
pub const MAX_AV_BATCH: u32 = 256;

wire!(UdmAkaBatchRequest {
    supi,
    opc,
    rand_seed,
    sqn_start,
    amf_field,
    snn,
    count
});

/// Adds `delta` to a 48-bit big-endian SQN, wrapping modulo 2^48 (the
/// TS 33.102 SQN arithmetic).
#[must_use]
pub fn sqn_add(sqn: &[u8; 6], delta: u64) -> [u8; 6] {
    let mut wide = [0u8; 8];
    wide[2..].copy_from_slice(sqn);
    let v = u64::from_be_bytes(wide).wrapping_add(delta) & 0xffff_ffff_ffff;
    let mut out = [0u8; 6];
    out.copy_from_slice(&v.to_be_bytes()[2..]);
    out
}

/// Derives the challenge RAND for one AV of a batch: the first 16 bytes
/// of SHA-256(seed ‖ sqn). Distinct SQNs give independent-looking RANDs
/// from a single seed, so the batch request stays Table-I-sized.
#[must_use]
pub(crate) fn batch_rand(rand_seed: &[u8; 16], sqn: &[u8; 6]) -> [u8; 16] {
    let mut buf = [0u8; 22];
    buf[..16].copy_from_slice(rand_seed);
    buf[16..].copy_from_slice(sqn);
    let mut rand = [0u8; 16];
    rand.copy_from_slice(&shield5g_crypto::sha256::Sha256::digest(&buf)[..16]);
    rand
}

/// Bytes of one HE AV on the module wire: RAND, AUTN, XRES* and K_AUSF.
pub(crate) const HE_AV_LEN: usize = 16 + 16 + 16 + 32;

/// A batch of HE AVs as its wire bytes: a `u32` count, then each AV's
/// `HE_AV_LEN` bytes, in SQN order.
///
/// The module writes each AV straight into the reply buffer and the
/// frontend reads them straight out of the reply body ([`AvBatch::avs`]),
/// so neither side builds a list of `HeAv`s. Decoding is all or nothing:
/// a count above [`MAX_AV_BATCH`] ([`NfError::Protocol`]), a truncated AV
/// or a trailing byte ([`NfError::Sim`]) refuses the whole batch before
/// any AV is read. The buffer is a [`Body`], zeroed when dropped; `Debug`
/// shows each AV as `HeAv` does, keys redacted.
#[derive(PartialEq, Eq)]
pub struct AvBatch(Body);

impl AvBatch {
    /// The batch of `avs`, in order.
    pub fn from_avs<'a>(avs: impl ExactSizeIterator<Item = &'a HeAv>) -> Self {
        let mut w = Writer::with_capacity(Self::wire_len(avs.len()));
        w.put_u32(avs.len() as u32);
        for av in avs {
            av.encode_into(&mut w);
        }
        AvBatch(w.into_bytes())
    }

    /// Wire length of a batch of `count` AVs.
    #[must_use]
    pub(crate) const fn wire_len(count: usize) -> usize {
        4 + HE_AV_LEN * count
    }

    /// Checks that `bytes` is one whole batch, then reads its AVs in
    /// order, one per step of the iterator: nothing is read from a body
    /// that is refused.
    ///
    /// # Errors
    ///
    /// [`NfError::Protocol`] for a count above [`MAX_AV_BATCH`],
    /// [`NfError::Sim`] for a truncated AV or trailing bytes.
    pub fn avs(bytes: &[u8]) -> Result<Avs<'_>, NfError> {
        let count = Self::count(&mut Reader::new(bytes))?;
        let avs = bytes.get(4..).unwrap_or_default();
        let want = HE_AV_LEN * count;
        if avs.len() != want {
            return Err(SimError::MalformedHttp(format!(
                "AV batch of {count} is {want} bytes, have {}",
                avs.len()
            ))
            .into());
        }
        Ok(Avs(avs.chunks_exact(HE_AV_LEN)))
    }

    /// Reads a batch's count, refusing one above [`MAX_AV_BATCH`] before
    /// anything is read or allocated for it.
    fn count(r: &mut Reader<'_>) -> Result<usize, NfError> {
        let count = r.u32()?;
        if count > MAX_AV_BATCH {
            return Err(NfError::Protocol(format!("implausible AV batch {count}")));
        }
        Ok(count as usize)
    }

    /// This batch's AVs, in order.
    #[must_use]
    pub fn iter(&self) -> Avs<'_> {
        Avs(self.0.get(4..).unwrap_or_default().chunks_exact(HE_AV_LEN))
    }

    /// AVs in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.iter().len()
    }

    /// Whether the batch holds no AV.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// K_AUSF of the last AV, the one the module leaves in its working
    /// memory.
    #[must_use]
    pub fn last_kausf(&self) -> Option<SecretBytes<32>> {
        self.iter().next_back().map(|av| av.kausf)
    }
}

impl Wire for AvBatch {
    fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for av in self.iter() {
            av.encode_into(w);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, NfError> {
        let count = Self::count(r)?;
        let mut w = Writer::with_capacity(Self::wire_len(count));
        w.put_u32(count as u32);
        for _ in 0..count {
            HeAv::decode_from(r)?.encode_into(&mut w);
        }
        Ok(AvBatch(w.into_bytes()))
    }

    fn into_body(self) -> Body {
        self.0
    }
}

impl std::fmt::Debug for AvBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The AVs of a checked batch ([`AvBatch::avs`]), decoded one at a time.
pub struct Avs<'a>(std::slice::ChunksExact<'a, u8>);

impl Avs<'_> {
    /// An AV's bytes are fixed-size fields, so a whole chunk always decodes.
    #[inline]
    fn decode(chunk: &[u8]) -> Option<HeAv> {
        HeAv::decode_from(&mut Reader::new(chunk)).ok()
    }
}

impl Iterator for Avs<'_> {
    type Item = HeAv;

    // Inlined into the cache's extend, in another crate.
    #[inline]
    fn next(&mut self) -> Option<HeAv> {
        self.0.next().and_then(Self::decode)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Avs<'_> {
    fn next_back(&mut self) -> Option<HeAv> {
        self.0.next_back().and_then(Self::decode)
    }
}

impl ExactSizeIterator for Avs<'_> {}

/// Inputs to the UDM AUTS check — Table I eUDM re-synchronisation inputs
/// (OPc 16 B, RAND 16 B, AUTS 14 B) plus the SUPI that selects `K`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmAkaResyncRequest {
    /// Subscriber identity (selects `K` inside the module).
    pub supi: Supi,
    /// Operator variant constant (secret subscriber data; zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// The challenge the UE answered with a synchronisation failure.
    pub rand: [u8; 16],
    /// The UE's re-synchronisation token.
    pub auts: Auts,
}

wire!(UdmAkaResyncRequest {
    supi,
    opc,
    rand,
    auts
});

/// Inputs to the AUSF AKA computation — Table I eAUSF enclave inputs
/// (RAND 16 B, XRES* 16 B, SNN, K_AUSF 32 B).
#[derive(Clone, PartialEq, Eq)]
pub struct AusfAkaRequest {
    /// Challenge randomness from the HE AV.
    pub rand: [u8; 16],
    /// Expected response from the HE AV (zeroizes on drop).
    pub xres_star: SecretBytes<16>,
    /// UDM/AUSF shared key from the HE AV (zeroizes on drop).
    pub kausf: SecretBytes<32>,
    /// Serving network name.
    pub snn: ServingNetworkName,
}

impl std::fmt::Debug for AusfAkaRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AusfAkaRequest")
            .field("keys", &"<redacted>")
            .finish()
    }
}

wire!(AusfAkaRequest {
    rand,
    xres_star,
    kausf,
    snn
});

/// Outputs of the AUSF AKA computation — Table I eAUSF enclave outputs
/// (HXRES* and K_SEAF).
#[derive(Clone, PartialEq, Eq)]
pub struct AusfAkaResponse {
    /// Hashed expected response for the SE AV.
    pub hxres_star: [u8; 16],
    /// The serving anchor key (held by AUSF until RES* confirmation;
    /// zeroizes on drop).
    pub kseaf: SecretBytes<32>,
}

impl std::fmt::Debug for AusfAkaResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AusfAkaResponse")
            .field("keys", &"<redacted>")
            .finish()
    }
}

wire!(AusfAkaResponse { hxres_star, kseaf });

/// Inputs to the AMF AKA computation — Table I eAMF enclave input
/// (K_SEAF 32 B) plus the K_AMF binding parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AmfAkaRequest {
    /// The anchor key released by AUSF after confirmation (zeroizes on
    /// drop).
    pub kseaf: SecretBytes<32>,
    /// Subscriber identity (K_AMF binds to SUPI).
    pub supi: Supi,
    /// Anti-bidding-down parameter.
    pub abba: [u8; 2],
}

wire!(AmfAkaRequest { kseaf, supi, abba });

/// Resolves a SUPI to the subscriber's long-term key `K`, wherever the
/// deployment keeps it.
pub trait KeySource: FnMut(Supi) -> Result<SecretBytes<16>, NfError> {}

impl<F: FnMut(Supi) -> Result<SecretBytes<16>, NfError>> KeySource for F {}

/// One row of the operation table: a sensitive function the paper moves
/// behind the enclave boundary.
pub trait AkaOp {
    /// REST path of the function's endpoint handler on its module.
    const PATH: &'static str;
    /// Native execution time of one run of the function on the OAI C++
    /// handler path: what a monolithic VNF is charged. (The extracted
    /// modules charge their kind's calibrated L_F instead.)
    const FUNC_NANOS: u64;
    /// Table I enclave inputs.
    type Request: Wire;
    /// Table I enclave outputs.
    type Response: Wire;

    /// The function itself; only the eUDM rows ask `key_of` for a key.
    ///
    /// # Errors
    ///
    /// Whatever `key_of` returns for an unprovisioned SUPI
    /// ([`NfError::SubscriberUnknown`]), [`NfError::Crypto`] when MAC-S
    /// fails, [`NfError::Protocol`] for an out-of-range batch.
    fn compute(req: &Self::Request, key_of: impl KeySource) -> Result<Self::Response, NfError>;

    /// How many runs of the function the request costs.
    fn executions(_req: &Self::Request) -> u32 {
        1
    }

    /// The HTTPS request that carries `req` to the module, on the handle
    /// `paths` keeps for [`Self::PATH`]: a driver sending many shares one.
    fn request(paths: &mut SharedPaths, req: &Self::Request) -> HttpRequest {
        HttpRequest::post(paths.get(Self::PATH), req.encode())
    }
}

/// eUDM: HE AV generation (f1, f2345, K_AUSF, AUTN).
pub struct GenerateAv;

impl AkaOp for GenerateAv {
    const PATH: &'static str = "/eudm/generate-av";
    const FUNC_NANOS: u64 = UDM_FUNC_NANOS;
    type Request = UdmAkaRequest;
    type Response = HeAv;

    fn compute(req: &UdmAkaRequest, mut key_of: impl KeySource) -> Result<HeAv, NfError> {
        let mil = Milenage::new(&key_of(req.supi)?, &req.opc);
        Ok(keys::generate_he_av(
            &mil,
            &req.rand,
            &req.sqn,
            &req.amf_field,
            &req.snn,
        ))
    }
}

/// eUDM: a batch of HE AVs for one connection choreography; AV `i` uses
/// `sqn_start + i` and `batch_rand` of it.
pub struct GenerateAvBatch;

impl AkaOp for GenerateAvBatch {
    const PATH: &'static str = "/eudm/generate-av-batch";
    const FUNC_NANOS: u64 = UDM_FUNC_NANOS;
    type Request = UdmAkaBatchRequest;
    type Response = AvBatch;

    fn compute(req: &UdmAkaBatchRequest, mut key_of: impl KeySource) -> Result<AvBatch, NfError> {
        if req.count == 0 || req.count > MAX_AV_BATCH {
            return Err(NfError::Protocol(format!(
                "AV batch count {} outside 1..={MAX_AV_BATCH}",
                req.count
            )));
        }
        let mil = Milenage::new(&key_of(req.supi)?, &req.opc);
        let mut w = Writer::with_capacity(AvBatch::wire_len(req.count as usize));
        w.put_u32(req.count);
        for i in 0..req.count {
            let sqn = sqn_add(&req.sqn_start, u64::from(i));
            let rand = batch_rand(&req.rand_seed, &sqn);
            keys::generate_he_av(&mil, &rand, &sqn, &req.amf_field, &req.snn).encode_into(&mut w);
        }
        Ok(AvBatch(w.into_bytes()))
    }

    fn executions(req: &UdmAkaBatchRequest) -> u32 {
        req.count
    }
}

/// eUDM: AUTS verification, returning `SQN_MS` (TS 33.102 §6.3.5).
pub struct Resync;

impl AkaOp for Resync {
    const PATH: &'static str = "/eudm/resync";
    const FUNC_NANOS: u64 = UDM_FUNC_NANOS / 2;
    type Request = UdmAkaResyncRequest;
    type Response = [u8; 6];

    fn compute(req: &UdmAkaResyncRequest, mut key_of: impl KeySource) -> Result<[u8; 6], NfError> {
        let mil = Milenage::new(&key_of(req.supi)?, &req.opc);
        Ok(req.auts.verify(&mil, &req.rand)?)
    }
}

/// eAUSF: the SE parameters HXRES* and K_SEAF from the HE AV.
pub struct DeriveSe;

impl AkaOp for DeriveSe {
    const PATH: &'static str = "/eausf/derive-se";
    const FUNC_NANOS: u64 = AUSF_FUNC_NANOS;
    type Request = AusfAkaRequest;
    type Response = AusfAkaResponse;

    fn compute(req: &AusfAkaRequest, _key_of: impl KeySource) -> Result<AusfAkaResponse, NfError> {
        Ok(AusfAkaResponse {
            hxres_star: derive_hxres_star(&req.rand, &req.xres_star),
            kseaf: derive_kseaf(&req.kausf, &req.snn),
        })
    }
}

/// eAMF: K_AMF from K_SEAF, bound to SUPI and ABBA.
pub struct DeriveKamf;

impl AkaOp for DeriveKamf {
    const PATH: &'static str = "/eamf/derive-kamf";
    const FUNC_NANOS: u64 = AMF_FUNC_NANOS;
    type Request = AmfAkaRequest;
    type Response = SecretBytes<32>;

    fn compute(req: &AmfAkaRequest, _key_of: impl KeySource) -> Result<SecretBytes<32>, NfError> {
        Ok(derive_kamf(&req.kseaf, req.supi.as_str(), &req.abba))
    }
}

/// Module side of the error mapping: the HTTP reply to a failed
/// operation, its body the error's display form (a crypto failure's own)
/// formatted into a spare buffer, so a refusal allocates nothing.
#[must_use]
pub fn error_reply(e: &NfError) -> HttpResponse {
    match e {
        NfError::SubscriberUnknown(_) => HttpResponse::error(404, e),
        NfError::Crypto(e) => HttpResponse::error(403, e),
        e => HttpResponse::error(400, e),
    }
}

/// VNF side of the error mapping: the failure a non-2xx module reply
/// stands for. Inverts [`error_reply`] for every cause a row's `compute`
/// can raise (a 400 body is the error's display form, hence `Protocol`'s
/// lead-in), so a VNF sees the same error whichever deployment ran the
/// function. A 404 whose text names no SUPI is the module's own failure.
#[must_use]
pub fn reply_error(status: u16, detail: &str) -> NfError {
    let after = |lead: &str| detail.strip_prefix(lead).unwrap_or(detail).to_owned();
    let unknown = detail
        .strip_prefix("unknown subscriber ")
        .and_then(|supi| Supi::parse(supi).ok());
    match (status, unknown) {
        (404, Some(supi)) => NfError::SubscriberUnknown(supi),
        (403, _) => NfError::Crypto(CryptoError::MacMismatch),
        (400, _) => NfError::Protocol(after("protocol violation: ")),
        _ => NfError::Backend(format!("module replied {status}: {detail}")),
    }
}

/// Continuation of a [`BackendOp::Call`], handed back to
/// [`AkaBackend::finish`] with the module's response.
#[derive(Clone, Copy, Debug)]
pub struct CallToken {
    /// When the VNF issued the request (anchors the response time R).
    pub issued: SimTime,
}

/// Outcome of [`AkaBackend::begin`].
pub enum BackendOp<T> {
    /// Computed without a network round trip.
    Done(Result<T, NfError>),
    /// The backend needs a round trip to its shielded module.
    Call {
        /// Engine endpoint of the module (e.g. `eudm-paka.oai`), as the
        /// client's shared handle for it.
        dest: Rc<str>,
        /// The (already sealed and latency-charged) outbound request.
        req: HttpRequest,
        /// Continuation state for [`AkaBackend::finish`].
        token: CallToken,
    },
}

/// Where a VNF sends operation `O`: in-process ([`LocalAka`]) or to a
/// P-AKA module (`shield5g-core`'s `PakaClient`). An NF holds a backend
/// for its own rows only, so it cannot be handed another NF's operation.
pub trait AkaBackend<O: AkaOp> {
    /// Starts the operation: done in place, or the module call to yield.
    fn begin(&mut self, env: &mut Env, req: &O::Request) -> BackendOp<O::Response>;

    /// Completes a [`BackendOp::Call`] with the module's response: the
    /// output, the operation's failure as [`reply_error`] maps it, or
    /// [`NfError::Backend`] when no call was pending.
    fn finish(
        &mut self,
        env: &mut Env,
        token: CallToken,
        resp: HttpResponse,
    ) -> Result<O::Response, NfError>;
}

/// The UDM's two rows: HE AV generation and AUTS handling.
pub trait UdmAkaBackend: AkaBackend<GenerateAv> + AkaBackend<Resync> {}

impl<B: AkaBackend<GenerateAv> + AkaBackend<Resync>> UdmAkaBackend for B {}

/// In-process AKA (the monolithic baseline) for any row. Long-term keys
/// live in ordinary process memory — precisely what §III's attacker
/// harvests; the AUSF and AMF rows need none.
#[derive(Default)]
pub struct LocalAka {
    pub(crate) keys: BTreeMap<String, SecretBytes<16>>,
}

impl std::fmt::Debug for LocalAka {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalAka")
            .field("subscribers", &self.keys.len())
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl LocalAka {
    /// Provisions a subscriber's long-term key.
    pub fn provision(&mut self, supi: impl Into<String>, k: impl Into<SecretBytes<16>>) {
        self.keys.insert(supi.into(), k.into());
    }
}

impl<O: AkaOp> AkaBackend<O> for LocalAka {
    fn begin(&mut self, env: &mut Env, req: &O::Request) -> BackendOp<O::Response> {
        let out = O::compute(req, |supi| match self.keys.get(supi.as_str()) {
            Some(k) => Ok(k.clone()),
            None => Err(NfError::SubscriberUnknown(supi)),
        });
        // A request refused up front (unknown SUPI, out-of-range batch)
        // never runs the function and is not charged for it.
        if out.is_ok() || matches!(out, Err(NfError::Crypto(_))) {
            let runs = u64::from(O::executions(req));
            env.clock
                .advance(SimDuration::from_nanos(O::FUNC_NANOS * runs));
        }
        BackendOp::Done(out)
    }

    fn finish(
        &mut self,
        _env: &mut Env,
        _token: CallToken,
        _resp: HttpResponse,
    ) -> Result<O::Response, NfError> {
        Err(NfError::Backend(
            "in-process backend has no module call pending".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::codec::Body;

    const SUPI: &str = "imsi-001010000000001";

    fn snn() -> ServingNetworkName {
        ServingNetworkName::new("001", "01")
    }

    fn udm_request() -> UdmAkaRequest {
        UdmAkaRequest {
            supi: crate::tests::imsi(SUPI),
            opc: [0xcd; 16].into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 33],
            amf_field: [0x80, 0],
            snn: snn(),
        }
    }

    fn local_udm() -> LocalAka {
        let mut backend = LocalAka::default();
        backend.provision(SUPI, [0x46; 16]);
        backend
    }

    /// Runs `req` on the in-process backend, which never calls out.
    fn run<O: AkaOp>(
        env: &mut Env,
        backend: &mut LocalAka,
        req: &O::Request,
    ) -> Result<O::Response, NfError> {
        match AkaBackend::<O>::begin(backend, env, req) {
            BackendOp::Done(out) => out,
            BackendOp::Call { dest, .. } => panic!("in-process backend called out to {dest}"),
        }
    }

    /// Virtual nanoseconds a successful `req` costs in process.
    fn charged<O: AkaOp>(env: &mut Env, backend: &mut LocalAka, req: &O::Request) -> u64 {
        let t0 = env.clock.now();
        run::<O>(env, backend, req).unwrap();
        (env.clock.now() - t0).as_nanos()
    }

    fn snn_wire(s: &str) -> Body {
        Writer::build(|w| {
            w.put_str(s);
        })
    }

    #[test]
    fn snn_string_round_trip() {
        for s in [snn(), ServingNetworkName::new("310", "260")] {
            assert_eq!(ServingNetworkName::decode(&s.encode()), Ok(s));
        }
        assert!(ServingNetworkName::decode(&snn_wire("garbage")).is_err());
    }

    #[test]
    fn an_snn_decodes_only_to_the_bytes_that_were_sent() {
        for sent in [
            "5G:mnc1.mcc001.3gppnetwork.org",
            "5G:mnc01.mcc001.3gppnetwork.org",
            "5G:mnc001.mcc001.3gppnetwork.org.evil",
            "5G:mncXY.mcc!!.3gppnetwork.org",
            "5G:mnc001.mcc001.mcc001.3gppnetwork.org",
        ] {
            assert!(
                matches!(
                    ServingNetworkName::decode(&snn_wire(sent)),
                    Err(NfError::Protocol(_))
                ),
                "{sent}"
            );
        }
    }

    #[test]
    fn udm_request_wire_sizes_match_table1() {
        // Table I eUDM inputs: OPc 16 + RAND 16 + SQN 6 + AMF 2 = 40 bytes
        // of cryptographic parameters (plus identity strings for routing).
        let req = udm_request();
        let crypto_bytes = 16 + 16 + 6 + 2;
        assert!(req.encode().len() >= crypto_bytes);
    }

    #[test]
    fn sqn_add_carries_and_wraps() {
        assert_eq!(sqn_add(&[0, 0, 0, 0, 0, 0xff], 1), [0, 0, 0, 0, 1, 0]);
        assert_eq!(sqn_add(&[0, 0, 0, 0, 0, 1], 5), [0, 0, 0, 0, 0, 6]);
        assert_eq!(sqn_add(&[0xff; 6], 1), [0; 6]);
    }

    #[test]
    fn batch_rand_distinct_per_sqn() {
        let seed = [7; 16];
        let a = batch_rand(&seed, &[0, 0, 0, 0, 0, 1]);
        let b = batch_rand(&seed, &[0, 0, 0, 0, 0, 2]);
        assert_ne!(a, b);
        assert_eq!(a, batch_rand(&seed, &[0, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn output_decoders_refuse_implausible_bodies() {
        let empty = AvBatch::from_avs([].iter());
        assert_eq!(AvBatch::decode(&empty.encode()), Ok(empty));
        let mut bogus = Writer::new();
        bogus.put_u32(MAX_AV_BATCH + 1);
        assert!(AvBatch::decode(&bogus.into_bytes()).is_err());
        assert!(HeAv::decode(&[0; 10]).is_err());
        assert!(<[u8; 6]>::decode(&[0; 7]).is_err());
        assert!(SecretBytes::<32>::decode(&[0; 31]).is_err());
    }

    #[test]
    fn a_batch_decodes_all_or_nothing() {
        let av = |tag: u8| HeAv {
            rand: [tag; 16],
            autn: [tag; 16],
            xres_star: [tag; 16].into(),
            kausf: [tag; 32].into(),
        };
        let batch = AvBatch::from_avs([av(1), av(2)].iter());
        let bytes = batch.encode();
        assert_eq!(bytes.len(), AvBatch::wire_len(2));
        assert_eq!(
            AvBatch::avs(&bytes).unwrap().collect::<Vec<_>>(),
            [av(1), av(2)]
        );
        assert_eq!(batch.last_kausf(), Some(av(2).kausf));
        let mut over = Writer::new();
        over.put_u32(MAX_AV_BATCH + 1);
        let over = [&over.into_bytes()[..], &[0; HE_AV_LEN]].concat();
        assert!(matches!(AvBatch::avs(&over), Err(NfError::Protocol(_))));
        assert!(matches!(AvBatch::decode(&over), Err(NfError::Protocol(_))));
        for framing in [&bytes[..bytes.len() - 1], &[&bytes[..], &[0]].concat()] {
            assert!(matches!(AvBatch::avs(framing), Err(NfError::Sim(_))));
            assert!(matches!(AvBatch::decode(framing), Err(NfError::Sim(_))));
        }
    }

    #[test]
    fn the_module_writes_the_batch_the_avs_encode_to() {
        let req = UdmAkaBatchRequest {
            supi: crate::tests::imsi(SUPI),
            opc: [0xcd; 16].into(),
            rand_seed: [0x23; 16],
            sqn_start: [0, 0, 0, 0, 0, 0xfe],
            amf_field: [0x80, 0],
            snn: snn(),
            count: 3,
        };
        let batch = GenerateAvBatch::compute(&req, |_| Ok([0x46; 16].into())).unwrap();
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let avs: Vec<HeAv> = (0..3)
            .map(|i| {
                let sqn = sqn_add(&req.sqn_start, i);
                let rand = batch_rand(&req.rand_seed, &sqn);
                keys::generate_he_av(&mil, &rand, &sqn, &req.amf_field, &req.snn)
            })
            .collect();
        assert_eq!(batch, AvBatch::from_avs(avs.iter()));
        assert_eq!(batch.iter().collect::<Vec<_>>(), avs);
        assert_eq!(batch.last_kausf(), Some(avs[2].kausf.clone()));
    }

    #[test]
    fn error_mapping_round_trips_for_every_cause_a_row_raises() {
        for (cause, status) in [
            (NfError::SubscriberUnknown(crate::tests::imsi(SUPI)), 404),
            (NfError::Crypto(CryptoError::MacMismatch), 403),
            (
                NfError::Protocol("AV batch count 0 outside 1..=256".into()),
                400,
            ),
        ] {
            let reply = error_reply(&cause);
            assert_eq!(reply.status, status);
            let detail = String::from_utf8(reply.body.to_vec()).unwrap();
            assert_eq!(reply_error(status, &detail), cause);
        }
        // A framing violation is a 400 too; anything else is the module's
        // own failure.
        let truncated = UdmAkaRequest::decode(&[0; 3]).unwrap_err();
        assert_eq!(error_reply(&truncated).status, 400);
        assert!(matches!(reply_error(503, "busy"), NfError::Backend(_)));
        assert!(matches!(
            reply_error(404, "no handler for /x"),
            NfError::Backend(_)
        ));
    }

    #[test]
    fn local_udm_generates_verifiable_av() {
        let mut env = Env::new(1);
        let req = udm_request();
        let av = run::<GenerateAv>(&mut env, &mut local_udm(), &req).unwrap();
        // UE side (same K/OPc) must accept.
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let ue =
            shield5g_crypto::keys::ue_process_challenge(&mil, &req.rand, &av.autn, &snn()).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
    }

    #[test]
    fn local_udm_unknown_subscriber_is_refused_uncharged() {
        let mut env = Env::new(1);
        let t0 = env.clock.now();
        assert_eq!(
            run::<GenerateAv>(&mut env, &mut LocalAka::default(), &udm_request()),
            Err(NfError::SubscriberUnknown(crate::tests::imsi(SUPI)))
        );
        assert_eq!(env.clock.now(), t0);
    }

    #[test]
    fn local_backend_charges_functional_time_per_run() {
        let mut env = Env::new(1);
        let mut backend = local_udm();
        assert_eq!(
            charged::<GenerateAv>(&mut env, &mut backend, &udm_request()),
            UDM_FUNC_NANOS
        );

        let batch = UdmAkaBatchRequest {
            supi: crate::tests::imsi(SUPI),
            opc: [0xcd; 16].into(),
            rand_seed: [0x23; 16],
            sqn_start: [0, 0, 0, 0, 0, 33],
            amf_field: [0x80, 0],
            snn: snn(),
            count: 3,
        };
        assert_eq!(
            charged::<GenerateAvBatch>(&mut env, &mut backend, &batch),
            3 * UDM_FUNC_NANOS
        );

        let se = AusfAkaRequest {
            rand: [0; 16],
            xres_star: [0; 16].into(),
            kausf: [0; 32].into(),
            snn: snn(),
        };
        assert_eq!(
            charged::<DeriveSe>(&mut env, &mut backend, &se),
            AUSF_FUNC_NANOS
        );

        let kamf = AmfAkaRequest {
            kseaf: [0; 32].into(),
            supi: crate::tests::imsi(SUPI),
            abba: [0, 0],
        };
        assert_eq!(
            charged::<DeriveKamf>(&mut env, &mut backend, &kamf),
            AMF_FUNC_NANOS
        );
    }

    #[test]
    fn resync_round_trip_through_backend() {
        let mut env = Env::new(1);
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let rand = [0x23; 16];
        let sqn_ms = [0, 0, 0, 0, 1, 99];
        let req = UdmAkaResyncRequest {
            supi: crate::tests::imsi(SUPI),
            opc: [0xcd; 16].into(),
            rand,
            auts: Auts::generate(&mil, &rand, &sqn_ms),
        };
        let mut backend = local_udm();
        assert_eq!(run::<Resync>(&mut env, &mut backend, &req), Ok(sqn_ms));
        assert_eq!(
            charged::<Resync>(&mut env, &mut backend, &req),
            UDM_FUNC_NANOS / 2
        );
    }

    #[test]
    fn local_backend_has_no_call_to_finish() {
        let mut env = Env::new(1);
        let token = CallToken {
            issued: env.clock.now(),
        };
        let out = AkaBackend::<DeriveKamf>::finish(
            &mut LocalAka::default(),
            &mut env,
            token,
            HttpResponse::ok(vec![0; 32]),
        );
        assert!(matches!(out, Err(NfError::Backend(_))));
    }
}
