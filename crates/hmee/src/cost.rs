//! The calibrated cycle/latency cost model.
//!
//! Every timing constant in the simulator lives here, with its provenance.
//! Two kinds of constants exist:
//!
//! 1. **Literature-anchored**: per-transition SGX costs. Weisse et al.
//!    (HotCalls, the paper's \[18\]) and Dinh Ngoc et al. (the paper's \[19\])
//!    place an `EENTER`/`EEXIT` round trip at 10,000–18,000 cycles; EPC
//!    paging (`EWB`/`ELDU`) at roughly 40,000 cycles per page
//!    (Costan & Devadas, the paper's \[25\]).
//! 2. **Testbed-calibrated**: container-mode baselines (handler overheads,
//!    native syscall cost, bridge latency) fitted once against the paper's
//!    *container* measurements. SGX-mode results are then **derived** from
//!    operation counts × the literature-anchored costs — they are not
//!    pasted in.
//!
//! `EXPERIMENTS.md` records the paper-vs-measured outcome for every table
//! and figure produced from this model.
//!
//! The [`CostModel`] is the single source of these constants, but not what
//! a transition reads when it is charged: an enclave converts the model to
//! nanosecond prices once, when it is built (`EnclaveBuilder::build`,
//! after [`CostModel::validate`]), through the getters below — so every
//! term is truncated exactly where its getter truncates it — and from
//! then on charging a transition is integer addition.

use crate::HmeeError;
use shield5g_sim::time::SimDuration;

/// EPC page size (SGX uses 4 KiB pages).
pub const PAGE_SIZE: usize = 4096;

/// Cache-line size: the unit the Memory Encryption Engine protects, and
/// the unit in which a vault page's image is materialised.
pub const LINE_SIZE: usize = 64;

/// The platform cost model (Xeon Silver 4314 analogue, 2.40 GHz).
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Core clock in GHz; converts cycle costs to nanoseconds.
    pub cpu_ghz: f64,
    /// Cycles for `EENTER` (entering an enclave).
    pub eenter_cycles: u64,
    /// Cycles for `EEXIT` (synchronous exit).
    pub eexit_cycles: u64,
    /// Cycles for an `AEX` (asynchronous exit: fault/interrupt).
    pub aex_cycles: u64,
    /// Cycles for `ERESUME` after an AEX.
    pub eresume_cycles: u64,
    /// LibOS marshalling overhead per OCALL round trip (argument copy,
    /// untrusted stack switch) in nanoseconds — Gramine's shielding layer.
    pub ocall_marshal_ns: u64,
    /// Extra per-byte cost of copying data across the enclave boundary.
    pub boundary_copy_ns_per_byte: u64,
    /// Nanoseconds for a native (non-enclave) syscall round trip.
    pub native_syscall_ns: u64,
    /// Nanoseconds to `EADD`+`EEXTEND` one page at build time (dominated by
    /// the 256-byte-chunk measurement updates).
    pub eadd_page_ns: u64,
    /// Nanoseconds to demand-fault one heap page inside the enclave
    /// (`EAUG` + `EACCEPT` + the AEX/OS round trip).
    pub heap_fault_ns: u64,
    /// Cycles to evict one EPC page (`EWB`: encrypt + version tree update).
    pub ewb_cycles: u64,
    /// Cycles to reload one evicted page (`ELDU`: decrypt + verify).
    pub eldu_cycles: u64,
    /// Multiplier on in-enclave compute time from Memory Encryption Engine
    /// pressure on the LLC (≥ 1.0).
    pub epc_compute_factor: f64,
    /// Effective trusted-file verification throughput in bytes per
    /// nanosecond. GSC verification reads files in chunks through OCALLs
    /// and hashes them inside the enclave, so the effective rate (~36 MB/s)
    /// is far below raw SHA-256 speed — this is what stretches enclave
    /// load to "almost a minute" for a ~2 GB trusted root FS (Fig. 7).
    pub hash_bytes_per_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_ghz: 2.4,
            // Round trip = 9_600 + 8_400 = 18_000 cycles = 7.5 µs — the top
            // of the 10k–18k band of [19], appropriate for a LibOS stack.
            eenter_cycles: 9_600,
            eexit_cycles: 8_400,
            aex_cycles: 7_000,
            eresume_cycles: 3_500,
            ocall_marshal_ns: 1_050,
            boundary_copy_ns_per_byte: 1,
            native_syscall_ns: 290,
            eadd_page_ns: 3_100,
            heap_fault_ns: 380,
            ewb_cycles: 40_000,
            eldu_cycles: 40_000,
            epc_compute_factor: 1.04,
            hash_bytes_per_ns: 0.036,
        }
    }
}

impl CostModel {
    /// Checks the three floating-point divisors and factors: a zero, negative
    /// or non-finite one would turn a conversion into `u64::MAX` ns (or 0)
    /// instead of a price.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::InvalidCostModel`] naming the first bad field.
    pub fn validate(&self) -> Result<(), HmeeError> {
        let field = if !(self.cpu_ghz.is_finite() && self.cpu_ghz > 0.0) {
            "cpu_ghz"
        } else if !(self.epc_compute_factor.is_finite() && self.epc_compute_factor >= 1.0) {
            "epc_compute_factor"
        } else if !(self.hash_bytes_per_ns.is_finite() && self.hash_bytes_per_ns > 0.0) {
            "hash_bytes_per_ns"
        } else {
            return Ok(());
        };
        Err(HmeeError::InvalidCostModel { field })
    }

    /// Converts a cycle count to a [`SimDuration`].
    #[must_use]
    pub fn cycles(&self, n: u64) -> SimDuration {
        SimDuration::from_nanos((n as f64 / self.cpu_ghz) as u64)
    }

    /// Cost of one `EENTER`.
    #[must_use]
    pub fn eenter(&self) -> SimDuration {
        self.cycles(self.eenter_cycles)
    }

    /// Cost of one `EEXIT`.
    #[must_use]
    pub fn eexit(&self) -> SimDuration {
        self.cycles(self.eexit_cycles)
    }

    /// Cost of one `AEX`.
    #[must_use]
    pub fn aex(&self) -> SimDuration {
        self.cycles(self.aex_cycles)
    }

    /// Cost of one `ERESUME`.
    #[must_use]
    pub fn eresume(&self) -> SimDuration {
        self.cycles(self.eresume_cycles)
    }

    /// Full OCALL round trip (EEXIT + marshal + EENTER) excluding the host
    /// work performed outside, for a payload of `bytes` crossing each way.
    #[must_use]
    pub fn ocall_round_trip(&self, bytes: usize) -> SimDuration {
        self.eexit()
            + self.eenter()
            + SimDuration::from_nanos(self.ocall_marshal_ns)
            + SimDuration::from_nanos(self.boundary_copy_ns_per_byte * bytes as u64)
    }

    /// Native syscall cost (container/monolithic deployments).
    #[must_use]
    pub fn native_syscall(&self) -> SimDuration {
        SimDuration::from_nanos(self.native_syscall_ns)
    }

    /// Page eviction + reload pair.
    #[must_use]
    pub fn paging_round_trip(&self) -> SimDuration {
        self.cycles(self.ewb_cycles + self.eldu_cycles)
    }

    /// MEE traffic of `pages` accounted vault pages written through or
    /// read back: `PAGE_SIZE / 2` cycles each, truncated on the sum — per
    /// accounted page, deliberately not per materialised line (moving it
    /// is a virtual-time change: ROADMAP item 2's cause table).
    #[must_use]
    pub fn mee_transfer(&self, pages: u64) -> SimDuration {
        self.cycles(pages * PAGE_SIZE as u64 / 2)
    }

    /// In-enclave compute time for work that takes `native` outside.
    #[must_use]
    pub fn enclave_compute(&self, native: SimDuration) -> SimDuration {
        SimDuration::from_nanos((native.as_nanos() as f64 * self.epc_compute_factor) as u64)
    }

    /// Time to hash `bytes` of trusted-file content at build time.
    #[must_use]
    pub fn hash_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 / self.hash_bytes_per_ns) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_round_trip_in_published_band() {
        let m = CostModel::default();
        let cycles = m.eenter_cycles + m.eexit_cycles;
        assert!(
            (10_000..=18_000).contains(&cycles),
            "round trip {cycles} cycles"
        );
    }

    #[test]
    fn cycle_conversion_uses_frequency() {
        let m = CostModel::default();
        // 2.4 GHz: 2400 cycles = 1 µs.
        assert_eq!(m.cycles(2_400), SimDuration::from_micros(1));
    }

    #[test]
    fn ocall_costs_more_than_native_syscall() {
        let m = CostModel::default();
        assert!(m.ocall_round_trip(0) > m.native_syscall() * 10);
    }

    #[test]
    fn ocall_scales_with_payload() {
        let m = CostModel::default();
        assert!(m.ocall_round_trip(4096) > m.ocall_round_trip(0));
    }

    #[test]
    fn enclave_compute_at_least_native() {
        let m = CostModel::default();
        let native = SimDuration::from_micros(47);
        assert!(m.enclave_compute(native) >= native);
    }

    #[test]
    fn paging_is_expensive() {
        let m = CostModel::default();
        // ~80k cycles ≈ 33 µs at 2.4 GHz.
        assert!(m.paging_round_trip() > SimDuration::from_micros(30));
    }

    #[test]
    fn mee_transfer_truncates_the_sum_not_each_page() {
        let m = CostModel::default();
        // 2048 cycles a page at 2.4 GHz: 853.3 ns.
        assert_eq!(m.mee_transfer(1).as_nanos(), 853);
        assert_eq!(m.mee_transfer(3).as_nanos(), 2_560);
    }

    #[test]
    fn the_shipped_model_is_usable_and_a_bad_divisor_is_named() {
        assert_eq!(CostModel::default().validate(), Ok(()));
        let stopped = CostModel {
            cpu_ghz: 0.0,
            hash_bytes_per_ns: f64::NAN,
            ..CostModel::default()
        };
        let field = "cpu_ghz";
        assert_eq!(
            stopped.validate(),
            Err(HmeeError::InvalidCostModel { field })
        );
    }

    #[test]
    fn hash_time_is_linear() {
        let m = CostModel::default();
        assert_eq!(m.hash_time(0), SimDuration::ZERO);
        let one = m.hash_time(1_000_000).as_nanos();
        let two = m.hash_time(2_000_000).as_nanos();
        assert!((two as i64 - 2 * one as i64).abs() < 4);
    }
}
