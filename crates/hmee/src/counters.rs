//! SGX transition and paging counters.
//!
//! The paper's Table III reports `EENTER`, `EEXIT` and `AEX` totals per
//! P-AKA module as "a platform-agnostic basis for comparison with other
//! proposed solutions" (§V-A2). The simulator increments these counters at
//! the same mechanical points real SGX would: OCALL round trips, ECALLs,
//! thread entries, faults and interrupts.

use serde::{Deserialize, Serialize};

/// A snapshot of the transition counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SgxCounters {
    /// Synchronous enclave entries (`EENTER`).
    pub eenter: u64,
    /// Synchronous enclave exits (`EEXIT`).
    pub eexit: u64,
    /// Asynchronous exits — faults, interrupts (`AEX`).
    pub aex: u64,
    /// Resumptions after AEX (`ERESUME`) — do **not** count as EENTER.
    pub eresume: u64,
    /// OCALLs issued (each contributes one EEXIT + one EENTER).
    pub ocalls: u64,
    /// ECALLs issued (each contributes one EENTER; Gramine performs a
    /// single ECALL for the process plus one per new thread, §V-B5).
    pub ecalls: u64,
    /// Pages evicted from EPC (`EWB`).
    pub ewb: u64,
    /// Pages reloaded into EPC (`ELDU`).
    pub eldu: u64,
}

impl SgxCounters {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` OCALL round trips: each an exit then a re-entry.
    pub fn record_ocalls(&mut self, n: u64) {
        self.ocalls += n;
        self.eexit += n;
        self.eenter += n;
    }

    /// Records an ECALL (entry that will eventually EEXIT when it returns;
    /// long-running server ECALLs may never return).
    pub fn record_ecall(&mut self) {
        self.ecalls += 1;
        self.eenter += 1;
    }

    /// Records the synchronous return of an ECALL.
    pub fn record_ecall_return(&mut self) {
        self.eexit += 1;
    }

    /// Records an asynchronous exit plus its resumption.
    pub fn record_aex_resume(&mut self) {
        self.aex += 1;
        self.eresume += 1;
    }

    /// Records a page eviction/reload pair.
    pub fn record_paging(&mut self) {
        self.ewb += 1;
        self.eldu += 1;
    }

    /// Component-wise difference (`self - earlier`), for per-registration
    /// deltas as in §V-B5.
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds `self` — counters only
    /// grow, so that indicates snapshots taken out of order.
    #[must_use]
    pub fn delta_since(&self, earlier: &SgxCounters) -> SgxCounters {
        #[expect(clippy::expect_used, reason = "counters only grow; `earlier` is first")]
        let sub = |a: u64, b: u64| a.checked_sub(b).expect("counter snapshot out of order");
        SgxCounters {
            eenter: sub(self.eenter, earlier.eenter),
            eexit: sub(self.eexit, earlier.eexit),
            aex: sub(self.aex, earlier.aex),
            eresume: sub(self.eresume, earlier.eresume),
            ocalls: sub(self.ocalls, earlier.ocalls),
            ecalls: sub(self.ecalls, earlier.ecalls),
            ewb: sub(self.ewb, earlier.ewb),
            eldu: sub(self.eldu, earlier.eldu),
        }
    }
}

impl std::fmt::Display for SgxCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EENTER={} EEXIT={} AEX={} ERESUME={} (ocalls={}, ecalls={}, ewb={}, eldu={})",
            self.eenter,
            self.eexit,
            self.aex,
            self.eresume,
            self.ocalls,
            self.ecalls,
            self.ewb,
            self.eldu
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocall_increments_both_directions() {
        let mut c = SgxCounters::new();
        c.record_ocalls(1);
        assert_eq!((c.eenter, c.eexit, c.ocalls), (1, 1, 1));
    }

    #[test]
    fn ecall_enter_without_exit_until_return() {
        let mut c = SgxCounters::new();
        c.record_ecall();
        assert_eq!((c.eenter, c.eexit), (1, 0));
        c.record_ecall_return();
        assert_eq!((c.eenter, c.eexit), (1, 1));
    }

    #[test]
    fn aex_uses_eresume_not_eenter() {
        // §V-B5: "if an application exits the enclave through AEX ... it
        // does not re-enter the enclave using the EENTER but the ERESUME".
        let mut c = SgxCounters::new();
        c.record_aex_resume();
        assert_eq!(c.aex, 1);
        assert_eq!(c.eresume, 1);
        assert_eq!(c.eenter, 0);
    }

    #[test]
    fn delta_computes_per_registration_cost() {
        let mut c = SgxCounters::new();
        for _ in 0..10 {
            c.record_ocalls(1);
        }
        let snap = c;
        for _ in 0..91 {
            c.record_ocalls(1);
        }
        let d = c.delta_since(&snap);
        assert_eq!(d.eenter, 91);
        assert_eq!(d.eexit, 91);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn delta_panics_on_reversed_snapshots() {
        let mut c = SgxCounters::new();
        c.record_ocalls(1);
        let later = c;
        let _ = SgxCounters::new().delta_since(&later);
    }

    #[test]
    fn display_is_informative() {
        let mut c = SgxCounters::new();
        c.record_ocalls(1);
        let s = c.to_string();
        assert!(s.contains("EENTER=1"));
        assert!(s.contains("EEXIT=1"));
    }
}
