//! Sequence-number (SQN) management and re-synchronisation
//! (TS 33.102 Annex C).
//!
//! The paper's Table I lists `SQN` among the parameters the UDM sends into
//! the eUDM P-AKA enclave; its freshness is what defeats replay of
//! authentication vectors. The home network generates monotonically
//! increasing SQNs partitioned by an index `IND`; the USIM tracks the
//! highest accepted `SEQ` per index and requests re-synchronisation (AUTS)
//! when a received value falls outside the window.

use crate::milenage::Milenage;
use crate::CryptoError;

/// Number of IND slots in the USIM's SQN array (2^IND_BITS).
pub(crate) const IND_SLOTS: usize = 32;
/// Bits of the SQN devoted to the index.
pub(crate) const IND_BITS: u32 = 5;
/// Maximum jump in SEQ the USIM accepts before declaring desynchronisation.
pub(crate) const DELTA: u64 = 1 << 28;

/// Packs a SQN value into its 6-byte big-endian wire form, wrapping
/// modulo 2^48 — the same masked arithmetic as `sqn_add` on the NF
/// side, so a wrapped generator value fed back through this crate
/// round-trips instead of panicking.
#[must_use]
pub fn sqn_to_bytes(sqn: u64) -> [u8; 6] {
    let b = (sqn & 0xffff_ffff_ffff).to_be_bytes();
    [b[2], b[3], b[4], b[5], b[6], b[7]]
}

/// Unpacks a 6-byte big-endian SQN.
#[must_use]
pub fn sqn_from_bytes(bytes: &[u8; 6]) -> u64 {
    let mut b = [0u8; 8];
    b[2..].copy_from_slice(bytes);
    u64::from_be_bytes(b)
}

/// Home-network side: generates fresh SQNs (TS 33.102 C.1.2, the
/// time-independent counter scheme).
#[derive(Clone, Debug, Default)]
pub struct SqnGenerator {
    seq: u64,
    next_ind: u8,
}

impl SqnGenerator {
    /// Creates a generator starting from `SEQ = 0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current SEQ counter value.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Produces the next SQN: increments SEQ and cycles IND.
    pub fn next_sqn(&mut self) -> [u8; 6] {
        self.seq += 1;
        let ind = u64::from(self.next_ind);
        self.next_ind = (self.next_ind + 1) % IND_SLOTS as u8;
        sqn_to_bytes((self.seq << IND_BITS) | ind)
    }

    /// Jumps SEQ forward after a re-synchronisation reported `sqn_ms`.
    pub fn resynchronise(&mut self, sqn_ms: &[u8; 6]) {
        let seq_ms = sqn_from_bytes(sqn_ms) >> IND_BITS;
        if seq_ms >= self.seq {
            self.seq = seq_ms + 1;
        }
    }
}

/// USIM side: the per-IND array of highest accepted SEQ values
/// (TS 33.102 C.2.2).
#[derive(Clone, Debug, Default)]
pub struct SqnVerifier {
    seq_ms: [u64; IND_SLOTS],
}

impl SqnVerifier {
    /// Creates a verifier that has accepted nothing yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The highest SEQ accepted in any slot (`SEQ_MS`).
    #[must_use]
    pub(crate) fn highest_seq(&self) -> u64 {
        self.seq_ms.iter().copied().max().unwrap_or(0)
    }

    /// The current SQN_MS (highest SEQ with its slot index), as reported in
    /// a re-synchronisation AUTS.
    #[must_use]
    pub fn sqn_ms(&self) -> [u8; 6] {
        let (ind, seq) = self
            .seq_ms
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, s)| (s, core::cmp::Reverse(i)))
            .unwrap_or((0, 0));
        sqn_to_bytes((seq << IND_BITS) | ind as u64)
    }

    /// Checks and accepts a received SQN.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::SqnOutOfRange`] when the SEQ is not greater
    /// than the stored value for its IND slot, or jumps past the allowed
    /// `DELTA` — both trigger the AUTS re-synchronisation procedure.
    pub fn accept(&mut self, sqn: &[u8; 6]) -> Result<(), CryptoError> {
        let v = sqn_from_bytes(sqn);
        let seq = v >> IND_BITS;
        let ind = (v & (IND_SLOTS as u64 - 1)) as usize;
        let highest = self.highest_seq();
        if seq <= self.seq_ms[ind] || seq > highest + DELTA {
            return Err(CryptoError::SqnOutOfRange {
                received: seq,
                highest_accepted: highest,
            });
        }
        self.seq_ms[ind] = seq;
        Ok(())
    }
}

/// A re-synchronisation token (TS 33.102 §6.3.3): `AUTS = (SQN_MS ⊕ AK*) || MAC-S`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Auts {
    /// Concealed ME sequence number.
    pub sqn_ms_xor_ak: [u8; 6],
    /// `f1*` re-synchronisation MAC.
    pub mac_s: [u8; 8],
}

/// The AMF value used in re-synchronisation (all zeros, TS 33.102 §6.3.3).
pub(crate) const RESYNC_AMF: [u8; 2] = [0, 0];

impl Auts {
    /// Builds an AUTS on the USIM given the RAND that failed verification.
    #[must_use]
    pub fn generate(mil: &Milenage, rand: &[u8; 16], sqn_ms: &[u8; 6]) -> Self {
        let ak_star = mil.f5_star(rand);
        let mut concealed = *sqn_ms;
        for (c, a) in concealed.iter_mut().zip(ak_star.iter()) {
            *c ^= a;
        }
        Auts {
            sqn_ms_xor_ak: concealed,
            mac_s: mil.f1_star(rand, sqn_ms, &RESYNC_AMF),
        }
    }

    /// Verifies and opens an AUTS in the home network, returning `SQN_MS`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MacMismatch`] when MAC-S does not verify.
    pub fn verify(&self, mil: &Milenage, rand: &[u8; 16]) -> Result<[u8; 6], CryptoError> {
        let ak_star = mil.f5_star(rand);
        let mut sqn_ms = self.sqn_ms_xor_ak;
        for (s, a) in sqn_ms.iter_mut().zip(ak_star.iter()) {
            *s ^= a;
        }
        let expected = mil.f1_star(rand, &sqn_ms, &RESYNC_AMF);
        if !crate::ct_eq(&expected, &self.mac_s) {
            return Err(CryptoError::MacMismatch);
        }
        Ok(sqn_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mil() -> Milenage {
        Milenage::with_op(&[0x46; 16], &[0xcd; 16])
    }

    #[test]
    fn sqn_byte_round_trip() {
        for v in [0u64, 1, 0xffff, (1 << 48) - 1] {
            assert_eq!(sqn_from_bytes(&sqn_to_bytes(v)), v);
        }
    }

    #[test]
    fn sqn_overflow_wraps_at_48_bits() {
        // Regression: used to assert sqn < 2^48 while the NF-side
        // sqn_add silently wrapped — a wrapped generator value fed back
        // through here panicked. Both now agree on masked wrap.
        assert_eq!(sqn_to_bytes(1 << 48), [0; 6]);
        assert_eq!(sqn_from_bytes(&sqn_to_bytes((1 << 48) | 5)), 5);
        assert_eq!(sqn_to_bytes(u64::MAX), [0xff; 6]);
    }

    #[test]
    fn generator_is_strictly_increasing_in_seq() {
        let mut g = SqnGenerator::new();
        let mut prev_seq = 0;
        for _ in 0..100 {
            let sqn = sqn_from_bytes(&g.next_sqn());
            let seq = sqn >> IND_BITS;
            assert!(seq > prev_seq || prev_seq == 0);
            prev_seq = seq;
        }
        assert_eq!(g.seq(), 100);
    }

    #[test]
    fn generator_cycles_ind_slots() {
        let mut g = SqnGenerator::new();
        let inds: Vec<u64> = (0..IND_SLOTS + 2)
            .map(|_| sqn_from_bytes(&g.next_sqn()) & (IND_SLOTS as u64 - 1))
            .collect();
        assert_eq!(inds[0], 0);
        assert_eq!(inds[IND_SLOTS - 1], IND_SLOTS as u64 - 1);
        assert_eq!(inds[IND_SLOTS], 0);
    }

    #[test]
    fn verifier_accepts_fresh_rejects_replay() {
        let mut g = SqnGenerator::new();
        let mut v = SqnVerifier::new();
        let sqn = g.next_sqn();
        v.accept(&sqn).unwrap();
        assert!(matches!(
            v.accept(&sqn),
            Err(CryptoError::SqnOutOfRange { .. })
        ));
        v.accept(&g.next_sqn()).unwrap();
    }

    #[test]
    fn verifier_rejects_wraparound_jump() {
        let mut v = SqnVerifier::new();
        let too_far = sqn_to_bytes(((DELTA + 2) << IND_BITS) | 1);
        assert!(v.accept(&too_far).is_err());
    }

    #[test]
    fn verifier_tolerates_out_of_order_within_inds() {
        // Slightly out-of-order delivery across different IND slots is fine.
        let mut g = SqnGenerator::new();
        let s1 = g.next_sqn(); // ind 0
        let s2 = g.next_sqn(); // ind 1
        let mut v = SqnVerifier::new();
        v.accept(&s2).unwrap();
        v.accept(&s1).unwrap();
    }

    #[test]
    fn auts_round_trip() {
        let mil = mil();
        let rand = [0x23; 16];
        let sqn_ms = sqn_to_bytes((77 << IND_BITS) | 3);
        let auts = Auts::generate(&mil, &rand, &sqn_ms);
        assert_eq!(auts.verify(&mil, &rand).unwrap(), sqn_ms);
    }

    #[test]
    fn auts_conceals_sqn() {
        let mil = mil();
        let rand = [0x23; 16];
        let sqn_ms = sqn_to_bytes(42 << IND_BITS);
        let auts = Auts::generate(&mil, &rand, &sqn_ms);
        assert_ne!(auts.sqn_ms_xor_ak, sqn_ms);
    }

    #[test]
    fn auts_tamper_detected() {
        let mil = mil();
        let rand = [0x23; 16];
        let mut auts = Auts::generate(&mil, &rand, &sqn_to_bytes(99));
        auts.sqn_ms_xor_ak[0] ^= 1;
        assert_eq!(auts.verify(&mil, &rand), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn full_resync_flow_recovers() {
        // Home network falls behind (e.g. restored from stale backup);
        // the USIM triggers AUTS and the generator jumps ahead.
        let mil = mil();
        let mut ue = SqnVerifier::new();
        let mut hn = SqnGenerator::new();
        for _ in 0..50 {
            ue.accept(&hn.next_sqn()).unwrap();
        }
        let mut stale_hn = SqnGenerator::new(); // lost its state
        let rand = [9; 16];
        let sqn = stale_hn.next_sqn();
        let err = ue.accept(&sqn).unwrap_err();
        assert!(matches!(err, CryptoError::SqnOutOfRange { .. }));
        let auts = Auts::generate(&mil, &rand, &ue.sqn_ms());
        let sqn_ms = auts.verify(&mil, &rand).unwrap();
        stale_hn.resynchronise(&sqn_ms);
        // Next vector from the resynchronised generator is accepted.
        ue.accept(&stale_hn.next_sqn()).unwrap();
    }

    proptest::proptest! {
        #[test]
        fn generator_never_repeats(n in 1usize..200) {
            let mut g = SqnGenerator::new();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..n {
                proptest::prop_assert!(seen.insert(g.next_sqn()));
            }
        }
    }
}
