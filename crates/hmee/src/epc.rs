//! The Enclave Page Cache model.
//!
//! Pages stored here are *actually encrypted*: what an out-of-enclave
//! observer (hypervisor, container engine, co-resident attacker) can read
//! from "RAM" is AES-CTR ciphertext, and what they write there is caught
//! by a Carter–Wegman integrity tag. Decryption and verification happen
//! only "inside the CPU package" — i.e. through the owning
//! [`crate::enclave::Enclave`], which holds the derived EPC keys.
//!
//! # Page protection
//!
//! The pairing is the one SGX's Memory Encryption Engine uses (Gueron,
//! *A Memory Encryption Engine Suitable for General Purpose Processors*,
//! ePrint 2016/204): a counter-mode cipher and a polynomial MAC whose
//! output is masked by a block-cipher pad, because a hash-based MAC is too
//! slow for the memory path. Here the tag is Poly1305-AES over the page's
//! materialised ciphertext,
//! `tag = (Poly1305_r(ciphertext) + AES_k(version ‖ 0⁶⁴)) mod 2¹²⁸`,
//! with `r ‖ k` the 32-byte `epc-mac` key (never the `epc-enc` cipher
//! key). The page's version is bound through the pad. The tag is 128 bits
//! where the MEE keeps 56; the version plays the MEE's per-line counter
//! and the enclave's trusted version record its counter tree.
//!
//! **Nonce rule.** The tag (like the CTR keystream) is only as good as
//! this: no `(key, version)` pair is ever used twice. The enclave draws
//! versions from one counter that only moves forward — every write, of
//! whatever page, takes the next one — and keys are per enclave instance.
//!
//! # What is materialised
//!
//! The MEE works per 64-byte cache line, and so does the vault: a page's
//! image is `(chunk ‖ 0-pad to the next line, at least one line) ⊕
//! keystream(version)` — a whole number of [`LINE_SIZE`] lines, `1..=64`
//! — under one tag over exactly those lines. The rest of the page is
//! *accounted* enclave memory with no ciphertext behind it, as the
//! pre-faulted heap has always been ([`EpcRegion::account_pages`]):
//! occupancy, EPC pressure and every charged cycle count whole pages.
//! The observer thus learns a value's length to 64-byte granularity (K
//! and the keys derived from it are one line each, alike in size); past
//! the materialised lines there is nothing to read or flip, and every
//! byte that exists is under the tag. One version and tag per page, not
//! per line, suffice because values are rewritten whole: a write replaces
//! the page's entire image under a fresh version, so no line outlives the
//! version it was sealed under. An image's length comes back from
//! untrusted memory; the enclave checks it before slicing.
//!
//! The region also tracks *accounted* occupancy (heap pages pre-faulted by
//! Gramine's `preheat_enclave`), which can exceed the physical EPC and
//! triggers the paging behaviour behind the paper's Figure 8 (8 GB EPC
//! degradation).

use crate::cost::{LINE_SIZE, PAGE_SIZE};

/// One encrypted page plus its integrity metadata (EPCM analogue).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedPage {
    /// Ciphertext of the materialised lines: a whole number of
    /// [`LINE_SIZE`] lines, at least one and at most [`PAGE_SIZE`] bytes.
    pub ciphertext: Vec<u8>,
    /// Poly1305-AES tag over the ciphertext under this version's pad. Held
    /// in the (tamper-proof) EPCM, not in RAM — an attacker can flip
    /// ciphertext bits but cannot forge this.
    pub tag: [u8; 16],
    /// Anti-replay version (Merkle-tree counter analogue).
    pub version: u64,
}

impl EncryptedPage {
    /// Materialised bytes of a page holding `chunk_len` value bytes: whole
    /// lines, at least one.
    #[must_use]
    pub(crate) fn image_len(chunk_len: usize) -> usize {
        chunk_len.div_ceil(LINE_SIZE).max(1) * LINE_SIZE
    }

    /// Whether the image has a shape the enclave ever produces: `1..=64`
    /// whole lines. Blobs handed back by the OS are checked with this.
    #[must_use]
    pub(crate) fn is_well_formed(&self) -> bool {
        let len = self.ciphertext.len();
        len != 0 && len.is_multiple_of(LINE_SIZE) && len <= PAGE_SIZE
    }
}

/// The per-enclave page store. Slots may be transiently empty while a
/// page is evicted to untrusted main memory (`EWB`).
#[derive(Clone, Debug, Default)]
pub struct EpcRegion {
    data_pages: Vec<Option<EncryptedPage>>,
    accounted_pages: u64,
}

impl EpcRegion {
    /// An empty region.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an encrypted page, returning its index.
    pub fn push_page(&mut self, page: EncryptedPage) -> usize {
        debug_assert!(page.is_well_formed());
        self.data_pages.push(Some(page));
        self.accounted_pages += 1;
        self.data_pages.len() - 1
    }

    /// Removes the page at `index` for eviction (`EWB`), leaving the slot
    /// empty until [`EpcRegion::restore_page`].
    pub fn take_page(&mut self, index: usize) -> Option<EncryptedPage> {
        self.data_pages.get_mut(index).and_then(Option::take)
    }

    /// Reinstates an evicted page (`ELDU`). Returns `false` when the slot
    /// does not exist or is still occupied.
    pub fn restore_page(&mut self, index: usize, page: EncryptedPage) -> bool {
        match self.data_pages.get_mut(index) {
            Some(slot @ None) => {
                *slot = Some(page);
                true
            }
            _ => false,
        }
    }

    /// Replaces the page at `index` — resident or evicted — without
    /// changing the accounted occupancy.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (enclave-internal callers
    /// always use indices they allocated).
    pub fn replace_page(&mut self, index: usize, page: EncryptedPage) {
        debug_assert!(page.is_well_formed());
        self.data_pages[index] = Some(page);
    }

    /// Frees the page at `index` (`EREMOVE`): the slot is emptied for good
    /// — indices are never handed out twice — and its accounted page is
    /// given back.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (enclave-internal callers
    /// always use indices they allocated).
    pub fn release_page(&mut self, index: usize) {
        self.data_pages[index] = None;
        self.accounted_pages -= 1;
    }

    /// Reads the page at `index`, if present and resident.
    #[must_use]
    pub fn page(&self, index: usize) -> Option<&EncryptedPage> {
        self.data_pages.get(index).and_then(Option::as_ref)
    }

    /// Number of data page slots ever allocated: resident, evicted and
    /// released ones alike.
    #[must_use]
    pub fn data_page_count(&self) -> usize {
        self.data_pages.len()
    }

    /// Adds `n` accounted-but-unmaterialised pages (heap pre-faulting).
    pub fn account_pages(&mut self, n: u64) {
        self.accounted_pages += n;
    }

    /// Total accounted occupancy in pages.
    #[must_use]
    pub fn accounted_pages(&self) -> u64 {
        self.accounted_pages
    }

    /// **Attacker interface**: flip one ciphertext byte in RAM.
    ///
    /// Real SGX lets a privileged attacker write to the encrypted memory
    /// region; integrity protection means the *enclave* detects it on next
    /// access. Returns `false` when the page is not resident or
    /// `byte_index` is past its materialised lines: nothing is there.
    pub fn tamper(&mut self, page_index: usize, byte_index: usize) -> bool {
        match self.data_pages.get_mut(page_index) {
            Some(Some(p)) if byte_index < p.ciphertext.len() => {
                p.ciphertext[byte_index] ^= 0xff;
                true
            }
            _ => false,
        }
    }

    /// **Attacker interface**: a copy of everything visible in RAM.
    #[must_use]
    pub fn snapshot(&self) -> EpcSnapshot {
        EpcSnapshot {
            pages: self
                .data_pages
                .iter()
                .flatten()
                .map(|p| p.ciphertext.clone())
                .collect(),
        }
    }
}

/// What memory introspection of the EPC yields: raw (encrypted) page bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpcSnapshot {
    /// The materialised lines of each resident page.
    pub pages: Vec<Vec<u8>>,
}

impl EpcSnapshot {
    /// Scans all pages for a plaintext needle — the memory-introspection
    /// attack of paper KI 7/15. Against a functioning enclave this must
    /// return `false` for any secret.
    #[must_use]
    pub fn contains_plaintext(&self, needle: &[u8]) -> bool {
        !needle.is_empty()
            && self
                .pages
                .iter()
                .any(|p| p.windows(needle.len()).any(|w| w == needle))
    }

    /// Total bytes visible: materialised lines only, not accounted pages.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> EncryptedPage {
        image(fill, PAGE_SIZE)
    }

    fn image(fill: u8, len: usize) -> EncryptedPage {
        EncryptedPage {
            ciphertext: vec![fill; len],
            tag: [0; 16],
            version: 0,
        }
    }

    #[test]
    fn push_and_read() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(7));
        assert_eq!(epc.page(idx).unwrap().ciphertext[0], 7);
        assert_eq!(epc.data_page_count(), 1);
        assert_eq!(epc.accounted_pages(), 1);
    }

    #[test]
    fn accounting_includes_virtual_heap() {
        let mut epc = EpcRegion::new();
        epc.account_pages(131_072);
        assert_eq!(epc.accounted_pages(), 131_072);
        assert_eq!(epc.data_page_count(), 0);
    }

    #[test]
    fn tamper_flips_ciphertext() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(0));
        assert!(epc.tamper(idx, 5));
        assert_eq!(epc.page(idx).unwrap().ciphertext[5], 0xff);
        assert!(!epc.tamper(99, 0));
        assert!(!epc.tamper(idx, PAGE_SIZE + 1));
        // A one-line image has nothing past byte 63 to flip.
        let line = epc.push_page(image(0, LINE_SIZE));
        assert!(epc.tamper(line, LINE_SIZE - 1));
        assert!(!epc.tamper(line, LINE_SIZE));
        assert_eq!(epc.snapshot().total_bytes(), PAGE_SIZE + LINE_SIZE);
        assert_eq!(epc.accounted_pages(), 2, "accounted whole all the same");
    }

    #[test]
    fn well_formed_images_are_one_to_sixty_four_whole_lines() {
        for len in [LINE_SIZE, 2 * LINE_SIZE, PAGE_SIZE] {
            assert!(image(0, len).is_well_formed(), "{len}");
        }
        for len in [0, 1, LINE_SIZE - 1, LINE_SIZE + 1, PAGE_SIZE + LINE_SIZE] {
            assert!(!image(0, len).is_well_formed(), "{len}");
        }
    }

    #[test]
    fn snapshot_finds_plaintext_needles() {
        let mut epc = EpcRegion::new();
        let mut p = page(0);
        p.ciphertext[100..105].copy_from_slice(b"hello");
        epc.push_page(p);
        let snap = epc.snapshot();
        assert!(snap.contains_plaintext(b"hello"));
        assert!(!snap.contains_plaintext(b"world"));
        assert!(!snap.contains_plaintext(b""));
        assert_eq!(snap.total_bytes(), PAGE_SIZE);
    }

    #[test]
    fn take_and_restore_cycle() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(5));
        let taken = epc.take_page(idx).unwrap();
        assert!(epc.page(idx).is_none(), "slot empty while evicted");
        assert!(epc.take_page(idx).is_none(), "double-take fails");
        assert!(epc.restore_page(idx, taken));
        assert_eq!(epc.page(idx).unwrap().ciphertext[0], 5);
        // Restoring into an occupied slot fails.
        assert!(!epc.restore_page(idx, page(6)));
        assert!(!epc.restore_page(99, page(6)));
    }

    #[test]
    fn snapshot_skips_evicted_pages() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(7));
        epc.push_page(page(8));
        epc.take_page(idx);
        assert_eq!(epc.snapshot().pages.len(), 1);
    }

    #[test]
    fn replace_updates_content() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(1));
        epc.replace_page(idx, page(2));
        assert_eq!(epc.page(idx).unwrap().ciphertext[0], 2);
        // Replacement does not double-count occupancy.
        assert_eq!(epc.accounted_pages(), 1);
    }

    #[test]
    fn replace_fills_an_evicted_slot() {
        let mut epc = EpcRegion::new();
        let idx = epc.push_page(page(1));
        epc.take_page(idx).unwrap();
        epc.replace_page(idx, page(3));
        assert_eq!(epc.page(idx).unwrap().ciphertext[0], 3);
        assert_eq!(epc.accounted_pages(), 1);
    }

    #[test]
    fn release_returns_occupancy_and_retires_the_index() {
        let mut epc = EpcRegion::new();
        let a = epc.push_page(page(1));
        let b = epc.push_page(page(2));
        epc.release_page(a);
        assert!(epc.page(a).is_none());
        assert_eq!(epc.accounted_pages(), 1);
        assert_eq!(epc.data_page_count(), 2);
        assert_eq!(epc.push_page(page(3)), b + 1, "released index not reused");
    }
}
