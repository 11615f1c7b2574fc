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
//! keystream(version)` — a whole number of `LINE_SIZE` lines, `1..=64`
//! — under one tag over exactly those lines. The rest of the page is
//! *accounted* enclave memory with no ciphertext behind it, as the
//! pre-faulted heap has always been (`EpcRegion::account_pages`):
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
//! The images of all resident pages share one byte region, back to back,
//! and each page index has a 32-byte record of where its image lies
//! (offset and length counted in lines, as every image is whole lines),
//! with the tag and version the EPCM holds for it. A rewrite of the same
//! line count is sealed in place over the old image; any other rewrite,
//! and a reloaded page, takes a fresh range at the end, and the range it
//! left is zeroed. When zeroed ranges outweigh the live images the region
//! is packed. So sealing a page allocates nothing once the region has
//! grown to the enclave's working set. `EpcRegion::page` lends a
//! resident page as a `PageView`; the owned [`EncryptedPage`] is the
//! blob that leaves the enclave on eviction (`EWB`) and is handed back
//! on reload (`ELDU`).
//!
//! The region also tracks *accounted* occupancy (heap pages pre-faulted by
//! Gramine's `preheat_enclave`), which can exceed the physical EPC and
//! triggers the paging behaviour behind the paper's Figure 8 (8 GB EPC
//! degradation).

use crate::cost::{LINE_SIZE, PAGE_SIZE};
use std::num::NonZeroU8;
use std::ops::Range;

/// One encrypted page plus its integrity metadata (EPCM analogue), as an
/// owned blob: what eviction hands to untrusted memory and reload takes
/// back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncryptedPage {
    /// Ciphertext of the materialised lines: a whole number of
    /// `LINE_SIZE` lines, at least one and at most `PAGE_SIZE` bytes.
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

/// A resident page, lent by [`EpcRegion::page`]: its image in the region
/// and its EPCM entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PageView<'a> {
    /// The materialised lines, as they lie in the region.
    pub ciphertext: &'a [u8],
    /// The page's tag (see [`EncryptedPage::tag`]).
    pub tag: [u8; 16],
    /// The page's version (see [`EncryptedPage::version`]).
    pub version: u64,
}

impl PageView<'_> {
    /// An owned copy of the page, as eviction would write it out.
    #[must_use]
    pub(crate) fn to_page(self) -> EncryptedPage {
        EncryptedPage {
            ciphertext: self.ciphertext.to_vec(),
            tag: self.tag,
            version: self.version,
        }
    }
}

/// Where a resident page's image lies in the region, in whole
/// `LINE_SIZE` lines, and its EPCM entry. The `u32` line offset bounds the
/// region at 2³² lines (256 GiB); the line count is `1..=64`, never zero,
/// so `Option<PageRecord>` is no larger than the record.
#[derive(Clone, Copy, Debug)]
struct PageRecord {
    start_line: u32,
    lines: NonZeroU8,
    tag: [u8; 16],
    version: u64,
}

impl PageRecord {
    /// The image's byte range in the region.
    fn range(&self) -> Range<usize> {
        let start = self.start_line as usize * LINE_SIZE;
        start..start + usize::from(self.lines.get()) * LINE_SIZE
    }
}

/// The per-enclave page store. A page index may be transiently empty
/// while its page is evicted to untrusted main memory (`EWB`).
#[derive(Clone, Debug, Default)]
pub(crate) struct EpcRegion {
    /// Every resident page's image, back to back (module docs).
    images: Vec<u8>,
    /// Per page index: where its image lies, `None` while evicted and
    /// after release.
    records: Vec<Option<PageRecord>>,
    /// Bytes of `images` no resident page holds; all zero.
    dead: usize,
    accounted_pages: u64,
}

impl EpcRegion {
    /// An empty region.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Removes the page at `index` for eviction (`EWB`), leaving the index
    /// empty until [`EpcRegion::restore_page`].
    pub(crate) fn take_page(&mut self, index: usize) -> Option<EncryptedPage> {
        let page = self.page(index)?.to_page();
        self.vacate(index);
        Some(page)
    }

    /// Reinstates an evicted page (`ELDU`). Returns `false` when the index
    /// does not exist or is still occupied.
    pub(crate) fn restore_page(&mut self, index: usize, page: EncryptedPage) -> bool {
        if !matches!(self.records.get(index), Some(None)) {
            return false;
        }
        self.store(Some(index), &page);
        true
    }

    /// Seals a `len`-byte image — `1..=64` whole lines — under `version`
    /// at `index` — resident or evicted, without changing the accounted
    /// occupancy — or, for `None`, at a fresh index, and returns the index.
    /// `seal` writes the image into the region and returns its tag; what
    /// the range held before is not defined (a rewrite of the same length
    /// hands it the old image). Allocates nothing when the image is
    /// rewritten in place.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub(crate) fn seal_page(
        &mut self,
        index: Option<usize>,
        len: usize,
        version: u64,
        seal: impl FnOnce(&mut [u8]) -> [u8; 16],
    ) -> usize {
        let index = index.unwrap_or_else(|| {
            self.records.push(None);
            self.accounted_pages += 1;
            self.records.len() - 1
        });
        let start = self.place(index, len);
        let tag = seal(&mut self.images[start..start + len]);
        self.records[index] = Some(PageRecord {
            start_line: (start / LINE_SIZE) as u32,
            lines: NonZeroU8::new((len / LINE_SIZE) as u8).unwrap_or(NonZeroU8::MIN),
            tag,
            version,
        });
        index
    }

    /// [`EpcRegion::seal_page`] with an image already sealed.
    fn store(&mut self, index: Option<usize>, page: &EncryptedPage) -> usize {
        self.seal_page(index, page.ciphertext.len(), page.version, |image| {
            image.copy_from_slice(&page.ciphertext);
            page.tag
        })
    }

    /// The start of a `len`-byte range for `index`'s next image: the range
    /// it holds when that has `len` bytes, else a fresh one at the end
    /// (packing the region first when zeroed ranges outweigh the live
    /// ones), `index` having been vacated.
    fn place(&mut self, index: usize, len: usize) -> usize {
        match self.records[index] {
            Some(held) if held.range().len() == len => return held.range().start,
            _ => self.vacate(index),
        }
        if 2 * self.dead > self.images.len() {
            self.pack();
        }
        let start = self.images.len();
        // A record counts lines in a `u32` (`PageRecord`).
        assert!(start < u32::MAX as usize * LINE_SIZE, "EPC past 2³² lines");
        self.images.resize(start + len, 0);
        start
    }

    /// Empties `index`, zeroing the range its image held.
    fn vacate(&mut self, index: usize) {
        if let Some(record) = self.records[index].take() {
            self.images[record.range()].fill(0);
            self.dead += record.range().len();
        }
    }

    /// Moves the live images together, in page-index order.
    fn pack(&mut self) {
        let mut packed = Vec::with_capacity(self.images.len() - self.dead);
        for record in self.records.iter_mut().flatten() {
            let from = record.range();
            record.start_line = (packed.len() / LINE_SIZE) as u32;
            packed.extend_from_slice(&self.images[from]);
        }
        self.images = packed;
        self.dead = 0;
    }

    /// Makes room for `pages` more page records and `bytes` more image
    /// bytes.
    pub(crate) fn reserve(&mut self, pages: usize, bytes: usize) {
        self.records.reserve(pages);
        self.images.reserve(bytes);
    }

    /// Frees the page at `index` (`EREMOVE`): the index is emptied for
    /// good — indices are never handed out twice — and its accounted page
    /// is given back.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (enclave-internal callers
    /// always use indices they allocated).
    pub(crate) fn release_page(&mut self, index: usize) {
        self.vacate(index);
        self.accounted_pages -= 1;
    }

    /// Reads the page at `index`, if present and resident.
    #[must_use]
    pub(crate) fn page(&self, index: usize) -> Option<PageView<'_>> {
        let record = self.records.get(index).copied().flatten()?;
        Some(PageView {
            ciphertext: &self.images[record.range()],
            tag: record.tag,
            version: record.version,
        })
    }

    /// Adds `n` accounted-but-unmaterialised pages (heap pre-faulting).
    pub(crate) fn account_pages(&mut self, n: u64) {
        self.accounted_pages += n;
    }

    /// Total accounted occupancy in pages.
    #[must_use]
    pub(crate) fn accounted_pages(&self) -> u64 {
        self.accounted_pages
    }

    /// **Attacker interface**: flip one ciphertext byte in RAM.
    ///
    /// Real SGX lets a privileged attacker write to the encrypted memory
    /// region; integrity protection means the *enclave* detects it on next
    /// access. Returns `false` when the page is not resident or
    /// `byte_index` is past its materialised lines: nothing is there.
    pub(crate) fn tamper(&mut self, page_index: usize, byte_index: usize) -> bool {
        match self.records.get(page_index) {
            Some(Some(record)) if byte_index < record.range().len() => {
                self.images[record.range().start + byte_index] ^= 0xff;
                true
            }
            _ => false,
        }
    }

    /// **Attacker interface**: a copy of everything visible in RAM.
    #[must_use]
    pub(crate) fn snapshot(&self) -> EpcSnapshot {
        EpcSnapshot {
            pages: self
                .records
                .iter()
                .flatten()
                .map(|r| self.images[r.range()].to_vec())
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
impl EpcRegion {
    /// Appends an encrypted page, returning its index.
    pub(crate) fn push_page(&mut self, page: EncryptedPage) -> usize {
        debug_assert!(page.is_well_formed());
        self.store(None, &page)
    }

    /// Replaces the page at `index` — resident or evicted — without
    /// changing the accounted occupancy.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds (enclave-internal callers
    /// always use indices they allocated).
    pub(crate) fn replace_page(&mut self, index: usize, page: EncryptedPage) {
        debug_assert!(page.is_well_formed());
        self.store(Some(index), &page);
    }

    /// Number of data page indices ever allocated: resident, evicted and
    /// released ones alike.
    #[must_use]
    pub(crate) fn data_page_count(&self) -> usize {
        self.records.len()
    }

    /// Bytes the image region spans, zeroed ranges included.
    pub(crate) fn region_len(&self) -> usize {
        self.images.len()
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
    fn a_page_record_is_four_words_with_or_without_a_page() {
        assert_eq!(std::mem::size_of::<Option<PageRecord>>(), 32);
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
    fn a_same_length_image_is_replaced_in_place() {
        let mut epc = EpcRegion::new();
        let a = epc.push_page(image(1, LINE_SIZE));
        let b = epc.push_page(image(2, 2 * LINE_SIZE));
        epc.replace_page(a, image(3, LINE_SIZE));
        assert_eq!(epc.region_len(), 3 * LINE_SIZE);
        assert_eq!(epc.page(a).unwrap().ciphertext, [3; LINE_SIZE]);
        // Another length takes a fresh range; the old one is zeroed.
        epc.replace_page(a, image(4, 2 * LINE_SIZE));
        assert_eq!(epc.region_len(), 5 * LINE_SIZE);
        assert_eq!(epc.images[..LINE_SIZE], [0; LINE_SIZE]);
        assert_eq!(epc.page(b).unwrap().ciphertext, [2; 2 * LINE_SIZE]);
        assert_eq!(epc.snapshot().total_bytes(), 4 * LINE_SIZE);
    }

    #[test]
    fn evicted_and_released_ranges_are_zeroed_then_packed_away() {
        let mut epc = EpcRegion::new();
        let pages: Vec<usize> = (1..=4)
            .map(|fill| epc.push_page(image(fill, LINE_SIZE)))
            .collect();
        let taken = epc.take_page(pages[1]).unwrap();
        epc.release_page(pages[2]);
        assert_eq!(epc.images[LINE_SIZE..3 * LINE_SIZE], [0; 2 * LINE_SIZE]);
        assert_eq!(epc.region_len(), 4 * LINE_SIZE);
        // Half the region is dead: the next fresh range packs it first.
        epc.replace_page(pages[0], image(5, 2 * LINE_SIZE));
        assert_eq!(epc.region_len(), 3 * LINE_SIZE);
        assert!(epc.restore_page(pages[1], taken));
        let live: Vec<Vec<u8>> = pages
            .iter()
            .filter_map(|&idx| epc.page(idx).map(|p| p.ciphertext.to_vec()))
            .collect();
        assert_eq!(
            live,
            [
                vec![5; 2 * LINE_SIZE],
                vec![2; LINE_SIZE],
                vec![4; LINE_SIZE]
            ]
        );
        assert_eq!(epc.snapshot().total_bytes(), epc.region_len());
        assert_eq!(epc.accounted_pages(), 3);
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
