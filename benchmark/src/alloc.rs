//! Counting global allocator of the benchmark binary: how many
//! allocation calls the program made over a phase (`allocs_per_op`,
//! allocs per kernel call) and the most bytes it held at once
//! (`peak_heap_mb`). It exists only in this binary; the library crates
//! keep the system allocator untouched.
//!
//! It also keeps page faults out of the timed phases. A first touch of
//! a page costs 3 µs to 250 µs in this microVM, depending on whether
//! the host still backs it: the 2 000 faults of one `reg_sgx` batch took
//! 0.007 s in one batch and 0.55 s, as long as the batch's own work, in
//! the next. [`tune`] makes glibc serve every size from the one heap
//! and never give memory back; [`reserve`] touches a workload's worth
//! of that heap before anything is timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts `alloc`/`alloc_zeroed`/`realloc`.
pub struct Counting;

/// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested and not yet freed, and the most that ever was.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added effects are
// relaxed counter updates, which cannot allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        shrank(layout.size());
        grew(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The most bytes the process held at once so far, in MB. Set-ups and
/// timed phase alike; [`reserve`]'s block is not counted.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}
const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_MMAP_MAX: i32 = -4;

/// Makes glibc's malloc serve every request from the `brk` heap and
/// keep freed memory, so that memory touched once is never faulted in
/// again. Call before the first large allocation. The same settings for
/// every commit; with glibc's defaults `reg_sgx` runs about a third
/// slower here.
pub fn tune() -> Result<(), String> {
    // SAFETY: `mallopt` only stores the parameter; all three are
    // documented glibc parameters with in-range values.
    let ok = unsafe {
        mallopt(M_MMAP_MAX, 0) == 1
            && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
            && mallopt(M_TOP_PAD, 64 << 20) == 1
    };
    if ok {
        Ok(())
    } else {
        Err("mallopt refused the heap settings".to_owned())
    }
}

/// Touches every page of `mb` MB of heap and frees it again: after
/// [`tune`] the pages stay with the process, so the work that follows
/// finds them mapped. Not counted as an allocation or in the peak.
pub fn reserve(mb: usize) {
    const PAGE: usize = 4096;
    let bytes = mb << 20;
    let layout = Layout::from_size_align(bytes, PAGE).expect("a valid layout");
    // SAFETY: `layout` has a non-zero size; the block is written only
    // within its `bytes`, and freed with the layout it was allocated with.
    unsafe {
        let block = System.alloc(layout);
        assert!(!block.is_null(), "cannot reserve {mb} MB");
        for offset in (0..bytes).step_by(PAGE) {
            block.add(offset).write_volatile(1);
        }
        System.dealloc(block, layout);
    }
}
