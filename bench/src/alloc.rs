//! A counting global allocator for `index.peak_heap_mb`.
//!
//! It counts only while [`measure_peak`] runs: the untraced run's mining
//! threads must not share a counter's cache line, so outside a measurement
//! every call costs one relaxed load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Net bytes allocated since counting began (memory from before that may
/// be freed meanwhile, so this can go negative).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

pub struct CountingAlloc;

fn record(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are atomic counter updates,
// which neither allocate (no recursion) nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's own contract (`layout` has
        // non-zero size), which is exactly what `System.alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`; we allocate through `System` only, so the pair is
        // valid for `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same forwarding argument as `dealloc`, plus the caller's
        // guarantee that `new_size` is non-zero and fits `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak net heap growth, in
/// bytes, that `f` caused. Not reentrant; the harness calls it from one
/// thread.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary installs the allocator too (`main.rs`). Other tests
    /// allocate and free concurrently, so only a loose lower bound holds.
    #[test]
    fn peak_covers_what_the_closure_held() {
        let (len, peak) = measure_peak(|| std::hint::black_box(vec![1u8; 1 << 20]).len());
        assert_eq!(len, 1 << 20);
        assert!(peak >= 1 << 19, "peak {peak}");
    }
}
