//! Counting global allocator: heap traffic as an exact, host-independent
//! cost. Allocation counts and requested bytes repeat bit-for-bit across
//! processes for a deterministic job, so they gate at a tight bound
//! where CPU time cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The counters behind the allocator, separate from it so the
/// arithmetic is testable on a private instance.
pub struct Counters {
    /// Allocations plus reallocations.
    calls: AtomicU64,
    /// Bytes requested: full size of an allocation, new size of a
    /// reallocation.
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A reading of [`Counters`]; differences of two readings give the heap
/// traffic of the interval between them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapReading {
    pub calls: u64,
    pub bytes: u64,
    pub live: u64,
    pub peak: u64,
}

impl Counters {
    pub const fn new() -> Self {
        Counters {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    // Relaxed throughout: the counters are statistics and publish no
    // other data.
    pub fn on_alloc(&self, size: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        let live = self.live.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub fn on_dealloc(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }

    pub fn on_realloc(&self, old: usize, new: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(new as u64, Ordering::Relaxed);
        if new >= old {
            let grow = (new - old) as u64;
            let live = self.live.fetch_add(grow, Ordering::Relaxed) + grow;
            self.peak.fetch_max(live, Ordering::Relaxed);
        } else {
            self.live.fetch_sub((old - new) as u64, Ordering::Relaxed);
        }
    }

    pub fn read(&self) -> HeapReading {
        HeapReading {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Restart peak tracking from the current live size (start of a rep).
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

pub static HEAP: Counters = Counters::new();

/// `System` with every call tallied in [`HEAP`].
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract the caller already upholds, and returns its result
// unchanged; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with this layout and
        // the caller vouched for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP.on_realloc(layout.size(), new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_dealloc_and_peak() {
        let c = Counters::new();
        c.on_alloc(100);
        c.on_alloc(50);
        c.on_dealloc(100);
        c.on_alloc(20);
        let r = c.read();
        assert_eq!((r.calls, r.bytes, r.live, r.peak), (3, 170, 70, 150));
    }

    #[test]
    fn realloc_counts_new_size_and_moves_live_by_the_difference() {
        let c = Counters::new();
        c.on_alloc(64);
        c.on_realloc(64, 256);
        let r = c.read();
        assert_eq!((r.calls, r.bytes, r.live, r.peak), (2, 320, 256, 256));
        c.on_realloc(256, 16);
        let r = c.read();
        assert_eq!((r.calls, r.bytes, r.live, r.peak), (3, 336, 16, 256));
    }

    #[test]
    fn reset_peak_restarts_from_live() {
        let c = Counters::new();
        c.on_alloc(1000);
        c.on_dealloc(900);
        c.reset_peak();
        assert_eq!(c.read().peak, 100);
        c.on_alloc(10);
        assert_eq!(c.read().peak, 110);
    }

    #[test]
    fn the_installed_allocator_counts_a_real_allocation() {
        let before = HEAP.read();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = HEAP.read();
        drop(v);
        // Other test threads allocate too, so only lower bounds hold.
        assert!(after.calls > before.calls);
        assert!(after.bytes >= before.bytes + 4096);
    }
}
