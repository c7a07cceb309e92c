//! Byte-accounting memory introspection for run reports.
//!
//! Two complementary sources:
//!
//! * [`CountingAlloc`] — a `#[global_allocator]` wrapper around the
//!   system allocator that tracks live heap bytes and their high-water
//!   mark with two relaxed atomics (an add and a `fetch_max` per
//!   allocation — negligible against the allocation itself). Binaries
//!   opt in by declaring it as their global allocator; libraries never
//!   pay for it. When no binary installed it, the counters stay 0 and
//!   reports fall back to RSS.
//! * [`peak_rss_bytes`] — the kernel's view (`VmHWM` from
//!   `/proc/self/status`), which includes code, stacks, and allocator
//!   slack. Reported alongside the heap numbers so the two can be
//!   compared; `None` off Linux.
//!
//! [`MemReport::capture`] snapshots both plus per-node/per-edge
//! amortization — the measurement ROADMAP item 2 asks for.
//!
//! This module is the one place in the crate that needs `unsafe` (the
//! `GlobalAlloc` contract); the crate-level lint is `deny` with a
//! scoped allow here rather than `forbid` for exactly this reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A system-allocator wrapper that maintains live/peak heap byte
/// counters. Declare as `#[global_allocator]` in a binary to enable
/// heap accounting in its [`MemReport`]s.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Relaxed);
}

#[allow(unsafe_code)]
// SAFETY: every method delegates verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Heap bytes currently live (0 unless [`CountingAlloc`] is the
/// global allocator).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Relaxed)
}

/// High-water mark of live heap bytes since process start (or the
/// last [`reset_peak`]).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Relaxed)
}

/// Total allocation calls observed.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Relaxed)
}

/// Reset the peak to the current live count — scopes the high-water
/// mark to a phase of interest (e.g. "the run itself", excluding
/// graph loading).
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// Kernel-reported peak resident set (`VmHWM`), in bytes. `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// A memory snapshot amortized over a graph's size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemReport {
    /// Live heap bytes at capture (0 without [`CountingAlloc`]).
    pub live_bytes: u64,
    /// Peak live heap bytes (0 without [`CountingAlloc`]).
    pub peak_bytes: u64,
    /// Allocation calls so far (0 without [`CountingAlloc`]).
    pub alloc_calls: u64,
    /// Kernel peak RSS in bytes (0 where unavailable).
    pub peak_rss_bytes: u64,
    /// Peak heap bytes per node (0 when the graph is empty).
    pub bytes_per_node: f64,
    /// Peak heap bytes per edge (0 when the graph has no edges).
    pub bytes_per_edge: f64,
}

impl MemReport {
    /// Snapshot the counters, amortizing the heap peak over `nodes`
    /// and `edges`.
    pub fn capture(nodes: u64, edges: u64) -> MemReport {
        let peak = peak_bytes();
        MemReport {
            live_bytes: live_bytes(),
            peak_bytes: peak,
            alloc_calls: alloc_calls(),
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            bytes_per_node: if nodes == 0 { 0.0 } else { peak as f64 / nodes as f64 },
            bytes_per_edge: if edges == 0 { 0.0 } else { peak as f64 / edges as f64 },
        }
    }

    /// Human-readable report lines (the `memory` part of the run
    /// report's metrics section).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.peak_bytes > 0 {
            out.push_str(&format!(
                "  heap peak {} B (live {} B, {} allocs), {:.1} B/node, {:.1} B/edge\n",
                self.peak_bytes,
                self.live_bytes,
                self.alloc_calls,
                self.bytes_per_node,
                self.bytes_per_edge
            ));
        } else {
            out.push_str("  heap accounting off (no CountingAlloc in this binary)\n");
        }
        if self.peak_rss_bytes > 0 {
            out.push_str(&format!("  peak RSS {} B\n", self.peak_rss_bytes));
        }
        out
    }

    /// Fold into a [`crate::metrics::MetricsRegistry`] under `mem/`
    /// gauges, so memory travels with metric dumps.
    pub fn record(&self, reg: &mut crate::metrics::MetricsRegistry) {
        reg.gauge_max("mem/heap_peak_bytes", self.peak_bytes);
        reg.gauge_max("mem/heap_live_bytes", self.live_bytes);
        reg.gauge_max("mem/alloc_calls", self.alloc_calls);
        reg.gauge_max("mem/peak_rss_bytes", self.peak_rss_bytes);
        reg.gauge_max("mem/bytes_per_node", self.bytes_per_node as u64);
        reg.gauge_max("mem/bytes_per_edge", self.bytes_per_edge as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_amortizes_and_renders() {
        // The test binary does not install CountingAlloc, so the heap
        // counters are 0 and the report says so.
        let r = MemReport::capture(10, 20);
        if r.peak_bytes == 0 {
            assert_eq!(r.bytes_per_node, 0.0);
            assert!(r.to_text().contains("heap accounting off"));
        }
        // RSS should be readable on Linux CI.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0);
        }
        let zero = MemReport::capture(0, 0);
        assert_eq!(zero.bytes_per_node, 0.0);
        assert_eq!(zero.bytes_per_edge, 0.0);
    }

    #[test]
    fn counter_arithmetic_balances() {
        on_alloc(100);
        on_alloc(50);
        on_dealloc(50);
        assert!(peak_bytes() >= 150);
        assert!(alloc_calls() >= 2);
        on_dealloc(100);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }

    #[test]
    fn report_records_into_registry() {
        let mut reg = crate::metrics::MetricsRegistry::new();
        let r = MemReport { peak_rss_bytes: 4096, ..Default::default() };
        r.record(&mut reg);
        assert_eq!(reg.gauge("mem/peak_rss_bytes"), 4096);
    }
}
