//! Test scaffolding the workspace's suites share. A dev-dependency
//! everywhere but `bench`, whose `cells` binary links it for the digest.
//!
//! * [`Pin`] / [`fnv1a64`] — the digest every pinned constant uses
//!   (`crates/*/tests/pins.rs`, `tests/{determinism, liveops_pins}.rs`).
//!   The markets those two root files pin, and the one `ext_liveops`
//!   gates, are the cells of `crates/bench/src/cells.rs`; its `cells`
//!   binary prints their digests with [`fnv1a64`].
//! * [`Counting`], [`tally`], [`measured`] — the counting allocator of the
//!   footprint tests (`crates/*/tests/footprint.rs`).
//!
//! **Re-pinning.** Run-vs-run comparisons cannot see a change that moves
//! both runs together, so trajectories, traces and plans are also compared
//! against `(length, FNV-1a-64)` constants recorded at a known-good commit.
//! When a PR changes behaviour *on purpose*, run the failing test: the
//! assertion message prints the new `(length, digest)` pair as the
//! left-hand side. Paste it over the constant, and say in CHANGES.md which
//! constants moved and why. `tools/reanchor.sh PARENT` lists the market
//! cells that moved, each with its first differing trace line, to explain
//! the move; it writes no constant. A refactor or an optimisation never
//! re-pins.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A running `(bytes, FNV-1a-64)` over everything fed to it.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// Bytes fed so far ([`Pin::step`] counts none).
    pub len: usize,
    /// The digest so far.
    pub hash: u64,
}

impl Default for Pin {
    fn default() -> Pin {
        Pin::new()
    }
}

impl Pin {
    /// The digest of nothing.
    pub const fn new() -> Pin {
        Pin {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// One FNV-1a step — xor, then multiply — over a unit of the caller's
    /// choosing (a byte, or a wider word).
    pub fn step(&mut self, unit: u64) {
        self.hash = (self.hash ^ unit).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Digest `bytes`, one step each.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        for &b in bytes {
            self.step(u64::from(b));
        }
    }

    /// Digest the bytes of `s`.
    pub fn feed(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// `(bytes digested, digest)` — the shape of a recorded constant.
    pub fn pair(&self) -> (usize, u64) {
        (self.len, self.hash)
    }
}

/// FNV-1a, 64-bit, over the bytes of `s`.
pub fn fnv1a64(s: &str) -> u64 {
    let mut pin = Pin::new();
    pin.feed(s);
    pin.hash
}

/// What the calling thread has asked of the allocator since it started.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Bytes asked for (growth only).
    pub allocated: usize,
    /// Calls that asked for memory.
    pub calls: usize,
    /// Allocations not freed yet.
    pub live_calls: usize,
    /// Bytes not freed yet.
    pub live_bytes: usize,
    /// Highest `live_bytes` since [`measured`] last reset it.
    pub peak: usize,
}

thread_local! {
    // No destructor and a constant initialiser: reading it allocates
    // nothing and is valid for as long as the thread runs.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocated: 0, calls: 0, live_calls: 0, live_bytes: 0, peak: 0 })
    };
}

/// The system allocator, counting. A footprint test installs it with
/// `#[global_allocator] static ALLOC: testkit::Counting = testkit::Counting;`.
/// The tallies are per thread, so the tests of one binary can run side by
/// side — and what a test measures must allocate on the test's own thread.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the tallies are
// thread-local statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TALLY.with(|t| {
            let mut v = t.get();
            v.allocated += layout.size();
            v.calls += 1;
            v.live_calls += 1;
            v.live_bytes += layout.size();
            v.peak = v.peak.max(v.live_bytes);
            t.set(v);
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        TALLY.with(|t| {
            let mut v = t.get();
            v.live_calls = v.live_calls.saturating_sub(1);
            v.live_bytes = v.live_bytes.saturating_sub(layout.size());
            t.set(v);
        });
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// One call that moves the live bytes by the size change: a growing
    /// buffer is never counted twice.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            TALLY.with(|t| {
                let mut v = t.get();
                v.allocated += new_size.saturating_sub(layout.size());
                v.calls += 1;
                v.live_bytes = (v.live_bytes + new_size).saturating_sub(layout.size());
                v.peak = v.peak.max(v.live_bytes);
                t.set(v);
            });
        }
        out
    }
}

/// The calling thread's tallies now.
pub fn tally() -> Tally {
    TALLY.with(Cell::get)
}

/// What a closure cost the thread that ran it.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    /// Bytes asked for.
    pub bytes: usize,
    /// Calls that asked for memory.
    pub calls: usize,
    /// Highest live heap reached, above the level before the call.
    pub peak: usize,
    /// Live heap the result keeps, above the level before the call.
    pub held: usize,
}

/// Run `f` and report what it cost (all zeros unless [`Counting`] is the
/// binary's global allocator).
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = TALLY.with(|t| {
        let mut v = t.get();
        v.peak = v.live_bytes;
        t.set(v);
        v
    });
    let out = f();
    let after = tally();
    let cost = Cost {
        bytes: after.allocated - before.allocated,
        calls: after.calls - before.calls,
        peak: after.peak - before.live_bytes,
        held: after.live_bytes - before.live_bytes,
    };
    (out, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x8594_4171_f739_67e8);
        let mut pin = Pin::new();
        pin.feed("foo");
        pin.feed("bar");
        assert_eq!(pin.pair(), (6, fnv1a64("foobar")));
    }
}
