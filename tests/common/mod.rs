//! Shared by the determinism suites: the digest their pinned constants use.
//!
//! The run-vs-run comparisons in `determinism.rs` / `trace_determinism.rs`
//! cannot see a change that moves both runs together, so each market
//! trajectory is also compared against `(length, FNV-1a-64)` constants
//! recorded at a known-good commit.
//!
//! **Re-pinning.** When a PR changes market behaviour *on purpose*, run the
//! failing test: the assertion message prints the new `(length, digest)`
//! pair as the left-hand side. Paste it over the constant, and say in
//! CHANGES.md which trajectories moved and why. A refactor never re-pins.

/// FNV-1a, 64-bit, over the bytes of `s`.
pub fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
