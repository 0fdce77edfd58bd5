//! The planner's work counter: relaxations per thread.

use std::cell::Cell;

thread_local! {
    static RELAXATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Zero the current thread's relaxation counter.
pub fn reset_relaxations() {
    RELAXATIONS.with(|c| c.set(0));
}

/// Relaxations performed on this thread since [`reset_relaxations`].
///
/// One *relaxation* is one candidate-parent scoring attempt — a
/// `height(w) + latency(w, v)` evaluation against a pending member — in
/// either greedy engine (including the initial root scoring and the
/// full-recompute scans). The incremental engine's result-neutral prunes
/// skip evaluations outright, so its count is strictly below the
/// reference's on any non-trivial problem.
pub fn relaxations() -> u64 {
    RELAXATIONS.with(|c| c.get())
}

/// Engines accumulate locally and flush once, so the counter costs nothing
/// on the hot path.
pub(crate) fn add_relaxations(n: u64) {
    RELAXATIONS.with(|c| c.set(c.get() + n));
}
