//! Alternative QoS metrics (§5.1).
//!
//! "For ALM, there exist several different criteria for optimization, like
//! bandwidth bottleneck, maximal latency or variance of latencies. In this
//! paper, we choose maximal latency..." The tree-builders optimize height;
//! this module evaluates the other two criteria on any finished tree, so a
//! deployment can report (or re-rank plans by) the full QoS picture.

use std::cell::Cell;

use netsim::HostId;
use simcore::stats::OnlineStats;

use crate::tree::MulticastTree;

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
/// reference's on any non-trivial problem; the `perf_planner` harness
/// reports both.
pub fn relaxations() -> u64 {
    RELAXATIONS.with(|c| c.get())
}

/// Engines accumulate locally and flush once, so the counter costs nothing
/// on the hot path.
pub(crate) fn add_relaxations(n: u64) {
    RELAXATIONS.with(|c| c.set(c.get() + n));
}

/// Summary of member heights: the paper's height objective plus the
/// variance criterion ("variance of latencies").
#[derive(Clone, Copy, Debug)]
pub struct LatencyQos {
    /// Maximum height (the DB-MHT objective), ms.
    pub max_ms: f64,
    /// Mean member height, ms.
    pub mean_ms: f64,
    /// Standard deviation of member heights, ms.
    pub stddev_ms: f64,
}

/// Height statistics over the tree's non-root nodes.
pub fn latency_qos(tree: &MulticastTree) -> LatencyQos {
    let mut s = OnlineStats::new();
    for &h in tree.hosts() {
        if h != tree.root() {
            s.push(tree.height_of(h));
        }
    }
    LatencyQos {
        max_ms: tree.max_height(),
        mean_ms: s.mean(),
        stddev_ms: s.stddev(),
    }
}

/// The stream rate the whole session can sustain: the minimum over tree
/// edges of the parent's share of uplink. A parent forwarding to `c`
/// children pushes `c` copies, so each child receives at most
/// `uplink(parent) / c` — the "bandwidth bottleneck" criterion.
///
/// `uplink_kbps(h)` is typically `bwest::BwEstimates::up` or the true
/// access capacity.
pub fn bottleneck_kbps(tree: &MulticastTree, uplink_kbps: impl Fn(HostId) -> f64) -> f64 {
    let mut min = f64::INFINITY;
    for &h in tree.hosts() {
        let c = tree.child_count(h);
        if c > 0 {
            min = min.min(uplink_kbps(h) / c as f64);
        }
    }
    min
}

/// The member whose stream crosses the weakest edge chain: for diagnostics,
/// returns `(member, sustainable_kbps)` minimized along each member's path
/// from the root.
pub fn weakest_path(
    tree: &MulticastTree,
    uplink_kbps: impl Fn(HostId) -> f64,
) -> Option<(HostId, f64)> {
    let mut worst: Option<(HostId, f64)> = None;
    for &h in tree.hosts() {
        if h == tree.root() {
            continue;
        }
        // Walk up: each ancestor's uplink is shared across its children.
        let mut rate = f64::INFINITY;
        let mut cur = h;
        while let Some(p) = tree.parent_of(cur) {
            rate = rate.min(uplink_kbps(p) / tree.child_count(p) as f64);
            cur = p;
        }
        if worst.is_none_or(|(_, r)| rate < r) {
            worst = Some((h, rate));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> MulticastTree {
        // 0 → 1 → 2 and 0 → 3.
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(1), HostId(0), 10.0);
        t.attach(HostId(2), HostId(1), 30.0);
        t.attach(HostId(3), HostId(0), 20.0);
        t
    }

    #[test]
    fn latency_qos_summary() {
        let q = latency_qos(&chain());
        assert_eq!(q.max_ms, 40.0);
        // Heights: 10, 40, 20 → mean 70/3.
        assert!((q.mean_ms - 70.0 / 3.0).abs() < 1e-9);
        assert!(q.stddev_ms > 0.0);
    }

    #[test]
    fn bottleneck_accounts_for_fanout() {
        let up = |h: HostId| match h.0 {
            0 => 1000.0, // two children → 500 each
            1 => 800.0,  // one child → 800
            _ => 56.0,   // leaves forward nothing
        };
        let b = bottleneck_kbps(&chain(), up);
        assert_eq!(b, 500.0);
    }

    #[test]
    fn weakest_path_finds_the_starved_member() {
        let up = |h: HostId| match h.0 {
            0 => 1000.0,
            1 => 100.0, // node 2 receives at most 100
            _ => 56.0,
        };
        let (member, rate) = weakest_path(&chain(), up).unwrap();
        assert_eq!(member, HostId(2));
        assert_eq!(rate, 100.0);
    }

    #[test]
    fn root_only_tree_has_infinite_bottleneck() {
        let t = MulticastTree::new(HostId(0));
        assert_eq!(bottleneck_kbps(&t, |_| 100.0), f64::INFINITY);
        assert!(weakest_path(&t, |_| 100.0).is_none());
        let q = latency_qos(&t);
        assert_eq!(q.max_ms, 0.0);
        assert_eq!(q.mean_ms, 0.0);
    }
}
