//! The full newscast cycle: gather **and disseminate** (§3.2, Figure 3).
//!
//! SOMO is described as "a self-organizing 'news broadcast' hierarchy": the
//! aggregated system status is not only collected at the root — it flows
//! back down the same tree so that *any* peer can consult the global view
//! locally. A cycle is two halves over one tree:
//!
//! 1. the gather: a [`GatherSim`] in [`FlowMode::Synchronized`] — the root
//!    cascades a request, partials aggregate upward, and each completed
//!    round leaves a root view;
//! 2. [`disseminate`]: the instant a root view completes it is published
//!    down the tree, and every leaf hands it to its canonical member.
//!
//! The metric is the **member-level view lag**: how stale is the global view
//! in the hands of an ordinary peer (root lag + descent). This is the number
//! that matters to the paper's task managers — they run at session roots,
//! not at the SOMO root.
//!
//! [`GatherSim`]: crate::flow::GatherSim
//! [`FlowMode::Synchronized`]: crate::flow::FlowMode::Synchronized

use simcore::SimTime;

use crate::flow::RootView;
use crate::tree::SomoTree;

/// A member's receipt of one published global view.
#[derive(Clone, Debug)]
pub struct Delivery<R> {
    /// Ring member index that received the view.
    pub member: usize,
    /// When it arrived.
    pub at: SimTime,
    /// The view delivered.
    pub view: R,
}

/// Publish each of a synchronized gather's root `views` down `tree` to every
/// member of `ring`.
///
/// A view the root produced at `t` reaches member `m` at `t` plus the hop
/// delays on the path from the root to `m`'s canonical leaf, plus the
/// leaf → member hand-off. `delay(host_a, host_b)` is the one-way latency
/// between two hosting ring members; a hop between logical nodes on the same
/// member is free, as in [`crate::flow::GatherSim`].
///
/// Returns one [`Delivery`] per (view, member), sorted by `(at, member)`.
/// The descent is not cut at the gather's horizon: deliveries of the last
/// view may fall after it.
pub fn disseminate<R: Clone>(
    tree: &SomoTree,
    ring: &dht::Ring,
    views: &[RootView<R>],
    delay: impl Fn(usize, usize) -> SimTime,
) -> Vec<Delivery<R>> {
    let hop = |a: usize, b: usize| if a == b { SimTime::ZERO } else { delay(a, b) };
    let nodes = tree.nodes();
    // Descent time from the root to every logical node: a parent comes
    // before its children, so one pass in node order fills it.
    let mut descent = vec![SimTime::ZERO; nodes.len()];
    for (i, n) in nodes.iter().enumerate().skip(1) {
        let p = n.parent().expect("only the root has no parent") as usize;
        descent[i] = descent[p] + hop(nodes[p].host(), n.host());
    }
    let lag: Vec<SimTime> = (0..ring.len())
        .map(|m| {
            let leaf = tree.canonical_leaf_of(ring.member(m).id) as usize;
            descent[leaf] + hop(nodes[leaf].host(), m)
        })
        .collect();
    let mut out: Vec<Delivery<R>> = views
        .iter()
        .flat_map(|v| {
            lag.iter().enumerate().map(|(member, &d)| Delivery {
                member,
                at: v.at + d,
                view: v.view.clone(),
            })
        })
        .collect();
    out.sort_by_key(|d| (d.at, d.member));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowMode, FreshnessReport, GatherSim};
    use dht::Ring;
    use netsim::HostId;

    const HOP: SimTime = SimTime::from_millis(200);
    const T: SimTime = SimTime::from_secs(5);

    fn sim_run(n: u32, horizon: u64) -> (Vec<Delivery<FreshnessReport>>, u32, u32) {
        let ring = Ring::with_random_ids((0..n).map(HostId), 21);
        let tree = SomoTree::build(&ring, 8);
        let depth = tree.depth();
        let delay = |a: usize, b: usize| if a == b { SimTime::ZERO } else { HOP };
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            delay,
        );
        sim.run_until(SimTime::from_secs(horizon));
        let views = sim.views();
        let deliveries = disseminate(&tree, &ring, views, delay);
        // Sorted, and exactly one delivery per (view, member): every member
        // receives every view, in order.
        assert!(deliveries.is_sorted_by_key(|d| (d.at, d.member)));
        assert_eq!(deliveries.len(), views.len() * n as usize);
        for m in 0..n as usize {
            let mine = deliveries.iter().filter(|d| d.member == m);
            assert!(mine.map(|d| &d.view).eq(views.iter().map(|v| &v.view)));
        }
        (deliveries, depth, n)
    }

    #[test]
    fn every_member_receives_the_global_view() {
        let (deliveries, _, n) = sim_run(120, 40);
        let mut seen = vec![false; n as usize];
        for d in &deliveries {
            seen[d.member] = true;
            assert_eq!(d.view.members, n as u64, "partial view delivered");
        }
        assert!(seen.iter().all(|&s| s), "some member never got the news");
    }

    #[test]
    fn member_view_lag_is_bounded_by_full_round_trip() {
        let (deliveries, depth, _) = sim_run(120, 60);
        // Lag = descent of the request + fetch + ascent + descent of the
        // publication + final hand-off: ≤ (3·depth + 4) hops.
        let bound = SimTime::from_micros(HOP.as_micros() * (3 * depth as u64 + 4));
        for d in &deliveries {
            let lag = d.at.saturating_sub(d.view.oldest);
            assert!(lag <= bound, "member view lag {lag} above bound {bound}");
        }
    }

    #[test]
    fn deliveries_repeat_every_period() {
        let (deliveries, _, n) = sim_run(60, 31);
        // ~6 rounds × 60 members (first round may straddle the horizon).
        assert!(deliveries.len() >= 5 * n as usize, "{}", deliveries.len());
    }

    #[test]
    fn single_member_newscast() {
        let (deliveries, _, _) = sim_run(1, 20);
        assert!(!deliveries.is_empty());
        assert_eq!(deliveries[0].member, 0);
        assert_eq!(deliveries[0].view.members, 1);
    }
}
