//! Continuous standing queries: threshold subscriptions.
//!
//! A task manager that keeps replanning wants to know *when the answer
//! changes*, not to re-ask every period. A [`Subscription`] registers a
//! predicate over the aggregate lattice — "the count of hosts within
//! radius R of my session offering ≥ D free degrees" — and the index
//! evaluates it once per newscast cycle. A [`ThresholdDelta`] is emitted
//! **only on crossings** (the count moving from at-or-above the threshold
//! to below it, or back), so steady state costs zero extra wire bytes: the
//! deltas that do fire piggyback on the newscast dissemination already
//! flowing root→leaf each period (see [`somo::newscast`]), and
//! [`SubscriptionSet::evaluate`] charges exactly that incremental cost.
//!
//! This is the query-layer rendering of the paper's "news broadcast"
//! discipline: the tree already visits every member each cycle, so a delta
//! rides for the marginal bytes of its payload rather than a dedicated
//! round-trip.

use serde::{Deserialize, Serialize};
use simcore::SimTime;
use somo::traffic::TrafficLedger;

use crate::aggregate::Aggregate;
use crate::index::QueryIndex;

/// An edge-triggered watch on the cluster backpressure signal: fires only
/// when the free-degree fraction at `rank` crosses `threshold`. This is the
/// admission controller's subscription to its SOMO parent's aggregate —
/// the same crossings-only discipline as [`Subscription`], applied to the
/// [`crate::aggregate::PressureReport`] instead of a region count.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PressureWatch {
    /// Claim rank whose free fraction is watched (0..=3).
    pub rank: u8,
    /// Scarcity threshold: scarce when `free_frac[rank] < threshold`.
    pub threshold: f64,
    /// Last observed side of the threshold (`None` before any observation).
    last_scarce: Option<bool>,
}

impl PressureWatch {
    /// A watch that has observed nothing yet.
    ///
    /// # Panics
    /// If `rank` is not a claim rank (0..=3), as
    /// [`SubscriptionSet::subscribe`] refuses one.
    pub fn new(rank: u8, threshold: f64) -> PressureWatch {
        assert!(rank < 4, "pressure watch rank {rank} out of range (0..=3)");
        PressureWatch {
            rank,
            threshold,
            last_scarce: None,
        }
    }

    /// Fold one aggregate observation in. Returns `Some(scarce)` only on a
    /// crossing (including the very first observation when it is scarce),
    /// `None` while the signal stays on the same side.
    pub fn observe(&mut self, agg: &Aggregate) -> Option<bool> {
        let scarce = agg.pressure().free_frac[self.rank as usize] < self.threshold;
        let fired = match self.last_scarce {
            None => scarce,
            Some(prev) => prev != scarce,
        };
        self.last_scarce = Some(scarce);
        fired.then_some(scarce)
    }
}

/// A standing threshold query over the pool.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Subscription {
    /// Subscription id (unique per set).
    pub id: u64,
    /// Ring member that registered the subscription (deltas are delivered
    /// to its canonical leaf).
    pub member: u32,
    /// Disk center in coordinate space (ms).
    pub center: [f64; 2],
    /// Disk radius (ms).
    pub radius: f64,
    /// Claim rank the availability filter applies to (0..=3).
    pub rank: u8,
    /// Minimum free degree for a host to count.
    pub min_free: u32,
    /// Fire when the count of qualifying hosts drops below this.
    pub threshold: u64,
}

/// One emitted crossing notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdDelta {
    /// The subscription that fired.
    pub sub: u64,
    /// Evaluation time.
    pub at: SimTime,
    /// `true` = the count just dropped below the threshold (alarm);
    /// `false` = it recovered to at-or-above (all-clear).
    pub below: bool,
    /// The count observed at the crossing.
    pub count: u64,
}

impl ThresholdDelta {
    /// Fixed wire size of a delta riding in a newscast publication:
    /// sub id (8) + stamp (8) + flag (1) + count (8).
    pub const WIRE_BYTES: usize = 25;
}

/// A set of standing queries evaluated against one [`QueryIndex`].
#[derive(Default)]
pub struct SubscriptionSet {
    subs: Vec<Subscription>,
    /// Last known below/above state per subscription (index-aligned with
    /// `subs`); `None` until first evaluated.
    state: Vec<Option<bool>>,
    next_id: u64,
    /// Incremental dissemination traffic charged for emitted deltas.
    traffic: TrafficLedger,
}

impl SubscriptionSet {
    /// An empty set.
    pub fn new() -> SubscriptionSet {
        SubscriptionSet::default()
    }

    /// Register a standing query; returns its id.
    ///
    /// # Panics
    /// If `rank` is not a claim rank (0..=3): the query would otherwise
    /// fail at its first evaluation, inside whatever run drives the set.
    #[allow(clippy::too_many_arguments)]
    pub fn subscribe(
        &mut self,
        member: u32,
        center: [f64; 2],
        radius: f64,
        rank: u8,
        min_free: u32,
        threshold: u64,
    ) -> u64 {
        assert!(rank < 4, "subscription rank {rank} out of range (0..=3)");
        let id = self.next_id;
        self.next_id += 1;
        self.subs.push(Subscription {
            id,
            member,
            center,
            radius,
            rank,
            min_free,
            threshold,
        });
        self.state.push(None);
        id
    }

    /// Registered subscriptions.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subs
    }

    /// Check that every subscriber is a member of a ring of `members`
    /// members — what [`Self::evaluate`] demands of the index it is given.
    ///
    /// # Panics
    /// If a subscription's `member` is out of range, naming the
    /// subscription.
    pub fn check_members(&self, members: usize) {
        for sub in &self.subs {
            assert!(
                (sub.member as usize) < members,
                "subscription {}: member {} out of range for a ring of {members} members",
                sub.id,
                sub.member
            );
        }
    }

    /// Evaluate every subscription against the index's current aggregates
    /// and emit deltas for the predicates that *crossed* their threshold
    /// since the last evaluation (first evaluation emits only alarms, so a
    /// healthy pool starts silent).
    ///
    /// # Panics
    /// Per [`Self::check_members`], before any query runs.
    pub fn evaluate(&mut self, index: &mut QueryIndex, now: SimTime) -> Vec<ThresholdDelta> {
        self.check_members(index.members());
        let mut deltas = Vec::new();
        for (sub, state) in self.subs.iter().zip(&mut self.state) {
            let ans = index.range(sub.center, sub.radius, sub.rank as usize, sub.min_free);
            let count = ans.hosts.len() as u64;
            let below = count < sub.threshold;
            let fire = match *state {
                None => below, // initial alarm only
                Some(prev) => prev != below,
            };
            *state = Some(below);
            if fire {
                // The delta piggybacks on the newscast dissemination path:
                // its marginal payload bytes across the inter-host edges
                // from the root down to the subscriber's canonical leaf. No
                // extra messages — the publication is flowing anyway.
                let leaf = index.leaf_of(sub.member as usize);
                self.traffic.bytes +=
                    index.edges_between(leaf, 0) * ThresholdDelta::WIRE_BYTES as u64;
                deltas.push(ThresholdDelta {
                    sub: sub.id,
                    at: now,
                    below,
                    count,
                });
            }
        }
        deltas
    }

    /// Incremental dissemination traffic charged so far.
    pub fn traffic(&self) -> TrafficLedger {
        self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{HostSample, RegionBounds};
    use dht::Ring;
    use netsim::HostId;
    use somo::Report;

    fn sample(m: usize, free3: u32) -> HostSample {
        HostSample {
            host: HostId(m as u32),
            free: [free3 + 3, free3 + 2, free3 + 1, free3],
            pos: [0.0, 0.0],
            bw_class: 0,
            sampled_at: SimTime::from_secs(1),
            capacity: free3 + 4,
            queued: 0,
            preempted: 0,
        }
    }

    #[test]
    fn pressure_watch_fires_only_on_crossings() {
        let bounds = RegionBounds::default();
        let agg = |free3: u32| {
            let mut a = Aggregate::empty();
            for m in 0..4 {
                a.merge(&Aggregate::of_sample(&sample(m, free3), &bounds));
            }
            a
        };
        // sample() publishes capacity free3 + 4, so free_frac[3] for a
        // uniform pool is free3 / (free3 + 4).
        let rank = 3;
        let fresh = PressureWatch::new(rank, 0.5);
        let mut w = fresh;
        // free 8 of capacity 12 → frac 2/3, abundant: first observation on
        // the calm side fires nothing.
        assert_eq!(w.observe(&agg(8)), None);
        // free 2 of capacity 6 → frac 1/3: scarcity crossing fires.
        assert_eq!(w.observe(&agg(2)), Some(true));
        // Staying scarce is silent.
        assert_eq!(w.observe(&agg(1)), None);
        // Recovery fires the all-clear.
        assert_eq!(w.observe(&agg(9)), Some(false));
        // A watch whose very first observation is scarce alarms at once.
        let mut cold = fresh;
        assert_eq!(cold.observe(&agg(1)), Some(true));
    }

    fn build(n: u32) -> QueryIndex {
        let ring = Ring::with_random_ids((0..n).map(HostId), 77);
        QueryIndex::build(
            &ring,
            4,
            SimTime::from_secs(5),
            RegionBounds::default(),
            |m| Some(sample(m, 5)),
        )
    }

    #[test]
    fn deltas_fire_only_on_crossings() {
        let mut idx = build(50);
        let mut subs = SubscriptionSet::new();
        let id = subs.subscribe(0, [0.0, 0.0], 100.0, 3, 1, 30);
        // 50 hosts with free 5 ≥ threshold 30: silent.
        assert!(subs.evaluate(&mut idx, SimTime::from_secs(10)).is_empty());
        // Re-evaluating an unchanged pool stays silent (no repeat spam).
        assert!(subs.evaluate(&mut idx, SimTime::from_secs(15)).is_empty());
        // Drain 25 hosts to zero free: count 25 < 30 → one alarm.
        for m in 0..25 {
            idx.update_member(m, Some(sample(m, 0)));
        }
        let fired = subs.evaluate(&mut idx, SimTime::from_secs(20));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].sub, id);
        assert!(fired[0].below);
        assert_eq!(fired[0].count, 25);
        // Still below: silent again.
        assert!(subs.evaluate(&mut idx, SimTime::from_secs(25)).is_empty());
        // Recover → one all-clear.
        for m in 0..25 {
            idx.update_member(m, Some(sample(m, 5)));
        }
        let clear = subs.evaluate(&mut idx, SimTime::from_secs(30));
        assert_eq!(clear.len(), 1);
        assert!(!clear[0].below);
    }

    #[test]
    fn initial_evaluation_alarms_an_already_starved_pool() {
        let mut idx = build(10);
        let mut subs = SubscriptionSet::new();
        subs.subscribe(0, [0.0, 0.0], 100.0, 3, 1, 50);
        let fired = subs.evaluate(&mut idx, SimTime::from_secs(1));
        assert_eq!(fired.len(), 1);
        assert!(fired[0].below);
    }

    #[test]
    fn dissemination_traffic_charged_per_delta() {
        let mut idx = build(60);
        let mut subs = SubscriptionSet::new();
        subs.subscribe(3, [0.0, 0.0], 100.0, 3, 1, 200);
        let before = subs.traffic().bytes;
        let fired = subs.evaluate(&mut idx, SimTime::from_secs(5));
        assert_eq!(fired.len(), 1);
        assert!(subs.traffic().bytes >= before, "bytes must not regress");
        // Steady state: no further deltas, no further bytes.
        let t = subs.traffic().bytes;
        subs.evaluate(&mut idx, SimTime::from_secs(10));
        assert_eq!(subs.traffic().bytes, t);
    }

    #[test]
    #[should_panic(expected = "subscription rank 4 out of range (0..=3)")]
    fn a_rank_that_does_not_exist_is_rejected_at_registration() {
        SubscriptionSet::new().subscribe(0, [0.0, 0.0], 100.0, 4, 1, 50);
    }

    #[test]
    #[should_panic(expected = "pressure watch rank 7 out of range (0..=3)")]
    fn a_pressure_watch_at_a_rank_that_does_not_exist_is_rejected() {
        PressureWatch::new(7, 0.5);
    }

    #[test]
    fn a_subscriber_outside_the_ring_is_refused_before_any_query_runs() {
        let mut idx = build(60);
        let mut subs = SubscriptionSet::new();
        subs.subscribe(3, [0.0, 0.0], 100.0, 3, 1, 200);
        subs.subscribe(60, [0.0, 0.0], 100.0, 3, 1, 200);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            subs.evaluate(&mut idx, SimTime::from_secs(5))
        }))
        .expect_err("member 60 of 60 is out of range");
        assert_eq!(
            refused.downcast_ref::<String>().map(String::as_str),
            Some("subscription 1: member 60 out of range for a ring of 60 members")
        );
        // The well-formed first subscription was not evaluated either.
        assert_eq!(idx.query_traffic(), TrafficLedger::default());
        assert_eq!(subs.traffic(), TrafficLedger::default());
    }
}
