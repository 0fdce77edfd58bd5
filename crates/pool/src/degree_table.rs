//! Degree tables (Figure 9): the unit of market competition.
//!
//! Every host publishes, through SOMO, how its degree budget is split
//! across the sessions currently using it, broken down by priority:
//!
//! ```text
//! d_bound(x)   4
//! x.dt[1]      2 (s4)     ← two degrees held at priority 1 by session 4
//! x.dt[2]      0
//! x.dt[3]      1 (s12)    ← one degree held at priority 3 by session 12
//! ```
//!
//! A session of priority L sees, on each host, the free degrees **plus**
//! every degree held at priority worse than L — those are preemptible
//! (§5.3: "any resources that are occupied by tasks with lower priorities
//! than L are considered available for its use").
//!
//! Claims are ranked: a **member claim** (a session using a node from its
//! own member set M(s)) always ranks 0 — "if a node needs to run a job
//! which includes itself as a member, it is fair to have that job be of
//! highest priority in that node" — while **helper claims** rank at the
//! session's priority (1–3). Preemption strictly follows rank order, which
//! guarantees every session can at least realize its members-only plan.

use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// A multicast session's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u32);

/// The rank of a degree claim: 0 for member claims, the session priority
/// (1 = highest, 3 = lowest) for helper claims. Lower rank wins; a claim
/// may preempt allocations of strictly greater rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Rank(pub u8);

impl Rank {
    /// The rank of a member claim.
    pub const MEMBER: Rank = Rank(0);

    /// The rank of a helper claim for a session of the given priority
    /// (1..=3).
    pub fn helper(priority: u8) -> Rank {
        assert!((1..=3).contains(&priority), "priority must be 1..=3");
        Rank(priority)
    }
}

/// One allocation inside a degree table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Who holds the degrees.
    pub session: SessionId,
    /// At what rank.
    pub rank: Rank,
    /// How many degrees.
    pub count: u32,
    /// When the claim lapses unless renewed. `None` is a permanent
    /// reservation (the pre-lease model, still used by the static planners).
    pub expires_at: Option<SimTime>,
}

/// The later of two lease deadlines, where `None` means "never expires".
fn later_expiry(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    }
}

/// The degree table of one host. `PartialEq` compares the full allocation
/// list in order — the equality the replay-determinism gates assert.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegreeTable {
    dbound: u32,
    alloc: Vec<Allocation>,
}

impl DegreeTable {
    /// A table for a host with the given physical degree bound.
    pub fn new(dbound: u32) -> DegreeTable {
        DegreeTable {
            dbound,
            alloc: Vec::new(),
        }
    }

    /// A table rebuilt from a captured allocation list, in its captured
    /// order (how a frozen live-ops snapshot thaws a host).
    pub(crate) fn with_allocations(dbound: u32, alloc: Vec<Allocation>) -> DegreeTable {
        DegreeTable { dbound, alloc }
    }

    /// The host's physical degree bound.
    pub fn dbound(&self) -> u32 {
        self.dbound
    }

    /// Degrees currently allocated (any rank).
    pub fn used(&self) -> u32 {
        self.alloc.iter().map(|a| a.count).sum()
    }

    /// Unallocated degrees. Saturating: even if a bug (or a hostile report)
    /// ever oversubscribes the table, `free()` answers 0 rather than
    /// wrapping into a huge bogus availability.
    pub fn free(&self) -> u32 {
        self.dbound.saturating_sub(self.used())
    }

    /// Degrees a claim of `rank` could obtain: free plus everything held at
    /// strictly worse rank.
    pub fn available_at(&self, rank: Rank) -> u32 {
        self.free()
            + self
                .alloc
                .iter()
                .filter(|a| a.rank > rank)
                .map(|a| a.count)
                .sum::<u32>()
    }

    /// [`Self::available_at`] every claim rank, member rank first — the
    /// availability a host publishes (index = rank 0..=3).
    pub fn available_by_rank(&self) -> [u32; 4] {
        [0, 1, 2, 3].map(|r| self.available_at(Rank(r)))
    }

    /// Degrees pinned by member-rank claims. Member claims are mandatory
    /// overhead no allocation policy can move, so `dbound − member_held`
    /// is the capacity a fair-share water-filling distributes.
    pub fn member_held(&self) -> u32 {
        self.alloc
            .iter()
            .filter(|a| a.rank == Rank::MEMBER)
            .map(|a| a.count)
            .sum()
    }

    /// Degrees held by a session on this host (any rank).
    pub fn held_by(&self, session: SessionId) -> u32 {
        self.alloc
            .iter()
            .filter(|a| a.session == session)
            .map(|a| a.count)
            .sum()
    }

    /// The allocations, for inspection/reporting.
    pub fn allocations(&self) -> &[Allocation] {
        &self.alloc
    }

    /// Reserve `count` degrees for `session` at `rank`, preempting
    /// worse-rank holders if needed (worst rank evicted first). Returns the
    /// preempted sessions `(session, degrees_lost)`. The claim is a
    /// **lease**: it lapses at `expires_at` unless renewed (see
    /// [`DegreeTable::renew`] and [`DegreeTable::expire`]). `None`
    /// reserves permanently.
    ///
    /// # Errors
    /// If even full preemption cannot satisfy the claim; the table is left
    /// unchanged.
    pub fn reserve_until(
        &mut self,
        session: SessionId,
        rank: Rank,
        count: u32,
        expires_at: Option<SimTime>,
    ) -> Result<Vec<(SessionId, u32)>, InsufficientDegree> {
        if count == 0 {
            return Ok(vec![]);
        }
        if self.available_at(rank) < count {
            return Err(InsufficientDegree {
                requested: count,
                available: self.available_at(rank),
            });
        }
        let mut preempted = Vec::new();
        let mut need = count.saturating_sub(self.free());
        // Evict from the worst-ranked allocations first.
        while need > 0 {
            let victim_idx = self
                .alloc
                .iter()
                .enumerate()
                .filter(|(_, a)| a.rank > rank)
                .max_by_key(|(_, a)| a.rank)
                .map(|(i, _)| i)
                .expect("availability check guaranteed a victim");
            let take = need.min(self.alloc[victim_idx].count);
            self.alloc[victim_idx].count -= take;
            preempted.push((self.alloc[victim_idx].session, take));
            if self.alloc[victim_idx].count == 0 {
                self.alloc.swap_remove(victim_idx);
            }
            need -= take;
        }
        // Record (merging with an existing same-rank allocation; the merged
        // lease keeps the later deadline, with "permanent" as the top).
        if let Some(a) = self
            .alloc
            .iter_mut()
            .find(|a| a.session == session && a.rank == rank)
        {
            a.count += count;
            a.expires_at = later_expiry(a.expires_at, expires_at);
        } else {
            self.alloc.push(Allocation {
                session,
                rank,
                count,
                expires_at,
            });
        }
        debug_assert!(self.used() <= self.dbound, "degree table oversubscribed");
        Ok(preempted)
    }

    /// Release everything `session` holds on this host. Returns the number
    /// of degrees freed. Idempotent: releasing a session that holds nothing
    /// (including a second release of the same session) frees 0 and leaves
    /// the table unchanged — double releases can never underflow the pool.
    pub fn release(&mut self, session: SessionId) -> u32 {
        let freed = self.held_by(session);
        self.alloc.retain(|a| a.session != session);
        freed
    }

    /// Release up to `count` degrees `session` holds at `rank` — the
    /// partial-release primitive the multipath planner uses to roll back or
    /// tear down **one** of a session's trees while the others keep their
    /// units. Returns the degrees actually freed (0 if the session holds
    /// nothing at that rank); idempotent like [`DegreeTable::release`].
    pub fn release_count(&mut self, session: SessionId, rank: Rank, count: u32) -> u32 {
        let Some(i) = self
            .alloc
            .iter()
            .position(|a| a.session == session && a.rank == rank)
        else {
            return 0;
        };
        let take = count.min(self.alloc[i].count);
        self.alloc[i].count -= take;
        if self.alloc[i].count == 0 {
            self.alloc.swap_remove(i);
        }
        take
    }

    /// Extend every lease `session` holds on this host to `expires_at`
    /// (never shortening an existing lease, never demoting a permanent
    /// reservation). Returns the number of degrees renewed — 0 tells a task
    /// manager its claim has already lapsed.
    pub fn renew(&mut self, session: SessionId, expires_at: SimTime) -> u32 {
        let mut renewed = 0;
        for a in self.alloc.iter_mut().filter(|a| a.session == session) {
            if let Some(e) = a.expires_at {
                a.expires_at = Some(e.max(expires_at));
            }
            renewed += a.count;
        }
        renewed
    }

    /// Lapse every lease whose deadline has passed (`expires_at <= now`).
    /// Returns the reclaimed degrees aggregated per session, in session
    /// order (deterministic for a given table state).
    pub fn expire(&mut self, now: SimTime) -> Vec<(SessionId, u32)> {
        let mut lapsed: Vec<(SessionId, u32)> = Vec::new();
        self.alloc.retain(|a| {
            let lapse = matches!(a.expires_at, Some(e) if e <= now);
            if lapse {
                match lapsed.iter_mut().find(|(s, _)| *s == a.session) {
                    Some((_, c)) => *c += a.count,
                    None => lapsed.push((a.session, a.count)),
                }
            }
            !lapse
        });
        lapsed.sort_unstable_by_key(|(s, _)| *s);
        lapsed
    }
}

/// A reservation could not be satisfied even with preemption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsufficientDegree {
    /// Degrees requested.
    pub requested: u32,
    /// Degrees that were available at the claim's rank.
    pub available: u32,
}

impl std::fmt::Display for InsufficientDegree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requested {} degrees, only {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for InsufficientDegree {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure_9_example() {
        // x: dbound 4, 2 degrees to s4 at priority 1, 1 degree to s12 at
        // priority 3.
        let mut x = DegreeTable::new(4);
        x.reserve_until(SessionId(4), Rank::helper(1), 2, None)
            .unwrap();
        x.reserve_until(SessionId(12), Rank::helper(3), 1, None)
            .unwrap();
        assert_eq!(x.free(), 1);
        assert_eq!(x.available_at(Rank::helper(1)), 2); // free + s12's degree
        assert_eq!(x.available_at(Rank::helper(3)), 1); // free only
        assert_eq!(x.held_by(SessionId(4)), 2);
    }

    #[test]
    fn preemption_takes_worst_rank_first() {
        let mut t = DegreeTable::new(4);
        t.reserve_until(SessionId(1), Rank::helper(2), 2, None)
            .unwrap();
        t.reserve_until(SessionId(2), Rank::helper(3), 2, None)
            .unwrap();
        // Priority-1 claim of 3: takes 0 free, must evict s2 (rank 3)
        // fully and s1 (rank 2) for one degree.
        let pre = t
            .reserve_until(SessionId(3), Rank::helper(1), 3, None)
            .unwrap();
        assert_eq!(pre, vec![(SessionId(2), 2), (SessionId(1), 1)]);
        assert_eq!(t.held_by(SessionId(3)), 3);
        assert_eq!(t.held_by(SessionId(1)), 1);
        assert_eq!(t.held_by(SessionId(2)), 0);
    }

    #[test]
    fn equal_rank_cannot_preempt() {
        let mut t = DegreeTable::new(2);
        t.reserve_until(SessionId(1), Rank::helper(2), 2, None)
            .unwrap();
        let err = t
            .reserve_until(SessionId(2), Rank::helper(2), 1, None)
            .unwrap_err();
        assert_eq!(err.available, 0);
        // Table unchanged.
        assert_eq!(t.held_by(SessionId(1)), 2);
    }

    #[test]
    fn member_claim_preempts_priority_one_helpers() {
        let mut t = DegreeTable::new(2);
        t.reserve_until(SessionId(1), Rank::helper(1), 2, None)
            .unwrap();
        let pre = t
            .reserve_until(SessionId(2), Rank::MEMBER, 2, None)
            .unwrap();
        assert_eq!(pre, vec![(SessionId(1), 2)]);
        assert_eq!(t.held_by(SessionId(2)), 2);
    }

    #[test]
    fn release_frees_everything() {
        let mut t = DegreeTable::new(5);
        t.reserve_until(SessionId(7), Rank::helper(2), 2, None)
            .unwrap();
        t.reserve_until(SessionId(7), Rank::MEMBER, 1, None)
            .unwrap();
        assert_eq!(t.release(SessionId(7)), 3);
        assert_eq!(t.free(), 5);
        assert_eq!(t.release(SessionId(7)), 0);
    }

    #[test]
    fn double_release_is_idempotent_and_never_underflows() {
        // Regression guard mirroring the PR 1 `RemapStats::dropped` fix: a
        // crash-recovery race can release the same session from both the
        // detection path and the lease-expiry sweep. The second release must
        // be a no-op, and `free()` must never exceed `dbound`.
        let mut t = DegreeTable::new(3);
        t.reserve_until(SessionId(9), Rank::helper(2), 2, None)
            .unwrap();
        assert_eq!(t.release(SessionId(9)), 2);
        assert_eq!(t.release(SessionId(9)), 0);
        assert_eq!(t.release(SessionId(9)), 0);
        assert_eq!(t.free(), 3);
        assert_eq!(t.free() + t.used(), t.dbound());
        // Releasing a session that never reserved is equally harmless.
        assert_eq!(t.release(SessionId(1000)), 0);
        assert_eq!(t.free(), 3);
    }

    #[test]
    fn release_count_frees_one_trees_worth_and_keeps_the_rest() {
        // A multipath session holds 3 member-rank degrees (2 trees' worth on
        // this host: 2 + 1) plus an unrelated helper claim. Tearing down one
        // tree returns exactly its degree, leaving the other allocations.
        let mut t = DegreeTable::new(6);
        t.reserve_until(SessionId(7), Rank::MEMBER, 3, None)
            .unwrap();
        t.reserve_until(SessionId(7), Rank::helper(2), 2, None)
            .unwrap();
        assert_eq!(t.release_count(SessionId(7), Rank::MEMBER, 1), 1);
        assert_eq!(t.held_by(SessionId(7)), 4);
        assert_eq!(t.free(), 2);
        // Over-asking is clamped to what the (session, rank) pair holds…
        assert_eq!(t.release_count(SessionId(7), Rank::MEMBER, 99), 2);
        // …and a drained allocation disappears: further releases are no-ops.
        assert_eq!(t.release_count(SessionId(7), Rank::MEMBER, 1), 0);
        assert_eq!(t.release_count(SessionId(8), Rank::helper(2), 1), 0);
        assert_eq!(t.held_by(SessionId(7)), 2);
        assert_eq!(t.free() + t.used(), t.dbound());
    }

    #[test]
    fn leases_lapse_unless_renewed() {
        let t0 = SimTime::from_secs(100);
        let mut t = DegreeTable::new(4);
        t.reserve_until(SessionId(1), Rank::helper(1), 2, Some(t0))
            .unwrap();
        t.reserve_until(
            SessionId(2),
            Rank::helper(2),
            1,
            Some(t0 + SimTime::from_secs(50)),
        )
        .unwrap();
        // Before any deadline nothing lapses.
        assert!(t.expire(SimTime::from_secs(99)).is_empty());
        // Session 1 renews; session 2 does not.
        assert_eq!(t.renew(SessionId(1), SimTime::from_secs(400)), 2);
        let lapsed = t.expire(SimTime::from_secs(200));
        assert_eq!(lapsed, vec![(SessionId(2), 1)]);
        assert_eq!(t.held_by(SessionId(1)), 2);
        assert_eq!(t.held_by(SessionId(2)), 0);
        assert_eq!(t.free(), 2);
        // After session 1's extended lease passes, it lapses too.
        let lapsed = t.expire(SimTime::from_secs(400));
        assert_eq!(lapsed, vec![(SessionId(1), 2)]);
        assert_eq!(t.free(), 4);
    }

    #[test]
    fn renewing_a_lapsed_lease_reports_zero() {
        let mut t = DegreeTable::new(2);
        t.reserve_until(
            SessionId(5),
            Rank::helper(3),
            2,
            Some(SimTime::from_secs(10)),
        )
        .unwrap();
        t.expire(SimTime::from_secs(10));
        // The missed-renewal ack: the degrees are gone.
        assert_eq!(t.renew(SessionId(5), SimTime::from_secs(99)), 0);
    }

    #[test]
    fn permanent_reservations_never_expire_and_win_lease_merges() {
        let mut t = DegreeTable::new(4);
        t.reserve_until(SessionId(1), Rank::helper(1), 1, None)
            .unwrap();
        // Merging a leased claim into a permanent one keeps it permanent.
        t.reserve_until(
            SessionId(1),
            Rank::helper(1),
            1,
            Some(SimTime::from_secs(5)),
        )
        .unwrap();
        assert!(t.expire(SimTime::MAX).is_empty());
        assert_eq!(t.held_by(SessionId(1)), 2);
        // Renew never demotes a permanent claim either.
        t.renew(SessionId(1), SimTime::from_secs(1));
        assert!(t.expire(SimTime::MAX).is_empty());
    }

    #[test]
    fn lease_merge_keeps_the_later_deadline() {
        let mut t = DegreeTable::new(4);
        t.reserve_until(
            SessionId(1),
            Rank::helper(2),
            1,
            Some(SimTime::from_secs(30)),
        )
        .unwrap();
        t.reserve_until(
            SessionId(1),
            Rank::helper(2),
            1,
            Some(SimTime::from_secs(10)),
        )
        .unwrap();
        // The shorter lease cannot clip the longer one.
        assert!(t.expire(SimTime::from_secs(20)).is_empty());
        assert_eq!(t.expire(SimTime::from_secs(30)), vec![(SessionId(1), 2)]);
    }

    #[test]
    fn zero_count_reservation_is_noop() {
        let mut t = DegreeTable::new(1);
        assert_eq!(
            t.reserve_until(SessionId(1), Rank::helper(3), 0, None)
                .unwrap(),
            vec![]
        );
        assert_eq!(t.free(), 1);
    }

    #[test]
    #[should_panic(expected = "priority must be")]
    fn helper_rank_rejects_priority_zero() {
        Rank::helper(0);
    }

    proptest! {
        #[test]
        fn prop_never_oversubscribed_and_release_restores(
            dbound in 1u32..10,
            ops in proptest::collection::vec(
                (0u32..6, 0u8..4, 1u32..5, proptest::bool::ANY),
                1..40
            ),
        ) {
            let mut t = DegreeTable::new(dbound);
            for (sess, rank, count, is_release) in ops {
                let sid = SessionId(sess);
                if is_release {
                    t.release(sid);
                } else {
                    let rank = Rank(rank.min(3));
                    let _ = t.reserve_until(sid, rank, count, None);
                }
                prop_assert!(t.used() <= t.dbound());
                prop_assert_eq!(t.free() + t.used(), t.dbound());
            }
            // Releasing every session restores an empty table.
            for s in 0..6 {
                t.release(SessionId(s));
            }
            prop_assert_eq!(t.free(), dbound);
            prop_assert!(t.allocations().is_empty());
        }

        #[test]
        fn prop_lease_ops_conserve_degrees(
            dbound in 1u32..8,
            ops in proptest::collection::vec(
                // (session, rank, count, op, time-in-secs)
                (0u32..5, 0u8..4, 1u32..4, 0u8..4, 0u64..100),
                1..50
            ),
        ) {
            let mut t = DegreeTable::new(dbound);
            let mut clock = SimTime::ZERO;
            for (sess, rank, count, op, secs) in ops {
                let sid = SessionId(sess);
                // Time only moves forward, like the event clock.
                clock = clock.max(SimTime::from_secs(secs));
                match op {
                    0 => {
                        let _ = t.reserve_until(
                            sid,
                            Rank(rank.min(3)),
                            count,
                            Some(clock + SimTime::from_secs(10)),
                        );
                    }
                    1 => { t.renew(sid, clock + SimTime::from_secs(10)); }
                    2 => {
                        let lapsed: u32 = t.expire(clock).iter().map(|l| l.1).sum();
                        prop_assert!(lapsed <= dbound);
                    }
                    _ => { t.release(sid); }
                }
                prop_assert!(t.used() <= t.dbound());
                prop_assert_eq!(t.free() + t.used(), t.dbound());
                // No lapsed lease may survive an expiry sweep.
                if op == 2 {
                    prop_assert!(t
                        .allocations()
                        .iter()
                        .all(|a| a.expires_at.is_none_or(|e| e > clock)));
                }
            }
        }

        #[test]
        fn prop_preemption_conserves_degrees(
            dbound in 2u32..10,
            claims in proptest::collection::vec((0u32..5, 1u8..4, 1u32..4), 1..12),
        ) {
            let mut t = DegreeTable::new(dbound);
            for (sess, prio, count) in claims {
                let before_used = t.used();
                match t.reserve_until(SessionId(sess), Rank::helper(prio), count, None) {
                    Ok(preempted) => {
                        let stolen: u32 = preempted.iter().map(|p| p.1).sum();
                        // used grows by exactly count - stolen... no:
                        // used_after = used_before - stolen + count.
                        prop_assert_eq!(t.used(), before_used - stolen + count);
                    }
                    Err(_) => prop_assert_eq!(t.used(), before_used),
                }
            }
        }
    }
}
