//! The market's registered invariants and the read-only view they sample.

use alm::multipath::check_disjointness;
use alm::MulticastTree;
use netsim::HostId;
use simcore::audit::{AuditCtx, InvariantSet};
use simcore::SimTime;

use super::admission::queued;
use super::{AdmissionStats, MarketSim, Mode};
use crate::degree_table::SessionId;
use crate::task_manager::fanout_cap;
use crate::ResourcePool;

impl MarketSim {
    /// Take one invariant-audit sample of the current market state.
    pub(super) fn audit_sample(&mut self, now: SimTime) {
        let Some(mut aud) = self.auditor.take() else {
            return;
        };
        let sessions: Vec<SessionAuditEntry<'_>> = self
            .slots
            .iter()
            .map(|s| SessionAuditEntry {
                id: s.spec.id,
                active: s.is_active(),
                replan_pending: s.replan_pending,
                root: s.spec.root,
                trees: s.phase.trees(),
            })
            .collect();
        let admission = match &self.mode {
            Mode::Admission(adm) => Some(AdmissionAudit {
                ledger: &self.outcome.admission,
                queued_now: queued(&self.slots),
                preemptions: adm.preemptions,
            }),
            Mode::Priority | Mode::Pareto => None,
        };
        let view = MarketAuditView {
            pool: &self.pool,
            sessions,
            admission,
        };
        aud.sample(&market_invariants(), &view, now);
        self.auditor = Some(aud);
    }
}

/// One session's state as the auditor sees it.
struct SessionAuditEntry<'a> {
    /// Session identity.
    id: SessionId,
    /// Whether the session is currently active.
    active: bool,
    /// Whether a preemption replan is scheduled but not yet run — the
    /// session's trees are stale until it fires.
    replan_pending: bool,
    /// Current root (post-failover if one happened).
    root: HostId,
    /// The reserved trees: `[0]` serves, `[1..]` are the standbys of a
    /// multipath session. Empty while inactive or dormant.
    trees: &'a [MulticastTree],
}

/// Read-only bundle of market state handed to the registered invariants.
struct MarketAuditView<'a> {
    /// The pool (degree tables, liveness).
    pool: &'a ResourcePool,
    /// Every session slot.
    sessions: Vec<SessionAuditEntry<'a>>,
    /// Admission-controller snapshot ([`AllocationMode::Admission`](super::AllocationMode::Admission) runs
    /// only; `None` elsewhere, where the admission invariants are no-ops).
    admission: Option<AdmissionAudit<'a>>,
}

/// The admission controller as the auditor sees it at one sample.
#[derive(Clone, Copy)]
struct AdmissionAudit<'a> {
    /// The run's admission ledger so far.
    ledger: &'a AdmissionStats,
    /// Sessions sitting in an admission queue right now.
    queued_now: u64,
    /// Preemption victims observed so far (must stay 0).
    preemptions: u64,
}

fn inv_degree_conservation(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for (h, _, t) in v.pool.tables().rows() {
        ctx.check(t.used() <= t.dbound(), || {
            format!("host {h:?} oversubscribed: {}/{}", t.used(), t.dbound())
        });
        ctx.check(t.free() + t.used() == t.dbound(), || {
            format!(
                "host {h:?} books don't balance: free {} + used {} != dbound {}",
                t.free(),
                t.used(),
                t.dbound()
            )
        });
        // No double-booking: one allocation row per (session, rank), all
        // positive, and at most one session claiming member rank (member
        // sets are disjoint by construction).
        let allocs = t.allocations();
        let mut member_sessions = 0usize;
        for (k, a) in allocs.iter().enumerate() {
            ctx.check(a.count > 0, || {
                format!("host {h:?} holds an empty allocation for {:?}", a.session)
            });
            ctx.check(
                allocs[k + 1..]
                    .iter()
                    .all(|b| (b.session, b.rank) != (a.session, a.rank)),
                || format!("host {h:?} double-books {:?} at {:?}", a.session, a.rank),
            );
            if a.rank == crate::Rank::MEMBER {
                member_sessions += 1;
            }
        }
        ctx.check(member_sessions <= 1, || {
            format!("host {h:?} claimed as member by {member_sessions} sessions")
        });
    }
}

/// A session that is not active may only hold *leased* degrees (they will
/// lapse); permanent degrees held by an inactive session would leak to the
/// horizon.
fn inv_lease_holder_consistency(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for s in &v.sessions {
        if s.active {
            continue;
        }
        for h in v.pool.tables().holdings_of(s.id) {
            ctx.check(
                v.pool
                    .table(h)
                    .allocations()
                    .iter()
                    .filter(|a| a.session == s.id)
                    .all(|a| a.expires_at.is_some()),
                || {
                    format!(
                        "inactive session {:?} holds permanent degrees on {h:?}",
                        s.id
                    )
                },
            );
        }
    }
}

fn inv_tree_degree_bounds(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for s in &v.sessions {
        let Some(tree) = s.trees.first() else {
            continue;
        };
        if !s.active {
            continue;
        }
        ctx.check(tree.root() == s.root, || {
            format!(
                "session {:?} tree rooted at {:?}, expected {:?}",
                s.id,
                tree.root(),
                s.root
            )
        });
        for &h in tree.hosts() {
            let bound = v.pool.net.hosts.degree_bound(h);
            ctx.check(tree.degree(h) <= bound, || {
                format!(
                    "session {:?} tree uses {} degrees on {h:?}, bound {bound}",
                    s.id,
                    tree.degree(h)
                )
            });
        }
    }
}

/// No degree unit double-counted across a multipath session's trees, and
/// no host driven past its access-bandwidth fan-out cap: for every active
/// session holding standby trees, the summed per-host tree degree must
/// stay within what the session has actually reserved there, and the
/// summed per-host fan-out (children only) within [`fanout_cap`].
///
/// Two transient states are exempt, both repaired within one scheduled
/// event: a session whose reservation was preempted keeps its stale trees
/// until the 1 s replan notification fires (`replan_pending`), and a tree
/// spanning a just-crashed host references degrees the stranded-claim
/// sweep already released — dead hosts are unconstrained until the
/// detection round replaces the tree.
fn inv_tree_disjointness(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for s in &v.sessions {
        if !s.active || s.replan_pending || s.trees.len() < 2 {
            continue;
        }
        let primary = &s.trees[0];
        let violations = check_disjointness(
            s.trees,
            |h| {
                if v.pool.is_alive(h) {
                    v.pool.table(h).held_by(s.id)
                } else {
                    u32::MAX
                }
            },
            |h| {
                if v.pool.is_alive(h) {
                    fanout_cap(v.pool, primary, h)
                } else {
                    u32::MAX
                }
            },
        );
        ctx.check(violations.is_empty(), || {
            format!(
                "session {:?} cross-tree capacity violations: {violations:?}",
                s.id
            )
        });
    }
}

/// Queue conservation: every arrival that reached the admission
/// controller resolved to exactly one of admitted / degraded / rejected /
/// still-queued. A no-op outside Admission mode.
fn inv_admission_conservation(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    let Some(a) = v.admission else { return };
    let l = a.ledger;
    let resolved = l.admitted + l.degraded + l.rejected + a.queued_now;
    ctx.check(l.arrivals == resolved, || {
        format!(
            "admission books don't balance: {} arrivals vs {} admitted + {} degraded + \
             {} rejected + {} queued",
            l.arrivals, l.admitted, l.degraded, l.rejected, a.queued_now
        )
    });
}

/// Admission mode never preempts: graceful degradation replaces eviction,
/// so the preemption counter must read 0 at every sample. A no-op outside
/// Admission mode.
fn inv_admission_no_preemption(v: &MarketAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    let Some(a) = v.admission else { return };
    ctx.check(a.preemptions == 0, || {
        format!("admission mode preempted {} times", a.preemptions)
    });
}

/// The market's registered invariants: degree conservation (reserved ≤
/// capacity, no double-booking), lease/holder consistency, tree degree
/// bounds, cross-tree disjointness of multipath sessions, and the two
/// admission-controller invariants (queue conservation, zero preemption).
/// Rebuilt per sample — the set is a handful of `fn` pointers.
fn market_invariants<'a>() -> InvariantSet<MarketAuditView<'a>> {
    InvariantSet::new()
        .register("degree-conservation", inv_degree_conservation)
        .register("lease-holder-consistency", inv_lease_holder_consistency)
        .register("tree-degree-bounds", inv_tree_degree_bounds)
        .register("tree-disjointness", inv_tree_disjointness)
        .register("admission-conservation", inv_admission_conservation)
        .register("admission-no-preemption", inv_admission_no_preemption)
}
