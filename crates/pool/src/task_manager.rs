//! The per-session task manager (§5.2–5.3).
//!
//! "The root of an ALM session is the task manager, which performs the
//! planning and scheduling of the tree topology." A task manager:
//!
//! 1. releases whatever its session currently holds (replanning is
//!    all-or-nothing),
//! 2. reads availability from the pool's degree tables (in deployment:
//!    the SOMO root view),
//! 3. plans with the configured algorithm family — AMCast / +helpers
//!    (critical) / +adjust — against the configured latency model
//!    (coordinates in practice, the oracle for the *Critical* baselines),
//! 4. reserves degrees along the planned tree: member nodes at member rank,
//!    helpers at the session's priority rank — preempting lower-priority
//!    holders, who must then replan.
//!
//! The returned [`PlanOutcome`] carries the *oracle* height of the tree
//! (what users would actually experience) and the improvement over the
//! members-only AMCast baseline, the paper's headline metric.

use std::collections::{HashMap, HashSet};

use alm::critical::helpers_used;
use alm::{
    adjust, amcast, try_amcast, try_critical, HelperPool, HelperStrategy, MulticastTree, Problem,
};
use netsim::{HostId, LatencyModel};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::degree_table::{Rank, SessionId};
use crate::ResourcePool;

/// Which latency model the planner consults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanModel {
    /// Exact pairwise latencies everywhere (the paper's *Critical*
    /// family — an oracle).
    Oracle,
    /// The practical *Leafset* family: members measure each other directly
    /// (a session pings its own small member set), while the vast helper
    /// candidate list is judged through leafset network coordinates.
    Coords,
}

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// Latency model used for planning decisions.
    pub model: PlanModel,
    /// Run the adjustment pass after building the tree.
    pub use_adjust: bool,
    /// Condition 2: minimum available degree for a helper.
    pub helper_min_degree: u32,
    /// Condition 3: helper search radius R, ms.
    pub radius_ms: f64,
    /// Helper scoring strategy.
    pub strategy: HelperStrategy,
    /// Candidate budget of a query-based discovery
    /// ([`Candidates::Query`]): the `k` of the top-k idle-helper
    /// query. Matches [`crate::ResourceReport::DEFAULT_CAP`] by default, so
    /// the query path sees the same truncation budget as the snapshot view.
    pub query_k: usize,
    /// Trees planned per session: the primary plus `k_trees - 1`
    /// degree-disjoint standby trees ([`plan_standby_trees`]). 1 (the
    /// default) reproduces the single-tree planner bit for bit.
    pub k_trees: usize,
}

impl Default for PlanConfig {
    /// The paper's practical algorithm: *Leafset + adjust* with helpers,
    /// degree ≥ 4, R = 100 ms, min-max sibling scoring.
    fn default() -> Self {
        PlanConfig {
            model: PlanModel::Coords,
            use_adjust: true,
            helper_min_degree: 4,
            radius_ms: 100.0,
            strategy: HelperStrategy::MinMaxSibling,
            query_k: crate::ResourceReport::DEFAULT_CAP,
            k_trees: 1,
        }
    }
}

/// One ALM session.
///
/// Concurrent sessions must have **disjoint member sets** (the paper's
/// §5.3 assumption): a member claim ranks above every helper claim, so two
/// sessions claiming the same host as a *member* could otherwise leave one
/// of them without even a parent-link degree.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session identity.
    pub id: SessionId,
    /// Priority class, 1 (highest) to 3 (lowest).
    pub priority: u8,
    /// The session root (source; also the task manager).
    pub root: HostId,
    /// The member set M(s), including the root.
    pub members: Vec<HostId>,
}

impl SessionSpec {
    /// The rank this session books host `h` at: its members claim at
    /// member rank, every other tree node at `helper_rank`.
    pub(crate) fn booking_rank(&self, h: HostId, helper_rank: Rank) -> Rank {
        if self.members.contains(&h) {
            Rank::MEMBER
        } else {
            helper_rank
        }
    }
}

/// Result of one planning + reservation round.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The reserved multicast tree (members + helpers).
    pub tree: MulticastTree,
    /// Tree height under the *oracle* latency model, ms.
    pub oracle_height: f64,
    /// Members-only AMCast baseline height (oracle), ms.
    pub baseline_height: f64,
    /// `(baseline − achieved) / baseline` — the paper's metric.
    pub improvement: f64,
    /// Helpers recruited from the pool.
    pub helpers: Vec<HostId>,
    /// Sessions that lost degrees to this reservation and must replan.
    pub preempted: Vec<SessionId>,
    /// Helpers a stale view promised but that refused the reservation
    /// (always 0 when planning from live degree tables).
    pub helper_failures: u32,
    /// Relaxations ([`alm::metrics::relaxations`]) this plan performed:
    /// the thread-local counter's delta across the plan, so a caller sums
    /// per-plan counts instead of resetting a counter it does not own.
    pub relaxations: u64,
}

/// Plan a session's tree against current pool availability and reserve it:
/// live tables, the session's priority shape, permanent claims.
///
/// # Panics
/// If the session's member set is internally infeasible (a member with
/// physical degree bound 0) — impossible with the paper's distribution.
pub fn plan_and_reserve(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
) -> PlanOutcome {
    let shape = PlanShape::priority(spec.priority, cfg.k_trees);
    plan_and_reserve_with(pool, spec, cfg, Candidates::Live(None), shape, None)
}

/// [`plan_and_reserve`] with every reservation leased to `lease`.
/// Kept only because the benchmark package (`perf_e2e/src/trace.rs`)
/// names it; new callers use [`plan_and_reserve_with`].
pub fn plan_and_reserve_leased(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    lease: Option<SimTime>,
) -> PlanOutcome {
    let shape = PlanShape::priority(spec.priority, cfg.k_trees);
    plan_and_reserve_with(pool, spec, cfg, Candidates::Live(None), shape, lease)
}

/// [`plan_and_reserve_leased`] from a top-k query answer
/// ([`Candidates::Query`]). Kept only because the benchmark package
/// (`perf_e2e/src/trace.rs`) names it; new callers use
/// [`plan_and_reserve_with`].
pub fn plan_and_reserve_from_query_leased(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    index: &mut query::QueryIndex,
    lease: Option<SimTime>,
) -> PlanOutcome {
    let shape = PlanShape::priority(spec.priority, cfg.k_trees);
    plan_and_reserve_with(pool, spec, cfg, Candidates::Query(index), shape, lease)
}

/// The rank every session's helper claims are booked at under the fair
/// allocation modes ([`PlanShape::fair`]): the weakest helper rank. Equal
/// ranks never preempt each other, so fair-mode sessions can only take
/// **free** degrees — scarcity is resolved by the share budget, not by
/// evicting a neighbor's tree.
pub const FAIR_HELPER_RANK: Rank = Rank(3);

/// Where a task manager learns what the pool has available: the helper
/// candidates it plans over and the availability it believes for each.
pub enum Candidates<'a> {
    /// The live degree tables — always fresh, so no reservation is refused
    /// for a stale view: the hosts offering at least `helper_min_degree` at
    /// the shape's helper rank (none under a zero helper budget), minus the
    /// session's members, the hosts in the set (if any) and any host with
    /// no free degree. The admission mode bars every market member host
    /// this way, so member-rank reservations can never land on another
    /// session's helper claim.
    Live(Option<&'a HashSet<HostId>>),
    /// An explicit, possibly **stale** SOMO view — what a deployed task
    /// manager reads. Helpers it promised that are no longer available
    /// (over-committed since, or crashed) refuse their reservation, and the
    /// retry loop drops them and replans, like a peer refusing contact.
    View(&'a crate::ResourceReport),
    /// A **top-k query answer** — the `O(log N)` discovery path: the
    /// `cfg.query_k` best idle helpers over the whole pool (the descent
    /// starts at the SOMO root), minus the session's members. Its samples
    /// are a cached view and can be stale like [`Candidates::View`].
    Query(&'a mut query::QueryIndex),
}

/// How a plan books and bounds its reservations — the allocation policy as
/// a value. The priority shape (priority-rank helpers, no budget, no clamp)
/// is the paper's preempting market; [`PlanShape::fair`] is the shape both
/// fair allocation modes plan under.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    /// Rank helper claims are booked at.
    pub(crate) helper_rank: Rank,
    /// Total helper degrees the reservation pass may claim; `u64::MAX`
    /// never refuses. A helper whose tree degree would push the running
    /// total past it is refused like a stale-view lie and the plan retried
    /// without it: the planner sees the pool's full breadth, only the
    /// volume it may claim is capped.
    pub(crate) helper_budget: u64,
    /// Per-member degree clamp for the planning pass (`None` = full
    /// availability), never below 2 so a chain stays feasible. If even the
    /// clamped plan fails, the planner retries against full member
    /// availability: degradation must not kill the session.
    pub(crate) member_degree: Option<u32>,
    /// Standby trees the session will plan behind this primary
    /// ([`plan_standby_trees`]): the primary leaves one degree unit per
    /// standby on every member when it can.
    pub(crate) standby: u32,
}

impl PlanShape {
    /// The preempting priority market's shape for a class-`priority`
    /// session planning `k_trees` trees: helpers at the class's own rank,
    /// no budget, no clamp, `k_trees − 1` standbys.
    pub fn priority(priority: u8, k_trees: usize) -> PlanShape {
        PlanShape {
            helper_rank: Rank::helper(priority),
            helper_budget: u64::MAX,
            member_degree: None,
            standby: k_trees.saturating_sub(1) as u32,
        }
    }

    /// A fair allocation mode's shape: helpers at [`FAIR_HELPER_RANK`]
    /// whatever the session's class (so they only take free degrees), at
    /// most `helper_budget` helper degrees, members clamped to
    /// `member_degree`, and a single tree — standby redundancy is a
    /// priority-market feature. With an open budget and no clamp this is
    /// the priority-3 shape of a one-tree session.
    pub fn fair(helper_budget: u64, member_degree: Option<u32>) -> PlanShape {
        PlanShape {
            helper_rank: FAIR_HELPER_RANK,
            helper_budget,
            member_degree,
            standby: 0,
        }
    }
}

/// Plan a session's tree and reserve it: release what the session holds
/// (replanning is all-or-nothing), read the helper candidates and their
/// believed availability from `source` at `shape.helper_rank`, then `plan`
/// a tree and `book` it under `shape`. Helpers the booking refuses are
/// dropped from the believed list and the plan retried. Every reservation
/// is a **lease** expiring at `lease` unless renewed (`None` reserves
/// permanently): a task manager that dies stops renewing, and its degrees
/// flow back to the pool.
///
/// # Panics
/// As [`plan_and_reserve`].
pub fn plan_and_reserve_with(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    source: Candidates,
    shape: PlanShape,
    lease: Option<SimTime>,
) -> PlanOutcome {
    pool.release_session(spec.id);
    let rank = shape.helper_rank;
    let at = rank.0 as usize; // the rank's index in every availability array
    let mut believed: Vec<(HostId, u32)> = match source {
        Candidates::Live(_) if shape.helper_budget == 0 => Vec::new(),
        Candidates::Live(exclude) => pool
            .candidates(rank, &spec.members, cfg.helper_min_degree)
            .into_iter()
            .filter(|h| exclude.is_none_or(|x| !x.contains(h)))
            .map(|h| (h, pool.available(h, rank)))
            .filter(|&(_, free)| free > 0)
            .collect(),
        Candidates::View(view) => view
            .candidates_at(at, cfg.helper_min_degree)
            .filter(|(h, _)| !spec.members.contains(h))
            .collect(),
        Candidates::Query(index) => index
            .top_k(
                cfg.query_k,
                at,
                cfg.helper_min_degree,
                &spec.members,
                query::Scope::Global,
            )
            .hosts
            .iter()
            .map(|s| (s.host, s.free[at]))
            .collect(),
    };
    assert!((1..=3).contains(&spec.priority), "priority must be 1..=3");
    // One promotion of this plan's rows, the candidates then the members
    // ([`oracle::PoolOracle::promote_plan`]); every retry plans over them.
    let candidates: Vec<HostId> = believed.iter().map(|&(h, _)| h).collect();
    pool.planning_oracle()
        .promote_plan(&candidates, &spec.members);
    // Per-plan counter window: everything from the baseline evaluation to
    // the final retry is this plan's work, charged to the executing thread.
    let rel0 = alm::metrics::relaxations();
    let baseline_height = members_only_baseline(pool, spec);
    let mut helper_failures = 0u32;

    const MAX_RETRIES: usize = 5;
    for attempt in 0.. {
        let tree = plan(pool, spec, cfg, &believed, shape);
        let (preempted, refused) = book(pool, spec, &tree, shape, lease);
        if !refused.is_empty() {
            // The view lied about these hosts, or the budget refused them:
            // drop them and replan; out of retries, plan members only (that
            // pass books no helper and cannot be refused).
            helper_failures += refused.len() as u32;
            pool.release_session(spec.id);
            if attempt < MAX_RETRIES {
                believed.retain(|(h, _)| !refused.contains(h));
            } else {
                believed.clear();
            }
            continue;
        }

        // The reported quality metric is always evaluated under the
        // exact matrix — even when planning went through the tiered
        // oracle — so heights and improvements stay comparable across
        // latency sources (and `Exact` mode stays bit-identical: there
        // the two models are value-identical anyway).
        let oracle_height = oracle_height(&tree, &pool.cached_latency());
        let helpers = helpers_used(&tree, &spec.members);
        return PlanOutcome {
            improvement: alm::problem::improvement(baseline_height, oracle_height),
            tree,
            oracle_height,
            baseline_height,
            helpers,
            preempted: victims(preempted, spec.id),
            helper_failures,
            relaxations: alm::metrics::relaxations().saturating_sub(rel0),
        };
    }
    unreachable!("the members-only fallback always succeeds")
}

/// One tree for `spec` over the helpers in `believed`, each at the
/// availability the task manager believes (fresh or from a view). Members
/// report their live state (a node knows itself), read under three views,
/// first feasible plan wins: budgeted for the standby trees (multipath
/// only: each future standby needs a parent link on every member, so the
/// primary leaves one degree unit per standby behind when it can), clamped
/// by a degraded admission (never below 2, so a chain stays feasible), and
/// live. The tightened views are fallible — robustness and degradation must
/// never cost the session its tree; the live view is the session's real
/// capacity, infeasible only as documented under `# Panics` on
/// [`plan_and_reserve`]. Reads the pool, changes nothing in it.
fn plan(
    pool: &ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    believed: &[(HostId, u32)],
    shape: PlanShape,
) -> MulticastTree {
    let candidates: Vec<HostId> = believed.iter().map(|&(h, _)| h).collect();
    // Under `LatencySource::Exact` a zero-copy handle on the exact kernel;
    // under `Tiered` it reads the hot tier this plan's promotion filled.
    let oracle = pool.planning_oracle();
    // The one planner call, against one view: every member's availability
    // tightened by `rule`, then the candidates'. The practical (`Coords`)
    // loop shortlists helpers through coordinates, measures the contacted
    // ones and replans on measurements.
    let try_plan = |rule: &dyn Fn(u32) -> u32| -> Option<MulticastTree> {
        let view: HashMap<HostId, u32> = (spec.members.iter())
            .map(|&m| (m, rule(pool.available(m, Rank::MEMBER))))
            .chain(believed.iter().copied())
            .collect();
        let avail = |h: HostId| -> u32 { view.get(&h).copied().unwrap_or(0) };
        match cfg.model {
            PlanModel::Oracle => try_plan_tree(spec, &oracle, &avail, &candidates, cfg),
            PlanModel::Coords => alm::try_staged_plan(
                spec.root,
                &spec.members,
                &oracle,
                &pool.coords,
                avail,
                &helper_pool(&candidates, cfg),
                cfg.use_adjust,
            ),
        }
    };
    let budgeted = |avail: u32| avail.saturating_sub(shape.standby).max(avail.min(1));
    (shape.standby > 0)
        .then(|| try_plan(&budgeted))
        .flatten()
        .or_else(|| {
            let cap = shape.member_degree?;
            try_plan(&|a| a.min(cap.max(2)))
        })
        .unwrap_or_else(|| try_plan(&|a| a).expect("tree out of capacity for remaining members"))
}

/// Book `tree` for `spec` in tree order, every claim leased to `lease`:
/// members at member rank, helpers at `shape.helper_rank`. Returns the
/// sessions the claims preempted and the helpers refused: a helper whose
/// degree would push the running helper total past `shape.helper_budget`
/// (never asked), or one whose table refuses it (a stale view's lie, a
/// crashed host). Every other host stays booked; undoing is the caller's.
///
/// # Panics
/// If a member's claim is refused: member sets must be disjoint.
fn book(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    tree: &MulticastTree,
    shape: PlanShape,
    lease: Option<SimTime>,
) -> (Vec<SessionId>, Vec<HostId>) {
    let (mut preempted, mut refused) = (Vec::new(), Vec::new());
    let mut helper_spend = 0u64;
    for &h in tree.hosts() {
        let degree = tree.degree(h);
        let rank = spec.booking_rank(h, shape.helper_rank);
        let helper = rank != Rank::MEMBER;
        if helper && helper_spend + degree as u64 > shape.helper_budget {
            refused.push(h);
            continue;
        }
        match pool.reserve_leased(h, spec.id, rank, degree, lease) {
            Ok(taken) => {
                if helper {
                    helper_spend += degree as u64;
                }
                preempted.extend(taken.into_iter().map(|(s, _)| s));
            }
            Err(e) => {
                assert!(
                    helper,
                    "member reservation failed on {h:?}: {e} — member sets must be disjoint"
                );
                refused.push(h);
            }
        }
    }
    (preempted, refused)
}

/// Hand back what `tree` booked for `spec`: every host but those `skip`
/// names returns exactly the tree's degree there, at the rank it was booked
/// at. Count-exact ([`ResourcePool::release_degrees`]), so a host the
/// session's other trees share keeps their degrees.
pub(crate) fn release_tree(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    tree: &MulticastTree,
    helper_rank: Rank,
    skip: impl Fn(&ResourcePool, HostId) -> bool,
) {
    for &h in tree.hosts() {
        if !skip(pool, h) {
            let rank = spec.booking_rank(h, helper_rank);
            pool.release_degrees(h, spec.id, rank, tree.degree(h));
        }
    }
}

/// Result of planning a session's standby trees (trees 2..=k of a
/// multipath session).
#[derive(Clone, Debug, Default)]
pub struct StandbyOutcome {
    /// The standby trees actually planned and reserved, in planning order.
    /// Shorter than `k_trees - 1` when residual capacity ran out: standby
    /// redundancy is best-effort, the primary never degrades for it.
    pub trees: Vec<MulticastTree>,
    /// Sessions that lost degrees to the standby reservations.
    pub preempted: Vec<SessionId>,
    /// Relaxations the standby pass performed on its executing thread
    /// (see [`PlanOutcome::relaxations`]).
    pub relaxations: u64,
}

/// Per-member stream rate, kbit/s — with the access-bandwidth estimates it
/// bounds a host's total fan-out across a session's trees ([`fanout_cap`]).
const STREAM_KBPS: f64 = 128.0;

/// The per-host fan-out cap of a multipath session: how many **children**
/// (outgoing stream copies, summed across the session's trees) host `h`
/// may carry before its access uplink can no longer sustain the
/// 128 kbit/s stream (`STREAM_KBPS`) per copy. Parent links are downlink and don't count.
/// [`bwest::degree_for_stream`] returns a degree-style bound (it includes
/// the parent-link unit), so one unit is stripped; the cap is then relaxed
/// to the primary tree's own fan-out so it never constrains single-tree
/// planning — `k_trees = 1` stays bit-identical to the historical planner.
pub fn fanout_cap(pool: &ResourcePool, primary: &MulticastTree, h: HostId) -> u32 {
    let primary_fanout = if primary.contains(h) {
        primary.child_count(h) as u32
    } else {
        0
    };
    bwest::degree_for_stream(pool.bw.up(h), STREAM_KBPS)
        .saturating_sub(1)
        .max(primary_fanout)
}

/// Plan and reserve a session's standby trees: up to `cfg.k_trees - 1`
/// extra trees over the same member set, **degree-disjoint** from the
/// primary and from each other. `existing` lists standby trees the session
/// already holds (still reserved): they count toward the `k_trees` target
/// and toward every host's fan-out, so a post-crash rebuild replaces only
/// the lost trees instead of replanning the surviving ones.
///
/// Disjointness comes from planning each tree against a residual-capacity
/// view layered over the live degree tables: a host's believed availability
/// is its table availability at the claiming rank (which already excludes
/// this session's earlier same-rank claims) clamped to the bandwidth
/// headroom left under [`fanout_cap`]. Planning stops — without touching
/// the trees already reserved — the moment a tree no longer fits: a member
/// with zero residual capacity, an out-of-capacity planner
/// ([`try_critical`] / [`try_amcast`] returning `None`), or a refused
/// reservation (rolled back degree-for-degree via
/// [`ResourcePool::release_degrees`]).
pub fn plan_standby_trees(
    pool: &mut ResourcePool,
    spec: &SessionSpec,
    cfg: &PlanConfig,
    primary: &MulticastTree,
    existing: &[MulticastTree],
    lease_until: Option<SimTime>,
) -> StandbyOutcome {
    let shape = PlanShape::priority(spec.priority, 1);
    let helper_rank = shape.helper_rank;
    let rel0 = alm::metrics::relaxations();
    // Standby planning is a planning decision: it reads the configured
    // latency source. Each round promotes its surviving candidates and
    // then the members in one batch below (the shared handle sees later
    // promotions).
    let oracle = pool.planning_oracle();
    let mut trees: Vec<MulticastTree> = Vec::new();
    let mut preempted: Vec<SessionId> = Vec::new();

    while existing.len() + trees.len() + 1 < cfg.k_trees {
        // Fan-out (children) this session's trees already consume per
        // host — what the bandwidth cap bounds. Degree-unit disjointness
        // needs no bookkeeping of its own: `pool.available` already
        // excludes the session's earlier same-rank claims, so it *is* the
        // residual.
        let fanout =
            alm::multipath::fanout_totals(std::iter::once(primary).chain(existing).chain(&trees));
        // Children still affordable under the cap. A tree node's degree is
        // children + 1 parent link (root: children only), so a non-root
        // host may claim one more degree unit than its child headroom.
        let child_headroom = |h: HostId| -> u32 {
            fanout_cap(pool, primary, h).saturating_sub(fanout.get(&h).copied().unwrap_or(0))
        };
        // Leave a degree unit per member for each tree still to come (the
        // same budget the primary applied), without starving this one.
        let future = cfg.k_trees.saturating_sub(existing.len() + trees.len() + 2) as u32;
        let budgeted = |avail: u32| avail.saturating_sub(future).max(avail.min(1));
        // Members must each afford at least a parent link in the new tree;
        // one exhausted member ends the whole standby plan (Problem::new
        // rejects zero-degree members), as does a root with no child slot.
        let mut avail_map: HashMap<HostId, u32> = HashMap::new();
        let mut starved = false;
        for &m in &spec.members {
            let slack = if m == spec.root {
                child_headroom(m)
            } else {
                child_headroom(m) + 1
            };
            let a = budgeted(pool.available(m, Rank::MEMBER)).min(slack);
            if a == 0 {
                starved = true;
                break;
            }
            avail_map.insert(m, a);
        }
        if starved {
            break;
        }
        let mut candidates = pool.candidates(helper_rank, &spec.members, cfg.helper_min_degree);
        candidates.retain(|&h| {
            let a = pool.available(h, helper_rank).min(child_headroom(h) + 1);
            if a > 0 {
                avail_map.insert(h, a);
            }
            a > 0
        });
        oracle.promote_plan(&candidates, &spec.members);
        let avail = |h: HostId| -> u32 { avail_map.get(&h).copied().unwrap_or(0) };

        // Budgeted members are mostly leaf-only, so helpers must form the
        // backbone of a standby tree — and the primary's helper radius R
        // often has too few high-degree hosts left inside it. Escalate:
        // plan at the configured radius first (same quality bar as the
        // primary), then retry with the radius opened up. A far helper
        // costs height, which a standby tree only pays during a failover
        // window; redundancy beats beauty here.
        let mut wide = cfg.clone();
        wide.radius_ms = f64::INFINITY;
        let planned = match cfg.model {
            PlanModel::Oracle => try_plan_tree(spec, &oracle, &avail, &candidates, cfg)
                .or_else(|| try_plan_tree(spec, &oracle, &avail, &candidates, &wide)),
            // Standby trees skip the staged measure-and-replan loop: they
            // are background redundancy, planned straight from coordinates.
            PlanModel::Coords => try_plan_tree(spec, &pool.coords, &avail, &candidates, cfg)
                .or_else(|| try_plan_tree(spec, &pool.coords, &avail, &candidates, &wide)),
        };
        let Some(tree) = planned else { break };

        // Book the tree all-or-rollback: availability is live, so refusals
        // are not expected — but a refusal must not leak the booked part.
        let (taken, refused) = book(pool, spec, &tree, shape, lease_until);
        if !refused.is_empty() {
            release_tree(pool, spec, &tree, helper_rank, |_, h| refused.contains(&h));
            break;
        }
        preempted.extend(taken);
        trees.push(tree);
    }

    StandbyOutcome {
        trees,
        preempted: victims(preempted, spec.id),
        relaxations: alm::metrics::relaxations().saturating_sub(rel0),
    }
}

/// The members-only AMCast baseline: physical degree bounds, oracle
/// latencies — the denominator of every improvement figure in the paper.
/// Always evaluated under the exact matrix regardless of
/// [`crate::PoolConfig::latency_source`]: it is a quality *metric*, not a
/// planning decision, and must stay comparable across sources.
pub fn members_only_baseline(pool: &ResourcePool, spec: &SessionSpec) -> f64 {
    let oracle = pool.cached_latency();
    let dbound = |h: HostId| pool.net.hosts.degree_bound(h);
    let p = Problem::new(spec.root, spec.members.clone(), &oracle, dbound);
    amcast(&p).max_height()
}

/// The sessions a booking by `own` preempted, from the victims its
/// reservations reported: each once, ascending, never `own` itself.
pub(crate) fn victims(mut preempted: Vec<SessionId>, own: SessionId) -> Vec<SessionId> {
    preempted.sort_unstable();
    preempted.dedup();
    preempted.retain(|&s| s != own);
    preempted
}

/// `candidates` as a helper pool under `cfg`'s helper constraints.
fn helper_pool(candidates: &[HostId], cfg: &PlanConfig) -> HelperPool {
    let mut hp = HelperPool::new(candidates.to_vec());
    hp.min_degree = cfg.helper_min_degree;
    hp.radius_ms = cfg.radius_ms;
    hp.strategy = cfg.strategy;
    hp
}

/// One tree over `spec`'s members under `avail`: critical-node with the
/// candidate helpers (plain AMCast without), then the adjustment pass.
/// `None` when the availability view cannot host a spanning tree — an
/// expected outcome against residual or tightened capacity.
fn try_plan_tree<L: LatencyModel>(
    spec: &SessionSpec,
    model: &L,
    avail: &impl Fn(HostId) -> u32,
    candidates: &[HostId],
    cfg: &PlanConfig,
) -> Option<MulticastTree> {
    let p = Problem::new(spec.root, spec.members.clone(), model, avail);
    let mut tree = if !candidates.is_empty() {
        try_critical(&p, &helper_pool(candidates, cfg))?
    } else {
        try_amcast(&p)?
    };
    if cfg.use_adjust {
        adjust(&p, &mut tree);
    }
    Some(tree)
}

/// Recompute a tree's height under a (possibly different) latency model.
pub fn oracle_height(tree: &MulticastTree, oracle: &impl LatencyModel) -> f64 {
    let mut t = tree.clone();
    t.recompute_heights(oracle);
    t.max_height()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PoolConfig;
    use netsim::NetworkConfig;

    fn small_pool(seed: u64) -> ResourcePool {
        ResourcePool::build(
            &PoolConfig {
                net: NetworkConfig {
                    num_hosts: 300,
                    ..NetworkConfig::default()
                },
                coord_rounds: 6,
                ..PoolConfig::default()
            },
            seed,
        )
    }

    fn spec(pool: &ResourcePool, id: u32, priority: u8, seed: u64) -> SessionSpec {
        let members = pool.sample_members(20, seed);
        SessionSpec {
            id: SessionId(id),
            priority,
            root: members[0],
            members,
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample 301 members from 300 hosts")]
    fn sampling_more_members_than_hosts_names_both_counts() {
        small_pool(1).sample_members(301, 1);
    }

    #[test]
    fn plan_reserves_exactly_the_tree_degrees() {
        let mut pool = small_pool(1);
        let s = spec(&pool, 1, 2, 10);
        let out = plan_and_reserve(&mut pool, &s, &PlanConfig::default());
        for &h in out.tree.hosts() {
            assert_eq!(
                pool.table(h).held_by(SessionId(1)),
                out.tree.degree(h),
                "holding mismatch on {h:?}"
            );
        }
        // Nothing reserved outside the tree.
        let tree_hosts: std::collections::HashSet<HostId> =
            out.tree.hosts().iter().copied().collect();
        for h in pool.net.hosts.ids() {
            if !tree_hosts.contains(&h) {
                assert_eq!(pool.table(h).held_by(SessionId(1)), 0);
            }
        }
    }

    #[test]
    fn release_returns_pool_to_empty() {
        let mut pool = small_pool(2);
        let s = spec(&pool, 1, 1, 11);
        plan_and_reserve(&mut pool, &s, &PlanConfig::default());
        assert!(pool.tables().total_used() > 0);
        pool.release_session(SessionId(1));
        assert_eq!(pool.tables().total_used(), 0);
    }

    #[test]
    fn replan_is_idempotent_in_holdings() {
        let mut pool = small_pool(3);
        let s = spec(&pool, 1, 2, 12);
        let a = plan_and_reserve(&mut pool, &s, &PlanConfig::default());
        let used_a = pool.tables().total_used();
        let b = plan_and_reserve(&mut pool, &s, &PlanConfig::default());
        assert_eq!(pool.tables().total_used(), used_a, "replan leaked degrees");
        assert_eq!(a.oracle_height, b.oracle_height);
    }

    #[test]
    fn oracle_planning_beats_baseline_on_average() {
        let mut pool = small_pool(4);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let mut total = 0.0;
        let runs = 6;
        for i in 0..runs {
            let s = spec(&pool, 100 + i, 1, 20 + i as u64);
            let out = plan_and_reserve(&mut pool, &s, &cfg);
            pool.release_session(s.id);
            total += out.improvement;
        }
        let avg = total / runs as f64;
        assert!(avg > 0.05, "average improvement {avg} too small");
    }

    #[test]
    fn coords_planning_is_still_positive_with_adjust() {
        let mut pool = small_pool(5);
        let cfg = PlanConfig::default(); // Coords + helpers + adjust
        let mut total = 0.0;
        let runs = 6;
        for i in 0..runs {
            let s = spec(&pool, 200 + i, 1, 40 + i as u64);
            let out = plan_and_reserve(&mut pool, &s, &cfg);
            pool.release_session(s.id);
            total += out.improvement;
        }
        let avg = total / runs as f64;
        assert!(
            avg > 0.0,
            "Leafset+adjust average improvement {avg} not positive"
        );
    }

    #[test]
    fn higher_priority_preempts_lower() {
        let mut pool = small_pool(6);
        // Two sessions over the same member universe region compete for
        // helpers: the low-priority one goes first and grabs helpers, the
        // high-priority one then preempts some of them.
        let members = pool.sample_members(40, 50);
        let low = SessionSpec {
            id: SessionId(1),
            priority: 3,
            root: members[0],
            members: members[..20].to_vec(),
        };
        let high = SessionSpec {
            id: SessionId(2),
            priority: 1,
            root: members[20],
            members: members[20..].to_vec(),
        };
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let out_low = plan_and_reserve(&mut pool, &low, &cfg);
        let held_before: u32 = out_low
            .tree
            .hosts()
            .iter()
            .map(|&h| pool.table(h).held_by(SessionId(1)))
            .sum();
        assert!(held_before > 0);
        let out_high = plan_and_reserve(&mut pool, &high, &cfg);
        // If the high-priority session preempted anyone, it must be s1.
        for s in &out_high.preempted {
            assert_eq!(*s, SessionId(1));
        }
        // And s1 never preempts s2 on replan at rank 3 (helpers), though
        // member-rank claims may: check helper claims only is implicit in
        // preempted list semantics — replan and verify.
        let out_low2 = plan_and_reserve(&mut pool, &low, &cfg);
        // s1's helper claims cannot displace s2's helper claims; any
        // preemption it caused must have been via its *member* nodes.
        for &h in out_low2.tree.hosts() {
            if !low.members.contains(&h) {
                // helper node: s2 must not have lost degrees here to s1
                // (rank 3 cannot preempt rank 1)
                // — verified structurally by DegreeTable tests; here we
                // just confirm the pool stayed consistent.
                assert!(pool.table(h).used() <= pool.table(h).dbound());
            }
        }
    }

    /// Plan `s` from a snapshot view under its priority shape.
    fn plan_from_view(
        pool: &mut ResourcePool,
        s: &SessionSpec,
        cfg: &PlanConfig,
        view: &crate::ResourceReport,
    ) -> PlanOutcome {
        let shape = PlanShape::priority(s.priority, cfg.k_trees);
        plan_and_reserve_with(pool, s, cfg, Candidates::View(view), shape, None)
    }

    /// One fresh pool, three sources, one tree: the live tables, a fresh
    /// snapshot and a fresh query index whose `k` covers the pool offer the
    /// same candidates at the same availability, and plan the same tree, at
    /// every helper rank.
    #[test]
    fn fresh_view_matches_live_planning() {
        let mut pool = small_pool(8);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            query_k: pool.num_hosts(),
            ..PlanConfig::default()
        };
        let view = pool.snapshot_report(usize::MAX);
        let mut index = pool.build_query_index(SimTime::from_secs(60), SimTime::ZERO);
        for priority in 1..=3 {
            let s = spec(&pool, 31, priority, 70);
            let shape = PlanShape::priority(s.priority, cfg.k_trees);
            let sources = [
                ("live", Candidates::Live(None)),
                ("view", Candidates::View(&view)),
                ("query", Candidates::Query(&mut index)),
            ];
            let outs: Vec<(&str, PlanOutcome)> = sources
                .into_iter()
                .map(|(name, source)| {
                    let out = plan_and_reserve_with(&mut pool, &s, &cfg, source, shape, None);
                    pool.release_session(s.id);
                    (name, out)
                })
                .collect();
            let live = &outs[0].1;
            for (name, out) in &outs {
                assert_eq!(out.helper_failures, 0, "fresh {name} caused failures");
                let bits = |o: &PlanOutcome| o.oracle_height.to_bits();
                assert_eq!(bits(out), bits(live), "{name}, priority {priority}");
                assert_eq!(out.helpers, live.helpers, "{name}, priority {priority}");
            }
        }
    }

    #[test]
    fn stale_view_failures_are_absorbed() {
        let mut pool = small_pool(9);
        let sets = pool.partition_members(4, 20, 80);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // Snapshot the empty pool, then let three priority-1 sessions
        // grab helpers, making the snapshot stale.
        let stale_view = pool.snapshot_report(usize::MAX);
        for (i, members) in sets[..3].iter().enumerate() {
            let s = SessionSpec {
                id: SessionId(50 + i as u32),
                priority: 1,
                root: members[0],
                members: members.clone(),
            };
            plan_and_reserve(&mut pool, &s, &cfg);
        }
        // A low-priority probe plans from the stale view: helpers it was
        // promised may refuse (it cannot preempt priority 1), but the plan
        // must complete, stay consistent, and never fall below baseline.
        let probe = SessionSpec {
            id: SessionId(99),
            priority: 3,
            root: sets[3][0],
            members: sets[3].clone(),
        };
        let out = plan_from_view(&mut pool, &probe, &cfg, &stale_view);
        out.tree
            .validate(&pool.net.latency, |h| pool.net.hosts.degree_bound(h))
            .unwrap();
        assert!(
            out.improvement > -0.1,
            "stale-view plan far below the members-only baseline: {}",
            out.improvement
        );
        // Every holding matches the final tree exactly (no leakage from
        // the failed attempts).
        for &h in out.tree.hosts() {
            assert_eq!(pool.table(h).held_by(SessionId(99)), out.tree.degree(h));
        }
    }

    #[test]
    fn leased_plan_lapses_without_renewal_and_survives_with_it() {
        let mut pool = small_pool(12);
        let s = spec(&pool, 44, 2, 90);
        let lease = SimTime::from_secs(300);
        let cfg = PlanConfig::default();
        let shape = PlanShape::priority(s.priority, cfg.k_trees);
        let out = plan_and_reserve_with(
            &mut pool,
            &s,
            &cfg,
            Candidates::Live(None),
            shape,
            Some(lease),
        );
        let held = pool.tables().held_total(SessionId(44));
        assert!(held > 0);
        assert_eq!(
            held,
            out.tree
                .hosts()
                .iter()
                .map(|&h| out.tree.degree(h))
                .sum::<u32>()
        );
        // Before the deadline nothing lapses.
        assert!(pool.expire_leases(SimTime::from_secs(299)).is_empty());
        // A renewal pushes the deadline out…
        assert_eq!(
            pool.renew_session(SessionId(44), SimTime::from_secs(600)),
            held
        );
        assert!(pool.expire_leases(SimTime::from_secs(300)).is_empty());
        assert_eq!(pool.tables().held_total(SessionId(44)), held);
        // …and a missed renewal returns every degree to the pool.
        let lapsed = pool.expire_leases(SimTime::from_secs(600));
        assert_eq!(lapsed, vec![(SessionId(44), held)]);
        assert_eq!(pool.tables().held_total(SessionId(44)), 0);
        assert_eq!(pool.tables().total_used(), 0);
        assert!(pool.tables().holdings_of(SessionId(44)).is_empty());
    }

    #[test]
    fn dead_candidate_from_stale_view_is_refused_and_absorbed() {
        let mut pool = small_pool(13);
        let s = spec(&pool, 55, 2, 95);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // Snapshot, then crash the best helpers the view promised.
        let view = pool.snapshot_report(usize::MAX);
        let reference = plan_and_reserve(&mut pool, &s, &cfg);
        pool.release_session(s.id);
        for &h in &reference.helpers {
            pool.kill_host(h);
        }
        let out = plan_from_view(&mut pool, &s, &cfg, &view);
        if !reference.helpers.is_empty() {
            assert!(
                out.helper_failures > 0,
                "crashed candidates should have refused their reservations"
            );
        }
        // The final tree holds no dead host, and holdings match it exactly.
        for &h in out.tree.hosts() {
            assert!(pool.is_alive(h), "dead host {h:?} in final tree");
            assert_eq!(pool.table(h).held_by(SessionId(55)), out.tree.degree(h));
        }
    }

    #[test]
    #[ignore = "ROADMAP item 1: a refused attempt's victims are not notified"]
    fn every_session_a_stale_view_plan_took_degrees_from_is_notified() {
        let mut pool = small_pool(13);
        let s = spec(&pool, 55, 1, 95);
        let cfg = PlanConfig {
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        // The first attempt from this view plans the reference tree. Fill
        // its first helper with a priority-3 session and crash its last:
        // the attempt preempts the filler, is refused, and the retry finds
        // the filler's degrees free.
        let view = pool.snapshot_report(usize::MAX);
        let reference = plan_from_view(&mut pool.clone(), &s, &cfg, &view);
        let (&first, &last) = (
            reference.helpers.first().expect("a helper"),
            reference.helpers.last().expect("a helper"),
        );
        assert_ne!(first, last);
        let filler = SessionId(60);
        let free = pool.available(first, Rank::helper(3));
        pool.reserve_leased(first, filler, Rank::helper(3), free, None)
            .unwrap();
        pool.kill_host(last);
        let holders: std::collections::BTreeSet<SessionId> = (0..pool.num_hosts() as u32)
            .flat_map(|h| {
                pool.table(HostId(h))
                    .allocations()
                    .iter()
                    .map(|a| a.session)
            })
            .collect();
        let held: Vec<(SessionId, u32)> = holders
            .into_iter()
            .map(|v| (v, pool.tables().held_total(v)))
            .collect();
        let out = plan_from_view(&mut pool, &s, &cfg, &view);
        assert!(out.helper_failures > 0, "the crashed helper refused");
        assert!(
            pool.tables().held_total(filler) < free,
            "the first attempt preempted the filler"
        );
        for (v, before) in held {
            let lost = before - pool.tables().held_total(v);
            assert!(
                lost == 0 || out.preempted.contains(&v),
                "{v:?} lost {lost} degrees but is not in {:?}",
                out.preempted
            );
        }
    }

    #[test]
    fn book_refuses_helpers_past_the_budget_without_asking_them() {
        let mut pool = small_pool(1);
        let s = spec(&pool, 1, 2, 10);
        let tree = plan_and_reserve(&mut pool, &s, &PlanConfig::default()).tree;
        pool.release_session(s.id);
        let helpers: Vec<HostId> = (tree.hosts().iter().copied())
            .filter(|h| !s.members.contains(h))
            .collect();
        assert!(
            helpers.len() >= 2,
            "the reference tree recruits two helpers"
        );
        // The budget covers the first helper in tree order and no more.
        let shape = PlanShape::fair(tree.degree(helpers[0]) as u64, None);
        pool.enable_op_log();
        let (_, refused) = book(&mut pool, &s, &tree, shape, None);
        for &m in &s.members {
            assert_eq!(pool.table(m).held_by(s.id), tree.degree(m), "{m:?}");
        }
        assert_eq!(
            pool.table(helpers[0]).held_by(s.id),
            tree.degree(helpers[0])
        );
        assert_eq!(refused, helpers[1..]);
        for op in pool.drain_op_log() {
            if let crate::PoolOp::Reserve { host, .. } = op {
                assert!(!refused.contains(&host), "{host:?} was asked");
            }
        }
    }

    #[test]
    fn members_only_fallback_when_no_helpers() {
        let mut pool = small_pool(7);
        let s = spec(&pool, 9, 2, 60);
        // No host offers u32::MAX free degrees: no helper candidates, so
        // the planner takes the plain-AMCast path.
        let cfg = PlanConfig {
            helper_min_degree: u32::MAX,
            use_adjust: false,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let out = plan_and_reserve(&mut pool, &s, &cfg);
        assert!(out.helpers.is_empty());
        assert_eq!(out.tree.len(), s.members.len());
        assert!((out.oracle_height - out.baseline_height).abs() < 1e-6);
        assert_eq!(out.improvement, 0.0);
    }

    #[test]
    fn k1_plans_no_standby_trees() {
        let mut pool = small_pool(14);
        let s = spec(&pool, 77, 2, 100);
        let cfg = PlanConfig::default(); // k_trees = 1
        let primary = plan_and_reserve(&mut pool, &s, &cfg);
        let used = pool.tables().total_used();
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert!(standby.trees.is_empty());
        assert!(standby.preempted.is_empty());
        assert_eq!(
            pool.tables().total_used(),
            used,
            "k = 1 standby pass touched the pool"
        );
    }

    #[test]
    fn standby_trees_are_degree_disjoint_and_capped() {
        let mut pool = small_pool(15);
        let s = spec(&pool, 77, 2, 101);
        let cfg = PlanConfig {
            k_trees: 3,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let primary = plan_and_reserve(&mut pool, &s, &cfg);
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert!(
            !standby.trees.is_empty(),
            "an empty 300-host pool should fit at least one standby tree"
        );
        let mut all = vec![primary.tree.clone()];
        all.extend(standby.trees.iter().cloned());
        // Every standby tree spans the member set.
        for t in &standby.trees {
            for &m in &s.members {
                assert!(t.contains(m), "member {m:?} missing from standby tree");
            }
        }
        // No degree unit double-counted across trees, no cap breached.
        let v = alm::multipath::check_disjointness(
            &all,
            |h| pool.table(h).held_by(s.id),
            |h| fanout_cap(&pool, &primary.tree, h),
        );
        assert!(v.is_empty(), "disjointness violations: {v:?}");
        // Holdings mirror the summed tree degrees exactly — reservation
        // merged per (session, rank) but the totals must match.
        let used = alm::multipath::degree_totals(&all);
        for (&h, &u) in &used {
            assert_eq!(pool.table(h).held_by(s.id), u, "holding mismatch on {h:?}");
        }
        // Releasing the session drains everything: nothing leaked.
        pool.release_session(s.id);
        assert_eq!(pool.tables().total_used(), 0);
        assert!(pool.tables().holdings_of(s.id).is_empty());
    }

    /// Like [`spec`], but roots the session at its best-uplink member: a
    /// modem-class root can't source a second tree ([`fanout_cap`] = its
    /// primary fan-out), which is correct behavior but not what a standby
    /// -planning test wants to exercise.
    fn spec_bw_root(pool: &ResourcePool, id: u32, priority: u8, seed: u64) -> SessionSpec {
        let mut s = spec(pool, id, priority, seed);
        s.root = s
            .members
            .iter()
            .copied()
            .max_by(|a, b| pool.bw.up(*a).total_cmp(&pool.bw.up(*b)).then(b.cmp(a)))
            .unwrap();
        s
    }

    #[test]
    fn release_degrees_tears_down_one_tree_only() {
        let mut pool = small_pool(15);
        let s = spec_bw_root(&pool, 88, 2, 101);
        let cfg = PlanConfig {
            k_trees: 2,
            model: PlanModel::Oracle,
            ..PlanConfig::default()
        };
        let primary = plan_and_reserve(&mut pool, &s, &cfg);
        let standby = plan_standby_trees(&mut pool, &s, &cfg, &primary.tree, &[], None);
        assert_eq!(standby.trees.len(), 1);
        let t2 = &standby.trees[0];
        // Tear down just the standby tree, degree for degree.
        for &h in t2.hosts() {
            let rank = s.booking_rank(h, Rank::helper(s.priority));
            let freed = pool.release_degrees(h, s.id, rank, t2.degree(h));
            assert_eq!(freed, t2.degree(h));
        }
        // The primary's holdings are exactly what remains.
        for &h in primary.tree.hosts() {
            assert_eq!(pool.table(h).held_by(s.id), primary.tree.degree(h));
        }
        let primary_hosts: std::collections::HashSet<HostId> =
            primary.tree.hosts().iter().copied().collect();
        for &h in t2.hosts() {
            if !primary_hosts.contains(&h) {
                assert_eq!(pool.table(h).held_by(s.id), 0);
            }
        }
    }
}
