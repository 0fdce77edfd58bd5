//! End-to-end churn recovery: the pipeline a real pool runs when hosts
//! crash, with every phase timed.
//!
//! The paper's claim is that the pool "self-organizes and self-heals with
//! zero administration" (§3). This module makes that claim measurable under
//! an adversarial network ([`simcore::faults`]): schedule crashes, inject
//! message loss, and record when each repair layer finishes —
//!
//! 1. **Detection** — leafset heartbeats stop; a neighbor's timeout expires
//!    the victim from its view ([`dht::proto::DhtSim`]).
//! 2. **Expulsion** — every holder's timeout expires the victim, which
//!    gossip of directly heard peers cannot bring back, until *no* live
//!    view contains any victim.
//! 3. **Tree rebuild** — SOMO is a pure function of ring membership, so the
//!    healed ring induces the healed tree ([`somo::heal::remap_stats`]
//!    quantifies the blast radius); an unsynchronized gather then re-runs
//!    until the root's census covers every survivor.
//! 4. **ALM reattachment** — sessions with orphaned subtrees re-attach them
//!    with bounded retry and exponential backoff
//!    ([`alm::dynamic::reattach_orphans`]), surviving stale views that
//!    still list dead hosts.
//!
//! The [`RecoveryTimeline`] is deterministic: same seed + same
//! [`FaultPlan`] → bit-identical timestamps (the determinism suite pins
//! this).

use alm::amcast::amcast;
use alm::dynamic::{orphaned_subtree_roots, reattach_orphans, ReattachConfig, ReattachReport};
use alm::problem::Problem;
use alm::tree::MulticastTree;
use dht::proto::{DhtSim, ProtoConfig};
use dht::{NodeId, Ring};
use netsim::{HostId, Network, NetworkConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::Serialize;
use simcore::audit::{AuditCtx, AuditReport, Auditor, InvariantSet};
use simcore::trace::{TraceEvent, Tracer};
use simcore::{FaultPlan, SimTime};
use somo::flow::{FlowMode, FreshnessReport, GatherSim};
use somo::heal::{remap_stats, RemapStats};
use somo::SomoTree;

/// Everything the pipeline needs to run one recovery scenario.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Ring size.
    pub n: u32,
    /// Master seed (ring IDs, victim choice, session sampling).
    pub seed: u64,
    /// DHT heartbeat protocol parameters.
    pub proto: ProtoConfig,
    /// One-way inter-host hop latency (0 for a host to itself).
    pub hop: SimTime,
    /// SOMO gather period T.
    pub gather_period: SimTime,
    /// SOMO tree fanout.
    pub fanout: usize,
    /// When the victims crash.
    pub crash_at: SimTime,
    /// How many victims crash (simultaneously, at `crash_at`).
    pub crashes: usize,
    /// Link-level faults (loss, jitter, outages) applied to every protocol
    /// message in the pipeline. Crash schedules inside the plan are ignored
    /// here — `crashes`/`crash_at` drive the victims.
    pub plan: FaultPlan,
    /// How long the synchronized exposure-window gather runs after the
    /// crash (before the ring has expelled the victims).
    pub exposure: SimTime,
    /// ALM repair tuning.
    pub reattach: ReattachConfig,
    /// ALM session size (members sampled from the pool's hosts).
    pub session_size: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            n: 512,
            seed: 40,
            proto: ProtoConfig::default(),
            hop: SimTime::from_millis(200),
            gather_period: SimTime::from_secs(5),
            fanout: 8,
            crash_at: SimTime::from_secs(30),
            crashes: 4,
            plan: FaultPlan::none(),
            exposure: SimTime::from_secs(60),
            reattach: ReattachConfig::default(),
            session_size: 40,
        }
    }
}

/// Per-phase timestamps of one recovery, all on the same simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RecoveryTimeline {
    /// When the victims crashed.
    pub crash_at: SimTime,
    /// First instant a live node expired *any* victim from its view
    /// (time-to-detect starts the repair).
    pub detected_at: Option<SimTime>,
    /// First instant no live view contained any victim — the ring-level
    /// repair is complete.
    pub expelled_at: Option<SimTime>,
    /// When the rebuilt SOMO root first held a full survivor census
    /// (`expelled_at` plus the regather's convergence time).
    pub rebuilt_at: Option<SimTime>,
    /// When the last ALM orphan subtree was re-attached
    /// (`rebuilt_at` plus the reattachment's backoff-dominated duration).
    pub reattached_at: Option<SimTime>,
    /// Failed reattach attempts (dead or saturated parent picks).
    pub reattach_retries: u64,
    /// How much of the SOMO tree the membership change remapped.
    pub remap: RemapStats,
}

/// The pipeline's full result: the timeline plus the health metrics the
/// `ext_recovery` experiment sweeps.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RecoveryOutcome {
    /// Per-phase timestamps.
    pub timeline: RecoveryTimeline,
    /// Fraction of surviving members the SOMO root still saw during the
    /// exposure window (crash landed, ring not yet repaired).
    pub stale_completeness: f64,
    /// Fraction of surviving members the rebuilt tree's root census covers
    /// (1.0 when the regather converged).
    pub post_completeness: f64,
    /// Fraction of surviving session members cut off from the ALM tree
    /// during the exposure window.
    pub delivery_disruption: f64,
    /// Fraction of surviving session members reachable after reattachment.
    pub post_delivery: f64,
    /// ALM repair details.
    pub alm: ReattachReport,
    /// Heartbeat messages the DHT layer sent.
    pub dht_messages: u64,
    /// Heartbeat messages the fault layer dropped.
    pub dht_dropped: u64,
    /// Expulsions of a peer that was still alive: each one a run of
    /// heartbeats or acks the fault layer dropped ([`DhtSim::false_expels`]).
    pub dht_false_expels: u64,
    /// Gather messages sent (exposure + regather).
    pub gather_messages: u64,
    /// Gather messages dropped (exposure + regather).
    pub gather_dropped: u64,
    /// Invariant audit over the whole pipeline: ring view coherence
    /// sampled through detection and expulsion, plus a final check that the
    /// repaired session tree is dead-free and within degree bounds. Clean
    /// on every seed or the run panics under `debug-assertions`.
    pub audit: AuditReport,
}

/// How long past `crash_at` the detection/expulsion poll keeps trying
/// before giving up, in multiples of the failure-detection timeout.
const POLL_PATIENCE: u64 = 30;
/// Poll step for the detection/expulsion conditions.
const POLL_STEP: SimTime = SimTime::from_millis(500);
/// Cap on the post-repair regather (unsynchronized mode converges in a few
/// tree-depth periods even under loss).
const REGATHER_CAP: SimTime = SimTime::from_secs(600);

/// Run the full crash-recovery pipeline for one scenario.
///
/// # Panics
/// If `crashes >= n` (someone must survive to repair the ring).
pub fn run_pipeline(cfg: &RecoveryConfig) -> RecoveryOutcome {
    run_pipeline_traced(cfg, &mut Tracer::disabled())
}

/// [`run_pipeline`] with a [`Tracer`] attached: each repair phase that
/// completed emits one [`TraceEvent::RecoveryPhase`] record (1 = detected,
/// 2 = expelled, 3 = rebuilt, 4 = reattached) stamped with the phase's
/// timeline instant. A disabled tracer reduces to `run_pipeline` exactly.
pub fn run_pipeline_traced(cfg: &RecoveryConfig, tracer: &mut Tracer) -> RecoveryOutcome {
    let out = pipeline_inner(cfg);
    for (phase, at) in [
        (1u32, out.timeline.detected_at),
        (2, out.timeline.expelled_at),
        (3, out.timeline.rebuilt_at),
        (4, out.timeline.reattached_at),
    ] {
        if let Some(t) = at {
            tracer.emit(t, || TraceEvent::RecoveryPhase { phase });
        }
    }
    out
}

fn pipeline_inner(cfg: &RecoveryConfig) -> RecoveryOutcome {
    assert!(
        cfg.crashes < cfg.n as usize,
        "at least one node must survive"
    );
    let ring = Ring::with_random_ids((0..cfg.n).map(HostId), cfg.seed);
    let victims = pick_victims(&ring, cfg.seed, cfg.crashes);
    let dead_hosts: Vec<HostId> = victims.iter().map(|&v| ring.member(v).host).collect();
    // Ring coherence is audited on the same poll clock that times the
    // repair: no view may hold its own node, and every believed leafset
    // must come from its view, while the victims are expelled. The
    // repaired session tree is checked by the same auditor at the end.
    let mut auditor = Auditor::every(scale(POLL_STEP, 4));

    // Each phase owns the simulator (and the network) it runs on and hands
    // back numbers only, so one phase's state is gone before the next one
    // builds its own. The one thing handed on is the old SOMO tree: the
    // rebuild measures the healed tree against it, then drops it.
    let heartbeats = heartbeat_phase(cfg, &ring, &victims, &mut auditor);
    let tree = SomoTree::build(&ring, cfg.fanout);
    let exposure = exposure_phase(cfg, &ring, &tree, &victims);
    let rebuild = rebuild_phase(cfg, ring, tree, &victims);
    let rebuilt_at = match (heartbeats.expelled_at, rebuild.full_at) {
        (Some(e), Some(f)) => Some(e + f),
        _ => None,
    };
    let repair = alm_phase(
        cfg,
        &dead_hosts,
        rebuilt_at,
        heartbeats.ended_at,
        &mut auditor,
    );

    RecoveryOutcome {
        timeline: RecoveryTimeline {
            crash_at: cfg.crash_at,
            detected_at: heartbeats.detected_at,
            expelled_at: heartbeats.expelled_at,
            rebuilt_at,
            reattached_at: repair.reattached_at,
            reattach_retries: repair.report.retries,
            remap: rebuild.remap,
        },
        stale_completeness: exposure.completeness,
        post_completeness: rebuild.census.completeness,
        delivery_disruption: repair.delivery_disruption,
        post_delivery: repair.post_delivery,
        alm: repair.report,
        dht_messages: heartbeats.messages,
        dht_dropped: heartbeats.dropped,
        dht_false_expels: heartbeats.false_expels,
        gather_messages: exposure.messages + rebuild.census.messages,
        gather_dropped: exposure.dropped + rebuild.census.dropped,
        audit: auditor.into_report(),
    }
}

/// What phases 1 + 2 leave behind.
struct Heartbeats {
    detected_at: Option<SimTime>,
    expelled_at: Option<SimTime>,
    /// The heartbeat fabric's clock when the phase stopped polling.
    ended_at: SimTime,
    messages: u64,
    dropped: u64,
    false_expels: u64,
}

/// Phases 1 + 2: detection and expulsion on the heartbeat fabric.
fn heartbeat_phase(
    cfg: &RecoveryConfig,
    ring: &Ring,
    victims: &[usize],
    auditor: &mut Auditor,
) -> Heartbeats {
    let hop = cfg.hop;
    let mut dht = DhtSim::with_faults(
        ring,
        cfg.proto,
        move |a, b| if a == b { SimTime::ZERO } else { hop },
        cfg.plan.clone(),
    );
    dht.run_until(cfg.crash_at);
    for &v in victims {
        dht.kill(v);
    }
    let mut victim_ids: Vec<NodeId> = victims.iter().map(|&v| ring.member(v).id).collect();
    victim_ids.sort_unstable();
    let is_victim = |id: NodeId| victim_ids.binary_search(&id).is_ok();
    // Which live nodes believed in which victim at crash time — detection
    // is the first of these beliefs to be retracted.
    let watch: Vec<(usize, NodeId)> = live_nodes(&dht)
        .flat_map(|i| {
            dht.view_ids(i)
                .filter(|&id| is_victim(id))
                .map(move |id| (i, id))
        })
        .collect();
    let mut detected_at = None;
    let mut expelled_at = None;
    let deadline = cfg.crash_at + scale(cfg.proto.timeout, POLL_PATIENCE);
    let mut t = cfg.crash_at;
    while t < deadline && expelled_at.is_none() {
        t += POLL_STEP;
        dht.run_until(t);
        dht.audit_sample(auditor);
        if detected_at.is_none()
            && watch
                .iter()
                .any(|&(i, id)| dht.is_alive(i) && !dht.view_contains(i, id))
        {
            detected_at = Some(dht.now());
        }
        // A view is a dozen peers: scan each one for a victim.
        if live_nodes(&dht).all(|i| !dht.view_ids(i).any(is_victim)) {
            expelled_at = Some(dht.now());
        }
    }
    Heartbeats {
        detected_at,
        expelled_at,
        ended_at: dht.now(),
        messages: dht.messages_sent(),
        dropped: dht.messages_dropped(),
        false_expels: dht.false_expels(),
    }
}

/// Indices of the nodes currently alive.
fn live_nodes<D: Fn(HostId, HostId) -> SimTime>(
    dht: &DhtSim<D>,
) -> impl Iterator<Item = usize> + '_ {
    (0..dht.len()).filter(|&i| dht.is_alive(i))
}

/// What one gather leaves behind.
struct Census {
    /// Members in the root's last view ÷ survivors.
    completeness: f64,
    messages: u64,
    dropped: u64,
}

impl Census {
    fn of<L, D>(sim: &GatherSim<'_, FreshnessReport, L, D>, alive: usize) -> Census
    where
        L: FnMut(usize, SimTime) -> FreshnessReport,
        D: Fn(usize, usize) -> SimTime,
    {
        let reported = sim.views().last().map_or(0, |v| v.view.members);
        Census {
            completeness: reported as f64 / alive as f64,
            messages: sim.messages_sent(),
            dropped: sim.messages_dropped(),
        }
    }
}

/// Exposure window: synchronized gathers over the broken tree.
fn exposure_phase(cfg: &RecoveryConfig, ring: &Ring, tree: &SomoTree, victims: &[usize]) -> Census {
    let hop = cfg.hop;
    let mut exposure = GatherSim::with_faults(
        tree,
        ring,
        FlowMode::Synchronized,
        cfg.gather_period,
        |_m, now| FreshnessReport::of_member(now),
        move |a, b| if a == b { SimTime::ZERO } else { hop },
        cfg.plan.clone(),
    );
    for &v in victims {
        exposure.kill_member(v);
    }
    exposure.run_until(cfg.exposure);
    Census::of(&exposure, ring.len() - victims.len())
}

/// What phase 3 leaves behind.
struct Rebuild {
    remap: RemapStats,
    /// How long the regather took to hold a full survivor census.
    full_at: Option<SimTime>,
    census: Census,
}

/// Phase 3: the ring expelled the victims; rebuild the tree and regather.
/// Takes the old ring and tree by value: they are measured against their
/// healed successors and dropped before the regather starts.
fn rebuild_phase(cfg: &RecoveryConfig, ring: Ring, tree: SomoTree, victims: &[usize]) -> Rebuild {
    let mut healed = ring.clone();
    for &v in victims {
        healed
            .remove_id(ring.member(v).id)
            .expect("victim was a member");
    }
    let tree2 = SomoTree::build(&healed, cfg.fanout);
    let remap = remap_stats(&tree, &ring, &tree2, &healed);
    drop((tree, ring));
    let alive = healed.len();
    let hop = cfg.hop;
    // Unsynchronized mode: per-hop cached partials survive per-message
    // loss, so the census converges to 100% where a lockstep cascade would
    // keep losing some leaf's contribution.
    let mut regather = GatherSim::with_faults(
        &tree2,
        &healed,
        FlowMode::Unsynchronized,
        cfg.gather_period,
        |_m, now| FreshnessReport::of_member(now),
        move |a, b| if a == b { SimTime::ZERO } else { hop },
        cfg.plan.clone(),
    );
    let mut full_at = None;
    let mut t = SimTime::ZERO;
    while t < REGATHER_CAP && full_at.is_none() {
        t += cfg.gather_period;
        regather.run_until(t);
        full_at = regather
            .views()
            .iter()
            .find(|v| v.view.members == alive as u64)
            .map(|v| v.at);
    }
    Rebuild {
        remap,
        full_at,
        census: Census::of(&regather, alive),
    }
}

/// What phase 4 leaves behind.
struct AlmRepair {
    delivery_disruption: f64,
    post_delivery: f64,
    reattached_at: Option<SimTime>,
    report: ReattachReport,
}

/// Phase 4: ALM session repair with stale-view retries, and the final
/// audit of the repaired tree (stamped `reattached_at`, or `fallback_at`
/// when the timeline has a hole before it).
fn alm_phase(
    cfg: &RecoveryConfig,
    dead_hosts: &[HostId],
    rebuilt_at: Option<SimTime>,
    fallback_at: SimTime,
    auditor: &mut Auditor,
) -> AlmRepair {
    let net = Network::generate(
        &NetworkConfig {
            num_hosts: cfg.n as usize,
            ..NetworkConfig::default()
        },
        simcore::rng::derive_seed(cfg.seed, 7),
    );
    let members = pick_session(cfg, dead_hosts);
    let dbound = |h: HostId| net.hosts.degree_bound(h);
    let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
    let session_tree = amcast(&p);
    let dead_in_tree: Vec<HostId> = dead_hosts
        .iter()
        .copied()
        .filter(|h| session_tree.contains(*h))
        .collect();
    let survivors = members.len() - dead_in_tree.len();
    let delivery_disruption = if survivors == 0 {
        0.0
    } else {
        1.0 - reachable_avoiding(&session_tree, &dead_in_tree) as f64 / survivors as f64
    };
    let orphans = orphaned_subtree_roots(&session_tree, &dead_in_tree);
    let (repaired, report) = reattach_orphans(&p, &session_tree, &dead_in_tree, &cfg.reattach);
    let post_delivery = if survivors == 0 {
        1.0
    } else {
        reachable_avoiding(&repaired, &[]) as f64 / survivors as f64
    };
    let reattached_at = rebuilt_at.map(|r| r + report.duration);

    // Final audit: the repaired tree must be dead-free, within physical
    // degree bounds, and account for every orphaned subtree.
    let view = RepairAuditView {
        tree: &repaired,
        dead: &dead_in_tree,
        bounds: repaired.hosts().iter().map(|&h| (h, dbound(h))).collect(),
        orphans: orphans.len(),
        report,
    };
    auditor.sample(
        &repair_invariants(),
        &view,
        reattached_at.unwrap_or(fallback_at),
    );
    AlmRepair {
        delivery_disruption,
        post_delivery,
        reattached_at,
        report,
    }
}

/// The borrow bundle the post-repair invariants run against.
struct RepairAuditView<'a> {
    tree: &'a MulticastTree,
    dead: &'a [HostId],
    /// Physical degree bound per host in the repaired tree.
    bounds: Vec<(HostId, u32)>,
    /// Subtree roots the crash orphaned.
    orphans: usize,
    report: ReattachReport,
}

fn repair_invariants<'a>() -> InvariantSet<RepairAuditView<'a>> {
    InvariantSet::new()
        .register(
            "no-dead-host-in-repaired-tree",
            inv_no_dead_in_repaired_tree,
        )
        .register("repaired-degrees-bounded", inv_repaired_degrees_bounded)
        .register("orphan-accounting", inv_orphan_accounting)
}

fn inv_no_dead_in_repaired_tree(v: &RepairAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for &d in v.dead {
        ctx.check(!v.tree.contains(d), || {
            format!("dead {d:?} survives in the repaired session tree")
        });
    }
}

fn inv_repaired_degrees_bounded(v: &RepairAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    for &(h, bound) in &v.bounds {
        let deg = v.tree.degree(h);
        ctx.check(deg <= bound, || {
            format!("repaired tree drives {h:?} at degree {deg} > bound {bound}")
        });
    }
}

fn inv_orphan_accounting(v: &RepairAuditView<'_>, ctx: &mut AuditCtx<'_>) {
    let settled = v.report.reattached + v.report.gave_up;
    ctx.check(settled == v.orphans, || {
        format!(
            "{} orphan subtrees but only {} settled (reattached {} + gave up {})",
            v.orphans, settled, v.report.reattached, v.report.gave_up
        )
    });
}

/// The same victim choice `ext_churn` makes: shuffle ring indices with
/// `seed + 100` and take the prefix.
fn pick_victims(ring: &Ring, seed: u64, crashes: usize) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 100);
    let mut all: Vec<usize> = (0..ring.len()).collect();
    all.shuffle(&mut rng);
    all.truncate(crashes);
    all
}

/// Sample the ALM session: the victims plus deterministically sampled
/// survivors up to `session_size`, rooted at a surviving member (the
/// source surviving is a precondition of session repair — a dead source
/// ends the session instead). Including the victims is deliberate: the
/// session worth measuring is the one the crash actually hit.
fn pick_session(cfg: &RecoveryConfig, dead_hosts: &[HostId]) -> Vec<HostId> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(simcore::rng::derive_seed(cfg.seed, 8));
    let mut all: Vec<u32> = (0..cfg.n).collect();
    all.shuffle(&mut rng);
    let size = cfg.session_size.min(cfg.n as usize);
    let mut members: Vec<HostId> = all
        .iter()
        .copied()
        .map(HostId)
        .filter(|h| !dead_hosts.contains(h))
        .take(size.saturating_sub(dead_hosts.len()).max(1))
        .collect();
    members.extend(dead_hosts.iter().copied().take(size.saturating_sub(1)));
    members
}

/// Hosts reachable from the tree root without passing through a dead host
/// (the root itself counts — it is a session member). Delegates to the
/// shared multipath delivery model so this pipeline and the market's
/// per-round delivery accounting agree on what "cut off" means; the
/// members-only session tree makes every tree host a member.
fn reachable_avoiding(tree: &MulticastTree, dead: &[HostId]) -> usize {
    let alive = |h: HostId| !dead.contains(&h);
    if !alive(tree.root()) {
        return 0;
    }
    // `delivered_members` excludes the root (a source doesn't deliver to
    // itself), which counts here as a reachable session member.
    alm::multipath::delivered_members(tree, tree.hosts(), &alive, &|_, _| true).len() + 1
}

/// Multiply a [`SimTime`] by an integer factor.
fn scale(t: SimTime, by: u64) -> SimTime {
    SimTime::from_micros(t.as_micros().saturating_mul(by))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: u32, crashes: usize, plan: FaultPlan) -> RecoveryConfig {
        RecoveryConfig {
            n,
            crashes,
            plan,
            session_size: 20,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn pipeline_recovers_fully_without_faults() {
        let out = run_pipeline(&small(64, 2, FaultPlan::none()));
        let t = &out.timeline;
        let detected = t.detected_at.expect("crash never detected");
        let expelled = t.expelled_at.expect("victims never expelled");
        let rebuilt = t.rebuilt_at.expect("census never refilled");
        let reattached = t.reattached_at.expect("ALM repair unfinished");
        assert!(detected >= t.crash_at);
        assert!(expelled >= detected);
        assert!(rebuilt >= expelled);
        assert!(reattached >= rebuilt);
        assert_eq!(out.post_completeness, 1.0);
        assert_eq!(out.post_delivery, 1.0);
        assert_eq!(out.alm.gave_up, 0);
        assert_eq!(out.dht_dropped, 0);
        assert_eq!(
            out.dht_false_expels, 0,
            "a loss-free ring expelled a live peer"
        );
        assert_eq!(out.gather_dropped, 0);
        assert!(out.audit.samples > 0, "auditor never sampled the pipeline");
        assert!(
            out.audit.is_clean(),
            "violations: {:?}",
            out.audit.violations
        );
    }

    #[test]
    fn pipeline_recovers_under_message_loss() {
        let plan = FaultPlan::with_loss(3, 0.05).jitter(SimTime::from_millis(20));
        let out = run_pipeline(&small(64, 4, plan));
        assert!(out.dht_dropped > 0, "loss never fired on heartbeats");
        assert_eq!(
            out.post_completeness, 1.0,
            "unsync regather must converge to a full census under 5% loss"
        );
        assert!(out.timeline.reattached_at.is_some());
        assert!(
            out.audit.is_clean(),
            "coherence broke under loss: {:?}",
            out.audit.violations
        );
    }

    #[test]
    fn pipeline_is_deterministic() {
        let plan = FaultPlan::with_loss(9, 0.03).jitter(SimTime::from_millis(10));
        let a = run_pipeline(&small(48, 3, plan.clone()));
        let b = run_pipeline(&small(48, 3, plan));
        assert_eq!(a, b, "same seed + same plan must be bit-identical");
    }
}
