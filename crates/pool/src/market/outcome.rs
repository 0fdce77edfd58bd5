//! What a run reports: per-class stats, the admission ledger, the outcome.

use simcore::audit::AuditReport;
use simcore::stats::OnlineStats;
use simcore::trace::TraceRecord;
use somo::traffic::TrafficLedger;

/// Aggregate results for one priority class.
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityStats {
    /// Improvement over the members-only AMCast baseline.
    pub improvement: OnlineStats,
    /// Helpers held per plan.
    pub helpers: OnlineStats,
    /// Times sessions of this class were preempted.
    pub preemptions: u64,
    /// Helper reservations refused because the planning view was stale.
    pub helper_failures: u64,
    /// Held helpers that crashed mid-session on this class.
    pub helper_crashes: u64,
    /// Root crashes survived by deputy takeover.
    pub failovers: u64,
    /// Sessions lost to a root crash with no surviving member.
    pub sessions_lost: u64,
}

/// Stats class that degraded admissions report under. Priority classes
/// are 1..=3; degraded sessions keep their priority for planning but
/// their outcomes are accounted separately so service degradation is
/// visible in the results.
pub const DEGRADED_CLASS: u8 = 4;

/// Per-class statistics, one entry per class id: the three priority
/// classes, then [`DEGRADED_CLASS`]. `get` and `get_mut` panic on any
/// other class id.
#[derive(Clone, Debug, Default)]
pub struct ClassStatsMap([PriorityStats; DEGRADED_CLASS as usize]);

impl ClassStatsMap {
    fn index(class: u8) -> usize {
        assert!(
            (1..=DEGRADED_CLASS).contains(&class),
            "unknown stats class {class}"
        );
        class as usize - 1
    }

    /// Stats of a class.
    pub fn get(&self, class: u8) -> &PriorityStats {
        &self.0[Self::index(class)]
    }

    /// Mutable stats of a class.
    pub fn get_mut(&mut self, class: u8) -> &mut PriorityStats {
        &mut self.0[Self::index(class)]
    }

    /// All `(class, stats)` entries in ascending class order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &PriorityStats)> {
        (1..).zip(&self.0)
    }
}

/// Admission-controller accounting ([`AllocationMode::Admission`](super::AllocationMode::Admission) runs
/// only; every counter saturates instead of wrapping).
#[derive(Clone, Debug, Default)]
pub struct AdmissionStats {
    /// Session arrivals that reached an admission decision.
    pub arrivals: u64,
    /// Arrivals admitted at full service (immediately or after queueing).
    pub admitted: u64,
    /// Arrivals admitted with degraded service.
    pub degraded: u64,
    /// Arrivals rejected: queue overflow, retry timeout, or root loss
    /// while queued.
    pub rejected: u64,
    /// The subset of rejections caused by the round-based retry timeout.
    pub timeouts: u64,
    /// Sessions still queued when the horizon closed.
    pub queued_final: u64,
    /// Largest total queue depth observed across the run.
    pub max_queue_depth: u64,
    /// Queue wait per admission in seconds (0 for immediate admissions) —
    /// the admission latency distribution.
    pub wait: OnlineStats,
}

/// Outcome of a market run.
#[derive(Clone, Debug, Default)]
pub struct MarketOutcome {
    /// Stats per class: priorities 1..=3 plus [`DEGRADED_CLASS`].
    pub per_class: ClassStatsMap,
    /// Admission-controller accounting (all-zero outside
    /// [`AllocationMode::Admission`](super::AllocationMode::Admission)).
    pub admission: AdmissionStats,
    /// Helper degrees obtained per plan, per session slot — the share
    /// samples the flash-crowd bench folds into a Jain fairness index.
    /// Sized to the slot count; empty entries mean the slot never planned
    /// after warm-up.
    pub session_shares: Vec<OnlineStats>,
    /// Per-slot fairness weight — the session's priority class. Jain's
    /// index for a *weighted* allocation compares the normalized shares
    /// x_i / w_i, so an allocator that hits its weighted target exactly
    /// scores 1.0 whatever the weights are.
    pub session_weights: Vec<f64>,
    /// Total plans executed.
    pub plans: u64,
    /// Pool degree utilization sampled after every plan (the §5.3 goal of
    /// maximizing whole-pool utilization).
    pub utilization: OnlineStats,
    /// Mid-session crash repairs run (one per detection that found dead
    /// hosts in the session's tree).
    pub crash_repairs: u64,
    /// Failed re-attach attempts across all crash repairs (the bounded
    /// retries of `alm::dynamic::reattach_orphans`).
    pub crash_repair_retries: u64,
    /// Orphan subtrees abandoned after the retry budget.
    pub crash_repair_gave_up: u64,
    /// Crash repairs resolved by the incremental holdings re-sync — no
    /// full replan ran.
    pub incremental_replans: u64,
    /// Crash repairs that abandoned a subtree, or whose re-sync could not
    /// reserve the repaired tree, and fell back to a full replan.
    pub resync_fallbacks: u64,
    /// Degrees returned to the pool by lease expiry — the leakage a dead
    /// task manager would otherwise have caused.
    pub lapsed_lease_degrees: u64,
    /// Degrees still held at the horizon by sessions that are no longer
    /// active. The crash-tolerance contract is that this is 0: every
    /// crashed session either failed over or had its leases lapse.
    pub leaked_degrees: u32,
    /// Per-round, per-session delivery ratio samples (crash or loss runs
    /// only): the fraction of a session's live members receiving through
    /// at least one of its trees, sampled every detection round after
    /// warm-up.
    pub delivery: OnlineStats,
    /// Rounds-to-restore samples: for each outage (a crash hitting the
    /// serving tree or its source), how many detection rounds passed until
    /// the session had an intact serving tree again — standby promotion,
    /// in-place repair, or full replan, whichever landed first.
    pub restore_rounds: OnlineStats,
    /// Multipath failovers: a broken primary replaced by an intact standby
    /// tree within one detection round.
    pub tree_failovers: u64,
    /// Standby trees lazily re-planned after crashes broke them.
    pub trees_rebuilt: u64,
    /// Invariant-audit results for the whole run (empty when auditing is
    /// disabled).
    pub audit: AuditReport,
    /// Wire cost of top-k query descents (Query discovery mode only).
    pub query_traffic: TrafficLedger,
    /// Wire cost of the periodic aggregate gathers that keep the query
    /// index fresh (Query discovery mode only).
    pub query_maintenance: TrafficLedger,
    /// Structured trace of the run (empty unless a tracer was attached via
    /// [`MarketSim::set_tracer`](super::MarketSim::set_tracer) — the default run is untraced and
    /// bit-identical to the pre-trace simulator).
    pub trace: Vec<TraceRecord>,
    /// Per-tier hit counters of the tiered latency oracle, when the pool
    /// planned through [`oracle::LatencySource::Tiered`] (`None` under
    /// `Exact` — the exact kernel has no tiers to count).
    pub oracle_tiers: Option<oracle::TierStats>,
    /// Bytes resident in the planning oracle at the end of the run (the
    /// factored kernel's `A(A+1)/2·4 + N·16 + A·4` under `Exact`).
    pub oracle_resident_bytes: u64,
    /// Degree relaxations performed by session planning (primary and
    /// standby trees): the sum of every plan's own count.
    pub planner_relaxations: u64,
    /// Always 0: only a `netsim::latency::Counted` model counts latency
    /// calls, and the pool plans through its uncounted oracle. Kept
    /// because the benchmark digests it.
    pub planner_latency_calls: u64,
}

impl MarketOutcome {
    /// Stats for a class (priorities 1..=3 or [`DEGRADED_CLASS`]).
    pub fn class(&self, priority: u8) -> &PriorityStats {
        self.per_class.get(priority)
    }

    /// Total failovers across classes.
    pub fn failovers(&self) -> u64 {
        self.per_class.iter().map(|(_, p)| p.failovers).sum()
    }

    /// Total lost sessions across classes.
    pub fn sessions_lost(&self) -> u64 {
        self.per_class.iter().map(|(_, p)| p.sessions_lost).sum()
    }

    /// Jain fairness index over the per-slot mean helper shares,
    /// normalized by each session's priority weight (Jain's original
    /// weighted form: φ_i = x_i / w_i). Slots that never planned
    /// post-warm-up contribute a 0 share; a missing weight counts as 1.
    pub fn jain_fairness(&self) -> f64 {
        let shares: Vec<f64> = self
            .session_shares
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let x = if s.count() == 0 { 0.0 } else { s.mean() };
                match self.session_weights.get(i) {
                    Some(&w) if w > 0.0 => x / w,
                    _ => x,
                }
            })
            .collect();
        simcore::stats::jain_index(&shares)
    }
}
