//! A slot's life: the phase edges, starting, planning and ending a
//! session, and how preemption and the fair share reach it.

use netsim::HostId;
use rand::Rng;
use simcore::rng::derive_rng2;
use simcore::trace::TraceEvent;
use simcore::SimTime;

use super::{
    Discovery, Ev, MarketSim, Mode, NoPlan, Phase, SpecInput, DEGRADED_CLASS,
    DEGRADED_HELPER_BUDGET, DEGRADED_MEMBER_DEGREE, MEAN_ACTIVE, REPLAN_PERIOD,
};
use crate::degree_table::SessionId;
use crate::task_manager::{
    plan_and_reserve_with, plan_standby_trees, Candidates, PlanShape, SessionSpec, FAIR_HELPER_RANK,
};

impl MarketSim {
    /// The deterministic deputy choice: the surviving member with the
    /// lowest host ID.
    pub(super) fn lowest_live_member(&self, i: usize) -> Option<HostId> {
        self.slots[i]
            .spec
            .members
            .iter()
            .copied()
            .filter(|&m| self.pool.is_alive(m))
            .min()
    }

    /// Who hosts slot `i`'s task manager when its session starts (or
    /// leaves the admission queue): the designated root, or — if a crash
    /// took it — the deputy. `None` when no member survived.
    pub(super) fn start_root(&self, i: usize) -> Option<HostId> {
        let root = self.slots[i].spec.root;
        if self.pool.is_alive(root) {
            Some(root)
        } else {
            self.lowest_live_member(i)
        }
    }

    /// Move slot `i` to `next` — the one place a slot changes phase. A
    /// session enters `Active` with no trees and no outage; leaving it
    /// forgets the trees, and what happens to the degrees they booked —
    /// released, or left to lapse with a dead manager's leases — is the
    /// caller's decision.
    pub(super) fn enter(&mut self, i: usize, next: Phase) {
        let slot = &mut self.slots[i];
        debug_assert!(
            matches!(
                (&slot.phase, &next),
                (Phase::Idle, Phase::Queued { .. } | Phase::Active { .. })
                    | (Phase::Queued { .. } | Phase::Active { .. }, Phase::Idle)
            ) && next.trees().is_empty(),
            "slot {i}: no edge {:?} -> {next:?}",
            slot.phase
        );
        slot.phase = next;
    }

    /// Whether slot `i` is still running the cycle an event was stamped
    /// with — the guard of every cycle-stamped event.
    pub(super) fn runs_cycle(&self, i: usize, cycle: u64) -> bool {
        self.slots[i].is_active() && self.slots[i].cycle == cycle
    }

    /// Schedule slot `i`'s next `Ev::Start` one jittered gap out. A session
    /// that ran to its end draws the gap on the 0x0E00 stream keyed by its
    /// cycle; every other way back to the start — a deferred start, a
    /// rejection, a lost session — counts a deferral and draws on the
    /// 0x0F00 stream keyed by the new count.
    pub(super) fn next_life(&mut self, i: usize, now: SimTime, ended: bool) {
        let slot = &mut self.slots[i];
        let (tag, key) = if ended {
            (0x0E00, slot.cycle)
        } else {
            slot.defers += 1;
            (0x0F00, slot.defers)
        };
        let mut rng = derive_rng2(self.seed, tag + i as u64, key);
        let gap = jittered(self.cfg.mean_gap, &mut rng);
        self.queue.schedule(now + gap, Ev::Start(i));
    }

    /// Slot `i`'s running session holds nothing while it has nobody to
    /// multicast to: release every claim and drop its trees.
    pub(super) fn go_dormant(&mut self, i: usize, now: SimTime) {
        let id = self.slots[i].spec.id;
        self.pool.release_session(id);
        let (trees, broken_since) = self.slots[i].session_mut();
        trees.clear();
        *broken_since = None;
        self.tracer
            .emit(now, || TraceEvent::MarketRelease { session: id.0 });
    }

    /// Shape a slot's `spec` for the planner at `now` — the one place the
    /// liveness, dormancy and lease rules live. Dead members are dropped
    /// (survivors carry on), a session with fewer than two live members
    /// is dormant, and the reservations are leased one TTL out: reserving
    /// IS renewing, so each replan is the session's heartbeat.
    pub(super) fn shape_spec(
        &self,
        mut spec: SessionSpec,
        now: SimTime,
    ) -> Result<SpecInput, NoPlan> {
        if !self.pool.is_alive(spec.root) {
            return Err(NoPlan::RootDead);
        }
        spec.members.retain(|&m| self.pool.is_alive(m));
        if spec.members.len() < 2 {
            return Err(NoPlan::Dormant);
        }
        let lease = now + self.cfg.lease_ttl;
        Ok(SpecInput { spec, lease })
    }

    /// Open one activity cycle for a slot: the legacy `Ev::Start` tail,
    /// factored out so every allocation mode schedules the identical event
    /// stream and draws the identical RNG tags (0x0D00 duration draw).
    pub(super) fn begin_session(&mut self, i: usize, now: SimTime, degraded: bool) {
        self.slots[i].degraded = degraded;
        self.enter(
            i,
            Phase::Active {
                trees: Vec::new(),
                broken_since: None,
            },
        );
        self.slots[i].cycle += 1;
        self.plan(i, now);
        let cycle = self.slots[i].cycle;
        let mut rng = derive_rng2(self.seed, 0x0D00 + i as u64, cycle);
        let dur = jittered(MEAN_ACTIVE, &mut rng);
        self.queue.schedule(now + dur, Ev::End(i, cycle));
        self.queue.schedule(now + REPLAN_PERIOD, Ev::Replan(i));
    }

    /// The class a slot's stats land under: its priority, or
    /// [`DEGRADED_CLASS`] while admitted degraded.
    pub(super) fn stats_class(&self, i: usize) -> u8 {
        if self.slots[i].degraded {
            DEGRADED_CLASS
        } else {
            self.slots[i].spec.priority
        }
    }

    /// The shape slot `i` plans and books under — the one place a mode
    /// picks its booking rank. A fair shape's helper budget is
    /// `fair_budget`, except that a degraded admission runs on a trimmed
    /// budget and fan-out; callers that read only the rank pass `u64::MAX`.
    pub(super) fn shape(&self, i: usize, fair_budget: u64) -> PlanShape {
        let slot = &self.slots[i];
        match self.mode {
            Mode::Priority => PlanShape::priority(slot.spec.priority, self.cfg.plan.k_trees),
            Mode::Admission(_) if slot.degraded => {
                PlanShape::fair(DEGRADED_HELPER_BUDGET, Some(DEGRADED_MEMBER_DEGREE))
            }
            Mode::Pareto | Mode::Admission(_) => PlanShape::fair(fair_budget, None),
        }
    }

    /// Weighted max-min fair helper budgets of every slot: water-fill the
    /// pool's current non-member capacity over the active slots,
    /// weighting by priority (higher class, larger weight). The planning
    /// slot is active already: a session enters its phase before its first
    /// plan.
    fn pareto_shares(&self) -> Vec<u64> {
        let capacity = self
            .pool
            .tables()
            .rows()
            .filter(|&(_, alive, _)| alive)
            .map(|(_, _, t)| t.dbound().saturating_sub(t.member_held()) as u64)
            .sum();
        let entries: Vec<(f64, u64)> = self
            .slots
            .iter()
            .map(|s| {
                if s.is_active() {
                    // Priority is the weight: the paper's class 3 stays
                    // the premium class, but fairly — it gets a larger
                    // share, never the power to evict.
                    (s.spec.priority as f64, 2 * s.spec.members.len() as u64)
                } else {
                    (0.0, 0)
                }
            })
            .collect();
        water_fill(capacity, &entries)
    }

    /// Fair-rank degrees `session` currently holds across the pool.
    fn fair_held(&self, session: SessionId) -> u64 {
        self.pool
            .tables()
            .rows()
            .flat_map(|(_, _, t)| t.allocations())
            .filter(|a| a.session == session && a.rank == FAIR_HELPER_RANK)
            .map(|a| a.count as u64)
            .sum()
    }

    /// Enforce the water-fill: a max-min allocation is only max-min if
    /// shrinking shares are reclaimed. As the crowd grows, every
    /// incumbent's share falls — without this trim the fair rank is
    /// first-come-first-served with a cap, and latecomers water-fill an
    /// already-drained pool. Incumbents holding more fair-rank degrees
    /// than their current share are trimmed down to it and replan like
    /// any revocation victim (so the churn is visible in the preemption
    /// counters, honestly — fair is not free).
    fn reclaim_overshare(&mut self, i: usize, shares: &[u64], now: SimTime) {
        let mut victims: Vec<SessionId> = Vec::new();
        for (j, &share) in shares.iter().enumerate() {
            if j == i || !self.slots[j].is_active() || self.slots[j].replan_pending {
                continue;
            }
            let sid = self.slots[j].spec.id;
            let mut excess = self.fair_held(sid).saturating_sub(share);
            if excess == 0 {
                continue;
            }
            // Host order — deterministic; the victim replans wholesale
            // anyway, so which hosts lose the trimmed degrees does not
            // matter beyond replayability.
            for h in self.pool.tables().holdings_of(sid) {
                if excess == 0 {
                    break;
                }
                let take = u32::try_from(excess).unwrap_or(u32::MAX);
                let freed = self.pool.release_degrees(h, sid, FAIR_HELPER_RANK, take);
                excess = excess.saturating_sub(freed as u64);
            }
            victims.push(sid);
        }
        self.notify_preempted(&victims, now);
    }

    /// Notify preemption victims: each active, not-already-pending victim
    /// replans after a 1 s revocation-notice delay. Duplicates are harmless
    /// (the pending flag absorbs them).
    pub(super) fn notify_preempted(&mut self, victims: &[SessionId], now: SimTime) {
        // The zero-preemption invariant of Admission mode counts *every*
        // victim, warm-up or not — one slip anywhere fails the audit.
        if let Mode::Admission(adm) = &mut self.mode {
            adm.preemptions = adm.preemptions.saturating_add(victims.len() as u64);
        }
        for &victim in victims {
            let vi = victim.0 as usize;
            if self.slots[vi].is_active() && !self.slots[vi].replan_pending {
                self.slots[vi].replan_pending = true;
                if now >= self.cfg.warmup {
                    let class = self.stats_class(vi);
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.preemptions = stats.preemptions.saturating_add(1);
                }
                self.queue
                    .schedule(now + SimTime::from_secs(1), Ev::PreemptReplan(vi));
            }
        }
    }

    pub(super) fn plan(&mut self, i: usize, now: SimTime) {
        let SpecInput { spec, lease } = match self.shape_spec(self.slots[i].spec.clone(), now) {
            Ok(input) => input,
            // Root crashed between the trigger and this plan; the failover
            // path owns the session now.
            Err(NoPlan::RootDead) => return,
            Err(NoPlan::Dormant) => {
                self.go_dormant(i, now);
                return;
            }
        };
        // Pareto plans against its water-filled fair share, over-share
        // incumbents trimmed back to theirs first.
        let fair_budget = match self.mode {
            Mode::Pareto => {
                let shares = self.pareto_shares();
                self.reclaim_overshare(i, &shares, now);
                shares[i]
            }
            Mode::Priority | Mode::Admission(_) => u64::MAX,
        };
        let shape = self.shape(i, fair_budget);
        // Priority task managers read the refreshed surface once it exists.
        // The fair modes plan from live tables regardless; admitted sessions
        // also skip every market member host, so they cannot preempt.
        let source = match (&self.mode, &mut self.discovery) {
            (Mode::Priority, Discovery::Snapshot { view: Some(view) }) => Candidates::View(view),
            (Mode::Priority, Discovery::Query { index: Some(index) }) => Candidates::Query(index),
            (Mode::Admission(adm), _) => Candidates::Live(Some(&adm.member_hosts)),
            _ => Candidates::Live(None),
        };
        let lease = Some(lease);
        let out =
            plan_and_reserve_with(&mut self.pool, &spec, &self.cfg.plan, source, shape, lease);
        // A fresh plan is an intact serving tree: close any open outage
        // window (no-op on crash-free runs — the window never opens).
        self.close_outage(i, now);
        let hosts = out.tree.len() as u32;
        let mut trees = vec![out.tree];
        // Multipath sessions plan their standby trees right behind the
        // primary, against the residual capacity the primary left; the
        // planner-work sums below deliberately include this work.
        let mut preempted = out.preempted;
        let mut standby_relaxations = 0;
        if shape.standby > 0 {
            let standby =
                plan_standby_trees(&mut self.pool, &spec, &self.cfg.plan, &trees[0], &[], lease);
            standby_relaxations = standby.relaxations;
            preempted.extend(standby.preempted);
            trees.extend(standby.trees);
        }
        *self.slots[i].session_mut().0 = trees;
        self.outcome.plans += 1;
        let relaxations = out.relaxations + standby_relaxations;
        self.outcome.planner_relaxations += relaxations;
        if self.tracer.is_enabled() {
            let session = spec.id.0;
            let degrees = self.pool.tables().held_total(spec.id);
            self.tracer.emit(now, || TraceEvent::MarketReserve {
                session,
                hosts,
                degrees,
                relaxations,
                latency_calls: 0,
            });
            self.tracer
                .emit(now, || TraceEvent::MarketLeaseRenew { session });
            // Tiered-source runs also sample the oracle's per-tier
            // counters; exact-mode traces stay byte-identical.
            if let Some(t) = self.pool.oracle_stats() {
                let resident_rows = self.pool.oracle_resident_rows() as u32;
                self.tracer.emit(now, || TraceEvent::OracleTiers {
                    session,
                    hot: t.hot,
                    sketch: t.sketch,
                    base: t.base,
                    resident_rows,
                });
            }
        }
        if now >= self.cfg.warmup {
            let class = self.stats_class(i);
            let stats = self.outcome.per_class.get_mut(class);
            stats.improvement.push(out.improvement);
            stats.helpers.push(out.helpers.len() as f64);
            stats.helper_failures = stats
                .helper_failures
                .saturating_add(out.helper_failures as u64);
            self.outcome.session_shares[i].push(out.helpers.len() as f64);
            self.outcome
                .utilization
                .push(self.pool.tables().utilization());
        }
        // Victims replan shortly (they detect the loss via their reservation
        // being revoked; modeled as a 1 s notification delay).
        self.notify_preempted(&preempted, now);
    }
}

/// Weighted max-min fair division (iterative water-filling): split
/// `capacity` units over `entries` of `(weight, demand)`, never giving an
/// entry more than its demand. Each round distributes the remaining
/// capacity proportionally to weight among unsatisfied entries; entries
/// whose demand falls below their proportional slice are satisfied
/// exactly and their leftover is re-filled to the rest. Terminates with
/// either every demand met or (integer floors aside) the capacity
/// exhausted — no entry can gain without another losing, the Pareto
/// property [`AllocationMode::Pareto`](super::AllocationMode::Pareto) plans against.
pub fn water_fill(capacity: u64, entries: &[(f64, u64)]) -> Vec<u64> {
    let n = entries.len();
    let mut share = vec![0u64; n];
    let mut active: Vec<usize> = (0..n)
        .filter(|&i| entries[i].1 > 0 && entries[i].0 > 0.0)
        .collect();
    let mut remaining = capacity;
    while !active.is_empty() && remaining > 0 {
        let wsum: f64 = active.iter().map(|&i| entries[i].0).sum();
        let level = remaining as f64 / wsum;
        let sat: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| (entries[i].1 - share[i]) as f64 <= entries[i].0 * level)
            .collect();
        if sat.is_empty() {
            // Nobody saturates at this water level: hand out the floored
            // proportional slices and stop (the sub-1-unit floor losses
            // per entry are the only capacity left behind).
            for &i in &active {
                let slice = (entries[i].0 * level).floor() as u64;
                let give = slice.min(entries[i].1 - share[i]).min(remaining);
                share[i] += give;
                remaining -= give;
            }
            break;
        }
        for &i in &sat {
            let give = (entries[i].1 - share[i]).min(remaining);
            share[i] += give;
            remaining -= give;
        }
        active.retain(|i| !sat.contains(i));
    }
    share
}

/// Draw a duration uniformly in [0.5, 1.5] × mean.
fn jittered(mean: SimTime, rng: &mut impl Rng) -> SimTime {
    let us = mean.as_micros().max(2);
    SimTime::from_micros(rng.random_range(us / 2..us + us / 2))
}
