//! Crashes: detection, in-place repair, multipath failover and rebuild,
//! deputy takeover, and the delivery rounds that measure them.

use alm::dynamic::reattach_orphans;
use alm::multipath::{best_surviving, delivery_ratio, tree_intact};
use alm::{MulticastTree, Problem};
use netsim::HostId;
use rand::Rng;
use simcore::rng::derive_rng2;
use simcore::trace::TraceEvent;
use simcore::SimTime;

use super::{Ev, MarketSim, NoPlan, Phase, SpecInput, DETECT_DELAY, FAILOVER_DELAY};
use crate::degree_table::SessionId;
use crate::task_manager::{plan_standby_trees, release_tree, victims};

impl MarketSim {
    /// A host went down: route the event to every session it touches.
    pub(super) fn on_host_down(&mut self, h: HostId, now: SimTime) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Phase::Active {
                trees,
                broken_since,
            } = &mut slot.phase
            else {
                continue;
            };
            let in_tree = trees.first().is_some_and(|t| t.contains(h));
            if slot.spec.root == h {
                // The serving tree lost its source: open the outage window
                // the deputy's replan will close. The deputy notices the
                // silent task manager after the failover delay (a missed
                // renewal round).
                if !trees.is_empty() {
                    broken_since.get_or_insert(now);
                }
                self.queue
                    .schedule(now + FAILOVER_DELAY, Ev::Failover(i, slot.cycle));
            } else if in_tree || self.pool.table(h).held_by(slot.spec.id) > 0 {
                // A standby-only loss (the host is held but not in the
                // serving tree) does not open the outage window: the
                // primary keeps delivering throughout.
                if in_tree {
                    broken_since.get_or_insert(now);
                }
                self.queue
                    .schedule(now + DETECT_DELAY, Ev::DetectCrash(i, slot.cycle));
            }
        }
    }

    /// The owning task manager notices dead hosts in its session: release
    /// the stranded claims, patch the tree with the bounded-retry repair,
    /// and re-sync the reservations to the repaired tree (a full replan,
    /// once the repair has settled, only when that fails).
    pub(super) fn detect_crash(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.runs_cycle(i, cycle) {
            return;
        }
        let spec = self.slots[i].spec.clone();
        // `None` when fewer than two members live: the session goes
        // dormant below, once the detection is on the books.
        let lease = match self.shape_spec(spec.clone(), now) {
            Ok(input) => Some(input.lease),
            Err(NoPlan::Dormant) => None,
            // The root died too; the pending failover owns this session.
            Err(NoPlan::RootDead) => return,
        };
        // Release every stranded claim (degrees booked on hosts that are
        // now dead), in host order. `release_on_host` is idempotent, so
        // overlapping detections are harmless.
        let stranded: Vec<HostId> = self
            .pool
            .tables()
            .holdings_of(spec.id)
            .into_iter()
            .filter(|&x| !self.pool.is_alive(x))
            .collect();
        for x in &stranded {
            self.pool.release_on_host(spec.id, *x);
        }
        let Some(tree) = self.slots[i].phase.trees().first().cloned() else {
            return;
        };
        let dead: Vec<HostId> = tree
            .hosts()
            .iter()
            .copied()
            .filter(|&x| !self.pool.is_alive(x))
            .collect();
        let standby_broken = self.slots[i].phase.trees()[1..]
            .iter()
            .any(|t| !tree_intact(t, |x| self.pool.is_alive(x)));
        if dead.is_empty() && !standby_broken {
            return;
        }
        self.tracer.emit(now, || TraceEvent::MarketCrashDetect {
            session: spec.id.0,
            stranded: stranded.len() as u32,
            dead_in_tree: dead.len() as u32,
        });
        if now >= self.cfg.warmup {
            let crashed_helpers = dead.iter().filter(|x| !spec.members.contains(x)).count();
            let class = self.stats_class(i);
            let stats = self.outcome.per_class.get_mut(class);
            stats.helper_crashes = stats.helper_crashes.saturating_add(crashed_helpers as u64);
        }
        // Dormant: hold no degrees, as `plan` does, instead of repairing
        // down to a tree that serves nobody (the root alone, holding a
        // zero-degree claim).
        let Some(lease) = lease else {
            self.go_dormant(i, now);
            return;
        };
        // Multipath sessions respond by failover, not in-place repair: an
        // intact tree (the primary, or the best standby promoted in its
        // place) keeps serving while the lost trees are lazily re-planned
        // in the background. Only when *no* tree survived does the legacy
        // repair below patch the primary.
        if self.slots[i].phase.trees().len() > 1 && self.multipath_failover(i, cycle, now, &dead) {
            return;
        }
        if dead.is_empty() {
            return;
        }
        // Patch the broken tree in place: each orphaned subtree re-attaches
        // with bounded retries and capped exponential backoff (the PR 1
        // recovery machinery), so the session keeps flowing. Repair is a
        // planning decision, so it reads the configured latency source.
        self.pool.promote_hot(&spec.members);
        let oracle = self.pool.planning_oracle();
        let net = &self.pool.net;
        let p = Problem::new(spec.root, spec.members.clone(), &oracle, |x| {
            net.hosts.degree_bound(x)
        });
        let (repaired, report) = reattach_orphans(&p, &tree, &dead, &self.cfg.reattach);
        self.outcome.crash_repairs += 1;
        self.outcome.crash_repair_retries += report.retries;
        self.outcome.crash_repair_gave_up += report.gave_up as u64;
        self.slots[i].session_mut().0[0] = repaired.clone();
        // The repaired tree serves again (best-effort when subtrees were
        // abandoned): the outage window closes here.
        self.close_outage(i, now);
        // The repaired tree *is* the new plan — only the orphaned subtrees
        // moved, so re-syncing the reservations to it is the whole
        // response; no full replan runs. A repair that abandoned a subtree,
        // or a re-sync refused because capacity moved while the repair ran,
        // falls back to a full replan once the repair has settled.
        let repair_ev = |incremental: bool| TraceEvent::MarketCrashRepair {
            session: spec.id.0,
            incremental,
            retries: report.retries,
            gave_up: report.gave_up as u64,
        };
        if report.gave_up == 0 && self.resync_holdings(i, &repaired, lease, now) {
            self.outcome.incremental_replans += 1;
            self.tracer.emit(now, || repair_ev(true));
            return;
        }
        self.outcome.resync_fallbacks += 1;
        self.tracer.emit(now, || repair_ev(false));
        if !self.slots[i].replan_pending {
            self.slots[i].replan_pending = true;
            let settle = report.duration.max(SimTime::from_secs(1));
            self.queue.schedule(now + settle, Ev::PreemptReplan(i));
        }
    }

    /// Re-reserve a session's holdings to mirror `tree` exactly: members
    /// at member rank, everything else at its shape's helper rank,
    /// leased to `lease` (re-syncing IS renewing, like [`Self::plan`]).
    /// Returns `false` — with the session's claims released, so the
    /// fallback full replan starts clean — if any host refuses. Preemption
    /// victims are notified exactly as [`Self::plan`] notifies them.
    fn resync_holdings(
        &mut self,
        i: usize,
        tree: &MulticastTree,
        lease: SimTime,
        now: SimTime,
    ) -> bool {
        let spec = self.slots[i].spec.clone();
        let helper_rank = self.shape(i, u64::MAX).helper_rank;
        self.pool.release_session(spec.id);
        let mut preempted: Vec<SessionId> = Vec::new();
        for &h in tree.hosts() {
            let rank = spec.booking_rank(h, helper_rank);
            match self
                .pool
                .reserve_leased(h, spec.id, rank, tree.degree(h), Some(lease))
            {
                Ok(victims) => preempted.extend(victims.into_iter().map(|(s, _)| s)),
                Err(_) => {
                    self.pool.release_session(spec.id);
                    return false;
                }
            }
        }
        self.notify_preempted(&victims(preempted, spec.id), now);
        true
    }

    /// Close a slot's outage window, if one is open: the session has an
    /// intact serving tree again. Samples rounds-to-restore — outage
    /// duration in units of the crash-detection period — after warm-up.
    pub(super) fn close_outage(&mut self, i: usize, now: SimTime) {
        let Some(t0) = self.slots[i].session_mut().1.take() else {
            return;
        };
        if now >= self.cfg.warmup {
            let period = DETECT_DELAY.as_micros() as f64;
            let rounds = now.as_micros().saturating_sub(t0.as_micros()) as f64 / period;
            self.outcome.restore_rounds.push(rounds);
        }
    }

    /// One detection round of a multipath session: promote the best intact
    /// tree to primary if the primary broke, release every broken tree's
    /// surviving claims degree-for-degree, and queue the lazy background
    /// rebuild. Returns `true` when the session is left with an intact
    /// primary — the caller's in-place repair is then unnecessary — and
    /// `false` when every tree lost a host (the legacy repair takes over;
    /// the broken standbys are already released and queued for rebuild).
    fn multipath_failover(
        &mut self,
        i: usize,
        cycle: u64,
        now: SimTime,
        dead_primary: &[HostId],
    ) -> bool {
        let session = self.slots[i].spec.id;
        let mut trees = std::mem::take(self.slots[i].session_mut().0);
        let best = if dead_primary.is_empty() {
            Some(0)
        } else {
            best_surviving(&trees, |x| self.pool.is_alive(x))
        };
        let Some(best) = best else {
            // No tree survived intact. Release the broken standbys — the
            // primary stays booked for the caller's in-place repair — and
            // queue the rebuild.
            for t in &trees[1..] {
                self.release_tree_degrees(i, t);
            }
            trees.truncate(1);
            *self.slots[i].session_mut().0 = trees;
            self.queue
                .schedule(now + DETECT_DELAY, Ev::RebuildTree(i, cycle));
            return false;
        };
        if best != 0 {
            // Failover: an intact standby takes over as the serving tree
            // within this detection round.
            self.outcome.tree_failovers += 1;
            let survivor = best as u32;
            self.tracer.emit(now, || TraceEvent::MarketTreeFailover {
                session: session.0,
                survivor,
            });
        }
        let mut rebuild = false;
        let mut kept = Vec::with_capacity(trees.len());
        for (j, t) in trees.into_iter().enumerate() {
            if j == best {
                // The serving tree goes first; the intact standbys keep
                // their order behind it.
                kept.insert(0, t);
            } else if j != 0 && tree_intact(&t, |x| self.pool.is_alive(x)) {
                kept.push(t);
            } else {
                // The broken old primary (when a standby took over) or a
                // broken standby: hand its surviving claims back.
                self.release_tree_degrees(i, &t);
                rebuild = true;
            }
        }
        *self.slots[i].session_mut().0 = kept;
        self.close_outage(i, now);
        if rebuild {
            // Lazily re-plan the lost trees in the background, one
            // detection round out.
            self.queue
                .schedule(now + DETECT_DELAY, Ev::RebuildTree(i, cycle));
        }
        true
    }

    /// Return one broken tree's surviving claims to the pool through
    /// [`release_tree`], skipping dead hosts: their claims were already
    /// swept by the stranded-claim release.
    fn release_tree_degrees(&mut self, i: usize, tree: &MulticastTree) {
        let helper_rank = self.shape(i, u64::MAX).helper_rank;
        let spec = &self.slots[i].spec;
        release_tree(&mut self.pool, spec, tree, helper_rank, |p, h| {
            !p.is_alive(h)
        });
    }

    /// Lazy background rebuild of a multipath session's lost standby trees:
    /// plan replacements around the current primary and the surviving
    /// standbys, under the same residual-capacity and fan-out-cap rules as
    /// the original plan. Best-effort — a pool with no spare capacity
    /// leaves the session at reduced redundancy until the next replan tops
    /// it up. The spec is shaped as for a replan: live members only,
    /// leased one TTL out.
    pub(super) fn rebuild_standby(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.runs_cycle(i, cycle) || self.cfg.plan.k_trees <= 1 {
            return;
        }
        let Ok(SpecInput { spec, lease }) = self.shape_spec(self.slots[i].spec.clone(), now) else {
            return;
        };
        let Some(primary) = self.slots[i].phase.trees().first() else {
            return;
        };
        if !tree_intact(primary, |x| self.pool.is_alive(x)) {
            // The primary broke again since this rebuild was queued; the
            // pending detection round owns the session.
            return;
        }
        let mut trees = std::mem::take(self.slots[i].session_mut().0);
        let out = plan_standby_trees(
            &mut self.pool,
            &spec,
            &self.cfg.plan,
            &trees[0],
            &trees[1..],
            Some(lease),
        );
        let added = out.trees.len() as u32;
        trees.extend(out.trees);
        *self.slots[i].session_mut().0 = trees;
        if added > 0 {
            self.outcome.trees_rebuilt += added as u64;
            let session = spec.id.0;
            self.tracer.emit(now, || TraceEvent::MarketTreeRebuilt {
                session,
                trees: added,
            });
        }
        self.notify_preempted(&out.preempted, now);
    }

    /// One read-only delivery-accounting round: for every active session
    /// with a tree, the fraction of its live members receiving through at
    /// least one of its trees right now. Pure observation — nothing in the
    /// pool, the slots or the RNG stream is touched, so the sampling rounds
    /// cannot perturb the trajectory they measure.
    pub(super) fn sample_delivery(&mut self, now: SimTime) {
        if now < self.cfg.warmup {
            return;
        }
        let loss = self.cfg.faults.loss;
        let round = now.as_micros() / DETECT_DELAY.as_micros();
        let (sim_seed, fault_seed) = (self.seed, self.cfg.faults.seed);
        for slot in &self.slots {
            let trees = slot.phase.trees();
            if trees.is_empty() {
                continue;
            }
            let ratio = delivery_ratio(
                trees,
                &slot.spec.members,
                |x| self.pool.is_alive(x),
                |a, b| loss == 0.0 || edge_delivers(sim_seed, fault_seed, round, a, b, loss),
            );
            self.outcome.delivery.push(ratio);
        }
    }

    /// Deputy takeover: the lowest-ID surviving member reconstructs the
    /// session from the SOMO-published degree tables (the only record of
    /// what the session holds) and replans as the new task
    /// manager. With no survivors the session is lost and its leases are
    /// left to lapse — a dead manager cannot release anything.
    pub(super) fn failover(&mut self, i: usize, cycle: u64, now: SimTime) {
        if !self.runs_cycle(i, cycle) {
            return;
        }
        let spec = self.slots[i].spec.clone();
        if self.pool.is_alive(spec.root) {
            // The root recovered before the deputy acted.
            return;
        }
        let class = self.stats_class(i);
        match self.lowest_live_member(i) {
            Some(deputy) => {
                if now >= self.cfg.warmup {
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.failovers = stats.failovers.saturating_add(1);
                }
                self.tracer.emit(now, || TraceEvent::MarketFailover {
                    session: spec.id.0,
                    deputy: deputy.0,
                });
                self.slots[i].spec.root = deputy;
                // The deputy's first replan releases what the published
                // tables book for the session and re-reserves under fresh
                // leases.
                self.plan(i, now);
            }
            None => {
                if now >= self.cfg.warmup {
                    let stats = self.outcome.per_class.get_mut(class);
                    stats.sessions_lost = stats.sessions_lost.saturating_add(1);
                }
                self.tracer
                    .emit(now, || TraceEvent::MarketSessionLost { session: spec.id.0 });
                self.enter(i, Phase::Idle);
                self.next_life(i, now, false);
            }
        }
    }
}

/// Deterministic per-(round, edge) message-loss draw for delivery
/// accounting: a pure hash stream keyed by the simulation and fault
/// seeds, independent of every scheduling RNG stream, so sampling under
/// loss stays pure observation.
fn edge_delivers(
    sim_seed: u64,
    fault_seed: u64,
    round: u64,
    parent: HostId,
    child: HostId,
    loss: f64,
) -> bool {
    let edge = ((parent.0 as u64) << 32) | child.0 as u64;
    let mut rng = derive_rng2(sim_seed ^ fault_seed.rotate_left(17), 0xD317 ^ round, edge);
    rng.random::<f64>() >= loss
}
