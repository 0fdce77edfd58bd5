//! The gather flow, simulated message-by-message.
//!
//! §3.2: "Given a data reporting interval T, information is gathered from
//! the SOMO leaves and flows to its root with a maximum delay of
//! `log_k N · T`. This bound is derived when flow between hierarchies of
//! SOMO is completely unsynchronized. If upper SOMO nodes' call for reports
//! immediately triggers the similar actions of their children, then the
//! latency can be reduced to `T + t_hop · log_k N`."
//!
//! [`GatherSim`] implements both regimes over a [`SomoTree`] snapshot:
//!
//! * **Unsynchronized** — every logical node free-runs a period-T timer;
//!   on firing it merges its children's latest partials (plus its own
//!   member data, if it is a reporting leaf) and pushes the result to its
//!   parent.
//! * **Synchronized** — the root fires every T and cascades a request down
//!   the tree; leaves answer immediately and partials aggregate on the way
//!   back up.
//!
//! Staleness is measured exactly, not asymptotically: every member's
//! contribution is stamped with its sample time, merges keep the minimum,
//! and the root's *view lag* is `now − oldest_stamp`, the paper's "the SOMO
//! root will have a global view with a lag of 1.6 s" metric.
//!
//! **Double-count avoidance.** A DHT node can host several leaves (its zone
//! may contain many small regions). Each member therefore reports through
//! exactly one canonical leaf: the leaf whose region contains the member's
//! own ID — that region is provably inside the member's own zone.

use simcore::trace::{CloseReason, TraceEvent, TraceRecord, Tracer};
use simcore::{EventQueue, FaultPlan, FaultyLink, SimTime};

use crate::report::Report;
use crate::tree::SomoTree;

/// Gather regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowMode {
    /// Free-running per-node timers; staleness bound `log_k N · T`.
    Unsynchronized,
    /// Root-triggered cascade; staleness ≈ `T + 2·t_hop·log_k N`.
    Synchronized,
}

/// A census stamped with sample freshness: `oldest` is the earliest sample
/// time among all folded member contributions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreshnessReport {
    /// Number of member contributions folded in.
    pub members: u64,
    /// The stalest contribution's sample time.
    pub oldest: SimTime,
}

impl FreshnessReport {
    /// One member's contribution sampled at `t`.
    pub fn of_member(t: SimTime) -> FreshnessReport {
        FreshnessReport {
            members: 1,
            oldest: t,
        }
    }
}

impl Report for FreshnessReport {
    fn merge(&mut self, other: &Self) {
        self.members += other.members;
        self.oldest = self.oldest.min(other.oldest);
    }
}

/// Sync-round accounting of a [`GatherSim`], read through
/// [`GatherSim::stats`]. Each counter equals the number of its trace
/// events, so a traced run can be checked against it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatherStats {
    /// Rounds closed because every live child answered
    /// (`GatherClose { reason: Completed }`).
    pub rounds_completed: u64,
    /// Rounds closed short on the child timeout
    /// (`GatherClose { reason: Timeout }`).
    pub rounds_timeout: u64,
    /// Repeated partials from a child already folded into the round
    /// (`GatherDuplicate`).
    pub partials_deduped: u64,
    /// Timeouts that found their round already closed: the stale-timeout
    /// no-op (`GatherTimeoutSuppressed`).
    pub timeouts_suppressed: u64,
}

/// One recorded root view.
#[derive(Clone, Debug)]
pub struct RootView<R> {
    /// When the root produced this view.
    pub at: SimTime,
    /// The aggregated report.
    pub view: R,
}

enum Ev<R> {
    /// Unsync: a logical node's periodic timer.
    NodeTimer(u32),
    /// Sync: the root's round timer.
    RootTimer,
    /// Sync: a request arriving at a logical node.
    Request { node: u32, round: u64 },
    /// A child partial arriving at its parent logical node. `None` when the
    /// child subtree had nothing to report (a non-canonical leaf). `from`
    /// is the sending child's logical index — sync mode dedups repeated
    /// partials per sender, unsync mode keys its latest-partial cache by it.
    Partial {
        node: u32,
        round: u64,
        from: u32,
        r: Option<R>,
    },
    /// Sync: give up waiting for this round's remaining children and send
    /// what has been accumulated (self-healing under member failure).
    Timeout { node: u32, round: u64 },
}

/// One open round at a logical node (sync mode): the running partial plus
/// which children have already been folded in (dedup per sender).
struct RoundBuf<R> {
    round: u64,
    acc: Option<R>,
    seen: Vec<u32>,
}

/// The gather-flow simulator. Generic over the report type and the message
/// delay between hosting ring members.
pub struct GatherSim<'a, R, L, D>
where
    R: Report,
    L: FnMut(usize, SimTime) -> R,
    D: Fn(usize, usize) -> SimTime,
{
    tree: &'a SomoTree,
    mode: FlowMode,
    period: SimTime,
    leaf_sample: L,
    delay: D,
    queue: EventQueue<Ev<R>>,
    /// Unsync mode: the latest partial each logical node sent up, indexed
    /// by the *sender* (a node has one parent, so the slot is unambiguous),
    /// stamped with its arrival time so stale entries (a crashed child)
    /// age out after a few periods. A parent folds its `children`'s slots
    /// in tree order. Empty in sync mode.
    latest: Vec<Option<(SimTime, R)>>,
    /// Sync mode: the rounds currently open at each logical node — one,
    /// or a few when the child timeout spans several periods. Empty in
    /// unsync mode.
    rounds: Vec<Vec<RoundBuf<R>>>,
    /// `seen` lists of closed rounds, kept for the next round to open.
    spare_seen: Vec<Vec<u32>>,
    /// The member reporting through each logical node: set for a member's
    /// canonical leaf, `None` everywhere else.
    reporting: Vec<Option<u32>>,
    views: Vec<RootView<R>>,
    messages: u64,
    round_ctr: u64,
    /// Per ring member: whether its host has crashed (it neither sends
    /// nor receives; its logical nodes go silent).
    dead: Vec<bool>,
    /// Sync mode: how long an internal node waits for its children before
    /// forwarding a partial aggregate.
    child_timeout: SimTime,
    /// Fault layer every inter-host message is threaded through. Endpoint
    /// labels are ring member indices. A no-op plan is zero-cost.
    faults: FaultyLink,
    /// Structured event trace (disabled by default: zero cost).
    tracer: Tracer,
    /// Round/timeout accounting.
    stats: GatherStats,
}

impl<'a, R, L, D> GatherSim<'a, R, L, D>
where
    R: Report,
    L: FnMut(usize, SimTime) -> R,
    D: Fn(usize, usize) -> SimTime,
{
    /// Create a simulator over a tree snapshot.
    ///
    /// `leaf_sample(member, now)` produces a member's current local report;
    /// `delay(host_a, host_b)` is the one-way message latency between two
    /// hosting ring members (0 when they are the same member).
    pub fn new(
        tree: &'a SomoTree,
        ring: &dht::Ring,
        mode: FlowMode,
        period: SimTime,
        leaf_sample: L,
        delay: D,
    ) -> Self {
        Self::with_faults(
            tree,
            ring,
            mode,
            period,
            leaf_sample,
            delay,
            FaultPlan::none(),
        )
    }

    /// Like [`GatherSim::new`], but every inter-host message is threaded
    /// through the fault plan (endpoints are labeled by ring member index).
    /// A no-op plan behaves exactly like the fault-free constructor.
    pub fn with_faults(
        tree: &'a SomoTree,
        ring: &dht::Ring,
        mode: FlowMode,
        period: SimTime,
        leaf_sample: L,
        delay: D,
        plan: FaultPlan,
    ) -> Self {
        // Canonical reporting leaf per member: the leaf whose region
        // contains the member's own ID. The leaf's host is the member
        // itself or its ring successor; in the latter case the member's
        // report costs one extra (cheap, ring-neighbor) fetch hop.
        let n = tree.len();
        let mut reporting = vec![None; n];
        for m in 0..ring.len() {
            let leaf = tree.canonical_leaf_of(ring.member(m).id) as usize;
            let prev = reporting[leaf].replace(m as u32);
            debug_assert!(prev.is_none(), "two members share a canonical leaf");
        }

        let mut queue = EventQueue::new();
        let (mut latest, mut rounds) = (Vec::new(), Vec::new());
        match mode {
            FlowMode::Unsynchronized => {
                latest.resize_with(n, || None);
                // Stagger timers deterministically across the first period.
                let p = period.as_micros().max(1);
                for i in 0..n as u32 {
                    let jitter =
                        SimTime::from_micros(simcore::rng::derive_seed(0x50_50, i as u64) % p);
                    queue.schedule(jitter, Ev::NodeTimer(i));
                }
            }
            FlowMode::Synchronized => {
                rounds.resize_with(n, Vec::new);
                queue.schedule(SimTime::ZERO, Ev::RootTimer);
            }
        }

        GatherSim {
            tree,
            mode,
            period,
            leaf_sample,
            delay,
            queue,
            latest,
            rounds,
            spare_seen: Vec::new(),
            reporting,
            views: Vec::new(),
            messages: 0,
            round_ctr: 0,
            dead: vec![false; ring.len()],
            child_timeout: period,
            faults: FaultyLink::new(plan),
            tracer: Tracer::disabled(),
            stats: GatherStats::default(),
        }
    }

    /// Attach a tracer; pass [`Tracer::ring`] to record events. The default
    /// is a disabled tracer, which costs one branch per would-be event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drain the tracer's buffered records (empty if tracing is disabled,
    /// `None` when a custom sink owns them — drain that sink instead).
    pub fn take_trace(&mut self) -> Option<Vec<TraceRecord>> {
        self.tracer.take_records()
    }

    /// Round/timeout accounting so far (all zero in unsync mode).
    pub fn stats(&self) -> GatherStats {
        self.stats
    }

    /// Events currently scheduled (timers, in-flight messages, pending
    /// round timeouts).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Children of `node` whose hosting members are currently alive — the
    /// number of partials a sync round can still expect.
    fn live_children(&self, node: u32) -> usize {
        self.tree.nodes()[node as usize]
            .children()
            .filter(|&c| !self.dead[self.tree.nodes()[c as usize].host()])
            .count()
    }

    /// Crash the host behind ring member `m`: every logical node it hosts
    /// stops sending and receiving, and its member report is lost. Sync
    /// rounds keep completing thanks to the per-round child timeout; the
    /// root's view simply shrinks until the ring (and with it the tree) is
    /// rebuilt — SOMO's "regenerated after a short jitter" behaviour.
    pub fn kill_member(&mut self, m: usize) {
        if let Some(dead) = self.dead.get_mut(m) {
            *dead = true;
        }
    }

    /// Restart a crashed member: its logical nodes resume sending and
    /// receiving, and its member report is counted again. Unsync timers
    /// were parked while dead, so the node picks up on its next tick with
    /// no extra scheduling.
    pub fn revive_member(&mut self, m: usize) {
        if let Some(dead) = self.dead.get_mut(m) {
            *dead = false;
        }
    }

    /// Override the sync-round child timeout (defaults to one period).
    ///
    /// Every level waits the same `t`, so a node that closes a round *on*
    /// its timeout answers after its parent's own timeout has fired, and
    /// the partial is dropped there. A fault-free gather therefore counts
    /// every member only if a full round trip fits inside the timeout:
    /// `2 · depth · t_hop < t` (plus the leaf's fetch, one more `2 · t_hop`).
    /// A deep tree (k = 2 is 16–26 levels at N = 256–4096) at 200 ms per
    /// hop needs more than the default; [`GatherStats::rounds_timeout`]
    /// counts the rounds that closed short.
    pub fn set_child_timeout(&mut self, t: SimTime) {
        self.child_timeout = t;
    }

    /// Run until simulated time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.handle(now, ev);
        }
    }

    /// Root views recorded so far, in time order.
    pub fn views(&self) -> &[RootView<R>] {
        &self.views
    }

    /// Total inter-host messages sent (same-host hops are free and not
    /// counted).
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Messages the fault layer dropped so far.
    pub fn messages_dropped(&self) -> u64 {
        self.faults.dropped()
    }

    fn handle(&mut self, now: SimTime, ev: Ev<R>) {
        // A crashed host neither fires timers nor receives messages.
        let at_node = match &ev {
            Ev::NodeTimer(i) => Some(*i),
            Ev::Request { node, .. } | Ev::Partial { node, .. } | Ev::Timeout { node, .. } => {
                Some(*node)
            }
            Ev::RootTimer => None,
        };
        if let Some(i) = at_node {
            if self.dead[self.tree.nodes()[i as usize].host()] {
                // Keep unsync timers parked so a later revive would be easy.
                if let Ev::NodeTimer(i) = ev {
                    self.queue.schedule_after(self.period, Ev::NodeTimer(i));
                }
                return;
            }
        }
        match ev {
            Ev::NodeTimer(i) => {
                if let Some(r) = self.aggregate_unsync(i, now) {
                    self.emit_to_parent_after(i, 0, Some(r), SimTime::ZERO);
                }
                self.queue.schedule_after(self.period, Ev::NodeTimer(i));
            }
            Ev::RootTimer => {
                self.round_ctr += 1;
                let round = self.round_ctr;
                self.queue.schedule(now, Ev::Request { node: 0, round });
                self.queue.schedule_after(self.period, Ev::RootTimer);
            }
            Ev::Request { node, round } => {
                let n = &self.tree.nodes()[node as usize];
                if n.is_leaf() {
                    // If the reporting member is not the leaf's host, the
                    // host fetches the report from it first: one
                    // request/response round-trip between ring neighbors.
                    let leaf_host = n.host();
                    let member = self.member_reporting_at(node);
                    let member_dead = member.is_some_and(|m| self.dead[m]);
                    // If either leg of the fetch round-trip is dropped, the
                    // member's report is lost for this round; the leaf still
                    // answers its parent (with nothing) so the round closes.
                    let mut fetch_lost = false;
                    let fetch = match member {
                        Some(m) if m != leaf_host && !member_dead => {
                            self.messages += 1;
                            let leg1 = self.faults.transmit(
                                leaf_host as u64,
                                m as u64,
                                now,
                                (self.delay)(leaf_host, m),
                            );
                            match leg1 {
                                None => {
                                    fetch_lost = true;
                                    SimTime::ZERO
                                }
                                Some(d1) => {
                                    self.messages += 1;
                                    let leg2 = self.faults.transmit(
                                        m as u64,
                                        leaf_host as u64,
                                        now + d1,
                                        (self.delay)(m, leaf_host),
                                    );
                                    match leg2 {
                                        None => {
                                            fetch_lost = true;
                                            SimTime::ZERO
                                        }
                                        Some(d2) => d1 + d2,
                                    }
                                }
                            }
                        }
                        _ => SimTime::ZERO,
                    };
                    let r = if member_dead || fetch_lost {
                        None // the member crashed (or the fetch was lost)
                    } else {
                        self.leaf_report(node, now)
                    };
                    self.emit_to_parent_after(node, round, r, fetch);
                } else {
                    // Forward to every child; remember who has answered so
                    // far this round. Children hosted by the same member
                    // get the message instantly (delay 0).
                    let seen = self.spare_seen.pop().unwrap_or_default();
                    self.rounds[node as usize].push(RoundBuf {
                        round,
                        acc: None,
                        seen,
                    });
                    let expected = self.live_children(node) as u32;
                    self.tracer.emit(now, || TraceEvent::GatherOpen {
                        node,
                        round,
                        expected,
                    });
                    let tree = self.tree;
                    let my_host = tree.nodes()[node as usize].host();
                    for c in tree.nodes()[node as usize].children() {
                        let ch = tree.nodes()[c as usize].host();
                        let d = if ch == my_host {
                            Some(SimTime::ZERO)
                        } else {
                            self.messages += 1;
                            self.faults.transmit(
                                my_host as u64,
                                ch as u64,
                                now,
                                (self.delay)(my_host, ch),
                            )
                        };
                        // A dropped request leaves that child silent this
                        // round; the per-round timeout closes the round.
                        if let Some(d) = d {
                            self.queue.schedule_after(d, Ev::Request { node: c, round });
                        }
                    }
                    self.queue
                        .schedule_after(self.child_timeout, Ev::Timeout { node, round });
                }
            }
            Ev::Timeout { node, round } => {
                // Fast path: the round usually closed on its last partial
                // and the entry is gone — the stale timeout is a no-op.
                let Some(open) = self.open_round(node, round) else {
                    self.stats.timeouts_suppressed += 1;
                    self.tracer
                        .emit(now, || TraceEvent::GatherTimeoutSuppressed { node, round });
                    return;
                };
                // Children that never answered are presumed crashed; send
                // what we have so the round still completes.
                self.stats.rounds_timeout += 1;
                let received = self.rounds[node as usize][open].seen.len() as u32;
                let expected = self.live_children(node) as u32;
                self.tracer.emit(now, || TraceEvent::GatherClose {
                    node,
                    round,
                    received,
                    expected,
                    reason: CloseReason::Timeout,
                });
                let acc = self.close_round(node, open);
                self.emit_to_parent_after(node, round, acc, SimTime::ZERO);
            }
            Ev::Partial {
                node,
                round,
                from,
                r,
            } => match self.mode {
                FlowMode::Unsynchronized => {
                    // One slot per sending child, so a parent keeps one
                    // latest partial per subtree.
                    if let Some(r) = r {
                        self.latest[from as usize] = Some((now, r));
                    }
                }
                FlowMode::Synchronized => {
                    // Live children only: a host that crashed mid-round
                    // will never answer, so waiting for its partial would
                    // stall the round all the way to the timeout.
                    let expected = self.live_children(node);
                    // The round may already be closed by a timeout; late
                    // partials are then dropped.
                    let Some(open) = self.open_round(node, round) else {
                        return;
                    };
                    let entry = &mut self.rounds[node as usize][open];
                    if entry.seen.contains(&from) {
                        self.stats.partials_deduped += 1;
                        self.tracer
                            .emit(now, || TraceEvent::GatherDuplicate { node, round, from });
                        return;
                    }
                    entry.seen.push(from);
                    match (&mut entry.acc, r) {
                        (Some(acc), Some(r)) => acc.merge(&r),
                        (slot @ None, Some(r)) => *slot = Some(r),
                        (_, None) => {}
                    }
                    let received = entry.seen.len();
                    self.tracer
                        .emit(now, || TraceEvent::GatherPartial { node, round, from });
                    // `>=`, not `==`: if the live-child set shrank after
                    // some children already answered, the count can step
                    // past the target — the round must still close rather
                    // than limp to its timeout.
                    if received >= expected {
                        self.stats.rounds_completed += 1;
                        self.tracer.emit(now, || TraceEvent::GatherClose {
                            node,
                            round,
                            received: received as u32,
                            expected: expected as u32,
                            reason: CloseReason::Completed,
                        });
                        let acc = self.close_round(node, open);
                        self.emit_to_parent_after(node, round, acc, SimTime::ZERO);
                    }
                }
            },
        }
    }

    /// Unsync aggregation at a logical node: own member data (if this is a
    /// reporting leaf) merged with the latest child partials. `None` when
    /// nothing has been heard yet.
    fn aggregate_unsync(&mut self, i: u32, now: SimTime) -> Option<R> {
        // Age out partials from children we have not heard from for three
        // periods — a crashed subtree must not be reported forever.
        let expiry = SimTime::from_micros(self.period.as_micros().saturating_mul(3));
        let mut acc: Option<R> = self.leaf_report(i, now);
        // Children are folded in tree order, so the result is a function
        // of the partials alone (a `Report` may sum floats).
        for c in self.tree.nodes()[i as usize].children() {
            let slot = &mut self.latest[c as usize];
            let Some((at, r)) = slot else { continue };
            if now.saturating_sub(*at) >= expiry {
                *slot = None;
                continue;
            }
            match &mut acc {
                Some(a) => a.merge(r),
                None => acc = Some(r.clone()),
            }
        }
        acc
    }

    /// Position of `round` among the rounds open at `node`, if it still is.
    fn open_round(&self, node: u32, round: u64) -> Option<usize> {
        self.rounds[node as usize]
            .iter()
            .position(|buf| buf.round == round)
    }

    /// Close the open round at position `open` of `node`: its accumulated
    /// partial.
    fn close_round(&mut self, node: u32, open: usize) -> Option<R> {
        let mut buf = self.rounds[node as usize].swap_remove(open);
        buf.seen.clear();
        self.spare_seen.push(buf.seen);
        buf.acc
    }

    /// The member whose canonical leaf is `node`, if any.
    fn member_reporting_at(&self, node: u32) -> Option<usize> {
        self.reporting[node as usize].map(|m| m as usize)
    }

    /// A leaf's contribution: the hosting member's data if this is the
    /// member's canonical leaf, nothing otherwise (avoids double-counting
    /// members whose zone holds several leaves).
    fn leaf_report(&mut self, leaf: u32, now: SimTime) -> Option<R> {
        let member = self.member_reporting_at(leaf)?;
        Some((self.leaf_sample)(member, now))
    }

    fn emit_to_parent_after(&mut self, i: u32, round: u64, r: Option<R>, extra: SimTime) {
        let n = &self.tree.nodes()[i as usize];
        let my_host = n.host();
        match n.parent() {
            None => {
                // Root: record the fresh global view.
                if let Some(view) = r {
                    let at = self.queue.now() + extra;
                    self.tracer
                        .emit(at, || TraceEvent::GatherRootView { round });
                    self.views.push(RootView { at, view });
                }
            }
            Some(p) => {
                let ph = self.tree.nodes()[p as usize].host();
                let hop = if ph == my_host {
                    Some(SimTime::ZERO)
                } else {
                    self.messages += 1;
                    self.faults.transmit(
                        my_host as u64,
                        ph as u64,
                        self.queue.now() + extra,
                        (self.delay)(my_host, ph),
                    )
                };
                // A dropped partial never reaches the parent: in sync mode
                // the round's timeout fills in, in unsync mode the parent
                // simply keeps its previous latest entry.
                let Some(hop) = hop else { return };
                let d = extra + hop;
                self.queue.schedule_after(
                    d,
                    Ev::Partial {
                        node: p,
                        round,
                        from: i,
                        r,
                    },
                );
            }
        }
    }
}

/// The paper's unsynchronized staleness bound: `ceil(log_k N) · T`.
pub fn unsync_staleness_bound(n: usize, fanout: usize, period: SimTime) -> SimTime {
    let levels = (n.max(2) as f64).log(fanout as f64).ceil() as u64;
    SimTime::from_micros(period.as_micros() * levels)
}

/// The paper's synchronized staleness bound: `T + 2·t_hop·log_k N`
/// (requests descend and partials ascend `log_k N` levels each).
pub fn sync_staleness_bound(n: usize, fanout: usize, t_hop: SimTime, period: SimTime) -> SimTime {
    let levels = (n.max(2) as f64).log(fanout as f64).ceil() as u64;
    period + SimTime::from_micros(2 * t_hop.as_micros() * levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht::Ring;
    use netsim::HostId;

    fn setup(n: u32, fanout: usize) -> (Ring, SomoTree) {
        let ring = Ring::with_random_ids((0..n).map(HostId), 13);
        let tree = SomoTree::build(&ring, fanout);
        (ring, tree)
    }

    const HOP: SimTime = SimTime::from_millis(200);
    const T: SimTime = SimTime::from_secs(5);

    fn run(
        mode: FlowMode,
        n: u32,
        fanout: usize,
        until_secs: u64,
    ) -> (Vec<RootView<FreshnessReport>>, u64, usize) {
        let (ring, tree) = setup(n, fanout);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            mode,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(until_secs));
        (sim.views().to_vec(), sim.messages_sent(), ring.len())
    }

    #[test]
    fn sync_gather_counts_every_member_exactly_once() {
        let (views, _msgs, n) = run(FlowMode::Synchronized, 100, 8, 60);
        assert!(!views.is_empty(), "no root views recorded");
        for v in &views {
            assert_eq!(v.view.members, n as u64, "member census wrong");
        }
    }

    #[test]
    fn unsync_gather_converges_to_full_census() {
        let (views, _msgs, n) = run(FlowMode::Unsynchronized, 100, 8, 300);
        let last = views.last().expect("no views");
        assert_eq!(last.view.members, n as u64, "unsync census incomplete");
    }

    #[test]
    fn sync_staleness_within_paper_bound() {
        let (ring, tree) = setup(256, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(120));
        // A shallow leaf may be sampled almost immediately while the root
        // still waits for the deepest subtree's descent + fetch + ascent,
        // so the oldest-sample lag is bounded by (2·depth + 2) hops.
        let bound = SimTime::from_micros(HOP.as_micros() * (2 * tree.depth() as u64 + 2));
        for v in sim.views() {
            let lag = v.at.saturating_sub(v.view.oldest);
            assert!(lag <= bound, "sync lag {lag} exceeds bound {bound}");
        }
        // In sync mode the lag must be far below the period-dominated
        // unsync bound: it is pure propagation (samples are taken on
        // request).
        let worst = sim
            .views()
            .iter()
            .map(|v| v.at.saturating_sub(v.view.oldest))
            .max()
            .unwrap();
        assert!(worst < T, "sync lag {worst} should be below one period");
    }

    #[test]
    fn unsync_staleness_within_paper_bound() {
        let (ring, tree) = setup(256, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Unsynchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(600));
        // The paper's bound is levels·T; our tree's actual depth replaces
        // the idealized log_k N (random zone sizes make it ~2·log_k N).
        let levels = tree.depth() as u64 + 1;
        let bound = SimTime::from_micros(T.as_micros() * levels);
        // Skip the warm-up (views before every member has been counted).
        let full: Vec<_> = sim
            .views()
            .iter()
            .filter(|v| v.view.members == ring.len() as u64)
            .collect();
        assert!(!full.is_empty());
        // Allow per-hop propagation slack on top of the timer-phase bound.
        let slack = SimTime::from_micros(HOP.as_micros() * (levels + 2));
        for v in &full[2..] {
            let lag = v.at.saturating_sub(v.view.oldest);
            assert!(
                lag <= bound + slack,
                "unsync lag {lag} exceeds bound {bound} (+{slack})"
            );
        }
    }

    #[test]
    fn single_member_ring_reports_itself() {
        let (views, msgs, _) = run(FlowMode::Synchronized, 1, 8, 30);
        assert!(!views.is_empty());
        assert_eq!(views[0].view.members, 1);
        assert_eq!(msgs, 0, "single node should never go over the network");
    }

    #[test]
    fn message_volume_is_linear_in_tree_size() {
        let (ring, tree) = setup(200, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(60));
        let rounds = sim.views().len() as u64;
        assert!(rounds >= 5);
        // Per round: at most one request + one response per tree edge,
        // plus a two-message fetch per member report.
        let edges = (tree.len() - 1) as u64;
        let per_round = 2 * edges + 2 * ring.len() as u64;
        assert!(
            sim.messages_sent() <= per_round * (rounds + 2),
            "too many messages: {} for {} rounds over {} edges",
            sim.messages_sent(),
            rounds,
            edges
        );
    }

    #[test]
    fn analytic_bounds_match_paper_numbers() {
        // §3.2: "For 2M nodes and with k=8 and a typical latency of 200ms
        // per DHT hop, the SOMO root will have a global view with a lag of
        // 1.6 s" — that is t_hop · log_8(2M) ≈ 0.2 · 7 = 1.4–1.6 s; our
        // sync bound adds the descent, so halve it for the one-way figure.
        let levels = (2_000_000f64).log(8.0).ceil(); // = 7
        assert_eq!(levels as u64, 7);
        let one_way = SimTime::from_micros(HOP.as_micros() * levels as u64);
        assert_eq!(one_way, SimTime::from_millis(1400));
        // And the full sync round-trip bound on top of one period:
        let b = sync_staleness_bound(2_000_000, 8, HOP, T);
        assert_eq!(b, T + SimTime::from_millis(2800));
    }

    #[test]
    fn sync_gather_survives_member_crash() {
        let (ring, tree) = setup(100, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(30));
        let full = sim.views().last().unwrap().view.members;
        assert_eq!(full, 100);

        // Crash a member that hosts an internal tree node if possible.
        let victim = tree.nodes()[0]
            .children()
            .next()
            .map(|c| tree.nodes()[c as usize].host())
            .unwrap_or(1);
        sim.kill_member(victim);
        sim.run_until(SimTime::from_secs(120));
        // Rounds keep completing (timeouts), with a reduced census: the
        // crashed member's own report is gone, and so are reports of any
        // member whose canonical leaf the victim hosted or whose subtree
        // hangs under a logical node the victim hosted.
        let after = sim.views().last().unwrap();
        assert!(
            after.at > SimTime::from_secs(40),
            "no views after the crash"
        );
        assert!(after.view.members < 100, "crashed member still counted");
        assert!(after.view.members >= 50, "far too many members lost");
    }

    #[test]
    fn unsync_census_shrinks_after_crash() {
        // Unsync mode has no timeouts, but stale child partials age out
        // after three periods, so a crashed subtree disappears from the
        // root's census instead of being reported forever.
        let (ring, tree) = setup(80, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Unsynchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(200));
        assert_eq!(sim.views().last().unwrap().view.members, 80);
        sim.kill_member(5);
        sim.run_until(SimTime::from_secs(400));
        let after = sim.views().last().unwrap().view.members;
        assert!(after < 80, "crashed member still in the unsync census");
    }

    #[test]
    fn revived_member_rejoins_the_census() {
        let (ring, tree) = setup(80, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.views().last().unwrap().view.members, 80);
        sim.kill_member(7);
        sim.run_until(SimTime::from_secs(90));
        assert!(sim.views().last().unwrap().view.members < 80);
        sim.revive_member(7);
        sim.run_until(SimTime::from_secs(150));
        assert_eq!(
            sim.views().last().unwrap().view.members,
            80,
            "revived member not counted again"
        );
    }

    #[test]
    fn unsync_census_converges_to_full_under_loss() {
        // 5% per-message loss: unsync per-hop cached partials make the
        // census reach (and mostly hold) 100% anyway — each link only needs
        // one success every three periods.
        let (ring, tree) = setup(100, 8);
        let mut sim = GatherSim::with_faults(
            &tree,
            &ring,
            FlowMode::Unsynchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
            FaultPlan::with_loss(11, 0.05).jitter(SimTime::from_millis(20)),
        );
        sim.run_until(SimTime::from_secs(600));
        assert!(sim.messages_dropped() > 0, "loss never fired");
        let full = sim
            .views()
            .iter()
            .filter(|v| v.view.members == ring.len() as u64)
            .count();
        assert!(
            full * 2 > sim.views().len(),
            "census full in only {full}/{} views",
            sim.views().len()
        );
        assert_eq!(
            sim.views().last().unwrap().view.members,
            ring.len() as u64,
            "census did not converge under loss"
        );
    }

    #[test]
    fn no_fault_plan_is_bit_identical_to_plain_sim() {
        let (ring, tree) = setup(120, 8);
        fn finish<L, D>(mut sim: GatherSim<FreshnessReport, L, D>) -> Run
        where
            L: FnMut(usize, SimTime) -> FreshnessReport,
            D: Fn(usize, usize) -> SimTime,
        {
            sim.run_until(SimTime::from_secs(120));
            let vs: Vec<(SimTime, u64, SimTime)> = sim
                .views()
                .iter()
                .map(|v| (v.at, v.view.members, v.view.oldest))
                .collect();
            (vs, sim.messages_sent(), sim.messages_dropped())
        }
        type Run = (Vec<(SimTime, u64, SimTime)>, u64, u64);
        let plain = finish(GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        ));
        let faulty = finish(GatherSim::with_faults(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
            FaultPlan::none(),
        ));
        assert_eq!(plain.0, faulty.0);
        assert_eq!(plain.1, faulty.1);
        assert_eq!(faulty.2, 0);
    }

    #[test]
    fn churn_mid_round_closes_by_completion_not_timeout() {
        // Kill a remote root child after round 1's requests are in flight:
        // the live-child count shrinks mid-round, and the root must close
        // the round as soon as the survivors have answered (`>=` on a live
        // count), not limp to the 5 s timeout as the old `==`-on-static
        // count did.
        let (ring, tree) = setup(12, 64);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.set_tracer(simcore::Tracer::ring(4096));
        // Process everything at t=0: round 1 opens and requests go out.
        sim.run_until(SimTime::ZERO);
        let root_host = tree.nodes()[0].host();
        let victim = tree.nodes()[0]
            .children()
            .map(|c| tree.nodes()[c as usize].host())
            .find(|&h| h != root_host)
            .expect("no remote root child to kill");
        sim.kill_member(victim);
        // Well before the 5 s child timeout could fire.
        sim.run_until(SimTime::from_secs(4));
        let trace = sim.take_trace().expect("ring tracer owns its records");
        let close = trace
            .iter()
            .find_map(|rec| match rec.ev {
                simcore::TraceEvent::GatherClose {
                    node: 0,
                    round: 1,
                    reason,
                    ..
                } => Some(reason),
                _ => None,
            })
            .expect("root round 1 never closed before the timeout window");
        assert_eq!(
            close,
            simcore::trace::CloseReason::Completed,
            "round with churned child should complete, not time out"
        );
        let last = sim.views().last().expect("no views");
        assert!(last.view.members < 12, "dead member still counted");
    }

    #[test]
    fn queue_length_after_successful_round_is_period_independent() {
        // After a fully successful gather round, stale per-round timeouts
        // must be suppressed no-ops: the number of pending events mid-cycle
        // is a property of the tree, not of the period.
        let mut pendings = Vec::new();
        for period_secs in [4u64, 10, 40] {
            let (ring, tree) = setup(60, 8);
            let period = SimTime::from_secs(period_secs);
            let mut sim = GatherSim::new(
                &tree,
                &ring,
                FlowMode::Synchronized,
                period,
                |_m, now| FreshnessReport::of_member(now),
                |a, b| if a == b { SimTime::ZERO } else { HOP },
            );
            // 1.5 periods in: round 1 closed and its timeouts suppressed,
            // round 2 closed with its timeouts still pending, round 3 not
            // started.
            sim.run_until(SimTime::from_micros(period.as_micros() * 3 / 2));
            assert!(
                sim.stats().timeouts_suppressed > 0,
                "successful rounds should leave suppressed timeouts"
            );
            assert_eq!(sim.stats().rounds_timeout, 0);
            pendings.push(sim.pending_events());
        }
        assert_eq!(pendings[0], pendings[1], "pending events depend on period");
        assert_eq!(pendings[1], pendings[2], "pending events depend on period");
    }

    #[test]
    fn stats_count_their_trace_events() {
        // A lossy synchronized gather through one crash and one restart.
        // Every counter must equal the number of its trace events.
        let (ring, tree) = setup(100, 8);
        let mut sim = GatherSim::with_faults(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
            FaultPlan::with_loss(11, 0.05).jitter(SimTime::from_millis(20)),
        );
        sim.set_tracer(simcore::Tracer::ring(1 << 20));
        let victim = tree.nodes()[0]
            .children()
            .map(|c| tree.nodes()[c as usize].host())
            .find(|&h| h != tree.nodes()[0].host())
            .expect("no remote root child to kill");
        sim.run_until(SimTime::from_secs(32));
        sim.kill_member(victim);
        sim.run_until(SimTime::from_secs(90));
        sim.revive_member(victim);
        sim.run_until(SimTime::from_secs(150));
        let trace = sim.take_trace().expect("ring tracer owns its records");
        assert_eq!(
            trace.last().map(|r| r.seq + 1),
            Some(trace.len() as u64),
            "the ring evicted records"
        );
        let mut counted = GatherStats::default();
        for rec in &trace {
            match rec.ev {
                TraceEvent::GatherClose {
                    reason: CloseReason::Completed,
                    ..
                } => counted.rounds_completed += 1,
                TraceEvent::GatherClose {
                    reason: CloseReason::Timeout,
                    ..
                } => counted.rounds_timeout += 1,
                TraceEvent::GatherDuplicate { .. } => counted.partials_deduped += 1,
                TraceEvent::GatherTimeoutSuppressed { .. } => counted.timeouts_suppressed += 1,
                _ => {}
            }
        }
        // The fault layer never duplicates a message, so `partials_deduped`
        // is 0 on both sides here; the other three all fire.
        assert_eq!(sim.stats(), counted);
        assert!(counted.rounds_completed > 0 && counted.rounds_timeout > 0);
        assert!(counted.timeouts_suppressed > 0);
    }

    #[test]
    fn rebuilt_tree_restores_full_census_after_crash() {
        // The self-healing story end-to-end: crash → reduced view; ring
        // repair (rebuild tree without the victim) → full view of the
        // survivors.
        let mut ring = Ring::with_random_ids((0..60u32).map(HostId), 13);
        let tree = SomoTree::build(&ring, 8);
        let mut sim = GatherSim::new(
            &tree,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.kill_member(30);
        sim.run_until(SimTime::from_secs(60));
        let degraded = sim.views().last().unwrap().view.members;
        assert!(degraded < 60);

        // The DHT detects the failure and drops the member; SOMO is a pure
        // function of the ring, so the rebuilt tree covers all survivors.
        let dead_id = ring.member(30).id;
        ring.remove_id(dead_id).unwrap();
        let tree2 = SomoTree::build(&ring, 8);
        let mut sim2 = GatherSim::new(
            &tree2,
            &ring,
            FlowMode::Synchronized,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim2.run_until(SimTime::from_secs(30));
        assert_eq!(sim2.views().last().unwrap().view.members, 59);
    }
}
