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

/// A `u32` that names nothing: the slot of a leaf no member reports
/// through, the report of a partial with nothing to report, the end of a
/// chain of open rounds.
const NONE: u32 = u32::MAX;

/// A gather event: 16 bytes whatever the report type, because a partial's
/// report waits in [`GatherSim::in_flight`] rather than in the queue.
#[derive(Clone, Copy)]
enum Ev {
    /// Unsync: a logical node's periodic timer.
    NodeTimer(u32),
    /// Sync: the root's round timer.
    RootTimer,
    /// Sync: a request arriving at a logical node.
    Request { node: u32, round: u32 },
    /// A partial from logical node `from` arriving at its parent (a node
    /// has one parent, so the sender names the receiver too). `report` is
    /// its slot in [`GatherSim::in_flight`], or [`NONE`] when the child
    /// subtree had nothing to report (a non-canonical leaf). Sync mode
    /// dedups repeated partials per sender, unsync mode keys its
    /// latest-partial cache by it; unsync partials are of round 0.
    Partial { from: u32, round: u32, report: u32 },
    /// Sync: give up waiting for this round's remaining children and send
    /// what has been accumulated (self-healing under member failure).
    Timeout { node: u32, round: u32 },
}

/// A table whose entries come and go: a freed slot is reused before the
/// table grows.
struct Slab<T> {
    items: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Slab<T> {
    fn new() -> Self {
        Slab {
            items: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `item`; returns its slot.
    fn insert(&mut self, item: T) -> u32 {
        match self.free.pop() {
            Some(at) => {
                self.items[at as usize] = item;
                at
            }
            None => {
                self.items.push(item);
                u32::try_from(self.items.len() - 1).expect("a slab holds under 2^32 items")
            }
        }
    }

    /// Take the item out of slot `at` and free the slot.
    fn remove(&mut self, at: u32) -> T {
        self.free.push(at);
        std::mem::take(&mut self.items[at as usize])
    }
}

/// One open round at an internal node (sync mode): its number, the
/// running partial, and the next round open at the same node (or
/// [`NONE`]). Which children answered is in [`GatherSim::seen`].
struct OpenRound<R> {
    round: u32,
    next: u32,
    acc: Option<R>,
}

impl<R> Default for OpenRound<R> {
    fn default() -> Self {
        OpenRound {
            round: 0,
            next: NONE,
            acc: None,
        }
    }
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
    queue: EventQueue<Ev>,
    /// Per logical node, one word: a leaf's reporting member — set for a
    /// member's canonical leaf, [`NONE`] on every other leaf — or an
    /// internal node's rank among the internal nodes, in index order.
    slot: Vec<u32>,
    /// The reports of the partials in flight.
    in_flight: Slab<Option<R>>,
    /// Unsync mode: the latest partial each logical node sent up, indexed
    /// by the *sender* (a node has one parent, so the entry is
    /// unambiguous), stamped with its arrival time so stale entries (a
    /// crashed child) age out after a few periods. A parent folds its
    /// `children`'s entries in tree order. Only a node that can send a
    /// report has an entry: a canonical leaf at its member's index, an
    /// internal node after every member's, at its rank. Empty in sync mode.
    latest: Vec<Option<(SimTime, R)>>,
    /// Sync mode: per internal node (by rank), the first of the rounds open
    /// there — one, or a few when the child timeout spans several periods
    /// — as a slot of `open`, or [`NONE`]. Empty in unsync mode.
    heads: Vec<u32>,
    /// Sync mode: every open round.
    open: Slab<OpenRound<R>>,
    /// Sync mode: which children have already been folded into each open
    /// round (dedup per sender): `seen_words` words per slot of `open`, one
    /// bit per child position.
    seen: Vec<u64>,
    seen_words: usize,
    views: Vec<RootView<R>>,
    messages: u64,
    round_ctr: u32,
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
        let n = tree.len();
        let mut slot = vec![NONE; n];
        let (mut internal, mut widest) = (0u32, 0);
        for (i, node) in tree.nodes().iter().enumerate() {
            if !node.is_leaf() {
                slot[i] = internal;
                internal += 1;
                widest = widest.max(node.children().len());
            }
        }
        // Canonical reporting leaf per member: the leaf whose region
        // contains the member's own ID. The leaf's host is the member
        // itself or its ring successor; in the latter case the member's
        // report costs one extra (cheap, ring-neighbor) fetch hop.
        for m in 0..ring.len() {
            let leaf = tree.canonical_leaf_of(ring.member(m).id) as usize;
            debug_assert!(slot[leaf] == NONE, "two members share a canonical leaf");
            slot[leaf] = u32::try_from(m).expect("ring members number under 2^32");
        }

        let mut queue = EventQueue::new();
        let (mut latest, mut heads) = (Vec::new(), Vec::new());
        match mode {
            FlowMode::Unsynchronized => {
                latest.resize_with(ring.len() + internal as usize, || None);
                // Stagger timers deterministically across the first period.
                let p = period.as_micros().max(1);
                for i in 0..n as u32 {
                    let jitter =
                        SimTime::from_micros(simcore::rng::derive_seed(0x50_50, i as u64) % p);
                    queue.schedule(jitter, Ev::NodeTimer(i));
                }
            }
            FlowMode::Synchronized => {
                heads = vec![NONE; internal as usize];
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
            slot,
            in_flight: Slab::new(),
            latest,
            heads,
            open: Slab::new(),
            seen: Vec::new(),
            seen_words: widest.div_ceil(64),
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

    fn handle(&mut self, now: SimTime, ev: Ev) {
        // A crashed host neither fires timers nor receives messages.
        let at_node = match ev {
            Ev::NodeTimer(i) => Some(i),
            Ev::Request { node, .. } | Ev::Timeout { node, .. } => Some(node),
            Ev::Partial { from, .. } => Some(self.parent_of(from)),
            Ev::RootTimer => None,
        };
        if let Some(i) = at_node {
            if self.dead[self.tree.nodes()[i as usize].host()] {
                match ev {
                    // Keep unsync timers parked so a later revive would be
                    // easy.
                    Ev::NodeTimer(i) => self.queue.schedule_after(self.period, Ev::NodeTimer(i)),
                    Ev::Partial { report, .. } => {
                        self.land(report);
                    }
                    _ => {}
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
                self.round_ctr = self
                    .round_ctr
                    .checked_add(1)
                    .expect("a gather runs fewer than 2^32 rounds");
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
                    self.open_round_at(node, round);
                    let expected = self.live_children(node) as u32;
                    self.tracer.emit(now, || TraceEvent::GatherOpen {
                        node,
                        round: u64::from(round),
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
                        .emit(now, || TraceEvent::GatherTimeoutSuppressed {
                            node,
                            round: u64::from(round),
                        });
                    return;
                };
                // Children that never answered are presumed crashed; send
                // what we have so the round still completes.
                self.stats.rounds_timeout += 1;
                let received = self.answered(open);
                let expected = self.live_children(node) as u32;
                self.tracer.emit(now, || TraceEvent::GatherClose {
                    node,
                    round: u64::from(round),
                    received,
                    expected,
                    reason: CloseReason::Timeout,
                });
                let acc = self.close_round(node, open);
                self.emit_to_parent_after(node, round, acc, SimTime::ZERO);
            }
            Ev::Partial {
                from,
                round,
                report,
            } => {
                let r = self.land(report);
                match self.mode {
                    FlowMode::Unsynchronized => {
                        // One entry per sending child, so a parent keeps one
                        // latest partial per subtree.
                        if let Some(r) = r {
                            let at = self
                                .latest_index(from)
                                .expect("only a node with a `latest` entry sends a report");
                            self.latest[at] = Some((now, r));
                        }
                    }
                    FlowMode::Synchronized => {
                        let node = self.parent_of(from);
                        // Live children only: a host that crashed mid-round
                        // will never answer, so waiting for its partial would
                        // stall the round all the way to the timeout.
                        let expected = self.live_children(node);
                        // The round may already be closed by a timeout; late
                        // partials are then dropped.
                        let Some(open) = self.open_round(node, round) else {
                            return;
                        };
                        let child =
                            (from - self.tree.nodes()[node as usize].children().start) as usize;
                        let word = &mut self.seen[open as usize * self.seen_words + child / 64];
                        let bit = 1u64 << (child % 64);
                        if *word & bit != 0 {
                            self.stats.partials_deduped += 1;
                            self.tracer.emit(now, || TraceEvent::GatherDuplicate {
                                node,
                                round: u64::from(round),
                                from,
                            });
                            return;
                        }
                        *word |= bit;
                        match (&mut self.open.items[open as usize].acc, r) {
                            (Some(acc), Some(r)) => acc.merge(&r),
                            (slot @ None, Some(r)) => *slot = Some(r),
                            (_, None) => {}
                        }
                        let received = self.answered(open);
                        self.tracer.emit(now, || TraceEvent::GatherPartial {
                            node,
                            round: u64::from(round),
                            from,
                        });
                        // `>=`, not `==`: if the live-child set shrank after
                        // some children already answered, the count can step
                        // past the target — the round must still close rather
                        // than limp to its timeout.
                        if received as usize >= expected {
                            self.stats.rounds_completed += 1;
                            self.tracer.emit(now, || TraceEvent::GatherClose {
                                node,
                                round: u64::from(round),
                                received,
                                expected: expected as u32,
                                reason: CloseReason::Completed,
                            });
                            let acc = self.close_round(node, open);
                            self.emit_to_parent_after(node, round, acc, SimTime::ZERO);
                        }
                    }
                }
            }
        }
    }

    /// The parent of a logical node that sends partials.
    fn parent_of(&self, node: u32) -> u32 {
        self.tree.nodes()[node as usize]
            .parent()
            .expect("only a child sends a partial")
    }

    /// The report of a partial that arrived (or died with its receiver).
    fn land(&mut self, report: u32) -> Option<R> {
        if report == NONE {
            None
        } else {
            self.in_flight.remove(report)
        }
    }

    /// Where `node`'s entry of `latest` is, if it has one.
    fn latest_index(&self, node: u32) -> Option<usize> {
        let slot = self.slot[node as usize];
        if !self.tree.nodes()[node as usize].is_leaf() {
            Some(self.dead.len() + slot as usize)
        } else if slot != NONE {
            Some(slot as usize)
        } else {
            None
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
            // A child without an entry never sends a report.
            let Some(at) = self.latest_index(c) else {
                continue;
            };
            let entry = &mut self.latest[at];
            let Some((at, r)) = entry else { continue };
            if now.saturating_sub(*at) >= expiry {
                *entry = None;
                continue;
            }
            match &mut acc {
                Some(a) => a.merge(r),
                None => acc = Some(r.clone()),
            }
        }
        acc
    }

    /// Open `round` at internal node `node`, with no child answered yet.
    fn open_round_at(&mut self, node: u32, round: u32) {
        let rank = self.slot[node as usize] as usize;
        let next = self.heads[rank];
        let at = self.open.insert(OpenRound {
            round,
            next,
            acc: None,
        });
        self.heads[rank] = at;
        let words = at as usize * self.seen_words..(at as usize + 1) * self.seen_words;
        if self.seen.len() < words.end {
            self.seen.resize(words.end, 0);
        }
        self.seen[words].fill(0);
    }

    /// The slot of `open` holding `round` at `node`, if it is still open.
    fn open_round(&self, node: u32, round: u32) -> Option<u32> {
        let mut at = self.heads[self.slot[node as usize] as usize];
        while at != NONE {
            let buf = &self.open.items[at as usize];
            if buf.round == round {
                return Some(at);
            }
            at = buf.next;
        }
        None
    }

    /// How many children the open round in slot `open` has folded in.
    fn answered(&self, open: u32) -> u32 {
        self.seen[open as usize * self.seen_words..][..self.seen_words]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Close the open round in slot `open` of `node`: its accumulated
    /// partial.
    fn close_round(&mut self, node: u32, open: u32) -> Option<R> {
        let next = self.open.items[open as usize].next;
        let rank = self.slot[node as usize] as usize;
        if self.heads[rank] == open {
            self.heads[rank] = next;
        } else {
            let mut at = self.heads[rank];
            while self.open.items[at as usize].next != open {
                at = self.open.items[at as usize].next;
            }
            self.open.items[at as usize].next = next;
        }
        self.open.remove(open).acc
    }

    /// The member whose canonical leaf is `node`, if any.
    fn member_reporting_at(&self, node: u32) -> Option<usize> {
        let slot = self.slot[node as usize];
        (slot != NONE && self.tree.nodes()[node as usize].is_leaf()).then_some(slot as usize)
    }

    /// A leaf's contribution: the hosting member's data if this is the
    /// member's canonical leaf, nothing otherwise (avoids double-counting
    /// members whose zone holds several leaves).
    fn leaf_report(&mut self, leaf: u32, now: SimTime) -> Option<R> {
        let member = self.member_reporting_at(leaf)?;
        Some((self.leaf_sample)(member, now))
    }

    fn emit_to_parent_after(&mut self, i: u32, round: u32, r: Option<R>, extra: SimTime) {
        let n = &self.tree.nodes()[i as usize];
        let my_host = n.host();
        match n.parent() {
            None => {
                // Root: record the fresh global view.
                if let Some(view) = r {
                    let at = self.queue.now() + extra;
                    self.tracer.emit(at, || TraceEvent::GatherRootView {
                        round: u64::from(round),
                    });
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
                let report = match r {
                    Some(r) => self.in_flight.insert(Some(r)),
                    None => NONE,
                };
                self.queue.schedule_after(
                    extra + hop,
                    Ev::Partial {
                        from: i,
                        round,
                        report,
                    },
                );
            }
        }
    }
}

/// `ceil(log_k N)`, the paper's level count, in integers: the smallest `L`
/// with `fanout^L ≥ max(n, 2)`. (A floating `log` overshoots at some exact
/// powers: 8⁷ = 2 097 152 would read 8 levels.)
///
/// # Panics
/// If `fanout < 2`, like [`SomoTree::build`].
pub fn levels(n: usize, fanout: usize) -> u64 {
    assert!(fanout >= 2, "SOMO fanout must be at least 2");
    let (n, mut reach, mut levels) = (n.max(2) as u128, 1u128, 0);
    while reach < n {
        reach *= fanout as u128;
        levels += 1;
    }
    levels
}

/// The paper's unsynchronized staleness bound: `ceil(log_k N) · T`.
pub fn unsync_staleness_bound(n: usize, fanout: usize, period: SimTime) -> SimTime {
    SimTime::from_micros(period.as_micros() * levels(n, fanout))
}

/// The paper's synchronized staleness bound: `T + 2·t_hop·log_k N`
/// (requests descend and partials ascend `log_k N` levels each).
pub fn sync_staleness_bound(n: usize, fanout: usize, t_hop: SimTime, period: SimTime) -> SimTime {
    period + SimTime::from_micros(2 * t_hop.as_micros() * levels(n, fanout))
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
    fn levels_are_exact_at_every_power() {
        for k in 2..=16usize {
            let mut power = k;
            for e in 1u64.. {
                assert_eq!(levels(power, k), e, "{k}^{e}");
                assert_eq!(levels(power - 1, k), e, "{k}^{e} - 1");
                assert_eq!(levels(power + 1, k), e + 1, "{k}^{e} + 1");
                let Some(next) = power.checked_mul(k) else {
                    break;
                };
                power = next;
            }
        }
        // §3.2's "2M nodes, k = 8" at its exact power, and N ≤ 2.
        assert_eq!(levels(2_097_152, 8), 7);
        assert_eq!((levels(0, 8), levels(1, 8), levels(2, 8)), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "SOMO fanout must be at least 2")]
    fn levels_need_a_fanout_of_two() {
        levels(8, 1);
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
