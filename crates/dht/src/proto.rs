//! Message-level ring maintenance protocol on the discrete-event simulator.
//!
//! §3.1: "each node records r neighbors to each side in the rudimentary
//! routing table that is commonly known as leaf-set. Neighbors exchange
//! heartbeats to keep their routing tables current, updating their routing
//! tables when node join/leave events occur."
//!
//! [`DhtSim`] simulates exactly that: every node runs a periodic heartbeat
//! timer, heartbeats carry the sender's leafset (gossip), receivers adopt
//! the gossiped peers that would enter their own leafset and expire
//! members they have not heard from (directly or via gossip) within a
//! timeout. Only a leafset member that stays silent is expelled — certified
//! dead — so on a fabric that loses nothing an expulsion means a death
//! ([`DhtSim::false_expels`] counts the others). The simulation exposes
//! each node's *believed* leafset so tests can measure convergence and
//! self-healing — the property SOMO inherits from the hosting DHT.
//!
//! Message latency comes from any function of the two endpoint hosts, so the
//! protocol can run over the `netsim` oracle or a constant-delay fabric.

use netsim::HostId;
use simcore::audit::{AuditCtx, Auditor, InvariantSet};
use simcore::trace::{TraceEvent, TraceRecord, Tracer};
use simcore::{EventQueue, FaultPlan, FaultyLink, SimTime};

use crate::id::NodeId;
use crate::ring::{Member, Ring};

/// Heartbeat period: how often every live node's timer fires.
const HEARTBEAT: SimTime = SimTime::from_secs(5);

/// Protocol timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProtoConfig {
    /// A member not heard from for this long is declared dead.
    pub timeout: SimTime,
    /// Leafset radius (r neighbors per side).
    pub leafset_r: usize,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            timeout: SimTime::from_secs(16),
            leafset_r: 4,
        }
    }
}

/// A peer, named by its node index (its position in [`DhtSim`]'s node
/// tables): four bytes where its [`NodeId`] takes eight. Whatever holds
/// peers in ID order compares them through [`DhtSim::ids`].
type Peer = u32;

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Periodic heartbeat timer for a node. The epoch guards against
    /// duplicate timer chains across kill/revive cycles: a timer scheduled
    /// before a crash is stale once the node restarts.
    Timer { node: u32, epoch: u32 },
    /// A heartbeat or its acknowledgment arriving at `to`, sent by `from`.
    Deliver {
        to: u32,
        from: u32,
        /// The sender's leafset and the sender itself at send time: a
        /// payload of [`DhtSim::payloads`], shared by every target of a
        /// heartbeat fan-out.
        payload: u32,
        /// Acks do not trigger further replies (no ping-pong).
        ack: bool,
    },
}

/// Smallest row the slab hands out.
const MIN_ROW: u16 = 4;

/// Handle on one row of a [`PeerSlab`]: where it starts, how many entries
/// it holds and how many it has room for (zero, or a power of two).
#[derive(Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u16,
    cap: u16,
}

impl Row {
    /// Where the row's entries are in the slab.
    fn span(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + usize::from(self.len)
    }
}

/// Every node's views and death certificates: power-of-two rows of `(peer,
/// time)` entries — in a view, the last evidence the peer was alive; in a
/// set of death certificates, when the certificate lapses. A row is in
/// peer-ID order — a leafset's worth of entries, and for a while after a
/// join a displaced peer or two, so a sorted run serves as the ordered
/// map.
///
/// The entries are two parallel columns, because a `(u32, SimTime)` pair
/// pads to 16 bytes where the two columns hold 12. A full row moves to a
/// row of twice the capacity and leaves its old one on that capacity's
/// free list for the next row that grows into it; the simulator holds one
/// allocation per column for all of them and gives both back whole when it
/// is dropped.
#[derive(Default)]
struct PeerSlab {
    peers: Vec<Peer>,
    times: Vec<SimTime>,
    /// `free[c]`: starts of the unused rows of capacity `1 << c`.
    free: Vec<Vec<u32>>,
}

impl PeerSlab {
    /// The peers of a row, in ID order.
    fn peers(&self, row: Row) -> &[Peer] {
        &self.peers[row.span()]
    }

    /// The times of a row, in the order of its peers.
    fn times(&self, row: Row) -> &[SimTime] {
        &self.times[row.span()]
    }

    /// Where `id` is in the row, or where it would go. `ids` names every
    /// peer.
    fn find(&self, row: Row, id: NodeId, ids: &[NodeId]) -> Result<usize, usize> {
        self.peers(row)
            .binary_search_by_key(&id, |&peer| ids[peer as usize])
    }

    fn contains(&self, row: Row, id: NodeId, ids: &[NodeId]) -> bool {
        self.find(row, id, ids).is_ok()
    }

    /// A new row holding `sorted` (which is in ID order).
    fn row_of(&mut self, sorted: &[(Peer, SimTime)]) -> Row {
        let mut row = Row::default();
        if !sorted.is_empty() {
            row.cap = row_cap(sorted.len());
            row.start = self.take(row.cap);
            row.len = sorted.len() as u16;
            let at = row.start as usize;
            for (k, &(peer, t)) in sorted.iter().enumerate() {
                self.peers[at + k] = peer;
                self.times[at + k] = t;
            }
        }
        row
    }

    /// An unused row of capacity `cap`: one off the free list, or new
    /// entries at the end of the slab.
    fn take(&mut self, cap: u16) -> u32 {
        if let Some(start) = self
            .free
            .get_mut(cap.trailing_zeros() as usize)
            .and_then(Vec::pop)
        {
            return start;
        }
        let start = u32::try_from(self.peers.len()).expect("the slab holds under 2^32 entries");
        let end = self.peers.len() + usize::from(cap);
        self.peers.resize(end, 0);
        self.times.resize(end, SimTime::ZERO);
        start
    }

    /// Move a full row to one of twice its capacity.
    fn grow(&mut self, row: &mut Row) {
        let cap = match row.cap {
            0 => MIN_ROW,
            cap => row_cap(usize::from(cap) * 2),
        };
        let start = self.take(cap);
        self.peers.copy_within(row.span(), start as usize);
        self.times.copy_within(row.span(), start as usize);
        self.release(*row);
        row.start = start;
        row.cap = cap;
    }

    /// Put a row nobody refers to any more on its capacity's free list.
    fn release(&mut self, row: Row) {
        if row.cap > 0 {
            let class = row.cap.trailing_zeros() as usize;
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push(row.start);
        }
    }

    /// Insert `(peer, t)` at position `i` of the row.
    fn insert(&mut self, row: &mut Row, i: usize, peer: Peer, t: SimTime) {
        if row.len == row.cap {
            self.grow(row);
        }
        let at = row.start as usize + i;
        let tail = at..row.span().end;
        self.peers.copy_within(tail.clone(), at + 1);
        self.times.copy_within(tail, at + 1);
        self.peers[at] = peer;
        self.times[at] = t;
        row.len += 1;
    }

    /// Insert `peer`, or overwrite its time.
    fn set(&mut self, row: &mut Row, peer: Peer, t: SimTime, ids: &[NodeId]) {
        match self.find(*row, ids[peer as usize], ids) {
            Ok(i) => self.times[row.start as usize + i] = t,
            Err(i) => self.insert(row, i, peer, t),
        }
    }

    fn remove(&mut self, row: &mut Row, peer: Peer, ids: &[NodeId]) {
        if let Ok(i) = self.find(*row, ids[peer as usize], ids) {
            let at = row.start as usize + i;
            let tail = at + 1..row.span().end;
            self.peers.copy_within(tail.clone(), at);
            self.times.copy_within(tail, at);
            row.len -= 1;
        }
    }

    /// Keep the entries `keep` accepts, in order.
    fn retain(&mut self, row: &mut Row, mut keep: impl FnMut(Peer, SimTime) -> bool) {
        let mut kept = row.start as usize;
        for i in row.span() {
            let (peer, t) = (self.peers[i], self.times[i]);
            if keep(peer, t) {
                self.peers[kept] = peer;
                self.times[kept] = t;
                kept += 1;
            }
        }
        row.len = (kept - row.start as usize) as u16;
    }
}

/// The capacity of a row that holds `len` entries.
///
/// # Panics
/// Past 32 768 entries: a row's length and capacity are 16-bit.
fn row_cap(len: usize) -> u16 {
    u16::try_from(len.next_power_of_two())
        .expect("a view or a certificate list holds at most 32 768 peers")
        .max(MIN_ROW)
}

/// The gossip payloads in flight, back to back in one buffer. A payload is
/// two header words — how many scheduled deliveries still refer to it, and
/// how many peers it names — followed by those peers. A payload no delivery
/// refers to any more leaves its run on the free list of its length, for
/// the next payload of that length, so steady-state heartbeats allocate
/// nothing.
#[derive(Default)]
struct Payloads {
    words: Vec<u32>,
    /// `free[len]`: starts of the unused runs that hold `len` peers.
    free: Vec<Vec<u32>>,
}

impl Payloads {
    /// Store `peers` as a payload no delivery refers to yet; returns its
    /// handle. [`Payloads::settle`] frees it if no delivery takes it up.
    fn put(&mut self, peers: &[Peer]) -> u32 {
        let len = peers.len();
        let at = match self.free.get_mut(len).and_then(Vec::pop) {
            Some(at) => at,
            None => {
                let at = u32::try_from(self.words.len()).expect("payloads hold under 2^32 words");
                self.words.resize(self.words.len() + 2 + len, 0);
                at
            }
        };
        let run = &mut self.words[at as usize..][..2 + len];
        run[0] = 0;
        run[1] = len as u32;
        run[2..].copy_from_slice(peers);
        at
    }

    /// The peers of payload `at`.
    fn peers(&self, at: u32) -> &[Peer] {
        let at = at as usize;
        &self.words[at + 2..][..self.words[at + 1] as usize]
    }

    /// One more scheduled delivery refers to payload `at`.
    fn hold(&mut self, at: u32) {
        self.words[at as usize] += 1;
    }

    /// A delivery of payload `at` is done with it.
    fn release(&mut self, at: u32) {
        self.words[at as usize] -= 1;
        self.settle(at);
    }

    /// Free payload `at` if no delivery refers to it.
    fn settle(&mut self, at: u32) {
        let run = &self.words[at as usize..];
        if run[0] == 0 {
            let len = run[1] as usize;
            if self.free.len() <= len {
                self.free.resize_with(len + 1, Vec::new);
            }
            self.free[len].push(at);
        }
    }
}

struct ProtoNode {
    host: HostId,
    /// Incremented on every kill and revive; stale timers are dropped.
    epoch: u32,
    /// Known peers → last time we heard evidence they were alive: a row of
    /// [`DhtSim::peers`].
    view: Row,
    /// Death certificates: leafset peers we expelled — heartbeated and
    /// silent for the timeout — with the time the tombstone lapses; a row
    /// of [`DhtSim::peers`], empty until a peer dies or the fault plan
    /// drops its answers. Gossip cannot resurrect a tombstoned peer — only
    /// direct evidence (a message from the peer itself) clears it. Without
    /// this, the dead peer's other neighbours, which expel it a heartbeat
    /// or two later, keep gossiping it back into our leafset. A peer that
    /// times out beyond the leafset is forgotten without a certificate:
    /// nobody was heartbeating it, so its silence proves nothing.
    tombstones: Row,
    /// Last-resort probe targets for when the view empties out (e.g. a
    /// partition long enough to expire every peer): the node's configured
    /// contacts, `fallback_len` peers at `fallback_at` in
    /// [`DhtSim::fallback`]. Without this a fully-isolated node maroons
    /// itself forever even after the network heals.
    fallback_at: u32,
    fallback_len: u16,
    alive: bool,
}

/// Write the *believed* leafset of the node with ID `my`, whose view is
/// `peers`, into `out` (cleared first): the r nearest view entries on the
/// successor side, nearest first, then those on the predecessor side that
/// the first walk did not already reach. The order is the heartbeat send
/// order.
fn leafset_into(my: NodeId, peers: &[Peer], ids: &[NodeId], r: usize, out: &mut Vec<Peer>) {
    out.clear();
    let n = peers.len();
    // Our own position among the peers (we are not in our own view).
    let pos = peers.partition_point(|&peer| ids[peer as usize] < my);
    let take = r.min(n);
    for k in 0..take {
        out.push(peers[(pos + k) % n]);
    }
    for k in 1..=take {
        let peer = peers[(pos + n - k) % n];
        if !out.contains(&peer) {
            out.push(peer);
        }
    }
}

/// Whether a peer that would go in at position `at` of `view` (in ID
/// order) would be one of the `r` nearest entries on either side of the
/// node `my`: the rule for adopting a peer from gossip. A view of fewer
/// than `2r` entries takes any peer, because one side then holds fewer
/// than `r`.
fn in_range(my: NodeId, at: usize, view: &[Peer], ids: &[NodeId], r: usize) -> bool {
    let n = view.len();
    let me = view.partition_point(|&peer| ids[peer as usize] < my);
    // View entries clockwise strictly between `my` and the peer; the rest
    // lie between the peer and `my`. (When both fall in the same gap of
    // the view, the peer is adjacent to `my` on one side or the other.)
    let between = (at + n - me) % n.max(1);
    between < r || n - between < r
}

/// The simulated ring-maintenance protocol.
pub struct DhtSim<D: Fn(HostId, HostId) -> SimTime> {
    nodes: Vec<ProtoNode>,
    /// Every node's ID, by node index: what orders a row of peers. IDs are
    /// unique: a [`Ring`] rejects duplicates and so do [`DhtSim::join`] /
    /// [`DhtSim::join_via_lookup`].
    ids: Vec<NodeId>,
    /// Every node's view and death certificates.
    peers: PeerSlab,
    /// Every node's fallback contacts, back to back. A node's run never
    /// grows: it starts as the initial view (one slot at least) and a
    /// restart overwrites it with the one contact it re-bootstraps from.
    fallback: Vec<Peer>,
    /// Peers the running `expire` found timed out, in view order.
    expired: Vec<Peer>,
    /// The leafset the running heartbeat or ack carries.
    leafset: Vec<Peer>,
    /// The gossip of every message in flight.
    payloads: Payloads,
    queue: EventQueue<Event>,
    cfg: ProtoConfig,
    delay: D,
    faults: FaultyLink,
    messages: u64,
    /// Expulsions of a peer that was alive at that instant.
    false_expels: u64,
    tracer: Tracer,
}

impl<D: Fn(HostId, HostId) -> SimTime> DhtSim<D> {
    /// Create a simulation where every node starts knowing its true leafset
    /// (as it would after a correct join protocol). Heartbeat timers are
    /// staggered across the first period so the network does not fire in
    /// lockstep. Every message is threaded through the fault plan
    /// (endpoints are labeled by `HostId`); [`FaultPlan::none`] gives a
    /// perfect fabric.
    pub fn with_faults(ring: &Ring, cfg: ProtoConfig, delay: D, plan: FaultPlan) -> Self {
        let mut sim = DhtSim {
            nodes: Vec::with_capacity(ring.len()),
            ids: Vec::with_capacity(ring.len()),
            peers: PeerSlab::default(),
            fallback: Vec::new(),
            expired: Vec::new(),
            leafset: Vec::new(),
            payloads: Payloads::default(),
            queue: EventQueue::new(),
            cfg,
            delay,
            faults: FaultyLink::new(plan),
            messages: 0,
            false_expels: 0,
            tracer: Tracer::disabled(),
        };
        let period = HEARTBEAT.as_micros();
        let mut view: Vec<(Peer, SimTime)> = Vec::new();
        for i in 0..ring.len() {
            // Node `j` is ring member `j`.
            view.clear();
            view.extend(
                ring.leafset(i, cfg.leafset_r)
                    .into_iter()
                    .map(|j| (j as Peer, SimTime::ZERO)),
            );
            view.sort_unstable_by_key(|&(j, _)| ring.member(j as usize).id);
            let jitter = SimTime::from_micros(simcore::rng::derive_seed(0xBEA7, i as u64) % period);
            sim.add_node(ring.member(i), &view, jitter);
        }
        sim
    }

    /// Append a live node with the initial `view` (in ID order), which is
    /// also its `fallback` contacts, and start its heartbeat timer at
    /// absolute time `first_timer` (clamped to now). Returns its index.
    fn add_node(
        &mut self,
        member: Member,
        view: &[(Peer, SimTime)],
        first_timer: SimTime,
    ) -> usize {
        let idx = self.nodes.len();
        let fallback_at =
            u32::try_from(self.fallback.len()).expect("fallback contacts number under 2^32");
        self.fallback.extend(view.iter().map(|&(peer, _)| peer));
        if view.is_empty() {
            // The slot a restart writes its contact into.
            self.fallback.push(idx as Peer);
        }
        self.ids.push(member.id);
        self.nodes.push(ProtoNode {
            host: member.host,
            epoch: 0,
            view: self.peers.row_of(view),
            tombstones: Row::default(),
            fallback_at,
            fallback_len: view.len() as u16,
            alive: true,
        });
        self.queue.schedule(
            first_timer,
            Event::Timer {
                node: idx as u32,
                epoch: 0,
            },
        );
        idx
    }

    /// Attach a tracer: heartbeat fan-outs ([`TraceEvent::DhtHeartbeat`])
    /// and view expulsions ([`TraceEvent::DhtExpel`]) are recorded on the
    /// simulated clock. The default is [`Tracer::disabled`] (zero cost).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drain the attached tracer's buffered records (empty when untraced,
    /// `None` when a custom sink owns them — drain that sink instead).
    pub fn take_trace(&mut self) -> Option<Vec<TraceRecord>> {
        self.tracer.take_records()
    }

    /// Kill a node (it stops heartbeating and acking immediately).
    pub fn kill(&mut self, node: usize) {
        self.nodes[node].alive = false;
        self.nodes[node].epoch += 1;
    }

    /// Restart a crashed node. It comes back amnesiac — its view is wiped
    /// and reseeded with `contact` only (a restarted process re-bootstraps
    /// from a configured contact), keeping its old ID and host. Gossip and
    /// the heartbeat/ack exchange re-integrate it; direct heartbeats clear
    /// the tombstones its neighbors hold for it.
    ///
    /// # Panics
    /// If the node is still alive, or if it is its own `contact`: a node
    /// holding its own ID in its view heartbeats itself and never
    /// converges.
    pub fn revive(&mut self, node: usize, contact: usize) {
        assert!(!self.nodes[node].alive, "revive() on a live node");
        assert!(node != contact, "revive() through the node itself");
        let now = self.queue.now();
        let n = &mut self.nodes[node];
        n.alive = true;
        n.epoch += 1;
        n.view.len = 0;
        n.tombstones.len = 0;
        self.peers.set(&mut n.view, contact as Peer, now, &self.ids);
        self.fallback[n.fallback_at as usize] = contact as Peer;
        n.fallback_len = 1;
        let epoch = n.epoch;
        self.queue.schedule_after(
            SimTime::ZERO,
            Event::Timer {
                node: node as u32,
                epoch,
            },
        );
    }

    /// Add a fresh node that initially knows only `contact`. Returns its
    /// index.
    ///
    /// Gossip alone integrates the joiner over a few heartbeat rounds; see
    /// [`DhtSim::join_via_lookup`] for the full join protocol.
    ///
    /// # Panics
    /// If a node with `member.id` is already simulated (alive or dead):
    /// messages are addressed by ID, so none could ever reach the second
    /// holder.
    pub fn join(&mut self, member: Member, contact: usize) -> usize {
        self.assert_not_simulated(member.id);
        let now = self.queue.now();
        self.add_node(member, &[(contact as Peer, now)], now)
    }

    /// The standard join protocol: route a lookup for the joiner's own ID
    /// from `contact`; the owner found is the joiner's future successor,
    /// and its view (which brackets the joiner's zone) seeds the joiner's
    /// leafset. Converges in one heartbeat round instead of several
    /// gossip rounds. Returns the new node's index, or `None` while the
    /// overlay is too broken to route.
    ///
    /// # Panics
    /// If a node with `member.id` is already simulated, like
    /// [`DhtSim::join`].
    pub fn join_via_lookup(&mut self, member: Member, contact: usize) -> Option<usize> {
        self.assert_not_simulated(member.id);
        let (owner, _) = self.route(contact, member.id)?;
        let now = self.queue.now();
        // The owner is not in its own view: add it, the joiner's direct
        // evidence. (The joiner is in no view: it is not simulated yet.)
        let mut known = self.peers.peers(self.nodes[owner].view).to_vec();
        let owner_id = self.ids[owner];
        let at = known.partition_point(|&peer| self.ids[peer as usize] < owner_id);
        known.insert(at, owner as Peer);
        // Gossip's rule: keep what would be the joiner's leafset, and
        // adopt it half-stale, so that each peer must confirm itself
        // exactly like a gossip-learned entry.
        let mut leafset = Vec::new();
        leafset_into(
            member.id,
            &known,
            &self.ids,
            self.cfg.leafset_r,
            &mut leafset,
        );
        let stale = now.saturating_sub(self.half_timeout());
        let view: Vec<(Peer, SimTime)> = known
            .into_iter()
            .filter(|peer| leafset.contains(peer))
            .map(|peer| (peer, if peer == owner as Peer { now } else { stale }))
            .collect();
        Some(self.add_node(member, &view, now))
    }

    /// A joiner's ID must be new: a [`Ring`] holds no duplicates either.
    fn assert_not_simulated(&self, id: NodeId) {
        assert!(
            !self.ids.contains(&id),
            "node ID {id:?} is already simulated"
        );
    }

    /// Run the simulation until simulated time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.handle(now, ev);
        }
    }

    /// Half the detection timeout: how stale a gossip-learned entry starts
    /// out, so that it must confirm itself within the other half.
    fn half_timeout(&self) -> SimTime {
        SimTime::from_micros(self.cfg.timeout.as_micros() / 2)
    }

    /// Send a message through the fault layer: counts it as sent, schedules
    /// delivery unless the plan drops it.
    fn send(&mut self, from: u32, to: u32, payload: u32, ack: bool) {
        self.messages += 1;
        let from_host = self.nodes[from as usize].host;
        let to_host = self.nodes[to as usize].host;
        let base = (self.delay)(from_host, to_host);
        let now = self.queue.now();
        if let Some(d) = self
            .faults
            .transmit(from_host.0 as u64, to_host.0 as u64, now, base)
        {
            self.payloads.hold(payload);
            self.queue.schedule_after(
                d,
                Event::Deliver {
                    to,
                    from,
                    payload,
                    ack,
                },
            );
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Timer { node, epoch } => {
                let n = &self.nodes[node as usize];
                if !n.alive || n.epoch != epoch {
                    return; // dead nodes stop ticking; stale chains die out
                }
                self.expire(node as usize, now);
                // Heartbeat every current leafset member, carrying our view.
                // If the view has emptied out entirely (e.g. a partition long
                // enough to expire every peer), fall back to probing the
                // configured contacts so the node can rejoin once the network
                // heals instead of marooning itself.
                let n = &self.nodes[node as usize];
                let mut targets = std::mem::take(&mut self.leafset);
                let view = self.peers.peers(n.view);
                leafset_into(
                    self.ids[node as usize],
                    view,
                    &self.ids,
                    self.cfg.leafset_r,
                    &mut targets,
                );
                if targets.is_empty() {
                    let contacts =
                        &self.fallback[n.fallback_at as usize..][..usize::from(n.fallback_len)];
                    targets.extend(contacts.iter().copied().filter(|&peer| peer != node));
                }
                let fanout = targets.len();
                targets.push(node);
                let payload = self.payloads.put(&targets);
                self.tracer.emit(now, || TraceEvent::DhtHeartbeat {
                    node,
                    targets: fanout as u32,
                });
                for &to in &targets[..fanout] {
                    self.send(node, to, payload, false);
                }
                self.payloads.settle(payload);
                self.leafset = targets;
                self.queue
                    .schedule_after(HEARTBEAT, Event::Timer { node, epoch });
            }
            Event::Deliver {
                to,
                from,
                payload,
                ack,
            } => {
                if self.nodes[to as usize].alive {
                    self.receive(now, to, from, payload, ack);
                }
                self.payloads.release(payload);
            }
        }
    }

    /// A live node `to` takes in a heartbeat (or its ack) from `from`,
    /// carrying `payload`.
    fn receive(&mut self, now: SimTime, to: u32, from: u32, payload: u32, ack: bool) {
        let stale = now.saturating_sub(self.half_timeout());
        let (ids, peers) = (&self.ids, &mut self.peers);
        let n = &mut self.nodes[to as usize];
        // Direct evidence: the sender is alive now (and any death
        // certificate for it is void).
        peers.remove(&mut n.tombstones, from, ids);
        peers.set(&mut n.view, from, now, ids);
        // Gossip: adopt an unknown ID that would enter our leafset, with
        // "half-stale" evidence so it must confirm itself within
        // timeout/2 — this stops dead nodes from being resurrected by
        // stale gossip forever. A peer beyond the leafset is heartbeated
        // by nobody: adopted, it would only sit in the view until it
        // timed out.
        let (my, r) = (ids[to as usize], self.cfg.leafset_r);
        for &peer in self.payloads.peers(payload) {
            let id = ids[peer as usize];
            if peer == to || peers.contains(n.tombstones, id, ids) {
                continue;
            }
            if let Err(at) = peers.find(n.view, id, ids) {
                if in_range(my, at, peers.peers(n.view), ids, r) {
                    peers.insert(&mut n.view, at, peer, stale);
                }
            }
        }
        let view = n.view;
        // Acknowledge heartbeats (§4.1's heartbeat/ack exchange):
        // the reply keeps the *sender's* entry for us fresh even
        // when the sender is not in our own leafset — without this a
        // joiner heartbeating a distant contact would never hear
        // back and maroon itself.
        if !ack {
            let mut reply = std::mem::take(&mut self.leafset);
            leafset_into(
                self.ids[to as usize],
                self.peers.peers(view),
                &self.ids,
                self.cfg.leafset_r,
                &mut reply,
            );
            reply.push(to);
            let payload = self.payloads.put(&reply);
            self.leafset = reply;
            self.send(to, from, payload, true);
            self.payloads.settle(payload);
        }
    }

    fn expire(&mut self, node: usize, now: SimTime) {
        let timeout = self.cfg.timeout;
        let ProtoNode {
            mut view,
            mut tombstones,
            ..
        } = self.nodes[node];
        // Only leafset peers are heartbeated, and a live one answers each
        // heartbeat: silent for the timeout, it is expelled — certified
        // dead. A peer beyond the leafset, one a closer peer displaced, is
        // heartbeated by nobody, so its silence proves nothing: it is
        // forgotten.
        let watched = &mut self.leafset;
        leafset_into(
            self.ids[node],
            self.peers.peers(view),
            &self.ids,
            self.cfg.leafset_r,
            watched,
        );
        // Certificates live in the slab the view is being filtered in, so
        // the expired peers are certified once the view's row is settled.
        let expired = &mut self.expired;
        expired.clear();
        self.peers.retain(&mut view, |peer, last| {
            let alive = now.saturating_sub(last) < timeout;
            if !alive && watched.contains(&peer) {
                expired.push(peer);
            }
            alive
        });
        for &peer in expired.iter() {
            self.false_expels += u64::from(self.nodes[peer as usize].alive);
            self.peers
                .set(&mut tombstones, peer, now + timeout, &self.ids);
            let id = self.ids[peer as usize];
            self.tracer.emit(now, || TraceEvent::DhtExpel {
                node: node as u32,
                peer: id.0,
            });
        }
        self.peers.retain(&mut tombstones, |_, until| until > now);
        let n = &mut self.nodes[node];
        (n.view, n.tombstones) = (view, tombstones);
    }

    /// Resolve the owner of `key` by greedy clockwise routing over the
    /// nodes' **believed** views — the protocol-level lookup, as opposed to
    /// [`Ring::owner`]'s structural one. Returns `(owner_id, hops)`, or
    /// `None` if routing gets stuck (possible while views are healing).
    pub fn lookup(&self, from: usize, key: NodeId) -> Option<(NodeId, usize)> {
        self.route(from, key)
            .map(|(owner, hops)| (self.ids[owner], hops))
    }

    /// [`DhtSim::lookup`], naming the owner by its node index.
    fn route(&self, from: usize, key: NodeId) -> Option<(usize, usize)> {
        let id = |peer: Peer| self.ids[peer as usize];
        let mut cur = from;
        let mut hops = 0usize;
        loop {
            let node = &self.nodes[cur];
            if !node.alive {
                return None;
            }
            let my = self.ids[cur];
            let view = self.peers.peers(node.view);
            // Believed predecessor: the view member closest counter-
            // clockwise of me. I believe I own (pred, me].
            let pred = view
                .iter()
                .map(|&peer| id(peer))
                .min_by_key(|v| v.distance_cw(my))?;
            if crate::id::in_arc(pred, my, key) {
                return Some((cur, hops));
            }
            // Believed successor owns (me, succ].
            let succ = view
                .iter()
                .copied()
                .min_by_key(|&peer| my.distance_cw(id(peer)))?;
            if crate::id::in_arc(my, id(succ), key) {
                return Some((succ as usize, hops + 1));
            }
            // Otherwise forward to the view member making the most
            // clockwise progress without passing the key.
            let target = my.distance_cw(key);
            let next = view
                .iter()
                .copied()
                .filter(|&peer| {
                    let d = my.distance_cw(id(peer));
                    d > 0 && d <= target
                })
                .max_by_key(|&peer| my.distance_cw(id(peer)))? as usize;
            if next == cur {
                return None; // stuck
            }
            cur = next;
            hops += 1;
            if hops > self.nodes.len() {
                return None; // routing loop while views are inconsistent
            }
        }
    }

    /// The believed leafset of a node (IDs, both sides) as derived from
    /// its current view.
    pub fn believed_leafset(&self, node: usize) -> Vec<NodeId> {
        let mut leafset = Vec::new();
        let view = self.peers.peers(self.nodes[node].view);
        leafset_into(
            self.ids[node],
            view,
            &self.ids,
            self.cfg.leafset_r,
            &mut leafset,
        );
        leafset
            .iter()
            .map(|&peer| self.ids[peer as usize])
            .collect()
    }

    /// The ring of the nodes that are actually alive.
    fn live_ring(&self) -> Ring {
        Ring::from_members(
            (0..self.nodes.len())
                .filter(|&i| self.nodes[i].alive)
                .map(|i| self.member_of(i)),
        )
    }

    /// The leafset `id` has in `ring`, as sorted IDs.
    fn leafset_in(&self, ring: &Ring, id: NodeId) -> Vec<NodeId> {
        let idx = ring.index_of(id).expect("alive");
        let mut ids: Vec<NodeId> = ring
            .leafset(idx, self.cfg.leafset_r)
            .into_iter()
            .map(|j| ring.member(j).id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The true leafset of a node given who is actually alive.
    pub fn true_leafset(&self, node: usize) -> Vec<NodeId> {
        self.leafset_in(&self.live_ring(), self.ids[node])
    }

    /// Whether every live node's believed leafset matches the truth.
    pub fn converged(&self) -> bool {
        let ring = self.live_ring();
        let (mut leafset, mut believed) = (Vec::new(), Vec::new());
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .all(|i| {
                let view = self.peers.peers(self.nodes[i].view);
                leafset_into(
                    self.ids[i],
                    view,
                    &self.ids,
                    self.cfg.leafset_r,
                    &mut leafset,
                );
                believed.clear();
                believed.extend(leafset.iter().map(|&peer| self.ids[peer as usize]));
                believed.sort_unstable();
                believed == self.leafset_in(&ring, self.ids[i])
            })
    }

    /// Total messages sent so far (dropped ones included — they left the
    /// sender).
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    /// Messages the fault plan dropped so far.
    pub fn messages_dropped(&self) -> u64 {
        self.faults.dropped()
    }

    /// Expulsions so far whose peer was alive when it was expelled: each
    /// one a run of heartbeats or acks the fault plan dropped, since a
    /// live leafset peer answers every heartbeat.
    pub fn false_expels(&self) -> u64 {
        self.false_expels
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of simulated nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulation holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether node `i` is currently alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.nodes[i].alive
    }

    /// The ring member simulated at index `i`.
    pub fn member_of(&self, i: usize) -> Member {
        Member {
            id: self.ids[i],
            host: self.nodes[i].host,
        }
    }

    /// Whether node `i`'s current view still contains `id` — the signal the
    /// recovery pipeline polls to time failure detection and expulsion.
    pub fn view_contains(&self, i: usize, id: NodeId) -> bool {
        self.peers.contains(self.nodes[i].view, id, &self.ids)
    }

    /// The peers in node `i`'s current view, in ID order.
    pub fn view_ids(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.peers
            .peers(self.nodes[i].view)
            .iter()
            .map(|&peer| self.ids[peer as usize])
    }

    /// Whether node `i` currently holds a death certificate for `id`.
    pub fn tombstoned(&self, i: usize, id: NodeId) -> bool {
        self.peers.contains(self.nodes[i].tombstones, id, &self.ids)
    }

    /// Sample the ring/tombstone coherence invariants if the auditor is
    /// due. Returns whether a sample was taken.
    pub fn audit_sample(&self, auditor: &mut Auditor) -> bool {
        auditor.sample_due(&dht_invariants(), self, self.queue.now())
    }
}

/// The protocol's coherence invariants, checkable at any instant:
///
/// * **view-tombstone-disjoint** — a peer is never simultaneously believed
///   alive and certified dead; direct evidence voids the certificate, and
///   a certificate blocks gossip re-insertion.
/// * **self-absent-from-view** — a node never gossips itself into its own
///   view (the leafset derivation assumes it).
/// * **leafset-within-view** — the believed leafset is derived from the
///   view and nothing else.
/// * **tombstone-deadline-bounded** — every death certificate lapses within
///   one failure-detection timeout of its issue, so a wrongly-expelled but
///   live peer can always rejoin.
pub fn dht_invariants<D: Fn(HostId, HostId) -> SimTime>() -> InvariantSet<DhtSim<D>> {
    InvariantSet::new()
        .register("view-tombstone-disjoint", inv_view_tombstone_disjoint::<D>)
        .register("self-absent-from-view", inv_self_absent::<D>)
        .register("leafset-within-view", inv_leafset_within_view::<D>)
        .register("tombstone-deadline-bounded", inv_tombstone_bounded::<D>)
}

fn inv_view_tombstone_disjoint<D: Fn(HostId, HostId) -> SimTime>(
    s: &DhtSim<D>,
    ctx: &mut AuditCtx<'_>,
) {
    for (i, n) in s.nodes.iter().enumerate() {
        for id in s.view_ids(i) {
            ctx.check(!s.peers.contains(n.tombstones, id, &s.ids), || {
                format!("node {i} holds {id:?} in both view and tombstones")
            });
        }
    }
}

fn inv_self_absent<D: Fn(HostId, HostId) -> SimTime>(s: &DhtSim<D>, ctx: &mut AuditCtx<'_>) {
    for (i, n) in s.nodes.iter().enumerate() {
        ctx.check(!s.peers.contains(n.view, s.ids[i], &s.ids), || {
            format!("node {i} gossiped itself into its own view")
        });
    }
}

fn inv_leafset_within_view<D: Fn(HostId, HostId) -> SimTime>(
    s: &DhtSim<D>,
    ctx: &mut AuditCtx<'_>,
) {
    let mut leafset = Vec::new();
    for (i, n) in s.nodes.iter().enumerate() {
        let view = s.peers.peers(n.view);
        leafset_into(s.ids[i], view, &s.ids, s.cfg.leafset_r, &mut leafset);
        for &peer in &leafset {
            let id = s.ids[peer as usize];
            ctx.check(s.peers.contains(n.view, id, &s.ids), || {
                format!("node {i}'s believed leafset lists {id:?} outside its view")
            });
        }
    }
}

fn inv_tombstone_bounded<D: Fn(HostId, HostId) -> SimTime>(s: &DhtSim<D>, ctx: &mut AuditCtx<'_>) {
    let horizon = ctx.now() + s.cfg.timeout;
    for (i, n) in s.nodes.iter().enumerate() {
        let row = n.tombstones;
        for (&peer, &until) in s.peers.peers(row).iter().zip(s.peers.times(row)) {
            let id = s.ids[peer as usize];
            ctx.check(until <= horizon, || {
                format!("node {i}'s certificate for {id:?} outlives a detection timeout ({until})")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every row of the slab and every free row lies inside the slab, and
    /// no two of them share an entry.
    fn assert_rows_disjoint(slab: &PeerSlab, rows: &[Row]) {
        let mut spans: Vec<(usize, usize)> = rows
            .iter()
            .filter(|row| row.cap > 0)
            .map(|row| (row.start as usize, usize::from(row.cap)))
            .collect();
        for (class, starts) in slab.free.iter().enumerate() {
            spans.extend(
                starts
                    .iter()
                    .map(|&start| (start as usize, 1usize << class)),
            );
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "rows overlap: {pair:?}");
        }
        if let Some(&(start, cap)) = spans.last() {
            assert!(start + cap <= slab.peers.len());
        }
        // Nothing else was ever handed out: the rows tile the slab.
        assert_eq!(
            spans.iter().map(|&(_, cap)| cap).sum::<usize>(),
            slab.peers.len()
        );
        assert_eq!(slab.times.len(), slab.peers.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Six rows driven through every slab call next to a `BTreeMap`
        // each: a row that changes class (4 → 8 → … → 128 here) keeps its
        // entries, nobody else's, and the row it left is reused, not lost.
        // Peers are ordered by their IDs, which are not in peer order.
        #[test]
        fn prop_slab_rows_equal_their_map_models(
            ops in proptest::collection::vec((0u8..10, 0usize..6, 0u32..96, 1u64..1000), 0..600),
        ) {
            use std::collections::BTreeMap;
            let ids: Vec<NodeId> = (0..96).map(NodeId::hash_of).collect();
            let mut slab = PeerSlab::default();
            let mut rows = [Row::default(); 6];
            let mut models: Vec<BTreeMap<NodeId, (Peer, SimTime)>> = vec![BTreeMap::new(); 6];
            for (op, r, peer, t) in ops {
                let (id, t) = (ids[peer as usize], SimTime::from_micros(t));
                let (row, model) = (&mut rows[r], &mut models[r]);
                match op {
                    // Inserts outnumber the rest, so rows do grow.
                    0..=3 => {
                        slab.set(row, peer, t, &ids);
                        model.insert(id, (peer, t));
                    }
                    4 | 5 => {
                        if let Err(i) = slab.find(*row, id, &ids) {
                            slab.insert(row, i, peer, t);
                        }
                        model.entry(id).or_insert((peer, t));
                    }
                    6 => {
                        slab.remove(row, peer, &ids);
                        model.remove(&id);
                    }
                    7 => {
                        slab.retain(row, |_, at| at > t);
                        model.retain(|_, (_, at)| *at > t);
                    }
                    8 => {
                        // What a restart does to a node's rows.
                        row.len = 0;
                        model.clear();
                    }
                    _ => {
                        // A node joining with a ready-made view.
                        let mut view: Vec<(Peer, SimTime)> = (0..peer % 20).map(|k| (k * 3, t)).collect();
                        view.sort_unstable_by_key(|&(p, _)| ids[p as usize]);
                        let fresh = slab.row_of(&view);
                        slab.release(std::mem::replace(row, fresh));
                        *model = view.into_iter().map(|(p, at)| (ids[p as usize], (p, at))).collect();
                    }
                }
                prop_assert_eq!(slab.contains(*row, id, &ids), model.contains_key(&id));
            }
            for (row, model) in rows.iter().zip(&models) {
                let peers: Vec<Peer> = model.values().map(|&(p, _)| p).collect();
                let times: Vec<SimTime> = model.values().map(|&(_, at)| at).collect();
                prop_assert_eq!(slab.peers(*row), &peers[..]);
                prop_assert_eq!(slab.times(*row), &times[..]);
                prop_assert!(row.len <= row.cap);
                prop_assert!(row.cap == 0 || (row.cap.is_power_of_two() && row.cap >= MIN_ROW));
            }
            assert_rows_disjoint(&slab, &rows);
        }

        // The adoption rule is leafset membership: a peer is in range of a
        // view exactly when the view with it added has it in its leafset.
        #[test]
        fn prop_in_range_is_leafset_membership(
            picks in proptest::collection::vec(0u32..48, 0..24),
            me in 0u32..48,
            cand in 0u32..48,
            r in 1usize..5,
        ) {
            prop_assume!(me != cand);
            let ids: Vec<NodeId> = (0..48).map(NodeId::hash_of).collect();
            let mut view: Vec<Peer> = picks.into_iter().filter(|&p| p != me && p != cand).collect();
            view.sort_unstable_by_key(|&p| ids[p as usize]);
            view.dedup();
            let mut with = view.clone();
            with.push(cand);
            with.sort_unstable_by_key(|&p| ids[p as usize]);
            let mut leafset = Vec::new();
            leafset_into(ids[me as usize], &with, &ids, r, &mut leafset);
            let at = view.partition_point(|&p| ids[p as usize] < ids[cand as usize]);
            prop_assert_eq!(
                in_range(ids[me as usize], at, &view, &ids, r),
                leafset.contains(&cand)
            );
        }

        // Payloads put, held and released in any order: each reads back
        // what was put until its last delivery lets it go, and a freed run
        // is reused before the buffer grows.
        #[test]
        fn prop_payloads_read_back_until_released(
            ops in proptest::collection::vec((0u8..3, 0usize..40, 0u32..4), 0..400),
        ) {
            let mut payloads = Payloads::default();
            // (handle, peers, deliveries still holding it)
            let mut live: Vec<(u32, Vec<Peer>, u32)> = Vec::new();
            for (op, pick, n) in ops {
                match op {
                    0 => {
                        let peers: Vec<Peer> = (0..pick as u32 % 10).map(|k| k * 7 + n).collect();
                        let free_before = payloads.free.get(peers.len()).map_or(0, Vec::len);
                        let words = payloads.words.len();
                        let at = payloads.put(&peers);
                        if free_before > 0 {
                            prop_assert_eq!(payloads.words.len(), words, "a free run was not reused");
                        }
                        for _ in 0..n {
                            payloads.hold(at);
                        }
                        payloads.settle(at);
                        if n > 0 {
                            live.push((at, peers, n));
                        }
                    }
                    _ if !live.is_empty() => {
                        let k = pick % live.len();
                        payloads.release(live[k].0);
                        live[k].2 -= 1;
                        if live[k].2 == 0 {
                            live.swap_remove(k);
                        }
                    }
                    _ => {}
                }
                for (at, peers, _) in &live {
                    prop_assert_eq!(payloads.peers(*at), &peers[..]);
                }
            }
        }
    }

    fn sim(n: u32) -> DhtSim<impl Fn(HostId, HostId) -> SimTime> {
        let ring = Ring::with_random_ids((0..n).map(HostId), 17);
        DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            FaultPlan::none(),
        )
    }

    #[test]
    fn stable_ring_stays_converged() {
        let mut s = sim(32);
        assert!(s.converged(), "bootstrap views should be exact");
        s.run_until(SimTime::from_secs(60));
        assert!(s.converged(), "stable ring drifted");
        assert!(s.messages_sent() > 0);
    }

    #[test]
    fn a_peer_silent_for_exactly_the_timeout_is_expelled() {
        let mut s = sim(8);
        let timeout = s.cfg.timeout;
        let peer = *s
            .peers
            .peers(s.nodes[0].view)
            .first()
            .expect("a bootstrap view is never empty");
        let id = s.ids[peer as usize];
        let heard = SimTime::from_secs(5);
        let mut view = s.nodes[0].view;
        s.peers.set(&mut view, peer, heard, &s.ids);
        s.nodes[0].view = view;
        // One microsecond short of the timeout the peer is still alive...
        s.expire(0, heard + timeout - SimTime::from_micros(1));
        assert!(s.view_contains(0, id));
        assert!(!s.tombstoned(0, id));
        // ...and silent for exactly the timeout it is not.
        s.expire(0, heard + timeout);
        assert!(!s.view_contains(0, id), "the peer outlived its timeout");
        assert!(s.tombstoned(0, id), "an expelled peer is certified dead");
    }

    #[test]
    fn a_silent_peer_beyond_the_leafset_is_forgotten_not_certified() {
        let mut s = sim(32);
        // Heartbeats have refreshed every leafset entry.
        s.run_until(SimTime::from_secs(30));
        let now = s.now();
        let my = s.ids[0];
        // The peer farthest from node 0 either way: beyond its leafset.
        let far = (1..32u32)
            .max_by_key(|&p| {
                let id = s.ids[p as usize];
                my.distance_cw(id).min(id.distance_cw(my))
            })
            .expect("31 peers");
        let id = s.ids[far as usize];
        let mut view = s.nodes[0].view;
        s.peers.set(&mut view, far, now - s.cfg.timeout, &s.ids);
        s.nodes[0].view = view;
        assert!(!s.believed_leafset(0).contains(&id));
        s.expire(0, now);
        assert!(!s.view_contains(0, id), "the peer outlived its timeout");
        assert!(
            !s.tombstoned(0, id),
            "nobody heartbeated it: no certificate"
        );
        assert_eq!(s.false_expels(), 0);
    }

    #[test]
    fn failure_is_detected_and_leafsets_repair() {
        let mut s = sim(32);
        s.run_until(SimTime::from_secs(10));
        s.kill(5);
        assert!(!s.converged(), "victim still in neighbors' views");
        // After timeout + a couple of heartbeats, views must have healed:
        // the dead node expired everywhere and replacements discovered via
        // gossip.
        s.run_until(SimTime::from_secs(80));
        assert!(s.converged(), "leafsets did not repair after failure");
    }

    #[test]
    fn multiple_failures_repair() {
        let mut s = sim(48);
        s.run_until(SimTime::from_secs(10));
        s.kill(1);
        s.kill(2);
        s.kill(30);
        s.run_until(SimTime::from_secs(120));
        assert!(s.converged(), "leafsets did not repair after 3 failures");
    }

    #[test]
    fn join_via_lookup_integrates_faster_than_gossip() {
        let ring = Ring::with_random_ids((0..24u32).map(HostId), 19);
        let mk = || {
            DhtSim::with_faults(
                &ring,
                ProtoConfig::default(),
                |_a, _b| SimTime::from_millis(50),
                FaultPlan::none(),
            )
        };
        let member = Member {
            id: NodeId::hash_of(0xABCD),
            host: HostId(777),
        };
        // Lookup-based join: converged within ~2 heartbeat periods.
        let mut fast = mk();
        fast.run_until(SimTime::from_secs(10));
        fast.join_via_lookup(member, 0).expect("routable overlay");
        fast.run_until(SimTime::from_secs(25));
        assert!(fast.converged(), "lookup join did not integrate quickly");
        // Naive contact-only join needs gossip rounds; measure that it is
        // not *already* converged at the same instant it joined (sanity
        // that the comparison is meaningful) — then eventually converges.
        let mut slow = mk();
        slow.run_until(SimTime::from_secs(10));
        slow.join(member, 0);
        assert!(!slow.converged());
        // Gossip alone crawls the ring a few leafset-widths per round; give
        // it an order of magnitude more time than the lookup join needed.
        slow.run_until(SimTime::from_secs(400));
        assert!(slow.converged());
    }

    #[test]
    fn coherence_invariants_hold_through_churn() {
        // Sample the view/tombstone invariants every second across a run
        // with kills, a revival, and a join — the flows that historically
        // produce flapping views. Hard-fail is on in debug builds, so a
        // violation panics with the offending node; the final report must
        // be clean either way.
        let mut s = sim(32);
        let mut auditor = Auditor::every(SimTime::from_secs(1));
        let step = SimTime::from_secs(1);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(120) {
            t += step;
            s.run_until(t);
            s.audit_sample(&mut auditor);
            if t == SimTime::from_secs(10) {
                s.kill(5);
                s.kill(11);
            }
            if t == SimTime::from_secs(60) {
                s.revive(5, 0);
                s.join(
                    Member {
                        id: NodeId::hash_of(0xC0DE),
                        host: HostId(888),
                    },
                    3,
                );
            }
        }
        let report = auditor.into_report();
        // The event clock only advances when messages flow, so quiet gaps
        // between heartbeat waves coalesce polls: expect roughly one sample
        // per wave, not one per poll.
        assert!(report.samples >= 20, "auditor barely sampled");
        assert!(report.checks > 0);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // The dead node is certified, not believed: no live neighbor holds
        // victim 11 in its view once expelled.
        let dead_id = s.member_of(11).id;
        for i in 0..s.len() {
            if s.is_alive(i) {
                assert!(!s.view_contains(i, dead_id));
            }
        }
    }

    #[test]
    fn join_integrates_via_gossip() {
        let mut s = sim(16);
        s.run_until(SimTime::from_secs(10));
        let id = NodeId::hash_of(0xFEED);
        s.join(
            Member {
                id,
                host: HostId(999),
            },
            0,
        );
        s.run_until(SimTime::from_secs(120));
        assert!(s.converged(), "joiner did not integrate");
    }

    #[test]
    #[should_panic(expected = "is already simulated")]
    fn join_with_a_simulated_id_panics() {
        let mut s = sim(16);
        let taken = s.member_of(3).id;
        s.join(
            Member {
                id: taken,
                host: HostId(999),
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "is already simulated")]
    fn join_via_lookup_with_a_dead_nodes_id_panics() {
        // A crashed node still holds its ID: `revive` is how it comes back.
        let mut s = sim(16);
        let taken = s.member_of(3).id;
        s.kill(3);
        s.join_via_lookup(
            Member {
                id: taken,
                host: HostId(999),
            },
            0,
        );
    }

    #[test]
    fn converged_agrees_with_the_per_node_truth() {
        // `converged` derives every node's true leafset from one live ring;
        // `true_leafset` builds its own. Both must tell the same story
        // before, during and after a repair.
        let mut s = sim(40);
        for (t, kill) in [(10, Some(5)), (20, Some(6)), (30, None), (120, None)] {
            s.run_until(SimTime::from_secs(t));
            if let Some(k) = kill {
                s.kill(k);
            }
            let per_node = (0..s.len()).filter(|&i| s.is_alive(i)).all(|i| {
                let mut believed = s.believed_leafset(i);
                believed.sort_unstable();
                believed == s.true_leafset(i)
            });
            assert_eq!(s.converged(), per_node, "at t = {t} s");
        }
        assert!(s.converged(), "the ring healed by 120 s");
    }

    #[test]
    fn lookups_resolve_to_true_owner_on_converged_ring() {
        use rand::{Rng, SeedableRng};
        let ring = Ring::with_random_ids((0..48u32).map(HostId), 17);
        let mut s = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            FaultPlan::none(),
        );
        s.run_until(SimTime::from_secs(30));
        assert!(s.converged());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let key = NodeId(rng.random());
            let from = rng.random_range(0..48);
            let (owner, hops) = s.lookup(from, key).expect("lookup stuck");
            let true_owner = ring.member(ring.owner(key)).id;
            assert_eq!(owner, true_owner, "lookup resolved the wrong owner");
            assert!(hops <= 48);
        }
    }

    #[test]
    fn lookups_recover_after_failure_heals() {
        use rand::{Rng, SeedableRng};
        let ring = Ring::with_random_ids((0..32u32).map(HostId), 18);
        let mut s = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            FaultPlan::none(),
        );
        s.run_until(SimTime::from_secs(10));
        s.kill(7);
        s.run_until(SimTime::from_secs(90));
        assert!(s.converged());
        // The truth now excludes the victim.
        let mut truth = Ring::default();
        for i in (0..32).filter(|&i| i != 7) {
            truth.insert(ring.member(i));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let key = NodeId(rng.random());
            let mut from = rng.random_range(0..32);
            if from == 7 {
                from = 8; // never start at the dead node
            }
            let (owner, _) = s.lookup(from, key).expect("lookup stuck after heal");
            let true_owner = truth.member(truth.owner(key)).id;
            assert_eq!(owner, true_owner);
        }
    }

    #[test]
    fn revived_node_reintegrates() {
        let mut s = sim(24);
        s.run_until(SimTime::from_secs(10));
        s.kill(5);
        s.run_until(SimTime::from_secs(80));
        assert!(s.converged(), "ring did not heal around the crash");
        s.revive(5, 0);
        s.run_until(SimTime::from_secs(400));
        assert!(s.is_alive(5));
        assert!(s.converged(), "revived node did not reintegrate");
    }

    #[test]
    #[should_panic(expected = "revive() through the node itself")]
    fn revive_through_the_node_itself_panics() {
        // The node's own ID would be seeded into its view: the coherence
        // audit reports `self-absent-from-view` at once, and the node
        // heartbeats itself instead of converging.
        let mut s = sim(16);
        s.run_until(SimTime::from_secs(10));
        s.kill(3);
        s.revive(3, 3);
    }

    #[test]
    fn revive_through_a_dead_contact_recovers_through_gossip() {
        // The contact never answers, but the neighbours have not expelled
        // the restarted node yet: their heartbeats reach it and their
        // gossip refills its view.
        let mut s = sim(24);
        s.run_until(SimTime::from_secs(10));
        s.kill(5);
        s.kill(6);
        s.run_until(SimTime::from_secs(12));
        s.revive(5, 6);
        let dead_contact = s.member_of(6).id;
        assert_eq!(s.view_ids(5).collect::<Vec<_>>(), [dead_contact]);
        s.run_until(SimTime::from_secs(400));
        assert!(s.converged(), "the restarted node did not reintegrate");
        assert!(!s.view_contains(5, dead_contact));
    }

    #[test]
    fn kill_revive_flap_does_not_double_heartbeats() {
        // A node killed and revived within one heartbeat period must not end
        // up with two live timer chains (which would double its send rate).
        let mut stable = sim(16);
        stable.run_until(SimTime::from_secs(300));
        let baseline = stable.messages_sent();

        let mut flappy = sim(16);
        flappy.run_until(SimTime::from_secs(10));
        for _ in 0..5 {
            flappy.kill(3);
            flappy.revive(3, 0);
        }
        flappy.run_until(SimTime::from_secs(300));
        // The flapping node re-bootstraps via gossip, which costs a few extra
        // messages — but nowhere near a doubled heartbeat chain (which would
        // add ~6% of total volume per flap).
        let flap = flappy.messages_sent();
        assert!(
            flap < baseline + baseline / 8,
            "flapping inflated traffic: {flap} vs baseline {baseline}"
        );
    }

    #[test]
    fn heals_under_message_loss() {
        let ring = Ring::with_random_ids((0..32u32).map(HostId), 17);
        let mut s = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            FaultPlan::with_loss(3, 0.05).jitter(SimTime::from_millis(20)),
        );
        s.run_until(SimTime::from_secs(10));
        s.kill(5);
        // Lossy links delay convergence but must not prevent it.
        s.run_until(SimTime::from_secs(200));
        assert!(s.converged(), "leafsets did not repair under 5% loss");
        assert!(s.messages_dropped() > 0, "loss plan never fired");
    }

    #[test]
    fn tombstones_hold_under_loss_while_victim_is_down() {
        // Flap test: kill a node, let the ring expel it, and verify that
        // while it stays down no live node's view resurrects it from stale
        // gossip — even with message loss perturbing the gossip schedule.
        let ring = Ring::with_random_ids((0..24u32).map(HostId), 21);
        let mut s = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            FaultPlan::with_loss(11, 0.05),
        );
        s.run_until(SimTime::from_secs(10));
        let victim_id = s.member_of(7).id;
        s.kill(7);
        s.run_until(SimTime::from_secs(90));
        for i in 0..s.len() {
            if s.is_alive(i) {
                assert!(
                    !s.view_contains(i, victim_id),
                    "node {i} still believes in the dead node"
                );
            }
        }
        // Keep running: gossip must not flap it back in.
        let mut t = 90;
        while t < 240 {
            t += 10;
            s.run_until(SimTime::from_secs(t));
            for i in 0..s.len() {
                if s.is_alive(i) {
                    assert!(
                        !s.view_contains(i, victim_id),
                        "stale gossip resurrected the dead node at t={t}s"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_heals_after_window() {
        // Cut one node off from everyone for a while; after the window ends
        // it must re-integrate without a restart (its own timers kept going).
        let ring = Ring::with_random_ids((0..16u32).map(HostId), 23);
        let lone = ring.member(4).host.0 as u64;
        let plan = FaultPlan::with_loss(5, 0.0).partition(
            vec![lone],
            SimTime::from_secs(20),
            SimTime::from_secs(60),
        );
        let mut s = DhtSim::with_faults(
            &ring,
            ProtoConfig::default(),
            |_a, _b| SimTime::from_millis(50),
            plan,
        );
        s.run_until(SimTime::from_secs(50));
        // Inside the window the isolated node has been expired by peers.
        assert!(!s.converged(), "partition had no visible effect");
        s.run_until(SimTime::from_secs(300));
        assert!(s.converged(), "ring did not heal after partition lifted");
    }

    #[test]
    fn dead_nodes_send_nothing() {
        let mut s = sim(8);
        s.run_until(SimTime::from_secs(5));
        let before = s.messages_sent();
        for i in 0..8 {
            s.kill(i);
        }
        s.run_until(SimTime::from_secs(60));
        // Messages already in flight may land, but no new ones are sent
        // after every node's next timer fires; the count must plateau well
        // below a live network's volume (8 nodes * ~11 rounds * 8 targets).
        let after = s.messages_sent();
        assert!(after - before < 200, "dead network kept chattering");
    }
}
