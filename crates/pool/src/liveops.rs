//! # liveops — the live operations surface over a running market
//!
//! A [`crate::MarketSim`] run used to be observable only after the fact:
//! drain the tracer's ring, read the outcome. This module wires a running
//! market into a [`runstore::RunStore`] so an operator can watch and query
//! it *while it runs*, and reconstruct any moment of it afterwards:
//!
//! * every trace record streams into the store's trace log (via
//!   [`runstore::StoreSink`]);
//! * every state-mutating pool call ([`PoolOp`]), slot transition
//!   ([`SlotSnap`]) and admission-queue change lands in the store's delta
//!   log as a [`MarketDelta`];
//! * each snapshot round captures the market's full state — degree
//!   tables, liveness, slot states, admission queues — as a
//!   [`FrozenSnapshot`] and evaluates the operator's standing queries
//!   ([`query::SubscriptionSet`], [`query::PressureWatch`], utilization
//!   crossings), appending what fired as [`OpsNote`] deltas.
//!
//! Reconstruction is [`reconstruct_at`]: thaw a snapshot into a dense
//! [`MarketSnapshot`] and fold the later deltas forward with
//! [`MarketSnapshot::apply`]. The snapshot's [`HostTables`] are the type
//! the live [`ResourcePool`] keeps its books in, so a replayed op runs the
//! very method the live call ran — refused reserves included — and the
//! replay asserts every logged `Reserve` verdict and `ReleaseSession` host
//! list: a log that does not fit the state it is replayed on panics, naming
//! the op. The replay-determinism gate (`bench::cells::gate`, which
//! `tests/liveops_pins.rs` and `ext_liveops` run) asserts the result
//! byte-identical to the live run's final state from *every* snapshot of a
//! faulted market run, and
//! `tests/liveops_pins.rs` also pins the exported bytes and every replay.
//!
//! ## What the store retains
//!
//! Monitoring is only left switched on if it is cheap, so what the surface
//! keeps is proportional to what the market *holds*, not to the pool:
//!
//! * a stored snapshot is **frozen** — sparse and flat. A market books
//!   degrees on a small share of its hosts (10–16 % of a 2048-host pool at
//!   any instant of the reference faulted run), so a [`FrozenSnapshot`]
//!   keeps the down hosts, the hosts that hold anything and one flat
//!   allocation list; the degree bounds, which never change, are one
//!   vector shared by every snapshot of the run. The dense
//!   [`MarketSnapshot`] — a table per host — exists only while a replay
//!   or an export materialises it, and the frozen form serialises as that
//!   dense form, so every exported byte is what it always was;
//! * the standing queries' **private** [`QueryIndex`] is built and
//!   refreshed only while a standing query is registered; the pressure
//!   watch needs no tree and reads [`ResourcePool::aggregate`];
//! * a delta log entry is 56 B: `MarketDelta`'s rare wide arms (`Slot`,
//!   `Queues`) are boxed, the common ones ([`PoolOp`]s, notes) ride inline.
//!
//! Attaching the surface must not change the run: the market's snapshot
//! event is strictly read-only (it mutates only this module's private
//! mirrors and the store), emits no trace events, and the operator's
//! standing queries are evaluated against a **private** [`QueryIndex`] so
//! their traffic never lands in the market's own query accounting. The
//! trace-equivalence gate asserts a store-attached run byte-identical to a
//! ring-traced one.
//!
//! Answers carry the existing [`Freshness`] contract: `oldest` is the
//! newest instant the store has absorbed (snapshot or delta), `bound` the
//! snapshot cadence; an empty store answers with `staleness == bound` —
//! honest uncertainty, not false confidence.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use netsim::HostId;
use query::{Freshness, PressureWatch, QueryIndex, SubscriptionSet, ThresholdDelta};
use runstore::{ReplayGap, RunStore, StoreConfig, StoreHandle};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::degree_table::{Allocation, DegreeTable, SessionId};
use crate::task_manager::FAIR_HELPER_RANK;
use crate::{HostTables, PoolOp, ResourcePool};

/// The market's run store: [`MarketDelta`] deltas, [`FrozenSnapshot`]
/// snapshots.
pub type MarketStore = RunStore<MarketDelta, FrozenSnapshot>;

/// Shared handle to a [`MarketStore`] (simulator, sink and operator each
/// hold a clone).
pub type MarketStoreHandle = StoreHandle<MarketDelta, FrozenSnapshot>;

/// One market slot's state, mirrored into the store whenever it changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSnap {
    /// The slot's session id.
    pub session: u32,
    /// Whether a cycle is currently active.
    pub active: bool,
    /// A preemption-triggered replan is scheduled but has not fired yet.
    pub replan_pending: bool,
    /// Activity-cycle counter.
    pub cycle: u64,
    /// The current cycle was admitted degraded (Admission mode).
    pub degraded: bool,
    /// Starts deferred because no member was alive.
    pub defers: u64,
    /// When the slot entered the admission queue (µs); `None` = not queued.
    pub queued_since_us: Option<u64>,
    /// When the current outage opened (µs); `None` = serving.
    pub broken_since_us: Option<u64>,
}

/// A session's earliest lease deadline pool-wide, as a snapshot renders
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
struct LeaseHorizon {
    /// The leasing session.
    session: SessionId,
    /// Its earliest `expires_at` across every host it holds degrees on
    /// (µs); permanent claims carry no horizon and are not listed.
    expires_at_us: u64,
}

/// An operator-facing observation appended to the delta log when a
/// standing query fires. Notes are pure annotations: replay ignores them
/// ([`MarketSnapshot::apply`] treats them as no-ops).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum OpsNote {
    /// A registered threshold subscription crossed (see
    /// [`query::SubscriptionSet::evaluate`]).
    Threshold(ThresholdDelta),
    /// The cluster pressure signal crossed the scarcity threshold.
    Pressure {
        /// `true` = entered scarcity, `false` = recovered.
        scarce: bool,
    },
    /// A host's degree utilization crossed the configured threshold.
    UtilCrossing {
        /// The host.
        host: HostId,
        /// `true` = rose to at-or-above the threshold, `false` = fell
        /// back below it.
        up: bool,
    },
}

/// One entry of the market's delta log. Pool ops and notes are ≈ 97 % of
/// a faulted run's log and at most 32 B; the two wider arms are boxed so
/// they do not set the size of every entry (a box serialises as what it
/// holds, so the exported JSON does not know).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MarketDelta {
    /// A state-mutating pool call, in execution order.
    Pool(PoolOp),
    /// Slot `index` transitioned to `state`.
    Slot {
        /// Slot index in the market.
        index: u32,
        /// Its new state.
        state: Box<SlotSnap>,
    },
    /// The admission FIFOs changed (queued slot indices, class 1 first).
    Queues {
        /// The new queue contents.
        queues: Box<[Vec<u32>; 3]>,
    },
    /// A standing-query observation (no state effect on replay).
    Note(OpsNote),
}

/// Full market state at one instant, dense: one entry per host. This is
/// the form a replay folds deltas into and the form every export renders;
/// the store itself holds [`FrozenSnapshot`]s. Capture time lives on the
/// store's [`runstore::SnapshotEntry`], not here, so a replayed-to-the-end
/// state compares byte-for-byte against a later snapshot's state.
#[derive(Clone, Debug, PartialEq)]
pub struct MarketSnapshot {
    /// Every host: liveness and full degree table.
    pub tables: HostTables,
    /// Every market slot.
    pub slots: Vec<SlotSnap>,
    /// Admission FIFOs (queued slot indices, class 1 first).
    pub admission_queues: [Vec<u32>; 3],
}

impl MarketSnapshot {
    /// Every leasing session's earliest deadline, session order.
    fn lease_horizons(&self) -> Vec<LeaseHorizon> {
        let mut horizons: BTreeMap<SessionId, u64> = BTreeMap::new();
        for a in self.tables.rows().flat_map(|(_, _, t)| t.allocations()) {
            if let Some(at) = a.expires_at {
                let e = horizons.entry(a.session).or_insert(u64::MAX);
                *e = (*e).min(at.as_micros());
            }
        }
        horizons
            .into_iter()
            .map(|(session, expires_at_us)| LeaseHorizon {
                session,
                expires_at_us,
            })
            .collect()
    }

    /// Fold one delta forward: a pool op runs again through the
    /// [`HostTables`] method the live pool ran, slot and queue deltas
    /// overwrite the mirrors, notes do nothing.
    ///
    /// # Panics
    /// If a pool op does not fit the state (see [`PoolOp`]).
    pub fn apply(&mut self, delta: &MarketDelta) {
        match delta {
            MarketDelta::Pool(op) => self.tables.apply(op),
            MarketDelta::Slot { index, state } => {
                self.slots[*index as usize] = **state;
            }
            MarketDelta::Queues { queues } => {
                self.admission_queues = (**queues).clone();
            }
            MarketDelta::Note(_) => {}
        }
    }
}

impl Serialize for MarketSnapshot {
    /// Per host `{host, alive, table}`, the slot and queue mirrors, then
    /// the lease horizons and the degrees used and bounded pool-wide,
    /// computed here from the tables.
    fn to_json_value(&self) -> serde::Value {
        let field = |k: &str, v: serde::Value| (k.to_string(), v);
        let hosts = self.tables.rows().map(|(h, alive, t)| {
            serde::Value::Object(vec![
                field("host", h.to_json_value()),
                field("alive", alive.to_json_value()),
                field("table", t.to_json_value()),
            ])
        });
        serde::Value::Object(vec![
            field("hosts", serde::Value::Array(hosts.collect())),
            field("slots", self.slots.to_json_value()),
            field("admission_queues", self.admission_queues.to_json_value()),
            field("lease_horizons", self.lease_horizons().to_json_value()),
            field("used", self.tables.total_used().to_json_value()),
            field("capacity", self.tables.total_capacity().to_json_value()),
        ])
    }
}

/// A [`MarketSnapshot`] as the store holds it: sparse and flat, so that a
/// snapshot's footprint follows the tables the market holds, not the pool.
///
/// Hosts that are up and hold nothing — most of any pool — are not
/// represented at all; the rest are three sorted flat vectors. The degree
/// bounds are the one per-host quantity every host has, and they never
/// change, so every snapshot of a run shares one vector of them.
/// Consecutive snapshots share nothing else: renewing a lease rewrites
/// `expires_at` on every table its session holds, so only about a third
/// of the held tables survive a round unchanged — too few for
/// copy-on-write tables to pay for their reference counts (DESIGN.md
/// §17.3 has the measurement).
///
/// [`FrozenSnapshot::thaw`] gives the dense form back exactly, and
/// `Serialize` renders that dense form: exports do not know the store
/// changed shape.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenSnapshot {
    /// Every host's degree bound, host order.
    dbound: Arc<[u32]>,
    /// The hosts that were down, ascending.
    down: Vec<HostId>,
    /// Each host whose table held anything, ascending, with the end of its
    /// run in `allocations` (it starts where the previous host's ends).
    held: Vec<(HostId, u32)>,
    /// The held tables' allocations, host by host, each in table order.
    allocations: Vec<Allocation>,
    slots: Vec<SlotSnap>,
    admission_queues: [Vec<u32>; 3],
}

impl FrozenSnapshot {
    /// Freeze `tables` plus the market's slot and queue mirrors.
    /// `previous` is the run's last snapshot, if any: the new one shares
    /// its degree-bound vector when the bounds are still the same (always,
    /// within one run).
    pub fn new(
        tables: &HostTables,
        slots: &[SlotSnap],
        queues: &[Vec<u32>; 3],
        previous: Option<&FrozenSnapshot>,
    ) -> FrozenSnapshot {
        let bounds = || tables.rows().map(|(_, _, t)| t.dbound());
        let dbound = match previous {
            Some(p) if p.dbound.iter().copied().eq(bounds()) => Arc::clone(&p.dbound),
            _ => bounds().collect(),
        };
        let held_tables = || {
            tables
                .rows()
                .map(|(h, _, t)| (h, t.allocations()))
                .filter(|(_, run)| !run.is_empty())
        };
        let down_hosts = || {
            tables
                .rows()
                .filter(|&(_, alive, _)| !alive)
                .map(|(h, ..)| h)
        };
        // Sized exactly: a stored snapshot carries no growth slack.
        let mut down = Vec::with_capacity(down_hosts().count());
        down.extend(down_hosts());
        let mut held = Vec::with_capacity(held_tables().count());
        let mut allocations = Vec::with_capacity(held_tables().map(|(_, run)| run.len()).sum());
        for (h, run) in held_tables() {
            allocations.extend_from_slice(run);
            let end = u32::try_from(allocations.len()).expect("under 2^32 allocations pool-wide");
            held.push((h, end));
        }
        FrozenSnapshot {
            dbound,
            down,
            held,
            allocations,
            slots: slots.to_vec(),
            admission_queues: queues.clone(),
        }
    }

    /// The dense snapshot this one froze, field for field.
    pub fn thaw(&self) -> MarketSnapshot {
        let mut alive = vec![true; self.dbound.len()];
        for h in &self.down {
            alive[h.idx()] = false;
        }
        let mut tables: Vec<DegreeTable> =
            self.dbound.iter().map(|&d| DegreeTable::new(d)).collect();
        let mut start = 0;
        for &(h, end) in &self.held {
            let run = self.allocations[start..end as usize].to_vec();
            tables[h.idx()] = DegreeTable::with_allocations(self.dbound[h.idx()], run);
            start = end as usize;
        }
        MarketSnapshot {
            tables: HostTables::new(alive, tables),
            slots: self.slots.clone(),
            admission_queues: self.admission_queues.clone(),
        }
    }
}

impl Serialize for FrozenSnapshot {
    /// The dense snapshot's JSON, byte for byte.
    fn to_json_value(&self) -> serde::Value {
        self.thaw().to_json_value()
    }
}

/// Configuration of the live operations surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveOpsConfig {
    /// Retention of the backing store's trace and delta logs.
    pub store: StoreConfig,
    /// Snapshot cadence — also the a-priori [`Freshness::bound`] carried
    /// by store-backed answers.
    pub snapshot_period: SimTime,
    /// Per-host degree-utilization threshold whose crossings are noted
    /// ([`OpsNote::UtilCrossing`]).
    pub util_threshold: f64,
    /// Scarcity threshold of the pressure watch.
    pub pressure_threshold: f64,
}

impl Default for LiveOpsConfig {
    fn default() -> Self {
        LiveOpsConfig {
            store: StoreConfig::default(),
            snapshot_period: SimTime::from_secs(60),
            util_threshold: 0.9,
            pressure_threshold: 0.15,
        }
    }
}

/// The live operations surface attached to one [`crate::MarketSim`] run.
/// Owns the store handle, the operator's standing queries and the private
/// change mirrors. Driven by the market: [`LiveOps::sync`] after every
/// handled event, [`LiveOps::snapshot_round`] on the snapshot cadence.
pub struct LiveOps {
    cfg: LiveOpsConfig,
    handle: MarketStoreHandle,
    subs: SubscriptionSet,
    /// Private index the standing queries evaluate against — never the
    /// market's own, so operator traffic stays out of market accounting.
    /// Built at the first snapshot round that finds a standing query
    /// registered; a surface nobody queries never pays for one.
    qindex: Option<QueryIndex>,
    watch: PressureWatch,
    last_slots: Vec<Option<SlotSnap>>,
    last_queues: [Vec<u32>; 3],
    /// The hosts at or above the utilization threshold at the last
    /// snapshot round (empty before the first).
    last_over: BTreeSet<HostId>,
}

impl LiveOps {
    /// A fresh surface with an empty store. Register standing queries via
    /// [`LiveOps::subscribe`] before (or during) the run.
    pub fn new(cfg: LiveOpsConfig) -> LiveOps {
        // Free degrees at the fair rank, as the admission controller's
        // own watch reads them.
        let watch = PressureWatch::new(FAIR_HELPER_RANK.0, cfg.pressure_threshold);
        LiveOps {
            handle: runstore::shared(RunStore::new(cfg.store)),
            cfg,
            subs: SubscriptionSet::new(),
            qindex: None,
            watch,
            last_slots: Vec::new(),
            last_queues: [Vec::new(), Vec::new(), Vec::new()],
            last_over: BTreeSet::new(),
        }
    }

    /// A clone of the store handle (for the trace sink and the operator).
    pub fn handle(&self) -> MarketStoreHandle {
        self.handle.clone()
    }

    /// The snapshot cadence.
    pub fn snapshot_period(&self) -> SimTime {
        self.cfg.snapshot_period
    }

    /// Register a standing threshold query (see
    /// [`query::SubscriptionSet::subscribe`]); returns its id.
    ///
    /// # Panics
    /// If `rank` is not a claim rank (0..=3).
    pub fn subscribe(
        &mut self,
        member: u32,
        center: [f64; 2],
        radius: f64,
        rank: u8,
        min_free: u32,
        threshold: u64,
    ) -> u64 {
        self.subs
            .subscribe(member, center, radius, rank, min_free, threshold)
    }

    /// Check every standing query's subscriber against a ring of `members`
    /// members (see [`query::SubscriptionSet::check_members`]) — the market
    /// does at attach time, so a bad subscription never reaches a snapshot
    /// round.
    pub(crate) fn check_members(&self, members: usize) {
        self.subs.check_members(members);
    }

    /// Absorb everything one handled market event changed: the drained
    /// pool op log (in execution order), then any slot transitions, then
    /// any admission-queue change. Order matters — replay folds deltas in
    /// append order.
    pub fn sync(
        &mut self,
        at: SimTime,
        ops: Vec<PoolOp>,
        slots: &[SlotSnap],
        queues: &[Vec<u32>; 3],
    ) {
        let dirty_slots: Vec<(u32, SlotSnap)> = {
            self.last_slots.resize(slots.len(), None);
            slots
                .iter()
                .enumerate()
                .filter(|(i, s)| self.last_slots[*i] != Some(**s))
                .map(|(i, s)| (i as u32, *s))
                .collect()
        };
        let queues_dirty = &self.last_queues != queues;
        if ops.is_empty() && dirty_slots.is_empty() && !queues_dirty {
            return;
        }
        let mut store = self.handle.lock().expect("run store lock poisoned");
        for op in ops {
            store.append_delta(at, MarketDelta::Pool(op));
        }
        for (index, state) in dirty_slots {
            self.last_slots[index as usize] = Some(state);
            let state = Box::new(state);
            store.append_delta(at, MarketDelta::Slot { index, state });
        }
        if queues_dirty {
            self.last_queues = queues.clone();
            store.append_delta(
                at,
                MarketDelta::Queues {
                    queues: Box::new(queues.clone()),
                },
            );
        }
    }

    /// One snapshot round: evaluate the standing queries (threshold
    /// subscriptions against the refreshed private index, the pressure
    /// watch, utilization crossings), append what fired as notes, then
    /// capture and store a [`FrozenSnapshot`]. Read-only on the market.
    pub fn snapshot_round(
        &mut self,
        now: SimTime,
        pool: &ResourcePool,
        slots: &[SlotSnap],
        queues: &[Vec<u32>; 3],
    ) {
        // The pressure signal is `free[r].sum / capacity` — integer sums
        // over the live hosts, which need no tree to fold.
        let pool_wide = pool.aggregate(now);
        let mut notes: Vec<OpsNote> = Vec::new();
        if !self.subs.subscriptions().is_empty() {
            let idx = match &mut self.qindex {
                Some(idx) => {
                    pool.refresh_query_index(idx, now);
                    idx
                }
                None => self
                    .qindex
                    .insert(pool.build_query_index(self.cfg.snapshot_period, now)),
            };
            debug_assert_eq!(
                idx.root_aggregate().pressure(),
                pool_wide.pressure(),
                "the folded pressure signal must be the index root's"
            );
            let fired = self.subs.evaluate(idx, now);
            notes.extend(fired.into_iter().map(OpsNote::Threshold));
        }
        if let Some(scarce) = self.watch.observe(&pool_wide) {
            notes.push(OpsNote::Pressure { scarce });
        }
        // A crossing is a host in one round's over-set and not the other's,
        // merged in host order; the first round compares against the empty
        // set, so it alarms only.
        let over: BTreeSet<HostId> = pool
            .tables()
            .hosts_over_utilization(self.cfg.util_threshold)
            .into_iter()
            .collect();
        for &host in self.last_over.symmetric_difference(&over) {
            let up = over.contains(&host);
            notes.push(OpsNote::UtilCrossing { host, up });
        }
        self.last_over = over;
        let mut store = self.handle.lock().expect("run store lock poisoned");
        let previous = store.latest_snapshot().map(|s| &s.state);
        let snap = FrozenSnapshot::new(pool.tables(), slots, queues, previous);
        for n in notes {
            store.append_delta(now, MarketDelta::Note(n));
        }
        // The slot/queue mirrors the snapshot carries are by definition
        // current; future syncs diff against them.
        self.last_slots = slots.iter().map(|s| Some(*s)).collect();
        self.last_queues = queues.clone();
        store.snapshot(now, snap);
    }
}

/// An operator query's answer: the qualifying hosts plus the
/// [`Freshness`] of the store state that produced them.
#[derive(Clone, Debug, PartialEq)]
pub struct OpsAnswer {
    /// Qualifying hosts, host order.
    pub hosts: Vec<HostId>,
    /// How stale the answer can be.
    pub freshness: Freshness,
}

/// The freshness of answers served from `store`: `oldest` is the newest
/// instant the store has absorbed (latest snapshot or delta), `bound` the
/// snapshot cadence. An empty store has an empty scope
/// ([`Freshness::empty_scope`]), so `staleness` reports `bound`.
pub fn store_freshness(store: &MarketStore, bound: SimTime) -> Freshness {
    let snap_at = store.latest_snapshot().map(|s| s.at_us);
    let delta_at = store.latest_delta().map(|d| d.at_us);
    let oldest = match snap_at.into_iter().chain(delta_at).max() {
        Some(us) => SimTime::from_micros(us),
        None => SimTime::MAX,
    };
    Freshness { oldest, bound }
}

/// Reconstruct the state at the end of the log from snapshot `idx`:
/// thaw it and fold every later delta with [`MarketSnapshot::apply`].
///
/// # Errors
/// [`ReplayGap`] when delta eviction dropped part of the needed range.
///
/// # Panics
/// If the store holds no snapshot `idx`, as [`runstore::RunStore::replay`];
/// if a logged pool op does not fit the state, as
/// [`MarketSnapshot::apply`].
pub fn reconstruct_at(store: &MarketStore, idx: usize) -> Result<MarketSnapshot, ReplayGap> {
    store.replay(idx, FrozenSnapshot::thaw, |s, d| s.apply(&d.delta))
}

/// "Which hosts are at or above `threshold` degree utilization right
/// now?" — answered from the store alone: the latest snapshot plus the
/// deltas since. A store with no snapshot yet answers no hosts; with no
/// delta either, its scope is empty and `staleness == bound`.
///
/// # Errors
/// [`ReplayGap`] when delta eviction dropped part of the replay from the
/// latest snapshot: the answer would come from the wrong base.
pub fn hosts_over_threshold(
    store: &MarketStore,
    threshold: f64,
    bound: SimTime,
) -> Result<OpsAnswer, ReplayGap> {
    let hosts = match store.snapshots().len().checked_sub(1) {
        Some(idx) => reconstruct_at(store, idx)?
            .tables
            .hosts_over_utilization(threshold),
        None => Vec::new(),
    };
    Ok(OpsAnswer {
        hosts,
        freshness: store_freshness(store, bound),
    })
}

/// "Which hosts crossed **up** through the utilization threshold since
/// `since`?" — scans the retained [`OpsNote::UtilCrossing`] notes. The
/// answer's scope is the retained deltas in the window: none at all (or
/// an empty store) is an empty scope, so `staleness` reports `bound`.
///
/// # Errors
/// [`ReplayGap`] when the log has evicted deltas and the window starts at
/// or before the earliest retained one: an evicted delta may lie inside
/// it. `requested` is the newest evicted sequence number.
pub fn hosts_crossed_up(
    store: &MarketStore,
    since: SimTime,
    bound: SimTime,
) -> Result<OpsAnswer, ReplayGap> {
    // Seqs start at 0 and eviction is oldest first, so a retained log that
    // starts later has lost its head; deltas are appended in time order,
    // so everything it lost is at or before its first retained instant.
    if let Some(first) = store.deltas_stored().next() {
        if first.seq > 0 && since.as_micros() <= first.at_us {
            return Err(ReplayGap {
                requested: first.seq - 1,
                earliest: first.seq,
            });
        }
    }
    let mut hosts: Vec<HostId> = Vec::new();
    let mut oldest_in_scope = SimTime::MAX;
    for d in store.deltas_stored() {
        if d.at_us < since.as_micros() {
            continue;
        }
        oldest_in_scope = oldest_in_scope.min(SimTime::from_micros(d.at_us));
        if let MarketDelta::Note(OpsNote::UtilCrossing { host, up: true }) = d.delta {
            hosts.push(host);
        }
    }
    hosts.sort_unstable();
    hosts.dedup();
    Ok(OpsAnswer {
        hosts,
        freshness: Freshness {
            oldest: oldest_in_scope,
            bound,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree_table::Rank;

    #[test]
    #[should_panic(expected = "subscription rank 4 out of range (0..=3)")]
    fn a_standing_query_at_a_rank_that_does_not_exist_is_rejected_at_registration() {
        LiveOps::new(LiveOpsConfig::default()).subscribe(0, [0.0, 0.0], 1e9, 4, 1, 5);
    }

    fn snap_with(tables: Vec<DegreeTable>) -> MarketSnapshot {
        MarketSnapshot {
            tables: HostTables::new(vec![true; tables.len()], tables),
            slots: Vec::new(),
            admission_queues: Default::default(),
        }
    }

    /// A store whose only snapshot is `snap_with(tables)`.
    fn store_over(tables: Vec<DegreeTable>, cfg: StoreConfig) -> MarketStore {
        let mut store: MarketStore = RunStore::new(cfg);
        let base = snap_with(tables);
        let frozen = FrozenSnapshot::new(&base.tables, &[], &base.admission_queues, None);
        store.snapshot(SimTime::ZERO, frozen);
        store
    }

    #[test]
    fn pool_ops_fold_identically_to_direct_table_calls() {
        let mut live = vec![DegreeTable::new(8), DegreeTable::new(8)];
        let mut snap = snap_with(live.clone());
        let lease = Some(SimTime::from_secs(100));
        // Live trajectory.
        live[0]
            .reserve_until(SessionId(1), Rank::helper(1), 3, lease)
            .unwrap();
        live[1]
            .reserve_until(SessionId(2), Rank::helper(2), 2, lease)
            .unwrap();
        live[0].renew(SessionId(1), SimTime::from_secs(200));
        live[1].expire(SimTime::from_secs(150));
        // The same trajectory as logged ops.
        for op in [
            PoolOp::Reserve {
                host: HostId(0),
                session: SessionId(1),
                rank: Rank::helper(1),
                count: 3,
                expires_at: lease,
                ok: true,
            },
            PoolOp::Reserve {
                host: HostId(1),
                session: SessionId(2),
                rank: Rank::helper(2),
                count: 2,
                expires_at: lease,
                ok: true,
            },
            PoolOp::Renew {
                session: SessionId(1),
                expires_at: SimTime::from_secs(200),
            },
            PoolOp::ExpireLeases {
                now: SimTime::from_secs(150),
            },
        ] {
            snap.apply(&MarketDelta::Pool(op));
        }
        assert_eq!(snap.tables.table(HostId(0)), &live[0]);
        assert_eq!(snap.tables.table(HostId(1)), &live[1]);
        // Session 2's lease lapsed at 150 s; session 1 renewed to 200 s.
        assert_eq!(
            snap.lease_horizons(),
            vec![LeaseHorizon {
                session: SessionId(1),
                expires_at_us: SimTime::from_secs(200).as_micros(),
            }]
        );
        assert_eq!(snap.tables.total_used(), 3);
        assert_eq!(snap.tables.total_capacity(), 16);
    }

    #[test]
    #[should_panic(
        expected = "replayed Reserve { host: HostId(1), session: SessionId(7), rank: Rank(3), \
                    count: 1, expires_at: None, ok: true }, which now returns ok: false"
    )]
    fn a_logged_reserve_the_replayed_state_refuses_stops_the_replay() {
        let mut store = store_over(vec![DegreeTable::new(4); 2], StoreConfig::default());
        let at = SimTime::from_secs(1);
        let down = PoolOp::SetAlive {
            host: HostId(1),
            alive: false,
        };
        store.append_delta(at, MarketDelta::Pool(down));
        // Forged: the pool refuses every reserve on a down host.
        let forged = PoolOp::Reserve {
            host: HostId(1),
            session: SessionId(7),
            rank: Rank::helper(3),
            count: 1,
            expires_at: None,
            ok: true,
        };
        store.append_delta(at, MarketDelta::Pool(forged));
        let _ = reconstruct_at(&store, 0);
    }

    #[test]
    fn the_delta_log_is_a_function_of_the_tables_not_of_booking_order() {
        let mut a = ResourcePool::build(
            &crate::PoolConfig {
                net: netsim::NetworkConfig {
                    num_hosts: 8,
                    ..netsim::NetworkConfig::default()
                },
                coord_rounds: 2,
                ..crate::PoolConfig::default()
            },
            7,
        );
        a.enable_op_log();
        let mut b = a.clone();
        let (s, lease) = (SessionId(3), Some(SimTime::from_secs(300)));
        let claims = [
            (HostId(5), 2),
            (HostId(1), 1),
            (HostId(7), 3),
            (HostId(2), 1),
        ];
        for &(h, count) in &claims {
            a.reserve_leased(h, s, Rank::helper(2), count, lease)
                .unwrap();
        }
        for &(h, count) in claims.iter().rev() {
            b.reserve_leased(h, s, Rank::helper(2), count, lease)
                .unwrap();
        }
        a.drain_op_log();
        b.drain_op_log();
        assert_eq!(a.release_session(s), 7);
        assert_eq!(b.release_session(s), 7);
        let released = vec![PoolOp::ReleaseSession {
            session: s,
            hosts: vec![HostId(1), HostId(2), HostId(5), HostId(7)],
        }];
        assert_eq!(a.drain_op_log(), released);
        assert_eq!(b.drain_op_log(), released);
        // Nothing left to free: the second release logs nothing.
        assert_eq!(a.release_session(s), 0);
        assert!(a.drain_op_log().is_empty());
    }

    #[test]
    fn store_replay_reconstructs_the_final_state_byte_for_byte() {
        let mut store = store_over(vec![DegreeTable::new(4); 2], StoreConfig::default());
        let lease = Some(SimTime::from_secs(50));
        store.append_delta(
            SimTime::from_secs(1),
            MarketDelta::Pool(PoolOp::Reserve {
                host: HostId(1),
                session: SessionId(7),
                rank: Rank::helper(3),
                count: 4,
                expires_at: lease,
                ok: true,
            }),
        );
        store.append_delta(
            SimTime::from_secs(2),
            MarketDelta::Note(OpsNote::UtilCrossing {
                host: HostId(1),
                up: true,
            }),
        );
        let got = reconstruct_at(&store, 0).unwrap();
        assert_eq!(got.tables.total_used(), 4);
        assert_eq!(got.tables.hosts_over_utilization(0.9), vec![HostId(1)]);
        // Queries against the reconstructed store.
        let bound = SimTime::from_secs(60);
        let ans = hosts_over_threshold(&store, 0.9, bound).unwrap();
        assert_eq!(ans.hosts, vec![HostId(1)]);
        assert!(!ans.freshness.empty_scope());
        let crossed = hosts_crossed_up(&store, SimTime::ZERO, bound).unwrap();
        assert_eq!(crossed.hosts, vec![HostId(1)]);
        // A window past every delta is an empty scope: staleness reports
        // the bound, never a false "perfectly fresh".
        let empty = hosts_crossed_up(&store, SimTime::from_secs(999), bound).unwrap();
        assert!(empty.hosts.is_empty());
        assert!(empty.freshness.empty_scope());
        assert_eq!(
            empty.freshness.staleness(SimTime::from_secs(1000)),
            SimTime::from_secs(60)
        );
    }

    #[test]
    fn empty_store_answers_with_the_a_priori_bound() {
        let store: MarketStore = RunStore::new(StoreConfig::default());
        let bound = SimTime::from_secs(60);
        let ans = hosts_over_threshold(&store, 0.9, bound).unwrap();
        assert!(ans.hosts.is_empty());
        assert!(ans.freshness.empty_scope());
        assert_eq!(ans.freshness.staleness(SimTime::from_secs(5)), bound);
        let crossed = hosts_crossed_up(&store, SimTime::ZERO, bound).unwrap();
        assert!(crossed.hosts.is_empty());
        assert!(crossed.freshness.empty_scope());
    }

    #[test]
    fn answers_over_an_evicted_range_are_refused() {
        // Two-delta segments, two retained: the fifth delta evicts the
        // first two (seq 0 at 1 s, seq 1 at 2 s).
        let mut store = store_over(vec![DegreeTable::new(4); 2], StoreConfig::bounded(2, 2));
        for (s, host) in (1..=5).zip([0, 1, 0, 1, 0]) {
            let note = OpsNote::UtilCrossing {
                host: HostId(host),
                up: true,
            };
            store.append_delta(SimTime::from_secs(s), MarketDelta::Note(note));
        }
        assert_eq!(store.stats().delta_evicted, 2);
        let bound = SimTime::from_secs(60);
        assert_eq!(
            hosts_over_threshold(&store, 0.9, bound),
            Err(ReplayGap {
                requested: 0,
                earliest: 2
            })
        );
        // Any window reaching the first retained instant may hold an
        // evicted delta.
        let gap = Err(ReplayGap {
            requested: 1,
            earliest: 2,
        });
        assert_eq!(hosts_crossed_up(&store, SimTime::ZERO, bound), gap);
        assert_eq!(hosts_crossed_up(&store, SimTime::from_secs(3), bound), gap);
        // Past it, the retained deltas are the whole window.
        let since = SimTime::from_secs(3) + SimTime::from_micros(1);
        let ans = hosts_crossed_up(&store, since, bound).unwrap();
        assert_eq!(ans.hosts, vec![HostId(0), HostId(1)]);
        assert_eq!(ans.freshness.oldest, SimTime::from_secs(4));
        // A snapshot above the gap answers again.
        let latest = store
            .latest_snapshot()
            .expect("the base snapshot")
            .state
            .clone();
        store.snapshot(SimTime::from_secs(6), latest);
        assert!(hosts_over_threshold(&store, 0.9, bound).is_ok());
    }
}
