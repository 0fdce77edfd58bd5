//! Deterministic fault injection.
//!
//! Every simulator in the workspace models the underlay as a bare delay
//! closure — perfect delivery, which makes the self-healing claims of the
//! paper (§3: the pool "self-organizes and self-heals with zero
//! administration") untestable beyond clean `kill()` calls. This module adds
//! an adversarial network model that stays **seed-deterministic**: the same
//! [`FaultPlan`] over the same event trajectory makes bit-identical
//! drop/jitter decisions on every run.
//!
//! * [`FaultPlan`] — a declarative description of link-level message loss,
//!   delay jitter, link outages and partitions over time windows, plus node
//!   crash/recover schedules.
//! * [`FaultyLink`] — the executable form: wraps any base `delay` closure's
//!   result and returns `Option<SimTime>`, where `None` means the message
//!   was dropped. Simulators thread every send through it; a no-op plan is
//!   a branch-and-return (no RNG draw), so fault injection is opt-in and
//!   zero-cost when absent.
//!
//! Crash schedules are *not* interpreted by [`FaultyLink`] — a crashed node
//! is a property of the protocol simulator (it must stop ticking, and may
//! later rejoin), not of a link. Drivers read [`FaultPlan::crash_edges`] and
//! call the simulator's own `kill`/`revive` entry points at the scheduled
//! instants.
//!
//! Endpoint identifiers are plain `u64` labels in whatever namespace the
//! caller uses consistently (host IDs for the DHT heartbeat fabric, ring
//! member indices for SOMO gathers); outages and partitions match on those
//! labels.

use std::cell::Cell;
use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::rng::mix64;
use crate::time::SimTime;

/// A bidirectional link between two endpoints that is down during
/// `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkOutage {
    /// One endpoint label.
    pub a: u64,
    /// The other endpoint label.
    pub b: u64,
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Outage end (exclusive).
    pub until: SimTime,
}

/// A network partition during `[from, until)`: messages between an island
/// member and a non-member are dropped; traffic within the island (and
/// within the rest of the network) is unaffected.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Endpoint labels cut off from everyone else.
    pub island: Vec<u64>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive).
    pub until: SimTime,
}

/// A node crash at `down_at`, with an optional recovery at `up_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// The node's label (same namespace the driving simulator uses).
    pub node: u64,
    /// When the node crashes.
    pub down_at: SimTime,
    /// When it recovers and rejoins (`None` = stays dead).
    pub up_at: Option<SimTime>,
}

/// A seed-deterministic description of everything that goes wrong.
///
/// The default plan ([`FaultPlan::none`]) injects nothing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the drop/jitter decision stream.
    pub seed: u64,
    /// Per-message loss probability in `[0, 1]`, applied to every link.
    pub loss: f64,
    /// Maximum extra delay added to each delivered message (uniform in
    /// `[0, jitter]`).
    pub jitter: SimTime,
    /// Scheduled link outages.
    pub link_outages: Vec<LinkOutage>,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Node crash/recover schedules (executed by the driver, see module
    /// docs).
    pub crashes: Vec<CrashSchedule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: perfect delivery, no crashes.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            loss: 0.0,
            jitter: SimTime::ZERO,
            link_outages: Vec::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// A plan with uniform per-message loss probability.
    pub fn with_loss(seed: u64, loss: f64) -> FaultPlan {
        FaultPlan {
            seed,
            loss,
            ..FaultPlan::none()
        }
    }

    /// Add uniform delay jitter (builder style).
    pub fn jitter(mut self, max: SimTime) -> FaultPlan {
        self.jitter = max;
        self
    }

    /// Add a link outage window (builder style).
    pub fn outage(mut self, a: u64, b: u64, from: SimTime, until: SimTime) -> FaultPlan {
        self.link_outages.push(LinkOutage { a, b, from, until });
        self
    }

    /// Add a partition window (builder style).
    pub fn partition(mut self, island: Vec<u64>, from: SimTime, until: SimTime) -> FaultPlan {
        self.partitions.push(Partition {
            island,
            from,
            until,
        });
        self
    }

    /// Schedule a permanent crash (builder style).
    pub fn crash_forever(mut self, node: u64, down_at: SimTime) -> FaultPlan {
        self.crashes.push(CrashSchedule {
            node,
            down_at,
            up_at: None,
        });
        self
    }

    /// Whether this plan can never perturb a message.
    pub fn is_link_noop(&self) -> bool {
        self.loss <= 0.0
            && self.jitter == SimTime::ZERO
            && self.link_outages.is_empty()
            && self.partitions.is_empty()
    }

    /// The crash schedule flattened into time-sorted `(when, node, down)`
    /// edges for a driver to execute between `run_until` steps. `down` is
    /// `true` for a crash, `false` for a recovery.
    pub fn crash_edges(&self) -> Vec<(SimTime, u64, bool)> {
        let mut edges = Vec::with_capacity(self.crashes.len() * 2);
        for c in &self.crashes {
            edges.push((c.down_at, c.node, true));
            if let Some(up) = c.up_at {
                edges.push((up, c.node, false));
            }
        }
        edges.sort_unstable_by_key(|&(t, n, down)| (t, n, down));
        edges
    }
}

/// The executable fault layer: wraps a base delay and decides, per message,
/// whether it is delivered (and how much extra it is delayed) or dropped.
///
/// Decisions are drawn from a counter-based stream derived from the plan's
/// seed, so a simulator that issues sends in a deterministic order gets a
/// bit-identical fault trajectory on every run. Interior mutability keeps
/// the call sites `&self` (delay closures are often called from shared
/// contexts).
pub struct FaultyLink {
    plan: FaultPlan,
    /// Pre-resolved partition islands for O(1) membership checks.
    islands: Vec<(HashSet<u64>, SimTime, SimTime)>,
    calls: Cell<u64>,
    dropped: Cell<u64>,
}

impl FaultyLink {
    /// Build the executable layer for a plan.
    pub fn new(plan: FaultPlan) -> FaultyLink {
        let islands = plan
            .partitions
            .iter()
            .map(|p| (p.island.iter().copied().collect(), p.from, p.until))
            .collect();
        FaultyLink {
            plan,
            islands,
            calls: Cell::new(0),
            dropped: Cell::new(0),
        }
    }

    /// Messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Decide the fate of one message from `a` to `b`, sent at `now` with
    /// base (fault-free) delay `base`: `Some(delay)` to deliver after
    /// `delay` (base plus jitter), `None` if the message is dropped.
    pub fn transmit(&self, a: u64, b: u64, now: SimTime, base: SimTime) -> Option<SimTime> {
        if self.plan.is_link_noop() {
            return Some(base);
        }
        if self.link_severed(a, b, now) {
            self.dropped.set(self.dropped.get() + 1);
            return None;
        }
        let draw = self.next_draw();
        if self.plan.loss > 0.0 {
            // Compare the top 53 bits against the loss threshold — exact for
            // every f64 probability.
            let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.plan.loss {
                self.dropped.set(self.dropped.get() + 1);
                return None;
            }
        }
        let jitter = if self.plan.jitter == SimTime::ZERO {
            SimTime::ZERO
        } else {
            // A second, independent draw so loss and jitter streams do not
            // alias.
            SimTime::from_micros(mix64(draw) % (self.plan.jitter.as_micros() + 1))
        };
        Some(base + jitter)
    }

    /// Whether the `a`–`b` link is administratively down at `now` (outage or
    /// partition).
    pub fn link_severed(&self, a: u64, b: u64, now: SimTime) -> bool {
        for o in &self.plan.link_outages {
            let hit = (o.a == a && o.b == b) || (o.a == b && o.b == a);
            if hit && now >= o.from && now < o.until {
                return true;
            }
        }
        for (island, from, until) in &self.islands {
            if now >= *from && now < *until && island.contains(&a) != island.contains(&b) {
                return true;
            }
        }
        false
    }

    fn next_draw(&self) -> u64 {
        let n = self.calls.get();
        self.calls.set(n + 1);
        mix64(self.plan.seed ^ mix64(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_is_transparent() {
        let l = FaultyLink::new(FaultPlan::none());
        let base = SimTime::from_millis(50);
        for i in 0..100 {
            assert_eq!(
                l.transmit(i, i + 1, SimTime::from_secs(i), base),
                Some(base)
            );
        }
        assert_eq!(l.dropped(), 0);
    }

    #[test]
    fn loss_is_deterministic_and_roughly_calibrated() {
        let run = || {
            let l = FaultyLink::new(FaultPlan::with_loss(7, 0.25));
            let fates: Vec<bool> = (0..4000)
                .map(|i| {
                    l.transmit(0, 1, SimTime::from_millis(i), SimTime::from_millis(10))
                        .is_some()
                })
                .collect();
            (fates, l.dropped())
        };
        let (a, da) = run();
        let (b, db) = run();
        assert_eq!(a, b, "same plan, different fates");
        assert_eq!(da, db);
        let delivered = a.iter().filter(|&&x| x).count();
        let rate = delivered as f64 / a.len() as f64;
        assert!(
            (rate - 0.75).abs() < 0.03,
            "delivery rate {rate} off target"
        );
    }

    #[test]
    fn jitter_bounded_and_deterministic() {
        let mk = || FaultyLink::new(FaultPlan::with_loss(9, 0.0).jitter(SimTime::from_millis(30)));
        let (a, b) = (mk(), mk());
        let base = SimTime::from_millis(100);
        let mut saw_jitter = false;
        for i in 0..200 {
            let x = a.transmit(1, 2, SimTime::from_secs(i), base).unwrap();
            let y = b.transmit(1, 2, SimTime::from_secs(i), base).unwrap();
            assert_eq!(x, y);
            assert!(x >= base && x <= base + SimTime::from_millis(30));
            saw_jitter |= x != base;
        }
        assert!(saw_jitter, "jitter never fired");
    }

    #[test]
    fn outages_are_windowed_and_symmetric() {
        let plan = FaultPlan::with_loss(1, 0.0).outage(
            3,
            5,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        let l = FaultyLink::new(plan);
        let base = SimTime::from_millis(1);
        assert!(l.transmit(3, 5, SimTime::from_secs(9), base).is_some());
        assert!(l.transmit(3, 5, SimTime::from_secs(10), base).is_none());
        assert!(l.transmit(5, 3, SimTime::from_secs(15), base).is_none());
        assert!(l.transmit(3, 5, SimTime::from_secs(20), base).is_some());
        assert!(l.transmit(3, 4, SimTime::from_secs(15), base).is_some());
        assert_eq!(l.dropped(), 2);
    }

    #[test]
    fn partitions_cut_cross_island_traffic_only() {
        let plan = FaultPlan::with_loss(1, 0.0).partition(
            vec![1, 2, 3],
            SimTime::from_secs(5),
            SimTime::from_secs(15),
        );
        let l = FaultyLink::new(plan);
        let base = SimTime::from_millis(1);
        let mid = SimTime::from_secs(10);
        assert!(l.transmit(1, 2, mid, base).is_some(), "intra-island cut");
        assert!(l.transmit(8, 9, mid, base).is_some(), "mainland cut");
        assert!(l.transmit(1, 8, mid, base).is_none(), "cross not cut");
        assert!(l.transmit(8, 2, mid, base).is_none());
        assert!(l.transmit(1, 8, SimTime::from_secs(15), base).is_some());
    }

    #[test]
    fn crash_edges_are_time_sorted() {
        let crash = |node, down, up: Option<u64>| CrashSchedule {
            node,
            down_at: SimTime::from_secs(down),
            up_at: up.map(SimTime::from_secs),
        };
        let plan = FaultPlan {
            crashes: vec![
                crash(4, 30, Some(90)),
                crash(2, 10, None),
                crash(9, 30, Some(40)),
            ],
            ..FaultPlan::none()
        };
        let edges = plan.crash_edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::from_secs(10), 2, true),
                (SimTime::from_secs(30), 4, true),
                (SimTime::from_secs(30), 9, true),
                (SimTime::from_secs(40), 9, false),
                (SimTime::from_secs(90), 4, false),
            ]
        );
    }
}
