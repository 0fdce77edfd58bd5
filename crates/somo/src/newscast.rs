//! The full newscast cycle: gather **and disseminate** (§3.2, Figure 3).
//!
//! SOMO is described as "a self-organizing 'news broadcast' hierarchy": the
//! aggregated system status is not only collected at the root — it flows
//! back down the same tree so that *any* peer can consult the global view
//! locally. This module simulates one complete cycle per period:
//!
//! 1. the root cascades a gather request; partials aggregate upward exactly
//!    as in [`crate::flow`] (timeout-protected);
//! 2. the instant the root's view for the round completes, it is published
//!    down the tree; every leaf hands the view to its canonical member.
//!
//! The metric is the **member-level view lag**: how stale is the global view
//! in the hands of an ordinary peer (root lag + descent). This is the number
//! that matters to the paper's task managers — they run at session roots,
//! not at the SOMO root.

use std::collections::HashMap;

use simcore::{EventQueue, SimTime};

use crate::report::Report;
use crate::tree::SomoTree;

/// A member's receipt of one published global view.
#[derive(Clone, Debug)]
pub struct Delivery<R> {
    /// Ring member index that received the view.
    pub member: usize,
    /// When it arrived.
    pub at: SimTime,
    /// The view delivered.
    pub view: R,
}

enum Ev<R> {
    RootTimer,
    Request {
        node: u32,
        round: u64,
    },
    Partial {
        node: u32,
        round: u64,
        from: u32,
        r: Option<R>,
    },
    Timeout {
        node: u32,
        round: u64,
    },
    Publish {
        node: u32,
        r: R,
    },
}

/// Per-round aggregation buffer: running partial + children already folded
/// in (dedup per sender, mirroring [`crate::flow`]).
#[derive(Clone)]
struct RoundBuf<R> {
    acc: Option<R>,
    seen: Vec<u32>,
}

/// Simulator of the complete gather+disseminate newscast.
pub struct NewscastSim<'a, R, L, D>
where
    R: Report,
    L: FnMut(usize, SimTime) -> R,
    D: Fn(usize, usize) -> SimTime,
{
    tree: &'a SomoTree,
    period: SimTime,
    leaf_sample: L,
    delay: D,
    queue: EventQueue<Ev<R>>,
    rounds: Vec<HashMap<u64, RoundBuf<R>>>,
    reporting: HashMap<u32, usize>,
    deliveries: Vec<Delivery<R>>,
    messages: u64,
    round_ctr: u64,
}

impl<'a, R, L, D> NewscastSim<'a, R, L, D>
where
    R: Report,
    L: FnMut(usize, SimTime) -> R,
    D: Fn(usize, usize) -> SimTime,
{
    /// Create a newscast simulator (synchronized flow, timeout = period).
    pub fn new(
        tree: &'a SomoTree,
        ring: &dht::Ring,
        period: SimTime,
        leaf_sample: L,
        delay: D,
    ) -> Self {
        let mut reporting = HashMap::new();
        for m in 0..ring.len() {
            reporting.insert(tree.canonical_leaf_of(ring.member(m).id), m);
        }
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Ev::RootTimer);
        NewscastSim {
            tree,
            period,
            leaf_sample,
            delay,
            queue,
            rounds: vec![HashMap::new(); tree.len()],
            reporting,
            deliveries: Vec::new(),
            messages: 0,
            round_ctr: 0,
        }
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

    /// All member deliveries so far, in time order.
    pub fn deliveries(&self) -> &[Delivery<R>] {
        &self.deliveries
    }

    /// Total inter-host messages.
    pub fn messages_sent(&self) -> u64 {
        self.messages
    }

    fn hop(&mut self, from: usize, to: usize) -> SimTime {
        if from == to {
            SimTime::ZERO
        } else {
            self.messages += 1;
            (self.delay)(from, to)
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev<R>) {
        match ev {
            Ev::RootTimer => {
                self.round_ctr += 1;
                let round = self.round_ctr;
                self.queue.schedule(now, Ev::Request { node: 0, round });
                self.queue.schedule_after(self.period, Ev::RootTimer);
            }
            Ev::Request { node, round } => {
                let n = &self.tree.nodes()[node as usize];
                if n.is_leaf() {
                    let r = self
                        .reporting
                        .get(&node)
                        .copied()
                        .map(|m| (self.leaf_sample)(m, now));
                    self.up(node, round, r);
                } else {
                    self.rounds[node as usize].insert(
                        round,
                        RoundBuf {
                            acc: None,
                            seen: Vec::new(),
                        },
                    );
                    let my = n.host();
                    for c in n.children() {
                        let ch = self.tree.nodes()[c as usize].host();
                        let d = self.hop(my, ch);
                        self.queue.schedule_after(d, Ev::Request { node: c, round });
                    }
                    self.queue
                        .schedule_after(self.period, Ev::Timeout { node, round });
                }
            }
            Ev::Partial {
                node,
                round,
                from,
                r,
            } => {
                let expected = self.tree.nodes()[node as usize].children().len();
                let Some(entry) = self.rounds[node as usize].get_mut(&round) else {
                    return;
                };
                // A repeated partial from the same child must not advance
                // the count past `expected` and strand the round.
                if entry.seen.contains(&from) {
                    return;
                }
                entry.seen.push(from);
                match (&mut entry.acc, r) {
                    (Some(acc), Some(r)) => acc.merge(&r),
                    (slot @ None, Some(r)) => *slot = Some(r),
                    (_, None) => {}
                }
                // `>=`: close even if the count stepped past the target.
                if entry.seen.len() >= expected {
                    let buf = self.rounds[node as usize].remove(&round).unwrap();
                    self.up(node, round, buf.acc);
                }
            }
            Ev::Timeout { node, round } => {
                if let Some(buf) = self.rounds[node as usize].remove(&round) {
                    self.up(node, round, buf.acc);
                }
            }
            Ev::Publish { node, r } => {
                let n = &self.tree.nodes()[node as usize];
                if n.is_leaf() {
                    if let Some(&m) = self.reporting.get(&node) {
                        // Hand the view to the member (one ring-neighbor hop
                        // if the leaf host is the successor).
                        let d = self.hop(n.host(), m);
                        self.deliveries.push(Delivery {
                            member: m,
                            at: self.queue.now() + d,
                            view: r,
                        });
                    }
                } else {
                    let my = n.host();
                    for c in n.children() {
                        let ch = self.tree.nodes()[c as usize].host();
                        let d = self.hop(my, ch);
                        self.queue.schedule_after(
                            d,
                            Ev::Publish {
                                node: c,
                                r: r.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Move a completed aggregate one level up — or, at the root, flip it
    /// around and publish it down the tree.
    fn up(&mut self, node: u32, round: u64, r: Option<R>) {
        let n = &self.tree.nodes()[node as usize];
        match n.parent() {
            None => {
                if let Some(view) = r {
                    self.queue
                        .schedule_after(SimTime::ZERO, Ev::Publish { node: 0, r: view });
                }
            }
            Some(p) => {
                let ph = self.tree.nodes()[p as usize].host();
                let d = self.hop(n.host(), ph);
                self.queue.schedule_after(
                    d,
                    Ev::Partial {
                        node: p,
                        round,
                        from: node,
                        r,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FreshnessReport;
    use dht::Ring;
    use netsim::HostId;

    const HOP: SimTime = SimTime::from_millis(200);
    const T: SimTime = SimTime::from_secs(5);

    fn sim_run(n: u32, horizon: u64) -> (Vec<Delivery<FreshnessReport>>, u32, u32) {
        let ring = Ring::with_random_ids((0..n).map(HostId), 21);
        let tree = SomoTree::build(&ring, 8);
        let depth = tree.depth();
        let mut sim = NewscastSim::new(
            &tree,
            &ring,
            T,
            |_m, now| FreshnessReport::of_member(now),
            |a, b| if a == b { SimTime::ZERO } else { HOP },
        );
        sim.run_until(SimTime::from_secs(horizon));
        (sim.deliveries().to_vec(), depth, n)
    }

    #[test]
    fn every_member_receives_the_global_view() {
        let (deliveries, _, n) = sim_run(120, 40);
        let mut seen = vec![false; n as usize];
        for d in &deliveries {
            seen[d.member] = true;
            assert_eq!(d.view.members, n as u64, "partial view delivered");
        }
        assert!(seen.iter().all(|&s| s), "some member never got the news");
    }

    #[test]
    fn member_view_lag_is_bounded_by_full_round_trip() {
        let (deliveries, depth, _) = sim_run(120, 60);
        // Lag = descent of the request + fetch + ascent + descent of the
        // publication + final hand-off: ≤ (3·depth + 4) hops.
        let bound = SimTime::from_micros(HOP.as_micros() * (3 * depth as u64 + 4));
        for d in &deliveries {
            let lag = d.at.saturating_sub(d.view.oldest);
            assert!(lag <= bound, "member view lag {lag} above bound {bound}");
        }
    }

    #[test]
    fn deliveries_repeat_every_period() {
        let (deliveries, _, n) = sim_run(60, 31);
        // ~6 rounds × 60 members (first round may straddle the horizon).
        assert!(deliveries.len() >= 5 * n as usize, "{}", deliveries.len());
    }

    #[test]
    fn single_member_newscast() {
        let (deliveries, _, _) = sim_run(1, 20);
        assert!(!deliveries.is_empty());
        assert_eq!(deliveries[0].member, 0);
        assert_eq!(deliveries[0].view.members, 1);
    }
}
