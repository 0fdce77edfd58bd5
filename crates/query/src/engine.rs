//! Point, range and top-k queries over the cached aggregate lattice.
//!
//! Every query is a **descent**: it starts at a scope node (the root, or
//! the requester's nearest ancestor that provably covers the demand) and
//! walks down the SOMO tree, pruning each subtree whose cached
//! [`Aggregate`] proves it cannot contribute to the answer. Pruning is what
//! buys the asymptotics — a top-k descent touches `O(k·log_k N)` nodes
//! where a snapshot gather touches all `N`.
//!
//! **Exactness.** The top-k descent is branch-and-bound with ties
//! *expanded, never pruned*: a subtree is skipped only when its cached
//! maximum is *strictly* below the current kth-best free degree. Combined
//! with the final total order (free degree desc, host id asc) this makes
//! the answer bit-identical to a brute-force scan of the same samples —
//! the property the cross-crate proptests pin down.
//!
//! **Freshness.** Answers are served from cache, so they can lag reality.
//! Each answer carries a [`Freshness`] stamp: the oldest sample time folded
//! into the consulted scope, plus the a-priori bound from
//! [`somo::flow::unsync_staleness_bound`] — the paper's `ceil(log_k N)·T`.
//! A consumer can reject an answer whose bound exceeds its tolerance
//! without any extra round-trip.
//!
//! **Traffic model.** Same conventions as [`somo::flow::GatherSim`]:
//! same-host hops are free. A node holds its children's aggregates in cache
//! (the gather pushed them up), so inspecting a child's summary costs
//! nothing — only *entering* a child across an inter-host edge is charged:
//! one request down ([`REQUEST_WIRE_BYTES`]) and one partial answer up
//! ([`Aggregate::WIRE_BYTES`]). Each returned sample additionally rides the
//! partials across the inter-host edges between its leaf and the scope
//! node ([`HostSample::WIRE_BYTES`] each). Pruned subtrees are decided from
//! the cached summaries and cost zero bytes — that is where the
//! `O(k·log_k N)` wire cost comes from.

use netsim::HostId;
use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::aggregate::{Aggregate, HostSample};
use crate::index::QueryIndex;

/// Wire size charged per query request forwarded down the tree.
pub const REQUEST_WIRE_BYTES: usize = 40;

impl HostSample {
    /// Fixed wire size of one sample riding in an answer:
    /// host (4) + free (16) + pos (16) + bw class (1) + stamp (8) +
    /// capacity (4) + queued (4) + preempted (4).
    pub const WIRE_BYTES: usize = 57;
}

/// Where a query descent starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Descend from the SOMO root: answers are exact over the whole pool.
    Global,
    /// Ascend from this ring member's canonical leaf to the nearest
    /// ancestor whose aggregate already guarantees the demand, then descend
    /// only that subtree — the paper's locality discipline ("most of the
    /// requests can be resolved in the lower part of the hierarchy").
    Nearest {
        /// The requesting ring member.
        member: u32,
    },
}

/// A query, as shipped to the scope node's host.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// Look up one host's latest published sample.
    Point {
        /// The host to look up.
        host: HostId,
    },
    /// All hosts within `radius` ms of `center` offering at least
    /// `min_free` degrees at `rank`.
    Range {
        /// Disk center in coordinate space (ms).
        center: [f64; 2],
        /// Disk radius (ms).
        radius: f64,
        /// Claim rank the availability filter applies to (0..=3).
        rank: u8,
        /// Minimum free degree at `rank`.
        min_free: u32,
    },
    /// The `k` hosts with the most free degree at `rank` (ties broken by
    /// host id ascending), excluding `exclude`.
    TopK {
        /// How many hosts to return.
        k: u32,
        /// Claim rank to maximize availability at (0..=3).
        rank: u8,
        /// Minimum free degree for a host to qualify.
        min_free: u32,
        /// Hosts to leave out (e.g. session members already in the tree).
        exclude: Vec<HostId>,
        /// Where the descent starts.
        scope: Scope,
    },
}

/// How stale an answer can be, stated explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Freshness {
    /// The oldest sample time folded into the consulted scope
    /// (`SimTime::MAX` when the scope was empty).
    pub oldest: SimTime,
    /// A-priori staleness bound of the serving index:
    /// `ceil(log_k N) · T` per [`somo::flow::unsync_staleness_bound`].
    pub bound: SimTime,
}

impl Freshness {
    /// Whether the consulted scope contained no samples at all.
    pub fn empty_scope(&self) -> bool {
        self.oldest == SimTime::MAX
    }

    /// Observed staleness of the answer at time `now`.
    ///
    /// An **empty** consulted scope proves nothing about the pool, so it
    /// reports the a-priori `bound` — the worst staleness the serving
    /// surface admits — rather than the `ZERO` ("perfectly fresh") it used
    /// to claim. An operator dashboard watching an empty answer sees the
    /// honest uncertainty, not false confidence; use
    /// [`Freshness::empty_scope`] to distinguish the two cases explicitly.
    pub fn staleness(&self, now: SimTime) -> SimTime {
        if self.empty_scope() {
            self.bound
        } else {
            now.saturating_sub(self.oldest)
        }
    }
}

/// Work and traffic accounting for one query evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Logical tree nodes expanded.
    pub nodes_visited: u64,
    /// Reporting leaves whose samples were inspected.
    pub leaves_scanned: u64,
    /// Subtrees pruned via cached aggregates.
    pub subtrees_pruned: u64,
    /// Inter-host messages charged.
    pub messages: u64,
    /// Bytes on the wire charged.
    pub bytes: u64,
}

/// The answer to a [`QueryRequest`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The request this answers.
    pub request: QueryRequest,
    /// Matching samples. Point: zero or one. Range and top-k: sorted by
    /// (free degree at the requested rank desc, host id asc).
    pub hosts: Vec<HostSample>,
    /// Aggregate over the consulted scope (range answers additionally use
    /// it to report the match summary).
    pub summary: Aggregate,
    /// Explicit staleness statement for this answer.
    pub freshness: Freshness,
    /// Evaluation cost.
    pub stats: QueryStats,
}

impl QueryIndex {
    /// Look up one host's latest published sample by descending from the
    /// root along the path to its canonical leaf.
    pub fn point(&mut self, host: HostId) -> QueryAnswer {
        let mut stats = QueryStats::default();
        let mut hosts = Vec::new();
        let mut oldest = SimTime::MAX;
        if let Some(m) = self.member_of(host) {
            // Walk root → leaf, charging each inter-host hop: request
            // down, answer up.
            let leaf = self.leaf_of[m];
            let hops = self.edges_between(leaf, 0);
            stats.nodes_visited = u64::from(self.level(leaf)) + 1;
            stats.messages = 2 * hops;
            stats.bytes = hops * (REQUEST_WIRE_BYTES + HostSample::WIRE_BYTES) as u64;
            stats.leaves_scanned = 1;
            if let Some(s) = &self.samples[m] {
                oldest = s.sampled_at;
                hosts.push(*s);
            }
        }
        let summary = self.root_aggregate().clone();
        self.answer(QueryRequest::Point { host }, hosts, summary, oldest, stats)
    }

    /// All hosts within `radius` ms of `center` with at least `min_free`
    /// degrees at `rank`, pruning subtrees via the cached region and degree
    /// histograms. Matches sorted by (free desc, host asc).
    pub fn range(
        &mut self,
        center: [f64; 2],
        radius: f64,
        rank: usize,
        min_free: u32,
    ) -> QueryAnswer {
        assert!(rank < 4, "rank out of range");
        let request = QueryRequest::Range {
            center,
            radius,
            rank: rank as u8,
            min_free,
        };
        let mut stats = QueryStats::default();
        let mut matches: Vec<HostSample> = Vec::new();
        let mut summary = Aggregate::empty();
        let mut stack = vec![0u32];
        while let Some(cur) = stack.pop() {
            // A leaf's aggregate is its one sample's: its maximum is the
            // sample's free degree, its region histogram the sample's cell.
            let may_match = match self.cached(cur) {
                Some(agg) => {
                    agg.free[rank].max >= min_free
                        && agg.region_hist.iter().enumerate().any(|(cell, &count)| {
                            count > 0 && self.cell_intersects(cell, center, radius)
                        })
                }
                None => self.reported(cur).is_some_and(|s| {
                    s.free[rank] >= min_free
                        && self.cell_intersects(self.bounds.bucket(s.pos), center, radius)
                }),
            };
            if !may_match {
                stats.subtrees_pruned += 1;
                continue;
            }
            stats.nodes_visited += 1;
            self.charge_expansion(cur, 0, &mut stats);
            if let Some(s) = self.reported(cur) {
                stats.leaves_scanned += 1;
                if s.free[rank] >= min_free && dist(s.pos, center) <= radius {
                    summary.add_sample(s, &self.bounds);
                    stats.bytes += self.edges_between(cur, 0) * HostSample::WIRE_BYTES as u64;
                    matches.push(*s);
                }
            }
            stack.extend(self.children(cur));
        }
        matches.sort_by(|a, b| b.free[rank].cmp(&a.free[rank]).then(a.host.cmp(&b.host)));
        let oldest = summary.oldest;
        self.answer(request, matches, summary, oldest, stats)
    }

    /// The `k` qualifying hosts with the most free degree at `rank`.
    ///
    /// Branch-and-bound descent from the scope node: a subtree is expanded
    /// whenever its cached `free[rank].max` is **at least** the current
    /// kth-best match (strictly-worse subtrees are pruned), which makes the
    /// final (free desc, host asc) order exactly equal to a brute-force
    /// scan of the same samples. `k = 0` asks for nothing and is answered
    /// from the scope summary alone: no descent, nothing charged.
    pub fn top_k(
        &mut self,
        k: usize,
        rank: usize,
        min_free: u32,
        exclude: &[HostId],
        scope: Scope,
    ) -> QueryAnswer {
        assert!(rank < 4, "rank out of range");
        let request = QueryRequest::TopK {
            k: k as u32,
            rank: rank as u8,
            min_free,
            exclude: exclude.to_vec(),
            scope,
        };
        let mut stats = QueryStats::default();
        let scope_node = self.scope_node(k, min_free, scope, &mut stats);
        let matches = if k == 0 {
            Vec::new()
        } else {
            self.best_first(k, rank, min_free, exclude, scope_node, &mut stats)
        };
        // Final hop: the scope node's host returns the answer to the
        // requester (charged only when they differ).
        if let Scope::Nearest { member } = scope {
            if !self.same_host(scope_node, self.leaf_of[member as usize]) {
                stats.messages += 1;
                stats.bytes +=
                    (Aggregate::WIRE_BYTES + matches.len() * HostSample::WIRE_BYTES) as u64;
            }
        }
        let summary = self.aggregate(scope_node);
        let oldest = summary.oldest;
        self.answer(request, matches, summary, oldest, stats)
    }

    /// The descent behind [`Self::top_k`]: best-first expansion from
    /// `scope_node`, ordered by subtree maximum (ties by node index for
    /// determinism). Returns the matches in answer order.
    fn best_first(
        &self,
        k: usize,
        rank: usize,
        min_free: u32,
        exclude: &[HostId],
        scope_node: u32,
        stats: &mut QueryStats,
    ) -> Vec<HostSample> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut exclude = exclude.to_vec();
        exclude.sort_unstable();
        let mut heap: BinaryHeap<(u32, Reverse<u32>)> = BinaryHeap::new();
        heap.push((self.max_free(scope_node, rank), Reverse(scope_node)));
        let mut matches: Vec<HostSample> = Vec::new();
        // Min-heap of the k best free degrees seen so far; its top is the
        // pruning threshold once k matches exist.
        let mut best: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        while let Some((max, Reverse(cur))) = heap.pop() {
            let threshold = match best.peek() {
                Some(&Reverse(kth)) if best.len() >= k => kth,
                _ => 0,
            };
            if max < threshold || max < min_free {
                stats.subtrees_pruned += 1 + heap.len() as u64;
                break; // heap is max-ordered: nothing left can qualify
            }
            if self.is_empty(cur) {
                stats.subtrees_pruned += 1;
                continue;
            }
            stats.nodes_visited += 1;
            self.charge_expansion(cur, scope_node, stats);
            if let Some(s) = self.reported(cur) {
                stats.leaves_scanned += 1;
                if s.free[rank] >= min_free && exclude.binary_search(&s.host).is_err() {
                    if best.len() >= k {
                        best.pop();
                    }
                    best.push(Reverse(s.free[rank]));
                    // The sample rides the partial answers up to the scope
                    // node: bytes only, no extra messages.
                    stats.bytes +=
                        self.edges_between(cur, scope_node) * HostSample::WIRE_BYTES as u64;
                    matches.push(*s);
                }
            }
            for c in self.children(cur) {
                heap.push((self.max_free(c, rank), Reverse(c)));
            }
        }
        matches.sort_by(|a, b| b.free[rank].cmp(&a.free[rank]).then(a.host.cmp(&b.host)));
        matches.truncate(k);
        matches
    }

    /// Resolve a [`Scope`] to the node the descent starts at. `Nearest`
    /// climbs from the member's canonical leaf until the aggregate there
    /// guarantees at least `k` hosts at `min_free.max(1)` free degree (each
    /// upward hop is a charged request).
    fn scope_node(&self, k: usize, min_free: u32, scope: Scope, stats: &mut QueryStats) -> u32 {
        let Scope::Nearest { member } = scope else {
            return 0;
        };
        let need = min_free.max(1);
        let mut cur = self.leaf_of[member as usize];
        loop {
            if self.aggregate(cur).guaranteed_at_least(need) >= k as u64 {
                return cur;
            }
            let Some(p) = self.parent(cur) else {
                return cur;
            };
            if self.crosses_hosts(cur) {
                stats.messages += 1;
                stats.bytes += REQUEST_WIRE_BYTES as u64;
            }
            cur = p;
        }
    }

    /// Charge entering `node` from its parent during a descent rooted at
    /// `scope`: one request down and one partial answer back across the
    /// parent edge, if it is inter-host. Sibling summaries are already
    /// cached at the parent (the gather put them there), so deciding *not*
    /// to enter a child is free — only traversed edges cost bytes.
    fn charge_expansion(&self, node: u32, scope: u32, stats: &mut QueryStats) {
        // The descent starts at `scope`: no edge was crossed to reach it.
        if node != scope && self.crosses_hosts(node) {
            stats.messages += 2;
            stats.bytes += (REQUEST_WIRE_BYTES + Aggregate::WIRE_BYTES) as u64;
        }
    }

    /// Whether one cell of the region grid intersects the query disk — the
    /// geometric pruning test for range queries.
    fn cell_intersects(&self, cell: usize, center: [f64; 2], radius: f64) -> bool {
        let (lo, hi) = self.bounds.bucket_box(cell);
        let cx = center[0].clamp(lo[0], hi[0]);
        let cy = center[1].clamp(lo[1], hi[1]);
        dist([cx, cy], center) <= radius
    }

    /// Charge the evaluation to the query ledger and stamp the answer.
    fn answer(
        &mut self,
        request: QueryRequest,
        hosts: Vec<HostSample>,
        summary: Aggregate,
        oldest: SimTime,
        stats: QueryStats,
    ) -> QueryAnswer {
        self.query_traffic.messages += stats.messages;
        self.query_traffic.bytes += stats.bytes;
        QueryAnswer {
            request,
            hosts,
            summary,
            freshness: Freshness {
                oldest,
                bound: self.freshness_bound(),
            },
            stats,
        }
    }
}

fn dist(a: [f64; 2], b: [f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::RegionBounds;
    use dht::Ring;

    fn sample(m: usize, free3: u32, pos: [f64; 2]) -> HostSample {
        HostSample {
            host: HostId(m as u32),
            free: [free3 + 3, free3 + 2, free3 + 1, free3],
            pos,
            bw_class: (m % 5) as u8,
            sampled_at: SimTime::from_secs(10 + (m as u64 % 7)),
            capacity: free3 + 4,
            queued: 0,
            preempted: 0,
        }
    }

    fn build(n: u32, seed: u64) -> QueryIndex {
        let ring = Ring::with_random_ids((0..n).map(netsim::HostId), seed);
        QueryIndex::build(
            &ring,
            4,
            SimTime::from_secs(5),
            RegionBounds::default(),
            |m| {
                Some(sample(
                    m,
                    ((m * 31) % 23) as u32,
                    [
                        ((m * 13) % 160) as f64 - 80.0,
                        ((m * 29) % 160) as f64 - 80.0,
                    ],
                ))
            },
        )
    }

    fn brute_top_k(idx: &QueryIndex, k: usize, rank: usize, min_free: u32) -> Vec<HostId> {
        let mut all: Vec<HostSample> = (0..idx.members())
            .filter_map(|m| idx.sample(m).copied())
            .collect();
        all.retain(|s| s.free[rank] >= min_free);
        all.sort_by(|a, b| b.free[rank].cmp(&a.free[rank]).then(a.host.cmp(&b.host)));
        all.truncate(k);
        all.into_iter().map(|s| s.host).collect()
    }

    #[test]
    fn top_k_matches_brute_force() {
        let mut idx = build(200, 42);
        for (k, min_free) in [(1, 0), (5, 0), (10, 4), (50, 1), (500, 0)] {
            let ans = idx.top_k(k, 3, min_free, &[], Scope::Global);
            let got: Vec<HostId> = ans.hosts.iter().map(|s| s.host).collect();
            assert_eq!(
                got,
                brute_top_k(&idx, k, 3, min_free),
                "k={k} min={min_free}"
            );
        }
    }

    #[test]
    fn top_k_prunes_most_of_the_tree() {
        let mut idx = build(512, 7);
        let ans = idx.top_k(5, 3, 0, &[], Scope::Global);
        assert_eq!(ans.hosts.len(), 5);
        // The whole point: far fewer leaves scanned than members.
        assert!(
            ans.stats.leaves_scanned < idx.members() as u64 / 4,
            "scanned {} of {} members",
            ans.stats.leaves_scanned,
            idx.members()
        );
        assert!(ans.stats.subtrees_pruned > 0);
    }

    #[test]
    fn top_k_respects_exclusions() {
        let mut idx = build(100, 9);
        let full = idx.top_k(3, 3, 0, &[], Scope::Global);
        let banned: Vec<HostId> = full.hosts.iter().map(|s| s.host).collect();
        let ans = idx.top_k(3, 3, 0, &banned, Scope::Global);
        for s in &ans.hosts {
            assert!(!banned.contains(&s.host));
        }
        assert_eq!(ans.hosts.len(), 3);
    }

    #[test]
    fn nearest_scope_still_returns_k_when_possible() {
        let mut idx = build(300, 21);
        let ans = idx.top_k(8, 3, 1, &[], Scope::Nearest { member: 17 });
        assert_eq!(ans.hosts.len(), 8, "nearest scope starved the query");
        for s in &ans.hosts {
            assert!(s.free[3] >= 1);
        }
    }

    #[test]
    fn top_k_of_zero_hosts_descends_nowhere_and_charges_nothing() {
        // `best.len() >= 0` holds from the start, so the descent used to
        // run until its first match set a threshold: on this ring 60 nodes
        // visited, 110 messages and 26 088 bytes billed from the root for
        // an answer that cannot hold a host.
        let mut idx = build(300, 21);
        for scope in [Scope::Global, Scope::Nearest { member: 17 }] {
            let ans = idx.top_k(0, 2, 1, &[], scope);
            assert!(ans.hosts.is_empty());
            assert_eq!(ans.stats, QueryStats::default(), "{scope:?}");
            assert_eq!(ans.freshness.bound, idx.freshness_bound());
            assert_eq!(ans.freshness.oldest, ans.summary.oldest);
        }
        assert_eq!(idx.query_traffic().messages, 0);
        assert_eq!(idx.query_traffic().bytes, 0);
        // The summary is still the scope's: the whole pool from the root,
        // the requester's own leaf from `Nearest` (k = 0 is guaranteed
        // anywhere, so the climb never starts).
        let global = idx.top_k(0, 2, 1, &[], Scope::Global);
        assert_eq!(&global.summary, idx.root_aggregate());
        let near = idx.top_k(0, 2, 1, &[], Scope::Nearest { member: 17 });
        assert_eq!(near.summary, idx.aggregate(idx.leaf_of(17)));
    }

    #[test]
    fn point_query_finds_the_host() {
        let mut idx = build(100, 3);
        let ans = idx.point(HostId(42));
        assert_eq!(ans.hosts.len(), 1);
        assert_eq!(ans.hosts[0].host, HostId(42));
        let missing = idx.point(HostId(9999));
        assert!(missing.hosts.is_empty());
    }

    #[test]
    fn range_query_matches_filtered_scan() {
        let mut idx = build(250, 5);
        let center = [0.0, 0.0];
        let radius = 60.0;
        let min_free = 3;
        let ans = idx.range(center, radius, 3, min_free);
        let mut want: Vec<HostSample> = (0..idx.members())
            .filter_map(|m| idx.sample(m).copied())
            .filter(|s| s.free[3] >= min_free && dist(s.pos, center) <= radius)
            .collect();
        want.sort_by(|a, b| b.free[3].cmp(&a.free[3]).then(a.host.cmp(&b.host)));
        assert_eq!(ans.hosts, want);
        assert_eq!(ans.summary.hosts, want.len() as u64);
    }

    #[test]
    fn answers_carry_freshness_bounds() {
        let mut idx = build(128, 2);
        let ans = idx.top_k(4, 3, 0, &[], Scope::Global);
        assert_eq!(ans.freshness.bound, idx.freshness_bound());
        // Samples were stamped 10..17 s; staleness at t=30 is ≤ 20 s and
        // oldest is the true minimum over the pool.
        assert_eq!(
            ans.freshness.oldest,
            (0..idx.members())
                .filter_map(|m| idx.sample(m))
                .map(|s| s.sampled_at)
                .min()
                .unwrap()
        );
        assert!(ans.freshness.staleness(SimTime::from_secs(30)) <= SimTime::from_secs(20));
        assert!(!ans.freshness.empty_scope());
    }

    #[test]
    fn empty_scope_staleness_reports_the_bound_not_zero() {
        let mut idx = build(64, 2);
        // A point query for an unknown host consults nothing.
        let ans = idx.point(HostId(9999));
        assert!(ans.hosts.is_empty());
        assert!(ans.freshness.empty_scope());
        let bound = ans.freshness.bound;
        assert!(bound > SimTime::ZERO);
        // An empty answer proves nothing — it must admit the a-priori
        // bound at any `now`, never claim perfect freshness.
        assert_eq!(ans.freshness.staleness(SimTime::from_secs(30)), bound);
        assert_eq!(ans.freshness.staleness(SimTime::ZERO), bound);
    }

    #[test]
    fn query_traffic_is_accounted() {
        let mut idx = build(256, 8);
        assert_eq!(idx.query_traffic().bytes, 0);
        let ans = idx.top_k(5, 3, 0, &[], Scope::Global);
        assert_eq!(idx.query_traffic().bytes, ans.stats.bytes);
        assert!(ans.stats.bytes > 0);
        idx.reset_query_traffic();
        assert_eq!(idx.query_traffic().messages, 0);
    }
}
