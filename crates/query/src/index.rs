//! The incrementally-maintained aggregate index over a SOMO tree.
//!
//! A [`QueryIndex`] answers for every logical SOMO node with the
//! [`Aggregate`] of its subtree: the summary of every member whose
//! canonical leaf lies below it. Maintenance is incremental — when a member
//! republishes its [`HostSample`], only the leaf→root path is recomputed
//! (`O(k·log_k N)` merges, `O(log_k N)` messages on the wire) — exactly the
//! update discipline §3.2 prescribes for SOMO reports, just with a richer
//! report type.
//!
//! **Layout.** Most logical nodes are leaves and most leaves are empty (a
//! ring of 2048 random ids at k = 8 has ≈ 7 700 nodes: ≈ 960 internal and
//! ≈ 6 700 leaves, of which ≈ 4 700 report nobody), and a leaf's aggregate
//! is a pure function of the at most one sample it reports. So an [`Aggregate`] is *cached* only at
//! the internal nodes (and always at the root, which at n = 1 is itself the
//! reporting leaf); a leaf's is derived from its sample on demand. Of the
//! [`SomoTree`] the index keeps 24 bytes per node — see `Node` — and drops
//! the rest after [`QueryIndex::build`]. DESIGN.md §10.2 has the before /
//! after and the arguments the layout rests on.
//!
//! The index also carries the metadata needed to turn a cached view into a
//! *bounded-staleness* answer: the gather period it is refreshed at, from
//! which [`QueryIndex::freshness_bound`] derives the paper's
//! `ceil(log_k N)·T` staleness bound (see [`somo::flow`]).

use std::collections::HashMap;
use std::ops::Range;

use dht::Ring;
use netsim::HostId;
use simcore::SimTime;
use somo::traffic::TrafficLedger;
use somo::{Report, SomoTree};

use crate::aggregate::{Aggregate, HostSample, RegionBounds};

/// "No such node / member / slot" in the flat arrays. Out of range for
/// every array it could index, so a `get` doubles as the check.
const NONE: u32 = u32::MAX;

/// What the index reads of one logical SOMO node, index-aligned with
/// [`SomoTree::nodes`] (so a parent always precedes its children).
#[derive(Clone, Copy)]
struct Node {
    /// Parent node (`NONE` for the root).
    parent: u32,
    /// First of the `fanout` consecutive children (`NONE` for a leaf).
    first_child: u32,
    /// Ring member hosting the node.
    host: u32,
    /// Ring member reporting through this leaf (`NONE` for an internal
    /// node or a leaf no member's id falls in).
    member: u32,
    /// Slot of the cached aggregate in `QueryIndex::aggs` (`NONE` for a
    /// leaf other than the root).
    agg: u32,
    /// Depth in the tree (root = 0).
    level: u8,
    /// Inter-host edges on the path to the root.
    edges: u8,
    /// Whether the edge to the parent joins two different hosts — the
    /// edges that cost a message; same-host hops are free.
    crosses_hosts: bool,
}

/// Subtree aggregates over a SOMO tree, maintained incrementally.
pub struct QueryIndex {
    fanout: usize,
    pub(crate) bounds: RegionBounds,
    period: SimTime,
    nodes: Vec<Node>,
    /// Cached aggregates, one per internal node (plus the root), in node
    /// order; `Node::agg` is the slot.
    aggs: Vec<Aggregate>,
    /// Latest published sample per ring member (`None` = silent/dead).
    pub(crate) samples: Vec<Option<HostSample>>,
    /// Ring member → its canonical reporting leaf.
    pub(crate) leaf_of: Vec<u32>,
    /// Host label → ring member index (for point lookups).
    member_of_host: HashMap<HostId, u32>,
    /// Upward maintenance traffic (full builds + incremental updates).
    maintenance: TrafficLedger,
    /// Downward query traffic (descents + answers).
    pub(crate) query_traffic: TrafficLedger,
}

impl QueryIndex {
    /// Build the index over the current ring membership. `sample(m)`
    /// produces member `m`'s current published sample (`None` for a member
    /// that has not reported / is down); a host label is published by at
    /// most one member. `period` is the reporting interval the samples are
    /// refreshed at — the `T` of the staleness bound.
    pub fn build(
        ring: &Ring,
        fanout: usize,
        period: SimTime,
        bounds: RegionBounds,
        mut sample: impl FnMut(usize) -> Option<HostSample>,
    ) -> QueryIndex {
        let tree = SomoTree::build(ring, fanout);
        let mut nodes: Vec<Node> = Vec::with_capacity(tree.len());
        let mut cached = 0u32;
        for (i, n) in tree.nodes().iter().enumerate() {
            let (parent, edges, crosses_hosts) = match n.parent() {
                None => (NONE, 0, false),
                Some(p) => {
                    let crosses = tree.nodes()[p as usize].host() != n.host();
                    (p, nodes[p as usize].edges + u8::from(crosses), crosses)
                }
            };
            let children = n.children();
            assert!(
                children.is_empty() || children.len() == fanout,
                "SomoTree::build splits a region into {fanout} children"
            );
            let first_child = if children.is_empty() {
                NONE
            } else {
                children.start
            };
            let agg = if i == 0 || !n.is_leaf() {
                cached += 1;
                cached - 1
            } else {
                NONE
            };
            nodes.push(Node {
                parent,
                first_child,
                host: n.host() as u32,
                member: NONE,
                agg,
                // 64-bit ids split at least in two per level: at most 64.
                level: u8::try_from(n.level()).expect("a SOMO tree is at most 64 levels deep"),
                edges,
                crosses_hosts,
            });
        }
        let mut leaf_of = Vec::with_capacity(ring.len());
        for m in 0..ring.len() {
            let leaf = tree.canonical_leaf_of(ring.member(m).id);
            leaf_of.push(leaf);
            let prev = std::mem::replace(&mut nodes[leaf as usize].member, m as u32);
            debug_assert!(prev == NONE, "two members share a canonical leaf");
        }
        let samples: Vec<Option<HostSample>> = (0..ring.len()).map(&mut sample).collect();
        let mut member_of_host = HashMap::new();
        for (m, s) in samples.iter().enumerate() {
            if let Some(s) = s {
                member_of_host.insert(s.host, m as u32);
            }
        }
        let mut idx = QueryIndex {
            fanout,
            bounds,
            period,
            nodes,
            aggs: vec![Aggregate::empty(); cached as usize],
            samples,
            leaf_of,
            member_of_host,
            maintenance: TrafficLedger::default(),
            query_traffic: TrafficLedger::default(),
        };
        idx.rebuild_all();
        idx
    }

    /// Recompute every cached aggregate bottom-up and account one full
    /// gather round of maintenance traffic (each inter-host tree edge ships
    /// one fixed-size aggregate).
    pub fn rebuild_all(&mut self) {
        // A parent precedes its children in node order, so in reverse order
        // every child is final before its parent gathers it.
        for i in (0..self.nodes.len() as u32).rev() {
            if self.nodes[i as usize].agg != NONE {
                self.recompute(i);
            }
            // Traffic: every non-root node with a non-empty subtree pushes
            // its aggregate to its parent; same-host hops are free
            // (GatherSim's convention).
            if self.crosses_hosts(i) && !self.is_empty(i) {
                self.maintenance.record(Aggregate::WIRE_BYTES);
            }
        }
    }

    /// One full periodic gather round: every member republishes its sample
    /// and the whole aggregate cache is recomputed bottom-up, charging one
    /// fixed-size aggregate per inter-host tree edge (the batched
    /// once-per-period cost — per-member deltas go through
    /// [`Self::update_member`] instead).
    pub fn refresh(&mut self, mut sample: impl FnMut(usize) -> Option<HostSample>) {
        for m in 0..self.samples.len() {
            self.publish(m, sample(m));
        }
        self.rebuild_all();
    }

    /// Replace member `m`'s published sample and refresh the cached
    /// aggregates on its leaf→root path (`None` withdraws the member, e.g.
    /// on crash). `O(k·log_k N)` merges; one aggregate crosses each
    /// inter-host edge of the path.
    pub fn update_member(&mut self, m: usize, sample: Option<HostSample>) {
        self.publish(m, sample);
        let leaf = self.leaf_of[m];
        let mut cur = leaf;
        while cur != NONE {
            if self.nodes[cur as usize].agg != NONE {
                self.recompute(cur);
            }
            cur = self.nodes[cur as usize].parent;
        }
        let edges = self.edges_between(leaf, 0);
        self.maintenance.messages += edges;
        self.maintenance.bytes += edges * Aggregate::WIRE_BYTES as u64;
    }

    /// Store member `m`'s new sample, keeping the host-label map in step.
    /// A member that republishes under the label it already holds — every
    /// member, every round, in steady state — hashes nothing.
    fn publish(&mut self, m: usize, sample: Option<HostSample>) {
        let old = self.samples[m].map(|s| s.host);
        let new = sample.map(|s| s.host);
        if old != new {
            if let Some(h) = new {
                self.member_of_host.insert(h, m as u32);
            } else if let Some(h) = old {
                self.member_of_host.remove(&h);
            }
        }
        self.samples[m] = sample;
    }

    /// Recompute one cached aggregate from the node's (already current)
    /// children, plus its own member's sample where the root is itself the
    /// reporting leaf. Leaf children fold their sample straight in.
    fn recompute(&mut self, i: u32) {
        let mut acc = Aggregate::empty();
        if let Some(s) = self.reported(i) {
            acc.add_sample(s, &self.bounds);
        }
        for c in self.children(i) {
            if let Some(child) = self.cached(c) {
                acc.merge(child);
            } else if let Some(s) = self.reported(c) {
                acc.add_sample(s, &self.bounds);
            }
        }
        let slot = self.nodes[i as usize].agg;
        self.aggs[slot as usize] = acc;
    }

    /// The sample published through `node`, if it is a reporting leaf whose
    /// member is not silent.
    pub(crate) fn reported(&self, node: u32) -> Option<&HostSample> {
        let member = self.nodes[node as usize].member;
        self.samples.get(member as usize)?.as_ref()
    }

    /// The cached aggregate of an internal node (or the root); `None` for
    /// any other leaf.
    pub(crate) fn cached(&self, node: u32) -> Option<&Aggregate> {
        self.aggs.get(self.nodes[node as usize].agg as usize)
    }

    /// Whether no member reports below `node`.
    pub(crate) fn is_empty(&self, node: u32) -> bool {
        match self.cached(node) {
            Some(agg) => agg.is_empty(),
            None => self.reported(node).is_none(),
        }
    }

    /// The largest free degree at `rank` below `node` (0 when empty).
    pub(crate) fn max_free(&self, node: u32, rank: usize) -> u32 {
        match self.cached(node) {
            Some(agg) => agg.free[rank].max,
            None => self.reported(node).map_or(0, |s| s.free[rank]),
        }
    }

    /// Whether the edge from `node` to its parent joins two different hosts
    /// (`false` for the root): the edges that cost a message.
    pub(crate) fn crosses_hosts(&self, node: u32) -> bool {
        self.nodes[node as usize].crosses_hosts
    }

    /// Whether two logical nodes are hosted by the same ring member.
    pub(crate) fn same_host(&self, a: u32, b: u32) -> bool {
        self.nodes[a as usize].host == self.nodes[b as usize].host
    }

    /// Depth of `node` in the tree (root = 0).
    pub(crate) fn level(&self, node: u32) -> u32 {
        u32::from(self.nodes[node as usize].level)
    }

    /// Inter-host edges on the path from `node` up to its ancestor `top` —
    /// what a payload riding between the two is charged for. The one place
    /// that knows: maintenance, sample returns, point lookups and
    /// subscription deltas all charge through it.
    pub(crate) fn edges_between(&self, node: u32, top: u32) -> u64 {
        u64::from(self.nodes[node as usize].edges - self.nodes[top as usize].edges)
    }

    /// The parent of a logical node (`None` for the root, node 0).
    pub fn parent(&self, node: u32) -> Option<u32> {
        let parent = self.nodes[node as usize].parent;
        (parent != NONE).then_some(parent)
    }

    /// The children of a logical node (empty for a leaf).
    pub fn children(&self, node: u32) -> Range<u32> {
        match self.nodes[node as usize].first_child {
            NONE => 0..0,
            first => first..first + self.fanout as u32,
        }
    }

    /// The aggregate of one logical node's subtree: the cached one for an
    /// internal node, derived from the reported sample for a leaf.
    pub fn aggregate(&self, node: u32) -> Aggregate {
        match self.cached(node) {
            Some(agg) => agg.clone(),
            None => self
                .reported(node)
                .map_or_else(Aggregate::empty, |s| Aggregate::of_sample(s, &self.bounds)),
        }
    }

    /// The whole-pool aggregate (cached at the root).
    pub fn root_aggregate(&self) -> &Aggregate {
        &self.aggs[0]
    }

    /// Member `m`'s latest published sample.
    pub fn sample(&self, m: usize) -> Option<&HostSample> {
        self.samples[m].as_ref()
    }

    /// Number of ring members the index was built over.
    pub fn members(&self) -> usize {
        self.samples.len()
    }

    /// Member `m`'s canonical reporting leaf.
    pub fn leaf_of(&self, m: usize) -> u32 {
        self.leaf_of[m]
    }

    /// The reporting member behind a leaf, if any.
    pub fn member_of_leaf(&self, leaf: u32) -> Option<usize> {
        let member = self.nodes[leaf as usize].member;
        (member != NONE).then_some(member as usize)
    }

    /// The ring member currently publishing as host `h`, if any — the hook
    /// a task manager uses to anchor a [`crate::Scope::Nearest`] descent at
    /// its own position in the tree.
    pub fn member_of(&self, h: HostId) -> Option<usize> {
        self.member_of_host.get(&h).map(|&m| m as usize)
    }

    /// The staleness bound attached to every answer served from this index:
    /// the paper's unsynchronized gather bound `ceil(log_k N)·T` — cached
    /// data can lag a member's truth by at most one report per level.
    pub fn freshness_bound(&self) -> SimTime {
        somo::flow::unsync_staleness_bound(self.samples.len(), self.fanout, self.period)
    }

    /// Upward maintenance traffic accounted so far.
    pub fn maintenance_traffic(&self) -> TrafficLedger {
        self.maintenance
    }

    /// Query traffic (descents + answers) accounted so far.
    pub fn query_traffic(&self) -> TrafficLedger {
        self.query_traffic
    }

    /// Reset the query-traffic ledger (benches measure per-window rates).
    pub fn reset_query_traffic(&mut self) {
        self.query_traffic = TrafficLedger::default();
    }

    /// Bytes resident in the index's backing storage: the per-node words,
    /// the cached aggregates, the samples and the two member maps.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        // hashbrown keeps `capacity · 8/7` buckets of one entry and one
        // control byte each, plus one trailing control group.
        let map_buckets = self.member_of_host.capacity() * 8 / 7;
        self.nodes.capacity() * size_of::<Node>()
            + self.aggs.capacity() * size_of::<Aggregate>()
            + self.samples.capacity() * size_of::<Option<HostSample>>()
            + self.leaf_of.capacity() * size_of::<u32>()
            + map_buckets * (size_of::<(HostId, u32)>() + 1)
            + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(m: usize, free3: u32) -> HostSample {
        HostSample {
            host: HostId(m as u32),
            free: [free3 + 3, free3 + 2, free3 + 1, free3],
            pos: [
                (m as f64 % 19.0) * 10.0 - 90.0,
                (m as f64 % 7.0) * 20.0 - 60.0,
            ],
            bw_class: (m % 5) as u8,
            sampled_at: SimTime::from_secs(1),
            capacity: free3 + 4,
            queued: 0,
            preempted: 0,
        }
    }

    fn build(n: u32, seed: u64) -> (Ring, QueryIndex) {
        let ring = Ring::with_random_ids((0..n).map(HostId), seed);
        let idx = QueryIndex::build(
            &ring,
            4,
            SimTime::from_secs(5),
            RegionBounds::default(),
            |m| Some(sample(m, (m % 9) as u32)),
        );
        (ring, idx)
    }

    #[test]
    fn root_aggregate_counts_every_member() {
        let (ring, idx) = build(100, 11);
        assert_eq!(idx.root_aggregate().hosts, ring.len() as u64);
        let hist_total: u64 = idx.root_aggregate().degree_hist.iter().sum();
        assert_eq!(hist_total, ring.len() as u64);
    }

    #[test]
    fn flat_arrays_mirror_the_somo_tree() {
        let (ring, idx) = build(150, 16);
        let tree = SomoTree::build(&ring, 4);
        assert_eq!(idx.nodes.len(), tree.len());
        for (i, n) in tree.nodes().iter().enumerate() {
            let i = i as u32;
            assert_eq!(idx.parent(i), n.parent());
            assert_eq!(idx.children(i), n.children());
            assert_eq!(idx.level(i), n.level());
            // The edge count is the parent walk it replaces.
            let (mut cur, mut edges) = (n, 0);
            while let Some(p) = cur.parent() {
                let up = &tree.nodes()[p as usize];
                edges += u64::from(up.host() != cur.host());
                cur = up;
            }
            assert_eq!(idx.edges_between(i, 0), edges, "node {i}");
            // Cached exactly at the internal nodes and the root.
            assert_eq!(idx.cached(i).is_some(), i == 0 || !n.is_leaf());
        }
        for m in 0..ring.len() {
            assert_eq!(
                idx.leaf_of(m),
                tree.canonical_leaf_of(ring.member(m).id),
                "member {m}"
            );
            assert_eq!(idx.member_of_leaf(idx.leaf_of(m)), Some(m));
        }
    }

    #[test]
    fn every_node_aggregate_equals_subtree_brute_force() {
        let (_ring, idx) = build(64, 12);
        // For each node, fold the canonical samples of its subtree by hand.
        for i in 0..idx.nodes.len() as u32 {
            let mut want = Aggregate::empty();
            let mut stack = vec![i];
            while let Some(cur) = stack.pop() {
                if let Some(m) = idx.member_of_leaf(cur) {
                    if let Some(s) = idx.sample(m) {
                        want.merge(&Aggregate::of_sample(s, &idx.bounds));
                    }
                }
                stack.extend(idx.children(cur));
            }
            assert_eq!(idx.aggregate(i), want, "node {i} diverged");
        }
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let (_ring, mut idx) = build(80, 13);
        // Mutate a handful of members incrementally...
        for m in [0usize, 7, 33, 79] {
            let mut s = sample(m, 40);
            s.sampled_at = SimTime::from_secs(9);
            idx.update_member(m, Some(s));
        }
        idx.update_member(5, None); // member 5 goes silent
        let incremental: Vec<Aggregate> = (0..idx.nodes.len() as u32)
            .map(|i| idx.aggregate(i))
            .collect();
        // ...then recompute everything from scratch and compare.
        idx.rebuild_all();
        for (i, want) in incremental.iter().enumerate() {
            assert_eq!(&idx.aggregate(i as u32), want, "node {i}");
        }
        assert_eq!(idx.root_aggregate().hosts, 79);
    }

    #[test]
    fn a_single_member_ring_caches_its_reporting_root() {
        let ring = Ring::with_random_ids([HostId(7)], 3);
        let mut idx = QueryIndex::build(
            &ring,
            8,
            SimTime::from_secs(5),
            RegionBounds::default(),
            |m| Some(sample(m, 2)),
        );
        assert_eq!((idx.nodes.len(), idx.level(0)), (1, 0));
        assert_eq!(idx.member_of_leaf(0), Some(0));
        assert_eq!(idx.root_aggregate().hosts, 1);
        assert_eq!(idx.aggregate(0), *idx.root_aggregate());
        idx.update_member(0, None);
        assert!(idx.root_aggregate().is_empty());
        idx.refresh(|m| Some(sample(m, 5)));
        assert_eq!(idx.root_aggregate().free[3].max, 5);
        // No edge anywhere: nothing was ever shipped.
        assert_eq!(idx.maintenance_traffic(), TrafficLedger::default());
    }

    #[test]
    fn update_traffic_is_logarithmic_not_linear() {
        let (_ring, mut idx) = build(256, 14);
        let before = idx.maintenance_traffic();
        idx.update_member(100, Some(sample(100, 7)));
        let delta = idx.maintenance_traffic().messages - before.messages;
        // The path to the root is at most depth hops.
        let depth = (0..idx.nodes.len() as u32)
            .map(|i| idx.level(i))
            .max()
            .unwrap();
        assert!(delta <= depth as u64 + 1, "update cost {delta}");
        assert!(delta >= 1, "update shipped nothing");
    }

    #[test]
    fn republishing_keeps_the_host_label_map_in_step() {
        let (_ring, mut idx) = build(40, 17);
        assert_eq!(idx.member_of(HostId(9)), Some(9));
        idx.update_member(9, None);
        assert_eq!(idx.member_of(HostId(9)), None);
        idx.refresh(|m| (m % 2 == 1).then(|| sample(m, 3)));
        assert_eq!(idx.member_of(HostId(9)), Some(9));
        assert_eq!(idx.member_of(HostId(8)), None);
        idx.refresh(|m| Some(sample(m, 1)));
        assert!((0..40).all(|m| idx.member_of(HostId(m as u32)) == Some(m)));
    }

    #[test]
    fn freshness_bound_matches_flow_math() {
        let (_ring, idx) = build(256, 15);
        assert_eq!(
            idx.freshness_bound(),
            somo::flow::unsync_staleness_bound(256, 4, SimTime::from_secs(5))
        );
    }
}
