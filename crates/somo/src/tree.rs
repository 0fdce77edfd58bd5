//! The logical SOMO tree.
//!
//! Geometry: the whole ID circle `[0, 2⁶⁴)` is the root's region; its
//! logical point is the region center (0.5 of the space, as the paper puts
//! it). A region splits into `k` near-equal child regions; subdivision stops
//! when a region holds at most one member ID (deeper children could not
//! separate members any further), or is narrower than `k` IDs (it could
//! not split into `k` non-empty regions). A region holding one member ID
//! usually spans two DHT nodes' zones, so the depth follows the closest
//! pair of member IDs: about 2·log_k N levels for random IDs.
//! Every logical node is **hosted** by the DHT node owning its center point.
//!
//! The paper describes the construction bottom-up — each DHT node picks the
//! highest logical point inside its zone as its representative and connects
//! to the owner of the parent point. Building top-down from the same rules
//! produces the identical tree (`rep_of` and the property tests verify
//! this); top-down is simply more convenient for a snapshot data structure.

use std::ops::Range;

use dht::id::NodeId;
use dht::Ring;

/// `parent` of the root.
const NO_PARENT: u32 = u32::MAX;

/// One logical tree node, in 32 bytes: a tree is one flat vector of them.
#[derive(Clone, Debug)]
pub struct LogicalNode {
    /// Region `[lo, last]` of the ID circle this node is responsible for.
    /// Closed, so that the root's `hi = 2⁶⁴` needs no 65th bit.
    lo: u64,
    last: u64,
    host: u32,
    parent: u32,
    /// The node's children are the `children` nodes from here on.
    first_child: u32,
    children: u16,
    level: u8,
}

impl LogicalNode {
    /// A node with no children (yet).
    fn new(level: u8, (lo, hi): (u128, u128), host: usize, parent: Option<u32>) -> LogicalNode {
        debug_assert!(lo < hi && hi <= 1 << 64, "a region is a non-empty arc");
        LogicalNode {
            lo: lo as u64,
            last: (hi - 1) as u64,
            host: u32::try_from(host).expect("ring indices fit u32"),
            parent: parent.unwrap_or(NO_PARENT),
            first_child: 0,
            children: 0,
            level,
        }
    }

    /// Depth in the tree (root = 0).
    pub fn level(&self) -> u32 {
        u32::from(self.level)
    }

    /// Region `[lo, hi)` of the ID circle this node is responsible for
    /// (u128 so `hi = 2⁶⁴` is representable).
    pub fn region(&self) -> (u128, u128) {
        (u128::from(self.lo), u128::from(self.last) + 1)
    }

    /// The logical point (region center); the node is hosted by its owner.
    pub fn point(&self) -> NodeId {
        center(self.region())
    }

    /// Sorted ring index of the hosting DHT node.
    pub fn host(&self) -> usize {
        self.host as usize
    }

    /// Parent position in [`SomoTree::nodes`] (`None` for the root).
    pub fn parent(&self) -> Option<u32> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }

    /// Child positions in [`SomoTree::nodes`]: consecutive, in ascending
    /// region order.
    pub fn children(&self) -> Range<u32> {
        self.first_child..self.first_child + u32::from(self.children)
    }

    /// Whether this is a leaf of the active tree.
    pub fn is_leaf(&self) -> bool {
        self.children == 0
    }
}

/// A snapshot of the SOMO tree over one ring membership.
pub struct SomoTree {
    fanout: usize,
    nodes: Vec<LogicalNode>,
}

impl SomoTree {
    /// Build the tree for the current membership of `ring` with the given
    /// fanout (the paper's example uses k = 8).
    ///
    /// Nodes are numbered in the order they are created, and that order is
    /// a contract (`query::QueryIndex` and [`LogicalNode::children`] rely
    /// on it): a parent comes before its children, and the children of one
    /// node are consecutive, in ascending region order.
    ///
    /// # Panics
    /// If `fanout < 2` or `fanout > 65 535`, or the ring is empty.
    pub fn build(ring: &Ring, fanout: usize) -> SomoTree {
        assert!(fanout >= 2, "SOMO fanout must be at least 2");
        assert!(
            fanout <= usize::from(u16::MAX),
            "SOMO fanout must be at most 65 535"
        );
        assert!(!ring.is_empty(), "cannot build SOMO over an empty ring");
        let full: (u128, u128) = (0, 1u128 << 64);
        let mut nodes = vec![LogicalNode::new(0, full, ring.owner(center(full)), None)];
        // Depth-first subdivision: the frontier is a stack, so the node
        // subdivided next is the last child created. All of a node's
        // children are created in one go, whichever node is taken next.
        let mut frontier = vec![0u32];
        while let Some(idx) = frontier.pop() {
            let (lo, hi) = nodes[idx as usize].region();
            let level = nodes[idx as usize].level;
            // Leaf condition: at most one member ID inside the region —
            // deeper subdivision could not separate members any further.
            // (The width floor is unreachable for realistic rings but keeps
            // adversarial ID layouts terminating.)
            if members_in_region(ring, lo, hi) <= 1 || hi - lo < fanout as u128 {
                continue;
            }
            let width = hi - lo;
            let first = u32::try_from(nodes.len()).expect("logical nodes number under 2^32");
            nodes[idx as usize].first_child = first;
            nodes[idx as usize].children = fanout as u16;
            for c in 0..fanout as u128 {
                let clo = lo + width * c / fanout as u128;
                let chi = lo + width * (c + 1) / fanout as u128;
                let host = ring.owner(center((clo, chi)));
                frontier.push(nodes.len() as u32);
                nodes.push(LogicalNode::new(level + 1, (clo, chi), host, Some(idx)));
            }
        }
        nodes.shrink_to_fit();
        SomoTree { fanout, nodes }
    }

    /// Assemble a tree from explicit `(level, region, host, parent,
    /// children)` nodes — used by in-crate tests to exercise accounting
    /// code on degenerate shapes (e.g. duplicate region keys) that `build`
    /// never produces.
    #[cfg(test)]
    pub(crate) fn from_nodes(
        fanout: usize,
        nodes: impl IntoIterator<Item = (u8, (u128, u128), usize, Option<u32>, Range<u32>)>,
    ) -> SomoTree {
        let nodes: Vec<LogicalNode> = nodes
            .into_iter()
            .map(|(level, region, host, parent, children)| LogicalNode {
                first_child: children.start,
                children: children.len() as u16,
                ..LogicalNode::new(level, region, host, parent)
            })
            .collect();
        assert!(!nodes.is_empty(), "a tree needs at least a root");
        SomoTree { fanout, nodes }
    }

    /// The tree fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// All logical nodes (index 0 is the root).
    pub fn nodes(&self) -> &[LogicalNode] {
        &self.nodes
    }

    /// The root logical node.
    pub fn root(&self) -> &LogicalNode {
        &self.nodes[0]
    }

    /// Number of logical nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never, after `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum depth (root = 0).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level()).max().unwrap_or(0)
    }

    /// Indices of all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.nodes.len() as u32).filter(|&i| self.nodes[i as usize].is_leaf())
    }

    /// The representative of a DHT node per the paper's bottom-up rule: the
    /// **highest** logical node hosted by ring member `ring_idx`, i.e. the
    /// logical node of minimum level whose point lies in that member's zone.
    pub fn rep_of(&self, ring_idx: usize) -> Option<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.host() == ring_idx)
            .min_by_key(|(_, n)| n.level)
            .map(|(i, _)| i as u32)
    }

    /// The leaf whose region contains the given ID. Every member reports
    /// its metadata through the leaf containing its *own* ID — unique,
    /// because leaf regions tile the circle and hold at most one member ID.
    pub fn canonical_leaf_of(&self, id: NodeId) -> u32 {
        let p = id.0 as u128;
        let mut cur = 0u32;
        loop {
            let n = &self.nodes[cur as usize];
            if n.is_leaf() {
                return cur;
            }
            cur = n
                .children()
                .find(|&c| {
                    let (lo, hi) = self.nodes[c as usize].region();
                    lo <= p && p < hi
                })
                .expect("children partition the parent region");
        }
    }

    /// Ring indices hosting at least one logical node.
    pub fn hosts(&self) -> Vec<usize> {
        let mut h: Vec<usize> = self.nodes.iter().map(|n| n.host()).collect();
        h.sort_unstable();
        h.dedup();
        h
    }
}

fn center(region: (u128, u128)) -> NodeId {
    NodeId(((region.0 + region.1) / 2) as u64)
}

/// The root's logical point: the midpoint of the whole space ("0.5 of the
/// total space [0, 1]").
pub fn root_point() -> NodeId {
    NodeId::MID
}

/// Number of member IDs falling in the non-wrapping interval `[lo, hi)`.
fn members_in_region(ring: &Ring, lo: u128, hi: u128) -> usize {
    let ids = ring.members();
    let a = ids.partition_point(|m| (m.id.0 as u128) < lo);
    let b = ids.partition_point(|m| (m.id.0 as u128) < hi);
    b - a
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HostId;
    use proptest::prelude::*;

    fn ring(n: u32, seed: u64) -> Ring {
        Ring::with_random_ids((0..n).map(HostId), seed)
    }

    #[test]
    fn root_sits_at_space_midpoint() {
        let r = ring(64, 1);
        let t = SomoTree::build(&r, 8);
        assert_eq!(t.root().point(), NodeId::MID);
        assert_eq!(t.root().host(), r.owner(NodeId::MID));
    }

    #[test]
    fn depth_is_logarithmic() {
        let r = ring(512, 2);
        let t = SomoTree::build(&r, 8);
        // Depth is driven by the closest ID pair: for n random 64-bit IDs
        // the minimum gap is ≈ 2⁶⁴/n², so depth ≈ 2·log_k n. For 512 at
        // k=8 that is ~6.
        let d = t.depth();
        assert!(d >= 3, "depth {d} too shallow");
        assert!(d <= 10, "depth {d} too deep for 512 nodes at k=8");
    }

    #[test]
    fn canonical_leaf_is_unique_and_near_its_member() {
        let r = ring(128, 3);
        let t = SomoTree::build(&r, 4);
        let mut seen = std::collections::HashSet::new();
        for (idx, m) in r.members().iter().enumerate() {
            let leaf = t.canonical_leaf_of(m.id);
            assert!(seen.insert(leaf), "two members share a canonical leaf");
            let n = &t.nodes()[leaf as usize];
            assert!(n.is_leaf());
            let (lo, hi) = n.region();
            assert!(lo <= m.id.0 as u128 && (m.id.0 as u128) < hi);
            // Hosted by the member itself or its ring successor (the
            // region holds no other member ID, so its center's owner is
            // one of the two).
            assert!(
                n.host() == idx || n.host() == r.successor(idx),
                "canonical leaf hosted by a stranger"
            );
        }
    }

    #[test]
    fn leaves_tile_the_space() {
        let r = ring(100, 4);
        let t = SomoTree::build(&r, 8);
        let mut regions: Vec<(u128, u128)> =
            t.leaves().map(|i| t.nodes()[i as usize].region()).collect();
        regions.sort();
        assert_eq!(regions[0].0, 0);
        assert_eq!(regions.last().unwrap().1, 1u128 << 64);
        for w in regions.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gap or overlap between leaf regions");
        }
    }

    #[test]
    fn children_partition_parent() {
        let r = ring(100, 5);
        let t = SomoTree::build(&r, 3);
        for n in t.nodes() {
            if n.is_leaf() {
                continue;
            }
            // Children are in ascending region order as they stand.
            let regions: Vec<(u128, u128)> = n
                .children()
                .map(|c| t.nodes()[c as usize].region())
                .collect();
            assert_eq!(regions[0].0, n.region().0);
            assert_eq!(regions.last().unwrap().1, n.region().1);
            for w in regions.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            assert_eq!(n.children().len(), 3);
        }
    }

    #[test]
    fn hosting_matches_ring_ownership() {
        let r = ring(64, 6);
        let t = SomoTree::build(&r, 8);
        for n in t.nodes() {
            assert_eq!(n.host(), r.owner(n.point()));
            let pred = r.member(r.predecessor(n.host())).id;
            assert!(dht::id::in_arc(pred, r.member(n.host()).id, n.point()));
        }
    }

    #[test]
    fn rep_parent_chain_reaches_root() {
        let r = ring(64, 7);
        let t = SomoTree::build(&r, 8);
        let mut hosting = 0;
        for idx in 0..r.len() {
            // Not every member hosts a logical node (a small zone may
            // contain no region center), but those that do must chain to
            // the root.
            let Some(rep) = t.rep_of(idx) else { continue };
            hosting += 1;
            let mut cur = rep;
            let mut steps = 0;
            while let Some(p) = t.nodes()[cur as usize].parent() {
                cur = p;
                steps += 1;
                assert!(steps <= t.depth());
            }
            assert_eq!(cur, 0);
        }
        assert!(hosting * 2 >= r.len(), "suspiciously few hosting members");
    }

    #[test]
    fn single_node_ring_is_just_a_root() {
        let r = ring(1, 8);
        let t = SomoTree::build(&r, 8);
        assert_eq!(t.len(), 1);
        assert!(t.root().is_leaf());
    }

    #[test]
    fn fanout_two_works() {
        let r = ring(32, 9);
        let t = SomoTree::build(&r, 2);
        for n in t.nodes() {
            assert!(n.children().len() == 2 || n.is_leaf());
        }
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn fanout_one_rejected() {
        let r = ring(4, 0);
        SomoTree::build(&r, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_tree_well_formed(n in 1u32..200, seed: u64, fanout in 2usize..9) {
            let r = ring(n, seed);
            let t = SomoTree::build(&r, fanout);
            // Every non-root has a parent whose children contain it.
            for (i, node) in t.nodes().iter().enumerate() {
                match node.parent() {
                    None => prop_assert_eq!(i, 0),
                    Some(p) => {
                        prop_assert!((p as usize) < i, "a parent precedes its children");
                        prop_assert!(t.nodes()[p as usize].children().contains(&(i as u32)));
                        prop_assert_eq!(t.nodes()[p as usize].level() + 1, node.level());
                    }
                }
                prop_assert_eq!(node.point(), center(node.region()));
                prop_assert_eq!(node.host(), r.owner(node.point()));
            }
            // Every member has a unique canonical leaf hosted by itself or
            // its ring successor.
            let mut seen = std::collections::HashSet::new();
            for (idx, m) in r.members().iter().enumerate() {
                let leaf = t.canonical_leaf_of(m.id);
                prop_assert!(seen.insert(leaf));
                let host = t.nodes()[leaf as usize].host();
                prop_assert!(host == idx || host == r.successor(idx));
            }
        }
    }
}
