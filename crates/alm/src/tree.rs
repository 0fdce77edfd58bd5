//! The multicast tree: parent/child structure plus per-node *height*
//! (aggregated latency from the root — the paper's QoS metric).
//!
//! A tree is four flat vectors and costs 40 bytes per node at a full
//! capacity (DESIGN.md §11.6): hosts in attachment order, their heights,
//! one `Links` record each (parent, an ordered child list threaded
//! through the nodes themselves, the child count) and an open-addressing
//! table from host to node. Nothing is allocated per node, nothing is sized
//! by the pool, and a clone is four `memcpy`s.

use netsim::{HostId, LatencyModel};

/// "No such node" in every `u32` link below.
const NONE: u32 = u32::MAX;

/// A node's place in the tree. Children form a singly linked list in
/// attachment order: `first_child` → `next_sibling` → … → `last_child`.
#[derive(Clone, Copy, Debug)]
struct Links {
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    children: u32,
}

/// A rooted multicast tree over end hosts.
///
/// Nodes are added with [`MulticastTree::attach`]; heights are maintained
/// incrementally and can be recomputed wholesale after structural surgery
/// (the adjustment moves).
#[derive(Clone, Debug)]
pub struct MulticastTree {
    /// Hosts in attachment order, root first; a node's position here is its
    /// index into `height` and `links`.
    nodes: Vec<HostId>,
    height: Vec<f64>,
    links: Vec<Links>,
    /// Host → node: linear probing over a power-of-two table of node
    /// indices, at most half full. The key of an entry is `nodes[entry]`.
    /// Nodes are never removed, so there are no tombstones.
    table: Vec<u32>,
}

/// Fibonacci hashing: the top `log2(slots)` bits of `id · 2⁶⁴/φ`. Host ids
/// are the simulator's own dense integers, not outside input, so a fixed
/// multiplier is enough (and, unlike the std `RandomState`, repeatable).
fn home(h: HostId, slots: usize) -> usize {
    debug_assert!(slots.is_power_of_two() && slots >= 2);
    (u64::from(h.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

/// Node `i`'s children, in attachment order. Borrows the links alone, so a
/// caller may write heights while it walks.
fn children(links: &[Links], i: usize) -> impl Iterator<Item = usize> + '_ {
    let mut next = links[i].first_child;
    std::iter::from_fn(move || {
        (next != NONE).then(|| {
            let c = next as usize;
            next = links[c].next_sibling;
            c
        })
    })
}

impl MulticastTree {
    /// A tree containing only the root.
    pub fn new(root: HostId) -> MulticastTree {
        MulticastTree::with_capacity(root, 1)
    }

    /// A root-only tree with room for `nodes` nodes before anything
    /// reallocates.
    pub(crate) fn with_capacity(root: HostId, nodes: usize) -> MulticastTree {
        let mut tree = MulticastTree {
            nodes: Vec::with_capacity(nodes),
            height: Vec::with_capacity(nodes),
            links: Vec::with_capacity(nodes),
            table: vec![NONE; (2 * nodes).next_power_of_two().max(4)],
        };
        tree.push(root, NONE, 0.0);
        tree
    }

    /// Append a node and file it in the table; the caller links it to its
    /// parent's child list.
    fn push(&mut self, host: HostId, parent: u32, height: f64) -> u32 {
        let i = u32::try_from(self.nodes.len()).expect("a tree holds fewer than 2³² nodes");
        self.nodes.push(host);
        self.height.push(height);
        self.links.push(Links {
            parent,
            first_child: NONE,
            last_child: NONE,
            next_sibling: NONE,
            children: 0,
        });
        if 2 * self.nodes.len() > self.table.len() {
            self.table = vec![NONE; 2 * self.table.len()];
            for n in 0..i {
                self.file(n);
            }
        }
        self.file(i);
        i
    }

    /// Enter node `i` into the table (its host is not in it yet).
    fn file(&mut self, i: u32) {
        let mask = self.table.len() - 1;
        let mut at = home(self.nodes[i as usize], self.table.len());
        while self.table[at] != NONE {
            at = (at + 1) & mask;
        }
        self.table[at] = i;
    }

    /// The node holding `h`, if any.
    fn find(&self, h: HostId) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut at = home(h, self.table.len());
        loop {
            let i = self.table[at];
            if i == NONE {
                return None;
            }
            if self.nodes[i as usize] == h {
                return Some(i as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// The node holding `h`; panics, naming the host and the tree, if there
    /// is none.
    fn node(&self, h: HostId) -> usize {
        match self.find(h) {
            Some(i) => i,
            None => panic!(
                "host {h:?} is not in the tree (root {:?}, {} nodes)",
                self.root(),
                self.len()
            ),
        }
    }

    /// Node `i`'s children, in attachment order.
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        children(&self.links, i)
    }

    /// Append node `c` to the end of node `p`'s child list.
    fn link(&mut self, c: usize, p: usize) {
        self.links[c].parent = p as u32;
        self.links[c].next_sibling = NONE;
        match self.links[p].last_child {
            NONE => self.links[p].first_child = c as u32,
            last => self.links[last as usize].next_sibling = c as u32,
        }
        self.links[p].last_child = c as u32;
        self.links[p].children += 1;
    }

    /// Take node `c` (not the root) out of its parent's child list; its
    /// siblings keep their order. Returns the parent.
    fn unlink(&mut self, c: usize) -> usize {
        let p = self.links[c].parent as usize;
        let after = self.links[c].next_sibling;
        let before = self.children(p).take_while(|&s| s != c).last();
        match before {
            None => self.links[p].first_child = after,
            Some(b) => self.links[b].next_sibling = after,
        }
        if after == NONE {
            self.links[p].last_child = before.map_or(NONE, |b| b as u32);
        }
        self.links[p].children -= 1;
        p
    }

    /// The root host.
    pub fn root(&self) -> HostId {
        self.nodes[0]
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has only the root (never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All hosts in the tree, root first, in attachment order.
    pub fn hosts(&self) -> &[HostId] {
        &self.nodes
    }

    /// Whether `h` is in the tree.
    pub fn contains(&self, h: HostId) -> bool {
        self.find(h).is_some()
    }

    /// Attach `child` under `parent` with the given link latency.
    ///
    /// # Panics
    /// If `child` is already present or `parent` is not.
    pub fn attach(&mut self, child: HostId, parent: HostId, link_ms: f64) {
        assert!(!self.contains(child), "node already in tree");
        let p = self.node(parent);
        let i = self.push(child, p as u32, self.height[p] + link_ms);
        self.link(i as usize, p);
    }

    /// The parent of a host (`None` for the root).
    ///
    /// # Panics
    /// If `h` is not in the tree.
    pub fn parent_of(&self, h: HostId) -> Option<HostId> {
        match self.links[self.node(h)].parent {
            NONE => None,
            p => Some(self.nodes[p as usize]),
        }
    }

    /// The children of a host, in the order they were attached to it (a
    /// node that [`move_node`](Self::move_node) or
    /// [`swap_nodes`](Self::swap_nodes) re-parents goes to the end of its
    /// new parent's list).
    ///
    /// # Panics
    /// If `h` is not in the tree.
    pub fn children_of(&self, h: HostId) -> Vec<HostId> {
        let i = self.node(h);
        let mut out = Vec::with_capacity(self.links[i].children as usize);
        out.extend(self.children(i).map(|c| self.nodes[c]));
        out
    }

    /// Number of children of a host.
    ///
    /// # Panics
    /// If `h` is not in the tree.
    pub fn child_count(&self, h: HostId) -> usize {
        self.links[self.node(h)].children as usize
    }

    /// The tree degree of a host: children plus the parent link.
    ///
    /// # Panics
    /// If `h` is not in the tree.
    pub fn degree(&self, h: HostId) -> u32 {
        let l = &self.links[self.node(h)];
        l.children + u32::from(l.parent != NONE)
    }

    /// Height of a host: aggregated latency from the root, ms.
    ///
    /// # Panics
    /// If `h` is not in the tree.
    pub fn height_of(&self, h: HostId) -> f64 {
        self.height[self.node(h)]
    }

    /// The tree height: the maximum node height (0 for a root-only tree).
    pub fn max_height(&self) -> f64 {
        self.height.iter().copied().fold(0.0, f64::max)
    }

    /// The host at maximum height (the root for a root-only tree). Ties
    /// pick the last-attached node; `total_cmp` stays well-defined
    /// (instead of panicking) if a NaN latency ever poisons a height.
    pub fn highest(&self) -> HostId {
        let (i, _) = self
            .height
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        self.nodes[i]
    }

    /// All hosts in breadth-first order from the root — guaranteed
    /// parent-before-child even after structural surgery (`move_node`,
    /// `swap_nodes`), unlike [`MulticastTree::hosts`] which is attachment
    /// order.
    pub fn bfs_order(&self) -> Vec<HostId> {
        // The output doubles as the queue: node `k` of it is expanded when
        // the scan reaches it.
        let mut order = Vec::with_capacity(self.nodes.len());
        order.push(0);
        let mut k = 0;
        while k < order.len() {
            order.extend(self.children(order[k]));
            k += 1;
        }
        order.into_iter().map(|i| self.nodes[i]).collect()
    }

    /// Whether `anc` is an ancestor of `h` (a node is not its own ancestor).
    ///
    /// # Panics
    /// If either host is not in the tree.
    pub fn is_ancestor(&self, anc: HostId, h: HostId) -> bool {
        let a = self.node(anc) as u32;
        let mut cur = self.links[self.node(h)].parent;
        while cur != NONE {
            if cur == a {
                return true;
            }
            cur = self.links[cur as usize].parent;
        }
        false
    }

    /// Re-parent host `v` (and its subtree) under `new_parent`; `v` becomes
    /// `new_parent`'s last child.
    ///
    /// # Panics
    /// If either host is not in the tree, the move would create a cycle
    /// (`new_parent` inside `v`'s subtree), or `v` is the root.
    pub fn move_node(&mut self, v: HostId, new_parent: HostId, latency: &impl LatencyModel) {
        assert!(
            v != new_parent && !self.is_ancestor(v, new_parent),
            "move would create a cycle"
        );
        let vi = self.node(v);
        let np = self.node(new_parent);
        assert!(vi != 0, "cannot move the root");
        self.unlink(vi);
        self.link(vi, np);
        self.recompute_heights(latency);
    }

    /// Swap the positions of two hosts (each takes the other's parent, as
    /// that parent's last child). Typically used on leaves but valid for
    /// any two nodes in different subtrees; with `a` a child of `b` (or
    /// vice versa) the swap is rejected.
    ///
    /// # Panics
    /// If either host is not in the tree, either is the root, or one is an
    /// ancestor of the other.
    pub fn swap_nodes(&mut self, a: HostId, b: HostId, latency: &impl LatencyModel) {
        assert!(a != b);
        assert!(
            !self.is_ancestor(a, b) && !self.is_ancestor(b, a),
            "cannot swap nested nodes"
        );
        let ai = self.node(a);
        let bi = self.node(b);
        assert!(ai != 0 && bi != 0, "cannot swap the root");
        let ap = self.unlink(ai);
        let bp = self.unlink(bi);
        self.link(ai, bp);
        self.link(bi, ap);
        self.recompute_heights(latency);
    }

    /// Recompute all heights from link latencies (after structural surgery).
    pub fn recompute_heights(&mut self, latency: &impl LatencyModel) {
        let mut stack = vec![0usize];
        self.height[0] = 0.0;
        while let Some(i) = stack.pop() {
            let hi = self.height[i];
            let node = self.nodes[i];
            for c in children(&self.links, i) {
                self.height[c] = hi + latency.latency_ms(node, self.nodes[c]);
                stack.push(c);
            }
        }
    }

    /// Validate structural invariants: connectivity, acyclicity, height
    /// consistency with `latency`, and per-node degree bounds.
    pub fn validate(
        &self,
        latency: &impl LatencyModel,
        dbound: impl Fn(HostId) -> u32,
    ) -> Result<(), String> {
        // Every node reachable from the root exactly once.
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            let mut listed = 0;
            for c in self.children(i) {
                if seen[c] {
                    return Err(format!("node {:?} reached twice", self.nodes[c]));
                }
                if self.links[c].parent as usize != i {
                    return Err("parent/child links disagree".into());
                }
                seen[c] = true;
                count += 1;
                listed += 1;
                stack.push(c);
            }
            if listed != self.links[i].children {
                return Err(format!(
                    "{:?} lists {listed} children and counts {}",
                    self.nodes[i], self.links[i].children
                ));
            }
        }
        if count != self.nodes.len() {
            return Err(format!(
                "{} of {} nodes unreachable from root",
                self.nodes.len() - count,
                self.nodes.len()
            ));
        }
        // Heights match latencies.
        for i in 1..self.nodes.len() {
            let p = self.links[i].parent as usize;
            let expect = self.height[p] + latency.latency_ms(self.nodes[p], self.nodes[i]);
            if (self.height[i] - expect).abs() > 1e-6 {
                return Err(format!(
                    "height of {:?} is {} but links sum to {}",
                    self.nodes[i], self.height[i], expect
                ));
            }
        }
        // Degree bounds.
        for &h in &self.nodes {
            if self.degree(h) > dbound(h) {
                return Err(format!(
                    "degree {} of {:?} exceeds bound {}",
                    self.degree(h),
                    h,
                    dbound(h)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All pairs 10 ms apart — convenient for exact height arithmetic.
    struct Uniform;
    impl LatencyModel for Uniform {
        fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
            if a == b {
                0.0
            } else {
                10.0
            }
        }
        fn num_hosts(&self) -> usize {
            100
        }
    }

    fn chain() -> MulticastTree {
        // 0 -> 1 -> 2, plus 3 under 0.
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(1), HostId(0), 10.0);
        t.attach(HostId(2), HostId(1), 10.0);
        t.attach(HostId(3), HostId(0), 10.0);
        t
    }

    #[test]
    fn heights_accumulate() {
        let t = chain();
        assert_eq!(t.height_of(HostId(0)), 0.0);
        assert_eq!(t.height_of(HostId(2)), 20.0);
        assert_eq!(t.max_height(), 20.0);
        assert_eq!(t.highest(), HostId(2));
    }

    #[test]
    fn degrees_count_parent_link() {
        let t = chain();
        assert_eq!(t.degree(HostId(0)), 2); // two children, no parent
        assert_eq!(t.degree(HostId(1)), 2); // one child + parent
        assert_eq!(t.degree(HostId(2)), 1); // leaf
    }

    #[test]
    fn ancestor_relation() {
        let t = chain();
        assert!(t.is_ancestor(HostId(0), HostId(2)));
        assert!(t.is_ancestor(HostId(1), HostId(2)));
        assert!(!t.is_ancestor(HostId(2), HostId(1)));
        assert!(!t.is_ancestor(HostId(3), HostId(2)));
        assert!(!t.is_ancestor(HostId(2), HostId(2)));
    }

    #[test]
    fn move_node_updates_heights() {
        let mut t = chain();
        t.move_node(HostId(2), HostId(3), &Uniform);
        assert_eq!(t.parent_of(HostId(2)), Some(HostId(3)));
        assert_eq!(t.height_of(HostId(2)), 20.0);
        assert!(t.validate(&Uniform, |_| 10).is_ok());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn move_into_own_subtree_panics() {
        let mut t = chain();
        t.move_node(HostId(1), HostId(2), &Uniform);
    }

    #[test]
    fn swap_nodes_exchanges_parents() {
        let mut t = chain();
        t.swap_nodes(HostId(2), HostId(3), &Uniform);
        assert_eq!(t.parent_of(HostId(2)), Some(HostId(0)));
        assert_eq!(t.parent_of(HostId(3)), Some(HostId(1)));
        assert!(t.validate(&Uniform, |_| 10).is_ok());
    }

    #[test]
    fn validate_catches_degree_violation() {
        let t = chain();
        // Root has degree 2; bound of 1 must fail.
        let err = t
            .validate(&Uniform, |h| if h == HostId(0) { 1 } else { 10 })
            .unwrap_err();
        assert!(err.contains("degree"), "{err}");
    }

    #[test]
    #[should_panic(expected = "already in tree")]
    fn duplicate_attach_panics() {
        let mut t = chain();
        t.attach(HostId(2), HostId(0), 10.0);
    }

    #[test]
    fn child_order_is_attachment_order_and_surgery_appends() {
        let mut t = MulticastTree::new(HostId(0));
        for c in 1..=4 {
            t.attach(HostId(c), HostId(0), 10.0);
        }
        t.attach(HostId(5), HostId(2), 10.0);
        t.attach(HostId(6), HostId(2), 10.0);
        assert_eq!(t.children_of(HostId(0)), [1, 2, 3, 4].map(HostId));
        // A moved node leaves its siblings in order and goes last.
        t.move_node(HostId(1), HostId(2), &Uniform);
        assert_eq!(t.children_of(HostId(0)), [2, 3, 4].map(HostId));
        assert_eq!(t.children_of(HostId(2)), [5, 6, 1].map(HostId));
        // So do swapped nodes — siblings included, middle and last child.
        t.swap_nodes(HostId(3), HostId(6), &Uniform);
        assert_eq!(t.children_of(HostId(0)), [2, 4, 6].map(HostId));
        assert_eq!(t.children_of(HostId(2)), [5, 1, 3].map(HostId));
        t.swap_nodes(HostId(5), HostId(3), &Uniform);
        assert_eq!(t.children_of(HostId(2)), [1, 5, 3].map(HostId));
        // An only child moved away leaves an empty list that still appends.
        t.move_node(HostId(4), HostId(6), &Uniform);
        t.move_node(HostId(4), HostId(0), &Uniform);
        assert_eq!(t.child_count(HostId(6)), 0);
        t.attach(HostId(7), HostId(6), 10.0);
        assert_eq!(t.children_of(HostId(6)), [HostId(7)]);
        assert_eq!(
            t.bfs_order(),
            [0, 2, 6, 4, 1, 5, 3, 7].map(HostId),
            "breadth first, children in list order"
        );
        assert!(t.validate(&Uniform, |_| 10).is_ok());
    }

    #[test]
    fn index_survives_growth_and_colliding_ids() {
        // Ids a multiple of 2²⁰ apart share their low bits; 300 nodes grow
        // the table seven times.
        let mut t = MulticastTree::new(HostId(0));
        for i in 1..300u32 {
            t.attach(HostId(i << 20), HostId((i / 2) << 20), 1.0);
        }
        for i in 0..300u32 {
            assert!(t.contains(HostId(i << 20)));
            assert_eq!(
                t.parent_of(HostId(i << 20)),
                (i > 0).then_some(HostId((i / 2) << 20))
            );
            assert!(!t.contains(HostId((i << 20) + 1)));
        }
        assert_eq!(t.clone().hosts(), t.hosts());
    }

    // A host a repair has pruned is the caller's bug to find: the panic
    // names the host and the tree it is missing from. One test per family;
    // every accessor resolves its host through the same `node`.

    #[test]
    #[should_panic(expected = "host HostId(9) is not in the tree (root HostId(0), 4 nodes)")]
    fn reading_a_missing_host_names_it() {
        chain().parent_of(HostId(9));
    }

    #[test]
    #[should_panic(expected = "is not in the tree")]
    fn is_ancestor_of_a_missing_host_names_it() {
        chain().is_ancestor(HostId(0), HostId(9));
    }

    #[test]
    #[should_panic(expected = "is not in the tree")]
    fn move_node_to_a_missing_parent_names_it() {
        chain().move_node(HostId(2), HostId(9), &Uniform);
    }

    #[test]
    #[should_panic(expected = "is not in the tree")]
    fn swap_nodes_with_a_missing_host_names_it() {
        chain().swap_nodes(HostId(9), HostId(2), &Uniform);
    }

    #[test]
    #[should_panic(expected = "is not in the tree")]
    fn attach_under_a_missing_parent_names_it() {
        chain().attach(HostId(4), HostId(9), 10.0);
    }

    #[test]
    fn subtree_swap_via_swap_nodes() {
        // Swap two internal nodes from disjoint subtrees.
        let mut t = MulticastTree::new(HostId(0));
        t.attach(HostId(1), HostId(0), 10.0);
        t.attach(HostId(2), HostId(0), 10.0);
        t.attach(HostId(3), HostId(1), 10.0);
        t.attach(HostId(4), HostId(2), 10.0);
        t.swap_nodes(HostId(1), HostId(2), &Uniform);
        // Children move with their subtree roots.
        assert_eq!(t.parent_of(HostId(3)), Some(HostId(1)));
        assert_eq!(t.parent_of(HostId(4)), Some(HostId(2)));
        assert!(t.validate(&Uniform, |_| 10).is_ok());
    }
}
