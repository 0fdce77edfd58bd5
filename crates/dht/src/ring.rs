//! The structural ring: membership snapshot with zones, leafsets and owner
//! lookup.
//!
//! This is consistent hashing exactly as §3.1 describes it: an ordered set of
//! node IDs partitions the 64-bit circle, node `x` owning
//! `zone(x) = (ID(pred(x)), ID(x)]`. The ring supports O(log N) owner lookup
//! (binary search — this is the *data structure*; the *protocol* lookup is
//! [`crate::proto::DhtSim::lookup`]), leafset extraction, and instant
//! join/leave for churn experiments.

use netsim::HostId;
use serde::{Deserialize, Serialize};

use crate::id::NodeId;

/// A member of the ring: a logical ID bound to the end host that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Member {
    /// Position in the logical space.
    pub id: NodeId,
    /// The physical end host behind this DHT node.
    pub host: HostId,
}

/// A snapshot of ring membership, sorted by ID.
///
/// Indices returned by the query methods are positions in the sorted order
/// and are invalidated by `insert`/`remove`.
#[derive(Clone, Debug, Default)]
pub struct Ring {
    members: Vec<Member>,
}

impl Ring {
    /// Build a ring giving each host a pseudo-random ID derived from
    /// `(seed, host)` — the simulation analogue of "ID = MD5(IP address)".
    ///
    /// # Panics
    /// If two hosts hash to the same ID (in practice: a host listed twice).
    pub fn with_random_ids(hosts: impl IntoIterator<Item = HostId>, seed: u64) -> Ring {
        Ring::from_members(hosts.into_iter().map(|h| Member {
            id: NodeId::hash_of(simcore::rng::derive_seed(seed, h.0 as u64)),
            host: h,
        }))
    }

    /// The ring of `members`, given in any order: one sort, where inserting
    /// them one by one shifts half the ring per member.
    ///
    /// # Panics
    /// If two members share an ID.
    pub fn from_members(members: impl IntoIterator<Item = Member>) -> Ring {
        let mut members: Vec<Member> = members.into_iter().collect();
        members.sort_unstable_by_key(|m| m.id);
        if let Some(pair) = members.windows(2).find(|pair| pair[0].id == pair[1].id) {
            panic!("duplicate node ID {:?}", pair[0].id);
        }
        Ring { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All members in ID order.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The member at a sorted index.
    pub fn member(&self, idx: usize) -> Member {
        self.members[idx]
    }

    /// Insert a member, keeping the ring sorted. Duplicate IDs are rejected.
    ///
    /// # Panics
    /// If a member with the same ID already exists.
    pub fn insert(&mut self, m: Member) {
        match self.members.binary_search_by_key(&m.id, |x| x.id) {
            Ok(_) => panic!("duplicate node ID {:?}", m.id),
            Err(pos) => self.members.insert(pos, m),
        }
    }

    /// Remove the member at sorted index `idx`, returning it.
    pub fn remove(&mut self, idx: usize) -> Member {
        self.members.remove(idx)
    }

    /// Remove the member with the given ID, if present.
    pub fn remove_id(&mut self, id: NodeId) -> Option<Member> {
        match self.members.binary_search_by_key(&id, |x| x.id) {
            Ok(pos) => Some(self.members.remove(pos)),
            Err(_) => None,
        }
    }

    /// Sorted index of the member with ID `id`, if present.
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.members.binary_search_by_key(&id, |x| x.id).ok()
    }

    /// Index of the node whose zone contains `key`: the first member with
    /// `id >= key`, wrapping to index 0.
    ///
    /// # Panics
    /// On an empty ring.
    pub fn owner(&self, key: NodeId) -> usize {
        assert!(!self.members.is_empty(), "owner() on empty ring");
        match self.members.binary_search_by_key(&key, |x| x.id) {
            Ok(pos) => pos,
            Err(pos) => {
                if pos == self.members.len() {
                    0
                } else {
                    pos
                }
            }
        }
    }

    /// The successor index (clockwise neighbor).
    pub fn successor(&self, idx: usize) -> usize {
        (idx + 1) % self.members.len()
    }

    /// The predecessor index (counter-clockwise neighbor).
    pub fn predecessor(&self, idx: usize) -> usize {
        (idx + self.members.len() - 1) % self.members.len()
    }

    /// The leafset of member `idx`: up to `r` members to each side (fewer in
    /// tiny rings — a node is never its own leafset member). Returned as
    /// sorted indices, predecessor side first, then successor side, each
    /// nearest-first.
    pub fn leafset(&self, idx: usize, r: usize) -> Vec<usize> {
        let n = self.members.len();
        if n <= 1 {
            return vec![];
        }
        // The walks meet only in a ring too small for 2r distinct others:
        // the predecessor side takes what it can, the successor side what
        // is left, so no member is listed twice.
        let pred = r.min(n - 1);
        let succ = r.min(n - 1 - pred);
        let mut out = Vec::with_capacity(pred + succ);
        let mut p = idx;
        for _ in 0..pred {
            p = self.predecessor(p);
            out.push(p);
        }
        let mut s = idx;
        for _ in 0..succ {
            s = self.successor(s);
            out.push(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::in_arc;
    use proptest::prelude::*;

    /// The zone of the member at `idx`: `(pred_id, own_id]`.
    fn zone(r: &Ring, idx: usize) -> (NodeId, NodeId) {
        (r.member(r.predecessor(idx)).id, r.member(idx).id)
    }

    /// Whether `key` falls in the zone of member `idx`.
    fn zone_contains(r: &Ring, idx: usize, key: NodeId) -> bool {
        let (lo, hi) = zone(r, idx);
        in_arc(lo, hi, key)
    }

    fn ring_of(ids: &[u64]) -> Ring {
        let mut r = Ring::default();
        for (i, &id) in ids.iter().enumerate() {
            r.insert(Member {
                id: NodeId(id),
                host: HostId(i as u32),
            });
        }
        r
    }

    #[test]
    fn members_stay_sorted() {
        let r = ring_of(&[50, 10, 30]);
        let ids: Vec<u64> = r.members().iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![10, 30, 50]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_rejected() {
        ring_of(&[5, 5]);
    }

    #[test]
    fn owner_basic_and_wrapping() {
        let r = ring_of(&[10, 30, 50]);
        assert_eq!(r.owner(NodeId(10)), 0); // key == id → that node
        assert_eq!(r.owner(NodeId(11)), 1);
        assert_eq!(r.owner(NodeId(30)), 1);
        assert_eq!(r.owner(NodeId(45)), 2);
        assert_eq!(r.owner(NodeId(51)), 0); // wraps
        assert_eq!(r.owner(NodeId(0)), 0);
    }

    #[test]
    fn zones_partition_the_circle() {
        let r = ring_of(&[10, 30, 50]);
        // zone(0) = (50, 10], zone(1) = (10, 30], zone(2) = (30, 50]
        assert_eq!(zone(&r, 0), (NodeId(50), NodeId(10)));
        assert!(zone_contains(&r, 0, NodeId(60)));
        assert!(zone_contains(&r, 0, NodeId(5)));
        assert!(!zone_contains(&r, 0, NodeId(11)));
    }

    #[test]
    fn single_node_owns_everything() {
        let r = ring_of(&[42]);
        assert_eq!(r.owner(NodeId(0)), 0);
        assert_eq!(r.owner(NodeId(u64::MAX)), 0);
        assert!(zone_contains(&r, 0, NodeId(7)));
        assert!(r.leafset(0, 4).is_empty());
    }

    #[test]
    fn leafset_sizes() {
        let r = ring_of(&[0, 10, 20, 30, 40, 50, 60, 70]);
        let ls = r.leafset(0, 2);
        assert_eq!(ls.len(), 4);
        // Predecessor side nearest-first: 7, 6; successor side: 1, 2.
        assert_eq!(ls, vec![7, 6, 1, 2]);
    }

    #[test]
    fn leafset_never_contains_self_or_duplicates() {
        let r = ring_of(&[0, 10, 20]);
        let ls = r.leafset(1, 8); // r bigger than ring
        assert!(!ls.contains(&1));
        let mut sorted = ls.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ls.len());
        assert_eq!(ls.len(), 2);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut r = ring_of(&[10, 30, 50]);
        let m = r.remove_id(NodeId(30)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.owner(NodeId(29)), r.index_of(NodeId(50)).unwrap());
        r.insert(m);
        assert_eq!(r.owner(NodeId(29)), r.index_of(NodeId(30)).unwrap());
        assert!(r.remove_id(NodeId(999)).is_none());
    }

    #[test]
    fn with_random_ids_is_deterministic() {
        let a = Ring::with_random_ids((0..100).map(HostId), 5);
        let b = Ring::with_random_ids((0..100).map(HostId), 5);
        assert_eq!(a.members(), b.members());
        assert_eq!(a.len(), 100);
    }

    proptest! {
        #[test]
        fn prop_every_key_has_exactly_one_owner(
            ids in proptest::collection::btree_set(any::<u64>(), 1..40),
            key: u64,
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let r = ring_of(&ids);
            let key = NodeId(key);
            let owner = r.owner(key);
            prop_assert!(zone_contains(&r, owner, key));
            // No other node's zone contains it.
            for i in 0..r.len() {
                if i != owner {
                    prop_assert!(!zone_contains(&r, i, key) || r.len() == 1);
                }
            }
        }

        #[test]
        fn prop_sorted_build_equals_insert_by_insert(
            // A small ID space, so that about half the cases repeat an ID.
            ids in proptest::collection::vec(0u64..200, 0..24),
        ) {
            let members = ids.iter().enumerate().map(|(i, &id)| Member {
                id: NodeId(id),
                host: HostId(i as u32),
            });
            let sorted = std::panic::catch_unwind(|| Ring::from_members(members));
            let inserted = std::panic::catch_unwind(|| ring_of(&ids));
            // What rejecting each repeated ID reads like.
            let repeats: Vec<String> = ids
                .iter()
                .filter(|&&id| ids.iter().filter(|&&other| other == id).count() > 1)
                .map(|&id| format!("duplicate node ID {:?}", NodeId(id)))
                .collect();
            match (sorted, inserted) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(repeats.is_empty());
                    prop_assert_eq!(a.members(), b.members());
                }
                // Both name a repeated ID in the same words; which one,
                // when several repeat, follows the order each met them in.
                (Err(a), Err(b)) => {
                    for panic in [a, b] {
                        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
                        prop_assert!(repeats.contains(msg), "{}", msg);
                    }
                }
                _ => prop_assert!(false, "one build rejected what the other accepted"),
            }
        }

        #[test]
        fn prop_zones_cover_whole_circle(
            ids in proptest::collection::btree_set(any::<u64>(), 1..20),
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let r = ring_of(&ids);
            // Sum of clockwise zone widths must be the whole circle.
            let mut total: u128 = 0;
            for i in 0..r.len() {
                let (lo, hi) = zone(&r, i);
                let w = lo.distance_cw(hi);
                total += if w == 0 { 1u128 << 64 } else { w as u128 };
            }
            prop_assert_eq!(total, 1u128 << 64);
        }

        #[test]
        fn prop_leafset_symmetric(
            ids in proptest::collection::btree_set(any::<u64>(), 3..30),
            r_size in 1usize..5,
        ) {
            // If y is in x's leafset, x is in y's leafset (same r).
            let ids: Vec<u64> = ids.into_iter().collect();
            let ring = ring_of(&ids);
            for x in 0..ring.len() {
                for &y in &ring.leafset(x, r_size) {
                    prop_assert!(
                        ring.leafset(y, r_size).contains(&x),
                        "asymmetric leafset x={} y={}", x, y
                    );
                }
            }
        }
    }

    /// The walk `leafset` used until it was bounded: mark every visited
    /// member in an n-long table and stop at the first repeat.
    fn seen_marking_leafset(ring: &Ring, idx: usize, r: usize) -> Vec<usize> {
        let n = ring.len();
        if n <= 1 {
            return vec![];
        }
        let mut out = Vec::new();
        let mut seen = vec![false; n];
        seen[idx] = true;
        let mut p = idx;
        for _ in 0..r {
            p = ring.predecessor(p);
            if seen[p] {
                break;
            }
            seen[p] = true;
            out.push(p);
        }
        let mut s = idx;
        for _ in 0..r {
            s = ring.successor(s);
            if seen[s] {
                break;
            }
            seen[s] = true;
            out.push(s);
        }
        out
    }

    #[test]
    fn bounded_leafset_walk_equals_the_seen_marking_walk() {
        // Exhaustive over every ring size and radius where the two walks
        // can meet (2r ≥ n − 1) and well past it.
        for n in 1..=70usize {
            let ids: Vec<u64> = (0..n as u64).map(|i| i * 1000 + 7).collect();
            let ring = ring_of(&ids);
            for r in 0..=40 {
                for idx in 0..n {
                    let got = ring.leafset(idx, r);
                    assert_eq!(got, seen_marking_leafset(&ring, idx, r), "n={n} r={r}");
                    assert!(got.capacity() <= 2 * r, "n={n} r={r}: beyond O(r)");
                }
            }
        }
    }
}
