//! The logical ID space.
//!
//! The paper assumes "a very large logical space (e.g. 160-bits)"; 64 bits is
//! ample for simulations of up to millions of nodes (collision probability
//! for 2M random 64-bit IDs is ~10⁻⁷) and keeps arithmetic on native words.
//! The space is a circle: all arithmetic wraps modulo 2⁶⁴.

use serde::{Deserialize, Serialize};
use simcore::rng::mix64;

/// A point in the logical ID space (a 64-bit circle).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The midpoint of the whole space (0.5 of `[0, 1)`) — the logical
    /// position of the SOMO root.
    pub const MID: NodeId = NodeId(1 << 63);

    /// Hash an arbitrary 64-bit value into the space (stands in for "MD5
    /// over a node's IP address").
    pub fn hash_of(v: u64) -> NodeId {
        NodeId(mix64(v ^ 0xA5A5_5A5A_C3C3_3C3C))
    }

    /// Clockwise distance from `self` to `other` (how far clockwise you must
    /// travel from `self` to reach `other`).
    pub fn distance_cw(self, other: NodeId) -> u64 {
        other.0.wrapping_sub(self.0)
    }
}

/// Whether `x` lies in the half-open arc `(a, b]` travelling clockwise from
/// `a`. When `a == b` the arc is the **entire circle** (the single-node ring
/// owns everything).
pub fn in_arc(a: NodeId, b: NodeId, x: NodeId) -> bool {
    if a == b {
        return true;
    }
    // Clockwise from a: x is inside iff dist(a→x) ∈ (0, dist(a→b)].
    let dx = a.distance_cw(x);
    let db = a.distance_cw(b);
    dx != 0 && dx <= db
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_wraps() {
        let a = NodeId(u64::MAX - 1);
        let b = NodeId(3);
        assert_eq!(a.distance_cw(b), 5);
        assert_eq!(b.distance_cw(a), u64::MAX - 4);
    }

    #[test]
    fn arc_membership_simple() {
        let a = NodeId(10);
        let b = NodeId(20);
        assert!(!in_arc(a, b, NodeId(10))); // open at a
        assert!(in_arc(a, b, NodeId(11)));
        assert!(in_arc(a, b, NodeId(20))); // closed at b
        assert!(!in_arc(a, b, NodeId(21)));
        assert!(!in_arc(a, b, NodeId(5)));
    }

    #[test]
    fn arc_membership_wrapping() {
        let a = NodeId(u64::MAX - 10);
        let b = NodeId(10);
        assert!(in_arc(a, b, NodeId(0)));
        assert!(in_arc(a, b, NodeId(10)));
        assert!(in_arc(a, b, NodeId(u64::MAX)));
        assert!(!in_arc(a, b, NodeId(11)));
        assert!(!in_arc(a, b, NodeId(u64::MAX - 10)));
    }

    #[test]
    fn degenerate_arc_is_full_circle() {
        let a = NodeId(42);
        assert!(in_arc(a, a, NodeId(0)));
        assert!(in_arc(a, a, NodeId(u64::MAX)));
        assert!(in_arc(a, a, NodeId(42)));
    }

    #[test]
    fn hash_is_stable_and_spread() {
        assert_eq!(NodeId::hash_of(1), NodeId::hash_of(1));
        let mut ids: Vec<u64> = (0..1000).map(|i| NodeId::hash_of(i).0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000, "hash collision in small domain");
    }

    proptest! {
        #[test]
        fn prop_arc_total_partition(a: u64, b: u64, x: u64) {
            // Every point is in exactly one of (a, b] and (b, a],
            // except the endpoints a and b themselves when a != b.
            let (a, b, x) = (NodeId(a), NodeId(b), NodeId(x));
            prop_assume!(a != b);
            let in_ab = in_arc(a, b, x);
            let in_ba = in_arc(b, a, x);
            prop_assert!(in_ab ^ in_ba, "x must be in exactly one arc");
        }

        #[test]
        fn prop_distance_antisymmetric(a: u64, b: u64) {
            let (a, b) = (NodeId(a), NodeId(b));
            prop_assume!(a != b);
            let sum = a.distance_cw(b) as u128 + b.distance_cw(a) as u128;
            prop_assert_eq!(sum, 1u128 << 64);
        }
    }
}
