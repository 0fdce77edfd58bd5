//! Report wire-size accounting (§3.2's operational notes).
//!
//! LiquidEye runs with "a reporting cycle of 5 seconds, and the leaf SOMO
//! report is 40 bytes... In a wide-area and large-scale deployment, we will
//! opt for a less aggressive interval and also employ compression
//! optimization." Capacity planning for SOMO is about how report bytes
//! scale up the tree: a node at depth d carries the aggregate of its whole
//! subtree, so uncapped reports grow linearly in subtree size while capped
//! reports plateau.
//!
//! [`Encodable`] gives reports a wire size; [`traffic_by_level`] walks a
//! tree snapshot and accounts the bytes each level ships per gather round —
//! the number you size an overlay's background bandwidth with.

pub use bytes::{BufMut, Bytes, BytesMut};

use crate::report::{CapabilityReport, CensusReport, Report};
use crate::tree::SomoTree;

/// Running message/byte counters for one traffic source (gather rounds,
/// query descents, subscription deltas, …). Downstream crates hold one
/// ledger per source so benches can compare them on equal terms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficLedger {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
}

impl TrafficLedger {
    /// Account one message of `bytes` payload.
    pub fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Fold another ledger in.
    pub fn absorb(&mut self, other: &TrafficLedger) {
        self.messages += other.messages;
        self.bytes += other.bytes;
    }

    /// Publish this ledger into a [`simcore::MetricsRegistry`] as the
    /// `<prefix>.messages` / `<prefix>.bytes` counter pair.
    pub fn publish(&self, reg: &mut simcore::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.messages"), self.messages);
        reg.add(&format!("{prefix}.bytes"), self.bytes);
    }
}

/// A report that knows its wire encoding.
pub trait Encodable: Report {
    /// Serialize into a byte buffer (length-prefixed fields, no
    /// compression — the paper's "compression optimization" would sit on
    /// top of this).
    fn encode(&self) -> Bytes;

    /// Wire size in bytes.
    fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

impl Encodable for CensusReport {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        b.put_u64(self.members);
        b.put_f64(self.free_capacity);
        b.freeze()
    }
}

impl Encodable for CapabilityReport {
    fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(13);
        match self.best {
            None => b.put_u8(0),
            Some((h, c)) => {
                b.put_u8(1);
                b.put_u32(h.0);
                b.put_f64(c);
            }
        }
        b.freeze()
    }
}

/// Bytes shipped per tree level in one full (synchronized) gather round.
#[derive(Clone, Debug, Default)]
pub struct LevelTraffic {
    /// `bytes[d]` = total report bytes sent *from* depth-d nodes to their
    /// parents in one round.
    pub bytes: Vec<usize>,
}

impl LevelTraffic {
    /// Total bytes per round across all levels.
    pub fn total(&self) -> usize {
        self.bytes.iter().sum()
    }
}

/// Account one gather round's upward traffic: every node's aggregate (its
/// subtree fold of the per-member reports from `member_report`) crosses the
/// edge to its parent once.
pub fn traffic_by_level<R: Encodable>(
    tree: &SomoTree,
    ring: &dht::Ring,
    member_report: impl Fn(usize) -> R,
) -> LevelTraffic {
    // Fold subtree aggregates bottom-up. A node's aggregate merges the
    // canonical member reports of every leaf in its subtree.
    let n = tree.len();
    let mut agg: Vec<Option<R>> = vec![None; n];
    // Process nodes deepest-first.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tree.nodes()[i as usize].level()));
    // Canonical members per leaf.
    let mut canon: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for m in 0..ring.len() {
        canon.insert(tree.canonical_leaf_of(ring.member(m).id), m);
    }
    for &i in &order {
        let node = &tree.nodes()[i as usize];
        let mut acc: Option<R> = canon.get(&i).map(|&m| member_report(m));
        for c in node.children() {
            if let Some(child_agg) = agg[c as usize].clone() {
                match &mut acc {
                    Some(a) => a.merge(&child_agg),
                    slot @ None => *slot = Some(child_agg),
                }
            }
        }
        agg[i as usize] = acc;
    }

    let depth = tree.depth() as usize;
    let mut bytes = vec![0usize; depth + 1];
    for (i, node) in tree.nodes().iter().enumerate() {
        if node.parent().is_some() {
            if let Some(a) = &agg[i] {
                bytes[node.level() as usize] += a.encoded_len();
            }
        }
    }
    LevelTraffic { bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht::Ring;
    use netsim::HostId;

    #[test]
    fn census_encoding_is_fixed_width() {
        let r = CensusReport::of_member(3.5);
        assert_eq!(r.encoded_len(), 16);
        // Merging does not grow a census (that is the point of
        // aggregation: constant-size summaries).
        let mut m = r;
        m.merge(&CensusReport::of_member(1.0));
        assert_eq!(m.encoded_len(), 16);
    }

    #[test]
    fn capability_encoding_sizes() {
        assert_eq!(CapabilityReport::default().encoded_len(), 1);
        assert_eq!(
            CapabilityReport::of_member(HostId(3), 9.0).encoded_len(),
            13
        );
    }

    #[test]
    fn per_level_traffic_accounts_every_edge_once() {
        let ring = Ring::with_random_ids((0..100u32).map(HostId), 31);
        let tree = SomoTree::build(&ring, 8);
        let t = traffic_by_level(&tree, &ring, |_m| CensusReport::of_member(1.0));
        // Constant-size reports: total bytes = 16 per non-root node that
        // carries data. Every node on a path from a canonical leaf to the
        // root carries data; in practice that is almost every node.
        let edges_with_data = t.total() / 16;
        assert!(edges_with_data > 0);
        assert!(edges_with_data < tree.len());
        // Level sums are consistent with the tree shape.
        assert_eq!(t.bytes.len() as u32, tree.depth() + 1);
        assert_eq!(t.bytes[0], 0, "the root sends nothing upward");
    }

    #[test]
    fn forty_byte_reports_at_liquid_eye_scale() {
        // The paper's LiquidEye deployment: ~100 machines, 5 s cycle,
        // 40-byte leaf reports. With constant-size aggregation the total
        // per round is bounded by 40 bytes × tree edges — a few KB per
        // cycle; background noise, as the paper implies.
        #[derive(Clone)]
        struct FortyByte;
        impl Report for FortyByte {
            fn merge(&mut self, _other: &Self) {}
        }
        impl Encodable for FortyByte {
            fn encode(&self) -> Bytes {
                Bytes::from_static(&[0u8; 40])
            }
        }
        let ring = Ring::with_random_ids((0..100u32).map(HostId), 32);
        let tree = SomoTree::build(&ring, 8);
        let t = traffic_by_level(&tree, &ring, |_| FortyByte);
        let per_cycle = t.total();
        assert!(per_cycle <= 40 * (tree.len() - 1), "more bytes than edges");
        assert!(per_cycle < 64 * 1024, "LiquidEye-scale traffic must be KBs");
    }
}
