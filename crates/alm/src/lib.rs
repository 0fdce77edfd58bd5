#![warn(missing_docs)]

//! # alm — degree-bounded minimum-height multicast trees (§5)
//!
//! The paper's QoS objective for application-level multicast:
//!
//! > **DB-MHT.** Given an undirected complete graph G(V,E), a degree bound
//! > d_bound(v) for each v ∈ V and a latency l(e) for each edge, find a
//! > spanning tree T such that every node respects its degree bound and the
//! > height of T (aggregated latency from the root) is minimized.
//!
//! DB-MHT is NP-complete; the paper builds on the AMCast greedy heuristic
//! and improves it with resources drawn from the P2P pool:
//!
//! * [`amcast()`] — the O(N³) greedy baseline (Figure 6 without the dashed
//!   box): grow the tree from the root, always absorbing the pending node
//!   of minimum tentative height;
//! * [`critical()`] — the **critical-node** algorithm (the dashed box):
//!   when a parent's free degree drops to one, recruit a nearby high-degree
//!   helper from the pool to take its place as the hub;
//! * [`adjust()`] — the post-pass of heuristic moves (re-parent the highest
//!   node / swap it with another leaf / swap subtrees);
//! * [`bound`] — the theoretical improvement ceiling (a root of infinite
//!   degree reaching every member directly);
//! * [`tree`] — the multicast-tree data structure and its invariants;
//! * [`metrics`] — the per-thread relaxation counter a plan's work is
//!   measured in.
//!
//! Every algorithm is generic over [`netsim::LatencyModel`], so each runs
//! both with oracle latencies (the paper's *Critical* rows) and with
//! coordinate estimates (*Leafset* rows) — same code, different model.

pub mod adjust;
pub mod amcast;
pub mod bound;
pub mod critical;
pub mod dynamic;
pub mod metrics;
pub mod multipath;
pub mod problem;
pub mod staged;
pub mod tree;

pub use adjust::adjust;
pub use amcast::{amcast, amcast_reference, try_amcast};
pub use bound::improvement_upper_bound;
pub use critical::{critical, critical_reference, try_critical, HelperPool, HelperStrategy};
pub use problem::{improvement, Problem};
pub use staged::{staged_plan, try_staged_plan};
pub use tree::MulticastTree;
