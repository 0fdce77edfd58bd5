#![warn(missing_docs)]

//! # dht — the ring DHT that pools resources (§3.1)
//!
//! The paper's resource pool is built on the simplest structured P2P system:
//! a consistent-hashing **ring**. Nodes join a very large logical space with
//! random IDs; an ordered set of nodes partitions the space into *zones*
//! `zone(x) = (ID(pred(x)), ID(x)]`; each node maintains a *leafset* of `r`
//! neighbors to each side, kept fresh by heartbeats.
//!
//! This crate provides both views of that system:
//!
//! * [`ring::Ring`] — the **structural** view: a snapshot of the membership
//!   with exact zones, leafsets and owner lookups. The metric-generation
//!   layers (`coords`, `bwest`) and SOMO build on this; it supports instant
//!   join/leave for churn experiments.
//! * [`proto::DhtSim`] — the **protocol** view: heartbeats, acks, failure
//!   detection and leafset repair simulated message-by-message on
//!   [`simcore::EventQueue`], with message latencies taken from the underlay;
//!   its [`proto::DhtSim::lookup`] routes greedily over the believed views.
//!
//! ## Example
//!
//! ```
//! use dht::id::NodeId;
//! use dht::ring::Ring;
//!
//! // A ring of 64 nodes with IDs hashed from host indices.
//! let ring = Ring::with_random_ids((0..64u32).map(netsim::HostId), 42);
//! let key = NodeId(0xDEAD_BEEF_DEAD_BEEF);
//! let owner = ring.owner(key);
//! // The owner's zone, (predecessor's ID, own ID], contains the key.
//! let pred = ring.member(ring.predecessor(owner)).id;
//! assert!(dht::id::in_arc(pred, ring.member(owner).id, key));
//! ```

pub mod id;
pub mod proto;
pub mod ring;

pub use id::NodeId;
pub use ring::Ring;
