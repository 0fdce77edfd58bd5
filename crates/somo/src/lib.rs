#![warn(missing_docs)]

//! # somo — Self-Organized Metadata Overlay (§3.2)
//!
//! DHT alone pools resources but tells nobody what is going on inside the
//! pool. SOMO completes the picture: a logical tree with fixed fanout `k` is
//! *drawn in the virtual ID space* — its node positions are pure arithmetic
//! that every peer computes independently — and then mapped onto whichever
//! physical nodes currently own each logical point. Metadata flows leaf →
//! root (gather) and root → leaf (disseminate) in `O(log_k N)` time, giving
//! every peer access to a continuously refreshed global view: the illusion
//! of a single resource pool.
//!
//! Because the hierarchy lives in the *logical* space, it inherits the DHT's
//! self-organization for free: when a node dies, its zone — and with it the
//! logical tree nodes it hosted — passes to a ring neighbor, and the tree is
//! whole again. No tree-repair protocol exists, by construction.
//!
//! Crate layout:
//!
//! * [`tree`] — the logical-tree geometry: recursive arc subdivision,
//!   leaf condition (an arc entirely inside one DHT zone stops splitting),
//!   hosting (each logical node is owned by `ring.owner(center)`);
//! * [`report`] — the [`report::Report`] merge abstraction and stock
//!   reports (membership census, capability maximum);
//! * [`flow`] — discrete-event simulation of the gather flow in both the
//!   **unsynchronized** (free-running timers; staleness ≤ `log_k N · T`)
//!   and **synchronized** (root-triggered cascade; staleness ≈
//!   `T + t_hop · log_k N`) regimes;
//! * [`newscast`] — the disseminate half: a synchronized gather's root
//!   views published down the tree to every member;
//! * [`heal`] — failure remapping measurements and the capability-driven
//!   **root swap** self-optimization;
//! * [`traffic`] — per-source message/byte ledgers and report wire
//!   encodings.

pub mod flow;
pub mod heal;
pub mod newscast;
pub mod report;
pub mod traffic;
pub mod tree;

pub use report::Report;
pub use tree::SomoTree;
