#![warn(missing_docs)]

//! # coords — network coordinates without landmarks (§4.1)
//!
//! To pick nearby helpers out of a huge candidate list, the task manager
//! needs pair-wise latency estimates for *arbitrary* host pairs. GNP showed
//! that embedding hosts into a d-dimensional Euclidean space works well, but
//! needs a set of well-known *landmark* nodes — which contradicts the fully
//! distributed nature of a P2P resource pool.
//!
//! The paper's observation (shared with Lighthouse and PIC): DHT nodes
//! already heartbeat with their leafset to maintain the space, so each node
//! accumulates a **measured delay vector** `d_m` to its leafset members for
//! free, and neighbors' coordinates ride along in heartbeats giving a
//! **predicted delay vector** `d_p`. Each node then locally runs downhill
//! simplex to minimize `E(x) = Σ_i |d_p(i) − d_m(i)|` over its own
//! coordinate, and publishes the update in subsequent heartbeats.
//!
//! This crate implements:
//!
//! * [`simplex`] — a from-scratch Nelder–Mead minimizer;
//! * [`space`] — the coordinate type and the [`CoordStore`] that implements
//!   [`netsim::LatencyModel`], so ALM planning can run on estimated
//!   latencies (the paper's *Leafset* algorithms);
//! * [`gnp`] — the landmark-based GNP baseline (Figure 4's comparison);
//! * [`leafset`] — the decentralized leafset variant;
//! * [`eval`] — relative-error CDFs (Figure 4's metric).

pub mod eval;
pub mod gnp;
pub mod leafset;
pub mod simplex;
pub mod space;

pub use eval::relative_error_cdf;
pub use gnp::{GnpConfig, GnpSolver};
pub use leafset::LeafsetCoords;
pub use space::{Coord, CoordStore};
