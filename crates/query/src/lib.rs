#![warn(missing_docs)]

//! # query — hierarchical aggregation & queries over the SOMO tree
//!
//! §3.2 promises more than monitoring: "SOMO can be used to implement
//! publish/subscribe service as well... the SOMO root can answer queries
//! about the pool without a global scan." This crate delivers that promise
//! as a first-class subsystem:
//!
//! * [`aggregate`] — the mergeable [`Aggregate`] lattice: per-rank
//!   count/sum/min/max of free degree plus fixed-bucket histograms over
//!   free degree, coordinate region and bandwidth class, constant-size
//!   under merge (proptest-checked commutative/associative);
//! * [`index`] — a [`QueryIndex`] caching one aggregate per internal SOMO
//!   node (a leaf's derives from the one sample it reports), maintained
//!   incrementally in `O(log_k N)` messages per member update;
//! * [`engine`] — point, range and **top-k idle-helper** queries that
//!   descend the tree pruning subtrees via the cached aggregates, each
//!   answer carrying an explicit [`Freshness`] bound derived from
//!   [`somo::flow`]'s staleness math;
//! * [`subscribe`] — continuous standing queries (threshold
//!   subscriptions) whose [`ThresholdDelta`]s fire only on crossings and
//!   piggyback on the newscast dissemination path.
//!
//! The planners in `pool` consume scoped top-k answers instead of full
//! snapshots; `ext_query` measures the payoff — sub-linear query bytes vs
//! linear snapshot bytes with identical planning quality.

pub mod aggregate;
pub mod engine;
pub mod index;
pub mod subscribe;

pub use aggregate::{Aggregate, HostSample, MetricAgg, PressureReport, RegionBounds};
pub use engine::{Freshness, QueryAnswer, QueryRequest, QueryStats, Scope};
pub use index::QueryIndex;
pub use subscribe::{PressureWatch, Subscription, SubscriptionSet, ThresholdDelta};
