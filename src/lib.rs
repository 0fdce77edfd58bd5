//! # p2p-resource-pool
//!
//! A full reproduction of **"P2P Resource Pool and Its Application to
//! Optimize Wide-Area Application Level Multicasting"** (Zhang, Chen, Lin,
//! Lu, Shi, Xie, Yuan — ICPP 2004) as a Rust workspace.
//!
//! The stack, bottom-up:
//!
//! | crate | subsystem |
//! |---|---|
//! | [`simcore`] | deterministic discrete-event simulation engine |
//! | [`netsim`] | transit–stub underlay, latency oracle, bandwidth model |
//! | [`dht`] | consistent-hashing ring: zones, leafsets, heartbeats, lookup |
//! | [`coords`] | GNP + leafset network coordinates (downhill simplex) |
//! | [`bwest`] | packet-pair bottleneck-bandwidth estimation |
//! | [`somo`] | self-organized metadata overlay (gather/disseminate) |
//! | [`query`] | hierarchical aggregates + O(log N) scoped pool queries |
//! | [`alm`] | DB-MHT trees: AMCast, adjust, critical-node helpers |
//! | [`oracle`] | tiered latency oracle: hot LRU rows, landmark sketches, GNP base |
//! | [`runstore`] | queryable run store: segmented trace/delta logs + snapshots |
//! | [`pool`] | the resource pool + market-driven multi-session scheduling |
//!
//! See `examples/` for runnable walkthroughs and the `bench` crate for the
//! binaries that regenerate every figure of the paper's evaluation.

pub use alm;
pub use bwest;
pub use coords;
pub use dht;
pub use netsim;
pub use oracle;
pub use pool;
pub use query;
pub use runstore;
pub use simcore;
pub use somo;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use alm::{adjust, amcast, critical, HelperPool, HelperStrategy, MulticastTree, Problem};
    pub use bwest::{BwEstConfig, BwEstimates};
    pub use coords::{Coord, CoordStore, GnpSolver, LeafsetCoords};
    pub use dht::{NodeId, Ring};
    pub use netsim::{HostId, LatencyModel, Network, NetworkConfig};
    pub use oracle::{LatencySource, TierStats, TieredConfig};
    pub use pool::{
        plan_and_reserve, plan_and_reserve_with, AdmissionConfig, AllocationMode, Candidates,
        DiscoveryMode, LiveOps, LiveOpsConfig, MarketConfig, MarketSim, MarketSnapshot, PlanConfig,
        PlanModel, PlanShape, PoolConfig, Rank, ResourcePool, SessionId, SessionSpec,
    };
    pub use query::{
        Aggregate, HostSample, PressureReport, PressureWatch, QueryAnswer, QueryIndex,
        RegionBounds, Scope, Subscription, SubscriptionSet, ThresholdDelta,
    };
    pub use runstore::{ReplayGap, RunStore, StoreConfig, StoreSink};
    pub use simcore::{
        AuditReport, Auditor, CloseReason, EventQueue, FaultPlan, InvariantSet, SimTime,
        TraceEvent, TraceRecord, Tracer,
    };
    pub use somo::{Report, SomoTree};
}
