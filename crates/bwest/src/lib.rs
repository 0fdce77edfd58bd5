#![warn(missing_docs)]

//! # bwest — bottleneck-bandwidth estimation over leafset heartbeats (§4.2)
//!
//! Bottleneck bandwidth correlates with achievable throughput, so the paper
//! uses it as the throughput predictor when ranking helper candidates. Under
//! the common assumption that the bottleneck is the last hop:
//!
//! * the **upstream** bottleneck of node x is estimated as the *maximum* of
//!   packet-pair measurements from x to its leafset members (each
//!   measurement is `min(up(x), down(y))`, so one neighbor with a downlink
//!   above x's uplink makes the estimate exact);
//! * symmetrically, the **downstream** bottleneck is the maximum of
//!   measurements from leafset members into x.
//!
//! Probes are packet pairs: two back-to-back padded heartbeats (~1.5 KB);
//! the receiver divides packet size by the observed dispersion and reports
//! the value back in its next heartbeat. Larger leafsets include
//! higher-capacity neighbors with higher probability — that is exactly the
//! Figure 5 effect this crate's [`eval`] module measures. [`degree`] turns
//! an uplink estimate into the degree bound a given stream rate allows.

pub mod degree;
pub mod estimator;
pub mod eval;

pub use degree::degree_for_stream;
pub use estimator::{BwEstConfig, BwEstimates};
pub use eval::{evaluate, BwAccuracy};
