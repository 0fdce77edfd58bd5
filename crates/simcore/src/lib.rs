#![warn(missing_docs)]

//! # simcore — deterministic discrete-event simulation engine
//!
//! Substrate for the P2P resource-pool reproduction (Zhang et al., ICPP 2004).
//! All protocol behaviour in the workspace — DHT heartbeats, SOMO report
//! flows, ALM session churn — is simulated on this engine rather than on real
//! sockets, so every experiment is reproducible bit-for-bit from a seed.
//!
//! The engine is intentionally minimal and generic:
//!
//! * [`SimTime`] — a microsecond-resolution simulated clock value.
//! * [`EventQueue`] — a priority queue of `(SimTime, E)` pairs with a
//!   deterministic FIFO tie-break for simultaneous events.
//! * [`rng`] — seed-derivation helpers so each simulated entity gets an
//!   independent, reproducible random stream.
//! * [`stats`] — online statistics, percentiles, CDFs and a fairness index
//!   used by the figure-regeneration harnesses.
//! * [`faults`] — seed-deterministic fault injection: message loss, delay
//!   jitter, link outages/partitions and crash schedules ([`FaultPlan`]),
//!   executed per message by a [`FaultyLink`].
//! * [`audit`] — cross-crate invariant auditing: registerable named
//!   invariants ([`audit::InvariantSet`]) sampled on the event clock by an
//!   [`Auditor`], hard-failing under `debug-assertions` and reporting
//!   violations ([`audit::AuditReport`]) in release sweeps.
//! * [`trace`] — deterministic structured event tracing: typed
//!   [`TraceEvent`]s stamped on the simulated clock, bounded ring-buffer
//!   sink, zero-cost no-op sink by default, JSON-lines export, and the
//!   [`TraceSink`] hook the run store's live sink plugs into.
//!
//! Accounting is not kept here: each layer reports its own typed stats
//! (`GatherStats`, `TierStats`, `StoreStats`, ...), and the one string
//! namespace is the benchmark's `<layer>.<object>.<measure>` names.
//!
//! ## Example
//!
//! ```
//! use simcore::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32), Done }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(10), Ev::Ping(1));
//! q.schedule(SimTime::from_millis(5), Ev::Ping(0));
//! q.schedule(SimTime::from_millis(10), Ev::Done); // same time: FIFO order
//!
//! let mut seen = vec![];
//! while let Some((t, ev)) = q.pop() {
//!     seen.push((t.as_millis(), ev));
//! }
//! assert_eq!(seen[0].1, Ev::Ping(0));
//! assert_eq!(seen[1].1, Ev::Ping(1));
//! assert_eq!(seen[2].1, Ev::Done);
//! ```

pub mod audit;
pub mod faults;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::{AuditReport, Auditor, InvariantSet};
pub use faults::{FaultPlan, FaultyLink};
pub use queue::EventQueue;
pub use time::SimTime;
pub use trace::{CloseReason, TraceEvent, TraceRecord, TraceSink, Tracer};
