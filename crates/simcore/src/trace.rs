//! Deterministic structured event tracing.
//!
//! Every simulator in the workspace runs on the seed-deterministic event
//! clock, yet until this layer existed the only way to see *inside* a run
//! was ad-hoc printouts. [`Tracer`] is the shared observability spine: a
//! simulator emits typed [`TraceEvent`]s stamped with the simulated instant
//! and a monotonic sequence number, and a pluggable [`TraceSink`] decides
//! what happens to them.
//!
//! Three properties are contractual:
//!
//! * **Determinism** — records carry only simulated time and event payload,
//!   never wall-clock or addresses, so two same-seed runs emit bit-identical
//!   traces (`tests/trace_determinism.rs` and the market cells of
//!   `tests/determinism.rs` pin this).
//! * **Zero-cost when off** — the default tracer is [`Tracer::disabled`]:
//!   [`Tracer::emit`] takes the event as a closure and returns after one
//!   branch without constructing it, so instrumented hot paths cost nothing
//!   on untraced runs (the figure anchors regenerate bit-identically with
//!   tracing compiled in).
//! * **Bounded memory** — the built-in sink is a ring buffer
//!   ([`Tracer::ring`]): once full, the oldest records are evicted, so a
//!   long simulation can stay traced without unbounded growth.
//!
//! For live consumption a sink plugs in through [`Tracer::with_sink`]; the
//! one the workspace ships is the run store's (`runstore::StoreSink`),
//! whose bounded retention counts every evicted record.
//!
//! Records export as JSON lines ([`to_json_lines`]) — one object per line,
//! deterministic field order — for diffing, artifact upload, or offline
//! analysis.

use std::collections::VecDeque;

use serde::Serialize;

use crate::time::SimTime;

/// Why a synchronized gather round ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum CloseReason {
    /// Every live child answered; the round closed on the last partial.
    Completed,
    /// The per-round child timeout fired with answers still missing.
    Timeout,
}

/// One typed event on the simulated clock.
///
/// Variants use raw integer ids (`simcore` sits below the crates that own
/// `HostId`/`NodeId`); the emitting layer documents the mapping. The enum is
/// deliberately closed — a shared taxonomy is what makes traces from
/// different subsystems mergeable and diffable.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum TraceEvent {
    /// DHT: a node's heartbeat timer fired toward `targets` leafset peers.
    DhtHeartbeat {
        /// Simulator node index.
        node: u32,
        /// How many peers were heartbeated.
        targets: u32,
    },
    /// DHT: `node` expired `peer`, a silent leafset peer, from its view.
    DhtExpel {
        /// Simulator node index doing the expelling.
        node: u32,
        /// Expelled peer's ring id.
        peer: u64,
    },
    /// Gather: an internal node opened a synchronized round.
    GatherOpen {
        /// Logical tree node index.
        node: u32,
        /// Round counter.
        round: u64,
        /// Live children expected to answer at open time.
        expected: u32,
    },
    /// Gather: a child's partial was folded into an open round.
    GatherPartial {
        /// Logical tree node index receiving the partial.
        node: u32,
        /// Round counter.
        round: u64,
        /// Logical index of the child that sent it.
        from: u32,
    },
    /// Gather: a duplicate partial from the same child was ignored.
    GatherDuplicate {
        /// Logical tree node index receiving the duplicate.
        node: u32,
        /// Round counter.
        round: u64,
        /// Logical index of the repeating child.
        from: u32,
    },
    /// Gather: a synchronized round closed.
    GatherClose {
        /// Logical tree node index.
        node: u32,
        /// Round counter.
        round: u64,
        /// Distinct child partials folded in.
        received: u32,
        /// Live children expected at close time.
        expected: u32,
        /// Whether the round completed or timed out.
        reason: CloseReason,
    },
    /// Gather: a timeout fired for a round that had already closed (no-op).
    GatherTimeoutSuppressed {
        /// Logical tree node index.
        node: u32,
        /// Round counter.
        round: u64,
    },
    /// Gather: the root recorded a fresh global view.
    GatherRootView {
        /// Round counter (0 in unsynchronized mode).
        round: u64,
    },
    /// Market: a session planned and reserved its tree.
    MarketReserve {
        /// Session slot index.
        session: u32,
        /// Hosts in the reserved tree.
        hosts: u32,
        /// Total degrees booked for the session after the plan.
        degrees: u32,
        /// Candidate-parent relaxations the plan performed.
        relaxations: u64,
        /// Always 0 from the market: only a counting adapter
        /// (`netsim::latency::Counted`) counts latency calls, and the pool
        /// plans through an uncounted oracle. Kept because pinned traces
        /// serialize it.
        latency_calls: u64,
    },
    /// Market: a session released all of its holdings.
    MarketRelease {
        /// Session slot index.
        session: u32,
    },
    /// Market: a leased plan renewed the session's leases one TTL out.
    MarketLeaseRenew {
        /// Session slot index.
        session: u32,
    },
    /// Market: a replan ran (periodic or preemption-triggered).
    MarketReplan {
        /// Session slot index.
        session: u32,
        /// Whether a preemption (not the periodic timer) triggered it.
        preempt: bool,
    },
    /// Market: a task manager noticed dead hosts in its session.
    MarketCrashDetect {
        /// Session slot index.
        session: u32,
        /// Stranded holdings released (hosts).
        stranded: u32,
        /// Dead hosts found in the session's tree.
        dead_in_tree: u32,
    },
    /// Market: a mid-session crash repair finished.
    MarketCrashRepair {
        /// Session slot index.
        session: u32,
        /// Whether the incremental holdings re-sync resolved it (no full
        /// replan scheduled).
        incremental: bool,
        /// Failed reattach attempts.
        retries: u64,
        /// Orphan subtrees abandoned.
        gave_up: u64,
    },
    /// Market: a deputy took over a session whose root crashed.
    MarketFailover {
        /// Session slot index.
        session: u32,
        /// Host id of the deputy.
        deputy: u32,
    },
    /// Market: a multipath session's primary tree broke and an intact
    /// standby tree was promoted within one detection round.
    MarketTreeFailover {
        /// Session slot index.
        session: u32,
        /// Index of the promoted tree in the session's primary-first tree
        /// list before the failover (≥ 1).
        survivor: u32,
    },
    /// Market: a multipath session lazily re-planned lost standby trees in
    /// the background.
    MarketTreeRebuilt {
        /// Session slot index.
        session: u32,
        /// Standby trees the rebuild added.
        trees: u32,
    },
    /// Market: a root crash left no survivor; the session is lost.
    MarketSessionLost {
        /// Session slot index.
        session: u32,
    },
    /// Market: the lease-expiry sweep returned degrees to the pool.
    MarketLeasesLapsed {
        /// Degrees returned.
        degrees: u64,
    },
    /// Market: a host went down or came back per the fault plan.
    MarketHostFault {
        /// Host id.
        host: u32,
        /// `true` = crash, `false` = revival.
        down: bool,
    },
    /// Recovery pipeline phase transition: 1 = crash detected, 2 = victims
    /// expelled from every live view, 3 = SOMO census rebuilt, 4 = ALM
    /// orphans reattached.
    RecoveryPhase {
        /// Phase number (1–4).
        phase: u32,
    },
    /// Market admission control: a session arrival was parked in its
    /// priority-class FIFO because the cluster is under scarcity.
    MarketAdmissionQueued {
        /// Session id.
        session: u32,
        /// Priority class of the queue the session joined (1–3).
        class: u8,
        /// Depth of that class queue after the arrival joined it.
        depth: u32,
    },
    /// Market admission control: a session (fresh or previously queued) was
    /// admitted at full service.
    MarketAdmissionAdmitted {
        /// Session id.
        session: u32,
        /// Microseconds the session waited in the queue (0 for a fresh
        /// arrival admitted immediately).
        waited_us: u64,
    },
    /// Market admission control: a session was admitted degraded — single
    /// tree, trimmed helper budget and member degree — instead of preempting
    /// live trees.
    MarketAdmissionDegraded {
        /// Session id.
        session: u32,
        /// Microseconds the session waited in the queue before the degraded
        /// admission (0 for a fresh arrival).
        waited_us: u64,
    },
    /// Market admission control: a session arrival was rejected — its class
    /// queue was full, its retry budget ran out, or its root crashed while
    /// it waited.
    MarketAdmissionRejected {
        /// Session id.
        session: u32,
        /// `true` when the rejection is a round-based timeout (the queued
        /// session exhausted its retry attempts).
        timeout: bool,
    },
    /// Market admission control: the cluster pressure signal crossed the
    /// scarcity threshold (in either direction).
    MarketPressureShift {
        /// `true` = the cluster just became scarce; `false` = recovered.
        scarce: bool,
    },
    /// Tiered latency oracle accounting at a plan: cumulative per-tier
    /// answer counts and the hot tier's residency. Emitted only when the
    /// pool plans through a tiered latency source, so exact-mode traces
    /// are byte-identical to the pre-oracle simulator.
    OracleTiers {
        /// Session id whose plan triggered the sample.
        session: u32,
        /// Pairs answered exactly (same-router shortcut or resident row).
        hot: u64,
        /// Pairs answered from landmark triangle bounds.
        sketch: u64,
        /// Pairs answered from coordinate distance (bound-clamped).
        base: u64,
        /// Exact Dijkstra rows resident in the hot tier.
        resident_rows: u32,
    },
}

/// One trace record: a sequence number, the simulated instant, the event.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Monotonic per-tracer sequence number (never reset by eviction).
    pub seq: u64,
    /// Simulated instant of the event, microseconds.
    pub at_us: u64,
    /// The event.
    pub ev: TraceEvent,
}

/// A pluggable destination for trace records.
///
/// The built-in ring buffer covers most uses; a custom sink (streaming to a
/// file, filtering, forwarding) plugs in via [`Tracer::with_sink`].
pub trait TraceSink {
    /// Accept one record.
    fn record(&mut self, rec: TraceRecord);
}

enum Sink {
    /// Tracing off: `emit` is one branch, the event is never constructed.
    Off,
    /// Bounded in-memory ring: oldest records evicted at capacity.
    Ring {
        buf: VecDeque<TraceRecord>,
        cap: usize,
    },
    /// Caller-supplied sink.
    Custom(Box<dyn TraceSink>),
}

/// The event tracer simulators embed. See the module docs for the
/// determinism / zero-cost / bounded-memory contract.
pub struct Tracer {
    sink: Sink,
    seq: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.sink {
            Sink::Off => "off",
            Sink::Ring { .. } => "ring",
            Sink::Custom(_) => "custom",
        };
        f.debug_struct("Tracer")
            .field("sink", &kind)
            .field("seq", &self.seq)
            .finish()
    }
}

impl Tracer {
    /// The no-op tracer (the default everywhere).
    pub fn disabled() -> Tracer {
        Tracer {
            sink: Sink::Off,
            seq: 0,
        }
    }

    /// A tracer backed by a ring buffer holding the last `cap` records.
    ///
    /// # Panics
    /// If `cap` is 0.
    pub fn ring(cap: usize) -> Tracer {
        assert!(cap > 0, "ring capacity must be positive");
        Tracer {
            sink: Sink::Ring {
                buf: VecDeque::with_capacity(cap.min(4096)),
                cap,
            },
            seq: 0,
        }
    }

    /// A tracer forwarding every record to a caller-supplied sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer {
            sink: Sink::Custom(sink),
            seq: 0,
        }
    }

    /// Whether events are being recorded. Instrumented code may use this to
    /// skip *gathering* expensive context; event construction itself is
    /// already skipped by [`Tracer::emit`]'s closure argument.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.sink, Sink::Off)
    }

    /// Emit one event at simulated instant `at`. The closure is only called
    /// when a sink is attached, so a disabled tracer costs one branch.
    #[inline]
    pub fn emit(&mut self, at: SimTime, ev: impl FnOnce() -> TraceEvent) {
        if matches!(self.sink, Sink::Off) {
            return;
        }
        let rec = TraceRecord {
            seq: self.seq,
            at_us: at.as_micros(),
            ev: ev(),
        };
        self.seq += 1;
        match &mut self.sink {
            Sink::Off => unreachable!("checked above"),
            Sink::Ring { buf, cap } => {
                if buf.len() == *cap {
                    buf.pop_front();
                }
                buf.push_back(rec);
            }
            Sink::Custom(s) => s.record(rec),
        }
    }

    /// Total events emitted since construction (including any the ring has
    /// evicted).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Drain the tracer's own buffer, oldest first.
    ///
    /// The distinction is typed, never silent:
    ///
    /// * `Some(records)` — the tracer owns its records: a ring buffer
    ///   (drained; possibly shorter than [`Tracer::emitted`] if the ring
    ///   evicted) or a disabled tracer (trivially empty — nothing was ever
    ///   emitted).
    /// * `None` — a custom sink ([`Tracer::with_sink`]) owns the records;
    ///   the tracer *cannot* produce them. Read them where the sink put
    ///   them (for `runstore::StoreSink`, the run store's trace log)
    ///   instead.
    ///
    /// Callers that blindly dump `take_records()` output used to write an
    /// empty file when a custom sink was attached; the `Option` forces
    /// the decision at the call site.
    pub fn take_records(&mut self) -> Option<Vec<TraceRecord>> {
        match &mut self.sink {
            Sink::Off => Some(Vec::new()),
            Sink::Ring { buf, .. } => Some(buf.drain(..).collect()),
            Sink::Custom(_) => None,
        }
    }
}

/// Render records as JSON lines: one compact object per record, one record
/// per line, in order. Field order is fixed by the serializer, so two
/// bit-identical traces render to byte-identical text.
pub fn to_json_lines(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("trace records always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_constructs_events() {
        let mut t = Tracer::disabled();
        let mut built = false;
        t.emit(SimTime::ZERO, || {
            built = true;
            TraceEvent::RecoveryPhase { phase: 1 }
        });
        assert!(!built, "no-op sink must not construct the event");
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.take_records(), Some(Vec::new()));
    }

    #[test]
    fn ring_buffer_keeps_the_newest_records() {
        let mut t = Tracer::ring(3);
        for i in 0..5u32 {
            t.emit(SimTime::from_millis(i as u64), || {
                TraceEvent::RecoveryPhase { phase: i }
            });
        }
        assert_eq!(t.emitted(), 5);
        let recs = t.take_records().expect("ring tracer owns its records");
        assert_eq!(recs.len(), 3);
        // Oldest two evicted; sequence numbers stay monotonic.
        assert_eq!(recs[0].seq, 2);
        assert_eq!(recs[2].seq, 4);
        assert_eq!(recs[2].at_us, 4_000);
    }

    #[test]
    fn custom_sinks_receive_every_record() {
        struct CountSink(std::rc::Rc<std::cell::Cell<u64>>);
        impl TraceSink for CountSink {
            fn record(&mut self, _rec: TraceRecord) {
                self.0.set(self.0.get() + 1);
            }
        }
        let n = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut t = Tracer::with_sink(Box::new(CountSink(n.clone())));
        assert!(t.is_enabled());
        for _ in 0..7 {
            t.emit(SimTime::ZERO, || TraceEvent::GatherRootView { round: 1 });
        }
        assert_eq!(n.get(), 7);
        // Regression: a custom sink owns its records, and the tracer says
        // so explicitly instead of handing back an empty vec that callers
        // would dump as an empty trace file.
        assert_eq!(t.take_records(), None);
        assert_eq!(t.emitted(), 7, "emitted still counts custom-sink events");
    }

    #[test]
    fn json_lines_are_deterministic_and_line_per_record() {
        let mut t = Tracer::ring(16);
        t.emit(SimTime::from_millis(1), || TraceEvent::GatherClose {
            node: 0,
            round: 1,
            received: 3,
            expected: 3,
            reason: CloseReason::Completed,
        });
        t.emit(SimTime::from_millis(2), || TraceEvent::DhtExpel {
            node: 4,
            peer: 0xDEAD,
        });
        let recs = t.take_records().expect("ring tracer owns its records");
        let a = to_json_lines(&recs);
        let b = to_json_lines(&recs);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        assert!(a.contains("Completed"));
    }
}
