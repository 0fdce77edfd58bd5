#![warn(missing_docs)]

//! # runstore — a queryable store for one simulation run
//!
//! The trace layer (`simcore::trace`) stops at post-hoc JSON-lines
//! dumps: once a run ends, the ring buffer is drained and the history is a
//! flat file. A [`RunStore`] is the live-operations upgrade — the
//! event-log-plus-snapshots shape of an audit store:
//!
//! * an **append-only trace log** of every [`TraceRecord`] the run emits,
//!   kept in bounded segments ([`StoreConfig`]) with *counted* eviction —
//!   a record is never lost silently;
//! * an append-only **delta log** of typed state-changing events
//!   ([`Stamped`]`<D>`), same segmented retention;
//! * periodic **snapshots** of full simulator state
//!   ([`SnapshotEntry`]`<S>`), each stamped with the trace and delta
//!   sequence numbers it is consistent with.
//!
//! Reconstruction is [`RunStore::replay`]: open a working state from a
//! snapshot's stored one and fold the retained deltas after it forward with
//! a caller-supplied apply function. The stored state `S` and the working
//! state need not be one type — a store may keep snapshots in a compact
//! frozen form and replay into whatever its deltas apply to; a state that
//! replays in place passes `Clone::clone`. When the segments still hold the
//! needed range this is exact —
//! the determinism gates in `tests/liveops.rs` and the `ext_liveops` bench
//! assert the reconstructed state byte-identical to the live run. When
//! eviction has opened a gap, the store says so with a typed
//! [`ReplayGap`] instead of replaying from the wrong base.
//!
//! The store is deliberately generic: `D` (delta) and `S` (snapshot state)
//! are the simulator's own serde-able types; `pool::liveops` instantiates
//! it for the market. [`StoreSink`] adapts a shared store into a
//! [`TraceSink`] so a `Tracer` streams records straight into the trace log.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use serde::Serialize;
use simcore::trace::{to_json_lines, TraceRecord, TraceSink};
use simcore::SimTime;

/// Retention policy for one segmented log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Records per segment (a segment seals when full).
    pub segment_cap: usize,
    /// Maximum sealed-or-open segments retained per log; the oldest
    /// segment is evicted (and its records counted) beyond this.
    pub max_segments: usize,
}

impl StoreConfig {
    /// Bounded retention: at most `max_segments` segments of
    /// `segment_cap` records each, per log.
    ///
    /// # Panics
    /// If either bound is 0.
    pub fn bounded(segment_cap: usize, max_segments: usize) -> StoreConfig {
        assert!(segment_cap > 0, "segment capacity must be positive");
        assert!(max_segments > 0, "segment count must be positive");
        StoreConfig {
            segment_cap,
            max_segments,
        }
    }

    /// Segmented but effectively unbounded retention (determinism gates
    /// want the full history).
    pub fn unbounded(segment_cap: usize) -> StoreConfig {
        StoreConfig::bounded(segment_cap, usize::MAX)
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::unbounded(4096)
    }
}

/// A requested replay range reaches below the store's retained history:
/// eviction dropped records the reconstruction would need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayGap {
    /// First sequence number the caller needed.
    pub requested: u64,
    /// Earliest sequence number still retained.
    pub earliest: u64,
}

impl std::fmt::Display for ReplayGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay gap: seq {} requested but eviction kept only {}..",
            self.requested, self.earliest
        )
    }
}

impl std::error::Error for ReplayGap {}

/// One delta stamped with its log position and simulated instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamped<D> {
    /// Position in the delta log (monotonic, never reset by eviction).
    pub seq: u64,
    /// Simulated instant the delta was appended at, microseconds.
    pub at_us: u64,
    /// The delta itself.
    pub delta: D,
}

/// One snapshot of full simulator state, with the log positions it is
/// consistent with: every trace record `< trace_seq` and every delta
/// `< delta_seq` is already reflected in `state`.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry<S> {
    /// Simulated instant the snapshot was taken at, microseconds.
    pub at_us: u64,
    /// Trace-log sequence number the snapshot is consistent with.
    pub trace_seq: u64,
    /// Delta-log sequence number the snapshot is consistent with.
    pub delta_seq: u64,
    /// The captured state.
    pub state: S,
}

// The vendored serde derive does not handle generic types; these render
// the same field-by-name object encoding the derive would.
impl<D: Serialize> Serialize for Stamped<D> {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("seq".to_owned(), self.seq.to_json_value()),
            ("at_us".to_owned(), self.at_us.to_json_value()),
            ("delta".to_owned(), self.delta.to_json_value()),
        ])
    }
}

impl<S: Serialize> Serialize for SnapshotEntry<S> {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("at_us".to_owned(), self.at_us.to_json_value()),
            ("trace_seq".to_owned(), self.trace_seq.to_json_value()),
            ("delta_seq".to_owned(), self.delta_seq.to_json_value()),
            ("state".to_owned(), self.state.to_json_value()),
        ])
    }
}

/// An append-only log in bounded segments with counted eviction.
#[derive(Clone, Debug)]
struct SegmentedLog<T> {
    segments: VecDeque<Segment<T>>,
    cfg: StoreConfig,
    /// Records ever appended (== the next sequence number).
    appended: u64,
    /// Records lost to segment eviction.
    evicted: u64,
}

#[derive(Clone, Debug)]
struct Segment<T> {
    first_seq: u64,
    items: Vec<T>,
}

impl<T> SegmentedLog<T> {
    fn new(cfg: StoreConfig) -> SegmentedLog<T> {
        SegmentedLog {
            segments: VecDeque::new(),
            cfg,
            appended: 0,
            evicted: 0,
        }
    }

    fn append(&mut self, item: T) {
        let needs_new = match self.segments.back() {
            Some(s) => s.items.len() >= self.cfg.segment_cap,
            None => true,
        };
        if needs_new {
            self.segments.push_back(Segment {
                first_seq: self.appended,
                items: Vec::new(),
            });
            if self.segments.len() > self.cfg.max_segments {
                let old = self.segments.pop_front().expect("len > max >= 1");
                self.evicted += old.items.len() as u64;
            }
        }
        self.segments
            .back_mut()
            .expect("just ensured a segment")
            .items
            .push(item);
        self.appended += 1;
    }

    /// Sequence number of the earliest retained record (== `appended` when
    /// the log is empty).
    fn earliest(&self) -> u64 {
        self.segments.front().map_or(self.appended, |s| s.first_seq)
    }

    fn next_seq(&self) -> u64 {
        self.appended
    }

    fn stored(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flat_map(|s| s.items.iter())
    }

    /// The newest retained record. A segment is only ever opened to take a
    /// record, so the last segment's last item is it.
    fn latest(&self) -> Option<&T> {
        self.segments.back()?.items.last()
    }

    /// Every retained record with sequence number in `[from, to)`.
    fn range(&self, from: u64, to: u64) -> Result<Vec<&T>, ReplayGap> {
        if from < self.earliest() {
            return Err(ReplayGap {
                requested: from,
                earliest: self.earliest(),
            });
        }
        let mut out = Vec::new();
        for seg in &self.segments {
            let seg_end = seg.first_seq + seg.items.len() as u64;
            if seg_end <= from || seg.first_seq >= to {
                continue;
            }
            let lo = from.saturating_sub(seg.first_seq) as usize;
            let hi = (to.min(seg_end) - seg.first_seq) as usize;
            out.extend(seg.items[lo..hi].iter());
        }
        Ok(out)
    }
}

/// Cumulative accounting for one [`RunStore`]. Every count is explicit —
/// eviction is visible here, never silent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Trace records ever appended.
    pub trace_appended: u64,
    /// Trace records lost to segment eviction.
    pub trace_evicted: u64,
    /// Deltas ever appended.
    pub delta_appended: u64,
    /// Deltas lost to segment eviction.
    pub delta_evicted: u64,
    /// Snapshots taken.
    pub snapshots: u64,
}

/// The run store. See the module docs; `D` is the simulator's delta type,
/// `S` its snapshot state.
pub struct RunStore<D, S> {
    trace: SegmentedLog<TraceRecord>,
    deltas: SegmentedLog<Stamped<D>>,
    snapshots: Vec<SnapshotEntry<S>>,
}

impl<D, S> RunStore<D, S> {
    /// An empty store; both logs retain per `cfg`.
    pub fn new(cfg: StoreConfig) -> RunStore<D, S> {
        RunStore {
            trace: SegmentedLog::new(cfg),
            deltas: SegmentedLog::new(cfg),
            snapshots: Vec::new(),
        }
    }

    /// Append one trace record (normally via [`StoreSink`]).
    pub fn append_trace(&mut self, rec: TraceRecord) {
        self.trace.append(rec);
    }

    /// Append one delta at simulated instant `at`; returns its sequence
    /// number.
    pub fn append_delta(&mut self, at: SimTime, delta: D) -> u64 {
        let seq = self.deltas.next_seq();
        self.deltas.append(Stamped {
            seq,
            at_us: at.as_micros(),
            delta,
        });
        seq
    }

    /// Record a snapshot of `state` taken at `at`, consistent with
    /// everything appended so far. Returns its index.
    pub fn snapshot(&mut self, at: SimTime, state: S) -> usize {
        self.snapshots.push(SnapshotEntry {
            at_us: at.as_micros(),
            trace_seq: self.trace.next_seq(),
            delta_seq: self.deltas.next_seq(),
            state,
        });
        self.snapshots.len() - 1
    }

    /// Every snapshot taken, oldest first.
    pub fn snapshots(&self) -> &[SnapshotEntry<S>] {
        &self.snapshots
    }

    /// The most recent snapshot, if any.
    pub fn latest_snapshot(&self) -> Option<&SnapshotEntry<S>> {
        self.snapshots.last()
    }

    /// Reconstruct the state at the end of the log from snapshot `idx`:
    /// `open` a working state from the stored one (`Clone::clone` when the
    /// stored state replays in place), then fold every retained delta from
    /// the snapshot's consistency point onward with `apply`.
    ///
    /// # Errors
    /// [`ReplayGap`] when delta eviction dropped part of the needed range
    /// — reconstruction from this snapshot would be wrong, so it is
    /// refused rather than silently partial.
    ///
    /// # Panics
    /// If the store holds no snapshot `idx` (`idx >= snapshots().len()`).
    pub fn replay<W>(
        &self,
        idx: usize,
        open: impl FnOnce(&S) -> W,
        mut apply: impl FnMut(&mut W, &Stamped<D>),
    ) -> Result<W, ReplayGap> {
        let held = self.snapshots.len();
        assert!(
            idx < held,
            "no snapshot {idx}: the store holds {held} snapshots"
        );
        let snapshot = &self.snapshots[idx];
        let deltas = self
            .deltas
            .range(snapshot.delta_seq, self.deltas.next_seq())?;
        let mut state = open(&snapshot.state);
        for d in deltas {
            apply(&mut state, d);
        }
        Ok(state)
    }

    /// The full-run trace, cloned out of the segments.
    ///
    /// # Errors
    /// [`ReplayGap`] when eviction dropped early records — the full trace
    /// no longer exists and a partial one must not masquerade as it.
    pub fn trace_records(&self) -> Result<Vec<TraceRecord>, ReplayGap> {
        if self.trace.evicted > 0 {
            return Err(ReplayGap {
                requested: 0,
                earliest: self.trace.earliest(),
            });
        }
        Ok(self.trace.stored().cloned().collect())
    }

    /// Every retained delta, oldest first (partial after eviction).
    pub fn deltas_stored(&self) -> impl Iterator<Item = &Stamped<D>> {
        self.deltas.stored()
    }

    /// The newest retained delta, in O(1); `None` before the first append.
    pub fn latest_delta(&self) -> Option<&Stamped<D>> {
        self.deltas.latest()
    }

    /// Cumulative append/evict/snapshot accounting.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            trace_appended: self.trace.appended,
            trace_evicted: self.trace.evicted,
            delta_appended: self.deltas.appended,
            delta_evicted: self.deltas.evicted,
            snapshots: self.snapshots.len() as u64,
        }
    }

    /// The full-run trace rendered as JSON lines (byte-identical to
    /// rendering the live tracer's records).
    ///
    /// # Errors
    /// [`ReplayGap`] as for [`RunStore::trace_records`].
    pub fn trace_json_lines(&self) -> Result<String, ReplayGap> {
        Ok(to_json_lines(&self.trace_records()?))
    }
}

impl<D: Serialize, S> RunStore<D, S> {
    /// Every retained delta as JSON lines, one stamped object per line.
    pub fn deltas_json_lines(&self) -> String {
        let mut out = String::new();
        for d in self.deltas.stored() {
            out.push_str(&serde_json::to_string(d).expect("deltas always serialize"));
            out.push('\n');
        }
        out
    }
}

impl<D, S: Serialize> RunStore<D, S> {
    /// Every snapshot as JSON lines, one entry per line.
    pub fn snapshots_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&serde_json::to_string(s).expect("snapshots always serialize"));
            out.push('\n');
        }
        out
    }
}

/// Shared ownership of a store: the simulator holds one clone, the
/// tracer's [`StoreSink`] another, an operator console a third.
pub type StoreHandle<D, S> = Arc<Mutex<RunStore<D, S>>>;

/// Wrap a store in a fresh shared handle.
pub fn shared<D, S>(store: RunStore<D, S>) -> StoreHandle<D, S> {
    Arc::new(Mutex::new(store))
}

/// A [`TraceSink`] that appends every record to a shared [`RunStore`]'s
/// trace log. Attach via `Tracer::with_sink(Box::new(StoreSink::new(h)))`.
pub struct StoreSink<D, S> {
    handle: StoreHandle<D, S>,
}

impl<D, S> StoreSink<D, S> {
    /// A sink feeding `handle`'s trace log.
    pub fn new(handle: StoreHandle<D, S>) -> StoreSink<D, S> {
        StoreSink { handle }
    }
}

impl<D, S> TraceSink for StoreSink<D, S> {
    fn record(&mut self, rec: TraceRecord) {
        self.handle
            .lock()
            .expect("run store lock poisoned")
            .append_trace(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::trace::TraceEvent;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            at_us: seq * 1000,
            ev: TraceEvent::RecoveryPhase { phase: seq as u32 },
        }
    }

    #[test]
    fn appends_snapshots_and_replays_to_the_final_state() {
        let mut st: RunStore<i64, i64> = RunStore::new(StoreConfig::unbounded(4));
        st.append_delta(SimTime::from_secs(1), 5);
        st.snapshot(SimTime::from_secs(1), 5);
        for i in 0..10 {
            st.append_delta(SimTime::from_secs(2 + i), 1);
        }
        st.snapshot(SimTime::from_secs(20), 15);
        // Replay from the first snapshot folds the ten +1 deltas forward.
        let got = st.replay(0, Clone::clone, |s, d| *s += d.delta).unwrap();
        assert_eq!(got, 15);
        assert_eq!(got, st.latest_snapshot().unwrap().state);
        // Replay from the final snapshot applies nothing.
        assert_eq!(
            st.replay(1, Clone::clone, |s, d| *s += d.delta).unwrap(),
            15
        );
    }

    #[test]
    fn replay_opens_a_working_state_of_another_type() {
        // Stored as a string, replayed as the number it spells.
        let mut st: RunStore<i64, String> = RunStore::new(StoreConfig::default());
        st.snapshot(SimTime::ZERO, "40".to_owned());
        st.append_delta(SimTime::from_secs(1), 2);
        let got: i64 = st
            .replay(0, |s| s.parse().unwrap(), |w, d| *w += d.delta)
            .unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn latest_delta_is_the_last_append_across_segments_and_eviction() {
        let mut st: RunStore<i64, ()> = RunStore::new(StoreConfig::bounded(2, 2));
        assert!(st.latest_delta().is_none(), "empty store");
        for i in 0..7 {
            // Appends 2 and 4 open a new segment, 4 and 6 evict the front
            // one: the newest delta is the last append throughout.
            let seq = st.append_delta(SimTime::from_secs(i), i as i64 * 10);
            let last = st.latest_delta().expect("just appended");
            assert_eq!((last.seq, last.delta), (seq, i as i64 * 10));
            assert_eq!(Some(last), st.deltas_stored().last());
        }
        assert_eq!(st.stats().delta_evicted, 4);
    }

    #[test]
    fn eviction_is_counted_and_gaps_are_typed_errors() {
        let mut st: RunStore<i64, i64> = RunStore::new(StoreConfig::bounded(2, 2));
        st.snapshot(SimTime::ZERO, 0);
        for i in 0..9 {
            st.append_delta(SimTime::from_secs(i), 1);
        }
        // 9 deltas in segments of 2, at most 2 segments retained: opening
        // the segment for seq 8 evicted everything below seq 6.
        let s = st.stats();
        assert_eq!(s.delta_appended, 9);
        assert_eq!(s.delta_evicted, 6);
        assert_eq!(st.deltas_stored().count(), 3);
        let gap = st
            .replay(0, Clone::clone, |s, d| *s += d.delta)
            .unwrap_err();
        assert_eq!(
            gap,
            ReplayGap {
                requested: 0,
                earliest: 6
            }
        );
        // A snapshot taken above the gap still replays the tail exactly.
        st.snapshot(SimTime::from_secs(9), 9);
        st.append_delta(SimTime::from_secs(10), 1);
        st.append_delta(SimTime::from_secs(11), 1);
        assert_eq!(
            st.replay(1, Clone::clone, |s, d| *s += d.delta).unwrap(),
            11
        );
    }

    #[test]
    #[should_panic(expected = "no snapshot 2: the store holds 2 snapshots")]
    fn replay_from_a_snapshot_the_store_does_not_hold_names_it() {
        let mut st: RunStore<i64, i64> = RunStore::new(StoreConfig::default());
        st.snapshot(SimTime::ZERO, 0);
        st.append_delta(SimTime::from_secs(1), 1);
        st.snapshot(SimTime::from_secs(1), 1);
        let _ = st.replay(2, Clone::clone, |s, d| *s += d.delta);
    }

    #[test]
    fn trace_log_roundtrips_and_refuses_partial_full_traces() {
        let mut st: RunStore<(), ()> = RunStore::new(StoreConfig::unbounded(3));
        for i in 0..7 {
            st.append_trace(rec(i));
        }
        let records = st.trace_records().unwrap();
        assert_eq!(records.len(), 7);
        assert_eq!(st.trace_json_lines().unwrap(), to_json_lines(&records));

        let mut tiny: RunStore<(), ()> = RunStore::new(StoreConfig::bounded(2, 1));
        for i in 0..5 {
            tiny.append_trace(rec(i));
        }
        assert!(tiny.stats().trace_evicted > 0);
        assert!(
            tiny.trace_records().is_err(),
            "partial must not pass as full"
        );
    }

    #[test]
    fn store_sink_feeds_the_shared_store() {
        use simcore::Tracer;
        let handle = shared::<(), ()>(RunStore::new(StoreConfig::default()));
        let mut t = Tracer::with_sink(Box::new(StoreSink::new(handle.clone())));
        for i in 0..4u32 {
            t.emit(SimTime::from_millis(i as u64), || {
                TraceEvent::RecoveryPhase { phase: i }
            });
        }
        assert_eq!(t.take_records(), None, "the store owns the records");
        let st = handle.lock().unwrap();
        assert_eq!(st.stats().trace_appended, 4);
        assert_eq!(st.trace_records().unwrap().len(), 4);
        assert_eq!(st.stats().trace_evicted, 0);
    }

    #[test]
    fn stamped_deltas_and_snapshots_export_as_json_lines() {
        let mut st: RunStore<i64, i64> = RunStore::new(StoreConfig::default());
        st.append_delta(SimTime::from_secs(3), 42);
        st.snapshot(SimTime::from_secs(3), 42);
        let d = st.deltas_json_lines();
        assert_eq!(d.lines().count(), 1);
        assert!(d.contains("\"seq\":0") && d.contains("42"), "{d}");
        let s = st.snapshots_json_lines();
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("\"delta_seq\":1"), "{s}");
    }
}
