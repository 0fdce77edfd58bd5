//! Cross-crate invariant auditing, sampled on the event clock.
//!
//! Long fault-injection runs can silently corrupt shared state (leaked degree
//! reservations, oversubscribed hosts, resurrected tombstones) in ways no
//! single unit test observes, because the corruption only matters several
//! simulated minutes after the bug. The auditor closes that gap: a sim
//! registers a set of named invariants over a read-only view of its state
//! ([`InvariantSet`]) and samples them periodically on its own event clock.
//!
//! Failure policy is two-tier:
//!
//! * under `debug-assertions` a violated invariant **panics** at the sample
//!   where it first becomes observable, pointing at the event-time
//!   neighbourhood of the bug;
//! * in release builds violations are recorded into an [`AuditReport`] that
//!   the sim embeds in its outcome, so benches can assert cleanliness
//!   (`report.is_clean()`) without paying for aborts mid-sweep.
//!
//! Checks are plain `fn` pointers, which keeps a set cheap to construct (it
//! can be rebuilt per sample when the state view borrows locals) and keeps
//! sampling allocation-free on the clean path.

use serde::Serialize;

use crate::time::SimTime;

/// One recorded invariant violation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Name of the violated invariant, as registered.
    pub invariant: &'static str,
    /// Event-clock instant of the sample that observed it.
    pub at: SimTime,
    /// Human-readable description of the observed state.
    pub detail: String,
}

/// Aggregated results of all samples taken by one [`Auditor`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AuditReport {
    /// Number of samples taken.
    pub samples: u64,
    /// Total individual invariant checks evaluated across all samples.
    pub checks: u64,
    /// Every violation observed, in sample order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// True when no sampled invariant was ever violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations recorded for one named invariant.
    pub fn count_of(&self, invariant: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.invariant == invariant)
            .count()
    }
}

/// Collector handed to invariant checks during one sample.
pub struct AuditCtx<'a> {
    now: SimTime,
    invariant: &'static str,
    hard_fail: bool,
    report: &'a mut AuditReport,
}

impl AuditCtx<'_> {
    /// The event-clock instant of the current sample.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Assert one condition of the current invariant. `detail` is only
    /// evaluated on failure, so checks stay allocation-free when clean.
    ///
    /// # Panics
    /// Under `debug-assertions` (or [`Auditor::hard_fail`]) a failed check
    /// panics immediately; otherwise it is recorded in the report.
    pub fn check(&mut self, cond: bool, detail: impl FnOnce() -> String) {
        self.report.checks += 1;
        if cond {
            return;
        }
        let v = Violation {
            invariant: self.invariant,
            at: self.now,
            detail: detail(),
        };
        if self.hard_fail {
            panic!(
                "invariant `{}` violated at {}: {}",
                v.invariant, v.at, v.detail
            );
        }
        self.report.violations.push(v);
    }
}

/// A named, registerable set of invariants over a state view `S`.
///
/// `S` is typically a short-lived borrow bundle the sim assembles at each
/// sample (`struct MarketAuditView<'a> { pool: &'a ResourcePool, .. }`);
/// because the checks are `fn` pointers, the set itself is trivially cheap
/// and can be rebuilt per sample for any concrete lifetime.
/// A single invariant check over a state view `S`.
pub type InvariantFn<S> = fn(&S, &mut AuditCtx<'_>);

/// The named invariants a sampler evaluates together (see module docs).
pub struct InvariantSet<S> {
    checks: Vec<(&'static str, InvariantFn<S>)>,
}

impl<S> Default for InvariantSet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> InvariantSet<S> {
    /// An empty set.
    pub fn new() -> Self {
        InvariantSet { checks: Vec::new() }
    }

    /// Register a named invariant. Names appear verbatim in violations.
    pub fn register(mut self, name: &'static str, check: InvariantFn<S>) -> Self {
        self.checks.push((name, check));
        self
    }
}

/// Periodic invariant sampler.
///
/// The auditor does not own a clock: the sim drives it from its own event
/// loop, either unconditionally ([`Auditor::sample`]) or gated on the
/// sampling period ([`Auditor::due`] / [`Auditor::sample_due`]).
#[derive(Debug)]
pub struct Auditor {
    period: SimTime,
    next_at: SimTime,
    hard_fail: bool,
    report: AuditReport,
}

impl Auditor {
    /// An auditor sampling every `period`, starting at `t = 0`. Hard-fail
    /// defaults to the build's `debug-assertions` setting.
    pub fn every(period: SimTime) -> Auditor {
        Auditor {
            period,
            next_at: SimTime::ZERO,
            hard_fail: cfg!(debug_assertions),
            report: AuditReport::default(),
        }
    }

    /// Override the hard-fail policy (panic on first violation).
    pub fn hard_fail(mut self, on: bool) -> Auditor {
        self.hard_fail = on;
        self
    }

    /// True when the next periodic sample is due at `now`.
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_at
    }

    /// Evaluate every invariant in `set` against `state`, recording the
    /// sample at event time `now`.
    pub fn sample<S>(&mut self, set: &InvariantSet<S>, state: &S, now: SimTime) {
        self.report.samples += 1;
        for (name, check) in &set.checks {
            let mut ctx = AuditCtx {
                now,
                invariant: name,
                hard_fail: self.hard_fail,
                report: &mut self.report,
            };
            check(state, &mut ctx);
        }
    }

    /// Sample only if the period has elapsed; returns whether a sample was
    /// taken. Advances the schedule from `now`, so irregular event clocks
    /// cannot accumulate a sampling debt.
    pub fn sample_due<S>(&mut self, set: &InvariantSet<S>, state: &S, now: SimTime) -> bool {
        if !self.due(now) {
            return false;
        }
        self.next_at = now + self.period;
        self.sample(set, state, now);
        true
    }

    /// Consume the auditor, yielding its report.
    pub fn into_report(self) -> AuditReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        used: u32,
        cap: u32,
    }

    fn within_capacity(t: &Toy, ctx: &mut AuditCtx<'_>) {
        ctx.check(t.used <= t.cap, || {
            format!("used {} exceeds capacity {}", t.used, t.cap)
        })
    }

    fn capacity_positive(t: &Toy, ctx: &mut AuditCtx<'_>) {
        ctx.check(t.cap > 0, || "zero capacity".into())
    }

    fn toy_set() -> InvariantSet<Toy> {
        InvariantSet::new()
            .register("within-capacity", within_capacity)
            .register("capacity-positive", capacity_positive)
    }

    #[test]
    fn clean_state_produces_clean_report() {
        let mut aud = Auditor::every(SimTime::from_secs(1)).hard_fail(false);
        let toy = Toy { used: 1, cap: 4 };
        let set = toy_set();
        aud.sample(&set, &toy, SimTime::ZERO);
        aud.sample(&set, &toy, SimTime::from_secs(1));
        let rep = aud.into_report();
        assert!(rep.is_clean());
        assert_eq!(rep.samples, 2);
        assert_eq!(rep.checks, 4);
    }

    #[test]
    fn violations_are_recorded_with_name_time_and_detail() {
        let mut aud = Auditor::every(SimTime::from_secs(1)).hard_fail(false);
        let toy = Toy { used: 9, cap: 4 };
        let set = toy_set();
        aud.sample(&set, &toy, SimTime::from_secs(7));
        let rep = aud.into_report();
        assert!(!rep.is_clean());
        assert_eq!(rep.count_of("within-capacity"), 1);
        assert_eq!(rep.count_of("capacity-positive"), 0);
        assert_eq!(rep.violations[0].at, SimTime::from_secs(7));
        assert!(rep.violations[0].detail.contains("used 9"));
    }

    #[test]
    #[should_panic(expected = "invariant `within-capacity` violated")]
    fn hard_fail_panics_on_first_violation() {
        let mut aud = Auditor::every(SimTime::from_secs(1)).hard_fail(true);
        let toy = Toy { used: 9, cap: 4 };
        aud.sample(&toy_set(), &toy, SimTime::ZERO);
    }

    #[test]
    fn sample_due_respects_the_period() {
        let mut aud = Auditor::every(SimTime::from_secs(10)).hard_fail(false);
        let toy = Toy { used: 0, cap: 1 };
        let set = toy_set();
        assert!(aud.sample_due(&set, &toy, SimTime::ZERO));
        assert!(!aud.sample_due(&set, &toy, SimTime::from_secs(4)));
        assert!(aud.sample_due(&set, &toy, SimTime::from_secs(10)));
        // The schedule advances from the sampled instant, not in fixed
        // multiples: a late sample does not cause a burst of catch-ups.
        assert!(!aud.sample_due(&set, &toy, SimTime::from_secs(19)));
        assert!(aud.sample_due(&set, &toy, SimTime::from_secs(25)));
        assert_eq!(aud.into_report().samples, 3);
    }
}
