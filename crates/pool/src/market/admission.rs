//! The Admission-mode controller: the pressure signal, then admit, degrade,
//! queue with capped backoff, or reject.

use simcore::trace::{TraceEvent, Tracer};
use simcore::SimTime;

use super::{AdmissionCtl, Discovery, Ev, MarketSim, Phase, Slot};
use crate::task_manager::FAIR_HELPER_RANK;
use crate::ResourcePool;

/// Tuning of the [`AllocationMode::Admission`](super::AllocationMode::Admission) controller.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdmissionConfig {
    /// Bound of each priority class's FIFO admission queue; arrivals
    /// beyond it under severe scarcity are rejected outright.
    pub queue_cap: usize,
    /// Base retry delay for a queued session. The delay doubles per
    /// attempt with the step capped at `backoff * 2^6` — the same
    /// capped-exponential shape as [`ReattachConfig`](alm::dynamic::ReattachConfig).
    pub backoff: SimTime,
    /// Retry attempts before a queued session is timed out and rejected.
    pub max_attempts: u32,
    /// Pool-wide free-degree fraction (at the fair helper rank) above
    /// which arrivals are admitted at full service.
    pub scarce_free_frac: f64,
    /// Free-degree fraction above which (but below `scarce_free_frac`)
    /// arrivals are admitted degraded instead of queued.
    pub degrade_free_frac: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_cap: 64,
            backoff: SimTime::from_secs(5),
            max_attempts: 8,
            scarce_free_frac: 0.15,
            degrade_free_frac: 0.05,
        }
    }
}

/// Sessions currently sitting in an admission queue.
pub(super) fn queued(slots: &[Slot]) -> u64 {
    slots
        .iter()
        .filter(|s| matches!(s.phase, Phase::Queued { .. }))
        .count() as u64
}

impl AdmissionCtl {
    /// The pool-wide free-degree fraction at the fair helper rank, read
    /// from the pressure signal at `now`: the SOMO root aggregate when the
    /// query index is live, otherwise a direct fold of every live host's
    /// sample (the controller's local stand-in for the published
    /// aggregate), with the `queued` sessions and the controller's own
    /// preemption count folded in.
    pub(super) fn free_frac(
        &mut self,
        now: SimTime,
        queued: u64,
        discovery: &Discovery,
        pool: &ResourcePool,
        tracer: &mut Tracer,
    ) -> f64 {
        let mut agg = match discovery {
            Discovery::Query { index: Some(idx) } => idx.root_aggregate().clone(),
            _ => pool.aggregate(now),
        };
        agg.queued = agg.queued.saturating_add(queued);
        agg.preempted = agg.preempted.saturating_add(self.preemptions);
        let pr = agg.pressure();
        if let Some(scarce) = self.pressure_watch.observe(&agg) {
            tracer.emit(now, || TraceEvent::MarketPressureShift { scarce });
        }
        pr.free_frac[FAIR_HELPER_RANK.0 as usize]
    }
}

impl MarketSim {
    /// Retry delay for a queued arrival: `backoff * 2^(attempt-1)` with
    /// the exponent capped at 6 — the [`ReattachConfig`](alm::dynamic::ReattachConfig) backoff shape.
    fn admission_retry_delay(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(6);
        SimTime::from_micros(
            self.cfg
                .admission
                .backoff
                .as_micros()
                .saturating_mul(1u64 << exp),
        )
    }

    /// Take a slot out of its admission queue (if queued) back to idle and
    /// return how long it waited, in microseconds.
    fn admission_dequeue(&mut self, i: usize, now: SimTime) -> u64 {
        let Phase::Queued { since, .. } = self.slots[i].phase else {
            return 0;
        };
        self.enter(i, Phase::Idle);
        now.as_micros().saturating_sub(since.as_micros())
    }

    /// The admission decision for an arrival (attempt 0) or a queued
    /// retry, at the controller's `free` fraction: admit at full service,
    /// admit degraded, queue with capped backoff, or reject. Every arrival
    /// resolves to exactly one of admitted/degraded/rejected/still-queued —
    /// the conservation invariant the auditor checks.
    pub(super) fn admission_decide(&mut self, i: usize, attempt: u32, free: f64, now: SimTime) {
        let session = self.slots[i].spec.id.0;
        let full = free >= self.cfg.admission.scarce_free_frac;
        if full || free >= self.cfg.admission.degrade_free_frac {
            let waited_us = self.admission_dequeue(i, now);
            let stats = &mut self.outcome.admission;
            let count = if full {
                &mut stats.admitted
            } else {
                &mut stats.degraded
            };
            *count = count.saturating_add(1);
            stats.wait.push(waited_us as f64 / 1e6);
            self.tracer.emit(now, || {
                if full {
                    TraceEvent::MarketAdmissionAdmitted { session, waited_us }
                } else {
                    TraceEvent::MarketAdmissionDegraded { session, waited_us }
                }
            });
            self.begin_session(i, now, !full);
        } else if attempt == 0 {
            // A fresh arrival under severe scarcity: queue it, or bounce
            // it when its class FIFO is full.
            let class = self.slots[i].spec.priority;
            let ahead = self.queue_snaps()[(class - 1) as usize].len();
            if ahead >= self.cfg.admission.queue_cap {
                self.admission_reject(i, now, false);
            } else {
                let ticket = self.outcome.admission.arrivals;
                let depth = ahead as u32 + 1;
                self.enter(i, Phase::Queued { since: now, ticket });
                self.outcome.admission.max_queue_depth = self
                    .outcome
                    .admission
                    .max_queue_depth
                    .max(queued(&self.slots));
                self.tracer.emit(now, || TraceEvent::MarketAdmissionQueued {
                    session,
                    class,
                    depth,
                });
                self.queue.schedule(
                    now + self.admission_retry_delay(1),
                    Ev::AdmissionRetry(i, 1),
                );
            }
        } else if attempt >= self.cfg.admission.max_attempts {
            self.outcome.admission.timeouts = self.outcome.admission.timeouts.saturating_add(1);
            self.admission_reject(i, now, true);
        } else {
            let next = attempt + 1;
            self.queue.schedule(
                now + self.admission_retry_delay(next),
                Ev::AdmissionRetry(i, next),
            );
        }
    }

    /// Bounce an arrival: account the rejection and schedule the slot's
    /// next life on the defer stream.
    pub(super) fn admission_reject(&mut self, i: usize, now: SimTime, timeout: bool) {
        let _ = self.admission_dequeue(i, now);
        self.outcome.admission.rejected = self.outcome.admission.rejected.saturating_add(1);
        let session = self.slots[i].spec.id.0;
        self.tracer
            .emit(now, || TraceEvent::MarketAdmissionRejected {
                session,
                timeout,
            });
        self.next_life(i, now, false);
    }
}
