//! `recovery_churn`: `pool::recovery::run_pipeline` at scale — heartbeat
//! detection, gossip expulsion, SOMO regather and ALM reattachment under
//! message loss. `dht`, `somo` and the `simcore` event queue dominate; the
//! planner and the oracle are absent.

use alm::dynamic::ReattachConfig;
use pool::recovery::{run_pipeline, RecoveryConfig, RecoveryOutcome};
use simcore::rng::derive_seed;
use simcore::FaultPlan;

use std::time::Instant;

use crate::spans::Spans;
use crate::workload::{Digest, LayerMetric, Size, Verdict, Workload};

/// The pipeline derives everything it runs on (ring, SOMO tree, network)
/// from its configuration inside the timed region, so this workload's
/// inputs are the configuration alone and its `setup_s` is trivial.
pub struct Recovery {
    pub cfg: RecoveryConfig,
}

impl Recovery {
    pub fn setup(seed: u64, size: Size) -> Recovery {
        let (n, crashes, session_size) = match size {
            Size::Full => (4096, 64, 256),
            Size::Smoke => (256, 8, 32),
        };
        let cfg = RecoveryConfig {
            n,
            seed: derive_seed(seed, 1),
            crashes,
            plan: FaultPlan::with_loss(derive_seed(seed, 2), 0.05),
            // Survivors must outnumber the victims in the session, or
            // nothing is left to orphan.
            session_size,
            // A stale candidate list still names every victim and each
            // failed attempt unlearns one, so an orphan surrounded by
            // victims needs more attempts than the default 12 to land.
            reattach: ReattachConfig {
                max_attempts: crashes as u32 + 16,
                ..ReattachConfig::default()
            },
            ..RecoveryConfig::default()
        };
        Recovery { cfg }
    }
}

impl Workload for Recovery {
    /// The pipeline owns all its state; there is nothing to clone.
    type Fresh = ();
    type Outcome = RecoveryOutcome;

    /// The configuration takes tens of nanoseconds to build.
    const SETUP_BUILDS: u32 = 1 << 18;

    fn fresh(&self) {}

    fn rep(&self, (): ()) -> RecoveryOutcome {
        run_pipeline(&self.cfg)
    }

    fn trace(
        &self,
        spans: &mut Spans,
        run_s: f64,
        deadline: Instant,
    ) -> (Self::Outcome, Vec<LayerMetric>) {
        crate::trace::recovery(self, spans, run_s, deadline)
    }

    fn judge(&self, out: &RecoveryOutcome) -> Verdict {
        let t = &out.timeline;
        let mut violations: Vec<String> = out
            .audit
            .violations
            .iter()
            .map(|v| format!("audit {} at {:?}: {}", v.invariant, v.at, v.detail))
            .collect();
        if out.audit.samples == 0 {
            violations.push("the auditor never sampled".into());
        }
        if out.post_delivery < 1.0 && out.alm.gave_up == 0 {
            violations.push(format!(
                "repaired tree reaches {:.3} of the survivors with no orphan given up",
                out.post_delivery
            ));
        }
        let converged = t.rebuilt_at.is_some() && out.post_completeness == 1.0;
        if t.reattached_at.is_none() {
            violations.push("the ALM repair never finished".into());
        }
        // Crash → last orphan re-attached, in failure-detection timeouts.
        // An unfinished repair has no finite cost; it is already a failure.
        let model_cost = t.reattached_at.map_or(f64::INFINITY, |done| {
            done.saturating_sub(t.crash_at).as_secs_f64() / self.cfg.proto.timeout.as_secs_f64()
        });
        let mut d = Digest::new();
        for at in [t.detected_at, t.expelled_at, t.rebuilt_at, t.reattached_at] {
            d.word(at.map_or(u64::MAX, |t| t.as_micros()));
        }
        d.word(t.reattach_retries)
            .word(out.alm.reattached as u64)
            .word(out.alm.gave_up as u64)
            .word(out.dht_messages)
            .word(out.dht_dropped)
            .word(out.gather_messages)
            .word(out.gather_dropped)
            .word(out.audit.samples)
            .word(out.audit.checks)
            .float(out.stale_completeness)
            .float(out.post_completeness)
            .float(out.delivery_disruption)
            .float(out.post_delivery);
        Verdict {
            sim_digest: d.finish(),
            ops: (out.alm.reattached + out.alm.gave_up) as u64,
            failed_ops: out.alm.gave_up as u64 + u64::from(!converged),
            model_cost,
            counters: vec![
                ("dht_messages", out.dht_messages),
                ("gather_messages", out.gather_messages),
                ("reattach_retries", t.reattach_retries),
                (
                    "expelled_ms",
                    t.expelled_at
                        .map_or(0, |e| e.saturating_sub(t.crash_at).as_millis()),
                ),
                (
                    "rebuilt_ms",
                    t.rebuilt_at
                        .map_or(0, |e| e.saturating_sub(t.crash_at).as_millis()),
                ),
                ("reattach_ms", out.alm.duration.as_millis()),
            ],
            violations,
        }
    }
}
