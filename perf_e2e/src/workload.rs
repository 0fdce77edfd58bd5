//! What every workload gives the harness: inputs built from a seed, a
//! timed repetition on fresh state, a verdict on its outcome, and a traced
//! layer replay on the same inputs.

use std::time::Instant;

use crate::spans::Spans;

/// Problem sizes: the contract sizes, or the `--smoke` slice (256 hosts)
/// that runs every check in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one repetition's outcome amounts to. Two repetitions on the same
/// inputs must produce equal verdicts — the simulator is deterministic, so
/// any difference is a bug in it or in the harness.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Hash of the outcome's counters and final state.
    pub sim_digest: u64,
    /// Operations attempted (plans / members / orphan subtrees).
    pub ops: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// The modelled system's headline cost (simulated, exact).
    pub model_cost: f64,
    /// Exact simulated counters, printed so that two runs of one seed can be
    /// seen to have simulated the same thing.
    pub counters: Vec<(&'static str, u64)>,
    /// Correctness violations; any entry fails the run.
    pub violations: Vec<String>,
}

/// One per-layer measurement of the traced run: its name in
/// `names::PER_LAYER` and its value.
pub type LayerMetric = (&'static str, f64);

/// Inputs are built by each type's `setup(seed, size)` — the only place the
/// seed reaches.
pub trait Workload {
    /// Per-repetition state made outside the timed region (a pool clone,
    /// an oracle clone), so repetitions never share mutable state.
    type Fresh;
    type Outcome;

    /// How many times the harness builds the inputs for one `setup_s`
    /// sample; the sample is the mean. More than one only where a single
    /// build is far below a microsecond: one cold call then times cache
    /// misses, which differ by a third between two builds of one source.
    const SETUP_BUILDS: u32 = 1;

    fn fresh(&self) -> Self::Fresh;
    /// The timed region.
    fn rep(&self, fresh: Self::Fresh) -> Self::Outcome;
    fn judge(&self, out: &Self::Outcome) -> Verdict;
    /// The traced run: one more repetition under spans, then a replay of
    /// each layer's public calls on this workload's own inputs. Returns the
    /// traced repetition's outcome and this workload's share of the
    /// per-layer metrics (layers it does not exercise are reported as 0 by
    /// the harness). `run_s` is the untraced repetition timed just before;
    /// `deadline` is when the run's time budget ends.
    fn trace(
        &self,
        spans: &mut Spans,
        run_s: f64,
        deadline: Instant,
    ) -> (Self::Outcome, Vec<LayerMetric>);
}

/// FNV-1a over 64-bit words: the digest behind `sim_digest`.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) -> &mut Digest {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn float(&mut self, f: f64) -> &mut Digest {
        self.word(f.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
