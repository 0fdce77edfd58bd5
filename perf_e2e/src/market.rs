//! The two market workloads: `market_live_exact` (the paper's fig-10 path)
//! and `market_faulted_full` (ROADMAP item 1's faulted pipeline).

use netsim::{HostId, NetworkConfig};
use oracle::{LatencySource, TieredConfig};
use pool::{
    DiscoveryMode, LiveOps, LiveOpsConfig, MarketConfig, MarketOutcome, MarketSim, PoolConfig,
    ResourcePool,
};
use runstore::StoreStats;
use simcore::rng::derive_seed;
use simcore::{FaultPlan, SimTime, Tracer};

use std::time::Instant;

use crate::spans::Spans;
use crate::workload::{Digest, LayerMetric, Size, Verdict, Workload};

/// Which of the two market workloads a [`Market`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Exact latencies, live degree tables, no faults: planner and
    /// reservation do nearly all the work.
    LiveExact,
    /// Tiered oracle, 60 s query-refreshed views, every 11th host crashing,
    /// leases, audit and a live-operations store attached.
    FaultedFull,
}

pub struct Market {
    pub kind: Kind,
    pub pool_cfg: PoolConfig,
    pub pool_seed: u64,
    pub pool: ResourcePool,
    pub cfg: MarketConfig,
    pub sim_seed: u64,
}

pub struct MarketRun {
    pub out: MarketOutcome,
    pub pool: ResourcePool,
    /// Run-store accounting (`FaultedFull` only).
    pub store: Option<StoreStats>,
}

/// What is attached to a market run to watch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Observe {
    Nothing,
    /// `Tracer::ring`: records land in `MarketOutcome::trace`.
    RingTracer,
    /// The live-operations surface: trace, deltas and snapshots stream
    /// into a run store.
    LiveOps,
}

impl Market {
    fn inputs(kind: Kind, seed: u64, size: Size) -> (PoolConfig, MarketConfig) {
        let (hosts, sessions, member_size, horizon) = match (kind, size) {
            (Kind::LiveExact, Size::Full) => (2048, 24, 32, 3600),
            (Kind::FaultedFull, Size::Full) => (2048, 12, 24, 1800),
            (Kind::LiveExact, Size::Smoke) => (256, 6, 12, 1200),
            (Kind::FaultedFull, Size::Smoke) => (256, 4, 12, 900),
        };
        let pool_cfg = PoolConfig {
            net: NetworkConfig {
                num_hosts: hosts,
                ..NetworkConfig::default()
            },
            latency_source: match kind {
                Kind::LiveExact => LatencySource::Exact,
                Kind::FaultedFull => LatencySource::Tiered(TieredConfig::default()),
            },
            ..PoolConfig::default()
        };
        let mut cfg = MarketConfig {
            sessions,
            member_size,
            horizon: SimTime::from_secs(horizon),
            warmup: SimTime::from_secs(horizon / 6),
            audit_period: Some(SimTime::from_secs(60)),
            plan_threads: 1,
            ..MarketConfig::default()
        };
        if kind == Kind::FaultedFull {
            cfg.view_refresh = Some(SimTime::from_secs(60));
            cfg.discovery = DiscoveryMode::Query;
            cfg.faults = crash_plan(hosts as u64, horizon, seed);
            // A stale candidate list keeps naming crashed hosts and each
            // failed attempt unlearns one; with 1 host in 11 gone by the
            // end, the default 12 attempts strand the odd orphan.
            cfg.reattach.max_attempts = 48;
        }
        (pool_cfg, cfg)
    }

    pub fn setup(kind: Kind, seed: u64, size: Size) -> Market {
        let (pool_cfg, cfg) = Market::inputs(kind, seed, size);
        let pool_seed = derive_seed(seed, 1);
        Market {
            kind,
            pool: ResourcePool::build(&pool_cfg, pool_seed),
            pool_cfg,
            pool_seed,
            cfg,
            sim_seed: derive_seed(seed, 2),
        }
    }

    /// How this workload's runs are observed.
    pub fn observe(&self) -> Observe {
        match self.kind {
            Kind::LiveExact => Observe::Nothing,
            Kind::FaultedFull => Observe::LiveOps,
        }
    }

    /// One market run on `pool` under `cfg`.
    pub fn run_with(&self, pool: ResourcePool, cfg: MarketConfig, observe: Observe) -> MarketRun {
        let mut sim = MarketSim::new(pool, cfg, self.sim_seed);
        let mut handle = None;
        match observe {
            Observe::Nothing => {}
            Observe::RingTracer => sim.set_tracer(Tracer::ring(1 << 20)),
            Observe::LiveOps => {
                handle = Some(sim.attach_liveops(LiveOps::new(LiveOpsConfig {
                    snapshot_period: SimTime::from_secs(60),
                    ..LiveOpsConfig::default()
                })));
            }
        }
        let (out, pool) = sim.run_full();
        let store = handle.map(|h| h.lock().expect("store lock").stats());
        MarketRun { out, pool, store }
    }
}

impl Workload for Market {
    type Fresh = ResourcePool;
    type Outcome = MarketRun;

    fn fresh(&self) -> ResourcePool {
        self.pool.clone()
    }

    fn rep(&self, pool: ResourcePool) -> MarketRun {
        self.run_with(pool, self.cfg.clone(), self.observe())
    }

    fn trace(
        &self,
        spans: &mut Spans,
        run_s: f64,
        deadline: Instant,
    ) -> (Self::Outcome, Vec<LayerMetric>) {
        crate::trace::market(self, spans, run_s, deadline)
    }

    fn judge(&self, run: &MarketRun) -> Verdict {
        let out = &run.out;
        let mut violations: Vec<String> = out
            .audit
            .violations
            .iter()
            .map(|v| format!("audit {} at {:?}: {}", v.invariant, v.at, v.detail))
            .collect();
        if out.leaked_degrees > 0 {
            violations.push(format!("{} degrees leaked", out.leaked_degrees));
        }
        if out.audit.samples == 0 {
            violations.push("the auditor never sampled".into());
        }
        let failed_ops = out.sessions_lost()
            + out.crash_repair_gave_up
            + out.admission.rejected
            + out.audit.violations.len() as u64
            + u64::from(out.leaked_degrees > 0);
        Verdict {
            sim_digest: digest(run),
            ops: out.plans,
            failed_ops,
            model_cost: model_cost(out),
            counters: vec![
                ("plans", out.plans),
                ("relaxations", out.planner_relaxations),
                ("crash_repairs", out.crash_repairs),
                ("crash_repair_gave_up", out.crash_repair_gave_up),
                ("sessions_lost", out.sessions_lost()),
                ("promotions", out.oracle_tiers.map_or(0, |t| t.promotions)),
                ("oracle_lookups", out.oracle_tiers.map_or(0, |t| t.total())),
            ],
            violations,
        }
    }
}

/// Every 11th host crashes for good, staggered evenly over the middle two
/// thirds of the horizon (`[300 s, 1500 s)` at the full 1800 s).
fn crash_plan(hosts: u64, horizon_s: u64, seed: u64) -> FaultPlan {
    let victims: Vec<u64> = (seed % 11..hosts).step_by(11).collect();
    let (from, window) = (horizon_s / 6, horizon_s * 2 / 3);
    let mut plan = FaultPlan::none();
    for (i, &h) in victims.iter().enumerate() {
        let at = from + i as u64 * window / victims.len() as u64;
        plan = plan.crash_forever(h, SimTime::from_secs(at));
    }
    plan
}

/// Plan-weighted mean of achieved height over the members-only AMCast
/// height: 1 − the paper's *improvement*, over every post-warm-up plan.
fn model_cost(out: &MarketOutcome) -> f64 {
    let (mut plans, mut improvement) = (0.0, 0.0);
    for (_, class) in out.per_class.iter() {
        let n = class.improvement.count() as f64;
        if n > 0.0 {
            plans += n;
            improvement += n * class.improvement.mean();
        }
    }
    1.0 - improvement / plans
}

fn digest(run: &MarketRun) -> u64 {
    let out = &run.out;
    let mut d = Digest::new();
    for w in [
        out.plans,
        out.crash_repairs,
        out.crash_repair_retries,
        out.crash_repair_gave_up,
        out.incremental_replans,
        out.resync_fallbacks,
        out.lapsed_lease_degrees,
        out.leaked_degrees as u64,
        out.tree_failovers,
        out.trees_rebuilt,
        out.planner_relaxations,
        out.planner_latency_calls,
        out.audit.samples,
        out.audit.checks,
    ] {
        d.word(w);
    }
    for (class, p) in out.per_class.iter() {
        d.word(class as u64)
            .word(p.improvement.count())
            .float(p.improvement.mean())
            .float(p.helpers.mean())
            .word(p.preemptions)
            .word(p.helper_failures)
            .word(p.helper_crashes)
            .word(p.failovers)
            .word(p.sessions_lost);
    }
    if let Some(t) = &out.oracle_tiers {
        d.word(t.hot)
            .word(t.sketch)
            .word(t.base)
            .word(t.promotions)
            .word(t.evictions);
    }
    if let Some(s) = &run.store {
        d.word(s.trace_appended)
            .word(s.delta_appended)
            .word(s.snapshots);
    }
    for h in (0..run.pool.num_hosts() as u32).map(HostId) {
        let table = run.pool.table(h);
        d.word(run.pool.is_alive(h) as u64)
            .word(table.used() as u64);
        for a in table.allocations() {
            d.word(a.session.0 as u64)
                .word(a.rank.0 as u64)
                .word(a.count as u64)
                .word(a.expires_at.map_or(u64::MAX, |t| t.as_micros()));
        }
    }
    d.finish()
}
