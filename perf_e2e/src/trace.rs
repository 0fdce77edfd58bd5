//! The traced run of each workload. Three instruments, all from outside
//! the program: exact counters the public API already returns; harness
//! spans around direct calls into each layer's public functions on the
//! workload's own inputs (a *layer replay*); and differential whole-run
//! toggles of public configuration. Estimated shares are `count × per-call
//! time`; what they do not explain is reported as the residual.

use std::hint::black_box;
use std::time::Instant;

use alm::{adjust, amcast, critical, HelperPool, Problem};
use bwest::BwEstConfig;
use coords::leafset::LeafsetConfig;
use coords::LeafsetCoords;
use dht::proto::DhtSim;
use dht::Ring;
use netsim::{HostId, LatencyModel, Network, NetworkConfig, RouterNet};
use pool::recovery::{run_pipeline, RecoveryOutcome};
use pool::task_manager::{
    plan_and_reserve_from_query_leased, plan_and_reserve_leased, SessionSpec,
};
use pool::{Rank, ResourcePool, SessionId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use runstore::{RunStore, StoreConfig};
use simcore::rng::derive_seed;
use simcore::trace::{TraceEvent, TraceRecord};
use simcore::{EventQueue, SimTime};
use somo::flow::{FlowMode, FreshnessReport, GatherSim};
use somo::SomoTree;

use crate::alloc;
use crate::market::{Kind, Market, MarketRun, Observe};
use crate::plan_scale::{PlanRun, PlanScale};
use crate::recovery::Recovery;
use crate::spans::Spans;
use crate::workload::{LayerMetric, Workload};

/// Stop optional extra rounds this long before the run's budget ends.
const MARGIN_S: f64 = 1.0;

fn time_left(deadline: Instant) -> bool {
    deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64()
        > MARGIN_S
}

/// The traced repetition: `rep` under a root span with the allocation
/// counter on. Pushes the `harness.*` metrics and returns the outcome and
/// its wall time.
fn traced_rep<T>(
    spans: &mut Spans,
    name: &'static str,
    run_s: f64,
    m: &mut Vec<LayerMetric>,
    rep: impl FnOnce(&mut Spans) -> T,
) -> (T, f64) {
    let ((out, traced_s), bytes, calls) = alloc::counted(|| spans.timed(name, rep));
    m.push(("harness.alloc_mb", bytes as f64 / 1e6));
    m.push(("harness.allocs_k", calls as f64 / 1e3));
    m.push((
        "harness.trace_overhead_pct",
        (traced_s - run_s) / run_s * 100.0,
    ));
    (out, traced_s)
}

/// Print where the traced repetition's time went, largest share first.
fn print_shares(traced_s: f64, mut shares: Vec<(&str, f64)>) {
    let explained: f64 = shares.iter().map(|(_, s)| s).sum();
    shares.push(("unattributed", traced_s - explained));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("layer shares of the traced repetition ({traced_s:.3} s):");
    for (layer, secs) in shares {
        println!(
            "  {layer:<28} {secs:>8.3} s {:>6.1} %",
            secs / traced_s * 100.0
        );
    }
}

/// Time every router's Dijkstra row once: microseconds per row.
fn dijkstra_row_us(spans: &mut Spans, routers: &RouterNet) -> f64 {
    let rows = routers.graph.len();
    let ((), secs) = spans.timed("netsim.dijkstra_rows", |_| {
        for r in 0..rows as u32 {
            black_box(routers.graph.dijkstra(r));
        }
    });
    secs * 1e6 / rows as f64
}

/// Nanoseconds per `latency_ms` over every ordered pair of `hosts`.
fn lookup_ns(spans: &mut Spans, oracle: &impl LatencyModel, hosts: &[HostId]) -> f64 {
    let (sum, secs) = spans.timed("oracle.lookups", |_| {
        let mut sum = 0.0;
        for &a in hosts {
            for &b in hosts {
                sum += oracle.latency_ms(a, b);
            }
        }
        sum
    });
    black_box(sum);
    secs * 1e9 / (hosts.len() * hosts.len()) as f64
}

pub fn market(
    w: &Market,
    spans: &mut Spans,
    run_s: f64,
    deadline: Instant,
) -> (MarketRun, Vec<LayerMetric>) {
    let mut m = Vec::new();
    let faulted = w.kind == Kind::FaultedFull;
    let fresh = w.fresh();
    let (run, traced_s) = traced_rep(spans, "pool.market.run", run_s, &mut m, |_| w.rep(fresh));
    let out = &run.out;
    let plans = out.plans as f64;
    let tiers = out.oracle_tiers.unwrap_or_default();
    let helper_failures: u64 = out.per_class.iter().map(|(_, c)| c.helper_failures).sum();
    let wire_bytes = out.query_traffic.bytes + out.query_maintenance.bytes;
    m.extend([
        ("pool.market.plans", plans),
        ("pool.market.crash_repairs", out.crash_repairs as f64),
        ("pool.market.helper_failures", helper_failures as f64),
        (
            "pool.market.lapsed_lease_degrees",
            out.lapsed_lease_degrees as f64,
        ),
        ("pool.market.us_per_plan", traced_s * 1e6 / plans),
        ("alm.relaxations", out.planner_relaxations as f64),
        ("oracle.promotions", tiers.promotions as f64),
        ("oracle.evictions", tiers.evictions as f64),
        ("oracle.lookups", tiers.total() as f64),
        (
            "oracle.hot_hit_ratio",
            tiers.hot as f64 / tiers.total().max(1) as f64,
        ),
        ("oracle.resident_mb", out.oracle_resident_bytes as f64 / 1e6),
        ("query.wire_bytes", wire_bytes as f64),
    ]);

    replay_pool_build(w, spans, &mut m);
    let (mut pool, clone_s) = spans.timed("pool.clone", |_| w.pool.clone());
    m.push(("pool.clone_ms", clone_s * 1e3));
    let per_plan = replay_plans(w, spans, &mut pool, deadline, &mut m);
    let hosts = pool_primitives(spans, &mut pool, &mut m);

    // The oracle's two sides: a lookup is one `latency_ms`, a promotion one
    // Dijkstra row into the hot tier (rows counted by the oracle itself).
    let lookup = lookup_ns(spans, &pool.planning_oracle(), &hosts);
    m.push(("oracle.lookup_ns", lookup));
    let mut promote_s_est = 0.0;
    if faulted {
        let cold = w.pool.clone();
        let ((), secs) = spans.timed("oracle.promote", |_| cold.promote_hot(&hosts));
        let rows = cold.oracle_stats().map_or(0, |t| t.promotions);
        let per_row_s = secs / rows.max(1) as f64;
        promote_s_est = tiers.promotions as f64 * per_row_s;
        m.push(("oracle.promote_us_per_row", per_row_s * 1e6));
        m.push(("oracle.promote_s_est", promote_s_est));
    }
    let (audit_s, liveops_s) = if faulted {
        differentials(w, spans, traced_s, &run, &mut m)
    } else {
        (0.0, 0.0)
    };

    // Shares: every plan costs one plan-and-reserve (which contains the
    // query descent and the promotions it triggers), every view refresh one
    // index refresh; audit and live-ops are the measured differentials.
    let period = w.cfg.view_refresh.unwrap_or(w.cfg.horizon);
    let refreshes = w.cfg.horizon.as_secs_f64() / period.as_secs_f64();
    let plan_total = plans * per_plan.plan_reserve_s;
    let refresh_total = refreshes * per_plan.refresh_s;
    let explained = plan_total + refresh_total + audit_s + liveops_s;
    m.push(("pool.market.unattributed_s", traced_s - explained));
    // Inside the plans, each estimate may claim no more than is left.
    let mut rest = plan_total;
    let mut claim = |estimate: f64| {
        let part = estimate.clamp(0.0, rest);
        rest -= part;
        part
    };
    let promote_total = claim(promote_s_est);
    let alm_total = claim(plans * per_plan.alm_s);
    let topk_total = claim(plans * per_plan.topk_s);
    print_shares(
        traced_s,
        vec![
            ("oracle promotion (in plans)", promote_total),
            ("alm planner (in plans)", alm_total),
            ("query top-k (in plans)", topk_total),
            ("pool reserve + rest of plan", rest),
            ("query refresh", refresh_total),
            ("pool audit", audit_s),
            ("pool live-ops + run store", liveops_s),
        ],
    );
    (run, m)
}

/// Replay of the market's set-up: the calls `ResourcePool::build` makes,
/// one layer at a time on the same configuration and the seeds it derives,
/// then the whole build.
fn replay_pool_build(w: &Market, spans: &mut Spans, m: &mut Vec<LayerMetric>) {
    let cfg = &w.pool_cfg;
    let (net, generate_s) = spans.timed("netsim.generate", |_| {
        Network::generate(&cfg.net, derive_seed(w.pool_seed, 1))
    });
    let (ring, ring_s) = spans.timed("dht.ring_build", |_| {
        Ring::with_random_ids(net.hosts.ids(), derive_seed(w.pool_seed, 2))
    });
    let (_, leafset_s) = spans.timed("coords.leafset_fit", |_| {
        LeafsetCoords::new(LeafsetConfig {
            leafset_size: cfg.leafset_size,
            rounds: cfg.coord_rounds,
            ..Default::default()
        })
        .run(&net.latency, &ring, derive_seed(w.pool_seed, 3))
    });
    let (_, bwest_s) = spans.timed("bwest.estimate", |_| {
        bwest::estimator::estimate(
            &net.hosts,
            &ring,
            &BwEstConfig {
                leafset_size: cfg.leafset_size,
                ..Default::default()
            },
            derive_seed(w.pool_seed, 4),
        )
    });
    let row_us = dijkstra_row_us(spans, &net.routers);
    drop((net, ring));
    let (_, build_s) = spans.timed("pool.build", |_| ResourcePool::build(cfg, w.pool_seed));
    m.extend([
        ("netsim.generate_s", generate_s),
        ("netsim.dijkstra_row_us", row_us),
        ("dht.ring_build_s", ring_s),
        ("coords.leafset_fit_s", leafset_s),
        ("bwest.estimate_s", bwest_s),
        ("pool.build_s", build_s),
    ]);
}

/// Seconds per plan (per refresh for `refresh_s`) the plan replay measured;
/// a path the workload does not take reads 0.
struct PerPlan {
    plan_reserve_s: f64,
    /// The `alm` layer's part: the staged plan plus the members-only
    /// baseline every plan evaluates.
    alm_s: f64,
    topk_s: f64,
    refresh_s: f64,
}

/// Replay of the run on `pool` (a fresh clone): the member sets the market
/// partitions, planned round after round the way its task managers plan —
/// the planner's own layer first, called directly, then the whole
/// plan-and-reserve path.
fn replay_plans(
    w: &Market,
    spans: &mut Spans,
    pool: &mut ResourcePool,
    deadline: Instant,
    m: &mut Vec<LayerMetric>,
) -> PerPlan {
    let plan = &w.cfg.plan;
    let specs: Vec<SessionSpec> = w
        .pool
        .partition_members(w.cfg.sessions, w.cfg.member_size, w.sim_seed)
        .into_iter()
        .enumerate()
        .map(|(i, members)| SessionSpec {
            id: SessionId(i as u32),
            priority: (i % 3) as u8 + 1,
            root: members[0],
            members,
        })
        .collect();
    // Only the faulted market plans from a refreshed query index, and only
    // it leases its reservations.
    let mut index = w.cfg.view_refresh.map(|period| {
        let (built, secs) = spans.timed("query.build", |_| {
            pool.build_query_index(period, SimTime::ZERO)
        });
        m.push(("query.build_s", secs));
        built
    });
    let lease = index.as_ref().map(|_| w.cfg.lease_ttl);

    let (mut amcast_s, mut critical_s, mut adjust_s, mut staged_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut plan_s, mut topk_s, mut refresh_s) = (0.0, 0.0, 0.0);
    let (mut relaxations, mut calls, mut rounds) = (0u64, 0.0, 0u32);
    while rounds < 8 && (rounds == 0 || time_left(deadline)) {
        spans.rep = rounds;
        rounds += 1;
        if let Some(idx) = &mut index {
            let now = SimTime::from_secs(60 * rounds as u64);
            refresh_s += spans
                .timed("query.refresh", |_| pool.refresh_query_index(idx, now))
                .1;
        }
        for spec in &specs {
            // A replan starts by giving up what the session holds.
            pool.release_session(spec.id);
            let rank = Rank::helper(spec.priority);
            let candidates = match &mut index {
                Some(idx) => {
                    let (ans, secs) = spans.timed("query.top_k", |_| {
                        idx.top_k(
                            plan.query_k,
                            spec.priority as usize,
                            plan.helper_min_degree,
                            &spec.members,
                            query::Scope::Global,
                        )
                    });
                    topk_s += secs;
                    ans.hosts.iter().map(|s| s.host).collect()
                }
                None => pool.candidates(rank, &spec.members, plan.helper_min_degree),
            };
            let exact = pool.cached_latency();
            let avail = &|h: HostId| {
                let rank = if spec.members.contains(&h) {
                    Rank::MEMBER
                } else {
                    rank
                };
                pool.available(h, rank)
            };
            let p = Problem::new(spec.root, spec.members.clone(), &exact, avail);
            let mut helpers = HelperPool::new(candidates);
            helpers.min_degree = plan.helper_min_degree;
            helpers.radius_ms = plan.radius_ms;
            helpers.strategy = plan.strategy;
            let r0 = alm::metrics::relaxations();
            amcast_s += spans.timed("alm.amcast", |_| amcast(&p)).1;
            let (mut tree, secs) = spans.timed("alm.critical", |_| critical(&p, &helpers));
            critical_s += secs;
            relaxations += alm::metrics::relaxations() - r0;
            adjust_s += spans.timed("alm.adjust", |_| adjust(&p, &mut tree)).1;
            // What a plan asks of the layer in all: the staged plan (draft,
            // contact, replan, adjust) on top of the members-only baseline.
            staged_s += spans
                .timed("alm.staged_plan", |_| {
                    alm::staged_plan(
                        spec.root,
                        &spec.members,
                        &exact,
                        &pool.coords,
                        avail,
                        &helpers,
                        plan.use_adjust,
                    )
                })
                .1;
            plan_s += spans
                .timed("pool.plan_reserve", |_| match &mut index {
                    Some(idx) => plan_and_reserve_from_query_leased(pool, spec, plan, idx, lease),
                    None => plan_and_reserve_leased(pool, spec, plan, lease),
                })
                .1;
            calls += 1.0;
        }
    }
    m.extend([
        ("alm.amcast_ms", amcast_s * 1e3 / calls),
        ("alm.critical_ms", critical_s * 1e3 / calls),
        ("alm.adjust_ms", adjust_s * 1e3 / calls),
        (
            "alm.ns_per_relaxation",
            (amcast_s + critical_s) * 1e9 / relaxations.max(1) as f64,
        ),
        ("pool.plan_reserve_ms", plan_s * 1e3 / calls),
    ]);
    if index.is_some() {
        m.push(("query.refresh_ms", refresh_s * 1e3 / rounds as f64));
        m.push(("query.topk_us", topk_s * 1e6 / calls));
    }
    PerPlan {
        plan_reserve_s: plan_s / calls,
        alm_s: (staged_s + amcast_s) / calls,
        topk_s: topk_s / calls,
        refresh_s: refresh_s / rounds as f64,
    }
}

/// The reservation primitives, on one probe session over the first 256
/// hosts (returned for the oracle probes that follow).
fn pool_primitives(
    spans: &mut Spans,
    pool: &mut ResourcePool,
    m: &mut Vec<LayerMetric>,
) -> Vec<HostId> {
    let probe = SessionId(u32::MAX);
    let hosts: Vec<HostId> = (0..pool.num_hosts() as u32).map(HostId).take(256).collect();
    let far = SimTime::from_secs(1 << 20);
    let ((), reserve_s) = spans.timed("pool.reserve", |_| {
        for &h in &hosts {
            black_box(
                pool.reserve_leased(h, probe, Rank::helper(3), 1, Some(far))
                    .is_ok(),
            );
        }
    });
    let (_, renew_s) = spans.timed("pool.renew", |_| pool.renew_session(probe, far));
    let (_, expire_s) = spans.timed("pool.expire_leases", |_| pool.expire_leases(SimTime::ZERO));
    let (_, report_s) = spans.timed("pool.snapshot_report", |_| {
        pool.snapshot_report(pool::ResourceReport::DEFAULT_CAP)
    });
    let (_, release_s) = spans.timed("pool.release", |_| pool.release_session(probe));
    m.extend([
        ("pool.reserve_us", reserve_s * 1e6 / hosts.len() as f64),
        ("pool.renew_us", renew_s * 1e6),
        ("pool.expire_leases_us", expire_s * 1e6),
        ("pool.snapshot_report_us", report_s * 1e6),
        ("pool.release_us", release_s * 1e6),
    ]);
    hosts
}

/// Differentials on the faulted market: the same run with one observer
/// switched off (`traced_s` is the run with everything on). Returns
/// `(audit_s, liveops_s)`.
fn differentials(
    w: &Market,
    spans: &mut Spans,
    traced_s: f64,
    run: &MarketRun,
    m: &mut Vec<LayerMetric>,
) -> (f64, f64) {
    let mut run_s = |name, audit: bool, observe| {
        let mut cfg = w.cfg.clone();
        if !audit {
            cfg.audit_period = None;
        }
        let fresh = w.fresh();
        spans.timed(name, |_| w.run_with(fresh, cfg, observe)).1
    };
    let audit_s = traced_s - run_s("diff.no_audit", false, Observe::LiveOps);
    let bare_s = run_s("diff.no_liveops", true, Observe::Nothing);
    let ring_s = run_s("diff.ring_tracer", true, Observe::RingTracer);
    let appends = 200_000u64;
    let ((), append_s) = spans.timed("runstore.append", |_| {
        let mut log: RunStore<u64, u64> = RunStore::new(StoreConfig::default());
        for seq in 0..appends {
            log.append_trace(TraceRecord {
                seq,
                at_us: seq,
                ev: TraceEvent::MarketRelease {
                    session: seq as u32,
                },
            });
        }
        black_box(log.stats());
    });
    let store = run.store.expect("the faulted market attaches a store");
    m.extend([
        ("pool.market.audit_s", audit_s),
        ("pool.liveops_s", traced_s - bare_s),
        ("simcore.trace_s", ring_s - bare_s),
        ("runstore.trace_appended", store.trace_appended as f64),
        ("runstore.delta_appended", store.delta_appended as f64),
        ("runstore.snapshots", store.snapshots as f64),
        ("runstore.append_ns", append_s * 1e9 / appends as f64),
    ]);
    (audit_s, traced_s - bare_s)
}

pub fn plan_scale(
    w: &PlanScale,
    spans: &mut Spans,
    run_s: f64,
    _deadline: Instant,
) -> (PlanRun, Vec<LayerMetric>) {
    let mut m = Vec::new();
    let oracle = w.fresh();
    let (run, traced_s) = traced_rep(spans, "plan_scale.rep", run_s, &mut m, |spans| {
        w.plan_all(&oracle, Some(spans))
    });
    let sessions = w.sessions.len() as f64;
    let promote_s = spans.self_s("oracle.promote");
    let amcast_s = spans.self_s("alm.amcast");
    let tiers = run.tiers;
    // Time lookups the way AMCast issues them: over the member pairs of
    // the session planned last, whose rows the hot tier still holds.
    let last = w.sessions.last().expect("at least one session");
    let per_lookup_ns = lookup_ns(spans, &oracle, last);
    m.extend([
        ("oracle.promotions", tiers.promotions as f64),
        ("oracle.evictions", tiers.evictions as f64),
        ("oracle.lookups", tiers.total() as f64),
        (
            "oracle.hot_hit_ratio",
            tiers.hot as f64 / tiers.total().max(1) as f64,
        ),
        ("oracle.resident_mb", run.resident_bytes as f64 / 1e6),
        (
            "oracle.promote_us_per_row",
            promote_s * 1e6 / tiers.promotions.max(1) as f64,
        ),
        ("oracle.promote_s_est", promote_s),
        ("oracle.lookup_ns", per_lookup_ns),
        ("alm.relaxations", run.relaxations as f64),
        ("alm.amcast_ms", amcast_s * 1e3 / sessions),
        (
            "alm.ns_per_relaxation",
            amcast_s * 1e9 / run.relaxations.max(1) as f64,
        ),
    ]);

    // Replay of the set-up under spans, one layer at a time.
    let again = PlanScale::build(w.seed, w.size, Some(spans));
    m.extend([
        ("netsim.generate_s", spans.self_s("netsim.generate")),
        (
            "netsim.dijkstra_row_us",
            dijkstra_row_us(spans, &again.routers),
        ),
        ("coords.gnp_fit_s", spans.self_s("coords.gnp_fit")),
        ("oracle.build_s", spans.self_s("oracle.build")),
    ]);

    let lookup_total = tiers.total() as f64 * per_lookup_ns / 1e9;
    print_shares(
        traced_s,
        vec![
            ("oracle lookup (in amcast)", lookup_total.min(amcast_s)),
            ("alm amcast (own work)", (amcast_s - lookup_total).max(0.0)),
            ("oracle promotion", promote_s),
        ],
    );
    (run, m)
}

pub fn recovery(
    w: &Recovery,
    spans: &mut Spans,
    run_s: f64,
    _deadline: Instant,
) -> (RecoveryOutcome, Vec<LayerMetric>) {
    let mut m = Vec::new();
    let cfg = &w.cfg;
    let (out, traced_s) = traced_rep(spans, "pool.recovery.run_pipeline", run_s, &mut m, |_| {
        run_pipeline(cfg)
    });
    m.extend([
        ("dht.heartbeat_msgs", out.dht_messages as f64),
        ("dht.msgs_dropped", out.dht_dropped as f64),
        ("somo.gather_msgs", out.gather_messages as f64),
        ("somo.gather_dropped", out.gather_dropped as f64),
    ]);

    // ── Replay, phase by phase, of what the pipeline asks of each layer,
    // on the ring, victims (`seed + 100` shuffle) and SOMO tree it derives
    // from `cfg`. The message counts below are checked against the
    // pipeline's own, so a derivation that drifts from it fails loudly. ──
    let ring = Ring::with_random_ids((0..cfg.n).map(HostId), cfg.seed);
    let tree = SomoTree::build(&ring, cfg.fanout);
    let hop = cfg.hop;
    let delay = move |a, b| if a == b { SimTime::ZERO } else { hop };
    let mut victims: Vec<usize> = (0..ring.len()).collect();
    victims.shuffle(&mut rand::rngs::StdRng::seed_from_u64(cfg.seed + 100));
    victims.truncate(cfg.crashes);
    let expelled_at = out
        .timeline
        .expelled_at
        .expect("judged: the ring expelled the victims");

    let (dht_msgs, dht_s) = spans.timed("dht.run_until", |_| {
        let mut dht = DhtSim::with_faults(
            &ring,
            cfg.proto,
            move |a: HostId, b: HostId| delay(a.0, b.0),
            cfg.plan.clone(),
        );
        dht.run_until(cfg.crash_at);
        for &v in &victims {
            dht.kill(v);
        }
        dht.run_until(expelled_at);
        dht.messages_sent()
    });

    assert_eq!(
        dht_msgs, out.dht_messages,
        "the dht replay is not the pipeline's heartbeat phase"
    );

    let mut healed = ring.clone();
    for &v in &victims {
        healed
            .remove_id(ring.member(v).id)
            .expect("victim was a member");
    }
    let (healed_tree, tree_s) =
        spans.timed("somo.tree_build", |_| SomoTree::build(&healed, cfg.fanout));
    let alive = (ring.len() - cfg.crashes) as u64;
    let mut depth = 0;
    let (gather_msgs, gather_s) = spans.timed("somo.run_until", |_| {
        let mut exposure = GatherSim::with_faults(
            &tree,
            &ring,
            FlowMode::Synchronized,
            cfg.gather_period,
            |_m, now| FreshnessReport::of_member(now),
            move |a, b| delay(a as u32, b as u32),
            cfg.plan.clone(),
        );
        for &v in &victims {
            exposure.kill_member(v);
        }
        exposure.run_until(cfg.exposure);
        let mut regather = GatherSim::with_faults(
            &healed_tree,
            &healed,
            FlowMode::Unsynchronized,
            cfg.gather_period,
            |_m, now| FreshnessReport::of_member(now),
            move |a, b| delay(a as u32, b as u32),
            cfg.plan.clone(),
        );
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(600)
            && !regather.views().iter().any(|v| v.view.members == alive)
        {
            t += cfg.gather_period;
            regather.run_until(t);
        }
        depth = regather.pending_events();
        exposure.messages_sent() + regather.messages_sent()
    });
    assert_eq!(
        gather_msgs, out.gather_messages,
        "the somo replay is not the pipeline's two gathers"
    );

    // The event queue under both simulators, at the depth the gather
    // actually held: one schedule and one pop per event.
    let depth = depth.max(ring.len());
    let events = 2_000_000u64;
    let ((), queue_s) = spans.timed("simcore.queue", |_| {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut x = cfg.seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            SimTime::from_micros(x % 5_000_000)
        };
        for e in 0..depth as u64 {
            queue.schedule(step(), e);
        }
        for _ in 0..events {
            let (now, e) = queue.pop().expect("the queue holds `depth` events");
            queue.schedule(now + step(), black_box(e));
        }
    });

    let (_, generate_s) = spans.timed("netsim.generate", |_| {
        Network::generate(
            &NetworkConfig {
                num_hosts: cfg.n as usize,
                ..NetworkConfig::default()
            },
            derive_seed(cfg.seed, 7),
        )
    });
    m.extend([
        ("dht.heartbeat_s", dht_s),
        ("dht.ns_per_msg", dht_s * 1e9 / dht_msgs.max(1) as f64),
        ("somo.gather_s", gather_s),
        (
            "somo.ns_per_msg",
            gather_s * 1e9 / gather_msgs.max(1) as f64,
        ),
        ("simcore.queue_ns_per_event", queue_s * 1e9 / events as f64),
        ("netsim.generate_s", generate_s),
    ]);
    let explained = dht_s + gather_s + tree_s + generate_s;
    m.push(("pool.recovery.unattributed_s", traced_s - explained));
    print_shares(
        traced_s,
        vec![
            ("dht heartbeat + gossip", dht_s),
            ("somo gather", gather_s + tree_s),
            ("netsim generate (ALM phase)", generate_s),
        ],
    );
    (out, m)
}
