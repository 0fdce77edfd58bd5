//! Perf-regression harness for the planner hot paths.
//!
//! Sweeps session size N (hosts = N, members = N/2) over the two greedy
//! engines — the incremental best-parent engine behind [`alm::amcast()`] /
//! [`alm::critical()`] and the O(N³)-ish reference loop they replaced
//! ([`alm::amcast_reference`] / [`alm::critical_reference`]) — plus the
//! adjustment pass and a crash-heavy market run timed end to end. For
//! every cell it records wall-clock, oracle
//! `latency_ms` evaluations (via [`netsim::latency::Counted`]) and
//! candidate-parent relaxations (via [`alm::metrics`]), and asserts the
//! two engines return **bit-identical** trees wherever both run.
//!
//! On top of the dense-matrix cells, every N also runs a **tiered-oracle
//! quality cell** (`crates/oracle`): the same sessions planned through
//! the bounded-memory tiered oracle (GNP coordinates fit from landmark
//! probes only — no dense matrix involved in the tiered path), with the
//! resulting trees re-evaluated under the exact matrix. Latency stretch
//! and degree cost vs the exact-matrix trees are asserted within
//! [`STRETCH_BOUND`] / [`DEGREE_COST_BOUND`], per-tier hit counts and
//! resident bytes land in the JSON (`oracle_mem` per row, memory-gated
//! against the baseline), and an `Exact`-source gate pins
//! `PoolOracle::Exact` plans bit-identical to the `CachedLatency` plans.
//! Non-smoke runs finish with a **matrix-free N=131072 amcast cell**
//! built from `RouterNet`/`HostSet` directly — `Network::generate` (and
//! its exact `LatencyMatrix` kernel) is never called — asserting the
//! tiered oracle stays under 5% of a dense `N² × 4` pair table (the
//! exact kernel's storage until it was factored; see EXPERIMENTS.md for
//! what that comparison still means).
//!
//! Results land in `results/BENCH_planner.json`. When a committed
//! `results/BENCH_planner_baseline.json` exists, each cell's wall-clock is
//! compared against it; a cell slower than `2×` baseline is a regression,
//! as is a tiered-oracle footprint above `1.5×` baseline.
//! Regressions fail the run only when `PERF_PLANNER_ENFORCE` is set (CI),
//! so a local run on a slower machine just prints the table.
//!
//! Env knobs:
//! * `PERF_PLANNER_SMOKE` — cap the sweep at N ≤ 1024 (the CI slice);
//! * `PERF_PLANNER_ENFORCE` — fail on >2× wall-clock regressions vs the
//!   committed baseline.
//!
//! Flags:
//! * `--trace-out` — attach a ring tracer to the crash-heavy market run
//!   and dump its JSON-lines trace to
//!   `results/BENCH_planner_trace.jsonl` (observation only: the asserted
//!   results are unchanged).
//!
//! Run with: `cargo run --release -p bench --bin perf_planner`

use std::time::Instant;

use alm::metrics::{relaxations, reset_relaxations};
use alm::{
    adjust, amcast, amcast_reference, critical, critical_reference, HelperPool, MulticastTree,
    Problem,
};
use bench::{dump_json, dump_jsonl, results_dir, trace_out_requested};
use coords::{GnpConfig, GnpSolver};
use netsim::hosts::HostSet;
use netsim::latency::{latency_calls, reset_latency_calls, Counted};
use netsim::topology::TransitStubConfig;
use netsim::{CachedLatency, HostId, Network, NetworkConfig, RouterNet};
use oracle::{LandmarkSketch, PoolOracle, TieredConfig, TieredOracle};
use pool::task_manager::oracle_height;
use pool::{MarketConfig, MarketSim, PoolConfig, ResourcePool};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;
use simcore::{FaultPlan, SimTime};

const SIZES: [usize; 7] = [256, 512, 1024, 2048, 4096, 8192, 16384];
const SMOKE_CAP: usize = 1024;
/// Largest N the reference engines are run at — beyond this only the
/// incremental engine is timed (the reference would dominate the harness).
const REF_CAP: usize = 4096;
const SEED: u64 = 2024;

/// The matrix-free scale cell: a dense pair table would need `N² × 4` =
/// 68.7 GB here. The cell is built from `RouterNet` + `HostSet` directly
/// and `Network::generate` is never called.
const SCALE_N: usize = 131_072;
/// Member count of the scale-cell session (matches the N=16384 sweep
/// row's session size; the wall is memory, not planner CPU).
const SCALE_MEMBERS: usize = 8192;

/// Asserted ceiling on per-tree latency stretch of tiered-oracle trees:
/// `oracle_height(tiered tree, exact matrix) / exact tree height`.
/// Measured across the full sweep (N=256..16384, both engines, seed
/// 2024) stretch grows from 0.86–1.24 while the 128-row hot tier still
/// covers the members' router spread to a worst of 2.37 at N=16384,
/// where estimates dominate; 2.60 leaves ~10% headroom so the gate
/// catches real estimator damage without flaking on seed drift.
const STRETCH_BOUND: f64 = 2.60;
/// Asserted ceiling on the *mean* latency stretch across every tiered
/// quality cell of the sweep (the acceptance metric). Measured: 1.506.
const MEAN_STRETCH_BOUND: f64 = 1.70;
/// Asserted ceiling on the degree-cost ratio of tiered trees. Both
/// trees span the same member set (helpers only differ), so total
/// degree — `2·(edges)` — barely moves; measured ratios are
/// 0.997–1.013 across the full sweep.
const DEGREE_COST_BOUND: f64 = 1.10;

/// Total degree units a tree books — the cost side of every
/// quality-vs-cost tradeoff in the paper's evaluation.
fn degree_cost(t: &MulticastTree) -> u64 {
    t.hosts().iter().map(|&h| t.degree(h) as u64).sum()
}

/// One timed engine invocation: wall-clock plus both hot-path counters.
struct Cell {
    wall_ms: f64,
    latency_calls: u64,
    relaxations: u64,
    tree: MulticastTree,
}

fn timed(run: impl FnOnce() -> MulticastTree) -> Cell {
    reset_latency_calls();
    reset_relaxations();
    let t0 = Instant::now();
    let tree = run();
    Cell {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        latency_calls: latency_calls(),
        relaxations: relaxations(),
        tree,
    }
}

fn cell_json(c: &Cell) -> serde_json::Value {
    json!({
        "wall_ms": c.wall_ms,
        "latency_calls": c.latency_calls,
        "relaxations": c.relaxations,
        "height_ms": c.tree.max_height(),
    })
}

/// Bit-level tree equality: same host order, same parents, same height
/// bits — the equivalence contract of the incremental engine.
fn assert_identical(label: &str, inc: &MulticastTree, reference: &MulticastTree) {
    assert_eq!(
        inc.hosts(),
        reference.hosts(),
        "{label}: host order differs"
    );
    for &h in inc.hosts() {
        assert_eq!(
            inc.parent_of(h),
            reference.parent_of(h),
            "{label}: parent of {h:?} differs"
        );
        assert_eq!(
            inc.height_of(h).to_bits(),
            reference.height_of(h).to_bits(),
            "{label}: height of {h:?} differs"
        );
    }
}

fn main() {
    let smoke = std::env::var("PERF_PLANNER_SMOKE").is_ok();
    let enforce = std::env::var("PERF_PLANNER_ENFORCE").is_ok();
    let trace_out = trace_out_requested();
    let sizes: Vec<usize> = SIZES
        .iter()
        .copied()
        .filter(|&n| !smoke || n <= SMOKE_CAP)
        .collect();

    println!(
        "planner perf sweep (smoke={smoke}): N = {sizes:?}, reference engines up to N = {REF_CAP}\n\
         {:>6} {:>9} | {:>10} {:>10} {:>8} | {:>12} {:>12} | {:>12} {:>12}",
        "N", "engine", "inc ms", "ref ms", "speedup", "inc relax", "ref relax", "inc lat", "ref lat"
    );

    let mut rows = Vec::new();
    let mut speedup_4096_critical = None;
    let mut stretches: Vec<f64> = Vec::new();
    for &n in &sizes {
        // A transit–stub underlay scaled to N end hosts. The router core
        // stays at the paper's 600 routers; only host attachment grows, so
        // the restricted-Dijkstra kernel build stays cheap.
        let net = Network::generate(
            &NetworkConfig {
                num_hosts: n,
                ..NetworkConfig::default()
            },
            SEED,
        );
        let oracle = Counted(CachedLatency::from_matrix(&net.latency));

        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ n as u64);
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rng);
        let members: Vec<HostId> = all[..n / 2].iter().copied().map(HostId).collect();
        let root = members[0];
        let candidates: Vec<HostId> = all[n / 2..].iter().copied().map(HostId).collect();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let p = Problem::new(root, members.clone(), &oracle, dbound);
        let mut hp = HelperPool::new(candidates.clone());
        hp.min_degree = 4;
        hp.radius_ms = 100.0;

        let mut engine_cells = Vec::new();
        let mut exact_trees: Vec<MulticastTree> = Vec::new();
        for engine in ["amcast", "critical"] {
            let inc = timed(|| match engine {
                "amcast" => amcast(&p),
                _ => critical(&p, &hp),
            });
            let reference = (n <= REF_CAP).then(|| {
                let c = timed(|| match engine {
                    "amcast" => amcast_reference(&p),
                    _ => critical_reference(&p, &hp),
                });
                assert_identical(&format!("N={n} {engine}"), &inc.tree, &c.tree);
                // Never more work than the reference; strictly fewer is
                // asserted (under richer degree bounds) by the alm crate's
                // equivalence tests — with the paper's degree distribution
                // most nodes are leaves, so at small N the prunes can have
                // nothing to skip and the counts legitimately tie.
                assert!(
                    inc.relaxations <= c.relaxations,
                    "N={n} {engine}: incremental did {} relaxations, reference {}",
                    inc.relaxations,
                    c.relaxations
                );
                c
            });
            let speedup = reference
                .as_ref()
                .map(|r| r.wall_ms / inc.wall_ms.max(1e-9));
            if n == 4096 && engine == "critical" {
                speedup_4096_critical = speedup;
            }
            println!(
                "{:>6} {:>9} | {:>10.2} {:>10} {:>8} | {:>12} {:>12} | {:>12} {:>12}",
                n,
                engine,
                inc.wall_ms,
                reference
                    .as_ref()
                    .map_or("-".into(), |r| format!("{:.2}", r.wall_ms)),
                speedup.map_or("-".into(), |s| format!("{s:.1}x")),
                inc.relaxations,
                reference
                    .as_ref()
                    .map_or("-".into(), |r| r.relaxations.to_string()),
                inc.latency_calls,
                reference
                    .as_ref()
                    .map_or("-".into(), |r| r.latency_calls.to_string()),
            );
            engine_cells.push(json!({
                "incremental": cell_json(&inc),
                "reference": reference.as_ref().map(cell_json),
                "speedup": speedup,
                "identical": reference.is_some(),
            }));
            exact_trees.push(inc.tree);
        }

        // `LatencySource::Exact` gate: a plan through the PoolOracle
        // enum's Exact arm must be bit-identical to the CachedLatency
        // plan — the enum dispatch may not perturb anything.
        if n <= REF_CAP {
            let po = PoolOracle::Exact(CachedLatency::from_matrix(&net.latency));
            let pe = Problem::new(root, members.clone(), &po, dbound);
            assert_identical(
                &format!("N={n} exact-source amcast"),
                &amcast(&pe),
                &exact_trees[0],
            );
            assert_identical(
                &format!("N={n} exact-source critical"),
                &critical(&pe, &hp),
                &exact_trees[1],
            );
        }

        // The adjustment pass over the incremental amcast tree.
        let mut t = amcast(&p);
        reset_latency_calls();
        let t0 = Instant::now();
        adjust(&p, &mut t);
        let adjust_cell = json!({
            "wall_ms": t0.elapsed().as_secs_f64() * 1e3,
            "latency_calls": latency_calls(),
        });

        // ---- Tiered-oracle quality cell: the same sessions planned
        // through the bounded-memory tiered oracle, trees re-evaluated
        // under the exact matrix. The tiered path never touches
        // `net.latency`: GNP coordinates are fit from landmark probes.
        let tcfg = TieredConfig::default();
        let t0 = Instant::now();
        let landmarks = LandmarkSketch::default_landmarks(n, tcfg.landmarks, SEED ^ 0x7157);
        let sketch = LandmarkSketch::build(&net.routers, &net.hosts, &landmarks);
        let sketch_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let gnp = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
            &sketch.probes(),
            &landmarks,
            SEED,
        );
        let gnp_ms = t0.elapsed().as_secs_f64() * 1e3;
        let tiered = TieredOracle::new(&net.routers, &net.hosts, gnp, sketch, &tcfg);
        tiered.promote(&members);
        tiered.promote(&candidates);
        let tor = Counted(tiered.share());
        let tp = Problem::new(root, members.clone(), &tor, dbound);
        let mut tiered_engines = Vec::new();
        for (ei, engine) in ["amcast", "critical"].iter().enumerate() {
            let cell = timed(|| match *engine {
                "amcast" => amcast(&tp),
                _ => critical(&tp, &hp),
            });
            // Quality is judged under the exact matrix, against the
            // exact-matrix tree of the same engine.
            let exact_height = oracle_height(&cell.tree, &net.latency);
            let stretch = exact_height / exact_trees[ei].max_height().max(1e-9);
            let cost = degree_cost(&cell.tree);
            let cost_ratio = cost as f64 / degree_cost(&exact_trees[ei]).max(1) as f64;
            assert!(
                stretch <= STRETCH_BOUND,
                "N={n} {engine}: tiered latency stretch {stretch:.3} exceeds {STRETCH_BOUND}"
            );
            assert!(
                cost_ratio <= DEGREE_COST_BOUND,
                "N={n} {engine}: tiered degree-cost ratio {cost_ratio:.3} exceeds {DEGREE_COST_BOUND}"
            );
            stretches.push(stretch);
            println!(
                "{:>6} {:>9} | tiered {:>8.2} ms, stretch {:.3}, degree-cost {:.3}",
                n,
                format!("{engine}~"),
                cell.wall_ms,
                stretch,
                cost_ratio
            );
            tiered_engines.push(json!({
                "wall_ms": cell.wall_ms,
                "latency_calls": cell.latency_calls,
                "height_ms": cell.tree.max_height(),
                "exact_height_ms": exact_height,
                "stretch": stretch,
                "degree_cost": cost,
                "degree_cost_ratio": cost_ratio,
            }));
        }
        let tstats = tiered.stats();
        let tiered_bytes = tiered.resident_bytes();
        let dense_bytes = n as u64 * n as u64 * 4;

        rows.push(json!({
            "n": n,
            "members": n / 2,
            "amcast": engine_cells[0],
            "critical": engine_cells[1],
            "adjust": adjust_cell,
            "tiered": {
                "amcast": tiered_engines[0],
                "critical": tiered_engines[1],
                "sketch_ms": sketch_ms,
                "gnp_ms": gnp_ms,
                "stats": serde_json::to_value(&tstats),
                "hot_hit_rate": tstats.hot as f64 / tstats.total().max(1) as f64,
            },
            "oracle_mem": {
                "dense_bytes": dense_bytes,
                "tiered_bytes": tiered_bytes,
                "ratio": tiered_bytes as f64 / dense_bytes as f64,
            },
        }));
    }

    let mean_stretch = stretches.iter().sum::<f64>() / stretches.len().max(1) as f64;
    let worst_stretch = stretches.iter().copied().fold(0.0_f64, f64::max);
    println!(
        "\ntiered quality: mean stretch {mean_stretch:.3}, worst {worst_stretch:.3} \
         over {} cells",
        stretches.len()
    );
    assert!(
        mean_stretch <= MEAN_STRETCH_BOUND,
        "acceptance: mean tiered latency stretch {mean_stretch:.3} exceeds {MEAN_STRETCH_BOUND}"
    );

    // The bar was 5x while the reference spent most of its time in SipHash
    // probes of the tree it shares with the incremental engine; the flat
    // tree made the reference 2.2x faster and the incremental engine 1.1x
    // (EXPERIMENTS.md, "fourth finding acted on"), so the same two loops
    // now stand 2.6x apart.
    if let Some(s) = speedup_4096_critical {
        println!("\ncritical-node planning speedup at N=4096: {s:.1}x");
        assert!(
            s >= 2.0,
            "acceptance: critical planning at N=4096 must be ≥2x over the reference (got {s:.2}x)"
        );
    }

    // Crash-heavy market: the fig-10 pool under a 10% crash plan, timed
    // end to end (detection, repair, incremental re-sync, replans).
    println!("\nmarket under crashes (1200-host pool, 10% crashes):");
    let pristine = ResourcePool::build(&PoolConfig::default(), 2010);
    let cfg = MarketConfig {
        faults: crash_plan(0.10, pristine.net.num_hosts(), 2010),
        ..MarketConfig::default()
    };
    let mut sim = MarketSim::new(pristine, cfg, 2010 + 20);
    if trace_out {
        sim.set_tracer(simcore::Tracer::ring(1 << 16));
    }
    let t0 = Instant::now();
    let out = sim.run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if trace_out {
        dump_jsonl(
            "BENCH_planner_trace",
            &simcore::trace::to_json_lines(&out.trace),
        );
    }
    assert_eq!(out.leaked_degrees, 0, "crash-heavy market leaked degrees");
    assert!(out.audit.is_clean(), "{:?}", out.audit.violations);
    println!(
        "  {wall_ms:>8.1} ms, {} plans, {} repairs, {} re-syncs",
        out.plans, out.crash_repairs, out.incremental_replans
    );
    let market_cell = json!({
        "wall_ms": wall_ms,
        "plans": out.plans,
        "crash_repairs": out.crash_repairs,
        "incremental_replans": out.incremental_replans,
        "resync_fallbacks": out.resync_fallbacks,
    });

    // ---- Matrix-free scale cell: N=131072. Built from RouterNet +
    // HostSet directly; `Network::generate` (and with it the exact
    // kernel) is never called on this path, so the only latency
    // state that exists is the tiered oracle's own — the reported
    // resident bytes account for *everything* the oracle holds.
    let scale_cell = if smoke {
        serde_json::Value::Null
    } else {
        let routers = RouterNet::generate(
            &TransitStubConfig::default(),
            simcore::rng::derive_seed(SEED, 1),
        );
        let hosts = HostSet::attach(
            &routers,
            SCALE_N,
            (3.0, 8.0),
            simcore::rng::derive_seed(SEED, 2),
        );
        let tcfg = TieredConfig::default();
        let t0 = Instant::now();
        let landmarks = LandmarkSketch::default_landmarks(SCALE_N, tcfg.landmarks, SEED ^ 0x7157);
        let sketch = LandmarkSketch::build(&routers, &hosts, &landmarks);
        let sketch_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let gnp = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
            &sketch.probes(),
            &landmarks,
            SEED,
        );
        let gnp_ms = t0.elapsed().as_secs_f64() * 1e3;
        let tiered = TieredOracle::new(&routers, &hosts, gnp, sketch, &tcfg);

        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ SCALE_N as u64);
        let mut all: Vec<u32> = (0..SCALE_N as u32).collect();
        all.shuffle(&mut rng);
        let members: Vec<HostId> = all[..SCALE_MEMBERS].iter().copied().map(HostId).collect();
        let root = members[0];
        tiered.promote(&members);
        let dbound = |h: HostId| hosts.degree_bound(h);
        let tor = Counted(tiered.share());
        let p = Problem::new(root, members.clone(), &tor, dbound);
        let cell = timed(|| amcast(&p));

        let tiered_bytes = tiered.resident_bytes() as u64;
        let dense_bytes = SCALE_N as u64 * SCALE_N as u64 * 4;
        let ratio = tiered_bytes as f64 / dense_bytes as f64;
        let stats = tiered.stats();
        println!(
            "\nscale cell: N={SCALE_N}, members={SCALE_MEMBERS} — amcast {:.1} ms \
             (gnp fit {gnp_ms:.0} ms, sketch {sketch_ms:.0} ms)\n  oracle resident \
             {:.1} MB vs dense {:.1} GB ({:.3}% — dense tier never materialized)\n  \
             tier hits: hot {} / sketch {} / base {}, {} rows resident",
            cell.wall_ms,
            tiered_bytes as f64 / 1e6,
            dense_bytes as f64 / 1e9,
            ratio * 100.0,
            stats.hot,
            stats.sketch,
            stats.base,
            tiered.resident_rows(),
        );
        // The acceptance bar: tiered memory under 5% of the dense
        // equivalent (it lands around 0.05%, three orders below the
        // 68.7 GB the matrix would need).
        assert!(
            (tiered_bytes as f64) < 0.05 * dense_bytes as f64,
            "scale cell: oracle resident {tiered_bytes} B is not under 5% of dense {dense_bytes} B"
        );
        json!({
            "n": SCALE_N,
            "members": SCALE_MEMBERS,
            "amcast": cell_json(&cell),
            "gnp_ms": gnp_ms,
            "sketch_ms": sketch_ms,
            "stats": serde_json::to_value(&stats),
            "resident_rows": tiered.resident_rows(),
            "oracle_mem": {
                "dense_bytes": dense_bytes,
                "tiered_bytes": tiered_bytes,
                "ratio": ratio,
            },
        })
    };

    let result = json!({
        "bench": "perf_planner",
        "smoke": smoke,
        "sizes": sizes,
        "ref_cap": REF_CAP,
        "stretch_bound": STRETCH_BOUND,
        "mean_stretch_bound": MEAN_STRETCH_BOUND,
        "degree_cost_bound": DEGREE_COST_BOUND,
        "mean_stretch": mean_stretch,
        "worst_stretch": worst_stretch,
        "rows": rows,
        "market_replan": {
            "incremental": market_cell,
        },
        "scale": scale_cell,
    });
    dump_json("BENCH_planner", &result);
    compare_to_baseline(&result, enforce);
}

/// Crash `rate` of the hosts permanently at staggered mid-run times
/// (mirrors `ext_market_faults`).
fn crash_plan(rate: f64, num_hosts: usize, seed: u64) -> FaultPlan {
    let n = (num_hosts as f64 * rate).round() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hosts: Vec<usize> = (0..num_hosts).collect();
    hosts.shuffle(&mut rng);
    let mut plan = FaultPlan::none();
    for &h in hosts.iter().take(n) {
        let at = rng.random_range(600..2700u64);
        plan = plan.crash_forever(h as u64, SimTime::from_secs(at));
    }
    plan
}

/// Compare every incremental-engine cell's wall-clock against the
/// committed baseline; >2× is a regression. Cells absent from either side
/// (e.g. smoke runs only cover N ≤ 1024) are skipped.
fn compare_to_baseline(current: &serde_json::Value, enforce: bool) {
    let path = results_dir().join("BENCH_planner_baseline.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        println!(
            "[no committed baseline at {} — skipping comparison]",
            path.display()
        );
        assert!(
            !enforce,
            "PERF_PLANNER_ENFORCE set but no baseline committed"
        );
        return;
    };
    let baseline: serde_json::Value = serde_json::from_str(&text).expect("baseline parse");
    let wall = |v: &serde_json::Value, n: u64, path: &[&str]| -> Option<f64> {
        let row = v
            .get("rows")?
            .as_array()?
            .iter()
            .find(|r| r.get("n").and_then(|x| x.as_u64()) == Some(n))?;
        let mut cur = row;
        for k in path {
            cur = cur.get(k)?;
        }
        cur.as_f64()
    };
    let mut regressions = Vec::new();
    let mut compared = 0;
    for row in current.get("rows").and_then(|r| r.as_array()).unwrap() {
        let n = row.get("n").and_then(|x| x.as_u64()).unwrap();
        for engine in ["amcast", "critical"] {
            let path = [engine, "incremental", "wall_ms"];
            let Some(cur) = wall(current, n, &path) else {
                continue;
            };
            let Some(base) = wall(&baseline, n, &path) else {
                continue;
            };
            compared += 1;
            let ratio = cur / base.max(1e-9);
            if ratio > 2.0 {
                regressions.push(format!(
                    "N={n} {engine}: {cur:.2} ms vs baseline {base:.2} ms ({ratio:.2}x)"
                ));
            }
        }
        // Memory gate: the tiered oracle's resident footprint must not
        // creep. A 1.5x blowup vs the committed baseline means someone
        // widened a tier (or started materializing rows eagerly) — fail
        // loudly rather than silently eroding the scaling story.
        let mem_path = ["oracle_mem", "tiered_bytes"];
        if let (Some(cur), Some(base)) =
            (wall(current, n, &mem_path), wall(&baseline, n, &mem_path))
        {
            compared += 1;
            let ratio = cur / base.max(1.0);
            if ratio > 1.5 {
                regressions.push(format!(
                    "N={n} oracle_mem: {:.1} KB vs baseline {:.1} KB ({ratio:.2}x)",
                    cur / 1e3,
                    base / 1e3
                ));
            }
        }
    }
    if regressions.is_empty() {
        println!("[baseline comparison: {compared} cells within 2x]");
    } else {
        println!("[baseline comparison: REGRESSIONS]");
        for r in &regressions {
            println!("  {r}");
        }
        assert!(
            !enforce,
            "wall-clock regressions vs committed baseline:\n{}",
            regressions.join("\n")
        );
    }
}
