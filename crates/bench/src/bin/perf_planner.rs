//! The planner anchor: what the planner hot paths cost, in exact counts.
//!
//! Sweeps session size N (hosts = N, members = N/2) over the two greedy
//! engines ([`alm::amcast()`], [`alm::critical()`]) and the adjustment
//! pass. Every cell records oracle `latency_ms` evaluations (via
//! [`netsim::latency::Counted`]), candidate-parent relaxations (via
//! [`alm::metrics`]) and the tree height — all seed-deterministic.
//!
//! Every N also runs a **tiered-oracle quality cell** (`crates/oracle`):
//! the same sessions planned through the bounded-memory tiered oracle
//! (GNP coordinates fit from landmark probes only), with the resulting
//! trees re-evaluated under the exact kernel. Latency stretch and degree
//! cost against the exact trees, the per-tier hit counts and the oracle's
//! resident bytes land in the JSON.
//!
//! `results/perf_planner.json` holds only those exact values and is gated
//! by `git diff` like every other anchor; wall clock goes to stdout only
//! (the paper's §5.2 runtime claim is read off that table). That the
//! engines equal their O(N³) references tree for tree is
//! `crates/alm/tests/incremental_equivalence.rs`' job.
//!
//! Run with: `cargo run --release -p bench --bin perf_planner`

use std::time::Instant;

use alm::metrics::{relaxations, reset_relaxations};
use alm::{adjust, amcast, critical, HelperPool, MulticastTree, Problem};
use bench::dump_json;
use coords::{GnpConfig, GnpSolver};
use netsim::latency::{latency_calls, reset_latency_calls, Counted};
use netsim::{HostId, Network, NetworkConfig};
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};
use pool::task_manager::oracle_height;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::json;

const SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
const SEED: u64 = 2024;

/// Total degree units a tree books — the cost side of every
/// quality-vs-cost tradeoff in the paper's evaluation.
fn degree_cost(t: &MulticastTree) -> u64 {
    t.hosts().iter().map(|&h| t.degree(h) as u64).sum()
}

/// One engine invocation: both hot-path counters, plus the wall clock
/// for the stdout table.
struct Cell {
    wall_ms: f64,
    latency_calls: u64,
    relaxations: u64,
    tree: MulticastTree,
}

fn counted(run: impl FnOnce() -> MulticastTree) -> Cell {
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

fn main() {
    println!(
        "planner anchor: N = {SIZES:?}\n{:>6} {:>9} | {:>10} | {:>12} {:>12} | {:>10}",
        "N", "engine", "ms", "relaxations", "lat calls", "height ms"
    );

    let mut rows = Vec::new();
    let mut stretches: Vec<f64> = Vec::new();
    for &n in &SIZES {
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
        let oracle = Counted(net.latency.clone());

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
            let cell = counted(|| match engine {
                "amcast" => amcast(&p),
                _ => critical(&p, &hp),
            });
            println!(
                "{:>6} {:>9} | {:>10.2} | {:>12} {:>12} | {:>10.2}",
                n,
                engine,
                cell.wall_ms,
                cell.relaxations,
                cell.latency_calls,
                cell.tree.max_height()
            );
            engine_cells.push(json!({
                "latency_calls": cell.latency_calls,
                "relaxations": cell.relaxations,
                "height_ms": cell.tree.max_height(),
            }));
            exact_trees.push(cell.tree);
        }

        // The adjustment pass over the amcast tree.
        let mut t = exact_trees[0].clone();
        reset_latency_calls();
        let t0 = Instant::now();
        adjust(&p, &mut t);
        let adjust_calls = latency_calls();
        println!(
            "{:>6} {:>9} | {:>10.2} | {:>12} {:>12} | {:>10.2}",
            n,
            "adjust",
            t0.elapsed().as_secs_f64() * 1e3,
            "-",
            adjust_calls,
            t.max_height()
        );

        // ---- Tiered-oracle quality cell: the same sessions planned
        // through the bounded-memory tiered oracle, trees re-evaluated
        // under the exact kernel. The tiered path never touches
        // `net.latency`: GNP coordinates are fit from landmark probes.
        let tcfg = TieredConfig::default();
        let landmarks = LandmarkSketch::default_landmarks(n, tcfg.landmarks, SEED ^ 0x7157);
        let sketch = LandmarkSketch::build(&net.routers, &net.hosts, &landmarks);
        let gnp = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
            &sketch.probes(),
            &landmarks,
            SEED,
        );
        let tiered = TieredOracle::new(&net.routers, &net.hosts, gnp, sketch, &tcfg);
        tiered.promote_plan(&candidates, &members);
        let tor = Counted(tiered.share());
        let tp = Problem::new(root, members.clone(), &tor, dbound);
        let mut tiered_engines = Vec::new();
        for (ei, engine) in ["amcast", "critical"].iter().enumerate() {
            let cell = counted(|| match *engine {
                "amcast" => amcast(&tp),
                _ => critical(&tp, &hp),
            });
            // Quality is judged under the exact kernel, against the
            // exact tree of the same engine.
            let exact_height = oracle_height(&cell.tree, &net.latency);
            let stretch = exact_height / exact_trees[ei].max_height().max(1e-9);
            let cost = degree_cost(&cell.tree);
            let cost_ratio = cost as f64 / degree_cost(&exact_trees[ei]).max(1) as f64;
            stretches.push(stretch);
            println!(
                "{:>6} {:>9} | {:>10.2} | stretch {:.3}, degree-cost {:.3}",
                n,
                format!("{engine}~"),
                cell.wall_ms,
                stretch,
                cost_ratio
            );
            tiered_engines.push(json!({
                "latency_calls": cell.latency_calls,
                "height_ms": cell.tree.max_height(),
                "exact_height_ms": exact_height,
                "stretch": stretch,
                "degree_cost": cost,
                "degree_cost_ratio": cost_ratio,
            }));
        }

        rows.push(json!({
            "n": n,
            "members": n / 2,
            "amcast": engine_cells[0],
            "critical": engine_cells[1],
            "adjust": {"latency_calls": adjust_calls},
            "tiered": {
                "amcast": tiered_engines[0],
                "critical": tiered_engines[1],
                "stats": serde_json::to_value(&tiered.stats()),
                "tiered_bytes": tiered.resident_bytes(),
            },
        }));
    }

    println!(
        "\ntiered quality: mean stretch {:.3}, worst {:.3} over {} cells",
        bench::mean(&stretches),
        stretches.iter().copied().fold(0.0_f64, f64::max),
        stretches.len()
    );

    dump_json(
        "perf_planner",
        &json!({
            "bench": "perf_planner",
            "sizes": SIZES,
            "rows": rows,
        }),
    );
}
