//! Ablation of the *Leafset* planning pipeline (DESIGN.md §5.0).
//!
//! The paper's practical algorithm uses coordinates "for vicinity
//! judgment". This binary shows, with data, why each ingredient of our
//! staged interpretation matters, at the paper's group size of 20:
//!
//! * **naive** — plan every pair through coordinates (what a too-literal
//!   reading produces): the greedy planner adversarially selects the most
//!   under-estimated helpers and the plan is no better than no helpers;
//! * **hybrid** — members measure each other, helpers stay estimated:
//!   better, still poisoned by phantom-close helpers;
//! * **staged** — shortlist on estimates, contact & measure, replan: the
//!   paper-faithful loop, two thirds of the oracle's gain;
//! * **oracle** — the *Critical* ceiling.
//!
//! Run with: `cargo run --release -p bench --bin ablate_staged`

use alm::{adjust, amcast, critical, staged_plan, HelperPool, Problem};
use bench::{dump_json, mean, parallel_runs};
use coords::leafset::LeafsetConfig;
use coords::LeafsetCoords;
use dht::Ring;
use netsim::latency::MeasuredSetLatency;
use netsim::{HostId, Network, NetworkConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::json;

const RUNS: usize = 20;
const GROUP: usize = 20;

fn main() {
    let seed = 2016;
    println!("building topology + coordinates...");
    let net = Network::generate(&NetworkConfig::default(), seed);
    let ring = Ring::with_random_ids((0..net.num_hosts() as u32).map(HostId), seed + 1);
    let coords = LeafsetCoords::new(LeafsetConfig {
        leafset_size: 32,
        rounds: 20,
        ..Default::default()
    })
    .run(&net.latency, &ring, seed + 2);

    let results = parallel_runs(RUNS, |run| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 50 + run as u64);
        let mut all: Vec<u32> = (0..net.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        let members: Vec<HostId> = all[..GROUP].iter().copied().map(HostId).collect();
        let root = members[0];
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let pool = HelperPool::new(net.hosts.ids().collect());

        let p_oracle = Problem::new(root, members.clone(), &net.latency, dbound);
        let base = amcast(&p_oracle).max_height();
        let impr = |t: &alm::MulticastTree| {
            let mut e = t.clone();
            e.recompute_heights(&net.latency);
            alm::improvement(base, e.max_height())
        };

        // naive: every pair through coordinates.
        let p_naive = Problem::new(root, members.clone(), &coords, dbound);
        let mut t = critical(&p_naive, &pool);
        adjust(&p_naive, &mut t);
        let naive = impr(&t);

        // hybrid: members measured, helpers estimated, single pass.
        let hy = MeasuredSetLatency::new(members.iter().copied(), &net.latency, &coords);
        let p_hybrid = Problem::new(root, members.clone(), &hy, dbound);
        let mut t = critical(&p_hybrid, &pool);
        adjust(&p_hybrid, &mut t);
        let hybrid = impr(&t);

        // staged: the full estimate → contact → replan loop.
        let t = staged_plan(root, &members, &net.latency, &coords, dbound, &pool, true);
        let staged = impr(&t);

        // oracle: the Critical ceiling.
        let mut t = critical(&p_oracle, &pool);
        adjust(&p_oracle, &mut t);
        let oracle = impr(&t);

        (naive, hybrid, staged, oracle)
    });

    let naive = mean(&results.iter().map(|r| r.0).collect::<Vec<_>>());
    let hybrid = mean(&results.iter().map(|r| r.1).collect::<Vec<_>>());
    let staged = mean(&results.iter().map(|r| r.2).collect::<Vec<_>>());
    let oracle = mean(&results.iter().map(|r| r.3).collect::<Vec<_>>());

    println!("\nimprovement over AMCast at group size {GROUP} ({RUNS} runs, +adjust everywhere):");
    println!(
        "  naive  (all pairs estimated)      {:>7.1}%",
        naive * 100.0
    );
    println!(
        "  hybrid (members measured)         {:>7.1}%",
        hybrid * 100.0
    );
    println!(
        "  staged (contact & replan)         {:>7.1}%",
        staged * 100.0
    );
    println!(
        "  oracle (Critical ceiling)         {:>7.1}%",
        oracle * 100.0
    );
    println!("\n(expected ordering: naive < hybrid < staged ≤ oracle — the staged loop is\n what keeps coordinate error out of the tree's critical path)");

    dump_json(
        "ablate_staged",
        &json!({
            "group": GROUP,
            "runs": RUNS,
            "naive": naive,
            "hybrid": hybrid,
            "staged": staged,
            "oracle": oracle,
        }),
    );
}
