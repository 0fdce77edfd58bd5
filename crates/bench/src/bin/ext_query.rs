//! Extension experiment: hierarchical top-k queries vs full-snapshot scans.
//!
//! The snapshot discipline (Figure 7) ships a pool-wide resource report up
//! the SOMO tree every period — Θ(N) bytes per round no matter how few
//! hosts are actually idle. The query index instead caches a constant-size
//! aggregate at every interior node and answers top-k requests by
//! descending only the subtrees whose cached maxima can still qualify:
//! O(idle · log_k N) wire cost per answer.
//!
//! Method: for each N, build a ring of N single-member hosts with a
//! synthetic workload that leaves a fixed-size idle set (so the *answer*
//! stays constant while the pool grows — isolating the scaling of the
//! discovery machinery itself). Probe sessions then discover helpers both
//! ways and plan critical-node trees from each candidate list. The bench
//! hard-asserts the two candidate lists are identical — same hosts, same
//! order — so any quality metric (tree height, degree violations) matches
//! by construction, and reports the bytes/messages each discipline paid.
//!
//! Everything is synthetic — no `Network::generate`, no pool — because the
//! method needs an idle set it can hold fixed while N grows, which a
//! generated pool's degree tables would not give it; latencies come from
//! the same 2-D sample coordinates the region histograms bucket.
//!
//! Run with: `cargo run --release -p bench --bin ext_query` (the whole
//! sweep takes a fraction of a second; CI regenerates
//! `results/ext_query.json` and fails on any diff).

use alm::{critical, HelperPool, MulticastTree, Problem};
use bench::{dump_json, mean};
use dht::Ring;
use netsim::{HostId, LatencyModel};
use query::{HostSample, QueryIndex, RegionBounds, Scope};
use rand::Rng;
use serde_json::json;
use simcore::rng::derive_rng2;
use simcore::SimTime;
use somo::SomoTree;

const FANOUT: usize = 8;
const PERIOD: SimTime = SimTime::from_secs(60);
const RANK: usize = 3;
const MIN_FREE: u32 = 4;
const IDLE_HOSTS: usize = 64;
const MEMBER_SIZE: usize = 20;
const PROBES: usize = 16;
const SNAPSHOT_CAP: usize = 512;
/// Wire size of one snapshot report entry: HostId + `[u32; 4]` avail.
const ENTRY_BYTES: u64 = 20;

/// Latency straight from the 2-D coordinates carried in the samples.
struct CoordLatency(Vec<[f64; 2]>);

impl LatencyModel for CoordLatency {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        let (p, q) = (self.0[a.0 as usize], self.0[b.0 as usize]);
        let (dx, dy) = (p[0] - q[0], p[1] - q[1]);
        (dx * dx + dy * dy).sqrt().max(1.0)
    }
    fn num_hosts(&self) -> usize {
        self.0.len()
    }
}

/// The synthetic pool state at one N: every host has a sample; a strided
/// subset of `IDLE_HOSTS` hosts clears the helper bar at the weakest rank,
/// the rest sit below it (a busy pool with scattered idle capacity).
fn synth_samples(n: usize, seed: u64, now: SimTime) -> Vec<HostSample> {
    let stride = n / IDLE_HOSTS;
    (0..n)
        .map(|h| {
            let mut rng = derive_rng2(seed, 0x5A, h as u64);
            let idle = h % stride == 0;
            let f3 = if idle {
                MIN_FREE + rng.random_range(0..8u32)
            } else {
                rng.random_range(0..MIN_FREE)
            };
            let f2 = f3 + rng.random_range(0..3u32);
            let f1 = f2 + rng.random_range(0..3u32);
            let f0 = f1 + rng.random_range(0..3u32);
            HostSample {
                host: HostId(h as u32),
                free: [f0, f1, f2, f3],
                pos: [
                    rng.random_range(-350.0..350.0),
                    rng.random_range(-350.0..350.0),
                ],
                bw_class: rng.random_range(0..5),
                sampled_at: now,
                capacity: f0 + rng.random_range(0..4u32),
                queued: 0,
                preempted: 0,
            }
        })
        .collect()
}

/// Exact per-round wire cost of the snapshot gather: every logical node
/// ships its merged report (capped at `SNAPSHOT_CAP` entries) to its
/// parent; only inter-host edges cost anything.
fn snapshot_gather_cost(tree: &SomoTree, ring: &Ring) -> (u64, u64) {
    // Members in each node's subtree = canonical leaves beneath it.
    let mut members = vec![0u64; tree.len()];
    for m in 0..ring.len() {
        members[tree.canonical_leaf_of(ring.member(m).id) as usize] += 1;
    }
    // Children precede parents nowhere in particular, so accumulate by
    // walking nodes deepest-level first.
    let mut order: Vec<usize> = (0..tree.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tree.nodes()[i].level()));
    let (mut messages, mut bytes) = (0u64, 0u64);
    for i in order {
        let node = &tree.nodes()[i];
        let Some(p) = node.parent() else { continue };
        members[p as usize] += members[i];
        if tree.nodes()[p as usize].host() != node.host() {
            messages += 1;
            bytes += members[i].min(SNAPSHOT_CAP as u64) * ENTRY_BYTES;
        }
    }
    (messages, bytes)
}

/// The snapshot planner's candidate list: brute-force over all samples,
/// sorted by the shared stable key (free at rank desc, host id asc),
/// truncated to the report cap.
fn snapshot_candidates(samples: &[HostSample], exclude: &[HostId]) -> Vec<HostId> {
    let mut out: Vec<(u32, HostId)> = samples
        .iter()
        .filter(|s| s.free[RANK] >= MIN_FREE && !exclude.contains(&s.host))
        .map(|s| (s.free[RANK], s.host))
        .collect();
    out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    out.truncate(SNAPSHOT_CAP);
    out.into_iter().map(|(_, h)| h).collect()
}

fn violations(tree: &MulticastTree, dbound: impl Fn(HostId) -> u32) -> usize {
    tree.hosts()
        .iter()
        .filter(|&&h| tree.degree(h) > dbound(h))
        .count()
}

fn main() {
    let seed = 2020u64;
    let sizes: &[usize] = &[256, 512, 1024, 2048, 4096, 8192];

    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "N", "depth", "snap B/round", "maint B/round", "query B/plan", "q msgs", "height"
    );
    let mut rows = Vec::new();
    let mut scaling: Vec<(usize, u64, f64)> = Vec::new();
    for &n in sizes {
        let ring = Ring::with_random_ids((0..n as u32).map(HostId), seed);
        let t0 = SimTime::from_secs(10);
        let samples = synth_samples(n, seed, t0);
        let coords = CoordLatency(samples.iter().map(|s| s.pos).collect());
        let mut index = QueryIndex::build(&ring, FANOUT, PERIOD, RegionBounds::default(), |m| {
            Some(samples[ring.member(m).host.0 as usize])
        });
        let maintenance = index.maintenance_traffic();
        let tree = SomoTree::build(&ring, FANOUT);
        let (snap_msgs, snap_bytes) = snapshot_gather_cost(&tree, &ring);

        // Probe sessions: members drawn (deterministically) from the busy
        // majority; each discovers helpers both ways and plans a tree.
        let now = t0 + SimTime::from_secs(30);
        let stride = n / IDLE_HOSTS;
        let busy: Vec<HostId> = (0..n)
            .filter(|h| h % stride != 0)
            .map(|h| HostId(h as u32))
            .collect();
        let mut heights = Vec::new();
        let free3: Vec<u32> = samples.iter().map(|s| s.free[RANK]).collect();
        index.reset_query_traffic();
        let mut probe_stats = Vec::new();
        for probe in 0..PROBES {
            let mut rng = derive_rng2(seed, 0xB0B, probe as u64);
            let mut members: Vec<HostId> = Vec::with_capacity(MEMBER_SIZE);
            while members.len() < MEMBER_SIZE {
                let h = busy[rng.random_range(0..busy.len())];
                if !members.contains(&h) {
                    members.push(h);
                }
            }
            let root = members[0];

            let ans = index.top_k(SNAPSHOT_CAP, RANK, MIN_FREE, &members, Scope::Global);
            let from_query: Vec<HostId> = ans.hosts.iter().map(|s| s.host).collect();
            let from_snapshot = snapshot_candidates(&samples, &members);
            assert_eq!(
                from_query, from_snapshot,
                "query candidates diverged from the snapshot scan at N={n}"
            );
            assert!(
                ans.freshness.staleness(now) <= ans.freshness.bound,
                "observed staleness exceeded the promised bound at N={n}"
            );
            probe_stats.push(ans.stats);

            // Identical candidate lists MUST produce identical plans; run
            // both anyway and hard-assert the quality metrics agree.
            let member_set: std::collections::HashSet<HostId> = members.iter().copied().collect();
            let dbound = |h: HostId| {
                if member_set.contains(&h) {
                    6
                } else {
                    free3[h.0 as usize]
                }
            };
            let problem = Problem::new(root, members.clone(), &coords, dbound);
            let mut pool_q = HelperPool::new(from_query);
            pool_q.min_degree = MIN_FREE;
            pool_q.radius_ms = 300.0;
            let mut pool_s = pool_q.clone();
            pool_s.set_candidates(from_snapshot);
            let tree_q = critical(&problem, &pool_q);
            let tree_s = critical(&problem, &pool_s);
            assert_eq!(
                tree_q.max_height(),
                tree_s.max_height(),
                "tree heights diverged at N={n}"
            );
            let (vq, vs) = (violations(&tree_q, dbound), violations(&tree_s, dbound));
            assert_eq!(vq, vs, "degree violations diverged at N={n}");
            assert_eq!(vq, 0, "planner violated a degree bound at N={n}");
            heights.push(tree_q.max_height());
        }
        let query = index.query_traffic();
        let query_bytes_per_plan = query.bytes as f64 / PROBES as f64;
        let query_msgs_per_plan = query.messages as f64 / PROBES as f64;
        let pruned: u64 = probe_stats.iter().map(|s| s.subtrees_pruned).sum();
        let visited: u64 = probe_stats.iter().map(|s| s.nodes_visited).sum();

        println!(
            "{:>6} {:>6} {:>14} {:>14} {:>14.0} {:>10.1} {:>10.1}",
            n,
            tree.depth(),
            snap_bytes,
            maintenance.bytes,
            query_bytes_per_plan,
            query_msgs_per_plan,
            mean(&heights),
        );
        rows.push(json!({
            "n": n,
            "fanout": FANOUT,
            "tree_depth": tree.depth(),
            "idle_hosts": IDLE_HOSTS,
            "snapshot_messages_per_round": snap_msgs,
            "snapshot_bytes_per_round": snap_bytes,
            "maintenance_bytes_per_round": maintenance.bytes,
            "maintenance_messages_per_round": maintenance.messages,
            "query_bytes_per_plan": query_bytes_per_plan,
            "query_messages_per_plan": query_msgs_per_plan,
            "nodes_visited_total": visited,
            "subtrees_pruned_total": pruned,
            "freshness_bound_us": somo::flow::unsync_staleness_bound(n, FANOUT, PERIOD).as_micros(),
            "mean_tree_height_ms": mean(&heights),
            "degree_violations": 0,
            "candidate_sets_identical": true,
        }));
        scaling.push((n, snap_bytes, query_bytes_per_plan));
    }

    // The headline claim: snapshot rounds grow linearly with N while query
    // cost tracks the (fixed) idle set times the tree depth.
    let first = scaling[0];
    let last = scaling[scaling.len() - 1];
    let n_ratio = last.0 as f64 / first.0 as f64;
    let snap_ratio = last.1 as f64 / first.1 as f64;
    let query_ratio = last.2 / first.2;
    println!(
        "\nN grew {n_ratio:.0}x: snapshot bytes {snap_ratio:.1}x, query bytes {query_ratio:.1}x"
    );
    assert!(
        query_ratio < snap_ratio / 2.0,
        "query cost failed to scale sub-linearly vs the snapshot gather"
    );
    println!(
        "(expect: query bytes per plan stay near-flat — the idle set is fixed —\n while snapshot bytes per round grow with N; identical candidate lists ⇒ identical trees)"
    );
    dump_json(
        "ext_query",
        &json!({ "probes": PROBES, "member_size": MEMBER_SIZE, "rank": RANK, "min_free": MIN_FREE, "rows": rows }),
    );
}
