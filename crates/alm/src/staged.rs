//! The practical *Leafset* planning loop: estimate → contact → replan.
//!
//! Coordinates exist to judge the *vicinity* of the huge helper-candidate
//! list from SOMO (§4: pinging the whole list "is both time-consuming and
//! error-prone"). They are a shortlisting device, not a substitute for
//! measurement: once the plan is drawn "the task manager goes out to
//! contact the helping peers to reserve their usages" (§5) — and contacting
//! a peer yields its true latency for free.
//!
//! [`staged_plan`] implements that loop:
//!
//! 1. **Shortlist** — run the critical-node algorithm with estimated
//!    latencies for candidates (members measure each other directly). The
//!    search radius is widened by a tolerance factor so genuinely close
//!    helpers that the embedding pushed slightly out are not lost.
//! 2. **Contact & measure** — the helpers the draft plan recruited get
//!    pinged; their true latencies replace the estimates.
//! 3. **Replan** — the critical-node algorithm runs again with the
//!    shortlist as the candidate pool and measured latencies throughout,
//!    followed by the adjustment pass.
//!
//! Coordinate error can only cost *shortlist quality* — an over-estimated
//! helper never enters the draft, an under-estimated one is exposed and
//! dropped at replan — it can no longer put a phantom 300 ms edge on the
//! critical path.

use netsim::latency::MeasuredSetLatency;
use netsim::{HostId, LatencyModel};

use crate::adjust::adjust;
use crate::critical::{helpers_used, try_critical, HelperPool};
use crate::problem::Problem;
use crate::tree::MulticastTree;

/// Stage-1 radius widening: how much coordinate error the shortlist
/// tolerates before a near helper is lost.
const SHORTLIST_RADIUS_FACTOR: f64 = 1.5;

/// Plan a session with the estimate → contact → replan loop.
///
/// * `measure` answers actual latency probes (members ping each other and
///   any contacted helper);
/// * `estimate` is the coordinate store used for everyone else;
/// * `pool` carries the candidate list and the helper constraints
///   (degree ≥ 4, radius R).
///
/// # Panics
/// If the degree bounds cannot host a spanning tree in either stage;
/// [`try_staged_plan`] returns `None` instead.
pub fn staged_plan<M, E, D>(
    root: HostId,
    members: &[HostId],
    measure: &M,
    estimate: &E,
    dbound: D,
    pool: &HelperPool,
    use_adjust: bool,
) -> MulticastTree
where
    M: LatencyModel,
    E: LatencyModel,
    D: Fn(HostId) -> u32,
{
    try_staged_plan(root, members, measure, estimate, dbound, pool, use_adjust)
        .expect("tree out of capacity for remaining members")
}

/// [`staged_plan`], but `None` instead of a panic when the degree bounds
/// cannot host a spanning tree in either stage — for planning under a
/// restricted availability view (e.g. a multipath session budgeting member
/// degrees for its standby trees), where infeasibility is an expected
/// outcome the caller absorbs.
pub fn try_staged_plan<M, E, D>(
    root: HostId,
    members: &[HostId],
    measure: &M,
    estimate: &E,
    dbound: D,
    pool: &HelperPool,
    use_adjust: bool,
) -> Option<MulticastTree>
where
    M: LatencyModel,
    E: LatencyModel,
    D: Fn(HostId) -> u32,
{
    // Stage 1: draft plan on estimates, wider radius.
    let hybrid1 = MeasuredSetLatency::new(members.iter().copied(), measure, estimate);
    let p1 = Problem::new(root, members.to_vec(), &hybrid1, &dbound);
    let mut pool1 = pool.clone();
    pool1.radius_ms = pool.radius_ms * SHORTLIST_RADIUS_FACTOR;
    let draft = try_critical(&p1, &pool1)?;
    let shortlist = helpers_used(&draft, members);

    // Stage 2: contact the shortlisted helpers — their latencies become
    // measured — and replan against the shortlist only.
    let measured: Vec<HostId> = members
        .iter()
        .copied()
        .chain(shortlist.iter().copied())
        .collect();
    let hybrid2 = MeasuredSetLatency::new(measured, measure, estimate);
    let p2 = Problem::new(root, members.to_vec(), &hybrid2, &dbound);
    let mut pool2 = pool.clone();
    pool2.set_candidates(shortlist);
    let mut tree = try_critical(&p2, &pool2)?;
    if use_adjust {
        adjust(&p2, &mut tree);
    }
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amcast::amcast;
    use crate::problem::improvement;
    use coords::leafset::LeafsetConfig;
    use coords::LeafsetCoords;
    use dht::Ring;
    use netsim::{Network, NetworkConfig};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn setup() -> (Network, coords::CoordStore) {
        let net = Network::generate(
            &NetworkConfig {
                num_hosts: 400,
                ..NetworkConfig::default()
            },
            77,
        );
        let ring = Ring::with_random_ids((0..400u32).map(HostId), 78);
        let coords = LeafsetCoords::new(LeafsetConfig {
            leafset_size: 32,
            rounds: 8,
            ..Default::default()
        })
        .run(&net.latency, &ring, 79);
        (net, coords)
    }

    fn session(net: &Network, size: usize, seed: u64) -> Vec<HostId> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..net.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        all[..size].iter().copied().map(HostId).collect()
    }

    #[test]
    fn staged_plan_is_valid_and_spans_members() {
        let (net, coords) = setup();
        let members = session(&net, 25, 1);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let pool = HelperPool::new(net.hosts.ids().collect());
        let t = staged_plan(
            members[0],
            &members,
            &net.latency,
            &coords,
            dbound,
            &pool,
            true,
        );
        t.validate(&net.latency, dbound).unwrap();
        for &m in &members {
            assert!(t.contains(m));
        }
    }

    #[test]
    fn staged_plan_beats_baseline_despite_coordinate_error() {
        // The point of the staged loop: even with a heavy-tailed embedding,
        // helpers are verified on contact, so the plan stays clearly
        // positive on average.
        let (net, coords) = setup();
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let pool = HelperPool::new(net.hosts.ids().collect());
        let mut total = 0.0;
        let runs = 8;
        for s in 0..runs {
            let members = session(&net, 20, 10 + s);
            let p = Problem::new(members[0], members.clone(), &net.latency, dbound);
            let base = amcast(&p).max_height();
            let t = staged_plan(
                members[0],
                &members,
                &net.latency,
                &coords,
                dbound,
                &pool,
                true,
            );
            let mut eval = t.clone();
            eval.recompute_heights(&net.latency);
            total += improvement(base, eval.max_height());
        }
        let avg = total / runs as f64;
        assert!(avg > 0.05, "staged Leafset average improvement {avg}");
    }

    #[test]
    fn staged_plan_with_empty_pool_is_members_only() {
        let (net, coords) = setup();
        let members = session(&net, 15, 3);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let pool = HelperPool::new(vec![]);
        let t = staged_plan(
            members[0],
            &members,
            &net.latency,
            &coords,
            dbound,
            &pool,
            false,
        );
        assert_eq!(t.len(), members.len());
    }
}
