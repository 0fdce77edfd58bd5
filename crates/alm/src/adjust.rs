//! Tree adjustment: the paper's post-pass of heuristic moves.
//!
//! Footnote 2 of §5.2: "adjust the tree with a set of heuristic moves:
//! (a) find a new parent for the highest node; (b) swap the highest node
//! with another leaf node; (c) swap the sub-tree whose root is the parent
//! of the highest node with another sub-tree."
//!
//! Each iteration evaluates all three move families against the current
//! highest node and applies the single best height-reducing move; the loop
//! stops when no move improves the tree (or after a safety cap). On its own
//! the pass buys ~5% over AMCast; combined with coordinate-estimated
//! planning (*Leafset*) it is "remarkably effective" because it repairs the
//! errors the embedding introduced.

use netsim::{HostId, LatencyModel};

use crate::problem::Problem;
use crate::tree::MulticastTree;

/// Hard cap on adjustment iterations (each strictly improves the height, so
/// this only guards against degenerate float plateaus).
const MAX_PASSES: usize = 200;

/// Minimum height gain (ms) for a move to count as an improvement.
const EPS: f64 = 1e-6;

/// Apply adjustment moves to `tree` until none improves its height.
/// Returns the number of moves applied.
pub fn adjust<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &mut MulticastTree,
) -> usize {
    let mut applied = 0;
    for _ in 0..MAX_PASSES {
        if !improve_once(p, tree) {
            break;
        }
        applied += 1;
    }
    applied
}

/// Evaluate all three move families; apply the best improving one. Returns
/// whether a move was applied. One iteration of [`adjust`]'s loop.
fn improve_once<L: LatencyModel, D: Fn(HostId) -> u32>(
    p: &Problem<L, D>,
    tree: &mut MulticastTree,
) -> bool {
    let before = tree.max_height();
    if tree.len() < 3 || before <= 0.0 {
        return false;
    }
    let v = tree.highest(); // always a leaf: heights grow along edges

    // (a) Re-parent the highest node: best new parent with free capacity.
    let mut best_a: Option<(f64, HostId)> = None;
    for &w in tree.hosts() {
        if w == v || Some(w) == tree.parent_of(v) || p.free_child_slots(tree, w) == 0 {
            continue;
        }
        let nh = tree.height_of(w) + p.latency.latency_ms(w, v);
        if nh < before - EPS && best_a.is_none_or(|(bh, _)| nh < bh) {
            best_a = Some((nh, w));
        }
    }

    // (b) Swap the highest node with another leaf.
    let mut best_b: Option<(f64, HostId)> = None;
    let pv = tree.parent_of(v).expect("highest is not the root here");
    for &u in tree.hosts() {
        if u == v || u == pv || tree.child_count(u) > 0 {
            continue;
        }
        let pu = tree.parent_of(u).expect("leaf has a parent");
        if pu == v {
            continue;
        }
        let nv = tree.height_of(pu) + p.latency.latency_ms(pu, v);
        let nu = tree.height_of(pv) + p.latency.latency_ms(pv, u);
        let worst = nv.max(nu);
        if worst < before - EPS && best_b.is_none_or(|(bh, _)| worst < bh) {
            best_b = Some((worst, u));
        }
    }

    // (c) Swap the subtree rooted at the highest node's parent with another
    // subtree. Evaluated by performing the swap and measuring; reverted if
    // it does not win the comparison below.
    let mut best_c: Option<(f64, HostId)> = None;
    if tree.parent_of(pv).is_some() {
        let candidates: Vec<HostId> = tree
            .hosts()
            .iter()
            .copied()
            .filter(|&q| {
                q != pv
                    && tree.parent_of(q).is_some()
                    && tree.parent_of(q) != Some(pv)
                    && tree.parent_of(pv) != Some(q)
                    && !tree.is_ancestor(q, pv)
                    && !tree.is_ancestor(pv, q)
            })
            .collect();
        for q in candidates {
            tree.swap_nodes(pv, q, p.latency);
            let h = tree.max_height();
            tree.swap_nodes(pv, q, p.latency); // revert
            if h < before - EPS && best_c.is_none_or(|(bh, _)| h < bh) {
                best_c = Some((h, q));
            }
        }
    }

    // Apply the best of the three. `total_cmp` orders the candidate
    // heights: well-defined instead of panicking if a poisoned latency
    // model ever leaks a NaN through.
    let pick = [
        best_a.map(|(h, w)| (h, 0u8, w)),
        best_b.map(|(h, u)| (h, 1u8, u)),
        best_c.map(|(h, q)| (h, 2u8, q)),
    ]
    .into_iter()
    .flatten()
    .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    match pick {
        None => false,
        Some((_, 0, w)) => {
            tree.move_node(v, w, p.latency);
            true
        }
        Some((_, 1, u)) => {
            tree.swap_nodes(v, u, p.latency);
            true
        }
        Some((_, _, q)) => {
            tree.swap_nodes(pv, q, p.latency);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amcast::amcast;
    use netsim::{Network, NetworkConfig};

    fn net(seed: u64) -> Network {
        Network::generate(
            &NetworkConfig {
                num_hosts: 600,
                ..NetworkConfig::default()
            },
            seed,
        )
    }

    fn session(net: &Network, size: usize, seed: u64) -> Vec<HostId> {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut all: Vec<u32> = (0..net.num_hosts() as u32).collect();
        all.shuffle(&mut rng);
        all[..size].iter().copied().map(HostId).collect()
    }

    #[test]
    fn adjust_never_increases_height_and_keeps_validity() {
        let net = net(11);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        for s in 0..5 {
            let members = session(&net, 30, s);
            let p = Problem::new(members[0], members, &net.latency, dbound);
            let mut t = amcast(&p);
            let before = t.max_height();
            adjust(&p, &mut t);
            assert!(t.max_height() <= before + 1e-9);
            t.validate(&net.latency, dbound).unwrap();
        }
    }

    #[test]
    fn adjust_improves_on_average() {
        let net = net(12);
        let dbound = |h: HostId| net.hosts.degree_bound(h);
        let mut improved = 0;
        let runs = 10;
        for s in 0..runs {
            let members = session(&net, 40, 50 + s);
            let p = Problem::new(members[0], members, &net.latency, dbound);
            let mut t = amcast(&p);
            let before = t.max_height();
            let moves = adjust(&p, &mut t);
            if t.max_height() < before - 1e-9 {
                improved += 1;
                assert!(moves > 0);
            }
        }
        assert!(
            improved >= runs / 2,
            "adjust improved only {improved}/{runs} trees"
        );
    }

    #[test]
    fn adjust_on_tiny_trees_is_a_noop() {
        struct Uniform;
        impl LatencyModel for Uniform {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == b {
                    0.0
                } else {
                    10.0
                }
            }
            fn num_hosts(&self) -> usize {
                5
            }
        }
        let p = Problem::new(HostId(0), vec![HostId(1)], &Uniform, |_| 4);
        let mut t = amcast(&p);
        assert_eq!(adjust(&p, &mut t), 0);
    }

    #[test]
    fn adjust_terminates_on_uniform_latency() {
        // Uniform latencies give endless equal-height plateaus; the EPS
        // guard must prevent cycling.
        struct Uniform;
        impl LatencyModel for Uniform {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == b {
                    0.0
                } else {
                    10.0
                }
            }
            fn num_hosts(&self) -> usize {
                50
            }
        }
        let members: Vec<HostId> = (0..30).map(HostId).collect();
        let p = Problem::new(HostId(0), members, &Uniform, |_| 3);
        let mut t = amcast(&p);
        let moves = adjust(&p, &mut t);
        assert!(moves < MAX_PASSES);
        t.validate(&Uniform, |_| 3).unwrap();
    }
}
