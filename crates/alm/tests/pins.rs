//! The planner, pinned against recorded constants.
//!
//! `incremental_equivalence.rs` compares the incremental engine with the
//! retained reference on the trees they return; nothing compares either
//! with *yesterday's* engine, and nothing covers what a plan cost or what
//! the tree's own surgery (`adjust`, the repair paths) does to child order.
//! Each cell below runs one session through the whole planning surface and
//! compares `(bytes digested, FNV-1a-64)` against a constant recorded at
//! 181c10f, before the engine's state and the tree's layout were rebuilt.
//!
//! One cell is: `amcast`, `critical` under both [`HelperStrategy`]s, each
//! followed by `adjust`; `try_staged_plan` with and without its adjustment
//! pass; `add_member`; `remove_member` of an interior node and of a leaf,
//! then `prune_idle_helpers`; `orphaned_subtree_roots` and
//! `reattach_orphans` with every fifth node crashed. After each step the
//! digest takes the tree — attachment order, every parent, every height's
//! bits, `bfs_order`, `children_of` every node — and the step's cost:
//! `alm::metrics::relaxations()`, `netsim::latency::latency_calls()`, a
//! running hash over the `(a, b)` of **every latency call in the order it
//! was made**. The one cell with an oracle pins its tier counters after
//! every step as a second, separate pair. An infeasible instance pins the
//! `None`s and what was spent finding them.
//!
//! **Re-pinning** follows `crates/testkit/src/lib.rs`: a change that moves a
//! plan or its cost *on purpose* runs the failing test, pastes the printed
//! left-hand pair over the constant and says so in CHANGES.md. A refactor
//! or an optimisation never re-pins.

use std::cell::Cell;

use alm::dynamic::{
    add_member, orphaned_subtree_roots, prune_idle_helpers, reattach_orphans, remove_member,
    ReattachConfig,
};
use alm::metrics::{relaxations, reset_relaxations};
use alm::{
    adjust, try_amcast, try_critical, try_staged_plan, HelperPool, HelperStrategy, MulticastTree,
    Problem,
};
use coords::leafset::LeafsetConfig;
use coords::{GnpConfig, GnpSolver, LeafsetCoords};
use dht::Ring;
use netsim::hosts::HostSet;
use netsim::latency::{latency_calls, reset_latency_calls, Counted};
use netsim::{HostId, LatencyModel, Network, NetworkConfig, RouterNet, TransitStubConfig};
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use testkit::Pin;

/// Everything observable about a tree.
fn feed_tree(pin: &mut Pin, label: &str, t: &MulticastTree) {
    pin.feed(&format!(
        "{label}: {} nodes, root {:?}, highest {:?}, max {:016x}\n",
        t.len(),
        t.root(),
        t.highest(),
        t.max_height().to_bits()
    ));
    for &h in t.hosts() {
        pin.feed(&format!(
            "{h:?} parent {:?} height {:016x} degree {} children {:?}\n",
            t.parent_of(h),
            t.height_of(h).to_bits(),
            t.degree(h),
            t.children_of(h)
        ));
        assert_eq!(t.child_count(h), t.children_of(h).len());
    }
    pin.feed(&format!("bfs {:?}\n", t.bfs_order()));
}

/// Counts every call (through [`Counted`]) and folds its arguments, in call
/// order, into a running FNV-1a-64.
struct Seq<L> {
    inner: Counted<L>,
    order: Cell<Pin>,
}

impl<L: LatencyModel> Seq<L> {
    fn new(inner: L) -> Seq<L> {
        Seq {
            inner: Counted(inner),
            order: Cell::new(Pin::new()),
        }
    }
}

impl<L: LatencyModel> LatencyModel for Seq<L> {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        let mut order = self.order.get();
        order.step(u64::from(a.0));
        order.step(u64::from(b.0));
        self.order.set(order);
        self.inner.latency_ms(a, b)
    }

    fn num_hosts(&self) -> usize {
        self.inner.num_hosts()
    }
}

/// Unstructured pseudo-random symmetric latencies in 1..201 ms — the
/// adversarial model of `incremental_equivalence.rs`.
struct HashLatency {
    n: usize,
    seed: u64,
}

impl LatencyModel for HashLatency {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a.0, b.0) } else { (b.0, a.0) };
        let x = simcore::rng::mix64(self.seed ^ ((u64::from(lo) << 32) | u64::from(hi)));
        1.0 + (x % 2000) as f64 / 10.0
    }
    fn num_hosts(&self) -> usize {
        self.n
    }
}

/// Every pair 10 ms apart: every comparison in the engine is a tie.
struct Uniform(usize);

impl LatencyModel for Uniform {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            0.0
        } else {
            10.0
        }
    }
    fn num_hosts(&self) -> usize {
        self.0
    }
}

/// Deterministic pseudo-random degree in 2..=9 (the paper's range).
fn degree_of(seed: u64, h: HostId) -> u32 {
    (simcore::rng::mix64(seed ^ u64::from(h.0)) % 8) as u32 + 2
}

fn ids(range: impl IntoIterator<Item = u32>) -> Vec<HostId> {
    range.into_iter().map(HostId).collect()
}

/// `count` distinct hosts out of `n`, in shuffled order.
fn draw(n: usize, count: usize, seed: u64) -> Vec<HostId> {
    let mut all: Vec<u32> = (0..n as u32).collect();
    all.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    ids(all[..count].iter().copied())
}

/// One session's inputs. `measure` answers the planner; `estimate` is what
/// the staged plan shortlists helpers with; `extra` runs after every step
/// and its output joins the step's cost line.
struct Session<'a, M, E, D> {
    measure: &'a Seq<M>,
    estimate: &'a Seq<E>,
    members: Vec<HostId>,
    dbound: D,
    pool: HelperPool,
    /// The O(n²)-per-pass steps (`adjust`, the staged plan's adjustment)
    /// are skipped on the one large cell.
    deep: bool,
    extra: &'a dyn Fn() -> String,
}

impl<M: LatencyModel, E: LatencyModel, D: Fn(HostId) -> u32> Session<'_, M, E, D> {
    fn begin(&self) {
        reset_relaxations();
        reset_latency_calls();
    }

    /// What the step since `begin` cost.
    fn cost(&self, pin: &mut Pin, label: &str) {
        pin.feed(&format!(
            "{label}: relaxations {} latency calls {} order {:016x} / {:016x} {}\n",
            relaxations(),
            latency_calls(),
            self.measure.order.get().hash,
            self.estimate.order.get().hash,
            (self.extra)()
        ));
    }

    /// Plan (or fail to), then adjust.
    fn planned(
        &self,
        pin: &mut Pin,
        label: &str,
        p: &Problem<'_, Seq<M>, &D>,
        plan: impl FnOnce() -> Option<MulticastTree>,
    ) -> Option<MulticastTree> {
        self.begin();
        let tree = plan();
        self.cost(pin, label);
        let Some(tree) = tree else {
            pin.feed(&format!("{label}: infeasible\n"));
            return None;
        };
        feed_tree(pin, label, &tree);
        if self.deep {
            let mut adjusted = tree.clone();
            self.begin();
            let moves = adjust(p, &mut adjusted);
            self.cost(pin, "adjust");
            feed_tree(pin, &format!("{label} + {moves} moves"), &adjusted);
        }
        Some(tree)
    }

    fn run(&self) -> (usize, u64) {
        let mut pin = Pin::new();
        let root = self.members[0];
        let p = Problem::new(root, self.members.clone(), self.measure, &self.dbound);

        self.planned(&mut pin, "amcast", &p, || try_amcast(&p));
        let mut pool = self.pool.clone();
        let critical = self.planned(&mut pin, "critical min-max", &p, || try_critical(&p, &pool));
        pool.strategy = HelperStrategy::Closest;
        self.planned(&mut pin, "critical closest", &p, || try_critical(&p, &pool));

        for use_adjust in [false, true] {
            if use_adjust && !self.deep {
                continue;
            }
            self.begin();
            let staged = try_staged_plan(
                root,
                &self.members,
                self.measure,
                self.estimate,
                &self.dbound,
                &self.pool,
                use_adjust,
            );
            self.cost(&mut pin, "staged");
            match staged {
                Some(t) => feed_tree(&mut pin, &format!("staged, adjust {use_adjust}"), &t),
                None => pin.feed("staged: infeasible\n"),
            }
        }

        let Some(tree) = critical else {
            return pin.pair();
        };

        // A late joiner: the first host outside the tree.
        let joiner = (0..self.measure.num_hosts() as u32)
            .map(HostId)
            .find(|&h| !tree.contains(h) && (self.dbound)(h) >= 1);
        if let Some(v) = joiner {
            let mut joined = tree.clone();
            self.begin();
            let r = add_member(&p, &mut joined, v);
            self.cost(&mut pin, "add_member");
            feed_tree(&mut pin, &format!("joined {v:?}: {r:?}"), &joined);
        }

        // Graceful leaves: the first interior node, then the last leaf.
        let interior = tree.hosts()[1..]
            .iter()
            .copied()
            .find(|&h| tree.child_count(h) > 0);
        let leaf = tree
            .hosts()
            .iter()
            .copied()
            .rev()
            .find(|&h| tree.child_count(h) == 0);
        for v in [interior, leaf].into_iter().flatten() {
            self.begin();
            let left = remove_member(&p, &tree, v);
            self.cost(&mut pin, "remove_member");
            match left {
                Ok(mut t) => {
                    feed_tree(&mut pin, &format!("left {v:?}"), &t);
                    let survivors: Vec<HostId> =
                        self.members.iter().copied().filter(|&m| m != v).collect();
                    self.begin();
                    let pruned = prune_idle_helpers(&p, &mut t, &survivors);
                    self.cost(&mut pin, "prune_idle_helpers");
                    feed_tree(&mut pin, &format!("pruned {pruned:?}"), &t);
                }
                Err(e) => pin.feed(&format!("left {v:?}: {e:?}\n")),
            }
        }

        // A crash: every fifth node at once.
        let dead: Vec<HostId> = tree.hosts()[1..].iter().copied().step_by(5).collect();
        pin.feed(&format!(
            "dead {dead:?} orphans {:?}\n",
            orphaned_subtree_roots(&tree, &dead)
        ));
        self.begin();
        let (repaired, report) = reattach_orphans(&p, &tree, &dead, &ReattachConfig::default());
        self.cost(&mut pin, "reattach_orphans");
        feed_tree(&mut pin, &format!("repaired {report:?}"), &repaired);

        pin.pair()
    }
}

fn no_extra() -> String {
    String::new()
}

/// The exact kernel on the paper's topology and degree distribution;
/// leafset coordinates shortlist the staged plan's helpers.
fn exact_kernel() -> (usize, u64) {
    let net = Network::generate(
        &NetworkConfig {
            num_hosts: 400,
            ..NetworkConfig::default()
        },
        0xA1,
    );
    let ring = Ring::with_random_ids((0..400u32).map(HostId), 0xA2);
    let coords = LeafsetCoords::new(LeafsetConfig {
        leafset_size: 32,
        rounds: 8,
        ..Default::default()
    })
    .run(&net.latency, &ring, 0xA3);
    Session {
        measure: &Seq::new(&net.latency),
        estimate: &Seq::new(&coords),
        members: draw(400, 48, 0xA4),
        dbound: |h| net.hosts.degree_bound(h),
        pool: HelperPool::new(net.hosts.ids().collect()),
        deep: true,
        extra: &no_extra,
    }
    .run()
}

/// A matrix-free pool behind the tiered oracle, its hot tier smaller than
/// the session (the 64 members span more routers than its 24 rows): answers
/// come from all three tiers. Pinned in two halves: the trees and what each
/// step cost, and the oracle's [`TierStats`](oracle::TierStats) after every
/// step. A change to how the hot tier fills its rows, and so to what
/// `promotions` / `evictions` count, re-pins the second half alone; the
/// first half staying green shows that no plan and no answer moved.
fn tiered_oracle() -> ((usize, u64), (usize, u64)) {
    const N: usize = 1024;
    let routers = RouterNet::generate(&TransitStubConfig::default(), 0xB1);
    let hosts = HostSet::attach(&routers, N, (3.0, 8.0), 0xB2);
    let cfg = TieredConfig {
        hot_rows: 24,
        ..TieredConfig::default()
    };
    let landmarks = LandmarkSketch::default_landmarks(N, cfg.landmarks, 0xB3);
    let sketch = LandmarkSketch::build(&routers, &hosts, &landmarks);
    let gnp = GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
        &sketch.probes(),
        &landmarks,
        0xB4,
    );
    let oracle = TieredOracle::new(&routers, &hosts, gnp.clone(), sketch, &cfg);
    let members = draw(N, 64, 0xB5);
    oracle.promote(&members);
    let tiers = Cell::new(Pin::new());
    let record_tiers = || {
        let mut pin = tiers.get();
        pin.feed(&format!("{:?}\n", oracle.stats()));
        tiers.set(pin);
        String::new()
    };
    let trees = Session {
        measure: &Seq::new(oracle.share()),
        estimate: &Seq::new(&gnp),
        members,
        dbound: |h| hosts.degree_bound(h),
        pool: HelperPool::new(hosts.ids().collect()),
        deep: true,
        extra: &record_tiers,
    }
    .run();
    (trees, tiers.get().pair())
}

fn tiered_oracle_trees() -> (usize, u64) {
    tiered_oracle().0
}

fn tiered_oracle_tier_stats() -> (usize, u64) {
    tiered_oracle().1
}

/// The adversarial model, a second one as the (useless) estimate.
fn hash_cell(
    n: usize,
    members: Vec<HostId>,
    dbound: impl Fn(HostId) -> u32,
    pool: HelperPool,
    deep: bool,
) -> (usize, u64) {
    Session {
        measure: &Seq::new(HashLatency { n, seed: 0xC1 }),
        estimate: &Seq::new(HashLatency { n, seed: 0xC2 }),
        members,
        dbound,
        pool,
        deep,
        extra: &no_extra,
    }
    .run()
}

fn hash_paper_degrees() -> (usize, u64) {
    hash_cell(
        300,
        ids(0..120),
        |h| degree_of(0xC3, h),
        HelperPool::new(ids(0..300)),
        true,
    )
}

/// Degree 2 everywhere: every parent fills after one child, so every
/// attach recomputes; helpers are admitted at degree 2 and fill at once.
fn hash_degree_two() -> (usize, u64) {
    let mut pool = HelperPool::new(ids(0..160));
    pool.min_degree = 2;
    pool.radius_ms = 150.0;
    hash_cell(160, ids(0..70), |_| 2, pool, true)
}

/// The member set in descending id order; the root has the highest id.
fn hash_descending_members() -> (usize, u64) {
    hash_cell(
        200,
        ids((40..120).rev()),
        |h| degree_of(0xC4, h),
        HelperPool::new(ids((0..200).step_by(3))),
        true,
    )
}

/// Three candidates only: one above every member's id, one at
/// `num_hosts() - 1` and one past the range the model reports. All three
/// must end up in the tree.
fn hash_helpers_at_the_edge() -> (usize, u64) {
    let edge = ids([150, 199, 260]);
    let mut pool = HelperPool::new(edge.clone());
    pool.radius_ms = 250.0;
    let dbound = |h: HostId| if h.0 >= 150 { 8 } else { 3 };
    let lat = HashLatency { n: 200, seed: 0xC1 };
    let p = Problem::new(HostId(0), ids(0..50), &lat, dbound);
    let t = try_critical(&p, &pool).expect("feasible");
    assert!(edge.iter().all(|&h| t.contains(h)));
    hash_cell(200, ids(0..50), dbound, pool, true)
}

/// 1 024 members: thousands of superseded selection entries and by-parent
/// filings per plan.
fn hash_1024_members() -> (usize, u64) {
    hash_cell(
        1200,
        ids(0..1024),
        |h| degree_of(0xC5, h),
        HelperPool::new(ids(1024..1200)),
        false,
    )
}

/// Every latency equal: `(height, id)` carries every decision.
fn uniform_ties() -> (usize, u64) {
    Session {
        measure: &Seq::new(Uniform(64)),
        estimate: &Seq::new(Uniform(64)),
        members: ids(0..40),
        dbound: |h: HostId| if h.0 >= 40 { 6 } else { 3 },
        pool: HelperPool::new(ids(40..64)),
        deep: true,
        extra: &no_extra,
    }
    .run()
}

/// Ten child slots for thirteen nodes: the root and two members forward,
/// nine members are leaves by their bound, and the pool's two helpers are
/// recruited and still do not make room. The `None`s are pinned, and so is
/// what finding them cost.
fn infeasible() -> (usize, u64) {
    let members = ids(0..12);
    let dbound = |h: HostId| match h.0 {
        0..=2 => 2,
        3..=11 => 1,
        _ => 4,
    };
    let mut pool = HelperPool::new(ids(12..14));
    pool.radius_ms = 250.0;
    let lat = HashLatency { n: 32, seed: 0xC1 };
    let p = Problem::new(HostId(0), members.clone(), &lat, dbound);
    assert!(try_amcast(&p).is_none());
    assert!(try_critical(&p, &pool).is_none());
    assert!(try_staged_plan(HostId(0), &members, &lat, &lat, dbound, &pool, true).is_none());
    hash_cell(32, members, dbound, pool, true)
}

macro_rules! pins {
    ($($test:ident: $cell:ident => $pin:expr;)*) => {$(
        #[test]
        fn $test() {
            assert_eq!($cell(), $pin);
        }
    )*};
}

pins! {
    exact_kernel_paper_degrees: exact_kernel => (86775, 12117682980964101359);
    tiered_oracle_evicting_hot_tier_trees: tiered_oracle_trees => (125380, 5142042568604321688);
    tiered_oracle_evicting_hot_tier_tier_stats: tiered_oracle_tier_stats => (1187, 10237238468774853950);
    adversarial_paper_degrees: hash_paper_degrees => (198142, 2485912790521313126);
    adversarial_degree_two_everywhere: hash_degree_two => (175347, 15523982641516839402);
    adversarial_descending_member_order: hash_descending_members => (126867, 11828273902125941466);
    adversarial_helpers_at_the_edge_of_the_id_range: hash_helpers_at_the_edge => (76461, 12524499493440783699);
    adversarial_1024_members: hash_1024_members => (1206209, 7544018065454389115);
    uniform_latency_every_comparison_a_tie: uniform_ties => (76331, 7681534316540765792);
    infeasible_instance: infeasible => (545, 12057998210535178821);
}
