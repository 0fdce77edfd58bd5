//! `plan_scale_tiered`: large AMCast plans, one after another, through the
//! tiered oracle on a matrix-free pool (`RouterNet` + `HostSet`, never
//! `Network::generate`), so oracle *lookups* dominate and promotion is a
//! tenth.

use alm::{amcast, MulticastTree, Problem};
use coords::{GnpConfig, GnpSolver};
use netsim::hosts::HostSet;
use netsim::{HostId, LatencyModel, RouterNet, TransitStubConfig};
use oracle::{LandmarkSketch, TierStats, TieredConfig, TieredOracle};
use pool::task_manager::oracle_height;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simcore::rng::derive_seed;

use std::time::Instant;

use crate::spans::{in_span, Spans};
use crate::workload::{Digest, LayerMetric, Size, Verdict, Workload};

/// The 600-router transit–stub underlay is the same on every seed: it is
/// the fixed infrastructure (the paper's §5.2 network), and one AMCast's
/// relaxation count swings ±15 % from one random topology to the next —
/// three times what hosts, attachments and member sets drawn on a fixed
/// topology cause. Everything else comes from `--seed`.
pub const ROUTER_SEED: u64 = 2004;

pub struct PlanScale {
    /// What the inputs were built from (the traced run builds them again
    /// under spans).
    pub seed: u64,
    pub size: Size,
    pub routers: RouterNet,
    pub hosts: HostSet,
    pub oracle: TieredOracle,
    /// Disjoint member sets, one session each; a session's first member is
    /// its root.
    pub sessions: Vec<Vec<HostId>>,
}

pub struct PlanRun {
    /// One tree per session, in session order.
    pub trees: Vec<MulticastTree>,
    pub tiers: TierStats,
    pub relaxations: u64,
    pub resident_bytes: usize,
}

impl PlanScale {
    pub fn setup(seed: u64, size: Size) -> PlanScale {
        PlanScale::build(seed, size, None)
    }

    /// Build the inputs; the traced run passes `spans` to see the layers
    /// apart.
    pub fn build(seed: u64, size: Size, mut spans: Option<&mut Spans>) -> PlanScale {
        let (n, sessions, members) = match size {
            Size::Full => (32_768, 18, 1024),
            Size::Smoke => (256, 2, 32),
        };
        let (routers, hosts) = in_span(&mut spans, "netsim.generate", || {
            let routers = RouterNet::generate(&TransitStubConfig::default(), ROUTER_SEED);
            let hosts = HostSet::attach(&routers, n, (3.0, 8.0), derive_seed(seed, 2));
            (routers, hosts)
        });
        let tcfg = TieredConfig::default();
        let landmarks = LandmarkSketch::default_landmarks(n, tcfg.landmarks, derive_seed(seed, 3));
        let sketch = in_span(&mut spans, "oracle.build", || {
            LandmarkSketch::build(&routers, &hosts, &landmarks)
        });
        let gnp = in_span(&mut spans, "coords.gnp_fit", || {
            GnpSolver::new(GnpConfig::default()).solve_with_landmarks(
                &sketch.probes(),
                &landmarks,
                derive_seed(seed, 4),
            )
        });
        let oracle = in_span(&mut spans, "oracle.build", || {
            TieredOracle::new(&routers, &hosts, gnp, sketch, &tcfg)
        });
        let mut all: Vec<u32> = (0..n as u32).collect();
        all.shuffle(&mut rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 5)));
        PlanScale {
            seed,
            size,
            routers,
            hosts,
            oracle,
            sessions: all[..sessions * members]
                .chunks(members)
                .map(|set| set.iter().copied().map(HostId).collect())
                .collect(),
        }
    }

    /// An oracle whose hot tier holds every router row: after promoting the
    /// members every member pair answers with the exact router-graph
    /// distance, which is what the planned tree is judged under.
    fn exact_oracle(&self) -> TieredOracle {
        let exact = TieredOracle::new(
            &self.routers,
            &self.hosts,
            coords::CoordStore::zeros(self.hosts.len(), 2),
            LandmarkSketch::build(&self.routers, &self.hosts, &[]),
            &TieredConfig {
                hot_rows: self.routers.graph.len(),
                ..TieredConfig::default()
            },
        );
        for members in &self.sessions {
            exact.promote(members);
        }
        exact
    }

    /// Plan every session in turn on `oracle` the way a task manager does:
    /// promote the members, then run AMCast through a shared handle. The
    /// traced run passes `spans` to see the two steps apart.
    pub fn plan_all(&self, oracle: &TieredOracle, mut spans: Option<&mut Spans>) -> PlanRun {
        alm::metrics::reset_relaxations();
        let mut trees = Vec::new();
        for members in &self.sessions {
            in_span(&mut spans, "oracle.promote", || oracle.promote(members));
            let handle = oracle.share();
            let p = Problem::new(members[0], members.clone(), &handle, |h| {
                self.hosts.degree_bound(h)
            });
            trees.push(in_span(&mut spans, "alm.amcast", || amcast(&p)));
        }
        PlanRun {
            trees,
            tiers: oracle.stats(),
            relaxations: alm::metrics::relaxations(),
            resident_bytes: oracle.resident_bytes(),
        }
    }
}

impl Workload for PlanScale {
    type Fresh = TieredOracle;
    type Outcome = PlanRun;

    /// A deep clone: empty hot tier, zeroed counters.
    fn fresh(&self) -> TieredOracle {
        self.oracle.clone()
    }

    fn rep(&self, oracle: TieredOracle) -> PlanRun {
        self.plan_all(&oracle, None)
    }

    fn trace(
        &self,
        spans: &mut Spans,
        run_s: f64,
        deadline: Instant,
    ) -> (Self::Outcome, Vec<LayerMetric>) {
        crate::trace::plan_scale(self, spans, run_s, deadline)
    }

    fn judge(&self, run: &PlanRun) -> Verdict {
        let exact = self.exact_oracle();
        let mut violations = Vec::new();
        let (mut missing, mut over_bound, mut cost) = (0, 0, 0.0);
        let mut d = Digest::new();
        d.word(run.relaxations)
            .word(run.tiers.hot)
            .word(run.tiers.sketch)
            .word(run.tiers.base)
            .word(run.tiers.promotions)
            .word(run.tiers.evictions);
        for (members, tree) in self.sessions.iter().zip(&run.trees) {
            missing += members.iter().filter(|&&m| !tree.contains(m)).count() as u64;
            over_bound += tree
                .hosts()
                .iter()
                .filter(|&&h| tree.degree(h) > self.hosts.degree_bound(h))
                .count() as u64;
            if tree.len() != members.len() {
                violations.push(format!(
                    "members-only tree holds {} hosts for {} members",
                    tree.len(),
                    members.len()
                ));
            }
            // The unicast lower bound: no tree can reach the farthest
            // member sooner than the root's direct path to it.
            let unicast = members
                .iter()
                .map(|&m| exact.latency_ms(members[0], m))
                .fold(0.0, f64::max);
            cost += oracle_height(tree, &exact) / unicast;
            for &h in tree.hosts() {
                d.word(h.0 as u64)
                    .word(tree.parent_of(h).map_or(u64::MAX, |p| p.0 as u64))
                    .float(tree.height_of(h));
            }
        }
        if missing + over_bound > 0 {
            violations.push(format!(
                "{missing} members missing from their tree, {over_bound} hosts over their degree bound"
            ));
        }
        Verdict {
            sim_digest: d.finish(),
            ops: self.sessions.iter().map(|m| m.len() as u64).sum(),
            failed_ops: missing + over_bound,
            model_cost: cost / self.sessions.len() as f64,
            counters: vec![
                ("relaxations", run.relaxations),
                ("oracle_lookups", run.tiers.total()),
                ("promotions", run.tiers.promotions),
            ],
            violations,
        }
    }
}
