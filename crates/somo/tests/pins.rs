//! The gather flow and the tree's geometry, pinned against recorded
//! constants (the geometry cells are at the end of the file).
//!
//! The other `GatherSim` determinism checks (`tests/determinism.rs`,
//! `tests/trace_determinism.rs`) are run-vs-run: they cannot see a change
//! that moves both runs together. Each cell below runs one ring-traced
//! gather through a mid-round crash (and, in half the cells, a restart) and
//! compares `(bytes digested, FNV-1a-64)` — over the JSON-lines trace,
//! every root view (`at`, `members`, `oldest`), the message and drop
//! counts, the pending-event count and the round accounting in `stats()`
//! — against a constant recorded at 291cf64, before the gather's per-node
//! state was rebuilt.
//!
//! The report is [`FreshnessReport`] on purpose: its merge is integer-only
//! (a sum and a minimum), so the constants do not depend on the order an
//! unsynchronised node folds its children in. That order and floating-point
//! reports are `unsync_merge_order.rs`'s subject.
//!
//! **Re-pinning** follows `crates/testkit/src/lib.rs`: a change that moves the
//! gather *on purpose* runs the failing test, pastes the printed left-hand
//! pair over the constant and says so in CHANGES.md. A refactor or an
//! optimisation never re-pins.

use dht::Ring;
use netsim::HostId;
use simcore::trace::to_json_lines;
use simcore::{FaultPlan, SimTime, Tracer};
use somo::flow::{FlowMode, FreshnessReport, GatherSim, GatherStats};
use somo::SomoTree;
use testkit::Pin;

const N: u32 = 160;
const PERIOD: SimTime = SimTime::from_secs(5);

/// Run to `at` and digest everything observable since the last call.
fn observe<L, D>(
    sim: &mut GatherSim<FreshnessReport, L, D>,
    pin: &mut Pin,
    views_seen: &mut usize,
    at: SimTime,
) where
    L: FnMut(usize, SimTime) -> FreshnessReport,
    D: Fn(usize, usize) -> SimTime,
{
    sim.run_until(at);
    pin.feed(&to_json_lines(
        &sim.take_trace().expect("ring tracer owns its records"),
    ));
    for v in &sim.views()[*views_seen..] {
        pin.feed(&format!(
            "{} {} {}\n",
            v.at.as_micros(),
            v.view.members,
            v.view.oldest.as_micros()
        ));
    }
    *views_seen = sim.views().len();
    pin.feed(&format!(
        "t={} sent={} dropped={} pending={}\n{}",
        at.as_micros(),
        sim.messages_sent(),
        sim.messages_dropped(),
        sim.pending_events(),
        stats_lines(sim.stats())
    ));
}

/// The round accounting in the text the constants were recorded over: one
/// `{"kind":"counter","name":"gather.<field>","value":N}` line per counter,
/// in name order, with zero counters left out.
fn stats_lines(s: GatherStats) -> String {
    [
        ("partials_deduped", s.partials_deduped),
        ("rounds_completed", s.rounds_completed),
        ("rounds_timeout", s.rounds_timeout),
        ("timeouts_suppressed", s.timeouts_suppressed),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .map(|(name, n)| format!("{{\"kind\":\"counter\",\"name\":\"gather.{name}\",\"value\":{n}}}\n"))
    .collect()
}

/// One cell. `child_timeout` overrides the synchronized round timeout
/// (`None` keeps the default of one period; 12 s keeps three rounds open
/// at a node at once).
fn cell(
    mode: FlowMode,
    lossy: bool,
    revive: bool,
    fanout: usize,
    child_timeout: Option<SimTime>,
) -> (usize, u64) {
    let ring = Ring::with_random_ids((0..N).map(HostId), 13);
    let tree = SomoTree::build(&ring, fanout);
    let plan = if lossy {
        FaultPlan::with_loss(11, 0.05).jitter(SimTime::from_millis(20))
    } else {
        FaultPlan::none()
    };
    let mut sim = GatherSim::with_faults(
        &tree,
        &ring,
        mode,
        PERIOD,
        |_m, now| FreshnessReport::of_member(now),
        // Member-dependent latencies, so partials interleave.
        |a, b| {
            if a == b {
                SimTime::ZERO
            } else {
                SimTime::from_millis(50 + (a as u64 * 31 + b as u64 * 17) % 200)
            }
        },
        plan,
    );
    if let Some(t) = child_timeout {
        sim.set_child_timeout(t);
    }
    sim.set_tracer(Tracer::ring(1 << 20));
    let mut pin = Pin::new();
    let mut views_seen = 0;

    // The host of a remote root child (an internal node high in the tree),
    // the host of a node from the middle of the tree, and member 5.
    let root_host = tree.root().host();
    let high = tree
        .root()
        .children()
        .map(|c| tree.nodes()[c as usize].host())
        .find(|&h| h != root_host)
        .expect("a remote root child");
    let victims = [high, tree.nodes()[tree.len() / 2].host(), 5];

    // 12.3 s: the round that opened at 10 s is in flight.
    observe(
        &mut sim,
        &mut pin,
        &mut views_seen,
        SimTime::from_millis(12_300),
    );
    for &v in &victims {
        sim.kill_member(v);
    }
    observe(
        &mut sim,
        &mut pin,
        &mut views_seen,
        SimTime::from_millis(62_100),
    );
    if revive {
        sim.revive_member(victims[0]);
        sim.revive_member(victims[2]);
    }
    observe(&mut sim, &mut pin, &mut views_seen, SimTime::from_secs(130));
    pin.pair()
}

macro_rules! pins {
    ($($name:ident: $mode:ident, $lossy:expr, $revive:expr, $k:expr, $timeout:expr => $pin:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(cell(FlowMode::$mode, $lossy, $revive, $k, $timeout), $pin);
        }
    )*};
}

const LONG: Option<SimTime> = Some(SimTime::from_secs(12));

pins! {
    sync_clean_kill_k2: Synchronized, false, false, 2, None => (1730229, 13368955963713303081);
    sync_clean_kill_k8: Synchronized, false, false, 8, None => (1806417, 10813306218921361457);
    sync_clean_revive_k2: Synchronized, false, true, 2, None => (2345497, 13147237107328672888);
    sync_clean_revive_k8: Synchronized, false, true, 8, None => (1938454, 390783196519127628);
    sync_lossy_kill_k2: Synchronized, true, false, 2, None => (1159611, 12083647409493886642);
    sync_lossy_kill_k8: Synchronized, true, false, 8, None => (1377104, 4068410150039490969);
    sync_lossy_revive_k2: Synchronized, true, true, 2, None => (1571065, 4837265252983483204);
    sync_lossy_revive_k8: Synchronized, true, true, 8, None => (1519239, 8878037024526753073);
    sync_long_timeout_clean_revive_k2: Synchronized, false, true, 2, LONG => (2324251, 13820418467191596885);
    sync_long_timeout_clean_revive_k8: Synchronized, false, true, 8, LONG => (1931272, 5745113822032858268);
    sync_long_timeout_lossy_revive_k2: Synchronized, true, true, 2, LONG => (1545057, 10143061737206476150);
    sync_long_timeout_lossy_revive_k8: Synchronized, true, true, 8, LONG => (1575251, 950349501475930951);
    unsync_clean_kill_k2: Unsynchronized, false, false, 2, None => (2154, 16691895495184640440);
    unsync_clean_kill_k8: Unsynchronized, false, false, 8, None => (2267, 17813848674458517318);
    unsync_clean_revive_k2: Unsynchronized, false, true, 2, None => (2166, 7286163052405302634);
    unsync_clean_revive_k8: Unsynchronized, false, true, 8, None => (2267, 14355051238652150485);
    unsync_lossy_kill_k2: Unsynchronized, true, false, 2, None => (2158, 18066007567894093012);
    unsync_lossy_kill_k8: Unsynchronized, true, false, 8, None => (2272, 8257441774934170991);
    unsync_lossy_revive_k2: Unsynchronized, true, true, 2, None => (2170, 9559170126997343715);
    unsync_lossy_revive_k8: Unsynchronized, true, true, 8, None => (2272, 17405053055054505278);
}

/// Tree geometry: every node's level, region, point, host, parent and
/// children *in index order*, then `depth()`, `leaves()`, `hosts()`,
/// `rep_of` of every member and `canonical_leaf_of` of every member ID.
/// The gather cells above only see what flows through a tree; these see
/// the tree itself. Recorded at 557b295, before `LogicalNode` was packed.
fn geometry(n: u32, fanout: usize) -> (usize, u64) {
    let ring = Ring::with_random_ids((0..n).map(HostId), 13);
    let tree = SomoTree::build(&ring, fanout);
    let mut pin = Pin::new();
    pin.feed(&format!("fanout={} len={}\n", tree.fanout(), tree.len()));
    for (i, node) in tree.nodes().iter().enumerate() {
        pin.feed(&format!(
            "{i} {} {} {} {} {} {:?} {:?}\n",
            node.level(),
            node.region().0,
            node.region().1,
            node.point().0,
            node.host(),
            node.parent(),
            node.children().collect::<Vec<u32>>()
        ));
    }
    pin.feed(&format!(
        "depth={} leaves={:?} hosts={:?}\n",
        tree.depth(),
        tree.leaves().collect::<Vec<u32>>(),
        tree.hosts()
    ));
    for (m, member) in ring.members().iter().enumerate() {
        pin.feed(&format!(
            "{m} {:?} {}\n",
            tree.rep_of(m),
            tree.canonical_leaf_of(member.id)
        ));
    }
    pin.pair()
}

macro_rules! geometry_pins {
    ($($name:ident: $n:expr, $k:expr => $pin:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_eq!(geometry($n, $k), $pin);
        }
    )*};
}

geometry_pins! {
    geometry_n1_k2: 1, 2 => (113, 9965471572894279967);
    geometry_n1_k3: 1, 3 => (113, 7704916457203239062);
    geometry_n1_k8: 1, 8 => (113, 13396613219874704145);
    geometry_n1_k16: 1, 16 => (114, 2092282315567615458);
    geometry_n2_k2: 2, 2 => (559, 5282478646044275390);
    geometry_n2_k3: 2, 3 => (584, 5992940302825650195);
    geometry_n2_k8: 2, 8 => (780, 1194528036556571088);
    geometry_n2_k16: 2, 16 => (1477, 7115027388732666569);
    geometry_n64_k2: 64, 2 => (16644, 353379934948768998);
    geometry_n64_k3: 64, 3 => (17424, 16262999011579773226);
    geometry_n64_k8: 64, 8 => (22141, 1509995509675836701);
    geometry_n64_k16: 64, 16 => (33262, 14389893101370149889);
    geometry_n700_k2: 700, 2 => (198677, 12071151666439188187);
    geometry_n700_k3: 700, 3 => (191443, 9642052035279451898);
    geometry_n700_k8: 700, 8 => (266778, 12365453405692625481);
    geometry_n700_k16: 700, 16 => (423390, 9265389980349504328);
    geometry_n4096_k2: 4096, 2 => (1246196, 11632955852452325766);
    geometry_n4096_k3: 4096, 3 => (1200283, 7205201570593993776);
    geometry_n4096_k8: 4096, 8 => (1639547, 13337034687005678991);
    geometry_n4096_k16: 4096, 16 => (2511377, 2322268278561026059);
}
