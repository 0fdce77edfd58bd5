//! What the tiered oracle holds at N = 131 072 — the cell DESIGN §15.5
//! once measured at 19.7 MB — regenerated without a GNP fit, a plan or an
//! exact kernel: the paper's 600-router underlay, 131 072 attached hosts,
//! the default 16-landmark sketch and zeroed coordinates of the GNP
//! dimension, so the hot tier is empty and every other byte is counted.
//! And what building the sketch allocates, under `testkit`'s counting
//! allocator: its own table, not the host set's columns again.

use coords::{CoordStore, GnpConfig};
use netsim::hosts::HostSet;
use netsim::topology::TransitStubConfig;
use netsim::RouterNet;
use oracle::{LandmarkSketch, TieredConfig, TieredOracle};
use testkit::measured;

#[global_allocator]
static ALLOC: testkit::Counting = testkit::Counting;

const N: usize = 131_072;

/// The sketch reads the host set's router and last-hop columns in place:
/// what it holds beyond them is the `R·L·8` router-major table and the
/// `L·4` landmark ids, 76 864 B here, plus their two reference counts.
/// Copying the columns again, as the sketch once did, added `N·12` =
/// 1 572 864 B.
#[test]
fn building_the_sketch_allocates_its_table_and_no_host_column() {
    let net = RouterNet::generate(&TransitStubConfig::default(), 2004);
    let hosts = HostSet::attach(&net, N, (3.0, 8.0), 7);
    let l = TieredConfig::default().landmarks;
    let landmarks = LandmarkSketch::default_landmarks(N, l, 3);
    let (sketch, cost) = measured(|| LandmarkSketch::build(&net, &hosts, &landmarks));
    let own = net.len() * l * 8 + l * 4;
    assert!(
        cost.held <= own + 64,
        "holds {} B beyond the host set; its own table is {own} B",
        cost.held
    );
    // Each landmark's Dijkstra row and heap, and the attached-router flags.
    assert!(cost.peak <= own + 64 * net.len(), "peak {} B", cost.peak);
    assert_eq!(sketch.resident_bytes(), own + N * 12);
}

#[test]
fn the_n_131072_oracle_is_its_factored_sketch_and_packed_coordinates() {
    let net = RouterNet::generate(&TransitStubConfig::default(), 2004);
    let hosts = HostSet::attach(&net, N, (3.0, 8.0), 7);
    let cfg = TieredConfig::default();
    let landmarks = LandmarkSketch::default_landmarks(N, cfg.landmarks, 3);
    let sketch = LandmarkSketch::build(&net, &hosts, &landmarks);
    let (r, l) = (net.len(), cfg.landmarks);
    // Router-major landmark table, landmark ids, host routers and last hops.
    assert_eq!(sketch.resident_bytes(), r * l * 8 + l * 4 + N * 12);

    let dim = GnpConfig::default().dim;
    let coords = CoordStore::zeros(N, dim);
    assert_eq!(coords.resident_bytes(), N * dim * 8);
    let oracle = TieredOracle::new(&net, &hosts, coords, sketch, &cfg);
    let total = oracle.resident_bytes();
    // DESIGN §15.5's dated figure for this cell (hot rows included) was
    // 19.7 MB. Now: 5 242 880 B coordinates + 1 649 728 B sketch + 27 296 B
    // graph adjacency + 4 800 B of the empty hot tier's per-router maps.
    assert!(total < 19_700_000, "{total} B");
    assert_eq!(total, 6_924_704);
}
