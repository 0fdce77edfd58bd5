//! All-pairs host latency oracle and the [`LatencyModel`] abstraction.
//!
//! Every ALM planning algorithm in the workspace is written against
//! [`LatencyModel`], so the same code runs in the paper's two modes:
//!
//! * *Critical* — pair-wise latency known a priori via an oracle
//!   ([`LatencyMatrix`], exact shortest-path distances), and
//! * *Leafset* — latency predicted from network coordinates (the `coords`
//!   crate implements `LatencyModel` for its coordinate store).

use std::sync::Arc;

use crate::hosts::{HostId, HostSet};
use crate::topology::{RouterId, RouterNet};

/// Anything that can estimate the latency between two end hosts.
///
/// Implementations must be symmetric (`latency(a, b) == latency(b, a)`),
/// return `0` for `a == b`, and never return a negative or NaN value; the
/// provided algorithms rely on all three (the planners' relaxation pruning
/// in particular assumes `latency >= 0`, so a negative estimate would
/// silently change results rather than error).
///
/// # Precision contract
///
/// Implementations may carry either `f32`- or `f64`-precision values:
///
/// * [`LatencyMatrix`] answers at `f32` precision: each lookup rounds the
///   `f64` sum `last_hop(a) + router_path + last_hop(b)` to `f32` once and
///   widens it back (`f32 → f64` is exact). Every handle on one kernel
///   (each [`Clone`] of it) evaluates the same expression over the same
///   shared rows, so all of them are bit-identical.
/// * Genuine `f64` models (e.g. coordinate stores) keep full precision;
///   callers that require bit-identical outputs against such a model must
///   keep using the model itself.
pub trait LatencyModel {
    /// Latency estimate between hosts `a` and `b`, in milliseconds.
    fn latency_ms(&self, a: HostId, b: HostId) -> f64;

    /// Number of hosts this model covers (hosts have ids `0..num_hosts`).
    fn num_hosts(&self) -> usize;
}

impl<T: LatencyModel + ?Sized> LatencyModel for &T {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        (**self).latency_ms(a, b)
    }
    fn num_hosts(&self) -> usize {
        (**self).num_hosts()
    }
}

/// Per-host half of the factored kernel (16 bytes).
#[derive(Clone, Copy)]
struct HostEntry {
    /// Offset in `rows` of the triangle row of this host's router, less
    /// its slot: the row's entry for slot `j ≥ slot` is `rows[row_off + j]`.
    row_off: u32,
    /// This host's router's place among the host-attached routers, in
    /// ascending router order.
    slot: u32,
    last_hop_ms: f64,
}

/// Exact all-pairs host latencies: last-hop + shortest router path +
/// last-hop, kept in the factored form the underlay has — the router
/// distances among the `A` *host-attached* routers, each stored once as
/// an upper triangle (diagonal included), plus a 16-byte entry per host
/// and a 4-byte router id per attached router — and summed per lookup:
/// `A(A+1)/2·4 + N·16 + A·4` bytes: at most 0.66 MB of triangle on the
/// paper's 600-router underlay (hosts attach to its 576 stub routers) at
/// any N, half of what one full row per attached router held. A pair's
/// router distance comes from the Dijkstra row of the lower of its two
/// routers whichever host is named first, so `latency(a, b)` and
/// `latency(b, a)` sum the same three operands on any link weights. On
/// integral-millisecond weights (the default underlay) either endpoint's
/// row holds the same distance, and every answer is bit-identical to the
/// entry of an `N × N` `f32` table filled with the same expression (the
/// form the committed anchors were produced with; the tests keep one as
/// the reference), so the operand order in `latency_ms` is part of the
/// contract. The storage is shared (`Arc`), so cloning the kernel — or a
/// whole network/pool that embeds one — is O(1).
#[derive(Clone)]
pub struct LatencyMatrix {
    /// Routers in the underlay: the length of a [`Self::router_row`].
    routers: usize,
    /// The upper triangle of the attached routers' distance table, row by
    /// row in slot order: row `i` holds slots `i..A`.
    rows: Arc<[f32]>,
    /// The router id of each slot, ascending.
    slot_router: Arc<[u32]>,
    hosts: Arc<[HostEntry]>,
}

/// [`LatencyMatrix::try_build`] found a router no path reaches from a
/// host-attached router: latencies across that cut would be infinite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DisconnectedUnderlay {
    /// The host-attached router the search started from.
    pub from: RouterId,
    /// A router it cannot reach.
    pub to: RouterId,
}

impl std::fmt::Display for DisconnectedUnderlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "disconnected underlay: no path from router {} to router {}",
            self.from.0, self.to.0
        )
    }
}

impl std::error::Error for DisconnectedUnderlay {}

impl std::fmt::Debug for LatencyMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Print the kernel's shape, not its rows.
        f.debug_struct("LatencyMatrix")
            .field("n", &self.hosts.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

impl LatencyMatrix {
    /// Build the oracle for all hosts of a network; panics on a
    /// [`DisconnectedUnderlay`] (see [`Self::try_build`]).
    pub fn build(net: &RouterNet, hosts: &HostSet) -> LatencyMatrix {
        Self::try_build(net, hosts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the oracle for all hosts of a network.
    ///
    /// Only routers that actually host endpoints are Dijkstra sources:
    /// hosts attach to stub routers, so transit routers (and any stub router
    /// without endpoints) never need a distance row of their own. Every row
    /// is checked for unreachable routers as it is computed.
    pub fn try_build(
        net: &RouterNet,
        hosts: &HostSet,
    ) -> Result<LatencyMatrix, DisconnectedUnderlay> {
        let routers = net.graph.len();
        // Router id → slot; `u32::MAX` marks a router with no host.
        let mut slot = vec![u32::MAX; routers];
        for &r in hosts.routers().iter() {
            slot[r as usize] = 0;
        }
        let slot_router: Arc<[u32]> = (0..routers as u32)
            .filter(|&r| slot[r as usize] != u32::MAX)
            .collect();
        let attached = slot_router.len();
        let len = attached * (attached + 1) / 2;
        assert!(u32::try_from(len).is_ok(), "triangle offsets fit u32");
        // The triangle is filled where it stays: one exactly-sized shared
        // slice, written through the only handle on it.
        let mut rows: Arc<[f32]> = std::iter::repeat_n(0f32, len).collect();
        let filled = Arc::get_mut(&mut rows).expect("no other handle exists yet");
        let mut off = 0;
        for (k, &r) in slot_router.iter().enumerate() {
            slot[r as usize] = k as u32;
            let row = net.graph.dijkstra(r);
            if let Some(to) = row.iter().position(|d| !d.is_finite()) {
                return Err(DisconnectedUnderlay {
                    from: RouterId(r),
                    to: RouterId(to as u32),
                });
            }
            let upper = &slot_router[k..];
            for (cell, &c) in filled[off..off + upper.len()].iter_mut().zip(upper) {
                *cell = row[c as usize];
            }
            off += upper.len();
        }
        let entries = hosts
            .routers()
            .iter()
            .zip(hosts.last_hops().iter())
            .map(|(&r, &last_hop_ms)| {
                let s = slot[r as usize];
                HostEntry {
                    row_off: row_off(attached, s as usize),
                    slot: s,
                    last_hop_ms,
                }
            })
            .collect();
        Ok(LatencyMatrix {
            routers,
            rows,
            slot_router,
            hosts: entries,
        })
    }

    /// The router distance between slots `i` and `j`, read from the lower
    /// slot's row.
    #[inline]
    fn slot_distance(&self, (i_off, i): (u32, u32), (j_off, j): (u32, u32)) -> f32 {
        // A select, not a branch: half of all lookups read across rows.
        let (lo_off, hi) = if i <= j { (i_off, j) } else { (j_off, i) };
        self.rows[lo_off as usize + hi as usize]
    }

    /// The shortest-path distance from `h`'s router to every router,
    /// indexed by router id, as the kernel answers it: each attached
    /// router's column is the triangle entry `latency_ms` reads. Routers
    /// with no host read `f32::INFINITY`: no lookup reads them.
    pub fn router_row(&self, h: HostId) -> Box<[f32]> {
        let e = self.hosts[h.idx()];
        let mut row = vec![f32::INFINITY; self.routers].into_boxed_slice();
        let attached = self.slot_router.len();
        for (k, &r) in self.slot_router.iter().enumerate() {
            let other = (row_off(attached, k), k as u32);
            row[r as usize] = self.slot_distance((e.row_off, e.slot), other);
        }
        row
    }

    /// Bytes resident in the kernel: `A(A+1)/2·4 + N·16 + A·4` for `A`
    /// host-attached routers.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.rows)
            + std::mem::size_of_val(&*self.slot_router)
            + std::mem::size_of_val(&*self.hosts)
    }
}

/// Where slot `k`'s row of an `attached`-slot triangle starts, less `k`:
/// rows `0..k` hold `attached - i` entries each.
fn row_off(attached: usize, k: usize) -> u32 {
    (k * attached - k * (k + 1) / 2) as u32
}

impl LatencyModel for LatencyMatrix {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (ha, hb) = (self.hosts[a.idx()], self.hosts[b.idx()]);
        let router_d = self.slot_distance((ha.row_off, ha.slot), (hb.row_off, hb.slot));
        f64::from((ha.last_hop_ms + f64::from(router_d) + hb.last_hop_ms) as f32)
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
}

thread_local! {
    static LATENCY_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Zero the current thread's [`Counted`] call counter.
pub fn reset_latency_calls() {
    LATENCY_CALLS.with(|c| c.set(0));
}

/// `latency_ms` evaluations made through [`Counted`] on this thread since
/// the last [`reset_latency_calls`].
pub fn latency_calls() -> u64 {
    LATENCY_CALLS.with(|c| c.get())
}

/// Instrumentation wrapper: forwards to the inner model and counts every
/// `latency_ms` evaluation in a thread-local tally (the perf harness's
/// "latency calls" column). Not meant for production paths — the counter
/// bump is cheap but not free.
pub struct Counted<L>(pub L);

impl<L: LatencyModel> LatencyModel for Counted<L> {
    #[inline]
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        LATENCY_CALLS.with(|c| c.set(c.get() + 1));
        self.0.latency_ms(a, b)
    }

    #[inline]
    fn num_hosts(&self) -> usize {
        self.0.num_hosts()
    }
}

/// A planner's-eye latency model: pairs inside a *measured set* (e.g. a
/// session's members, who ping each other directly — O(m²) probes for a
/// 20-member session is nothing) use real measurements, while any pair
/// involving an outside host (the huge helper candidate list from SOMO)
/// falls back to an estimate such as network coordinates.
///
/// This is exactly the paper's *Leafset* algorithm family: "the one used
/// the leafset estimation for **vicinity judgment**" — coordinates judge
/// helper vicinity; they do not replace the members' own measurements.
pub struct MeasuredSetLatency<'a, M: LatencyModel, E: LatencyModel> {
    measured: std::collections::HashSet<HostId>,
    oracle: &'a M,
    estimate: &'a E,
}

impl<'a, M: LatencyModel, E: LatencyModel> MeasuredSetLatency<'a, M, E> {
    /// A model where pairs within `measured` use `oracle` and all other
    /// pairs use `estimate`.
    pub fn new(measured: impl IntoIterator<Item = HostId>, oracle: &'a M, estimate: &'a E) -> Self {
        MeasuredSetLatency {
            measured: measured.into_iter().collect(),
            oracle,
            estimate,
        }
    }
}

impl<M: LatencyModel, E: LatencyModel> LatencyModel for MeasuredSetLatency<'_, M, E> {
    fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
        if self.measured.contains(&a) && self.measured.contains(&b) {
            self.oracle.latency_ms(a, b)
        } else {
            self.estimate.latency_ms(a, b)
        }
    }

    fn num_hosts(&self) -> usize {
        self.oracle.num_hosts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::HostSet;
    use crate::topology::{RouterNet, TransitStubConfig};

    fn small() -> (RouterNet, HostSet) {
        let cfg = TransitStubConfig {
            transit_domains: 2,
            transit_per_domain: 3,
            stub_domains_per_transit: 2,
            routers_per_stub: 3,
            ..Default::default()
        };
        let net = RouterNet::generate(&cfg, 9);
        let hosts = HostSet::attach(&net, 50, (3.0, 8.0), 10);
        (net, hosts)
    }

    /// The pair table this kernel replaced, filled with the historical
    /// expression from an every-router Dijkstra: the reference the
    /// factored lookups must match bit for bit. The router distance is
    /// read from the lower router's row, as the kernel reads it; the
    /// historical table read `a`'s row, which on non-integral link weights
    /// can differ from `b`'s in the last place and made the table
    /// asymmetric.
    fn dense_reference(net: &RouterNet, hosts: &HostSet) -> Vec<f32> {
        let rd = net.graph.all_pairs();
        let n = hosts.len();
        let mut dist = vec![0f32; n * n];
        for (a, ha) in hosts.iter() {
            for (b, hb) in hosts.iter() {
                if a == b {
                    continue;
                }
                let (lo, hi) = if ha.router <= hb.router {
                    (ha.router, hb.router)
                } else {
                    (hb.router, ha.router)
                };
                let router_d = rd[lo.0 as usize][hi.0 as usize];
                dist[a.idx() * n + b.idx()] =
                    (ha.last_hop_ms + router_d as f64 + hb.last_hop_ms) as f32;
            }
        }
        dist
    }

    fn assert_matches_dense(m: &LatencyMatrix, net: &RouterNet, hosts: &HostSet) {
        let n = hosts.len();
        let dense = dense_reference(net, hosts);
        for a in hosts.ids() {
            for b in hosts.ids() {
                assert_eq!(
                    m.latency_ms(a, b).to_bits(),
                    f64::from(dense[a.idx() * n + b.idx()]).to_bits(),
                    "factored kernel diverges from the dense table at ({}, {})",
                    a.0,
                    b.0
                );
            }
        }
    }

    #[test]
    fn symmetric_and_zero_diagonal() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        for a in hosts.ids() {
            assert_eq!(m.latency_ms(a, a).to_bits(), 0f64.to_bits());
            for b in hosts.ids() {
                assert_eq!(m.latency_ms(a, b).to_bits(), m.latency_ms(b, a).to_bits());
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_for_shortest_paths() {
        // Underlay shortest-path distances satisfy the triangle inequality
        // up to the double-counted last hop of the intermediate host: d(a,c)
        // <= d(a,b) + d(b,c) always holds because the router path through
        // b's router is a candidate path and host b adds 2*last_hop >= 0.
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        for a in hosts.ids().take(10) {
            for b in hosts.ids().take(10) {
                for c in hosts.ids().take(10) {
                    let lhs = m.latency_ms(a, c);
                    let rhs = m.latency_ms(a, b) + m.latency_ms(b, c);
                    assert!(lhs <= rhs + 1e-3, "triangle violated: {lhs} > {rhs}");
                }
            }
        }
    }

    #[test]
    fn same_stub_is_much_closer_than_cross_transit() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        // Find two hosts in the same stub domain and two in different
        // transit domains; same-stub pairs must be far cheaper.
        let mut same_stub = None;
        let mut cross = None;
        for (a, ha) in hosts.iter() {
            for (b, hb) in hosts.iter() {
                if a >= b {
                    continue;
                }
                if ha.router == hb.router && same_stub.is_none() {
                    same_stub = Some(m.latency_ms(a, b));
                }
                let ka = &net.kinds[ha.router.0 as usize];
                let kb = &net.kinds[hb.router.0 as usize];
                if let (
                    crate::topology::RouterKind::Stub { gateway: ga, .. },
                    crate::topology::RouterKind::Stub { gateway: gb, .. },
                ) = (ka, kb)
                {
                    if ga != gb && cross.is_none() {
                        cross = Some(m.latency_ms(a, b));
                    }
                }
            }
        }
        if let (Some(s), Some(c)) = (same_stub, cross) {
            assert!(s < c, "same-stub {s} should beat cross-gateway {c}");
        }
    }

    #[test]
    fn measured_set_routes_by_membership() {
        struct Fixed(f64);
        impl LatencyModel for Fixed {
            fn latency_ms(&self, a: HostId, b: HostId) -> f64 {
                if a == b {
                    0.0
                } else {
                    self.0
                }
            }
            fn num_hosts(&self) -> usize {
                10
            }
        }
        let oracle = Fixed(100.0);
        let estimate = Fixed(7.0);
        let m = MeasuredSetLatency::new([HostId(0), HostId(1)], &oracle, &estimate);
        assert_eq!(m.latency_ms(HostId(0), HostId(1)), 100.0);
        assert_eq!(m.latency_ms(HostId(0), HostId(5)), 7.0);
        assert_eq!(m.latency_ms(HostId(5), HostId(6)), 7.0);
        assert_eq!(m.num_hosts(), 10);
    }

    #[test]
    fn restricted_dijkstra_matches_full_all_pairs_build() {
        // Sourcing Dijkstra only from host-attached routers, and summing per
        // lookup, must answer exactly what the every-router pair table did.
        let (net, hosts) = small();
        assert_matches_dense(&LatencyMatrix::build(&net, &hosts), &net, &hosts);
    }

    #[test]
    fn clone_is_value_identical_and_zero_copy() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        let c = m.clone();
        assert_eq!(c.num_hosts(), m.num_hosts());
        for a in hosts.ids() {
            for b in hosts.ids() {
                assert_eq!(c.latency_ms(a, b).to_bits(), m.latency_ms(a, b).to_bits());
            }
        }
        // Not merely equal: both handles read the same rows and entries.
        assert!(Arc::ptr_eq(&c.rows, &m.rows));
        assert!(Arc::ptr_eq(&c.hosts, &m.hosts));
    }

    #[test]
    fn resident_bytes_counts_rows_and_host_entries() {
        let (net, hosts) = small();
        let m = LatencyMatrix::build(&net, &hosts);
        let mut attached: Vec<u32> = hosts.iter().map(|(_, h)| h.router.0).collect();
        attached.sort_unstable();
        attached.dedup();
        let a = attached.len();
        assert_eq!(
            m.resident_bytes(),
            a * (a + 1) / 2 * 4 + hosts.len() * 16 + a * 4
        );
        // On integral weights either endpoint's Dijkstra row holds the
        // distance the triangle kept; host-less columns are never read.
        for (id, h) in hosts.iter() {
            let (row, reference) = (m.router_row(id), net.graph.dijkstra(h.router.0));
            for r in 0..net.len() {
                if attached.binary_search(&(r as u32)).is_ok() {
                    assert_eq!(row[r].to_bits(), reference[r].to_bits(), "column {r}");
                } else {
                    assert_eq!(row[r], f32::INFINITY, "column {r}");
                }
            }
        }
    }

    #[test]
    fn disconnected_underlay_is_a_typed_error() {
        // Two transit domains of one router each are joined by the single
        // transit-transit link 0-1; dropping it leaves two components.
        let cfg = TransitStubConfig {
            transit_domains: 2,
            transit_per_domain: 1,
            stub_domains_per_transit: 1,
            routers_per_stub: 2,
            ..Default::default()
        };
        let mut net = RouterNet::generate(&cfg, 5);
        let hosts = HostSet::attach(&net, 12, (3.0, 8.0), 6);
        assert!(LatencyMatrix::try_build(&net, &hosts).is_ok());
        let mut cut = crate::graph::Graph::with_nodes(net.len());
        for a in 0..net.len() as u32 {
            for &(b, w) in net.graph.neighbors(a) {
                if a < b && (a, b) != (0, 1) {
                    cut.add_edge(a, b, w);
                }
            }
        }
        net.graph = cut;
        assert!(!net.graph.is_connected());
        let err = LatencyMatrix::try_build(&net, &hosts).unwrap_err();
        // The first source is the lowest host-attached router; the first
        // router it cannot reach is the other domain's transit router.
        let from = hosts.iter().map(|(_, h)| h.router).min().unwrap();
        assert_eq!(from, err.from);
        assert!(net.graph.dijkstra(err.from.0)[err.to.0 as usize].is_infinite());
        assert!(err.to_string().contains("disconnected underlay"));
    }

    #[test]
    #[should_panic(expected = "disconnected underlay")]
    fn build_panics_on_a_disconnected_underlay() {
        let net = RouterNet::generate(&TransitStubConfig::default(), 3);
        let hosts = HostSet::attach(&net, 20, (3.0, 8.0), 4);
        let mut islands = net.clone();
        islands.graph = crate::graph::Graph::with_nodes(net.len());
        LatencyMatrix::build(&islands, &hosts);
    }

    #[test]
    fn counted_wrapper_tallies_calls() {
        let (net, hosts) = small();
        let m = Counted(LatencyMatrix::build(&net, &hosts));
        reset_latency_calls();
        let _ = m.latency_ms(HostId(0), HostId(1));
        let _ = m.latency_ms(HostId(1), HostId(2));
        assert_eq!(latency_calls(), 2);
        reset_latency_calls();
        assert_eq!(latency_calls(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        // Factored ≡ historical dense, bit for bit: random topologies with
        // non-integral link weights, host counts from below the stub-router
        // count (most rows absent) to far above it (many hosts per router),
        // both argument orders and the diagonal.
        #[test]
        fn prop_factored_matches_historical_dense(
            td in 1usize..3,
            tpd in 1usize..4,
            sdt in 1usize..3,
            rps in 1usize..4,
            n in 1usize..160,
            transit_ms in 20.0f64..120.0,
            stub_ms in 1.0f64..30.0,
            seed: u64,
        ) {
            let cfg = TransitStubConfig {
                transit_domains: td,
                transit_per_domain: tpd,
                stub_domains_per_transit: sdt,
                routers_per_stub: rps,
                intra_transit_ms: transit_ms,
                stub_transit_ms: stub_ms * 2.5,
                intra_stub_ms: stub_ms,
            };
            let net = RouterNet::generate(&cfg, seed);
            let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed ^ 0x5eed);
            assert_matches_dense(&LatencyMatrix::build(&net, &hosts), &net, &hosts);
        }

        // The `LatencyModel` contract on the topologies above: every pair
        // answers the same bits in both orders. Two Dijkstra rows can hold
        // a non-integral distance rounded differently, so a kernel that
        // read the first argument's row broke this.
        #[test]
        fn prop_kernel_is_bit_symmetric_on_fractional_weights(
            td in 1usize..3,
            tpd in 1usize..4,
            sdt in 1usize..3,
            rps in 1usize..4,
            n in 1usize..160,
            transit_ms in 20.0f64..120.0,
            stub_ms in 1.0f64..30.0,
            seed: u64,
        ) {
            let cfg = TransitStubConfig {
                transit_domains: td,
                transit_per_domain: tpd,
                stub_domains_per_transit: sdt,
                routers_per_stub: rps,
                intra_transit_ms: transit_ms,
                stub_transit_ms: stub_ms * 2.5,
                intra_stub_ms: stub_ms,
            };
            let net = RouterNet::generate(&cfg, seed);
            let hosts = HostSet::attach(&net, n, (3.0, 8.0), seed ^ 0x5eed);
            let m = LatencyMatrix::build(&net, &hosts);
            for a in hosts.ids() {
                for b in hosts.ids() {
                    proptest::prop_assert_eq!(
                        m.latency_ms(a, b).to_bits(),
                        m.latency_ms(b, a).to_bits(),
                        "asymmetric at ({}, {})",
                        a.0,
                        b.0
                    );
                }
            }
        }
    }
}
