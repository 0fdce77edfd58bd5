//! Serialization round-trips for the wire-facing types: what a node
//! publishes to SOMO must survive encode/decode exactly (reports travel
//! between machines in deployment).

use netsim::HostId;
use pool::degree_table::{Allocation, DegreeTable, Rank, SessionId};
use pool::{CandidateEntry, ResourceReport};

#[test]
fn resource_report_round_trips_through_json() {
    let report = ResourceReport {
        entries: vec![
            CandidateEntry {
                host: HostId(5),
                avail: [4, 3, 2, 1],
            },
            CandidateEntry {
                host: HostId(9),
                avail: [9, 9, 9, 9],
            },
        ],
        cap: 128,
    };
    let json = serde_json::to_string(&report).unwrap();
    let back: ResourceReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
}

#[test]
fn degree_table_round_trips_with_allocations() {
    let mut t = DegreeTable::new(6);
    t.reserve_until(SessionId(4), Rank::helper(1), 2, None)
        .unwrap();
    t.reserve_until(SessionId(12), Rank::helper(3), 1, None)
        .unwrap();
    t.reserve_until(SessionId(4), Rank::MEMBER, 1, None)
        .unwrap();
    let json = serde_json::to_string(&t).unwrap();
    let back: DegreeTable = serde_json::from_str(&json).unwrap();
    assert_eq!(back.dbound(), 6);
    assert_eq!(back.free(), t.free());
    assert_eq!(back.held_by(SessionId(4)), 3);
    assert_eq!(back.held_by(SessionId(12)), 1);
    assert_eq!(back.allocations(), t.allocations());
}

#[test]
fn allocation_fields_survive() {
    let a = Allocation {
        session: SessionId(7),
        rank: Rank::helper(2),
        count: 3,
        expires_at: None,
    };
    let back: Allocation = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
    assert_eq!(back, a);
}

#[test]
fn leased_allocation_round_trips_with_its_deadline() {
    use simcore::SimTime;
    let a = Allocation {
        session: SessionId(3),
        rank: Rank::MEMBER,
        count: 1,
        expires_at: Some(SimTime::from_millis(123_456)),
    };
    let back: Allocation = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
    assert_eq!(back, a);

    // A leased table entry survives the SOMO publish path too — the deputy
    // reconstructing a crashed manager's session depends on this.
    let mut t = DegreeTable::new(4);
    t.reserve_until(
        SessionId(3),
        Rank::helper(1),
        2,
        Some(SimTime::from_secs(300)),
    )
    .unwrap();
    let back: DegreeTable = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(back.allocations(), t.allocations());
}

#[test]
fn bandwidth_and_host_attributes_round_trip() {
    use netsim::{Network, NetworkConfig};
    let net = Network::generate(
        &NetworkConfig {
            num_hosts: 20,
            ..NetworkConfig::default()
        },
        3,
    );
    let close = |a: f64, b: f64| (a - b).abs() <= a.abs().max(b.abs()) * 1e-12;
    for (_, host) in net.hosts.iter() {
        let json = serde_json::to_string(&host).unwrap();
        let back: netsim::hosts::Host = serde_json::from_str(&json).unwrap();
        assert_eq!(back.router, host.router);
        assert_eq!(back.degree_bound, host.degree_bound);
        // JSON float text is not guaranteed bit-exact; 12 significant
        // digits is far beyond what any latency/bandwidth use needs.
        assert!(close(back.last_hop_ms, host.last_hop_ms));
        assert!(close(back.bandwidth.up_kbps, host.bandwidth.up_kbps));
        assert!(close(back.bandwidth.down_kbps, host.bandwidth.down_kbps));
        assert_eq!(back.bandwidth.class, host.bandwidth.class);
    }
}

#[test]
fn network_config_round_trips() {
    let cfg = netsim::NetworkConfig::default();
    let back: netsim::NetworkConfig =
        serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(back.num_hosts, cfg.num_hosts);
    assert_eq!(back.topology.transit_domains, cfg.topology.transit_domains);
    assert_eq!(
        back.topology.intra_transit_ms,
        cfg.topology.intra_transit_ms
    );
}
