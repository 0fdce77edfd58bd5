//! Tiered latency oracle: plan the same session on exact latencies and
//! on estimates.
//!
//! Builds the quickstart pool from the same seed under
//! [`LatencySource::Exact`] (the factored exact `LatencyMatrix` kernel:
//! one Dijkstra row per host-attached router, summed per lookup)
//! and under [`LatencySource::Tiered`] (hot Dijkstra-row LRU over
//! landmark triangle bounds over GNP coordinates) — plans an identical
//! 12-member session through each, and prints the resulting tree heights
//! next to the tiered oracle's per-tier hit rates and resident footprint.
//!
//! Run with: `cargo run --release --example oracle`

use p2p_resource_pool::prelude::*;

fn main() {
    let base = PoolConfig {
        net: NetworkConfig {
            num_hosts: 300,
            ..NetworkConfig::default()
        },
        coord_rounds: 6,
        ..PoolConfig::default()
    };

    // Three sources: the exact kernel, the tiered default (whose hot tier
    // comfortably covers a 300-host pool's router spread, so plans match
    // exactly), and a hot-less tiered oracle that must answer every pair
    // from landmark bounds or coordinates — the estimate-quality floor.
    let mut heights = Vec::new();
    for (label, source) in [
        ("exact   ", LatencySource::Exact),
        ("tiered  ", LatencySource::Tiered(TieredConfig::default())),
        (
            "hot-less",
            LatencySource::Tiered(TieredConfig {
                hot_rows: 0,
                ..TieredConfig::default()
            }),
        ),
    ] {
        let cfg = PoolConfig {
            latency_source: source,
            ..base.clone()
        };
        println!("building resource pool ({label} latency source)...");
        let mut pool = ResourcePool::build(&cfg, 42);
        let members = pool.sample_members(12, 7);
        let spec = SessionSpec {
            id: SessionId(1),
            priority: 1,
            root: members[0],
            members,
        };
        let outcome = plan_and_reserve(
            &mut pool,
            &spec,
            &PlanConfig {
                model: PlanModel::Oracle,
                ..PlanConfig::default()
            },
        );
        // `oracle_height` is always evaluated under the exact kernel, so
        // the two numbers below are directly comparable: any gap is pure
        // tree-quality loss from planning through estimates.
        println!(
            "  {label} plan: height = {:6.1} ms  ({} helpers)",
            outcome.oracle_height,
            outcome.helpers.len()
        );
        heights.push(outcome.oracle_height);

        if let Some(stats) = pool.oracle_stats() {
            let total = stats.total().max(1) as f64;
            println!(
                "  tier hits: hot {:5.1}%  sketch {:5.1}%  base {:5.1}%  \
                 ({} queries, {} row promotions, {} evictions)",
                100.0 * stats.hot as f64 / total,
                100.0 * stats.sketch as f64 / total,
                100.0 * stats.base as f64 / total,
                stats.total(),
                stats.promotions,
                stats.evictions,
            );
        }
        // The exact kernel is the large one at this size (its triangle
        // costs up to 0.66 MB at any N); the tiered oracle is not here to save
        // memory but to plan from what a deployed host can know.
        println!(
            "  oracle resident: {:.1} KB\n",
            pool.oracle_resident_bytes() as f64 / 1e3,
        );
    }

    println!(
        "tree-height delta from planning on estimates: tiered {:+.1}%, hot-less {:+.1}%",
        (heights[1] - heights[0]) / heights[0] * 100.0,
        (heights[2] - heights[0]) / heights[0] * 100.0,
    );
}
