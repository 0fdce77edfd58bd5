//! The paper's motivating scenario (§2.1): a corporation with thousands of
//! geographically distributed machines runs a handful of small
//! video-conference sessions at any given hour. Each session taps the
//! resource pool for idle helpers; higher-priority meetings get better
//! trees.
//!
//! Run with: `cargo run --release --example videoconf`

use p2p_resource_pool::prelude::*;

fn main() {
    let cfg = PoolConfig {
        net: NetworkConfig {
            num_hosts: 600,
            ..NetworkConfig::default()
        },
        coord_rounds: 8,
        ..PoolConfig::default()
    };
    println!("building a 600-host corporate resource pool...");
    let mut pool = ResourcePool::build(&cfg, 7);

    // Three concurrent meetings with different priorities: an executive
    // review (1), a team standup (2) and a casual chat (3). Disjoint
    // participant sets of 15.
    let sets = pool.partition_members(3, 15, 99);
    let names = ["executive review", "team standup", "casual chat"];
    let mut outcomes = Vec::new();
    for (i, members) in sets.into_iter().enumerate() {
        let spec = SessionSpec {
            id: SessionId(i as u32),
            priority: i as u8 + 1,
            root: members[0],
            members,
        };
        // Practical planning: leafset coordinates + adjustment, helpers on.
        let out = plan_and_reserve(&mut pool, &spec, &PlanConfig::default());
        outcomes.push((names[i], spec.priority, out));
    }

    println!(
        "\n{:<18} {:>8} {:>12} {:>12} {:>9} {:>8}",
        "session", "priority", "AMCast (ms)", "actual (ms)", "improve", "helpers"
    );
    for (name, prio, out) in &outcomes {
        println!(
            "{:<18} {:>8} {:>12.1} {:>12.1} {:>8.1}% {:>8}",
            name,
            prio,
            out.baseline_height,
            out.oracle_height,
            out.improvement * 100.0,
            out.helpers.len()
        );
    }

    // The executive review can steal helpers the chat holds; show a degree
    // table of a contended host if any helper overlaps.
    let total: u32 = pool.tables().total_used();
    println!("\npool degrees reserved across all sessions: {total}");
    if let Some((_, _, out)) = outcomes.first() {
        if let Some(&h) = out.helpers.first() {
            let t = pool.table(h);
            println!("\ndegree table of helper host {} (Figure 9 style):", h.0);
            println!("  d_bound = {}", t.dbound());
            for a in t.allocations() {
                println!(
                    "  rank {} -> {} degree(s) held by session {}",
                    a.rank.0, a.count, a.session.0
                );
            }
            println!("  free    = {}", t.free());
        }
    }
}
