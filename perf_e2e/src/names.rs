//! The names this benchmark prints. `BENCHMARK.json` at the root of the
//! repo lists the same workloads and metrics with the same units; a test
//! holds the two together.

pub struct MetricName {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricName {
    MetricName { name, unit }
}

pub const WORKLOADS: [&str; 4] = [
    "market_live_exact",
    "market_faulted_full",
    "plan_scale_tiered",
    "recovery_churn",
];

/// Scenarios per run at full size, in `WORKLOADS` order (`--smoke` runs 2).
/// Fixed, so that what a run simulates depends on `--seed` alone; sized so
/// that a run times at least 20 s of repetitions on the reference machine
/// (the README's sizing table).
pub const SCENARIOS: [usize; 4] = [9, 5, 5, 13];

/// Scenario 0 of every run is drawn from this seed, not from `--seed`: the
/// reference scenario, the same inputs in every run of a workload. The exact
/// metrics (`model_cost`, `peak_rss_mb`) are read on it, so they differ
/// between two runs only when the code does.
pub const REFERENCE_SEED: u64 = 2004;

pub const END_TO_END: [MetricName; 3] = [
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("model_cost", "x"),
];

/// Per-layer metrics, layer = crate name; `run_s` is the whole stack (one
/// untraced repetition), demoted from the end-to-end metrics because this
/// host cannot hold it to a bound. A workload that does not exercise a
/// layer reports its metrics as 0.
pub const PER_LAYER: [MetricName; 60] = [
    m("run_s", "s"),
    m("netsim.generate_s", "s"),
    m("netsim.dijkstra_row_us", "us"),
    m("dht.ring_build_s", "s"),
    m("dht.heartbeat_msgs", "count"),
    m("dht.msgs_dropped", "count"),
    m("dht.heartbeat_s", "s"),
    m("dht.ns_per_msg", "ns"),
    m("coords.leafset_fit_s", "s"),
    m("coords.gnp_fit_s", "s"),
    m("bwest.estimate_s", "s"),
    m("somo.gather_msgs", "count"),
    m("somo.gather_dropped", "count"),
    m("somo.gather_s", "s"),
    m("somo.ns_per_msg", "ns"),
    m("simcore.queue_ns_per_event", "ns"),
    m("simcore.trace_s", "s"),
    m("oracle.build_s", "s"),
    m("oracle.promotions", "count"),
    m("oracle.evictions", "count"),
    m("oracle.lookups", "count"),
    m("oracle.hot_hit_ratio", "ratio"),
    m("oracle.promote_us_per_row", "us"),
    m("oracle.promote_s_est", "s"),
    m("oracle.lookup_ns", "ns"),
    m("oracle.resident_mb", "MB"),
    m("alm.relaxations", "count"),
    m("alm.amcast_ms", "ms"),
    m("alm.critical_ms", "ms"),
    m("alm.adjust_ms", "ms"),
    m("alm.ns_per_relaxation", "ns"),
    m("query.build_s", "s"),
    m("query.refresh_ms", "ms"),
    m("query.topk_us", "us"),
    m("query.wire_bytes", "bytes"),
    m("runstore.trace_appended", "count"),
    m("runstore.delta_appended", "count"),
    m("runstore.snapshots", "count"),
    m("runstore.append_ns", "ns"),
    m("pool.build_s", "s"),
    m("pool.clone_ms", "ms"),
    m("pool.plan_reserve_ms", "ms"),
    m("pool.reserve_us", "us"),
    m("pool.release_us", "us"),
    m("pool.renew_us", "us"),
    m("pool.expire_leases_us", "us"),
    m("pool.snapshot_report_us", "us"),
    m("pool.liveops_s", "s"),
    m("pool.market.plans", "count"),
    m("pool.market.crash_repairs", "count"),
    m("pool.market.helper_failures", "count"),
    m("pool.market.lapsed_lease_degrees", "count"),
    m("pool.market.us_per_plan", "us"),
    m("pool.market.audit_s", "s"),
    m("pool.market.unattributed_s", "s"),
    m("pool.recovery.unattributed_s", "s"),
    m("harness.alloc_mb", "MB"),
    m("harness.allocs_k", "k"),
    m("harness.setup_rss_mb", "MB"),
    m("harness.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Names are restricted to what `BENCHMARK.json` accepts: a leading letter
    /// or digit, then letters, digits, `_`, `.` and `-`, at most 64 in all.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn names_use_only_the_permitted_characters() {
        for ok in ["run_s", "pool.market.us_per_plan", "9lives", "a-b", "x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "n".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/y",
            "pct%",
            "é",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_printed_name_is_valid_and_used_once() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }

    /// `BENCHMARK.json` must name exactly what the binary prints, with the
    /// same units, in the same order.
    #[test]
    fn benchmark_json_lists_the_same_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is not an array"))
                .iter()
                .map(|e| {
                    e.get(field)
                        .and_then(|v| v.as_str())
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        assert_eq!(listed("workloads", "name"), WORKLOADS);
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = ours.iter().map(|m| m.name).collect();
            let units: Vec<&str> = ours.iter().map(|m| m.unit).collect();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
    }
}
