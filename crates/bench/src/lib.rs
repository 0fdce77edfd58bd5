//! Shared harness for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table/figure from the
//! paper's evaluation: it prints the same rows/series the paper reports and
//! drops a machine-readable JSON copy under `results/` so EXPERIMENTS.md
//! can be refreshed by re-running the binaries.

pub mod cells;

use std::fs;
use std::path::PathBuf;

/// Directory where figure binaries drop their JSON results. Private:
/// [`dump_json`] and [`dump_jsonl`] only write it, so no binary reads what
/// another wrote and the binaries run in any order. The claims that tie
/// one anchor to another are in `tests/paper_claims.rs`.
fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// Write a JSON value to `results/<name>.json`.
pub fn dump_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value).unwrap())
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\n[results written to {}]", path.display());
}

/// Write pre-rendered JSON-lines text (one object per line, e.g. a
/// `simcore::trace` export) to `results/<name>.jsonl`.
pub fn dump_jsonl(name: &str, text: &str) {
    let path = results_dir().join(format!("{name}.jsonl"));
    fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[trace written to {}]", path.display());
}

/// Whether `--trace-out` was passed on the command line: figure binaries
/// that support it attach a ring tracer to one designated run and dump the
/// JSON-lines trace next to their JSON results.
pub fn trace_out_requested() -> bool {
    std::env::args().any(|a| a == "--trace-out")
}

/// Whether `--store-out` was passed on the command line: binaries that
/// attach a live-operations run store dump its trace/delta/snapshot logs
/// as JSON lines next to their JSON results.
pub fn store_out_requested() -> bool {
    std::env::args().any(|a| a == "--store-out")
}

/// Crash `rate` of `num_hosts` hosts permanently, at deterministic times
/// staggered across the middle of a 3600 s run (after the 600 s warm-up,
/// before the last quarter — crashes too close to the horizon exercise
/// nothing). One derivation for every crash-swept anchor, so cells seeded
/// alike share a plan.
pub fn crash_plan(rate: f64, num_hosts: usize, seed: u64) -> simcore::FaultPlan {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let n = (num_hosts as f64 * rate).round() as usize;
    if n == 0 {
        return simcore::FaultPlan::none();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut hosts: Vec<usize> = (0..num_hosts).collect();
    hosts.shuffle(&mut rng);
    let mut plan = simcore::FaultPlan::none();
    for &h in hosts.iter().take(n) {
        let at = rng.random_range(600..2700u64);
        plan = plan.crash_forever(h as u64, simcore::SimTime::from_secs(at));
    }
    plan
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Run `runs` independent jobs across threads, preserving output order.
/// Each job gets its run index; determinism comes from per-run seeds.
pub fn parallel_runs<T: Send>(runs: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if runs == 0 {
        return Vec::new();
    }
    let mut out: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(runs);
    let chunk = runs.div_ceil(threads);
    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|s| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let job = &job;
            let base = t * chunk;
            s.spawn(move || {
                for (i, o) in slot.iter_mut().enumerate() {
                    *o = Some(job(base + i));
                }
            });
        }
    });
    out.into_iter().map(|o| o.expect("job filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_runs_preserves_order() {
        let xs = parallel_runs(37, |i| i * 2);
        assert_eq!(xs, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_runs_of_nothing_is_empty() {
        assert!(parallel_runs(0, |i| i).is_empty());
    }

    #[test]
    fn crashes_round_rate_n_distinct_hosts_once_mid_run() {
        use simcore::{FaultPlan, SimTime};
        let none = crash_plan(0.0, 1200, 7);
        assert_eq!(none, FaultPlan::none());
        assert!(none.crash_edges().is_empty());
        for (rate, n) in [(0.05, 1200), (0.10, 1200), (0.20, 1200), (0.125, 37)] {
            let plan = crash_plan(rate, n, 2011);
            let want = (n as f64 * rate).round() as usize;
            let edges = plan.crash_edges();
            assert_eq!(edges.len(), want, "rate {rate} of {n}");
            let mut hosts: Vec<u64> = edges.iter().map(|&(_, h, _)| h).collect();
            hosts.sort_unstable();
            hosts.dedup();
            assert_eq!(hosts.len(), want, "a host crashes twice");
            for &(at, h, down) in &edges {
                assert!(down, "a permanent crash recovers");
                assert!((h as usize) < n);
                assert!((SimTime::from_secs(600)..SimTime::from_secs(2700)).contains(&at));
            }
            assert_eq!(plan, crash_plan(rate, n, 2011));
        }
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
