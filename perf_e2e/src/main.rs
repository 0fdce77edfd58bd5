//! `perf_e2e` — the repo's whole-stack benchmark. One invocation runs one
//! workload once, as a fixed number of *scenarios*: the reference scenario
//! (the same in every run) and the rest drawn from `--seed`. For each it
//! builds the inputs (timed, `setup_s`), executes the workload's timed
//! region on a fresh clone (timed, `run_s`) and checks the outcome, all in
//! this one single-threaded process. It prints each metric by name with
//! its unit; the last line of standard output is the result as one JSON
//! object.
//!
//! `--trace 1` is the separate traced run: it prints the per-layer metrics
//! instead and writes the harness spans to `perf_e2e/out/`. `--seconds` is
//! the traced run's budget; the end-to-end run's work is fixed.
//!
//! Closed loop, one thread: the next repetition starts when the previous
//! one has been judged; `plan_threads` is 1.

mod alloc;
mod market;
mod names;
mod plan_scale;
mod recovery;
mod spans;
mod trace;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use simcore::rng::derive_seed;
use simcore::stats::{percentile, OnlineStats};

use names::{END_TO_END, PER_LAYER, REFERENCE_SEED, SCENARIOS, WORKLOADS};
use spans::Spans;
use workload::{Size, Verdict, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn usage() -> String {
    format!(
        "usage: perf_e2e --workload <{}> [--seed N=2024] [--seconds S=22] [--trace 0|1] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2024,
        seconds: 22.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", args.workload, usage()));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{}", usage()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let size = args.size;
    let result = match args.workload.as_str() {
        "market_live_exact" => run(&args, |seed| {
            market::Market::setup(market::Kind::LiveExact, seed, size)
        }),
        "market_faulted_full" => run(&args, |seed| {
            market::Market::setup(market::Kind::FaultedFull, seed, size)
        }),
        "plan_scale_tiered" => run(&args, |seed| plan_scale::PlanScale::setup(seed, size)),
        "recovery_churn" => run(&args, |seed| recovery::Recovery::setup(seed, size)),
        _ => unreachable!("parse_args checked the name"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed repetition on fresh state: its host seconds and its outcome.
fn timed_rep<W: Workload>(w: &W) -> (f64, W::Outcome) {
    let fresh = w.fresh();
    let t0 = Instant::now();
    let out = w.rep(fresh);
    (t0.elapsed().as_secs_f64(), out)
}

/// Judge an outcome (outside the timed region); any violation fails the run.
fn judged<W: Workload>(w: &W, out: &W::Outcome) -> Result<Verdict, String> {
    let v = w.judge(out);
    if !v.violations.is_empty() {
        return Err(format!(
            "{} correctness violations:\n  {}",
            v.violations.len(),
            v.violations.join("\n  ")
        ));
    }
    if v.ops == 0 || !v.model_cost.is_finite() {
        return Err(format!(
            "degenerate run: ops {} model_cost {}",
            v.ops, v.model_cost
        ));
    }
    Ok(v)
}

/// Seed of scenario `i` of a run: the reference scenario first, the rest
/// drawn from `--seed`.
fn scenario_seed(seed: u64, i: usize) -> u64 {
    derive_seed(if i == 0 { REFERENCE_SEED } else { seed }, i as u64)
}

/// Median of a run's samples (the mean of the middle two when even).
fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).expect("a run has at least one scenario")
}

/// What one invocation reports.
struct Report {
    ops: u64,
    failed_ops: u64,
    sim_digest: u64,
    /// `(name, unit, value)` of every metric of the run's kind, in
    /// `BENCHMARK.json` order.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// The end-to-end run: a fixed number of independent inputs, one timed
/// set-up and one timed repetition each. The amount of work does not depend
/// on a clock, so everything simulated is the same in two runs of one seed
/// however fast the host happened to be.
fn end_to_end<W: Workload>(args: &Args, setup: impl Fn(u64) -> W) -> Result<Report, String> {
    let scenarios = match args.size {
        Size::Smoke => 2,
        Size::Full => {
            let listed = WORKLOADS.iter().position(|w| *w == args.workload);
            SCENARIOS[listed.expect("parse_args checked the name")]
        }
    };
    let (mut setup_s, mut rep_s) = (Vec::new(), Vec::new());
    let (mut peak_rss_mb, mut model_cost) = (0.0, 0.0);
    let (mut ops, mut failed_ops, mut digest) = (0, 0, workload::Digest::new());
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for i in 0..scenarios {
        let seed = scenario_seed(args.seed, i);
        let t0 = Instant::now();
        let mut w = setup(seed);
        for _ in 1..W::SETUP_BUILDS {
            w = black_box(setup(black_box(seed)));
        }
        let built = t0.elapsed().as_secs_f64() / f64::from(W::SETUP_BUILDS);
        let (secs, out) = timed_rep(&w);
        if i == 0 {
            // Before the judge allocates, and before any input that
            // depends on `--seed` exists.
            peak_rss_mb = alloc::status_mb("VmHWM");
        }
        let v = judged(&w, &out)?;
        if i == 0 {
            model_cost = v.model_cost;
        }
        let counters: Vec<String> = v.counters.iter().map(|(k, n)| format!("{k} {n}")).collect();
        println!(
            "scenario {i}: setup {:.3?}  rep {secs:.3} s  model_cost {:.4}  {}",
            Duration::from_secs_f64(built),
            v.model_cost,
            counters.join("  ")
        );
        setup_s.push(built);
        rep_s.push(secs);
        ops += v.ops;
        failed_ops += v.failed_ops;
        digest.word(v.sim_digest);
        if totals.is_empty() {
            totals = v.counters;
        } else {
            for (total, (_, n)) in totals.iter_mut().zip(v.counters) {
                total.1 += n;
            }
        }
    }
    let mut reps = OnlineStats::new();
    rep_s.iter().for_each(|&secs| reps.push(secs));
    println!("reps {scenarios}");
    println!("run_s {:?} s", median(&rep_s));
    println!("run_s_min {:.4} s", reps.min());
    println!("run_s_max {:.4} s", reps.max());
    println!("run_s_mean {:.4} s", reps.mean());
    println!("run_s_total {:.4} s", rep_s.iter().sum::<f64>());
    for (name, n) in &totals {
        println!("{name} {n} count");
    }
    let values = [median(&setup_s), peak_rss_mb, model_cost];
    Ok(Report {
        ops,
        failed_ops,
        sim_digest: digest.finish(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, m.unit, value))
            .collect(),
    })
}

/// The traced run, on the first scenario drawn from `--seed`. One untraced
/// repetition is the baseline (`run_s`); the traced one that follows runs
/// on the same inputs and must reach the same verdict, the simulator being
/// deterministic. The rest of the budget belongs to the layer replay.
fn traced<W: Workload>(args: &Args, setup: impl Fn(u64) -> W) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let w = setup(scenario_seed(args.seed, 1));
    let setup_rss_mb = alloc::status_mb("VmRSS");
    let (run_s, out) = timed_rep(&w);
    let verdict = judged(&w, &out)?;
    drop(out);
    let mut spans = Spans::new();
    let (again, mut layer) = w.trace(&mut spans, run_s, deadline);
    let again = judged(&w, &again)?;
    if again != verdict {
        return Err(format!(
            "a repetition on the same inputs diverged (sim_digest {:016x} vs {:016x}): \
             the simulator is not deterministic",
            again.sim_digest, verdict.sim_digest
        ));
    }
    layer.push(("run_s", run_s));
    layer.push(("harness.setup_rss_mb", setup_rss_mb));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.jsonl", args.workload));
    spans
        .write_jsonl(&path, &args.workload)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} ({} names)", path.display(), spans.names().len());
    if let Some((stray, _)) = layer
        .iter()
        .find(|(name, _)| PER_LAYER.iter().all(|m| m.name != *name))
    {
        return Err(format!(
            "the traced run measured an unlisted metric {stray}"
        ));
    }
    // A layer this workload does not exercise reads 0.
    let value = |name| {
        layer
            .iter()
            .find(|(listed, _)| *listed == name)
            .map_or(0.0, |(_, value)| *value)
    };
    Ok(Report {
        ops: verdict.ops,
        failed_ops: verdict.failed_ops,
        sim_digest: verdict.sim_digest,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    })
}

fn run<W: Workload>(args: &Args, setup: impl Fn(u64) -> W) -> Result<(), String> {
    println!(
        "workload {}  seed {}  size {:?}  trace {}",
        args.workload, args.seed, args.size, args.trace as u8
    );
    let report = if args.trace {
        traced(args, setup)?
    } else {
        end_to_end(args, setup)?
    };
    println!("ops {}", report.ops);
    println!("failed_ops {}", report.failed_ops);
    println!("sim_digest {:016x}", report.sim_digest);
    for (name, unit, value) in &report.metrics {
        println!("{name} {value:?} {unit}");
    }
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ops,
        report.failed_ops,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_repetitions_ignores_one_slow_one() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        // One stalled repetition moves the max and the mean, not the
        // median or the min.
        let noisy = [2.0, 2.1, 9.0, 1.9, 2.0];
        let mut reps = OnlineStats::new();
        noisy.iter().for_each(|&secs| reps.push(secs));
        assert_eq!(median(&noisy), 2.0);
        assert_eq!(reps.min(), 1.9);
        assert_eq!(reps.max(), 9.0);
        assert!(reps.mean() > 3.0);
    }
}
