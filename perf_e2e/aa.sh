#!/usr/bin/env bash
# A/A check of the benchmark against itself: two interleaved sets (A, B) of
# N runs per workload of one build, run i of both sets on seed i. Prints,
# per workload and end-to-end metric, the two set medians, their gap, each
# set's spread (distance between the quartiles over its median, what the
# benchmark's acceptance uses) and the bound from BENCHMARK.json; the same
# for the printed `run_s`, which is not gated; how many host seconds of
# repetitions a run timed; then checks that everything simulated agreed
# exactly between A and B.
#
#   perf_e2e/aa.sh [N=10] > perf_e2e/AA_RESULTS.md
#
# Progress goes to stderr, the report (markdown) to stdout.
set -euo pipefail
N="${1:-10}"
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
raw="$here/out/aa_raw.txt"
mkdir -p "$here/out"
: >"$raw"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/perf_e2e"
seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"
workloads="$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")"

load_before="$(cut -d' ' -f1-3 /proc/loadavg)"
started="$(date +%s)"
for seed in $(seq 1 "$N"); do
  for w in $workloads; do
    for set in A B; do
      echo "seed $seed  $w  set $set" >&2
      t0="$EPOCHREALTIME"
      out="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)"
      wall="$(python3 -c "print($EPOCHREALTIME - $t0)")"
      line() { grep "^$1 " <<<"$out" | cut -d' ' -f2; }
      echo "$set $w $seed $(line sim_digest) $(line run_s) $(line run_s_total) $(line reps) $wall $(tail -n 1 <<<"$out")" >>"$raw"
    done
  done
done
elapsed=$(( $(date +%s) - started ))

cat <<EOF
# A/A results

Two interleaved sets of $N runs per workload of the same build
(\`perf_e2e/aa.sh $N\`), run *i* of both sets on seed *i*, \`--seconds $seconds\`.

- machine: $(nproc) cores, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | xargs)
- load average before: $load_before, after: $(cut -d' ' -f1-3 /proc/loadavg)
- wall time of all $(( 2 * N * $(wc -w <<<"$workloads") )) runs: ${elapsed} s
- $(rustc --version), $(uname -sr)

EOF
python3 - "$raw" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

raw, bench = sys.argv[1], json.load(open(sys.argv[2]))
runs = {}  # (set, workload) -> list of (seed, digest, result)
for line in open(raw):
    which, workload, seed, digest, run_s, total, reps, wall, result = line.split(" ", 8)
    result = json.loads(result)
    result["metrics"]["run_s"] = {"value": float(run_s)}
    result.update(total=float(total), reps=int(reps), wall=float(wall))
    runs.setdefault((which, workload), []).append((int(seed), digest, result))

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print("Spread = (Q3 - Q1) / median over a set's runs (`statistics.quantiles(values, n=4)`);")
print("gap = (median B - median A) / median A. A bound holds when every |gap| and, except for")
print("`setup_s`, every spread is within it. `run_s` is printed by every run but is not an")
print("end-to-end metric: it has no bound, and its rows are the evidence for that.\n")
print("| workload | metric | median A | median B | gap | spread A | spread B | bound | within |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
worst = {}
for w in [w["name"] for w in bench["workloads"]]:
    for m in bench["end_to_end"] + [{"name": "run_s"}]:
        name, bound = m["name"], m.get("bound")
        a = [r["metrics"][name]["value"] for _, _, r in runs[("A", w)]]
        b = [r["metrics"][name]["value"] for _, _, r in runs[("B", w)]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap, sa, sb = (mb - ma) / ma, spread(a), spread(b)
        # The set-up time's spread is not held to its bound, only its gap.
        held = [abs(gap)] + ([] if name == "setup_s" else [sa, sb])
        worst[name] = max(worst.get(name, 0.0), *held)
        if bound is None:
            shown, ok = "none", "not gated"
        else:
            shown, ok = f"{bound:.0%}", "yes" if max(held) <= bound else "**NO**"
        print(f"| {w} | {name} | {ma:.6g} | {mb:.6g} | {gap:+.1%} | {sa:.1%} | {sb:.1%} | {shown} | {ok} |")

print("\n| metric | worst gap (and spread, where held) | bound | bound / worst |")
print("|---|---:|---:|---:|")
for m in bench["end_to_end"]:
    seen = worst[m["name"]]
    ratio = f"{m['bound'] / seen:.1f}x" if seen > 0 else "exact"
    print(f"| {m['name']} | {seen:.2%} | {m['bound']:.0%} | {ratio} |")
print(f"| run_s | {worst['run_s']:.1%} | none | not gated |")

print("\n## What a run measures\n")
print("Host seconds over all runs of both sets: the repetitions a run times (the sum of its")
print("scenarios' `run_s` samples, printed as `run_s_total`) and the whole process.\n")
print("| workload | scenarios | repetitions timed per run: min / median / max | wall per run: median / max |")
print("|---|---:|---:|---:|")
for w in [w["name"] for w in bench["workloads"]]:
    both = [r for s in "AB" for _, _, r in runs[(s, w)]]
    total, wall = [r["total"] for r in both], [r["wall"] for r in both]
    print(f"| {w} | {both[0]['reps']} | {min(total):.1f} / {statistics.median(total):.1f} / {max(total):.1f} s "
          f"| {statistics.median(wall):.1f} / {max(wall):.1f} s |")

print("\n## Exact agreement between the sets\n")
exact = True
for w in [w["name"] for w in bench["workloads"]]:
    for (sa, da, ra), (sb, db, rb) in zip(runs[("A", w)], runs[("B", w)]):
        same = (
            sa == sb
            and da == db
            and ra["metrics"]["model_cost"] == rb["metrics"]["model_cost"]
            and (ra["attempted"], ra["failed"]) == (rb["attempted"], rb["failed"])
        )
        if not same:
            exact = False
            print(f"- **{w} seed {sa}: sets differ** ({da} vs {db})")
failed = sum(r["failed"] for rs in runs.values() for _, _, r in rs)
print(f"`sim_digest`, `model_cost`, `attempted` and `failed` identical between A and B on every seed: **{'yes' if exact else 'NO'}**.")
print(f"Failed operations over all runs: {failed}.")
PY
