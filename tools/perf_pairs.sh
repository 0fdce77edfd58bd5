#!/usr/bin/env bash
# Alternating A/B pairs of perf_e2e workloads: a parent revision (A)
# against the working tree (B), both at `--seed SEED --seconds 22 --trace 0`.
# Pair i runs A first when i is odd and B first when it is even, so a slow
# drift of the machine lands on both sides alike.
#
#   tools/perf_pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...] PAIRS [SEED [TRACED]]
#
# SEED (default 1) is the `--seed` of every run, traced ones included. A
# claimed gain should also hold on a seed the change was not tuned on:
# run the battery again with another SEED. TRACED (default 1) is how many
# `--trace 1` runs each side gets per workload, alternating like the pairs.
#
# A comma-separated list runs the workloads one after another, PAIRS pairs
# each, from one build of each side, e.g.
# `tools/perf_pairs.sh HEAD~1 market_live_exact,market_faulted_full 10`.
#
# Both sides are exported under one directory, `$PERF_PAIRS_DIR` (default
# `${TMPDIR:-/tmp}/perf_pairs`), as `a/` and `b/`: paths of equal length,
# because code generation depends on the checkout's path (netsim's
# `Graph::dijkstra` has come out 276 or 295 instructions from two paths).
# A is `git archive PARENT_REV`; B is every tracked or unignored file of
# the working tree as it is on disk, so uncommitted edits are measured.
# Each side is built from scratch with `--locked --offline`; nothing in the
# repository is written.
#
# Prints one table per workload: per side, the median and the
# interquartile range of `setup_s`, `peak_rss_mb`, `rss_anon_mb`,
# `model_cost` and `run_s`, and in how many pairs B read lower than A (all
# five are lower-is-better). `rss_anon_mb` is this script's own figure:
# the peak of the run's `RssAnon` (anonymous memory: heap and stacks, not
# the executable's pages, which `peak_rss_mb`'s `VmHWM` also counts),
# sampled from `/proc/<pid>/status` every ≈ 5 ms over the whole run. A
# metric's move is
# resolved when one side wins at least 9 of 10 pairs and the medians lie
# further apart than A's interquartile range. Last, one verdict each for
# `sim_digest`, `ops` and `failed_ops`: "equal in every pair" with its
# value, or "DIFFERS" with each `A value → B value` and the pairs that
# read it. Each must be equal, for one seed, unless the change moves the
# simulation on purpose; a moved digest with equal `ops` and `failed_ops`
# moved state the op counts do not see.
#
# Then the traced runs' timings: every output line whose unit is `s`,
# `ms`, `us` or `ns` (`run_s`, `oracle.lookup_ns`, ...) and that is not 0
# in every run, per side, the median over the traced runs and in how many
# traced pairs B read lower. With fewer than 3 traced pairs the win
# columns read "–": one or two pairs of a per-layer timing are below its
# noise, so they give no count that could read as a regression.
#
# Then the exact counts: every output line whose unit is `count`, from
# each untraced pair and from the `--trace 1` runs after them, is compared
# run for run. The script prints "exact counts equal" or, for each count
# that moved, its name with its A and B values. The units come from
# perf_e2e's own output; no list of names is kept here. The raw lines are
# kept in `$PERF_PAIRS_DIR/<workload>.txt`, the counts in
# `$PERF_PAIRS_DIR/<workload>.counts` and the traced timings in
# `$PERF_PAIRS_DIR/<workload>.timings`.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  echo "usage: $0 PARENT_REV WORKLOAD[,WORKLOAD...] PAIRS [SEED [TRACED]]" >&2
  exit 2
fi
rev="$1" pairs="$3" seed="${4:-1}" traced="${5:-1}"
IFS=, read -ra workloads <<<"$2"
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="${PERF_PAIRS_DIR:-${TMPDIR:-/tmp}/perf_pairs}"
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
  echo "not a revision: $rev" >&2
  exit 2
}

rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b"
git -C "$root" archive "$rev" | tar -xf - -C "$dir/a"
git -C "$root" ls-files -z --cached --others --exclude-standard |
  (cd "$root" && tar --null --ignore-failed-read -T - -cf -) |
  tar -xf - -C "$dir/b"
for side in a b; do
  echo "building $side" >&2
  cargo build --release --locked --offline --quiet \
    --manifest-path "$dir/$side/perf_e2e/Cargo.toml"
done

# Appends `RUN SIDE NAME VALUE` for every `NAME VALUE count` line of $out.
keep_counts() {
  awk -v run="$1" -v side="$2" 'NF == 3 && $3 == "count" { print run, side, $1, $2 }' \
    <<<"$out" >>"$counts"
}

# Runs its arguments, prints their output and then one line
# `rss_anon_mb PEAK`: the highest `RssAnon` of the process's
# `/proc/<pid>/status`, sampled every ≈ 5 ms, in MB (kB / 1000, as
# perf_e2e reports `peak_rss_mb`).
sampled() {
  python3 - "$@" <<'PY'
import subprocess, sys, tempfile, time

with tempfile.TemporaryFile("w+") as out:
    run = subprocess.Popen(sys.argv[1:], stdout=out)
    peak = 0
    while run.poll() is None:
        try:
            with open(f"/proc/{run.pid}/status") as status:
                for line in status:
                    if line.startswith("RssAnon:"):
                        peak = max(peak, int(line.split()[1]))
        except (FileNotFoundError, ProcessLookupError):
            pass
        time.sleep(0.005)
    out.seek(0)
    sys.stdout.write(out.read())
if run.returncode:
    sys.exit(run.returncode)
print(f"rss_anon_mb {peak / 1000}")
PY
}

for workload in "${workloads[@]}"; do
  raw="$dir/$workload.txt" counts="$dir/$workload.counts"
  : >"$raw"
  : >"$counts"
  for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
      echo "$workload: pair $i/$pairs  $side" >&2
      out="$(sampled "$dir/$side/perf_e2e/target/release/perf_e2e" \
        --workload "$workload" --seed "$seed" --seconds 22 --trace 0)"
      field() { grep "^$1 " <<<"$out" | cut -d' ' -f2; }
      echo "$i $side $(field ops) $(field failed_ops) $(field sim_digest)" \
        "$(field setup_s) $(field peak_rss_mb) $(field rss_anon_mb) $(field model_cost)" \
        "$(field run_s)" >>"$raw"
      keep_counts "$i" "$side"
    done
  done
  timings="$dir/$workload.timings"
  : >"$timings"
  for t in $(seq 1 "$traced"); do
    if ((t % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
      echo "$workload: traced $t/$traced  $side" >&2
      out="$("$dir/$side/perf_e2e/target/release/perf_e2e" \
        --workload "$workload" --seed "$seed" --seconds 22 --trace 1)"
      keep_counts "trace$t" "$side"
      awk -v run="$t" -v side="$side" \
        'NF == 3 && $3 ~ /^(s|ms|us|ns)$/ { print run, side, $1, $2, $3 }' \
        <<<"$out" >>"$timings"
    done
  done
done

PYTHONIOENCODING=utf-8 python3 - "$dir" "$rev" "$seed" "${workloads[@]}" <<'PY'
import statistics, sys

dir, rev, seed, *workloads = sys.argv[1:]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def table(workload):
    runs = {"a": {}, "b": {}}
    for line in open(f"{dir}/{workload}.txt"):
        i, side, ops, failed, digest, *values = line.split()
        runs[side][int(i)] = ((ops, failed, digest), [float(v) for v in values])
    pairs = sorted(runs["a"])
    print(f"{workload}: A = {rev}, B = working tree, {len(pairs)} alternating pairs,"
          f" seed {seed}\n")
    print("| metric | median A | IQR A | median B | IQR B | B lower | A lower | resolved |")
    print("|---|---:|---:|---:|---:|---:|---:|---|")
    for k, name in enumerate(["setup_s", "peak_rss_mb", "rss_anon_mb", "model_cost", "run_s"]):
        a = [runs["a"][i][1][k] for i in pairs]
        b = [runs["b"][i][1][k] for i in pairs]
        qa, qb = quartiles(a), quartiles(b)
        b_wins = sum(y < x for x, y in zip(a, b))
        a_wins = sum(x < y for x, y in zip(a, b))
        need = -(-9 * len(pairs) // 10)
        wide = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        if b_wins >= need and wide:
            resolved = "B better"
        elif a_wins >= need and wide:
            resolved = "B worse"
        else:
            resolved = "no"
        print(f"| {name} | {qa[1]:.6g} | {qa[2] - qa[0]:.3g} | {qb[1]:.6g} | {qb[2] - qb[0]:.3g}"
              f" | {b_wins} | {a_wins} | {resolved} |")
    print()
    for k, name in [(2, "sim_digest"), (0, "ops"), (1, "failed_ops")]:
        # (A value, B value) -> the pairs that read it.
        moved = {}
        for i in pairs:
            a, b = runs["a"][i][0][k], runs["b"][i][0][k]
            if a != b:
                moved.setdefault((a, b), []).append(str(i))
        if not moved:
            values = sorted({runs["a"][i][0][k] for i in pairs})
            print(f"{name} equal in every pair: {', '.join(values)}")
        for (a, b), at in moved.items():
            print(f"{name} DIFFERS: A {a} → B {b} in pairs {', '.join(at)} of {len(pairs)}")
    print()
    timings(workload)
    counts(workload)


def timings(workload):
    # name -> unit, and (name, side) -> {traced run: value}.
    units, seen = {}, {}
    for line in open(f"{dir}/{workload}.timings"):
        run, side, name, value, unit = line.split()
        units[name] = unit
        seen.setdefault((name, side), {})[run] = float(value)
    if not units:
        return
    runs = max(len(v) for v in seen.values())
    few = runs < 3
    note = " (n < 3: no win counts)" if few else ""
    print(f"traced timings, median of {runs} run(s) a side{note}:\n")
    print("| metric | unit | median A | median B | B lower | A lower |")
    print("|---|---|---:|---:|---:|---:|")
    for name, unit in units.items():
        a, b = seen.get((name, "a"), {}), seen.get((name, "b"), {})
        if not any(a.values()) and not any(b.values()):
            continue  # a layer this workload does not exercise reads 0
        both = sorted(set(a) & set(b))
        b_wins = "–" if few else sum(b[r] < a[r] for r in both)
        a_wins = "–" if few else sum(a[r] < b[r] for r in both)
        med = lambda xs: f"{statistics.median(xs.values()):.6g}" if xs else "-"
        print(f"| {name} | {unit} | {med(a)} | {med(b)} | {b_wins} | {a_wins} |")
    print()


def counts(workload):
    # (run, name) -> {side: value}; a count one side lacks reads "-".
    seen = {}
    for line in open(f"{dir}/{workload}.counts"):
        run, side, name, value = line.split()
        seen.setdefault((run, name), {})[side] = value
    moved = {}
    for (run, name), v in seen.items():
        a, b = v.get("a", "-"), v.get("b", "-")
        if a != b:
            moved.setdefault(name, set()).add((a, b))
    if not moved:
        names = {name for _, name in seen}
        runs = {run for run, _ in seen}
        print(f"exact counts equal: {len(names)} names over {len(runs)} runs per side")
    for name in sorted(moved):
        pairs = ", ".join(f"A {a} B {b}" for a, b in sorted(moved[name]))
        print(f"count moved: {name}: {pairs}")


for k, workload in enumerate(workloads):
    if k:
        print()
    table(workload)
PY
