#!/usr/bin/env bash
# Alternating A/B pairs of perf_e2e workloads: a parent revision (A)
# against the working tree (B), both at `--seed 1 --seconds 22 --trace 0`.
# Pair i runs A first when i is odd and B first when it is even, so a slow
# drift of the machine lands on both sides alike.
#
#   tools/perf_pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...] PAIRS
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
# interquartile range of `setup_s`,
# `peak_rss_mb`, `model_cost` and `run_s`, and in how many pairs B read
# lower than A (all four are lower-is-better). A metric's move is
# resolved when one side wins at least 9 of 10 pairs and the medians lie
# further apart than A's interquartile range. Last, whether `sim_digest`,
# `ops` and `failed_ops` agreed in every pair: they must, for one seed,
# unless the change moves the simulation on purpose.
#
# Then the exact counts: every output line whose unit is `count`, from
# each untraced pair and from one `--trace 1` run per side per workload
# after its pairs, is compared run for run. The script prints "exact
# counts equal" or, for each count that moved, its name with its A and B
# values. The units come from perf_e2e's own output; no list of names is
# kept here. The raw lines are kept in `$PERF_PAIRS_DIR/<workload>.txt`
# and the counts in `$PERF_PAIRS_DIR/<workload>.counts`, one pair of files
# per workload.
set -euo pipefail
if [ $# -ne 3 ]; then
  echo "usage: $0 PARENT_REV WORKLOAD[,WORKLOAD...] PAIRS" >&2
  exit 2
fi
rev="$1" pairs="$3"
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

for workload in "${workloads[@]}"; do
  raw="$dir/$workload.txt" counts="$dir/$workload.counts"
  : >"$raw"
  : >"$counts"
  for i in $(seq 1 "$pairs"); do
    if ((i % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do
      echo "$workload: pair $i/$pairs  $side" >&2
      out="$("$dir/$side/perf_e2e/target/release/perf_e2e" \
        --workload "$workload" --seed 1 --seconds 22 --trace 0)"
      field() { grep "^$1 " <<<"$out" | cut -d' ' -f2; }
      echo "$i $side $(field ops) $(field failed_ops) $(field sim_digest)" \
        "$(field setup_s) $(field peak_rss_mb) $(field model_cost) $(field run_s)" >>"$raw"
      keep_counts "$i" "$side"
    done
  done
  for side in a b; do
    echo "$workload: traced  $side" >&2
    out="$("$dir/$side/perf_e2e/target/release/perf_e2e" \
      --workload "$workload" --seed 1 --seconds 22 --trace 1)"
    keep_counts trace "$side"
  done
done

python3 - "$dir" "$rev" "${workloads[@]}" <<'PY'
import statistics, sys

dir, rev, *workloads = sys.argv[1:]


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
    print(f"{workload}: A = {rev}, B = working tree, {len(pairs)} alternating pairs\n")
    print("| metric | median A | IQR A | median B | IQR B | B lower | A lower | resolved |")
    print("|---|---:|---:|---:|---:|---:|---:|---|")
    for k, name in enumerate(["setup_s", "peak_rss_mb", "model_cost", "run_s"]):
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
    same = all(runs["a"][i][0] == runs["b"][i][0] for i in pairs)
    ops, failed, digest = runs["a"][pairs[0]][0]
    print()
    if same:
        print(f"sim_digest, ops, failed_ops equal in every pair: {digest}, {ops}, {failed}")
    else:
        for i in pairs:
            print(f"pair {i}: A {runs['a'][i][0]}  B {runs['b'][i][0]}")
        print("sim_digest, ops, failed_ops DIFFER")
    print()
    counts(workload)


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
