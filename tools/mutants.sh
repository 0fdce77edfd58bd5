#!/usr/bin/env bash
# Hand-rolled mutation testing: how much can the gates see?
#
#   tools/mutants.sh [REV]
#
# `MUTANTS_ONLY=TEXT` runs only the mutations whose name contains TEXT
# (after the same unmutated baseline), to read one row on its own.
#
# Exports a tree into `$MUTANTS_DIR/tree` (default
# `${TMPDIR:-/tmp}/mutants`): `git archive REV` when a revision is given,
# else every tracked or unignored file of the working tree as it is on
# disk (uncommitted edits included), the way `perf_pairs.sh` exports its
# two sides. No worktree is made and nothing in the repository is written;
# builds go to `$MUTANTS_DIR/target` and are reused by the next run.
#
# The mutations are named (file, exact before-text, after-text) triples in
# the table below; each before-text must occur exactly once in its file.
# First the unmutated tree runs the gates and must pass them all. Then
# each mutation in turn is applied, the gates run, and the file is
# restored. The gates, in order:
#
#   1. tier-1:    `cargo build --release && cargo test -q`
#   2. workspace: `cargo test --workspace --release -q`
#
# Prints one markdown row per mutation: the first gate that went red, with
# the test target cargo names to re-run it and the first failing test, or
# "survives". A mutation that no longer applies is an error, so the table
# must be kept in step with the code. On 2 cores the first run's builds
# and baseline take ≈ 5 min and each mutation 1–2 min (≈ 55 min for the
# table below, 20 of it one row that hits the timeout). This is a
# measurement tool, like `perf_e2e`; no CI job runs it.
set -euo pipefail
if [ $# -gt 1 ]; then
  echo "usage: $0 [REV]" >&2
  exit 2
fi
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="${MUTANTS_DIR:-${TMPDIR:-/tmp}/mutants}"

rm -rf "$dir/tree"
mkdir -p "$dir/tree" "$dir/target"
if [ $# -eq 1 ]; then
  git -C "$root" rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
    echo "not a revision: $1" >&2
    exit 2
  }
  git -C "$root" archive "$1" | tar -xf - -C "$dir/tree"
else
  git -C "$root" ls-files -z --cached --others --exclude-standard |
    (cd "$root" && tar --null --ignore-failed-read -T - -cf -) |
    tar -xf - -C "$dir/tree"
fi

CARGO_TARGET_DIR="$dir/target" python3 - "$dir/tree" "${MUTANTS_ONLY:-}" <<'PY'
import os, re, signal, subprocess, sys

tree, only = sys.argv[1:]

# (name, file, exact before-text, after-text)
MUTANTS = [
    (
        "simplex re-insertion breaks ties by reverse vertex index",
        "crates/coords/src/simplex.rs",
        ".then(order[j - 1].cmp(&v))",
        ".then(v.cmp(&order[j - 1]))",
    ),
    (
        "simplex keeps its pre-shrink order after a shrink",
        "crates/coords/src/simplex.rs",
        "                    self.step = Step::Shrink(k + 1);\n                    return;\n                }\n                sort_from_identity(&mut self.order[..=n], &self.vals);\n",
        "                    self.step = Step::Shrink(k + 1);\n                    return;\n                }\n",
    ),
    (
        "abs_error folds a block's eight terms in reverse pair order",
        "crates/coords/src/space.rs",
        "        for t in terms {\n",
        "        for t in terms.into_iter().rev() {\n",
    ),
    (
        "kernel lookup without the slot-order swap",
        "crates/netsim/src/latency.rs",
        "let (lo_off, hi) = if i <= j { (i_off, j) } else { (j_off, i) };",
        "let (lo_off, hi) = (i_off, j);",
    ),
    (
        "the sketch copies the host set's router and last-hop columns again",
        "crates/oracle/src/sketch.rs",
        "        let host_router = Arc::clone(hosts.routers());\n        let last_hop = Arc::clone(hosts.last_hops());\n",
        "        let host_router: Arc<[u32]> = hosts.routers().iter().copied().collect();\n        let last_hop: Arc<[f64]> = hosts.last_hops().iter().copied().collect();\n",
    ),
    (
        "Ev::End does not release the session's degrees",
        "crates/pool/src/market/mod.rs",
        "                self.pool.release_session(self.slots[i].spec.id);\n",
        "",
    ),
    (
        "available_at counts equal-rank holdings as preemptible (non-strict Rank)",
        "crates/pool/src/degree_table.rs",
        ".filter(|a| a.rank > rank)",
        ".filter(|a| a.rank >= rank)",
    ),
    (
        "Pareto skips reclaim_overshare",
        "crates/pool/src/market/session.rs",
        "                self.reclaim_overshare(i, &shares, now);\n",
        "",
    ),
    (
        "water_fill rounds its last proportional slices up",
        "crates/pool/src/market/session.rs",
        "let slice = (entries[i].0 * level).floor() as u64;",
        "let slice = (entries[i].0 * level).ceil() as u64;",
    ),
    (
        "Pareto weights every class alike",
        "crates/pool/src/market/session.rs",
        "(s.spec.priority as f64, 2 * s.spec.members.len() as u64)",
        "(1.0, 2 * s.spec.members.len() as u64)",
    ),
    (
        "a lease lapses one tick after its deadline",
        "crates/pool/src/degree_table.rs",
        "Some(e) if e <= now",
        "Some(e) if e < now",
    ),
    (
        "renew shortens a lease to the new deadline",
        "crates/pool/src/degree_table.rs",
        "Some(e.max(expires_at))",
        "Some(e.min(expires_at))",
    ),
    (
        "the live-ops log drops slot deltas",
        "crates/pool/src/liveops.rs",
        "            store.append_delta(at, MarketDelta::Slot { index, state });\n",
        "",
    ),
    (
        "a dead host accepts reservations (live and replay alike)",
        "crates/pool/src/lib.rs",
        "        if !self.alive[h.idx()] {\n            return Err(",
        "        if false {\n            return Err(",
    ),
    (
        "the replay ignores a reserve's logged verdict",
        "crates/pool/src/lib.rs",
        'assert!(got == ok, "replayed {op:?}, which now returns ok: {got}");',
        "let _ = (got, ok);",
    ),
    (
        "the gather folds children in reverse tree order",
        "crates/somo/src/flow.rs",
        "for c in self.tree.nodes()[i as usize].children() {",
        "for c in self.tree.nodes()[i as usize].children().rev() {",
    ),
    (
        "the gather ages partials out after two periods, not three",
        "crates/somo/src/flow.rs",
        "self.period.as_micros().saturating_mul(3)",
        "self.period.as_micros().saturating_mul(2)",
    ),
    (
        "top-k prunes a subtree that ties the k-th best",
        "crates/query/src/engine.rs",
        "if max < threshold || max < min_free {",
        "if max <= threshold || max < min_free {",
    ),
    (
        "a heartbeat peer silent for exactly the timeout stays alive",
        "crates/dht/src/proto.rs",
        "let alive = now.saturating_sub(last) < timeout;",
        "let alive = now.saturating_sub(last) <= timeout;",
    ),
    (
        "gossip adopts half-stale peers beyond the receiver's leafset again",
        "crates/dht/src/proto.rs",
        "if in_range(my, at, peers.peers(n.view), ids, r) {",
        "if true {",
    ),
    (
        "a displaced peer that times out is certified dead",
        "crates/dht/src/proto.rs",
        "if !alive && watched.contains(&peer) {",
        "if !alive {",
    ),
    (
        "the residual capacity of a survivor drops its parent link",
        "crates/alm/src/dynamic.rs",
        "(p.dbound)(u) as i64 - live_children - has_parent",
        "(p.dbound)(u) as i64 - live_children",
    ),
    (
        "copy_subtree ignores skip and copies a dead host into a repaired tree",
        "crates/alm/src/dynamic.rs",
        "        if skip.contains(&u) {\n            continue;\n        }\n",
        "",
    ),
    (
        "book skips the helper-budget check",
        "crates/pool/src/task_manager.rs",
        "if helper && helper_spend + degree as u64 > shape.helper_budget {",
        "if false && helper_spend + degree as u64 > shape.helper_budget {",
    ),
    (
        "book books members at the helper rank",
        "crates/pool/src/task_manager.rs",
        "let rank = spec.booking_rank(h, shape.helper_rank);",
        "let rank = shape.helper_rank;",
    ),
    (
        "the retry keeps the candidates its booking refused",
        "crates/pool/src/task_manager.rs",
        "                believed.retain(|(h, _)| !refused.contains(h));\n",
        "",
    ),
    (
        "claims test inverts the multipath comparison",
        "tests/paper_claims.rs",
        "delivery(rate, 2) > delivery(rate, 1)",
        "delivery(rate, 2) < delivery(rate, 1)",
    ),
]

GATES = [
    ("tier-1", [["cargo", "build", "--release", "--offline", "-q"],
                ["cargo", "test", "--offline", "-q"]]),
    ("workspace", [["cargo", "test", "--workspace", "--release", "--offline", "-q"]]),
]


def first_red():
    """The first gate that fails, as a table cell, or None."""
    for gate, commands in GATES:
        for cmd in commands:
            # A session of its own, so a timeout kills the test binary too:
            # killing cargo alone would leave it running.
            run = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   start_new_session=True)
            try:
                out, _ = run.communicate(timeout=1200)
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                return f"{gate}: timed out"
            if run.returncode == 0:
                continue
            if "could not compile" in out:
                return f"{gate}: does not compile"
            target = re.search(r"to rerun pass `([^`]*)`", out)
            test = re.search(r"^---- (\S+) stdout ----", out, re.M)
            cell = f"{gate}: `{target.group(1)}`" if target else f"{gate}: `{' '.join(cmd[1:])}`"
            return cell + (f" `{test.group(1)}`" if test else "")
    return None


def apply(path, before, after):
    text = open(path).read()
    if text.count(before) != 1:
        sys.exit(f"mutation no longer applies: {before!r} occurs "
                 f"{text.count(before)} times in {path}")
    open(path, "w").write(text.replace(before, after))
    return text


print("baseline", file=sys.stderr)
red = first_red()
if red:
    sys.exit(f"the unmutated tree fails {red}")
print("| mutation | file | first gate red |")
print("|---|---|---|")
for name, file, before, after in MUTANTS:
    if only not in name:
        continue
    print(f"mutant: {name}", file=sys.stderr)
    path = f"{tree}/{file}"
    original = apply(path, before, after)
    try:
        red = first_red()
    finally:
        open(path, "w").write(original)
    print(f"| {name} | `{file}` | {red or 'survives'} |", flush=True)
PY
