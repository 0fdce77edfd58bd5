#!/usr/bin/env bash
# What a change moves in the pinned market cells: a parent revision (A)
# against HEAD (B), cell by cell.
#
#   tools/reanchor.sh PARENT
#
# Both sides are `git archive` exports under one directory,
# `$REANCHOR_DIR` (default `${TMPDIR:-/tmp}/reanchor`), as `a/` and `b/`,
# the way `perf_pairs.sh` exports its two sides; each is built with
# `--release --locked --offline` in its own `target/`. On each side the
# `cells` binary (`crates/bench/src/bin/cells.rs`, so PARENT must have it)
# runs every cell of `bench::cells` once traced and prints its trace's
# `(records, FNV-1a-64)` and its pinned projection's `(bytes, FNV-1a-64)`;
# the traces are kept as `<side>/traces/<cell>.jsonl`.
#
# Prints, for each cell whose line differs, both lines and the first trace
# line that differs (its number and the A and B lines, which carry the
# simulated time, the event and its session), then how many cells moved.
# A trace that is a prefix of the other is reported at the first line the
# shorter one lacks. A cell only B has is listed as new.
#
# Then, for each committed anchor `results/*.json` that differs between
# the two commits, prints every JSON path whose value changed as
# `path: old → new` (a key or element only one side has reads `(absent)`
# on the other), then how many anchors moved. The anchors are compared as
# committed; nothing is regenerated for this.
#
# Last, from `git diff PARENT HEAD` of the test files: every changed line
# that holds a `(usize, u64)` pin pair, named by its `const PIN_…`, its
# pin-table row (`name: … => (…)`) or else its file and the diff hunk's
# function, as `name: old → new`; every changed `holds` / `fails` line of
# `RECORDED` in `tests/paper_claims.rs`, as `old → new: claim`; then
# `k pins moved, j verdicts flipped`. Pins and verdicts are re-recorded by
# hand in the change that moves them, so the diff is their record. The
# tool reports; it writes no pin and nothing in the repository
# (re-pinning stays by hand, as `crates/testkit` says).
set -euo pipefail
if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT" >&2
  exit 2
fi
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
dir="${REANCHOR_DIR:-${TMPDIR:-/tmp}/reanchor}"
git -C "$root" rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
  echo "not a revision: $1" >&2
  exit 2
}

rm -rf "$dir/a" "$dir/b"
mkdir -p "$dir/a" "$dir/b"
git -C "$root" archive "$1" | tar -xf - -C "$dir/a"
git -C "$root" archive HEAD | tar -xf - -C "$dir/b"
for side in a b; do
  echo "building and running $side" >&2
  cargo build --release --locked --offline --quiet -p bench --bin cells \
    --manifest-path "$dir/$side/Cargo.toml"
  "$dir/$side/target/release/cells" --trace-dir "$dir/$side/traces" >"$dir/$side/cells.txt"
done

# The number of the first line at which files $1 and $2 differ, if any.
first_diff() {
  awk 'FNR == NR { a[FNR] = $0; na = FNR; next }
       FNR > na || a[FNR] != $0 { print FNR; found = 1; exit }
       END { if (!found && FNR < na) print FNR + 1 }' "$1" "$2"
}

moved=0 cells=0
while read -r cell rest; do
  cells=$((cells + 1))
  b_line="$(awk -v c="$cell" '$1 == c' "$dir/b/cells.txt" | tr -s ' ')"
  if [ "$cell $rest" = "$b_line" ]; then
    continue
  fi
  moved=$((moved + 1))
  echo "moved: $cell"
  echo "  A: $rest"
  echo "  B: ${b_line#"$cell "}"
  ta="$dir/a/traces/$cell.jsonl" tb="$dir/b/traces/$cell.jsonl"
  if [ -f "$tb" ] && n="$(first_diff "$ta" "$tb")" && [ -n "$n" ]; then
    echo "  first differing trace line: $n"
    echo "    A: $(sed -n "${n}p" "$ta")"
    echo "    B: $(sed -n "${n}p" "$tb")"
  fi
done < <(tr -s ' ' <"$dir/a/cells.txt")
awk 'FNR == NR { a[$1]; next } !($1 in a) { print "new in B: " $1 }' \
  "$dir/a/cells.txt" "$dir/b/cells.txt"
echo "$moved of $cells cells moved"

PYTHONIOENCODING=utf-8 python3 - "$dir/a/results" "$dir/b/results" <<'PY'
import json, os, sys

a_dir, b_dir = sys.argv[1:]
ABSENT = object()


def changes(path, a, b):
    """`(path, old, new)` of every leaf that differs, in document order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            yield from changes(f"{path}.{k}", a.get(k, ABSENT), b.get(k, ABSENT))
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            old = a[i] if i < len(a) else ABSENT
            new = b[i] if i < len(b) else ABSENT
            yield from changes(f"{path}[{i}]", old, new)
    elif type(a) is not type(b) or a != b:
        yield path, a, b


def show(v):
    return "(absent)" if v is ABSENT else json.dumps(v)


def load(d, name):
    p = os.path.join(d, name)
    return json.load(open(p)) if os.path.exists(p) else ABSENT


names = sorted({n for d in (a_dir, b_dir) for n in os.listdir(d) if n.endswith(".json")})
moved = 0
for name in names:
    diffs = list(changes("$", load(a_dir, name), load(b_dir, name)))
    if diffs:
        moved += 1
        print(f"moved: results/{name}")
        for path, old, new in diffs:
            print(f"  {path}: {show(old)} → {show(new)}")
print(f"{moved} of {len(names)} anchors moved")
PY

git -C "$root" diff "$1" HEAD -- 'tests/*.rs' 'crates/*/tests/*.rs' >"$dir/tests.diff"
PYTHONIOENCODING=utf-8 python3 - "$dir/tests.diff" <<'PY'
import re, sys

PAIR = re.compile(r"\((\d+),\s*(0x[0-9a-fA-F]+|\d{6,})\)")
NAME = re.compile(r"\bconst\s+(PIN_\w+)\s*:|^\s*(\w+)\s*:.*=>")
VERDICT = re.compile(r"(holds|fails)  (.*)")
pins, claims = {}, {}
path = context = ""
for line in open(sys.argv[1], encoding="utf-8"):
    line = line.rstrip("\n")
    if line.startswith("diff --git "):
        path = line.split(" b/", 1)[1]
    elif line.startswith("@@"):
        context = line.split("@@")[2].strip().rstrip(" {")
    elif line[:1] in "+-" and not line.startswith(("+++", "---")):
        side, body = line[0], line[1:]
        v = VERDICT.fullmatch(body)
        if path == "tests/paper_claims.rs" and v:
            claims.setdefault(v[2], {})[side] = v[1]
            continue
        for m in PAIR.finditer(body):
            n = NAME.search(body)
            name = (n[1] or n[2]) if n else f"{path}: {context}"
            pins.setdefault(name, {"-": [], "+": []})[side].append(m[0])


def show(vs, i):
    return vs[i] if i < len(vs) else "(absent)"


moved = 0
for name, sides in pins.items():
    old, new = sides["-"], sides["+"]
    if old == new:
        continue
    moved += 1
    for i in range(max(len(old), len(new))):
        print(f"pin {name}: {show(old, i)} → {show(new, i)}")
flipped = 0
for claim, v in claims.items():
    old, new = v.get("-", "(absent)"), v.get("+", "(absent)")
    if old != new:
        flipped += "-" in v and "+" in v
        print(f"verdict {old} → {new}: {claim}")
print(f"{moved} pins moved, {flipped} verdicts flipped")
PY
