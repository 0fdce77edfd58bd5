#!/usr/bin/env python3
"""Uncalled public API: every `pub` item or field under `crates/*/src` whose
name occurs nowhere outside its own definitions.

    python3 tools/pubscan.py [CHECKOUT]

Reads every `.rs` file under `crates/*/src`, `src/`, `examples/` and
`perf_e2e/src` of CHECKOUT (default: the repository this script is in),
with `#[cfg(test)]` items and `//` comments stripped, so a name that only
tests or comments mention counts as uncalled: the integration tests (the
`tests/` directories, root and per crate) are not read. `crates/testkit`,
the tests' own support crate, is not read either. The scan is by name, not
by type: a name defined k times needs a (k+1)-th occurrence somewhere.

Prints `file: name` for each uncalled item. Exits 1 if any is not in
EXEMPT below, or if an EXEMPT entry names no public item of its file (an
exemption does not outlive its item), else 0. A name earns an exemption
only when a test outside its module reads it (the scan cannot see that
use); delete the rest.
"""
import glob
import os
import re
import sys

# (file, name): kept public because tests outside its module read them.
EXEMPT = {
    # `DhtSim::true_leafset`: the ground truth the protocol's leafset tests
    # compare each node's believed leafset against.
    ("crates/dht/src/proto.rs", "true_leafset"),
    # `DhtSim::believed_leafset`: the views crates/dht/tests/pins.rs and
    # tests/determinism.rs pin.
    ("crates/dht/src/proto.rs", "believed_leafset"),
    # `DhtSim::join_via_lookup`: the lookup join crates/dht/tests/pins.rs
    # pins (its `JoinViaLookup` churn).
    ("crates/dht/src/proto.rs", "join_via_lookup"),
    # `TieredOracle::resident_routers`: the hot tier
    # crates/oracle/tests/row_source.rs compares across row sources.
    ("crates/oracle/src/tiered.rs", "resident_routers"),
    # `QueryIndex::member_of_leaf` and `update_member`: the leaf map and the
    # point update crates/query/tests/pins.rs pins.
    ("crates/query/src/index.rs", "member_of_leaf"),
    ("crates/query/src/index.rs", "update_member"),
    # `GatherSim::revive_member`: the revival crates/somo/tests/pins.rs pins.
    ("crates/somo/src/flow.rs", "revive_member"),
    # `newscast::disseminate`: the descent half of the newscast cycle that
    # tests/full_stack.rs plans from.
    ("crates/somo/src/newscast.rs", "disseminate"),
    # `SomoTree::leaves` and `rep_of`: the tree shape
    # crates/somo/tests/pins.rs pins.
    ("crates/somo/src/tree.rs", "leaves"),
    ("crates/somo/src/tree.rs", "rep_of"),
    # `Graph::all_pairs`: the full build `latency.rs`'s restricted Dijkstra
    # is tested against.
    ("crates/netsim/src/graph.rs", "all_pairs"),
    # `Graph::neighbors`: the adjacency `latency.rs` and `topology.rs` tests
    # walk.
    ("crates/netsim/src/graph.rs", "neighbors"),
}

SOURCES = ("crates/*/src/**/*.rs", "src/**/*.rs", "examples/*.rs", "perf_e2e/src/*.rs")
ITEM = r"\bpub (?:const fn|fn|struct|enum|trait|type|const|static|mod) (\w+)|\bpub (\w+):"


def strip(src):
    """`src` without `#[cfg(test)]` items and `//` comments."""
    out, i = [], 0
    for m in re.finditer(r"#\[cfg\(test\)\]", src):
        if m.start() < i:
            continue
        out.append(src[i:m.start()])
        j = m.end()
        while src[j] not in "{;":
            j += 1
        depth = 0
        while src[j] == "{" or depth:
            depth += {"{": 1, "}": -1}.get(src[j], 0)
            j += 1
        i = j + (src[j] == ";")
    out.append(src[i:])
    return re.sub(r"//[^\n]*", "", "".join(out))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.normpath(root)
    files = [f for p in SOURCES for f in glob.glob(f"{root}/{p}", recursive=True)
             if not f.startswith(f"{root}/crates/testkit/")]
    code = {os.path.relpath(f, root): strip(open(f).read()) for f in files}
    defs = [(f, a or b) for f, s in code.items() if re.match(r"crates/\w+/src/", f)
            for a, b in re.findall(ITEM, s)]
    text = "\n".join(code.values())
    failed = False
    for f, n in sorted(set(defs)):
        if n != "main" and len(re.findall(rf"\b{n}\b", text)) <= sum(d == n for _, d in defs):
            exempt = (f, n) in EXEMPT
            failed |= not exempt
            print(f"{f}: {n}" + (" (exempt)" if exempt else ""))
    if failed:
        print("uncalled public API: delete it, or make it private", file=sys.stderr)
    for f, n in sorted(EXEMPT - set(defs)):
        print(f"{f}: {n} (exempt, but no such public item)")
        print("stale exemption: delete its EXEMPT entry", file=sys.stderr)
        failed = True
    sys.exit(1 if failed else 0)


main()
