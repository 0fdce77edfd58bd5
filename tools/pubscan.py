#!/usr/bin/env python3
"""Uncalled public API: every `pub` item or field under `crates/*/src` whose
name occurs nowhere outside its own definitions.

    python3 tools/pubscan.py [CHECKOUT]

Reads every `.rs` file under `crates/`, `src/`, `tests/`, `examples/` and
`perf_e2e/src` of CHECKOUT (default: the repository this script is in),
with `#[cfg(test)]` items and `//` comments stripped, so a name that only
unit tests or comments mention counts as uncalled. Integration tests (the
`tests/` directories, root and per crate) are read like any other source:
a name they call counts as called. The scan is by name, not by type: a
name defined k times needs a (k+1)-th occurrence somewhere.

Prints `file: name` for each uncalled item. Exits 1 if any is not in
EXEMPT below, else 0. A name earns an exemption only when the tests of
another module read it (the scan cannot see that use); delete the rest.
"""
import glob
import os
import re
import sys

# (file, name): kept public because tests in another module read them.
EXEMPT = {
    # `DhtSim::true_leafset`: the ground truth the protocol's leafset tests
    # compare each node's believed leafset against.
    ("crates/dht/src/proto.rs", "true_leafset"),
    # `Graph::all_pairs`: the full build `latency.rs`'s restricted Dijkstra
    # is tested against.
    ("crates/netsim/src/graph.rs", "all_pairs"),
    # `Graph::neighbors`: the adjacency `latency.rs` and `topology.rs` tests
    # walk.
    ("crates/netsim/src/graph.rs", "neighbors"),
}

SOURCES = ("crates/**/*.rs", "src/**/*.rs", "tests/**/*.rs", "examples/*.rs", "perf_e2e/src/*.rs")
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
    files = [f for p in SOURCES for f in glob.glob(f"{root}/{p}", recursive=True)]
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
    sys.exit(1 if failed else 0)


main()
