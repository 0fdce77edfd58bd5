//! Every pinned market cell of [`bench::cells`], run once traced: one line
//! per cell with its trace's `(records, FNV-1a-64 of the JSON lines)` and,
//! where the cell has one, its pinned projection's `(bytes, FNV-1a-64)` —
//! the shapes the root tests' `PIN_*` constants hold. The outcome pins
//! digest the untraced run, which the tests hold equal to the traced one.
//!
//! `--trace-dir DIR` also writes each cell's trace to `DIR/<cell>.jsonl`;
//! `tools/reanchor.sh` compares two revisions' outputs. The binary writes
//! nothing under `results/` and ignores any other argument (CI's anchor
//! loop passes `--trace-out --store-out` to every binary).
//!
//! Run with: `cargo run --release -p bench --bin cells [-- --trace-dir DIR]`

use std::path::PathBuf;

use bench::cells::Cell;
use simcore::trace::to_json_lines;
use testkit::fnv1a64;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_dir = args.iter().position(|a| a == "--trace-dir").map(|i| {
        let dir = PathBuf::from(args.get(i + 1).expect("--trace-dir needs a directory"));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        dir
    });
    let lines = bench::parallel_runs(Cell::ALL.len(), |i| {
        let cell = Cell::ALL[i];
        let (run, records) = cell.run(true);
        let trace = to_json_lines(&records);
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("{cell:?}.jsonl"));
            std::fs::write(&path, &trace)
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        let projection = cell
            .projection(&run)
            .map_or("-".to_owned(), |p| format!("{:?}", (p.len(), fnv1a64(&p))));
        let trace = (records.len(), fnv1a64(&trace));
        let name = format!("{cell:?}");
        format!("{name:<14} trace {trace:?} projection {projection}")
    });
    for line in lines {
        println!("{line}");
    }
}
