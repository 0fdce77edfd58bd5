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

/// `(bytes, FNV-1a-64)` of `s`: the digest `testkit::fnv1a64` pins with.
fn digest(s: &str) -> (usize, u64) {
    let hash = s.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (s.len(), hash)
}

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
            .map_or("-".to_owned(), |p| format!("{:?}", digest(&p)));
        let trace = (records.len(), digest(&trace).1);
        let name = format!("{cell:?}");
        format!("{name:<14} trace {trace:?} projection {projection}")
    });
    for line in lines {
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn digest_matches_the_published_fnv1a64_vectors() {
        assert_eq!(digest(""), (0, 0xcbf2_9ce4_8422_2325));
        assert_eq!(digest("a"), (1, 0xaf63_dc4c_8601_ec8c));
        assert_eq!(digest("foobar"), (6, 0x8594_4171_f739_67e8));
    }
}
