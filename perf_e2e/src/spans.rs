//! Harness spans: `{id, parent, name, start_ns, end_ns, workload, rep}`
//! kept in memory around direct calls into each layer's public functions
//! and written out as JSON lines when the traced run ends. A span's self
//! time is its duration minus the part of it that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Repetition index stamped on spans opened from now on.
    pub rep: u32,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Run `f` under a span named `name`, a child of the innermost open
    /// span. Returns `f`'s result and the span's duration in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        (out, (end - span.start_ns) as f64 / 1e9)
    }

    /// [`Spans::timed`] for callers that only want the result.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, f).0
    }

    /// Total self time, in seconds, of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let selfs = self_ns(&self.spans);
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| *ns as f64 / 1e9)
            .sum()
    }

    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"rep\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, workload, s.rep
            )?;
        }
        out.flush()
    }
}

/// Run `f` under a span if the caller is tracing, bare otherwise: the same
/// code path serves the timed repetition and the traced one.
pub fn in_span<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.scope(name, |_| f()),
        None => f(),
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the parent. Children that
/// overlap each other are counted once.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > a [10,40) > b [20,30); root > c [50,70)
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Children [10,60) and [40,80) overlap on [40,60); a third child
        // [90,130) sticks out of the parent and is clipped to [90,100).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut spans = Spans::new();
        spans.scope("outer", |s| {
            s.scope("inner", |_| ());
            s.scope("inner", |_| ());
        });
        assert_eq!(spans.spans[0].parent, None);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        assert!(spans.spans[0].end_ns >= spans.spans[2].end_ns);
        assert_eq!(spans.names(), vec!["inner", "outer"]);
        let total = (spans.spans[0].end_ns - spans.spans[0].start_ns) as f64 / 1e9;
        let parts = spans.self_s("outer") + spans.self_s("inner");
        assert!((total - parts).abs() < 1e-9);
    }
}
