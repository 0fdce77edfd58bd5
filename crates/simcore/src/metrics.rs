//! A counters / gauges registry with deterministic export.
//!
//! The workspace grew several disjoint accounting mechanisms — the ALM
//! relaxation counters, the SOMO `TrafficLedger`, the market's leak census,
//! the recovery timeline. [`MetricsRegistry`] unifies them behind one
//! name-keyed interface so a run's accounting can be collected in one place
//! and exported as JSON lines next to the event trace.
//!
//! Names are dot-separated paths (`"gather.rounds_completed"`,
//! `"market.leaked_degrees"`). Storage is `BTreeMap`-backed, so export
//! order is the sorted name order — deterministic regardless of insertion
//! order, which keeps same-seed runs byte-identical.

use std::collections::BTreeMap;

/// Name-keyed counters and gauges. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment counter `name` by 1 (creating it at 0 first if absent).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Add `delta` to counter `name` (creating it at 0 first if absent).
    /// Accumulation saturates at `u64::MAX`: a hot counter on a long-lived
    /// live market pins at the ceiling instead of wrapping (or panicking
    /// under debug assertions).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Export every metric as JSON lines, one object per line, sorted by
    /// kind then name. Byte-identical across same-seed runs.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}\n",
                json_str(name),
                v
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}\n",
                json_str(name),
                fmt_f64(*v)
            ));
        }
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn export_order_is_independent_of_insertion_order() {
        let mut a = MetricsRegistry::new();
        a.inc("b.second");
        a.inc("a.first");
        a.set_gauge("z", 1.5);
        let mut b = MetricsRegistry::new();
        b.set_gauge("z", 1.5);
        b.inc("a.first");
        b.inc("b.second");
        assert_eq!(a.to_json_lines(), b.to_json_lines());
        let text = a.to_json_lines();
        let first = text.lines().next().unwrap();
        assert!(first.contains("a.first"), "sorted order: {first}");
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut m = MetricsRegistry::new();
        m.add("hot", u64::MAX - 1);
        // The add that would overflow pins the counter at the ceiling.
        m.add("hot", 5);
        assert_eq!(m.counter("hot"), u64::MAX);
        m.inc("hot");
        assert_eq!(m.counter("hot"), u64::MAX);
    }
}
