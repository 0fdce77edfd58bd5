//! The resource report each node publishes to SOMO (Figure 7).
//!
//! A node's report carries what a task manager needs to evaluate it as a
//! helper: its availability at every claim rank (the degree-table
//! breakdown). Aggregation concatenates child entries, keeps the most
//! useful candidates (largest low-priority availability first) and truncates
//! to a cap so reports stay small on their way to the root — the paper's
//! "compression optimization" knob.
//!
//! Network coordinates and bandwidth estimates ride along in the real
//! report (Figure 7 lists them); in this implementation they are stored
//! pool-wide in [`coords::CoordStore`] / [`bwest::BwEstimates`] and keyed by
//! the host id in each entry, which keeps the mergeable part of the report
//! plain data.

use netsim::HostId;
use serde::{Deserialize, Serialize};
use somo::Report;

/// Availability of one host at each claim rank (index = rank 0..=3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateEntry {
    /// The host offering capacity.
    pub host: HostId,
    /// Degrees available to a claim of rank 0 (member), 1, 2, 3.
    pub avail: [u32; 4],
}

/// A mergeable list of helper candidates, capped at `cap` entries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResourceReport {
    /// Candidate entries, best-first.
    pub entries: Vec<CandidateEntry>,
    /// Maximum entries kept after a merge.
    pub cap: usize,
}

impl ResourceReport {
    /// Default entry cap (keeps root reports ~10 KB at 20 B/entry).
    pub const DEFAULT_CAP: usize = 512;

    /// A single-host report.
    pub fn of_member(entry: CandidateEntry) -> ResourceReport {
        ResourceReport {
            entries: vec![entry],
            cap: Self::DEFAULT_CAP,
        }
    }

    /// Candidates with at least `min` degrees available at `rank` (rank
    /// index 0..=3), each with that availability, best first.
    pub fn candidates_at(&self, rank: usize, min: u32) -> impl Iterator<Item = (HostId, u32)> + '_ {
        self.entries
            .iter()
            .map(move |e| (e.host, e.avail[rank]))
            .filter(move |&(_, avail)| avail >= min)
    }

    pub(crate) fn sort_and_cap(&mut self) {
        // Best candidates first under a *strict total order*: availability
        // descending at the weakest rank (3), stronger ranks breaking ties
        // in turn, host id ascending last. No two distinct entries compare
        // equal, so the post-merge order — and which entries survive the
        // cap — is independent of arrival order. At rank 3 this is the
        // key `ResourcePool::candidates` and the query crate's top-k
        // answers use (free degree desc, host id asc); a rank-1 or rank-2
        // list read from the report keeps this rank-3-first order, so it
        // holds the same hosts at the same availability in another order.
        self.entries.sort_by(|a, b| {
            b.avail[3]
                .cmp(&a.avail[3])
                .then(b.avail[2].cmp(&a.avail[2]))
                .then(b.avail[1].cmp(&a.avail[1]))
                .then(b.avail[0].cmp(&a.avail[0]))
                .then(a.host.cmp(&b.host))
        });
        self.entries.dedup_by_key(|e| e.host);
        self.entries.truncate(self.cap);
    }
}

impl Report for ResourceReport {
    fn merge(&mut self, other: &Self) {
        self.entries.extend_from_slice(&other.entries);
        self.cap = self.cap.min(other.cap).max(1);
        self.sort_and_cap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ResourceReport {
        ResourceReport {
            entries: Vec::new(),
            cap: ResourceReport::DEFAULT_CAP,
        }
    }

    fn entry(h: u32, a3: u32) -> CandidateEntry {
        CandidateEntry {
            host: HostId(h),
            avail: [a3 + 1, a3, a3, a3],
        }
    }

    #[test]
    fn merge_concatenates_and_sorts() {
        let mut a = ResourceReport::of_member(entry(1, 2));
        a.merge(&ResourceReport::of_member(entry(2, 5)));
        a.merge(&ResourceReport::of_member(entry(3, 3)));
        let hosts: Vec<u32> = a.entries.iter().map(|e| e.host.0).collect();
        assert_eq!(hosts, vec![2, 3, 1]);
    }

    #[test]
    fn cap_keeps_best() {
        let mut r = empty();
        r.cap = 2;
        for h in 0..10 {
            r.merge(&ResourceReport::of_member(entry(h, h)));
        }
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].host, HostId(9));
        assert_eq!(r.entries[1].host, HostId(8));
    }

    #[test]
    fn candidates_filter_by_rank_availability() {
        let mut r = ResourceReport::of_member(entry(1, 0));
        r.merge(&ResourceReport::of_member(entry(2, 4)));
        let c: Vec<(HostId, u32)> = r.candidates_at(3, 4).collect();
        assert_eq!(c, vec![(HostId(2), 4)]);
        // Rank 0 availability differs from rank 3.
        let c0: Vec<(HostId, u32)> = r.candidates_at(0, 1).collect();
        assert_eq!(c0, vec![(HostId(2), 5), (HostId(1), 1)]);
    }

    #[test]
    fn merge_is_order_insensitive_in_content() {
        let parts: Vec<ResourceReport> = (0..6)
            .map(|h| ResourceReport::of_member(entry(h, h)))
            .collect();
        let mut fwd = empty();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = empty();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn duplicate_hosts_deduped() {
        let mut a = ResourceReport::of_member(entry(1, 2));
        a.merge(&ResourceReport::of_member(entry(1, 2)));
        assert_eq!(a.entries.len(), 1);
    }
}
