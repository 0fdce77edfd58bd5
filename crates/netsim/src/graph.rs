//! Weighted undirected graph with single-source shortest paths.
//!
//! Small and purpose-built: the router graph is a few hundred nodes, and we
//! run one Dijkstra per router to build the all-pairs latency matrix. Sources
//! are fanned out across threads (`std::thread::scope`) with each thread
//! writing a disjoint slice of rows, so the result is deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A weighted undirected graph stored as adjacency lists.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<(u32, f32)>>,
}

impl Graph {
    /// A graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Add an undirected edge `a <-> b` with weight `w` (ms). Parallel edges
    /// are ignored; the first weight wins.
    pub fn add_edge(&mut self, a: u32, b: u32, w: f32) {
        assert!(a != b, "self-loop");
        assert!(w >= 0.0, "negative edge weight");
        if self.adj[a as usize].iter().any(|&(n, _)| n == b) {
            return;
        }
        self.adj[a as usize].push((b, w));
        self.adj[b as usize].push((a, w));
    }

    /// Neighbors of `v` with edge weights.
    pub fn neighbors(&self, v: u32) -> &[(u32, f32)] {
        &self.adj[v as usize]
    }

    /// Single-source shortest path distances from `src` (f32 ms;
    /// `f32::INFINITY` for unreachable nodes).
    pub fn dijkstra(&self, src: u32) -> Vec<f32> {
        let n = self.adj.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut heap: BinaryHeap<Reverse<(OrdF32, u32)>> = BinaryHeap::new();
        dist[src as usize] = 0.0;
        heap.push(Reverse((OrdF32(0.0), src)));
        while let Some(Reverse((OrdF32(d), v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            for &(u, w) in &self.adj[v as usize] {
                let nd = d + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(Reverse((OrdF32(nd), u)));
                }
            }
        }
        dist
    }

    /// All-pairs shortest path distances, parallelized across sources.
    /// Row `i` is `dijkstra(i)`.
    pub fn all_pairs(&self) -> Vec<Vec<f32>> {
        let n = self.adj.len();
        let mut rows: Vec<Vec<f32>> = vec![Vec::new(); n];
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(n.max(1));
        let chunk = n.div_ceil(threads.max(1));
        // The scope joins every worker and re-raises a worker's panic.
        std::thread::scope(|s| {
            for (t, slot) in rows.chunks_mut(chunk).enumerate() {
                let base = t * chunk;
                s.spawn(move || {
                    for (i, row) in slot.iter_mut().enumerate() {
                        *row = self.dijkstra((base + i) as u32);
                    }
                });
            }
        });
        rows
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in &self.adj[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.adj.len()
    }
}

/// f32 wrapper that is `Ord` by `total_cmp`: the workspace's comparator
/// convention, a valid total order that does not panic should a poisoned
/// weight ever leak a NaN into the heap. The proptest below holds the heap
/// to a naive `total_cmp` reference bit for bit.
#[derive(PartialEq, Clone, Copy)]
struct OrdF32(f32);
impl Eq for OrdF32 {}
impl PartialOrd for OrdF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, 0 -5- 2 -1- 3
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 2, 5.0);
        g.add_edge(2, 3, 1.0);
        g
    }

    #[test]
    fn dijkstra_shortest_paths() {
        let g = diamond();
        let d = g.dijkstra(0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 2.0]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1.0);
        let d = g.dijkstra(0);
        assert!(d[2].is_infinite());
        assert!(!g.is_connected());
    }

    #[test]
    fn all_pairs_matches_per_source() {
        let g = diamond();
        for (src, row) in g.all_pairs().iter().enumerate() {
            assert_eq!(row, &g.dijkstra(src as u32));
        }
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = diamond();
        let ap = g.all_pairs();
        for (i, row) in ap.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(d, ap[j][i]);
            }
        }
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 9.0);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.dijkstra(0)[1], 1.0);
    }

    /// Naive single-source shortest paths, selecting the frontier by the
    /// workspace's `total_cmp` comparator convention.
    fn dijkstra_ref(g: &Graph, src: u32) -> Vec<f32> {
        let n = g.len();
        let mut dist = vec![f32::INFINITY; n];
        let mut done = vec![false; n];
        dist[src as usize] = 0.0;
        for _ in 0..n {
            let Some(v) = (0..n)
                .filter(|&v| !done[v] && dist[v].is_finite())
                .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
            else {
                break;
            };
            done[v] = true;
            for &(u, w) in g.neighbors(v as u32) {
                let nd = dist[v] + w;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                }
            }
        }
        dist
    }

    proptest::proptest! {
        // On NaN-free random graphs (quantized weights make equal-distance
        // ties common), the `total_cmp`-ordered heap computes the naive
        // `total_cmp` reference's distances bit for bit.
        #[test]
        fn dijkstra_matches_total_cmp_reference_on_nan_free_graphs(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 1u32..20), 1..40),
        ) {
            let mut g = Graph::with_nodes(12);
            for &(a, b, w) in &edges {
                if a != b {
                    g.add_edge(a, b, w as f32 * 0.5);
                }
            }
            for src in 0..12u32 {
                let fast = g.dijkstra(src);
                let slow = dijkstra_ref(&g, src);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                proptest::prop_assert_eq!(&bits(&fast), &bits(&slow));
            }
        }
    }

    #[test]
    fn connected_detection() {
        let g = diamond();
        assert!(g.is_connected());
        assert!(Graph::with_nodes(0).is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }
}
