//! Hopcroft–Karp maximum bipartite matching.
//!
//! On a crossbar (or any single-stage) RSIN the scheduling problem loses
//! its interior structure entirely: a request can be paired with a free
//! resource iff the single connecting link is free, so the optimal mapping
//! is a maximum matching of the accessibility graph. Hopcroft–Karp is the
//! specialized `O(E·√V)` algorithm for exactly this case — the degenerate
//! end of the paper's reduction, where "maximum flow" collapses to
//! "maximum matching". Cross-checked against Dinic on the equivalent flow
//! network by tests and the property suite.

use std::collections::VecDeque;

/// Maximum-matching result: `pair_left[l] = Some(r)` iff left vertex `l`
/// is matched to right vertex `r`.
#[derive(Debug, Clone)]
pub struct Matching {
    /// Partner of each left vertex.
    pub pair_left: Vec<Option<usize>>,
    /// Partner of each right vertex.
    pub pair_right: Vec<Option<usize>>,
    /// Number of matched pairs.
    pub size: usize,
    /// BFS/DFS phases executed (O(√V) of them).
    pub phases: usize,
}

/// A bipartite graph given as adjacency lists of the left side.
///
/// ```
/// use rsin_flow::bipartite::Bipartite;
/// let mut g = Bipartite::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(0, 1);
/// g.add_edge(1, 0);
/// assert_eq!(g.hopcroft_karp().size, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bipartite {
    adj: Vec<Vec<usize>>,
    n_right: usize,
}

impl Bipartite {
    /// Graph with `n_left` left and `n_right` right vertices, no edges.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        Bipartite {
            adj: vec![Vec::new(); n_left],
            n_right,
        }
    }

    /// Add an edge `(l, r)`.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(r < self.n_right);
        self.adj[l].push(r);
    }

    /// Number of left vertices.
    pub fn n_left(&self) -> usize {
        self.adj.len()
    }

    /// Number of right vertices.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Compute a maximum matching with Hopcroft–Karp.
    pub fn hopcroft_karp(&self) -> Matching {
        let nl = self.adj.len();
        let nr = self.n_right;
        let mut pair_left: Vec<Option<usize>> = vec![None; nl];
        let mut pair_right: Vec<Option<usize>> = vec![None; nr];
        let mut dist: Vec<u32> = vec![0; nl];
        const INF: u32 = u32::MAX;
        let mut size = 0usize;
        let mut phases = 0usize;

        loop {
            // BFS layering over free left vertices.
            phases += 1;
            let mut queue = VecDeque::new();
            for l in 0..nl {
                if pair_left[l].is_none() {
                    dist[l] = 0;
                    queue.push_back(l);
                } else {
                    dist[l] = INF;
                }
            }
            let mut found_augmenting = false;
            while let Some(l) = queue.pop_front() {
                for &r in &self.adj[l] {
                    match pair_right[r] {
                        None => found_augmenting = true,
                        Some(l2) => {
                            if dist[l2] == INF {
                                dist[l2] = dist[l] + 1;
                                queue.push_back(l2);
                            }
                        }
                    }
                }
            }
            if !found_augmenting {
                break;
            }
            // DFS augmentation along the layering.
            fn try_augment(
                l: usize,
                adj: &[Vec<usize>],
                pair_left: &mut [Option<usize>],
                pair_right: &mut [Option<usize>],
                dist: &mut [u32],
            ) -> bool {
                for i in 0..adj[l].len() {
                    let r = adj[l][i];
                    let ok = match pair_right[r] {
                        None => true,
                        Some(l2) => {
                            dist[l2] == dist[l].wrapping_add(1)
                                && try_augment(l2, adj, pair_left, pair_right, dist)
                        }
                    };
                    if ok {
                        pair_left[l] = Some(r);
                        pair_right[r] = Some(l);
                        return true;
                    }
                }
                dist[l] = u32::MAX;
                false
            }
            for l in 0..nl {
                if pair_left[l].is_none()
                    && try_augment(l, &self.adj, &mut pair_left, &mut pair_right, &mut dist)
                {
                    size += 1;
                }
            }
        }
        Matching {
            pair_left,
            pair_right,
            size,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{FlowNetwork, FlowNetworkBuilder};
    use crate::max_flow::{solve, Algorithm};
    use crate::NodeId;

    /// Flow-network equivalent of a bipartite graph, for cross-checking.
    fn as_flow(g: &Bipartite) -> (FlowNetwork, NodeId, NodeId) {
        let mut f = FlowNetworkBuilder::new();
        let s = f.add_node("s");
        let t = f.add_node("t");
        let lefts: Vec<_> = (0..g.n_left())
            .map(|i| f.add_node(format!("l{i}")))
            .collect();
        let rights: Vec<_> = (0..g.n_right())
            .map(|i| f.add_node(format!("r{i}")))
            .collect();
        for &l in &lefts {
            f.add_arc(s, l, 1, 0);
        }
        for &r in &rights {
            f.add_arc(r, t, 1, 0);
        }
        for (l, nbrs) in g.adj.iter().enumerate() {
            for &r in nbrs {
                f.add_arc(lefts[l], rights[r], 1, 0);
            }
        }
        let f = f.build();
        (f, s, t)
    }

    #[test]
    fn perfect_matching_on_cycle() {
        // 4+4 cycle graph: perfect matching exists.
        let mut g = Bipartite::new(4, 4);
        for i in 0..4 {
            g.add_edge(i, i);
            g.add_edge(i, (i + 1) % 4);
        }
        let m = g.hopcroft_karp();
        assert_eq!(m.size, 4);
        // Consistency of the two pairing arrays.
        for (l, pr) in m.pair_left.iter().enumerate() {
            if let Some(r) = pr {
                assert_eq!(m.pair_right[*r], Some(l));
            }
        }
    }

    #[test]
    fn koenig_style_deficiency() {
        // Three left vertices all adjacent only to one right vertex.
        let mut g = Bipartite::new(3, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(2, 0);
        let m = g.hopcroft_karp();
        assert_eq!(m.size, 1);
    }

    #[test]
    fn empty_graph() {
        let g = Bipartite::new(3, 3);
        let m = g.hopcroft_karp();
        assert_eq!(m.size, 0);
        assert_eq!(m.phases, 1);
    }

    #[test]
    fn augmenting_chain_instance() {
        // Classic alternating-path case requiring rematching.
        let mut g = Bipartite::new(3, 3);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 1);
        g.add_edge(2, 2);
        let m = g.hopcroft_karp();
        assert_eq!(m.size, 3);
    }

    #[test]
    fn matches_dinic_on_pseudo_random_graphs() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..25 {
            let nl = 2 + (next() % 7) as usize;
            let nr = 2 + (next() % 7) as usize;
            let mut g = Bipartite::new(nl, nr);
            for l in 0..nl {
                for r in 0..nr {
                    if next() % 3 == 0 {
                        g.add_edge(l, r);
                    }
                }
            }
            let m = g.hopcroft_karp();
            let (mut f, s, t) = as_flow(&g);
            let mf = solve(&mut f, s, t, Algorithm::Dinic);
            assert_eq!(m.size as i64, mf.value, "{nl}x{nr}");
        }
    }

    #[test]
    fn phases_are_sublinear() {
        // A long chain forcing several phases but far fewer than V.
        let n = 64;
        let mut g = Bipartite::new(n, n);
        for i in 0..n {
            g.add_edge(i, i);
            if i + 1 < n {
                g.add_edge(i, i + 1);
            }
        }
        let m = g.hopcroft_karp();
        assert_eq!(m.size, n);
        assert!(
            m.phases as f64 <= (n as f64).sqrt() + 2.0,
            "phases {}",
            m.phases
        );
    }
}
