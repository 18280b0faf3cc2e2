//! Undirected graphs and an exact 3-coloring solver.

use rand::Rng;

/// A simple undirected graph over vertices `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    vertices: usize,
    edges: Vec<(usize, usize)>,
}

impl Graph {
    /// The graph with `vertices` vertices and no edges.
    pub fn new(vertices: usize) -> Graph {
        Graph {
            vertices,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(vertices: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(vertices);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the undirected edge `{u, v}` (self-loops and duplicates ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.vertices && v < self.vertices,
            "vertex out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = (u.min(v), u.max(v));
        if !self.edges.contains(&(a, b)) {
            self.edges.push((a, b));
        }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// The edges, each as `(min, max)`, in insertion order.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// An Erdős–Rényi random graph `G(n, p)`.
    pub fn random<R: Rng>(rng: &mut R, vertices: usize, edge_probability: f64) -> Graph {
        let mut g = Graph::new(vertices);
        for u in 0..vertices {
            for v in (u + 1)..vertices {
                if rng.gen_bool(edge_probability) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// The cycle on `n` vertices.
    pub fn cycle(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    /// The complete graph on `n` vertices.
    pub fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Finds a proper 3-coloring by backtracking, if one exists.
    fn find_three_coloring(&self) -> Option<Vec<u8>> {
        let mut colors = vec![3u8; self.vertices]; // 3 = uncolored
        if self.color_rec(0, &mut colors) {
            Some(colors)
        } else {
            None
        }
    }

    fn color_rec(&self, vertex: usize, colors: &mut Vec<u8>) -> bool {
        if vertex == self.vertices {
            return true;
        }
        for c in 0..3u8 {
            if self
                .edges
                .iter()
                .filter(|&&(u, v)| u == vertex || v == vertex)
                .all(|&(u, v)| {
                    let other = if u == vertex { v } else { u };
                    colors[other] != c
                })
            {
                colors[vertex] = c;
                if self.color_rec(vertex + 1, colors) {
                    return true;
                }
                colors[vertex] = 3;
            }
        }
        false
    }

    /// Whether the graph admits a proper 3-coloring.
    pub fn is_three_colorable(&self) -> bool {
        self.find_three_coloring().is_some()
    }

    /// Whether `coloring` is a proper coloring (adjacent vertices differ).
    #[cfg(test)]
    fn is_proper_coloring(&self, coloring: &[u8]) -> bool {
        coloring.len() == self.vertices
            && self.edges.iter().all(|&(u, v)| coloring[u] != coloring[v])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_is_three_colorable() {
        let g = Graph::cycle(3);
        let coloring = g.find_three_coloring().unwrap();
        assert!(g.is_proper_coloring(&coloring));
    }

    #[test]
    fn k4_is_not_three_colorable() {
        assert!(!Graph::complete(4).is_three_colorable());
        assert!(Graph::complete(3).is_three_colorable());
    }

    #[test]
    fn odd_and_even_cycles() {
        assert!(Graph::cycle(4).is_three_colorable());
        assert!(Graph::cycle(5).is_three_colorable());
        assert!(Graph::cycle(7).is_three_colorable());
    }

    #[test]
    fn empty_and_edgeless_graphs_are_colorable() {
        assert!(Graph::new(0).is_three_colorable());
        assert!(Graph::new(5).is_three_colorable());
    }

    #[test]
    fn self_loops_and_duplicate_edges_are_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edges().len(), 1);
    }

    #[test]
    fn random_graphs_have_plausible_edge_counts() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Graph::random(&mut rng, 10, 0.5);
        // 45 possible edges; with p=0.5 expect between 10 and 35.
        assert!(g.edges().len() > 10 && g.edges().len() < 35);
        let dense = Graph::random(&mut rng, 6, 1.0);
        assert_eq!(dense.edges().len(), 15);
    }

    #[test]
    fn k4_plus_isolated_vertices_still_not_colorable() {
        let mut g = Graph::complete(4);
        g = Graph::from_edges(6, g.edges());
        assert!(!g.is_three_colorable());
    }

    #[test]
    fn proper_coloring_validation() {
        let g = Graph::cycle(4);
        assert!(g.is_proper_coloring(&[0, 1, 0, 1]));
        assert!(!g.is_proper_coloring(&[0, 0, 1, 1]));
        assert!(!g.is_proper_coloring(&[0, 1]));
    }
}
