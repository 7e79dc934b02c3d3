//! Descriptive statistics over graphs.
//!
//! Used by the dataset generators and their tests to check that the synthetic
//! substitutes have the structural characteristics the paper's evaluation
//! depends on (average degree, degree skew, weight ranges).

use crate::graph::Graph;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of nodes `|V|`.
    pub num_nodes: usize,
    /// Number of undirected edges `|E|`.
    pub num_edges: usize,
    /// Average degree `2|E| / |V|`.
    pub average_degree: f64,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Minimum edge weight.
    pub min_weight: f64,
    /// Maximum edge weight.
    pub max_weight: f64,
    /// Mean edge weight.
    pub mean_weight: f64,
}

impl GraphStats {
    /// Computes statistics for `graph`.
    pub fn compute(graph: &Graph) -> Self {
        let num_nodes = graph.num_nodes();
        let num_edges = graph.num_edges();
        let mut min_degree = usize::MAX;
        let mut max_degree = 0usize;
        for v in graph.node_ids() {
            let d = graph.degree(v);
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
        }
        if num_nodes == 0 {
            min_degree = 0;
        }
        let mut min_weight = f64::INFINITY;
        let mut max_weight = 0.0f64;
        let mut sum_weight = 0.0f64;
        for (_, _, _, w) in graph.edges() {
            let w = w.value();
            min_weight = min_weight.min(w);
            max_weight = max_weight.max(w);
            sum_weight += w;
        }
        if num_edges == 0 {
            min_weight = 0.0;
        }
        GraphStats {
            num_nodes,
            num_edges,
            average_degree: graph.average_degree(),
            min_degree,
            max_degree,
            min_weight,
            max_weight,
            mean_weight: if num_edges == 0 { 0.0 } else { sum_weight / num_edges as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn stats_on_small_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 3.0).unwrap();
        b.add_edge(2, 3, 2.0).unwrap();
        b.add_edge(3, 0, 2.0).unwrap();
        let g = b.build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 4);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.average_degree, 2.0);
        assert_eq!(s.min_degree, 2);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.min_weight, 1.0);
        assert_eq!(s.max_weight, 3.0);
        assert!((s.mean_weight - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats_are_zeroed() {
        let g = GraphBuilder::new(0).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.min_weight, 0.0);
        assert_eq!(s.mean_weight, 0.0);
    }
}
