//! Routes for continuous RNN queries.
//!
//! The paper (Section 5.1) defines a continuous query over a predefined route
//! `r = <n_1, n_2, ..., n_r>` where consecutive nodes are connected by an
//! edge; the query retrieves the union of the RkNN sets of all route nodes,
//! using the route distance `d(r, n) = min_i d(n_i, n)`.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::weight::Weight;

/// A simple path of nodes used as the source of a continuous RNN query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    nodes: Vec<NodeId>,
}

impl Route {
    /// Creates a route from a node sequence, validating that consecutive
    /// nodes are adjacent in `graph`.
    pub fn new(graph: &Graph, nodes: Vec<NodeId>) -> Result<Self, GraphError> {
        for pair in nodes.windows(2) {
            if !graph.are_adjacent(pair[0], pair[1]) {
                return Err(GraphError::RouteNotConnected { from: pair[0], to: pair[1] });
            }
        }
        Ok(Route { nodes })
    }

    /// Creates a route without adjacency validation.
    ///
    /// Useful when the caller has just generated the route by walking the
    /// graph and adjacency is guaranteed by construction.
    pub fn new_unchecked(nodes: Vec<NodeId>) -> Self {
        Route { nodes }
    }

    /// The nodes of the route, in order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes on the route.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the route has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if `node` lies on the route.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Total weight of the route (sum of the weights of its consecutive
    /// edges). Returns zero for routes with fewer than two nodes.
    pub fn total_weight(&self, graph: &Graph) -> Weight {
        self.nodes
            .windows(2)
            .map(|pair| {
                let e = graph.edge_between(pair[0], pair[1]).expect("validated route edges exist");
                graph.edge_weight(e)
            })
            .sum()
    }

    /// Generates a random-walk route of `len` distinct nodes starting at
    /// `start`, following the paper's workload ("each route is a random walk
    /// without repeated nodes"). Returns `None` if the walk gets stuck before
    /// reaching the requested length.
    ///
    /// `pick` selects an index in `0..candidates` and allows the caller to
    /// plug in its own RNG without this crate depending on `rand`.
    pub fn random_walk<F: FnMut(usize) -> usize>(
        graph: &Graph,
        start: NodeId,
        len: usize,
        mut pick: F,
    ) -> Option<Self> {
        if len == 0 {
            return Some(Route { nodes: Vec::new() });
        }
        let mut nodes = Vec::with_capacity(len);
        let mut visited = vec![false; graph.num_nodes()];
        nodes.push(start);
        visited[start.index()] = true;
        let mut current = start;
        while nodes.len() < len {
            let candidates: Vec<NodeId> =
                graph.neighbors(current).map(|n| n.node).filter(|n| !visited[n.index()]).collect();
            if candidates.is_empty() {
                return None;
            }
            let next = candidates[pick(candidates.len()) % candidates.len()];
            visited[next.index()] = true;
            nodes.push(next);
            current = next;
        }
        Some(Route { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn cycle_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i, (i + 1) % n, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn validates_adjacency() {
        let g = cycle_graph(5);
        let ok = Route::new(&g, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
        assert!(ok.is_ok());
        let bad = Route::new(&g, vec![NodeId::new(0), NodeId::new(2)]);
        assert!(matches!(bad, Err(GraphError::RouteNotConnected { .. })));
    }

    #[test]
    fn accessors_and_total_weight() {
        let g = cycle_graph(6);
        let r = Route::new(&g, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]).unwrap();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains(NodeId::new(2)));
        assert!(!r.contains(NodeId::new(5)));
        assert_eq!(r.total_weight(&g).value(), 2.0);
        assert_eq!(r.nodes()[0], NodeId::new(1));

        let empty = Route::new(&g, vec![]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.total_weight(&g), Weight::ZERO);
    }

    #[test]
    fn random_walk_produces_distinct_adjacent_nodes() {
        let g = cycle_graph(10);
        let mut state = 7usize;
        let r = Route::random_walk(&g, NodeId::new(0), 5, |n| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state % n
        })
        .expect("cycle graph has long walks");
        assert_eq!(r.len(), 5);
        // all nodes distinct
        let mut nodes = r.nodes().to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 5);
        // consecutive nodes adjacent
        assert!(Route::new(&g, r.nodes().to_vec()).is_ok());
    }

    #[test]
    fn random_walk_reports_dead_ends() {
        // path graph of 3 nodes cannot host a 5-node simple walk
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        assert!(Route::random_walk(&g, NodeId::new(0), 5, |_| 0).is_none());
        assert_eq!(Route::random_walk(&g, NodeId::new(0), 0, |_| 0).unwrap().len(), 0);
    }
}
