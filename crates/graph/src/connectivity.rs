//! Connectivity utilities.
//!
//! The paper "cleans" each dataset to its largest connected component before
//! running queries (e.g. the DBLP graph is reduced to a connected network of
//! 4,260 nodes and the San Francisco map to its largest component). These
//! helpers reproduce that preprocessing for the synthetic generators.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::ids::NodeId;

/// Assigns a component id to every node (0-based, in order of discovery) and
/// returns the vector of component ids together with the number of
/// components.
pub(crate) fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    const UNVISITED: usize = usize::MAX;
    let n = graph.num_nodes();
    let mut component = vec![UNVISITED; n];
    let mut num_components = 0;
    let mut stack = Vec::new();
    for start in 0..n {
        if component[start] != UNVISITED {
            continue;
        }
        let id = num_components;
        num_components += 1;
        component[start] = id;
        stack.push(NodeId::new(start));
        while let Some(v) = stack.pop() {
            for nb in graph.neighbors(v) {
                let i = nb.node.index();
                if component[i] == UNVISITED {
                    component[i] = id;
                    stack.push(nb.node);
                }
            }
        }
    }
    (component, num_components)
}

/// Returns `true` if the graph is connected (or empty).
pub fn is_connected(graph: &Graph) -> bool {
    let (_, count) = connected_components(graph);
    count <= 1
}

/// Extracts the largest connected component as a new graph with densely
/// re-numbered nodes.
///
/// Returns the new graph together with the mapping `new_node -> old_node`.
pub fn largest_connected_component(graph: &Graph) -> (Graph, Vec<NodeId>) {
    let (component, count) = connected_components(graph);
    if count <= 1 {
        let mapping = graph.node_ids().collect();
        return (graph.clone(), mapping);
    }
    let mut sizes = vec![0usize; count];
    for &c in &component {
        sizes[c] += 1;
    }
    let largest = sizes.iter().enumerate().max_by_key(|&(_, s)| *s).map(|(i, _)| i).unwrap_or(0);

    let mut new_id = vec![u32::MAX; graph.num_nodes()];
    let mut mapping = Vec::with_capacity(sizes[largest]);
    for old in 0..graph.num_nodes() {
        if component[old] == largest {
            new_id[old] = mapping.len() as u32;
            mapping.push(NodeId::new(old));
        }
    }

    let mut builder = GraphBuilder::with_edge_capacity(mapping.len(), graph.num_edges());
    for (_, lo, hi, w) in graph.edges() {
        if component[lo.index()] == largest && component[hi.index()] == largest {
            builder
                .add_edge(new_id[lo.index()] as usize, new_id[hi.index()] as usize, w.value())
                .expect("edges of a valid graph remain valid");
        }
    }
    let sub = builder.build().expect("subgraph of a valid graph is valid");
    (sub, mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn two_component_graph() -> Graph {
        let mut b = GraphBuilder::new(7);
        // component A: 0-1-2-3 (path)
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        // component B: 4-5 (and 6 isolated)
        b.add_edge(4, 5, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn components_are_identified() {
        let g = two_component_graph();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[0], comp[4]);
        assert_ne!(comp[6], comp[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn largest_component_is_extracted_with_mapping() {
        let g = two_component_graph();
        let (sub, mapping) = largest_connected_component(&g);
        assert_eq!(sub.num_nodes(), 4);
        assert_eq!(sub.num_edges(), 3);
        assert!(is_connected(&sub));
        // the mapping points back to the original path nodes 0..3
        let mut old: Vec<usize> = mapping.iter().map(|n| n.index()).collect();
        old.sort_unstable();
        assert_eq!(old, vec![0, 1, 2, 3]);
    }

    #[test]
    fn connected_graph_is_returned_unchanged() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        assert!(is_connected(&g));
        let (sub, mapping) = largest_connected_component(&g);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(mapping.len(), 3);
        assert_eq!(sub, g);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(is_connected(&g));
        let (sub, mapping) = largest_connected_component(&g);
        assert_eq!(sub.num_nodes(), 0);
        assert!(mapping.is_empty());
    }
}
