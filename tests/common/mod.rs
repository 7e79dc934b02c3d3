//! Shared helpers for the workspace integration and property tests.
//!
//! Each integration test crate uses only a subset of these helpers, so the
//! dead-code lint is silenced for the module as a whole.
#![allow(dead_code)]

use proptest::prelude::*;
use rnn_core::RknnOutcome;
use rnn_graph::{EdgePointSet, EdgePointSetBuilder, Graph, GraphBuilder, NodeId, NodePointSet};
use rnn_index::HubLabeling;
use rnn_server::{Request, Server};

/// A randomly generated restricted-network instance.
#[derive(Debug, Clone)]
pub struct RestrictedInstance {
    pub graph: Graph,
    pub points: NodePointSet,
    pub query: NodeId,
    pub k: usize,
}

/// A randomly generated unrestricted-network instance.
#[derive(Debug, Clone)]
pub struct UnrestrictedInstance {
    pub graph: Graph,
    pub points: EdgePointSet,
    pub k: usize,
}

/// Builds a connected random graph from a spanning-tree description plus
/// extra edges. Edge weights are multiples of 0.25, so path lengths are exact
/// in `f64` and ties are handled identically no matter in which order the
/// algorithms add them up.
pub fn build_connected_graph(
    num_nodes: usize,
    tree_parents: &[usize],
    extra_edges: &[(usize, usize)],
    weight_steps: &[u8],
) -> Graph {
    let mut builder = GraphBuilder::new(num_nodes);
    let mut weight_iter = weight_steps.iter().cycle();
    let mut next_weight = || 0.25 * (1 + (*weight_iter.next().unwrap() % 12) as i32) as f64;
    for v in 1..num_nodes {
        let parent = tree_parents[v % tree_parents.len().max(1)] % v;
        builder.add_edge(v, parent, next_weight()).expect("tree edge");
    }
    for &(a, b) in extra_edges {
        let a = a % num_nodes;
        let b = b % num_nodes;
        if a == b || builder.has_edge(a, b) {
            continue;
        }
        builder.add_edge(a, b, next_weight()).expect("extra edge");
    }
    builder.build().expect("valid random graph")
}

/// Proptest strategy for restricted instances: connected graphs of 4..32
/// nodes, a non-empty point set, a query node and k in 1..=3.
pub fn restricted_instance() -> impl Strategy<Value = RestrictedInstance> {
    (4usize..32)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..n, n),
                proptest::collection::vec((0usize..n, 0usize..n), 0..2 * n),
                proptest::collection::vec(any::<u8>(), 1..64),
                proptest::collection::vec(0usize..n, 1..n.max(2)),
                0usize..n,
                1usize..=3,
            )
        })
        .prop_map(|(n, parents, extra, weights, point_nodes, query, k)| {
            let graph = build_connected_graph(n, &parents, &extra, &weights);
            let points = NodePointSet::from_nodes(n, point_nodes.into_iter().map(NodeId::new));
            RestrictedInstance { graph, points, query: NodeId::new(query), k }
        })
}

/// Proptest strategy for unrestricted instances: connected graphs with data
/// points placed strictly inside random edges.
pub fn unrestricted_instance() -> impl Strategy<Value = UnrestrictedInstance> {
    (4usize..20)
        .prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..n, n),
                proptest::collection::vec((0usize..n, 0usize..n), 0..n),
                proptest::collection::vec(any::<u8>(), 1..64),
                proptest::collection::vec((any::<u16>(), 1u8..200), 1..12),
                1usize..=2,
            )
        })
        .prop_map(|(n, parents, extra, weights, placements, k)| {
            let graph = build_connected_graph(n, &parents, &extra, &weights);
            let mut pb = EdgePointSetBuilder::new(&graph);
            for (edge_pick, frac) in placements {
                let edge = rnn_graph::EdgeId::new(edge_pick as usize % graph.num_edges());
                let w = graph.edge_weight(edge).value();
                // strictly interior, and offsets from different draws rarely
                // coincide (exact duplicates are fine for the native
                // algorithms; the transform-based oracle skips them).
                let offset = w * (frac as f64) / 201.0;
                if offset > 0.0 && offset < w {
                    let _ = pb.add_point(edge, offset);
                }
            }
            let points = pb.build();
            UnrestrictedInstance { graph, points, k }
        })
        .prop_filter("needs at least one data point", |inst| inst.points.num_points() > 0)
}

/// FNV-1a over every label of `labeling`, node by node: the entry count,
/// then each hub rank and the bits of its distance, little-endian.
pub fn label_hash(labeling: &HubLabeling) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in 0..labeling.num_nodes() {
        let node = NodeId::new(v);
        eat(&(labeling.label_len(node) as u64).to_le_bytes());
        for (r, d) in labeling.entries(node) {
            eat(&r.to_le_bytes());
            eat(&d.value().to_bits().to_le_bytes());
        }
    }
    hash
}

/// Submits `requests` to `server` as one `submit_all` burst, waits on every
/// ticket and returns the outcomes in request order.
pub fn serve_all(server: &Server, requests: &[Request]) -> Vec<RknnOutcome> {
    server
        .submit_all(requests)
        .into_iter()
        .map(|ticket| ticket.expect("admitted").wait().expect("served").outcome)
        .collect()
}
