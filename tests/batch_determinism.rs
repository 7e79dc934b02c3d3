//! Concurrent determinism: a `Server` at 1, 2 and 8 workers, fed one
//! `submit_all` burst, returns byte-identical outcomes — the same RkNN sets
//! *and* the same per-query stats — as the plain sequential loop, for all six
//! algorithms (including the label-served hub-label algorithm), on grid maps
//! and BRITE-like topologies.
//!
//! This is the contract that makes the worker pool safe to turn on: scaling
//! out a workload must never change its answers.

mod common;

use common::{restricted_instance, serve_all};
use proptest::prelude::*;
use rnn_core::materialize::MaterializedKnn;
use rnn_core::{run_rknn, Algorithm, Precomputed};
use rnn_datagen::{
    brite_topology, grid_map, place_points_on_nodes, sample_node_queries, BriteConfig, GridConfig,
};
use rnn_graph::{Graph, NodeId, NodePointSet};
use rnn_index::HubLabelIndex;
use rnn_server::{Request, Server, ServerConfig, World};
use std::sync::Arc;

/// Builds a mixed burst (every algorithm over every query node), runs it
/// sequentially, and asserts a server reproduces it exactly at 1, 2 and 8
/// workers.
fn assert_batch_matches_sequential(
    graph: Graph,
    points: NodePointSet,
    queries: &[NodeId],
    k: usize,
) -> Result<(), TestCaseError> {
    let table = Arc::new(MaterializedKnn::build(&graph, &points, k));
    let hub_index = Arc::new(HubLabelIndex::build(&graph, &points));
    let pre = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
    let requests: Vec<Request> = Algorithm::ALL
        .iter()
        .flat_map(|&algorithm| queries.iter().map(move |&query| Request::new(algorithm, query, k)))
        .collect();

    // The reference: one independent single query per request.
    let expected: Vec<_> = requests
        .iter()
        .map(|r| run_rknn(r.algorithm, &graph, &points, pre, r.query, r.k))
        .collect();

    let (graph, points) = (Arc::new(graph), Arc::new(points));
    for workers in [1usize, 2, 8] {
        let world = World::new(graph.clone(), points.clone())
            .with_materialized(Arc::clone(&table))
            .with_hub_label_index(hub_index.clone());
        let server = Server::start(world, ServerConfig::default().with_workers(workers));
        // Byte-identical outcomes: result sets and per-query stats both.
        prop_assert_eq!(&serve_all(&server, &requests), &expected, "workers={}", workers);
        server.shutdown();
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn grid_batches_are_deterministic_across_thread_counts(
        seed in 0u64..1000,
        k in 1usize..=2,
    ) {
        let graph = grid_map(&GridConfig { rows: 12, cols: 12, seed, ..Default::default() });
        let points = place_points_on_nodes(&graph, 0.08, seed + 1);
        prop_assert!(!points.nodes().is_empty(), "density 0.08 on 144 nodes yields points");
        let queries = sample_node_queries(&points, 6, seed + 2);
        assert_batch_matches_sequential(graph, points, &queries, k)?;
    }

    #[test]
    fn brite_batches_are_deterministic_across_thread_counts(
        seed in 0u64..1000,
        k in 1usize..=2,
    ) {
        let graph = brite_topology(&BriteConfig { num_nodes: 150, seed, ..Default::default() });
        let points = place_points_on_nodes(&graph, 0.08, seed + 1);
        prop_assert!(!points.nodes().is_empty(), "density 0.08 on 150 nodes yields points");
        let queries = sample_node_queries(&points, 6, seed + 2);
        assert_batch_matches_sequential(graph, points, &queries, k)?;
    }

    /// Arbitrary connected graphs (not just the generators above): the
    /// server agrees with the sequential loop on the shared proptest
    /// instances too.
    #[test]
    fn random_instance_batches_are_deterministic(inst in restricted_instance()) {
        let queries = [inst.query];
        assert_batch_matches_sequential(inst.graph, inst.points, &queries, inst.k)?;
    }
}
