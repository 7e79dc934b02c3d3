//! The paper's bichromatic road-network scenario (Fig. 1b): residential
//! blocks and restaurants lie on the edges of a road network; a restaurant
//! chain evaluates candidate sites by the blocks they would attract from
//! rivals (bRNN), and single sites are also analysed with the native
//! unrestricted algorithms.
//!
//! Run with `cargo run --release --example road_network`.

use rnn_core::bichromatic::{bichromatic_rknn, naive_bichromatic_rknn};
use rnn_core::unrestricted::{
    transform_to_restricted, unrestricted_eager_rknn, unrestricted_lazy_rknn,
};
use rnn_datagen::{
    place_points_on_edges, place_points_on_nodes, sample_edge_queries, spatial_road_network,
    SpatialConfig,
};
use rnn_graph::{PointId, PointsOnNodes};

fn main() {
    let net = spatial_road_network(&SpatialConfig { num_nodes: 10_000, ..Default::default() });
    println!(
        "road network: {} junctions, {} segments (Euclidean weights)",
        net.graph.num_nodes(),
        net.graph.num_edges()
    );

    // ---- Unrestricted monochromatic queries: shops on road segments. -------
    let shops = place_points_on_edges(&net.graph, 0.01, 5);
    let queries = sample_edge_queries(&shops, 3, 9);
    println!(
        "\n{} shops placed on road segments; reverse-NN of three of them:",
        shops.num_points()
    );
    for q in queries {
        let pos = shops.position(q);
        let eager = unrestricted_eager_rknn(&net.graph, &shops, &pos, 1);
        let lazy = unrestricted_lazy_rknn(&net.graph, &shops, &pos, 1);
        assert_eq!(eager.points, lazy.points);
        println!("  shop {q:?}: {} shops would have it as their nearest competitor", eager.len());
    }

    // The same instance can be transformed to a restricted network, e.g. to
    // use the materialized eager-M algorithm.
    let view = transform_to_restricted(&net.graph, &shops).expect("transformable");
    println!(
        "\ntransformed instance: {} nodes ({} original + {} shop nodes)",
        view.graph.num_nodes(),
        net.graph.num_nodes(),
        shops.num_points()
    );

    // ---- Bichromatic queries: blocks vs restaurants on junctions. ----------
    let blocks = place_points_on_nodes(&net.graph, 0.05, 11);
    let restaurants = place_points_on_nodes(&net.graph, 0.005, 13);
    println!(
        "\nbichromatic scenario: {} residential blocks, {} existing restaurants",
        blocks.num_points(),
        restaurants.num_points()
    );
    // Evaluate three candidate sites (junctions currently without restaurants).
    let candidates: Vec<_> = (0..net.graph.num_nodes())
        .map(rnn_graph::NodeId::new)
        .filter(|n| !restaurants.contains_node(*n))
        .take(3)
        .collect();
    for site in candidates {
        let won = bichromatic_rknn(&net.graph, &blocks, &restaurants, site, 1);
        let check = naive_bichromatic_rknn(&net.graph, &blocks, &restaurants, site, 1);
        assert_eq!(won.points, check.points);
        let sample: Vec<PointId> = won.points.iter().copied().take(5).collect();
        println!(
            "  a restaurant at junction {site} would become the nearest option for {} blocks (e.g. {:?})",
            won.len(),
            sample
        );
    }
}
