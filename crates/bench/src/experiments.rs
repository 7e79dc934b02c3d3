//! One function per table / figure of the paper's evaluation (Section 6).
//!
//! Every function builds the corresponding workload, measures the algorithms
//! on the disk-page backed graph and returns a [`Report`] whose rows mirror
//! the original table or figure and whose columns are counts only — buffer
//! faults, page accesses and the work counters of the queries — so the
//! committed `BENCH_<name>.json` of a report equals a fresh run on any
//! machine. The `repro` binary runs them by name ([`EXPERIMENTS`] is the
//! index; the README's "Build, test, bench" section shows the invocations).
//! Time is measured elsewhere: end to end by `benchmark/`, per kernel by the
//! criterion benches. The one [`Experiment::Drill`] at the end is the
//! exception — it asserts a timing relation and leaves no artifact.

use crate::harness::{
    measure_bichromatic, measure_continuous, measure_restricted, measure_unrestricted,
    measure_updates, per, Measurement, Scale, UnrestrictedWorkload, UpdateMeasurement, Workload,
};
use crate::report::Report;
use rnn_core::materialize::MaterializedKnn;
use rnn_core::{run_rknn, run_rknn_with, Algorithm, Precomputed, RknnOutcome, Scratch};
use rnn_datagen::{
    brite_topology, coauthorship_graph, grid_map, place_points_on_edges, place_points_on_nodes,
    sample_edge_queries, sample_node_queries, sample_routes, spatial_road_network, BriteConfig,
    CoauthorConfig, GridConfig, SpatialConfig,
};
use rnn_graph::{Graph, NodeId, NodePointSet, PointsOnNodes};
use rnn_index::HubLabelIndex;
use rnn_storage::{BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph};

const SEED: u64 = 42;

/// The four algorithms shown in the paper's figures.
const FIGURE_ALGOS: [Algorithm; 4] = Algorithm::PAPER;

/// One [`Measurement::COLUMNS`] group per algorithm, prefixed by its short name.
fn count_columns(algos: &[Algorithm]) -> Vec<String> {
    algos
        .iter()
        .flat_map(|a| Measurement::COLUMNS.map(|c| format!("{} {c}", a.short_name())))
        .collect()
}

fn count_values(ms: &[Measurement]) -> Vec<f64> {
    ms.iter().flat_map(Measurement::values).collect()
}

// ---------------------------------------------------------------------------
// Table 1 and Table 2: the DBLP coauthorship graph.
// ---------------------------------------------------------------------------

/// Table 1: ad hoc queries on the coauthorship graph (k = 1). The data set is
/// defined at query time by "at least N SIGMOD papers", so materialization is
/// not applicable and the paper compares eager with lazy.
fn table1_adhoc(scale: Scale) -> Report {
    let co = coauthorship_graph(&CoauthorConfig::default());
    let algos = [Algorithm::Eager, Algorithm::Lazy];
    let mut report = Report::new(
        "Table 1",
        format!(
            "ad hoc queries on the coauthorship graph (|V|={}, |E|={}, k=1)",
            co.graph.num_nodes(),
            co.graph.num_edges()
        ),
        "condition",
        count_columns(&algos),
    );
    for threshold in [1u32, 2, 5] {
        let points = co.authors_with_at_least(threshold);
        if points.is_empty() {
            continue;
        }
        let queries = sample_node_queries(&points, scale.queries(), SEED + threshold as u64);
        let workload = Workload::new(co.graph.clone(), points, queries);
        let ms: Vec<Measurement> =
            algos.iter().map(|&a| measure_restricted(a, &workload, None, 1)).collect();
        report.push_row(
            format!(">= {threshold} SIGMOD papers (sel. {:.3})", co.selectivity(threshold)),
            count_values(&ms),
        );
    }
    report
}

/// Table 2: cost versus data density on the coauthorship graph (k = 1).
fn table2_density(scale: Scale) -> Report {
    let co = coauthorship_graph(&CoauthorConfig::default());
    let algos = [Algorithm::Eager, Algorithm::Lazy];
    let mut report = Report::new(
        "Table 2",
        format!("cost vs density on the coauthorship graph (|V|={}, k=1)", co.graph.num_nodes()),
        "density D",
        count_columns(&algos),
    );
    for density in [0.0125, 0.025, 0.05, 0.1] {
        let points = place_points_on_nodes(&co.graph, density, SEED);
        let queries = sample_node_queries(&points, scale.queries(), SEED + 1);
        let workload = Workload::new(co.graph.clone(), points, queries);
        let ms: Vec<Measurement> =
            algos.iter().map(|&a| measure_restricted(a, &workload, None, 1)).collect();
        report.push_row(format!("{density}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 15 / Fig. 16: BRITE topologies (exponential expansion).
// ---------------------------------------------------------------------------

fn measure_brite(
    graph_nodes: usize,
    density: f64,
    k: usize,
    queries: usize,
    seed: u64,
) -> Vec<Measurement> {
    let graph = brite_topology(&BriteConfig { num_nodes: graph_nodes, seed, ..Default::default() });
    let points = place_points_on_nodes(&graph, density, seed + 1);
    let query_nodes = sample_node_queries(&points, queries, seed + 2);
    let workload = Workload::new(graph, points, query_nodes);
    let table = MaterializedKnn::build(&workload.graph, &workload.points, k.max(1));
    FIGURE_ALGOS
        .iter()
        .map(|&a| {
            let t = if a.needs_materialization() { Some(&table) } else { None };
            measure_restricted(a, &workload, t, k)
        })
        .collect()
}

/// Fig. 15: cost versus network size on BRITE-like topologies
/// (D = 0.01, k = 1).
fn fig15_brite_size(scale: Scale) -> Report {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[20_000, 40_000, 80_000],
        Scale::Full => &[90_000, 180_000, 270_000, 360_000],
    };
    let mut report = Report::new(
        "Fig 15",
        "cost vs |V| (BRITE-like topology, D=0.01, k=1)",
        "|V|",
        count_columns(&FIGURE_ALGOS),
    );
    for &n in sizes {
        let ms = measure_brite(n, 0.01, 1, scale.queries(), SEED);
        report.push_row(format!("{n}"), count_values(&ms));
    }
    report
}

/// Fig. 16: cost versus density on a BRITE-like topology (k = 1).
fn fig16_brite_density(scale: Scale) -> Report {
    let nodes = scale.pick(40_000, 160_000);
    let mut report = Report::new(
        "Fig 16",
        format!("cost vs density (BRITE-like topology, |V|={nodes}, k=1)"),
        "density D",
        count_columns(&FIGURE_ALGOS),
    );
    for density in [0.0025, 0.01, 0.04, 0.1] {
        let ms = measure_brite(nodes, density, 1, scale.queries(), SEED);
        report.push_row(format!("{density}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 17 / Fig. 18: the San-Francisco-like unrestricted road network.
// ---------------------------------------------------------------------------

fn sf_workload(scale: Scale, density: f64, seed: u64) -> UnrestrictedWorkload {
    let net = spatial_road_network(&SpatialConfig {
        num_nodes: scale.pick(20_000, 175_000),
        seed,
        ..Default::default()
    });
    let points = place_points_on_edges(&net.graph, density, seed + 1);
    let queries = sample_edge_queries(&points, scale.queries(), seed + 2);
    UnrestrictedWorkload::with_buffer(net.graph, points, queries, 256)
}

/// Fig. 17: cost versus density on the road network (unrestricted points,
/// k = 1). Eager and lazy run natively on the unrestricted network; eager-M
/// and lazy-EP run on the equivalent restricted transformation.
fn fig17_sf_density(scale: Scale) -> Report {
    let mut report = Report::new(
        "Fig 17",
        format!("cost vs density (SF-like road network, |V|≈{}, k=1)", scale.pick(20_000, 175_000)),
        "density D",
        count_columns(&FIGURE_ALGOS),
    );
    for density in [0.0025, 0.01, 0.04, 0.1] {
        let workload = sf_workload(scale, density, SEED);
        let ms: Vec<Measurement> =
            FIGURE_ALGOS.iter().map(|&a| measure_unrestricted(a, &workload, 1, 1)).collect();
        report.push_row(format!("{density}"), count_values(&ms));
    }
    report
}

/// Fig. 18: cost versus k on the road network (D = 0.01).
fn fig18_sf_k(scale: Scale) -> Report {
    let workload = sf_workload(scale, 0.01, SEED);
    let mut report = Report::new(
        "Fig 18",
        format!("cost vs k (SF-like road network, |V|≈{}, D=0.01)", scale.pick(20_000, 175_000)),
        "k",
        count_columns(&FIGURE_ALGOS),
    );
    for k in [1usize, 2, 4, 8] {
        let ms: Vec<Measurement> =
            FIGURE_ALGOS.iter().map(|&a| measure_unrestricted(a, &workload, k, 8)).collect();
        report.push_row(format!("{k}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 19: continuous queries along routes.
// ---------------------------------------------------------------------------

/// Fig. 19: continuous RNN queries versus route size on the road network
/// (D = 0.01, k = 1). The paper evaluates all four variants; this harness
/// reports the eager and lazy continuous algorithms (Section 5.1).
fn fig19_continuous(scale: Scale) -> Report {
    let net = spatial_road_network(&SpatialConfig {
        num_nodes: scale.pick(20_000, 175_000),
        seed: SEED,
        ..Default::default()
    });
    let points = place_points_on_nodes(&net.graph, 0.01, SEED + 1);
    let workload = Workload::new(net.graph, points, Vec::new());
    let algos = [Algorithm::Eager, Algorithm::Lazy];
    let mut report = Report::new(
        "Fig 19",
        "continuous queries: cost vs route size (SF-like road network, D=0.01, k=1)",
        "route nodes",
        count_columns(&algos),
    );
    for len in [4usize, 8, 16, 32] {
        let routes =
            sample_routes(&workload.graph, len, scale.queries().min(20), SEED + len as u64);
        let ms: Vec<Measurement> = algos
            .iter()
            .map(|&a| measure_continuous(a, &workload.paged, &workload.points, &routes, 1))
            .collect();
        report.push_row(format!("{len}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 20: synthetic grid maps.
// ---------------------------------------------------------------------------

fn measure_grid(nodes: usize, degree: f64, scale: Scale) -> Vec<Measurement> {
    let graph = grid_map(&GridConfig::with_nodes(nodes, degree, SEED));
    let points = place_points_on_nodes(&graph, 0.01, SEED + 1);
    let queries = sample_node_queries(&points, scale.queries(), SEED + 2);
    let workload = Workload::new(graph, points, queries);
    let table = MaterializedKnn::build(&workload.graph, &workload.points, 1);
    FIGURE_ALGOS
        .iter()
        .map(|&a| {
            let t = if a.needs_materialization() { Some(&table) } else { None };
            measure_restricted(a, &workload, t, 1)
        })
        .collect()
}

/// Fig. 20a: grid maps, cost versus network size (degree 4, D = 0.01, k = 1).
fn fig20a_grid_size(scale: Scale) -> Report {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[10_000, 22_500, 40_000],
        Scale::Full => &[40_000, 90_000, 160_000, 250_000],
    };
    let mut report = Report::new(
        "Fig 20a",
        "grid maps: cost vs |V| (degree 4, D=0.01, k=1)",
        "|V|",
        count_columns(&FIGURE_ALGOS),
    );
    for &n in sizes {
        let ms = measure_grid(n, 4.0, scale);
        report.push_row(format!("{n}"), count_values(&ms));
    }
    report
}

/// Fig. 20b: grid maps, cost versus average degree (D = 0.01, k = 1).
fn fig20b_grid_degree(scale: Scale) -> Report {
    let nodes = scale.pick(40_000, 160_000);
    let mut report = Report::new(
        "Fig 20b",
        format!("grid maps: cost vs degree (|V|={nodes}, D=0.01, k=1)"),
        "degree",
        count_columns(&FIGURE_ALGOS),
    );
    for degree in [4.0, 5.0, 6.0, 7.0] {
        let ms = measure_grid(nodes, degree, scale);
        report.push_row(format!("{degree}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 21: buffer size.
// ---------------------------------------------------------------------------

/// Fig. 21: cost versus buffer size on the road network (D = 0.01, k = 1).
/// Restricted view of the spatial graph, matching the eager/lazy comparison
/// of the paper.
fn fig21_buffer(scale: Scale) -> Report {
    let net = spatial_road_network(&SpatialConfig {
        num_nodes: scale.pick(20_000, 175_000),
        seed: SEED,
        ..Default::default()
    });
    let points = place_points_on_nodes(&net.graph, 0.01, SEED + 1);
    let queries = sample_node_queries(&points, scale.queries(), SEED + 2);
    let algos = [Algorithm::Eager, Algorithm::Lazy];
    let mut report = Report::new(
        "Fig 21",
        "cost vs buffer size in pages (SF-like road network, D=0.01, k=1)",
        "buffer pages",
        count_columns(&algos),
    );
    for buffer in [0usize, 16, 64, 256, 1024] {
        let workload =
            Workload::with_buffer(net.graph.clone(), points.clone(), queries.clone(), buffer);
        let ms: Vec<Measurement> =
            algos.iter().map(|&a| measure_restricted(a, &workload, None, 1)).collect();
        report.push_row(format!("{buffer}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Fig. 22: maintenance of the materialized table.
// ---------------------------------------------------------------------------

fn update_workload(scale: Scale, density: f64) -> (Workload, Vec<NodeId>, Vec<NodeId>) {
    let net = spatial_road_network(&SpatialConfig {
        num_nodes: scale.pick(20_000, 175_000),
        seed: SEED,
        ..Default::default()
    });
    let points = place_points_on_nodes(&net.graph, density, SEED + 1);
    let num_updates = scale.queries();
    // Inserted points follow the node distribution; deletions pick existing points.
    let empty_nodes: Vec<NodeId> = (0..net.graph.num_nodes())
        .map(NodeId::new)
        .filter(|n| !points.contains_node(*n))
        .take(num_updates)
        .collect();
    let delete_nodes: Vec<NodeId> = points.nodes().iter().copied().take(num_updates).collect();
    (Workload::new(net.graph, points, Vec::new()), empty_nodes, delete_nodes)
}

fn update_columns() -> Vec<String> {
    ["insert", "delete"]
        .iter()
        .flat_map(|op| UpdateMeasurement::COLUMNS.map(|c| format!("{op} {c}")))
        .collect()
}

fn update_values(inserts: &UpdateMeasurement, deletes: &UpdateMeasurement) -> Vec<f64> {
    [inserts.values(), deletes.values()].concat()
}

/// Fig. 22a: maintenance cost versus density (K = 1).
fn fig22a_update_density(scale: Scale) -> Report {
    let mut report = Report::new(
        "Fig 22a",
        "materialization maintenance: cost vs density (SF-like road network, K=1)",
        "density D",
        update_columns(),
    );
    for density in [0.0025, 0.01, 0.04, 0.1] {
        let (workload, inserts, deletes) = update_workload(scale, density);
        let (ins, del) = measure_updates(&workload.paged, &workload.points, 1, &inserts, &deletes);
        report.push_row(format!("{density}"), update_values(&ins, &del));
    }
    report
}

/// Fig. 22b: maintenance cost versus the number K of materialized neighbors
/// (D = 0.01).
fn fig22b_update_k(scale: Scale) -> Report {
    let mut report = Report::new(
        "Fig 22b",
        "materialization maintenance: cost vs K (SF-like road network, D=0.01)",
        "K",
        update_columns(),
    );
    let (workload, inserts, deletes) = update_workload(scale, 0.01);
    for capacity_k in [1usize, 2, 4, 8] {
        let (ins, del) =
            measure_updates(&workload.paged, &workload.points, capacity_k, &inserts, &deletes);
        report.push_row(format!("{capacity_k}"), update_values(&ins, &del));
    }
    report
}

// ---------------------------------------------------------------------------
// Section 5.1: bichromatic queries (no figure in the paper).
// ---------------------------------------------------------------------------

/// Bichromatic RkNN versus k on a BRITE-like topology behind the paper's
/// 256-page buffer: the eager variant (Lemma 1 over the sites) beside its
/// naive oracle, targets and sites both at D = 0.04, queries drawn from the
/// sites. The paper evaluates no bichromatic workload; this report puts the
/// path's counts under the same exact gate as the figures. The two
/// algorithms' result columns are asserted equal row by row.
fn bichromatic(scale: Scale) -> Report {
    let nodes = scale.pick(20_000, 90_000);
    let graph = brite_topology(&BriteConfig { num_nodes: nodes, seed: SEED, ..Default::default() });
    let targets = place_points_on_nodes(&graph, 0.04, SEED + 1);
    let sites = place_points_on_nodes(&graph, 0.04, SEED + 3);
    let queries = sample_node_queries(&sites, scale.queries(), SEED + 2);
    let paged = PagedGraph::build(&graph).expect("paged graph");
    let algos = [Algorithm::Eager, Algorithm::Naive];
    let mut report = Report::new(
        "Bichromatic",
        format!("bichromatic queries: cost vs k (BRITE-like topology, |V|={nodes}, D=0.04)"),
        "k",
        count_columns(&algos),
    );
    for k in [1usize, 2, 4, 8] {
        let ms: Vec<Measurement> = algos
            .iter()
            .map(|&a| measure_bichromatic(a, &paged, &targets, &sites, &queries, k))
            .collect();
        assert_eq!(ms[0].results, ms[1].results, "k={k}: eager must report what naive reports");
        report.push_row(format!("{k}"), count_values(&ms));
    }
    report
}

// ---------------------------------------------------------------------------
// Beyond the paper: the paged-query fast path (sharding).
// ---------------------------------------------------------------------------

/// Paged-query fast path: all six algorithms on page-resident BRITE and grid
/// worlds under every shard count, measured over a cold pool and again over
/// the warmed pool.
///
/// Every cell's result sets — cold pass and warm pass — are asserted
/// byte-identical to the in-memory oracle before any number is reported:
/// sharding changes cost, never answers.
fn paging(scale: Scale) -> Report {
    let k = 1usize;
    let instances = [
        (
            "brite",
            brite_topology(&BriteConfig {
                num_nodes: scale.pick(2_000, 10_000),
                seed: SEED,
                ..Default::default()
            }),
        ),
        ("grid", grid_map(&GridConfig::with_nodes(scale.pick(2_500, 10_000), 4.0, SEED))),
    ];
    let algos = Algorithm::ALL;
    let queries_per_cell = scale.pick(12, 50);
    let mut report = Report::new(
        "Paging",
        format!(
            "paged-query fast path: demand faults per graph x shards (all {} algorithms, \
             D=0.01, k={k}; every cell byte-identical to the in-memory oracle)",
            algos.len()
        ),
        "graph shards",
        vec!["cold faults".into(), "warm faults".into(), "hit rate".into()],
    );

    for (name, graph) in &instances {
        let points = place_points_on_nodes(graph, 0.01, SEED + 1);
        let queries = sample_node_queries(&points, queries_per_cell, SEED + 2);
        let table = MaterializedKnn::build(graph, &points, k);
        let hub = HubLabelIndex::build(graph, &points);
        let pre = Precomputed::none().with_materialized(&table).with_hub_labels(&hub);
        // The in-memory oracle every paged cell must reproduce byte for byte.
        let oracle: Vec<Vec<_>> = algos
            .iter()
            .map(|&a| queries.iter().map(|&q| run_rknn(a, graph, &points, pre, q, k)).collect())
            .collect();

        // The pool holds the whole graph with headroom in every shard: the
        // cold pass counts first-touch faults only, the warm pass none.
        // (Eviction pressure is what the fig21 rows measure.)
        let probe =
            PagedGraph::build_with(graph, LayoutStrategy::BfsLocality, 1, IoCounters::new())
                .expect("paged graph");
        let capacity = probe.num_pages().max(8) * 2;

        for shards in [1usize, 4] {
            let cell = format!("{name} s{shards}");
            let paged = PagedGraph::build_with_config(
                graph,
                LayoutStrategy::BfsLocality,
                BufferPoolConfig::new(capacity).with_shards(shards),
                IoCounters::new(),
            )
            .expect("paged graph");

            paged.cold_start();
            let mut cold_stats = None;
            for pass in ["cold", "warm"] {
                for (i, &a) in algos.iter().enumerate() {
                    for (j, &q) in queries.iter().enumerate() {
                        let out = run_rknn(a, &paged, &points, pre, q, k);
                        assert_eq!(
                            out, oracle[i][j],
                            "cell [{cell}] {pass} pass: {a} on query {q:?} must \
                             reproduce the in-memory oracle byte for byte"
                        );
                    }
                }
                if pass == "cold" {
                    cold_stats = Some(paged.pool_stats().total);
                }
            }
            let cold = cold_stats.expect("cold pass ran");
            let total = paged.pool_stats().total;
            let warm_faults = total.faults - cold.faults;
            let hit_rate = total.hits as f64 / total.accesses().max(1) as f64;
            report.push_row(cell, vec![cold.faults as f64, warm_faults as f64, hit_rate]);
        }
    }
    report
}

/// One in-memory query per node of `queries`, on a shared scratch.
fn run_all(
    algorithm: Algorithm,
    graph: &Graph,
    points: &NodePointSet,
    pre: Precomputed<'_>,
    queries: &[NodeId],
    scratch: &mut Scratch,
) -> Vec<RknnOutcome> {
    queries.iter().map(|&q| run_rknn_with(algorithm, graph, points, pre, q, 1, scratch)).collect()
}

/// `count` summed over `outcomes`, per query.
fn per_query(outcomes: &[RknnOutcome], count: impl Fn(&RknnOutcome) -> u64) -> f64 {
    per(outcomes.iter().map(count).sum(), outcomes.len())
}

const MIB: f64 = 1024.0 * 1024.0;

/// Hub-label index: label size, and what a label-served query scans against
/// what eager's expansion settles, on grid and BRITE graphs (in-memory
/// backend).
///
/// Not a figure of the paper: this measures the preprocessing/work trade the
/// `rnn-index` subsystem makes. Every hub-label result set is asserted
/// byte-identical to eager's before any number is reported.
fn index(scale: Scale) -> Report {
    let grid_nodes = scale.pick(2_500, 10_000);
    let brite_nodes = scale.pick(2_000, 8_000);
    let mut report = Report::new(
        "Index",
        "hub-label index vs eager expansion (in-memory backend, D=0.01, k=1)",
        "graph",
        vec![
            "hubs/node".into(),
            "label MiB".into(),
            "HL label scans".into(),
            "HL bucket scans".into(),
            "E settled".into(),
            "E aux settled".into(),
            "results".into(),
        ],
    );

    let instances = [
        (
            format!("grid |V|={grid_nodes}"),
            grid_map(&GridConfig::with_nodes(grid_nodes, 4.0, SEED)),
        ),
        (
            format!("brite |V|={brite_nodes}"),
            brite_topology(&BriteConfig {
                num_nodes: brite_nodes,
                seed: SEED,
                ..Default::default()
            }),
        ),
    ];
    for (label, graph) in instances {
        let points = place_points_on_nodes(&graph, 0.01, SEED + 1);
        let queries = sample_node_queries(&points, scale.queries(), SEED + 2);
        let hub_index = HubLabelIndex::build(&graph, &points);
        let stats = hub_index.labeling().stats();

        let mut scratch = Scratch::new();
        let pre = Precomputed::hub_labels(&hub_index);
        let labelled = run_all(Algorithm::HubLabel, &graph, &points, pre, &queries, &mut scratch);
        let eager =
            run_all(Algorithm::Eager, &graph, &points, Precomputed::none(), &queries, &mut scratch);
        for (hl, e) in labelled.iter().zip(&eager) {
            assert_eq!(hl.points, e.points, "{label}: hub-label must reproduce eager's results");
        }

        report.push_row(
            label,
            vec![
                stats.avg_label(),
                stats.label_bytes() as f64 / MIB,
                per_query(&labelled, |o| o.stats.label_scans),
                per_query(&labelled, |o| o.stats.bucket_scans),
                per_query(&eager, |o| o.stats.nodes_settled),
                per_query(&eager, |o| o.stats.auxiliary_settled),
                per_query(&eager, |o| o.len() as u64),
            ],
        );
    }
    report
}

/// Tracing overhead on the serving path: the same closed-loop mixed stream
/// of **all six** algorithms is pushed through an untraced server and a
/// fully observed one (phase tracing + trace recorder + slow-query log +
/// flight recorder + registry source), interleaved best-of-N so machine noise hits both modes
/// alike, and the traced throughput is asserted to stay within 5% of the
/// untraced best.
///
/// The traced trials double as an end-to-end check of the observability
/// layer under benchmark load: every algorithm must report non-trivial
/// phase counters (calls *and* nanoseconds) in the final registry snapshot,
/// and both exporters must render that snapshot byte-deterministically.
/// Results are asserted byte-identical to a sequential oracle in every
/// trial, so tracing can never change answers either.
///
/// A drill, not a report: both readings are wall-clock throughput, so they
/// are printed and asserted here and written nowhere.
fn obs_overhead(scale: Scale) {
    use rnn_obs::{prometheus_text, report_json, MetricsRegistry, Phase};
    use rnn_server::{Request, Server, ServerConfig, World};
    use std::sync::Arc;
    use std::time::Instant;

    let nodes = scale.pick(2_000, 8_000);
    let graph = Arc::new(grid_map(&GridConfig::with_nodes(nodes, 4.0, SEED)));
    let points = Arc::new(place_points_on_nodes(&graph, 0.02, SEED + 1));
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    let query_nodes = sample_node_queries(&points, scale.pick(32, 96), SEED + 2);
    let workers = 2;
    const TRIALS: usize = 5;

    // The mixed stream: every algorithm visits every query node at k=2.
    let stream: Vec<(Algorithm, NodeId)> =
        Algorithm::ALL.iter().flat_map(|&a| query_nodes.iter().map(move |&q| (a, q))).collect();
    let precomputed = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
    let mut scratch = Scratch::new();
    let oracle: Vec<_> = stream
        .iter()
        .map(|&(a, q)| run_rknn_with(a, &*graph, &*points, precomputed, q, 2, &mut scratch))
        .collect();

    let config = ServerConfig::default().with_workers(workers).with_queue_capacity(stream.len());
    // One closed-loop trial: submit the whole stream in one burst, wait for
    // everything, check against the oracle, return achieved q/s.
    let run_trial = |server: &Server| -> f64 {
        let requests: Vec<Request> = stream.iter().map(|&(a, q)| Request::new(a, q, 2)).collect();
        let started = Instant::now();
        let tickets: Vec<_> =
            server.submit_all(&requests).into_iter().map(|r| r.expect("admitted")).collect();
        for (i, (ticket, expected)) in tickets.into_iter().zip(&oracle).enumerate() {
            let served = ticket.wait().expect("served");
            assert_eq!(served.outcome, *expected, "request {i} must equal the sequential oracle");
        }
        stream.len() as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };

    let mut untraced = Vec::with_capacity(TRIALS);
    let mut traced = Vec::with_capacity(TRIALS);
    let mut last_snapshot = None;
    for _ in 0..TRIALS {
        // Interleaved A/B: noise (page cache, frequency scaling, neighbors
        // on the box) perturbs adjacent trials, not one whole mode.
        let world = World::new(graph.clone(), points.clone())
            .with_materialized(table.clone())
            .with_hub_label_index(hub_index.clone());
        let server = Server::start(world, config);
        untraced.push(run_trial(&server));
        server.shutdown();

        let registry = MetricsRegistry::new();
        let world = World::new(graph.clone(), points.clone())
            .with_materialized(table.clone())
            .with_hub_label_index(hub_index.clone());
        let server = Server::start_observed(
            world,
            config.with_tracing(true).with_slow_query_log(8, 16, 32, SEED),
            None,
            &registry,
        );
        traced.push(run_trial(&server));
        assert!(!server.drain_slow_queries().worst.is_empty(), "slow log must capture traffic");
        server.shutdown();
        last_snapshot = Some(registry.snapshot());
    }

    // The observed mode must actually have observed: every algorithm shows
    // non-trivial phase activity, and the exporters are byte-deterministic.
    let snap = last_snapshot.expect("at least one traced trial");
    for algorithm in Algorithm::ALL {
        let queries =
            snap.counter(&format!("rnn_trace_queries_total{{algorithm=\"{}\"}}", algorithm.name()));
        assert_eq!(queries, Some(query_nodes.len() as u64), "{algorithm:?} traced per query");
        let (calls, nanos) = Phase::ALL.iter().fold((0, 0), |(c, n), phase| {
            let read = |kind: &str| {
                snap.counter(&format!(
                    "rnn_trace_phase_{kind}_total{{algorithm=\"{}\",phase=\"{phase}\"}}",
                    algorithm.name()
                ))
                .unwrap_or(0)
            };
            (c + read("calls"), n + read("nanos"))
        });
        assert!(calls > 0 && nanos > 0, "{algorithm:?} must report non-trivial phase counters");
    }
    assert_eq!(prometheus_text(&snap), prometheus_text(&snap), "text export deterministic");
    assert_eq!(report_json(&snap), report_json(&snap), "json export deterministic");

    let best = |qps: &[f64]| qps.iter().copied().fold(f64::MIN, f64::max);
    let (untraced_best, traced_best) = (best(&untraced), best(&traced));
    assert!(
        traced_best >= 0.95 * untraced_best,
        "tracing overhead above 5%: traced best {traced_best:.0} q/s vs untraced best \
         {untraced_best:.0} q/s"
    );

    let worst = |qps: &[f64]| qps.iter().copied().fold(f64::MAX, f64::min);
    println!(
        "== Obs overhead — serving throughput with full observability on vs. off (grid map, \
         |V|={nodes}, D=0.02, k=2, {workers} workers, all {} algorithms x {} queries, interleaved \
         best-of-{TRIALS})",
        Algorithm::ALL.len(),
        query_nodes.len()
    );
    for (mode, qps) in [("untraced", &untraced), ("traced", &traced)] {
        println!(
            "{mode:>18}  best {:.0} q/s  worst {:.0} q/s  {:.3} of untraced best",
            best(qps),
            worst(qps),
            best(qps) / untraced_best
        );
    }
}

/// How the `repro` binary runs an experiment.
#[derive(Clone, Copy)]
pub enum Experiment {
    /// Counts only: printed, and written as `BENCH_<name>.json` under `--json`.
    Report(fn(Scale) -> Report),
    /// Asserts a timing relation on this machine and prints its readings;
    /// leaves no artifact, since no column of it would repeat.
    Drill(fn(Scale)),
}

/// Every experiment by id: the paper's tables and figures, the three count
/// reports added on top, then the drill.
pub const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("table1", Experiment::Report(table1_adhoc)),
    ("table2", Experiment::Report(table2_density)),
    ("fig15", Experiment::Report(fig15_brite_size)),
    ("fig16", Experiment::Report(fig16_brite_density)),
    ("fig17", Experiment::Report(fig17_sf_density)),
    ("fig18", Experiment::Report(fig18_sf_k)),
    ("fig19", Experiment::Report(fig19_continuous)),
    ("fig20a", Experiment::Report(fig20a_grid_size)),
    ("fig20b", Experiment::Report(fig20b_grid_degree)),
    ("fig21", Experiment::Report(fig21_buffer)),
    ("fig22a", Experiment::Report(fig22a_update_density)),
    ("fig22b", Experiment::Report(fig22b_update_k)),
    ("paging", Experiment::Report(paging)),
    ("index", Experiment::Report(index)),
    ("bichromatic", Experiment::Report(bichromatic)),
    ("obs-overhead", Experiment::Drill(obs_overhead)),
];

/// Looks an [`EXPERIMENTS`] entry up by id.
pub fn experiment(name: &str) -> Option<(&'static str, Experiment)> {
    EXPERIMENTS.iter().find(|(id, _)| *id == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "fig19",
                "fig20a",
                "fig20b",
                "fig21",
                "fig22a",
                "fig22b",
                "paging",
                "index",
                "bichromatic",
                "obs-overhead"
            ]
        );
        // Only the timing drill goes without an artifact.
        for (name, e) in EXPERIMENTS {
            let drill = matches!(e, Experiment::Drill(_));
            assert_eq!(drill, name == "obs-overhead", "{name}");
            assert!(experiment(name).is_some());
        }
        assert!(experiment("nonsense").is_none());
        assert!(experiment("throughput").is_none(), "timed by benchmark/ now");
    }

    /// The gate on the committed `BENCH_*.json` is exact equality, so a
    /// report must be a pure function of the commit: no clock, no
    /// thread-dependent count, no unordered iteration.
    #[test]
    fn a_report_renders_byte_identically_twice() {
        let first = fig22a_update_density(Scale::Quick).to_json();
        assert_eq!(first, fig22a_update_density(Scale::Quick).to_json());
    }

    #[test]
    fn table2_produces_one_row_per_density_with_sane_values() {
        let report = table2_density(Scale::Quick);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.columns.len(), 2 * Measurement::COLUMNS.len());
        for (label, values) in &report.rows {
            assert!(!label.is_empty());
            for v in values {
                assert!(v.is_finite() && *v >= 0.0);
            }
        }
        // higher density means cheaper queries: what eager settles per query
        // must not increase from the lowest to the highest density
        for column in ["E settled", "E aux settled"] {
            let col = report.columns.iter().position(|c| c == column).unwrap();
            let (first, last) = (report.rows[0].1[col], report.rows[3].1[col]);
            assert!(last <= first, "{column}: density 0.1 must not cost more than 0.0125");
        }
    }
}
