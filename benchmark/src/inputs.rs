//! Input generation: graphs, point sets, operation lists and the open-loop
//! arrival schedule. Everything here is a pure function of `(seed, seconds)`,
//! so two runs with the same arguments execute exactly the same operations —
//! which is what makes the count metrics repeat exactly.
//!
//! `--seed` selects the *order* of the kernel and `serve-open` operations,
//! the arrival schedule, and the `labels-churn` queries and update script.
//! The graph, the point set, the warm-up operations of set-up and the *set*
//! of kernel and `serve-open` queries are the same at every seed
//! ([`WORLD_SEED`]): another random placement of 1000 points moves every
//! metric by 10-20 % (measured over ten seeds), another draw of 900
//! heavy-tailed queries moves the tail and the memory peak by as much (see
//! [`kernel_ops`]) — several times any bound — and neither says anything
//! about the code under test. `labels-churn` draws 78 000 cheap queries a
//! round, so there the seed picks the queries too.
//!
//! Operation lists are sized by *count*, never by elapsed time: each workload
//! has a per-second quota calibrated on the 2-core reference box at the
//! commit that introduced the benchmark, and `--seconds` multiplies it (the
//! list is a fifth of that, replayed in five rounds). A faster build
//! finishes the same list sooner; it is never handed more work.

use rnn_core::Algorithm;
use rnn_datagen::{brite_topology, grid_map, place_points_on_nodes, BriteConfig, GridConfig};
use rnn_graph::{Graph, NodeId, NodePointSet};

/// Data density `D = |P| / |V|` of every workload (the paper's default).
pub const DENSITY: f64 = 0.01;
/// Nodes of the grid map (the paper's 10^5 scale).
pub const GRID_NODES: usize = 100_000;
/// Nodes of the BRITE topology the label index is built over.
pub const BRITE_NODES: usize = 50_000;
/// Seed of both generated worlds (see the module docs for why it is fixed).
pub const WORLD_SEED: u64 = 42;

/// SplitMix64: the benchmark's own generator, so the operation lists do not
/// change when the repository's vendored `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named sub-stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One query of a kernel or serving workload (`k = 1` throughout).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub algorithm: Algorithm,
    pub query: NodeId,
}

/// The grid-map world shared by `mem-kernel`, `paged-cold` and `serve-open`.
pub struct GridWorld {
    pub graph: Graph,
    pub points: NodePointSet,
}

impl GridWorld {
    pub fn generate() -> Self {
        let graph = grid_map(&GridConfig::with_nodes(GRID_NODES, 4.0, WORLD_SEED));
        let points = place_points_on_nodes(&graph, DENSITY, WORLD_SEED + 1);
        GridWorld { graph, points }
    }
}

/// The BRITE world of `labels-churn`.
pub struct BriteWorld {
    pub graph: Graph,
    pub points: NodePointSet,
}

impl BriteWorld {
    pub fn generate() -> Self {
        let graph = brite_topology(&BriteConfig {
            num_nodes: BRITE_NODES,
            seed: WORLD_SEED,
            ..BriteConfig::default()
        });
        let points = place_points_on_nodes(&graph, DENSITY, WORLD_SEED + 1);
        BriteWorld { graph, points }
    }
}

/// A kernel operation list on `eager` uniformly random query nodes: every
/// node is queried under eager *and* lazy-EP, and the first `lazy` of them
/// also under lazy, so the algorithms can be checked against each other per
/// query.
///
/// The *set* of operations comes from [`WORLD_SEED`]; `seed` puts it in
/// order. Query cost on this map is heavy-tailed (a few eager queries cost
/// 30 to 100 ms against a median of 1.4), so another draw of 900 nodes moves
/// the mean by ~3 %, moves the tail by what its few giants happen to cost,
/// and moves `peak_rss_mb` by 14 % (the largest query of the list sizes the
/// scratch hash maps, which grow by doubling). What order does change is
/// what the CPU caches and the page pool hold when each query starts.
pub fn kernel_ops(seed: u64, stream: u64, num_nodes: usize, eager: usize, lazy: usize) -> Vec<Op> {
    let mut nodes = SplitMix64::new(WORLD_SEED, stream);
    let mut ops = Vec::with_capacity(2 * eager + lazy);
    for i in 0..eager {
        let query = NodeId::new(nodes.below(num_nodes));
        ops.push(Op { algorithm: Algorithm::Eager, query });
        ops.push(Op { algorithm: Algorithm::LazyExtendedPruning, query });
        if i < lazy {
            ops.push(Op { algorithm: Algorithm::Lazy, query });
        }
    }
    SplitMix64::new(seed, stream).shuffle(&mut ops);
    ops
}

/// Seeded Poisson arrival offsets (nanoseconds from the start of the pass)
/// for `count` requests at `rate` per second, conditioned on exactly `count`
/// arrivals within `count / rate` seconds — which makes them sorted uniform
/// draws. Unconditioned, the length of the schedule alone would vary by
/// `1/sqrt(count)` between seeds.
pub fn poisson_schedule(seed: u64, stream: u64, count: usize, rate: f64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed, stream);
    let span_ns = count as f64 / rate * 1e9;
    let mut offsets: Vec<u64> = (0..count).map(|_| (rng.unit() * span_ns) as u64).collect();
    offsets.sort_unstable();
    offsets
}
