//! Degree-ordered pruned landmark labeling (PLL) over a [`Topology`].
//!
//! Every node `v` gets a sorted list of *hubs* `(h, d(v, h))` such that any
//! connected pair `(u, v)` shares at least one hub on a shortest `u`–`v`
//! path (the 2-hop cover property). Distances are then answered without
//! touching the graph:
//!
//! ```text
//! d(u, v) = min over common hubs h of  d(u, h) + d(h, v)
//! ```
//!
//! Construction processes nodes in descending-degree order (high-degree
//! nodes cover the most shortest paths) and runs one *pruned* Dijkstra per
//! node: when settling `u` at distance `d` from the current root, the
//! expansion is cut off if already-committed labels certify a distance
//! `<= d` — those paths are covered by higher-ranked hubs, so neither a
//! label nor further expansion through `u` is needed. Pruning is what keeps
//! labels small: on road-like graphs the average label is polylogarithmic in
//! practice.
//!
//! # Level-synchronous construction
//!
//! Roots are batched into *levels* of geometrically growing width (1, 2, 4,
//! …, capped at [`MAX_LEVEL_WIDTH`]), a fixed function of the node count.
//! Within a level every root's pruned Dijkstra sees only the labels
//! committed by strictly earlier levels, which makes the per-root searches
//! independent pure functions of the committed state: they can run on any
//! number of scoped worker threads and still produce the exact same entries.
//! A sequential commit pass then appends each root's entries in rank order,
//! so the resulting CSR is **byte-identical at every thread count** —
//! [`HubLabeling::build_with_threads`] with 1, 2 or 8 threads returns `==`
//! labelings. The small width cap keeps the early (high-impact) hubs nearly
//! sequential, so the loss of within-level pruning costs only a few percent
//! extra entries versus fully sequential PLL.
//!
//! # Construction memory
//!
//! Labels grow one entry at a time, for every node at once, and their final
//! lengths are unknown until the last level commits. A growable list per
//! node would pay 16 padded bytes per `(u32, f64)` entry, up to 2× slack from
//! doubling, and a full copy into the CSR while the lists are still alive;
//! the allocator then keeps the freed small buffers, so the process would
//! peak near three times the label bytes. Instead the build appends into one
//! arena: fixed blocks of 64 entries, ranks and distances in two flat arrays,
//! each node's blocks chained head to tail. The slack is under one block per
//! node, and the pruned searches read a label block by block.
//!
//! When the last level has committed, the arena is frozen *in place* into
//! the CSR: one pass over the chains gives every block its final position
//! (a node's blocks side by side, nodes in id order), a swap-cycle
//! permutation moves each block there with at most one block swap per block,
//! one left-to-right `copy_within` closes each node's unused tail, and the
//! arrays are truncated and shrunk so their end goes back to the OS. On
//! BRITE 5×10⁴ (104 MB of labels) that takes the build's rise in peak RSS
//! from ~3.1× the label bytes to ~1.3×. The block is 64 entries because the
//! covered test walks a label's chain for every settled node: over 12
//! alternated 2-thread builds of BRITE 5×10⁴ on a 2-vCPU box, 64-entry
//! blocks took a median 3.62 s, 16-entry blocks 3.91 s and per-node lists
//! 4.06 s, while the slack (half a block per node on average) stays small
//! beside labels of ~170 entries.
//!
//! # Label storage
//!
//! Hubs are stored as *ranks* (position in the construction order), so label
//! lists are naturally sorted by rank as they are appended and intersect by
//! a linear merge. Two physical layouts sit behind the same API:
//!
//! - **Full** (the default built by [`HubLabeling::build`]): plain `u32`
//!   ranks and `f64` [`Weight`] distances in CSR arrays; `label()` returns
//!   zero-copy borrowed slices.
//! - **Compact** ([`HubLabeling::compressed`]): delta-encoded LEB128 varint
//!   ranks, with distances either exact `f64` ([`LabelPrecision::Exact`]) or
//!   rounded `f32` ([`LabelPrecision::F32`]). `label()` decodes into a
//!   caller-provided [`LabelDecoder`], which query paths recycle from their
//!   [`rnn_core::scratch::Scratch`] arena so steady-state decoding is
//!   allocation-free.

use rnn_core::expansion::{ExpansionBuffers, NetworkExpansion};
use rnn_graph::{NodeId, Topology, Weight};
use rnn_obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of roots per construction level.
///
/// Width grows geometrically from 1 so the highest-ranked hubs (whose labels
/// prune everything downstream) are committed almost one at a time, then
/// saturates here to expose enough parallelism on large graphs.
pub const MAX_LEVEL_WIDTH: usize = 512;

/// Entries per block of the construction arena (see "Construction memory").
const BLOCK: usize = 64;

/// The end of a block chain.
const NO_BLOCK: u32 = u32::MAX;

/// Distance storage tier for [`HubLabeling::compressed`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LabelPrecision {
    /// Keep full `f64` distances: compressed ranks, bit-exact distances.
    Exact,
    /// Round distances to `f32`: halves the distance array at the cost of
    /// ~1e-7 relative error per label entry.
    F32,
}

/// Physical layout of the per-node hub lists.
#[derive(Clone, Debug, PartialEq)]
enum LabelStore {
    /// Plain CSR arrays; `label()` borrows directly.
    Full {
        /// Hub lists, as ranks in the construction order, ascending per node.
        hub_ranks: Vec<u32>,
        /// Distance to the corresponding hub.
        hub_dists: Vec<Weight>,
    },
    /// Delta-encoded varint ranks with exact or `f32` distances.
    Compact {
        /// Byte ranges into `rank_bytes`, one per node; length `n + 1`.
        byte_offsets: Vec<usize>,
        /// LEB128 stream: first rank raw, then successive deltas (`>= 1`).
        rank_bytes: Vec<u8>,
        /// Distances, indexed by the entry offsets.
        dists: CompactDists,
    },
}

/// Distance array of a compact store.
#[derive(Clone, Debug, PartialEq)]
enum CompactDists {
    Exact(Vec<Weight>),
    F32(Vec<f32>),
}

/// Reusable decode buffer for [`HubLabeling::label`].
///
/// On the full layout it is untouched (the call returns borrowed slices);
/// on the compact layout the ranks — and, for the `f32` tier, the widened
/// distances — are decoded into it. Query paths keep one per worker and
/// rebuild it from pooled scratch vectors via [`LabelDecoder::from_parts`] /
/// [`LabelDecoder::into_parts`] so decoding allocates nothing in steady
/// state.
#[derive(Clone, Debug, Default)]
pub struct LabelDecoder {
    ranks: Vec<u32>,
    dists: Vec<Weight>,
}

impl LabelDecoder {
    /// An empty decoder. Decoding grows it; the full layout never does.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a decoder around existing (e.g. pooled) buffers. Contents are
    /// cleared on the next decode, capacity is kept.
    pub fn from_parts(ranks: Vec<u32>, dists: Vec<Weight>) -> Self {
        LabelDecoder { ranks, dists }
    }

    /// Takes the backing buffers apart, e.g. to return them to a scratch
    /// pool.
    pub fn into_parts(self) -> (Vec<u32>, Vec<Weight>) {
        (self.ranks, self.dists)
    }
}

/// Appends `v` to `buf` as a LEB128 varint (7 payload bits per byte).
fn write_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint starting at `*pos`, advancing `*pos` past it.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// A pruned landmark labeling: per-node sorted hub lists with distances.
///
/// Immutable once built; shared by reference across query threads.
#[derive(Clone, Debug, PartialEq)]
pub struct HubLabeling {
    /// CSR entry offsets, length `num_nodes + 1`; shared by both layouts.
    offsets: Vec<usize>,
    /// The physical hub-list storage.
    store: LabelStore,
    /// The construction order: `node_of_rank[r]` is the node with rank `r`.
    node_of_rank: Vec<NodeId>,
    /// Inverse of `node_of_rank`.
    rank_of_node: Vec<u32>,
}

/// Wait-free build-progress counters for the label construction, so a
/// long-running build over a large graph is observable while it runs.
///
/// [`LabelBuildProgress::register`] wires the counters into a
/// [`MetricsRegistry`] under `rnn_label_build_roots_total` (roots whose
/// pruned Dijkstra has committed) and `rnn_label_build_entries_total` (label
/// entries committed); [`LabelBuildProgress::detached`] gives free-standing
/// counters for callers that only want to poll. Handles are cheap clones of
/// the same cells — pass the same instance to
/// [`HubLabeling::build_with_threads_observed`] and poll it from any thread.
#[derive(Clone)]
pub struct LabelBuildProgress {
    roots: Counter,
    entries: Counter,
}

impl LabelBuildProgress {
    /// Progress counters registered in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        LabelBuildProgress {
            roots: registry.counter("rnn_label_build_roots_total"),
            entries: registry.counter("rnn_label_build_entries_total"),
        }
    }

    /// Free-standing progress counters, attached to no registry.
    pub fn detached() -> Self {
        LabelBuildProgress { roots: Counter::detached(), entries: Counter::detached() }
    }

    /// Roots whose pruned Dijkstra has been committed so far.
    pub fn roots_done(&self) -> u64 {
        self.roots.value()
    }

    /// Label entries committed so far.
    pub fn entries_committed(&self) -> u64 {
        self.entries.value()
    }
}

impl std::fmt::Debug for LabelBuildProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelBuildProgress")
            .field("roots_done", &self.roots_done())
            .field("entries_committed", &self.entries_committed())
            .finish()
    }
}

/// Size statistics of a labeling, reported by the `repro` experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LabelStats {
    /// Number of labeled nodes.
    pub nodes: usize,
    /// Total label entries over all nodes.
    pub entries: usize,
    /// Largest single label.
    pub max_label: usize,
    /// Actual bytes held by the label arrays of the current layout
    /// (ranks + distances + CSR offsets).
    pub label_bytes: usize,
}

impl LabelStats {
    /// Average label entries per node.
    pub fn avg_label(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.entries as f64 / self.nodes as f64
    }

    /// Bytes held by the label arrays under the labeling's actual layout:
    /// full-width CSR arrays, or the varint rank stream plus the exact/`f32`
    /// distance array plus both offset tables.
    pub fn label_bytes(&self) -> usize {
        self.label_bytes
    }
}

/// The labels under construction: blocks of [`BLOCK`] entries in two flat
/// arrays, each node's blocks chained in push order (see "Construction
/// memory").
struct LabelArena {
    /// Hub ranks, [`BLOCK`] slots per block.
    ranks: Vec<u32>,
    /// Hub distances, parallel to `ranks`.
    dists: Vec<Weight>,
    /// Per block: the node's next block, or [`NO_BLOCK`].
    next: Vec<u32>,
    /// Per node: first block, or [`NO_BLOCK`] while the label is empty.
    head: Vec<u32>,
    /// Per node: last block, the one `push` appends to.
    tail: Vec<u32>,
    /// Per node: entries pushed.
    len: Vec<u32>,
}

impl LabelArena {
    fn new(n: usize) -> Self {
        LabelArena {
            ranks: Vec::new(),
            dists: Vec::new(),
            next: Vec::new(),
            head: vec![NO_BLOCK; n],
            tail: vec![NO_BLOCK; n],
            len: vec![0; n],
        }
    }

    /// Appends `(rank, dist)` to the label of `node`, chaining a fresh block
    /// at the arena's end when the node's last block is full.
    fn push(&mut self, node: usize, rank: u32, dist: Weight) {
        let len = self.len[node] as usize;
        if len.is_multiple_of(BLOCK) {
            let block = self.next.len() as u32;
            self.next.push(NO_BLOCK);
            self.ranks.resize(self.ranks.len() + BLOCK, 0);
            self.dists.resize(self.dists.len() + BLOCK, Weight::ZERO);
            match self.tail[node] {
                NO_BLOCK => self.head[node] = block,
                tail => self.next[tail as usize] = block,
            }
            self.tail[node] = block;
        }
        let slot = self.tail[node] as usize * BLOCK + len % BLOCK;
        self.ranks[slot] = rank;
        self.dists[slot] = dist;
        self.len[node] += 1;
    }

    /// The label of `node` in push order, as one `(ranks, dists)` slice pair
    /// per block.
    fn chunks(&self, node: usize) -> impl Iterator<Item = (&[u32], &[Weight])> {
        let (mut block, mut left) = (self.head[node], self.len[node] as usize);
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let lo = block as usize * BLOCK;
            let take = left.min(BLOCK);
            left -= take;
            block = self.next[block as usize];
            Some((&self.ranks[lo..lo + take], &self.dists[lo..lo + take]))
        })
    }

    /// Freezes the arena in place into CSR `(offsets, ranks, dists)`: every
    /// node's entries in push order, nodes in id order, with both arrays'
    /// length and capacity equal to the entry count.
    fn freeze(self) -> (Vec<usize>, Vec<u32>, Vec<Weight>) {
        let LabelArena { mut ranks, mut dists, next, head, len, .. } = self;
        // 1. Final block positions: a node's blocks side by side, nodes in id
        //    order. `start` takes each node's first final block.
        let mut dest = vec![NO_BLOCK; next.len()];
        let mut start = head;
        let mut cursor = 0u32;
        for first in &mut start {
            let mut block = std::mem::replace(first, cursor);
            while block != NO_BLOCK {
                dest[block as usize] = cursor;
                cursor += 1;
                block = next[block as usize];
            }
        }
        // 2. Swap cycles: each swap puts the block at `b` where it belongs.
        //    Slots before `b` already hold their final blocks, so `to > b`.
        for b in 0..dest.len() {
            while dest[b] as usize != b {
                let to = dest[b] as usize;
                swap_blocks(&mut ranks, b, to);
                swap_blocks(&mut dists, b, to);
                dest.swap(b, to);
            }
        }
        // 3. Close each node's unused tail. A node's entries never move
        //    right, so one left-to-right pass overwrites only what is done.
        let mut offsets = Vec::with_capacity(len.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for (&first, &count) in start.iter().zip(&len) {
            let from = first as usize * BLOCK;
            let count = count as usize;
            ranks.copy_within(from..from + count, end);
            dists.copy_within(from..from + count, end);
            end += count;
            offsets.push(end);
        }
        // 4. Hand the arena's end back.
        ranks.truncate(end);
        ranks.shrink_to_fit();
        dists.truncate(end);
        dists.shrink_to_fit();
        (offsets, ranks, dists)
    }
}

/// Swaps the [`BLOCK`]-entry blocks `a < b` of `v`.
fn swap_blocks<T>(v: &mut [T], a: usize, b: usize) {
    let (left, right) = v.split_at_mut(b * BLOCK);
    left[a * BLOCK..(a + 1) * BLOCK].swap_with_slice(&mut right[..BLOCK]);
}

/// Per-worker state for the pruned per-root Dijkstras: the rank-indexed
/// root-distance table and the reusable expansion buffers. Built once per
/// build and reused by every level.
struct RootScratch {
    /// Distances from the current root to its hubs, indexed by rank; only
    /// the entries of the root's committed label are populated at any time.
    root_dist: Vec<Weight>,
    bufs: ExpansionBuffers,
}

impl RootScratch {
    fn new(n: usize) -> Self {
        RootScratch { root_dist: vec![Weight::INFINITY; n], bufs: ExpansionBuffers::new() }
    }

    /// One pruned Dijkstra from `root` against the committed `labels`,
    /// returning the `(node, distance)` entries this root contributes, in
    /// settle order. A pure function of `(topo, labels, root)` — this is
    /// what makes the level-parallel build thread-count-deterministic.
    fn search<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        labels: &LabelArena,
        root: NodeId,
    ) -> Vec<(NodeId, Weight)> {
        for (hubs, dists) in labels.chunks(root.index()) {
            for (&h, &d) in hubs.iter().zip(dists) {
                self.root_dist[h as usize] = d;
            }
        }
        let mut out = Vec::new();
        let bufs = std::mem::replace(&mut self.bufs, ExpansionBuffers::new());
        let mut exp = NetworkExpansion::reusing(topo, bufs, std::iter::once((root, Weight::ZERO)));
        while let Some((u, d)) = exp.next_settled_unexpanded() {
            // Prune: if committed higher-ranked hubs already certify
            // d(root, u) <= d, this shortest path is covered — no label, and
            // no expansion through u (everything beyond is covered too).
            let covered = labels.chunks(u.index()).any(|(hubs, dists)| {
                hubs.iter().zip(dists).any(|(&h, &d2)| self.root_dist[h as usize] + d2 <= d)
            });
            if covered {
                continue;
            }
            out.push((u, d));
            exp.expand_from(u, d);
        }
        self.bufs = exp.into_buffers();
        for (hubs, _) in labels.chunks(root.index()) {
            for &h in hubs {
                self.root_dist[h as usize] = Weight::INFINITY;
            }
        }
        out
    }
}

/// Runs the pruned Dijkstras of one level's `roots`, each against the same
/// committed `labels`, on one scoped worker per lent scratch (at most one
/// per root). Results come back in root order regardless of scheduling.
fn run_level<T: Topology + ?Sized>(
    topo: &T,
    labels: &LabelArena,
    roots: &[NodeId],
    scratches: &mut [RootScratch],
) -> Vec<Vec<(NodeId, Weight)>> {
    let workers = scratches.len().min(roots.len());
    if workers <= 1 {
        let scratch = &mut scratches[0];
        return roots.iter().map(|&root| scratch.search(topo, labels, root)).collect();
    }
    // The engine's worker pattern: scoped threads pull root indices off a
    // shared cursor and return (index, result) pairs merged into root order.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Vec<(NodeId, Weight)>>> = (0..roots.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = scratches[..workers]
            .iter_mut()
            .map(|scratch| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= roots.len() {
                            break;
                        }
                        out.push((i, scratch.search(topo, labels, roots[i])));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("label construction worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every root is searched exactly once")).collect()
}

impl HubLabeling {
    /// Builds the labeling sequentially (one worker). Identical output to
    /// [`HubLabeling::build_with_threads`] at any thread count.
    pub fn build<T: Topology + ?Sized>(topo: &T) -> Self {
        Self::build_with_threads(topo, 1)
    }

    /// Builds the labeling with the level-synchronous parallel algorithm
    /// described in the module docs, using up to `threads` worker threads
    /// per level.
    ///
    /// The construction order is descending degree, ties by ascending node
    /// id; levels are a fixed function of the node count. The result —
    /// including entry order inside every label — does not depend on
    /// `threads`.
    ///
    /// The cost model is the same as the algorithms': adjacency fetches go
    /// through [`Topology::with_adjacency`], so building over a paged
    /// backend is accounted I/O like any traversal.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn build_with_threads<T: Topology + ?Sized>(topo: &T, threads: usize) -> Self {
        Self::build_with_threads_observed(topo, threads, &LabelBuildProgress::detached())
    }

    /// [`HubLabeling::build_with_threads`] reporting commit progress through
    /// `progress` (one bump per committed root / label entry), so dashboards
    /// can watch a long build advance. Progress reporting never changes the
    /// result.
    pub fn build_with_threads_observed<T: Topology + ?Sized>(
        topo: &T,
        threads: usize,
        progress: &LabelBuildProgress,
    ) -> Self {
        assert!(threads >= 1, "label construction needs at least one thread");
        let n = topo.num_nodes();

        // Construction order: descending degree, then ascending node id.
        let mut degree = vec![0u32; n];
        for (v, slot) in degree.iter_mut().enumerate() {
            topo.with_adjacency(NodeId::new(v), &mut |arcs| *slot = arcs.len() as u32);
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| degree[b as usize].cmp(&degree[a as usize]).then(a.cmp(&b)));
        let node_of_rank: Vec<NodeId> = order.iter().map(|&v| NodeId::new(v as usize)).collect();
        let mut rank_of_node = vec![0u32; n];
        for (rank, &v) in order.iter().enumerate() {
            rank_of_node[v as usize] = rank as u32;
        }

        // Per-node labels, grown level by level; entries end up in ascending
        // rank order because levels commit in rank order.
        let mut labels = LabelArena::new(n);
        let mut scratches: Vec<RootScratch> =
            (0..threads.min(MAX_LEVEL_WIDTH).min(n)).map(|_| RootScratch::new(n)).collect();
        let mut level_start = 0usize;
        let mut width_cap = 1usize;
        while level_start < n {
            let width = width_cap.min(MAX_LEVEL_WIDTH).min(n - level_start);
            let roots = &node_of_rank[level_start..level_start + width];
            let results = run_level(topo, &labels, roots, &mut scratches);
            // Sequential commit pass, in rank order within the level.
            for (i, entries) in results.into_iter().enumerate() {
                let rank = (level_start + i) as u32;
                progress.entries.add(entries.len() as u64);
                for (node, d) in entries {
                    labels.push(node.index(), rank, d);
                }
            }
            progress.roots.add(width as u64);
            level_start += width;
            width_cap = width_cap.saturating_mul(2);
        }

        let (offsets, hub_ranks, hub_dists) = labels.freeze();
        debug_assert!(
            offsets.windows(2).all(|w| hub_ranks[w[0]..w[1]].windows(2).all(|r| r[0] < r[1])),
            "ranks ascend"
        );
        HubLabeling {
            offsets,
            store: LabelStore::Full { hub_ranks, hub_dists },
            node_of_rank,
            rank_of_node,
        }
    }

    /// Re-encodes this labeling into the compact layout: delta-encoded
    /// varint ranks, distances per `precision`. Semantically the same
    /// labeling — same nodes, hubs and entry order — behind the same API.
    pub fn compressed(&self, precision: LabelPrecision) -> HubLabeling {
        let n = self.num_nodes();
        let entries = self.offsets[n];
        let mut byte_offsets = Vec::with_capacity(n + 1);
        let mut rank_bytes = Vec::new();
        let mut exact = Vec::new();
        let mut narrow = Vec::new();
        match precision {
            LabelPrecision::Exact => exact.reserve(entries),
            LabelPrecision::F32 => narrow.reserve(entries),
        }
        let mut dec = LabelDecoder::new();
        byte_offsets.push(0);
        for v in 0..n {
            let (ranks, dists) = self.label(NodeId::new(v), &mut dec);
            let mut prev = 0u32;
            for (i, &r) in ranks.iter().enumerate() {
                write_varint(&mut rank_bytes, if i == 0 { r } else { r - prev });
                prev = r;
            }
            byte_offsets.push(rank_bytes.len());
            match precision {
                LabelPrecision::Exact => exact.extend_from_slice(dists),
                LabelPrecision::F32 => narrow.extend(dists.iter().map(|d| d.value() as f32)),
            }
        }
        let dists = match precision {
            LabelPrecision::Exact => CompactDists::Exact(exact),
            LabelPrecision::F32 => CompactDists::F32(narrow),
        };
        HubLabeling {
            offsets: self.offsets.clone(),
            store: LabelStore::Compact { byte_offsets, rank_bytes, dists },
            node_of_rank: self.node_of_rank.clone(),
            rank_of_node: self.rank_of_node.clone(),
        }
    }

    /// Whether this labeling uses the compact (varint-rank) layout.
    pub fn is_compressed(&self) -> bool {
        matches!(self.store, LabelStore::Compact { .. })
    }

    /// Number of labeled nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_of_rank.len()
    }

    /// Number of entries in the label of `node`.
    pub fn label_len(&self, node: NodeId) -> usize {
        self.offsets[node.index() + 1] - self.offsets[node.index()]
    }

    /// The label of `node`: parallel slices of hub ranks (ascending) and
    /// distances to them.
    ///
    /// On the full layout the slices borrow the CSR directly and `dec` is
    /// untouched; on the compact layout they are decoded into `dec`. Either
    /// way they are valid until the next `label()` call with the same
    /// decoder.
    pub fn label<'a>(
        &'a self,
        node: NodeId,
        dec: &'a mut LabelDecoder,
    ) -> (&'a [u32], &'a [Weight]) {
        let (lo, hi) = (self.offsets[node.index()], self.offsets[node.index() + 1]);
        match &self.store {
            LabelStore::Full { hub_ranks, hub_dists } => (&hub_ranks[lo..hi], &hub_dists[lo..hi]),
            LabelStore::Compact { byte_offsets, rank_bytes, dists } => {
                dec.ranks.clear();
                let mut pos = byte_offsets[node.index()];
                let end = byte_offsets[node.index() + 1];
                let mut prev = 0u32;
                while pos < end {
                    let delta = read_varint(rank_bytes, &mut pos);
                    prev = if dec.ranks.is_empty() { delta } else { prev + delta };
                    dec.ranks.push(prev);
                }
                debug_assert_eq!(dec.ranks.len(), hi - lo, "rank stream length matches CSR");
                match dists {
                    CompactDists::Exact(d) => (&dec.ranks, &d[lo..hi]),
                    CompactDists::F32(d) => {
                        dec.dists.clear();
                        dec.dists.extend(d[lo..hi].iter().map(|&x| Weight::new(f64::from(x))));
                        (&dec.ranks, &dec.dists)
                    }
                }
            }
        }
    }

    /// The node acting as the hub with construction rank `rank`.
    pub fn hub_node(&self, rank: u32) -> NodeId {
        self.node_of_rank[rank as usize]
    }

    /// The construction rank of `node` (0 = first / highest degree).
    pub fn rank_of(&self, node: NodeId) -> u32 {
        self.rank_of_node[node.index()]
    }

    /// The label-based shortest path distance between two nodes, or `None`
    /// if they share no hub (different connected components).
    ///
    /// Symmetric by construction: the same hub set and the same commutative
    /// sums are considered for `(u, v)` and `(v, u)`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let mut dec_u = LabelDecoder::new();
        let mut dec_v = LabelDecoder::new();
        let (hu, du) = self.label(u, &mut dec_u);
        let (hv, dv) = self.label(v, &mut dec_v);
        let mut best: Option<Weight> = None;
        let (mut i, mut j) = (0, 0);
        while i < hu.len() && j < hv.len() {
            match hu[i].cmp(&hv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let through = du[i] + dv[j];
                    best = Some(best.map_or(through, |b| b.min(through)));
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Size statistics of the labeling under its current layout.
    pub fn stats(&self) -> LabelStats {
        let nodes = self.num_nodes();
        let entries = self.offsets[nodes];
        let max_label =
            (0..nodes).map(|v| self.offsets[v + 1] - self.offsets[v]).max().unwrap_or(0);
        let offset_bytes = self.offsets.len() * std::mem::size_of::<usize>();
        let label_bytes = match &self.store {
            LabelStore::Full { hub_ranks, hub_dists } => {
                offset_bytes
                    + hub_ranks.len() * std::mem::size_of::<u32>()
                    + hub_dists.len() * std::mem::size_of::<Weight>()
            }
            LabelStore::Compact { byte_offsets, rank_bytes, dists } => {
                let dist_bytes = match dists {
                    CompactDists::Exact(d) => d.len() * std::mem::size_of::<Weight>(),
                    CompactDists::F32(d) => d.len() * std::mem::size_of::<f32>(),
                };
                offset_bytes
                    + byte_offsets.len() * std::mem::size_of::<usize>()
                    + rank_bytes.len()
                    + dist_bytes
            }
        };
        LabelStats { nodes, entries, max_label, label_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_core::expansion::network_distance;
    use rnn_graph::{Graph, GraphBuilder};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(0, 2, 4.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    /// A denser exact-weight graph: 4x4 grid with 0.25-step weights.
    fn grid4() -> Graph {
        let mut b = GraphBuilder::new(16);
        for r in 0..4 {
            for c in 0..4 {
                let v = r * 4 + c;
                if c + 1 < 4 {
                    b.add_edge(v, v + 1, 0.25 * (1 + (v * 5 % 7)) as f64).unwrap();
                }
                if r + 1 < 4 {
                    b.add_edge(v, v + 4, 0.25 * (1 + (v * 3 % 5)) as f64).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn label_of(labeling: &HubLabeling, v: usize) -> (Vec<u32>, Vec<Weight>) {
        let mut dec = LabelDecoder::new();
        let (r, d) = labeling.label(NodeId::new(v), &mut dec);
        (r.to_vec(), d.to_vec())
    }

    #[test]
    fn build_progress_counts_roots_and_entries() {
        let g = grid4();
        let registry = MetricsRegistry::new();
        let progress = LabelBuildProgress::register(&registry);
        assert_eq!((progress.roots_done(), progress.entries_committed()), (0, 0));
        let observed = HubLabeling::build_with_threads_observed(&g, 2, &progress);
        assert_eq!(observed, HubLabeling::build(&g), "progress reporting changes nothing");
        assert_eq!(progress.roots_done(), 16, "every node's root search committed");
        assert_eq!(
            progress.entries_committed(),
            observed.stats().entries as u64,
            "committed entries equal the final labeling's size"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_label_build_roots_total"), Some(16));
        assert!(format!("{progress:?}").contains("roots_done"));
        // Detached progress counters work without a registry.
        let detached = LabelBuildProgress::detached();
        let _ = HubLabeling::build_with_threads_observed(&g, 1, &detached);
        assert_eq!(detached.roots_done(), 16);
    }

    #[test]
    fn freeze_lays_scattered_blocks_out_as_each_nodes_push_order() {
        // Labels straddling the block boundaries, grown a few entries per
        // round in reverse node order so their blocks interleave out of node
        // order; the last node's only entry is pushed after all of them.
        let sizes = [0usize, 1, 63, 64, 65, 128, 129, 1];
        let last = sizes.len() - 1;
        let entry =
            |v: usize, i: usize| ((v * 1000 + i) as u32, Weight::new(i as f64 + v as f64 / 8.0));
        let mut arena = LabelArena::new(sizes.len());
        let mut pushed = vec![0; sizes.len()];
        for round in 0.. {
            let step = 1 + (round * 7) % 11;
            let mut any = false;
            for v in (0..last).rev() {
                for _ in 0..step.min(sizes[v] - pushed[v]) {
                    let (r, d) = entry(v, pushed[v]);
                    arena.push(v, r, d);
                    pushed[v] += 1;
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        let (r, d) = entry(last, 0);
        arena.push(last, r, d);
        assert!(arena.head[6] < arena.head[1], "blocks are out of node order");
        assert_eq!(
            arena.head[last] as usize,
            arena.next.len() - 1,
            "last node owns the last block"
        );

        let (offsets, ranks, dists) = arena.freeze();
        let entries: usize = sizes.iter().sum();
        assert_eq!(offsets.len(), sizes.len() + 1);
        for (v, &size) in sizes.iter().enumerate() {
            assert_eq!(offsets[v + 1] - offsets[v], size, "node {v}");
            for i in 0..size {
                assert_eq!((ranks[offsets[v] + i], dists[offsets[v] + i]), entry(v, i), "node {v}");
            }
        }
        assert_eq!((ranks.len(), ranks.capacity()), (entries, entries));
        assert_eq!((dists.len(), dists.capacity()), (entries, entries));
    }

    #[test]
    fn distances_match_dijkstra_on_all_pairs() {
        for g in [diamond(), grid4()] {
            let labeling = HubLabeling::build(&g);
            for u in 0..g.num_nodes() {
                for v in 0..g.num_nodes() {
                    let via_labels = labeling.distance(NodeId::new(u), NodeId::new(v));
                    let via_dijkstra = network_distance(&g, NodeId::new(u), NodeId::new(v));
                    // Exact-weight graphs: every sum is exact, so the label
                    // distance equals the Dijkstra distance bit for bit.
                    assert_eq!(via_labels, via_dijkstra, "pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_the_diagonal() {
        let g = grid4();
        let labeling = HubLabeling::build(&g);
        for u in 0..16 {
            assert_eq!(labeling.distance(NodeId::new(u), NodeId::new(u)), Some(Weight::ZERO));
            for v in 0..16 {
                assert_eq!(
                    labeling.distance(NodeId::new(u), NodeId::new(v)),
                    labeling.distance(NodeId::new(v), NodeId::new(u)),
                );
            }
        }
    }

    #[test]
    fn disconnected_components_share_no_hub() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(3, 4, 1.0).unwrap();
        let g = b.build().unwrap();
        let labeling = HubLabeling::build(&g);
        assert_eq!(labeling.distance(NodeId::new(0), NodeId::new(4)), None);
        assert_eq!(labeling.distance(NodeId::new(2), NodeId::new(3)), None);
        assert_eq!(labeling.distance(NodeId::new(3), NodeId::new(4)).unwrap().value(), 1.0);
    }

    #[test]
    fn labels_are_rank_sorted_pruned_and_rooted() {
        let g = grid4();
        let labeling = HubLabeling::build(&g);
        let stats = labeling.stats();
        assert_eq!(stats.nodes, 16);
        assert!(stats.entries >= 16, "every node labels itself");
        // Pruning must beat the quadratic trivial labeling (all hubs
        // everywhere) by a wide margin even on this tiny grid.
        assert!(stats.entries < 16 * 16 / 2, "pruning keeps labels small, got {stats:?}");
        assert!(stats.max_label >= 1 && stats.max_label <= 16);
        assert!(stats.avg_label() >= 1.0);
        assert!(stats.label_bytes() > 0);
        for v in 0..16 {
            let node = NodeId::new(v);
            let (ranks, dists) = label_of(&labeling, v);
            assert!(!ranks.is_empty());
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks strictly ascend");
            // Every node's label contains itself at distance zero.
            let own = ranks.iter().position(|&r| r == labeling.rank_of(node)).unwrap();
            assert_eq!(dists[own], Weight::ZERO);
            assert_eq!(labeling.hub_node(labeling.rank_of(node)), node);
            assert_eq!(ranks.len(), labeling.label_len(node));
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let g = grid4();
        assert_eq!(HubLabeling::build(&g), HubLabeling::build(&g));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        for g in [diamond(), grid4()] {
            let sequential = HubLabeling::build_with_threads(&g, 1);
            for threads in [2, 8] {
                let parallel = HubLabeling::build_with_threads(&g, threads);
                assert_eq!(sequential, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn highest_degree_node_gets_rank_zero() {
        // Star graph: the center has degree 4, the leaves 1 — the center
        // must be the first hub and appear in every label.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let labeling = HubLabeling::build(&g);
        assert_eq!(labeling.rank_of(NodeId::new(0)), 0);
        for v in 0..5 {
            let (ranks, _) = label_of(&labeling, v);
            assert_eq!(ranks[0], 0, "node {v} is covered by the center hub");
        }
        // Leaves are fully covered by the center: label = {center, self}.
        assert_eq!(labeling.stats().entries, 1 + 4 * 2);
    }

    #[test]
    fn compressed_exact_decodes_identically() {
        let g = grid4();
        let full = HubLabeling::build(&g);
        let compact = full.compressed(LabelPrecision::Exact);
        assert!(compact.is_compressed() && !full.is_compressed());
        for v in 0..16 {
            assert_eq!(label_of(&full, v), label_of(&compact, v), "node {v}");
        }
        // Same ranks, same distances — every distance query agrees bit for
        // bit with the full layout.
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(
                    full.distance(NodeId::new(u), NodeId::new(v)),
                    compact.distance(NodeId::new(u), NodeId::new(v)),
                );
            }
        }
    }

    #[test]
    fn compressed_f32_is_approximately_exact() {
        let g = grid4();
        let full = HubLabeling::build(&g);
        let compact = full.compressed(LabelPrecision::F32);
        for v in 0..16 {
            let (ranks, dists) = label_of(&full, v);
            let (cranks, cdists) = label_of(&compact, v);
            assert_eq!(ranks, cranks, "ranks are lossless");
            for (d, c) in dists.iter().zip(&cdists) {
                assert!(d.approx_eq(*c, 1e-6), "node {v}: {d:?} vs {c:?}");
            }
        }
    }

    #[test]
    fn compressed_layouts_shrink_label_bytes() {
        let g = grid4();
        let full = HubLabeling::build(&g);
        let exact = full.compressed(LabelPrecision::Exact);
        let narrow = full.compressed(LabelPrecision::F32);
        let (fb, eb, nb) =
            (full.stats().label_bytes(), exact.stats().label_bytes(), narrow.stats().label_bytes());
        // Entry payload shrinks: 12 bytes/entry -> ~9 (exact) -> ~5 (f32).
        // The per-node byte-offset table partially offsets that on this tiny
        // graph; the f32 tier must win outright even here.
        assert!(nb < eb && nb < fb, "f32 tier is the smallest: {fb} / {eb} / {nb}");
        assert_eq!(full.stats().entries, narrow.stats().entries);
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }
}
