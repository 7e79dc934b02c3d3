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
//! …, capped at `MAX_LEVEL_WIDTH`), a fixed function of the node count.
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
//! arena: blocks of up to 64 entries, rank offsets and distances in two flat
//! arrays, each node's blocks chained head to tail. A slot holds its hub's
//! rank as a `u16` offset from the block's *base* (the rank of its first
//! entry), so it takes 10 bytes, not 12; each block keeps its base and fill
//! beside its chain link. A label's ranks ascend, so `push` opens a fresh
//! block when the last one is full or the new rank lies more than
//! `u16::MAX` past its base. On a graph of at most 65 536 nodes every rank
//! fits in 16 bits and no block closes early. The slack is under one block
//! per node plus the early-closed tails, and the pruned searches read a label
//! block by block, each hub's rank as `base + offset`.
//!
//! A level's results wait for the commit pass: on BRITE 5×10⁴ the widest
//! level holds 1.3 M entries. Each root's search collects its entries in a
//! buffer its worker reuses and hands them out as one exactly sized copy.
//! Grown in place instead, one vector per root, they reached 1.9 M entries
//! of capacity, and on 7 of 49 runs of `tests/label_build_memory.rs` (2-vCPU
//! box) the allocator kept another 16 MB of their freed growth copies
//! resident in a worker's heap up to the build's peak; it did on none of 48
//! runs with the exact copies.
//!
//! When the last level has committed, the arena is frozen *in place*: one
//! pass over the chains gives every block its final position (a node's
//! blocks side by side, nodes in id order), a swap-cycle permutation moves
//! each block's offsets, distances, base and fill there with at most one
//! block swap per block, one left-to-right `copy_within` closes each block's
//! unused tail, and both arrays are truncated and shrunk so their end goes
//! back to the OS. On BRITE 5×10⁴ (8.63 M entries in 10.22 M slots) the
//! build's rise in peak RSS is ~1.1× the `entries × (4 + 8)` bytes a `u32`
//! rank CSR would take, against ~1.35× with `u32` ranks in the arena and
//! ~3.1× with per-node lists. The block is 64 entries because the covered
//! test walks a label's chain for every settled node: over 12 alternated
//! 2-thread builds of BRITE 5×10⁴ on a 2-vCPU box, 64-entry blocks took a
//! median 3.62 s, 16-entry blocks 3.91 s and per-node lists 4.06 s, while
//! the slack (half a block per node on average) stays small beside labels of
//! ~170 entries.
//!
//! # Label storage
//!
//! Hubs are stored as *ranks* (position in the construction order), so label
//! lists are naturally sorted by rank as they are appended and intersect by
//! a linear merge. A label's ranks are stored delta-encoded as LEB128
//! varints (the first rank raw, then each gap to the previous one), so most
//! entries take one or two bytes instead of four. Right after the freeze has
//! shrunk the arena the build sizes that stream in one pass over the frozen
//! `base + offset` ranks, writes it in a second into a buffer reserved to
//! exactly that size and drops the offsets, so the encode never lifts the
//! peak above the arena's. The frozen `f64` distance array is kept as it is:
//! labels hold exact distances, which the RkNN answers built on them need.
//!
//! [`HubLabeling::entries`] is the one way to read a label: it decodes one
//! `(rank, distance)` entry at a time into no buffer, so reading allocates
//! nothing and a scan that stops early decodes only what it read.

use rnn_core::expansion::{ExpansionBuffers, NetworkExpansion};
use rnn_graph::{NodeId, Topology, Weight};
use rnn_obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of roots per construction level.
///
/// Width grows geometrically from 1 so the highest-ranked hubs (whose labels
/// prune everything downstream) are committed almost one at a time, then
/// saturates here to expose enough parallelism on large graphs.
pub(crate) const MAX_LEVEL_WIDTH: usize = 512;

/// Entries per block of the construction arena (see "Construction memory").
const BLOCK: usize = 64;

/// The end of a block chain.
const NO_BLOCK: u32 = u32::MAX;

/// Bytes [`write_varint`] takes for `v`.
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
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
    /// CSR entry offsets into `dists`, length `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Byte offsets into `rank_bytes`, length `num_nodes + 1`.
    byte_offsets: Vec<usize>,
    /// Every label's ranks as LEB128 varints, nodes in id order: the first
    /// rank raw (a gap from 0), then each gap to the previous rank.
    rank_bytes: Vec<u8>,
    /// Distance to each entry's hub, exactly as the build computed it.
    dists: Vec<Weight>,
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
    label_bytes: usize,
}

impl LabelStats {
    /// Average label entries per node.
    pub fn avg_label(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.entries as f64 / self.nodes as f64
    }

    /// Bytes held by the label arrays: the varint rank stream, the distance
    /// array and both offset tables.
    pub fn label_bytes(&self) -> usize {
        self.label_bytes
    }
}

/// The labels under construction: blocks of up to [`BLOCK`] entries in two
/// flat arrays, each node's blocks chained in push order (see "Construction
/// memory"). A slot holds its hub's rank as a `u16` offset from its block's
/// base rank.
struct LabelArena {
    /// Hub ranks less their block's base, [`BLOCK`] slots per block.
    offs: Vec<u16>,
    /// Hub distances, parallel to `offs`.
    dists: Vec<Weight>,
    /// Per block: the rank of its first entry.
    base: Vec<u32>,
    /// Per block: entries pushed.
    fill: Vec<u8>,
    /// Per block: the node's next block, or [`NO_BLOCK`].
    next: Vec<u32>,
    /// Per node: first block, or [`NO_BLOCK`] while the label is empty.
    head: Vec<u32>,
    /// Per node: last block, the one `push` appends to.
    tail: Vec<u32>,
}

impl LabelArena {
    fn new(n: usize) -> Self {
        LabelArena {
            offs: Vec::new(),
            dists: Vec::new(),
            base: Vec::new(),
            fill: Vec::new(),
            next: Vec::new(),
            head: vec![NO_BLOCK; n],
            tail: vec![NO_BLOCK; n],
        }
    }

    /// Appends `(rank, dist)` to the label of `node`, chaining a fresh block
    /// at the arena's end when the node's last block is full or `rank` lies
    /// more than `u16::MAX` past its base. A label's ranks ascend, so `rank`
    /// is at least the last block's base.
    fn push(&mut self, node: usize, rank: u32, dist: Weight) {
        let tail = self.tail[node];
        let fits = tail != NO_BLOCK
            && usize::from(self.fill[tail as usize]) < BLOCK
            && rank - self.base[tail as usize] <= u32::from(u16::MAX);
        if !fits {
            let block = self.next.len() as u32;
            self.next.push(NO_BLOCK);
            self.base.push(rank);
            self.fill.push(0);
            self.offs.resize(self.offs.len() + BLOCK, 0);
            self.dists.resize(self.dists.len() + BLOCK, Weight::ZERO);
            match tail {
                NO_BLOCK => self.head[node] = block,
                tail => self.next[tail as usize] = block,
            }
            self.tail[node] = block;
        }
        let block = self.tail[node] as usize;
        let slot = block * BLOCK + usize::from(self.fill[block]);
        self.offs[slot] = (rank - self.base[block]) as u16;
        self.dists[slot] = dist;
        self.fill[block] += 1;
    }

    /// The label of `node` in push order, as one `(base, offsets, dists)`
    /// triple per block: the block's hubs have ranks `base + offset`.
    fn chunks(&self, node: usize) -> impl Iterator<Item = (usize, &[u16], &[Weight])> {
        let mut block = self.head[node];
        std::iter::from_fn(move || {
            if block == NO_BLOCK {
                return None;
            }
            let b = block as usize;
            let (lo, take) = (b * BLOCK, usize::from(self.fill[b]));
            block = self.next[b];
            Some((self.base[b] as usize, &self.offs[lo..lo + take], &self.dists[lo..lo + take]))
        })
    }

    /// Freezes the arena in place into the labeling: every node's entries
    /// in push order, nodes in id order, the distances in an array whose
    /// length and capacity equal the entry count and the ranks written
    /// straight from the frozen offsets as the varint stream.
    fn freeze(self) -> HubLabeling {
        let LabelArena { mut offs, mut dists, mut base, mut fill, next, head, .. } = self;
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
        start.push(cursor);
        // 2. Swap cycles: each swap puts the block at `b` where it belongs.
        //    Slots before `b` already hold their final blocks, so `to > b`.
        for b in 0..dest.len() {
            while dest[b] as usize != b {
                let to = dest[b] as usize;
                swap_blocks(&mut offs, b, to);
                swap_blocks(&mut dists, b, to);
                base.swap(b, to);
                fill.swap(b, to);
                dest.swap(b, to);
            }
        }
        // 3. Close each block's unused tail. Entries never move right, so
        //    one left-to-right pass overwrites only what is done.
        let mut end = 0;
        for (b, &count) in fill.iter().enumerate() {
            let (from, count) = (b * BLOCK, usize::from(count));
            offs.copy_within(from..from + count, end);
            dists.copy_within(from..from + count, end);
            end += count;
        }
        // 4. Hand the arena's end back.
        offs.truncate(end);
        offs.shrink_to_fit();
        dists.truncate(end);
        dists.shrink_to_fit();
        // 5. The varint stream (see "Label storage"), sized in one pass and
        //    written in a second into a buffer reserved to exactly that size.
        //    Node `v`'s blocks are `start[v]..start[v + 1]`, its entries from
        //    `at` on.
        let (offs, base, fill) = (&offs, &base, &fill);
        let gaps = |v: usize, at: usize| {
            (start[v] as usize..start[v + 1] as usize)
                .scan(at, move |at, b| {
                    let lo = std::mem::replace(at, *at + usize::from(fill[b]));
                    Some(offs[lo..*at].iter().map(move |&o| base[b] + u32::from(o)))
                })
                .flatten()
                .scan(0, |prev, rank| Some(rank - std::mem::replace(prev, rank)))
        };
        let n = start.len() - 1;
        let (mut offsets, mut byte_offsets) = (vec![0], vec![0]);
        for v in 0..n {
            let blocks = &fill[start[v] as usize..start[v + 1] as usize];
            offsets.push(offsets[v] + blocks.iter().map(|&f| usize::from(f)).sum::<usize>());
            debug_assert!(gaps(v, offsets[v]).skip(1).all(|gap| gap > 0), "ranks ascend");
            byte_offsets.push(byte_offsets[v] + gaps(v, offsets[v]).map(varint_len).sum::<usize>());
        }
        let mut rank_bytes = Vec::with_capacity(byte_offsets[n]);
        for (v, &at) in offsets[..n].iter().enumerate() {
            gaps(v, at).for_each(|gap| write_varint(&mut rank_bytes, gap));
        }
        debug_assert_eq!(rank_bytes.len(), byte_offsets[n], "sized exactly");
        HubLabeling { offsets, byte_offsets, rank_bytes, dists }
    }
}

/// Swaps the [`BLOCK`]-entry blocks `a < b` of `v`.
fn swap_blocks<T>(v: &mut [T], a: usize, b: usize) {
    let (left, right) = v.split_at_mut(b * BLOCK);
    left[a * BLOCK..(a + 1) * BLOCK].swap_with_slice(&mut right[..BLOCK]);
}

/// Per-worker state for the pruned per-root Dijkstras: the rank-indexed
/// root-distance table, the reusable expansion buffers and the entry buffer.
/// Built once per build and reused by every level.
struct RootScratch {
    /// Distances from the current root to its hubs, indexed by rank; only
    /// the entries of the root's committed label are populated at any time.
    root_dist: Vec<Weight>,
    bufs: ExpansionBuffers,
    /// The current root's entries as they settle. [`RootScratch::search`]
    /// hands them out as one exactly sized copy (see "Construction memory").
    out: Vec<(NodeId, Weight)>,
}

impl RootScratch {
    fn new(n: usize) -> Self {
        RootScratch {
            root_dist: vec![Weight::INFINITY; n],
            bufs: ExpansionBuffers::new(),
            out: Vec::new(),
        }
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
        for (base, offs, dists) in labels.chunks(root.index()) {
            for (&o, &d) in offs.iter().zip(dists) {
                self.root_dist[base + usize::from(o)] = d;
            }
        }
        self.out.clear();
        let bufs = std::mem::replace(&mut self.bufs, ExpansionBuffers::new());
        let mut exp = NetworkExpansion::reusing(topo, bufs, std::iter::once((root, Weight::ZERO)));
        while let Some((u, d)) = exp.next_settled_unexpanded() {
            // Prune: if committed higher-ranked hubs already certify
            // d(root, u) <= d, this shortest path is covered — no label, and
            // no expansion through u (everything beyond is covered too).
            let covered = labels.chunks(u.index()).any(|(base, offs, dists)| {
                let root_dist = &self.root_dist[base..];
                offs.iter().zip(dists).any(|(&o, &d2)| root_dist[usize::from(o)] + d2 <= d)
            });
            if covered {
                continue;
            }
            self.out.push((u, d));
            exp.expand_from(u, d);
        }
        self.bufs = exp.into_buffers();
        for (base, offs, _) in labels.chunks(root.index()) {
            for &o in offs {
                self.root_dist[base + usize::from(o)] = Weight::INFINITY;
            }
        }
        self.out.to_vec()
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
    // Scoped worker threads pull root indices off a shared cursor and return
    // (index, result) pairs merged into root order.
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
        let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        order.sort_by(|&a, &b| degree[b.index()].cmp(&degree[a.index()]).then(a.cmp(&b)));

        // Per-node labels, grown level by level; entries end up in ascending
        // rank order because levels commit in rank order.
        let mut labels = LabelArena::new(n);
        let mut scratches: Vec<RootScratch> =
            (0..threads.min(MAX_LEVEL_WIDTH).min(n)).map(|_| RootScratch::new(n)).collect();
        let mut level_start = 0usize;
        let mut width_cap = 1usize;
        while level_start < n {
            let width = width_cap.min(MAX_LEVEL_WIDTH).min(n - level_start);
            let roots = &order[level_start..level_start + width];
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

        labels.freeze()
    }

    /// Number of labeled nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of entries in the label of `node`.
    pub fn label_len(&self, node: NodeId) -> usize {
        self.offsets[node.index() + 1] - self.offsets[node.index()]
    }

    /// The label of `node`: its hubs' ranks, ascending, each with the
    /// distance to that hub. Decoded one entry at a time, so a scan that
    /// stops early decodes only the entries it read.
    pub fn entries(&self, node: NodeId) -> impl Iterator<Item = (u32, Weight)> + '_ {
        let mut pos = self.byte_offsets[node.index()];
        let mut rank = 0;
        (self.offsets[node.index()]..self.offsets[node.index() + 1]).map(move |i| {
            rank += read_varint(&self.rank_bytes, &mut pos);
            (rank, self.dists[i])
        })
    }

    /// The label-based shortest path distance between two nodes, or `None`
    /// if they share no hub (different connected components).
    ///
    /// Symmetric by construction: the same hub set and the same commutative
    /// sums are considered for `(u, v)` and `(v, u)`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let (mut lu, mut lv) = (self.entries(u), self.entries(v));
        let (mut eu, mut ev) = (lu.next(), lv.next());
        let mut best: Option<Weight> = None;
        while let (Some((hu, du)), Some((hv, dv))) = (eu, ev) {
            match hu.cmp(&hv) {
                std::cmp::Ordering::Less => eu = lu.next(),
                std::cmp::Ordering::Greater => ev = lv.next(),
                std::cmp::Ordering::Equal => {
                    let through = du + dv;
                    best = Some(best.map_or(through, |b| b.min(through)));
                    (eu, ev) = (lu.next(), lv.next());
                }
            }
        }
        best
    }

    /// Size statistics of the labeling.
    pub fn stats(&self) -> LabelStats {
        let nodes = self.num_nodes();
        let entries = self.offsets[nodes];
        let max_label =
            (0..nodes).map(|v| self.offsets[v + 1] - self.offsets[v]).max().unwrap_or(0);
        let offset_bytes = (self.offsets.len() + self.byte_offsets.len()) * size_of::<usize>();
        let label_bytes = offset_bytes + self.rank_bytes.len() + size_of_val(self.dists.as_slice());
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
        labeling.entries(NodeId::new(v)).unzip()
    }

    /// The build's construction order, derived independently: nodes by
    /// descending degree, ties by ascending id. `order[r]` has rank `r`.
    fn degree_order(g: &Graph) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = g.node_ids().collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        order
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
        // Nodes 5 and 6 jump 70 000 ranks at entries 40 and 110, so a block
        // closes early in the middle of their labels.
        let sizes = [0usize, 1, 63, 64, 65, 128, 129, 1];
        let last = sizes.len() - 1;
        let entry = |v: usize, i: usize| {
            let jumps = if v >= 5 { usize::from(i >= 40) + usize::from(i >= 110) } else { 0 };
            ((v * 1000 + i + jumps * 70_000) as u32, Weight::new(i as f64 + v as f64 / 8.0))
        };
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
        let chain = |v: usize| {
            let mut blocks = vec![arena.head[v]];
            while arena.next[blocks[blocks.len() - 1] as usize] != NO_BLOCK {
                blocks.push(arena.next[blocks[blocks.len() - 1] as usize]);
            }
            blocks
                .iter()
                .map(|&b| (arena.base[b as usize], arena.fill[b as usize]))
                .collect::<Vec<_>>()
        };
        assert_eq!(chain(4), [(4000, 64), (4064, 1)], "a full block closes");
        assert_eq!(
            chain(6),
            [(6000, 40), (76_040, 64), (76_104, 6), (146_110, 19)],
            "a jump past u16::MAX closes a block early"
        );
        assert_eq!(arena.next.len(), 14);

        let labeling = arena.freeze();
        let entries: usize = sizes.iter().sum();
        assert_eq!(labeling.offsets.len(), sizes.len() + 1);
        for (v, &size) in sizes.iter().enumerate() {
            assert_eq!(labeling.label_len(NodeId::new(v)), size, "node {v}");
            let expected: Vec<_> = (0..size).map(|i| entry(v, i)).collect();
            assert_eq!(labeling.entries(NodeId::new(v)).collect::<Vec<_>>(), expected, "node {v}");
        }
        let dists = &labeling.dists;
        assert_eq!((dists.len(), dists.capacity()), (entries, entries));
        let bytes = labeling.byte_offsets[sizes.len()];
        assert_eq!((labeling.rank_bytes.len(), labeling.rank_bytes.capacity()), (bytes, bytes));
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
        let order = degree_order(&g);
        for v in 0..16 {
            let node = NodeId::new(v);
            let (ranks, dists) = label_of(&labeling, v);
            assert!(!ranks.is_empty());
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "ranks strictly ascend");
            // Every node's label contains itself at distance zero.
            let own = order.iter().position(|&u| u == node).unwrap() as u32;
            let at = ranks.iter().position(|&r| r == own).unwrap();
            assert_eq!(dists[at], Weight::ZERO);
            // Each entry is the distance to the node of the hub's rank.
            for (&r, &d) in ranks.iter().zip(&dists) {
                assert_eq!(Some(d), network_distance(&g, node, order[r as usize]), "node {v}");
            }
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
        assert_eq!(degree_order(&g)[0], NodeId::new(0));
        assert_eq!(label_of(&labeling, 0), (vec![0], vec![Weight::ZERO]), "the center's own label");
        for v in 0..5 {
            let (ranks, _) = label_of(&labeling, v);
            assert_eq!(ranks[0], 0, "node {v} is covered by the center hub");
        }
        // Leaves are fully covered by the center: label = {center, self}.
        assert_eq!(labeling.stats().entries, 1 + 4 * 2);
    }

    #[test]
    fn ranks_past_u16_open_fresh_blocks_mid_label() {
        // A star of 70 000 leaves: the centre is rank 0 and leaf `v` rank
        // `v`, so every leaf's label is `[(0, w), (v, 0)]`, and for the
        // leaves ranked above u16::MAX the second entry opens a fresh block.
        let leaves = 70_000;
        let w = |leaf: usize| 1.0 + (leaf % 7) as f64 / 4.0;
        let mut b = GraphBuilder::new(leaves + 1);
        for leaf in 1..=leaves {
            b.add_edge(0, leaf, w(leaf)).unwrap();
        }
        let g = b.build().unwrap();
        let labeling = HubLabeling::build_with_threads(&g, 1);
        assert_eq!(labeling.stats().entries, 1 + 2 * leaves);
        assert_eq!(label_of(&labeling, 0), (vec![0], vec![Weight::ZERO]));
        let ranks_by_id: Vec<NodeId> = (0..=leaves).map(NodeId::new).collect();
        assert_eq!(degree_order(&g), ranks_by_id, "leaf `v` has rank `v`");
        for leaf in 1..=leaves {
            assert_eq!(
                label_of(&labeling, leaf),
                (vec![0, leaf as u32], vec![Weight::new(w(leaf)), Weight::ZERO]),
                "leaf {leaf}"
            );
        }
        assert_eq!(labeling, HubLabeling::build_with_threads(&g, 2));
        for i in 0..300usize {
            let (u, v) = ((i * 7_919) % (leaves + 1), (i * 104_729 + 65_000) % (leaves + 1));
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            assert_eq!(labeling.distance(u, v), network_distance(&g, u, v), "pair {u:?}, {v:?}");
        }
    }

    #[test]
    fn compressed_exact_decodes_identically() {
        // Gaps of every varint width, up to the largest rank, and a first
        // rank that takes three bytes on its own. The two widest gaps pass
        // u16::MAX, so node 2's second and third blocks open early, and node
        // 3's one block lands between them.
        let labels: [&[u32]; 4] =
            [&[], &[0], &[5, 6, 133, 261, 16_645, 33_029, 2_130_181, u32::MAX], &[16_384]];
        let dist = |v: usize, i: usize| Weight::new((v * 8 + i) as f64 / 4.0);
        let mut arena = LabelArena::new(labels.len());
        for (v, label) in labels.iter().enumerate().take(3) {
            for (i, &rank) in label.iter().enumerate().take(7) {
                arena.push(v, rank, dist(v, i));
            }
        }
        arena.push(3, 16_384, dist(3, 0));
        arena.push(2, u32::MAX, dist(2, 7));
        assert_eq!(arena.base, [0, 5, 2_130_181, 16_384, u32::MAX]);
        assert_eq!(arena.fill, [1, 6, 1, 1, 1]);

        let labeling = arena.freeze();
        assert_eq!(labeling.byte_offsets, [0, 0, 1, 1 + 1 + 1 + 1 + 2 + 3 + 3 + 4 + 5, 24]);
        assert_eq!((labeling.rank_bytes.len(), labeling.rank_bytes.capacity()), (24, 24));
        for (v, label) in labels.iter().enumerate() {
            let expected: Vec<_> =
                label.iter().enumerate().map(|(i, &r)| (r, dist(v, i))).collect();
            assert_eq!(labeling.entries(NodeId::new(v)).collect::<Vec<_>>(), expected, "node {v}");
        }
    }

    #[test]
    fn compressed_layouts_shrink_label_bytes() {
        let g = grid4();
        let exact = HubLabeling::build(&g);
        let stats = exact.stats();
        // Ranks below 128 take one byte each, against four in a `u32`.
        let offsets = 2 * 17 * size_of::<usize>();
        assert_eq!(exact.rank_bytes.len(), stats.entries);
        assert_eq!(stats.label_bytes(), offsets + stats.entries * (1 + 8));
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0u32, 1, 127, 128, 300, 16_383, 16_384, u32::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        assert_eq!(buf.len(), values.iter().map(|&v| varint_len(v)).sum::<usize>());
        assert_eq!(values.map(varint_len), [1, 1, 1, 2, 2, 2, 3, 5]);
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
    }
}
