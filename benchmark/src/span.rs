//! The benchmark's own span recorder and the two adapters that let it see
//! layer boundaries from outside the program under test.
//!
//! [`SpanTopology`] wraps the public `Topology` trait (the boundary between
//! `rnn-core` and whatever serves adjacency lists) and [`SpanStore`] wraps the
//! public `PageStore` trait (the boundary between the buffer pool and the
//! page file). Together with the spans the workloads open around their own
//! calls, that nests as
//!
//! ```text
//! core.<algorithm>                  benchmark's call into run_rknn_with
//!   graph.visit_neighbors           SpanTopology: one adjacency fetch
//!     storage.store.read_page       SpanStore: one page read on a pool miss
//! ```
//!
//! and a layer's *self* time is its span minus its children: the root's self
//! time is expansion / range-NN / verification work in `rnn-core`, the
//! middle span's self time is the in-memory CSR walk (`rnn-graph`) or the
//! buffer-pool lookup plus page decode (`rnn-storage`), the leaf is the
//! store read.
//!
//! Recording is per thread (no locks on the hot path) and costs two clock
//! reads per span. Every span feeds per-name aggregates; full span records
//! are kept only for a bounded sample of operations, because one eager query
//! at this scale opens ~16 000 spans.

use crate::sys::process_start;
use rnn_graph::{Neighbor, NodeId, Topology};
use rnn_storage::{Page, PageId, PageStore, StorageError};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Span names. The discriminant indexes [`Name::ALL`] and the aggregates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    CoreEager,
    CoreLazyEp,
    CoreLazy,
    TopoVisit,
    StoreRead,
    Request,
    Lateness,
    QueueWait,
    Service,
    SwapDelta,
    IndexRknn,
    IndexUpdate,
    ObsSnapshot,
}

impl Name {
    pub const ALL: [Name; 13] = [
        Name::CoreEager,
        Name::CoreLazyEp,
        Name::CoreLazy,
        Name::TopoVisit,
        Name::StoreRead,
        Name::Request,
        Name::Lateness,
        Name::QueueWait,
        Name::Service,
        Name::SwapDelta,
        Name::IndexRknn,
        Name::IndexUpdate,
        Name::ObsSnapshot,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::CoreEager => "core.eager",
            Name::CoreLazyEp => "core.lazy_ep",
            Name::CoreLazy => "core.lazy",
            Name::TopoVisit => "graph.visit_neighbors",
            Name::StoreRead => "storage.store.read_page",
            Name::Request => "server.request",
            Name::Lateness => "server.generator_lateness",
            Name::QueueWait => "server.queue_wait",
            Name::Service => "server.service",
            Name::SwapDelta => "server.swap_points_delta",
            Name::IndexRknn => "index.rknn_in",
            Name::IndexUpdate => "index.update_point",
            Name::ObsSnapshot => "obs.snapshot",
        }
    }
}

/// "No parent" / "no operation" marker in [`Span`].
pub const NONE: u32 = u32::MAX;

/// Full spans a thread without an operation context (a server worker) keeps
/// before it falls back to aggregates only.
const WORKER_KEEP_SPANS: usize = 40_000;

/// One recorded span. `parent` indexes the same thread's span list.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// Count and total time of every span of one name. Self times follow by
/// subtraction (see [`OpCost`]): spans of one name never nest in themselves.
#[derive(Copy, Clone, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
}

pub type Aggregates = [Agg; Name::ALL.len()];

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub thread: String,
    pub spans: Vec<Span>,
    pub agg: Aggregates,
}

struct Frame {
    name: Name,
    start_ns: u64,
    index: u32,
}

struct Local {
    trace: ThreadTrace,
    stack: Vec<Frame>,
    op: u32,
    keep: bool,
}

impl Local {
    fn new() -> Self {
        let thread = std::thread::current().name().unwrap_or("unnamed").to_owned();
        Local {
            trace: ThreadTrace { thread, ..ThreadTrace::default() },
            stack: Vec::new(),
            op: NONE,
            keep: false,
        }
    }

    fn push(&mut self, name: Name) {
        // A child is kept exactly when its parent is, so kept trees are whole.
        let (parent, keep) = match self.stack.last() {
            Some(frame) => (frame.index, frame.index != NONE),
            None if self.op != NONE => (NONE, self.keep),
            None => (NONE, self.trace.spans.len() < WORKER_KEEP_SPANS),
        };
        let index = if keep {
            self.trace.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
            (self.trace.spans.len() - 1) as u32
        } else {
            NONE
        };
        // Clock read last on entry and first on exit: the bookkeeping lands
        // in the parent's self time, not in this span.
        self.stack.push(Frame { name, start_ns: now_ns(), index });
    }

    fn pop(&mut self) {
        let end_ns = now_ns();
        let frame = self.stack.pop().expect("span exit without entry");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let agg = &mut self.trace.agg[frame.name as usize];
        agg.count += 1;
        agg.total_ns += dur;
        if frame.index != NONE {
            let span = &mut self.trace.spans[frame.index as usize];
            span.start_ns = frame.start_ns;
            span.end_ns = end_ns;
        }
    }

    fn flush(&mut self) {
        let thread = self.trace.thread.clone();
        let trace =
            std::mem::replace(&mut self.trace, ThreadTrace { thread, ..Default::default() });
        if trace.agg.iter().any(|a| a.count > 0) {
            COLLECTED.lock().expect("span collector lock").push(trace);
        }
    }
}

impl Drop for Local {
    /// Server workers never call into the benchmark, so their recordings are
    /// handed over when the thread exits (`Server::shutdown` joins them).
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
    /// Neighbor buffer of [`SpanTopology`], taken out while in use so a
    /// nested fetch from inside a visitor just allocates a fresh one.
    static NEIGHBORS: RefCell<Vec<Neighbor>> = const { RefCell::new(Vec::new()) };
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTED: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());

/// Nanoseconds since the process started (the span clock's zero).
pub fn now_ns() -> u64 {
    process_start().elapsed().as_nanos() as u64
}

/// `instant` on the span clock.
pub fn ns_of(instant: Instant) -> u64 {
    instant.saturating_duration_since(process_start()).as_nanos() as u64
}

/// Turns recording on or off. Only flipped between passes, when no span is
/// open anywhere.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; closes when dropped.
pub struct Guard {
    active: bool,
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            LOCAL.with(|local| local.borrow_mut().pop());
        }
    }
}

/// Opens a span on the current thread (a no-op while recording is off).
#[inline]
pub fn enter(name: Name) -> Guard {
    let active = enabled();
    if active {
        LOCAL.with(|local| local.borrow_mut().push(name));
    }
    Guard { active }
}

/// Time one operation spent per layer, from the aggregates' deltas.
#[derive(Copy, Clone, Debug, Default)]
pub struct OpCost {
    pub dur_ns: u64,
    pub topo_ns: u64,
    pub store_ns: u64,
}

impl OpCost {
    /// Self time of the root span: what `rnn-core` did itself.
    pub fn core_self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.topo_ns)
    }

    /// Self time of the topology spans: CSR walk, or pool lookup + decode.
    pub fn topo_self_ns(&self) -> u64 {
        self.topo_ns.saturating_sub(self.store_ns)
    }
}

/// Runs `body` as operation `op` under a root span `name`, keeping its full
/// span tree when `keep` is set, and returns what it cost per layer. With
/// recording off this is just `body()`.
pub fn in_op<R>(name: Name, op: u32, keep: bool, body: impl FnOnce() -> R) -> (R, OpCost) {
    if !enabled() {
        return (body(), OpCost::default());
    }
    let before = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        local.op = op;
        local.keep = keep;
        local.push(name);
        local.trace.agg
    });
    let result = body();
    let cost = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        local.pop();
        local.op = NONE;
        let after = &local.trace.agg;
        let delta = |n: Name| after[n as usize].total_ns - before[n as usize].total_ns;
        OpCost {
            dur_ns: delta(name),
            topo_ns: delta(Name::TopoVisit),
            store_ns: delta(Name::StoreRead),
        }
    });
    (result, cost)
}

/// Records a span tree whose times were measured elsewhere (a served
/// request: the server reports queue wait and service time after the fact).
/// `children` must lie inside `root` and not overlap.
pub fn record_tree(op: u32, root: (Name, u64, u64), children: &[(Name, u64, u64)]) {
    if !enabled() {
        return;
    }
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let trace = &mut local.trace;
        let parent = trace.spans.len() as u32;
        let mut add = |(name, start_ns, end_ns): (Name, u64, u64), parent: u32| {
            let agg = &mut trace.agg[name as usize];
            agg.count += 1;
            agg.total_ns += end_ns.saturating_sub(start_ns);
            trace.spans.push(Span { name, start_ns, end_ns, parent, op });
        };
        add(root, NONE);
        for &child in children {
            add(child, parent);
        }
    });
}

/// Hands the current thread's recordings to the collector.
pub fn flush_thread() {
    LOCAL.with(|local| local.borrow_mut().flush());
}

/// Everything flushed so far, by every thread.
pub fn take_collected() -> Vec<ThreadTrace> {
    std::mem::take(&mut *COLLECTED.lock().expect("span collector lock"))
}

/// Sums the aggregates of all threads.
pub fn merge(traces: &[ThreadTrace]) -> Aggregates {
    let mut total = Aggregates::default();
    for trace in traces {
        for (sum, agg) in total.iter_mut().zip(&trace.agg) {
            sum.count += agg.count;
            sum.total_ns += agg.total_ns;
        }
    }
    total
}

/// A [`Topology`] that opens a span around every adjacency fetch.
///
/// The neighbors are buffered and replayed to the visitor *after* the span
/// closes: the visitor is `rnn-core` code (heap pushes, pruning), and its
/// time belongs to the caller's self time, not to the topology.
pub struct SpanTopology<T: ?Sized> {
    inner: Arc<T>,
}

impl<T: ?Sized> SpanTopology<T> {
    pub fn new(inner: Arc<T>) -> Self {
        SpanTopology { inner }
    }
}

impl<T: Topology + Send + ?Sized> Topology for SpanTopology<T> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn visit_neighbors(&self, node: NodeId, visit: &mut dyn FnMut(Neighbor)) {
        if !enabled() {
            return self.inner.visit_neighbors(node, visit);
        }
        let mut buffer = NEIGHBORS.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
        buffer.clear();
        {
            let _span = enter(Name::TopoVisit);
            self.inner.visit_neighbors(node, &mut |n| buffer.push(n));
        }
        for &neighbor in &buffer {
            visit(neighbor);
        }
        NEIGHBORS.with(|cell| *cell.borrow_mut() = buffer);
    }

    fn wants_prefetch_hints(&self) -> bool {
        self.inner.wants_prefetch_hints()
    }

    fn prefetch_hint(&self, nodes: &[NodeId]) {
        self.inner.prefetch_hint(nodes)
    }
}

/// A [`PageStore`] that opens a span around every page read.
pub struct SpanStore<S> {
    inner: S,
}

impl<S> SpanStore<S> {
    pub fn new(inner: S) -> Self {
        SpanStore { inner }
    }
}

impl<S: PageStore> PageStore for SpanStore<S> {
    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn read_page(&self, page: PageId) -> Result<Page, StorageError> {
        let _span = enter(Name::StoreRead);
        self.inner.read_page(page)
    }
}
