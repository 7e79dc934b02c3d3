//! The serving lifecycle: worker pool, admission, world swaps, shutdown.
//!
//! A [`Server`] is the first component in this workspace with a *lifecycle*
//! rather than a pure function signature: [`Server::start`] spawns N
//! long-lived worker threads, a steady state serves an open-ended request
//! stream, and [`Server::shutdown`] drains the queue and joins the workers.
//!
//! The data flow per request:
//!
//! ```text
//! submit() ──admission──▶ RequestQueue ──micro-batch──▶ worker ──▶ Ticket
//!    │                    (per-class,                     │
//!    │                     EDF, then FIFO)                └── run_rknn_with
//!    └── Err(QueueFull / ShuttingDown / Unservable)           on the current World
//!        (synchronous rejection)
//! ```
//!
//! Each worker owns a [`Scratch`] arena (steady-state queries are
//! allocation-free), answers every request through
//! [`rnn_core::run_rknn_with`] — the one dispatch every caller shares — and
//! drains the queue in micro-batches of up to 8 requests per wakeup —
//! interactive before batch class, earliest-deadline-first within a class.
//! When the world is a `PagedGraph`, all workers share one striped buffer
//! pool and its I/O count, so the serving path reuses every concurrency
//! layer built underneath it.
//!
//! **World swaps.** The topology and precomputed structures live in a
//! [`World`] behind an RwLock. A worker holds the *read* lock for the
//! duration of one micro-batch; [`Server::swap_points`] takes the *write*
//! lock and installs the new point set before releasing. So a micro-batch
//! answers every one of its requests from one consistent world: a swap waits
//! for every in-flight batch to finish, and every later batch sees the new
//! world.
//!
//! **Accounting.** Every submitted request lands in exactly one of
//! `rejected` (synchronous), `completed`, or `shed` (asynchronous, via its
//! ticket): `completed + rejected + shed == submitted` holds at quiescence,
//! per priority class — the shutdown-under-load test pins it down. Requests
//! shed at *dequeue* still record their queue wait (a histogram that only
//! counted survivors would look healthiest exactly when the server drowns),
//! and `queue_wait.count() == completed + shed_at_dequeue` per class.
//!
//! **Stats are wait-free.** Submitters and workers count through
//! `rnn-obs` counters, and each worker records its latencies into its own
//! histograms ([`crate::stats`]); a [`Server::stats`] poll takes no lock a
//! worker holds while it serves — only the queue lock for the depth, which
//! a worker holds just to pop a batch, and, on a server started with I/O
//! accounting, the buffer shard locks its I/O rollup reads the pool's one
//! count under.

use crate::queue::{Admission, RequestQueue};
use crate::request::{Priority, Queued, Request, ServeError, ServedQuery, Ticket};
use crate::stats::{
    algorithm_index, CacheStats, ClassCounters, ClassStats, LatencyPair, ServerStats,
};
use rnn_core::{
    run_rknn_with, Algorithm, HubLabelRknn, MaterializedKnn, Precomputed, RknnOutcome, Scratch,
};
use rnn_graph::{NodeId, PointsOnNodes, Topology, Weight};
use rnn_index::HubLabelIndex;
use rnn_obs::{
    Counter, Drained, EventKind, FlightRecorder, LatencyHistogram, MetricsRegistry, Phase,
    QueryTrace, SlowQueryLog, SlowQueryReport, TraceRecorder,
};
use rnn_storage::{IoCounters, StorageControl};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Panics unless `updates`, applied in order, take `index` to `points`:
/// each insert on a node free in the index (after the updates before it),
/// each removal on one occupied, every touched node ending as `points` has
/// it (a batch may insert a point and remove it again), and the count ending
/// at `points.num_points()`. `O(#updates)`: only the nodes the batch touches
/// can differ from what the index holds.
fn check_point_updates(index: &HubLabelIndex, points: &dyn PointsOnNodes, updates: &[PointUpdate]) {
    let mut touched: HashMap<NodeId, bool> = HashMap::with_capacity(updates.len());
    let mut count = index.num_points();
    for &update in updates {
        let (node, insert) = match update {
            PointUpdate::Insert(node) => (node, true),
            PointUpdate::Remove(node) => (node, false),
        };
        assert!(node.index() < index.num_nodes(), "{update:?} lies outside the indexed graph");
        let held = touched.get(&node).copied();
        let held = held.unwrap_or_else(|| index.point_table().point_of(node).is_some());
        assert_ne!(held, insert, "{update:?} does not apply to the index");
        touched.insert(node, insert);
        count = if insert { count + 1 } else { count - 1 };
    }
    for (&node, &held) in &touched {
        assert_eq!(
            held,
            points.point_at(node).is_some(),
            "the updates leave {node} unlike the new set"
        );
    }
    assert_eq!(
        count,
        points.num_points(),
        "updates must reconcile the index with the new point set"
    );
}

/// Events an observed server's flight recorder holds between drains; older
/// ones are overwritten and counted in [`Drained::dropped`].
const RECORDER_CAPACITY: usize = 4_096;

/// Maximum requests a worker takes per wakeup. Micro-batching amortizes lock
/// acquisitions and condvar wakeups when the queue runs deep; it never waits
/// for a full batch, so it adds no latency when the queue is shallow.
const MICRO_BATCH: usize = 8;

/// One point mutation of a delta-shaped swap (see
/// [`Server::swap_points_delta`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PointUpdate {
    /// Place a point on this (currently unoccupied) node.
    Insert(NodeId),
    /// Remove the point on this (currently occupied) node.
    Remove(NodeId),
}

/// The graph, point set and precomputed structures a server answers from —
/// everything [`rnn_core::run_rknn_with`] borrows, owned behind `Arc`s so
/// worker threads outlive any one caller's stack frame.
pub struct World {
    topo: Arc<dyn Topology + Send + Sync>,
    points: Arc<dyn PointsOnNodes + Send + Sync>,
    materialized: Option<Arc<MaterializedKnn>>,
    /// The hub-label index ([`World::with_hub_label_index`]), which
    /// [`Server::swap_points_delta`] maintains in place.
    hub_index: Option<Arc<HubLabelIndex>>,
    /// Introspection handle of the paged storage behind `topo`, when the
    /// world is disk-resident ([`World::with_storage_control`]): lets the
    /// server export the buffer's per-shard hit rates and record its
    /// control-plane events. Point swaps never touch it — the topology (and
    /// its storage) outlives point churn.
    storage: Option<Arc<dyn StorageControl>>,
}

impl World {
    /// A world of a topology and point set, with no precomputed structures
    /// (algorithms that need them are turned away as
    /// [`ServeError::Unservable`]).
    pub fn new(
        topo: Arc<dyn Topology + Send + Sync>,
        points: Arc<dyn PointsOnNodes + Send + Sync>,
    ) -> Self {
        World { topo, points, materialized: None, hub_index: None, storage: None }
    }

    /// Attaches the storage-control handle of a paged topology (typically
    /// the same `Arc<PagedGraph<_>>` passed as `topo`, re-cast): the server
    /// then exports the buffer pool's per-shard hit rates through its
    /// metrics source and, on an observed server ([`Server::start_observed`]),
    /// records the pool's resize and clear events.
    pub fn with_storage_control(mut self, storage: Arc<dyn StorageControl>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Attaches a materialized k-NN table (admits
    /// [`Algorithm::EagerMaterialized`] requests) if it was built over this
    /// world's nodes and points; a table over other points is left off, so
    /// its requests are [`ServeError::Unservable`].
    pub fn with_materialized(mut self, table: Arc<MaterializedKnn>) -> Self {
        self.materialized = self.table_matches(&table).then_some(table);
        self
    }

    /// Attaches a hub-label index (admits [`Algorithm::HubLabel`] requests)
    /// if it was built over this world's nodes and points, as
    /// [`World::with_materialized`] does a table.
    /// [`Server::swap_points_delta`] updates an attached index in place
    /// instead of requiring a full rebuild per swap.
    pub fn with_hub_label_index(mut self, index: Arc<HubLabelIndex>) -> Self {
        self.hub_index = self.index_matches(&index).then_some(index);
        self
    }

    /// `true` if `table` covers every node and lists a node first, at
    /// distance 0, exactly when the node holds a point — as a table built
    /// over this world's points does, edge weights being positive. `O(|V|)`,
    /// once per attach: comparing counts alone passes a table over as many
    /// other points, which answers wrong without failing.
    fn table_matches(&self, table: &MaterializedKnn) -> bool {
        table.num_nodes() == self.topo.num_nodes()
            && (0..table.num_nodes()).map(NodeId::new).all(|v| {
                let first = table.knn_of_untracked(v).first();
                let own = first.is_some_and(|&(u, d)| u == v && d == Weight::ZERO);
                own == self.points.contains_node(v)
            })
    }

    /// `true` if `index` labels every node and holds a point on exactly the
    /// nodes this world does. `O(|V|)`, once per attach, as
    /// [`World::table_matches`].
    fn index_matches(&self, index: &HubLabelIndex) -> bool {
        let owners = index.point_table();
        index.num_nodes() == self.topo.num_nodes()
            && (0..index.num_nodes())
                .map(NodeId::new)
                .all(|v| owners.point_of(v).is_some() == self.points.contains_node(v))
    }

    /// `true` if a worker can serve `request` on this world: `k` is at least
    /// 1, the query is a node of the topology, and the precomputed structure
    /// the algorithm needs is attached (for eager-M, materialized for at
    /// least `k` neighbors). Anything else would panic inside the dispatch.
    fn can_serve(&self, request: &Request) -> bool {
        let algorithm = request.algorithm;
        request.k >= 1
            && request.query.index() < self.topo.num_nodes()
            && (!algorithm.needs_materialization()
                || self.materialized.as_ref().is_some_and(|table| request.k <= table.capacity_k()))
            && (!algorithm.needs_hub_labels() || self.hub_index.is_some())
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("num_nodes", &self.topo.num_nodes())
            .field("num_points", &self.points.num_points())
            .field("materialized", &self.materialized.is_some())
            .field("hub_index", &self.hub_index.is_some())
            .field("storage", &self.storage.is_some())
            .finish()
    }
}

/// Server sizing and tracing — the config the constructor consumes, set
/// through its `with_*` methods.
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Number of worker threads (at least 1).
    workers: usize,
    /// Request-queue capacity (at least 1), shared across priority classes.
    queue_capacity: usize,
    /// Per-query phase tracing on the serving path.
    tracing: bool,
    /// Worst-N capacity of the slow-query log (0 disables worst capture).
    slow_worst: usize,
    /// Uniform-sample rate of the slow-query log: one trace per this many
    /// arrivals on average (0 disables sampling).
    slow_sample_every: u64,
    /// Sample-ring capacity of the slow-query log.
    slow_samples: usize,
    /// Seed of the slow-query log's deterministic sampler.
    slow_seed: u64,
}

impl Default for ServerConfig {
    /// Two workers, a 1024-deep queue, no tracing.
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 1024,
            tracing: false,
            slow_worst: 0,
            slow_sample_every: 0,
            slow_samples: 0,
            slow_seed: 0,
        }
    }
}

impl ServerConfig {
    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the queue capacity (clamped to at least 1), shared across
    /// priority classes.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Does nothing: the server has no result cache. Kept only because the
    /// standalone benchmark still calls it; it goes once ROADMAP item 10
    /// drops that call.
    #[doc(hidden)]
    pub fn with_result_cache(self, _capacity: usize, _shards: usize) -> Self {
        self
    }

    /// Enables or disables per-query phase tracing on the serving path. Off
    /// by default; when on, every served query produces a
    /// [`rnn_obs::QueryTrace`] that is folded into the registry's
    /// `algorithm x phase` aggregates (under [`Server::start_observed`]) and
    /// offered to the slow-query log.
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Enables the slow-query log: keep the `worst` slowest traces plus a
    /// deterministic 1-in-`sample_every` uniform sample (ring of `samples`
    /// traces, seeded by `seed`). The log consumes traces, so this also
    /// turns tracing on.
    pub fn with_slow_query_log(
        mut self,
        worst: usize,
        sample_every: u64,
        samples: usize,
        seed: u64,
    ) -> Self {
        self.slow_worst = worst;
        self.slow_sample_every = sample_every;
        self.slow_samples = samples;
        self.slow_seed = seed;
        self.tracing = true;
        self
    }
}

/// Everything the workers and the handle share.
struct Shared {
    queue: RequestQueue,
    world: RwLock<World>,
    io: Option<IoCounters>,
    /// Admission and completion counters, in [`Priority::ALL`] order.
    /// Global totals are their sums, so the two levels never disagree.
    classes: [ClassCounters; Priority::ALL.len()],
    /// Served requests per algorithm, in [`Algorithm::ALL`] order.
    served: [Counter; Algorithm::ALL.len()],
    /// Worker wakeups that took at least one request.
    micro_batches: Counter,
    /// Per worker, its latency pair per class in [`Priority::ALL`] order;
    /// only that worker records into them.
    latencies: Vec<[LatencyPair; Priority::ALL.len()]>,
    /// Per-query phase tracing: workers start their scratch's tracer and
    /// harvest one trace per served query.
    tracing: bool,
    /// Pre-resolved `algorithm x phase` registry handles (present only
    /// under [`Server::start_observed`] with tracing on).
    recorder: Option<TraceRecorder>,
    /// Worst-N + uniform-sample trace capture, drained through
    /// [`Server::drain_slow_queries`].
    slow_log: Option<SlowQueryLog>,
    /// The flight recorder of structured serving events (present only
    /// under [`Server::start_observed`]).
    events: Option<Arc<FlightRecorder>>,
    /// When the server started: the zero point of every
    /// [`rnn_obs::QueryTrace::start_nanos`] stamp and flight-recorder event
    /// timestamp, so one serving run shares one trace timeline.
    started: Instant,
}

impl Shared {
    /// The world, read-locked. Poison is ignored, as by `request.rs`'s
    /// `lock`: a worker that panicked under the lock must not fail every
    /// later request.
    fn world(&self) -> RwLockReadGuard<'_, World> {
        self.world.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The world, write-locked, ignoring poison likewise.
    fn world_mut(&self) -> RwLockWriteGuard<'_, World> {
        self.world.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counters of `priority`'s class.
    fn class(&self, priority: Priority) -> &ClassCounters {
        &self.classes[priority.index()]
    }

    /// Nanoseconds since the server started — the shared timeline of trace
    /// `start_nanos` stamps and flight-recorder event timestamps.
    fn nanos_since_start(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends `kind` to the flight recorder, stamped now; a no-op on a
    /// server started without a registry.
    fn record_event(&self, kind: EventKind) {
        if let Some(events) = &self.events {
            events.record_at(self.nanos_since_start(), kind);
        }
    }

    /// Records one request of `class` shed past its deadline, at either
    /// admission edge.
    fn record_shed(&self, class: Priority) {
        self.record_event(EventKind::AdmissionShed { class: class.index() as u64, count: 1 });
    }

    /// Resolves one admission decision into the caller-visible result,
    /// updating the submitter's (and, for an evicted victim, the victim's)
    /// class counters. Shared by [`Server::submit`] and
    /// [`Server::submit_all`] so batched accounting is identical to N
    /// single submits by construction.
    fn resolve_admission(
        &self,
        priority: Priority,
        admission: Admission,
        ticket: Ticket,
    ) -> Result<Ticket, ServeError> {
        let class = self.class(priority);
        match admission {
            Admission::Enqueued => {
                class.accepted.inc();
                Ok(ticket)
            }
            Admission::EnqueuedAfterShed(victim) => {
                class.accepted.inc();
                // The victim is shed against *its* class, not the
                // submitter's.
                let victim_class = victim.request.priority;
                self.class(victim_class).shed.inc();
                self.record_shed(victim_class);
                victim.fail(ServeError::Shed);
                Ok(ticket)
            }
            Admission::ShedNewcomer(newcomer) => {
                // The request arrived already expired at the full edge: it
                // was never enqueued, and resolves through its ticket like
                // every other shed.
                class.shed.inc();
                self.record_shed(priority);
                newcomer.fail(ServeError::Shed);
                Ok(ticket)
            }
            Admission::Rejected(unadmitted) => {
                class.rejected.inc();
                // The drop resolves the never-handed-out ticket (Lost).
                drop(unadmitted);
                Err(ServeError::QueueFull)
            }
            Admission::Closed(unadmitted) => {
                class.rejected.inc();
                drop(unadmitted);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// The stats assembly behind [`Server::stats`], on `Shared` so a
    /// registered metrics source (which holds an `Arc<Shared>`, not the
    /// `Server` handle) polls the identical snapshot.
    fn stats_snapshot(&self) -> ServerStats {
        // Read order carries the snapshot's invariants (see `crate::stats`):
        // per class, histograms first, then counters, `submitted` last.
        let per_class: Vec<(Priority, ClassStats)> = Priority::ALL
            .iter()
            .map(|&p| {
                let (mut queue_wait, mut service) =
                    (LatencyHistogram::new(), LatencyHistogram::new());
                for worker in &self.latencies {
                    let pair = &worker[p.index()];
                    queue_wait.merge(&pair.queue_wait.load());
                    service.merge(&pair.service.load());
                }
                let c = self.class(p);
                // Fields evaluate in the order written.
                let class = ClassStats {
                    queue_wait,
                    service,
                    accepted: c.accepted.value(),
                    rejected: c.rejected.value(),
                    shed: c.shed.value(),
                    shed_at_dequeue: c.shed_at_dequeue.value(),
                    completed: c.completed.value(),
                    submitted: c.submitted.value(),
                };
                (p, class)
            })
            .collect();
        let mut queue_wait = LatencyHistogram::new();
        let mut service = LatencyHistogram::new();
        let mut totals = ClassStats::default();
        for (_, class) in &per_class {
            queue_wait.merge(&class.queue_wait);
            service.merge(&class.service);
            totals.submitted += class.submitted;
            totals.accepted += class.accepted;
            totals.rejected += class.rejected;
            totals.shed += class.shed;
            totals.shed_at_dequeue += class.shed_at_dequeue;
            totals.completed += class.completed;
        }
        let per_algorithm =
            Algorithm::ALL.iter().map(|&a| (a, self.served[algorithm_index(a)].value())).collect();
        ServerStats {
            submitted: totals.submitted,
            accepted: totals.accepted,
            rejected: totals.rejected,
            shed: totals.shed,
            shed_at_dequeue: totals.shed_at_dequeue,
            completed: totals.completed,
            per_algorithm,
            per_class,
            queue_depth: self.queue.len(),
            micro_batches: self.micro_batches.value(),
            queue_wait,
            service,
            cache: CacheStats::default(),
            io: self.io.as_ref().map(|c| c.snapshot()).unwrap_or_default(),
        }
    }
}

/// Registers the server as one metrics source named `server`: every
/// registry snapshot polls one [`Shared::stats_snapshot`] and emits the
/// admission counters (totals and per class), per-algorithm serve counts,
/// queue depth, micro-batch count, the latency histograms, and the I/O
/// rollup — all from that single poll, so the exported numbers keep
/// the snapshot's internal consistency (per-class counts sum to the totals,
/// `queue_wait.count() <= completed + shed_at_dequeue`).
///
/// When the world carries a storage-control handle
/// ([`World::with_storage_control`]), the source additionally emits a
/// per-shard hit-rate gauge, all from one [`StorageControl::pool_stats`]
/// call. The handle is captured at registration (point swaps never replace
/// the storage), so polling stays lock-free with respect to the world lock.
fn register_server_source(registry: &MetricsRegistry, shared: &Arc<Shared>) {
    let storage = shared.world().storage.clone();
    let shared = Arc::clone(shared);
    registry.register_source("server", move |set| {
        let s = shared.stats_snapshot();
        set.counter("rnn_server_submitted_total", s.submitted);
        set.counter("rnn_server_accepted_total", s.accepted);
        set.counter("rnn_server_rejected_total", s.rejected);
        set.counter("rnn_server_shed_total", s.shed);
        set.counter("rnn_server_shed_at_dequeue_total", s.shed_at_dequeue);
        set.counter("rnn_server_completed_total", s.completed);
        set.counter("rnn_server_micro_batches_total", s.micro_batches);
        set.gauge("rnn_server_queue_depth", s.queue_depth as u64);
        set.gauge("rnn_server_workers", shared.latencies.len() as u64);
        set.histogram("rnn_server_queue_wait_nanos", s.queue_wait.clone());
        set.histogram("rnn_server_service_nanos", s.service.clone());
        for (priority, class) in &s.per_class {
            let p = priority.name();
            set.counter(&format!("rnn_server_submitted_total{{class=\"{p}\"}}"), class.submitted);
            set.counter(&format!("rnn_server_accepted_total{{class=\"{p}\"}}"), class.accepted);
            set.counter(&format!("rnn_server_rejected_total{{class=\"{p}\"}}"), class.rejected);
            set.counter(&format!("rnn_server_shed_total{{class=\"{p}\"}}"), class.shed);
            set.counter(
                &format!("rnn_server_shed_at_dequeue_total{{class=\"{p}\"}}"),
                class.shed_at_dequeue,
            );
            set.counter(&format!("rnn_server_completed_total{{class=\"{p}\"}}"), class.completed);
            set.histogram(
                &format!("rnn_server_queue_wait_nanos{{class=\"{p}\"}}"),
                class.queue_wait.clone(),
            );
            set.histogram(
                &format!("rnn_server_service_nanos{{class=\"{p}\"}}"),
                class.service.clone(),
            );
        }
        for &(algorithm, served) in &s.per_algorithm {
            let a = algorithm.name();
            set.counter(&format!("rnn_server_served_total{{algorithm=\"{a}\"}}"), served);
        }
        set.counter("rnn_server_io_accesses_total", s.io.accesses);
        set.counter("rnn_server_io_faults_total", s.io.faults);
        set.counter("rnn_server_io_evictions_total", s.io.evictions);
        if let Some(events) = &shared.events {
            set.counter("rnn_recorder_recorded_total", events.recorded());
            set.gauge("rnn_recorder_capacity", events.capacity() as u64);
        }
        if let Some(storage) = &storage {
            for (i, shard) in storage.pool_stats().per_shard.iter().enumerate() {
                set.gauge(
                    &format!("rnn_server_storage_shard_hit_rate_permille{{shard=\"{i}\"}}"),
                    shard.hit_rate_permille(),
                );
            }
        }
    });
}

/// A running RkNN serving instance. See the [module docs](self) for the
/// architecture; see [`Server::submit`] / [`Ticket::wait`] for the caller
/// protocol.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool over `world`. Workers are live when this
    /// returns; requests submitted from any thread are served concurrently.
    ///
    /// To serve a disk-resident world with I/O accounting, pass the paged
    /// graph's counters via [`Server::start_with_io`].
    pub fn start(world: World, config: ServerConfig) -> Server {
        Self::start_inner(world, config, None, None)
    }

    /// [`Server::start`] plus I/O accounting: every stats poll reads
    /// `counters` (e.g. a clone of `PagedGraph::counters()`) into
    /// [`ServerStats::io`].
    pub fn start_with_io(world: World, config: ServerConfig, counters: IoCounters) -> Server {
        Self::start_inner(world, config, Some(counters), None)
    }

    /// [`Server::start_with_io`] (with `io` optional) plus observability:
    /// registers the server as a pollable source of `registry` — every
    /// [`MetricsRegistry::snapshot`] then carries the admission counters,
    /// per-class latency histograms, per-algorithm serve counts and the I/O
    /// rollup — and, when [`ServerConfig::with_tracing`] is on,
    /// folds every served query's phase trace into the registry's
    /// `algorithm x phase` aggregates.
    ///
    /// An observed server also keeps a flight recorder of the last 4 096
    /// structured events — admission sheds, point
    /// swaps, worker lifecycle, slow-query captures and, when the world
    /// carries a storage-control handle, buffer-pool resizes and clears —
    /// drained through [`Server::drain_events`].
    pub fn start_observed(
        world: World,
        config: ServerConfig,
        io: Option<IoCounters>,
        registry: &MetricsRegistry,
    ) -> Server {
        Self::start_inner(world, config, io, Some(registry))
    }

    fn start_inner(
        world: World,
        config: ServerConfig,
        io: Option<IoCounters>,
        registry: Option<&MetricsRegistry>,
    ) -> Server {
        let workers = config.workers;
        let recorder = match registry {
            Some(registry) if config.tracing => {
                let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
                Some(TraceRecorder::new(registry, &names))
            }
            _ => None,
        };
        let slow_log = (config.tracing
            && (config.slow_worst > 0
                || (config.slow_sample_every > 0 && config.slow_samples > 0)))
            .then(|| {
                SlowQueryLog::new(
                    config.slow_worst,
                    config.slow_sample_every,
                    config.slow_samples,
                    config.slow_seed,
                )
            });
        let events = registry.map(|_| Arc::new(FlightRecorder::new(RECORDER_CAPACITY)));
        // Hand the flight recorder to the storage layer's control paths, so
        // runtime resize / clear actions land on the same event timeline as
        // the serving events.
        if let (Some(events), Some(storage)) = (&events, &world.storage) {
            storage.set_event_sink(Arc::clone(events));
        }
        let shared = Arc::new(Shared {
            queue: RequestQueue::new(config.queue_capacity),
            world: RwLock::new(world),
            io,
            classes: std::array::from_fn(|_| ClassCounters::new()),
            served: std::array::from_fn(|_| Counter::detached()),
            micro_batches: Counter::detached(),
            latencies: (0..workers).map(|_| std::array::from_fn(|_| LatencyPair::new())).collect(),
            tracing: config.tracing,
            recorder,
            slow_log,
            events,
            started: Instant::now(),
        });
        if let Some(registry) = registry {
            register_server_source(registry, &shared);
        }
        let handles = (0..workers)
            .map(|worker_id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rnn-server-worker-{worker_id}"))
                    .spawn(move || worker_loop(&shared, worker_id))
                    .expect("spawn server worker")
            })
            .collect();
        Server { shared, workers: handles }
    }

    /// Submits one request.
    ///
    /// Returns a [`Ticket`] when the request was admitted — the ticket
    /// resolves to the served result, to [`ServeError::Shed`] if the request
    /// is dropped past its deadline (at the full-queue edge, or at dequeue),
    /// or to [`ServeError::Unservable`] if a [`Server::swap_points`] removed
    /// the precomputed structure it needs before a worker reached it.
    /// Synchronous errors mean the request never entered the queue:
    /// [`ServeError::Unservable`] (failed admission validation),
    /// [`ServeError::QueueFull`] (a request with a deadline met a full queue
    /// with nothing expired; one without a deadline parks the caller until a
    /// worker frees space instead), or [`ServeError::ShuttingDown`].
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let class = self.shared.class(request.priority);
        class.submitted.inc();
        // Admission validation: refuse now what no worker could ever serve
        // (panicking a worker thread instead would poison the whole pool).
        if !self.shared.world().can_serve(&request) {
            class.rejected.inc();
            return Err(ServeError::Unservable);
        }
        let (queued, ticket) = Queued::new(request);
        let admission = self.shared.queue.submit(queued);
        self.shared.resolve_admission(request.priority, admission, ticket)
    }

    /// Submits a batch of requests under **one** queue-lock acquisition and
    /// one worker wakeup, returning one result per request in order — each
    /// exactly what [`Server::submit`] would have returned, with identical
    /// accounting. This is the cheap way to feed a workload's worth of
    /// requests into the server: N requests cost one lock round-trip
    /// instead of N.
    ///
    /// A batch larger than the free queue space parks the submitter at each
    /// deadline-free request that meets the full queue, until workers drain
    /// room (workers are woken for the already-enqueued prefix first, so this
    /// cannot deadlock); requests with deadlines there get
    /// [`ServeError::QueueFull`] at once.
    pub fn submit_all(&self, requests: &[Request]) -> Vec<Result<Ticket, ServeError>> {
        let mut results: Vec<Option<Result<Ticket, ServeError>>> =
            Vec::with_capacity(requests.len());
        let mut batch: Vec<Queued> = Vec::with_capacity(requests.len());
        let mut admitted_slots: Vec<(usize, Ticket)> = Vec::with_capacity(requests.len());
        {
            // One world read lock validates the whole batch.
            let world = self.shared.world();
            for (slot, &request) in requests.iter().enumerate() {
                let class = self.shared.class(request.priority);
                class.submitted.inc();
                if !world.can_serve(&request) {
                    class.rejected.inc();
                    results.push(Some(Err(ServeError::Unservable)));
                } else {
                    let (queued, ticket) = Queued::new(request);
                    batch.push(queued);
                    admitted_slots.push((slot, ticket));
                    results.push(None);
                }
            }
        }
        let admissions = self.shared.queue.submit_batch(batch);
        debug_assert_eq!(admissions.len(), admitted_slots.len());
        for ((slot, ticket), admission) in admitted_slots.into_iter().zip(admissions) {
            let outcome = self.shared.resolve_admission(requests[slot].priority, admission, ticket);
            results[slot] = Some(outcome);
        }
        results.into_iter().map(|r| r.expect("every slot resolved exactly once")).collect()
    }

    /// Replaces the point set and the point-set-derived precomputed
    /// structures, which are stale by construction, under the world write
    /// lock: in-flight micro-batches finish first, and no batch started
    /// after the swap can see the old points. A new `hub_index` is the one
    /// [`Server::swap_points_delta`] maintains from then on. A structure
    /// built over other points is left off, as [`World::with_materialized`]
    /// leaves it.
    pub fn swap_points(
        &self,
        points: Arc<dyn PointsOnNodes + Send + Sync>,
        materialized: Option<Arc<MaterializedKnn>>,
        hub_index: Option<Arc<HubLabelIndex>>,
    ) {
        let mut world = self.shared.world_mut();
        let num_points = points.num_points() as u64;
        world.points = points;
        world.materialized = materialized.filter(|table| world.table_matches(table));
        world.hub_index = hub_index.filter(|index| world.index_matches(index));
        self.shared.record_event(EventKind::PointsSwap { points: num_points, delta: false });
    }

    /// The delta-shaped [`Server::swap_points`]: installs the new point set
    /// and applies the point `updates` to the concrete hub-label index *in
    /// place* under the world write lock — `O(label size)` bucket splices
    /// per update (see [`HubLabelIndex::insert_point`]) instead of the
    /// `O(total label entries)` table rebuild a full swap pays. The eager
    /// k-NN materialization is still replaced wholesale, and left off if it
    /// was built over other points.
    ///
    /// Returns `false` without touching the world when it holds no index
    /// (built without [`World::with_hub_label_index`], or swapped to none by
    /// [`Server::swap_points`]) — the caller falls back to a full swap.
    ///
    /// # Panics
    ///
    /// Panics if the updates do not reconcile the index with `points`
    /// (inserting on a node the index already occupies, removing from one it
    /// leaves free, or ending with a touched node or the point count unlike
    /// `points`) —
    /// the same contract violation a stale full swap would hide until query
    /// time. The whole batch is checked before anything changes, so after
    /// the panic the server still answers from the old point set and index.
    pub fn swap_points_delta(
        &self,
        points: Arc<dyn PointsOnNodes + Send + Sync>,
        materialized: Option<Arc<MaterializedKnn>>,
        updates: &[PointUpdate],
    ) -> bool {
        let mut guard = self.shared.world_mut();
        let world = &mut *guard;
        let Some(shared_index) = world.hub_index.as_mut() else {
            return false;
        };
        check_point_updates(shared_index, &*points, updates);
        let index = Arc::make_mut(shared_index);
        for &update in updates {
            match update {
                PointUpdate::Insert(node) => {
                    index.insert_point(node);
                }
                PointUpdate::Remove(node) => {
                    index.remove_point(node);
                }
            }
        }
        let num_points = points.num_points() as u64;
        world.points = points;
        world.materialized = materialized.filter(|table| world.table_matches(table));
        self.shared.record_event(EventKind::PointsSwap { points: num_points, delta: true });
        true
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.latencies.len()
    }

    /// Requests currently waiting in the queue (all classes).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Takes everything the slow-query log captured since the last drain:
    /// the worst traces slowest-first plus the deterministic uniform
    /// samples. Empty when no log is configured
    /// ([`ServerConfig::with_slow_query_log`]).
    pub fn drain_slow_queries(&self) -> SlowQueryReport {
        self.shared.slow_log.as_ref().map(|log| log.drain()).unwrap_or_default()
    }

    /// Takes everything the flight recorder captured since the last drain
    /// (ascending sequence order, plus the count of events lost to ring
    /// lapping). Empty on a server started without a registry
    /// ([`Server::start_observed`]). Like [`Server::drain_slow_queries`],
    /// this works on a [`Server::close`]d or [`Server::join`]ed server —
    /// drain *after* joining to be sure the worker-stop events are in.
    pub fn drain_events(&self) -> Drained {
        self.shared.events.as_ref().map(|r| r.drain()).unwrap_or_default()
    }

    /// A point-in-time snapshot of counters, latency histograms and the I/O
    /// rollup. The server's own counters are **wait-free**: counter and
    /// histogram loads, so that part of a poll never contends with an
    /// in-flight micro-batch. A request is in the snapshot once its
    /// [`Ticket::wait`] has returned. The I/O rollup (with
    /// [`Server::start_with_io`]) is the buffer pool's count and takes its
    /// shard locks, as [`StorageControl::pool_stats`] does.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Stops admission through a shared handle, without waiting: subsequent
    /// submissions (and submitters blocked on a full queue) fail with
    /// [`ServeError::ShuttingDown`], while the workers keep draining what
    /// was already accepted. Follow with [`Server::shutdown`] (or drop the
    /// server) to join the workers. Idempotent — this is how a signal
    /// handler or deadline thread initiates shutdown while other threads
    /// still hold the server.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Graceful shutdown: stops admission, lets the workers drain every
    /// queued request, joins them, and returns the final stats. Every
    /// accepted request is completed (or shed) before this returns; blocked
    /// submitters wake with [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) -> ServerStats {
        self.join();
        self.stats()
    }

    /// [`Server::shutdown`] without consuming the handle: stops admission,
    /// drains the queue, joins the workers — and leaves the server alive
    /// so the post-mortem drains ([`Server::drain_slow_queries`],
    /// [`Server::drain_events`]) and [`Server::stats`] still work. This is
    /// the shape a crash handler or test harness wants: quiesce first,
    /// *then* pull the flight recorder and slow-query evidence. Idempotent.
    pub fn join(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Dropping a running server performs the same graceful
    /// drain-then-join as [`Server::shutdown`] (which has already emptied
    /// `workers` when it was called first).
    fn drop(&mut self) {
        self.join();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers())
            .field("queue_depth", &self.queue_depth())
            .field("tracing", &self.shared.tracing)
            .finish()
    }
}

/// One worker: pop a micro-batch, snapshot the world, serve, repeat until
/// the queue is closed and drained.
fn worker_loop(shared: &Shared, worker_id: usize) {
    let mut scratch = Scratch::new();
    let mut batch: Vec<Queued> = Vec::with_capacity(MICRO_BATCH);
    // Per request, the worker bumps the counters first, records into its own
    // histograms next and resolves the ticket last: a stats() poll never
    // sees a sample its counters miss, and a caller whose wait returned
    // finds its request in the next poll.
    let own_latencies = &shared.latencies[worker_id];
    let mut served: u64 = 0;
    shared.record_event(EventKind::WorkerStart { worker: worker_id as u64 });
    loop {
        batch.clear();
        shared.queue.pop_batch(&mut batch, MICRO_BATCH);
        if batch.is_empty() {
            break; // closed and drained
        }
        shared.micro_batches.inc();
        // The read lock is held for the whole micro-batch, so the batch
        // answers every request from one consistent world: a swap waits for
        // it to finish.
        let world = shared.world();
        let pre = Precomputed {
            materialized: world.materialized.as_deref(),
            hub_labels: world.hub_index.as_deref().map(|index| index as &dyn HubLabelRknn),
        };
        for queued in batch.drain(..) {
            let priority = queued.request.priority;
            let class = shared.class(priority);
            let latencies = &own_latencies[priority.index()];
            let start = Instant::now();
            let queue_wait = start.duration_since(queued.request.submit_instant);
            // Re-check serveability at dequeue: a swap_points() between
            // admission and now may have dropped (or shrunk) the precomputed
            // structure this request needs — fail its ticket instead of
            // letting the dispatch panic (which would kill the worker for good).
            if !world.can_serve(&queued.request) {
                class.rejected.inc();
                queued.fail(ServeError::Unservable);
                continue;
            }
            if queued.request.deadline.is_some_and(|d| d <= start) {
                // A shed request waited too: drop it from the histogram and
                // overload telemetry reads healthy exactly when the queue
                // drowns (survivorship bias). Count it and record its wait.
                class.shed.inc();
                class.shed_at_dequeue.inc();
                latencies.queue_wait.record(queue_wait);
                shared.record_shed(priority);
                queued.fail(ServeError::Shed);
                continue;
            }
            let (outcome, trace) = serve(shared, &world, pre, &queued.request, &mut scratch);
            let service_time = start.elapsed();
            if let Some(mut trace) = trace {
                // The trace holds the compute-side split; the worker adds
                // what only it knows — the queue wait, the worker, and where
                // the service span sits on the shared timeline.
                trace.queue_wait_nanos = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
                trace.worker = worker_id as u32;
                trace.start_nanos = u64::try_from(start.duration_since(shared.started).as_nanos())
                    .unwrap_or(u64::MAX);
                if let Some(recorder) = &shared.recorder {
                    recorder.record(algorithm_index(queued.request.algorithm), &trace);
                }
                if let Some(log) = &shared.slow_log {
                    if let (true, Some(events)) = (log.observe(&trace), &shared.events) {
                        events.record_at(
                            trace.start_nanos,
                            EventKind::SlowQuery {
                                query: trace.query,
                                service_nanos: trace.service_nanos,
                                algorithm: algorithm_index(queued.request.algorithm) as u64,
                            },
                        );
                    }
                }
            }
            class.completed.inc();
            shared.served[algorithm_index(queued.request.algorithm)].inc();
            latencies.queue_wait.record(queue_wait);
            latencies.service.record(service_time);
            served += 1;
            queued.complete(ServedQuery { outcome, queue_wait, service_time, worker: worker_id });
        }
    }
    shared.record_event(EventKind::WorkerStop { worker: worker_id as u64, served });
}

/// Answers one request on `world` through the dispatch. With tracing on,
/// also returns the request's one trace.
fn serve(
    shared: &Shared,
    world: &World,
    pre: Precomputed<'_>,
    request: &Request,
    scratch: &mut Scratch,
) -> (RknnOutcome, Option<QueryTrace>) {
    let (algorithm, query, k) = (request.algorithm, request.query, request.k);
    let run = |scratch: &mut Scratch| {
        run_rknn_with(algorithm, &*world.topo, &*world.points, pre, query, k, scratch)
    };
    if !shared.tracing {
        return (run(scratch), None);
    }
    // The main expansion absorbs the residual service time for the traversal
    // family; hub-label covers its whole runtime with explicit
    // candidate-generation / counting spans instead.
    let remainder = match algorithm {
        Algorithm::Eager
        | Algorithm::EagerMaterialized
        | Algorithm::Lazy
        | Algorithm::LazyExtendedPruning
        | Algorithm::Naive => Some(Phase::Expansion),
        Algorithm::HubLabel => None,
    };
    // `k` is request input, unbounded at admission: the trace saturates it.
    let traced_k = u32::try_from(k).unwrap_or(u32::MAX);
    scratch.tracer_mut().start(algorithm.name(), query.index() as u64, traced_k, remainder);
    let outcome = run(scratch);
    let tracer = scratch.tracer_mut();
    if let Some(phase) = remainder {
        tracer.add_work(phase, outcome.stats.nodes_settled);
    }
    tracer.finish();
    (outcome, tracer.take_completed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_core::{run_rknn, Precomputed};
    use rnn_graph::{Graph, GraphBuilder, NodeId, NodePointSet};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn grid(side: usize) -> Graph {
        let mut b = GraphBuilder::new(side * side);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    b.add_edge(v, v + 1, 1.0 + ((v * 7 % 5) as f64) * 0.25).unwrap();
                }
                if r + 1 < side {
                    b.add_edge(v, v + side, 1.0 + ((v * 11 % 7) as f64) * 0.25).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn world(side: usize, step: usize) -> (Arc<Graph>, Arc<NodePointSet>, World) {
        let graph = Arc::new(grid(side));
        let n = side * side;
        let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(step).map(NodeId::new)));
        let w = World::new(graph.clone(), points.clone());
        (graph, points, w)
    }

    #[test]
    fn serves_requests_and_matches_the_direct_call() {
        let (graph, points, world) = world(9, 7);
        let server = Server::start(world, ServerConfig::default().with_workers(2));
        assert_eq!(server.workers(), 2);
        assert!(format!("{server:?}").contains("Server"));

        let tickets: Vec<Ticket> = (0..81)
            .map(|q| server.submit(Request::new(Algorithm::Eager, NodeId::new(q), 2)).unwrap())
            .collect();
        for (q, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait().expect("served");
            let direct = run_rknn(
                Algorithm::Eager,
                &*graph,
                &*points,
                Precomputed::none(),
                NodeId::new(q),
                2,
            );
            assert_eq!(served.outcome, direct, "query {q}");
            assert!(served.worker < 2);
        }
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 81);
        assert_eq!(stats.completed, 81);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.accounted(), stats.submitted);
        assert_eq!(stats.algorithm_count(Algorithm::Eager), 81);
        assert_eq!(stats.algorithm_count(Algorithm::Lazy), 0);
        assert_eq!(stats.queue_wait.count(), 81);
        assert_eq!(stats.service.count(), 81);
        assert!(stats.micro_batches >= 1);
        assert!(stats.service.max() > Duration::ZERO);
        // Default-class traffic lands in the interactive class; batch stays
        // zero everywhere.
        assert_eq!(stats.class(Priority::Interactive).completed, 81);
        assert_eq!(stats.class(Priority::Interactive).queue_wait.count(), 81);
        assert_eq!(stats.class(Priority::Batch).submitted, 0);
        assert_eq!(stats.class(Priority::Batch).service.count(), 0);
    }

    #[test]
    fn admission_rejects_unservable_requests_instead_of_panicking_workers() {
        let (_, _, world) = world(5, 3);
        let server = Server::start(world, ServerConfig::default().with_workers(1));
        // k == 0 and algorithms whose precomputed structures are missing.
        let zero_k = server.submit(Request::new(Algorithm::Eager, NodeId::new(0), 0));
        assert_eq!(zero_k.err(), Some(ServeError::Unservable));
        let no_table = server.submit(Request::new(Algorithm::EagerMaterialized, NodeId::new(0), 1));
        assert_eq!(no_table.err(), Some(ServeError::Unservable));
        let no_labels = server.submit(Request::new(Algorithm::HubLabel, NodeId::new(0), 1));
        assert_eq!(no_labels.err(), Some(ServeError::Unservable));
        // A query node the 25-node topology does not have, alone and in a batch.
        let no_node = server.submit(Request::new(Algorithm::Eager, NodeId::new(1000), 1));
        assert_eq!(no_node.err(), Some(ServeError::Unservable));
        let mut batch = server.submit_all(&[
            Request::new(Algorithm::Lazy, NodeId::new(25), 1),
            Request::new(Algorithm::Lazy, NodeId::new(24), 1),
        ]);
        assert!(batch.pop().unwrap().unwrap().wait().is_ok());
        assert_eq!(batch.pop().unwrap().err(), Some(ServeError::Unservable));
        // The one worker is still alive and serves what follows.
        let ok = server.submit(Request::new(Algorithm::Naive, NodeId::new(0), 1)).unwrap();
        assert!(ok.wait().is_ok());
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 7);
        assert_eq!(stats.rejected, 5);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.accounted(), stats.submitted);

        // Eager-M beyond the K the table was materialized for.
        let (graph, points, with_table) = self::world(5, 3);
        let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
        let server = Server::start(
            with_table.with_materialized(table),
            ServerConfig::default().with_workers(1),
        );
        let eager_m = |k| Request::new(Algorithm::EagerMaterialized, NodeId::new(3), k);
        assert_eq!(server.submit(eager_m(3)).err(), Some(ServeError::Unservable));
        assert!(server.submit(eager_m(2)).unwrap().wait().is_ok());
        let stats = server.shutdown();
        assert_eq!((stats.rejected, stats.completed), (1, 1));
    }

    #[test]
    fn a_precomputed_structure_over_another_world_is_unservable_not_fatal() {
        // One worker: had a request panicked it, nothing would serve the
        // eager request that follows.
        let (graph, points, _) = world(5, 12); // points on nodes 0, 12, 24
        let two = Arc::new(NodePointSet::from_nodes(25, [NodeId::new(0), NodeId::new(12)]));
        let index = Arc::new(HubLabelIndex::build(&*graph, &*points));
        let server = Server::start(
            World::new(graph.clone(), two.clone()).with_hub_label_index(index),
            ServerConfig::default().with_workers(1),
        );
        let outcome = |request: Request| match server.submit(request) {
            Ok(ticket) => ticket.wait().map(|served| served.outcome),
            Err(e) => Err(e),
        };
        let q = NodeId::new(6);
        let hub_label = Request::new(Algorithm::HubLabel, q, 1);
        assert_eq!(outcome(hub_label), Err(ServeError::Unservable), "3-point index, 2 points");
        let expected = run_rknn(Algorithm::Eager, &*graph, &*two, Precomputed::none(), q, 1);
        assert_eq!(outcome(Request::new(Algorithm::Eager, q, 1)), Ok(expected));

        // The same through a swap: a 2-point index for a 3-point world, and
        // a k-NN table over a 16-node grid.
        let small = Arc::new(MaterializedKnn::build(&grid(4), &*points, 1));
        let index = Arc::new(HubLabelIndex::build(&*graph, &*two));
        server.swap_points(points.clone(), Some(small), Some(index));
        assert_eq!(outcome(hub_label), Err(ServeError::Unservable));
        let eager_m = Request::new(Algorithm::EagerMaterialized, q, 1);
        assert_eq!(outcome(eager_m), Err(ServeError::Unservable), "16-node table, 25 nodes");
        let expected = run_rknn(Algorithm::Eager, &*graph, &*points, Precomputed::none(), q, 1);
        assert_eq!(outcome(Request::new(Algorithm::Eager, q, 1)), Ok(expected));
        let stats = server.shutdown();
        assert_eq!((stats.rejected, stats.completed), (3, 2));
    }

    #[test]
    fn structures_over_as_many_other_points_are_unservable() {
        // A 6-node path whose points sit on nodes 0 and 1, beside an index
        // and a table built over points on nodes 4 and 5: the counts agree,
        // the points do not. Attached, they answered query 3 with the wrong
        // set instead of refusing it.
        let mut b = GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(v, v + 1, 1.0).unwrap();
        }
        let path = Arc::new(b.build().unwrap());
        let near = Arc::new(NodePointSet::from_nodes(6, [0, 1].map(NodeId::new)));
        let far = Arc::new(NodePointSet::from_nodes(6, [4, 5].map(NodeId::new)));
        let index = Arc::new(HubLabelIndex::build(&*path, &*far));
        let table = Arc::new(MaterializedKnn::build(&*path, &*far, 1));
        let world = World::new(path.clone(), near.clone())
            .with_hub_label_index(index.clone())
            .with_materialized(table.clone());
        let server = Server::start(world, ServerConfig::default().with_workers(1));
        let q = NodeId::new(3);
        let outcome = |algorithm| match server.submit(Request::new(algorithm, q, 1)) {
            Ok(ticket) => ticket.wait().map(|served| served.outcome.points),
            Err(e) => Err(e),
        };
        let (hub_label, eager_m) = (Algorithm::HubLabel, Algorithm::EagerMaterialized);
        assert_eq!(outcome(hub_label), Err(ServeError::Unservable));
        assert_eq!(outcome(eager_m), Err(ServeError::Unservable));

        // A swap to the points they were built over attaches both.
        server.swap_points(far.clone(), Some(table.clone()), Some(index));
        let expected = run_rknn(Algorithm::Eager, &*path, &*far, Precomputed::none(), q, 1).points;
        assert_eq!(outcome(hub_label), Ok(expected.clone()));
        assert_eq!(outcome(eager_m), Ok(expected));

        // A delta swap that drops node 5's point keeps the maintained index
        // but leaves off the table, still over {4, 5}.
        let four = Arc::new(NodePointSet::from_nodes(6, [NodeId::new(4)]));
        assert!(server.swap_points_delta(
            four.clone(),
            Some(table),
            &[PointUpdate::Remove(NodeId::new(5))]
        ));
        let expected = run_rknn(Algorithm::Eager, &*path, &*four, Precomputed::none(), q, 1).points;
        assert_eq!(outcome(hub_label), Ok(expected));
        assert_eq!(outcome(eager_m), Err(ServeError::Unservable));
        // A full swap back to {0, 1} with structures over {4, 5} leaves
        // both off again.
        let index = Arc::new(HubLabelIndex::build(&*path, &*far));
        let table = Arc::new(MaterializedKnn::build(&*path, &*far, 1));
        server.swap_points(near, Some(table), Some(index));
        assert_eq!(outcome(hub_label), Err(ServeError::Unservable));
        assert_eq!(outcome(eager_m), Err(ServeError::Unservable));
        let stats = server.shutdown();
        assert_eq!((stats.rejected, stats.completed), (5, 3));
    }

    #[test]
    fn a_request_is_in_the_stats_once_its_ticket_returns() {
        // One worker takes the whole burst as one micro-batch of heavy
        // queries: each request must be counted before its ticket resolves,
        // not when the batch ends.
        let (_, _, world) = world(80, 53);
        let server = Server::start(world, ServerConfig::default().with_workers(1));
        let requests: Vec<Request> = (0..MICRO_BATCH)
            .map(|i| Request::new(Algorithm::Lazy, NodeId::new(i * 797), 16))
            .collect();
        for (waited, result) in server.submit_all(&requests).into_iter().enumerate() {
            result.unwrap().wait().unwrap();
            let stats = server.stats();
            let class = stats.class(Priority::Interactive);
            assert!(class.service.count() > waited as u64, "{waited} waited: {stats:?}");
            assert!(class.queue_wait.count() > waited as u64);
            assert!(stats.completed > waited as u64);
        }
        server.shutdown();
    }

    #[test]
    fn submitting_after_shutdown_is_rejected() {
        let (_, _, w) = world(5, 3);
        let server = Server::start(w, ServerConfig::default().with_workers(1));
        let stats = server.stats();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.queue_depth, 0);
        // Shutdown consumes the server; a second handle can't exist, so
        // test post-close admission through the shared queue instead: start
        // another server, close it via drop, then check the drop drained.
        let (_, _, w2) = world(5, 3);
        let server2 = Server::start(w2, ServerConfig::default().with_workers(1));
        let ticket = server2.submit(Request::new(Algorithm::Eager, NodeId::new(3), 1)).unwrap();
        drop(server2); // graceful: drains before joining
        assert!(ticket.wait().is_ok(), "drop drains accepted requests");
        server.shutdown();
    }

    #[test]
    fn per_worker_scratch_is_reused_across_requests() {
        // Not directly observable from outside the worker, but the serving
        // path goes through run_rknn_with on a per-worker Scratch — the
        // dispatch's own tests pin the allocation-free property. Here we just
        // hammer one worker with repeats and check every repeat stays
        // correct and the latency split is recorded for every request.
        let (graph, points, world) = world(7, 5);
        let server = Server::start(world, ServerConfig::default().with_workers(1));
        let expected =
            run_rknn(Algorithm::Lazy, &*graph, &*points, Precomputed::none(), NodeId::new(10), 1);
        for _ in 0..50 {
            let served = server
                .submit(Request::new(Algorithm::Lazy, NodeId::new(10), 1))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(served.outcome, expected);
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 50);
        assert_eq!(stats.queue_wait.count(), 50);
        assert_eq!(stats.service.count(), 50);
    }

    #[test]
    fn repeats_before_and_after_swap_points_answer_from_their_own_point_set() {
        let (graph, _, _) = world(9, 7);
        let n = 81;
        let old_points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
        let new_points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(13).map(NodeId::new)));
        let w = World::new(graph.clone(), old_points.clone());
        let server = Server::start(w, ServerConfig::default().with_workers(2));
        let request = || Request::new(Algorithm::Eager, NodeId::new(40), 2);

        let old_expected = run_rknn(
            Algorithm::Eager,
            &*graph,
            &*old_points,
            Precomputed::none(),
            NodeId::new(40),
            2,
        );
        let new_expected = run_rknn(
            Algorithm::Eager,
            &*graph,
            &*new_points,
            Precomputed::none(),
            NodeId::new(40),
            2,
        );
        assert_ne!(old_expected, new_expected, "the swap must change this answer");

        for _ in 0..10 {
            let served = server.submit(request()).unwrap().wait().unwrap();
            assert_eq!(served.outcome, old_expected);
        }
        // The swap installs the new points under the world write lock: the
        // very next query, and every repeat, answers from them.
        server.swap_points(new_points.clone(), None, None);
        for _ in 0..10 {
            let served = server.submit(request()).unwrap().wait().unwrap();
            assert_eq!(served.outcome, new_expected, "no old RkNN set after the swap");
        }
        let stats = server.shutdown();
        assert_eq!(stats.cache, CacheStats::default(), "the server memoizes nothing");
        // What the standalone benchmark reads: a zero rate, never NaN.
        assert_eq!(stats.cache.since(&CacheStats::default()).hit_rate(), 0.0);
    }

    #[test]
    fn swap_points_delta_maintains_the_hub_index_in_place() {
        let graph = Arc::new(grid(9));
        let n = 81;
        let old_points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
        // Delta shape: drop the point on node 7, add points on nodes 11, 40.
        let new_points = Arc::new(NodePointSet::from_nodes(
            n,
            old_points
                .nodes()
                .iter()
                .copied()
                .filter(|&v| v != NodeId::new(7))
                .chain([NodeId::new(11), NodeId::new(40)]),
        ));
        let updates = [
            PointUpdate::Remove(NodeId::new(7)),
            PointUpdate::Insert(NodeId::new(11)),
            PointUpdate::Insert(NodeId::new(40)),
        ];
        let index = Arc::new(rnn_index::HubLabelIndex::build(&*graph, &*old_points));
        let w = World::new(graph.clone(), old_points.clone()).with_hub_label_index(index);
        let server = Server::start(w, ServerConfig::default().with_workers(2));
        let request = |q: usize| Request::new(Algorithm::HubLabel, NodeId::new(q), 2);

        let old_index = rnn_index::HubLabelIndex::build(&*graph, &*old_points);
        for q in 0..n {
            let served = server.submit(request(q)).unwrap().wait().unwrap();
            assert_eq!(served.outcome.points, old_index.rknn(NodeId::new(q), 2).points);
        }

        assert!(server.swap_points_delta(new_points.clone(), None, &updates));
        let new_index = rnn_index::HubLabelIndex::build(&*graph, &*new_points);
        for q in 0..n {
            let served = server.submit(request(q)).unwrap().wait().unwrap();
            assert_eq!(
                served.outcome.points,
                new_index.rknn(NodeId::new(q), 2).points,
                "post-delta-swap query {q} must see the updated index"
            );
        }

        // A wholesale swap to no index drops it; delta swaps then report
        // unsupported without touching the world.
        server.swap_points(old_points.clone(), None, None);
        assert!(!server.swap_points_delta(new_points.clone(), None, &updates));
        let served = server.submit(Request::new(Algorithm::Naive, NodeId::new(3), 1)).unwrap();
        assert!(served.wait().is_ok(), "world stays intact after a refused delta swap");
        server.shutdown();
    }

    #[test]
    fn a_bad_delta_batch_panics_before_it_changes_the_world() {
        let graph = Arc::new(grid(9));
        let n = 81;
        let old_points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
        let new_points = Arc::new(NodePointSet::from_nodes(
            n,
            (0..n).step_by(7).filter(|&v| v != 7).chain([11, 40]).map(NodeId::new),
        ));
        let (remove_7, insert) = (PointUpdate::Remove(NodeId::new(7)), PointUpdate::Insert);
        let bad_batches = [
            // Node 0 already holds a point: the last update is the bad one.
            vec![remove_7, insert(NodeId::new(11)), insert(NodeId::new(0))],
            // Node 12 holds no point in the new set.
            vec![remove_7, insert(NodeId::new(11)), insert(NodeId::new(12))],
            // Node 8 holds no point in the index.
            vec![
                insert(NodeId::new(11)),
                insert(NodeId::new(40)),
                PointUpdate::Remove(NodeId::new(8)),
            ],
            // Every update is sound, but the count ends one short.
            vec![remove_7, insert(NodeId::new(11))],
        ];
        let index = Arc::new(rnn_index::HubLabelIndex::build(&*graph, &*old_points));
        let w = World::new(graph.clone(), old_points.clone()).with_hub_label_index(index);
        let server = Server::start(w, ServerConfig::default().with_workers(2));
        let oracle = rnn_index::HubLabelIndex::build(&*graph, &*old_points);
        for updates in &bad_batches {
            let swap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                server.swap_points_delta(new_points.clone(), None, updates)
            }));
            assert!(swap.is_err(), "{updates:?} must be refused");
            for q in 0..n {
                let query = NodeId::new(q);
                for algorithm in [Algorithm::HubLabel, Algorithm::Eager] {
                    let served = server.submit(Request::new(algorithm, query, 2)).unwrap();
                    let points = served.wait().unwrap().outcome.points;
                    assert_eq!(points, oracle.rknn(query, 2).points, "{algorithm} q={q}");
                }
            }
        }
        // The refusals left the index whole: the sound batch applies, with a
        // point inserted and removed again on the way, as the standalone
        // benchmark's removal swaps do.
        let updates = [
            remove_7,
            insert(NodeId::new(12)),
            insert(NodeId::new(11)),
            insert(NodeId::new(40)),
            PointUpdate::Remove(NodeId::new(12)),
        ];
        assert!(server.swap_points_delta(new_points.clone(), None, &updates));
        let new_index = rnn_index::HubLabelIndex::build(&*graph, &*new_points);
        for q in (0..n).map(NodeId::new) {
            let served = server.submit(Request::new(Algorithm::HubLabel, q, 2)).unwrap();
            assert_eq!(served.wait().unwrap().outcome.points, new_index.rknn(q, 2).points);
        }
        server.shutdown();
    }

    #[test]
    fn reject_policy_fails_fast_on_a_tiny_queue() {
        let (_, _, w) = world(9, 7);
        // One worker, queue of 1, and a pile of synchronous submissions with
        // an hour of budget each: some must be rejected, and everything
        // accepted completes.
        let server =
            Server::start(w, ServerConfig::default().with_workers(1).with_queue_capacity(1));
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for q in 0..200 {
            let request = Request::new(Algorithm::Eager, NodeId::new(q % 81), 1)
                .with_deadline_in(Duration::from_secs(3600));
            match server.submit(request) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted requests with live deadlines complete");
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.completed + stats.rejected, 200);
        assert_eq!(stats.shed, 0, "nothing expired, so nothing accepted was dropped");
        assert_eq!(stats.accounted(), stats.submitted);
    }

    #[test]
    fn conservation_holds_through_shutdown_under_load() {
        let (_, _, w) = world(9, 7);
        let server = Arc::new(Server::start(
            w,
            ServerConfig::default().with_workers(2).with_queue_capacity(4),
        ));
        let submitted = Arc::new(AtomicU64::new(0));
        let sync_rejected = Arc::new(AtomicU64::new(0));
        let resolved_ok = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let server = Arc::clone(&server);
                let submitted = Arc::clone(&submitted);
                let sync_rejected = Arc::clone(&sync_rejected);
                let resolved_ok = Arc::clone(&resolved_ok);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        let q = ((t * 100 + i) % 81) as usize;
                        // Alternate classes: conservation must hold per
                        // class under concurrent load and mid-stream close.
                        let priority =
                            if i % 2 == 0 { Priority::Interactive } else { Priority::Batch };
                        submitted.fetch_add(1, Ordering::Relaxed);
                        let request = Request::new(Algorithm::Lazy, NodeId::new(q), 1)
                            .with_priority(priority);
                        match server.submit(request) {
                            Ok(ticket) => {
                                if ticket.wait().is_ok() {
                                    resolved_ok.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(ServeError::ShuttingDown) => {
                                sync_rejected.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
            // Shut down while submitters are still hammering: close() works
            // through the shared handle without consuming the server.
            std::thread::sleep(Duration::from_millis(30));
            server.close();
        });
        let stats = server.stats();
        assert_eq!(stats.submitted, submitted.load(Ordering::Relaxed));
        assert_eq!(
            stats.accounted(),
            stats.submitted,
            "completed + rejected + shed == submitted: no request lost"
        );
        assert_eq!(stats.completed, resolved_ok.load(Ordering::Relaxed));
        assert_eq!(stats.rejected, sync_rejected.load(Ordering::Relaxed));
        assert!(stats.completed > 0, "some requests were served before the close");
        for p in Priority::ALL {
            let class = stats.class(p);
            assert_eq!(
                class.accounted(),
                class.submitted,
                "{p}: per-class conservation through shutdown"
            );
        }
    }

    #[test]
    fn shed_policy_drops_expired_requests_and_accounts_them() {
        let (_, _, w) = world(9, 7);
        // Single worker, tiny queue: park the worker on a first slow-ish
        // request wave, then overfill with already-expired requests so both
        // shed paths (admission-edge and dequeue-time) trigger.
        let server =
            Server::start(w, ServerConfig::default().with_workers(1).with_queue_capacity(2));
        let expired =
            || Request::new(Algorithm::Eager, NodeId::new(40), 1).with_deadline_in(Duration::ZERO);
        let mut tickets = Vec::new();
        let mut rejected = 0u64;
        for _ in 0..50 {
            match server.submit(expired()) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let mut shed = 0u64;
        let mut completed = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(_) => completed += 1,
                Err(ServeError::Shed) => shed += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.completed, completed);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.accounted(), stats.submitted);
        assert!(stats.shed > 0, "expired requests must actually be dropped");
        // The telemetry bugfix: requests shed at dequeue waited in the
        // queue, and that wait is *in* the histogram — the count covers
        // completions plus dequeue sheds, not survivors only.
        assert_eq!(
            stats.queue_wait.count(),
            stats.completed + stats.shed_at_dequeue,
            "queue-wait histogram must include dequeue-shed requests"
        );
        assert!(stats.shed_at_dequeue > 0, "this workload must exercise the dequeue shed path");
        assert!(stats.shed_at_dequeue <= stats.shed);
        let class = stats.class(Priority::Interactive);
        assert_eq!(class.queue_wait.count(), class.completed + class.shed_at_dequeue);
    }

    #[test]
    fn expired_newcomer_at_the_full_edge_resolves_as_shed_not_queue_full() {
        // Regression for the expired-newcomer bug: a full queue of *fresh*
        // deadline-bearing requests plus an expired submitter. Pre-fix, the
        // newcomer was either rejected (nothing shed) or worse — admitted
        // after evicting a resident. Post-fix it is accepted-and-shed on
        // the spot: Ok(ticket) resolving to Err(Shed), residents untouched.
        let (_, _, w) = world(9, 7);
        let server =
            Server::start(w, ServerConfig::default().with_workers(1).with_queue_capacity(2));
        // Keep the queue pressed full with fresh-deadline requests (these
        // may legitimately bounce with QueueFull — nothing queued is ever
        // expired when only fresh requests are resident) while interleaving
        // expired newcomers. An expired newcomer must NEVER surface
        // QueueFull: at the full edge it is accepted-and-shed on the spot,
        // below capacity it is admitted and shed at dequeue — either way
        // the caller sees Ok(ticket) then Err(Shed).
        let mut fresh_tickets = Vec::new();
        let mut dead_tickets = Vec::new();
        for q in 0..200 {
            let fresh = Request::new(Algorithm::Eager, NodeId::new(q % 81), 1)
                .with_deadline_in(Duration::from_secs(3600));
            match server.submit(fresh) {
                Ok(t) => fresh_tickets.push(t),
                Err(ServeError::QueueFull) => {}
                Err(other) => panic!("unexpected {other:?}"),
            }
            let dead = Request::new(Algorithm::Eager, NodeId::new(q % 81), 1)
                .with_deadline_in(Duration::ZERO);
            match server.submit(dead) {
                Ok(t) => dead_tickets.push(t),
                Err(e) => panic!("expired newcomer must never surface {e:?} (pre-fix QueueFull)"),
            }
        }
        assert_eq!(dead_tickets.len(), 200, "every expired newcomer got a ticket");
        for t in dead_tickets {
            assert_eq!(t.wait(), Err(ServeError::Shed), "expired requests always resolve Shed");
        }
        // Fresh residents were never evicted for dead newcomers: every
        // admitted request with an hour of budget completes.
        for t in fresh_tickets {
            assert!(t.wait().is_ok(), "resident requests survive expired newcomers");
        }
        let stats = server.shutdown();
        assert_eq!(stats.accounted(), stats.submitted);
        assert_eq!(stats.shed, 200, "all and only the expired newcomers were shed");
    }

    #[test]
    fn submit_all_matches_single_submits_and_conserves() {
        let (graph, points, w) = world(9, 7);
        let server = Server::start(w, ServerConfig::default().with_workers(2));
        // A batch mixing priorities, an unservable request (k = 0) in the
        // middle, and repeats. Results arrive in order, one per request.
        let mut requests = Vec::new();
        for q in 0..40 {
            let mut r = Request::new(Algorithm::Eager, NodeId::new(q), 2);
            if q % 4 == 3 {
                r = r.with_priority(Priority::Batch);
            }
            requests.push(r);
        }
        requests.push(Request::new(Algorithm::Eager, NodeId::new(0), 0)); // unservable
        let results = server.submit_all(&requests);
        assert_eq!(results.len(), 41);
        assert_eq!(results[40].as_ref().err(), Some(&ServeError::Unservable));
        for (q, result) in results.into_iter().take(40).enumerate() {
            let served = result.expect("admitted").wait().expect("served");
            let direct = run_rknn(
                Algorithm::Eager,
                &*graph,
                &*points,
                Precomputed::none(),
                NodeId::new(q),
                2,
            );
            assert_eq!(served.outcome, direct, "query {q} via submit_all");
        }
        let stats = server.shutdown();
        // Accounting identical to 41 single submits.
        assert_eq!(stats.submitted, 41);
        assert_eq!(stats.completed, 40);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accounted(), stats.submitted);
        assert_eq!(stats.class(Priority::Batch).submitted, 10);
        assert_eq!(stats.class(Priority::Batch).completed, 10);
        assert_eq!(stats.class(Priority::Interactive).submitted, 31);
        assert_eq!(stats.class(Priority::Interactive).completed, 30);
        assert_eq!(stats.class(Priority::Interactive).rejected, 1);

        // Empty batch: no-op, no accounting.
        let (_, _, w2) = world(5, 3);
        let server2 = Server::start(w2, ServerConfig::default().with_workers(1));
        assert!(server2.submit_all(&[]).is_empty());
        assert_eq!(server2.shutdown().submitted, 0);
    }

    #[test]
    fn batch_results_are_input_ordered_and_match_single_queries() {
        // Every algorithm over every data-point node in one submit_all, on a
        // world that carries both precomputed structures: each ticket, in
        // input order, holds what the single direct call returns.
        let (graph, points, w) = world(9, 7);
        let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
        let index = Arc::new(HubLabelIndex::build(&*graph, &*points));
        let pre = Precomputed::materialized(&table).with_hub_labels(&*index);
        let w = w.with_materialized(table.clone()).with_hub_label_index(index.clone());
        let server = Server::start(w, ServerConfig::default().with_workers(2));
        let requests: Vec<Request> = Algorithm::ALL
            .iter()
            .flat_map(|&a| points.nodes().iter().map(move |&q| Request::new(a, q, 2)))
            .collect();
        let results = server.submit_all(&requests);
        assert_eq!(results.len(), requests.len());
        for (request, result) in requests.iter().zip(results) {
            let (algorithm, query, k) = (request.algorithm, request.query, request.k);
            let served = result.expect("admitted").wait().expect("served");
            let single = run_rknn(algorithm, &*graph, &*points, pre, query, k);
            assert_eq!(served.outcome, single, "{algorithm} at {query}");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, requests.len() as u64);
        for algorithm in Algorithm::ALL {
            assert_eq!(stats.algorithm_count(algorithm), points.num_points() as u64, "{algorithm}");
        }
    }

    #[test]
    fn traced_serving_matches_the_direct_call_and_aggregates_phases() {
        // Tracing must never change answers, and every served query must
        // land in the registry's algorithm x phase aggregates with
        // non-trivial phase counters.
        let graph = Arc::new(grid(9));
        let n = 81;
        let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
        let index = Arc::new(rnn_index::HubLabelIndex::build(&*graph, &*points));
        let w = World::new(graph.clone(), points.clone()).with_hub_label_index(index.clone());
        let registry = MetricsRegistry::new();
        let server = Server::start_observed(
            w,
            ServerConfig::default().with_workers(2).with_tracing(true),
            None,
            &registry,
        );
        assert!(server.shared.tracing);
        for q in 0..40 {
            let served = server
                .submit(Request::new(Algorithm::Eager, NodeId::new(q), 2))
                .unwrap()
                .wait()
                .unwrap();
            let direct = run_rknn(
                Algorithm::Eager,
                &*graph,
                &*points,
                Precomputed::none(),
                NodeId::new(q),
                2,
            );
            assert_eq!(served.outcome, direct, "tracing never changes query {q}");
        }
        for q in 0..40 {
            let served = server
                .submit(Request::new(Algorithm::HubLabel, NodeId::new(q), 2))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(served.outcome.points, index.rknn(NodeId::new(q), 2).points);
        }
        // Every ticket above has returned, so its request is already in the
        // snapshot; shutting down first just ends the workers.
        server.shutdown();
        let snap = registry.snapshot();
        // One source poll carries the admission counters...
        assert_eq!(snap.counter("rnn_server_submitted_total"), Some(80));
        assert_eq!(snap.counter("rnn_server_completed_total"), Some(80));
        assert_eq!(snap.counter("rnn_server_completed_total{class=\"interactive\"}"), Some(80));
        assert_eq!(snap.counter("rnn_server_served_total{algorithm=\"eager\"}"), Some(40));
        assert_eq!(snap.counter("rnn_server_served_total{algorithm=\"hub-label\"}"), Some(40));
        assert_eq!(snap.histogram("rnn_server_service_nanos").unwrap().count(), 80);
        // ...and the trace aggregates: every served query traced, with the
        // right phases per algorithm family.
        assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"eager\"}"), Some(40));
        assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"hub-label\"}"), Some(40));
        let expansion =
            snap.counter("rnn_trace_phase_nanos_total{algorithm=\"eager\",phase=\"expansion\"}");
        assert!(expansion.unwrap() > 0, "traversal queries spend time expanding");
        let candidate_gen = snap.counter(
            "rnn_trace_phase_calls_total{algorithm=\"hub-label\",phase=\"candidate_gen\"}",
        );
        assert_eq!(candidate_gen, Some(40), "one candidate-generation span per hub-label query");
    }

    #[test]
    fn tracing_yields_one_trace_per_query_without_changing_results() {
        let (graph, points, world) = world(9, 7);
        let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
        let index = Arc::new(HubLabelIndex::build(&*graph, &*points));
        let pre = Precomputed::materialized(&table).with_hub_labels(&*index);
        let world = world.with_materialized(table.clone()).with_hub_label_index(index.clone());
        // One worker and one request at a time: the log samples every
        // request, in order.
        let requests: Vec<Request> = Algorithm::ALL
            .iter()
            .flat_map(|&a| points.nodes().iter().map(move |&q| Request::new(a, q, 2)))
            .collect();
        let traced = ServerConfig::default().with_workers(1).with_slow_query_log(0, 1, 1024, 7);
        let server = Server::start(world, traced);
        for request in &requests {
            let (algorithm, query, k) = (request.algorithm, request.query, request.k);
            let served = server.submit(*request).unwrap().wait().unwrap();
            let direct = run_rknn(algorithm, &*graph, &*points, pre, query, k);
            assert_eq!(served.outcome, direct, "tracing must not change results");
        }
        let traces = server.drain_slow_queries().samples;
        assert_eq!(traces.len(), requests.len(), "one trace per query");
        for (request, trace) in requests.iter().zip(&traces) {
            assert_eq!(trace.algorithm, request.algorithm.name());
            assert_eq!(trace.query, request.query.index() as u64);
            assert_eq!(trace.k, request.k as u32);
            assert!(trace.service_nanos >= trace.phase_nanos(), "phases fit in service time");
            // The traversal family attributes main-expansion work and absorbs
            // residual time in the expansion phase; every algorithm's traces
            // carry *some* phase activity.
            let active = trace.phases.iter().any(|p| p.calls > 0 || p.work > 0 || p.nanos > 0);
            assert!(active, "{}: phase counters must not be empty", trace.algorithm);
        }
        server.shutdown();

        // A repeated request runs again: its trace has phase spans and the
        // same work as the first.
        let (_, _, world) = self::world(9, 7);
        let server = Server::start(world, traced);
        let request = Request::new(Algorithm::Eager, NodeId::new(40), 2);
        let first = server.submit(request).unwrap().wait().unwrap().outcome;
        let repeat = server.submit(request).unwrap().wait().unwrap().outcome;
        assert_eq!(repeat, first);
        let traces = server.drain_slow_queries().samples;
        assert_eq!(traces.len(), 2, "one trace per request");
        for trace in &traces {
            assert!(trace.phases.iter().any(|p| p.calls > 0), "a real trace, with phases");
        }
        let work = |t: &QueryTrace| t.phases.iter().map(|p| p.work).collect::<Vec<_>>();
        assert_eq!(work(&traces[0]), work(&traces[1]));
        server.shutdown();
    }

    #[test]
    fn a_trace_saturates_a_k_past_u32() {
        // `k` is not bounded at admission; a trace must not wrap it (a
        // truncating cast reads `2^32 + 1` as 1).
        let (graph, points, world) = world(9, 7);
        let k = u32::MAX as usize + 2;
        let query = NodeId::new(40);
        let traced = ServerConfig::default().with_workers(1).with_slow_query_log(0, 1, 16, 7);
        let server = Server::start(world, traced);
        let served = server.submit(Request::new(Algorithm::Eager, query, k)).unwrap().wait();
        let direct = run_rknn(Algorithm::Eager, &*graph, &*points, Precomputed::none(), query, k);
        assert_eq!(served.unwrap().outcome, direct);
        let traces = server.drain_slow_queries().samples;
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].k, u32::MAX);
        server.shutdown();
    }

    #[test]
    fn slow_query_log_captures_worst_and_samples_with_queue_wait_stamped() {
        let (_, _, w) = world(9, 7);
        let registry = MetricsRegistry::new();
        let server = Server::start_observed(
            w,
            ServerConfig::default().with_workers(1).with_slow_query_log(5, 2, 16, 42),
            None,
            &registry,
        );
        assert!(server.shared.tracing, "a slow-query log implies tracing");
        let requests: Vec<Request> =
            (0..60).map(|q| Request::new(Algorithm::Lazy, NodeId::new(q % 81), 2)).collect();
        for result in server.submit_all(&requests) {
            result.unwrap().wait().unwrap();
        }
        let report = server.drain_slow_queries();
        assert_eq!(report.worst.len(), 5, "worst ring fills to capacity");
        assert!(
            report.worst.windows(2).all(|w| w[0].service_nanos >= w[1].service_nanos),
            "worst traces come slowest-first"
        );
        assert!(!report.samples.is_empty(), "1-in-2 sampling over 60 queries hits");
        for trace in report.worst.iter().chain(&report.samples) {
            assert_eq!(trace.algorithm, "lazy");
            assert!(trace.service_nanos > 0);
            assert!(trace.queue_wait_nanos > 0, "server stamps the queue wait into the trace");
        }
        // Drained: the next window starts empty.
        assert!(server.drain_slow_queries().worst.is_empty());
        server.shutdown();
    }

    #[test]
    fn untraced_observed_server_still_exports_counters() {
        // Observability without tracing: the server source polls, but no
        // trace aggregates are registered at all.
        let (_, _, w) = world(5, 3);
        let registry = MetricsRegistry::new();
        let server =
            Server::start_observed(w, ServerConfig::default().with_workers(1), None, &registry);
        assert!(!server.shared.tracing);
        server.submit(Request::new(Algorithm::Naive, NodeId::new(0), 1)).unwrap().wait().unwrap();
        assert!(server.drain_slow_queries().worst.is_empty(), "no log configured");
        server.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_server_completed_total"), Some(1));
        assert_eq!(snap.counter("rnn_trace_queries_total{algorithm=\"naive\"}"), None);
    }

    #[test]
    fn observed_server_records_every_shed_as_an_event() {
        let (_, _, w) = world(9, 7);
        let registry = MetricsRegistry::new();
        let server = Server::start_observed(
            w,
            ServerConfig::default().with_workers(1).with_queue_capacity(2),
            None,
            &registry,
        );
        let expired =
            || Request::new(Algorithm::Eager, NodeId::new(40), 1).with_deadline_in(Duration::ZERO);
        let mut tickets = Vec::new();
        for _ in 0..30 {
            if let Ok(t) = server.submit(expired()) {
                tickets.push(t);
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        let mut server = server;
        server.join();
        let stats = server.stats();
        assert!(stats.shed > 0, "this workload sheds");
        // Every shed, at either admission edge, lands on the event timeline.
        let drained = server.drain_events();
        let shed_events: u64 = drained
            .events
            .iter()
            .filter_map(|e| match e.kind {
                rnn_obs::EventKind::AdmissionShed { class, count } => {
                    assert_eq!(class, Priority::Interactive.index() as u64);
                    Some(count)
                }
                _ => None,
            })
            .sum();
        assert_eq!(shed_events, stats.shed, "one admission-shed event per shed request");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnn_recorder_recorded_total"), Some(shed_events + 2));
        assert_eq!(snap.gauge("rnn_recorder_capacity"), Some(RECORDER_CAPACITY as u64));
    }

    #[test]
    fn batch_class_is_served_and_cannot_be_starved_forever() {
        let (graph, points, w) = world(9, 7);
        let server = Server::start(w, ServerConfig::default().with_workers(1));
        let expected =
            run_rknn(Algorithm::Eager, &*graph, &*points, Precomputed::none(), NodeId::new(5), 1);
        // Interleave: batch requests among a heavier interactive stream.
        let mut batch_tickets = Vec::new();
        let mut interactive_tickets = Vec::new();
        for i in 0..60 {
            if i % 3 == 0 {
                batch_tickets.push(
                    server
                        .submit(
                            Request::new(Algorithm::Eager, NodeId::new(5), 1)
                                .with_priority(Priority::Batch),
                        )
                        .unwrap(),
                );
            } else {
                interactive_tickets.push(
                    server.submit(Request::new(Algorithm::Eager, NodeId::new(i % 81), 2)).unwrap(),
                );
            }
        }
        for t in batch_tickets {
            let served = t.wait().expect("batch requests are served, not starved");
            assert_eq!(served.outcome, expected, "class never changes the answer");
        }
        for t in interactive_tickets {
            assert!(t.wait().is_ok());
        }
        let stats = server.shutdown();
        assert_eq!(stats.class(Priority::Batch).completed, 20);
        assert_eq!(stats.class(Priority::Interactive).completed, 40);
        assert_eq!(stats.class(Priority::Batch).queue_wait.count(), 20);
        assert_eq!(stats.completed, 60);
    }
}
