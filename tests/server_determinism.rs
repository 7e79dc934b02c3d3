//! The serving layer never changes answers, and never loses requests.
//!
//! Four pinned properties of `rnn-server`:
//!
//! 1. **Determinism** — for all six algorithms, a mixed-priority workload
//!    submitted through the server at 1, 2 and 8 workers (no deadlines)
//!    yields results byte-identical to the sequential `run_rknn` loop:
//!    worker count, micro-batching, priority classes and queue interleaving
//!    affect latency, never answers — and the per-class counters account for
//!    every request.
//! 2. **Conservation** — shutting down under load loses nothing:
//!    `completed + rejected + shed == submitted`, per class and in total,
//!    and every accepted ticket resolves. `submit_all` bursts account
//!    identically to the same requests submitted one at a time.
//! 3. **Admission** — the request's own deadline decides at the full edge.
//!    A tiny queue turns deadline-bearing overflow away with `QueueFull`
//!    while completing everything it accepted; a `submit_all` burst larger
//!    than the free space parks at its deadline-free requests and turns its
//!    deadline-bearing ones away, without deadlock; expired requests are
//!    dropped and accounted (including boundary deadlines: exactly-now and
//!    zero-budget), queue waits include dequeue-shed victims, and a
//!    point-set swap with the result cache enabled serves the new world's
//!    answers immediately.
//! 4. **Wait-free telemetry** — `stats()` snapshots taken concurrently with
//!    serving are internally consistent (histogram counts never exceed the
//!    work accounted) and monotone, and polling never blocks the workers.

use rnn::core::{run_rknn_with, Algorithm, MaterializedKnn, Precomputed, Scratch};
use rnn::datagen::{grid_map, GridConfig};
use rnn::graph::{Graph, NodeId, NodePointSet};
use rnn::index::HubLabelIndex;
use rnn::server::{Priority, Request, ServeError, Server, ServerConfig, Ticket, World};
use rnn::storage::{BufferPoolConfig, IoCounters, LayoutStrategy, PagedGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn grid_world() -> (Arc<Graph>, Arc<NodePointSet>) {
    let graph =
        Arc::new(grid_map(&GridConfig { rows: 12, cols: 12, seed: 42, ..Default::default() }));
    let n = graph.num_nodes();
    let points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(7).map(NodeId::new)));
    (graph, points)
}

/// Requests covering all six algorithms over every data-point node.
fn mixed_requests(points: &NodePointSet, k: usize) -> Vec<(Algorithm, NodeId, usize)> {
    let mut requests = Vec::new();
    for algorithm in Algorithm::ALL {
        for &node in points.nodes() {
            requests.push((algorithm, node, k));
        }
    }
    requests
}

#[test]
fn all_six_algorithms_match_the_sequential_oracle_at_every_worker_count() {
    let (graph, points) = grid_world();
    const TABLE_K: usize = 2;
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, TABLE_K));
    let hub_index = Arc::new(HubLabelIndex::build(&*graph, &*points));
    // Every third request rides the batch class; the rest are interactive.
    // Priorities reorder service, so determinism must hold per ticket, not
    // per position.
    let priority_of =
        |i: usize| if i.is_multiple_of(3) { Priority::Batch } else { Priority::Interactive };
    let num_points = points.nodes().len();

    // k = 2 is the ordinary case. The other three sit at and past the point
    // count: every other point is then a reverse neighbor, "the k-th nearest"
    // does not exist, and `k + 1` must not overflow anywhere on the way.
    for k in [TABLE_K, num_points, num_points + 1, usize::MAX] {
        let requests = mixed_requests(&points, k);
        // Eager-M past its table's K is refused at admission (a worker would
        // panic on it); the sequential loop leaves it out for the same reason.
        let servable = |algorithm: Algorithm| !algorithm.needs_materialization() || k <= TABLE_K;
        let expect_class = |class: Priority, served: bool| {
            (0..requests.len())
                .filter(|&i| priority_of(i) == class && servable(requests[i].0) == served)
                .count() as u64
        };

        // The sequential oracle: one scratch, one thread, direct calls.
        let mut scratch = Scratch::new();
        let pre = Precomputed::materialized(&table).with_hub_labels(&*hub_index);
        let oracle: Vec<_> = requests
            .iter()
            .map(|&(algorithm, query, k)| {
                servable(algorithm).then(|| {
                    run_rknn_with(algorithm, &*graph, &*points, pre, query, k, &mut scratch)
                })
            })
            .collect();

        for workers in [1usize, 2, 8] {
            let world = World::new(graph.clone(), points.clone())
                .with_materialized(Arc::clone(&table))
                .with_hub_label_index(hub_index.clone());
            let server = Server::start(world, ServerConfig::default().with_workers(workers));
            let submitted: Vec<Result<Ticket, ServeError>> = requests
                .iter()
                .enumerate()
                .map(|(i, &(algorithm, query, k))| {
                    server.submit(Request::new(algorithm, query, k).with_priority(priority_of(i)))
                })
                .collect();
            for ((result, expected), &(algorithm, query, _)) in
                submitted.into_iter().zip(&oracle).zip(&requests)
            {
                match expected {
                    Some(expected) => assert_eq!(
                        result.expect("admitted").wait().expect("served").outcome,
                        *expected,
                        "{workers} workers, k={k}: {algorithm} at {query} must equal the \
                         sequential loop"
                    ),
                    None => assert_eq!(
                        result.err(),
                        Some(ServeError::Unservable),
                        "{workers} workers, k={k}: {algorithm} at {query} is beyond the table"
                    ),
                }
            }
            let stats = server.shutdown();
            let served = oracle.iter().flatten().count() as u64;
            assert_eq!(stats.completed, served, "{workers} workers, k={k}");
            assert_eq!(stats.rejected, requests.len() as u64 - served, "{workers} workers, k={k}");
            assert_eq!(stats.accounted(), stats.submitted, "{workers} workers, k={k}");
            for algorithm in Algorithm::ALL {
                assert_eq!(
                    stats.algorithm_count(algorithm),
                    if servable(algorithm) { num_points as u64 } else { 0 },
                    "{workers} workers, k={k}: per-algorithm accounting"
                );
            }
            assert_eq!(stats.queue_wait.count(), stats.completed);
            assert_eq!(stats.service.count(), stats.completed);
            // Per-class accounting: the class split survives any worker count.
            for priority in [Priority::Batch, Priority::Interactive] {
                let class = stats.class(priority);
                let at = format!("{workers} workers, k={k}: {priority}");
                assert_eq!(class.completed, expect_class(priority, true), "{at}");
                assert_eq!(class.rejected, expect_class(priority, false), "{at}");
                assert_eq!(class.accounted(), class.submitted, "{at}");
                assert_eq!(class.queue_wait.count(), class.completed, "{at}");
                assert_eq!(class.service.count(), class.completed, "{at}");
            }
        }
    }
}

#[test]
fn paged_world_with_shared_cache_matches_the_in_memory_oracle() {
    // The full serving stack: paged topology behind a striped buffer pool,
    // its I/O count read through a handle, shared result cache, 4 workers.
    let (graph, points) = grid_world();
    let counters = IoCounters::new();
    let paged = Arc::new(
        PagedGraph::build_with_config(
            &graph,
            LayoutStrategy::BfsLocality,
            BufferPoolConfig::new(64).with_shards(4),
            counters.clone(),
        )
        .expect("paged graph"),
    );
    let mut scratch = Scratch::new();
    let queries: Vec<NodeId> = points.nodes().to_vec();
    let oracle: Vec<_> = queries
        .iter()
        .map(|&q| {
            run_rknn_with(
                Algorithm::Lazy,
                &*graph,
                &*points,
                Precomputed::none(),
                q,
                1,
                &mut scratch,
            )
        })
        .collect();

    let world = World::new(paged, points.clone());
    let server = Server::start_with_io(
        world,
        ServerConfig::default().with_workers(4).with_result_cache(32, 0),
        counters,
    );
    // Two rounds: the second is served from the shared cache — same bytes.
    for round in 0..2 {
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|&q| server.submit(Request::new(Algorithm::Lazy, q, 1)).expect("admitted"))
            .collect();
        for (ticket, expected) in tickets.into_iter().zip(&oracle) {
            assert_eq!(ticket.wait().expect("served").outcome, *expected, "round {round}");
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 2 * queries.len() as u64);
    assert!(stats.io.accesses > 0, "the paged world's I/O rolled up into the stats");
    assert!(stats.cache.hits > 0, "the repeat round hit the shared cache");
    assert_eq!(stats.cache.lookups(), stats.completed);
}

#[test]
fn shutdown_under_load_loses_no_request() {
    let (graph, points) = grid_world();
    let queries: Vec<NodeId> = points.nodes().to_vec();
    let server = Arc::new(Server::start(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(2).with_queue_capacity(4),
    ));

    let submitted = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let server = Arc::clone(&server);
            let queries = queries.clone();
            let submitted = Arc::clone(&submitted);
            let completed = Arc::clone(&completed);
            let rejected = Arc::clone(&rejected);
            scope.spawn(move || {
                for i in 0..60 {
                    let q = queries[(t * 60 + i) % queries.len()];
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match server.submit(Request::new(Algorithm::Eager, q, 1)) {
                        Ok(ticket) => {
                            // No deadlines: every accepted request must
                            // resolve Ok even across shutdown.
                            assert!(ticket.wait().is_ok(), "accepted requests are drained");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::ShuttingDown) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected admission error {other:?}"),
                    }
                }
            });
        }
        // Cut admission while the submitters are mid-stream: blocked and
        // later submissions fail with ShuttingDown, accepted ones drain.
        let server = Arc::clone(&server);
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(25));
            server.close();
        });
    });
    let server = Arc::into_inner(server).expect("all clones dropped");
    let stats = server.shutdown();
    assert_eq!(stats.submitted, submitted.load(Ordering::Relaxed));
    assert_eq!(stats.completed, completed.load(Ordering::Relaxed));
    assert_eq!(stats.rejected, rejected.load(Ordering::Relaxed));
    assert_eq!(
        stats.completed + stats.rejected + stats.shed,
        stats.submitted,
        "no request lost: completed + rejected + shed == submitted"
    );
}

#[test]
fn tiny_queue_reject_and_shed_policies_account_every_request() {
    let (graph, points) = grid_world();

    // Far-future deadlines: a 2-slot queue with one worker; over-submission
    // fails fast, accepted requests all complete.
    let server = Server::start(
        World::new(graph.clone(), points.clone()),
        ServerConfig::default().with_workers(1).with_queue_capacity(2),
    );
    let mut tickets = Vec::new();
    let mut queue_full = 0u64;
    for i in 0..300usize {
        let q = points.nodes()[i % points.nodes().len()];
        let request =
            Request::new(Algorithm::Eager, q, 1).with_deadline_in(Duration::from_secs(3600));
        match server.submit(request) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull) => queue_full += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    let accepted = tickets.len() as u64;
    for t in tickets {
        assert!(t.wait().is_ok(), "nothing expires, so no accepted work is dropped");
    }
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 300);
    assert_eq!(stats.rejected, queue_full);
    assert_eq!(stats.completed, accepted);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.accounted(), stats.submitted);

    // The same tiny queue with instantly-expired deadlines; victims resolve
    // their tickets as Shed and are counted.
    let server = Server::start(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(1).with_queue_capacity(2),
    );
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..300usize {
        let q = points.nodes()[i % points.nodes().len()];
        let request = Request::new(Algorithm::Eager, q, 1).with_deadline_in(Duration::ZERO);
        match server.submit(request) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    let (mut completed, mut shed) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(ServeError::Shed) => shed += 1,
            Err(other) => panic!("unexpected ticket resolution {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert!(stats.shed > 0, "expired requests must actually be shed");
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.accounted(), stats.submitted);
}

#[test]
fn swap_that_drops_precomputed_structures_fails_queued_requests_without_killing_workers() {
    // Regression: an eager-M request admitted while the world carried the
    // table, still queued when swap_points() removed it, must resolve its
    // ticket as Unservable — not panic the worker (which would leave the
    // queue undrained forever).
    let (graph, points) = grid_world();
    let table = Arc::new(MaterializedKnn::build(&*graph, &*points, 2));
    let world = World::new(graph.clone(), points.clone()).with_materialized(Arc::clone(&table));
    let server =
        Server::start(world, ServerConfig::default().with_workers(1).with_result_cache(16, 1));
    let mut scratch = Scratch::new();
    let pre = Precomputed::materialized(&table);

    let tickets: Vec<_> = (0..40)
        .map(|i| {
            let q = points.nodes()[i % points.nodes().len()];
            server.submit(Request::new(Algorithm::EagerMaterialized, q, 2)).expect("admitted")
        })
        .collect();
    // Swap away the table while (most of) the stream is still queued.
    server.swap_points(points.clone(), None, None);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let q = points.nodes()[i % points.nodes().len()];
        match ticket.wait() {
            // Served before the swap: must match the old world's oracle.
            Ok(served) => {
                let expected = run_rknn_with(
                    Algorithm::EagerMaterialized,
                    &*graph,
                    &*points,
                    pre,
                    q,
                    2,
                    &mut scratch,
                );
                assert_eq!(served.outcome, expected, "request {i}");
            }
            // Reached after the swap: failed cleanly, worker survived.
            Err(ServeError::Unservable) => {}
            Err(other) => panic!("request {i}: unexpected {other:?}"),
        }
    }
    // The worker is still alive and serving.
    let q = points.nodes()[0];
    let served = server.submit(Request::new(Algorithm::Eager, q, 2)).unwrap().wait();
    assert!(served.is_ok(), "the worker pool survived the mid-stream swap");
    let stats = server.shutdown();
    assert_eq!(stats.accounted(), stats.submitted, "dequeue-time rejections are accounted");
}

#[test]
fn point_set_swap_with_cache_enabled_serves_the_new_answers() {
    let (graph, points) = grid_world();
    let n = graph.num_nodes();
    let new_points = Arc::new(NodePointSet::from_nodes(n, (0..n).step_by(11).map(NodeId::new)));
    let query = points.nodes()[points.nodes().len() / 2];

    let mut scratch = Scratch::new();
    let old_expected = run_rknn_with(
        Algorithm::Eager,
        &*graph,
        &*points,
        Precomputed::none(),
        query,
        2,
        &mut scratch,
    );
    let new_expected = run_rknn_with(
        Algorithm::Eager,
        &*graph,
        &*new_points,
        Precomputed::none(),
        query,
        2,
        &mut scratch,
    );
    assert_ne!(old_expected, new_expected, "the swap must change this query's answer");

    let server = Server::start(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(2).with_result_cache(128, 2),
    );
    let request = || Request::new(Algorithm::Eager, query, 2);
    for _ in 0..5 {
        let served = server.submit(request()).unwrap().wait().unwrap();
        assert_eq!(served.outcome, old_expected);
    }
    assert!(server.stats().cache.hits >= 4, "repeats were memoized before the swap");

    server.swap_points(new_points, None, None);
    for round in 0..3 {
        let served = server.submit(request()).unwrap().wait().unwrap();
        assert_eq!(
            served.outcome, new_expected,
            "round {round}: a swapped server must never serve the old point set's RkNN"
        );
    }
    server.shutdown();
}

#[test]
fn submit_all_bursts_account_identically_to_single_submits() {
    // The same mixed-priority stream pushed through one server a request at
    // a time and through another in submit_all bursts must end with the
    // same answers and byte-identical accounting: batching amortizes lock
    // round-trips, never changes admission or counting.
    let (graph, points) = grid_world();
    let stream: Vec<Request> = mixed_requests(&points, 1)
        .into_iter()
        .filter(|&(a, _, _)| matches!(a, Algorithm::Eager | Algorithm::Lazy))
        .enumerate()
        .map(|(i, (a, q, k))| {
            let priority = if i % 4 == 3 { Priority::Batch } else { Priority::Interactive };
            Request::new(a, q, k).with_priority(priority)
        })
        .collect();

    let run = |batched: bool| {
        let server = Server::start(
            World::new(graph.clone(), points.clone()),
            ServerConfig::default().with_workers(2),
        );
        let mut tickets = Vec::with_capacity(stream.len());
        if batched {
            for chunk in stream.chunks(5) {
                for result in server.submit_all(chunk) {
                    tickets.push(result.expect("admitted"));
                }
            }
        } else {
            for &request in &stream {
                tickets.push(server.submit(request).expect("admitted"));
            }
        }
        let outcomes: Vec<_> =
            tickets.into_iter().map(|t| t.wait().expect("served").outcome).collect();
        (outcomes, server.shutdown())
    };

    let (single_outcomes, single) = run(false);
    let (batched_outcomes, batched) = run(true);
    assert_eq!(single_outcomes, batched_outcomes, "burst submission never changes answers");
    assert_eq!(single.submitted, batched.submitted);
    assert_eq!(single.completed, batched.completed);
    assert_eq!((single.rejected, single.shed), (batched.rejected, batched.shed));
    for priority in Priority::ALL {
        let (s, b) = (single.class(priority), batched.class(priority));
        assert_eq!(
            (s.submitted, s.accepted, s.completed, s.rejected, s.shed),
            (b.submitted, b.accepted, b.completed, b.rejected, b.shed),
            "{priority}: submit_all accounting equals N single submits"
        );
        assert_eq!(s.queue_wait.count(), b.queue_wait.count(), "{priority}: histogram coverage");
    }
}

#[test]
fn stats_polling_is_consistent_and_monotone_while_serving() {
    // stats() is wait-free: a poller hammering it mid-flight must always
    // see internally consistent snapshots (histograms never cover more work
    // than the counters account for; completions never decrease) and the
    // final snapshot must agree with shutdown().
    let (graph, points) = grid_world();
    let server = Arc::new(Server::start(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(2),
    ));
    let queries: Vec<NodeId> = points.nodes().to_vec();
    let total = 240usize;

    std::thread::scope(|scope| {
        let submitter = {
            let server = Arc::clone(&server);
            let queries = queries.clone();
            scope.spawn(move || {
                for i in 0..total {
                    let priority = if i % 2 == 0 { Priority::Interactive } else { Priority::Batch };
                    let request = Request::new(Algorithm::Lazy, queries[i % queries.len()], 1)
                        .with_priority(priority);
                    server.submit(request).expect("admitted").wait().expect("served");
                }
            })
        };
        let server = Arc::clone(&server);
        scope.spawn(move || {
            let mut last_completed = 0u64;
            let mut polls = 0u64;
            while !submitter.is_finished() {
                let stats = server.stats();
                polls += 1;
                assert!(stats.completed >= last_completed, "completions are monotone");
                last_completed = stats.completed;
                assert!(stats.accounted() <= stats.submitted, "never over-accounted");
                assert!(
                    stats.queue_wait.count() <= stats.completed + stats.shed_at_dequeue,
                    "queue-wait histogram never covers unaccounted work"
                );
                assert!(stats.service.count() <= stats.completed);
                for priority in Priority::ALL {
                    let class = stats.class(priority);
                    assert!(class.accounted() <= class.submitted, "{priority}");
                    assert!(
                        class.queue_wait.count() <= class.completed + class.shed_at_dequeue,
                        "{priority}: per-class histogram coverage"
                    );
                }
            }
            assert!(polls > 0, "the poller actually observed in-flight snapshots");
        });
    });

    let server = Arc::into_inner(server).expect("all clones dropped");
    let stats = server.shutdown();
    assert_eq!(stats.completed, total as u64);
    assert_eq!(stats.queue_wait.count(), stats.completed);
    for priority in Priority::ALL {
        let class = stats.class(priority);
        assert_eq!(class.completed, (total / 2) as u64, "{priority}: even split completed");
        assert_eq!(class.service.count(), class.completed, "{priority}");
    }
}

#[test]
fn boundary_deadlines_shed_at_dequeue_and_land_in_the_queue_wait_histogram() {
    // Deadline boundary semantics end to end: "due exactly now" and "zero
    // time budget" both count as expired — they are dropped at dequeue (when
    // admitted below the full edge), the victims' queue waits still land in
    // the per-class histogram, and fresh traffic is unaffected. Pins the telemetry invariant
    // `queue_wait.count() == completed + shed_at_dequeue` exactly.
    let (graph, points) = grid_world();
    let server = Server::start(
        World::new(graph, points.clone()),
        ServerConfig::default().with_workers(1).with_queue_capacity(512),
    );
    let queries: Vec<NodeId> = points.nodes().to_vec();

    let mut doomed = Vec::new();
    let mut fresh = Vec::new();
    for i in 0..120usize {
        let q = queries[i % queries.len()];
        // The queue is far from full, so admission always succeeds; expiry
        // is discovered at dequeue.
        match i % 3 {
            0 => {
                let request =
                    Request::new(Algorithm::Eager, q, 1).with_deadline(std::time::Instant::now());
                doomed.push(server.submit(request).expect("admitted below the full edge"));
            }
            1 => {
                let request = Request::new(Algorithm::Eager, q, 1).with_deadline_in(Duration::ZERO);
                doomed.push(server.submit(request).expect("admitted below the full edge"));
            }
            _ => {
                let request = Request::new(Algorithm::Eager, q, 1)
                    .with_deadline_in(Duration::from_secs(3600))
                    .with_priority(Priority::Batch);
                fresh.push(server.submit(request).expect("admitted below the full edge"));
            }
        }
    }
    let doomed_count = doomed.len() as u64;
    for ticket in doomed {
        assert!(
            matches!(ticket.wait(), Err(ServeError::Shed)),
            "boundary deadlines are expired deadlines"
        );
    }
    for ticket in fresh {
        assert!(ticket.wait().is_ok(), "fresh requests are untouched by expiry shedding");
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed, doomed_count);
    assert_eq!(stats.shed_at_dequeue, doomed_count, "all sheds happened at dequeue");
    assert_eq!(
        stats.queue_wait.count(),
        stats.completed + stats.shed_at_dequeue,
        "shed victims' queue waits are recorded — overload telemetry has no survivorship bias"
    );
    let interactive = stats.class(Priority::Interactive);
    assert_eq!(interactive.shed_at_dequeue, doomed_count, "victims were all interactive");
    assert_eq!(interactive.queue_wait.count(), interactive.completed + interactive.shed_at_dequeue);
    let batch = stats.class(Priority::Batch);
    assert_eq!(batch.shed, 0, "the batch class never expired");
    assert_eq!(batch.queue_wait.count(), batch.completed);
}

#[test]
fn submit_all_burst_mixing_deadlines_parks_the_deadline_free_and_turns_away_the_rest() {
    // One worker, a 2-slot queue, and one burst of eight. The burst holds
    // the queue lock until it parks, so the first two requests fill the
    // queue and the deadline-bearing ones behind them meet it full with
    // nothing expired: `QueueFull` at once. The next deadline-free request
    // parks until the worker drains both slots; the burst then fills them
    // again, and the deadline-bearing request after that is turned away
    // too. Everything admitted is served, and nothing deadlocks.
    let (graph, points) = grid_world();
    let server = Server::start(
        World::new(graph.clone(), points.clone()),
        ServerConfig::default().with_workers(1).with_queue_capacity(2),
    );
    let hour = Duration::from_secs(3600);
    // (priority, has a deadline, expected to be admitted)
    let plan = [
        (Priority::Interactive, false, true),
        (Priority::Batch, false, true),
        (Priority::Interactive, true, false),
        (Priority::Batch, true, false),
        (Priority::Interactive, false, true),
        (Priority::Batch, false, true),
        (Priority::Interactive, true, false),
        (Priority::Batch, false, true),
    ];
    let queries: Vec<NodeId> = points.nodes().iter().copied().take(plan.len()).collect();
    let burst: Vec<Request> = plan
        .iter()
        .zip(&queries)
        .map(|(&(priority, deadline, _), &q)| {
            let request = Request::new(Algorithm::Eager, q, 1).with_priority(priority);
            if deadline {
                request.with_deadline_in(hour)
            } else {
                request
            }
        })
        .collect();
    let results = server.submit_all(&burst);
    let mut scratch = Scratch::new();
    for (i, (result, &(_, deadline, admitted))) in results.into_iter().zip(&plan).enumerate() {
        if admitted {
            let expected = run_rknn_with(
                Algorithm::Eager,
                &*graph,
                &*points,
                Precomputed::none(),
                queries[i],
                1,
                &mut scratch,
            );
            let served = result.expect("admitted").wait().expect("served");
            assert_eq!(served.outcome, expected, "request {i}");
        } else {
            assert!(deadline, "request {i}: only deadline-bearing requests are turned away");
            assert_eq!(result.err(), Some(ServeError::QueueFull), "request {i}");
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed, stats.rejected, stats.shed), (8, 5, 3, 0));
    for priority in Priority::ALL {
        let class = stats.class(priority);
        let planned = plan.iter().filter(|p| p.0 == priority);
        let admitted = planned.clone().filter(|p| p.2).count() as u64;
        assert_eq!(class.submitted, planned.count() as u64, "{priority}");
        assert_eq!(class.completed, admitted, "{priority}");
        assert_eq!(class.rejected, class.submitted - admitted, "{priority}");
        assert_eq!(class.accounted(), class.submitted, "{priority}: per-class conservation");
    }
}
