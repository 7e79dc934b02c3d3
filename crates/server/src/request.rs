//! Requests, completion handles and serve errors.
//!
//! Each caller submits **one** request (or a burst of them through
//! [`crate::Server::submit_all`]) and gets back a [`Ticket`] per request — a
//! oneshot completion handle — to await its own result while other callers'
//! requests interleave freely.
//! The ticket is a `Mutex<Option<_>>` slot plus a `Condvar`: the worker that
//! serves the request fills the slot exactly once and wakes the waiter.
//!
//! Every accepted request resolves its ticket exactly once, no matter what:
//! served requests resolve to a [`ServedQuery`], load-shed requests to
//! [`ServeError::Shed`], and if a request is ever dropped unserved (only
//! possible if a worker thread dies mid-batch) the drop itself resolves the
//! ticket to [`ServeError::Lost`] — a waiter can never hang on a request the
//! server no longer knows about.

use rnn_core::{Algorithm, RknnOutcome};
use rnn_graph::NodeId;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The admission class of a request: which per-class queue it rides and how
/// workers order it against other traffic.
///
/// Workers drain [`Interactive`](Priority::Interactive) requests first;
/// [`Batch`](Priority::Batch) requests are served from a separate queue
/// whenever no interactive work waits, plus a guaranteed slot after every
/// four interactive pops, so a saturating interactive stream can never
/// starve batch work forever. Priority affects *ordering and admission
/// accounting only* — never answers: a request returns byte-identical
/// results in either class.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic (the default): a user is waiting on the
    /// answer. Served first.
    #[default]
    Interactive,
    /// Best-effort background traffic (precomputation, analytics, warmup):
    /// served when no interactive work waits, plus the anti-starvation slot.
    Batch,
}

impl Priority {
    /// Both classes, from highest to lowest service priority. The order is
    /// load-bearing: [`Priority::index`] indexes per-class arrays with it.
    pub const ALL: [Priority; 2] = [Priority::Interactive, Priority::Batch];

    /// The position of this class in [`Priority::ALL`] (and in every
    /// per-class array of the crate).
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Lower-case human-readable name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One RkNN query submitted to the server.
#[derive(Copy, Clone, Debug)]
pub struct Request {
    /// The algorithm to answer with.
    pub algorithm: Algorithm,
    /// The query node.
    pub query: NodeId,
    /// The `k` of the RkNN query (must be at least 1 to pass admission).
    pub k: usize,
    /// The admission class (default [`Priority::Interactive`]). Determines
    /// queue order and per-class accounting, never the answer.
    pub priority: Priority,
    /// The instant after which the request is no longer worth serving.
    /// Every server acts on it: an expired request is shed at the full-queue
    /// edge or at dequeue, an expired resident is evicted to admit a
    /// newcomer, deadline-bearing requests are served
    /// earliest-deadline-first within their class, and a full queue with
    /// nothing expired answers `QueueFull` instead of parking the caller.
    /// `None` (the default) never expires: the request keeps FIFO order in
    /// its class, is never dropped, and parks its caller at a full queue.
    pub deadline: Option<Instant>,
    /// When the request entered the system (stamped by [`Request::new`]).
    /// Queue wait is measured from here, so time spent parked at a full
    /// queue counts as waiting — which is what an end-to-end latency account
    /// must show.
    pub submit_instant: Instant,
}

impl Request {
    /// An interactive request with no deadline, stamped
    /// `submit_instant = now`.
    pub fn new(algorithm: Algorithm, query: NodeId, k: usize) -> Self {
        Request {
            algorithm,
            query,
            k,
            priority: Priority::Interactive,
            deadline: None,
            submit_instant: Instant::now(),
        }
    }

    /// Sets the admission class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` after the submit instant. A budget that
    /// reaches past what an [`Instant`] can represent sets no deadline: such
    /// a request could never expire.
    pub fn with_deadline_in(mut self, budget: Duration) -> Self {
        self.deadline = self.submit_instant.checked_add(budget);
        self
    }
}

/// Why a request was not served. See [`crate::Server::submit`] for which
/// variants surface where (synchronously vs. through the ticket).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control turned the request away: it carries a deadline and
    /// met a full queue in which nothing had expired.
    QueueFull,
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request was accepted, then dropped past its deadline (at
    /// admission, to make room, or at dequeue).
    Shed,
    /// The request cannot be served: `k == 0`, or the algorithm needs a
    /// precomputed structure (materialized table, hub labels) the world
    /// does not carry. Surfaces synchronously from admission, or through
    /// the ticket when a point-set swap removed the structure after the
    /// request was queued.
    Unservable,
    /// The request was dropped without being served. A healthy server never
    /// produces this: it is the drop-time backstop that keeps a ticket from
    /// hanging forever if a worker thread dies mid-batch.
    Lost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServeError::QueueFull => "request queue is full",
            ServeError::ShuttingDown => "server is shutting down",
            ServeError::Shed => "request shed past its deadline",
            ServeError::Unservable => "request cannot be served by the current world",
            ServeError::Lost => "request was dropped without being served",
        })
    }
}

impl std::error::Error for ServeError {}

/// A served request: the RkNN outcome plus where its latency went.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedQuery {
    /// The query result, byte-identical to what the sequential
    /// [`rnn_core::run_rknn`] loop computes for the same world.
    pub outcome: RknnOutcome,
    /// Submit instant to dequeue: time spent in (or blocked on) the queue.
    pub queue_wait: Duration,
    /// Dequeue to completion: time spent executing the algorithm.
    pub service_time: Duration,
    /// Index of the worker thread that served the request.
    pub worker: usize,
}

/// What a ticket resolves to.
pub type ServeResult = Result<ServedQuery, ServeError>;

/// The oneshot slot a worker fills and a [`Ticket`] waits on.
pub(crate) struct Completion {
    slot: Mutex<Option<ServeResult>>,
    filled: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Self {
        Completion { slot: Mutex::new(None), filled: Condvar::new() }
    }

    /// Fills the slot if it is still empty (first write wins — the drop-time
    /// `Lost` backstop must never overwrite a real result) and wakes waiters.
    pub(crate) fn fulfill(&self, result: ServeResult) {
        let mut slot = lock(&self.slot);
        if slot.is_none() {
            *slot = Some(result);
            self.filled.notify_all();
        }
    }

    fn wait(&self) -> ServeResult {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.filled.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn is_done(&self) -> bool {
        lock(&self.slot).is_some()
    }
}

/// Locks ignoring poison: a panicking worker must not cascade into every
/// caller that touches the same slot.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The completion handle returned by [`crate::Server::submit`]: await the
/// result of one request with [`Ticket::wait`].
pub struct Ticket {
    pub(crate) completion: Arc<Completion>,
}

impl Ticket {
    /// Blocks until the request resolves and returns its result. Every
    /// accepted request resolves exactly once (served, shed, or — worker
    /// death only — lost), so this never hangs on a drained server.
    pub fn wait(self) -> ServeResult {
        self.completion.wait()
    }

    /// Returns `true` once the result is available ([`Ticket::wait`] will
    /// not block).
    pub(crate) fn is_done(&self) -> bool {
        self.completion.is_done()
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("done", &self.is_done()).finish()
    }
}

/// A request riding the queue together with its completion handle.
pub(crate) struct Queued {
    pub(crate) request: Request,
    pub(crate) completion: Arc<Completion>,
}

impl Queued {
    pub(crate) fn new(request: Request) -> (Self, Ticket) {
        let completion = Arc::new(Completion::new());
        let ticket = Ticket { completion: Arc::clone(&completion) };
        (Queued { request, completion }, ticket)
    }

    /// Resolves the ticket with a served result.
    pub(crate) fn complete(&self, served: ServedQuery) {
        self.completion.fulfill(Ok(served));
    }

    /// Resolves the ticket with an error.
    pub(crate) fn fail(&self, error: ServeError) {
        self.completion.fulfill(Err(error));
    }
}

impl Drop for Queued {
    fn drop(&mut self) {
        // Backstop: a queued request that dies unserved still resolves its
        // ticket (no-op when the worker already fulfilled it).
        self.completion.fulfill(Err(ServeError::Lost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_core::QueryStats;

    fn request() -> Request {
        Request::new(Algorithm::Eager, NodeId::new(3), 2)
    }

    fn served() -> ServedQuery {
        ServedQuery {
            outcome: RknnOutcome::from_points(vec![], QueryStats::default()),
            queue_wait: Duration::from_micros(5),
            service_time: Duration::from_micros(7),
            worker: 0,
        }
    }

    #[test]
    fn request_builders_and_spec() {
        let r = request();
        assert_eq!((r.algorithm, r.query, r.k), (Algorithm::Eager, NodeId::new(3), 2));
        assert!(r.deadline.is_none());
        assert_eq!(r.priority, Priority::Interactive, "interactive is the default class");
        let d = r.with_deadline_in(Duration::from_millis(10));
        assert_eq!(d.deadline, Some(d.submit_instant + Duration::from_millis(10)));
        let at = Instant::now();
        assert_eq!(request().with_deadline(at).deadline, Some(at));
        assert_eq!(request().with_priority(Priority::Batch).priority, Priority::Batch);
    }

    #[test]
    fn a_budget_past_the_instant_range_sets_no_deadline() {
        // `submit_instant + Duration::MAX` overflows `Instant`; a request
        // that can never expire carries no deadline.
        assert_eq!(request().with_deadline_in(Duration::MAX).deadline, None);
    }

    #[test]
    fn priority_class_order_and_names() {
        assert_eq!(Priority::ALL, [Priority::Interactive, Priority::Batch]);
        for (i, p) in Priority::ALL.into_iter().enumerate() {
            assert_eq!(p.index(), i, "ALL order and index agree");
        }
        assert_eq!(Priority::Interactive.name(), "interactive");
        assert_eq!(Priority::Batch.to_string(), "batch");
        assert_eq!(Priority::default(), Priority::Interactive);
    }

    #[test]
    fn ticket_resolves_once_and_first_write_wins() {
        let (queued, ticket) = Queued::new(request());
        assert!(!ticket.is_done());
        queued.complete(served());
        queued.fail(ServeError::Shed); // ignored: already fulfilled
        assert!(ticket.is_done());
        assert!(format!("{ticket:?}").contains("done: true"));
        let result = ticket.wait().expect("completed");
        assert_eq!(result.worker, 0);
        assert_eq!(result.service_time, Duration::from_micros(7));
    }

    #[test]
    fn ticket_wait_blocks_until_a_worker_fulfills() {
        let (queued, ticket) = Queued::new(request());
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(10));
        queued.fail(ServeError::Shed);
        assert_eq!(waiter.join().unwrap(), Err(ServeError::Shed));
    }

    #[test]
    fn dropping_an_unserved_request_resolves_the_ticket_as_lost() {
        let (queued, ticket) = Queued::new(request());
        drop(queued);
        assert!(ticket.is_done());
        assert_eq!(ticket.wait(), Err(ServeError::Lost));
    }

    #[test]
    fn error_display_is_human_readable() {
        for (e, needle) in [
            (ServeError::QueueFull, "full"),
            (ServeError::ShuttingDown, "shutting down"),
            (ServeError::Shed, "shed"),
            (ServeError::Unservable, "cannot be served"),
            (ServeError::Lost, "dropped"),
        ] {
            assert!(e.to_string().contains(needle), "{e:?}");
        }
    }
}
