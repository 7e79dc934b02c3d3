//! The bounded MPMC request queue: priority classes, EDF order and one
//! admission rule read from the request's own deadline.
//!
//! This is the hand-rolled heart of the server: a fixed total capacity
//! guarded by one mutex and two condvars (`not_empty` for consumers,
//! `not_full` for parked producers), holding **one sub-queue per
//! [`Priority`] class**. Many submitter threads push — singly or in batches
//! (`RequestQueue::submit_batch` pays one lock acquisition and one
//! `not_empty` notification for N requests) — and many worker threads pop in
//! *micro-batches* (`RequestQueue::pop_batch` hands out up to B requests
//! per wakeup).
//!
//! **Pop order.** Workers drain [`Priority::Interactive`] before
//! [`Priority::Batch`], except that after four consecutive interactive pops
//! while batch work waits, the next pop is forced from the batch class — a
//! saturating interactive stream delays batch work by a bounded factor
//! instead of forever. Within a class, deadline-bearing requests live in a
//! binary heap and pop **earliest-deadline-first** (ties broken by
//! submission order, so equal deadlines stay FIFO and results stay
//! deterministic), ahead of the FIFO ring holding deadline-free requests.
//! Traffic without deadlines therefore rides the ring in pure FIFO order.
//!
//! **Admission.** Below capacity every request is admitted. At the full
//! edge the request's deadline decides, in this order:
//!
//! 1. An already-expired newcomer is resolved as shed on the spot (it could
//!    never be served in time; evicting a resident for it would spend a
//!    slot on dead work).
//! 2. Otherwise the **earliest-deadline expired resident** is dropped to
//!    make room (batch class searched before interactive, heap peek + pop:
//!    O(log n) per shed) and the newcomer is admitted.
//! 3. Otherwise a newcomer with a deadline gets `QueueFull` at once: it
//!    would spend its budget waiting, and the caller can retry elsewhere.
//! 4. Otherwise — no deadline, nothing expired — the submitter parks until
//!    a worker frees space. Nothing without a deadline is ever dropped;
//!    overload turns into back-pressure (closed-loop clients slow down).
//!
//! A request without a deadline never expires, so on deadline-free traffic
//! only step 4 ever fires.
//!
//! The queue never drops silently: every admission decision either hands the
//! request to a worker, hands it back to the caller, or names a victim whose
//! ticket the caller must resolve.
//!
//! [`Priority`]: crate::Priority

use crate::request::{lock, Priority, Queued};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// After this many consecutive interactive pops with batch work waiting,
/// one batch pop is forced.
const STARVATION_RATIO: u64 = 4;

/// The outcome of one admission decision.
pub(crate) enum Admission {
    /// The request is in the queue.
    Enqueued,
    /// The request is in the queue; the named victim was shed to make room
    /// and the caller must resolve its ticket.
    EnqueuedAfterShed(Queued),
    /// The request itself arrived already past its deadline at the
    /// full-queue edge: it was not admitted and the caller must resolve its
    /// ticket as shed. Residents are untouched.
    ShedNewcomer(Queued),
    /// The queue is full, nothing queued has expired, and the request
    /// carries a deadline: it is turned away instead of waiting for space.
    Rejected(Queued),
    /// The queue is closed (server shutting down).
    Closed(Queued),
}

/// The hand-rolled FIFO ring: a slot vector with a head index and length.
/// Push/pop are O(1); nothing is ever removed from the middle (expired-
/// victim removal lives in the EDF heap, where it is O(log n) instead of
/// the O(len) shift a ring would need).
struct Ring {
    slots: Vec<Option<Queued>>,
    head: usize,
    len: usize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring { slots, head: 0, len: 0 }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn push_back(&mut self, item: Queued) {
        debug_assert!(self.len < self.capacity());
        let tail = (self.head + self.len) % self.capacity();
        debug_assert!(self.slots[tail].is_none());
        self.slots[tail] = Some(item);
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<Queued> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some());
        self.head = (self.head + 1) % self.capacity();
        self.len -= 1;
        item
    }
}

/// One deadline-bearing entry in a class's EDF heap, ordered by
/// `(deadline, seq)` — the `seq` tie-break makes equal deadlines pop in
/// submission order, so EDF stays deterministic.
struct EdfEntry {
    deadline: Instant,
    seq: u64,
    queued: Queued,
}

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for EdfEntry {}

impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq).cmp(&(other.deadline, other.seq))
    }
}

/// One priority class's storage: the EDF heap for deadline-bearing requests
/// and the FIFO ring for the rest.
struct ClassQueue {
    edf: BinaryHeap<Reverse<EdfEntry>>,
    ring: Ring,
}

impl ClassQueue {
    fn with_capacity(capacity: usize) -> Self {
        ClassQueue { edf: BinaryHeap::new(), ring: Ring::with_capacity(capacity) }
    }

    fn len(&self) -> usize {
        self.edf.len() + self.ring.len
    }

    /// The next request of this class: earliest deadline first, then the
    /// deadline-free FIFO ring.
    fn pop_next(&mut self) -> Option<Queued> {
        if let Some(Reverse(entry)) = self.edf.pop() {
            return Some(entry.queued);
        }
        self.ring.pop_front()
    }

    /// Removes the earliest-deadline entry if it is expired. The heap
    /// minimum is the earliest deadline in the class, so a single peek
    /// decides whether *anything* here is expired — O(1) to check,
    /// O(log n) to remove.
    fn pop_expired(&mut self, now: Instant) -> Option<Queued> {
        if self.edf.peek().is_some_and(|Reverse(entry)| entry.deadline <= now) {
            return self.edf.pop().map(|Reverse(entry)| entry.queued);
        }
        None
    }
}

struct QueueState {
    classes: [ClassQueue; Priority::ALL.len()],
    /// Total queued across classes — bounded by the queue capacity.
    len: usize,
    /// Monotone enqueue counter, the EDF tie-break.
    next_seq: u64,
    /// Consecutive interactive pops while batch work waited.
    interactive_streak: u64,
    closed: bool,
}

impl QueueState {
    /// Routes an admitted request into its class's heap or ring.
    fn enqueue(&mut self, queued: Queued) {
        let class = &mut self.classes[queued.request.priority.index()];
        match queued.request.deadline {
            Some(deadline) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                class.edf.push(Reverse(EdfEntry { deadline, seq, queued }));
            }
            None => class.ring.push_back(queued),
        }
        self.len += 1;
    }

    /// The next request in service order: interactive before batch, bounded
    /// by [`STARVATION_RATIO`]; EDF before FIFO within a class.
    fn pop_one(&mut self) -> Option<Queued> {
        let interactive = self.classes[Priority::Interactive.index()].len();
        let batch = self.classes[Priority::Batch.index()].len();
        let force_batch =
            batch > 0 && (interactive == 0 || self.interactive_streak >= STARVATION_RATIO);
        let item = if force_batch {
            self.interactive_streak = 0;
            self.classes[Priority::Batch.index()].pop_next()
        } else if interactive > 0 {
            // The streak only counts pops that made batch work wait; once
            // the batch class drains, interactive starves nobody.
            self.interactive_streak = if batch > 0 { self.interactive_streak + 1 } else { 0 };
            self.classes[Priority::Interactive.index()].pop_next()
        } else {
            None
        };
        if item.is_some() {
            self.len -= 1;
        }
        item
    }
}

/// The bounded MPMC queue between submitters and workers.
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// What one locked admission attempt decided; `Wait` asks the caller of a
/// deadline-free request to park on `not_full` and retry.
enum AdmitStep {
    Done(Admission),
    Wait(Queued),
}

impl RequestQueue {
    /// A queue holding at most `capacity` requests across both classes.
    ///
    /// # Panics
    /// Panics if `capacity == 0` — a server with nowhere to put a request
    /// is a configuration error.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "the request queue needs capacity >= 1");
        RequestQueue {
            state: Mutex::new(QueueState {
                classes: std::array::from_fn(|_| ClassQueue::with_capacity(capacity)),
                len: 0,
                next_seq: 0,
                interactive_streak: 0,
                closed: false,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// One admission attempt under the lock (the module docs' four steps at
    /// the full edge). Never waits — a deadline-free request at a full edge
    /// with nothing expired comes back as [`AdmitStep::Wait`] for the
    /// caller's loop.
    fn try_admit(&self, state: &mut QueueState, queued: Queued) -> AdmitStep {
        if state.closed {
            return AdmitStep::Done(Admission::Closed(queued));
        }
        if state.len < self.capacity {
            state.enqueue(queued);
            return AdmitStep::Done(Admission::Enqueued);
        }
        let now = Instant::now();
        // An expired newcomer is dead on arrival: admitting it would evict a
        // resident only for the dequeue check to drop the newcomer anyway —
        // a wasted slot and a wasted shed.
        if queued.request.deadline.is_some_and(|d| d <= now) {
            return AdmitStep::Done(Admission::ShedNewcomer(queued));
        }
        // Shed the lowest class first: an expired batch request dies before
        // an expired interactive one.
        for class in Priority::ALL.iter().rev() {
            if let Some(victim) = state.classes[class.index()].pop_expired(now) {
                state.len -= 1;
                state.enqueue(queued);
                return AdmitStep::Done(Admission::EnqueuedAfterShed(victim));
            }
        }
        if queued.request.deadline.is_some() {
            AdmitStep::Done(Admission::Rejected(queued))
        } else {
            AdmitStep::Wait(queued)
        }
    }

    /// Admits `queued`, parking while a deadline-free request meets a full
    /// queue (see the module docs for the rule at the full-queue edge).
    pub(crate) fn submit(&self, mut queued: Queued) -> Admission {
        let mut state = lock(&self.state);
        loop {
            match self.try_admit(&mut state, queued) {
                AdmitStep::Done(admission) => {
                    if matches!(admission, Admission::Enqueued | Admission::EnqueuedAfterShed(_)) {
                        self.not_empty.notify_one();
                    }
                    return admission;
                }
                AdmitStep::Wait(q) => {
                    queued = q;
                    state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Admits a batch under one lock acquisition, with one `not_empty`
    /// notification for the whole batch. Each item gets exactly the
    /// admission decision N single [`RequestQueue::submit`] calls would
    /// have produced, in order; a deadline-free request at a full queue
    /// parks the submitter mid-batch (after waking workers for what is
    /// already in — otherwise a batch larger than the capacity would
    /// deadlock against sleeping workers).
    pub(crate) fn submit_batch(&self, items: Vec<Queued>) -> Vec<Admission> {
        let mut admissions = Vec::with_capacity(items.len());
        let mut pending_notify = false;
        let mut state = lock(&self.state);
        for mut queued in items {
            let admission = loop {
                match self.try_admit(&mut state, queued) {
                    AdmitStep::Done(admission) => break admission,
                    AdmitStep::Wait(q) => {
                        queued = q;
                        if pending_notify {
                            self.not_empty.notify_all();
                            pending_notify = false;
                        }
                        state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                }
            };
            if matches!(admission, Admission::Enqueued | Admission::EnqueuedAfterShed(_)) {
                pending_notify = true;
            }
            admissions.push(admission);
        }
        if pending_notify {
            self.not_empty.notify_all();
        }
        admissions
    }

    /// Pops up to `max` requests into `out`, blocking while the queue is
    /// empty and open. Returns with `out` untouched exactly when the queue
    /// is closed **and** drained — the worker's signal to exit. Never waits
    /// for a full batch: whatever is there at wakeup (up to `max`) is taken,
    /// so micro-batching amortizes wakeups without adding latency.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Queued>, max: usize) {
        debug_assert!(max > 0);
        let mut state = lock(&self.state);
        while !state.closed && state.len == 0 {
            state = self.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        let take = max.min(state.len);
        for _ in 0..take {
            out.push(state.pop_one().expect("len was checked"));
        }
        if take > 0 {
            // A batch frees several slots at once: wake every blocked
            // submitter (each rechecks fullness under the lock).
            self.not_full.notify_all();
        }
    }

    /// Closes the queue: subsequent submissions fail with `Closed`, blocked
    /// submitters wake and fail, and workers drain what remains before
    /// exiting. Idempotent.
    pub(crate) fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of requests currently queued (all classes).
    pub(crate) fn len(&self) -> usize {
        lock(&self.state).len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, ServeError, Ticket};
    use rnn_core::Algorithm;
    use rnn_graph::NodeId;
    use std::time::Duration;

    fn queued(q: usize) -> (Queued, Ticket) {
        Queued::new(Request::new(Algorithm::Eager, NodeId::new(q), 1))
    }

    fn queued_batch(q: usize) -> (Queued, Ticket) {
        let request =
            Request::new(Algorithm::Eager, NodeId::new(q), 1).with_priority(Priority::Batch);
        Queued::new(request)
    }

    fn queued_deadline(q: usize, deadline: Instant) -> (Queued, Ticket) {
        let request = Request::new(Algorithm::Eager, NodeId::new(q), 1).with_deadline(deadline);
        Queued::new(request)
    }

    fn queued_expired(q: usize) -> (Queued, Ticket) {
        queued_deadline(q, Instant::now() - Duration::from_millis(1))
    }

    fn node_of(item: &Queued) -> usize {
        item.request.query.index()
    }

    fn pop_all(queue: &RequestQueue) -> Vec<usize> {
        let mut out = Vec::new();
        while queue.len() > 0 {
            queue.pop_batch(&mut out, 64);
        }
        out.iter().map(node_of).collect()
    }

    #[test]
    fn fifo_order_through_wraparound() {
        let queue = RequestQueue::new(3);
        let mut out = Vec::new();
        let mut tickets = Vec::new();
        for round in 0..4 {
            for i in 0..3 {
                let (item, t) = queued(round * 3 + i);
                tickets.push(t);
                assert!(matches!(queue.submit(item), Admission::Enqueued));
            }
            assert_eq!(queue.len(), 3);
            queue.pop_batch(&mut out, 2);
            assert_eq!(out.len(), 2, "round {round}: batch takes at most max");
            queue.pop_batch(&mut out, 2);
            assert_eq!(out.len(), 3, "round {round}: second pop takes the remainder");
            let nodes: Vec<usize> = out.iter().map(node_of).collect();
            assert_eq!(nodes, vec![round * 3, round * 3 + 1, round * 3 + 2], "round {round}");
            out.clear();
        }
    }

    #[test]
    fn reject_policy_turns_away_at_the_full_edge() {
        // A deadline-bearing newcomer at a full queue with nothing expired
        // is turned away at once instead of parking.
        let queue = RequestQueue::new(2);
        let far = Instant::now() + Duration::from_secs(3600);
        let (a, _ta) = queued_deadline(0, far);
        let (b, _tb) = queued_deadline(1, far);
        let (c, tc) = queued_deadline(2, far);
        assert!(matches!(queue.submit(a), Admission::Enqueued));
        assert!(matches!(queue.submit(b), Admission::Enqueued));
        match queue.submit(c) {
            Admission::Rejected(rejected) => assert_eq!(node_of(&rejected), 2),
            _ => panic!("a full queue must reject"),
        }
        // The rejected Queued was dropped by the match arm: its ticket
        // resolved (Lost) instead of hanging.
        assert_eq!(tc.wait(), Err(ServeError::Lost));
        assert_eq!(queue.len(), 2, "the resident requests were untouched");
    }

    #[test]
    fn shed_policy_evicts_the_earliest_deadline_expired_resident() {
        let queue = RequestQueue::new(3);
        let (fresh, _t0) = queued(0);
        let (expired_old, t_old) = queued_expired(1);
        let (expired_young, t_young) = queued_expired(2);
        queue.submit(fresh);
        queue.submit(expired_old);
        queue.submit(expired_young);

        let (newcomer, _t3) = queued(3);
        match queue.submit(newcomer) {
            Admission::EnqueuedAfterShed(victim) => {
                assert_eq!(node_of(&victim), 1, "the *earliest-deadline* expired entry dies");
                victim.fail(ServeError::Shed);
            }
            _ => panic!("an expired entry was available to shed"),
        }
        assert_eq!(t_old.wait(), Err(ServeError::Shed));
        assert!(!t_young.is_done(), "the younger expired entry stays queued");

        // EDF first (the surviving deadline-bearing entry), then the
        // deadline-free ring in FIFO order.
        assert_eq!(pop_all(&queue), vec![2, 0, 3]);

        // With nothing expired, a newcomer with a fresh deadline is
        // rejected.
        let fresh = Instant::now() + Duration::from_secs(60);
        let (a, _ta) = queued_deadline(10, fresh);
        let (b, _tb) = queued_deadline(11, fresh);
        let (c, _tc) = queued_deadline(12, fresh);
        let (d, _td) = queued_deadline(13, fresh);
        queue.submit(a);
        queue.submit(b);
        queue.submit(c);
        assert!(matches!(queue.submit(d), Admission::Rejected(_)));
    }

    #[test]
    fn expired_newcomer_is_shed_directly_at_the_full_edge() {
        // Regression (pre-QoS bug): a full queue + an expired newcomer used
        // to evict an expired *resident* and admit the newcomer — which the
        // dequeue check would then drop anyway, wasting a slot and shedding
        // the wrong request. The newcomer must die; residents stay.
        let queue = RequestQueue::new(2);
        let fresh_deadline = Instant::now() + Duration::from_secs(60);
        let (a, ta) = queued_deadline(0, fresh_deadline);
        let (b, tb) = queued_deadline(1, fresh_deadline);
        queue.submit(a);
        queue.submit(b);

        let (dead, t_dead) = queued_expired(2);
        match queue.submit(dead) {
            Admission::ShedNewcomer(newcomer) => {
                assert_eq!(node_of(&newcomer), 2, "the newcomer itself is the shed request");
                newcomer.fail(ServeError::Shed);
            }
            Admission::EnqueuedAfterShed(_) => panic!("a resident was evicted for dead work"),
            _ => panic!("an expired newcomer at the full edge must resolve as shed"),
        }
        assert_eq!(t_dead.wait(), Err(ServeError::Shed));
        assert_eq!(queue.len(), 2, "residents untouched");
        assert!(!ta.is_done() && !tb.is_done(), "no resident ticket was resolved");
        assert_eq!(pop_all(&queue), vec![0, 1]);
    }

    /// The admission kind and victim of one `try_admit` call: the victim is
    /// the evicted resident, or the newcomer itself when it is shed.
    fn describe(step: AdmitStep) -> (&'static str, Option<usize>) {
        match step {
            AdmitStep::Wait(_) => ("Wait", None),
            AdmitStep::Done(Admission::Enqueued) => ("Enqueued", None),
            AdmitStep::Done(Admission::EnqueuedAfterShed(victim)) => {
                ("EnqueuedAfterShed", Some(node_of(&victim)))
            }
            AdmitStep::Done(Admission::ShedNewcomer(newcomer)) => {
                ("ShedNewcomer", Some(node_of(&newcomer)))
            }
            AdmitStep::Done(Admission::Rejected(_)) => ("Rejected", None),
            AdmitStep::Done(Admission::Closed(_)) => ("Closed", None),
        }
    }

    #[test]
    fn full_edge_admission_table_pins_kind_victim_and_pop_order() {
        // Newcomer {no deadline, fresh deadline, expired} x residents at the
        // full edge {all fresh, one expired batch, one expired interactive,
        // one expired in each class}. Every queue holds four residents
        // submitted in id order: interactive 0 and 1, batch 2 and 3. The
        // newcomer is interactive node 9 with a fresh deadline earlier than
        // any resident's, so an admitted one pops first in its class.
        //
        // The one row whose outcome is `Wait` (no deadline, nothing expired)
        // parks the submitter. A newcomer without a deadline that meets an
        // expired resident evicts it, exactly like a deadline-bearing one:
        // before deadlines became live on every queue, the default `Block`
        // queue parked that newcomer instead. The "all fresh" residents are
        // chosen so that their pop order is the same whether deadlines route
        // to the EDF heap or ride the FIFO ring.
        let now = Instant::now();
        let ago = |secs| now.checked_sub(Duration::from_secs(secs)).unwrap_or(now);
        let ahead = |secs| now + Duration::from_secs(secs);
        let fresh_newcomer = ahead(5);

        // Per-resident deadlines in id order: interactive 0, 1; batch 2, 3.
        let all_fresh = [Some(ahead(10)), None, Some(ahead(20)), None];
        let expired_batch = [Some(ahead(10)), None, Some(ahead(20)), Some(ago(1))];
        let expired_interactive = [Some(ahead(10)), Some(ago(1)), Some(ahead(20)), None];
        let expired_each = [Some(ago(2)), None, Some(ago(1)), None];

        type Row = (Option<Instant>, [Option<Instant>; 4], &'static str, Option<usize>, [usize; 4]);
        let rows: [(&str, Row); 12] = [
            ("none / all fresh", (None, all_fresh, "Wait", None, [0, 1, 2, 3])),
            (
                "fresh / all fresh",
                (Some(fresh_newcomer), all_fresh, "Rejected", None, [0, 1, 2, 3]),
            ),
            (
                "expired / all fresh",
                (Some(ago(3)), all_fresh, "ShedNewcomer", Some(9), [0, 1, 2, 3]),
            ),
            (
                "none / expired batch",
                (None, expired_batch, "EnqueuedAfterShed", Some(3), [0, 1, 9, 2]),
            ),
            (
                "fresh / expired batch",
                (Some(fresh_newcomer), expired_batch, "EnqueuedAfterShed", Some(3), [9, 0, 1, 2]),
            ),
            (
                "expired / expired batch",
                (Some(ago(3)), expired_batch, "ShedNewcomer", Some(9), [0, 1, 3, 2]),
            ),
            (
                "none / expired interactive",
                (None, expired_interactive, "EnqueuedAfterShed", Some(1), [0, 9, 2, 3]),
            ),
            (
                "fresh / expired interactive",
                (
                    Some(fresh_newcomer),
                    expired_interactive,
                    "EnqueuedAfterShed",
                    Some(1),
                    [9, 0, 2, 3],
                ),
            ),
            (
                "expired / expired interactive",
                (Some(ago(3)), expired_interactive, "ShedNewcomer", Some(9), [1, 0, 2, 3]),
            ),
            (
                "none / expired each",
                (None, expired_each, "EnqueuedAfterShed", Some(2), [0, 1, 9, 3]),
            ),
            (
                "fresh / expired each",
                (Some(fresh_newcomer), expired_each, "EnqueuedAfterShed", Some(2), [0, 9, 1, 3]),
            ),
            (
                "expired / expired each",
                (Some(ago(3)), expired_each, "ShedNewcomer", Some(9), [0, 1, 2, 3]),
            ),
        ];

        for (name, (newcomer, residents, kind, victim, pops)) in rows {
            let queue = RequestQueue::new(4);
            let mut tickets = Vec::new();
            for (id, deadline) in residents.into_iter().enumerate() {
                let priority = if id < 2 { Priority::Interactive } else { Priority::Batch };
                let mut request =
                    Request::new(Algorithm::Eager, NodeId::new(id), 1).with_priority(priority);
                request.deadline = deadline;
                let (item, t) = Queued::new(request);
                tickets.push(t);
                assert!(matches!(queue.submit(item), Admission::Enqueued), "{name}: resident {id}");
            }
            let mut request = Request::new(Algorithm::Eager, NodeId::new(9), 1);
            request.deadline = newcomer;
            let (item, _t) = Queued::new(request);
            let step = queue.try_admit(&mut lock(&queue.state), item);
            assert_eq!(describe(step), (kind, victim), "{name}: admission");
            assert_eq!(pop_all(&queue), pops.to_vec(), "{name}: pop order");
        }
    }

    #[test]
    fn edf_orders_pops_by_deadline_with_fifo_tie_break() {
        let queue = RequestQueue::new(8);
        let base = Instant::now() + Duration::from_secs(100);
        let step = Duration::from_secs(1);
        // Submission order 0..5; deadlines deliberately out of order, with
        // 3 and 4 sharing one deadline (the tie).
        let deadlines =
            [base + 3 * step, base + step, base + 4 * step, base, base, base + 2 * step];
        let mut tickets = Vec::new();
        for (i, &d) in deadlines.iter().enumerate() {
            let (item, t) = queued_deadline(i, d);
            tickets.push(t);
            assert!(matches!(queue.submit(item), Admission::Enqueued));
        }
        // EDF: ascending deadline; the tied pair (3, 4) pops in submission
        // order, so the full order is deterministic.
        assert_eq!(pop_all(&queue), vec![3, 4, 1, 5, 0, 2]);
    }

    #[test]
    fn deadline_exactly_now_and_zero_budget_count_as_expired() {
        let queue = RequestQueue::new(2);
        // `deadline <= now` is the expiry test, so a deadline stamped "now"
        // and a zero-duration budget are both already dead at the edge.
        let at_now =
            Request::new(Algorithm::Eager, NodeId::new(0), 1).with_deadline(Instant::now());
        let zero_budget =
            Request::new(Algorithm::Eager, NodeId::new(1), 1).with_deadline_in(Duration::ZERO);
        assert_eq!(zero_budget.deadline, Some(zero_budget.submit_instant));
        let (a, ta) = Queued::new(at_now);
        let (b, tb) = Queued::new(zero_budget);
        queue.submit(a);
        queue.submit(b);
        assert_eq!(queue.len(), 2, "below capacity, even expired requests are admitted");

        // At the full edge both residents are expired; the earlier deadline
        // (node 0) is the victim for a fresh newcomer.
        let (fresh, _tf) = queued_deadline(2, Instant::now() + Duration::from_secs(60));
        match queue.submit(fresh) {
            Admission::EnqueuedAfterShed(victim) => {
                assert_eq!(node_of(&victim), 0);
                victim.fail(ServeError::Shed);
            }
            _ => panic!("an expired resident was available"),
        }
        assert_eq!(ta.wait(), Err(ServeError::Shed));
        assert!(!tb.is_done());
    }

    #[test]
    fn interactive_pops_first_with_a_bounded_starvation_streak() {
        // After four consecutive interactive pops with batch work waiting,
        // the fifth pop is forced from the batch class.
        let queue = RequestQueue::new(12);
        let mut tickets = Vec::new();
        for i in 0..9 {
            let (item, t) = queued(i);
            tickets.push(t);
            queue.submit(item);
        }
        for i in 0..3 {
            let (item, t) = queued_batch(100 + i);
            tickets.push(t);
            queue.submit(item);
        }
        let mut order = Vec::new();
        let mut out = Vec::new();
        while queue.len() > 0 {
            out.clear();
            queue.pop_batch(&mut out, 1);
            order.push(node_of(&out[0]));
        }
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 100, 4, 5, 6, 7, 101, 8, 102],
            "four interactive, one forced batch, repeat; tail drains batch"
        );
    }

    #[test]
    fn submit_batch_matches_single_submits_and_wakes_consumers_once() {
        let queue = RequestQueue::new(4);
        let far = Instant::now() + Duration::from_secs(3600);
        let mut items = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..6 {
            let (item, t) = queued_deadline(i, far);
            items.push(item);
            tickets.push(t);
        }
        let admissions = queue.submit_batch(items);
        assert_eq!(admissions.len(), 6);
        for (i, admission) in admissions.iter().enumerate() {
            if i < 4 {
                assert!(matches!(admission, Admission::Enqueued), "item {i} fits");
            } else {
                assert!(matches!(admission, Admission::Rejected(_)), "item {i} overflows");
            }
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(pop_all(&queue), vec![0, 1, 2, 3], "batch order is submission order");

        // An empty batch is a no-op.
        assert!(queue.submit_batch(Vec::new()).is_empty());
    }

    #[test]
    fn submit_batch_larger_than_capacity_blocks_and_completes() {
        // A deadline-free batch bigger than the whole queue must wake the
        // consumer for its enqueued prefix before parking — otherwise both
        // sides sleep forever.
        let queue = std::sync::Arc::new(RequestQueue::new(2));
        let consumer = {
            let queue = std::sync::Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut out = Vec::new();
                while seen.len() < 7 {
                    out.clear();
                    queue.pop_batch(&mut out, 3);
                    seen.extend(out.iter().map(node_of));
                }
                seen
            })
        };
        let mut items = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..7 {
            let (item, t) = queued(i);
            items.push(item);
            tickets.push(t);
        }
        let admissions = queue.submit_batch(items);
        assert!(admissions.iter().all(|a| matches!(a, Admission::Enqueued)));
        assert_eq!(consumer.join().unwrap(), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn block_policy_waits_for_space_and_wakes_on_pop() {
        let queue = std::sync::Arc::new(RequestQueue::new(1));
        let (first, _t1) = queued(0);
        queue.submit(first);

        let q2 = std::sync::Arc::clone(&queue);
        let blocked = std::thread::spawn(move || {
            let (second, t2) = queued(1);
            let admission = q2.submit(second);
            (matches!(admission, Admission::Enqueued), t2)
        });
        // Give the submitter time to block, then free a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!blocked.is_finished(), "the submitter must be parked on not_full");
        let mut out = Vec::new();
        queue.pop_batch(&mut out, 1);
        assert_eq!(out.iter().map(node_of).collect::<Vec<_>>(), vec![0]);
        let (enqueued, _t2) = blocked.join().unwrap();
        assert!(enqueued, "the parked submitter was admitted after the pop");
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn close_wakes_blocked_submitters_and_lets_workers_drain() {
        let queue = std::sync::Arc::new(RequestQueue::new(1));
        let (resident, _tr) = queued(0);
        queue.submit(resident);

        let q2 = std::sync::Arc::clone(&queue);
        let blocked = std::thread::spawn(move || {
            let (item, _t) = queued(1);
            matches!(q2.submit(item), Admission::Closed(_))
        });
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert!(blocked.join().unwrap(), "close must fail the parked submitter");

        // The resident request is still drainable; afterwards pop returns
        // empty — the worker-exit signal.
        let mut out = Vec::new();
        queue.pop_batch(&mut out, 4);
        assert_eq!(out.len(), 1);
        out.clear();
        queue.pop_batch(&mut out, 4);
        assert!(out.is_empty(), "closed + drained returns an empty batch");

        // Submissions after close fail regardless of deadline, singly or in
        // a batch.
        let (late, _tl) = queued(2);
        assert!(matches!(queue.submit(late), Admission::Closed(_)));
        let (late2, _tl2) = queued(3);
        let batch_admissions = queue.submit_batch(vec![late2]);
        assert!(matches!(batch_admissions[0], Admission::Closed(_)));
        queue.close(); // idempotent
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let queue = std::sync::Arc::new(RequestQueue::new(8));
        let produced = 4 * 100;
        let consumed = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = std::sync::Arc::clone(&queue);
                scope.spawn(move || {
                    // Odd producers batch their submissions, even producers
                    // submit singly — the accounting must not care.
                    if t % 2 == 1 {
                        for chunk in 0..20 {
                            let items = (0..5)
                                .map(|i| queued(t * 100 + chunk * 5 + i).0)
                                .collect::<Vec<_>>();
                            let admissions = queue.submit_batch(items);
                            assert!(admissions.iter().all(|a| matches!(a, Admission::Enqueued)));
                        }
                    } else {
                        for i in 0..100 {
                            let (item, _ticket) = queued(t * 100 + i);
                            assert!(matches!(queue.submit(item), Admission::Enqueued));
                        }
                    }
                });
            }
            for _ in 0..3 {
                let queue = std::sync::Arc::clone(&queue);
                let consumed = std::sync::Arc::clone(&consumed);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        out.clear();
                        queue.pop_batch(&mut out, 5);
                        if out.is_empty() {
                            break;
                        }
                        consumed.fetch_add(out.len(), std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            // Close once all producers are done; scope ordering: we can't
            // join selectively here, so spawn a closer that waits for the
            // produced count to drain through.
            let queue_for_close = std::sync::Arc::clone(&queue);
            let consumed_for_close = std::sync::Arc::clone(&consumed);
            scope.spawn(move || {
                while consumed_for_close.load(std::sync::atomic::Ordering::Relaxed) < produced {
                    std::thread::yield_now();
                }
                queue_for_close.close();
            });
        });
        assert_eq!(consumed.load(std::sync::atomic::Ordering::Relaxed), produced);
        assert_eq!(queue.len(), 0);
    }

    /// The seed's Shed semantics as an executable reference: a FIFO list
    /// scanned from the oldest entry, evicting the first expired one —
    /// plus the expired-newcomer fix. Deadlines in the trace are arranged
    /// so the seed's oldest-expired victim is always the EDF heap's
    /// earliest-deadline victim (at every full edge exactly one resident is
    /// expired) and fresh deadlines increase with submission order (so
    /// seed FIFO pop == EDF pop): any divergence is a queue bug, not a
    /// modelling artifact.
    struct SeedModel {
        fifo: std::collections::VecDeque<(usize, Option<u64>)>,
        capacity: usize,
    }

    enum ModelOutcome {
        Enqueued,
        EnqueuedAfterShed(usize),
        ShedNewcomer,
    }

    impl SeedModel {
        fn submit(&mut self, id: usize, deadline_key: Option<u64>, expired: bool) -> ModelOutcome {
            if self.fifo.len() < self.capacity {
                self.fifo.push_back((id, deadline_key));
                return ModelOutcome::Enqueued;
            }
            if expired {
                return ModelOutcome::ShedNewcomer;
            }
            let victim_pos = self
                .fifo
                .iter()
                .position(|&(_, key)| key.is_some_and(|k| k < FRESH_BASE))
                .expect("the trace keeps one expired resident at every full edge");
            let (victim, _) = self.fifo.remove(victim_pos).unwrap();
            self.fifo.push_back((id, deadline_key));
            ModelOutcome::EnqueuedAfterShed(victim)
        }

        fn pop(&mut self) -> Option<usize> {
            self.fifo.pop_front().map(|(id, _)| id)
        }
    }

    /// Deadline keys at or above this encode "fresh" (far future);
    /// below it, "expired" (already past).
    const FRESH_BASE: u64 = 1 << 32;

    #[test]
    fn overload_trace_with_10k_sheds_replays_identically_to_the_seed_model() {
        // 10 000 full-edge evictions: each round tops the queue up with one
        // expired resident, forces an eviction with a fresh newcomer, and
        // drains one slot. The real queue must name the same victim and pop
        // the same request as the seed reference model every single time —
        // and spend O(log n), not O(n), per eviction doing it.
        const CAPACITY: usize = 8;
        const ROUNDS: usize = 10_000;
        let queue = RequestQueue::new(CAPACITY);
        let mut model = SeedModel { fifo: std::collections::VecDeque::new(), capacity: CAPACITY };

        let now = Instant::now();
        let past = now.checked_sub(Duration::from_secs(3600)).unwrap_or(now);
        let future = now + Duration::from_secs(3600);
        // Key -> Instant: expired keys step by 10ns from one hour ago,
        // fresh keys step by 1us from one hour ahead — both monotone in
        // submission order, which is what aligns FIFO with EDF.
        let expired_at = |r: usize| past + Duration::from_nanos(10 * r as u64);
        let fresh_at = |r: usize| future + Duration::from_micros(r as u64);

        let mut tickets: Vec<Ticket> = Vec::new();

        // Prefill to capacity - 1 with fresh residents (ids disjoint from
        // the per-round ids 0..2*ROUNDS).
        for r in 0..CAPACITY - 1 {
            let id = 2 * ROUNDS + 1 + r;
            let (item, t) = queued_deadline(id, fresh_at(0));
            tickets.push(t);
            assert!(matches!(queue.submit(item), Admission::Enqueued));
            assert!(matches!(model.submit(id, Some(FRESH_BASE), false), ModelOutcome::Enqueued));
        }

        let mut sheds = 0usize;
        let mut out = Vec::new();
        for r in 0..ROUNDS {
            // One expired resident in (queue has a free slot).
            let expired_id = 2 * r;
            let (item, t) = queued_deadline(expired_id, expired_at(r));
            tickets.push(t);
            assert!(matches!(queue.submit(item), Admission::Enqueued));
            assert!(matches!(
                model.submit(expired_id, Some(r as u64), true),
                ModelOutcome::Enqueued
            ));

            // One fresh newcomer at the full edge: eviction.
            let fresh_id = 2 * r + 1;
            let (item, t) = queued_deadline(fresh_id, fresh_at(r + 1));
            tickets.push(t);
            let expected = match model.submit(fresh_id, Some(FRESH_BASE + r as u64), false) {
                ModelOutcome::EnqueuedAfterShed(victim) => victim,
                _ => panic!("round {r}: the model must evict"),
            };
            match queue.submit(item) {
                Admission::EnqueuedAfterShed(victim) => {
                    assert_eq!(node_of(&victim), expected, "round {r}: victim diverged");
                    sheds += 1;
                    victim.fail(ServeError::Shed);
                }
                _ => panic!("round {r}: the queue must evict"),
            }

            // Drain one slot; pop order must match the seed model too.
            out.clear();
            queue.pop_batch(&mut out, 1);
            assert_eq!(node_of(&out[0]), model.pop().unwrap(), "round {r}: pop diverged");
            out.clear();
        }
        assert_eq!(sheds, ROUNDS);

        // Drain the tail: still in lockstep.
        let mut real_tail = pop_all(&queue);
        let mut model_tail = Vec::new();
        while let Some(id) = model.pop() {
            model_tail.push(id);
        }
        real_tail.sort_unstable();
        model_tail.sort_unstable();
        assert_eq!(real_tail, model_tail);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_queue_panics() {
        let _ = RequestQueue::new(0);
    }
}
