//! The flight recorder: a fixed-capacity lock-free ring of structured
//! events.
//!
//! Metrics answer "how much"; the flight recorder answers "what happened,
//! in what order". Layers append compact [`EventKind`]s — admission sheds,
//! point-set swaps, buffer-pool resizes and clears, worker lifecycle,
//! slow-query captures — and a later
//! [`drain`](FlightRecorder::drain) recovers them in deterministic sequence
//! order for inspection, structured logging, or the Chrome-trace exporter
//! ([`crate::export::chrome_trace`]).
//!
//! # Design
//!
//! The ring is `capacity` slots of plain `AtomicU64` words (no `unsafe`,
//! matching the crate's `forbid(unsafe_code)`). A writer claims a global
//! sequence number with one `fetch_add`, then publishes into slot
//! `seq % capacity` under a per-slot version protocol:
//!
//! * store `2*seq + 1` (odd: write in progress), then a `Release` fence, so
//!   no payload store below can become visible before the odd version;
//! * write the payload words (relaxed);
//! * store `2*seq + 2` (even: published), `Release`.
//!
//! A drain loads the version (`Acquire`), loads the payload (relaxed), then
//! issues an `Acquire` fence before loading the version again, so none of
//! the payload loads can be satisfied after that re-check. Any torn or
//! overwritten slot fails the `2*seq + 2` check and is counted in
//! [`Drained::dropped`] instead of being misreported. This is the seqlock
//! protocol of the server's stats cells. When the ring laps (more than
//! `capacity` events between drains), the oldest events are overwritten and
//! counted as dropped — the recorder is a bounded black box, honest about
//! what it lost, never a backpressure source.
//!
//! Record cost: one `fetch_add`, six stores and a fence, no locks, no
//! allocation. Draining takes a mutex (it tracks a cursor so each event is
//! returned once), which only drains contend on.

use crate::trace::lock;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;

/// Words per ring slot: `[version, nanos, tag, w0, w1, w2]`.
const SLOT_WORDS: usize = 6;

/// One structured event, as drained: the claim sequence number (global,
/// gap-free per recorder), a caller-supplied nanosecond timestamp (0 when
/// the emitting layer keeps no clock), and the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number; drains return ascending `seq`.
    pub seq: u64,
    /// Caller-supplied monotonic nanoseconds (0 when not stamped).
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary. Payloads are compact codes, not strings — the
/// recorder stores three `u64` words per event. Opaque codes (`class`,
/// `algorithm`) are defined by the emitting layer; the server uses its
/// priority/algorithm indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Admission control shed or rejected work: `class` is the priority
    /// class code, `count` how many requests this event covers.
    AdmissionShed {
        /// Priority-class code (server-defined).
        class: u64,
        /// Requests shed in this event.
        count: u64,
    },
    /// A point-set swap served through the server (`delta = true` for
    /// `swap_points_delta`).
    PointsSwap {
        /// Points in the new live set.
        points: u64,
        /// Whether this was an incremental delta swap.
        delta: bool,
    },
    /// The buffer pool was resized to `pages` frames.
    PoolResize {
        /// New capacity in pages.
        pages: u64,
    },
    /// The buffer pool was cleared: its frames dropped, its counts zeroed.
    PoolClear,
    /// A server worker thread started.
    WorkerStart {
        /// Worker index.
        worker: u64,
    },
    /// A server worker thread exited after serving `served` requests.
    WorkerStop {
        /// Worker index.
        worker: u64,
        /// Requests served over the worker's lifetime.
        served: u64,
    },
    /// The slow-query log captured a query into its worst-N set.
    SlowQuery {
        /// Query identifier (node id).
        query: u64,
        /// Service time in nanoseconds.
        service_nanos: u64,
        /// Algorithm code (server-defined).
        algorithm: u64,
    },
}

impl EventKind {
    /// A short stable name for exporters and logs.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::AdmissionShed { .. } => "admission_shed",
            EventKind::PointsSwap { .. } => "points_swap",
            EventKind::PoolResize { .. } => "pool_resize",
            EventKind::PoolClear => "pool_clear",
            EventKind::WorkerStart { .. } => "worker_start",
            EventKind::WorkerStop { .. } => "worker_stop",
            EventKind::SlowQuery { .. } => "slow_query",
        }
    }

    /// `(tag, w0, w1, w2)` wire form. Tags 3 and 7 belonged to kinds that
    /// no longer exist; the others keep their codes and 3 and 7 decode as
    /// unknown.
    fn encode(&self) -> (u64, u64, u64, u64) {
        match *self {
            EventKind::AdmissionShed { class, count } => (0, class, count, 0),
            EventKind::PointsSwap { points, delta } => (1, points, u64::from(delta), 0),
            EventKind::PoolResize { pages } => (2, pages, 0, 0),
            EventKind::PoolClear => (4, 0, 0, 0),
            EventKind::WorkerStart { worker } => (5, worker, 0, 0),
            EventKind::WorkerStop { worker, served } => (6, worker, served, 0),
            EventKind::SlowQuery { query, service_nanos, algorithm } => {
                (8, query, service_nanos, algorithm)
            }
        }
    }

    fn decode(tag: u64, w0: u64, w1: u64, w2: u64) -> Option<EventKind> {
        Some(match tag {
            0 => EventKind::AdmissionShed { class: w0, count: w1 },
            1 => EventKind::PointsSwap { points: w0, delta: w1 != 0 },
            2 => EventKind::PoolResize { pages: w0 },
            4 => EventKind::PoolClear,
            5 => EventKind::WorkerStart { worker: w0 },
            6 => EventKind::WorkerStop { worker: w0, served: w1 },
            8 => EventKind::SlowQuery { query: w0, service_nanos: w1, algorithm: w2 },
            _ => return None,
        })
    }
}

/// The result of one [`FlightRecorder::drain`].
#[derive(Clone, Debug, Default)]
pub struct Drained {
    /// Events in ascending `seq` order, each returned by exactly one drain.
    pub events: Vec<Event>,
    /// Events lost to ring lapping (or torn by a racing writer) since the
    /// previous drain.
    pub dropped: u64,
}

/// The fixed-capacity lock-free event ring. Cloning the `Arc` it usually
/// lives in shares the ring; see the module docs for the slot protocol.
pub struct FlightRecorder {
    head: AtomicU64,
    /// `capacity * SLOT_WORDS` atomics; slot `i` owns words
    /// `[i*SLOT_WORDS, (i+1)*SLOT_WORDS)` as `[version, nanos, tag, w0, w1, w2]`.
    words: Vec<AtomicU64>,
    /// Next sequence number a drain should return; also serializes drains.
    cursor: Mutex<u64>,
    capacity: u64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (rounded up to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1) as u64;
        FlightRecorder {
            head: AtomicU64::new(0),
            words: (0..capacity as usize * SLOT_WORDS).map(|_| AtomicU64::new(0)).collect(),
            cursor: Mutex::new(0),
            capacity,
        }
    }

    /// Records one event with no timestamp. Lock-free.
    pub fn record(&self, kind: EventKind) {
        self.record_at(0, kind);
    }

    /// Records one event stamped with caller-supplied monotonic
    /// nanoseconds. Lock-free: one `fetch_add`, six stores and a fence.
    pub fn record_at(&self, nanos: u64, kind: EventKind) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let base = ((seq % self.capacity) as usize) * SLOT_WORDS;
        let (tag, w0, w1, w2) = kind.encode();
        let version = &self.words[base];
        version.store(2 * seq + 1, Ordering::Relaxed);
        // A Release *store* orders only what precedes it; the fence keeps
        // the payload stores below from becoming visible before the odd
        // version, so a reader never pairs new words with an old version.
        fence(Ordering::Release);
        self.words[base + 1].store(nanos, Ordering::Relaxed);
        self.words[base + 2].store(tag, Ordering::Relaxed);
        self.words[base + 3].store(w0, Ordering::Relaxed);
        self.words[base + 4].store(w1, Ordering::Relaxed);
        self.words[base + 5].store(w2, Ordering::Relaxed);
        version.store(2 * seq + 2, Ordering::Release);
    }

    /// Number of events ever recorded.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Returns every event published since the previous drain, in ascending
    /// sequence order, plus the count lost to lapping. Events still being
    /// written (odd version) or already overwritten are counted dropped.
    pub fn drain(&self) -> Drained {
        let mut cursor = lock(&self.cursor);
        let head = self.head.load(Ordering::Acquire);
        let start = if head - *cursor > self.capacity { head - self.capacity } else { *cursor };
        let mut out = Drained { events: Vec::new(), dropped: start - *cursor };
        for seq in start..head {
            let base = ((seq % self.capacity) as usize) * SLOT_WORDS;
            let version = &self.words[base];
            if version.load(Ordering::Acquire) != 2 * seq + 2 {
                out.dropped += 1;
                continue;
            }
            let nanos = self.words[base + 1].load(Ordering::Relaxed);
            let tag = self.words[base + 2].load(Ordering::Relaxed);
            let w0 = self.words[base + 3].load(Ordering::Relaxed);
            let w1 = self.words[base + 4].load(Ordering::Relaxed);
            let w2 = self.words[base + 5].load(Ordering::Relaxed);
            // An Acquire *load* orders only what follows it; the fence keeps
            // the payload loads above from being satisfied after the
            // re-check, so a torn slot cannot pass it.
            fence(Ordering::Acquire);
            if version.load(Ordering::Relaxed) != 2 * seq + 2 {
                out.dropped += 1;
                continue;
            }
            match EventKind::decode(tag, w0, w1, w2) {
                Some(kind) => out.events.push(Event { seq, nanos, kind }),
                None => out.dropped += 1,
            }
        }
        *cursor = head;
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn events_round_trip_in_sequence_order() {
        let rec = FlightRecorder::new(16);
        rec.record(EventKind::WorkerStart { worker: 0 });
        rec.record_at(500, EventKind::AdmissionShed { class: 1, count: 3 });
        rec.record(EventKind::PointsSwap { points: 12, delta: true });
        let d = rec.drain();
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 3);
        assert_eq!(d.events[0].seq, 0);
        assert_eq!(d.events[0].kind, EventKind::WorkerStart { worker: 0 });
        assert_eq!(d.events[1].nanos, 500);
        assert_eq!(d.events[1].kind, EventKind::AdmissionShed { class: 1, count: 3 });
        assert_eq!(d.events[2].kind, EventKind::PointsSwap { points: 12, delta: true });
        // A second drain returns nothing new.
        assert!(rec.drain().events.is_empty());
        rec.record(EventKind::PoolResize { pages: 64 });
        let d = rec.drain();
        assert_eq!(d.events.len(), 1);
        assert_eq!(d.events[0].seq, 3);
    }

    #[test]
    fn lapping_drops_the_oldest_and_is_counted() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(EventKind::WorkerStart { worker: i });
        }
        let d = rec.drain();
        assert_eq!(d.dropped, 6, "ring of 4 kept the newest 4 of 10");
        let workers: Vec<u64> = d
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerStart { worker } => worker,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(workers, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_writers_never_produce_garbage() {
        let rec = Arc::new(FlightRecorder::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        rec.record(EventKind::SlowQuery {
                            query: t,
                            service_nanos: i,
                            algorithm: t,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), 4_000);
        let d = rec.drain();
        assert_eq!(d.events.len() as u64 + d.dropped, 4_000);
        // Whatever survived is well-formed and strictly ordered.
        for w in d.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        for e in &d.events {
            match e.kind {
                EventKind::SlowQuery { query, algorithm, .. } => assert_eq!(query, algorithm),
                _ => panic!("decoded a kind nobody recorded"),
            }
        }
    }

    #[test]
    fn draining_while_writers_record_never_yields_a_torn_event() {
        // The seqlock under contention: drains race four writers lapping a
        // small ring, so slots are read while being rewritten. A torn read
        // would pair one writer's `query` with another's `algorithm`.
        let rec = Arc::new(FlightRecorder::new(16));
        let done = AtomicBool::new(false);
        let (mut events, mut dropped) = (0u64, 0u64);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|t| {
                    let rec = Arc::clone(&rec);
                    s.spawn(move || {
                        for i in 0..20_000u64 {
                            rec.record(EventKind::SlowQuery {
                                query: t,
                                service_nanos: i,
                                algorithm: t,
                            });
                        }
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                let mut tally = (0u64, 0u64);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let d = rec.drain();
                    for w in d.events.windows(2) {
                        assert!(w[0].seq < w[1].seq);
                    }
                    for e in &d.events {
                        match e.kind {
                            EventKind::SlowQuery { query, algorithm, .. } => {
                                assert_eq!(query, algorithm, "torn slot at seq {}", e.seq)
                            }
                            _ => panic!("decoded a kind nobody recorded"),
                        }
                    }
                    tally.0 += d.events.len() as u64;
                    tally.1 += d.dropped;
                    if finished {
                        return tally;
                    }
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
            (events, dropped) = reader.join().unwrap();
        });
        assert_eq!(rec.recorded(), 80_000);
        assert_eq!(events + dropped, rec.recorded(), "every event is returned or counted");
    }

    #[test]
    fn every_kind_name_is_stable() {
        let kinds = [
            EventKind::AdmissionShed { class: 0, count: 0 },
            EventKind::PointsSwap { points: 0, delta: false },
            EventKind::PoolResize { pages: 0 },
            EventKind::PoolClear,
            EventKind::WorkerStart { worker: 0 },
            EventKind::WorkerStop { worker: 0, served: 0 },
            EventKind::SlowQuery { query: 0, service_nanos: 0, algorithm: 0 },
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "event names are unique");
        for (k, code) in kinds.iter().zip([0u64, 1, 2, 4, 5, 6, 8]) {
            let (tag, w0, w1, w2) = k.encode();
            assert_eq!(tag, code);
            assert_eq!(EventKind::decode(tag, w0, w1, w2), Some(*k), "encode/decode round trip");
        }
        assert_eq!(EventKind::decode(3, 0, 0, 0), None, "a retired code is unknown");
        assert_eq!(EventKind::decode(7, 0, 0, 0), None, "a retired code is unknown");
        assert_eq!(EventKind::decode(99, 0, 0, 0), None);
    }
}
