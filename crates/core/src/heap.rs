//! Priority queue used by the network expansions.
//!
//! [`ExpansionHeap`] is a binary min-heap over `(distance, node)` entries with
//! two extra features the lazy algorithm needs:
//!
//! * every pushed entry receives a unique ticket, so entries can later be
//!   *invalidated* ("removed from the heap" in the paper's terminology, via
//!   the hash table of back-pointers) without rebuilding the heap;
//! * pops skip invalidated and stale entries transparently.
//!
//! Tickets are handed out densely from zero, so the invalidation marks are a
//! bitmap indexed by ticket rather than a hash set.

use rnn_graph::{NodeId, Weight};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A unique identifier of a heap entry (the "pointer" stored in lazy's hash
/// table).
pub type Ticket = u64;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Entry {
    dist: Weight,
    node: NodeId,
    ticket: Ticket,
}

// BinaryHeap is a max-heap; invert the ordering to get a min-heap. Ties are
// broken by node id and then ticket so the order is fully deterministic.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.ticket.cmp(&self.ticket))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-heap of `(distance, node)` entries with ticket-based invalidation.
#[derive(Debug, Default)]
pub struct ExpansionHeap {
    heap: BinaryHeap<Entry>,
    /// Bit `t` is set once ticket `t` has been invalidated. Grown on demand:
    /// a ticket beyond the last word is valid.
    invalidated: Vec<u64>,
    /// Entries pushed since the last clear — also the next ticket.
    pushes: u64,
}

impl ExpansionHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the heap for reuse: entries, invalidations, tickets and the
    /// push counter all reset, while allocated capacity is retained.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.invalidated.clear();
        self.pushes = 0;
    }

    /// Pushes an entry and returns its ticket.
    pub fn push(&mut self, node: NodeId, dist: Weight) -> Ticket {
        let ticket = self.pushes;
        self.pushes += 1;
        self.heap.push(Entry { dist, node, ticket });
        ticket
    }

    /// Marks a previously pushed entry as invalid; it will be skipped by
    /// [`ExpansionHeap::pop`]. A ticket this heap has not handed out (since
    /// the last [`ExpansionHeap::clear`]) is ignored.
    pub fn invalidate(&mut self, ticket: Ticket) {
        if ticket >= self.pushes {
            return;
        }
        let word = (ticket / 64) as usize;
        if word >= self.invalidated.len() {
            self.invalidated.resize(word + 1, 0);
        }
        self.invalidated[word] |= 1 << (ticket % 64);
    }

    #[inline]
    fn is_invalidated(&self, ticket: Ticket) -> bool {
        self.invalidated.get((ticket / 64) as usize).is_some_and(|w| w >> (ticket % 64) & 1 == 1)
    }

    /// Pops the valid entry with the smallest distance, if any.
    pub fn pop(&mut self) -> Option<(NodeId, Weight, Ticket)> {
        while let Some(e) = self.heap.pop() {
            if !self.is_invalidated(e.ticket) {
                return Some((e.node, e.dist, e.ticket));
            }
        }
        None
    }

    /// Distance of the smallest valid entry without popping it.
    pub fn peek_dist(&mut self) -> Option<Weight> {
        while let Some(e) = self.heap.peek() {
            if !self.is_invalidated(e.ticket) {
                return Some(e.dist);
            }
            self.heap.pop();
        }
        None
    }

    /// Returns `true` if no valid entries remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_dist().is_none()
    }

    /// Number of entries pushed since the last [`ExpansionHeap::clear`] (for
    /// statistics). Tickets are handed out in sequence, so this is also the
    /// ticket the next push will get.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i as usize)
    }

    fn w(v: f64) -> Weight {
        Weight::new(v)
    }

    #[test]
    fn pops_in_distance_order() {
        let mut h = ExpansionHeap::new();
        h.push(n(1), w(5.0));
        h.push(n(2), w(1.0));
        h.push(n(3), w(3.0));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|(nd, _, _)| nd.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(h.pushes(), 3);
    }

    #[test]
    fn ties_broken_deterministically() {
        let mut h = ExpansionHeap::new();
        h.push(n(9), w(2.0));
        h.push(n(4), w(2.0));
        h.push(n(7), w(2.0));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|(nd, _, _)| nd.0).collect();
        assert_eq!(order, vec![4, 7, 9]);
    }

    #[test]
    fn invalidated_entries_are_skipped() {
        let mut h = ExpansionHeap::new();
        let t1 = h.push(n(1), w(1.0));
        h.push(n(2), w(2.0));
        let t3 = h.push(n(3), w(3.0));
        h.invalidate(t1);
        h.invalidate(t3);
        assert_eq!(h.pop().map(|(nd, _, _)| nd), Some(n(2)));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn peek_skips_invalidated_entries() {
        let mut h = ExpansionHeap::new();
        let t1 = h.push(n(1), w(1.0));
        h.push(n(2), w(2.5));
        h.invalidate(t1);
        assert_eq!(h.peek_dist(), Some(w(2.5)));
        assert!(!h.is_empty());
        assert_eq!(h.pop().map(|(nd, _, _)| nd), Some(n(2)));
        assert_eq!(h.peek_dist(), None);
    }

    #[test]
    fn clear_forgets_invalidations_so_reused_tickets_are_fresh() {
        let mut h = ExpansionHeap::new();
        let tickets: Vec<Ticket> = (0..130).map(|i| h.push(n(i), w(i as f64))).collect();
        for &t in &tickets {
            h.invalidate(t);
        }
        assert!(h.is_empty());
        h.clear();
        assert_eq!(h.pushes(), 0);
        // The same ticket numbers are handed out again, across both bitmap
        // words and beyond them; none may inherit an old invalidation.
        let again: Vec<Ticket> = (0..200).map(|i| h.push(n(i), w(i as f64))).collect();
        assert_eq!(again[..130], tickets[..]);
        h.invalidate(again[64]);
        let popped: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|(nd, _, _)| nd.0).collect();
        let expected: Vec<u32> = (0..200).filter(|&i| i != 64).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn invalidating_a_ticket_never_handed_out_is_ignored() {
        let mut h = ExpansionHeap::new();
        h.invalidate(0);
        h.invalidate(u64::MAX);
        let t = h.push(n(1), w(1.0));
        assert_eq!(t, 0);
        assert_eq!(h.pop().map(|(nd, _, _)| nd), Some(n(1)));
    }

    #[test]
    fn empty_heap_behaves() {
        let mut h = ExpansionHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek_dist(), None);
    }
}
