//! Binary page format for adjacency lists.
//!
//! A page is a fixed-size (4 KB) block holding the adjacency records of one
//! or more nodes. The record of a node `n` with degree `d` is encoded as:
//!
//! ```text
//! [node: u32][count: u32] then `count` entries of
//!     [neighbor: u32][edge: u32][weight: f64 little-endian]
//! ```
//!
//! i.e. `8 + 16·d` bytes. High-degree nodes whose record does not fit in one
//! page are split into *continuation records* over several pages; the node
//! index records every page a node's list spans, so a lookup accesses all of
//! them (this mirrors what a real adjacency file would do and keeps the I/O
//! accounting honest for hub nodes).
//!
//! The node index also records the byte offset of every record header, so a
//! lookup decodes its record in place ([`Page::record_at`]) and never parses
//! the records of the page's other nodes.

use crate::error::StorageError;
use bytes::{BufMut, Bytes, BytesMut};
use rnn_graph::{EdgeId, NodeId, Weight};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The page size in bytes, matching the experimental setup of the paper.
pub const PAGE_SIZE: usize = 4096;

// Record offsets inside a page are stored as `u16` in the node index.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

/// Size in bytes of one record header (`node`, `count`).
pub const RECORD_HEADER_BYTES: usize = 8;

/// Size in bytes of one adjacency entry (`neighbor`, `edge`, `weight`).
pub const ENTRY_BYTES: usize = 16;

/// Identifier of a disk page.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct PageId(pub u32);

impl PageId {
    /// Creates a page id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        PageId(index as u32)
    }

    /// Returns the page id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// One adjacency entry decoded from a page.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PageEntry {
    /// The neighboring node.
    pub neighbor: NodeId,
    /// The undirected edge connecting the record's node to `neighbor`.
    pub edge: EdgeId,
    /// The weight of that edge.
    pub weight: Weight,
}

/// A decoded adjacency record: a node plus (part of) its adjacency list.
#[derive(Clone, Debug, PartialEq)]
pub struct PageRecord {
    /// The node this record belongs to.
    pub node: NodeId,
    /// The adjacency entries stored in this record.
    pub entries: Vec<PageEntry>,
}

impl PageRecord {
    /// Encoded size of a record with `degree` entries.
    #[inline]
    pub fn encoded_size(degree: usize) -> usize {
        RECORD_HEADER_BYTES + ENTRY_BYTES * degree
    }

    /// Maximum number of entries that fit into a fresh page together with the
    /// record header.
    #[inline]
    pub fn max_entries_per_page() -> usize {
        (PAGE_SIZE - RECORD_HEADER_BYTES) / ENTRY_BYTES
    }
}

/// An immutable 4 KB page of encoded adjacency records.
#[derive(Clone, PartialEq)]
pub struct Page {
    bytes: Bytes,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes used)", self.bytes.len())
    }
}

/// One adjacency record viewed in place: the node from its header and the
/// still-encoded entries, borrowed straight from the page bytes.
///
/// Only [`Page::record_at`] (and the scan-based reference built on the same
/// parser) hands these out, so `body` is always a whole number of entries
/// that lies inside the page.
#[derive(Copy, Clone, Debug)]
pub struct RecordView<'a> {
    /// The node named by the record header.
    pub node: NodeId,
    body: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Number of adjacency entries in the record.
    #[inline]
    pub fn len(&self) -> usize {
        self.body.len() / ENTRY_BYTES
    }

    /// Returns `true` for the record of an isolated node.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Decodes the entries one by one, without copying them anywhere.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = PageEntry> + 'a {
        self.body.chunks_exact(ENTRY_BYTES).map(decode_entry)
    }

    /// Decodes entry `i` (`i < len()`). For the paged graph's hit path, which
    /// copies a record out while it holds a shard lock: a counted loop over
    /// this stays a loop, where one over [`RecordView::entries`] has compiled
    /// to an out-of-line `next` call per entry.
    #[inline]
    pub(crate) fn entry(&self, i: usize) -> PageEntry {
        decode_entry(&self.body[i * ENTRY_BYTES..(i + 1) * ENTRY_BYTES])
    }
}

/// Decodes one [`ENTRY_BYTES`]-long encoded entry.
#[inline]
fn decode_entry(raw: &[u8]) -> PageEntry {
    PageEntry {
        neighbor: NodeId(le_u32(raw, 0)),
        edge: EdgeId(le_u32(raw, 4)),
        weight: Weight::new(f64::from_le_bytes(
            raw[8..ENTRY_BYTES].try_into().expect("an entry is 16 bytes"),
        )),
    }
}

/// The little-endian `u32` at `raw[at..at + 4]`.
#[inline]
fn le_u32(raw: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([raw[at], raw[at + 1], raw[at + 2], raw[at + 3]])
}

impl Page {
    /// Wraps raw page bytes (at most [`PAGE_SIZE`] bytes).
    pub fn from_bytes(bytes: Bytes) -> Result<Self, StorageError> {
        if bytes.len() > PAGE_SIZE {
            return Err(StorageError::CorruptPage {
                page: PageId(u32::MAX),
                message: format!("page content of {} bytes exceeds PAGE_SIZE", bytes.len()),
            });
        }
        Ok(Page { bytes })
    }

    /// The raw encoded bytes (without trailing padding).
    pub fn as_bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Number of used bytes in the page.
    pub fn used_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The one record parser: reads the header at `offset` and checks that
    /// the header and the `count * 16` entry bytes it declares lie inside the
    /// page. Returns the record and the offset just past it.
    #[inline]
    fn parse_record(&self, offset: usize) -> Result<(RecordView<'_>, usize), String> {
        let bytes = self.bytes.as_slice();
        // Bounds first: `offset` and `count` are data, so no sum or product
        // of them may wrap before it is compared against the page.
        let header_end = offset.checked_add(RECORD_HEADER_BYTES);
        let Some((header, body_start)) =
            header_end.and_then(|end| bytes.get(offset..end).map(|header| (header, end)))
        else {
            return Err(format!(
                "a record header at offset {offset} does not fit in the {} used bytes",
                bytes.len()
            ));
        };
        let node = NodeId(le_u32(header, 0));
        let count = le_u32(header, 4) as usize;
        let body_end = count.checked_mul(ENTRY_BYTES).and_then(|len| body_start.checked_add(len));
        match body_end.and_then(|end| bytes.get(body_start..end).map(|body| (body, end))) {
            Some((body, end)) => Ok((RecordView { node, body }, end)),
            None => Err(format!(
                "record of node {node} at offset {offset} declares {count} entries but only {} bytes remain",
                bytes.len() - body_start
            )),
        }
    }

    /// The record of `node` at byte `offset` of this page, validated and
    /// viewed in place — the hot path of [`crate::PagedGraph`], which gets
    /// `offset` from the node index instead of scanning the page.
    ///
    /// Rejected with [`StorageError::CorruptPage`] (naming page, node and
    /// offset): a header that does not fit at `offset`, a header naming
    /// another node (an index that disagrees with the page file), and a
    /// `count` whose entries overflow the page.
    #[inline]
    pub fn record_at(
        &self,
        page: PageId,
        node: NodeId,
        offset: usize,
    ) -> Result<RecordView<'_>, StorageError> {
        match self.parse_record(offset) {
            Ok((record, _)) if record.node == node => Ok(record),
            Ok((record, _)) => Err(StorageError::CorruptPage {
                page,
                message: format!(
                    "the index points node {node} at offset {offset}, where the record of node {} lies",
                    record.node
                ),
            }),
            Err(message) => Err(StorageError::CorruptPage {
                page,
                message: format!("no record of node {node}: {message}"),
            }),
        }
    }

    /// Walks the page record by record from offset 0, stopping at the first
    /// stretch too short for a header; returns the offset it stopped at.
    fn scan(
        &self,
        page: PageId,
        mut each: impl FnMut(RecordView<'_>),
    ) -> Result<usize, StorageError> {
        let mut offset = 0;
        while self.bytes.len() - offset >= RECORD_HEADER_BYTES {
            let (record, next) = self
                .parse_record(offset)
                .map_err(|message| StorageError::CorruptPage { page, message })?;
            each(record);
            offset = next;
        }
        Ok(offset)
    }

    /// Decodes all records stored in the page.
    pub fn records(&self, page: PageId) -> Result<Vec<PageRecord>, StorageError> {
        let mut records = Vec::new();
        let end = self.scan(page, |r| {
            records.push(PageRecord { node: r.node, entries: r.entries().collect() });
        })?;
        if end != self.bytes.len() {
            return Err(StorageError::CorruptPage {
                page,
                message: format!("{} trailing bytes after last record", self.bytes.len() - end),
            });
        }
        Ok(records)
    }

    /// Decodes only the record(s) of `node` stored in this page by scanning
    /// it from the start, appending the entries to `out`. Returns `true` if
    /// the node was found.
    ///
    /// This is the offset-free *reference* the layout tests compare
    /// [`Page::record_at`] against; nothing on the query path scans.
    pub fn entries_of(
        &self,
        page: PageId,
        node: NodeId,
        out: &mut Vec<PageEntry>,
    ) -> Result<bool, StorageError> {
        let mut found = false;
        self.scan(page, |r| {
            if r.node == node {
                found = true;
                out.extend(r.entries());
            }
        })?;
        Ok(found)
    }
}

/// Mutable builder filling one page with adjacency records.
#[derive(Debug, Default)]
pub struct PageBuilder {
    bytes: BytesMut,
}

impl PageBuilder {
    /// Creates an empty page builder.
    pub fn new() -> Self {
        PageBuilder { bytes: BytesMut::with_capacity(PAGE_SIZE) }
    }

    /// Free space remaining in the page, in bytes.
    pub fn free_bytes(&self) -> usize {
        PAGE_SIZE - self.bytes.len()
    }

    /// Returns `true` if no record has been added yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns `true` if a record with `degree` entries fits in the remaining
    /// free space.
    pub fn fits(&self, degree: usize) -> bool {
        PageRecord::encoded_size(degree) <= self.free_bytes()
    }

    /// Appends the record of `node` with the given entries and returns the
    /// byte offset of its header in the page — the `offset` half of the
    /// node index's record pointer.
    ///
    /// Callers must check [`PageBuilder::fits`] first; records never straddle
    /// a page boundary.
    pub fn push_record(
        &mut self,
        node: NodeId,
        entries: &[PageEntry],
    ) -> Result<u16, StorageError> {
        let size = PageRecord::encoded_size(entries.len());
        if size > self.free_bytes() {
            return Err(StorageError::RecordTooLarge { node: node.0, size });
        }
        let offset = self.bytes.len() as u16; // < PAGE_SIZE, checked to fit below
        self.bytes.put_u32_le(node.0);
        self.bytes.put_u32_le(entries.len() as u32);
        for e in entries {
            self.bytes.put_u32_le(e.neighbor.0);
            self.bytes.put_u32_le(e.edge.0);
            self.bytes.put_f64_le(e.weight.value());
        }
        Ok(offset)
    }

    /// Finalizes the page.
    pub fn build(self) -> Page {
        Page { bytes: self.bytes.freeze() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u32, e: u32, w: f64) -> PageEntry {
        PageEntry { neighbor: NodeId(n), edge: EdgeId(e), weight: Weight::new(w) }
    }

    #[test]
    fn record_sizes() {
        assert_eq!(PageRecord::encoded_size(0), 8);
        assert_eq!(PageRecord::encoded_size(3), 8 + 48);
        assert_eq!(PageRecord::max_entries_per_page(), (4096 - 8) / 16);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut b = PageBuilder::new();
        assert!(b.is_empty());
        b.push_record(NodeId(1), &[entry(2, 0, 1.5), entry(3, 1, 2.5)]).unwrap();
        b.push_record(NodeId(2), &[entry(1, 0, 1.5)]).unwrap();
        assert!(!b.is_empty());
        let page = b.build();
        assert_eq!(page.used_bytes(), 8 + 32 + 8 + 16);

        let records = page.records(PageId(0)).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].node, NodeId(1));
        assert_eq!(records[0].entries.len(), 2);
        assert_eq!(records[0].entries[1], entry(3, 1, 2.5));
        assert_eq!(records[1].node, NodeId(2));
    }

    #[test]
    fn entries_of_extracts_only_requested_node() {
        let mut b = PageBuilder::new();
        b.push_record(NodeId(7), &[entry(8, 3, 1.0)]).unwrap();
        b.push_record(NodeId(9), &[entry(7, 4, 2.0), entry(10, 5, 3.0)]).unwrap();
        let page = b.build();

        let mut out = Vec::new();
        assert!(page.entries_of(PageId(0), NodeId(9), &mut out).unwrap());
        assert_eq!(out, vec![entry(7, 4, 2.0), entry(10, 5, 3.0)]);

        out.clear();
        assert!(!page.entries_of(PageId(0), NodeId(11), &mut out).unwrap());
        assert!(out.is_empty());
    }

    #[test]
    fn push_record_returns_the_offset_record_at_decodes() {
        let mut b = PageBuilder::new();
        let first = b.push_record(NodeId(7), &[entry(8, 3, 1.0)]).unwrap();
        let empty = b.push_record(NodeId(4), &[]).unwrap();
        // Parallel entries (same neighbor, two edges) and a zero weight are
        // just bytes to the page format.
        let multi = [entry(7, 4, 0.0), entry(7, 5, 3.0), entry(10, 6, 3.0)];
        let last = b.push_record(NodeId(9), &multi).unwrap();
        assert_eq!((first, empty, last), (0, 24, 32));
        let page = b.build();

        let r = page.record_at(PageId(0), NodeId(9), usize::from(last)).unwrap();
        assert_eq!((r.node, r.len(), r.is_empty()), (NodeId(9), 3, false));
        assert_eq!(r.entries().collect::<Vec<_>>(), multi);
        let r = page.record_at(PageId(0), NodeId(4), usize::from(empty)).unwrap();
        assert!(r.is_empty(), "an isolated node has a header and no entries");
        // The in-place view and the scan-based reference agree.
        for (node, offset) in [(7, first), (4, empty), (9, last)] {
            let mut scanned = Vec::new();
            assert!(page.entries_of(PageId(0), NodeId(node), &mut scanned).unwrap());
            let view = page.record_at(PageId(0), NodeId(node), usize::from(offset)).unwrap();
            assert_eq!(view.entries().collect::<Vec<_>>(), scanned);
        }
    }

    /// What `record_at` must refuse, each with the page, node and offset in
    /// the error.
    #[test]
    fn record_at_rejects_every_malformed_shape() {
        let mut b = PageBuilder::new();
        b.push_record(NodeId(1), &[entry(2, 0, 1.5), entry(3, 1, 2.5)]).unwrap();
        let second = usize::from(b.push_record(NodeId(2), &[entry(1, 0, 1.5)]).unwrap());
        let page = b.build();
        let message_of = |result: Result<RecordView<'_>, StorageError>| match result {
            Err(StorageError::CorruptPage { page: PageId(5), message }) => message,
            other => panic!("expected CorruptPage on pg5, got {other:?}"),
        };

        // Offset past the page end, and a header cut off by it.
        for offset in [page.used_bytes(), page.used_bytes() - 4, PAGE_SIZE + 1, usize::MAX] {
            let m = message_of(page.record_at(PageId(5), NodeId(2), offset));
            assert!(m.contains("node n2") && m.contains(&format!("offset {offset}")), "{m}");
        }
        // A well-formed header of another node: the index disagrees with
        // the page file.
        let m = message_of(page.record_at(PageId(5), NodeId(1), second));
        assert!(m.contains("node n1") && m.contains("node n2"), "{m}");
        assert!(m.contains(&format!("offset {second}")), "{m}");
        // An offset into the middle of a record reads entry bytes as a
        // header: whatever they spell, it is not node 1's header.
        assert!(page.record_at(PageId(5), NodeId(1), 8).is_err());

        // `count` overflowing the page: more entries than bytes remain, and
        // a count whose byte length wraps.
        for count in [2u32, 300, u32::MAX] {
            let mut raw = BytesMut::new();
            raw.put_u32_le(9);
            raw.put_u32_le(count);
            raw.put_u32_le(1);
            raw.put_u32_le(1);
            raw.put_f64_le(1.0); // one whole entry present
            let page = Page::from_bytes(raw.freeze()).unwrap();
            let m = message_of(page.record_at(PageId(5), NodeId(9), 0));
            assert!(m.contains("node n9") && m.contains(&format!("{count} entries")), "{m}");
        }
        // Truncated body: the last entry is cut short.
        let mut raw = BytesMut::new();
        raw.put_u32_le(9);
        raw.put_u32_le(1);
        raw.put_u32_le(1);
        raw.put_u32_le(1); // weight missing
        let page = Page::from_bytes(raw.freeze()).unwrap();
        let m = message_of(page.record_at(PageId(5), NodeId(9), 0));
        assert!(m.contains("only 8 bytes remain"), "{m}");
    }

    #[test]
    fn fits_and_overflow_are_detected() {
        let mut b = PageBuilder::new();
        let max = PageRecord::max_entries_per_page();
        assert!(b.fits(max));
        assert!(!b.fits(max + 1));
        let big: Vec<PageEntry> = (0..max as u32).map(|i| entry(i, i, 1.0)).collect();
        b.push_record(NodeId(0), &big).unwrap();
        assert!(!b.fits(1));
        let err = b.push_record(NodeId(1), &[entry(0, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn corrupt_pages_are_rejected() {
        // record header declaring more entries than available bytes
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u32_le(10); // 10 entries claimed, none present
        let page = Page::from_bytes(raw.freeze()).unwrap();
        assert!(matches!(
            page.records(PageId(3)),
            Err(StorageError::CorruptPage { page: PageId(3), .. })
        ));
        let mut out = Vec::new();
        assert!(page.entries_of(PageId(3), NodeId(1), &mut out).is_err());

        // trailing garbage
        let mut raw = BytesMut::new();
        raw.put_u32_le(1);
        raw.put_u32_le(0);
        raw.put_u32_le(99); // 4 stray bytes
        let page = Page::from_bytes(raw.freeze()).unwrap();
        assert!(page.records(PageId(0)).is_err());

        // oversized content
        let raw = BytesMut::zeroed(PAGE_SIZE + 1);
        assert!(Page::from_bytes(raw.freeze()).is_err());
    }

    #[test]
    fn page_debug_and_accessors() {
        let page = PageBuilder::new().build();
        assert_eq!(page.used_bytes(), 0);
        assert!(format!("{page:?}").contains("0 bytes"));
        assert_eq!(page.as_bytes().len(), 0);
        assert_eq!(PageId::new(5).index(), 5);
        assert_eq!(format!("{:?}", PageId::new(5)), "pg5");
    }
}
