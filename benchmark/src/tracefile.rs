//! Writes `benchmark/out/trace-<workload>.json` at the end of a traced run.
//!
//! The file holds the kept spans (full trees of a bounded sample of
//! operations) and one row per traced operation with its duration split
//! into per-layer self times — the rows of one operation sum to its
//! duration, which is what "self time" means. Spans are arrays, not objects,
//! to keep a 100 000-span file at a few megabytes; `span_columns` names the
//! positions.

use crate::measure::out_dir;
use crate::span::{Name, ThreadTrace, NONE};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Rows written at most; the header says how many operations were traced.
const MAX_ROWS: usize = 20_000;

/// One traced operation: its duration and the self time of each layer.
pub struct OpRow {
    pub op: u32,
    pub kind: &'static str,
    pub dur_ns: u64,
    pub layers: Vec<(&'static str, u64)>,
}

/// When a server worker was busy with which request. Worker threads cannot
/// know the request they serve (the benchmark sees them only through the
/// `Topology` they call), so their spans are attached to requests afterwards
/// by worker and time.
pub struct ServiceInterval {
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u32,
}

pub struct TraceFile {
    pub workload: &'static str,
    pub seed: u64,
    pub threads: Vec<ThreadTrace>,
    pub rows: Vec<OpRow>,
    pub service: Vec<ServiceInterval>,
}

struct Row {
    name: Name,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
    parent: i64,
    op: i64,
}

impl TraceFile {
    /// Flattens the per-thread span lists into one table with global ids,
    /// attaching worker-thread roots to the service span that covers them.
    fn span_table(&self) -> Vec<Row> {
        let mut offsets = Vec::with_capacity(self.threads.len());
        let mut total = 0usize;
        for thread in &self.threads {
            offsets.push(total);
            total += thread.spans.len();
        }
        let mut table = Vec::with_capacity(total);
        for (t, thread) in self.threads.iter().enumerate() {
            for span in &thread.spans {
                let global = |local: u32| {
                    if local == NONE {
                        -1
                    } else {
                        (offsets[t] + local as usize) as i64
                    }
                };
                table.push(Row {
                    name: span.name,
                    thread: t,
                    start_ns: span.start_ns,
                    end_ns: span.end_ns,
                    parent: global(span.parent),
                    op: if span.op == NONE { -1 } else { span.op as i64 },
                });
            }
        }

        let service_span: HashMap<i64, i64> = table
            .iter()
            .enumerate()
            .filter(|(_, row)| row.name == Name::Service)
            .map(|(id, row)| (row.op, id as i64))
            .collect();
        let mut by_worker: HashMap<usize, Vec<&ServiceInterval>> = HashMap::new();
        for interval in &self.service {
            by_worker.entry(interval.worker).or_default().push(interval);
        }
        for intervals in by_worker.values_mut() {
            intervals.sort_by_key(|i| i.start_ns);
        }
        for id in 0..table.len() {
            if table[id].op >= 0 {
                continue;
            }
            if table[id].parent >= 0 {
                // Parents precede their children, so the parent is resolved.
                table[id].op = table[table[id].parent as usize].op;
                continue;
            }
            let worker = self.threads[table[id].thread]
                .thread
                .strip_prefix("rnn-server-worker-")
                .and_then(|w| w.parse::<usize>().ok());
            let Some(intervals) = worker.and_then(|w| by_worker.get(&w)) else { continue };
            let at = table[id].start_ns;
            let next = intervals.partition_point(|i| i.start_ns <= at);
            if let Some(interval) = next.checked_sub(1).map(|i| intervals[i]) {
                if at <= interval.end_ns {
                    table[id].op = interval.op as i64;
                    table[id].parent =
                        service_span.get(&(interval.op as i64)).copied().unwrap_or(-1);
                }
            }
        }
        table
    }

    /// Writes the file; returns its path and the number of spans in it.
    pub fn write(&self) -> (PathBuf, usize) {
        let table = self.span_table();
        let mut out = String::with_capacity(64 * table.len() + 160 * self.rows.len().min(MAX_ROWS));
        let names: Vec<String> = Name::ALL.iter().map(|n| format!("\"{}\"", n.as_str())).collect();
        let threads: Vec<String> =
            self.threads.iter().map(|t| format!("\"{}\"", t.thread)).collect();
        writeln!(out, "{{\"workload\": \"{}\", \"seed\": {},", self.workload, self.seed).unwrap();
        writeln!(out, "\"names\": [{}],", names.join(", ")).unwrap();
        writeln!(out, "\"threads\": [{}],", threads.join(", ")).unwrap();
        out.push_str(
            "\"span_columns\": [\"id\", \"name\", \"thread\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"spans\": [\n",
        );
        for (id, row) in table.iter().enumerate() {
            let comma = if id + 1 < table.len() { "," } else { "" };
            writeln!(
                out,
                "[{id},{},{},{},{},{},{}]{comma}",
                row.name as u8, row.thread, row.start_ns, row.end_ns, row.parent, row.op
            )
            .unwrap();
        }
        writeln!(out, "],\n\"ops_traced\": {},\n\"ops\": [", self.rows.len()).unwrap();
        let rows = &self.rows[..self.rows.len().min(MAX_ROWS)];
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let layers: Vec<String> =
                row.layers.iter().map(|(layer, ns)| format!("\"{layer}\": {ns}")).collect();
            writeln!(
                out,
                "{{\"op\": {}, \"kind\": \"{}\", \"dur_ns\": {}, \"self_ns\": {{{}}}}}{comma}",
                row.op,
                row.kind,
                row.dur_ns,
                layers.join(", ")
            )
            .unwrap();
        }
        out.push_str("]}\n");
        let path = out_dir().join(format!("trace-{}.json", self.workload));
        std::fs::write(&path, out).expect("write the span file");
        (path, table.len())
    }
}
