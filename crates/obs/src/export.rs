//! Snapshot exporters: Prometheus-style text and `rnn-bench-report/v1`
//! JSON, rendered from the same [`MetricsSnapshot`], plus the one
//! `rnn-bench-report/v1` writer ([`bench_report_json`]) the bench crate's
//! `BENCH_*.json` files come from too.
//!
//! Both renderings are **byte-deterministic** for a given snapshot: the
//! snapshot's names are sorted, the formats contain no timestamps, and
//! floating-point values are formatted with Rust's shortest-round-trip
//! formatter. Rendering the same snapshot twice yields identical bytes —
//! the `observability` example asserts exactly that.
//!
//! Metric names may carry Prometheus-style labels inline
//! (`name{key="value"}`); the text exporter splits them so histogram
//! suffixes (`_bucket`, `_sum`, ...) land on the base name and the `le`
//! label composes with the existing ones.

use crate::histogram::LatencyHistogram;
use crate::recorder::{Event, EventKind};
use crate::registry::MetricsSnapshot;
use crate::trace::{Phase, QueryTrace};

/// Splits `name{labels}` into `(name, Some("labels"))`, or `(name, None)`
/// when the name carries no label set.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match (name.find('{'), name.ends_with('}')) {
        (Some(i), true) => (&name[..i], Some(&name[i + 1..name.len() - 1])),
        _ => (name, None),
    }
}

/// `base<suffix>{labels + extra}` — the Prometheus sample-line name.
fn sample_name(base: &str, suffix: &str, labels: Option<&str>, extra: Option<&str>) -> String {
    let mut out = String::with_capacity(base.len() + suffix.len() + 16);
    out.push_str(base);
    out.push_str(suffix);
    match (labels, extra) {
        (None, None) => {}
        (Some(l), None) => {
            out.push('{');
            out.push_str(l);
            out.push('}');
        }
        (None, Some(e)) => {
            out.push('{');
            out.push_str(e);
            out.push('}');
        }
        (Some(l), Some(e)) => {
            out.push('{');
            out.push_str(l);
            out.push(',');
            out.push_str(e);
            out.push('}');
        }
    }
    out
}

fn push_type_line(out: &mut String, seen: &mut Vec<String>, base: &str, kind: &str) {
    if seen.last().map(String::as_str) != Some(base) {
        out.push_str("# TYPE ");
        out.push_str(base);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        seen.push(base.to_string());
    }
}

fn push_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    let (base, labels) = split_labels(name);
    // Cumulative buckets, truncated after the last occupied one (the +Inf
    // line carries the total either way) to keep 64-bucket histograms from
    // dominating the exposition.
    let last_occupied =
        h.buckets().enumerate().filter(|&(_, (_, n))| n > 0).map(|(i, _)| i).last().unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, (upper, count)) in h.buckets().enumerate() {
        if i > last_occupied {
            break;
        }
        cumulative += count;
        let le = format!("le=\"{upper}\"");
        out.push_str(&sample_name(base, "_bucket", labels, Some(&le)));
        out.push_str(&format!(" {cumulative}\n"));
    }
    out.push_str(&sample_name(base, "_bucket", labels, Some("le=\"+Inf\"")));
    out.push_str(&format!(" {}\n", h.count()));
    let (_, _, sum, _, _) = h.raw();
    out.push_str(&sample_name(base, "_sum", labels, None));
    out.push_str(&format!(" {sum}\n"));
    out.push_str(&sample_name(base, "_count", labels, None));
    out.push_str(&format!(" {}\n", h.count()));
    // Exact extremes — an extension over stock Prometheus histograms, which
    // lose both to bucket resolution.
    out.push_str(&sample_name(base, "_min", labels, None));
    out.push_str(&format!(" {}\n", h.min().as_nanos()));
    out.push_str(&sample_name(base, "_max", labels, None));
    out.push_str(&format!(" {}\n", h.max().as_nanos()));
}

/// Renders the snapshot in the Prometheus text exposition style: a `# TYPE`
/// line per metric family, one sample line per value, histograms as
/// cumulative `_bucket{le=...}` series (walked in place — no bucket copies)
/// plus `_sum`/`_count`/`_min`/`_max`.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for (name, value) in &snapshot.counters {
        let (base, labels) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "counter");
        out.push_str(&sample_name(base, "", labels, None));
        out.push_str(&format!(" {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let (base, labels) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "gauge");
        out.push_str(&sample_name(base, "", labels, None));
        out.push_str(&format!(" {value}\n"));
    }
    for (name, h) in &snapshot.histograms {
        let (base, _) = split_labels(name);
        push_type_line(&mut out, &mut seen, base, "histogram");
        push_histogram(&mut out, name, h);
    }
    out
}

/// Escapes a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number; NaN and infinities become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders one `rnn-bench-report/v1` document: a flat object with a `schema`
/// tag (so downstream tooling can evolve the format without guessing), the
/// report's id, title and x-axis name, its column names and one labelled row
/// of values per x-axis value. Non-finite values serialize as `null` (JSON
/// has no NaN/Inf).
pub fn bench_report_json(
    id: &str,
    title: &str,
    x_label: &str,
    columns: &[impl AsRef<str>],
    rows: &[(String, Vec<f64>)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rnn-bench-report/v1\",\n");
    out.push_str(&format!("  \"id\": {},\n", json_string(id)));
    out.push_str(&format!("  \"title\": {},\n", json_string(title)));
    out.push_str(&format!("  \"x_label\": {},\n", json_string(x_label)));
    out.push_str("  \"columns\": [");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(c.as_ref()));
    }
    out.push_str("],\n");
    out.push_str("  \"rows\": [\n");
    for (r, (label, values)) in rows.iter().enumerate() {
        out.push_str(&format!("    {{\"label\": {}, \"values\": [", json_string(label)));
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_number(*v));
        }
        out.push_str(if r + 1 < rows.len() { "]},\n" } else { "]}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the snapshot as `rnn-bench-report/v1` JSON — the exact grammar
/// `repro --json` emits for experiments, so one toolchain consumes both the
/// committed `BENCH_*.json` and scraped metrics. Counters and gauges become
/// one row each; a histogram becomes one row with the summary columns
/// filled (count, sum, mean, p50, p90, p99, p99.9, min, max — all in
/// nanoseconds) and plain values leave them `null`.
pub fn report_json(snapshot: &MetricsSnapshot) -> String {
    let columns = ["value", "count", "sum", "mean", "p50", "p90", "p99", "p999", "min", "max"];
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let pad = |v: f64| {
        let mut row = vec![f64::NAN; columns.len()];
        row[0] = v;
        row
    };
    for (name, value) in &snapshot.counters {
        rows.push((name.clone(), pad(*value as f64)));
    }
    for (name, value) in &snapshot.gauges {
        rows.push((name.clone(), pad(*value as f64)));
    }
    for (name, h) in &snapshot.histograms {
        let (_, _, sum, _, _) = h.raw();
        rows.push((
            name.clone(),
            vec![
                f64::NAN,
                h.count() as f64,
                sum as f64,
                h.mean().as_nanos() as f64,
                h.p50().as_nanos() as f64,
                h.p90().as_nanos() as f64,
                h.p99().as_nanos() as f64,
                h.p999().as_nanos() as f64,
                h.min().as_nanos() as f64,
                h.max().as_nanos() as f64,
            ],
        ));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    bench_report_json(
        "metrics-snapshot",
        "unified metrics registry snapshot",
        "metric",
        &columns,
        &rows,
    )
}

/// Microseconds with millisecond-of-a-microsecond precision: the Chrome
/// trace format's `ts`/`dur` unit, rendered deterministically from integer
/// nanoseconds (no float formatting).
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn push_span(
    out: &mut String,
    name: &str,
    cat: &str,
    ts_nanos: u64,
    dur_nanos: u64,
    tid: u32,
    args: &[(&str, u64)],
) {
    out.push_str(&format!(
        "    {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
         \"pid\": 1, \"tid\": {}",
        json_string(name),
        json_string(cat),
        micros(ts_nanos),
        micros(dur_nanos),
        tid
    ));
    push_args(out, args);
}

fn push_args(out: &mut String, args: &[(&str, u64)]) {
    if !args.is_empty() {
        out.push_str(", \"args\": {");
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {v}", json_string(k)));
        }
        out.push('}');
    }
    out.push_str("},\n");
}

/// Renders per-query traces and drained flight-recorder events as a Chrome
/// trace (the `{"traceEvents": [...]}` JSON form), loadable in
/// `chrome://tracing` and Perfetto.
///
/// Layout: `pid` 1 is the server; each worker is one `tid` track carrying,
/// per query, a queue-wait span (submit → dequeue), a service span
/// (dequeue → completion) and the per-phase spans laid back to back inside
/// it (phases are accumulated, not timestamped — the trace stores only
/// per-phase totals, so spans show proportion, in recorded phase order).
/// Flight-recorder events render as instant events on `tid` 0, named by
/// [`EventKind::name`](crate::recorder::EventKind::name) with their payload
/// and `seq` in `args`. Traces without a stamped
/// [`start_nanos`](crate::QueryTrace::start_nanos) are placed at their queue
/// wait's length, so standalone traces still render.
///
/// Byte-deterministic for given inputs: timestamps come from the inputs, in
/// input order, and numbers are formatted from integers.
pub fn chrome_trace(traces: &[QueryTrace], events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for trace in traces {
        let tid = trace.worker + 1; // tid 0 is the event track
        let start = if trace.start_nanos > 0 { trace.start_nanos } else { trace.queue_wait_nanos };
        let ids: &[(&str, u64)] = &[("query", trace.query), ("k", u64::from(trace.k))];
        if trace.queue_wait_nanos > 0 {
            push_span(
                &mut out,
                &format!("queue:{}", trace.algorithm),
                "queue",
                start.saturating_sub(trace.queue_wait_nanos),
                trace.queue_wait_nanos,
                tid,
                ids,
            );
        }
        push_span(
            &mut out,
            &format!("serve:{}", trace.algorithm),
            "service",
            start,
            trace.service_nanos,
            tid,
            ids,
        );
        let mut cursor = start;
        for (phase, rec) in Phase::ALL.iter().zip(&trace.phases) {
            if rec.calls == 0 && rec.work == 0 {
                continue;
            }
            push_span(
                &mut out,
                phase.name(),
                "phase",
                cursor,
                rec.nanos,
                tid,
                &[("calls", rec.calls), ("work", rec.work)],
            );
            cursor += rec.nanos;
        }
    }
    for event in events {
        out.push_str(&format!(
            "    {{\"name\": {}, \"cat\": \"event\", \"ph\": \"i\", \"ts\": {}, \
             \"pid\": 1, \"tid\": 0, \"s\": \"g\"",
            json_string(event.kind.name()),
            micros(event.nanos),
        ));
        let mut args: Vec<(&str, u64)> = vec![("seq", event.seq)];
        match event.kind {
            EventKind::AdmissionShed { class, count } => {
                args.push(("class", class));
                args.push(("count", count));
            }
            EventKind::PointsSwap { points, delta } => {
                args.push(("points", points));
                args.push(("delta", u64::from(delta)));
            }
            EventKind::PoolResize { pages } => args.push(("pages", pages)),
            EventKind::PoolClear => {}
            EventKind::WorkerStart { worker } => args.push(("worker", worker)),
            EventKind::WorkerStop { worker, served } => {
                args.push(("worker", worker));
                args.push(("served", served));
            }
            EventKind::SlowQuery { query, service_nanos, algorithm } => {
                args.push(("query", query));
                args.push(("service_nanos", service_nanos));
                args.push(("algorithm", algorithm));
            }
        }
        push_args(&mut out, &args);
    }
    // Strip the trailing comma of the last record (the writer emits one per
    // line); an empty trace stays a bare array.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use std::time::Duration;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("rnn_server_submitted_total").add(12);
        reg.counter("rnn_server_completed_total{class=\"interactive\"}").add(9);
        reg.gauge("rnn_server_queue_depth").set(3);
        let h = reg.histogram("rnn_service_nanos");
        h.record(Duration::from_nanos(700));
        h.record(Duration::from_nanos(900));
        h.record(Duration::from_micros(3));
        reg
    }

    #[test]
    fn label_splitting() {
        assert_eq!(split_labels("plain"), ("plain", None));
        assert_eq!(split_labels("a{b=\"c\"}"), ("a", Some("b=\"c\"")));
        assert_eq!(
            sample_name("n", "_bucket", Some("a=\"b\""), Some("le=\"7\"")),
            "n_bucket{a=\"b\",le=\"7\"}"
        );
        assert_eq!(sample_name("n", "", None, None), "n");
    }

    #[test]
    fn prometheus_text_is_deterministic_and_complete() {
        let reg = sample_registry();
        let snap = reg.snapshot();
        let a = prometheus_text(&snap);
        let b = prometheus_text(&snap);
        assert_eq!(a, b, "same snapshot, same bytes");
        assert!(a.contains("# TYPE rnn_server_submitted_total counter"));
        assert!(a.contains("rnn_server_submitted_total 12"));
        assert!(a.contains("rnn_server_completed_total{class=\"interactive\"} 9"));
        assert!(a.contains("# TYPE rnn_server_queue_depth gauge"));
        assert!(a.contains("rnn_server_queue_depth 3"));
        assert!(a.contains("# TYPE rnn_service_nanos histogram"));
        // Cumulative buckets: two samples land in [512,1023], one in
        // [2048,4095]; the le lines are cumulative.
        assert!(a.contains("rnn_service_nanos_bucket{le=\"1023\"} 2"));
        assert!(a.contains("rnn_service_nanos_bucket{le=\"4095\"} 3"));
        assert!(a.contains("rnn_service_nanos_bucket{le=\"+Inf\"} 3"));
        assert!(a.contains("rnn_service_nanos_count 3"));
        assert!(a.contains("rnn_service_nanos_min 700"));
        assert!(a.contains("rnn_service_nanos_max 3000"));
        // Empty buckets past the last occupied one are not emitted.
        assert!(!a.contains("le=\"8191\""));
    }

    #[test]
    fn sorted_names_means_sorted_lines() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").add(1);
        reg.counter("a_total").add(2);
        let text = prometheus_text(&reg.snapshot());
        let za = text.find("z_total").unwrap();
        let aa = text.find("a_total").unwrap();
        assert!(aa < za);
    }

    #[test]
    fn report_json_matches_the_bench_schema() {
        let reg = sample_registry();
        let snap = reg.snapshot();
        let a = report_json(&snap);
        assert_eq!(a, report_json(&snap), "same snapshot, same bytes");
        assert!(a.contains("\"schema\": \"rnn-bench-report/v1\""));
        assert!(a.contains("\"x_label\": \"metric\""));
        assert!(a.contains("{\"label\": \"rnn_server_submitted_total\", \"values\": [12, null"));
        // Histogram rows fill the summary columns, value stays null.
        assert!(a.contains("{\"label\": \"rnn_service_nanos\", \"values\": [null, 3,"));
        // Balanced structure (cheap well-formedness check).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.ends_with("}\n"));

        assert_eq!(json_string("a\nb\u{1}"), "\"a\\nb\\u0001\"");
        assert_eq!(json_number(2.5), "2.5");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn empty_snapshot_renders_empty_but_valid() {
        let snap = MetricsRegistry::new().snapshot();
        assert_eq!(prometheus_text(&snap), "");
        let json = report_json(&snap);
        assert!(json.contains("\"rows\": [\n  ]"));
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants_that_parse_back() {
        use crate::json::JsonValue;
        use crate::trace::PhaseRecord;

        let mut trace = QueryTrace {
            algorithm: "eager",
            query: 42,
            k: 2,
            queue_wait_nanos: 1_500,
            service_nanos: 10_000,
            start_nanos: 50_000,
            worker: 3,
            ..Default::default()
        };
        trace.phases[Phase::Expansion.index()] = PhaseRecord { nanos: 6_000, calls: 1, work: 30 };
        trace.phases[Phase::RangeNn.index()] = PhaseRecord { nanos: 4_000, calls: 5, work: 12 };
        let events = vec![
            Event { seq: 0, nanos: 55_000, kind: EventKind::AdmissionShed { class: 0, count: 7 } },
            Event { seq: 1, nanos: 60_000, kind: EventKind::PointsSwap { points: 9, delta: true } },
        ];

        let text = chrome_trace(&[trace], &events);
        assert_eq!(text, chrome_trace(&[trace], &events), "byte-deterministic");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let records = doc.get("traceEvents").unwrap().as_array().unwrap();
        // queue span + service span + 2 phase spans + 2 instants.
        assert_eq!(records.len(), 6);
        let queue = &records[0];
        assert_eq!(queue.get("name").unwrap().as_str(), Some("queue:eager"));
        assert_eq!(queue.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(queue.get("ts").unwrap().as_f64(), Some(48.5), "50µs start - 1.5µs wait");
        assert_eq!(queue.get("dur").unwrap().as_f64(), Some(1.5));
        let serve = &records[1];
        assert_eq!(serve.get("name").unwrap().as_str(), Some("serve:eager"));
        assert_eq!(serve.get("ts").unwrap().as_f64(), Some(50.0));
        assert_eq!(serve.get("dur").unwrap().as_f64(), Some(10.0));
        assert_eq!(serve.get("tid").unwrap().as_f64(), Some(4.0), "worker 3 on tid 4");
        assert_eq!(serve.get("args").unwrap().get("query").unwrap().as_f64(), Some(42.0));
        // Phase spans lie back to back inside the service span.
        let (p0, p1) = (&records[2], &records[3]);
        assert_eq!(p0.get("name").unwrap().as_str(), Some("expansion"));
        assert_eq!(p0.get("ts").unwrap().as_f64(), Some(50.0));
        assert_eq!(p1.get("name").unwrap().as_str(), Some("range_nn"));
        assert_eq!(p1.get("ts").unwrap().as_f64(), Some(56.0));
        assert_eq!(p1.get("args").unwrap().get("calls").unwrap().as_f64(), Some(5.0));
        // Instants carry seq plus the payload on the event track.
        let shed = &records[4];
        assert_eq!(shed.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(shed.get("tid").unwrap().as_f64(), Some(0.0));
        assert_eq!(shed.get("args").unwrap().get("count").unwrap().as_f64(), Some(7.0));
        let swap = &records[5];
        assert_eq!(swap.get("name").unwrap().as_str(), Some("points_swap"));
        assert_eq!(swap.get("args").unwrap().get("seq").unwrap().as_f64(), Some(1.0));
        assert_eq!(swap.get("args").unwrap().get("points").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn empty_chrome_trace_is_still_valid_json() {
        let text = chrome_trace(&[], &[]);
        let doc = crate::json::JsonValue::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }
}
