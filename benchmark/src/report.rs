//! The benchmark's manifest (`BENCHMARK.json`, compiled in, the one place
//! workloads, metrics, units and bounds are listed) and the result a run
//! prints.

use crate::measure::Outcome;
use crate::sys::Stamp;
use rnn_obs::JsonValue;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// (0 for per-layer metrics, which carry no bound).
    pub bound: f64,
}

pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: usize,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Manifest {
        let json = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let list = |key: &str| json.get(key).and_then(JsonValue::as_array).expect("a list");
        let text = |item: &JsonValue, key: &str| {
            item.get(key).and_then(JsonValue::as_str).expect("a string").to_owned()
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Manifest {
            run_seconds: json.get("run_seconds").and_then(JsonValue::as_f64).expect("run_seconds")
                as usize,
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// What one run measured and checked.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub traced: bool,
    /// The digest `outcome.digest` is checked against, if this (seed,
    /// seconds) is pinned.
    pub pinned: Option<u64>,
    pub outcome: Outcome,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0 && self.pinned.is_none_or(|pinned| pinned == self.outcome.digest)
    }

    fn defs<'m>(&self, manifest: &'m Manifest) -> &'m [MetricDef] {
        if self.traced {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        }
    }

    /// Human-readable lines: provenance, then every metric by name with its
    /// unit.
    pub fn print_table(&self, manifest: &Manifest, stamp: &Stamp) {
        println!(
            "# workload={} seed={} seconds={} trace={} nproc={} git={} rustc=\"{}\"",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            stamp.nproc,
            stamp.git_rev,
            stamp.rustc
        );
        let Outcome { attempted, failed, digest, notes, .. } = &self.outcome;
        println!(
            "# attempted={} failed={} failed_fraction={} digest={:#018x} ({})",
            attempted,
            failed,
            *failed as f64 / (*attempted).max(1) as f64,
            digest,
            match self.pinned {
                Some(pinned) if pinned == *digest => "matches the pinned digest".to_owned(),
                Some(pinned) => format!("MISMATCH: pinned {pinned:#018x}"),
                None => "not pinned for this seed/seconds; cross-checks only".to_owned(),
            },
        );
        for note in notes {
            println!("# {note}");
        }
        for def in self.defs(manifest) {
            println!("{:<40} {:>16.6} {}", def.name, self.value(&def.name), def.unit);
        }
    }

    /// A layer that does no work on a workload reports 0 there — which is
    /// itself the prediction being checked.
    fn value(&self, name: &str) -> f64 {
        self.outcome.metrics.get(name).copied().unwrap_or_else(|| {
            assert!(self.traced, "end-to-end metric {name} was not measured");
            0.0
        })
    }

    /// The one-line JSON object the driver reads from the end of stdout.
    pub fn json_line(&self, manifest: &Manifest) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.outcome.attempted.max(1),
            self.outcome.failed
        );
        for (i, def) in self.defs(manifest).iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = self.value(&def.name);
            assert!(value.is_finite(), "{} is not finite", def.name);
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("write to string");
        }
        out.push_str("}}");
        out
    }
}
