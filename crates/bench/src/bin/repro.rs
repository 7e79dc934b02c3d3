//! Reproduction harness: prints a count-only report for every table and
//! figure of the paper's evaluation section.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT ...] [--full] [--json DIR]
//!
//! EXPERIMENT   one or more of: table1 table2 fig15 fig16 fig17 fig18 fig19
//!              fig20a fig20b fig21 fig22a fig22b paging index bichromatic
//!              obs-overhead all (default: all)
//! --full       use the paper's graph cardinalities instead of the quick,
//!              laptop-friendly sizes
//! --json DIR   additionally write each report as DIR/BENCH_<experiment>.json
//!              (machine-readable `rnn-bench-report/v1`)
//! ```
//!
//! Every report column is a count, so `--json .` at the repository root must
//! reproduce the committed `BENCH_*.json` byte for byte; CI runs exactly that
//! and then `git diff --exit-code -- 'BENCH_*.json'`. The one drill,
//! `obs-overhead`, asserts a timing relation and writes nothing.

use rnn_bench::experiments::{experiment, Experiment, EXPERIMENTS};
use rnn_bench::Scale;
use std::path::PathBuf;

/// Prints `problem` and the usage line, then exits with status 2.
fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("{problem}");
    eprintln!("usage: repro [EXPERIMENT ...] [--full] [--json DIR]");
    eprintln!("experiments: {} all", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Quick;
    let mut json_dir: Option<PathBuf> = None;
    let mut requested: Vec<(&str, Experiment)> = Vec::new();
    let mut all = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--json" => match args.next() {
                Some(dir) if !dir.starts_with("--") => json_dir = Some(PathBuf::from(dir)),
                _ => usage("--json requires a directory argument"),
            },
            "all" => all = true,
            flag if flag.starts_with('-') => usage(&format!("unknown option '{flag}'")),
            name => match experiment(name) {
                Some(entry) => requested.push(entry),
                None => usage(&format!("unknown experiment '{name}'")),
            },
        }
    }
    if all || requested.is_empty() {
        requested = EXPERIMENTS.to_vec();
    }

    let names: Vec<&str> = requested.iter().map(|(name, _)| *name).collect();
    eprintln!("# reproduction run: scale = {scale:?}, experiments = {}", names.join(", "));

    let mut failures = 0;
    for (name, experiment) in &requested {
        match experiment {
            Experiment::Report(run) => {
                let report = run(scale);
                println!("{report}");
                if let Some(dir) = &json_dir {
                    let path = dir.join(format!("BENCH_{name}.json"));
                    match std::fs::write(&path, report.to_json()) {
                        Ok(()) => eprintln!("# wrote {}", path.display()),
                        Err(e) => {
                            eprintln!("failed to write {}: {e}", path.display());
                            failures += 1;
                        }
                    }
                }
            }
            Experiment::Drill(run) => {
                run(scale);
                println!("# {name}: every assertion held\n");
            }
        }
    }
    if failures > 0 {
        std::process::exit(2);
    }
}
