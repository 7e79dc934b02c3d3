//! The repository's one repeatable benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark repeat [N]      # N full sets; checks they agree within the bounds
//! ```
//!
//! One invocation runs one workload in a fresh process: it generates the
//! inputs from the seed, sets the program under test up, runs a fixed
//! operation list five times over, checks every answer, prints each metric
//! by name with its unit, and ends with one JSON line. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how they are expected to
//! interact.

mod inputs;
mod kernel;
mod labels_churn;
mod measure;
mod repeat;
mod report;
mod serve_open;
mod span;
mod stats;
mod sys;
mod tracefile;

use kernel::Backend;
use report::{Manifest, Report};
use std::process::ExitCode;

/// Pinned result digests: `workload seed seconds digest` per line.
const DIGESTS: &str = include_str!("../digests.txt");

fn pinned_digest(workload: &str, seed: u64, seconds: usize) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_ascii_whitespace();
        let matches = fields.next()? == workload
            && fields.next()?.parse::<u64>().ok()? == seed
            && fields.next()?.parse::<usize>().ok()? == seconds;
        let digest = fields.next()?.strip_prefix("0x")?;
        matches.then(|| u64::from_str_radix(digest, 16).ok()).flatten()
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    traced: bool,
}

fn parse_args(args: &[String], manifest: &Manifest) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 42, seconds: manifest.run_seconds, traced: false };
    let mut pairs = args.chunks_exact(2);
    for pair in &mut pairs {
        let (flag, value) = (pair[0].as_str(), pair[1].as_str());
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag {
            "--workload" if manifest.workloads.iter().any(|w| w == value) => {
                parsed.workload = value.to_owned();
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60) as usize,
            "--trace" => parsed.traced = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !pairs.remainder().is_empty() {
        return Err(format!("flag without a value: {}", pairs.remainder()[0]));
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(parsed)
}

fn run(args: Args) -> Report {
    let Args { workload, seed, seconds, traced } = args;
    let mut outcome = match (workload.as_str(), traced) {
        ("mem-kernel", false) => kernel::run(Backend::Memory, seed, seconds),
        ("mem-kernel", true) => kernel::run_traced(Backend::Memory, seed, seconds),
        ("paged-cold", false) => kernel::run(Backend::PagedCold, seed, seconds),
        ("paged-cold", true) => kernel::run_traced(Backend::PagedCold, seed, seconds),
        ("serve-open", false) => serve_open::run(seed, seconds),
        ("serve-open", true) => serve_open::run_traced(seed, seconds),
        ("labels-churn", false) => labels_churn::run(seed, seconds),
        ("labels-churn", true) => labels_churn::run_traced(seed, seconds),
        _ => unreachable!("BENCHMARK.json names a workload the benchmark does not have"),
    };
    // The process is about to exit: its high-water mark includes whatever
    // the measured rounds grew (scratch buffers, result cache, label copies).
    outcome.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
    // Only the untraced rounds over the full list are pinned; the traced run
    // cross-checks only.
    let pinned = if traced { None } else { pinned_digest(&workload, seed, seconds) };
    Report { workload, seed, seconds, traced, pinned, outcome }
}

fn main() -> ExitCode {
    sys::process_start();
    let manifest = Manifest::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "repeat") {
        let sets = args.get(1).and_then(|n| n.parse().ok()).unwrap_or(3);
        return repeat::run(&manifest, sets);
    }
    match parse_args(&args, &manifest) {
        Ok(args) => {
            let report = run(args);
            report.print_table(&manifest, &sys::Stamp::collect());
            println!("{}", report.json_line(&manifest));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                manifest.workloads.join("|")
            );
            ExitCode::from(2)
        }
    }
}
