//! `benchmark repeat [N]`: runs the full set of workloads N times (each run a
//! fresh process of this same executable) and checks that the sets agree
//! with each other within each end-to-end metric's own bound.

use crate::report::Manifest;
use rnn_obs::JsonValue;
use std::process::{Command, ExitCode};

/// Runs one workload untraced in a child process and returns its end-to-end
/// metric values in `END_TO_END` order, or `None` if it failed its checks.
fn run_once(manifest: &Manifest, workload: &str) -> Option<Vec<f64>> {
    let exe = std::env::current_exe().expect("path of this executable");
    let seconds = manifest.run_seconds.to_string();
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", "42", "--seconds", &seconds, "--trace", "0"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = JsonValue::parse(stdout.lines().last()?).ok()?;
    if !output.status.success() || result.get("failed")?.as_f64()? != 0.0 {
        return None;
    }
    let metrics = result.get("metrics")?;
    manifest.end_to_end.iter().map(|def| metrics.get(&def.name)?.get("value")?.as_f64()).collect()
}

pub fn run(manifest: &Manifest, sets: usize) -> ExitCode {
    let mut ok = true;
    println!(
        "| workload | metric | {} | max rel. diff | bound | |",
        vec!["value"; sets].join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(sets));
    for workload in &manifest.workloads {
        let runs: Vec<Option<Vec<f64>>> = (0..sets).map(|_| run_once(manifest, workload)).collect();
        let Some(runs) = runs.into_iter().collect::<Option<Vec<Vec<f64>>>>() else {
            println!("| {workload} | a run failed its answer checks | | | | FAIL |");
            ok = false;
            continue;
        };
        for (m, def) in manifest.end_to_end.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|run| run[m]).collect();
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let diff = (max - min) / min;
            let within = diff <= def.bound;
            ok &= within;
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "| {} | {} ({}) | {} | {:.2} % | {:.0} % | {} |",
                workload,
                def.name,
                def.unit,
                cells.join(" | "),
                diff * 100.0,
                def.bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
