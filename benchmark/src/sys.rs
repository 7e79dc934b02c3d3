//! Process-level measurements (start instant, CPU time and peak RSS from
//! procfs) and the provenance stamp printed with every result.

use std::process::Command;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant `main` began: the zero of `setup_s` and of the span clock.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// User + system CPU time of this process (all threads) in seconds: fields
/// 14 and 15 of `/proc/self/stat`, in clock ticks. Linux reports them at 100
/// ticks per second on every architecture, and a measured round lasts
/// seconds, so a tick is ~0.2 % of what is read.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The second field is the command in parentheses and may hold spaces;
    // the numbered fields resume after the last `)` with field 3.
    let rest = &stat[stat.rfind(')').expect("command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 { fields.next().expect("utime, stime").parse().expect("ticks") };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size in MB: the `VmHWM` line of `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: f64 =
        line.split_ascii_whitespace().nth(1).expect("VmHWM value").parse().expect("VmHWM in kB");
    kb / 1024.0
}

/// Where a result came from: enough to refuse comparing a 1-CPU row with an
/// 8-CPU one.
pub struct Stamp {
    pub nproc: usize,
    pub git_rev: String,
    pub rustc: String,
}

impl Stamp {
    pub fn collect() -> Self {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"])),
            rustc: first_line(Command::new("rustc").arg("--version")),
        }
    }
}

/// First stdout line of a short helper command, or `unknown` (the driver's
/// checkout is not a git repository). `output()` waits for the child.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}
