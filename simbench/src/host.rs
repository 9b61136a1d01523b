//! Host measurements (CPU time, memory) and the run record stored with
//! every result. Linux only: everything is read from `/proc`.

use atr_json::Json;
use std::process::Command;

/// Worker threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat`. Linux reports it in USER_HZ ticks, which is 100
/// per second on every architecture it supports.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the man page, utime 14, stime 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (tick(14) + tick(15)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where, on what, and with which inputs a result was measured, so that
/// results from different machines or budgets are never compared.
pub fn run_record(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    loadavg: &str,
    points: usize,
    instructions: u64,
) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                Some(l.strip_prefix("model name")?.split_once(':')?.1.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let revision = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = revision
        .as_ref()
        .and_then(|_| command_line("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| Json::Bool(!s.is_empty()));
    let text = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str("simbench-run-v1".to_owned())),
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("seed".to_owned(), Json::Int(seed as i64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("trace".to_owned(), Json::Bool(trace)),
        ("git_revision".to_owned(), text(revision)),
        ("git_dirty".to_owned(), dirty.unwrap_or(Json::Null)),
        ("nproc".to_owned(), Json::Int(nproc() as i64)),
        ("cpu_model".to_owned(), Json::Str(cpu_model)),
        ("rustc".to_owned(), text(command_line("rustc", &["--version"]))),
        ("loadavg_start".to_owned(), Json::Str(loadavg.to_owned())),
        ("points".to_owned(), Json::Int(points as i64)),
        ("instructions_per_rep".to_owned(), Json::Int(instructions as i64)),
    ])
}

/// The 1/5/15-minute load averages.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}
