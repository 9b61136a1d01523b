//! Host-cost benchmark of the ATR simulator.
//!
//! Runs one workload through the public `atr-sim` / `atr-pipeline` API,
//! checks every simulated result, and prints its metrics by name and
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end host costs; with `--trace 1` they are the
//! per-layer metrics of a separate, instrumented run. See README.md.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench --workload <name> --write-golden
//! ```

mod check;
mod host;
mod layers;
mod stats;
mod workloads;

use atr_json::Json;
use check::Checker;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Setup, Workload};

/// The seed whose results the committed golden file pins.
const DEFAULT_SEED: u64 = 0;

/// Fresh-process set-ups per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;

/// Output directory, relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug)]
enum Mode {
    Measure,
    /// Set the workload up, print the seconds it took, and exit: one
    /// `setup_s` sample.
    ProbeSetup,
    /// Print the workload's golden lines at the default seed.
    WriteGolden,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut mode = Mode::Measure;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(&name).ok_or(format!(
                        "unknown workload {name:?} (one of {})",
                        names.join(", ")
                    ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--probe-setup" => mode = Mode::ProbeSetup,
            "--write-golden" => mode = Mode::WriteGolden,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, mode })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Median set-up time of `n` fresh processes that only set the workload
/// up (point list and program generation), each timing itself from a
/// cold start. The operating system's fork and exec are left out: they
/// are not the program's work and vary with the host far more than it.
fn probe_setup(args: &Args, n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
            .arg("--probe-setup")
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning a set-up probe: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up probe exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        samples.push(
            text.trim().parse::<f64>().map_err(|e| format!("set-up probe said {text:?}: {e}"))?,
        );
    }
    Ok(stats::median(&samples))
}

fn result_line(checker: &Checker, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = Json::Obj(vec![
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ]);
            (m.name.clone(), body)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(checker.failed == 0)),
        ("attempted".to_owned(), Json::Int(checker.attempted as i64)),
        ("failed".to_owned(), Json::Int(checker.failed as i64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ])
    .compact()
}

/// Appends the run record and its metrics to `.bench_out/runs.jsonl`.
fn store(record: Json, checker: &Checker, metrics: &[Metric]) {
    let line = match record {
        Json::Obj(mut fields) => {
            fields.push(("attempted".to_owned(), Json::Int(checker.attempted as i64)));
            fields.push(("failed".to_owned(), Json::Int(checker.failed as i64)));
            let values = metrics.iter().map(|m| (m.name.clone(), Json::Num(m.value))).collect();
            fields.push(("metrics".to_owned(), Json::Obj(values)));
            Json::Obj(fields).compact()
        }
        other => other.compact(),
    };
    let appended = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{OUT_DIR}/runs.jsonl"))?;
        writeln!(f, "{line}")
    });
    if let Err(e) = appended {
        eprintln!("simbench: could not store the run record: {e}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode {
        Mode::ProbeSetup => {
            let t = Instant::now();
            std::hint::black_box(workloads::setup(args.workload, args.seed));
            println!("{}", t.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Mode::WriteGolden => {
            let setup = workloads::setup(args.workload, DEFAULT_SEED);
            let mut checker = Checker::new(args.workload.name(), false);
            let measured = workloads::measure(&setup, 0.0, &mut checker);
            for line in Checker::golden_lines(
                args.workload.name(),
                &measured.digests,
                &measured.figure_json,
            ) {
                println!("{line}");
            }
            if checker.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("simbench: {:#?}", checker.problems);
                ExitCode::FAILURE
            }
        }
        Mode::Measure => run(&args),
    }
}

fn run(args: &Args) -> ExitCode {
    let loadavg = host::loadavg();
    let name = args.workload.name();
    let mut checker = Checker::new(name, args.seed == DEFAULT_SEED);
    let (metrics, points, instructions) = if args.trace {
        let setup = workloads::setup(args.workload, args.seed);
        let traced = layers::traced(args.workload, &setup, &mut checker);
        (traced.metrics, traced.points, traced.instructions)
    } else {
        let setup_s = match probe_setup(args, SETUP_PROBES) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("simbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let setup = workloads::setup(args.workload, args.seed);
        let measured = workloads::measure(&setup, args.seconds, &mut checker);
        end_to_end(&setup, &measured, setup_s, &checker)
    };
    for p in &checker.problems {
        eprintln!("simbench: FAILED {p}");
    }
    println!("{name} seed={} trace={}:", args.seed, u8::from(args.trace));
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  points_failed {} of {} checked", checker.failed, checker.attempted);
    let record =
        host::run_record(name, args.seed, args.seconds, args.trace, &loadavg, points, instructions);
    println!("record {}", record.compact());
    store(record, &checker, &metrics);
    println!("{}", result_line(&checker, &metrics));
    if checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The six end-to-end metrics, from the untraced repetitions.
fn end_to_end(
    setup: &Setup,
    measured: &workloads::Measured,
    setup_s: f64,
    checker: &Checker,
) -> (Vec<Metric>, usize, u64) {
    let reps = &measured.reps;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = stats::median(&walls);
    let retired = reps[0].retired;
    let cpu_per_cycle: Vec<f64> =
        reps.iter().map(|r| r.cpu_s * 1e9 / r.cycles.max(1) as f64).collect();
    let points = measured.digests.len();
    let ipcs: Vec<f64> = measured.digests.iter().map(|d| f64::from_bits(d.ipc_bits)).collect();
    println!(
        "{} repetition(s) of {points} points, {} simulated cycles each; ipc_geomean {:.4} \
         (information only)",
        reps.len(),
        reps[0].cycles,
        atr_sim::runner::geomean(ipcs)
    );
    if let Setup::Figures { session, .. } = setup {
        println!("figure pass on {} worker thread(s)", session.threads);
    }
    let metrics = vec![
        metric("wall_s", wall_s, "s"),
        metric("sim_kips", retired as f64 / wall_s / 1e3, "kinst/s"),
        metric("cpu_ns_per_cycle", stats::median(&cpu_per_cycle), "ns"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        metric("points_ok", (points as u64 - checker.failed.min(points as u64)) as f64, "points"),
    ];
    (metrics, points, retired)
}
