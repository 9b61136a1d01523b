//! Top-level simulation configuration (Table 1) and the one reader of
//! the `ATR_*` environment variables.
//!
//! Entry points resolve their knobs here, once: [`budget`],
//! [`results_dir`] and [`Session::from_env`]. Every read goes through
//! the private `raw`, and each variable is parsed by a pure function of
//! its raw value (`parse_*`), so tests exercise the parsing with
//! literal strings and never touch the process environment.

use crate::session::{Session, DEFAULT_RETRIES};
use atr_pipeline::CoreConfig;
use atr_telemetry::{TelemetryConfig, TelemetryLevel};
use std::path::{Path, PathBuf};

/// A full simulation configuration: the core plus measurement windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Pipeline/memory/frontend/rename configuration.
    pub core: CoreConfig,
    /// Instructions to warm structures before measuring.
    pub warmup: u64,
    /// Instructions in the measured window.
    pub measure: u64,
}

/// Every `ATR_*` environment variable the workspace reads, with a
/// one-line description. The README's environment-variable table lists
/// exactly these names (a unit test keeps the two in step). All of them
/// are read through this module except `ATR_LOG`, which the
/// process-global logger in `atr-telemetry` (below this crate in the
/// crate graph) reads itself.
pub const KNOBS: &[(&str, &str)] = &[
    ("ATR_SIM_WARMUP", "warmup instructions per point"),
    ("ATR_SIM_INSTS", "measured instructions per point"),
    ("ATR_SIM_THREADS", "worker threads for the run matrix"),
    ("ATR_SIM_PROGRESS", "per-point progress lines on stderr"),
    ("ATR_LOG", "diagnostic verbosity (read by the atr-telemetry logger)"),
    ("ATR_RESULTS_DIR", "where figure JSON and the default cache/journal dirs land"),
    ("ATR_AUDIT", "cycle-level rename/release invariant auditor"),
    ("ATR_TELEMETRY", "observer level: off, stats or trace"),
    ("ATR_TELEMETRY_OUT", "append telemetry JSONL to this file instead of stdout"),
    ("ATR_TELEMETRY_SERIES", "occupancy time-series sampling interval in cycles"),
    ("ATR_TRACE_CAP", "per-uop pipeline-trace ring capacity"),
    ("ATR_TRACE_CACHE", "on-disk functional trace cache"),
    ("ATR_TRACE_FF", "fast-forward trace replays to the warmup checkpoint"),
    ("ATR_RUN_JOURNAL", "completed-point journal for resume"),
    ("ATR_FAULT_INJECT", "test hook: panic every point whose label contains this"),
];

/// Default warmup instructions per point (`ATR_SIM_WARMUP`).
const DEFAULT_WARMUP: u64 = 40_000;
/// Default measured instructions per point (`ATR_SIM_INSTS`).
const DEFAULT_MEASURE: u64 = 160_000;

/// The one environment read of the workspace's library code.
fn raw(name: &str) -> Option<String> {
    debug_assert!(KNOBS.iter().any(|(knob, _)| *knob == name), "{name} is not listed in KNOBS");
    std::env::var(name).ok()
}

/// The measurement budget `(warmup, measure)` from `ATR_SIM_WARMUP` /
/// `ATR_SIM_INSTS`, defaulting to a quick 40k/160k pass (the paper
/// simulates 10M-weighted simpoints; scale up for full runs).
#[must_use]
pub fn budget() -> (u64, u64) {
    (
        parse_count("ATR_SIM_WARMUP", raw("ATR_SIM_WARMUP").as_deref(), DEFAULT_WARMUP),
        parse_count("ATR_SIM_INSTS", raw("ATR_SIM_INSTS").as_deref(), DEFAULT_MEASURE),
    )
}

/// The directory experiment JSON lands in (`ATR_RESULTS_DIR`).
#[must_use]
pub fn results_dir() -> PathBuf {
    parse_results_dir(raw("ATR_RESULTS_DIR").as_deref())
}

/// Where the executor appends telemetry JSONL (`ATR_TELEMETRY_OUT`;
/// `None` = stdout). Read when each pass ends rather than at entry,
/// because a caller may point it at a fresh file between passes.
#[must_use]
pub fn telemetry_out() -> Option<PathBuf> {
    raw("ATR_TELEMETRY_OUT").map(PathBuf::from)
}

impl Session {
    /// Resolves every `ATR_*` serving knob from the environment, once,
    /// at the process entry point. Defined here, next to every other
    /// environment read; [`Session::default`] reads nothing.
    #[must_use]
    pub fn from_env() -> Self {
        let results = results_dir();
        Session {
            threads: parse_threads(raw("ATR_SIM_THREADS").as_deref()),
            progress: parse_progress(raw("ATR_SIM_PROGRESS").as_deref()),
            audit: parse_switch(raw("ATR_AUDIT").as_deref()),
            telemetry: parse_telemetry(
                raw("ATR_TELEMETRY").as_deref(),
                raw("ATR_TRACE_CAP").as_deref(),
                raw("ATR_TELEMETRY_SERIES").as_deref(),
            ),
            trace_cache: parse_dir(raw("ATR_TRACE_CACHE").as_deref(), &results, "trace-cache"),
            trace_ff: parse_switch(raw("ATR_TRACE_FF").as_deref()),
            journal: parse_dir(raw("ATR_RUN_JOURNAL").as_deref(), &results, "run-journal"),
            retries: DEFAULT_RETRIES,
            fault_injection: parse_fault_injection(raw("ATR_FAULT_INJECT").as_deref()),
        }
    }
}

/// Parses an instruction count. A malformed value is *not* silently
/// swallowed: it falls back to `default` with a one-line warning, so a
/// typo in a sweep script cannot quietly produce default-budget numbers.
#[must_use]
fn parse_count(name: &str, raw: Option<&str>, default: u64) -> u64 {
    let Some(raw) = raw else {
        return default;
    };
    let trimmed = raw.trim();
    match trimmed.parse::<u64>() {
        Ok(v) => v,
        Err(_) => {
            // `ParseIntError::kind` is unstable, so classify by shape:
            // a leading sign is a rejected negative, all-digits that
            // still fail is a u64 overflow, anything else is malformed.
            let why = if trimmed.starts_with('-') {
                "negative values are rejected"
            } else if !trimmed.is_empty() && trimmed.chars().all(|c| c.is_ascii_digit()) {
                "value overflows u64"
            } else {
                "expected an unsigned instruction count"
            };
            atr_telemetry::warn!(
                "ignoring malformed {name}={raw:?} ({why}); using default {default}"
            );
            default
        }
    }
}

/// Parses `ATR_SIM_THREADS`: a positive count, otherwise (unset or
/// malformed, the latter with a warning) the machine's parallelism.
#[must_use]
fn parse_threads(raw: Option<&str>) -> usize {
    if let Some(raw) = raw {
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => atr_telemetry::warn!(
                "ignoring malformed ATR_SIM_THREADS={raw:?} (expected a positive count)"
            ),
        }
    }
    crate::executor::thread_count_default()
}

/// Parses `ATR_SIM_PROGRESS`: progress lines are on unless it is `0`.
#[must_use]
fn parse_progress(raw: Option<&str>) -> bool {
    raw != Some("0")
}

/// Parses an on/off switch (`ATR_AUDIT`, `ATR_TRACE_FF`): any value
/// other than unset, empty or `0` turns it on.
#[must_use]
fn parse_switch(raw: Option<&str>) -> bool {
    raw.is_some_and(|v| !v.trim().is_empty() && v.trim() != "0")
}

/// Parses `ATR_RESULTS_DIR`: the given directory, otherwise
/// `<workspace root>/results`, so every entry point writes to the same
/// place no matter which directory it is launched from.
#[must_use]
fn parse_results_dir(raw: Option<&str>) -> PathBuf {
    if let Some(dir) = raw {
        return PathBuf::from(dir);
    }
    // crates/sim/ -> workspace root, resolved at compile time.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate dir has a workspace root")
        .join("results")
}

/// Parses a directory knob (`ATR_TRACE_CACHE`, `ATR_RUN_JOURNAL`):
/// unset, empty or `0` is off; `1` selects `<results>/<default_name>`;
/// any other value is an explicit directory.
#[must_use]
fn parse_dir(raw: Option<&str>, results: &Path, default_name: &str) -> Option<PathBuf> {
    match raw?.trim() {
        "" | "0" => None,
        "1" => Some(results.join(default_name)),
        dir => Some(PathBuf::from(dir)),
    }
}

/// Parses `ATR_FAULT_INJECT`: a non-empty needle, else off.
#[must_use]
fn parse_fault_injection(raw: Option<&str>) -> Option<String> {
    let trimmed = raw?.trim();
    (!trimmed.is_empty()).then(|| trimmed.to_owned())
}

/// Parses the observer configuration from `ATR_TELEMETRY`
/// (off|stats|trace), `ATR_TRACE_CAP` and `ATR_TELEMETRY_SERIES`
/// (sampling interval in cycles). Malformed values warn and fall back
/// to [`TelemetryConfig::default`]'s fields.
#[must_use]
fn parse_telemetry(
    level: Option<&str>,
    trace_cap: Option<&str>,
    series: Option<&str>,
) -> TelemetryConfig {
    let mut cfg = TelemetryConfig::default();
    if let Some(raw) = level {
        match TelemetryLevel::parse(raw) {
            Some(level) => cfg.level = level,
            None => atr_telemetry::warn!(
                "ignoring malformed ATR_TELEMETRY={raw:?} \
                 (expected off|stats|trace); telemetry stays off"
            ),
        }
    }
    if let Some(raw) = trace_cap {
        match raw.trim().parse::<usize>() {
            Ok(cap) => cfg.trace_cap = cap,
            Err(_) => atr_telemetry::warn!(
                "ignoring malformed ATR_TRACE_CAP={raw:?}; using {}",
                cfg.trace_cap
            ),
        }
    }
    if let Some(raw) = series {
        match raw.trim().parse::<u64>() {
            Ok(interval) => cfg.series_interval = interval,
            Err(_) => {
                atr_telemetry::warn!("ignoring malformed ATR_TELEMETRY_SERIES={raw:?}; series off");
            }
        }
    }
    cfg
}

/// Renders the Table 1 parameter table from the live configuration, so
/// the printed table cannot drift from the simulated one.
#[must_use]
pub fn table1(cfg: &CoreConfig) -> Vec<(String, String)> {
    let mem = &cfg.mem;
    let mut rows = vec![
        ("CPU".to_owned(), "Golden Cove-like (simulated)".to_owned()),
        (
            "Frontend width and retirement".to_owned(),
            format!("{}-wide fetch/decode, {}-wide retirement", cfg.fetch_width, cfg.retire_width),
        ),
        (
            "Functional Units".to_owned(),
            format!("{} ALU, {} Load, {} Store", cfg.num_alu, cfg.num_load, cfg.num_store),
        ),
        ("Branch Predictor".to_owned(), "TAGE-L (TAGE-SC-L-class) + BTB + ITB + RAS".to_owned()),
        ("Branch Target Buffer (BTB)".to_owned(), format!("{} entries", cfg.bpu.btb_entries)),
        (
            "Indirect Branch Target Buffer".to_owned(),
            format!("{} entries", 1usize << cfg.bpu.indirect_bits),
        ),
        ("ROB".to_owned(), format!("{} entries", cfg.rob_size)),
        ("Reservation Station".to_owned(), format!("{} entries", cfg.rs_size)),
        ("Load Buffer".to_owned(), format!("{} entries", cfg.load_buffer)),
        ("Store Buffer".to_owned(), format!("{} entries", cfg.store_buffer)),
        (
            "Frontend Fetch targets (FT) per cycle".to_owned(),
            format!("{}", cfg.fetch_targets_per_cycle),
        ),
        ("FT block size".to_owned(), format!("{} B", cfg.fetch_block_bytes)),
    ];
    let kib = |b: usize| format!("{} KiB", b >> 10);
    rows.push((
        "L1 instruction cache".to_owned(),
        format!("{}, {}-way", kib(mem.l1i.size_bytes), mem.l1i.ways),
    ));
    rows.push((
        "L1 data cache".to_owned(),
        format!("{}, {}-way", kib(mem.l1d.size_bytes), mem.l1d.ways),
    ));
    rows.push((
        "L2 unified cache".to_owned(),
        format!("{}, {}-way", kib(mem.l2.size_bytes), mem.l2.ways),
    ));
    rows.push((
        "LLC unified cache".to_owned(),
        format!("{}, {}-way", kib(mem.llc.size_bytes), mem.llc.ways),
    ));
    rows.push(("L1 D-cache latency".to_owned(), format!("{} cycles", mem.l1d.latency)));
    rows.push(("L1 I-cache latency".to_owned(), format!("{} cycles", mem.l1i.latency)));
    rows.push(("L2 latency".to_owned(), format!("{} cycles", mem.l2.latency)));
    rows.push(("LLC latency".to_owned(), format!("{} cycles", mem.llc.latency)));
    rows.push(("Memory".to_owned(), format!("DDR4-3200-like ({} channels)", mem.dram.channels)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reflects_the_live_config() {
        let cfg = CoreConfig::default();
        let rows = table1(&cfg);
        let find = |k: &str| {
            rows.iter().find(|(key, _)| key.contains(k)).map(|(_, v)| v.clone()).unwrap_or_default()
        };
        assert_eq!(find("ROB"), "512 entries");
        assert_eq!(find("Reservation"), "160 entries");
        assert!(find("Functional").contains("5 ALU"));
        assert!(find("L1 data").contains("48 KiB"));
        assert!(find("L2 unified").contains("1280 KiB"));
    }

    #[test]
    fn budget_env_parsing_accepts_valid_and_rejects_malformed() {
        assert_eq!(parse_count("ATR_SIM_WARMUP", None, 7), 7);
        assert_eq!(parse_count("ATR_SIM_WARMUP", Some("1234"), 7), 1234);
        assert_eq!(parse_count("ATR_SIM_INSTS", Some(" 5678 "), 7), 5678);
        // Malformed and negative values warn on stderr and fall back.
        assert_eq!(parse_count("ATR_SIM_WARMUP", Some("not-a-number"), 7), 7);
        assert_eq!(parse_count("ATR_SIM_INSTS", Some("-5"), 7), 7);
        // A value past u64::MAX is an overflow, not a silent wrap.
        assert_eq!(parse_count("ATR_SIM_WARMUP", Some("99999999999999999999999999"), 7), 7);
        assert_eq!(parse_count("ATR_SIM_INSTS", Some("+12"), 7), 12, "leading + is valid u64");
    }

    #[test]
    fn trace_env_knobs_parse() {
        let results = Path::new("/tmp/results");
        assert_eq!(parse_dir(None, results, "trace-cache"), None);
        assert_eq!(parse_dir(Some("0"), results, "trace-cache"), None);
        assert_eq!(
            parse_dir(Some("1"), results, "trace-cache"),
            Some(PathBuf::from("/tmp/results/trace-cache"))
        );
        assert_eq!(
            parse_dir(Some("/tmp/custom-traces"), results, "trace-cache"),
            Some(PathBuf::from("/tmp/custom-traces"))
        );

        assert!(!parse_switch(None));
        assert!(!parse_switch(Some("")));
        assert!(!parse_switch(Some(" 0 ")));
        assert!(parse_switch(Some("1")));
        assert!(parse_switch(Some("yes")));
    }

    #[test]
    fn journal_and_fault_env_knobs_parse() {
        let results = Path::new("/tmp/results");
        assert_eq!(parse_dir(Some(" "), results, "run-journal"), None);
        assert_eq!(
            parse_dir(Some("1"), results, "run-journal"),
            Some(PathBuf::from("/tmp/results/run-journal"))
        );
        assert_eq!(
            parse_dir(Some("/tmp/custom-journal"), results, "run-journal"),
            Some(PathBuf::from("/tmp/custom-journal"))
        );

        assert_eq!(parse_fault_injection(None), None);
        assert_eq!(parse_fault_injection(Some("  ")), None, "blank needle is off");
        assert_eq!(parse_fault_injection(Some("505.mcf_r")).as_deref(), Some("505.mcf_r"));
    }

    #[test]
    fn threads_progress_results_and_telemetry_parse() {
        assert_eq!(parse_threads(Some("3")), 3);
        let machine = crate::executor::thread_count_default();
        assert_eq!(parse_threads(None), machine);
        assert_eq!(parse_threads(Some("0")), machine, "zero workers is malformed");
        assert_eq!(parse_threads(Some("many")), machine);

        assert!(parse_progress(None));
        assert!(parse_progress(Some("1")));
        assert!(!parse_progress(Some("0")));

        assert_eq!(parse_results_dir(Some("/tmp/out")), PathBuf::from("/tmp/out"));
        let fallback = parse_results_dir(None);
        assert!(fallback.ends_with("results"));
        assert!(fallback.parent().unwrap().join("Cargo.toml").exists());

        assert_eq!(parse_telemetry(None, None, None), TelemetryConfig::default());
        let t = parse_telemetry(Some("stats"), Some("128"), Some("1000"));
        assert_eq!(t.level, TelemetryLevel::Stats);
        assert_eq!((t.trace_cap, t.series_interval), (128, 1000));
        // Malformed values warn and keep the defaults.
        assert_eq!(
            parse_telemetry(Some("loud"), Some("big"), Some("often")),
            TelemetryConfig::default()
        );
    }

    /// README's "Environment variable reference" table and [`KNOBS`]
    /// name the same variables.
    #[test]
    fn readme_env_table_matches_knobs() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("### Environment variable reference")
            .nth(1)
            .expect("README has an environment variable reference");
        let documented: std::collections::BTreeSet<&str> = table
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .filter(|name| name.starts_with("ATR_"))
            .collect();
        let knobs: std::collections::BTreeSet<&str> = KNOBS.iter().map(|(n, _)| *n).collect();
        assert_eq!(documented, knobs, "README table and config::KNOBS disagree");
        assert_eq!(knobs.len(), KNOBS.len(), "a knob is listed twice");
    }
}
