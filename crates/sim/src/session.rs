//! The typed execution session: every runtime knob resolved **once**.
//!
//! A [`Session`] carries the serving and observation knobs of one pass
//! (threads, progress, audit, telemetry, trace cache, journal, retries)
//! and is threaded explicitly through
//! [`crate::executor::execute_session`] and
//! [`crate::matrix::RunMatrix::ensure_with`]; nothing below them reads
//! the environment. An entry point builds one with
//! `Session::from_env()` (defined in [`crate::config`], next to every
//! other `ATR_*` read). [`Session::default`] reads nothing, and the
//! builder methods set each knob in code, so tests and library users
//! get deterministic sessions.

use atr_telemetry::TelemetryConfig;
use std::path::{Path, PathBuf};

/// Bounded retry count for a panicking point before it becomes a
/// structured [`crate::executor::PointFailure`]: the first attempt plus
/// this many retries. Deterministic panics fail fast; transient ones
/// (exhausted file descriptors during capture, say) get a second
/// chance.
pub const DEFAULT_RETRIES: u32 = 1;

/// All runtime knobs of one execution pass, resolved up front.
///
/// Nothing in here may change a simulated result: threads, progress,
/// audit, telemetry, the trace cache, and the run journal are all
/// serving/observation concerns, which is why none of them is part of
/// the [`crate::matrix::SimPoint`] memoization key and why fingerprints
/// are bit-identical under every setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Worker threads for the point pool and trace capture
    /// (`ATR_SIM_THREADS`; default: available cores).
    pub threads: usize,
    /// Per-point progress lines on stderr (`ATR_SIM_PROGRESS`, on by
    /// default).
    pub progress: bool,
    /// Attach the cycle-level rename/release auditor (`ATR_AUDIT`).
    pub audit: bool,
    /// Observer configuration (`ATR_TELEMETRY` plus its satellites).
    pub telemetry: TelemetryConfig,
    /// Trace capture/replay cache directory (`ATR_TRACE_CACHE`).
    pub trace_cache: Option<PathBuf>,
    /// Fast-forward replays to the warmup checkpoint (`ATR_TRACE_FF`).
    pub trace_ff: bool,
    /// Run-journal directory for fault-tolerant resume
    /// (`ATR_RUN_JOURNAL`; off by default).
    pub journal: Option<PathBuf>,
    /// Retries (beyond the first attempt) for a panicking point.
    pub retries: u32,
    /// Chaos hook (`ATR_FAULT_INJECT`): any point whose label contains
    /// this substring panics inside the worker. Exercises the panic
    /// isolation path in tests and CI; never set it in a real run.
    pub fault_injection: Option<String>,
}

impl Default for Session {
    /// An env-free session: machine parallelism, progress on,
    /// everything else off.
    fn default() -> Self {
        Session {
            threads: crate::executor::thread_count_default(),
            progress: true,
            audit: false,
            telemetry: TelemetryConfig::default(),
            trace_cache: None,
            trace_ff: false,
            journal: None,
            retries: DEFAULT_RETRIES,
            fault_injection: None,
        }
    }
}

impl Session {
    /// Overrides the worker count (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Silences per-point progress lines.
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// Attaches the rename/release auditor to every run.
    #[must_use]
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Sets the observer configuration.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Points the trace capture/replay cache at `dir`.
    #[must_use]
    pub fn with_trace_cache(mut self, dir: impl AsRef<Path>) -> Self {
        self.trace_cache = Some(dir.as_ref().to_owned());
        self
    }

    /// Sets warmup fast-forward for trace replays.
    #[must_use]
    pub fn with_trace_ff(mut self, ff: bool) -> Self {
        self.trace_ff = ff;
        self
    }

    /// Journals completed points under `dir` and serves journaled
    /// points on the next pass (fault-tolerant resume).
    #[must_use]
    pub fn with_journal(mut self, dir: impl AsRef<Path>) -> Self {
        self.journal = Some(dir.as_ref().to_owned());
        self
    }

    /// Sets the bounded retry count for panicking points.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Injects a panic into every point whose label contains `needle`
    /// (test/CI chaos hook).
    #[must_use]
    pub fn with_fault_injection(mut self, needle: impl Into<String>) -> Self {
        self.fault_injection = Some(needle.into());
        self
    }

    /// One-line description for pass-level logging.
    #[must_use]
    pub fn describe(&self) -> String {
        let dir = |d: &Option<PathBuf>| {
            d.as_ref().map_or_else(|| "off".to_owned(), |p| p.display().to_string())
        };
        format!(
            "threads={} progress={} audit={} telemetry={:?} trace-cache={} ff={} journal={}",
            self.threads,
            if self.progress { "on" } else { "off" },
            if self.audit { "on" } else { "off" },
            self.telemetry.level,
            dir(&self.trace_cache),
            self.trace_ff,
            dir(&self.journal),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_session_is_env_free_and_off() {
        let s = Session::default();
        assert!(s.threads >= 1);
        assert!(s.progress);
        assert!(!s.audit);
        assert!(!s.telemetry.stats_enabled());
        assert_eq!(s.trace_cache, None);
        assert_eq!(s.journal, None);
        assert_eq!(s.retries, DEFAULT_RETRIES);
        assert_eq!(s.fault_injection, None);
    }

    #[test]
    fn builders_compose() {
        let s = Session::default()
            .quiet()
            .with_threads(0)
            .with_audit(true)
            .with_trace_cache("/tmp/tc")
            .with_trace_ff(true)
            .with_journal("/tmp/j")
            .with_retries(3)
            .with_fault_injection("505.mcf_r");
        assert_eq!(s.threads, 1, "a zero thread request clamps to serial");
        assert!(!s.progress);
        assert!(s.audit && s.trace_ff);
        assert_eq!(s.trace_cache.as_deref(), Some(Path::new("/tmp/tc")));
        assert_eq!(s.journal.as_deref(), Some(Path::new("/tmp/j")));
        assert_eq!(s.retries, 3);
        assert_eq!(s.fault_injection.as_deref(), Some("505.mcf_r"));
        let d = s.describe();
        assert!(d.contains("threads=1") && d.contains("journal=/tmp/j"), "{d}");
    }
}
