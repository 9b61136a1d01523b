//! Fault-tolerant parallel execution of simulation points.
//!
//! Points are independent deterministic simulations, so they can run on
//! any worker in any order; results are returned index-aligned with the
//! input slice, which keeps the output bit-identical to a serial pass.
//! Uses only `std::thread::scope` — no external dependencies.
//!
//! The entry point is [`execute_session`]: every runtime knob
//! comes from one resolved [`Session`] (see [`crate::session`]), and
//! each point yields a [`PointOutcome`] instead of a bare result:
//!
//! * a point that **panics** is retried a bounded number of times, then
//!   surfaced as a structured [`PointFailure`] carrying the panic
//!   payload — the other points' results survive;
//! * a point naming an **unknown profile** fails the same structured
//!   way during prebuild instead of sinking the pass;
//! * with a [`crate::journal::RunJournal`] configured, completed points
//!   are appended as they finish and an interrupted pass **resumes**:
//!   journaled points are served without re-simulation, bit-identical
//!   to an uninterrupted run;
//! * a **straggler supervisor** warns when a point exceeds a
//!   budget-scaled soft deadline (it never kills the point — the
//!   simulator is deterministic, slow points are just slow).

use crate::journal::RunJournal;
use crate::matrix::SimPoint;
use crate::runner::{run_with_source, RunResult, RunSpec};
use crate::session::Session;
use atr_pipeline::CoreConfig;
use atr_trace::{TraceCache, TraceReplay};
use atr_workload::spec::all_profiles;
use atr_workload::{Oracle, Program, TraceSource};
use std::collections::{HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Checkpoint frames are laid down every this many records in cached
/// captures (see `atr_trace::writer::DEFAULT_CHECKPOINT_INTERVAL`).
const CHECKPOINT_INTERVAL: u64 = atr_trace::writer::DEFAULT_CHECKPOINT_INTERVAL;

/// Fixed part of the straggler soft deadline.
const STRAGGLER_BASE: Duration = Duration::from_secs(10);

/// Budget-scaled part of the straggler soft deadline: the tiny-budget
/// CI pass simulates well under 1 µs/instruction, so 50 µs/instruction
/// flags a point only when it is pathologically slower than its peers.
const STRAGGLER_MICROS_PER_INST: u64 = 50;

/// How often the straggler supervisor scans the in-flight set.
const STRAGGLER_SCAN: Duration = Duration::from_millis(200);

/// Extra records captured beyond the largest `warmup + measure` of the
/// points sharing a program: fetch runs ahead of retirement by up to
/// the in-flight window (ROB plus frontend buffering), so the trace
/// must extend past the last *retired* index or replay would exhaust
/// it mid-run.
fn capture_slack(core: &CoreConfig) -> u64 {
    2 * core.rob_size as u64 + 8192
}

/// The worker count with no environment consulted: the machine's
/// available parallelism. [`Session::default`] uses this.
#[must_use]
pub fn thread_count_default() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Why a point produced no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The point names a profile `atr_workload::spec` does not know.
    UnknownProfile,
    /// Every attempt at the point panicked.
    Panic,
}

/// A structured per-point failure: the pass continues, the caller
/// decides (the matrix records it, reports degrade).
#[derive(Debug, Clone)]
pub struct PointFailure {
    /// [`SimPoint::label`] of the failed point.
    pub label: String,
    /// What went wrong.
    pub kind: FailureKind,
    /// The panic payload (or prebuild diagnostic) of the last attempt.
    pub payload: String,
    /// Attempts made (0 for prebuild failures that never ran).
    pub attempts: u32,
}

impl std::fmt::Display for PointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FailureKind::UnknownProfile => write!(f, "{}: {}", self.label, self.payload),
            FailureKind::Panic => {
                write!(
                    f,
                    "{} panicked after {} attempt(s): {}",
                    self.label, self.attempts, self.payload
                )
            }
        }
    }
}

/// One point's outcome under [`execute_session`].
pub type PointOutcome = Result<RunResult, PointFailure>;

/// Executes every point, in parallel, against the base core config,
/// with every runtime knob taken from `session` (the environment is
/// *not* consulted). The outcome vector is index-aligned with
/// `points`; equal results are bit-identical no matter the thread
/// count, journal state, or telemetry level.
#[must_use]
pub fn execute_session(
    session: &Session,
    core: &CoreConfig,
    points: &[SimPoint],
) -> Vec<PointOutcome> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut outcomes: Vec<Option<PointOutcome>> = Vec::new();
    outcomes.resize_with(points.len(), || None);

    // Generate each distinct known profile's static program once up
    // front: points overwhelmingly share profiles, and generation is
    // pure, so prebuilding changes nothing but the wall clock. A point
    // naming an unknown profile becomes a structured failure here
    // instead of a panic — one typo'd point must not sink a pass.
    let known: HashMap<&'static str, _> = all_profiles().into_iter().map(|p| (p.name, p)).collect();
    let mut programs: HashMap<&'static str, Arc<Program>> = HashMap::new();
    for point in points {
        if !programs.contains_key(point.profile) {
            if let Some(profile) = known.get(point.profile) {
                programs.insert(point.profile, profile.build());
            }
        }
    }
    let mut unknown_warned: HashSet<&'static str> = HashSet::new();
    for (idx, point) in points.iter().enumerate() {
        if !programs.contains_key(point.profile) {
            if unknown_warned.insert(point.profile) {
                atr_telemetry::warn!(
                    "unknown profile in SimPoint: {} — failing its point(s), continuing the pass",
                    point.profile
                );
            }
            outcomes[idx] = Some(Err(PointFailure {
                label: point.label(),
                kind: FailureKind::UnknownProfile,
                payload: format!("unknown profile in SimPoint: {}", point.profile),
                attempts: 0,
            }));
        }
    }

    // Resume: serve everything the journal already holds for this core
    // configuration. The "[journal] N of M" line is load-bearing — the
    // CI interrupt-resume gate greps it to prove journaled points were
    // not re-simulated.
    let mut journal: Option<RunJournal> = None;
    if let Some(dir) = &session.journal {
        match RunJournal::open(dir, core) {
            Ok(j) => journal = Some(j),
            Err(e) => atr_telemetry::warn!(
                "run journal at {} is unusable ({e}); continuing without resume",
                dir.display()
            ),
        }
    }
    if let Some(j) = &journal {
        let mut served = 0usize;
        for (idx, point) in points.iter().enumerate() {
            if outcomes[idx].is_none() {
                if let Some(result) = j.lookup(point) {
                    outcomes[idx] = Some(Ok(result.clone()));
                    served += 1;
                }
            }
        }
        atr_telemetry::info!(
            "[journal] {served} of {} points served from {}",
            points.len(),
            j.path().display()
        );
    }

    let todo: Vec<usize> = (0..points.len()).filter(|&i| outcomes[i].is_none()).collect();
    let todo_points: Vec<&SimPoint> = todo.iter().map(|&i| &points[i]).collect();
    let traces = prepare_traces(session, core, &todo_points, &programs);

    let mut walls: HashMap<usize, Duration> = HashMap::new();
    if !todo.is_empty() {
        let workers = session.threads.clamp(1, todo.len());
        let t0 = Instant::now();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let journal_cell: Option<Mutex<RunJournal>> = journal.map(Mutex::new);
        // Straggler bookkeeping: point index → (start, soft deadline).
        let inflight: Mutex<HashMap<usize, (Instant, Duration)>> = Mutex::new(HashMap::new());
        let stop = (Mutex::new(false), Condvar::new());

        std::thread::scope(|scope| {
            // Supervisor: scans the in-flight set on a condvar timeout
            // (not a naked sleep loop — shutdown is immediate once the
            // workers drain, so short passes pay no scan latency).
            let supervisor = {
                let inflight = &inflight;
                let stop = &stop;
                scope.spawn(move || {
                    let (lock, cvar) = stop;
                    let mut warned: HashSet<usize> = HashSet::new();
                    let mut stopped = lock.lock().unwrap();
                    while !*stopped {
                        stopped = cvar.wait_timeout(stopped, STRAGGLER_SCAN).unwrap().0;
                        if *stopped {
                            return;
                        }
                        let now = Instant::now();
                        for (&idx, &(start, deadline)) in inflight.lock().unwrap().iter() {
                            let running = now.duration_since(start);
                            if running > deadline && warned.insert(idx) {
                                atr_telemetry::warn!(
                                    "[straggler] {} running {running:.1?}, past its soft deadline {deadline:.1?}",
                                    points[idx].label()
                                );
                            }
                        }
                    }
                })
            };

            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                let done = &done;
                let todo = &todo;
                let programs = &programs;
                let traces = &traces;
                let inflight = &inflight;
                let journal_cell = &journal_cell;
                handles.push(scope.spawn(move || {
                    let mut produced: Vec<(usize, PointOutcome, Duration)> = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = todo.get(slot) else {
                            return produced;
                        };
                        let point = &points[idx];
                        let started = Instant::now();
                        inflight.lock().unwrap().insert(idx, (started, straggler_deadline(point)));
                        let outcome = run_point_guarded(
                            session,
                            core,
                            programs[point.profile].clone(),
                            point,
                            traces.get(point.profile).map(PathBuf::as_path),
                        );
                        inflight.lock().unwrap().remove(&idx);
                        let wall = started.elapsed();
                        if let (Some(cell), Ok(result)) = (journal_cell, &outcome) {
                            cell.lock().unwrap().append(point, result);
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        match &outcome {
                            Ok(_) if session.progress => atr_telemetry::info!(
                                "[matrix {:>4}/{:<4} {:>7.1?}] {} ({:.0?})",
                                finished,
                                todo.len(),
                                t0.elapsed(),
                                point.label(),
                                wall,
                            ),
                            Ok(_) => {}
                            Err(failure) => atr_telemetry::warn!(
                                "[matrix {:>4}/{:<4}] FAILED {failure}",
                                finished,
                                todo.len(),
                            ),
                        }
                        produced.push((idx, outcome, wall));
                    }
                }));
            }
            for handle in handles {
                // Workers cannot panic — run_point_guarded catches — so
                // a join failure here is a harness bug, not a bad point.
                for (idx, outcome, wall) in handle.join().expect("executor worker died") {
                    walls.insert(idx, wall);
                    outcomes[idx] = Some(outcome);
                }
            }
            *stop.0.lock().unwrap() = true;
            stop.1.notify_all();
            supervisor.join().expect("straggler supervisor died");
        });
    }

    let outcomes: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every point resolved by prebuild, journal, or a worker"))
        .collect();

    // One JSONL record per *freshly simulated* point, in input order —
    // stable no matter which worker ran what. Journal-served points
    // emit nothing: their observer state was not recorded (telemetry is
    // excluded from the journal by design), and an empty record would
    // be indistinguishable from a telemetry-off run.
    if session.telemetry.stats_enabled() {
        let lines: Vec<String> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(idx, outcome)| match (outcome, walls.get(&idx)) {
                (Ok(result), Some(wall)) => {
                    Some(crate::telemetry::record(&points[idx], result, *wall).compact())
                }
                _ => None,
            })
            .collect();
        crate::telemetry::emit_lines(&lines);
    }

    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    if failed > 0 {
        atr_telemetry::warn!(
            "[matrix] {failed} of {} point(s) failed; downstream reports degrade to the surviving set",
            points.len()
        );
    }
    outcomes
}

/// The soft deadline after which a running point is flagged as a
/// straggler: a fixed base plus a budget-scaled term, so a 10M-inst
/// full-budget point gets proportionally more headroom than a tiny CI
/// point.
fn straggler_deadline(point: &SimPoint) -> Duration {
    STRAGGLER_BASE
        + Duration::from_micros(
            (point.warmup + point.measure).saturating_mul(STRAGGLER_MICROS_PER_INST),
        )
}

/// Captures (or finds cached) one trace per distinct program among
/// `points`, sized for the largest budget any of its points needs.
/// Distinct programs are captured concurrently on a scoped pool — on a
/// cold cache this turns the slowest serial phase of a pass into a
/// parallel one. Returns the per-profile trace paths; an empty map
/// means every point runs a live oracle.
fn prepare_traces(
    session: &Session,
    core: &CoreConfig,
    points: &[&SimPoint],
    programs: &HashMap<&'static str, Arc<Program>>,
) -> HashMap<&'static str, PathBuf> {
    let Some(dir) = &session.trace_cache else {
        return HashMap::new();
    };
    let cache = match TraceCache::new(dir) {
        Ok(c) => c,
        Err(e) => {
            atr_telemetry::warn!(
                "trace cache at {} is unusable ({e}); running every point live",
                dir.display()
            );
            return HashMap::new();
        }
    };
    let slack = capture_slack(core);
    let mut needed: HashMap<&'static str, u64> = HashMap::new();
    for point in points {
        let records = point.warmup + point.measure + slack;
        let entry = needed.entry(point.profile).or_insert(0);
        *entry = (*entry).max(records);
    }
    let jobs: Vec<(&'static str, u64)> = needed.into_iter().collect();
    if jobs.is_empty() {
        return HashMap::new();
    }
    let workers = session.threads.clamp(1, jobs.len());
    let next = AtomicUsize::new(0);
    let traces: Mutex<HashMap<&'static str, PathBuf>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let jobs = &jobs;
            let cache = &cache;
            let traces = &traces;
            scope.spawn(move || loop {
                let Some(&(name, records)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                    return;
                };
                let t0 = Instant::now();
                match cache.ensure(&programs[name], name, CHECKPOINT_INTERVAL, records) {
                    Ok((path, hit)) => {
                        if session.progress {
                            atr_telemetry::info!(
                                "[trace {}] {name}: {} records in {:.0?} ({})",
                                if hit { "hit" } else { "capture" },
                                records,
                                t0.elapsed(),
                                path.display()
                            );
                        }
                        traces.lock().unwrap().insert(name, path);
                    }
                    Err(e) => {
                        atr_telemetry::warn!(
                            "trace capture failed for {name} ({e}); running it live"
                        );
                    }
                }
            });
        }
    });
    traces.into_inner().unwrap()
}

/// Runs one point with panic isolation and bounded retry. The closure
/// is unwind-safe in the only sense that matters here: the simulator
/// owns all its state per run and a failed attempt shares nothing with
/// the retry.
fn run_point_guarded(
    session: &Session,
    core: &CoreConfig,
    program: Arc<Program>,
    point: &SimPoint,
    trace: Option<&Path>,
) -> PointOutcome {
    let attempts = session.retries + 1;
    let mut payload = String::new();
    for attempt in 1..=attempts {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(needle) = &session.fault_injection {
                if point.label().contains(needle.as_str()) {
                    panic!("injected fault for {}", point.label());
                }
            }
            run_point(session, core, program.clone(), point, trace)
        }));
        match caught {
            Ok(result) => return Ok(result),
            Err(panic) => {
                payload = panic_message(panic.as_ref());
                if attempt < attempts {
                    atr_telemetry::warn!(
                        "{} panicked on attempt {attempt}/{attempts} ({payload}); retrying",
                        point.label()
                    );
                }
            }
        }
    }
    Err(PointFailure { label: point.label(), kind: FailureKind::Panic, payload, attempts })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn run_point(
    session: &Session,
    core: &CoreConfig,
    program: Arc<Program>,
    point: &SimPoint,
    trace: Option<&Path>,
) -> RunResult {
    let mut cfg = core.clone();
    point.tweak.apply(&mut cfg);
    let spec = RunSpec {
        scheme: point.scheme,
        rf_size: point.rf_size,
        warmup: point.warmup,
        measure: point.measure,
        collect_events: point.collect_events,
        audit: session.audit,
        telemetry: session.telemetry,
    };
    let source: Box<dyn TraceSource> = match trace
        .and_then(|path| open_replay(path, &program, spec.warmup, session.trace_ff, point))
    {
        Some(replay) => Box::new(replay),
        None => Box::new(Oracle::new(program)),
    };
    run_with_source(&cfg, source, &spec)
}

/// Opens `path` for replay, optionally fast-forwarded to the warmup
/// target. Any failure degrades gracefully: a failed fast-forward may
/// leave the reader mid-stream, so the file is reopened for a full
/// replay; an unopenable file yields `None` (the point runs live).
fn open_replay(
    path: &Path,
    program: &Arc<Program>,
    warmup: u64,
    fast_forward: bool,
    point: &SimPoint,
) -> Option<TraceReplay> {
    let open = || match TraceReplay::open(path, program.clone()) {
        Ok(replay) => Some(replay),
        Err(e) => {
            atr_telemetry::warn!(
                "trace replay unavailable for {} ({e}); running it live",
                point.label()
            );
            None
        }
    };
    let mut replay = open()?;
    if fast_forward && warmup > 0 {
        if let Err(e) = replay.fast_forward_to(warmup) {
            atr_telemetry::warn!(
                "fast-forward to {warmup} failed for {} ({e}); replaying from 0",
                point.label()
            );
            replay = open()?;
        }
    }
    Some(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atr_core::ReleaseScheme;

    /// Every point's result under `session`, panicking on a failure.
    fn results(session: &Session, points: &[SimPoint]) -> Vec<RunResult> {
        execute_session(session, &CoreConfig::default(), points)
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    fn serial() -> Session {
        Session::default().quiet().with_threads(1)
    }

    #[test]
    fn results_align_with_input_order() {
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("548.exchange2_r", ReleaseScheme::Baseline, 224, 50, 200),
        ];
        let r = results(&serial(), &points);
        assert_eq!(r.len(), 2);
        // exchange2 at 224 registers must comfortably out-run mcf at 64:
        // order inversion here would mean results got shuffled.
        assert!(r[1].ipc > r[0].ipc);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count_default() >= 1);
    }

    /// An unknown profile becomes a structured failure; its siblings
    /// still simulate. Regression for the old prebuild panic.
    #[test]
    fn unknown_profile_fails_its_point_without_sinking_the_pass() {
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 50, 200),
            SimPoint::new("999.not_a_profile", ReleaseScheme::Baseline, 64, 50, 200),
        ];
        let outcomes = execute_session(&serial(), &CoreConfig::default(), &points);
        assert!(outcomes[0].is_ok(), "the healthy sibling must survive");
        let failure = outcomes[1].as_ref().expect_err("unknown profile must fail");
        assert_eq!(failure.kind, FailureKind::UnknownProfile);
        assert_eq!(failure.attempts, 0, "prebuild failures never run");
        assert!(failure.payload.contains("999.not_a_profile"), "{}", failure.payload);
    }

    /// A cached pass — capture on the first point, replay everywhere —
    /// must be bit-identical to the live pass, with and without warmup
    /// fast-forward on the architectural stream (fast-forward may and
    /// does change timing, so only the no-FF pass is compared on IPC).
    #[test]
    fn trace_cached_pass_matches_live_pass() {
        let dir =
            std::env::temp_dir().join(format!("atr_executor_trace_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let points = vec![
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 64, 600, 1_500),
            SimPoint::new("505.mcf_r", ReleaseScheme::Atr { redefine_delay: 0 }, 64, 600, 1_500),
            SimPoint::new("505.mcf_r", ReleaseScheme::Baseline, 224, 300, 1_000),
        ];
        let live = results(&serial(), &points);
        let cached = results(&serial().with_threads(2).with_trace_cache(&dir), &points);
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "three points over one program capture exactly one trace"
        );
        for (i, (a, b)) in live.iter().zip(&cached).enumerate() {
            assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "point {i} IPC diverged under replay");
            assert_eq!(a.stats.cycles, b.stats.cycles, "point {i} cycles diverged under replay");
            assert_eq!(a.stats.retired, b.stats.retired);
            assert_eq!(a.stats.flushes, b.stats.flushes);
        }

        // Fast-forward skips detailed warmup: retired count per window
        // still matches, and the measured stream is the same
        // architectural instructions (cycles legitimately differ).
        let ff = results(&serial().with_trace_cache(&dir).with_trace_ff(true), &points);
        for (i, (a, b)) in live.iter().zip(&ff).enumerate() {
            let lived = a.stats.retired;
            let ffd = b.stats.retired;
            assert!(ffd <= lived, "point {i}: FF run retired more ({ffd}) than live ({lived})");
            assert!(b.ipc > 0.0, "point {i}: FF run produced no progress");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Event collection is observation-only: the lifetime log records
    /// what the renamer does but feeds nothing back into scheduling, so
    /// the whole `CoreStats` block is bit-identical with and without it.
    /// This is what lets `RunMatrix::ensure_with` serve a non-events
    /// point from its `.with_events()` twin.
    #[test]
    fn event_collection_does_not_change_timing() {
        for scheme in [ReleaseScheme::Baseline, ReleaseScheme::Atr { redefine_delay: 0 }] {
            let plain = SimPoint::new("505.mcf_r", scheme, 64, 50, 200);
            let events = plain.clone().with_events();
            let r = results(&serial(), &[plain, events]);
            assert_eq!(r[0].ipc.to_bits(), r[1].ipc.to_bits());
            assert_eq!(format!("{:?}", r[0].stats), format!("{:?}", r[1].stats));
            assert_eq!(r[0].avg_int_occupancy.to_bits(), r[1].avg_int_occupancy.to_bits());
            assert_eq!(r[0].avg_fp_occupancy.to_bits(), r[1].avg_fp_occupancy.to_bits());
            assert!(r[0].lifetimes.is_empty() && !r[1].lifetimes.is_empty());
        }
    }
}
