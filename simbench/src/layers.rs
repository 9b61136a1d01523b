//! The traced run: per-layer metrics, measured from outside the
//! program by timing calls into each layer's public functions.
//!
//! Nothing inside the simulator is instrumented. Layers the core owns
//! privately (memory hierarchy, branch predictor, renamer) are costed
//! by *replaying* the workload's own correct-path stream, from
//! `Oracle::get`, through their public functions; their exact counts
//! come from the real run's `CoreStats`. Every simulated result of the
//! traced run must be bit-identical to the untraced run's.

use crate::check::{Checker, Digest};
use crate::stats::{median, quantile, quantile_u32, ratio};
use crate::workloads::{self, figure_pass, FigurePass, Setup, Workload};
use crate::{metric, Metric, OUT_DIR};
use atr_core::Renamer;
use atr_frontend::Bpu;
use atr_isa::{DynInst, OpClass};
use atr_json::Json;
use atr_mem::{AccessKind, MemoryHierarchy};
use atr_pipeline::{CoreConfig, CoreStats, OooCore};
use atr_sim::{RunResult, RunSpec, SimConfig, SimPoint};
use atr_telemetry::{TelemetryConfig, TelemetryLevel};
use atr_trace::{TraceCache, TraceReplay};
use atr_workload::{spec, Program, TraceSource};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A timed call longer than this was interrupted (preempted, or a
/// timer interrupt landed in it): no single call of the timed layer
/// functions comes near it, so such samples are dropped from the means.
const INTERRUPTED_NS: u64 = 20_000;

/// `figures-tiny` re-simulates every this-many-th simulated point under
/// the tick timer and the layer replays (52 of 832).
const FIGURES_SUBSET_STRIDE: usize = 16;

/// The traced run's output.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub points: usize,
    pub instructions: u64,
}

/// Counts and sampled timings of `TraceSource::get` calls.
#[derive(Debug, Default, Clone, Copy)]
struct GetTally {
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl GetTally {
    fn add(&mut self, o: &GetTally) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
    }

    /// Mean cost of one call, net of the timer's own cost.
    fn ns_per_call(&self, timer_ns: f64) -> f64 {
        (ratio(self.sampled_ns as f64, self.sampled as f64) - timer_ns).max(0.0)
    }
}

/// A `TraceSource` wrapper that counts every `get` and times one call
/// in eight (chosen pseudo-randomly, so the sample does not alias with
/// the fetch width). The tally is published when the core drops it.
struct TimedSource {
    inner: Box<dyn TraceSource>,
    tally: GetTally,
    rng: u64,
    out: Arc<Mutex<GetTally>>,
}

impl TimedSource {
    fn boxed(inner: Box<dyn TraceSource>, out: &Arc<Mutex<GetTally>>) -> Box<dyn TraceSource> {
        Box::new(TimedSource {
            inner,
            tally: GetTally::default(),
            rng: 0x2545_f491_4f6c_dd1d,
            out: out.clone(),
        })
    }
}

impl TraceSource for TimedSource {
    fn program(&self) -> &Arc<Program> {
        self.inner.program()
    }

    fn get(&mut self, idx: u64) -> &DynInst {
        self.tally.calls += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        if self.rng & 7 == 0 {
            let t = Instant::now();
            black_box(self.inner.get(idx));
            let ns = t.elapsed().as_nanos() as u64;
            if ns < INTERRUPTED_NS {
                self.tally.sampled_ns += ns;
                self.tally.sampled += 1;
            }
        }
        self.inner.get(idx)
    }

    fn release_before(&mut self, idx: u64) {
        self.inner.release_before(idx);
    }

    fn clear_exception(&mut self, idx: u64) {
        self.inner.clear_exception(idx);
    }

    fn start_index(&self) -> u64 {
        self.inner.start_index()
    }

    fn generated(&self) -> u64 {
        self.inner.generated()
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            out.add(&self.tally);
        }
    }
}

/// Mean time the clock reports for an empty timed section: the offset
/// every per-call and per-tick timing carries, subtracted from them.
fn timer_overhead_ns() -> f64 {
    let n = 20_000u32;
    let mut total = 0u128;
    for _ in 0..n {
        let t = Instant::now();
        total += black_box(t.elapsed().as_nanos());
    }
    total as f64 / f64::from(n)
}

/// One point the traced run re-simulates: the exact inputs the untraced
/// run used and the result it produced.
struct Job {
    label: String,
    profile: &'static str,
    program: Arc<Program>,
    /// Stream index the point starts at.
    start: u64,
    /// Base configuration with the point's tweaks applied.
    base: CoreConfig,
    spec: RunSpec,
    want: RunResult,
}

impl Job {
    /// The core configuration `atr_sim::run_with_source` builds for this point.
    fn core_config(&self) -> CoreConfig {
        let mut cfg =
            self.base.clone().with_rf_size(self.spec.rf_size).with_scheme(self.spec.scheme);
        cfg.rename.collect_events = self.spec.collect_events;
        cfg.rename.audit = false;
        cfg.telemetry = TelemetryConfig::default();
        cfg
    }
}

/// Everything the traced run accumulates over its jobs.
#[derive(Default)]
struct Acc {
    /// Clock offset of an empty timed section.
    timer_ns: f64,
    tick_ns: Vec<u32>,
    tick_total_ns: u64,
    traced_wall_s: f64,
    stats: Vec<CoreStats>,
    live: GetTally,
    build_ns: u64,
    mem_ns: u64,
    mem_accesses: u64,
    predict_ns: u64,
    predicts: u64,
    train_ns: u64,
    trains: u64,
    rename_ns: u64,
    renames: u64,
    capture_ns: u64,
    captured: u64,
    capture_bytes: u64,
    replay: GetTally,
}

impl Acc {
    fn sum(&self, f: impl Fn(&CoreStats) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }
}

/// Drives `core` one timed `tick` at a time while `more` holds.
fn timed_ticks(core: &mut OooCore, acc: &mut Acc, more: impl Fn(&OooCore) -> bool) {
    let offset = acc.timer_ns as u64;
    while more(core) {
        let t = Instant::now();
        core.tick();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(offset);
        acc.tick_total_ns += ns;
        acc.tick_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }
}

/// Re-simulates one job with every tick timed and the stream source
/// wrapped, for the cycle count the untraced run reported. Returns the
/// traced run's digest.
fn traced_job(job: &Job, acc: &mut Acc) -> Digest {
    let tally = Arc::new(Mutex::new(GetTally::default()));
    let source = TimedSource::boxed(workloads::source(&job.program, job.start), &tally);
    let cfg = job.core_config();
    let max_cycles = cfg.max_cycles;
    let mut core = OooCore::with_source(cfg, source);
    // Warm up exactly as `OooCore::run` does, then run to the untraced
    // cycle count; the final counters must then match exactly.
    let warmup = job.spec.warmup.saturating_sub(job.start);
    timed_ticks(&mut core, acc, |c| c.snapshot_stats().retired < warmup && c.cycles() < max_cycles);
    let s0 = core.snapshot_stats();
    let end = job.want.stats.cycles;
    timed_ticks(&mut core, acc, |c| c.cycles() < end);
    let s1 = core.snapshot_stats();
    drop(core);
    acc.live.add(&tally.lock().expect("tally lock is never poisoned"));
    let cycles = (s1.cycles - s0.cycles).max(1);
    let ipc = (s1.retired - s0.retired) as f64 / cycles as f64;
    let result = RunResult {
        ipc,
        avg_int_occupancy: 0.0,
        avg_fp_occupancy: 0.0,
        stats: s1.clone(),
        lifetimes: Vec::new(),
        telemetry: atr_telemetry::RunTelemetry::default(),
    };
    acc.stats.push(s1);
    Digest::of(&job.label, &result)
}

/// `n` correct-path instructions of `program` from index `start`.
fn stream(program: &Arc<Program>, start: u64, n: u64) -> Vec<DynInst> {
    let mut source = workloads::source(program, start);
    let mut out = Vec::with_capacity(n as usize);
    for idx in start..start + n {
        out.push(*source.get(idx));
        if idx % 4096 == 4095 {
            source.release_before(idx);
        }
    }
    out
}

/// Fetch lines and data addresses through a fresh hierarchy, one
/// instruction per `cpi` simulated cycles, as the real run paced them.
fn replay_mem(cfg: &CoreConfig, insts: &[DynInst], cpi: f64, acc: &mut Acc) {
    let mut mem = MemoryHierarchy::new(&cfg.mem);
    let line_bits = cfg.fetch_block_bytes.max(1).trailing_zeros();
    let mut last_line = u64::MAX;
    let mut accesses = 0u64;
    let t = Instant::now();
    for (i, inst) in insts.iter().enumerate() {
        let cycle = (i as f64 * cpi) as u64;
        let line = inst.sinst.pc >> line_bits;
        if line != last_line {
            last_line = line;
            black_box(mem.access(AccessKind::InstFetch, inst.sinst.pc, cycle));
            accesses += 1;
        }
        if let Some(addr) = inst.outcome.mem_addr {
            let kind = if inst.sinst.class == OpClass::Store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            black_box(mem.access(kind, addr, cycle));
            accesses += 1;
        }
    }
    acc.mem_ns += t.elapsed().as_nanos() as u64;
    acc.mem_accesses += accesses;
}

/// Control flow through a fresh predictor: predict, recover on a
/// misprediction, train with the outcome. Each call is timed.
fn replay_frontend(cfg: &CoreConfig, insts: &[DynInst], timer_ns: f64, acc: &mut Acc) {
    let mut bpu = Bpu::new(&cfg.bpu);
    let (mut predict, mut train) = ((0u64, 0u64), (0u64, 0u64));
    let timed = |total: &mut (u64, u64), t: Instant| {
        let ns = t.elapsed().as_nanos() as u64;
        if ns < INTERRUPTED_NS {
            *total = (total.0 + ns, total.1 + 1);
        }
    };
    for inst in insts.iter().filter(|i| i.sinst.class.is_control_flow()) {
        let (taken, target) = (inst.outcome.taken, inst.outcome.next_pc);
        let t = Instant::now();
        let p = bpu.predict(&inst.sinst);
        timed(&mut predict, t);
        if p.taken != taken || p.next_pc != target {
            bpu.recover(&inst.sinst, &p.snapshot, taken, target);
        }
        let t = Instant::now();
        bpu.train(&inst.sinst, &p.snapshot, taken, target);
        timed(&mut train, t);
    }
    let net = |(ns, n): (u64, u64)| (ns as f64 - timer_ns * n as f64).max(0.0) as u64;
    acc.predict_ns += net(predict);
    acc.train_ns += net(train);
    acc.predicts += predict.1;
    acc.trains += train.1;
}

/// The stream through a standalone renamer with the job's scheme and
/// register-file size: each uop issues at rename, and the oldest uop
/// precommits and commits whenever `can_rename()` is false.
fn replay_renamer(job: &Job, insts: &[DynInst], acc: &mut Acc) {
    let cfg = job.core_config();
    let width = cfg.fetch_width.max(1) as u64;
    let mut renamer = Renamer::new(&cfg.rename);
    let mut window = VecDeque::new();
    let t = Instant::now();
    for (i, inst) in insts.iter().enumerate() {
        let cycle = 1 + i as u64 / width;
        renamer.tick(cycle);
        while !renamer.can_rename() {
            let Some(mut oldest) = window.pop_front() else { break };
            renamer.on_precommit(&mut oldest, cycle);
            renamer.on_commit(&oldest, cycle);
        }
        let uop = renamer.rename(&inst.sinst, i as u64, cycle, false);
        renamer.on_issue(&uop.psrcs, cycle);
        window.push_back(uop);
    }
    black_box(&renamer);
    acc.rename_ns += t.elapsed().as_nanos() as u64;
    acc.renames += insts.len() as u64;
}

/// Captures `job`'s program, `records` long, into an empty cache
/// directory: the trace layer's write path.
fn capture(job: &Job, records: u64, dir: &Path, acc: &mut Acc) -> Result<PathBuf, String> {
    let cache = TraceCache::new(dir).map_err(|e| format!("trace cache: {e}"))?;
    let interval = atr_trace::writer::DEFAULT_CHECKPOINT_INTERVAL;
    let t = Instant::now();
    let (path, _) = cache
        .ensure(&job.program, job.profile, interval, records)
        .map_err(|e| format!("capturing {}: {e}", job.profile))?;
    acc.capture_ns += t.elapsed().as_nanos() as u64;
    acc.captured += records;
    acc.capture_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
    Ok(path)
}

/// Re-runs `job` over the captured trace, fast-forwarded to the job's
/// start, behind the same timing wrapper as the live run: the trace
/// layer's read path. Returns the replay run's digest.
fn replay(job: &Job, path: &Path, acc: &mut Acc) -> Result<Digest, String> {
    let mut replay = TraceReplay::open(path, job.program.clone())
        .map_err(|e| format!("opening the {} trace: {e}", job.profile))?;
    if job.start > 0 {
        let at = replay.fast_forward_to(job.start).map_err(|e| format!("fast-forward: {e}"))?;
        if at != job.start {
            return Err(format!("fast-forward reached {at}, not the point's start {}", job.start));
        }
    }
    let tally = Arc::new(Mutex::new(GetTally::default()));
    let source = TimedSource::boxed(Box::new(replay), &tally);
    let result = atr_sim::run_with_source(&job.base, source, &job.spec);
    acc.replay.add(&tally.lock().expect("tally lock is never poisoned"));
    Ok(Digest::of(&job.label, &result))
}

/// Tick-traces every job, then replays each stream region through the
/// memory, frontend, renamer and trace layers.
fn run_jobs(jobs: &[Job], checker: &mut Checker, timer_ns: f64) -> Acc {
    let mut acc = Acc { timer_ns, ..Acc::default() };
    let t = Instant::now();
    let want: Vec<Digest> = jobs.iter().map(|j| Digest::of(&j.label, &j.want)).collect();
    let got: Vec<Digest> = jobs.iter().map(|j| traced_job(j, &mut acc)).collect();
    acc.traced_wall_s = t.elapsed().as_secs_f64();
    checker.check_identity("traced vs untraced", &want, &got);

    // Jobs by program, then by stream region within it.
    let mut regions: BTreeMap<&str, BTreeMap<u64, Vec<usize>>> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        regions.entry(job.profile).or_default().entry(job.start).or_default().push(i);
    }
    let dir = PathBuf::from(OUT_DIR).join(format!("trace-{}", std::process::id()));
    let mut replay_want = Vec::new();
    let mut replay_got = Vec::new();
    for by_start in regions.values() {
        // One capture per program covers every region and every index
        // the live runs fetched, including fetch run-ahead.
        let slack = 2 * jobs[0].base.rob_size as u64 + 8192;
        let records = by_start
            .values()
            .flatten()
            .map(|&i| jobs[i].start + jobs[i].want.stats.retired + slack)
            .max()
            .unwrap_or(0);
        let first_job = &jobs[by_start.values().next().expect("non-empty")[0]];
        let path = capture(first_job, records, &dir, &mut acc);
        for idx in by_start.values() {
            let first = &jobs[idx[0]];
            let retired = idx.iter().map(|&i| jobs[i].want.stats.retired).max().unwrap_or(0);
            let insts = stream(&first.program, first.start, retired);
            let stats = &acc.stats[idx[0]];
            let cpi = ratio(stats.cycles as f64, stats.retired as f64);
            replay_mem(&first.base, &insts, cpi, &mut acc);
            replay_frontend(&first.base, &insts, timer_ns, &mut acc);
            for &i in idx {
                let n = jobs[i].want.stats.retired as usize;
                replay_renamer(&jobs[i], &insts[..n.min(insts.len())], &mut acc);
            }
            replay_want.push(Digest::of(&first.label, &first.want));
            match path.as_ref().map_err(String::clone).and_then(|p| replay(first, p, &mut acc)) {
                Ok(d) => replay_got.push(d),
                Err(e) => {
                    replay_want.pop();
                    checker.attempted += 1;
                    checker.failed += 1;
                    checker.problems.push(e);
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    checker.check_identity("trace replay vs live", &replay_want, &replay_got);
    acc
}

/// Per-layer metrics shared by every workload.
fn layer_metrics(acc: &Acc, timer_ns: f64, untraced_s: f64, traced_s: f64) -> Vec<Metric> {
    let tick_total = acc.tick_total_ns as f64;
    let cycles = acc.sum(|s| s.cycles) as f64;
    let retired = acc.sum(|s| s.retired) as f64;
    let fetched = acc.sum(|s| s.fetched) as f64;
    let mut ticks = acc.tick_ns.clone();
    let ns_per_get = acc.live.ns_per_call(timer_ns);
    let workload_share = ratio(ns_per_get * acc.live.calls as f64, tick_total);

    let caches: Vec<_> = acc.stats.iter().map(|s| s.caches).collect();
    let l1i: u64 = caches.iter().map(|c| c.0.accesses()).sum();
    let l1d: u64 = caches.iter().map(|c| c.1.accesses()).sum();
    let l1d_miss: u64 = caches.iter().map(|c| c.1.misses).sum();
    let llc: u64 = caches.iter().map(|c| c.3.accesses()).sum();
    let llc_miss: u64 = caches.iter().map(|c| c.3.misses).sum();
    let pf_fills: u64 = caches
        .iter()
        .map(|c| c.0.prefetch_fills + c.1.prefetch_fills + c.2.prefetch_fills + c.3.prefetch_fills)
        .sum();
    let pf_useful: u64 = caches
        .iter()
        .map(|c| {
            c.0.prefetch_useful + c.1.prefetch_useful + c.2.prefetch_useful + c.3.prefetch_useful
        })
        .sum();
    let ns_per_access = ratio(acc.mem_ns as f64, acc.mem_accesses as f64);
    let mem_share = ratio(ns_per_access * (l1i + l1d) as f64, tick_total);

    let ns_per_predict = ratio(acc.predict_ns as f64, acc.predicts as f64);
    let ns_per_train = ratio(acc.train_ns as f64, acc.trains as f64);
    // Wrong-path fetch predicts too: scale the correct-path count by
    // fetched/retired. Only resolved correct-path branches train.
    let predicts_real = acc.predicts as f64 * ratio(fetched, retired);
    let frontend_share =
        ratio(ns_per_predict * predicts_real + ns_per_train * acc.trains as f64, tick_total);

    let ns_per_uop = ratio(acc.rename_ns as f64, acc.renames as f64);
    let renamed_real = retired + acc.sum(|s| s.wrong_path_renamed) as f64;
    let core_share = ratio(ns_per_uop * renamed_real, tick_total);
    let releases = acc.sum(|s| s.int_prf.releases + s.fp_prf.releases) as f64;
    let atomic = acc.sum(|s| s.int_prf.released_atomic + s.fp_prf.released_atomic) as f64;

    let replay_ns = acc.replay.ns_per_call(timer_ns);
    let below = workload_share + mem_share + frontend_share + core_share;
    vec![
        metric("pipeline.cycles", cycles, "cycles"),
        metric("pipeline.tick_ns_p50", quantile_u32(&mut ticks, 0.50), "ns"),
        metric("pipeline.tick_ns_p99", quantile_u32(&mut ticks, 0.99), "ns"),
        metric("pipeline.ns_per_cycle", ratio(tick_total, cycles), "ns"),
        metric("pipeline.self_share", (1.0 - below).max(0.0), "ratio"),
        metric(
            "pipeline.wrong_path_fetch_ratio",
            ratio(acc.sum(|s| s.wrong_path_fetched) as f64, fetched),
            "ratio",
        ),
        metric(
            "pipeline.freelist_stall_ratio",
            ratio(acc.sum(|s| s.rename_freelist_stalls) as f64, cycles),
            "ratio",
        ),
        metric("workload.get_calls", acc.live.calls as f64, "calls"),
        metric("workload.ns_per_get", ns_per_get, "ns"),
        metric("workload.share", workload_share, "ratio"),
        metric("workload.gets_per_retired", ratio(acc.live.calls as f64, retired), "ratio"),
        metric("workload.build_ms", acc.build_ns as f64 / 1e6, "ms"),
        metric(
            "trace.capture_ns_per_inst",
            ratio(acc.capture_ns as f64, acc.captured as f64),
            "ns",
        ),
        metric("trace.bytes_per_inst", ratio(acc.capture_bytes as f64, acc.captured as f64), "B"),
        metric("trace.replay_ns_per_get", replay_ns, "ns"),
        metric("trace.replay_vs_live", ratio(ns_per_get, replay_ns), "ratio"),
        metric("mem.l1d_accesses", l1d as f64, "accesses"),
        metric("mem.l1d_miss_ratio", ratio(l1d_miss as f64, l1d as f64), "ratio"),
        metric("mem.llc_miss_ratio", ratio(llc_miss as f64, llc as f64), "ratio"),
        metric("mem.dram_reads", acc.sum(|s| s.dram.0) as f64, "reads"),
        metric("mem.prefetch_useful_ratio", ratio(pf_useful as f64, pf_fills as f64), "ratio"),
        metric("mem.ns_per_access", ns_per_access, "ns"),
        metric("mem.share", mem_share, "ratio"),
        metric("frontend.cond_branches", acc.sum(|s| s.cond_branches) as f64, "branches"),
        metric(
            "frontend.mispredict_ratio",
            ratio(acc.sum(|s| s.cond_mispredicts) as f64, acc.sum(|s| s.cond_branches) as f64),
            "ratio",
        ),
        metric("frontend.ns_per_predict", ns_per_predict, "ns"),
        metric("frontend.ns_per_train", ns_per_train, "ns"),
        metric("frontend.share", frontend_share, "ratio"),
        metric("core.ns_per_uop", ns_per_uop, "ns"),
        metric("core.share", core_share, "ratio"),
        metric("core.atomic_release_ratio", ratio(atomic, releases), "ratio"),
        metric(
            "core.markings_per_kinst",
            ratio(acc.sum(|s| s.markings) as f64 * 1e3, retired),
            "1/kinst",
        ),
        metric("trace_overhead", ratio(traced_s, untraced_s), "ratio"),
    ]
}

/// Times `SpecProfile::build` for the named profiles.
fn time_builds(names: &[&'static str]) -> u64 {
    let profiles: Vec<_> =
        names.iter().map(|n| spec::find_profile(n).expect("known profile")).collect();
    let t = Instant::now();
    for profile in &profiles {
        black_box(profile.build());
    }
    t.elapsed().as_nanos() as u64
}

/// The instrumented run of `workload`.
pub fn traced(workload: Workload, setup: &Setup, checker: &mut Checker) -> Traced {
    let timer_ns = timer_overhead_ns();
    println!(
        "an empty timed section reads {timer_ns:.1} ns; subtracted from every timed call and tick"
    );
    match setup {
        Setup::Core { core, points } => {
            let ready = workloads::sources(points);
            let t = Instant::now();
            let reference = workloads::core_batch(core, points, ready);
            let untraced_s = t.elapsed().as_secs_f64();
            let digests: Vec<Digest> =
                points.iter().zip(&reference).map(|(p, r)| Digest::of(&p.label, r)).collect();
            checker.check_all(&digests);
            let jobs: Vec<Job> = points
                .iter()
                .zip(reference)
                .map(|(p, want)| Job {
                    label: p.label.clone(),
                    profile: p.profile,
                    program: p.program.clone(),
                    start: p.start,
                    base: core.clone(),
                    spec: p.spec.clone(),
                    want,
                })
                .collect();
            let mut acc = run_jobs(&jobs, checker, timer_ns);
            let batch = workload.core_batch().expect("core workloads have a batch");
            acc.build_ns = time_builds(batch.profiles);
            let mut metrics = layer_metrics(&acc, timer_ns, untraced_s, acc.traced_wall_s);
            metrics.extend(sim_not_run(workload));
            let instructions = jobs.iter().map(|j| j.want.stats.retired).sum();
            Traced { metrics, points: jobs.len(), instructions }
        }
        Setup::Figures { sim, session, points } => {
            traced_figures(sim, session, points, timer_ns, checker)
        }
    }
}

/// `sim` metrics for a workload that bypasses the executor: zeros, with
/// the reason on standard output.
fn sim_not_run(workload: Workload) -> Vec<Metric> {
    println!(
        "sim: not run on {}: its points run serially through atr_sim::run_with_source, bypassing the \
         executor, matrix and assembly; sim.* read 0",
        workload.name()
    );
    SIM_METRICS.iter().map(|(name, unit)| metric(*name, 0.0, unit)).collect()
}

/// The `sim` layer's metrics, in the order `traced_figures` computes them.
const SIM_METRICS: [(&str, &str); 11] = [
    ("sim.points_requested", "points"),
    ("sim.points_simulated", "points"),
    ("sim.dedup_ratio", "ratio"),
    ("sim.point_list_ms", "ms"),
    ("sim.ensure_s", "s"),
    ("sim.assemble_ms", "ms"),
    ("sim.serialize_ms", "ms"),
    ("sim.point_ms_p50", "ms"),
    ("sim.point_ms_p98", "ms"),
    ("sim.worker_busy_ratio", "ratio"),
    ("sim.telemetry_perturbed_points", "points"),
];

fn traced_figures(
    sim: &SimConfig,
    session: &atr_sim::Session,
    points: &[SimPoint],
    timer_ns: f64,
    checker: &mut Checker,
) -> Traced {
    let t = Instant::now();
    black_box(atr_sim::experiments::full_pass_points(sim));
    let point_list_ms = t.elapsed().as_secs_f64() * 1e3;

    // The untraced pass: the reference results and the phase timings.
    let t = Instant::now();
    let (plain, phases) = figure_pass(sim, session, points);
    let untraced_s = t.elapsed().as_secs_f64();
    checker.point_failures(plain.point_failures);
    let digests = pass_digests(&plain);
    checker.check_all(&digests);
    checker.check_figures(&plain.figures);

    // The traced pass: the executor's own per-point telemetry records.
    let records = PathBuf::from(OUT_DIR).join(format!("telemetry-{}.jsonl", std::process::id()));
    let _ = std::fs::create_dir_all(OUT_DIR);
    let _ = std::fs::remove_file(&records);
    std::env::set_var("ATR_TELEMETRY_OUT", &records);
    let stats_level =
        TelemetryConfig { level: TelemetryLevel::Stats, ..TelemetryConfig::default() };
    let traced_session = workloads::session(session.threads, stats_level);
    let t = Instant::now();
    let (traced_pass, traced_phases) = figure_pass(sim, &traced_session, points);
    let traced_s = t.elapsed().as_secs_f64();
    std::env::remove_var("ATR_TELEMETRY_OUT");
    checker.point_failures(traced_pass.point_failures);
    // The executor's telemetry observer turns on lifetime logging, which
    // makes non-ATR renamers count marking operations: `markings` moves
    // while every timing result stays put. That pass is therefore held
    // to the golden fields, and the points whose counters it moved are
    // reported (`sim.telemetry_perturbed_points`).
    let telemetry_digests = pass_digests(&traced_pass);
    checker.compare("telemetry pass vs untraced", &digests, &telemetry_digests, false);
    let perturbed = digests.iter().zip(&telemetry_digests).filter(|(a, b)| a != b).count();
    let walls = point_walls(&records);
    let _ = std::fs::remove_file(&records);
    if walls.len() != plain.simulated {
        checker.attempted += 1;
        checker.failed += 1;
        checker.problems.push(format!(
            "{} telemetry records for {} points",
            walls.len(),
            plain.simulated
        ));
    }
    let busy: f64 = walls.iter().sum();

    // Tick timing and layer replays on a fixed subset of the points.
    let jobs: Vec<Job> = plain
        .results
        .iter()
        .step_by(FIGURES_SUBSET_STRIDE)
        .map(|(point, want)| {
            let mut base = sim.core.clone();
            point.tweak.apply(&mut base);
            Job {
                label: workloads::figure_label(point),
                profile: point.profile,
                program: spec::find_profile(point.profile)
                    .expect("figure profiles are known")
                    .build(),
                start: 0,
                base,
                // The matrix may serve a point from its events-collecting
                // twin; the result then carries the requested log.
                spec: RunSpec {
                    collect_events: point.collect_events || !want.lifetimes.is_empty(),
                    ..workloads::run_spec(point.scheme, point.rf_size, point.warmup, point.measure)
                },
                want: want.clone(),
            }
        })
        .collect();
    println!(
        "figures-tiny: pipeline, workload, mem, frontend, core and trace layers measured on {} of {} \
         simulated points (every {FIGURES_SUBSET_STRIDE}th), re-simulated serially",
        jobs.len(),
        plain.simulated
    );
    let mut acc = run_jobs(&jobs, checker, timer_ns);
    let names: Vec<&'static str> = spec::all_profiles().iter().map(|p| p.name).collect();
    acc.build_ns = time_builds(&names);

    let mut metrics = layer_metrics(&acc, timer_ns, untraced_s, traced_s);
    let ms = |s: f64| s * 1e3;
    let values = [
        plain.requested as f64,
        plain.simulated as f64,
        ratio(plain.requested as f64, plain.simulated as f64),
        point_list_ms,
        phases[0],
        ms(phases[1]),
        ms(phases[2]),
        ms(median(&walls)),
        ms(quantile(&walls, 0.98)),
        ratio(busy, session.threads as f64 * traced_phases[0]),
        perturbed as f64,
    ];
    metrics.extend(SIM_METRICS.iter().zip(values).map(|((name, unit), v)| metric(*name, v, unit)));
    let instructions = digests.iter().map(|d| d.retired).sum();
    Traced { metrics, points: digests.len(), instructions }
}

fn pass_digests(pass: &FigurePass) -> Vec<Digest> {
    pass.results.iter().map(|(p, r)| Digest::of(&workloads::figure_label(p), r)).collect()
}

/// Per-point `wall_s` from the executor's `atr-run-telemetry-v1`
/// records.
fn point_walls(path: &Path) -> Vec<f64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines().filter_map(|l| Json::parse(l).ok()?.get("wall_s")?.as_f64()).collect()
}
