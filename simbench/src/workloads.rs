//! The three workloads: their inputs (set-up) and their untraced,
//! timed sections.

use crate::check::{Checker, Digest};
use crate::host;
use atr_core::ReleaseScheme;
use atr_isa::DynInst;
use atr_pipeline::CoreConfig;
use atr_sim::experiments as exp;
use atr_sim::{RunMatrix, RunResult, RunSpec, Session, SimConfig, SimPoint};
use atr_telemetry::TelemetryConfig;
use atr_workload::behavior::mix64;
use atr_workload::{spec, Oracle, Program, TraceSource};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// `figures-tiny` measurement budget: the CI tiny pass.
pub const FIGURES_WARMUP: u64 = 500;
/// See [`FIGURES_WARMUP`].
pub const FIGURES_MEASURE: u64 = 2_000;

/// One workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full figure pass at the tiny budget, through the executor.
    FiguresTiny,
    /// Compute profiles on a 64-entry register file, run serially.
    SmallRfCompute,
    /// Memory-bound profiles on a 224-entry register file, run serially.
    LargeRfMemory,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::FiguresTiny, Workload::SmallRfCompute, Workload::LargeRfMemory];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresTiny => "figures-tiny",
            Workload::SmallRfCompute => "small-rf-compute",
            Workload::LargeRfMemory => "large-rf-memory",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The serial core batch behind this workload (`None` for
    /// `figures-tiny`, which runs through the executor).
    pub fn core_batch(self) -> Option<&'static CoreBatch> {
        match self {
            Workload::FiguresTiny => None,
            Workload::SmallRfCompute => Some(&SMALL_RF_COMPUTE),
            Workload::LargeRfMemory => Some(&LARGE_RF_MEMORY),
        }
    }
}

/// A fixed batch of points run one after another through
/// `atr_sim::run_with_source`: every profile × stream region × scheme.
#[derive(Debug)]
pub struct CoreBatch {
    pub profiles: &'static [&'static str],
    pub rf_size: usize,
    pub schemes: &'static [ReleaseScheme],
    /// Seed-chosen stream regions per profile.
    pub regions: u64,
    /// Detailed warmup instructions per point.
    pub warmup: u64,
    /// Measured instructions per point.
    pub measure: u64,
}

pub const SMALL_RF_COMPUTE: CoreBatch = CoreBatch {
    profiles: &["548.exchange2_r", "525.x264_r", "508.namd_r", "519.lbm_r"],
    rf_size: 64,
    schemes: &ReleaseScheme::ALL,
    regions: 1,
    warmup: 20_000,
    measure: 80_000,
};

pub const LARGE_RF_MEMORY: CoreBatch = CoreBatch {
    profiles: &["505.mcf_r", "520.omnetpp_r", "502.gcc_r"],
    rf_size: 224,
    schemes: &[ReleaseScheme::Baseline, ReleaseScheme::Combined { redefine_delay: 0 }],
    regions: 12,
    warmup: 500,
    measure: 1_000,
};

/// One point of a core batch: its program, where its stream starts,
/// and its run spec (whose warmup counts from index 0, so the detailed
/// warmup is `spec.warmup - start`).
#[derive(Debug, Clone)]
pub struct CorePoint {
    pub label: String,
    pub profile: &'static str,
    pub program: Arc<Program>,
    pub start: u64,
    pub spec: RunSpec,
}

/// Everything a workload builds before its timed section.
pub enum Setup {
    Figures { sim: SimConfig, session: Session, points: Vec<SimPoint> },
    Core { core: CoreConfig, points: Vec<CorePoint> },
}

/// Where region `region` of `regions` starts under benchmark seed
/// `seed`: a checkpoint-aligned index in the first 64Ki instructions of
/// the profile's program. The range is cut into one stratum per region
/// and the seed picks the offset inside each, so every seed samples the
/// whole range evenly. The seed picks the regions a batch simulates;
/// the programs themselves are the figures' SPEC stand-ins.
pub fn stream_start(seed: u64, region: u64, regions: u64) -> u64 {
    let steps = 256 / regions.max(1);
    let offset = mix64(seed ^ mix64(region)) % steps;
    (region * steps + offset) * atr_trace::writer::DEFAULT_CHECKPOINT_INTERVAL
}

/// A live oracle positioned at stream index `start`: the correct-path
/// stream from there on, generated functionally up to `start` first.
struct StartedOracle {
    oracle: Oracle,
    start: u64,
}

impl TraceSource for StartedOracle {
    fn program(&self) -> &Arc<Program> {
        self.oracle.program()
    }

    fn get(&mut self, idx: u64) -> &DynInst {
        self.oracle.get(idx)
    }

    fn release_before(&mut self, idx: u64) {
        self.oracle.release_before(idx);
    }

    fn clear_exception(&mut self, idx: u64) {
        self.oracle.clear_exception(idx);
    }

    fn start_index(&self) -> u64 {
        self.start
    }

    fn generated(&self) -> u64 {
        self.oracle.generated()
    }
}

/// The stream source of a point that starts at `start`.
pub fn source(program: &Arc<Program>, start: u64) -> Box<dyn TraceSource> {
    let mut oracle = Oracle::new(program.clone());
    // Step through in chunks so the oracle's window stays small.
    let mut idx = 0;
    while idx < start {
        idx = (idx + 256).min(start);
        oracle.get(idx);
        oracle.release_before(idx);
    }
    Box::new(StartedOracle { oracle, start })
}

/// An env-free session: every field a literal, `threads` at most the
/// machine's parallelism.
pub fn session(threads: usize, telemetry: TelemetryConfig) -> Session {
    Session {
        threads,
        progress: false,
        audit: false,
        telemetry,
        trace_cache: None,
        trace_ff: false,
        journal: None,
        retries: atr_sim::session::DEFAULT_RETRIES,
        fault_injection: None,
    }
}

/// A run spec built as a literal (no budget read from the environment).
pub fn run_spec(scheme: ReleaseScheme, rf_size: usize, warmup: u64, measure: u64) -> RunSpec {
    RunSpec {
        scheme,
        rf_size,
        warmup,
        measure,
        collect_events: false,
        audit: false,
        telemetry: TelemetryConfig::default(),
    }
}

/// Builds the workload's inputs: the point list and, for the core
/// batches, the programs and the seed's stream start.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    match workload.core_batch() {
        None => {
            let sim = SimConfig {
                core: CoreConfig::default(),
                warmup: FIGURES_WARMUP,
                measure: FIGURES_MEASURE,
            };
            let points = exp::full_pass_points(&sim);
            Setup::Figures {
                sim,
                session: session(host::nproc(), TelemetryConfig::default()),
                points,
            }
        }
        Some(batch) => {
            let mut points = Vec::new();
            for &name in batch.profiles {
                let program = spec::find_profile(name)
                    .expect("core batches name known SPEC profiles")
                    .build();
                for region in 0..batch.regions {
                    let start = stream_start(seed, region, batch.regions);
                    for &scheme in batch.schemes {
                        points.push(CorePoint {
                            label: format!("{name} {}@{} r{region}", scheme.label(), batch.rf_size),
                            profile: name,
                            program: program.clone(),
                            start,
                            spec: run_spec(
                                scheme,
                                batch.rf_size,
                                start + batch.warmup,
                                batch.measure,
                            ),
                        });
                    }
                }
            }
            Setup::Core { core: CoreConfig::default(), points }
        }
    }
}

/// Host cost of one timed repetition (a figure pass or a core batch).
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub cycles: u64,
    pub retired: u64,
}

/// The figure pass's results: one entry per simulated point, in the
/// order its first requester appears in the point list.
pub struct FigurePass {
    pub results: Vec<(SimPoint, RunResult)>,
    pub requested: usize,
    pub simulated: usize,
    pub point_failures: usize,
    /// Serialized figure JSON, in assembly order.
    pub figures: Vec<(&'static str, String)>,
}

/// Runs the figure pass once: ensure every point on a fresh matrix,
/// assemble every figure and serialize it. Returns the results and the
/// phase timings `(ensure, assemble, serialize)` in seconds.
pub fn figure_pass(
    sim: &SimConfig,
    session: &Session,
    points: &[SimPoint],
) -> (FigurePass, [f64; 3]) {
    let t0 = Instant::now();
    let mut matrix = RunMatrix::new();
    matrix.ensure_with(session, &sim.core, points);
    let ensure_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let rows = assemble_all(sim, &matrix);
    let assemble_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let figures = rows.into_iter().map(|(name, json)| (name, json.pretty())).collect();
    let serialize_s = t2.elapsed().as_secs_f64();

    // The matrix hands out one shared result per simulated key, so the
    // address identifies the simulated point behind each request.
    let mut seen: HashSet<*const RunResult> = HashSet::new();
    let mut results = Vec::new();
    for point in points {
        if let Some(result) = matrix.try_get(point) {
            if seen.insert(result as *const RunResult) {
                results.push((point.clone(), result.clone()));
            }
        }
    }
    let pass = FigurePass {
        results,
        requested: matrix.requested(),
        simulated: matrix.executed(),
        point_failures: matrix.failed(),
        figures,
    };
    (pass, [ensure_s, assemble_s, serialize_s])
}

/// A unique label for a figure point: [`SimPoint::label`] plus the
/// redefine delay, which the label leaves out.
pub fn figure_label(point: &SimPoint) -> String {
    match point.scheme {
        ReleaseScheme::Atr { redefine_delay: d }
        | ReleaseScheme::Combined { redefine_delay: d }
            if d > 0 =>
        {
            format!("{} delay={d}", point.label())
        }
        _ => point.label(),
    }
}

/// Every `figNN_assemble` of the pass, as JSON values.
fn assemble_all(sim: &SimConfig, m: &RunMatrix) -> Vec<(&'static str, atr_json::Json)> {
    use atr_json::ToJson;
    let mut ablations = exp::ablation_move_elimination_assemble(sim, m);
    ablations.extend(exp::ablation_counter_width_assemble(sim, m));
    vec![
        ("fig01", exp::fig01_assemble(sim, m).to_json()),
        ("fig04", exp::fig04_assemble(sim, m).to_json()),
        ("fig06", exp::fig06_assemble(sim, m).to_json()),
        ("fig10", exp::fig10_assemble(sim, m, &[64, 224]).to_json()),
        ("fig11", exp::fig11_assemble(sim, m).to_json()),
        ("fig12", exp::fig12_assemble(sim, m).to_json()),
        ("fig13", exp::fig13_assemble(sim, m).to_json()),
        ("fig14", exp::fig14_assemble(sim, m).to_json()),
        ("fig15", exp::fig15_assemble(sim, m, 0.03, 8).to_json()),
        ("ablations", ablations.to_json()),
    ]
}

/// Positions one stream source per point (functional generation up to
/// each start; kept out of the timed section).
pub fn sources(points: &[CorePoint]) -> Vec<Box<dyn TraceSource>> {
    points.iter().map(|p| source(&p.program, p.start)).collect()
}

/// Runs every point of a core batch once, serially, through
/// `atr_sim::run_with_source`.
pub fn core_batch(
    core: &CoreConfig,
    points: &[CorePoint],
    sources: Vec<Box<dyn TraceSource>>,
) -> Vec<RunResult> {
    points
        .iter()
        .zip(sources)
        .map(|(p, src)| atr_sim::run_with_source(core, src, &p.spec))
        .collect()
}

/// What the untraced timed section measured.
pub struct Measured {
    pub reps: Vec<Rep>,
    pub digests: Vec<Digest>,
    pub figure_json: Vec<(&'static str, String)>,
}

/// The untraced timed section: repeats the workload's unit of work
/// (one figure pass or one core batch) until `seconds` would be
/// exceeded by the next repetition, and at least once. Every
/// repetition's results are checked.
pub fn measure(setup: &Setup, seconds: f64, checker: &mut Checker) -> Measured {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<Measured> = None;
    loop {
        let ready = match setup {
            Setup::Core { points, .. } => sources(points),
            Setup::Figures { .. } => Vec::new(),
        };
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let (digests, figure_json) = match setup {
            Setup::Figures { sim, session, points } => {
                let (pass, _) = figure_pass(sim, session, points);
                checker.point_failures(pass.point_failures);
                let digests: Vec<Digest> =
                    pass.results.iter().map(|(p, r)| Digest::of(&figure_label(p), r)).collect();
                (digests, pass.figures)
            }
            Setup::Core { core, points } => {
                let results = core_batch(core, points, ready);
                let digests = points.iter().zip(&results).map(|(p, r)| Digest::of(&p.label, r));
                (digests.collect(), Vec::new())
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu0;
        let rep = Rep {
            wall_s,
            cpu_s,
            cycles: digests.iter().map(|d: &Digest| d.cycles).sum(),
            retired: digests.iter().map(|d: &Digest| d.retired).sum(),
        };
        reps.push(rep);
        match &first {
            None => {
                checker.check_all(&digests);
                checker.check_figures(&figure_json);
                first = Some(Measured { reps: Vec::new(), digests, figure_json });
            }
            Some(f) => checker.check_identity("repeat", &f.digests, &digests),
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + wall_s > seconds {
            break;
        }
    }
    let mut measured = first.expect("at least one repetition ran");
    measured.reps = reps;
    measured
}
