//! The one driver of the paper's evaluation: regenerates every table
//! and figure in DESIGN.md's index, or only the ones named.
//!
//! ```text
//! all_experiments                    # every entry
//! all_experiments fig10 fig13        # only these entries
//! ```
//!
//! The union of the selected entries' simulation points is ensured
//! **once** on a shared [`atr_sim::RunMatrix`], so points that several
//! figures request (the baselines of fig01/fig10/fig11/fig15, the
//! lifetime-log points of the analysis figures) simulate exactly once,
//! in parallel (`ATR_SIM_THREADS` workers). Each entry then assembles
//! its rows from the cache, writes `results/<name>.json`
//! (`ATR_RESULTS_DIR`-relocatable) when it is a figure, and prints its
//! table and a one-line summary. An unknown name exits non-zero and
//! lists the valid ones.
//!
//! Budget control: `ATR_SIM_WARMUP` / `ATR_SIM_INSTS` (per measured
//! window). A full pass at the default budget takes tens of minutes.
//!
//! Tables and narrative go to **stderr** (via the `ATR_LOG` leveled
//! logger), so with `ATR_TELEMETRY=stats` and `ATR_TELEMETRY_OUT` unset,
//! stdout is pure JSONL: one run-telemetry record per simulated point.

use atr_analysis::{BulkReleaseLogic, CorePowerModel};
use atr_isa::RegClass;
use atr_json::ToJson;
use atr_pipeline::CoreConfig;
use atr_sim::experiments::{self as exp, RF_SWEEP};
use atr_sim::report::{coverage_marker, gain, pct, render_table, save_json};
use atr_sim::{config, RunMatrix, Session, SimConfig, SimPoint};
use atr_telemetry::{info, warn};
use atr_workload::spec::all_profiles;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// One selectable experiment: its simulation points and its report.
struct Entry {
    name: &'static str,
    points: fn(&SimConfig) -> Vec<SimPoint>,
    report: fn(&Pass),
}

/// Register file sizes of Fig 10.
const FIG10_RF: [usize; 2] = [64, 224];

/// Every experiment, in report order. The figure entries' points, in
/// this order, are exactly `experiments::full_pass_points`.
const ENTRIES: &[Entry] = &[
    Entry { name: "table1", points: no_points, report: table1 },
    Entry { name: "table2", points: no_points, report: table2 },
    Entry { name: "fig01", points: exp::fig01_points, report: fig01 },
    Entry { name: "fig04", points: exp::fig04_points, report: fig04 },
    Entry { name: "fig06", points: exp::fig06_points, report: fig06 },
    Entry { name: "fig10", points: |sim| exp::fig10_points(sim, &FIG10_RF), report: fig10 },
    Entry { name: "fig11", points: exp::fig11_points, report: fig11 },
    Entry { name: "fig12", points: exp::fig12_points, report: fig12 },
    Entry { name: "fig13", points: exp::fig13_points, report: fig13 },
    Entry { name: "fig14", points: exp::fig14_points, report: fig14 },
    Entry { name: "fig15", points: exp::fig15_points, report: fig15 },
    Entry { name: "ablations", points: ablation_points, report: ablations },
    Entry { name: "hw_overhead", points: no_points, report: hw_overhead },
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !ENTRIES.iter().any(|e| e.name == n.as_str())) {
        let valid: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        eprintln!(
            "all_experiments: unknown experiment {unknown:?}; valid names: {}",
            valid.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let selected: Vec<&Entry> =
        ENTRIES.iter().filter(|e| names.is_empty() || names.iter().any(|n| n == e.name)).collect();

    // Every ATR_* knob, resolved exactly once.
    let (warmup, measure) = config::budget();
    let sim = SimConfig { core: CoreConfig::default(), warmup, measure };
    let results = config::results_dir();
    let session = Session::from_env();
    let list: Vec<&str> = selected.iter().map(|e| e.name).collect();
    info!("running {} (warmup {warmup}, measure {measure}) ...", list.join(" "));
    info!("session: {}", session.describe());

    let t0 = Instant::now();
    // One shared matrix: declare everything, simulate the unique subset.
    let points: Vec<SimPoint> = selected.iter().flat_map(|e| (e.points)(&sim)).collect();
    let mut matrix = RunMatrix::new();
    if !points.is_empty() {
        matrix.ensure_with(&session, &sim.core, &points);
        info!("[{:>5.0?}] matrix: {}", t0.elapsed(), matrix.summary());
    }

    let pass = Pass { sim: &sim, matrix: &matrix, results: &results, t0 };
    for entry in &selected {
        (entry.report)(&pass);
    }

    if let Some(marker) = coverage_marker(matrix.failed(), matrix.executed()) {
        for (point, failure) in matrix.failures() {
            warn!("failed point {}: {failure}", point.label());
        }
        warn!("{marker}");
    }
    info!("done in {:?}; {}; JSON in {}", t0.elapsed(), matrix.summary(), results.display());
    ExitCode::SUCCESS
}

/// What an entry's report reads: the ensured matrix and where to write.
struct Pass<'a> {
    sim: &'a SimConfig,
    matrix: &'a RunMatrix,
    results: &'a Path,
    t0: Instant,
}

impl Pass<'_> {
    /// One summary line, stamped with the pass's elapsed time.
    fn note(&self, line: impl std::fmt::Display) {
        info!("[{:>5.0?}] {line}", self.t0.elapsed());
    }

    /// A titled table on stderr, with optional footer lines.
    fn table(&self, title: &str, headers: &[&str], rows: &[Vec<String>], footer: Option<&str>) {
        info!("{title}\n\n{}", render_table(headers, rows));
        if let Some(footer) = footer {
            info!("{footer}\n");
        }
    }

    /// A figure: its table, then `results/<name>.json`.
    fn figure<R: ToJson>(
        &self,
        name: &str,
        title: &str,
        headers: &[&str],
        rows: &[R],
        cells: impl Fn(&R) -> Vec<String>,
        footer: Option<&str>,
    ) {
        let table: Vec<Vec<String>> = rows.iter().map(cells).collect();
        self.table(title, headers, &table, footer);
        match save_json(self.results, name, rows) {
            Ok(path) => info!("saved {}", path.display()),
            Err(err) => warn!("could not save {name}.json: {err}"),
        }
    }
}

fn no_points(_: &SimConfig) -> Vec<SimPoint> {
    Vec::new()
}

fn ablation_points(sim: &SimConfig) -> Vec<SimPoint> {
    let mut points = exp::ablation_move_elimination_points(sim);
    points.extend(exp::ablation_counter_width_points(sim));
    points
}

/// Table 1 (processor configuration), rendered from the live config.
fn table1(pass: &Pass) {
    let rows: Vec<Vec<String>> =
        config::table1(&pass.sim.core).into_iter().map(|(k, v)| vec![k, v]).collect();
    pass.table(
        "Table 1: Processor Configuration (simulated)",
        &["Parameter", "Value"],
        &rows,
        None,
    );
}

/// Table 2 (the SPEC CPU 2017 list) with each profile's modeled traits.
fn table2(pass: &Pass) {
    let rows: Vec<Vec<String>> = all_profiles()
        .iter()
        .map(|p| {
            vec![
                p.name.to_owned(),
                p.class.to_string(),
                format!("{:.0}%", p.params.load_frac * 100.0),
                format!("{:.0}%", p.params.branch_entropy * 100.0),
                format!("{} MiB", p.params.mem_footprint >> 20),
                format!("{:.0}%", p.params.burst_frac * 100.0),
            ]
        })
        .collect();
    pass.table(
        "Table 2: SPEC CPU 2017 Benchmarks (synthetic stand-in profiles)",
        &["benchmark", "suite", "loads", "branch entropy", "footprint", "burst frac"],
        &rows,
        None,
    );
}

/// Fig 1: baseline IPC vs register file size (SPEC2017int), normalized
/// to an effectively infinite register file. Paper: 64 registers reach
/// only 37.7% of ideal IPC; ~280 are needed to stay within 5%.
fn fig01(pass: &Pass) {
    let rows = exp::fig01_assemble(pass.sim, pass.matrix);
    let footer = RF_SWEEP
        .iter()
        .map(|&rf| format!("average @{rf}: {}", pct(exp::fig01_average(&rows, rf))))
        .collect::<Vec<_>>()
        .join("\n");
    pass.figure(
        "fig01",
        "Fig 1: Normalized baseline IPC vs RF size (paper: 37.7% of ideal at 64)",
        &["benchmark", "rf", "ipc/ideal"],
        &rows,
        |r| vec![r.benchmark.clone(), r.rf_size.to_string(), pct(r.normalized_ipc)],
        Some(&footer),
    );
    pass.note(format!(
        "fig01: avg normalized IPC @64 = {} (paper 37.7%)",
        pct(exp::fig01_average(&rows, 64))
    ));
}

/// Fig 4: register lifecycle cycle-count distribution. Paper (int):
/// in-use 53.52%, unused 41.03%, verified-unused 5.05%; (fp) 78.27% /
/// 18.91% / 2.81%.
fn fig04(pass: &Pass) {
    let rows = exp::fig04_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig04",
        "Fig 4: Register lifecycle distribution\n\
         (paper: int 53.52/41.03/5.05%, fp 78.27/18.91/2.81%)",
        &["benchmark", "suite", "in-use", "unused", "verified-unused"],
        &rows,
        |r| {
            vec![
                r.benchmark.clone(),
                r.class.clone(),
                pct(r.in_use),
                pct(r.unused),
                pct(r.verified_unused),
            ]
        },
        None,
    );
    for r in rows.iter().filter(|r| r.benchmark.starts_with("average")) {
        pass.note(format!(
            "fig04 {}: in-use {} unused {} verified {} (paper int 53.5/41.0/5.1, fp 78.3/18.9/2.8)",
            r.benchmark,
            pct(r.in_use),
            pct(r.unused),
            pct(r.verified_unused)
        ));
    }
}

/// Fig 6: the atomic register ratio per benchmark. Paper: 17.04% (int)
/// and 13.14% (fp) of allocated registers on average, with non-branch
/// >= non-except >= atomic per benchmark.
fn fig06(pass: &Pass) {
    let rows = exp::fig06_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig06",
        "Fig 6: Atomic register ratio (paper: 17.04% int / 13.14% fp average)",
        &["benchmark", "suite", "non-branch", "non-except", "atomic"],
        &rows,
        |r| {
            vec![
                r.benchmark.clone(),
                r.class.clone(),
                pct(r.non_branch),
                pct(r.non_except),
                pct(r.atomic),
            ]
        },
        None,
    );
    for r in rows.iter().filter(|r| r.benchmark.starts_with("average")) {
        pass.note(format!(
            "fig06 {}: atomic {} (paper int 17.04%, fp 13.14%)",
            r.benchmark,
            pct(r.atomic)
        ));
    }
}

/// Fig 10: speedup of nonspec-ER / atomic / combined over the baseline
/// at 64 and 224 registers. Paper @64: atomic +5.70% (int) / +4.69%
/// (fp), nonspec-ER +13.91% / +14.43%, combined +3.23% / +3.27% over
/// nonspec-ER; @224: atomic +1.48% / +1.11%.
fn fig10(pass: &Pass) {
    let rows = exp::fig10_assemble(pass.sim, pass.matrix, &FIG10_RF);
    pass.figure(
        "fig10",
        "Fig 10: Scheme speedups over baseline @64/@224 registers",
        &["benchmark", "suite", "rf", "scheme", "speedup"],
        &rows,
        |r| {
            vec![
                r.benchmark.clone(),
                r.class.clone(),
                r.rf_size.to_string(),
                r.scheme.clone(),
                gain(r.speedup),
            ]
        },
        None,
    );
    for r in rows.iter().filter(|r| r.benchmark.starts_with("average")) {
        pass.note(format!(
            "fig10 {} @{} {}: {}",
            r.benchmark,
            r.rf_size,
            r.scheme,
            gain(r.speedup)
        ));
    }
}

/// Fig 11: atomic-scheme speedup across register file sizes 64...280.
/// Paper: shrinking from +5.70%/+4.69% (int/fp) at 64 to +0.93%/+0.53%
/// at 280.
fn fig11(pass: &Pass) {
    let rows = exp::fig11_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig11",
        "Fig 11: Atomic speedup vs RF size (paper: shrinking with size)",
        &["suite", "rf", "speedup"],
        &rows,
        |r| vec![r.class.clone(), r.rf_size.to_string(), gain(r.speedup)],
        None,
    );
    for r in &rows {
        pass.note(format!("fig11 {} @{}: {}", r.class, r.rf_size, gain(r.speedup)));
    }
}

/// Fig 12: consumers per atomic region. Paper: mostly 1-2; only namd
/// reaches up to five, so a 3-bit counter (sentinel at 7) loses nothing.
fn fig12(pass: &Pass) {
    let rows = exp::fig12_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig12",
        "Fig 12: Consumers per atomic region (paper: mostly 1-2; namd up to 5)",
        &["benchmark", "suite", "mean", "0", "1", "2", "3", "4", "5", "6", ">=7"],
        &rows,
        |r| {
            let mut cells = vec![r.benchmark.clone(), r.class.clone(), format!("{:.2}", r.mean)];
            cells.extend(r.buckets.iter().map(|b| pct(*b)));
            cells
        },
        None,
    );
    let mean_all: f64 = rows.iter().map(|r| r.mean).sum::<f64>() / rows.len() as f64;
    let namd = rows.iter().find(|r| r.benchmark.contains("namd"));
    pass.note(format!(
        "fig12: mean consumers/region {:.2}; namd mean {:.2} (paper: 1-2 typical, namd up to 5)",
        mean_all,
        namd.map_or(0.0, |r| r.mean)
    ));
}

/// Fig 13: pipelining the redefine/marking logic by 0/1/2 cycles.
/// Paper: negligible, because consumption comes much later than
/// redefinition (Fig 14).
fn fig13(pass: &Pass) {
    let rows = exp::fig13_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig13",
        "Fig 13: Redefine-pipeline delay sensitivity @64 registers",
        &["suite", "delay", "speedup vs baseline"],
        &rows,
        |r| vec![r.class.clone(), r.delay.to_string(), gain(r.speedup)],
        None,
    );
    for r in &rows {
        pass.note(format!("fig13 {} delay={}: {}", r.class, r.delay, gain(r.speedup)));
    }
}

/// Fig 14: mean cycles from rename to redefine, last consume and
/// redefiner commit within atomic regions. Paper: redefinition comes a
/// few cycles after rename, consumption much later, commit later still.
fn fig14(pass: &Pass) {
    let rows = exp::fig14_assemble(pass.sim, pass.matrix);
    pass.figure(
        "fig14",
        "Fig 14: Mean cycles from rename within atomic regions",
        &["benchmark", "suite", "to redefine", "to last consume", "to redefiner commit"],
        &rows,
        |r| {
            vec![
                r.benchmark.clone(),
                r.class.clone(),
                format!("{:.1}", r.rename_to_redefine),
                format!("{:.1}", r.rename_to_consume),
                format!("{:.1}", r.rename_to_commit),
            ]
        },
        None,
    );
    let avg = |f: fn(&exp::Fig14Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    pass.note(format!(
        "fig14: redefine {:.1}cy, consume {:.1}cy, commit {:.1}cy after rename",
        avg(|r| r.rename_to_redefine),
        avg(|r| r.rename_to_consume),
        avg(|r| r.rename_to_commit)
    ));
}

/// Fig 15: the smallest register file within 3% of the 280-register
/// baseline, per scheme, with the analytical power/area savings. Paper:
/// atomic 204 (-27.1%), nonspec-ER 212 (-24.3%), combined 196 (-30%);
/// ~5.5% power and ~2.7% area saved.
fn fig15(pass: &Pass) {
    let rows = exp::fig15_assemble(pass.sim, pass.matrix, 0.03, 8);
    let model = CorePowerModel::default();
    let base = model.estimate(280, 280);
    let savings = |required_rf: usize| {
        let est = model.estimate(required_rf, required_rf);
        (pct(est.power_saving_vs(&base)), pct(est.area_saving_vs(&base)))
    };
    pass.figure(
        "fig15",
        "Fig 15: RF size for <=3% slowdown vs baseline@280\n\
         (paper: atomic 204/-27.1%, nonspec-ER 212/-24.3%, combined 196/-30%,\n\
          ~5.5% power and ~2.7-2.9% area saving)",
        &["scheme", "required rf", "reduction", "power saving", "area saving"],
        &rows,
        |r| {
            let (power, area) = savings(r.required_rf);
            vec![r.scheme.clone(), r.required_rf.to_string(), pct(r.reduction), power, area]
        },
        None,
    );
    for r in &rows {
        let (power, area) = savings(r.required_rf);
        pass.note(format!(
            "fig15 {}: {} regs ({} reduction, {power} power, {area} area)",
            r.scheme,
            r.required_rf,
            pct(r.reduction),
        ));
    }
}

/// Design-choice ablations beyond the paper's figures: §6 move
/// elimination composed with ATR, and the §5.4 consumer-counter width.
fn ablations(pass: &Pass) {
    let mut rows = exp::ablation_move_elimination_assemble(pass.sim, pass.matrix);
    rows.extend(exp::ablation_counter_width_assemble(pass.sim, pass.matrix));
    let relative = |r: &exp::AblationRow| format!("{:+.2}%", (r.relative_ipc - 1.0) * 100.0);
    pass.figure(
        "ablations",
        "Ablations (ATR @64 registers, int suite)",
        &["study", "variant", "relative IPC"],
        &rows,
        |r| vec![r.study.clone(), r.variant.clone(), relative(r)],
        Some(
            "paper: §5.4 says 3-bit counters lose nothing; §6 says move\n\
             elimination composes with ATR.",
        ),
    );
    for r in &rows {
        pass.note(format!("ablation {} {}: {}", r.study, r.variant, relative(r)));
    }
}

/// §4.4 hardware overheads: consumer-counter storage and the bulk
/// no-early-release circuit. Paper: 3/64 = 4.6% scalar and 3/256 = 1.1%
/// vector storage; 42 logic levels, 2,960 gates, 2.6 GHz combinational
/// and >4 GHz with two extra pipeline stages.
fn hw_overhead(pass: &Pass) {
    let mut rows = Vec::new();
    for class in RegClass::ALL {
        let bits = class.bit_width();
        rows.push(vec![
            format!("{class} consumer counter"),
            format!("3 bits / {bits} -> {:.1}%", 3.0 / f64::from(bits) * 100.0),
        ]);
    }
    let r = BulkReleaseLogic::default().report();
    rows.push(vec!["mark signals (16 SRT + width-1)".into(), r.mark_signals.to_string()]);
    rows.push(vec!["gates (2-input equivalent)".into(), r.gates.to_string()]);
    rows.push(vec!["logic levels".into(), r.levels.to_string()]);
    rows.push(vec!["delay (ps, FO4=4.5ps, 100% margin)".into(), format!("{:.0}", r.delay_ps)]);
    rows.push(vec!["combinational fmax".into(), format!("{:.1} GHz", r.max_frequency_ghz(1))]);
    rows.push(vec!["3-stage pipelined fmax".into(), format!("{:.1} GHz", r.max_frequency_ghz(3))]);
    pass.table(
        "§4.4 Hardware overheads",
        &["quantity", "value"],
        &rows,
        Some("paper: 42 levels, 2,960 gates, 2.6 GHz combinational, >4 GHz pipelined"),
    );
    pass.note(format!(
        "§4.4: {} gates, {} levels, {:.1} GHz combinational (paper 2,960 / 42 / 2.6)",
        r.gates,
        r.levels,
        r.max_frequency_ghz(1)
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Running every entry requests exactly the points of the full
    /// pass, in the same order.
    #[test]
    fn entries_cover_the_full_pass() {
        let sim = SimConfig { core: CoreConfig::default(), warmup: 500, measure: 2_000 };
        let points: Vec<SimPoint> = ENTRIES.iter().flat_map(|e| (e.points)(&sim)).collect();
        assert_eq!(points, exp::full_pass_points(&sim));
    }

    #[test]
    fn entry_names_are_unique() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len());
    }
}
