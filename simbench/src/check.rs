//! Correctness gate: per-point digests, the committed golden file, and
//! the failure count every workload reports.

use atr_core::PrfStats;
use atr_sim::RunResult;
use std::collections::HashMap;

/// Golden digests of every workload at the default seed, one
/// tab-separated line per simulated point: `workload`, then
/// [`Digest::line`]. Regenerate with `--write-golden` (see README.md).
const GOLDEN: &str = include_str!("../golden.tsv");

/// The simulated outcome of one point that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub label: String,
    pub cycles: u64,
    pub retired: u64,
    pub flushes: u64,
    pub int_prf: PrfStats,
    pub fp_prf: PrfStats,
    pub ipc_bits: u64,
    /// `CoreStats::check_consistency` verdict.
    pub consistent: Result<(), String>,
    /// Every counter of the run, for identity checks.
    pub stats: String,
}

impl Digest {
    pub fn of(label: &str, r: &RunResult) -> Digest {
        Digest {
            label: label.to_owned(),
            cycles: r.stats.cycles,
            retired: r.stats.retired,
            flushes: r.stats.flushes,
            int_prf: r.stats.int_prf,
            fp_prf: r.stats.fp_prf,
            ipc_bits: r.ipc.to_bits(),
            consistent: r.stats.check_consistency(),
            stats: format!("{:?}", r.stats),
        }
    }

    /// The golden-file form: label, cycles, retired, flushes, the int
    /// and FP release breakdowns (allocations/commit/precommit/atomic/
    /// flush), and the IPC bit pattern.
    pub fn line(&self) -> String {
        let prf = |p: &PrfStats| {
            format!(
                "{}/{}/{}/{}/{}",
                p.allocations,
                p.released_commit,
                p.released_precommit,
                p.released_atomic,
                p.released_flush
            )
        };
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
            self.label,
            self.cycles,
            self.retired,
            self.flushes,
            prf(&self.int_prf),
            prf(&self.fp_prf),
            self.ipc_bits
        )
    }
}

/// Counts checked points and failures, and says why each failed.
#[derive(Debug)]
pub struct Checker {
    workload: &'static str,
    /// `Some` at the default seed: label → golden line.
    golden: Option<HashMap<String, String>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checker {
    pub fn new(workload: &'static str, check_golden: bool) -> Checker {
        let golden = check_golden.then(|| {
            GOLDEN
                .lines()
                .filter_map(|l| l.strip_prefix(workload)?.strip_prefix('\t'))
                .filter_map(|l| Some((l.split('\t').next()?.to_owned(), l.to_owned())))
                .collect()
        });
        Checker { workload, golden, attempted: 0, failed: 0, problems: Vec::new() }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Points the executor returned as `PointFailure`s.
    pub fn point_failures(&mut self, n: usize) {
        for _ in 0..n {
            self.attempted += 1;
            self.fail(format!("{}: a point returned a PointFailure", self.workload));
        }
    }

    /// First repetition: consistency and, at the default seed, the
    /// golden digest of every point (a golden point that was not
    /// simulated counts too).
    pub fn check_all(&mut self, digests: &[Digest]) {
        for d in digests {
            self.attempted += 1;
            if let Err(e) = &d.consistent {
                self.fail(format!("{}: inconsistent stats: {e}", d.label));
            } else if let Some(golden) = &self.golden {
                match golden.get(&d.label) {
                    Some(line) if *line == d.line() => {}
                    Some(line) => {
                        let msg = format!(
                            "{}: golden mismatch\n  want {line}\n  got  {}",
                            d.label,
                            d.line()
                        );
                        self.fail(msg);
                    }
                    None => self.fail(format!("{}: not in the golden file", d.label)),
                }
            }
        }
        if let Some(golden) = &self.golden {
            let points = golden.keys().filter(|k| !k.starts_with("json:")).count();
            let missing = points.saturating_sub(digests.len());
            for _ in 0..missing {
                self.fail(format!("{}: golden points were not simulated", self.workload));
            }
        }
    }

    /// At the default seed, each serialized figure must hash to its
    /// golden `json:<figure>` line.
    pub fn check_figures(&mut self, figures: &[(&'static str, String)]) {
        let Some(golden) = &self.golden else { return };
        let mut problems = Vec::new();
        for line in figure_lines(figures) {
            let key = line.split('\t').next().unwrap_or_default();
            if golden.get(key) != Some(&line) {
                problems.push(format!("{key}: serialized figure differs from the golden hash"));
            }
        }
        self.attempted += figures.len() as u64;
        for p in problems {
            self.fail(p);
        }
    }

    /// Two runs of the same points (a repeat, or traced vs untraced)
    /// must agree on every counter.
    pub fn check_identity(&mut self, what: &str, want: &[Digest], got: &[Digest]) {
        self.compare(what, want, got, true);
    }

    /// Compares two runs of the same points on every counter (`full`)
    /// or on the golden fields only.
    pub fn compare(&mut self, what: &str, want: &[Digest], got: &[Digest], full: bool) {
        if want.len() != got.len() {
            self.attempted += 1;
            self.fail(format!("{what}: {} points vs {}", got.len(), want.len()));
            return;
        }
        for (w, g) in want.iter().zip(got) {
            self.attempted += 1;
            let same =
                if full { w == g } else { w.line() == g.line() && w.consistent == g.consistent };
            if !same {
                let field = |d: &Digest| d.stats.split(", ").map(str::to_owned).collect::<Vec<_>>();
                let (wf, gf) = (field(w), field(g));
                let first = wf.iter().zip(&gf).find(|(a, b)| a != b);
                let detail =
                    first.map_or_else(String::new, |(a, b)| format!("\n  counter {a} vs {b}"));
                self.fail(format!(
                    "{what}: {} differs\n  want {}\n  got  {}{detail}",
                    g.label,
                    w.line(),
                    g.line()
                ));
            }
        }
    }

    /// The golden lines for `--write-golden`.
    pub fn golden_lines(
        workload: &str,
        digests: &[Digest],
        figures: &[(&'static str, String)],
    ) -> Vec<String> {
        let points = digests.iter().map(Digest::line);
        points.chain(figure_lines(figures)).map(|l| format!("{workload}\t{l}")).collect()
    }
}

/// `json:<figure>` and the FNV-1a hash of its serialized JSON.
fn figure_lines(figures: &[(&'static str, String)]) -> Vec<String> {
    figures
        .iter()
        .map(|(name, json)| {
            let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            format!("json:{name}\t{hash:016x}")
        })
        .collect()
}
