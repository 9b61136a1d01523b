//! Simulation driver and experiment harness.
//!
//! Glues the pipeline to the workload suite. Experiments are built on
//! the **run-matrix engine**: each figure declares the [`matrix::SimPoint`]s
//! it needs (`figNN_points`), a [`matrix::RunMatrix`] memoizes results by
//! point key and executes the unique subset in parallel
//! ([`RunMatrix::ensure_with`] → [`executor::execute_session`], under an
//! explicit [`Session`]), and `figNN_assemble` folds the cached results
//! into rows. One `points`/`assemble` pair per evaluation artifact of
//! the paper:
//!
//! | paper artifact | functions |
//! |---|---|
//! | Table 1 configuration | [`config::table1`] |
//! | Fig 1 (baseline IPC vs RF size) | [`experiments::fig01_points`], [`experiments::fig01_assemble`] |
//! | Fig 4 (register lifecycle) | [`experiments::fig04_points`], [`experiments::fig04_assemble`] |
//! | Fig 6 (atomic register ratio) | [`experiments::fig06_points`], [`experiments::fig06_assemble`] |
//! | Fig 10 (scheme speedups @64/@224) | [`experiments::fig10_points`], [`experiments::fig10_assemble`] |
//! | Fig 11 (RF-size sensitivity) | [`experiments::fig11_points`], [`experiments::fig11_assemble`] |
//! | Fig 12 (consumer histogram) | [`experiments::fig12_points`], [`experiments::fig12_assemble`] |
//! | Fig 13 (redefine-delay sensitivity) | [`experiments::fig13_points`], [`experiments::fig13_assemble`] |
//! | Fig 14 (region cycle gaps) | [`experiments::fig14_points`], [`experiments::fig14_assemble`] |
//! | Fig 15 (RF-size reduction study) | [`experiments::fig15_points`], [`experiments::fig15_assemble`] |
//! | §5.4 / §6 ablations | [`experiments::ablation_counter_width_assemble`], [`experiments::ablation_move_elimination_assemble`] (and their `_points`) |
//!
//! The `all_experiments` binary of `atr-bench` is the one driver: it
//! resolves the `ATR_*` knobs once through [`config`] (budget, results
//! directory, [`Session::from_env`]) and nothing below it reads the
//! environment.

pub mod config;
pub mod differential;
pub mod executor;
pub mod experiments;
pub mod journal;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod session;
pub mod telemetry;

pub use config::{table1, SimConfig};
pub use differential::{run_differential, verify_capture_replay, DifferentialReport, SchemeStream};
pub use executor::{execute_session, FailureKind, PointFailure, PointOutcome};
pub use journal::RunJournal;
pub use matrix::{CoreTweak, RunMatrix, SimPoint};
pub use runner::{run, run_with_source, RunResult, RunSpec};
pub use session::Session;
