//! Experiment drivers reproducing every table and figure of the TIFS
//! paper's evaluation (MICRO 2008).
//!
//! Each figure has a module under [`figures`] exposing `run_on` (structured
//! results on a shared [`engine::Lab`]), `render` (the paper-style table)
//! and `structured` (the canonical report), and a subcommand of the one
//! experiment driver, the `tifs` binary (`tifs fig13`, `tifs all`, …),
//! which parses the budgets ([`harness::ExpConfig::parse`]), attaches the
//! stores and prints their statistics. All of them execute through the
//! [`engine`]: a declarative [`engine::ExperimentGrid`] of (row × system)
//! cells, each row a homogeneous workload or a per-core mix, whose
//! [`run_on`](engine::ExperimentGrid::run_on) is the one cell pipeline —
//! it builds each program image once, fans cells out across threads, and
//! returns keyed reports — plus an [`engine::Lab`] of shared workloads
//! and cached miss traces for the SEQUITUR analyses. [`harness`] keeps
//! the experiment parameters, the [`harness::SystemKind`] taxonomy, and
//! the trace analyses' functional walk; [`report`] renders tables and
//! fits; [`sink`] serializes every subcommand's results as canonical,
//! diffable JSON/CSV reports under `results/`; [`calibration`] holds the
//! Table I measurement and target bands shared by `tifs calibrate`
//! (nonzero exit on drift) and the `calibration_regression` suite.
//! Persistence makes repeat evaluations pure warm starts:
//! [`engine::Lab::with_store`] caches miss traces on disk and
//! [`engine::Lab::with_report_store`] caches whole timing-cell
//! [`SimReport`](tifs_sim::stats::SimReport)s under content-addressed
//! keys ([`engine::report_key_cell`]).
//!
//! ```no_run
//! use tifs_experiments::engine::run_cell;
//! use tifs_experiments::harness::{ExpConfig, SystemKind};
//! use tifs_sim::config::SystemConfig;
//! use tifs_trace::workload::{CellPrograms, WorkloadSpec};
//!
//! let cfg = ExpConfig::default();
//! let sys = SystemConfig::table2();
//! let programs = CellPrograms::build(&WorkloadSpec::oltp_oracle().into(), cfg.seed);
//! let base = run_cell(&programs, &SystemKind::NextLine.into(), &cfg, &sys);
//! let tifs = run_cell(&programs, &SystemKind::TifsVirtualized.into(), &cfg, &sys);
//! println!("speedup {:.3}", tifs.aggregate_ipc() / base.aggregate_ipc());
//! ```

#![forbid(unsafe_code)]

pub mod calibration;
pub mod engine;
pub mod figures;
pub mod harness;
pub mod report;
pub mod sink;

pub use engine::{run_cell, ExperimentGrid, GridResults, Lab, SystemSpec};
pub use harness::{walk_core, ExpConfig, SystemKind};
pub use sink::{ResultsSink, StructuredReport};
