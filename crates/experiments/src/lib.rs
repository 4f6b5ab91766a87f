//! Experiment drivers reproducing every table and figure of the TIFS
//! paper's evaluation (MICRO 2008).
//!
//! Each figure has a module under [`figures`] exposing `run` (structured
//! results) and `render` (the paper-style table), and a binary
//! (`fig01`…`fig13`, `table1`, `table2`, `all_figures`) that prints it.
//! All of them execute through the [`engine`]: a declarative
//! [`engine::ExperimentGrid`] of (workload × system) cells that builds
//! each workload once, fans cells out across threads, and returns keyed
//! reports, plus an [`engine::Lab`] of shared workloads and cached miss
//! traces for the SEQUITUR analyses. [`harness`] keeps the experiment
//! parameters, the [`harness::SystemKind`] taxonomy, and the trace
//! analyses' functional walk; [`report`] renders tables and fits; [`sink`] serializes
//! every driver's results as canonical, diffable JSON/CSV reports under
//! `results/`; [`calibration`] holds the Table I target bands shared by
//! the `calibrate` binary (nonzero exit on drift) and the
//! `calibration_regression` suite. Persistence makes repeat evaluations
//! pure warm starts:
//! [`engine::Lab::with_store`] caches miss traces on disk and
//! [`engine::Lab::with_report_store`] caches whole timing-cell
//! [`SimReport`](tifs_sim::stats::SimReport)s under content-addressed
//! keys ([`engine::report_key`]).
//!
//! ```no_run
//! use tifs_experiments::engine::run_cell;
//! use tifs_experiments::harness::{ExpConfig, SystemKind};
//! use tifs_sim::config::SystemConfig;
//! use tifs_trace::workload::{Workload, WorkloadSpec};
//!
//! let cfg = ExpConfig::default();
//! let sys = SystemConfig::table2();
//! let w = Workload::build(&WorkloadSpec::oltp_oracle(), cfg.seed);
//! let base = run_cell(&w, &SystemKind::NextLine.into(), &cfg, &sys);
//! let tifs = run_cell(&w, &SystemKind::TifsVirtualized.into(), &cfg, &sys);
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
pub use harness::{to_symbol_traces, walk_core, ExpConfig, SystemKind};
pub use sink::{ResultsSink, StructuredReport};
