//! # TIFS — Temporal Instruction Fetch Streaming
//!
//! A full Rust reproduction of *Temporal Instruction Fetch Streaming*
//! (Ferdman, Wenisch, Ailamaki, Falsafi, Moshovos — MICRO 2008): an
//! instruction prefetcher that records recurring L1-I miss sequences in
//! Instruction Miss Logs and replays them through Streamed Value Buffers,
//! plus every substrate the paper's evaluation needs — a synthetic
//! commercial-workload generator, a cycle-level CMP simulator, baseline
//! prefetchers (next-line, FDIP, discontinuity), and the SEQUITUR
//! opportunity analyses.
//!
//! This crate re-exports the workspace members:
//!
//! * [`trace`] — workload generation, instruction records, the store
//!   entry codecs and the trace and report stores;
//! * [`sim`] — caches, banked L2, cycle-level cores, branch predictors,
//!   the next-line prefetcher and the CMP harness;
//! * [`prefetch`] — the baseline prefetchers (FDIP, discontinuity, the
//!   probabilistic and perfect bounds);
//! * [`core`] — the TIFS mechanism (IML, Index Table, SVB);
//! * [`sequitur`] — grammar inference and stream analyses;
//! * [`experiments`] — drivers reproducing every table and figure.
//!
//! # Quickstart
//!
//! ```
//! use tifs::core::{TifsConfig, TifsPrefetcher};
//! use tifs::sim::{cmp::Cmp, config::SystemConfig};
//! use tifs::trace::workload::{Workload, WorkloadSpec};
//!
//! let workload = Workload::build(&WorkloadSpec::tiny_test(), 42);
//! let cfg = SystemConfig::single_core();
//! let streams: Vec<_> = (0..cfg.num_cores)
//!     .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = _>>)
//!     .collect();
//! let tifs = TifsPrefetcher::new(cfg.num_cores, TifsConfig::virtualized());
//! let mut cmp = Cmp::new(cfg, streams, Box::new(tifs));
//! let report = cmp.run(20_000);
//! assert!(report.aggregate_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use tifs_core as core;
pub use tifs_experiments as experiments;
pub use tifs_prefetch as prefetch;
pub use tifs_sequitur as sequitur;
pub use tifs_sim as sim;
pub use tifs_trace as trace;
