//! Cycle-level CMP simulator for the TIFS reproduction.
//!
//! Models the paper's Table II system: four 4-wide out-of-order cores with
//! decoupled front ends, split 64 KB 2-way L1 caches with next-line
//! instruction prefetchers, a shared 8 MB 16-bank L2 with
//! independently-scheduled pipelines and 64 MSHRs, and latency/
//! bandwidth-limited memory.
//!
//! * [`config`] — Table II parameters;
//! * [`cache`] — set-associative LRU caches;
//! * [`l2`] — banked L2 + memory timing, traffic accounting (Figure 12);
//! * [`bpred`] — hybrid gShare/bimodal predictor, RAS, BTB;
//! * [`core`] — fetch unit, pre-dispatch queue, ROB back end;
//! * [`cmp`] — the whole chip, stepped cycle by cycle;
//! * [`prefetch`] — the [`IPrefetcher`] interface TIFS and the baselines
//!   implement, and the [`PrefetchBuffer`](prefetch::PrefetchBuffer) they
//!   fill;
//! * [`metadata`] — port arbitration for chip-shared prefetcher
//!   metadata (the sharing-study timing model);
//! * [`miss_trace`](mod@miss_trace) — the functional fetch model producing the L1-I miss
//!   traces the opportunity analyses consume, and answering the
//!   prefetchers' L1 residency probes;
//! * [`stats`] — per-core and whole-run reports.
//!
//! # Quickstart
//!
//! ```
//! use tifs_sim::cmp::Cmp;
//! use tifs_sim::config::SystemConfig;
//! use tifs_sim::prefetch::NullPrefetcher;
//! use tifs_trace::workload::{Workload, WorkloadSpec};
//!
//! let workload = Workload::build(&WorkloadSpec::tiny_test(), 7);
//! let cfg = SystemConfig::single_core();
//! let streams: Vec<_> = (0..cfg.num_cores)
//!     .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = _>>)
//!     .collect();
//! let mut cmp = Cmp::new(cfg, streams, Box::new(NullPrefetcher));
//! let report = cmp.run(10_000);
//! assert!(report.aggregate_ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod bpred;
pub mod cache;
pub mod cmp;
pub mod config;
pub mod core;
pub mod l2;
pub mod metadata;
pub mod miss_trace;
pub mod prefetch;
pub mod stats;

pub use cmp::Cmp;
pub use config::SystemConfig;
pub use l2::{L2ReqKind, L2Response, L2Stats, L2};
pub use metadata::MetadataPorts;
pub use miss_trace::{miss_trace, miss_trace_with_model, FunctionalFetchModel};
pub use prefetch::{IPrefetcher, NullPrefetcher, PrefetchCtx};
pub use stats::{CoreStats, SimReport};
