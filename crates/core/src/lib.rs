//! Temporal Instruction Fetch Streaming — the paper's primary contribution.
//!
//! TIFS predicts future L1 instruction-cache misses directly, by recording
//! and replaying recurring miss sequences (temporal instruction streams)
//! rather than exploring the control-flow graph with a branch predictor:
//!
//! * [`iml`] — per-core Instruction Miss Logs, recorded at retirement,
//!   optionally virtualized into the L2 data array;
//! * [`index`] — the shared Index Table mapping a block address to its
//!   most recent IML occurrence (the *Recent* lookup heuristic), embedded
//!   in the L2 tag array or dedicated;
//! * [`svb`] — per-core Streamed Value Buffers holding streamed blocks and
//!   in-progress stream state, with rate matching and end-of-stream
//!   detection;
//! * [`prefetcher`] — the timing-integrated [`TifsPrefetcher`] driving all of the
//!   above inside the CMP model;
//! * [`sharing`] — the cross-core metadata organization axis
//!   ([`MetadataOrg`]): private per-core capacity (the paper), or a
//!   MANA/Triangel-style shared pool behind arbitrated ports at
//!   identical total storage;
//! * [`functional`] — the timing-free coverage model used for the paper's
//!   IML-capacity study (Figure 11).
//!
//! # Quickstart
//!
//! ```
//! use tifs_core::{TifsConfig, TifsPrefetcher};
//! use tifs_sim::cmp::Cmp;
//! use tifs_sim::config::SystemConfig;
//! use tifs_trace::workload::{Workload, WorkloadSpec};
//!
//! let workload = Workload::build(&WorkloadSpec::tiny_test(), 1);
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

pub mod functional;
pub mod iml;
pub mod index;
pub mod prefetcher;
pub mod sharing;
pub mod svb;

pub use functional::{FunctionalConfig, FunctionalReport, FunctionalTifs};
pub use iml::{
    entries_per_core_for_kb, Iml, ImlEntry, ImlGroup, BITS_PER_ENTRY, ENTRIES_PER_L2_BLOCK,
};
pub use index::{ImlPtr, IndexKind, IndexTable};
pub use prefetcher::{ImlStorage, TifsConfig, TifsPrefetcher};
pub use sharing::{CapacityPartition, HistoryBuffers, MetadataOrg};
pub use svb::{StreamCtx, Svb};
