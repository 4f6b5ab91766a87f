//! Instruction trace model and synthetic workload generation for the TIFS
//! reproduction.
//!
//! The paper (*Temporal Instruction Fetch Streaming*, MICRO 2008) is
//! evaluated on FLEXUS full-system traces of commercial server workloads.
//! This crate provides the equivalent substrate, built from scratch:
//!
//! * [`types`] — address/block/core newtypes shared across the workspace;
//! * [`record`] — per-instruction [`FetchRecord`]s
//!   carrying control-flow and data-latency information;
//! * [`program`] — a static program representation the executor interprets
//!   and fetch-directed prefetchers decode;
//! * [`exec`] — the seeded stochastic executor producing each core's
//!   committed instruction stream;
//! * [`workload`] — six synthetic workloads mirroring the paper's Table I
//!   (OLTP on DB2/Oracle, DSS queries 2/17, Apache/Zeus web serving);
//! * [`filter`] — block-sequence extraction and the sequential-collapse
//!   transform of paper Figure 5;
//! * [`codec`] — the checksummed entry formats of the stores: miss-trace
//!   (`TIFM`) and report (`TIFR`) sections;
//! * [`store`] — content-addressed on-disk stores persisting miss traces
//!   and timing reports (keyed by input fingerprint) across runs.
//!
//! # Quickstart
//!
//! ```
//! use tifs_trace::workload::{Workload, WorkloadSpec};
//! use tifs_trace::filter::{block_transitions, collapse_sequential};
//!
//! let workload = Workload::build(&WorkloadSpec::tiny_test(), 42);
//! let records: Vec<_> = workload.walker(0).take(10_000).collect();
//! let blocks = block_transitions(records);
//! let discontinuous = collapse_sequential(&blocks);
//! assert!(discontinuous.len() < blocks.len());
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod exec;
pub mod filter;
pub mod program;
pub mod record;
pub mod store;
pub mod types;
pub mod workload;

pub use record::{BranchInfo, BranchKind, FetchRecord, MemClass};
pub use store::{Fingerprint, ReportKey, ReportStore, StoreStats, TraceKey, TraceStore};
pub use types::{Addr, BlockAddr, CoreId, Cycle, BLOCK_BYTES, INSTRS_PER_BLOCK, INSTR_BYTES};
pub use workload::{CellPrograms, CellWorkload, Workload, WorkloadClass, WorkloadSpec};
