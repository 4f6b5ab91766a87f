//! Baseline instruction prefetchers for the TIFS comparison.
//!
//! * [`fdip`] — Fetch-Directed Instruction Prefetching \[24\], the paper's
//!   state-of-the-art comparison point, with its stated tuning adjustments;
//! * [`discontinuity`] — the discontinuity prefetcher \[31\], an extra
//!   baseline;
//! * [`probabilistic`] — the coverage-parameterized oracle of Figure 1 and
//!   the "Perfect" bound of Figure 13;
//! * [`buffer`] — the shared fully-associative prefetch buffer.
//!
//! All instruction prefetchers implement
//! [`tifs_sim::prefetch::IPrefetcher`] and plug into the CMP timing model.
//! Table II's stride data prefetcher has no counterpart: the timing model
//! draws data-access latencies from each workload's synthetic profile.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod discontinuity;
pub mod fdip;
pub mod probabilistic;

pub use buffer::PrefetchBuffer;
pub use discontinuity::{DiscontinuityConfig, DiscontinuityPrefetcher};
pub use fdip::{Fdip, FdipConfig};
pub use probabilistic::ProbabilisticPrefetcher;
