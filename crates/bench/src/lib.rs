//! Benchmark support: shared fixtures for the Criterion benches.
//!
//! Run with `cargo bench -p tifs-bench`. Two suites:
//!
//! * `components` — throughput of the core data structures (SEQUITUR,
//!   suffix array, caches, predictors, the walker, the trace store);
//! * `figures` — the kernel of each paper table/figure at reduced scale
//!   (the full regenerations are subcommands of the `tifs` binary).

#![forbid(unsafe_code)]

use tifs_sim::config::SystemConfig;
use tifs_sim::miss_trace::miss_trace;
use tifs_trace::workload::{Workload, WorkloadSpec};
use tifs_trace::BlockAddr;

/// A small but realistic workload fixture shared by the benches.
pub fn bench_workload() -> Workload {
    Workload::build(&WorkloadSpec::web_zeus(), 42)
}

/// An L1-I miss trace of roughly paper-like statistics.
pub fn bench_miss_trace(instructions: usize) -> Vec<BlockAddr> {
    let w = bench_workload();
    miss_trace(w.walker(0).take(instructions), &SystemConfig::table2())
}

/// Miss trace as analysis symbols.
pub fn bench_symbols(instructions: usize) -> Vec<u64> {
    bench_miss_trace(instructions).iter().map(|b| b.0).collect()
}

/// A large symbol stream for grammar-scale benches: the real 1M-instruction
/// miss trace, replayed across disjoint phases until `target_len` symbols.
///
/// Each replay tags the block addresses with a phase id in the high bits,
/// so phases share no symbols — the grammar keeps its within-phase
/// repetition structure (the regime SEQUITUR targets) but cannot fold
/// whole phases into one rule, mimicking successive working sets of a
/// long-running server rather than a copy-pasted trace.
pub fn bench_symbols_large(target_len: usize) -> Vec<u64> {
    let base = bench_symbols(1_000_000);
    assert!(!base.is_empty());
    let mut out = Vec::with_capacity(target_len);
    let mut phase = 0u64;
    while out.len() < target_len {
        let tag = phase << 32;
        out.extend(base.iter().take(target_len - out.len()).map(|&s| s ^ tag));
        phase += 1;
    }
    out
}
