//! The benchmark of the TIFS reproduction.
//!
//! Three cold workloads run on the Table II 4-core CMP in coupled mode:
//!
//! * `fig13` — Figure 13's grid (next-line plus the six
//!   `SystemKind::figure13()` systems on the six Table I workloads);
//! * `fleet_mix` — the workload-mix study's default grid
//!   (`fig_mix::run_on`), the second cell pipeline;
//! * `trace_analyses` — Table I and Figures 3, 5, 6, 10 and 11, which
//!   run only the functional miss-trace model and the SEQUITUR analyses.
//!
//! `run.py` is the entry point. It builds the two binaries of this
//! package, pins every `TIFS_*` knob, and prints the metrics named in
//! `BENCHMARK.json`. The `perfbench` binary measures end to end; the
//! `perfbench-trace` binary repeats one pass with spans around the calls
//! into each layer.
//!
//! This library is shared by both binaries. It calls only figure-level
//! entry points of `tifs-experiments` (`Lab`, `figNN::run_on`,
//! `tables::structured_table1`, `fig_mix::run_on`, and
//! `engine::par::parallelism` for the worker count they run on), the
//! stores and the report codec, so work behind those entry points cannot
//! break the end-to-end measurement.

pub mod checks;
pub mod cli;
pub mod json;
pub mod pass;
pub mod stats;
