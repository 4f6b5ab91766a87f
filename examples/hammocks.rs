//! The paper's Section 3 scenarios, hand-built: `highbit()`-style
//! unpredictable sequential fetch and `core_output_filter()`-style
//! re-convergent hammocks — the code shapes where next-line and
//! branch-predictor-directed prefetchers stall but temporal streaming
//! does not (paper Figure 2).
//!
//! ```sh
//! cargo run --release --example hammocks
//! ```

use tifs::core::{TifsConfig, TifsPrefetcher};
use tifs::prefetch::Fdip;
use tifs::sim::cmp::Cmp;
use tifs::sim::config::SystemConfig;
use tifs::sim::prefetch::{IPrefetcher, NullPrefetcher};
use tifs::trace::exec::{ExecConfig, TransactionMix};
use tifs::trace::program::{FuncId, Function, FunctionBuilder, PlainMem, Program};
use tifs::trace::workload::Workload;
use tifs::trace::{Addr, FetchRecord};

/// Builds a `highbit()`-like helper: a dense sequence of branch hammocks
/// through consecutive cache blocks; execution always traverses all
/// blocks, but the branchiness defeats lookahead-limited prefetchers.
fn build_highbit() -> Vec<tifs::trace::program::StaticOp> {
    let mut b = FunctionBuilder::new();
    for _ in 0..12 {
        b.straight(3, PlainMem::None);
        b.hammock(4, 0.5, PlainMem::None); // data-dependent mask/shift arm
    }
    b.finish()
}

/// Builds a `core_output_filter()`-like function: larger, with
/// re-convergent data-dependent hammocks and helper calls.
fn build_output_filter(helpers: &[FuncId]) -> Vec<tifs::trace::program::StaticOp> {
    let mut b = FunctionBuilder::new();
    for (i, &h) in helpers.iter().enumerate() {
        b.straight(10, PlainMem::Load);
        b.hammock(8, 0.5, PlainMem::Load); // if-then-else, data-dependent
        b.call(h);
        b.straight(6, PlainMem::Store);
        if i % 2 == 0 {
            let l = b.begin_loop();
            b.straight(6, PlainMem::Load);
            b.end_loop(l, 5.0, true);
        }
    }
    b.finish()
}

fn main() {
    // Lay out a scheduler-like caller, highbit, the filter, and helpers
    // spread through the address space so calls are fetch discontinuities.
    let mut functions = Vec::new();
    let mut base = 0x10_0000u64;
    let mut add = |ops: Vec<tifs::trace::program::StaticOp>| {
        let f = Function {
            base: Addr(base),
            ops,
        };
        base += f.size_bytes() + 0x2_0000; // spread: distinct L1 sets
        functions.push(f);
        FuncId((functions.len() - 1) as u32)
    };

    let highbit = add(build_highbit());
    let mut helper_ids = Vec::new();
    for _ in 0..6 {
        let mut b = FunctionBuilder::new();
        b.straight(24, PlainMem::Load);
        b.hammock(5, 0.5, PlainMem::None);
        b.straight(12, PlainMem::None);
        helper_ids.push(add(b.finish()));
    }
    let filter = add(build_output_filter(&helper_ids));

    // The scheduler: complex control flow, then highbit, then the filter.
    let mut sched = FunctionBuilder::new();
    for _ in 0..6 {
        sched.straight(8, PlainMem::Load);
        sched.hammock(6, 0.5, PlainMem::None);
        sched.call(highbit);
        sched.straight(4, PlainMem::None);
        sched.call(filter);
    }
    let scheduler = add(sched.finish());

    // Pad the footprint with filler functions so the working set exceeds
    // the 64 KB L1-I and the scheduler path misses on every invocation.
    let mut fillers = Vec::new();
    for _ in 0..40 {
        let mut b = FunctionBuilder::new();
        b.straight(220, PlainMem::Load);
        fillers.push(add(b.finish()));
    }
    let mut driver = FunctionBuilder::new();
    driver.call(scheduler);
    for f in &fillers {
        driver.call(*f);
    }
    let driver = add(driver.finish());

    let program = Program::new(functions);
    let workload = Workload {
        program,
        mix: TransactionMix::single(driver),
        exec: ExecConfig::default(),
        spec: tifs::trace::workload::WorkloadSpec::tiny_test(),
        seed: 7,
    };

    let n = 300_000;
    let run = |pf: Box<dyn IPrefetcher + '_>| {
        let cfg = SystemConfig::single_core();
        let streams: Vec<_> = (0..cfg.num_cores)
            .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
            .collect();
        let mut cmp = Cmp::new(cfg, streams, pf);
        cmp.run_with_warmup(n, n)
    };

    println!("Section 3 scenarios: hammock-dense scheduler -> highbit() -> core_output_filter()");
    println!("(working set exceeds L1-I; every block sequence is identical across invocations)\n");
    let base = run(Box::new(NullPrefetcher));
    let fdip = run(Box::new(Fdip::new(&workload.program, 1)));
    let tifs = run(Box::new(TifsPrefetcher::new(1, TifsConfig::virtualized())));

    let report = |name: &str, r: &tifs::sim::stats::SimReport| {
        println!(
            "{name:22} IPC {:.3}  speedup {:.3}  coverage {:>5.1}%  demand misses {}",
            r.aggregate_ipc(),
            r.speedup_over(&base),
            100.0 * r.coverage(),
            r.cores[0].demand_misses,
        );
    };
    report("next-line only", &base);
    report("FDIP", &fdip);
    report("TIFS (virtualized)", &tifs);
    println!(
        "\nThe data-dependent hammocks force FDIP to restart its exploration {} times;\n\
         TIFS follows the recorded miss sequence regardless of branch outcomes. In this\n\
         single-path toy both recover well — the full-scale contrast (where divergent\n\
         paths compound) is Figure 13: `cargo run --release -p tifs-experiments --bin tifs -- fig13`.",
        fdip.prefetcher_counter("restarts").unwrap_or(0.0)
    );
}
