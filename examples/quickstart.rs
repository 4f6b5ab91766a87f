//! Quickstart: build a workload, run the base system and TIFS, compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tifs::core::{TifsConfig, TifsPrefetcher};
use tifs::sim::cmp::Cmp;
use tifs::sim::config::SystemConfig;
use tifs::sim::prefetch::{IPrefetcher, NullPrefetcher};
use tifs::sim::stats::SimReport;
use tifs::trace::workload::{Workload, WorkloadSpec};
use tifs::trace::FetchRecord;

fn run<'a>(workload: &'a Workload, pf: Box<dyn IPrefetcher + 'a>, n: u64) -> SimReport {
    let cfg = SystemConfig::table2();
    let streams: Vec<_> = (0..cfg.num_cores)
        .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
        .collect();
    let mut cmp = Cmp::new(cfg, streams, pf);
    cmp.run_with_warmup(n, n)
}

fn main() {
    // An OLTP-like workload: multi-megabyte instruction footprint,
    // deeply repetitive transaction paths.
    let spec = WorkloadSpec::oltp_oracle();
    println!("building workload '{}' ...", spec.name);
    let workload = Workload::build(&spec, 42);
    println!(
        "program text: {} KB across {} functions",
        workload.program.text_bytes() / 1024,
        workload.program.num_functions()
    );

    let n = 500_000;
    println!("simulating {n} instructions/core on 4 cores (plus warmup) ...");
    let base = run(&workload, Box::new(NullPrefetcher), n);
    let tifs = run(
        &workload,
        Box::new(TifsPrefetcher::new(4, TifsConfig::virtualized())),
        n,
    );

    println!();
    println!("base (next-line only): IPC {:.3}", base.aggregate_ipc());
    println!(
        "TIFS (virtualized IML): IPC {:.3}  — speedup {:.3}, coverage {:.1}%",
        tifs.aggregate_ipc(),
        tifs.speedup_over(&base),
        100.0 * tifs.coverage()
    );
    println!(
        "TIFS L2 traffic overhead: {} IML reads, {} IML writes over {} base accesses",
        tifs.l2.of(tifs::sim::L2ReqKind::ImlRead),
        tifs.l2.of(tifs::sim::L2ReqKind::ImlWrite),
        base.l2.base_traffic()
    );
}
