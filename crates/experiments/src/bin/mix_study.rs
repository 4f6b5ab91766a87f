//! The workload-mix study: demand scenario × flush × total budget ×
//! metadata organization at iso-storage (heterogeneous multi-tenant
//! fleets layered on the sharing axis).
//!
//! The study's cells build their own heterogeneous programs
//! ([`CellPrograms`](tifs_trace::workload::CellPrograms) inside the
//! engine), so the lab starts empty and exists to carry the experiment
//! parameters and the persistent report store (`TIFS_REPORT_STORE`):
//! re-running the study under new scenarios or budgets recomputes only
//! the new cells, and a warm run is all store reads. The canonical
//! JSON/CSV report lands under `TIFS_RESULTS` (default `results/`) as
//! `fig_mix`.
//!
//! ```sh
//! cargo run --release -p tifs-experiments --bin mix_study -- \
//!     [--instructions N] [--warmup N] [--seed N]
//! ```

use tifs_experiments::engine::Lab;
use tifs_experiments::figures::fig_mix;
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("TIFS workload-mix study");
    println!(
        "instructions/core: {} (+{} warmup), seed {}\n",
        cfg.instructions, cfg.warmup, cfg.seed
    );
    let t = std::time::Instant::now();
    let lab = Lab::build(Vec::new(), cfg).with_store_from_env();
    let cells = fig_mix::run_on(&lab);
    println!("{}", fig_mix::render(&cells));
    sink::publish(&fig_mix::structured(&cells));
    println!("[mix study done in {:.0}s]", t.elapsed().as_secs_f64());
    if let Some(store) = lab.report_store() {
        let s = store.stats();
        println!(
            "[report store] {} hits, {} misses, {} writes, {} evictions, {} gc-evictions ({})",
            s.hits,
            s.misses,
            s.writes,
            s.evictions,
            s.gc_evictions,
            store.root().display()
        );
    }
}
