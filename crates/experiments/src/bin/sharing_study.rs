//! The metadata-sharing study: cross-core organization × total budget ×
//! core count at iso-storage (the MANA/Triangel axis layered on TIFS).
//!
//! Workloads build once into a shared [`Lab`] with the persistent
//! trace and report stores attached (`TIFS_TRACE_STORE` /
//! `TIFS_REPORT_STORE`), so re-running the study under new budgets or
//! orgs recomputes only the new cells; the canonical JSON/CSV report
//! lands under `TIFS_RESULTS` (default `results/`) as `fig_sharing`.
//!
//! ```sh
//! cargo run --release -p tifs-experiments --bin sharing_study -- \
//!     [--instructions N] [--warmup N] [--seed N]
//! ```

use tifs_experiments::engine::Lab;
use tifs_experiments::figures::fig_sharing;
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("TIFS metadata-sharing study");
    println!(
        "instructions/core: {} (+{} warmup), seed {}\n",
        cfg.instructions, cfg.warmup, cfg.seed
    );
    let t = std::time::Instant::now();
    let lab = Lab::all_six(cfg).with_store_from_env();
    let cells = fig_sharing::run_on(&lab);
    println!("{}", fig_sharing::render(&cells));
    sink::publish(&fig_sharing::structured(&cells));
    println!("[sharing study done in {:.0}s]", t.elapsed().as_secs_f64());
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
