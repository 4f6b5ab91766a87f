//! Regenerates every table and figure in sequence (the full evaluation).
//!
//! All cells route through the experiment engine: the six workloads are
//! built once into a shared [`Lab`], the trace analyses reuse its cached
//! miss traces, and every figure fans its (workload × system) cells out
//! across threads (`TIFS_THREADS` overrides the worker count).
//!
//! The lab attaches the persistent trace store (`TIFS_TRACE_STORE`,
//! default `.tifs-cache/traces`) *and* report store
//! (`TIFS_REPORT_STORE`, default `.tifs-cache/reports`), so a second run
//! is a pure *warm start*: the trace analyses stream their miss traces
//! back from disk instead of re-running the functional model, and every
//! timing cell's `SimReport` is served from the report store instead of
//! re-simulating (0 timing recomputes). Every figure and table also
//! writes a canonical JSON/CSV report (`TIFS_RESULTS`, default
//! `results/`); reports are byte-identical between cold and warm runs.
//! `TIFS_STORE_MAX_BYTES` bounds each persistent store with LRU GC.

use tifs_experiments::engine::Lab;
use tifs_experiments::figures::{fig01, fig03, fig05, fig06, fig10, fig11, fig12, fig13, tables};
use tifs_experiments::harness::ExpConfig;
use tifs_experiments::sink;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("TIFS reproduction — full evaluation");
    println!(
        "instructions/core: {} (+{} warmup), seed {}\n",
        cfg.instructions, cfg.warmup, cfg.seed
    );
    let lab = Lab::all_six(cfg).with_store_from_env();
    println!("{}", tables::render_table1_on(&lab));
    println!("{}", tables::render_table2());
    sink::publish(&tables::structured_table1(&lab));
    sink::publish(&tables::structured_table2());
    let t = std::time::Instant::now();
    let r03 = fig03::run_on(&lab);
    println!("{}", fig03::render(&r03));
    sink::publish(&fig03::structured(&r03));
    let r05 = fig05::run_on(&lab);
    println!("{}", fig05::render(&r05));
    sink::publish(&fig05::structured(&r05));
    let r06 = fig06::run_on(&lab);
    println!("{}", fig06::render(&r06));
    sink::publish(&fig06::structured(&r06));
    let r10 = fig10::run_on(&lab);
    println!("{}", fig10::render(&r10));
    sink::publish(&fig10::structured(&r10));
    let r11 = fig11::run_on(&lab);
    println!("{}", fig11::render(&r11));
    sink::publish(&fig11::structured(&r11));
    println!(
        "[trace analyses done in {:.0}s]\n",
        t.elapsed().as_secs_f64()
    );
    let t = std::time::Instant::now();
    let r01 = fig01::run_on(&lab);
    println!("{}", fig01::render(&r01));
    sink::publish(&fig01::structured(&r01));
    let r12 = fig12::run_on(&lab);
    println!("{}", fig12::render(&r12));
    sink::publish(&fig12::structured(&r12));
    let r13 = fig13::run_on(&lab);
    println!("{}", fig13::render(&r13));
    sink::publish(&fig13::structured(&r13));
    println!("[timing studies done in {:.0}s]", t.elapsed().as_secs_f64());
    if let Some(store) = lab.store() {
        let s = store.stats();
        println!(
            "[trace store] {} hits, {} misses, {} writes, {} evictions, {} gc-evictions ({})",
            s.hits,
            s.misses,
            s.writes,
            s.evictions,
            s.gc_evictions,
            store.root().display()
        );
    }
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
