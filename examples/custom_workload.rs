//! Building a custom workload: how a downstream user defines their own
//! program shape and runs the TIFS pipeline on it.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use tifs::core::{FunctionalTifs, TifsConfig};
use tifs::sim::config::SystemConfig;
use tifs::sim::miss_trace::miss_trace;
use tifs::trace::exec::DataProfile;
use tifs::trace::workload::{Workload, WorkloadClass, WorkloadSpec};

fn main() {
    // A custom mid-size workload: tweak the knobs that matter — footprint
    // (path_len x func_instrs), stream length (divergence_every), and
    // branchiness (hammock_period, data_dep_frac).
    let spec = WorkloadSpec {
        name: "custom-keyvalue-store",
        class: WorkloadClass::Web,
        seed_salt: 0xC0FFEE,
        n_txn_types: 3,
        path_len: 120,
        func_instrs: (30, 90),
        shared_frac: 0.45,
        shared_pool: 400,
        divergence_every: 20,
        n_variants: 5,
        hammock_period: 12,
        data_dep_frac: 0.25,
        inner_loop_prob: 0.35,
        avg_loop_iters: 7.0,
        scan_loops: false,
        scan_iters: 0.0,
        cold_pool: 200,
        cold_prob: 0.02,
        trap_period: 15_000,
        n_trap_handlers: 6,
        data: DataProfile {
            l1d_miss_rate: 0.03,
            l2_hit_frac: 0.85,
        },
        duty_cycle: 1.0,
        ctx_switch_period: 0,
    };
    let workload = Workload::build(&spec, 7);
    println!(
        "'{}': {} KB text, {} functions",
        spec.name,
        workload.program.text_bytes() / 1024,
        workload.program.num_functions()
    );

    // Miss trace of 200k instructions + functional TIFS coverage estimate
    // (no timing).
    let misses = miss_trace(workload.walker(0).take(200_000), &SystemConfig::table2());
    let mut functional = FunctionalTifs::new(1, Some(TifsConfig::DEFAULT_ENTRIES_PER_CORE));
    for &b in &misses {
        functional.process(0, b);
    }
    let report = functional.report();
    println!(
        "functional TIFS: {} misses, {:.1}% coverage estimate",
        report.misses,
        100.0 * report.coverage()
    );
}
