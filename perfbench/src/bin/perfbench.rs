//! End-to-end runner: repeats cold passes of one workload for about
//! `--seconds` and prints the end-to-end metrics. The last line of
//! standard output is one JSON object that `run.py` reads.

use std::process::ExitCode;
use std::time::SystemTime;

use tifs_perfbench::cli::{check_pinned_env, Settings, USAGE};
use tifs_perfbench::json::Json;
use tifs_perfbench::pass::{
    measure, setup, since_launch, PAPER_GAIN_OVER_FDIP_PCT, PAPER_TIFS_BEST_SPEEDUP,
    PAPER_TIFS_MEAN_SPEEDUP,
};
use tifs_perfbench::stats::median;

fn main() -> ExitCode {
    let s = match Settings::from_args(std::env::args().skip(1)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_pinned_env() {
        eprintln!("perfbench: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    if s.setup_only {
        return match (setup(&s), s.launch_ns) {
            (Ok(_state), Some(launch)) => {
                let mut out = Json::obj();
                out.set(
                    "setup_from_launch_s",
                    Json::Num(since_launch(launch, SystemTime::now())),
                );
                println!("{out}");
                ExitCode::SUCCESS
            }
            (Ok(_), None) => {
                eprintln!("perfbench: --setup-only needs --launch-ns");
                ExitCode::from(2)
            }
            (Err(e), _) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::from(2)
            }
        };
    }

    let m = measure(&s);
    let exp = s.exp();
    println!(
        "perfbench {} seed {}: {} pass(es), {} workers, {} + {} warmup instructions/core",
        s.workload.name(),
        s.seed,
        m.passes.len(),
        s.workers,
        exp.instructions,
        exp.warmup
    );
    for (i, p) in m.passes.iter().enumerate() {
        println!(
            "  pass {}: setup {:.4} s, wall {:.4} s, {:.3} MIPS, digest {:032x}",
            i + 1,
            p.setup_s,
            p.wall_s,
            p.sim_instructions as f64 / p.wall_s / 1e6,
            p.digest
        );
    }
    if let Some(e) = &m.error {
        eprintln!("perfbench: {e}");
    }
    for note in &m.tally.notes {
        eprintln!("perfbench: check failed: {note}");
    }

    let walls: Vec<f64> = m.passes.iter().map(|p| p.wall_s).collect();
    let mips: Vec<f64> = m
        .passes
        .iter()
        .map(|p| p.sim_instructions as f64 / p.wall_s / 1e6)
        .collect();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !m.passes.is_empty() {
        metrics.push(("wall_s", median(&walls), "s"));
        metrics.push(("sim_mips", median(&mips), "MIPS"));
    }
    if let Some(v) = m.setup_from_launch_s {
        metrics.push(("setup_s", v, "s"));
    }
    if let Some(v) = m.peak_rss_mb {
        metrics.push(("peak_rss_mb", v, "MB"));
    }
    metrics.push((
        "failed_frac",
        m.tally.failed as f64 / m.tally.attempted.max(1) as f64,
        "fraction",
    ));
    for f in &m.figures {
        metrics.push((f.name, f.value, f.unit));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.6} {unit}");
    }
    if !m.figures.is_empty() {
        println!(
            "paper Figure 13 (compared at benchmark scale): TIFS mean {PAPER_TIFS_MEAN_SPEEDUP}x, \
             best {PAPER_TIFS_BEST_SPEEDUP}x, +{PAPER_GAIN_OVER_FDIP_PCT}% over FDIP"
        );
    }
    let digest = m.passes.first().map(|p| format!("{:032x}", p.digest));
    println!("digest {}", digest.as_deref().unwrap_or("none"));

    let mut out = Json::obj();
    out.set("workload", Json::Str(s.workload.name().into()))
        .set("seed", Json::Int(s.seed))
        .set("workers", Json::Int(s.workers as u64))
        .set("instructions", Json::Int(exp.instructions))
        .set("warmup", Json::Int(exp.warmup))
        .set("passes", Json::Int(m.passes.len() as u64))
        .set(
            "sim_cycles",
            Json::Int(m.passes.first().map_or(0, |p| p.sim_cycles)),
        )
        .set(
            "pass_wall_s",
            Json::Arr(walls.into_iter().map(Json::Num).collect()),
        )
        .set("digest", digest.map_or(Json::Str(String::new()), Json::Str))
        .set("attempted", Json::Int(m.tally.attempted))
        .set("failed", Json::Int(m.tally.failed))
        .set(
            "correct",
            Json::Bool(m.tally.failed == 0 && m.error.is_none()),
        )
        .set(
            "notes",
            Json::Arr(m.tally.notes.iter().cloned().map(Json::Str).collect()),
        );
    let mut metric_obj = Json::obj();
    for (name, value, unit) in metrics {
        metric_obj.set(name, Json::metric(value, unit));
    }
    out.set("metrics", metric_obj);
    println!("{out}");
    if m.passes.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
