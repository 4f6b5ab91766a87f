//! Compares a change's bench medians against its parent's, benched on the
//! same machine, and fails on median regressions — the CI perf gate.
//!
//! ```sh
//! # In a checkout of the parent (its own CARGO_TARGET_DIR), then in the
//! # change, twice each:
//! TIFS_BENCH_SAMPLES=5 TIFS_BENCH_TARGET_MS=10 \
//! TIFS_BENCH_JSON=$OUT/bench-base-1.json cargo bench -p tifs-bench
//! TIFS_BENCH_SAMPLES=5 TIFS_BENCH_TARGET_MS=10 \
//! TIFS_BENCH_JSON=$OUT/bench-change-1.json cargo bench -p tifs-bench
//! # ...
//! cargo run --release -p tifs-bench --bin compare_baselines -- \
//!     --base $OUT/bench-base-*.json --change $OUT/bench-change-*.json
//! ```
//!
//! (`TIFS_BENCH_JSON` must be absolute — cargo runs bench binaries with
//! the bench crate, not the workspace root, as cwd. The criterion shim
//! inserts the suite name before the extension, so each run writes
//! `bench-base-1-components.json` and `bench-base-1-figures.json`.)
//!
//! Files after `--base` are the parent's runs, files after `--change` the
//! change's; each is matched to the other side by the suite name the
//! shim embeds in the filename. For every benchmark of the base run, the
//! change run must contain the same id (a silently dropped bench would
//! otherwise retire its own gate) and its median must not exceed the base
//! median by more than the tolerance (`--tol`, default 0.10 = +10%).
//! Improvements pass, and benchmarks new in the change are listed as not
//! gated.
//!
//! Both sides run on one machine in one job, so the verdict follows the
//! code, not the runner's speed. Scheduler noise is one-sided — it only
//! ever makes a benchmark look slower — and its relative size shrinks
//! with runtime. Two defenses:
//!
//! * Several files of one side may map to the *same* suite
//!   (`bench-base-1-figures.json bench-base-2-figures.json`); that side
//!   then takes the per-benchmark minimum of the medians across runs,
//!   which converges on the machine's true speed instead of its worst
//!   scheduling moment. CI records two runs per side.
//! * Only benchmarks whose base median is at least `--min-ms` (default
//!   100 ms) can fail the build. Below that floor a +10% median is
//!   routinely pure scheduling jitter (measured on the sub-50 ms
//!   analysis benches: best-of-two medians swing past +20% run to run
//!   with no code change), so sub-floor regressions are printed — and
//!   preserved in the uploaded JSON — but not enforced. The floor keeps
//!   the gate's verdict meaningful exactly where the hot-loop work
//!   lives: the 300 ms+ timing/pipeline benches.
//!
//! The parser is deliberately minimal: it understands exactly the JSON
//! the workspace's criterion shim emits (one `{"id": ..., "median_ns":
//! ...}` object per benchmark), keeping this binary dependency-free.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Extracts the JSON string value following `"<key>": "`.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts the JSON number following `"<key>": `.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses one bench-JSON file into `(id, median_ns)` pairs, in file
/// order. The shim writes one benchmark object per line.
fn parse_bench_json(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        if let (Some(id), Some(median)) = (str_field(line, "id"), num_field(line, "median_ns")) {
            out.push((id, median));
        }
    }
    if out.is_empty() {
        return Err(format!("no benchmarks found in {}", path.display()));
    }
    Ok(out)
}

/// `bench-base-1-figures.json` → `figures`.
fn suite_of(path: &Path) -> Option<String> {
    let stem = path.file_stem()?.to_str()?;
    let (_, suite) = stem.rsplit_once('-')?;
    Some(suite.to_string())
}

/// One side's runs: per suite, the `(id, median_ns)` of each benchmark,
/// the minimum median over that side's files of the suite.
type Side = Vec<(String, Vec<(String, f64)>)>;

/// Merges one side's files by suite, recording unreadable ones in
/// `failures`.
fn merge(paths: &[PathBuf], failures: &mut Vec<String>) -> Side {
    let mut side: Side = Vec::new();
    for path in paths {
        let Some(suite) = suite_of(path) else {
            failures.push(format!(
                "{}: cannot infer suite name (expected ...-<suite>.json)",
                path.display()
            ));
            continue;
        };
        let run = match parse_bench_json(path) {
            Ok(run) => run,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let at = match side.iter().position(|(s, _)| *s == suite) {
            Some(at) => at,
            None => {
                side.push((suite, Vec::new()));
                side.len() - 1
            }
        };
        let benches = &mut side[at].1;
        for (id, median) in run {
            match benches.iter_mut().find(|(i, _)| *i == id) {
                Some((_, best)) => *best = best.min(median),
                None => benches.push((id, median)),
            }
        }
    }
    side
}

fn main() -> ExitCode {
    let mut tol = 0.10f64;
    let mut min_ms = 100.0f64;
    let mut base_paths: Vec<PathBuf> = Vec::new();
    let mut change_paths: Vec<PathBuf> = Vec::new();
    // Which side the next file belongs to: `Some(true)` after `--base`.
    let mut to_base: Option<bool> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tol" => {
                i += 1;
                tol = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tol takes a fraction, e.g. 0.10");
            }
            "--min-ms" => {
                i += 1;
                min_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--min-ms takes a duration in milliseconds, e.g. 100");
            }
            "--base" => to_base = Some(true),
            "--change" => to_base = Some(false),
            path => match to_base {
                Some(true) => base_paths.push(PathBuf::from(path)),
                Some(false) => change_paths.push(PathBuf::from(path)),
                None => {
                    eprintln!("compare_baselines: {path}: name --base or --change first");
                    return ExitCode::FAILURE;
                }
            },
        }
        i += 1;
    }
    if base_paths.is_empty() || change_paths.is_empty() {
        eprintln!(
            "usage: compare_baselines [--tol 0.10] [--min-ms 100] \
             --base BASE-<suite>.json ... --change CHANGE-<suite>.json ... \
             (several files of one suite on one side gate on the per-benchmark \
             min of medians)"
        );
        return ExitCode::FAILURE;
    }

    let mut failures = Vec::new();
    let base = merge(&base_paths, &mut failures);
    let change = merge(&change_paths, &mut failures);

    for (suite, base_benches) in &base {
        let change_benches = change
            .iter()
            .find(|(s, _)| s == suite)
            .map_or(&[][..], |(_, b)| b.as_slice());
        println!("suite {suite}: {} benchmarks", base_benches.len());
        for (id, base_median) in base_benches {
            let Some((_, change_median)) = change_benches.iter().find(|(i, _)| i == id) else {
                failures.push(format!("{suite}/{id}: missing from the change run"));
                continue;
            };
            let ratio = change_median / base_median;
            let verdict = if ratio > 1.0 + tol {
                if *base_median >= min_ms * 1e6 {
                    failures.push(format!(
                        "{suite}/{id}: {:.1}ms -> {:.1}ms (+{:.1}% > +{:.0}% tolerance)",
                        base_median / 1e6,
                        change_median / 1e6,
                        (ratio - 1.0) * 100.0,
                        tol * 100.0
                    ));
                    "REGRESSED"
                } else {
                    "over tolerance (below enforcement floor)"
                }
            } else if ratio < 1.0 {
                "improved"
            } else {
                "ok"
            };
            println!(
                "  {id:<40} {:>12.3}ms -> {:>12.3}ms  {:>+7.1}%  {verdict}",
                base_median / 1e6,
                change_median / 1e6,
                (ratio - 1.0) * 100.0
            );
        }
        for (id, change_median) in change_benches {
            if !base_benches.iter().any(|(i, _)| i == id) {
                println!(
                    "  {id:<40} {:>12}   -> {:>12.3}ms  {:>8}  new (not gated)",
                    "",
                    change_median / 1e6,
                    ""
                );
            }
        }
    }
    for (suite, _) in &change {
        if !base.iter().any(|(s, _)| s == suite) {
            println!("suite {suite}: new (not gated)");
        }
    }

    if failures.is_empty() {
        println!(
            "compare_baselines: all enforced medians (base >= {min_ms:.0}ms) within +{:.0}%",
            tol * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("compare_baselines: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        ExitCode::FAILURE
    }
}
