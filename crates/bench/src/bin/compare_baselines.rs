//! Compares a fresh bench run against the committed baselines and fails
//! on median regressions — the perf gate that turns the workspace's
//! recorded perf trajectory into an enforced one.
//!
//! ```sh
//! TIFS_BENCH_SAMPLES=5 TIFS_BENCH_TARGET_MS=10 \
//! TIFS_BENCH_JSON=$PWD/fresh.json cargo bench -p tifs-bench
//! cargo run --release -p tifs-bench --bin compare_baselines -- \
//!     fresh-components.json fresh-figures.json
//! ```
//!
//! (`TIFS_BENCH_JSON` must be absolute — cargo runs bench binaries with
//! the bench crate, not the workspace root, as cwd.)
//!
//! Each fresh file is paired with `crates/bench/baselines/baseline-
//! <suite>.json` by the suite name the criterion shim embeds in the
//! filename (`fresh-figures.json` → `baseline-figures.json`). For every
//! benchmark in a baseline, the fresh run must contain the same id (a
//! silently dropped bench would otherwise retire its own gate) and its
//! median must not exceed the baseline median by more than the
//! tolerance (`--tol`, default 0.10 = +10%). Improvements pass, and
//! brand-new benchmarks are listed as not gated — refresh the baselines
//! to capture them.
//!
//! Scheduler noise is one-sided — it only ever makes a benchmark look
//! slower — and its relative size shrinks with runtime. Two defenses:
//!
//! * Several fresh files may map to the *same* suite
//!   (`fresh1-figures.json fresh2-figures.json`); the gate then takes
//!   the per-benchmark minimum of the medians across runs, which
//!   converges on the machine's true speed instead of its worst
//!   scheduling moment. CI records two runs.
//! * Only benchmarks whose baseline median is at least `--min-ms`
//!   (default 100 ms) can fail the build. Below that floor a +10%
//!   median is routinely pure scheduling jitter (measured on the
//!   sub-50 ms analysis benches: best-of-two medians swing past +20%
//!   run to run with no code change), so sub-floor regressions are
//!   printed — and preserved in the uploaded JSON — but not enforced.
//!   The floor keeps the gate's verdict meaningful exactly where the
//!   hot-loop work lives: the 300 ms+ timing/pipeline benches.
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

/// `fresh-figures.json` → `figures`.
fn suite_of(path: &Path) -> Option<String> {
    let stem = path.file_stem()?.to_str()?;
    let (_, suite) = stem.rsplit_once('-')?;
    Some(suite.to_string())
}

fn main() -> ExitCode {
    let mut tol = 0.10f64;
    let mut min_ms = 100.0f64;
    let mut baselines_dir = PathBuf::from("crates/bench/baselines");
    let mut fresh: Vec<PathBuf> = Vec::new();
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
            "--baselines" => {
                i += 1;
                baselines_dir = PathBuf::from(args.get(i).expect("--baselines takes a directory"));
            }
            other => fresh.push(PathBuf::from(other)),
        }
        i += 1;
    }
    if fresh.is_empty() {
        eprintln!(
            "usage: compare_baselines [--tol 0.10] [--min-ms 100] [--baselines DIR] \
             FRESH-<suite>.json ... \
             (several files of one suite gate on the per-benchmark min of medians)"
        );
        return ExitCode::FAILURE;
    }

    let mut failures = Vec::new();

    // Group the fresh files by suite so repeated runs of one suite can
    // be merged (per-benchmark min of medians).
    let mut suites: Vec<(String, Vec<PathBuf>)> = Vec::new();
    for fresh_path in fresh {
        let Some(suite) = suite_of(&fresh_path) else {
            failures.push(format!(
                "{}: cannot infer suite name (expected ...-<suite>.json)",
                fresh_path.display()
            ));
            continue;
        };
        match suites.iter_mut().find(|(s, _)| *s == suite) {
            Some((_, paths)) => paths.push(fresh_path),
            None => suites.push((suite, vec![fresh_path])),
        }
    }

    for (suite, paths) in &suites {
        let base_path = baselines_dir.join(format!("baseline-{suite}.json"));
        let base = match parse_bench_json(&base_path) {
            Ok(b) => b,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let mut new: Vec<(String, f64)> = Vec::new();
        let mut parse_failed = false;
        for path in paths {
            match parse_bench_json(path) {
                Ok(run) => {
                    for (id, median) in run {
                        match new.iter_mut().find(|(i, _)| *i == id) {
                            Some((_, best)) => *best = best.min(median),
                            None => new.push((id, median)),
                        }
                    }
                }
                Err(e) => {
                    failures.push(e);
                    parse_failed = true;
                }
            }
        }
        if parse_failed {
            continue;
        }
        println!(
            "suite {suite}: {} baseline benchmarks, {} fresh run(s)",
            base.len(),
            paths.len()
        );
        for (id, base_median) in &base {
            let Some((_, fresh_median)) = new.iter().find(|(i, _)| i == id) else {
                failures.push(format!("{suite}/{id}: missing from fresh run"));
                continue;
            };
            let ratio = fresh_median / base_median;
            let verdict = if ratio > 1.0 + tol {
                if *base_median >= min_ms * 1e6 {
                    failures.push(format!(
                        "{suite}/{id}: {:.1}ms -> {:.1}ms (+{:.1}% > +{:.0}% tolerance)",
                        base_median / 1e6,
                        fresh_median / 1e6,
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
                fresh_median / 1e6,
                (ratio - 1.0) * 100.0
            );
        }
        for (id, fresh_median) in &new {
            if !base.iter().any(|(i, _)| i == id) {
                println!(
                    "  {id:<40} {:>12}   -> {:>12.3}ms  {:>8}  no baseline (not gated)",
                    "",
                    fresh_median / 1e6,
                    ""
                );
            }
        }
    }

    if failures.is_empty() {
        println!(
            "compare_baselines: all enforced medians (baseline >= {min_ms:.0}ms) within +{:.0}%",
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
