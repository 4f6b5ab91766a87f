//! In-workspace shim for the subset of the `criterion` benchmarking API
//! that `tifs-bench` uses. The workspace builds offline, so the real
//! crate cannot be fetched; bench sources stay source-compatible with it
//! and can move to upstream criterion unchanged once a registry is
//! available.
//!
//! What it does:
//!
//! * auto-calibrates iterations per sample toward a wall-time target,
//!   then takes `sample_size` samples and reports min / median / mean;
//! * prints one line per benchmark, with element throughput when a group
//!   set [`Throughput::Elements`];
//! * appends every result to a machine-readable JSON report when the
//!   `TIFS_BENCH_JSON` environment variable names a path (used to record
//!   the committed baseline under `crates/bench/baselines/`).
//!
//! Environment knobs: `TIFS_BENCH_SAMPLES` caps samples per benchmark,
//! `TIFS_BENCH_TARGET_MS` sets the per-sample calibration target
//! (default 20 ms).

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a timing harness reads the clock by definition, and its knobs \
              (TIFS_BENCH_*) shape sampling, never a measured result's bytes"
)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-iteration workload hints (accepted, not acted on — the shim sizes
/// batches itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output.
    SmallInput,
    /// Large setup output.
    LargeInput,
    /// Setup output per iteration.
    PerIteration,
}

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One finished measurement.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// `group/name` identifier.
    pub id: String,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Minimum time per iteration, nanoseconds.
    pub min_ns: f64,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Elements per iteration, if annotated.
    pub elements: Option<u64>,
}

impl BenchResult {
    fn throughput_line(&self) -> String {
        match self.elements {
            Some(e) if self.median_ns > 0.0 => {
                let per_sec = e as f64 * 1e9 / self.median_ns;
                format!("  {:>12.0} elem/s", per_sec)
            }
            _ => String::new(),
        }
    }
}

/// The benchmark driver (shim of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    target: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        let target_ms = env_u64("TIFS_BENCH_TARGET_MS").unwrap_or(20);
        Criterion {
            sample_size: 10,
            target: Duration::from_millis(target_ms),
            results: Vec::new(),
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: None,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.effective_samples(None);
        let target = self.target;
        self.run_one(id.to_string(), None, sample_size, target, f);
        self
    }

    fn effective_samples(&self, group_override: Option<usize>) -> usize {
        let n = group_override.unwrap_or(self.sample_size);
        match env_u64("TIFS_BENCH_SAMPLES") {
            Some(cap) => n.min(cap.max(1) as usize),
            None => n,
        }
    }

    fn run_one<F>(
        &mut self,
        id: String,
        elements: Option<u64>,
        samples: usize,
        target: Duration,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples,
            target,
            measurement: None,
        };
        f(&mut bencher);
        let m = bencher
            .measurement
            .expect("benchmark closure must call Bencher::iter or iter_batched");
        let result = BenchResult {
            id,
            samples: m.times_ns.len(),
            iters_per_sample: m.iters_per_sample,
            min_ns: m.min_ns(),
            median_ns: m.median_ns(),
            mean_ns: m.mean_ns(),
            elements,
        };
        println!(
            "{:<44} {:>12.1} ns/iter (min {:>10.1}, {} samples x {} iters){}",
            result.id,
            result.median_ns,
            result.min_ns,
            result.samples,
            result.iters_per_sample,
            result.throughput_line()
        );
        self.results.push(result);
    }

    /// Prints the summary and writes the JSON report if requested.
    ///
    /// `TIFS_BENCH_JSON` names the target path. Because `cargo bench` runs
    /// each bench binary as its own process, the suite name (the bench
    /// binary's file stem, hash suffix stripped) is inserted before the
    /// extension so suites do not overwrite one another:
    /// `baseline.json` → `baseline-components.json`, `baseline-figures.json`.
    pub fn finalize(&self) {
        println!("\n{} benchmarks run", self.results.len());
        if let Ok(path) = std::env::var("TIFS_BENCH_JSON") {
            let path = per_suite_path(&path);
            match std::fs::write(&path, self.to_json()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }

    /// Serializes all results as a JSON document (hand-rolled; the
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let elements = r
                .elements
                .map(|e| e.to_string())
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
                 \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"elements\": {}}}{}\n",
                r.id.replace('"', "'"),
                r.samples,
                r.iters_per_sample,
                r.min_ns,
                r.median_ns,
                r.mean_ns,
                elements,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Inserts this process's bench-suite name before the path's extension.
fn per_suite_path(path: &str) -> String {
    let suite = std::env::args()
        .next()
        .and_then(|argv0| {
            std::path::Path::new(&argv0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .map(|stem| {
            // cargo names bench executables `<suite>-<metadata hash>`.
            match stem.rsplit_once('-') {
                Some((name, hash))
                    if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    name.to_string()
                }
                _ => stem,
            }
        })
        .unwrap_or_else(|| "bench".to_string());
    let p = std::path::Path::new(path);
    let stem = p
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "report".to_string());
    let file = match p.extension() {
        Some(ext) => format!("{stem}-{suite}.{}", ext.to_string_lossy()),
        None => format!("{stem}-{suite}"),
    };
    p.with_file_name(file).to_string_lossy().into_owned()
}

/// A group of related benchmarks (shim of `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Annotates per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let elements = match self.throughput {
            Some(Throughput::Elements(e)) => Some(e),
            _ => None,
        };
        let samples = self.criterion.effective_samples(self.sample_size);
        let target = self.criterion.target;
        self.criterion.run_one(
            format!("{}/{}", self.name, id),
            elements,
            samples,
            target,
            f,
        );
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

struct Measurement {
    times_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Measurement {
    fn min_ns(&self) -> f64 {
        self.times_ns.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn mean_ns(&self) -> f64 {
        self.times_ns.iter().sum::<f64>() / self.times_ns.len() as f64
    }

    fn median_ns(&self) -> f64 {
        let mut v = self.times_ns.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples: usize,
    target: Duration,
    measurement: Option<Measurement>,
}

impl Bencher {
    /// Times `routine`, auto-calibrating iterations per sample.
    pub fn iter<O, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> O,
    {
        // Calibrate: double the batch until it exceeds 1/4 of the target.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed * 4 >= self.target || iters >= 1 << 30 {
                let per_iter = elapsed.as_nanos().max(1) as u64 / iters;
                let ideal = self.target.as_nanos() as u64 / per_iter.max(1);
                iters = ideal.clamp(1, 1 << 30);
                break;
            }
            iters *= 2;
        }
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples.max(1) {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            times.push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        self.measurement = Some(Measurement {
            times_ns: times,
            iters_per_sample: iters,
        });
    }

    /// Times `routine` over fresh inputs from `setup`; setup time is
    /// excluded by running one iteration per timed window.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples.max(1) {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            times.push(t.elapsed().as_secs_f64() * 1e9);
        }
        self.measurement = Some(Measurement {
            times_ns: times,
            iters_per_sample: 1,
        });
    }
}

/// Defines a group-runner function over benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($f(c);)+
        }
    };
}

/// Defines `main` running every group then finalizing the report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.throughput(Throughput::Elements(4));
            g.sample_size(3);
            g.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
            g.finish();
        }
        assert_eq!(c.results.len(), 1);
        let r = &c.results[0];
        assert_eq!(r.id, "g/spin");
        assert!(r.min_ns > 0.0);
        assert_eq!(r.elements, Some(4));
        let json = c.to_json();
        assert!(json.contains("\"id\": \"g/spin\""));
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default();
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::LargeInput)
        });
        assert_eq!(c.results[0].iters_per_sample, 1);
    }
}
