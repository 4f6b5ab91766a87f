//! Rule `wall-clock`: ambient-entropy sources in covered library code.
//!
//! `Instant::now` / `SystemTime::now` make results depend on when the
//! run happened; `env::var` makes them depend on the caller's shell.
//! Both break the byte-determinism the golden `results/` files rely on,
//! so they are banned outside an allowlist:
//!
//! * the `bench` crate and the `rand`/`criterion`/`proptest` shims are
//!   not scanned at all (a timing harness measures wall-clock time by
//!   definition — see [`crate::source::ENTROPY_CRATES`]);
//! * binaries (`src/bin/`) and test code may read the clock and the
//!   environment freely;
//! * lines mentioning a `TIFS_*` knob are auto-allowed: those are the
//!   documented configuration surface (`TIFS_THREADS`, `TIFS_RESULTS`, …)
//!   and the knobs never feed simulated state;
//! * anything else needs a reasoned `allow(wall-clock)` annotation.

use crate::findings::{rules, Finding};
use crate::source::{AnalyzedFile, FileKind, ENTROPY_CRATES};

/// Banned call tokens and what to say about each.
const SOURCES: &[(&str, &str)] = &[
    ("Instant::now", "reads the monotonic clock"),
    ("SystemTime::now", "reads the wall clock"),
    ("env::var", "reads the process environment"),
];

/// Runs the pass over one file.
pub fn check(file: &AnalyzedFile) -> Vec<Finding> {
    if !ENTROPY_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    if matches!(file.kind, FileKind::Bin | FileKind::Tests) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let line_no = idx as u32 + 1;
        if file.is_test_line(line_no) {
            continue;
        }
        for (token, what) in SOURCES {
            if !line.contains(token) {
                continue;
            }
            // Documented knob sites name their `TIFS_*` variable on the
            // same line (in the raw view: the literal is masked in code).
            let raw = file.raw_lines.get(idx).map(String::as_str).unwrap_or("");
            if raw.contains("TIFS_") {
                continue;
            }
            findings.push(Finding::new(
                rules::WALL_CLOCK,
                &file.path,
                line_no,
                format!(
                    "`{token}` {what} in deterministic library code — route through a \
                     documented TIFS_* knob or annotate why this cannot affect results"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn findings_at(path: &str, content: &str) -> Vec<Finding> {
        check(&AnalyzedFile::new(&SourceFile {
            path: path.to_string(),
            content: content.to_string(),
        }))
    }

    #[test]
    fn flags_clock_and_env_in_lib_code() {
        let src = "\
fn f() -> bool {
    let _t = std::time::Instant::now();
    std::env::var(\"SOMETHING\").is_ok()
}
";
        let f = findings_at("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[1].line, 3);
    }

    #[test]
    fn tifs_knob_lines_bins_and_tests_are_allowed() {
        let knob = "fn f() -> bool { std::env::var(\"TIFS_THREADS\").is_ok() }\n";
        assert!(findings_at("crates/experiments/src/x.rs", knob).is_empty());
        let clock = "fn main() { let _ = std::time::Instant::now(); }\n";
        assert!(findings_at("crates/experiments/src/bin/fig.rs", clock).is_empty());
        assert!(findings_at("crates/sim/tests/t.rs", clock).is_empty());
        assert!(findings_at("crates/bench/src/lib.rs", clock).is_empty());
    }

    #[test]
    fn mentions_in_strings_and_comments_are_inert() {
        let src = "\
/// Unlike Instant::now-based timing, cycles are simulated.
fn f() -> &'static str {
    \"set via env::var\"
}
";
        assert!(findings_at("crates/sim/src/x.rs", src).is_empty());
    }
}
