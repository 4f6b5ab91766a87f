//! The lint corpus. Each file under `fixtures/` is checked by
//! `clippy-driver` under the workspace's own configuration: the root
//! `clippy.toml`, the `[workspace.lints]` levels and `-D warnings`, as
//! CI's Clippy step applies them. The `(line, lint)` pairs a corpus draws
//! must be exactly the ones its `//~ <lint>` markers name, so unmarked
//! lines (exemptions, widening casts) must stay quiet.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const LIB: &[&str] = &["--crate-type=lib", "--emit=metadata"];

type Findings = Vec<(usize, String)>;

/// The flags cargo passes a `[lints] workspace = true` member for the
/// root manifest's `[workspace.lints.*]` tables.
fn workspace_lint_flags() -> Vec<String> {
    let manifest = fs::read_to_string(Path::new(ROOT).join("Cargo.toml")).unwrap();
    let mut prefix = None;
    let mut flags = Vec::new();
    for line in manifest.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with('[') {
            prefix = match line {
                "[workspace.lints.clippy]" => Some("clippy::"),
                "[workspace.lints.rust]" => Some(""),
                _ => None,
            };
        } else if let (Some(prefix), Some((lint, level))) = (prefix, line.split_once(" = ")) {
            let level = level.trim_matches('"');
            let known = matches!(level, "allow" | "warn" | "deny" | "forbid");
            assert!(known, "{line}");
            flags.push(format!("--{level}={prefix}{lint}"));
        }
    }
    flags
}

/// Checks `file` with the `clippy-driver` beside the `cargo` that built
/// this test and returns the sorted `(line, lint)` pairs it drew, with
/// the path its output (a test binary, under `--test`) is written to.
/// `configured: false` checks against clippy's defaults alone.
fn clippy(file: &Path, configured: bool, args: &[&str]) -> (Findings, PathBuf) {
    let stem = file.file_stem().unwrap().to_str().unwrap();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-{stem}-{configured}"));
    fs::create_dir_all(&out_dir).unwrap();
    let mut cmd = Command::new(Path::new(env!("CARGO")).with_file_name("clippy-driver"));
    cmd.args(["--edition=2021", "--error-format=json", "-Dwarnings"]);
    cmd.arg(file).arg("--out-dir").arg(&out_dir).args(args);
    if configured {
        cmd.env("CLIPPY_CONF_DIR", ROOT)
            .args(workspace_lint_flags());
    } else {
        // clippy.toml is looked up from here upwards: an empty one here
        // ends the search before it reaches the repository's.
        fs::write(out_dir.join("clippy.toml"), "").unwrap();
        cmd.env("CLIPPY_CONF_DIR", &out_dir);
    }
    let output = cmd.output().expect("rustup component add clippy");
    let stderr = String::from_utf8_lossy(&output.stderr);
    // One JSON diagnostic per line; each one here has a single span.
    let mut findings: Findings = stderr
        .lines()
        .filter_map(|l| {
            let code = l.split_once(r#""code":{"code":""#)?.1.split('"').next()?;
            let line = l.split_once(r#""line_start":"#)?.1.split(',').next()?;
            Some((line.parse().ok()?, code.to_string()))
        })
        .collect();
    findings.sort();
    findings.dedup();
    assert_eq!(output.status.success(), findings.is_empty(), "{stderr}");
    (findings, out_dir.join(stem))
}

fn line_of(source: &str, needle: &str) -> usize {
    1 + source.lines().position(|l| l.contains(needle)).unwrap()
}

fn corpus(name: &str) -> (PathBuf, String) {
    let path = Path::new(ROOT).join("tests/fixtures").join(name);
    let source = fs::read_to_string(&path).unwrap();
    (path, source)
}

fn assert_corpus(name: &str) {
    let (path, source) = corpus(name);
    let mut marked = Findings::new();
    for (i, line) in source.lines().enumerate() {
        let names = line.split_once("//~").map_or("", |(_, names)| names);
        marked.extend(names.split_whitespace().map(|n| (i + 1, n.to_string())));
    }
    marked.sort();
    assert!(!marked.is_empty(), "{name} marks no finding");
    assert_eq!(clippy(&path, true, LIB).0, marked, "{name}");
}

#[test]
fn nondet_iteration_corpus() {
    assert_corpus("nondet_iteration.rs");
}

#[test]
fn wall_clock_corpus() {
    assert_corpus("wall_clock.rs");
}

#[test]
fn narrowing_cast_corpus() {
    assert_corpus("narrowing_cast.rs");
    // The lint is opt-in: it guards the files that carry the corpus's deny.
    for file in ["crates/trace/src/codec.rs", "crates/sim/src/stats.rs"] {
        let source = fs::read_to_string(Path::new(ROOT).join(file)).unwrap();
        let deny = "\n#![deny(clippy::cast_possible_truncation)]\n";
        assert!(source.contains(deny), "{file} lost its deny");
    }
}

#[test]
fn bad_allow_corpus() {
    assert_corpus("bad_allow.rs");
}

#[test]
fn fixtures_do_not_fire_under_uncovered_paths() {
    // Under clippy's defaults the determinism rules are silent, so the
    // corpora test the repository's configuration. The exemption that is
    // left is itself an error.
    let (path, source) = corpus("nondet_iteration.rs");
    let expect = line_of(&source, "#[expect(");
    let stale = (expect, "unfulfilled_lint_expectations".to_string());
    assert_eq!(clippy(&path, false, LIB).0, [stale]);
}

#[test]
fn schema_fixture_gate() {
    // Builds a variant of the miniature pin under the workspace lints,
    // runs its test if it built, and returns the findings and the
    // failing run's output.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema");
    fs::create_dir_all(&dir).unwrap();
    let gate = |name: &str, source: &str| {
        let path = dir.join(format!("{name}.rs"));
        fs::write(&path, source).unwrap();
        let (findings, test) = clippy(&path, true, &["--test"]);
        let run = findings.is_empty().then(|| Command::new(test).output());
        let failure = run.map(Result::unwrap).filter(|r| !r.status.success());
        let stdout = failure.map(|r| String::from_utf8(r.stdout).unwrap());
        (findings, stdout)
    };
    let mutate = |source: &str, from: &str, to: &str| {
        assert!(source.contains(from), "mutation must apply: {from}");
        source.replace(from, to)
    };
    let (_, base) = corpus("schema_base.rs");
    assert_eq!(gate("base", &base), (vec![], None));

    // A field the codec encodes but the pin's literal lacks fails to compile.
    let added = mutate(&base, "misses: u64,", "misses: u64,\n    pub flushes: u64,");
    let added = mutate(&added, "self.misses]", "self.misses, self.flushes]");
    let missing_field = (line_of(&added, "Report { hits"), "E0063".into());
    assert_eq!(gate("added", &added), (vec![missing_field], None));

    // Swapped fields compile but move the bytes, with or without a bump.
    let swapped = mutate(&base, "self.hits, self.misses", "self.misses, self.hits");
    let bumped = mutate(&swapped, "VERSION: u32 = 1", "VERSION: u32 = 2");
    for (name, source) in [("swapped", swapped), ("bumped", bumped)] {
        let (findings, failure) = gate(name, &source);
        assert_eq!(findings, []);
        let failure = failure.expect("the pin must fail");
        assert!(failure.contains("then re-pin"), "{failure}");
    }
}
