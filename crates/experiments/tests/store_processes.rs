//! Two `tifs` processes writing one pair of stores at once. Each store
//! entry is written to a temporary file and renamed into place, so two
//! writers of the same key leave one complete entry: neither process may
//! read a torn entry (an eviction), a third run must be served all-hit,
//! every run must publish the same results, and the store directories
//! must hold entries and nothing else: no temporary file and no sidecar.

use std::fs;
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};

const ARGS: [&str; 5] = ["all", "--instructions", "2000", "--warmup", "2000"];

/// Starts `tifs all` on the stores under `stores`, publishing to `results`.
fn spawn(stores: &Path, results: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_tifs"))
        .args(ARGS)
        .env("TIFS_TRACE_STORE", stores.join("traces"))
        .env("TIFS_REPORT_STORE", stores.join("reports"))
        .env("TIFS_RESULTS", results)
        .env("TIFS_THREADS", "2")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start tifs")
}

/// Waits for `child`, asserts it exited 0, and returns its stdout.
fn finish(child: Child) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = child.wait_with_output().expect("wait for tifs");
    assert!(
        status.success(),
        "tifs exited {status}; stderr:\n{}",
        String::from_utf8_lossy(&stderr)
    );
    String::from_utf8(stdout).expect("stdout is UTF-8")
}

/// The `[<store> store] H hits, M misses, W writes, E evictions (dir)`
/// footer of `stdout`.
fn footer<'a>(stdout: &'a str, store: &str) -> &'a str {
    let prefix = format!("[{store} store] ");
    stdout
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no {store} store footer in:\n{stdout}"))
}

/// Every file of `dir` (not recursive), by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("UTF-8 name");
            (name, fs::read(e.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// Whether `name` is `<32 hex digits><ext>`.
fn is_entry(name: &str, ext: &str) -> bool {
    name.strip_suffix(ext)
        .is_some_and(|stem| stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
}

#[test]
fn two_processes_share_one_store() {
    let root = std::env::temp_dir().join(format!("tifs-store-processes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let stores = root.join("stores");
    let results = |run: &str| root.join(format!("results-{run}"));

    let first = spawn(&stores, &results("a"));
    let second = spawn(&stores, &results("b"));
    for out in [finish(first), finish(second)] {
        for store in ["trace", "report"] {
            let line = footer(&out, store);
            assert!(line.contains(", 0 evictions"), "{line}");
        }
    }
    let warm = finish(spawn(&stores, &results("c")));
    for store in ["trace", "report"] {
        let line = footer(&warm, store);
        assert!(line.contains(", 0 misses, 0 writes, 0 evictions"), "{line}");
    }

    let published = files(&results("a"));
    assert!(!published.is_empty(), "tifs all published nothing");
    for run in ["b", "c"] {
        assert!(files(&results(run)) == published, "results-{run} differ");
    }
    for (dir, ext) in [("traces", ".tifm"), ("reports", ".tifr")] {
        let names: Vec<String> = files(&stores.join(dir))
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert!(!names.is_empty(), "{dir} store is empty");
        let strays: Vec<&String> = names.iter().filter(|n| !is_entry(n, ext)).collect();
        assert!(
            strays.is_empty(),
            "{dir} store holds non-entries: {strays:?}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
