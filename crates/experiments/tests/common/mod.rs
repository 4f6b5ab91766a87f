//! Helpers shared by the golden-file suites.

/// Compares `rendered` with the committed golden file `tests/golden/<file>`,
/// or rewrites that file when `TIFS_UPDATE_GOLDEN` is set.
#[expect(
    clippy::disallowed_methods,
    reason = "TIFS_UPDATE_GOLDEN chooses between checking and rewriting a golden file"
)]
pub fn check_golden(rendered: &str, file: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    // Same disable convention as TIFS_TRACE_STORE / TIFS_RESULTS: falsy
    // values must not silently rewrite the goldens and pass vacuously.
    let update = matches!(
        std::env::var("TIFS_UPDATE_GOLDEN").as_deref(),
        Ok(v) if !matches!(v, "" | "0" | "off" | "none" | "false")
    );
    if update {
        std::fs::write(&path, rendered).expect("update golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        rendered,
        expected,
        "{} diverged from its golden bytes; if intentional, regenerate with \
         TIFS_UPDATE_GOLDEN=1 cargo test -p tifs-experiments --test {}",
        file,
        env!("CARGO_CRATE_NAME")
    );
}
