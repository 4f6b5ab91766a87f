//! Rule `schema-drift`: the codec/schema gate.
//!
//! The on-disk formats are guarded by version constants: a `SimReport`
//! blob is only readable if the struct layout matches what
//! `SIM_REPORT_LAYOUT_VERSION` promised when it was written, and the
//! miss trace and report files carry `TIFM`/`TIFR` magic + version
//! headers. Every codec change since the report store landed verified
//! the bump-the-version-when-the-layout-changes discipline by hand;
//! this pass mechanizes it.
//!
//! [`generate_lock`] derives a structural fingerprint — the field list
//! of each versioned struct and the value of each version/magic
//! constant — straight from source and renders it as the committed
//! `crates/lint/schema.lock`. [`check`] re-derives the fingerprint and
//! diffs it against the lock:
//!
//! * struct fields changed, governing version unchanged → **finding**
//!   telling you to bump the version first;
//! * version (or magic) changed → **finding** telling you to regenerate
//!   the lock, so the new layout is recorded in the same PR.
//!
//! Regeneration: `cargo run -p tifs-lint -- --update-schema-lock`.

use crate::findings::{rules, Finding};
use crate::source::AnalyzedFile;

/// Path of the committed lock, repo-relative. Findings about the lock
/// itself (missing, stale entries) anchor here.
pub const LOCK_PATH: &str = "crates/lint/schema.lock";

/// The regeneration recipe, quoted in every message that needs it.
const REGEN: &str = "cargo run -p tifs-lint -- --update-schema-lock";

#[derive(Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    Struct,
    Const,
}

impl ItemKind {
    fn word(self) -> &'static str {
        match self {
            ItemKind::Struct => "struct",
            ItemKind::Const => "const",
        }
    }
}

/// One guarded schema item: where it lives, what it is, and which
/// version constants govern it (empty for the constants themselves).
struct Target {
    path: &'static str,
    kind: ItemKind,
    name: &'static str,
    governed_by: &'static [&'static str],
}

const fn st(
    path: &'static str,
    name: &'static str,
    governed_by: &'static [&'static str],
) -> Target {
    Target {
        path,
        kind: ItemKind::Struct,
        name,
        governed_by,
    }
}

const fn ct(path: &'static str, name: &'static str) -> Target {
    Target {
        path,
        kind: ItemKind::Const,
        name,
        governed_by: &[],
    }
}

/// Everything the gate guards. Adding a versioned codec? Add its struct
/// and version constant here and regenerate the lock.
const TARGETS: &[Target] = &[
    st(
        "crates/sim/src/stats.rs",
        "CoreStats",
        // Flush/refill counters ride the trailing flush section, so a
        // CoreStats change may be covered by bumping (or introducing)
        // the flush layout version instead of the base one.
        &[
            "SIM_REPORT_LAYOUT_VERSION",
            "SIM_REPORT_FLUSH_LAYOUT_VERSION",
        ],
    ),
    st(
        "crates/sim/src/stats.rs",
        "SimReport",
        &[
            "SIM_REPORT_LAYOUT_VERSION",
            "SIM_REPORT_FLUSH_LAYOUT_VERSION",
        ],
    ),
    ct("crates/sim/src/stats.rs", "SIM_REPORT_LAYOUT_VERSION"),
    ct("crates/sim/src/stats.rs", "SIM_REPORT_FLUSH_LAYOUT_VERSION"),
    st(
        "crates/sim/src/l2.rs",
        "L2Stats",
        &["SIM_REPORT_LAYOUT_VERSION"],
    ),
    ct("crates/trace/src/codec.rs", "MAGIC"),
    ct("crates/trace/src/codec.rs", "VERSION"),
    ct("crates/trace/src/codec.rs", "MISS_MAGIC"),
    ct("crates/trace/src/codec.rs", "MISS_TRACE_VERSION"),
    ct("crates/trace/src/codec.rs", "REPORT_MAGIC"),
    ct("crates/trace/src/codec.rs", "REPORT_VERSION"),
];

/// One extracted schema item.
struct Item {
    path: String,
    kind: ItemKind,
    name: &'static str,
    /// Canonical value: `f: T; f: T` for structs, the initializer text
    /// for constants.
    value: String,
    /// 1-based line of the item in its file (for finding anchors).
    line: u32,
}

impl Item {
    fn key(&self) -> String {
        format!("{} {} {}", self.path, self.kind.word(), self.name)
    }
}

/// Extracts every guarded item present in `files`. Files the target
/// list names but that are absent from `files` are skipped — the test
/// suite lints partial file sets.
fn extract(files: &[AnalyzedFile]) -> Vec<Item> {
    let mut items = Vec::new();
    for target in TARGETS {
        let Some(file) = files.iter().find(|f| f.path == target.path) else {
            continue;
        };
        let extracted = match target.kind {
            ItemKind::Struct => extract_struct(file, target.name),
            ItemKind::Const => extract_const(file, target.name),
        };
        if let Some((value, line)) = extracted {
            items.push(Item {
                path: target.path.to_string(),
                kind: target.kind,
                name: target.name,
                value,
                line,
            });
        }
    }
    items
}

/// Finds `struct <name> { … }` in the masked view and canonicalizes the
/// field list to `name: Type; name: Type`.
fn extract_struct(file: &AnalyzedFile, name: &str) -> Option<(String, u32)> {
    let code = file.lines.join("\n");
    let token = format!("struct {name}");
    let mut from = 0;
    let at = loop {
        let found = code[from..].find(&token)? + from;
        let end = found + token.len();
        let boundary = code[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            break found;
        }
        from = end;
    };
    let open = at + code[at..].find('{')?;
    let body = brace_body(&code, open)?;
    let mut fields = Vec::new();
    for piece in split_top_level(body) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        let piece = piece.strip_prefix("pub ").unwrap_or(piece);
        fields.push(collapse_ws(piece));
    }
    let line = line_of_offset(&code, at);
    Some((fields.join("; "), line))
}

/// Finds `const <name>: … = <value>;` and returns the initializer text.
/// The value comes from the *raw* line — magic byte strings like
/// `*b"TIFS"` are blanked in the masked view — but the declaration must
/// exist in the masked view too, so a mention in a comment or string
/// can never satisfy the gate.
fn extract_const(file: &AnalyzedFile, name: &str) -> Option<(String, u32)> {
    let decl = format!("const {name}:");
    for (idx, masked) in file.lines.iter().enumerate() {
        if !masked.contains(&decl) {
            continue;
        }
        let raw = file.raw_lines.get(idx)?;
        let (_, init) = raw.split_once('=')?;
        let value = init.trim().trim_end_matches(';').trim_end();
        return Some((value.to_string(), idx as u32 + 1));
    }
    None
}

/// The text inside the brace block opening at `open` (exclusive).
fn brace_body(code: &str, open: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (off, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&code[open + 1..open + off]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits a struct body on commas at angle/paren/bracket depth zero
/// (`BTreeMap<String, u64>` stays one piece).
fn split_top_level(body: &str) -> Vec<&str> {
    let mut pieces = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in body.char_indices() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                pieces.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&body[start..]);
    pieces
}

fn collapse_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn line_of_offset(text: &str, offset: usize) -> u32 {
    let clamped = offset.min(text.len());
    let newlines = text.as_bytes()[..clamped]
        .iter()
        .filter(|&&b| b == b'\n')
        .count();
    u32::try_from(newlines).unwrap_or(u32::MAX - 1) + 1
}

/// Renders the lock for the current source tree.
pub fn generate_lock(files: &[AnalyzedFile]) -> String {
    let mut out = String::from(
        "# tifs-lint schema lock — structural fingerprint of the versioned codecs.\n\
         # Regenerate (after bumping the governing layout version!) with:\n\
         #     cargo run -p tifs-lint -- --update-schema-lock\n",
    );
    for item in extract(files) {
        match item.kind {
            ItemKind::Struct => {
                out.push_str(&format!("{} {{ {} }}\n", item.key(), item.value));
            }
            ItemKind::Const => {
                out.push_str(&format!("{} = {}\n", item.key(), item.value));
            }
        }
    }
    out
}

/// Parses a lock into `(key, value)` pairs.
fn parse_lock(lock: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    for line in lock.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, value)) = line.split_once(" { ") {
            let value = value.trim_end().trim_end_matches('}').trim();
            entries.push((key.trim().to_string(), value.to_string()));
        } else if let Some((key, value)) = line.split_once(" = ") {
            entries.push((key.trim().to_string(), value.trim().to_string()));
        }
    }
    entries
}

/// Diffs the current tree against the committed lock.
pub fn check(files: &[AnalyzedFile], lock: Option<&str>) -> Vec<Finding> {
    let items = extract(files);
    if items.is_empty() {
        // None of the guarded files are in this lint run (fixture-only
        // invocations); nothing to gate.
        return Vec::new();
    }
    let Some(lock) = lock else {
        return vec![Finding::new(
            rules::SCHEMA_DRIFT,
            LOCK_PATH,
            1,
            format!("schema lock is missing — generate it with `{REGEN}`"),
        )];
    };
    let locked = parse_lock(lock);
    let mut findings = Vec::new();
    let locked_value = |key: &str| {
        locked
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    for item in &items {
        let key = item.key();
        match locked_value(&key) {
            None => findings.push(Finding::new(
                rules::SCHEMA_DRIFT,
                &item.path,
                item.line,
                format!(
                    "{} `{}` is not in {LOCK_PATH} — regenerate it with `{REGEN}`",
                    item.kind.word(),
                    item.name
                ),
            )),
            Some(locked_val) if locked_val != item.value => match item.kind {
                ItemKind::Struct => {
                    let target = TARGETS
                        .iter()
                        .find(|t| t.path == item.path && t.name == item.name);
                    let governors = target.map(|t| t.governed_by).unwrap_or(&[]);
                    let bumped = governors.iter().any(|g| {
                        let gov_key = items
                            .iter()
                            .find(|i| i.kind == ItemKind::Const && i.name == *g)
                            .map(Item::key);
                        match gov_key {
                            Some(k) => {
                                let current = items
                                    .iter()
                                    .find(|i| i.key() == k)
                                    .map(|i| i.value.as_str());
                                locked_value(&k) != current
                            }
                            None => false,
                        }
                    });
                    if bumped {
                        findings.push(Finding::new(
                            rules::SCHEMA_DRIFT,
                            &item.path,
                            item.line,
                            format!(
                                "fields of `{}` changed alongside a version bump — \
                                 record the new layout with `{REGEN}`",
                                item.name
                            ),
                        ));
                    } else {
                        findings.push(Finding::new(
                            rules::SCHEMA_DRIFT,
                            &item.path,
                            item.line,
                            format!(
                                "fields of `{}` changed but {} unchanged — this alters \
                                 the serialized layout silently. Bump the version, \
                                 re-handle old blobs in the decoder, then run `{REGEN}`",
                                item.name,
                                join_names(governors),
                            ),
                        ));
                    }
                }
                ItemKind::Const => findings.push(Finding::new(
                    rules::SCHEMA_DRIFT,
                    &item.path,
                    item.line,
                    format!(
                        "`{}` changed ({} → {}) — record it with `{REGEN}`",
                        item.name, locked_val, item.value
                    ),
                )),
            },
            Some(_) => {}
        }
    }
    for (key, _) in &locked {
        // Only complain about stale entries whose file was actually
        // scanned: in partial runs most locked items are simply absent.
        let path = key.split(' ').next().unwrap_or("");
        let scanned = files.iter().any(|f| f.path == path);
        if scanned && !items.iter().any(|i| &i.key() == key) {
            findings.push(Finding::new(
                rules::SCHEMA_DRIFT,
                LOCK_PATH,
                1,
                format!("locked schema item `{key}` no longer exists in source — `{REGEN}`"),
            ));
        }
    }
    findings
}

fn join_names(names: &[&str]) -> String {
    if names.is_empty() {
        "its layout version is".to_string()
    } else {
        format!("{} is", names.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    const STATS: &str = "\
pub struct CoreStats {
    pub retired: u64,
    pub cycles: u64,
}
pub struct SimReport {
    pub cores: Vec<CoreStats>,
    pub extras: Vec<(String, f64)>,
}
pub const SIM_REPORT_LAYOUT_VERSION: u32 = 1;
pub const SIM_REPORT_EVENT_LAYOUT_VERSION: u32 = 2;
";

    fn analyzed(content: &str) -> Vec<AnalyzedFile> {
        vec![AnalyzedFile::new(&SourceFile {
            path: "crates/sim/src/stats.rs".to_string(),
            content: content.to_string(),
        })]
    }

    #[test]
    fn lock_roundtrip_is_clean() {
        let files = analyzed(STATS);
        let lock = generate_lock(&files);
        assert!(
            lock.contains("struct SimReport { cores: Vec<CoreStats>; extras: Vec<(String, f64)> }")
        );
        assert!(lock.contains("const SIM_REPORT_LAYOUT_VERSION = 1"));
        assert!(check(&files, Some(&lock)).is_empty());
    }

    #[test]
    fn field_change_without_bump_demands_a_bump() {
        let lock = generate_lock(&analyzed(STATS));
        let drifted = STATS.replace(
            "pub cores: Vec<CoreStats>,",
            "pub cores: Vec<CoreStats>,\n    pub sneaky: u64,",
        );
        let findings = check(&analyzed(&drifted), Some(&lock));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, rules::SCHEMA_DRIFT);
        assert!(
            findings[0].message.contains("Bump the version"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn field_change_with_bump_demands_regeneration_and_regen_passes() {
        let lock = generate_lock(&analyzed(STATS));
        let bumped = STATS
            .replace(
                "pub cores: Vec<CoreStats>,",
                "pub cores: Vec<CoreStats>,\n    pub legit: u64,",
            )
            .replace(
                "SIM_REPORT_LAYOUT_VERSION: u32 = 1",
                "SIM_REPORT_LAYOUT_VERSION: u32 = 2",
            );
        let files = analyzed(&bumped);
        let findings = check(&files, Some(&lock));
        assert!(
            findings.iter().any(|f| f.message.contains("version bump")),
            "{findings:?}"
        );
        let regenerated = generate_lock(&files);
        assert!(check(&files, Some(&regenerated)).is_empty());
    }

    #[test]
    fn missing_lock_is_a_finding() {
        let findings = check(&analyzed(STATS), None);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("--update-schema-lock"));
    }

    #[test]
    fn const_in_comment_does_not_count_as_declared() {
        let src = "// pub const SIM_REPORT_LAYOUT_VERSION: u32 = 9;\npub struct CoreStats { pub a: u64 }\n";
        let files = analyzed(src);
        let lock = generate_lock(&files);
        assert!(!lock.contains("SIM_REPORT_LAYOUT_VERSION"));
        assert!(lock.contains("struct CoreStats"));
    }
}
