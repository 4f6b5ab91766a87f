//! Rule `nondet-iteration`: iteration over `std::collections::HashMap`
//! / `HashSet` in covered code.
//!
//! Iteration order of the std hash tables is seeded per-process, so any
//! result that depends on it (report counters, grammar rule order,
//! fill drain order) silently varies run to run — a class of bug the
//! workspace's bootstrap commit fixed four times. Covered crates must
//! iterate `BlockMap` / `DigramIndex` / sorted structures instead, or
//! sort before iterating and say so in an `allow` annotation.
//!
//! The pass is lexical and file-local, tuned to this repo's idiom: it
//! first registers every identifier the file binds to a `HashMap` /
//! `HashSet` (let bindings with a type annotation or a `HashMap::…`
//! initializer, struct fields, fn params), then flags iteration-shaped
//! uses of those identifiers — `.iter()`, `.keys()`, `.values()`,
//! `.drain(…)`, `.into_iter()`, `.retain(…)` calls and `for … in`
//! loops over them.

use crate::findings::{rules, Finding};
use crate::source::{AnalyzedFile, DETERMINISM_CRATES};

/// Method suffixes that enumerate a hash table in seed order.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// Runs the pass over one file.
pub fn check(file: &AnalyzedFile) -> Vec<Finding> {
    if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return Vec::new();
    }
    let tables = registered_tables(file);
    if tables.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let line_no = idx as u32 + 1;
        if file.is_test_line(line_no) {
            continue;
        }
        for method in ITER_METHODS {
            let mut from = 0;
            while let Some(found) = line[from..].find(method) {
                let at = from + found;
                if let Some(name) = receiver_ident(line, at) {
                    if tables.iter().any(|t| t == name) {
                        let shown = if method.ends_with(')') {
                            (*method).to_string()
                        } else {
                            format!("{method}…)")
                        };
                        findings.push(Finding::new(
                            rules::NONDET_ITERATION,
                            &file.path,
                            line_no,
                            format!(
                                "`{name}{shown}` enumerates a HashMap/HashSet in seed order — \
                                 use BlockMap/DigramIndex or a sorted structure, or sort \
                                 the result and annotate"
                            ),
                        ));
                    }
                }
                from = at + method.len();
            }
        }
        if let Some(name) = for_loop_over(line) {
            if tables.iter().any(|t| t == &name) {
                findings.push(Finding::new(
                    rules::NONDET_ITERATION,
                    &file.path,
                    line_no,
                    format!(
                        "`for … in {name}` enumerates a HashMap/HashSet in seed order — \
                         use BlockMap/DigramIndex or a sorted structure, or sort the \
                         result and annotate"
                    ),
                ));
            }
        }
    }
    findings
}

/// Collects every identifier this file binds to a `HashMap`/`HashSet`,
/// via a type annotation (`name: …HashMap<…>` in a let, field, or
/// param) or a constructor (`let [mut] name = …HashMap::…`).
fn registered_tables(file: &AnalyzedFile) -> Vec<String> {
    let mut tables = Vec::new();
    for line in &file.lines {
        for table in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(found) = line[from..].find(table) {
                let at = from + found;
                from = at + table.len();
                if !token_boundary(line, at, table.len()) {
                    continue;
                }
                let after = &line[at + table.len()..];
                let before = &line[..at];
                if after.starts_with('<') {
                    // Type annotation: the bound name sits before the `:`.
                    if let Some(name) = annotated_ident(before) {
                        push_unique(&mut tables, name);
                    }
                } else if after.starts_with("::") {
                    // Constructor: `let [mut] name = …HashMap::new()`.
                    if let Some(name) = let_bound_ident(before) {
                        push_unique(&mut tables, name);
                    }
                }
            }
        }
    }
    tables
}

/// For text ending just before a `HashMap`/`HashSet` type token, walks
/// back over the path/reference prefix to the `:` and returns the
/// identifier annotated with that type.
fn annotated_ident(before: &str) -> Option<String> {
    let mut rest = before.trim_end();
    for prefix in ["std::collections::", "collections::", "ahash::"] {
        rest = rest.strip_suffix(prefix).unwrap_or(rest);
    }
    rest = rest.trim_end();
    rest = rest.strip_suffix("&mut").unwrap_or(rest);
    rest = rest.strip_suffix('&').unwrap_or(rest);
    rest = rest.trim_end().strip_suffix(':')?.trim_end();
    // `pub name:` / `let name:` / `(name:` all end with the ident, so a
    // bare trailing identifier is exactly what we want.
    trailing_ident(rest).map(str::to_string)
}

/// The identifier the text ends with, if any.
fn trailing_ident(text: &str) -> Option<&str> {
    let bytes = text.as_bytes();
    let mut start = bytes.len();
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' {
            start -= 1;
        } else {
            break;
        }
    }
    let name = &text[start..];
    if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
        None
    } else {
        Some(name)
    }
}

/// For text ending just before `HashMap::`, returns the let-bound name
/// if the line is a `let [mut] name = …` binding.
fn let_bound_ident(before: &str) -> Option<String> {
    let eq = before.rfind('=')?;
    let lhs = before[..eq].trim_end();
    let lhs = lhs.split_once("let ")?.1.trim();
    let lhs = lhs.strip_prefix("mut ").unwrap_or(lhs).trim();
    // Skip destructuring/typed lets here; typed lets are caught by the
    // annotation arm anyway.
    if lhs.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && !lhs.is_empty() {
        Some(lhs.to_string())
    } else {
        None
    }
}

/// If `line` is a `for … in <receiver> {` loop, returns the receiver's
/// final identifier (stripping `&`/`&mut`/`self.`), when the receiver
/// is a plain place expression rather than a call.
fn for_loop_over(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    if !trimmed.starts_with("for ") {
        return None;
    }
    let (_, rest) = trimmed.split_once(" in ")?;
    let expr = rest.split('{').next()?.trim();
    let expr = expr.strip_prefix("&mut ").unwrap_or(expr);
    let expr = expr.strip_prefix('&').unwrap_or(expr);
    if expr.contains('(') {
        // `for x in map.keys()` is handled by the method arm; calls on
        // non-registered receivers are out of scope.
        return None;
    }
    let name = expr.rsplit('.').next()?;
    if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Some(name.to_string())
    } else {
        None
    }
}

/// Extracts the identifier segment immediately before the `.` of a
/// method call found at byte `dot_at` (`self.map.keys()` → `map`).
fn receiver_ident(line: &str, dot_at: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    let mut start = dot_at;
    while start > 0 {
        let b = bytes[start - 1];
        if b.is_ascii_alphanumeric() || b == b'_' {
            start -= 1;
        } else {
            break;
        }
    }
    if start == dot_at {
        return None;
    }
    Some(&line[start..dot_at])
}

/// Whether `line[at..at+len]` is a whole token (not part of a longer
/// identifier like `MyHashMapWrapper`).
fn token_boundary(line: &str, at: usize, len: usize) -> bool {
    let bytes = line.as_bytes();
    let before_ok = at == 0 || {
        let b = bytes[at - 1];
        !b.is_ascii_alphanumeric() && b != b'_'
    };
    let after_ok = at + len >= bytes.len() || {
        let b = bytes[at + len];
        !b.is_ascii_alphanumeric() && b != b'_'
    };
    before_ok && after_ok
}

fn push_unique(tables: &mut Vec<String>, name: String) {
    if !tables.contains(&name) {
        tables.push(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn findings_in(content: &str) -> Vec<Finding> {
        check(&AnalyzedFile::new(&SourceFile {
            path: "crates/sim/src/x.rs".to_string(),
            content: content.to_string(),
        }))
    }

    #[test]
    fn flags_iteration_over_typed_binding() {
        let src = "\
use std::collections::HashMap;
fn f(map: &HashMap<u64, u64>) -> u64 {
    map.values().sum()
}
";
        let f = findings_in(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, rules::NONDET_ITERATION);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn flags_constructor_binding_and_for_loop() {
        let src = "\
fn f() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(1u64);
    for x in &seen {
        drop(x);
    }
}
";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn flags_field_receiver_through_self() {
        let src = "\
struct S {
    index: std::collections::HashMap<u64, u64>,
}
impl S {
    fn dump(&self) -> Vec<u64> {
        self.index.keys().copied().collect()
    }
}
";
        let f = findings_in(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert!(f[0].message.contains("`index.keys()`"));
    }

    #[test]
    fn lookups_and_inserts_are_fine() {
        let src = "\
fn f(map: &mut std::collections::HashMap<u64, u64>) {
    map.insert(1, 2);
    let _ = map.get(&1);
    let _ = map.contains_key(&1);
    let _ = map.len();
}
";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn other_types_with_same_method_names_are_fine() {
        let src = "\
fn f(v: &[u64], map: std::collections::HashMap<u64, u64>) -> u64 {
    let _ = map.len();
    v.iter().sum()
}
";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn cfg_test_regions_and_uncovered_crates_are_skipped() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(map: &std::collections::HashMap<u64, u64>) -> u64 {
        map.values().sum()
    }
}
";
        assert!(findings_in(src).is_empty());
        let bench = check(&AnalyzedFile::new(&SourceFile {
            path: "crates/bench/src/lib.rs".to_string(),
            content: "fn f(m: &std::collections::HashMap<u64,u64>) { m.keys(); }".to_string(),
        }));
        assert!(bench.is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_register() {
        let src = "\
/// Uses a HashMap internally? No: this doc mentions map.keys().
fn f(map: &crate::BlockMap<u64>) -> u64 {
    let _ = \"HashMap::new()\";
    map.len() as u64
}
";
        assert!(findings_in(src).is_empty());
    }
}
