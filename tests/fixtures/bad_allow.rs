//! Fixture: suppression hygiene. A plain `#[allow]`, a reasonless or
//! stale `#[expect]` and an unknown lint name are errors; only a reasoned
//! `#[expect]` that still fires passes.

#[allow(clippy::disallowed_methods)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
pub fn reasonless() -> bool {
    std::env::var("HOME").is_ok()
}

#[expect(clippy::disallowed_methods)] //~ clippy::allow_attributes_without_reason
pub fn unexplained() -> bool {
    std::env::var("HOME").is_ok()
}

#[expect(clippy::disallowed_methods, reason = "leftover from a deleted clock read")] //~ unfulfilled_lint_expectations
pub fn stale() -> u64 {
    9
}

#[expect(clippy::made_up_rule, reason = "not a lint clippy has")] //~ unknown_lints
pub fn unknown_rule() -> u64 {
    7
}

#[expect(clippy::disallowed_methods, reason = "selects an output directory only")]
pub fn excused() -> bool {
    std::env::var("OUTPUT_DIR_OVERRIDE").is_ok()
}
