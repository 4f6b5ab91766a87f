//! Fixture: reads of the clock and of the caller's environment.

pub fn reads() -> usize {
    let _ = std::time::Instant::now(); //~ clippy::disallowed_methods
    let _ = std::time::SystemTime::now(); //~ clippy::disallowed_methods
    let _ = std::env::var("SOME_RANDOM_VAR"); //~ clippy::disallowed_methods
    let _ = std::env::var_os("PATH"); //~ clippy::disallowed_methods
    std::env::vars().count() //~ clippy::disallowed_methods
}

// A documented knob reader carries its exemption.
#[expect(clippy::disallowed_methods, reason = "reads the documented TIFS_THREADS knob")]
pub fn knob() -> bool {
    std::env::var("TIFS_THREADS").is_ok()
}
