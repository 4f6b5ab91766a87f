//! Output checks. Every failed check counts one failed operation against
//! the attempted ones, and the result line reports both.

use std::fs;
use std::io;
use std::path::Path;

use tifs_sim::stats::SimReport;
use tifs_trace::{ReportKey, ReportStore, StoreStats, TraceKey, TraceStore};

/// Notes kept per tally; later failures are only counted.
const MAX_NOTES: usize = 20;

/// Attempted and failed operations, with a note for each failure.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, first failures first.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(note());
        }
    }

    /// Counts a failure of an operation already attempted.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Adds `other`'s counts and notes.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }
}

/// The accounting identities a timing report must satisfy, per core:
/// every fetch block is exactly one of hit, next-line hit, prefetch hit
/// or demand miss; each core retired exactly the measured budget; no
/// core ran longer than the report; refill misses are baseline misses.
/// (`supplied == Σ prefetch_hits` does not hold: `supplied` also counts
/// supplies to blocks already in flight from next-line.)
pub fn report_violations(report: &SimReport, measured: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (c, core) in report.cores.iter().enumerate() {
        let parts = core.l1i_hits + core.next_line_hits + core.prefetch_hits + core.demand_misses;
        if core.fetch_blocks != parts {
            out.push(format!(
                "core {c}: fetch_blocks {} != hits + next-line + prefetch + demand {parts}",
                core.fetch_blocks
            ));
        }
        if core.retired != measured {
            out.push(format!(
                "core {c}: retired {} != budget {measured}",
                core.retired
            ));
        }
        if core.cycles > report.cycles {
            out.push(format!(
                "core {c}: cycles {} > report cycles {}",
                core.cycles, report.cycles
            ));
        }
        if core.refill_misses > core.baseline_misses() {
            out.push(format!(
                "core {c}: refill_misses {} > baseline misses {}",
                core.refill_misses,
                core.baseline_misses()
            ));
        }
    }
    out
}

/// Decodes one canonical report payload and checks that it re-encodes to
/// the same bytes and satisfies [`report_violations`].
pub fn decode_checked(payload: &[u8], measured: u64) -> Result<SimReport, String> {
    let report = SimReport::from_canonical_bytes(payload).map_err(|e| format!("decode: {e}"))?;
    if report.to_canonical_bytes() != payload {
        return Err("canonical round trip changed the bytes".into());
    }
    match report_violations(&report, measured).as_slice() {
        [] => Ok(report),
        [first, ..] => Err(first.clone()),
    }
}

/// Keys of the entries named `<32 hex digits><ext>` in `dir`, sorted;
/// any other file name is returned in the second list.
fn entry_keys(dir: &Path, ext: &str) -> io::Result<(Vec<u128>, Vec<String>)> {
    let mut keys = Vec::new();
    let mut strays = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let key = name
            .strip_suffix(ext)
            .filter(|stem| stem.len() == 32)
            .and_then(|stem| u128::from_str_radix(stem, 16).ok());
        match key {
            Some(key) => keys.push(key),
            None => strays.push(name),
        }
    }
    keys.sort_unstable();
    Ok((keys, strays))
}

fn check_store_health(label: &str, stats: StoreStats, entries: usize, tally: &mut Tally) {
    tally.check(stats.evictions + stats.gc_evictions == 0, || {
        format!(
            "{label} store evicted {} entries",
            stats.evictions + stats.gc_evictions
        )
    });
    tally.check(stats.writes == entries as u64, || {
        format!(
            "{label} store wrote {} entries, {entries} on disk",
            stats.writes
        )
    });
}

/// A report-store entry read back after a pass.
#[derive(Clone, Debug)]
pub struct ReportEntry {
    /// The entry's content address.
    pub key: u128,
    /// The canonical report bytes.
    pub payload: Vec<u8>,
    /// The decoded report.
    pub report: SimReport,
}

/// Reads back every entry a pass wrote to the report store in `dir`
/// through a fresh store handle, twice, and checks each: present, the
/// same bytes on re-read, decodable, canonical and consistent. `expected`
/// entries must exist, and the pass's own store (`stats`) must have
/// evicted nothing. Returns the entries that passed, sorted by key.
pub fn read_report_store(
    dir: &Path,
    stats: StoreStats,
    expected: usize,
    measured: u64,
    tally: &mut Tally,
) -> io::Result<Vec<ReportEntry>> {
    let (keys, strays) = entry_keys(dir, ".tifr")?;
    let store = ReportStore::new(dir)?;
    let mut out = Vec::with_capacity(keys.len());
    for &key in &keys {
        let first = store.load(&ReportKey(key));
        let second = store.load(&ReportKey(key));
        let checked = match (first, second) {
            (Some(a), Some(b)) if a == b => decode_checked(&a, measured).map(|r| (a, r)),
            (Some(_), Some(_)) => Err("re-read returned different bytes".into()),
            _ => Err("entry did not load".into()),
        };
        match checked {
            Ok((payload, report)) => {
                tally.check(true, String::new);
                out.push(ReportEntry {
                    key,
                    payload,
                    report,
                });
            }
            Err(e) => tally.check(false, || format!("report {key:032x}: {e}")),
        }
    }
    for _ in keys.len()..expected {
        tally.check(false, || {
            format!("{} report entries on disk, {expected} expected", keys.len())
        });
    }
    for stray in strays {
        tally.check(false, || {
            format!("unexpected file {stray} in the report store")
        });
    }
    check_store_health("report", stats, keys.len(), tally);
    Ok(out)
}

/// Reads back every entry of the trace store in `dir` through a fresh
/// handle, twice, checking that each loads and reads the same both times.
/// Returns `(key, sections)` pairs sorted by key.
pub fn read_trace_store(
    dir: &Path,
    stats: StoreStats,
    tally: &mut Tally,
) -> io::Result<Vec<(u128, Vec<Vec<u64>>)>> {
    let (keys, strays) = entry_keys(dir, ".tifm")?;
    let store = TraceStore::new(dir)?;
    let mut out = Vec::with_capacity(keys.len());
    for &key in &keys {
        match (store.load(&TraceKey(key)), store.load(&TraceKey(key))) {
            (Some(a), Some(b)) if a == b => {
                tally.check(true, String::new);
                out.push((key, a));
            }
            _ => tally.check(false, || {
                format!("trace {key:032x}: missing or changed on re-read")
            }),
        }
    }
    for stray in strays {
        tally.check(false, || {
            format!("unexpected file {stray} in the trace store")
        });
    }
    check_store_health("trace", stats, keys.len(), tally);
    Ok(out)
}
