//! Figure 10 takes its lookahead marks from one of three sources: its own
//! trace-store entry, the marks a lab kept from its own functional pass,
//! or a walk of core 0 alone. Each source must give the same figure, and
//! the store must see the same entries and the same number of writes
//! whichever source ran.
//!
//! Every pin below was captured when `fig10` still walked core 0 itself
//! on every cold run: its per-workload results, and the key and file
//! bytes of every trace-store entry that a cold `fig03` → `fig10`
//! sequence writes.

use std::path::{Path, PathBuf};

use tifs_experiments::engine::{functional_section, Lab};
use tifs_experiments::figures::{fig03, fig10};
use tifs_experiments::harness::ExpConfig;
use tifs_trace::workload::WorkloadSpec;
use tifs_trace::{TraceKey, TraceStore};

const EXP: ExpConfig = ExpConfig {
    instructions: 200_000,
    warmup: 100_000,
    seed: 42,
};

/// `(workload, number of branch counts, FNV-64 of the sorted counts)` per
/// workload.
const FIG10_PINS: [(&str, usize, u64); 6] = [
    ("OLTP DB2", 1353, 7325935732633006387),
    ("OLTP Oracle", 1326, 9588551784451095820),
    ("DSS Qry2", 275, 581036759023514351),
    ("DSS Qry17", 127, 18416703826752982921),
    ("Web Apache", 1312, 9246930220155115558),
    ("Web Zeus", 780, 7037009258976034980),
];

/// `(key, FNV-64 of the entry file)` of every entry a cold `fig03` →
/// `fig10` sequence writes, in key order: six `miss_trace` entries
/// (four cores each) and six `fig10_lookahead_v1` entries (core 0).
const STORE_PINS: [(u128, u64); 12] = [
    (0x00d3a365d56c1c09c38b8a3fcc46f84e, 0xe1639b23b6eb3d46),
    (0x20324837c8df23ebdcc2c42fb29f3ab4, 0x661f7a27f87ad412),
    (0x254573effdff6df647047edd804aaf93, 0x8464c32cbab71717),
    (0x4387e040105dfc45d52dd9f089e207f3, 0x477b9a81d4d277bd),
    (0x503a020ccd210ca5f0acdcbbcfe0e561, 0xf4248d5bc96de262),
    (0x52d322a31c825f965c9b9c43339ea8b7, 0x5f74267395a81a03),
    (0x5928bc2e34f55335bba7503ff0da2a2d, 0xead685156ba7953c),
    (0x72c0158bb174c209ce68385575d8c63e, 0x524cd2597db5a84a),
    (0xabcbf46e715ccb9d5bc59918edaea3d6, 0xcaf39e4bf2ec0f99),
    (0xc901031af34229a4c0d9b287ab061499, 0x1b6f1db8c0a7eac8),
    (0xd4f8a3dc8f980c35911564d9413f050c, 0x72241369c5badb51),
    (0xe99fa0f8e5c2f525cbaeb1a02733ea04, 0x528d55f04ffaf5f8),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fig10_digest(results: &[fig10::LookaheadDist]) -> Vec<(String, usize, u64)> {
    results
        .iter()
        .map(|r| {
            let mut h = Fnv::new();
            for &c in &r.counts {
                h.bytes(&c.to_le_bytes());
            }
            (r.workload.clone(), r.counts.len(), h.0)
        })
        .collect()
}

/// `(key, FNV-64 of the file)` of every entry in the store, in key order.
fn store_entries(dir: &Path) -> Vec<(u128, u64)> {
    let mut out: Vec<(u128, u64)> = std::fs::read_dir(dir)
        .expect("store dir")
        .filter_map(|e| {
            let path = e.expect("dir entry").path();
            let stem = path.file_name()?.to_str()?.strip_suffix(".tifm")?;
            let key = u128::from_str_radix(stem, 16).ok()?;
            let mut h = Fnv::new();
            h.bytes(&std::fs::read(&path).expect("entry bytes"));
            Some((key, h.0))
        })
        .collect();
    out.sort_unstable();
    out
}

fn fig10_keys() -> Vec<TraceKey> {
    let section = functional_section("fig10_lookahead_v1");
    WorkloadSpec::all_six()
        .iter()
        .map(|spec| TraceKey::for_section(&section, spec, EXP.seed, EXP.instructions, 1))
        .collect()
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tifs-fig10-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lab_on(dir: &Path) -> Lab {
    Lab::all_six(EXP).with_store(TraceStore::new(dir).expect("store dir"))
}

fn assert_pinned(results: &[fig10::LookaheadDist], case: &str) {
    let got = fig10_digest(results);
    let want: Vec<(String, usize, u64)> = FIG10_PINS
        .iter()
        .map(|&(w, n, h)| (w.to_string(), n, h))
        .collect();
    assert_eq!(got, want, "{case}: fig10 results moved");
}

/// Store counters `(hits, misses, writes)`.
fn counters(lab: &Lab) -> (u64, u64, u64) {
    let s = lab.store().expect("store").stats();
    (s.hits, s.misses, s.writes)
}

#[test]
fn every_source_gives_the_pinned_figure_and_store_entries() {
    let dir = store_dir("sources");

    // Cold, with the traces computed by fig03: the marks come from the
    // lab's own pass.
    let cold = lab_on(&dir);
    fig03::run_on(&cold);
    assert!((0..cold.len()).all(|i| cold.lookahead_marks(i).is_some()));
    assert_pinned(&fig10::run_on(&cold), "cold lab after fig03");
    assert_eq!(
        store_entries(&dir),
        STORE_PINS,
        "cold fig03 -> fig10 entries"
    );
    assert_eq!(counters(&cold), (0, 12, 12));

    // Fully warm: every input comes from the store, nothing is written.
    let warm = lab_on(&dir);
    fig03::run_on(&warm);
    assert_pinned(&fig10::run_on(&warm), "fully warm lab");
    assert_eq!(counters(&warm), (12, 0, 0));
    assert_eq!(store_entries(&dir), STORE_PINS);

    // Warm traces, no fig10 entries: the lab holds no marks, so fig10
    // walks core 0 and writes its entries back.
    for key in fig10_keys() {
        std::fs::remove_file(dir.join(key.file_name())).expect("fig10 entry on disk");
    }
    let traces_only = lab_on(&dir);
    fig03::run_on(&traces_only);
    assert!((0..traces_only.len()).all(|i| traces_only.lookahead_marks(i).is_none()));
    assert_pinned(&fig10::run_on(&traces_only), "lab with warm traces only");
    assert_eq!(counters(&traces_only), (6, 6, 6));
    assert_eq!(store_entries(&dir), STORE_PINS);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig10_alone_walks_core_0_and_writes_only_its_own_entries() {
    let dir = store_dir("alone");
    let lab = lab_on(&dir);
    assert_pinned(&fig10::run_on(&lab), "cold lab running fig10 alone");
    // No miss-trace entries: the lab's four-core pass never ran.
    assert!((0..lab.len()).all(|i| lab.lookahead_marks(i).is_none()));
    assert_eq!(counters(&lab), (0, 6, 6));
    let keys: Vec<u128> = fig10_keys().iter().map(|k| k.0).collect();
    let want: Vec<(u128, u64)> = STORE_PINS
        .iter()
        .copied()
        .filter(|(key, _)| keys.contains(key))
        .collect();
    assert_eq!(want.len(), 6);
    assert_eq!(store_entries(&dir), want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storeless_labs_give_the_pinned_figure() {
    let lab = Lab::all_six(EXP);
    assert_pinned(&fig10::run_on(&lab), "storeless lab, fig10 alone");
    fig03::run_on(&lab);
    assert_pinned(&fig10::run_on(&lab), "storeless lab after fig03");
}
