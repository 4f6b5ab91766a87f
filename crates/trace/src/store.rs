//! Content-addressed on-disk stores for cached miss traces and timing
//! reports.
//!
//! Building a workload's per-core L1-I miss traces costs a full pass of
//! the functional fetch model over millions of instructions, and a timing
//! run (`tifs_sim`'s cycle-level CMP) costs far more again; the paper's
//! evaluation replays both over large (workload × system) grids. The
//! stores make each of those a once-per-machine cost instead of a
//! once-per-process cost:
//!
//! * every entry is keyed by a stable 128-bit FNV-1a fingerprint
//!   ([`Fingerprint`]) of *every* generating input — the [`WorkloadSpec`],
//!   seed, instruction budget, core count, and entry format version for a
//!   [`TraceKey`]; the full cell configuration (spec, experiment
//!   parameters, CMP config, prefetcher config, execution mode) for a
//!   [`ReportKey`] — so any input change addresses different content;
//! * entries are written through the checksummed codec sections
//!   ([`crate::codec::write_symbol_sections`] /
//!   [`crate::codec::write_report_section`]) to a temporary file and
//!   atomically renamed into place, so a crashed writer never leaves a
//!   partially written entry under a live name;
//! * reads stream entries back through a buffered reader and verify
//!   magic, version, key, and checksum; corrupt or mismatched entries are
//!   evicted loudly (a warning on stderr, the file deleted) and the
//!   caller rebuilds from scratch.
//!
//! The trace store is controlled by the `TIFS_TRACE_STORE` environment
//! variable and the report store by `TIFS_REPORT_STORE`: unset uses the
//! default directory ([`DEFAULT_STORE_DIR`] / [`DEFAULT_REPORT_STORE_DIR`]),
//! a path selects that directory, and `off` / `0` / `none` disables
//! persistence entirely for hermetic runs.

use std::fs;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{self, CodecError};
use crate::types::BlockAddr;
use crate::workload::{WorkloadClass, WorkloadSpec};

/// Environment variable selecting the trace store directory (`off` / `0`
/// / `none` disables the store).
pub const STORE_ENV: &str = "TIFS_TRACE_STORE";

/// Default trace store directory, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".tifs-cache/traces";

/// Environment variable selecting the report store directory (`off` /
/// `0` / `none` disables the store).
pub const REPORT_STORE_ENV: &str = "TIFS_REPORT_STORE";

/// Default report store directory, relative to the working directory.
pub const DEFAULT_REPORT_STORE_DIR: &str = ".tifs-cache/reports";

/// 128-bit FNV-1a fingerprint builder over a canonical byte
/// serialization. This is the one hashing scheme behind every store key:
/// callers feed each input through a typed method (strings are length-
/// prefixed, floats hash their exact bit pattern) and take the final
/// [`finish`](Fingerprint::finish) value as the content address.
#[derive(Clone, Debug)]
pub struct Fingerprint(u128);

impl Fingerprint {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    /// An empty fingerprint (FNV offset basis).
    pub fn new() -> Fingerprint {
        Fingerprint(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds one `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds one `bool` as a `u64`.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The 128-bit fingerprint of everything fed so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Feeds every field of a [`WorkloadSpec`] into `h`, exhaustively: adding
/// a `WorkloadSpec` field without hashing it here is a compile error,
/// never a stale cache hit. Shared by [`TraceKey::for_section`] and the
/// experiment engine's report keys.
pub fn hash_workload_spec(h: &mut Fingerprint, spec: &WorkloadSpec) {
    let WorkloadSpec {
        name,
        class,
        seed_salt,
        n_txn_types,
        path_len,
        func_instrs,
        shared_frac,
        shared_pool,
        divergence_every,
        n_variants,
        hammock_period,
        data_dep_frac,
        inner_loop_prob,
        avg_loop_iters,
        scan_loops,
        scan_iters,
        cold_pool,
        cold_prob,
        trap_period,
        n_trap_handlers,
        data:
            crate::exec::DataProfile {
                l1d_miss_rate,
                l2_hit_frac,
            },
        duty_cycle,
        ctx_switch_period,
    } = spec;
    h.str(name);
    h.u64(match class {
        WorkloadClass::Oltp => 0,
        WorkloadClass::Dss => 1,
        WorkloadClass::Web => 2,
    });
    h.u64(*seed_salt);
    h.u64(*n_txn_types as u64);
    h.u64(*path_len as u64);
    h.u64(u64::from(func_instrs.0));
    h.u64(u64::from(func_instrs.1));
    h.f64(*shared_frac);
    h.u64(*shared_pool as u64);
    h.u64(*divergence_every as u64);
    h.u64(*n_variants as u64);
    h.u64(u64::from(*hammock_period));
    h.f64(*data_dep_frac);
    h.f64(*inner_loop_prob);
    h.f64(*avg_loop_iters);
    h.u64(u64::from(*scan_loops));
    h.f64(*scan_iters);
    h.u64(*cold_pool as u64);
    h.f64(*cold_prob);
    h.u64(*trap_period);
    h.u64(*n_trap_handlers as u64);
    h.f64(*l1d_miss_rate);
    h.f64(*l2_hit_frac);
    // Append-only extension (multi-tenant PR): the knobs hash *only* away
    // from their defaults, so every legacy spec keeps its exact pre-mix
    // fingerprint and every persistent store entry stays warm. Each knob
    // is tagged so distinct knob combinations can never alias.
    if *duty_cycle != 1.0 {
        h.u64(0x6475_7479); // "duty"
        h.f64(*duty_cycle);
    }
    if *ctx_switch_period != 0 {
        h.u64(0x6378_7377); // "cxsw"
        h.u64(*ctx_switch_period);
    }
}

/// Stable content address of one trace store entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey(pub u128);

impl TraceKey {
    /// Fingerprints a derived-trace section: `section` names what was
    /// derived *and every parameter of the derivation that is not part
    /// of the spec* (callers embed e.g. the functional-model cache
    /// geometry and a derivation version in the string — see
    /// `tifs_experiments::engine`), while the remaining arguments pin
    /// the workload inputs. Any change to any of them produces a
    /// different key, so stale entries are never read — they are simply
    /// never addressed again.
    pub fn for_section(
        section: &str,
        spec: &WorkloadSpec,
        seed: u64,
        instructions: u64,
        cores: usize,
    ) -> TraceKey {
        let mut h = Fingerprint::new();
        h.u64(u64::from(codec::MISS_TRACE_VERSION));
        h.str(section);
        hash_workload_spec(&mut h, spec);
        h.u64(seed);
        h.u64(instructions);
        h.u64(cores as u64);
        TraceKey(h.finish())
    }

    /// Store file name of this key.
    pub fn file_name(&self) -> String {
        format!("{:032x}.tifm", self.0)
    }
}

/// Stable content address of one report store entry. Built by the
/// experiment engine from a [`Fingerprint`] over the *full* cell
/// configuration: workload spec, seed, instruction and warmup budgets,
/// every CMP parameter, the prefetcher configuration, the execution mode
/// tag, and the report format version.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReportKey(pub u128);

impl ReportKey {
    /// Store file name of this key.
    pub fn file_name(&self) -> String {
        format!("{:032x}.tifr", self.0)
    }
}

/// Counters of one store's activity (monotonic over its lifetime).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no entry (including just-evicted ones).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Corrupt or mismatched entries deleted.
    pub evictions: u64,
    /// Always 0: stores delete no healthy entry. The field stays because
    /// the benchmark's store-health check (`perfbench/src/checks.rs`)
    /// reads it.
    pub gc_evictions: u64,
}

/// The machinery shared by both stores: a root directory, activity
/// counters, loud eviction and the atomic temp-file + rename write
/// protocol. All operations are `&self` and thread-safe.
#[derive(Debug)]
struct StoreCore {
    root: PathBuf,
    label: &'static str,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    tmp_seq: AtomicU64,
}

impl StoreCore {
    fn new(root: impl Into<PathBuf>, label: &'static str) -> io::Result<StoreCore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(StoreCore {
            root,
            label,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Opens the store that `var` selects: `None` when the variable
    /// disables persistence (`off` / `0` / `none` / empty) or when the
    /// directory cannot be created (warned on stderr); otherwise the
    /// named directory, defaulting to `default_dir`.
    #[expect(
        clippy::disallowed_methods,
        reason = "callers pass the TIFS_TRACE_STORE / TIFS_REPORT_STORE knobs; \
                  the directory choice never reaches simulated state"
    )]
    fn from_env(var: &str, default_dir: &str, label: &'static str) -> Option<StoreCore> {
        let dir = match std::env::var(var) {
            Ok(v) if matches!(v.as_str(), "off" | "0" | "none" | "") => return None,
            Ok(v) => PathBuf::from(v),
            Err(_) => PathBuf::from(default_dir),
        };
        match StoreCore::new(&dir, label) {
            Ok(core) => Some(core),
            Err(e) => {
                eprintln!(
                    "[{label}] cannot open {}: {e}; persistence disabled",
                    dir.display()
                );
                None
            }
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            gc_evictions: 0,
        }
    }

    /// Loads one entry through `parse`: a missing file is a plain miss; a
    /// parse failure evicts the entry loudly and counts a miss so the
    /// caller rebuilds it.
    fn load_with<T>(
        &self,
        path: &Path,
        parse: impl FnOnce(&mut BufReader<fs::File>) -> Result<T, CodecError>,
    ) -> Option<T> {
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse(&mut BufReader::new(file)) {
            Ok(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(e) => {
                self.evict(path, &e);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Deletes an entry loudly (counted in `evictions`).
    fn evict(&self, path: &Path, reason: &dyn std::fmt::Display) {
        eprintln!(
            "[{}] evicting corrupt entry {}: {reason}",
            self.label,
            path.display()
        );
        let _ = fs::remove_file(path);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes one entry atomically (temp file + rename): readers see
    /// either no entry or a complete one, never a partial write.
    fn save_with(
        &self,
        file_name: &str,
        write: impl FnOnce(&mut BufWriter<fs::File>) -> Result<(), CodecError>,
    ) -> Result<PathBuf, CodecError> {
        let path = self.root.join(file_name);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
            file_name
        ));
        let result = (|| -> Result<(), CodecError> {
            let mut w = BufWriter::new(fs::File::create(&tmp)?);
            write(&mut w)?;
            w.flush()?;
            Ok(())
        })();
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path).map_err(CodecError::Io)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }
}

/// A directory of content-addressed miss-trace entries.
///
/// All operations are `&self` and thread-safe: the store is shared by
/// the engine's parallel analysis workers.
#[derive(Debug)]
pub struct TraceStore {
    core: StoreCore,
}

impl TraceStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<TraceStore> {
        Ok(TraceStore {
            core: StoreCore::new(root, "trace-store")?,
        })
    }

    /// Opens the store selected by [`STORE_ENV`]: `None` when the
    /// variable disables it (`off` / `0` / `none` / empty) or when the
    /// directory cannot be created (warned on stderr); otherwise the
    /// named directory, defaulting to [`DEFAULT_STORE_DIR`].
    pub fn from_env() -> Option<TraceStore> {
        StoreCore::from_env(STORE_ENV, DEFAULT_STORE_DIR, "trace-store")
            .map(|core| TraceStore { core })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.core.root
    }

    /// On-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &TraceKey) -> PathBuf {
        self.core.root.join(key.file_name())
    }

    /// Activity counters so far.
    pub fn stats(&self) -> StoreStats {
        self.core.stats()
    }

    /// Loads `key`'s symbol sections, or `None` on a miss. A corrupt,
    /// truncated, version-mismatched, or wrong-key entry is evicted
    /// loudly and reported as a miss so the caller rebuilds it.
    pub fn load(&self, key: &TraceKey) -> Option<Vec<Vec<u64>>> {
        self.core.load_with(&self.entry_path(key), |r| {
            codec::read_symbol_sections(r, Some(key.0))
        })
    }

    /// As [`load`](Self::load), converting sections to [`BlockAddr`]s.
    pub fn load_blocks(&self, key: &TraceKey) -> Option<Vec<Vec<BlockAddr>>> {
        self.load(key).map(|sections| {
            sections
                .into_iter()
                .map(|s| s.into_iter().map(BlockAddr).collect())
                .collect()
        })
    }

    /// Writes `key`'s entry atomically (temp file + rename): readers see
    /// either no entry or a complete one, never a partial write.
    pub fn save(&self, key: &TraceKey, sections: &[Vec<u64>]) -> Result<PathBuf, CodecError> {
        self.core.save_with(&key.file_name(), |w| {
            codec::write_symbol_sections(w, key.0, sections)
        })
    }

    /// As [`save`](Self::save), for [`BlockAddr`] traces.
    pub fn save_blocks(
        &self,
        key: &TraceKey,
        traces: &[Vec<BlockAddr>],
    ) -> Result<PathBuf, CodecError> {
        let sections: Vec<Vec<u64>> = traces
            .iter()
            .map(|t| t.iter().map(|b| b.0).collect())
            .collect();
        self.save(key, &sections)
    }
}

/// A directory of content-addressed timing-report entries. The payload is
/// an opaque canonical encoding produced above this crate (the simulator's
/// `SimReport` codec); this store guarantees only that a loaded payload is
/// byte-identical to what was saved under the same key, or absent.
///
/// All operations are `&self` and thread-safe: the store is shared by the
/// engine's parallel cell workers.
#[derive(Debug)]
pub struct ReportStore {
    core: StoreCore,
}

impl ReportStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<ReportStore> {
        Ok(ReportStore {
            core: StoreCore::new(root, "report-store")?,
        })
    }

    /// Opens the store selected by [`REPORT_STORE_ENV`]: `None` when the
    /// variable disables it (`off` / `0` / `none` / empty) or when the
    /// directory cannot be created (warned on stderr); otherwise the
    /// named directory, defaulting to [`DEFAULT_REPORT_STORE_DIR`].
    pub fn from_env() -> Option<ReportStore> {
        StoreCore::from_env(REPORT_STORE_ENV, DEFAULT_REPORT_STORE_DIR, "report-store")
            .map(|core| ReportStore { core })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.core.root
    }

    /// On-disk path of `key`'s entry.
    pub fn entry_path(&self, key: &ReportKey) -> PathBuf {
        self.core.root.join(key.file_name())
    }

    /// Activity counters so far.
    pub fn stats(&self) -> StoreStats {
        self.core.stats()
    }

    /// Loads `key`'s payload bytes, or `None` on a miss. A corrupt,
    /// truncated, version-mismatched, or wrong-key entry is evicted
    /// loudly and reported as a miss so the caller recomputes it.
    pub fn load(&self, key: &ReportKey) -> Option<Vec<u8>> {
        self.core.load_with(&self.entry_path(key), |r| {
            codec::read_report_section(r, Some(key.0))
        })
    }

    /// Writes `key`'s entry atomically (temp file + rename): readers see
    /// either no entry or a complete one, never a partial write.
    pub fn save(&self, key: &ReportKey, payload: &[u8]) -> Result<PathBuf, CodecError> {
        self.core.save_with(&key.file_name(), |w| {
            codec::write_report_section(w, key.0, payload)
        })
    }

    /// Evicts `key`'s entry loudly. For callers whose *payload* decoding
    /// failed after the frame verified — a layering the frame checksum
    /// cannot see — so the bad entry is rebuilt instead of looping.
    pub fn evict(&self, key: &ReportKey, reason: &dyn std::fmt::Display) {
        self.core.evict(&self.entry_path(key), reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tifs-store-unit-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn temp_store(tag: &str) -> TraceStore {
        TraceStore::new(temp_dir(tag)).expect("create store")
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let spec = WorkloadSpec::tiny_test();
        let k = TraceKey::for_section("miss_trace", &spec, 1, 1000, 4);
        assert_eq!(k, TraceKey::for_section("miss_trace", &spec, 1, 1000, 4));
        assert_ne!(k, TraceKey::for_section("miss_trace", &spec, 2, 1000, 4));
        assert_ne!(k, TraceKey::for_section("miss_trace", &spec, 1, 2000, 4));
        assert_ne!(k, TraceKey::for_section("miss_trace", &spec, 1, 1000, 2));
        assert_ne!(k, TraceKey::for_section("other", &spec, 1, 1000, 4));
        let mut tweaked = WorkloadSpec::tiny_test();
        tweaked.shared_frac += 0.001;
        assert_ne!(k, TraceKey::for_section("miss_trace", &tweaked, 1, 1000, 4));
    }

    #[test]
    fn fingerprint_is_order_and_type_sensitive() {
        let mut a = Fingerprint::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fingerprint::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        // Length-prefixed strings do not collide across boundaries.
        let mut c = Fingerprint::new();
        c.str("ab");
        c.str("c");
        let mut d = Fingerprint::new();
        d.str("a");
        d.str("bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn save_load_roundtrip_and_stats() {
        let store = temp_store("roundtrip");
        let key = TraceKey(42);
        let sections = vec![vec![1u64, 5, 9], vec![7]];
        assert_eq!(store.load(&key), None);
        store.save(&key, &sections).unwrap();
        assert_eq!(store.load(&key), Some(sections));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.evictions), (1, 1, 1, 0));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_entry_is_evicted_and_rebuilt() {
        let store = temp_store("evict");
        let key = TraceKey(7);
        let sections = vec![vec![3u64, 1, 4, 1, 5]];
        store.save(&key, &sections).unwrap();
        // Flip a byte on disk.
        let path = store.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert_eq!(store.load(&key), None, "corrupt entry must not load");
        assert!(!path.exists(), "corrupt entry must be evicted");
        assert_eq!(store.stats().evictions, 1);
        // A rebuild repopulates the entry.
        store.save(&key, &sections).unwrap();
        assert_eq!(store.load(&key), Some(sections));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn blocks_roundtrip() {
        let store = temp_store("blocks");
        let key = TraceKey(9);
        let traces = vec![vec![BlockAddr(10), BlockAddr(11)], vec![BlockAddr(99)]];
        store.save_blocks(&key, &traces).unwrap();
        assert_eq!(store.load_blocks(&key), Some(traces));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn report_store_roundtrip_and_stats() {
        let store = ReportStore::new(temp_dir("report-rt")).expect("create store");
        let key = ReportKey(0xBEEF);
        let payload: Vec<u8> = (0..100u8).collect();
        assert_eq!(store.load(&key), None);
        store.save(&key, &payload).unwrap();
        assert_eq!(store.load(&key), Some(payload));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.evictions), (1, 1, 1, 0));
        // Explicit eviction (payload-level failure path).
        store.evict(&key, &"payload decode failed");
        assert_eq!(store.load(&key), None);
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn trace_and_report_keys_use_distinct_extensions() {
        assert!(TraceKey(1).file_name().ends_with(".tifm"));
        assert!(ReportKey(1).file_name().ends_with(".tifr"));
        assert_ne!(TraceKey(1).file_name(), ReportKey(1).file_name());
    }
}
