//! Property-based tests for the persistent report store: entry
//! round-trips and fault injection. The invariant under test is absolute
//! — a store entry either yields exactly the payload that was written or
//! surfaces a [`CodecError`] and is evicted loudly; a wrong payload is
//! never returned. (The `SimReport` payload encoding itself is covered by
//! `tifs-sim`'s property tests; this suite owns the frame and the store.)

use proptest::prelude::*;
use tifs_trace::codec::{
    read_report_section, write_report_section, CodecError, REPORT_MAGIC, REPORT_VERSION,
};
use tifs_trace::store::{ReportKey, ReportStore};

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..400)
}

fn encode(key: u128, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_report_section(&mut buf, key, payload).expect("encode");
    buf
}

/// Header prefix: 4 B magic + 4 B version + 16 B key + 8 B body length.
const HEADER_BYTES: usize = 32;

fn temp_store(tag: &str) -> ReportStore {
    let dir = std::env::temp_dir().join(format!(
        "tifs-report-store-prop-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ReportStore::new(dir).expect("create store")
}

proptest! {
    #[test]
    fn entry_roundtrips_arbitrary_payloads(
        payload in arb_payload(),
        key in any::<u64>(),
    ) {
        let key = u128::from(key);
        let buf = encode(key, &payload);
        let back = read_report_section(&mut buf.as_slice(), Some(key)).expect("decode");
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn any_truncation_is_an_error_never_a_wrong_payload(
        payload in arb_payload(),
        cut_seed in any::<u64>(),
    ) {
        let buf = encode(9, &payload);
        // Any strict prefix must fail: the body-length field and trailing
        // checksum make every truncation point detectable.
        let cut = (cut_seed % buf.len() as u64) as usize;
        prop_assert!(
            read_report_section(&mut buf[..cut].as_ref(), Some(9)).is_err(),
            "prefix of {} / {} bytes must not decode",
            cut,
            buf.len()
        );
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        payload in arb_payload(),
        byte_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let original = encode(3, &payload);
        let mut corrupted = original.clone();
        let idx = (byte_seed % corrupted.len() as u64) as usize;
        corrupted[idx] ^= 1 << bit;
        // Magic flips -> BadMagic; version flips -> BadVersion; key flips
        // -> KeyMismatch; body/length/checksum flips -> Corrupt. In every
        // case: an error, not silently different data.
        match read_report_section(&mut corrupted.as_slice(), Some(3)) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(
                back,
                payload,
                "flip of bit {} at byte {} decoded to a different payload",
                bit,
                idx
            ),
        }
    }

    #[test]
    fn flipped_magic_key_and_version_are_classified(payload in arb_payload()) {
        let buf = encode(1, &payload);
        let mut bad_magic = buf.clone();
        bad_magic[2] ^= 0x10;
        prop_assert!(matches!(
            read_report_section(&mut bad_magic.as_slice(), Some(1)),
            Err(CodecError::BadMagic { .. })
        ));
        let mut bad_version = buf.clone();
        bad_version[5] ^= 0x01; // version is bytes 4..8
        prop_assert!(matches!(
            read_report_section(&mut bad_version.as_slice(), Some(1)),
            Err(CodecError::BadVersion(_))
        ));
        let mut bad_key = buf.clone();
        bad_key[10] ^= 0x01; // key is bytes 8..24
        prop_assert!(matches!(
            read_report_section(&mut bad_key.as_slice(), Some(1)),
            Err(CodecError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn partially_written_entry_never_loads(
        payload in arb_payload(),
        keep_seed in any::<u64>(),
    ) {
        // A writer that died mid-entry leaves a strict prefix on disk
        // (the store's temp-file + rename protocol prevents this under a
        // live name, but a reader must still survive one).
        let store = temp_store("partial");
        let key = ReportKey(0xFEED);
        let full = encode(key.0, &payload);
        let keep = 1 + (keep_seed % (full.len() as u64 - 1)) as usize;
        std::fs::write(store.entry_path(&key), &full[..keep]).expect("plant partial entry");
        prop_assert_eq!(store.load(&key), None, "partial entry must not load");
        prop_assert!(
            !store.entry_path(&key).exists(),
            "partial entry must be evicted"
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn bit_flipped_entry_is_evicted_and_rebuilds(
        payload in prop::collection::vec(any::<u8>(), 1..200),
        byte_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let store = temp_store("flip");
        let key = ReportKey(0xC0FFEE);
        store.save(&key, &payload).expect("save");
        let path = store.entry_path(&key);
        let mut bytes = std::fs::read(&path).expect("read entry");
        // Flip one bit anywhere past the magic (a magic flip is covered
        // above; here we want the evict-and-rebuild path, which requires
        // the file to still be recognized enough to be deleted).
        let idx = 4 + (byte_seed % (bytes.len() as u64 - 4)) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, bytes).expect("corrupt entry");
        prop_assert_eq!(store.load(&key), None, "corrupt entry must not load");
        prop_assert!(!path.exists(), "corrupt entry must be evicted");
        prop_assert_eq!(store.stats().evictions, 1);
        // A rebuild repopulates the entry and it loads again.
        store.save(&key, &payload).expect("rebuild");
        prop_assert_eq!(store.load(&key), Some(payload));
        let _ = std::fs::remove_dir_all(store.root());
    }
}

#[test]
fn header_layout_is_pinned() {
    // The fault-injection offsets above assume this layout; pin it.
    let buf = encode(0x0102_0304, &[1, 2, 3]);
    assert_eq!(&buf[0..4], &REPORT_MAGIC);
    assert_eq!(
        u32::from_le_bytes(buf[4..8].try_into().unwrap()),
        REPORT_VERSION
    );
    assert_eq!(
        u128::from_le_bytes(buf[8..24].try_into().unwrap()),
        0x0102_0304
    );
    let body_len = u64::from_le_bytes(buf[24..32].try_into().unwrap()) as usize;
    assert_eq!(body_len, 3);
    assert_eq!(buf.len(), HEADER_BYTES + body_len + 8, "body + checksum");
}

#[test]
fn store_roundtrip_through_files() {
    let store = temp_store("rt");
    let key = ReportKey(77);
    let payload = vec![5u8, 6, 255, 0, 128];
    store.save(&key, &payload).expect("save");
    assert_eq!(store.load(&key), Some(payload));
    // Distinct keys address distinct entries.
    assert_eq!(store.load(&ReportKey(78)), None);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn wrong_key_entry_is_evicted() {
    // An entry renamed onto the wrong content address (or a fingerprint
    // collision) must be rejected by the in-header key check.
    let store = temp_store("key");
    let a = ReportKey(1);
    let b = ReportKey(2);
    store.save(&a, &[1, 2, 3]).expect("save");
    std::fs::rename(store.entry_path(&a), store.entry_path(&b)).expect("misplace entry");
    assert_eq!(store.load(&b), None, "misplaced entry must not load");
    assert_eq!(store.stats().evictions, 1);
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn stale_format_version_is_evicted_and_rebuilds() {
    // A store populated by a build with an older (or newer) entry format
    // must evict loudly on first read and let the caller rebuild — the
    // eviction path a REPORT_VERSION bump exercises for every old entry.
    let store = temp_store("stale");
    let key = ReportKey(0xAB);
    let payload = vec![9u8; 40];
    store.save(&key, &payload).expect("save");
    let path = store.entry_path(&key);
    let mut bytes = std::fs::read(&path).expect("read entry");
    let stale = REPORT_VERSION.wrapping_add(1);
    bytes[4..8].copy_from_slice(&stale.to_le_bytes());
    std::fs::write(&path, bytes).expect("plant stale entry");
    assert_eq!(store.load(&key), None, "stale entry must not load");
    assert!(!path.exists(), "stale entry must be evicted");
    let s = store.stats();
    assert_eq!((s.evictions, s.misses), (1, 1));
    // Rebuild under the current version.
    store.save(&key, &payload).expect("rebuild");
    assert_eq!(store.load(&key), Some(payload));
    let _ = std::fs::remove_dir_all(store.root());
}
