//! Property-based tests for the persistent trace store: entry round-trips
//! and fault injection. The invariant under test is absolute — a store
//! entry either decodes to exactly what was written or surfaces a
//! [`CodecError`]; a wrong trace is never returned.

use proptest::prelude::*;
use tifs_trace::codec::{
    read_symbol_sections, write_symbol_sections, CodecError, MISS_MAGIC, MISS_TRACE_VERSION,
};
use tifs_trace::store::{TraceKey, TraceStore};

fn arb_sections() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 0..80), 0..6)
}

fn encode(key: u128, sections: &[Vec<u64>]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_symbol_sections(&mut buf, key, sections).expect("encode");
    buf
}

/// Header prefix: 4 B magic + 4 B version + 16 B key + 8 B body length.
const HEADER_BYTES: usize = 32;

proptest! {
    #[test]
    fn entry_roundtrips_arbitrary_sections(
        sections in arb_sections(),
        key in any::<u64>(),
    ) {
        let key = u128::from(key);
        let buf = encode(key, &sections);
        let back = read_symbol_sections(&mut buf.as_slice(), Some(key)).expect("decode");
        prop_assert_eq!(back, sections);
    }

    #[test]
    fn any_truncation_is_an_error_never_a_wrong_trace(
        sections in arb_sections(),
        cut_seed in any::<u64>(),
    ) {
        let buf = encode(9, &sections);
        // Any strict prefix must fail: the body-length field and trailing
        // checksum make every truncation point detectable.
        let cut = (cut_seed % buf.len() as u64) as usize;
        prop_assert!(
            read_symbol_sections(&mut buf[..cut].as_ref(), Some(9)).is_err(),
            "prefix of {} / {} bytes must not decode",
            cut,
            buf.len()
        );
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        sections in arb_sections(),
        byte_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let original = encode(3, &sections);
        let mut corrupted = original.clone();
        let idx = (byte_seed % corrupted.len() as u64) as usize;
        corrupted[idx] ^= 1 << bit;
        // Magic flips -> BadMagic; version flips -> BadVersion; key flips
        // -> KeyMismatch; body/length/checksum flips -> Corrupt. In every
        // case: an error, not silently different data.
        match read_symbol_sections(&mut corrupted.as_slice(), Some(3)) {
            Err(_) => {}
            Ok(back) => prop_assert_eq!(
                back,
                sections,
                "flip of bit {} at byte {} decoded to a different trace",
                bit,
                idx
            ),
        }
    }

    #[test]
    fn flipped_magic_and_version_are_classified(sections in arb_sections()) {
        let buf = encode(1, &sections);
        let mut bad_magic = buf.clone();
        bad_magic[2] ^= 0x10;
        prop_assert!(matches!(
            read_symbol_sections(&mut bad_magic.as_slice(), Some(1)),
            Err(CodecError::BadMagic { .. })
        ));
        let mut bad_version = buf.clone();
        bad_version[5] ^= 0x01; // version is bytes 4..8
        prop_assert!(matches!(
            read_symbol_sections(&mut bad_version.as_slice(), Some(1)),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn partially_written_entry_never_loads(
        sections in arb_sections(),
        keep_seed in any::<u64>(),
    ) {
        // A writer that died mid-entry leaves a strict prefix on disk
        // (the store's temp-file + rename protocol prevents this under a
        // live name, but a reader must still survive one).
        let dir = std::env::temp_dir().join(format!(
            "tifs-store-prop-partial-{}",
            std::process::id()
        ));
        let store = TraceStore::new(&dir).expect("store dir");
        let key = TraceKey(0xFEED);
        let full = encode(key.0, &sections);
        let keep = 1 + (keep_seed % (full.len() as u64 - 1)) as usize;
        std::fs::write(store.entry_path(&key), &full[..keep]).expect("plant partial entry");
        prop_assert_eq!(store.load(&key), None, "partial entry must not load");
        prop_assert!(
            !store.entry_path(&key).exists(),
            "partial entry must be evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn header_layout_is_pinned() {
    // The fault-injection offsets above assume this layout; pin it.
    let buf = encode(0x0102_0304, &[vec![1, 2, 3]]);
    assert_eq!(&buf[0..4], &MISS_MAGIC);
    assert_eq!(
        u32::from_le_bytes(buf[4..8].try_into().unwrap()),
        MISS_TRACE_VERSION
    );
    assert_eq!(
        u128::from_le_bytes(buf[8..24].try_into().unwrap()),
        0x0102_0304
    );
    let body_len = u64::from_le_bytes(buf[24..32].try_into().unwrap()) as usize;
    assert_eq!(buf.len(), HEADER_BYTES + body_len + 8, "body + checksum");
}

#[test]
fn store_roundtrip_through_files() {
    let dir = std::env::temp_dir().join(format!("tifs-store-prop-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir).expect("store dir");
    let key = TraceKey(77);
    let sections = vec![vec![5u64, 6, 1 << 40], vec![], vec![u64::MAX]];
    store.save(&key, &sections).expect("save");
    assert_eq!(store.load(&key), Some(sections));
    // Distinct keys address distinct entries.
    assert_eq!(store.load(&TraceKey(78)), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_key_entry_is_evicted() {
    // An entry renamed onto the wrong content address (or a fingerprint
    // collision) must be rejected by the in-header key check.
    let dir = std::env::temp_dir().join(format!("tifs-store-prop-key-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir).expect("store dir");
    let a = TraceKey(1);
    let b = TraceKey(2);
    store.save(&a, &[vec![1, 2, 3]]).expect("save");
    std::fs::rename(store.entry_path(&a), store.entry_path(&b)).expect("misplace entry");
    assert_eq!(store.load(&b), None, "misplaced entry must not load");
    assert_eq!(store.stats().evictions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
