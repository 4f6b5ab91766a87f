//! `DigramIndex` under delete-heavy churn: the batch SEQUITUR engine
//! removes digram entries on every substitution and inlining, and
//! backward-shift deletion must never strand a probe chain — after any
//! interleaving of inserts and removes (including mass removals), every
//! surviving entry stays findable. Verified against a `HashMap` model,
//! with a deliberately collision-heavy hash so probe chains actually
//! displace.

use std::collections::HashMap;

use proptest::prelude::*;
use tifs_collections::DigramIndex;

/// splitmix64 — the workspace's deterministic test RNG idiom.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Key hash with tunable collision pressure: `collide_bits` low bits
/// survive, so small values funnel every key into a handful of hash
/// values (distinct keys sharing a hash is part of the contract).
fn key_hash(key: u64, collide_bits: u32) -> u64 {
    key & ((1u64 << collide_bits) - 1)
}

/// Drives one op stream through the index and the model, checking every
/// observable after every op.
fn churn(seed: u64, collide_bits: u32, ops: usize) {
    let mut rng = Rng(seed);
    let mut idx = DigramIndex::new();
    // key -> payload; keys are minted unique (caller-guaranteed key
    // uniqueness, as in the grammar's digram table).
    let mut model: HashMap<u64, u32> = HashMap::new();
    // Deterministic removal order: live keys in insertion order.
    let mut live: Vec<u64> = Vec::new();
    let mut next_key: u64 = 1;
    let mut next_payload: u32 = 0;

    let find = |idx: &DigramIndex, model: &HashMap<u64, u32>, key: u64, bits: u32| {
        // Payload equality resolves the key, as the arena does for real
        // digrams: accept a payload iff it is the model's entry for key.
        idx.find(key_hash(key, bits), |p| model.get(&key) == Some(&p))
    };

    for step in 0..ops {
        let r = rng.next();
        // Delete-heavy mix (the eviction path): 40% insert, 45% remove,
        // 15% probe an absent key; plus periodic mass removals.
        if step % 97 == 96 {
            // Mass removal: reap half the live keys at once, newest
            // first — the shape a dying rule subtree produces.
            for _ in 0..live.len() / 2 {
                let key = live.pop().unwrap();
                let payload = model.remove(&key).unwrap();
                assert!(
                    idx.remove(key_hash(key, collide_bits), payload),
                    "mass removal lost key {key}"
                );
            }
        } else if r % 100 < 40 || live.is_empty() {
            let key = next_key;
            next_key += 1;
            let payload = next_payload;
            next_payload += 1;
            idx.insert(key_hash(key, collide_bits), payload);
            model.insert(key, payload);
            live.push(key);
        } else if r % 100 < 85 {
            let pos = (rng.next() % live.len() as u64) as usize;
            let key = live.swap_remove(pos);
            let payload = model.remove(&key).unwrap();
            assert!(
                idx.remove(key_hash(key, collide_bits), payload),
                "remove lost key {key}"
            );
            // Removing again must be a no-op.
            assert!(!idx.remove(key_hash(key, collide_bits), payload));
        } else {
            let absent = next_key + 1 + rng.next() % 1000;
            assert_eq!(find(&idx, &model, absent, collide_bits), None);
        }

        assert_eq!(idx.len(), model.len(), "length diverged at step {step}");
        // Spot-check a handful of live keys every step...
        for _ in 0..3.min(live.len()) {
            let key = live[(rng.next() % live.len() as u64) as usize];
            assert_eq!(
                find(&idx, &model, key, collide_bits),
                model.get(&key).copied(),
                "stranded probe for key {key} at step {step}"
            );
        }
    }
    // ...and every survivor at the end.
    for &key in &live {
        assert_eq!(
            find(&idx, &model, key, collide_bits),
            model.get(&key).copied(),
            "stranded probe for surviving key {key}"
        );
    }
}

#[test]
fn collision_free_churn() {
    churn(0xDEAD_BEEF, 63, 4_000);
}

#[test]
fn all_keys_share_eight_hashes() {
    // Worst-case probe chains: every key lands in one of 8 hash values,
    // so backward-shift deletion constantly moves displaced entries.
    churn(0x5EED_0001, 3, 2_000);
}

#[test]
fn capacity_never_shrinks_and_len_tracks_mass_removal() {
    let mut idx = DigramIndex::with_capacity(64);
    let slots_before = idx.slots();
    for i in 0..1000u32 {
        idx.insert((i as u64).wrapping_mul(0x9E37), i);
    }
    let grown = idx.slots();
    assert!(grown > slots_before, "1000 entries must outgrow 64");
    for i in 0..1000u32 {
        assert!(idx.remove((i as u64).wrapping_mul(0x9E37), i));
    }
    assert_eq!(idx.len(), 0);
    assert_eq!(
        idx.slots(),
        grown,
        "the table never shrinks; capacity is monotone"
    );
    // The emptied table still works.
    idx.insert(7, 7);
    assert_eq!(idx.find(7, |p| p == 7), Some(7));
}

proptest! {
    #[test]
    fn digram_index_matches_hashmap_model(seed in 0u64..5_000) {
        // Alternate collision regimes by seed parity so shrunk cases
        // cover both the sparse and the chain-heavy layouts.
        let bits = if seed % 2 == 0 { 4 } else { 48 };
        churn(seed, bits, 600);
    }
}
