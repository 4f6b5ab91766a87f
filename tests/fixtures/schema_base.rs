//! Fixture: a miniature of the `SimReport` layout pin. The pin's
//! exhaustive literal stops compiling when a field is added, and its
//! `(version, length, FNV-64)` tuple fails when an encoded byte moves.

pub const LAYOUT_VERSION: u32 = 1;

pub struct Report {
    pub hits: u64,
    pub misses: u64,
}

impl Report {
    pub fn encode(&self) -> Vec<u8> {
        let fields = [u64::from(LAYOUT_VERSION), self.hits, self.misses];
        fields.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

#[test]
fn layout_version_pins_the_encoding() {
    let bytes = Report { hits: 1, misses: 2 }.encode();
    let fnv1a64 = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(
        (LAYOUT_VERSION, bytes.len(), fnv1a64),
        (1, 24, 0xe81e_3a75_6bc5_e527),
        "bump the layout version, then re-pin"
    );
}
