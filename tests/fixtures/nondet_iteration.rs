//! Fixture: seed-order enumeration of std hash tables, through a `for`
//! loop, a type alias, a function's return value and a struct field.
use std::collections::{HashMap, HashSet}; //~ clippy::disallowed_types

type Index = HashMap<u64, u64>; //~ clippy::disallowed_types

pub struct Holder {
    pub index: Index,
}

pub fn sum_values(map: &HashMap<u64, u64>) -> u64 { //~ clippy::disallowed_types
    map.values().sum() //~ clippy::disallowed_methods
}

pub fn visit() -> u64 {
    let mut seen = HashSet::new(); //~ clippy::disallowed_types
    seen.insert(3u64);
    let mut acc = 0;
    for v in &seen { //~ clippy::iter_over_hash_type
        acc += v;
    }
    acc
}

impl Holder {
    pub fn dump(&self) -> Vec<u64> {
        self.index.keys().copied().collect() //~ clippy::disallowed_methods
    }

    pub fn table(&self) -> &Index {
        &self.index
    }
}

pub fn through_a_call(holder: &Holder) -> usize {
    holder.table().iter().count() //~ clippy::disallowed_methods
}

// An exemption names its lints and says why; it covers its item only.
#[expect(clippy::disallowed_types, clippy::disallowed_methods, reason = "order-insensitive sum")]
pub fn total(map: &HashMap<u64, u64>) -> u64 {
    map.values().sum()
}
