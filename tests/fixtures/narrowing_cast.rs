//! Fixture: narrowing casts under the inner deny `trace::codec` and
//! `sim::stats` carry.
#![deny(clippy::cast_possible_truncation)]

pub fn narrow(v: u64) -> (usize, u8, u32) {
    let index = v as usize; //~ clippy::cast_possible_truncation
    let tag = v as u8; //~ clippy::cast_possible_truncation
    (index, tag, v as u32) //~ clippy::cast_possible_truncation
}

// Widening and float casts, and a mask that bounds the value, are fine.
pub fn fine(v: u32, w: u64) -> (u64, f64, u8) {
    (v as u64, v as f64, (w & 0x7F) as u8)
}
