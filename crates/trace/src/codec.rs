//! Checksummed binary entry formats of the on-disk stores.
//!
//! The stores ([`crate::store`]) persist two kinds of entry, each a
//! section in one shared frame: a magic, a format version, the owning key
//! fingerprint, a length-prefixed body, and a trailing FNV-1a checksum, so
//! truncated, bit-flipped, stale, or mismatched entries surface a
//! [`CodecError`] instead of wrong data.
//!
//! * The *miss-trace* section (`TIFM`, [`write_symbol_sections`] /
//!   [`read_symbol_sections`]) carries per-core `u64` symbol sequences:
//!   the trace store's miss traces. Its body holds LEB128 varints of
//!   zig-zag deltas between consecutive symbols.
//! * The *report* section (`TIFR`, [`write_report_section`] /
//!   [`read_report_section`]) carries an opaque payload: the report
//!   store's canonical `SimReport` bytes.

// Decoders reject a hostile length or count with `try_from` and an error
// path; an `as` cast that can truncate would silently wrap it instead.
#![deny(clippy::cast_possible_truncation)]

use std::io::{self, Read, Write};

/// Errors produced by the store entry codecs.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the magic of the section read.
    BadMagic {
        /// The magic of the section the caller asked for.
        expected: [u8; 4],
        /// The magic the input starts with.
        found: [u8; 4],
    },
    /// Unsupported format version.
    BadVersion(u32),
    /// The input ended early, failed its checksum, or holds a malformed
    /// varint, an impossible count, or trailing bytes.
    Corrupt(&'static str),
    /// An entry carries a different key fingerprint than the one
    /// requested (hash-collision or misplaced file).
    KeyMismatch {
        /// The fingerprint the caller asked for.
        expected: u128,
        /// The fingerprint stored in the entry header.
        found: u128,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "bad magic \"{}\", expected \"{}\"",
                found.escape_ascii(),
                expected.escape_ascii()
            ),
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Corrupt(what) => write!(f, "corrupt input: {what}"),
            CodecError::KeyMismatch { expected, found } => write!(
                f,
                "entry key mismatch: expected {expected:032x}, found {found:032x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Converts a decoded count to `usize`, rejecting values a 32-bit
/// target cannot address instead of silently truncating them.
fn usize_count(v: u64) -> Result<usize, CodecError> {
    usize::try_from(v).map_err(|_| CodecError::Corrupt("count overflows the address space"))
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)
            .map_err(|_| CodecError::Corrupt("truncated varint"))?;
        let b = buf[0];
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint too long"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// The entry frame, shared by both sections.
// ---------------------------------------------------------------------------
//
// Layout:
//   4 B  section magic ("TIFM" or "TIFR")
//   4 B  section format version (u32 LE)
//  16 B  owning key fingerprint (u128 LE)
//   8 B  body length in bytes (u64 LE)
//   .. B body
//   8 B  FNV-1a 64 checksum of the body (u64 LE)
//
// The explicit body length makes truncation detectable before parsing, and
// the checksum catches bit flips that would still parse (e.g. a flipped
// symbol-delta bit). Every failure path is a `CodecError`; the codec never
// returns data that differs from what was written.

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn write_frame<W: Write>(
    w: &mut W,
    magic: [u8; 4],
    version: u32,
    key: u128,
    body: &[u8],
) -> Result<(), CodecError> {
    w.write_all(&magic)?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&key.to_le_bytes())?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(body)?;
    w.write_all(&fnv1a64(body).to_le_bytes())?;
    Ok(())
}

/// Reads one frame of section `magic` at `version` and returns its body
/// once the checksum (and, when given, the owning key) verifies.
fn read_frame<R: Read>(
    r: &mut R,
    magic: [u8; 4],
    version: u32,
    expected_key: Option<u128>,
) -> Result<Vec<u8>, CodecError> {
    let mut found = [0u8; 4];
    r.read_exact(&mut found)?;
    if found != magic {
        return Err(CodecError::BadMagic {
            expected: magic,
            found,
        });
    }
    let mut v4 = [0u8; 4];
    r.read_exact(&mut v4)
        .map_err(|_| CodecError::Corrupt("truncated version"))?;
    let found_version = u32::from_le_bytes(v4);
    if found_version != version {
        return Err(CodecError::BadVersion(found_version));
    }
    let mut k16 = [0u8; 16];
    r.read_exact(&mut k16)
        .map_err(|_| CodecError::Corrupt("truncated key"))?;
    let found = u128::from_le_bytes(k16);
    if let Some(expected) = expected_key {
        if expected != found {
            return Err(CodecError::KeyMismatch { expected, found });
        }
    }
    let mut l8 = [0u8; 8];
    r.read_exact(&mut l8)
        .map_err(|_| CodecError::Corrupt("truncated body length"))?;
    let body_len = u64::from_le_bytes(l8);
    // `take` bounds the read so a corrupt length cannot trigger an
    // unbounded allocation; a short read is caught by the length check.
    let mut body = Vec::new();
    r.take(body_len)
        .read_to_end(&mut body)
        .map_err(CodecError::Io)?;
    if body.len() as u64 != body_len {
        return Err(CodecError::Corrupt("truncated body"));
    }
    let mut c8 = [0u8; 8];
    r.read_exact(&mut c8)
        .map_err(|_| CodecError::Corrupt("truncated checksum"))?;
    if fnv1a64(&body) != u64::from_le_bytes(c8) {
        return Err(CodecError::Corrupt("checksum mismatch"));
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Miss-trace sections — the trace store's entry format.
// ---------------------------------------------------------------------------
//
// Body: varint section count, then per section a varint length and zig-zag
// varint deltas between consecutive symbols.

/// Magic bytes identifying a TIFS miss-trace store entry.
pub const MISS_MAGIC: [u8; 4] = *b"TIFM";
/// Current miss-trace entry format version.
pub const MISS_TRACE_VERSION: u32 = 1;

/// Writes per-core `u64` symbol sections as one store entry owned by the
/// key fingerprint `key`.
pub fn write_symbol_sections<W: Write>(
    w: &mut W,
    key: u128,
    sections: &[Vec<u64>],
) -> Result<(), CodecError> {
    let mut body = Vec::new();
    write_varint(&mut body, sections.len() as u64)?;
    for section in sections {
        write_varint(&mut body, section.len() as u64)?;
        let mut prev: u64 = 0;
        for &v in section {
            // Wrapping difference round-trips the full u64 range.
            write_varint(&mut body, zigzag(v.wrapping_sub(prev) as i64))?;
            prev = v;
        }
    }
    write_frame(w, MISS_MAGIC, MISS_TRACE_VERSION, key, &body)
}

/// Reads a store entry written by [`write_symbol_sections`], verifying the
/// magic, version, checksum, and (when given) the owning key fingerprint.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic or version,
/// truncation anywhere, a checksum mismatch, trailing garbage, or an entry
/// owned by a different key. A wrong trace is never returned.
pub fn read_symbol_sections<R: Read>(
    r: &mut R,
    expected_key: Option<u128>,
) -> Result<Vec<Vec<u64>>, CodecError> {
    let body = read_frame(r, MISS_MAGIC, MISS_TRACE_VERSION, expected_key)?;
    let mut br = body.as_slice();
    // Every section length and every symbol takes at least one body byte,
    // so no count that fits the body reserves more slots than the body
    // has bytes left, whatever the count claims.
    let n_sections = usize_count(read_varint(&mut br)?)?;
    let mut out = Vec::with_capacity(n_sections.min(br.len()));
    for _ in 0..n_sections {
        let n = usize_count(read_varint(&mut br)?)?;
        let mut section = Vec::with_capacity(n.min(br.len()));
        let mut prev: u64 = 0;
        for _ in 0..n {
            let delta = unzigzag(read_varint(&mut br)?) as u64;
            let v = prev.wrapping_add(delta);
            section.push(v);
            prev = v;
        }
        out.push(section);
    }
    if !br.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes in body"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Report sections — the report store's entry format.
// ---------------------------------------------------------------------------
//
// The body is an opaque canonical payload produced by a higher layer — the
// simulator's `SimReport` encoding lives in `tifs_sim`, which this crate
// cannot depend on. The frame alone guarantees that truncation, bit flips,
// stale versions, and misplaced keys surface a [`CodecError`] before a
// single payload byte reaches the caller.

/// Magic bytes identifying a TIFS report store entry.
pub const REPORT_MAGIC: [u8; 4] = *b"TIFR";
/// Current report entry format version. Bump this when the frame layout
/// or the canonical `SimReport` payload encoding changes *incompatibly*:
/// stale entries then fail loudly with [`CodecError::BadVersion`] and
/// are evicted, never misdecoded. Backward-compatible payload growth
/// does not bump it — the payload's trailing sections carry their own
/// version tags (`SIM_REPORT_FLUSH_LAYOUT_VERSION` in `tifs_sim::stats`),
/// so layout-1 entries stay decodable and warm.
pub const REPORT_VERSION: u32 = 1;

/// Writes an opaque report payload as one store entry owned by the key
/// fingerprint `key`, framed exactly like a miss-trace section.
pub fn write_report_section<W: Write>(w: &mut W, key: u128, body: &[u8]) -> Result<(), CodecError> {
    write_frame(w, REPORT_MAGIC, REPORT_VERSION, key, body)
}

/// Reads a report entry written by [`write_report_section`], verifying
/// magic, version, checksum, and (when given) the owning key fingerprint,
/// and returns the payload bytes.
///
/// # Errors
///
/// Returns [`CodecError`] on any malformed input: wrong magic or version,
/// truncation anywhere, a checksum mismatch, or an entry owned by a
/// different key. A wrong payload is never returned.
pub fn read_report_section<R: Read>(
    r: &mut R,
    expected_key: Option<u128>,
) -> Result<Vec<u8>, CodecError> {
    read_frame(r, REPORT_MAGIC, REPORT_VERSION, expected_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn sample_sections() -> Vec<Vec<u64>> {
        vec![
            vec![10, 11, 12, 400, 401, 3],
            vec![],
            vec![u64::MAX, 0, 7, u64::MAX / 2],
        ]
    }

    #[test]
    fn symbol_sections_roundtrip() {
        let sections = sample_sections();
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 0xABCD, &sections).unwrap();
        let back = read_symbol_sections(&mut buf.as_slice(), Some(0xABCD)).unwrap();
        assert_eq!(back, sections);
        // Key verification is optional.
        let back = read_symbol_sections(&mut buf.as_slice(), None).unwrap();
        assert_eq!(back, sections);
    }

    #[test]
    fn symbol_sections_reject_wrong_key() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        match read_symbol_sections(&mut buf.as_slice(), Some(2)) {
            Err(CodecError::KeyMismatch { expected, found }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
    }

    #[test]
    fn symbol_sections_reject_checksum_flip() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        // Flip one bit inside the body (after the 32-byte header).
        buf[33] ^= 0x40;
        match read_symbol_sections(&mut buf.as_slice(), Some(1)) {
            Err(CodecError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn symbol_sections_reject_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        let mut m = buf.clone();
        m[0] = b'X';
        assert!(matches!(
            read_symbol_sections(&mut m.as_slice(), Some(1)),
            Err(CodecError::BadMagic { .. })
        ));
        let mut v = buf.clone();
        v[4] = 0xEE;
        assert!(matches!(
            read_symbol_sections(&mut v.as_slice(), Some(1)),
            Err(CodecError::BadVersion(_))
        ));
    }

    #[test]
    fn symbol_sections_reject_truncation_and_trailing() {
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sample_sections()).unwrap();
        for cut in [buf.len() - 1, buf.len() - 9, 20, 5, 0] {
            assert!(
                read_symbol_sections(&mut buf[..cut].as_ref(), Some(1)).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    /// A miss-trace entry whose body starts with the varints `counts`,
    /// framed under a valid checksum so only the body parser can reject
    /// it.
    fn hostile_entry(counts: &[u64]) -> Vec<u8> {
        let mut body = Vec::new();
        for &c in counts {
            write_varint(&mut body, c).unwrap();
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, MISS_MAGIC, MISS_TRACE_VERSION, 1, &body).unwrap();
        buf
    }

    #[test]
    fn hostile_section_count_is_corrupt() {
        // `usize_count` converts with try_from, never `as`; the body's
        // remaining length bounds the up-front allocation, and the
        // missing sections surface as Corrupt.
        let buf = hostile_entry(&[u64::MAX]);
        assert!(matches!(
            read_symbol_sections(&mut buf.as_slice(), Some(1)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn hostile_section_length_is_corrupt() {
        // As above for one section's length.
        let buf = hostile_entry(&[1, u64::MAX]);
        assert!(matches!(
            read_symbol_sections(&mut buf.as_slice(), Some(1)),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn decoded_sections_reserve_no_more_than_the_body_holds() {
        let mut sections = sample_sections();
        sections.push((0..5000).map(|i| i * 37 % 1021).collect());
        let mut buf = Vec::new();
        write_symbol_sections(&mut buf, 1, &sections).unwrap();
        // The frame around the body: a 32-byte header and an 8-byte
        // checksum.
        let body = buf.len() - 40;
        let back = read_symbol_sections(&mut buf.as_slice(), Some(1)).unwrap();
        assert_eq!(back, sections);
        assert!(back.capacity() <= body);
        for (s, expect) in back.iter().zip(&sections) {
            assert!(
                s.capacity() <= body,
                "capacity {} over {body} body bytes",
                s.capacity()
            );
            assert!(s.capacity() >= expect.len());
        }
    }

    #[test]
    fn bad_magic_names_the_entry_format() {
        let mut trace = Vec::new();
        write_symbol_sections(&mut trace, 1, &sample_sections()).unwrap();
        trace[0] = b'X';
        let err = read_symbol_sections(&mut trace.as_slice(), Some(1)).unwrap_err();
        assert_eq!(err.to_string(), r#"bad magic "XIFM", expected "TIFM""#);
        let mut report = Vec::new();
        write_report_section(&mut report, 1, b"abc").unwrap();
        report[0] = 0xFF;
        let err = read_report_section(&mut report.as_slice(), Some(1)).unwrap_err();
        assert_eq!(err.to_string(), r#"bad magic "\xffIFR", expected "TIFR""#);
    }

    #[test]
    fn report_section_roundtrip() {
        let body: Vec<u8> = (0..200u16).map(|i| (i * 7).to_le_bytes()[0]).collect();
        let mut buf = Vec::new();
        write_report_section(&mut buf, 0x1234, &body).unwrap();
        assert_eq!(
            read_report_section(&mut buf.as_slice(), Some(0x1234)).unwrap(),
            body
        );
        // Key verification is optional.
        assert_eq!(
            read_report_section(&mut buf.as_slice(), None).unwrap(),
            body
        );
        // Empty payloads frame fine.
        let mut empty = Vec::new();
        write_report_section(&mut empty, 9, &[]).unwrap();
        assert!(read_report_section(&mut empty.as_slice(), Some(9))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn report_section_rejects_faults() {
        let mut buf = Vec::new();
        write_report_section(&mut buf, 5, b"payload bytes").unwrap();
        // Wrong key.
        assert!(matches!(
            read_report_section(&mut buf.as_slice(), Some(6)),
            Err(CodecError::KeyMismatch {
                expected: 6,
                found: 5
            })
        ));
        // Bad magic / stale version.
        let mut m = buf.clone();
        m[0] = b'X';
        assert!(matches!(
            read_report_section(&mut m.as_slice(), Some(5)),
            Err(CodecError::BadMagic { .. })
        ));
        let mut v = buf.clone();
        v[4] = 0xEE;
        assert!(matches!(
            read_report_section(&mut v.as_slice(), Some(5)),
            Err(CodecError::BadVersion(_))
        ));
        // Body bit flip breaks the checksum.
        let mut c = buf.clone();
        c[33] ^= 0x04;
        assert!(matches!(
            read_report_section(&mut c.as_slice(), Some(5)),
            Err(CodecError::Corrupt("checksum mismatch"))
        ));
        // Every strict prefix fails.
        for cut in [buf.len() - 1, buf.len() - 9, 33, 20, 5, 0] {
            assert!(
                read_report_section(&mut buf[..cut].as_ref(), Some(5)).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn entry_versions_pin_the_encoding() {
        // One entry of each format, pinned by its length and checksum.
        // Any change to a frame or body layout moves these bytes: bump
        // that format's version, so old store entries are evicted rather
        // than misread, then re-pin.
        let mut miss = Vec::new();
        write_symbol_sections(&mut miss, 0x0123_4567_89AB_CDEF, &sample_sections()).unwrap();
        let mut report = Vec::new();
        write_report_section(&mut report, 0xFEDC_BA98_7654_3210, b"canonical report").unwrap();
        assert_eq!(
            [
                (MISS_MAGIC, MISS_TRACE_VERSION, miss.len(), fnv1a64(&miss)),
                (REPORT_MAGIC, REPORT_VERSION, report.len(), fnv1a64(&report)),
            ],
            [
                (*b"TIFM", 1, 65, 0x93e8_a93b_61ff_11f9),
                (*b"TIFR", 1, 56, 0x69cb_e76c_c210_b738),
            ],
            "an entry's bytes changed: bump its format version, then re-pin"
        );
    }

    #[test]
    fn report_and_trace_magics_are_disjoint() {
        // A report entry renamed into the trace store (or vice versa) must
        // be rejected at the magic, not misparsed.
        let mut report = Vec::new();
        write_report_section(&mut report, 1, b"abc").unwrap();
        assert!(matches!(
            read_symbol_sections(&mut report.as_slice(), Some(1)),
            Err(CodecError::BadMagic { .. })
        ));
        let mut trace = Vec::new();
        write_symbol_sections(&mut trace, 1, &[vec![1, 2]]).unwrap();
        assert!(matches!(
            read_report_section(&mut trace.as_slice(), Some(1)),
            Err(CodecError::BadMagic { .. })
        ));
    }
}
