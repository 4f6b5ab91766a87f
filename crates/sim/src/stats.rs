//! Simulation statistics: per-core counters, whole-run reports, and the
//! canonical report codec (the payload of the persistent report store).

// Decoders reject a hostile length or count with `try_from` and an error
// path; an `as` cast that can truncate would silently wrap it instead.
#![deny(clippy::cast_possible_truncation)]

use crate::l2::L2Stats;

/// Per-core counters collected during a timing run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Retired instructions.
    pub retired: u64,
    /// Elapsed cycles (set by the harness at run end).
    pub cycles: u64,
    /// Fetch-block transitions (L1-I lookups).
    pub fetch_blocks: u64,
    /// L1-I hits.
    pub l1i_hits: u64,
    /// Misses covered by the next-line prefetcher (counted as L1 hits in
    /// the paper's accounting, even when the fill is still in flight).
    pub next_line_hits: u64,
    /// Misses covered by the evaluated prefetcher (SVB / FDIP buffer) —
    /// "Coverage" in Figure 12.
    pub prefetch_hits: u64,
    /// Remaining demand misses serviced by L2 — "Miss" in Figure 12.
    pub demand_misses: u64,
    /// Cycles the fetch unit was stalled waiting on an instruction fill.
    pub fetch_stall_cycles: u64,
    /// Conditional-branch mispredicts (redirect bubbles).
    pub mispredicts: u64,
    /// Conditional branches seen.
    pub cond_branches: u64,
    /// Context-switch flushes observed: each invalidated this core's
    /// prefetcher metadata (TIFS history/index pointers, FDIP state) and
    /// opened a metadata-refill window. Encoded in the trailing
    /// [`SIM_REPORT_FLUSH_LAYOUT_VERSION`] section, present only when a
    /// run saw flush activity — flushless reports keep their exact
    /// pre-flush byte layout.
    pub flushes: u64,
    /// Cycles spent inside refill windows: from each flush's first
    /// post-flush baseline miss (an L1-resident phase has no metadata to
    /// refill) until windowed coverage recovered to its pre-flush
    /// running mean (or the run ended).
    pub refill_cycles: u64,
    /// Baseline misses (prefetcher hits + demand misses) incurred inside
    /// refill windows — the metadata-refill cost of context switches.
    pub refill_misses: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// L1-I fetch misses after next-line prefetching (the paper's "miss"
    /// definition): prefetcher hits plus remaining demand misses.
    pub fn baseline_misses(&self) -> u64 {
        self.prefetch_hits + self.demand_misses
    }

    /// Fraction of baseline misses covered by the evaluated prefetcher.
    pub fn coverage(&self) -> f64 {
        let b = self.baseline_misses();
        if b == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / b as f64
        }
    }
}

/// Whole-run report: per-core stats, L2 stats, and prefetcher-specific
/// counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Shared L2 statistics.
    pub l2: L2Stats,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Prefetcher-specific named counters (e.g. SVB discards).
    pub prefetcher: Vec<(String, f64)>,
}

impl SimReport {
    /// Aggregate instructions retired across cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// Aggregate IPC (sum of per-core IPC).
    pub fn aggregate_ipc(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc()).sum()
    }

    /// Aggregate coverage over all cores.
    pub fn coverage(&self) -> f64 {
        let hits: u64 = self.cores.iter().map(|c| c.prefetch_hits).sum();
        let base: u64 = self.cores.iter().map(|c| c.baseline_misses()).sum();
        if base == 0 {
            0.0
        } else {
            hits as f64 / base as f64
        }
    }

    /// Prefetcher counter by name, if recorded.
    pub fn prefetcher_counter(&self, name: &str) -> Option<f64> {
        self.prefetcher
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Speedup of this run over a baseline run of the same instruction
    /// count (ratio of aggregate IPC).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        let b = baseline.aggregate_ipc();
        if b == 0.0 {
            0.0
        } else {
            self.aggregate_ipc() / b
        }
    }

    /// Canonical byte encoding of this report: fixed field order, fixed
    /// little-endian widths, floats as exact bit patterns. Two equal
    /// reports encode to identical bytes on every platform, so the
    /// persistent report store and the byte-identity determinism tests
    /// can compare encodings directly. The layout is pinned by
    /// [`SIM_REPORT_LAYOUT_VERSION`]; every field of every stat struct is
    /// destructured exhaustively, so adding a counter without extending
    /// the codec is a compile error, never silent data loss.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let SimReport {
            cores,
            l2,
            cycles,
            prefetcher,
        } = self;
        let mut out = Vec::with_capacity(64 + cores.len() * 80 + prefetcher.len() * 24);
        let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        put(&mut out, cores.len() as u64);
        for core in cores {
            // Exhaustive destructure; the flush counters are encoded in
            // the trailing versioned section below, not in the layout-1
            // core block.
            let CoreStats {
                retired,
                cycles,
                fetch_blocks,
                l1i_hits,
                next_line_hits,
                prefetch_hits,
                demand_misses,
                fetch_stall_cycles,
                mispredicts,
                cond_branches,
                flushes: _,
                refill_cycles: _,
                refill_misses: _,
            } = core;
            for v in [
                retired,
                cycles,
                fetch_blocks,
                l1i_hits,
                next_line_hits,
                prefetch_hits,
                demand_misses,
                fetch_stall_cycles,
                mispredicts,
                cond_branches,
            ] {
                put(&mut out, *v);
            }
        }
        let L2Stats {
            accesses,
            inst_hits,
            inst_misses,
            mshr_rejects,
            mem_transfers,
            tag_updates,
            tag_update_drops,
            queue_delay,
        } = l2;
        for v in accesses {
            put(&mut out, *v);
        }
        for v in [
            inst_hits,
            inst_misses,
            mshr_rejects,
            mem_transfers,
            tag_updates,
            tag_update_drops,
            queue_delay,
        ] {
            put(&mut out, *v);
        }
        put(&mut out, *cycles);
        put(&mut out, prefetcher.len() as u64);
        for (name, value) in prefetcher {
            put(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            put(&mut out, value.to_bits());
        }
        // Versioned trailing flush section, present only when a run saw
        // context-switch activity: a flushless report keeps its exact
        // prior byte layout, so every pre-existing store entry stays
        // decodable and warm.
        if cores
            .iter()
            .any(|c| c.flushes != 0 || c.refill_cycles != 0 || c.refill_misses != 0)
        {
            put(&mut out, u64::from(SIM_REPORT_FLUSH_LAYOUT_VERSION));
            for core in cores {
                put(&mut out, core.flushes);
                put(&mut out, core.refill_cycles);
                put(&mut out, core.refill_misses);
            }
        }
        out
    }

    /// Decodes a report written by
    /// [`to_canonical_bytes`](Self::to_canonical_bytes). Round-trips
    /// exactly; any malformed input — truncation, trailing bytes, a
    /// non-UTF-8 counter name — is an error, never a wrong report.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<SimReport, ReportCodecError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let n_cores = usize_count(cur.u64()?)?;
        // A corrupt count cannot trigger an unbounded allocation: every
        // core costs 80 bytes, so cap the preallocation by what remains.
        let mut cores = Vec::with_capacity(n_cores.min(bytes.len() / 80 + 1));
        for _ in 0..n_cores {
            cores.push(CoreStats {
                retired: cur.u64()?,
                cycles: cur.u64()?,
                fetch_blocks: cur.u64()?,
                l1i_hits: cur.u64()?,
                next_line_hits: cur.u64()?,
                prefetch_hits: cur.u64()?,
                demand_misses: cur.u64()?,
                fetch_stall_cycles: cur.u64()?,
                mispredicts: cur.u64()?,
                cond_branches: cur.u64()?,
                // Filled in by the trailing flush section, when present.
                flushes: 0,
                refill_cycles: 0,
                refill_misses: 0,
            });
        }
        let mut accesses = [0u64; 6];
        for slot in &mut accesses {
            *slot = cur.u64()?;
        }
        let l2 = L2Stats {
            accesses,
            inst_hits: cur.u64()?,
            inst_misses: cur.u64()?,
            mshr_rejects: cur.u64()?,
            mem_transfers: cur.u64()?,
            tag_updates: cur.u64()?,
            tag_update_drops: cur.u64()?,
            queue_delay: cur.u64()?,
        };
        let cycles = cur.u64()?;
        let n_counters = usize_count(cur.u64()?)?;
        let mut prefetcher = Vec::with_capacity(n_counters.min(bytes.len() / 16 + 1));
        for _ in 0..n_counters {
            let len = usize_count(cur.u64()?)?;
            let raw = cur.take(len)?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| ReportCodecError::BadCounterName)?
                .to_string();
            let value = f64::from_bits(cur.u64()?);
            prefetcher.push((name, value));
        }
        // Layout-1 payloads end here; extended payloads continue with
        // versioned trailing sections in strictly increasing tag order,
        // each present at most once. Tag 2, the retired L2 event section,
        // is rejected like any unknown tag.
        let mut last_section = 0u64;
        while cur.pos != bytes.len() {
            let section = cur.u64()?;
            if section <= last_section {
                return Err(ReportCodecError::BadEventSection(section));
            }
            last_section = section;
            if section == u64::from(SIM_REPORT_FLUSH_LAYOUT_VERSION) {
                let mut any = false;
                for core in &mut cores {
                    core.flushes = cur.u64()?;
                    core.refill_cycles = cur.u64()?;
                    core.refill_misses = cur.u64()?;
                    any |= core.flushes != 0 || core.refill_cycles != 0 || core.refill_misses != 0;
                }
                if !any {
                    // All-zero flush counters encode as no section at all.
                    return Err(ReportCodecError::TrailingBytes);
                }
            } else {
                return Err(ReportCodecError::BadEventSection(section));
            }
        }
        Ok(SimReport {
            cores,
            l2,
            cycles,
            prefetcher,
        })
    }
}

/// Version of the canonical [`SimReport`] byte layout. Hashed into every
/// report store key (alongside the container format version), so a
/// layout change re-addresses all cached reports instead of misdecoding
/// them.
pub const SIM_REPORT_LAYOUT_VERSION: u32 = 1;

/// Bumped layout version for reports carrying context-switch flush and
/// metadata-refill counters: a trailing section tagged with this version
/// holding `(flushes, refill_cycles, refill_misses)` per core. Reports
/// from flushless runs keep encoding exactly as before — the section is
/// emitted only when at least one counter is nonzero — so every existing
/// store entry stays decodable and warm; only workload mixes with context
/// switching enabled address flush-section content.
///
/// Section tag 2 is retired: it marked a recorded L2 event timeline that
/// only the removed sharded execution modes wrote, and no persisted
/// report carries it. The decoder rejects it as an unknown section, and
/// no new section may reuse it.
pub const SIM_REPORT_FLUSH_LAYOUT_VERSION: u32 = 3;

/// Errors decoding a canonical report payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportCodecError {
    /// The payload ended inside a field.
    Truncated,
    /// Bytes remained after the last field.
    TrailingBytes,
    /// A prefetcher counter name was not valid UTF-8.
    BadCounterName,
    /// A trailing section carried an unknown or retired version tag, or
    /// arrived out of tag order.
    BadEventSection(u64),
    /// A count field exceeds the address space — it cannot possibly
    /// describe items present in the payload.
    CountOverflow,
}

impl std::fmt::Display for ReportCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportCodecError::Truncated => write!(f, "truncated report payload"),
            ReportCodecError::TrailingBytes => write!(f, "trailing bytes in report payload"),
            ReportCodecError::BadCounterName => write!(f, "non-UTF-8 counter name"),
            ReportCodecError::BadEventSection(v) => {
                write!(f, "unknown or misplaced trailing section {v}")
            }
            ReportCodecError::CountOverflow => write!(f, "count overflows the address space"),
        }
    }
}

/// Converts a decoded count to `usize`, rejecting values a 32-bit
/// target cannot address instead of silently truncating them.
fn usize_count(v: u64) -> Result<usize, ReportCodecError> {
    usize::try_from(v).map_err(|_| ReportCodecError::CountOverflow)
}

impl std::error::Error for ReportCodecError {}

/// Minimal bounds-checked reader over the canonical payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReportCodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ReportCodecError::Truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64, ReportCodecError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_math() {
        let c = CoreStats {
            prefetch_hits: 60,
            demand_misses: 40,
            ..CoreStats::default()
        };
        assert_eq!(c.baseline_misses(), 100);
        assert!((c.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::default();
        assert_eq!(r.total_retired(), 0);
        assert_eq!(r.aggregate_ipc(), 0.0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.prefetcher_counter("x"), None);
    }

    fn sample_report() -> SimReport {
        SimReport {
            cores: vec![
                CoreStats {
                    retired: 1000,
                    cycles: 500,
                    fetch_blocks: 300,
                    l1i_hits: 250,
                    next_line_hits: 20,
                    prefetch_hits: 15,
                    demand_misses: 15,
                    fetch_stall_cycles: 80,
                    mispredicts: 9,
                    cond_branches: 120,
                    flushes: 0,
                    refill_cycles: 0,
                    refill_misses: 0,
                },
                CoreStats {
                    retired: 900,
                    ..CoreStats::default()
                },
            ],
            l2: L2Stats {
                accesses: [1, 2, 3, 4, 5, 6],
                inst_hits: 7,
                inst_misses: 8,
                mshr_rejects: 9,
                mem_transfers: 10,
                tag_updates: 11,
                tag_update_drops: 12,
                queue_delay: 13,
            },
            cycles: 777,
            prefetcher: vec![("streams".into(), 4.0), ("discards".into(), 0.5)],
        }
    }

    #[test]
    fn canonical_bytes_roundtrip_exactly() {
        for report in [sample_report(), SimReport::default()] {
            let bytes = report.to_canonical_bytes();
            let back = SimReport::from_canonical_bytes(&bytes).unwrap();
            assert_eq!(back, report);
            // Canonical: re-encoding yields the same bytes.
            assert_eq!(back.to_canonical_bytes(), bytes);
        }
    }

    #[test]
    fn flush_section_roundtrips_and_stays_a_pure_suffix() {
        // A flushless report keeps its exact prior bytes; flush counters
        // ride a versioned trailing section.
        let flushless = sample_report();
        let mut flushed = flushless.clone();
        flushed.cores[0].flushes = 4;
        flushed.cores[0].refill_cycles = 230;
        flushed.cores[0].refill_misses = 31;
        let base = flushless.to_canonical_bytes();
        let extended = flushed.to_canonical_bytes();
        assert_eq!(
            &extended[..base.len()],
            &base[..],
            "the flush section must be a pure suffix"
        );
        assert_eq!(
            extended.len() - base.len(),
            8 + 24 * flushed.cores.len(),
            "section = version + 3 words per core"
        );
        let back = SimReport::from_canonical_bytes(&extended).unwrap();
        assert_eq!(back, flushed);
        assert_eq!(back.to_canonical_bytes(), extended);
    }

    #[test]
    fn layout_versions_pin_the_encoding() {
        // Exhaustive literals: a new field fails to compile here. Each
        // field holds its own nonzero value and the flush section is
        // present, so a dropped, swapped or reordered field moves the
        // pinned bytes even when encoder and decoder move together.
        let report = SimReport {
            cores: vec![
                CoreStats {
                    retired: 1,
                    cycles: 2,
                    fetch_blocks: 3,
                    l1i_hits: 4,
                    next_line_hits: 5,
                    prefetch_hits: 6,
                    demand_misses: 7,
                    fetch_stall_cycles: 8,
                    mispredicts: 9,
                    cond_branches: 10,
                    flushes: 11,
                    refill_cycles: 12,
                    refill_misses: 13,
                },
                CoreStats {
                    retired: 14,
                    cycles: 15,
                    fetch_blocks: 16,
                    l1i_hits: 17,
                    next_line_hits: 18,
                    prefetch_hits: 19,
                    demand_misses: 20,
                    fetch_stall_cycles: 21,
                    mispredicts: 22,
                    cond_branches: 23,
                    flushes: 24,
                    refill_cycles: 25,
                    refill_misses: 26,
                },
            ],
            l2: L2Stats {
                accesses: [27, 28, 29, 30, 31, 32],
                inst_hits: 33,
                inst_misses: 34,
                mshr_rejects: 35,
                mem_transfers: 36,
                tag_updates: 37,
                tag_update_drops: 38,
                queue_delay: 39,
            },
            cycles: 40,
            prefetcher: vec![("streams".into(), 41.5), ("discards".into(), 42.25)],
        };
        let bytes = report.to_canonical_bytes();
        assert_eq!(SimReport::from_canonical_bytes(&bytes).unwrap(), report);
        let fnv1a64 = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (
                SIM_REPORT_LAYOUT_VERSION,
                SIM_REPORT_FLUSH_LAYOUT_VERSION,
                bytes.len(),
                fnv1a64
            ),
            (1, 3, 391, 0x024a_8cdc_dd4d_62a8),
            "the SimReport encoding changed: bump the layout version, then re-pin"
        );
    }

    #[test]
    fn retired_event_section_is_rejected() {
        // Tag 2 once carried a recorded L2 event timeline. A blob that
        // still has one must fail to decode, so a store evicts it and the
        // cell is recomputed instead of served with stale content.
        let mut bytes = sample_report().to_canonical_bytes();
        for word in [2u64, 1, 3, 17, 0, 0] {
            // tag, one event (issue, block, kind | hit << 8), no warm blocks
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(
            SimReport::from_canonical_bytes(&bytes),
            Err(ReportCodecError::BadEventSection(2))
        );
    }

    #[test]
    fn flush_section_rejects_non_canonical_payloads() {
        let flushless = sample_report();
        let base = flushless.to_canonical_bytes();
        // An all-zero flush section encodes as no section at all: a
        // present-but-empty one would give the report two byte strings.
        let mut padded = base.clone();
        padded.extend_from_slice(&u64::from(SIM_REPORT_FLUSH_LAYOUT_VERSION).to_le_bytes());
        for _ in 0..flushless.cores.len() * 3 {
            padded.extend_from_slice(&0u64.to_le_bytes());
        }
        assert_eq!(
            SimReport::from_canonical_bytes(&padded),
            Err(ReportCodecError::TrailingBytes)
        );
        // Sections must arrive in strictly increasing tag order: a
        // repeated section is rejected.
        let mut flushed = flushless.clone();
        flushed.cores[1].flushes = 1;
        let mut reordered = flushed.to_canonical_bytes();
        reordered.extend_from_slice(&u64::from(SIM_REPORT_FLUSH_LAYOUT_VERSION).to_le_bytes());
        for _ in 0..flushed.cores.len() * 3 {
            reordered.extend_from_slice(&1u64.to_le_bytes());
        }
        assert_eq!(
            SimReport::from_canonical_bytes(&reordered),
            Err(ReportCodecError::BadEventSection(u64::from(
                SIM_REPORT_FLUSH_LAYOUT_VERSION
            )))
        );
        // Truncation inside the section.
        let full = flushed.to_canonical_bytes();
        assert_eq!(
            SimReport::from_canonical_bytes(&full[..full.len() - 4]),
            Err(ReportCodecError::Truncated)
        );
    }

    #[test]
    fn canonical_decode_rejects_malformed_payloads() {
        let bytes = sample_report().to_canonical_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 7, 0] {
            assert_eq!(
                SimReport::from_canonical_bytes(&bytes[..cut]),
                Err(ReportCodecError::Truncated),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage cannot masquerade as a section: too
        // short to hold the section header it reads as a truncation, a
        // full word with the wrong tag as an unknown section version.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            SimReport::from_canonical_bytes(&trailing),
            Err(ReportCodecError::Truncated)
        );
        let mut tagged = bytes.clone();
        tagged.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            SimReport::from_canonical_bytes(&tagged),
            Err(ReportCodecError::BadEventSection(7))
        );
        // A corrupt core count larger than the payload must error, not
        // allocate or loop.
        let mut huge = bytes;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            SimReport::from_canonical_bytes(&huge),
            Err(ReportCodecError::Truncated)
        );
    }

    #[test]
    fn speedup_ratio() {
        let mk = |retired, cycles| {
            let mut r = SimReport::default();
            r.cores.push(CoreStats {
                retired,
                cycles,
                ..CoreStats::default()
            });
            r
        };
        let base = mk(1000, 1000);
        let fast = mk(1000, 800);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn hostile_counts_error_instead_of_truncating() {
        // Counts decode through `usize_count` (try_from, never `as`), so
        // a hostile u64 count is an error on every target width — here
        // it manifests as truncation because the payload cannot actually
        // hold that many items.
        let put = |b: &mut Vec<u8>, v: u64| b.extend_from_slice(&v.to_le_bytes());
        let mut cores = Vec::new();
        put(&mut cores, u64::MAX);
        assert_eq!(
            SimReport::from_canonical_bytes(&cores),
            Err(ReportCodecError::Truncated)
        );

        // Same for a counter-name length deep in an otherwise valid
        // payload: 0 cores, a zeroed L2 block, cycles, one counter whose
        // name claims u64::MAX bytes.
        let mut name_len = Vec::new();
        put(&mut name_len, 0);
        for _ in 0..13 {
            put(&mut name_len, 0);
        }
        put(&mut name_len, 0);
        put(&mut name_len, 1);
        put(&mut name_len, u64::MAX);
        assert_eq!(
            SimReport::from_canonical_bytes(&name_len),
            Err(ReportCodecError::Truncated)
        );
    }
}
