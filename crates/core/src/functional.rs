//! Functional (timing-free) TIFS model for coverage sweeps.
//!
//! Paper Figure 11 measures TIFS predictor coverage as a function of IML
//! storage capacity assuming a perfect, dedicated Index Table. That study
//! needs no timing: this model consumes an L1-I miss trace directly and
//! replays the TIFS logic — log at every miss, look up the most recent
//! occurrence, follow the stream through a small lookahead window (the
//! SVB's reorder tolerance).

use tifs_trace::BlockAddr;

use crate::iml::Iml;
use crate::index::{ImlPtr, IndexKind, IndexTable};

/// Concurrent streams per core.
const STREAM_CONTEXTS: usize = 4;
/// Lookahead window per stream (models the SVB's rate-matching depth plus
/// its associative slack).
const WINDOW: usize = 8;

#[derive(Clone, Debug)]
struct FStream {
    active: bool,
    src_core: usize,
    pos: u64,
    last_use: u64,
}

/// Coverage outcome of a functional run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FunctionalReport {
    /// Misses processed.
    pub misses: u64,
    /// Misses covered by stream following.
    pub covered: u64,
    /// Lookups with no valid pointer.
    pub failed_lookups: u64,
}

impl FunctionalReport {
    /// Covered fraction of all misses.
    pub fn coverage(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.covered as f64 / self.misses as f64
        }
    }
}

/// The functional TIFS model.
#[derive(Clone, Debug)]
pub struct FunctionalTifs {
    imls: Vec<Iml>,
    index: IndexTable,
    streams: Vec<Vec<FStream>>,
    clock: u64,
    report: FunctionalReport,
}

impl FunctionalTifs {
    /// Creates the model for `num_cores` cores, each retaining
    /// `iml_entries_per_core` log entries (`None` = unbounded).
    pub fn new(num_cores: usize, iml_entries_per_core: Option<usize>) -> FunctionalTifs {
        FunctionalTifs {
            imls: (0..num_cores)
                .map(|_| Iml::new(iml_entries_per_core))
                .collect(),
            index: IndexTable::new(IndexKind::Dedicated),
            streams: (0..num_cores)
                .map(|_| {
                    (0..STREAM_CONTEXTS)
                        .map(|_| FStream {
                            active: false,
                            src_core: 0,
                            pos: 0,
                            last_use: 0,
                        })
                        .collect()
                })
                .collect(),
            clock: 0,
            report: FunctionalReport::default(),
        }
    }

    /// Processes one miss of `core`'s trace; returns `true` if covered.
    pub fn process(&mut self, core: usize, block: BlockAddr) -> bool {
        self.clock += 1;
        self.report.misses += 1;

        // Try every active stream's lookahead window.
        let mut matched: Option<(usize, u64)> = None;
        for (sid, s) in self.streams[core].iter().enumerate() {
            if !s.active {
                continue;
            }
            let window = self.imls[s.src_core].read_group(s.pos, WINDOW);
            if let Some(off) = window.iter().position(|e| e.block == block) {
                matched = Some((sid, s.pos + off as u64 + 1));
                break;
            }
        }

        let covered = if let Some((sid, new_pos)) = matched {
            let s = &mut self.streams[core][sid];
            s.pos = new_pos;
            s.last_use = self.clock;
            self.report.covered += 1;
            true
        } else {
            // Stream lookup (Recent heuristic via the shared index).
            match self.index.lookup(block) {
                Some(ImlPtr { core: src, pos }) if self.imls[src as usize].is_valid(pos) => {
                    let clock = self.clock;
                    let victim = self.streams[core]
                        .iter_mut()
                        .min_by_key(|s| (s.active, s.last_use))
                        .expect("contexts exist");
                    *victim = FStream {
                        active: true,
                        src_core: src as usize,
                        pos: pos + 1,
                        last_use: clock,
                    };
                }
                _ => self.report.failed_lookups += 1,
            }
            false
        };

        // Log the miss (SVB hits are logged too) and point the index at it.
        let pos = self.imls[core].append(block, covered);
        self.index.update(
            block,
            ImlPtr {
                core: core as u8,
                pos,
            },
            true,
        );
        covered
    }

    /// Processes per-core miss traces, interleaving cores round-robin (the
    /// traces are causally independent; interleaving exercises the shared
    /// index as the CMP would).
    pub fn process_interleaved(&mut self, traces: &[Vec<BlockAddr>]) {
        assert_eq!(traces.len(), self.streams.len(), "one trace per core");
        let mut cursors = vec![0usize; traces.len()];
        loop {
            let mut progressed = false;
            for (core, trace) in traces.iter().enumerate() {
                if cursors[core] < trace.len() {
                    self.process(core, trace[cursors[core]]);
                    cursors[core] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// The coverage report.
    pub fn report(&self) -> FunctionalReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(v: &[u64]) -> Vec<BlockAddr> {
        v.iter().map(|&b| BlockAddr(b)).collect()
    }

    #[test]
    fn repeating_stream_is_covered() {
        let mut f = FunctionalTifs::new(1, Some(8192));
        let stream: Vec<u64> = (100..130).collect();
        let mut covered_last_pass = 0;
        for pass in 0..4 {
            covered_last_pass = 0;
            for &b in &stream {
                if f.process(0, BlockAddr(b)) {
                    covered_last_pass += 1;
                }
            }
            if pass == 0 {
                assert_eq!(covered_last_pass, 0, "first pass trains");
            }
        }
        // All but the head should be covered on later passes.
        assert!(
            covered_last_pass >= stream.len() - 2,
            "covered {covered_last_pass}/{}",
            stream.len()
        );
    }

    #[test]
    fn random_trace_covers_nothing() {
        let mut f = FunctionalTifs::new(1, Some(8192));
        for b in 0..500u64 {
            assert!(!f.process(0, BlockAddr(b * 7919)));
        }
        assert_eq!(f.report().covered, 0);
    }

    #[test]
    fn window_tolerates_small_deviations() {
        let mut f = FunctionalTifs::new(1, Some(8192));
        let a = blocks(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // Train.
        for &b in &a {
            f.process(0, b);
        }
        // Replay with one block (4) skipped: the window must re-sync.
        let mut covered = 0;
        for &b in a.iter().filter(|b| b.0 != 4) {
            if f.process(0, b) {
                covered += 1;
            }
        }
        assert!(covered >= a.len() - 3, "resync failed: {covered}");
    }

    #[test]
    fn tiny_iml_kills_coverage() {
        // With a log far smaller than the working loop, pointers die before
        // reuse and coverage collapses.
        let tiny = Some(16);
        let big = Some(4096);
        let loop_trace: Vec<BlockAddr> = (0..200u64).map(BlockAddr).collect();
        let run = |entries: Option<usize>| {
            let mut f = FunctionalTifs::new(1, entries);
            for _ in 0..5 {
                for &b in &loop_trace {
                    f.process(0, b);
                }
            }
            f.report().coverage()
        };
        let (small_cov, big_cov) = (run(tiny), run(big));
        assert!(
            big_cov > small_cov + 0.3,
            "capacity must matter: {small_cov} vs {big_cov}"
        );
    }

    #[test]
    fn cross_core_stream_following() {
        // Core 0 trains a stream; core 1's first traversal follows core 0's
        // IML through the shared index.
        let mut f = FunctionalTifs::new(2, Some(8192));
        let stream: Vec<u64> = (500..540).collect();
        for &b in &stream {
            f.process(0, BlockAddr(b));
        }
        let mut covered = 0;
        for &b in &stream {
            if f.process(1, BlockAddr(b)) {
                covered += 1;
            }
        }
        assert!(
            covered >= stream.len() - 2,
            "cross-core coverage {covered}/{}",
            stream.len()
        );
    }

    #[test]
    fn interleaved_processing_consumes_all() {
        let mut f = FunctionalTifs::new(2, Some(8192));
        let t0 = blocks(&[1, 2, 3, 1, 2, 3]);
        let t1 = blocks(&[9, 8, 9, 8]);
        f.process_interleaved(&[t0, t1]);
        assert_eq!(f.report().misses, 10);
    }
}
