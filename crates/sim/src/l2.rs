//! Shared L2 cache timing model: 16 banks with independently-scheduled
//! pipelines, MSHR-limited concurrency, and a bandwidth-limited memory
//! behind it (paper Table II and Section 6.1).
//!
//! The model is completion-time based: a request immediately returns the
//! cycle at which its data arrives at the requester, accounting for bank
//! occupancy, queueing, L2 hit latency, and memory latency/bandwidth.
//! Requesters poll their completion cycles; there are no callbacks.
//!
//! Instruction-block residency is tracked in a real 8 MB 16-way LRU
//! directory, so compulsory misses go to memory and the Index-Table
//! embedding can observe evictions. Data requests carry a *forced* outcome
//! drawn from the workload's latency profile (the synthetic data working
//! set is not modelled at address granularity); they still contend for
//! banks, MSHRs, and memory bandwidth. This preserves the contention
//! effects Figure 13 measures (virtualized IML traffic vs. performance)
//! without simulating a data heap.

use tifs_trace::BlockAddr;

use crate::cache::SetAssocCache;
use crate::config::SystemConfig;

/// Classes of L2 access, for traffic accounting (paper Figure 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum L2ReqKind {
    /// Demand instruction fetch from an L1-I miss.
    IFetch,
    /// Instruction prefetch (next-line, FDIP, or TIFS stream fetch).
    IPrefetch,
    /// Data read (L1-D miss).
    Data,
    /// Writeback from a store.
    Writeback,
    /// Virtualized Instruction Miss Log read (12 pointers per block).
    ImlRead,
    /// Virtualized Instruction Miss Log write.
    ImlWrite,
}

impl L2ReqKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [L2ReqKind; 6] = [
        L2ReqKind::IFetch,
        L2ReqKind::IPrefetch,
        L2ReqKind::Data,
        L2ReqKind::Writeback,
        L2ReqKind::ImlRead,
        L2ReqKind::ImlWrite,
    ];

    /// Stable position of this kind in [`ALL`](Self::ALL) (its
    /// accounting slot).
    pub fn index(self) -> usize {
        match self {
            L2ReqKind::IFetch => 0,
            L2ReqKind::IPrefetch => 1,
            L2ReqKind::Data => 2,
            L2ReqKind::Writeback => 3,
            L2ReqKind::ImlRead => 4,
            L2ReqKind::ImlWrite => 5,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            L2ReqKind::IFetch => "ifetch",
            L2ReqKind::IPrefetch => "iprefetch",
            L2ReqKind::Data => "data",
            L2ReqKind::Writeback => "writeback",
            L2ReqKind::ImlRead => "iml-read",
            L2ReqKind::ImlWrite => "iml-write",
        }
    }
}

/// Outcome of an accepted L2 request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Response {
    /// Cycle at which data arrives at the requester.
    pub ready: u64,
    /// Whether the access hit in L2.
    pub hit: bool,
}

/// Aggregate L2 statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Accesses by kind, in [`L2ReqKind::ALL`] order.
    pub accesses: [u64; 6],
    /// Instruction-directory hits/misses (IFetch + IPrefetch only).
    pub inst_hits: u64,
    /// Instruction-directory misses.
    pub inst_misses: u64,
    /// Requests rejected because all MSHRs were busy.
    pub mshr_rejects: u64,
    /// Memory transfers performed.
    pub mem_transfers: u64,
    /// Index-Table pointer updates applied to the tag pipeline.
    pub tag_updates: u64,
    /// Index-Table pointer updates dropped due to back-pressure.
    pub tag_update_drops: u64,
    /// Total cycles of bank queueing delay across accesses.
    pub queue_delay: u64,
}

impl L2Stats {
    /// Accesses of one kind.
    pub fn of(&self, kind: L2ReqKind) -> u64 {
        self.accesses[kind.index()]
    }

    /// The paper's Figure 12 "base traffic" denominator: data reads,
    /// instruction fetches (demand + prefetch), and writebacks.
    pub fn base_traffic(&self) -> u64 {
        self.of(L2ReqKind::IFetch)
            + self.of(L2ReqKind::IPrefetch)
            + self.of(L2ReqKind::Data)
            + self.of(L2ReqKind::Writeback)
    }

    /// TIFS-added traffic: IML reads and writes.
    pub fn iml_traffic(&self) -> u64 {
        self.of(L2ReqKind::ImlRead) + self.of(L2ReqKind::ImlWrite)
    }
}

/// The shared L2 and memory-side timing model.
#[derive(Clone, Debug)]
pub struct L2 {
    banks_free: Vec<u64>,
    tag_free: Vec<u64>,
    directory: SetAssocCache,
    inflight: Vec<u64>,
    mem_next_free: u64,
    evictions: Vec<BlockAddr>,
    cfg: L2Config,
    stats: L2Stats,
}

#[derive(Clone, Debug)]
struct L2Config {
    banks: usize,
    occupancy: u64,
    latency: u64,
    mshrs: usize,
    mem_latency: u64,
    mem_gap: u64,
    tag_backlog_limit: u64,
}

impl L2 {
    /// Builds the L2 from a system configuration.
    pub fn new(cfg: &SystemConfig) -> L2 {
        L2 {
            banks_free: vec![0; cfg.l2_banks],
            tag_free: vec![0; cfg.l2_banks],
            directory: SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways),
            inflight: Vec::new(),
            mem_next_free: 0,
            evictions: Vec::new(),
            cfg: L2Config {
                banks: cfg.l2_banks,
                occupancy: cfg.l2_bank_occupancy,
                latency: cfg.l2_latency,
                mshrs: cfg.l2_mshrs,
                mem_latency: cfg.mem_latency,
                mem_gap: cfg.mem_gap,
                tag_backlog_limit: 32,
            },
            stats: L2Stats::default(),
        }
    }

    #[inline]
    fn bank_of(&self, block: BlockAddr) -> usize {
        (block.0 % self.cfg.banks as u64) as usize
    }

    fn reclaim_mshrs(&mut self, now: u64) {
        self.inflight.retain(|&done| done > now);
    }

    /// Issues a request. `forced_hit` dictates the L2 outcome for data-side
    /// accesses (whose addresses are synthetic); instruction-side and IML
    /// accesses pass `None` and consult the real directory.
    ///
    /// Forced-outcome requests are **real traffic**, not analysis probes:
    /// they charge bank occupancy, queueing delay, and (on a forced miss)
    /// memory bandwidth exactly like directory-backed requests, because
    /// the data-side contention they model is what Figure 13 measures.
    /// Analyses that only want residency use the side-effect-free
    /// [`contains_instruction`](Self::contains_instruction) probe, which
    /// touches neither statistics nor timing state (pinned by the
    /// `forced_outcome_data_requests_contend_by_design` regression test).
    ///
    /// Returns `None` when all MSHRs are busy; the requester retries later.
    #[inline]
    pub fn request(
        &mut self,
        now: u64,
        block: BlockAddr,
        kind: L2ReqKind,
        forced_hit: Option<bool>,
    ) -> Option<L2Response> {
        // Reclaim lazily: `inflight` only gates the MSHR-full check, so
        // completed fills can sit in the list until the check would
        // otherwise trip — same accept/reject outcomes, without a
        // whole-list scan on every request.
        if self.inflight.len() >= self.cfg.mshrs {
            self.reclaim_mshrs(now);
            if self.inflight.len() >= self.cfg.mshrs {
                self.stats.mshr_rejects += 1;
                return None;
            }
        }
        self.stats.accesses[kind.index()] += 1;

        let bank = self.bank_of(block);
        let start = now.max(self.banks_free[bank]);
        self.stats.queue_delay += start - now;
        self.banks_free[bank] = start + self.cfg.occupancy;

        let hit = match (kind, forced_hit) {
            (_, Some(h)) => h,
            (L2ReqKind::IFetch | L2ReqKind::IPrefetch, None) => {
                let h = self.directory.access(block);
                if h {
                    self.stats.inst_hits += 1;
                } else {
                    self.stats.inst_misses += 1;
                }
                h
            }
            // IML blocks live in a private region the directory always
            // backs (the paper reserves IML storage in the L2 data array);
            // writebacks complete at the L2.
            (L2ReqKind::ImlRead | L2ReqKind::ImlWrite | L2ReqKind::Writeback, None) => true,
            (L2ReqKind::Data, None) => true,
        };

        let ready = if hit {
            start + self.cfg.latency
        } else {
            let mem_start = (start + self.cfg.latency).max(self.mem_next_free);
            self.mem_next_free = mem_start + self.cfg.mem_gap;
            self.stats.mem_transfers += 1;
            if matches!(kind, L2ReqKind::IFetch | L2ReqKind::IPrefetch) {
                if let Some(victim) = self.directory.insert(block) {
                    self.evictions.push(victim);
                }
            }
            mem_start + self.cfg.mem_latency
        };
        self.inflight.push(ready);
        Some(L2Response { ready, hit })
    }

    /// Queues an Index-Table pointer update on a bank's tag pipeline.
    /// Updates are lowest priority and are dropped under back-pressure
    /// (paper Section 5.2.2). Returns `false` if dropped.
    #[inline]
    pub fn tag_update(&mut self, now: u64, block: BlockAddr) -> bool {
        let bank = self.bank_of(block);
        if self.tag_free[bank].saturating_sub(now) > self.cfg.tag_backlog_limit {
            self.stats.tag_update_drops += 1;
            return false;
        }
        self.tag_free[bank] = self.tag_free[bank].max(now) + 1;
        self.stats.tag_updates += 1;
        true
    }

    /// Whether an instruction block is resident in L2 (no LRU update).
    #[inline]
    pub fn contains_instruction(&self, block: BlockAddr) -> bool {
        self.directory.peek(block)
    }

    /// Drains instruction blocks evicted since the last call (for
    /// Index-Table invalidation in the embedded-tags organization).
    pub fn take_evictions(&mut self) -> Vec<BlockAddr> {
        std::mem::take(&mut self.evictions)
    }

    /// Swaps the pending-eviction list with `buf` (which must be empty),
    /// letting a caller that polls every cycle reuse one buffer instead
    /// of reallocating via [`take_evictions`](Self::take_evictions).
    pub fn swap_evictions(&mut self, buf: &mut Vec<BlockAddr>) {
        debug_assert!(buf.is_empty());
        std::mem::swap(&mut self.evictions, buf);
    }

    /// Statistics so far.
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Zeroes statistics, preserving directory contents and timing state
    /// (used to discard warmup from measurements).
    pub fn reset_stats(&mut self) {
        self.stats = L2Stats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2 {
        L2::new(&SystemConfig::table2())
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let mut c = l2();
        let r = c
            .request(0, BlockAddr(100), L2ReqKind::IFetch, None)
            .unwrap();
        assert!(!r.hit);
        assert!(r.ready >= 20 + 180, "compulsory miss: {r:?}");
        // Second touch hits at L2 latency.
        let r2 = c
            .request(1000, BlockAddr(100), L2ReqKind::IFetch, None)
            .unwrap();
        assert!(r2.hit);
        assert_eq!(r2.ready, 1000 + 20);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut c = l2();
        let b = BlockAddr(16); // bank 0
        let same_bank = BlockAddr(32); // also bank 0
        let r1 = c.request(0, b, L2ReqKind::Data, Some(true)).unwrap();
        let r2 = c
            .request(0, same_bank, L2ReqKind::Data, Some(true))
            .unwrap();
        assert_eq!(r1.ready, 20);
        assert_eq!(r2.ready, 24, "second access waits for bank occupancy");
        // A different bank is unaffected.
        let r3 = c
            .request(0, BlockAddr(17), L2ReqKind::Data, Some(true))
            .unwrap();
        assert_eq!(r3.ready, 20);
    }

    #[test]
    fn mshrs_bound_concurrency() {
        let mut c = l2();
        let mut accepted = 0;
        for i in 0..100 {
            if c.request(0, BlockAddr(i), L2ReqKind::Data, Some(true))
                .is_some()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 64, "64 MSHRs");
        assert_eq!(c.stats().mshr_rejects, 36);
        // After completions, capacity returns.
        assert!(c
            .request(10_000, BlockAddr(500), L2ReqKind::Data, Some(true))
            .is_some());
    }

    #[test]
    fn memory_bandwidth_spaces_transfers() {
        let mut c = l2();
        // Two compulsory misses on different banks start memory transfers
        // spaced by mem_gap.
        let r1 = c.request(0, BlockAddr(0), L2ReqKind::IFetch, None).unwrap();
        let r2 = c.request(0, BlockAddr(1), L2ReqKind::IFetch, None).unwrap();
        assert_eq!(r2.ready - r1.ready, 9, "one transfer per mem_gap cycles");
        assert_eq!(c.stats().mem_transfers, 2);
    }

    #[test]
    fn evictions_are_reported() {
        let mut cfg = SystemConfig::table2();
        cfg.l2_bytes = 64 * 64; // tiny: 64 blocks
        cfg.l2_ways = 1;
        let mut c = L2::new(&cfg);
        let mut now = 0;
        for i in 0..128 {
            c.request(now, BlockAddr(i), L2ReqKind::IFetch, None);
            now += 1000;
        }
        let ev = c.take_evictions();
        assert!(!ev.is_empty(), "direct-mapped tiny cache must evict");
        assert!(c.take_evictions().is_empty(), "drained");
    }

    #[test]
    fn tag_updates_drop_under_pressure() {
        let mut c = l2();
        let mut applied = 0;
        let mut dropped = 0;
        for _ in 0..100 {
            if c.tag_update(0, BlockAddr(0)) {
                applied += 1;
            } else {
                dropped += 1;
            }
        }
        assert!(
            applied >= 32 && dropped > 0,
            "applied={applied} dropped={dropped}"
        );
        // Pressure clears with time.
        assert!(c.tag_update(1_000_000, BlockAddr(0)));
    }

    #[test]
    fn base_traffic_accounting() {
        let mut c = l2();
        c.request(0, BlockAddr(1), L2ReqKind::IFetch, None);
        c.request(0, BlockAddr(2), L2ReqKind::Data, Some(true));
        c.request(0, BlockAddr(3), L2ReqKind::Writeback, None);
        c.request(0, BlockAddr(4), L2ReqKind::ImlRead, None);
        c.request(0, BlockAddr(5), L2ReqKind::ImlWrite, None);
        assert_eq!(c.stats().base_traffic(), 3);
        assert_eq!(c.stats().iml_traffic(), 2);
    }
}
