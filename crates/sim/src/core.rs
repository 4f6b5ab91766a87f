//! Cycle-level core model: decoupled fetch unit with next-line prefetcher,
//! pre-dispatch queue, and an in-order-retire ROB back end.
//!
//! The model replays the committed instruction stream. The front end is
//! faithful (per-block L1-I lookups, next-line prefetching, prefetcher
//! supply, fill latencies, branch-mispredict redirect bubbles); the back
//! end is mechanistic but simplified (per-instruction completion latencies
//! inside a real ROB, so load overlap, ROB fill-up, and retire-order
//! effects emerge naturally). This is the fidelity level the paper's
//! metrics need: instruction-fetch stalls are on the critical path and are
//! modelled precisely, while back-end scheduling detail affects all
//! configurations identically.

use std::collections::VecDeque;

use tifs_collections::FillQueue;
use tifs_trace::{BlockAddr, FetchRecord, MemClass};

use crate::bpred::{HybridPredictor, ReturnAddressStack, TargetBuffer};
use crate::cache::SetAssocCache;
use crate::config::SystemConfig;
use crate::l2::{L2ReqKind, L2};
use crate::prefetch::{FetchKind, IPrefetcher, PrefetchCtx};
use crate::stats::CoreStats;

#[derive(Clone, Copy, Debug)]
struct QEntry {
    mem: MemClass,
    /// `(block, supplied_by_prefetcher)` for the first instruction fetched
    /// after an L1-I miss; drives retirement-time miss logging.
    miss_tag: Option<(BlockAddr, bool)>,
}

#[derive(Clone, Copy, Debug)]
struct RobEntry {
    done_at: u64,
    miss_tag: Option<(BlockAddr, bool)>,
}

#[derive(Clone, Copy, Debug)]
struct FillWait {
    block: BlockAddr,
    ready: u64,
    miss_tag: Option<(BlockAddr, bool)>,
    /// False while an L2 demand request is being retried (MSHRs full).
    issued: bool,
}

enum Transition {
    Ready(Option<(BlockAddr, bool)>),
    Wait,
}

/// Baseline misses tracked in the sliding coverage window that defines
/// refill-window recovery (large enough to smooth phase noise, small
/// enough to react within a few hundred fetched blocks).
const COV_WINDOW: usize = 64;

/// Minimum post-flush samples before a refill window may close (a couple
/// of lucky early hits must not declare the metadata refilled).
const COV_MIN_SAMPLES: usize = 16;

/// One core of the simulated CMP.
pub struct Core<'a> {
    id: usize,
    width: usize,
    rob_cap: usize,
    fetch_q_cap: usize,
    l1d_latency: u64,
    next_line_depth: u64,
    mispredict_penalty: u64,
    store_writeback_prob: f64,

    stream: Box<dyn Iterator<Item = FetchRecord> + 'a>,
    l1i: SetAssocCache,
    nl_inflight: FillQueue,
    cur_block: Option<BlockAddr>,
    fill_wait: Option<FillWait>,
    pending_rec: Option<FetchRecord>,
    pending_tag: Option<(BlockAddr, bool)>,
    fetch_q: VecDeque<QEntry>,
    rob: VecDeque<RobEntry>,
    stalled_until: u64,

    bpred: HybridPredictor,
    ras: ReturnAddressStack,
    btb: TargetBuffer,
    rng_state: u64,

    stats: CoreStats,
    /// Retirement quota; the core freezes once reached.
    quota: u64,
    finished_at: Option<u64>,
    /// Cycle at which the current measurement epoch began.
    epoch: u64,

    /// Sliding window of baseline-miss outcomes (`true` = covered by the
    /// evaluated prefetcher), defining the running coverage a flush must
    /// recover to.
    cov_window: VecDeque<bool>,
    /// Covered outcomes currently in `cov_window`.
    cov_hits: usize,
    /// Open metadata-refill window: the pre-flush coverage mean the
    /// post-flush window must reach before the window closes.
    refill_target: Option<f64>,
    /// Whether the open refill window has seen a baseline miss yet.
    /// Billing starts at the first post-flush miss: a core running
    /// entirely out of its L1-I has no metadata cost to recover, so an
    /// L1-resident phase (or workload) must not have its whole duration
    /// charged as refill.
    refill_billing: bool,
}

impl<'a> Core<'a> {
    /// Creates a core replaying `stream`.
    pub fn new(
        id: usize,
        cfg: &SystemConfig,
        stream: Box<dyn Iterator<Item = FetchRecord> + 'a>,
        quota: u64,
    ) -> Core<'a> {
        Core {
            id,
            width: cfg.width,
            rob_cap: cfg.rob_entries,
            fetch_q_cap: cfg.fetch_queue,
            l1d_latency: cfg.l1d_latency,
            next_line_depth: cfg.next_line_depth,
            mispredict_penalty: cfg.mispredict_penalty,
            store_writeback_prob: cfg.store_writeback_prob,
            stream,
            l1i: SetAssocCache::new(cfg.l1i_bytes, cfg.l1i_ways),
            nl_inflight: FillQueue::new(),
            cur_block: None,
            fill_wait: None,
            pending_rec: None,
            pending_tag: None,
            fetch_q: VecDeque::with_capacity(cfg.fetch_queue),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            stalled_until: 0,
            bpred: HybridPredictor::table2(),
            ras: ReturnAddressStack::new(32),
            btb: TargetBuffer::new(4096),
            rng_state: 0x9E37_79B9_7F4A_7C15 ^ (id as u64 + 1),
            stats: CoreStats::default(),
            quota,
            finished_at: None,
            epoch: 0,
            cov_window: VecDeque::with_capacity(COV_WINDOW),
            cov_hits: 0,
            refill_target: None,
            refill_billing: false,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Sets the retirement quota at which the core freezes.
    pub fn set_quota(&mut self, quota: u64) {
        self.quota = quota;
    }

    /// Zeroes statistics and unfreezes the core, preserving all
    /// microarchitectural state (cache contents, predictors, queues).
    /// `now` begins the new measurement epoch. Used to discard warmup.
    pub fn reset_stats(&mut self, now: u64) {
        self.stats = CoreStats::default();
        self.finished_at = None;
        self.quota = u64::MAX;
        self.epoch = now;
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// Whether the core has retired its quota.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn rng(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    /// Synthetic data block address in a dedicated high region, spreading
    /// data traffic across L2 banks.
    fn data_block(&mut self) -> BlockAddr {
        BlockAddr(0x4000_0000 + (self.rng() % (1 << 22)))
    }

    /// Advances the core one cycle.
    pub fn tick(&mut self, now: u64, l2: &mut L2, pf: &mut dyn IPrefetcher) {
        if self.finished_at.is_some() {
            return;
        }
        if self.refill_target.is_some() && self.refill_billing {
            self.stats.refill_cycles += 1;
        }
        self.retire(now, l2, pf);
        if self.finished_at.is_some() {
            return;
        }
        self.dispatch(now, l2);
        self.fetch(now, l2, pf);
    }

    fn retire(&mut self, now: u64, l2: &mut L2, pf: &mut dyn IPrefetcher) {
        let mut n = 0;
        while n < self.width {
            match self.rob.front() {
                Some(e) if e.done_at <= now => {
                    let e = self.rob.pop_front().expect("checked front");
                    self.stats.retired += 1;
                    if let Some((block, supplied)) = e.miss_tag {
                        let mut ctx = PrefetchCtx {
                            now,
                            core: self.id,
                            l2,
                        };
                        pf.on_retire_fetch_miss(&mut ctx, block, supplied);
                    }
                    if self.stats.retired >= self.quota {
                        self.finished_at = Some(now);
                        self.stats.cycles = now - self.epoch;
                        return;
                    }
                    n += 1;
                }
                _ => break,
            }
        }
    }

    fn dispatch(&mut self, now: u64, l2: &mut L2) {
        let mut n = 0;
        while n < self.width && self.rob.len() < self.rob_cap {
            let Some(&entry) = self.fetch_q.front() else {
                break;
            };
            let done_at = match entry.mem {
                MemClass::None => now + 1,
                MemClass::LoadL1 => now + self.l1d_latency,
                MemClass::LoadL2 => {
                    let b = self.data_block();
                    match l2.request(now, b, L2ReqKind::Data, Some(true)) {
                        Some(resp) => resp.ready,
                        None => break, // MSHRs full; retry next cycle
                    }
                }
                MemClass::LoadMem => {
                    let b = self.data_block();
                    match l2.request(now, b, L2ReqKind::Data, Some(false)) {
                        Some(resp) => resp.ready,
                        None => break,
                    }
                }
                MemClass::Store => {
                    // Stores retire quickly; some produce writeback traffic.
                    if (self.rng() as f64 / u64::MAX as f64) < self.store_writeback_prob {
                        let b = self.data_block();
                        let _ = l2.request(now, b, L2ReqKind::Writeback, None);
                    }
                    now + 1
                }
            };
            self.fetch_q.pop_front();
            self.rob.push_back(RobEntry {
                done_at,
                miss_tag: entry.miss_tag,
            });
            n += 1;
        }
    }

    /// Moves completed next-line prefetches into the L1 and extends the
    /// chain: the paper's next-line prefetcher runs *continually* two
    /// blocks ahead of the fetch unit, so a completed fill triggers the
    /// next sequential prefetches. Without chaining, sequential runs would
    /// stall on every block (the pull-based distance of 2 blocks of work
    /// cannot cover the 20-cycle L2 latency).
    fn drain_next_line(&mut self, now: u64, l2: &mut L2) {
        // Completions pop in (ready, address) order structurally — the
        // issue order below feeds the L2 bank scheduler, and the fill
        // queue's drain order is part of its contract. Chained prefetches
        // issued mid-drain always complete after `now` (the L2 never
        // answers in zero cycles), so the drain terminates.
        while let Some((_, b, ())) = self.nl_inflight.pop_ready(now) {
            self.l1i.insert(b);
            if self
                .cur_block
                .is_some_and(|cur| b.0 >= cur.0 && b.0 - cur.0 <= 2 * self.next_line_depth + 2)
            {
                self.issue_next_line(now, b, l2);
            }
        }
    }

    fn issue_next_line(&mut self, now: u64, block: BlockAddr, l2: &mut L2) {
        for d in 1..=self.next_line_depth {
            let nb = block.offset(d);
            if self.l1i.peek(nb) || self.nl_inflight.contains(nb) {
                continue;
            }
            if let Some(resp) = l2.request(now, nb, L2ReqKind::IPrefetch, None) {
                self.nl_inflight.insert(resp.ready, nb, ());
            }
        }
    }

    fn fetch(&mut self, now: u64, l2: &mut L2, pf: &mut dyn IPrefetcher) {
        self.drain_next_line(now, l2);

        if self.stalled_until > now {
            return;
        }

        // Resolve an outstanding instruction fill.
        if let Some(fw) = self.fill_wait {
            if !fw.issued {
                match l2.request(now, fw.block, L2ReqKind::IFetch, None) {
                    Some(resp) => {
                        self.fill_wait = Some(FillWait {
                            ready: resp.ready,
                            issued: true,
                            ..fw
                        });
                    }
                    None => {
                        self.stats.fetch_stall_cycles += 1;
                        return;
                    }
                }
                self.stats.fetch_stall_cycles += 1;
                return;
            }
            if fw.ready <= now {
                self.l1i.insert(fw.block);
                self.cur_block = Some(fw.block);
                self.pending_tag = fw.miss_tag;
                self.fill_wait = None;
                self.issue_next_line(now, fw.block, l2);
            } else {
                self.stats.fetch_stall_cycles += 1;
                return;
            }
        }

        let mut fetched = 0;
        while fetched < self.width {
            if self.fetch_q.len() >= self.fetch_q_cap {
                break;
            }
            let rec = match self.pending_rec.take() {
                Some(r) => r,
                None => self
                    .stream
                    .next()
                    .expect("instruction streams are infinite"),
            };
            let block = rec.pc.block();
            let mut tag = self.pending_tag.take();
            if Some(block) != self.cur_block {
                match self.block_transition(now, block, l2, pf) {
                    Transition::Ready(t) => tag = t,
                    Transition::Wait => {
                        self.pending_rec = Some(rec);
                        break;
                    }
                }
            }
            self.fetch_q.push_back(QEntry {
                mem: rec.mem,
                miss_tag: tag,
            });
            {
                let mut ctx = PrefetchCtx {
                    now,
                    core: self.id,
                    l2,
                };
                pf.on_fetch_instr(&mut ctx, &rec);
            }
            self.train_control_flow(now, &rec);
            if rec.flush {
                self.on_context_switch(now, l2, pf);
            }
            fetched += 1;
            if self.stalled_until > now {
                break; // redirect bubble ends this fetch group
            }
        }
    }

    /// The stream marked a context switch at this instruction: the
    /// incoming program must not see the outgoing one's prefetcher
    /// metadata. The prefetcher invalidates this core's prediction state
    /// (caches are untouched), the core pays a kernel-entry redirect
    /// bubble, and a metadata-refill window opens: from the first
    /// post-flush baseline miss (an L1-resident phase has no metadata
    /// cost to recover) until windowed coverage recovers to its
    /// pre-flush running mean, elapsed cycles and baseline misses are
    /// charged to the refill counters.
    fn on_context_switch(&mut self, now: u64, l2: &mut L2, pf: &mut dyn IPrefetcher) {
        self.stats.flushes += 1;
        let mut ctx = PrefetchCtx {
            now,
            core: self.id,
            l2,
        };
        pf.on_flush(&mut ctx);
        let target = if self.cov_window.is_empty() {
            0.0
        } else {
            self.cov_hits as f64 / self.cov_window.len() as f64
        };
        self.cov_window.clear();
        self.cov_hits = 0;
        self.refill_target = Some(target);
        self.refill_billing = false;
        // Context-switch redirect: same bubble as a trap (kernel
        // entry/exit squashes the front end).
        self.stalled_until = self.stalled_until.max(now + 2 * self.mispredict_penalty);
    }

    /// Records one baseline-miss outcome (`covered` = supplied by the
    /// evaluated prefetcher) in the sliding coverage window, charging and
    /// possibly closing an open refill window.
    fn note_miss_outcome(&mut self, covered: bool) {
        if self.cov_window.len() == COV_WINDOW && self.cov_window.pop_front() == Some(true) {
            self.cov_hits -= 1;
        }
        self.cov_window.push_back(covered);
        if covered {
            self.cov_hits += 1;
        }
        if let Some(target) = self.refill_target {
            self.refill_billing = true;
            self.stats.refill_misses += 1;
            if self.cov_window.len() >= COV_MIN_SAMPLES
                && self.cov_hits as f64 >= target * self.cov_window.len() as f64
            {
                self.refill_target = None;
            }
        }
    }

    fn block_transition(
        &mut self,
        now: u64,
        block: BlockAddr,
        l2: &mut L2,
        pf: &mut dyn IPrefetcher,
    ) -> Transition {
        self.stats.fetch_blocks += 1;
        let l1_hit = self.l1i.access(block);

        // In-flight next-line prefetch covers the block: the paper counts
        // these as L1 hits (next-line is part of the base system), and
        // they are neither logged nor credited to the prefetcher. The
        // prefetcher may nevertheless hold the block and supply it earlier
        // than the in-flight fill (a "perfect and timely" prefetcher has
        // no such stalls at all).
        if !l1_hit {
            if let Some((ready, ())) = self.nl_inflight.remove(block) {
                self.stats.next_line_hits += 1;
                let supply = {
                    let mut ctx = PrefetchCtx {
                        now,
                        core: self.id,
                        l2,
                    };
                    pf.on_block_fetch(&mut ctx, block, FetchKind::NextLineInFlight)
                };
                let supplied_early = supply.is_some_and(|s| s < ready);
                let ready = supply.map_or(ready, |s| s.min(ready));
                // A substantially-exposed wait was an L1 miss at access
                // time (an MSHR hit on the in-flight prefetch) and is
                // logged at retirement — this is how TIFS streams come to
                // contain the sequential blocks that follow a
                // discontinuity, letting TIFS fetch them timely on the
                // next traversal (paper Section 7). Briefly-exposed waits
                // count as satisfied by next-line and are not logged,
                // keeping stream contents stable across traversals.
                let exposed = ready.saturating_sub(now) >= 8;
                let tag = if exposed || supplied_early {
                    Some((block, supplied_early))
                } else {
                    None
                };
                if ready <= now {
                    self.l1i.insert(block);
                    self.cur_block = Some(block);
                    self.issue_next_line(now, block, l2);
                    return Transition::Ready(tag);
                }
                self.fill_wait = Some(FillWait {
                    block,
                    ready,
                    miss_tag: tag,
                    issued: true,
                });
                return Transition::Wait;
            }
        }

        let supply = {
            let mut ctx = PrefetchCtx {
                now,
                core: self.id,
                l2,
            };
            pf.on_block_fetch(
                &mut ctx,
                block,
                if l1_hit {
                    FetchKind::L1Hit
                } else {
                    FetchKind::Miss
                },
            )
        };

        if l1_hit {
            self.stats.l1i_hits += 1;
            self.cur_block = Some(block);
            self.issue_next_line(now, block, l2);
            return Transition::Ready(None);
        }

        match supply {
            Some(ready) if ready <= now => {
                // SVB/FDIP-buffer hit: transfer into L1 immediately.
                self.stats.prefetch_hits += 1;
                self.note_miss_outcome(true);
                self.l1i.insert(block);
                self.cur_block = Some(block);
                self.issue_next_line(now, block, l2);
                Transition::Ready(Some((block, true)))
            }
            Some(ready) => {
                // Late prefetch: partially hidden latency.
                self.stats.prefetch_hits += 1;
                self.note_miss_outcome(true);
                self.fill_wait = Some(FillWait {
                    block,
                    ready,
                    miss_tag: Some((block, true)),
                    issued: true,
                });
                self.issue_next_line(now, block, l2);
                Transition::Wait
            }
            None => {
                self.stats.demand_misses += 1;
                self.note_miss_outcome(false);
                match l2.request(now, block, L2ReqKind::IFetch, None) {
                    Some(resp) => {
                        self.fill_wait = Some(FillWait {
                            block,
                            ready: resp.ready,
                            miss_tag: Some((block, false)),
                            issued: true,
                        });
                    }
                    None => {
                        self.fill_wait = Some(FillWait {
                            block,
                            ready: 0,
                            miss_tag: Some((block, false)),
                            issued: false,
                        });
                    }
                }
                self.issue_next_line(now, block, l2);
                Transition::Wait
            }
        }
    }

    fn train_control_flow(&mut self, now: u64, rec: &FetchRecord) {
        if let Some(b) = rec.branch {
            match b.kind {
                tifs_trace::BranchKind::Conditional => {
                    self.stats.cond_branches += 1;
                    let pred = self.bpred.predict(rec.pc);
                    self.bpred.update(rec.pc, b.taken);
                    if pred != b.taken {
                        self.stats.mispredicts += 1;
                        self.stalled_until = now + self.mispredict_penalty;
                    }
                }
                tifs_trace::BranchKind::Jump => {
                    self.btb.update(rec.pc, b.target);
                }
                tifs_trace::BranchKind::Call => {
                    self.ras.push(rec.fall_through());
                    // Indirect-call target change costs a redirect; the
                    // first encounter is a decode-time discovery (no bubble).
                    if let Some(t) = self.btb.predict(rec.pc) {
                        if t != b.target {
                            self.stats.mispredicts += 1;
                            self.stalled_until = now + self.mispredict_penalty;
                        }
                    }
                    self.btb.update(rec.pc, b.target);
                }
                tifs_trace::BranchKind::Return => {
                    let pred = self.ras.pop();
                    if pred != Some(b.target) {
                        self.stats.mispredicts += 1;
                        self.stalled_until = now + self.mispredict_penalty;
                    }
                }
            }
        }
        if rec.trap {
            // Trap redirect: flush-equivalent bubble.
            self.stalled_until = self.stalled_until.max(now + 2 * self.mispredict_penalty);
        }
    }
}

impl std::fmt::Debug for Core<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("retired", &self.stats.retired)
            .field("finished", &self.finished_at.is_some())
            .finish()
    }
}
