//! The TIFS prefetcher: ties the per-core IMLs and SVBs to the shared
//! Index Table and drives them from the CMP timing model.
//!
//! Operation (paper Figure 7):
//! 1. an L1-I miss consults the Index Table (free — piggybacked on the L2
//!    access in the embedded organization);
//! 2. the pointer identifies the IML position where the address was most
//!    recently logged (the *Recent* heuristic);
//! 3. the stream following that position is read from the IML (twelve
//!    entries per virtualized read) into an SVB stream context;
//! 4. the SVB requests the stream's blocks from L2, rate-matched to keep
//!    four streamed-but-unaccessed blocks per stream;
//! 5. later misses that hit in the SVB are filled into the L1 instantly,
//!    advance the stream, and are logged (with the hit bit set) so the
//!    stream is refetched on its next traversal;
//! 6. fetching pauses after the first block whose logged hit bit is clear
//!    (potential end of stream) and resumes if that block is demanded.
//!
//! The per-cycle tick pumps a core's streams only on cycles where the pump
//! can act. After each pump the core sleeps until the earliest cycle at
//! which, absent callbacks, it could do anything (see
//! `TifsPrefetcher::next_wake`). A callback wakes it early when it
//! changes what the pump would do: a fetch that touches the core's SVB or
//! streams, a history append to a log one of its drained streams follows,
//! or any flush. A skipped tick is exactly one the pump would have spent
//! as a no-op, so gating changes the cost of a run, not its output.

use tifs_sim::config::SystemConfig;
use tifs_sim::l2::L2ReqKind;
use tifs_sim::metadata::MetadataPorts;
use tifs_sim::miss_trace::FunctionalFetchModel;
use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchCtx, BUFFER_BLOCKS};
use tifs_trace::BlockAddr;

use crate::iml::ENTRIES_PER_L2_BLOCK;
use crate::index::{ImlPtr, IndexCapacity, IndexKind, IndexTable};
use crate::sharing::{CapacityPartition, HistoryBuffers, MetadataOrg};
use crate::svb::Svb;

/// IML storage organization (the three TIFS bars of paper Figure 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImlStorage {
    /// Unlimited log, no storage traffic (idealized bound).
    Unbounded,
    /// Dedicated SRAM of `entries_per_core` entries; no L2 traffic.
    Dedicated {
        /// Log entries retained per core.
        entries_per_core: usize,
    },
    /// Log lives in the L2 data array: bounded, and reads/writes are real
    /// L2 accesses contending for banks.
    Virtualized {
        /// Log entries retained per core.
        entries_per_core: usize,
    },
}

/// TIFS configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TifsConfig {
    /// IML organization.
    pub storage: ImlStorage,
    /// Index-Table organization.
    pub index: IndexKind,
    /// SVB capacity in blocks (paper: 2 KB = 32).
    pub svb_blocks: usize,
    /// Concurrent stream contexts per SVB.
    pub stream_contexts: usize,
    /// Streamed-but-unaccessed blocks maintained per stream. The paper
    /// uses 4; our default is 8 because logged streams include the
    /// late-sequential blocks that follow discontinuities, roughly
    /// doubling stream density relative to discontinuity targets alone.
    pub rate_target: usize,
    /// Enable end-of-stream detection via hit bits (paper Section 5.1.3).
    pub end_of_stream: bool,
    /// Cross-core metadata organization (the sharing-study axis): the
    /// paper's private per-core capacity, or a shared pool behind
    /// arbitrated ports at the same total storage.
    pub metadata: MetadataOrg,
    /// Index-Table capacity in entries per core (`None` = unbounded, the
    /// paper's configuration). A bounded table partitions its capacity
    /// the way [`TifsConfig::metadata`] partitions history: static
    /// per-core quotas under private/quota organizations, one pooled
    /// budget with globally-oldest eviction under a fully-shared pool —
    /// so the *whole* metadata stack (history and index) moves together
    /// along the sharing axis.
    pub index_capacity: Option<usize>,
}

impl TifsConfig {
    /// The paper's default: 8K entries/core (156 KB total on 4 cores).
    pub const DEFAULT_ENTRIES_PER_CORE: usize = 8192;

    /// TIFS with unbounded IMLs and a dedicated index (idealized).
    pub fn unbounded() -> TifsConfig {
        TifsConfig {
            storage: ImlStorage::Unbounded,
            index: IndexKind::Dedicated,
            svb_blocks: BUFFER_BLOCKS,
            stream_contexts: 4,
            rate_target: 8,
            end_of_stream: true,
            metadata: MetadataOrg::PrivatePerCore,
            index_capacity: None,
        }
    }

    /// TIFS with 156 KB of dedicated IML SRAM.
    pub fn dedicated() -> TifsConfig {
        TifsConfig {
            storage: ImlStorage::Dedicated {
                entries_per_core: Self::DEFAULT_ENTRIES_PER_CORE,
            },
            index: IndexKind::Embedded,
            ..TifsConfig::unbounded()
        }
    }

    /// TIFS with 156 KB of IML storage virtualized into the L2 data array
    /// (the paper's proposed design).
    pub fn virtualized() -> TifsConfig {
        TifsConfig {
            storage: ImlStorage::Virtualized {
                entries_per_core: Self::DEFAULT_ENTRIES_PER_CORE,
            },
            index: IndexKind::Embedded,
            ..TifsConfig::unbounded()
        }
    }
}

/// The TIFS prefetcher for a whole CMP.
#[derive(Clone, Debug)]
pub struct TifsPrefetcher {
    cfg: TifsConfig,
    history: HistoryBuffers,
    index: IndexTable,
    /// Shared-metadata port arbiter. Index lookups, index updates,
    /// history appends, and history group reads each claim a port slot
    /// in their issue cycle; under a [`MetadataOrg::Shared`] organization
    /// with finite `ways`, latency-sensitive operations (lookups, group
    /// reads) absorb the cross-core delay while retire-side operations
    /// (appends, updates) only occupy ports. Private organizations
    /// arbitrate nothing (`ways == 0`).
    ports: MetadataPorts,
    svbs: Vec<Svb>,
    /// Per-core view of the Table II L1-I, probed before issuing stream
    /// prefetches (residency probes over the L1 tag ports; the paper's
    /// methodology grants FDIP the same unlimited tag bandwidth).
    l1: Vec<FunctionalFetchModel>,
    /// Per-core wake cycle: [`IPrefetcher::tick`] skips a core's pump
    /// while `now` is before it.
    wake: Vec<u64>,
    // Counters.
    lookups: u64,
    failed_lookups: u64,
    streams_allocated: u64,
    issued: u64,
    iml_reads: u64,
    iml_writes: u64,
    timely_supplies: u64,
    late_supplies: u64,
    late_cycles: u64,
}

impl TifsPrefetcher {
    /// Creates TIFS for `num_cores` cores.
    pub fn new(num_cores: usize, cfg: TifsConfig) -> TifsPrefetcher {
        let capacity = match cfg.storage {
            ImlStorage::Unbounded => None,
            ImlStorage::Dedicated { entries_per_core }
            | ImlStorage::Virtualized { entries_per_core } => Some(entries_per_core),
        };
        let index_capacity = cfg.index_capacity.map(|per_core| IndexCapacity {
            per_core,
            num_cores,
            pooled: matches!(
                cfg.metadata,
                MetadataOrg::Shared {
                    capacity_partition: CapacityPartition::FullyShared,
                    ..
                }
            ),
        });
        TifsPrefetcher {
            cfg,
            history: HistoryBuffers::new(num_cores, capacity, cfg.metadata),
            index: IndexTable::with_capacity(cfg.index, index_capacity),
            ports: MetadataPorts::new(num_cores, cfg.metadata.port_ways()),
            svbs: (0..num_cores)
                .map(|_| Svb::new(cfg.svb_blocks, cfg.stream_contexts))
                .collect(),
            l1: (0..num_cores)
                .map(|_| FunctionalFetchModel::new(&SystemConfig::table2()))
                .collect(),
            wake: vec![0; num_cores],
            lookups: 0,
            failed_lookups: 0,
            streams_allocated: 0,
            issued: 0,
            iml_reads: 0,
            iml_writes: 0,
            timely_supplies: 0,
            late_supplies: 0,
            late_cycles: 0,
        }
    }

    fn virtualized(&self) -> bool {
        matches!(self.cfg.storage, ImlStorage::Virtualized { .. })
    }

    /// Synthetic L2 block address backing a group of IML entries, in a
    /// private region of the physical address space (paper Section 5.2.2).
    fn iml_region_block(core: usize, pos: u64) -> BlockAddr {
        BlockAddr(0x0800_0000 + core as u64 * 0x0010_0000 + (pos / ENTRIES_PER_L2_BLOCK as u64))
    }

    /// Reads the next IML group into the stream's FIFO, issuing the
    /// virtualized L2 read when applicable.
    fn refill_stream(&mut self, ctx: &mut PrefetchCtx<'_>, core: usize, sid: u8) {
        let virtualized = self.virtualized();
        let (src_core, next_pos) = {
            let s = self.svbs[core].stream_mut(sid);
            if s.exhausted {
                return;
            }
            (s.src_core as usize, s.next_pos)
        };
        // The group read claims a shared-metadata port slot; a contended
        // slot delays the data below (never the private organization).
        let port_delay = self.ports.access(ctx.now, core);
        let group = self
            .history
            .read_group(src_core, next_pos, ENTRIES_PER_L2_BLOCK);
        if group.is_empty() {
            self.svbs[core].stream_mut(sid).exhausted = true;
            return;
        }
        let data_ready = if virtualized {
            let addr = Self::iml_region_block(src_core, next_pos);
            match ctx.l2.request(ctx.now, addr, L2ReqKind::ImlRead, None) {
                Some(resp) => {
                    self.iml_reads += 1;
                    resp.ready
                }
                None => return, // MSHRs full; retry on a later tick
            }
        } else {
            ctx.now + 1
        };
        let got = group.len() as u64;
        let s = self.svbs[core].stream_mut(sid);
        s.fifo.extend(group.iter().copied());
        s.next_pos += got;
        s.data_ready = s.data_ready.max(data_ready);
        if port_delay > 0 {
            s.data_ready = s.data_ready.max(ctx.now + port_delay);
        }
        if got < ENTRIES_PER_L2_BLOCK as u64 {
            // Caught up with the log head; more may be appended later, so
            // keep the stream live but stop reading until entries exist.
            s.exhausted = true;
        }
    }

    /// Issues stream prefetches for one core, honouring rate matching and
    /// end-of-stream pauses.
    fn pump_streams(&mut self, ctx: &mut PrefetchCtx<'_>, core: usize) {
        self.svbs[core].drain_arrivals(ctx.now);
        for sid in 0..self.svbs[core].num_streams() as u8 {
            let rate_target = self.cfg.rate_target;
            loop {
                let s = &self.svbs[core].streams()[sid as usize];
                if !s.active
                    || s.data_ready > ctx.now
                    || (self.cfg.end_of_stream && s.paused_on.is_some())
                {
                    break;
                }
                if s.fifo.is_empty() {
                    if !s.exhausted {
                        self.refill_stream(ctx, core, sid);
                        let s = &self.svbs[core].streams()[sid as usize];
                        if s.fifo.is_empty() {
                            break;
                        }
                        continue;
                    }
                    break;
                }
                if self.svbs[core].outstanding(sid) >= rate_target {
                    break;
                }
                let entry = self.svbs[core]
                    .stream_mut(sid)
                    .fifo
                    .pop_front()
                    .expect("checked non-empty");
                // Duplicate filter: already streamed and waiting.
                if self.svbs[core].holds(entry.block) {
                    continue;
                }
                // Residency filter: skip blocks the L1 already holds (a
                // probe over the tag port). The end-of-stream question is
                // still live for a skipped clear-bit block: pause and wait
                // to observe it in the fetch stream.
                if self.l1[core].holds(entry.block) {
                    if self.cfg.end_of_stream && !entry.svb_hit {
                        self.svbs[core].stream_mut(sid).paused_on = Some(entry.block);
                        break;
                    }
                    continue;
                }
                match ctx
                    .l2
                    .request(ctx.now, entry.block, L2ReqKind::IPrefetch, None)
                {
                    Some(resp) => {
                        self.issued += 1;
                        self.svbs[core].note_inflight(entry.block, resp.ready, sid);
                        if self.cfg.end_of_stream && !entry.svb_hit {
                            // Potential end of stream: pause until demanded.
                            self.svbs[core].stream_mut(sid).paused_on = Some(entry.block);
                            break;
                        }
                    }
                    None => {
                        // MSHRs full: put it back and retry next cycle.
                        self.svbs[core].stream_mut(sid).fifo.push_front(entry);
                        break;
                    }
                }
            }
            // Keep the FIFO primed ahead of the rate-matched issue.
            let s = &self.svbs[core].streams()[sid as usize];
            if s.active && s.fifo.len() < rate_target && !s.exhausted {
                self.refill_stream(ctx, core, sid);
            }
        }
    }

    /// One core's share of the per-cycle tick: revive streams whose log
    /// has grown, pump, and schedule the next wake.
    fn tick_core(&mut self, ctx: &mut PrefetchCtx<'_>, core: usize) {
        // Streams whose IML ran dry may have new entries now.
        for sid in 0..self.svbs[core].num_streams() as u8 {
            let s = &self.svbs[core].streams()[sid as usize];
            if s.active && s.exhausted {
                let src = s.src_core as usize;
                if self.history.is_valid(src, s.next_pos) {
                    self.svbs[core].stream_mut(sid).exhausted = false;
                }
            }
        }
        self.pump_streams(ctx, core);
        self.wake[core] = self.next_wake(core, ctx.now);
    }

    /// The earliest cycle after `now` at which ticking `core` could act,
    /// provided no callback touches its streams or the history first.
    ///
    /// A tick acts when a prefetch arrives (the drain can evict a block
    /// and so lower a stream's outstanding count), when a stream's IML
    /// data becomes usable (`data_ready`), and on the next cycle while any
    /// live stream can revive (its exhausted source log now holds
    /// `next_pos`), prime or refill its FIFO, or issue its FIFO head under
    /// the rate target — the last also being the retry after an MSHR
    /// rejection. Paused streams, streams at the rate target and drained
    /// streams wait on an arrival or a callback. Every tick skipped before
    /// this cycle is therefore one the pump would spend as a no-op: it
    /// claims no metadata port slot, makes no L2 request and changes no
    /// state.
    fn next_wake(&self, core: usize, now: u64) -> u64 {
        let svb = &self.svbs[core];
        let rate_target = self.cfg.rate_target;
        let mut wake = svb.next_arrival().unwrap_or(u64::MAX);
        for (sid, s) in svb.streams().iter().enumerate() {
            if !s.active {
                continue;
            }
            // Priming and revival run whatever the pause and data state.
            let reads = if s.exhausted {
                self.history.is_valid(s.src_core as usize, s.next_pos)
            } else {
                s.fifo.len() < rate_target
            };
            if reads {
                return now + 1;
            }
            if self.cfg.end_of_stream && s.paused_on.is_some() {
                continue;
            }
            if s.data_ready > now {
                wake = wake.min(s.data_ready);
                continue;
            }
            let acts = if s.fifo.is_empty() {
                !s.exhausted
            } else {
                svb.outstanding(sid as u8) < rate_target
            };
            if acts {
                return now + 1;
            }
        }
        wake
    }
}

impl IPrefetcher for TifsPrefetcher {
    fn name(&self) -> &'static str {
        "tifs"
    }

    fn observes_instructions(&self) -> bool {
        false
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        let core = ctx.core;
        // Maintain the L1 view: the fetched block plus the next-line
        // prefetches it triggers. This wakes nothing: only an issuing
        // stream probes the view, and such a stream keeps its core awake.
        self.l1[core].fill(block);
        if kind == FetchKind::L1Hit {
            // The SVB supplies blocks only after an L1 miss (paper: lookup
            // off the critical fetch path), but it observes the fetched
            // block address to retire dead entries and resume a stream
            // paused on a block that turned out L1-resident.
            let mut touched = self.svbs[core].on_l1_hit(block, ctx.now);
            // Streams paused on this block in the FIFO (not yet issued)
            // also resume past it.
            for sid in 0..self.svbs[core].num_streams() as u8 {
                let st = &self.svbs[core].streams()[sid as usize];
                if st.active && st.fifo.front().map(|e| e.block) == Some(block) {
                    let st = self.svbs[core].stream_mut(sid);
                    st.fifo.pop_front();
                    st.paused_on = None;
                    touched = true;
                }
            }
            if touched {
                self.wake[core] = 0;
            }
            return None;
        }
        if let Some((ready, _sid)) = self.svbs[core].take(block, ctx.now) {
            self.wake[core] = 0;
            if ready <= ctx.now {
                self.timely_supplies += 1;
            } else {
                self.late_supplies += 1;
                self.late_cycles += ready - ctx.now;
            }
            return Some(ready.max(ctx.now));
        }
        // The block may be further down an active stream's FIFO (the
        // stream is following correctly but the prefetches have not been
        // issued yet). Fast-forward that stream rather than replacing a
        // context: the SVB's stream pointers keep following; the demand
        // miss proceeds to L2.
        for sid in 0..self.svbs[core].num_streams() as u8 {
            let s = &self.svbs[core].streams()[sid as usize];
            if !s.active {
                continue;
            }
            if let Some(off) = s.fifo.iter().position(|e| e.block == block) {
                let now = ctx.now;
                let st = self.svbs[core].stream_mut(sid);
                st.fifo.drain(..=off);
                st.last_use = now;
                st.paused_on = None;
                self.wake[core] = 0;
                return None;
            }
        }
        // A transition covered by an in-flight next-line fill is an L1 hit
        // in the paper's accounting: it never triggers a stream lookup.
        if kind == FetchKind::NextLineInFlight {
            return None;
        }
        // SVB miss: locate the most recent occurrence and start a stream.
        // The lookup claims a shared-metadata port slot; cross-core
        // contention delays the new stream's start, never the demand
        // miss itself (the lookup is off the critical fetch path).
        self.lookups += 1;
        let port_delay = self.ports.access(ctx.now, core);
        match self.index.lookup(block) {
            Some(ImlPtr { core: src, pos }) if self.history.is_valid(src as usize, pos) => {
                let sid = self.svbs[core].allocate_stream(ctx.now, src, pos + 1);
                self.wake[core] = 0;
                self.streams_allocated += 1;
                if port_delay > 0 {
                    self.svbs[core].stream_mut(sid).data_ready = ctx.now + port_delay;
                }
                self.refill_stream(ctx, core, sid);
            }
            _ => {
                self.failed_lookups += 1;
            }
        }
        None
    }

    fn on_retire_fetch_miss(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        supplied: bool,
    ) {
        let core = ctx.core;
        // Retire-side metadata traffic (history append + index update)
        // occupies shared ports — delaying other cores' same-cycle
        // lookups — but is itself never waited on.
        self.ports.access(ctx.now, core);
        let pos = self.history.append(core, block, supplied);
        // A drained stream following this log, on any core, can now revive.
        for (svb, wake) in self.svbs.iter().zip(&mut self.wake) {
            if svb
                .streams()
                .iter()
                .any(|s| s.active && s.exhausted && usize::from(s.src_core) == core)
            {
                *wake = 0;
            }
        }
        if self.virtualized() && (pos + 1) % ENTRIES_PER_L2_BLOCK as u64 == 0 {
            // A group filled: write it back to the L2 data array.
            let addr = Self::iml_region_block(core, pos);
            if ctx
                .l2
                .request(ctx.now, addr, L2ReqKind::ImlWrite, None)
                .is_some()
            {
                self.iml_writes += 1;
            }
        }
        self.ports.access(ctx.now, core);
        let applied = match self.cfg.index {
            IndexKind::Dedicated => true,
            IndexKind::Embedded => {
                // The pointer rides the L2 tag: the update needs a tag-pipe
                // slot and a matching resident tag (paper Section 5.2.2).
                ctx.l2.contains_instruction(block) && ctx.l2.tag_update(ctx.now, block)
            }
        };
        self.index.update(
            block,
            ImlPtr {
                core: core as u8,
                pos,
            },
            applied,
        );
    }

    fn on_l2_evict(&mut self, block: BlockAddr) {
        self.index.on_l2_evict(block);
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        let core = ctx.core;
        // The incoming program must see none of the outgoing one's
        // temporal metadata: streams die (generation bump), the core's
        // history window is discarded (positions stay monotonic, so
        // other cores' streams into this log simply run dry), and every
        // Index-Table pointer into it is invalidated. The L1 view is
        // *not* cleared — caches keep their contents across a context
        // switch; only prediction metadata flushes.
        self.svbs[core].flush();
        self.history.flush_core(core);
        self.index.flush_core(core as u8);
        // Flushes are rare: waking every core is simply the safe choice.
        self.wake.fill(0);
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        for core in 0..self.svbs.len() {
            if ctx.now >= self.wake[core] {
                self.tick_core(ctx, core);
            }
        }
    }

    fn reset_counters(&mut self) {
        self.lookups = 0;
        self.failed_lookups = 0;
        self.streams_allocated = 0;
        self.issued = 0;
        self.iml_reads = 0;
        self.iml_writes = 0;
        self.timely_supplies = 0;
        self.late_supplies = 0;
        self.late_cycles = 0;
        self.index.reset_counters();
        self.ports.reset_counters();
        self.history.reset_counters();
        for svb in &mut self.svbs {
            svb.reset_counters();
        }
    }

    fn counters(&self) -> Vec<(String, f64)> {
        let discards: u64 = self.svbs.iter().map(Svb::discards).sum();
        let svb_hits: u64 = self.svbs.iter().map(Svb::hits).sum();
        let (idx_updates, idx_drops, idx_invals) = self.index.churn();
        let (port_conflicts, port_wait) = self.ports.contention();
        let pool_evictions = self.history.pool_evictions();
        // Every supply is an SVB hit: the two names carry one count.
        vec![
            ("supplied".into(), svb_hits as f64),
            ("svb_hits".into(), svb_hits as f64),
            ("discards".into(), discards as f64),
            ("issued".into(), self.issued as f64),
            ("lookups".into(), self.lookups as f64),
            ("failed_lookups".into(), self.failed_lookups as f64),
            ("streams".into(), self.streams_allocated as f64),
            ("iml_reads".into(), self.iml_reads as f64),
            ("timely_supplies".into(), self.timely_supplies as f64),
            ("late_supplies".into(), self.late_supplies as f64),
            ("late_cycles".into(), self.late_cycles as f64),
            ("iml_writes".into(), self.iml_writes as f64),
            ("index_updates".into(), idx_updates as f64),
            ("index_drops".into(), idx_drops as f64),
            ("index_invalidations".into(), idx_invals as f64),
            // Sharing-axis counters, emitted in every organization (zero
            // under private metadata) so degenerate shared configurations
            // stay byte-identical to the private report.
            ("meta_port_conflicts".into(), port_conflicts as f64),
            ("meta_port_wait".into(), port_wait as f64),
            ("iml_pool_evictions".into(), pool_evictions as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use tifs_sim::cmp::Cmp;
    use tifs_sim::config::SystemConfig;
    use tifs_sim::l2::L2;
    use tifs_sim::prefetch::NullPrefetcher;
    use tifs_trace::workload::{Workload, WorkloadSpec};
    use tifs_trace::FetchRecord;

    fn run_with<'a>(
        workload: &'a Workload,
        pf: Box<dyn IPrefetcher + 'a>,
        instrs: u64,
    ) -> tifs_sim::stats::SimReport {
        let cfg = SystemConfig::single_core();
        let streams: Vec<_> = (0..cfg.num_cores)
            .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
            .collect();
        let mut cmp = Cmp::new(cfg, streams, pf);
        cmp.run(instrs)
    }

    #[test]
    fn tifs_covers_misses_on_repetitive_workload() {
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let n = 400_000;
        let base = run_with(&w, Box::new(NullPrefetcher), n);
        let tifs = run_with(
            &w,
            Box::new(TifsPrefetcher::new(1, TifsConfig::virtualized())),
            n,
        );
        assert!(base.cores[0].baseline_misses() > 500);
        let cov = tifs.cores[0].coverage();
        assert!(cov > 0.3, "TIFS coverage too low: {cov}");
        assert!(
            tifs.aggregate_ipc() > base.aggregate_ipc(),
            "TIFS must speed up a repetitive workload: {} vs {}",
            tifs.aggregate_ipc(),
            base.aggregate_ipc()
        );
    }

    #[test]
    fn virtualized_iml_generates_l2_traffic() {
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let report = run_with(
            &w,
            Box::new(TifsPrefetcher::new(1, TifsConfig::virtualized())),
            300_000,
        );
        assert!(report.l2.iml_traffic() > 0, "IML reads/writes must appear");
        assert!(report.prefetcher_counter("iml_reads").unwrap() > 0.0);
    }

    #[test]
    fn dedicated_iml_produces_no_iml_traffic() {
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let report = run_with(
            &w,
            Box::new(TifsPrefetcher::new(1, TifsConfig::dedicated())),
            200_000,
        );
        assert_eq!(report.l2.iml_traffic(), 0);
    }

    #[test]
    fn unbounded_at_least_as_good_as_bounded() {
        let w = Workload::build(&WorkloadSpec::web_zeus(), 7);
        let n = 300_000;
        let unbounded = run_with(
            &w,
            Box::new(TifsPrefetcher::new(1, TifsConfig::unbounded())),
            n,
        );
        let virt = run_with(
            &w,
            Box::new(TifsPrefetcher::new(1, TifsConfig::virtualized())),
            n,
        );
        // Allow small noise, but unbounded + dedicated index should not lose.
        assert!(
            unbounded.coverage() >= virt.coverage() - 0.05,
            "unbounded {} vs virtualized {}",
            unbounded.coverage(),
            virt.coverage()
        );
    }

    fn run_cmp(
        workload: &Workload,
        cfg: tifs_sim::config::SystemConfig,
        tifs: TifsConfig,
        instrs: u64,
    ) -> tifs_sim::stats::SimReport {
        let streams: Vec<_> = (0..cfg.num_cores)
            .map(|c| Box::new(workload.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
            .collect();
        let cores = cfg.num_cores;
        let mut cmp = Cmp::new(cfg, streams, Box::new(TifsPrefetcher::new(cores, tifs)));
        cmp.run(instrs)
    }

    #[test]
    fn degenerate_shared_orgs_match_private_exactly() {
        use crate::sharing::MetadataOrg;
        let w = Workload::build(&WorkloadSpec::tiny_test(), 9);
        let base = TifsConfig::virtualized();
        // 1 core: sharing has nobody to share with, at any port count.
        let cfg = SystemConfig::single_core();
        let private = run_cmp(&w, cfg.clone(), base, 30_000);
        for org in [MetadataOrg::shared_quota(1), MetadataOrg::shared_pool(0)] {
            let shared = run_cmp(
                &w,
                cfg.clone(),
                TifsConfig {
                    metadata: org,
                    ..base
                },
                30_000,
            );
            assert_eq!(
                private.to_canonical_bytes(),
                shared.to_canonical_bytes(),
                "1-core {org:?} must be byte-identical to private"
            );
        }
        // N cores: per-core quotas + unlimited ports = private.
        let mut cfg = SystemConfig::table2();
        cfg.num_cores = 2;
        let private = run_cmp(&w, cfg.clone(), base, 20_000);
        let shared = run_cmp(
            &w,
            cfg,
            TifsConfig {
                metadata: MetadataOrg::shared_quota(0),
                ..base
            },
            20_000,
        );
        assert_eq!(private.to_canonical_bytes(), shared.to_canonical_bytes());
        assert_eq!(private.prefetcher_counter("meta_port_conflicts"), Some(0.0));
        assert_eq!(private.prefetcher_counter("iml_pool_evictions"), Some(0.0));
    }

    #[test]
    fn ported_sharing_contends_on_a_multicore_cmp() {
        use crate::sharing::MetadataOrg;
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let mut cfg = SystemConfig::table2();
        cfg.num_cores = 2;
        let contended = run_cmp(
            &w,
            cfg,
            TifsConfig {
                metadata: MetadataOrg::shared_quota(1),
                ..TifsConfig::virtualized()
            },
            150_000,
        );
        assert!(
            contended.prefetcher_counter("meta_port_conflicts").unwrap() > 0.0,
            "two cores on one metadata port must conflict"
        );
        assert!(contended.prefetcher_counter("meta_port_wait").unwrap() > 0.0);
    }

    #[test]
    fn shared_pool_keeps_streams_a_private_log_would_lose() {
        use crate::sharing::MetadataOrg;
        // A tiny budget share: core 0 is the only one logging misses, so
        // the pooled organization retains ~2x the history for it.
        let w = Workload::build(&WorkloadSpec::web_zeus(), 5);
        let mut cfg = SystemConfig::table2();
        cfg.num_cores = 2;
        let storage = ImlStorage::Virtualized {
            entries_per_core: 48,
        };
        let quota = run_cmp(
            &w,
            cfg.clone(),
            TifsConfig {
                storage,
                metadata: MetadataOrg::shared_quota(0),
                ..TifsConfig::virtualized()
            },
            60_000,
        );
        let pool = run_cmp(
            &w,
            cfg,
            TifsConfig {
                storage,
                metadata: MetadataOrg::shared_pool(0),
                ..TifsConfig::virtualized()
            },
            60_000,
        );
        assert!(
            pool.prefetcher_counter("iml_pool_evictions").unwrap() > 0.0,
            "an over-subscribed pool must evict"
        );
        assert_ne!(
            quota.to_canonical_bytes(),
            pool.to_canonical_bytes(),
            "partitioning must matter under capacity pressure"
        );
    }

    /// The ungated reference: pumps every core on every cycle, checking
    /// that each pump the wake gate would skip is a no-op — no change to
    /// the core's SVB, the metadata ports, the counters or the L2 — and
    /// counting those pumps in `asleep`.
    struct EveryCycle {
        tifs: TifsPrefetcher,
        asleep: Rc<Cell<u64>>,
    }

    impl IPrefetcher for EveryCycle {
        fn name(&self) -> &'static str {
            self.tifs.name()
        }

        fn on_block_fetch(
            &mut self,
            ctx: &mut PrefetchCtx<'_>,
            block: BlockAddr,
            kind: FetchKind,
        ) -> Option<u64> {
            self.tifs.on_block_fetch(ctx, block, kind)
        }

        fn on_retire_fetch_miss(
            &mut self,
            ctx: &mut PrefetchCtx<'_>,
            block: BlockAddr,
            supplied: bool,
        ) {
            self.tifs.on_retire_fetch_miss(ctx, block, supplied);
        }

        fn on_l2_evict(&mut self, block: BlockAddr) {
            self.tifs.on_l2_evict(block);
        }

        fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
            self.tifs.on_flush(ctx);
        }

        fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
            for core in 0..self.tifs.svbs.len() {
                if ctx.now >= self.tifs.wake[core] {
                    self.tifs.tick_core(ctx, core);
                    continue;
                }
                let snapshot = |t: &TifsPrefetcher, l2: &L2| {
                    (
                        format!("{:?} {:?}", t.svbs[core], t.ports),
                        t.counters(),
                        l2.stats().clone(),
                    )
                };
                let before = snapshot(&self.tifs, ctx.l2);
                self.tifs.tick_core(ctx, core);
                assert!(
                    snapshot(&self.tifs, ctx.l2) == before,
                    "core {core} acted at cycle {} while asleep",
                    ctx.now
                );
                self.asleep.set(self.asleep.get() + 1);
            }
        }

        fn counters(&self) -> Vec<(String, f64)> {
            self.tifs.counters()
        }

        fn reset_counters(&mut self) {
            self.tifs.reset_counters();
        }
    }

    #[test]
    fn wake_gated_tick_matches_pumping_every_cycle() {
        let switching = WorkloadSpec::web_zeus().with_ctx_switch_period(2_000);
        let table2 = SystemConfig::table2();
        let few_mshrs = SystemConfig {
            l2_mshrs: 6,
            ..SystemConfig::table2()
        };
        let v = TifsConfig::virtualized();
        let cases = [
            ("virtualized", WorkloadSpec::web_zeus(), &table2, v),
            (
                "virtualized/6 MSHRs",
                WorkloadSpec::web_zeus(),
                &few_mshrs,
                v,
            ),
            (
                "dedicated/ctx-switch",
                switching.clone(),
                &table2,
                TifsConfig::dedicated(),
            ),
            (
                "unbounded/no EOS",
                WorkloadSpec::oltp_db2(),
                &table2,
                TifsConfig {
                    end_of_stream: false,
                    ..TifsConfig::unbounded()
                },
            ),
            (
                "quota w1/ctx-switch",
                switching,
                &table2,
                TifsConfig {
                    metadata: MetadataOrg::shared_quota(1),
                    ..v
                },
            ),
            (
                "pool w2/24 entries",
                WorkloadSpec::web_zeus(),
                &table2,
                TifsConfig {
                    storage: ImlStorage::Virtualized {
                        entries_per_core: 24,
                    },
                    metadata: MetadataOrg::shared_pool(2),
                    ..v
                },
            ),
            (
                "rate 1/1 context",
                WorkloadSpec::oltp_db2(),
                &table2,
                TifsConfig {
                    rate_target: 1,
                    stream_contexts: 1,
                    ..v
                },
            ),
            (
                "rate 0",
                WorkloadSpec::oltp_db2(),
                &table2,
                TifsConfig {
                    rate_target: 0,
                    ..v
                },
            ),
        ];
        for (label, spec, sys, tifs) in cases {
            let w = Workload::build(&spec, 11);
            let run = |pf: Box<dyn IPrefetcher + '_>| {
                let streams: Vec<_> = (0..sys.num_cores)
                    .map(|c| Box::new(w.walker(c)) as Box<dyn Iterator<Item = FetchRecord>>)
                    .collect();
                Cmp::new(sys.clone(), streams, pf).run_with_warmup(2_000, 5_000)
            };
            let gated = run(Box::new(TifsPrefetcher::new(sys.num_cores, tifs)));
            let asleep = Rc::new(Cell::new(0));
            let reference = run(Box::new(EveryCycle {
                tifs: TifsPrefetcher::new(sys.num_cores, tifs),
                asleep: Rc::clone(&asleep),
            }));
            assert!(
                gated.to_canonical_bytes() == reference.to_canonical_bytes(),
                "{label}: gated report differs from the every-cycle one"
            );
            assert!(asleep.get() > 0, "{label}: the gate never skipped a tick");
        }
    }

    #[test]
    fn iml_region_blocks_are_disjoint_per_core() {
        let a = TifsPrefetcher::iml_region_block(0, 0);
        let b = TifsPrefetcher::iml_region_block(1, 0);
        assert_ne!(a, b);
        // Consecutive groups map to consecutive blocks.
        let c0 = TifsPrefetcher::iml_region_block(0, 0);
        let c1 = TifsPrefetcher::iml_region_block(0, 12);
        assert_eq!(c1.0 - c0.0, 1);
    }
}
