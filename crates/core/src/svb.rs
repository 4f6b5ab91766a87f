//! Streamed Value Buffers (paper Sections 5.1.2 and 5.2.1).
//!
//! Each core's SVB holds streamed blocks that have not yet been accessed
//! (a small fully-associative buffer, 2 KB = 32 blocks, LRU-replaced) and
//! the state of several in-progress streams: a FIFO of upcoming addresses
//! read from an IML, the IML continuation pointer, and the end-of-stream
//! pause state. The buffer doubles as a reorder window that tolerates
//! small deviations in stream order (paper Section 5.2.1).

use std::collections::VecDeque;

use tifs_sim::collections::FillQueue;
use tifs_trace::BlockAddr;

use crate::iml::ImlEntry;

/// One buffered streamed block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BufEntry {
    block: BlockAddr,
    ready: u64,
    stream: u8,
    generation: u64,
}

/// One stream context (paper Figure 9: IML pointer + FIFO of upcoming
/// prefetch addresses).
#[derive(Clone, Debug)]
pub struct StreamCtx {
    /// Context holds a live stream.
    pub active: bool,
    /// Core whose IML this stream follows (streams may have been logged by
    /// another core).
    pub src_core: u8,
    /// Next IML position to read into the FIFO.
    pub next_pos: u64,
    /// Upcoming addresses (with their logged hit bits).
    pub fifo: VecDeque<ImlEntry>,
    /// End-of-stream pause: awaiting a demand access to this block before
    /// fetching further (paper Section 5.1.3).
    pub paused_on: Option<BlockAddr>,
    /// Cycle after which FIFO contents are usable (virtualized IML read
    /// latency).
    pub data_ready: u64,
    /// The IML has no further entries for this stream.
    pub exhausted: bool,
    /// LRU timestamp.
    pub last_use: u64,
    /// Reallocation generation (dissociates leftover buffered blocks).
    pub generation: u64,
}

impl StreamCtx {
    fn idle() -> StreamCtx {
        StreamCtx {
            active: false,
            src_core: 0,
            next_pos: 0,
            fifo: VecDeque::new(),
            paused_on: None,
            data_ready: 0,
            exhausted: false,
            last_use: 0,
            generation: 0,
        }
    }
}

/// A core's streamed value buffer.
#[derive(Clone, Debug)]
pub struct Svb {
    buffer: Vec<BufEntry>,
    /// In-flight stream prefetches, carrying `(stream, generation)`.
    inflight: FillQueue<(u8, u64)>,
    streams: Vec<StreamCtx>,
    capacity: usize,
    hits: u64,
    discards: u64,
}

impl Svb {
    /// Creates an SVB with `capacity` buffered blocks and
    /// `stream_contexts` concurrent streams.
    pub fn new(capacity: usize, stream_contexts: usize) -> Svb {
        assert!(capacity > 0 && stream_contexts > 0);
        Svb {
            buffer: Vec::with_capacity(capacity),
            inflight: FillQueue::new(),
            streams: (0..stream_contexts).map(|_| StreamCtx::idle()).collect(),
            capacity,
            hits: 0,
            discards: 0,
        }
    }

    /// Attempts to supply `block`: searches the buffer, then in-flight
    /// prefetches. On success returns the fill-ready cycle and the owning
    /// stream, consuming the entry and clearing a matching end-of-stream
    /// pause.
    pub fn take(&mut self, block: BlockAddr, now: u64) -> Option<(u64, u8)> {
        let found = if let Some(pos) = self.buffer.iter().position(|e| e.block == block) {
            Some(self.buffer.remove(pos))
        } else {
            self.inflight
                .remove(block)
                .map(|(ready, (stream, generation))| BufEntry {
                    block,
                    ready,
                    stream,
                    generation,
                })
        };
        let e = found?;
        self.hits += 1;
        let sid = e.stream as usize;
        if sid < self.streams.len() {
            let s = &mut self.streams[sid];
            if s.generation == e.generation {
                s.last_use = now;
                if s.paused_on == Some(block) {
                    s.paused_on = None;
                }
            }
        }
        Some((e.ready, e.stream))
    }

    /// Whether `block` is buffered or in flight (duplicate-issue filter).
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.inflight.contains(block) || self.buffer.iter().any(|e| e.block == block)
    }

    /// Records an issued stream prefetch.
    pub fn note_inflight(&mut self, block: BlockAddr, ready: u64, stream: u8) {
        let generation = self.streams[stream as usize].generation;
        self.inflight.insert(ready, block, (stream, generation));
    }

    /// Cycle at which the earliest in-flight prefetch arrives, if any.
    pub fn next_arrival(&self) -> Option<u64> {
        // The fill queue iterates in descending (ready, block) order.
        self.inflight.iter().last().map(|&(ready, _, _)| ready)
    }

    /// Moves arrived prefetches into the buffer; evictions of never-used
    /// blocks count as discards (paper Section 6.4).
    pub fn drain_arrivals(&mut self, now: u64) {
        // The buffer is LRU-ordered, so arrival order decides evictions;
        // the fill queue pops in (ready, address) order structurally.
        while let Some((ready, block, (stream, generation))) = self.inflight.pop_ready(now) {
            if self.buffer.len() == self.capacity {
                self.buffer.pop();
                self.discards += 1;
            }
            self.buffer.insert(
                0,
                BufEntry {
                    block,
                    ready,
                    stream,
                    generation,
                },
            );
        }
    }

    /// The fetch unit hit `block` in the L1: a streamed copy (if any) is
    /// dead weight — drop it, resume a stream paused on it, and charge a
    /// discard (the prefetch was wasted traffic). Returns whether a copy
    /// was dropped.
    pub fn on_l1_hit(&mut self, block: BlockAddr, now: u64) -> bool {
        let entry = if let Some(pos) = self.buffer.iter().position(|e| e.block == block) {
            Some(self.buffer.remove(pos))
        } else {
            self.inflight
                .remove(block)
                .map(|(ready, (stream, generation))| BufEntry {
                    block,
                    ready,
                    stream,
                    generation,
                })
        };
        let Some(e) = entry else { return false };
        self.discards += 1;
        let sid = e.stream as usize;
        if sid < self.streams.len() {
            let s = &mut self.streams[sid];
            if s.generation == e.generation {
                s.last_use = now;
                if s.paused_on == Some(block) {
                    s.paused_on = None;
                }
            }
        }
        true
    }

    /// Blocks currently charged to stream `sid` (in flight + unconsumed).
    pub fn outstanding(&self, sid: u8) -> usize {
        let generation = self.streams[sid as usize].generation;
        self.inflight
            .iter()
            .filter(|&&(_, _, (s, g))| s == sid && g == generation)
            .count()
            + self
                .buffer
                .iter()
                .filter(|e| e.stream == sid && e.generation == generation)
                .count()
    }

    /// Allocates a stream context (LRU victim), returning its id. Leftover
    /// blocks of the victim stay buffered (they may still hit) but no
    /// longer count against the new stream.
    pub fn allocate_stream(&mut self, now: u64, src_core: u8, start_pos: u64) -> u8 {
        let sid = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| (s.active, s.last_use))
            .map(|(i, _)| i)
            .expect("at least one context");
        let generation = self.streams[sid].generation + 1;
        self.streams[sid] = StreamCtx {
            active: true,
            src_core,
            next_pos: start_pos,
            fifo: VecDeque::new(),
            paused_on: None,
            data_ready: now,
            exhausted: false,
            last_use: now,
            generation,
        };
        sid as u8
    }

    /// Mutable access to a stream context.
    pub fn stream_mut(&mut self, sid: u8) -> &mut StreamCtx {
        &mut self.streams[sid as usize]
    }

    /// Stream contexts.
    pub fn streams(&self) -> &[StreamCtx] {
        &self.streams
    }

    /// Number of stream contexts.
    pub fn num_streams(&self) -> usize {
        self.streams.len()
    }

    /// Successful supplies.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Never-used evictions.
    pub fn discards(&self) -> u64 {
        self.discards
    }

    /// Zeroes hit/discard counters (warmup discard).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.discards = 0;
    }

    /// Context-switch flush: drops every buffered and in-flight block and
    /// idles every stream, bumping each generation so any reference to a
    /// pre-flush stream dies. The incoming program must not consume the
    /// outgoing one's streamed blocks, so nothing survives; the drops are
    /// *not* charged as discards — a flush is an external event, not a
    /// prefetcher mistake, and the discard counter feeds the paper's
    /// overprediction accounting.
    pub fn flush(&mut self) {
        self.buffer.clear();
        self.inflight = FillQueue::new();
        for s in &mut self.streams {
            let generation = s.generation + 1;
            *s = StreamCtx {
                generation,
                ..StreamCtx::idle()
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_from_buffer_and_inflight() {
        let mut svb = Svb::new(4, 2);
        let sid = svb.allocate_stream(0, 0, 0);
        svb.note_inflight(BlockAddr(1), 10, sid);
        // Still in flight: supplied with its arrival time.
        assert_eq!(svb.take(BlockAddr(1), 5), Some((10, sid)));
        // Arrived entries supply from the buffer.
        svb.note_inflight(BlockAddr(2), 10, sid);
        svb.drain_arrivals(20);
        assert_eq!(svb.take(BlockAddr(2), 25), Some((10, sid)));
        assert_eq!(svb.hits(), 2);
    }

    #[test]
    fn eviction_counts_discards() {
        let mut svb = Svb::new(2, 1);
        let sid = svb.allocate_stream(0, 0, 0);
        for b in 0..3u64 {
            svb.note_inflight(BlockAddr(b), 0, sid);
            svb.drain_arrivals(10);
        }
        assert_eq!(svb.discards(), 1);
    }

    #[test]
    fn pause_cleared_on_matching_take() {
        let mut svb = Svb::new(4, 1);
        let sid = svb.allocate_stream(0, 0, 0);
        svb.stream_mut(sid).paused_on = Some(BlockAddr(9));
        svb.note_inflight(BlockAddr(9), 0, sid);
        svb.drain_arrivals(5);
        svb.take(BlockAddr(9), 6);
        assert_eq!(svb.streams()[sid as usize].paused_on, None);
    }

    #[test]
    fn outstanding_respects_generation() {
        let mut svb = Svb::new(4, 1);
        let sid = svb.allocate_stream(0, 0, 0);
        svb.note_inflight(BlockAddr(1), 0, sid);
        svb.drain_arrivals(1);
        assert_eq!(svb.outstanding(sid), 1);
        // Reallocate the context: the old block no longer counts.
        let sid2 = svb.allocate_stream(10, 0, 50);
        assert_eq!(sid, sid2, "single context reused");
        assert_eq!(svb.outstanding(sid2), 0);
        // The stale block can still supply a hit (window behaviour).
        assert!(svb.take(BlockAddr(1), 11).is_some());
    }

    #[test]
    fn lru_stream_allocation() {
        let mut svb = Svb::new(4, 2);
        let a = svb.allocate_stream(0, 0, 0);
        let b = svb.allocate_stream(1, 0, 0);
        assert_ne!(a, b);
        // Touch stream a at t=5 via a hit; b (older) is the next victim.
        svb.note_inflight(BlockAddr(3), 0, a);
        svb.take(BlockAddr(3), 5);
        let c = svb.allocate_stream(6, 0, 0);
        assert_eq!(c, b, "LRU context replaced");
    }

    #[test]
    fn flush_empties_everything_without_charging_discards() {
        let mut svb = Svb::new(4, 2);
        let sid = svb.allocate_stream(0, 0, 0);
        svb.note_inflight(BlockAddr(1), 0, sid);
        svb.note_inflight(BlockAddr(2), 50, sid);
        svb.drain_arrivals(10); // block 1 buffered, block 2 in flight
        let gen_before = svb.streams()[sid as usize].generation;
        svb.flush();
        assert!(!svb.holds(BlockAddr(1)) && !svb.holds(BlockAddr(2)));
        assert_eq!(svb.take(BlockAddr(1), 20), None);
        assert_eq!(svb.discards(), 0, "flush drops are not discards");
        assert!(svb.streams().iter().all(|s| !s.active));
        assert!(
            svb.streams()[sid as usize].generation > gen_before,
            "generation bump dissociates pre-flush references"
        );
    }

    #[test]
    fn holds_detects_duplicates() {
        let mut svb = Svb::new(4, 1);
        let sid = svb.allocate_stream(0, 0, 0);
        assert!(!svb.holds(BlockAddr(2)));
        svb.note_inflight(BlockAddr(2), 5, sid);
        assert!(svb.holds(BlockAddr(2)));
        svb.drain_arrivals(10);
        assert!(svb.holds(BlockAddr(2)));
    }
}
