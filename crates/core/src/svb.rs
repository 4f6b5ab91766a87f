//! Streamed Value Buffers (paper Sections 5.1.2 and 5.2.1).
//!
//! Each core's SVB holds streamed blocks that have not yet been accessed
//! (a small fully-associative buffer, 2 KB = 32 blocks, LRU-replaced) and
//! the state of several in-progress streams: a FIFO of upcoming addresses
//! read from an IML, the IML continuation pointer, and the end-of-stream
//! pause state. The buffer doubles as a reorder window that tolerates
//! small deviations in stream order (paper Section 5.2.1).

use std::collections::VecDeque;

use tifs_sim::prefetch::PrefetchBuffer;
use tifs_trace::BlockAddr;

use crate::iml::ImlEntry;

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
    /// Streamed blocks, each tagged with its `(stream, generation)`.
    buffer: PrefetchBuffer<(u8, u64)>,
    streams: Vec<StreamCtx>,
    /// Per stream context, the buffered and in-flight blocks tagged with
    /// its current generation: what [`Svb::outstanding`] answers, kept
    /// as blocks enter and leave the buffer instead of counted per call.
    charged: Vec<usize>,
}

impl Svb {
    /// Creates an SVB with `capacity` buffered blocks and
    /// `stream_contexts` concurrent streams.
    pub fn new(capacity: usize, stream_contexts: usize) -> Svb {
        assert!(stream_contexts > 0);
        Svb {
            buffer: PrefetchBuffer::new(capacity),
            streams: (0..stream_contexts).map(|_| StreamCtx::idle()).collect(),
            charged: vec![0; stream_contexts],
        }
    }

    /// A block tagged `(sid, generation)` left the buffer: if the context
    /// still holds that stream, the block no longer counts against it.
    fn uncharge(streams: &[StreamCtx], charged: &mut [usize], (sid, generation): (u8, u64)) {
        if streams.get(sid as usize).map(|s| s.generation) == Some(generation) {
            charged[sid as usize] -= 1;
        }
    }

    /// Attempts to supply `block`: searches the buffer, then in-flight
    /// prefetches. On success returns the fill-ready cycle and the owning
    /// stream, consuming the entry and clearing a matching end-of-stream
    /// pause.
    pub fn take(&mut self, block: BlockAddr, now: u64) -> Option<(u64, u8)> {
        let (ready, tag) = self.buffer.take(block)?;
        self.touch_stream(tag, block, now);
        Some((ready, tag.0))
    }

    /// The stream that streamed `block` saw it used or dropped at `now`:
    /// if the context still holds that stream, stamp its use, end a pause
    /// on the block and stop charging the block to it.
    fn touch_stream(&mut self, (sid, generation): (u8, u64), block: BlockAddr, now: u64) {
        if let Some(s) = self.streams.get_mut(sid as usize) {
            if s.generation == generation {
                s.last_use = now;
                if s.paused_on == Some(block) {
                    s.paused_on = None;
                }
                self.charged[sid as usize] -= 1;
            }
        }
    }

    /// Whether `block` is buffered or in flight (duplicate-issue filter).
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.buffer.holds(block)
    }

    /// Records an issued stream prefetch.
    pub fn note_inflight(&mut self, block: BlockAddr, ready: u64, stream: u8) {
        let generation = self.streams[stream as usize].generation;
        self.buffer.issue(block, ready, (stream, generation));
        self.charged[stream as usize] += 1;
    }

    /// Cycle at which the earliest in-flight prefetch arrives, if any.
    pub fn next_arrival(&self) -> Option<u64> {
        self.buffer.next_arrival()
    }

    /// Moves arrived prefetches into the buffer; evictions of never-used
    /// blocks count as discards (paper Section 6.4).
    pub fn drain_arrivals(&mut self, now: u64) {
        let Svb {
            buffer,
            streams,
            charged,
        } = self;
        buffer.drain(now, |tag| Self::uncharge(streams, charged, tag));
    }

    /// The fetch unit hit `block` in the L1: a streamed copy (if any) is
    /// dead weight — drop it, resume a stream paused on it, and charge a
    /// discard (the prefetch was wasted traffic). Returns whether a copy
    /// was dropped.
    pub fn on_l1_hit(&mut self, block: BlockAddr, now: u64) -> bool {
        let Some(tag) = self.buffer.discard(block) else {
            return false;
        };
        self.touch_stream(tag, block, now);
        true
    }

    /// Blocks currently charged to stream `sid` (in flight + unconsumed).
    #[inline]
    pub fn outstanding(&self, sid: u8) -> usize {
        let charged = self.charged[sid as usize];
        debug_assert_eq!(charged, {
            let generation = self.streams[sid as usize].generation;
            self.buffer.count(|tag| tag == (sid, generation))
        });
        charged
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
        // No block carries the new generation yet.
        self.charged[sid] = 0;
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
        self.buffer.hits()
    }

    /// Never-used evictions.
    pub fn discards(&self) -> u64 {
        self.buffer.discards()
    }

    /// Zeroes hit/discard counters (warmup discard).
    pub fn reset_counters(&mut self) {
        self.buffer.reset_counters();
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
        self.charged.fill(0);
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
    use proptest::prelude::*;

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

    /// The blocks in the buffer tagged with `sid`'s current generation.
    fn counted(svb: &Svb, sid: u8) -> usize {
        let generation = svb.streams[sid as usize].generation;
        svb.buffer.count(|tag| tag == (sid, generation))
    }

    proptest! {
        /// The maintained charges equal a count over the buffer after
        /// every step: issues, arrivals that evict, supplies, L1-hit
        /// drops and flushes, while reallocated contexts roll their
        /// generations over and leave stale blocks behind.
        #[test]
        fn charges_match_a_count_over_the_buffer(
            capacity in prop_oneof![Just(1usize), Just(4usize), Just(32usize)],
            contexts in 1usize..=4,
            ops in prop::collection::vec((0u8..16, 0u64..1 << 16, 0u64..64), 1..300),
        ) {
            let mut svb = Svb::new(capacity, contexts);
            let mut now = 0u64;
            for &(op, block, arg) in &ops {
                // Three presence slots, several blocks in each.
                let block = BlockAddr(64 * (block % 4) + block % 3);
                let sid = (arg % contexts as u64) as u8;
                match op {
                    0..=1 => {
                        svb.allocate_stream(now, 0, arg);
                    }
                    2..=6 => {
                        if !svb.holds(block) {
                            svb.note_inflight(block, now + arg % 24, sid);
                        }
                    }
                    7..=9 => {
                        now += arg % 12;
                        svb.drain_arrivals(now);
                    }
                    10..=11 => {
                        let _ = svb.take(block, now);
                    }
                    12..=13 => {
                        let _ = svb.on_l1_hit(block, now);
                    }
                    14 if arg % 4 == 0 => svb.flush(),
                    _ => now += 1,
                }
                for sid in 0..contexts as u8 {
                    prop_assert_eq!(svb.outstanding(sid), counted(&svb, sid), "stream {}", sid);
                }
            }
        }
    }
}
